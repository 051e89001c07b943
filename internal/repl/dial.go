package repl

import (
	"fmt"
	"strings"

	"repro/internal/kdb"
)

// Dial opens a primary and fronts it with a read Router over the given
// replica addresses — the one place a primary plus a replica list becomes
// a connection. The primary is a "kdb://host:port" URL, or a database file
// path ("" for in-memory) opened embedded; replicas are always wire
// addresses. With no replicas the bare primary is returned: a Router would
// only add a hop. On any failure every connection opened so far is closed.
func Dial(primary string, replicas ...string) (kdb.Conn, error) {
	var conn kdb.Conn
	var err error
	if strings.HasPrefix(primary, "kdb://") {
		conn, err = kdb.Dial(primary)
	} else {
		conn, err = kdb.Open(primary)
	}
	if err != nil {
		return nil, err
	}
	if len(replicas) == 0 {
		return conn, nil
	}
	rt := NewRouter(conn)
	for _, addr := range replicas {
		r, err := kdb.Dial(addr)
		if err != nil {
			rt.Close() // the primary and every replica dialled so far
			return nil, fmt.Errorf("replica %s: %w", addr, err)
		}
		rt.replicas = append(rt.replicas, &replicaState{r: r})
	}
	return rt, nil
}
