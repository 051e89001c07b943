package repl

import (
	"net"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/telemetry"
)

// serveOneConn starts a replica-role server that admits a single connection, so a
// client left open by someone else is observable from outside: the next
// dial is refused until the server is back to zero open connections.
func serveOneConn(t *testing.T) string {
	t.Helper()
	return kdbtest.Serve(t, &kdb.Server{DB: kdbtest.MemDB(t, kdb.DBOptions{}), Role: "replica", ReadOnly: true, MaxConns: 1})
}

// waitNoOpenConns polls until a fresh client gets served by the
// single-connection server at addr.
func waitNoOpenConns(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := kdb.Dial(addr)
		if err == nil {
			_, err = r.Status()
			r.Close()
		}
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server %s still holds a connection after the failed Dial: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDialClosesEverythingOnPartialFailure: when the third replica refuses
// the dial, the primary and the two replicas already connected are closed —
// not just the primary.
func TestDialClosesEverythingOnPartialFailure(t *testing.T) {
	// A leaked client's socket is closed by its finalizer once collected,
	// which would let this test pass on a leak; no GC, no finalizers.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	primary := servePrimary(t, openDB(t, ""))
	live1 := serveOneConn(t)
	live2 := serveOneConn(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := l.Addr().String()
	l.Close()

	conn, err := Dial("kdb://"+primary, live1, live2, "kdb://"+refused)
	if err == nil {
		conn.Close()
		t.Fatal("Dial succeeded against a refused replica address")
	}
	if !strings.Contains(err.Error(), refused) {
		t.Errorf("error should name the replica that failed: %v", err)
	}
	waitNoOpenConns(t, live1)
	waitNoOpenConns(t, live2)
}

// TestDialWithoutReplicasIsTheBarePrimary: no Router hop is added when
// there is nothing to route to.
func TestDialWithoutReplicasIsTheBarePrimary(t *testing.T) {
	conn, err := Dial("")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*kdb.DB); !ok {
		t.Errorf("Dial(\"\") = %T, want the embedded *kdb.DB", conn)
	}
	remote, err := Dial("kdb://" + servePrimary(t, openDB(t, "")))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, ok := remote.(*kdb.Remote); !ok {
		t.Errorf("Dial(kdb://) = %T, want the bare *kdb.Remote", remote)
	}
}

// TestRouterQueryRowIsTraced: a point read through the router is the same
// routed, traced read as Query — one "router.query" span naming the
// replica that served it, with the replica's engine span beneath.
func TestRouterQueryRowIsTraced(t *testing.T) {
	resetTracing(t)
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "x")
	rt := NewRouter(primary, &fakeReplica{db: primary})
	telemetry.SetTracing(true)
	row, err := rt.QueryRow("SELECT v FROM kv WHERE id = ?", int64(1))
	if err != nil || len(row) != 1 || row[0] != "x" {
		t.Fatalf("QueryRow = %v, %v", row, err)
	}
	var routed, engine []telemetry.SpanRecord
	for _, s := range telemetry.Traces.AllSpans() {
		switch s.Name {
		case "router.query":
			routed = append(routed, s)
		case "db.select":
			engine = append(engine, s)
		}
	}
	if len(routed) != 1 || !strings.Contains(routed[0].AttrsText(), `target="replica 0"`) {
		t.Fatalf("router.query spans = %+v", routed)
	}
	if len(engine) != 1 || engine[0].ParentID != routed[0].SpanID {
		t.Fatalf("db.select should nest under the router span: %+v", engine)
	}
}
