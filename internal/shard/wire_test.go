package shard

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/kdb"
)

// serveBackend starts a kdb server and returns its host:port.
func serveBackend(t testing.TB, srv *kdb.Server) string {
	t.Helper()
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return l.Addr().String()
}

// TestCoordinatorServedOverWire is the deployment shape: shard primaries
// served over TCP, a coordinator dialing them as remotes, itself served
// over the same wire protocol with the shard-map verb, and a plain kdb
// client routing everything through the coordinator's address.
func TestCoordinatorServedOverWire(t *testing.T) {
	const n = 2
	var specs []Spec
	var conns []kdb.Conn
	for i := 0; i < n; i++ {
		db, err := kdb.OpenWithOptions("", kdb.DBOptions{AutoIDOffset: int64(i), AutoIDStride: n})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		addr := serveBackend(t, &kdb.Server{DB: db})
		specs = append(specs, Spec{Primary: "kdb://" + addr})
		r, err := kdb.Dial("kdb://" + addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		conns = append(conns, r)
	}
	coord, err := New(conns...)
	if err != nil {
		t.Fatal(err)
	}
	coord.smap = &Map{Epoch: 1, Shards: specs}
	coordAddr := serveBackend(t, &kdb.Server{Backend: coord})

	client, err := kdb.Dial("kdb://" + coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Clients discover the topology from the coordinator's address.
	m, err := FetchMap("kdb://" + coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || len(m.Shards) != n {
		t.Fatalf("fetched map = %+v", m)
	}

	if _, err := client.Exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if _, err := client.Exec("INSERT INTO kv (id, n, v) VALUES (?, ?, ?)",
			int64(i), int64(i%4), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	row, err := client.QueryRow("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].(int64) != 20 {
		t.Fatalf("count over wire = %v, want 20", row[0])
	}
	rows, err := client.Query("SELECT n, COUNT(*), MIN(id) FROM kv GROUP BY n ORDER BY n")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 4 {
		t.Fatalf("grouped rows over wire = %d, want 4", rows.Len())
	}
	rows, err = client.Query("SELECT v FROM kv ORDER BY id DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	got := rows.All()
	if len(got) != 3 || got[0][0] != "v20" || got[2][0] != "v18" {
		t.Fatalf("ordered limit over wire = %v", got)
	}

	// Replication verbs stay guarded on a DB-less coordinator server.
	r2, err := kdb.Dial("kdb://" + coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, _, err := r2.Snapshot(); err == nil {
		t.Error("snapshot verb should fail on a coordinator server (no local DB)")
	}
}

// TestShardMapVerbUnconfigured pins the error path: a plain data server
// has no shard map to serve.
func TestShardMapVerbUnconfigured(t *testing.T) {
	db, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addr := serveBackend(t, &kdb.Server{DB: db})
	if _, err := FetchMap("kdb://" + addr); err == nil {
		t.Error("shardmap verb on a plain server should error")
	}
}

// TestServedCoordinatorTakesBatchWhole: a keyed batch sent to a coordinator's
// kdb:// address is routed as one unit to the shard its key picks — itself a
// wire connection, so the batch's references travel on as references — and a
// child row carries the id its parent got on that shard. Before the batch verb
// the key never left the client and every INSERT was routed on its own.
func TestServedCoordinatorTakesBatchWhole(t *testing.T) {
	const n = 2
	var dbs []*kdb.DB
	var conns []kdb.Conn
	for i := 0; i < n; i++ {
		db, err := kdb.OpenWithOptions("", kdb.DBOptions{AutoIDOffset: int64(i), AutoIDStride: n})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		r, err := kdb.Dial(serveBackend(t, &kdb.Server{DB: db}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		dbs, conns = append(dbs, db), append(conns, r)
	}
	coord, err := New(conns...)
	if err != nil {
		t.Fatal(err)
	}
	client, err := kdb.Dial(serveBackend(t, &kdb.Server{Backend: coord}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Exec("CREATE TABLE node (id INTEGER PRIMARY KEY, parent INTEGER, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 2*n; key++ {
		var parent, child kdb.Ref
		err := kdb.BatchKeyed(client, key, func(exec kdb.ExecFunc) error {
			res, err := exec("INSERT INTO node (parent, v) VALUES (?, ?)", int64(0), fmt.Sprintf("root %d", key))
			if err != nil {
				return err
			}
			parent = res.Ref()
			for i := 0; i < 3; i++ {
				if res, err = exec("INSERT INTO node (parent, v) VALUES (?, ?)", parent, fmt.Sprintf("leaf %d.%d", key, i)); err != nil {
					return err
				}
			}
			child = res.Ref()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		shard := dbs[key%n]
		rows, err := shard.Query("SELECT id FROM node WHERE parent = ?", parent)
		if err != nil || rows.Len() != 3 {
			t.Fatalf("key %d: shard %d holds %v leaves under root %d (err %v), want 3", key, key%n, rows.Len(), parent.ID(), err)
		}
		if (parent.ID()-1)%n != int64(key%n) || child.ID() != parent.ID()+3*n {
			t.Errorf("key %d: root id %d and last leaf id %d are not consecutive ids of shard %d", key, parent.ID(), child.ID(), key%n)
		}
	}
	for i, db := range dbs {
		if row, err := db.QueryRow("SELECT COUNT(*) FROM node"); err != nil || row[0] != int64(8) {
			t.Errorf("shard %d holds %v rows (err %v), want the 8 of its two batches", i, row, err)
		}
	}
}
