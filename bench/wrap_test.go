package main

import (
	"testing"

	"repro/internal/kdb"
	"repro/internal/repl"
	"repro/internal/telemetry"
)

// The program discovers optional behaviour by asserting interfaces on the
// connection it was handed. A wrapper that lost one of them would send the
// traced run down a different code path than the untraced one.
func TestWrappersKeepEveryInterfaceTheProgramAssertsOn(t *testing.T) {
	db, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr := newTracer()
	var wdb any = &tracedDB{DB: db, seam: seam{t: tr, name: spEngine}}
	if _, ok := wdb.(kdb.Batcher); !ok {
		t.Error("tracedDB lost kdb.Batcher: schema would fall back to statement-at-a-time saves")
	}
	if _, ok := wdb.(kdb.TracedConn); !ok {
		t.Error("tracedDB lost kdb.TracedConn")
	}
	if _, ok := wdb.(interface {
		CommitNotify() <-chan struct{}
		LSN() int64
	}); !ok {
		t.Error("tracedDB lost CommitNotify/LSN: api would poll instead of riding the commit broadcast")
	}
	if _, ok := wdb.(kdb.KeyedBatcher); ok {
		t.Error("tracedDB gained kdb.KeyedBatcher, which the bare *kdb.DB does not have")
	}

	var wrt any = &tracedRouter{Router: repl.NewRouter(db), seam: seam{t: tr, name: spStore}}
	if _, ok := wrt.(interface{ ProbePrimaryLSN() int64 }); !ok {
		t.Error("tracedRouter lost ProbePrimaryLSN: api would not notice foreign commits")
	}
	if _, ok := wrt.(kdb.Batcher); !ok {
		t.Error("tracedRouter lost kdb.Batcher")
	}
	if _, ok := wrt.(kdb.TracedConn); !ok {
		t.Error("tracedRouter lost kdb.TracedConn")
	}
	if _, ok := wrt.(interface {
		CommitNotify() <-chan struct{}
	}); ok {
		t.Error("tracedRouter gained CommitNotify, which would win api's validity switch")
	}

	var wre any = &tracedRemote{seam: seam{t: tr, name: spWire}}
	if _, ok := wre.(kdb.Batcher); ok {
		t.Error("tracedRemote gained kdb.Batcher: the bare *kdb.Remote has none, so every statement is a round trip")
	}
	if _, ok := wre.(repl.Replica); !ok {
		t.Error("tracedRemote is not a repl.Replica")
	}
}

func TestBatchThroughTheWrapperCountsLikeTheBareDB(t *testing.T) {
	batches := telemetry.Default().Counter("kdb_batches_total")
	insert := func(c kdb.Conn) int64 {
		t.Helper()
		before := batches.Value()
		err := c.(kdb.Batcher).Batch(func(exec kdb.ExecFunc) error {
			for i := 0; i < 3; i++ {
				if _, err := exec("INSERT INTO t (n) VALUES (?)", int64(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return batches.Value() - before
	}
	db, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.on.Store(true)
	w := &tracedDB{DB: db, seam: seam{t: tr, name: spEngine}}
	bare, wrapped := insert(db), insert(w)
	if bare != 1 || wrapped != bare {
		t.Errorf("kdb_batches_total moved by %d bare and %d through the wrapper, want 1 and 1", bare, wrapped)
	}
	if got := db.LSN(); got != 1+3+3 {
		t.Errorf("LSN = %d after DDL and two batches of three, want 7", got)
	}
	if w.calls.Load() != 1 || len(tr.spans) != 1 || tr.spans[0].Name != spEngine {
		t.Errorf("the wrapper should have recorded one call and one span: calls %d, spans %+v", w.calls.Load(), tr.spans)
	}

	rows, err := w.Query("SELECT n FROM t")
	if err != nil || rows.Len() != 6 {
		t.Fatalf("query through the wrapper: %v rows, err %v", rows, err)
	}
	if last := tr.spans[len(tr.spans)-1]; last.N != 6 {
		t.Errorf("query span carries %d rows, want 6", last.N)
	}
	if _, err := w.Exec("INSERT INTO t (n) VALUES (9)"); err != nil {
		t.Fatal(err)
	}
	if last := tr.spans[len(tr.spans)-1]; last.N != execSpan {
		t.Errorf("exec span N = %d, want the exec marker", last.N)
	}
}
