package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/repl"
	"repro/internal/telemetry"
)

// countingExec embeds a Conn as an interface value, so it has no Batch of
// its own whatever it wraps, and intercepts both statement pairs as the
// kdb.Conn wrapper rule requires.
type countingExec struct {
	kdb.Conn
	execs int
}

func (c *countingExec) Exec(query string, args ...any) (kdb.Result, error) {
	return c.ExecTraced(telemetry.TraceContext{}, query, args...)
}

func (c *countingExec) ExecTraced(tc telemetry.TraceContext, query string, args ...any) (kdb.Result, error) {
	c.execs++
	return c.Conn.ExecTraced(tc, query, args...)
}

// TestConnConformance holds every kdb.Conn implementer to the one surface:
// a traced statement records a span linked under the caller's hop, LSN
// never moves backwards across a write, and kdb.Batch is atomic where the
// connection can batch and statement-at-a-time through the outermost Exec
// where it cannot.
func TestConnConformance(t *testing.T) {
	// stepSpans is how many spans a read step of two statements links under
	// the caller: one for a hop that carries the step whole, one per
	// statement where each is its own select or scatter-gather.
	impls := []struct {
		name      string
		stepSpans int
		open      func(t *testing.T) kdb.Conn
	}{
		{"DB", 2, func(t *testing.T) kdb.Conn { return kdbtest.MemDB(t, kdb.DBOptions{}) }},
		{"Remote", 1, func(t *testing.T) kdb.Conn {
			r, err := kdb.Dial(kdbtest.Serve(t, &kdb.Server{DB: kdbtest.MemDB(t, kdb.DBOptions{})}))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}},
		{"Router", 1, func(t *testing.T) kdb.Conn { return repl.NewRouter(kdbtest.MemDB(t, kdb.DBOptions{})) }},
		{"Coordinator", 2, func(t *testing.T) kdb.Conn {
			c, err := New(kdbtest.MemDB(t, kdb.DBOptions{AutoIDStride: 2}), kdbtest.MemDB(t, kdb.DBOptions{AutoIDOffset: 1, AutoIDStride: 2}))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			t.Cleanup(func() {
				telemetry.SetTracing(false)
				telemetry.Traces.Reset()
			})
			telemetry.Traces.Reset()
			c := impl.open(t)
			if _, err := c.Exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)"); err != nil {
				t.Fatal(err)
			}

			before := c.LSN()
			if _, err := c.Exec("INSERT INTO kv (v) VALUES (?)", "a"); err != nil {
				t.Fatal(err)
			}
			if after := c.LSN(); after < before || after == 0 {
				t.Errorf("LSN went %d -> %d across an Exec", before, after)
			}

			telemetry.SetTracing(true)
			caller := telemetry.StartHop(telemetry.TraceContext{}, "caller")
			tc := caller.Context()
			if _, err := c.ExecTraced(tc, "INSERT INTO kv (v) VALUES (?)", "b"); err != nil {
				t.Fatal(err)
			}
			rows, err := c.QueryTraced(tc, "SELECT v FROM kv ORDER BY v")
			if err != nil || rows.Len() != 2 {
				t.Fatalf("traced query = %v, %v", rows, err)
			}
			step, err := c.QueryBatch(tc, []kdb.Stmt{
				{SQL: "SELECT v FROM kv ORDER BY v"},
				{SQL: "SELECT COUNT(*) FROM kv WHERE v = ?", Args: []any{"b"}},
			})
			if err != nil || len(step) != 2 || fmt.Sprint(step[0].All(), step[1].All()) != "[[a] [b]] [[1]]" {
				t.Fatalf("read step = %v, %v", step, err)
			}
			caller.End()
			children := 0
			for _, s := range telemetry.Traces.AllSpans() {
				if s.TraceID != tc.TraceID {
					t.Errorf("span %q rooted a foreign trace", s.Name)
				}
				if s.ParentID == tc.SpanID {
					children++
				}
			}
			if want := 2 + impl.stepSpans; children != want {
				t.Errorf("%d spans linked directly under the caller's hop, want %d: one per traced statement, %d for the step", children, want, impl.stepSpans)
			}
		})
	}

	count := func(t *testing.T, c kdb.Conn) int64 {
		row, err := c.QueryRow("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		return row[0].(int64)
	}
	failing := func(exec kdb.ExecFunc) error {
		for _, v := range []string{"a", "b", "c"} {
			if _, err := exec("INSERT INTO kv (v) VALUES (?)", v); err != nil {
				return err
			}
		}
		return errors.New("abort")
	}
	t.Run("Batch/atomic on DB", func(t *testing.T) {
		db := kdbtest.MemDB(t, kdb.DBOptions{})
		db.Exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
		if err := kdb.Batch(db, failing); err == nil {
			t.Fatal("the batch's error was swallowed")
		}
		if n := count(t, db); n != 0 {
			t.Errorf("%d rows survived a failed batch, want a full rollback", n)
		}
	})
	t.Run("Batch/outermost Exec without a Batcher", func(t *testing.T) {
		db := kdbtest.MemDB(t, kdb.DBOptions{})
		db.Exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
		w := &countingExec{Conn: db}
		if err := kdb.BatchKeyed(w, 7, failing); err == nil {
			t.Fatal("the batch's error was swallowed")
		}
		if w.execs != 3 {
			t.Errorf("wrapper saw %d statements, want all 3", w.execs)
		}
		if n := count(t, db); n != 3 {
			t.Errorf("%d rows after a statement-at-a-time fallback, want 3 (no atomicity to roll back)", n)
		}
	})
}
