package repl

import (
	"testing"

	"repro/internal/kdb"
)

// ProbePrimaryLSN must see commits made by OTHER sessions through the same
// primary — that's what distinguishes it from Router.LSN (this process's
// last write). An embedded primary has no status probe: its own LSN is
// exact.
func TestRouterPrimaryLSN(t *testing.T) {
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	rt := NewRouter(primary, &fakeReplica{db: primary})

	if got, want := rt.ProbePrimaryLSN(), primary.LSN(); got != want {
		t.Fatalf("ProbePrimaryLSN = %d, want primary's %d", got, want)
	}

	// A write directly on the primary (another process, another router)
	// is invisible to rt.LSN but not to ProbePrimaryLSN.
	before := rt.LSN()
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "foreign")
	if rt.LSN() != before {
		t.Fatalf("router last-write LSN moved on a foreign write: %d", rt.LSN())
	}
	if got, want := rt.ProbePrimaryLSN(), primary.LSN(); got != want {
		t.Fatalf("ProbePrimaryLSN after foreign write = %d, want %d", got, want)
	}

	// A write through the router advances both views identically.
	res, err := rt.Exec("INSERT INTO kv (v) VALUES (?)", "mine")
	if err != nil {
		t.Fatal(err)
	}
	if rt.ProbePrimaryLSN() < res.LSN {
		t.Fatalf("ProbePrimaryLSN %d below routed write's LSN %d", rt.ProbePrimaryLSN(), res.LSN)
	}
}

// Over a kdb:// primary the remote client's LSN is a passive high-water
// mark: it only advances when this process's traffic carries a newer
// value. A router that routes all reads to replicas therefore never sees
// a foreign writer's commit through its passive view (the router's last
// write and the client's mark) — ProbePrimaryLSN must issue the status
// round trip that does.
func TestRouterProbePrimaryLSNSeesForeignWrites(t *testing.T) {
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	addr := servePrimary(t, primary)

	conn, err := kdb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rt := NewRouter(conn, &fakeReplica{db: primary})
	passive := func() int64 { return max(rt.LSN(), conn.LSN()) }
	// One routed write so the remote's passive mark is non-zero.
	if _, err := rt.Exec("INSERT INTO kv (v) VALUES (?)", "mine"); err != nil {
		t.Fatal(err)
	}
	before := passive()

	// A foreign writer commits directly on the primary. The router's
	// passive view must not move (no traffic carried the new LSN)...
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "foreign")
	if got := passive(); got != before {
		t.Fatalf("passive view moved on a foreign write: %d -> %d", before, got)
	}
	// ...but the active probe sees it immediately.
	if got, want := rt.ProbePrimaryLSN(), primary.LSN(); got != want {
		t.Fatalf("ProbePrimaryLSN = %d, want primary's %d", got, want)
	}
	// And the probe's side effect advanced the passive mark too.
	if got := passive(); got != primary.LSN() {
		t.Fatalf("passive view after probe = %d, want %d", got, primary.LSN())
	}
}
