package repl

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/vcs"
)

// TestFollowerDeltaCatchUpConverges drops a follower far enough behind
// that streaming catch-up is impossible (the primary's buffer is cleared
// by a compact-and-restart), with a version store attached on the
// primary. The restarted follower must converge byte-identically through
// the commit-delta path, shipping less than a full snapshot because it
// already holds the shared history's chunks.
func TestFollowerDeltaCatchUpConverges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "primary.kdb")
	primary := openDB(t, path)
	repo, err := vcs.Attach(primary)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	for i := 0; i < 600; i++ {
		mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("v%d", i))
	}
	if _, _, err := repo.Commit("main", "repl", "campaign 1", 0); err != nil {
		t.Fatal(err)
	}
	srv1 := &kdb.Server{DB: primary, HeartbeatInterval: 20 * time.Millisecond}
	l1, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	fpath := filepath.Join(dir, "replica.kdb")
	fdb := openDB(t, fpath)
	f := NewFollower(fdb, l1.Addr().String(), fastOpts())
	f.Start(context.Background())
	waitLSN(t, f.DB(), primary.LSN())
	f.Stop()

	// The follower is down while the primary ingests another campaign,
	// commits it, compacts, and restarts — coming back with an empty
	// catch-up buffer whose base is beyond the follower's LSN, so only a
	// snapshot path can catch it up.
	for i := 0; i < 50; i++ {
		mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("late%d", i))
	}
	if _, _, err := repo.Commit("main", "repl", "campaign 2", 0); err != nil {
		t.Fatal(err)
	}
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	srv1.Shutdown(shutCtx)
	shutCancel()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	primary = openDB(t, path)
	addr := servePrimary(t, primary)

	fullSize := int64(len(dump(t, primary)))
	deltaBefore := metDeltaBytes.Value()

	f2 := NewFollower(fdb, addr, fastOpts())
	f2.Start(context.Background())
	defer f2.Stop()
	waitLSN(t, f2.DB(), primary.LSN())
	if dump(t, primary) != dump(t, f2.DB()) {
		t.Error("follower did not converge byte-identically through delta catch-up")
	}
	shipped := metDeltaBytes.Value() - deltaBefore
	if shipped <= 0 {
		t.Fatal("delta catch-up shipped no chunks — full-snapshot fallback was taken")
	}
	if shipped >= fullSize {
		t.Errorf("delta shipped %d bytes, not less than the %d-byte full snapshot", shipped, fullSize)
	}
	t.Logf("delta catch-up shipped %d of %d snapshot bytes (%.1f%%)",
		shipped, fullSize, 100*float64(shipped)/float64(fullSize))

	// The stream continues past the delta-installed snapshot.
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "after")
	waitLSN(t, f2.DB(), primary.LSN())
	if dump(t, primary) != dump(t, f2.DB()) {
		t.Error("follower diverged after post-delta commit")
	}
}

// TestCheckoutReachesFollower checks out an earlier commit on a served
// primary with a live follower. A checkout replaces state from outside
// replication, so it must land at an LSN the follower has not applied:
// at quiescence the follower holds the checked-out rows, not the
// pre-checkout ones, and the next write streams onto the same state.
func TestCheckoutReachesFollower(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "primary.kdb")
	primary := openDB(t, path)
	repo, err := vcs.Attach(primary)
	if err != nil {
		t.Fatal(err)
	}
	addr := servePrimary(t, primary)
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	for i := 0; i < 20; i++ {
		mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("v%d", i))
	}
	hash, _, err := repo.Commit("main", "repl", "twenty rows", 0)
	if err != nil {
		t.Fatal(err)
	}

	f := NewFollower(openDB(t, filepath.Join(dir, "replica.kdb")), addr, fastOpts())
	f.Start(context.Background())
	defer f.Stop()
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "uncommitted")
	waitLSN(t, f.DB(), primary.LSN())

	before := primary.LSN()
	if err := repo.Checkout(hash); err != nil {
		t.Fatal(err)
	}
	if primary.LSN() <= before {
		t.Fatalf("checkout left the LSN at %d (was %d)", primary.LSN(), before)
	}
	converged := func(when string) {
		t.Helper()
		waitLSN(t, f.DB(), primary.LSN())
		if p, r := dump(t, primary), dump(t, f.DB()); p != r {
			t.Fatalf("%s: follower diverged at LSN %d:\n--- primary ---\n%s--- follower ---\n%s", when, primary.LSN(), p, r)
		}
	}
	converged("after checkout")
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "after")
	converged("after the next write")

	// The primary's log reopens at the LSN the checkout landed at.
	lsn := primary.LSN()
	f.Stop()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if reopened := openDB(t, path); reopened.LSN() != lsn {
		t.Fatalf("reopened at LSN %d, want %d", reopened.LSN(), lsn)
	}
}
