package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/telemetry"
)

// fastOpts keeps reconnect/heartbeat cycles short so failure scenarios
// resolve in milliseconds even under -race.
func fastOpts() Options {
	return Options{
		HeartbeatTimeout: 500 * time.Millisecond,
		RetryMin:         10 * time.Millisecond,
		RetryMax:         100 * time.Millisecond,
	}
}

// servePrimary starts a replication-capable server over db and returns
// its address.
func servePrimary(t *testing.T, db *kdb.DB) string {
	t.Helper()
	srv := &kdb.Server{DB: db, HeartbeatInterval: 50 * time.Millisecond}
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

func openDB(t *testing.T, path string) *kdb.DB {
	t.Helper()
	db, err := kdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// waitLSN polls until db has applied at least lsn.
func waitLSN(t *testing.T, db *kdb.DB, lsn int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for db.LSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for LSN %d, stuck at %d", lsn, db.LSN())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dump renders the database's deterministic snapshot serialization; two
// databases are converged replicas exactly when their dumps are equal.
func dump(t *testing.T, db *kdb.DB) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func mustExec(t *testing.T, db *kdb.DB, sql string, args ...any) kdb.Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func TestFollowerStreamsCommits(t *testing.T) {
	primary := openDB(t, "")
	addr := servePrimary(t, primary)
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")

	f := NewFollower(openDB(t, ""), addr, fastOpts())
	f.Start(context.Background())
	defer f.Stop()

	for i := 0; i < 20; i++ {
		mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("v%d", i))
	}
	waitLSN(t, f.DB(), primary.LSN())
	if d1, d2 := dump(t, primary), dump(t, f.DB()); d1 != d2 {
		t.Errorf("follower diverged:\n--- primary ---\n%s--- follower ---\n%s", d1, d2)
	}
	st := f.Health()
	if st.Role != "replica" || st.AppliedLSN != primary.LSN() || st.LagLSN != 0 {
		t.Errorf("health = %+v", st)
	}
}

func TestFollowerSnapshotBootstrap(t *testing.T) {
	// A compacted-then-reopened primary has an empty catch-up buffer and a
	// non-zero base LSN, so a fresh follower cannot stream from zero and
	// must bootstrap from a full snapshot.
	dir := t.TempDir()
	path := filepath.Join(dir, "primary.kdb")
	primary := openDB(t, path)
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	for i := 0; i < 10; i++ {
		mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("v%d", i))
	}
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	primary = openDB(t, path)
	addr := servePrimary(t, primary)

	f := NewFollower(openDB(t, filepath.Join(dir, "replica.kdb")), addr, fastOpts())
	f.Start(context.Background())
	defer f.Stop()

	waitLSN(t, f.DB(), primary.LSN())
	if dump(t, primary) != dump(t, f.DB()) {
		t.Error("follower diverged after snapshot bootstrap")
	}
	// The stream continues past the snapshot.
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "after")
	waitLSN(t, f.DB(), primary.LSN())
	if dump(t, primary) != dump(t, f.DB()) {
		t.Error("follower diverged after post-snapshot commit")
	}
}

func TestFollowerResyncsAfterPrimaryRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "primary.kdb")
	primary := openDB(t, path)
	srv := &kdb.Server{DB: primary, HeartbeatInterval: 50 * time.Millisecond}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "one")

	f := NewFollower(openDB(t, ""), addr, fastOpts())
	f.Start(context.Background())
	defer f.Stop()
	waitLSN(t, f.DB(), primary.LSN())

	// Kill the primary's server; the follower's stream breaks and it
	// retries with backoff until a primary is listening again.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	time.Sleep(50 * time.Millisecond)

	srv2 := &kdb.Server{DB: primary, HeartbeatInterval: 50 * time.Millisecond}
	l2, err := srv2.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = l2
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	})
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "two")
	waitLSN(t, f.DB(), primary.LSN())
	if dump(t, primary) != dump(t, f.DB()) {
		t.Error("follower diverged after primary restart")
	}
	if st := f.Health(); st.Resyncs == 0 {
		t.Error("expected at least one recorded resync")
	}
}

// TestFollowerStopIsPrompt: Stop returns at once, and leaves no goroutine
// behind, whether the loop is blocked in a receive on an idle primary or
// waiting out its backoff against a dead address — both far shorter than
// the receive timeout and the backoff would allow.
func TestFollowerStopIsPrompt(t *testing.T) {
	slow := Options{HeartbeatTimeout: 10 * time.Second, RetryMin: 10 * time.Second, RetryMax: 10 * time.Second}
	stop := func(t *testing.T, f *Follower, goroutines int) {
		t.Helper()
		stopped := make(chan struct{})
		go func() {
			f.Stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(time.Second):
			t.Fatal("Stop has not returned after a second")
		}
		if f.Attached() {
			t.Fatal("Stop returned with the stream still attached")
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutines {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Stop, %d before Start", runtime.NumGoroutine(), goroutines)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Run("receiving", func(t *testing.T) {
		primary := openDB(t, "")
		mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
		addr := servePrimary(t, primary)
		goroutines := runtime.NumGoroutine()
		f := NewFollower(openDB(t, ""), addr, slow)
		f.Start(context.Background())
		waitLSN(t, f.DB(), primary.LSN())
		stop(t, f, goroutines)
	})
	t.Run("backing off", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		goroutines := runtime.NumGoroutine()
		f := NewFollower(openDB(t, ""), addr, slow)
		f.Start(context.Background())
		deadline := time.Now().Add(5 * time.Second)
		for f.Health().Resyncs == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the dial to a dead address never failed")
			}
			time.Sleep(time.Millisecond)
		}
		stop(t, f, goroutines)
	})
}

// TestFollowerSurvivesPrimaryCompactRestart: a follower caught up before
// the primary compacts and restarts must converge byte-identically on the
// next commit. The compacted log holds one INSERT per row, more records than
// the history had commits; a primary that counted them as commits came back
// at an inflated LSN with the snapshot rows in its catch-up buffer and
// streamed them to the follower as history.
func TestFollowerSurvivesPrimaryCompactRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "primary.kdb")
	primary, err := kdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := &kdb.Server{DB: primary, HeartbeatInterval: 50 * time.Millisecond}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	mustExec(t, primary, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, primary, "INSERT INTO p (v) VALUES ('a'), ('b'), ('c'), ('d'), ('e')")

	f := NewFollower(openDB(t, ""), addr, fastOpts())
	f.Start(context.Background())
	defer f.Stop()
	waitLSN(t, f.DB(), primary.LSN())

	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	primary = openDB(t, path)
	if got := primary.LSN(); got != 2 {
		t.Errorf("restarted primary LSN = %d, want 2", got)
	}
	srv = &kdb.Server{DB: primary, HeartbeatInterval: 50 * time.Millisecond}
	if _, err := srv.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	mustExec(t, primary, "INSERT INTO p (v) VALUES ('f')")
	waitLSN(t, f.DB(), primary.LSN())
	if d1, d2 := dump(t, primary), dump(t, f.DB()); d1 != d2 {
		t.Errorf("follower diverged:\n--- primary ---\n%s--- follower ---\n%s", d1, d2)
	}
}

func TestFollowerDivergenceForcesSnapshot(t *testing.T) {
	// A follower with unrelated local history has the same LSNs as the
	// primary but different records; its first applied record either gaps
	// or the stream offset overshoots — both must end in a snapshot that
	// makes it byte-identical to the primary.
	primary := openDB(t, "")
	addr := servePrimary(t, primary)
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "real")

	rogue := openDB(t, "")
	mustExec(t, rogue, "CREATE TABLE other (id INTEGER PRIMARY KEY)")
	for i := 0; i < 5; i++ {
		mustExec(t, rogue, "INSERT INTO other (id) VALUES (?)", int64(100+i))
	}

	f := NewFollower(rogue, addr, fastOpts())
	f.Start(context.Background())
	defer f.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for dump(t, primary) != dump(t, rogue) {
		if time.Now().After(deadline) {
			t.Fatalf("rogue follower never converged:\n--- primary ---\n%s--- rogue ---\n%s",
				dump(t, primary), dump(t, rogue))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fakeReplica is a Replica with a controllable applied LSN. fail takes the
// whole node down (probes included); queryFail keeps the status probe
// healthy but errors every read, modelling a replica that answers
// heartbeats while its query path is broken.
type fakeReplica struct {
	db        *kdb.DB
	lsn       atomic.Int64
	fail      atomic.Bool
	queryFail atomic.Bool
	queries   atomic.Int64
}

func (f *fakeReplica) QueryTraced(tc telemetry.TraceContext, q string, args ...any) (*kdb.Rows, error) {
	if f.fail.Load() || f.queryFail.Load() {
		return nil, errors.New("replica down")
	}
	f.queries.Add(1)
	return f.db.QueryTraced(tc, q, args...)
}

// QueryBatch is one read however many statements it holds, as the router
// counts it.
func (f *fakeReplica) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	if f.fail.Load() || f.queryFail.Load() {
		return nil, errors.New("replica down")
	}
	f.queries.Add(1)
	return f.db.QueryBatch(tc, stmts)
}

func (f *fakeReplica) Status() (kdb.NodeStatus, error) {
	if f.fail.Load() {
		return kdb.NodeStatus{}, errors.New("replica down")
	}
	return kdb.NodeStatus{Role: "replica", LSN: f.lsn.Load()}, nil
}

func TestRouterReadYourWrites(t *testing.T) {
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")

	// The fake replica serves the primary's data (reads would succeed) but
	// reports a stale LSN, so serving it a read would violate
	// read-your-writes; the router must notice and use the primary.
	rep := &fakeReplica{db: primary}
	rt := NewRouter(primary, rep)

	res, err := rt.Exec("INSERT INTO kv (v) VALUES (?)", "mine")
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 {
		t.Fatal("exec through router reported no LSN")
	}
	if _, err := rt.Query("SELECT * FROM kv"); err != nil {
		t.Fatal(err)
	}
	if p, r := rt.Stats(); p != 1 || r != 0 {
		t.Errorf("stale replica served a read-your-writes query: primary=%d replica=%d", p, r)
	}

	// Once the replica reports having applied the write, reads move over.
	rep.lsn.Store(res.LSN)
	if _, err := rt.Query("SELECT * FROM kv"); err != nil {
		t.Fatal(err)
	}
	if p, r := rt.Stats(); p != 1 || r != 1 {
		t.Errorf("fresh replica not used: primary=%d replica=%d", p, r)
	}
}

func TestRouterFallsBackWhenReplicaFails(t *testing.T) {
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "x")
	rep := &fakeReplica{db: primary}
	rt := NewRouter(primary, rep)

	rows, err := rt.Query("SELECT * FROM kv")
	if err != nil || len(rows.All()) != 1 {
		t.Fatalf("query via replica: %v", err)
	}
	rep.fail.Store(true)
	rows, err = rt.Query("SELECT * FROM kv")
	if err != nil || len(rows.All()) != 1 {
		t.Fatalf("query with failed replica should fall back to primary: %v", err)
	}
	if p, _ := rt.Stats(); p != 1 {
		t.Errorf("primary reads = %d, want 1", p)
	}
}

func TestRouterQueryRowNoRowsFromReplica(t *testing.T) {
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	rep := &fakeReplica{db: primary}
	rt := NewRouter(primary, rep)
	_, err := rt.QueryRow("SELECT * FROM kv WHERE id = ?", int64(99))
	if !errors.Is(err, kdb.ErrNoRows) {
		t.Fatalf("err = %v, want ErrNoRows", err)
	}
	if p, r := rt.Stats(); p != 0 || r != 1 {
		t.Errorf("ErrNoRows should come from the replica without fallback: primary=%d replica=%d", p, r)
	}
}

func TestRouterBatchTracksLSN(t *testing.T) {
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	rep := &fakeReplica{db: primary}
	rt := NewRouter(primary, rep)
	err := rt.Batch(func(exec kdb.ExecFunc) error {
		for i := 0; i < 5; i++ {
			if _, err := exec("INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("b%d", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Query("SELECT * FROM kv"); err != nil {
		t.Fatal(err)
	}
	if p, r := rt.Stats(); p != 1 || r != 0 {
		t.Errorf("stale replica served a post-batch read: primary=%d replica=%d", p, r)
	}
	rep.lsn.Store(primary.LSN())
	if _, err := rt.Query("SELECT * FROM kv"); err != nil {
		t.Fatal(err)
	}
	if _, r := rt.Stats(); r != 1 {
		t.Errorf("caught-up replica unused after batch: replica reads = %d", r)
	}
}

// TestRouterBatchOverWireTracksLSN is TestRouterBatchTracksLSN with the
// primary behind a kdb:// connection: the batch's execs are only recorded, so
// they report no LSN, and the session has to learn the batch's last one from
// the answer. No read after the batch may come from a replica below it.
func TestRouterBatchOverWireTracksLSN(t *testing.T) {
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	remote, err := kdb.Dial(servePrimary(t, primary))
	if err != nil {
		t.Fatal(err)
	}
	rep := &fakeReplica{db: primary}
	rep.lsn.Store(primary.LSN()) // caught up with everything before the batch
	rt := NewRouter(remote, rep)
	defer rt.Close()
	err = rt.Batch(func(exec kdb.ExecFunc) error {
		for i := 0; i < 5; i++ {
			res, err := exec("INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("b%d", i))
			if err != nil {
				return err
			}
			if res.LSN != 0 {
				t.Errorf("a recorded exec reported LSN %d before the batch was sent", res.LSN)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.LSN() != primary.LSN() || remote.LSN() != primary.LSN() || primary.LSN() != 6 {
		t.Errorf("after the batch: router LSN %d, connection LSN %d, primary LSN %d; want 6 everywhere", rt.LSN(), remote.LSN(), primary.LSN())
	}
	for lag := int64(5); lag > 0; lag-- {
		rep.lsn.Store(primary.LSN() - lag)
		rows, err := rt.Query("SELECT * FROM kv")
		if err != nil || rows.Len() != 5 {
			t.Fatalf("read after the batch = %v, %v", rows, err)
		}
	}
	if p, r := rt.Stats(); p != 5 || r != 0 {
		t.Errorf("a replica below the batch's last LSN served a read: primary=%d replica=%d", p, r)
	}
	rep.lsn.Store(primary.LSN())
	if _, err := rt.Query("SELECT * FROM kv"); err != nil {
		t.Fatal(err)
	}
	if _, r := rt.Stats(); r != 1 {
		t.Errorf("caught-up replica unused after batch: replica reads = %d", r)
	}
}

func TestRouterFailsOverToHealthyReplica(t *testing.T) {
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "x")

	// Both replicas look fresh; one errors on every read. Every query must
	// be served by the healthy replica — never the primary.
	bad := &fakeReplica{db: primary}
	bad.queryFail.Store(true)
	good := &fakeReplica{db: primary}
	rt := NewRouter(primary, bad, good)

	for i := 0; i < 4; i++ {
		rows, err := rt.Query("SELECT * FROM kv")
		if err != nil || len(rows.All()) != 1 {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if p, r := rt.Stats(); p != 0 || r != 4 {
		t.Errorf("failing replica should fail over to its sibling: primary=%d replica=%d", p, r)
	}
	if got := good.queries.Load(); got != 4 {
		t.Errorf("healthy replica served %d reads, want 4", got)
	}

	// A replica that is down entirely (probe fails too) must likewise not
	// push reads to the primary while a healthy sibling exists.
	bad.queryFail.Store(false)
	bad.fail.Store(true)
	if _, err := rt.QueryRow("SELECT v FROM kv WHERE id = ?", int64(1)); err != nil {
		t.Fatal(err)
	}
	if p, r := rt.Stats(); p != 0 || r != 5 {
		t.Errorf("dead replica should be skipped, not trigger primary fallback: primary=%d replica=%d", p, r)
	}
}

func TestRouterHealth(t *testing.T) {
	primary := openDB(t, "")
	mustExec(t, primary, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, primary, "INSERT INTO kv (v) VALUES (?)", "x")
	rep := &fakeReplica{db: primary}
	rt := NewRouter(primary, rep)
	st := rt.Health()
	if st.Role != "primary" || st.AppliedLSN != primary.LSN() {
		t.Errorf("health = %+v", st)
	}
	if len(st.Replicas) != 1 || st.Replicas[0].LagLSN != primary.LSN() {
		t.Errorf("replica health = %+v", st.Replicas)
	}
}

func TestReadOnlyReplicaServerRejectsWrites(t *testing.T) {
	db := openDB(t, "")
	srv := &kdb.Server{DB: db, Role: "replica", ReadOnly: true}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	r, err := kdb.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Exec("CREATE TABLE x (id INTEGER PRIMARY KEY)"); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Errorf("exec on read-only replica = %v, want read-only rejection", err)
	}
	st, err := r.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "replica" {
		t.Errorf("role = %q, want replica", st.Role)
	}
}
