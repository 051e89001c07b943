package api

// The change feed and what the cache does with it: entries a commit cannot
// change stay cached across it, a read a lagging replica answered is never
// passed off as newer than it is, concurrent misses share one build, the
// bounds hold, and Close takes the feed down with the server.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/loadgen"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/workloadgen"
)

// routed is a served primary, a streaming follower behind a read-only
// server, and a repl.Router over wire connections to both — the api_churn
// topology — plus an embedded writer on the primary, whose commits are
// foreign to the Router.
type routed struct {
	primary  *kdb.DB
	follower *repl.Follower
	writer   *schema.Store
	store    *schema.Store
	paddr    string
	paused   bool
}

func newRouted(t testing.TB, backend func(*kdb.DB) kdb.Conn) *routed {
	t.Helper()
	r := &routed{primary: kdbtest.MemDB(t, kdb.DBOptions{})}
	var err error
	if r.writer, err = schema.Wrap(r.primary); err != nil {
		t.Fatal(err)
	}
	psrv := &kdb.Server{DB: r.primary, HeartbeatInterval: 20 * time.Millisecond}
	if backend != nil {
		psrv.Backend = backend(r.primary)
	}
	r.paddr = kdbtest.Serve(t, psrv)
	fdb := kdbtest.MemDB(t, kdb.DBOptions{})
	r.follower = repl.NewFollower(fdb, r.paddr, repl.Options{HeartbeatTimeout: time.Second, RetryMin: 5 * time.Millisecond, RetryMax: 50 * time.Millisecond})
	r.follower.Start(context.Background())
	t.Cleanup(func() { r.follower.Stop() })
	raddr := kdbtest.Serve(t, &kdb.Server{DB: fdb, Role: "replica", ReadOnly: true})
	pr, err := kdb.Dial(r.paddr)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := kdb.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	r.store = &schema.Store{DB: repl.NewRouter(pr, rr)}
	t.Cleanup(func() { r.store.Close() })
	return r
}

// pause stops or restarts the follower, so the replica lags for a stretch.
func (r *routed) pause(on bool) {
	switch {
	case on && !r.paused:
		r.follower.Stop()
	case !on && r.paused:
		r.follower.Start(context.Background())
	}
	r.paused = on
}

// newAPI is an api.Server over store with a private registry.
func newAPI(t testing.TB, store *schema.Store) *Server {
	t.Helper()
	s := New(Config{Store: store, Metrics: telemetry.NewRegistry(), ProbeInterval: 5 * time.Millisecond})
	t.Cleanup(s.Close)
	return s
}

// caughtUp waits until the server's feed and current LSN have reached lsn.
func caughtUp(t testing.TB, s *Server, lsn int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur, _ := s.val.current(); cur >= lsn && s.val.waitFed(lsn) {
			return
		}
		if time.Now().After(deadline) {
			cur, _ := s.val.current()
			t.Fatalf("feed stuck: current %d, want %d", cur, lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

// converged waits until the follower has applied all the primary holds.
func (r *routed) converged(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.follower.DB().LSN() < r.primary.LSN() {
		if time.Now().After(deadline) {
			t.Fatalf("follower at %d, primary at %d", r.follower.DB().LSN(), r.primary.LSN())
		}
		time.Sleep(time.Millisecond)
	}
}

func fetch(t testing.TB, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func servedLSN(t testing.TB, w *httptest.ResponseRecorder) int64 {
	t.Helper()
	lsn, err := strconv.ParseInt(w.Header().Get("X-Knowledge-LSN"), 10, 64)
	if err != nil {
		t.Fatalf("X-Knowledge-LSN %q: %v", w.Header().Get("X-Knowledge-LSN"), err)
	}
	return lsn
}

func saveObject(t testing.TB, st *schema.Store, seed uint64) {
	t.Helper()
	if _, err := st.SaveObjects(loadgen.SynthesizeObjects(1, seed)); err != nil {
		t.Fatal(err)
	}
}

// TestFootprintKeepsEntriesAcrossAppends: an object page survives the
// append of another object and answers X-Cache: hit at the new LSN; an
// UPDATE of a table it read evicts it, and a keyset page, which depends on
// the whole table, misses after any append — embedded, and routed.
func TestFootprintKeepsEntriesAcrossAppends(t *testing.T) {
	embedded, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { embedded.Close() })
	setups := []struct {
		name   string
		writer *schema.Store
		store  *schema.Store
	}{{"embedded", embedded, embedded}}
	r := newRouted(t, nil)
	setups = append(setups, struct {
		name   string
		writer *schema.Store
		store  *schema.Store
	}{"routed", r.writer, r.store})
	for _, su := range setups {
		t.Run(su.name, func(t *testing.T) {
			saveObject(t, su.writer, 1)
			saveObject(t, su.writer, 2)
			if su.store == r.store {
				r.converged(t) // the Router may send the cold reads to the replica
			}
			s := newAPI(t, su.store)
			lsnOf := func() int64 { return su.writer.DB.LSN() }
			caughtUp(t, s, lsnOf())
			first := fetch(t, s, "/v1/objects/1")
			page := fetch(t, s, "/v1/objects?limit=5")
			if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" || page.Code != http.StatusOK {
				t.Fatalf("cold reads: %d %q, %d", first.Code, first.Header().Get("X-Cache"), page.Code)
			}

			saveObject(t, su.writer, 3)
			caughtUp(t, s, lsnOf())
			again := fetch(t, s, "/v1/objects/1")
			if again.Header().Get("X-Cache") != "hit" || servedLSN(t, again) != lsnOf() || again.Body.String() != first.Body.String() {
				t.Fatalf("after an append: X-Cache %q at LSN %d (store at %d), body same %v",
					again.Header().Get("X-Cache"), servedLSN(t, again), lsnOf(), again.Body.String() == first.Body.String())
			}
			if kept := s.Metrics.Counter("api_cache_kept_total").Value(); kept != 1 {
				t.Fatalf("api_cache_kept_total = %d, want 1", kept)
			}
			if w := fetch(t, s, "/v1/objects?limit=5"); w.Header().Get("X-Cache") != "miss" || w.Body.String() == page.Body.String() {
				t.Fatalf("keyset page after an append: X-Cache %q, body changed %v", w.Header().Get("X-Cache"), w.Body.String() != page.Body.String())
			}

			if _, err := su.writer.DB.Exec("UPDATE summaries SET mean_mib = 1 WHERE performance_id = 1"); err != nil {
				t.Fatal(err)
			}
			caughtUp(t, s, lsnOf())
			if w := fetch(t, s, "/v1/objects/1"); w.Header().Get("X-Cache") != "miss" || w.Body.String() == first.Body.String() {
				t.Fatalf("after an UPDATE of summaries: X-Cache %q, body changed %v", w.Header().Get("X-Cache"), w.Body.String() != first.Body.String())
			}
		})
	}
}

// TestLaggingReplicaReadIsNotStampedNewer pins the stamping rule: with the
// follower paused, a COUNT(*) the replica answers predates a foreign
// commit the server already knows of, so the server must not serve it
// under the newer LSN — it reads the primary instead.
func TestLaggingReplicaReadIsNotStampedNewer(t *testing.T) {
	r := newRouted(t, nil)
	saveObject(t, r.writer, 1)
	s := newAPI(t, r.store)
	caughtUp(t, s, r.primary.LSN())
	r.converged(t)
	r.pause(true)
	saveObject(t, r.writer, 2)
	caughtUp(t, s, r.primary.LSN())
	const q = "SELECT COUNT(*) FROM performances"
	w := fetch(t, s, "/v1/query?q="+url.QueryEscape(q))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if lsn := servedLSN(t, w); lsn != r.primary.LSN() || !strings.Contains(w.Body.String(), `"rows":[[2]]`) {
		t.Fatalf("served %s at LSN %d; the primary holds 2 objects at LSN %d (replica at %d)",
			w.Body, lsn, r.primary.LSN(), r.follower.DB().LSN())
	}
}

// gatedConn counts read steps and holds each until the gate opens; with
// fail set, the held step fails, and with panics set, it panics. It also
// counts the calls of LSN: every lookup asks for the current LSN before it
// joins a build, and nothing else does while a build is held.
type gatedConn struct {
	*kdb.DB
	steps  atomic.Int64
	lsns   atomic.Int64
	gate   chan struct{}
	fail   bool
	panics bool
}

func (g *gatedConn) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	g.steps.Add(1)
	<-g.gate
	if g.panics {
		panic("gated: injected panic")
	}
	if g.fail {
		return nil, errors.New("gated: injected failure")
	}
	return g.DB.QueryBatch(tc, stmts)
}

func (g *gatedConn) LSN() int64 {
	g.lsns.Add(1)
	return g.DB.LSN()
}

// concurrentGets issues n GETs of path at once, opens the gate once the
// first one's build holds a read step and all n have looked the key up —
// so the other n-1 wait on that build — and returns the responses. A GET
// whose handler panicked leaves nil.
func concurrentGets(t *testing.T, s *Server, g *gatedConn, path string, n int) []*httptest.ResponseRecorder {
	t.Helper()
	out := make([]*httptest.ResponseRecorder, n)
	lsns := g.lsns.Load()
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { recover() }()
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			out[i] = w
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.steps.Load() < 1 || g.lsns.Load()-lsns < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("the %d GETs never met on one build: %d steps, %d lookups", n, g.steps.Load(), g.lsns.Load()-lsns)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("GETs of %s still wait after their build ended", path)
	}
	return out
}

// TestSingleFlightMisses: eight concurrent cold GETs of one object issue
// exactly one read step, and all eight serve its body and stamp.
func TestSingleFlightMisses(t *testing.T) {
	db := kdbtest.MemDB(t, kdb.DBOptions{})
	seed, err := schema.Wrap(db)
	if err != nil {
		t.Fatal(err)
	}
	saveObject(t, seed, 1)
	g := &gatedConn{DB: db, gate: make(chan struct{})}
	s := newAPI(t, &schema.Store{DB: g})
	out := concurrentGets(t, s, g, "/v1/objects/1", 8)
	if n := g.steps.Load(); n != 1 {
		t.Fatalf("%d read steps for 8 concurrent misses, want 1", n)
	}
	for i, w := range out {
		if w.Code != http.StatusOK || w.Body.String() != out[0].Body.String() ||
			w.Header().Get("ETag") != out[0].Header().Get("ETag") || servedLSN(t, w) != db.LSN() {
			t.Fatalf("GET %d: status %d, ETag %s (first %s), LSN %s", i, w.Code, w.Header().Get("ETag"),
				out[0].Header().Get("ETag"), w.Header().Get("X-Knowledge-LSN"))
		}
	}
	if w := fetch(t, s, "/v1/objects/1"); w.Header().Get("X-Cache") != "hit" || g.steps.Load() != 1 {
		t.Fatalf("the next GET: X-Cache %q after %d steps", w.Header().Get("X-Cache"), g.steps.Load())
	}
}

// TestSingleFlightErrorReachesEveryWaiter: a failed build answers every
// caller that waited for it with the error, and is cached for none.
func TestSingleFlightErrorReachesEveryWaiter(t *testing.T) {
	db := kdbtest.MemDB(t, kdb.DBOptions{})
	seed, err := schema.Wrap(db)
	if err != nil {
		t.Fatal(err)
	}
	saveObject(t, seed, 1)
	g := &gatedConn{DB: db, gate: make(chan struct{}), fail: true}
	s := newAPI(t, &schema.Store{DB: g})
	for i, w := range concurrentGets(t, s, g, "/v1/objects/1", 8) {
		if w.Code != http.StatusInternalServerError || w.Header().Get("ETag") != "" {
			t.Fatalf("GET %d: status %d, ETag %q, want a 500 without one", i, w.Code, w.Header().Get("ETag"))
		}
	}
	g.fail = false
	if w := fetch(t, s, "/v1/objects/1"); w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" || g.steps.Load() != 2 {
		t.Fatalf("the retry: status %d, X-Cache %q, %d steps", w.Code, w.Header().Get("X-Cache"), g.steps.Load())
	}
}

// TestSingleFlightLeaderPanic: a build that panics fails every caller
// that waited for it, and leaves no flight behind: the next GET of the key
// builds again instead of waiting for good.
func TestSingleFlightLeaderPanic(t *testing.T) {
	db := kdbtest.MemDB(t, kdb.DBOptions{})
	seed, err := schema.Wrap(db)
	if err != nil {
		t.Fatal(err)
	}
	saveObject(t, seed, 1)
	g := &gatedConn{DB: db, gate: make(chan struct{}), panics: true}
	s := newAPI(t, &schema.Store{DB: g})
	panicked := 0
	for i, w := range concurrentGets(t, s, g, "/v1/objects/1", 8) {
		switch {
		case w == nil:
			panicked++
		case w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), errBuildAborted.Error()):
			t.Fatalf("GET %d: status %d, %s; want a 500 naming the aborted build", i, w.Code, w.Body)
		}
	}
	if panicked != 1 {
		t.Fatalf("%d handlers panicked, want the leader's alone", panicked)
	}
	g.panics = false
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- fetch(t, s, "/v1/objects/1") }()
	select {
	case w := <-done:
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" || g.steps.Load() != 2 {
			t.Fatalf("the next GET: status %d, X-Cache %q, %d steps", w.Code, w.Header().Get("X-Cache"), g.steps.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the next GET is stuck on the panicked build")
	}
}

// TestSingleFlightWaiterLeavesOnCancel: a caller waiting on another's build
// returns when its request's context ends, while the build still runs.
func TestSingleFlightWaiterLeavesOnCancel(t *testing.T) {
	db := kdbtest.MemDB(t, kdb.DBOptions{})
	seed, err := schema.Wrap(db)
	if err != nil {
		t.Fatal(err)
	}
	saveObject(t, seed, 1)
	g := &gatedConn{DB: db, gate: make(chan struct{})}
	s := newAPI(t, &schema.Store{DB: g})
	leader := make(chan *httptest.ResponseRecorder)
	go func() { leader <- fetch(t, s, "/v1/objects/1") }()
	for g.steps.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan *httptest.ResponseRecorder)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/objects/1", nil).WithContext(ctx))
		waiter <- w
	}()
	cancel()
	select {
	case <-waiter:
	case <-time.After(5 * time.Second):
		t.Fatal("a waiter whose request ended is still waiting on the build")
	}
	close(g.gate)
	if w := <-leader; w.Code != http.StatusOK || g.steps.Load() != 1 {
		t.Fatalf("the leader: status %d after %d steps", w.Code, g.steps.Load())
	}
}

// TestFeedlessPrimaryNoticesForeignCommits: a kdb:// shard coordinator
// answers reads but cannot stream its commits, so the server probes its
// LSN instead; a commit made past the server turns a cached GET into a
// miss at the new LSN within a few probe intervals.
func TestFeedlessPrimaryNoticesForeignCommits(t *testing.T) {
	db := kdbtest.MemDB(t, kdb.DBOptions{})
	writer, err := schema.Wrap(db)
	if err != nil {
		t.Fatal(err)
	}
	saveObject(t, writer, 1)
	coord, err := shard.New(db)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := kdb.Dial(kdbtest.Serve(t, &kdb.Server{Backend: coord, Role: "coordinator"}))
	if err != nil {
		t.Fatal(err)
	}
	store := &schema.Store{DB: remote}
	t.Cleanup(func() { store.Close() })
	s := newAPI(t, store)
	deadline := time.Now().Add(time.Second) // 200 probe intervals
	for cur, _ := s.val.current(); cur < db.LSN(); cur, _ = s.val.current() {
		if time.Now().After(deadline) {
			t.Fatalf("current LSN %d, store at %d", cur, db.LSN())
		}
		time.Sleep(time.Millisecond)
	}
	first := fetch(t, s, "/v1/objects/1")
	if w := fetch(t, s, "/v1/objects/1"); first.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("cold then warm: status %d, then X-Cache %q", first.Code, w.Header().Get("X-Cache"))
	}
	saveObject(t, writer, 2)
	deadline = time.Now().Add(time.Second)
	for {
		w := fetch(t, s, "/v1/objects/1")
		if w.Header().Get("X-Cache") == "miss" {
			if lsn := servedLSN(t, w); lsn != db.LSN() || w.Body.String() != first.Body.String() {
				t.Fatalf("the miss: LSN %d (store at %d), body same %v", lsn, db.LSN(), w.Body.String() == first.Body.String())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a foreign commit went unnoticed: X-Cache %q at LSN %d, store at %d",
				w.Header().Get("X-Cache"), servedLSN(t, w), db.LSN())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheBoundsAndMetrics: a body above maxEntryBytes is served but never
// cached, and /metrics exports the cache's size, evictions and keeps.
func TestCacheBoundsAndMetrics(t *testing.T) {
	s, store := newTestServer(t, 2, Config{})
	if _, err := store.DB.Exec("CREATE TABLE big (id INTEGER PRIMARY KEY, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := store.DB.Exec("INSERT INTO big (s) VALUES (?)", strings.Repeat("x", maxEntryBytes/2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if w := fetch(t, s, "/v1/query?q="+url.QueryEscape("SELECT s FROM big")); w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			t.Fatalf("oversized read %d: status %d, X-Cache %q", i, w.Code, w.Header().Get("X-Cache"))
		}
	}
	fetch(t, s, "/v1/io500/1")
	fetch(t, s, "/v1/io500?limit=50") // a short page: two runs
	more, err := workloadgen.SynthesizeIO500Corpus(1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveIO500s(more); err != nil {
		t.Fatal(err)
	}
	fetch(t, s, "/v1/io500/1")        // kept
	fetch(t, s, "/v1/io500?limit=50") // invalidated, rebuilt
	w := fetch(t, s, "/metrics")
	for _, want := range []string{
		"api_cache_entries 2", "api_cache_kept_total 1", `api_cache_evictions_total{reason="invalidated"} 1`,
		fmt.Sprintf("api_cache_bytes %d", s.cache.bytes),
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, w.Body)
		}
	}
}

// TestServerCloseStopsFeed: Close returns only after the feed goroutine
// and its replication stream are gone — the primary sees the stream end,
// and no goroutine is left behind.
func TestServerCloseStopsFeed(t *testing.T) {
	r := newRouted(t, nil)
	saveObject(t, r.writer, 1)
	r.converged(t)
	streams := telemetry.Default().Gauge("kdb_repl_streams")
	before, goroutines := streams.Value(), runtime.NumGoroutine()
	s := New(Config{Store: r.store, Metrics: telemetry.NewRegistry()})
	deadline := time.Now().Add(5 * time.Second)
	for streams.Value() != before+1 {
		if time.Now().After(deadline) {
			t.Fatalf("kdb_repl_streams %v, want %v once the feed is up", streams.Value(), before+1)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if s.val.tail.Attached() {
		t.Fatal("Close returned with the stream still attached")
	}
	deadline = time.Now().Add(5 * time.Second)
	for streams.Value() != before || runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("after Close: kdb_repl_streams %v (was %v), %d goroutines (were %d)",
				streams.Value(), before, runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFeedResyncRebuildsOlderEntries: while the primary's server is down,
// one cached object is updated and more than the primary's catch-up buffer
// is committed, so the redialled stream answers snap and the feed restarts
// from the primary's LSN with no history. Every entry stamped before that
// is rebuilt, for the horizon, and none is served stale; an entry stamped
// after it is kept across an unrelated append.
func TestFeedResyncRebuildsOlderEntries(t *testing.T) {
	primary := kdbtest.MemDB(t, kdb.DBOptions{})
	writer, err := schema.Wrap(primary)
	if err != nil {
		t.Fatal(err)
	}
	saveObject(t, writer, 1)
	saveObject(t, writer, 2)
	if _, err := primary.Exec("CREATE TABLE noise (id INTEGER PRIMARY KEY, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	srv := &kdb.Server{DB: primary, HeartbeatInterval: 20 * time.Millisecond}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	remote, err := kdb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	store := &schema.Store{DB: remote}
	t.Cleanup(func() { store.Close() })
	s := newAPI(t, store)
	stale := func(reason string) int64 {
		return s.Metrics.Counter(telemetry.Label("api_cache_stale_total", "reason", reason)).Value()
	}
	caughtUp(t, s, primary.LSN())
	paths := []string{"/v1/objects/1", "/v1/objects/2"}
	before := make([]string, len(paths))
	for i, p := range paths {
		w := fetch(t, s, p)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			t.Fatalf("%s cold: status %d, X-Cache %q", p, w.Code, w.Header().Get("X-Cache"))
		}
		before[i] = w.Body.String()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := primary.Exec("UPDATE summaries SET mean_mib = 1 WHERE performance_id = 1"); err != nil {
		t.Fatal(err)
	}
	blob := strings.Repeat("x", 64<<10)
	for i := 0; i < 48; i++ { // 3 MiB of records: past the catch-up buffer's bytes
		if _, err := primary.Exec("INSERT INTO noise (s) VALUES (?)", blob); err != nil {
			t.Fatal(err)
		}
	}
	srv2 := &kdb.Server{DB: primary, HeartbeatInterval: 20 * time.Millisecond}
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	})
	caughtUp(t, s, primary.LSN())

	h0 := stale("horizon")
	for i, p := range paths {
		w := fetch(t, s, p)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" || servedLSN(t, w) != primary.LSN() {
			t.Fatalf("%s after the resync: status %d, X-Cache %q at LSN %d (primary at %d)",
				p, w.Code, w.Header().Get("X-Cache"), servedLSN(t, w), primary.LSN())
		}
		if changed := w.Body.String() != before[i]; changed != (i == 0) {
			t.Fatalf("%s after the resync: body changed %v; only object 1 was updated", p, changed)
		}
	}
	if h, hit := stale("horizon")-h0, stale("hit"); h != int64(len(paths)) || hit != 0 {
		t.Fatalf("after the resync: %d entries stale for the horizon and %d for a hit, want %d and 0", h, hit, len(paths))
	}

	kept := s.Metrics.Counter("api_cache_kept_total").Value()
	saveObject(t, writer, 3)
	caughtUp(t, s, primary.LSN())
	w := fetch(t, s, paths[1])
	if w.Header().Get("X-Cache") != "hit" || servedLSN(t, w) != primary.LSN() || w.Body.String() != before[1] {
		t.Fatalf("%s after an append: X-Cache %q at LSN %d (primary at %d), body same %v",
			paths[1], w.Header().Get("X-Cache"), servedLSN(t, w), primary.LSN(), w.Body.String() == before[1])
	}
	if got := s.Metrics.Counter("api_cache_kept_total").Value() - kept; got != 1 {
		t.Fatalf("api_cache_kept_total moved by %d, want 1", got)
	}
}
