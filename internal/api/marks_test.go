package api

// The feed's watermarks under load: a hit costs what the entry's footprint
// costs however many commits lie behind its stamp, lookups race the feed
// rotating its generations, a stale entry says why it was not served, and
// reopening a served store's schema commits nothing.

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// BenchmarkCacheHitAfterCommits serves a hit on an entry stamped 10, 1,000
// and 8,000 appends back, none of which touched what it read (two keys, a
// row, and a page of t's automatic keys): each iteration validates the
// entry across all of them.
func BenchmarkCacheHitAfterCommits(b *testing.B) {
	for _, age := range []int{10, 1000, 8000} {
		b.Run(fmt.Sprintf("age=%d", age), func(b *testing.B) {
			db := kdbtest.MemDB(b, kdb.DBOptions{})
			for _, q := range []string{
				"CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, s TEXT)",
				"CREATE INDEX ix_t_k ON t (k)",
				"CREATE TABLE u (id INTEGER PRIMARY KEY)",
			} {
				if _, err := db.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
			reg := telemetry.NewRegistry()
			v := newValidity(db, 0, reg)
			b.Cleanup(v.close)
			c := newResultCache(func() *telemetry.Registry { return reg })
			stamp := db.LSN()
			for i := 0; i < age; i++ {
				if _, err := db.Exec("INSERT INTO t (k, s) VALUES (?, ?)", int64(i+1), "x"); err != nil {
					b.Fatal(err)
				}
			}
			fp := kdb.Footprint{
				{Kind: kdb.DepKey, Table: "t", Col: "k", Val: int64(0)},
				{Kind: kdb.DepKey, Table: "t", Col: "s", Val: "y"},
				{Kind: kdb.DepRow, Table: "u"},
				{Kind: kdb.DepUpto, Table: "t", Col: "id"},
			}
			entry := cacheEntry{body: []byte("{}"), lsn: stamp, fp: fp}
			lsn, epoch := v.current()
			serve := func() {
				e := entry
				c.mu.Lock()
				c.entries["k"] = &e
				c.mu.Unlock()
				if c.get("k", lsn, epoch, v) == nil {
					b.Fatal("the entry was not kept")
				}
			}
			serve() // the feed pulls the appends once
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// TestValidateWhileFeedRotates: two clients read kept entries while the
// primary commits enough appends for the streamed feed to rotate its
// generations twice, in chunks of 512 that each client reads between. Every answer is the cached body, the commits never
// hit it, and lookups run concurrently with the feed applying them (the
// race detector runs this package).
func TestValidateWhileFeedRotates(t *testing.T) {
	r := newRouted(t, nil)
	saveObject(t, r.writer, 1)
	saveObject(t, r.writer, 2)
	if _, err := r.primary.Exec("CREATE TABLE noise (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	r.converged(t)
	s := newAPI(t, r.store)
	caughtUp(t, s, r.primary.LSN())
	s.val.mu.Lock()
	base := s.val.marks.Base()
	s.val.mu.Unlock()
	paths := []string{"/v1/objects/1", "/v1/objects/2"}
	bodies := make([]string, len(paths))
	for i, p := range paths {
		w := fetch(t, s, p)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", p, w.Code)
		}
		bodies[i] = w.Body.String()
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	reads := make([]atomic.Int64, len(paths))
	for i, p := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				w := fetch(t, s, p)
				if w.Code != http.StatusOK || w.Body.String() != bodies[i] {
					t.Errorf("%s: status %d, body changed %v", p, w.Code, w.Body.String() != bodies[i])
					return
				}
				reads[i].Add(1)
			}
		}()
	}
	// Every client reads again after each chunk of commits, so no entry
	// falls past the feed's horizon (one to two generations of 4,096
	// commits) between two reads of it, however the clients are scheduled.
	readAgain := func() {
		before := make([]int64, len(reads))
		for i := range reads {
			before[i] = reads[i].Load()
		}
		deadline := time.Now().Add(10 * time.Second)
		for i := range reads {
			for reads[i].Load() == before[i] {
				if time.Now().After(deadline) {
					done.Store(true)
					t.Fatalf("%s: no read in 10 s", paths[i])
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	const commits, chunk = 2*4096 + 64, 512
	for i := 0; i < commits; i++ {
		if i%chunk == chunk-1 {
			readAgain()
		}
		if _, err := r.primary.Exec("INSERT INTO noise (v) VALUES (?)", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	caughtUp(t, s, r.primary.LSN())
	done.Store(true)
	wg.Wait()

	s.val.mu.Lock()
	newBase := s.val.marks.Base()
	s.val.mu.Unlock()
	if newBase < base+4096 {
		t.Fatalf("the feed's marks begin after %d, were after %d: the generations did not rotate twice", newBase, base)
	}
	if hit := s.Metrics.Counter(telemetry.Label("api_cache_stale_total", "reason", "hit")).Value(); hit != 0 {
		t.Fatalf("appends to another table hit %d entries", hit)
	}
	if kept := s.Metrics.Counter("api_cache_kept_total").Value(); kept == 0 {
		t.Fatal("no entry was carried across a commit")
	}
}

// TestStaleReasons: an entry not served at the current LSN is counted by
// why — a commit hit its footprint, the feed no longer reaches back to its
// stamp, or it has no footprint — and /metrics says the embedded feed
// follows its commits.
func TestStaleReasons(t *testing.T) {
	s, store := newTestServer(t, 2, Config{})
	stale := func(reason string) int64 {
		return s.Metrics.Counter(telemetry.Label("api_cache_stale_total", "reason", reason)).Value()
	}
	commit := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := store.DB.Exec("INSERT INTO IOFHsRuns (command) VALUES (?)", "x"); err != nil {
				t.Fatal(err)
			}
		}
	}
	blind := "/v1/query?q=" + url.QueryEscape("SELECT trace_id FROM __slow_queries")
	// Two runs on a page of 50: a short page, which depends on the whole
	// table (a full page would be kept across the append).
	short := "/v1/io500?limit=50"
	for _, p := range []string{short, "/v1/io500/1", blind} {
		if w := fetch(t, s, p); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", p, w.Code, w.Body)
		}
	}
	commit(1)
	fetch(t, s, short)
	fetch(t, s, blind)
	if stale("hit") != 1 || stale("blind") != 1 || stale("horizon") != 0 {
		t.Fatalf("after one append: hit %d, blind %d, horizon %d", stale("hit"), stale("blind"), stale("horizon"))
	}
	commit(2*4096 + 1)
	if w := fetch(t, s, "/v1/io500/1"); w.Header().Get("X-Cache") != "miss" || stale("horizon") != 1 {
		t.Fatalf("past the feed's horizon: X-Cache %q, horizon %d", w.Header().Get("X-Cache"), stale("horizon"))
	}
	if w := fetch(t, s, "/metrics"); !strings.Contains(w.Body.String(), "api_feed_streaming 1") {
		t.Fatalf("/metrics lacks api_feed_streaming 1:\n%s", w.Body)
	}
}

// TestReopenedSchemaKeepsCache: opening a served store's schema again runs
// its CREATE … IF NOT EXISTS statements, which find every object and so
// commit nothing: the primary's LSN stays, and a server following it still
// answers from its cache.
func TestReopenedSchemaKeepsCache(t *testing.T) {
	r := newRouted(t, nil)
	saveObject(t, r.writer, 1)
	r.converged(t)
	s := newAPI(t, r.store)
	caughtUp(t, s, r.primary.LSN())
	for _, p := range []string{"/v1/objects/1", "/v1/objects?limit=5"} {
		if w := fetch(t, s, p); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", p, w.Code)
		}
	}
	lsn := r.primary.LSN()
	conn, err := kdb.Dial(r.paddr)
	if err != nil {
		t.Fatal(err)
	}
	again, err := schema.Wrap(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if r.primary.LSN() != lsn {
		t.Fatalf("reopening the schema moved the primary from LSN %d to %d", lsn, r.primary.LSN())
	}
	for _, p := range []string{"/v1/objects/1", "/v1/objects?limit=5"} {
		if w := fetch(t, s, p); w.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s after reopening: X-Cache %q", p, w.Header().Get("X-Cache"))
		}
	}
}

// TestFeedStreamingGauge: api_feed_streaming reads 1 once the feed has
// attached to the primary's stream, and stays 0 behind a shard coordinator,
// which cannot stream and is probed instead.
func TestFeedStreamingGauge(t *testing.T) {
	r := newRouted(t, nil)
	s := newAPI(t, r.store)
	gauge := func(s *Server) float64 { return s.Metrics.Gauge("api_feed_streaming").Value() }
	deadline := time.Now().Add(5 * time.Second)
	for gauge(s) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("api_feed_streaming never read 1 over a streaming primary")
		}
		time.Sleep(time.Millisecond)
	}

	db := kdbtest.MemDB(t, kdb.DBOptions{})
	if _, err := schema.Wrap(db); err != nil {
		t.Fatal(err)
	}
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
	fs := newAPI(t, store)
	deadline = time.Now().Add(5 * time.Second)
	for cur, _ := fs.val.current(); cur < db.LSN(); cur, _ = fs.val.current() {
		if time.Now().After(deadline) {
			t.Fatalf("current LSN %d, store at %d: never probed", cur, db.LSN())
		}
		time.Sleep(time.Millisecond)
	}
	if g := gauge(fs); g != 0 {
		t.Fatalf("api_feed_streaming %v behind a coordinator", g)
	}
}
