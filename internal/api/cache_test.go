package api

// Cache correctness under writes — the read-your-writes proof. Writers
// ingest continuously while readers hammer a hot cached endpoint; every
// response's X-Knowledge-LSN must be >= the store LSN observed before the
// request was issued. A cache that served an entry stamped before an
// already-committed write would fail the assertion. Run under -race this
// also gates the cache/validity plumbing itself.

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workloadgen"
)

func TestCacheNeverServesPastCommittedLSN(t *testing.T) {
	s, store := newTestServer(t, 5, Config{})
	lsnSource, ok := store.DB.(interface{ LSN() int64 })
	if !ok {
		t.Fatal("embedded store does not expose LSN")
	}

	const (
		writers  = 2
		readers  = 4
		duration = 300 * time.Millisecond
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	var failures atomic.Int64
	var writes atomic.Int64

	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				batch, err := workloadgen.SynthesizeIO500Corpus(1, uint64(wi)*1000+uint64(writes.Add(1)))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := store.SaveIO500s(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				// Observe the committed position first; the response must
				// reflect at least this LSN. (The store may advance further
				// while the request is in flight — that's fine; serving
				// *older* state is the bug.)
				before := lsnSource.LSN()
				req := httptest.NewRequest(http.MethodGet, "/v1/io500?limit=5", nil)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("reader got %d: %s", w.Code, w.Body)
					return
				}
				served, err := strconv.ParseInt(w.Header().Get("X-Knowledge-LSN"), 10, 64)
				if err != nil {
					t.Errorf("bad X-Knowledge-LSN %q", w.Header().Get("X-Knowledge-LSN"))
					return
				}
				if served < before {
					failures.Add(1)
					t.Errorf("response LSN %d predates pre-request LSN %d", served, before)
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d responses served stale-past-read state", failures.Load())
	}
	if writes.Load() == 0 {
		t.Fatal("no writes landed; the interleaving proved nothing")
	}
}

// TestCacheInvalidationExactForEmbedded pins the stronger property the
// embedded engine gives: the instant SaveIO500s returns, the very next
// read reflects it — no probe-interval window.
func TestCacheInvalidationExactForEmbedded(t *testing.T) {
	s, store := newTestServer(t, 1, Config{})
	for i := 0; i < 20; i++ {
		w1 := httptest.NewRecorder()
		s.ServeHTTP(w1, httptest.NewRequest(http.MethodGet, "/v1/io500", nil))
		batch, err := workloadgen.SynthesizeIO500Corpus(1, uint64(i)+500)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.SaveIO500s(batch); err != nil {
			t.Fatal(err)
		}
		w2 := httptest.NewRecorder()
		s.ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/v1/io500", nil))
		if w2.Header().Get("X-Cache") != "miss" {
			t.Fatalf("iteration %d: read after write served X-Cache=%q, want miss", i, w2.Header().Get("X-Cache"))
		}
		if w1.Header().Get("X-Knowledge-LSN") == w2.Header().Get("X-Knowledge-LSN") {
			t.Fatalf("iteration %d: LSN header did not advance across a commit", i)
		}
	}
}

// TestCheckoutInvalidatesCache checks out an earlier commit under a warm
// cache: a checkout replaces state, so the same GET must miss and answer
// with the checked-out body and a new ETag, and the old ETag must get a
// 200, not a 304.
func TestCheckoutInvalidatesCache(t *testing.T) {
	s, store := newTestServer(t, 2, Config{})
	repo, err := store.EnableVersioning()
	if err != nil {
		t.Fatal(err)
	}
	hash, _, err := repo.Commit("main", "tester", "two runs", 0)
	if err != nil {
		t.Fatal(err)
	}
	more, err := workloadgen.SynthesizeIO500Corpus(1, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveIO500s(more); err != nil {
		t.Fatal(err)
	}
	w1, _ := get(t, s, "/v1/io500", nil)
	if w1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w1.Code, w1.Body)
	}
	etag := w1.Header().Get("ETag")
	if err := repo.Checkout(hash); err != nil {
		t.Fatal(err)
	}
	w2, _ := get(t, s, "/v1/io500", nil)
	if w2.Header().Get("X-Cache") != "miss" || w2.Header().Get("ETag") == etag || w2.Body.String() == w1.Body.String() {
		t.Fatalf("after checkout: X-Cache %q, ETag %s (was %s), body changed %v",
			w2.Header().Get("X-Cache"), w2.Header().Get("ETag"), etag, w2.Body.String() != w1.Body.String())
	}
	if w3, _ := get(t, s, "/v1/io500", map[string]string{"If-None-Match": etag}); w3.Code != http.StatusOK {
		t.Fatalf("pre-checkout ETag revalidated with %d, want 200", w3.Code)
	}
}
