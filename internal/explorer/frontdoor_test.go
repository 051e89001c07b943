package explorer

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/loadgen"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/workloadgen"
)

// do issues one request against the front door and returns the recorder.
func do(srv http.Handler, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// cacheablePages are the explorer pages whose content depends only on the
// store, over the fixture of cachedFixture.
var cacheablePages = []string{
	"/", "/knowledge?id=1", "/compare", "/compare?ids=1,2&op=read", "/io500?id=1", "/io500/bbox",
	"/heatmap?x=transferSize&y=tasks", "/configure?id=1", "/campaigns", "/campaign?id=1", "/history",
}

// cachedFixture is a versioned store holding a campaign's knowledge
// objects, IO500 runs and one commit, behind a front door with a private
// registry.
func cachedFixture(t *testing.T) (*schema.Store, *api.Server) {
	t.Helper()
	st := seedCampaign(t)
	runs, err := workloadgen.SynthesizeIO500Corpus(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveIO500s(runs); err != nil {
		t.Fatal(err)
	}
	repo, err := st.EnableVersioning()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := repo.Commit("main", "explorer", "fixture", 1); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.Metrics = telemetry.NewRegistry()
	t.Cleanup(srv.Close)
	return st, srv
}

// TestExplorerPagesCached: every store-only page is a miss, then a hit,
// then a 304 on its own ETag, through the api's cache; a write from a
// concurrent writer makes the next GET of each a miss that shows it; and
// /traces and POSTs never come from the cache. The gate runs it under
// -race, with readers and the writer overlapping.
func TestExplorerPagesCached(t *testing.T) {
	st, srv := cachedFixture(t)
	for _, path := range cacheablePages {
		first := do(srv, http.MethodGet, path, nil, nil)
		if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
			t.Fatalf("GET %s = %d X-Cache %q, want 200 miss\n%s", path, first.Code, first.Header().Get("X-Cache"), first.Body)
		}
		second := do(srv, http.MethodGet, path, nil, nil)
		if second.Header().Get("X-Cache") != "hit" || second.Body.String() != first.Body.String() {
			t.Errorf("second GET %s: X-Cache %q, same body %v", path, second.Header().Get("X-Cache"), second.Body.String() == first.Body.String())
		}
		if ct := second.Header().Get("Content-Type"); ct != htmlType {
			t.Errorf("GET %s from cache: Content-Type %q", path, ct)
		}
		if second.Header().Get("X-Knowledge-LSN") == "" {
			t.Errorf("GET %s: no X-Knowledge-LSN", path)
		}
		etag := first.Header().Get("ETag")
		if got := do(srv, http.MethodGet, path, nil, map[string]string{"If-None-Match": etag}); got.Code != http.StatusNotModified {
			t.Errorf("GET %s with If-None-Match %s = %d, want 304", path, etag, got.Code)
		}
	}

	// Readers walk every page while a writer commits.
	save := func() int64 {
		id, err := st.SaveObject(loadgen.SynthesizeObjects(1, uint64(st.DB.LSN()))[0])
		if err != nil {
			t.Error(err)
		}
		return id
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 5; i++ {
			save()
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
			for _, path := range cacheablePages {
				if code := do(srv, http.MethodGet, path, nil, nil).Code; code != http.StatusOK {
					t.Errorf("GET %s during writes = %d", path, code)
				}
			}
		}
	}
	wg.Wait()
	for _, path := range cacheablePages {
		do(srv, http.MethodGet, path, nil, nil) // warm at the settled LSN
	}

	var newID int64
	wg.Add(1)
	go func() { defer wg.Done(); newID = save() }()
	wg.Wait()
	for _, path := range cacheablePages {
		rec := do(srv, http.MethodGet, path, nil, nil)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			t.Errorf("GET %s after a write = %d X-Cache %q, want 200 miss", path, rec.Code, rec.Header().Get("X-Cache"))
		}
		if want := fmt.Sprintf(`/knowledge?id=%d"`, newID); path == "/" && !strings.Contains(rec.Body.String(), want) {
			t.Errorf("index after the write does not list object %d", newID)
		}
	}

	uncached := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/traces", nil},
		{http.MethodPost, "/configure?id=1", nil},
		{http.MethodPost, "/upload", []byte("{bad")},
	}
	for _, u := range uncached {
		for i := 0; i < 2; i++ {
			if xc := do(srv, u.method, u.path, u.body, nil).Header().Get("X-Cache"); xc != "" {
				t.Errorf("%s %s answered from the cache path (X-Cache %q)", u.method, u.path, xc)
			}
		}
	}
}

// TestIndexPageIsBounded: the index shows one page of each list, so its
// body does not grow with the store.
func TestIndexPageIsBounded(t *testing.T) {
	size := map[int]int{}
	for _, n := range []int{1000, 40000} {
		st, err := schema.Open("")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.SaveObjects(loadgen.SynthesizeObjects(n, 1)); err != nil {
			t.Fatal(err)
		}
		srv := New(st)
		code, body := get(t, srv, "/")
		if code != http.StatusOK || !strings.Contains(body, "next page") {
			t.Fatalf("index over %d objects = %d, no next link", n, code)
		}
		size[n] = len(body)
		srv.Close()
		st.Close()
	}
	if size[40000] > 2*size[1000] {
		t.Errorf("index body %d bytes at 40,000 objects, %d at 1,000", size[40000], size[1000])
	}
}

// TestIndexNextPageFollowsCursor: the index's next link carries the api's
// cursor and resumes the list after the first page.
func TestIndexNextPageFollowsCursor(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.SaveObjects(loadgen.SynthesizeObjects(5, 2)); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	defer srv.Close()
	_, first := get(t, srv, "/?limit=2")
	if !strings.Contains(first, "/knowledge?id=2") || strings.Contains(first, "/knowledge?id=3") {
		t.Fatalf("first page of 2:\n%s", first)
	}
	i := strings.Index(first, `<a href="/?`)
	if i < 0 {
		t.Fatal("no next link on a full page")
	}
	href := first[i+len(`<a href="`):]
	href = strings.ReplaceAll(href[:strings.Index(href, `"`)], "&amp;", "&")
	_, second := get(t, srv, href)
	if !strings.Contains(second, "/knowledge?id=3") || !strings.Contains(second, "/knowledge?id=4") || strings.Contains(second, "/knowledge?id=2\"") {
		t.Errorf("second page (%s):\n%s", href, second)
	}
	if code, _ := get(t, srv, "/?cursor=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad cursor = %d, want 400", code)
	}
}

// TestUploadRejectsOversizedBody: a body one byte past the cap is refused
// with 413 before anything is stored, even when it holds a valid object.
func TestUploadRejectsOversizedBody(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st)
	defer srv.Close()
	var buf bytes.Buffer
	if err := loadgen.SynthesizeObjects(1, 1)[0].EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	body := append(buf.Bytes(), bytes.Repeat([]byte(" "), maxUploadBytes+1-buf.Len())...)
	before := st.DB.LSN()
	rec := do(srv, http.MethodPost, "/upload", body, nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("upload of %d bytes = %d, want 413", len(body), rec.Code)
	}
	if after := st.DB.LSN(); after != before {
		t.Errorf("LSN %d -> %d: an oversized upload wrote", before, after)
	}
	if rec := do(srv, http.MethodPost, "/upload", buf.Bytes(), nil); rec.Code != http.StatusSeeOther {
		t.Errorf("upload under the cap = %d, want 303", rec.Code)
	}
}

// TestHeatmapCellsFromOneJoin: the heat map's one-join read gives the
// cells the per-object loads give, including for an object with two
// summaries of the same operation (the first, by summaries.id, counts).
func TestHeatmapCellsFromOneJoin(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	objs := loadgen.SynthesizeObjects(12, 5)
	twice := objs[3]
	dup := twice.Summaries[0]
	dup.MeanMiBps *= 3
	twice.Summaries = append(twice.Summaries, dup)
	ids, err := st.SaveObjects(objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"write", "read"} {
		var want []schema.PatternMean
		for _, id := range ids {
			o, err := st.LoadObject(id)
			if err != nil {
				t.Fatal(err)
			}
			if sm, ok := o.SummaryFor(op); ok {
				want = append(want, schema.PatternMean{ID: id, Pattern: o.Pattern, MeanMiBps: sm.MeanMiBps})
			}
		}
		got, err := st.PatternMeans(op)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: PatternMeans = %+v\nwant %+v", op, got, want)
		}
		gx, gy, gv := heatCells(got, "transferSize", "tasks")
		wx, wy, wv := heatCells(want, "transferSize", "tasks")
		if !reflect.DeepEqual(gx, wx) || !reflect.DeepEqual(gy, wy) || !reflect.DeepEqual(gv, wv) {
			t.Errorf("%s cells = %v %v %v, want %v %v %v", op, gx, gy, gv, wx, wy, wv)
		}
	}
}

// BenchmarkExplorerPages times one GET of the index and of the heat map
// over 10,000 synthesized knowledge objects, cold (each GET a cache miss:
// a fresh query key) and warm (the same key every time).
func BenchmarkExplorerPages(b *testing.B) {
	st, err := schema.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.SaveObjects(loadgen.SynthesizeObjects(10000, 1)); err != nil {
		b.Fatal(err)
	}
	srv := New(st)
	defer srv.Close()
	srv.Metrics = telemetry.NewRegistry()
	misses := 0 // never reused, across every run of every sub-benchmark
	for _, p := range []struct{ name, path string }{
		{"index", "/?"},
		{"heatmap", "/heatmap?x=transferSize&y=tasks&"},
	} {
		for _, cold := range []bool{true, false} {
			name := p.name + "/warm"
			if cold {
				name = p.name + "/cold"
			}
			b.Run(name, func(b *testing.B) {
				get := func(path string) {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					if rec.Code != http.StatusOK {
						b.Fatalf("GET %s = %d", path, rec.Code)
					}
				}
				get(p.path + "bench=warm")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						misses++
						get(p.path + "bench=" + strconv.Itoa(misses))
					} else {
						get(p.path + "bench=warm")
					}
				}
			})
		}
	}
}
