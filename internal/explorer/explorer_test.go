package explorer

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/io500"
	"repro/internal/ior"
	"repro/internal/schema"
)

// seedStore builds a store holding two IOR knowledge objects (one with an
// injected anomaly) and three IO500 runs with a broken-node read fault.
func seedStore(t *testing.T) *schema.Store {
	t.Helper()
	c, err := core.New(cluster.FuchsCSC(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ior.ParseCommandLine("ior -a mpiio -b 4m -t 2m -s 40 -F -C -e -i 6 -o /scratch/fuchs/zhuz/test80 -k")
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumTasks = 80
	cfg.TasksPerNode = 20
	if _, err := c.Run(core.IORGenerator{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	anomalous := core.IORGenerator{
		Config: cfg,
		BeforeIteration: func(iter int, m *cluster.Machine) {
			if iter == 1 {
				m.WriteCongestion = 0.44
			} else {
				m.ClearFaults()
			}
		},
	}
	if _, err := c.Run(anomalous); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		c.Seed = seed
		g := core.IO500Generator{
			Config: io500.Default(),
			BeforePhase: func(phase string, m *cluster.Machine) {
				m.ClearFaults()
				if phase == io500.IorEasyRead {
					m.SetNodeFactor(1, 1, 0.35)
				}
			},
		}
		if _, err := c.Run(g); err != nil {
			t.Fatal(err)
		}
	}
	return c.Store
}

func get(t *testing.T, srv http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

func TestIndexListsKnowledge(t *testing.T) {
	srv := New(seedStore(t))
	code, body := get(t, srv, "/")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	for _, want := range []string{
		"Knowledge base population",
		"Benchmark knowledge objects",
		"IO500 runs",
		"/knowledge?id=1",
		"/knowledge?id=2",
		"/io500?id=3",
		"create configuration",
		"ior -a mpiio -b 4m",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestIndex404OnOtherPaths(t *testing.T) {
	srv := New(seedStore(t))
	if code, _ := get(t, srv, "/nope"); code != 404 {
		t.Errorf("code = %d", code)
	}
}

func TestKnowledgeViewer(t *testing.T) {
	srv := New(seedStore(t))
	code, body := get(t, srv, "/knowledge?id=1")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	for _, want := range []string{
		"Throughput per iteration", "<svg", "polyline",
		"Summary", "Detailed results",
		"File system", "EntryID", "Metadata node",
		"System", "E5-2670 v2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("viewer missing %q", want)
		}
	}
	// Errors.
	if code, _ := get(t, srv, "/knowledge?id=zzz"); code != 400 {
		t.Errorf("bad id code = %d", code)
	}
	if code, _ := get(t, srv, "/knowledge?id=999"); code != 404 {
		t.Errorf("missing id code = %d", code)
	}
}

func TestCompareView(t *testing.T) {
	srv := New(seedStore(t))
	code, body := get(t, srv, "/compare?op=write&metric=mean_mib")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	for _, want := range []string{"Throughput overview", "<svg", "#1", "#2"} {
		if !strings.Contains(body, want) {
			t.Errorf("compare missing %q", want)
		}
	}
	// Axis selection at runtime.
	code, body = get(t, srv, "/compare?op=read&metric=mean_sec&sort=asc")
	if code != 200 || !strings.Contains(body, "mean_sec (read)") {
		t.Errorf("axis selection failed: %d", code)
	}
	// Selection by ids narrows the set.
	_, body = get(t, srv, "/compare?ids=1")
	if strings.Contains(body, `<a href="/knowledge?id=2">`) {
		t.Error("id selection did not narrow")
	}
	// Filter by command substring.
	_, body = get(t, srv, "/compare?filter=noSuchCommand")
	if !strings.Contains(body, "no matching knowledge objects") {
		t.Error("filter did not exclude")
	}
	// Unknown metric errors.
	if code, _ := get(t, srv, "/compare?metric=bogus"); code != 400 {
		t.Errorf("unknown metric code = %d", code)
	}
}

func TestCompareSortOrders(t *testing.T) {
	srv := New(seedStore(t))
	_, asc := get(t, srv, "/compare?op=write&sort=asc")
	_, desc := get(t, srv, "/compare?op=write&sort=desc")
	// The anomalous run (#2) has the lower mean; ascending lists it first.
	ai1 := strings.Index(asc, `<td><a href="/knowledge?id=1">`)
	ai2 := strings.Index(asc, `<td><a href="/knowledge?id=2">`)
	di1 := strings.Index(desc, `<td><a href="/knowledge?id=1">`)
	di2 := strings.Index(desc, `<td><a href="/knowledge?id=2">`)
	if ai2 > ai1 {
		t.Error("ascending sort should list the slower run first")
	}
	if di1 > di2 {
		t.Error("descending sort should list the faster run first")
	}
}

func TestIO500Viewer(t *testing.T) {
	srv := New(seedStore(t))
	code, body := get(t, srv, "/io500?id=1")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	for _, want := range []string{"Scores", "ior-easy-write", "mdtest-hard-delete", "GiB/s", "kIOPS", "Bandwidth test cases", "Options"} {
		if !strings.Contains(body, want) {
			t.Errorf("io500 viewer missing %q", want)
		}
	}
	if code, _ := get(t, srv, "/io500?id=99"); code != 404 {
		t.Errorf("missing run code = %d", code)
	}
	if code, _ := get(t, srv, "/io500?id=x"); code != 400 {
		t.Errorf("bad id code = %d", code)
	}
}

func TestBoundingBoxView(t *testing.T) {
	srv := New(seedStore(t))
	code, body := get(t, srv, "/io500/bbox")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	for _, want := range []string{"3 IO500 run(s)", "IO500 boundary test cases", "ior-easy-read"} {
		if !strings.Contains(body, want) {
			t.Errorf("bbox view missing %q", want)
		}
	}
	// The injected broken node must surface as a diagnosis.
	if !strings.Contains(body, "diagnoses:") || !strings.Contains(body, "broken node") {
		t.Error("broken-node diagnosis missing from bounding box view")
	}
}

func TestBoundingBoxEmpty(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	_, body := get(t, srv, "/io500/bbox")
	if !strings.Contains(body, "no IO500 runs") {
		t.Error("empty bbox should say so")
	}
}

func TestConfigureFlow(t *testing.T) {
	srv := New(seedStore(t))
	code, body := get(t, srv, "/configure?id=1")
	if code != 200 || !strings.Contains(body, "Loaded configuration") {
		t.Fatalf("configure GET: %d", code)
	}
	// POST overrides.
	form := url.Values{"id": {"1"}, "opt-t": {"4m"}, "opt-i": {"3"}}
	req := httptest.NewRequest(http.MethodPost, "/configure", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	body2, _ := io.ReadAll(rec.Result().Body)
	if !strings.Contains(string(body2), "New configuration") || !strings.Contains(string(body2), "-t 4m") {
		t.Errorf("configure POST body:\n%s", body2)
	}
	// Invalid override reports the error inline.
	form = url.Values{"id": {"1"}, "opt-t": {"3m"}}
	req = httptest.NewRequest(http.MethodPost, "/configure", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	body3, _ := io.ReadAll(rec.Result().Body)
	if !strings.Contains(string(body3), "err") {
		t.Error("invalid override should surface an error")
	}
}

func TestUploadFlow(t *testing.T) {
	st := seedStore(t)
	srv := New(st)
	// Pull an object, re-upload it as local knowledge.
	o, err := st.LoadObject(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/upload", &buf)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("upload code = %d", rec.Code)
	}
	loc := rec.Result().Header.Get("Location")
	if !strings.HasPrefix(loc, "/knowledge?id=") {
		t.Errorf("redirect = %q", loc)
	}
	// Bad upload.
	req = httptest.NewRequest(http.MethodPost, "/upload", strings.NewReader("{bad"))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Errorf("bad upload code = %d", rec.Code)
	}
	// GET shows instructions.
	code, body := get(t, srv, "/upload")
	if code != 200 || !strings.Contains(body, "POST a knowledge object") {
		t.Errorf("upload GET: %d", code)
	}
}

func TestHeatmapView(t *testing.T) {
	srv := New(seedStore(t))
	code, body := get(t, srv, "/heatmap?x=transfersize&y=tasks&op=write")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(body, "mean write bandwidth") || !strings.Contains(body, "<svg") {
		t.Errorf("heatmap missing chart")
	}
	// Both stored runs share tasks=80, transfersize=2.00 MiB -> 1 cell.
	if !strings.Contains(body, "80") {
		t.Error("heatmap missing y label")
	}
	// Unknown keys yield the empty message, not an error.
	code, body = get(t, srv, "/heatmap?x=nonexistent&y=alsono")
	if code != 200 || !strings.Contains(body, "no knowledge objects carry both pattern keys") {
		t.Errorf("empty heatmap: %d", code)
	}
	// Defaults work.
	if code, _ := get(t, srv, "/heatmap"); code != 200 {
		t.Errorf("default heatmap code = %d", code)
	}
}
