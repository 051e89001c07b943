// Package explorer implements the paper's web-based knowledge explorer
// (phase IV): a knowledge viewer for single runs (benchmark command, file
// system and system information, per-operation summaries, per-iteration
// detail with an interactive chart), a comparison view over any number of
// knowledge objects with runtime-selectable axes, filtering and sorting, a
// boxplot throughput overview, a dedicated IO500 viewer with scores and
// test cases, a bounding-box view for anomaly detection, a "create
// configuration" form that generates new benchmark commands from stored
// knowledge, and manual upload of local knowledge objects.
package explorer

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bbox"
	"repro/internal/chart"
	"repro/internal/knowledge"
	"repro/internal/recommend"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloadgen"
)

// Server is the knowledge explorer HTTP application.
type Server struct {
	Store *schema.Store
	// Metrics backs the /metrics endpoints and the request middleware.
	// New wires the process-wide default registry; tests may substitute a
	// private one before the first request.
	Metrics *telemetry.Registry
	mux     *http.ServeMux
	// knownPaths normalizes request paths for metric labels so series
	// cardinality stays bounded under arbitrary client traffic.
	knownPaths func(string) string
}

// New builds the explorer over a knowledge store.
func New(store *schema.Store) *Server {
	s := &Server{Store: store, Metrics: telemetry.Default(), mux: http.NewServeMux()}
	routes := []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"/", s.handleIndex},
		{"/knowledge", s.handleKnowledge},
		{"/compare", s.handleCompare},
		{"/io500", s.handleIO500},
		{"/io500/bbox", s.handleBBox},
		{"/configure", s.handleConfigure},
		{"/upload", s.handleUpload},
		{"/heatmap", s.handleHeatmap},
		{"/campaigns", s.handleCampaigns},
		{"/campaign", s.handleCampaign},
		{"/history", s.handleHistory},
		{"/traces", s.handleTraces},
		{"/healthz", s.handleHealthz},
	}
	known := make([]string, 0, len(routes)+2)
	for _, r := range routes {
		s.mux.HandleFunc(r.pattern, r.h)
		known = append(known, r.pattern)
	}
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.Handler(s.Metrics).ServeHTTP(w, r)
	})
	s.mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		telemetry.JSONHandler(s.Metrics).ServeHTTP(w, r)
	})
	s.knownPaths = telemetry.PathNormalizer(append(known, "/metrics", "/metrics.json")...)
	return s
}

// EnablePprof mounts net/http/pprof under /debug/pprof/. Profiling is
// opt-in (a CLI flag), never on by default.
func (s *Server) EnablePprof() {
	telemetry.RegisterPprof(s.mux)
}

// ServeHTTP implements http.Handler, recording request counts and
// latencies for every route.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	telemetry.Middleware(s.Metrics, s.knownPaths, s.mux).ServeHTTP(w, r)
}

const pageShell = `<!DOCTYPE html>
<html><head><title>{{.Title}} — I/O Knowledge Explorer</title>
<style>
body { font-family: sans-serif; margin: 24px; color: #222; }
table { border-collapse: collapse; margin: 10px 0; }
th, td { border: 1px solid #bbb; padding: 4px 10px; text-align: left; }
th { background: #eef; }
nav a { margin-right: 14px; }
.err { color: #b00; font-weight: bold; }
code { background: #f4f4f4; padding: 1px 4px; }
form.inline * { margin-right: 6px; }
</style></head>
<body>
<nav><a href="/">Knowledge</a><a href="/compare">Compare</a><a href="/heatmap">Heat map</a><a href="/io500/bbox">Bounding box</a><a href="/campaigns">Campaigns</a><a href="/history">History</a><a href="/traces">Traces</a><a href="/upload">Upload</a></nav>
<h1>{{.Title}}</h1>
{{.Body}}
</body></html>`

var shellTmpl = template.Must(template.New("shell").Parse(pageShell))

func (s *Server) render(w http.ResponseWriter, title string, body template.HTML) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = shellTmpl.Execute(w, struct {
		Title string
		Body  template.HTML
	}{title, body})
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	w.WriteHeader(code)
	s.render(w, "Error", template.HTML(`<p class="err">`+template.HTMLEscapeString(err.Error())+`</p>`))
}

// failLoad maps a store load error to 404 when the object simply does not
// exist, and 500 when the query or transport itself failed.
func (s *Server) failLoad(w http.ResponseWriter, err error) {
	if errors.Is(err, schema.ErrNotFound) {
		s.fail(w, 404, err)
		return
	}
	s.fail(w, 500, err)
}

// handleIndex lists benchmark knowledge objects and IO500 runs.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	objs, err := s.Store.ListObjects()
	if err != nil {
		s.fail(w, 500, err)
		return
	}
	io5, err := s.Store.ListIO500()
	if err != nil {
		s.fail(w, 500, err)
		return
	}
	var b strings.Builder
	if avgs, err := s.Store.OperationAverages(); err == nil && len(avgs) > 0 {
		b.WriteString("<h2>Knowledge base population</h2><table><tr><th>operation</th><th>runs</th><th>mean MiB/s</th><th>best MiB/s</th><th>worst MiB/s</th></tr>")
		for _, a := range avgs {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%.1f</td><td>%.1f</td><td>%.1f</td></tr>",
				esc(a.Operation), a.Runs, a.MeanMiBps, a.MaxMiBps, a.MinMiBps)
		}
		b.WriteString("</table>")
	}
	b.WriteString("<h2>Benchmark knowledge objects</h2>")
	if len(objs) == 0 {
		b.WriteString("<p>none stored yet</p>")
	} else {
		b.WriteString("<table><tr><th>id</th><th>source</th><th>command</th><th>began</th><th></th></tr>")
		for _, m := range objs {
			fmt.Fprintf(&b, `<tr><td><a href="/knowledge?id=%d">%d</a></td><td>%s</td><td><code>%s</code></td><td>%s</td><td><a href="/configure?id=%d">create configuration</a></td></tr>`,
				m.ID, m.ID, esc(m.Source), esc(m.Command), m.Began.Format("2006-01-02 15:04"), m.ID)
		}
		b.WriteString("</table>")
	}
	b.WriteString("<h2>IO500 runs</h2>")
	if len(io5) == 0 {
		b.WriteString("<p>none stored yet</p>")
	} else {
		b.WriteString("<table><tr><th>id</th><th>command</th><th>began</th></tr>")
		for _, m := range io5 {
			fmt.Fprintf(&b, `<tr><td><a href="/io500?id=%d">%d</a></td><td><code>%s</code></td><td>%s</td></tr>`,
				m.ID, m.ID, esc(m.Command), m.Began.Format("2006-01-02 15:04"))
		}
		b.WriteString("</table>")
	}
	s.render(w, "I/O Knowledge", template.HTML(b.String()))
}

// handleKnowledge is the single-run knowledge viewer.
func (s *Server) handleKnowledge(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		s.fail(w, 400, fmt.Errorf("explorer: bad id %q", r.URL.Query().Get("id")))
		return
	}
	o, err := s.Store.LoadObject(id)
	if err != nil {
		s.failLoad(w, err)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<p>Command: <code>%s</code></p>", esc(o.Command))

	// Per-iteration chart: bandwidth per operation (the Fig. 5 view).
	var series []chart.Series
	for _, op := range []string{"write", "read"} {
		rs := o.ResultsFor(op)
		if len(rs) == 0 {
			continue
		}
		sr := chart.Series{Name: op}
		for _, res := range rs {
			sr.X = append(sr.X, float64(res.Iteration+1))
			sr.Y = append(sr.Y, res.BwMiBps)
		}
		series = append(series, sr)
	}
	if len(series) > 0 {
		svg, err := (chart.LineChart{
			Title: "Throughput per iteration", XLabel: "iteration", YLabel: "MiB/s", Series: series,
		}).SVG()
		if err == nil {
			b.WriteString(svg)
		}
	}

	b.WriteString("<h2>Summary</h2><table><tr><th>operation</th><th>api</th><th>max MiB/s</th><th>min MiB/s</th><th>mean MiB/s</th><th>stddev</th><th>mean s</th><th>iterations</th></tr>")
	for _, sm := range o.Summaries {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.3f</td><td>%d</td></tr>",
			esc(sm.Operation), esc(sm.API), sm.MaxMiBps, sm.MinMiBps, sm.MeanMiBps, sm.StdDevMiB, sm.MeanSec, sm.Iterations)
	}
	b.WriteString("</table>")

	b.WriteString("<h2>Detailed results</h2><table><tr><th>operation</th><th>iteration</th><th>bw MiB/s</th><th>ops/s</th><th>latency s</th><th>open s</th><th>wr/rd s</th><th>close s</th><th>total s</th></tr>")
	for _, res := range o.Results {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%.2f</td><td>%.2f</td><td>%.5f</td><td>%.5f</td><td>%.4f</td><td>%.5f</td><td>%.4f</td></tr>",
			esc(res.Operation), res.Iteration, res.BwMiBps, res.OpsPerSec, res.LatencySec, res.OpenSec, res.WrRdSec, res.CloseSec, res.TotalSec)
	}
	b.WriteString("</table>")

	if fs := o.FileSystem; fs != nil {
		b.WriteString("<h2>File system</h2><table>")
		rows := [][2]string{
			{"Type", fs.Type}, {"Entry type", fs.EntryType}, {"EntryID", fs.EntryID},
			{"Metadata node", fs.MetadataNode}, {"Stripe pattern", fs.Pattern},
			{"Chunk size", strconv.FormatInt(fs.ChunkSize, 10)},
			{"Storage targets", strconv.Itoa(fs.NumTargets)},
			{"RAID scheme", fs.RAIDScheme}, {"Storage pool", fs.StoragePool},
		}
		for _, row := range rows {
			fmt.Fprintf(&b, "<tr><th>%s</th><td>%s</td></tr>", esc(row[0]), esc(row[1]))
		}
		b.WriteString("</table>")
	}
	if sys := o.System; sys != nil {
		b.WriteString("<h2>System</h2><table>")
		rows := [][2]string{
			{"Hostname", sys.Hostname}, {"Architecture", sys.Architecture},
			{"CPU", sys.CPUModel}, {"Cores", strconv.Itoa(sys.Cores)},
			{"CPU MHz", fmt.Sprintf("%.0f", sys.CPUMHz)},
			{"Cache KB", strconv.Itoa(sys.CacheKB)},
			{"Memory KB", strconv.FormatInt(sys.MemTotalKB, 10)},
		}
		for _, row := range rows {
			fmt.Fprintf(&b, "<tr><th>%s</th><td>%s</td></tr>", esc(row[0]), esc(row[1]))
		}
		b.WriteString("</table>")
	}

	// Usage phase inline: recommendations for this knowledge.
	recs := recommend.Advisor{}.ForObject(o)
	if len(recs) > 0 {
		b.WriteString("<h2>Recommendations</h2><ul>")
		for _, rec := range recs {
			fmt.Fprintf(&b, "<li>%s</li>", esc(rec.String()))
		}
		b.WriteString("</ul>")
	}
	s.render(w, fmt.Sprintf("Knowledge #%d", id), template.HTML(b.String()))
}

// compareRow is one knowledge object in the comparison view.
type compareRow struct {
	o   *knowledge.Object
	val float64
}

// handleCompare compares selected (or all) knowledge objects on a chosen
// metric and operation, with filtering and sorting, and draws the boxplot
// overview of the selected objects' throughput.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	op := q.Get("op")
	if op == "" {
		op = "write"
	}
	metric := q.Get("metric")
	if metric == "" {
		metric = "mean_mib"
	}
	filter := q.Get("filter")
	sortDir := q.Get("sort")

	metas, err := s.Store.ListObjects()
	if err != nil {
		s.fail(w, 500, err)
		return
	}
	selected := map[int64]bool{}
	if ids := q.Get("ids"); ids != "" {
		for _, part := range strings.Split(ids, ",") {
			if id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64); err == nil {
				selected[id] = true
			}
		}
	}
	var rows []compareRow
	for _, m := range metas {
		if len(selected) > 0 && !selected[m.ID] {
			continue
		}
		if filter != "" && !strings.Contains(strings.ToLower(m.Command), strings.ToLower(filter)) {
			continue
		}
		o, err := s.Store.LoadObject(m.ID)
		if err != nil {
			s.fail(w, 500, err)
			return
		}
		sm, ok := o.SummaryFor(op)
		if !ok {
			continue
		}
		var v float64
		switch metric {
		case "mean_mib":
			v = sm.MeanMiBps
		case "max_mib":
			v = sm.MaxMiBps
		case "min_mib":
			v = sm.MinMiBps
		case "mean_ops":
			v = sm.MeanOps
		case "mean_sec":
			v = sm.MeanSec
		default:
			s.fail(w, 400, fmt.Errorf("explorer: unknown metric %q", metric))
			return
		}
		rows = append(rows, compareRow{o: o, val: v})
	}
	switch sortDir {
	case "asc":
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].val < rows[j].val })
	case "desc":
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].val > rows[j].val })
	}

	var b strings.Builder
	b.WriteString(`<form class="inline" method="get">
metric <select name="metric">` + options([]string{"mean_mib", "max_mib", "min_mib", "mean_ops", "mean_sec"}, metric) + `</select>
operation <select name="op">` + options([]string{"write", "read"}, op) + `</select>
filter <input name="filter" value="` + esc(filter) + `">
sort <select name="sort">` + options([]string{"", "asc", "desc"}, sortDir) + `</select>
<input type="submit" value="apply"></form>`)

	if len(rows) == 0 {
		b.WriteString("<p>no matching knowledge objects</p>")
		s.render(w, "Compare", template.HTML(b.String()))
		return
	}
	var labels []string
	var values []float64
	for _, row := range rows {
		labels = append(labels, fmt.Sprintf("#%d", row.o.ID))
		values = append(values, row.val)
	}
	if svg, err := (chart.BarChart{Title: metric + " (" + op + ")", YLabel: metric, Labels: labels, Values: values}).SVG(); err == nil {
		b.WriteString(svg)
	}
	// Boxplot overview of per-iteration throughput of every selected
	// object, as the paper describes for the selection overview chart.
	var boxes []stats.Box
	var boxLabels []string
	for _, row := range rows {
		bws := row.o.Bandwidths(op)
		if len(bws) == 0 {
			continue
		}
		box, err := stats.BoxPlot(bws)
		if err != nil {
			continue
		}
		boxes = append(boxes, box)
		boxLabels = append(boxLabels, fmt.Sprintf("#%d", row.o.ID))
	}
	if len(boxes) > 0 {
		if svg, err := (chart.BoxChart{Title: "Throughput overview (" + op + ")", YLabel: "MiB/s", Labels: boxLabels, Boxes: boxes}).SVG(); err == nil {
			b.WriteString(svg)
		}
	}
	b.WriteString("<table><tr><th>id</th><th>command</th><th>" + esc(metric) + "</th></tr>")
	for _, row := range rows {
		fmt.Fprintf(&b, `<tr><td><a href="/knowledge?id=%d">%d</a></td><td><code>%s</code></td><td>%.2f</td></tr>`,
			row.o.ID, row.o.ID, esc(row.o.Command), row.val)
	}
	b.WriteString("</table>")
	s.render(w, "Compare", template.HTML(b.String()))
}

// handleIO500 is the IO500 viewer: scores plus per-test-case values.
func (s *Server) handleIO500(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		s.fail(w, 400, fmt.Errorf("explorer: bad id %q", r.URL.Query().Get("id")))
		return
	}
	o, err := s.Store.LoadIO500(id)
	if err != nil {
		s.failLoad(w, err)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<p>Command: <code>%s</code></p>", esc(o.Command))
	fmt.Fprintf(&b, "<p><b>Scores</b>: bandwidth %.3f GiB/s · metadata %.3f kIOPS · total %.3f</p>",
		o.ScoreBW, o.ScoreMD, o.ScoreTotal)
	var labels []string
	var values []float64
	b.WriteString("<h2>Test cases</h2><table><tr><th>test case</th><th>value</th><th>unit</th><th>time s</th></tr>")
	for _, tc := range o.TestCases {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%.3f</td><td>%s</td><td>%.2f</td></tr>", esc(tc.Name), tc.Value, esc(tc.Unit), tc.Seconds)
		if tc.Unit == "GiB/s" {
			labels = append(labels, tc.Name)
			values = append(values, tc.Value)
		}
	}
	b.WriteString("</table>")
	if svg, err := (chart.BarChart{Title: "Bandwidth test cases", YLabel: "GiB/s", Labels: labels, Values: values}).SVG(); err == nil {
		b.WriteString(svg)
	}
	if len(o.Options) > 0 {
		b.WriteString("<h2>Options</h2><table>")
		var keys []string
		for k := range o.Options {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "<tr><th>%s</th><td>%s</td></tr>", esc(k), esc(o.Options[k]))
		}
		b.WriteString("</table>")
	}
	s.render(w, fmt.Sprintf("IO500 run #%d", id), template.HTML(b.String()))
}

// handleBBox renders the bounding-box view over all stored IO500 runs
// (Fig. 6): boxplots of the four boundary test cases plus diagnoses.
func (s *Server) handleBBox(w http.ResponseWriter, r *http.Request) {
	metas, err := s.Store.ListIO500()
	if err != nil {
		s.fail(w, 500, err)
		return
	}
	if len(metas) == 0 {
		s.render(w, "Bounding box", template.HTML("<p>no IO500 runs stored yet</p>"))
		return
	}
	var runs []*knowledge.IO500Object
	for _, m := range metas {
		o, err := s.Store.LoadIO500(m.ID)
		if err != nil {
			s.fail(w, 500, err)
			return
		}
		runs = append(runs, o)
	}
	series, err := bbox.CollectSeries(runs)
	if err != nil {
		s.fail(w, 500, err)
		return
	}
	diags := bbox.DiagnoseSeries(series, 0.05)
	var labels []string
	var boxes []stats.Box
	for _, sr := range series {
		labels = append(labels, sr.Phase)
		boxes = append(boxes, sr.Box)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<p>%d IO500 run(s) aggregated.</p>", len(runs))
	if svg, err := (chart.BoxChart{Title: "IO500 boundary test cases", YLabel: "GiB/s", Labels: labels, Boxes: boxes}).SVG(); err == nil {
		b.WriteString(svg)
	}
	b.WriteString("<pre>" + esc(bbox.Report(series, diags)) + "</pre>")
	s.render(w, "Bounding box", template.HTML(b.String()))
}

// handleConfigure implements "create configuration": show the stored
// command, accept overrides, emit the new command (paper §V-E1).
func (s *Server) handleConfigure(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		s.fail(w, 400, fmt.Errorf("explorer: bad id %q", r.FormValue("id")))
		return
	}
	o, err := s.Store.LoadObject(id)
	if err != nil {
		s.failLoad(w, err)
		return
	}
	base, err := workloadgen.CommandFromObject(o)
	if err != nil {
		s.fail(w, 500, err)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<p>Loaded configuration: <code>%s</code></p>", esc(base))
	if r.Method == http.MethodPost {
		overrides := map[string]string{}
		for _, opt := range []string{"-b", "-t", "-s", "-i", "-N", "-o"} {
			if v := strings.TrimSpace(r.FormValue("opt" + opt)); v != "" {
				overrides[opt] = v
			}
		}
		cmd, err := workloadgen.Modify(base, overrides)
		if err != nil {
			fmt.Fprintf(&b, `<p class="err">%s</p>`, esc(err.Error()))
		} else {
			fmt.Fprintf(&b, "<h2>New configuration</h2><p><code>%s</code></p>", esc(cmd))
			b.WriteString("<p>Run this command (or feed it to a JUBE sweep) to generate new knowledge.</p>")
		}
	}
	b.WriteString(`<h2>Modify</h2><form method="post"><input type="hidden" name="id" value="` + strconv.FormatInt(id, 10) + `"><table>`)
	for _, opt := range []struct{ flag, label string }{
		{"-b", "block size"}, {"-t", "transfer size"}, {"-s", "segments"},
		{"-i", "repetitions"}, {"-N", "tasks"}, {"-o", "test file"},
	} {
		fmt.Fprintf(&b, `<tr><th>%s (%s)</th><td><input name="opt%s"></td></tr>`, esc(opt.label), esc(opt.flag), esc(opt.flag))
	}
	b.WriteString(`</table><input type="submit" value="create configuration"></form>`)
	s.render(w, fmt.Sprintf("Create configuration from #%d", id), template.HTML(b.String()))
}

// handleHeatmap renders the outlook's heat-map chart: stored knowledge
// aggregated over two runtime-selectable pattern axes (e.g. tasks ×
// transfer size), each cell the mean of a metric over matching objects.
func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	xKey := q.Get("x")
	if xKey == "" {
		xKey = "transfersize"
	}
	yKey := q.Get("y")
	if yKey == "" {
		yKey = "tasks"
	}
	op := q.Get("op")
	if op == "" {
		op = "write"
	}
	metas, err := s.Store.ListObjects()
	if err != nil {
		s.fail(w, 500, err)
		return
	}
	type cellKey struct{ x, y string }
	sums := map[cellKey]float64{}
	counts := map[cellKey]int{}
	xSet := map[string]bool{}
	ySet := map[string]bool{}
	for _, m := range metas {
		o, err := s.Store.LoadObject(m.ID)
		if err != nil {
			s.fail(w, 500, err)
			return
		}
		xv, okX := o.Pattern[xKey]
		yv, okY := o.Pattern[yKey]
		sm, okS := o.SummaryFor(op)
		if !okX || !okY || !okS {
			continue
		}
		k := cellKey{xv, yv}
		sums[k] += sm.MeanMiBps
		counts[k]++
		xSet[xv] = true
		ySet[yv] = true
	}
	var b strings.Builder
	b.WriteString(`<form class="inline" method="get">
x axis <input name="x" value="` + esc(xKey) + `">
y axis <input name="y" value="` + esc(yKey) + `">
operation <select name="op">` + options([]string{"write", "read"}, op) + `</select>
<input type="submit" value="apply"></form>`)
	if len(xSet) == 0 || len(ySet) == 0 {
		b.WriteString("<p>no knowledge objects carry both pattern keys</p>")
		s.render(w, "Heat map", template.HTML(b.String()))
		return
	}
	xs := sortedKeys(xSet)
	ys := sortedKeys(ySet)
	values := make([][]float64, len(ys))
	for yi, yv := range ys {
		values[yi] = make([]float64, len(xs))
		for xi, xv := range xs {
			k := cellKey{xv, yv}
			if counts[k] > 0 {
				values[yi][xi] = sums[k] / float64(counts[k])
			}
		}
	}
	hm := chart.HeatMap{
		Title:   fmt.Sprintf("mean %s bandwidth (MiB/s) by %s × %s", op, yKey, xKey),
		XLabels: xs,
		YLabels: ys,
		Values:  values,
	}
	if svg, err := hm.SVG(); err == nil {
		b.WriteString(svg)
	} else {
		s.fail(w, 500, err)
		return
	}
	s.render(w, "Heat map", template.HTML(b.String()))
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// handleUpload accepts a local knowledge object as JSON (the paper's
// "local data" path) and stores it.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		o, err := knowledge.DecodeJSON(r.Body)
		if err != nil {
			s.fail(w, 400, err)
			return
		}
		o.ID = 0
		id, err := s.Store.SaveObject(o)
		if err != nil {
			s.fail(w, 400, err)
			return
		}
		http.Redirect(w, r, fmt.Sprintf("/knowledge?id=%d", id), http.StatusSeeOther)
		return
	}
	s.render(w, "Upload knowledge", template.HTML(
		`<p>POST a knowledge object as JSON to this endpoint, e.g.
<code>curl -X POST --data-binary @knowledge.json http://host/upload</code></p>`))
}

func options(vals []string, selected string) string {
	var b strings.Builder
	for _, v := range vals {
		sel := ""
		if v == selected {
			sel = " selected"
		}
		label := v
		if label == "" {
			label = "(none)"
		}
		fmt.Fprintf(&b, `<option value="%s"%s>%s</option>`, esc(v), sel, esc(label))
	}
	return b.String()
}

func esc(s string) string { return template.HTMLEscapeString(s) }
