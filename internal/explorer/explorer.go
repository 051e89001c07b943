// Package explorer implements the paper's web-based knowledge explorer
// (phase IV): a knowledge viewer for single runs (benchmark command, file
// system and system information, per-operation summaries, per-iteration
// detail with an interactive chart), a comparison view over any number of
// knowledge objects with runtime-selectable axes, filtering and sorting, a
// boxplot throughput overview, a dedicated IO500 viewer with scores and
// test cases, a bounding-box view for anomaly detection, a "create
// configuration" form that generates new benchmark commands from stored
// knowledge, and manual upload of local knowledge objects.
//
// The pages are HTML renderers mounted on the api's front door (Register):
// they run through its request pipeline, answer GETs from its result
// cache, and page lists with its cursors.
package explorer

import (
	"bytes"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/api"
	"repro/internal/bbox"
	"repro/internal/chart"
	"repro/internal/knowledge"
	"repro/internal/recommend"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/workloadgen"
)

// pages renders the explorer over the front door's store.
type pages struct {
	front *api.Server
	store *schema.Store
}

// New builds a front door over store with default limits and the
// explorer's pages mounted. Close it when done.
func New(store *schema.Store) *api.Server {
	front := api.New(api.Config{Store: store})
	Register(front)
	return front
}

// Register mounts the explorer's pages on the front door. A GET of a page
// whose content depends only on the store is answered from the result
// cache; /traces, /upload and POSTs are rendered on every request.
func Register(front *api.Server) {
	x := &pages{front: front, store: front.Store()}
	for _, p := range []struct {
		pattern, name string
		cacheable     bool
		render        func(*http.Request) ([]byte, error)
	}{
		{"/{$}", "html_index", true, x.index},
		{"/knowledge", "html_knowledge", true, x.knowledge},
		{"/compare", "html_compare", true, x.compare},
		{"/io500", "html_io500", true, x.io500},
		{"/io500/bbox", "html_bbox", true, x.bbox},
		{"/heatmap", "html_heatmap", true, x.heatmap},
		{"/configure", "html_configure", true, x.configure},
		{"/campaigns", "html_campaigns", true, x.campaigns},
		{"/campaign", "html_campaign", true, x.campaign},
		{"/history", "html_history", true, x.history},
		{"/traces", "html_traces", false, x.traces},
	} {
		x.mount(p.pattern, p.name, p.cacheable, p.render)
	}
	front.Handle("/upload", "html_upload", http.HandlerFunc(x.upload))
}

const htmlType = "text/html; charset=utf-8"

func (x *pages) mount(pattern, name string, cacheable bool, render func(*http.Request) ([]byte, error)) {
	x.front.Handle(pattern, name, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cacheable && r.Method == http.MethodGet {
			if err := x.front.ServeCached(w, r, htmlType, func() ([]byte, error) { return render(r) }); err != nil {
				respond(w, nil, err)
			}
			return
		}
		body, err := render(r)
		respond(w, body, err)
	}))
}

// respond writes a rendered page, or on err the error page at the status
// the front door gives err (api.StatusOf).
func respond(w http.ResponseWriter, body []byte, err error) {
	status := http.StatusOK
	if err != nil {
		status = api.StatusOf(err)
		body, _ = page("Error", `<p class="err">`+esc(err.Error())+`</p>`)
	}
	w.Header().Set("Content-Type", htmlType)
	w.WriteHeader(status)
	w.Write(body)
}

// badRequest is a 400 for a malformed query parameter.
func badRequest(format string, args ...any) error {
	return &api.StatusError{Status: http.StatusBadRequest, Code: "bad_request", Err: fmt.Errorf(format, args...)}
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

// page lays body out in the shared shell.
func page(title, body string) ([]byte, error) {
	var b bytes.Buffer
	err := shellTmpl.Execute(&b, struct {
		Title string
		Body  template.HTML
	}{title, template.HTML(body)})
	return b.Bytes(), err
}

// nextLink links the page after this one of a list: the request's query
// with param set to the api cursor next. The last page has none.
func nextLink(r *http.Request, param, next string) string {
	if next == "" {
		return ""
	}
	q := r.URL.Query()
	q.Set(param, next)
	return `<p><a href="` + esc(r.URL.Path+"?"+q.Encode()) + `">next page →</a></p>`
}

// queryID parses the ?id= parameter (a form field too, for POSTs).
func queryID(r *http.Request) (int64, error) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		return 0, badRequest("explorer: bad id %q", r.FormValue("id"))
	}
	return id, nil
}

// index lists one page of benchmark knowledge objects and one of IO500
// runs, each with its own cursor, under the population summary.
func (x *pages) index(r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	after, limit, err := x.front.PageParams(q, "cursor")
	if err != nil {
		return nil, err
	}
	io5After, _, err := x.front.PageParams(q, "io500_cursor")
	if err != nil {
		return nil, err
	}
	objs, err := x.front.ObjectsPage(after, limit)
	if err != nil {
		return nil, err
	}
	io5, err := x.front.IO500Page(io5After, limit)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if avgs, err := x.store.OperationAverages(); err == nil && len(avgs) > 0 {
		b.WriteString("<h2>Knowledge base population</h2><table><tr><th>operation</th><th>runs</th><th>mean MiB/s</th><th>best MiB/s</th><th>worst MiB/s</th></tr>")
		for _, a := range avgs {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%.1f</td><td>%.1f</td><td>%.1f</td></tr>",
				esc(a.Operation), a.Runs, a.MeanMiBps, a.MaxMiBps, a.MinMiBps)
		}
		b.WriteString("</table>")
	}
	b.WriteString("<h2>Benchmark knowledge objects</h2>")
	if len(objs.Rows) == 0 {
		b.WriteString("<p>none stored yet</p>")
	} else {
		b.WriteString("<table><tr><th>id</th><th>source</th><th>command</th><th>began</th><th></th></tr>")
		for _, m := range objs.Rows {
			fmt.Fprintf(&b, `<tr><td><a href="/knowledge?id=%d">%d</a></td><td>%s</td><td><code>%s</code></td><td>%s</td><td><a href="/configure?id=%d">create configuration</a></td></tr>`,
				m.ID, m.ID, esc(m.Source), esc(m.Command), m.Began.Format("2006-01-02 15:04"), m.ID)
		}
		b.WriteString("</table>")
		b.WriteString(nextLink(r, "cursor", objs.Next))
	}
	b.WriteString("<h2>IO500 runs</h2>")
	if len(io5.Rows) == 0 {
		b.WriteString("<p>none stored yet</p>")
	} else {
		b.WriteString("<table><tr><th>id</th><th>command</th><th>began</th></tr>")
		for _, m := range io5.Rows {
			fmt.Fprintf(&b, `<tr><td><a href="/io500?id=%d">%d</a></td><td><code>%s</code></td><td>%s</td></tr>`,
				m.ID, m.ID, esc(m.Command), m.Began.Format("2006-01-02 15:04"))
		}
		b.WriteString("</table>")
		b.WriteString(nextLink(r, "io500_cursor", io5.Next))
	}
	return page("I/O Knowledge", b.String())
}

// knowledge is the single-run knowledge viewer.
func (x *pages) knowledge(r *http.Request) ([]byte, error) {
	id, err := queryID(r)
	if err != nil {
		return nil, err
	}
	o, err := x.store.LoadObject(id)
	if err != nil {
		return nil, err
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
	return page(fmt.Sprintf("Knowledge #%d", id), b.String())
}

// compareMetrics are the comparison view's selectable axes.
var compareMetrics = map[string]func(knowledge.Summary) float64{
	"mean_mib": func(s knowledge.Summary) float64 { return s.MeanMiBps },
	"max_mib":  func(s knowledge.Summary) float64 { return s.MaxMiBps },
	"min_mib":  func(s knowledge.Summary) float64 { return s.MinMiBps },
	"mean_ops": func(s knowledge.Summary) float64 { return s.MeanOps },
	"mean_sec": func(s knowledge.Summary) float64 { return s.MeanSec },
}

// compareRow is one knowledge object in the comparison view.
type compareRow struct {
	o   *knowledge.Object
	val float64
}

// compare compares the objects named by ?ids= (or one page of all of
// them) on a chosen metric and operation, with filtering and sorting, and
// draws the boxplot overview of the selected objects' throughput.
func (x *pages) compare(r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	op := q.Get("op")
	if op == "" {
		op = "write"
	}
	metric := q.Get("metric")
	if metric == "" {
		metric = "mean_mib"
	}
	metricOf, ok := compareMetrics[metric]
	if !ok {
		return nil, badRequest("explorer: unknown metric %q", metric)
	}
	filter := q.Get("filter")
	sortDir := q.Get("sort")
	after, limit, err := x.front.PageParams(q, "cursor")
	if err != nil {
		return nil, err
	}

	var ids []int64
	next := ""
	if list := q.Get("ids"); list != "" {
		for _, part := range strings.Split(list, ",") {
			if id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64); err == nil {
				ids = append(ids, id)
			}
		}
		if len(ids) > limit {
			return nil, badRequest("explorer: %d ids named, at most %d per page (?limit=)", len(ids), limit)
		}
	} else {
		objs, err := x.front.ObjectsPage(after, limit)
		if err != nil {
			return nil, err
		}
		for _, m := range objs.Rows {
			ids = append(ids, m.ID)
		}
		next = objs.Next
	}
	var rows []compareRow
	for _, id := range ids {
		o, err := x.store.LoadObject(id)
		if errors.Is(err, schema.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if filter != "" && !strings.Contains(strings.ToLower(o.Command), strings.ToLower(filter)) {
			continue
		}
		if sm, ok := o.SummaryFor(op); ok {
			rows = append(rows, compareRow{o: o, val: metricOf(sm)})
		}
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
		b.WriteString(nextLink(r, "cursor", next))
		return page("Compare", b.String())
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
	b.WriteString(nextLink(r, "cursor", next))
	return page("Compare", b.String())
}

// io500 is the IO500 viewer: scores plus per-test-case values.
func (x *pages) io500(r *http.Request) ([]byte, error) {
	id, err := queryID(r)
	if err != nil {
		return nil, err
	}
	o, err := x.store.LoadIO500(id)
	if err != nil {
		return nil, err
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
	return page(fmt.Sprintf("IO500 run #%d", id), b.String())
}

// bbox renders the bounding-box view over all stored IO500 runs (Fig. 6):
// boxplots of the four boundary test cases plus diagnoses.
func (x *pages) bbox(r *http.Request) ([]byte, error) {
	metas, err := x.store.ListIO500()
	if err != nil {
		return nil, err
	}
	if len(metas) == 0 {
		return page("Bounding box", "<p>no IO500 runs stored yet</p>")
	}
	var runs []*knowledge.IO500Object
	for _, m := range metas {
		o, err := x.store.LoadIO500(m.ID)
		if err != nil {
			return nil, err
		}
		runs = append(runs, o)
	}
	series, err := bbox.CollectSeries(runs)
	if err != nil {
		return nil, err
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
	return page("Bounding box", b.String())
}

// configure implements "create configuration": show the stored command,
// accept overrides, emit the new command (paper §V-E1).
func (x *pages) configure(r *http.Request) ([]byte, error) {
	id, err := queryID(r)
	if err != nil {
		return nil, err
	}
	o, err := x.store.LoadObject(id)
	if err != nil {
		return nil, err
	}
	base, err := workloadgen.CommandFromObject(o)
	if err != nil {
		return nil, err
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
	return page(fmt.Sprintf("Create configuration from #%d", id), b.String())
}

// heatCells aggregates objects over two pattern axes: the sorted axis
// labels and, per (y, x) cell, the mean of MeanMiBps over the objects
// carrying both keys (0 where none do).
func heatCells(objs []schema.PatternMean, xKey, yKey string) (xs, ys []string, values [][]float64) {
	type cellKey struct{ x, y string }
	sums := map[cellKey]float64{}
	counts := map[cellKey]int{}
	xSet := map[string]bool{}
	ySet := map[string]bool{}
	for _, o := range objs {
		xv, okX := o.Pattern[xKey]
		yv, okY := o.Pattern[yKey]
		if !okX || !okY {
			continue
		}
		k := cellKey{xv, yv}
		sums[k] += o.MeanMiBps
		counts[k]++
		xSet[xv] = true
		ySet[yv] = true
	}
	xs = sortedKeys(xSet)
	ys = sortedKeys(ySet)
	values = make([][]float64, len(ys))
	for yi, yv := range ys {
		values[yi] = make([]float64, len(xs))
		for xi, xv := range xs {
			k := cellKey{xv, yv}
			if counts[k] > 0 {
				values[yi][xi] = sums[k] / float64(counts[k])
			}
		}
	}
	return xs, ys, values
}

// heatmap renders the outlook's heat-map chart: stored knowledge
// aggregated over two runtime-selectable pattern axes (e.g. tasks ×
// transfer size), each cell the mean of a metric over matching objects.
func (x *pages) heatmap(r *http.Request) ([]byte, error) {
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
	objs, err := x.store.PatternMeans(op)
	if err != nil {
		return nil, err
	}
	xs, ys, values := heatCells(objs, xKey, yKey)
	var b strings.Builder
	b.WriteString(`<form class="inline" method="get">
x axis <input name="x" value="` + esc(xKey) + `">
y axis <input name="y" value="` + esc(yKey) + `">
operation <select name="op">` + options([]string{"write", "read"}, op) + `</select>
<input type="submit" value="apply"></form>`)
	if len(xs) == 0 || len(ys) == 0 {
		b.WriteString("<p>no knowledge objects carry both pattern keys</p>")
		return page("Heat map", b.String())
	}
	hm := chart.HeatMap{
		Title:   fmt.Sprintf("mean %s bandwidth (MiB/s) by %s × %s", op, yKey, xKey),
		XLabels: xs,
		YLabels: ys,
		Values:  values,
	}
	svg, err := hm.SVG()
	if err != nil {
		return nil, err
	}
	b.WriteString(svg)
	return page("Heat map", b.String())
}

func sortedKeys[V any](set map[string]V) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// maxUploadBytes caps a POST /upload body. A knowledge object is JSON of a
// few KiB to a few MiB; anything past the cap is refused before decoding.
const maxUploadBytes = 16 << 20

// upload accepts a local knowledge object as JSON (the paper's "local
// data" path) and stores it.
func (x *pages) upload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		body, err := page("Upload knowledge",
			`<p>POST a knowledge object as JSON to this endpoint, e.g.
<code>curl -X POST --data-binary @knowledge.json http://host/upload</code></p>`)
		respond(w, body, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		respond(w, nil, &api.StatusError{Status: http.StatusRequestEntityTooLarge, Code: "too_large",
			Err: fmt.Errorf("explorer: upload larger than %d bytes", maxUploadBytes)})
		return
	}
	if err != nil {
		respond(w, nil, badRequest("explorer: read upload: %v", err))
		return
	}
	o, err := knowledge.DecodeJSON(bytes.NewReader(data))
	if err != nil {
		respond(w, nil, badRequest("%v", err))
		return
	}
	o.ID = 0
	id, err := x.store.SaveObject(o)
	if err != nil {
		respond(w, nil, badRequest("%v", err))
		return
	}
	http.Redirect(w, r, fmt.Sprintf("/knowledge?id=%d", id), http.StatusSeeOther)
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
