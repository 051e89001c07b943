package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is BENCHMARK.json's run_seconds: the nominal window length
// every size below was calibrated for.
const runSeconds = 12

var workloads = []workloadDef{
	{"api_warm", "API reads over an embedded store, working set inside the 4,096-entry cache: all time is net/http + api; bypass workload for schema/repl/kdb/colstore changes"},
	{"api_churn", "same mix through router + wire to a served primary and replica while a foreign writer commits every 50th request, so about a third of reads miss and walk the full routed path"},
	{"ingest_served", "campaign units generated, extracted and persisted over the wire into a file-backed primary with a streaming follower; the write-side use of the wire/engine/WAL layers api_churn reads through"},
	{"analytics_churn", "insert one IO500 submission, run the 13-query battery fresh (columnar rebuild) then steady, commit: colstore as scanner and as rebuild-after-write, plus vcs.Commit"},
}

// endToEnd are the metrics a consumer of the service sees, measured with
// tracing off. Every workload reports every one (README: what each means
// per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"slow_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of single layers, taken from outside the
// program. A workload that does not exercise a layer reports notMeasured.
var perLayer = []metricDef{
	{Name: "api.serve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.serve_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "api.self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.http_self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "api.not_modified_ratio", Unit: "ratio", Better: "higher"},
	{Name: "api.body_bytes_per_resp", Unit: "bytes", Better: "lower"},
	{Name: "api.freshness_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.cold_miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "schema.conn_calls_per_miss", Unit: "count", Better: "lower"},
	{Name: "schema.self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "schema.stmts_per_unit", Unit: "count", Better: "lower"},
	{Name: "schema.save_object_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.router_self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.replica_read_ratio", Unit: "ratio", Better: "higher"},
	{Name: "repl.lag_lsn_max", Unit: "count", Better: "lower"},
	{Name: "repl.converge_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.resyncs", Unit: "count", Better: "lower"},
	{Name: "kdb.wire.roundtrip_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.wire.roundtrip_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.wire.self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.wire.roundtrips_per_op", Unit: "count", Better: "lower"},
	{Name: "kdb.engine.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.engine.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.engine.exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.engine.rows_per_query", Unit: "count", Better: "lower"},
	{Name: "kdb.engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "kdb.engine.index_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "kdb.engine.lock_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.engine.row_battery_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.final_lsn", Unit: "count", Better: "lower"},
	{Name: "kdb.wal.flushes_per_unit", Unit: "count", Better: "lower"},
	{Name: "kdb.wal.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "kdb.wal.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.fresh_battery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.steady_battery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.rebuild_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.rebuilds_per_cycle", Unit: "count", Better: "lower"},
	{Name: "colstore.segments_scanned", Unit: "count", Better: "lower"},
	{Name: "colstore.segments_skipped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "colstore.fallbacks", Unit: "count", Better: "lower"},
	{Name: "vcs.commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "vcs.snapshot_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "vcs.new_chunk_bytes_per_commit", Unit: "bytes", Better: "lower"},
	{Name: "core.generate_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "campaign.persist_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "campaign.embedded_units_per_s", Unit: "1/s", Better: "higher"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "process.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_before_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_after_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.chain_covered_frac", Unit: "ratio", Better: "higher"},
}

// notMeasured is what the driver line carries for a per-layer metric the
// workload has no use of (the line must name every metric; every real
// value is >= 0). Result files simply omit such metrics.
const notMeasured = -1

// manifest is BENCHMARK.json; `bench manifest` prints it and a test keeps
// the committed file equal to it.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func benchManifest() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// fingerprint identifies the inputs and the host of a run. compare refuses
// to diff runs whose inputs differ; commit and calibration are recorded,
// not compared.
type fingerprint struct {
	CorpusSHA256 string  `json:"corpus_sha256"`
	StreamSHA256 string  `json:"stream_sha256"`
	Seed         uint64  `json:"seed"`
	Seconds      int     `json:"seconds"`
	Scale        float64 `json:"scale"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	Commit       string  `json:"commit"`
}

// inputsKey is the part of a fingerprint two runs must share to be
// comparable.
func (f fingerprint) inputsKey() string {
	return fmt.Sprintf("%s/%s/seed=%d/seconds=%d/scale=%g/%s/gomaxprocs=%d/nproc=%d",
		f.CorpusSHA256, f.StreamSHA256, f.Seed, f.Seconds, f.Scale, f.GoVersion, f.GOMAXPROCS, f.NProc)
}

func hostFingerprint(o options) fingerprint {
	return fingerprint{
		Seed:       o.seed,
		Seconds:    o.seconds,
		Scale:      o.scale,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     buildCommit(),
	}
}

// buildCommit reads the commit the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many timings a percentile was taken over, Pct the
	// percentile actually used when the name's nominal one (p99) lacked
	// ten samples beyond it.
	Samples int     `json:"samples,omitempty"`
	Pct     float64 `json:"pct,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is one run of one workload: what a result file holds per run.
type runResult struct {
	Workload    string                 `json:"workload"`
	Trace       bool                   `json:"trace"`
	Fingerprint fingerprint            `json:"fingerprint"`
	WindowS     float64                `json:"window_s"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Correct     bool                   `json:"correct"`
	Checks      []checkResult          `json:"checks"`
	Metrics     map[string]metricValue `json:"metrics"`
	Chain       []chainRow             `json:"chain,omitempty"`
	SpanFile    string                 `json:"span_file,omitempty"`
}

func newRunResult(workload string, o options) *runResult {
	return &runResult{Workload: workload, Trace: o.trace, Fingerprint: hostFingerprint(o),
		Metrics: map[string]metricValue{}}
}

// set records a metric under its BENCHMARK.json unit; an unknown name is a
// bug in the benchmark.
func (r *runResult) set(name string, v float64) {
	r.setN(name, v, 0, 0)
}

func (r *runResult) setN(name string, v float64, samples int, pct float64) {
	def, ok := metricByName(name)
	if !ok {
		panic("bench: metric " + name + " is not declared in result.go")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.Unit, Samples: samples, Pct: pct}
}

// setTail records the tail of xs: the highest percentile, p99 at most,
// that keeps ten samples beyond it.
func (r *runResult) setTail(name string, xs []float64) {
	tail := opTail(len(xs))
	r.setN(name, pct(xs, tail), len(xs), tail)
}

// setChain records the blocking chain of a traced run and how much of the
// outermost spans the layers' self times account for.
func (r *runResult) setChain(rows []chainRow) {
	r.Chain = rows
	covered := 0.0
	for _, row := range rows {
		covered += row.Share
	}
	r.set("trace.chain_covered_frac", covered)
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// finish settles correctness: every failed check counts as one failed
// operation on top of those the window itself counted.
func (r *runResult) finish() {
	for _, c := range r.Checks {
		if !c.OK {
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0
	if r.Attempted < 1 {
		r.Attempted = 1
	}
}

// driverLine is the contract's last line of standard output: every
// end-to-end metric of an untraced run, every per-layer metric of a traced
// one.
func (r *runResult) driverLine() ([]byte, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case ok:
			metrics[d.Name] = metricValue{Value: v.Value, Unit: d.Unit}
		case r.Trace:
			metrics[d.Name] = metricValue{Value: notMeasured, Unit: d.Unit}
		default:
			return nil, fmt.Errorf("bench: workload %s did not report end-to-end metric %s", r.Workload, d.Name)
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// print writes the human-readable report of one run.
func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %d s, scale %g) window %.2f s, attempted %d, failed %d\n",
		r.Workload, mode, r.Fingerprint.Seed, r.Fingerprint.Seconds, r.Fingerprint.Scale, r.WindowS, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	row := func(d metricDef) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return
		}
		note := ""
		if v.Samples > 0 {
			note = fmt.Sprintf("n=%d", v.Samples)
			if v.Pct > 0 {
				note += fmt.Sprintf(" p%g", v.Pct)
			}
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", d.Name, v.Value, d.Unit, note)
	}
	for _, d := range endToEnd {
		row(d)
	}
	for _, d := range perLayer {
		row(d)
	}
	tw.Flush()
	if len(r.Chain) > 0 {
		fmt.Fprintln(w, "  blocking chain (self time per layer, share of all operation time):")
		tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, c := range r.Chain {
			fmt.Fprintf(tw, "    %s\t%.4f ms p50/op\t%.1f%%\t%.1f spans/op\n", c.Layer, c.P50MS, 100*c.Share, c.PerOp)
		}
		tw.Flush()
	}
	for _, c := range r.Checks {
		if c.OK {
			fmt.Fprintf(w, "  ok    %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "  FAIL  %s: %s\n", c.Name, c.Detail)
		}
	}
}

// resultSet is a result file: the runs of one or more workloads, several
// seeds each.
type resultSet struct {
	Schema int         `json:"schema"`
	Runs   []runResult `json:"runs"`
}

const resultSchema = 1

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rs.Schema != resultSchema {
		return nil, fmt.Errorf("%s: result schema %d, this benchmark reads %d", path, rs.Schema, resultSchema)
	}
	return &rs, nil
}

func (rs *resultSet) write(path string) error {
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// values collects one metric over the untraced (or traced) runs of a
// workload, in run order.
func (rs *resultSet) values(workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// inputs lists the sorted input fingerprints of a workload's runs.
func (rs *resultSet) inputs(workload string, trace bool) string {
	var keys []string
	for _, r := range rs.Runs {
		if r.Workload == workload && r.Trace == trace {
			keys = append(keys, r.Fingerprint.inputsKey())
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
