package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/colstore"
	"repro/internal/knowledge"
	"repro/internal/schema"
	"repro/internal/vcs"
	"repro/internal/workloadgen"
)

// analytics_churn does fixed work: a corpus of analyticsCorpus IO500
// submissions, then analyticsCyclesPerSecond cycles per second of --seconds
// (about what the seed commit sustains on the reference box). One cycle is
// one analyst/curator round: insert one new submission, run the battery
// once (fresh: pays the columnar rebuild), run it steadyPerCycle times more
// (steady), commit.
const (
	analyticsCorpus          = 500
	analyticsCyclesPerSecond = 2.5
	steadyPerCycle           = 40
)

// Span names of the analytics cycle; the bench is itself the caller of
// every layer here, so these are plain timers under a root per cycle.
const (
	spInsert   = "schema.insert"
	spFresh    = "colstore.fresh_battery"
	spSteady   = "colstore.steady_battery"
	spSnapshot = "kdb.snapshot_probe"
	spCommit   = "vcs.commit"
)

type analyticsTopo struct {
	store   *schema.Store
	cs      *colstore.Store
	repo    *vcs.Repo
	corpus  []*knowledge.IO500Object // the seeded submissions, then one per cycle
	seeded  int
	battery []batteryQuery
	rowMS   float64
}

// runBattery runs the 13 queries once and returns the answers.
func (t *analyticsTopo) runBattery() ([][][]any, error) {
	out := make([][][]any, 0, len(t.battery))
	for _, q := range t.battery {
		rows, err := t.store.DB.Query(q.SQL, q.Args...)
		if err != nil {
			return nil, fmt.Errorf("battery %s: %w", q.Name, err)
		}
		out = append(out, append([][]any{toAny(rows.Columns)}, rows.All()...))
	}
	return out, nil
}

func toAny(cols []string) []any {
	out := make([]any, len(cols))
	for i, c := range cols {
		out[i] = c
	}
	return out
}

func setupAnalytics(o options, cycles int) (*analyticsTopo, error) {
	n := scaled(analyticsCorpus, o.scale, 40)
	corpus, err := workloadgen.SynthesizeIO500Corpus(n+cycles, o.seed)
	if err != nil {
		return nil, err
	}
	store, err := schema.Open("")
	if err != nil {
		return nil, err
	}
	t := &analyticsTopo{store: store, corpus: corpus, seeded: n, battery: battery(n)}
	fail := func(err error) (*analyticsTopo, error) {
		store.Close()
		return nil, err
	}
	if _, err := store.SaveIO500s(corpus[:n]); err != nil {
		return fail(err)
	}
	if o.trace {
		// The plain baseline: the battery on the row engine.
		start := time.Now()
		if _, err := t.runBattery(); err != nil {
			return fail(err)
		}
		t.rowMS = float64(time.Since(start)) / 1e6
	}
	if t.cs, err = store.EnableAnalytics(); err != nil {
		return fail(err)
	}
	if t.repo, err = store.EnableVersioning(); err != nil {
		return fail(err)
	}
	if _, _, err := t.repo.Commit("main", "bench", "base", 0); err != nil {
		return fail(err)
	}
	// Warm-up: the first columnar battery builds every segment.
	if _, err := t.runBattery(); err != nil {
		return fail(err)
	}
	return t, nil
}

// rowEngineAnswers runs the battery with the columnar engine detached and
// attaches the very same store again, so its segments and counters
// survive.
func (t *analyticsTopo) rowEngineAnswers() ([][][]any, error) {
	db := t.repo.DB()
	db.SetColumnar(nil)
	defer db.SetColumnar(t.cs)
	return t.runBattery()
}

func runAnalytics(o options) (*runResult, error) {
	r := newRunResult("analytics_churn", o)
	cycles := scaled(int(analyticsCyclesPerSecond*float64(o.seconds)), o.scale, 4)
	var tr *tracer
	repeats := setupRepeats
	if o.trace {
		tr, repeats = newTracer(), 1
		tr.on.Store(true)
	}
	var topo *analyticsTopo
	var setups []float64
	for i := 0; i < repeats; i++ {
		if topo != nil {
			topo.store.Close()
		}
		start := time.Now()
		var err error
		if topo, err = setupAnalytics(o, cycles); err != nil {
			return nil, fmt.Errorf("analytics_churn: set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer topo.store.Close()
	r.setN("setup_s", median(setups), len(setups), 0)
	r.Fingerprint.CorpusSHA256 = hashJSON(topo.corpus)
	r.Fingerprint.StreamSHA256 = hashJSON(topo.battery, cycles, steadyPerCycle)

	checkpoints := map[int]bool{0: true, cycles / 3: true, 2 * cycles / 3: true, cycles - 1: true}
	statsBefore := topo.cs.Stats()
	r.set("host.calib_before_ms", calibrate())
	before := readUsage()
	windowStart := time.Now()
	var fresh, steady, commits, rebuild, cycleS, snapshots []float64
	var checkWall time.Duration
	equal, notCreated := true, 0
	var firstErr error
	timed := func(name string, fn func() error) float64 {
		spanStart := tr.begin()
		start := time.Now()
		err := fn()
		d := time.Since(start)
		tr.finish(name, spanStart, 0, 0)
		r.Attempted++
		if err != nil {
			r.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
		}
		return float64(d) / 1e6
	}
	for c := 0; c < cycles; c++ {
		if o.trace {
			// Traced runs only, once per cycle and outside its clock: what
			// serialising the snapshot, the first half of the round trip
			// behind both the rebuild and the commit, costs on its own.
			spanStart, start := tr.begin(), time.Now()
			_, err := topo.repo.DB().WriteSnapshot(io.Discard)
			tr.finish(spSnapshot, spanStart, 0, 0)
			if err == nil {
				snapshots = append(snapshots, float64(time.Since(start))/1e6)
			}
		}
		rootStart := tr.begin()
		cycleStart := time.Now()
		timed(spInsert, func() error {
			_, err := topo.store.SaveIO500s(topo.corpus[topo.seeded+c : topo.seeded+c+1])
			return err
		})
		var answers [][][]any
		f := timed(spFresh, func() (err error) { answers, err = topo.runBattery(); return err })
		fresh = append(fresh, f)
		var cycleSteady []float64
		for i := 0; i < steadyPerCycle; i++ {
			cycleSteady = append(cycleSteady, timed(spSteady, func() (err error) { answers, err = topo.runBattery(); return err }))
		}
		steady = append(steady, cycleSteady...)
		rebuild = append(rebuild, f-median(cycleSteady))
		commits = append(commits, timed(spCommit, func() error {
			_, created, err := topo.repo.Commit("main", "bench", fmt.Sprintf("cycle %d", c), 0)
			if err == nil && !created {
				notCreated++
			}
			return err
		}))
		cycleS = append(cycleS, time.Since(cycleStart).Seconds())
		tr.finish(spRoot, rootStart, int64(c+1), 0)
		if checkpoints[c] {
			// Untimed: outside the cycle's clock and taken off the window.
			checkStart := time.Now()
			want, err := topo.rowEngineAnswers()
			if err != nil || !reflect.DeepEqual(want, answers) {
				equal = false
			}
			checkWall += time.Since(checkStart)
		}
	}
	window := time.Since(windowStart) - checkWall
	rss := peakRSSMB()
	after := readUsage()
	r.set("host.calib_after_ms", calibrate())
	r.WindowS = window.Seconds()
	stats := topo.cs.Stats()

	const opsPerCycle = 1 + steadyPerCycle + 1 // batteries and the commit; the insert is the cause, not an operation
	if !o.trace {
		r.setN("ops_per_s", opsPerCycle/median(cycleS), len(cycleS), 0)
		r.setN("op_p50_ms", steadyPercentile(steady, 50), len(steady), 0)
		tail := slicedTail(len(steady))
		r.setN("op_tail_ms", steadyPercentile(steady, tail), len(steady), tail)
		r.setN("slow_p50_ms", median(fresh), len(fresh), 0)
		r.set("peak_rss_mb", rss)
	}
	recordProcess(r, before, after, int64(cycles*opsPerCycle))
	r.setN("colstore.fresh_battery_p50_ms", median(fresh), len(fresh), 0)
	r.setN("colstore.steady_battery_p50_ms", median(steady), len(steady), 0)
	r.setN("colstore.rebuild_p50_ms", median(rebuild), len(rebuild), 0)
	r.setN("vcs.commit_p50_ms", median(commits), len(commits), 0)
	r.set("colstore.rebuilds_per_cycle", float64(stats.Rebuilds-statsBefore.Rebuilds)/float64(cycles))
	scanned := stats.SegmentsScanned - statsBefore.SegmentsScanned
	skipped := stats.SegmentsSkipped - statsBefore.SegmentsSkipped
	r.set("colstore.segments_scanned", float64(scanned))
	if scanned+skipped > 0 {
		r.set("colstore.segments_skipped_ratio", float64(skipped)/float64(scanned+skipped))
	}
	r.set("colstore.fallbacks", float64(stats.Fallbacks))
	r.set("kdb.final_lsn", float64(topo.repo.DB().LSN()))

	log, logErr := topo.repo.Log("main", 0)
	if logErr == nil {
		// Oldest first: a chunk is new to a commit when no earlier commit
		// of the run referenced its hash.
		seen := map[string]bool{}
		var newBytes float64
		for i := len(log) - 1; i >= 0; i-- {
			for _, ch := range log[i].Manifest.Chunks {
				if !seen[ch.Hash] {
					seen[ch.Hash] = true
					if i < len(log)-1 {
						newBytes += float64(ch.Size)
					}
				}
			}
		}
		if len(log) > 1 {
			r.set("vcs.new_chunk_bytes_per_commit", newBytes/float64(len(log)-1))
		}
	}
	if o.trace {
		r.set("kdb.engine.row_battery_ms", topo.rowMS)
		r.setN("vcs.snapshot_p50_ms", median(snapshots), len(snapshots), 0)
		spans := tr.spans
		link(spans)
		r.setChain(chain(spans, spRoot))
		if err := dumpSpans(r, spans); err != nil {
			return nil, err
		}
	}

	if firstErr != nil {
		r.check("every battery and commit succeeded", false, "%v", firstErr)
	}
	r.check("columnar battery answers equal the row engine's at the checkpoints", equal, "answers differ")
	r.check("colstore.fallbacks == 0", stats.Fallbacks == 0, "%d fallbacks", stats.Fallbacks)
	r.check("every commit created", notCreated == 0, "%d commits were no-ops", notCreated)
	r.check("Repo.Log length", logErr == nil && len(log) == cycles+1, "got %d commits (err %v), want %d", len(log), logErr, cycles+1)
	r.finish()
	return r, nil
}
