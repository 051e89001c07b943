package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/kdb"
	"repro/internal/repl"
	"repro/internal/schema"
)

// ingest_served does fixed work, not fixed time: campaignsPerSecond
// campaigns of campaignUnits units per second of --seconds, back to back
// (about what the seed commit sustains on the reference box, so the window
// lasts roughly --seconds). A campaign's clock runs from Scheduler.Run
// until the follower has applied the primary's last commit. Many short
// campaigns instead of one long one give the throughput a distribution:
// the scheduler reports no usable per-unit timing (RunOutcome.Wall is
// always zero at this commit), so a campaign's wall over its units is the
// finest latency seen from outside.
const (
	campaignsPerSecond = 5
	campaignUnits      = 128
	ingestWarmUnits    = 200
	reopenRepeats      = 3
	schedWorkers       = 2
	schedBatch         = 16
)

// campaignPlan is one campaign of the window.
type campaignPlan struct {
	name  string
	units int
}

func ingestPlan(o options) []campaignPlan {
	var plan []campaignPlan
	for c := 0; c < campaignsPerSecond*o.seconds; c++ {
		plan = append(plan, campaignPlan{fmt.Sprintf("bench-%d", c), scaled(campaignUnits, o.scale, 16)})
	}
	return plan
}

type ingestTopo struct {
	dir      string
	primary  *kdb.DB
	fdb      *kdb.DB
	follower *repl.Follower
	store    *schema.Store
	closers  []func()
}

func (t *ingestTopo) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	os.RemoveAll(t.dir)
}

// setupIngest starts a file-backed primary behind a kdb.Server with one
// file-backed streaming follower, opens the store over the wire, and runs
// a small warm-up campaign through the whole path.
func setupIngest(o options, tr *tracer) (t *ingestTopo, err error) {
	tmp, err := workDir("tmp")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "ingest-")
	if err != nil {
		return nil, err
	}
	t = &ingestTopo{dir: dir}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if t.primary, err = kdb.Open(filepath.Join(dir, "primary.db")); err != nil {
		return nil, err
	}
	t.closers = append(t.closers, func() { t.primary.Close() })
	if t.fdb, err = kdb.Open(filepath.Join(dir, "follower.db")); err != nil {
		return nil, err
	}
	t.closers = append(t.closers, func() { t.fdb.Close() })
	srv := &kdb.Server{DB: t.primary}
	if tr != nil {
		srv.Backend = &tracedDB{DB: t.primary, seam: seam{t: tr, name: spEngine}}
	}
	lis, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, shutdownKDB(srv))
	t.follower = repl.NewFollower(t.fdb, lis.Addr().String(), repl.Options{})
	t.follower.Start(context.Background())
	t.closers = append(t.closers, t.follower.Stop)

	if tr == nil {
		t.store, err = schema.Open("kdb://" + lis.Addr().String())
	} else {
		var remote *kdb.Remote
		if remote, err = kdb.Dial(lis.Addr().String()); err == nil {
			t.store, err = schema.Wrap(&tracedRemote{Remote: remote, seam: seam{t: tr, name: spWire}})
		}
	}
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, func() { t.store.Close() })

	if _, _, err := t.runCampaign(warmPlan(o), o.seed, nil); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return t, nil
}

func warmPlan(o options) campaignPlan {
	return campaignPlan{name: "warm-up", units: scaled(ingestWarmUnits, o.scale, 20)}
}

// runCampaign runs one campaign and waits for the follower. It returns the
// campaign result and how long the follower took to catch up after
// Scheduler.Run returned.
func (t *ingestTopo) runCampaign(p campaignPlan, seed uint64, tr *tracer) (*campaign.Result, time.Duration, error) {
	gens, err := campaignGenerators(p.units)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		for i, g := range gens {
			gens[i] = tracedGen{Generator: g, t: tr}
		}
	}
	spec := campaign.FromGenerators(p.name, seed, gens)
	sched := &campaign.Scheduler{Store: t.store, Workers: schedWorkers, BatchSize: schedBatch}
	res, err := sched.Run(context.Background(), spec)
	if err != nil {
		return res, 0, err
	}
	ran := time.Now()
	if err := waitConverged(t.primary, t.fdb, 60*time.Second); err != nil {
		return res, 0, err
	}
	return res, time.Since(ran), nil
}

// sampleLag samples the follower's lag behind the primary from outside
// every 100 ms — reading two LSNs is the only load it adds — until the
// returned function is called, which reports the largest lag seen.
func sampleLag(t *ingestTopo) (stop func() int64) {
	var lagMax int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if lag := t.primary.LSN() - t.fdb.LSN(); lag > lagMax {
					lagMax = lag
				}
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		return lagMax
	}
}

// snapshotSHA streams a database's snapshot through sha256.
func snapshotSHA(db *kdb.DB) (string, error) {
	h := sha256.New()
	if _, err := db.WriteSnapshot(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func countRows(db *kdb.DB, table string) (int64, error) {
	row, err := db.QueryRow("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return 0, err
	}
	n, _ := row[0].(int64)
	return n, nil
}

func runIngest(o options) (*runResult, error) {
	r := newRunResult("ingest_served", o)
	var tr *tracer
	repeats := setupRepeats
	if o.trace {
		tr, repeats = newTracer(), 1
	}
	var topo *ingestTopo
	var setups []float64
	for i := 0; i < repeats; i++ {
		if topo != nil {
			topo.close()
		}
		start := time.Now()
		var err error
		if topo, err = setupIngest(o, tr); err != nil {
			return nil, fmt.Errorf("ingest_served: set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer topo.close()
	r.setN("setup_s", median(setups), len(setups), 0)

	plan := ingestPlan(o)
	r.Fingerprint.CorpusSHA256 = hashJSON(iorMPIIO, iorPOSIX, plan, warmPlan(o))
	var names []string
	for _, p := range plan {
		for i := 0; i < p.units && len(names) < 10000; i++ {
			names = append(names, fmt.Sprintf("%s/%s#%d", p.name, unitKind(i), i))
		}
	}
	r.Fingerprint.StreamSHA256 = hashJSON(names, schedWorkers, schedBatch)

	stopSampler := sampleLag(topo)

	r.set("host.calib_before_ms", calibrate())
	lsnBefore := topo.primary.LSN()
	before := readUsage()
	windowStart := time.Now()
	// Per campaign: units per second and its reciprocal, milliseconds of
	// wall per unit. A traced invocation records spans on every other
	// campaign and keeps the ones between as its untraced baseline.
	var rates, unitMS, converge, plainRates, tracedRates []float64
	var units, tracedUnits int64
	for c, p := range plan {
		traced := tr != nil && c%2 == 1
		if tr != nil {
			tr.on.Store(traced)
		}
		rootStart := tr.begin()
		start := time.Now()
		res, caught, err := topo.runCampaign(p, o.seed+uint64(c), tr)
		wall := time.Since(start)
		tr.finish(spRoot, rootStart, int64(c+1), 0)
		if err != nil {
			stopSampler()
			return nil, fmt.Errorf("ingest_served: campaign %s: %w", p.name, err)
		}
		r.Attempted += int64(len(res.Runs))
		r.Failed += int64(len(res.Runs) - res.OK)
		units += int64(res.OK)
		if traced {
			tracedUnits += int64(res.OK)
		}
		converge = append(converge, float64(caught)/1e6)
		if res.OK == 0 {
			continue
		}
		rate := float64(res.OK) / wall.Seconds()
		rates = append(rates, rate)
		unitMS = append(unitMS, 1e3/rate)
		if traced {
			tracedRates = append(tracedRates, rate)
		} else {
			plainRates = append(plainRates, rate)
		}
	}
	window := time.Since(windowStart)
	rss := peakRSSMB()
	after := readUsage()
	if tr != nil {
		tr.on.Store(false)
	}
	lagMax := stopSampler()
	r.set("host.calib_after_ms", calibrate())
	r.WindowS = window.Seconds()
	finalLSN := topo.primary.LSN()

	if !o.trace {
		r.setN("ops_per_s", median(rates), len(rates), 0)
		r.setN("op_p50_ms", median(unitMS), len(unitMS), 0)
		r.setTail("op_tail_ms", unitMS)
		r.set("peak_rss_mb", rss)
	}
	recordProcess(r, before, after, units)
	r.set("schema.stmts_per_unit", float64(finalLSN-lsnBefore)/float64(units))
	r.set("kdb.final_lsn", float64(finalLSN))
	r.set("repl.lag_lsn_max", float64(lagMax))
	r.setN("repl.converge_ms", median(converge), len(converge), 0)
	r.set("repl.resyncs", float64(topo.follower.Health().Resyncs))
	if d, ok := counterDelta(before, after, "kdb_wal_flushes_total"); ok {
		// Process-wide: the primary's log and the follower's.
		r.set("kdb.wal.flushes_per_unit", float64(d)/float64(units))
	}
	logPath := filepath.Join(topo.dir, "primary.db")
	if st, err := os.Stat(logPath); err == nil && finalLSN > 0 {
		r.set("kdb.wal.bytes_per_record", float64(st.Size())/float64(finalLSN))
	}
	if o.trace {
		if m := median(tracedRates); m > 0 {
			r.set("trace.overhead_frac", median(plainRates)/m-1)
		}
		if err := tracedIngest(r, tr, o, tracedUnits); err != nil {
			return nil, err
		}
	}

	// Correctness, after the window and after peak_rss_mb was read.
	all := append([]campaignPlan{warmPlan(o)}, plan...)
	r.check("every unit ok", r.Failed == 0, "%d of %d units not ok", r.Failed, r.Attempted)
	for _, want := range []struct {
		table string
		n     int64
	}{
		{"campaign_runs", countKinds(all, func(string) bool { return true })},
		{"performances", countKinds(all, func(k string) bool { return k != "io500" })},
		{"IOFHsRuns", countKinds(all, func(k string) bool { return k == "io500" })},
	} {
		got, err := countRows(topo.primary, want.table)
		r.check("row count "+want.table, err == nil && got == want.n, "got %d (err %v), spec says %d", got, err, want.n)
	}
	pSHA, perr := snapshotSHA(topo.primary)
	fSHA, ferr := snapshotSHA(topo.fdb)
	r.check("follower snapshot byte-equal to the primary's", perr == nil && ferr == nil && pSHA == fSHA,
		"primary %s (%v), follower %s (%v)", pSHA, perr, fSHA, ferr)
	// Restart durability, and the write path's slow operation: reopening
	// the store replays the whole log the window wrote.
	copyPath := filepath.Join(topo.dir, "copy.db")
	rSHA, reopens, err := reopenCopy(logPath, copyPath)
	r.check("reopened copy of the primary log yields the same snapshot", err == nil && rSHA == pSHA,
		"primary %s, reopened %s (%v)", pSHA, rSHA, err)
	if len(reopens) > 0 {
		r.setN("kdb.wal.reopen_ms", median(reopens), len(reopens), 0)
		if !o.trace {
			r.setN("slow_p50_ms", median(reopens), len(reopens), 0)
		}
	}
	r.finish()
	return r, nil
}

// countKinds counts the units of the given campaigns whose generator kind
// satisfies keep.
func countKinds(plan []campaignPlan, keep func(string) bool) int64 {
	var n int64
	for _, p := range plan {
		for i := 0; i < p.units; i++ {
			if keep(unitKind(i)) {
				n++
			}
		}
	}
	return n
}

// reopenCopy copies the finished log and replays the copy with kdb.Open
// reopenRepeats times, timing each; the first reopened database is also
// snapshotted. This is restart durability; crash durability needs fault
// injection and is not claimed.
func reopenCopy(src, dst string) (sha string, ms []float64, err error) {
	in, err := os.Open(src)
	if err != nil {
		return "", nil, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return "", nil, err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return "", nil, err
	}
	if err := out.Close(); err != nil {
		return "", nil, err
	}
	for i := 0; i < reopenRepeats; i++ {
		start := time.Now()
		db, err := kdb.Open(dst)
		if err != nil {
			return sha, ms, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
		if i == 0 {
			sha, err = snapshotSHA(db)
		}
		db.Close()
		if err != nil {
			return sha, ms, err
		}
	}
	return sha, ms, nil
}

// tracedIngest derives ingest_served's span metrics over the units of
// the traced campaigns, and the embedded floor. Persistence is one-in-flight on the scheduler's collector, so the
// wire spans tile each campaign's root without overlapping.
func tracedIngest(r *runResult, tr *tracer, o options, units int64) error {
	spans := tr.spans
	link(spans)
	self := selfTimes(spans)

	wire := dursOf(spans, spWire)
	r.setN("kdb.wire.roundtrip_p50_ms", median(wire), len(wire), 0)
	r.setTail("kdb.wire.roundtrip_p99_ms", wire)
	r.set("kdb.wire.self_p50_ms", median(selfOf(spans, self, spWire)))
	r.set("kdb.wire.roundtrips_per_op", float64(len(wire))/float64(units))
	var execs []float64
	for _, s := range spans {
		if s.Name == spEngine && s.N < 0 {
			execs = append(execs, float64(s.dur())/1e6)
		}
	}
	r.setN("kdb.engine.exec_p50_ms", median(execs), len(execs), 0)
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	r.set("core.generate_ms_per_unit", sum(dursOf(spans, spGen))/float64(units))
	r.set("campaign.persist_ms_per_unit", sum(wire)/float64(units))

	r.setChain(chain(spans, spRoot))

	// The no-wire, no-WAL floor: the same spec into an embedded store.
	floor := scaled(2000, o.scale, 20) / 10 * 10
	gens, err := campaignGenerators(floor)
	if err != nil {
		return err
	}
	mem, err := schema.Open("")
	if err != nil {
		return err
	}
	defer mem.Close()
	start := time.Now()
	res, err := (&campaign.Scheduler{Store: mem, Workers: schedWorkers, BatchSize: schedBatch}).Run(
		context.Background(), campaign.FromGenerators("floor", o.seed, gens))
	if err != nil {
		return fmt.Errorf("embedded floor campaign: %w", err)
	}
	r.set("campaign.embedded_units_per_s", float64(res.OK)/time.Since(start).Seconds())
	return dumpSpans(r, spans)
}
