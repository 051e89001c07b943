package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/knowledge"
	"repro/internal/rng"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Scheduler executes campaign specs over a bounded worker pool.
//
// Generation and extraction (the expensive, pure phases) run concurrently
// on the workers; persistence runs on the collector in strict unit order,
// one store batch per BatchSize units, so the resulting knowledge base
// does not depend on scheduling.
type Scheduler struct {
	// Store receives the extracted knowledge and the campaign metadata.
	Store *schema.Store
	// Workers bounds the pool; <= 0 means runtime.NumCPU().
	Workers int
	// MaxAttempts is the per-unit attempt budget (default 3). Retries
	// reuse the unit's seed: a flaky failure replays the identical run.
	MaxAttempts int
	// Backoff is the sleep before attempt 2, doubling per further attempt
	// (default 10ms). Cancellation interrupts the sleep.
	Backoff time.Duration
	// BatchSize is the number of units ingested per store batch
	// (default 16); 1 degenerates to per-unit ingestion.
	BatchSize int
	// BeforeAttempt, when set, runs before each generation attempt —
	// the fault-injection and flakiness hook for tests and experiments.
	BeforeAttempt func(u Unit, attempt int, m *cluster.Machine)
	// Metrics receives the scheduler's counters and histograms
	// (queue wait, retries, ingest batches, phase latencies). Nil means
	// the process-wide telemetry.Default registry.
	Metrics *telemetry.Registry
	// Trace, when valid, is the trace position to join: the campaign
	// records a "campaign NAME" hop under it, one "unit N" child per unit
	// with generation/extraction children, plus a persistence hop per
	// ingest batch. The scheduler never starts a trace of its own; with
	// the zero context it records no spans.
	Trace telemetry.TraceContext
	// SelfObserve closes the paper's cycle on the pipeline itself: after
	// the campaign finishes, its phase timings are serialized as a
	// telemetry artifact and persisted through the normal
	// extraction/persistence path, so the run's own behavior becomes
	// queryable knowledge (Result.TelemetryID).
	SelfObserve bool
}

// RunOutcome is the in-memory record of one executed unit, mirroring the
// campaign_runs row.
type RunOutcome struct {
	Unit      Unit
	Seed      uint64
	Status    string // "ok", "failed", "cancelled"
	Attempts  int
	Wall      time.Duration
	Err       error
	ObjectIDs []int64
	IO500IDs  []int64
}

// Result summarizes one executed campaign.
type Result struct {
	CampaignID int64
	Name       string
	Workers    int
	Wall       time.Duration
	Runs       []RunOutcome // unit order
	OK         int
	Failed     int
	Cancelled  int
	ObjectIDs  []int64
	IO500IDs   []int64
	// Timings are the campaign's phase timings in unit order: one
	// generation (and, when it got that far, extraction) timing per
	// attempt of each unit, and one persistence timing (Unit -1) per
	// ingest batch. SelfObserve persists exactly this list.
	Timings []telemetry.PhaseTiming
	// TelemetryID is the knowledge object holding Timings (0 unless the
	// scheduler ran with SelfObserve).
	TelemetryID int64
	// SlowTraceIDs are the knowledge objects holding the slowest traced
	// requests logged during the campaign (empty unless SelfObserve is set
	// and a slow-query threshold was active).
	SlowTraceIDs []int64
	// FinalLSN is the store's commit LSN after the campaign's last write,
	// when the backing connection exposes one (local kdb databases and
	// replication read routers do). Waiting for a replica to reach this
	// LSN guarantees it serves the whole campaign.
	FinalLSN int64
}

// outcome travels from a worker to the collector: the executed unit, its
// phase timings, and its extractions, not yet persisted.
type outcome struct {
	run     RunOutcome
	timings []telemetry.PhaseTiming
	exs     []*extract.Extraction
}

// Run executes the spec. Unit failures are recorded, not fatal: the
// returned error is non-nil only for infrastructure problems (persistence
// errors, an empty spec) or cancellation, in which case the partial Result
// is still returned with the remaining units marked "cancelled".
func (s *Scheduler) Run(ctx context.Context, spec *Spec) (*Result, error) {
	if s.Store == nil {
		return nil, fmt.Errorf("campaign: scheduler has no store")
	}
	if spec == nil || len(spec.Units) == 0 {
		return nil, fmt.Errorf("campaign: spec has no units")
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(spec.Units) {
		workers = len(spec.Units)
	}
	maxAttempts := s.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	backoff := s.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	batchSize := s.BatchSize
	if batchSize <= 0 {
		batchSize = 16
	}
	reg := extract.NewRegistry()
	met := s.Metrics
	if met == nil {
		met = telemetry.Default()
	}
	hop := telemetry.JoinHop(s.Trace, "campaign "+spec.Name)
	defer hop.End()
	trace := hop.Context()

	began := time.Now()
	campaignID, err := s.Store.CreateCampaign(spec.Name, spec.BaseSeed, workers, len(spec.Units), began)
	if err != nil {
		return nil, fmt.Errorf("campaign: create campaign record: %w", err)
	}

	jobs := make(chan Unit, len(spec.Units))
	for _, u := range spec.Units {
		jobs <- u
	}
	close(jobs)
	outcomes := make(chan outcome, len(spec.Units))
	activeWorkers := met.Gauge("campaign_active_workers")
	queueWait := met.Histogram("campaign_queue_wait_seconds")
	for w := 0; w < workers; w++ {
		go func() {
			activeWorkers.Add(1)
			defer activeWorkers.Add(-1)
			for u := range jobs {
				// Every unit is enqueued before the workers start, so
				// time-since-start is exactly its queue wait.
				queueWait.Observe(time.Since(began).Seconds())
				outcomes <- s.runUnit(ctx, u, spec.BaseSeed, maxAttempts, backoff, reg, met, trace)
			}
		}()
	}

	// Collector: reorder outcomes into unit order and ingest in batches.
	// Workers emit exactly one outcome per unit (cancelled units included),
	// so reading len(spec.Units) outcomes always terminates.
	res := &Result{CampaignID: campaignID, Name: spec.Name, Workers: workers,
		Runs: make([]RunOutcome, len(spec.Units))}
	buffered := make(map[int]outcome, len(spec.Units))
	var pending []outcome
	next := 0
	var persistErr error
	flush := func() {
		if persistErr != nil || len(pending) == 0 {
			return
		}
		span := telemetry.JoinHop(trace, "persistence")
		start := time.Now()
		met.Histogram("campaign_ingest_batch_units").Observe(float64(len(pending)))
		persistErr = s.ingest(pending, res)
		d := time.Since(start)
		met.Histogram("campaign_ingest_seconds").Observe(d.Seconds())
		res.Timings = append(res.Timings, endPhase(span,
			met.Histogram(telemetry.Label("cycle_phase_seconds", "phase", "persistence")), "persistence", -1, d))
		pending = pending[:0]
	}
	for range spec.Units {
		oc := <-outcomes
		buffered[oc.run.Unit.Index] = oc
		for {
			oc, ok := buffered[next]
			if !ok {
				break
			}
			delete(buffered, next)
			next++
			res.Runs[oc.run.Unit.Index] = oc.run
			res.Timings = append(res.Timings, oc.timings...)
			if oc.run.Status == "ok" {
				pending = append(pending, oc)
			}
			if len(pending) >= batchSize {
				flush()
			}
		}
	}
	flush()

	for i := range res.Runs {
		st := res.Runs[i].Status
		met.Counter(telemetry.Label("campaign_units_total", "status", st)).Inc()
		switch st {
		case "ok":
			res.OK++
		case "failed":
			res.Failed++
		case "cancelled":
			res.Cancelled++
		}
	}
	res.Wall = time.Since(began)

	status := "ok"
	switch {
	case persistErr != nil || res.Failed > 0:
		status = "failed"
	case res.Cancelled > 0:
		status = "cancelled"
	}
	if err := s.record(campaignID, status, began, res); err != nil && persistErr == nil {
		persistErr = err
	}
	if s.SelfObserve && persistErr == nil {
		persistErr = s.persistSelfObservation(spec.Name, began, reg, res)
	}
	res.FinalLSN = s.Store.DB.LSN()
	if persistErr != nil {
		return res, persistErr
	}
	if res.Cancelled > 0 {
		return res, context.Cause(ctx)
	}
	return res, nil
}

// maxSlowTraces bounds how many of a campaign's slow traces persist as
// knowledge: only the slowest few carry diagnostic weight.
const maxSlowTraces = 3

// persistSelfObservation closes the knowledge cycle on the campaign itself.
// The collected phase timings become a telemetry artifact, and the slowest
// requests the slow-query log captured while the campaign ran become trace
// artifacts (SQL and full span tree), so p99 forensics survive the run.
// Both go through the same extraction path as benchmark output. Everything
// is read before anything is written, and the objects — telemetry first,
// then the traces, slowest first — are persisted as one save: all of them,
// or on any failure none.
func (s *Scheduler) persistSelfObservation(name string, began time.Time, reg *extract.Registry, res *Result) error {
	var ours []telemetry.SlowQuery
	for _, q := range telemetry.Traces.SlowQueries() {
		if !q.Start.Before(began) {
			ours = append(ours, q)
		}
	}
	sort.Slice(ours, func(i, j int) bool { return ours[i].Seconds > ours[j].Seconds })
	if len(ours) > maxSlowTraces {
		ours = ours[:maxSlowTraces]
	}
	var objs []*knowledge.Object
	if len(res.Timings) > 0 {
		ex, err := reg.Extract(telemetry.Artifact(res.Name, res.Timings))
		if err != nil {
			return fmt.Errorf("campaign: extract self-telemetry: %w", err)
		}
		if ex.Object == nil {
			return fmt.Errorf("campaign: self-telemetry produced no knowledge object")
		}
		objs = append(objs, ex.Object)
	}
	withTelemetry := len(objs) == 1
	for _, q := range ours {
		spans := telemetry.Traces.Spans(q.TraceID)
		if len(spans) == 0 {
			continue
		}
		ex, err := reg.Extract(telemetry.TraceArtifact(name, q, spans))
		if err != nil {
			return fmt.Errorf("campaign: extract slow trace %s: %w", q.TraceID, err)
		}
		if ex.Object != nil {
			objs = append(objs, ex.Object)
		}
	}
	if len(objs) == 0 {
		return nil
	}
	ids, err := s.Store.SaveObjects(objs)
	if err != nil {
		return fmt.Errorf("campaign: persist self-observation: %w", err)
	}
	if withTelemetry {
		res.TelemetryID, ids = ids[0], ids[1:]
	}
	res.SlowTraceIDs = append(res.SlowTraceIDs, ids...)
	return nil
}

// runUnit executes one unit: derive its seed, then attempt generation and
// extraction up to maxAttempts times with exponential backoff. Every
// attempt gets a fresh machine model (cluster.FuchsCSC; the model is
// mutable — fault injection — so workers must not share one), so injected
// faults or accumulated state cannot leak between attempts (or units).
func (s *Scheduler) runUnit(ctx context.Context, u Unit, baseSeed uint64, maxAttempts int,
	backoff time.Duration, reg *extract.Registry,
	met *telemetry.Registry, trace telemetry.TraceContext) (out outcome) {
	run := RunOutcome{Unit: u, Seed: core.DeriveSeed(baseSeed, uint64(u.Index))}
	var span *telemetry.Hop
	if trace.Valid() { // an untraced campaign does not even format the name
		span = telemetry.JoinHop(trace, "unit "+strconv.Itoa(u.Index))
	}
	start := time.Now()
	var timings []telemetry.PhaseTiming
	// Stamp the returned copy: every return below copies run into out first.
	defer func() {
		out.run.Wall = time.Since(start)
		out.timings = timings
		span.EndAfter(out.run.Wall)
	}()
	genHist := met.Histogram(telemetry.Label("cycle_phase_seconds", "phase", "generation"))
	extHist := met.Histogram(telemetry.Label("cycle_phase_seconds", "phase", "extraction"))
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if ctx.Err() != nil {
			run.Status = "cancelled"
			return outcome{run: run}
		}
		if attempt > 1 {
			met.Counter("campaign_retries_total").Inc()
			// Deterministic seeded jitter: the delay stays a pure function
			// of (unit seed, attempt), so reruns reproduce it exactly while
			// workers that fail together stop retrying in lockstep.
			d := backoff << (attempt - 2)
			jit := rng.New(rng.Derive(run.Seed, uint64(attempt)))
			d += time.Duration(float64(d) * jit.Float64())
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				run.Status = "cancelled"
				return outcome{run: run}
			case <-t.C:
			}
		}
		run.Attempts = attempt
		m := cluster.FuchsCSC()
		if s.BeforeAttempt != nil {
			s.BeforeAttempt(u, attempt, m)
		}
		genHop := telemetry.JoinHop(span.Context(), "generation")
		genStart := time.Now()
		arts, err := u.Gen.Generate(&core.Context{Machine: m, Seed: run.Seed})
		timings = append(timings, endPhase(genHop, genHist, "generation", u.Index, time.Since(genStart)))
		if err == nil && len(arts) == 0 {
			err = fmt.Errorf("campaign: unit %q produced no artifacts", u.Name)
		}
		var exs []*extract.Extraction
		if err == nil {
			extHop := telemetry.JoinHop(span.Context(), "extraction")
			extStart := time.Now()
			exs, err = core.ExtractArtifacts(m, reg, arts)
			timings = append(timings, endPhase(extHop, extHist, "extraction", u.Index, time.Since(extStart)))
		}
		if err == nil {
			run.Status = "ok"
			run.Err = nil
			return outcome{run: run, exs: exs}
		}
		run.Err = err
	}
	run.Status = "failed"
	return outcome{run: run}
}

// endPhase books one measured phase duration everywhere it goes — the hop
// (nil when untraced) and the cycle_phase_seconds histogram — and returns
// it as the timing SelfObserve serialises, so each phase is timed once.
func endPhase(hop *telemetry.Hop, hist *telemetry.Histogram, phase string, unit int, d time.Duration) telemetry.PhaseTiming {
	hop.EndAfter(d)
	hist.Observe(d.Seconds())
	return telemetry.PhaseTiming{Phase: phase, Unit: unit, Seconds: d.Seconds()}
}

// ingest persists one batch of unit extractions in unit order. Objects
// and IO500 objects each go through the store's batched save (one lock,
// one log flush per kind), and the assigned ids are written back onto the
// outcomes' RunOutcome entries in res.Runs.
func (s *Scheduler) ingest(batch []outcome, res *Result) error {
	// On a sharded store the whole batch is pinned to the shard this key
	// hashes to: campaign and leading unit index, so one batch's object
	// graphs stay colocated while a campaign's successive batches spread
	// across shards. Single-node stores ignore the key.
	key := shard.HashString(fmt.Sprintf("%s/%d/%d", res.Name, res.CampaignID, batch[0].run.Unit.Index))
	var objs []*knowledge.Object
	var objRuns []int // res.Runs index per object, aligned with objs
	var io500s []*knowledge.IO500Object
	var io500Runs []int
	for _, oc := range batch {
		for _, ex := range oc.exs {
			switch {
			case ex.Object != nil:
				objs = append(objs, ex.Object)
				objRuns = append(objRuns, oc.run.Unit.Index)
			case ex.IO500 != nil:
				io500s = append(io500s, ex.IO500)
				io500Runs = append(io500Runs, oc.run.Unit.Index)
			}
		}
	}
	if len(objs) > 0 {
		ids, err := s.Store.SaveObjectsKeyed(key, objs)
		if err != nil {
			return fmt.Errorf("campaign: persist batch (unit %q): %w", res.Runs[objRuns[0]].Unit.Name, err)
		}
		for i, id := range ids {
			objs[i].ID = id
			r := &res.Runs[objRuns[i]]
			r.ObjectIDs = append(r.ObjectIDs, id)
			res.ObjectIDs = append(res.ObjectIDs, id)
		}
	}
	if len(io500s) > 0 {
		ids, err := s.Store.SaveIO500sKeyed(key, io500s)
		if err != nil {
			return fmt.Errorf("campaign: persist batch (unit %q): %w", res.Runs[io500Runs[0]].Unit.Name, err)
		}
		for i, id := range ids {
			io500s[i].ID = id
			r := &res.Runs[io500Runs[i]]
			r.IO500IDs = append(r.IO500IDs, id)
			res.IO500IDs = append(res.IO500IDs, id)
		}
	}
	return nil
}

// record finishes the campaign row and writes the per-unit rows.
func (s *Scheduler) record(campaignID int64, status string, began time.Time, res *Result) error {
	rows := make([]schema.CampaignRun, len(res.Runs))
	for i, r := range res.Runs {
		errText := ""
		if r.Err != nil {
			errText = r.Err.Error()
		}
		rows[i] = schema.CampaignRun{
			Unit:      int64(r.Unit.Index),
			Name:      r.Unit.Name,
			Seed:      r.Seed,
			Status:    r.Status,
			Attempts:  int64(r.Attempts),
			WallMS:    r.Wall.Milliseconds(),
			Error:     errText,
			ObjectIDs: r.ObjectIDs,
			IO500IDs:  r.IO500IDs,
		}
	}
	if err := s.Store.AddCampaignRuns(campaignID, rows); err != nil {
		return fmt.Errorf("campaign: record runs: %w", err)
	}
	if err := s.Store.FinishCampaign(campaignID, status, began.Add(res.Wall), res.Wall.Milliseconds()); err != nil {
		return fmt.Errorf("campaign: finish campaign record: %w", err)
	}
	return nil
}
