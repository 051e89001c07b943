package campaign

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ior"
	"repro/internal/kdb"
	"repro/internal/schema"
)

func iorGen(t *testing.T, cmd string) core.Generator {
	t.Helper()
	cfg, err := ior.ParseCommandLine(cmd)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumTasks = 40
	cfg.TasksPerNode = 20
	return core.IORGenerator{Config: cfg}
}

func sweepSpec(t *testing.T) *Spec {
	t.Helper()
	var gens []core.Generator
	for _, ts := range []string{"256k", "1m", "4m"} {
		gens = append(gens, iorGen(t, "ior -a mpiio -b 4m -t "+ts+" -s 4 -F -C -i 2 -o /scratch/sweep"))
	}
	gens = append(gens, CommandGenerator{Label: "io500", Commands: []string{"io500 --tasks 40 --tasks-per-node 20"}})
	return FromGenerators("sweep", 42, gens)
}

// dumpKnowledge renders every knowledge table (campaign metadata excluded:
// it records wall times, which legitimately vary) as a deterministic string.
func dumpKnowledge(t *testing.T, st *schema.Store) string {
	t.Helper()
	db, ok := st.DB.(*kdb.DB)
	if !ok {
		t.Fatal("store is not backed by a local kdb.DB")
	}
	var sb strings.Builder
	for _, table := range db.Tables() {
		if table == "campaigns" || table == "campaign_runs" {
			continue
		}
		rows, err := db.Query("SELECT * FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "== %s ==\n", table)
		for _, row := range rows.All() {
			fmt.Fprintf(&sb, "%v\n", row)
		}
	}
	return sb.String()
}

func runSpec(t *testing.T, spec *Spec, workers, batch int) (*Result, *schema.Store) {
	t.Helper()
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := &Scheduler{Store: st, Workers: workers, BatchSize: batch}
	res, err := s.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	res1, st1 := runSpec(t, sweepSpec(t), 1, 2)
	res8, st8 := runSpec(t, sweepSpec(t), 8, 2)
	if res1.OK != 4 || res8.OK != 4 {
		t.Fatalf("ok counts = %d, %d, want 4", res1.OK, res8.OK)
	}
	d1, d8 := dumpKnowledge(t, st1), dumpKnowledge(t, st8)
	if d1 != d8 {
		t.Errorf("knowledge differs between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", d1, d8)
	}
	// Per-unit seeds are pure functions of (base seed, unit index).
	for i, r := range res8.Runs {
		if want := core.DeriveSeed(42, uint64(i)); r.Seed != want {
			t.Errorf("unit %d seed = %d, want %d", i, r.Seed, want)
		}
	}
}

func TestCampaignBatchSizeDoesNotChangeKnowledge(t *testing.T) {
	_, stPer := runSpec(t, sweepSpec(t), 4, 1)
	_, stBatch := runSpec(t, sweepSpec(t), 4, 100)
	if dumpKnowledge(t, stPer) != dumpKnowledge(t, stBatch) {
		t.Error("knowledge differs between per-unit and single-batch ingestion")
	}
}

func TestCampaignRecordsMetadata(t *testing.T) {
	res, st := runSpec(t, sweepSpec(t), 2, 2)
	meta, runs, err := st.LoadCampaign(res.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != "ok" || meta.Units != 4 || meta.Workers != 2 || meta.BaseSeed != 42 {
		t.Errorf("meta = %+v", meta)
	}
	if len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
	for i, r := range runs {
		if r.Status != "ok" || r.Attempts != 1 {
			t.Errorf("run %d = %+v", i, r)
		}
		if len(r.ObjectIDs)+len(r.IO500IDs) == 0 {
			t.Errorf("run %d persisted no knowledge ids", i)
		}
	}
	// Unit 3 is the io500 command generator.
	if len(runs[3].IO500IDs) != 1 {
		t.Errorf("io500 unit ids = %+v", runs[3])
	}
}

// flakyGenerator fails the first failures attempts of each campaign run.
type flakyGenerator struct {
	inner    core.Generator
	failures int
	mu       sync.Mutex
	calls    map[uint64]int // per-seed attempt counter
}

func (g *flakyGenerator) Name() string { return "flaky" }

func (g *flakyGenerator) Generate(ctx *core.Context) ([]core.Artifact, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[uint64]int{}
	}
	g.calls[ctx.Seed]++
	n := g.calls[ctx.Seed]
	g.mu.Unlock()
	if n <= g.failures {
		return nil, fmt.Errorf("transient failure %d", n)
	}
	return g.inner.Generate(ctx)
}

func TestCampaignRetriesTransientFailures(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	gen := &flakyGenerator{inner: iorGen(t, "ior -a posix -b 1m -t 256k -s 2 -i 1 -o /scratch/f"), failures: 2}
	s := &Scheduler{Store: st, Workers: 2, MaxAttempts: 3, Backoff: time.Millisecond}
	res, err := s.Run(context.Background(), FromGenerators("flaky", 7, []core.Generator{gen, gen}))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 2 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	for _, r := range res.Runs {
		if r.Attempts != 3 {
			t.Errorf("unit %d attempts = %d, want 3", r.Unit.Index, r.Attempts)
		}
	}
}

// TestCampaignRecordsUnitWall: every finished unit — ok, retried or
// failed — reports its wall time, and campaign_runs.wall_ms persists it.
func TestCampaignRecordsUnitWall(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	good := iorGen(t, "ior -a posix -b 1m -t 256k -s 2 -i 1 -o /scratch/w")
	retried := &flakyGenerator{inner: good, failures: 2}
	failing := &flakyGenerator{failures: 1 << 30}
	s := &Scheduler{Store: st, Workers: 2, MaxAttempts: 3, Backoff: 2 * time.Millisecond}
	res, err := s.Run(context.Background(), FromGenerators("walls", 7, []core.Generator{good, retried, failing}))
	if err != nil {
		t.Fatal(err)
	}
	_, runs, err := st.LoadCampaign(res.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(res.Runs) {
		t.Fatalf("persisted %d runs, want %d", len(runs), len(res.Runs))
	}
	for i, r := range res.Runs {
		if r.Wall <= 0 {
			t.Errorf("unit %d (%s): Wall = %v, want > 0", i, r.Status, r.Wall)
		}
		if runs[i].WallMS != r.Wall.Milliseconds() {
			t.Errorf("unit %d: persisted wall_ms = %d, want %d", i, runs[i].WallMS, r.Wall.Milliseconds())
		}
	}
	// Two backoffs of at least 2 ms and 4 ms sit inside a thrice-tried unit.
	for _, i := range []int{1, 2} {
		if runs[i].WallMS < 6 {
			t.Errorf("unit %d waited through two backoffs but wall_ms = %d", i, runs[i].WallMS)
		}
	}
}

func TestCampaignRecordsExhaustedFailure(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	gen := &flakyGenerator{inner: nil, failures: 1 << 30}
	good := iorGen(t, "ior -a posix -b 1m -t 256k -s 2 -i 1 -o /scratch/g")
	s := &Scheduler{Store: st, Workers: 2, MaxAttempts: 2, Backoff: time.Millisecond}
	res, err := s.Run(context.Background(), FromGenerators("partial", 7, []core.Generator{good, gen}))
	if err != nil {
		t.Fatal(err) // unit failures are recorded, not fatal
	}
	if res.OK != 1 || res.Failed != 1 {
		t.Fatalf("result ok=%d failed=%d", res.OK, res.Failed)
	}
	bad := res.Runs[1]
	if bad.Status != "failed" || bad.Attempts != 2 || bad.Err == nil {
		t.Errorf("failed run = %+v", bad)
	}
	meta, runs, err := st.LoadCampaign(res.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != "failed" {
		t.Errorf("campaign status = %q", meta.Status)
	}
	if runs[1].Status != "failed" || !strings.Contains(runs[1].Error, "transient failure") {
		t.Errorf("persisted failed run = %+v", runs[1])
	}
	// The good unit's knowledge still landed.
	if len(runs[0].ObjectIDs) != 1 {
		t.Errorf("good run ids = %+v", runs[0])
	}
}

func TestCampaignCancellation(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var gens []core.Generator
	for i := 0; i < 16; i++ {
		gens = append(gens, iorGen(t, "ior -a posix -b 1m -t 256k -s 2 -i 1 -o /scratch/c"))
	}
	s := &Scheduler{
		Store:   st,
		Workers: 1, // serial, so cancelling during unit 1 leaves units 2..15 unstarted
		BeforeAttempt: func(u Unit, attempt int, _ *cluster.Machine) {
			if u.Index == 1 {
				cancel()
			}
		},
	}
	res, err := s.Run(ctx, FromGenerators("cancelled", 3, gens))
	if err == nil {
		t.Fatal("cancelled campaign must return an error")
	}
	if res == nil {
		t.Fatal("cancelled campaign must still return its partial result")
	}
	// Units 0 and 1 were already past the cancellation check; the rest
	// must be marked cancelled without running.
	if res.OK != 2 || res.Cancelled != 14 || res.Failed != 0 {
		t.Fatalf("result ok=%d cancelled=%d failed=%d", res.OK, res.Cancelled, res.Failed)
	}
	meta, runs, err := st.LoadCampaign(res.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != "cancelled" {
		t.Errorf("campaign status = %q", meta.Status)
	}
	// Completed units persisted their knowledge despite the cancellation.
	if len(runs[0].ObjectIDs) != 1 || runs[15].Status != "cancelled" {
		t.Errorf("runs[0] = %+v, runs[15] = %+v", runs[0], runs[15])
	}
}

func TestFromJUBEExpansion(t *testing.T) {
	xml := `<jube>
  <benchmark name="sweep" outpath="bench_runs">
    <parameterset name="p">
      <parameter name="transfersize">256k,1m</parameter>
      <parameter name="tasks">20,40,80</parameter>
    </parameterset>
    <step name="run">
      <use>p</use>
      <do>ior -a mpiio -b 4m -t $transfersize -s 4 -N $tasks -F -C -i 2 -o /scratch/sweep</do>
    </step>
  </benchmark>
</jube>`
	spec, err := FromJUBE("jube-sweep", 11, xml)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Units) != 6 {
		t.Fatalf("units = %d, want 2x3 cartesian product", len(spec.Units))
	}
	for i, u := range spec.Units {
		if u.Index != i {
			t.Errorf("unit %d has index %d", i, u.Index)
		}
		cg, ok := u.Gen.(CommandGenerator)
		if !ok {
			t.Fatalf("unit %d generator = %T", i, u.Gen)
		}
		if strings.Contains(cg.Commands[0], "$") {
			t.Errorf("unit %d command not fully substituted: %q", i, cg.Commands[0])
		}
	}
	if !strings.Contains(spec.Units[0].Name, "transfersize=256k") {
		t.Errorf("unit name = %q", spec.Units[0].Name)
	}
	// The expansion itself is deterministic: same config, same units.
	again, err := FromJUBE("jube-sweep", 11, xml)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Units {
		if spec.Units[i].Name != again.Units[i].Name {
			t.Errorf("expansion order unstable at unit %d", i)
		}
	}

	if _, err := FromJUBE("bad", 0, `<jube></jube>`); err == nil {
		t.Error("empty config must fail")
	}
}

func TestCampaignRunThroughJUBESpec(t *testing.T) {
	xml := `<jube>
  <benchmark name="sweep" outpath="bench_runs">
    <parameterset name="p">
      <parameter name="transfersize">256k,1m</parameter>
    </parameterset>
    <step name="run">
      <use>p</use>
      <do>ior -a mpiio -b 2m -t $transfersize -s 2 -F -C -i 2 -o /scratch/sweep</do>
    </step>
  </benchmark>
</jube>`
	spec, err := FromJUBE("jube-sweep", 11, xml)
	if err != nil {
		t.Fatal(err)
	}
	res, st := runSpec(t, spec, 2, 2)
	if res.OK != 2 || len(res.ObjectIDs) != 2 {
		t.Fatalf("result = %+v", res)
	}
	a, err := st.LoadObject(res.ObjectIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.LoadObject(res.ObjectIDs[1])
	if err != nil {
		t.Fatal(err)
	}
	if a.Command == b.Command {
		t.Errorf("sweep produced identical commands: %q", a.Command)
	}
}
