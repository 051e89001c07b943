package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// fig5Request is the paper's Example-I IOR phase: 80 ranks on 4 nodes,
// -a mpiio -b 4m -t 2m -s 40 -F -C -e.
func fig5Request(op Op) IORequest {
	return IORequest{
		Op:           op,
		API:          MPIIO,
		Tasks:        80,
		TasksPerNode: 20,
		TransferSize: 2 * units.MiB,
		BlockSize:    4 * units.MiB,
		Segments:     40,
		FilePerProc:  true,
		Fsync:        true,
		ReorderTasks: true,
		CacheHot:     true,
	}
}

func TestFig5WriteCalibration(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(7)
	var sum float64
	const n = 30
	for i := 0; i < n; i++ {
		res, err := m.Simulate(fig5Request(Write), src)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.BandwidthMiBps
	}
	mean := sum / n
	// The paper reports ~2850 MiB/s average write throughput. The model
	// must land in the same regime (±15%).
	if mean < 2850*0.85 || mean > 2850*1.15 {
		t.Errorf("mean write bandwidth = %.0f MiB/s, want ~2850", mean)
	}
}

func TestReadFasterThanWriteAndStable(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(11)
	var writes, reads []float64
	for i := 0; i < 20; i++ {
		w, err := m.Simulate(fig5Request(Write), src)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Simulate(fig5Request(Read), src)
		if err != nil {
			t.Fatal(err)
		}
		writes = append(writes, w.BandwidthMiBps)
		reads = append(reads, r.BandwidthMiBps)
	}
	mw := mean(writes)
	mr := mean(reads)
	if mr <= mw {
		t.Errorf("read mean %.0f should exceed write mean %.0f", mr, mw)
	}
	if cv(reads) >= cv(writes) {
		t.Errorf("read CV %.4f should be below write CV %.4f (paper: reads stable, writes noisy)", cv(reads), cv(writes))
	}
}

func TestWriteCongestionAnomaly(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(3)
	base, err := m.Simulate(fig5Request(Write), src)
	if err != nil {
		t.Fatal(err)
	}
	m.WriteCongestion = 0.44
	slow, err := m.Simulate(fig5Request(Write), src)
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow.BandwidthMiBps / base.BandwidthMiBps
	// Paper: iteration 2 at 1251 vs 2850 average => ratio ~0.44.
	if ratio < 0.3 || ratio > 0.6 {
		t.Errorf("congested/normal ratio = %.2f, want ~0.44", ratio)
	}
	m.ClearFaults()
	rec, err := m.Simulate(fig5Request(Write), src)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BandwidthMiBps < base.BandwidthMiBps*0.8 {
		t.Errorf("ClearFaults did not restore bandwidth: %v vs %v", rec.BandwidthMiBps, base.BandwidthMiBps)
	}
}

func TestDegradedNodeGatesPhase(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(5)
	base, _ := m.Simulate(fig5Request(Read), src)
	m.SetNodeFactor(2, 1, 0.5)
	if m.Nodes[1].State != Degraded {
		t.Error("node 2 should be Degraded")
	}
	slow, _ := m.Simulate(fig5Request(Read), src)
	ratio := slow.BandwidthMiBps / base.BandwidthMiBps
	if ratio > 0.65 || ratio < 0.35 {
		t.Errorf("degraded-node read ratio = %.2f, want ~0.5", ratio)
	}
	// Node 5 is outside the 4-node allocation; degrading it is harmless.
	m.ClearFaults()
	m.SetNodeFactor(5, 0.1, 0.1)
	unaffected, _ := m.Simulate(fig5Request(Read), src)
	if unaffected.BandwidthMiBps < base.BandwidthMiBps*0.8 {
		t.Errorf("degrading an unused node changed bandwidth: %v vs %v", unaffected.BandwidthMiBps, base.BandwidthMiBps)
	}
}

func TestDownNodeFails(t *testing.T) {
	m := SmallTest()
	m.Nodes[0].State = Down
	_, err := m.Simulate(fig5Request(Write), rng.New(1))
	if err == nil || !strings.Contains(err.Error(), "down") {
		t.Errorf("want down-node error, got %v", err)
	}
}

func TestValidate(t *testing.T) {
	m := SmallTest()
	bad := []IORequest{
		{},
		{Tasks: -1, TransferSize: 1, BlockSize: 1, Segments: 1},
		{Tasks: 1, TransferSize: 0, BlockSize: 1, Segments: 1},
		{Tasks: 1, TransferSize: 2, BlockSize: 3, Segments: 1},
		{Tasks: 1, TransferSize: 1, BlockSize: 1, Segments: 0},
		{Tasks: 1000, TasksPerNode: 1, TransferSize: 1, BlockSize: 1, Segments: 1},
	}
	for i, r := range bad {
		if err := r.Validate(m); err == nil {
			t.Errorf("case %d: want validation error for %+v", i, r)
		}
		if _, err := m.Simulate(r, rng.New(1)); err == nil {
			t.Errorf("case %d: Simulate accepted invalid request", i)
		}
	}
	good := fig5Request(Write)
	if err := good.Validate(m); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func TestSmallTransfersSlower(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(9)
	big := fig5Request(Write)
	small := fig5Request(Write)
	small.TransferSize = 64 * units.KiB
	rb, _ := m.Simulate(big, src)
	rs, _ := m.Simulate(small, src)
	if rs.BandwidthMiBps >= rb.BandwidthMiBps {
		t.Errorf("64k transfers (%.0f) should be slower than 2m (%.0f)", rs.BandwidthMiBps, rb.BandwidthMiBps)
	}
}

func TestCollectiveHelpsSmallTransfers(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(13)
	small := fig5Request(Write)
	small.TransferSize = 16 * units.KiB
	small.API = MPIIO
	indep, _ := m.Simulate(small, src)
	small.Collective = true
	coll, _ := m.Simulate(small, src)
	if coll.BandwidthMiBps <= indep.BandwidthMiBps {
		t.Errorf("collective (%.0f) should beat independent (%.0f) for 16k transfers", coll.BandwidthMiBps, indep.BandwidthMiBps)
	}
}

func TestCacheHotReadBoost(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(17)
	r := fig5Request(Read)
	r.ReorderTasks = false // no -C: cached read-back
	hot, _ := m.Simulate(r, src)
	r.ReorderTasks = true
	cold, _ := m.Simulate(r, src)
	if hot.BandwidthMiBps < cold.BandwidthMiBps*1.5 {
		t.Errorf("cache-hot read %.0f should far exceed reordered read %.0f", hot.BandwidthMiBps, cold.BandwidthMiBps)
	}
}

func TestScalingSaturatesAtPFS(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(21)
	var prev float64
	saturated := false
	for _, nodes := range []int{4, 8, 16, 32, 64, 128} {
		r := fig5Request(Read)
		r.Tasks = nodes * 20
		r.ReorderTasks = true
		res, err := m.Simulate(r, src)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && res.BandwidthMiBps < prev*1.15 {
			saturated = true
		}
		prev = res.BandwidthMiBps
	}
	if !saturated {
		t.Error("read bandwidth never saturated at the PFS aggregate limit")
	}
	agg := m.FS.AggregateReadMiBps(0)
	if prev > agg*1.1 {
		t.Errorf("bandwidth %.0f exceeds PFS aggregate %.0f", prev, agg)
	}
}

func TestTimingDecomposition(t *testing.T) {
	m := FuchsCSC()
	res, err := m.Simulate(fig5Request(Write), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSec <= 0 || res.OpenSec <= 0 || res.CloseSec <= 0 || res.WrRdSec <= 0 {
		t.Errorf("non-positive timing: %+v", res)
	}
	sum := res.OpenSec + res.WrRdSec + res.CloseSec
	if math.Abs(sum-res.TotalSec) > 1e-9 {
		t.Errorf("timings do not add up: %v vs %v", sum, res.TotalSec)
	}
	wantOps := int64(80) * 40 * 2 // tasks × segments × (block/transfer)
	if res.TotalOps != wantOps {
		t.Errorf("TotalOps = %d, want %d", res.TotalOps, wantOps)
	}
	if res.BytesMoved != int64(80)*40*4*units.MiB {
		t.Errorf("BytesMoved = %d", res.BytesMoved)
	}
	if res.LatencySec <= 0 {
		t.Error("latency must be positive")
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	m1, m2 := FuchsCSC(), FuchsCSC()
	r1, _ := m1.Simulate(fig5Request(Write), rng.New(42))
	r2, _ := m2.Simulate(fig5Request(Write), rng.New(42))
	if r1 != r2 {
		t.Errorf("same seed produced different results:\n%+v\n%+v", r1, r2)
	}
}

func TestSimulateMeta(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(4)
	easy, err := m.SimulateMeta(MetaRequest{Kind: MetaCreate, Tasks: 40, ItemsPerTask: 1000}, src)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := m.SimulateMeta(MetaRequest{Kind: MetaCreate, Tasks: 40, ItemsPerTask: 1000, SharedDir: true, WriteBytes: 3901}, src)
	if err != nil {
		t.Fatal(err)
	}
	if hard.OpsPerSec >= easy.OpsPerSec {
		t.Errorf("mdtest-hard create (%.0f op/s) should be slower than easy (%.0f op/s)", hard.OpsPerSec, easy.OpsPerSec)
	}
	if easy.TotalOps != 40000 {
		t.Errorf("TotalOps = %d", easy.TotalOps)
	}
	stat, _ := m.SimulateMeta(MetaRequest{Kind: MetaStat, Tasks: 40, ItemsPerTask: 1000}, src)
	if stat.OpsPerSec <= easy.OpsPerSec {
		t.Errorf("stat (%.0f) should outpace create (%.0f)", stat.OpsPerSec, easy.OpsPerSec)
	}
	if _, err := m.SimulateMeta(MetaRequest{Kind: MetaCreate, Tasks: 0, ItemsPerTask: 5}, src); err == nil {
		t.Error("want error for zero tasks")
	}
	if _, err := m.SimulateMeta(MetaRequest{Kind: MetaCreate, Tasks: 5, ItemsPerTask: 0}, src); err == nil {
		t.Error("want error for zero items")
	}
}

func TestMachineInventory(t *testing.T) {
	m := FuchsCSC()
	if len(m.Nodes) != 198 || m.CoresPerNode != 20 {
		t.Errorf("machine shape: %d nodes × %d cores", len(m.Nodes), m.CoresPerNode)
	}
	if m.TotalCores() != 3960 {
		t.Errorf("TotalCores = %d, want 3960", m.TotalCores())
	}
	if !strings.Contains(m.CPUModel, "E5-2670 v2") {
		t.Errorf("CPU model = %q", m.CPUModel)
	}
}

func TestNodeStateString(t *testing.T) {
	if Healthy.String() != "healthy" || Degraded.String() != "degraded" || Down.String() != "down" {
		t.Error("NodeState strings wrong")
	}
	if NodeState(99).String() == "" {
		t.Error("unknown state should still render")
	}
	if Write.String() != "write" || Read.String() != "read" {
		t.Error("Op strings wrong")
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func cv(xs []float64) float64 {
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}

func TestRandomOffsetsSlower(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(31)
	seq := fig5Request(Read)
	rnd := fig5Request(Read)
	rnd.RandomOffsets = true
	rs, _ := m.Simulate(seq, src)
	rr, _ := m.Simulate(rnd, src)
	if rr.BandwidthMiBps >= rs.BandwidthMiBps*0.8 {
		t.Errorf("random reads (%.0f) should be well below sequential (%.0f)", rr.BandwidthMiBps, rs.BandwidthMiBps)
	}
	// Writes suffer less than reads.
	seqW := fig5Request(Write)
	rndW := fig5Request(Write)
	rndW.RandomOffsets = true
	ws, _ := m.Simulate(seqW, src)
	wr, _ := m.Simulate(rndW, src)
	readRatio := rr.BandwidthMiBps / rs.BandwidthMiBps
	writeRatio := wr.BandwidthMiBps / ws.BandwidthMiBps
	if writeRatio <= readRatio {
		t.Errorf("random writes (ratio %.2f) should suffer less than reads (ratio %.2f)", writeRatio, readRatio)
	}
}

func TestDirectIODefeatsCache(t *testing.T) {
	m := FuchsCSC()
	src := rng.New(33)
	cached := fig5Request(Read)
	cached.ReorderTasks = false // cache-hot read-back
	direct := cached
	direct.DirectIO = true
	rc, _ := m.Simulate(cached, src)
	rd, _ := m.Simulate(direct, src)
	if rd.BandwidthMiBps >= rc.BandwidthMiBps*0.5 {
		t.Errorf("O_DIRECT read (%.0f) should lose the cache boost (%.0f)", rd.BandwidthMiBps, rc.BandwidthMiBps)
	}
}

// BenchmarkFuchsCSC is the machine every generated unit builds. Before the
// node slice was preallocated: 20,802 B/op in 21 allocations, nine of them
// the slice regrown; after: 10,977 B/op in 13.
func BenchmarkFuchsCSC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := FuchsCSC(); len(m.Nodes) != 198 {
			b.Fatal("wrong machine")
		}
	}
}
