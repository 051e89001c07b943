package ior

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/units"
)

// paperCommand is the exact invocation from the paper's Example I (with
// en-dashes as they appear in the PDF text).
const paperCommand = "ior –a mpiio –b 4m –t 2m –s 40 –F –C –e –i 6 –o /scratch/fuchs/zhuz/test80 –k"

func TestParsePaperCommand(t *testing.T) {
	cfg, err := ParseCommandLine(paperCommand)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.API != cluster.MPIIO {
		t.Errorf("API = %v", cfg.API)
	}
	if cfg.BlockSize != 4*units.MiB || cfg.TransferSize != 2*units.MiB {
		t.Errorf("sizes = %d/%d", cfg.BlockSize, cfg.TransferSize)
	}
	if cfg.Segments != 40 || cfg.Repetitions != 6 {
		t.Errorf("segments/reps = %d/%d", cfg.Segments, cfg.Repetitions)
	}
	if !cfg.FilePerProc || !cfg.ReorderTasks || !cfg.Fsync || !cfg.KeepFile {
		t.Errorf("flags: %+v", cfg)
	}
	if cfg.TestFile != "/scratch/fuchs/zhuz/test80" {
		t.Errorf("test file = %q", cfg.TestFile)
	}
	// No -w/-r: both operations run.
	if !cfg.WriteFile || !cfg.ReadFile {
		t.Error("both write and read should be enabled")
	}
}

func TestParseArgsErrors(t *testing.T) {
	bad := [][]string{
		{"-a"},
		{"-a", "pvfs"},
		{"-b", "xx"},
		{"-t"},
		{"-s", "abc"},
		{"-i", "0"},
		{"-q"},
		{"-b", "3m", "-t", "2m"}, // not a multiple
		{"-N", "nope"},
	}
	for _, args := range bad {
		if _, err := ParseArgs(args); err == nil {
			t.Errorf("ParseArgs(%v) should fail", args)
		}
	}
}

func TestParseArgsWriteOnly(t *testing.T) {
	cfg, err := ParseArgs([]string{"-w", "-o", "f"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.WriteFile || cfg.ReadFile {
		t.Errorf("want write-only, got %+v", cfg)
	}
	cfg, err = ParseArgs([]string{"-r", "-o", "f"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WriteFile || !cfg.ReadFile {
		t.Errorf("want read-only, got %+v", cfg)
	}
}

func TestCommandLineRoundTrip(t *testing.T) {
	orig, err := ParseCommandLine(paperCommand)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseCommandLine(orig.CommandLine())
	if err != nil {
		t.Fatalf("re-parse %q: %v", orig.CommandLine(), err)
	}
	if orig != again {
		t.Errorf("round trip changed config:\n%+v\n%+v", orig, again)
	}
}

// Property: CommandLine/ParseCommandLine round-trips across a generated
// space of configurations.
func TestCommandLineRoundTripProperty(t *testing.T) {
	f := func(bExp, tExp uint8, segs, reps uint8, fpp, reorder, fsync, coll bool) bool {
		b := int64(1) << (20 + bExp%4)         // 1..8 MiB
		xfer := int64(1) << (18 + int(tExp%3)) // 256k..1m
		if b%xfer != 0 {
			return true
		}
		cfg := Default()
		cfg.API = cluster.MPIIO
		cfg.BlockSize = b
		cfg.TransferSize = xfer
		cfg.Segments = int(segs%40) + 1
		cfg.Repetitions = int(reps%10) + 1
		cfg.FilePerProc = fpp
		cfg.ReorderTasks = reorder
		cfg.Fsync = fsync
		cfg.Collective = coll
		cfg.WriteFile, cfg.ReadFile = true, true
		got, err := ParseCommandLine(cfg.CommandLine())
		return err == nil && got == cfg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func paperRunner(seed uint64) (*Runner, Config) {
	cfg, _ := ParseCommandLine(paperCommand)
	cfg.NumTasks = 80
	cfg.TasksPerNode = 20
	return &Runner{Machine: cluster.FuchsCSC(), Seed: seed}, cfg
}

func TestRunProducesAllIterations(t *testing.T) {
	r, cfg := paperRunner(1)
	run, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 12 { // 6 iterations × (write+read)
		t.Fatalf("results = %d, want 12", len(run.Results))
	}
	if run.Nodes != 4 || run.Tasks != 80 || run.TPN != 20 {
		t.Errorf("placement: %d nodes, %d tasks, %d tpn", run.Nodes, run.Tasks, run.TPN)
	}
	if len(run.Bandwidths(cluster.Write)) != 6 || len(run.Bandwidths(cluster.Read)) != 6 {
		t.Error("per-op series wrong length")
	}
	if !run.Finished.After(run.Began) {
		t.Error("Finished should be after Began")
	}
}

func TestRunDeterministic(t *testing.T) {
	r1, cfg := paperRunner(99)
	r2, _ := paperRunner(99)
	a, err := r1.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("iteration %d differs", i)
		}
	}
}

func TestRunErrors(t *testing.T) {
	r := &Runner{Machine: cluster.SmallTest(), Seed: 1}
	cfg := Default()
	cfg.NumTasks = 0
	if _, err := r.Run(cfg); err == nil {
		t.Error("want error for missing tasks")
	}
	cfg.NumTasks = 1000000
	if _, err := r.Run(cfg); err == nil {
		t.Error("want error for oversubscription")
	}
	bad := Default()
	bad.Segments = 0
	if _, err := r.Run(bad); err == nil {
		t.Error("want error for invalid config")
	}
	nr := &Runner{}
	good := Default()
	good.NumTasks = 1
	if _, err := nr.Run(good); err == nil {
		t.Error("want error for missing machine")
	}
}

func TestBeforeIterationInjection(t *testing.T) {
	r, cfg := paperRunner(7)
	r.BeforeIteration = func(iter int, m *cluster.Machine) {
		if iter == 1 {
			m.WriteCongestion = 0.44
		} else {
			m.ClearFaults()
		}
	}
	run, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := run.Bandwidths(cluster.Write)
	var others float64
	for i, bw := range w {
		if i != 1 {
			others += bw
		}
	}
	others /= 5
	if ratio := w[1] / others; ratio > 0.6 {
		t.Errorf("iteration 2 should be anomalous, ratio = %.2f (series %v)", ratio, w)
	}
}

func TestOutputAndParseRoundTrip(t *testing.T) {
	r, cfg := paperRunner(5)
	run, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOutput(&buf, run); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"IOR-3.3.0: MPI Coordinated Test of Parallel I/O",
		"Command line        : ior -a mpiio -b 4m -t 2m -s 40",
		"api                 : MPIIO",
		"access              : file-per-process",
		"ordering inter file : constant task offset",
		"tasks               : 80",
		"clients per node    : 20",
		"repetitions         : 6",
		"xfersize            : 2.00 MiB",
		"blocksize           : 4.00 MiB",
		"aggregate filesize  : 12.50 GiB",
		"Max Write:",
		"Max Read: ",
		"Summary of all tests:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	p, err := ParseOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != "IOR-3.3.0" {
		t.Errorf("version = %q", p.Version)
	}
	if len(p.Results) != 12 {
		t.Fatalf("parsed results = %d, want 12", len(p.Results))
	}
	if len(p.Summaries) != 2 {
		t.Fatalf("parsed summaries = %d, want 2", len(p.Summaries))
	}
	// Parsed per-iteration bandwidths match the run within print precision.
	wr := run.OpResults(cluster.Write)
	pi := 0
	for _, ar := range p.Results {
		if ar.Access != "write" {
			continue
		}
		want := wr[pi].Result.BandwidthMiBps
		if diff := ar.BwMiBps - want; diff > 0.01 || diff < -0.01 {
			t.Errorf("iter %d write bw parsed %.2f, want %.2f", pi, ar.BwMiBps, want)
		}
		if ar.Iter != pi {
			t.Errorf("iter field = %d, want %d", ar.Iter, pi)
		}
		pi++
	}
	ws := p.Summaries[0]
	if ws.Operation != "write" || ws.Tasks != 80 || ws.TPN != 20 || ws.Reps != 6 ||
		!ws.FPP || !ws.Reorder || ws.Segments != 40 ||
		ws.BlockSize != 4*units.MiB || ws.XferSize != 2*units.MiB || ws.API != "MPIIO" {
		t.Errorf("write summary = %+v", ws)
	}
	if ws.MeanMiB <= 0 || ws.MaxMiB < ws.MeanMiB || ws.MinMiB > ws.MeanMiB {
		t.Errorf("summary stats inconsistent: %+v", ws)
	}
	if p.Began.IsZero() || p.Finished.IsZero() || !p.Finished.After(p.Began) {
		t.Errorf("timestamps: %v .. %v", p.Began, p.Finished)
	}
	if p.Options["test filename"] != "/scratch/fuchs/zhuz/test80" {
		t.Errorf("options = %v", p.Options)
	}
}

func TestParseOutputRejectsGarbage(t *testing.T) {
	if _, err := ParseOutput(strings.NewReader("hello\nworld\n")); err == nil {
		t.Error("garbage should not parse")
	}
}

func TestParseOutputToleratesExtraLines(t *testing.T) {
	r, cfg := paperRunner(6)
	run, _ := r.Run(cfg)
	var buf bytes.Buffer
	_ = WriteOutput(&buf, run)
	noisy := "WARNING: stray mpi message\n" + buf.String() + "\ntrailing junk\n"
	p, err := ParseOutput(strings.NewReader(noisy))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Results) != 12 {
		t.Errorf("results = %d", len(p.Results))
	}
}

func TestAccessModeStrings(t *testing.T) {
	c := Default()
	if c.AccessMode() != "single-shared-file" || c.TypeMode() != "independent" {
		t.Error("default modes wrong")
	}
	c.FilePerProc = true
	c.Collective = true
	if c.AccessMode() != "file-per-process" || c.TypeMode() != "collective" {
		t.Error("flagged modes wrong")
	}
	if c.AggregateFileSize(80) != int64(80)*c.BlockSize*int64(c.Segments) {
		t.Error("aggregate size wrong")
	}
}

func TestDirectIOAndRandomFlags(t *testing.T) {
	cfg, err := ParseArgs([]string{"-b", "4m", "-t", "2m", "-z", "-B", "-o", "f"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.RandomOffset || !cfg.DirectIO {
		t.Errorf("flags not parsed: %+v", cfg)
	}
	cmd := cfg.CommandLine()
	if !strings.Contains(cmd, "-z") || !strings.Contains(cmd, "-B") {
		t.Errorf("CommandLine = %q", cmd)
	}
	again, err := ParseCommandLine(cmd)
	if err != nil {
		t.Fatal(err)
	}
	if again != cfg {
		t.Errorf("round trip changed: %+v vs %+v", again, cfg)
	}
}

func TestRandomOffsetRunSlower(t *testing.T) {
	r, cfg := paperRunner(21)
	seq, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RandomOffset = true
	r2, _ := paperRunner(21)
	rnd, err := r2.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqMean := mean(seq.Bandwidths(cluster.Read))
	rndMean := mean(rnd.Bandwidths(cluster.Read))
	if rndMean >= seqMean*0.8 {
		t.Errorf("random read mean %.0f should be well below sequential %.0f", rndMean, seqMean)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestStonewalling(t *testing.T) {
	r, cfg := paperRunner(41)
	// The write phase takes ~4.5 s; a 2 s deadline stonewalls it.
	cfg.Deadline = 2
	cfg.Repetitions = 2
	run, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := cfg.AggregateFileSize(80)
	for _, ir := range run.OpResults(cluster.Write) {
		if !ir.Stonewalled {
			t.Errorf("iteration %d write not stonewalled", ir.Iter)
		}
		if ir.Result.WrRdSec > 2.0001 {
			t.Errorf("wrRd %.3f exceeds the 2s deadline", ir.Result.WrRdSec)
		}
		if ir.Result.BytesMoved >= fullBytes {
			t.Errorf("stonewalled phase moved full volume %d", ir.Result.BytesMoved)
		}
		if ir.StonewallMiB <= 0 {
			t.Error("stonewall volume missing")
		}
	}
	// Output carries stonewall columns and round-trips.
	var buf bytes.Buffer
	if err := WriteOutput(&buf, run); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "-D 2") {
		t.Error("command line missing -D")
	}
	p, err := ParseOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	ws := p.Summaries[0]
	if ws.StonewallSec != 2 || ws.StonewallMiB <= 0 {
		t.Errorf("parsed stonewall = %v s / %v MiB", ws.StonewallSec, ws.StonewallMiB)
	}
	// A generous deadline leaves runs untouched and prints NA.
	r2, cfg2 := paperRunner(41)
	cfg2.Deadline = 3600
	cfg2.Repetitions = 2
	run2, err := r2.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range run2.Results {
		if ir.Stonewalled {
			t.Error("generous deadline should not stonewall")
		}
	}
	buf.Reset()
	_ = WriteOutput(&buf, run2)
	if !strings.Contains(buf.String(), "NA") {
		t.Error("untouched run should print NA stonewall columns")
	}
}

func TestDeadlineParse(t *testing.T) {
	cfg, err := ParseArgs([]string{"-b", "4m", "-t", "2m", "-D", "30", "-o", "f"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Deadline != 30 {
		t.Errorf("deadline = %d", cfg.Deadline)
	}
	if _, err := ParseArgs([]string{"-D", "-1", "-o", "f"}); err == nil {
		t.Error("negative deadline should fail")
	}
	if _, err := ParseArgs([]string{"-D", "x", "-o", "f"}); err == nil {
		t.Error("bad deadline should fail")
	}
	again, err := ParseCommandLine(cfg.CommandLine())
	if err != nil {
		t.Fatal(err)
	}
	if again.Deadline != 30 {
		t.Errorf("round trip deadline = %d", again.Deadline)
	}
}

// Robustness: dropping arbitrary lines from real IOR output must never
// panic the parser — it either still parses or errors cleanly.
func TestParseOutputLineDropRobustness(t *testing.T) {
	r, cfg := paperRunner(3)
	run, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOutput(&buf, run); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for drop := 0; drop < len(lines); drop++ {
		mutated := make([]string, 0, len(lines)-1)
		mutated = append(mutated, lines[:drop]...)
		mutated = append(mutated, lines[drop+1:]...)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("dropping line %d panicked: %v", drop, p)
				}
			}()
			_, _ = ParseOutput(strings.NewReader(strings.Join(mutated, "\n")))
		}()
	}
}

// benchOutput renders the text of one bench-sized run (the paper's command,
// 3 iterations): what every campaign unit's extraction phase parses.
func benchOutput(tb testing.TB) []byte {
	tb.Helper()
	r, cfg := paperRunner(3)
	run, err := r.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOutput(&buf, run); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseOutputAllocatesLittle: parsing a few-KiB output must not pay for
// the 1 MiB line limit up front — a zeroed megabyte per parse was 72% of all
// bytes the served-ingest path allocated.
func TestParseOutputAllocatesLittle(t *testing.T) {
	data := benchOutput(t)
	const parses = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < parses; i++ {
		if _, err := ParseOutput(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / parses; per > 64*1024 {
		t.Errorf("ParseOutput of a %d-byte output allocates %d bytes, want under 64 KiB", len(data), per)
	}
}

// TestParseOutputLineLimit keeps the 1 MiB line limit honest now that the
// buffer no longer starts at it.
func TestParseOutputLineLimit(t *testing.T) {
	data := benchOutput(t)
	long := func(n int) []byte {
		return append(append([]byte(nil), data...), []byte("\n# "+strings.Repeat("x", n)+"\n")...)
	}
	p, err := ParseOutput(bytes.NewReader(long(900 * 1024)))
	if err != nil {
		t.Fatalf("a 900 KiB line must still parse: %v", err)
	}
	if len(p.Results) == 0 {
		t.Error("results lost beside a long line")
	}
	if _, err := ParseOutput(bytes.NewReader(long(2 * 1024 * 1024))); err == nil {
		t.Error("a 2 MiB line must still exceed the line limit")
	}
}

func BenchmarkParseOutput(b *testing.B) {
	data := benchOutput(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseOutput(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
