// Package core implements the paper's primary contribution: the I/O
// knowledge cycle — a generic, modular, tool-agnostic workflow with five
// phases (generation, extraction, persistence, analysis, usage) that can be
// iterated to grow an I/O knowledge base.
//
// The Cycle type wires the phases together: Generators produce raw
// artifacts (benchmark outputs, Darshan logs) on a modelled machine; the
// extract.Registry turns artifacts into knowledge objects, optionally
// enriched with file system and system information; the schema.Store
// persists them; the analysis and usage helpers close the loop (anomaly
// detection, recommendations, new configuration generation). New tools
// plug in by implementing Generator and/or extract.Extractor — nothing in
// the cycle is specific to one benchmark.
package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/darshan"
	"repro/internal/extract"
	"repro/internal/haccio"
	"repro/internal/io500"
	"repro/internal/ior"
	"repro/internal/jube"
	"repro/internal/knowledge"
	"repro/internal/recommend"
	"repro/internal/rng"
	"repro/internal/schema"
	"repro/internal/slurm"
	"repro/internal/sysinfo"
	"repro/internal/telemetry"
	"repro/internal/workloadgen"
)

// Artifact is one raw output produced by the generation phase.
type Artifact struct {
	// Name describes the artifact (e.g. the command that produced it).
	Name string
	// Data is the raw output bytes handed to the extraction phase.
	Data []byte
	// TestFile, when non-empty, lets the cycle enrich the extracted
	// knowledge with the file's PFS entry information.
	TestFile string
}

// Context carries the environment a generator runs in.
type Context struct {
	Machine *cluster.Machine
	Seed    uint64
}

// Generator is the generation-phase plug-in point.
type Generator interface {
	// Name identifies the generator.
	Name() string
	// Generate produces raw artifacts.
	Generate(ctx *Context) ([]Artifact, error)
}

// Cycle is one configured instance of the knowledge cycle.
type Cycle struct {
	Machine  *cluster.Machine
	Registry *extract.Registry
	Store    *schema.Store
	Seed     uint64
	// Metrics receives per-phase latency histograms
	// (cycle_phase_seconds{phase=...}). Nil disables recording.
	Metrics *telemetry.Registry
	// Trace, when valid, is the trace position to join: every phase of
	// every Run (and of the on-demand Analyze/Recommend phases) records one
	// hop under it. The cycle never starts a trace of its own; with the
	// zero context it records none.
	Trace telemetry.TraceContext
	// runCount numbers successive Run calls so each iteration sees its own
	// derived seed instead of replaying the identical noise stream.
	runCount uint64
}

// DeriveSeed returns the reproducible seed for run n (0-based) of a
// sequence rooted at base. It is a pure function of (base, n) — run n gets
// the same seed regardless of execution order or worker count — which is
// what lets the campaign scheduler promise byte-identical knowledge at any
// parallelism. DeriveSeed(base, 0) == rng.New(base).Uint64().
func DeriveSeed(base, n uint64) uint64 { return rng.Derive(base, n) }

// New builds a cycle over a machine with an in-memory store and the
// built-in extractor registry.
func New(m *cluster.Machine, seed uint64) (*Cycle, error) {
	st, err := schema.Open("")
	if err != nil {
		return nil, err
	}
	return &Cycle{Machine: m, Registry: extract.NewRegistry(), Store: st, Seed: seed, Metrics: telemetry.Default()}, nil
}

// beginPhase opens one knowledge-cycle phase: a hop under c.Trace (nil when
// untraced) plus a closure that times the phase once, for the hop and the
// phase latency histogram alike.
func (c *Cycle) beginPhase(phase string) func() {
	hop := telemetry.JoinHop(c.Trace, phase)
	start := time.Now()
	return func() {
		d := time.Since(start)
		hop.EndAfter(d)
		c.Metrics.Histogram(telemetry.Label("cycle_phase_seconds", "phase", phase)).Observe(d.Seconds())
	}
}

// Report is the outcome of one cycle iteration.
type Report struct {
	Generator   string
	Artifacts   int
	ObjectIDs   []int64
	IO500IDs    []int64
	Extractions []*extract.Extraction
}

// Run executes one iteration of the cycle for one generator: generation,
// extraction, enrichment, persistence. Analysis and usage run on demand
// through the helpers below (the phases are deliberately separable; the
// paper's architecture isolates them so e.g. analysis can happen on a
// different machine).
//
// The first Run on a cycle uses c.Seed verbatim; every subsequent Run
// derives a fresh seed via DeriveSeed, so iterating the cycle explores new
// noise instead of replaying the first run bit-for-bit.
//
// Extraction completes for every artifact before anything is persisted, so
// an extraction failure stores nothing. If persistence fails partway the
// partial Report (everything stored so far, plus all extractions) is
// returned alongside the error, which names the failing artifact.
func (c *Cycle) Run(g Generator) (*Report, error) {
	if c.Machine == nil || c.Registry == nil || c.Store == nil {
		return nil, fmt.Errorf("core: cycle is missing machine, registry, or store")
	}
	seed := c.Seed
	if n := atomic.AddUint64(&c.runCount, 1) - 1; n > 0 {
		seed = DeriveSeed(c.Seed, n)
	}
	endGen := c.beginPhase("generation")
	arts, err := g.Generate(&Context{Machine: c.Machine, Seed: seed})
	endGen()
	if err != nil {
		return nil, fmt.Errorf("core: generation (%s): %w", g.Name(), err)
	}
	if len(arts) == 0 {
		return nil, fmt.Errorf("core: generator %s produced no artifacts", g.Name())
	}
	endExt := c.beginPhase("extraction")
	exs, err := ExtractArtifacts(c.Machine, c.Registry, arts)
	endExt()
	if err != nil {
		return nil, err
	}
	rep := &Report{Generator: g.Name(), Artifacts: len(arts), Extractions: exs}
	defer c.beginPhase("persistence")()
	for i, ex := range exs {
		switch {
		case ex.Object != nil:
			id, err := c.Store.SaveObject(ex.Object)
			if err != nil {
				return rep, fmt.Errorf("core: persist %s (artifact %d of %d; %d saved before it): %w",
					arts[i].Name, i+1, len(arts), len(rep.ObjectIDs)+len(rep.IO500IDs), err)
			}
			ex.Object.ID = id
			rep.ObjectIDs = append(rep.ObjectIDs, id)
		case ex.IO500 != nil:
			id, err := c.Store.SaveIO500(ex.IO500)
			if err != nil {
				return rep, fmt.Errorf("core: persist %s (artifact %d of %d; %d saved before it): %w",
					arts[i].Name, i+1, len(arts), len(rep.ObjectIDs)+len(rep.IO500IDs), err)
			}
			ex.IO500.ID = id
			rep.IO500IDs = append(rep.IO500IDs, id)
		}
	}
	return rep, nil
}

// ExtractArtifacts runs the extraction and enrichment phases over raw
// artifacts without persisting anything. It is a pure function of its
// inputs (sysinfo derivation does not mutate the machine), which lets the
// campaign scheduler extract on worker goroutines and batch the persistence
// separately. Node 1's system information enriches the knowledge.
func ExtractArtifacts(m *cluster.Machine, reg *extract.Registry, arts []Artifact) ([]*extract.Extraction, error) {
	out := make([]*extract.Extraction, 0, len(arts))
	for _, a := range arts {
		ex, err := reg.Extract(a.Data)
		if err != nil {
			return nil, fmt.Errorf("core: extraction of %s: %w", a.Name, err)
		}
		info := sysinfo.ForMachine(m, 1)
		switch {
		case ex.Object != nil:
			if a.TestFile != "" && m.FS != nil {
				entry := m.FS.EntryInfoFor(a.TestFile, "file")
				if err := extract.AttachFileSystem(ex.Object, entry.CtlOutput(), m.FS.Type, m.FS.RAIDScheme); err != nil {
					return nil, fmt.Errorf("core: enrich %s: %w", a.Name, err)
				}
			}
			extract.AttachSystem(ex.Object, info)
		case ex.IO500 != nil:
			extract.AttachSystemIO500(ex.IO500, info)
		}
		out = append(out, ex)
	}
	return out, nil
}

// Analyze runs the analysis-phase anomaly detection over one stored
// knowledge object.
func (c *Cycle) Analyze(id int64) ([]anomaly.Finding, error) {
	defer c.beginPhase("analysis")()
	o, err := c.Store.LoadObject(id)
	if err != nil {
		return nil, err
	}
	return anomaly.DetectObject(o, anomaly.Default())
}

// Recommend runs the usage-phase recommendation module over one stored
// knowledge object.
func (c *Cycle) Recommend(id int64) ([]recommend.Recommendation, error) {
	defer c.beginPhase("usage")()
	o, err := c.Store.LoadObject(id)
	if err != nil {
		return nil, err
	}
	adv := recommend.Advisor{}
	if c.Machine != nil && c.Machine.FS != nil {
		adv.ChunkSize = c.Machine.FS.ChunkSize
	}
	return adv.ForObject(o), nil
}

// NewConfiguration implements the explorer's "create configuration"
// usage: load the command of stored knowledge, apply overrides, and return
// the new runnable command (paper §V-E1).
func (c *Cycle) NewConfiguration(id int64, overrides map[string]string) (string, error) {
	defer c.beginPhase("usage")()
	o, err := c.Store.LoadObject(id)
	if err != nil {
		return "", err
	}
	cmd, err := workloadgen.CommandFromObject(o)
	if err != nil {
		return "", err
	}
	return workloadgen.Modify(cmd, overrides)
}

// Cause links one anomaly finding to its wall-clock window and the
// workload-manager jobs implicated in it — the paper's planned "context
// between anomaly and causes" through Slurm accounting.
type Cause struct {
	Finding  anomaly.Finding
	From, To time.Time
	Suspects []slurm.Suspect
}

// CorrelateCauses analyzes one stored knowledge object and, for every
// finding, derives the anomalous iteration's time window and ranks the
// accounting jobs overlapping it. excludeUser drops the victim's own job.
func (c *Cycle) CorrelateCauses(id int64, jobs []slurm.Job, excludeUser string) ([]Cause, error) {
	o, err := c.Store.LoadObject(id)
	if err != nil {
		return nil, err
	}
	findings, err := anomaly.DetectObject(o, anomaly.Default())
	if err != nil {
		return nil, err
	}
	var out []Cause
	for _, f := range findings {
		from, to, err := anomaly.Window(o, f)
		if err != nil {
			return nil, err
		}
		out = append(out, Cause{
			Finding:  f,
			From:     from,
			To:       to,
			Suspects: slurm.CorrelateWindow(jobs, from, to, excludeUser),
		})
	}
	return out, nil
}

// IORGenerator runs the IOR simulator as a knowledge generator.
type IORGenerator struct {
	Config ior.Config
	// BeforeIteration forwards to the runner for fault-injection
	// experiments.
	BeforeIteration func(iter int, m *cluster.Machine)
}

// Name implements Generator.
func (IORGenerator) Name() string { return "ior" }

// Generate implements Generator.
func (g IORGenerator) Generate(ctx *Context) ([]Artifact, error) {
	r := &ior.Runner{Machine: ctx.Machine, Seed: ctx.Seed, BeforeIteration: g.BeforeIteration}
	run, err := r.Run(g.Config)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ior.WriteOutput(&buf, run); err != nil {
		return nil, err
	}
	return []Artifact{{Name: g.Config.CommandLine(), Data: buf.Bytes(), TestFile: g.Config.TestFile}}, nil
}

// IO500Generator runs the IO500 simulator as a knowledge generator.
type IO500Generator struct {
	Config      io500.Config
	BeforePhase func(phase string, m *cluster.Machine)
}

// Name implements Generator.
func (IO500Generator) Name() string { return "io500" }

// Generate implements Generator.
func (g IO500Generator) Generate(ctx *Context) ([]Artifact, error) {
	r := &io500.Runner{Machine: ctx.Machine, Seed: ctx.Seed, BeforePhase: g.BeforePhase}
	run, err := r.Run(g.Config)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := io500.WriteOutput(&buf, run); err != nil {
		return nil, err
	}
	return []Artifact{{Name: "io500", Data: buf.Bytes()}}, nil
}

// HACCGenerator runs the HACC-IO simulator as a knowledge generator.
type HACCGenerator struct {
	Config haccio.Config
}

// Name implements Generator.
func (HACCGenerator) Name() string { return "haccio" }

// Generate implements Generator.
func (g HACCGenerator) Generate(ctx *Context) ([]Artifact, error) {
	r := &haccio.Runner{Machine: ctx.Machine, Seed: ctx.Seed}
	run, err := r.Run(g.Config)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := haccio.WriteOutput(&buf, run); err != nil {
		return nil, err
	}
	return []Artifact{{Name: "hacc_io", Data: buf.Bytes(), TestFile: g.Config.OutputFile}}, nil
}

// DarshanGenerator runs an instrumented application (modelled by an IOR
// pattern) and emits the Darshan log as the artifact — the paper's
// "application + Darshan" data source.
type DarshanGenerator struct {
	Config ior.Config
	JobID  uint64
}

// Name implements Generator.
func (DarshanGenerator) Name() string { return "darshan" }

// Generate implements Generator.
func (g DarshanGenerator) Generate(ctx *Context) ([]Artifact, error) {
	r := &ior.Runner{Machine: ctx.Machine, Seed: ctx.Seed}
	run, err := r.Run(g.Config)
	if err != nil {
		return nil, err
	}
	data, err := darshan.Marshal(darshan.FromIORRun(run, g.JobID))
	if err != nil {
		return nil, err
	}
	return []Artifact{{Name: "darshan log", Data: data, TestFile: g.Config.TestFile}}, nil
}

// JUBEGenerator drives the generation phase through a JUBE configuration,
// exactly like the paper's prototype: every workpackage's stdout becomes
// one artifact.
type JUBEGenerator struct {
	ConfigXML string
	// BaseDir hosts the JUBE workspace (required; use a temp dir in
	// tests).
	BaseDir string
}

// Name implements Generator.
func (JUBEGenerator) Name() string { return "jube" }

// Generate implements Generator.
func (g JUBEGenerator) Generate(ctx *Context) ([]Artifact, error) {
	cfg, err := jube.ParseConfig(strings.NewReader(g.ConfigXML))
	if err != nil {
		return nil, err
	}
	runner := &jube.Runner{
		BaseDir: g.BaseDir,
		Exec:    Dispatch(ctx.Machine, ctx.Seed),
	}
	var arts []Artifact
	for i := range cfg.Benchmarks {
		res, err := runner.Run(&cfg.Benchmarks[i])
		if err != nil {
			return nil, err
		}
		for _, wp := range res.Workpackages {
			arts = append(arts, Artifact{
				Name:     fmt.Sprintf("%s wp%d", wp.Step, wp.ID),
				Data:     []byte(wp.Output),
				TestFile: wp.Params["testfile"],
			})
		}
	}
	return arts, nil
}

// Dispatch builds the jube.CommandFunc that routes benchmark command lines
// to the simulators: "ior ..." to the IOR engine, "io500 ..." to IO500,
// "mdtest ..." and "hacc_io ..." likewise. Seeds derive from the base seed
// and the command text so distinct workpackages see distinct noise.
func Dispatch(m *cluster.Machine, seed uint64) jube.CommandFunc {
	return func(workdir, command string) (string, error) {
		fields := strings.Fields(command)
		if len(fields) == 0 {
			return "", fmt.Errorf("core: empty command")
		}
		cmdSeed := seed ^ hashString(command)
		var buf bytes.Buffer
		switch fields[0] {
		case "ior":
			cfg, err := ior.ParseCommandLine(command)
			if err != nil {
				return "", err
			}
			if cfg.NumTasks <= 0 {
				cfg.NumTasks = m.CoresPerNode
			}
			run, err := (&ior.Runner{Machine: m, Seed: cmdSeed}).Run(cfg)
			if err != nil {
				return "", err
			}
			err = ior.WriteOutput(&buf, run)
			return buf.String(), err
		case "io500":
			cfg := io500.Default()
			for i := 1; i+1 < len(fields); i++ {
				switch fields[i] {
				case "--tasks":
					fmt.Sscanf(fields[i+1], "%d", &cfg.Tasks)
				case "--tasks-per-node":
					fmt.Sscanf(fields[i+1], "%d", &cfg.TasksPerNode)
				}
			}
			run, err := (&io500.Runner{Machine: m, Seed: cmdSeed}).Run(cfg)
			if err != nil {
				return "", err
			}
			err = io500.WriteOutput(&buf, run)
			return buf.String(), err
		case "hacc_io":
			cfg := haccio.Default()
			for i := 1; i+1 < len(fields); i++ {
				switch fields[i] {
				case "-n":
					fmt.Sscanf(fields[i+1], "%d", &cfg.ParticlesPerRank)
				case "-N":
					fmt.Sscanf(fields[i+1], "%d", &cfg.Tasks)
				}
			}
			run, err := (&haccio.Runner{Machine: m, Seed: cmdSeed}).Run(cfg)
			if err != nil {
				return "", err
			}
			err = haccio.WriteOutput(&buf, run)
			return buf.String(), err
		}
		return "", fmt.Errorf("core: no simulator for command %q", fields[0])
	}
}

func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// LoadObjects loads several knowledge objects, a convenience for analysis
// and usage phases operating over populations.
func (c *Cycle) LoadObjects(ids []int64) ([]*knowledge.Object, error) {
	var out []*knowledge.Object
	for _, id := range ids {
		o, err := c.Store.LoadObject(id)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}
