// Command iokc drives the full I/O knowledge cycle from the command line:
//
//	iokc generate [--db FILE] [--seed N] [--trace FILE] {ior ARGS... | io500 | hacc | darshan ARGS...}
//	iokc jube [--db FILE] [--seed N] [--trace FILE] --config FILE [--basedir DIR]
//	iokc campaign [--db FILE] [--seed N] [--workers N] [--retries N] [--batch N] [--name S] [--trace FILE] [--self-observe] {--config FILE | CMD...}
//	iokc extract [--db FILE] [--path FILE_OR_WORKSPACE]
//	iokc dxt --log FILE [--bins N]
//	iokc trace [--seed N] [--out FILE] -- IOR ARGS...
//	iokc list [--db FILE]
//	iokc show [--db FILE] --id N
//	iokc analyze [--db FILE] --id N
//	iokc recommend [--db FILE] --id N
//	iokc configure [--db FILE] --id N [-t SIZE] [-b SIZE] [-s N] [-i N] [-N N]
//	iokc causes [--db FILE] --id N --sacct FILE [--exclude-user U]
//	iokc tune [--tasks N] [--burst SIZE] [--seed N]
//	iokc serve [--db FILE] [--addr :8080] [--replica ADDR]... [--demo] [--api-only] [--slow-query DUR] [--pprof]
//	iokc servedb [--db FILE] [--addr :7070] [--metrics-addr :9090] [--replica-of ADDR] [--advertise ADDR] [--slow-query DUR] [--pprof]
//	iokc servedb --db FILE --shard-index I --shard-count N           (serve one shard of a partitioned store)
//	iokc servedb --shard ADDR[,REPLICA...] --shard ADDR... [--epoch N] (serve a scatter-gather coordinator)
//
// Every --db flag also accepts a kdb://host:port connection URL, so any
// subcommand can work against a shared remote knowledge base served by
// "iokc servedb" — the paper's local/public database split — and a
// shard://host:port URL, which discovers the shard map from a
// coordinator's address and opens a client-side scatter-gather
// connection across all shards.
//
// Each subcommand is one phase (or one usage) of the cycle; the database
// file is the shared knowledge base connecting them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/anomaly"
	"repro/internal/api"
	"repro/internal/bbox"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/dxt"
	"repro/internal/explorer"
	"repro/internal/extract"
	"repro/internal/haccio"
	"repro/internal/io500"
	"repro/internal/ior"
	"repro/internal/kdb"
	"repro/internal/recommend"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/sctuner"
	"repro/internal/shard"
	"repro/internal/siox"
	"repro/internal/slurm"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/vcs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iokc:", err)
		os.Exit(1)
	}
}

const usage = "usage: iokc {generate|jube|campaign|extract|dxt|trace|list|show|analyze|analytics|recommend|configure|causes|tune|log|diff|branch|merge|serve|servedb} [flags]"

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "generate":
		return cmdGenerate(rest)
	case "jube":
		return cmdJube(rest)
	case "campaign":
		return cmdCampaign(rest)
	case "extract":
		return cmdExtract(rest)
	case "dxt":
		return cmdDXT(rest)
	case "trace":
		return cmdTrace(rest)
	case "list":
		return cmdList(rest)
	case "show":
		return cmdShow(rest)
	case "analyze":
		return cmdAnalyze(rest)
	case "analytics":
		return cmdAnalytics(rest)
	case "recommend":
		return cmdRecommend(rest)
	case "configure":
		return cmdConfigure(rest)
	case "causes":
		return cmdCauses(rest)
	case "tune":
		return cmdTune(rest)
	case "log":
		return cmdLog(rest)
	case "diff":
		return cmdVCSDiff(rest)
	case "branch":
		return cmdBranch(rest)
	case "merge":
		return cmdMerge(rest)
	case "serve":
		return cmdServe(rest)
	case "servedb":
		return cmdServeDB(rest)
	}
	return fmt.Errorf("unknown subcommand %q\n%s", sub, usage)
}

// startTrace begins the trace a --trace FILE flag asks for and returns its
// root hop; without the flag it returns nil, whose zero Context() makes the
// cycle and the scheduler record nothing.
func startTrace(path, name string) *telemetry.Hop {
	if path == "" {
		return nil
	}
	return telemetry.Traces.StartTrace(name)
}

// dumpTrace ends the root hop from startTrace, reads the trace back from
// the store, writes it to path as the start-ordered []SpanRecord JSON
// /v1/traces?trace_id= serves, and prints the flame-style text tree. A nil
// root is a no-op.
func dumpTrace(root *telemetry.Hop, path string) error {
	if root == nil {
		return nil
	}
	root.End()
	spans := telemetry.Traces.Release(root.TraceID())
	data, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("trace written to %s\n%s", path, telemetry.TreeText(spans))
	return nil
}

func openCycle(db string, seed uint64) (*core.Cycle, error) {
	store, err := schema.Open(db)
	if err != nil {
		return nil, err
	}
	c, err := core.New(cluster.FuchsCSC(), seed)
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := c.Store.Close(); err != nil {
		store.Close()
		return nil, err
	}
	c.Store = store
	return c, nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	seed := fs.Uint64("seed", 1, "simulation seed")
	traceOut := fs.String("trace", "", "write the run's span tree to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("generate: which generator? (ior ARGS..., io500, hacc, darshan ARGS...)")
	}
	c, err := openCycle(*db, *seed)
	if err != nil {
		return err
	}
	defer c.Store.Close()
	root := startTrace(*traceOut, "iokc generate")
	c.Trace = root.Context()
	var g core.Generator
	switch fs.Arg(0) {
	case "ior":
		cfg, err := ior.ParseArgs(fs.Args()[1:])
		if err != nil {
			return err
		}
		if cfg.NumTasks <= 0 {
			cfg.NumTasks = c.Machine.CoresPerNode
		}
		g = core.IORGenerator{Config: cfg}
	case "io500":
		g = core.IO500Generator{Config: io500.Default()}
	case "hacc":
		g = core.HACCGenerator{Config: haccio.Default()}
	case "darshan":
		cfg, err := ior.ParseArgs(fs.Args()[1:])
		if err != nil {
			return err
		}
		if cfg.NumTasks <= 0 {
			cfg.NumTasks = c.Machine.CoresPerNode
		}
		g = core.DarshanGenerator{Config: cfg, JobID: *seed}
	default:
		return fmt.Errorf("generate: unknown generator %q", fs.Arg(0))
	}
	rep, err := c.Run(g)
	if err != nil {
		return err
	}
	fmt.Printf("generator %s: %d artifact(s)\n", rep.Generator, rep.Artifacts)
	for _, id := range rep.ObjectIDs {
		fmt.Printf("stored knowledge object #%d\n", id)
	}
	for _, id := range rep.IO500IDs {
		fmt.Printf("stored IO500 knowledge #%d\n", id)
	}
	return dumpTrace(root, *traceOut)
}

func cmdJube(args []string) error {
	fs := flag.NewFlagSet("jube", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	seed := fs.Uint64("seed", 1, "simulation seed")
	config := fs.String("config", "", "JUBE XML configuration file")
	baseDir := fs.String("basedir", ".", "workspace host directory")
	traceOut := fs.String("trace", "", "write the run's span tree to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *config == "" {
		return fmt.Errorf("jube: --config is required")
	}
	data, err := os.ReadFile(*config)
	if err != nil {
		return err
	}
	c, err := openCycle(*db, *seed)
	if err != nil {
		return err
	}
	defer c.Store.Close()
	root := startTrace(*traceOut, "iokc jube")
	c.Trace = root.Context()
	rep, err := c.Run(core.JUBEGenerator{ConfigXML: string(data), BaseDir: *baseDir})
	if err != nil {
		return err
	}
	fmt.Printf("jube: %d workpackage(s), %d knowledge object(s), %d io500 run(s)\n",
		rep.Artifacts, len(rep.ObjectIDs), len(rep.IO500IDs))
	return dumpTrace(root, *traceOut)
}

// cmdCampaign expands a sweep (a JUBE configuration or explicit benchmark
// command lines) and runs it through the parallel knowledge-cycle
// scheduler. SIGINT cancels gracefully: running units finish, waiting
// units are recorded as cancelled.
func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	seed := fs.Uint64("seed", 1, "campaign base seed (unit seeds derive from it)")
	workers := fs.Int("workers", 0, "worker pool size (0 = NumCPU)")
	retries := fs.Int("retries", 3, "attempts per unit")
	batch := fs.Int("batch", 16, "units per ingestion batch")
	name := fs.String("name", "", "campaign name (default: config file or \"campaign\")")
	config := fs.String("config", "", "JUBE XML configuration to expand into units")
	traceOut := fs.String("trace", "", "write the campaign's span tree to this JSON file")
	selfObserve := fs.Bool("self-observe", true, "persist the campaign's own phase timings as a knowledge object")
	branch := fs.String("branch", "", "run on this knowledge branch and commit the results (embedded databases only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec *campaign.Spec
	switch {
	case *config != "":
		data, err := os.ReadFile(*config)
		if err != nil {
			return err
		}
		if *name == "" {
			*name = *config
		}
		spec, err = campaign.FromJUBE(*name, *seed, string(data))
		if err != nil {
			return err
		}
	case fs.NArg() > 0:
		if *name == "" {
			*name = "campaign"
		}
		spec = &campaign.Spec{Name: *name, BaseSeed: *seed}
		for i, cmd := range fs.Args() {
			spec.Units = append(spec.Units, campaign.Unit{
				Index: i,
				Name:  cmd,
				Gen:   campaign.CommandGenerator{Label: "cmd", Commands: []string{cmd}},
			})
		}
	default:
		return fmt.Errorf("campaign: need --config FILE or benchmark command lines (e.g. 'ior -a posix -t 1m ...')")
	}
	store, err := schema.Open(*db)
	if err != nil {
		return err
	}
	defer store.Close()
	var repo *vcs.Repo
	if *branch != "" {
		repo, err = store.EnableVersioning()
		if err != nil {
			return err
		}
		if err := repo.Switch(*branch); err != nil {
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root := startTrace(*traceOut, "iokc campaign")
	sched := &campaign.Scheduler{
		Store:       store,
		Workers:     *workers,
		MaxAttempts: *retries,
		BatchSize:   *batch,
		Trace:       root.Context(),
		SelfObserve: *selfObserve,
	}
	res, runErr := sched.Run(ctx, spec)
	if res != nil {
		fmt.Printf("campaign #%d %q: %d unit(s) on %d worker(s) in %v\n",
			res.CampaignID, res.Name, len(res.Runs), res.Workers, res.Wall.Round(time.Millisecond))
		fmt.Printf("ok %d, failed %d, cancelled %d; %d knowledge object(s), %d io500 run(s)\n",
			res.OK, res.Failed, res.Cancelled, len(res.ObjectIDs), len(res.IO500IDs))
		if res.TelemetryID != 0 {
			fmt.Printf("self-observation: phase timings stored as knowledge object #%d\n", res.TelemetryID)
		}
		if repo != nil && runErr == nil {
			hash, created, err := repo.Commit(*branch, "iokc",
				fmt.Sprintf("campaign %q", res.Name), res.CampaignID)
			switch {
			case err != nil:
				runErr = fmt.Errorf("campaign succeeded but commit on %q failed: %w", *branch, err)
			case created:
				fmt.Printf("committed on branch %s: %s\n", *branch, hash[:12])
			default:
				fmt.Printf("branch %s unchanged (commit %s)\n", *branch, hash[:12])
			}
		}
		for _, r := range res.Runs {
			if r.Status == "failed" {
				fmt.Printf("  unit %d %q failed after %d attempt(s): %v\n", r.Unit.Index, r.Unit.Name, r.Attempts, r.Err)
			}
		}
	}
	if err := dumpTrace(root, *traceOut); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// cmdExtract implements the paper's stand-alone knowledge extractor: it
// expects the path of an output as a parameter; if the path is a
// directory (or omitted, defaulting to the working directory), it
// automatically searches the JUBE workspace for available benchmark
// results (§V-B).
func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	path := fs.String("path", ".", "output file or JUBE workspace directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := schema.Open(*db)
	if err != nil {
		return err
	}
	defer store.Close()
	reg := extract.NewRegistry()
	info, err := os.Stat(*path)
	if err != nil {
		return err
	}
	var extractions []*extract.Extraction
	if info.IsDir() {
		extractions, err = reg.ScanWorkspace(*path)
	} else {
		var ex *extract.Extraction
		ex, err = reg.ExtractFile(*path)
		extractions = []*extract.Extraction{ex}
	}
	if err != nil {
		return err
	}
	if len(extractions) == 0 {
		fmt.Println("no recognizable benchmark outputs found")
		return nil
	}
	for _, ex := range extractions {
		switch {
		case ex.Object != nil:
			id, err := store.SaveObject(ex.Object)
			if err != nil {
				return err
			}
			fmt.Printf("stored knowledge object #%d (%s)\n", id, ex.Object.Source)
		case ex.IO500 != nil:
			id, err := store.SaveIO500(ex.IO500)
			if err != nil {
				return err
			}
			fmt.Printf("stored IO500 knowledge #%d\n", id)
		}
	}
	return nil
}

// cmdDXT analyzes a Darshan-style binary log's extended trace segments —
// the DXT Explorer role.
func cmdDXT(args []string) error {
	fs := flag.NewFlagSet("dxt", flag.ContinueOnError)
	logPath := fs.String("log", "", "Darshan-style binary log")
	bins := fs.Int("bins", 20, "timeline bins")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("dxt: --log is required")
	}
	data, err := os.ReadFile(*logPath)
	if err != nil {
		return err
	}
	l, err := darshan.Unmarshal(data)
	if err != nil {
		return err
	}
	a, err := dxt.Analyze(l.DXT, *bins)
	if err != nil {
		return err
	}
	fmt.Print(a.Report())
	return nil
}

// cmdTrace runs an IOR pattern under SIOX-style multi-level activity
// capture, optionally stores the compressed trace, and prints the
// analysis (level breakdown + slowest causal chain).
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "simulation seed")
	out := fs.String("out", "", "write the compressed trace to this file")
	ranks := fs.Int("ranks", 2, "ranks to capture")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := ior.ParseArgs(fs.Args())
	if err != nil {
		return err
	}
	m := cluster.FuchsCSC()
	if cfg.NumTasks <= 0 {
		cfg.NumTasks = m.CoresPerNode
	}
	runRes, err := (&ior.Runner{Machine: m, Seed: *seed}).Run(cfg)
	if err != nil {
		return err
	}
	trace, err := siox.CaptureIOR(runRes, *ranks)
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := siox.Write(f, trace); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *out)
	}
	fmt.Print(trace.Report())
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := schema.Open(*db)
	if err != nil {
		return err
	}
	defer store.Close()
	objs, err := store.ListObjects()
	if err != nil {
		return err
	}
	fmt.Printf("%d knowledge object(s):\n", len(objs))
	for _, m := range objs {
		fmt.Printf("  #%-4d %-8s %s\n", m.ID, m.Source, m.Command)
	}
	io5, err := store.ListIO500()
	if err != nil {
		return err
	}
	fmt.Printf("%d IO500 run(s):\n", len(io5))
	for _, m := range io5 {
		fmt.Printf("  #%-4d %s\n", m.ID, m.Command)
	}
	return nil
}

// cmdAnalytics characterizes the stored corpus through the columnar
// engine: score aggregates, percentile bands, operation baselines, and
// the engine's own telemetry (segments scanned vs zone-map skipped).
func cmdAnalytics(args []string) error {
	fs := flag.NewFlagSet("analytics", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	op := fs.String("op", "", "also report the cross-run baseline for this operation (e.g. write)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := schema.Open(*db)
	if err != nil {
		return err
	}
	defer store.Close()
	cs, err := store.EnableAnalytics()
	if err != nil {
		return err
	}
	defer store.DisableAnalytics()

	row, err := store.DB.QueryRow("SELECT COUNT(*) FROM IOFHsScores")
	if err != nil {
		return err
	}
	nScores := row[0].(int64)
	fmt.Printf("IO500 submissions: %d\n", nScores)
	if nScores > 0 {
		agg, err := store.DB.QueryRow("SELECT MIN(total), AVG(total), MAX(total) FROM IOFHsScores")
		if err != nil {
			return err
		}
		fmt.Printf("total score: min %.2f, mean %.2f, max %.2f\n",
			asF(agg[0]), asF(agg[1]), asF(agg[2]))
		bands, err := bbox.CorpusBands(cs, 5, 95)
		if err != nil {
			return err
		}
		fmt.Printf("corpus bands: %s\n", bands)
	}
	if *op != "" {
		n, mean, err := store.OperationBaseline(*op)
		if err != nil {
			return err
		}
		fmt.Printf("%s baseline: %d summaries, mean %.1f MiB/s\n", *op, n, mean)
	}
	st := cs.Stats()
	fmt.Printf("colstore: served %d, fallbacks %d, rebuilds %d, appends %d, segments scanned %d, skipped %d\n",
		st.Served, st.Fallbacks, st.Rebuilds, st.Appends, st.SegmentsScanned, st.SegmentsSkipped)
	return nil
}

// asF widens a query cell to float64 for report formatting.
func asF(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	return 0
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	id := fs.Int64("id", 0, "knowledge object id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := schema.Open(*db)
	if err != nil {
		return err
	}
	defer store.Close()
	o, err := store.LoadObject(*id)
	if err != nil {
		return err
	}
	return o.EncodeJSON(os.Stdout)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	id := fs.Int64("id", 0, "knowledge object id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := openCycle(*db, 1)
	if err != nil {
		return err
	}
	defer c.Store.Close()
	findings, err := c.Analyze(*id)
	if err != nil {
		return err
	}
	fmt.Print(anomaly.Report(findings))
	return nil
}

func cmdRecommend(args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	id := fs.Int64("id", 0, "knowledge object id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := openCycle(*db, 1)
	if err != nil {
		return err
	}
	defer c.Store.Close()
	recs, err := c.Recommend(*id)
	if err != nil {
		return err
	}
	fmt.Print(recommend.Report(recs))
	return nil
}

func cmdConfigure(args []string) error {
	fs := flag.NewFlagSet("configure", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	id := fs.Int64("id", 0, "knowledge object id")
	overrides := map[string]*string{
		"-b": fs.String("b", "", "override block size"),
		"-t": fs.String("t", "", "override transfer size"),
		"-s": fs.String("s", "", "override segments"),
		"-i": fs.String("i", "", "override repetitions"),
		"-N": fs.String("N", "", "override tasks"),
		"-o": fs.String("o", "", "override test file"),
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := openCycle(*db, 1)
	if err != nil {
		return err
	}
	defer c.Store.Close()
	ov := map[string]string{}
	for k, v := range overrides {
		if *v != "" {
			ov[k] = *v
		}
	}
	cmd, err := c.NewConfiguration(*id, ov)
	if err != nil {
		return err
	}
	fmt.Println(cmd)
	return nil
}

func cmdCauses(args []string) error {
	fs := flag.NewFlagSet("causes", flag.ContinueOnError)
	db := fs.String("db", "knowledge.db", "knowledge database")
	id := fs.Int64("id", 0, "knowledge object id")
	sacct := fs.String("sacct", "", "sacct --parsable2 accounting file")
	excludeUser := fs.String("exclude-user", "", "drop this user's jobs from suspects")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sacct == "" {
		return fmt.Errorf("causes: --sacct is required")
	}
	f, err := os.Open(*sacct)
	if err != nil {
		return err
	}
	jobs, err := slurm.ParseSacct(f)
	f.Close()
	if err != nil {
		return err
	}
	c, err := openCycle(*db, 1)
	if err != nil {
		return err
	}
	defer c.Store.Close()
	causes, err := c.CorrelateCauses(*id, jobs, *excludeUser)
	if err != nil {
		return err
	}
	if len(causes) == 0 {
		fmt.Println("no anomalies to correlate")
		return nil
	}
	for _, cause := range causes {
		fmt.Printf("finding: %s\nwindow: %s .. %s\n%s",
			cause.Finding, cause.From.Format("2006-01-02T15:04:05"), cause.To.Format("2006-01-02T15:04:05"),
			slurm.Report(cause.Suspects))
	}
	return nil
}

// cmdTune profiles the machine with the SCTuner grid and prints the
// best-known configuration for the given runtime I/O pattern.
func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	tasks := fs.Int("tasks", 80, "runtime pattern: MPI ranks")
	burst := fs.String("burst", "8m", "runtime pattern: bytes per rank per burst")
	seed := fs.Uint64("seed", 1, "profiling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	burstBytes, err := units.ParseSize(*burst)
	if err != nil {
		return fmt.Errorf("tune: --burst: %v", err)
	}
	m := cluster.FuchsCSC()
	space := sctuner.DefaultSpace()
	profile, err := sctuner.Build(m, space, 2, *seed)
	if err != nil {
		return err
	}
	rec, err := profile.Recommend(space.Patterns, sctuner.Pattern{Tasks: *tasks, BurstSize: burstBytes})
	if err != nil {
		return err
	}
	fmt.Printf("pattern class: %s\n", rec.Pattern)
	fmt.Printf("recommended configuration: %s\n", rec.Config)
	fmt.Printf("expected gain over worst profiled configuration: %.1fx\n", rec.Gain)
	return nil
}

// serveDBConfig is the parsed flag set of "iokc servedb", split from the
// serving loop so tests can exercise flag validation and run the server
// under a cancellable context.
type serveDBConfig struct {
	db          string
	addr        string
	maxConns    int
	idle        time.Duration
	metricsAddr string
	pprofOn     bool
	replicaOf   string
	advertise   string
	shards      []string
	epoch       int64
	shardIndex  int
	shardCount  int
	slowQuery   time.Duration
}

func parseServeDBArgs(args []string) (*serveDBConfig, error) {
	fs := flag.NewFlagSet("servedb", flag.ContinueOnError)
	cfg := &serveDBConfig{}
	fs.StringVar(&cfg.db, "db", "knowledge.db", "knowledge database file to serve")
	fs.StringVar(&cfg.addr, "addr", ":7070", "listen address")
	fs.IntVar(&cfg.maxConns, "max-conns", kdb.DefaultMaxConns, "maximum concurrent client connections")
	fs.DurationVar(&cfg.idle, "idle-timeout", kdb.DefaultIdleTimeout, "per-connection idle timeout")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics, /metrics.json and /healthz over HTTP on this address (empty = disabled)")
	fs.BoolVar(&cfg.pprofOn, "pprof", false, "expose /debug/pprof on the metrics address")
	fs.StringVar(&cfg.replicaOf, "replica-of", "", "serve as a read-only replica of the primary at this kdb:// address")
	fs.StringVar(&cfg.advertise, "advertise", "", "address reported to clients asking for this node's status")
	var shards replicaFlags
	fs.Var(&shards, "shard", "kdb:// address of a shard primary, optionally \"primary,replica,...\" (repeatable); serve as a scatter-gather coordinator over these shards instead of a local file")
	fs.Int64Var(&cfg.epoch, "epoch", 1, "shard-map epoch served to clients in coordinator mode")
	fs.IntVar(&cfg.shardIndex, "shard-index", 0, "this node's shard number when serving one shard of a partitioned store (requires --shard-count)")
	fs.IntVar(&cfg.shardCount, "shard-count", 0, "total shard count; strides auto-increment ids so shards never collide")
	fs.DurationVar(&cfg.slowQuery, "slow-query", 0, "trace queries and log those slower than this to __slow_queries (0 = tracing off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.shards = shards
	if cfg.pprofOn && cfg.metricsAddr == "" {
		return nil, fmt.Errorf("servedb: --pprof requires --metrics-addr")
	}
	if strings.HasPrefix(cfg.db, "kdb://") {
		return nil, fmt.Errorf("servedb: --db must be a local file, not a kdb:// URL")
	}
	if len(cfg.shards) > 0 {
		if cfg.replicaOf != "" {
			return nil, fmt.Errorf("servedb: --shard and --replica-of are mutually exclusive")
		}
		if cfg.shardCount > 0 {
			return nil, fmt.Errorf("servedb: --shard (coordinator mode) and --shard-count (data-shard mode) are mutually exclusive")
		}
		if cfg.epoch < 1 {
			return nil, fmt.Errorf("servedb: --epoch must be >= 1")
		}
	}
	if cfg.shardCount < 0 || (cfg.shardCount > 0 && (cfg.shardIndex < 0 || cfg.shardIndex >= cfg.shardCount)) {
		return nil, fmt.Errorf("servedb: --shard-index must be in [0, --shard-count)")
	}
	if cfg.shardCount == 0 && cfg.shardIndex != 0 {
		return nil, fmt.Errorf("servedb: --shard-index requires --shard-count")
	}
	return cfg, nil
}

// cmdServeDB exposes a local knowledge database over the kdb wire
// protocol, making it the shared "public database" of the paper's Fig. 4.
// With --replica-of it instead serves a read-only replica that follows
// the given primary: it bootstraps from a snapshot when needed, applies
// the primary's log records as they commit, and keeps retrying with
// backoff while the primary is unreachable. SIGINT/SIGTERM trigger a
// graceful shutdown: the listener closes, idle connections drop, and
// in-flight requests get up to 10s to finish.
func cmdServeDB(args []string) error {
	cfg, err := parseServeDBArgs(args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServeDB(ctx, cfg)
}

func runServeDB(ctx context.Context, cfg *serveDBConfig) error {
	if len(cfg.shards) > 0 {
		return runShardCoordinator(ctx, cfg)
	}
	var opts kdb.DBOptions
	if cfg.shardCount > 0 {
		// One shard of a partitioned store: stride the auto-increment id
		// space so ids assigned here never collide with sibling shards.
		opts.AutoIDOffset = int64(cfg.shardIndex)
		opts.AutoIDStride = int64(cfg.shardCount)
	}
	backing, err := kdb.OpenWithOptions(cfg.db, opts)
	if err != nil {
		return err
	}
	defer backing.Close()
	srv := &kdb.Server{DB: backing, MaxConns: cfg.maxConns, IdleTimeout: cfg.idle, Advertise: cfg.advertise}
	health := repl.PrimaryStatus(backing, cfg.advertise)
	if cfg.replicaOf != "" {
		srv.Role = "replica"
		srv.ReadOnly = true
		f := repl.NewFollower(backing, cfg.replicaOf, repl.Options{})
		f.Start(ctx)
		defer f.Stop()
		health = func() repl.Status {
			st := f.Health()
			st.Addr = cfg.advertise
			return st
		}
	}
	return serveWire(ctx, cfg, srv, health, func(a net.Addr) string {
		switch {
		case cfg.replicaOf != "":
			return fmt.Sprintf("knowledge database %s served on kdb://%s (read-only replica of %s)", cfg.db, a, cfg.replicaOf)
		case cfg.shardCount > 0:
			return fmt.Sprintf("knowledge database %s served on kdb://%s (shard %d of %d)", cfg.db, a, cfg.shardIndex, cfg.shardCount)
		default:
			return fmt.Sprintf("knowledge database %s served on kdb://%s", cfg.db, a)
		}
	})
}

// runShardCoordinator serves a database-less coordinator: writes are
// routed across the shard primaries named by --shard, reads scatter to
// every shard and the partial results are recombined, and the shardmap
// verb lets clients (including shard:// store URLs) discover the whole
// topology from this one address.
func runShardCoordinator(ctx context.Context, cfg *serveDBConfig) error {
	specs := make([]shard.Spec, 0, len(cfg.shards))
	for i, raw := range cfg.shards {
		spec, err := shard.ParseSpec(raw)
		if err != nil {
			return fmt.Errorf("--shard %d: %w", i, err)
		}
		specs = append(specs, spec)
	}
	// Reads on a shard with replicas route to caught-up ones (shard.Dial
	// fronts it with a router); the coordinator composes on top without
	// knowing.
	coord, err := shard.Dial(&shard.Map{Epoch: cfg.epoch, Shards: specs})
	if err != nil {
		return err
	}
	defer coord.Close()
	srv := &kdb.Server{Backend: coord, Role: "coordinator",
		MaxConns: cfg.maxConns, IdleTimeout: cfg.idle, Advertise: cfg.advertise}
	health := func() repl.Status {
		return repl.Status{Role: "coordinator", Addr: cfg.advertise, AppliedLSN: coord.LSN(), Epoch: cfg.epoch}
	}
	return serveWire(ctx, cfg, srv, health, func(a net.Addr) string {
		return fmt.Sprintf("shard coordinator (%d shards, epoch %d) on kdb://%s", len(specs), cfg.epoch, a)
	})
}

// serveWire runs the listen / metrics / graceful-shutdown loop shared by
// every servedb mode (primary, replica, data shard, coordinator).
func serveWire(ctx context.Context, cfg *serveDBConfig, srv *kdb.Server, health func() repl.Status, describe func(net.Addr) string) error {
	// Tracing: a non-zero --slow-query arms the slow-query log (and with
	// it span recording); the node name stamps this process's hops so a
	// trace that crosses the wire reads coordinator → shard → replica.
	telemetry.SetSlowQueryThreshold(cfg.slowQuery)
	node := cfg.advertise
	if node == "" {
		if node = srv.Role; node == "" {
			node = "primary"
		}
	}
	telemetry.SetTraceNode(node)
	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Println(describe(l.Addr()))
	// The metrics listener rides the same shutdown path as the wire
	// server: mctx is cancelled the moment the wire server begins (or
	// finishes) draining, so a half-down node never keeps answering
	// /healthz and attracting load-balancer traffic.
	mctx, mcancel := context.WithCancel(ctx)
	defer mcancel()
	merrc := make(chan error, 1)
	if cfg.metricsAddr != "" {
		// The wire protocol is raw TCP, so observability rides on a side
		// HTTP listener.
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Handler(telemetry.Default()))
		mux.Handle("/metrics.json", telemetry.JSONHandler(telemetry.Default()))
		mux.Handle("/healthz", repl.HealthHandler(health))
		if cfg.pprofOn {
			mux.Handle("/debug/pprof/", telemetry.Pprof())
		}
		ml, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
		go func() { merrc <- serveGraceful(mctx, ml, mux, 2*time.Second) }()
	} else {
		merrc <- nil
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		mcancel()
		<-merrc
		return err
	case <-ctx.Done():
		fmt.Println("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-merrc; err != nil {
			return fmt.Errorf("metrics shutdown: %w", err)
		}
		return nil
	}
}

// replicaFlags collects repeatable --replica flags.
type replicaFlags []string

func (r *replicaFlags) String() string { return strings.Join(*r, ",") }

func (r *replicaFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// serveConfig is the parsed `iokc serve` command line.
type serveConfig struct {
	db             string
	addr           string
	pprofOn        bool
	slowQuery      time.Duration
	replicas       []string
	demo           bool
	apiOnly        bool
	apiRate        float64
	apiBurst       float64
	apiMaxInflight int
	apiProbe       time.Duration
}

func parseServeArgs(args []string) (*serveConfig, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfg := &serveConfig{}
	fs.StringVar(&cfg.db, "db", "knowledge.db", "knowledge database")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.BoolVar(&cfg.pprofOn, "pprof", false, "expose /debug/pprof endpoints")
	fs.BoolVar(&cfg.demo, "demo", false, "seed the store with the paper's two example scenarios (use with --db '' for a throwaway in-memory store)")
	fs.DurationVar(&cfg.slowQuery, "slow-query", 0, "trace queries and log those slower than this to __slow_queries and /traces (0 = tracing off)")
	fs.BoolVar(&cfg.apiOnly, "api-only", false, "serve only the JSON API under /v1/ (no HTML explorer pages)")
	fs.Float64Var(&cfg.apiRate, "api-rate", 0, "per-client API rate limit in requests/sec (0 = unlimited)")
	fs.Float64Var(&cfg.apiBurst, "api-burst", 0, "per-client API token-bucket burst (defaults to the rate)")
	fs.IntVar(&cfg.apiMaxInflight, "api-max-inflight", 0, "concurrent API request cap; excess sheds with 503 (0 = unlimited)")
	fs.DurationVar(&cfg.apiProbe, "api-probe", 0, "how soon the API cache's change feed redials a remote primary's commit stream after it breaks, and how often it polls the primary's LSN until then (default 250ms)")
	var replicas replicaFlags
	fs.Var(&replicas, "replica", "kdb:// address of a read replica (repeatable); reads are routed to caught-up replicas")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.replicas = replicas
	if cfg.apiRate > 0 && cfg.apiBurst == 0 {
		cfg.apiBurst = cfg.apiRate
	}
	return cfg, nil
}

// cmdServe runs the HTTP front door — the JSON API under /v1/ and, unless
// --api-only, the HTML explorer's pages — with the same drain-on-SIGTERM
// path every server in this binary uses.
func cmdServe(args []string) error {
	cfg, err := parseServeArgs(args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, cfg)
}

func runServe(ctx context.Context, cfg *serveConfig) error {
	telemetry.SetSlowQueryThreshold(cfg.slowQuery)
	telemetry.SetTraceNode("explorer")
	store, err := schema.Open(cfg.db, cfg.replicas...)
	if err != nil {
		return err
	}
	defer store.Close()
	if cfg.demo {
		if err := seedDemo(store); err != nil {
			return err
		}
	}
	// Versioning is served when the store is embedded; remote/sharded
	// stores version on their serving side.
	if _, err := store.EnableVersioning(); err == nil {
		fmt.Println("versioned knowledge enabled (/history)")
	}
	front := api.New(api.Config{
		Store:         store,
		Rate:          cfg.apiRate,
		Burst:         cfg.apiBurst,
		MaxInflight:   cfg.apiMaxInflight,
		ProbeInterval: cfg.apiProbe,
	})
	defer front.Close()
	if !cfg.apiOnly {
		explorer.Register(front)
	}
	if cfg.pprofOn {
		front.Handle("/debug/pprof/", "pprof", telemetry.Pprof())
	}
	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.apiOnly {
		fmt.Printf("knowledge API on http://%s/v1/ (db %s)\n", l.Addr(), cfg.db)
	} else {
		fmt.Printf("knowledge explorer + API on %s (db %s, API under /v1/)\n", l.Addr(), cfg.db)
	}
	return serveGraceful(ctx, l, front, 10*time.Second)
}

// serveGraceful serves handler on l until ctx is cancelled, then drains
// in-flight requests for up to the drain timeout — the single graceful-
// shutdown path shared by the explorer, the API, and servedb's metrics
// listener.
func serveGraceful(ctx context.Context, l net.Listener, handler http.Handler, drain time.Duration) error {
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		fmt.Println("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}
