// Command bench is the repository's benchmark: four named workloads over
// the API-read, served-ingest and analytics/commit paths, end-to-end
// metrics with tracing off, and per-layer metrics from spans recorded at
// each layer's public entry points. See README.md.
//
//	bash bench/run.sh                                   all four workloads
//	bash bench/run.sh --workload api_churn --seed 7     one workload
//	bash bench/run.sh --trace 1                         the traced passes
//	bash bench/run.sh compare OLD.json NEW.json
//	bash bench/run.sh aa --runs 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    float64
	runs     int
	out      string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:])
		case "aa":
			return aaCmd(args[1:])
		case "manifest":
			data, _ := json.MarshalIndent(benchManifest(), "", "  ")
			fmt.Println(string(data))
			return 0
		}
	}
	o, err := parseFlags("bench", args)
	if err != nil {
		return 2
	}
	if o.workload != "" {
		return runOne(o)
	}
	return runAll(o)
}

func parseFlags(name string, args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	trace := fs.Int("trace", 0, "1: the traced pass (per-layer metrics); 0: end-to-end metrics, tracing off")
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all four, one child process each)")
	fs.Uint64Var(&o.seed, "seed", 1, "derives corpus, request streams and campaign seeds")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "length of the measured window; fixed-work workloads size their work from it")
	fs.Float64Var(&o.scale, "scale", 1, "scales corpora and fixed work (smoke tests); compare refuses scaled results")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, seeds seed..seed+runs-1 (all-workloads mode)")
	fs.StringVar(&o.out, "out", "", "write the result file here")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n", name, fs.Arg(0))
		return o, fmt.Errorf("unexpected argument")
	}
	if o.seconds < 1 || o.scale <= 0 || o.runs < 1 {
		fmt.Fprintf(os.Stderr, "%s: --seconds, --scale and --runs must be positive\n", name)
		return o, fmt.Errorf("bad flag value")
	}
	o.trace = *trace != 0
	return o, nil
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*runResult, error) {
	switch o.workload {
	case "api_warm":
		return runAPI(false, o)
	case "api_churn":
		return runAPI(true, o)
	case "ingest_served":
		return runIngest(o)
	case "analytics_churn":
		return runAnalytics(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// runOne is the driver's entry: one workload, one process, the contract's
// JSON object as the last line of standard output.
func runOne(o options) int {
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.print(os.Stdout)
	if o.out != "" {
		if err := (&resultSet{Schema: resultSchema, Runs: []runResult{*res}}).write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := res.driverLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workDir returns (creating it) a directory for what running leaves
// behind, under .bench_build/ of the working directory, which .gitignore
// names.
func workDir(name string) (string, error) {
	dir := filepath.Join(".bench_build", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// childRun re-executes this binary for one workload run, so that heap,
// VmHWM and allocation counters are per workload, and reads back its
// result.
func childRun(o options, echo bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := workDir("results")
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v-%d.json", o.workload, o.seed, o.trace, time.Now().UnixNano()))
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--scale", fmt.Sprint(o.scale), "--trace", trace, "--out", out)
	cmd.Stderr = os.Stderr
	if echo {
		cmd.Stdout = os.Stdout
	}
	runErr := cmd.Run()
	rs, err := readResultSet(out)
	os.Remove(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, runErr)
		}
		return nil, err
	}
	return &rs.Runs[0], nil
}

// runAll runs every workload, o.runs seeds each, one child process per run,
// prints every end-to-end metric by name and exits non-zero on any failed
// check or operation.
func runAll(o options) int {
	set := &resultSet{Schema: resultSchema}
	code := 0
	for i := 0; i < o.runs; i++ {
		for _, w := range workloads {
			c := o
			c.workload, c.seed = w.Name, o.seed+uint64(i)
			res, err := childRun(c, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			set.Runs = append(set.Runs, *res)
		}
	}
	if o.out != "" {
		if err := set.write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if o.runs > 1 {
		printSummary(os.Stdout, set, o.trace)
	}
	return code
}
