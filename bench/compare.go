package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of compare, per workload and end-to-end metric.
const (
	vImproved   = "improved"
	vUnchanged  = "unchanged"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

// minPairs is how many seed-paired runs a claim of a gain needs.
const minPairs = 10

// worsening is how much worse b is than a as a share of a, signed: positive
// is worse, whichever direction the metric prefers.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges NEW against OLD for one metric of one workload. Runs are
// paired by position (same seed, same place in the file).
//
//   - regressed: NEW's median is worse than OLD's by more than the bound —
//     unless the run-to-run spread of either side exceeds the bound and the
//     two sides' runs interleave, which is unresolved.
//   - improved: NEW wins at least nine tenths of the pairs and the medians
//     differ by more than the distance between OLD's quartiles. With fewer
//     than minPairs pairs that is unresolved: three wins out of three
//     happen by chance one time in four.
//   - otherwise unchanged, or unresolved when the spread exceeds the bound
//     and not every NEW run reads better than every OLD run.
func verdict(def metricDef, old, new []float64) string {
	if len(old) == 0 || len(new) == 0 {
		return vUnresolved
	}
	_, mo, _ := quartiles(old)
	_, mn, _ := quartiles(new)
	delta := worsening(def, mo, mn)
	wide := spread(old) > def.Bound || spread(new) > def.Bound
	allBetter, allWorse := true, true
	for _, o := range old {
		for _, n := range new {
			if w := worsening(def, o, n); w >= 0 {
				allBetter = false
			} else {
				allWorse = false
			}
		}
	}
	interleave := !allBetter && !allWorse
	if delta > def.Bound {
		if wide && interleave {
			return vUnresolved
		}
		return vRegressed
	}
	wins, pairs := 0, 0
	for i := 0; i < len(old) && i < len(new); i++ {
		if w := worsening(def, old[i], new[i]); w != 0 {
			pairs++
			if w < 0 {
				wins++
			}
		}
	}
	q1, _, q3 := quartiles(old)
	if delta < 0 && pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(mo-mn) > math.Abs(q3-q1) {
		if pairs < minPairs {
			return vUnresolved
		}
		return vImproved
	}
	if wide && !allBetter {
		return vUnresolved
	}
	return vUnchanged
}

func fmtQuartiles(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g..%.5g]", q2, q1, q3)
}

// comparable reports why two result sets cannot be diffed, or "".
func comparable(old, new *resultSet, trace bool) string {
	for _, set := range []*resultSet{old, new} {
		for _, r := range set.Runs {
			if r.Fingerprint.Scale != 1 {
				return fmt.Sprintf("%s seed %d was run at --scale %g; scaled results are smoke tests, not measurements",
					r.Workload, r.Fingerprint.Seed, r.Fingerprint.Scale)
			}
		}
	}
	for _, w := range workloads {
		a, b := old.inputs(w.Name, trace), new.inputs(w.Name, trace)
		if a != b {
			return fmt.Sprintf("%s: input or host fingerprints differ\n--- old\n%s\n--- new\n%s", w.Name, a, b)
		}
	}
	return ""
}

// compareSets prints the comparison and returns how many metrics
// regressed.
func compareSets(w io.Writer, old, new *resultSet) int {
	regressed := 0
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1..q3]\tnew median [q1..q3]\tnew/old\tbound\tverdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			o, n := old.values(wl.Name, def.Name, false), new.values(wl.Name, def.Name, false)
			if len(o) == 0 && len(n) == 0 {
				continue
			}
			v := verdict(def, o, n)
			if v == vRegressed {
				regressed++
			}
			ratio := "-"
			if len(o) > 0 && len(n) > 0 {
				if mo := median(o); mo != 0 {
					ratio = fmt.Sprintf("%.3fx of %.5g %s", median(n)/mo, mo, def.Unit)
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%g\t%s\n", wl.Name, def.Name, fmtQuartiles(o), fmtQuartiles(n), ratio, def.Bound, v)
		}
	}
	tw.Flush()

	// Per-layer metrics are printed, never gated. They come from the
	// traced runs, or — the counts — from the untraced ones.
	fmt.Fprintln(w, "\nper-layer (not gated):")
	tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old")
	for _, wl := range workloads {
		for _, def := range perLayer {
			for _, trace := range []bool{true, false} {
				o, n := old.values(wl.Name, def.Name, trace), new.values(wl.Name, def.Name, trace)
				if len(o) == 0 || len(n) == 0 {
					continue
				}
				ratio := "-"
				if mo := median(o); mo != 0 {
					ratio = fmt.Sprintf("%.3fx of %.5g %s", median(n)/mo, mo, def.Unit)
				}
				fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%s\n", wl.Name, def.Name, median(o), median(n), ratio)
				break
			}
		}
	}
	tw.Flush()
	return regressed
}

func compareCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare OLD.json NEW.json")
		return 2
	}
	old, err := readResultSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	new, err := readResultSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if why := comparable(old, new, false); why != "" {
		fmt.Fprintln(os.Stderr, "bench compare: refusing to diff:", why)
		return 2
	}
	if n := compareSets(os.Stdout, old, new); n > 0 {
		fmt.Printf("\n%d end-to-end metric(s) regressed\n", n)
		return 1
	}
	return 0
}

// printSummary prints, per workload and end-to-end metric, the median and
// quartiles over a set's runs and the run-to-run spread against the bound.
func printSummary(w io.Writer, set *resultSet, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian [q1..q3]\truns\tspread\tspread/bound")
	for _, wl := range workloads {
		for _, def := range defs {
			xs := set.values(wl.Name, def.Name, trace)
			if len(xs) == 0 {
				continue
			}
			rel := "-"
			if def.Bound > 0 {
				rel = fmt.Sprintf("%.2f", spread(xs)/def.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%.4f\t%s\n", wl.Name, def.Name, def.Unit, fmtQuartiles(xs), len(xs), spread(xs), rel)
		}
	}
	tw.Flush()
}

// aaCmd runs two interleaved sets of full runs of the working tree and
// holds the benchmark to its own bounds: no end-to-end metric's A/A spread
// beyond its bound (beyond half is noted), and no "regressed" comparing
// either set against the other.
func aaCmd(args []string) int {
	fs := flag.NewFlagSet("bench aa", flag.ContinueOnError)
	runs := fs.Int("runs", 3, "full runs per set")
	seed := fs.Uint64("seed", 1, "first seed; run i of both sets uses seed+i")
	seconds := fs.Int("seconds", runSeconds, "window length")
	outPrefix := fs.String("out", "", "write the two sets to PREFIX-A.json and PREFIX-B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sets := [2]*resultSet{{Schema: resultSchema}, {Schema: resultSchema}}
	for i := 0; i < *runs; i++ {
		for _, wl := range workloads {
			// Alternate which set goes first, so neither always follows
			// the other's cache and page state.
			for k := 0; k < 2; k++ {
				side := (i + k) % 2
				o := options{workload: wl.Name, seed: *seed + uint64(i), seconds: *seconds, scale: 1}
				res, err := childRun(o, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench aa:", err)
					return 1
				}
				fmt.Printf("set %c run %d %s: window %.1f s, failed %d\n", 'A'+side, i, wl.Name, res.WindowS, res.Failed)
				if !res.Correct {
					res.print(os.Stdout)
					return 1
				}
				sets[side].Runs = append(sets[side].Runs, *res)
			}
		}
	}
	if *outPrefix != "" {
		for k, s := range sets {
			if err := s.write(fmt.Sprintf("%s-%c.json", *outPrefix, 'A'+k)); err != nil {
				fmt.Fprintln(os.Stderr, "bench aa:", err)
				return 1
			}
		}
	}
	// Both sets are the same code, so the A/A spread of a metric is taken
	// over all their runs together. Like the driver, setup_s is exempt.
	code := 0
	pooled := &resultSet{Schema: resultSchema, Runs: append(append([]runResult(nil), sets[0].Runs...), sets[1].Runs...)}
	fmt.Println("\nboth sets pooled:")
	printSummary(os.Stdout, pooled, false)
	for _, wl := range workloads {
		for _, def := range endToEnd {
			if def.Name == "setup_s" {
				continue
			}
			switch sp := spread(pooled.values(wl.Name, def.Name, false)); {
			case sp > def.Bound:
				fmt.Printf("  FAIL %s %s: A/A spread %.3f exceeds its bound %g\n", wl.Name, def.Name, sp, def.Bound)
				code = 1
			case sp > def.Bound/2:
				fmt.Printf("  note %s %s: A/A spread %.3f exceeds half its bound %g\n", wl.Name, def.Name, sp, def.Bound)
			}
		}
	}
	fmt.Println("\nA -> B:")
	if compareSets(os.Stdout, sets[0], sets[1]) > 0 {
		code = 1
	}
	fmt.Println("\nB -> A:")
	if compareSets(os.Stdout, sets[1], sets[0]) > 0 {
		code = 1
	}
	return code
}
