package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ArtifactPrefix marks a serialized telemetry artifact; the extract
// registry sniffs on it the same way it sniffs monitor logs.
const ArtifactPrefix = "# iokc-telemetry"

// Phases are the five knowledge-cycle phases of the paper, in order.
var Phases = []string{"generation", "extraction", "persistence", "analysis", "usage"}

// PhaseTiming is one observed phase duration. Unit is the campaign unit
// index the timing belongs to, or -1 for a whole-run (single-cycle)
// timing.
type PhaseTiming struct {
	Phase   string
	Unit    int
	Seconds float64
}

// WriteArtifact serializes phase timings as a self-describing text
// artifact. The format is line-oriented so it survives the same
// extraction path as benchmark output:
//
//	# iokc-telemetry run=<name>
//	phase generation unit=0 seconds=0.0123
//
// Timings are written in (phase-order, unit) order so output is
// deterministic for a given input set.
func WriteArtifact(w io.Writer, run string, timings []PhaseTiming) error {
	sorted := append([]PhaseTiming(nil), timings...)
	sort.SliceStable(sorted, func(i, j int) bool {
		pi, pj := phaseRank(sorted[i].Phase), phaseRank(sorted[j].Phase)
		if pi != pj {
			return pi < pj
		}
		return sorted[i].Unit < sorted[j].Unit
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s run=%s\n", ArtifactPrefix, sanitizeRun(run))
	for _, t := range sorted {
		fmt.Fprintf(bw, "phase %s unit=%d seconds=%s\n",
			t.Phase, t.Unit, strconv.FormatFloat(t.Seconds, 'g', -1, 64))
	}
	return bw.Flush()
}

// Artifact renders WriteArtifact to a byte slice.
func Artifact(run string, timings []PhaseTiming) []byte {
	var b bytes.Buffer
	WriteArtifact(&b, run, timings)
	return b.Bytes()
}

func sanitizeRun(run string) string {
	run = strings.TrimSpace(run)
	if run == "" {
		return "run"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' {
			return '-'
		}
		return r
	}, run)
}

func phaseRank(p string) int {
	for i, name := range Phases {
		if p == name {
			return i
		}
	}
	return len(Phases)
}

// ParseArtifact decodes a telemetry artifact produced by WriteArtifact.
// It returns the run name and the timings in file order.
func ParseArtifact(data []byte) (run string, timings []PhaseTiming, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	if !sc.Scan() {
		return "", nil, fmt.Errorf("telemetry: empty artifact")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, ArtifactPrefix) {
		return "", nil, fmt.Errorf("telemetry: not a telemetry artifact")
	}
	for _, field := range strings.Fields(header) {
		if v, ok := strings.CutPrefix(field, "run="); ok {
			run = v
		}
	}
	if run == "" {
		run = "run"
	}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var t PhaseTiming
		if _, err := fmt.Sscanf(text, "phase %s unit=%d seconds=%g", &t.Phase, &t.Unit, &t.Seconds); err != nil {
			return "", nil, fmt.Errorf("telemetry: artifact line %d: %v", line, err)
		}
		timings = append(timings, t)
	}
	if err := sc.Err(); err != nil {
		return "", nil, fmt.Errorf("telemetry: artifact: %v", err)
	}
	return run, timings, nil
}
