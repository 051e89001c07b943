package ior

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// AccessResult is one parsed line of the per-iteration results table.
type AccessResult struct {
	Access     string // "write" or "read"
	BwMiBps    float64
	IOPS       float64
	LatencySec float64
	BlockKiB   float64
	XferKiB    float64
	OpenSec    float64
	WrRdSec    float64
	CloseSec   float64
	TotalSec   float64
	Iter       int
}

// OpSummary is one parsed line of the "Summary of all tests" table.
type OpSummary struct {
	Operation    string
	MaxMiB       float64
	MinMiB       float64
	MeanMiB      float64
	StdDevMiB    float64
	MaxOPs       float64
	MinOPs       float64
	MeanOPs      float64
	StdDevOPs    float64
	MeanSec      float64
	StonewallSec float64 // 0 when the phase was not stonewalled ("NA")
	StonewallMiB float64
	Tasks        int
	TPN          int
	Reps         int
	FPP          bool
	Reorder      bool
	Segments     int
	BlockSize    int64
	XferSize     int64
	AggMiB       float64
	API          string
}

// ParsedRun is an IOR output file decoded back into structured data. It is
// the input to the knowledge extractor.
type ParsedRun struct {
	Version     string
	CommandLine string
	Machine     string
	Began       time.Time
	Finished    time.Time
	Options     map[string]string
	Results     []AccessResult
	MaxWrite    float64
	MaxRead     float64
	Summaries   []OpSummary
}

// ParseOutput decodes IOR text output (as produced by WriteOutput, and
// format-compatible with real IOR-3.3). It tolerates unknown lines.
func ParseOutput(r io.Reader) (*ParsedRun, error) {
	sc := bufio.NewScanner(r)
	// Lines up to 1 MiB parse, but the buffer starts at the scanner's own
	// 4 KiB and grows on demand: a whole output is a few KiB.
	sc.Buffer(nil, 1024*1024)
	p := &ParsedRun{Options: map[string]string{}}
	section := ""
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "IOR-"):
			if i := strings.Index(line, ":"); i > 0 {
				p.Version = line[:i]
			}
			continue
		case strings.HasPrefix(trimmed, "Began"):
			p.Began = parseStamp(afterColon(trimmed))
			continue
		case strings.HasPrefix(trimmed, "Finished"):
			p.Finished = parseStamp(afterColon(trimmed))
			continue
		case strings.HasPrefix(trimmed, "Command line"):
			p.CommandLine = afterColon(trimmed)
			continue
		case strings.HasPrefix(trimmed, "Machine"):
			p.Machine = afterColon(trimmed)
			continue
		case strings.HasPrefix(trimmed, "Options:"):
			section = "options"
			continue
		case strings.HasPrefix(trimmed, "Results:"):
			section = "results"
			continue
		case strings.HasPrefix(trimmed, "Summary of all tests:"):
			section = "summary"
			continue
		case strings.HasPrefix(trimmed, "Max Write:"):
			fmt.Sscanf(afterColon(trimmed), "%f", &p.MaxWrite)
			continue
		case strings.HasPrefix(trimmed, "Max Read:"):
			fmt.Sscanf(afterColon(trimmed), "%f", &p.MaxRead)
			continue
		case trimmed == "":
			continue
		}
		switch section {
		case "options":
			if i := strings.Index(line, ":"); i > 0 {
				key := strings.TrimSpace(line[:i])
				val := strings.TrimSpace(line[i+1:])
				p.Options[key] = val
			}
		case "results":
			if strings.HasPrefix(trimmed, "access") || strings.HasPrefix(trimmed, "------") {
				continue
			}
			ar, ok := parseAccessLine(trimmed)
			if ok {
				p.Results = append(p.Results, ar)
			}
		case "summary":
			if strings.HasPrefix(trimmed, "Operation") {
				continue
			}
			os, ok := parseSummaryLine(trimmed)
			if ok {
				p.Summaries = append(p.Summaries, os)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ior: parse: %w", err)
	}
	if p.Version == "" && len(p.Results) == 0 && len(p.Summaries) == 0 {
		return nil, fmt.Errorf("ior: input does not look like IOR output")
	}
	return p, nil
}

func afterColon(s string) string {
	if i := strings.Index(s, ":"); i >= 0 {
		return strings.TrimSpace(s[i+1:])
	}
	return s
}

func parseStamp(s string) time.Time {
	t, err := time.Parse(timeLayout, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

func parseAccessLine(line string) (AccessResult, bool) {
	f := strings.Fields(line)
	if len(f) != 11 || (f[0] != "write" && f[0] != "read") {
		return AccessResult{}, false
	}
	nums := make([]float64, 0, 9)
	for _, s := range f[1:10] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return AccessResult{}, false
		}
		nums = append(nums, v)
	}
	iter, err := strconv.Atoi(f[10])
	if err != nil {
		return AccessResult{}, false
	}
	return AccessResult{
		Access: f[0], BwMiBps: nums[0], IOPS: nums[1], LatencySec: nums[2],
		BlockKiB: nums[3], XferKiB: nums[4], OpenSec: nums[5], WrRdSec: nums[6],
		CloseSec: nums[7], TotalSec: nums[8], Iter: iter,
	}, true
}

func parseSummaryLine(line string) (OpSummary, bool) {
	f := strings.Fields(line)
	// 27 columns per the summary header.
	if len(f) != 27 || (f[0] != "write" && f[0] != "read") {
		return OpSummary{}, false
	}
	pf := func(i int) float64 { v, _ := strconv.ParseFloat(f[i], 64); return v }
	pi := func(i int) int { v, _ := strconv.Atoi(f[i]); return v }
	return OpSummary{
		Operation: f[0],
		MaxMiB:    pf(1), MinMiB: pf(2), MeanMiB: pf(3), StdDevMiB: pf(4),
		MaxOPs: pf(5), MinOPs: pf(6), MeanOPs: pf(7), StdDevOPs: pf(8),
		MeanSec: pf(9), StonewallSec: pf(10), StonewallMiB: pf(11),
		Tasks: pi(13), TPN: pi(14), Reps: pi(15),
		FPP: pi(16) == 1, Reorder: pi(17) == 1,
		Segments: pi(21), BlockSize: int64(pf(22)), XferSize: int64(pf(23)),
		AggMiB: pf(24), API: f[25],
	}, true
}
