package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// calibrate times a fixed CPU spin (sha256 over 160 MiB). Taken before and
// after each window, it makes a run measured during a noisy period of a
// shared host recognisable: both figures rise together with every metric.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now()
	h := sha256.New()
	for i := 0; i < 160; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return float64(time.Since(start)) / 1e6
}

// usage is a point-in-time reading of the process counters the process.*
// metrics are deltas of.
type usage struct {
	mallocs   uint64
	bytes     uint64
	gcPauseNS uint64
	cpu       time.Duration
	tel       telemetry.Snapshot
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	cpu := time.Duration(0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return usage{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcPauseNS: ms.PauseTotalNs, cpu: cpu,
		tel: telemetry.Default().Snapshot()}
}

// recordProcess writes the process.* metrics and the engine ratios that
// only the program's own counters can give, as deltas over a window of ops
// operations. A counter the program no longer has stays absent.
func recordProcess(r *runResult, before, after usage, ops int64) {
	if ops < 1 {
		ops = 1
	}
	n := float64(ops)
	r.set("process.allocs_per_op", float64(after.mallocs-before.mallocs)/n)
	r.set("process.alloc_bytes_per_op", float64(after.bytes-before.bytes)/n)
	r.set("process.cpu_ms_per_op", float64(after.cpu-before.cpu)/1e6/n)
	r.set("process.gc_pause_total_ms", float64(after.gcPauseNS-before.gcPauseNS)/1e6)

	ratio := func(metric, hit, miss string) {
		h, okH := counterDelta(before, after, hit)
		m, okM := counterDelta(before, after, miss)
		if okH && okM && h+m > 0 {
			r.set(metric, float64(h)/float64(h+m))
		}
	}
	ratio("kdb.engine.plan_cache_hit_ratio",
		telemetry.Label("kdb_plan_cache_total", "result", "hit"), telemetry.Label("kdb_plan_cache_total", "result", "miss"))
	ratio("kdb.engine.index_hit_ratio",
		telemetry.Label("kdb_index_lookups_total", "result", "hit"), telemetry.Label("kdb_index_lookups_total", "result", "miss"))
	if q, ok := histQuantileDelta(before, after, "kdb_lock_wait_seconds", 0.99); ok {
		r.set("kdb.engine.lock_wait_p99_ms", q*1e3)
	}
}

func counterDelta(before, after usage, name string) (int64, bool) {
	a, ok := after.tel.Counters[name]
	if !ok {
		return 0, false
	}
	return a - before.tel.Counters[name], true
}

// histQuantileDelta estimates a quantile of the observations a program
// histogram received between two snapshots.
func histQuantileDelta(before, after usage, name string, p float64) (float64, bool) {
	a, ok := after.tel.Histograms[name]
	if !ok {
		return 0, false
	}
	d := telemetry.HistogramValue{Bounds: a.Bounds, Cumulative: append([]int64(nil), a.Cumulative...),
		Count: a.Count, Sum: a.Sum}
	if b, ok := before.tel.Histograms[name]; ok && len(b.Cumulative) == len(d.Cumulative) {
		for i := range d.Cumulative {
			d.Cumulative[i] -= b.Cumulative[i]
		}
		d.Count -= b.Count
		d.Sum -= b.Sum
	}
	if d.Count <= 0 {
		return 0, false
	}
	return d.Quantile(p), true
}
