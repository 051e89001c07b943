// Package loadgen synthesizes IOR-shaped knowledge objects for load tests
// and benchmarks: enough structure (two summaries per run, a few results)
// that point reads return real payloads and analytics queries aggregate
// over real rows.
package loadgen

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/knowledge"
	"repro/internal/rng"
)

// SynthesizeObjects builds n valid IOR knowledge objects deterministically
// from seed (each passes knowledge.Object.Validate: source, command, and
// at least one summary).
func SynthesizeObjects(n int, seed uint64) []*knowledge.Object {
	began := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	objs := make([]*knowledge.Object, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Derive(seed, uint64(i)+0x10F)
		// Spread bandwidths over a plausible range; keep them derived so
		// repeated seeds produce byte-identical corpora.
		writeMiB := 800 + float64(r%4200)
		readMiB := writeMiB * (1.1 + float64(r>>8%100)/500)
		tasks := 1 << (r >> 16 % 6) // 1..32
		o := &knowledge.Object{
			Source:  knowledge.Source("ior"),
			Command: fmt.Sprintf("ior -a MPIIO -b 16m -t 1m -s 16 -np %d", tasks),
			Began:   began.Add(time.Duration(i) * time.Minute),
			Pattern: map[string]string{
				"api":          "MPIIO",
				"blockSize":    "16777216",
				"transferSize": "1048576",
				"segmentCount": "16",
				"tasks":        strconv.Itoa(tasks),
			},
		}
		o.Finished = o.Began.Add(90 * time.Second)
		for _, op := range []struct {
			name string
			mib  float64
		}{{"write", writeMiB}, {"read", readMiB}} {
			o.Summaries = append(o.Summaries, knowledge.Summary{
				Operation:  op.name,
				API:        "MPIIO",
				MaxMiBps:   op.mib * 1.05,
				MinMiBps:   op.mib * 0.95,
				MeanMiBps:  op.mib,
				StdDevMiB:  op.mib * 0.02,
				MeanOps:    op.mib / 16,
				MeanSec:    float64(16*16*tasks) / op.mib,
				Iterations: 3,
			})
			for it := 0; it < 3; it++ {
				o.Results = append(o.Results, knowledge.Result{
					Operation: op.name,
					Iteration: it,
					BwMiBps:   op.mib * (0.97 + 0.02*float64(it)),
					OpsPerSec: op.mib / 16,
					TotalSec:  float64(16*16*tasks) / op.mib,
				})
			}
		}
		objs = append(objs, o)
	}
	return objs
}
