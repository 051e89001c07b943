package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per seam the benchmark wraps from outside. A span's
// layer is its name; the chain tables key on these.
const (
	spClient = "client"        // bench HTTP client, one per request
	spServe  = "api.serve"     // bench http.Handler around api.Server
	spStore  = "store"         // the kdb.Conn handed to schema.Wrap
	spWire   = "kdb.wire"      // a *kdb.Remote round trip
	spEngine = "kdb.engine"    // the *kdb.DB behind kdb.Server.Backend (or embedded)
	spGen    = "core.generate" // one core.Generator.Generate call
	spRoot   = "root"          // a bench-owned outermost span (window, cycle, probe)
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent indexes tracer.spans (-1 for none); Req groups
// the spans of one operation; N carries rows returned where that applies.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Req    int64
	N      int32
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are linked and written out when the
// run ends. While off (the untraced slices of a traced invocation) begin
// returns -1 and finish does nothing, so a wrapper costs one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) finish(name string, start, req int64, n int) {
	if start < 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: -1, Req: req, N: int32(n)})
	t.mu.Unlock()
}

// parentLayers says which layers may contain a span of each layer, from
// the outside in. Generator spans have none: generation runs on the
// scheduler's workers beside the persisting collector, not under it. schema.Store takes no context, so below the HTTP handler
// a span's parent is found by interval containment; that is only sound
// while each candidate layer has one span in flight, which is why traced
// API passes run one client.
var parentLayers = map[string][]string{
	spServe:  {spClient},
	spStore:  {spServe, spRoot},
	spWire:   {spStore, spRoot},
	spEngine: {spWire, spServe, spRoot},
}

// link assigns Parent (the innermost candidate-layer span containing the
// child) and propagates Req from parent to child. A span of a layer not in
// parentLayers — the bench's own timers on analytics_churn — belongs to the
// root span containing it.
func link(spans []span) {
	byName := map[string][]int32{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], int32(i))
	}
	// Outer layers first, so Req is already set on a parent when its
	// children inherit it.
	order := []string{spServe, spStore, spWire, spEngine}
	for name, idx := range byName {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
		if _, known := parentLayers[name]; !known && name != spClient && name != spRoot && name != spGen {
			order = append(order, name)
		}
	}
	for _, name := range order {
		parents, known := parentLayers[name]
		if !known {
			parents = []string{spRoot}
		}
		for _, ci := range byName[name] {
			c := &spans[ci]
			for _, pl := range parents {
				cand := byName[pl]
				k := sort.Search(len(cand), func(j int) bool { return spans[cand[j]].Start > c.Start }) - 1
				if k >= 0 && spans[cand[k]].End >= c.End {
					c.Parent = cand[k]
					if c.Req == 0 {
						c.Req = spans[cand[k]].Req
					}
					break
				}
			}
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Children may overlap each other or stick out of
// the parent; the covered part is the union of their intervals clipped to
// the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// chainRow is one layer's part of the blocking chain of a workload's
// operations: the median self time per operation and the layer's share of
// all operation time.
type chainRow struct {
	Layer string  `json:"layer"`
	P50MS float64 `json:"self_p50_ms"`
	Share float64 `json:"share"`
	Spans int     `json:"spans"`
	PerOp float64 `json:"spans_per_op"`
}

// chain attributes every span's self time to its root operation (walking
// Parent up to a span named rootName) and reports per layer the median
// per-operation self time and the share of total root time. Shares sum to
// 1 when every span lies inside its parent.
func chain(spans []span, rootName string) []chainRow {
	self := selfTimes(spans)
	rootOf := make([]int32, len(spans))
	for i := range spans {
		r := int32(i)
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		if spans[r].Name != rootName {
			r = -1
		}
		rootOf[i] = r
	}
	type acc struct {
		perRoot map[int32]int64
		spans   int
		sum     int64
	}
	layers := map[string]*acc{}
	var rootSum int64
	roots := 0
	for i, s := range spans {
		if rootOf[i] < 0 {
			continue
		}
		if s.Name == rootName {
			rootSum += s.dur()
			roots++
		}
		a := layers[s.Name]
		if a == nil {
			a = &acc{perRoot: map[int32]int64{}}
			layers[s.Name] = a
		}
		a.perRoot[rootOf[i]] += self[i]
		a.spans++
		a.sum += self[i]
	}
	var out []chainRow
	for name, a := range layers {
		// An operation that never reached the layer contributes a zero,
		// so the median describes the typical operation, not the typical
		// operation that got that far.
		per := make([]float64, 0, roots)
		for _, v := range a.perRoot {
			per = append(per, float64(v)/1e6)
		}
		for len(per) < roots {
			per = append(per, 0)
		}
		row := chainRow{Layer: name, P50MS: median(per), Spans: a.spans}
		if rootSum > 0 {
			row.Share = float64(a.sum) / float64(rootSum)
		}
		if roots > 0 {
			row.PerOp = float64(a.spans) / float64(roots)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Share > out[j].Share })
	return out
}

// selfOf collects the self times (ms) of every span named name.
func selfOf(spans []span, self []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}

// dursOf collects the durations (ms) of every span named name.
func dursOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans dumps the spans as a JSON array, one object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n")
	buf := make([]byte, 0, 160)
	for i, s := range spans {
		buf = buf[:0]
		buf = append(buf, `{"name":`...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, `,"request":`...)
		buf = strconv.AppendInt(buf, s.Req, 10)
		buf = append(buf, '}')
		if i < len(spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
