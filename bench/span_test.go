package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "d", Start: 25, End: 28, Parent: 0},  // inside a and b
		{Name: "leaf", Start: 21, End: 22, Parent: 2},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100): 50 of the parent's 100.
	if self[0] != 50 {
		t.Errorf("parent self = %d, want 50", self[0])
	}
	if self[1] != 20 || self[3] != 30 || self[4] != 3 {
		t.Errorf("childless spans keep their duration: %v", self)
	}
	if self[2] != 29 {
		t.Errorf("b self = %d, want 29", self[2])
	}
}

func TestLinkFindsParentsByContainment(t *testing.T) {
	spans := []span{
		{Name: spClient, Start: 0, End: 100, Parent: -1, Req: 7},
		{Name: spServe, Start: 10, End: 90, Parent: -1, Req: 7},
		{Name: spStore, Start: 20, End: 40, Parent: -1},
		{Name: spWire, Start: 22, End: 38, Parent: -1},
		{Name: spEngine, Start: 25, End: 30, Parent: -1},
		{Name: spStore, Start: 50, End: 60, Parent: -1},
		{Name: spClient, Start: 200, End: 300, Parent: -1, Req: 8},
		{Name: spServe, Start: 210, End: 290, Parent: -1, Req: 8},
		{Name: spEngine, Start: 150, End: 160, Parent: -1}, // a foreign write between requests
	}
	link(spans)
	want := []int32{-1, 0, 1, 2, 3, 1, -1, 6, -1}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, want[i])
		}
	}
	if spans[4].Req != 7 {
		t.Errorf("engine span did not inherit the request id: %d", spans[4].Req)
	}

	rows := chain(spans, spClient)
	total := 0.0
	byLayer := map[string]chainRow{}
	for _, r := range rows {
		total += r.Share
		byLayer[r.Layer] = r
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", total)
	}
	// Engine: 5 ns of 200 ns of client time; the orphan is not counted.
	if e := byLayer[spEngine]; e.Spans != 1 || math.Abs(e.Share-5.0/200) > 1e-9 {
		t.Errorf("engine row = %+v", e)
	}
	// The second request never reached the store: its zero pulls the
	// per-operation median of the store layer to the middle.
	if s := byLayer[spStore]; s.Spans != 2 || s.PerOp != 1 {
		t.Errorf("store row = %+v", s)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.finish("x", tr.begin(), 0, 0)
	if len(tr.spans) != 0 {
		t.Fatalf("spans recorded while off: %v", tr.spans)
	}
	var none *tracer
	none.finish("x", none.begin(), 0, 0) // a nil tracer is an untraced run
	tr.on.Store(true)
	tr.finish("x", tr.begin(), 3, 9)
	if len(tr.spans) != 1 || tr.spans[0].Req != 3 || tr.spans[0].N != 9 || tr.spans[0].End < tr.spans[0].Start {
		t.Fatalf("span = %+v", tr.spans)
	}
}
