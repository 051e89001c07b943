package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/extract"
	"repro/internal/kdb"
	"repro/internal/rng"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

func TestDeriveSeed(t *testing.T) {
	if got, want := DeriveSeed(42, 0), rng.New(42).Uint64(); got != want {
		t.Errorf("DeriveSeed(42, 0) = %d, want first stream output %d", got, want)
	}
	// Derive(base, n) indexes the SplitMix64 stream in O(1): it must agree
	// with stepping a generator n times.
	s := rng.New(99)
	for n := uint64(0); n < 100; n++ {
		if got, want := DeriveSeed(99, n), s.Uint64(); got != want {
			t.Fatalf("DeriveSeed(99, %d) = %d, want %d", n, got, want)
		}
	}
	seen := map[uint64]bool{}
	for n := uint64(0); n < 1000; n++ {
		seen[DeriveSeed(7, n)] = true
	}
	if len(seen) != 1000 {
		t.Errorf("only %d distinct seeds in 1000 derivations", len(seen))
	}
}

func TestCycleRunsSeeDistinctNoise(t *testing.T) {
	c := newCycle(t)
	g := IORGenerator{Config: paperIORConfig(t)}
	rep1, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	o1, err := c.Store.LoadObject(rep1.ObjectIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c.Store.LoadObject(rep2.ObjectIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	if o1.Results[0].BwMiBps == o2.Results[0].BwMiBps {
		t.Error("second Run replayed the first run's noise stream")
	}
	// The first Run still uses the base seed verbatim, so a fresh cycle
	// reproduces it exactly.
	c2 := newCycle(t)
	rep3, err := c2.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	o3, err := c2.Store.LoadObject(rep3.ObjectIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	if o1.Results[0].BwMiBps != o3.Results[0].BwMiBps {
		t.Error("first Run is no longer reproducible from the base seed")
	}
}

// countingConn counts Exec calls and fails every call past the limit (a
// limit of 0 never fails), simulating a store that dies mid-persistence.
type countingConn struct {
	kdb.Conn
	mu    sync.Mutex
	n     int
	limit int
}

func (c *countingConn) Exec(query string, args ...any) (kdb.Result, error) {
	c.mu.Lock()
	c.n++
	fail := c.limit > 0 && c.n > c.limit
	c.mu.Unlock()
	if fail {
		return kdb.Result{}, fmt.Errorf("simulated disk full")
	}
	return c.Conn.Exec(query, args...)
}

// ExecTraced counts too: a wrapper that intercepts statements overrides
// both pairs (see kdb.Conn), or a forwarding layer would bypass it.
func (c *countingConn) ExecTraced(_ telemetry.TraceContext, query string, args ...any) (kdb.Result, error) {
	return c.Exec(query, args...)
}

// twoArtifacts runs an inner generator twice so the cycle has a multi-
// artifact persistence loop to fail in the middle of.
type twoArtifacts struct{ inner Generator }

func (twoArtifacts) Name() string { return "two" }

func (g twoArtifacts) Generate(ctx *Context) ([]Artifact, error) {
	a, err := g.inner.Generate(ctx)
	if err != nil {
		return nil, err
	}
	b, err := g.inner.Generate(&Context{Machine: ctx.Machine, Seed: ctx.Seed + 1})
	if err != nil {
		return nil, err
	}
	return append(a, b...), nil
}

func TestRunReturnsPartialReportOnPersistFailure(t *testing.T) {
	g := twoArtifacts{inner: IORGenerator{Config: paperIORConfig(t)}}

	// First pass: count how many Execs persisting one artifact costs.
	cFull, err := New(cluster.FuchsCSC(), 42)
	if err != nil {
		t.Fatal(err)
	}
	probe := &countingConn{Conn: cFull.Store.DB}
	cFull.Store.DB = probe
	if _, err := cFull.Run(IORGenerator{Config: paperIORConfig(t)}); err != nil {
		t.Fatal(err)
	}
	perArtifact := probe.n

	// Second pass: allow artifact 1 through, fail partway into artifact 2.
	cReal, err := New(cluster.FuchsCSC(), 42)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &countingConn{Conn: cReal.Store.DB, limit: perArtifact + 3}
	cReal.Store.DB = flaky
	rep, err := cReal.Run(g)
	if err == nil {
		t.Fatal("expected a persistence error")
	}
	if rep == nil {
		t.Fatal("persistence failure must still return the partial report")
	}
	if len(rep.ObjectIDs) != 1 {
		t.Errorf("partial report has %d object ids, want 1", len(rep.ObjectIDs))
	}
	if len(rep.Extractions) != 2 {
		t.Errorf("partial report has %d extractions, want 2", len(rep.Extractions))
	}
	if !strings.Contains(err.Error(), "artifact 2 of 2") || !strings.Contains(err.Error(), "1 saved before it") {
		t.Errorf("error does not annotate the failing artifact: %v", err)
	}
	// The object persisted before the failure is loadable.
	cReal.Store.DB = flaky.Conn
	if _, err := cReal.Store.LoadObject(rep.ObjectIDs[0]); err != nil {
		t.Errorf("pre-failure object not loadable: %v", err)
	}
}

func TestExtractionFailureStoresNothing(t *testing.T) {
	c := newCycle(t)
	bad := staticGenerator{arts: []Artifact{
		{Name: "good", Data: mustIOROutput(t)},
		{Name: "garbage", Data: []byte("not a benchmark output")},
	}}
	if _, err := c.Run(bad); err == nil {
		t.Fatal("expected extraction error")
	}
	metas, err := c.Store.ListObjects()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 0 {
		t.Errorf("%d objects stored despite extraction failure, want 0", len(metas))
	}
}

type staticGenerator struct{ arts []Artifact }

func (staticGenerator) Name() string { return "static" }

func (g staticGenerator) Generate(*Context) ([]Artifact, error) { return g.arts, nil }

func mustIOROutput(t *testing.T) []byte {
	t.Helper()
	g := IORGenerator{Config: paperIORConfig(t)}
	arts, err := g.Generate(&Context{Machine: cluster.FuchsCSC(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return arts[0].Data
}

func TestConcurrentCyclesSharedStore(t *testing.T) {
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine owns its machine and cycle; only the store is
			// shared — the campaign scheduler's exact sharing pattern.
			c := &Cycle{
				Machine:  cluster.FuchsCSC(),
				Registry: extract.NewRegistry(),
				Store:    st,
				Seed:     DeriveSeed(42, uint64(w)),
			}
			for i := 0; i < 3; i++ {
				if _, err := c.Run(IORGenerator{Config: paperIORConfig(t)}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	metas, err := st.ListObjects()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != workers*3 {
		t.Errorf("stored %d objects, want %d", len(metas), workers*3)
	}
}
