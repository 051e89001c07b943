package main

import (
	"fmt"
	"testing"
)

func sequence(seed uint64, client, n int) []string {
	g := newRequestGen(seed, client, 1000, 300)
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprint(g.next())
	}
	return out
}

func TestRequestStreamIsDeterministicPerSeedAndClient(t *testing.T) {
	a, b := sequence(7, 0, 2000), sequence(7, 0, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
	differs := func(x, y []string) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !differs(a, sequence(8, 0, 2000)) {
		t.Error("another seed gave the same stream")
	}
	if !differs(a, sequence(7, 1, 2000)) {
		t.Error("the two clients share a stream")
	}
	if streamHash(7, 1000, 300, 10000) != streamHash(7, 1000, 300, 10000) ||
		streamHash(7, 1000, 300, 10000) == streamHash(8, 1000, 300, 10000) {
		t.Error("stream fingerprint does not follow the seed")
	}
}

func TestRequestMixAndSkew(t *testing.T) {
	g := newRequestGen(3, 0, 1000, 300)
	kinds := map[int]int{}
	newest := 0
	const n = 50000
	for i := 0; i < n; i++ {
		r := g.next()
		kinds[r.kind]++
		switch r.kind {
		case kindObject:
			if r.arg < 1 || r.arg > 1000 {
				t.Fatalf("object id %d out of the corpus", r.arg)
			}
			if r.arg == 1000 {
				newest++
			}
		case kindIO500:
			if r.arg < 1 || r.arg > 300 {
				t.Fatalf("io500 id %d out of the corpus", r.arg)
			}
		case kindQuery:
			if r.arg < 0 || int(r.arg) >= len(apiQueries) {
				t.Fatalf("query index %d", r.arg)
			}
		}
	}
	for kind, want := range map[int]float64{kindObject: 0.3, kindIO500: 0.3, kindQuery: 0.2, kindScan: 0.2} {
		if got := float64(kinds[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("kind %d share = %.3f, want about %.1f", kind, got, want)
		}
	}
	// Zipf(1.1) over 1000 ids gives the top rank roughly 13% of the draws.
	if share := float64(newest) / float64(kinds[kindObject]); share < 0.08 || share > 0.2 {
		t.Errorf("newest object drew %.3f of the object reads; the skew is off", share)
	}
}

func TestCampaignSpecFollowsThePattern(t *testing.T) {
	gens, err := campaignGenerators(20)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ior", "ior", "ior", "ior", "ior", "ior", "ior", "ior", "io500", "haccio"}
	for i, g := range gens {
		if g.Name() != want[i%10] {
			t.Errorf("unit %d is %s, want %s", i, g.Name(), want[i%10])
		}
	}
	if n := countKinds([]campaignPlan{{units: 128}, {units: 200}}, func(k string) bool { return k == "io500" }); n != 12+20 {
		t.Errorf("io500 units = %d, want 32", n)
	}
}
