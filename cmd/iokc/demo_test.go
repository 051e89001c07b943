package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/schema"
)

func TestSeedDemo(t *testing.T) {
	store, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := seedDemo(store); err != nil {
		t.Fatal(err)
	}
	objs, err := store.ListObjects()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Errorf("demo knowledge objects = %d, want 2", len(objs))
	}
	io5, err := store.ListIO500()
	if err != nil {
		t.Fatal(err)
	}
	if len(io5) != 5 {
		t.Errorf("demo io500 runs = %d, want 5", len(io5))
	}
	// The anomalous demo run is detectable.
	o, err := store.LoadObject(2)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := o.SummaryFor("write")
	if w.MinMiBps > w.MeanMiBps*0.7 {
		t.Errorf("demo anomaly missing: min %.0f vs mean %.0f", w.MinMiBps, w.MeanMiBps)
	}
}

// TestServeDemo: `serve --demo --db ”` is the out-of-the-box explorer —
// an in-memory store already holding the demo knowledge.
func TestServeDemo(t *testing.T) {
	if _, err := parseServeArgs([]string{"--nope"}); err == nil {
		t.Error("bad flag should fail")
	}
	addr := reservePort(t)
	cfg, err := parseServeArgs([]string{"--demo", "--db", "", "--addr", addr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- runServe(ctx, cfg) }()

	resp := waitHTTP(t, "http://"+addr+"/v1/objects")
	defer resp.Body.Close()
	var page struct {
		Data []json.RawMessage `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Data) != 2 {
		t.Errorf("served demo objects = %d, want 2", len(page.Data))
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
