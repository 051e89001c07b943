package campaign

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/knowledge"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// TestCampaignPersistsSlowTraces: with the slow-query log armed, a
// self-observing campaign persists its slowest traced requests as
// knowledge objects alongside the usual telemetry object.
func TestCampaignPersistsSlowTraces(t *testing.T) {
	t.Cleanup(func() {
		telemetry.SetSlowQueryThreshold(0)
		telemetry.Traces.Reset()
	})
	telemetry.Traces.Reset()

	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	telemetry.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	s := &Scheduler{Store: st, Workers: 2, BatchSize: 2, Metrics: telemetry.NewRegistry(), SelfObserve: true}
	res, err := s.Run(context.Background(), sweepSpec(t))
	telemetry.SetSlowQueryThreshold(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SlowTraceIDs) == 0 {
		t.Fatal("no slow traces persisted")
	}
	if len(res.SlowTraceIDs) > maxSlowTraces {
		t.Fatalf("persisted %d slow traces, cap is %d", len(res.SlowTraceIDs), maxSlowTraces)
	}
	o, err := st.LoadObject(res.SlowTraceIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	if o.Source != knowledge.SourceTelemetry {
		t.Errorf("source = %q", o.Source)
	}
	if !strings.HasPrefix(o.Command, "iokc-trace ") {
		t.Errorf("command = %q", o.Command)
	}
	if o.Pattern["run"] != "sweep" || o.Pattern["trace_id"] == "" {
		t.Errorf("pattern = %+v", o.Pattern)
	}
	if len(o.Results) == 0 {
		t.Error("trace object has no span results")
	}
}

// TestCampaignNoSlowTracesWithoutThreshold: an unarmed log persists
// nothing extra — SelfObserve alone must not invent trace objects.
func TestCampaignNoSlowTracesWithoutThreshold(t *testing.T) {
	t.Cleanup(func() { telemetry.Traces.Reset() })
	telemetry.Traces.Reset()
	st, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := &Scheduler{Store: st, Workers: 2, BatchSize: 2, Metrics: telemetry.NewRegistry(), SelfObserve: true}
	res, err := s.Run(context.Background(), sweepSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SlowTraceIDs) != 0 {
		t.Fatalf("slow traces persisted without a threshold: %v", res.SlowTraceIDs)
	}
}

// servedStore is a schema store over kdb:// on a fresh in-memory server.
func servedStore(t *testing.T) (*schema.Store, *kdb.DB) {
	t.Helper()
	db := kdbtest.MemDB(t, kdb.DBOptions{})
	st, err := schema.Open(kdbtest.Serve(t, &kdb.Server{DB: db}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, db
}

// TestSelfObservationIsOneSave: over kdb://, a self-observing campaign's
// telemetry object and slow-trace objects together cost the server one
// request, and a trace object that cannot be extracted leaves no telemetry
// object behind — before, they were up to four separate saves, and the
// telemetry object stayed.
func TestSelfObservationIsOneSave(t *testing.T) {
	t.Cleanup(func() {
		telemetry.SetSlowQueryThreshold(0)
		telemetry.Traces.Reset()
	})
	requests := telemetry.Default().Counter("kdb_server_requests_total")
	run := func(selfObserve bool, before func(Unit, int, *cluster.Machine)) (*Result, *kdb.DB, int64, error) {
		telemetry.Traces.Reset()
		st, db := servedStore(t)
		s := &Scheduler{Store: st, Workers: 2, BatchSize: 2, Metrics: telemetry.NewRegistry(),
			SelfObserve: selfObserve, BeforeAttempt: before}
		at := requests.Value()
		res, err := s.Run(context.Background(), sweepSpec(t))
		return res, db, requests.Value() - at, err
	}
	telemetry.SetSlowQueryThreshold(time.Nanosecond) // every request is slow
	_, _, plain, err := run(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _, observed, err := run(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TelemetryID == 0 || len(res.SlowTraceIDs) == 0 {
		t.Fatalf("self-observation persisted telemetry %d and traces %v; the test needs both", res.TelemetryID, res.SlowTraceIDs)
	}
	if n := observed - plain; n != 1 {
		t.Errorf("self-observation cost %d requests, want 1", n)
	}

	// The slowest trace in the window has a span without a name, which no
	// knowledge object can hold.
	unextractable := func(u Unit, attempt int, _ *cluster.Machine) {
		if u.Index == 0 && attempt == 1 {
			telemetry.Traces.RecordSlow(telemetry.SlowQuery{TraceID: "unextractable", Start: time.Now(), Seconds: 1e6})
			telemetry.Traces.Record(telemetry.SpanRecord{TraceID: "unextractable", SpanID: "1"})
		}
	}
	res, db, _, err := run(true, unextractable)
	if err == nil || !strings.Contains(err.Error(), "unextractable") {
		t.Fatalf("campaign with an unextractable slow trace: err = %v", err)
	}
	if res.TelemetryID != 0 {
		t.Errorf("telemetry object %d reported after a failed self-observation", res.TelemetryID)
	}
	if n, err := db.QueryRow("SELECT COUNT(*) FROM performances WHERE source = ?", string(knowledge.SourceTelemetry)); err != nil || n[0] != int64(0) {
		t.Errorf("self-observation objects left behind: %v, %v", n, err)
	}
}
