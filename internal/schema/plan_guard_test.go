package schema

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/telemetry"
	"repro/internal/workloadgen"
)

// Every statement the store's point loads and keyset pages issue must reach
// its rows through an access path: an index or key range for the base table
// and the joined table's own index for a join. A foreign key added to the
// schema without an index, or an engine change that stops recognising one
// of these statements, shows up here as a "scan", "hash-join" or
// "loop-join" in the db.select span rather than later in the benchmark.
func TestLoadsAndPagesNeverScan(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var objID, runID int64
	for i := 0; i < 5; i++ {
		if objID, err = s.SaveObject(sampleObject()); err != nil {
			t.Fatal(err)
		}
	}
	corpus, err := workloadgen.SynthesizeIO500Corpus(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	runIDs, err := s.SaveIO500s(corpus)
	if err != nil {
		t.Fatal(err)
	}
	runID = runIDs[2]
	var campID int64
	for i := 0; i < 3; i++ {
		if campID, err = s.CreateCampaign("c", uint64(i), 2, 2, time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddCampaignRuns(campID, []CampaignRun{{Unit: 0, Name: "u0"}, {Unit: 1, Name: "u1"}}); err != nil {
			t.Fatal(err)
		}
	}

	resetTraces(t)
	telemetry.SetTracing(true)
	t.Cleanup(func() { telemetry.SetTracing(false) })
	reads := []struct {
		name    string
		selects int
		run     func() error
	}{
		// performances, summaries, summaries JOIN results, filesystems, systeminfos
		{"LoadObject", 5, func() error { _, err := s.LoadObject(objID); return err }},
		// IOFHsRuns, IOFHsScores, testcases JOIN results, IOFHsOptions, systeminfos
		{"LoadIO500", 5, func() error { _, err := s.LoadIO500(runID); return err }},
		{"MeanBandwidth", 1, func() error { _, err := s.MeanBandwidth(objID, "write"); return err }},
		{"LoadCampaign", 2, func() error { _, _, err := s.LoadCampaign(campID); return err }},
		{"ListObjectsPage", 1, func() error { _, err := s.ListObjectsPage(2, 2); return err }},
		{"ListIO500Page", 1, func() error { _, err := s.ListIO500Page(0, 2); return err }},
		{"ListCampaignsPage", 1, func() error { _, err := s.ListCampaignsPage(1, 2); return err }},
	}
	for _, r := range reads {
		telemetry.Traces.Reset()
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		selects := 0
		for _, span := range telemetry.Traces.AllSpans() {
			if span.Name != "db.select" {
				continue
			}
			selects++
			attrs := " " + span.AttrsText() + " "
			if !strings.Contains(attrs, " path=") {
				t.Errorf("%s: db.select span without a path: %q", r.name, attrs)
			}
			for _, slow := range []string{"path=scan", "hash-join", "loop-join"} {
				if strings.Contains(attrs, slow) {
					t.Errorf("%s: %s\n\truns as%s", r.name, span.SQL, attrs)
				}
			}
			if strings.Contains(span.SQL, " JOIN ") && !strings.Contains(attrs, "index-join") {
				t.Errorf("%s: %s\n\tjoins without the joined table's index:%s", r.name, span.SQL, attrs)
			}
		}
		if selects != r.selects {
			t.Errorf("%s issued %d SELECTs, want %d; update this guard with the method", r.name, selects, r.selects)
		}
	}

	// Over the wire each point load is one read step: one round trip.
	served, err := Open(kdbtest.Serve(t, &kdb.Server{DB: s.DB.(*kdb.DB)}))
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	loads := map[string]func() error{
		"LoadObject":   func() error { _, err := served.LoadObject(objID); return err },
		"LoadIO500":    func() error { _, err := served.LoadIO500(runID); return err },
		"LoadCampaign": func() error { _, _, err := served.LoadCampaign(campID); return err },
	}
	for name, load := range loads {
		telemetry.Traces.Reset()
		if err := load(); err != nil {
			t.Fatalf("%s over the wire: %v", name, err)
		}
		trips := map[string]int{}
		for _, span := range telemetry.Traces.AllSpans() {
			if strings.HasPrefix(span.Name, "rpc.") {
				trips[span.Name]++
			}
		}
		if trips["rpc.read"] != 1 || len(trips) != 1 {
			t.Errorf("%s over the wire made round trips %v, want one rpc.read", name, trips)
		}
	}
}
