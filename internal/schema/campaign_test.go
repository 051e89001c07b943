package schema

import (
	"testing"
	"time"

	"repro/internal/knowledge"
)

func TestSaveObjectsBatch(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids, err := s.SaveObjects([]*knowledge.Object{sampleObject(), sampleObject()})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("ids = %v", ids)
	}
	for _, id := range ids {
		if _, err := s.LoadObject(id); err != nil {
			t.Fatalf("load %d: %v", id, err)
		}
	}
}

func TestSaveIO500sBatch(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids, err := s.SaveIO500s([]*knowledge.IO500Object{sampleIO500(), sampleIO500()})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	got, err := s.LoadIO500(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if got.ScoreTotal != 6.17 {
		t.Errorf("score = %v", got.ScoreTotal)
	}
}

func TestCampaignRoundTrip(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	began := time.Date(2022, 7, 7, 10, 0, 0, 0, time.UTC)
	id, err := s.CreateCampaign("fig3-sweep", 18446744073709551615, 8, 3, began)
	if err != nil {
		t.Fatal(err)
	}
	runs := []CampaignRun{
		{Unit: 0, Name: "t=64k", Seed: 42, Status: "ok", Attempts: 1, WallMS: 12, ObjectIDs: []int64{1, 2}},
		{Unit: 1, Name: "t=1m", Seed: 18446744073709551615, Status: "failed", Attempts: 3, Error: "boom"},
		{Unit: 2, Name: "t=8m", Seed: 7, Status: "cancelled"},
	}
	if err := s.AddCampaignRuns(id, runs); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishCampaign(id, "failed", began.Add(time.Second), 1000); err != nil {
		t.Fatal(err)
	}

	list, err := s.ListCampaignsPage(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "fig3-sweep" || list[0].Status != "failed" {
		t.Fatalf("list = %+v", list)
	}
	// The 64-bit seed above exceeds signed int64 and must round-trip via TEXT.
	if list[0].BaseSeed != 18446744073709551615 {
		t.Errorf("base seed = %d", list[0].BaseSeed)
	}

	meta, got, err := s.LoadCampaign(id)
	if err != nil {
		t.Fatal(err)
	}
	if meta.WallMS != 1000 || meta.Units != 3 || meta.Workers != 8 {
		t.Errorf("meta = %+v", meta)
	}
	if len(got) != 3 {
		t.Fatalf("runs = %d", len(got))
	}
	if got[0].Status != "ok" || len(got[0].ObjectIDs) != 2 || got[0].ObjectIDs[1] != 2 {
		t.Errorf("run0 = %+v", got[0])
	}
	if got[1].Seed != 18446744073709551615 || got[1].Error != "boom" || got[1].Attempts != 3 {
		t.Errorf("run1 = %+v", got[1])
	}
	if got[2].Status != "cancelled" || got[2].ObjectIDs != nil {
		t.Errorf("run2 = %+v", got[2])
	}

	if _, _, err := s.LoadCampaign(999); err == nil {
		t.Error("missing campaign should error")
	}
}
