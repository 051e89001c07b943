package schema

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/kdb/kdbtest"
)

// A load is several statements; a failure of any one of them — the optional
// scores, file-system and system sub-reads included — must fail the load,
// never return the object assembled so far as a success.
func TestLoadFailsWhenAnyStatementFails(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	objID, err := s.SaveObject(sampleObject())
	if err != nil {
		t.Fatal(err)
	}
	runID, err := s.SaveIO500(sampleIO500())
	if err != nil {
		t.Fatal(err)
	}
	loads := map[string]func(*Store) (any, error){
		"LoadObject": func(s *Store) (any, error) { return s.LoadObject(objID) },
		"LoadIO500":  func(s *Store) (any, error) { return s.LoadIO500(runID) },
	}
	for name, load := range loads {
		clean := &kdbtest.FailNth{Conn: s.DB}
		want, err := load(&Store{DB: clean})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if clean.Reads < 4 {
			t.Fatalf("%s issued %d reads; the double is not in the path", name, clean.Reads)
		}
		for n := 1; n <= clean.Reads; n++ {
			got, err := load(&Store{DB: &kdbtest.FailNth{Conn: s.DB, N: n}})
			if !errors.Is(err, kdbtest.ErrInjected) {
				t.Errorf("%s with read %d of %d failing: err = %v (object returned: %v)", name, n, clean.Reads, err, got != nil)
			}
		}
		// One past the last statement the failure is never reached.
		got, err := load(&Store{DB: &kdbtest.FailNth{Conn: s.DB, N: clean.Reads + 1}})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s with no read failing: (%+v, %v), want %+v", name, got, err, want)
		}
	}
}

// The sections stay optional: a run with no scores row or system info and an
// object with no file-system or system info load with those fields empty,
// not as errors.
func TestLoadToleratesAbsentSections(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	obj := sampleObject()
	obj.FileSystem, obj.System = nil, nil
	objID, err := s.SaveObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.LoadObject(objID); err != nil || got.FileSystem != nil || got.System != nil {
		t.Fatalf("LoadObject = (%+v, %v)", got, err)
	}
	run := sampleIO500()
	run.System = nil
	runID, err := s.SaveIO500(run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB.Exec("DELETE FROM IOFHsScores WHERE IOFH_id = ?", runID); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadIO500(runID)
	if err != nil || got.System != nil || got.ScoreTotal != 0 || len(got.TestCases) != len(run.TestCases) {
		t.Fatalf("LoadIO500 = (%+v, %v)", got, err)
	}
}
