package repl_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/kdb"
	"repro/internal/loadgen"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/workloadgen"
)

// servedDB is a replica that answers from a database of its own and always
// reports itself fresh enough: a session that has written nothing waits for
// no LSN.
type servedDB struct{ *kdb.DB }

func (r servedDB) Status() (kdb.NodeStatus, error) {
	return kdb.NodeStatus{Role: "replica", LSN: r.DB.LSN()}, nil
}

// A point load is several statements. Routed across two fresh replicas, one
// of which has not applied the newest object yet, every load must come from
// one of them: the whole object, or not found — never the header from one
// node and the empty child tables of the other.
func TestLoadReadsOneNode(t *testing.T) {
	open := func() *schema.Store {
		s, err := schema.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	ahead, behind := open(), open()
	objs := loadgen.SynthesizeObjects(3, 7)
	runs, err := workloadgen.SynthesizeIO500Corpus(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*schema.Store{ahead, behind} {
		if _, err := s.SaveObjects(objs[:2]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SaveIO500s(runs[:2]); err != nil {
			t.Fatal(err)
		}
	}
	objID, err := ahead.SaveObject(objs[2])
	if err != nil {
		t.Fatal(err)
	}
	runID, err := ahead.SaveIO500(runs[2])
	if err != nil {
		t.Fatal(err)
	}
	wantObj, err := ahead.LoadObject(objID)
	if err != nil {
		t.Fatal(err)
	}
	wantRun, err := ahead.LoadIO500(runID)
	if err != nil {
		t.Fatal(err)
	}

	rt := repl.NewRouter(ahead.DB, servedDB{ahead.DB.(*kdb.DB)}, servedDB{behind.DB.(*kdb.DB)})
	routed := &schema.Store{DB: rt}
	loads := []struct {
		name string
		want any
		load func() (any, error)
	}{
		{"LoadObject", wantObj, func() (any, error) { return routed.LoadObject(objID) }},
		{"LoadIO500", wantRun, func() (any, error) { return routed.LoadIO500(runID) }},
	}
	for _, l := range loads {
		whole, missing := 0, 0
		for i := 0; i < 20; i++ {
			got, err := l.load()
			switch {
			case errors.Is(err, schema.ErrNotFound):
				missing++
			case err != nil:
				t.Fatalf("%s %d: %v", l.name, i, err)
			case !reflect.DeepEqual(got, l.want):
				t.Fatalf("%s %d returned a torn object:\n got %+v\nwant %+v", l.name, i, got, l.want)
			default:
				whole++
			}
		}
		if whole == 0 || missing == 0 {
			t.Errorf("%s: %d whole, %d not found; the router did not spread the loads over both replicas", l.name, whole, missing)
		}
	}
}
