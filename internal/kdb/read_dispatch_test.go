package kdb

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// fakeProvider claims the names in tables and fails on the names in errs.
type fakeProvider struct {
	tables map[string][][]any
	errs   map[string]error
}

func (p fakeProvider) SystemTable(name string, _ map[string]any) ([]ColumnDef, [][]any, bool, error) {
	if err := p.errs[name]; err != nil {
		return nil, nil, false, err
	}
	rows, ok := p.tables[name]
	return []ColumnDef{{Name: "name", Type: TText}}, rows, ok, nil
}

// fakeColumnar answers every analytical plan the same way.
type fakeColumnar struct {
	rows   *Rows
	served bool
	err    error
}

func (c fakeColumnar) AnalyticQuery(*AnalyticPlan, []any) (*Rows, bool, error) {
	return c.rows, c.served, c.err
}

// TestReadDispatch walks QueryTraced's source list: who serves a statement,
// what a decline and an error do at each position, and what the one
// db.select span says about it.
func TestReadDispatch(t *testing.T) {
	resetTracing(t)
	telemetry.SetTracing(true)
	db := memDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE m (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO m (v) VALUES (1), (2), (3)")

	provider := fakeProvider{
		tables: map[string][][]any{traceSpansTable: {{"from the provider"}}},
		errs:   map[string]error{"__broken": errors.New("provider down")},
	}
	columnarRows := NewRows([]string{"count(*)"}, [][]any{{int64(42)}})
	const count = "SELECT COUNT(*) FROM m"
	cases := []struct {
		name     string
		provider SystemTableProvider
		columnar ColumnarBackend
		sql      string
		want     any    // first cell of the result
		wantErr  string // or the error
		path     string
	}{
		{name: "provider beats the built-in table of the same name", provider: provider,
			sql: "SELECT name FROM __trace_spans", want: "from the provider", path: "system"},
		{name: "provider declines, built-in serves", provider: provider,
			sql: "SELECT COUNT(*) FROM __slow_queries", want: int64(0), path: "system"},
		{name: "provider error fails the statement", provider: provider,
			sql: "SELECT name FROM __broken", wantErr: "provider down"},
		{name: "nobody claims the name", provider: provider,
			sql: "SELECT name FROM __nothing", wantErr: "no such table"},
		{name: "columnar serves", columnar: fakeColumnar{rows: columnarRows, served: true},
			sql: count, want: int64(42), path: "columnar"},
		{name: "columnar declines", columnar: fakeColumnar{},
			sql: count, want: int64(3), path: "scan"},
		{name: "columnar error is a decline", columnar: fakeColumnar{rows: columnarRows, served: true, err: errors.New("stale")},
			sql: count, want: int64(3), path: "scan"},
		{name: "columnar is not offered a point read", columnar: fakeColumnar{rows: columnarRows, served: true},
			sql: "SELECT v FROM m WHERE id = 2", want: int64(2), path: "index"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db.SetSystemTables(c.provider)
			db.SetColumnar(c.columnar)
			defer db.SetSystemTables(nil)
			defer db.SetColumnar(nil)
			telemetry.Traces.Reset()
			rows, err := db.Query(c.sql)
			spans := telemetry.Traces.AllSpans()
			if len(spans) != 1 || spans[0].Name != "db.select" {
				t.Fatalf("spans = %+v, want one db.select", spans)
			}
			attrs := map[string]string{}
			for _, a := range spans[0].Attrs {
				attrs[a.Key] = a.Value
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				if _, stamped := attrs["path"]; stamped || !strings.Contains(attrs["error"], c.wantErr) {
					t.Errorf("failed hop attrs = %v, want the error and no path", attrs)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := rows.All(); len(got) != 1 || got[0][0] != c.want {
				t.Errorf("rows = %v, want [[%v]]", got, c.want)
			}
			if attrs["path"] != c.path || attrs["rows"] != "1" || attrs["error"] != "" {
				t.Errorf("hop attrs = %v, want path=%s rows=1", attrs, c.path)
			}
		})
	}
}

// TestReadDispatchDetachUnderQueries detaches and reattaches both hooks
// while readers run; under -race this is the check that the source list
// reads each hook once.
func TestReadDispatchDetachUnderQueries(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE m (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO m (v) VALUES (1), (2), (3)")
	provider := fakeProvider{tables: map[string][][]any{"__names": {{"x"}}}}
	columnar := fakeColumnar{rows: NewRows([]string{"count(*)"}, [][]any{{int64(3)}}), served: true}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Attached or not, the count is 3; the system table is
				// either served or unknown, never anything else.
				if rows, err := db.Query("SELECT COUNT(*) FROM m"); err != nil || rows.All()[0][0] != int64(3) {
					t.Errorf("count = %v, %v", rows, err)
					return
				}
				if _, err := db.Query("SELECT name FROM __names"); err != nil && !strings.Contains(err.Error(), "no such table") {
					t.Errorf("system table: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		db.SetSystemTables(provider)
		db.SetColumnar(columnar)
		db.SetSystemTables(nil)
		db.SetColumnar(nil)
	}
	close(stop)
	wg.Wait()
}
