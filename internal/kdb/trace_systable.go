package kdb

// Built-in system tables over the process-wide trace store, served through
// the same materialize-then-select path as provider tables (selectVirtual),
// so the slow-query log and span rings get full SELECT semantics:
//
//	SELECT * FROM __slow_queries WHERE seconds > 0.1 ORDER BY seconds DESC
//	SELECT name, node, seconds FROM __trace_spans WHERE trace_id = ?
//
// They are available on every database (and, via the wire protocol, on
// every served node); an attached SystemTableProvider that claims these
// names wins, since the provider is the read source before this one.

import (
	"strings"
	"time"

	"repro/internal/telemetry"
)

const (
	slowQueriesTable = "__slow_queries"
	traceSpansTable  = "__trace_spans"
)

// selectTraceTable is the second read source: the built-in tracing tables,
// declining every other name.
func selectTraceTable(sel *selectStmt, args []any, st *selectStats) (*Rows, bool, error) {
	if !strings.HasPrefix(sel.Table, "__") {
		return nil, false, nil
	}
	cols, data, claimed := traceSystemTable(strings.ToLower(sel.Table))
	if !claimed {
		return nil, false, nil
	}
	rows, err := selectVirtual(sel, args, cols, data, st)
	return rows, true, err
}

// traceSystemTable materializes one of the built-in tracing tables from
// the process-wide telemetry.Traces store.
func traceSystemTable(name string) (cols []ColumnDef, rows [][]any, claimed bool) {
	switch name {
	case slowQueriesTable:
		cols = []ColumnDef{
			{Name: "trace_id", Type: TText},
			{Name: "sql", Type: TText},
			{Name: "node", Type: TText},
			{Name: "began", Type: TText},
			{Name: "seconds", Type: TReal},
			{Name: "rows", Type: TInteger},
			{Name: "hops", Type: TInteger},
		}
		// One pass over the span ring serves every row's hop count.
		hops := map[string]int64{}
		for _, s := range telemetry.Traces.AllSpans() {
			hops[s.TraceID]++
		}
		for _, q := range telemetry.Traces.SlowQueries() {
			rows = append(rows, []any{
				q.TraceID, q.SQL, q.Node,
				q.Start.UTC().Format(time.RFC3339Nano),
				q.Seconds, q.Rows, hops[q.TraceID],
			})
		}
		return cols, rows, true
	case traceSpansTable:
		cols = []ColumnDef{
			{Name: "trace_id", Type: TText},
			{Name: "span_id", Type: TText},
			{Name: "parent_id", Type: TText},
			{Name: "name", Type: TText},
			{Name: "node", Type: TText},
			{Name: "began", Type: TText},
			{Name: "seconds", Type: TReal},
			{Name: "sql", Type: TText},
			{Name: "attrs", Type: TText},
		}
		for _, s := range telemetry.Traces.AllSpans() {
			rows = append(rows, []any{
				s.TraceID, s.SpanID, s.ParentID, s.Name, s.Node,
				s.Start.UTC().Format(time.RFC3339Nano),
				s.Seconds, s.SQL, s.AttrsText(),
			})
		}
		return cols, rows, true
	}
	return nil, nil, false
}
