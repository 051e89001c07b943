package schema

// Request forensics over a knowledge store: the slow-query log and span
// trees assembled from wherever they live. A trace that crossed processes
// is scattered across nodes' ring buffers — each hop recorded where it ran
// — so these helpers union what the store's __slow_queries/__trace_spans
// system tables return (scatter-gathered across shards by the coordinator)
// with the local process's own ring, dedup, and order. Against an old
// server that lacks the system tables they degrade to the local ring alone.

import (
	"sort"
	"time"

	"repro/internal/kdb"
	"repro/internal/telemetry"
)

// SlowQueries returns the slowest logged queries visible from db plus the
// local trace store, slowest first, at most limit entries (limit <= 0
// means all).
func SlowQueries(db kdb.Conn, limit int) []telemetry.SlowQuery {
	seen := map[string]bool{}
	var out []telemetry.SlowQuery
	add := func(q telemetry.SlowQuery) {
		if q.TraceID == "" || seen[q.TraceID] {
			return
		}
		seen[q.TraceID] = true
		out = append(out, q)
	}
	if db != nil {
		rows, err := db.Query("SELECT trace_id, sql, node, began, seconds, rows FROM __slow_queries")
		if err == nil {
			for rows.Next() {
				r := rows.Row()
				add(telemetry.SlowQuery{
					TraceID: asString(r[0]),
					SQL:     asString(r[1]),
					Node:    asString(r[2]),
					Start:   parseBegan(asString(r[3])),
					Seconds: asFloat(r[4]),
					Rows:    asInt(r[5]),
				})
			}
		}
	}
	for _, q := range telemetry.Traces.SlowQueries() {
		add(q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TraceSpans returns every span of one trace visible from db plus the
// local trace store, deduplicated by span id and ordered by start time (a
// parent starts before its children, so this order renders a sensible
// tree even across nodes with slightly skewed clocks).
func TraceSpans(db kdb.Conn, traceID string) []telemetry.SpanRecord {
	seen := map[string]bool{}
	var out []telemetry.SpanRecord
	add := func(s telemetry.SpanRecord) {
		if s.SpanID == "" || seen[s.SpanID] {
			return
		}
		seen[s.SpanID] = true
		out = append(out, s)
	}
	if db != nil && traceID != "" {
		rows, err := db.Query(
			"SELECT span_id, parent_id, name, node, began, seconds, sql, attrs FROM __trace_spans WHERE trace_id = ?",
			traceID)
		if err == nil {
			for rows.Next() {
				r := rows.Row()
				add(telemetry.SpanRecord{
					TraceID:  traceID,
					SpanID:   asString(r[0]),
					ParentID: asString(r[1]),
					Name:     asString(r[2]),
					Node:     asString(r[3]),
					Start:    parseBegan(asString(r[4])),
					Seconds:  asFloat(r[5]),
					SQL:      asString(r[6]),
					Attrs:    telemetry.ParseAttrs(asString(r[7])),
				})
			}
		}
	}
	for _, s := range telemetry.Traces.Spans(traceID) {
		add(s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

func parseBegan(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}
