package telemetry

// Trace artifacts carry one slow query — its SQL and its full span tree —
// through the extraction pipeline, the same way phase-timing artifacts do
// for campaign telemetry: a line format the TraceExtractor can sniff by
// prefix and parse back into a knowledge object. Values that may contain
// spaces (SQL, span names, node names, the attrs text) are strconv-quoted.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TraceArtifactPrefix is the sniffable first-line prefix of a trace
// artifact.
const TraceArtifactPrefix = "# iokc-trace"

// WriteTraceArtifact renders one slow query and its spans:
//
//	# iokc-trace run=NAME trace_id=HEX node="coordinator" seconds=0.42 rows=128
//	sql "SELECT ..."
//	span name="coordinator.scatter" id=a1 parent= node="coordinator" seconds=0.41 attrs="fanout=4 rows=128"
func WriteTraceArtifact(w io.Writer, run string, slow SlowQuery, spans []SpanRecord) error {
	if _, err := fmt.Fprintf(w, "%s run=%s trace_id=%s node=%s seconds=%s rows=%d\n",
		TraceArtifactPrefix, quoteIfNeeded(run), quoteIfNeeded(slow.TraceID), strconv.Quote(slow.Node),
		formatFloat(slow.Seconds), slow.Rows); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "sql %s\n", strconv.Quote(slow.SQL)); err != nil {
		return err
	}
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "span name=%s id=%s parent=%s node=%s seconds=%s attrs=%s\n",
			strconv.Quote(s.Name), quoteIfNeeded(s.SpanID), quoteIfNeeded(s.ParentID), strconv.Quote(s.Node),
			formatFloat(s.Seconds), strconv.Quote(s.AttrsText())); err != nil {
			return err
		}
	}
	return nil
}

// TraceArtifact renders the artifact to a byte slice.
func TraceArtifact(run string, slow SlowQuery, spans []SpanRecord) []byte {
	var b bytes.Buffer
	WriteTraceArtifact(&b, run, slow, spans)
	return b.Bytes()
}

// ParseTraceArtifact parses data produced by WriteTraceArtifact.
func ParseTraceArtifact(data []byte) (run string, slow SlowQuery, spans []SpanRecord, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sawHeader := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, TraceArtifactPrefix):
			fields, perr := parseArtifactFields(strings.TrimSpace(line[len(TraceArtifactPrefix):]))
			if perr != nil {
				return "", SlowQuery{}, nil, fmt.Errorf("trace artifact header: %w", perr)
			}
			run = fields["run"]
			slow.TraceID = fields["trace_id"]
			slow.Node = fields["node"]
			slow.Seconds, _ = strconv.ParseFloat(fields["seconds"], 64)
			slow.Rows, _ = strconv.ParseInt(fields["rows"], 10, 64)
			sawHeader = true
		case strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "sql "):
			sql, perr := strconv.Unquote(strings.TrimSpace(line[4:]))
			if perr != nil {
				return "", SlowQuery{}, nil, fmt.Errorf("trace artifact sql line: %w", perr)
			}
			slow.SQL = sql
		case strings.HasPrefix(line, "span "):
			fields, perr := parseArtifactFields(strings.TrimSpace(line[5:]))
			if perr != nil {
				return "", SlowQuery{}, nil, fmt.Errorf("trace artifact span line: %w", perr)
			}
			rec := SpanRecord{
				TraceID:  slow.TraceID,
				SpanID:   fields["id"],
				ParentID: fields["parent"],
				Name:     fields["name"],
				Node:     fields["node"],
				Attrs:    ParseAttrs(fields["attrs"]),
			}
			rec.Seconds, _ = strconv.ParseFloat(fields["seconds"], 64)
			spans = append(spans, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return "", SlowQuery{}, nil, err
	}
	if !sawHeader {
		return "", SlowQuery{}, nil, fmt.Errorf("not a trace artifact (missing %q header)", TraceArtifactPrefix)
	}
	return run, slow, spans, nil
}

// parseArtifactFields splits `k=v k="quoted v" ...` into a map. Bare values
// run to the next space; quoted values may contain anything strconv.Quote
// can round-trip.
func parseArtifactFields(s string) (map[string]string, error) {
	out := map[string]string{}
	for s != "" {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			break
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("malformed field near %q", s)
		}
		key := s[:eq]
		rest := s[eq+1:]
		if strings.HasPrefix(rest, `"`) {
			prefix, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", key, err)
			}
			val, err := strconv.Unquote(prefix)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", key, err)
			}
			out[key] = val
			s = rest[len(prefix):]
			continue
		}
		end := strings.IndexAny(rest, " \t")
		if end < 0 {
			out[key] = rest
			s = ""
		} else {
			out[key] = rest[:end]
			s = rest[end:]
		}
	}
	return out, nil
}
