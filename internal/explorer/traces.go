package explorer

// The /traces page: request forensics. Without a query parameter it lists
// the slow-query log (store-wide plus this process's own ring, via
// schema.SlowQueries); with ?id=TRACE it renders that trace's span tree —
// one row per hop, indented under its parent, with node, timing, and the
// per-hop annotations (rows, path, fanout, replica chosen). The page works
// against any store: old servers without the tracing tables degrade to
// local-ring data, and an empty log renders a hint about --slow-query.

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/schema"
	"repro/internal/telemetry"
)

func (x *pages) traces(r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	if id := q.Get("id"); id != "" {
		return x.trace(id)
	}
	_, limit, err := x.front.PageParams(q, "")
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("<h2>Slow queries</h2>")
	slow := schema.SlowQueries(x.store.DB, limit)
	if len(slow) == 0 {
		b.WriteString(`<p>no slow queries logged — serve with <code>iokc servedb --slow-query 100ms</code> ` +
			`(or <code>iokc serve --slow-query</code>) to start the log, ` +
			`or query it directly with <code>SELECT * FROM __slow_queries</code></p>`)
	} else {
		b.WriteString("<table><tr><th>trace</th><th>began</th><th>seconds</th><th>rows</th><th>node</th><th>sql</th></tr>")
		for _, q := range slow {
			fmt.Fprintf(&b, `<tr><td><a href="/traces?id=%s"><code>%s</code></a></td>`+
				`<td>%s</td><td>%.6f</td><td>%d</td><td>%s</td><td><code>%s</code></td></tr>`,
				esc(q.TraceID), esc(short(q.TraceID)),
				esc(q.Start.UTC().Format(time.RFC3339)), q.Seconds, q.Rows, esc(q.Node), esc(clip(q.SQL, 120)))
		}
		b.WriteString("</table>")
	}
	return page("Traces", b.String())
}

func (x *pages) trace(id string) ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>Trace <code>%s</code></h2>", esc(id))
	spans := schema.TraceSpans(x.store.DB, id)
	if len(spans) == 0 {
		b.WriteString(`<p>no spans retained for this trace — the span ring may have wrapped, ` +
			`or the trace ran on a node this store cannot reach</p>`)
		return page("Traces", b.String())
	}
	b.WriteString("<table><tr><th>span</th><th>node</th><th>seconds</th><th>attrs</th><th>sql</th></tr>")
	for _, row := range telemetry.SpanTree(spans) {
		indent := strings.Repeat("&nbsp;&nbsp;&nbsp;", row.Depth)
		fmt.Fprintf(&b, `<tr><td>%s%s</td><td>%s</td><td>%.6f</td><td>%s</td><td><code>%s</code></td></tr>`,
			indent, esc(row.Span.Name), esc(row.Span.Node), row.Span.Seconds,
			esc(row.Span.AttrsText()), esc(clip(row.Span.SQL, 100)))
	}
	b.WriteString("</table>")
	b.WriteString(`<p><a href="/traces">← all slow queries</a></p>`)
	return page("Traces", b.String())
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
