package explorer

// The /history page: one page of the version store's commit log, the
// branch heads, and an on-demand diff between two refs. The log and heads
// come from the api's history page producer and the diff is plain SQL
// over the __diff system table, so the page works against any store with
// versioning enabled and degrades to a hint when it is not.

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/api"
)

func (x *pages) history(r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	after, limit, err := x.front.PageParams(q, "cursor")
	if err != nil {
		return nil, err
	}
	h, err := x.front.HistoryPage(after, limit)
	if err != nil && api.StatusOf(err) == http.StatusNotFound {
		return page("History", `<p>versioned knowledge is not enabled on this store — serve an embedded database `+
			`and run campaigns with <code>iokc campaign --branch NAME</code></p>`)
	}
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("<h2>Branches</h2>")
	if len(h.Branches) == 0 {
		b.WriteString("<p>no branches yet — run <code>iokc campaign --branch NAME</code></p>")
	} else {
		b.WriteString("<table><tr><th>branch</th><th>head</th><th></th></tr>")
		for _, name := range sortedKeys(h.Branches) {
			fmt.Fprintf(&b, `<tr><td>%s</td><td><code>%s</code></td>`+
				`<td><a href="/history?from=%s&to=WORKING">diff vs working</a></td></tr>`,
				esc(name), esc(short(h.Branches[name])), esc(name))
		}
		b.WriteString("</table>")
	}

	from := q.Get("from")
	to := q.Get("to")
	if from != "" && to != "" {
		fmt.Fprintf(&b, "<h2>Diff %s → %s</h2>", esc(from), esc(to))
		diff, err := x.store.DB.Query(
			"SELECT tbl, pk, kind, col, old_value, new_value FROM __diff WHERE from_ref = ? AND to_ref = ?",
			from, to)
		if err != nil {
			fmt.Fprintf(&b, `<p class="err">%s</p>`, esc(err.Error()))
		} else if diff.Len() == 0 {
			b.WriteString("<p>no differences</p>")
		} else {
			b.WriteString("<table><tr><th>table</th><th>pk</th><th>kind</th><th>column</th><th>old</th><th>new</th></tr>")
			for diff.Next() {
				row := diff.Row()
				fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
					esc(asText(row[0])), esc(asText(row[1])), esc(asText(row[2])),
					esc(asText(row[3])), esc(asText(row[4])), esc(asText(row[5])))
			}
			b.WriteString("</table>")
		}
	}

	b.WriteString("<h2>Commits</h2>")
	if len(h.Rows) == 0 {
		b.WriteString("<p>no commits yet</p>")
	} else {
		b.WriteString("<table><tr><th>commit</th><th>author</th><th>message</th><th>campaign</th><th>created</th><th></th></tr>")
		for _, c := range h.Rows {
			campaign := ""
			if c.CampaignID != 0 {
				campaign = fmt.Sprintf(`<a href="/campaign?id=%d">#%d</a>`, c.CampaignID, c.CampaignID)
			}
			diffLink := ""
			if parent := strings.Split(c.Parents, ",")[0]; parent != "" {
				diffLink = fmt.Sprintf(`<a href="/history?from=%s&to=%s">diff parent</a>`, parent, c.Hash)
			}
			tag := ""
			if strings.Count(c.Parents, ",") >= 1 {
				tag = " <b>[merge]</b>"
			}
			fmt.Fprintf(&b, "<tr><td><code>%s</code>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
				esc(short(c.Hash)), tag, esc(c.Author), esc(c.Message), campaign, esc(c.Created), diffLink)
		}
		b.WriteString("</table>")
		b.WriteString(nextLink(r, "cursor", h.Next))
	}
	return page("History", b.String())
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func asText(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	default:
		return fmt.Sprint(x)
	}
}
