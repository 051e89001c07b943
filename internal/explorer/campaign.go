package explorer

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// campaigns lists one page of executed campaigns.
func (x *pages) campaigns(r *http.Request) ([]byte, error) {
	after, limit, err := x.front.PageParams(r.URL.Query(), "cursor")
	if err != nil {
		return nil, err
	}
	p, err := x.front.CampaignsPage(after, limit)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if len(p.Rows) == 0 {
		b.WriteString("<p>no campaigns executed yet — run <code>iokc campaign</code> or <code>experiments sweep</code></p>")
	} else {
		b.WriteString("<table><tr><th>id</th><th>name</th><th>status</th><th>units</th><th>workers</th><th>base seed</th><th>began</th><th>wall</th></tr>")
		for _, m := range p.Rows {
			fmt.Fprintf(&b, `<tr><td><a href="/campaign?id=%d">%d</a></td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td></tr>`,
				m.ID, m.ID, esc(m.Name), esc(m.Status), m.Units, m.Workers, m.BaseSeed,
				m.Began.Format("2006-01-02 15:04"), (time.Duration(m.WallMS) * time.Millisecond).String())
		}
		b.WriteString("</table>")
		b.WriteString(nextLink(r, "cursor", p.Next))
	}
	return page("Campaigns", b.String())
}

// campaign is the campaign summary page: the header row plus every unit's
// status, attempts, and links to the knowledge it produced.
func (x *pages) campaign(r *http.Request) ([]byte, error) {
	id, err := queryID(r)
	if err != nil {
		return nil, err
	}
	meta, runs, err := x.store.LoadCampaign(id)
	if err != nil {
		return nil, err
	}
	var ok, failed, cancelled int
	for _, run := range runs {
		switch run.Status {
		case "ok":
			ok++
		case "failed":
			failed++
		case "cancelled":
			cancelled++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<p><b>%s</b> — status %s · %d unit(s) on %d worker(s) · base seed %d · wall %s</p>",
		esc(meta.Name), esc(meta.Status), meta.Units, meta.Workers, meta.BaseSeed,
		(time.Duration(meta.WallMS) * time.Millisecond).String())
	fmt.Fprintf(&b, "<p>ok %d · failed %d · cancelled %d</p>", ok, failed, cancelled)
	b.WriteString("<table><tr><th>unit</th><th>name</th><th>seed</th><th>status</th><th>attempts</th><th>wall</th><th>knowledge</th><th>error</th></tr>")
	for _, run := range runs {
		var links []string
		for _, oid := range run.ObjectIDs {
			links = append(links, fmt.Sprintf(`<a href="/knowledge?id=%d">#%d</a>`, oid, oid))
		}
		for _, iid := range run.IO500IDs {
			links = append(links, fmt.Sprintf(`<a href="/io500?id=%d">io500 #%d</a>`, iid, iid))
		}
		fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%d</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			run.Unit, esc(run.Name), run.Seed, esc(run.Status), run.Attempts,
			(time.Duration(run.WallMS) * time.Millisecond).String(),
			strings.Join(links, " "), esc(run.Error))
	}
	b.WriteString("</table>")
	return page(fmt.Sprintf("Campaign #%d", id), b.String())
}
