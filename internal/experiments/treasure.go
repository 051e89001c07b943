package experiments

// E11 — the Treasure-Trove scale experiment. Synthesize a community-scale
// IO500 submission corpus, persist it through the normal schema layer
// (~35 knowledge-store rows per submission), and run the same analytical
// characterization battery twice over the very same database: once on the
// row engine, once with the columnar engine attached. The experiment
// checks the answers are identical and reports the speedup plus the
// zone-map telemetry (segments scanned vs skipped).

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/bbox"
	"repro/internal/colstore"
	"repro/internal/schema"
	"repro/internal/workloadgen"
)

// troveQuery is one characterization query of the battery.
type troveQuery struct {
	Name string
	SQL  string
	Args []any
}

// troveBattery is the corpus characterization a curator would run over an
// absorbed submission list: score distribution, per-phase behaviour,
// option popularity, band filters. n is the corpus size; the cohort
// queries filter on naturally clustered columns (ascending run ids,
// chronological timestamps), which is where zone maps prune segments.
func troveBattery(n int) []troveQuery {
	return []troveQuery{
		{"early-cohort", "SELECT COUNT(*), AVG(total) FROM IOFHsScores WHERE IOFH_id <= ?", []any{n / 8}},
		{"late-cohort", "SELECT COUNT(*), AVG(bw_gib), MAX(total) FROM IOFHsScores WHERE IOFH_id > ?", []any{n - n/8}},
		{"first-wave-results", "SELECT COUNT(*), AVG(value), MAX(seconds) FROM IOFHsResults WHERE testcase_id <= ?", []any{n * 12 / 8}},
		{"score-spread", "SELECT COUNT(*), MIN(total), MAX(total), AVG(total) FROM IOFHsScores", nil},
		{"bw-vs-md", "SELECT AVG(bw_gib), AVG(md_kiops), SUM(total) FROM IOFHsScores", nil},
		{"mid-band", "SELECT COUNT(*), AVG(total) FROM IOFHsScores WHERE total >= ? AND total < ?", []any{10.0, 100.0}},
		{"elite", "SELECT COUNT(*), MIN(bw_gib), AVG(md_kiops) FROM IOFHsScores WHERE total >= 300", nil},
		{"phase-profile", "SELECT unit, COUNT(*), AVG(value), MIN(value), MAX(value) FROM IOFHsResults GROUP BY unit", nil},
		{"slow-phases", "SELECT COUNT(*), AVG(seconds) FROM IOFHsResults WHERE seconds > 400", nil},
		{"testcase-census", "SELECT name, COUNT(*) FROM IOFHsTestcases GROUP BY name", nil},
		{"option-popularity", "SELECT optkey, COUNT(*) FROM IOFHsOptions GROUP BY optkey", nil},
		{"api-split", "SELECT optvalue, COUNT(*) FROM IOFHsOptions WHERE optkey = ? GROUP BY optvalue", []any{"api"}},
		{"fleet-size", "SELECT COUNT(*), AVG(cores), MAX(mem_total_kb) FROM systeminfos", nil},
	}
}

// TroveResult is the E11 outcome.
type TroveResult struct {
	Submissions int
	Rows        int64 // knowledge-store rows the corpus expanded into
	LoadWall    time.Duration
	BuildWall   time.Duration // first columnar battery: builds every image it touches
	RowWall     time.Duration // battery on the row engine
	ColWall     time.Duration // battery on the columnar engine (post-build)
	FreshWall   time.Duration // first columnar battery after one more submission
	Speedup     float64
	Identical   bool
	Queries     int
	Stats       colstore.Stats
	Bands       bbox.ScoreBands
}

// TreasureTrove runs E11: n synthesized submissions, persisted, then the
// battery row-vs-columnar on the same embedded database.
func TreasureTrove(n int, seed uint64) (*TroveResult, error) {
	// One submission beyond the corpus is held back for the
	// refresh-after-a-write measurement; the generator is prefix-stable, so
	// the first n are the corpus of any other run at this seed.
	objs, err := workloadgen.SynthesizeIO500Corpus(n+1, seed)
	if err != nil {
		return nil, err
	}
	objs, extra := objs[:n], objs[n:]
	store, err := schema.Open("")
	if err != nil {
		return nil, err
	}
	defer store.Close()

	res := &TroveResult{Submissions: n}
	loadStart := time.Now()
	const chunk = 500
	for lo := 0; lo < len(objs); lo += chunk {
		hi := lo + chunk
		if hi > len(objs) {
			hi = len(objs)
		}
		if _, err := store.SaveIO500s(objs[lo:hi]); err != nil {
			return nil, fmt.Errorf("treasure: persist submissions %d..%d: %w", lo, hi, err)
		}
	}
	res.LoadWall = time.Since(loadStart)
	for _, table := range []string{"IOFHsRuns", "IOFHsScores", "IOFHsTestcases", "IOFHsResults", "IOFHsOptions", "systeminfos"} {
		row, err := store.DB.QueryRow("SELECT COUNT(*) FROM " + table)
		if err != nil {
			return nil, err
		}
		res.Rows += row[0].(int64)
	}

	battery := troveBattery(n)
	res.Queries = len(battery)
	run := func() ([][][]any, [][]string, time.Duration, error) {
		var rows [][][]any
		var cols [][]string
		start := time.Now()
		for _, q := range battery {
			r, err := store.DB.Query(q.SQL, q.Args...)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("treasure: %s: %w", q.Name, err)
			}
			rows = append(rows, r.All())
			cols = append(cols, r.Columns)
		}
		return rows, cols, time.Since(start), nil
	}

	// Row engine first (no backend attached), then columnar on the same
	// data. The first columnar battery builds the image of every table it
	// touches; time it separately so the steady-state battery cost is
	// visible.
	rowRows, rowCols, rowWall, err := run()
	if err != nil {
		return nil, err
	}
	res.RowWall = rowWall

	cs, err := store.EnableAnalytics()
	if err != nil {
		return nil, err
	}
	if _, _, res.BuildWall, err = run(); err != nil {
		return nil, err
	}

	colRows, colCols, colWall, err := run()
	if err != nil {
		return nil, err
	}
	res.ColWall = colWall
	res.Identical = reflect.DeepEqual(rowRows, colRows) && reflect.DeepEqual(rowCols, colCols)
	if colWall > 0 {
		res.Speedup = float64(rowWall) / float64(colWall)
	}
	res.Bands, err = bbox.CorpusBands(cs, 5, 95)
	if err != nil {
		return nil, err
	}

	// The freshness cost of a write: one more submission, then the battery
	// again. Its tables only grew, so their images are refreshed
	// incrementally rather than rebuilt.
	if _, err := store.SaveIO500s(extra); err != nil {
		return nil, fmt.Errorf("treasure: persist the extra submission: %w", err)
	}
	if _, _, res.FreshWall, err = run(); err != nil {
		return nil, err
	}
	res.Stats = cs.Stats()
	return res, nil
}

// Report renders E11.
func (r *TroveResult) Report() string {
	var b strings.Builder
	b.WriteString("E11 — Treasure-Trove scale analytics (row vs columnar)\n")
	fmt.Fprintf(&b, "corpus: %d submissions -> %d knowledge rows (loaded in %s)\n",
		r.Submissions, r.Rows, r.LoadWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "battery: %d characterization queries\n", r.Queries)
	fmt.Fprintf(&b, "row engine:      %s\n", r.RowWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "columnar build:  %s (lazy, first battery)\n", r.BuildWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "columnar steady: %s  (speedup %.1fx)\n", r.ColWall.Round(time.Microsecond), r.Speedup)
	fmt.Fprintf(&b, "after one insert: %s (first battery after one more submission)\n", r.FreshWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "identical answers: %v\n", r.Identical)
	fmt.Fprintf(&b, "colstore: served %d, fallbacks %d, rebuilds %d, appends %d, segments scanned %d, skipped %d\n",
		r.Stats.Served, r.Stats.Fallbacks, r.Stats.Rebuilds, r.Stats.Appends, r.Stats.SegmentsScanned, r.Stats.SegmentsSkipped)
	fmt.Fprintf(&b, "corpus score bands: %s\n", r.Bands)
	return b.String()
}
