package bbox

// Corpus-level bands. With a Treasure-Trove-scale submission corpus in
// the knowledge store, the bounding box generalizes from one system's
// envelope to population percentile bands: where does a submission's
// score sit among everything the store has absorbed? The band source is
// an interface so this package stays independent of the analytics
// engine — any column-percentile provider (colstore.Store satisfies it)
// plugs in.

import "fmt"

// PercentileSource yields the p-th percentile (0..100) of a numeric
// column. colstore.Store implements it over columnar segments.
type PercentileSource interface {
	Percentile(table, col string, p float64) (float64, error)
}

// Band is a [Low, High] percentile envelope with its median.
type Band struct {
	Low    float64 // pLow-th percentile
	Median float64
	High   float64 // pHigh-th percentile
}

// ScoreBands are corpus percentile bands for the three IO500 scores.
type ScoreBands struct {
	PLow, PHigh float64
	BW          Band // bandwidth score, GiB/s
	MD          Band // metadata score, kIOPS
	Total       Band
}

// scoreColumns maps each band to its knowledge-store column.
var scoreColumns = []struct {
	col  string
	pick func(*ScoreBands) *Band
}{
	{"bw_gib", func(b *ScoreBands) *Band { return &b.BW }},
	{"md_kiops", func(b *ScoreBands) *Band { return &b.MD }},
	{"total", func(b *ScoreBands) *Band { return &b.Total }},
}

// CorpusBands derives the [pLow, pHigh] percentile bands of the stored
// IO500 score population (the IOFHsScores table).
func CorpusBands(src PercentileSource, pLow, pHigh float64) (ScoreBands, error) {
	if pLow < 0 || pHigh > 100 || pLow >= pHigh {
		return ScoreBands{}, fmt.Errorf("bbox: invalid band percentiles [%v, %v]", pLow, pHigh)
	}
	out := ScoreBands{PLow: pLow, PHigh: pHigh}
	for _, sc := range scoreColumns {
		b := sc.pick(&out)
		var err error
		if b.Low, err = src.Percentile("IOFHsScores", sc.col, pLow); err != nil {
			return ScoreBands{}, fmt.Errorf("bbox: %s band: %w", sc.col, err)
		}
		if b.Median, err = src.Percentile("IOFHsScores", sc.col, 50); err != nil {
			return ScoreBands{}, fmt.Errorf("bbox: %s band: %w", sc.col, err)
		}
		if b.High, err = src.Percentile("IOFHsScores", sc.col, pHigh); err != nil {
			return ScoreBands{}, fmt.Errorf("bbox: %s band: %w", sc.col, err)
		}
	}
	return out, nil
}

// String renders the bands in report form.
func (b ScoreBands) String() string {
	return fmt.Sprintf(
		"bw [P%.0f %.3f, P50 %.3f, P%.0f %.3f] GiB/s; md [%.1f, %.1f, %.1f] kIOPS; total [%.2f, %.2f, %.2f]",
		b.PLow, b.BW.Low, b.BW.Median, b.PHigh, b.BW.High,
		b.MD.Low, b.MD.Median, b.MD.High,
		b.Total.Low, b.Total.Median, b.Total.High)
}
