package colstore

// Column-level statistics helpers. These bypass SQL entirely: consumers
// like the black-box corpus bands need "the p95 of one numeric column",
// which is a single vector gather plus the shared stats kernel.

import (
	"fmt"

	"repro/internal/kdb"
	"repro/internal/stats"
)

// Floats gathers a column's non-NULL numeric values in row order.
func (s *Store) Floats(table, col string) ([]float64, error) {
	ct, ok := s.table(table)
	if !ok {
		return nil, fmt.Errorf("colstore: no such table %q", table)
	}
	ci, ok := ct.colIndex(kdb.AnalyticCol{Name: col})
	if !ok {
		return nil, fmt.Errorf("colstore: no column %q in %q", col, table)
	}
	if ct.cols[ci].Type == kdb.TText {
		return nil, fmt.Errorf("colstore: column %s.%s is not numeric", table, col)
	}
	out := make([]float64, 0, ct.rows)
	for _, seg := range ct.segs {
		// A segment without NULLs appends its whole vector.
		switch v := seg.cols[ci]; {
		case v.nulls == nil && v.floats != nil:
			out = append(out, v.floats...)
		case v.nulls == nil:
			for _, x := range v.ints {
				out = append(out, float64(x))
			}
		case v.ints != nil:
			for i, x := range v.ints {
				if !v.isNull(i) {
					out = append(out, float64(x))
				}
			}
		default:
			for i, x := range v.floats {
				if !v.isNull(i) {
					out = append(out, x)
				}
			}
		}
	}
	return out, nil
}

// Percentile computes the p-th percentile (0..100, linear interpolation —
// the stats package's convention) of a numeric column, ignoring NULLs.
func (s *Store) Percentile(table, col string, p float64) (float64, error) {
	vals, err := s.Floats(table, col)
	if err != nil {
		return 0, err
	}
	return stats.Percentile(vals, p)
}
