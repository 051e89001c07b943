package colstore

// Columnar segment format. Each table is decomposed into fixed-size row
// segments; within a segment every column is a typed vector — int64,
// float64, or dictionary codes for text — plus a null bitmap. Per-segment
// zone maps (min/max over the non-null values) let the scan skip whole
// segments that provably cannot match a filter. The layout mirrors the
// engine's value model exactly: coerce guarantees an INTEGER column only
// ever holds int64 or NULL, REAL only float64 or NULL, TEXT only string
// or NULL, so each vector needs exactly one payload array.

import (
	"math"
	"strings"

	"repro/internal/kdb"
)

// segmentRows is the number of rows per segment. A package variable (not
// a constant) so tests can shrink it to force multi-segment tables and
// exercise zone-map skipping on small fixtures.
var segmentRows = 4096

// dictionary interns a table's strings. Codes are assigned in first-seen
// order reading the table row by row, column by column, and are shared by
// every segment — an order that depends only on the rows, not on how they
// were batched into builds. Scans read strs; idx belongs to the builder
// (serialized by Store.mu) and is never touched by a reader. An
// incremental refresh hands both on to the next image's dictionary: it
// appends to strs past the length any published image can see and never
// rewrites an entry below it.
type dictionary struct {
	strs []string
	idx  map[string]uint32
}

func newDictionary() *dictionary {
	return &dictionary{idx: make(map[string]uint32)}
}

func (d *dictionary) code(s string) uint32 {
	if c, ok := d.idx[s]; ok {
		return c
	}
	c := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.idx[s] = c
	return c
}

// colVec is one column's vector within a segment. Exactly one of ints,
// floats, or codes is non-nil, matching the column's declared type.
type colVec struct {
	ints   []int64
	floats []float64
	codes  []uint32

	// nulls is a bitmap over the segment's rows; bit set means NULL. nil
	// when the segment has no NULLs in this column.
	nulls   []uint64
	nonNull int

	// Zone map over the non-null values. Numeric columns keep float64
	// bounds (the engine compares all numerics as floats); text columns
	// keep string bounds. hasNaN poisons numeric zone maps: NaN compares
	// false against everything, so no range test can prove a miss.
	minF, maxF float64
	minS, maxS string
	hasNaN     bool
}

func (v *colVec) isNull(i int) bool { return nullAt(v.nulls, int32(i)) }

// nullAt reports whether row i is NULL in a null bitmap; nil has no NULLs.
// Loops over a vector call it with the bitmap held in a local.
func nullAt(nulls []uint64, i int32) bool {
	return nulls != nil && nulls[uint32(i)/64]&(1<<(uint32(i)%64)) != 0
}

func (v *colVec) setNull(i int) {
	v.nulls[i/64] |= 1 << (uint(i) % 64)
}

// segment is a horizontal slice of a table: n rows across all columns.
type segment struct {
	n    int
	cols []*colVec
}

// colTable is the columnar image of one engine table at a recorded
// version. Immutable once published; queries read it without locking.
type colTable struct {
	name    string
	cols    []kdb.ColumnDef
	dict    *dictionary
	segs    []*segment
	rows    int
	version int64 // engine version of the table the image reflects
}

// colIndex resolves a possibly-qualified column reference against the
// table, with the engine's case-insensitive matching. ok is false when
// the name is unknown or qualified with a different table.
func (ct *colTable) colIndex(c kdb.AnalyticCol) (int, bool) {
	if c.Table != "" && !strings.EqualFold(c.Table, ct.name) {
		return 0, false
	}
	for i, def := range ct.cols {
		if strings.EqualFold(def.Name, c.Name) {
			return i, true
		}
	}
	return 0, false
}

// value reconstructs the engine value at (segment-local row i, column ci).
func (s *segment) value(ct *colTable, i, ci int) any {
	v := s.cols[ci]
	if v.isNull(i) {
		return nil
	}
	switch {
	case v.ints != nil:
		return v.ints[i]
	case v.floats != nil:
		return v.floats[i]
	default:
		return ct.dict.strs[v.codes[i]]
	}
}

// buildTable decomposes a table into segments from scratch. Row order is
// preserved exactly — aggregate accumulation must visit values in the
// same order as the row engine so float sums come out bit-identical.
func buildTable(tv kdb.TableView) *colTable {
	ct := &colTable{
		name:    tv.Name(),
		cols:    append([]kdb.ColumnDef(nil), tv.Columns()...),
		dict:    newDictionary(),
		rows:    tv.Len(),
		version: tv.Version(),
	}
	ct.addSegments(tv.Rows(0))
	return ct
}

// appendTable builds the image of a table that only grew by appends since
// old was built. Full segments are shared with old; its partial tail
// segment is rebuilt together with the new rows, so the layout, zone maps
// and dictionary equal a from-scratch build of the same rows. old is left
// untouched: the new image gets its own segment list and its own
// dictionary header.
func appendTable(old *colTable, tv kdb.TableView) *colTable {
	full := old.rows / segmentRows
	ct := &colTable{
		name:    old.name,
		cols:    old.cols,
		dict:    &dictionary{strs: old.dict.strs, idx: old.dict.idx},
		segs:    append(make([]*segment, 0, tv.Len()/segmentRows+1), old.segs[:full]...),
		rows:    tv.Len(),
		version: tv.Version(),
	}
	ct.addSegments(tv.Rows(full * segmentRows))
	return ct
}

// addSegments appends segments holding rows, which start at a segment
// boundary of the table.
func (ct *colTable) addSegments(rows [][]any) {
	for base := 0; base < len(rows); base += segmentRows {
		end := base + segmentRows
		if end > len(rows) {
			end = len(rows)
		}
		ct.segs = append(ct.segs, buildSegment(ct, rows[base:end]))
	}
}

// buildSegment copies rows into one segment's typed vectors. Nothing of
// rows is kept: they alias engine memory that the next writer changes.
func buildSegment(ct *colTable, rows [][]any) *segment {
	n := len(rows)
	seg := &segment{n: n, cols: make([]*colVec, len(ct.cols))}
	for ci, def := range ct.cols {
		v := &colVec{}
		switch def.Type {
		case kdb.TInteger:
			v.ints = make([]int64, n)
		case kdb.TReal:
			v.floats = make([]float64, n)
		default:
			v.codes = make([]uint32, n)
		}
		seg.cols[ci] = v
	}
	// bounded[ci] records that column ci's zone map has been seeded.
	bounded := make([]bool, len(ct.cols))
	for i, row := range rows {
		for ci, raw := range row {
			v := seg.cols[ci]
			if raw == nil {
				if v.nulls == nil {
					v.nulls = make([]uint64, (n+63)/64)
				}
				v.setNull(i)
				continue
			}
			v.nonNull++
			switch x := raw.(type) {
			case int64:
				v.ints[i] = x
				bounded[ci] = v.noteF(float64(x), bounded[ci])
			case float64:
				v.floats[i] = x
				bounded[ci] = v.noteF(x, bounded[ci])
			case string:
				v.codes[i] = ct.dict.code(x)
				if !bounded[ci] || x < v.minS {
					v.minS = x
				}
				if !bounded[ci] || x > v.maxS {
					v.maxS = x
				}
				bounded[ci] = true
			}
		}
	}
	return seg
}

// noteF widens a numeric zone map by f; seeded reports whether the bounds
// already hold a value, and the result whether they do now.
func (v *colVec) noteF(f float64, seeded bool) bool {
	if math.IsNaN(f) {
		v.hasNaN = true
		return seeded
	}
	if !seeded || f < v.minF {
		v.minF = f
	}
	if !seeded || f > v.maxF {
		v.maxF = f
	}
	return true
}
