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
	// keep string bounds. seeded records that the bounds hold a value, so
	// an extension of the segment widens them rather than starting over.
	// hasNaN poisons numeric zone maps: NaN compares false against
	// everything, so no range test can prove a miss.
	minF, maxF float64
	minS, maxS string
	seeded     bool
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
// old was built, from the appended rows alone. Full segments are shared
// with old; a partial tail segment is replaced by a copy of its vectors
// extended with the first new rows, and the rest become new segments, so
// the layout, zone maps and dictionary equal a from-scratch build of the
// same rows. old is left untouched: the new image gets its own segment
// list, its own tail and its own dictionary header.
func appendTable(old *colTable, tv kdb.TableView) *colTable {
	ct := &colTable{
		name:    old.name,
		cols:    old.cols,
		dict:    &dictionary{strs: old.dict.strs, idx: old.dict.idx},
		segs:    append(make([]*segment, 0, tv.Len()/segmentRows+1), old.segs...),
		rows:    tv.Len(),
		version: tv.Version(),
	}
	rows := tv.Rows(old.rows)
	if last := len(ct.segs) - 1; last >= 0 && ct.segs[last].n < segmentRows && len(rows) > 0 {
		k := min(len(rows), segmentRows-ct.segs[last].n)
		ct.segs[last] = ct.extend(ct.segs[last], rows[:k])
		rows = rows[k:]
	}
	ct.addSegments(rows)
	return ct
}

// addSegments appends segments holding rows, which start at a segment
// boundary of the table.
func (ct *colTable) addSegments(rows [][]any) {
	for base := 0; base < len(rows); base += segmentRows {
		ct.segs = append(ct.segs, ct.extend(nil, rows[base:min(base+segmentRows, len(rows))]))
	}
}

// extend returns a new segment holding tail's rows (none when tail is nil)
// followed by rows. tail is copied, never written, and nothing of rows is
// kept: they alias engine memory that the next writer changes.
func (ct *colTable) extend(tail *segment, rows [][]any) *segment {
	from := 0
	if tail != nil {
		from = tail.n
	}
	n := from + len(rows)
	seg := &segment{n: n, cols: make([]*colVec, len(ct.cols))}
	for ci, def := range ct.cols {
		v := &colVec{}
		if tail != nil {
			*v = *tail.cols[ci] // counts and zone map; the vectors are copied below
		}
		switch def.Type {
		case kdb.TInteger:
			v.ints = grown(v.ints, n)
		case kdb.TReal:
			v.floats = grown(v.floats, n)
		default:
			v.codes = grown(v.codes, n)
		}
		if v.nulls != nil {
			v.nulls = grown(v.nulls, (n+63)/64)
		}
		seg.cols[ci] = v
	}
	for i, row := range rows {
		i += from
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
				v.noteF(float64(x))
			case float64:
				v.floats[i] = x
				v.noteF(x)
			case string:
				v.codes[i] = ct.dict.code(x)
				if !v.seeded || x < v.minS {
					v.minS = x
				}
				if !v.seeded || x > v.maxS {
					v.maxS = x
				}
				v.seeded = true
			}
		}
	}
	return seg
}

// grown returns a copy of s at length n >= len(s), zero past len(s).
func grown[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// noteF widens a numeric zone map by f.
func (v *colVec) noteF(f float64) {
	if math.IsNaN(f) {
		v.hasNaN = true
		return
	}
	if !v.seeded || f < v.minF {
		v.minF = f
	}
	if !v.seeded || f > v.maxF {
		v.maxF = f
	}
	v.seeded = true
}
