package kdb

import (
	"fmt"
	"slices"
	"strings"
)

// plan is a statement's row walk (see index.go), planned once: the base
// table's access path and the join steps, in the environment of the whole
// joined row. The walk reads the base rows at positions lo..hi-1, or on the
// index path at cand[lo..hi-1].
type plan struct {
	base   *Table
	env    *env
	steps  []joinStep
	where  expr
	args   []any
	path   string // selectStats.path
	cand   []int
	lo, hi int
	// eqCol and eqVal are the column and value the index path probed; fp,
	// when set, collects the walk's footprint.
	eqCol int
	eqVal any
	fp    *footprintSet

	// The walk in progress: the base row's position, and the rows examined
	// so far.
	pos      int
	examined int
}

// joinStep is one planned inner join: the joined table, whose columns start
// at width in the joined row, and the positions there of the ON clause's two
// columns. On the index and hash strategies li is on the accumulated row's
// side and ri on the joined table's.
type joinStep struct {
	table    *Table
	width    int
	li, ri   int
	strategy string // "index", "hash" or "loop"
	// buckets (index, hash) or all (loop) holds the joined table's
	// candidate row positions, fetched or built when the first row reaches
	// the step.
	buckets map[any][]int
	all     []int
}

// planJoins resolves every joined table and ON clause of a SELECT over base,
// before any row is read. A table may appear once: with no table aliases,
// both sides of an ON clause naming it twice would resolve to one column.
func (db *DB) planJoins(base *Table, joins []joinClause) (*env, []joinStep, error) {
	e := base.env
	steps := make([]joinStep, 0, len(joins))
	for _, j := range joins {
		jt, ok := db.tables[strings.ToLower(j.Table)]
		if !ok {
			return nil, nil, fmt.Errorf("kdb: no such table %q", j.Table)
		}
		if jt == base || slices.ContainsFunc(steps, func(s joinStep) bool { return s.table == jt }) {
			return nil, nil, fmt.Errorf("kdb: table %q appears twice in one SELECT; kdb has no table aliases", j.Table)
		}
		ne := e.extend(jt)
		li, err := ne.resolve(j.Left)
		if err != nil {
			return nil, nil, err
		}
		ri, err := ne.resolve(j.Right)
		if err != nil {
			return nil, nil, err
		}
		s := joinStep{table: jt, width: e.width, li: li, ri: ri, strategy: "loop"}
		if li >= e.width {
			li, ri = ri, li
		}
		if li < e.width && ri >= e.width {
			s.li, s.ri, s.strategy = li, ri, "hash"
			if jt.indexOn(ri-e.width) != nil {
				s.strategy = "index"
			}
		}
		steps = append(steps, s)
		e = ne
	}
	return e, steps, nil
}

// planWalk picks how the walk reaches t's rows from the conjuncts of where,
// read in e, the environment of the whole joined row, and counts the
// decision and each join step.
func (t *Table) planWalk(e *env, steps []joinStep, where expr, args []any) plan {
	p := plan{base: t, env: e, steps: steps, where: where, args: args, path: "scan", hi: len(t.Rows)}
	preds := collectPreds(where, e, nil)
	if cand, col, v, ok := t.eqCandidates(preds, args); ok {
		p.cand, p.hi, p.path, p.eqCol, p.eqVal = cand, len(cand), "index", col, v
	} else if lo, hi, ok := t.pkRange(preds, args); ok {
		p.lo, p.hi, p.path = lo, hi, "range"
	}
	// The one access decision a statement makes for its base table: served
	// by an index or key order, or scanned.
	if p.path == "scan" {
		metIndexMisses.Inc()
	} else {
		metIndexHits.Inc()
	}
	for _, s := range steps {
		metJoins[s.strategy].Inc()
		p.path += "+" + s.strategy + "-join"
	}
	return p
}

// walk visits the rows WHERE keeps, base rows in ascending position and,
// within one, joined rows in ascending position. visit gets the base row's
// position and the row: the stored row itself when nothing is joined,
// otherwise a buffer the walk reuses, valid until visit returns. The walk
// ends when visit says stop or at the first error. examined counts the base
// rows read and the joined-table rows compared.
func (p *plan) walk(visit func(pos int, row []any) (stop bool, err error)) (examined int, err error) {
	var buf []any
	if len(p.steps) > 0 {
		buf = make([]any, p.env.width)
	}
	for i := p.lo; i < p.hi; i++ {
		p.pos = i
		if p.cand != nil {
			p.pos = p.cand[i]
		}
		p.examined++
		row := p.base.Rows[p.pos]
		if buf != nil {
			row = buf
			copy(row, p.base.Rows[p.pos])
		}
		if stop, err := p.join(0, row, visit); stop || err != nil {
			return p.examined, err
		}
	}
	return p.examined, nil
}

// join carries row through steps[i:] and visits each full row WHERE keeps.
func (p *plan) join(i int, row []any, visit func(pos int, row []any) (bool, error)) (stop bool, err error) {
	if i == len(p.steps) {
		if match, err := matchWhere(p.where, p.env, row, p.args, ""); err != nil || !match {
			return false, err
		}
		return visit(p.pos, row)
	}
	j := &p.steps[i]
	cand := j.candidates(row[j.li])
	if p.fp != nil && j.strategy != "loop" {
		p.fp.probe(j.table, j.ri-j.width, row[j.li], cand)
	}
	for _, pos := range cand {
		copy(row[j.width:], j.table.Rows[pos])
		p.examined++
		// Candidates only narrow: compareEq decides each pair, so NULL = NULL
		// and 1 = 1.0 join exactly as the nested loop would.
		eq, err := compareEq(row[j.li], row[j.ri])
		if err != nil {
			return false, err
		}
		if eq {
			if stop, err := p.join(i+1, row, visit); stop || err != nil {
				return stop, err
			}
		}
	}
	return false, nil
}

// candidates returns the positions, ascending, of the joined table's rows
// that may match a row whose key is v: every row for the nested loop,
// otherwise the rows whose join key hashes like v, from the table's own
// index on the join column or from buckets built for this one statement.
func (j *joinStep) candidates(v any) []int {
	col := j.ri - j.width
	switch {
	case j.strategy == "loop":
		if j.all == nil {
			j.all = make([]int, len(j.table.Rows))
			for pos := range j.all {
				j.all[pos] = pos
			}
		}
		return j.all
	case j.buckets != nil:
	case j.strategy == "index":
		j.buckets = j.table.freshBuckets(j.table.indexOn(col))
	default:
		j.buckets = bucketRows(j.table.Rows, col)
	}
	return j.buckets[hashKey(v)]
}
