package vcs

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/kdb"
)

// Three-way merge. Base is the nearest common ancestor of the two branch
// heads, and each table is decided from its chunk lists by one rule: a
// table theirs left as base had it, or made equal to ours, needs nothing;
// a table only theirs changed is adopted whole (rows in their order,
// indexes, columns); only a table both sides changed is read back and
// merged row by row. There each row cell is compared base/ours/theirs. A
// cell changed on only one side adopts that side; a cell changed
// identically on both is clean; a cell changed differently on both is a
// conflict, reported with its table, primary key, and column. Clean merges
// apply onto the working state (which must equal ours' head) as one write
// step (replaceTables), then commit with both heads as parents. Because
// checkouts keep auto-id high-water marks at their maximum, rows ingested
// on different branches from the same base occupy disjoint primary keys —
// so merging two disjoint campaigns reproduces sequential ingestion
// exactly.

// Conflict is one merge conflict, addressed by table, primary key, and
// column.
type Conflict struct {
	Table  string
	PK     any
	Column string
	// Kind is "cell" (changed differently on both sides), "add-add"
	// (both sides added the pk with different values), "delete-modify",
	// "keyless" (a table without a primary key diverged), or "schema"
	// (column sets diverged, or one side dropped a table the other changed).
	Kind   string
	Base   any
	Ours   any
	Theirs any
}

// MergeResult reports a merge's outcome.
type MergeResult struct {
	// Commit is the merge commit's hash (the fast-forwarded head when
	// ours had no own changes); empty when conflicts blocked the merge.
	Commit string
	// Conflicts is the full conflict set; the merge applied only if it is
	// empty. Also queryable as SELECT * FROM __conflicts.
	Conflicts []Conflict
	// Changes is the number of row operations applied.
	Changes int
	// FastForward reports that ours was an ancestor of theirs, so the
	// branch simply advanced.
	FastForward bool
}

// tableOps is the theirs-side adoption plan for one table.
type tableOps struct {
	name    string
	pkCol   string
	clear   bool    // delete every row first (keyless wholesale adoption)
	deletes []int64 // pks to delete, ascending
	updates []rowUpdate
	inserts [][]any // full rows, in theirs insertion order
}

type rowUpdate struct {
	pk   int64
	cols []ColChange // New carries the adopted value
}

// Merge merges branch theirs into branch ours. The working state must
// equal ours' head (checkout first); on success the merged state is both
// applied and committed on ours with the two heads as parents.
func (r *Repo) Merge(ours, theirs, author, message string) (*MergeResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	oursHead, exists, err := r.headLocked(ours)
	if err != nil {
		return nil, err
	}
	if !exists || oursHead == "" {
		return nil, fmt.Errorf("vcs: branch %q has no commits", ours)
	}
	theirsHead, exists, err := r.headLocked(theirs)
	if err != nil {
		return nil, err
	}
	if !exists || theirsHead == "" {
		return nil, fmt.Errorf("vcs: branch %q has no commits", theirs)
	}
	if err := r.requireWorkingLocked(oursHead, ours); err != nil {
		return nil, err
	}
	if theirsHead == oursHead {
		return &MergeResult{Commit: oursHead}, nil
	}
	base, err := r.mergeBase(oursHead, theirsHead)
	if err != nil {
		return nil, err
	}
	if base == "" {
		return nil, fmt.Errorf("vcs: branches %q and %q share no common commit", ours, theirs)
	}
	if base == theirsHead {
		// Theirs is already contained in ours.
		return &MergeResult{Commit: oursHead}, nil
	}
	var cs [3]*Commit // base, ours, theirs
	var lists [3]map[string][]ManifestChunk
	for i, h := range []string{base, oursHead, theirsHead} {
		if cs[i], err = r.loadCommit(h); err != nil {
			return nil, err
		}
		lists[i] = tableLists(cs[i].Manifest.Chunks)
	}
	lb, lo, lt := lists[0], lists[1], lists[2]
	adopt, both := map[string]bool{}, map[string]bool{}
	for _, name := range sortedNames(lb, lo, lt) {
		switch {
		case slices.Equal(lt[name], lo[name]) || slices.Equal(lt[name], lb[name]):
		case slices.Equal(lo[name], lb[name]):
			adopt[name] = true
		default:
			both[name] = true
		}
	}
	var states [3]map[string]*kdb.Table
	for i, c := range cs {
		if states[i], err = r.commitState(c, both); err != nil {
			return nil, err
		}
	}
	ops, conflicts := mergeStates(states[0], states[1], states[2])
	r.conflicts = conflicts
	if len(conflicts) > 0 {
		metMergeConflicts.Add(int64(len(conflicts)))
		return &MergeResult{Conflicts: conflicts}, nil
	}
	changes, err := r.replaceTables(cs[2], adopt, ops)
	if err != nil {
		return nil, err
	}
	if base == oursHead {
		// Fast-forward: ours had no changes of its own; the branch simply
		// adopts theirs' head instead of minting a new commit.
		if _, err := r.db.Exec("UPDATE vcs_branches SET head = ? WHERE name = ?", theirsHead, ours); err != nil {
			return nil, err
		}
		return &MergeResult{Commit: theirsHead, Changes: changes, FastForward: true}, nil
	}
	hash, _, err := r.commitLocked(ours, author, message, 0, theirsHead)
	if err != nil {
		return nil, err
	}
	return &MergeResult{Commit: hash, Changes: changes}, nil
}

// requireWorkingLocked verifies the working content equals a commit's, so
// a merge never silently destroys uncommitted knowledge.
func (r *Repo) requireWorkingLocked(head, branch string) error {
	w, err := r.workingManifest()
	if err != nil {
		return err
	}
	c, err := r.loadCommit(head)
	if err != nil {
		return err
	}
	if !slices.Equal(w.manifest.Chunks, c.Manifest.Chunks) {
		return fmt.Errorf("vcs: working state differs from head of %q — commit or checkout first", branch)
	}
	return nil
}

// mergeStates computes the theirs-side operations and conflicts of a
// three-way merge over tables both sides changed.
func mergeStates(sBase, sOurs, sTheirs map[string]*kdb.Table) ([]*tableOps, []Conflict) {
	var ops []*tableOps
	var conflicts []Conflict
	for _, name := range sortedNames(sBase, sOurs, sTheirs) {
		b, o, t := sBase[name], sOurs[name], sTheirs[name]
		switch {
		case o == nil:
			conflicts = append(conflicts, Conflict{Table: t.Name, Kind: "schema", Ours: "dropped", Theirs: "modified"})
		case t == nil:
			conflicts = append(conflicts, Conflict{Table: o.Name, Kind: "schema", Ours: "modified", Theirs: "dropped"})
		case !sameColumns(o, t):
			conflicts = append(conflicts, Conflict{Table: o.Name, Kind: "schema", Ours: "columns differ", Theirs: "columns differ"})
		default:
			tc, cf := mergeTable(b, o, t)
			conflicts = append(conflicts, cf...)
			if tc != nil {
				ops = append(ops, tc)
			}
		}
	}
	return ops, conflicts
}

func mergeTable(b, o, t *kdb.Table) (*tableOps, []Conflict) {
	pk := pkIndex(o)
	if pk < 0 {
		return mergeKeyless(b, o, t)
	}
	var rb map[int64][]any
	if b != nil {
		var err error
		rb, _, err = rowsByPK(b, pk)
		if err != nil {
			return nil, []Conflict{{Table: o.Name, Kind: "schema", Base: err.Error()}}
		}
	}
	ro, _, err := rowsByPK(o, pk)
	if err != nil {
		return nil, []Conflict{{Table: o.Name, Kind: "schema", Ours: err.Error()}}
	}
	rt, orderT, err := rowsByPK(t, pk)
	if err != nil {
		return nil, []Conflict{{Table: o.Name, Kind: "schema", Theirs: err.Error()}}
	}
	ops := &tableOps{name: o.Name, pkCol: o.Columns[pk].Name}
	var conflicts []Conflict
	ids := map[int64]bool{}
	for id := range rb {
		ids[id] = true
	}
	for id := range ro {
		ids[id] = true
	}
	sorted := make([]int64, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, id := range sorted {
		rowB, inB := rb[id]
		rowO, inO := ro[id]
		rowT, inT := rt[id]
		switch {
		case !inB && inO && inT: // add/add
			if equalRow(rowO, rowT) {
				continue
			}
			for i := range rowO {
				if !equalCell(rowO[i], rowT[i]) {
					conflicts = append(conflicts, Conflict{
						Table: o.Name, PK: id, Column: o.Columns[i].Name, Kind: "add-add",
						Ours: rowO[i], Theirs: rowT[i],
					})
				}
			}
		case !inB && inO && !inT:
			continue // ours-only add
		case inB && !inO: // ours deleted
			if inT && !equalRow(rowB, rowT) {
				conflicts = append(conflicts, Conflict{Table: o.Name, PK: id, Kind: "delete-modify", Ours: "deleted", Theirs: "modified"})
			}
		case inB && inO && !inT: // theirs deleted
			if equalRow(rowB, rowO) {
				ops.deletes = append(ops.deletes, id)
			} else {
				conflicts = append(conflicts, Conflict{Table: o.Name, PK: id, Kind: "delete-modify", Ours: "modified", Theirs: "deleted"})
			}
		case inB && inO && inT: // modify/modify, cell level
			var adopt []ColChange
			for i := range rowB {
				ochg := !equalCell(rowB[i], rowO[i])
				tchg := !equalCell(rowB[i], rowT[i])
				switch {
				case tchg && !ochg:
					adopt = append(adopt, ColChange{Column: o.Columns[i].Name, Old: rowO[i], New: rowT[i]})
				case tchg && ochg && !equalCell(rowO[i], rowT[i]):
					conflicts = append(conflicts, Conflict{
						Table: o.Name, PK: id, Column: o.Columns[i].Name, Kind: "cell",
						Base: rowB[i], Ours: rowO[i], Theirs: rowT[i],
					})
				}
			}
			if len(adopt) > 0 {
				ops.updates = append(ops.updates, rowUpdate{pk: id, cols: adopt})
			}
		}
	}
	// Theirs-side additions, in theirs' insertion order so the merged
	// table's row order matches sequential ingestion.
	for _, id := range orderT {
		if _, inB := rb[id]; inB {
			continue
		}
		if _, inO := ro[id]; inO {
			continue
		}
		ops.inserts = append(ops.inserts, rt[id])
	}
	if len(ops.deletes) == 0 && len(ops.updates) == 0 && len(ops.inserts) == 0 {
		return nil, conflicts
	}
	return ops, conflicts
}

// mergeKeyless handles tables without a primary key: rows cannot be
// addressed individually, so theirs' changes adopt wholesale when ours is
// untouched, and any two-sided divergence is a table-level conflict.
func mergeKeyless(b, o, t *kdb.Table) (*tableOps, []Conflict) {
	oursChanged := b == nil || !tableEqual(b, o)
	theirsChanged := b == nil || !tableEqual(b, t)
	switch {
	case !theirsChanged || tableEqual(o, t):
		return nil, nil
	case !oursChanged:
		return &tableOps{name: o.Name, clear: true, inserts: t.Rows}, nil
	default:
		return nil, []Conflict{{Table: o.Name, Kind: "keyless", Ours: "changed", Theirs: "changed"}}
	}
}

func tableEqual(a, b *kdb.Table) bool {
	if !sameColumns(a, b) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !equalRow(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

// stmts renders the plan as the statements replaceTables stages.
func (t *tableOps) stmts() []stmt {
	var out []stmt
	if t.clear {
		out = append(out, stmt{"DELETE FROM " + t.name, nil})
	}
	for _, id := range t.deletes {
		out = append(out, stmt{"DELETE FROM " + t.name + " WHERE " + t.pkCol + " = ?", []any{id}})
	}
	for _, u := range t.updates {
		sets := make([]string, 0, len(u.cols))
		args := make([]any, 0, len(u.cols)+1)
		for _, c := range u.cols {
			sets = append(sets, c.Column+" = ?")
			args = append(args, c.New)
		}
		args = append(args, u.pk)
		out = append(out, stmt{"UPDATE " + t.name + " SET " + strings.Join(sets, ", ") + " WHERE " + t.pkCol + " = ?", args})
	}
	for _, row := range t.inserts {
		ph := strings.TrimSuffix(strings.Repeat("?, ", len(row)), ", ")
		out = append(out, stmt{"INSERT INTO " + t.name + " VALUES (" + ph + ")", row})
	}
	return out
}

// LastConflicts returns the most recent merge's conflict set.
func (r *Repo) LastConflicts() []Conflict {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Conflict(nil), r.conflicts...)
}
