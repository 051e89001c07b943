package kdb

import "strings"

// System-table routing. A provider (internal/vcs) can serve virtual
// tables whose names start with "__" — commit history (__log), branch
// heads (__branches), commit diffs (__diff) — so the explorer and the
// analytics tier query versioned knowledge with plain SQL. The provider is
// the first of QueryTraced's read sources and runs before the read lock is
// taken: it materializes the virtual table's rows (re-entering the database
// through its public query surface as needed), and the engine then executes
// the original SELECT against that table with its full WHERE / ORDER BY /
// aggregate semantics, so a system table behaves exactly like a real one.

// SystemTableProvider materializes virtual "__"-prefixed tables. filters
// carries the query's AND-only equality conjuncts (lowercased column name
// → bound value) so providers whose tables are parameterized — __diff
// needs its from/to refs — can see them; the provider must still emit
// those values as row columns, since the engine re-applies the full WHERE
// clause afterwards. claimed=false declines the name (the built-in trace
// tables answer next; any other name then fails with "no such table", as
// without a provider).
type SystemTableProvider interface {
	SystemTable(name string, filters map[string]any) (cols []ColumnDef, rows [][]any, claimed bool, err error)
}

// systemHook wraps the provider for atomic.Pointer storage.
type systemHook struct{ p SystemTableProvider }

// SetSystemTables attaches (or, with nil, detaches) a system-table
// provider. Safe to call concurrently with queries.
func (db *DB) SetSystemTables(p SystemTableProvider) {
	if p == nil {
		db.system.Store(nil)
		return
	}
	db.system.Store(&systemHook{p: p})
}

// selectProvider is the first read source: a SELECT whose FROM table the
// attached provider claims. A provider error fails the statement; anything
// the provider cannot be asked (no provider, no "__" prefix, an equality
// filter whose argument is missing or unusable) declines to the next source.
func (db *DB) selectProvider(sel *selectStmt, args []any, st *selectStats) (rows *Rows, served bool, err error) {
	h := db.system.Load()
	if h == nil || !strings.HasPrefix(sel.Table, "__") {
		return nil, false, nil
	}
	filters := map[string]any{}
	if fs, ok := analyticFilters(sel.Where); ok {
		for _, f := range fs {
			if f.Op != "=" {
				continue
			}
			v := f.Lit
			if f.Arg >= 0 {
				if f.Arg >= len(args) {
					return nil, false, nil
				}
				v = args[f.Arg]
			}
			n, err := normalizeArg(v)
			if err != nil {
				return nil, false, nil
			}
			filters[strings.ToLower(f.Col.Name)] = n
		}
	}
	cols, data, claimed, err := h.p.SystemTable(strings.ToLower(sel.Table), filters)
	if err != nil {
		return nil, true, err
	}
	if !claimed {
		return nil, false, nil
	}
	rows, err = selectVirtual(sel, args, cols, data, st)
	return rows, true, err
}

// selectVirtual runs sel over a materialized virtual table through the
// regular row engine, so every SELECT feature works on system tables.
func selectVirtual(sel *selectStmt, args []any, cols []ColumnDef, data [][]any, st *selectStats) (*Rows, error) {
	t := newTable(sel.Table, cols, data, -1)
	scratch := &DB{tables: map[string]*Table{strings.ToLower(sel.Table): t}}
	rows, err := scratch.execSelectStats(sel, args, st)
	st.path = "system"
	return rows, err
}
