package vcs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
)

func newRepo(t testing.TB) (*kdb.DB, *Repo) {
	t.Helper()
	db, err := kdb.Open("")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r, err := Attach(db)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	return db, r
}

func mustExec(t testing.TB, db *kdb.DB, query string, args ...any) {
	t.Helper()
	if _, err := db.Exec(query, args...); err != nil {
		t.Fatalf("exec %q: %v", query, err)
	}
}

// ingestRuns simulates one analysis campaign appending run records.
func ingestRuns(t testing.TB, db *kdb.DB, apps ...string) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS runs (id INTEGER PRIMARY KEY, app TEXT, gbps REAL, notes TEXT)`)
	for _, app := range apps {
		mustExec(t, db, "INSERT INTO runs (app, gbps, notes) VALUES (?, ?, ?)", app, float64(len(app)), "n-"+app)
	}
}

// contentDump returns the snapshot stream with vcs_* tables and meta
// records stripped — the byte-exact content identity used by the
// determinism battery.
func contentDump(t testing.TB, db *kdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	chunks, err := kdbtest.ChunkStream(buf.Bytes())
	if err != nil {
		t.Fatalf("chunk: %v", err)
	}
	var out bytes.Buffer
	for _, c := range chunks {
		if c.Meta || IsVersionTable(c.Table) {
			continue
		}
		out.Write(c.Data)
	}
	return out.Bytes()
}

func TestCommitDeterministicAcrossStores(t *testing.T) {
	var hashes [2]string
	for i := 0; i < 2; i++ {
		db, r := newRepo(t)
		ingestRuns(t, db, "ior", "hacc", "lammps")
		h, created, err := r.Commit("main", "analyst", "baseline campaign", 7)
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		if !created {
			t.Fatalf("store %d: expected a new commit", i)
		}
		hashes[i] = h
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("same campaign on two fresh stores produced different hashes:\n  %s\n  %s", hashes[0], hashes[1])
	}
}

func TestCommitNoOpOnUnchangedState(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	h1, _, err := r.Commit("main", "a", "m", 0)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	h2, created, err := r.Commit("main", "a", "m2", 0)
	if err != nil {
		t.Fatalf("recommit: %v", err)
	}
	if created || h2 != h1 {
		t.Fatalf("unchanged recommit: created=%v hash=%s want no-op with %s", created, h2, h1)
	}
}

func TestCommitReusesUnchangedTableChunks(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior", "hacc")
	mustExec(t, db, `CREATE TABLE insights (id INTEGER PRIMARY KEY, body TEXT)`)
	mustExec(t, db, "INSERT INTO insights (body) VALUES (?)", "striping helps")
	if _, _, err := r.Commit("main", "a", "c1", 0); err != nil {
		t.Fatalf("c1: %v", err)
	}
	countRuns := func() int64 {
		row, err := db.QueryRow("SELECT COUNT(*) FROM vcs_chunks WHERE tbl = 'runs'")
		if err != nil {
			t.Fatalf("count: %v", err)
		}
		return row[0].(int64)
	}
	before := countRuns()
	mustExec(t, db, "INSERT INTO insights (body) VALUES (?)", "alignment matters")
	if _, _, err := r.Commit("main", "a", "c2", 0); err != nil {
		t.Fatalf("c2: %v", err)
	}
	if after := countRuns(); after != before {
		t.Fatalf("runs table unchanged but chunk count went %d -> %d", before, after)
	}
}

func TestCheckoutRestoresCommit(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior", "hacc")
	c1, _, err := r.Commit("main", "a", "base", 0)
	if err != nil {
		t.Fatalf("c1: %v", err)
	}
	base := contentDump(t, db)
	mustExec(t, db, "UPDATE runs SET gbps = ? WHERE id = ?", 99.5, int64(1))
	mustExec(t, db, `CREATE TABLE scratch (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, "INSERT INTO scratch (v) VALUES (?)", "temp")
	if _, _, err := r.Commit("main", "a", "tip", 0); err != nil {
		t.Fatalf("c2: %v", err)
	}
	if err := r.Checkout(c1); err != nil {
		t.Fatalf("checkout: %v", err)
	}
	if got := contentDump(t, db); !bytes.Equal(got, base) {
		t.Fatalf("checkout did not restore byte-identical content:\n got %q\nwant %q", got, base)
	}
	// The version store must survive the checkout.
	if _, err := db.QueryRow("SELECT id FROM vcs_commits LIMIT 1"); err != nil {
		t.Fatalf("version store lost on checkout: %v", err)
	}
	if err := r.Checkout("main"); err != nil {
		t.Fatalf("checkout main: %v", err)
	}
	row, err := db.QueryRow("SELECT v FROM scratch WHERE id = ?", int64(1))
	if err != nil || row[0] != "temp" {
		t.Fatalf("checkout main did not restore tip: %v %v", row, err)
	}
}

func TestDiffBranchAgainstBase(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	if _, _, err := r.Commit("main", "a", "base", 0); err != nil {
		t.Fatalf("base: %v", err)
	}
	if err := r.Branch("tuning", "main"); err != nil {
		t.Fatalf("branch: %v", err)
	}
	ingestRuns(t, db, "hacc", "lammps")
	mustExec(t, db, "UPDATE runs SET notes = ? WHERE id = ?", "retuned", int64(1))
	if _, _, err := r.Commit("tuning", "a", "tuning round", 0); err != nil {
		t.Fatalf("tuning commit: %v", err)
	}
	changes, err := r.Diff("main", "tuning")
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	var adds, mods int
	for _, c := range changes {
		switch c.Kind {
		case "add":
			adds++
			if c.Table != "runs" {
				t.Fatalf("unexpected add table %s", c.Table)
			}
		case "modify":
			mods++
			if c.PK != int64(1) || len(c.Cols) != 1 || c.Cols[0].Column != "notes" || c.Cols[0].New != "retuned" {
				t.Fatalf("unexpected modify: %+v", c)
			}
		default:
			t.Fatalf("unexpected change kind %q: %+v", c.Kind, c)
		}
	}
	if adds != 2 || mods != 1 {
		t.Fatalf("diff = %d adds %d modifies, want exactly the ingested 2 adds + 1 modify", adds, mods)
	}
	// Reverse direction: the same rows as deletes.
	back, err := r.Diff("tuning", "main")
	if err != nil {
		t.Fatalf("reverse diff: %v", err)
	}
	dels := 0
	for _, c := range back {
		if c.Kind == "delete" {
			dels++
		}
	}
	if dels != 2 {
		t.Fatalf("reverse diff deletes = %d, want 2", dels)
	}
}

// TestMergeFastForwardEqualsSequentialIngestion: campaign A committed on
// main, campaign B on a branch; merging the branch back fast-forwards and
// must leave content byte-identical to ingesting A then B sequentially.
func TestMergeFastForwardEqualsSequentialIngestion(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior", "hacc")
	if _, _, err := r.Commit("main", "a", "campaign A", 1); err != nil {
		t.Fatalf("A: %v", err)
	}
	if err := r.Branch("campB", "main"); err != nil {
		t.Fatalf("branch: %v", err)
	}
	ingestRuns(t, db, "lammps", "qmcpack")
	theirsHash, _, err := r.Commit("campB", "b", "campaign B", 2)
	if err != nil {
		t.Fatalf("B: %v", err)
	}
	if err := r.Checkout("main"); err != nil {
		t.Fatalf("checkout main: %v", err)
	}
	res, err := r.Merge("main", "campB", "a", "merge B")
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(res.Conflicts) != 0 {
		t.Fatalf("unexpected conflicts: %+v", res.Conflicts)
	}
	if !res.FastForward || res.Commit != theirsHash {
		t.Fatalf("expected fast-forward to %s, got %+v", theirsHash, res)
	}

	ref, err := kdb.Open("")
	if err != nil {
		t.Fatalf("ref open: %v", err)
	}
	ingestRuns(t, ref, "ior", "hacc")
	ingestRuns(t, ref, "lammps", "qmcpack")
	if got, want := contentDump(t, db), contentDump(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("merged content differs from sequential ingestion:\n got %q\nwant %q", got, want)
	}
}

// TestMergeDisjointCampaignsEqualsSequentialIngestion: two branches each
// ingest their own tables from a shared base; the true (two-parent) merge
// must equal sequential ingestion of both campaigns, verified by dump
// diff. Primary keys stay disjoint because checkout merges auto-id
// high-water marks by maximum.
func TestMergeDisjointCampaignsEqualsSequentialIngestion(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	if _, _, err := r.Commit("main", "a", "base", 0); err != nil {
		t.Fatalf("base: %v", err)
	}
	if err := r.Branch("io500", "main"); err != nil {
		t.Fatalf("branch: %v", err)
	}
	mustExec(t, db, `CREATE TABLE io500_scores (id INTEGER PRIMARY KEY, site TEXT, score REAL)`)
	mustExec(t, db, "INSERT INTO io500_scores (site, score) VALUES (?, ?)", "siteA", 12.5)
	mustExec(t, db, "INSERT INTO io500_scores (site, score) VALUES (?, ?)", "siteB", 7.25)
	if _, _, err := r.Commit("io500", "b", "io500 campaign", 0); err != nil {
		t.Fatalf("io500: %v", err)
	}
	if err := r.Checkout("main"); err != nil {
		t.Fatalf("checkout main: %v", err)
	}
	mustExec(t, db, `CREATE TABLE darshan_logs (id INTEGER PRIMARY KEY, job TEXT, bytes INTEGER)`)
	mustExec(t, db, "INSERT INTO darshan_logs (job, bytes) VALUES (?, ?)", "j1", int64(1<<20))
	if _, _, err := r.Commit("main", "a", "darshan campaign", 0); err != nil {
		t.Fatalf("darshan: %v", err)
	}
	res, err := r.Merge("main", "io500", "a", "combine campaigns")
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(res.Conflicts) != 0 {
		t.Fatalf("unexpected conflicts: %+v", res.Conflicts)
	}
	if res.FastForward || res.Commit == "" {
		t.Fatalf("expected a true merge commit, got %+v", res)
	}
	merged, err := r.loadCommit(res.Commit)
	if err != nil {
		t.Fatalf("load merge: %v", err)
	}
	if len(merged.Parents) != 2 {
		t.Fatalf("merge commit has parents %v, want two", merged.Parents)
	}

	ref, err := kdb.Open("")
	if err != nil {
		t.Fatalf("ref open: %v", err)
	}
	ingestRuns(t, ref, "ior")
	mustExec(t, ref, `CREATE TABLE darshan_logs (id INTEGER PRIMARY KEY, job TEXT, bytes INTEGER)`)
	mustExec(t, ref, "INSERT INTO darshan_logs (job, bytes) VALUES (?, ?)", "j1", int64(1<<20))
	mustExec(t, ref, `CREATE TABLE io500_scores (id INTEGER PRIMARY KEY, site TEXT, score REAL)`)
	mustExec(t, ref, "INSERT INTO io500_scores (site, score) VALUES (?, ?)", "siteA", 12.5)
	mustExec(t, ref, "INSERT INTO io500_scores (site, score) VALUES (?, ?)", "siteB", 7.25)
	if got, want := contentDump(t, db), contentDump(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("merged content differs from sequential ingestion:\n got %q\nwant %q", got, want)
	}
}

func TestMergeReportsCellConflicts(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior", "hacc")
	if _, _, err := r.Commit("main", "a", "base", 0); err != nil {
		t.Fatalf("base: %v", err)
	}
	if err := r.Branch("tune", "main"); err != nil {
		t.Fatalf("branch: %v", err)
	}
	mustExec(t, db, "UPDATE runs SET gbps = ? WHERE id = ?", 2.0, int64(1))
	mustExec(t, db, "UPDATE runs SET notes = ? WHERE id = ?", "theirs-note", int64(2))
	if _, _, err := r.Commit("tune", "b", "their tuning", 0); err != nil {
		t.Fatalf("tune: %v", err)
	}
	if err := r.Checkout("main"); err != nil {
		t.Fatalf("checkout: %v", err)
	}
	mustExec(t, db, "UPDATE runs SET gbps = ? WHERE id = ?", 3.5, int64(1))
	if _, _, err := r.Commit("main", "a", "our tuning", 0); err != nil {
		t.Fatalf("main: %v", err)
	}
	res, err := r.Merge("main", "tune", "a", "combine")
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if res.Commit != "" {
		t.Fatalf("conflicted merge must not commit, got %+v", res)
	}
	if len(res.Conflicts) != 1 {
		t.Fatalf("conflicts = %+v, want exactly the contested cell", res.Conflicts)
	}
	c := res.Conflicts[0]
	if c.Table != "runs" || c.PK != int64(1) || c.Column != "gbps" || c.Kind != "cell" {
		t.Fatalf("conflict identifies wrong cell: %+v", c)
	}
	if c.Base != 3.0 { // base gbps was len("ior") = 3
		t.Fatalf("conflict base value wrong: %+v", c)
	}
	if c.Ours != 3.5 || c.Theirs != 2.0 {
		t.Fatalf("conflict sides wrong: %+v", c)
	}
	// Our side must be untouched.
	row, err := db.QueryRow("SELECT gbps FROM runs WHERE id = ?", int64(1))
	if err != nil || row[0] != 3.5 {
		t.Fatalf("conflicted merge mutated working state: %v %v", row, err)
	}
	// And the conflict set is queryable.
	rows, err := db.Query("SELECT tbl, pk, col, kind FROM __conflicts")
	if err != nil {
		t.Fatalf("__conflicts: %v", err)
	}
	if rows.Len() != 1 {
		t.Fatalf("__conflicts rows = %d, want 1", rows.Len())
	}
	got := rows.All()[0]
	if got[0] != "runs" || got[1] != int64(1) || got[2] != "gbps" || got[3] != "cell" {
		t.Fatalf("__conflicts row = %v", got)
	}
}

func TestSystemTables(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	c1, _, err := r.Commit("main", "alice", "first", 5)
	if err != nil {
		t.Fatalf("c1: %v", err)
	}
	ingestRuns(t, db, "hacc")
	c2, _, err := r.Commit("main", "bob", "second", 5)
	if err != nil {
		t.Fatalf("c2: %v", err)
	}

	rows, err := db.Query("SELECT hash, author, message FROM __log")
	if err != nil {
		t.Fatalf("__log: %v", err)
	}
	if rows.Len() != 2 {
		t.Fatalf("__log rows = %d, want 2", rows.Len())
	}
	if first := rows.All()[0]; first[0] != c2 || first[1] != "bob" {
		t.Fatalf("__log not newest-first: %v", first)
	}
	row, err := db.QueryRow("SELECT message FROM __log WHERE hash = ?", c1)
	if err != nil || row[0] != "first" {
		t.Fatalf("__log WHERE failed: %v %v", row, err)
	}

	rows, err = db.Query("SELECT name, head FROM __branches")
	if err != nil {
		t.Fatalf("__branches: %v", err)
	}
	if rows.Len() != 1 || rows.All()[0][0] != "main" || rows.All()[0][1] != c2 {
		t.Fatalf("__branches = %v", rows.All())
	}

	rows, err = db.Query(
		"SELECT tbl, pk, kind, new_value FROM __diff WHERE from_ref = ? AND to_ref = ?", c1, c2)
	if err != nil {
		t.Fatalf("__diff: %v", err)
	}
	if rows.Len() != 1 {
		t.Fatalf("__diff rows = %v, want the one added run", rows.All())
	}
	d := rows.All()[0]
	if d[0] != "runs" || d[1] != int64(2) || d[2] != "add" || !strings.Contains(d[3].(string), "hacc") {
		t.Fatalf("__diff row = %v", d)
	}
	// Engine-side filtering still applies on top of the provider.
	rows, err = db.Query(
		"SELECT tbl FROM __diff WHERE from_ref = ? AND to_ref = ? AND kind = ?", c1, c2, "delete")
	if err != nil {
		t.Fatalf("__diff filtered: %v", err)
	}
	if rows.Len() != 0 {
		t.Fatalf("no deletes expected, got %v", rows.All())
	}
	if _, err := db.Query("SELECT * FROM __diff"); err == nil {
		t.Fatal("__diff without refs must error")
	}
	// Unknown system tables fall through to the regular engine error.
	if _, err := db.Query("SELECT * FROM __nosuch"); err == nil {
		t.Fatal("unknown system table must error")
	}
}

func TestResolveHashPrefix(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	h, _, err := r.Commit("main", "a", "m", 0)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	got, err := r.Resolve(h[:8])
	if err != nil || got != h {
		t.Fatalf("prefix resolve = %q, %v; want %q", got, err, h)
	}
	if _, err := r.Resolve("deadbeef"); err == nil {
		t.Fatal("unknown prefix must error")
	}
	if _, err := r.Resolve("nope"); err == nil {
		t.Fatal("unknown ref must error")
	}
}

func TestLogWalksHistory(t *testing.T) {
	db, r := newRepo(t)
	var hashes []string
	for i := 0; i < 3; i++ {
		ingestRuns(t, db, fmt.Sprintf("app%d", i))
		h, _, err := r.Commit("main", "a", fmt.Sprintf("c%d", i), 0)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		hashes = append(hashes, h)
	}
	log, err := r.Log("main", 0)
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if len(log) != 3 {
		t.Fatalf("log len = %d", len(log))
	}
	for i, c := range log {
		if c.Hash != hashes[2-i] {
			t.Fatalf("log[%d] = %s, want %s", i, c.Hash, hashes[2-i])
		}
	}
	if short, err := r.Log("main", 1); err != nil || len(short) != 1 {
		t.Fatalf("limited log = %v, %v", short, err)
	}
}

func TestMergeRefusesDirtyWorking(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	if _, _, err := r.Commit("main", "a", "base", 0); err != nil {
		t.Fatalf("base: %v", err)
	}
	if err := r.Branch("b", "main"); err != nil {
		t.Fatalf("branch: %v", err)
	}
	ingestRuns(t, db, "hacc")
	if _, _, err := r.Commit("b", "a", "theirs", 0); err != nil {
		t.Fatalf("theirs: %v", err)
	}
	if err := r.Checkout("main"); err != nil {
		t.Fatalf("checkout: %v", err)
	}
	mustExec(t, db, "INSERT INTO runs (app, gbps, notes) VALUES (?, ?, ?)", "dirty", 0.0, "")
	if _, err := r.Merge("main", "b", "a", "m"); err == nil ||
		!strings.Contains(err.Error(), "commit or checkout") {
		t.Fatalf("merge on dirty working state must refuse, got %v", err)
	}
}

// TestMergeOneSidedTableIsTheirs: a table only theirs changed is adopted
// whole — its rows in theirs' order, its indexes, its columns — and one
// only ours changed is kept. After the merge the working state is the
// head ours now points at, so the next merge does not refuse it.
func TestMergeOneSidedTableIsTheirs(t *testing.T) {
	cases := []struct {
		name         string
		theirs, ours func(db *kdb.DB)
	}{
		{"row order", func(db *kdb.DB) {
			mustExec(t, db, "DELETE FROM runs WHERE id = ?", int64(2))
			mustExec(t, db, "INSERT INTO runs (id, app, gbps, notes) VALUES (?, ?, ?, ?)", int64(2), "hacc", 4.0, "n-hacc")
		}, nil},
		{"index", func(db *kdb.DB) {
			mustExec(t, db, "CREATE INDEX idx_runs_app ON runs (app)")
		}, nil},
		{"columns", func(db *kdb.DB) {
			mustExec(t, db, "DROP TABLE runs")
			mustExec(t, db, "CREATE TABLE runs (id INTEGER PRIMARY KEY, app TEXT, gbps REAL, notes TEXT, site TEXT)")
			mustExec(t, db, "INSERT INTO runs (app, gbps, notes, site) VALUES (?, ?, ?, ?)", "ior", 3.0, "n-ior", "siteA")
		}, func(db *kdb.DB) {
			mustExec(t, db, "CREATE TABLE insights (id INTEGER PRIMARY KEY, body TEXT)")
			mustExec(t, db, "INSERT INTO insights (body) VALUES (?)", "ours only")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, r := newRepo(t)
			ingestRuns(t, db, "ior", "hacc", "lammps")
			if _, _, err := r.Commit("main", "a", "base", 0); err != nil {
				t.Fatal(err)
			}
			if err := r.Branch("side", "main"); err != nil {
				t.Fatal(err)
			}
			tc.theirs(db)
			sideHead, _, err := r.Commit("side", "b", "theirs", 0)
			if err != nil {
				t.Fatal(err)
			}
			theirs := contentDump(t, db)
			if err := r.Checkout("main"); err != nil {
				t.Fatal(err)
			}
			if tc.ours != nil {
				tc.ours(db)
				if _, _, err := r.Commit("main", "a", "ours", 0); err != nil {
					t.Fatal(err)
				}
			}
			res, err := r.Merge("main", "side", "a", "merge")
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			if len(res.Conflicts) != 0 {
				t.Fatalf("conflicts: %+v", res.Conflicts)
			}
			if tc.ours == nil {
				if !res.FastForward || res.Commit != sideHead {
					t.Fatalf("expected a fast-forward to %s, got %+v", sideHead, res)
				}
				if got := contentDump(t, db); !bytes.Equal(got, theirs) {
					t.Fatalf("fast-forward left the working state off theirs:\n got %q\nwant %q", got, theirs)
				}
			} else {
				changes, err := r.Diff("side", "WORKING")
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range changes {
					if c.Table != "insights" {
						t.Fatalf("merged state differs from theirs outside ours' own table: %+v", c)
					}
				}
				if len(changes) == 0 {
					t.Fatal("ours' own table was lost in the merge")
				}
			}
			if _, err := r.Merge("main", "side", "a", "again"); err != nil {
				t.Fatalf("the next merge refused the merged working state: %v", err)
			}
		})
	}
}

// snapshotAutoIDs reads the auto-increment marks of WriteSnapshot's meta
// record.
func snapshotAutoIDs(t testing.TB, db *kdb.DB) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := kdb.DecodeSnapshotRecords(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if meta := recs[len(recs)-1]; meta.Meta {
		return meta.AutoIDs
	}
	t.Fatal("snapshot does not end in a meta record")
	return nil
}

// TestCheckoutKeepsAutoIDs: after a checkout every table's auto-increment
// mark is max(working before, commit) — for a table the checkout changes,
// one absent from the working state whose commit mark exceeds its largest
// id, and one whose index set differs.
func TestCheckoutKeepsAutoIDs(t *testing.T) {
	db, r := newRepo(t)
	tables := []string{"changed", "absent", "reindexed"}
	for _, name := range tables {
		mustExec(t, db, "CREATE TABLE "+name+" (id INTEGER PRIMARY KEY, v TEXT)")
		for i := 0; i < 5; i++ {
			mustExec(t, db, "INSERT INTO "+name+" (v) VALUES (?)", fmt.Sprint(i))
		}
		mustExec(t, db, "DELETE FROM "+name+" WHERE id > ?", int64(3))
	}
	hash, _, err := r.Commit("main", "a", "marks at 5, rows to 3", 0)
	if err != nil {
		t.Fatal(err)
	}
	committed := contentDump(t, db)
	for i := 0; i < 3; i++ {
		mustExec(t, db, "INSERT INTO changed (v) VALUES (?)", "more")
	}
	mustExec(t, db, "DELETE FROM changed WHERE id > ?", int64(6))
	mustExec(t, db, "DROP TABLE absent")
	mustExec(t, db, "CREATE INDEX idx_reindexed_v ON reindexed (v)")
	mustExec(t, db, "INSERT INTO reindexed (v) VALUES (?)", "gone")
	mustExec(t, db, "DELETE FROM reindexed WHERE v = ?", "gone")

	before := snapshotAutoIDs(t, db)
	c, err := r.loadCommit(hash)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Checkout(hash); err != nil {
		t.Fatal(err)
	}
	if got := contentDump(t, db); !bytes.Equal(got, committed) {
		t.Fatalf("checkout content differs:\n got %q\nwant %q", got, committed)
	}
	after := snapshotAutoIDs(t, db)
	for _, name := range tables {
		if want := max(before[name], c.Manifest.AutoIDs[name]); after[name] != want {
			t.Errorf("%s: mark %d after checkout, want max(%d, %d)", name, after[name], before[name], c.Manifest.AutoIDs[name])
		}
	}
}

func BenchmarkCommit(b *testing.B) {
	db, r := newRepo(b)
	apps := make([]string, 200)
	for i := range apps {
		apps[i] = fmt.Sprintf("app%03d", i)
	}
	ingestRuns(b, db, apps...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExec(b, db, "UPDATE runs SET gbps = ? WHERE id = ?", float64(i), int64(1))
		if _, _, err := r.Commit("main", "bench", "tick", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitAfterInsert is the append path BenchmarkCommit (which
// UPDATEs, so re-chunks the table) never takes: one new run record into a
// table of several chunks, then a commit.
func BenchmarkCommitAfterInsert(b *testing.B) {
	db, r := newRepo(b)
	ingestRuns(b, db, "ior")
	bulkRuns(b, db, rand.New(rand.NewSource(1)), 4*kdb.DefaultChunkLines)
	if _, _, err := r.Commit("main", "bench", "base", 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExec(b, db, "INSERT INTO runs (app, gbps, notes) VALUES (?, ?, ?)", "app", float64(i), "n")
		if _, created, err := r.Commit("main", "bench", "tick", 0); err != nil || !created {
			b.Fatalf("commit: created=%v err=%v", created, err)
		}
	}
}

func BenchmarkDiff(b *testing.B) {
	b.Run("tables=1,changed=1", func(b *testing.B) {
		db, r := newRepo(b)
		apps := make([]string, 200)
		for i := range apps {
			apps[i] = fmt.Sprintf("app%03d", i)
		}
		ingestRuns(b, db, apps...)
		if _, _, err := r.Commit("main", "bench", "base", 0); err != nil {
			b.Fatal(err)
		}
		ingestRuns(b, db, "extra1", "extra2")
		mustExec(b, db, "UPDATE runs SET gbps = ? WHERE id = ?", 1.5, int64(3))
		benchDiffTip(b, r)
	})
	b.Run("tables=20,changed=1", func(b *testing.B) {
		db, r := newRepo(b)
		manyTables(b, db, 20, 200)
		if _, _, err := r.Commit("main", "bench", "base", 0); err != nil {
			b.Fatal(err)
		}
		mustExec(b, db, "INSERT INTO t07 (v, x) VALUES (?, ?)", "extra", 1.5)
		mustExec(b, db, "UPDATE t07 SET x = ? WHERE id = ?", 2.5, int64(3))
		benchDiffTip(b, r)
	})
}

// manyTables creates n tables of rows rows each, t00 to t(n-1).
func manyTables(b *testing.B, db *kdb.DB, n, rows int) {
	b.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%02d", i)
		mustExec(b, db, "CREATE TABLE "+name+" (id INTEGER PRIMARY KEY, v TEXT, x REAL)")
		err := db.Batch(func(exec kdb.ExecFunc) error {
			for j := 0; j < rows; j++ {
				if _, err := exec("INSERT INTO "+name+" (v, x) VALUES (?, ?)", fmt.Sprintf("%s-%d", name, j), float64(j)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchDiffTip commits the working state as the tip of main and times
// diffs of the commit before it against it.
func benchDiffTip(b *testing.B, r *Repo) {
	b.Helper()
	if _, _, err := r.Commit("main", "bench", "tip", 0); err != nil {
		b.Fatal(err)
	}
	log, err := r.Log("main", 2)
	if err != nil || len(log) != 2 {
		b.Fatalf("log: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Diff(log[1].Hash, log[0].Hash); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	b.Run("tables=1,changed=1", func(b *testing.B) {
		benchMerge(b, func(db *kdb.DB) { ingestRuns(b, db, "ior", "hacc") },
			func(db *kdb.DB) { ingestRuns(b, db, "lammps") },
			func(db *kdb.DB) { mustExec(b, db, "UPDATE runs SET notes = ? WHERE id = ?", "ours", int64(1)) })
	})
	b.Run("tables=20,changed=1", func(b *testing.B) {
		benchMerge(b, func(db *kdb.DB) { manyTables(b, db, 20, 200) },
			func(db *kdb.DB) { mustExec(b, db, "INSERT INTO t07 (v, x) VALUES (?, ?)", "theirs", 1.5) },
			func(db *kdb.DB) { mustExec(b, db, "UPDATE t07 SET v = ? WHERE id = ?", "ours", int64(1)) })
	})
}

// benchMerge times merging branch side, which ran theirs, into main, which
// ran ours, both from a commit of what base made.
func benchMerge(b *testing.B, base, theirs, ours func(db *kdb.DB)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, r := newRepo(b)
		base(db)
		if _, _, err := r.Commit("main", "bench", "base", 0); err != nil {
			b.Fatal(err)
		}
		if err := r.Branch("side", "main"); err != nil {
			b.Fatal(err)
		}
		theirs(db)
		if _, _, err := r.Commit("side", "bench", "theirs", 0); err != nil {
			b.Fatal(err)
		}
		if err := r.Checkout("main"); err != nil {
			b.Fatal(err)
		}
		ours(db)
		if _, _, err := r.Commit("main", "bench", "ours", 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := r.Merge("main", "side", "bench", "merge")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Conflicts) != 0 {
			b.Fatalf("conflicts: %+v", res.Conflicts)
		}
	}
}

// BenchmarkCheckout alternates checkouts of a history's first commit and
// its tip over 2,000 rows held fixed, each commit having updated one row:
// the cost must follow the changed tables, not the number of commits.
func BenchmarkCheckout(b *testing.B) {
	for _, commits := range []int{10, 100, 400} {
		b.Run(fmt.Sprintf("commits=%d", commits), func(b *testing.B) {
			db, r := newRepo(b)
			ingestRuns(b, db, "ior")
			bulkRuns(b, db, rand.New(rand.NewSource(1)), 1999)
			first, _, err := r.Commit("main", "bench", "c0", 0)
			if err != nil {
				b.Fatal(err)
			}
			for c := 1; c < commits; c++ {
				mustExec(b, db, "UPDATE runs SET gbps = ? WHERE id = ?", float64(c), int64(1+c%2000))
				if _, _, err := r.Commit("main", "bench", fmt.Sprintf("c%d", c), 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref := "main"
				if i%2 == 0 {
					ref = first
				}
				if err := r.Checkout(ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
