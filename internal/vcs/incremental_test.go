package vcs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
)

var errBoom = errors.New("boom")

// snapshotManifest is the reference the incremental commit path must
// reproduce: the content chunks the text cutter (kdbtest.ChunkStream)
// cuts from the full WriteSnapshot stream.
func snapshotManifest(t testing.TB, db *kdb.DB) []ManifestChunk {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	chunks, err := kdbtest.ChunkStream(buf.Bytes())
	if err != nil {
		t.Fatalf("chunk: %v", err)
	}
	var out []ManifestChunk
	for _, c := range chunks {
		if c.Meta || IsVersionTable(c.Table) {
			continue
		}
		out = append(out, ManifestChunk{Table: c.Table, Hash: c.Hash, Size: len(c.Data)})
	}
	return out
}

// checkWorking requires the incremental cut of the working state to equal
// the snapshot-derived manifest chunk for chunk.
func checkWorking(t testing.TB, r *Repo, when string) *working {
	t.Helper()
	r.mu.Lock()
	w, err := r.workingManifest()
	r.mu.Unlock()
	if err != nil {
		t.Fatalf("%s: working manifest: %v", when, err)
	}
	if want := snapshotManifest(t, r.db); !reflect.DeepEqual(w.manifest.Chunks, want) {
		t.Fatalf("%s: incremental manifest differs from the text cutter:\n got %v\nwant %v", when, w.manifest.Chunks, want)
	}
	return w
}

// headManifest loads the manifest of a branch's head commit.
func headManifest(t testing.TB, r *Repo, branch string) []ManifestChunk {
	t.Helper()
	log, err := r.Log(branch, 1)
	if err != nil || len(log) != 1 {
		t.Fatalf("log %s: %v", branch, err)
	}
	return log[0].Manifest.Chunks
}

// bulkRuns appends n run records in one batch.
func bulkRuns(t testing.TB, db *kdb.DB, rng *rand.Rand, n int) {
	t.Helper()
	err := db.Batch(func(exec kdb.ExecFunc) error {
		for i := 0; i < n; i++ {
			app := fmt.Sprintf("app%03d", rng.Intn(500))
			if _, err := exec("INSERT INTO runs (app, gbps, notes) VALUES (?, ?, ?)", app, float64(rng.Intn(9000))/7, "n-"+app); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("bulk insert: %v", err)
	}
}

// TestCommitHashesUnchanged pins commit identities minted by the
// full-snapshot commit path this one replaced, over the same statements.
func TestCommitHashesUnchanged(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior", "hacc", "lammps")
	h1, _, err := r.Commit("main", "analyst", "baseline campaign", 7)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE INDEX idx_runs_app ON runs (app)")
	ingestRuns(t, db, "nek5000")
	mustExec(t, db, "UPDATE runs SET gbps = ? WHERE id = ?", 2.5, int64(2))
	h2, _, err := r.Commit("main", "analyst", "round two", 8)
	if err != nil {
		t.Fatal(err)
	}
	const want1 = "4cb0e232e40902f98a612e3af710eb4b95b7a8612567aead55f66026514aa3e0"
	const want2 = "d47d2fe22cafd05b6b37bb5a7def587e69b28a51a1bdf961cc46e9c994512a49"
	if h1 != want1 || h2 != want2 {
		t.Fatalf("commit hashes moved:\n got %s %s\nwant %s %s", h1, h2, want1, want2)
	}
}

// TestIndexDDLRechunksTable: CREATE INDEX puts a record into the table's
// first chunk and shifts every later chunk boundary; DROP INDEX takes it
// out again. Neither touches a row, and both must still void the table's
// remembered chunk list.
func TestIndexDDLRechunksTable(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	bulkRuns(t, db, rand.New(rand.NewSource(1)), 2*kdb.DefaultChunkLines+40)
	for i, stmt := range []string{
		"", // the base commit
		"CREATE INDEX idx_runs_app ON runs (app)",
		"DROP INDEX idx_runs_app",
	} {
		if stmt != "" {
			mustExec(t, db, stmt)
		}
		if _, created, err := r.Commit("main", "a", fmt.Sprintf("c%d", i), 0); err != nil || !created {
			t.Fatalf("commit after %q: created=%v err=%v", stmt, created, err)
		}
		if got, want := headManifest(t, r, "main"), snapshotManifest(t, db); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %q the committed manifest differs from the text cutter:\n got %v\nwant %v", stmt, got, want)
		}
	}
}

// TestIncrementalManifestEqualsSnapshotChunks drives random mutation
// sequences — batched appends that cross chunk boundaries, UPDATE, DELETE,
// rolled-back batches, index DDL, DROP+CREATE, checkout of an older commit
// — committing at random, and after every step compares the incremental
// manifest (and each created commit's) with the snapshot-derived one.
func TestIncrementalManifestEqualsSnapshotChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	mustExec(t, db, `CREATE TABLE insights (id INTEGER PRIMARY KEY, body TEXT)`)
	mustExec(t, db, `CREATE TABLE Tags (name TEXT, weight REAL)`) // keyless, mixed-case name
	var commits []string
	indexed := false
	var reused, extended, rechunked int
	for step := 0; step < 45; step++ {
		when := fmt.Sprintf("step %d", step)
		checkedOut := ""
		switch op := rng.Intn(14); op {
		default:
			bulkRuns(t, db, rng, 1+rng.Intn(200))
		case 6:
			mustExec(t, db, "INSERT INTO insights (body) VALUES (?)", fmt.Sprintf("insight %d", step))
		case 7:
			mustExec(t, db, "INSERT INTO Tags (name, weight) VALUES (?, ?)", fmt.Sprintf("t%d", step), float64(step))
		case 8:
			mustExec(t, db, "UPDATE runs SET gbps = ? WHERE id = ?", float64(step), 1+rng.Intn(200))
		case 9:
			mustExec(t, db, "DELETE FROM runs WHERE id = ?", 1+rng.Intn(200))
		case 10:
			err := db.Batch(func(exec kdb.ExecFunc) error {
				if _, err := exec("INSERT INTO runs (app, gbps, notes) VALUES ('gone', 1, 'gone')"); err != nil {
					return err
				}
				return errBoom
			})
			if !errors.Is(err, errBoom) {
				t.Fatalf("%s: failed batch: %v", when, err)
			}
		case 11:
			if indexed {
				mustExec(t, db, "DROP INDEX idx_runs_app")
			} else {
				mustExec(t, db, "CREATE INDEX idx_runs_app ON runs (app)")
			}
			indexed = !indexed
		case 12:
			mustExec(t, db, "DROP TABLE insights")
			mustExec(t, db, `CREATE TABLE insights (id INTEGER PRIMARY KEY, body TEXT)`)
		case 13:
			if len(commits) > 0 {
				checkedOut = commits[rng.Intn(len(commits))]
				if err := r.Checkout(checkedOut); err != nil {
					t.Fatalf("%s: checkout: %v", when, err)
				}
				// The checked-out commit decides whether the index exists.
				indexed = false
				_ = db.View(func(v *kdb.View) error {
					tv, _ := v.Table("runs")
					var rec bytes.Buffer
					if err := tv.EncodeRecords(&rec, 0, 2); err != nil {
						return err
					}
					indexed = bytes.Contains(rec.Bytes(), []byte("CREATE INDEX"))
					return nil
				})
			}
		}
		w := checkWorking(t, r, when)
		if checkedOut != "" {
			c, err := r.loadCommit(checkedOut)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.Manifest.Chunks, w.manifest.Chunks) {
				t.Fatalf("%s: checkout of %s does not reproduce its manifest", when, checkedOut)
			}
		}
		if rng.Intn(4) == 0 {
			hash, created, err := r.Commit("main", "a", when, 0)
			if err != nil {
				t.Fatalf("%s: commit: %v", when, err)
			}
			if created {
				commits = append(commits, hash)
				reused, extended, rechunked = reused+w.reused, extended+w.extended, rechunked+w.rechunked
			}
			// Nothing moved since w was checked against the snapshot.
			if got := headManifest(t, r, "main"); !reflect.DeepEqual(got, w.manifest.Chunks) {
				t.Fatalf("%s: committed manifest differs from the working one", when)
			}
		}
	}
	if reused == 0 || extended == 0 || rechunked == 0 {
		t.Fatalf("the run must exercise every chunking path: reused=%d extended=%d rechunked=%d", reused, extended, rechunked)
	}
}

// TestDiffEqualsFullDiff: Diff reads back only the tables whose chunk
// lists differ, and finds exactly the changes a diff of every table finds,
// between any two of a random history's commits and the working state.
func TestDiffEqualsFullDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	mustExec(t, db, `CREATE TABLE insights (id INTEGER PRIMARY KEY, body TEXT)`)
	mustExec(t, db, `CREATE TABLE Tags (name TEXT, weight REAL)`)
	refs := []string{"WORKING"}
	for step := 0; step < 12; step++ {
		switch rng.Intn(5) {
		case 0:
			bulkRuns(t, db, rng, 1+rng.Intn(300))
		case 1:
			mustExec(t, db, "INSERT INTO insights (body) VALUES (?)", fmt.Sprintf("insight %d", step))
			mustExec(t, db, "INSERT INTO Tags (name, weight) VALUES (?, ?)", fmt.Sprintf("t%d", step), float64(step))
		case 2:
			mustExec(t, db, "UPDATE runs SET gbps = ? WHERE id = ?", float64(step), 1+rng.Intn(20))
		case 3:
			mustExec(t, db, "DELETE FROM runs WHERE id = ?", 1+rng.Intn(20))
		case 4:
			mustExec(t, db, "DROP TABLE insights")
			mustExec(t, db, `CREATE TABLE insights (id INTEGER PRIMARY KEY, body TEXT, score REAL)`)
		}
		hash, created, err := r.Commit("main", "a", fmt.Sprintf("c%d", step), 0)
		if err != nil {
			t.Fatal(err)
		}
		if created {
			refs = append(refs, hash)
		}
	}
	mustExec(t, db, "UPDATE runs SET notes = 'working' WHERE id = 1")
	every := func(ref string) map[string]*kdb.Table {
		c, lists, err := r.resolveLists(ref)
		if err != nil {
			t.Fatal(err)
		}
		tables := map[string]bool{}
		for name := range lists {
			tables[name] = true
		}
		state, err := r.resolveState(c, tables)
		if err != nil {
			t.Fatal(err)
		}
		return state
	}
	for _, from := range refs {
		for _, to := range refs {
			got, err := r.Diff(from, to)
			if err != nil {
				t.Fatal(err)
			}
			want, err := diffStates(every(from), every(to))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Diff(%.8s, %.8s) differs from a diff of every table:\n got %v\nwant %v", from, to, got, want)
			}
		}
	}
}

// TestAppendCommitEncodesOnlyTheTail: after one appended row a commit
// encodes one chunk of the touched table and nothing of the others.
func TestAppendCommitEncodesOnlyTheTail(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	bulkRuns(t, db, rand.New(rand.NewSource(3)), 3*kdb.DefaultChunkLines)
	mustExec(t, db, `CREATE TABLE insights (id INTEGER PRIMARY KEY, body TEXT)`)
	mustExec(t, db, "INSERT INTO insights (body) VALUES ('striping helps')")
	if _, _, err := r.Commit("main", "a", "base", 0); err != nil {
		t.Fatal(err)
	}
	ingestRuns(t, db, "hacc")
	w := checkWorking(t, r, "after one append")
	if w.reused != 1 || w.extended != 1 || w.rechunked != 0 || len(w.fresh) != 1 {
		t.Fatalf("one appended row: reused=%d extended=%d rechunked=%d fresh chunks=%d; want 1, 1, 0, 1",
			w.reused, w.extended, w.rechunked, len(w.fresh))
	}
	mustExec(t, db, "UPDATE runs SET gbps = 0 WHERE id = 1")
	w = checkWorking(t, r, "after an update")
	if w.rechunked != 1 || len(w.fresh) != len(w.tables["runs"].chunks) {
		t.Fatalf("an UPDATE must re-chunk the whole table: rechunked=%d fresh=%d of %d", w.rechunked, len(w.fresh), len(w.tables["runs"].chunks))
	}
}

// TestChunkStoreRewriteVoidsRememberedChunks: reused chunks are trusted to
// be in vcs_chunks without a lookup, so anything but an append to the
// chunk store must void that trust — the next commit re-encodes and
// stores every chunk again.
func TestChunkStoreRewriteVoidsRememberedChunks(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior", "hacc")
	if _, _, err := r.Commit("main", "a", "base", 0); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "DELETE FROM vcs_chunks")
	ingestRuns(t, db, "lammps")
	tip, created, err := r.Commit("main", "a", "tip", 0)
	if err != nil || !created {
		t.Fatalf("commit: created=%v err=%v", created, err)
	}
	want := contentDump(t, db)
	mustExec(t, db, "DELETE FROM runs")
	if err := r.Checkout(tip); err != nil {
		t.Fatalf("checkout after the chunk store was wiped: %v", err)
	}
	if got := contentDump(t, db); !bytes.Equal(got, want) {
		t.Fatalf("checkout content differs:\n got %q\nwant %q", got, want)
	}
}

// TestWorkingStateIsDetached: Diff and Merge hold the working tables while
// the engine keeps mutating rows in place.
func TestWorkingStateIsDetached(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior", "hacc")
	state, err := r.workingState(map[string]bool{"runs": true, "vcs_chunks": true})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(state["runs"].Rows)
	mustExec(t, db, "UPDATE runs SET app = 'overwritten', gbps = -1")
	ingestRuns(t, db, "lammps")
	if got := fmt.Sprint(state["runs"].Rows); got != want {
		t.Fatalf("working state followed the engine's rows:\n got %s\nwant %s", got, want)
	}
	if _, ok := state["vcs_chunks"]; ok || len(state) != 1 {
		t.Fatalf("working state must hold the content tables only, got %d tables", len(state))
	}
}

// TestCommitsRaceWriters commits and diffs while writers append, update
// and roll back; run under -race. Once the writers stop, the next commit
// must still match the snapshot-derived manifest.
func TestCommitsRaceWriters(t *testing.T) {
	db, r := newRepo(t)
	ingestRuns(t, db, "ior")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				var err error
				switch rng.Intn(4) {
				case 0:
					_, err = db.Exec("UPDATE runs SET gbps = ? WHERE id = ?", float64(i), 1+rng.Intn(20))
				case 1:
					err = db.Batch(func(exec kdb.ExecFunc) error {
						if _, err := exec("INSERT INTO runs (app, gbps, notes) VALUES ('gone', 1, 'gone')"); err != nil {
							return err
						}
						return errBoom
					})
					if errors.Is(err, errBoom) {
						err = nil
					}
				default:
					_, err = db.Exec("INSERT INTO runs (app, gbps, notes) VALUES (?, ?, ?)", fmt.Sprintf("w%d-%d", g, i), float64(i), "n")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	// Diffs of the working state cut chunk lists as commits do, from
	// another goroutine.
	diffsDone := make(chan struct{})
	go func() {
		defer close(diffsDone)
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			if _, err := r.Diff("WORKING", "WORKING"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { <-diffsDone }()
	for i, running := 0, true; running; i++ {
		select {
		case <-writersDone:
			running = false
		default:
		}
		if _, _, err := r.Commit("main", "a", fmt.Sprintf("c%d", i), 0); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if _, err := r.Diff("main", "WORKING"); err != nil {
			t.Fatalf("diff %d: %v", i, err)
		}
	}
	if _, _, err := r.Commit("main", "a", "final", 0); err != nil {
		t.Fatal(err)
	}
	if got, want := headManifest(t, r, "main"), snapshotManifest(t, db); !reflect.DeepEqual(got, want) {
		t.Fatal("the commit after the writers stopped differs from the text cutter")
	}
}
