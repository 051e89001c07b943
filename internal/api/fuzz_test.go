package api

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/workloadgen"
)

// FuzzCacheEqualsColdBuild runs a seeded interleaving of saves, UPDATEs and
// DELETEs of the tables the object and IO500 pages read, CREATE INDEX, and
// reads of the object, IO500, /v1/query (three aggregates, whose folds
// resume across appends, and a join) and keyset routes (full pages, kept
// across appends), and holds every
// 200 to the cache's contract: its body is what a cold api.Server answers
// over the database as it stood at the served X-Knowledge-LSN, and that LSN
// is the primary's. Three setups: embedded; a repl.Router whose follower
// is paused for stretches, so reads routed to the replica lag the commits
// the server knows of; and a served primary that never returns a
// footprint, where no entry may outlive its LSN.
func FuzzCacheEqualsColdBuild(f *testing.F) {
	for setup := uint8(0); setup < 3; setup++ {
		f.Add(uint64(1), setup)
		f.Add(uint64(45), setup)
	}
	f.Fuzz(func(t *testing.T, seed uint64, setup uint8) {
		cacheAgainstColdBuild(t, seed, setup%3)
	})
}

// legacyBackend serves a database the way a server from before footprints
// did: a read step never reports one.
type legacyBackend struct{ *kdb.DB }

func (l legacyBackend) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	plain := make([]kdb.Stmt, len(stmts))
	for i, st := range stmts {
		plain[i] = kdb.Stmt{SQL: st.SQL, Args: st.Args}
	}
	return l.DB.QueryBatch(tc, plain)
}

func cacheAgainstColdBuild(t *testing.T, seed uint64, setup uint8) {
	rng := rand.New(rand.NewSource(int64(seed)))
	var (
		primary *kdb.DB
		writer  *schema.Store
		store   *schema.Store
		r       *routed
	)
	switch setup {
	case 0:
		primary = kdbtest.MemDB(t, kdb.DBOptions{})
		var err error
		if writer, err = schema.Wrap(primary); err != nil {
			t.Fatal(err)
		}
		store = writer
	case 1:
		r = newRouted(t, nil)
		primary, writer, store = r.primary, r.writer, r.store
	default:
		r = newRouted(t, func(db *kdb.DB) kdb.Conn { return legacyBackend{db} })
		pr, err := kdb.Dial(r.paddr)
		if err != nil {
			t.Fatal(err)
		}
		primary, writer, store = r.primary, r.writer, &schema.Store{DB: pr}
		t.Cleanup(func() { pr.Close() })
	}
	objects, io500s := 0, 0
	saveIO500 := func() {
		corpus, err := workloadgen.SynthesizeIO500Corpus(1, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writer.SaveIO500s(corpus); err != nil {
			t.Fatal(err)
		}
		io500s++
	}
	for i := 0; i < 3; i++ {
		saveObject(t, writer, rng.Uint64())
		objects++
	}
	saveIO500()
	s := newAPI(t, store)
	caughtUp(t, s, primary.LSN())

	colds := map[int64]*Server{}
	cold := func(lsn int64) *Server {
		if c := colds[lsn]; c != nil {
			return c
		}
		recs, ok := primary.RecordsSince(0)
		if !ok || int64(len(recs)) < lsn {
			t.Fatalf("the primary's history does not reach back to LSN 1 (%d records, want %d)", len(recs), lsn)
		}
		db := kdbtest.MemDB(t, kdb.DBOptions{})
		if err := db.ApplyRecords(recs[:lsn]); err != nil {
			t.Fatal(err)
		}
		colds[lsn] = newAPI(t, &schema.Store{DB: db})
		return colds[lsn]
	}
	pick := func(n int) int64 { return int64(1 + rng.Intn(n+1)) } // now and then one past the last
	indexes := [][2]string{{"summaries", "operation"}, {"results", "iteration"}, {"performances", "command"}, {"IOFHsTestcases", "name"}}
	queries := []string{
		"SELECT COUNT(*) FROM performances",
		"SELECT operation, COUNT(*), AVG(mean_mib) FROM summaries GROUP BY operation",
		"SELECT operation, MAX(max_mib) FROM summaries GROUP BY operation",
		"SELECT performances.command, summaries.operation FROM performances JOIN summaries ON performances.id = summaries.performance_id WHERE performances.id = 2",
	}
	write := func(sql string, args ...any) {
		if _, err := writer.DB.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for step := 0; step < 60; step++ {
		op := rng.Intn(14)
		switch op {
		case 0:
			saveObject(t, writer, rng.Uint64())
			objects++
		case 1:
			saveIO500()
		case 2:
			write("UPDATE summaries SET mean_mib = ? WHERE performance_id = ?", rng.Float64(), pick(objects))
		case 3:
			write("UPDATE performances SET command = ? WHERE id = ?", fmt.Sprintf("cmd %d", step), pick(objects))
		case 4:
			write("UPDATE IOFHsScores SET total = ? WHERE IOFH_id = ?", rng.Float64(), pick(io500s))
		case 5:
			write("DELETE FROM results WHERE summaries_id = ?", pick(2*objects))
		case 6:
			write("DELETE FROM IOFHsOptions WHERE IOFH_id = ?", pick(io500s))
		case 7:
			ix := indexes[rng.Intn(len(indexes))]
			write(fmt.Sprintf("CREATE INDEX IF NOT EXISTS ix_fuzz_%s ON %s (%s)", ix[1], ix[0], ix[1]))
		case 8:
			if r != nil {
				r.pause(!r.paused)
			}
		}
		if op <= 8 {
			caughtUp(t, s, primary.LSN())
			continue
		}
		var path string
		switch op {
		case 9:
			path = fmt.Sprintf("/v1/objects/%d", pick(objects))
		case 10:
			path = fmt.Sprintf("/v1/io500/%d", pick(io500s))
		case 11:
			path = "/v1/query?q=" + url.QueryEscape(queries[rng.Intn(len(queries))])
		case 12:
			path = "/v1/objects?limit=2&cursor=" + url.QueryEscape(encodeIDCursor(int64(rng.Intn(objects+1))))
		default:
			path = "/v1/io500?limit=2"
		}
		w := fetch(t, s, path)
		if w.Code != http.StatusOK {
			continue
		}
		lsn := servedLSN(t, w)
		if lsn != primary.LSN() {
			t.Fatalf("step %d: %s served at LSN %d, the primary is at %d", step, path, lsn, primary.LSN())
		}
		if want := fetch(t, cold(lsn), path); want.Body.String() != w.Body.String() {
			t.Fatalf("step %d: %s (X-Cache %s) at LSN %d:\n got %s\nwant %s", step, path, w.Header().Get("X-Cache"), lsn, w.Body, want.Body)
		}
	}
	if kept := s.Metrics.Counter("api_cache_kept_total").Value(); setup == 2 && kept != 0 {
		t.Fatalf("%d entries of a peer without footprints were carried across a commit", kept)
	}
}
