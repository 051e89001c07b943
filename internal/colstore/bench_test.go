package colstore

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/kdb"
)

// benchDB builds a table of n rows shaped like the knowledge store's
// score data: a clustered integer key, two low-cardinality text columns,
// two numeric measures, and an integer column that is NULL in about one
// row in ten.
func benchDB(b *testing.B, n int, attach bool) (*kdb.DB, *Store) {
	b.Helper()
	db, err := kdb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE scores (id INTEGER PRIMARY KEY, fs TEXT, tier TEXT, bw REAL, total REAL, nodes INTEGER)`); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	systems := []string{"lustre", "beegfs", "daos", "nfs"}
	tiers := []string{"hdd", "ssd", "nvme"}
	err = db.Batch(func(exec kdb.ExecFunc) error {
		for i := 1; i <= n; i++ {
			var nodes any = int64(1 + rng.Intn(512))
			if rng.Intn(10) == 0 {
				nodes = nil
			}
			_, err := exec(`INSERT INTO scores (id, fs, tier, bw, total, nodes) VALUES (?, ?, ?, ?, ?, ?)`,
				i, systems[rng.Intn(len(systems))], tiers[rng.Intn(len(tiers))], rng.Float64()*1000, rng.Float64()*2000, nodes)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	var store *Store
	if attach {
		store = Attach(db)
		// Pay the lazy build outside the timed region.
		if _, err := db.Query("SELECT COUNT(*) FROM scores"); err != nil {
			b.Fatal(err)
		}
	}
	return db, store
}

var benchQueries = []struct {
	name string
	sql  string
}{
	{"global-agg", "SELECT COUNT(*), AVG(bw), MAX(total) FROM scores"},
	{"filtered-agg", "SELECT COUNT(*), SUM(bw) FROM scores WHERE total > 1500"},
	{"clustered-filter", "SELECT COUNT(*), AVG(total) FROM scores WHERE id <= 4000"},
	{"group-by-text", "SELECT fs, COUNT(*), AVG(bw), MAX(total) FROM scores GROUP BY fs"},
	{"text-filter-group", "SELECT tier, COUNT(*) FROM scores WHERE fs = 'lustre' GROUP BY tier"},
	{"two-key-group", "SELECT fs, tier, COUNT(*), AVG(bw) FROM scores GROUP BY fs, tier"},
	{"nullable-agg", "SELECT COUNT(nodes), AVG(nodes), MAX(nodes) FROM scores WHERE total > 500"},
	{"group-spread", "SELECT fs, COUNT(*), AVG(bw), MIN(bw), MAX(bw) FROM scores GROUP BY fs"},
	{"census", "SELECT tier, COUNT(*) FROM scores GROUP BY tier"},
}

func benchEngine(b *testing.B, attach bool) {
	db, _ := benchDB(b, 40000, attach)
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRowEngine(b *testing.B)      { benchEngine(b, false) }
func BenchmarkColumnarEngine(b *testing.B) { benchEngine(b, true) }

// BenchmarkSegmentBuild measures the lazy rebuild cost itself.
func BenchmarkSegmentBuild(b *testing.B) {
	db, store := benchDB(b, 40000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Touch the table so the next analytic query must rebuild.
		if _, err := db.Exec(`UPDATE scores SET bw = 0.5 WHERE id = 1`); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := db.Query("SELECT COUNT(*) FROM scores"); err != nil {
			b.Fatal(err)
		}
	}
	if store.Stats().Rebuilds < int64(b.N) {
		b.Fatalf("expected a rebuild per iteration")
	}
}

// BenchmarkFirstQueryAfterInsert is ROADMAP item 4's gate: one row
// appended to a built table, then the first analytic query — the
// incremental refresh plus one scan.
func BenchmarkFirstQueryAfterInsert(b *testing.B) {
	db, store := benchDB(b, 40000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := db.Exec(`INSERT INTO scores (fs, bw, total) VALUES ('lustre', 1.5, 2.5)`); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := db.Query("SELECT COUNT(*) FROM scores"); err != nil {
			b.Fatal(err)
		}
	}
	if st := store.Stats(); st.Appends < int64(b.N) || st.Rebuilds != 1 {
		b.Fatalf("expected one build and an append per iteration: %+v", st)
	}
}

// BenchmarkRefreshAfterAppend: k rows appended to a built table, then the
// global aggregate — the incremental refresh of the image plus one scan.
// The refresh decodes the k rows only; the partial tail segment they land
// in is copied, not decoded again.
func BenchmarkRefreshAfterAppend(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(strconv.Itoa(k), func(b *testing.B) {
			db, store := benchDB(b, 40_000, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < k; j++ {
					if _, err := db.Exec(`INSERT INTO scores (fs, tier, bw, total, nodes) VALUES ('lustre', 'ssd', 1.5, 2.5, 8)`); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := db.Query(benchQueries[0].sql); err != nil {
					b.Fatal(err)
				}
			}
			if st := store.Stats(); st.Appends < int64(b.N) || st.Rebuilds != 1 {
				b.Fatalf("expected one build and an append per iteration: %+v", st)
			}
		})
	}
}
