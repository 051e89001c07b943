package repl_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/loadgen"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/workloadgen"
)

// servedCorpus serves an in-memory primary holding the api_churn corpus at
// scale 1 — 300 IO500 runs and 1,000 knowledge objects, 19,522 records and
// 4.9 MB of snapshot, more than the catch-up buffer reaches back — and
// returns it with its address.
func servedCorpus(b *testing.B) (*kdb.DB, string) {
	b.Helper()
	corpus, err := workloadgen.SynthesizeIO500Corpus(300, 1)
	if err != nil {
		b.Fatal(err)
	}
	db, err := kdb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	store, err := schema.Wrap(db)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.SaveIO500s(corpus); err != nil {
		b.Fatal(err)
	}
	if _, err := store.SaveObjects(loadgen.SynthesizeObjects(1000, 1)); err != nil {
		b.Fatal(err)
	}
	srv := &kdb.Server{DB: db}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return db, l.Addr().String()
}

// BenchmarkSnapshotDelta is one "delta" round trip to a client that holds
// nothing: the server cuts, hashes and ships every chunk of the corpus.
func BenchmarkSnapshotDelta(b *testing.B) {
	_, addr := servedCorpus(b)
	r, err := kdb.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.SnapshotDelta(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFollowerBootstrap is a new, empty follower catching up with the
// corpus: its own have-set, the delta round trip, reassembly and restore.
func BenchmarkFollowerBootstrap(b *testing.B) {
	primary, addr := servedCorpus(b)
	want := primary.LSN()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fdb, err := kdb.Open("")
		if err != nil {
			b.Fatal(err)
		}
		f := repl.NewFollower(fdb, addr, repl.Options{})
		f.Start(context.Background())
		for deadline := time.Now().Add(30 * time.Second); fdb.LSN() < want; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				b.Fatalf("follower stuck at LSN %d of %d", fdb.LSN(), want)
			}
		}
		f.Stop()
		fdb.Close()
	}
}
