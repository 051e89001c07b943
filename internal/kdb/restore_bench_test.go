package kdb_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/schema"
	"repro/internal/workloadgen"
)

// BenchmarkRestoreThenOpen is a follower's bootstrap from a full snapshot,
// then its restart: RestoreSnapshot of the WriteSnapshot text of a store of
// 2,288 IO500 submissions (SaveIO500s; 80,103 records with the meta record, 14.0 MB) into a
// file-backed database, then Open of the log the restore left. It reports
// the log's bytes and each step's time.
func BenchmarkRestoreThenOpen(b *testing.B) {
	corpus, err := workloadgen.SynthesizeIO500Corpus(2288, 1)
	if err != nil {
		b.Fatal(err)
	}
	src, err := kdb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	store, err := schema.Wrap(src)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.SaveIO500s(corpus); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := src.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.Logf("%d records, %d bytes of snapshot", bytes.Count(snap.Bytes(), []byte{'\n'}), snap.Len())
	var restore, reopen time.Duration
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(b.TempDir(), "follower.kdb")
		db, err := kdb.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if err := db.RestoreSnapshot(snap.Bytes()); err != nil {
			b.Fatal(err)
		}
		restore += time.Since(start)
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		size = st.Size()
		start = time.Now()
		db, err = kdb.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		reopen += time.Since(start)
		db.Close()
	}
	b.ReportMetric(float64(size), "log_bytes")
	b.ReportMetric(float64(restore.Microseconds())/1e3/float64(b.N), "restore_ms")
	b.ReportMetric(float64(reopen.Microseconds())/1e3/float64(b.N), "reopen_ms")
}
