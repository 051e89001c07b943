package kdb_test

import (
	"path/filepath"
	"testing"

	"repro/internal/kdb"
	"repro/internal/schema"
	"repro/internal/workloadgen"
)

// BenchmarkOpenReplayIngest reopens a log shaped like real ingest: about
// 20k records of IO500 saves written through schema.Store's save path —
// the multi-line statements with their escaped newlines and tabs, REAL and
// TEXT cells, parent ids threaded into children. BenchmarkOpenReplay's one
// short statement never reaches the scanner's escape path; this one does on
// every record.
func BenchmarkOpenReplayIngest(b *testing.B) {
	benchOpenIngest(b, false)
}

// BenchmarkOpenCheckpointedIngest reopens the same log after a checkpoint:
// the typed image of every row and no records after it.
func BenchmarkOpenCheckpointedIngest(b *testing.B) {
	benchOpenIngest(b, true)
}

func benchOpenIngest(b *testing.B, checkpoint bool) {
	path := filepath.Join(b.TempDir(), "ingest.kdb")
	s, err := schema.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := workloadgen.SynthesizeIO500Corpus(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Sixteen submissions per save, the campaign batch size.
	for i := 0; i < len(corpus) && s.DB.(*kdb.DB).LSN() < 20000; i += 16 {
		if _, err := s.SaveIO500s(corpus[i:min(i+16, len(corpus))]); err != nil {
			b.Fatal(err)
		}
	}
	lsn := s.DB.(*kdb.DB).LSN()
	if checkpoint {
		if outcome, err := s.DB.(*kdb.DB).CheckpointNow(); outcome != "written" {
			b.Fatalf("checkpoint: %s, %v", outcome, err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := kdb.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if db.LSN() != lsn {
			b.Fatalf("replayed LSN = %d, want %d", db.LSN(), lsn)
		}
		db.Close()
	}
}
