package schema

import (
	"fmt"
	"testing"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/knowledge"
	"repro/internal/loadgen"
	"repro/internal/telemetry"
	"repro/internal/workloadgen"
)

// The two reads the API serves most, at a corpus the size of the
// repository's benchmark and at ten and a hundred times that: both should
// cost the same at either size (EXPERIMENTS E14). They assert nothing;
// -benchmem reports the allocations.

var benchSink int

func BenchmarkLoadIO500(b *testing.B) {
	for _, runs := range []int{300, 3000} {
		b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
			s, err := Open("")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			corpus, err := workloadgen.SynthesizeIO500Corpus(runs, 1)
			if err != nil {
				b.Fatal(err)
			}
			ids, err := s.SaveIO500s(corpus)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := s.LoadIO500(ids[i%len(ids)])
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(o.TestCases)
			}
		})
	}
}

// BenchmarkLoadServed is an API cache miss below the cache: one point load
// from a kdb:// store served on loopback, so the wire's round trips are in
// the cost. It reports the requests the server saw per load.
func BenchmarkLoadServed(b *testing.B) {
	s, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	objIDs, err := s.SaveObjects(loadgen.SynthesizeObjects(300, 1))
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := workloadgen.SynthesizeIO500Corpus(300, 1)
	if err != nil {
		b.Fatal(err)
	}
	runIDs, err := s.SaveIO500s(corpus)
	if err != nil {
		b.Fatal(err)
	}
	served, err := Open(kdbtest.Serve(b, &kdb.Server{DB: s.DB.(*kdb.DB)}))
	if err != nil {
		b.Fatal(err)
	}
	defer served.Close()
	loads := []struct {
		name string
		load func(i int) (int, error)
	}{
		{"object", func(i int) (int, error) {
			o, err := served.LoadObject(objIDs[i%len(objIDs)])
			if err != nil {
				return 0, err
			}
			return len(o.Results), nil
		}},
		{"io500", func(i int) (int, error) {
			o, err := served.LoadIO500(runIDs[i%len(runIDs)])
			if err != nil {
				return 0, err
			}
			return len(o.TestCases), nil
		}},
	}
	requests := telemetry.Default().Counter("kdb_server_requests_total")
	for _, l := range loads {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			before := requests.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := l.load(i)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += n
			}
			b.StopTimer()
			b.ReportMetric(float64(requests.Value()-before)/float64(b.N), "roundtrips/op")
		})
	}
}

func BenchmarkListObjectsPage(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			s, err := Open("")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Listing reads only the performances row, so the smallest valid
			// object keeps the 100,000-object seeding to two INSERTs each.
			objs := make([]*knowledge.Object, n)
			for i := range objs {
				objs[i] = &knowledge.Object{
					Source: knowledge.SourceIOR, Command: "ior -o /scratch/t",
					Summaries: []knowledge.Summary{{Operation: "write"}},
				}
			}
			ids, err := s.SaveObjects(objs)
			if err != nil {
				b.Fatal(err)
			}
			const limit = 20
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Pages spread over the whole id range, as a keyset walk's are.
				page, err := s.ListObjectsPage(ids[(i*7919)%(n-limit)], limit)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(page)
			}
		})
	}
}

// BenchmarkGroupBy is the row engine's GROUP BY over 1,000 saved objects
// (2,000 summaries rows): the api_churn workload's own per-operation query,
// and a grouping on two keys. Its columnar twins are colstore's
// BenchmarkRowEngine and BenchmarkColumnarEngine (EXPERIMENTS E11).
func BenchmarkGroupBy(b *testing.B) {
	s, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	apis := []string{"POSIX", "MPIIO", "HDF5"}
	objs := make([]*knowledge.Object, 1000)
	for i := range objs {
		objs[i] = sampleObject()
		for j := range objs[i].Summaries {
			objs[i].Summaries[j].API = apis[(i+j)%len(apis)]
		}
	}
	if _, err := s.SaveObjects(objs); err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, sql string }{
		{"one-key", "SELECT operation, COUNT(*), AVG(mean_mib) FROM summaries GROUP BY operation"},
		{"two-key", "SELECT operation, api, COUNT(*), MAX(max_mib), AVG(mean_mib) FROM summaries GROUP BY operation, api"},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := s.DB.Query(q.sql)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += rows.Len()
			}
		})
	}
}
