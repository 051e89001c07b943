package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"sort"

	"repro/internal/core"
	"repro/internal/haccio"
	"repro/internal/io500"
	"repro/internal/ior"
)

// Everything in this file decides what the program is asked to do. It is
// deliberately a copy of, not an import from, internal/loadgen and
// internal/experiments: editing those must not move the benchmark.

// splitmix is the request-stream generator: one independent stream per
// (seed, stream index).
type splitmix struct{ state uint64 }

func newStream(seed, index uint64) *splitmix {
	s := &splitmix{state: seed*0x9e3779b97f4a7c15 + index*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb}
	s.next()
	return s
}

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// zipf draws ranks 1..n with P(k) proportional to k^-s by inverting the
// cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(u float64) int {
	return sort.SearchFloat64s(z.cdf, u) + 1
}

// Request kinds of the API mix.
const (
	kindObject = iota
	kindIO500
	kindQuery
	kindScan
)

// apiQueries are the three fixed aggregate SELECTs of the /v1/query share.
var apiQueries = []string{
	"SELECT operation, COUNT(*), AVG(mean_mib) FROM summaries GROUP BY operation",
	"SELECT COUNT(*) FROM performances",
	"SELECT operation, MAX(max_mib) FROM summaries GROUP BY operation",
}

const (
	scanPages = 5
	scanLimit = 20
	zipfS     = 1.1
)

// request is one step of a client's stream: a point read of an id, one of
// the fixed queries, or a keyset scan of scanPages pages (each page one
// HTTP request).
type request struct {
	kind int
	arg  int64
}

func (r request) String() string {
	switch r.kind {
	case kindObject:
		return fmt.Sprintf("object/%d", r.arg)
	case kindIO500:
		return fmt.Sprintf("io500/%d", r.arg)
	case kindQuery:
		return fmt.Sprintf("query/%d", r.arg)
	}
	return "scan"
}

// requestGen emits the mix: 30% /v1/objects/{id}, 30% /v1/io500/{id},
// 20% /v1/query, 20% keyset scans; ids are Zipf(1.1) over the seeded
// corpus with the newest id the most popular.
type requestGen struct {
	rng      *splitmix
	objects  int
	io500s   int
	objZipf  *zipf
	io500Zip *zipf
}

func newRequestGen(seed uint64, client, objects, io500s int) *requestGen {
	return &requestGen{
		rng:      newStream(seed, uint64(client)+1),
		objects:  objects,
		io500s:   io500s,
		objZipf:  newZipf(objects, zipfS),
		io500Zip: newZipf(io500s, zipfS),
	}
}

func (g *requestGen) next() request {
	switch r := g.rng.next() % 10; {
	case r < 3:
		return request{kindObject, int64(g.objects - g.objZipf.rank(g.rng.float()) + 1)}
	case r < 6:
		return request{kindIO500, int64(g.io500s - g.io500Zip.rank(g.rng.float()) + 1)}
	case r < 8:
		return request{kindQuery, int64(g.rng.next() % uint64(len(apiQueries)))}
	}
	return request{kindScan, 0}
}

func objectPath(id int64) string { return fmt.Sprintf("/v1/objects/%d", id) }
func io500Path(id int64) string  { return fmt.Sprintf("/v1/io500/%d", id) }
func queryPath(i int64) string   { return "/v1/query?q=" + url.QueryEscape(apiQueries[i]) }
func scanPath(cursor string) string {
	p := fmt.Sprintf("/v1/objects?limit=%d", scanLimit)
	if cursor != "" {
		p += "&cursor=" + url.QueryEscape(cursor)
	}
	return p
}

// streamHash fingerprints the first n requests of each of the two client
// streams.
func streamHash(seed uint64, objects, io500s, n int) string {
	h := sha256.New()
	for c := 0; c < apiClients; c++ {
		g := newRequestGen(seed, c, objects, io500s)
		for i := 0; i < n/apiClients; i++ {
			fmt.Fprintln(h, g.next())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashJSON fingerprints generated inputs by their JSON encoding.
func hashJSON(vs ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			// The corpora are plain structs of strings, numbers, maps and
			// times; failing to encode one is a bug in the benchmark.
			panic(fmt.Sprintf("bench: hash inputs: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// battery is the 13-query Treasure-Trove characterisation (E11) an analyst
// runs over the submission corpus; n is the corpus size the cohort filters
// are cut against.
type batteryQuery struct {
	Name string
	SQL  string
	Args []any
}

func battery(n int) []batteryQuery {
	return []batteryQuery{
		{"early-cohort", "SELECT COUNT(*), AVG(total) FROM IOFHsScores WHERE IOFH_id <= ?", []any{n / 8}},
		{"late-cohort", "SELECT COUNT(*), AVG(bw_gib), MAX(total) FROM IOFHsScores WHERE IOFH_id > ?", []any{n - n/8}},
		{"first-wave-results", "SELECT COUNT(*), AVG(value), MAX(seconds) FROM IOFHsResults WHERE testcase_id <= ?", []any{n * 12 / 8}},
		{"score-spread", "SELECT COUNT(*), MIN(total), MAX(total), AVG(total) FROM IOFHsScores", nil},
		{"bw-vs-md", "SELECT AVG(bw_gib), AVG(md_kiops), SUM(total) FROM IOFHsScores", nil},
		{"mid-band", "SELECT COUNT(*), AVG(total) FROM IOFHsScores WHERE total >= ? AND total < ?", []any{10.0, 100.0}},
		{"elite", "SELECT COUNT(*), MIN(bw_gib), AVG(md_kiops) FROM IOFHsScores WHERE total >= 300", nil},
		{"phase-profile", "SELECT unit, COUNT(*), AVG(value), MIN(value), MAX(value) FROM IOFHsResults GROUP BY unit", nil},
		{"slow-phases", "SELECT COUNT(*), AVG(seconds) FROM IOFHsResults WHERE seconds > 400", nil},
		{"testcase-census", "SELECT name, COUNT(*) FROM IOFHsTestcases GROUP BY name", nil},
		{"option-popularity", "SELECT optkey, COUNT(*) FROM IOFHsOptions GROUP BY optkey", nil},
		{"api-split", "SELECT optvalue, COUNT(*) FROM IOFHsOptions WHERE optkey = ? GROUP BY optvalue", []any{"api"}},
		{"fleet-size", "SELECT COUNT(*), AVG(cores), MAX(mem_total_kb) FROM systeminfos", nil},
	}
}

// Campaign spec of ingest_served: per ten units, four small MPI-IO IOR
// runs, four larger POSIX IOR runs, one IO500 and one HACC-IO.
const (
	iorMPIIO = "ior -a mpiio -b 4m -t 1m -s 4 -F -C -i 2"
	iorPOSIX = "ior -a posix -b 16m -t 4m -s 2 -i 6"
)

// unitKind names the generator at position i of a campaign.
func unitKind(i int) string {
	switch k := i % 10; {
	case k < 4:
		return "ior-mpiio"
	case k < 8:
		return "ior-posix"
	case k == 8:
		return "io500"
	}
	return "haccio"
}

func campaignGenerators(n int) ([]core.Generator, error) {
	a, err := ior.ParseCommandLine(iorMPIIO)
	if err != nil {
		return nil, err
	}
	a.NumTasks, a.TasksPerNode = 40, 20
	b, err := ior.ParseCommandLine(iorPOSIX)
	if err != nil {
		return nil, err
	}
	b.NumTasks, b.TasksPerNode = 80, 20
	gens := make([]core.Generator, n)
	for i := range gens {
		switch unitKind(i) {
		case "ior-mpiio":
			gens[i] = core.IORGenerator{Config: a}
		case "ior-posix":
			gens[i] = core.IORGenerator{Config: b}
		case "io500":
			gens[i] = core.IO500Generator{Config: io500.Default()}
		default:
			gens[i] = core.HACCGenerator{Config: haccio.Default()}
		}
	}
	return gens, nil
}
