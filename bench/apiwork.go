package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/kdb"
	"repro/internal/knowledge"
	"repro/internal/loadgen"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/workloadgen"
)

// Load model of the API workloads: two closed-loop clients (dashboards and
// scripts wait for each reply), fixed here rather than read from the
// machine. Client 0 never revalidates (200 + cached body); client 1
// remembers ETags (304 path). On api_churn a foreign writer saves one
// knowledge object immediately before every writeEvery-th request of
// client 0 — count-triggered, so work per operation does not depend on
// the clock.
const (
	apiClients = 2
	writeEvery = 50
)

func apiSizes(scale float64) (objects, io500s int) {
	return scaled(1000, scale, 20), scaled(300, scale, 10)
}

// scaled sizes a corpus or a piece of work: base at scale 1, never below
// floor.
func scaled(base int, scale float64, floor int) int {
	n := int(float64(base)*scale + 0.5)
	if n < floor {
		n = floor
	}
	return n
}

// apiTopo is the system under test of an API workload plus the seams a
// traced invocation wraps around it.
type apiTopo struct {
	churn   bool
	objects int
	io500s  int
	store   *schema.Store
	apiSrv  *api.Server
	httpSrv *http.Server
	base    string

	primary *kdb.DB
	fdb     *kdb.DB
	writer  *schema.Store
	pool    []*knowledge.Object // objects the foreign writer saves, in order
	writes  []writeEvent

	tr        *tracer
	storeSeam *seam
	closers   []func()
	corpusSHA string
}

type writeEvent struct {
	ack   time.Time
	lsn   int64
	latMS float64
}

func (t *apiTopo) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

func shutdownKDB(s *kdb.Server) func() {
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
}

// setupAPI synthesizes the corpus, starts the topology, seeds it and puts
// the API behind a loopback http.Server. With tr set, every layer's public
// entry point is wrapped (spans stay off until tr is switched on).
func setupAPI(churn bool, o options, tr *tracer) (t *apiTopo, err error) {
	objects, io500s := apiSizes(o.scale)
	t = &apiTopo{churn: churn, objects: objects, io500s: io500s, tr: tr}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	corpus, err := workloadgen.SynthesizeIO500Corpus(io500s, o.seed)
	if err != nil {
		return nil, err
	}
	objs := loadgen.SynthesizeObjects(objects, o.seed)
	t.pool = loadgen.SynthesizeObjects(4096, o.seed^0x5eed)
	t.corpusSHA = hashJSON(corpus, objs, t.pool[:64])

	if !churn {
		db, err := kdb.Open("")
		if err != nil {
			return nil, err
		}
		var conn kdb.Conn = db
		if tr != nil {
			w := &tracedDB{DB: db, seam: seam{t: tr, name: spEngine}}
			conn, t.storeSeam = w, &w.seam
		}
		if t.store, err = schema.Wrap(conn); err != nil {
			return nil, err
		}
		t.closers = append(t.closers, func() { t.store.Close() })
		if err := seedStore(t.store, corpus, objs); err != nil {
			return nil, err
		}
	} else {
		if err := t.startReplicated(corpus, objs); err != nil {
			return nil, err
		}
	}

	t.apiSrv = api.New(t.apiConfig())
	t.closers = append(t.closers, t.apiSrv.Close)
	var handler http.Handler = t.apiSrv
	if tr != nil {
		handler = traceHandler(tr, handler)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.httpSrv = &http.Server{Handler: handler}
	go t.httpSrv.Serve(lis)
	t.closers = append(t.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		t.httpSrv.Shutdown(ctx)
	})
	t.base = "http://" + lis.Addr().String()
	return t, nil
}

// churnProbe is api_churn's ProbeInterval. At the 250 ms default the
// reference box serves ~900 requests and ~9 foreign commits between two
// probes, so nine commits in ten never invalidate anything and the hit
// ratio follows the host's speed (faster host, more requests per
// invalidation, higher ratio: a feedback loop that tripled the run-to-run
// spread). At 10 ms every commit is noticed on its own and the share of
// reads that miss is a property of the request stream, as the load model
// wants; a hundred status round trips a second cost the primary connection
// under half a percent.
const churnProbe = 10 * time.Millisecond

// apiConfig is the zero config — no rate limit, no shedding — over the
// topology's store.
func (t *apiTopo) apiConfig() api.Config {
	cfg := api.Config{Store: t.store}
	if t.churn {
		cfg.ProbeInterval = churnProbe
	}
	return cfg
}

func seedStore(s *schema.Store, corpus []*knowledge.IO500Object, objs []*knowledge.Object) error {
	if _, err := s.SaveIO500s(corpus); err != nil {
		return err
	}
	_, err := s.SaveObjects(objs)
	return err
}

// startReplicated builds api_churn's backend: an in-memory primary behind
// a kdb.Server, one streaming follower behind a second read-only server,
// a repl.Router over wire connections to both, and the foreign writer's
// own connection to the primary.
func (t *apiTopo) startReplicated(corpus []*knowledge.IO500Object, objs []*knowledge.Object) error {
	primary, err := kdb.Open("")
	if err != nil {
		return err
	}
	t.primary = primary
	t.closers = append(t.closers, func() { primary.Close() })
	// Seed through the embedded connection: the corpus is an input, not
	// the operation under test, and the follower bootstraps from it the
	// way a new replica would.
	seed, err := schema.Wrap(primary)
	if err != nil {
		return err
	}
	if err := seedStore(seed, corpus, objs); err != nil {
		return err
	}
	psrv := &kdb.Server{DB: primary}
	fdb, err := kdb.Open("")
	if err != nil {
		return err
	}
	t.fdb = fdb
	t.closers = append(t.closers, func() { fdb.Close() })
	rsrv := &kdb.Server{DB: fdb, Role: "replica", ReadOnly: true}
	if t.tr != nil {
		psrv.Backend = &tracedDB{DB: primary, seam: seam{t: t.tr, name: spEngine}}
		rsrv.Backend = &tracedDB{DB: fdb, seam: seam{t: t.tr, name: spEngine}}
	}
	pl, err := psrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	t.closers = append(t.closers, shutdownKDB(psrv))
	follower := repl.NewFollower(fdb, pl.Addr().String(), repl.Options{})
	follower.Start(context.Background())
	t.closers = append(t.closers, follower.Stop)
	if err := waitConverged(primary, fdb, 30*time.Second); err != nil {
		return err
	}
	rl, err := rsrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	t.closers = append(t.closers, shutdownKDB(rsrv))

	pr, err := kdb.Dial(pl.Addr().String())
	if err != nil {
		return err
	}
	rr, err := kdb.Dial(rl.Addr().String())
	if err != nil {
		pr.Close()
		return err
	}
	var conn kdb.Conn
	if t.tr != nil {
		wp := &tracedRemote{Remote: pr, seam: seam{t: t.tr, name: spWire}}
		wr := &tracedRemote{Remote: rr, seam: seam{t: t.tr, name: spWire}}
		w := &tracedRouter{Router: repl.NewRouter(wp, wr), seam: seam{t: t.tr, name: spStore}}
		conn, t.storeSeam = w, &w.seam
	} else {
		conn = repl.NewRouter(pr, rr)
	}
	if t.store, err = schema.Wrap(conn); err != nil {
		return err
	}
	t.closers = append(t.closers, func() { t.store.Close() })
	if t.writer, err = schema.Open("kdb://" + pl.Addr().String()); err != nil {
		return err
	}
	t.closers = append(t.closers, func() { t.writer.Close() })
	return nil
}

// waitConverged blocks until the follower has applied everything the
// primary committed.
func waitConverged(primary, follower *kdb.DB, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for follower.LSN() < primary.LSN() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at LSN %d, primary at %d", follower.LSN(), primary.LSN())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// write is the foreign writer's one operation: save the next pool object
// through its own connection (nine statement commits over the wire).
func (t *apiTopo) write() error {
	obj := *t.pool[len(t.writes)%len(t.pool)]
	start := time.Now()
	if _, err := t.writer.SaveObjects([]*knowledge.Object{&obj}); err != nil {
		return err
	}
	ack := time.Now()
	ev := writeEvent{ack: ack, latMS: float64(ack.Sub(start)) / 1e6}
	if l, ok := t.writer.DB.(interface{ LSN() int64 }); ok {
		ev.lsn = l.LSN()
	}
	t.writes = append(t.writes, ev)
	return nil
}

// apiSample is one completed HTTP request as its client saw it.
type apiSample struct {
	done   time.Time
	latMS  float64
	status int
	miss   bool
	bytes  int
	lsn    int64
}

type apiClient struct {
	idx     int
	topo    *apiTopo
	http    *http.Client
	gen     *requestGen
	writes  bool              // trigger the foreign writer (client 0 on api_churn)
	etags   map[string]string // nil: never revalidate
	cursors map[string]string // next_cursor per scan URL: a 304 has no body to read it from
	buf     bytes.Buffer

	samples   []apiSample
	attempted int64
	failed    int64
	firstErr  error
	requests  int64
	lastLSN   int64
	lsnBack   int
	deadline  time.Time
}

func newAPIClient(idx int, topo *apiTopo, seed uint64) *apiClient {
	c := &apiClient{
		idx:  idx,
		topo: topo,
		// One persistent connection per client, as a dashboard holds.
		http: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}},
		gen:     newRequestGen(seed, idx, topo.objects, topo.io500s),
		cursors: map[string]string{},
	}
	if idx == 1 {
		c.etags = map[string]string{}
	}
	return c
}

func (c *apiClient) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// get issues one GET and records it; ok is false once the window is over
// or the request failed.
func (c *apiClient) get(path string, wantCursor bool) (cursor string, ok bool) {
	if !time.Now().Before(c.deadline) {
		return "", false
	}
	c.requests++
	if c.writes && c.requests%writeEvery == 0 {
		if err := c.topo.write(); err != nil {
			c.attempted++
			c.fail(fmt.Errorf("foreign write: %w", err))
		}
	}
	req, err := http.NewRequest(http.MethodGet, c.topo.base+path, nil)
	if err != nil {
		c.attempted++
		c.fail(err)
		return "", false
	}
	if c.etags != nil {
		if tag := c.etags[path]; tag != "" {
			req.Header.Set("If-None-Match", tag)
		}
	}
	c.attempted++
	reqID := int64(c.idx+1)<<40 | c.attempted
	spanStart := c.topo.tr.begin()
	if spanStart >= 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(reqID, 10))
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.fail(err)
		return "", false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	c.topo.tr.finish(spClient, spanStart, reqID, 0)
	if err != nil {
		c.fail(err)
		return "", false
	}
	s := apiSample{done: done, latMS: float64(done.Sub(start)) / 1e6, status: resp.StatusCode,
		miss: resp.Header.Get("X-Cache") == "miss", bytes: c.buf.Len()}
	s.lsn, _ = strconv.ParseInt(resp.Header.Get("X-Knowledge-LSN"), 10, 64)
	c.samples = append(c.samples, s)
	if s.lsn < c.lastLSN {
		c.lsnBack++
	}
	c.lastLSN = s.lsn
	switch resp.StatusCode {
	case http.StatusOK:
		if c.etags != nil {
			c.etags[path] = resp.Header.Get("ETag")
		}
		if wantCursor {
			var env struct {
				NextCursor string `json:"next_cursor"`
			}
			if err := json.Unmarshal(c.buf.Bytes(), &env); err != nil {
				c.fail(fmt.Errorf("%s: decode page: %w", path, err))
				return "", false
			}
			c.cursors[path] = env.NextCursor
			return env.NextCursor, true
		}
		return "", true
	case http.StatusNotModified:
		return c.cursors[path], true
	}
	c.fail(fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, c.buf.String()))
	return "", false
}

// step issues the next request of the client's stream; a scan is
// scanPages requests.
func (c *apiClient) step() {
	switch r := c.gen.next(); r.kind {
	case kindObject:
		c.get(objectPath(r.arg), false)
	case kindIO500:
		c.get(io500Path(r.arg), false)
	case kindQuery:
		c.get(queryPath(r.arg), false)
	default:
		cursor := ""
		for page := 0; page < scanPages; page++ {
			next, ok := c.get(scanPath(cursor), true)
			if !ok || next == "" {
				return
			}
			cursor = next
		}
	}
}

// warmUp requests every URL the generator can emit once, in a fixed
// order, and returns them with the cold latency of each. After it the
// cache holds the whole working set.
func warmUp(t *apiTopo) (paths []string, coldMS []float64, err error) {
	c := newAPIClient(0, t, 0)
	c.deadline = time.Now().Add(10 * time.Minute)
	defer c.http.CloseIdleConnections()
	visit := func(p string, cursor bool) (string, error) {
		next, ok := c.get(p, cursor)
		if !ok {
			return "", fmt.Errorf("warm-up %s: %w", p, c.firstErr)
		}
		paths = append(paths, p)
		return next, nil
	}
	for id := 1; id <= t.objects; id++ {
		if _, err := visit(objectPath(int64(id)), false); err != nil {
			return nil, nil, err
		}
	}
	for id := 1; id <= t.io500s; id++ {
		if _, err := visit(io500Path(int64(id)), false); err != nil {
			return nil, nil, err
		}
	}
	for i := range apiQueries {
		if _, err := visit(queryPath(int64(i)), false); err != nil {
			return nil, nil, err
		}
	}
	cursor := ""
	for page := 0; page < scanPages; page++ {
		next, err := visit(scanPath(cursor), true)
		if err != nil {
			return nil, nil, err
		}
		if next == "" {
			break
		}
		cursor = next
	}
	for _, s := range c.samples {
		coldMS = append(coldMS, s.latMS)
	}
	return paths, coldMS, nil
}

// apiWindow is what one measured window of clients yields.
type apiWindow struct {
	start   time.Time
	dur     time.Duration
	samples []apiSample // completion order
	writes  []writeEvent
	before  usage
	after   usage
	rssMB   float64
}

// runWindow drives the given clients closed-loop for dur.
func runWindow(t *apiTopo, clients []*apiClient, dur time.Duration) *apiWindow {
	w := &apiWindow{dur: dur}
	for _, c := range clients {
		c.samples = c.samples[:0]
	}
	t.writes = t.writes[:0]
	w.before = readUsage()
	w.start = time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		c.deadline = w.start.Add(dur)
		wg.Add(1)
		go func(c *apiClient) {
			defer wg.Done()
			for time.Now().Before(c.deadline) {
				c.step()
			}
		}(c)
	}
	wg.Wait()
	w.dur = time.Since(w.start)
	w.rssMB = peakRSSMB()
	w.after = readUsage()
	for _, c := range clients {
		w.samples = append(w.samples, c.samples...)
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].done.Before(w.samples[j].done) })
	w.writes = append(w.writes, t.writes...)
	return w
}

func (w *apiWindow) latencies(keep func(apiSample) bool) []float64 {
	out := make([]float64, 0, len(w.samples))
	for _, s := range w.samples {
		if keep == nil || keep(s) {
			out = append(out, s.latMS)
		}
	}
	return out
}

// slicedRate is completed requests per second as the median over the
// window's time slices.
func (w *apiWindow) slicedRate() float64 {
	counts := make([]float64, statSlices)
	slice := w.dur / statSlices
	if slice <= 0 {
		return 0
	}
	for _, s := range w.samples {
		i := int(s.done.Sub(w.start) / slice)
		if i >= statSlices {
			i = statSlices - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= slice.Seconds()
	}
	return median(counts)
}

// freshnessLags pairs every foreign commit with the first response, on
// either client, whose X-Knowledge-LSN covers it.
func (w *apiWindow) freshnessLags() []float64 {
	var lags []float64
	i := 0
	for _, ev := range w.writes {
		for i < len(w.samples) && (w.samples[i].lsn < ev.lsn || w.samples[i].done.Before(ev.ack)) {
			i++
		}
		if i == len(w.samples) {
			break
		}
		lags = append(lags, float64(w.samples[i].done.Sub(ev.ack))/1e6)
	}
	return lags
}

// recordCounts writes the per-layer metrics that are tallies of response
// headers and public accessors; they need no wrapper and are taken in
// untraced runs too.
func (w *apiWindow) recordCounts(r *runResult, t *apiTopo, routerBefore [2]int64) {
	var hits, misses, notMod, bytes int
	for _, s := range w.samples {
		if s.miss {
			misses++
		} else {
			hits++
		}
		if s.status == http.StatusNotModified {
			notMod++
		}
		bytes += s.bytes
	}
	n := len(w.samples)
	if n == 0 {
		return
	}
	r.set("api.cache_hit_ratio", float64(hits)/float64(n))
	r.set("api.not_modified_ratio", float64(notMod)/float64(n))
	r.set("api.body_bytes_per_resp", float64(bytes)/float64(n))
	recordProcess(r, w.before, w.after, int64(n))
	if !t.churn {
		return
	}
	if lags := w.freshnessLags(); len(lags) > 0 {
		r.setN("api.freshness_lag_p50_ms", median(lags), len(lags), 0)
	}
	var saves []float64
	for _, ev := range w.writes {
		saves = append(saves, ev.latMS)
	}
	if len(saves) > 0 {
		r.setN("schema.save_object_p50_ms", median(saves), len(saves), 0)
	}
	if rt := routerOf(t.store.DB); rt != nil {
		p, rep := rt.Stats()
		p, rep = p-routerBefore[0], rep-routerBefore[1]
		if p+rep > 0 {
			r.set("repl.replica_read_ratio", float64(rep)/float64(p+rep))
		}
		if misses > 0 && t.storeSeam == nil {
			// Untraced there is no store seam to tally; the router counts
			// the same calls.
			r.set("schema.conn_calls_per_miss", float64(p+rep)/float64(misses))
		}
	}
	r.set("kdb.final_lsn", float64(t.primary.LSN()))
}

func routerOf(c kdb.Conn) *repl.Router {
	switch v := c.(type) {
	case *repl.Router:
		return v
	case *tracedRouter:
		return v.Router
	}
	return nil
}

func routerStats(t *apiTopo) (s [2]int64) {
	if rt := routerOf(t.store.DB); rt != nil {
		s[0], s[1] = rt.Stats()
	}
	return s
}

// runAPI runs api_warm (churn=false) or api_churn.
func runAPI(churn bool, o options) (*runResult, error) {
	name := "api_warm"
	if churn {
		name = "api_churn"
	}
	r := newRunResult(name, o)
	var tr *tracer
	repeats := setupRepeats
	if o.trace {
		tr, repeats = newTracer(), 1
	}

	// Set-up is repeated and its median reported; every repeat but the
	// last is torn down again.
	var topo *apiTopo
	var paths []string
	var coldMS, setups []float64
	var warmCalls int64
	for i := 0; i < repeats; i++ {
		if topo != nil {
			topo.close()
		}
		start := time.Now()
		var err error
		if topo, err = setupAPI(churn, o, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		if paths, coldMS, err = warmUp(topo); err != nil {
			topo.close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer topo.close()
	if topo.storeSeam != nil {
		warmCalls = topo.storeSeam.calls.Load()
	}
	r.Fingerprint.CorpusSHA256 = topo.corpusSHA
	// The stream fingerprint also covers the knobs that decide what a
	// request stream does to the program, so a result taken under other
	// settings does not pass for comparable.
	r.Fingerprint.StreamSHA256 = hashJSON(streamHash(o.seed, topo.objects, topo.io500s, 10000),
		apiClients, writeEvery, scanPages, scanLimit, zipfS, topo.apiConfig().ProbeInterval)
	r.setN("setup_s", median(setups), len(setups), 0)
	r.setN("api.cold_miss_p50_ms", median(coldMS), len(coldMS), 0)

	clients := []*apiClient{newAPIClient(0, topo, o.seed), newAPIClient(1, topo, o.seed)}
	clients[0].writes = churn
	defer func() {
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
	}()
	window := time.Duration(o.seconds) * time.Second
	if o.trace {
		window /= 3
	}

	r.set("host.calib_before_ms", calibrate())
	rb := routerStats(topo)
	w := runWindow(topo, clients, window)
	r.set("host.calib_after_ms", calibrate())
	r.WindowS = w.dur.Seconds()
	w.recordCounts(r, topo, rb)

	if !o.trace {
		all := w.latencies(nil)
		r.set("ops_per_s", w.slicedRate())
		r.setN("op_p50_ms", steadyPercentile(all, 50), len(all), 0)
		tail := slicedTail(len(all))
		r.setN("op_tail_ms", steadyPercentile(all, tail), len(all), tail)
		var slow []float64
		if churn {
			slow = w.latencies(func(s apiSample) bool { return s.miss })
		} else {
			slow = w.latencies(func(s apiSample) bool { return s.status == http.StatusOK })
		}
		r.setN("slow_p50_ms", steadyPercentile(slow, 50), len(slow), 0)
		r.set("peak_rss_mb", w.rssMB)
	} else {
		if err := tracedAPIPasses(r, topo, clients[0], window, warmCalls, len(paths)); err != nil {
			return nil, err
		}
	}

	for _, c := range clients {
		r.Attempted += c.attempted
		r.Failed += c.failed
		if c.firstErr != nil {
			r.check(fmt.Sprintf("client %d: every response 200 or 304", c.idx), false, "%v", c.firstErr)
		}
		r.check(fmt.Sprintf("client %d: X-Knowledge-LSN never decreases", c.idx), c.lsnBack == 0,
			"%d responses carried a lower LSN than the one before", c.lsnBack)
	}
	if !churn {
		hit, _ := r.Metrics["api.cache_hit_ratio"]
		r.check("api.cache_hit_ratio == 1.0", hit.Value == 1, "hit ratio %v", hit.Value)
	}
	checkColdETags(r, topo, paths)
	r.finish()
	return r, nil
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median.
const setupRepeats = 3

// tracedAPIPasses runs the one-client passes of a traced invocation —
// untraced and traced slices, then the direct schema probe — and derives
// the span metrics.
func tracedAPIPasses(r *runResult, t *apiTopo, c *apiClient, window time.Duration, warmCalls int64, warmReqs int) error {
	// Untraced and traced slices alternate, so that a drift of the host
	// during the invocation lands on both sides of trace.overhead_frac.
	one := []*apiClient{c}
	const pairs = 4
	isMiss := func(s apiSample) bool { return s.miss }
	isHit := func(s apiSample) bool { return !s.miss }
	var baseHit, baseMiss, tracedHit, tracedMiss []float64
	var storeCalls int64
	for pass := 0; pass < pairs; pass++ {
		w := runWindow(t, one, window/pairs)
		baseHit, baseMiss = append(baseHit, w.latencies(isHit)...), append(baseMiss, w.latencies(isMiss)...)
		t.tr.on.Store(true)
		storeBefore := t.storeSeam.calls.Load()
		w = runWindow(t, one, window/pairs)
		storeCalls += t.storeSeam.calls.Load() - storeBefore
		t.tr.on.Store(false)
		tracedHit, tracedMiss = append(tracedHit, w.latencies(isHit)...), append(tracedMiss, w.latencies(isMiss)...)
	}
	misses := len(tracedMiss)
	t.tr.on.Store(true)
	probeSchema(t)
	t.tr.on.Store(false)

	spans := t.tr.spans
	link(spans)
	self := selfTimes(spans)

	serve := dursOf(spans, spServe)
	r.setN("api.serve_p50_ms", median(serve), len(serve), 0)
	r.setTail("api.serve_p99_ms", serve)
	r.set("api.self_p50_ms", median(selfOf(spans, self, spServe)))
	r.set("api.http_self_p50_ms", median(selfOf(spans, self, spClient)))

	var engine, rows []float64
	for _, s := range spans {
		if s.Name == spEngine && s.N >= 0 {
			engine = append(engine, float64(s.dur())/1e6)
			rows = append(rows, float64(s.N))
		}
	}
	if len(engine) > 0 {
		r.setN("kdb.engine.query_p50_ms", median(engine), len(engine), 0)
		r.setTail("kdb.engine.query_p99_ms", engine)
		sum := 0.0
		for _, v := range rows {
			sum += v
		}
		r.set("kdb.engine.rows_per_query", sum/float64(len(rows)))
	}
	if probe := selfOf(spans, self, spRoot); len(probe) > 0 {
		r.setN("schema.self_p50_ms", median(probe), len(probe), 0)
	}
	if t.churn {
		r.set("repl.router_self_p50_ms", median(selfOf(spans, self, spStore)))
		wire := dursOf(spans, spWire)
		r.setN("kdb.wire.roundtrip_p50_ms", median(wire), len(wire), 0)
		r.setTail("kdb.wire.roundtrip_p99_ms", wire)
		r.set("kdb.wire.self_p50_ms", median(selfOf(spans, self, spWire)))
		if misses > 0 {
			r.set("schema.conn_calls_per_miss", float64(storeCalls)/float64(misses))
		}
	} else if warmReqs > 0 {
		// On api_warm the window never misses; the warm-up pass is all
		// misses over the same seam.
		r.set("schema.conn_calls_per_miss", float64(warmCalls)/float64(warmReqs))
	}

	// Overhead on the typical request: the median hit and the median miss,
	// weighted by the traced slices' miss share, traced over untraced. A
	// plain median over all requests sits in the upper tail of the hits
	// when a third of them miss, and jitters accordingly.
	m := float64(len(tracedMiss)) / float64(len(tracedMiss)+len(tracedHit))
	if b := (1-m)*median(baseHit) + m*median(baseMiss); b > 0 {
		r.set("trace.overhead_frac", ((1-m)*median(tracedHit)+m*median(tracedMiss))/b-1)
	}
	// The chain is over the traced slices' requests only; the probe's
	// roots are not client spans.
	r.setChain(chain(spans, spClient))
	for _, row := range r.Chain {
		if row.Layer == spWire {
			r.set("kdb.wire.roundtrips_per_op", row.PerOp)
		}
	}
	return dumpSpans(r, spans)
}

// probeSchema calls the three read shapes of schema.Store directly, each
// under a root span, so the store seam's spans become the root's children
// and the root's self time is schema's own (row decoding, N+1 loop).
func probeSchema(t *apiTopo) {
	for i := 0; i < 60; i++ {
		id := int64(1 + i%t.objects)
		start := t.tr.begin()
		t.store.LoadObject(id)
		t.tr.finish(spRoot, start, -1, 0)
		id = int64(1 + i%t.io500s)
		start = t.tr.begin()
		t.store.LoadIO500(id)
		t.tr.finish(spRoot, start, -1, 0)
		start = t.tr.begin()
		t.store.ListObjectsPage(int64(i*scanLimit%t.objects), scanLimit)
		t.tr.finish(spRoot, start, -1, 0)
	}
}

// checkColdETags compares, for the URLs of the working set, the ETag the
// live server returns with the one a fresh api.Server over the same store
// computes cold. On api_churn it first lets the writer's last commit reach
// the follower and the live server's validity probe.
func checkColdETags(r *runResult, t *apiTopo, paths []string) {
	const name = "live ETag equals a cold api.Server's for the working set"
	stride := 1
	if t.churn {
		if err := waitConverged(t.primary, t.fdb, 30*time.Second); err != nil {
			r.check(name, false, "%v", err)
			return
		}
		// Every miss on the routed path costs milliseconds: sample.
		stride = 1 + len(paths)/200
	}
	live := &http.Client{Timeout: 30 * time.Second}
	defer live.CloseIdleConnections()
	fetch := func(p string) (etag string, lsn int64, hit bool, err error) {
		resp, err := live.Get(t.base + p)
		if err != nil {
			return "", 0, false, err
		}
		defer resp.Body.Close()
		var sink bytes.Buffer
		sink.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return "", 0, false, fmt.Errorf("status %d", resp.StatusCode)
		}
		lsn, _ = strconv.ParseInt(resp.Header.Get("X-Knowledge-LSN"), 10, 64)
		return resp.Header.Get("ETag"), lsn, resp.Header.Get("X-Cache") == "hit", nil
	}
	if t.churn {
		want := t.primary.LSN()
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, lsn, _, err := fetch(paths[0])
			if err == nil && lsn >= want {
				break
			}
			if time.Now().After(deadline) {
				r.check(name, false, "live server never reached LSN %d (last %d, err %v)", want, lsn, err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	cold := api.New(t.apiConfig())
	defer cold.Close()
	checked, liveMisses := 0, 0
	for i := 0; i < len(paths); i += stride {
		p := paths[i]
		etag, _, hit, err := fetch(p)
		if err != nil {
			r.check(name, false, "%s: %v", p, err)
			return
		}
		if !t.churn && !hit {
			liveMisses++
		}
		rec := httptest.NewRecorder()
		cold.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if got := rec.Header().Get("ETag"); rec.Code != http.StatusOK || got != etag || etag == "" {
			r.check(name, false, "%s: live %q, cold %q (status %d)", p, etag, got, rec.Code)
			return
		}
		checked++
	}
	r.check(name, true, "")
	if !t.churn {
		r.check("working set still cached after the window", liveMisses == 0, "%d of %d URLs missed", liveMisses, checked)
	}
}

// dumpSpans writes the run's spans under .bench_build/ when the run ends.
func dumpSpans(r *runResult, spans []span) error {
	dir, err := workDir("traces")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/%s-seed%d.json", dir, r.Workload, r.Fingerprint.Seed)
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.SpanFile = path
	return nil
}
