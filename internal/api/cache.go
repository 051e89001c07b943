package api

// The result cache, shared by the JSON routes and the HTML pages. An entry
// is one response body, keyed by the normalized query (a JSON route's name
// and parsed parameters; a page's path and sorted query) and stamped with
// the (commit LSN, shard-map epoch) it is known to be valid at. A JSON
// route's entry also keeps the footprint of the reads that built it
// (kdb.Footprint): the index keys, primary-key rows and whole tables its
// answer was computed from.
//
// Hit rules. An entry stamped at the current (LSN, epoch) is served. One
// stamped at an earlier LSN of the same epoch is served only if it has a
// footprint, the change feed covers every commit from its stamp up to the
// current LSN, and none of them hits the footprint; it is then re-stamped
// with the current LSN (api_cache_kept_total), and answers X-Cache: hit.
// The feed keeps no list of those commits but their watermarks
// (kdb.Marks): for each table, appended key and appended column list, the
// LSN of the last commit that hit it. An entry is so checked with one or
// two lookups per footprint entry (Footprint.HitSince), however old its
// stamp; a commit after the current LSN that the feed has already applied
// counts too, a false hit at worst. The marks reach back one to two
// generations of 4,096 commits; an entry stamped before that is rebuilt.
// An entry without a footprint depends on everything and is served at its
// own stamp only: an explorer page, a build that read a system table, one
// served by a peer that predates footprints, and every entry of the shard
// coordinator, which has no feed. While the feed is down, behind, or
// restarting after a snapshot, every entry falls back to that rule until it
// catches up. api_cache_stale_total{reason} counts the entries not served
// for a commit that hit them (hit), for a stamp the feed does not reach
// back to or the current LSN it has not reached yet (horizon), or for
// having no footprint (blind); api_feed_streaming is 1 while the feed
// follows the primary's commits and 0 while it probes.
//
// Stamping rule. A build is stamped with the LSN its reads actually ran at,
// which the answering node reports with each footprint, and is validated
// forward from there to max(current LSN, read LSN) before it is first
// served. A read routed to a replica that lags is so never passed off as
// newer than it is; if a commit in between hits its footprint, the build
// runs again on the primary. A build without footprints keeps the old rule:
// stamped with the LSN observed before it ran.
//
// The change feed is the primary's commit stream, each record classified
// by ReplEvent.Change: for a Router's or Remote's primary a repl.Tail, the
// loop a replica's Follower runs too, whose records the feed folds into
// the marks; for an embedded primary the same records pulled in-process
// (DB.RecordsSince) when a lookup needs them. Records and heartbeats also
// move the current LSN, so a commit by another process is noticed as soon
// as the primary ships it. While the stream is down, or the primary cannot
// stream at all (a shard coordinator), the feed asks the primary for its
// LSN every probe interval instead.
//
// Concurrent misses on one key run one build (single flight); a waiter
// leaves when its request ends, and a build that panics fails its waiters
// without caching anything. The cache is
// bounded by entries and by body bytes, and a body above maxEntryBytes is
// served without being cached.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kdb"
	"repro/internal/repl"
	"repro/internal/telemetry"
)

// cacheEntry is one materialized response body, its content type, its
// validators and, when its reads reported one, its footprint.
type cacheEntry struct {
	body        []byte
	contentType string
	etag        string
	lsn         int64
	epoch       int64
	fp          kdb.Footprint
}

// The cache's bounds: entries, body bytes in all, and the largest body
// kept.
const (
	maxCacheEntries = 4096
	maxCacheBytes   = 64 << 20
	maxEntryBytes   = 1 << 20
)

// flight is one build in progress; the callers that missed on its key
// while it runs wait for it and serve what it produced.
type flight struct {
	done chan struct{}
	e    *cacheEntry
	err  error
}

type resultCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	bytes   int
	flights map[string]*flight
	metrics func() *telemetry.Registry
}

func newResultCache(metrics func() *telemetry.Registry) *resultCache {
	return &resultCache{entries: map[string]*cacheEntry{}, flights: map[string]*flight{}, metrics: metrics}
}

// get returns the entry for key if it is valid at (lsn, epoch): stamped
// there, or carried forward to it by the change feed. An entry a commit
// hit is dropped.
func (c *resultCache) get(key string, lsn, epoch int64, v *validity) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	switch {
	case e == nil || e.epoch != epoch:
		return nil
	case e.lsn == lsn:
		return e
	case e.lsn > lsn:
		return nil
	case e.fp == nil:
		c.stale("blind")
		return nil
	}
	hit, known := v.hits(e.fp, e.lsn, lsn)
	if !known {
		c.stale("horizon")
		return nil
	}
	if hit {
		c.stale("hit")
		c.dropLocked(key, "invalidated")
		c.gauge()
		return nil
	}
	kept := *e
	kept.lsn = lsn
	c.entries[key] = &kept
	c.metrics().Counter("api_cache_kept_total").Inc()
	return &kept
}

// join returns the flight building key, and whether the caller leads it.
func (c *resultCache) join(key string) (f *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f = c.flights[key]; f != nil {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// land ends a flight with its result: every waiter gets it, and a body is
// cached when it fits. An error is cached for none.
func (c *resultCache) land(key string, f *flight, e *cacheEntry, err error) {
	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.putLocked(key, e)
	}
	c.mu.Unlock()
	f.e, f.err = e, err
	close(f.done)
}

// putLocked caches e under key, evicting to stay within the bounds: first
// the entries without a footprint that are stamped before e (no LSN to come
// can serve them), then arbitrary ones.
func (c *resultCache) putLocked(key string, e *cacheEntry) {
	if len(e.body) > maxEntryBytes {
		return
	}
	if c.entries[key] != nil {
		c.dropLocked(key, "invalidated")
	}
	full := func() bool {
		return len(c.entries) >= maxCacheEntries || c.bytes+len(e.body) > maxCacheBytes
	}
	if full() {
		for k, old := range c.entries {
			if old.fp == nil && (old.lsn < e.lsn || old.epoch != e.epoch) {
				c.dropLocked(k, "invalidated")
			}
		}
		for k := range c.entries {
			if !full() {
				break
			}
			c.dropLocked(k, "capacity")
		}
	}
	c.entries[key] = e
	c.bytes += len(e.body)
	c.gauge()
}

func (c *resultCache) dropLocked(key string, reason string) {
	c.bytes -= len(c.entries[key].body)
	delete(c.entries, key)
	c.metrics().Counter(telemetry.Label("api_cache_evictions_total", "reason", reason)).Inc()
}

func (c *resultCache) stale(reason string) {
	c.metrics().Counter(telemetry.Label("api_cache_stale_total", "reason", reason)).Inc()
}

func (c *resultCache) gauge() {
	m := c.metrics()
	m.Gauge("api_cache_entries").Set(float64(len(c.entries)))
	m.Gauge("api_cache_bytes").Set(float64(c.bytes))
}

// etagOf derives the strong validator from the exact bytes on the wire.
func etagOf(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// localFeed is an in-process commit stream: an embedded database.
type localFeed interface {
	LSN() int64
	RecordsSince(after int64) ([]kdb.ReplEvent, bool)
}

// validity tracks the store's current (LSN, epoch) and follows the
// primary's change feed.
type validity struct {
	conn kdb.Conn
	// primary is where a read goes that must not lag: the Router's primary,
	// or conn itself.
	primary kdb.Conn
	local   localFeed
	// tail follows a remote primary's commit stream.
	tail  *repl.Tail
	feed  bool         // there is a change feed, local or streamed
	floor atomic.Int64 // highest LSN the feed has reported
	// streaming is api_feed_streaming: 1 while the feed follows the
	// primary's commits (a stream that delivers, or an embedded database's
	// records), 0 while it probes or there is no feed.
	streaming *telemetry.Gauge

	mu sync.Mutex
	// on is set while marks summarise every change after their Base up to
	// their Top.
	on    bool
	marks *kdb.Marks
	moved chan struct{} // closed when the marks' Top moves
}

const (
	// defaultProbe is how soon a broken change feed redials, and how often
	// it asks the primary for its LSN until then (Config.ProbeInterval);
	// repl's defaults bound the backoff and a receive to 5 s each.
	defaultProbe = 250 * time.Millisecond
	// maxFeedWait bounds how long a build waits for the feed to reach the
	// LSN its reads ran at.
	maxFeedWait = 50 * time.Millisecond
)

// errFeedResync ends a stream that cannot go on from the feed's position;
// the feed restarts from the primary's LSN after the usual wait.
var errFeedResync = errors.New("api: the primary cannot stream from the change feed's position")

// newValidity starts following the change feed the backend offers, and
// reports its state to reg.
func newValidity(conn kdb.Conn, probe time.Duration, reg *telemetry.Registry) *validity {
	v := &validity{conn: conn, primary: conn, marks: kdb.NewMarks(0), streaming: reg.Gauge("api_feed_streaming"),
		moved: make(chan struct{})}
	v.streaming.Set(0)
	if probe <= 0 {
		probe = defaultProbe
	}
	if r, ok := conn.(interface{ Primary() kdb.Conn }); ok {
		v.primary = r.Primary()
	}
	switch p := v.primary.(type) {
	case localFeed:
		v.local, v.feed = p, true
		v.on = true
		v.marks.Reset(p.LSN())
		v.streaming.Set(1)
	case remotePrimary:
		v.feed = true
		v.tail = repl.NewTail(p.Addr(), repl.Options{RetryMin: probe}, repl.Consumer{
			Resume: func() (int64, error) { return v.resume(p) },
			Group:  v.group,
			Snap:   v.snap,
			Broke:  func(error) { v.streaming.Set(0) },
			Idle:   func() { v.probe(p) },
		})
		v.tail.Start(context.Background())
	}
	return v
}

// remotePrimary is a primary across the wire, whose commit stream the feed
// follows.
type remotePrimary interface {
	Addr() string
	Status() (kdb.NodeStatus, error)
}

// probe notes the primary's LSN.
func (v *validity) probe(p remotePrimary) error {
	st, err := p.Status()
	if err == nil {
		v.note(st.LSN)
	}
	return err
}

// resume returns the LSN to stream from: the feed's position, or — first,
// and after the primary asked for a snapshot — the current LSN, which the
// primary has just reported, from which the feed restarts with no history.
func (v *validity) resume(p remotePrimary) (int64, error) {
	v.mu.Lock()
	on, fed := v.on, v.marks.Top()
	v.mu.Unlock()
	if on {
		return fed, nil
	}
	if err := v.probe(p); err != nil {
		return 0, err
	}
	lsn, _ := v.current()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.note(lsn)
	v.on = true
	v.marks.Reset(lsn)
	return lsn, nil
}

// group folds one group of stream messages into the marks.
func (v *validity) group(evs []kdb.ReplEvent) error {
	v.streaming.Set(1)
	v.mu.Lock()
	defer v.mu.Unlock()
	top := int64(0)
	for i := range evs {
		ev := &evs[i]
		if len(ev.Entry) > 0 {
			v.applyLocked(ev.LSN, ev.Change())
		}
		top = max(top, ev.LSN, ev.PrimaryLSN)
	}
	v.note(top) // under the lock: current never runs ahead of the marks
	return nil
}

// snap drops the feed's history: the primary no longer holds the commits
// after its position.
func (v *validity) snap(context.Context) error {
	v.mu.Lock()
	v.on = false
	v.mu.Unlock()
	return errFeedResync
}

// applyLocked notes one committed record in the marks; v.mu must be held.
func (v *validity) applyLocked(lsn int64, ch kdb.Change) {
	v.marks.Apply(lsn, ch)
	close(v.moved)
	v.moved = make(chan struct{})
}

// catchUpLocked reports whether the marks reach to; an in-process feed is
// pulled up to date first. v.mu must be held.
func (v *validity) catchUpLocked(to int64) bool {
	if !v.on {
		return false
	}
	if v.marks.Top() < to && v.local != nil {
		recs, ok := v.local.RecordsSince(v.marks.Top())
		if !ok {
			v.marks.Reset(v.local.LSN())
		}
		for i := range recs {
			v.applyLocked(recs[i].LSN, recs[i].Change())
		}
	}
	return v.marks.Top() >= to
}

// hits reports whether a commit after from, up to to or any the feed has
// applied beyond it, hits fp; known is false when the feed cannot tell.
func (v *validity) hits(fp kdb.Footprint, from, to int64) (hit, known bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.catchUpLocked(to) || from < v.marks.Base() {
		return false, false
	}
	return fp.HitSince(v.marks, from), true
}

// waitFed waits, for at most maxFeedWait, until an attached stream reaches
// to; an in-process feed is only pulled.
func (v *validity) waitFed(to int64) bool {
	deadline := time.Now().Add(maxFeedWait)
	for {
		v.mu.Lock()
		caught, streaming, moved := v.catchUpLocked(to), v.on && v.tail != nil && v.tail.Attached(), v.moved
		v.mu.Unlock()
		left := time.Until(deadline)
		if caught || !streaming || left <= 0 {
			return caught
		}
		t := time.NewTimer(left)
		select {
		case <-moved:
		case <-t.C:
		}
		t.Stop()
	}
}

// settle stamps a build whose reads ran at LSNs lo..hi and depend on fp
// with an LSN it is valid at, no lower than c0, the LSN current when it
// started: the current one when the feed shows no commit since the reads
// hits them, else the one LSN all the reads ran at. ok is false when there
// is none, and the build must read again.
func (v *validity) settle(fp kdb.Footprint, lo, hi, c0 int64) (lsn int64, ok bool) {
	cur, _ := v.current()
	to := max(cur, hi)
	if v.waitFed(to) {
		if hit, known := v.hits(fp, lo, to); known && !hit {
			return to, true
		}
	}
	if lo == hi && hi >= c0 {
		return hi, true // not current, but exactly what the reads saw
	}
	return 0, false
}

func (v *validity) note(lsn int64) {
	for {
		cur := v.floor.Load()
		if lsn <= cur || v.floor.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// current returns the freshest known (LSN, epoch): the max of what the feed
// has reported and what the connection itself reports right now — exact
// for an embedded database, and never behind this process's own writes
// (read-your-writes).
func (v *validity) current() (lsn, epoch int64) {
	lsn = max(v.floor.Load(), v.conn.LSN())
	if v.local != nil && any(v.local) != any(v.conn) {
		lsn = max(lsn, v.local.LSN())
	}
	if m, ok := v.conn.(interface{ ShardMap() (int64, []byte) }); ok {
		epoch, _ = m.ShardMap()
	}
	return lsn, epoch
}

// close stops the feed: its goroutine and its stream connection are gone
// when it returns.
func (v *validity) close() {
	if v.tail != nil {
		v.tail.Stop()
		v.streaming.Set(0)
	}
}
