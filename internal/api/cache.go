package api

// LSN-invalidated result cache, shared by the JSON routes and the HTML
// pages. An entry is keyed by the normalized query (a JSON route's name and
// parsed parameters; a page's path and sorted query) and stamped with the
// (commit LSN, shard-map epoch) pair observed when it was computed; it is
// served only while the current pair still matches, so a single committed write — or a shard-map change —
// invalidates every cached result at once. Correct and cheap beats clever
// here: knowledge stores are read-mostly (ingest happens in campaign
// bursts), so whole-cache invalidation on write costs little and can never
// serve a result that predates a read-your-writes LSN.
//
// Freshness tracking layers two sources:
//   - a passive check per request: any backend exposing LSN() int64 (the
//     embedded engine exactly, coordinators, routers via their primary,
//     remote clients as a response high-water mark) is consulted on every
//     cache lookup;
//   - an active watcher: an embedded database's commit broadcast
//     (DB.CommitNotify) bumps the floor the instant a commit lands, and
//     remote primaries are probed on a short interval so writes committed
//     by *other* processes invalidate within probeInterval even when no
//     local response has carried the new LSN yet.

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kdb"
)

// cacheEntry is one materialized response body, its content type and its
// validators.
type cacheEntry struct {
	body        []byte
	contentType string
	etag        string
	lsn         int64
	epoch       int64
}

// maxCacheEntries bounds cache memory; a full cache first drops entries
// invalidated by LSN/epoch drift, then arbitrary ones.
const maxCacheEntries = 4096

type resultCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

func newResultCache() *resultCache {
	return &resultCache{entries: map[string]*cacheEntry{}}
}

// get returns the entry for key iff it is still valid at (lsn, epoch).
func (c *resultCache) get(key string, lsn, epoch int64) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.lsn != lsn || e.epoch != epoch {
		return nil
	}
	return e
}

func (c *resultCache) put(key string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= maxCacheEntries {
		for k, old := range c.entries {
			if old.lsn != e.lsn || old.epoch != e.epoch {
				delete(c.entries, k)
			}
		}
		for k := range c.entries {
			if len(c.entries) < maxCacheEntries {
				break
			}
			delete(c.entries, k)
		}
	}
	c.entries[key] = e
}

// etagOf derives the strong validator from the exact bytes on the wire.
func etagOf(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// validity tracks the store's current (LSN, epoch) pair.
type validity struct {
	conn   kdb.Conn
	floor  atomic.Int64 // highest LSN learned by watcher/prober
	stop   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once
}

// defaultProbeInterval is how often remote primaries are polled for their
// LSN when no commit broadcast is reachable in-process.
const defaultProbeInterval = 250 * time.Millisecond

// newValidity starts the freshness tracker appropriate for the backend.
func newValidity(conn kdb.Conn, probeEvery time.Duration) *validity {
	v := &validity{conn: conn, stop: make(chan struct{})}
	if probeEvery <= 0 {
		probeEvery = defaultProbeInterval
	}
	switch c := conn.(type) {
	case interface {
		CommitNotify() <-chan struct{}
		LSN() int64
	}:
		// Embedded engine: ride the commit broadcast — invalidation is
		// exact and immediate, no polling.
		v.wg.Add(1)
		go func() {
			defer v.wg.Done()
			for {
				ch := c.CommitNotify()
				v.note(c.LSN())
				select {
				case <-ch:
				case <-v.stop:
					return
				}
			}
		}()
	case interface{ ProbePrimaryLSN() int64 }:
		// Replica router: actively probe the primary's committed position
		// so other writers' commits are noticed even while every read this
		// process issues is routed to replicas.
		v.poll(probeEvery, func() int64 { return c.ProbePrimaryLSN() })
	case interface {
		Status() (kdb.NodeStatus, error)
	}:
		// Remote client: an explicit status probe (which also advances the
		// client's passive high-water mark as a side effect).
		v.poll(probeEvery, func() int64 {
			st, err := c.Status()
			if err != nil {
				return 0
			}
			return st.LSN
		})
	}
	return v
}

func (v *validity) poll(every time.Duration, probe func() int64) {
	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				v.note(probe())
			case <-v.stop:
				return
			}
		}
	}()
}

func (v *validity) note(lsn int64) {
	for {
		cur := v.floor.Load()
		if lsn <= cur || v.floor.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// current returns the freshest known (LSN, epoch): the max of the watcher
// floor and whatever the connection itself reports right now. For embedded
// databases the connection's LSN is exact, making cache validity exact; for
// remote backends the pair is a lower bound that trails foreign writes by
// at most one probe interval while never trailing this process's own
// responses (read-your-writes).
func (v *validity) current() (lsn, epoch int64) {
	lsn = v.floor.Load()
	if cur := v.conn.LSN(); cur > lsn {
		lsn = cur
	}
	if m, ok := v.conn.(interface{ ShardMap() (int64, []byte) }); ok {
		epoch, _ = m.ShardMap()
	}
	return lsn, epoch
}

func (v *validity) close() {
	v.closed.Do(func() { close(v.stop) })
	v.wg.Wait()
}
