// Package repl provides WAL-shipping replication for the knowledge store:
// a Follower keeps a local kdb database converged with a primary served
// over the kdb wire protocol, and a Router spreads reads across replicas
// without ever serving a session a state older than its own writes.
//
// The primary needs no cooperation beyond kdb.Server's "replicate",
// "delta", "snapshot" and "status" verbs: a follower behind the primary's
// catch-up buffer bootstraps from a snapshot — the chunks it lacks when the
// primary serves a delta, the full dump otherwise — restored at the
// primary's exact LSN, then applies each group of committed log records
// the primary shipped together as one write step, in LSN order, appending
// the same bytes to its own log — so replica database files replay, and
// dump, byte-identically to the primary's.
package repl

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/internal/kdb"
)

// Options tunes a Follower. The zero value is production-ready; tests
// shrink the timeouts to keep chaos scenarios fast.
type Options struct {
	// HeartbeatTimeout bounds each stream receive. The primary sends a
	// heartbeat every Server.HeartbeatInterval while idle, so a receive
	// timeout means the primary is unreachable and the follower
	// reconnects. Default 5s.
	HeartbeatTimeout time.Duration
	// RetryMin/RetryMax bound the exponential reconnect backoff. A sync
	// attempt that made progress resets the backoff to RetryMin.
	// Defaults 100ms and 5s.
	RetryMin time.Duration
	RetryMax time.Duration
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.HeartbeatTimeout <= 0 {
		out.HeartbeatTimeout = 5 * time.Second
	}
	if out.RetryMin <= 0 {
		out.RetryMin = 100 * time.Millisecond
	}
	if out.RetryMax <= 0 {
		out.RetryMax = 5 * time.Second
	}
	return out
}

// Follower keeps db converged with the primary at primaryAddr. Reads on
// the local database are always safe; they simply observe a prefix of the
// primary's history.
type Follower struct {
	db   *kdb.DB
	addr string
	opt  Options

	mu          sync.Mutex
	primaryLSN  int64
	lastContact time.Time
	lastApply   time.Time
	resyncs     int64
	lastErr     error

	cancel context.CancelFunc
	done   chan struct{}
}

// NewFollower wires a follower for the local database; call Start to
// begin syncing. The address may carry a kdb:// scheme.
func NewFollower(db *kdb.DB, primaryAddr string, opt Options) *Follower {
	return &Follower{
		db:   db,
		addr: strings.TrimPrefix(primaryAddr, "kdb://"),
		opt:  opt.withDefaults(),
	}
}

// DB returns the follower's local database.
func (f *Follower) DB() *kdb.DB { return f.db }

// Start launches the sync loop; it runs until ctx is cancelled or Stop is
// called.
func (f *Follower) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		f.run(ctx)
	}()
}

// Stop cancels the sync loop and waits for it to exit.
func (f *Follower) Stop() {
	if f.cancel == nil {
		return
	}
	f.cancel()
	<-f.done
}

// run reconnects forever with exponential backoff; any attempt that
// applied records or installed a snapshot resets the backoff, so a
// follower that keeps losing a flaky link still makes steady progress.
func (f *Follower) run(ctx context.Context) {
	backoff := f.opt.RetryMin
	for {
		progressed, err := f.syncOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		if err == nil && progressed {
			// A snapshot was installed; reconnect immediately to stream
			// from the new offset.
			backoff = f.opt.RetryMin
			continue
		}
		f.mu.Lock()
		f.lastErr = err
		f.resyncs++
		f.mu.Unlock()
		metResyncTotal.Inc()
		if progressed {
			backoff = f.opt.RetryMin
		} else if backoff < f.opt.RetryMax {
			backoff *= 2
			if backoff > f.opt.RetryMax {
				backoff = f.opt.RetryMax
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// syncOnce runs one stream session: dial from the local LSN, then apply
// records until the connection fails or the primary demands a snapshot.
// It returns progressed=true if any record was applied or a snapshot was
// installed; a (true, nil) return means "snapshot installed, reconnect
// now".
func (f *Follower) syncOnce(ctx context.Context) (progressed bool, err error) {
	stream, err := kdb.DialReplication(f.addr, f.db.LSN(), f.opt.HeartbeatTimeout)
	if err != nil {
		return false, err
	}
	defer stream.Close()
	stop := context.AfterFunc(ctx, func() { stream.Close() })
	defer stop()
	for {
		evs, err := stream.RecvGroup()
		if err != nil {
			return progressed, err
		}
		last := evs[len(evs)-1]
		f.noteContact(last.PrimaryLSN)
		switch {
		case last.SnapshotRequired:
			if serr := f.snapshot(ctx); serr != nil {
				return progressed, serr
			}
			return true, nil
		case last.Heartbeat:
			f.updateLag()
		default:
			// The records the primary shipped together are one write step
			// here too: one append, one flush.
			if aerr := f.db.ApplyRecords(evs); aerr != nil {
				// Any apply failure (LSN gap from divergence, corrupt
				// record) is unrecoverable by streaming; fall back to a
				// full snapshot.
				if serr := f.snapshot(ctx); serr != nil {
					return progressed, serr
				}
				return true, nil
			}
			progressed = true
			metAppliedTotal.Add(int64(len(evs)))
			f.noteApply(last.PrimaryLSN)
		}
	}
}

// snapshot replaces the local database with the primary's current state.
// It first attempts a commit-delta transfer — negotiating over the
// content-addressed chunks the follower already holds, so only changed
// table segments cross the wire — and falls back to the classic full
// snapshot on any failure (old primaries without the delta verb, chunk
// mismatches, anything). Both paths converge byte-identically: the delta
// path reassembles and re-verifies the exact snapshot stream before
// restoring it.
func (f *Follower) snapshot(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r, err := kdb.Dial(f.addr)
	if err != nil {
		return err
	}
	defer r.Close()
	data, lsn, err := f.deltaSnapshot(r)
	if err != nil {
		data, lsn, err = r.Snapshot()
		if err != nil {
			return err
		}
		metSnapshotBytes.Add(int64(len(data)))
	}
	if err := f.db.RestoreSnapshot(data); err != nil {
		return err
	}
	f.noteContact(lsn)
	f.noteApply(lsn)
	return nil
}

// deltaSnapshot fetches the primary's snapshot as a chunk delta. The
// have-set is the chunks of the follower's own current snapshot plus any
// commit chunks in its local version store (vcs_chunks) — so a follower
// that shares committed history with the primary transfers only what
// changed since.
func (f *Follower) deltaSnapshot(r *kdb.Remote) ([]byte, int64, error) {
	have := map[string][]byte{}
	chunks, _, err := f.db.SnapshotChunks()
	if err != nil {
		return nil, 0, err
	}
	for _, c := range chunks {
		have[c.Hash] = c.Data
	}
	// The local commit store, when present, contributes every chunk it
	// retains; a missing vcs_chunks table just means no version history.
	if rows, err := f.db.Query("SELECT hash, data FROM vcs_chunks"); err == nil {
		for rows.Next() {
			row := rows.Row()
			h, _ := row[0].(string)
			s, _ := row[1].(string)
			if h != "" {
				have[h] = []byte(s)
			}
		}
	}
	keys := make([]string, 0, len(have))
	for h := range have {
		keys = append(keys, h)
	}
	manifest, shipped, lsn, err := r.SnapshotDelta(keys)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range shipped {
		metDeltaBytes.Add(int64(len(c)))
	}
	data, err := kdb.ReassembleSnapshot(manifest, shipped, func(hash string) []byte {
		return have[hash]
	})
	if err != nil {
		return nil, 0, err
	}
	return data, lsn, nil
}

func (f *Follower) noteContact(primaryLSN int64) {
	f.mu.Lock()
	f.lastContact = time.Now()
	if primaryLSN > f.primaryLSN {
		f.primaryLSN = primaryLSN
	}
	f.mu.Unlock()
}

func (f *Follower) noteApply(primaryLSN int64) {
	f.mu.Lock()
	f.lastApply = time.Now()
	if primaryLSN > f.primaryLSN {
		f.primaryLSN = primaryLSN
	}
	f.mu.Unlock()
	f.updateLag()
}

// updateLag refreshes the process-wide lag gauges from this follower's
// view of the primary.
func (f *Follower) updateLag() {
	st := f.Health()
	metLagLSN.Set(float64(st.LagLSN))
	metLagSeconds.Set(st.LagSeconds)
}

// Status implements the Router's Replica probe for a local follower.
func (f *Follower) Status() (kdb.NodeStatus, error) {
	return kdb.NodeStatus{Role: "replica", LSN: f.db.LSN()}, nil
}

// Health reports the follower's replication position for /healthz.
func (f *Follower) Health() Status {
	applied := f.db.LSN()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		Role:        "replica",
		PrimaryAddr: f.addr,
		AppliedLSN:  applied,
		PrimaryLSN:  f.primaryLSN,
		Resyncs:     f.resyncs,
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	if lag := f.primaryLSN - applied; lag > 0 {
		st.LagLSN = lag
		if !f.lastApply.IsZero() {
			st.LagSeconds = time.Since(f.lastApply).Seconds()
		}
	}
	// A replica's own lag is also its aggregate lag: /healthz consumers
	// read repl_lag_* uniformly across roles.
	st.ReplLagLSN = st.LagLSN
	st.ReplLagSeconds = st.LagSeconds
	return st
}
