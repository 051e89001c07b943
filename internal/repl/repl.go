// Package repl provides WAL-shipping replication for the knowledge store:
// a Follower keeps a local kdb database converged with a primary served
// over the kdb wire protocol, and a Router spreads reads across replicas
// without ever serving a session a state older than its own writes. Both
// the Follower and the api cache's change feed follow the primary's
// commit stream through a Tail.
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
	"sync/atomic"
	"time"

	"repro/internal/kdb"
)

// Options tunes a Tail, and so a Follower. The zero value is
// production-ready; tests shrink the timeouts to keep chaos scenarios fast.
type Options struct {
	// HeartbeatTimeout bounds each stream receive. The primary sends a
	// heartbeat every Server.HeartbeatInterval while idle, so a receive
	// timeout means the primary is unreachable and the Tail reconnects.
	// Default 5s.
	HeartbeatTimeout time.Duration
	// RetryMin/RetryMax bound the exponential reconnect backoff. An
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

// Tail follows a primary's commit stream for one consumer: it dials
// kdb.DialReplication from where the consumer resumes, receives each group
// of messages under Options.HeartbeatTimeout, and redials after a break,
// waiting from RetryMin up to RetryMax and starting again at RetryMin after
// any attempt that made progress, so a consumer that keeps losing a flaky
// link still moves. Its stream is closed when its context ends. A Follower
// applies what it receives to a database; the api cache's change feed folds
// it into watermarks.
type Tail struct {
	addr string
	opt  Options
	c    Consumer

	attached atomic.Bool
	cancel   context.CancelFunc
	done     chan struct{}
}

// Consumer is what a Tail's consumer does with the stream. Resume, Group and
// Snap are required; Broke and Idle may be nil.
type Consumer struct {
	// Resume returns the LSN to stream from. An error fails the attempt
	// without a dial.
	Resume func() (int64, error)
	// Group takes one receive that is not snap: the records the primary
	// shipped together, or a heartbeat. An error says the consumer cannot go
	// on from the stream, and is met as snap is.
	Group func(evs []kdb.ReplEvent) error
	// Snap meets the primary's answer that it cannot stream from where the
	// consumer resumed. nil means the consumer resynced, and the Tail
	// redials at once; an error fails the attempt.
	Snap func(ctx context.Context) error
	// Broke is told why an attempt failed, before the Tail waits to redial.
	Broke func(err error)
	// Idle runs every RetryMin while the Tail waits to redial.
	Idle func()
}

// NewTail wires a Tail to the primary at addr, which may carry a kdb://
// scheme; call Start to begin following.
func NewTail(addr string, opt Options, c Consumer) *Tail {
	return &Tail{addr: strings.TrimPrefix(addr, "kdb://"), opt: opt.withDefaults(), c: c}
}

// Start launches the loop; it runs until ctx is cancelled or Stop is called.
func (t *Tail) Start(ctx context.Context) {
	ctx, t.cancel = context.WithCancel(ctx)
	t.done = make(chan struct{})
	go func() {
		defer close(t.done)
		t.run(ctx)
	}()
}

// Stop cancels the loop and waits for it to exit, its stream closed.
func (t *Tail) Stop() {
	if t.cancel == nil {
		return
	}
	t.cancel()
	<-t.done
}

// Attached reports whether a stream is open.
func (t *Tail) Attached() bool { return t.attached.Load() }

func (t *Tail) run(ctx context.Context) {
	backoff := t.opt.RetryMin
	for {
		progressed, err := t.attempt(ctx)
		if ctx.Err() != nil {
			return
		}
		if progressed {
			backoff = t.opt.RetryMin
		}
		if err == nil {
			continue // resynced: stream from the new position now
		}
		if t.c.Broke != nil {
			t.c.Broke(err)
		}
		if !t.wait(ctx, backoff) {
			return
		}
		if !progressed && backoff < t.opt.RetryMax {
			backoff = min(2*backoff, t.opt.RetryMax)
		}
	}
}

// attempt runs one stream session, until it breaks (err) or the consumer
// resyncs (nil). progressed reports whether the consumer took records or
// resynced.
func (t *Tail) attempt(ctx context.Context) (progressed bool, err error) {
	after, err := t.c.Resume()
	if err != nil {
		return false, err
	}
	stream, err := kdb.DialReplication(t.addr, after, t.opt.HeartbeatTimeout)
	if err != nil {
		return false, err
	}
	t.attached.Store(true)
	stop := context.AfterFunc(ctx, func() { stream.Close() })
	defer func() {
		stop()
		stream.Close()
		t.attached.Store(false)
	}()
	for {
		evs, err := stream.RecvGroup()
		if err != nil {
			return progressed, err
		}
		if !evs[len(evs)-1].SnapshotRequired && t.c.Group(evs) == nil {
			progressed = progressed || len(evs[0].Entry) > 0
			continue
		}
		if err := t.c.Snap(ctx); err != nil {
			return progressed, err
		}
		return true, nil
	}
}

// wait sleeps d, running Idle every RetryMin meanwhile; false if ctx ended
// first.
func (t *Tail) wait(ctx context.Context, d time.Duration) bool {
	for left := d; left > 0; left -= t.opt.RetryMin {
		timer := time.NewTimer(min(left, t.opt.RetryMin))
		select {
		case <-ctx.Done():
			timer.Stop()
			return false
		case <-timer.C:
		}
		if t.c.Idle != nil {
			t.c.Idle()
		}
	}
	return true
}

// Follower keeps db converged with the primary at primaryAddr: a Tail
// whose consumer applies the stream to the local database. Reads on the
// local database are always safe; they simply observe a prefix of the
// primary's history.
type Follower struct {
	*Tail
	db *kdb.DB

	mu         sync.Mutex
	primaryLSN int64
	lastApply  time.Time
	resyncs    int64
	lastErr    error
}

// NewFollower wires a follower for the local database; call Start to
// begin syncing. The address may carry a kdb:// scheme.
func NewFollower(db *kdb.DB, primaryAddr string, opt Options) *Follower {
	f := &Follower{db: db}
	f.Tail = NewTail(primaryAddr, opt, Consumer{
		Resume: func() (int64, error) { return db.LSN(), nil },
		Group:  f.apply,
		Snap:   f.snapshot,
		Broke:  f.broke,
	})
	return f
}

// DB returns the follower's local database.
func (f *Follower) DB() *kdb.DB { return f.db }

// apply takes one group off the stream: a heartbeat refreshes the lag, and
// the records the primary shipped together are one write step here too:
// one append, one flush. Any apply failure (LSN gap from divergence,
// corrupt record) is unrecoverable by streaming, and the Tail falls back
// to a snapshot.
func (f *Follower) apply(evs []kdb.ReplEvent) error {
	last := evs[len(evs)-1]
	f.notePrimary(last.PrimaryLSN)
	if last.Heartbeat {
		f.updateLag()
		return nil
	}
	if err := f.db.ApplyRecords(evs); err != nil {
		return err
	}
	metAppliedTotal.Add(int64(len(evs)))
	f.noteApply(last.PrimaryLSN)
	return nil
}

// broke records a failed sync attempt.
func (f *Follower) broke(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.resyncs++
	f.mu.Unlock()
	metResyncTotal.Inc()
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

func (f *Follower) notePrimary(primaryLSN int64) {
	f.mu.Lock()
	f.primaryLSN = max(f.primaryLSN, primaryLSN)
	f.mu.Unlock()
}

func (f *Follower) noteApply(primaryLSN int64) {
	f.mu.Lock()
	f.lastApply = time.Now()
	f.primaryLSN = max(f.primaryLSN, primaryLSN)
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
