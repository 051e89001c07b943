package kdb

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ErrNoRows is returned by QueryRow (local and remote) when the query
// matches no rows. Callers should test for it with errors.Is.
var ErrNoRows = errors.New("kdb: no rows")

// Table is one relation.
type Table struct {
	Name    string
	Columns []ColumnDef
	Rows    [][]any
	autoID  int64
	pkIndex int // index of the INTEGER PRIMARY KEY column, -1 if none

	// version changes on every mutation (inserts, updates, deletes, index
	// DDL, and their undos). Attached columnar stores and the commit path
	// compare it against the version their derived state was built from.
	// Values come from a process-wide counter so a dropped and recreated
	// table can never alias an older version of itself.
	version int64
	// rewritten is the version of the last mutation that was not a plain
	// append — stamped at creation, so a new, recreated or restored table
	// never reads as "appended to since version X". See
	// TableView.Rewritten.
	rewritten int64

	indexes []*hashIndex
	pkOrder pkOrder    // whether Rows is in primary-key order; see pkSorted
	idxMu   sync.Mutex // serializes lazy index rebuilds under db.mu.RLock

	// env resolves the table's column names. It is built with the table:
	// columns never change after CREATE, and DROP and CREATE make a new
	// *Table.
	env *env

	// inserts maps an INSERT this table has run to the positions of its
	// columns, so a statement a log or a campaign repeats resolves its column
	// names once. The parsed statement is planCache's, shared by every
	// database in the process, so what it means for this table lives here;
	// a recreated table starts empty. Guarded by db.mu held for writing, and
	// emptied when it reaches maxInsertPlans.
	inserts map[*insertStmt][]int

	// folds keeps aggregate folds a later execution resumes (resumeFold).
	folds foldMemo
}

// maxInsertPlans bounds a table's inserts: a log's INSERT statements are a
// handful per table, and one that spells its values into the SQL must not
// keep a plan per row.
const maxInsertPlans = 64

func (t *Table) colIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// DBOptions tunes how a database allocates values that must stay disjoint
// across a sharded deployment. The zero value reproduces the classic
// single-node behaviour (ids 1, 2, 3, ...).
type DBOptions struct {
	// AutoIDOffset and AutoIDStride partition the auto-increment id space:
	// a table's first automatic id is AutoIDOffset+1 and each subsequent
	// one advances by AutoIDStride. Shard i of n opens its database with
	// offset i and stride n, so ids assigned by different shards never
	// collide and a row's owning shard is recoverable as (id-1) mod n.
	// Zero values mean offset 0, stride 1. The sequence is configuration,
	// not logged state: every node replaying a shard's log (including its
	// replication followers) must open with the same options to derive the
	// same ids.
	AutoIDOffset int64
	AutoIDStride int64
}

// DB is an embedded database. Use Open to create one; the zero value is not
// usable. All methods are safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	wal    walFile // the append handle; nil in memory or once walErr is set
	path   string
	opts   DBOptions
	// walErr records a failed log reopen (a rewrite's last resort) or a
	// failed cut after a failed append; while set, mutations fail rather
	// than silently skipping durability.
	walErr error
	// The log file and its online rewrite (checkpoint.go), guarded by db.mu:
	// logSize is the log's length in bytes and imageSize the length of the
	// checkpoint image at its head (0 for none); logGen counts the files
	// that have replaced the log; ckpt is the rewrite in progress, if any;
	// closed is set by Close, after which none starts.
	logSize, imageSize int64
	logGen             int64
	ckpt               *checkpoint
	closed             bool
	// rewriteMu serializes the log's rewriters — Compact, RestoreSnapshot
	// and the online checkpoint — which share its temp file. It is taken
	// before db.mu.
	rewriteMu sync.Mutex
	// undos, step and ends are the write step in progress (commitLocked):
	// the undo of each statement staged so far, their newline-terminated log
	// records end to end, and where in step each record ends. Empty between
	// steps, the arrays kept for the next one; guarded by db.mu held for
	// writing.
	undos []func()
	step  []byte
	ends  []recordEnd

	// lsn is the monotonically increasing commit sequence number: one per
	// committed log record, restored across restarts by replay.
	lsn int64
	// replBuf retains the most recent committed records for replication
	// catch-up; followers older than its head must take a full snapshot.
	// replBytes is the length of its records.
	replBuf   []replRecord
	replBytes int
	// commitCh, when non-nil, is closed on the next commit — the
	// broadcast replication streams wait on.
	commitCh chan struct{}

	// columnar, when set, is consulted for analytical SELECTs before the
	// row engine runs. Stored via atomic pointer so Query never takes a
	// lock just to discover no backend is attached.
	columnar atomic.Pointer[columnarHook]

	// system, when set, serves virtual "__"-prefixed tables (commit log,
	// diffs) — see SetSystemTables.
	system atomic.Pointer[systemHook]
}

// recordEnd is where a staged record ends in the write step, and whether
// the scanner reads it (replRecord.scanned).
type recordEnd struct {
	at      int
	scanned bool
}

// Result reports the outcome of a mutation.
type Result struct {
	LastInsertID int64
	RowsAffected int
	// LSN is the commit sequence number the mutation received (the last
	// one for multi-record batches); 0 for unlogged no-ops.
	LSN int64
	// rec and stmt are set on the placeholder a wire batch's recorder returns:
	// the statement's outcome is not known until the batch is answered, and
	// Ref is how its id is named before then and read after.
	rec  *recording
	stmt int
}

// Rows is a forward-only result set.
type Rows struct {
	Columns []string
	rows    [][]any
	idx     int
	// fp and lsn answer Footprint.
	fp  Footprint
	lsn int64
}

// Next advances to the next row; it must be called before the first Row.
func (r *Rows) Next() bool {
	if r.idx >= len(r.rows) {
		return false
	}
	r.idx++
	return true
}

// Row returns the current row's values.
func (r *Rows) Row() []any { return r.rows[r.idx-1] }

// Len returns the total number of rows.
func (r *Rows) Len() int { return len(r.rows) }

// All returns every row; convenient for small result sets.
func (r *Rows) All() [][]any { return r.rows }

// NewRows builds a result set from externally assembled rows — the shard
// coordinator's merge layer produces its recombined results through this.
func NewRows(columns []string, rows [][]any) *Rows {
	return &Rows{Columns: columns, rows: rows}
}

// Open opens (or creates) a database. An empty path opens an in-memory
// database; otherwise the log at path is read and future mutations are
// appended to it. A log may start with a checkpoint image (checkpoint.go),
// the typed rows of every table as of one LSN, which Open decodes straight
// into the tables before it replays the JSON-lines records after it; a log
// without one is all records. A last record that has no newline and does
// not decode — a write a crash cut short — is cut off the file; any other
// record or image block that does not read fails Open. A temp file a
// crashed rewrite of the log left beside it is removed.
func Open(path string) (*DB, error) {
	return OpenWithOptions(path, DBOptions{})
}

// OpenWithOptions opens a database with explicit allocation options. The
// options must be set before replay (id derivation during replay depends
// on them), which is why they are a parameter of Open rather than a
// setter.
func OpenWithOptions(path string, opts DBOptions) (*DB, error) {
	db := &DB{tables: map[string]*Table{}, path: path, opts: opts}
	if path == "" {
		return db, nil
	}
	if err := os.Remove(path + tempSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("kdb: remove stale %s: %w", path+tempSuffix, err)
	}
	// One handle reads the log for replay and then appends to it.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kdb: open log: %w", err)
	}
	wf := interpose(f)
	if err := db.load(f, wf); err != nil {
		wf.Close()
		return nil, err
	}
	db.wal = wf
	return db, nil
}

// Close releases the log file handle, after stopping a checkpoint in
// progress (its temp file removed).
func (db *DB) Close() error {
	db.mu.Lock()
	ck := db.ckpt
	if ck != nil && !db.closed {
		close(ck.stop)
	}
	db.closed = true
	db.mu.Unlock()
	if ck != nil {
		<-ck.done
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		err := db.wal.Close()
		db.wal = nil
		return err
	}
	return nil
}

// Tables returns the table names in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tablesSorted()
}

// tablesSorted lists the lowercased table names in snapshot order; db.mu
// must be held (read or write).
func (db *DB) tablesSorted() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Exec runs a mutation statement (CREATE, INSERT, UPDATE, DELETE, DROP).
func (db *DB) Exec(query string, args ...any) (Result, error) {
	return db.ExecTraced(telemetry.TraceContext{}, query, args...)
}

// ExecTraced implements Conn: Exec recorded as a "db.exec" span.
func (db *DB) ExecTraced(tc telemetry.TraceContext, query string, args ...any) (Result, error) {
	hop := telemetry.StartHop(tc, "db.exec")
	hop.SetSQL(query)
	res, err := db.exec(query, args)
	if err != nil {
		hop.Fail(err)
		return Result{}, err
	}
	hop.AttrInt("rows_affected", int64(res.RowsAffected))
	hop.End()
	return res, nil
}

// exec is a write step of one statement.
func (db *DB) exec(query string, args []any) (res Result, err error) {
	lockStart := time.Now()
	db.mu.Lock()
	metLockWaitSeconds.Observe(sinceSeconds(lockStart))
	defer db.mu.Unlock()
	start := time.Now()
	defer func() { metExecSeconds.Observe(sinceSeconds(start)) }()
	err = db.commitLocked(func() (err error) {
		res, err = db.stageStmt(query, args)
		return err
	})
	return res, err
}

// commitLocked is the write step, the one way a mutation becomes visible
// and durable: Exec, Batch and ApplyRecords all run their statements through
// it. run stages the caller's statements (stageStmt, stageRecord); if it or
// the log append fails, every staged statement is undone newest first and
// nothing is written, so memory never diverges from disk. Otherwise all the
// staged records reach the log in exactly one Write (appendLocked), and
// only then does each take its LSN. db.mu must be held for writing.
func (db *DB) commitLocked(run func() error) error {
	if db.walErr != nil {
		return fmt.Errorf("kdb: log unavailable: %w", db.walErr)
	}
	defer func() {
		// Keep the arrays for the next step, not their contents: an undo
		// closure pins the pre-image of everything its statement touched.
		clear(db.undos)
		db.undos, db.step, db.ends = db.undos[:0], keepScratch(db.step[:0]), db.ends[:0]
	}()
	err := run()
	logged := err == nil && db.wal != nil && len(db.ends) > 0
	if logged {
		err = db.appendLocked()
	}
	if err != nil {
		for i := len(db.undos) - 1; i >= 0; i-- {
			db.undos[i]()
		}
		return err
	}
	// The catch-up buffer keeps the records: a unit of work's in one array of
	// exactly their size, a bulk load's each in its own, so that the last few
	// of them still buffered do not hold on to all the megabytes.
	unit := len(db.step) <= maxScratch
	kept, start := db.step, 0
	if unit {
		kept = bytes.Clone(kept)
	}
	for _, end := range db.ends {
		rec := kept[start:end.at:end.at]
		if !unit {
			rec = bytes.Clone(rec)
		}
		db.noteCommit(rec, end.scanned)
		start = end.at
	}
	if logged {
		db.logSize += int64(len(db.step))
		metWALSinceCheckpoint.Set(float64(db.logSize - db.imageSize))
		db.maybeCheckpointLocked()
	}
	return nil
}

// stageStmt stages one statement of the write step in progress, encoding
// its log record first: an unloggable argument must fail before the
// mutation touches memory — on in-memory databases too, where the record
// still feeds the replication buffer.
func (db *DB) stageStmt(query string, args []any) (Result, error) {
	mark := len(db.step)
	db.step = roomFor(db.step, query, args)
	rec, err := appendRecord(db.step, query, args)
	if err != nil {
		return Result{}, err
	}
	db.step = append(rec, '\n')
	return db.stageRecord(query, args, mark, true, true)
}

// stageRecord applies in memory the statement whose newline-terminated log
// record the caller has just appended to db.step at mark, and queues its undo
// for commitLocked, which must be running. A statement that cannot be applied
// takes its record back out, and so does a live one that changed nothing
// (errUnchanged), which takes no LSN. live is as for applyLocked; scanned
// says the record is in the scanner's shape (replRecord.scanned).
func (db *DB) stageRecord(query string, args []any, mark int, live, scanned bool) (Result, error) {
	res, undo, err := db.applyLocked(query, args, live)
	if err == errUnchanged && !live {
		err = nil
	}
	if err != nil {
		db.step = db.step[:mark]
		if err == errUnchanged {
			return Result{}, nil
		}
		return Result{}, err
	}
	if undo != nil {
		db.undos = append(db.undos, undo)
	}
	db.ends = append(db.ends, recordEnd{len(db.step), scanned})
	// The lock is held for the whole step, so if the step commits this is
	// exactly the LSN the record gets.
	res.LSN = db.lsn + int64(len(db.ends))
	return res, nil
}

// errUnchanged is what an exec returns for a statement that found nothing to
// do: a CREATE … IF NOT EXISTS whose object is there. A live statement is
// then not logged; in committed history, which may hold one, it applies as
// a record that changed nothing.
var errUnchanged = errors.New("kdb: unchanged")

// noteCommit gives one logged record the next LSN, retains it for
// replication catch-up, and wakes any streams waiting for commits; scanned is
// as for replRecord. db.mu must be held for writing (or the DB not yet
// shared, as during replay).
func (db *DB) noteCommit(rec []byte, scanned bool) {
	db.lsn++
	line := rec
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	db.replBuf = append(db.replBuf, replRecord{lsn: db.lsn, raw: line, scanned: scanned})
	db.replBytes += len(line)
	if n := len(db.replBuf); n > replBufCap+replBufCap/8 || db.replBytes > replBufBytes+replBufBytes/8 {
		// Amortized trim: keep the newest records within both bounds (and
		// at least the newest one), moved to the front of the same array
		// (entriesSince hands out copies), and let go of the record bytes
		// behind them.
		drop := 0
		for ; drop < n-1 && (n-drop > replBufCap || db.replBytes > replBufBytes); drop++ {
			db.replBytes -= len(db.replBuf[drop].raw)
		}
		copy(db.replBuf, db.replBuf[drop:])
		clear(db.replBuf[n-drop:])
		db.replBuf = db.replBuf[:n-drop]
	}
	if db.commitCh != nil {
		close(db.commitCh)
		db.commitCh = nil
	}
}

// applyLocked parses and applies one mutation in memory; db.mu must be
// held (or the DB not yet shared). Each exec* returns an undo closure
// alongside its result, which commitLocked runs if the step fails; replay,
// the only other caller, has nothing to roll back to. live is set for a new
// statement and unset for committed history — log replay, a snapshot
// restore, a follower's apply — which must go in as it was written even
// where today's rules would refuse it (see execInsert and execUpdate).
func (db *DB) applyLocked(query string, args []any, live bool) (Result, func(), error) {
	stmt, err := parseCached(query)
	if err != nil {
		return Result{}, nil, err
	}
	switch s := stmt.(type) {
	case *createStmt:
		return db.execCreate(s)
	case *insertStmt:
		return db.execInsert(s, args, live)
	case *updateStmt:
		return db.execUpdate(s, args, live)
	case *deleteStmt:
		return db.execDelete(s, args)
	case *dropStmt:
		return db.execDrop(s)
	case *createIndexStmt:
		return db.execCreateIndex(s)
	case *dropIndexStmt:
		return db.execDropIndex(s)
	case *selectStmt:
		return Result{}, nil, fmt.Errorf("kdb: use Query for SELECT")
	}
	return Result{}, nil, fmt.Errorf("kdb: unsupported statement")
}

// ExecFunc applies one mutation inside a Batch.
type ExecFunc func(query string, args ...any) (Result, error)

// Batcher is implemented by connections that run a batch themselves: *DB
// applies it under one lock with a single log flush, a router or coordinator
// hands it whole to the backend it picks. Callers holding a Conn go through
// Batch, which also knows the wire client's way.
type Batcher interface {
	Batch(fn func(exec ExecFunc) error) error
}

var _ Batcher = (*DB)(nil)

// KeyedBatcher is implemented by connections that can pin a batch to a
// placement key: every mutation in fn lands on whichever backend the key
// hashes to. A sharded coordinator uses the key to colocate related rows
// (a campaign's runs, an object's child tables) on one shard.
type KeyedBatcher interface {
	BatchKeyed(key uint64, fn func(exec ExecFunc) error) error
}

// wireBatcher is the wire client's way to take a batch: fn's statements are
// recorded and sent as one "batch" request (Remote.wireBatch). The method is
// unexported so that Batch and BatchKeyed are the only door to it, and a
// wrapper embedding a *Remote goes through the same door as the bare client.
type wireBatcher interface {
	wireBatch(key *uint64, fn func(exec ExecFunc) error) error
}

// Batch runs fn as one all-or-nothing unit of work on c: a write step on an
// embedded database, one request over a wire connection, whatever a router
// or coordinator makes of it. A statement that needs the id an earlier one
// inserted takes that statement's Result.Ref() as its argument. Only a
// connection that is none of these — a test double embedding the interface —
// gets fn statement at a time through its own Exec, with no atomicity.
func Batch(c Conn, fn func(exec ExecFunc) error) error {
	switch b := c.(type) {
	case Batcher:
		return b.Batch(fn)
	case wireBatcher:
		return b.wireBatch(nil, fn)
	}
	return fn(c.Exec)
}

// BatchKeyed pins the batch to a placement key when c routes batches by
// key — or is a wire client, whose server may — and is Batch otherwise.
func BatchKeyed(c Conn, key uint64, fn func(exec ExecFunc) error) error {
	switch b := c.(type) {
	case KeyedBatcher:
		return b.BatchKeyed(key, fn)
	case Batcher:
		return b.Batch(fn)
	case wireBatcher:
		return b.wireBatch(&key, fn)
	}
	return fn(c.Exec)
}

// Batch runs fn with an exec function that applies mutations under one
// write lock and one buffered log flush — the transaction-sized unit the
// batched-ingestion path persists per flush. If fn (or any exec call made
// after earlier execs succeeded) returns an error, every applied mutation
// is rolled back in reverse order and nothing reaches the log, so a batch
// is all-or-nothing both in memory and on disk: a write step of N.
//
// fn must not call other DB methods (Exec, Query, Batch): the write lock
// is already held and they would deadlock.
func (db *DB) Batch(fn func(exec ExecFunc) error) error {
	lockStart := time.Now()
	db.mu.Lock()
	metLockWaitSeconds.Observe(sinceSeconds(lockStart))
	metBatchesTotal.Inc()
	defer db.mu.Unlock()
	return db.commitLocked(func() error {
		return fn(func(query string, args ...any) (Result, error) {
			return db.stageStmt(query, args)
		})
	})
}

// Query runs a SELECT statement.
func (db *DB) Query(query string, args ...any) (*Rows, error) {
	return db.QueryTraced(telemetry.TraceContext{}, query, args...)
}

// QueryTraced implements Conn: the same SELECT path as Query, with the
// work recorded as a "db.select" span. Query delegates here with an empty
// context, so when tracing is off the hop is nil and every annotation is a
// no-op.
//
// A SELECT is offered to an ordered list of sources: the attached
// system-table provider, the built-in trace tables, the attached columnar
// backend, and last the row engine, which serves everything and is the
// reference the others must equal. The first three run before the read
// lock is taken, because they re-enter the database through its public
// surface. One rule moves down the list: a source that declines
// (served=false) hands the statement to the next one; an error from a
// source that claimed the table fails the statement. Whichever source
// serves names itself in selectStats.path, and the span is annotated here
// and nowhere else.
func (db *DB) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*Rows, error) {
	q := [1]pendingSelect{db.startSelect(tc, query, args)}
	db.selectLocked(q[:])
	return q[0].finish()
}

// Stmt is one statement of a read step: its SQL and arguments, and whether
// its answer should report its footprint (Rows.Footprint). Nobody pays for
// a footprint that was not asked for.
type Stmt struct {
	SQL       string
	Args      []any
	Footprint bool
}

// QueryBatch implements Conn: the SELECTs of one read step, answered in
// order. Each is offered to the sources before the read lock as QueryTraced
// offers it, and each keeps its "db.select" span; the ones left to the row
// engine then run under one read lock, so they see one committed state. The
// step fails at its first failing statement, and the rows of the statements
// before it come back with the error.
func (db *DB) QueryBatch(tc telemetry.TraceContext, stmts []Stmt) ([]*Rows, error) {
	qs := make([]pendingSelect, 0, len(stmts))
	for _, s := range stmts {
		qs = append(qs, db.startSelect(tc, s.SQL, s.Args))
		qs[len(qs)-1].want = s.Footprint
		if qs[len(qs)-1].err != nil {
			break
		}
	}
	db.selectLocked(qs)
	out := make([]*Rows, 0, len(qs))
	for i := range qs {
		rows, err := qs[i].finish()
		if err != nil {
			return out, err
		}
		out = append(out, rows)
	}
	return out, nil
}

// pendingSelect is one SELECT on its way down the sources: parsed and
// offered to those before the read lock (startSelect), answered by the row
// engine under it when none of them served it (selectLocked), then reported
// on its span (finish). A statement the step never reached is left
// unanswered, and its span is never recorded. want asks the row engine for
// the answer's footprint; a statement another source serves has none.
type pendingSelect struct {
	hop    *telemetry.Hop
	sel    *selectStmt
	args   []any
	want   bool
	st     selectStats
	served bool
	rows   *Rows
	err    error
}

func (db *DB) startSelect(tc telemetry.TraceContext, query string, args []any) pendingSelect {
	q := pendingSelect{hop: telemetry.StartHop(tc, "db.select"), args: args}
	q.hop.SetSQL(query)
	stmt, err := parseCached(query)
	if err != nil {
		q.err = err
		return q
	}
	var ok bool
	if q.sel, ok = stmt.(*selectStmt); !ok {
		q.err = fmt.Errorf("kdb: Query requires SELECT")
		return q
	}
	q.rows, q.served, q.err = db.selectProvider(q.sel, args, &q.st)
	if !q.served {
		q.rows, q.served, q.err = selectTraceTable(q.sel, args, &q.st)
	}
	if !q.served {
		q.rows, q.served = db.selectColumnar(q.sel, args, &q.st)
	}
	return q
}

// selectLocked is the last read source: the row engine, under one read lock
// for every statement of qs no earlier source served, in order, up to the
// first that fails. Each span's trace id becomes the exemplar of its
// statement's kdb_query_seconds sample.
func (db *DB) selectLocked(qs []pendingSelect) {
	locked := false
	var wait float64
	for i := range qs {
		q := &qs[i]
		if q.err != nil {
			return
		}
		if q.served {
			continue
		}
		if !locked {
			lockStart := time.Now()
			db.mu.RLock()
			defer db.mu.RUnlock()
			wait, locked = sinceSeconds(lockStart), true
			metLockWaitSeconds.Observe(wait)
		}
		q.st.lockWait = wait
		if q.want {
			q.st.fp = &footprintSet{}
		}
		start := time.Now()
		q.rows, q.err = db.execSelectStats(q.sel, q.args, &q.st)
		metQuerySeconds.ObserveEx(sinceSeconds(start), q.hop.TraceID())
		q.served = true
		if q.want && q.err == nil {
			q.rows.fp, q.rows.lsn = q.st.fp.result(), db.lsn
		}
	}
}

// finish reports the statement on its span and returns its answer.
func (q *pendingSelect) finish() (*Rows, error) {
	if q.err != nil {
		q.hop.Fail(q.err)
		return nil, q.err
	}
	q.hop.Attr("path", q.st.path)
	q.hop.AttrFloat("lock_wait_seconds", q.st.lockWait)
	q.hop.AttrInt("rows", int64(q.rows.Len()))
	q.hop.AttrInt("rows_examined", int64(q.st.examined))
	if q.st.fold == "resumed" {
		q.hop.AttrInt("resumed_at", int64(q.st.resumedAt))
	}
	q.hop.End()
	return q.rows, nil
}

// QueryRow runs a SELECT and returns its single row, returning ErrNoRows
// on zero rows.
func (db *DB) QueryRow(query string, args ...any) ([]any, error) {
	return FirstRow(db.Query(query, args...))
}

// FirstRow turns a Query result into QueryRow's: the first row, or
// ErrNoRows when the result is empty. Every Conn derives QueryRow from its
// own Query through it, so a point read takes the same path as any read.
func FirstRow(rows *Rows, err error) ([]any, error) {
	if err != nil {
		return nil, err
	}
	if !rows.Next() {
		return nil, ErrNoRows
	}
	return rows.Row(), nil
}

func (db *DB) execCreate(s *createStmt) (Result, func(), error) {
	key := strings.ToLower(s.Table)
	if _, exists := db.tables[key]; exists {
		if s.IfNotExists {
			return Result{}, nil, errUnchanged
		}
		return Result{}, nil, fmt.Errorf("kdb: table %q already exists", s.Table)
	}
	seen := map[string]bool{}
	pk := -1
	for i, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return Result{}, nil, fmt.Errorf("kdb: duplicate column %q", c.Name)
		}
		seen[lc] = true
		if c.PrimaryKey {
			if pk >= 0 {
				return Result{}, nil, fmt.Errorf("kdb: multiple primary keys")
			}
			if c.Type != TInteger {
				return Result{}, nil, fmt.Errorf("kdb: primary key must be INTEGER")
			}
			pk = i
		}
	}
	t := newTable(s.Table, s.Columns, nil, pk)
	t.noteRewrite()
	if pk >= 0 {
		// Automatic index on the INTEGER PRIMARY KEY.
		t.indexes = append(t.indexes, &hashIndex{col: pk})
	}
	db.tables[key] = t
	return Result{}, func() { delete(db.tables, key) }, nil
}

func (db *DB) execCreateIndex(s *createIndexStmt) (Result, func(), error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, nil, fmt.Errorf("kdb: no such table %q", s.Table)
	}
	if t.indexNamed(s.Name) != nil {
		if s.IfNotExists {
			return Result{}, nil, errUnchanged
		}
		return Result{}, nil, fmt.Errorf("kdb: index %q already exists", s.Name)
	}
	col := t.colIndex(s.Col)
	if col < 0 {
		return Result{}, nil, fmt.Errorf("kdb: table %q has no column %q", s.Table, s.Col)
	}
	if ix := t.indexOn(col); ix != nil && ix.Name != "" {
		if s.IfNotExists {
			return Result{}, nil, errUnchanged
		}
		return Result{}, nil, fmt.Errorf("kdb: column %q is already indexed by %q", s.Col, ix.Name)
	}
	// Index DDL changes the table's snapshot records (a CREATE INDEX line
	// shifts every later record), so it and its undo count as rewrites.
	t.indexes = append(t.indexes, &hashIndex{Name: s.Name, col: col})
	t.noteRewrite()
	undo := func() {
		t.indexes = t.indexes[:len(t.indexes)-1]
		t.noteRewrite()
	}
	return Result{}, undo, nil
}

func (db *DB) execDropIndex(s *dropIndexStmt) (Result, func(), error) {
	for _, t := range db.tables {
		for i, ix := range t.indexes {
			if ix.Name != "" && strings.EqualFold(ix.Name, s.Name) {
				t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
				t.noteRewrite()
				undo := func() {
					t.indexes = append(t.indexes, ix)
					t.noteRewrite()
				}
				return Result{}, undo, nil
			}
		}
	}
	if s.IfExists {
		return Result{}, nil, nil
	}
	return Result{}, nil, fmt.Errorf("kdb: no such index %q", s.Name)
}

// execInsert appends rows. An explicit INTEGER PRIMARY KEY that some row
// already holds fails a live statement; in committed history (live unset),
// written before that rule, it is counted and kept.
func (db *DB) execInsert(s *insertStmt, args []any, live bool) (Result, func(), error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, nil, fmt.Errorf("kdb: no such table %q", s.Table)
	}
	idxs, err := t.insertPlan(s)
	if err != nil {
		return Result{}, nil, err
	}
	oldLen, oldAuto := len(t.Rows), t.autoID
	undo := func() {
		t.Rows = t.Rows[:oldLen]
		t.autoID = oldAuto
		t.invalidateIndexes()
	}
	var res Result
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(idxs) {
			undo()
			return Result{}, nil, fmt.Errorf("kdb: %d values for %d columns", len(exprRow), len(idxs))
		}
		row := make([]any, len(t.Columns))
		for i, e := range exprRow {
			v, err := evalValue(e, args)
			if err != nil {
				undo()
				return Result{}, nil, err
			}
			cv, err := coerce(v, t.Columns[idxs[i]].Type)
			if err != nil {
				undo()
				name := t.Columns[idxs[i]].Name
				if len(s.Columns) > 0 {
					name = s.Columns[i] // as the statement spells it
				}
				return Result{}, nil, fmt.Errorf("kdb: column %q: %w", name, err)
			}
			row[idxs[i]] = cv
		}
		if t.pkIndex >= 0 {
			if row[t.pkIndex] == nil {
				t.autoID = db.nextAutoID(t.autoID)
				row[t.pkIndex] = t.autoID
			} else if id, ok := row[t.pkIndex].(int64); ok {
				if t.pkHolders(id) > 0 {
					if live {
						undo()
						return Result{}, nil, fmt.Errorf("kdb: table %q: duplicate primary key %d", s.Table, id)
					}
					metReplayDuplicatePK.Inc()
				}
				t.autoID = max(t.autoID, id)
			}
			res.LastInsertID = row[t.pkIndex].(int64)
		}
		t.Rows = append(t.Rows, row)
		t.noteInsert(len(t.Rows)-1, row)
		res.RowsAffected++
	}
	return res, undo, nil
}

// insertPlan returns the table positions of s's columns, in s's order: all
// of the table's when s names none.
func (t *Table) insertPlan(s *insertStmt) ([]int, error) {
	if idxs, ok := t.inserts[s]; ok {
		return idxs, nil
	}
	var idxs []int
	if len(s.Columns) == 0 {
		for i := range t.Columns {
			idxs = append(idxs, i)
		}
	}
	for _, c := range s.Columns {
		idx := t.colIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("kdb: table %q has no column %q", s.Table, c)
		}
		idxs = append(idxs, idx)
	}
	if t.inserts == nil || len(t.inserts) >= maxInsertPlans {
		t.inserts = map[*insertStmt][]int{}
	}
	t.inserts[s] = idxs
	return idxs, nil
}

// nextAutoID advances a table's auto-increment high-water mark along the
// database's configured sequence: the first id is offset+1, later ids
// advance by the stride. A RestoreSnapshot scratch database is built as a
// bare struct, so zero/absent options defensively mean offset 0, stride 1.
func (db *DB) nextAutoID(cur int64) int64 {
	stride := db.opts.AutoIDStride
	if stride <= 0 {
		stride = 1
	}
	if cur == 0 {
		return db.opts.AutoIDOffset + 1
	}
	return cur + stride
}

// execUpdate assigns in place. A row the statement moves onto an INTEGER
// PRIMARY KEY another row holds fails a live statement, as execInsert's
// explicit key does; in committed history it is counted and kept.
func (db *DB) execUpdate(s *updateStmt, args []any, live bool) (Result, func(), error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, nil, fmt.Errorf("kdb: no such table %q", s.Table)
	}
	type setOp struct {
		idx int
		val expr
	}
	var sets []setOp
	movesKey := false
	for _, set := range s.Sets {
		idx := t.colIndex(set.Col)
		if idx < 0 {
			return Result{}, nil, fmt.Errorf("kdb: table %q has no column %q", s.Table, set.Col)
		}
		sets = append(sets, setOp{idx, set.Val})
		movesKey = movesKey || idx == t.pkIndex
	}
	// Saved pre-images of every mutated row, for rollback.
	type preImage struct{ row, old []any }
	var saved []preImage
	undo := func() {
		for _, p := range saved {
			copy(p.row, p.old)
		}
		if len(saved) > 0 {
			t.invalidateIndexes()
		}
	}
	p := t.planWalk(t.env, nil, s.Where, args)
	_, err := p.walk(func(_ int, row []any) (bool, error) {
		saved = append(saved, preImage{row: row, old: append([]any(nil), row...)})
		for _, set := range sets {
			v, err := evalValue(set.val, args)
			if err != nil {
				return false, err
			}
			cv, err := coerce(v, t.Columns[set.idx].Type)
			if err != nil {
				return false, err
			}
			row[set.idx] = cv
		}
		return false, nil
	})
	if err != nil {
		undo()
		return Result{}, nil, err
	}
	res := Result{RowsAffected: len(saved)}
	if res.RowsAffected > 0 {
		t.invalidateIndexes()
	}
	for _, p := range saved {
		if !movesKey {
			break
		}
		id, ok := p.row[t.pkIndex].(int64)
		if !ok || p.row[t.pkIndex] == p.old[t.pkIndex] || t.pkHolders(id) < 2 {
			continue
		}
		if live {
			undo()
			return Result{}, nil, fmt.Errorf("kdb: table %q: duplicate primary key %d", s.Table, id)
		}
		metReplayDuplicatePK.Inc()
	}
	return res, undo, nil
}

func (db *DB) execDelete(s *deleteStmt, args []any) (Result, func(), error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, nil, fmt.Errorf("kdb: no such table %q", s.Table)
	}
	var drop []int // the matching positions, ascending
	p := t.planWalk(t.env, nil, s.Where, args)
	_, err := p.walk(func(pos int, _ []any) (bool, error) {
		drop = append(drop, pos)
		return false, nil
	})
	if err != nil || len(drop) == 0 {
		return Result{}, nil, err
	}
	// Build a fresh slice rather than filtering in place so the old
	// snapshot stays intact for rollback.
	old := t.Rows
	kept, from := make([][]any, 0, len(old)-len(drop)), 0
	for _, pos := range drop {
		kept = append(kept, old[from:pos]...)
		from = pos + 1
	}
	t.Rows = append(kept, old[from:]...)
	t.invalidateIndexes()
	undo := func() {
		t.Rows = old
		t.invalidateIndexes()
	}
	return Result{RowsAffected: len(drop)}, undo, nil
}

func (db *DB) execDrop(s *dropStmt) (Result, func(), error) {
	key := strings.ToLower(s.Table)
	t, ok := db.tables[key]
	if !ok {
		if s.IfExists {
			return Result{}, nil, nil
		}
		return Result{}, nil, fmt.Errorf("kdb: no such table %q", s.Table)
	}
	delete(db.tables, key)
	return Result{}, func() { db.tables[key] = t }, nil
}

// env maps qualified and unqualified column references to positions in the
// (possibly joined) row.
type env struct {
	// byQualified maps "table.col" to index; byName maps "col" to index,
	// with -2 marking ambiguous unqualified names.
	byQualified map[string]int
	byName      map[string]int
	width       int
}

// newTable makes a table and its name environment.
func newTable(name string, cols []ColumnDef, rows [][]any, pk int) *Table {
	e := &env{byQualified: make(map[string]int, len(cols)), byName: make(map[string]int, len(cols)), width: len(cols)}
	prefix := strings.ToLower(name) + "."
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		e.byQualified[prefix+lc] = i
		if _, dup := e.byName[lc]; dup {
			e.byName[lc] = -2
		} else {
			e.byName[lc] = i
		}
	}
	return &Table{Name: name, Columns: cols, Rows: rows, pkIndex: pk, env: e}
}

// extend returns the environment of e's row with t's columns after it. An
// env is shared by every statement that reads it and is never written.
func (e *env) extend(t *Table) *env {
	te := t.env
	ne := &env{
		byQualified: make(map[string]int, len(e.byQualified)+len(te.byQualified)),
		byName:      make(map[string]int, len(e.byName)+len(te.byName)),
		width:       e.width + te.width,
	}
	for k, v := range e.byQualified {
		ne.byQualified[k] = v
	}
	for k, v := range e.byName {
		ne.byName[k] = v
	}
	for k, v := range te.byQualified {
		ne.byQualified[k] = e.width + v
	}
	for k, v := range te.byName {
		if _, dup := ne.byName[k]; dup || v < 0 {
			ne.byName[k] = -2
		} else {
			ne.byName[k] = e.width + v
		}
	}
	return ne
}

func (e *env) resolve(ref colRef) (int, error) {
	if ref.Table != "" {
		idx, ok := e.byQualified[strings.ToLower(ref.Table)+"."+strings.ToLower(ref.Name)]
		if !ok {
			return 0, fmt.Errorf("kdb: unknown column %s", ref)
		}
		return idx, nil
	}
	idx, ok := e.byName[strings.ToLower(ref.Name)]
	if !ok {
		return 0, fmt.Errorf("kdb: unknown column %s", ref)
	}
	if idx == -2 {
		return 0, fmt.Errorf("kdb: ambiguous column %s", ref)
	}
	return idx, nil
}

// selectStats reports how a SELECT executed, for trace-span annotation.
type selectStats struct {
	// path names the source that served the statement: "system",
	// "columnar", or the row engine's plan — the base table's access path
	// ("index", "range" or "scan"), then "+index-join", "+hash-join" or
	// "+loop-join" per join step.
	path string
	// examined counts the row-store rows read to produce the result: the
	// base rows the walk read and the joined-table rows it compared, up to
	// where a LIMIT stopped it. A system table counts the rows materialized
	// for it; the columnar path reads no rows.
	examined int
	// lockWait is the time spent waiting for the read lock, in seconds;
	// only the row engine takes it.
	lockWait float64
	// fp, when set, collects the row engine's footprint of the statement.
	fp *footprintSet
	// fold is how a resumable aggregate fold began ("resumed", "stale" or
	// "cold"; empty for any other statement), and resumedAt the row its
	// walk began at: examined counts the rows from there.
	fold      string
	resumedAt int
}

func (db *DB) execSelectStats(s *selectStmt, args []any, st *selectStats) (*Rows, error) {
	base, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("kdb: no such table %q", s.Table)
	}
	e, steps, err := db.planJoins(base, s.Joins)
	if err != nil {
		return nil, err
	}
	p := base.planWalk(e, steps, s.Where, args)
	if p.fp = st.fp; p.fp != nil {
		if strings.HasPrefix(p.path, "index") {
			p.fp.probe(base, p.eqCol, p.eqVal, p.cand)
		} else {
			p.fp.whole(base)
		}
		for _, j := range steps {
			if j.strategy == "loop" {
				p.fp.whole(j.table)
			}
		}
	}
	hasAgg := false
	for _, it := range s.Items {
		hasAgg = hasAgg || it.Agg != ""
	}
	// Rows walked in ascending base position already satisfy an ORDER BY of
	// exactly the base table's primary key, ascending, on a table stored in
	// key order. With no sort to feed and nothing that needs every match,
	// the walk can stop at the page boundary.
	sorted := len(s.OrderBy) == 0
	if len(s.OrderBy) == 1 && !s.OrderBy[0].Desc {
		idx, err := e.resolve(s.OrderBy[0].Col)
		sorted = err == nil && idx == base.pkIndex && base.pkSorted()
	}
	stopAt := -1
	if sorted && s.Limit > 0 && !hasAgg && len(s.GroupBy) == 0 && !s.Distinct {
		stopAt = s.Offset + s.Limit
	}
	// The output is compiled before the walk, but an error WHERE raises
	// while walking wins over a name error in it.
	var out sink
	var gs *groupSink
	if hasAgg || len(s.GroupBy) > 0 {
		gs, err = newGroupSink(s, e)
		out = gs
	} else {
		out, err = p.newPlainSink(s, sorted)
	}
	// A join-free fold over a scan resumes where the table's kept fold of
	// this statement and these arguments ended.
	var fold foldKey
	if gs != nil && err == nil && len(steps) == 0 && p.path == "scan" {
		fold = foldKey{s, string(appendGroupKey(nil, args))}
		st.resumedAt, st.fold = base.resumeFold(fold, gs)
		p.lo = st.resumedAt
		metFolds[st.fold].Inc()
	}
	survivors := 0
	examined, werr := p.walk(func(_ int, row []any) (bool, error) {
		if err == nil {
			out.add(row)
		}
		survivors++
		return survivors == stopAt, nil
	})
	if err = cmp.Or(werr, err); err != nil {
		return nil, err
	}
	// A page that OFFSET+LIMIT stopped at a key no automatic key can reach
	// is kept across appends that name no key (DepUpto).
	if p.fp != nil && survivors == stopAt && len(steps) == 0 && !strings.HasPrefix(p.path, "index") && base.belowAutoID(p.pos) {
		p.fp.deps[0] = tableDep{kind: DepUpto, t: base}
	}
	st.path, st.examined = p.path, examined
	res := out.result()
	if fold.s != nil {
		base.keepFold(fold, gs.groups)
	}
	return res, nil
}

// belowAutoID reports whether the row at pos holds an INTEGER PRIMARY KEY no
// higher than the table's auto-increment high-water mark.
func (t *Table) belowAutoID(pos int) bool {
	if t.pkIndex < 0 {
		return false
	}
	id, ok := t.Rows[pos][t.pkIndex].(int64)
	return ok && id <= t.autoID
}

// foldMemo is what a table keeps of its aggregate folds. A join-free
// aggregating SELECT that scans the table folds rows [0, n) into its
// groups; until the table is rewritten, rows from n on are all a later
// execution of the same statement over the same arguments has left to fold.
// That execution folds a clone of the kept groups from row n: the same fold
// in the same row order, so float sums, NaN and -0, the groups' order of
// first appearance and a WHERE error in a new row all come out as a cold
// fold's. Readers share the memo under db.mu.RLock, so it has its own lock,
// and a kept fold is never folded into, only cloned.
type foldMemo struct {
	mu   sync.Mutex
	kept map[foldKey]keptFold
}

// foldKey names a fold: the parsed statement and its arguments' EncodeKey.
type foldKey struct {
	s    *selectStmt
	args string
}

// keptFold is the fold of rows [0, n) of the table at version.
type keptFold struct {
	version int64
	n       int
	groups  *Groups[[]Agg]
}

// maxFolds bounds the folds a table keeps, and maxFoldGroups the groups one
// kept fold may hold: the memo costs a handful of statements' groups
// however many distinct queries arrive.
const (
	maxFolds      = 16
	maxFoldGroups = 1024
)

// resumeFold hands g a clone of the fold kept for k when the table has only
// been appended to since, and says where the walk resumes and how the
// lookup went: "resumed", "stale" (the table was rewritten since) or
// "cold" (nothing kept).
func (t *Table) resumeFold(k foldKey, g *groupSink) (from int, outcome string) {
	t.folds.mu.Lock()
	defer t.folds.mu.Unlock()
	f, ok := t.folds.kept[k]
	switch {
	case !ok:
		return 0, "cold"
	case t.rewritten > f.version || len(t.Rows) < f.n:
		delete(t.folds.kept, k)
		return 0, "stale"
	}
	g.groups = f.groups.clone(slices.Clone[[]Agg])
	return f.n, "resumed"
}

// keepFold keeps groups, the fold of every row of the table, for k; the
// caller folds into it no more.
func (t *Table) keepFold(k foldKey, groups *Groups[[]Agg]) {
	t.folds.mu.Lock()
	defer t.folds.mu.Unlock()
	if len(groups.keys) > maxFoldGroups {
		delete(t.folds.kept, k)
		return
	}
	if _, ok := t.folds.kept[k]; !ok && len(t.folds.kept) >= maxFolds {
		for old := range t.folds.kept {
			delete(t.folds.kept, old) // any one: the memo is a cache
			break
		}
	}
	if t.folds.kept == nil {
		t.folds.kept = map[foldKey]keptFold{}
	}
	t.folds.kept[k] = keptFold{t.version, len(t.Rows), groups}
}

// sink takes the rows a SELECT's walk lets through, one at a time, and
// shapes its answer from them.
type sink interface {
	add(row []any)
	result() *Rows
}

// plainSink collects what ShapeRows needs of a plain SELECT's rows.
type plainSink struct {
	s     *selectStmt
	cols  []string
	order []OrderKey
	proj  []int
	// keep, set for a join, lists the positions of the walk's reused row
	// that a survivor keeps (order and proj then index the kept copy);
	// otherwise a survivor is its stored row.
	keep []int
	rows [][]any
}

func (p *plan) newPlainSink(s *selectStmt, sorted bool) (*plainSink, error) {
	ps := &plainSink{s: s, cols: make([]string, 0, len(s.Items)), proj: make([]int, 0, len(s.Items))}
	if !sorted {
		for _, oc := range s.OrderBy {
			idx, err := p.env.resolve(oc.Col)
			if err != nil {
				return nil, err
			}
			ps.order = append(ps.order, OrderKey{idx, oc.Desc})
		}
	}
	for _, it := range s.Items {
		if !it.Star {
			idx, err := p.env.resolve(it.Col)
			if err != nil {
				return nil, err
			}
			ps.cols, ps.proj = append(ps.cols, itemName(it)), append(ps.proj, idx)
			continue
		}
		// Every column in position order: the base table's by name, a
		// joined table's qualified.
		for i, c := range p.base.Columns {
			ps.cols, ps.proj = append(ps.cols, c.Name), append(ps.proj, i)
		}
		for _, j := range p.steps {
			for i, c := range j.table.Columns {
				ps.cols, ps.proj = append(ps.cols, strings.ToLower(j.table.Name+"."+c.Name)), append(ps.proj, j.width+i)
			}
		}
	}
	if len(p.steps) > 0 {
		ps.keep = make([]int, 0, len(ps.order)+len(ps.proj))
		for i := range ps.order {
			ps.keep = append(ps.keep, ps.order[i].Idx)
			ps.order[i].Idx = i
		}
		for i := range ps.proj {
			ps.keep = append(ps.keep, ps.proj[i])
			ps.proj[i] = len(ps.order) + i
		}
	}
	return ps, nil
}

func (ps *plainSink) add(row []any) {
	if ps.keep != nil {
		kept := make([]any, len(ps.keep))
		for i, c := range ps.keep {
			kept[i] = row[c]
		}
		row = kept
	}
	ps.rows = append(ps.rows, row)
}

func (ps *plainSink) result() *Rows {
	return &Rows{Columns: ps.cols, rows: ShapeRows(ps.rows, ps.order, ps.proj, ps.s.Distinct, ps.s.Offset, ps.s.Limit)}
}

// aggItem is one compiled output column of an aggregating SELECT: aggregate
// fn of row column src (src -1: COUNT(*)), or with fn empty, the grouping
// column at position src of the group key.
type aggItem struct {
	fn  string
	src int
}

// groupSink folds an aggregating SELECT's rows as they stream past, so it
// holds its groups, not its input. Under GROUP BY plain select items must be
// grouping columns, and the groups emit in ascending key order for
// determinism, paged by OFFSET and LIMIT. Without it every row folds into
// one group and the answer is one row, even over no input.
type groupSink struct {
	s      *selectStmt
	cols   []string
	items  []aggItem
	keyIdx []int
	key    []any
	groups *Groups[[]Agg]
}

func newGroupSink(s *selectStmt, e *env) (*groupSink, error) {
	g := &groupSink{s: s, keyIdx: make([]int, len(s.GroupBy)), key: make([]any, len(s.GroupBy))}
	for i, ref := range s.GroupBy {
		idx, err := e.resolve(ref)
		if err != nil {
			return nil, err
		}
		g.keyIdx[i] = idx
	}
	isGroupCol := func(ref colRef) (int, bool) {
		for i, g := range s.GroupBy {
			if strings.EqualFold(g.Name, ref.Name) && (ref.Table == "" || strings.EqualFold(g.Table, ref.Table)) {
				return i, true
			}
		}
		return 0, false
	}
	g.items, g.cols = make([]aggItem, len(s.Items)), make([]string, len(s.Items))
	for i, it := range s.Items {
		g.cols[i] = itemName(it)
		switch k, ok := isGroupCol(it.Col); {
		case it.Agg == "" && len(s.GroupBy) == 0:
			return nil, fmt.Errorf("kdb: mixing aggregates and plain columns requires GROUP BY (unsupported)")
		case it.Star:
			return nil, fmt.Errorf("kdb: SELECT * is not valid with GROUP BY")
		case it.Agg == "" && !ok:
			return nil, fmt.Errorf("kdb: column %s must appear in GROUP BY or an aggregate", it.Col)
		case it.Agg == "":
			g.items[i] = aggItem{src: k}
		case it.Agg == "COUNT" && it.Col.Name == "*":
			g.items[i] = aggItem{fn: it.Agg, src: -1}
		default:
			idx, err := e.resolve(it.Col)
			if err != nil {
				return nil, err
			}
			g.items[i] = aggItem{fn: it.Agg, src: idx}
		}
	}
	g.groups = NewGroups(func() []Agg { return make([]Agg, len(g.items)) })
	return g, nil
}

func (g *groupSink) add(row []any) {
	for i, idx := range g.keyIdx {
		g.key[i] = row[idx]
	}
	aggs := g.groups.Add(g.key)
	for i, it := range g.items {
		switch {
		case it.fn == "":
		case it.src < 0:
			aggs[i].AddCount(1)
		default:
			aggs[i].Add(row[it.src])
		}
	}
}

func (g *groupSink) result() *Rows {
	offset, limit := g.s.Offset, g.s.Limit
	if len(g.keyIdx) == 0 {
		g.groups.Add(nil) // the one group, opened if no row did
		offset, limit = 0, -1
	}
	return &Rows{Columns: g.cols, rows: g.groups.Page(offset, limit, func(key []any, aggs []Agg) []any {
		row := make([]any, len(g.items))
		for i, it := range g.items {
			if it.fn == "" {
				row[i] = key[it.src]
			} else {
				row[i] = aggs[i].Result(it.fn)
			}
		}
		return row
	})}
}

// matchWhere evaluates a WHERE clause (none holds for every row) or, with
// op set, the operand of a NOT, AND or OR, which must be boolean too.
func matchWhere(w expr, e *env, row []any, args []any, op string) (bool, error) {
	if w == nil {
		return true, nil
	}
	v, err := evalExpr(w, e, row, args)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	switch {
	case ok:
		return b, nil
	case op != "":
		return false, fmt.Errorf("kdb: %s of non-boolean", op)
	}
	return false, fmt.Errorf("kdb: WHERE clause is not boolean")
}

func evalExpr(ex expr, e *env, row []any, args []any) (any, error) {
	switch x := ex.(type) {
	case litExpr, phExpr:
		return evalValue(ex, args)
	case colExpr:
		idx, err := e.resolve(x.Ref)
		if err != nil {
			return nil, err
		}
		return row[idx], nil
	case notExpr:
		b, err := matchWhere(x.E, e, row, args, "NOT")
		return !b, err
	case binExpr:
		if x.Op == "AND" || x.Op == "OR" {
			// AND stops at false, OR at true.
			b, err := matchWhere(x.L, e, row, args, x.Op)
			if err == nil && b != (x.Op == "OR") {
				b, err = matchWhere(x.R, e, row, args, x.Op)
			}
			return b, err
		}
		lv, err := evalExpr(x.L, e, row, args)
		if err != nil {
			return nil, err
		}
		rv, err := evalExpr(x.R, e, row, args)
		if err != nil {
			return nil, err
		}
		return applyComparison(x.Op, lv, rv)
	}
	return nil, fmt.Errorf("kdb: unsupported expression")
}

func evalValue(ex expr, args []any) (any, error) {
	switch x := ex.(type) {
	case litExpr:
		return x.Val, nil
	case phExpr:
		if x.Index >= len(args) {
			return nil, fmt.Errorf("kdb: placeholder %d out of range (%d args)", x.Index+1, len(args))
		}
		return normalizeArg(args[x.Index])
	}
	return nil, fmt.Errorf("kdb: expected a literal or placeholder value")
}

func applyComparison(op string, l, r any) (any, error) {
	if op == "LIKE" {
		if l == nil || r == nil {
			return false, nil // the NULL rule below: no match
		}
		ls, lok := l.(string)
		rs, rok := r.(string)
		if !lok || !rok {
			return nil, fmt.Errorf("kdb: LIKE requires text operands")
		}
		return likeMatch(ls, rs), nil
	}
	if l == nil || r == nil {
		// SQL three-valued logic simplified: comparisons with NULL are
		// false except equality of two NULLs.
		if op == "=" {
			return l == nil && r == nil, nil
		}
		if op == "!=" {
			return (l == nil) != (r == nil), nil
		}
		return false, nil
	}
	c, err := compareValues(l, r)
	if err != nil {
		return nil, err
	}
	switch op {
	case "=":
		return c == 0, nil
	case "!=":
		return c != 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	}
	return nil, fmt.Errorf("kdb: unknown operator %q", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one char),
// case-insensitively as SQLite does for ASCII. It uses the iterative
// two-pointer algorithm — on mismatch, retry from one past the last '%' —
// which is O(len(s)·len(pattern)) worst case, so hostile patterns like
// %a%a%a%b cannot pin a CPU the way the naive recursion could.
func likeMatch(s, pattern string) bool {
	s = strings.ToLower(s)
	p := strings.ToLower(pattern)
	si, pi := 0, 0
	starPi, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starPi, starSi = pi, si
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

func compareEq(l, r any) (bool, error) {
	v, err := applyComparison("=", l, r)
	if err != nil {
		return false, err
	}
	return v.(bool), nil
}

// compareValues orders two non-nil values: numerics numerically, text
// lexicographically. Mixing text and numerics is an error.
func compareValues(l, r any) (int, error) {
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		switch {
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		}
		return 0, nil
	}
	ls, lok2 := l.(string)
	rs, rok2 := r.(string)
	if lok2 && rok2 {
		return strings.Compare(ls, rs), nil
	}
	return 0, fmt.Errorf("kdb: cannot compare %T with %T", l, r)
}

// compareOrder orders values for ORDER BY, placing NULLs first.
func compareOrder(l, r any) int {
	if l == nil && r == nil {
		return 0
	}
	if l == nil {
		return -1
	}
	if r == nil {
		return 1
	}
	c, err := compareValues(l, r)
	if err != nil {
		// Mixed types order by type name to stay deterministic.
		return strings.Compare(fmt.Sprintf("%T", l), fmt.Sprintf("%T", r))
	}
	return c
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// normalizeArg converts caller-supplied Go values into the engine's value
// set (int64, float64, string, bool, nil). A Ref is the id it names, so by
// the time a statement is staged or logged its references are plain integers.
func normalizeArg(v any) (any, error) {
	switch x := v.(type) {
	case nil, int64, float64, string:
		return v, nil // already one of the engine's values: hand back the same box, not a new one
	case int:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case uint:
		if uint64(x) > math.MaxInt64 {
			return nil, fmt.Errorf("kdb: uint value %d overflows int64", x)
		}
		return int64(x), nil
	case uint64:
		if x > math.MaxInt64 {
			return nil, fmt.Errorf("kdb: uint64 value %d overflows int64", x)
		}
		return int64(x), nil
	case float32:
		return float64(x), nil
	case bool:
		if x {
			return int64(1), nil
		}
		return int64(0), nil
	case Ref:
		return x.value()
	}
	return nil, fmt.Errorf("kdb: unsupported argument type %T", v)
}

// coerce converts a value to the declared column type.
func coerce(v any, t ColType) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TInteger:
		switch x := v.(type) {
		case int64:
			return v, nil
		case float64:
			if x == float64(int64(x)) {
				return int64(x), nil
			}
			return nil, fmt.Errorf("value %v is not an integer", x)
		}
		return nil, fmt.Errorf("cannot store %T in INTEGER column", v)
	case TReal:
		if _, ok := v.(float64); ok {
			return v, nil
		}
		if f, ok := toFloat(v); ok {
			return f, nil
		}
		return nil, fmt.Errorf("cannot store %T in REAL column", v)
	default:
		if _, ok := v.(string); ok {
			return v, nil
		}
		return nil, fmt.Errorf("cannot store %T in TEXT column", v)
	}
}
