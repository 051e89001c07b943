// Package schema implements the persistence phase: the paper's relational
// schema (tables performances, summaries, results, filesystems, and the
// IO500 family IOFHsRuns, IOFHsScores, IOFHsTestcases, IOFHsOptions,
// IOFHsResults, plus systeminfos) on top of the kdb engine, and a Store
// with save/load/list/query operations for knowledge objects.
//
// Relationships follow the paper exactly: a summary belongs to a knowledge
// object via performance_id, a result belongs to a summary via
// summaries_id, file system info extends a knowledge object, and IO500
// artifacts hang off IOFH_id.
package schema

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/kdb"
	"repro/internal/knowledge"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// ErrNotFound wraps kdb.ErrNoRows for lookups of absent knowledge ids, so
// callers (the explorer's 404 path) can distinguish "no such object" from
// a transport or query failure.
var ErrNotFound = errors.New("schema: not found")

// Store wraps a kdb connection (local database file, in-memory database,
// or remote kdb:// server) with the knowledge-cycle schema.
type Store struct {
	DB kdb.Conn
}

// ddl is the schema exactly as the paper lays it out (§V-C).
var ddl = []string{
	`CREATE TABLE IF NOT EXISTS performances (
		id INTEGER PRIMARY KEY,
		source TEXT,
		command TEXT,
		api TEXT,
		test_file TEXT,
		file_per_proc INTEGER,
		tasks INTEGER,
		pattern_json TEXT,
		began TEXT,
		finished TEXT
	)`,
	`CREATE TABLE IF NOT EXISTS summaries (
		id INTEGER PRIMARY KEY,
		performance_id INTEGER,
		operation TEXT,
		api TEXT,
		max_mib REAL,
		min_mib REAL,
		mean_mib REAL,
		stddev_mib REAL,
		max_ops REAL,
		min_ops REAL,
		mean_ops REAL,
		stddev_ops REAL,
		mean_sec REAL,
		iterations INTEGER
	)`,
	`CREATE TABLE IF NOT EXISTS results (
		id INTEGER PRIMARY KEY,
		summaries_id INTEGER,
		iteration INTEGER,
		bw_mib REAL,
		ops REAL,
		latency_sec REAL,
		open_sec REAL,
		wrrd_sec REAL,
		close_sec REAL,
		total_sec REAL
	)`,
	`CREATE TABLE IF NOT EXISTS filesystems (
		id INTEGER PRIMARY KEY,
		performance_id INTEGER,
		fstype TEXT,
		entry_type TEXT,
		entry_id TEXT,
		metadata_node TEXT,
		stripe_pattern TEXT,
		chunk_size INTEGER,
		num_targets INTEGER,
		raid_scheme TEXT,
		storage_pool TEXT
	)`,
	`CREATE TABLE IF NOT EXISTS systeminfos (
		id INTEGER PRIMARY KEY,
		performance_id INTEGER,
		iofh_id INTEGER,
		hostname TEXT,
		architecture TEXT,
		cpu_model TEXT,
		cores INTEGER,
		cpu_mhz REAL,
		cache_kb INTEGER,
		mem_total_kb INTEGER,
		mem_free_kb INTEGER
	)`,
	`CREATE TABLE IF NOT EXISTS IOFHsRuns (
		id INTEGER PRIMARY KEY,
		command TEXT,
		began TEXT,
		finished TEXT
	)`,
	`CREATE TABLE IF NOT EXISTS IOFHsScores (
		id INTEGER PRIMARY KEY,
		IOFH_id INTEGER,
		bw_gib REAL,
		md_kiops REAL,
		total REAL
	)`,
	`CREATE TABLE IF NOT EXISTS IOFHsTestcases (
		id INTEGER PRIMARY KEY,
		IOFH_id INTEGER,
		name TEXT
	)`,
	`CREATE TABLE IF NOT EXISTS IOFHsOptions (
		id INTEGER PRIMARY KEY,
		IOFH_id INTEGER,
		testcase_id INTEGER,
		optkey TEXT,
		optvalue TEXT
	)`,
	`CREATE TABLE IF NOT EXISTS IOFHsResults (
		id INTEGER PRIMARY KEY,
		testcase_id INTEGER,
		value REAL,
		unit TEXT,
		seconds REAL
	)`,
	// Campaign-level metadata for the parallel scheduler: one campaigns row
	// per sweep, one campaign_runs row per executed unit, so the explorer
	// can show campaign progress and analyses can slice knowledge by
	// campaign. 64-bit seeds are stored as decimal TEXT (they can exceed
	// the signed INTEGER range).
	`CREATE TABLE IF NOT EXISTS campaigns (
		id INTEGER PRIMARY KEY,
		name TEXT,
		base_seed TEXT,
		workers INTEGER,
		units INTEGER,
		began TEXT,
		finished TEXT,
		wall_ms INTEGER,
		status TEXT
	)`,
	`CREATE TABLE IF NOT EXISTS campaign_runs (
		id INTEGER PRIMARY KEY,
		campaign_id INTEGER,
		unit INTEGER,
		name TEXT,
		seed TEXT,
		status TEXT,
		attempts INTEGER,
		wall_ms INTEGER,
		error TEXT,
		object_ids TEXT,
		io500_ids TEXT
	)`,
	// Secondary hash indexes on the foreign keys every load/list/compare
	// query filters or joins on; without these each LoadObject is a chain
	// of full scans.
	`CREATE INDEX IF NOT EXISTS idx_summaries_performance ON summaries (performance_id)`,
	`CREATE INDEX IF NOT EXISTS idx_results_summary ON results (summaries_id)`,
	`CREATE INDEX IF NOT EXISTS idx_filesystems_performance ON filesystems (performance_id)`,
	`CREATE INDEX IF NOT EXISTS idx_systeminfos_performance ON systeminfos (performance_id)`,
	`CREATE INDEX IF NOT EXISTS idx_systeminfos_iofh ON systeminfos (iofh_id)`,
	`CREATE INDEX IF NOT EXISTS idx_scores_iofh ON IOFHsScores (IOFH_id)`,
	`CREATE INDEX IF NOT EXISTS idx_testcases_iofh ON IOFHsTestcases (IOFH_id)`,
	`CREATE INDEX IF NOT EXISTS idx_ioresults_testcase ON IOFHsResults (testcase_id)`,
	`CREATE INDEX IF NOT EXISTS idx_options_iofh ON IOFHsOptions (IOFH_id)`,
	`CREATE INDEX IF NOT EXISTS idx_campaign_runs_campaign ON campaign_runs (campaign_id)`,
}

// Open opens (or creates) a knowledge store — the one place a URL plus a
// replica list becomes a store. An empty url keeps everything in memory; a
// plain path appends to a local database file; a "kdb://host:port" URL
// connects to a remote knowledge database — the paper's local/remote
// persistence split (§IV, §V-C). Replica addresses, when given, put a
// read-your-writes router in front of that primary (repl.Dial). A
// "shard://host:port" URL points at a shard coordinator: the partition map
// is fetched from that address and the store operates over the coordinator
// shard.Dial assembles from it; its replicas come from the map, so passing
// any here is an error.
func Open(url string, replicas ...string) (*Store, error) {
	var db kdb.Conn
	var err error
	if addr, ok := strings.CutPrefix(url, "shard://"); ok {
		if len(replicas) > 0 {
			return nil, fmt.Errorf("schema: a shard:// store takes its replicas from the shard map, not from a replica list")
		}
		db, err = openSharded(addr)
	} else {
		db, err = repl.Dial(url, replicas...)
	}
	if err != nil {
		return nil, err
	}
	return Wrap(db)
}

// Shard-map discovery policy: a hung or flaky coordinator must not hang
// Open forever, so discovery is bounded and retried once. The knobs are
// package variables so tests can shrink them.
var (
	shardMapTimeout  = 5 * time.Second
	shardMapAttempts = 2
	fetchShardMap    = shard.FetchMap
)

// fetchMapBounded runs shard-map discovery with a per-attempt timeout and
// one retry. A timed-out attempt's goroutine is abandoned (the underlying
// dial has no cancellation), which is safe: it only ever touches its own
// connection.
func fetchMapBounded(addr string) (*shard.Map, error) {
	type result struct {
		m   *shard.Map
		err error
	}
	var lastErr error
	for attempt := 0; attempt < shardMapAttempts; attempt++ {
		ch := make(chan result, 1)
		go func() {
			m, err := fetchShardMap(addr)
			ch <- result{m, err}
		}()
		select {
		case res := <-ch:
			if res.err == nil {
				return res.m, nil
			}
			lastErr = res.err
		case <-time.After(shardMapTimeout):
			lastErr = fmt.Errorf("timed out after %v", shardMapTimeout)
		}
	}
	return nil, fmt.Errorf("schema: discover shard map (%d attempts): %w", shardMapAttempts, lastErr)
}

// openSharded assembles a client-side coordinator from a coordinator
// address: bounded shard-map discovery, then shard.Dial.
func openSharded(addr string) (kdb.Conn, error) {
	m, err := fetchMapBounded("kdb://" + addr)
	if err != nil {
		return nil, err
	}
	coord, err := shard.Dial(m)
	if err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	return coord, nil
}

// Wrap builds a Store over an existing connection, creating any missing
// tables. It lets callers that already manage the connection's lifecycle
// — a replicated primary behind a read router, a database also served
// over the wire — reuse the schema layer. A connection that identifies
// itself as a read-only replica gets no DDL: its tables arrive by
// replication from the primary, and the replica would reject the writes
// anyway. On DDL failure the connection is closed.
func Wrap(db kdb.Conn) (*Store, error) {
	s := &Store{DB: db}
	if st, ok := db.(interface {
		Status() (kdb.NodeStatus, error)
	}); ok {
		if ns, err := st.Status(); err == nil && ns.Role == "replica" {
			return s, nil
		}
	}
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt); err != nil {
			db.Close()
			return nil, fmt.Errorf("schema: create tables: %w", err)
		}
	}
	return s, nil
}

// Close closes the underlying database.
func (s *Store) Close() error { return s.DB.Close() }

// Status is the store's health as /healthz serves it: the read router's
// view (primary position, per-replica lag) when the connection has one, a
// standalone primary at the connection's LSN otherwise, plus the shard-map
// epoch when the connection fronts a partition map. Capabilities are found
// through method sets, so a wrapper embedding a router or coordinator
// reports as what it wraps.
func (s *Store) Status() repl.Status {
	var st repl.Status
	if h, ok := s.DB.(interface{ Health() repl.Status }); ok {
		st = h.Health()
	} else {
		st = repl.Status{Role: "primary", AppliedLSN: s.DB.LSN()}
	}
	if m, ok := s.DB.(interface{ ShardMap() (int64, []byte) }); ok {
		st.Epoch, _ = m.ShardMap()
	}
	return st
}

const timeLayout = time.RFC3339

// SaveObject persists a benchmark knowledge object across performances,
// summaries, results, filesystems, and systeminfos, returning the new
// knowledge id. It is SaveObjects of one: all of its rows or none.
func (s *Store) SaveObject(o *knowledge.Object) (int64, error) {
	ids, err := s.SaveObjects([]*knowledge.Object{o})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// SaveObjects persists several knowledge objects as one unit of work
// (kdb.Batch): on a local database all inserts apply under a single lock
// with a single log flush, on a remote kdb:// store they travel as one
// request, and either way a failure leaves none of them behind. IDs are
// returned in input order.
func (s *Store) SaveObjects(objs []*knowledge.Object) ([]int64, error) {
	return saveAll(objs, s.saveObject, func(fn batchFn) error { return kdb.Batch(s.DB, fn) })
}

// SaveObjectsKeyed persists the batch pinned to a placement key: on a
// connection that routes batches by key (a sharded coordinator), every
// save sharing a key lands on the same shard, keeping a run's object
// graphs and its campaign bookkeeping colocated. Connections without
// keyed batching behave as SaveObjects (kdb.BatchKeyed).
func (s *Store) SaveObjectsKeyed(key uint64, objs []*knowledge.Object) ([]int64, error) {
	return saveAll(objs, s.saveObject, func(fn batchFn) error { return kdb.BatchKeyed(s.DB, key, fn) })
}

// batchFn is the body of a batch: the statements to apply through exec.
type batchFn = func(exec kdb.ExecFunc) error

// saveAll saves every object inside one batch and returns their ids in
// input order — or none if the batch failed. Inside the batch an id is a
// kdb.Ref (over the wire nobody knows it yet); once the batch has returned,
// every Ref can say its id.
func saveAll[T any](objs []T, save func(kdb.ExecFunc, T) (kdb.Ref, error), batch func(batchFn) error) ([]int64, error) {
	refs := make([]kdb.Ref, 0, len(objs))
	err := batch(func(exec kdb.ExecFunc) error {
		for _, o := range objs {
			ref, err := save(exec, o)
			if err != nil {
				return err
			}
			refs = append(refs, ref)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(refs))
	for i, ref := range refs {
		ids[i] = ref.ID()
	}
	return ids, nil
}

// saveObject and saveIO500 are the bodies saveAll batches. They thread each
// parent row's id into its children as a kdb.Ref, never as a number: the
// same code then runs inside an embedded database's write step, as a
// recorded wire batch whose ids only the server will know, and statement by
// statement on a connection that cannot batch.
func (s *Store) saveObject(exec kdb.ExecFunc, o *knowledge.Object) (kdb.Ref, error) {
	if err := o.Validate(); err != nil {
		return kdb.Ref{}, err
	}
	patternJSON, err := json.Marshal(o.Pattern)
	if err != nil {
		return kdb.Ref{}, fmt.Errorf("schema: encode pattern: %w", err)
	}
	fpp := 0
	if o.Pattern["filePerProc"] == "true" || o.Pattern["access"] == "file-per-process" {
		fpp = 1
	}
	tasks := 0
	fmt.Sscanf(o.Pattern["tasks"], "%d", &tasks)
	res, err := exec(
		`INSERT INTO performances (source, command, api, test_file, file_per_proc, tasks, pattern_json, began, finished)
		 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		string(o.Source), o.Command, o.Pattern["api"], o.Pattern["testFile"],
		fpp, tasks, string(patternJSON),
		o.Began.UTC().Format(timeLayout), o.Finished.UTC().Format(timeLayout))
	if err != nil {
		return kdb.Ref{}, err
	}
	perf := res.Ref()
	var perfID any = perf // boxed once for the statements that take it

	// Summaries, and results keyed to the matching summary.
	sumIDs := map[string]any{}
	for _, sm := range o.Summaries {
		r, err := exec(
			`INSERT INTO summaries (performance_id, operation, api, max_mib, min_mib, mean_mib, stddev_mib,
				max_ops, min_ops, mean_ops, stddev_ops, mean_sec, iterations)
			 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			perfID, sm.Operation, sm.API, sm.MaxMiBps, sm.MinMiBps, sm.MeanMiBps, sm.StdDevMiB,
			sm.MaxOps, sm.MinOps, sm.MeanOps, sm.StdDevOps, sm.MeanSec, sm.Iterations)
		if err != nil {
			return kdb.Ref{}, err
		}
		sumIDs[sm.Operation] = r.Ref()
	}
	for _, rr := range o.Results {
		sid, ok := sumIDs[rr.Operation]
		if !ok {
			return kdb.Ref{}, fmt.Errorf("schema: result operation %q has no summary", rr.Operation)
		}
		if _, err := exec(
			`INSERT INTO results (summaries_id, iteration, bw_mib, ops, latency_sec, open_sec, wrrd_sec, close_sec, total_sec)
			 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			sid, rr.Iteration, rr.BwMiBps, rr.OpsPerSec, rr.LatencySec, rr.OpenSec, rr.WrRdSec, rr.CloseSec, rr.TotalSec); err != nil {
			return kdb.Ref{}, err
		}
	}
	if fs := o.FileSystem; fs != nil {
		if _, err := exec(
			`INSERT INTO filesystems (performance_id, fstype, entry_type, entry_id, metadata_node, stripe_pattern, chunk_size, num_targets, raid_scheme, storage_pool)
			 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			perfID, fs.Type, fs.EntryType, fs.EntryID, fs.MetadataNode, fs.Pattern, fs.ChunkSize, fs.NumTargets, fs.RAIDScheme, fs.StoragePool); err != nil {
			return kdb.Ref{}, err
		}
	}
	if sys := o.System; sys != nil {
		if err := s.saveSystem(exec, sys, perfID, int64(0)); err != nil {
			return kdb.Ref{}, err
		}
	}
	return perf, nil
}

// saveSystem hangs a systeminfos row off a knowledge object or an IO500 run:
// the owner's id (a kdb.Ref) in its column, 0 in the other.
func (s *Store) saveSystem(exec kdb.ExecFunc, sys *knowledge.SystemInfo, perfID, iofhID any) error {
	_, err := exec(
		`INSERT INTO systeminfos (performance_id, iofh_id, hostname, architecture, cpu_model, cores, cpu_mhz, cache_kb, mem_total_kb, mem_free_kb)
		 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		perfID, iofhID, sys.Hostname, sys.Architecture, sys.CPUModel, sys.Cores, sys.CPUMHz, sys.CacheKB, sys.MemTotalKB, sys.MemFreeKB)
	return err
}

// LoadObject reconstructs a knowledge object by id. Its five statements are
// one read step: one round trip, answered by one node.
func (s *Store) LoadObject(id int64) (*knowledge.Object, error) {
	step, err := s.DB.QueryBatch(telemetry.TraceContext{}, []kdb.Stmt{
		{SQL: "SELECT source, command, api, pattern_json, began, finished FROM performances WHERE id = ?", Args: []any{id}},
		{SQL: `SELECT id, operation, api, max_mib, min_mib, mean_mib, stddev_mib, max_ops, min_ops, mean_ops, stddev_ops, mean_sec, iterations
		 FROM summaries WHERE performance_id = ? ORDER BY id`, Args: []any{id}},
		{SQL: `SELECT summaries.operation, results.iteration, results.bw_mib, results.ops, results.latency_sec,
			results.open_sec, results.wrrd_sec, results.close_sec, results.total_sec
		 FROM summaries JOIN results ON summaries.id = results.summaries_id
		 WHERE summaries.performance_id = ? ORDER BY summaries.id, results.iteration`, Args: []any{id}},
		{SQL: `SELECT fstype, entry_type, entry_id, metadata_node, stripe_pattern, chunk_size, num_targets, raid_scheme, storage_pool
		 FROM filesystems WHERE performance_id = ?`, Args: []any{id}},
		{SQL: `SELECT hostname, architecture, cpu_model, cores, cpu_mhz, cache_kb, mem_total_kb, mem_free_kb
		 FROM systeminfos WHERE performance_id = ?`, Args: []any{id}},
	})
	if err != nil {
		return nil, fmt.Errorf("schema: load knowledge object %d: %w", id, err)
	}
	perf, sums, res, fsRows, sysRows := step[0], step[1], step[2], step[3], step[4]
	if !perf.Next() {
		return nil, fmt.Errorf("%w: knowledge object %d", ErrNotFound, id)
	}
	row := perf.Row()
	o := &knowledge.Object{
		ID:      id,
		Source:  knowledge.Source(asString(row[0])),
		Command: asString(row[1]),
	}
	if err := json.Unmarshal([]byte(asString(row[3])), &o.Pattern); err != nil {
		return nil, fmt.Errorf("schema: decode pattern: %w", err)
	}
	o.Began, _ = time.Parse(timeLayout, asString(row[4]))
	o.Finished, _ = time.Parse(timeLayout, asString(row[5]))
	for sums.Next() {
		r := sums.Row()
		o.Summaries = append(o.Summaries, knowledge.Summary{
			Operation: asString(r[1]), API: asString(r[2]),
			MaxMiBps: asFloat(r[3]), MinMiBps: asFloat(r[4]), MeanMiBps: asFloat(r[5]), StdDevMiB: asFloat(r[6]),
			MaxOps: asFloat(r[7]), MinOps: asFloat(r[8]), MeanOps: asFloat(r[9]), StdDevOps: asFloat(r[10]),
			MeanSec: asFloat(r[11]), Iterations: int(asInt(r[12])),
		})
	}
	for res.Next() {
		rr := res.Row()
		o.Results = append(o.Results, knowledge.Result{
			Operation: asString(rr[0]), Iteration: int(asInt(rr[1])),
			BwMiBps: asFloat(rr[2]), OpsPerSec: asFloat(rr[3]), LatencySec: asFloat(rr[4]),
			OpenSec: asFloat(rr[5]), WrRdSec: asFloat(rr[6]), CloseSec: asFloat(rr[7]), TotalSec: asFloat(rr[8]),
		})
	}
	// The file-system and system sections are optional: an empty result
	// leaves them nil.
	if fsRows.Next() {
		r := fsRows.Row()
		o.FileSystem = &knowledge.FileSystemInfo{
			Type: asString(r[0]), EntryType: asString(r[1]), EntryID: asString(r[2]),
			MetadataNode: asString(r[3]), Pattern: asString(r[4]), ChunkSize: asInt(r[5]),
			NumTargets: int(asInt(r[6])), RAIDScheme: asString(r[7]), StoragePool: asString(r[8]),
		}
	}
	if sysRows.Next() {
		o.System = scanSystem(sysRows.Row())
	}
	return o, nil
}

func scanSystem(r []any) *knowledge.SystemInfo {
	return &knowledge.SystemInfo{
		Hostname: asString(r[0]), Architecture: asString(r[1]), CPUModel: asString(r[2]),
		Cores: int(asInt(r[3])), CPUMHz: asFloat(r[4]), CacheKB: int(asInt(r[5])),
		MemTotalKB: asInt(r[6]), MemFreeKB: asInt(r[7]),
	}
}

// Meta is a knowledge object listing entry.
type Meta struct {
	ID      int64
	Source  string
	Command string
	Began   time.Time
}

// ListObjects lists stored benchmark knowledge objects, newest first.
func (s *Store) ListObjects() ([]Meta, error) {
	rows, err := s.DB.Query("SELECT id, source, command, began FROM performances ORDER BY id DESC")
	if err != nil {
		return nil, err
	}
	var out []Meta
	for rows.Next() {
		r := rows.Row()
		began, _ := time.Parse(timeLayout, asString(r[3]))
		out = append(out, Meta{ID: asInt(r[0]), Source: asString(r[1]), Command: asString(r[2]), Began: began})
	}
	return out, nil
}

// ListObjectsPage returns up to limit knowledge-object rows with id >
// afterID in ascending id order — one keyset-paginated page. Pass afterID 0
// for the first page; a short (or empty) result means the scan is done.
func (s *Store) ListObjectsPage(afterID int64, limit int) ([]Meta, error) {
	rows, err := s.DB.Query(fmt.Sprintf(
		"SELECT id, source, command, began FROM performances WHERE id > ? ORDER BY id LIMIT %d", limit), afterID)
	if err != nil {
		return nil, err
	}
	var out []Meta
	for rows.Next() {
		r := rows.Row()
		began, _ := time.Parse(timeLayout, asString(r[3]))
		out = append(out, Meta{ID: asInt(r[0]), Source: asString(r[1]), Command: asString(r[2]), Began: began})
	}
	return out, nil
}

// SaveIO500 persists an IO500 knowledge object across the IOFHs* tables,
// as SaveIO500s of one.
func (s *Store) SaveIO500(o *knowledge.IO500Object) (int64, error) {
	ids, err := s.SaveIO500s([]*knowledge.IO500Object{o})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// SaveIO500s persists several IO500 knowledge objects in one
// transaction-sized batch (see SaveObjects for the batching contract).
func (s *Store) SaveIO500s(objs []*knowledge.IO500Object) ([]int64, error) {
	return saveAll(objs, s.saveIO500, func(fn batchFn) error { return kdb.Batch(s.DB, fn) })
}

// SaveIO500sKeyed is SaveIO500s pinned to a placement key (see
// SaveObjectsKeyed for the routing contract).
func (s *Store) SaveIO500sKeyed(key uint64, objs []*knowledge.IO500Object) ([]int64, error) {
	return saveAll(objs, s.saveIO500, func(fn batchFn) error { return kdb.BatchKeyed(s.DB, key, fn) })
}

func (s *Store) saveIO500(exec kdb.ExecFunc, o *knowledge.IO500Object) (kdb.Ref, error) {
	if err := o.Validate(); err != nil {
		return kdb.Ref{}, err
	}
	res, err := exec(
		"INSERT INTO IOFHsRuns (command, began, finished) VALUES (?, ?, ?)",
		o.Command, o.Began.UTC().Format(timeLayout), o.Finished.UTC().Format(timeLayout))
	if err != nil {
		return kdb.Ref{}, err
	}
	run := res.Ref()
	var runID any = run
	if _, err := exec(
		"INSERT INTO IOFHsScores (IOFH_id, bw_gib, md_kiops, total) VALUES (?, ?, ?, ?)",
		runID, o.ScoreBW, o.ScoreMD, o.ScoreTotal); err != nil {
		return kdb.Ref{}, err
	}
	for _, tc := range o.TestCases {
		r, err := exec("INSERT INTO IOFHsTestcases (IOFH_id, name) VALUES (?, ?)", runID, tc.Name)
		if err != nil {
			return kdb.Ref{}, err
		}
		if _, err := exec(
			"INSERT INTO IOFHsResults (testcase_id, value, unit, seconds) VALUES (?, ?, ?, ?)",
			r.Ref(), tc.Value, tc.Unit, tc.Seconds); err != nil {
			return kdb.Ref{}, err
		}
	}
	// Options insert in sorted key order so a saved database is
	// byte-identical across runs (map iteration order is random).
	optKeys := make([]string, 0, len(o.Options))
	for k := range o.Options {
		optKeys = append(optKeys, k)
	}
	sort.Strings(optKeys)
	for _, k := range optKeys {
		if _, err := exec(
			"INSERT INTO IOFHsOptions (IOFH_id, testcase_id, optkey, optvalue) VALUES (?, NULL, ?, ?)",
			runID, k, o.Options[k]); err != nil {
			return kdb.Ref{}, err
		}
	}
	if o.System != nil {
		if err := s.saveSystem(exec, o.System, int64(0), runID); err != nil {
			return kdb.Ref{}, err
		}
	}
	return run, nil
}

// LoadIO500 reconstructs an IO500 knowledge object by run id, in one read
// step (see LoadObject).
func (s *Store) LoadIO500(id int64) (*knowledge.IO500Object, error) {
	step, err := s.DB.QueryBatch(telemetry.TraceContext{}, []kdb.Stmt{
		{SQL: "SELECT command, began, finished FROM IOFHsRuns WHERE id = ?", Args: []any{id}},
		{SQL: "SELECT bw_gib, md_kiops, total FROM IOFHsScores WHERE IOFH_id = ?", Args: []any{id}},
		{SQL: `SELECT IOFHsTestcases.name, IOFHsResults.value, IOFHsResults.unit, IOFHsResults.seconds
		 FROM IOFHsTestcases JOIN IOFHsResults ON IOFHsTestcases.id = IOFHsResults.testcase_id
		 WHERE IOFHsTestcases.IOFH_id = ? ORDER BY IOFHsTestcases.id`, Args: []any{id}},
		{SQL: "SELECT optkey, optvalue FROM IOFHsOptions WHERE IOFH_id = ?", Args: []any{id}},
		{SQL: `SELECT hostname, architecture, cpu_model, cores, cpu_mhz, cache_kb, mem_total_kb, mem_free_kb
		 FROM systeminfos WHERE iofh_id = ?`, Args: []any{id}},
	})
	if err != nil {
		return nil, fmt.Errorf("schema: load io500 run %d: %w", id, err)
	}
	run, scores, tcs, opts, sysRows := step[0], step[1], step[2], step[3], step[4]
	if !run.Next() {
		return nil, fmt.Errorf("%w: io500 run %d", ErrNotFound, id)
	}
	row := run.Row()
	o := &knowledge.IO500Object{ID: id, Command: asString(row[0]), Options: map[string]string{}}
	o.Began, _ = time.Parse(timeLayout, asString(row[1]))
	o.Finished, _ = time.Parse(timeLayout, asString(row[2]))
	// Scores and the system section are optional: no row leaves them zero.
	if scores.Next() {
		sr := scores.Row()
		o.ScoreBW, o.ScoreMD, o.ScoreTotal = asFloat(sr[0]), asFloat(sr[1]), asFloat(sr[2])
	}
	for tcs.Next() {
		r := tcs.Row()
		o.TestCases = append(o.TestCases, knowledge.TestCase{
			Name: asString(r[0]), Value: asFloat(r[1]), Unit: asString(r[2]), Seconds: asFloat(r[3]),
		})
	}
	for opts.Next() {
		r := opts.Row()
		o.Options[asString(r[0])] = asString(r[1])
	}
	if sysRows.Next() {
		o.System = scanSystem(sysRows.Row())
	}
	return o, nil
}

// ListIO500 lists stored IO500 runs, newest first.
func (s *Store) ListIO500() ([]Meta, error) {
	rows, err := s.DB.Query("SELECT id, command, began FROM IOFHsRuns ORDER BY id DESC")
	if err != nil {
		return nil, err
	}
	var out []Meta
	for rows.Next() {
		r := rows.Row()
		began, _ := time.Parse(timeLayout, asString(r[2]))
		out = append(out, Meta{ID: asInt(r[0]), Source: "io500", Command: asString(r[1]), Began: began})
	}
	return out, nil
}

// ListIO500Page returns one keyset-paginated page of IO500 runs; see
// ListObjectsPage for the paging contract.
func (s *Store) ListIO500Page(afterID int64, limit int) ([]Meta, error) {
	rows, err := s.DB.Query(fmt.Sprintf(
		"SELECT id, command, began FROM IOFHsRuns WHERE id > ? ORDER BY id LIMIT %d", limit), afterID)
	if err != nil {
		return nil, err
	}
	var out []Meta
	for rows.Next() {
		r := rows.Row()
		began, _ := time.Parse(timeLayout, asString(r[2]))
		out = append(out, Meta{ID: asInt(r[0]), Source: "io500", Command: asString(r[1]), Began: began})
	}
	return out, nil
}

// MeanBandwidth returns the stored mean bandwidth of one operation of one
// knowledge object — the kind of point query the explorer's comparison
// view issues.
func (s *Store) MeanBandwidth(perfID int64, op string) (float64, error) {
	row, err := s.DB.QueryRow(
		"SELECT mean_mib FROM summaries WHERE performance_id = ? AND operation = ?", perfID, op)
	if errors.Is(err, kdb.ErrNoRows) {
		return 0, fmt.Errorf("%w: no %s summary for knowledge %d", ErrNotFound, op, perfID)
	}
	if err != nil {
		return 0, err
	}
	return asFloat(row[0]), nil
}

// PatternMean is one knowledge object's access pattern with the mean
// bandwidth of its summary of one operation.
type PatternMean struct {
	ID        int64
	Pattern   map[string]string
	MeanMiBps float64
}

// PatternMeans reads, in one join, every knowledge object that has a
// summary of op, with its pattern and that summary's mean bandwidth — the
// explorer's heat map. An object with several summaries of op contributes
// its first by summaries.id, the one Object.SummaryFor picks.
func (s *Store) PatternMeans(op string) ([]PatternMean, error) {
	rows, err := s.DB.Query(
		`SELECT performances.id, performances.pattern_json, summaries.mean_mib
		 FROM summaries JOIN performances ON summaries.performance_id = performances.id
		 WHERE summaries.operation = ? ORDER BY summaries.id`, op)
	if err != nil {
		return nil, err
	}
	seen := map[int64]bool{}
	var out []PatternMean
	for rows.Next() {
		r := rows.Row()
		id := asInt(r[0])
		if seen[id] {
			continue
		}
		seen[id] = true
		pm := PatternMean{ID: id, MeanMiBps: asFloat(r[2])}
		if err := json.Unmarshal([]byte(asString(r[1])), &pm.Pattern); err != nil {
			return nil, fmt.Errorf("schema: decode pattern of knowledge object %d: %w", id, err)
		}
		out = append(out, pm)
	}
	return out, nil
}

// OpAverage is one row of the per-operation aggregate view.
type OpAverage struct {
	Operation string
	Runs      int64
	MeanMiBps float64
	MaxMiBps  float64
	MinMiBps  float64
}

// OperationAverages aggregates all stored summaries per operation — the
// population view the explorer's comparison and the prediction training
// set start from. It runs as a single GROUP BY in the engine.
func (s *Store) OperationAverages() ([]OpAverage, error) {
	rows, err := s.DB.Query(
		`SELECT operation, COUNT(*), AVG(mean_mib), MAX(max_mib), MIN(min_mib)
		 FROM summaries GROUP BY operation`)
	if err != nil {
		return nil, err
	}
	var out []OpAverage
	for rows.Next() {
		r := rows.Row()
		out = append(out, OpAverage{
			Operation: asString(r[0]),
			Runs:      asInt(r[1]),
			MeanMiBps: asFloat(r[2]),
			MaxMiBps:  asFloat(r[3]),
			MinMiBps:  asFloat(r[4]),
		})
	}
	return out, nil
}

func asString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

func asFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	return 0
}

func asInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return 0
}
