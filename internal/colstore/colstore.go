// Package colstore is the knowledge cycle's columnar analytics engine.
// It attaches to a kdb database as a ColumnarBackend: analytical SELECTs
// (aggregates and GROUP BY over a single table) are answered from typed
// column vectors with per-segment zone maps, while point lookups, joins,
// and plain scans stay on the row engine and its hash indexes.
//
// Correctness contract: every answer the store serves is byte-identical
// to what the row engine would have produced — same float accumulation
// order, same NULL and NaN quirks, same group ordering. Whenever the
// store cannot guarantee that (unknown shape, stale data it cannot
// refresh, type mismatches the engine would error on), it declines and
// the row engine answers as if no store were attached.
//
// Freshness: images are refreshed lazily, one table at a time. Each
// query reads the table's engine version (bumped on every insert, update,
// delete, index DDL and rollback) and compares it with the version its
// image was built at. A stale table is refreshed from a kdb.View — typed
// rows copied straight into vectors under the engine's read lock, so the
// image is exactly the table at the version it records. When only appends
// happened since the image was built (the engine's last-rewrite version is
// not past the image's), the new image shares every full segment and the
// dictionary entries with the old one and decodes only the appended rows:
// a partial tail segment is carried over as a copy of its typed vectors
// and extended with them; after anything else — UPDATE, DELETE, a
// rolled-back batch, DROP+CREATE, RestoreSnapshot — that one table is
// rebuilt from scratch. Either way the result equals a from-scratch build
// of the same rows, and published images are never written again: readers
// of an older image keep a consistent table while newer ones are
// published beside it.
package colstore

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/kdb"
	"repro/internal/telemetry"
)

// Reasons a routable query is declined back to the row engine, the label
// values of colstore_fallback_total.
const (
	declineUnknownTable = "unknown_table" // no such table in the engine
	declineTypeMismatch = "type_mismatch" // text-vs-numeric filter: the engine errors
	declineShape        = "shape"         // unknown column, bad placeholder, ungrouped plain column
)

var (
	metQueries     *telemetry.Counter
	metFallbacks   map[string]*telemetry.Counter // by decline reason
	metRebuilds    *telemetry.Counter
	metAppends     *telemetry.Counter
	metSegsScanned *telemetry.Counter
	metSegsSkipped *telemetry.Counter
)

func init() {
	reg := telemetry.Default()
	metQueries = reg.Counter("colstore_queries_total")
	metFallbacks = map[string]*telemetry.Counter{}
	for _, reason := range []string{declineUnknownTable, declineTypeMismatch, declineShape} {
		metFallbacks[reason] = reg.Counter(telemetry.Label("colstore_fallback_total", "reason", reason))
	}
	metRebuilds = reg.Counter("colstore_rebuilds_total")
	metAppends = reg.Counter("colstore_appends_total")
	metSegsScanned = reg.Counter("colstore_segments_scanned_total")
	metSegsSkipped = reg.Counter("colstore_segments_skipped_total")
}

// Store is a columnar mirror of a kdb database.
type Store struct {
	db *kdb.DB

	mu     sync.RWMutex
	tables map[string]*colTable // keyed by lowercased name

	buffers  sync.Pool // *[]int32: queries' selection and group vectors
	verdicts sync.Pool // *[]uint8: text conjuncts' per-code verdicts

	served      atomic.Int64
	fallbacks   atomic.Int64
	rebuilds    atomic.Int64
	appends     atomic.Int64
	segsScanned atomic.Int64
	segsSkipped atomic.Int64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Served          int64 // analytical queries answered from segments
	Fallbacks       int64 // routable queries declined back to the row engine
	Rebuilds        int64 // table images rebuilt from scratch
	Appends         int64 // table images refreshed incrementally after appends
	SegmentsScanned int64
	SegmentsSkipped int64 // segments eliminated by zone maps
}

// Attach builds a store over db and registers it as the database's
// columnar backend. Detach with db.SetColumnar(nil).
func Attach(db *kdb.DB) *Store {
	s := &Store{db: db, tables: map[string]*colTable{}}
	db.SetColumnar(s)
	return s
}

// Stats returns the current counter values.
func (s *Store) Stats() Stats {
	return Stats{
		Served:          s.served.Load(),
		Fallbacks:       s.fallbacks.Load(),
		Rebuilds:        s.rebuilds.Load(),
		Appends:         s.appends.Load(),
		SegmentsScanned: s.segsScanned.Load(),
		SegmentsSkipped: s.segsSkipped.Load(),
	}
}

// table returns the current columnar image of name, refreshing it first
// when the engine's table has moved on. ok is false when the table is
// unknown — the caller then declines the query.
func (s *Store) table(name string) (*colTable, bool) {
	key := strings.ToLower(name)
	if want, exists := s.db.TableVersion(key); exists {
		s.mu.RLock()
		ct := s.tables[key]
		s.mu.RUnlock()
		if ct != nil && ct.version == want {
			return ct, true
		}
	}
	return s.refresh(key)
}

// refresh brings one table's image up to the engine's current version and
// publishes it. The rows are copied into vectors inside the view, so the
// image is the table at exactly the version it records and nothing of the
// engine's memory is kept.
func (s *Store) refresh(key string) (*colTable, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ct *colTable
	_ = s.db.View(func(v *kdb.View) error { // the callback never fails
		tv, ok := v.Table(key)
		if !ok {
			delete(s.tables, key) // dropped since the image was built
			return nil
		}
		old := s.tables[key]
		switch {
		case old != nil && old.version == tv.Version():
			ct = old // another goroutine refreshed while we waited for the lock
			return nil
		case old != nil && tv.Rewritten() <= old.version && tv.Len() >= old.rows:
			ct = appendTable(old, tv)
			s.appends.Add(1)
			metAppends.Inc()
		default:
			ct = buildTable(tv)
			s.rebuilds.Add(1)
			metRebuilds.Inc()
		}
		s.tables[key] = ct
		return nil
	})
	return ct, ct != nil
}
