package kdb

// Engine observability. All handles are resolved once at package init
// against the process-wide telemetry registry, so the per-operation cost
// is a single atomic add (or nothing at all when the registry is
// disabled). kdb imports telemetry but not vice versa, keeping the
// dependency edge acyclic.

import (
	"time"

	"repro/internal/telemetry"
)

var (
	metQuerySeconds    *telemetry.Histogram
	metExecSeconds     *telemetry.Histogram
	metLockWaitSeconds *telemetry.Histogram
	metBatchesTotal    *telemetry.Counter
	metPlanCacheHits   *telemetry.Counter
	metPlanCacheMisses *telemetry.Counter
	metIndexHits       *telemetry.Counter
	metIndexMisses     *telemetry.Counter
	metIndexRebuilds   *telemetry.Counter
	metJoins           map[string]*telemetry.Counter // by joinStep strategy
	metFolds           map[string]*telemetry.Counter // by resumeFold outcome
	metWALFlushes      *telemetry.Counter
	metWALBytes        *telemetry.Counter
	// The online checkpoint (checkpoint.go): attempts by outcome, the wall
	// time of each written one, and the log bytes after the image at the
	// head of the log a database last wrote.
	metCheckpoints        map[string]*telemetry.Counter
	metCheckpointSeconds  *telemetry.Histogram
	metWALSinceCheckpoint *telemetry.Gauge
	metServerRequests     *telemetry.Counter
	metServerOpenConns    *telemetry.Gauge

	metReplStreams       *telemetry.Gauge
	metReplRecordsSent   *telemetry.Counter
	metReplSnapshotBytes *telemetry.Counter
	metReplayDuplicatePK *telemetry.Counter // rows history inserted under a taken primary key (execInsert)
)

func init() {
	reg := telemetry.Default()
	metQuerySeconds = reg.Histogram("kdb_query_seconds")
	metExecSeconds = reg.Histogram("kdb_exec_seconds")
	metLockWaitSeconds = reg.Histogram("kdb_lock_wait_seconds")
	metBatchesTotal = reg.Counter("kdb_batches_total")
	metPlanCacheHits = reg.Counter(telemetry.Label("kdb_plan_cache_total", "result", "hit"))
	metPlanCacheMisses = reg.Counter(telemetry.Label("kdb_plan_cache_total", "result", "miss"))
	metIndexHits = reg.Counter(telemetry.Label("kdb_index_lookups_total", "result", "hit"))
	metIndexMisses = reg.Counter(telemetry.Label("kdb_index_lookups_total", "result", "miss"))
	metIndexRebuilds = reg.Counter("kdb_index_rebuilds_total")
	metJoins = map[string]*telemetry.Counter{}
	for _, strategy := range []string{"index", "hash", "loop"} {
		metJoins[strategy] = reg.Counter(telemetry.Label("kdb_join_total", "strategy", strategy))
	}
	metFolds = map[string]*telemetry.Counter{}
	for _, outcome := range []string{"resumed", "cold", "stale"} {
		metFolds[outcome] = reg.Counter(telemetry.Label("kdb_fold_total", "outcome", outcome))
	}
	metWALFlushes = reg.Counter("kdb_wal_flushes_total")
	metWALBytes = reg.Counter("kdb_wal_bytes_total")
	metCheckpoints = map[string]*telemetry.Counter{}
	for _, outcome := range []string{ckptWritten, ckptAbandoned, ckptFailed} {
		metCheckpoints[outcome] = reg.Counter(telemetry.Label("kdb_checkpoint_total", "outcome", outcome))
	}
	metCheckpointSeconds = reg.Histogram("kdb_checkpoint_seconds")
	metWALSinceCheckpoint = reg.Gauge("kdb_wal_bytes_since_checkpoint")
	metServerRequests = reg.Counter("kdb_server_requests_total")
	metServerOpenConns = reg.Gauge("kdb_server_open_conns")
	metReplStreams = reg.Gauge("kdb_repl_streams")
	metReplRecordsSent = reg.Counter("kdb_repl_records_sent_total")
	metReplSnapshotBytes = reg.Counter("kdb_repl_snapshot_bytes_total")
	metReplayDuplicatePK = reg.Counter("kdb_replay_duplicate_pk_total")
}

// sinceSeconds is the one conversion every instrumented path shares.
func sinceSeconds(start time.Time) float64 { return time.Since(start).Seconds() }
