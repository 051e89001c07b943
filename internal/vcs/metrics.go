package vcs

// Versioning observability, resolved once at package init against the
// process-wide registry like kdb/repl/campaign.

import "repro/internal/telemetry"

var (
	metCommitSeconds  *telemetry.Histogram
	metChunkBytes     *telemetry.Counter
	metMergeConflicts *telemetry.Counter
	// Per created commit, how each content table's chunk list was
	// obtained: reused whole, tail re-encoded after appends, or cut afresh.
	metTablesReused    *telemetry.Counter
	metTablesExtended  *telemetry.Counter
	metTablesRechunked *telemetry.Counter
)

func init() {
	reg := telemetry.Default()
	metCommitSeconds = reg.Histogram("vcs_commit_seconds")
	metChunkBytes = reg.Counter("vcs_chunk_bytes")
	metMergeConflicts = reg.Counter("vcs_merge_conflicts_total")
	metTablesReused = reg.Counter(telemetry.Label("vcs_commit_tables_total", "chunks", "reused"))
	metTablesExtended = reg.Counter(telemetry.Label("vcs_commit_tables_total", "chunks", "extended"))
	metTablesRechunked = reg.Counter(telemetry.Label("vcs_commit_tables_total", "chunks", "rechunked"))
}
