package kdb

import (
	"errors"
	"os"
	"testing"
)

// ApplyRandomOps lends the randomOps history generator to the external
// tests of this package, which check kdb against the kdbtest oracles.
var ApplyRandomOps = applyRandomOps

// WALFile is the seam kdb writes its log files through.
type WALFile = walFile

// InterposeLogFiles passes every log file kdb opens for writing — the
// append handle and a rewrite's temp file — through wrap until the test
// ends.
func InterposeLogFiles(t testing.TB, wrap func(f *os.File) WALFile) {
	old := interpose
	interpose = wrap
	t.Cleanup(func() { interpose = old })
}

// CheckpointNow waits for the rewrite in progress, if any, then runs one
// from the current LSN to its end, whatever the trigger says, and reports
// how it ended.
func (db *DB) CheckpointNow() (string, error) {
	for {
		db.mu.Lock()
		ck := db.ckpt
		if ck == nil {
			if db.closed || db.path == "" {
				db.mu.Unlock()
				return "", errors.New("kdb: no open log to checkpoint")
			}
			ck = db.startCheckpointLocked()
			db.mu.Unlock()
			<-ck.done
			return ck.outcome, ck.err
		}
		db.mu.Unlock()
		<-ck.done
	}
}

// RaceEnabled reports a race-detector build.
const RaceEnabled = raceEnabled
