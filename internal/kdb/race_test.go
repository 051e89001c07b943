//go:build race

package kdb

// raceEnabled reports a race-detector build, whose instrumentation
// allocates on its own: allocation counts taken under it do not measure the
// code.
const raceEnabled = true
