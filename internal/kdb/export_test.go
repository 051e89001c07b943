package kdb

// ApplyRandomOps lends the randomOps history generator to the external
// tests of this package, which check kdb against the kdbtest oracles.
var ApplyRandomOps = applyRandomOps
