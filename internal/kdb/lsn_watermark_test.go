package kdb

import (
	"testing"
	"time"
)

// The remote client's LSN() is a passive high-water mark over response
// LSNs: it advances on writes (whose Result carries the commit LSN) and on
// status probes, never regresses, and costs no extra round trips — the
// API's cache-validity check for remote backends depends on exactly this.
func TestRemoteLSNHighWaterMark(t *testing.T) {
	db, addr := startServer(t)
	r, err := Dial("kdb://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if got := r.LSN(); got != 0 {
		t.Fatalf("fresh client LSN = %d, want 0", got)
	}
	if _, err := r.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	afterDDL := r.LSN()
	if afterDDL <= 0 {
		t.Fatalf("LSN after DDL = %d, want > 0", afterDDL)
	}
	if _, err := r.Exec("INSERT INTO t (v) VALUES (?)", "x"); err != nil {
		t.Fatal(err)
	}
	afterInsert := r.LSN()
	if afterInsert <= afterDDL {
		t.Fatalf("LSN did not advance on insert: %d -> %d", afterDDL, afterInsert)
	}
	if afterInsert != db.LSN() {
		t.Fatalf("client watermark %d != server LSN %d", afterInsert, db.LSN())
	}

	// A foreign write (directly on the server) is invisible until some
	// response carries the new LSN; a status probe fetches it.
	if _, err := db.Exec("INSERT INTO t (v) VALUES (?)", "y"); err != nil {
		t.Fatal(err)
	}
	if r.LSN() != afterInsert {
		t.Fatalf("watermark advanced with no traffic: %d", r.LSN())
	}
	if _, err := r.Status(); err != nil {
		t.Fatal(err)
	}
	if r.LSN() != db.LSN() {
		t.Fatalf("status probe: watermark %d != server %d", r.LSN(), db.LSN())
	}
}

// TestCommitNotifyBroadcast: commitSignal, which a replication stream waits
// on, is closed by the next commit and not before, and hands out a fresh
// channel after it; CommitNotify is the same broadcast.
func TestCommitNotifyBroadcast(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	ch := db.commitSignal()
	if db.CommitNotify() != ch {
		t.Fatal("CommitNotify is not the channel commitSignal hands out")
	}
	select {
	case <-ch:
		t.Fatal("channel closed before any commit")
	default:
	}
	if _, err := db.Exec("INSERT INTO t (v) VALUES (?)", "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("commit did not close the signal channel")
	}
	// Each handed-out channel covers exactly one commit; re-arm for the next.
	if ch2 := db.commitSignal(); ch2 == ch {
		t.Fatal("commitSignal returned the already-closed channel")
	}
}
