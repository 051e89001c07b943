package kdb_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
)

func dumpOf(t testing.TB, db *kdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func copyFile(t testing.TB, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// commitFirst commits once, from inside the rewrite's first write — the
// write that follows the image, outside any lock — so the rewrite has bytes
// appended after its cut to carry over.
type commitFirst struct {
	*kdbtest.FaultFile
	once   sync.Once
	commit func()
}

func (c *commitFirst) Write(p []byte) (int, error) {
	c.once.Do(c.commit)
	return c.FaultFile.Write(p)
}

// TestCheckpointCrashSweep kills the online rewrite of a log at every byte
// offset of its temp file's writes and at its syncs (kdbtest.FaultFile),
// copying the files as the crash leaves them, and once more after it
// completes — the rename is atomic, so those are the states a crash at the
// rename leaves too. Each copy must reopen, with no temp file left, to
// exactly the acknowledged state, a commit made while the rewrite ran
// included; and a follower that stopped before the rewrite's cut and resumes
// against the reopened copy must converge, by the records since its LSN or,
// where the image took them away, by a snapshot. Under the race detector
// every seventh offset is tried.
func TestCheckpointCrashSweep(t *testing.T) {
	root := t.TempDir()
	base := filepath.Join(root, "base.kdb")
	db, err := kdb.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE runs (id INTEGER PRIMARY KEY, name TEXT, ms REAL)")
	mustExec(t, db, "CREATE INDEX runs_name ON runs (name)")
	mustExec(t, db, "CREATE TABLE notes (id INTEGER PRIMARY KEY, run INTEGER, body TEXT)")
	for i := 0; i < 12; i++ {
		mustExec(t, db, "INSERT INTO runs (name, ms) VALUES (?, ?)", fmt.Sprintf("run-%d", i), float64(i)/3)
		mustExec(t, db, "INSERT INTO notes (run, body) VALUES (?, ?)", int64(i+1), "a note\nwith \"quotes\"")
	}
	mustExec(t, db, "UPDATE runs SET ms = ? WHERE id = ?", 99.5, int64(3))
	mustExec(t, db, "DELETE FROM notes WHERE run = ?", int64(4))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	stride := int64(1)
	if kdb.RaceEnabled {
		stride = 7
	}
	var snapshots, resumes int
	for kill := int64(0); ; kill += stride {
		dir, err := os.MkdirTemp(root, "kill")
		if err != nil {
			t.Fatal(err)
		}
		path, crash := filepath.Join(dir, "p.kdb"), filepath.Join(dir, "crash.kdb")
		copyFile(t, base, path)
		db, err := kdb.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		// The follower stopped three commits before the rewrite's cut.
		follower, err := kdb.Open("")
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.RestoreSnapshot(dumpOf(t, db)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			mustExec(t, db, "INSERT INTO runs (name) VALUES (?)", "after the follower")
		}
		ff := &kdbtest.FaultFile{Mode: kdbtest.Kill, At: kill, OnKill: func() {
			copyFile(t, path, crash)
			copyFile(t, path+".compact", crash+".compact")
		}}
		kdb.InterposeLogFiles(t, func(f *os.File) kdb.WALFile {
			if !strings.HasSuffix(f.Name(), ".compact") {
				return f
			}
			ff.File = f
			return &commitFirst{FaultFile: ff, commit: func() {
				mustExec(t, db, "INSERT INTO notes (run, body) VALUES (?, ?)", int64(1), "while rewriting")
			}}
		})
		outcome, err := db.CheckpointNow()
		done := !ff.Killed()
		if done {
			if outcome != "written" || err != nil {
				t.Fatalf("unkilled rewrite: %s, %v", outcome, err)
			}
			copyFile(t, path, crash)
		} else if outcome != "failed" {
			t.Fatalf("kill at %d: rewrite %s, %v", kill, outcome, err)
		}
		want, lsn := dumpOf(t, db), db.LSN()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		reopened, err := kdb.Open(crash)
		if err != nil {
			t.Fatalf("kill at %d: Open: %v", kill, err)
		}
		if _, err := os.Stat(crash + ".compact"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("kill at %d: temp file still there after Open: %v", kill, err)
		}
		if got := dumpOf(t, reopened); !bytes.Equal(got, want) || reopened.LSN() != lsn {
			t.Fatalf("kill at %d: reopened at LSN %d (want %d), dump equal %v", kill, reopened.LSN(), lsn, bytes.Equal(got, want))
		}
		if recs, ok := reopened.RecordsSince(follower.LSN()); ok {
			resumes++
			if err := follower.ApplyRecords(recs); err != nil {
				t.Fatalf("kill at %d: follower resuming at %d: %v", kill, follower.LSN(), err)
			}
		} else {
			snapshots++
			if err := follower.RestoreSnapshot(dumpOf(t, reopened)); err != nil {
				t.Fatal(err)
			}
		}
		if got := dumpOf(t, follower); !bytes.Equal(got, want) || follower.LSN() != lsn {
			t.Fatalf("kill at %d: follower at LSN %d (want %d), dump equal %v", kill, follower.LSN(), lsn, bytes.Equal(got, want))
		}
		reopened.Close()
		follower.Close()
		os.RemoveAll(dir)
		if done {
			t.Logf("%d kill offsets up to %d bytes; the follower resumed %d times and took a snapshot %d times", kill/stride+1, kill, resumes, snapshots)
			break
		}
	}
	if snapshots != 1 || resumes == 0 {
		t.Fatalf("follower resumed %d times and took %d snapshots; want a snapshot only once the image is in place", resumes, snapshots)
	}
}

// TestKilledAppendReopens kills a commit's append at every byte of its
// record: the log reopens, to the state before the commit or, where only its
// newline was lost, after it, and takes appends again.
func TestKilledAppendReopens(t *testing.T) {
	root := t.TempDir()
	acked := kdbtest.MemDB(t, kdb.DBOptions{})
	mustExec(t, acked, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, acked, "INSERT INTO p (v) VALUES (?)", "first")
	mustExec(t, acked, "INSERT INTO p (v) VALUES (?)", "second")
	after := dumpOf(t, acked)
	for kill := int64(0); ; kill++ {
		path := filepath.Join(root, fmt.Sprintf("a%d.kdb", kill))
		db, err := kdb.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, db, "INSERT INTO p (v) VALUES (?)", "first")
		before := dumpOf(t, db)
		db.Close()
		crash := path + ".crash"
		ff := &kdbtest.FaultFile{Mode: kdbtest.Kill, At: kill, OnKill: func() { copyFile(t, path, crash) }}
		kdb.InterposeLogFiles(t, func(f *os.File) kdb.WALFile { ff.File = f; return ff })
		db, err = kdb.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = db.Exec("INSERT INTO p (v) VALUES (?)", "second")
		db.Close()
		if err == nil { // the whole record was written before the kill
			break
		}
		if !ff.Killed() {
			t.Fatalf("kill at %d: the commit failed unkilled: %v", kill, err)
		}
		kdb.InterposeLogFiles(t, func(f *os.File) kdb.WALFile { return f })
		db, err = kdb.Open(crash)
		if err != nil {
			t.Fatalf("kill at %d: Open: %v", kill, err)
		}
		got := dumpOf(t, db)
		if !bytes.Equal(got, before) && !bytes.Equal(got, after) {
			t.Fatalf("kill at %d: reopened to neither the state before the commit nor after it", kill)
		}
		mustExec(t, db, "INSERT INTO p (v) VALUES (?)", "third")
		want := dumpOf(t, db)
		db.Close()
		db, err = kdb.Open(crash)
		if err != nil {
			t.Fatalf("kill at %d: Open after an append: %v", kill, err)
		}
		if !bytes.Equal(dumpOf(t, db), want) {
			t.Fatalf("kill at %d: append after the cut did not reopen", kill)
		}
		db.Close()
	}
}

// TestCheckpointWriteFaults: a rewrite whose temp file takes a short write
// or a failed one ends "failed", removes its temp file and leaves the log
// as it was; the next rewrite is written.
func TestCheckpointWriteFaults(t *testing.T) {
	for _, mode := range []kdbtest.FaultMode{kdbtest.ShortWrite, kdbtest.Fail} {
		path := filepath.Join(t.TempDir(), "f.kdb")
		db, err := kdb.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, db, "INSERT INTO p (v) VALUES (?)", "x")
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fault := true
		kdb.InterposeLogFiles(t, func(f *os.File) kdb.WALFile {
			if !fault || !strings.HasSuffix(f.Name(), ".compact") {
				return f
			}
			return &kdbtest.FaultFile{File: f, Mode: mode, At: 10}
		})
		if outcome, err := db.CheckpointNow(); outcome != "failed" || err == nil {
			t.Fatalf("mode %d: rewrite %s, %v; want failed", mode, outcome, err)
		}
		if _, err := os.Stat(path + ".compact"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("mode %d: temp file left behind: %v", mode, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("mode %d: a failed rewrite changed the log (%v)", mode, err)
		}
		fault = false
		if outcome, err := db.CheckpointNow(); outcome != "written" || err != nil {
			t.Fatalf("mode %d: rewrite after the fault: %s, %v", mode, outcome, err)
		}
		db.Close()
	}
}

// TestRestoreCrashSweep kills a follower's restore of a file-backed database
// at every byte offset of its temp file's writes, at its sync, and at the
// reopen of the append handle after the rename, copying the files as
// each crash leaves them, and once more after it completes. Each copy must
// reopen, with no temp file left, to exactly the old state while the temp
// file is unfinished and exactly the restored one from the rename on — dump
// and LSN — never a mix; a killed restore leaves the live database as it was.
// Under the race detector every seventh offset is tried.
func TestRestoreCrashSweep(t *testing.T) {
	root := t.TempDir()
	base := filepath.Join(root, "base.kdb")
	db, err := kdb.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE runs (id INTEGER PRIMARY KEY, name TEXT, ms REAL)")
	mustExec(t, db, "CREATE INDEX runs_name ON runs (name)")
	for i := 0; i < 8; i++ {
		mustExec(t, db, "INSERT INTO runs (name, ms) VALUES (?, ?)", fmt.Sprintf("run-%d", i), float64(i)/3)
	}
	old, oldLSN := dumpOf(t, db), db.LSN()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	primary := kdbtest.MemDB(t, kdb.DBOptions{})
	kdb.ApplyRandomOps(primary, rand.New(rand.NewSource(7)), 40)
	mustExec(t, primary, "INSERT INTO t0 (n, s) VALUES (?, ?)", int64(1), "a note\nwith \"quotes\"")
	restored, restoredLSN := dumpOf(t, primary), primary.LSN()

	stride := int64(1)
	if kdb.RaceEnabled {
		stride = 7
	}
	for kill := int64(0); ; kill += stride {
		dir, err := os.MkdirTemp(root, "kill")
		if err != nil {
			t.Fatal(err)
		}
		path, crash := filepath.Join(dir, "p.kdb"), filepath.Join(dir, "crash.kdb")
		copyFile(t, base, path)
		db, err := kdb.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		crashAt := func() {
			copyFile(t, path, crash)
			copyFile(t, path+".compact", crash+".compact")
		}
		ff := &kdbtest.FaultFile{Mode: kdbtest.Kill, At: kill, OnKill: crashAt}
		kdb.InterposeLogFiles(t, func(f *os.File) kdb.WALFile {
			if strings.HasSuffix(f.Name(), ".compact") {
				ff.File = f
				return ff
			}
			crashAt() // the append handle, reopened after the rename
			return f
		})
		err = db.RestoreSnapshot(restored)
		done := !ff.Killed()
		want, lsn := old, oldLSN
		if done {
			if err != nil {
				t.Fatalf("unkilled restore: %v", err)
			}
			want, lsn = restored, restoredLSN
		} else if err == nil {
			t.Fatalf("kill at %d: restore succeeded", kill)
		}
		if got := dumpOf(t, db); !bytes.Equal(got, want) || db.LSN() != lsn {
			t.Fatalf("kill at %d: live database at LSN %d (want %d), dump equal %v", kill, db.LSN(), lsn, bytes.Equal(got, want))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		crashes := []string{crash}
		if done {
			crashes = append(crashes, path)
		}
		for _, c := range crashes {
			reopened, err := kdb.Open(c)
			if err != nil {
				t.Fatalf("kill at %d: Open %s: %v", kill, filepath.Base(c), err)
			}
			if _, err := os.Stat(c + ".compact"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("kill at %d: temp file still there after Open: %v", kill, err)
			}
			if got := dumpOf(t, reopened); !bytes.Equal(got, want) || reopened.LSN() != lsn {
				t.Fatalf("kill at %d: %s reopened at LSN %d (want %d), dump equal %v", kill, filepath.Base(c), reopened.LSN(), lsn, bytes.Equal(got, want))
			}
			reopened.Close()
		}
		os.RemoveAll(dir)
		if done {
			t.Logf("%d kill offsets up to %d bytes", kill/stride+1, kill)
			return
		}
	}
}
