package kdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkpointOps is a randomOps history with what a typed image must carry
// exactly as the text does mixed in: a table dropped and created again,
// NULLs, NaN, −0, ±Inf, and texts the log escapes or respells.
func checkpointOps(rng *rand.Rand, n int) []randomOp {
	reals := []any{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), nil, 1.5e300}
	texts := []any{"quote \" backslash \\ newline \n tab \t <&> \u2028 \x01 \u00fcn\u00ef", "bad utf-8 \xff\xfe!", "", nil}
	var ops []randomOp
	for _, op := range randomOps(rng, n) {
		ops = append(ops, op)
		switch rng.Intn(12) {
		case 0:
			ops = append(ops, randomOp{sql: "DROP TABLE t0"},
				randomOp{sql: "CREATE TABLE t0 (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)"})
		case 1, 2:
			ops = append(ops, randomOp{"INSERT INTO t0 (n, r, s) VALUES (?, ?, ?)",
				[]any{int64(rng.Intn(5) - 2), reals[rng.Intn(len(reals))], texts[rng.Intn(len(texts))]}})
		case 3:
			ops = append(ops, randomOp{"INSERT INTO t0 (id, n) VALUES (?, ?)", []any{int64(1000 + rng.Intn(50)), int64(math.MinInt64)}})
		}
	}
	return ops
}

// writeHistory runs ops against a new log at path, checkpointing once
// before op cut (after the last when cut is len(ops); never when negative),
// and closes it.
func writeHistory(t testing.TB, path string, ops []randomOp, cut int) {
	t.Helper()
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(ops); i++ {
		if i == cut {
			if outcome, err := db.CheckpointNow(); outcome != ckptWritten || err != nil {
				t.Fatalf("checkpoint before op %d: %s, %v", i, outcome, err)
			}
		}
		if i < len(ops) {
			db.Exec(ops[i].sql, ops[i].args...)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func reopenState(t testing.TB, path string) replayState {
	t.Helper()
	db, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	return stateOf(t, db)
}

// imageBlock is one block of a checkpoint image as it lies in the file.
type imageBlock struct {
	kind       byte
	start, end int
}

// imageBlocks lists the blocks of the image at the head of data.
func imageBlocks(t testing.TB, data []byte) []imageBlock {
	t.Helper()
	if !bytes.HasPrefix(data, []byte(imageMagic)) {
		t.Fatal("log holds no checkpoint image")
	}
	var blocks []imageBlock
	for at := len(imageMagic); ; {
		n, k := binary.Uvarint(data[at+1:])
		b := imageBlock{kind: data[at], start: at, end: at + 1 + k + int(n) + 4}
		blocks = append(blocks, b)
		if b.kind == blockEnd {
			return blocks
		}
		at = b.end
	}
}

// FuzzCheckpointEqualsLog: a log checkpointed at any point of a history
// reopens to what a text replay of the same history does — the dump, the
// LSN and every auto-increment mark — and a byte flipped in one of its row
// blocks fails Open with an error that names that block.
func FuzzCheckpointEqualsLog(f *testing.F) {
	f.Add(int64(1), uint8(120), uint8(60), uint16(7))
	f.Add(int64(2), uint8(200), uint8(0), uint16(300))
	f.Add(int64(3), uint8(255), uint8(255), uint16(0))
	f.Add(int64(4), uint8(40), uint8(39), uint16(0x1234))
	f.Add(int64(5), uint8(0), uint8(0), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n, at uint8, flip uint16) {
		ops := checkpointOps(rand.New(rand.NewSource(seed)), int(n))
		cut := int(at) % (len(ops) + 1)
		dir := t.TempDir()
		plain, ckpt := filepath.Join(dir, "plain.kdb"), filepath.Join(dir, "ckpt.kdb")
		writeHistory(t, plain, ops, -1)
		writeHistory(t, ckpt, ops, cut)
		want, got := reopenState(t, plain), reopenState(t, ckpt)
		switch {
		case got.snap != want.snap:
			t.Fatalf("checkpointed before op %d of %d: reopened dump differs from the text replay's", cut, len(ops))
		case got.lsn != want.lsn:
			t.Fatalf("checkpointed before op %d: LSN %d, text replay %d", cut, got.lsn, want.lsn)
		case !reflect.DeepEqual(got.autoID, want.autoID):
			t.Fatalf("checkpointed before op %d: auto-id marks %v, text replay %v", cut, got.autoID, want.autoID)
		}

		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		var rows []int
		blocks := imageBlocks(t, data)
		for i, b := range blocks {
			if b.kind == blockRows {
				rows = append(rows, i)
			}
		}
		if len(rows) == 0 {
			return
		}
		i := rows[int(flip)%len(rows)]
		b := blocks[i]
		data[b.start+int(flip)%(b.end-b.start)] ^= byte(flip>>8) | 1
		if err := os.WriteFile(ckpt, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(ckpt)
		if err == nil {
			db.Close()
			t.Fatalf("Open read a log whose image block %d has a flipped byte", i)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("block %d:", i)) {
			t.Fatalf("flipped byte in block %d: Open error %q names another", i, err)
		}
	})
}

// TestCheckpointBlocksFollowChunks: a table's row blocks are cut where its
// snapshot chunks are, DefaultChunkLines records from its CREATE TABLE.
func TestCheckpointBlocksFollowChunks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.kdb")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, db, "CREATE INDEX a_n ON a (n)")
	if err := db.Batch(func(exec ExecFunc) error {
		for i := 0; i < 2*DefaultChunkLines; i++ {
			if _, err := exec("INSERT INTO a (n) VALUES (?)", int64(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if outcome, err := db.CheckpointNow(); outcome != ckptWritten || err != nil {
		t.Fatalf("checkpoint: %s, %v", outcome, err)
	}
	db.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var counts []uint64
	for _, b := range imageBlocks(t, data) {
		if b.kind == blockRows {
			_, k := binary.Uvarint(data[b.start+1:])
			n, _ := binary.Uvarint(data[b.start+1+k:])
			counts = append(counts, n)
		}
	}
	// Two header records (CREATE TABLE, CREATE INDEX) open the first chunk.
	if want := []uint64{DefaultChunkLines - 2, DefaultChunkLines, 2}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("row blocks hold %v rows, want %v", counts, want)
	}
}

// TestCheckpointUnderConcurrentCommits: writers append, update, delete and
// recreate tables while checkpoints run one after another. Every attempt
// is written or abandoned, never failed, at least one is written, and the
// log reopens to the live database's dump and LSN.
func TestCheckpointUnderConcurrentCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cc.kdb")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY, n INTEGER, s TEXT)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER PRIMARY KEY, n INTEGER, r REAL)")
	mustExec(t, db, "CREATE INDEX b_n ON b (n)")
	for i := 0; i < 1500; i++ {
		mustExec(t, db, "INSERT INTO a (n, s) VALUES (?, ?)", int64(i), fmt.Sprintf("row %d", i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch r := rng.Intn(100); {
				case r < 85:
					db.Exec("INSERT INTO a (n, s) VALUES (?, ?)", int64(i), "appended")
				case r < 92:
					db.Exec("INSERT INTO b (n, r) VALUES (?, ?)", int64(rng.Intn(10)), rng.Float64())
				case r < 95:
					db.Exec("UPDATE b SET r = ? WHERE n = ?", rng.Float64(), int64(rng.Intn(10)))
				case r < 98:
					db.Exec("DELETE FROM b WHERE n = ?", int64(rng.Intn(10)))
				case r < 99:
					db.Exec("DROP TABLE c")
				default:
					db.Exec("CREATE TABLE c (id INTEGER PRIMARY KEY, s TEXT)")
				}
			}
		}(w)
	}
	outcomes := map[string]int{}
	for i := 0; i < 12; i++ {
		outcome, err := db.CheckpointNow()
		if err != nil {
			t.Errorf("checkpoint %d: %s: %v", i, outcome, err)
		}
		outcomes[outcome]++
	}
	close(stop)
	wg.Wait()
	if outcomes[ckptWritten] == 0 {
		if outcome, err := db.CheckpointNow(); outcome != ckptWritten || err != nil {
			t.Fatalf("no checkpoint written (%v), nor one after the writers stopped: %s, %v", outcomes, outcome, err)
		}
	}
	want, lsn := snapshotBytes(t, db), db.LSN()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + tempSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
	got := reopenState(t, path)
	if got.snap != string(want) || got.lsn != lsn {
		t.Fatalf("reopened log: LSN %d (want %d), dump equal %v", got.lsn, lsn, got.snap == string(want))
	}
}

// gateFile holds a rewrite's first write until released.
type gateFile struct {
	walFile
	once             sync.Once
	started, release chan struct{}
}

func (g *gateFile) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.walFile.Write(p)
}

// TestCloseDuringCheckpoint: Close stops a checkpoint in progress and waits
// for it, which leaves no goroutine and no temp file behind, and the log
// reopens as it was.
func TestCloseDuringCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "close.kdb")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY, s TEXT)")
	for i := 0; i < 100; i++ {
		mustExec(t, db, "INSERT INTO a (s) VALUES (?)", fmt.Sprint(i))
	}
	want := snapshotBytes(t, db)
	g := &gateFile{started: make(chan struct{}), release: make(chan struct{})}
	InterposeLogFiles(t, func(f *os.File) walFile {
		if strings.HasSuffix(f.Name(), tempSuffix) {
			g.walFile = f
			return g
		}
		return f
	})
	goroutines := runtime.NumGoroutine()
	db.mu.Lock()
	ck := db.startCheckpointLocked()
	db.mu.Unlock()
	<-g.started
	closed := make(chan error)
	go func() { closed <- db.Close() }()
	for {
		db.mu.RLock()
		c := db.closed
		db.mu.RUnlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if ck.outcome != ckptAbandoned || ck.err != nil {
		t.Errorf("checkpoint stopped by Close: %s, %v; want abandoned", ck.outcome, ck.err)
	}
	if _, err := os.Stat(path + tempSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after Close, %d before the checkpoint", n, goroutines)
	}
	if got := reopenState(t, path); got.snap != string(want) {
		t.Error("reopened log differs from the closed database")
	}
}

// TestTornTailIsCut: a last record a crash cut short — no newline, does not
// decode — is cut off the log by Open, and the log takes appends and reopens
// after it. This is the torn-tail reproduction: a batch of three INSERTs with
// 5 bytes torn off used to fail Open with "unexpected end of JSON input".
// Nothing makes a batch atomic on disk yet: the two records before the torn
// one stay.
func TestTornTailIsCut(t *testing.T) {
	for _, image := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "torn.kdb")
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
		if image {
			mustExec(t, db, "INSERT INTO p (v) VALUES (?)", "in the image")
			if outcome, err := db.CheckpointNow(); outcome != ckptWritten {
				t.Fatalf("checkpoint: %s, %v", outcome, err)
			}
		}
		if err := db.Batch(func(exec ExecFunc) error {
			for _, v := range []string{"a", "b", "c"} {
				if _, err := exec("INSERT INTO p (v) VALUES (?)", v); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		lsn := db.LSN()
		db.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		whole := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
		if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		db, err = Open(path)
		if err != nil {
			t.Fatalf("image %v: Open of a torn log: %v", image, err)
		}
		if db.LSN() != lsn-1 {
			t.Errorf("image %v: LSN %d after the torn record was cut, want %d", image, db.LSN(), lsn-1)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(whole) {
			t.Errorf("image %v: log is %v bytes after the cut, want %d (%v)", image, st.Size(), whole, err)
		}
		mustExec(t, db, "INSERT INTO p (v) VALUES (?)", "after")
		want := snapshotBytes(t, db)
		db.Close()
		if got := reopenState(t, path); got.snap != string(want) || got.lsn != lsn {
			t.Errorf("image %v: reopened after the cut and an append: LSN %d, want %d; dump equal %v", image, got.lsn, lsn, got.snap == string(want))
		}
	}
}

// TestUnterminatedLastRecord: a last record that decodes but has no
// newline stays, and the next append does not run on into it.
func TestUnterminatedLastRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.kdb")
	log := recordLines(t, randomOp{sql: "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)"},
		randomOp{"INSERT INTO p (v) VALUES (?)", []any{"x"}})
	if err := os.WriteFile(path, log[:len(log)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO p (v) VALUES (?)", "y")
	want := snapshotBytes(t, db)
	db.Close()
	if got := reopenState(t, path); got.snap != string(want) || got.lsn != 3 {
		t.Fatalf("reopened: LSN %d, want 3; dump equal %v", got.lsn, got.snap == string(want))
	}
}

// TestOpenRemovesStaleTemp: Open removes the temp file a crashed rewrite of
// the log left beside it.
func TestOpenRemovesStaleTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kdb")
	if err := os.WriteFile(path+tempSuffix, []byte(imageMagic+"half an image"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := os.Stat(path + tempSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale temp file still there: %v", err)
	}
}

// TestCheckpointTrigger: the log is rewritten once it has passed the floor
// and the text after its image has outgrown the image — by a commit, in the
// background — and a new log reopens from the image it was given.
func TestCheckpointTrigger(t *testing.T) {
	for _, c := range []struct {
		size, image int64
		due         bool
	}{
		{checkpointFloor - 1, 0, false},
		{checkpointFloor, 0, true},
		{3 * checkpointFloor, checkpointFloor, true},
		{2 * checkpointFloor, checkpointFloor, false},
		{100 * checkpointFloor, 50 * checkpointFloor, false},
	} {
		if got := checkpointDue(c.size, c.image); got != c.due {
			t.Errorf("checkpointDue(%d, %d) = %v, want %v", c.size, c.image, got, c.due)
		}
	}

	path := filepath.Join(t.TempDir(), "trigger.kdb")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE big (id INTEGER PRIMARY KEY, s TEXT)")
	payload := strings.Repeat("x", 64<<10)
	written := metCheckpoints[ckptWritten].Value()
	// The commit that takes the log past the floor starts the rewrite.
	for {
		mustExec(t, db, "INSERT INTO big (s) VALUES (?)", payload)
		db.mu.RLock()
		size, image, running := db.logSize, db.imageSize, db.ckpt != nil
		db.mu.RUnlock()
		if size >= checkpointFloor {
			if !running && image == 0 {
				t.Fatalf("no checkpoint started at %d bytes of log", size)
			}
			break
		}
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		db.mu.RLock()
		image, running := db.imageSize, db.ckpt != nil
		db.mu.RUnlock()
		if !running {
			if image == 0 {
				t.Fatal("the checkpoint ended without an image in place")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint did not end within a minute")
		}
	}
	if metCheckpoints[ckptWritten].Value() <= written {
		t.Error("kdb_checkpoint_total{outcome=\"written\"} did not move")
	}
	mustExec(t, db, "INSERT INTO big (s) VALUES (?)", "after the image")
	want, lsn := snapshotBytes(t, db), db.LSN()
	db.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(imageMagic)) {
		t.Fatal("the log does not start with an image")
	}
	if got := reopenState(t, path); got.snap != string(want) || got.lsn != lsn {
		t.Fatalf("reopened from the image: LSN %d, want %d; dump equal %v", got.lsn, lsn, got.snap == string(want))
	}
}

// goldenImage is the log a checkpoint writes for TestGoldenImageBytes'
// history: the image's disk format, pinned. A change to it must still read
// logs written in this one.
const goldenImage = "\x00kdb checkpoint image 1\nT3\x00{\"sql\":\"CREATE TABLE e (id INTEGER PRIMARY KEY)\"}\n\x9e?\xf5\x9fTr\x02{\"sql\":\"CREATE TABLE g (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)\"}\n{\"sql\":\"CREATE INDEX g_n ON g (n)\"}\nmGd\x00R\x19\x02\x14\x01\x02\x01\x05\x02\x00\x00\x00\x00\x00\x00\xf8?\x03\x03\x01\x04\x00\x00\x00a\nb\x030:-E\x00}H^S{\"auto_ids\":{\"g\":2},\"base_lsn\":5,\"meta\":true}\n{\"sql\":\"INSERT INTO g (s) VALUES (?)\",\"args\":[{\"k\":\"t\",\"v\":\"after the image\"}]}\n"

// TestGoldenImageBytes: a checkpoint writes exactly goldenImage, and that
// log reopens to the state it was written from.
func TestGoldenImageBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.kdb")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE g (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)")
	mustExec(t, db, "CREATE INDEX g_n ON g (n)")
	mustExec(t, db, "INSERT INTO g (n, r, s) VALUES (?, ?, ?)", int64(-3), 1.5, "a\nb")
	mustExec(t, db, "INSERT INTO g (n, r, s) VALUES (?, ?, ?)", nil, nil, nil)
	mustExec(t, db, "CREATE TABLE e (id INTEGER PRIMARY KEY)")
	if outcome, err := db.CheckpointNow(); outcome != ckptWritten {
		t.Fatalf("checkpoint: %s, %v", outcome, err)
	}
	mustExec(t, db, "INSERT INTO g (s) VALUES (?)", "after the image")
	want := snapshotBytes(t, db)
	db.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenImage {
		t.Fatalf("checkpointed log bytes changed:\ngot  %q\nwant %q", data, goldenImage)
	}
	if got := reopenState(t, path); got.snap != string(want) || got.lsn != 6 {
		t.Fatalf("golden log reopened at LSN %d, want 6; dump equal %v", got.lsn, got.snap == string(want))
	}
}
