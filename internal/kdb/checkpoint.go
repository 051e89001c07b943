package kdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strings"
	"time"
	"unicode/utf8"
)

// The online checkpoint. A file-backed database's log is SQL text, and
// reopening it replays every record ever committed. Once the log has
// passed checkpointFloor and the text after its last checkpoint has
// outgrown that checkpoint (checkpointDue), a commit starts a rewrite of the
// log in the background — Redis's AOF rewrite with an RDB preamble — into:
//
//	imageMagic
//	per table, in snapshot order:
//	  a table block: the table's row count and its CREATE TABLE and
//	    CREATE INDEX records, as a snapshot writes them
//	  row blocks: its rows as typed cells, cut where its snapshot chunks
//	    are (DefaultChunkLines records counted from the CREATE TABLE)
//	an end block
//	the tagged meta record at LSN L (snapshotMetaLocked)
//	the log's bytes after L, verbatim
//
// A block is a kind byte, the payload's length (uvarint), the payload, and
// a CRC32C of the three (4 bytes, little endian). A row block's payload is
// its row count, the length of its cells, the cells, and the bytes of its
// texts; a cell is a kind byte, then nothing (NULL), a zig-zag varint, the
// 8 bytes of a real, or a text's length. Everything before the meta record
// is the image. Only Open reads it (load): the meta record and the records
// after it replay as any log's do, so the meta record's rule sets the LSN
// and empties the catch-up buffer, and a follower resuming from before L
// is sent a snapshot. writeImage is the one writer of an image: Compact and
// RestoreSnapshot write one too, with nothing after its meta record.
// WriteSnapshot, the wire, snapshot chunks and commit hashes stay text.
//
// The rewrite never makes a committer wait for its encoding. The commit
// that triggers it takes the cut at L — the tables, their row counts and
// rewrite stamps, the meta record, where L ends in the log — and the rows
// are encoded in read-lock holds of one block each. A table's rows up to
// its count at L are what they were at L for as long as it is the same
// *Table and has not been rewritten (TableView.Rewritten), since appends
// leave them alone; at each hold the rewrite checks that, and otherwise
// abandons the attempt, which the next commit past the trigger starts
// again. The bytes the log gained meanwhile are copied and synced outside
// the lock; only the last few of them, a second sync, the rename, the
// directory sync and reopening the append handle hold the write lock.

const (
	// checkpointFloor is the log length below which the log is never
	// rewritten: its replay costs less than a rewrite's fsyncs.
	checkpointFloor = 8 << 20
	// imageMagic starts a log that holds a checkpoint image. No JSON-lines
	// log starts with a NUL byte.
	imageMagic = "\x00kdb checkpoint image 1\n"

	blockTable = 'T'
	blockRows  = 'R'
	blockEnd   = 'E'

	cellNull = 0
	cellInt  = 1
	cellReal = 2
	cellText = 3

	ckptWritten   = "written"
	ckptAbandoned = "abandoned"
	ckptFailed    = "failed"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkpointDue is the rewrite trigger: the log has passed the floor and
// the text after its image has outgrown the image. Each rewrite so waits
// for the log to grow by at least the image's length, so the rewrites of a
// growing log add up to a constant multiple of what it holds.
func checkpointDue(size, image int64) bool {
	return size >= checkpointFloor && size-image > image
}

// checkpoint is one online rewrite of the log: the cut at an LSN, taken
// under the write lock by the commit that started it.
type checkpoint struct {
	db     *DB
	meta   []byte // the tagged meta record at the cut
	from   int64  // where the records after the cut start in the log
	gen    int64  // db.logGen at the cut
	tables []cutTable
	stop   chan struct{} // closed by Close
	done   chan struct{} // closed when the attempt is over
	// outcome and err are the attempt's, set before done is closed.
	outcome string
	err     error
}

// cutTable is one table as of the cut.
type cutTable struct {
	key       string
	t         *Table
	rewritten int64
	rows      int
}

// maybeCheckpointLocked starts an online rewrite if the log is due one and
// none is running. db.mu must be held for writing.
func (db *DB) maybeCheckpointLocked() {
	if db.ckpt == nil && !db.closed && db.wal != nil && checkpointDue(db.logSize, db.imageSize) {
		db.startCheckpointLocked()
	}
}

// startCheckpointLocked takes the cut at the current LSN and starts the
// rewrite. db.mu must be held for writing and no rewrite running.
func (db *DB) startCheckpointLocked() *checkpoint {
	ck := &checkpoint{db: db, from: db.logSize, gen: db.logGen,
		stop: make(chan struct{}), done: make(chan struct{})}
	ck.tables, ck.meta, ck.err = db.cutLocked()
	db.ckpt = ck
	go ck.run()
	return ck
}

// cutLocked takes the cut an image is written from: the tables in snapshot
// order with their row counts and rewrite stamps, and the meta record. db.mu
// must be held (read or write).
func (db *DB) cutLocked() ([]cutTable, []byte, error) {
	var tables []cutTable
	for _, key := range db.tablesSorted() {
		t := db.tables[key]
		tables = append(tables, cutTable{key: key, t: t, rewritten: t.rewritten, rows: len(t.Rows)})
	}
	meta, err := db.snapshotMetaLocked()
	return tables, meta, err
}

// run is the rewrite's goroutine: it writes and installs the new log, once
// no other rewriter of the log runs, counts the outcome, and closes done.
func (ck *checkpoint) run() {
	db := ck.db
	start := time.Now()
	outcome, err := ckptFailed, ck.err
	if err == nil {
		db.rewriteMu.Lock()
		outcome, err = ck.write()
		db.rewriteMu.Unlock()
	}
	metCheckpoints[outcome].Inc()
	if outcome == ckptWritten {
		metCheckpointSeconds.Observe(sinceSeconds(start))
	}
	db.mu.Lock()
	db.ckpt = nil
	db.mu.Unlock()
	ck.outcome, ck.err = outcome, err
	close(ck.done)
}

// live reports whether the cut still describes the log being written: the
// rewrite was not stopped and the log not replaced since. db.mu must be
// held (read or write).
func (ck *checkpoint) live() bool {
	select {
	case <-ck.stop:
		return false
	default:
	}
	return ck.db.logGen == ck.gen
}

// errAbandoned ends an attempt whose cut no longer holds.
var errAbandoned = errors.New("kdb: checkpoint abandoned")

// write writes the rewritten log to the temp file and installs it.
func (ck *checkpoint) write() (outcome string, err error) {
	db := ck.db
	tmp := db.path + tempSuffix
	// The log as it is now is the file the bytes after the cut are copied
	// from; a rename over it later leaves this handle reading it still.
	db.mu.RLock()
	var log *os.File
	if ck.live() {
		log, err = os.Open(db.path)
	}
	db.mu.RUnlock()
	if log == nil {
		if err != nil {
			return ckptFailed, err
		}
		return ckptAbandoned, nil
	}
	defer log.Close()
	f, err := createTemp(tmp)
	if err != nil {
		return ckptFailed, err
	}
	defer func() {
		f.Close() // again, after a rename: harmless
		if outcome != ckptWritten {
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 256<<10)
	image, err := writeImage(w, ck.tables, ck.meta, ck.hold)
	if err == errAbandoned {
		return ckptAbandoned, nil
	} else if err != nil {
		return ckptFailed, err
	}

	// The bytes the log gained since the cut, all but the last few outside
	// the lock.
	db.mu.RLock()
	ok, size := ck.live(), db.logSize
	db.mu.RUnlock()
	if !ok {
		return ckptAbandoned, nil
	}
	if _, err := io.Copy(w, io.NewSectionReader(log, ck.from, size-ck.from)); err != nil {
		return ckptFailed, err
	}
	if err := w.Flush(); err != nil {
		return ckptFailed, err
	}
	if err := f.Sync(); err != nil {
		return ckptFailed, err
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if !ck.live() {
		return ckptAbandoned, nil
	}
	if _, err := io.Copy(w, io.NewSectionReader(log, size, db.logSize-size)); err != nil {
		return ckptFailed, err
	}
	if err := w.Flush(); err != nil {
		return ckptFailed, err
	}
	if err := f.Sync(); err != nil {
		return ckptFailed, err
	}
	if err := f.Close(); err != nil {
		return ckptFailed, err
	}
	replaced, err := db.installLocked(tmp, image+int64(len(ck.meta))+db.logSize-ck.from, image)
	if !replaced {
		return ckptFailed, err
	}
	// An error after the rename leaves the new log in place, the rename
	// perhaps not durable.
	return ckptWritten, err
}

// writeImage writes a checkpoint image of tables to w — imageMagic, each
// table's block and its rows a snapshot chunk at a time, the end block —
// then meta, and returns the image's length. It is the one writer of an
// image: hold runs each block's encoding on its table, in one read-lock
// hold for the online checkpoint (which returns errAbandoned once the cut
// no longer holds), at once for Compact and RestoreSnapshot. w's error,
// sticky, surfaces at Flush.
func writeImage(w *bufio.Writer, tables []cutTable, meta []byte, hold func(ct *cutTable, encode func(t *Table) error) error) (int64, error) {
	image, _ := w.WriteString(imageMagic)
	var head, cells, texts []byte
	for i := range tables {
		ct := &tables[i]
		header := 0
		var ddl bytes.Buffer
		err := hold(ct, func(t *Table) error {
			tv := TableView{t: t}
			header = tv.headerRecords()
			return tv.EncodeRecords(&ddl, 0, header)
		})
		if err != nil {
			return 0, err
		}
		image += writeBlock(w, blockTable, binary.AppendUvarint(head[:0], uint64(ct.rows)), ddl.Bytes())
		for from := 0; from < ct.rows; {
			// Rows [from, to): the rest of the snapshot chunk row from is in.
			to := min((from+header)/DefaultChunkLines*DefaultChunkLines+DefaultChunkLines-header, ct.rows)
			err := hold(ct, func(t *Table) (err error) {
				cells, texts, err = appendCells(cells[:0], texts[:0], t.Rows[from:to])
				return err
			})
			if err != nil {
				return 0, err
			}
			head = binary.AppendUvarint(binary.AppendUvarint(head[:0], uint64(to-from)), uint64(len(cells)))
			image += writeBlock(w, blockRows, head, cells, texts)
			from = to
		}
	}
	image += writeBlock(w, blockEnd)
	w.Write(meta)
	return int64(image), nil
}

// hold runs encode on ct's table in one read-lock hold, if the table is
// still as it was at the cut, and returns errAbandoned otherwise.
func (ck *checkpoint) hold(ct *cutTable, encode func(t *Table) error) error {
	db := ck.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !ck.live() || db.tables[ct.key] != ct.t || ct.t.rewritten != ct.rewritten {
		return errAbandoned
	}
	return encode(ct.t)
}

// writeBlock writes one image block, its payload the parts end to end,
// and returns its length; w's error, sticky, surfaces at Flush.
func writeBlock(w *bufio.Writer, kind byte, parts ...[]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	var head [1 + binary.MaxVarintLen64]byte
	head[0] = kind
	h := binary.AppendUvarint(head[:1], uint64(n))
	w.Write(h)
	crc := crc32.Update(0, castagnoli, h)
	for _, p := range parts {
		w.Write(p)
		crc = crc32.Update(crc, castagnoli, p)
	}
	w.Write(binary.LittleEndian.AppendUint32(head[:0], crc))
	return len(h) + n + 4
}

// appendCells appends rows as typed cells to cells, and the bytes of their
// texts to texts. A value is written as a replay of its log record would
// read it back, so a reopen from the image holds what one from text would:
// a NaN is the NaN strconv parses, and a byte that is not UTF-8 is U+FFFD
// (appendString).
func appendCells(cells, texts []byte, rows [][]any) ([]byte, []byte, error) {
	for _, row := range rows {
		for _, v := range row {
			switch x := v.(type) {
			case nil:
				cells = append(cells, cellNull)
			case int64:
				cells = binary.AppendVarint(append(cells, cellInt), x)
			case float64:
				if x != x {
					x = math.NaN()
				}
				cells = binary.LittleEndian.AppendUint64(append(cells, cellReal), math.Float64bits(x))
			case string:
				if !utf8.ValidString(x) {
					x = asLogged(x)
				}
				cells = binary.AppendUvarint(append(cells, cellText), uint64(len(x)))
				texts = append(texts, x...)
			default:
				return cells, texts, fmt.Errorf("kdb: checkpoint: cannot encode %T", v)
			}
		}
	}
	return cells, texts, nil
}

// asLogged is s with each byte that is not UTF-8 replaced by U+FFFD, as
// the log spells it.
func asLogged(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteString("\uFFFD")
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// load reads the log f into db, which nobody else can reach yet: its
// checkpoint image, if it starts with one, then its records. A last record
// that has no newline and does not decode is a write a crash cut short;
// once the rest has replayed, it is cut off the file through wf, the
// handle the log is then appended through.
func (db *DB) load(f *os.File, wf walFile) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("kdb: open log: %w", err)
	}
	size := st.Size()
	end, unterminated, err := wholeRecords(f, size)
	if err != nil {
		return fmt.Errorf("kdb: read log %s: %w", db.path, err)
	}
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, end), 64<<10)
	var image int64
	if head, _ := br.Peek(len(imageMagic)); string(head) == imageMagic {
		if image, err = db.readImage(br, end); err != nil {
			return err
		}
	}
	noMeta := fmt.Errorf("kdb: checkpoint image in %s is not followed by its meta record", db.path)
	metaNext := image > 0
	err = readRecords(db.path, br, func(i int, e *replayEntry) error {
		if metaNext && !e.Tagged {
			return noMeta
		}
		metaNext = false
		return db.replayRecord("replay", i, e)
	})
	if err == nil && metaNext {
		err = noMeta
	}
	if err != nil {
		return err
	}
	if end < size {
		if err := wf.Truncate(end); err != nil {
			return fmt.Errorf("kdb: cut torn record off %s: %w", db.path, err)
		}
		if err := wf.Sync(); err != nil {
			return fmt.Errorf("kdb: cut torn record off %s: %w", db.path, err)
		}
	}
	if unterminated {
		// The next record appended must not run on into this one.
		if _, err := wf.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("kdb: terminate last record of %s: %w", db.path, err)
		}
		end++
	}
	db.logSize, db.imageSize = end, image
	metWALSinceCheckpoint.Set(float64(end - image))
	return nil
}

// wholeRecords returns where the log's whole records end: size, unless
// the bytes after its last newline are neither blank nor a record, when it
// is where they start. unterminated reports a last record that decodes but
// has no newline.
func wholeRecords(f io.ReaderAt, size int64) (end int64, unterminated bool, err error) {
	var last [1]byte
	if size == 0 {
		return 0, false, nil
	}
	if _, err := f.ReadAt(last[:], size-1); err != nil {
		return 0, false, err
	}
	if last[0] == '\n' {
		return size, false, nil
	}
	buf := make([]byte, 64<<10)
	start := int64(0)
	for at := size; at > 0; {
		n := min(at, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], at-n); err != nil {
			return 0, false, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			start = at - n + int64(i) + 1
			break
		}
		at -= n
	}
	frag := make([]byte, size-start)
	if _, err := f.ReadAt(frag, start); err != nil {
		return 0, false, err
	}
	if len(bytes.TrimSpace(frag)) == 0 {
		return size, false, nil
	}
	if _, err := decodeRecord(&cursor{}, frag); err == nil {
		return size, true, nil
	}
	return start, false, nil
}

// imageReader reads the blocks of a checkpoint image.
type imageReader struct {
	br   *bufio.Reader
	n    int64 // bytes read
	size int64 // bytes in the stream
	buf  []byte
}

var errImageTruncated = errors.New("truncated")

// next reads one block. The payload is only valid until the next call.
func (r *imageReader) next() (kind byte, payload []byte, err error) {
	kind, err = r.br.ReadByte()
	if err != nil {
		return 0, nil, errImageTruncated
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, errImageTruncated
	}
	var head [1 + binary.MaxVarintLen64]byte
	head[0] = kind
	h := binary.AppendUvarint(head[:1], n)
	if n > uint64(r.size-r.n) {
		return 0, nil, errImageTruncated
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	payload = r.buf[:n]
	var sum [4]byte
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return 0, nil, errImageTruncated
	}
	if _, err := io.ReadFull(r.br, sum[:]); err != nil {
		return 0, nil, errImageTruncated
	}
	r.n += int64(len(h)) + int64(n) + 4
	if crc32.Update(crc32.Update(0, castagnoli, h), castagnoli, payload) != binary.LittleEndian.Uint32(sum[:]) {
		return 0, nil, errors.New("checksum mismatch")
	}
	return kind, payload, nil
}

// readImage decodes the checkpoint image at the head of br, a log of size
// bytes, into db: each table block's records are applied, and each row
// block's rows decoded straight into its table, whose indexes are left
// stale for their lazy rebuild. It returns the image's length; br is left
// at the record after it.
func (db *DB) readImage(br *bufio.Reader, size int64) (int64, error) {
	br.Discard(len(imageMagic))
	r := imageReader{br: br, n: int64(len(imageMagic)), size: size}
	var t *Table
	for block := 0; ; block++ {
		kind, p, err := r.next()
		if err == nil && kind != blockRows && t != nil && len(t.Rows) != cap(t.Rows) {
			err = fmt.Errorf("table %s has %d of its %d rows", t.Name, len(t.Rows), cap(t.Rows))
		}
		if err == nil {
			switch kind {
			case blockTable:
				t, err = db.imageTable(p, size)
			case blockRows:
				if t == nil {
					err = errors.New("rows before any table")
				} else {
					err = decodeRows(t, p)
				}
			case blockEnd:
				return r.n, nil
			default:
				err = fmt.Errorf("unknown block kind %#x", kind)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("kdb: corrupt checkpoint image in %s: block %d: %w", db.path, block, err)
		}
	}
}

// imageTable applies a table block's records and returns the table, its
// rows to come.
func (db *DB) imageTable(p []byte, size int64) (*Table, error) {
	rows, k := binary.Uvarint(p)
	if k <= 0 || rows > uint64(size) {
		return nil, errors.New("bad row count")
	}
	var c cursor
	var t *Table
	for ddl := p[k:]; len(ddl) > 0; {
		i := bytes.IndexByte(ddl, '\n')
		if i < 0 {
			return nil, errors.New("unterminated record")
		}
		e, err := decodeRecord(&c, ddl[:i])
		if err == nil && e.Meta {
			err = errors.New("meta record")
		}
		if err == nil {
			_, _, err = db.applyLocked(e.SQL, e.Args, false)
		}
		if err == nil && t == nil {
			if stmt, _ := parseCached(e.SQL); stmt != nil {
				if s, ok := stmt.(*createStmt); ok {
					t = db.tables[strings.ToLower(s.Table)]
				}
			}
			if t == nil {
				err = errors.New("no CREATE TABLE first")
			}
		}
		if err != nil {
			return nil, fmt.Errorf("record %q: %w", ddl[:i], err)
		}
		ddl = ddl[i+1:]
	}
	if t == nil {
		return nil, errors.New("no CREATE TABLE")
	}
	t.Rows = make([][]any, 0, rows)
	t.invalidateIndexes()
	return t, nil
}

// decodeRows appends a row block's rows to t. A block is its row count,
// the length of its cells, its cells, and the bytes of its texts, which
// become one string its text cells are cut from. Its rows share one array
// of cells, and a cell equal to the one above it shares that one's value.
func decodeRows(t *Table, p []byte) error {
	n, k := binary.Uvarint(p)
	if k <= 0 {
		return errors.New("bad row count")
	}
	p = p[k:]
	size, k := binary.Uvarint(p)
	if k <= 0 || size > uint64(len(p)-k) {
		return errors.New("bad cells length")
	}
	cells, text := p[k:k+int(size)], string(p[k+int(size):])
	width := len(t.Columns)
	if n > uint64(len(cells)) || int(n)*width > len(cells) || len(t.Rows)+int(n) > cap(t.Rows) {
		return errors.New("bad row count")
	}
	all := make([]any, int(n)*width)
	above := make([]any, width)
	at, ta := 0, 0
	for i := range int(n) {
		row := all[i*width : (i+1)*width : (i+1)*width]
		for j := range row {
			if at >= len(cells) {
				return errors.New("short row")
			}
			kind := cells[at]
			at++
			switch kind {
			case cellNull:
			case cellInt:
				v, m := binary.Varint(cells[at:])
				if m <= 0 {
					return errors.New("bad integer")
				}
				at += m
				if u, ok := above[j].(int64); ok && u == v {
					row[j] = above[j]
				} else {
					row[j] = v
				}
			case cellReal:
				if len(cells)-at < 8 {
					return errors.New("short real")
				}
				bits := binary.LittleEndian.Uint64(cells[at:])
				at += 8
				if u, ok := above[j].(float64); ok && math.Float64bits(u) == bits {
					row[j] = above[j]
				} else {
					row[j] = math.Float64frombits(bits)
				}
			case cellText:
				l, m := binary.Uvarint(cells[at:])
				if m <= 0 || l > uint64(len(text)-ta) {
					return errors.New("bad text")
				}
				at += m
				s := text[ta : ta+int(l)]
				ta += int(l)
				if u, ok := above[j].(string); ok && u == s {
					row[j] = above[j]
				} else {
					row[j] = s
				}
			default:
				return fmt.Errorf("unknown cell kind %#x", kind)
			}
		}
		above = row
		t.Rows = append(t.Rows, row)
	}
	if at != len(cells) || ta != len(text) {
		return errors.New("bytes after the last row")
	}
	return nil
}
