// Package darshan implements a Darshan-style I/O characterization log: a
// compact binary format holding per-job metadata, per-file instrumentation
// counters for the POSIX/MPI-IO/STDIO modules, and optional DXT (extended
// tracing) segments. The paper plugs Darshan in as an additional knowledge
// source and reads logs through PyDarshan; since no Darshan bindings exist
// for Go, this package defines a format-compatible-in-spirit log, a writer
// (playing the role of the instrumented application), and a parser (playing
// the role of PyDarshan) so the extractor exercises the same code path.
package darshan

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Magic is the log file signature.
var Magic = [4]byte{'D', 'S', 'H', 'N'}

// FormatVersion is the current log format version.
const FormatVersion uint32 = 1

// Module names, matching Darshan's instrumentation modules.
const (
	ModulePOSIX = "POSIX"
	ModuleMPIIO = "MPI-IO"
	ModuleSTDIO = "STDIO"
)

// Common POSIX-module counter names.
const (
	CounterOpens        = "POSIX_OPENS"
	CounterReads        = "POSIX_READS"
	CounterWrites       = "POSIX_WRITES"
	CounterBytesRead    = "POSIX_BYTES_READ"
	CounterBytesWritten = "POSIX_BYTES_WRITTEN"
	FCounterReadTime    = "POSIX_F_READ_TIME"
	FCounterWriteTime   = "POSIX_F_WRITE_TIME"
	FCounterMetaTime    = "POSIX_F_META_TIME"
)

// OpKind distinguishes DXT write and read segments.
type OpKind uint8

// DXT segment kinds.
const (
	OpWrite OpKind = 0
	OpRead  OpKind = 1
)

// Record is one per-file, per-module instrumentation record. Rank -1 means
// the record aggregates all ranks (shared file records).
type Record struct {
	Module    string
	Rank      int32
	RecordID  uint64
	FileName  string
	Counters  map[string]int64
	FCounters map[string]float64
}

// Segment is one DXT trace event: a single I/O operation with its file
// offset, length, and start/end times relative to job start.
type Segment struct {
	Module   string
	Rank     int32
	Op       OpKind
	Offset   int64
	Length   int64
	StartSec float64
	EndSec   float64
}

// Log is a complete Darshan-style log.
type Log struct {
	JobID     uint64
	UID       uint32
	NProcs    int32
	StartTime int64 // unix seconds
	EndTime   int64
	ExeName   string
	Records   []Record
	DXT       []Segment
}

// RecordsFor returns the records of one module.
func (l *Log) RecordsFor(module string) []Record {
	var out []Record
	for _, r := range l.Records {
		if r.Module == module {
			out = append(out, r)
		}
	}
	return out
}

// TotalCounter sums a counter across all records of a module.
func (l *Log) TotalCounter(module, counter string) int64 {
	var sum int64
	for _, r := range l.Records {
		if r.Module == module {
			sum += r.Counters[counter]
		}
	}
	return sum
}

// Write encodes the log: a 8-byte uncompressed header (magic + version)
// followed by a zlib-compressed body, mirroring real Darshan's compressed
// regions.
func Write(w io.Writer, l *Log) error {
	if _, err := w.Write(Magic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, FormatVersion); err != nil {
		return err
	}
	zw := zlib.NewWriter(w)
	if err := writeBody(zw, l); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

func writeBody(w io.Writer, l *Log) error {
	le := binary.LittleEndian
	put := func(v any) error { return binary.Write(w, le, v) }
	if err := put(l.JobID); err != nil {
		return err
	}
	if err := put(l.UID); err != nil {
		return err
	}
	if err := put(l.NProcs); err != nil {
		return err
	}
	if err := put(l.StartTime); err != nil {
		return err
	}
	if err := put(l.EndTime); err != nil {
		return err
	}
	if err := writeString(w, l.ExeName); err != nil {
		return err
	}
	if err := put(uint32(len(l.Records))); err != nil {
		return err
	}
	for _, r := range l.Records {
		if err := writeString(w, r.Module); err != nil {
			return err
		}
		if err := put(r.Rank); err != nil {
			return err
		}
		if err := put(r.RecordID); err != nil {
			return err
		}
		if err := writeString(w, r.FileName); err != nil {
			return err
		}
		if err := put(uint32(len(r.Counters))); err != nil {
			return err
		}
		for _, k := range sortedKeys(r.Counters) {
			if err := writeString(w, k); err != nil {
				return err
			}
			if err := put(r.Counters[k]); err != nil {
				return err
			}
		}
		if err := put(uint32(len(r.FCounters))); err != nil {
			return err
		}
		for _, k := range sortedKeysF(r.FCounters) {
			if err := writeString(w, k); err != nil {
				return err
			}
			if err := put(r.FCounters[k]); err != nil {
				return err
			}
		}
	}
	if err := put(uint32(len(l.DXT))); err != nil {
		return err
	}
	for _, s := range l.DXT {
		if err := writeString(w, s.Module); err != nil {
			return err
		}
		if err := put(s.Rank); err != nil {
			return err
		}
		if err := put(s.Op); err != nil {
			return err
		}
		if err := put(s.Offset); err != nil {
			return err
		}
		if err := put(s.Length); err != nil {
			return err
		}
		if err := put(s.StartSec); err != nil {
			return err
		}
		if err := put(s.EndSec); err != nil {
			return err
		}
	}
	return nil
}

// maxItems bounds decoded collection sizes to keep corrupt inputs from
// triggering huge allocations.
const maxItems = 1 << 24

// Read decodes a log written by Write. It validates the magic, version,
// and structural bounds, and returns descriptive errors for corrupt input.
func Read(r io.Reader) (*Log, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("darshan: short header: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("darshan: bad magic %q", magic[:])
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("darshan: missing version: %w", err)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("darshan: unsupported format version %d", version)
	}
	zr, err := zlib.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("darshan: corrupt compressed body: %w", err)
	}
	defer zr.Close()
	l, err := readBody(zr)
	if err != nil {
		return nil, err
	}
	// Drain to EOF so zlib verifies the trailing checksum; this catches
	// logs truncated inside the final compressed block.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, fmt.Errorf("darshan: corrupt trailer: %w", err)
	}
	return l, nil
}

func readBody(r io.Reader) (*Log, error) {
	le := binary.LittleEndian
	l := &Log{}
	get := func(v any) error { return binary.Read(r, le, v) }
	if err := get(&l.JobID); err != nil {
		return nil, fmt.Errorf("darshan: truncated job header: %w", err)
	}
	if err := get(&l.UID); err != nil {
		return nil, err
	}
	if err := get(&l.NProcs); err != nil {
		return nil, err
	}
	if err := get(&l.StartTime); err != nil {
		return nil, err
	}
	if err := get(&l.EndTime); err != nil {
		return nil, err
	}
	exe, err := readString(r)
	if err != nil {
		return nil, err
	}
	l.ExeName = exe
	var nrec uint32
	if err := get(&nrec); err != nil {
		return nil, err
	}
	if nrec > maxItems {
		return nil, fmt.Errorf("darshan: unreasonable record count %d", nrec)
	}
	for i := uint32(0); i < nrec; i++ {
		var rec Record
		if rec.Module, err = readString(r); err != nil {
			return nil, fmt.Errorf("darshan: record %d: %w", i, err)
		}
		if err := get(&rec.Rank); err != nil {
			return nil, err
		}
		if err := get(&rec.RecordID); err != nil {
			return nil, err
		}
		if rec.FileName, err = readString(r); err != nil {
			return nil, err
		}
		var nc uint32
		if err := get(&nc); err != nil {
			return nil, err
		}
		if nc > maxItems {
			return nil, fmt.Errorf("darshan: unreasonable counter count %d", nc)
		}
		rec.Counters = make(map[string]int64, nc)
		for j := uint32(0); j < nc; j++ {
			k, err := readString(r)
			if err != nil {
				return nil, err
			}
			var v int64
			if err := get(&v); err != nil {
				return nil, err
			}
			rec.Counters[k] = v
		}
		var nf uint32
		if err := get(&nf); err != nil {
			return nil, err
		}
		if nf > maxItems {
			return nil, fmt.Errorf("darshan: unreasonable fcounter count %d", nf)
		}
		rec.FCounters = make(map[string]float64, nf)
		for j := uint32(0); j < nf; j++ {
			k, err := readString(r)
			if err != nil {
				return nil, err
			}
			var v float64
			if err := get(&v); err != nil {
				return nil, err
			}
			rec.FCounters[k] = v
		}
		l.Records = append(l.Records, rec)
	}
	var nseg uint32
	if err := get(&nseg); err != nil {
		return nil, err
	}
	if nseg > maxItems {
		return nil, fmt.Errorf("darshan: unreasonable segment count %d", nseg)
	}
	for i := uint32(0); i < nseg; i++ {
		var s Segment
		if s.Module, err = readString(r); err != nil {
			return nil, fmt.Errorf("darshan: segment %d: %w", i, err)
		}
		if err := get(&s.Rank); err != nil {
			return nil, err
		}
		if err := get(&s.Op); err != nil {
			return nil, err
		}
		if err := get(&s.Offset); err != nil {
			return nil, err
		}
		if err := get(&s.Length); err != nil {
			return nil, err
		}
		if err := get(&s.StartSec); err != nil {
			return nil, err
		}
		if err := get(&s.EndSec); err != nil {
			return nil, err
		}
		l.DXT = append(l.DXT, s)
	}
	return l, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("darshan: string too long (%d bytes)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("darshan: truncated string length: %w", err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("darshan: truncated string body: %w", err)
	}
	return string(buf), nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysF(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Marshal encodes the log to a byte slice.
func Marshal(l *Log) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes a log from a byte slice.
func Unmarshal(b []byte) (*Log, error) {
	return Read(bytes.NewReader(b))
}
