package kdbtest

import (
	"errors"
	"io"
	"os"
)

// FaultMode is what a FaultFile does at its fault offset.
type FaultMode int

const (
	// ShortWrite: the write that reaches the offset writes only the bytes
	// before it and returns io.ErrShortWrite. Later calls go through.
	ShortWrite FaultMode = iota
	// Fail: the write that reaches the offset writes nothing and returns
	// ErrInjected. Later calls go through.
	Fail
	// Kill: the process "dies" at the offset. The bytes before it reach the
	// file, OnKill runs, and that call and every later one fail with
	// ErrKilled. A kill no write reached lands on the first Sync, Truncate or
	// Close after the offset's bytes are written.
	Kill
)

// ErrKilled is what every call on a FaultFile returns once it is killed.
var ErrKilled = errors.New("kdbtest: killed")

// FaultFile is a log file that fails on cue at byte At of its writes. It has
// the methods kdb writes its logs through (Write, Sync, Truncate, Close), so
// a crash test can put one in place of the append handle or a rewrite's temp
// file. A kill keeps exactly the bytes before At on disk and calls OnKill
// at that moment, before any error reaches the caller and its cleanup runs:
// OnKill copies the files as a crash would leave them.
type FaultFile struct {
	File   *os.File
	Mode   FaultMode
	At     int64
	OnKill func()

	written int64
	fired   bool
	dead    bool
}

// Killed reports whether the file has been killed.
func (f *FaultFile) Killed() bool { return f.dead }

func (f *FaultFile) Write(p []byte) (int, error) {
	if f.dead {
		return 0, ErrKilled
	}
	if f.fired || f.written+int64(len(p)) <= f.At {
		n, err := f.File.Write(p)
		f.written += int64(n)
		return n, err
	}
	f.fired = true
	keep := f.At - f.written
	if f.Mode == Fail {
		return 0, ErrInjected
	}
	n, err := f.File.Write(p[:keep])
	f.written += int64(n)
	if f.Mode == Kill {
		f.kill()
		return n, ErrKilled
	}
	if err == nil {
		err = io.ErrShortWrite
	}
	return n, err
}

// kill ends the file's life at At, if no earlier call did.
func (f *FaultFile) kill() {
	f.dead = true
	if f.OnKill != nil {
		f.OnKill()
	}
}

// due kills the file on a call other than Write once its At bytes are
// written, and reports whether it is dead.
func (f *FaultFile) due() bool {
	if !f.dead && !f.fired && f.Mode == Kill && f.written >= f.At {
		f.fired = true
		f.kill()
	}
	return f.dead
}

func (f *FaultFile) Sync() error {
	if f.due() {
		return ErrKilled
	}
	return f.File.Sync()
}

func (f *FaultFile) Truncate(size int64) error {
	if f.due() {
		return ErrKilled
	}
	return f.File.Truncate(size)
}

// Close closes the file it wraps in any case, so a killed file leaks no
// descriptor.
func (f *FaultFile) Close() error {
	dead := f.due()
	err := f.File.Close()
	if dead {
		return ErrKilled
	}
	return err
}
