// Package kdbtest holds the fixtures shared by tests of kdb's consumers:
// a served database and an in-memory one, both torn down with the test,
// and a connection that fails on cue.
package kdbtest

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/telemetry"
)

// Serve serves srv on a loopback port until the test ends and returns its
// kdb:// URL.
func Serve(t testing.TB, srv *kdb.Server) string {
	t.Helper()
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return "kdb://" + l.Addr().String()
}

// MemDB opens an in-memory database that is closed when the test ends.
func MemDB(t testing.TB, opts kdb.DBOptions) *kdb.DB {
	t.Helper()
	db, err := kdb.OpenWithOptions("", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// ErrInjected is the failure a FailNth connection returns.
var ErrInjected = errors.New("kdbtest: injected failure")

// FailNth is a connection whose N-th read (counting from 1) fails with
// ErrInjected instead of reaching the connection it wraps — a transport or
// replica failure in the middle of a multi-statement load. Each statement of
// a read step counts as one read, and the N-th one fails the whole step.
// N = 0 never fails; Reads counts the reads seen so far either way.
type FailNth struct {
	kdb.Conn
	N     int
	Reads int
}

func (c *FailNth) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	c.Reads++
	if c.Reads == c.N {
		return nil, ErrInjected
	}
	return c.Conn.QueryTraced(tc, query, args...)
}

func (c *FailNth) Query(query string, args ...any) (*kdb.Rows, error) {
	return c.QueryTraced(telemetry.TraceContext{}, query, args...)
}

func (c *FailNth) QueryRow(query string, args ...any) ([]any, error) {
	return kdb.FirstRow(c.Query(query, args...))
}

func (c *FailNth) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	first := c.Reads + 1
	c.Reads += len(stmts)
	if first <= c.N && c.N <= c.Reads {
		return nil, ErrInjected
	}
	return c.Conn.QueryBatch(tc, stmts)
}
