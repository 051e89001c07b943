// Package kdbtest holds the fixtures shared by tests of kdb's consumers:
// a served database and an in-memory one, both torn down with the test.
package kdbtest

import (
	"context"
	"testing"
	"time"

	"repro/internal/kdb"
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
