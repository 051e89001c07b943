package kdb

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServerFull is like startServer but hands back the Server so tests
// can exercise its lifecycle.
func startServerFull(t *testing.T, srv *Server) string {
	t.Helper()
	if srv.DB == nil {
		db, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		srv.DB = db
	}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return l.Addr().String()
}

func TestServerGracefulShutdown(t *testing.T) {
	srv := &Server{}
	addr := startServerFull(t, srv)
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Exec("CREATE TABLE s (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The idle client connection was closed; a non-idempotent request
	// surfaces the transport error rather than retrying.
	if _, err := r.Exec("INSERT INTO s (id) VALUES (1)"); err == nil {
		t.Error("exec against a shut-down server should fail")
	}
	// New dials are refused.
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Error("listener should be closed after Shutdown")
	}
	// Serve after Shutdown refuses.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); err == nil {
		t.Error("Serve on a shut-down server should error")
	}
}

// TestServeShutdownRace dials a server while it shuts down: a connection
// accepted after Shutdown began must not join the wait group Shutdown is
// already waiting on (the race detector reports that), and Shutdown must
// still return once every accepted connection is closed.
func TestServeShutdownRace(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for round := 0; round < 300; round++ {
		srv := &Server{DB: db}
		l, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		var dials sync.WaitGroup
		for i := 0; i < 4; i++ {
			dials.Add(1)
			go func() {
				defer dials.Done()
				if c, err := net.Dial("tcp", addr); err == nil {
					c.Close()
				}
			}()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: Shutdown: %v", round, err)
		}
		dials.Wait()
	}
}

func TestServerMaxConns(t *testing.T) {
	srv := &Server{MaxConns: 1}
	addr := startServerFull(t, srv)
	r1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	if _, err := r1.Exec("CREATE TABLE m (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	// Second connection is over the cap: it gets a structured refusal.
	r2, err := Dial(addr)
	if err != nil {
		t.Fatal(err) // TCP accept itself succeeds
	}
	defer r2.Close()
	_, err = r2.Query("SELECT id FROM m")
	if err == nil || !strings.Contains(err.Error(), "connection limit") {
		t.Errorf("over-limit query error = %v, want connection limit refusal", err)
	}
	// The first client is unaffected.
	if _, err := r1.Query("SELECT id FROM m"); err != nil {
		t.Errorf("in-limit client broken: %v", err)
	}
	// Once the first client leaves, capacity frees up.
	r1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		r3, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		_, qerr := r3.Query("SELECT id FROM m")
		r3.Close()
		if qerr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity never freed: %v", qerr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerMalformedRequest(t *testing.T) {
	srv := &Server{}
	addr := startServerFull(t, srv)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var resp wireResponse
	if err := json.NewDecoder(bufio.NewReader(c)).Decode(&resp); err != nil {
		t.Fatalf("no structured response to malformed request: %v", err)
	}
	if !strings.Contains(resp.Err, "malformed request") {
		t.Errorf("response = %+v, want malformed-request error", resp)
	}
	// The server closes the connection afterwards.
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Error("connection should be closed after a malformed request")
	}
}

// TestRemoteReconnect: after the server drops an idle connection, the next
// idempotent request transparently redials; mutations report the break but
// recover on the following request.
func TestRemoteReconnect(t *testing.T) {
	srv := &Server{IdleTimeout: 50 * time.Millisecond}
	addr := startServerFull(t, srv)
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Exec("CREATE TABLE rc (id INTEGER PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exec("INSERT INTO rc (v) VALUES ('x')"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // server idle-closes the connection
	rows, err := r.Query("SELECT v FROM rc")
	if err != nil {
		t.Fatalf("query should reconnect transparently: %v", err)
	}
	if rows.Len() != 1 {
		t.Errorf("rows = %d, want 1", rows.Len())
	}
	time.Sleep(200 * time.Millisecond)
	if tables := r.Tables(); len(tables) != 1 || tables[0] != "rc" {
		t.Errorf("Tables after idle close = %v", tables)
	}
	time.Sleep(200 * time.Millisecond)
	// A mutation on a broken connection is NOT retried...
	if _, err := r.Exec("INSERT INTO rc (v) VALUES ('y')"); err == nil {
		t.Error("exec on a broken connection should surface the error")
	}
	// ...but the client recovers on the next request.
	if _, err := r.Exec("INSERT INTO rc (v) VALUES ('z')"); err != nil {
		t.Errorf("exec after lazy reconnect: %v", err)
	}
	row, err := r.QueryRow("SELECT COUNT(*) FROM rc")
	if err != nil || row[0] != int64(2) {
		t.Errorf("count = %v, %v, want 2", row, err)
	}
}

// TestApplicationErrorKeepsConnection: SQL errors must not tear down the
// client connection (only transport failures do).
func TestApplicationErrorKeepsConnection(t *testing.T) {
	srv := &Server{}
	addr := startServerFull(t, srv)
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Exec("BOGUS"); err == nil {
		t.Fatal("parse error expected")
	}
	r.mu.Lock()
	alive := r.conn != nil
	r.mu.Unlock()
	if !alive {
		t.Error("application error dropped the connection")
	}
}

func TestRemoteErrNoRows(t *testing.T) {
	srv := &Server{}
	addr := startServerFull(t, srv)
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Exec("CREATE TABLE e (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	_, err = r.QueryRow("SELECT id FROM e WHERE id = 7")
	if !errors.Is(err, ErrNoRows) {
		t.Errorf("remote QueryRow on empty result = %v, want ErrNoRows", err)
	}
}

// TestRemoteClientsWithCompact runs parallel remote clients against a
// file-backed database that is concurrently compacted; run with -race.
func TestRemoteClientsWithCompact(t *testing.T) {
	db, err := Open(t.TempDir() + "/served.db")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE c (id INTEGER PRIMARY KEY, n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	srv := &Server{DB: db}
	addr := startServerFull(t, srv)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			for i := 0; i < 30; i++ {
				if _, err := r.Exec("INSERT INTO c (n) VALUES (?)", g*100+i); err != nil {
					errs <- err
					return
				}
				if _, err := r.Query("SELECT n FROM c WHERE id = ?", i+1); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := db.Compact(); err != nil {
				errs <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	row, err := db.QueryRow("SELECT COUNT(*) FROM c")
	if err != nil || row[0] != int64(90) {
		t.Errorf("count = %v, %v, want 90", row, err)
	}
}
