package explorer

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/repl"
	"repro/internal/schema"
)

func getHealth(t *testing.T, srv http.Handler) repl.Status {
	t.Helper()
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var st repl.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode /healthz: %v\n%s", err, rec.Body.String())
	}
	return st
}

func TestHealthzStandalonePrimary(t *testing.T) {
	store, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store)
	defer srv.Close()
	st := getHealth(t, srv)
	if st.Role != "primary" {
		t.Errorf("role = %q, want primary", st.Role)
	}
	// The DDL alone advanced the local database's LSN, and the default
	// health source reads it off the store connection.
	if st.AppliedLSN == 0 {
		t.Error("applied LSN = 0, want the store's commit position")
	}
	if len(st.Replicas) != 0 {
		t.Errorf("standalone primary reports replicas: %+v", st.Replicas)
	}
}

// TestHealthzRoutedStore: a store opened with a replica list serves the
// router's view — the replica, its applied LSN and its lag — with no
// health source wired beside the store. The replica here follows nothing,
// so its lag is exactly the primary's position.
func TestHealthzRoutedStore(t *testing.T) {
	primary := kdbtest.Serve(t, &kdb.Server{DB: kdbtest.MemDB(t, kdb.DBOptions{})})
	replica := kdbtest.Serve(t, &kdb.Server{DB: kdbtest.MemDB(t, kdb.DBOptions{}), Role: "replica", ReadOnly: true, Advertise: "replica-1"})
	store, err := schema.Open(primary, replica)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store)
	defer srv.Close()
	st := getHealth(t, srv)
	if st.Role != "primary" || st.AppliedLSN == 0 {
		t.Fatalf("health = %+v, want a primary past its DDL", st)
	}
	if len(st.Replicas) != 1 {
		t.Fatalf("replicas = %+v, want the one routed replica", st.Replicas)
	}
	r := st.Replicas[0]
	if r.Role != "replica" || r.Addr != "replica-1" || r.AppliedLSN != 0 || r.LagLSN != st.AppliedLSN {
		t.Errorf("replica health = %+v (primary at %d)", r, st.AppliedLSN)
	}
	if st.ReplLagLSN != r.LagLSN {
		t.Errorf("worst replica lag = %d, want %d", st.ReplLagLSN, r.LagLSN)
	}
}
