package schema

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/repl"
	"repro/internal/shard"
)

// TestOpenWithReplicaRoutesReads: a URL plus a replica list is all it takes
// to get a routed store — reads reach the caught-up replica, and Status
// lists it.
func TestOpenWithReplicaRoutesReads(t *testing.T) {
	primary := kdbtest.Serve(t, &kdb.Server{DB: kdbtest.MemDB(t, kdb.DBOptions{}), HeartbeatInterval: 50 * time.Millisecond})
	fdb := kdbtest.MemDB(t, kdb.DBOptions{})
	f := repl.NewFollower(fdb, primary, repl.Options{})
	f.Start(context.Background())
	t.Cleanup(f.Stop)
	replica := kdbtest.Serve(t, &kdb.Server{DB: fdb, Role: "replica", ReadOnly: true, Advertise: "follower-1"})

	store, err := Open(primary, replica)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.SaveObject(sampleObject()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); fdb.LSN() < store.DB.LSN(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, store wrote %d", fdb.LSN(), store.DB.LSN())
		}
	}
	objs, err := store.ListObjects()
	if err != nil || len(objs) != 1 {
		t.Fatalf("ListObjects through the router = %v, %v", objs, err)
	}
	router, ok := store.DB.(*repl.Router)
	if !ok {
		t.Fatalf("store connection = %T, want a *repl.Router", store.DB)
	}
	if p, r := router.Stats(); p != 0 || r != 1 {
		t.Errorf("reads: primary=%d replica=%d, want the read on the replica", p, r)
	}
	st := store.Status()
	if st.Role != "primary" || len(st.Replicas) != 1 || st.Replicas[0].Addr != "follower-1" || st.Replicas[0].LagLSN != 0 {
		t.Errorf("status = %+v, want a primary listing its caught-up replica", st)
	}
	// Health is found through the method set, so a wrapper embedding the
	// router (the benchmark's seam wrappers do) still reports as routed.
	wrapped := &Store{DB: struct{ *repl.Router }{router}}
	if st := wrapped.Status(); len(st.Replicas) != 1 {
		t.Errorf("status through an embedding wrapper = %+v, lost the replica list", st)
	}
}

// TestOpenShardedStatusCarriesEpoch: a shard:// store keeps the map it
// discovered, so its status (and /healthz) names the epoch it serves.
func TestOpenShardedStatusCarriesEpoch(t *testing.T) {
	specs := make([]shard.Spec, 2)
	for i := range specs {
		db := kdbtest.MemDB(t, kdb.DBOptions{AutoIDOffset: int64(i), AutoIDStride: int64(len(specs))})
		specs[i].Primary = kdbtest.Serve(t, &kdb.Server{DB: db})
	}
	coord, err := shard.Dial(&shard.Map{Epoch: 5, Shards: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	addr := kdbtest.Serve(t, &kdb.Server{Backend: coord, Role: "coordinator"})

	store, err := Open("shard://" + strings.TrimPrefix(addr, "kdb://"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if st := store.Status(); st.Role != "primary" || st.Epoch != 5 || st.AppliedLSN != store.DB.LSN() {
		t.Errorf("status = %+v, want epoch 5 at the coordinator's LSN %d", st, store.DB.LSN())
	}
	if _, err := Open("shard://"+strings.TrimPrefix(addr, "kdb://"), "kdb://127.0.0.1:1"); err == nil {
		t.Error("a replica list beside a shard:// URL must be refused: the map names the replicas")
	}
}
