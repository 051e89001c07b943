package repl_test

import (
	"bytes"
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ior"
	"repro/internal/kdb"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

func chaosSpec(t *testing.T) *campaign.Spec {
	t.Helper()
	var gens []core.Generator
	for _, ts := range []string{"256k", "1m", "4m"} {
		cfg, err := ior.ParseCommandLine("ior -a mpiio -b 4m -t " + ts + " -s 4 -F -C -i 2 -o /scratch/repl")
		if err != nil {
			t.Fatal(err)
		}
		cfg.NumTasks = 40
		cfg.TasksPerNode = 20
		gens = append(gens, core.IORGenerator{Config: cfg})
	}
	gens = append(gens, campaign.CommandGenerator{Label: "io500", Commands: []string{"io500 --tasks 40 --tasks-per-node 20"}})
	return campaign.FromGenerators("repl-chaos", 42, gens)
}

// TestChaosConvergenceUnderCampaign is the tentpole end-to-end scenario: a
// campaign batch-ingests knowledge into a replicated primary through the
// read router while one follower is killed (database closed) and later
// restarted from its on-disk log mid-run. Every node must end
// byte-identical, and the ingesting session must never observe a stale
// read.
func TestChaosConvergenceUnderCampaign(t *testing.T) {
	dir := t.TempDir()
	primary := chaosOpenDB(t, filepath.Join(dir, "primary.kdb"))
	addr := chaosServePrimary(t, primary)

	f1db := chaosOpenDB(t, filepath.Join(dir, "replica1.kdb"))
	f1 := repl.NewFollower(f1db, addr, chaosFastOpts())
	f1.Start(context.Background())
	f2 := repl.NewFollower(chaosOpenDB(t, filepath.Join(dir, "replica2.kdb")), addr, chaosFastOpts())
	f2.Start(context.Background())
	defer f2.Stop()

	rt := repl.NewRouter(primary, LocalReplica{F: f1}, LocalReplica{F: f2})
	st, err := schema.Wrap(rt)
	if err != nil {
		t.Fatal(err)
	}

	// Kill follower 1 on an early unit (stop its sync loop and close its
	// database, as a crashed process would) and restart it from disk on a
	// later unit, while ingestion keeps running.
	var killOnce, restartOnce sync.Once
	sched := &campaign.Scheduler{
		Store:     st,
		Workers:   2,
		BatchSize: 2,
		BeforeAttempt: func(u campaign.Unit, attempt int, m *cluster.Machine) {
			if u.Index >= 1 {
				killOnce.Do(func() {
					f1.Stop()
					if err := f1db.Close(); err != nil {
						t.Errorf("close killed replica: %v", err)
					}
				})
			}
			if u.Index >= 3 {
				restartOnce.Do(func() {
					db, err := kdb.Open(filepath.Join(dir, "replica1.kdb"))
					if err != nil {
						t.Errorf("reopen killed replica: %v", err)
						return
					}
					t.Cleanup(func() { db.Close() })
					f1 = repl.NewFollower(db, addr, chaosFastOpts())
					f1.Start(context.Background())
					t.Cleanup(f1.Stop)
				})
			}
		},
	}
	res, err := sched.Run(context.Background(), chaosSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 4 {
		t.Fatalf("ok = %d, want 4", res.OK)
	}
	if res.FinalLSN != primary.LSN() {
		t.Errorf("FinalLSN = %d, primary LSN = %d", res.FinalLSN, primary.LSN())
	}

	// The ingesting session's reads are correct immediately — replicas may
	// lag, but then the router must answer from the primary.
	metas, err := st.ListObjects()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Errorf("ListObjects through router = %d objects, want 3", len(metas))
	}

	// Both followers — including the one that was killed and restarted —
	// converge to the primary's exact bytes.
	chaosWaitLSN(t, f1.DB(), res.FinalLSN)
	chaosWaitLSN(t, f2.DB(), res.FinalLSN)
	want := chaosDump(t, primary)
	if got := chaosDump(t, f1.DB()); got != want {
		t.Error("restarted follower did not converge byte-identically")
	}
	if got := chaosDump(t, f2.DB()); got != want {
		t.Error("surviving follower did not converge byte-identically")
	}

	// With everyone converged, the writing session's reads now come from
	// replicas.
	pBefore, rBefore := rt.Stats()
	if _, err := st.ListObjects(); err != nil {
		t.Fatal(err)
	}
	pAfter, rAfter := rt.Stats()
	if pAfter != pBefore || rAfter <= rBefore {
		t.Errorf("post-convergence reads should hit replicas: primary %d->%d, replica %d->%d",
			pBefore, pAfter, rBefore, rAfter)
	}
}

// LocalReplica adapts an in-process Follower into a repl.Replica, so the
// router reads a follower's copy without a network hop.
type LocalReplica struct{ F *repl.Follower }

func (l LocalReplica) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	return l.F.DB().QueryTraced(tc, query, args...)
}

func (l LocalReplica) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	return l.F.DB().QueryBatch(tc, stmts)
}

func (l LocalReplica) Status() (kdb.NodeStatus, error) { return l.F.Status() }

var _ repl.Replica = LocalReplica{}

// The helpers below are chaos-local copies of the package's test
// helpers: this file lives in the external repl_test package because it
// imports schema, which itself imports repl for shard-side routing.

func chaosFastOpts() repl.Options {
	return repl.Options{
		HeartbeatTimeout: 500 * time.Millisecond,
		RetryMin:         10 * time.Millisecond,
		RetryMax:         100 * time.Millisecond,
	}
}

func chaosServePrimary(t *testing.T, db *kdb.DB) string {
	t.Helper()
	srv := &kdb.Server{DB: db, HeartbeatInterval: 50 * time.Millisecond}
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

func chaosOpenDB(t *testing.T, path string) *kdb.DB {
	t.Helper()
	db, err := kdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func chaosWaitLSN(t *testing.T, db *kdb.DB, lsn int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for db.LSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for LSN %d, stuck at %d", lsn, db.LSN())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func chaosDump(t *testing.T, db *kdb.DB) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
