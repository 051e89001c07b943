package repl_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/api"
	"repro/internal/kdb"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/vcs"
)

// TestVCSOpsConverge interleaves random writes with every vcs mutator —
// Commit, Branch, Checkout, Merge — on a served primary with a live
// follower and an embedded api cache. After every step, at quiescence, the
// follower's dump equals the primary's, and the cached /v1/io500 answer is
// the one a cold server computes for the state after the step: same body,
// same ETag, stamped at the primary's LSN.
func TestVCSOpsConverge(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { vcsBattery(t, seed, 60) })
	}
}

func vcsBattery(t *testing.T, seed int64, steps int) {
	dir := t.TempDir()
	primary := chaosOpenDB(t, filepath.Join(dir, "primary.kdb"))
	store, err := schema.Wrap(primary)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := store.EnableVersioning()
	if err != nil {
		t.Fatal(err)
	}
	f := repl.NewFollower(chaosOpenDB(t, filepath.Join(dir, "replica.kdb")), chaosServePrimary(t, primary), chaosFastOpts())
	f.Start(context.Background())
	defer f.Stop()
	cached := api.New(api.Config{Store: store, Metrics: telemetry.NewRegistry()})
	defer cached.Close()

	rng := rand.New(rand.NewSource(seed))
	current, branches := "main", []string{"main"}
	if _, _, err := repo.Commit(current, "battery", "base", 0); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		what, err := vcsStep(rng, primary, repo, &current, &branches, step)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		chaosWaitLSN(t, f.DB(), primary.LSN())
		if p, r := chaosDump(t, primary), chaosDump(t, f.DB()); p != r {
			t.Fatalf("step %d (%s): follower diverged at LSN %d", step, what, primary.LSN())
		}
		cold := api.New(api.Config{Store: store, Metrics: telemetry.NewRegistry()})
		want, got := io500Page(cold), io500Page(cached)
		cold.Close()
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() || got.Header().Get("ETag") != want.Header().Get("ETag") {
			t.Fatalf("step %d (%s): cached /v1/io500 (%d, ETag %s) is not the state after the step (ETag %s)",
				step, what, got.Code, got.Header().Get("ETag"), want.Header().Get("ETag"))
		}
		if lsn, _ := strconv.ParseInt(got.Header().Get("X-Knowledge-LSN"), 10, 64); lsn < primary.LSN() {
			t.Fatalf("step %d (%s): cached answer stamped at LSN %d, before %d", step, what, lsn, primary.LSN())
		}
	}
}

func io500Page(s *api.Server) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/io500?limit=500", nil))
	return w
}

// vcsStep runs one random step on the battery's primary and names it.
func vcsStep(rng *rand.Rand, db *kdb.DB, repo *vcs.Repo, current *string, branches *[]string, step int) (string, error) {
	other := (*branches)[rng.Intn(len(*branches))]
	switch op := rng.Intn(12); {
	case op < 3:
		_, err := db.Exec("INSERT INTO IOFHsRuns (command, began) VALUES (?, ?)", fmt.Sprintf("io500 step %d", step), "2024-01-01T00:00:00Z")
		return "insert", err
	case op == 3:
		_, err := db.Exec("UPDATE IOFHsRuns SET command = ? WHERE id = ?", fmt.Sprintf("retuned %d", step), int64(1+rng.Intn(step+1)))
		return "update", err
	case op == 4:
		_, err := db.Exec("DELETE FROM IOFHsRuns WHERE id = ?", int64(1+rng.Intn(step+1)))
		return "delete", err
	case op == 5:
		return "batch", db.Batch(func(exec kdb.ExecFunc) error {
			run, err := exec("INSERT INTO IOFHsRuns (command, began) VALUES (?, ?)", fmt.Sprintf("batch %d", step), "2024-01-02T00:00:00Z")
			if err != nil {
				return err
			}
			_, err = exec("INSERT INTO IOFHsScores (IOFH_id, bw_gib, md_kiops, total) VALUES (?, ?, ?, ?)", run.Ref(), 1.5, 2.5, float64(step))
			return err
		})
	case op < 8:
		_, _, err := repo.Commit(*current, "battery", fmt.Sprintf("step %d", step), 0)
		return "commit " + *current, err
	case op == 8:
		if _, _, err := repo.Commit(*current, "battery", fmt.Sprintf("step %d", step), 0); err != nil {
			return "commit before branch", err
		}
		name, from := fmt.Sprintf("b%d", step), *current
		*branches = append(*branches, name)
		*current = name
		return "branch " + name, repo.Branch(name, from)
	case op == 9:
		*current = other
		return "checkout " + other, repo.Checkout(other)
	default:
		if _, _, err := repo.Commit(*current, "battery", fmt.Sprintf("step %d", step), 0); err != nil {
			return "commit before merge", err
		}
		_, err := repo.Merge(*current, other, "battery", fmt.Sprintf("merge %s", other))
		return "merge " + other + " into " + *current, err
	}
}
