package schema

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/kdb"
	"repro/internal/telemetry"
)

// CampaignMeta is one row of the campaigns table: the sweep-level record
// the parallel scheduler writes once per campaign.
type CampaignMeta struct {
	ID       int64
	Name     string
	BaseSeed uint64
	Workers  int64
	Units    int64
	Began    time.Time
	Finished time.Time
	WallMS   int64
	Status   string
}

// CampaignRun is one executed unit of a campaign: its derived seed, final
// status ("ok", "failed", "cancelled"), attempt count, and the knowledge
// ids its artifacts were persisted under.
type CampaignRun struct {
	Unit      int64
	Name      string
	Seed      uint64
	Status    string
	Attempts  int64
	WallMS    int64
	Error     string
	ObjectIDs []int64
	IO500IDs  []int64
}

// CreateCampaign inserts the campaign header row with status "running" and
// returns its id. FinishCampaign closes it out.
func (s *Store) CreateCampaign(name string, baseSeed uint64, workers, units int, began time.Time) (int64, error) {
	res, err := s.DB.Exec(
		`INSERT INTO campaigns (name, base_seed, workers, units, began, finished, wall_ms, status)
		 VALUES (?, ?, ?, ?, ?, ?, ?, ?)`,
		name, strconv.FormatUint(baseSeed, 10), int64(workers), int64(units),
		began.UTC().Format(timeLayout), "", int64(0), "running")
	if err != nil {
		return 0, err
	}
	return res.LastInsertID, nil
}

// FinishCampaign records the final status and wall time of a campaign.
func (s *Store) FinishCampaign(id int64, status string, finished time.Time, wallMS int64) error {
	_, err := s.DB.Exec(
		"UPDATE campaigns SET status = ?, finished = ?, wall_ms = ? WHERE id = ?",
		status, finished.UTC().Format(timeLayout), wallMS, id)
	return err
}

// AddCampaignRuns persists the per-unit outcome rows of a campaign as one
// batch (kdb.Batch).
func (s *Store) AddCampaignRuns(campaignID int64, runs []CampaignRun) error {
	return kdb.Batch(s.DB, func(exec kdb.ExecFunc) error {
		for _, r := range runs {
			_, err := exec(
				`INSERT INTO campaign_runs (campaign_id, unit, name, seed, status, attempts, wall_ms, error, object_ids, io500_ids)
				 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
				campaignID, r.Unit, r.Name, strconv.FormatUint(r.Seed, 10),
				r.Status, r.Attempts, r.WallMS, r.Error,
				joinIDs(r.ObjectIDs), joinIDs(r.IO500IDs))
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// ListCampaignsPage returns one keyset-paginated page of campaign headers
// (id > afterID, ascending); see Store.ListObjectsPage for the contract.
func (s *Store) ListCampaignsPage(afterID int64, limit int) ([]CampaignMeta, error) {
	rows, err := s.DB.Query(fmt.Sprintf(
		`SELECT id, name, base_seed, workers, units, began, finished, wall_ms, status
		 FROM campaigns WHERE id > ? ORDER BY id LIMIT %d`, limit), afterID)
	if err != nil {
		return nil, err
	}
	var out []CampaignMeta
	for rows.Next() {
		out = append(out, scanCampaign(rows.Row()))
	}
	return out, nil
}

// LoadCampaign returns one campaign header plus its per-unit runs in unit
// order.
func (s *Store) LoadCampaign(id int64) (*CampaignMeta, []CampaignRun, error) {
	step, err := s.DB.QueryBatch(telemetry.TraceContext{}, []kdb.Stmt{
		{SQL: `SELECT id, name, base_seed, workers, units, began, finished, wall_ms, status
		 FROM campaigns WHERE id = ?`, Args: []any{id}},
		{SQL: `SELECT unit, name, seed, status, attempts, wall_ms, error, object_ids, io500_ids
		 FROM campaign_runs WHERE campaign_id = ? ORDER BY unit`, Args: []any{id}},
	})
	if err != nil {
		return nil, nil, err
	}
	if !step[0].Next() {
		return nil, nil, fmt.Errorf("%w: campaign %d", ErrNotFound, id)
	}
	meta := scanCampaign(step[0].Row())
	rows := step[1]
	var runs []CampaignRun
	for rows.Next() {
		r := rows.Row()
		seed, _ := strconv.ParseUint(asString(r[2]), 10, 64)
		runs = append(runs, CampaignRun{
			Unit:      asInt(r[0]),
			Name:      asString(r[1]),
			Seed:      seed,
			Status:    asString(r[3]),
			Attempts:  asInt(r[4]),
			WallMS:    asInt(r[5]),
			Error:     asString(r[6]),
			ObjectIDs: splitIDs(asString(r[7])),
			IO500IDs:  splitIDs(asString(r[8])),
		})
	}
	return &meta, runs, nil
}

func scanCampaign(r []any) CampaignMeta {
	seed, _ := strconv.ParseUint(asString(r[2]), 10, 64)
	began, _ := time.Parse(timeLayout, asString(r[5]))
	finished, _ := time.Parse(timeLayout, asString(r[6]))
	return CampaignMeta{
		ID:       asInt(r[0]),
		Name:     asString(r[1]),
		BaseSeed: seed,
		Workers:  asInt(r[3]),
		Units:    asInt(r[4]),
		Began:    began,
		Finished: finished,
		WallMS:   asInt(r[7]),
		Status:   asString(r[8]),
	}
}

func joinIDs(ids []int64) string {
	if len(ids) == 0 {
		return ""
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(id, 10)
	}
	return strings.Join(parts, ",")
}

func splitIDs(s string) []int64 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, v)
	}
	return out
}
