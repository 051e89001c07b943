package repl

import (
	"encoding/json"
	"net/http"

	"repro/internal/kdb"
)

// Status is the replication health payload served at /healthz by both the
// explorer and `iokc servedb`.
type Status struct {
	Role string `json:"role"`
	// Addr is this node's advertised address; PrimaryAddr is the primary
	// a replica follows.
	Addr        string  `json:"addr,omitempty"`
	PrimaryAddr string  `json:"primary_addr,omitempty"`
	AppliedLSN  int64   `json:"applied_lsn"`
	PrimaryLSN  int64   `json:"primary_lsn,omitempty"`
	LagLSN      int64   `json:"lag_lsn"`
	LagSeconds  float64 `json:"lag_seconds"`
	Resyncs     int64   `json:"resyncs,omitempty"`
	LastError   string  `json:"last_error,omitempty"`
	// Epoch is the shard-map epoch this node serves (coordinator nodes and
	// stores opened from a shard:// URL); 0 when unsharded. Load balancers
	// use it to spot nodes still advertising a superseded partition map.
	Epoch int64 `json:"shard_epoch,omitempty"`
	// ReplLagLSN and ReplLagSeconds aggregate the worst replica lag under
	// this node (0 with no replicas or when all are caught up) — the one
	// number a load balancer needs to decide whether to drain. They mirror
	// the repl_lag_lsn / repl_lag_seconds Prometheus gauges.
	ReplLagLSN     int64    `json:"repl_lag_lsn"`
	ReplLagSeconds float64  `json:"repl_lag_seconds"`
	Replicas       []Status `json:"replicas,omitempty"`
}

// HealthHandler serves the given status snapshot as JSON. A replica that
// has never reached its primary still answers 200 — liveness and
// replication lag are separate signals, and the lag fields carry the bad
// news.
func HealthHandler(status func() Status) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(status())
	})
}

// PrimaryStatus builds the status function for a node serving its own
// authoritative database.
func PrimaryStatus(db *kdb.DB, addr string) func() Status {
	return func() Status {
		return Status{Role: "primary", Addr: addr, AppliedLSN: db.LSN()}
	}
}

// Health reports the Router's view: the primary's position plus each
// replica's last-known applied LSN.
func (rt *Router) Health() Status {
	st := Status{Role: "primary", AppliedLSN: rt.primary.LSN()}
	for _, rs := range rt.replicas {
		rst := Status{Role: "replica", AppliedLSN: rs.knownLSN.Load()}
		if ns, err := rs.r.Status(); err == nil {
			rst.AppliedLSN = ns.LSN
			rst.Addr = ns.Addr
			rs.knownLSN.Store(ns.LSN)
		} else {
			rst.LastError = err.Error()
		}
		if lag := st.AppliedLSN - rst.AppliedLSN; lag > 0 {
			rst.LagLSN = lag
		}
		if rst.LagLSN > st.ReplLagLSN {
			st.ReplLagLSN = rst.LagLSN
		}
		if rst.LagSeconds > st.ReplLagSeconds {
			st.ReplLagSeconds = rst.LagSeconds
		}
		st.Replicas = append(st.Replicas, rst)
	}
	return st
}
