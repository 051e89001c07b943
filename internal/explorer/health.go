package explorer

import (
	"net/http"

	"repro/internal/repl"
)

// handleHealthz reports the store's replication health: router status when
// it fronts replicas, a standalone primary's LSN otherwise, plus the
// shard-map epoch when sharded (schema.Store.Status).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	repl.HealthHandler(s.Store.Status).ServeHTTP(w, r)
}
