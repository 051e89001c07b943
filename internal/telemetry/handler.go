package telemetry

import (
	"net/http"
	"net/http/pprof"
	"strings"
)

// Handler serves the registry in the Prometheus text exposition format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		r.Snapshot().WriteProm(&b)
		w.Write([]byte(b.String()))
	})
}

// JSONHandler serves the registry as a JSON snapshot with sorted keys
// (deterministic output for diffing and golden tests).
func JSONHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.Snapshot().WriteJSON(w)
	})
}

// Pprof serves the net/http/pprof handlers; mount it at /debug/pprof/.
// Callers gate this behind an explicit flag: profiling endpoints are
// opt-in, never on by default.
func Pprof() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
