package hub

import (
	"encoding/json"
	"net/http"

	"ekho/internal/trace"
)

// RegisterAdmin mounts the hub's observability endpoints on mux:
//
//	GET /metrics   Prometheus text exposition of every hub counter,
//	               gauge and derived quantile (internal/metrics).
//	GET /sessions  JSON array of per-session trace.SessionStat
//	               records (the same records SIGHUP prints and
//	               ekho-replay reports), sorted by session ID.
//
// Both are cheap enough to scrape continuously: /metrics reads each
// metric with one atomic load; /sessions snapshots on the shard workers
// and so waits briefly behind in-flight packet work.
//
// cmd/ekho-server mounts these on the -pprof mux; embedders can mount
// them anywhere (the handlers hold only the *Hub).
func (h *Hub) RegisterAdmin(mux *http.ServeMux) {
	mux.Handle("/metrics", h.stats.reg.Handler())
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, _ *http.Request) {
		stats := h.SessionInfos()
		if stats == nil {
			stats = []trace.SessionStat{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(stats)
	})
}
