package hub

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ekho/internal/metrics"
	"ekho/internal/transport"
)

// TestAdminEndpoints drives a hub and scrapes its observability plane:
// /metrics must expose live registry counters in Prometheus text format
// and /sessions must serve per-session JSON snapshots.
func TestAdminEndpoints(t *testing.T) {
	mem := NewMemNet()
	conn := mem.Endpoint("hub")
	reg := metrics.NewRegistry()
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: 4, Shards: 2, Metrics: reg}, conn)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer h.Close()

	from := mem.Endpoint("client").LocalAddr()
	h.DispatchBatch([]transport.Message{{
		Type: transport.TypeHello, Session: 7,
		Hello: transport.Hello{Session: 7, Role: transport.RoleScreen},
		Wire:  transport.WireRTP, From: from,
	}})
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Admitted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("session never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	mux := http.NewServeMux()
	h.RegisterAdmin(mux)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, line := range []string{
		"# TYPE ekho_sessions_active gauge",
		"ekho_sessions_active 1",
		"ekho_sessions_admitted_total 1",
		`ekho_shard_packets_total{shard="0"}`,
		"ekho_dispatch_p99_ms",
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("/metrics missing %q in:\n%s", line, body)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/sessions", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/sessions status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/sessions content type %q", ct)
	}
	// Decode into plain maps, not the struct the handler encodes, so a
	// renamed, added or dropped JSON tag fails here: operators and
	// ekhobench scrape these keys by name.
	var infos []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatalf("/sessions JSON: %v\n%s", err, rec.Body.String())
	}
	if len(infos) != 1 || infos[0]["id"] != 7.0 || infos[0]["wire"] != "rtp" {
		t.Fatalf("/sessions = %+v, want one session 7 on rtp wire", infos)
	}
	wantKeys := []string{
		"id", "wire", "frames", "measurements", "actions",
		"pending_markers", "playback_records", "resamples",
		"markers_injected", "markers_matched", "markers_expired", "chat_conceals",
		"isd_last_ms", "isd_peak_abs_ms",
		"chat_reordered", "chat_reorder_late", "chat_reorder_dups", "chat_reorder_flushed",
	}
	var gotKeys []string
	for k := range infos[0] {
		gotKeys = append(gotKeys, k)
	}
	slices.Sort(gotKeys)
	slices.Sort(wantKeys)
	if !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("/sessions keys = %v, want %v", gotKeys, wantKeys)
	}

	// The shared registry handed in via Config is the same one the
	// handler renders: embedders can merge their own metrics into it.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ekho_sessions_active 1") {
		t.Fatal("Config.Metrics registry not wired to hub counters")
	}
}
