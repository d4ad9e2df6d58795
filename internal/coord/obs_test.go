package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpsockit/internal/dse"
	"mpsockit/internal/obs"
)

// TestMetricsEndpoint drives a sweep through a worker with telemetry
// attached and scrapes GET /metrics afterwards: the exposition must
// parse line by line (the same walk the CI farm smoke applies) and the
// farm counters must have moved.
func TestMetricsEndpoint(t *testing.T) {
	srv, err := New(Config{Spec: "smoke", Seed: 1, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	cfg := quickWorker(hs.URL, "w-obs")
	cfg.Obs = dse.NewEvalObs(srv.Registry())
	var traceBuf bytes.Buffer
	cfg.Tracer = obs.NewTracer(&traceBuf)
	w := NewWorker(cfg)
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || name == "" || value == "" {
			t.Fatalf("unparseable sample line %q", line)
		}
		samples[name] = value
	}
	for _, name := range []string{
		"coord_lease_grants_total",
		"coord_results_accepted_total",
		"coord_results_decode_us_count",
		"coord_results_locked_us_count",
		"coord_points_done",
		`coord_worker_heartbeat_age_seconds{worker="w-obs"}`,
		`coord_worker_accepted_total{worker="w-obs"}`,
		"dse_points_total",
		"sim_events_executed_total",
	} {
		v, ok := samples[name]
		if !ok {
			t.Fatalf("metric %s missing from exposition:\n%s", name, body)
		}
		if name != `coord_worker_heartbeat_age_seconds{worker="w-obs"}` && (v == "0" || v == "") {
			t.Fatalf("metric %s = %q, want non-zero", name, v)
		}
	}
	n := len(srv.Points())
	if v, _ := strconv.Atoi(samples["coord_results_accepted_total"]); v != n {
		t.Fatalf("coord_results_accepted_total = %s, want %d", samples["coord_results_accepted_total"], n)
	}
	// The trace includes at least one eval span per point plus
	// lease/flush spans on the coordination row.
	var events []map[string]any
	if err := json.Unmarshal(traceBuf.Bytes(), &events); err != nil {
		t.Fatalf("trace unparseable: %v", err)
	}
	evals, coordSpans := 0, 0
	for _, e := range events {
		switch e["name"] {
		case "eval":
			evals++
		case "lease", "flush":
			coordSpans++
		}
	}
	if evals < n {
		t.Fatalf("trace has %d eval spans for %d points", evals, n)
	}
	if coordSpans == 0 {
		t.Fatal("trace has no lease/flush spans")
	}
}

// TestStatusWorkersAndRate: the enriched status carries the per-worker
// table and a resume-aware throughput/ETA estimate under an injected
// clock.
func TestStatusWorkersAndRate(t *testing.T) {
	clk := newFakeClock()
	srv, err := New(Config{Spec: "smoke", Seed: 1, Chunks: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	w := NewWorker(quickWorker(hs.URL, "w-status"))
	// Advance the fake clock in the background so elapsed time is
	// non-zero by completion; evaluation runs on the real clock. The
	// first tick happens up front: the sweep can finish before the
	// goroutine's first millisecond is up.
	clk.Advance(10 * time.Millisecond)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				clk.Advance(10 * time.Millisecond)
			}
		}
	}()
	err = w.Run(context.Background())
	close(stop)
	if err != nil {
		t.Fatal(err)
	}

	st := srv.Status()
	if !st.Complete {
		t.Fatal("sweep incomplete")
	}
	if len(st.WorkerInfo) != 1 || st.WorkerInfo[0].Name != "w-status" {
		t.Fatalf("worker table %+v, want one row for w-status", st.WorkerInfo)
	}
	if st.WorkerInfo[0].Accepted != int64(st.Total) {
		t.Fatalf("worker accepted %d, want %d", st.WorkerInfo[0].Accepted, st.Total)
	}
	if st.PointsPerSec <= 0 {
		t.Fatalf("points/sec %v, want > 0", st.PointsPerSec)
	}
	if st.ETASeconds != 0 {
		t.Fatalf("ETA %v on a complete sweep, want 0", st.ETASeconds)
	}
}
