package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the exposition golden file")

// goldenRegistry builds a registry with one instrument of every kind
// at fixed values, so the exposition bytes are deterministic.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("farm_lease_grants_total", "Leases granted to workers.").Add(17)
	r.Counter("farm_results_accepted_total", "Result lines accepted.", "worker", "w-1").Add(3)
	r.Counter("farm_results_accepted_total", "Result lines accepted.", "worker", "w-0").Add(9)
	r.Gauge("farm_points_done", "Points with an accepted result.").Max(12)
	r.GaugeFunc("farm_worker_heartbeat_age_seconds", "Seconds since the worker was last heard from.",
		func() float64 { return 1.5 }, "worker", "w-0")
	r.CounterFunc("farm_reclaims_total", "Expired leases reclaimed.", func() float64 { return 2 })
	h := r.Histogram("eval_latency_us", "Per-point evaluation latency.", "fid", "mvp")
	for _, v := range []int64{0, 1, 3, 4, 100, 1 << 20} {
		h.Observe(v)
	}
	return r
}

// TestPrometheusExpositionGolden pins the exposition format against a
// committed golden file: families sorted and HELP/TYPE'd once,
// labeled series sorted, histograms expanded into cumulative
// buckets with power-of-two le bounds plus _sum and _count.
// Regenerate deliberately with:
//
//	go test ./internal/obs/ -run TestPrometheusExpositionGolden -update-golden
func TestPrometheusExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestExpositionParses walks every exposition line and checks the
// text-format grammar a Prometheus scraper relies on: HELP/TYPE
// comments, then `name{labels} value` samples — the same check the
// farm CI smoke applies to a live /metrics scrape.
func TestExpositionParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	samples := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || name == "" || value == "" {
			t.Fatalf("unparseable sample line %q", line)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 && !strings.HasSuffix(name, "}") {
			t.Fatalf("unbalanced label braces in %q", line)
		}
		samples++
	}
	if samples < 8 {
		t.Fatalf("only %d samples in exposition", samples)
	}
}

// TestHandler: the HTTP handler serves the exposition with the
// text-format content type.
func TestHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	goldenRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "farm_lease_grants_total 17") {
		t.Fatalf("exposition body missing counter:\n%s", rec.Body.String())
	}
}

// trTime is a fixed-ish wall instant for tracer tests.
func trTime() time.Time { return time.Now() }

// TestTracerEmitsLoadableJSON: the trace stream must be a valid JSON
// array of complete-span events with the fields Perfetto requires,
// and must remain parseable even without Close (crash tolerance).
func TestTracerEmitsLoadableJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	base := time.Now()
	tr.Span("eval", "mvp", 3, base, 1500*time.Microsecond, Arg{Key: "point", Val: 17})
	tr.Span("flush", "io", 0, base.Add(2*time.Millisecond), 40*time.Microsecond)
	if tr.Spans() != 2 {
		t.Fatalf("span count %d", tr.Spans())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("decoded %d events", len(events))
	}
	e := events[0]
	if e["name"] != "eval" || e["cat"] != "mvp" || e["ph"] != "X" {
		t.Fatalf("span fields wrong: %v", e)
	}
	if e["dur"].(float64) != 1500 {
		t.Fatalf("dur %v, want 1500 us", e["dur"])
	}
	if args, ok := e["args"].(map[string]any); !ok || args["point"].(float64) != 17 {
		t.Fatalf("args wrong: %v", e["args"])
	}
	// Crash tolerance: an unclosed stream still parses once the array
	// is closed the way Perfetto's lenient parser does.
	var buf2 bytes.Buffer
	tr2 := NewTracer(&buf2)
	tr2.Span("eval", "mvp", 0, base, time.Millisecond)
	partial := append(append([]byte{}, buf2.Bytes()...), ']')
	if err := json.Unmarshal(partial, &events); err != nil {
		t.Fatalf("unclosed trace unparseable: %v", err)
	}
	tr2.Close()
}

// TestTracerConcurrent hammers Span from many goroutines; the -race
// CI job holds the locking, and the decoded event count holds that no
// line was torn.
func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	done := make(chan struct{})
	const each = 200
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				tr.Span("eval", "mvp", w, time.Now(), time.Microsecond, Arg{Key: "i", Val: int64(i)})
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("concurrent trace unparseable: %v", err)
	}
	if len(events) != 8*each {
		t.Fatalf("decoded %d events, want %d", len(events), 8*each)
	}
}
