package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// kind classifies a registered instrument.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered instrument: a metric family name, an
// optional fixed label set (rendered once at registration), and the
// instrument itself.
type series struct {
	name   string
	labels string // rendered `key="value",...` or ""
	help   string
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// key is the series' registry identity.
func (s *series) key() string { return s.name + "{" + s.labels + "}" }

// Registry holds a set of named instruments and renders them as
// Prometheus text exposition or JSON. Registration is idempotent on
// (name, labels): re-registering returns the existing instrument, so
// independent subsystems share a registry without coordination.
// Registration locks; instrument updates never touch the registry.
type Registry struct {
	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*series{}}
}

// renderLabels turns key/value pairs into the canonical Prometheus
// label string. Values are quoted with escaping; keys are
// code-controlled identifiers and used as-is. Panics on an odd pair
// count — that is a programming error at a registration site, not
// runtime input.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(kv[i+1]))
	}
	return b.String()
}

// register returns the series with the given identity, creating it if
// new. A kind mismatch on an existing identity panics: two subsystems
// disagreeing about a metric's type is a bug to surface, not mask.
func (r *Registry) register(name, help string, k kind, labels []string) *series {
	s := &series{name: name, labels: renderLabels(labels), help: help, kind: k}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byKey[s.key()]; ok {
		if prev.kind != k {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", s.key(), k.promType(), prev.kind.promType()))
		}
		return prev
	}
	r.byKey[s.key()] = s
	r.series = append(r.series, s)
	return s
}

// Counter registers (or returns the existing) counter with the given
// name and optional key/value label pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.register(name, help, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram registers (or returns the existing) histogram.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	if s.h == nil {
		s.h = &Histogram{}
	}
	return s.h
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time — for values already maintained elsewhere under
// their own synchronization (e.g. per-worker heartbeat age under the
// coordinator mutex). fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGaugeFunc, labels).fn = fn
}

// CounterFunc registers a counter whose value is read by fn at
// exposition time. fn must be monotonic and safe to call from any
// goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounterFunc, labels).fn = fn
}

// Unregister removes the series with the given name and label pairs
// from the registry, reporting whether it existed. Long-lived services
// use it to drop per-entity series (a departed worker, a cancelled
// sweep) so label sets do not grow without bound. Handles to the
// removed instrument keep working — they just stop being exported —
// so racing updaters need no coordination with the removal.
func (r *Registry) Unregister(name string, labels ...string) bool {
	key := name + "{" + renderLabels(labels) + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byKey[key]
	if !ok {
		return false
	}
	delete(r.byKey, key)
	for i, cur := range r.series {
		if cur == s {
			r.series = append(r.series[:i], r.series[i+1:]...)
			break
		}
	}
	return true
}

// snapshotSeries returns a stable-ordered copy of the series list:
// families sorted by name, series within a family by label string,
// ties by registration order (registration order is preserved for
// equal keys, which cannot happen — keys are unique).
func (r *Registry) snapshotSeries() []*series {
	r.mu.Lock()
	out := make([]*series, len(r.series))
	copy(out, r.series)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// formatValue renders a float with integer values kept integral, so
// counters read naturally in exposition output.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders "name{labels}" (or bare name), with extra
// labels appended — used for histogram le labels.
func seriesName(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): families sorted by name, HELP/TYPE once per
// family, histogram series expanded into cumulative _bucket/_sum/
// _count with power-of-two le bounds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var lastFamily string
	for _, s := range r.snapshotSeries() {
		if s.name != lastFamily {
			fmt.Fprintf(bw, "# HELP %s %s\n", s.name, s.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, s.kind.promType())
			lastFamily = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", seriesName(s.name, s.labels, ""), s.c.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s %d\n", seriesName(s.name, s.labels, ""), s.g.Value())
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(bw, "%s %s\n", seriesName(s.name, s.labels, ""), formatValue(s.fn()))
		case kindHistogram:
			var cum int64
			for i := 0; i < HistBuckets; i++ {
				n := s.h.Bucket(i)
				cum += n
				if n == 0 && i < HistBuckets-1 {
					continue // sparse: only materialized bounds plus +Inf
				}
				le := "+Inf"
				if b := BucketBound(i); b >= 0 {
					le = strconv.FormatInt(b, 10)
				}
				fmt.Fprintf(bw, "%s %d\n", seriesName(s.name+"_bucket", s.labels, `le="`+le+`"`), cum)
			}
			fmt.Fprintf(bw, "%s %d\n", seriesName(s.name+"_sum", s.labels, ""), s.h.Sum())
			fmt.Fprintf(bw, "%s %d\n", seriesName(s.name+"_count", s.labels, ""), s.h.Count())
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the Prometheus exposition —
// mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// SnapValue is one instrument's state inside a Snapshot.
type SnapValue struct {
	// Kind is the Prometheus type: counter, gauge or histogram.
	Kind string `json:"kind"`
	// Value is the counter/gauge reading (absent for histograms).
	Value float64 `json:"value,omitempty"`
	// Count and Sum are the histogram totals.
	Count int64 `json:"count,omitempty"`
	// Sum is the histogram's value total.
	Sum int64 `json:"sum,omitempty"`
	// Buckets are the histogram's raw (non-cumulative) bucket counts,
	// trailing zeros trimmed.
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every registered instrument,
// keyed by "name{labels}". It serializes to JSON (cmd/dse
// -metrics-out) and diffs against an earlier snapshot.
type Snapshot map[string]SnapValue

// Snapshot captures the current value of every instrument.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{}
	for _, s := range r.snapshotSeries() {
		k := seriesName(s.name, s.labels, "")
		switch s.kind {
		case kindCounter:
			out[k] = SnapValue{Kind: "counter", Value: float64(s.c.Value())}
		case kindGauge:
			out[k] = SnapValue{Kind: "gauge", Value: float64(s.g.Value())}
		case kindCounterFunc:
			out[k] = SnapValue{Kind: "counter", Value: s.fn()}
		case kindGaugeFunc:
			out[k] = SnapValue{Kind: "gauge", Value: s.fn()}
		case kindHistogram:
			v := SnapValue{Kind: "histogram", Count: s.h.Count(), Sum: s.h.Sum()}
			last := -1
			var buckets [HistBuckets]int64
			for i := 0; i < HistBuckets; i++ {
				buckets[i] = s.h.Bucket(i)
				if buckets[i] != 0 {
					last = i
				}
			}
			if last >= 0 {
				v.Buckets = append([]int64(nil), buckets[:last+1]...)
			}
			out[k] = v
		}
	}
	return out
}

// WriteJSON renders a snapshot of the registry as indented JSON — the
// cmd/dse -metrics-out format.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
