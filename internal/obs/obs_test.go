package obs

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
)

// TestNilSafety: every update and read on nil instruments and a nil
// tracer must be a harmless no-op — that is the contract that lets
// instrumented hot paths hold optional handles without branching.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter read nonzero")
	}
	var g *Gauge
	g.Max(10)
	if g.Value() != 0 {
		t.Fatal("nil gauge read nonzero")
	}
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 || h.Bucket(0) != 0 {
		t.Fatal("nil histogram read nonzero")
	}
	var tr *Tracer
	tr.Span("x", "y", 0, trTime(), 0)
	if tr.Spans() != 0 {
		t.Fatal("nil tracer counted spans")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHammer drives counters, gauges and histograms from
// many goroutines at once (the -race CI job runs this with the race
// detector) and checks the exact totals afterwards.
func TestConcurrentHammer(t *testing.T) {
	const goroutines = 16
	const perG = 5000
	var c Counter
	var g Gauge
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perG; i++ {
				c.Inc()
				c.Add(2)
				g.Max(int64(w*perG + i))
				h.Observe(rng.Int63n(1 << 20))
			}
		}()
	}
	wg.Wait()
	if want := int64(goroutines * perG * 3); c.Value() != want {
		t.Fatalf("counter = %d, want %d", c.Value(), want)
	}
	if want := int64(goroutines*perG - 1); g.Value() != want {
		t.Fatalf("gauge high-water = %d, want %d", g.Value(), want)
	}
	if h.Count() != int64(goroutines*perG) {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	var bucketSum int64
	for i := 0; i < HistBuckets; i++ {
		bucketSum += h.Bucket(i)
	}
	if bucketSum != h.Count() {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count())
	}
}

// TestCounterMonotonic: Add with a negative delta must not move a
// counter — counters never decrease, which the snapshot diff relies
// on.
func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-5)
	if c.Value() != 10 {
		t.Fatalf("counter moved backwards: %d", c.Value())
	}
}

// TestHistogramBuckets pins the power-of-two bucket mapping at its
// boundaries.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 38, HistBuckets - 1}, {1 << 62, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketBound(0) != 0 || BucketBound(1) != 1 || BucketBound(3) != 7 {
		t.Fatal("bucket bounds drifted from 2^i - 1")
	}
	if BucketBound(HistBuckets-1) != -1 {
		t.Fatal("last bucket must be unbounded")
	}
}

// TestSnapshotDiffProperties holds the snapshot invariants over
// randomized update sequences: counters never decrease between
// snapshots, the difference of two snapshots is exactly the updates
// applied in between, gauges read their high-water mark, and
// histogram bucket sums always equal the count.
func TestSnapshotDiffProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRegistry()
	c := r.Counter("prop_counter_total", "property counter")
	g := r.Gauge("prop_gauge", "property gauge")
	h := r.Histogram("prop_hist_us", "property histogram")
	prev := r.Snapshot()
	var gMax int64
	for round := 0; round < 50; round++ {
		var cAdds, hObs, hSum int64
		for i := 0; i < rng.Intn(200); i++ {
			d := rng.Int63n(100)
			c.Add(d)
			cAdds += d
			gv := rng.Int63n(1000)
			g.Max(gv)
			gMax = max(gMax, gv)
			v := rng.Int63n(1 << 30)
			h.Observe(v)
			hObs++
			hSum += v
		}
		cur := r.Snapshot()
		if cur["prop_counter_total"].Value < prev["prop_counter_total"].Value {
			t.Fatalf("round %d: counter decreased across snapshots", round)
		}
		if got := int64(cur["prop_counter_total"].Value - prev["prop_counter_total"].Value); got != cAdds {
			t.Fatalf("round %d: counter diff %d, want %d", round, got, cAdds)
		}
		ch, ph := cur["prop_hist_us"], prev["prop_hist_us"]
		if ch.Count-ph.Count != hObs || ch.Sum-ph.Sum != hSum {
			t.Fatalf("round %d: histogram diff count/sum %d/%d, want %d/%d",
				round, ch.Count-ph.Count, ch.Sum-ph.Sum, hObs, hSum)
		}
		var csum int64
		for _, b := range ch.Buckets {
			csum += b
		}
		if csum != ch.Count {
			t.Fatalf("round %d: snapshot bucket sum %d != count %d", round, csum, ch.Count)
		}
		if int64(cur["prop_gauge"].Value) != gMax {
			t.Fatalf("round %d: gauge reads %v, want high-water %d", round, cur["prop_gauge"].Value, gMax)
		}
		prev = cur
	}
}

// TestRegistryIdempotent: re-registering the same identity returns
// the same instrument; a different label set is a different series.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", "worker", "a")
	b := r.Counter("x_total", "x", "worker", "a")
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	other := r.Counter("x_total", "x", "worker", "b")
	if a == other {
		t.Fatal("distinct labels aliased one counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "x", "worker", "a")
}

// TestSnapshotJSONRoundTrip: snapshots are the -metrics-out format
// and must survive a JSON round trip.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(3)
	r.Histogram("b_us", "b").Observe(9)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if int64(back["a_total"].Value) != 3 || back["b_us"].Count != 1 || back["b_us"].Sum != 9 {
		t.Fatalf("round trip lost values: %+v", back)
	}
}
