package coord

import (
	"testing"
	"time"
)

// TestBackoffReplay pins the determinism contract: the delay sequence
// is a pure function of the seed and the call pattern, so a retry
// schedule observed in a chaos run replays exactly.
func TestBackoffReplay(t *testing.T) {
	pattern := func(b *Backoff) []time.Duration {
		var out []time.Duration
		for i := 0; i < 5; i++ {
			out = append(out, b.Next())
		}
		b.Reset()
		for i := 0; i < 3; i++ {
			out = append(out, b.Next())
		}
		return out
	}
	a := pattern(NewBackoff(50*time.Millisecond, 2*time.Second, 42))
	b := pattern(NewBackoff(50*time.Millisecond, 2*time.Second, 42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := pattern(NewBackoff(50*time.Millisecond, 2*time.Second, 43))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical delay sequences")
	}
}

// TestBackoffBounds checks each delay lands in [d/2, d) of the capped
// exponential envelope.
func TestBackoffBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 160*time.Millisecond
	b := NewBackoff(base, max, 7)
	envelope := base
	for i := 0; i < 12; i++ {
		d := b.Next()
		if d < envelope/2 || d >= envelope {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, d, envelope/2, envelope)
		}
		if envelope < max {
			envelope *= 2
			if envelope > max {
				envelope = max
			}
		}
	}
	if got := b.attempt; got != 12 {
		t.Fatalf("attempt = %d, want 12", got)
	}
	b.Reset()
	if d := b.Next(); d >= base {
		t.Fatalf("after Reset, delay %v did not rewind to the %v envelope", d, base)
	}
}

// TestBackoffDefaults checks the zero-value guards.
func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 1)
	if b.Base != 50*time.Millisecond {
		t.Fatalf("default base = %v", b.Base)
	}
	if b.Max < b.Base {
		t.Fatalf("max %v below base %v", b.Max, b.Base)
	}
}
