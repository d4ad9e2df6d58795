package trace

import (
	"strings"
	"testing"

	"mpsockit/internal/sim"
)

func TestRingBufferWraps(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Add(Event{At: sim.Time(i), Core: i, Kind: Exec})
	}
	if b.Len() != 4 {
		t.Fatalf("len = %d", b.Len())
	}
	if b.Dropped != 6 {
		t.Fatalf("dropped = %d", b.Dropped)
	}
	ev := b.Events()
	for i, e := range ev {
		if e.Core != 6+i {
			t.Fatalf("events = %v", ev)
		}
	}
}

func TestLastAndOfKind(t *testing.T) {
	b := NewBuffer(16)
	b.Add(Event{Kind: Exec})
	b.Add(Event{Kind: MemWr})
	b.Add(Event{Kind: MemWr})
	b.Add(Event{Kind: IRQ})
	if len(b.OfKind(MemWr)) != 2 {
		t.Fatal("kind filter broken")
	}
	if len(b.Last(2)) != 2 {
		t.Fatal("Last broken")
	}
}

func TestFilter(t *testing.T) {
	b := NewBuffer(16)
	b.Filter = func(e Event) bool { return e.Kind == IRQ }
	b.Add(Event{Kind: Exec})
	b.Add(Event{Kind: IRQ})
	if b.Len() != 1 {
		t.Fatalf("filter kept %d", b.Len())
	}
}

func TestDumpReadable(t *testing.T) {
	b := NewBuffer(8)
	b.Add(Event{At: 5 * sim.Microsecond, Core: 1, Kind: MemWr, Addr: 0x40000000, Value: 7, Detail: "x"})
	d := b.Dump()
	if !strings.Contains(d, "MEMWR") || !strings.Contains(d, "core1") || !strings.Contains(d, "0x40000000") {
		t.Fatalf("dump unreadable: %s", d)
	}
}
