// Package trace provides the hardware/software tracing facility of
// the paper's section VII: "a history of function execution within
// the different processes, and their access to memories and
// peripherals, is of great help to understand and identify the cause
// of a defect." Events are recorded into a bounded ring buffer with
// virtual timestamps and rendered as text.
package trace

import (
	"fmt"
	"strings"

	"mpsockit/internal/sim"
)

// Kind classifies trace events.
type Kind int

// Event kinds.
const (
	Exec   Kind = iota // instruction/function execution
	MemRd              // memory read
	MemWr              // memory write
	Periph             // peripheral register access
	IRQ                // interrupt raised/taken
	Sched              // scheduler/debugger action (suspend, resume, step)
)

var kindNames = [...]string{"EXEC", "MEMRD", "MEMWR", "PERIPH", "IRQ", "SCHED"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "?"
	}
	return kindNames[k]
}

// Event is one trace record.
type Event struct {
	At     sim.Time
	Core   int
	Kind   Kind
	Addr   uint32
	Value  uint32
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("%-12v core%d %-6s", e.At, e.Core, e.Kind)
	if e.Kind == MemRd || e.Kind == MemWr || e.Kind == Periph || e.Kind == Exec {
		s += fmt.Sprintf(" 0x%08x=%#x", e.Addr, e.Value)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Buffer is a bounded ring of events.
type Buffer struct {
	cap    int
	events []Event
	start  int
	// Dropped counts events lost to wrap-around.
	Dropped uint64
	// Filter, when set, drops events for which it returns false.
	Filter func(Event) bool
}

// NewBuffer returns a ring holding up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Buffer{cap: capacity}
}

// Add appends an event, evicting the oldest when full.
func (b *Buffer) Add(e Event) {
	if b.Filter != nil && !b.Filter(e) {
		return
	}
	if len(b.events) < b.cap {
		b.events = append(b.events, e)
		return
	}
	b.events[b.start] = e
	b.start = (b.start + 1) % b.cap
	b.Dropped++
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.events) }

// Events returns the buffered events oldest-first.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.start:]...)
	out = append(out, b.events[:b.start]...)
	return out
}

// Last returns up to n most recent events, oldest-first.
func (b *Buffer) Last(n int) []Event {
	ev := b.Events()
	if len(ev) > n {
		ev = ev[len(ev)-n:]
	}
	return ev
}

// OfKind filters the buffered events by kind.
func (b *Buffer) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders the buffer as text.
func (b *Buffer) Dump() string {
	var sb strings.Builder
	for _, e := range b.Events() {
		sb.WriteString(e.String())
		sb.WriteString("\n")
	}
	if b.Dropped > 0 {
		fmt.Fprintf(&sb, "(%d earlier events dropped)\n", b.Dropped)
	}
	return sb.String()
}
