// Package cic implements the HOPES "common intermediate code"
// programming model of the paper's section V: applications are sets
// of concurrent tasks communicating through typed channels, specified
// independently of any target; the target architecture and design
// constraints live in a separate XML architecture-information file;
// and a translator synthesizes the target-specific interface code and
// run-time system for a chosen task-to-processor mapping.
//
// Retargetability — the section's headline property — is exercised by
// translating one Spec against two architectures (a Cell-like
// distributed-memory machine and an MPCore-like SMP; see
// internal/targets) and checking that both produce identical outputs
// with target-appropriate synthesized code.
package cic

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
)

// TaskCtx is the target-independent execution context handed to task
// code. Task code sees only ports and an emit facility: no memory
// architecture, no synchronization — those are the translator's
// business.
type TaskCtx struct {
	// Firing is the current firing index (0-based).
	Firing int
	in     map[string][]int32
	out    map[string][][]int32
	emit   []int32
}

// Read returns the tokens consumed from port this firing.
func (c *TaskCtx) Read(port string) []int32 {
	v, ok := c.in[port]
	if !ok {
		panic(fmt.Sprintf("cic: task read from unconnected port %q", port))
	}
	return v
}

// Write queues one token (a fixed-size int32 vector) on port.
func (c *TaskCtx) Write(port string, vals ...int32) {
	c.out[port] = append(c.out[port], vals)
}

// Emit appends values to the task's observable output stream (sink
// tasks use this; the retargetability check compares these streams).
func (c *TaskCtx) Emit(vals ...int32) {
	c.emit = append(c.emit, vals...)
}

// TaskFunc is the body of a CIC task, executed once per firing.
type TaskFunc func(ctx *TaskCtx)

// PortSpec declares a port and its rate (tokens per firing) and token
// width (int32s per token).
type PortSpec struct {
	Name      string
	Rate      int
	TokenInts int
}

// TaskSpec is one CIC task.
type TaskSpec struct {
	Name string
	In   []PortSpec
	Out  []PortSpec
	// Firings is how many times the task fires per run.
	Firings int
	// CyclesPerFiring estimates compute per firing per PE class name
	// (e.g. "DSP": 12000); the translator matches it against the
	// architecture file's processor classes.
	CyclesPerFiring map[string]int64
	// CodeBytes and DataBytes feed the memory-capacity design
	// constraint check (section V: "it is the programmer's
	// responsibility to confirm satisfaction of the design
	// constraints, such as memory requirements" — CIC moves that
	// burden into the translator).
	CodeBytes int
	DataBytes int
	// Init runs once before the first firing; Go runs every firing;
	// Wrapup once after the last.
	Init   TaskFunc
	Go     TaskFunc
	Wrapup TaskFunc
}

// ChannelSpec wires SrcTask.SrcPort to DstTask.DstPort.
type ChannelSpec struct {
	Name    string
	SrcTask string
	SrcPort string
	DstTask string
	DstPort string
	// Depth is the buffer capacity in tokens.
	Depth int
}

// Spec is a complete CIC application.
type Spec struct {
	Name     string
	Tasks    []*TaskSpec
	Channels []*ChannelSpec
}

// Task returns the named task spec, or nil.
func (s *Spec) Task(name string) *TaskSpec {
	for _, t := range s.Tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Validate checks structural consistency of the spec alone.
func (s *Spec) Validate() error {
	seen := map[string]bool{}
	for _, t := range s.Tasks {
		if seen[t.Name] {
			return fmt.Errorf("cic: duplicate task %q", t.Name)
		}
		seen[t.Name] = true
		if t.Go == nil {
			return fmt.Errorf("cic: task %q has no Go function", t.Name)
		}
		if t.Firings <= 0 {
			return fmt.Errorf("cic: task %q has no firings", t.Name)
		}
		ports := map[string]bool{}
		for _, p := range append(append([]PortSpec{}, t.In...), t.Out...) {
			if ports[p.Name] {
				return fmt.Errorf("cic: task %q duplicate port %q", t.Name, p.Name)
			}
			ports[p.Name] = true
			if p.Rate <= 0 || p.TokenInts <= 0 {
				return fmt.Errorf("cic: task %q port %q has non-positive rate or width", t.Name, p.Name)
			}
		}
	}
	wired := map[string]bool{}
	for _, ch := range s.Channels {
		src := s.Task(ch.SrcTask)
		dst := s.Task(ch.DstTask)
		if src == nil || dst == nil {
			return fmt.Errorf("cic: channel %q references unknown task", ch.Name)
		}
		sp := findPort(src.Out, ch.SrcPort)
		dp := findPort(dst.In, ch.DstPort)
		if sp == nil {
			return fmt.Errorf("cic: channel %q: task %q has no out port %q", ch.Name, ch.SrcTask, ch.SrcPort)
		}
		if dp == nil {
			return fmt.Errorf("cic: channel %q: task %q has no in port %q", ch.Name, ch.DstTask, ch.DstPort)
		}
		if sp.TokenInts != dp.TokenInts {
			return fmt.Errorf("cic: channel %q token width mismatch: %d vs %d", ch.Name, sp.TokenInts, dp.TokenInts)
		}
		if ch.Depth <= 0 {
			return fmt.Errorf("cic: channel %q needs positive depth", ch.Name)
		}
		// Rate balance across the whole run.
		if src.Firings*sp.Rate != dst.Firings*dp.Rate {
			return fmt.Errorf("cic: channel %q unbalanced: %d produced vs %d consumed",
				ch.Name, src.Firings*sp.Rate, dst.Firings*dp.Rate)
		}
		wired[ch.SrcTask+"."+ch.SrcPort] = true
		wired[ch.DstTask+"."+ch.DstPort] = true
	}
	for _, t := range s.Tasks {
		for _, p := range t.In {
			if !wired[t.Name+"."+p.Name] {
				return fmt.Errorf("cic: task %q input port %q not connected", t.Name, p.Name)
			}
		}
		for _, p := range t.Out {
			if !wired[t.Name+"."+p.Name] {
				return fmt.Errorf("cic: task %q output port %q not connected", t.Name, p.Name)
			}
		}
	}
	return nil
}

func findPort(ps []PortSpec, name string) *PortSpec {
	for i := range ps {
		if ps[i].Name == name {
			return &ps[i]
		}
	}
	return nil
}

// --- Architecture information file (XML) ---

// ProcessorInfo describes one processing element in the architecture
// file.
type ProcessorInfo struct {
	Name          string `xml:"name,attr"`
	Class         string `xml:"class,attr"`
	ClockHz       int64  `xml:"clockHz,attr"`
	LocalMemBytes int    `xml:"localMemBytes,attr"`
}

// InterconnectInfo describes the communication fabric and its
// channel-implementation style: "dma" (distributed local stores,
// message passing) or "sharedmem" (SMP with lock-protected FIFOs).
type InterconnectInfo struct {
	Type         string `xml:"type,attr"`
	BytesPerNS   int64  `xml:"bytesPerNS,attr"`
	HopLatencyNS int64  `xml:"hopLatencyNS,attr"`
	// LockCycles is the lock acquire+release cost for sharedmem
	// channels.
	LockCycles int64 `xml:"lockCycles,attr"`
	// DMASetupNS is the descriptor-programming cost for dma channels.
	DMASetupNS int64 `xml:"dmaSetupNS,attr"`
}

// ArchInfo is the parsed architecture-information file.
type ArchInfo struct {
	XMLName        xml.Name         `xml:"architecture"`
	Name           string           `xml:"name,attr"`
	SharedMemBytes int              `xml:"sharedMemBytes,attr"`
	Processors     []ProcessorInfo  `xml:"processor"`
	Interconnect   InterconnectInfo `xml:"interconnect"`
}

// Processor returns the named processor, or nil.
func (a *ArchInfo) Processor(name string) *ProcessorInfo {
	for i := range a.Processors {
		if a.Processors[i].Name == name {
			return &a.Processors[i]
		}
	}
	return nil
}

// Validate checks the architecture description.
func (a *ArchInfo) Validate() error {
	if len(a.Processors) == 0 {
		return fmt.Errorf("cic: architecture %q has no processors", a.Name)
	}
	seen := map[string]bool{}
	for _, p := range a.Processors {
		if seen[p.Name] {
			return fmt.Errorf("cic: duplicate processor %q", p.Name)
		}
		seen[p.Name] = true
		if p.ClockHz <= 0 {
			return fmt.Errorf("cic: processor %q has no clock", p.Name)
		}
	}
	switch a.Interconnect.Type {
	case "dma", "sharedmem":
	default:
		return fmt.Errorf("cic: unknown interconnect type %q", a.Interconnect.Type)
	}
	if a.Interconnect.Type == "sharedmem" && a.SharedMemBytes <= 0 {
		return fmt.Errorf("cic: sharedmem architecture needs sharedMemBytes")
	}
	if a.Interconnect.BytesPerNS <= 0 {
		return fmt.Errorf("cic: interconnect needs bandwidth")
	}
	return nil
}

// ParseArch reads an architecture-information XML file.
func ParseArch(r io.Reader) (*ArchInfo, error) {
	var a ArchInfo
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("cic: bad architecture file: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// WriteArch serders an ArchInfo back to XML (for cmd tooling and
// examples).
func WriteArch(w io.Writer, a *ArchInfo) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(a); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// --- Mapping ---

// MapEntry binds one task to one processor.
type MapEntry struct {
	Task      string
	Processor string
}

// Mapping is the task-to-processor binding, either hand-written (the
// paper: "the programmer maps tasks to processing components, either
// manually or automatically") or produced by AutoMap.
type Mapping struct {
	Entries []MapEntry
}

// Of returns the processor assigned to task, or "".
func (m *Mapping) Of(task string) string {
	for _, e := range m.Entries {
		if e.Task == task {
			return e.Processor
		}
	}
	return ""
}

// AutoMap produces a deterministic load-balancing mapping: tasks in
// descending compute demand, each to the capable processor with the
// least accumulated load (greedy LPT).
func AutoMap(spec *Spec, arch *ArchInfo) (*Mapping, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	demand := func(t *TaskSpec, class string) (int64, bool) {
		c, ok := t.CyclesPerFiring[class]
		return c * int64(t.Firings), ok
	}
	tasks := append([]*TaskSpec{}, spec.Tasks...)
	sort.SliceStable(tasks, func(i, j int) bool {
		var di, dj int64
		for _, p := range arch.Processors {
			if d, ok := demand(tasks[i], p.Class); ok && d > di {
				di = d
			}
			if d, ok := demand(tasks[j], p.Class); ok && d > dj {
				dj = d
			}
		}
		if di != dj {
			return di > dj
		}
		return tasks[i].Name < tasks[j].Name
	})
	load := map[string]float64{}
	m := &Mapping{}
	for _, t := range tasks {
		bestProc := ""
		bestFinish := 0.0
		for _, p := range arch.Processors {
			d, ok := demand(t, p.Class)
			if !ok {
				continue
			}
			finish := load[p.Name] + float64(d)/float64(p.ClockHz)
			if bestProc == "" || finish < bestFinish {
				bestProc, bestFinish = p.Name, finish
			}
		}
		if bestProc == "" {
			return nil, fmt.Errorf("cic: no processor class suits task %q (classes %v)",
				t.Name, classNames(t))
		}
		load[bestProc] = bestFinish
		m.Entries = append(m.Entries, MapEntry{Task: t.Name, Processor: bestProc})
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Task < m.Entries[j].Task })
	return m, nil
}

func classNames(t *TaskSpec) []string {
	var out []string
	for c := range t.CyclesPerFiring {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
