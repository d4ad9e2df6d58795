package cic

import (
	"fmt"
	"sort"
	"strings"

	"mpsockit/internal/noc"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

// TargetProgram is the translator's output: synthesized per-processor
// interface code (as text artifacts, standing in for the generated C
// the paper's translator feeds to native compilers) plus an
// executable model that runs on the event-driven platform simulator.
type TargetProgram struct {
	Spec    *Spec
	Arch    *ArchInfo
	Mapping *Mapping
	// Generated holds synthesized source per processor name plus a
	// "cic_rt.h" runtime header entry.
	Generated map[string]string
	// Report summarizes the translation decisions.
	Report string
}

// Translate checks the spec against the architecture and mapping,
// verifies the design constraints (memory capacities), and
// synthesizes the target program. This is the CIC translator of
// section V: "The CIC translator automatically translates the task
// codes in the CIC model into the final parallel code, following the
// partitioning decision."
func Translate(spec *Spec, arch *ArchInfo, mapping *Mapping) (*TargetProgram, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	// Mapping completeness and class compatibility.
	for _, t := range spec.Tasks {
		pname := mapping.Of(t.Name)
		if pname == "" {
			return nil, fmt.Errorf("cic: task %q not mapped", t.Name)
		}
		proc := arch.Processor(pname)
		if proc == nil {
			return nil, fmt.Errorf("cic: task %q mapped to unknown processor %q", t.Name, pname)
		}
		if _, ok := t.CyclesPerFiring[proc.Class]; !ok {
			return nil, fmt.Errorf("cic: task %q has no timing for class %s (processor %s)",
				t.Name, proc.Class, pname)
		}
	}
	// Memory-capacity design constraints.
	if err := checkMemory(spec, arch, mapping); err != nil {
		return nil, err
	}
	tp := &TargetProgram{Spec: spec, Arch: arch, Mapping: mapping, Generated: map[string]string{}}
	tp.Generated["cic_rt.h"] = runtimeHeader(arch)
	for _, p := range arch.Processors {
		tp.Generated[p.Name+".c"] = genProcessorSource(spec, arch, mapping, &p)
	}
	tp.Report = tp.buildReport()
	return tp, nil
}

// channelBytes returns the buffer footprint of a channel.
func channelBytes(spec *Spec, ch *ChannelSpec) int {
	src := spec.Task(ch.SrcTask)
	sp := findPort(src.Out, ch.SrcPort)
	return ch.Depth * sp.TokenInts * 4
}

func checkMemory(spec *Spec, arch *ArchInfo, mapping *Mapping) error {
	local := map[string]int{}
	for _, t := range spec.Tasks {
		local[mapping.Of(t.Name)] += t.CodeBytes + t.DataBytes
	}
	sharedNeed := 0
	for _, ch := range spec.Channels {
		bytes := channelBytes(spec, ch)
		if arch.Interconnect.Type == "dma" {
			// Message-passing buffers live in the consumer's local store.
			local[mapping.Of(ch.DstTask)] += bytes
		} else {
			sharedNeed += bytes
		}
	}
	for pname, need := range local {
		p := arch.Processor(pname)
		if p == nil {
			continue
		}
		if p.LocalMemBytes > 0 && need > p.LocalMemBytes {
			return fmt.Errorf("cic: design constraint violated: %s needs %d bytes local memory, has %d",
				pname, need, p.LocalMemBytes)
		}
	}
	if arch.Interconnect.Type == "sharedmem" && sharedNeed > arch.SharedMemBytes {
		return fmt.Errorf("cic: design constraint violated: channels need %d bytes shared memory, have %d",
			sharedNeed, arch.SharedMemBytes)
	}
	return nil
}

// --- Synthesized code artifacts ---

func runtimeHeader(arch *ArchInfo) string {
	var b strings.Builder
	b.WriteString("/* cic_rt.h - synthesized run-time system interface */\n")
	fmt.Fprintf(&b, "/* target: %s, interconnect: %s */\n", arch.Name, arch.Interconnect.Type)
	b.WriteString("typedef struct cic_task { void (*init)(void); void (*go)(void); void (*wrapup)(void); int firings; } cic_task_t;\n")
	if arch.Interconnect.Type == "dma" {
		b.WriteString("void rt_dma_send(int chan, const int *tok, int n);\n")
		b.WriteString("void rt_dma_recv(int chan, int *tok, int n);\n")
	} else {
		b.WriteString("void rt_shm_send(int chan, const int *tok, int n); /* lock-protected FIFO */\n")
		b.WriteString("void rt_shm_recv(int chan, int *tok, int n);\n")
	}
	b.WriteString("void rt_run_static_order(cic_task_t **tasks, int n);\n")
	return b.String()
}

func genProcessorSource(spec *Spec, arch *ArchInfo, mapping *Mapping, proc *ProcessorInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* %s.c - synthesized by the CIC translator for %s (class %s, %.0f MHz) */\n",
		proc.Name, arch.Name, proc.Class, float64(proc.ClockHz)/1e6)
	b.WriteString("#include \"cic_rt.h\"\n\n")

	var myTasks []*TaskSpec
	for _, t := range spec.Tasks {
		if mapping.Of(t.Name) == proc.Name {
			myTasks = append(myTasks, t)
		}
	}
	sort.Slice(myTasks, func(i, j int) bool { return myTasks[i].Name < myTasks[j].Name })

	// Channel endpoints on this processor.
	chanID := map[string]int{}
	for i, ch := range spec.Channels {
		chanID[ch.Name] = i
	}
	for _, ch := range spec.Channels {
		onSrc := mapping.Of(ch.SrcTask) == proc.Name
		onDst := mapping.Of(ch.DstTask) == proc.Name
		if !onSrc && !onDst {
			continue
		}
		bytes := channelBytes(spec, ch)
		cross := mapping.Of(ch.SrcTask) != mapping.Of(ch.DstTask)
		switch {
		case !cross:
			fmt.Fprintf(&b, "/* channel %s: local FIFO, %d bytes */\nstatic int ch%d_buf[%d];\n",
				ch.Name, bytes, chanID[ch.Name], bytes/4)
		case arch.Interconnect.Type == "dma" && onDst:
			fmt.Fprintf(&b, "/* channel %s: DMA target buffer in local store, %d bytes */\nstatic int ch%d_buf[%d];\n",
				ch.Name, bytes, chanID[ch.Name], bytes/4)
		case arch.Interconnect.Type == "dma" && onSrc:
			fmt.Fprintf(&b, "/* channel %s: DMA descriptor (dest %s) */\nstatic dma_desc_t ch%d_desc;\n",
				ch.Name, mapping.Of(ch.DstTask), chanID[ch.Name])
		default:
			fmt.Fprintf(&b, "/* channel %s: shared-memory FIFO + lock %d */\nextern shm_fifo_t ch%d_fifo;\n",
				ch.Name, chanID[ch.Name], chanID[ch.Name])
		}
	}
	b.WriteString("\n")

	for _, t := range myTasks {
		fmt.Fprintf(&b, "/* task %s: %d firings, %d cycles/firing on %s */\n",
			t.Name, t.Firings, t.CyclesPerFiring[proc.Class], proc.Class)
		fmt.Fprintf(&b, "static void %s_init(void) { /* user init */ }\n", t.Name)
		fmt.Fprintf(&b, "static void %s_go(void) {\n", t.Name)
		for _, p := range t.In {
			ch := channelInto(spec, t.Name, p.Name)
			recv := "rt_shm_recv"
			if arch.Interconnect.Type == "dma" {
				recv = "rt_dma_recv"
			}
			fmt.Fprintf(&b, "    int %s[%d]; for (int i = 0; i < %d; i++) %s(%d, %s, %d);\n",
				p.Name, p.TokenInts, p.Rate, recv, chanID[ch.Name], p.Name, p.TokenInts)
		}
		b.WriteString("    /* user task body (target independent) */\n")
		for _, p := range t.Out {
			ch := channelFrom(spec, t.Name, p.Name)
			send := "rt_shm_send"
			if arch.Interconnect.Type == "dma" {
				send = "rt_dma_send"
			}
			fmt.Fprintf(&b, "    int %s_out[%d]; for (int i = 0; i < %d; i++) %s(%d, %s_out, %d);\n",
				p.Name, p.TokenInts, p.Rate, send, chanID[ch.Name], p.Name, p.TokenInts)
		}
		b.WriteString("}\n")
		fmt.Fprintf(&b, "static void %s_wrapup(void) { /* user wrapup */ }\n", t.Name)
		fmt.Fprintf(&b, "static cic_task_t %s_desc = { %s_init, %s_go, %s_wrapup, %d };\n\n",
			t.Name, t.Name, t.Name, t.Name, t.Firings)
	}

	b.WriteString("int main(void) {\n")
	fmt.Fprintf(&b, "    cic_task_t *tasks[%d] = {", len(myTasks))
	for i, t := range myTasks {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "&%s_desc", t.Name)
	}
	b.WriteString("};\n")
	fmt.Fprintf(&b, "    rt_run_static_order(tasks, %d); /* synthesized scheduler */\n", len(myTasks))
	b.WriteString("    return 0;\n}\n")
	return b.String()
}

func channelInto(spec *Spec, task, port string) *ChannelSpec {
	for _, ch := range spec.Channels {
		if ch.DstTask == task && ch.DstPort == port {
			return ch
		}
	}
	panic(fmt.Sprintf("cic: no channel into %s.%s", task, port))
}

func channelFrom(spec *Spec, task, port string) *ChannelSpec {
	for _, ch := range spec.Channels {
		if ch.SrcTask == task && ch.SrcPort == port {
			return ch
		}
	}
	panic(fmt.Sprintf("cic: no channel from %s.%s", task, port))
}

// GeneratedLines counts non-blank synthesized source lines — the
// interface-code volume the translator saves the programmer.
func (tp *TargetProgram) GeneratedLines() int {
	n := 0
	for _, src := range tp.Generated {
		for _, ln := range strings.Split(src, "\n") {
			if strings.TrimSpace(ln) != "" {
				n++
			}
		}
	}
	return n
}

func (tp *TargetProgram) buildReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CIC translation of %q onto %q (%s)\n", tp.Spec.Name, tp.Arch.Name, tp.Arch.Interconnect.Type)
	for _, p := range tp.Arch.Processors {
		var names []string
		for _, t := range tp.Spec.Tasks {
			if tp.Mapping.Of(t.Name) == p.Name {
				names = append(names, t.Name)
			}
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "  %s (%s): %s\n", p.Name, p.Class, strings.Join(names, ", "))
	}
	fmt.Fprintf(&b, "  synthesized %d lines of interface/runtime code\n", tp.GeneratedLines())
	return b.String()
}

// --- Executable model ---

// RunStats reports one execution of a target program.
type RunStats struct {
	Makespan sim.Time
	// Outputs collects each task's Emit stream.
	Outputs map[string][]int32
	// BusyTime is per-processor compute time.
	BusyTime map[string]sim.Time
	// BytesMoved counts cross-processor channel traffic.
	BytesMoved int
	// Firings counts completed firings per task.
	Firings map[string]int
}

// BuildPlatform converts the architecture file into a simulated
// platform.
func (a *ArchInfo) BuildPlatform(k *sim.Kernel) (*platform.Platform, error) {
	specs := make([]platform.CoreSpec, len(a.Processors))
	for i, p := range a.Processors {
		class, err := platform.ParsePEClass(p.Class)
		if err != nil {
			return nil, err
		}
		specs[i] = platform.CoreSpec{
			Name: p.Name, Class: class, Hz: p.ClockHz, L1Bytes: p.LocalMemBytes,
		}
	}
	var fabric platform.Fabric
	if a.Interconnect.Type == "dma" {
		fabric = noc.MeshFor(k, len(a.Processors))
	} else {
		fabric = noc.NewBus(k, sim.Time(a.Interconnect.HopLatencyNS)*sim.Nanosecond, a.Interconnect.BytesPerNS)
	}
	p := platform.New(k, a.Name, specs, fabric)
	p.SharedBytes = a.SharedMemBytes
	return p, nil
}

// Run executes the translated program on the event-driven platform
// model and returns its statistics. Identical Outputs across two
// architectures is the retargetability criterion of experiment E9.
func (tp *TargetProgram) Run() (*RunStats, error) {
	k := sim.NewKernel()
	plat, err := tp.Arch.BuildPlatform(k)
	if err != nil {
		return nil, err
	}
	procIdx := map[string]int{}
	for i, p := range tp.Arch.Processors {
		procIdx[p.Name] = i
	}
	stats := &RunStats{
		Outputs:  map[string][]int32{},
		BusyTime: map[string]sim.Time{},
		Firings:  map[string]int{},
	}

	// Runtime channels.
	queues := map[string]*sim.Queue{}
	locks := map[string]*sim.Resource{}
	for _, ch := range tp.Spec.Channels {
		queues[ch.Name] = k.NewQueue(ch.Name, ch.Depth)
		if tp.Arch.Interconnect.Type == "sharedmem" {
			locks[ch.Name] = k.NewResource("lock:"+ch.Name, 1)
		}
	}
	// One DMA engine per processor for dma targets.
	dmaRes := map[string]*sim.Resource{}
	if tp.Arch.Interconnect.Type == "dma" {
		for _, p := range tp.Arch.Processors {
			dmaRes[p.Name] = k.NewResource("dma:"+p.Name, 1)
		}
	}

	send := func(p *sim.Proc, t *TaskSpec, ch *ChannelSpec, tok []int32) {
		srcProc := tp.Mapping.Of(ch.SrcTask)
		dstProc := tp.Mapping.Of(ch.DstTask)
		bytes := len(tok) * 4
		if srcProc == dstProc {
			// Local FIFO: copy cost only.
			core := plat.Core(procIdx[srcProc])
			p.Delay(core.Cycles(int64(len(tok)) + 4))
			queues[ch.Name].Put(p, tok)
			return
		}
		stats.BytesMoved += bytes
		if tp.Arch.Interconnect.Type == "dma" {
			engine := dmaRes[srcProc]
			engine.Acquire(p)
			p.Delay(sim.Time(tp.Arch.Interconnect.DMASetupNS) * sim.Nanosecond)
			done := k.NewSignal()
			plat.Fabric.Transfer(procIdx[srcProc], procIdx[dstProc], bytes, sim.Func(done.Broadcast), 0)
			done.Wait(p)
			engine.Release()
		} else {
			lock := locks[ch.Name]
			core := plat.Core(procIdx[srcProc])
			lock.Acquire(p)
			p.Delay(core.Cycles(tp.Arch.Interconnect.LockCycles))
			done := k.NewSignal()
			plat.Fabric.Transfer(procIdx[srcProc], procIdx[dstProc], bytes, sim.Func(done.Broadcast), 0)
			done.Wait(p)
			lock.Release()
		}
		queues[ch.Name].Put(p, tok)
	}

	recv := func(p *sim.Proc, t *TaskSpec, ch *ChannelSpec) []int32 {
		tok := queues[ch.Name].Get(p).([]int32)
		dstProc := tp.Mapping.Of(ch.DstTask)
		srcProc := tp.Mapping.Of(ch.SrcTask)
		core := plat.Core(procIdx[dstProc])
		if srcProc == dstProc {
			p.Delay(core.Cycles(int64(len(tok)) + 4))
		} else if tp.Arch.Interconnect.Type == "sharedmem" {
			// Reader also takes the lock briefly.
			lock := locks[ch.Name]
			lock.Acquire(p)
			p.Delay(core.Cycles(tp.Arch.Interconnect.LockCycles))
			lock.Release()
		}
		return tok
	}

	// Per-processor core mutex: tasks on one processor interleave at
	// firing granularity under the synthesized static-order scheduler.
	coreRes := make([]*sim.Resource, len(plat.Cores))
	for i := range coreRes {
		coreRes[i] = k.NewResource(fmt.Sprintf("core%d", i), 1)
	}

	finished := 0
	for _, t := range tp.Spec.Tasks {
		t := t
		pname := tp.Mapping.Of(t.Name)
		proc := tp.Arch.Processor(pname)
		core := plat.Core(procIdx[pname])
		cycles := t.CyclesPerFiring[proc.Class]
		k.Spawn(t.Name, func(p *sim.Proc) {
			if t.Init != nil {
				ctx := &TaskCtx{in: map[string][]int32{}, out: map[string][][]int32{}}
				t.Init(ctx)
				stats.Outputs[t.Name] = append(stats.Outputs[t.Name], ctx.emit...)
			}
			for f := 0; f < t.Firings; f++ {
				ctx := &TaskCtx{Firing: f, in: map[string][]int32{}, out: map[string][][]int32{}}
				// Gather inputs.
				for _, port := range t.In {
					ch := channelInto(tp.Spec, t.Name, port.Name)
					var vals []int32
					for r := 0; r < port.Rate; r++ {
						vals = append(vals, recv(p, t, ch)...)
					}
					ctx.in[port.Name] = vals
				}
				// Compute.
				coreRes[core.ID].Acquire(p)
				t.Go(ctx)
				dur := core.Cycles(cycles)
				p.Delay(dur)
				stats.BusyTime[pname] += dur
				coreRes[core.ID].Release()
				// Scatter outputs.
				for _, port := range t.Out {
					ch := channelFrom(tp.Spec, t.Name, port.Name)
					toks := ctx.out[port.Name]
					if len(toks) != port.Rate {
						panic(fmt.Sprintf("cic: task %s wrote %d tokens on %s, declared rate %d",
							t.Name, len(toks), port.Name, port.Rate))
					}
					for _, tok := range toks {
						if len(tok) != port.TokenInts {
							panic(fmt.Sprintf("cic: task %s token width %d on %s, declared %d",
								t.Name, len(tok), port.Name, port.TokenInts))
						}
						send(p, t, ch, tok)
					}
				}
				stats.Outputs[t.Name] = append(stats.Outputs[t.Name], ctx.emit...)
				stats.Firings[t.Name]++
				if p.Now() > stats.Makespan {
					stats.Makespan = p.Now()
				}
			}
			if t.Wrapup != nil {
				ctx := &TaskCtx{in: map[string][]int32{}, out: map[string][][]int32{}}
				t.Wrapup(ctx)
				stats.Outputs[t.Name] = append(stats.Outputs[t.Name], ctx.emit...)
			}
			finished++
		})
	}
	k.Run()
	if finished != len(tp.Spec.Tasks) {
		var stuck []string
		for _, t := range tp.Spec.Tasks {
			if stats.Firings[t.Name] < t.Firings {
				stuck = append(stuck, fmt.Sprintf("%s(%d/%d)", t.Name, stats.Firings[t.Name], t.Firings))
			}
		}
		return nil, fmt.Errorf("cic: execution deadlocked; incomplete tasks: %s", strings.Join(stuck, ", "))
	}
	return stats, nil
}
