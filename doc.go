// Package mpsockit reproduces the systems and claims of "Programming
// MPSoC Platforms: Road Works Ahead!" (Leupers, Vajda, Bekooij, Ha,
// Dömer, Nohl — DATE 2009) as a Go toolkit: an MPSoC platform
// simulator with per-core DVFS, a hybrid time-/space-shared RTOS
// scheduler, CSDF dataflow analysis with buffer sizing, a MAPS-style
// parallelizing toolflow over a C-subset IR, the HOPES CIC
// retargetable programming model with Cell-like and SMP backends, a
// designer-controlled source recoder, and a deterministic virtual
// platform with scriptable debugging.
//
// # Simulation performance
//
// Every model runs on the internal/sim discrete-event kernel, whose
// hot path is allocation-free: event records are pooled on a free
// list with generation-counted handles (a stale handle's Cancel is a
// no-op), and process wake-ups (Delay, Signal, Queue, Resource) carry
// a typed *Proc payload instead of a per-suspension closure. The
// kernel↔process handoff uses one single-token buffered channel per
// direction, so a park/resume costs two channel operations rather
// than four blocking rendezvous.
//
// On top of that, the virtual platform supports TLM-2.0-style
// temporal decoupling: vp.Config.Quantum sets how many instructions a
// core executes per kernel event, trading interleaving granularity
// for simulation speed. Quantum=1 (the default) is precise mode, with
// event ordering byte-identical to per-instruction stepping; precise
// mode is also forced automatically whenever debugging hooks
// (breakpoints, memory/IRQ watchpoints, OnStep) are installed or the
// system is suspended, so the section-VII debugging semantics never
// change. Deterministic replay holds at every quantum: identical
// configurations dispatch identical event sequences.
//
// # Design-space exploration
//
// internal/dse turns the toolkit from "runs one experiment" into
// "serves arbitrary exploration workloads": it expands a sweep
// specification into the cross product of platform configurations
// (core counts, PE-class mixes, DVFS operating points, mesh-vs-bus
// fabrics) × mapping heuristics (list/anneal/exhaustive) × workloads
// (JPEG, H.264, car radio, synthetic task graphs, RTOS job bags) ×
// simulation fidelities (task-level MVP, pipelined, and
// temporally-decoupled instruction-level VP), and evaluates every
// design point on its own kernel in a GOMAXPROCS-wide worker pool.
// Points are seeded deterministically from the sweep seed, results
// stream as JSONL in point order (byte-reproducible and resumable
// from a checkpoint prefix), and the engine extracts per-workload
// Pareto fronts over latency, energy proxy and area proxy. cmd/dse is
// the CLI.
//
// Sweeps also distribute, through one path: cmd/dsed leases
// contiguous point ranges to any number of "dse -connect" workers and
// writes a final file byte-identical to a standalone run, whatever
// the fleet did. Every sweep file carries a provenance header
// (schema, spec, seed, expanded-point hash, and for a worker's lease
// checkpoint its ID range); "dse -merge" validates headers,
// de-duplicates on point ID, refuses incomplete or conflicting file
// sets, and writes a file byte-identical to a standalone run. Resume
// uses the same header and fails loudly on mismatch instead of
// silently discarding a foreign checkpoint. Front quality is reported
// as the per-workload hypervolume indicator, computed exactly in
// three dimensions against a deterministic reference point, so
// restricted and full sweeps compare quantitatively. docs/dse.md is
// the workflow guide; docs/dsed.md the farm's; docs/architecture.md
// maps the layers.
//
// The paper's section claims are experiments E1–E13b of the
// internal/paper registry: cmd/mpsocsim prints their tables,
// testdata/experiments.golden pins them, and docs/paper.md maps each
// claim to its experiment and tests.
package mpsockit
