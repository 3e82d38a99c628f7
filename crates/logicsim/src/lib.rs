//! Logic simulation and IDDQ defect modelling.
//!
//! IDDQ testing observes the *quiescent* supply current after the circuit
//! settles: a large class of CMOS defects (bridging shorts, gate-oxide
//! shorts, stuck-on transistors) conduct steady-state current when — and
//! only when — the logic values around the defect *activate* it. The test
//! vector therefore only has to set up the activating condition; no
//! propagation to an output is needed, which is why IDDQ complements
//! voltage testing (paper §1, refs [1–6]).
//!
//! This crate supplies:
//!
//! * [`Simulator`] — a CSR-compiled, wide-word pattern-parallel evaluator
//!   for `iddq-netlist` circuits (64 patterns per sweep over `u64`, 256
//!   over [`iddq_netlist::W256`]), with [`Simulator::step_frame`] clocking
//!   sequential (DFF-bearing) netlists one frame at a time,
//! * [`delta`] — the event-driven incremental engine
//!   ([`delta::DeltaSim`]): persistent packed per-node state over a fixed
//!   circuit, value forces, stuck-at probes and dirty-cone-only
//!   re-evaluation,
//! * [`BackendKind`] (`csr` | `delta`) — picks the fault sweep's engine:
//!   the fault-patch engine or its per-fault CSR re-simulation oracle,
//! * [`reference`] — the seed's naive evaluator, kept as the golden
//!   baseline for differential tests and speedup measurements, and the
//!   IDDQ sweep's scalar oracle built on it,
//! * [`faults`] — the defect universe: [`faults::IddqFault`] variants with
//!   activation conditions and defect-current magnitudes,
//! * [`iddq`] — sensor-level detection: given a partition of the gates
//!   into BIC-sensed modules, which faults does each vector expose to
//!   which sensor ([`iddq::IddqSimulation`]), with two-level (fault-shard
//!   × pattern-batch) parallelism,
//! * [`logic_test`] — the voltage-test view of the same defects
//!   (stuck-at faults, wired-AND bridges), demonstrating the class that
//!   escapes logic test,
//! * [`fault_sweep`] — the fault-patch sweep engine: PPSFP-style stuck-at
//!   / bridge fault simulation on the incremental engine, with fault
//!   dropping, two-level parallelism and multi-frame sequential sweeps
//!   ([`fault_sweep::FaultSweepOptions::frames`]).
//!
//! # Which engine does what
//!
//! The CSR kernel is stateless and wins whenever every pattern batch is
//! fresh (full sweeps, the IDDQ sweep, ATPG batch generation), so plain
//! batch evaluation always runs on it and no caller picks an engine for
//! it. The delta engine owns its state and wins whenever consecutive
//! evaluations differ by a few pinned values: force a fault site, read
//! the new values (only the dirty cone was recomputed), then lift the pin
//! — the pair costs two cone walks (or one, with a logged walk) instead
//! of two full sweeps. Its circuit structure is fixed; structural edits
//! belong to resynthesis, which scores them on
//! `iddq_netlist::cone::DynamicCones`. Both engines are bit-for-bit
//! identical on the same inputs (enforced by the differential proptests
//! in `tests/proptests.rs`).
//!
//! # Sequential circuits: the frame model
//!
//! Every layer treats a sequential circuit as its combinational core plus
//! an external state vector, evaluated in *frames* (clock cycles):
//!
//! * A DFF's output (`Q`) is a frame-boundary pseudo-input — during a
//!   frame it holds the word latched at the previous clock edge, and the
//!   word on its single fan-in (`D`) at the end of the frame becomes the
//!   next state. Stepping is explicit: the caller owns the packed state
//!   slice (`num_state_elements()` words, ordered like
//!   [`iddq_netlist::Netlist::state_elements`]) and passes it to
//!   [`Simulator::step_frame`] or [`delta::DeltaSim::step_frame`].
//! * Multi-frame workloads are *sequences*: `vectors[s * frames + t]` is
//!   frame `t` of sequence `s`, every sequence starting from the all-zero
//!   reset state. In packed sweeps lane `k` carries one sequence, so the
//!   detection index `v = s * frames + t` is a plain vector index and the
//!   earliest-detection min-merge stays order- and lane-width-independent.
//! * `frames = 1` with zero state elements is *byte-for-byte* the
//!   combinational path: [`fault_sweep::FaultSweepOptions::frames`]
//!   defaults to 1 and a frames-1 sweep of a DFF-free netlist reproduces
//!   the combinational sweep exactly (pinned by the `frames` proptests).
//! * The scalar [`reference::NaiveSimulator::step_frames`] is the golden
//!   oracle: it rebuilds the full value vector every frame and scatters
//!   the captured next-state onto the DFF outputs, the slow obviously-
//!   correct form the packed steppers are differentially tested against.
//!
//! # Fault-patch lifecycle
//!
//! Per-fault logic simulation rides the delta engine through a fixed
//! four-step lifecycle (see [`fault_sweep`] for the full story):
//!
//! 1. **good-state snapshot** — one full sweep per pattern batch loads the
//!    fault-free packed values into the persistent [`delta::DeltaSim`] and
//!    caches the good primary-output words;
//! 2. **probe** — a stuck-at fault goes to
//!    [`delta::DeltaSim::stuck_at_probe`], which skips it when it is not
//!    excited and otherwise carries the faulty word through its
//!    fanout-free region to the stem; a bridge is injected as a wired-AND
//!    [`delta::DeltaSim::force_word`] fixpoint;
//! 3. **stem / diff** — a stem is flipped in all lanes once per batch and
//!    its observability cached, so a stuck-at detection mask is (lanes
//!    flipped at the stem) & (stem observability); a bridge XORs the
//!    outputs against the cached good words;
//! 4. **restore** — the stem walk restores the values it changed from its
//!    change log, and a bridge's forces are lifted, leaving the good state
//!    for the next fault.
//!
//! Fault *dropping* composes with this: a fault whose earliest detection
//! is already known is skipped entirely, which never changes results (the
//! recorded index is the minimum over all detections) but skips its work
//! entirely.
//!
//! # Memory layout & scale
//!
//! Both engines are sized for million-gate circuits:
//!
//! * The CSR [`Simulator`] compiles the netlist into three flat `u32`
//!   arrays (targets, fan-in offsets, fan-in pool) plus a run table —
//!   about 4 bytes per fan-in edge plus 8 per gate, with zero per-node
//!   allocations. Packed values add `lanes / 8` bytes per node per live
//!   buffer (8 B at `u64`, 64 B at [`iddq_netlist::W512`]).
//! * [`delta::DeltaSim`] stores its fan-in and fanout as immutable CSR
//!   arrays (`offsets[n + 1]` into one `u32` pool per direction) rather
//!   than one `Vec` per node, so its persistent state stays near 100
//!   bytes per node at `u64` lanes (96 B on c7552).
//! * One sweep is one serial walk of the schedule. Parallelism runs
//!   across patterns and faults instead (pattern batches in `iddq sim
//!   --threads`, fault shards × pattern batches in the sweep grid): a
//!   level-partitioned sweep lost to the serial kernel at every circuit
//!   size measured, up to 10^6 gates.
//!
//! [`Simulator::memory_bytes`] and [`delta::DeltaSim::memory_bytes`]
//! report the measured (capacity-accurate) footprints; the CLI's
//! `stats --memory` prints them next to the analysis-side tables.
//!
//! # Failure semantics
//!
//! Both sweeps run on one crate-private grid executor (fault shards ×
//! pattern batches over scoped worker threads, earliest-detection
//! dropping, a deterministic min-merge). Their control entry points —
//! [`fault_sweep::sweep_with_control`] and [`iddq::simulate_with_control`]
//! — take an [`iddq_control::RunControl`] (a cancellation token plus an
//! optional wall-clock / work-quota [`iddq_control::RunBudget`]) and
//! return an [`iddq_control::Outcome`]:
//!
//! * **Cooperative stops.** The control is polled only at (fault-shard ×
//!   pattern-batch) grid boundaries, so a stop can never tear a batch:
//!   every detection in a [`iddq_control::Outcome::Partial`] comes from a
//!   batch that ran to completion, and `coverage` reports the fraction
//!   of grid units that did. Partial results are *sound under-approx-
//!   imations* — detections only ever get added by finishing the run.
//! * **Worker panics.** Each grid cell runs inside a panic boundary; a
//!   panicking cell poisons only its own engine (rebuilt lazily) and is
//!   reported as [`iddq_control::StopReason::WorkerPanicked`] instead of
//!   crossing the API boundary. Its batches stay un-done and re-scan on
//!   resume.
//! * **Checkpoint / resume.** [`fault_sweep::SweepCheckpoint`] persists
//!   the earliest-detection table plus the done-batch set, fingerprinted
//!   against the exact (netlist, faults, vectors, lane width, frame
//!   count) run. A
//!   resumed sweep that completes is bit-identical to an uninterrupted
//!   one — the merge is an order-independent, idempotent minimum — which
//!   the chaos proptests enforce across random interruption points,
//!   thread counts and shard counts.
//! * **Typed errors.** Untrusted input (`.bench` text, checkpoints,
//!   flags) surfaces as [`iddq_control::EngineError`]; panics are
//!   reserved for internal invariants, and the library crates deny
//!   `clippy::unwrap_used` / `clippy::expect_used` outside tests to keep
//!   it that way.
//!
//! # Example
//!
//! ```rust
//! use iddq_logicsim::Simulator;
//! use iddq_netlist::data;
//!
//! let c17 = data::c17();
//! let sim = Simulator::new(&c17);
//! // All-ones input pattern in bit 0:
//! let values = sim.eval(&[1, 1, 1, 1, 1]);
//! let g22 = c17.find("22").unwrap();
//! // 22 = NAND(10, 16); with all inputs 1: 10 = NAND(1,3) = 0, 16 = 1 → 22 = 1.
//! assert_eq!(values[g22.index()] & 1, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod delta;
pub mod fault_sweep;
pub mod faults;
mod grid;
pub mod iddq;
pub mod logic_test;
pub mod reference;
mod sim;

pub use backend::BackendKind;
pub use sim::Simulator;
