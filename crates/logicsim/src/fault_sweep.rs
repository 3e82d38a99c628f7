//! Fault-patch sweep engine: pattern-parallel stuck-at / bridge fault
//! simulation on the incremental [`DeltaSim`].
//!
//! The classical way to score a logic fault is to re-simulate the whole
//! circuit with the fault injected, once per fault per pattern batch —
//! what [`logic_test`](crate::logic_test)'s `*_from` functions do and what
//! this module keeps as its differential oracle ([`BackendKind::Csr`]).
//! But a stuck-at fault is exactly a one-node *patch* whose effect is
//! confined to the node's fanout cone, and a persistent [`DeltaSim`]
//! already holds the good-machine packed state for the current batch. The
//! engine therefore runs the PPSFP loop (single fault propagation,
//! pattern-parallel words, fault dropping — Waicukauski et al., 1985)
//! with its fanout-free-region / stem step (Antreich & Schulz, 1987):
//!
//! 1. **good-state snapshot** — [`FaultPatchSim::load`] runs one full
//!    sweep per pattern batch and caches the good primary-output words;
//! 2. **probe** — a stuck-at fault goes to [`DeltaSim::stuck_at_probe`]:
//!    a fault whose stuck word equals the good word is not excited and
//!    stops there; otherwise the faulty word is carried along the
//!    fault's fanout-free region (single-consumer nodes that are neither
//!    primary outputs nor DFF D drivers) to its stem, with side inputs at
//!    their good values;
//! 3. **stem** — the stem's observability (the lanes in which flipping
//!    it reaches a primary output) is computed once per stem and batch by
//!    one all-lanes-flipped level-bucket walk, and the detection mask is
//!    (lanes flipped at the stem) & (stem observability);
//! 4. **log restore** — that walk logs every value it changes, XORs only
//!    the changed output words, and restores the good state from the log
//!    instead of re-evaluating the cone. A bridge is instead superimposed
//!    as a wired-AND [`DeltaSim::force_word`] fixpoint, its outputs XORed
//!    against the cached good words, and its forces lifted.
//!
//! The dirty-cone work metric ([`FaultSweepOutcome::mean_dirty_nodes`])
//! counts node evaluations per fault application: the probe's
//! fanout-free-region steps plus its stem walks (a cached stem costs
//! nothing), for single-frame bridges the force and release walks, and
//! for multi-frame machines the one superposition walk (plus a bridge's
//! fixpoint walks) — their lift re-evaluates nothing, so it adds nothing.
//! [`FaultSweepOutcome::work`] keeps the raw counters, including how many
//! multi-frame applications carried diverged state and how many flops
//! they pinned, and what the in-batch detection bound (below) skipped
//! and narrowed.
//!
//! [`sweep`] runs the per-fault loop as a detector on the shared
//! fault-shard × pattern-batch `grid` executor — the one
//! the IDDQ sweep runs on — with earliest-detection **fault dropping**:
//! once a fault is detected, later batches skip it, and the grid's shared
//! earliest-detection array lets cells drop faults another cell already
//! caught. Results stay bit-identical for any thread count, shard count
//! and dropping setting, because a fault is only ever skipped when a
//! strictly earlier detection (which wins the min-merge) already exists.
//!
//! # Multi-frame sequences
//!
//! With [`FaultSweepOptions::frames`]` = F > 1` the vector set is read as
//! consecutive *F-cycle test sequences*: vectors `s*F .. (s+1)*F` are the
//! per-frame stimuli of sequence `s`, every sequence starts from the
//! all-zero reset state, and lane *k* of a pattern batch carries sequence
//! `seq_base + k`. The good machine steps frames on the persistent
//! engine; per fault and frame, a *faulty machine* is simulated only
//! where it differs from the good one (the PROOFS idea — Niermann, Cheng
//! & Patel, 1992): every DFF whose faulty latched word has diverged from
//! the good state is pinned together with the fault site, and all pins
//! propagate in one logged level-ordered walk (`DeltaSim::superimpose`);
//! a bridge runs its wired-AND fixpoint on top, each round one more walk
//! onto the same log. The output diff is read, the faulty next-state is
//! captured off the D drivers the log shows changed, and the logged
//! values are written back (`DeltaSim::lift_logged`) — no release walk.
//! Between frames each fault keeps only its diverged `(flop, word)`
//! pairs, so a machine that has not diverged costs one walk from its
//! fault site. Earliest detection is reported as a plain vector index
//! `seq * F + frame`, so frame resolution survives in the existing
//! [`FaultSweepOutcome::first_detection`] shape: a lower sequence always
//! outranks any frame offset, and within a sequence the first detecting
//! frame wins. `frames = 1` is byte-for-byte the combinational sweep
//! described above. The CSR oracle arm rebuilds each faulty machine per
//! frame with a full forced topological sweep (the slow obviously-correct
//! form; with `frames = 1` that is plain per-fault re-simulation), and
//! the differential tests pin the two against each other and against
//! `NaiveSimulator::step_frames`.
//!
//! **In-batch detection bound.** With fault dropping on, a faulty machine
//! is simulated only where it can still change the answer. Once the batch
//! has detected fault *k* at `(lane b, frame t)`, a later frame can only
//! improve on that at a lane `< b`: a lower lane outranks any frame, and
//! the same or a higher lane at a later frame loses. And lanes never
//! interact — every gate, pin and captured next-state word is evaluated
//! lane by lane, so the lanes `< b` of a machine depend only on the lanes
//! `< b` of its pins and its diverged state. Later frames therefore cut
//! the machine to those lanes: each diverged word and the stuck-at pin
//! become `good ^ (w ^ good).mask_lanes(b)` (a diverged pin left equal to
//! the good word is dropped), and so do the captured next-state words, so
//! the other lanes run as the good machine and stop diverging. At `b == 0`
//! nothing can improve and the fault is skipped for the rest of the batch
//! ([`SweepWork::skipped_frames`]; the cut applications are
//! [`SweepWork::narrowed_applications`]). A bridge's fixpoint still runs
//! on every lane: its stopping test is global, but a lane that has
//! converged stays put in later rounds and one that has not keeps either
//! run going, so its lanes `< b` come out the same. The bound
//! never changes an earliest detection, only work; with dropping off (and
//! on the CSR oracle) every lane of every frame is simulated, and the
//! differential tests pin the bounded sweep to both.
//!
//! # Failure semantics: budgets, cancellation, checkpoint/resume
//!
//! [`sweep_with_control`] threads an [`iddq_control::RunControl`] through
//! the grid: workers poll it at every pattern-batch boundary (never inside
//! the packed loops) and charge one work unit per pattern applied. A
//! budget or cancellation hit stops the run at the next boundary and
//! returns [`Outcome::Partial`] — the per-fault earliest detections of
//! every *completed* (fault-shard × pattern-batch) cell, the fraction of
//! planned grid work that ran, and the [`StopReason`]. Worker panics are
//! caught at the task boundary: one poisoned cell fails its shard (and
//! poisons only that worker's engines, which are rebuilt), the process
//! survives, and the outcome degrades to `Partial` with
//! [`StopReason::WorkerPanicked`].
//!
//! [`StopReason`]: iddq_control::StopReason
//! [`StopReason::WorkerPanicked`]: iddq_control::StopReason::WorkerPanicked
//!
//! Partial results are *resumable*. [`SweepCheckpoint`] serializes the
//! earliest-detection array, the set of fully-swept pattern batches and a
//! fingerprint of the run configuration (netlist structure, fault list,
//! vector set, lane width). [`sweep_resume`] validates the fingerprint and
//! re-runs only the batches not yet fully swept, min-merging the
//! checkpointed detections with the new ones. Because each (fault, batch)
//! detection mask is a pure function of the circuit and the vectors, and
//! the earliest-detection merge is an order-independent minimum, a
//! cancelled-checkpointed-resumed sweep is **bit-identical** to an
//! uninterrupted one — the chaos proptests cancel at random grid points
//! and assert exactly that, for arbitrary thread and shard counts.
//!
//! The [`FaultSweepOptions::chaos_panic_batch`] knob is the
//! chaos-injection hook those tests (and operators vetting a deployment)
//! use: the worker that reaches the given batch panics, exercising the
//! worker-boundary isolation path deterministically.

use std::ops::Range;

use iddq_control::{EngineError, Fnv1a, IoEnv, Outcome, RunControl};
use iddq_netlist::{Netlist, NodeId, PackedWord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::backend::BackendKind;
use crate::delta::DeltaSim;
use crate::faults::{FaultUniverseConfig, IddqFault};
use crate::grid;
pub use crate::grid::SweepWork;
use crate::iddq::{pack_chunk_into, pack_seq_frame_into};
use crate::logic_test::{eval_forced_with_state, recompute_driver, StuckAtFault};
use crate::sim::Simulator;

/// One logic (voltage-test) fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicFault {
    /// A classical stuck-at fault on a node.
    StuckAt(StuckAtFault),
    /// A wired-AND (ground-dominant) bridging short between two nets.
    Bridge {
        /// First shorted net.
        a: NodeId,
        /// Second shorted net.
        b: NodeId,
    },
}

/// The deterministic fault universe of the CLI `faults` command and the
/// serve `faults` request: both stuck-at polarities on every node, then
/// `bridges` bridging faults sampled with the IDDQ enumerator's locality
/// model.
#[must_use]
pub fn fault_universe(netlist: &Netlist, bridges: usize, seed: u64) -> Vec<LogicFault> {
    let mut faults: Vec<LogicFault> = netlist
        .node_ids()
        .flat_map(|node| {
            [false, true]
                .map(|stuck_at_one| LogicFault::StuckAt(StuckAtFault { node, stuck_at_one }))
        })
        .collect();
    let config = FaultUniverseConfig {
        bridges,
        gos_fraction: 0.0,
        stuck_on_fraction: 0.0,
        ..Default::default()
    };
    faults.extend(
        crate::faults::enumerate(netlist, &config, seed)
            .into_iter()
            .filter_map(|f| match f {
                IddqFault::Bridge { a, b, .. } => Some(LogicFault::Bridge { a, b }),
                _ => None,
            }),
    );
    faults
}

/// The deterministic random test vectors (one `bool` per primary input)
/// of the same two surfaces.
#[must_use]
pub fn random_vectors(netlist: &Netlist, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa17);
    (0..count)
        .map(|_| (0..netlist.num_inputs()).map(|_| rng.gen()).collect())
        .collect()
}

/// Persistent per-worker state of the fault-patch engine: one [`DeltaSim`]
/// holding the good-machine values of the current batch, plus the cached
/// good output words the detection diff compares against.
#[derive(Debug, Clone)]
pub struct FaultPatchSim<W: PackedWord> {
    sim: DeltaSim<W>,
    outputs: Vec<NodeId>,
    good_out: Vec<W>,
    /// DFF output node per state element (`Netlist::state_elements` order).
    state_nodes: Vec<NodeId>,
    /// Per node `i`, `driven[driven_off[i]..driven_off[i + 1]]` lists the
    /// state elements whose D pin node `i` drives.
    driven_off: Vec<u32>,
    driven: Vec<u32>,
    /// Per fault, the latched words in which its faulty machine differs
    /// from the good one at the current frame start, and the same for the
    /// next frame while it is captured.
    diverged: Divergence<W>,
    next_diverged: Divergence<W>,
    /// Pins of the faulty machine currently superimposed: its diverged
    /// DFF words, then the fault's own pins.
    pins: Vec<(NodeId, W)>,
    /// `(node, previous value)` per change the superposition made.
    log: Vec<(u32, W)>,
    /// Driver-recompute scratch (keeps the bridge fixpoint allocation-free).
    gather: Vec<W>,
    work: SweepWork,
}

impl<W: PackedWord> FaultPatchSim<W> {
    /// Builds the engine for `netlist` (all-zero-input baseline).
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let outputs = netlist.outputs().to_vec();
        let state_nodes = netlist.state_elements().to_vec();
        let d_of = |q: NodeId| netlist.node(q).fanin()[0].index();
        let mut driven_off = vec![0u32; netlist.node_count() + 1];
        for &q in &state_nodes {
            driven_off[d_of(q) + 1] += 1;
        }
        for i in 1..driven_off.len() {
            driven_off[i] += driven_off[i - 1];
        }
        let mut driven = vec![0u32; state_nodes.len()];
        let mut fill = driven_off.clone();
        for (j, &q) in state_nodes.iter().enumerate() {
            driven[fill[d_of(q)] as usize] = j as u32;
            fill[d_of(q)] += 1;
        }
        let mut this = FaultPatchSim {
            sim: DeltaSim::new(netlist),
            good_out: vec![W::zeros(); outputs.len()],
            outputs,
            state_nodes,
            driven_off,
            driven,
            diverged: Divergence::new(),
            next_diverged: Divergence::new(),
            pins: Vec::new(),
            log: Vec::new(),
            gather: Vec::new(),
            work: SweepWork::default(),
        };
        this.snapshot_outputs();
        this
    }

    /// Loads a packed pattern batch: one full sweep establishes the
    /// good-machine state, and the good output words are snapshotted.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn load(&mut self, inputs: &[W]) {
        self.sim.set_inputs(inputs);
        self.snapshot_outputs();
    }

    fn snapshot_outputs(&mut self) {
        for (g, &o) in self.good_out.iter_mut().zip(&self.outputs) {
            *g = self.sim.value(o);
        }
    }

    fn output_diff(&self) -> W {
        let mut diff = W::zeros();
        for (&g, &o) in self.good_out.iter().zip(&self.outputs) {
            diff = diff | (g ^ self.sim.value(o));
        }
        diff
    }

    /// Detection mask of one fault against the loaded batch: bit *k* set
    /// iff pattern *k* flips some primary output. The good state is
    /// restored before returning.
    ///
    /// # Panics
    ///
    /// Panics if the fault references nodes outside the netlist.
    pub fn detect(&mut self, fault: LogicFault) -> W {
        self.work.applications += 1;
        match fault {
            LogicFault::StuckAt(f) => {
                let (mask, evaluated) = self.sim.stuck_at_probe(f.node, f.stuck_at_one);
                self.work.evaluations += evaluated as u64;
                mask
            }
            // A net bridged to itself never changes logic.
            LogicFault::Bridge { a, b } if a == b => W::zeros(),
            LogicFault::Bridge { a, b } => {
                self.bridge_fixpoint(a, b, false);
                let diff = self.output_diff();
                for node in [a, b] {
                    self.work.evaluations += self.sim.unforce_word(node).reevaluated as u64;
                }
                diff
            }
        }
    }

    /// Superimposes a bridge as a wired-AND fixpoint, mirroring
    /// `bridge_logic_detection_from` iteration for iteration: each round
    /// pins both nets to the current wired word and re-derives it from
    /// the corrupted driver values. With `logged`, a round is one
    /// `DeltaSim::superimpose` walk onto the engine's log, which the
    /// caller lifts; otherwise it is two force walks the caller releases.
    /// Returns the final wired word.
    fn bridge_fixpoint(&mut self, a: NodeId, b: NodeId, logged: bool) -> W {
        let mut wired = self.sim.value(a) & self.sim.value(b);
        for _ in 0..3 {
            let evaluated = if logged {
                self.sim
                    .superimpose(&[(a, wired), (b, wired)], &mut self.log)
            } else {
                self.sim.force_word(a, wired).reevaluated
                    + self.sim.force_word(b, wired).reevaluated
            };
            self.work.evaluations += evaluated as u64;
            let next = self.recompute_driver(a) & self.recompute_driver(b);
            if next == wired {
                break;
            }
            wired = next;
        }
        wired
    }

    /// Sweeps one batch of `frames`-cycle sequences: lane *k* carries
    /// sequence `seq_base + k`, every sequence starting from the all-zero
    /// reset. For each live fault, `best_kt[k]` receives the earliest
    /// in-batch detection as `(lane, frame)` — a lower lane (earlier
    /// sequence) always outranks any frame offset, and within a lane the
    /// first detecting frame wins.
    ///
    /// The good machine steps frames on the persistent engine. Each
    /// fault's machine is superimposed on it in one logged walk — every
    /// DFF whose faulty latched word diverged from the good frame-start
    /// state, plus the fault site (a bridge runs its wired-AND fixpoint
    /// on top, onto the same log) — its next-state is captured off the D
    /// drivers, and the log is written back, restoring the good machine
    /// for the next fault without a release walk.
    ///
    /// With `bounded`, a fault the batch has already detected at lane `b`
    /// is simulated on lanes `< b` only, and skipped for the rest of the
    /// batch once `b == 0` (see the module's *Multi-frame sequences*
    /// section); `best_kt` comes out the same either way.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatches or faults referencing nodes outside the
    /// netlist.
    #[allow(clippy::too_many_arguments)] // mirrors the seq CSR oracle cell signature
    pub fn sweep_sequences(
        &mut self,
        vectors: &[Vec<bool>],
        seq_base: usize,
        frames: usize,
        faults: &[LogicFault],
        live: &[bool],
        best_kt: &mut [Option<(u32, usize)>],
        words: &mut [W],
        bounded: bool,
    ) {
        // Every sequence starts from the reset state: no fault has
        // diverged yet.
        self.diverged.clear();
        self.diverged.ends.resize(faults.len(), 0);
        let mut good_next = vec![W::zeros(); self.state_nodes.len()];
        for t in 0..frames {
            let lanes_t = pack_seq_frame_into(vectors, seq_base, frames, t, words);
            if lanes_t == 0 {
                break;
            }
            self.sim.step_frame(words, &mut good_next);
            self.snapshot_outputs();
            self.next_diverged.clear();
            for (k, &fault) in faults.iter().enumerate() {
                // Only a lane below the batch's detection can still
                // improve on it.
                let below = best_kt[k].filter(|_| bounded).map(|(b, _)| b);
                match below {
                    _ if !live[k] => {}
                    Some(0) => self.work.skipped_frames += 1,
                    _ => self.apply_machine(k, fault, below, lanes_t, t, &good_next, best_kt),
                }
                let end = self.next_diverged.entries.len() as u32;
                self.next_diverged.ends.push(end);
            }
            std::mem::swap(&mut self.diverged, &mut self.next_diverged);
        }
    }

    /// Superimposes fault `k`'s machine for frame `t` in one logged walk
    /// — its diverged DFF words plus the fault site, a bridge's wired-AND
    /// fixpoint on top — records a detection in `best_kt[k]`, appends the
    /// state elements whose faulty next word differs from `good_next` to
    /// `next_diverged`, and lifts the log. With `below = Some(b)` the
    /// diverged words, the stuck-at pin and the captured next-state words
    /// are cut to lanes `< b`: the other lanes run as the good machine.
    #[allow(clippy::too_many_arguments)]
    fn apply_machine(
        &mut self,
        k: usize,
        fault: LogicFault,
        below: Option<u32>,
        lanes_t: u32,
        t: usize,
        good_next: &[W],
        best_kt: &mut [Option<(u32, usize)>],
    ) {
        // `w` kept on the simulated lanes, `good` on the others.
        let cut = |w: W, good: W| below.map_or(w, |b| good ^ (w ^ good).mask_lanes(b));
        self.pins.clear();
        for &(j, w) in self.diverged.run(k) {
            let q = self.state_nodes[j as usize];
            let good = self.sim.value(q);
            let w = cut(w, good);
            if w != good {
                self.pins.push((q, w));
            }
        }
        self.work.applications += 1;
        if below.is_some_and(|b| b < lanes_t) {
            self.work.narrowed_applications += 1;
        }
        if !self.pins.is_empty() {
            self.work.diverged_applications += 1;
            self.work.diverged_pins += self.pins.len() as u64;
        }
        match fault {
            LogicFault::StuckAt(f) => {
                let stuck = cut(W::splat(f.stuck_at_one), self.sim.value(f.node));
                self.pins.push((f.node, stuck));
                self.work.evaluations += self.sim.superimpose(&self.pins, &mut self.log) as u64;
            }
            LogicFault::Bridge { a, b } => {
                self.work.evaluations += self.sim.superimpose(&self.pins, &mut self.log) as u64;
                // A net bridged to itself never changes logic.
                if a != b {
                    let wired = self.bridge_fixpoint(a, b, true);
                    self.pins.extend([(a, wired), (b, wired)]);
                }
            }
        }
        let diff = self.output_diff().mask_lanes(lanes_t);
        if let Some(bit) = diff.first_set() {
            if best_kt[k].is_none_or(|(kb, _)| bit < kb) {
                best_kt[k] = Some((bit, t));
            }
        }
        // The faulty next state differs from the good one only at D pins
        // whose driver the superposition changed, and every change is in
        // the log. A bridge's rounds may log a node more than once.
        let relogged = matches!(fault, LogicFault::Bridge { .. });
        let run = &mut self.next_diverged.entries;
        let first = run.len();
        for &(node, _) in &self.log {
            let i = node as usize;
            let word = self.sim.values()[i];
            for &j in &self.driven[self.driven_off[i] as usize..self.driven_off[i + 1] as usize] {
                let good = good_next[j as usize];
                let word = cut(word, good);
                if word != good && !(relogged && run[first..].iter().any(|&(seen, _)| seen == j)) {
                    run.push((j, word));
                }
            }
        }
        self.sim.lift_logged(&self.pins, &mut self.log);
    }

    /// What the forced net's driver would output given the current
    /// (corrupted) fan-in values; primary inputs drive their forced value.
    fn recompute_driver(&mut self, node: NodeId) -> W {
        match self.sim.kind(node) {
            None => self.sim.value(node),
            Some(kind) => {
                self.gather.clear();
                for &f in self.sim.fanin_indices(node) {
                    self.gather.push(self.sim.values()[f as usize]);
                }
                kind.eval_packed(&self.gather)
            }
        }
    }

    /// The work counters so far (see [`SweepWork`]).
    #[must_use]
    pub fn work(&self) -> SweepWork {
        self.work
    }
}

/// Per fault, the `(state element, word)` pairs in which its faulty
/// machine's latched state differs from the good machine's, as one run
/// per fault in fault order: fault `k`'s run ends at `ends[k]`.
#[derive(Debug, Clone)]
struct Divergence<W> {
    entries: Vec<(u32, W)>,
    ends: Vec<u32>,
}

impl<W> Divergence<W> {
    fn new() -> Self {
        Divergence {
            entries: Vec::new(),
            ends: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.ends.clear();
    }

    /// Fault `k`'s run.
    fn run(&self, k: usize) -> &[(u32, W)] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.entries[start as usize..self.ends[k] as usize]
    }
}

/// Tuning knobs of the fault-patch sweep and its grid of fault shards ×
/// pattern batches.
#[derive(Debug, Clone)]
pub struct FaultSweepOptions {
    /// Worker threads; `0` = one per available core (capped by tasks).
    pub threads: usize,
    /// Fault-list shards; `0` = automatic (shard only when pattern batches
    /// cannot keep all workers busy).
    pub fault_shards: usize,
    /// Skip faults whose earliest detection is already known, and with
    /// `frames > 1` run each faulty machine only below its in-batch
    /// detection (see the module's *Multi-frame sequences* section).
    /// Never changes results, only work.
    pub fault_dropping: bool,
    /// [`BackendKind::Delta`] = the fault-patch engine;
    /// [`BackendKind::Csr`] = per-fault full re-simulation (the
    /// differential oracle and speedup baseline).
    pub backend: BackendKind,
    /// Frames per test sequence. `1` (or `0`, normalized to `1`) keeps the
    /// classical one-vector-per-test combinational sweep; `F > 1` reads
    /// the vector set as consecutive `F`-cycle sequences, each started
    /// from the all-zero reset state (see the module's *Multi-frame
    /// sequences* section).
    pub frames: usize,
    /// Chaos injection: the worker that reaches this absolute pattern-batch
    /// index panics right before evaluating it. Exercises the
    /// worker-boundary panic isolation (one poisoned task fails
    /// its shard, the sweep degrades to `Partial` instead of aborting the
    /// process). `None` in production.
    pub chaos_panic_batch: Option<usize>,
}

impl Default for FaultSweepOptions {
    fn default() -> Self {
        FaultSweepOptions {
            threads: 0,
            fault_shards: 0,
            fault_dropping: true,
            backend: BackendKind::Delta,
            frames: 1,
            chaos_panic_batch: None,
        }
    }
}

/// The CSR oracle: every fault's machine is rebuilt per frame by a full
/// forced topological sweep with the faulty latched state scattered over
/// the DFF outputs, mirroring the patch engine's force fixpoints
/// iteration for iteration. Slow and obviously correct — the differential
/// baseline [`FaultPatchSim::detect`] and
/// [`FaultPatchSim::sweep_sequences`] must match bit-for-bit.
#[allow(clippy::too_many_arguments)]
fn csr_oracle_batch<W: PackedWord>(
    netlist: &Netlist,
    sim: &Simulator,
    vectors: &[Vec<bool>],
    seq_base: usize,
    frames: usize,
    faults: &[LogicFault],
    live: &[bool],
    best_kt: &mut [Option<(u32, usize)>],
    words: &mut [W],
) {
    let state_nodes = netlist.state_elements();
    let d_drivers: Vec<usize> = state_nodes
        .iter()
        .map(|&q| netlist.node(q).fanin()[0].index())
        .collect();
    let outputs = netlist.outputs();
    // Good pass: record per-frame packed inputs, output words, lane counts.
    let mut frame_inputs: Vec<Vec<W>> = Vec::with_capacity(frames);
    let mut frame_lanes: Vec<u32> = Vec::with_capacity(frames);
    let mut good_outs: Vec<Vec<W>> = Vec::with_capacity(frames);
    let mut state = vec![W::zeros(); state_nodes.len()];
    let mut values = vec![W::zeros(); netlist.node_count()];
    for t in 0..frames {
        let lanes_t = pack_seq_frame_into(vectors, seq_base, frames, t, words);
        if lanes_t == 0 {
            break;
        }
        sim.step_frame(words, &mut state, &mut values);
        frame_inputs.push(words.to_vec());
        frame_lanes.push(lanes_t);
        good_outs.push(outputs.iter().map(|&o| values[o.index()]).collect());
    }
    let mut state_f = vec![W::zeros(); state_nodes.len()];
    for (k, &fault) in faults.iter().enumerate() {
        if !live[k] {
            continue;
        }
        state_f.fill(W::zeros());
        for (t, inputs) in frame_inputs.iter().enumerate() {
            let bad = match fault {
                LogicFault::StuckAt(f) => eval_forced_with_state(
                    netlist,
                    inputs,
                    &state_f,
                    &[(f.node, W::splat(f.stuck_at_one))],
                ),
                LogicFault::Bridge { a, b } if a != b => {
                    let v0 = eval_forced_with_state(netlist, inputs, &state_f, &[]);
                    let mut wired = v0[a.index()] & v0[b.index()];
                    let mut bad = v0;
                    for _ in 0..3 {
                        bad = eval_forced_with_state(
                            netlist,
                            inputs,
                            &state_f,
                            &[(a, wired), (b, wired)],
                        );
                        let next =
                            recompute_driver(netlist, &bad, a) & recompute_driver(netlist, &bad, b);
                        if next == wired {
                            break;
                        }
                        wired = next;
                    }
                    bad
                }
                // A net bridged to itself never changes logic; the faulty
                // machine is the good machine, re-derived the slow way.
                LogicFault::Bridge { .. } => eval_forced_with_state(netlist, inputs, &state_f, &[]),
            };
            let mut diff = W::zeros();
            for (&o, &g) in outputs.iter().zip(&good_outs[t]) {
                diff = diff | (g ^ bad[o.index()]);
            }
            diff = diff.mask_lanes(frame_lanes[t]);
            if let Some(bit) = diff.first_set() {
                if best_kt[k].is_none_or(|(kb, _)| bit < kb) {
                    best_kt[k] = Some((bit, t));
                }
            }
            for (slot, &d) in state_f.iter_mut().zip(&d_drivers) {
                *slot = bad[d];
            }
        }
    }
}

/// Outcome of a [`sweep`].
#[derive(Debug, Clone)]
pub struct FaultSweepOutcome {
    /// Per-fault: was it detected by any vector.
    pub detected: Vec<bool>,
    /// Per-fault: index of the first detecting vector, if any.
    pub first_detection: Vec<Option<usize>>,
    /// Fraction of faults detected.
    pub coverage: f64,
    /// Number of vectors applied.
    pub vectors_applied: usize,
    /// Mean node evaluations per fault application — probe steps plus
    /// stem walks for stuck-at faults, force and release walks for
    /// single-frame bridges, the superposition walk (and a bridge's
    /// fixpoint walks) for multi-frame machines (0 on the CSR oracle,
    /// which has no dirty-cone notion).
    pub mean_dirty_nodes: f64,
    /// The raw work counters behind `mean_dirty_nodes`.
    pub work: SweepWork,
    /// Per pattern batch: was it fully swept against every fault shard
    /// (complete runs: all `true`). This is the resume frontier a
    /// [`SweepCheckpoint`] persists — a batch left `false` is re-swept on
    /// resume, which is always sound because re-scanning reproduces the
    /// same detection masks and the earliest-detection merge is an
    /// order-independent minimum.
    pub done_batches: Vec<bool>,
}

impl FaultSweepOutcome {
    /// Fraction of pattern batches fully swept — the same figure as
    /// [`SweepCheckpoint::progress`] of a checkpoint captured from this
    /// outcome, without capturing one.
    #[must_use]
    pub fn progress(&self) -> f64 {
        batch_progress(&self.done_batches)
    }
}

/// Fraction of `done_batches` marked done (`1.0` when there are none).
fn batch_progress(done_batches: &[bool]) -> f64 {
    if done_batches.is_empty() {
        1.0
    } else {
        done_batches.iter().filter(|&&d| d).count() as f64 / done_batches.len() as f64
    }
}

/// A serializable snapshot of an interrupted fault sweep: everything
/// needed to resume it to a bit-identical completion.
///
/// The checkpoint format (stable JSON via the vendored serde) holds:
///
/// * `fingerprint` — 64-bit FNV-1a over the netlist structure, the fault
///   list, the vector set, the lane width, and the thread/shard grid
///   options, hex-encoded. A resumed run must fingerprint identically or
///   [`sweep_resume`] rejects it with [`EngineError::CheckpointMismatch`]
///   — resuming against a different circuit or vector set would silently
///   corrupt the min-merge, and resuming under a different grid
///   configuration is rejected *by policy*: the merge itself is
///   config-independent, but a service restoring a checkpoint must know
///   it is replaying the run it thinks it is. (`fault_dropping`,
///   `backend` and the chaos injection knob are deliberately excluded:
///   they never change results, only work.)
/// * `first_detection` — the per-fault earliest detection indices merged
///   over all grid cells completed before the interruption.
/// * `done_batches` — which pattern batches were fully swept against
///   every fault shard. Resume re-runs exactly the others.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Netlist name (informational; the fingerprint is what binds).
    pub circuit: String,
    /// Hex-encoded FNV-1a fingerprint of (netlist, faults, vectors,
    /// lanes, threads, fault_shards).
    pub fingerprint: String,
    /// Packed lane width the batch geometry was computed with.
    pub lanes: u32,
    /// Worker-thread option of the original run (raw value; `0` = auto).
    pub threads: usize,
    /// Fault-shard option of the original run (raw value; `0` = auto).
    pub fault_shards: usize,
    /// Number of vectors in the sweep.
    pub num_vectors: usize,
    /// Frames per test sequence the batch geometry was computed with
    /// (`1` = the classical combinational sweep). Checkpoints written
    /// before sequential support lack the field and fail closed as
    /// unreadable — re-running a sweep is always sound.
    pub frames: usize,
    /// Per-fault earliest detection so far (`null` = none yet).
    pub first_detection: Vec<Option<usize>>,
    /// Per pattern batch: fully swept before the interruption.
    pub done_batches: Vec<bool>,
}

fn run_fingerprint<W: PackedWord>(
    netlist: &Netlist,
    faults: &[LogicFault],
    vectors: &[Vec<bool>],
    options: &FaultSweepOptions,
) -> String {
    let mut h = Fnv1a::new();
    h.u64(u64::from(W::LANES));
    h.u64(options.threads as u64);
    h.u64(options.fault_shards as u64);
    h.u64(options.frames.max(1) as u64);
    h.u64(netlist.node_count() as u64);
    h.u64(netlist.num_inputs() as u64);
    h.u64(netlist.num_outputs() as u64);
    for id in netlist.node_ids() {
        match netlist.node(id).kind().cell_kind() {
            None => h.u64(u64::MAX),
            Some(kind) => h.bytes(kind.mnemonic().as_bytes()),
        };
        for f in netlist.node(id).fanin() {
            h.u64(f.index() as u64);
        }
    }
    for fault in faults {
        match *fault {
            LogicFault::StuckAt(f) => {
                h.u64(0);
                h.u64(f.node.index() as u64);
                h.u64(u64::from(f.stuck_at_one));
            }
            LogicFault::Bridge { a, b } => {
                h.u64(1);
                h.u64(a.index() as u64);
                h.u64(b.index() as u64);
            }
        }
    }
    h.u64(vectors.len() as u64);
    for v in vectors {
        h.u64(v.len() as u64);
        let mut word = 0u64;
        for (i, &bit) in v.iter().enumerate() {
            if bit {
                word |= 1 << (i % 64);
            }
            if i % 64 == 63 {
                h.u64(word);
                word = 0;
            }
        }
        h.u64(word);
    }
    format!("{:016x}", h.finish())
}

impl SweepCheckpoint {
    /// Captures a checkpoint of `outcome` for later [`sweep_resume`].
    ///
    /// `W` must be the lane width and `options` the grid configuration
    /// the sweep ran with (both are part of the fingerprint).
    #[must_use]
    pub fn capture<W: PackedWord>(
        netlist: &Netlist,
        faults: &[LogicFault],
        vectors: &[Vec<bool>],
        options: &FaultSweepOptions,
        outcome: &FaultSweepOutcome,
    ) -> Self {
        SweepCheckpoint {
            circuit: netlist.name().to_owned(),
            fingerprint: run_fingerprint::<W>(netlist, faults, vectors, options),
            lanes: W::LANES,
            threads: options.threads,
            fault_shards: options.fault_shards,
            num_vectors: vectors.len(),
            frames: options.frames.max(1),
            first_detection: outcome.first_detection.clone(),
            done_batches: outcome.done_batches.clone(),
        }
    }

    /// Checks that this checkpoint belongs to exactly the given run
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`EngineError::CheckpointMismatch`] when the fingerprint, the
    /// fault count, the batch geometry or the thread/shard grid options
    /// disagree.
    pub fn validate<W: PackedWord>(
        &self,
        netlist: &Netlist,
        faults: &[LogicFault],
        vectors: &[Vec<bool>],
        options: &FaultSweepOptions,
    ) -> Result<(), EngineError> {
        let mismatch = |what: &str| {
            Err(EngineError::CheckpointMismatch(format!(
                "{what} (checkpoint was taken from circuit `{}`)",
                self.circuit
            )))
        };
        let frames = options.frames.max(1);
        let num_batches = grid::num_batches(vectors.len(), frames, W::LANES as usize);
        // Checked in this order; the first disagreement is reported.
        for (what, ours, run) in [
            ("lane width", self.lanes as usize, W::LANES as usize),
            ("thread option", self.threads, options.threads),
            (
                "fault-shard option",
                self.fault_shards,
                options.fault_shards,
            ),
            ("vector count", self.num_vectors, vectors.len()),
            ("frames-per-sequence", self.frames, frames),
            ("fault count", self.first_detection.len(), faults.len()),
            ("batch count", self.done_batches.len(), num_batches),
        ] {
            if ours != run {
                return mismatch(&format!("{what} {ours} differs from the run's {run}"));
            }
        }
        let expected = run_fingerprint::<W>(netlist, faults, vectors, options);
        if self.fingerprint != expected {
            return mismatch("netlist/fault/vector fingerprint differs");
        }
        Ok(())
    }

    /// Fraction of pattern batches fully swept.
    #[must_use]
    pub fn progress(&self) -> f64 {
        batch_progress(&self.done_batches)
    }

    /// Serializes the checkpoint as sealed pretty-printed JSON: the
    /// payload is prefixed with an `iddq-sealed` header carrying an
    /// FNV-1a content checksum and the payload length, so truncation and
    /// bit flips are detected on load instead of silently merging partial
    /// state.
    #[must_use]
    pub fn to_json(&self) -> String {
        iddq_control::seal(&serde_json::to_string_pretty(self).unwrap_or_default())
    }

    /// Parses a checkpoint from sealed JSON text.
    ///
    /// # Errors
    ///
    /// [`EngineError::CheckpointMismatch`] on a missing/invalid seal
    /// (truncated or corrupted file — checkpoints written before the
    /// sealed format fail closed as unreadable; re-running a sweep is
    /// always sound), malformed JSON, or a tree that does not match the
    /// checkpoint schema.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let unreadable = |e: &dyn std::fmt::Display| {
            EngineError::CheckpointMismatch(format!("unreadable checkpoint: {e}"))
        };
        let payload = iddq_control::open_sealed(text).map_err(|e| unreadable(&e))?;
        serde_json::from_str(payload).map_err(|e| unreadable(&e))
    }

    /// Reads and parses a checkpoint file through `env`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] when the file cannot be read;
    /// [`EngineError::CheckpointMismatch`] when its contents fail the
    /// seal or schema checks (see [`SweepCheckpoint::from_json`]).
    pub fn load_in(env: &dyn IoEnv, path: &std::path::Path) -> Result<Self, EngineError> {
        let text = env.read_to_string(path).map_err(|e| EngineError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::from_json(&text)
    }

    /// Persists the checkpoint atomically through `env`: on any failure
    /// the previous checkpoint file (if one exists) is left intact.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] when the write or rename fails.
    pub fn save_in(&self, env: &dyn IoEnv, path: &std::path::Path) -> Result<(), EngineError> {
        iddq_control::write_atomic_in(env, path, &self.to_json())
    }
}

/// The fault sweep's per-worker detector: the fault-patch engine, or the
/// CSR oracle.
struct LogicDetector<'a, W: PackedWord> {
    netlist: &'a Netlist,
    faults: &'a [LogicFault],
    vectors: &'a [Vec<bool>],
    frames: usize,
    /// Bound each multi-frame machine by its in-batch detection (on
    /// with fault dropping).
    bounded: bool,
    engine: Engine<W>,
    words: Vec<W>,
}

enum Engine<W: PackedWord> {
    Patch(Box<FaultPatchSim<W>>),
    Csr(Simulator),
}

impl<W: PackedWord> grid::Detector for LogicDetector<'_, W> {
    fn sweep_batch(
        &mut self,
        batch: usize,
        faults: Range<usize>,
        live: &[bool],
        hits: &mut [Option<(u32, usize)>],
    ) {
        let seq_base = batch * W::LANES as usize;
        let shard = &self.faults[faults];
        match &mut self.engine {
            Engine::Patch(ps) if self.frames == 1 => {
                let end = self.vectors.len().min(seq_base + W::LANES as usize);
                let chunk = &self.vectors[seq_base..end];
                pack_chunk_into(chunk, &mut self.words);
                ps.load(&self.words);
                for ((hit, &l), &fault) in hits.iter_mut().zip(live).zip(shard) {
                    if l {
                        let mask = ps.detect(fault).mask_lanes(chunk.len() as u32);
                        *hit = mask.first_set().map(|lane| (lane, 0));
                    }
                }
            }
            Engine::Patch(ps) => ps.sweep_sequences(
                self.vectors,
                seq_base,
                self.frames,
                shard,
                live,
                hits,
                &mut self.words,
                self.bounded,
            ),
            Engine::Csr(sim) => csr_oracle_batch(
                self.netlist,
                sim,
                self.vectors,
                seq_base,
                self.frames,
                shard,
                live,
                hits,
                &mut self.words,
            ),
        }
    }

    fn work(&self) -> SweepWork {
        match &self.engine {
            Engine::Patch(ps) => ps.work(),
            Engine::Csr(_) => SweepWork::default(),
        }
    }
}

/// Sweeps a fault list against a vector set, `W::LANES` patterns at a
/// time, returning per-fault earliest detections.
///
/// Results are bit-identical for any `threads`, `fault_shards`,
/// `fault_dropping` and backend choice (enforced by the differential
/// proptests); only the work differs.
///
/// This is the plain, non-budgeted entry point: it runs under an
/// unlimited [`RunControl`], so the only way it returns less than the
/// full sweep is a caught worker panic (in which case the affected grid
/// cells are simply missing from the merge — see [`sweep_with_control`]
/// to observe that, and everything else, as a typed [`Outcome`]).
///
/// # Panics
///
/// Panics if a vector's arity differs from the netlist's primary-input
/// count or a fault references nodes outside the netlist.
#[must_use]
pub fn sweep<W: PackedWord>(
    netlist: &Netlist,
    faults: &[LogicFault],
    vectors: &[Vec<bool>],
    options: &FaultSweepOptions,
) -> FaultSweepOutcome {
    sweep_with_control::<W>(netlist, faults, vectors, options, &RunControl::unlimited())
        .into_value()
}

/// [`sweep`] under a [`RunControl`]: cancellable, budget-aware, and
/// panic-isolated.
///
/// The control is polled at every (grid cell, pattern batch) boundary and
/// charged one unit per pattern applied per cell. On a stop the function
/// returns [`Outcome::Partial`] whose value carries the detections of
/// every completed cell and whose `coverage` is the fraction of planned
/// cell-batch units that ran; [`FaultSweepOutcome::done_batches`] marks
/// the batches that completed against *every* fault shard, which is what
/// [`SweepCheckpoint::capture`] persists for resume.
#[must_use]
pub fn sweep_with_control<W: PackedWord>(
    netlist: &Netlist,
    faults: &[LogicFault],
    vectors: &[Vec<bool>],
    options: &FaultSweepOptions,
    control: &RunControl,
) -> Outcome<FaultSweepOutcome> {
    sweep_impl::<W>(netlist, faults, vectors, options, control, None)
}

/// Resumes a checkpointed sweep: validates `checkpoint` against the run
/// configuration, re-sweeps only the pattern batches not yet marked done,
/// and min-merges the checkpointed detections with the new ones.
///
/// A resumed run that completes is **bit-identical** to an uninterrupted
/// [`sweep`] of the same configuration (chaos-proptested across thread
/// and shard counts).
///
/// # Errors
///
/// [`EngineError::CheckpointMismatch`] when the checkpoint does not
/// fingerprint-match the given netlist/faults/vectors/lanes or was taken
/// under different thread/shard grid options.
pub fn sweep_resume<W: PackedWord>(
    netlist: &Netlist,
    faults: &[LogicFault],
    vectors: &[Vec<bool>],
    options: &FaultSweepOptions,
    control: &RunControl,
    checkpoint: &SweepCheckpoint,
) -> Result<Outcome<FaultSweepOutcome>, EngineError> {
    checkpoint.validate::<W>(netlist, faults, vectors, options)?;
    Ok(sweep_impl::<W>(
        netlist,
        faults,
        vectors,
        options,
        control,
        Some(checkpoint),
    ))
}

fn sweep_impl<W: PackedWord>(
    netlist: &Netlist,
    faults: &[LogicFault],
    vectors: &[Vec<bool>],
    options: &FaultSweepOptions,
    control: &RunControl,
    resume: Option<&SweepCheckpoint>,
) -> Outcome<FaultSweepOutcome> {
    let spec = grid::Spec {
        faults: faults.len(),
        vectors: vectors.len(),
        lanes: W::LANES as usize,
        frames: options.frames,
        threads: options.threads,
        fault_shards: options.fault_shards,
        dropping: options.fault_dropping,
        chaos_panic_batch: options.chaos_panic_batch,
        resume: resume.map(|cp| (&cp.first_detection[..], &cp.done_batches[..])),
    };
    grid::run(&spec, control, || LogicDetector::<W> {
        netlist,
        faults,
        vectors,
        frames: options.frames.max(1),
        bounded: options.fault_dropping,
        engine: match options.backend {
            BackendKind::Delta => Engine::Patch(Box::new(FaultPatchSim::new(netlist))),
            BackendKind::Csr => Engine::Csr(Simulator::new(netlist)),
        },
        words: vec![W::zeros(); netlist.num_inputs()],
    })
    .map(|sweep| {
        let (detected, coverage) = sweep.detected();
        let work = sweep.work;
        FaultSweepOutcome {
            detected,
            first_detection: sweep.first_detection,
            coverage,
            vectors_applied: vectors.len(),
            mean_dirty_nodes: if work.applications == 0 {
                0.0
            } else {
                work.evaluations as f64 / work.applications as f64
            },
            work,
            done_batches: sweep.done_batches,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic_test::{bridge_logic_detection, stuck_at_detection};
    use iddq_control::{RunBudget, StopReason};
    use iddq_netlist::{data, W256, W512};

    fn all_packed_c17() -> Vec<u64> {
        let mut packed = vec![0u64; 5];
        for pat in 0u64..32 {
            for (i, word) in packed.iter_mut().enumerate() {
                if pat >> i & 1 == 1 {
                    *word |= 1 << pat;
                }
            }
        }
        packed
    }

    #[test]
    fn patch_stuck_at_matches_full_resim_on_c17() {
        let nl = data::c17();
        let packed = all_packed_c17();
        let mut ps = FaultPatchSim::<u64>::new(&nl);
        ps.load(&packed);
        for node in nl.node_ids() {
            for stuck_at_one in [false, true] {
                let fault = StuckAtFault { node, stuck_at_one };
                assert_eq!(
                    ps.detect(LogicFault::StuckAt(fault)),
                    stuck_at_detection(&nl, fault, &packed),
                    "node {node} sa{}",
                    u8::from(stuck_at_one)
                );
            }
        }
        assert!(ps.work().evaluations > 0);
    }

    #[test]
    fn patch_bridge_matches_full_resim_on_c17() {
        let nl = data::c17();
        let packed = all_packed_c17();
        let mut ps = FaultPatchSim::<u64>::new(&nl);
        ps.load(&packed);
        let nodes: Vec<_> = nl.node_ids().collect();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i..] {
                assert_eq!(
                    ps.detect(LogicFault::Bridge { a, b }),
                    bridge_logic_detection(&nl, a, b, &packed),
                    "bridge {a}-{b}"
                );
            }
        }
    }

    #[test]
    fn engine_state_survives_fault_interleaving() {
        // detect() must leave the good state untouched — interleave faults
        // and re-run one: same answer.
        let nl = data::c17();
        let packed = all_packed_c17();
        let mut ps = FaultPatchSim::<u64>::new(&nl);
        ps.load(&packed);
        let g10 = nl.find("10").unwrap();
        let g22 = nl.find("22").unwrap();
        let f = LogicFault::StuckAt(StuckAtFault {
            node: g10,
            stuck_at_one: true,
        });
        let before = ps.detect(f);
        ps.detect(LogicFault::Bridge { a: g10, b: g22 });
        ps.detect(LogicFault::StuckAt(StuckAtFault {
            node: g22,
            stuck_at_one: false,
        }));
        assert_eq!(ps.detect(f), before);
    }

    fn c17_fault_list(nl: &iddq_netlist::Netlist) -> Vec<LogicFault> {
        let mut faults: Vec<LogicFault> = Vec::new();
        for node in nl.node_ids() {
            for stuck_at_one in [false, true] {
                faults.push(LogicFault::StuckAt(StuckAtFault { node, stuck_at_one }));
            }
        }
        let gs = data::c17_paper_gates(nl);
        faults.push(LogicFault::Bridge { a: gs[0], b: gs[3] });
        faults.push(LogicFault::Bridge { a: gs[1], b: gs[2] });
        faults
    }

    fn c17_vectors(n: usize) -> Vec<Vec<bool>> {
        (0..n)
            .map(|k| (0..5).map(|i| (k >> i) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn sweep_backends_and_knobs_agree() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(200);
        let base = sweep::<u64>(
            &nl,
            &faults,
            &vectors,
            &FaultSweepOptions {
                threads: 1,
                fault_shards: 1,
                fault_dropping: false,
                backend: BackendKind::Csr,
                ..FaultSweepOptions::default()
            },
        );
        assert!(base.coverage > 0.5);
        for (threads, shards, dropping, backend) in [
            (1, 1, true, BackendKind::Delta),
            (1, 1, false, BackendKind::Delta),
            (3, 2, true, BackendKind::Delta),
            (4, 1, true, BackendKind::Csr),
            (2, 3, true, BackendKind::Csr),
        ] {
            let r = sweep::<u64>(
                &nl,
                &faults,
                &vectors,
                &FaultSweepOptions {
                    threads,
                    fault_shards: shards,
                    fault_dropping: dropping,
                    backend,
                    ..FaultSweepOptions::default()
                },
            );
            assert_eq!(
                base.first_detection, r.first_detection,
                "threads={threads} shards={shards} dropping={dropping} backend={backend}"
            );
            assert_eq!(base.detected, r.detected);
        }
    }

    #[test]
    fn sweep_lane_width_invariant() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(300);
        let opts = FaultSweepOptions::default();
        let narrow = sweep::<u64>(&nl, &faults, &vectors, &opts);
        let wide = sweep::<W256>(&nl, &faults, &vectors, &opts);
        let wider = sweep::<W512>(&nl, &faults, &vectors, &opts);
        assert_eq!(narrow.first_detection, wide.first_detection);
        assert_eq!(narrow.first_detection, wider.first_detection);
    }

    #[test]
    fn empty_fault_list_full_coverage() {
        let nl = data::c17();
        let r = sweep::<u64>(&nl, &[], &c17_vectors(8), &FaultSweepOptions::default());
        assert_eq!(r.coverage, 1.0);
        assert_eq!(r.vectors_applied, 8);
        assert!(r.done_batches.iter().all(|&d| d));
    }

    #[test]
    fn undetectable_fault_reported_undetected() {
        // A bridge of a net with itself is logically silent.
        let nl = data::c17();
        let g10 = nl.find("10").unwrap();
        let faults = vec![LogicFault::Bridge { a: g10, b: g10 }];
        let r = sweep::<u64>(
            &nl,
            &faults,
            &c17_vectors(32),
            &FaultSweepOptions::default(),
        );
        assert_eq!(r.detected, vec![false]);
        assert_eq!(r.coverage, 0.0);
    }

    #[test]
    fn complete_sweep_marks_all_batches_done() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(200);
        let out = sweep_with_control::<u64>(
            &nl,
            &faults,
            &vectors,
            &FaultSweepOptions::default(),
            &RunControl::unlimited(),
        );
        assert!(out.is_complete());
        assert_eq!(out.coverage(), 1.0);
        let v = out.into_value();
        assert_eq!(v.done_batches.len(), 200usize.div_ceil(64));
        assert!(v.done_batches.iter().all(|&d| d));
    }

    /// Pinned: checkpoints already on disk must keep validating.
    #[test]
    fn checkpoint_fingerprint_golden_values() {
        let nl = data::c17();
        let mut faults = c17_fault_list(&nl);
        faults.pop();
        let vectors = c17_vectors(100);
        let opts = FaultSweepOptions::default();
        let out = sweep::<u64>(&nl, &faults, &vectors, &opts);
        let cp = SweepCheckpoint::capture::<u64>(&nl, &faults, &vectors, &opts, &out);
        assert_eq!(cp.fingerprint, "3e926af90c6e9cf2");
        let grid = FaultSweepOptions {
            threads: 2,
            fault_shards: 3,
            frames: 3,
            ..FaultSweepOptions::default()
        };
        let cp = SweepCheckpoint::capture::<W256>(&nl, &faults, &vectors, &grid, &out);
        assert_eq!(cp.fingerprint, "1eaacb2365736f7e");
    }

    #[test]
    fn checkpoint_json_roundtrip_and_validation() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(130);
        let opts = FaultSweepOptions::default();
        let out = sweep::<u64>(&nl, &faults, &vectors, &opts);
        let cp = SweepCheckpoint::capture::<u64>(&nl, &faults, &vectors, &opts, &out);
        let back = SweepCheckpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(cp, back);
        assert_eq!(cp.progress(), 1.0);
        assert!(cp.validate::<u64>(&nl, &faults, &vectors, &opts).is_ok());
        // Wrong lane width, vector count, fault list: all rejected.
        assert!(cp.validate::<W256>(&nl, &faults, &vectors, &opts).is_err());
        assert!(cp
            .validate::<u64>(&nl, &faults, &vectors[..129], &opts)
            .is_err());
        assert!(cp
            .validate::<u64>(&nl, &faults[..3], &vectors, &opts)
            .is_err());
        // Same shapes, different vector *content*: fingerprint catches it.
        let mut other = vectors.clone();
        other[7][2] = !other[7][2];
        assert!(cp.validate::<u64>(&nl, &faults, &other, &opts).is_err());
        // Same run, different thread/shard grid options: rejected, with a
        // message naming the offending option.
        let threaded = FaultSweepOptions {
            threads: 3,
            ..FaultSweepOptions::default()
        };
        let err = cp
            .validate::<u64>(&nl, &faults, &vectors, &threaded)
            .unwrap_err();
        assert!(err.to_string().contains("thread option"), "{err}");
        let sharded = FaultSweepOptions {
            fault_shards: 2,
            ..FaultSweepOptions::default()
        };
        let err = cp
            .validate::<u64>(&nl, &faults, &vectors, &sharded)
            .unwrap_err();
        assert!(err.to_string().contains("fault-shard option"), "{err}");
        // Options that never change results are *not* bound: a checkpoint
        // taken with dropping on resumes with dropping off.
        let no_drop = FaultSweepOptions {
            fault_dropping: false,
            ..FaultSweepOptions::default()
        };
        assert!(cp.validate::<u64>(&nl, &faults, &vectors, &no_drop).is_ok());
        assert!(SweepCheckpoint::from_json("{ not json").is_err());
    }

    /// A sealed checkpoint file truncated at any byte offset — or with
    /// any single byte flipped — yields a typed `CheckpointMismatch`,
    /// never a panic and never a silent partial merge.
    #[test]
    fn checkpoint_rejects_truncation_at_every_offset() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(16);
        let opts = FaultSweepOptions::default();
        let out = sweep::<u64>(&nl, &faults, &vectors, &opts);
        let cp = SweepCheckpoint::capture::<u64>(&nl, &faults, &vectors, &opts, &out);
        let sealed = cp.to_json();
        for cut in 0..sealed.len() {
            let err = SweepCheckpoint::from_json(&sealed[..cut]).unwrap_err();
            assert!(
                matches!(err, EngineError::CheckpointMismatch(_)),
                "cut={cut}: {err}"
            );
        }
        for i in 0..sealed.len() {
            let mut bytes = sealed.clone().into_bytes();
            bytes[i] = if bytes[i] == b'0' { b'1' } else { b'0' };
            let Ok(flipped) = String::from_utf8(bytes) else {
                continue;
            };
            if flipped == sealed {
                continue;
            }
            let err = SweepCheckpoint::from_json(&flipped).unwrap_err();
            assert!(
                matches!(err, EngineError::CheckpointMismatch(_)),
                "flip at {i}: {err}"
            );
        }
        // Pre-seal checkpoints (bare JSON) fail closed as unreadable.
        let bare = iddq_control::open_sealed(&sealed).unwrap();
        assert!(SweepCheckpoint::from_json(bare).is_err());
    }

    /// `save_in`/`load_in` round-trip through an [`IoEnv`], and a faulty
    /// env's torn write leaves the previous checkpoint loadable.
    #[test]
    fn checkpoint_save_load_through_env() {
        use iddq_control::{FaultPlan, FaultyEnv, RealEnv};
        let dir = std::env::temp_dir().join(format!("iddq-cp-env-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");

        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(16);
        let opts = FaultSweepOptions::default();
        let out = sweep::<u64>(&nl, &faults, &vectors, &opts);
        let cp = SweepCheckpoint::capture::<u64>(&nl, &faults, &vectors, &opts, &out);

        cp.save_in(&RealEnv, &path).unwrap();
        assert_eq!(SweepCheckpoint::load_in(&RealEnv, &path).unwrap(), cp);

        // Every write fails torn: the save errors, the old file survives.
        let torn = FaultyEnv::new(11, {
            let mut p = FaultPlan::none();
            p.torn_write = 1000;
            p
        });
        assert!(cp.save_in(&torn, &path).is_err());
        assert_eq!(SweepCheckpoint::load_in(&RealEnv, &path).unwrap(), cp);

        // A missing file is a typed Io error, not a mismatch.
        let missing = dir.join("nope.ckpt");
        assert!(matches!(
            SweepCheckpoint::load_in(&RealEnv, &missing),
            Err(EngineError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Cancel at a quota, checkpoint, resume: bit-identical to the
    /// uninterrupted run, across thread/shard counts.
    #[test]
    fn budgeted_sweep_resumes_bit_identical() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(320); // 5 batches of 64
        let full = sweep::<u64>(&nl, &faults, &vectors, &FaultSweepOptions::default());
        for (threads, shards) in [(1, 1), (2, 2), (3, 1), (1, 3)] {
            let opts = FaultSweepOptions {
                threads,
                fault_shards: shards,
                ..FaultSweepOptions::default()
            };
            for quota in [1u64, 64, 65, 128, 200] {
                let control =
                    RunControl::unlimited().and_budget(RunBudget::unlimited().with_quota(quota));
                let out = sweep_with_control::<u64>(&nl, &faults, &vectors, &opts, &control);
                let partial = match out {
                    Outcome::Complete(_) => continue, // quota never hit before the end
                    Outcome::Partial {
                        value,
                        coverage,
                        reason,
                    } => {
                        assert_eq!(reason, StopReason::QuotaExhausted);
                        assert!((0.0..1.0).contains(&coverage));
                        value
                    }
                };
                let cp = SweepCheckpoint::capture::<u64>(&nl, &faults, &vectors, &opts, &partial);
                assert!(cp.progress() < 1.0, "quota={quota} left nothing to resume");
                let resumed = sweep_resume::<u64>(
                    &nl,
                    &faults,
                    &vectors,
                    &opts,
                    &RunControl::unlimited(),
                    &cp,
                )
                .unwrap();
                assert!(resumed.is_complete());
                let r = resumed.into_value();
                assert_eq!(
                    full.first_detection, r.first_detection,
                    "threads={threads} shards={shards} quota={quota}"
                );
                assert_eq!(full.detected, r.detected);
                assert!(r.done_batches.iter().all(|&d| d));
            }
        }
    }

    #[test]
    fn cancelled_sweep_reports_cancellation() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(256);
        let control = RunControl::unlimited();
        control.token().cancel();
        let out = sweep_with_control::<u64>(
            &nl,
            &faults,
            &vectors,
            &FaultSweepOptions::default(),
            &control,
        );
        match out {
            Outcome::Partial {
                coverage, reason, ..
            } => {
                assert_eq!(reason, StopReason::Cancelled);
                assert_eq!(coverage, 0.0);
            }
            Outcome::Complete(_) => panic!("a pre-cancelled sweep cannot complete"),
        }
    }

    /// Chaos injection: a worker panic at one batch degrades the run to
    /// Partial(WorkerPanicked) without aborting the process, and resume
    /// completes it bit-identically.
    #[test]
    fn worker_panic_degrades_to_partial_and_resumes() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(320);
        let full = sweep::<u64>(&nl, &faults, &vectors, &FaultSweepOptions::default());
        for (threads, shards) in [(1, 1), (2, 2)] {
            let chaos = FaultSweepOptions {
                threads,
                fault_shards: shards,
                // Dropping off so the grid genuinely reaches the chaos
                // batch (c17 detects everything in the first batch).
                fault_dropping: false,
                chaos_panic_batch: Some(2),
                ..FaultSweepOptions::default()
            };
            let out =
                sweep_with_control::<u64>(&nl, &faults, &vectors, &chaos, &RunControl::unlimited());
            let partial = match out {
                Outcome::Partial {
                    value,
                    coverage,
                    reason,
                } => {
                    assert_eq!(reason, StopReason::WorkerPanicked);
                    assert!(coverage < 1.0);
                    value
                }
                Outcome::Complete(_) => panic!("chaos batch must poison the run"),
            };
            assert!(!partial.done_batches[2], "the chaos batch cannot be done");
            let cp = SweepCheckpoint::capture::<u64>(&nl, &faults, &vectors, &chaos, &partial);
            let sane = FaultSweepOptions {
                threads,
                fault_shards: shards,
                ..FaultSweepOptions::default()
            };
            let resumed =
                sweep_resume::<u64>(&nl, &faults, &vectors, &sane, &RunControl::unlimited(), &cp)
                    .unwrap();
            assert!(resumed.is_complete());
            let r = resumed.into_value();
            assert_eq!(full.first_detection, r.first_detection);
        }
    }

    /// Two-deep cross-coupled shift fixture: `y1` observes `q1` directly,
    /// `y2` observes `q2`; state reconverges through both XOR and AND.
    fn seq_fixture() -> iddq_netlist::Netlist {
        let mut b = iddq_netlist::NetlistBuilder::new("seqfix");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let q1 = b.add_dff("q1").unwrap();
        let q2 = b.add_dff("q2").unwrap();
        let n1 = b
            .add_gate("n1", iddq_netlist::CellKind::Xor, vec![a, q2])
            .unwrap();
        b.set_dff_input(q1, n1);
        let n2 = b
            .add_gate("n2", iddq_netlist::CellKind::And, vec![q1, c])
            .unwrap();
        b.set_dff_input(q2, n2);
        let y1 = b
            .add_gate("y1", iddq_netlist::CellKind::Or, vec![q1, c])
            .unwrap();
        let y2 = b
            .add_gate("y2", iddq_netlist::CellKind::Xnor, vec![q2, a])
            .unwrap();
        b.mark_output(y1);
        b.mark_output(y2);
        b.build().unwrap()
    }

    fn seq_fault_list(nl: &iddq_netlist::Netlist) -> Vec<LogicFault> {
        let mut faults: Vec<LogicFault> = Vec::new();
        for node in nl.node_ids() {
            for stuck_at_one in [false, true] {
                faults.push(LogicFault::StuckAt(StuckAtFault { node, stuck_at_one }));
            }
        }
        let ids: Vec<_> = nl.node_ids().collect();
        faults.push(LogicFault::Bridge {
            a: ids[0],
            b: ids[ids.len() - 1],
        });
        faults.push(LogicFault::Bridge {
            a: ids[2],
            b: ids[3],
        });
        faults
    }

    fn rand_vectors(n: usize, arity: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                (0..arity)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        (s >> 33) & 1 == 1
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn seq_sweep_backends_and_grids_agree() {
        let nl = seq_fixture();
        let faults = seq_fault_list(&nl);
        let vectors = rand_vectors(3 * 150, nl.num_inputs(), 0x5eed);
        let base = sweep::<u64>(
            &nl,
            &faults,
            &vectors,
            &FaultSweepOptions {
                threads: 1,
                fault_shards: 1,
                fault_dropping: false,
                backend: BackendKind::Csr,
                frames: 3,
                ..FaultSweepOptions::default()
            },
        );
        assert!(base.detected.iter().any(|&d| d));
        for (threads, shards, dropping, backend) in [
            (1, 1, false, BackendKind::Delta),
            (1, 1, true, BackendKind::Delta),
            (3, 2, true, BackendKind::Delta),
            (2, 3, true, BackendKind::Csr),
        ] {
            let r = sweep::<u64>(
                &nl,
                &faults,
                &vectors,
                &FaultSweepOptions {
                    threads,
                    fault_shards: shards,
                    fault_dropping: dropping,
                    backend,
                    frames: 3,
                    ..FaultSweepOptions::default()
                },
            );
            assert_eq!(
                base.first_detection, r.first_detection,
                "threads={threads} shards={shards} dropping={dropping} backend={backend}"
            );
        }
        let wide = sweep::<W256>(
            &nl,
            &faults,
            &vectors,
            &FaultSweepOptions {
                frames: 3,
                ..FaultSweepOptions::default()
            },
        );
        assert_eq!(base.first_detection, wide.first_detection);
    }

    #[test]
    fn multi_frame_detection_needs_state_propagation() {
        // y = q = DFF(a): a fault on `a` is invisible combinationally (the
        // output reads the latched reset value) and caught one frame later
        // once the corrupted state propagates through the flop.
        let mut b = iddq_netlist::NetlistBuilder::new("pipe1");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        b.set_dff_input(q, a);
        let y = b
            .add_gate("y", iddq_netlist::CellKind::Buf, vec![q])
            .unwrap();
        b.mark_output(y);
        let nl = b.build().unwrap();
        let fault = vec![LogicFault::StuckAt(StuckAtFault {
            node: a,
            stuck_at_one: true,
        })];
        let vectors = vec![vec![false], vec![false]];
        let combi = sweep::<u64>(&nl, &fault, &vectors, &FaultSweepOptions::default());
        assert_eq!(
            combi.detected,
            vec![false],
            "frames=1 cannot see through the flop"
        );
        for backend in [BackendKind::Delta, BackendKind::Csr] {
            let seq = sweep::<u64>(
                &nl,
                &fault,
                &vectors,
                &FaultSweepOptions {
                    frames: 2,
                    backend,
                    ..FaultSweepOptions::default()
                },
            );
            assert_eq!(
                seq.first_detection,
                vec![Some(1)],
                "frame 1 of sequence 0 ({backend})"
            );
        }
    }

    #[test]
    fn combinational_netlist_frames_invariant() {
        // On a DFF-free netlist every frame is independent and the vector
        // index `seq*F + t` is the plain vector index, so sequence
        // grouping must not change earliest detections at all.
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(200);
        let base = sweep::<u64>(&nl, &faults, &vectors, &FaultSweepOptions::default());
        for frames in [2usize, 3, 7] {
            for backend in [BackendKind::Delta, BackendKind::Csr] {
                let r = sweep::<u64>(
                    &nl,
                    &faults,
                    &vectors,
                    &FaultSweepOptions {
                        frames,
                        backend,
                        ..FaultSweepOptions::default()
                    },
                );
                assert_eq!(
                    base.first_detection, r.first_detection,
                    "frames={frames} backend={backend}"
                );
            }
        }
    }

    #[test]
    fn frames_zero_normalizes_to_one() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(100);
        let zero = sweep::<u64>(
            &nl,
            &faults,
            &vectors,
            &FaultSweepOptions {
                frames: 0,
                ..FaultSweepOptions::default()
            },
        );
        let one = sweep::<u64>(&nl, &faults, &vectors, &FaultSweepOptions::default());
        assert_eq!(zero.first_detection, one.first_detection);
    }

    #[test]
    fn seq_checkpoint_resume_bit_identical() {
        let nl = seq_fixture();
        let faults = seq_fault_list(&nl);
        let vectors = rand_vectors(3 * 320, nl.num_inputs(), 0xfade);
        let opts = FaultSweepOptions {
            threads: 2,
            fault_shards: 2,
            fault_dropping: false,
            frames: 3,
            ..FaultSweepOptions::default()
        };
        let full = sweep::<u64>(&nl, &faults, &vectors, &opts);
        let control = RunControl::unlimited().and_budget(RunBudget::unlimited().with_quota(200));
        let out = sweep_with_control::<u64>(&nl, &faults, &vectors, &opts, &control);
        let partial = match out {
            Outcome::Partial { value, .. } => value,
            Outcome::Complete(_) => panic!("a 200-vector quota must interrupt a 1920-unit grid"),
        };
        let cp = SweepCheckpoint::capture::<u64>(&nl, &faults, &vectors, &opts, &partial);
        assert_eq!(cp.frames, 3);
        let wrong = FaultSweepOptions {
            frames: 2,
            ..opts.clone()
        };
        let err = cp
            .validate::<u64>(&nl, &faults, &vectors, &wrong)
            .unwrap_err();
        assert!(err.to_string().contains("frames-per-sequence"), "{err}");
        let resumed =
            sweep_resume::<u64>(&nl, &faults, &vectors, &opts, &RunControl::unlimited(), &cp)
                .unwrap();
        assert!(resumed.is_complete());
        let r = resumed.into_value();
        assert_eq!(full.first_detection, r.first_detection);
        assert!(r.done_batches.iter().all(|&d| d));
    }

    #[test]
    fn resume_against_wrong_run_is_rejected() {
        let nl = data::c17();
        let faults = c17_fault_list(&nl);
        let vectors = c17_vectors(128);
        let out = sweep::<u64>(&nl, &faults, &vectors, &FaultSweepOptions::default());
        let cp = SweepCheckpoint::capture::<u64>(
            &nl,
            &faults,
            &vectors,
            &FaultSweepOptions::default(),
            &out,
        );
        let other = c17_vectors(127);
        let err = sweep_resume::<u64>(
            &nl,
            &faults,
            &other,
            &FaultSweepOptions::default(),
            &RunControl::unlimited(),
            &cp,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::CheckpointMismatch(_)));
    }
}
