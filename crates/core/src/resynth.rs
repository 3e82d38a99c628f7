//! Structure-patched cost evaluation — resynthesis candidates scored by
//! patch instead of netlist rebuild.
//!
//! [`crate::Evaluated`] answers *"this partition, but with a gate moved"*
//! incrementally; [`ResynthEval`] answers *"this circuit, but with one
//! gate's fan-in edges subdivided"* — the shape of a wide-gate
//! decomposition, the only rewrite the per-gate search of `iddq-synth`
//! makes. It owns a mutable mirror of the circuit structure plus every
//! structure-derived quantity the paper's cost function needs — per-gate
//! electrical rows, §3.1 transition-time sets, the §3.3 separation
//! neighbour weights, topological levels and the nominal critical path —
//! and a [`Patch`] (appended gates plus rewires, see
//! [`iddq_netlist::patch`]) refreshes only the state the edit actually
//! dirtied:
//!
//! * **electrical rows** — a cell row depends only on `(kind, fan-in
//!   count)`, so rewired and inserted gates re-derive their row from the
//!   library and nothing else moves;
//! * **transition times** — recomputed through a level-ordered dirty-cone
//!   walk that stops wherever the recomputed [`TimeSet`] is identical;
//! * **separation** — the single-module separation is maintained through
//!   the identity `S(M) = ρ·|pairs| − Σ_g W(g)/2`, where `W(g)` is the
//!   gate's `ρ − d` neighbour weight: any pair whose bounded distance an
//!   edit can move has both endpoints inside the ρ-ball of the edited
//!   region (every new or vanished ≤ρ-path runs through an edited node).
//!   By default the evaluation carries **incremental ΔW maintenance**:
//!   per-gate flat sorted near rows (seeded from the context's
//!   [`iddq_netlist::separation::GateSeparationTable`]) let each apply
//!   rescore *only the pairs whose bounded path crosses an edited node*.
//!   For edited nodes `X`, through-`X` distances decompose exactly —
//!   `d_X(g, h) = min_{x∈X} d(g, x) + d(x, h)` (shortest walks
//!   concatenate) — and paths avoiding `X` are identical before and
//!   after the edit, so one distance list per edited node and side
//!   (the pre-patch one read from the node's near row, the post-patch
//!   one by bounded BFS; see *Probes*) resolves every pair except the
//!   genuinely decremental ones (`d_old = d_oldX` and `d_newX > d_oldX`:
//!   the old shortest route crossed an edit and the detour got worse),
//!   whose endpoints fall back to one exact bounded BFS each. A patch
//!   that edits more than a few nodes (the decomposition of a gate of ten
//!   or more inputs) re-derives the weight and near row of every gate in
//!   the ρ−1-ball of its edits by bounded BFS instead (the *ball
//!   refresh*). [`ResynthEval::new_full_refresh`] takes the ball refresh
//!   for every patch and keeps no rows: it is the differential reference,
//!   and the two are pinned bit-identical by proptests;
//! * **current histogram** — the §3.1 peak-current estimate sums, per
//!   transition time, the `î_DD,max` of every gate that can switch then.
//!   The per-slot sums and gate counts are updated wherever a gate's
//!   (time set, peak current) pair changes — the time walk, an arity
//!   edit, an insertion and a rollback's restore — so scoring reads the
//!   peak with one max over the slots instead of walking every gate's
//!   time set. This is exact, not merely close: when every library
//!   cell's peak current is a non-negative integer of at most 2²⁰ µA
//!   (the generic 1 µm cells carry `c_out·5 + 60·n` = 200 + 105·n µA),
//!   a slot sums at most 2³² gates, so every partial sum, in any order
//!   and under any mix of adds and subtracts, is an integer of at most
//!   2⁵² and exact in f64 — bit-identical to the rebuild's in-order sum. A
//!   library that breaks the precondition (checked once, on
//!   construction) is scored by rebuilding the histogram on every
//!   scoring, and that scan is also the oracle of
//!   [`ResynthEval::verify_consistency`]. State elements cannot be
//!   patched, so a source's time set `{0}` never changes;
//! * **levels** — a subdivision cannot close a cycle (contracting each
//!   inserted node into the gate it serves maps a new cycle onto an old
//!   one), so the levels move in a wave from the rewired gates that
//!   stops wherever a level holds
//!   ([`DynamicCones::relevel_acyclic`]).
//!
//! [`ResynthEval::total_cost`] then assembles the paper's single-module
//! cost (the partition-independent objective `iddq-synth` steers by)
//! through the *same* kernels `Evaluated` uses. The result is bit-exact
//! with the rebuild path — building the patched netlist via
//! [`iddq_netlist::patch::materialize`], running a fresh
//! [`EvalContext::new`] and scoring `Evaluated::new(…, single module)` —
//! because every derived quantity is a pure function of the structure and
//! both paths evaluate it with identical operation order. The proptests in
//! `iddq-synth` and `tests/conformance.rs` pin this equality down to the
//! last bit, and the bench's `dw_probe` gate times the ΔW refresh
//! against the ball refresh.
//!
//! # Lifecycle
//!
//! At most one patch is pending. [`ResynthEval::apply`] (and
//! [`ResynthEval::probe`]) first check the whole patch on the pre-patch
//! structure — no patch may be pending, every op must validate, and the
//! patch must subdivide the fan-in edges of existing gates (see
//! *Probes*) — and return a typed [`PatchError`] without touching
//! anything if a check fails. A checked patch cannot fail halfway. The
//! apply records one undo frame: the fan-in lists it overwrote, the node
//! count before it, and logs of the derived state it overwrote.
//! [`ResynthEval::rollback`] puts the fan-in lists back, pops the
//! inserted nodes and restores the derived state from those logs,
//! bit-for-bit and in O(changed entries): transition-time sets, levels
//! and neighbour weights from value snapshots, and near rows from
//! whole-row snapshots on the ball refresh.
//!
//! The ΔW path's near-row edits are *deferred*. An apply updates the
//! neighbour weights (all the cost reads) at once, but parks its
//! symmetric row edits in its undo frame. Only [`ResynthEval::commit`]
//! writes them into the rows, which makes the patch permanent; a
//! rollback just drops them. A probe that is scored and rolled back
//! therefore never touches a row, and the rows are exact whenever no
//! patch is pending. The candidate-search pattern is apply → score →
//! rollback per losing candidate, commit for the winner.
//!
//! A winner probed before the last candidate has been rolled back by
//! the time it is chosen. The rollback of an exactly scored
//! [`ResynthEval::probe`] therefore keeps the probe's forward state —
//! its new transition-time sets and neighbour weights and its deferred
//! row edits — and an [`ResynthEval::apply`] of the same patch on the
//! same structure (same structure id) replays the structural edit and
//! copies that state back instead of recomputing it. The kept state is
//! what a fresh apply would compute: every derived quantity is a pure
//! function of the structure. A commit drops it.
//!
//! # Probes
//!
//! A search that only needs to know whether a candidate beats a cost
//! `beat` can skip the separation refresh of most candidates.
//! [`ResynthEval::probe`] splits an apply in two: first the structural
//! edit, the re-levelization and the transition-time walk; then, only
//! if the candidate can still win, the separation refresh. Between the
//! two it scores the cost with the *pre-patch* separation. If that bound
//! is `>= beat` the probe rolls itself back and returns `None`, having
//! never touched the neighbour weights, the near rows or the avoid-X
//! cache. Otherwise it runs the refresh (keyed, as in `apply`, by the
//! pre-patch structure id) and returns the exact cost.
//!
//! The structural part captures, for each edited node, its pre-patch
//! distance list, and it does so without a BFS: the node's near row,
//! exact because no patch is pending, already holds every gate within
//! the bound. The list is the node itself at distance 0 followed by
//! the row bucketed by distance, the non-decreasing order the pair
//! enumeration needs. Only the refresh that survives the bound pays a
//! bounded BFS, for the post-patch side. Scoring, bound or exact, is
//! one level-ordered sweep that reads each fan-in list once for the
//! degraded weight, the degraded arrival and (when the structure
//! moved) the nominal arrival.
//!
//! When a search is done, [`ResynthEval::into_sep_table`] turns the
//! maintained rows into the [`GateSeparationTable`] of the netlist the
//! search returns, so the partitioning that follows builds no second
//! table.
//!
//! The bound is exact because every accepted patch is a subdivision:
//!
//! * **S cannot fall.** A wide-gate decomposition only subdivides the
//!   edges from a gate to its fan-ins. Contracting each inserted node
//!   into the gate it serves maps every post-patch path onto a pre-patch
//!   walk that is no longer, so no distance between existing nodes
//!   shrinks, and each new pair adds at least 1 to
//!   `S = Σ_pairs min(d, ρ)`. The check before the edit accepts exactly
//!   this shape: every inserted node claimed by one existing gate, every
//!   written fan-in edge contracting onto an old fan-in edge of it (or
//!   onto the gate itself); anything else is
//!   [`PatchError::NotASubdivision`].
//! * **The total cannot fall.** Every other figure is the post-patch
//!   one either way, so the pre-patch `S` is a lower bound on the
//!   post-patch figures, and their
//!   [floor](crate::Objective::floor) is `<=` the exact cost bit for
//!   bit.

use iddq_celllib::{Library, NodeTables};
use iddq_netlist::cone::DynamicCones;
use iddq_netlist::patch::{Patch, PatchError, PatchOp};
use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::{CellKind, TimeSet};

use crate::context::EvalContext;
use crate::cost::Figures;
use crate::evaluator::{degraded_weight, sensor_figures, ModuleStats};

/// The undo frame of the pending patch: the fan-in lists it overwrote,
/// the node count before it, and snapshots of the derived state it
/// overwrote, so a rollback restores instead of recomputing (the probe
/// loops of `iddq-synth` roll back one patch per candidate — making that
/// O(changed) instead of O(dirty-region) roughly halves the scoring
/// cost).
#[derive(Debug)]
struct UndoFrame {
    /// The applied patch, on the frames of exactly scored probes and of
    /// their replays: their rollback keeps the forward state as a
    /// [`Redo`].
    probed: Option<Patch>,
    /// The structural edit: the fan-in lists to put back and the node
    /// count to pop back to.
    edit: Edit,
    /// `(node, previous set)` for every transition-time set the apply
    /// changed, in change order.
    times_log: Vec<(u32, TimeSet)>,
    /// `(gate, previous weight)` for every separation weight the apply
    /// changed.
    w_log: Vec<(u32, u64)>,
    /// `(node, previous level)` for every level the apply's
    /// re-levelization moved.
    level_log: Vec<(u32, u32)>,
    /// `(gate, previous near row)` for every maintained ΔW row the ball
    /// refresh rewrote (at most one entry per gate: the ball is
    /// deduplicated). Empty on the incremental ΔW path and without
    /// maintained rows.
    row_log: Vec<(u32, Vec<(u32, u32)>)>,
    /// The incremental ΔW path's symmetric pair edits `(g, h, new
    /// distance)`, not yet written into the near rows: the commit writes
    /// them, a rollback drops them.
    row_edits: Vec<(u32, u32, u32)>,
    /// The structure id before the apply (see `ResynthEval::structure_id`).
    structure_before: u64,
}

/// The forward derived state of a scored probe that was rolled back, so
/// that re-applying the same patch on the same structure (the search
/// re-applying its winner after probing the other style) copies the
/// state back instead of recomputing it.
#[derive(Debug)]
struct Redo {
    patch: Patch,
    /// The structure id the patch was applied on.
    structure_before: u64,
    /// `(node, set after the apply)` for every logged transition-time set.
    times: Vec<(u32, TimeSet)>,
    /// `(gate, weight after the apply)` for every logged neighbour weight.
    w: Vec<(u32, u64)>,
    sum_w: u64,
    /// The apply's deferred ΔW pair edits.
    row_edits: Vec<(u32, u32, u32)>,
}

/// The structural half of one apply.
#[derive(Debug)]
struct Edit {
    /// `(gate, previous fan-in)` for every rewire, in op order.
    fanin_log: Vec<(u32, Vec<u32>)>,
    /// The node count before the apply.
    nodes_before: usize,
    /// `Σ near_w` before the apply.
    sum_w_before: u64,
    /// Nodes visited by the transition-time walk.
    times_visited: usize,
}

/// The separation dirty set of one apply, captured on the *pre-patch*
/// structure (the post-patch side is derived inside the refresh).
#[derive(Debug)]
enum SepDirty {
    /// Full path: the ρ−1-ball of the edited nodes before the patch;
    /// every gate in the union of this and the post-patch ball gets its
    /// neighbour weight re-derived by bounded BFS.
    Ball(Vec<u32>),
    /// Incremental ΔW path: for each rewired gate `x`, the pre-patch
    /// `(gate, distance)` list of `x`'s ρ−1-ball —
    /// gates only, `x` itself at distance 0, sorted by distance. Only
    /// pairs whose shortest bounded path crosses an edited node are
    /// rescored.
    Dists(Vec<(u32, Vec<(u32, u32)>)>),
}

/// Edit-set ceiling of the incremental ΔW path. Pair enumeration costs
/// `O(pairs-through-X · |X|)` with the through-distance columns scanned
/// per pair, while the full ball refresh costs `O(|ball(X, ρ)| · BFS)`
/// — once a patch edits many nodes the balls overlap and the region
/// rebuild amortizes far better. A `k`-input decomposition edits `k − 1`
/// nodes, so eight keeps every gate of up to nine inputs on the
/// incremental path and routes wider ones to the ball refresh.
const DELTA_SEP_MAX_EDITS: usize = 8;

/// Persistent buffers of the incremental ΔW refresh. All per-slot
/// vectors are compacted to the union of the edited nodes' distance
/// lists each apply; the node→slot map is epoch-stamped so it never
/// needs clearing. Nothing here hashes — the pair enumeration works
/// entirely over dense, stamped arrays.
#[derive(Debug, Default)]
struct DeltaScratch {
    /// node → refresh epoch in which `slot` is valid.
    slot_epoch: Vec<u64>,
    /// node → compact slot id (valid iff `slot_epoch` matches).
    slot: Vec<u32>,
    epoch: u64,
    /// slot → node id, in assignment order.
    nodes: Vec<u32>,
    /// slot → `2K` bounded through-distance columns (old then new, one
    /// per edited node); `ρ` encodes "no route within bound".
    dists: Vec<u32>,
    /// slot → marker of the endpoint whose partner scan last saw it
    /// (pair dedup without a hash set).
    seen: Vec<u32>,
    /// slot → accumulated exact weight delta.
    delta: Vec<i64>,
    /// node → avoid-X BFS epoch in which `bfs_dist` is valid.
    bfs_stamp: Vec<u64>,
    /// node → bounded distance from the current cover endpoint in the
    /// graph minus the edited nodes (`ρ` on the edited nodes).
    bfs_dist: Vec<u32>,
    bfs_epoch: u64,
    /// Level-ring queue of the avoid-X BFS.
    bfs_queue: Vec<u32>,
    /// The pre-patch structure id and edited nodes the cached avoid-X
    /// BFS results were computed under. A patch moves only edges incident
    /// to its edited nodes, so the two fix the graph minus the edited
    /// nodes: the sibling probes of one gate, and the re-apply of the
    /// winner, share it.
    avoid_key: Option<(u64, Vec<u32>)>,
    /// `(endpoint, start, end)` of each cached BFS in `avoid_pool`.
    avoid_index: Vec<(u32, u32, u32)>,
    /// The cached BFSs' `(node, distance)` visits, concatenated.
    avoid_pool: Vec<(u32, u32)>,
}

/// Largest peak current (µA) of a library cell the maintained current
/// histogram accepts: with at most 2³² gates (`u32` ids) a slot sum of
/// integers up to 2²⁰ stays at most 2⁵², so it is exact in f64.
const EXACT_PEAK_MAX_UA: f64 = (1u64 << 20) as f64;

/// The §3.1 current histogram over transition times: per slot, the
/// `Σ î_DD,max` of the gates that can switch then and their number.
/// Maintained incrementally when `exact` (every library peak current an
/// integer in `[0, EXACT_PEAK_MAX_UA]`, see the [module docs](self));
/// otherwise the updates are no-ops and scoring rebuilds it with
/// [`CurrentHist::rescan`]. Slots past the current horizon hold exact
/// zeros and never move the maxima.
#[derive(Debug, Default)]
struct CurrentHist {
    exact: bool,
    cur: Vec<f64>,
    cnt: Vec<u32>,
}

impl CurrentHist {
    /// An empty histogram, maintained iff every cell of `library` has an
    /// integer peak current in `[0, EXACT_PEAK_MAX_UA]`.
    fn for_library(library: &Library) -> Self {
        let exact = library.iter().all(|cell| {
            let p = cell.peak_current_ua;
            (0.0..=EXACT_PEAK_MAX_UA).contains(&p) && p.fract() == 0.0
        });
        CurrentHist {
            exact,
            ..CurrentHist::default()
        }
    }

    /// Counts a gate switching at every time of `set` with peak `peak`.
    fn add(&mut self, set: &TimeSet, peak: f64) {
        if !self.exact {
            return;
        }
        for t in set.iter() {
            let t = t as usize;
            if t >= self.cur.len() {
                self.cur.resize(t + 1, 0.0);
                self.cnt.resize(t + 1, 0);
            }
            self.cur[t] += peak;
            self.cnt[t] += 1;
        }
    }

    /// Takes back an earlier [`CurrentHist::add`] of the same pair.
    fn remove(&mut self, set: &TimeSet, peak: f64) {
        if !self.exact {
            return;
        }
        for t in set.iter() {
            self.cur[t as usize] -= peak;
            self.cnt[t as usize] -= 1;
        }
    }

    /// Moves a gate with time set `set` from peak `old` to peak `new`.
    fn repeak(&mut self, set: &TimeSet, old: f64, new: f64) {
        if !self.exact || old.to_bits() == new.to_bits() {
            return;
        }
        for t in set.iter() {
            self.cur[t as usize] = self.cur[t as usize] - old + new;
        }
    }

    /// Rebuilds the histogram from every gate's time set — the scan the
    /// maintained histogram replaces, kept as the scoring path of an
    /// inexact library and as the consistency oracle.
    fn rescan(&mut self, kinds: &[Option<CellKind>], times: &[TimeSet], peak_ua: &[f64]) {
        // Horizon: one past the largest transition time.
        let horizon = times
            .iter()
            .filter_map(TimeSet::max)
            .max()
            .map_or(1, |t| t as usize + 1);
        self.cur.clear();
        self.cur.resize(horizon, 0.0);
        self.cnt.clear();
        self.cnt.resize(horizon, 0);
        for (i, set) in times.iter().enumerate() {
            if kinds[i].is_none() {
                continue;
            }
            for t in set.iter() {
                self.cur[t as usize] += peak_ua[i];
                self.cnt[t as usize] += 1;
            }
        }
    }

    /// The peak current and the peak activity over all slots.
    fn peaks(&self) -> (f64, u32) {
        (
            self.cur.iter().copied().fold(0.0, f64::max),
            self.cnt.iter().copied().max().unwrap_or(0),
        )
    }
}

/// Work accounting of one [`ResynthEval::apply`] / rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchImpact {
    /// Nodes visited by the transition-time dirty-cone walk.
    pub times_visited: usize,
    /// Gates whose separation neighbour weight was re-derived.
    pub separation_recomputed: usize,
}

/// A persistent, structure-patchable single-module cost evaluation (see
/// the [module docs](self)).
///
/// # Example
///
/// ```rust
/// use iddq_celllib::Library;
/// use iddq_core::{config::PartitionConfig, resynth::ResynthEval, EvalContext};
/// use iddq_netlist::patch::{Patch, PatchError, PatchOp};
/// use iddq_netlist::{data, CellKind, NodeId};
///
/// let c17 = data::c17();
/// let lib = Library::generic_1um();
/// let ctx = EvalContext::new(&c17, &lib, PartitionConfig::paper_default());
/// let mut eval = ResynthEval::new(&ctx);
/// let base = eval.total_cost();
/// // Score "c17 with a buffer on gate 22's first input" without a rebuild.
/// let g22 = c17.find("22").unwrap();
/// let fanin = c17.node(g22).fanin().to_vec();
/// let buf = NodeId(c17.node_count() as u32);
/// let buffered = Patch {
///     ops: vec![
///         PatchOp::AddGate { gate: buf, kind: CellKind::Buf, fanin: vec![fanin[0]] },
///         PatchOp::SetFanin { gate: g22, fanin: vec![buf, fanin[1]] },
///     ],
/// };
/// eval.apply(&buffered).unwrap();
/// let _buffered_cost = eval.total_cost();
/// // One patch at a time: the next waits for a commit or a rollback.
/// assert_eq!(eval.apply(&buffered), Err(PatchError::Pending));
/// eval.rollback();
/// assert_eq!(eval.total_cost().to_bits(), base.to_bits());
/// ```
#[derive(Debug)]
pub struct ResynthEval<'a> {
    ctx: &'a EvalContext<'a>,
    /// `None` for primary inputs.
    kinds: Vec<Option<CellKind>>,
    /// Levels + fan-in/fanout adjacency + walks (the structure mirror).
    cones: DynamicCones,
    /// Per-node electrical rows, maintained under arity changes.
    tables: NodeTables,
    /// §3.1 transition-time sets, maintained by dirty-cone walks.
    times: Vec<TimeSet>,
    /// Per-gate `Σ (ρ − d)` neighbour weight (0 for primary inputs).
    near_w: Vec<u64>,
    /// Incrementally maintained near rows: for each gate, the
    /// `(partner gate, bounded distance)` list of its in-bound pairs
    /// (`1 ≤ d ≤ ρ−1`), sorted by partner id — the same shape as a
    /// [`iddq_netlist::separation::GateSeparationTable`] row with the
    /// weight written as a distance. The pending patch's ΔW edits wait in
    /// its undo frame until the commit, so the rows are exact whenever no
    /// patch is pending. `None` disables incremental ΔW
    /// maintenance ([`ResynthEval::new_full_refresh`]); rows for primary
    /// inputs are empty.
    rows: Option<Vec<Vec<(u32, u32)>>>,
    /// `Σ_g near_w[g]` — twice the in-bound pair weight.
    sum_w: u64,
    /// Identifies the current structure: each successful apply moves to
    /// a fresh id and its rollback returns to the id before it, so equal
    /// ids mean equal structures.
    structure_id: u64,
    /// The last structure id handed out.
    last_structure_id: u64,
    gate_count: usize,
    outputs: Vec<u32>,
    /// The undo frame of the pending patch, if any.
    undo: Option<UndoFrame>,
    /// The rolled-back scored probes of the current search step (all
    /// applied on one structure), newest last.
    redo: Vec<Redo>,
    /// Per-apply change logs, drained into the [`UndoFrame`].
    times_log: Vec<(u32, TimeSet)>,
    w_log: Vec<(u32, u64)>,
    level_log: Vec<(u32, u32)>,
    row_log: Vec<(u32, Vec<(u32, u32)>)>,
    row_edits: Vec<(u32, u32, u32)>,
    /// Node ids sorted by (level, id) — a topological order over the
    /// current structure, rebuilt lazily.
    order: Vec<u32>,
    order_dirty: bool,
    /// Counting-sort scratch of the order rebuild (per-level start).
    level_slots: Vec<u32>,
    /// Nominal critical-path delay of the current structure, recomputed
    /// lazily (patches move both delays and paths).
    nominal_delay_ps: f64,
    nominal_dirty: bool,
    /// The §3.1 current histogram of `times` and the peak-current rows
    /// (see [`CurrentHist`]).
    hist: CurrentHist,
    // Scoring scratch (reused across `cost` calls): degraded and
    // nominal arrivals of the fused sweep.
    arr: Vec<f64>,
    arr_nom: Vec<f64>,
    /// Incremental ΔW refresh scratch (see [`DeltaScratch`]).
    delta_scratch: DeltaScratch,
}

impl<'a> ResynthEval<'a> {
    /// Mirrors the context's netlist and seeds every derived quantity from
    /// the context's precomputed analyses (no BFS, no sweep).
    ///
    /// The context needs the gate separation table of an
    /// [`crate::context::AnalysisTier::GateSep`] build.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was built at the bare `Timing` tier.
    #[must_use]
    pub fn new(ctx: &'a EvalContext<'a>) -> Self {
        Self::new_inner(ctx, true)
    }

    /// Like [`ResynthEval::new`], but with incremental ΔW maintenance
    /// disabled: every apply re-derives the neighbour weight of each
    /// gate in the dirty ρ-ball by bounded BFS (the original refresh).
    /// Kept as the differential reference the proptests pin the
    /// incremental path against, and as the baseline the bench's
    /// ΔW-speedup gate measures.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was built at the bare `Timing` tier.
    #[must_use]
    pub fn new_full_refresh(ctx: &'a EvalContext<'a>) -> Self {
        Self::new_inner(ctx, false)
    }

    fn new_inner(ctx: &'a EvalContext<'a>, incremental: bool) -> Self {
        let nl = ctx.netlist;
        let kinds: Vec<Option<CellKind>> = nl
            .node_ids()
            .map(|id| nl.node(id).kind().cell_kind())
            .collect();
        let near_w: Vec<u64> = nl
            .node_ids()
            .map(|id| {
                if nl.is_gate(id) {
                    ctx.separation().near_weight(id)
                } else {
                    0
                }
            })
            .collect();
        let sum_w = near_w.iter().sum();
        let n = nl.node_count();
        let rho = ctx.config.rho;
        let tables = ctx.tables.clone();
        let times = ctx.times.clone();
        let mut hist = CurrentHist::for_library(ctx.library);
        if hist.exact {
            hist.rescan(&kinds, &times, &tables.peak_current_ua);
        }
        let rows = incremental.then(|| {
            let table = ctx.separation();
            debug_assert_eq!(table.rho(), rho, "table built at the configured ρ");
            nl.node_ids()
                .map(|id| {
                    if nl.is_gate(id) {
                        // Table entries carry the weight ρ − d; the
                        // maintained rows carry the distance d.
                        table.row(id).map(|(p, w)| (p, rho - w)).collect()
                    } else {
                        Vec::new()
                    }
                })
                .collect::<Vec<Vec<(u32, u32)>>>()
        });
        ResynthEval {
            ctx,
            kinds,
            cones: DynamicCones::new(nl),
            tables,
            times,
            near_w,
            rows,
            sum_w,
            structure_id: 0,
            last_structure_id: 0,
            gate_count: ctx.gates.len(),
            outputs: nl.outputs().iter().map(|o| o.0).collect(),
            undo: None,
            redo: Vec::new(),
            times_log: Vec::new(),
            w_log: Vec::new(),
            level_log: Vec::new(),
            row_log: Vec::new(),
            row_edits: Vec::new(),
            order: Vec::new(),
            order_dirty: true,
            level_slots: Vec::new(),
            nominal_delay_ps: ctx.nominal_delay_ps,
            nominal_dirty: false,
            hist,
            arr: vec![0.0; n],
            arr_nom: vec![0.0; n],
            delta_scratch: DeltaScratch::default(),
        }
    }

    /// Current node count (patches grow and shrink it).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Current gate count.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// Applies a patch: the checks, the structural edit, batched
    /// re-levelization, then a refresh of the dirtied derived state — or
    /// a copy of the state a rolled-back probe of the same patch on this
    /// structure kept (see the [module docs](self#lifecycle)). The patch
    /// stays pending until [`ResynthEval::commit`] or
    /// [`ResynthEval::rollback`].
    ///
    /// # Errors
    ///
    /// Returns a [`PatchError`] (evaluation unchanged) when a patch is
    /// pending, when an op targets a non-gate, uses an illegal arity or
    /// id, or adds or rewires a state element, or when the patch does not
    /// subdivide the fan-in edges of existing gates.
    pub fn apply(&mut self, patch: &Patch) -> Result<PatchImpact, PatchError> {
        self.check(patch)?;
        if let Some(impact) = self.replay(patch) {
            return Ok(impact);
        }
        let (edit, dirty) = self.apply_inner(patch);
        let separation_recomputed = self.refresh_separation(patch, &dirty);
        let times_visited = edit.times_visited;
        self.push_frame(edit, None);
        Ok(PatchImpact {
            times_visited,
            separation_recomputed,
        })
    }

    /// Applies `patch` and scores it, unless a lower bound shows it
    /// cannot score below `beat` (see the [module docs](self#probes)).
    ///
    /// Returns `Ok(None)` when the bound prunes the probe: the patch is
    /// rolled back again and the separation state was never touched.
    /// Otherwise the patch stays pending, exactly as after
    /// [`ResynthEval::apply`], and the result is its exact
    /// [`ResynthEval::total_cost`].
    ///
    /// # Errors
    ///
    /// As [`ResynthEval::apply`] (evaluation unchanged).
    pub fn probe(&mut self, patch: &Patch, beat: f64) -> Result<Option<f64>, PatchError> {
        self.check(patch)?;
        let objective = self.ctx.objective();
        let separation_before = self.separation();
        let (edit, dirty) = self.apply_inner(patch);
        let mut figures = self.figures_at(separation_before);
        if objective.floor(&figures) >= beat {
            self.push_frame(edit, None);
            self.rollback();
            return Ok(None);
        }
        self.refresh_separation(patch, &dirty);
        self.push_frame(edit, Some(patch.clone()));
        // Only the separation moved since the bound's figures.
        figures.separation = self.separation();
        Ok(Some(objective.total(&objective.terms(&figures))))
    }

    /// Checks `patch` on the pre-patch structure, before any edit: no
    /// patch may be pending, every op must validate (in order, against
    /// the nodes the ops before it append), and the patch must be a
    /// subdivision ([`Self::subdivides`]).
    fn check(&self, patch: &Patch) -> Result<(), PatchError> {
        if self.undo.is_some() {
            return Err(PatchError::Pending);
        }
        let n = self.kinds.len();
        let mut added: Vec<CellKind> = Vec::new();
        for op in &patch.ops {
            let len = n + added.len();
            let (gate, kind, fanin) = match op {
                PatchOp::AddGate { gate, kind, fanin } => {
                    if gate.index() != len {
                        return Err(PatchError::NotAppend {
                            gate: *gate,
                            expected: len as u32,
                        });
                    }
                    (*gate, *kind, fanin)
                }
                PatchOp::SetFanin { gate, fanin } => {
                    let kind = match gate.index() {
                        i if i < n => self.kinds[i].ok_or(PatchError::NotAGate(*gate))?,
                        i if i < len => added[i - n],
                        _ => return Err(PatchError::UnknownNode(*gate)),
                    };
                    (*gate, kind, fanin)
                }
            };
            if kind.is_state() {
                return Err(PatchError::StateElement(gate));
            }
            if !kind.accepts_fanin(fanin.len()) {
                return Err(PatchError::BadArity {
                    gate,
                    kind,
                    got: fanin.len(),
                });
            }
            if let Some(&f) = fanin.iter().find(|f| f.index() >= len) {
                return Err(PatchError::UnknownNode(f));
            }
            if matches!(op, PatchOp::AddGate { .. }) {
                added.push(kind);
            }
        }
        self.subdivides(patch)
    }

    /// Whether `patch` only subdivides fan-in edges of existing gates, so
    /// that no cycle can close and no bounded distance between existing
    /// nodes can shrink. Each inserted node must be claimed by exactly
    /// one existing gate (the gate it contracts into); every fan-in edge
    /// the patch writes must then contract onto a pre-patch fan-in edge
    /// of that gate, or onto the gate itself. Checked on the pre-patch
    /// structure, after the ops validated; the error names the node of
    /// the first op (walking backwards) that breaks the shape.
    fn subdivides(&self, patch: &Patch) -> Result<(), PatchError> {
        let n = self.kinds.len();
        let mut owner: Vec<Option<u32>> = Vec::new();
        // Walk backwards: a node's consumers come after its insertion.
        for op in patch.ops.iter().rev() {
            let rejected = PatchError::NotASubdivision(op.gate());
            let (o, fanin) = match op {
                PatchOp::SetFanin { gate, fanin } if gate.index() < n => (gate.0, fanin),
                PatchOp::SetFanin { .. } => return Err(rejected),
                PatchOp::AddGate { gate, fanin, .. } => {
                    match gate.index().checked_sub(n).and_then(|i| owner.get(i)) {
                        Some(&Some(o)) => (o, fanin),
                        _ => return Err(rejected),
                    }
                }
            };
            for f in fanin {
                match f.index().checked_sub(n) {
                    Some(i) => {
                        if i >= owner.len() {
                            owner.resize(i + 1, None);
                        }
                        if owner[i].is_some_and(|prev| prev != o) {
                            return Err(rejected);
                        }
                        owner[i] = Some(o);
                    }
                    None if self.cones.fanin(o as usize).contains(&f.0) => {}
                    None => return Err(rejected),
                }
            }
        }
        Ok(())
    }

    /// Re-applies `patch` from a [`Redo`] kept for it on the current
    /// structure: the structural edit and the re-levelization run again,
    /// and the transition times, neighbour weights and deferred row edits
    /// are copied back — the values a fresh apply would compute, since
    /// every derived quantity is a function of the structure. `None`
    /// (nothing done) when no probe of `patch` was rolled back on this
    /// structure.
    fn replay(&mut self, patch: &Patch) -> Option<PatchImpact> {
        let k = (self.redo.iter())
            .position(|r| r.structure_before == self.structure_id && r.patch == *patch)?;
        let redo = self.redo.swap_remove(k);
        let sum_w_before = self.sum_w;
        let nodes_before = self.kinds.len();
        let fanin_log = self.apply_structure(patch);
        self.relevel(patch);
        let times_visited = redo.times.len();
        for (i, set) in redo.times {
            let i = i as usize;
            let peak = self.tables.peak_current_ua[i];
            self.hist.remove(&self.times[i], peak);
            self.hist.add(&set, peak);
            let old = std::mem::replace(&mut self.times[i], set);
            self.times_log.push((i as u32, old));
        }
        for (g, w) in redo.w {
            let old = std::mem::replace(&mut self.near_w[g as usize], w);
            self.w_log.push((g, old));
        }
        self.sum_w = redo.sum_w;
        self.row_edits = redo.row_edits;
        self.order_dirty = true;
        self.nominal_dirty = true;
        let edit = Edit {
            fanin_log,
            nodes_before,
            sum_w_before,
            times_visited,
        };
        self.push_frame(edit, Some(redo.patch));
        Some(PatchImpact {
            times_visited,
            separation_recomputed: 0,
        })
    }

    /// Batched re-levelization after the structural edit of `patch`,
    /// seeded by its rewired gates, logging the moves for the rollback.
    /// The patch was checked to be a subdivision, which cannot close a
    /// cycle, so the levels move in a wave that stops where they hold.
    fn relevel(&mut self, patch: &Patch) {
        let seeds: Vec<u32> = (patch.ops.iter())
            .filter(|op| matches!(op, PatchOp::SetFanin { .. }))
            .map(|op| op.gate().0)
            .collect();
        self.cones.relevel_acyclic(&seeds, &mut self.level_log);
    }

    /// Records the undo frame of the structural `edit` and moves to a
    /// fresh structure id. `probed` is the patch of an exactly scored
    /// probe (see [`Redo`]).
    fn push_frame(&mut self, edit: Edit, probed: Option<Patch>) {
        self.undo = Some(UndoFrame {
            probed,
            edit,
            times_log: std::mem::take(&mut self.times_log),
            w_log: std::mem::take(&mut self.w_log),
            level_log: std::mem::take(&mut self.level_log),
            row_log: std::mem::take(&mut self.row_log),
            row_edits: std::mem::take(&mut self.row_edits),
            structure_before: self.structure_id,
        });
        self.last_structure_id += 1;
        self.structure_id = self.last_structure_id;
    }

    /// Rolls the pending patch back: the rewired fan-in lists are put
    /// back, the inserted nodes popped, and the derived state *restored*
    /// from the frame's snapshots (bit-identical to the state before the
    /// apply, and O(changed entries) instead of a dirty-region
    /// recomputation). Rolling back an exactly scored probe keeps its
    /// forward state for a re-apply.
    ///
    /// # Panics
    ///
    /// Panics if no patch is pending.
    // Documented panic contract (nothing pending).
    #[allow(clippy::expect_used)]
    pub fn rollback(&mut self) -> PatchImpact {
        let mut frame = self.undo.take().expect("no patch to roll back");
        // A scored probe keeps its forward state for a re-apply, unless
        // the ball refresh rebuilt its rows wholesale.
        if let Some(patch) = frame.probed.take() {
            if frame.row_log.is_empty() {
                let redo = Redo {
                    patch,
                    structure_before: frame.structure_before,
                    times: (frame.times_log.iter())
                        .map(|&(i, _)| (i, self.times[i as usize].clone()))
                        .collect(),
                    w: (frame.w_log.iter())
                        .map(|&(g, _)| (g, self.near_w[g as usize]))
                        .collect(),
                    sum_w: self.sum_w,
                    row_edits: std::mem::take(&mut frame.row_edits),
                };
                self.redo
                    .retain(|r| r.structure_before == redo.structure_before);
                self.redo.push(redo);
            }
        }
        self.cones.restore_levels(&frame.level_log);
        for (g, fanin) in frame.edit.fanin_log.iter().rev() {
            self.set_fanin(*g as usize, fanin);
        }
        while self.kinds.len() > frame.edit.nodes_before {
            self.pop_gate();
        }
        // Restore snapshots newest-first; entries of the popped
        // insertions are skipped. The deferred row edits never reached
        // the rows and drop with the frame.
        let alive = self.kinds.len();
        let mut impact = PatchImpact::default();
        for (i, ts) in frame.times_log.into_iter().rev() {
            let i = i as usize;
            if i < alive {
                let peak = self.tables.peak_current_ua[i];
                self.hist.remove(&self.times[i], peak);
                self.hist.add(&ts, peak);
                self.times[i] = ts;
                impact.times_visited += 1;
            }
        }
        for (g, w) in frame.w_log.into_iter().rev() {
            if (g as usize) < alive {
                self.near_w[g as usize] = w;
                impact.separation_recomputed += 1;
            }
        }
        if let Some(rows) = self.rows.as_mut() {
            for (g, row) in frame.row_log.into_iter().rev() {
                if (g as usize) < alive {
                    rows[g as usize] = row;
                }
            }
        }
        self.sum_w = frame.edit.sum_w_before;
        self.structure_id = frame.structure_before;
        self.order_dirty = true;
        self.nominal_dirty = true;
        impact
    }

    /// Makes the pending patch permanent: writes its deferred ΔW row
    /// edits into the near rows and drops its undo frame and every kept
    /// probe state.
    pub fn commit(&mut self) {
        self.redo.clear();
        if let Some(frame) = self.undo.take() {
            if let Some(rows) = self.rows.as_mut() {
                write_row_edits(rows, &frame.row_edits, self.ctx.config.rho);
            }
        }
    }

    /// The structural part of an apply: captures the separation dirty
    /// set, applies the ops, re-levelizes and walks the transition times.
    /// The patch has passed [`Self::check`], so nothing here can fail.
    fn apply_inner(&mut self, patch: &Patch) -> (Edit, SepDirty) {
        let sum_w_before = self.sum_w;
        let nodes_before = self.kinds.len();
        let rho = self.ctx.config.rho;
        // Separation dirty set over the *pre-patch* graph: every pair
        // whose bounded distance the patch can move has a shortest route
        // through an edited node, so its endpoints sit in the edited
        // nodes' pre- or post-patch ρ−1-balls. The incremental ΔW path
        // captures one distance list per rewired gate (the inserted
        // nodes have no pre-patch side).
        let mut old_seeds: Vec<u32> = (patch.ops.iter())
            .map(|op| op.gate().0)
            .filter(|&g| (g as usize) < nodes_before)
            .collect();
        old_seeds.sort_unstable();
        old_seeds.dedup();
        let adds = (patch.ops.iter())
            .filter(|op| matches!(op, PatchOp::AddGate { .. }))
            .count();
        let dirty = if self.rows.is_some() && old_seeds.len() + adds <= DELTA_SEP_MAX_EDITS {
            SepDirty::Dists(
                old_seeds
                    .iter()
                    .map(|&x| (x, self.pre_patch_dist_list(x)))
                    .collect(),
            )
        } else {
            SepDirty::Ball(
                self.cones
                    .undirected_ball(&old_seeds, rho.saturating_sub(1)),
            )
        };
        let fanin_log = self.apply_structure(patch);
        self.relevel(patch);
        let times_visited = self.refresh_times(patch);
        let edit = Edit {
            fanin_log,
            nodes_before,
            sum_w_before,
            times_visited,
        };
        (edit, dirty)
    }

    /// [`ResynthEval::gate_dist_list`] of a pre-patch edited gate, read
    /// from its near row instead of a BFS: `x` itself at distance 0, then
    /// the row bucketed by distance (partners ascending within a bucket),
    /// so the list keeps the non-decreasing distance order the pair
    /// enumeration relies on. The same `(gate, distance)` set as the
    /// BFS, since the rows are exact while no patch is pending.
    fn pre_patch_dist_list(&self, x: u32) -> Vec<(u32, u32)> {
        let Some(rows) = self.rows.as_ref() else {
            unreachable!("the ΔW path runs only with maintained rows")
        };
        let row = &rows[x as usize];
        // Counting sort on the distances `1..ρ`: `next[d]` is the slot of
        // the next partner at distance `d`, after `x` at slot 0.
        let mut next = vec![0usize; self.ctx.config.rho as usize];
        for &(_, d) in row {
            next[d as usize] += 1;
        }
        let mut slot = 1;
        for n in &mut next {
            let count = *n;
            *n = slot;
            slot += count;
        }
        let mut list = vec![(x, 0u32); row.len() + 1];
        for &(p, d) in row {
            list[next[d as usize]] = (p, d);
            next[d as usize] += 1;
        }
        list
    }

    /// The `(gate, bounded distance)` list of `x`'s ρ−1-ball over the
    /// current structure: gates only, `x` itself first at distance 0,
    /// sorted by distance (BFS emission order).
    fn gate_dist_list(&mut self, x: u32) -> Vec<(u32, u32)> {
        let rho = self.ctx.config.rho;
        let mut list = vec![(x, 0u32)];
        let ResynthEval {
            ref mut cones,
            ref kinds,
            ..
        } = *self;
        cones.bounded_bfs(x, rho.saturating_sub(1), |n, d| {
            if kinds[n as usize].is_some() {
                list.push((n, d));
            }
        });
        list
    }

    /// Applies the checked ops in order, returning `(gate, previous
    /// fan-in)` for every rewire.
    fn apply_structure(&mut self, patch: &Patch) -> Vec<(u32, Vec<u32>)> {
        let mut fanin_log = Vec::new();
        for op in &patch.ops {
            match op {
                PatchOp::SetFanin { gate, fanin } => {
                    let new: Vec<u32> = fanin.iter().map(|f| f.0).collect();
                    fanin_log.push((gate.0, self.set_fanin(gate.index(), &new)));
                }
                PatchOp::AddGate { kind, fanin, .. } => {
                    let list: Vec<u32> = fanin.iter().map(|f| f.0).collect();
                    self.push_gate(*kind, &list);
                }
            }
        }
        fanin_log
    }

    /// Rewires gate `i`, re-deriving its cell row when the arity moved
    /// (the row is keyed by `(kind, arity)`); returns the old fan-in.
    fn set_fanin(&mut self, i: usize, fanin: &[u32]) -> Vec<u32> {
        let old = self.cones.set_fanin(i, fanin);
        if old.len() != fanin.len() {
            self.set_table_row(i);
        }
        old
    }

    /// Appends a gate (structure, electrical row and placeholder growth
    /// of the derived vectors).
    fn push_gate(&mut self, kind: CellKind, fanin: &[u32]) {
        let i = self.kinds.len();
        self.kinds.push(Some(kind));
        self.cones.push_node(fanin);
        // The empty time set first: the row below counts it.
        self.times.push(TimeSet::new());
        let t = &mut self.tables;
        t.delay_ps.push(0.0);
        t.grid_delay.push(0);
        t.peak_current_ua.push(0.0);
        t.r_on_kohm.push(0.0);
        t.c_out_ff.push(0.0);
        t.c_rail_ff.push(0.0);
        t.leakage_na.push(0.0);
        t.area.push(0.0);
        self.set_table_row(i);
        self.near_w.push(0);
        if let Some(rows) = self.rows.as_mut() {
            rows.push(Vec::new());
        }
        self.gate_count += 1;
        self.arr.push(0.0);
        self.arr_nom.push(0.0);
    }

    /// Pops the last node, an inserted gate whose consumers are gone
    /// (the inverse of [`Self::push_gate`], with its current-histogram
    /// entries).
    // Only called on gates a rollback appended, so the parallel arrays
    // are aligned and non-empty.
    #[allow(clippy::expect_used)]
    fn pop_gate(&mut self) {
        let i = self.kinds.len() - 1;
        let set = self.times.pop().expect("aligned");
        self.hist.remove(&set, self.tables.peak_current_ua[i]);
        self.kinds.pop();
        self.cones.pop_node();
        let t = &mut self.tables;
        t.delay_ps.pop();
        t.grid_delay.pop();
        t.peak_current_ua.pop();
        t.r_on_kohm.pop();
        t.c_out_ff.pop();
        t.c_rail_ff.pop();
        t.leakage_na.pop();
        t.area.pop();
        self.near_w.pop();
        if let Some(rows) = self.rows.as_mut() {
            rows.pop();
        }
        self.gate_count -= 1;
        self.arr.pop();
        self.arr_nom.pop();
    }

    /// Re-derives the electrical row of gate `i` from the library — the
    /// same lookup [`NodeTables::new`] performs, so rows stay bit-exact
    /// with a rebuilt context — and moves the gate's current-histogram
    /// entries to the new peak.
    // Only called for validated gate indices.
    #[allow(clippy::expect_used)]
    fn set_table_row(&mut self, i: usize) {
        let kind = self.kinds[i].expect("gates only");
        let cell = self.ctx.library.cell(kind, self.cones.fanin(i).len());
        let t = &mut self.tables;
        t.delay_ps[i] = cell.delay_ps;
        t.grid_delay[i] = self.ctx.technology.to_grid(cell.delay_ps);
        self.hist
            .repeak(&self.times[i], t.peak_current_ua[i], cell.peak_current_ua);
        t.peak_current_ua[i] = cell.peak_current_ua;
        t.r_on_kohm[i] = cell.r_on_kohm;
        t.c_out_ff[i] = cell.c_out_ff;
        t.c_rail_ff[i] = cell.c_rail_ff;
        t.leakage_na[i] = cell.leakage_na;
        t.area[i] = cell.area;
    }

    /// Separation state through the captured [`SepDirty`]: the
    /// incremental ΔW pair rescoring, or the full ρ-ball bounded-BFS
    /// re-derivation. Returns the number of gates re-derived.
    fn refresh_separation(&mut self, patch: &Patch, sep: &SepDirty) -> usize {
        match sep {
            SepDirty::Ball(old_ball) => self.refresh_separation_full(patch, old_ball),
            SepDirty::Dists(old) => self.refresh_separation_delta(patch, old),
        }
    }

    /// Transition-time sets through a dirty-cone walk, and the lazy
    /// order/nominal-delay flags. Returns the number of nodes visited.
    fn refresh_times(&mut self, patch: &Patch) -> usize {
        let time_seeds: Vec<u32> = patch.ops.iter().map(|op| op.gate().0).collect();
        let ResynthEval {
            ref mut cones,
            ref mut times,
            ref mut times_log,
            ref mut hist,
            ref tables,
            ref kinds,
            ..
        } = *self;
        let times_visited = cones.walker().walk(time_seeds.iter().copied(), |i, fanin| {
            let i = i as usize;
            if is_source(kinds[i]) {
                // Primary inputs and DFF outputs transition at t = 0,
                // always.
                return false;
            }
            let d = tables.grid_delay[i];
            let mut acc = TimeSet::new();
            for &f in fanin {
                acc.union_with_shifted(&times[f as usize], d);
            }
            if acc == times[i] {
                false
            } else {
                let peak = tables.peak_current_ua[i];
                hist.remove(&times[i], peak);
                hist.add(&acc, peak);
                times_log.push((i as u32, std::mem::replace(&mut times[i], acc)));
                true
            }
        });
        self.order_dirty = true;
        self.nominal_dirty = true;
        times_visited
    }

    /// The full separation refresh: every gate in the union of the pre-
    /// and post-patch ρ−1-balls of the edited nodes gets its neighbour
    /// weight (and, when maintained, its near row) re-derived by bounded
    /// BFS. Returns the number of gates re-derived.
    fn refresh_separation_full(&mut self, patch: &Patch, old_ball: &[u32]) -> usize {
        let rho = self.ctx.config.rho;
        let new_seeds: Vec<u32> = patch.ops.iter().map(|op| op.gate().0).collect();
        let mut ball = self
            .cones
            .undirected_ball(&new_seeds, rho.saturating_sub(1));
        ball.extend_from_slice(old_ball);
        ball.sort_unstable();
        ball.dedup();
        let ResynthEval {
            ref mut cones,
            ref kinds,
            ref mut near_w,
            ref mut sum_w,
            ref mut w_log,
            ref mut rows,
            ref mut row_log,
            ..
        } = *self;
        let track_rows = rows.is_some();
        let mut row_buf: Vec<(u32, u32)> = Vec::new();
        let mut separation_recomputed = 0usize;
        for &g in &ball {
            if kinds[g as usize].is_none() {
                continue;
            }
            let mut w = 0u64;
            row_buf.clear();
            cones.bounded_bfs(g, rho.saturating_sub(1), |n, d| {
                if kinds[n as usize].is_some() {
                    w += u64::from(rho - d);
                    if track_rows {
                        row_buf.push((n, d));
                    }
                }
            });
            let old = near_w[g as usize];
            if w != old {
                w_log.push((g, old));
                *sum_w += w;
                *sum_w -= old;
                near_w[g as usize] = w;
            }
            // Ball gates are deduped, so each row gets at most one log
            // entry per apply.
            if let Some(rows) = rows.as_mut() {
                row_buf.sort_unstable();
                if rows[g as usize] != row_buf {
                    let old = std::mem::replace(&mut rows[g as usize], row_buf.clone());
                    row_log.push((g, old));
                }
            }
            separation_recomputed += 1;
        }
        separation_recomputed
    }

    /// The incremental ΔW separation refresh: only pairs whose shortest
    /// bounded route crosses an edited node are rescored. For each
    /// edited node `x`, through-`x` route lengths `d(g,x) + d(x,h)` are
    /// enumerated from `x`'s pre-patch (captured) and post-patch
    /// distance lists and min-merged per pair into `d_oldX` / `d_newX`
    /// (through-edit distances decompose exactly — shortest walks
    /// concatenate at the crossing node — and routes avoiding every
    /// edited node are identical on both sides). Against the maintained
    /// row distance `d_old`, each candidate pair resolves exactly:
    ///
    /// * `d_oldX == d_newX` — untouched (the through-edit side did not
    ///   move, the avoiding side never does);
    /// * `d_old < d_oldX` — the old shortest route avoids the edits and
    ///   survives, `d_new = min(d_old, d_newX)`;
    /// * `d_newX < d_oldX` (with `d_old == d_oldX`) — `d_new = d_newX`;
    /// * otherwise the old shortest route crossed an edit and the
    ///   detour got worse — the surviving route either still crosses an
    ///   edit (`d_newX`, known) or avoids every edit, so
    ///   `d_new = min(d_avoidX, d_newX)` with `d_avoidX` the bounded
    ///   distance in the graph minus the edited nodes (identical pre-
    ///   and post-patch). One avoid-X BFS per endpoint of a greedy
    ///   vertex cover of these ambiguous pairs resolves all of them —
    ///   hub endpoints carry most pairs, so the cover stays far smaller
    ///   than the per-row rebuild set it replaces. The graph minus the
    ///   edited nodes is fixed by the pre-patch structure and the
    ///   pre-patch edited nodes, so a BFS result is cached under those
    ///   two and reused by later applies that share them: the sibling
    ///   probes of one gate, and the re-apply of the winner.
    ///
    /// Returns the number of fallback BFS re-derivations (a resolved
    /// pair is one deferred row edit, not a re-derivation).
    fn refresh_separation_delta(&mut self, patch: &Patch, old: &[(u32, Vec<(u32, u32)>)]) -> usize {
        let rho = self.ctx.config.rho;
        let bound = rho.saturating_sub(1);
        let alive = self.kinds.len();
        // Edited nodes after the patch (insertions included).
        let mut xs: Vec<u32> = patch.ops.iter().map(|op| op.gate().0).collect();
        xs.sort_unstable();
        xs.dedup();
        let k = xs.len();
        if k == 0 {
            return 0;
        }
        // Post-patch distance lists, one per edited node (their union
        // with the captured pre-patch lists spans every candidate
        // endpoint).
        let new_lists: Vec<Vec<(u32, u32)>> = xs.iter().map(|&x| self.gate_dist_list(x)).collect();
        let ResynthEval {
            ref mut cones,
            ref mut near_w,
            ref mut sum_w,
            ref mut w_log,
            ref rows,
            ref mut row_edits,
            ref mut delta_scratch,
            structure_id,
            ..
        } = *self;
        let Some(rows) = rows.as_ref() else {
            unreachable!("the ΔW refresh runs only with maintained rows")
        };
        let sc = delta_scratch;
        // Compact every endpoint into a slot carrying its `2K` bounded
        // through-distance columns (old then new, ρ = out of bound) —
        // dense arrays instead of a hash map keyed by pair: the pair
        // enumeration below is the hot loop of every probe refresh.
        let two_k = 2 * k;
        sc.epoch += 1;
        sc.slot_epoch.resize(alive, 0);
        sc.slot.resize(alive, 0);
        sc.nodes.clear();
        sc.dists.clear();
        {
            let fill = |sc: &mut DeltaScratch, col: usize, list: &[(u32, u32)]| {
                for &(g, d) in list {
                    let gi = g as usize;
                    let s = if sc.slot_epoch[gi] == sc.epoch {
                        sc.slot[gi] as usize
                    } else {
                        let s = sc.nodes.len();
                        sc.slot_epoch[gi] = sc.epoch;
                        sc.slot[gi] = s as u32;
                        sc.nodes.push(g);
                        sc.dists.resize(sc.dists.len() + two_k, rho);
                        s
                    };
                    sc.dists[s * two_k + col] = d;
                }
            };
            for (x, list) in old {
                let col = xs
                    .binary_search(x)
                    .unwrap_or_else(|_| unreachable!("a rewired gate stays edited"));
                fill(sc, col, list);
            }
            for (i, list) in new_lists.iter().enumerate() {
                fill(sc, k + i, list);
            }
        }
        let n_slots = sc.nodes.len();
        sc.seen.clear();
        sc.seen.resize(n_slots, 0);
        sc.delta.clear();
        sc.delta.resize(n_slots, 0);
        // Enumerate candidate pairs: (g, h) is one iff some column holds
        // both within `bound` of the same edited node. Each list is in
        // BFS (non-decreasing distance) order, so the in-bound partner
        // window is a prefix; each unordered pair is processed once,
        // from its smaller endpoint, deduplicated by the `seen` marker.
        // A moved pair adds its weight delta to both endpoints at once
        // and parks its symmetric row edit in `row_edits` — the pairs
        // are distinct, so no later `d_old` lookup can see the edit.
        let weight = |d: u32| -> i64 {
            if d < rho {
                i64::from(rho - d)
            } else {
                0
            }
        };
        let mut amb_pairs: Vec<(u32, u32, u32, u32)> = Vec::new();
        for gs in 0..n_slots {
            let g = sc.nodes[gs];
            #[allow(clippy::cast_possible_truncation)]
            let marker = gs as u32 + 1;
            for col in 0..two_k {
                let dg = sc.dists[gs * two_k + col];
                if dg > bound {
                    continue;
                }
                let limit = bound - dg;
                let list: &[(u32, u32)] = if col < k {
                    match old.iter().find(|(x, _)| *x == xs[col]) {
                        Some((_, list)) => list,
                        // Column of an inserted node: no pre-patch side.
                        None => continue,
                    }
                } else {
                    &new_lists[col - k]
                };
                for &(h, dh) in list {
                    if dh > limit {
                        break;
                    }
                    if h <= g {
                        continue;
                    }
                    let hs = sc.slot[h as usize] as usize;
                    if sc.seen[hs] == marker {
                        continue;
                    }
                    sc.seen[hs] = marker;
                    // Through-edit distances old/new: min over columns.
                    let (mut d_old_x, mut d_new_x) = (rho, rho);
                    for j in 0..k {
                        let a = sc.dists[gs * two_k + j] + sc.dists[hs * two_k + j];
                        let b = sc.dists[gs * two_k + k + j] + sc.dists[hs * two_k + k + j];
                        d_old_x = d_old_x.min(a);
                        d_new_x = d_new_x.min(b);
                    }
                    if d_old_x == d_new_x {
                        continue;
                    }
                    let d_old = row_dist(&rows[g as usize], h, rho);
                    debug_assert!(
                        d_old <= d_old_x,
                        "a through-edit route bounds the true distance from above"
                    );
                    let d_new = if d_old < d_old_x {
                        d_old.min(d_new_x)
                    } else if d_new_x < d_old_x {
                        d_new_x
                    } else {
                        amb_pairs.push((g, h, d_old, d_new_x));
                        continue;
                    };
                    if d_new != d_old {
                        let dw = weight(d_new) - weight(d_old);
                        sc.delta[gs] += dw;
                        sc.delta[hs] += dw;
                        row_edits.push((g, h, d_new));
                    }
                }
            }
        }
        // Ambiguous pairs resolve by greedy vertex cover: each cover
        // endpoint runs one bounded BFS with the edited nodes
        // pre-stamped out of the traversal, yielding `d_avoidX` for all
        // of its ambiguous partners at once. Pre-stamping also parks
        // `ρ` on the edited nodes themselves, so a pair whose endpoint
        // is edited falls back to `d_newX` — exact there, since every
        // route to an edited endpoint crosses an edit by definition.
        let mut separation_recomputed = 0usize;
        if !amb_pairs.is_empty() {
            let mut deg = vec![0u32; n_slots];
            for &(g, h, _, _) in &amb_pairs {
                deg[sc.slot[g as usize] as usize] += 1;
                deg[sc.slot[h as usize] as usize] += 1;
            }
            let mut chosen = vec![false; n_slots];
            // (cover slot, pair index), grouped by the sort so every
            // cover endpoint's pairs drain off one BFS.
            let mut grouped: Vec<(u32, u32)> = Vec::with_capacity(amb_pairs.len());
            #[allow(clippy::cast_possible_truncation)]
            for (i, &(g, h, _, _)) in amb_pairs.iter().enumerate() {
                let (gs, hs) = (sc.slot[g as usize] as usize, sc.slot[h as usize] as usize);
                let cover = if chosen[gs] {
                    gs
                } else if chosen[hs] {
                    hs
                } else if deg[gs] >= deg[hs] {
                    chosen[gs] = true;
                    gs
                } else {
                    chosen[hs] = true;
                    hs
                };
                grouped.push((cover as u32, i as u32));
            }
            grouped.sort_unstable();
            sc.bfs_stamp.resize(alive, 0);
            sc.bfs_dist.resize(alive, 0);
            let key = (structure_id, old.iter().map(|&(x, _)| x).collect());
            if sc.avoid_key.as_ref() != Some(&key) {
                sc.avoid_key = Some(key);
                sc.avoid_index.clear();
                sc.avoid_pool.clear();
            }
            let mut i = 0usize;
            while i < grouped.len() {
                let cs = grouped[i].0;
                let e = sc.nodes[cs as usize];
                sc.bfs_epoch += 1;
                let epoch = sc.bfs_epoch;
                for &x in &xs {
                    sc.bfs_stamp[x as usize] = epoch;
                    sc.bfs_dist[x as usize] = rho;
                }
                if let Some(&(_, start, end)) = sc.avoid_index.iter().find(|c| c.0 == e) {
                    for k in start as usize..end as usize {
                        let (v, d) = sc.avoid_pool[k];
                        sc.bfs_stamp[v as usize] = epoch;
                        sc.bfs_dist[v as usize] = d;
                    }
                } else {
                    sc.bfs_queue.clear();
                    if sc.bfs_stamp[e as usize] != epoch {
                        sc.bfs_stamp[e as usize] = epoch;
                        sc.bfs_dist[e as usize] = 0;
                        sc.bfs_queue.push(e);
                    }
                    let (mut head, mut tail) = (0usize, sc.bfs_queue.len());
                    let mut d = 0u32;
                    while d < bound && head < tail {
                        d += 1;
                        for qi in head..tail {
                            let u = sc.bfs_queue[qi] as usize;
                            for &v in cones.fanin(u).iter().chain(cones.fanout(u)) {
                                let vi = v as usize;
                                if sc.bfs_stamp[vi] != epoch {
                                    sc.bfs_stamp[vi] = epoch;
                                    sc.bfs_dist[vi] = d;
                                    sc.bfs_queue.push(v);
                                }
                            }
                        }
                        head = tail;
                        tail = sc.bfs_queue.len();
                    }
                    #[allow(clippy::cast_possible_truncation)]
                    let start = sc.avoid_pool.len() as u32;
                    for &v in &sc.bfs_queue {
                        sc.avoid_pool.push((v, sc.bfs_dist[v as usize]));
                    }
                    #[allow(clippy::cast_possible_truncation)]
                    sc.avoid_index.push((e, start, sc.avoid_pool.len() as u32));
                    separation_recomputed += 1;
                }
                while i < grouped.len() && grouped[i].0 == cs {
                    let (g, h, d_old, d_new_x) = amb_pairs[grouped[i].1 as usize];
                    i += 1;
                    let p = if g == e { h } else { g };
                    let d_avoid = if sc.bfs_stamp[p as usize] == epoch {
                        sc.bfs_dist[p as usize]
                    } else {
                        rho
                    };
                    let d_new = d_avoid.min(d_new_x);
                    debug_assert!(
                        d_new >= d_old,
                        "an ambiguous pair's surviving route never shortens"
                    );
                    if d_new == d_old {
                        continue;
                    }
                    let dw = weight(d_new) - weight(d_old);
                    sc.delta[sc.slot[g as usize] as usize] += dw;
                    sc.delta[sc.slot[h as usize] as usize] += dw;
                    row_edits.push((g, h, d_new));
                }
            }
        }
        for s in 0..n_slots {
            let dw = sc.delta[s];
            if dw == 0 {
                continue;
            }
            let g = sc.nodes[s];
            let old_w = near_w[g as usize];
            #[allow(clippy::cast_sign_loss)]
            let new_w = (i64::try_from(old_w).unwrap_or(i64::MAX) + dw) as u64;
            w_log.push((g, old_w));
            *sum_w += new_w;
            *sum_w -= old_w;
            near_w[g as usize] = new_w;
        }
        separation_recomputed
    }

    /// Rebuilds the lazy (level, id)-sorted topological order when stale.
    fn settle_order(&mut self) {
        if self.order_dirty {
            // Counting sort by level, ids ascending within a level: the
            // (level, id) order in O(n + depth).
            let n = self.kinds.len();
            let cones = &self.cones;
            let starts = &mut self.level_slots;
            starts.clear();
            for i in 0..n {
                let l = cones.level(i) as usize;
                if l >= starts.len() {
                    starts.resize(l + 1, 0);
                }
                starts[l] += 1;
            }
            let mut next = 0u32;
            for s in starts.iter_mut() {
                let count = *s;
                *s = next;
                next += count;
            }
            self.order.resize(n, 0);
            for i in 0..n as u32 {
                let s = &mut starts[cones.level(i as usize) as usize];
                self.order[*s as usize] = i;
                *s += 1;
            }
            self.order_dirty = false;
        }
    }

    /// The cost figures of the current (patched) structure as one
    /// module.
    pub fn figures(&mut self) -> Figures {
        let separation = self.separation();
        self.figures_at(separation)
    }

    /// The single-module separation `S = ρ·pairs − Σ_g W(g)/2` of the
    /// current neighbour weights.
    fn separation(&self) -> u64 {
        let gates = self.gate_count as u64;
        let pairs = gates * gates.saturating_sub(1) / 2;
        debug_assert_eq!(self.sum_w % 2, 0, "neighbour weights are symmetric");
        u64::from(self.ctx.config.rho) * pairs - self.sum_w / 2
    }

    /// [`ResynthEval::figures`] with `separation` in place of the current
    /// one: every other figure is read from the current structure.
    fn figures_at(&mut self, separation: u64) -> Figures {
        self.settle_order();
        let n = self.kinds.len();
        if !self.hist.exact {
            self.hist
                .rescan(&self.kinds, &self.times, &self.tables.peak_current_ua);
        }
        let (peak_current_ua, peak_activity) = self.hist.peaks();
        let mut leakage_na = 0.0f64;
        let mut rail_cap_ff = 0.0f64;
        let mut cell_area = 0.0f64;
        for i in 0..n {
            if self.kinds[i].is_none() {
                continue;
            }
            leakage_na += self.tables.leakage_na[i];
            rail_cap_ff += self.tables.c_rail_ff[i];
            cell_area += self.tables.area[i];
        }
        let stats = ModuleStats {
            current_hist: Vec::new(),
            count_hist: Vec::new(),
            peak_current_ua,
            peak_activity,
            leakage_na,
            rail_cap_ff,
            cell_area,
            separation,
        };
        let sens = sensor_figures(self.ctx, &stats);
        // One level-ordered sweep over the current structure: each node's
        // degraded weight and arrival, and (when a patch moved it) its
        // nominal arrival, from one read of its fan-in list. A DFF
        // launches a fresh path at the frame boundary (its D edge belongs
        // to the previous frame), as in
        // [`iddq_netlist::levelize::longest_path`].
        let nominal = self.nominal_dirty;
        let ResynthEval {
            ref order,
            ref cones,
            ref kinds,
            ref tables,
            ref mut arr,
            ref mut arr_nom,
            ..
        } = *self;
        for &i in order {
            let i = i as usize;
            let (mut deg_in, mut nom_in) = (0.0f64, 0.0f64);
            if !is_source(kinds[i]) {
                for &f in cones.fanin(i) {
                    deg_in = f64::max(deg_in, arr[f as usize]);
                    if nominal {
                        nom_in = f64::max(nom_in, arr_nom[f as usize]);
                    }
                }
            }
            let weight = match kinds[i] {
                Some(_) => degraded_weight(
                    tables.delay_ps[i],
                    tables.r_on_kohm[i],
                    tables.c_out_ff[i],
                    &stats,
                    &sens,
                ),
                None => 0.0,
            };
            arr[i] = deg_in + weight;
            if nominal {
                arr_nom[i] = nom_in + tables.delay_ps[i];
            }
        }
        let output_max = |arr: &[f64]| {
            self.outputs
                .iter()
                .map(|&o| arr[o as usize])
                .fold(0.0f64, f64::max)
        };
        let dbic_ps = output_max(&self.arr);
        if nominal {
            self.nominal_delay_ps = output_max(&self.arr_nom);
            self.nominal_dirty = false;
        }
        Figures::of_modules([sens], separation, dbic_ps, self.nominal_delay_ps)
    }

    /// Weighted scalar cost of the current structure (the resynthesis
    /// objective) — bit-exact with `Evaluated::new(&EvalContext::new(
    /// materialized, …), single module).total_cost()`.
    #[must_use]
    pub fn total_cost(&mut self) -> f64 {
        let (figures, objective) = (self.figures(), self.ctx.objective());
        objective.total(&objective.terms(&figures))
    }

    /// The gate separation table of the current structure (a pending
    /// patch included: it is committed first), converted from the
    /// maintained near rows: equal to [`GateSeparationTable::direct`] of
    /// the netlist [`iddq_netlist::patch::materialize`] builds from the
    /// applied patches, which keeps every node id. A search hands its
    /// rows to the next analysis this way instead of building the table
    /// again. `None` without maintained rows
    /// ([`ResynthEval::new_full_refresh`]).
    #[must_use]
    pub fn into_sep_table(mut self) -> Option<GateSeparationTable> {
        self.commit();
        let rows = self.rows.take()?;
        let rho = self.ctx.config.rho;
        // Free the rest of the evaluation before the copy.
        drop(self);
        Some(GateSeparationTable::from_distance_rows(rho, rows))
    }

    /// Recomputes every derived quantity from scratch and asserts it
    /// matches the incrementally maintained state (with a pending patch's
    /// deferred row edits laid over the near rows) — the correctness
    /// oracle for tests.
    ///
    /// # Panics
    ///
    /// Panics if any maintained quantity drifted from the ground truth.
    pub fn verify_consistency(&mut self) {
        self.settle_order();
        let n = self.kinds.len();
        let rho = self.ctx.config.rho;
        // Electrical rows.
        for i in 0..n {
            if let Some(kind) = self.kinds[i] {
                let cell = self.ctx.library.cell(kind, self.cones.fanin(i).len());
                assert_eq!(self.tables.delay_ps[i].to_bits(), cell.delay_ps.to_bits());
                assert_eq!(
                    self.tables.peak_current_ua[i].to_bits(),
                    cell.peak_current_ua.to_bits()
                );
            }
        }
        // Transition times, recomputed in topological order.
        let mut want: Vec<TimeSet> = vec![TimeSet::new(); n];
        for &i in &self.order {
            let i = i as usize;
            want[i] = if is_source(self.kinds[i]) {
                TimeSet::singleton(0)
            } else {
                let d = self.tables.grid_delay[i];
                let mut acc = TimeSet::new();
                for &f in self.cones.fanin(i) {
                    acc.union_with_shifted(&want[f as usize], d);
                }
                acc
            };
            assert_eq!(want[i], self.times[i], "transition times of node {i}");
        }
        // The maintained current histogram against the scan, slot by
        // slot (bits for the currents; slots past the scan's horizon
        // must be exact zeros).
        if self.hist.exact {
            let mut truth = CurrentHist::default();
            truth.rescan(&self.kinds, &self.times, &self.tables.peak_current_ua);
            let slots = truth.cur.len().max(self.hist.cur.len());
            for t in 0..slots {
                let cur = |h: &CurrentHist| h.cur.get(t).copied().unwrap_or(0.0).to_bits();
                let cnt = |h: &CurrentHist| h.cnt.get(t).copied().unwrap_or(0);
                assert_eq!(cur(&truth), cur(&self.hist), "histogram current at t = {t}");
                assert_eq!(cnt(&truth), cnt(&self.hist), "histogram count at t = {t}");
            }
        }
        // Separation neighbour weights.
        let mut sum = 0u64;
        for g in 0..n as u32 {
            if self.kinds[g as usize].is_none() {
                assert_eq!(self.near_w[g as usize], 0);
                continue;
            }
            let kinds = &self.kinds;
            let mut w = 0u64;
            self.cones.bounded_bfs(g, rho.saturating_sub(1), |m, d| {
                if kinds[m as usize].is_some() {
                    w += u64::from(rho - d);
                }
            });
            assert_eq!(w, self.near_w[g as usize], "neighbour weight of gate {g}");
            sum += w;
        }
        assert_eq!(sum, self.sum_w);
        // Levels.
        for i in 0..n {
            assert_eq!(
                self.cones.level(i),
                self.cones.local_level(i),
                "level of node {i}"
            );
        }
        // Maintained ΔW rows against ground-truth bounded BFS.
        let ResynthEval {
            ref mut cones,
            ref kinds,
            ref rows,
            ref undo,
            ..
        } = *self;
        if let Some(rows) = rows.as_ref() {
            let mut rows = rows.clone();
            if let Some(frame) = undo {
                write_row_edits(&mut rows, &frame.row_edits, rho);
            }
            let mut truth: Vec<(u32, u32)> = Vec::new();
            for g in 0..n as u32 {
                truth.clear();
                if kinds[g as usize].is_some() {
                    cones.bounded_bfs(g, rho.saturating_sub(1), |m, d| {
                        if kinds[m as usize].is_some() {
                            truth.push((m, d));
                        }
                    });
                    truth.sort_unstable();
                }
                assert_eq!(truth, rows[g as usize], "near row of gate {g}");
            }
        }
    }
}

/// Whether a node of kind `kind` is a path source: a primary input
/// (`None`) or a state element, whose output is a frame-boundary
/// pseudo-input.
fn is_source(kind: Option<CellKind>) -> bool {
    kind.is_none_or(CellKind::is_state)
}

/// Looks one partner up in a maintained near row (`ρ` when out of
/// bound).
fn row_dist(row: &[(u32, u32)], partner: u32, rho: u32) -> u32 {
    match row.binary_search_by_key(&partner, |e| e.0) {
        Ok(i) => row[i].1,
        Err(_) => rho,
    }
}

/// Writes the symmetric ΔW pair edits `(g, h, distance)` into the near
/// rows, both directions per pair.
fn write_row_edits(rows: &mut [Vec<(u32, u32)>], edits: &[(u32, u32, u32)], rho: u32) {
    for &(g, h, d) in edits {
        for (e, p) in [(g, h), (h, g)] {
            set_row_entry(&mut rows[e as usize], p, d, rho);
        }
    }
}

/// Writes one `(partner, distance)` entry of a maintained near row:
/// insert or update when `d` is in bound, remove when the pair left the
/// bound.
fn set_row_entry(row: &mut Vec<(u32, u32)>, partner: u32, d: u32, rho: u32) {
    match row.binary_search_by_key(&partner, |e| e.0) {
        Ok(i) => {
            if d >= rho {
                row.remove(i);
            } else {
                row[i].1 = d;
            }
        }
        Err(i) => {
            if d < rho {
                if row.len() == row.capacity() {
                    // Rows are edited in place and never shrink back, so
                    // grow them by an eighth rather than doubling: the
                    // table holds every gate's ρ-ball.
                    row.reserve_exact(row.len() / 8 + 1);
                }
                row.insert(i, (partner, d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::evaluator::Evaluated;
    use crate::partition::Partition;
    use iddq_celllib::Library;
    use iddq_netlist::patch::materialize;
    use iddq_netlist::{data, Netlist, NetlistBuilder, NodeId};

    fn rebuild_cost(nl: &Netlist, lib: &Library, cfg: &PartitionConfig) -> f64 {
        let ctx = EvalContext::new(nl, lib, cfg.clone());
        Evaluated::new(&ctx, Partition::single_module(nl)).total_cost()
    }

    #[test]
    fn fresh_eval_matches_evaluated_bitwise() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        for nl in [data::c17(), data::ripple_adder(6)] {
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let mut eval = ResynthEval::new(&ctx);
            let want = Evaluated::new(&ctx, Partition::single_module(&nl)).total_cost();
            assert_eq!(eval.total_cost().to_bits(), want.to_bits());
            eval.verify_consistency();
        }
    }

    #[test]
    fn both_histogram_paths_match_rebuild_and_roll_back() {
        // The generic cells' peak currents are integers, so the current
        // histogram is maintained; one fractional cell turns that off and
        // every scoring rescans it.
        let generic = Library::generic_1um();
        let mut inexact = generic.clone();
        let mut nand2 = generic.cell(CellKind::Nand, 2).clone();
        nand2.peak_current_ua = 100.3;
        inexact.override_cell(nand2);
        let cfg = PartitionConfig::paper_default();
        let nl = data::c17();
        let patch = rewrite(&nl, nl.find("22").unwrap(), nl.node_count() as u32);
        for (lib, maintained) in [(&generic, true), (&inexact, false)] {
            let ctx = EvalContext::new(&nl, lib, cfg.clone());
            let mut eval = ResynthEval::new(&ctx);
            assert_eq!(eval.hist.exact, maintained);
            let base = eval.total_cost();
            assert_eq!(base.to_bits(), rebuild_cost(&nl, lib, &cfg).to_bits());
            eval.apply(&patch).unwrap();
            eval.verify_consistency();
            let patched = eval.total_cost();
            let oracle = rebuild_cost(&materialize(&nl, &patch).unwrap(), lib, &cfg);
            assert_eq!(patched.to_bits(), oracle.to_bits());
            eval.rollback();
            assert_eq!(eval.total_cost().to_bits(), base.to_bits());
            eval.verify_consistency();
        }
    }

    #[test]
    fn region_rewrite_matches_rebuild_bitwise() {
        // The decomposition patch shape: insert a 2-input tree, rewire
        // the consumer — scored by patch vs a full rebuild of the
        // materialized candidate.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = data::ripple_adder(5);
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let base = eval.total_cost();
        let gate = nl
            .gate_ids()
            .find(|&g| nl.node(g).fanin().len() >= 2)
            .unwrap();
        let leaves = nl.node(gate).fanin().to_vec();
        let n = nl.node_count() as u32;
        let patch = Patch {
            ops: vec![
                PatchOp::AddGate {
                    gate: NodeId(n),
                    kind: CellKind::And,
                    fanin: leaves.clone(),
                },
                PatchOp::AddGate {
                    gate: NodeId(n + 1),
                    kind: CellKind::Not,
                    fanin: vec![NodeId(n)],
                },
                PatchOp::SetFanin {
                    gate,
                    fanin: vec![NodeId(n + 1), leaves[0]],
                },
            ],
        };
        eval.apply(&patch).unwrap();
        eval.verify_consistency();
        let patched = eval.total_cost();
        let oracle = rebuild_cost(&materialize(&nl, &patch).unwrap(), &lib, &cfg);
        assert_eq!(patched.to_bits(), oracle.to_bits());
        eval.rollback();
        eval.verify_consistency();
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
        assert_eq!(eval.node_count(), nl.node_count());
    }

    /// Asserts that `result` is the rejection `want` and that it left the
    /// evaluation as it was: the same cost bits, consistent state.
    fn assert_rejected<T: std::fmt::Debug>(
        eval: &mut ResynthEval<'_>,
        result: Result<T, PatchError>,
        want: fn(&PatchError) -> bool,
        cost: f64,
        what: &str,
    ) {
        match result {
            Err(e) => assert!(want(&e), "{what}: rejected with {e}"),
            Ok(v) => panic!("{what}: accepted ({v:?})"),
        }
        assert_eq!(eval.total_cost().to_bits(), cost.to_bits(), "{what}");
        eval.verify_consistency();
    }

    #[test]
    fn typed_rejections_leave_the_evaluation_untouched() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let c432 =
            iddq_gen::iscas::generate(iddq_gen::iscas::IscasProfile::by_name("c432").unwrap(), 5);
        for nl in [data::c17(), c432] {
            let name = nl.name().to_owned();
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let mut eval = ResynthEval::new(&ctx);
            let base = eval.total_cost();
            let n = nl.node_count() as u32;
            // A gate with a combinational 2-input consumer.
            let (gate, consumer) =
                nl.gate_ids()
                    .filter(|&g| nl.node(g).fanin().len() == 2)
                    .find_map(|g| {
                        let c =
                            nl.fanout(g).iter().copied().find(|&c| {
                                nl.node(c).fanin().len() == 2 && !nl.is_state_element(c)
                            })?;
                        Some((g, c))
                    })
                    .unwrap();
            // Rewiring the gate onto its own consumer would close a
            // cycle: not a subdivision.
            let cycle = Patch::single(PatchOp::SetFanin {
                gate,
                fanin: vec![consumer, nl.node(gate).fanin()[1]],
            });
            for result in [
                eval.apply(&cycle).map(|_| ()),
                eval.probe(&cycle, f64::INFINITY).map(|_| ()),
            ] {
                assert_rejected(
                    &mut eval,
                    result,
                    |e| matches!(e, PatchError::NotASubdivision(_)),
                    base,
                    &format!("{name}: cycle"),
                );
            }
            // An inserted gate nobody reads adds a node, not a
            // subdivision.
            let dangling = Patch::single(PatchOp::AddGate {
                gate: NodeId(n),
                kind: CellKind::Not,
                fanin: vec![gate],
            });
            let result = eval.apply(&dangling);
            assert_rejected(
                &mut eval,
                result,
                |e| matches!(e, PatchError::NotASubdivision(_)),
                base,
                &format!("{name}: dangling insertion"),
            );
            // An op that fails validation partway: the second insertion
            // is a NOT with two inputs.
            let mut bad_arity = rewrite(&nl, gate, n);
            let PatchOp::AddGate { fanin, .. } = &mut bad_arity.ops[1] else {
                unreachable!("the rewrite inserts two gates first")
            };
            fanin.push(NodeId(n));
            let result = eval.apply(&bad_arity);
            assert_rejected(
                &mut eval,
                result,
                |e| matches!(e, PatchError::BadArity { .. }),
                base,
                &format!("{name}: bad arity"),
            );
            // The same, with the second insertion off the append id.
            let mut gap = rewrite(&nl, gate, n);
            let PatchOp::AddGate { gate: id, .. } = &mut gap.ops[1] else {
                unreachable!("the rewrite inserts two gates first")
            };
            *id = NodeId(n + 2);
            let result = eval.probe(&gap, f64::INFINITY);
            assert_rejected(
                &mut eval,
                result,
                |e| matches!(e, PatchError::NotAppend { .. }),
                base,
                &format!("{name}: append gap"),
            );
            // While a scored probe is pending, neither an apply nor a
            // probe goes through; the pending patch stays as it was and
            // rolls back to the start.
            let first = rewrite(&nl, gate, n);
            let probed = eval.probe(&first, f64::INFINITY).unwrap().unwrap();
            let second = rewrite(&nl, consumer, n + 2);
            for result in [
                eval.apply(&second).map(|_| ()),
                eval.probe(&second, f64::INFINITY).map(|_| ()),
            ] {
                assert_rejected(
                    &mut eval,
                    result,
                    |e| *e == PatchError::Pending,
                    probed,
                    &format!("{name}: pending"),
                );
            }
            eval.rollback();
            assert_eq!(eval.total_cost().to_bits(), base.to_bits(), "{name}");
            eval.verify_consistency();
        }

        // State elements are frame boundaries: no op may add or rewire a
        // DFF (a patched one would keep a stale transition-time set).
        let nl = iddq_gen::seq::generate(iddq_gen::seq::SeqProfile::by_name("s27").unwrap(), 5);
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let base = eval.total_cost();
        let is = |id: NodeId, state: bool| {
            nl.node(id)
                .kind()
                .cell_kind()
                .is_some_and(|k| k.is_state() == state)
        };
        let dff = nl.node_ids().find(|&id| is(id, true)).unwrap();
        let gate = nl.node_ids().find(|&id| is(id, false)).unwrap();
        let ops = [
            PatchOp::AddGate {
                gate: NodeId(nl.node_count() as u32),
                kind: CellKind::Dff,
                fanin: vec![gate],
            },
            PatchOp::SetFanin {
                gate: dff,
                fanin: nl.node(dff).fanin().to_vec(),
            },
        ];
        for op in ops {
            let result = eval.apply(&Patch::single(op.clone()));
            assert_rejected(
                &mut eval,
                result,
                |e| matches!(e, PatchError::StateElement(_)),
                base,
                &format!("{op:?}"),
            );
        }
    }

    /// A circuit with one 10-input AND over fresh inputs feeding a NOT,
    /// plus a 2-input gate sharing two of its inputs.
    fn wide_gate_circuit() -> (Netlist, NodeId) {
        let mut b = NetlistBuilder::new("wide10");
        let ins: Vec<NodeId> = (0..10).map(|i| b.add_input(format!("i{i}"))).collect();
        let wide = b.add_gate("w", CellKind::And, ins.clone()).unwrap();
        let out = b.add_gate("o", CellKind::Not, vec![wide]).unwrap();
        let side = b
            .add_gate("s", CellKind::Nor, vec![ins[0], ins[9]])
            .unwrap();
        b.mark_output(out);
        b.mark_output(side);
        (b.build().unwrap(), wide)
    }

    /// The chain decomposition of `gate` into 2-input stages of `kind`,
    /// the inserted stages numbered from `next`.
    fn chain(nl: &Netlist, gate: NodeId, kind: CellKind, next: u32) -> Patch {
        let leaves = nl.node(gate).fanin().to_vec();
        let mut ops = Vec::new();
        let mut last = leaves[0];
        for (k, &leaf) in leaves[1..leaves.len() - 1].iter().enumerate() {
            let id = NodeId(next + k as u32);
            ops.push(PatchOp::AddGate {
                gate: id,
                kind,
                fanin: vec![last, leaf],
            });
            last = id;
        }
        ops.push(PatchOp::SetFanin {
            gate,
            fanin: vec![last, leaves[leaves.len() - 1]],
        });
        Patch { ops }
    }

    #[test]
    fn wide_decomposition_takes_the_ball_refresh_and_keeps_rows() {
        // A 10-input decomposition edits nine nodes, past the ΔW path's
        // ceiling: it takes the ρ-ball refresh, which rewrites the
        // maintained rows, and must agree with the reference and the
        // rebuild through a rollback and a commit.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let (nl, wide) = wide_gate_circuit();
        let patch = chain(&nl, wide, CellKind::And, nl.node_count() as u32);
        assert_eq!(patch.ops.len(), DELTA_SEP_MAX_EDITS + 1);
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut inc = ResynthEval::new(&ctx);
        let mut full = ResynthEval::new_full_refresh(&ctx);
        let base = inc.total_cost();
        let oracle = rebuild_cost(&materialize(&nl, &patch).unwrap(), &lib, &cfg);
        for eval in [&mut inc, &mut full] {
            assert!(eval.apply(&patch).unwrap().separation_recomputed > 0);
            assert!(!eval.undo.as_ref().unwrap().row_log.is_empty() || eval.rows.is_none());
            assert_eq!(eval.total_cost().to_bits(), oracle.to_bits());
            eval.verify_consistency();
            eval.rollback();
            assert_eq!(eval.total_cost().to_bits(), base.to_bits());
            eval.verify_consistency();
            eval.apply(&patch).unwrap();
            eval.commit();
            assert_eq!(eval.total_cost().to_bits(), oracle.to_bits());
            eval.verify_consistency();
        }
        let table = inc.into_sep_table().unwrap();
        assert_eq!(
            table,
            GateSeparationTable::direct(&materialize(&nl, &patch).unwrap(), cfg.rho, 1)
        );
    }

    #[test]
    fn full_refresh_reference_matches_incremental_bitwise() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = data::ripple_adder(5);
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut inc = ResynthEval::new(&ctx);
        let mut full = ResynthEval::new_full_refresh(&ctx);
        assert_eq!(inc.total_cost().to_bits(), full.total_cost().to_bits());
        let gate = nl
            .gate_ids()
            .find(|&g| nl.node(g).fanin().len() >= 2)
            .unwrap();
        let leaves = nl.node(gate).fanin().to_vec();
        let n = nl.node_count() as u32;
        let patch = Patch {
            ops: vec![
                PatchOp::AddGate {
                    gate: NodeId(n),
                    kind: CellKind::Nor,
                    fanin: leaves.clone(),
                },
                PatchOp::SetFanin {
                    gate,
                    fanin: vec![NodeId(n), leaves[1]],
                },
            ],
        };
        inc.apply(&patch).unwrap();
        full.apply(&patch).unwrap();
        assert_eq!(inc.total_cost().to_bits(), full.total_cost().to_bits());
        inc.verify_consistency();
        full.verify_consistency();
        inc.rollback();
        full.rollback();
        assert_eq!(inc.total_cost().to_bits(), full.total_cost().to_bits());
        inc.verify_consistency();
        full.verify_consistency();
    }

    /// The 4-input gate `G20` of the sequential test circuit split into a
    /// 2-input chain, the inserted stages numbered from `next`.
    fn seq_decomposition(nl: &Netlist, next: u32) -> Patch {
        chain(nl, nl.find("G20").unwrap(), CellKind::And, next)
    }

    /// `G20` split into a balanced pair of 2-input stages.
    fn seq_balanced(nl: &Netlist, next: u32) -> Patch {
        let gate = nl.find("G20").unwrap();
        let leaves = nl.node(gate).fanin().to_vec();
        Patch {
            ops: vec![
                PatchOp::AddGate {
                    gate: NodeId(next),
                    kind: CellKind::And,
                    fanin: vec![leaves[0], leaves[1]],
                },
                PatchOp::AddGate {
                    gate: NodeId(next + 1),
                    kind: CellKind::And,
                    fanin: vec![leaves[2], leaves[3]],
                },
                PatchOp::SetFanin {
                    gate,
                    fanin: vec![NodeId(next), NodeId(next + 1)],
                },
            ],
        }
    }

    #[test]
    fn sequential_costs_match_rebuild_on_every_scoring() {
        // DFF outputs launch fresh paths: scoring twice (the second
        // sweep runs over the first one's arrival scratch) and scoring a
        // patched circuit both match a rebuild.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = crate::evaluator::tests::seq_circuit();
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let base = rebuild_cost(&nl, &lib, &cfg);
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
        eval.verify_consistency();
        let patch = seq_decomposition(&nl, nl.node_count() as u32);
        eval.apply(&patch).unwrap();
        let oracle = rebuild_cost(&materialize(&nl, &patch).unwrap(), &lib, &cfg);
        assert_eq!(eval.total_cost().to_bits(), oracle.to_bits());
        assert_eq!(eval.total_cost().to_bits(), oracle.to_bits());
        eval.verify_consistency();
        eval.rollback();
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
        eval.verify_consistency();
    }

    #[test]
    fn commit_keeps_changes() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let patch = rewrite(&nl, nl.find("16").unwrap(), nl.node_count() as u32);
        eval.apply(&patch).unwrap();
        let patched = eval.total_cost();
        eval.commit();
        assert!(eval.undo.is_none());
        assert_eq!(eval.total_cost().to_bits(), patched.to_bits());
        assert_fresh(&mut eval, &nl, &[patch], &lib, &cfg);
    }

    /// Single-module cost of `nl` with `patches` materialized, scored by
    /// a fresh evaluation.
    fn fresh_cost(nl: &Netlist, patches: &[Patch], lib: &Library, cfg: &PartitionConfig) -> f64 {
        let cut = materialize(nl, &Patch::concat(patches)).unwrap();
        let ctx = EvalContext::builder(&cut, lib, cfg.clone())
            .tier(crate::AnalysisTier::GateSep)
            .build();
        ResynthEval::new(&ctx).total_cost()
    }

    /// Checks the maintained state against a from-scratch derivation and
    /// the score against a fresh evaluation of the materialized netlist.
    fn assert_fresh(
        eval: &mut ResynthEval<'_>,
        nl: &Netlist,
        patches: &[Patch],
        lib: &Library,
        cfg: &PartitionConfig,
    ) {
        eval.verify_consistency();
        assert_eq!(
            eval.total_cost().to_bits(),
            fresh_cost(nl, patches, lib, cfg).to_bits(),
            "{}",
            nl.name()
        );
    }

    #[test]
    fn probes_prune_only_subdivisions_and_leave_no_trace() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = crate::evaluator::tests::seq_circuit();
        let n = nl.node_count() as u32;
        let split = seq_decomposition(&nl, n);
        // The same shape, but the inserted node also reads a primary
        // input the gate never read: a new edge, not a subdivision.
        let mut widen = split.clone();
        let leaves = nl.node(nl.find("G20").unwrap()).fanin().to_vec();
        let stranger = nl.inputs().iter().copied().find(|i| !leaves.contains(i));
        let PatchOp::AddGate { fanin, .. } = &mut widen.ops[0] else {
            unreachable!("the decomposition starts with an insertion")
        };
        fanin.push(stranger.unwrap());
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        eval.apply(&split).unwrap();
        let split_cost = eval.total_cost().to_bits();
        eval.rollback();
        // Every bound beats -inf: the subdivision is pruned and rolled
        // back without a trace.
        assert_eq!(eval.probe(&split, f64::NEG_INFINITY).unwrap(), None);
        assert!(eval.undo.is_none());
        assert_fresh(&mut eval, &nl, &[], &lib, &cfg);
        // A probe that can win stays applied with its exact cost.
        let scored = eval.probe(&split, f64::INFINITY).unwrap();
        assert_eq!(scored.map(f64::to_bits), Some(split_cost));
        assert!(eval.undo.is_some());
        assert_fresh(&mut eval, &nl, std::slice::from_ref(&split), &lib, &cfg);
        eval.rollback();
        // A new edge can shorten distances: the probe is refused.
        assert!(matches!(
            eval.probe(&widen, f64::NEG_INFINITY),
            Err(PatchError::NotASubdivision(_))
        ));
        assert_fresh(&mut eval, &nl, &[], &lib, &cfg);
    }

    #[test]
    fn rolled_back_probes_re_apply_from_their_kept_state() {
        // The search's winner pattern: probe two candidates on one
        // structure, roll both back, re-apply the first. The re-apply
        // copies the probe's state back instead of rescoring the
        // separation, on the ΔW path and on the full-refresh reference.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = crate::evaluator::tests::seq_circuit();
        let n = nl.node_count() as u32;
        let (split, balanced) = (seq_decomposition(&nl, n), seq_balanced(&nl, n));
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let patched = fresh_cost(&nl, std::slice::from_ref(&split), &lib, &cfg).to_bits();
        for mut eval in [ResynthEval::new(&ctx), ResynthEval::new_full_refresh(&ctx)] {
            let base = eval.total_cost().to_bits();
            // A pruned probe keeps nothing: the apply after it rescores.
            assert_eq!(eval.probe(&split, f64::NEG_INFINITY).unwrap(), None);
            assert!(eval.apply(&split).unwrap().separation_recomputed > 0);
            eval.rollback();
            assert!(eval.probe(&split, f64::INFINITY).unwrap().is_some());
            eval.rollback();
            assert!(eval.probe(&balanced, f64::INFINITY).unwrap().is_some());
            eval.rollback();
            // Replayed, rolled back and replayed again from the frame.
            for _ in 0..2 {
                assert_eq!(eval.apply(&split).unwrap().separation_recomputed, 0);
                assert_eq!(eval.total_cost().to_bits(), patched);
                eval.rollback();
                assert_eq!(eval.total_cost().to_bits(), base);
            }
            assert_eq!(eval.apply(&balanced).unwrap().separation_recomputed, 0);
            eval.rollback();
            eval.verify_consistency();
            assert_eq!(eval.apply(&split).unwrap().separation_recomputed, 0);
            eval.commit();
            assert_fresh(&mut eval, &nl, std::slice::from_ref(&split), &lib, &cfg);
        }
    }

    /// A region rewrite of the 2-input `gate`: an inverted AND of its
    /// fan-in inserted at ids `next`, `next + 1` and wired in as the
    /// gate's first input.
    fn rewrite(nl: &Netlist, gate: NodeId, next: u32) -> Patch {
        let leaves = nl.node(gate).fanin().to_vec();
        Patch {
            ops: vec![
                PatchOp::AddGate {
                    gate: NodeId(next),
                    kind: CellKind::And,
                    fanin: leaves.clone(),
                },
                PatchOp::AddGate {
                    gate: NodeId(next + 1),
                    kind: CellKind::Not,
                    fanin: vec![NodeId(next)],
                },
                PatchOp::SetFanin {
                    gate,
                    fanin: vec![NodeId(next + 1), leaves[1]],
                },
            ],
        }
    }

    /// The deferred-edit fixtures: a combinational and a sequential
    /// circuit, each with two 2-input combinational gates far apart in
    /// id order that have a combinational consumer.
    fn deferred_cases() -> Vec<(Netlist, NodeId, NodeId)> {
        [
            data::ripple_adder(6),
            crate::evaluator::tests::seq_circuit(),
        ]
        .into_iter()
        .map(|nl| {
            let two: Vec<NodeId> = nl
                .gate_ids()
                .filter(|&g| {
                    nl.node(g).fanin().len() == 2
                        && !nl.is_state_element(g)
                        && nl.fanout(g).iter().any(|&c| !nl.is_state_element(c))
                })
                .collect();
            let (a, b) = (two[0], two[two.len() - 1]);
            (nl, a, b)
        })
        .collect()
    }

    /// With no patch pending, every gate's pre-patch list read from the
    /// rows is its BFS list as a `(gate, distance)` set: `x` first at 0,
    /// then non-decreasing distances.
    fn assert_row_lists_match_bfs(eval: &mut ResynthEval<'_>) {
        assert!(eval.undo.is_none(), "the rows wait for the commit");
        for x in 0..eval.node_count() as u32 {
            if eval.kinds[x as usize].is_none() {
                continue;
            }
            let mut from_rows = eval.pre_patch_dist_list(x);
            assert_eq!(from_rows[0], (x, 0), "gate {x} leads its list");
            assert!(
                from_rows.windows(2).all(|w| w[0].1 <= w[1].1),
                "list of gate {x} out of distance order"
            );
            let mut bfs = eval.gate_dist_list(x);
            from_rows.sort_unstable();
            bfs.sort_unstable();
            assert_eq!(from_rows, bfs, "list of gate {x}");
        }
    }

    #[test]
    fn row_derived_lists_match_bfs_across_probes_rollbacks_and_commits() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        for (nl, a, b) in deferred_cases() {
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let mut eval = ResynthEval::new(&ctx);
            let n = nl.node_count() as u32;
            let (pa, pb) = (rewrite(&nl, a, n), rewrite(&nl, b, n + 2));
            assert_row_lists_match_bfs(&mut eval);
            // A scored probe rolled back, and a pruned one.
            assert!(eval.probe(&pa, f64::INFINITY).unwrap().is_some());
            eval.rollback();
            assert_row_lists_match_bfs(&mut eval);
            assert_eq!(eval.probe(&pa, f64::NEG_INFINITY).unwrap(), None);
            assert_row_lists_match_bfs(&mut eval);
            // A scored probe committed, a replay committed.
            assert!(eval.probe(&pa, f64::INFINITY).unwrap().is_some());
            eval.commit();
            assert_row_lists_match_bfs(&mut eval);
            assert!(eval.probe(&pb, f64::INFINITY).unwrap().is_some());
            eval.rollback();
            assert_eq!(eval.apply(&pb).unwrap().separation_recomputed, 0);
            eval.commit();
            assert_row_lists_match_bfs(&mut eval);
            assert_fresh(&mut eval, &nl, &[pa, pb], &lib, &cfg);
        }
    }

    #[test]
    fn avoid_bfs_results_are_not_reused_across_structures() {
        // Probe gate A, commit a rewrite of a gate B next to it (which
        // moves distances in A's neighbourhood), then probe A again: the
        // graph minus A changed, so the second probe must not reuse the
        // first one's avoid-X BFS results.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        for nl in [
            data::ripple_adder(6),
            crate::evaluator::tests::seq_circuit(),
        ] {
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let n = nl.node_count() as u32;
            let two = |g: NodeId| nl.node(g).fanin().len() == 2 && !nl.is_state_element(g);
            for a in nl.gate_ids().filter(|&g| two(g)) {
                let near = nl.node(a).fanin().iter().chain(nl.fanout(a));
                let Some(b) = near
                    .flat_map(|&m| nl.fanout(m).iter().copied().chain([m]))
                    .find(|&b| b != a && nl.is_gate(b) && two(b))
                else {
                    continue;
                };
                let mut inc = ResynthEval::new(&ctx);
                let mut full = ResynthEval::new_full_refresh(&ctx);
                let steps = [
                    (rewrite(&nl, a, n), false),
                    (rewrite(&nl, b, n), true),
                    (rewrite(&nl, a, n + 2), false),
                ];
                for (patch, keep) in &steps {
                    inc.apply(patch).unwrap();
                    full.apply(patch).unwrap();
                    assert_eq!(
                        inc.total_cost().to_bits(),
                        full.total_cost().to_bits(),
                        "{} gates {} and {}",
                        nl.name(),
                        a.0,
                        b.0
                    );
                    if *keep {
                        inc.commit();
                        full.commit();
                    } else {
                        inc.rollback();
                        full.rollback();
                    }
                }
                inc.verify_consistency();
            }
        }
    }

    #[test]
    fn probe_after_a_commit_rolls_back_to_the_commit() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        for (nl, a, b) in deferred_cases() {
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let mut eval = ResynthEval::new(&ctx);
            let n = nl.node_count() as u32;
            let pa = rewrite(&nl, a, n);
            eval.apply(&pa).unwrap();
            eval.commit();
            eval.apply(&rewrite(&nl, b, n + 2)).unwrap();
            eval.rollback();
            assert_fresh(&mut eval, &nl, std::slice::from_ref(&pa), &lib, &cfg);
        }
    }

    #[test]
    fn rolled_back_insertions_leave_no_stale_partners() {
        // A probe that inserts gates edits its fan-in gates' rows with
        // partners the rollback pops again; whether the consistency check
        // read the deferred edits in between or not, no row may keep such
        // a partner.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let mut probes: Vec<(Netlist, Patch)> = deferred_cases()
            .into_iter()
            .map(|(nl, a, _)| {
                let probe = rewrite(&nl, a, nl.node_count() as u32);
                (nl, probe)
            })
            .collect();
        let nl = crate::evaluator::tests::seq_circuit();
        let decomposition = seq_decomposition(&nl, nl.node_count() as u32);
        probes.push((nl, decomposition));
        for (nl, probe) in probes {
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let mut eval = ResynthEval::new(&ctx);
            for check in [true, false] {
                eval.apply(&probe).unwrap();
                if check {
                    eval.verify_consistency();
                }
                eval.rollback();
                let alive = eval.node_count() as u32;
                let rows = eval.rows.as_ref().unwrap();
                assert!(
                    rows.iter().flatten().all(|&(p, _)| p < alive),
                    "{} check={check}: a popped gate stayed a partner",
                    nl.name()
                );
                assert_fresh(&mut eval, &nl, &[], &lib, &cfg);
            }
        }
    }
}
