//! Structure-patched cost evaluation — resynthesis candidates scored by
//! patch instead of netlist rebuild.
//!
//! [`crate::Evaluated`] answers *"this partition, but with a gate moved"*
//! incrementally; [`ResynthEval`] answers *"this circuit, but with a
//! region rewritten"*. It owns a mutable mirror of the circuit structure
//! plus every structure-derived quantity the paper's cost function needs —
//! per-gate electrical rows, §3.1 transition-time sets, the §3.3
//! separation neighbour weights, topological levels and the nominal
//! critical path — and a [`Patch`] of gate edits (kind flips, rewires,
//! node insertion/removal, see [`iddq_netlist::patch`]) refreshes only the
//! state the edit actually dirtied:
//!
//! * **electrical rows** — a cell row depends only on `(kind, fan-in
//!   count)`, so edited and inserted gates re-derive their row from the
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
//!   after the edit, so one bounded BFS *per edited node* (instead of
//!   per ball gate) resolves every pair except the genuinely
//!   decremental ones (`d_old = d_oldX` and `d_newX > d_oldX`: the old
//!   shortest route crossed an edit and the detour got worse), whose
//!   endpoints fall back to one exact bounded BFS each. The original
//!   full ρ-ball re-derivation is retained behind
//!   [`ResynthEval::new_full_refresh`] as the differential reference,
//!   and the two are pinned bit-identical by proptests;
//! * **levels** — batched re-levelization with atomic cycle rejection,
//!   exactly like the logic-side `DeltaSim`.
//!
//! [`ResynthEval::total_cost`] then assembles the paper's single-module
//! cost (the partition-independent objective `iddq-synth` steers by)
//! through the *same* kernels `Evaluated` uses. The result is bit-exact
//! with the rebuild path — building the patched netlist via
//! [`iddq_netlist::patch::materialize`], running a fresh
//! [`EvalContext::new`] and scoring `Evaluated::new(…, single module)` —
//! because every derived quantity is a pure function of the structure and
//! both paths evaluate it with identical operation order. The proptests in
//! `iddq-synth` pin this equality down to the last bit, and the
//! `resynth_patch` bench section gates the speedup it buys.
//!
//! # Lifecycle
//!
//! [`ResynthEval::apply`] validates and applies a patch atomically (a
//! rejected patch leaves the evaluation untouched) and pushes an undo
//! frame: the structural inverse plus logs of the derived state the
//! apply overwrote. [`ResynthEval::rollback`] re-applies the inverse and
//! restores the derived state from those logs, bit-for-bit and in
//! O(changed entries): transition-time sets and neighbour weights from
//! value snapshots, near rows from an entry log of `(gate, partner,
//! previous distance)` on the incremental ΔW path, and from whole-row
//! snapshots on the ball refresh and for removals.
//!
//! The ΔW path's near-row edits are *deferred*. An apply updates the
//! neighbour weights (all the cost reads) at once, but parks its
//! symmetric row edits in its undo frame. The next apply or
//! [`ResynthEval::commit`] writes them into the rows (logging each
//! entry it overwrites); a rollback of a frame that was never flushed
//! just drops them. A probe that is scored and rolled back therefore
//! never touches a row. [`ResynthEval::commit`] makes the applied
//! patches permanent. The candidate-search pattern is apply → score →
//! rollback per losing candidate, commit for the winner.

use iddq_celllib::NodeTables;
use iddq_netlist::cone::DynamicCones;
use iddq_netlist::patch::{Patch, PatchError, PatchOp};
use iddq_netlist::{CellKind, NodeId, TimeSet};

use crate::context::EvalContext;
use crate::cost::CostBreakdown;
use crate::evaluator::{assemble_cost, degraded_weight, sensor_figures, ModuleStats};

/// One entry of the undo stack: the structural inverse plus snapshots of
/// the derived state the apply overwrote, so a rollback restores instead
/// of recomputing (the probe loops of `iddq-synth` roll back one patch
/// per candidate — making that O(changed) instead of O(dirty-region)
/// roughly halves the scoring cost).
#[derive(Debug)]
struct UndoFrame {
    inverse: Patch,
    /// `(node, previous set)` for every transition-time set the apply
    /// changed or popped, in change order.
    times_log: Vec<(u32, TimeSet)>,
    /// `(gate, previous weight)` for every separation weight the apply
    /// changed or popped.
    w_log: Vec<(u32, u64)>,
    /// `(gate, previous near row)` for every maintained ΔW row the full
    /// ball refresh rewrote or a removal popped (at most one entry per
    /// gate: the ball is deduplicated and a popped gate lies outside
    /// it). Empty on the incremental ΔW path and without maintained rows.
    row_log: Vec<(u32, Vec<(u32, u32)>)>,
    /// The incremental ΔW path's symmetric pair edits `(g, h, new
    /// distance)`, not yet written into the near rows. Only the top
    /// frame ever holds any: the next apply, a commit or a consistency
    /// check flushes them (see `flush_row_edits`), and a rollback of the
    /// unflushed frame just drops them.
    row_edits: Vec<(u32, u32, u32)>,
    /// `(gate, partner, previous distance)` for every near-row entry the
    /// flush of `row_edits` overwrote, in write order (`ρ` = absent).
    /// Each directed entry appears at most once: the pairs of one
    /// refresh are distinct.
    entry_log: Vec<(u32, u32, u32)>,
    /// The whole maintained-row table, when this apply was a bulk edit
    /// that evicted it instead of rebuilding per-gate rows it can never
    /// use incrementally (an O(1) move both ways — rollback restores
    /// it, commit drops it for good).
    rows_evicted: Option<Vec<Vec<(u32, u32)>>>,
    /// `Σ near_w` before the apply.
    sum_w_before: u64,
    /// The structure id before the apply (see `ResynthEval::structure_id`).
    structure_before: u64,
}

/// The separation dirty set of one apply, captured on the *pre-patch*
/// structure (the post-patch side is derived inside the refresh).
#[derive(Debug)]
enum SepDirty {
    /// Full path: the ρ−1-ball of the edited nodes before the patch;
    /// every gate in the union of this and the post-patch ball gets its
    /// neighbour weight re-derived by bounded BFS.
    Ball(Vec<u32>),
    /// Incremental ΔW path: for each edited node `x` (alive before the
    /// patch), the pre-patch `(gate, distance)` list of `x`'s ρ−1-ball —
    /// gates only, `x` itself at distance 0, sorted by distance. Only
    /// pairs whose shortest bounded path crosses an edited node are
    /// rescored.
    Dists(Vec<(u32, Vec<(u32, u32)>)>),
}

/// Edit-set ceiling of the incremental ΔW path. Pair enumeration costs
/// `O(pairs-through-X · |X|)` with the through-distance columns scanned
/// per pair, while the full ball refresh costs `O(|ball(X, ρ)| · BFS)`
/// — once a patch edits many nodes the balls overlap and the region
/// rebuild amortizes far better (a whole-netlist decomposition patch is
/// the extreme case). Eight keeps every local probe (gate decompose,
/// small buffer trees, rewires) on the incremental path and routes bulk
/// rewrites to the ball refresh.
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

/// Persistent buffers of the region-sized separation refresh (the
/// flat-CSR adjacency snapshot plus the epoch-stamped BFS scratch) —
/// kept on the evaluation so repeated whole-circuit probes reuse the
/// allocations instead of rebuilding them per apply.
#[derive(Debug, Default)]
struct RefreshScratch {
    adj_offsets: Vec<u32>,
    adj_pool: Vec<u32>,
    stamp: Vec<u64>,
    epoch: u64,
    queue: Vec<u32>,
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
/// use iddq_netlist::patch::{Patch, PatchOp};
/// use iddq_netlist::{data, CellKind};
///
/// let c17 = data::c17();
/// let lib = Library::generic_1um();
/// let ctx = EvalContext::new(&c17, &lib, PartitionConfig::paper_default());
/// let mut eval = ResynthEval::new(&ctx);
/// let base = eval.total_cost();
/// // Score "c17 with gate 22 turned into an AND" without a rebuild.
/// let g22 = c17.find("22").unwrap();
/// eval.apply(&Patch::single(PatchOp::SetKind { gate: g22, kind: CellKind::And }))
///     .unwrap();
/// let _mutated = eval.total_cost();
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
    /// Per-node electrical rows, maintained under kind/arity changes.
    tables: NodeTables,
    /// §3.1 transition-time sets, maintained by dirty-cone walks.
    times: Vec<TimeSet>,
    /// Per-gate `Σ (ρ − d)` neighbour weight (0 for primary inputs).
    near_w: Vec<u64>,
    /// Incrementally maintained near rows: for each gate, the
    /// `(partner gate, bounded distance)` list of its in-bound pairs
    /// (`1 ≤ d ≤ ρ−1`), sorted by partner id — the same shape as a
    /// [`iddq_netlist::separation::GateSeparationTable`] row with the
    /// weight written as a distance. The newest apply's ΔW edits may
    /// still wait in the top undo frame; every read of the rows happens
    /// after `flush_row_edits`. `None` disables incremental ΔW
    /// maintenance ([`ResynthEval::new_full_refresh`], or after a
    /// committed bulk edit evicted the table — rebuilt lazily by the
    /// next fast-path-eligible apply when `incremental` is set); rows
    /// for primary inputs are empty.
    rows: Option<Vec<Vec<(u32, u32)>>>,
    /// Whether incremental ΔW maintenance is wanted at all
    /// ([`ResynthEval::new`] vs [`ResynthEval::new_full_refresh`]). When
    /// set and a committed bulk edit has left `rows` as `None`, the
    /// table is rebuilt lazily (see `rebuild_rows`).
    incremental: bool,
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
    /// Undo frames (inverse patch + derived-state snapshots), innermost
    /// last.
    undo: Vec<UndoFrame>,
    /// Per-apply change logs, drained into the [`UndoFrame`] on success
    /// and discarded on rejection (the repair pass recomputes instead).
    times_log: Vec<(u32, TimeSet)>,
    w_log: Vec<(u32, u64)>,
    row_log: Vec<(u32, Vec<(u32, u32)>)>,
    row_edits: Vec<(u32, u32, u32)>,
    /// The row table taken out by a bulk-edit apply in flight, drained
    /// into the [`UndoFrame`] on success and restored on rejection.
    rows_evicted: Option<Vec<Vec<(u32, u32)>>>,
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
    // Scoring scratch (reused across `cost` calls).
    hist_cur: Vec<f64>,
    hist_cnt: Vec<u32>,
    weight: Vec<f64>,
    arr: Vec<f64>,
    /// Region-sized separation-refresh scratch (see [`RefreshScratch`]).
    refresh_scratch: RefreshScratch,
    /// Incremental ΔW refresh scratch (see [`DeltaScratch`]).
    delta_scratch: DeltaScratch,
}

impl<'a> ResynthEval<'a> {
    /// Mirrors the context's netlist and seeds every derived quantity from
    /// the context's precomputed analyses (no BFS, no sweep).
    ///
    /// The context needs the gate separation table but **not** the full
    /// oracle — an [`crate::context::AnalysisTier::GateSep`] build
    /// suffices and skips most of the analysis-construction cost (the
    /// costs produced on either tier are bit-identical, property-tested).
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
                    ctx.sep_table().near_weight(id)
                } else {
                    0
                }
            })
            .collect();
        let sum_w = near_w.iter().sum();
        let n = nl.node_count();
        let rho = ctx.config.rho;
        let rows = incremental.then(|| {
            let table = ctx.sep_table();
            debug_assert_eq!(table.rho(), rho, "table built at the configured ρ");
            nl.node_ids()
                .map(|id| {
                    if nl.is_gate(id) {
                        // Table entries carry the weight ρ − d; the
                        // maintained rows carry the distance d.
                        table.row(id).iter().map(|&(p, w)| (p, rho - w)).collect()
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
            tables: ctx.tables.clone(),
            times: ctx.times.clone(),
            near_w,
            rows,
            incremental,
            sum_w,
            structure_id: 0,
            last_structure_id: 0,
            gate_count: ctx.gates.len(),
            outputs: nl.outputs().iter().map(|o| o.0).collect(),
            undo: Vec::new(),
            times_log: Vec::new(),
            w_log: Vec::new(),
            row_log: Vec::new(),
            row_edits: Vec::new(),
            rows_evicted: None,
            order: Vec::new(),
            order_dirty: true,
            level_slots: Vec::new(),
            nominal_delay_ps: ctx.nominal_delay_ps,
            nominal_dirty: false,
            hist_cur: Vec::new(),
            hist_cnt: Vec::new(),
            weight: vec![0.0; n],
            arr: vec![0.0; n],
            refresh_scratch: RefreshScratch::default(),
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

    /// Number of applied-but-uncommitted patches on the undo stack.
    #[must_use]
    pub fn pending_patches(&self) -> usize {
        self.undo.len()
    }

    /// Applies a patch: structural edit, batched re-levelization, then a
    /// refresh of the dirtied derived state. The inverse lands on the
    /// undo stack.
    ///
    /// # Errors
    ///
    /// Returns a [`PatchError`] (evaluation unchanged) when an op targets
    /// a non-gate, uses an illegal arity or id, would create a cycle, or
    /// is a [`PatchOp::SetForce`] (no cost semantics).
    pub fn apply(&mut self, patch: &Patch) -> Result<PatchImpact, PatchError> {
        self.flush_row_edits();
        let sum_w_before = self.sum_w;
        self.times_log.clear();
        self.w_log.clear();
        self.row_log.clear();
        self.row_edits.clear();
        let (inverse, impact) = self.apply_inner(patch)?;
        self.undo.push(UndoFrame {
            inverse,
            times_log: std::mem::take(&mut self.times_log),
            w_log: std::mem::take(&mut self.w_log),
            row_log: std::mem::take(&mut self.row_log),
            row_edits: std::mem::take(&mut self.row_edits),
            entry_log: Vec::new(),
            rows_evicted: self.rows_evicted.take(),
            sum_w_before,
            structure_before: self.structure_id,
        });
        self.last_structure_id += 1;
        self.structure_id = self.last_structure_id;
        Ok(impact)
    }

    /// Writes the top frame's deferred ΔW pair edits into the near rows,
    /// both directions per pair, logging each overwritten entry into
    /// that frame so its rollback can restore it. Only survivors pay:
    /// a probe rolled back before the next apply never writes a row.
    fn flush_row_edits(&mut self) {
        let rho = self.ctx.config.rho;
        let Some(frame) = self.undo.last_mut() else {
            return;
        };
        if frame.row_edits.is_empty() {
            return;
        }
        let Some(rows) = self.rows.as_mut() else {
            unreachable!("deferred row edits imply maintained rows")
        };
        for (g, h, d) in std::mem::take(&mut frame.row_edits) {
            for (e, p) in [(g, h), (h, g)] {
                let prev = set_row_entry(&mut rows[e as usize], p, d, rho);
                frame.entry_log.push((e, p, prev));
            }
        }
    }

    /// Rolls the most recent uncommitted patch back: the structural
    /// inverse is re-applied and the derived state is *restored* from the
    /// frame's snapshots (bit-identical to the state before the matching
    /// apply, and O(changed entries) instead of a dirty-region
    /// recomputation).
    ///
    /// # Panics
    ///
    /// Panics if there is no patch to roll back.
    // Documented panic contract (empty undo stack); the recorded
    // inverse restores the exact prior structure by construction.
    #[allow(clippy::expect_used)]
    pub fn rollback(&mut self) -> PatchImpact {
        let rho = self.ctx.config.rho;
        let frame = self.undo.pop().expect("no patch to roll back");
        self.times_log.clear();
        self.w_log.clear();
        self.row_log.clear();
        self.apply_structure(&frame.inverse)
            .unwrap_or_else(|_| panic!("inverse of an accepted patch is always valid"));
        let relevel_seeds: Vec<u32> = frame
            .inverse
            .ops
            .iter()
            .filter(|op| matches!(op, PatchOp::SetFanin { .. }))
            .map(|op| op.gate().0)
            .filter(|&g| (g as usize) < self.kinds.len())
            .filter(|&g| self.cones.local_level(g as usize) != self.cones.level(g as usize))
            .collect();
        if !relevel_seeds.is_empty() {
            self.cones
                .relevel(&relevel_seeds)
                .expect("restoring the original levels cannot fail");
        }
        // Restore snapshots newest-first; entries for nodes the structural
        // revert popped again (insertions of the rolled-back patch) are
        // skipped.
        self.times_log.clear();
        self.w_log.clear();
        self.row_log.clear();
        let alive = self.kinds.len();
        let mut impact = PatchImpact::default();
        for (i, ts) in frame.times_log.into_iter().rev() {
            if (i as usize) < alive {
                self.times[i as usize] = ts;
                impact.times_visited += 1;
            }
        }
        for (g, w) in frame.w_log.into_iter().rev() {
            if (g as usize) < alive {
                self.near_w[g as usize] = w;
                impact.separation_recomputed += 1;
            }
        }
        if let Some(rows) = frame.rows_evicted {
            // A bulk apply parked the whole table untouched; moving it
            // back restores every row at once (its `row_log` is empty).
            self.rows = Some(rows);
        }
        if let Some(rows) = self.rows.as_mut() {
            // Unflushed `row_edits` never reached the rows and drop with
            // the frame. Flushed entries replay newest-first; only an
            // entry whose row *owner* the revert popped is skipped — one
            // whose partner was popped must still leave the owner's row.
            for (g, p, d) in frame.entry_log.into_iter().rev() {
                if (g as usize) < alive {
                    set_row_entry(&mut rows[g as usize], p, d, rho);
                }
            }
            for (g, row) in frame.row_log.into_iter().rev() {
                if (g as usize) < alive {
                    rows[g as usize] = row;
                }
            }
        }
        self.sum_w = frame.sum_w_before;
        self.structure_id = frame.structure_before;
        self.order_dirty = true;
        self.nominal_dirty = true;
        impact
    }

    /// Makes all applied patches permanent by clearing the undo stack
    /// (after writing the deferred row edits of the newest apply).
    pub fn commit(&mut self) {
        self.flush_row_edits();
        self.undo.clear();
    }

    fn apply_inner(&mut self, patch: &Patch) -> Result<(Patch, PatchImpact), PatchError> {
        let rho = self.ctx.config.rho;
        // Separation dirty set over the *pre-patch* graph: every pair
        // whose bounded distance the patch can move has a shortest route
        // through an edited node, so its endpoints sit in the edited
        // nodes' pre- or post-patch ρ−1-balls. The incremental ΔW path
        // captures per-edited-node distance lists (removals fall back to
        // the full ball — the popped gate's pairs all vanish at once and
        // the ball rebuild re-derives its partners' rows wholesale).
        let mut old_seeds: Vec<u32> = patch
            .ops
            .iter()
            .filter(|op| op.changes_adjacency())
            .map(|op| op.gate().0)
            .filter(|&g| (g as usize) < self.kinds.len())
            .collect();
        old_seeds.sort_unstable();
        old_seeds.dedup();
        let adds = patch
            .ops
            .iter()
            .filter(|op| matches!(op, PatchOp::AddGate { .. }))
            .count();
        let wants_fast = old_seeds.len() + adds <= DELTA_SEP_MAX_EDITS
            && !patch
                .ops
                .iter()
                .any(|op| matches!(op, PatchOp::RemoveGate { .. }));
        // Lazy recovery from a *committed* bulk edit. While bulk
        // candidates come and go uncommitted, the parked table returns on
        // rollback for free and rebuilding here would only waste the next
        // eviction; but once such an edit is committed nothing restores
        // the table, and without this every later apply pays the full
        // ball refresh forever. Rebuild from the current structure
        // exactly when the next fast-path-eligible edit arrives — one
        // bounded BFS per gate, amortized over every small apply after.
        if wants_fast && self.incremental && self.rows.is_none() && self.undo.is_empty() {
            self.rebuild_rows();
        }
        let fast = self.rows.is_some() && wants_fast;
        let dirty = if fast {
            SepDirty::Dists(
                old_seeds
                    .iter()
                    .map(|&x| (x, self.gate_dist_list(x)))
                    .collect(),
            )
        } else {
            let ball = self
                .cones
                .undirected_ball(&old_seeds, rho.saturating_sub(1));
            // A region-sized edit rebuilds nearly every row only to throw
            // the table away on the next bulk candidate — evict it
            // wholesale instead (O(1) move into the undo frame, restored
            // on rollback) and let the ball refresh skip row maintenance
            // entirely. After a *commit* of such a patch `rows` stays
            // `None` until the next fast-path-eligible apply rebuilds it
            // lazily (see above); a run of committed bulk edits never
            // pays a rebuild in between.
            if ball.len() * 8 > self.kinds.len() {
                self.rows_evicted = self.rows.take();
            }
            SepDirty::Ball(ball)
        };

        let inverse = match self.apply_structure(patch) {
            Ok(inverse) => inverse,
            Err((e, _reverted_prefix)) => {
                // Mid-patch validation failure: the structural prefix was
                // already reverted by `apply_structure`; repair the
                // derived state (deterministic recomputation over the
                // restored structure reproduces the original values — on
                // the ΔW path the re-derived distance lists equal the
                // captured ones, so no pair moves). An evicted row table
                // moves straight back: the structure is unchanged, so it
                // is still exact.
                self.refresh(patch, &dirty);
                if let Some(rows) = self.rows_evicted.take() {
                    self.rows = Some(rows);
                }
                return Err(e);
            }
        };
        // Batched re-levelization, seeded by the rewired gates whose local
        // level moved (the airtight cycle prune, as in `DeltaSim`).
        let relevel_seeds: Vec<u32> = patch
            .ops
            .iter()
            .filter(|op| matches!(op, PatchOp::SetFanin { .. }))
            .map(|op| op.gate().0)
            .filter(|&g| (g as usize) < self.kinds.len())
            .filter(|&g| self.cones.local_level(g as usize) != self.cones.level(g as usize))
            .collect();
        if !relevel_seeds.is_empty() {
            if let Err(on) = self.cones.relevel(&relevel_seeds) {
                // Cycle: levels untouched (atomic relevel); revert the
                // structural edit and repair derived state (the evicted
                // row table, if any, is still exact — see above).
                self.apply_structure(&inverse)
                    .unwrap_or_else(|_| panic!("re-applying an inverse cannot fail"));
                self.refresh(patch, &dirty);
                if let Some(rows) = self.rows_evicted.take() {
                    self.rows = Some(rows);
                }
                return Err(PatchError::Cycle(NodeId(on)));
            }
        }
        let impact = self.refresh(patch, &dirty);
        Ok((inverse, impact))
    }

    /// Rebuilds the maintained ΔW row table from the current structure:
    /// one bounded BFS per gate, each row sorted by partner id — the
    /// exact shape `verify_consistency` pins the maintained rows
    /// against. Called lazily after a committed bulk edit evicted the
    /// table (never while speculative bulk candidates are in flight).
    fn rebuild_rows(&mut self) {
        let rho = self.ctx.config.rho;
        let n = self.kinds.len();
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let ResynthEval {
            ref mut cones,
            ref kinds,
            ..
        } = *self;
        for (g, row) in rows.iter_mut().enumerate() {
            if kinds[g].is_none() {
                continue;
            }
            cones.bounded_bfs(g as u32, rho.saturating_sub(1), |p, d| {
                if kinds[p as usize].is_some() {
                    row.push((p, d));
                }
            });
            row.sort_unstable();
        }
        self.rows = Some(rows);
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

    /// Applies the structural ops in order, returning the inverse patch.
    /// On mid-patch validation failure the already-applied prefix is
    /// reverted (structure only — the caller repairs derived state) and
    /// the inverse of that reverted prefix is returned alongside the
    /// error.
    #[allow(clippy::result_large_err)]
    fn apply_structure(&mut self, patch: &Patch) -> Result<Patch, (PatchError, Patch)> {
        let mut inverse: Vec<PatchOp> = Vec::with_capacity(patch.ops.len());
        for op in &patch.ops {
            if let Err(e) = self.validate_op(op) {
                for inv in inverse.iter().rev() {
                    self.apply_op(inv);
                }
                return Err((e, Patch { ops: inverse }));
            }
            inverse.push(self.apply_op(op));
        }
        inverse.reverse();
        Ok(Patch { ops: inverse })
    }

    fn validate_op(&self, op: &PatchOp) -> Result<(), PatchError> {
        let gate = op.gate();
        let gi = gate.index();
        match op {
            PatchOp::SetForce { .. } => Err(PatchError::Unsupported(
                "value forces have no cost semantics",
            )),
            PatchOp::AddGate { kind, fanin, .. } => {
                let expected = self.kinds.len() as u32;
                if gate.0 != expected {
                    return Err(PatchError::NotAppend { gate, expected });
                }
                if !kind.accepts_fanin(fanin.len()) {
                    return Err(PatchError::BadArity {
                        gate,
                        kind: *kind,
                        got: fanin.len(),
                    });
                }
                for &f in fanin {
                    if f.index() >= self.kinds.len() {
                        return Err(PatchError::UnknownNode(f));
                    }
                }
                Ok(())
            }
            PatchOp::SetKind { kind, .. } => {
                self.gate_kind(gate)?;
                let arity = self.cones.fanin(gi).len();
                if !kind.accepts_fanin(arity) {
                    return Err(PatchError::BadArity {
                        gate,
                        kind: *kind,
                        got: arity,
                    });
                }
                Ok(())
            }
            PatchOp::SetFanin { fanin, .. } => {
                let kind = self.gate_kind(gate)?;
                if !kind.accepts_fanin(fanin.len()) {
                    return Err(PatchError::BadArity {
                        gate,
                        kind,
                        got: fanin.len(),
                    });
                }
                for &f in fanin {
                    if f.index() >= self.kinds.len() {
                        return Err(PatchError::UnknownNode(f));
                    }
                }
                Ok(())
            }
            PatchOp::RemoveGate { .. } => {
                let _ = self.gate_kind(gate)?;
                // A primary output is load-bearing even with no gate
                // consumers: removal would leave a dangling output id.
                if gi + 1 != self.kinds.len()
                    || !self.cones.fanout(gi).is_empty()
                    || self.outputs.contains(&gate.0)
                {
                    return Err(PatchError::NotRemovable(gate));
                }
                Ok(())
            }
        }
    }

    fn gate_kind(&self, gate: NodeId) -> Result<CellKind, PatchError> {
        let gi = gate.index();
        if gi >= self.kinds.len() {
            return Err(PatchError::UnknownNode(gate));
        }
        self.kinds[gi].ok_or(PatchError::NotAGate(gate))
    }

    /// Applies one validated op (structure + electrical row + placeholder
    /// growth of the derived vectors), returning its inverse.
    // Ops reach here only after validation, so gate slots are
    // populated and the parallel arrays stay aligned.
    #[allow(clippy::expect_used)]
    fn apply_op(&mut self, op: &PatchOp) -> PatchOp {
        match op {
            PatchOp::SetKind { gate, kind } => {
                let gi = gate.index();
                let old = self.kinds[gi].expect("validated as gate");
                self.kinds[gi] = Some(*kind);
                self.set_table_row(gi);
                PatchOp::SetKind {
                    gate: *gate,
                    kind: old,
                }
            }
            PatchOp::SetFanin { gate, fanin } => {
                let gi = gate.index();
                let new: Vec<u32> = fanin.iter().map(|f| f.0).collect();
                let old = self.cones.set_fanin(gi, &new);
                if old.len() != new.len() {
                    // The cell row is keyed by (kind, arity).
                    self.set_table_row(gi);
                }
                PatchOp::SetFanin {
                    gate: *gate,
                    fanin: old.into_iter().map(NodeId).collect(),
                }
            }
            PatchOp::AddGate { gate, kind, fanin } => {
                let list: Vec<u32> = fanin.iter().map(|f| f.0).collect();
                self.kinds.push(Some(*kind));
                self.cones.push_node(&list);
                self.push_table_row();
                self.set_table_row(gate.index());
                self.times.push(TimeSet::new());
                self.near_w.push(0);
                if let Some(rows) = self.rows.as_mut() {
                    rows.push(Vec::new());
                }
                self.gate_count += 1;
                self.weight.push(0.0);
                self.arr.push(0.0);
                PatchOp::RemoveGate { gate: *gate }
            }
            PatchOp::RemoveGate { gate } => {
                let kind = self.kinds.pop().flatten().expect("validated gate");
                let fanin = self.cones.pop_node();
                self.pop_table_row();
                let popped_times = self.times.pop().expect("aligned");
                self.times_log.push((gate.0, popped_times));
                // Partner weights in the ball are re-derived by `refresh`;
                // the popped gate's own weight leaves the sum here (and
                // lands in the log so a rollback can restore it).
                let popped_w = self.near_w.pop().expect("aligned");
                self.sum_w -= popped_w;
                self.w_log.push((gate.0, popped_w));
                if let Some(rows) = self.rows.as_mut() {
                    let popped_row = rows.pop().expect("aligned");
                    self.row_log.push((gate.0, popped_row));
                }
                self.gate_count -= 1;
                self.weight.pop();
                self.arr.pop();
                PatchOp::AddGate {
                    gate: *gate,
                    kind,
                    fanin: fanin.into_iter().map(NodeId).collect(),
                }
            }
            PatchOp::SetForce { .. } => unreachable!("rejected by validation"),
        }
    }

    /// Re-derives the electrical row of gate `i` from the library — the
    /// same lookup [`NodeTables::new`] performs, so rows stay bit-exact
    /// with a rebuilt context.
    // Only called for validated gate indices.
    #[allow(clippy::expect_used)]
    fn set_table_row(&mut self, i: usize) {
        let kind = self.kinds[i].expect("gates only");
        let cell = self.ctx.library.cell(kind, self.cones.fanin(i).len());
        let t = &mut self.tables;
        t.delay_ps[i] = cell.delay_ps;
        t.grid_delay[i] = self.ctx.technology.to_grid(cell.delay_ps);
        t.peak_current_ua[i] = cell.peak_current_ua;
        t.r_on_kohm[i] = cell.r_on_kohm;
        t.c_out_ff[i] = cell.c_out_ff;
        t.c_rail_ff[i] = cell.c_rail_ff;
        t.leakage_na[i] = cell.leakage_na;
        t.area[i] = cell.area;
    }

    fn push_table_row(&mut self) {
        let t = &mut self.tables;
        t.delay_ps.push(0.0);
        t.grid_delay.push(0);
        t.peak_current_ua.push(0.0);
        t.r_on_kohm.push(0.0);
        t.c_out_ff.push(0.0);
        t.c_rail_ff.push(0.0);
        t.leakage_na.push(0.0);
        t.area.push(0.0);
    }

    fn pop_table_row(&mut self) {
        let t = &mut self.tables;
        t.delay_ps.pop();
        t.grid_delay.pop();
        t.peak_current_ua.pop();
        t.r_on_kohm.pop();
        t.c_out_ff.pop();
        t.c_rail_ff.pop();
        t.leakage_na.pop();
        t.area.pop();
    }

    /// Refreshes the structure-derived state the (applied or reverted)
    /// ops may have dirtied: transition-time sets through a dirty-cone
    /// walk, separation state through the captured [`SepDirty`] (the
    /// incremental ΔW pair rescoring, or the full ρ-ball bounded-BFS
    /// re-derivation), and the lazy order/nominal-delay flags.
    fn refresh(&mut self, patch: &Patch, sep: &SepDirty) -> PatchImpact {
        let alive = self.kinds.len();
        // --- transition times -------------------------------------------
        let time_seeds: Vec<u32> = patch
            .ops
            .iter()
            .map(|op| op.gate().0)
            .filter(|&g| (g as usize) < alive)
            .collect();
        let ResynthEval {
            ref mut cones,
            ref mut times,
            ref mut times_log,
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
                times_log.push((i as u32, std::mem::replace(&mut times[i], acc)));
                true
            }
        });
        // --- separation -------------------------------------------------
        let separation_recomputed = match sep {
            SepDirty::Ball(old_ball) => self.refresh_separation_full(patch, old_ball),
            SepDirty::Dists(old) => self.refresh_separation_delta(patch, old),
        };
        self.order_dirty = true;
        self.nominal_dirty = true;
        PatchImpact {
            times_visited,
            separation_recomputed,
        }
    }

    /// The full separation refresh: every gate in the union of the pre-
    /// and post-patch ρ−1-balls of the edited nodes gets its neighbour
    /// weight (and, when maintained, its near row) re-derived by bounded
    /// BFS. Returns the number of gates re-derived.
    fn refresh_separation_full(&mut self, patch: &Patch, old_ball: &[u32]) -> usize {
        let rho = self.ctx.config.rho;
        let alive = self.kinds.len();
        let new_seeds: Vec<u32> = patch
            .ops
            .iter()
            .filter(|op| op.changes_adjacency())
            .map(|op| op.gate().0)
            .filter(|&g| (g as usize) < alive)
            .collect();
        let mut ball = self
            .cones
            .undirected_ball(&new_seeds, rho.saturating_sub(1));
        ball.extend(old_ball.iter().copied().filter(|&g| (g as usize) < alive));
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
            ref mut refresh_scratch,
            ..
        } = *self;
        let mut rows = rows.as_mut();
        let track_rows = rows.is_some();
        let mut row_buf: Vec<(u32, u32)> = Vec::new();
        let mut separation_recomputed = 0usize;
        let mut store = |g: u32, w: u64| {
            let old = near_w[g as usize];
            if w != old {
                w_log.push((g, old));
                *sum_w += w;
                *sum_w -= old;
                near_w[g as usize] = w;
            }
        };
        // Commits the rebuilt row of one ball gate (ball gates are
        // deduped, so each gets at most one log entry per apply).
        let mut commit_row =
            |g: u32, row_buf: &mut Vec<(u32, u32)>, row_log: &mut Vec<(u32, Vec<(u32, u32)>)>| {
                if let Some(rows) = rows.as_deref_mut() {
                    row_buf.sort_unstable();
                    if rows[g as usize] != *row_buf {
                        let old = std::mem::replace(&mut rows[g as usize], row_buf.clone());
                        row_log.push((g, old));
                    }
                }
            };
        if ball.len() * 8 > alive {
            // Region-sized edit (the whole-circuit candidates of
            // `cost_aware` re-derive nearly every gate): flatten the
            // patched adjacency into one CSR snapshot first, so the
            // per-gate bounded BFS runs over contiguous arrays instead
            // of chasing one heap allocation per neighbour list. The
            // weights are plain sums, so this path is bit-identical to
            // the per-gate walk below. The snapshot content is per-patch
            // (the structure just changed) but the buffers persist on
            // the evaluation, so repeated probes don't reallocate.
            let RefreshScratch {
                ref mut adj_offsets,
                ref mut adj_pool,
                ref mut stamp,
                ref mut epoch,
                ref mut queue,
            } = *refresh_scratch;
            adj_offsets.clear();
            adj_offsets.push(0);
            adj_pool.clear();
            for i in 0..alive {
                adj_pool.extend_from_slice(cones.fanin(i));
                adj_pool.extend_from_slice(cones.fanout(i));
                adj_offsets.push(adj_pool.len() as u32);
            }
            stamp.resize(alive, 0);
            for &g in &ball {
                if kinds[g as usize].is_none() {
                    continue;
                }
                *epoch += 1;
                stamp[g as usize] = *epoch;
                queue.clear();
                queue.push(g);
                let (mut head, mut tail) = (0usize, 1usize);
                let mut d = 0u32;
                let mut w = 0u64;
                row_buf.clear();
                while d + 1 < rho && head < tail {
                    d += 1;
                    for k in head..tail {
                        let u = queue[k] as usize;
                        for &v in &adj_pool[adj_offsets[u] as usize..adj_offsets[u + 1] as usize] {
                            if stamp[v as usize] != *epoch {
                                stamp[v as usize] = *epoch;
                                queue.push(v);
                                if kinds[v as usize].is_some() {
                                    w += u64::from(rho - d);
                                    if track_rows {
                                        row_buf.push((v, d));
                                    }
                                }
                            }
                        }
                    }
                    head = tail;
                    tail = queue.len();
                }
                store(g, w);
                commit_row(g, &mut row_buf, row_log);
                separation_recomputed += 1;
            }
        } else {
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
                store(g, w);
                commit_row(g, &mut row_buf, row_log);
                separation_recomputed += 1;
            }
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
        // Edited nodes alive after the patch (insertions included —
        // removals never reach this path).
        let mut xs: Vec<u32> = patch
            .ops
            .iter()
            .filter(|op| op.changes_adjacency())
            .map(|op| op.gate().0)
            .filter(|&g| (g as usize) < alive)
            .collect();
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
                    .unwrap_or_else(|_| unreachable!("pre-patch edits stay edited (no removals)"));
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

    /// Latest fan-in arrival of node `i` in the `arr` scratch. A DFF
    /// launches a fresh path at the frame boundary (its D edge belongs to
    /// the previous frame), as in
    /// [`iddq_netlist::levelize::longest_path`]; reading its D driver
    /// would pick up that driver's arrival from the previous sweep.
    fn fanin_arrival(&self, i: usize) -> f64 {
        if is_source(self.kinds[i]) {
            return 0.0;
        }
        self.cones
            .fanin(i)
            .iter()
            .map(|&f| self.arr[f as usize])
            .fold(0.0f64, f64::max)
    }

    /// Rebuilds the lazy (level, id)-sorted topological order and the
    /// nominal critical-path delay when stale.
    fn settle_structure(&mut self) {
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
        if self.nominal_dirty {
            for &i in &self.order {
                let i = i as usize;
                self.arr[i] = self.fanin_arrival(i) + self.tables.delay_ps[i];
            }
            self.nominal_delay_ps = self
                .outputs
                .iter()
                .map(|&o| self.arr[o as usize])
                .fold(0.0f64, f64::max);
            self.nominal_dirty = false;
        }
    }

    /// Full cost breakdown of the current (patched) structure as one
    /// module — bit-exact with `Evaluated::new(&EvalContext::new(
    /// materialized, …), single module).cost()`.
    pub fn cost(&mut self) -> CostBreakdown {
        self.settle_structure();
        let n = self.kinds.len();
        // Histogram horizon: one past the largest transition time.
        let horizon = self
            .times
            .iter()
            .filter_map(TimeSet::max)
            .max()
            .map_or(1, |t| t as usize + 1);
        self.hist_cur.clear();
        self.hist_cur.resize(horizon, 0.0);
        self.hist_cnt.clear();
        self.hist_cnt.resize(horizon, 0);
        let mut leakage_na = 0.0f64;
        let mut rail_cap_ff = 0.0f64;
        let mut cell_area = 0.0f64;
        for i in 0..n {
            if self.kinds[i].is_none() {
                continue;
            }
            for t in self.times[i].iter() {
                self.hist_cur[t as usize] += self.tables.peak_current_ua[i];
                self.hist_cnt[t as usize] += 1;
            }
            leakage_na += self.tables.leakage_na[i];
            rail_cap_ff += self.tables.c_rail_ff[i];
            cell_area += self.tables.area[i];
        }
        let pairs = (self.gate_count as u64) * (self.gate_count as u64 - 1) / 2;
        debug_assert_eq!(self.sum_w % 2, 0, "neighbour weights are symmetric");
        let separation = u64::from(self.ctx.config.rho) * pairs - self.sum_w / 2;
        let stats = ModuleStats {
            current_hist: Vec::new(),
            count_hist: Vec::new(),
            peak_current_ua: self.hist_cur.iter().copied().fold(0.0, f64::max),
            peak_activity: self.hist_cnt.iter().copied().max().unwrap_or(0),
            leakage_na,
            rail_cap_ff,
            cell_area,
            separation,
        };
        let sens = sensor_figures(self.ctx, &stats);
        // Degraded longest path over the current structure: one weight
        // pass plus one level-ordered arrival sweep.
        for i in 0..n {
            self.weight[i] = match self.kinds[i] {
                Some(_) => degraded_weight(
                    self.tables.delay_ps[i],
                    self.tables.r_on_kohm[i],
                    self.tables.c_out_ff[i],
                    &stats,
                    &sens,
                ),
                None => 0.0,
            };
        }
        for &i in &self.order {
            let i = i as usize;
            self.arr[i] = self.fanin_arrival(i) + self.weight[i];
        }
        let dbic_ps = self
            .outputs
            .iter()
            .map(|&o| self.arr[o as usize])
            .fold(0.0f64, f64::max);
        // The `arr` scratch now holds degraded arrivals; the nominal sweep
        // in `settle_structure` rewrites it next time, keyed by
        // `nominal_dirty`.
        self.nominal_dirty = true;
        assemble_cost(
            1,
            sens.violations,
            0.0 + sens.area,
            separation,
            0.0f64.max(sens.delta_ps),
            dbic_ps,
            self.nominal_delay_ps,
        )
    }

    /// Weighted scalar cost of the current structure (the resynthesis
    /// objective).
    #[must_use]
    pub fn total_cost(&mut self) -> f64 {
        self.cost()
            .total(&self.ctx.config.weights, self.ctx.config.violation_penalty)
    }

    /// Recomputes every derived quantity from scratch and asserts it
    /// matches the incrementally maintained state — the correctness
    /// oracle for tests.
    ///
    /// # Panics
    ///
    /// Panics if any maintained quantity drifted from the ground truth.
    pub fn verify_consistency(&mut self) {
        self.flush_row_edits();
        self.settle_structure();
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
            ..
        } = *self;
        if let Some(rows) = rows.as_ref() {
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

/// Writes one `(partner, distance)` entry of a maintained near row:
/// insert or update when `d` is in bound, remove when the pair left the
/// bound. Returns the entry's previous distance (`ρ` when absent).
fn set_row_entry(row: &mut Vec<(u32, u32)>, partner: u32, d: u32, rho: u32) -> u32 {
    match row.binary_search_by_key(&partner, |e| e.0) {
        Ok(i) => {
            let prev = row[i].1;
            if d >= rho {
                row.remove(i);
            } else {
                row[i].1 = d;
            }
            prev
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
            rho
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
    use iddq_netlist::{data, Netlist};

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
    fn kind_flip_matches_rebuild_and_rolls_back() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let base = eval.total_cost();
        let patch = Patch::single(PatchOp::SetKind {
            gate: nl.find("22").unwrap(),
            kind: CellKind::And,
        });
        eval.apply(&patch).unwrap();
        eval.verify_consistency();
        let patched = eval.total_cost();
        let oracle = rebuild_cost(&materialize(&nl, &patch).unwrap(), &lib, &cfg);
        assert_eq!(patched.to_bits(), oracle.to_bits());
        eval.rollback();
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
        eval.verify_consistency();
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

    #[test]
    fn rejected_patches_leave_the_evaluation_untouched() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let base = eval.total_cost();
        let g10 = nl.find("10").unwrap();
        let g22 = nl.find("22").unwrap();
        // Cycle.
        let err = eval
            .apply(&Patch::single(PatchOp::SetFanin {
                gate: g10,
                fanin: vec![g22, nl.find("3").unwrap()],
            }))
            .unwrap_err();
        assert!(matches!(err, PatchError::Cycle(_)));
        // Mid-patch failure after an insertion.
        let err = eval
            .apply(&Patch {
                ops: vec![
                    PatchOp::AddGate {
                        gate: NodeId(nl.node_count() as u32),
                        kind: CellKind::Not,
                        fanin: vec![g10],
                    },
                    PatchOp::SetKind {
                        gate: g10,
                        kind: CellKind::Not,
                    },
                ],
            })
            .unwrap_err();
        assert!(matches!(err, PatchError::BadArity { .. }));
        // Forces are rejected outright.
        let err = eval
            .apply(&Patch::single(PatchOp::SetForce {
                node: g10,
                force: Some(true),
            }))
            .unwrap_err();
        assert!(matches!(err, PatchError::Unsupported(_)));
        // The tail node 23 is a consumer-free gate, but it is a primary
        // output: popping it would dangle the output list.
        let tail = NodeId(nl.node_count() as u32 - 1);
        assert!(nl.outputs().contains(&tail));
        let err = eval
            .apply(&Patch::single(PatchOp::RemoveGate { gate: tail }))
            .unwrap_err();
        assert!(matches!(err, PatchError::NotRemovable(_)));
        assert_eq!(eval.node_count(), nl.node_count());
        assert_eq!(eval.pending_patches(), 0);
        eval.verify_consistency();
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
    }

    #[test]
    fn stacked_patches_roll_back_in_order() {
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = data::ripple_adder(4);
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let base = eval.total_cost();
        let gates: Vec<NodeId> = nl.gate_ids().collect();
        eval.apply(&Patch::single(PatchOp::AddGate {
            gate: NodeId(nl.node_count() as u32),
            kind: CellKind::Nand,
            fanin: vec![gates[0], gates[1]],
        }))
        .unwrap();
        let after_first = eval.total_cost();
        eval.apply(&Patch::single(PatchOp::SetKind {
            gate: gates[2],
            kind: CellKind::Nor,
        }))
        .unwrap();
        eval.rollback();
        assert_eq!(eval.total_cost().to_bits(), after_first.to_bits());
        eval.rollback();
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
        eval.verify_consistency();
    }

    #[test]
    fn remove_gate_routes_through_full_refresh_and_keeps_rows() {
        // A patch containing a removal falls back to the full ρ-ball
        // refresh, which must keep the maintained ΔW rows in sync (the
        // popped gate vanishes from every partner row).
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = data::ripple_adder(4);
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let base = eval.total_cost();
        let some_gate = nl.gate_ids().next().unwrap();
        let tail = NodeId(nl.node_count() as u32);
        eval.apply(&Patch::single(PatchOp::AddGate {
            gate: tail,
            kind: CellKind::Not,
            fanin: vec![some_gate],
        }))
        .unwrap();
        eval.verify_consistency();
        let grown = eval.total_cost();
        eval.apply(&Patch::single(PatchOp::RemoveGate { gate: tail }))
            .unwrap();
        eval.verify_consistency();
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
        eval.rollback();
        eval.verify_consistency();
        assert_eq!(eval.total_cost().to_bits(), grown.to_bits());
        eval.rollback();
        eval.verify_consistency();
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
    }

    #[test]
    fn distance_increasing_rewire_matches_rebuild_bitwise() {
        // Rewiring a gate away from its neighbourhood lengthens pairs
        // whose shortest route crossed it — the ambiguous case of the ΔW
        // classification, resolved by per-endpoint BFS fallbacks.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = data::ripple_adder(6);
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let base = eval.total_cost();
        let inputs = nl.inputs().to_vec();
        let gate = nl
            .gate_ids()
            .filter(|&g| nl.node(g).fanin().len() == 2)
            .last()
            .unwrap();
        let patch = Patch::single(PatchOp::SetFanin {
            gate,
            fanin: vec![inputs[0], inputs[1]],
        });
        eval.apply(&patch).unwrap();
        eval.verify_consistency();
        let patched = eval.total_cost();
        let oracle = rebuild_cost(&materialize(&nl, &patch).unwrap(), &lib, &cfg);
        assert_eq!(patched.to_bits(), oracle.to_bits());
        eval.rollback();
        eval.verify_consistency();
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
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
                    fanin: vec![NodeId(next), leaves[2]],
                },
                PatchOp::SetFanin {
                    gate,
                    fanin: vec![NodeId(next + 1), leaves[3]],
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
        let patch = Patch::single(PatchOp::SetKind {
            gate: nl.find("16").unwrap(),
            kind: CellKind::And,
        });
        eval.apply(&patch).unwrap();
        let patched = eval.total_cost();
        eval.commit();
        assert_eq!(eval.pending_patches(), 0);
        assert_eq!(eval.total_cost().to_bits(), patched.to_bits());
    }

    #[test]
    fn committed_bulk_edit_rebuilds_rows_lazily() {
        // A removal always routes through the ball refresh, and on c17
        // the ball covers most of the circuit, so the maintained ΔW row
        // table is evicted; once that patch is *committed* nothing
        // restores the table. The next fast-path-eligible apply must
        // rebuild it lazily and land back on the incremental path,
        // bit-identical to a from-scratch rebuild of the same structure.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        let some_gate = nl.gate_ids().next().unwrap();
        let tail = NodeId(nl.node_count() as u32);
        eval.apply(&Patch::single(PatchOp::AddGate {
            gate: tail,
            kind: CellKind::Not,
            fanin: vec![some_gate],
        }))
        .unwrap();
        eval.commit();
        eval.apply(&Patch::single(PatchOp::RemoveGate { gate: tail }))
            .unwrap();
        assert!(
            eval.rows.is_none(),
            "a region-sized removal evicts the row table"
        );
        eval.commit();
        assert!(
            eval.rows.is_none(),
            "commit makes the eviction permanent until the next small apply"
        );
        // Structure is back to the original c17, so original-netlist
        // oracles apply. The next small edit rebuilds the table lazily.
        let patch = Patch::single(PatchOp::SetKind {
            gate: nl.find("22").unwrap(),
            kind: CellKind::And,
        });
        eval.apply(&patch).unwrap();
        assert!(
            eval.rows.is_some(),
            "a fast-path-eligible apply rebuilds the evicted table"
        );
        eval.verify_consistency();
        let oracle = rebuild_cost(&materialize(&nl, &patch).unwrap(), &lib, &cfg);
        assert_eq!(eval.total_cost().to_bits(), oracle.to_bits());
        eval.rollback();
        eval.verify_consistency();
        let base = rebuild_cost(&nl, &lib, &cfg);
        assert_eq!(eval.total_cost().to_bits(), base.to_bits());
        // The full-refresh reference opts out of rows entirely: no lazy
        // rebuild may ever sneak the incremental path back in.
        let mut full = ResynthEval::new_full_refresh(&ctx);
        full.apply(&patch).unwrap();
        full.commit();
        full.apply(&Patch::single(PatchOp::SetKind {
            gate: nl.find("16").unwrap(),
            kind: CellKind::Nand,
        }))
        .unwrap();
        assert!(full.rows.is_none(), "full-refresh reference stays rowless");
        assert_eq!(
            eval.total_cost().to_bits(),
            ResynthEval::new(&ctx).total_cost().to_bits()
        );
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

    #[test]
    fn flushed_frames_roll_back_in_order() {
        // Apply A, apply B (which flushes A's deferred row edits), then
        // roll back B (its edits never reached the rows) and A (its
        // flushed entries replay).
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        for (nl, a, b) in deferred_cases() {
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let mut eval = ResynthEval::new(&ctx);
            let n = nl.node_count() as u32;
            let (pa, pb) = (rewrite(&nl, a, n), rewrite(&nl, b, n + 2));
            eval.apply(&pa).unwrap();
            eval.apply(&pb).unwrap();
            assert_eq!(
                eval.total_cost().to_bits(),
                fresh_cost(&nl, &[pa.clone(), pb], &lib, &cfg).to_bits()
            );
            eval.rollback();
            assert_fresh(&mut eval, &nl, std::slice::from_ref(&pa), &lib, &cfg);
            eval.rollback();
            assert_fresh(&mut eval, &nl, &[], &lib, &cfg);
        }
    }

    #[test]
    fn overlapping_stacked_probes_commit_together() {
        // B rewrites a consumer of A's gate, so its refresh reads rows A
        // edited: A must be flushed before B scores, and a commit must
        // keep both frames' edits.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        for (nl, a, _) in deferred_cases() {
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let mut eval = ResynthEval::new(&ctx);
            let b = *nl
                .fanout(a)
                .iter()
                .find(|&&c| nl.node(c).fanin().len() == 2 && !nl.is_state_element(c))
                .unwrap();
            let n = nl.node_count() as u32;
            let (pa, pb) = (rewrite(&nl, a, n), rewrite(&nl, b, n + 2));
            eval.apply(&pa).unwrap();
            eval.apply(&pb).unwrap();
            let both = [pa, pb];
            assert_eq!(
                eval.total_cost().to_bits(),
                fresh_cost(&nl, &both, &lib, &cfg).to_bits()
            );
            eval.commit();
            assert_fresh(&mut eval, &nl, &both, &lib, &cfg);
        }
    }

    #[test]
    fn avoid_bfs_results_are_not_reused_across_structures() {
        // Probe gate A, commit a new gate that shortcuts A's fan-in to a
        // far gate (it only shortens routes, so it runs no avoid-X BFS
        // of its own), then probe A again: the graph minus A changed, so
        // the second probe must not reuse the first one's BFS results.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        for nl in [
            data::ripple_adder(6),
            crate::evaluator::tests::seq_circuit(),
        ] {
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let far = *nl.topo_order().last().unwrap();
            let n = nl.node_count() as u32;
            for a in nl.gate_ids().filter(|&g| nl.node(g).fanin().len() == 2) {
                let mut inc = ResynthEval::new(&ctx);
                let mut full = ResynthEval::new_full_refresh(&ctx);
                let shortcut = Patch::single(PatchOp::AddGate {
                    gate: NodeId(n),
                    kind: CellKind::And,
                    fanin: vec![nl.node(a).fanin()[0], far],
                });
                let steps = [
                    (rewrite(&nl, a, n), false),
                    (shortcut, true),
                    (rewrite(&nl, a, n + 1), false),
                ];
                for (patch, keep) in &steps {
                    inc.apply(patch).unwrap();
                    full.apply(patch).unwrap();
                    assert_eq!(
                        inc.total_cost().to_bits(),
                        full.total_cost().to_bits(),
                        "{} gate {}",
                        nl.name(),
                        a.0
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
    fn pending_frame_survives_a_rejected_patch() {
        // A rejected (cycle) patch flushes the pending frame below it and
        // leaves it intact; rolling that frame back restores the start.
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        for (nl, a, b) in deferred_cases() {
            let ctx = EvalContext::new(&nl, &lib, cfg.clone());
            let mut eval = ResynthEval::new(&ctx);
            let pa = rewrite(&nl, a, nl.node_count() as u32);
            eval.apply(&pa).unwrap();
            let consumer = *nl
                .fanout(b)
                .iter()
                .find(|&&c| !nl.is_state_element(c))
                .unwrap();
            let cycle = Patch::single(PatchOp::SetFanin {
                gate: b,
                fanin: vec![consumer, nl.node(b).fanin()[1]],
            });
            assert!(matches!(eval.apply(&cycle), Err(PatchError::Cycle(_))));
            assert_eq!(eval.pending_patches(), 1);
            assert_fresh(&mut eval, &nl, std::slice::from_ref(&pa), &lib, &cfg);
            eval.rollback();
            assert_fresh(&mut eval, &nl, &[], &lib, &cfg);
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
        // partners the rollback pops again; whether the edits were
        // flushed (entries replayed) or still pending (dropped), no row
        // may keep such a partner.
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
            for flush in [true, false] {
                eval.apply(&probe).unwrap();
                if flush {
                    eval.verify_consistency();
                }
                eval.rollback();
                let alive = eval.node_count() as u32;
                let rows = eval.rows.as_ref().unwrap();
                assert!(
                    rows.iter().flatten().all(|&(p, _)| p < alive),
                    "{} flush={flush}: a popped gate stayed a partner",
                    nl.name()
                );
                assert_fresh(&mut eval, &nl, &[], &lib, &cfg);
            }
        }
    }
}
