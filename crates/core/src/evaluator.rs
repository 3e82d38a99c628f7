//! Incremental partition evaluation.
//!
//! The evolution algorithm evaluates thousands of neighbouring partitions;
//! the paper notes that "after gate moving, costs are recomputed just for
//! the modified modules, and the global costs of the partition are
//! updated" (§4.2). [`Evaluated`] implements exactly that, at *two*
//! levels:
//!
//! * **Module statistics** — per-module activity histograms,
//!   leakage/capacitance sums and separation totals are maintained under
//!   one move kernel, [`Evaluated::move_gates`], which moves a gate set
//!   out of one module into another ([`Evaluated::move_gate`] is its
//!   one-gate call). Per moved gate it scans the gate's separation row
//!   once and applies the histogram and sum updates in the same order as
//!   single moves would, so a batch is bit-identical to its gates moved
//!   one by one; peaks are rescanned once per batch, and per-module
//!   sensor figures (sizing, area, decay time, violations) are re-derived
//!   for the touched modules only.
//! * **Delay re-simulation** — the degraded longest-path sweep (`D_BIC`,
//!   the only `O(V + E)` term of the cost) keeps each gate's degraded
//!   delay weight and arrival time across moves. [`Evaluated::settle`]
//!   re-weights the gates of the touched modules, then runs one full
//!   sweep over the netlist's flat fan-in lists
//!   ([`ConeIndex::longest_path_into`](iddq_netlist::cone::ConeIndex::longest_path_into)).
//!   The delay term cannot be made local the way the statistics are: a
//!   gate's degraded weight depends on its module's rail capacitance, peak
//!   activity and sized bypass, and any move changes the rail capacitance
//!   of both touched modules, so *every* member of both is re-weighted.
//!   Their fanout cones then cover most of the circuit, and a
//!   level-ordered walk of them costs more than the sweep it would
//!   replace. "Recomputed just for the modified modules" thus holds for
//!   the statistics, while the delay term costs one weight pass over two
//!   modules plus one full sweep.
//!
//! [`Evaluated::cost`] assembles the five cost terms of a settled state
//! from the cached statistics in `O(K)` plus an `O(outputs)` max over
//! the arrival state.
//!
//! # Cost lower bound
//!
//! The evolution rejects most descendants on a lower bound of their cost
//! (`Evaluated::cost_lower_bound`), which needs no settle, and for a
//! Monte-Carlo batch not even the separation row scans: it hands
//! [`Objective::floor`](crate::Objective::floor), the one place that
//! argues why a floor bounds the total, figures that are each exact or a
//! lower bound. The evaluator owns two of those bounds:
//!
//! * the separation floor of an unscanned batch
//!   (`Evaluated::move_gates_unscanned`): moving `X` out of `A` into
//!   `B`, with `R = A ∖ X` staying behind, changes the total by exactly
//!   `ρ·|X|·(|B| − |R|) − Σ_x W(x, B) + Σ_x W(x, R)`, so
//!   `S′ ≥ S + ρ·|X|·(|B| − |R|) − Σ_x W(x)` with `W(x)` the O(1) row
//!   total;
//! * before a settle, the critical-path floor `L` on `D_BIC`: trace one
//!   path back from the latest output through the last settled
//!   arrivals, taking the latest fan-in at each step, and sum the
//!   weights the settle will give its nodes (fresh ones for the gates of
//!   the touched modules, the cached ones elsewhere) source first with
//!   the sweep's own `+`. This is sound in floating point: the sweep
//!   sets `arr(v) = max(fan-in arrivals) + w(v)`, `max` is exact and
//!   `fl(x + w)` is monotone in `x`, so by induction along the path
//!   every settled arrival is at least the partial sum, and the latest
//!   output at least `L`. Any path gives a valid floor; the one that was
//!   critical before the moves is usually still close to critical, which
//!   makes it tight.
//!
//! A Monte-Carlo batch can be rejected before it moves at all
//! (`Evaluated::batch_leakage_bound`): its two leakage sums, taken in
//! the move kernel's order, give the exact discriminability violations
//! of both touched modules, and the floor of those violations and the
//! module count alone already loses to the bar.
//!
//! # Transactions
//!
//! [`Evaluated::begin_txn`] arms an undo log: every subsequent move and
//! settle records exact inverse information, and
//! [`Evaluated::rollback_txn`] restores the evaluator — partition, module
//! statistics, sensor figures, weights, arrivals, dirty set —
//! *bit-for-bit* to the state at `begin_txn` by replaying the log in
//! reverse. The evolution strategy scores every descendant on a
//! per-worker scratch evaluator through apply → settle → score →
//! rollback, and only materializes the descendants that survive
//! selection.
//!
//! The first settle of a transaction logs the weight and arrival vectors
//! as one snapshot entry; later settles of the same transaction log no
//! delay state, since restoring the snapshot also undoes every later
//! write. Rollback moves the snapshot back in instead of re-running the
//! sweep, so scoring a descendant costs one weight pass and one sweep, not
//! two sweeps.

use iddq_analog::network::delay_degradation;
use iddq_bic::sizing::{size_sensor, SizingError};
use iddq_bic::BicSensor;
use iddq_netlist::NodeId;

use crate::context::EvalContext;
use crate::cost::{CostBreakdown, Figures};
use crate::partition::{ModuleRemoval, MoveOutcome, MoveUndo, Partition};

/// Cached per-module statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleStats {
    /// Summed peak currents of gates able to switch at each grid time —
    /// the §3.1 estimator's inner table. `î_DD,max,i` is its maximum.
    pub current_hist: Vec<f64>,
    /// Number of gates able to switch at each grid time (`n(t)`).
    pub count_hist: Vec<u32>,
    /// `î_DD,max,i` in µA (max of `current_hist`).
    pub peak_current_ua: f64,
    /// Peak simultaneous activity `max_t n(t)`.
    pub peak_activity: u32,
    /// Fault-free quiescent current `I_DDQ,nd,i`, nanoamps.
    pub leakage_na: f64,
    /// Virtual-rail parasitic capacitance `C_s,i`, femtofarads.
    pub rail_cap_ff: f64,
    /// Sum of member cell areas (reporting only).
    pub cell_area: f64,
    /// Module separation `S(M_i)` (§3.3).
    pub separation: u64,
}

impl ModuleStats {
    fn empty(horizon: usize) -> Self {
        ModuleStats {
            current_hist: vec![0.0; horizon],
            count_hist: vec![0; horizon],
            peak_current_ua: 0.0,
            peak_activity: 0,
            leakage_na: 0.0,
            rail_cap_ff: 0.0,
            cell_area: 0.0,
            separation: 0,
        }
    }

    fn rescan_peaks(&mut self) {
        self.peak_current_ua = self.current_hist.iter().copied().fold(0.0, f64::max);
        self.peak_activity = self.count_hist.iter().copied().max().unwrap_or(0);
    }
}

/// Derived per-module sensor figures, re-computed eagerly whenever the
/// module's statistics change. Shared with the structure-patching
/// [`crate::resynth::ResynthEval`], whose scoring must be bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ModuleSensor {
    /// Sized (or fallback) bypass resistance, Ω.
    pub(crate) rs_ohm: f64,
    /// Contribution to the global sensor area.
    pub(crate) area: f64,
    /// Per-vector decay+sense time Δ(τ) in ps (0 when infeasible).
    pub(crate) delta_ps: f64,
    /// Constraint violations charged to this module (0–2).
    pub(crate) violations: usize,
}

pub(crate) fn sensor_figures(ctx: &EvalContext<'_>, s: &ModuleStats) -> ModuleSensor {
    let violations = usize::from(violates_discriminability(ctx, s.leakage_na));
    match size_sensor(
        s.peak_current_ua,
        s.rail_cap_ff,
        &ctx.config.sizing,
        &ctx.technology,
    ) {
        Ok(sensor) => ModuleSensor {
            rs_ohm: sensor.rs_ohm,
            area: sensor.area,
            delta_ps: sensor.delta_ps(s.peak_current_ua),
            violations,
        },
        // Rail-infeasible modules fall back to the most conductive
        // realizable bypass for delay purposes.
        Err(SizingError::RailPerturbation) => {
            let rs = ctx.technology.r_bypass_min_ohm;
            ModuleSensor {
                rs_ohm: rs,
                area: ctx.config.sizing.a0 + ctx.config.sizing.a1 / rs,
                delta_ps: 0.0,
                violations: violations + 1,
            }
        }
        // Cannot happen: Partition never keeps empty modules.
        Err(SizingError::EmptyModule) => ModuleSensor {
            rs_ohm: 0.0,
            area: 0.0,
            delta_ps: 0.0,
            violations: violations + 1,
        },
    }
}

/// The discriminability test of [`sensor_figures`]: whether a module
/// leaking `leakage_na` misses `d(M) ≥ d_min` (a module without leakage
/// is charged too). [`Evaluated::batch_leakage_bound`] applies it to a
/// batch's leakage sums before the batch moves.
fn violates_discriminability(ctx: &EvalContext<'_>, leakage_na: f64) -> bool {
    let leak_ua = leakage_na / 1000.0;
    leak_ua <= 0.0 || ctx.technology.iddq_threshold_ua / leak_ua < ctx.config.d_min
}

/// Degraded delay weight of one gate under its module's sensor (§3.2),
/// from the gate's raw electrical row — the shared kernel both
/// [`Evaluated`] and [`crate::resynth::ResynthEval`] call, so the two
/// paths stay bit-identical.
pub(crate) fn degraded_weight(
    delay_ps: f64,
    r_on_kohm: f64,
    c_out_ff: f64,
    s: &ModuleStats,
    sens: &ModuleSensor,
) -> f64 {
    let delta = delay_degradation(
        f64::from(s.peak_activity),
        sens.rs_ohm,
        s.rail_cap_ff,
        r_on_kohm,
        c_out_ff,
    );
    delay_ps * delta
}

/// Degraded delay weight of one gate under its module's sensor (§3.2).
fn gate_weight(ctx: &EvalContext<'_>, gate: NodeId, s: &ModuleStats, sens: &ModuleSensor) -> f64 {
    let gi = gate.index();
    degraded_weight(
        ctx.tables.delay_ps[gi],
        ctx.tables.r_on_kohm[gi],
        ctx.tables.c_out_ff[gi],
        s,
        sens,
    )
}

/// Latest arrival over the primary outputs (`D_BIC` under `arr`).
fn output_max(ctx: &EvalContext<'_>, arr: &[f64]) -> f64 {
    ctx.netlist
        .outputs()
        .iter()
        .map(|o| arr[o.index()])
        .fold(0.0f64, f64::max)
}

/// Follows a swap-remove of module `removal.removed` in a list of module
/// indices: the removed index drops out, the moved one is renumbered.
fn renumber(modules: &mut Vec<usize>, removal: ModuleRemoval) {
    modules.retain(|&m| m != removal.removed);
    for m in modules {
        if *m == removal.moved_from {
            *m = removal.removed;
        }
    }
}

/// One entry of the transactional undo log.
#[derive(Debug, Clone)]
enum TxnOp {
    /// Snapshot of one module's statistics + sensor figures before a
    /// mutation (indices are valid at that point of the, strictly
    /// reversed, replay).
    Stats {
        index: usize,
        stats: ModuleStats,
        sensor: ModuleSensor,
    },
    /// One partition gate move.
    Move(MoveUndo),
    /// Mirror of the `swap_remove` performed on the stats/sensor vectors
    /// when a module emptied, carrying the discarded values.
    Removed {
        index: usize,
        moved_from: usize,
        stats: ModuleStats,
        sensor: ModuleSensor,
    },
    /// One overwritten per-module sensor figure (written by settles).
    Sensor { index: usize, old: ModuleSensor },
    /// The weight and arrival vectors before the transaction's first
    /// settle.
    Delay(Vec<f64>, Vec<f64>),
}

#[derive(Debug, Clone, Default)]
struct TxnLog {
    ops: Vec<TxnOp>,
    dirty_at_begin: Vec<usize>,
    /// Module indices whose pre-transaction state is already captured by
    /// a [`TxnOp::Stats`] entry, under the *current* numbering — kept in
    /// sync with swap-remove renumbering exactly like the dirty list, so
    /// each touched module pays one snapshot per transaction, not one
    /// per move.
    snapshotted: Vec<usize>,
    /// The log holds a [`TxnOp::Delay`] snapshot. Rollback restores it
    /// before the entries logged ahead of it, so later settles of the
    /// transaction log no weights or arrivals of their own.
    delay_saved: bool,
}

/// A partition plus its incrementally maintained statistics, bound to an
/// [`EvalContext`].
///
/// # Example
///
/// ```rust
/// use iddq_celllib::Library;
/// use iddq_core::{config::PartitionConfig, Evaluated, EvalContext, Partition};
/// use iddq_netlist::data;
///
/// let c17 = data::c17();
/// let lib = Library::generic_1um();
/// let ctx = EvalContext::new(&c17, &lib, PartitionConfig::paper_default());
/// let eval = Evaluated::new(&ctx, Partition::single_module(&c17));
/// let cost = eval.cost();
/// assert!(cost.feasible());
/// assert!(cost.sensor_area > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Evaluated<'a> {
    ctx: &'a EvalContext<'a>,
    partition: Partition,
    stats: Vec<ModuleStats>,
    sensors: Vec<ModuleSensor>,
    /// Per-node degraded delay weight (0 for primary inputs).
    weight: Vec<f64>,
    /// Per-node arrival time under `weight` (valid when `dirty` is
    /// empty).
    arr: Vec<f64>,
    /// Modules whose gate weights are stale (deduplicated).
    dirty: Vec<usize>,
    txn: Option<TxnLog>,
    /// Set by [`Evaluated::move_gates_unscanned`]: the per-module
    /// separation totals are stale, and this is a lower bound on the
    /// true total. Cleared by [`Evaluated::rollback_txn`].
    sep_floor: Option<u64>,
}

impl<'a> Evaluated<'a> {
    /// Evaluates `partition` from scratch. The separation totals come
    /// from the gate table's rows
    /// ([`GateSeparationTable::partition_separations`], linear in the
    /// members' row lengths); the result equals
    /// [`Evaluated::new_by_pair_sums`] bit for bit.
    ///
    /// [`GateSeparationTable::partition_separations`]: iddq_netlist::separation::GateSeparationTable::partition_separations
    #[must_use]
    pub fn new(ctx: &'a EvalContext<'a>, partition: Partition) -> Self {
        let separations = ctx
            .separation()
            .partition_separations(partition.modules(), partition.assignment());
        Self::with_separations(ctx, partition, separations)
    }

    /// The slow reference for [`Evaluated::new`]: every module's
    /// separation by the `O(|M|²)` pair sum of
    /// [`GateSeparationTable::module_separation`] (the sum
    /// [`Evaluated::stats_for`] and so [`Evaluated::verify_consistency`]
    /// check against). Tests and the bench's evolution gate use it; the
    /// flow never does.
    ///
    /// [`GateSeparationTable::module_separation`]: iddq_netlist::separation::GateSeparationTable::module_separation
    #[must_use]
    pub fn new_by_pair_sums(ctx: &'a EvalContext<'a>, partition: Partition) -> Self {
        let separations = partition
            .modules()
            .iter()
            .map(|gates| ctx.separation().module_separation(gates))
            .collect();
        Self::with_separations(ctx, partition, separations)
    }

    /// The evaluation of `self`'s partition that [`Evaluated::new`] would
    /// build, without scanning a separation row: every floating-point
    /// statistic, sensor figure, weight and arrival is recomputed from
    /// scratch in member order, and the per-module separation totals,
    /// exact integers under every move, are kept. The result equals
    /// `Evaluated::new(ctx, self.partition().clone())` bit for bit,
    /// since both run [`Evaluated::with_separations`]; the incrementally
    /// maintained sums it replaces may differ from them in the last bits.
    ///
    /// # Panics
    ///
    /// Panics inside a transaction.
    #[must_use]
    pub(crate) fn rebased(&self) -> Self {
        assert!(self.txn.is_none(), "cannot rebase inside a transaction");
        let separations = self.stats.iter().map(|s| s.separation).collect();
        Self::with_separations(self.ctx, self.partition.clone(), separations)
    }

    /// The from-scratch evaluation behind [`Evaluated::new`],
    /// [`Evaluated::new_by_pair_sums`] and [`Evaluated::rebased`], given
    /// each module's separation total.
    fn with_separations(
        ctx: &'a EvalContext<'a>,
        partition: Partition,
        separations: Vec<u64>,
    ) -> Self {
        let stats: Vec<ModuleStats> = partition
            .modules()
            .iter()
            .zip(separations)
            .map(|(gates, separation)| ModuleStats {
                separation,
                ..Self::member_stats(ctx, gates)
            })
            .collect();
        let sensors: Vec<ModuleSensor> = stats.iter().map(|s| sensor_figures(ctx, s)).collect();
        let n = ctx.netlist.node_count();
        let mut weight = vec![0.0f64; n];
        for (m, gates) in partition.modules().iter().enumerate() {
            for &g in gates {
                weight[g.index()] = gate_weight(ctx, g, &stats[m], &sensors[m]);
            }
        }
        let mut arr = vec![0.0f64; n];
        ctx.cones.longest_path_into(&weight, &mut arr);
        Evaluated {
            ctx,
            partition,
            stats,
            sensors,
            weight,
            arr,
            dirty: Vec::new(),
            txn: None,
            sep_floor: None,
        }
    }

    /// Full (non-incremental) statistics of one gate set, its separation
    /// by the reference pair sum.
    #[must_use]
    pub fn stats_for(ctx: &EvalContext<'_>, gates: &[NodeId]) -> ModuleStats {
        ModuleStats {
            separation: ctx.separation().module_separation(gates),
            ..Self::member_stats(ctx, gates)
        }
    }

    /// [`Evaluated::stats_for`] without the separation total (left at 0):
    /// the floating-point statistics, summed in member order.
    fn member_stats(ctx: &EvalContext<'_>, gates: &[NodeId]) -> ModuleStats {
        let mut s = ModuleStats::empty(ctx.horizon);
        for &g in gates {
            let gi = g.index();
            for t in ctx.times[gi].iter() {
                s.current_hist[t as usize] += ctx.tables.peak_current_ua[gi];
                s.count_hist[t as usize] += 1;
            }
            s.leakage_na += ctx.tables.leakage_na[gi];
            s.rail_cap_ff += ctx.tables.c_rail_ff[gi];
            s.cell_area += ctx.tables.area[gi];
        }
        s.rescan_peaks();
        s
    }

    /// The underlying partition.
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The bound context.
    #[must_use]
    pub fn context(&self) -> &'a EvalContext<'a> {
        self.ctx
    }

    /// Per-module statistics, index-aligned with
    /// [`Partition::modules`].
    #[must_use]
    pub fn stats(&self) -> &[ModuleStats] {
        &self.stats
    }

    fn mark_dirty(&mut self, m: usize) {
        if !self.dirty.contains(&m) {
            self.dirty.push(m);
        }
    }

    /// Moves one gate to `target`: [`Evaluated::move_gates`] with a
    /// one-gate set.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Partition::move_gate`].
    pub fn move_gate(&mut self, gate: NodeId, target: usize) -> MoveOutcome {
        self.move_gates(&[gate], target)
    }

    /// Moves the gate set `gates` — members of one source module `A` — to
    /// module `target` (`B`) in order, updating statistics and sensor
    /// figures incrementally and marking the delay state stale for the
    /// touched modules (settled lazily by [`Evaluated::settle`] /
    /// [`Evaluated::cost`]). The result, undo log included, is
    /// bit-identical to moving the gates one at a time with `target`
    /// (only the last move can empty `A`, so `target` stays valid until
    /// then):
    ///
    /// * each moved gate's separation row is scanned once against the
    ///   live assignment, yielding the integer separation it leaves in
    ///   `A` and finds in `B`;
    /// * the floating-point histograms and sums see the same per-gate
    ///   sequence of subtractions (in `A`) and additions (in `B`);
    /// * peaks are rescanned once per touched module, not once per gate.
    ///
    /// The returned outcome reports `A` and, if `gates` emptied it, the
    /// module removal.
    ///
    /// # Panics
    ///
    /// Panics if `gates` is empty or holds a primary input, a gate
    /// outside the first gate's module or a repeated gate, or if `target`
    /// is out of range.
    pub fn move_gates(&mut self, gates: &[NodeId], target: usize) -> MoveOutcome {
        self.move_batch(gates, target, true)
    }

    /// [`Evaluated::move_gates`] without the separation row scans — the
    /// statistics half of the batch kernel, for a candidate that is only
    /// bounded. The histograms, sums, partition and dirty set change
    /// exactly as under `move_gates`, but the two touched modules keep
    /// their old separation totals; the evaluator keeps the floor
    /// `S + ρ·|X|·(|B| − |R|) − Σ_x W(x)` on the new total instead (see
    /// the module docs), with `W(x)` from
    /// [`GateSeparationTable::near_weight`](iddq_netlist::separation::GateSeparationTable::near_weight).
    /// [`Evaluated::cost_lower_bound`] reads it; [`Evaluated::cost`] and
    /// every further move refuse to run until [`Evaluated::rollback_txn`]
    /// restores the exact totals.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction, after an earlier unscanned batch
    /// that was not rolled back, and under the conditions of
    /// [`Evaluated::move_gates`].
    pub(crate) fn move_gates_unscanned(&mut self, gates: &[NodeId], target: usize) -> MoveOutcome {
        assert!(
            self.txn.is_some(),
            "an unscanned batch must be rolled back, so it needs a transaction"
        );
        self.move_batch(gates, target, false)
    }

    /// The batch move kernel behind [`Evaluated::move_gates`] (`scan`) and
    /// [`Evaluated::move_gates_unscanned`] (no row scans).
    fn move_batch(&mut self, gates: &[NodeId], target: usize, scan: bool) -> MoveOutcome {
        assert!(
            self.sep_floor.is_none(),
            "an unscanned batch must be rolled back before the next move"
        );
        let source = match gates.first().map(|&g| self.partition.module_of(g)) {
            Some(Some(s)) => s,
            Some(None) => panic!("cannot move a primary input"),
            None => panic!("move_gates needs at least one gate"),
        };
        assert!(
            target < self.partition.module_count(),
            "target module out of range"
        );
        if source == target {
            return MoveOutcome {
                source,
                removed_module: None,
            };
        }
        if self.txn.is_some() {
            self.snapshot_module(source);
            self.snapshot_module(target);
        }
        let ctx = self.ctx;
        let rho = u64::from(ctx.separation().rho());
        let (mut sep_out, mut sep_in) = (0u64, 0u64);
        // Unscanned: Σ W(x) over the moved gates, and |A|, |B| before.
        let mut near_total = 0u64;
        let sizes = [source, target].map(|m| self.partition.module(m).len() as u64);
        let mut outcome = MoveOutcome {
            source,
            removed_module: None,
        };
        for &g in gates {
            assert_eq!(
                self.partition.module_of(g),
                Some(source),
                "every moved gate must sit in the source module"
            );
            if scan {
                // Separation deltas need the membership *before* this
                // gate moves: one fused scan of its precomputed gate-only
                // row with direct assignment tests, module-size
                // independent.
                let [w_out, w_in] = ctx.separation().member_weights(
                    g,
                    self.partition.assignment(),
                    [source as u32, target as u32],
                );
                sep_out += rho * (self.partition.module(source).len() as u64 - 1) - w_out;
                sep_in += rho * self.partition.module(target).len() as u64 - w_in;
            } else {
                near_total += ctx.separation().near_weight(g);
            }
            let (moved, undo) = self.partition.move_gate_undoable(g, target);
            outcome = moved;
            if let Some(log) = self.txn.as_mut() {
                log.ops.push(TxnOp::Move(undo));
            }
            let gi = g.index();
            let Ok([src, dst]) = self.stats.get_disjoint_mut([source, target]) else {
                unreachable!("source and target modules differ");
            };
            // One walk of the transition times updates both histograms;
            // each slot still sees the per-gate sequence of subtractions
            // (in `A`) and additions (in `B`).
            let peak = ctx.tables.peak_current_ua[gi];
            for t in ctx.times[gi].iter() {
                let t = t as usize;
                src.current_hist[t] -= peak;
                src.count_hist[t] -= 1;
                dst.current_hist[t] += peak;
                dst.count_hist[t] += 1;
            }
            src.leakage_na -= ctx.tables.leakage_na[gi];
            src.rail_cap_ff -= ctx.tables.c_rail_ff[gi];
            src.cell_area -= ctx.tables.area[gi];
            dst.leakage_na += ctx.tables.leakage_na[gi];
            dst.rail_cap_ff += ctx.tables.c_rail_ff[gi];
            dst.cell_area += ctx.tables.area[gi];
        }
        if scan {
            self.stats[source].separation -= sep_out;
            self.stats[target].separation += sep_in;
        } else {
            let [a, b] = sizes.map(i128::from);
            let x = gates.len() as i128;
            let floor = i128::from(self.total_separation()) + i128::from(rho) * x * (b - (a - x))
                - i128::from(near_total);
            // The floor never exceeds the true total, a `u64`.
            self.sep_floor = Some(u64::try_from(floor.max(0)).unwrap_or(u64::MAX));
        }
        self.stats[source].rescan_peaks();
        self.stats[target].rescan_peaks();
        self.mark_dirty(source);
        self.mark_dirty(target);
        if let Some(removal) = outcome.removed_module {
            let removed_stats = self.stats.swap_remove(removal.removed);
            let removed_sensor = self.sensors.swap_remove(removal.removed);
            if let Some(log) = self.txn.as_mut() {
                log.ops.push(TxnOp::Removed {
                    index: removal.removed,
                    moved_from: removal.moved_from,
                    stats: removed_stats,
                    sensor: removed_sensor,
                });
                // Snapshot and dirty bookkeeping follow the swap-remove
                // renumbering.
                renumber(&mut log.snapshotted, removal);
            }
            renumber(&mut self.dirty, removal);
        }
        outcome
    }

    /// Captures module `m`'s pre-transaction statistics and sensor
    /// figures once per transaction (under the current numbering).
    // Private helper with a single call site, inside an open
    // transaction by construction.
    #[allow(clippy::expect_used)]
    fn snapshot_module(&mut self, m: usize) {
        let log = self.txn.as_mut().expect("only called inside a txn");
        if log.snapshotted.contains(&m) {
            return;
        }
        log.snapshotted.push(m);
        log.ops.push(TxnOp::Stats {
            index: m,
            stats: self.stats[m].clone(),
            sensor: self.sensors[m],
        });
    }

    /// Brings the persistent delay-simulation state (gate weights and
    /// arrival times) up to date with the current statistics: the sensor
    /// figures and gate weights of the touched modules are re-derived,
    /// then one full sweep recomputes every arrival. Inside a
    /// transaction, the first settle logs the weight and arrival vectors
    /// as one entry.
    pub fn settle(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let ctx = self.ctx;
        let dirty = std::mem::take(&mut self.dirty);
        let Evaluated {
            ref partition,
            ref stats,
            ref mut sensors,
            ref mut weight,
            ref mut arr,
            ref mut txn,
            ..
        } = *self;
        if let Some(log) = txn.as_mut().filter(|log| !log.delay_saved) {
            log.delay_saved = true;
            log.ops.push(TxnOp::Delay(weight.clone(), arr.clone()));
        }
        for &m in &dirty {
            // Sensor figures re-derive once per touched module per
            // settle, not once per move.
            let sensor = sensor_figures(ctx, &stats[m]);
            let old = std::mem::replace(&mut sensors[m], sensor);
            if let Some(log) = txn.as_mut() {
                log.ops.push(TxnOp::Sensor { index: m, old });
            }
            for &g in partition.module(m) {
                weight[g.index()] = gate_weight(ctx, g, &stats[m], &sensor);
            }
        }
        ctx.cones.longest_path_into(weight, arr);
    }

    /// Arms the transactional undo log. Every subsequent
    /// [`Evaluated::move_gate`] and settle records inverse information
    /// until [`Evaluated::rollback_txn`] or [`Evaluated::commit_txn`].
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active (transactions do not
    /// nest).
    pub fn begin_txn(&mut self) {
        assert!(self.txn.is_none(), "transactions do not nest");
        self.txn = Some(TxnLog {
            ops: Vec::new(),
            dirty_at_begin: self.dirty.clone(),
            snapshotted: Vec::new(),
            delay_saved: false,
        });
    }

    /// Restores the evaluator bit-for-bit to the state at
    /// [`Evaluated::begin_txn`] and closes the transaction.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    // Documented panic contract: rolling back without `begin_txn`
    // is a caller bug.
    #[allow(clippy::expect_used)]
    pub fn rollback_txn(&mut self) {
        let log = self.txn.take().expect("no active transaction");
        for op in log.ops.into_iter().rev() {
            match op {
                TxnOp::Stats {
                    index,
                    stats,
                    sensor,
                } => {
                    self.stats[index] = stats;
                    self.sensors[index] = sensor;
                }
                TxnOp::Move(undo) => self.partition.undo_move(&undo),
                TxnOp::Removed {
                    index,
                    moved_from,
                    stats,
                    sensor,
                } => {
                    // Mirror of Partition::undo_move step 1 on the stats
                    // and sensor vectors.
                    if index == moved_from {
                        self.stats.push(stats);
                        self.sensors.push(sensor);
                    } else {
                        let displaced = std::mem::replace(&mut self.stats[index], stats);
                        self.stats.push(displaced);
                        let displaced = std::mem::replace(&mut self.sensors[index], sensor);
                        self.sensors.push(displaced);
                    }
                }
                TxnOp::Sensor { index, old } => self.sensors[index] = old,
                TxnOp::Delay(weight, arr) => {
                    self.weight = weight;
                    self.arr = arr;
                }
            }
        }
        self.dirty = log.dirty_at_begin;
        // The restored snapshots carry exact separation totals.
        self.sep_floor = None;
    }

    /// Keeps all changes made during the transaction and drops the undo
    /// log.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn commit_txn(&mut self) {
        assert!(
            self.sep_floor.is_none(),
            "an unscanned batch cannot be committed"
        );
        assert!(self.txn.take().is_some(), "no active transaction");
    }

    /// Sizes the BIC sensor of module `m` from its cached statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`SizingError`] (rail perturbation / empty module).
    pub fn sensor(&self, m: usize) -> Result<BicSensor, SizingError> {
        let s = &self.stats[m];
        size_sensor(
            s.peak_current_ua,
            s.rail_cap_ff,
            &self.ctx.config.sizing,
            &self.ctx.technology,
        )
    }

    /// Boundary gates of module `m`: members directly connected (in the
    /// undirected circuit graph) to a gate outside `m` — the mutation
    /// candidates of §4.2, in member order. Each member's gate
    /// neighbours are tested against the raw assignment.
    #[must_use]
    pub fn boundary_gates(&self, m: usize) -> Vec<NodeId> {
        let assignment = self.partition.assignment();
        let own = m as u32;
        self.partition
            .module(m)
            .iter()
            .copied()
            .filter(|&g| {
                self.ctx
                    .gate_neighbors(g)
                    .iter()
                    .any(|&n| assignment[n as usize] != own)
            })
            .collect()
    }

    /// Modules (other than the gate's own) that `gate` is directly
    /// connected to — the legal mutation targets ("put into the target
    /// module they are connected with", §4.2).
    #[must_use]
    pub fn connected_modules(&self, gate: NodeId) -> Vec<usize> {
        let assignment = self.partition.assignment();
        let own = assignment[gate.index()];
        let mut out: Vec<usize> = self
            .ctx
            .gate_neighbors(gate)
            .iter()
            .map(|&n| assignment[n as usize])
            .filter(|&m| m != own)
            .map(|m| m as usize)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Evaluates the full cost breakdown from the cached statistics.
    ///
    /// Complexity: `O(K)` term assembly plus `O(outputs)` over the
    /// settled arrival state.
    ///
    /// # Panics
    ///
    /// Panics while moves are unsettled (an unsettled state has only a
    /// lower bound on its cost; call [`Evaluated::settle`] first), and
    /// after `Evaluated::move_gates_unscanned` until the transaction is
    /// rolled back (the separation totals are stale).
    #[must_use]
    pub fn cost(&self) -> CostBreakdown {
        assert!(
            self.sep_floor.is_none(),
            "an unscanned batch has no exact cost"
        );
        assert!(
            self.dirty.is_empty(),
            "an unsettled state has no exact cost"
        );
        let dbic_ps = output_max(self.ctx, &self.arr);
        let figures = self.figures(&[], self.total_separation(), dbic_ps);
        self.ctx.objective().terms(&figures)
    }

    /// Weighted scalar cost (the optimizer's objective).
    ///
    /// # Panics
    ///
    /// As [`Evaluated::cost`].
    #[must_use]
    pub fn total_cost(&self) -> f64 {
        self.ctx.objective().total(&self.cost())
    }

    /// A lower bound on [`Evaluated::total_cost`] that needs neither a
    /// settle nor the row scans of [`Evaluated::move_gates_unscanned`]:
    /// the [floor](crate::Objective::floor) of the current figures, with
    /// the separation floor of an unscanned batch and, before a settle,
    /// the critical-path floor `L` on `D_BIC` (see the module docs). The
    /// area, the module count, the violations and `max Δ(τ)` are exact,
    /// from the fresh sensor figures of the touched modules. It equals
    /// `total_cost()` bit for bit when the state is settled and scanned.
    #[must_use]
    pub(crate) fn cost_lower_bound(&self) -> f64 {
        let fresh = self.fresh_sensors();
        let dbic_ps = if self.dirty.is_empty() {
            output_max(self.ctx, &self.arr)
        } else {
            self.path_floor(&fresh)
        };
        let separation = self.sep_floor.unwrap_or_else(|| self.total_separation());
        self.ctx
            .objective()
            .floor(&self.figures(&fresh, separation, dbic_ps))
    }

    /// The critical-path floor `L` on the `D_BIC` the next settle will
    /// reach: one path, traced back from the latest output through the
    /// last settled arrivals (the latest fan-in at each step, over the
    /// sweep's own fan-in lists), and its weights after the settle summed
    /// source first with the sweep's `+`. The gates of the modules in
    /// `fresh` (the dirty ones) take their fresh degraded weight, every
    /// other node its cached one, which the settle keeps.
    fn path_floor(&self, fresh: &[(usize, ModuleSensor)]) -> f64 {
        let (ctx, arr) = (self.ctx, &self.arr);
        let latest = |a: &NodeId, b: &NodeId| arr[a.index()].total_cmp(&arr[b.index()]);
        let mut path: Vec<NodeId> = ctx
            .netlist
            .outputs()
            .iter()
            .copied()
            .max_by(latest)
            .into_iter()
            .collect();
        while let Some(next) = path
            .last()
            .and_then(|&v| ctx.cones.fanin(v).iter().map(|&u| NodeId(u)).max_by(latest))
        {
            path.push(next);
        }
        path.iter().rev().fold(0.0f64, |sum, &v| {
            let fresh_weight = self.partition.module_of(v).and_then(|m| {
                let (_, sens) = fresh.iter().find(|(i, _)| *i == m)?;
                Some(gate_weight(ctx, v, &self.stats[m], sens))
            });
            sum + fresh_weight.unwrap_or(self.weight[v.index()])
        })
    }

    /// A lower bound on the cost of moving the gate set `gates` (members
    /// of one source module) to module `target`, decided before any move
    /// from the two modules' leakage alone: the leakage sums after the
    /// batch, taken in [`Evaluated::move_gates`]' own order (so their
    /// bits are the ones the move would produce), give the exact
    /// discriminability violations of both touched modules; every other
    /// module keeps its violations; the module count drops by one when
    /// the batch empties its source. The bound is the
    /// [floor](crate::Objective::floor) of those two counts alone (the
    /// touched modules' rail perturbation left out), so it never exceeds
    /// [`Evaluated::cost_lower_bound`] of the moved batch.
    ///
    /// # Panics
    ///
    /// Panics if moves are unsettled, if `gates` is empty or holds a
    /// primary input, or if `target` is its source module.
    #[must_use]
    pub(crate) fn batch_leakage_bound(&self, gates: &[NodeId], target: usize) -> f64 {
        assert!(
            self.dirty.is_empty(),
            "the leakage bound reads settled sensors"
        );
        let source = gates
            .first()
            .and_then(|&g| self.partition.module_of(g))
            .unwrap_or_else(|| panic!("a batch needs a first gate inside a module"));
        assert_ne!(source, target, "a batch moves to another module");
        let ctx = self.ctx;
        let (mut out, mut into) = (self.stats[source].leakage_na, self.stats[target].leakage_na);
        for &g in gates {
            out -= ctx.tables.leakage_na[g.index()];
            into += ctx.tables.leakage_na[g.index()];
        }
        let empties = gates.len() == self.partition.module(source).len();
        let untouched: usize = self
            .sensors
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != source && m != target)
            .map(|(_, sens)| sens.violations)
            .sum();
        let violations = untouched
            + usize::from(violates_discriminability(ctx, into))
            + usize::from(!empties && violates_discriminability(ctx, out));
        ctx.objective().floor(&Figures {
            modules: self.stats.len() - usize::from(empties),
            violations,
            nominal_delay_ps: ctx.nominal_delay_ps,
            ..Figures::default()
        })
    }

    /// Sensor figures of the modules touched since the last settle (the
    /// cached ones are stale), re-derived into a small side list.
    fn fresh_sensors(&self) -> Vec<(usize, ModuleSensor)> {
        self.dirty
            .iter()
            .map(|&m| (m, sensor_figures(self.ctx, &self.stats[m])))
            .collect()
    }

    /// Sum of the cached per-module separation totals.
    fn total_separation(&self) -> u64 {
        self.stats.iter().map(|s| s.separation).sum()
    }

    /// The figures of the modules (`fresh` overriding the cached
    /// sensors), a total separation and a `D_BIC`.
    fn figures(&self, fresh: &[(usize, ModuleSensor)], separation: u64, dbic_ps: f64) -> Figures {
        let sensors = self.sensors.iter().enumerate().map(|(m, cached)| {
            fresh
                .iter()
                .find(|(i, _)| *i == m)
                .map_or(*cached, |(_, s)| *s)
        });
        Figures::of_modules(sensors, separation, dbic_ps, self.ctx.nominal_delay_ps)
    }

    /// Recomputes all statistics from scratch and asserts they match the
    /// incremental state — the correctness oracle for the incremental
    /// updates (used by tests and debug assertions). Also checks the
    /// partition's position index. With a settled delay state, also
    /// cross-checks sensor figures and gate weights against a fresh batch
    /// computation, and arrival times bit for bit against
    /// [`iddq_netlist::levelize::longest_path`], the netlist-walking
    /// recurrence (not the flat sweep this evaluator runs).
    ///
    /// # Panics
    ///
    /// Panics if any cached statistic drifted from the ground truth.
    pub fn verify_consistency(&self) {
        let mut fresh_separation = 0u64;
        for (m, gates) in self.partition.modules().iter().enumerate() {
            for (k, &g) in gates.iter().enumerate() {
                assert_eq!(self.partition.module_of(g), Some(m), "gate {g} module");
                assert_eq!(self.partition.position_of(g), Some(k), "gate {g} position");
            }
            let fresh = Self::stats_for(self.ctx, gates);
            let cached = &self.stats[m];
            assert_eq!(fresh.count_hist, cached.count_hist, "module {m} count hist");
            let hist = fresh.current_hist.iter().zip(&cached.current_hist);
            for (t, (f, c)) in hist.enumerate() {
                assert!((f - c).abs() < 1e-6, "module {m} current hist slot {t}");
            }
            fresh_separation += fresh.separation;
            // After an unscanned batch the touched totals are stale by
            // design; only the floor on their sum is checked.
            if self.sep_floor.is_none() {
                assert_eq!(fresh.separation, cached.separation, "module {m} separation");
            }
            assert!(
                (fresh.leakage_na - cached.leakage_na).abs() < 1e-6,
                "module {m} leakage"
            );
            assert!(
                (fresh.rail_cap_ff - cached.rail_cap_ff).abs() < 1e-6,
                "module {m} rail cap"
            );
            assert!(
                (fresh.cell_area - cached.cell_area).abs() < 1e-6,
                "module {m} cell area"
            );
            assert!(
                (fresh.peak_current_ua - cached.peak_current_ua).abs() < 1e-6,
                "module {m} peak current"
            );
            assert_eq!(
                fresh.peak_activity, cached.peak_activity,
                "module {m} activity"
            );
        }
        if self.dirty.is_empty() {
            for (m, s) in self.stats.iter().enumerate() {
                let fresh = sensor_figures(self.ctx, s);
                let cached = self.sensors[m];
                assert_eq!(fresh.violations, cached.violations, "module {m} violations");
                assert!((fresh.rs_ohm - cached.rs_ohm).abs() < 1e-9, "module {m} rs");
                assert!((fresh.area - cached.area).abs() < 1e-9, "module {m} area");
                for &g in self.partition.module(m) {
                    let w = gate_weight(self.ctx, g, s, &cached);
                    assert!((w - self.weight[g.index()]).abs() < 1e-9, "gate {g} weight");
                }
            }
            let arr = iddq_netlist::levelize::longest_path(self.ctx.netlist, &self.weight);
            for id in self.ctx.netlist.node_ids() {
                assert_eq!(
                    arr[id.index()].to_bits(),
                    self.arr[id.index()].to_bits(),
                    "node {id} arrival"
                );
            }
            // The premise of `Objective::floor`: no weight below its
            // nominal delay, hence D_BIC ≥ D.
            for g in self.ctx.netlist.gate_ids() {
                assert!(
                    self.weight[g.index()] >= self.ctx.tables.delay_ps[g.index()],
                    "gate {g} weight below its nominal delay"
                );
            }
            assert!(
                output_max(self.ctx, &self.arr) >= self.ctx.nominal_delay_ps,
                "D_BIC below the nominal delay D"
            );
        }
        if let Some(floor) = self.sep_floor {
            assert!(
                floor <= fresh_separation,
                "separation floor {floor} above the true total {fresh_separation}"
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use iddq_celllib::Library;
    use iddq_netlist::{data, Netlist};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_module_cost_is_finite_and_feasible() {
        let lib = Library::generic_1um();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let e = Evaluated::new(&ctx, Partition::single_module(&nl));
        let c = e.cost();
        assert!(c.feasible());
        assert!(c.sensor_area > 0.0);
        assert!(c.c2_delay >= 0.0);
        assert!(ctx.objective().total(&c).is_finite());
    }

    #[test]
    fn more_modules_cost_more_fixed_area() {
        let lib = Library::generic_1um();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gs = data::c17_paper_gates(&nl);
        let one = Evaluated::new(&ctx, Partition::single_module(&nl)).cost();
        let two = Evaluated::new(
            &ctx,
            Partition::from_groups(&nl, vec![gs[..3].to_vec(), gs[3..].to_vec()]).unwrap(),
        )
        .cost();
        assert_eq!(one.c5_modules, 1.0);
        assert_eq!(two.c5_modules, 2.0);
        // Two detection circuits cost more fixed area than one.
        assert!(two.sensor_area > 0.0 && one.sensor_area > 0.0);
    }

    #[test]
    fn incremental_moves_match_full_recompute() {
        let lib = Library::generic_1um();
        let nl = data::ripple_adder(6);
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gates: Vec<_> = nl.gate_ids().collect();
        let half = gates.len() / 2;
        let p = Partition::from_groups(&nl, vec![gates[..half].to_vec(), gates[half..].to_vec()])
            .unwrap();
        let mut e = Evaluated::new(&ctx, p);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let g = gates[rng.gen_range(0..gates.len())];
            let k = e.partition().module_count();
            if k < 2 {
                break;
            }
            let target = rng.gen_range(0..k);
            e.move_gate(g, target);
            e.settle();
            e.verify_consistency();
        }
    }

    #[test]
    fn incremental_cost_equals_fresh_cost() {
        let lib = Library::generic_1um();
        let nl = data::ripple_adder(8);
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gates: Vec<_> = nl.gate_ids().collect();
        let third = gates.len() / 3;
        let p = Partition::from_groups(
            &nl,
            vec![
                gates[..third].to_vec(),
                gates[third..2 * third].to_vec(),
                gates[2 * third..].to_vec(),
            ],
        )
        .unwrap();
        let mut e = Evaluated::new(&ctx, p);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let g = gates[rng.gen_range(0..gates.len())];
            let target = rng.gen_range(0..e.partition().module_count());
            e.move_gate(g, target);
        }
        // The unsettled state has only a bound, at most the settled cost;
        // the settled cost agrees with a from-scratch evaluation.
        let unsettled = e.cost_lower_bound();
        e.settle();
        let got = e.cost();
        assert!(unsettled <= ctx.objective().total(&got));
        let fresh = Evaluated::new(&ctx, e.partition().clone()).cost();
        assert!((got.c1_area - fresh.c1_area).abs() < 1e-9);
        assert!((got.c2_delay - fresh.c2_delay).abs() < 1e-9);
        assert!((got.c3_interconnect - fresh.c3_interconnect).abs() < 1e-9);
        assert!((got.c4_test_time - fresh.c4_test_time).abs() < 1e-9);
        assert_eq!(got.c5_modules, fresh.c5_modules);
    }

    #[test]
    #[should_panic(expected = "an unsettled state has no exact cost")]
    fn unsettled_state_has_no_exact_cost() {
        let lib = Library::generic_1um();
        let nl = data::ripple_adder(4);
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gates: Vec<_> = nl.gate_ids().collect();
        let p =
            Partition::from_groups(&nl, vec![gates[..4].to_vec(), gates[4..].to_vec()]).unwrap();
        let mut e = Evaluated::new(&ctx, p);
        e.move_gate(gates[0], 1);
        let _ = e.cost();
    }

    #[test]
    fn txn_rollback_restores_bitwise() {
        let lib = Library::generic_1um();
        let nl = data::ripple_adder(8);
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gates: Vec<_> = nl.gate_ids().collect();
        let third = gates.len() / 3;
        let p = Partition::from_groups(
            &nl,
            vec![
                gates[..third].to_vec(),
                gates[third..2 * third].to_vec(),
                gates[2 * third..].to_vec(),
            ],
        )
        .unwrap();
        let mut e = Evaluated::new(&ctx, p);
        let mut rng = SmallRng::seed_from_u64(11);
        for round in 0..60 {
            let snap_partition = e.partition().clone();
            let snap_stats = e.stats.clone();
            let snap_sensors = e.sensors.clone();
            let snap_weight = e.weight.clone();
            let snap_arr = e.arr.clone();
            let snap_cost = e.total_cost();

            e.begin_txn();
            for _ in 0..rng.gen_range(1..8) {
                let g = gates[rng.gen_range(0..gates.len())];
                let target = rng.gen_range(0..e.partition().module_count());
                e.move_gate(g, target);
            }
            // Odd rounds end with a batched move of a random share (at
            // times all) of one module.
            let k = e.partition().module_count();
            if round % 2 == 1 && k > 1 {
                let source = rng.gen_range(0..k);
                let members = e.partition().module(source);
                let count = rng.gen_range(1..=members.len());
                let batch = members[members.len() - count..].to_vec();
                e.move_gates(&batch, (source + 1) % k);
            }
            e.settle();
            let _ = e.total_cost();
            e.rollback_txn();

            assert_eq!(e.partition(), &snap_partition, "round {round}");
            assert_eq!(e.stats, snap_stats, "round {round}");
            assert_eq!(e.sensors, snap_sensors, "round {round}");
            assert_eq!(
                e.weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                snap_weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                "round {round} weights"
            );
            assert_eq!(
                e.arr.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                snap_arr.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                "round {round} arrivals"
            );
            assert_eq!(
                e.total_cost().to_bits(),
                snap_cost.to_bits(),
                "round {round}"
            );
        }
    }

    #[test]
    fn txn_rollback_through_batch_fallback() {
        // A one-gate move settled inside a transaction: rollback restores
        // the arrival state bit-for-bit, on a combinational adder and on a
        // generated s1423 (DFFs launch fresh paths).
        let lib = Library::generic_1um();
        let s1423 =
            iddq_gen::seq::generate(iddq_gen::seq::SeqProfile::by_name("s1423").unwrap(), 5);
        for nl in [data::ripple_adder(8), s1423] {
            let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
            let gates: Vec<_> = nl.gate_ids().collect();
            let half = gates.len() / 2;
            let p =
                Partition::from_groups(&nl, vec![gates[..half].to_vec(), gates[half..].to_vec()])
                    .unwrap();
            let mut e = Evaluated::new(&ctx, p);
            let snap_arr = e.arr.clone();
            let snap_cost = e.total_cost();
            e.begin_txn();
            e.move_gate(gates[0], 1);
            e.settle();
            assert!(
                e.txn.as_ref().unwrap().delay_saved,
                "{}: delay snapshot",
                nl.name()
            );
            let _ = e.total_cost();
            e.rollback_txn();
            assert_eq!(
                e.arr.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                snap_arr.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                "{}",
                nl.name()
            );
            assert_eq!(
                e.total_cost().to_bits(),
                snap_cost.to_bits(),
                "{}",
                nl.name()
            );
            e.verify_consistency();
        }
    }

    /// Bit patterns of everything a rollback must restore: the module
    /// lists in order, the assignment and positions, statistics, sensor
    /// figures, weights, arrivals and the dirty set.
    fn state_bits(e: &Evaluated<'_>) -> Vec<u64> {
        let p = &e.partition;
        let mut out: Vec<u64> = Vec::new();
        for gates in p.modules() {
            out.push(gates.len() as u64);
            for &g in gates {
                out.extend([u64::from(g.0), p.position_of(g).unwrap() as u64]);
            }
        }
        out.extend(p.assignment().iter().map(|&m| u64::from(m)));
        for (s, sens) in e.stats.iter().zip(&e.sensors) {
            out.extend(s.current_hist.iter().map(|v| v.to_bits()));
            out.extend(s.count_hist.iter().map(|&c| u64::from(c)));
            out.extend(
                [s.peak_current_ua, s.leakage_na, s.rail_cap_ff, s.cell_area].map(f64::to_bits),
            );
            out.extend([u64::from(s.peak_activity), s.separation]);
            out.extend([sens.rs_ohm, sens.area, sens.delta_ps].map(f64::to_bits));
            out.push(sens.violations as u64);
        }
        out.extend(e.weight.iter().map(|w| w.to_bits()));
        out.extend(e.arr.iter().map(|a| a.to_bits()));
        out.extend(e.dirty.iter().map(|&m| m as u64));
        out
    }

    /// A transaction with two settles, a one-gate move and then a batch
    /// that drains or splits a module, logs the delay state once, as one
    /// `Delay` snapshot. Rolling back restores the state of a clone taken
    /// at `begin_txn` bit for bit, on a generated c880 and a generated
    /// s1423.
    #[test]
    fn txn_rollback_through_two_settles() {
        let lib = Library::generic_1um();
        let c880 =
            iddq_gen::iscas::generate(iddq_gen::iscas::IscasProfile::by_name("c880").unwrap(), 5);
        let s1423 =
            iddq_gen::seq::generate(iddq_gen::seq::SeqProfile::by_name("s1423").unwrap(), 5);
        for nl in [&c880, &s1423] {
            let ctx = EvalContext::new(nl, &lib, PartitionConfig::paper_default());
            let mut e = Evaluated::new(&ctx, crate::start::chain_partition(&ctx, 60, 3));
            let mut rng = SmallRng::seed_from_u64(31);
            for round in 0..12 {
                let label = format!("{} round {round}", nl.name());
                let k = e.partition().module_count();
                assert!(k > 2, "{label}: too few modules");
                let before = e.clone();
                let before_cost = e.total_cost();
                e.begin_txn();
                // A one-gate move between two modules.
                let a = rng.gen_range(0..k);
                let g = e.partition().module(a)[0];
                e.move_gate(g, (a + rng.gen_range(1..k)) % k);
                e.settle();
                let _ = e.total_cost();
                // A batch out of one module (drained whole on even rounds).
                let k = e.partition().module_count();
                let source = rng.gen_range(0..k);
                let members = e.partition().module(source);
                let count = if round % 2 == 0 {
                    members.len()
                } else {
                    members.len().div_ceil(3)
                };
                let batch = members[..count].to_vec();
                e.move_gates(&batch, (source + 1) % k);
                e.settle();
                let log = e.txn.as_ref().unwrap();
                let snapshots = log
                    .ops
                    .iter()
                    .filter(|op| matches!(op, TxnOp::Delay(..)))
                    .count();
                assert_eq!(snapshots, 1, "{label}: one delay snapshot");
                e.verify_consistency();
                e.rollback_txn();
                assert_eq!(state_bits(&e), state_bits(&before), "{label}");
                assert_eq!(e.partition(), before.partition(), "{label}");
                assert_eq!(e.total_cost().to_bits(), before_cost.to_bits(), "{label}");
                e.verify_consistency();
                // Walk on to a different partition for the next round.
                if round % 3 == 2 {
                    let g = e.partition().module(0)[0];
                    e.move_gate(g, 1);
                    e.settle();
                }
            }
        }
    }

    #[test]
    fn txn_commit_keeps_changes() {
        let lib = Library::generic_1um();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gs = data::c17_paper_gates(&nl);
        let p = Partition::from_groups(
            &nl,
            vec![vec![gs[0], gs[2], gs[4]], vec![gs[1], gs[3], gs[5]]],
        )
        .unwrap();
        let mut e = Evaluated::new(&ctx, p);
        e.begin_txn();
        e.move_gate(gs[0], 1);
        e.settle();
        e.commit_txn();
        assert_eq!(e.partition().module_of(gs[0]), Some(1));
        e.verify_consistency();
    }

    #[test]
    fn scored_rollback_equals_clone_scoring() {
        // The evolution pattern: scoring on a scratch with rollback must
        // produce the same cost as scoring on a fresh clone.
        let lib = Library::generic_1um();
        let nl = data::ripple_adder(10);
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gates: Vec<_> = nl.gate_ids().collect();
        let third = gates.len() / 3;
        let p = Partition::from_groups(
            &nl,
            vec![
                gates[..third].to_vec(),
                gates[third..2 * third].to_vec(),
                gates[2 * third..].to_vec(),
            ],
        )
        .unwrap();
        let parent = Evaluated::new(&ctx, p);
        let mut scratch = parent.clone();
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..40 {
            let moves: Vec<(NodeId, usize)> = (0..rng.gen_range(1..5))
                .map(|_| {
                    (
                        gates[rng.gen_range(0..gates.len())],
                        rng.gen_range(0..parent.partition().module_count()),
                    )
                })
                .collect();
            scratch.begin_txn();
            let mut aborted = false;
            for &(g, t) in &moves {
                if t >= scratch.partition().module_count() {
                    aborted = true;
                    break;
                }
                scratch.move_gate(g, t);
            }
            let scored = if aborted {
                None
            } else {
                scratch.settle();
                Some(scratch.total_cost())
            };
            scratch.rollback_txn();
            if let Some(scored) = scored {
                let mut clone = parent.clone();
                for &(g, t) in &moves {
                    clone.move_gate(g, t);
                }
                clone.settle();
                assert_eq!(scored.to_bits(), clone.total_cost().to_bits());
            }
        }
    }

    #[test]
    fn boundary_gates_of_c17_halves() {
        let lib = Library::generic_1um();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gs = data::c17_paper_gates(&nl);
        // Paper's optimum {(g1,g3,g5),(g2,g4,g6)}: every gate touches the
        // other half (c17 is tiny and tightly connected).
        let p = Partition::from_groups(
            &nl,
            vec![vec![gs[0], gs[2], gs[4]], vec![gs[1], gs[3], gs[5]]],
        )
        .unwrap();
        let e = Evaluated::new(&ctx, p);
        let b0 = e.boundary_gates(0);
        assert!(!b0.is_empty());
        for g in b0 {
            assert_eq!(e.partition().module_of(g), Some(0));
        }
    }

    #[test]
    fn connected_modules_lists_neighbours_only() {
        let lib = Library::generic_1um();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gs = data::c17_paper_gates(&nl);
        let p = Partition::from_groups(
            &nl,
            vec![vec![gs[0]], vec![gs[1]], vec![gs[2], gs[3], gs[4], gs[5]]],
        )
        .unwrap();
        let e = Evaluated::new(&ctx, p);
        // g1 (gate 10) feeds gate 22 (module 2); shares PI 3 with g2=11
        // but PIs don't link modules in the gate graph... they do via
        // undirected neighbours only when directly connected. 10's gate
        // neighbours: 22 (module 2). So connected = [2].
        assert_eq!(e.connected_modules(gs[0]), vec![2]);
    }

    #[test]
    fn oversized_module_violates_discriminability() {
        // Shrink the threshold so even c17's six gates leak too much.
        let lib = Library::generic_1um();
        let nl = data::c17();
        let mut cfg = PartitionConfig::paper_default();
        cfg.d_min = 1e9;
        let ctx = EvalContext::new(&nl, &lib, cfg);
        let e = Evaluated::new(&ctx, Partition::single_module(&nl));
        let c = e.cost();
        assert!(!c.feasible());
        assert_eq!(c.violations, 1, "the rail constraint is independent of d");
        assert!(ctx.objective().total(&c) > 1e6);
    }

    #[test]
    fn module_removal_keeps_stats_aligned() {
        let lib = Library::generic_1um();
        let nl = data::c17();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gs = data::c17_paper_gates(&nl);
        let p = Partition::from_groups(
            &nl,
            vec![vec![gs[0]], vec![gs[1], gs[2]], vec![gs[3], gs[4], gs[5]]],
        )
        .unwrap();
        let mut e = Evaluated::new(&ctx, p);
        // Empty module 0; module 2 renumbers into slot 0.
        e.move_gate(gs[0], 1);
        assert_eq!(e.partition().module_count(), 2);
        e.settle();
        e.verify_consistency();
        let c = e.cost();
        assert_eq!(c.c5_modules, 2.0);
    }

    #[test]
    fn delay_overhead_grows_with_activity_concentration() {
        // All gates in one module (high simultaneous activity sharing one
        // bypass) vs spreading gates across modules.
        let lib = Library::generic_1um();
        let nl = data::ripple_adder(12);
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let one = Evaluated::new(&ctx, Partition::single_module(&nl)).cost();
        assert!(one.c2_delay > 0.0, "sensor must cost some delay");
        assert!(one.dbic_ps > ctx.nominal_delay_ps);
    }

    /// The cost bounds of a Monte-Carlo batch are sound: on random
    /// partitions of a generated c880 and a generated s1423 (with DFFs),
    /// the leakage pre-check ≤ the bound before the settle (critical-path
    /// floor) ≤ the bound after it ≤ the exact cost of the same batch
    /// moved with its row scans, and the separation floor ≤ the true
    /// total. The first batch of every partition empties its source
    /// module. A single-gate scanned move (the mutation shape) bounded
    /// before its settle stays ≤ its exact cost too, and the path floor
    /// rises above `D` in some cases.
    #[test]
    fn batch_cost_bounds_are_sound() {
        let lib = Library::generic_1um();
        let c880 =
            iddq_gen::iscas::generate(iddq_gen::iscas::IscasProfile::by_name("c880").unwrap(), 5);
        let s1423 =
            iddq_gen::seq::generate(iddq_gen::seq::SeqProfile::by_name("s1423").unwrap(), 5);
        let (mut strict, mut floor_above_d) = (0, 0);
        for nl in [&c880, &s1423] {
            let ctx = EvalContext::new(nl, &lib, PartitionConfig::paper_default());
            let gates: Vec<NodeId> = nl.gate_ids().collect();
            let mut rng = SmallRng::seed_from_u64(29);
            for round in 0..6 {
                // Chain-grown partitions (what the search starts from) and
                // uniformly random ones, which violate constraints.
                let partition = if round % 2 == 0 {
                    crate::start::chain_partition(&ctx, 60 + 30 * round, round as u64)
                } else {
                    let k = rng.gen_range(2..=6);
                    let mut groups = vec![Vec::new(); k];
                    for &g in &gates {
                        groups[rng.gen_range(0..k)].push(g);
                    }
                    groups.retain(|g| !g.is_empty());
                    Partition::from_groups(nl, groups).unwrap()
                };
                let mut e = Evaluated::new(&ctx, partition);
                for batch in 0..4 {
                    let k = e.partition().module_count();
                    if k < 2 {
                        break;
                    }
                    let source = rng.gen_range(0..k);
                    let target = (source + rng.gen_range(1..k)) % k;
                    let mut pool = e.partition().module(source).to_vec();
                    let count = if batch == 0 {
                        pool.len()
                    } else {
                        rng.gen_range(1..=pool.len())
                    };
                    let moved: Vec<NodeId> = (0..count)
                        .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
                        .collect();
                    let label = format!("{} round {round} batch {batch}", nl.name());
                    let leakage_bound = e.batch_leakage_bound(&moved, target);

                    e.begin_txn();
                    e.move_gates_unscanned(&moved, target);
                    let floor_bound = e.cost_lower_bound();
                    floor_above_d +=
                        usize::from(e.path_floor(&e.fresh_sensors()) > ctx.nominal_delay_ps);
                    let sep_floor = e.sep_floor.unwrap();
                    e.settle();
                    let settled_bound = e.cost_lower_bound();
                    // Checks the separation floor and D_BIC ≥ D.
                    e.verify_consistency();
                    e.rollback_txn();

                    e.begin_txn();
                    e.move_gates(&moved, target);
                    e.settle();
                    let exact = e.total_cost();
                    let separation = e.total_separation();
                    // Settled and scanned, the bound is the cost itself.
                    assert_eq!(e.cost_lower_bound().to_bits(), exact.to_bits(), "{label}");
                    e.rollback_txn();

                    assert!(leakage_bound <= floor_bound, "{label}");
                    assert!(floor_bound <= settled_bound, "{label}");
                    assert!(settled_bound <= exact, "{label}");
                    assert!(sep_floor <= separation, "{label}");
                    strict += usize::from(floor_bound < exact);

                    // One boundary gate moved with its scans into a
                    // connected module, bounded before its settle.
                    let k = e.partition().module_count();
                    let m = rng.gen_range(0..k);
                    let boundary = e.boundary_gates(m);
                    if let Some(&g) = boundary.get(rng.gen_range(0..boundary.len().max(1))) {
                        let targets = e.connected_modules(g);
                        let t = targets[rng.gen_range(0..targets.len())];
                        e.begin_txn();
                        e.move_gate(g, t);
                        let bound = e.cost_lower_bound();
                        floor_above_d +=
                            usize::from(e.path_floor(&e.fresh_sensors()) > ctx.nominal_delay_ps);
                        e.settle();
                        let exact = e.total_cost();
                        e.rollback_txn();
                        assert!(bound <= exact, "{label}: single gate");
                    }
                    // Move on from a different partition next batch.
                    if batch % 2 == 1 {
                        e.move_gates(&moved, target);
                        e.settle();
                    }
                }
            }
        }
        assert!(strict > 0, "every bound was tight: nothing was bounded");
        assert!(floor_above_d > 0, "the path floor never rose above D");
    }

    /// The rebased evaluator equals `Evaluated::new` of its partition bit
    /// for bit, after random committed moves and rolled-back
    /// transactions on a generated c880 and a generated s1423.
    #[test]
    fn rebase_equals_a_fresh_evaluation() {
        let lib = Library::generic_1um();
        let c880 =
            iddq_gen::iscas::generate(iddq_gen::iscas::IscasProfile::by_name("c880").unwrap(), 5);
        let s1423 =
            iddq_gen::seq::generate(iddq_gen::seq::SeqProfile::by_name("s1423").unwrap(), 5);
        for nl in [&c880, &s1423] {
            let ctx = EvalContext::new(nl, &lib, PartitionConfig::paper_default());
            let mut e = Evaluated::new(&ctx, crate::start::chain_partition(&ctx, 40, 3));
            let mut rng = SmallRng::seed_from_u64(37);
            for round in 0..8 {
                for _ in 0..rng.gen_range(1..6) {
                    let k = e.partition().module_count();
                    let boundary = e.boundary_gates(rng.gen_range(0..k));
                    let Some(&g) = boundary.first() else { continue };
                    let targets = e.connected_modules(g);
                    e.move_gate(g, targets[rng.gen_range(0..targets.len())]);
                }
                e.settle();
                e.begin_txn();
                let k = e.partition().module_count();
                let source = rng.gen_range(0..k);
                let batch = e.partition().module(source).to_vec();
                e.move_gates(&batch[..batch.len().div_ceil(2)], (source + 1) % k);
                e.settle();
                e.rollback_txn();
                let label = format!("{} round {round}", nl.name());
                let fresh = Evaluated::new(&ctx, e.partition().clone());
                assert_eq!(state_bits(&e.rebased()), state_bits(&fresh), "{label}");
            }
        }
    }

    /// The flat boundary scan lists the same gates, in the same order, as
    /// a walk of the netlist's undirected neighbours, after random
    /// committed moves on a generated c880 and a generated s1423.
    #[test]
    fn boundary_gates_match_the_netlist_walk() {
        let lib = Library::generic_1um();
        let c880 =
            iddq_gen::iscas::generate(iddq_gen::iscas::IscasProfile::by_name("c880").unwrap(), 5);
        let s1423 =
            iddq_gen::seq::generate(iddq_gen::seq::SeqProfile::by_name("s1423").unwrap(), 5);
        for nl in [&c880, &s1423] {
            let ctx = EvalContext::new(nl, &lib, PartitionConfig::paper_default());
            let gates: Vec<NodeId> = nl.gate_ids().collect();
            let mut e = Evaluated::new(&ctx, crate::start::chain_partition(&ctx, 50, 5));
            let mut rng = SmallRng::seed_from_u64(41);
            for round in 0..30 {
                for m in 0..e.partition().module_count() {
                    let walked: Vec<NodeId> = e
                        .partition()
                        .module(m)
                        .iter()
                        .copied()
                        .filter(|&g| {
                            nl.undirected_neighbors(g)
                                .any(|n| nl.is_gate(n) && e.partition().module_of(n) != Some(m))
                        })
                        .collect();
                    assert_eq!(e.boundary_gates(m), walked, "{} round {round}", nl.name());
                }
                let g = gates[rng.gen_range(0..gates.len())];
                e.move_gate(g, rng.gen_range(0..e.partition().module_count()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "an unscanned batch has no exact cost")]
    fn unscanned_batch_has_no_exact_cost() {
        let lib = Library::generic_1um();
        let nl = data::ripple_adder(4);
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gates: Vec<_> = nl.gate_ids().collect();
        let p =
            Partition::from_groups(&nl, vec![gates[..4].to_vec(), gates[4..].to_vec()]).unwrap();
        let mut e = Evaluated::new(&ctx, p);
        e.begin_txn();
        e.move_gates_unscanned(&gates[..2], 1);
        let _ = e.cost();
    }

    /// ISCAS-89 s27 plus a DFF fed straight by a DFF and a 4-input gate
    /// reading latched state: small, but every sequential corner of the
    /// arrival sweeps (a DFF whose D driver comes later in topological
    /// order, and one whose D driver is itself a path source) and a wide
    /// gate to decompose.
    pub(crate) fn seq_circuit() -> Netlist {
        let text = "\
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
OUTPUT(G19)
OUTPUT(G20)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G18 = DFF(G5)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
G19 = AND(G18, G17)
G20 = NAND(G18, G9, G13, G0)
";
        iddq_netlist::bench::parse("s27x", text).unwrap()
    }

    /// A DFF launches a fresh path: incremental settles that re-weight
    /// state elements agree with a from-scratch arrival sweep, and a
    /// fresh evaluation agrees with the levelized critical path.
    #[test]
    fn sequential_arrivals_start_at_state_elements() {
        let nl = seq_circuit();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let eval = Evaluated::new(&ctx, Partition::single_module(&nl));
        let dbic = iddq_netlist::levelize::critical_path_delay(&nl, &eval.weight);
        assert_eq!(eval.cost().dbic_ps.to_bits(), dbic.to_bits());
        let gates: Vec<NodeId> = nl.gate_ids().collect();
        let (a, b) = gates.split_at(gates.len() / 2);
        let part = Partition::from_groups(&nl, vec![a.to_vec(), b.to_vec()]).unwrap();
        let mut eval2 = Evaluated::new(&ctx, part);
        for &g in nl.state_elements().iter().chain(&gates) {
            let m = eval2.partition().module_of(g).unwrap();
            if eval2.partition().module(m).len() > 1 {
                let _ = eval2.move_gate(g, 1 - m);
            }
            eval2.settle();
            eval2.verify_consistency();
        }
        eval.verify_consistency();
    }
}

#[cfg(test)]
mod estimator_edge_tests {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::partition::Partition;
    use iddq_celllib::Library;
    use iddq_netlist::{CellKind, NetlistBuilder};

    /// Two inverter chains of different depth in one module: their
    /// transition windows are disjoint singletons per grid step, so the
    /// module peak equals the *maximum* single-time sum, not the total.
    #[test]
    fn staggered_gates_do_not_sum_into_the_peak() {
        let mut b = NetlistBuilder::new("stagger");
        let i = b.add_input("i");
        let g1 = b.add_gate("g1", CellKind::Not, vec![i]).unwrap();
        let g2 = b.add_gate("g2", CellKind::Not, vec![g1]).unwrap();
        let g3 = b.add_gate("g3", CellKind::Not, vec![g2]).unwrap();
        b.mark_output(g3);
        let nl = b.build().unwrap();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let eval = Evaluated::new(&ctx, Partition::single_module(&nl));
        let s = &eval.stats()[0];
        let per_gate = ctx.tables.peak_current_ua[g1.index()];
        // A pure chain has singleton, pairwise-disjoint transition times.
        assert!((s.peak_current_ua - per_gate).abs() < 1e-9);
        assert_eq!(s.peak_activity, 1);
    }

    /// Reconvergent fan-out within one module *does* stack: both branch
    /// gates can switch at the same grid time.
    #[test]
    fn parallel_branches_stack_into_the_peak() {
        let mut b = NetlistBuilder::new("par");
        let i = b.add_input("i");
        let a = b.add_gate("a", CellKind::Not, vec![i]).unwrap();
        let c = b.add_gate("c", CellKind::Not, vec![i]).unwrap();
        let o = b.add_gate("o", CellKind::And, vec![a, c]).unwrap();
        b.mark_output(o);
        let nl = b.build().unwrap();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let eval = Evaluated::new(&ctx, Partition::single_module(&nl));
        let s = &eval.stats()[0];
        let per_inv = ctx.tables.peak_current_ua[a.index()];
        assert!(s.peak_current_ua >= 2.0 * per_inv - 1e-9);
        assert!(s.peak_activity >= 2);
    }

    /// An infeasible (rail-violating) module is reported as such and the
    /// report leaves its sensor fields empty.
    #[test]
    fn infeasible_module_reported_without_sensor() {
        let nl = iddq_netlist::data::c17();
        let lib = Library::generic_1um();
        let mut cfg = PartitionConfig::paper_default();
        // Impossibly strict rail budget: r* = 1e-6 mV.
        cfg.sizing.r_star_mv = 1e-6;
        let ctx = EvalContext::new(&nl, &lib, cfg);
        let eval = Evaluated::new(&ctx, Partition::single_module(&nl));
        let cost = eval.cost();
        assert!(!cost.feasible());
        let report = crate::flow::report_for(&eval);
        assert!(!report.feasible);
        assert!(report.modules[0].rs_ohm.is_none());
        assert!(report.modules[0].sensor_area.is_none());
    }
}
