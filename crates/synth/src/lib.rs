//! IDDQ-aware resynthesis — the paper's stated next step.
//!
//! The conclusions of the paper: "So far only resynthesis for including
//! BIC sensors has been considered. Next step is controlling the logic
//! synthesis procedure such that the presented cost function is
//! considered at the early beginning."
//!
//! This crate implements that step for two classic structural choices:
//!
//! * [`decompose`] — wide gates are decomposed into 2-input trees, either
//!   **balanced** (minimum depth — the timing-driven default of ordinary
//!   synthesis) or **chain** (linear). Which shape the §3.1 peak-current
//!   estimator prefers is *not* obvious: a chain stage always keeps one
//!   direct (early-arriving) input, so under the pessimistic
//!   simultaneity analysis every stage of a flat wide gate is *also*
//!   reachable at the earliest grid step and chains can pile up instead
//!   of staggering — exactly the kind of interaction that motivates
//!   measuring with the real cost function instead of assuming.
//! * [`fanout_buffer`] — high-fanout nets get buffer trees, bounding the
//!   load a single driver discharges at once (buffer fan-ins count
//!   against the driver, and buffers cascade when one layer cannot carry
//!   the load within the bound).
//! * [`cost_aware_per_gate_in`] — offers every wide gate both
//!   decomposition shapes and keeps whichever lowers the *partitioning*
//!   cost function of `iddq-core`, i.e. logic synthesis steered by the
//!   IDDQ-testability objective.
//!
//! Candidates are scored **by patch** on one persistent
//! [`iddq_core::resynth::ResynthEval`]: [`decompose_gate_patch`]
//! expresses one gate's rewrite as an [`iddq_netlist::patch::Patch`],
//! applied and rolled back against a single evaluation instead of
//! rebuilding a netlist and its analyses per candidate.
//! [`decompose_patch`] and [`fanout_buffer_patch`] give the
//! whole-netlist transforms in the same form.
//!
//! All transforms preserve logic function (property-tested against the
//! 64-way simulator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use iddq_control::{EngineError, Outcome, RunControl, StopReason};
use iddq_core::{EvalContext, ResynthEval};
use iddq_netlist::patch::{self, Patch, PatchOp};
use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::{CellKind, Netlist, NetlistBuilder, NodeId};

/// Topology used when a wide gate is decomposed into 2-input stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompositionStyle {
    /// Minimum-depth tree: all leaves switch in lock-step — fast, but the
    /// whole tree draws current at once.
    Balanced,
    /// Linear chain: deeper, with stage arrivals spread over many grid
    /// steps — but each stage keeps one direct leaf input, so the
    /// pessimistic §3.1 analysis also admits early switching for every
    /// stage. See the crate docs for why this usually *loses* on flat
    /// wide gates.
    Chain,
}

/// Validates a decomposition fan-in bound: stages need at least two
/// inputs.
fn check_fanin_bound(max_fanin: usize) -> Result<(), EngineError> {
    if max_fanin < 2 {
        return Err(EngineError::InvalidArg(format!(
            "fan-in bound {max_fanin}: decomposition stages need at least two inputs"
        )));
    }
    Ok(())
}

/// Validates a buffer-tree fan-out bound: a buffer spends one unit of its
/// driver's budget and offers `max_fanout` units, so a bound of 1 can
/// never serve more than one consumer.
fn check_fanout_bound(max_fanout: usize) -> Result<(), EngineError> {
    if max_fanout < 2 {
        return Err(EngineError::InvalidArg(format!(
            "fan-out bound {max_fanout}: a bound below 2 cannot host buffer cascades"
        )));
    }
    Ok(())
}

/// Decomposes every gate with more than `max_fanin` inputs into a tree of
/// `max_fanin`-input (in practice 2-input) stages of the same logic
/// family, preserving the overall function.
///
/// Inverting kinds (`NAND`, `NOR`, `XNOR`) become a tree of their
/// non-inverting base function with the inversion folded into the final
/// stage, so the output polarity is untouched.
///
/// # Errors
///
/// [`EngineError::InvalidArg`] if `max_fanin < 2` — a caller-supplied
/// parameter must never abort the process.
// Rebuilding a valid netlist gate-by-gate in topological order cannot
// produce duplicate names or dangling drivers; the `expect`s assert
// that equivalence-preserving contract, not caller input.
#[allow(clippy::expect_used)]
pub fn decompose(
    netlist: &Netlist,
    style: DecompositionStyle,
    max_fanin: usize,
) -> Result<Netlist, EngineError> {
    check_fanin_bound(max_fanin)?;
    let mut b = NetlistBuilder::new(format!("{}_{}", netlist.name(), style_tag(style)));
    let mut map: Vec<Option<NodeId>> = vec![None; netlist.node_count()];
    let mut fresh = 0usize;

    // Primary inputs keep their declaration order (the simulator and any
    // vector set index inputs by position).
    for &i in netlist.inputs() {
        map[i.index()] = Some(
            b.try_add_input(netlist.node_name(i))
                .expect("names unique in source"),
        );
    }
    for &id in netlist.topo_order() {
        let node = netlist.node(id);
        let name = netlist.node_name(id);
        let new_id = match node.kind().cell_kind() {
            None => continue,
            Some(kind) => {
                let fanin: Vec<NodeId> = node
                    .fanin()
                    .iter()
                    .map(|f| map[f.index()].expect("topological order maps drivers first"))
                    .collect();
                if fanin.len() <= max_fanin {
                    b.add_gate(name, kind, fanin).expect("source names unique")
                } else {
                    build_tree(&mut b, name, kind, &fanin, style, &mut fresh)
                }
            }
        };
        map[id.index()] = Some(new_id);
    }
    for &o in netlist.outputs() {
        b.mark_output(map[o.index()].expect("all nodes mapped"));
    }
    Ok(b.build()
        .expect("decomposition preserves structural validity"))
}

fn style_tag(style: DecompositionStyle) -> &'static str {
    match style {
        DecompositionStyle::Balanced => "bal",
        DecompositionStyle::Chain => "chain",
    }
}

/// The non-inverting base function of a kind, plus whether the final
/// stage must invert.
fn base_kind(kind: CellKind) -> (CellKind, bool) {
    match kind {
        CellKind::Nand => (CellKind::And, true),
        CellKind::Nor => (CellKind::Or, true),
        CellKind::Xnor => (CellKind::Xor, true),
        other => (other, false),
    }
}

// Intermediate names are minted fresh from a counter the caller owns.
#[allow(clippy::expect_used)]
fn build_tree(
    b: &mut NetlistBuilder,
    out_name: &str,
    kind: CellKind,
    leaves: &[NodeId],
    style: DecompositionStyle,
    fresh: &mut usize,
) -> NodeId {
    let (base, invert_last) = base_kind(kind);
    // Reduce the leaves to exactly two operands with `base`, then emit the
    // final (possibly inverting) 2-input stage under the original name.
    let mut frontier: Vec<NodeId> = leaves.to_vec();
    let intermediate = |b: &mut NetlistBuilder, fanin: Vec<NodeId>, fresh: &mut usize| {
        *fresh += 1;
        b.add_gate(format!("{out_name}__d{fresh}"), base, fanin)
            .expect("generated names unique")
    };
    match style {
        DecompositionStyle::Chain => {
            // ((a ∘ b) ∘ c) ∘ d …, keeping the last two for the final
            // stage.
            while frontier.len() > 2 {
                let a = frontier.remove(0);
                let c = frontier.remove(0);
                let g = intermediate(b, vec![a, c], fresh);
                frontier.insert(0, g);
            }
        }
        DecompositionStyle::Balanced => {
            // Pairwise rounds until two operands remain.
            while frontier.len() > 2 {
                let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
                let mut it = frontier.chunks(2);
                for chunk in &mut it {
                    if chunk.len() == 2 {
                        next.push(intermediate(b, vec![chunk[0], chunk[1]], fresh));
                    } else {
                        next.push(chunk[0]);
                    }
                }
                frontier = next;
            }
        }
    }
    let final_kind = if invert_last {
        match base {
            CellKind::And => CellKind::Nand,
            CellKind::Or => CellKind::Nor,
            CellKind::Xor => CellKind::Xnor,
            _ => unreachable!("inverting kinds reduce to And/Or/Xor"),
        }
    } else {
        base
    };
    b.add_gate(out_name, final_kind, frontier)
        .expect("source names unique")
}

/// The tap schedule of one buffered net: every copy of the signal
/// (original node first, then cascade buffers) with its remaining
/// consumer capacity. Buffer fan-ins are charged against their driver's
/// capacity at construction time, so the schedule's capacities are what
/// is left for *logic* consumers and no tap can ever exceed the bound.
struct TapSchedule {
    /// `(tap, remaining capacity)` in creation order.
    taps: Vec<(NodeId, usize)>,
    /// Index of the first tap with remaining capacity.
    cursor: usize,
}

impl TapSchedule {
    /// A schedule for a net with `fanout` consumers under `bound`,
    /// creating cascade buffers through `make_buffer` (which receives the
    /// driving tap and a running buffer index) until the total capacity
    /// covers the load. Each buffer consumes one unit of its driver's
    /// capacity and contributes `bound` fresh units, so progress requires
    /// `bound >= 2`.
    fn build(
        source: NodeId,
        fanout: usize,
        bound: usize,
        mut make_buffer: impl FnMut(NodeId, usize) -> NodeId,
    ) -> TapSchedule {
        let mut taps = vec![(source, bound)];
        let mut total = bound;
        let mut attach = 0usize;
        let mut k = 0usize;
        while total < fanout {
            while taps[attach].1 == 0 {
                attach += 1;
            }
            taps[attach].1 -= 1;
            let buf = make_buffer(taps[attach].0, k);
            k += 1;
            taps.push((buf, bound));
            total += bound - 1;
        }
        TapSchedule { taps, cursor: 0 }
    }

    /// Draws the next consumer slot.
    fn draw(&mut self) -> NodeId {
        while self.taps[self.cursor].1 == 0 {
            self.cursor += 1;
        }
        self.taps[self.cursor].1 -= 1;
        self.taps[self.cursor].0
    }
}

/// Inserts buffer trees on nets driving more than `max_fanout` consumers,
/// splitting the load into groups.
///
/// The bound holds for **every** net of the output netlist: buffer
/// fan-ins count against their driver (the original node's consumers plus
/// the buffers it feeds never exceed `max_fanout`), and the buffers
/// themselves cascade — when one layer of buffers cannot serve the load
/// within the bound, further buffers hang off earlier ones, forming a
/// `max_fanout`-ary distribution tree.
///
/// Primary-output markers stay on the original net (observability is
/// unchanged); only gate fan-ins are rerouted through the buffers.
///
/// # Errors
///
/// [`EngineError::InvalidArg`] if `max_fanout < 2`: a buffer spends one
/// unit of its driver's budget and offers `max_fanout` units, so a bound
/// of 1 can never serve more than one consumer — no buffer tree
/// satisfies it, and a caller-supplied parameter must never abort the
/// process (the CLI maps this error to exit code 2).
// Same rebuild-of-a-valid-netlist contract as `decompose`.
#[allow(clippy::expect_used)]
pub fn fanout_buffer(netlist: &Netlist, max_fanout: usize) -> Result<Netlist, EngineError> {
    check_fanout_bound(max_fanout)?;
    let mut b = NetlistBuilder::new(format!("{}_buf", netlist.name()));
    let mut map: Vec<Option<NodeId>> = vec![None; netlist.node_count()];
    // Per original node: the tap schedule its consumers draw from.
    let mut taps: Vec<Option<TapSchedule>> = (0..netlist.node_count()).map(|_| None).collect();

    for &i in netlist.inputs() {
        map[i.index()] = Some(b.try_add_input(netlist.node_name(i)).expect("names unique"));
    }
    for &id in netlist.topo_order() {
        let node = netlist.node(id);
        let name = netlist.node_name(id);
        let new_id = match node.kind().cell_kind() {
            None => {
                // Input already added; still set up its taps below.
                map[id.index()].expect("inputs pre-mapped")
            }
            Some(kind) => {
                let fanin: Vec<NodeId> = node
                    .fanin()
                    .iter()
                    .map(|f| taps[f.index()].as_mut().expect("drivers first").draw())
                    .collect();
                b.add_gate(name, kind, fanin).expect("names unique")
            }
        };
        map[id.index()] = Some(new_id);
        let fanout = netlist.fanout(id).len();
        taps[id.index()] = Some(TapSchedule::build(new_id, fanout, max_fanout, |tap, k| {
            b.add_gate(format!("{name}__buf{k}"), CellKind::Buf, vec![tap])
                .expect("generated names unique")
        }));
    }
    for &o in netlist.outputs() {
        b.mark_output(map[o.index()].expect("all nodes mapped"));
    }
    Ok(b.build().expect("buffering preserves structural validity"))
}

/// Emits the decomposition of one wide gate as a [`Patch`]: 2-input
/// intermediate stages of the gate's base function are appended starting
/// at id `next_id`, and the gate itself is rewired onto the last two
/// operands — its kind is untouched, because the inversion of
/// NAND/NOR/XNOR folds into the final stage, which *is* the original
/// node. Consumers and the gate's id/name therefore never move, which is
/// what lets per-gate patches compose freely.
///
/// Returns `Ok(None)` when the gate has at most `max_fanin` inputs (or
/// is a primary input).
///
/// # Errors
///
/// [`EngineError::InvalidArg`] if `max_fanin < 2`.
pub fn decompose_gate_patch(
    netlist: &Netlist,
    gate: NodeId,
    style: DecompositionStyle,
    max_fanin: usize,
    next_id: u32,
) -> Result<Option<Patch>, EngineError> {
    check_fanin_bound(max_fanin)?;
    Ok(decompose_gate_patch_inner(
        netlist, gate, style, max_fanin, next_id,
    ))
}

/// [`decompose_gate_patch`] past validation (`max_fanin >= 2` guaranteed
/// by the caller).
fn decompose_gate_patch_inner(
    netlist: &Netlist,
    gate: NodeId,
    style: DecompositionStyle,
    max_fanin: usize,
    next_id: u32,
) -> Option<Patch> {
    let node = netlist.node(gate);
    let kind = node.kind().cell_kind()?;
    if node.fanin().len() <= max_fanin {
        return None;
    }
    let (base, _) = base_kind(kind);
    let mut ops = Vec::new();
    let mut id = next_id;
    let mut frontier: Vec<NodeId> = node.fanin().to_vec();
    let emit = |ops: &mut Vec<PatchOp>, fanin: Vec<NodeId>, id: &mut u32| {
        let gate = NodeId(*id);
        *id += 1;
        ops.push(PatchOp::AddGate {
            gate,
            kind: base,
            fanin,
        });
        gate
    };
    match style {
        DecompositionStyle::Chain => {
            while frontier.len() > 2 {
                let a = frontier.remove(0);
                let c = frontier.remove(0);
                let g = emit(&mut ops, vec![a, c], &mut id);
                frontier.insert(0, g);
            }
        }
        DecompositionStyle::Balanced => {
            while frontier.len() > 2 {
                let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
                for chunk in frontier.chunks(2) {
                    if chunk.len() == 2 {
                        next.push(emit(&mut ops, vec![chunk[0], chunk[1]], &mut id));
                    } else {
                        next.push(chunk[0]);
                    }
                }
                frontier = next;
            }
        }
    }
    ops.push(PatchOp::SetFanin {
        gate,
        fanin: frontier,
    });
    Some(Patch { ops })
}

/// The whole-netlist decomposition of [`decompose`] as one [`Patch`]
/// (every wide gate, in topological order, intermediate ids appended
/// sequentially from the netlist's node count).
///
/// # Errors
///
/// [`EngineError::InvalidArg`] if `max_fanin < 2`.
pub fn decompose_patch(
    netlist: &Netlist,
    style: DecompositionStyle,
    max_fanin: usize,
) -> Result<Patch, EngineError> {
    check_fanin_bound(max_fanin)?;
    Ok(decompose_patch_inner(netlist, style, max_fanin))
}

/// [`decompose_patch`] past validation.
fn decompose_patch_inner(netlist: &Netlist, style: DecompositionStyle, max_fanin: usize) -> Patch {
    let mut ops = Vec::new();
    let mut next_id = netlist.node_count() as u32;
    for &id in netlist.topo_order() {
        if let Some(p) = decompose_gate_patch_inner(netlist, id, style, max_fanin, next_id) {
            next_id += p.ops.len() as u32 - 1; // every op but the SetFanin adds a node
            ops.extend(p.ops);
        }
    }
    Patch { ops }
}

/// The buffer-tree insertion of [`fanout_buffer`] as one [`Patch`]:
/// cascade buffers appended from `netlist.node_count()`, consumers of
/// over-bound nets rewired onto the tap schedule. The bound accounting is
/// identical to [`fanout_buffer`] (buffer fan-ins charged to the driver,
/// cascading when a single layer cannot carry the load).
///
/// # Errors
///
/// [`EngineError::InvalidArg`] if `max_fanout < 2` (see
/// [`fanout_buffer`]).
pub fn fanout_buffer_patch(netlist: &Netlist, max_fanout: usize) -> Result<Patch, EngineError> {
    check_fanout_bound(max_fanout)?;
    let mut adds: Vec<PatchOp> = Vec::new();
    let mut next_id = netlist.node_count() as u32;
    // Consumers' pending fan-in lists (only over-bound drivers rewrite).
    let mut pending: Vec<Option<Vec<NodeId>>> = vec![None; netlist.node_count()];
    for &id in netlist.topo_order() {
        let consumers = netlist.fanout(id);
        if consumers.len() <= max_fanout {
            continue;
        }
        let mut schedule = TapSchedule::build(id, consumers.len(), max_fanout, |tap, _| {
            let gate = NodeId(next_id);
            next_id += 1;
            adds.push(PatchOp::AddGate {
                gate,
                kind: CellKind::Buf,
                fanin: vec![tap],
            });
            gate
        });
        // Rewire every occurrence of `id` in every consumer, drawing one
        // tap per pin (a consumer may read the same net on several pins).
        let mut seen: Vec<NodeId> = Vec::new();
        for &c in consumers {
            if seen.contains(&c) {
                continue;
            }
            seen.push(c);
            let fanin = pending[c.index()].get_or_insert_with(|| netlist.node(c).fanin().to_vec());
            for slot in fanin.iter_mut().filter(|slot| **slot == id) {
                *slot = schedule.draw();
            }
        }
    }
    let rewires = pending
        .into_iter()
        .enumerate()
        .filter_map(|(i, fanin)| fanin.map(|fanin| (NodeId(i as u32), fanin)))
        .map(|(gate, fanin)| PatchOp::SetFanin { gate, fanin });
    adds.extend(rewires);
    Ok(Patch { ops: adds })
}

/// The shapes [`cost_aware_per_gate_in`] probes per wide gate, in order.
const STYLES: [DecompositionStyle; 2] = [DecompositionStyle::Balanced, DecompositionStyle::Chain];

/// Outcome of [`cost_aware_per_gate_in`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerGateReport {
    /// Single-module cost of the original netlist.
    pub original_cost: f64,
    /// Cost of the greedy per-gate mixed decomposition.
    pub mixed_cost: f64,
    /// Wide gates decomposed with the balanced shape.
    pub balanced_gates: usize,
    /// Wide gates decomposed with the chain shape.
    pub chain_gates: usize,
    /// Wide gates left flat.
    pub kept_gates: usize,
    /// Candidate patches probed (two per wide gate reached).
    pub probes: usize,
    /// Probes whose lower bound already lost, so their separation was
    /// never refreshed (see [`ResynthEval::probe`]).
    pub pruned_probes: usize,
}

/// Per-gate cost-steered resynthesis: every wide gate is offered both
/// decomposition shapes and keeps whichever (if either) lowers the cost
/// of the *current* mixed candidate — a greedy descent that patch
/// scoring makes affordable.
///
/// Each wide gate gets two [`ResynthEval::probe`]s on one persistent
/// evaluation, each against `min(current, best so far)`. A probe whose
/// lower bound (its cost at the pre-patch separation, which a
/// decomposition cannot lower) already loses is pruned before the
/// separation refresh; the rest are scored exactly. A losing probe is
/// rolled back, a winning chain probe — the last one — is committed in
/// place, and a winning balanced probe is re-applied and committed. The
/// committed patches, and so the returned netlist and `mixed_cost`, are
/// those of scoring every probe exactly; [`PerGateReport`] counts the
/// probes and the pruned ones. `ctx` needs the `GateSep` tier or above
/// (see [`ResynthEval::new`]).
#[must_use]
pub fn cost_aware_per_gate_in(ctx: &EvalContext<'_>) -> (Netlist, PerGateReport) {
    let (out, report, _) =
        cost_aware_per_gate_in_with_control(ctx, &RunControl::unlimited()).into_value();
    (out, report)
}

/// [`cost_aware_per_gate_in`] under cooperative control, also handing
/// out the search's final separation rows as the
/// [`GateSeparationTable`] of the returned netlist (equal to
/// [`GateSeparationTable::direct`] of it; `None` only if the evaluation
/// holds no maintained rows), so the caller's next analysis context can
/// be built around it
/// ([`EvalContextBuilder::sep_table`](iddq_core::EvalContextBuilder::sep_table)).
/// The greedy descent checks the budget at each wide-gate boundary
/// (charging one quota unit per probe, two probes per gate); on a stop
/// the gates committed so far are materialized and returned as
/// [`Outcome::Partial`] — a prefix of the greedy descent, which is
/// itself a valid (equivalence-preserving) mixed decomposition, with
/// its table. Coverage is the fraction of wide gates whose probes ran.
// Per-gate probes only target gates the wide-gate filter selected, so
// `decompose_gate_patch_inner` always yields a patch, and committed
// patches re-validate by construction.
#[allow(clippy::expect_used)]
pub fn cost_aware_per_gate_in_with_control(
    ctx: &EvalContext<'_>,
    control: &RunControl,
) -> Outcome<(Netlist, PerGateReport, Option<GateSeparationTable>)> {
    let netlist = ctx.netlist;
    let mut eval = ResynthEval::new(ctx);
    let original_cost = eval.total_cost();
    let mut current = original_cost;
    let mut committed: Vec<Patch> = Vec::new();
    let mut report = PerGateReport {
        original_cost,
        mixed_cost: original_cost,
        balanced_gates: 0,
        chain_gates: 0,
        kept_gates: 0,
        probes: 0,
        pruned_probes: 0,
    };
    let wide: Vec<_> = netlist
        .topo_order()
        .iter()
        .copied()
        .filter(|&g| {
            netlist.node(g).kind().cell_kind().is_some() && netlist.node(g).fanin().len() > 2
        })
        .collect();
    let total_wide = wide.len();
    let mut stopped: Option<StopReason> = None;
    let mut gates_probed = 0usize;
    for gate in wide {
        if let Some(reason) = control.check() {
            stopped = Some(reason);
            break;
        }
        let mut best: Option<(f64, DecompositionStyle, Patch)> = None;
        // Whether the winner is still applied: a winning *last* probe is
        // committed in place instead of rolled back and re-applied (the
        // derived state is a pure function of structure, so both give
        // the same bits).
        let mut winner_applied = false;
        for style in STYLES {
            let patch =
                decompose_gate_patch_inner(netlist, gate, style, 2, eval.node_count() as u32)
                    .expect("gate is wide");
            let beat = best.as_ref().map_or(current, |(b, _, _)| current.min(*b));
            let probed = eval
                .probe(&patch, beat)
                .expect("per-gate patches are valid");
            control.charge(1);
            report.probes += 1;
            let Some(cost) = probed else {
                // Pruned: it could not win and is rolled back already.
                report.pruned_probes += 1;
                winner_applied = false;
                continue;
            };
            let wins = cost < beat;
            winner_applied = wins && style == STYLES[STYLES.len() - 1];
            if !winner_applied {
                eval.rollback();
            }
            if wins {
                best = Some((cost, style, patch));
            }
        }
        gates_probed += 1;
        match best {
            Some((cost, style, patch)) => {
                if !winner_applied {
                    eval.apply(&patch).expect("re-applying a probed patch");
                }
                eval.commit();
                current = cost;
                match style {
                    DecompositionStyle::Balanced => report.balanced_gates += 1,
                    DecompositionStyle::Chain => report.chain_gates += 1,
                }
                committed.push(patch);
            }
            None => report.kept_gates += 1,
        }
    }
    report.mixed_cost = current;
    // Every probe is committed or rolled back at a gate boundary, so the
    // rows are those of the committed patches: of `out`.
    let table = eval.into_sep_table();
    let out = patch::materialize(netlist, &Patch::concat(&committed)).expect("valid candidate");
    match stopped {
        None => Outcome::Complete((out, report, table)),
        Some(reason) => Outcome::Partial {
            value: (out, report, table),
            coverage: if total_wide == 0 {
                1.0
            } else {
                gates_probed as f64 / total_wide as f64
            },
            reason,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_celllib::Library;
    use iddq_core::{config::PartitionConfig, AnalysisTier, Evaluated, Partition};
    use iddq_logicsim::Simulator;
    use iddq_netlist::data;

    /// Logic equivalence of two netlists over packed pseudo-random
    /// vectors, matching outputs by name.
    fn assert_equivalent(a: &Netlist, b: &Netlist) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        assert_eq!(a.num_outputs(), b.num_outputs());
        let sim_a = Simulator::new(a);
        let sim_b = Simulator::new(b);
        for round in 0u64..4 {
            let inputs: Vec<u64> = (0..a.num_inputs() as u64)
                .map(|i| {
                    (round + 1)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left((i % 63) as u32)
                })
                .collect();
            let va = sim_a.eval(&inputs);
            let vb = sim_b.eval(&inputs);
            for &o in a.outputs() {
                let ob = b.find(a.node_name(o)).expect("outputs share names");
                assert_eq!(va[o.index()], vb[ob.index()], "output {}", a.node_name(o));
            }
        }
    }

    fn wide_gate_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("wide");
        let ins: Vec<NodeId> = (0..6).map(|i| b.add_input(format!("i{i}"))).collect();
        let n = b.add_gate("n6", CellKind::Nand, ins.clone()).unwrap();
        let o = b.add_gate("o5", CellKind::Nor, ins[..5].to_vec()).unwrap();
        let x = b.add_gate("x6", CellKind::Xnor, ins.clone()).unwrap();
        let a = b.add_gate("a4", CellKind::And, ins[2..6].to_vec()).unwrap();
        for g in [n, o, x, a] {
            b.mark_output(g);
        }
        b.build().unwrap()
    }

    #[test]
    fn balanced_decomposition_preserves_logic() {
        let nl = wide_gate_circuit();
        let dec = decompose(&nl, DecompositionStyle::Balanced, 2).unwrap();
        assert_equivalent(&nl, &dec);
        // All gates now 2-input.
        for g in dec.gate_ids() {
            assert!(dec.node(g).fanin().len() <= 2);
        }
    }

    #[test]
    fn chain_decomposition_preserves_logic() {
        let nl = wide_gate_circuit();
        let dec = decompose(&nl, DecompositionStyle::Chain, 2).unwrap();
        assert_equivalent(&nl, &dec);
    }

    #[test]
    fn chain_is_deeper_than_balanced() {
        let nl = wide_gate_circuit();
        let bal = decompose(&nl, DecompositionStyle::Balanced, 2).unwrap();
        let ch = decompose(&nl, DecompositionStyle::Chain, 2).unwrap();
        assert!(
            iddq_netlist::levelize::depth(&ch) > iddq_netlist::levelize::depth(&bal),
            "chains trade depth for staggered switching"
        );
        assert_eq!(
            bal.gate_count(),
            ch.gate_count(),
            "same stage count either way"
        );
    }

    #[test]
    fn narrow_gates_untouched() {
        let nl = data::c17(); // all NAND2
        let dec = decompose(&nl, DecompositionStyle::Balanced, 2).unwrap();
        assert_eq!(dec.gate_count(), nl.gate_count());
        assert_equivalent(&nl, &dec);
    }

    #[test]
    fn generated_circuit_decomposition_equivalence() {
        let p = iddq_gen::iscas::IscasProfile::by_name("c432").unwrap();
        let nl = iddq_gen::iscas::generate(p, 5);
        for style in [DecompositionStyle::Balanced, DecompositionStyle::Chain] {
            let dec = decompose(&nl, style, 2).unwrap();
            assert_equivalent(&nl, &dec);
        }
    }

    #[test]
    fn fanout_buffering_preserves_logic_and_bounds_fanout() {
        let p = iddq_gen::iscas::IscasProfile::by_name("c432").unwrap();
        let nl = iddq_gen::iscas::generate(p, 8);
        let buffered = fanout_buffer(&nl, 4).unwrap();
        assert_equivalent(&nl, &buffered);
        // The bound holds for *every* net of the output — original
        // drivers and buffers alike, with buffer fan-ins counted as load.
        for id in buffered.node_ids() {
            assert!(
                buffered.fanout(id).len() <= 4,
                "net {} drives {} > 4 consumers",
                buffered.node_name(id),
                buffered.fanout(id).len()
            );
        }
        // The original circuit genuinely exceeds the bound somewhere, so
        // the assertion above is not vacuous.
        assert!(nl.node_ids().any(|id| nl.fanout(id).len() > 4));
    }

    #[test]
    fn fanout_buffering_cascades_on_extreme_fanout() {
        // One driver feeding 23 consumers under a bound of 3: a single
        // buffer layer cannot carry this (the driver would feed 8
        // buffers), so buffers must hang off buffers.
        let mut b = NetlistBuilder::new("wide-net");
        let i = b.add_input("i");
        let j = b.add_input("j");
        let src = b.add_gate("src", CellKind::And, vec![i, j]).unwrap();
        for k in 0..23 {
            let g = b
                .add_gate(format!("c{k}"), CellKind::Not, vec![src])
                .unwrap();
            b.mark_output(g);
        }
        let nl = b.build().unwrap();
        let buffered = fanout_buffer(&nl, 3).unwrap();
        assert_equivalent(&nl, &buffered);
        for id in buffered.node_ids() {
            assert!(
                buffered.fanout(id).len() <= 3,
                "net {} over-loaded",
                buffered.node_name(id)
            );
        }
        // Some buffer is driven by another buffer (a real cascade).
        assert!(buffered.node_ids().any(|id| {
            buffered.node_name(id).contains("__buf")
                && buffered
                    .node(id)
                    .fanin()
                    .iter()
                    .any(|f| buffered.node_name(*f).contains("__buf"))
        }));
    }

    #[test]
    fn fanout_bound_below_two_is_a_typed_error() {
        let nl = data::c17();
        for bad in [0, 1] {
            match fanout_buffer(&nl, bad) {
                Err(EngineError::InvalidArg(msg)) => {
                    assert!(msg.contains("cannot host buffer cascades"), "{msg}");
                }
                other => panic!("expected InvalidArg, got {other:?}"),
            }
            assert!(matches!(
                fanout_buffer_patch(&nl, bad),
                Err(EngineError::InvalidArg(_))
            ));
        }
    }

    #[test]
    fn pessimistic_estimator_penalizes_chains_on_flat_gates() {
        // Every chain stage keeps a direct primary-input fan-in, so the
        // §3.1 union-over-paths analysis lets *all* stages switch at the
        // earliest grid step too — the chain accumulates both the early
        // pile-up and the staggered copies, and the balanced tree wins.
        // This is the measured fact the cost-aware chooser relies on.
        let mut b = NetlistBuilder::new("trees");
        let ins: Vec<NodeId> = (0..8).map(|i| b.add_input(format!("i{i}"))).collect();
        for k in 0..24 {
            let g = b
                .add_gate(format!("w{k}"), CellKind::Nand, ins.clone())
                .unwrap();
            b.mark_output(g);
        }
        let nl = b.build().unwrap();
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let peak = |nl: &Netlist| {
            let ctx = EvalContext::new(nl, &lib, cfg.clone());
            let gates: Vec<NodeId> = nl.gate_ids().collect();
            Evaluated::stats_for(&ctx, &gates).peak_current_ua
        };
        let bal = decompose(&nl, DecompositionStyle::Balanced, 2).unwrap();
        let ch = decompose(&nl, DecompositionStyle::Chain, 2).unwrap();
        assert!(
            peak(&ch) > peak(&bal),
            "flat-gate chain {} expected to exceed balanced {}",
            peak(&ch),
            peak(&bal)
        );
    }

    #[test]
    fn decompose_patch_candidate_is_equivalent_to_decompose() {
        let nl = wide_gate_circuit();
        for style in [DecompositionStyle::Balanced, DecompositionStyle::Chain] {
            let patched =
                patch::materialize(&nl, &decompose_patch(&nl, style, 2).unwrap()).unwrap();
            let rebuilt = decompose(&nl, style, 2).unwrap();
            assert_equivalent(&nl, &patched);
            assert_eq!(patched.gate_count(), rebuilt.gate_count());
            assert_eq!(
                iddq_netlist::levelize::depth(&patched),
                iddq_netlist::levelize::depth(&rebuilt),
                "{style:?} patch and rebuild share the tree shape"
            );
        }
    }

    #[test]
    fn fanout_buffer_patch_is_equivalent_and_bounded() {
        let p = iddq_gen::iscas::IscasProfile::by_name("c432").unwrap();
        let nl = iddq_gen::iscas::generate(p, 8);
        let patched = patch::materialize(&nl, &fanout_buffer_patch(&nl, 4).unwrap()).unwrap();
        assert_equivalent(&nl, &patched);
        for id in patched.node_ids() {
            assert!(
                patched.fanout(id).len() <= 4,
                "net {} over-loaded",
                patched.node_name(id)
            );
        }
        assert_eq!(
            patched.gate_count(),
            fanout_buffer(&nl, 4).unwrap().gate_count()
        );
    }

    #[test]
    fn per_gate_search_never_loses_to_keeping_the_original() {
        let p = iddq_gen::iscas::IscasProfile::by_name("c432").unwrap();
        let nl = iddq_gen::iscas::generate(p, 3);
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let ctx = EvalContext::builder(&nl, &lib, cfg.clone())
            .tier(AnalysisTier::GateSep)
            .build();
        let (out, report) = cost_aware_per_gate_in(&ctx);
        assert!(report.mixed_cost <= report.original_cost);
        assert_equivalent(&nl, &out);
        // The mixed candidate's cost is reproduced by rebuild scoring.
        let ctx = EvalContext::new(&out, &lib, cfg.clone());
        let rebuilt = Evaluated::new(&ctx, Partition::single_module(&out)).total_cost();
        assert_eq!(report.mixed_cost.to_bits(), rebuilt.to_bits());
        // Every wide gate was either decomposed or deliberately kept.
        let wide = nl
            .gate_ids()
            .filter(|&g| nl.node(g).fanin().len() > 2)
            .count();
        assert_eq!(
            report.balanced_gates + report.chain_gates + report.kept_gates,
            wide
        );
    }

    #[test]
    fn max_fanin_below_two_is_a_typed_error() {
        let nl = data::c17();
        for bad in [0, 1] {
            match decompose(&nl, DecompositionStyle::Balanced, bad) {
                Err(EngineError::InvalidArg(msg)) => {
                    assert!(msg.contains("at least two inputs"), "{msg}");
                }
                other => panic!("expected InvalidArg, got {other:?}"),
            }
            assert!(matches!(
                decompose_patch(&nl, DecompositionStyle::Chain, bad),
                Err(EngineError::InvalidArg(_))
            ));
            assert!(matches!(
                decompose_gate_patch(&nl, nl.topo_order()[0], DecompositionStyle::Chain, bad, 0),
                Err(EngineError::InvalidArg(_))
            ));
        }
    }

    #[test]
    fn handed_over_table_is_the_resynthesized_netlists() {
        use iddq_control::RunBudget;
        let library = Library::generic_1um();
        let config = PartitionConfig::paper_default();
        let circuits = [
            iddq_gen::iscas::generate(iddq_gen::iscas::IscasProfile::by_name("c880").unwrap(), 5),
            iddq_gen::seq::generate(iddq_gen::seq::SeqProfile::by_name("s1423").unwrap(), 5),
        ];
        for nl in &circuits {
            let ctx = EvalContext::builder(nl, &library, config.clone())
                .tier(AnalysisTier::GateSep)
                .build();
            let (out, report, table) =
                cost_aware_per_gate_in_with_control(&ctx, &RunControl::unlimited()).into_value();
            assert!(
                report.balanced_gates + report.chain_gates > 0,
                "{}",
                nl.name()
            );
            let direct = GateSeparationTable::direct(&out, config.rho, 1);
            assert_eq!(table.as_ref(), Some(&direct), "{}", nl.name());
            // The evolution's context around the handed-over table.
            let handed = EvalContext::builder(&out, &library, config.clone())
                .sep_table(table.unwrap())
                .build();
            assert_eq!(handed.tier(), AnalysisTier::GateSep);
            assert_eq!(handed.separation(), &direct);
            // A quota-stopped search hands over the table of its prefix.
            let control = RunControl::with_budget(RunBudget::unlimited().with_quota(8));
            match cost_aware_per_gate_in_with_control(&ctx, &control) {
                Outcome::Partial {
                    value: (out, _, table),
                    ..
                } => {
                    let direct = GateSeparationTable::direct(&out, config.rho, 1);
                    assert_eq!(table, Some(direct), "{} prefix", nl.name());
                }
                other => panic!("expected Partial, got {other:?}"),
            }
        }
    }

    #[test]
    fn committed_bulk_decomposition_keeps_rows_exact() {
        // A whole-netlist decomposition edits more nodes than the ΔW path
        // takes, so it goes through the ρ-ball refresh, which rewrites the
        // maintained near rows. The single-gate probes after it, pruned,
        // rolled back or committed, read and edit those rows on the ΔW
        // path.
        let library = Library::generic_1um();
        let config = PartitionConfig::paper_default();
        let nl =
            iddq_gen::iscas::generate(iddq_gen::iscas::IscasProfile::by_name("c432").unwrap(), 5);
        let ctx = EvalContext::builder(&nl, &library, config.clone())
            .tier(AnalysisTier::GateSep)
            .build();
        let mut eval = ResynthEval::new(&ctx);
        let bulk = decompose_patch(&nl, DecompositionStyle::Chain, 3).unwrap();
        eval.apply(&bulk).unwrap();
        eval.commit();
        eval.verify_consistency();
        let mid = patch::materialize(&nl, &bulk).unwrap();
        let wide: Vec<NodeId> = mid
            .gate_ids()
            .filter(|&g| mid.node(g).fanin().len() > 2)
            .take(16)
            .collect();
        assert!(wide.len() > 4, "the bulk edit leaves 3-input gates");
        let mut committed = vec![bulk];
        for (k, &gate) in wide.iter().enumerate() {
            for style in STYLES {
                let probe = decompose_gate_patch(&mid, gate, style, 2, eval.node_count() as u32)
                    .unwrap()
                    .expect("gate is wide");
                // Every other gate commits its first probe; the rest are
                // probed against the current cost and rolled back.
                let keep = k % 2 == 0;
                let beat = if keep {
                    f64::INFINITY
                } else {
                    eval.total_cost()
                };
                let scored = eval.probe(&probe, beat).unwrap().is_some();
                if keep {
                    eval.commit();
                    committed.push(probe);
                } else if scored {
                    eval.rollback();
                }
                eval.verify_consistency();
                if keep {
                    break;
                }
            }
        }
        let out = patch::materialize(&nl, &Patch::concat(&committed)).unwrap();
        assert_equivalent(&nl, &out);
        let table = eval.into_sep_table().expect("rows are maintained");
        assert_eq!(table, GateSeparationTable::direct(&out, config.rho, 1));
    }

    #[test]
    fn per_gate_descent_stops_at_gate_boundary_with_valid_prefix() {
        use iddq_control::RunBudget;
        let p = iddq_gen::iscas::IscasProfile::by_name("c432").unwrap();
        let nl = iddq_gen::iscas::generate(p, 7);
        let library = Library::generic_1um();
        let config = PartitionConfig::paper_default();
        let ctx = EvalContext::builder(&nl, &library, config.clone())
            .tier(AnalysisTier::GateSep)
            .build();
        let full = cost_aware_per_gate_in(&ctx);
        // Enough quota for a strict prefix of the wide gates (2 probes
        // per gate).
        let control = RunControl::with_budget(RunBudget::unlimited().with_quota(4));
        let outcome = cost_aware_per_gate_in_with_control(&ctx, &control);
        match outcome {
            Outcome::Partial {
                value: (out, report, _),
                coverage,
                reason,
            } => {
                assert_eq!(reason, StopReason::QuotaExhausted);
                assert!(coverage > 0.0 && coverage < 1.0, "coverage {coverage}");
                let touched = report.balanced_gates + report.chain_gates + report.kept_gates;
                let full_touched = full.1.balanced_gates + full.1.chain_gates + full.1.kept_gates;
                assert!(touched < full_touched, "{touched} vs {full_touched}");
                assert!(report.mixed_cost <= report.original_cost);
                assert_equivalent(&nl, &out);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    }
}
