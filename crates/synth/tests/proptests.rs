//! Property suites for the resynthesis transforms:
//!
//! * the repaired `fanout_buffer` bound — *every* net of the output
//!   (original drivers and cascade buffers alike) stays within
//!   `max_fanout`, with buffer fan-ins counted as load, across random
//!   netlists × random bounds;
//! * the patch-scoring differential — random per-gate decompositions (a
//!   random wide gate and style, applied or probed, then rolled back or
//!   committed: the shape the per-gate search hands `ResynthEval`) score
//!   the **bit-exact** `total_cost` of materializing the candidate
//!   netlist and scoring it through a from-scratch
//!   `EvalContext`/`Evaluated`, and every rollback restores the
//!   evaluation bit for bit;
//! * the incremental ΔW separation maintenance against its retained
//!   full-ball differential reference, bit for bit, on the same
//!   sequences — their random netlists carry one gate of ten or more
//!   inputs, whose decomposition takes the ball refresh with maintained
//!   rows, and the subdivided edges lengthen routes, which exercises the
//!   ambiguous (avoid-X) fallback;
//! * a context around the batched gate table against one around the
//!   one-BFS-per-gate reference table.
//!
//! Every suite pins both references: the full-refresh evaluation in lock
//! step, and the rebuild of the committed netlist.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use iddq_celllib::Library;
use iddq_core::{
    config::PartitionConfig, AnalysisTier, EvalContext, Evaluated, Partition, ResynthEval,
};
use iddq_netlist::patch::{materialize, Patch, PatchOp};
use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::{Netlist, NodeId};
use iddq_synth::{decompose_gate_patch, fanout_buffer, DecompositionStyle};

fn generated_c432(seed: u64) -> Netlist {
    let profile = iddq_gen::iscas::IscasProfile::by_name("c432").expect("known circuit");
    iddq_gen::iscas::generate(profile, seed)
}

/// A generated c432 with its first multi-input gate that takes any arity
/// widened onto 10–12 inputs (primary inputs it did not read): wider than
/// any generated gate, so its decomposition edits more nodes than the ΔW
/// path takes and goes through the ρ-ball refresh.
fn random_netlist(seed: u64) -> Netlist {
    let nl = generated_c432(seed);
    let width = 10 + (seed % 3) as usize;
    let gate = (nl.topo_order().iter().copied())
        .find(|&g| {
            nl.node(g).fanin().len() >= 2
                && (nl.node(g).kind().cell_kind()).is_some_and(|k| k.accepts_fanin(width))
        })
        .expect("c432 has multi-input gates");
    let mut fanin = nl.node(gate).fanin().to_vec();
    let extra: Vec<NodeId> = (nl.inputs().iter().copied())
        .filter(|i| !fanin.contains(i))
        .take(width - fanin.len())
        .collect();
    fanin.extend(extra);
    let widened = materialize(&nl, &Patch::single(PatchOp::SetFanin { gate, fanin }));
    widened.expect("primary inputs close no cycle")
}

/// Logic equivalence over a few packed pseudo-random sweeps, matching
/// outputs by name.
fn assert_equivalent(a: &Netlist, b: &Netlist) {
    let sim_a = iddq_logicsim::Simulator::new(a);
    let sim_b = iddq_logicsim::Simulator::new(b);
    for round in 0u64..3 {
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

/// Rebuild-scores a netlist: fresh context, single-module evaluation.
fn rebuild_cost(nl: &Netlist, lib: &Library, cfg: &PartitionConfig) -> f64 {
    let ctx = EvalContext::new(nl, lib, cfg.clone());
    Evaluated::new(&ctx, Partition::single_module(nl)).total_cost()
}

/// A random sequence of per-gate decompositions of `nl`, driven on
/// several evaluations in lock step.
struct Walk<'n> {
    nl: &'n Netlist,
    rng: SmallRng,
    /// The wide gates not decomposed yet.
    open: Vec<NodeId>,
    /// The widest gate (the ball-refresh route), drawn more often.
    widest: NodeId,
    /// The patches committed so far.
    committed: Vec<Patch>,
}

impl<'n> Walk<'n> {
    fn new(nl: &'n Netlist, seed: u64) -> Self {
        let open: Vec<NodeId> = (nl.gate_ids())
            .filter(|&g| nl.node(g).fanin().len() > 2)
            .collect();
        let widest = *(open.iter())
            .max_by_key(|&&g| nl.node(g).fanin().len())
            .expect("the netlist has wide gates");
        assert!(nl.node(widest).fanin().len() >= 10);
        Walk {
            nl,
            rng: SmallRng::seed_from_u64(seed),
            open,
            widest,
            committed: Vec::new(),
        }
    }

    /// One step: a random open gate (the widest one a third of the time
    /// while it is open) and style, applied (`beat` = `None`) or probed
    /// against the current cost or `+∞` on every evaluation, which must
    /// agree bit for bit. Returns the patch and its score, `None` when
    /// the probe was pruned (nothing is pending then).
    fn step(&mut self, evals: &mut [&mut ResynthEval<'_>]) -> (Patch, Option<f64>) {
        let gate = if self.open.contains(&self.widest) && self.rng.gen_range(0..3u32) == 0 {
            self.widest
        } else {
            self.open[self.rng.gen_range(0..self.open.len())]
        };
        let style = if self.rng.gen() {
            DecompositionStyle::Balanced
        } else {
            DecompositionStyle::Chain
        };
        let next_id = evals[0].node_count() as u32;
        let patch = decompose_gate_patch(self.nl, gate, style, 2, next_id)
            .expect("fanin >= 2")
            .expect("the gate is wide");
        let beat = match self.rng.gen_range(0..3u32) {
            0 => None,
            1 => Some(evals[0].total_cost()),
            _ => Some(f64::INFINITY),
        };
        let scores: Vec<Option<u64>> = (evals.iter_mut())
            .map(|eval| {
                let score = match beat {
                    None => {
                        eval.apply(&patch)
                            .expect("a decomposition is a subdivision");
                        Some(eval.total_cost())
                    }
                    Some(beat) => eval.probe(&patch, beat).expect("a decomposition probes"),
                };
                score.map(f64::to_bits)
            })
            .collect();
        assert!(
            scores.windows(2).all(|w| w[0] == w[1]),
            "gate {} {style:?}: {scores:?}",
            gate.0
        );
        (patch, scores[0].map(f64::from_bits))
    }

    /// Rolls the pending patch back or commits it, on every evaluation,
    /// and checks the cost they all land on.
    fn settle(
        &mut self,
        evals: &mut [&mut ResynthEval<'_>],
        patch: Patch,
        before: f64,
        score: f64,
    ) {
        let commit = self.rng.gen_bool(0.5);
        for eval in evals.iter_mut() {
            if commit {
                eval.commit();
            } else {
                eval.rollback();
            }
            let want = if commit { score } else { before };
            assert_eq!(eval.total_cost().to_bits(), want.to_bits());
        }
        if commit {
            let gate = (patch.ops.last())
                .expect("a decomposition ends with the rewire")
                .gate();
            self.open.retain(|&g| g != gate);
            self.committed.push(patch);
        }
    }

    /// The netlist of the committed patches.
    fn committed_netlist(&self) -> Netlist {
        materialize(self.nl, &Patch::concat(&self.committed)).expect("valid candidate")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fan-out bound holds on every node of the buffered netlist, and
    /// the transform preserves logic, for random circuits × bounds. (A
    /// bound of 1 is unsatisfiable — a buffer costs one unit of its
    /// driver's budget and offers only one — and is rejected with a typed
    /// error, covered by a unit test.)
    #[test]
    fn fanout_buffer_bounds_every_net(seed in 0u64..200, bound in 2usize..=6) {
        let nl = generated_c432(seed);
        let buffered = fanout_buffer(&nl, bound).expect("bound >= 2");
        for id in buffered.node_ids() {
            prop_assert!(
                buffered.fanout(id).len() <= bound,
                "net {} drives {} > {} consumers",
                buffered.node_name(id),
                buffered.fanout(id).len(),
                bound
            );
        }
        assert_equivalent(&nl, &buffered);
    }

    /// Patch-scored candidate costs are bit-exact with rebuild scoring
    /// (and with the full-refresh reference), and rollbacks restore the
    /// evaluation, across random per-gate decomposition sequences.
    #[test]
    fn patch_scoring_matches_rebuild_bitwise(seed in 0u64..60, salt in any::<u64>()) {
        let nl = random_netlist(seed);
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut inc = ResynthEval::new(&ctx);
        let mut full = ResynthEval::new_full_refresh(&ctx);
        // The fresh evaluation already equals the rebuild score.
        prop_assert_eq!(
            inc.total_cost().to_bits(),
            rebuild_cost(&nl, &lib, &cfg).to_bits()
        );
        let mut walk = Walk::new(&nl, seed ^ salt);
        for _ in 0..4 {
            let before = inc.total_cost();
            let (patch, score) = walk.step(&mut [&mut inc, &mut full]);
            let Some(score) = score else {
                prop_assert_eq!(inc.total_cost().to_bits(), before.to_bits());
                continue;
            };
            // Oracle: materialize everything committed so far plus this
            // patch, rebuild, score.
            let mut all = walk.committed.clone();
            all.push(patch.clone());
            let candidate = materialize(&nl, &Patch::concat(&all)).expect("valid candidate");
            prop_assert_eq!(
                score.to_bits(),
                rebuild_cost(&candidate, &lib, &cfg).to_bits(),
                "patch-scored vs rebuild-scored candidate"
            );
            walk.settle(&mut [&mut inc, &mut full], patch, before, score);
        }
        // The final state still agrees with its own rebuild.
        let out = walk.committed_netlist();
        assert_equivalent(&nl, &out);
        prop_assert_eq!(
            inc.total_cost().to_bits(),
            rebuild_cost(&out, &lib, &cfg).to_bits()
        );
        inc.verify_consistency();
        full.verify_consistency();
    }

    /// The incremental ΔW separation maintenance (`ResynthEval::new`)
    /// scores **bit-identically** to the retained full ρ-ball refresh
    /// (`ResynthEval::new_full_refresh`) through random per-gate
    /// decomposition sequences with rollbacks and commits; both stay
    /// consistent with their from-scratch ground truth and score the
    /// rebuild of the committed netlist.
    #[test]
    fn incremental_dw_matches_full_refresh_bitwise(seed in 0u64..40, salt in any::<u64>()) {
        let nl = random_netlist(seed);
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut inc = ResynthEval::new(&ctx);
        let mut full = ResynthEval::new_full_refresh(&ctx);
        prop_assert_eq!(inc.total_cost().to_bits(), full.total_cost().to_bits());
        let mut walk = Walk::new(&nl, seed ^ salt ^ 0xd17a);
        for round in 0..8 {
            let before = inc.total_cost();
            let (patch, score) = walk.step(&mut [&mut inc, &mut full]);
            if round % 4 == 3 {
                inc.verify_consistency();
                full.verify_consistency();
            }
            if let Some(score) = score {
                walk.settle(&mut [&mut inc, &mut full], patch, before, score);
            }
        }
        inc.verify_consistency();
        full.verify_consistency();
        prop_assert_eq!(
            inc.total_cost().to_bits(),
            rebuild_cost(&walk.committed_netlist(), &lib, &cfg).to_bits()
        );
    }

    /// A `ResynthEval` on a context around the batched gate table
    /// scores **bit-identically** to one on a context handed the
    /// one-BFS-per-gate reference table (and to the full-refresh
    /// reference), through random per-gate decomposition sequences with
    /// rollbacks and commits.
    #[test]
    fn direct_table_scoring_matches_reference_table(seed in 0u64..40, salt in any::<u64>()) {
        let nl = random_netlist(seed);
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let full_ctx = EvalContext::builder(&nl, &lib, cfg.clone())
            .sep_table(GateSeparationTable::reference(&nl, cfg.rho))
            .build();
        let light_ctx = EvalContext::builder(&nl, &lib, cfg.clone())
            .tier(AnalysisTier::GateSep)
            .build();
        let mut full = ResynthEval::new(&full_ctx);
        let mut light = ResynthEval::new(&light_ctx);
        let mut refresh = ResynthEval::new_full_refresh(&light_ctx);
        prop_assert_eq!(full.total_cost().to_bits(), light.total_cost().to_bits());
        let mut walk = Walk::new(&nl, seed ^ salt ^ 0x6a7e);
        for _ in 0..5 {
            let before = full.total_cost();
            let evals = &mut [&mut full, &mut light, &mut refresh];
            let (patch, score) = walk.step(evals);
            if let Some(score) = score {
                walk.settle(evals, patch, before, score);
            }
        }
        full.verify_consistency();
        light.verify_consistency();
        prop_assert_eq!(
            light.total_cost().to_bits(),
            rebuild_cost(&walk.committed_netlist(), &lib, &cfg).to_bits()
        );
    }
}

/// Subdividing a gate's fan-in edges lengthens the routes through them,
/// so the ΔW refresh meets pairs whose old shortest route crossed the
/// gate and got longer: the ambiguous case, resolved by the avoid-X BFS
/// fallback (`separation_recomputed` counts its searches). It must fire,
/// and agree with the full-refresh reference where it does.
#[test]
fn avoid_x_fallback_fires_on_per_gate_decompositions() {
    let nl = random_netlist(5);
    let lib = Library::generic_1um();
    let cfg = PartitionConfig::paper_default();
    let ctx = EvalContext::new(&nl, &lib, cfg.clone());
    let mut inc = ResynthEval::new(&ctx);
    let mut full = ResynthEval::new_full_refresh(&ctx);
    let mut fired = 0;
    let narrow = (nl.gate_ids()).filter(|&g| (3..10).contains(&nl.node(g).fanin().len()));
    for gate in narrow {
        let next_id = nl.node_count() as u32;
        let patch = decompose_gate_patch(&nl, gate, DecompositionStyle::Chain, 2, next_id)
            .expect("fanin >= 2")
            .expect("the gate is wide");
        if inc.apply(&patch).expect("applies").separation_recomputed > 0 {
            fired += 1;
            full.apply(&patch).expect("applies");
            assert_eq!(inc.total_cost().to_bits(), full.total_cost().to_bits());
            full.rollback();
        }
        inc.rollback();
    }
    assert!(fired > 0, "no decomposition needed the avoid-X fallback");
    inc.verify_consistency();
}
