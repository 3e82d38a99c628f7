//! Property suites for the resynthesis transforms:
//!
//! * the repaired `fanout_buffer` bound — *every* net of the output
//!   (original drivers and cascade buffers alike) stays within
//!   `max_fanout`, with buffer fan-ins counted as load, across random
//!   netlists × random bounds;
//! * the patch-scoring differential — a resynthesis candidate scored by
//!   `Patch` apply → score → rollback on one persistent `ResynthEval`
//!   produces the **bit-exact** `total_cost` of materializing the
//!   candidate netlist and scoring it through a from-scratch
//!   `EvalContext`/`Evaluated`, under random netlists and random
//!   decompose/buffer rewrite sequences, and every rollback round-trip
//!   restores the original evaluation bit for bit;
//! * the incremental ΔW separation maintenance against its retained
//!   full-ball differential reference, bit for bit, across patch shapes
//!   chosen to hit every classification branch (including the ambiguous
//!   fallback and the removal-triggered full refresh).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use iddq_celllib::Library;
use iddq_core::{
    config::PartitionConfig, AnalysisTier, EvalContext, Evaluated, Partition, ResynthEval,
};
use iddq_netlist::patch::{materialize, Patch};
use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::{Netlist, NodeId};
use iddq_synth::{
    decompose_gate_patch, decompose_patch, fanout_buffer, fanout_buffer_patch, DecompositionStyle,
};

fn random_netlist(seed: u64) -> Netlist {
    let profile = iddq_gen::iscas::IscasProfile::by_name("c432").expect("known circuit");
    iddq_gen::iscas::generate(profile, seed)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fan-out bound holds on every node of the buffered netlist, and
    /// the transform preserves logic, for random circuits × bounds. (A
    /// bound of 1 is unsatisfiable — a buffer costs one unit of its
    /// driver's budget and offers only one — and is rejected with a typed
    /// error, covered by a unit test.)
    #[test]
    fn fanout_buffer_bounds_every_net(seed in 0u64..200, bound in 2usize..=6) {
        let nl = random_netlist(seed);
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
        // The patch form reaches the same bound on the same circuit.
        let patched = materialize(&nl, &fanout_buffer_patch(&nl, bound).expect("bound >= 2")).expect("valid patch");
        for id in patched.node_ids() {
            prop_assert!(patched.fanout(id).len() <= bound);
        }
        assert_equivalent(&nl, &patched);
    }

    /// Patch-scored candidate costs are bit-exact with rebuild scoring,
    /// and rollbacks restore the evaluation, across random sequences of
    /// decompose / buffer rewrites (committed cumulatively).
    #[test]
    fn patch_scoring_matches_rebuild_bitwise(seed in 0u64..60, salt in any::<u64>()) {
        let nl = random_netlist(seed);
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut eval = ResynthEval::new(&ctx);
        // The fresh evaluation already equals the rebuild score.
        prop_assert_eq!(
            eval.total_cost().to_bits(),
            rebuild_cost(&nl, &lib, &cfg).to_bits()
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ salt);
        let wide: Vec<NodeId> = nl
            .gate_ids()
            .filter(|&g| nl.node(g).fanin().len() > 2)
            .collect();
        let mut committed: Vec<Patch> = Vec::new();
        for _ in 0..4 {
            // Draw one rewrite against the *current* structure. Per-gate
            // decompositions leave every original gate's fan-in intact,
            // so patches built against the original netlist compose.
            let patch = match rng.gen_range(0..3u32) {
                0 => {
                    let style = if rng.gen() {
                        DecompositionStyle::Balanced
                    } else {
                        DecompositionStyle::Chain
                    };
                    decompose_patch(&nl, style, rng.gen_range(2..=4)).expect("fanin >= 2")
                }
                1 => {
                    if wide.is_empty() {
                        continue;
                    }
                    let gate = wide[rng.gen_range(0..wide.len())];
                    let style = if rng.gen() {
                        DecompositionStyle::Balanced
                    } else {
                        DecompositionStyle::Chain
                    };
                    match decompose_gate_patch(&nl, gate, style, 2, eval.node_count() as u32)
                        .expect("fanin >= 2")
                    {
                        Some(p) => p,
                        None => continue,
                    }
                }
                _ => fanout_buffer_patch(&nl, rng.gen_range(3..=6)).expect("bound >= 2"),
            };
            let base_cost = eval.total_cost();
            if eval.apply(&patch).is_err() {
                // Whole-netlist builders append ids from the pristine
                // node count; once a committed rewrite has grown the
                // evaluation those ids are taken and the append-only
                // validation rejects the patch — atomically, which is
                // itself worth asserting.
                prop_assert_eq!(eval.total_cost().to_bits(), base_cost.to_bits());
                continue;
            }
            let patched_cost = eval.total_cost();
            // Oracle: materialize everything committed so far plus this
            // patch, rebuild, score.
            let mut all = committed.clone();
            all.push(patch.clone());
            let candidate = materialize(&nl, &Patch::concat(&all)).expect("valid candidate");
            prop_assert_eq!(
                patched_cost.to_bits(),
                rebuild_cost(&candidate, &lib, &cfg).to_bits(),
                "patch-scored vs rebuild-scored candidate"
            );
            if rng.gen_bool(0.5) {
                // Round-trip: rollback restores the pre-patch score.
                eval.rollback();
                prop_assert_eq!(eval.total_cost().to_bits(), base_cost.to_bits());
            } else {
                eval.commit();
                committed.push(patch);
            }
        }
        // Final state still agrees with its own rebuild.
        let final_candidate =
            materialize(&nl, &Patch::concat(&committed)).expect("valid candidate");
        prop_assert_eq!(
            eval.total_cost().to_bits(),
            rebuild_cost(&final_candidate, &lib, &cfg).to_bits()
        );
    }

    /// The incremental ΔW separation maintenance (`ResynthEval::new`)
    /// scores **bit-identically** to the retained full ρ-ball refresh
    /// (`ResynthEval::new_full_refresh`) through random patch sequences —
    /// decompositions, fan-out buffering, distance-stretching rewires and
    /// gate add/remove pairs — with rollbacks and commits, and both stay
    /// consistent with their from-scratch ground truth.
    #[test]
    fn incremental_dw_matches_full_refresh_bitwise(seed in 0u64..40, salt in any::<u64>()) {
        let nl = random_netlist(seed);
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let mut inc = ResynthEval::new(&ctx);
        let mut full = ResynthEval::new_full_refresh(&ctx);
        prop_assert_eq!(inc.total_cost().to_bits(), full.total_cost().to_bits());
        let mut rng = SmallRng::seed_from_u64(seed ^ salt ^ 0xd17a);
        let inputs = nl.inputs().to_vec();
        let two_in: Vec<NodeId> = nl
            .gate_ids()
            .filter(|&g| nl.node(g).fanin().len() == 2)
            .collect();
        for round in 0..6 {
            let patch = match rng.gen_range(0..4u32) {
                0 => decompose_patch(&nl, DecompositionStyle::Chain, rng.gen_range(2..=4))
                    .expect("fanin >= 2"),
                1 => fanout_buffer_patch(&nl, rng.gen_range(3..=6)).expect("bound >= 2"),
                2 => {
                    // Distance-stretching rewire: a two-input gate moved
                    // onto random primary inputs — the ambiguous case of
                    // the ΔW classification (old shortest routes crossed
                    // the gate, the detour got worse).
                    if two_in.is_empty() {
                        continue;
                    }
                    let gate = two_in[rng.gen_range(0..two_in.len())];
                    Patch::single(iddq_netlist::patch::PatchOp::SetFanin {
                        gate,
                        fanin: vec![
                            inputs[rng.gen_range(0..inputs.len())],
                            inputs[rng.gen_range(0..inputs.len())],
                        ],
                    })
                }
                _ => {
                    // Append + drop a throwaway gate: removals route the
                    // incremental evaluation through the full-ball
                    // fallback, which must keep its rows in sync.
                    let tail = NodeId(inc.node_count() as u32);
                    let feed = two_in[rng.gen_range(0..two_in.len())];
                    Patch {
                        ops: vec![
                            iddq_netlist::patch::PatchOp::AddGate {
                                gate: tail,
                                kind: iddq_netlist::CellKind::Not,
                                fanin: vec![feed],
                            },
                            iddq_netlist::patch::PatchOp::RemoveGate { gate: tail },
                        ],
                    }
                }
            };
            let a = inc.apply(&patch);
            let b = full.apply(&patch);
            prop_assert_eq!(a.is_ok(), b.is_ok(), "apply outcomes diverge");
            if a.is_err() {
                continue;
            }
            prop_assert_eq!(inc.total_cost().to_bits(), full.total_cost().to_bits());
            if rng.gen_bool(0.5) {
                inc.rollback();
                full.rollback();
            } else {
                inc.commit();
                full.commit();
            }
            prop_assert_eq!(
                inc.total_cost().to_bits(),
                full.total_cost().to_bits(),
                "round {}", round
            );
        }
        inc.verify_consistency();
        full.verify_consistency();
    }

    /// A `ResynthEval` on a context around the batched gate table
    /// scores **bit-identically** to one on a context handed the
    /// one-BFS-per-gate reference table, through random patch sequences
    /// with rollbacks and commits.
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
        prop_assert_eq!(full.total_cost().to_bits(), light.total_cost().to_bits());
        let mut rng = SmallRng::seed_from_u64(seed ^ salt ^ 0x6a7e);
        let wide: Vec<NodeId> = nl
            .gate_ids()
            .filter(|&g| nl.node(g).fanin().len() > 2)
            .collect();
        for _ in 0..5 {
            let patch = match rng.gen_range(0..3u32) {
                0 => decompose_patch(&nl, DecompositionStyle::Balanced, rng.gen_range(2..=4))
                    .expect("fanin >= 2"),
                1 => {
                    if wide.is_empty() {
                        continue;
                    }
                    let gate = wide[rng.gen_range(0..wide.len())];
                    match decompose_gate_patch(
                        &nl,
                        gate,
                        DecompositionStyle::Chain,
                        2,
                        full.node_count() as u32,
                    )
                    .expect("fanin >= 2")
                    {
                        Some(p) => p,
                        None => continue,
                    }
                }
                _ => fanout_buffer_patch(&nl, rng.gen_range(3..=6)).expect("bound >= 2"),
            };
            let a = full.apply(&patch);
            let b = light.apply(&patch);
            prop_assert_eq!(a.is_ok(), b.is_ok(), "apply outcomes diverge");
            if a.is_err() {
                continue;
            }
            prop_assert_eq!(full.total_cost().to_bits(), light.total_cost().to_bits());
            if rng.gen_bool(0.5) {
                full.rollback();
                light.rollback();
            } else {
                full.commit();
                light.commit();
            }
            prop_assert_eq!(full.total_cost().to_bits(), light.total_cost().to_bits());
        }
        full.verify_consistency();
        light.verify_consistency();
    }
}
