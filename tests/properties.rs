//! Property-based tests on the core invariants, spanning crates.

use std::sync::OnceLock;

use proptest::prelude::*;

use iddq::celllib::Library;
use iddq::core::{
    config::PartitionConfig, standard, AnalysisTier, EvalContext, Evaluated, Figures, Objective,
    Partition, Weights,
};
use iddq::gen::iscas::{self, IscasProfile};
use iddq::logicsim::Simulator;
use iddq::netlist::{bench, data, levelize, Netlist, NodeId};

fn small_circuit(seed: u64) -> iddq::netlist::Netlist {
    let profile = IscasProfile::by_name("c432").unwrap();
    iscas::generate(profile, seed)
}

/// A generated ISCAS-89-like (DFF-carrying) circuit at generation seed 5.
fn seq_circuit(name: &str) -> iddq::netlist::Netlist {
    iddq::gen::seq::generate(iddq::gen::seq::SeqProfile::by_name(name).unwrap(), 5)
}

/// Generated c880 and c1908 and the DFF-carrying s1423 (generation
/// seed 5), built once for every case that draws from them.
fn separation_corpus() -> &'static [Netlist; 3] {
    static CORPUS: OnceLock<[Netlist; 3]> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let comb = |name| iscas::generate(IscasProfile::by_name(name).unwrap(), 5);
        [comb("c880"), comb("c1908"), seq_circuit("s1423")]
    })
}

/// A start partition of `nl`'s gates drawn from `seed` by `shape`: 0
/// random modules (up to 40), 1 every gate alone, 2 one whole-netlist
/// module, 3 one large module beside a random share of singletons.
fn drawn_partition(nl: &Netlist, shape: u8, seed: u64) -> Partition {
    let gates: Vec<NodeId> = nl.gate_ids().collect();
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let groups: Vec<Vec<NodeId>> = match shape {
        0 => {
            let k = (next() % 40 + 1) as usize;
            let mut groups = vec![Vec::new(); k];
            for &g in &gates {
                groups[(next() % k as u64) as usize].push(g);
            }
            groups.retain(|m| !m.is_empty());
            groups
        }
        1 => gates.iter().map(|&g| vec![g]).collect(),
        2 => vec![gates],
        _ => {
            let (mut big, mut groups) = (Vec::new(), Vec::new());
            for &g in &gates {
                if next() % 4 == 0 {
                    groups.push(vec![g]);
                } else {
                    big.push(g);
                }
            }
            groups.push(big);
            groups.retain(|m| !m.is_empty());
            groups
        }
    };
    Partition::from_groups(nl, groups).unwrap()
}

/// Every cached module statistic as raw bits, in module order.
fn stats_bits(eval: &Evaluated<'_>) -> Vec<Vec<u64>> {
    eval.stats()
        .iter()
        .map(|s| {
            let mut bits: Vec<u64> = s.current_hist.iter().map(|x| x.to_bits()).collect();
            bits.extend(s.count_hist.iter().map(|&n| u64::from(n)));
            bits.extend(
                [s.peak_current_ua, s.leakage_na, s.rail_cap_ff, s.cell_area].map(f64::to_bits),
            );
            bits.extend([u64::from(s.peak_activity), s.separation]);
            bits
        })
        .collect()
}

/// The weighted cost after settling, as raw bits.
fn settled_cost_bits(eval: &mut Evaluated<'_>) -> u64 {
    eval.settle();
    eval.total_cost().to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any generated circuit survives a `.bench` round trip with identical
    /// structure.
    #[test]
    fn bench_roundtrip_structure(seed in 0u64..1000) {
        let nl = small_circuit(seed);
        let text = bench::to_bench(&nl);
        let back = bench::parse("rt", &text).unwrap();
        prop_assert_eq!(back.gate_count(), nl.gate_count());
        prop_assert_eq!(back.num_inputs(), nl.num_inputs());
        prop_assert_eq!(back.num_outputs(), nl.num_outputs());
        for id in nl.node_ids() {
            let other = back.find(nl.node_name(id)).unwrap();
            prop_assert_eq!(back.node(other).kind(), nl.node(id).kind());
            prop_assert_eq!(back.node(other).fanin().len(), nl.node(id).fanin().len());
        }
    }

    /// The incremental evaluator never drifts from a from-scratch
    /// evaluation, no matter the move sequence.
    #[test]
    fn incremental_eval_matches_fresh(seed in 0u64..500, moves in prop::collection::vec((0usize..4096, 0usize..8), 1..60)) {
        let nl = data::ripple_adder(10);
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gates: Vec<_> = nl.gate_ids().collect();
        let k = 4;
        let sizes = standard::equal_sizes(gates.len(), k);
        let start = standard::standard_partition(&ctx, &sizes);
        let mut eval = Evaluated::new(&ctx, start);
        let _ = seed;
        for (gi, t) in moves {
            let gate = gates[gi % gates.len()];
            let target = t % eval.partition().module_count();
            eval.move_gate(gate, target);
        }
        eval.verify_consistency();
        eval.settle();
        let fresh = Evaluated::new(&ctx, eval.partition().clone());
        let a = eval.cost();
        let b = fresh.cost();
        prop_assert!((a.c1_area - b.c1_area).abs() < 1e-9);
        prop_assert!((a.c2_delay - b.c2_delay).abs() < 1e-9);
        prop_assert!((a.c3_interconnect - b.c3_interconnect).abs() < 1e-9);
        prop_assert!((a.c4_test_time - b.c4_test_time).abs() < 1e-9);
        prop_assert_eq!(a.c5_modules as usize, b.c5_modules as usize);
        prop_assert_eq!(a.violations, b.violations);
    }

    /// One batched `move_gates` equals the same gates moved one at a time
    /// on a clone, bit for bit: module lists, every statistic (each
    /// `current_hist` slot included) and the settled cost. Batches cover
    /// whole-module moves (the source module is removed) and moves into
    /// the last module (which the removal renumbers); inside a
    /// transaction, rollback restores the partition, statistics and cost.
    #[test]
    fn batched_moves_match_sequential(
        circuit in 0usize..3,
        k in 2usize..6,
        batches in prop::collection::vec(
            (any::<u64>(), 0u8..4, prop::collection::vec(0usize..4096, 1..24)),
            1..8,
        ),
    ) {
        let nl = match circuit {
            0 => data::ripple_adder(10),
            1 => seq_circuit("s27"),
            _ => seq_circuit("s298"),
        };
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let gates: Vec<_> = nl.gate_ids().collect();
        let sizes = standard::equal_sizes(gates.len(), k.min(gates.len()));
        let mut eval = Evaluated::new(&ctx, standard::standard_partition(&ctx, &sizes));
        for (pick, mode, picks) in batches {
            let modules = eval.partition().module_count();
            if modules < 2 {
                break;
            }
            let source = (pick % modules as u64) as usize;
            // Mode bit 0: the last module is the target; bit 1: the whole
            // source module moves.
            let last = modules - 1;
            let target = if mode & 1 == 1 && source != last {
                last
            } else {
                (source + 1 + (pick >> 32) as usize % (modules - 1)) % modules
            };
            let members = eval.partition().module(source).to_vec();
            let mut moved: Vec<_> = Vec::new();
            if mode & 2 == 2 {
                let shift = picks[0] % members.len();
                moved.extend(members[shift..].iter().chain(&members[..shift]));
            } else {
                for i in picks {
                    let g = members[i % members.len()];
                    if !moved.contains(&g) {
                        moved.push(g);
                    }
                }
            }
            let mut one_by_one = eval.clone();
            for &g in &moved {
                one_by_one.move_gate(g, target);
            }
            let in_txn = pick & 1 == 1;
            let before = (eval.partition().clone(), stats_bits(&eval), settled_cost_bits(&mut eval));
            if in_txn {
                eval.begin_txn();
            }
            let outcome = eval.move_gates(&moved, target);
            prop_assert_eq!(outcome.source, source);
            prop_assert_eq!(outcome.removed_module.is_some(), moved.len() == members.len());
            prop_assert_eq!(eval.partition().modules(), one_by_one.partition().modules());
            prop_assert_eq!(stats_bits(&eval), stats_bits(&one_by_one));
            let cost = settled_cost_bits(&mut eval);
            prop_assert_eq!(cost, settled_cost_bits(&mut one_by_one));
            eval.verify_consistency();
            if in_txn {
                eval.rollback_txn();
                let after = (eval.partition().clone(), stats_bits(&eval), settled_cost_bits(&mut eval));
                prop_assert_eq!(&after, &before);
                eval.verify_consistency();
                // Keep the batch applied for the next round.
                eval.move_gates(&moved, target);
            }
        }
    }

    /// `Evaluated::new` sums each module's separation from the gate
    /// table's rows; every module's total equals the reference pair sum
    /// exactly, at the start and after random committed moves (which
    /// reorder members and renumber modules), and the whole evaluation
    /// equals `Evaluated::new_by_pair_sums` bit for bit.
    #[test]
    fn row_separations_equal_the_pair_sums(
        circuit in 0usize..3,
        shape in 0u8..4,
        seed in any::<u64>(),
        moves in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 0..12),
    ) {
        let nl = &separation_corpus()[circuit];
        let lib = Library::generic_1um();
        let ctx = EvalContext::builder(nl, &lib, PartitionConfig::paper_default())
            .tier(AnalysisTier::GateSep)
            .build();
        let table = ctx.separation();
        let check = |eval: &Evaluated<'_>| {
            for (m, gates) in eval.partition().modules().iter().enumerate() {
                let want = table.module_separation(gates);
                prop_assert_eq!(eval.stats()[m].separation, want, "module {}", m);
            }
            let reference = Evaluated::new_by_pair_sums(&ctx, eval.partition().clone());
            prop_assert_eq!(stats_bits(eval), stats_bits(&reference));
            prop_assert_eq!(eval.total_cost().to_bits(), reference.total_cost().to_bits());
        };
        let mut eval = Evaluated::new(&ctx, drawn_partition(nl, shape, seed));
        check(&eval);
        for (source, pick, target) in moves {
            let modules = eval.partition().module_count();
            let members = eval.partition().module(usize::from(source) % modules).to_vec();
            let take = usize::from(pick) % members.len() + 1;
            eval.begin_txn();
            eval.move_gates(&members[..take], usize::from(target) % modules);
            eval.settle();
            eval.commit_txn();
            check(&Evaluated::new(&ctx, eval.partition().clone()));
        }
    }

    /// The §3.1 peak-current estimator is a true upper bound: for any pair
    /// of vectors, the gates that actually change value — each placed at
    /// one of its legal transition times — never out-draw the estimate.
    #[test]
    fn peak_current_estimate_is_pessimistic(seed in 0u64..200, v1 in any::<u64>(), v2 in any::<u64>()) {
        let nl = small_circuit(seed % 7);
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let all_gates: Vec<_> = nl.gate_ids().collect();
        let stats = Evaluated::stats_for(&ctx, &all_gates);

        let sim = Simulator::new(&nl);
        let ins1: Vec<u64> = (0..nl.num_inputs() as u64).map(|i| v1.rotate_left(i as u32)).collect();
        let ins2: Vec<u64> = (0..nl.num_inputs() as u64).map(|i| v2.rotate_left(i as u32)).collect();
        let a = sim.eval(&ins1);
        let b = sim.eval(&ins2);

        // Place each switching gate at its latest legal transition time.
        let mut actual = vec![0.0f64; ctx.horizon];
        for &g in &all_gates {
            if (a[g.index()] ^ b[g.index()]) & 1 != 0 {
                let t = ctx.times[g.index()].max().unwrap() as usize;
                actual[t] += ctx.tables.peak_current_ua[g.index()];
            }
        }
        for (t, &cur) in actual.iter().enumerate() {
            prop_assert!(cur <= stats.current_hist[t] + 1e-9, "time {t}");
        }
        let actual_peak = actual.iter().copied().fold(0.0, f64::max);
        prop_assert!(actual_peak <= stats.peak_current_ua + 1e-9);
    }

    /// Partition invariants hold under arbitrary valid move sequences.
    #[test]
    fn partition_moves_preserve_invariants(moves in prop::collection::vec((0usize..64, 0usize..6), 1..40)) {
        let nl = data::ripple_adder(6);
        let gates: Vec<_> = nl.gate_ids().collect();
        let sizes = standard::equal_sizes(gates.len(), 3);
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let mut p = standard::standard_partition(&ctx, &sizes);
        for (gi, t) in moves {
            let gate = gates[gi % gates.len()];
            let target = t % p.module_count();
            p.move_gate(gate, target);
            p.validate(&nl).unwrap();
        }
        // All gates still covered exactly once.
        let total: usize = p.module_sizes().iter().sum();
        prop_assert_eq!(total, gates.len());
    }

    /// Transition-time sets respect path structure: a gate's earliest
    /// transition is at least its shortest-path gate depth (every grid
    /// delay ≥ 1) and its latest is exactly the weighted longest path.
    #[test]
    fn transition_times_bounded_by_path_depths(seed in 0u64..100) {
        let nl = small_circuit(seed % 5);
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        // Shortest-path gate depth: 1 + min over fan-ins.
        let mut min_depth = vec![0u32; nl.node_count()];
        for &id in nl.topo_order() {
            let node = nl.node(id);
            if node.kind().is_gate() {
                min_depth[id.index()] = 1 + node
                    .fanin()
                    .iter()
                    .map(|f| min_depth[f.index()])
                    .min()
                    .unwrap_or(0);
            }
        }
        let grid_f64: Vec<f64> = ctx.tables.grid_delay.iter().map(|&d| f64::from(d)).collect();
        let arrivals = levelize::longest_path(&nl, &grid_f64);
        for g in nl.gate_ids() {
            let min_t = ctx.times[g.index()].min().unwrap();
            let max_t = ctx.times[g.index()].max().unwrap();
            prop_assert!(min_t >= min_depth[g.index()]);
            prop_assert_eq!(f64::from(max_t), arrivals[g.index()]);
        }
    }

    /// Sensor sizing is antitone in peak current (more current → smaller
    /// resistance → larger area) across the library's operating range.
    #[test]
    fn sizing_monotonicity(i1 in 10.0f64..1e5, i2 in 10.0f64..1e5) {
        use iddq::bic::sizing::{size_sensor, SizingSpec};
        let tech = iddq::celllib::Technology::generic_1um();
        let spec = SizingSpec::paper_default();
        let (lo, hi) = if i1 < i2 { (i1, i2) } else { (i2, i1) };
        let a = size_sensor(lo, 100.0, &spec, &tech).unwrap();
        let b = size_sensor(hi, 100.0, &spec, &tech).unwrap();
        prop_assert!(b.rs_ohm <= a.rs_ohm);
        prop_assert!(b.area >= a.area);
    }

    /// The objective's floor, under random non-negative weights and
    /// penalty: relaxing any subset of a partition's figures toward their
    /// least values never lifts the floor above the exact total, and on
    /// the exact figures the floor is the total bit for bit.
    #[test]
    fn objective_floor_bounds_the_total(
        weights in (0.0f64..1e3, 0.0f64..1e6, 0.0f64..1e2, 0.0f64..1e2, 0.0f64..1e2),
        (d, over, penalty) in (1.0f64..1e5, 0.0f64..2.0, 0.0f64..1e8),
        (area, separation, delta) in (0.0f64..1e8, 0u64..1 << 40, 0.0f64..1e5),
        (modules, violations) in (1usize..64, 0usize..8),
        (relax, shrink) in (any::<u64>(), 0.0f64..1.0),
    ) {
        let (area_w, delay_w, interconnect_w, test_time_w, module_count_w) = weights;
        let objective = Objective::new(&PartitionConfig {
            weights: Weights {
                area: area_w,
                delay: delay_w,
                interconnect: interconnect_w,
                test_time: test_time_w,
                module_count: module_count_w,
            },
            violation_penalty: penalty,
            ..PartitionConfig::paper_default()
        });
        let exact = Figures {
            modules,
            violations,
            sensor_area: area,
            separation,
            max_delta_ps: delta,
            dbic_ps: d * (1.0 + over),
            nominal_delay_ps: d,
        };
        let total = objective.total(&objective.terms(&exact));
        prop_assert_eq!(objective.floor(&exact).to_bits(), total.to_bits());
        // Bits 0-5 pick the relaxed fields; one case in four relaxes them
        // all the way (D_BIC to 0, which the floor reads as D).
        let s = if relax >> 6 & 3 == 0 { 0.0 } else { shrink };
        let relaxed = |bit: u32, x: f64| if relax >> bit & 1 == 1 { x * s } else { x };
        let lower = Figures {
            modules: relaxed(0, modules as f64) as usize,
            violations: relaxed(1, violations as f64) as usize,
            sensor_area: relaxed(2, area),
            separation: relaxed(3, separation as f64) as u64,
            max_delta_ps: relaxed(4, delta),
            dbic_ps: relaxed(5, exact.dbic_ps),
            nominal_delay_ps: d,
        };
        let floor = objective.floor(&lower);
        prop_assert!(floor <= total, "floor {floor} above the total {total}");
        // A D_BIC below D reads as D, the least it can be.
        let at_d = objective.floor(&Figures { dbic_ps: d, ..lower });
        prop_assert_eq!(objective.floor(&Figures { dbic_ps: 0.0, ..lower }), at_d);
    }
}
