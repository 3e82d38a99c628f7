//! Sweep conformance: both grid sweeps against their slow oracles on a
//! small seeded corpus of combinational and sequential circuits.
//!
//! * the IDDQ sweep equals the scalar per-vector oracle
//!   ([`reference::iddq_first_detection`]) for every thread count and
//!   frame count;
//! * the fault-patch sweep equals the per-fault CSR re-simulation oracle
//!   for every thread count, shard count, frame count, dropping setting
//!   and lane width — with dropping, each multi-frame machine runs only
//!   on the lanes below its in-batch detection — and the oracle's
//!   multi-frame detections equal its single-frame ones exactly on the
//!   DFF-free circuits;
//! * the stuck-at probe (fanout-free region plus stem observability)
//!   equals the oracle on circuit shapes the random corpus may miss, at
//!   every lane width;
//! * a cancelled sweep, checkpointed through its sealed JSON and resumed,
//!   is bit-identical to an uninterrupted one;
//! * the bridge sampler's on-demand neighbourhoods equal the separation
//!   oracle's rows, so the defect universe does not depend on whether an
//!   oracle is supplied.
//!
//! It also pins the per-gate resynthesis search: its reported cost equals
//! a rebuild score of the netlist it returns, the incremental ΔW
//! evaluation agrees with the full-refresh reference at every probe, and
//! the bound-pruned probes prune only probes that lose and return the
//! same netlist and cost as scoring every probe exactly. And
//! the evolution search returns the same best partition, cost bits,
//! evaluation count and generation log for every thread count.

use iddq::celllib::Library;
use iddq::core::config::PartitionConfig;
use iddq::core::evolution::{self, EvolutionConfig};
use iddq::core::{AnalysisTier, EvalContext, Evaluated, Partition, ResynthEval};
use iddq::logicsim::fault_sweep::{
    FaultSweepOptions, FaultSweepOutcome, LogicFault, SweepCheckpoint, SweepJob, SweepWork,
};
use iddq::logicsim::faults::{enumerate, enumerate_with, FaultUniverseConfig, IddqFault};
use iddq::logicsim::iddq::{simulate_with_options, SweepOptions, NO_MODULE};
use iddq::logicsim::logic_test::StuckAtFault;
use iddq::logicsim::{reference, BackendKind};
use iddq::netlist::bench::to_bench;
use iddq::netlist::patch::{materialize, Patch};
use iddq::netlist::separation::{BoundedBfs, GateSeparationTable};
use iddq::netlist::LaneWidth::{self, L256, L64};
use iddq::netlist::{data, CellKind, Netlist, NetlistBuilder, NodeId};
use iddq::synth::{cost_aware_per_gate_in, decompose_gate_patch, DecompositionStyle};
use iddq_control::{RunBudget, RunControl, StopReason};

/// A generated ISCAS-85-like circuit at generation seed 5.
fn iscas(name: &str) -> Netlist {
    iddq::gen::iscas::generate(iddq::gen::iscas::IscasProfile::by_name(name).unwrap(), 5)
}

/// A generated ISCAS-89-like (DFF-carrying) circuit at generation seed 5.
fn seq(name: &str) -> Netlist {
    iddq::gen::seq::generate(iddq::gen::seq::SeqProfile::by_name(name).unwrap(), 5)
}

/// c17, a 6-bit ripple adder, generated c432, and generated s27 / s298
/// (the last two carry DFF state).
fn corpus() -> Vec<Netlist> {
    vec![
        data::c17(),
        data::ripple_adder(6),
        iscas("c432"),
        seq("s27"),
        seq("s298"),
    ]
}

fn random_vectors(nl: &Netlist, n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            (0..nl.num_inputs())
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

/// Every node stuck at 0 and at 1, plus the universe's bridges.
fn logic_faults(nl: &Netlist) -> Vec<LogicFault> {
    let mut faults: Vec<LogicFault> = nl
        .node_ids()
        .flat_map(|node| {
            [false, true]
                .map(|stuck_at_one| LogicFault::StuckAt(StuckAtFault { node, stuck_at_one }))
        })
        .collect();
    let bridges = FaultUniverseConfig {
        bridges: 16,
        ..FaultUniverseConfig::default()
    };
    faults.extend(
        enumerate(nl, &bridges, 9)
            .into_iter()
            .filter_map(|f| match f {
                IddqFault::Bridge { a, b, .. } => Some(LogicFault::Bridge { a, b }),
                _ => None,
            }),
    );
    faults
}

#[test]
fn iddq_sweep_matches_scalar_oracle() {
    // Three BIC modules: one sane, one saturated, one whose sensor only
    // sees the larger defect currents.
    let leakage = [1.0, 400.0, 20.0];
    let threshold = 150.0;
    for nl in corpus() {
        let faults = enumerate(&nl, &FaultUniverseConfig::default(), 13);
        let module_of: Vec<u32> = nl
            .node_ids()
            .map(|id| {
                if nl.is_gate(id) {
                    id.index() as u32 % 3
                } else {
                    NO_MODULE
                }
            })
            .collect();
        let vectors = random_vectors(&nl, 600, 0x1dd9);
        let mut detected = 0;
        for frames in [1, 3] {
            let oracle = reference::iddq_first_detection(
                &nl, &faults, &vectors, &module_of, &leakage, threshold, frames,
            );
            detected += oracle.iter().flatten().count();
            for threads in [1, 2, 4] {
                // The struct update keeps this test building against
                // option sets that carry more knobs than these two.
                #[allow(clippy::needless_update)]
                let options = SweepOptions {
                    threads,
                    frames,
                    ..SweepOptions::default()
                };
                let r = simulate_with_options(
                    &nl, &faults, &vectors, &module_of, &leakage, threshold, &options,
                );
                assert_eq!(
                    r.first_detection,
                    oracle,
                    "{} threads={threads} frames={frames}",
                    nl.name()
                );
            }
        }
        assert!(
            detected > 0,
            "{}: the corpus must detect something",
            nl.name()
        );
    }
}

/// A complete sweep at `lanes`, through the job the CLI and the daemon run.
fn sweep(
    lanes: LaneWidth,
    nl: &Netlist,
    faults: &[LogicFault],
    vectors: &[Vec<bool>],
    options: &FaultSweepOptions,
) -> FaultSweepOutcome {
    let job = SweepJob::new(nl, faults, vectors, options, Some(lanes), None).expect("a fresh job");
    job.run(&RunControl::unlimited(), None)
        .expect("a fresh sweep")
        .into_value()
}

#[test]
fn fault_patch_sweep_matches_csr_oracle() {
    for nl in corpus() {
        let faults = logic_faults(&nl);
        let vectors = random_vectors(&nl, 300, 0xfa17);
        let mut oracle_detections = Vec::new();
        for frames in [1, 3] {
            let oracle = sweep(
                L64,
                &nl,
                &faults,
                &vectors,
                &FaultSweepOptions {
                    threads: 1,
                    fault_shards: 1,
                    fault_dropping: false,
                    backend: BackendKind::Csr,
                    frames,
                    ..FaultSweepOptions::default()
                },
            );
            assert!(oracle.detected.iter().any(|&d| d), "{}", nl.name());
            for (threads, shards, dropping, backend) in [
                (1, 1, true, BackendKind::Delta),
                (1, 1, false, BackendKind::Delta),
                (2, 0, true, BackendKind::Delta),
                (2, 3, false, BackendKind::Delta),
                (4, 2, true, BackendKind::Delta),
                (4, 0, false, BackendKind::Delta),
                (2, 2, true, BackendKind::Csr),
            ] {
                let r = sweep(
                    L64,
                    &nl,
                    &faults,
                    &vectors,
                    &FaultSweepOptions {
                        threads,
                        fault_shards: shards,
                        fault_dropping: dropping,
                        backend,
                        frames,
                        ..FaultSweepOptions::default()
                    },
                );
                assert_eq!(
                    r.first_detection,
                    oracle.first_detection,
                    "{} threads={threads} shards={shards} dropping={dropping} \
                     backend={backend} frames={frames}",
                    nl.name()
                );
                assert!(r.done_batches.iter().all(|&d| d));
            }
            // 256 lanes per sweep detect exactly what 64 lanes do.
            for backend in [BackendKind::Csr, BackendKind::Delta] {
                let options = FaultSweepOptions {
                    threads: 2,
                    backend,
                    frames,
                    ..FaultSweepOptions::default()
                };
                let wide = sweep(L256, &nl, &faults, &vectors, &options);
                assert_eq!(
                    wide.first_detection,
                    oracle.first_detection,
                    "{} 256 lanes backend={backend} frames={frames}",
                    nl.name()
                );
            }
            oracle_detections.push(oracle.first_detection);
        }
        // Grouping the vectors into 3-frame sequences is a pure
        // relabelling without DFFs; with them, latched state crosses the
        // frame boundaries and changes what is detected when.
        let (frames1, frames3) = (&oracle_detections[0], &oracle_detections[1]);
        if nl.num_state_elements() == 0 {
            assert_eq!(frames1, frames3, "{}: frames changed detections", nl.name());
        } else {
            assert_ne!(frames1, frames3, "{}: no state carried", nl.name());
        }
    }
}

/// Sweeps `sequences` sequences of each frame count in `frame_counts` on
/// the CSR oracle, then at every lane width and at 1 and 2 threads with
/// dropping on (each multi-frame machine bounded by its in-batch
/// detection) and off (unbounded): every sweep must equal the oracle.
/// Returns the work of the bounded and of the unbounded sweeps, summed.
fn bound_matches_unbounded_and_oracle(
    nl: &Netlist,
    faults: &[LogicFault],
    sequences: usize,
    frame_counts: &[usize],
) -> (SweepWork, SweepWork) {
    let (mut bounded, mut unbounded) = (SweepWork::default(), SweepWork::default());
    for &frames in frame_counts {
        let vectors = random_vectors(nl, sequences * frames, 0x5142);
        let oracle = sweep(
            L64,
            nl,
            faults,
            &vectors,
            &FaultSweepOptions {
                threads: 1,
                fault_shards: 1,
                fault_dropping: false,
                backend: BackendKind::Csr,
                frames,
                ..FaultSweepOptions::default()
            },
        );
        let beyond_frame0 = oracle
            .first_detection
            .iter()
            .flatten()
            .filter(|&&v| v % frames > 0)
            .count();
        assert!(
            beyond_frame0 > 0,
            "{} frames={frames}: no state carried",
            nl.name()
        );
        for lanes in LaneWidth::ALL {
            for threads in [1, 2] {
                for dropping in [true, false] {
                    let options = FaultSweepOptions {
                        threads,
                        fault_dropping: dropping,
                        frames,
                        ..FaultSweepOptions::default()
                    };
                    let r = sweep(lanes, nl, faults, &vectors, &options);
                    assert_eq!(
                        r.first_detection,
                        oracle.first_detection,
                        "{} frames={frames} lanes={lanes} threads={threads} dropping={dropping}",
                        nl.name()
                    );
                    let sum = if dropping {
                        &mut bounded
                    } else {
                        &mut unbounded
                    };
                    *sum = *sum + r.work;
                }
            }
        }
    }
    (bounded, unbounded)
}

#[test]
fn multi_frame_fault_patch_matches_csr_oracle_on_s5378() {
    // A generated s5378 carries enough observable state that many faulty
    // machines diverge in several flops within a few frames, so a frame
    // superimposes many DFF pins in one walk (and bridges run their
    // fixpoint on top of them); the generated s1423 detects almost
    // nothing beyond frame 0. Every fiftieth node's stuck-at faults plus
    // the sampled bridges, 80 sequences: two 64-lane batches, one
    // part-filled 256- or 512-lane batch.
    let nl = seq("s5378");
    let faults: Vec<LogicFault> = logic_faults(&nl)
        .into_iter()
        .enumerate()
        .filter(|&(k, fault)| matches!(fault, LogicFault::Bridge { .. }) || k % 100 < 2)
        .map(|(_, fault)| fault)
        .collect();
    assert!(faults
        .iter()
        .any(|fault| matches!(fault, LogicFault::Bridge { .. })));
    let (bounded, unbounded) = bound_matches_unbounded_and_oracle(&nl, &faults, 80, &[3, 4, 7]);
    for work in [bounded, unbounded] {
        assert!(
            work.diverged_applications > 0 && work.diverged_pins > 2 * work.diverged_applications,
            "faulty machines must diverge in several flops"
        );
    }
    // The bound skips and narrows machines, and only with dropping.
    assert!(bounded.skipped_frames > 0 && bounded.narrowed_applications > 0);
    assert!(bounded.applications < unbounded.applications);
    assert_eq!(
        (unbounded.skipped_frames, unbounded.narrowed_applications),
        (0, 0)
    );
}

#[test]
fn detection_bound_matches_the_oracle_on_s298() {
    // Every fault of a generated s298, 160 sequences: three 64-lane
    // batches, one part-filled 256- or 512-lane batch.
    let nl = seq("s298");
    // At these vectors a fault caught beyond lane 0 is caught in its
    // sequence's last frame, so here the bound only skips.
    let (bounded, unbounded) =
        bound_matches_unbounded_and_oracle(&nl, &logic_faults(&nl), 160, &[3, 4, 7]);
    assert!(bounded.skipped_frames > 0);
    assert_eq!(
        (unbounded.skipped_frames, unbounded.narrowed_applications),
        (0, 0)
    );
}

/// Fanout-free-region corner cases in one circuit: a NOT/BUF chain into a
/// gate that reads one driver on both pins, a primary output that also
/// fans out, a three-input gate, a self-cancelling XNOR, a dangling gate,
/// a gate whose only consumer is a DFF D pin, and a primary input that is
/// also an output.
fn probe_shapes() -> Netlist {
    let mut b = NetlistBuilder::new("probe_shapes");
    let [a, bi, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| b.add_input(n));
    let gate = |b: &mut NetlistBuilder, name: &str, kind, fanin: Vec<NodeId>| {
        b.add_gate(name, kind, fanin).unwrap()
    };
    let n1 = gate(&mut b, "n1", CellKind::Not, vec![a]);
    let n2 = gate(&mut b, "n2", CellKind::Buf, vec![n1]);
    let n3 = gate(&mut b, "n3", CellKind::Not, vec![n2]);
    let dup = gate(&mut b, "dup", CellKind::Nand, vec![n3, n3]);
    let po_mid = gate(&mut b, "po_mid", CellKind::And, vec![dup, bi]);
    let g1 = gate(&mut b, "g1", CellKind::Or, vec![po_mid, c]);
    let g2 = gate(&mut b, "g2", CellKind::Nor, vec![po_mid, d]);
    let g3 = gate(&mut b, "g3", CellKind::And, vec![g1, g2, e]);
    let same = gate(&mut b, "same", CellKind::Xnor, vec![c, c]);
    gate(&mut b, "dangling", CellKind::And, vec![a, e]);
    let q = b.add_dff("q").unwrap();
    let only_d = gate(&mut b, "only_d", CellKind::Xor, vec![c, d]);
    b.set_dff_input(q, only_d);
    let y = gate(&mut b, "y", CellKind::Or, vec![q, same]);
    let z = gate(&mut b, "z", CellKind::Xor, vec![y, n3]);
    for o in [g3, po_mid, z, e] {
        b.mark_output(o);
    }
    b.build().unwrap()
}

#[test]
fn stuck_at_probe_matches_csr_oracle_on_edge_shapes() {
    for nl in [probe_shapes(), seq("s27"), seq("s298")] {
        let faults: Vec<LogicFault> = nl
            .node_ids()
            .flat_map(|node| {
                [false, true]
                    .map(|stuck_at_one| LogicFault::StuckAt(StuckAtFault { node, stuck_at_one }))
            })
            .collect();
        // More than 512 vectors: every lane width sweeps several batches.
        let vectors = random_vectors(&nl, 700, 0x5eed);
        let options = |backend| FaultSweepOptions {
            threads: 1,
            fault_dropping: false,
            backend,
            ..FaultSweepOptions::default()
        };
        let oracle = sweep(L64, &nl, &faults, &vectors, &options(BackendKind::Csr));
        assert!(oracle.detected.iter().any(|&d| d), "{}", nl.name());
        assert!(oracle.detected.iter().any(|&d| !d), "{}", nl.name());
        let delta = options(BackendKind::Delta);
        for lanes in LaneWidth::ALL {
            let r = sweep(lanes, &nl, &faults, &vectors, &delta);
            assert_eq!(
                r.first_detection,
                oracle.first_detection,
                "{} lanes {lanes}",
                nl.name()
            );
        }
    }
}

/// Runs a sweep under `control`, then checkpoints and resumes (through the
/// sealed JSON form) with a doubling quota until it completes.
fn resume_to_completion(
    nl: &Netlist,
    faults: &[LogicFault],
    vectors: &[Vec<bool>],
    options: &FaultSweepOptions,
    control: &RunControl,
    expected: StopReason,
) -> FaultSweepOutcome {
    let job = SweepJob::new(nl, faults, vectors, options, Some(L64), None).expect("a fresh job");
    let mut outcome = job.run(control, None).expect("a fresh sweep");
    // Dropping can finish a sweep before a quota bites; a cancelled one
    // never starts.
    if !outcome.is_complete() || expected == StopReason::Cancelled {
        assert_eq!(outcome.stop_reason(), Some(expected), "{}", nl.name());
    }
    let mut quota = 64;
    while !outcome.is_complete() {
        let cp = job.checkpoint(&outcome);
        assert!(cp.progress() < 1.0);
        let cp = SweepCheckpoint::from_json(&cp.to_json()).expect("sealed round trip");
        let again = RunControl::with_budget(RunBudget::unlimited().with_quota(quota));
        outcome = job
            .run(&again, Some(&cp))
            .expect("a checkpoint resumes its own run");
        quota *= 2;
        assert!(quota < 1 << 30, "resume chain failed to converge");
    }
    outcome.into_value()
}

#[test]
fn cancelled_sweep_resumes_bit_identical() {
    for nl in corpus() {
        let faults = logic_faults(&nl);
        let vectors = random_vectors(&nl, 600, 0xc0f7);
        for (frames, threads, shards, dropping) in [
            (1, 1, 0, true),
            (1, 2, 3, false),
            (3, 2, 0, true),
            (3, 1, 2, false),
        ] {
            let options = FaultSweepOptions {
                threads,
                fault_shards: shards,
                fault_dropping: dropping,
                frames,
                ..FaultSweepOptions::default()
            };
            let full = sweep(L64, &nl, &faults, &vectors, &options);
            let cancelled = RunControl::unlimited();
            cancelled.token().cancel();
            let quota = RunControl::with_budget(RunBudget::unlimited().with_quota(100));
            for (control, reason) in [
                (cancelled, StopReason::Cancelled),
                (quota, StopReason::QuotaExhausted),
            ] {
                let resumed =
                    resume_to_completion(&nl, &faults, &vectors, &options, &control, reason);
                assert_eq!(
                    resumed.first_detection,
                    full.first_detection,
                    "{} frames={frames} threads={threads} shards={shards} dropping={dropping}",
                    nl.name()
                );
                assert_eq!(resumed.done_batches, full.done_batches);
            }
        }
    }
}

/// Single-module cost of `nl` scored from scratch: a fresh context (at
/// the `GateSep` tier `Evaluated` reads) and a fresh `Evaluated`.
fn rebuild_cost(nl: &Netlist, library: &Library, config: &PartitionConfig) -> f64 {
    let ctx = EvalContext::new(nl, library, config.clone());
    Evaluated::new(&ctx, Partition::single_module(nl)).total_cost()
}

#[test]
fn per_gate_resynthesis_matches_rebuild_and_full_refresh() {
    let generic = Library::generic_1um();
    // A fractional peak current turns the maintained current histogram
    // off: that evaluation rescans it on every scoring, at the same bits.
    let mut inexact = generic.clone();
    let mut nand2 = generic.cell(CellKind::Nand, 2).clone();
    nand2.peak_current_ua = 100.3;
    inexact.override_cell(nand2);
    let config = &PartitionConfig::paper_default();
    let cases = [
        (iscas("c432"), &generic),
        (seq("s298"), &generic),
        (iscas("c880"), &generic),
        (iscas("c432"), &inexact),
    ];
    for (nl, library) in cases {
        let nand2_ua = library.cell(CellKind::Nand, 2).peak_current_ua;
        let name = format!("{} (NAND2 {nand2_ua} uA)", nl.name());
        let ctx = EvalContext::builder(&nl, library, config.clone())
            .tier(AnalysisTier::GateSep)
            .build();
        let objective = ctx.objective();
        // The shipped (pruned) search against a rebuild score of its
        // output.
        let (out, report) = cost_aware_per_gate_in(&ctx);
        assert_eq!(
            report.mixed_cost.to_bits(),
            rebuild_cost(&out, library, config).to_bits(),
            "{name}: reported cost vs rebuild of the returned netlist"
        );
        // The same greedy descent, driven in lock step: unpruned on the
        // incremental ΔW evaluation (`inc`) and on the full-refresh
        // reference (`full`), and through the pruned probe (`pruned`).
        let mut inc = ResynthEval::new(&ctx);
        let mut full = ResynthEval::new_full_refresh(&ctx);
        let mut pruned = ResynthEval::new(&ctx);
        let mut current = inc.total_cost();
        let mut current_separation = inc.figures().separation;
        assert_eq!(current.to_bits(), full.total_cost().to_bits());
        let wide: Vec<_> = nl
            .topo_order()
            .iter()
            .copied()
            .filter(|&g| nl.node(g).kind().cell_kind().is_some() && nl.node(g).fanin().len() > 2)
            .collect();
        assert!(!wide.is_empty(), "{name}: no wide gates to probe");
        let (mut probes, mut pruned_probes) = (0, 0);
        let mut committed = Vec::new();
        for gate in wide {
            let mut best: Option<(f64, _)> = None;
            for style in [DecompositionStyle::Balanced, DecompositionStyle::Chain] {
                let next_id = inc.node_count() as u32;
                let patch = decompose_gate_patch(&nl, gate, style, 2, next_id)
                    .unwrap()
                    .expect("gate is wide");
                let what = format!("{name}: probe {probes} ({style:?} on gate {})", gate.0);
                let beat = best.as_ref().map_or(current, |(b, _)| current.min(*b));
                inc.apply(&patch).unwrap();
                full.apply(&patch).unwrap();
                let mut figures = inc.figures();
                let cost = objective.total(&objective.terms(&figures));
                assert_eq!(cost.to_bits(), full.total_cost().to_bits(), "{what}");
                // The bound: the floor of the post-patch figures at the
                // pre-patch separation.
                figures.separation = current_separation;
                let bound = objective.floor(&figures);
                assert!(bound <= cost, "{what}: bound {bound} above exact {cost}");
                match pruned.probe(&patch, beat).unwrap() {
                    None => {
                        assert!(cost >= beat && cost >= bound, "{what}: pruned a winner");
                        pruned_probes += 1;
                    }
                    Some(scored) => {
                        assert_eq!(scored.to_bits(), cost.to_bits(), "{what}");
                        pruned.rollback();
                    }
                }
                probes += 1;
                inc.rollback();
                full.rollback();
                if cost < beat {
                    best = Some((cost, patch));
                }
            }
            if let Some((cost, patch)) = best {
                for eval in [&mut inc, &mut full, &mut pruned] {
                    eval.apply(&patch).unwrap();
                    eval.commit();
                    assert_eq!(eval.total_cost().to_bits(), cost.to_bits(), "{name}");
                }
                pruned.verify_consistency();
                current = cost;
                current_separation = inc.figures().separation;
                committed.push(patch);
            }
        }
        assert_eq!(current.to_bits(), report.mixed_cost.to_bits(), "{name}");
        inc.verify_consistency();
        full.verify_consistency();
        let unpruned = materialize(&nl, &Patch::concat(&committed)).unwrap();
        assert_eq!(
            to_bench(&out),
            to_bench(&unpruned),
            "{name}: returned netlist"
        );
        assert_eq!(
            (report.probes, report.pruned_probes),
            (probes, pruned_probes)
        );
        assert!(pruned_probes > 0, "{name}: the bound pruned nothing");
    }
}

#[test]
fn evolution_is_thread_invariant() {
    let library = Library::generic_1um();
    for nl in [data::c17(), iscas("c432"), seq("s298")] {
        let ctx = EvalContext::new(&nl, &library, PartitionConfig::paper_default());
        let run = |threads| {
            // Past the lifetime of 8, so aged-out parents are covered.
            let config = EvolutionConfig {
                generations: 10,
                stagnation: usize::MAX,
                threads,
                ..EvolutionConfig::default()
            };
            evolution::optimize(&ctx, &config, 5, &RunControl::unlimited()).into_value()
        };
        let serial = run(1);
        for threads in [2, 4] {
            let out = run(threads);
            let name = nl.name();
            assert_eq!(out.best, serial.best, "{name}: threads = {threads}");
            assert_eq!(
                out.best_cost.to_bits(),
                serial.best_cost.to_bits(),
                "{name}: threads = {threads}"
            );
            assert_eq!(
                (out.evaluations, out.pruned),
                (serial.evaluations, serial.pruned),
                "{name}: threads = {threads}"
            );
            assert_eq!(out.log, serial.log, "{name}: threads = {threads}");
        }
    }
}

#[test]
fn lazy_bridge_universe_matches_oracle_rows() {
    let config = FaultUniverseConfig::default();
    for nl in [iscas("c432"), iscas("c7552"), seq("s298")] {
        let wide = GateSeparationTable::direct(&nl, 6, 1);
        for seed in [5, 13] {
            let universe = enumerate(&nl, &config, seed);
            assert!(
                universe
                    .iter()
                    .any(|f| matches!(f, IddqFault::Bridge { .. })),
                "{}",
                nl.name()
            );
            assert_eq!(
                universe,
                enumerate_with(&nl, &config, seed, Some(&wide)),
                "{} seed {seed}",
                nl.name()
            );
        }
    }
    // The lazy BFS row of every gate, restricted to gates, is the
    // table's row (as distances instead of `ρ − d` weights).
    let nl = iscas("c432");
    let table = GateSeparationTable::direct(&nl, 5, 1);
    let mut bfs = BoundedBfs::new(&nl, 5);
    let mut row = Vec::new();
    for gate in nl.gate_ids() {
        row.clear();
        bfs.row_into(gate, &mut row);
        let lazy: Vec<(u32, u32)> = row
            .iter()
            .filter(|&&(n, _)| nl.is_gate(NodeId(n)))
            .map(|&(n, d)| (n, 5 - d))
            .collect();
        assert_eq!(lazy, table.row(gate), "gate {gate}");
    }
}
