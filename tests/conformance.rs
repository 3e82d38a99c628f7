//! Sweep conformance: both grid sweeps against their slow oracles on a
//! small seeded corpus of combinational and sequential circuits.
//!
//! * the IDDQ sweep equals the scalar per-vector oracle
//!   ([`reference::iddq_first_detection`]) for every thread count and
//!   frame count;
//! * the fault-patch sweep equals the per-fault CSR re-simulation oracle
//!   for every thread count, shard count, frame count and dropping
//!   setting;
//! * a cancelled sweep, checkpointed through its sealed JSON and resumed,
//!   is bit-identical to an uninterrupted one.

use iddq::logicsim::fault_sweep::{
    sweep_resume, sweep_with_control, FaultSweepOptions, FaultSweepOutcome, LogicFault,
    SweepCheckpoint,
};
use iddq::logicsim::faults::{enumerate, FaultUniverseConfig, IddqFault};
use iddq::logicsim::iddq::{simulate_with_options, SweepOptions, NO_MODULE};
use iddq::logicsim::logic_test::StuckAtFault;
use iddq::logicsim::{reference, BackendKind};
use iddq::netlist::{data, Netlist};
use iddq_control::{RunBudget, RunControl, StopReason};

/// c17, a 6-bit ripple adder, generated c432, and generated s27 / s298
/// (the last two carry DFF state).
fn corpus() -> Vec<Netlist> {
    let iscas = |name| {
        iddq::gen::iscas::generate(iddq::gen::iscas::IscasProfile::by_name(name).unwrap(), 5)
    };
    let seq =
        |name| iddq::gen::seq::generate(iddq::gen::seq::SeqProfile::by_name(name).unwrap(), 5);
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

fn sweep(
    nl: &Netlist,
    faults: &[LogicFault],
    vectors: &[Vec<bool>],
    options: &FaultSweepOptions,
) -> FaultSweepOutcome {
    sweep_with_control::<u64>(nl, faults, vectors, options, &RunControl::unlimited()).into_value()
}

#[test]
fn fault_patch_sweep_matches_csr_oracle() {
    for nl in corpus() {
        let faults = logic_faults(&nl);
        let vectors = random_vectors(&nl, 300, 0xfa17);
        for frames in [1, 3] {
            let oracle = sweep(
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
    let mut outcome = sweep_with_control::<u64>(nl, faults, vectors, options, control);
    // Dropping can finish a sweep before a quota bites; a cancelled one
    // never starts.
    if !outcome.is_complete() || expected == StopReason::Cancelled {
        assert_eq!(outcome.stop_reason(), Some(expected), "{}", nl.name());
    }
    let mut quota = 64;
    while !outcome.is_complete() {
        let cp = SweepCheckpoint::capture::<u64>(nl, faults, vectors, options, outcome.value());
        assert!(cp.progress() < 1.0);
        let cp = SweepCheckpoint::from_json(&cp.to_json()).expect("sealed round trip");
        let again = RunControl::with_budget(RunBudget::unlimited().with_quota(quota));
        outcome = sweep_resume::<u64>(nl, faults, vectors, options, &again, &cp)
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
            let full = sweep(&nl, &faults, &vectors, &options);
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
