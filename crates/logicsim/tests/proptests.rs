//! Property-based tests for the simulator and defect machinery, including
//! the differential suites pinning the CSR/wide-word kernel to the naive
//! scalar reference evaluator, and the event-driven engine's frame
//! stepping and fault-patch sweeps to the naive reference and the
//! per-fault CSR oracle.

use proptest::prelude::*;
use rand::Rng;

use iddq_logicsim::delta::DeltaSim;
use iddq_logicsim::fault_sweep::{self, FaultSweepOptions, LogicFault};
use iddq_logicsim::faults::IddqFault;
use iddq_logicsim::logic_test::StuckAtFault;
use iddq_logicsim::reference::NaiveSimulator;
use iddq_logicsim::{iddq, BackendKind, Simulator};
use iddq_netlist::{at_lanes, data, LaneWidth, Netlist, NodeId, PackedWord, W256, W512};

/// A random ISCAS-like netlist, sized to exercise every gate kind, long
/// same-kind runs and multi-level reordering in the CSR compiler.
fn random_netlist(seed: u64) -> iddq_netlist::Netlist {
    let profile = iddq_gen::iscas::IscasProfile::by_name("c432").expect("known circuit");
    iddq_gen::iscas::generate(profile, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The CSR-compiled kernel agrees bit-for-bit with the naive reference
    /// evaluator on random netlists and random packed inputs.
    #[test]
    fn csr_kernel_matches_naive_reference(seed in 0u64..500, salt in any::<u64>()) {
        let nl = random_netlist(seed);
        let sim = Simulator::new(&nl);
        let naive = NaiveSimulator::new(&nl);
        let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| salt.rotate_left((i % 63) as u32).wrapping_mul(2 * i + 1))
            .collect();
        prop_assert_eq!(sim.eval(&inputs), naive.eval(&inputs));
    }

    /// A 256-wide sweep equals four independent 64-wide sweeps, limb by
    /// limb, on random netlists.
    #[test]
    fn wide_sweep_matches_four_narrow_sweeps(seed in 0u64..500, salt in any::<u64>()) {
        let nl = random_netlist(seed);
        let sim = Simulator::new(&nl);
        let narrow: Vec<Vec<u64>> = (0..4u64)
            .map(|limb| {
                (0..nl.num_inputs() as u64)
                    .map(|i| {
                        (salt ^ (limb << 17)).rotate_left(((limb + 3) * i % 61) as u32)
                    })
                    .collect()
            })
            .collect();
        let wide: Vec<W256> = (0..nl.num_inputs())
            .map(|i| W256::from_limbs(|limb| narrow[limb][i]))
            .collect();
        let wv = sim.eval(&wide);
        for (limb, inputs) in narrow.iter().enumerate() {
            let nv = sim.eval(inputs);
            for id in nl.node_ids() {
                prop_assert_eq!(wv[id.index()].0[limb], nv[id.index()],
                    "limb {}, node {}", limb, id);
            }
        }
    }

    /// Fault activation masks are identical under u64 and W256 evaluation.
    #[test]
    fn activation_masks_width_invariant(seed in 0u64..200, salt in any::<u64>()) {
        let nl = random_netlist(seed);
        let sim = Simulator::new(&nl);
        let faults = iddq_logicsim::faults::enumerate(
            &nl,
            &iddq_logicsim::faults::FaultUniverseConfig::default(),
            seed,
        );
        let narrow: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| salt.wrapping_mul(i | 1).rotate_left((i % 59) as u32))
            .collect();
        let wide: Vec<W256> = narrow.iter().map(|&w| W256([w, !w, 0, !0])).collect();
        let nv = sim.eval(&narrow);
        let wv = sim.eval(&wide);
        for f in &faults {
            let an: u64 = f.activation(&nl, &nv);
            let aw: W256 = f.activation(&nl, &wv);
            prop_assert_eq!(aw.0[0], an);
        }
    }

    /// The threaded IDDQ sweep reproduces the sequential sweep exactly for
    /// any thread count.
    #[test]
    fn iddq_sweep_thread_invariant(seed in 0u64..100, threads in 2usize..9) {
        let nl = random_netlist(seed);
        let faults = iddq_logicsim::faults::enumerate(
            &nl,
            &iddq_logicsim::faults::FaultUniverseConfig::default(),
            seed,
        );
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x5eed);
        let vectors: Vec<Vec<bool>> = (0..600)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        let module_of: Vec<u32> = nl
            .node_ids()
            .map(|id| if nl.is_gate(id) { 0 } else { iddq::NO_MODULE })
            .collect();
        let run = |threads| {
            let options = iddq::SweepOptions { threads, ..iddq::SweepOptions::default() };
            iddq::simulate_with_options(&nl, &faults, &vectors, &module_of, &[0.01], 1.0, &options)
        };
        let seq = run(1);
        let par = run(threads);
        prop_assert_eq!(seq.detected, par.detected);
        prop_assert_eq!(seq.first_detection, par.first_detection);
    }

    /// A 512-wide sweep equals eight independent 64-wide sweeps, limb by
    /// limb, on random netlists.
    #[test]
    fn w512_sweep_matches_eight_narrow_sweeps(seed in 0u64..500, salt in any::<u64>()) {
        let nl = random_netlist(seed);
        let sim = Simulator::new(&nl);
        let narrow: Vec<Vec<u64>> = (0..8u64)
            .map(|limb| {
                (0..nl.num_inputs() as u64)
                    .map(|i| {
                        (salt ^ (limb << 13)).rotate_left(((limb + 5) * i % 59) as u32)
                    })
                    .collect()
            })
            .collect();
        let wide: Vec<W512> = (0..nl.num_inputs())
            .map(|i| W512::from_limbs(|limb| narrow[limb][i]))
            .collect();
        let wv = sim.eval(&wide);
        for (limb, inputs) in narrow.iter().enumerate() {
            let nv = sim.eval(inputs);
            for id in nl.node_ids() {
                prop_assert_eq!(wv[id.index()].limb(limb), nv[id.index()],
                    "limb {}, node {}", limb, id);
            }
        }
    }

    /// The fault-patch sweep engine reproduces the per-fault full CSR
    /// re-simulation oracle bit-for-bit on random netlists and random
    /// stuck-at/bridge fault lists — with fault dropping on or off, for
    /// any thread count and fault sharding.
    #[test]
    fn fault_patch_sweep_matches_csr_oracle(seed in 0u64..100, salt in any::<u64>()) {
        use rand::SeedableRng;
        let nl = random_netlist(seed);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ 0xfa17);
        let nodes: Vec<NodeId> = nl.node_ids().collect();
        let mut faults: Vec<LogicFault> = (0..24)
            .map(|_| LogicFault::StuckAt(StuckAtFault {
                node: nodes[rng.gen_range(0..nodes.len())],
                stuck_at_one: rng.gen(),
            }))
            .collect();
        faults.extend((0..8).map(|_| LogicFault::Bridge {
            a: nodes[rng.gen_range(0..nodes.len())],
            b: nodes[rng.gen_range(0..nodes.len())],
        }));
        let vectors: Vec<Vec<bool>> = (0..300)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        let oracle = fault_sweep::sweep::<W256>(&nl, &faults, &vectors, &FaultSweepOptions {
            threads: 1,
            fault_shards: 1,
            fault_dropping: false,
            backend: BackendKind::Csr,
            ..FaultSweepOptions::default()
        });
        for (threads, shards, dropping, backend) in [
            (1, 1, true, BackendKind::Delta),
            (1, 1, false, BackendKind::Delta),
            (3, 2, true, BackendKind::Delta),
            (4, 3, false, BackendKind::Delta),
            (2, 2, true, BackendKind::Csr),
        ] {
            let r = fault_sweep::sweep::<W256>(&nl, &faults, &vectors, &FaultSweepOptions {
                threads,
                fault_shards: shards,
                fault_dropping: dropping,
                backend,
                ..FaultSweepOptions::default()
            });
            prop_assert_eq!(&oracle.first_detection, &r.first_detection,
                "threads={} shards={} dropping={} backend={}",
                threads, shards, dropping, backend);
            prop_assert_eq!(&oracle.detected, &r.detected);
        }
    }

    /// The fault-patch sweep is lane-width invariant: u64, W256 and W512
    /// batching produce identical earliest detections.
    #[test]
    fn fault_patch_sweep_lane_invariant(seed in 0u64..60, salt in any::<u64>()) {
        use rand::SeedableRng;
        let nl = random_netlist(seed);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ 0x1a9e);
        let nodes: Vec<NodeId> = nl.node_ids().collect();
        let mut faults: Vec<LogicFault> = (0..12)
            .map(|_| LogicFault::StuckAt(StuckAtFault {
                node: nodes[rng.gen_range(0..nodes.len())],
                stuck_at_one: rng.gen(),
            }))
            .collect();
        faults.extend((0..4).map(|_| LogicFault::Bridge {
            a: nodes[rng.gen_range(0..nodes.len())],
            b: nodes[rng.gen_range(0..nodes.len())],
        }));
        let vectors: Vec<Vec<bool>> = (0..520)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        let opts = FaultSweepOptions::default();
        let narrow = fault_sweep::sweep::<u64>(&nl, &faults, &vectors, &opts);
        let wide = fault_sweep::sweep::<W256>(&nl, &faults, &vectors, &opts);
        let wider = fault_sweep::sweep::<W512>(&nl, &faults, &vectors, &opts);
        prop_assert_eq!(&narrow.first_detection, &wide.first_detection);
        prop_assert_eq!(&narrow.first_detection, &wider.first_detection);
    }

    /// Packed evaluation equals 64 independent scalar evaluations.
    #[test]
    fn packed_equals_scalar(words in prop::collection::vec(any::<u64>(), 9)) {
        let nl = data::ripple_adder(4); // 9 inputs
        let sim = Simulator::new(&nl);
        let packed = sim.eval(&words);
        for bit in [0u32, 17, 63] {
            let scalar: Vec<bool> = words.iter().map(|w| w >> bit & 1 == 1).collect();
            let values = sim.eval_bool(&scalar);
            for id in nl.node_ids() {
                prop_assert_eq!(packed[id.index()] >> bit & 1 == 1, values[id.index()]);
            }
        }
    }

    /// Bridge activation is symmetric in its two nets.
    #[test]
    fn bridge_activation_symmetric(words in prop::collection::vec(any::<u64>(), 5)) {
        let nl = data::c17();
        let sim = Simulator::new(&nl);
        let values = sim.eval(&words);
        let gs = data::c17_paper_gates(&nl);
        for i in 0..gs.len() {
            for j in i + 1..gs.len() {
                let ab = IddqFault::Bridge { a: gs[i], b: gs[j], current_ua: 1.0 };
                let ba = IddqFault::Bridge { a: gs[j], b: gs[i], current_ua: 1.0 };
                prop_assert_eq!(ab.activation(&nl, &values), ba.activation(&nl, &values));
            }
        }
    }

    /// More vectors can only help: detection is monotone in the vector
    /// set.
    #[test]
    fn detection_monotone_in_vectors(n1 in 1usize..20, n2 in 1usize..20, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let nl = data::ripple_adder(3);
        let (small, large) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let vectors: Vec<Vec<bool>> = (0..large)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        let faults: Vec<IddqFault> = nl
            .gate_ids()
            .map(|g| IddqFault::StuckOn { gate: g, current_ua: 100.0 })
            .collect();
        let module_of: Vec<u32> = nl
            .node_ids()
            .map(|id| if nl.is_gate(id) { 0 } else { iddq::NO_MODULE })
            .collect();
        let options = iddq::SweepOptions::default();
        let few = iddq::simulate_with_options(
            &nl, &faults, &vectors[..small], &module_of, &[0.01], 1.0, &options,
        );
        let many =
            iddq::simulate_with_options(&nl, &faults, &vectors, &module_of, &[0.01], 1.0, &options);
        prop_assert!(many.coverage >= few.coverage);
        for (a, b) in few.detected.iter().zip(&many.detected) {
            prop_assert!(!a || *b, "a detected fault stays detected");
        }
    }
}

/// Differential suites for the frame-based sequential path: random DFF
/// netlists × frame counts × sweep grids, pinned against the scalar
/// naive frame-stepping reference and the per-frame CSR rebuild oracle.
mod frames {
    use super::*;
    use iddq_control::{RunBudget, RunControl, StopReason};
    use iddq_logicsim::fault_sweep::SweepCheckpoint;
    use rand::SeedableRng;

    /// A random small sequential netlist (DFF state elements included):
    /// the profile shape and the fabric wiring both vary with the seed.
    fn random_seq_netlist(seed: u64) -> Netlist {
        let profiles = ["s27", "s298", "s386"];
        let profile = iddq_gen::seq::SeqProfile::by_name(profiles[(seed % 3) as usize])
            .expect("known s* profile");
        iddq_gen::seq::generate(profile, seed)
    }

    /// A random stuck-at + bridge fault list over every node (DFF outputs
    /// and primary inputs included).
    fn random_faults(nl: &Netlist, rng: &mut impl Rng) -> Vec<LogicFault> {
        let nodes: Vec<NodeId> = nl.node_ids().collect();
        let mut faults: Vec<LogicFault> = (0..20)
            .map(|_| {
                LogicFault::StuckAt(StuckAtFault {
                    node: nodes[rng.gen_range(0..nodes.len())],
                    stuck_at_one: rng.gen(),
                })
            })
            .collect();
        faults.extend((0..6).map(|_| LogicFault::Bridge {
            a: nodes[rng.gen_range(0..nodes.len())],
            b: nodes[rng.gen_range(0..nodes.len())],
        }));
        faults
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The packed CSR frame chain and the event-driven `DeltaSim`
        /// stepper both match the scalar naive
        /// per-frame-rebuild reference on random DFF netlists, frame by
        /// frame from the all-zero reset.
        #[test]
        fn frame_stepping_matches_naive_reference(
            seed in 0u64..60,
            salt in any::<u64>(),
            frames in 1usize..6,
        ) {
            let nl = random_seq_netlist(seed);
            let sim = Simulator::new(&nl);
            let naive = NaiveSimulator::new(&nl);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ 0xf7a3);
            let frame_inputs: Vec<Vec<u64>> = (0..frames)
                .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
                .collect();
            let want = naive.step_frames(&frame_inputs);
            let mut state = vec![0u64; sim.num_state_elements()];
            let mut values = vec![0u64; sim.node_count()];
            let mut delta = DeltaSim::<u64>::new(&nl);
            let mut dstate = vec![0u64; delta.num_state_elements()];
            for (t, inputs) in frame_inputs.iter().enumerate() {
                sim.step_frame(inputs, &mut state, &mut values);
                prop_assert_eq!(&values, &want[t], "csr frame {}", t);
                delta.step_frame(inputs, &mut dstate);
                prop_assert_eq!(delta.values(), &want[t][..], "delta frame {}", t);
            }
        }

        /// Multi-frame fault sweeps on random DFF netlists match the
        /// per-frame CSR rebuild oracle bit-for-bit, for every grid
        /// (threads × shards × dropping × backend).
        #[test]
        fn multi_frame_sweep_matches_per_frame_csr_oracle(
            seed in 0u64..60,
            salt in any::<u64>(),
            frames in 1usize..5,
        ) {
            let nl = random_seq_netlist(seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ 0x5e9f);
            let faults = random_faults(&nl, &mut rng);
            let vectors: Vec<Vec<bool>> = (0..frames * 100)
                .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
                .collect();
            let oracle = fault_sweep::sweep::<u64>(&nl, &faults, &vectors, &FaultSweepOptions {
                threads: 1,
                fault_shards: 1,
                fault_dropping: false,
                backend: BackendKind::Csr,
                frames,
                ..FaultSweepOptions::default()
            });
            for (threads, shards, dropping, backend) in [
                (1, 1, true, BackendKind::Delta),
                (1, 1, false, BackendKind::Delta),
                (3, 2, true, BackendKind::Delta),
                (2, 3, false, BackendKind::Csr),
            ] {
                let r = fault_sweep::sweep::<u64>(&nl, &faults, &vectors, &FaultSweepOptions {
                    threads,
                    fault_shards: shards,
                    fault_dropping: dropping,
                    backend,
                    frames,
                    ..FaultSweepOptions::default()
                });
                prop_assert_eq!(&oracle.first_detection, &r.first_detection,
                    "threads={} shards={} dropping={} backend={} frames={}",
                    threads, shards, dropping, backend, frames);
                prop_assert_eq!(&oracle.detected, &r.detected);
            }
        }

        /// Multi-frame sweeps are lane-width invariant, like the
        /// combinational sweep: a lower sequence index always has a lower
        /// plain vector index, so the earliest-detection min-merge is the
        /// same no matter how sequences are batched into lanes.
        #[test]
        fn multi_frame_sweep_lane_invariant(
            seed in 0u64..40,
            salt in any::<u64>(),
            frames in 2usize..5,
        ) {
            let nl = random_seq_netlist(seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ 0x1a4e);
            let faults = random_faults(&nl, &mut rng);
            let vectors: Vec<Vec<bool>> = (0..frames * 150)
                .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
                .collect();
            let opts = FaultSweepOptions { frames, ..FaultSweepOptions::default() };
            let narrow = fault_sweep::sweep::<u64>(&nl, &faults, &vectors, &opts);
            let wide = fault_sweep::sweep::<W256>(&nl, &faults, &vectors, &opts);
            prop_assert_eq!(&narrow.first_detection, &wide.first_detection);
            prop_assert_eq!(&narrow.detected, &wide.detected);
        }

        /// The in-batch detection bound is exact: at a random frame
        /// count, lane width and thread count, the bounded sweep
        /// (dropping on), the unbounded one (dropping off) and the CSR
        /// oracle report the same earliest detections, and only the
        /// bounded sweep skips or narrows a machine.
        #[test]
        fn detection_bound_matches_unbounded_and_oracle(
            seed in 0u64..60,
            salt in any::<u64>(),
            frames in 2usize..9,
            sequences in 1usize..700,
            grid in 0usize..6,
        ) {
            let (lanes, threads) = (LaneWidth::ALL[grid % 3], grid / 3 + 1);
            let nl = random_seq_netlist(seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ 0xb0d);
            let faults = random_faults(&nl, &mut rng);
            // A part-filled last sequence now and then.
            let vectors: Vec<Vec<bool>> = (0..sequences * frames - (salt % 2) as usize)
                .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
                .collect();
            let options = |fault_dropping, backend| FaultSweepOptions {
                threads,
                fault_dropping,
                backend,
                frames,
                ..FaultSweepOptions::default()
            };
            let oracle = fault_sweep::sweep::<u64>(
                &nl, &faults, &vectors, &options(false, BackendKind::Csr),
            );
            let [bounded, unbounded] = [true, false].map(|dropping| {
                at_lanes!(lanes, |W| fault_sweep::sweep::<W>(
                    &nl, &faults, &vectors, &options(dropping, BackendKind::Delta),
                ))
            });
            prop_assert_eq!(&bounded.first_detection, &oracle.first_detection,
                "bounded lanes={} frames={}", lanes, frames);
            prop_assert_eq!(&unbounded.first_detection, &oracle.first_detection,
                "unbounded lanes={} frames={}", lanes, frames);
            prop_assert_eq!(unbounded.work.skipped_frames, 0);
            prop_assert_eq!(unbounded.work.narrowed_applications, 0);
        }

        /// On DFF-free netlists the earliest detection is frames-
        /// invariant: regrouping the vector set into F-cycle sequences
        /// changes nothing when there is no state to carry, so any F
        /// reproduces the combinational sweep bit-for-bit.
        #[test]
        fn combinational_sweep_is_frames_invariant(
            seed in 0u64..40,
            salt in any::<u64>(),
            frames in 2usize..6,
        ) {
            let nl = random_netlist(seed);
            prop_assert_eq!(nl.num_state_elements(), 0);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ 0xc0b1);
            let faults = random_faults(&nl, &mut rng);
            let vectors: Vec<Vec<bool>> = (0..300)
                .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
                .collect();
            let base = fault_sweep::sweep::<u64>(
                &nl, &faults, &vectors, &FaultSweepOptions::default(),
            );
            let framed = fault_sweep::sweep::<u64>(&nl, &faults, &vectors, &FaultSweepOptions {
                frames,
                ..FaultSweepOptions::default()
            });
            prop_assert_eq!(&base.first_detection, &framed.first_detection);
            prop_assert_eq!(&base.detected, &framed.detected);
        }

        /// A multi-frame sweep cancelled at a random grid point resumes
        /// bit-identically, and its checkpoint refuses to resume under a
        /// different frame count — `frames` is part of the fingerprint.
        #[test]
        fn multi_frame_cancellation_resumes_bit_identical(
            seed in 0u64..30,
            salt in any::<u64>(),
            quota in 1u64..900,
            grid in 0usize..12,
        ) {
            let frames = grid % 3 + 2;
            let (threads, shards, dropping) = (grid / 6 + 1, grid % 2 + 1, grid % 2 == 0);
            let nl = random_seq_netlist(seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ 0xc0f7);
            let faults = random_faults(&nl, &mut rng);
            // 130 sequences at 64 lanes = 3 pattern batches, so random
            // quotas land at interior grid points.
            let vectors: Vec<Vec<bool>> = (0..frames * 130)
                .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
                .collect();
            let opts = FaultSweepOptions {
                threads,
                fault_shards: shards,
                fault_dropping: dropping,
                backend: BackendKind::Delta,
                frames,
                ..FaultSweepOptions::default()
            };
            let full = fault_sweep::sweep::<u64>(&nl, &faults, &vectors, &opts);

            let control = RunControl::with_budget(RunBudget::unlimited().with_quota(quota));
            let mut outcome =
                fault_sweep::sweep_with_control::<u64>(&nl, &faults, &vectors, &opts, &control);
            // The checkpoint frontier is per *batch*: a batch interrupted
            // with only some of its fault shards swept is re-swept whole,
            // so a fixed tiny quota could redo that same first cell every
            // round. Doubling the round quota keeps early rounds at
            // interior grid points while guaranteeing convergence.
            let mut round_quota = quota;
            let mut rounds = 0;
            while !outcome.is_complete() {
                prop_assert_eq!(outcome.stop_reason(), Some(StopReason::QuotaExhausted));
                let cp = SweepCheckpoint::capture::<u64>(
                    &nl, &faults, &vectors, &opts, outcome.value(),
                );
                let cp = SweepCheckpoint::from_json(&cp.to_json()).expect("round-trip");
                // The fingerprint pins the frame count: the same grid at
                // a different depth must be rejected, never resumed.
                let wrong_depth = FaultSweepOptions { frames: frames + 1, ..opts.clone() };
                prop_assert!(
                    cp.validate::<u64>(&nl, &faults, &vectors, &wrong_depth).is_err(),
                    "a checkpoint at {} frames must not resume at {}",
                    frames, frames + 1
                );
                round_quota = round_quota.saturating_mul(2);
                let again = RunControl::with_budget(RunBudget::unlimited().with_quota(round_quota));
                outcome = fault_sweep::sweep_resume::<u64>(
                    &nl, &faults, &vectors, &opts, &again, &cp,
                )
                .expect("checkpoint matches its own run");
                rounds += 1;
                prop_assert!(rounds < 64, "resume chain failed to converge");
            }
            let resumed = outcome.into_value();
            prop_assert_eq!(&full.first_detection, &resumed.first_detection);
            prop_assert_eq!(&full.detected, &resumed.detected);
        }
    }
}

/// The chaos harness the sweep checkpoint/resume machinery is gated on:
/// interrupt a sweep at a *random* grid point (quota budgets land the
/// stop at arbitrary cell x batch boundaries; the chaos knob panics a
/// worker mid-cell), persist a checkpoint through its JSON round-trip,
/// resume — possibly through several more random interruptions — and
/// require the final detections to be bit-identical to an uninterrupted
/// sweep, for any thread and shard count.
mod sweep_chaos {
    use super::*;
    use iddq_control::{RunBudget, RunControl, StopReason};
    use iddq_logicsim::fault_sweep::SweepCheckpoint;
    use rand::SeedableRng;

    fn universe(seed: u64, salt: u64) -> (Netlist, Vec<LogicFault>, Vec<Vec<bool>>) {
        let nl = data::ripple_adder((seed % 4 + 3) as usize);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ 0xc0de);
        let nodes: Vec<NodeId> = nl.node_ids().collect();
        let mut faults: Vec<LogicFault> = (0..20)
            .map(|_| {
                LogicFault::StuckAt(StuckAtFault {
                    node: nodes[rng.gen_range(0..nodes.len())],
                    stuck_at_one: rng.gen(),
                })
            })
            .collect();
        faults.extend((0..6).map(|_| LogicFault::Bridge {
            a: nodes[rng.gen_range(0..nodes.len())],
            b: nodes[rng.gen_range(0..nodes.len())],
        }));
        // 300 vectors at 64 lanes = 5 pattern batches, so random quotas
        // actually land at interior grid points.
        let vectors: Vec<Vec<bool>> = (0..300)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        (nl, faults, vectors)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Quota cancellation at a random grid point, checkpointed and
        /// chain-resumed to completion, is bit-identical to the
        /// uninterrupted sweep.
        #[test]
        fn random_cancellation_resumes_bit_identical(
            seed in 0u64..40,
            salt in any::<u64>(),
            quota in 1u64..1500,
            grid in 0usize..24,
        ) {
            // One parameter fans out into (threads, shards, dropping) so
            // the whole grid is explored without exceeding the strategy
            // tuple arity.
            let (threads, shards, dropping) = (grid / 6 + 1, grid % 3 + 1, grid % 2 == 0);
            let (nl, faults, vectors) = universe(seed, salt);
            let opts = FaultSweepOptions {
                threads,
                fault_shards: shards,
                fault_dropping: dropping,
                backend: BackendKind::Delta,
                ..FaultSweepOptions::default()
            };
            let full = fault_sweep::sweep::<u64>(&nl, &faults, &vectors, &opts);

            let control = RunControl::with_budget(RunBudget::unlimited().with_quota(quota));
            let mut outcome =
                fault_sweep::sweep_with_control::<u64>(&nl, &faults, &vectors, &opts, &control);
            let mut rounds = 0;
            while !outcome.is_complete() {
                prop_assert_eq!(outcome.stop_reason(), Some(StopReason::QuotaExhausted));
                // Persist through JSON exactly like the CLI does — the
                // resume path must survive serialization, not just the
                // in-memory struct.
                let cp = SweepCheckpoint::capture::<u64>(
                    &nl, &faults, &vectors, &opts, outcome.value(),
                );
                let cp = SweepCheckpoint::from_json(&cp.to_json()).expect("round-trip");
                let again = RunControl::with_budget(RunBudget::unlimited().with_quota(quota));
                outcome = fault_sweep::sweep_resume::<u64>(
                    &nl, &faults, &vectors, &opts, &again, &cp,
                )
                .expect("checkpoint matches its own run");
                rounds += 1;
                // Every round completes at least one cell x batch unit,
                // so the chain must converge well before this bound.
                prop_assert!(rounds < 512, "resume chain failed to converge");
            }
            let resumed = outcome.into_value();
            prop_assert_eq!(&full.first_detection, &resumed.first_detection);
            prop_assert_eq!(&full.detected, &resumed.detected);
        }

        /// A worker panic at a random batch degrades to a Partial whose
        /// checkpoint resumes to the bit-identical full result.
        #[test]
        fn random_worker_panic_resumes_bit_identical(
            seed in 0u64..40,
            salt in any::<u64>(),
            panic_batch in 0usize..8,
            grid in 0usize..9,
        ) {
            let (threads, shards) = (grid / 3 + 1, grid % 3 + 1);
            let (nl, faults, vectors) = universe(seed, salt);
            // Dropping off so every batch is actually visited and the
            // chaos knob's absolute batch index is reached.
            let clean = FaultSweepOptions {
                threads,
                fault_shards: shards,
                fault_dropping: false,
                backend: BackendKind::Delta,
                ..FaultSweepOptions::default()
            };
            let full = fault_sweep::sweep::<u64>(&nl, &faults, &vectors, &clean);

            let chaotic = FaultSweepOptions {
                chaos_panic_batch: Some(panic_batch),
                ..clean.clone()
            };
            let outcome = fault_sweep::sweep_with_control::<u64>(
                &nl, &faults, &vectors, &chaotic, &RunControl::unlimited(),
            );
            let num_batches = vectors.len().div_ceil(64);
            if panic_batch >= num_batches {
                // The chaos batch is beyond the grid: nothing fires and
                // the sweep must complete identically to the clean run.
                prop_assert!(outcome.is_complete());
                let r = outcome.into_value();
                prop_assert_eq!(&full.first_detection, &r.first_detection);
                return;
            }
            prop_assert_eq!(outcome.stop_reason(), Some(StopReason::WorkerPanicked));
            let cp = SweepCheckpoint::capture::<u64>(
                &nl, &faults, &vectors, &chaotic, outcome.value(),
            );
            let cp = SweepCheckpoint::from_json(&cp.to_json()).expect("round-trip");
            let resumed = fault_sweep::sweep_resume::<u64>(
                &nl, &faults, &vectors, &clean, &RunControl::unlimited(), &cp,
            )
            .expect("checkpoint matches its own run")
            .into_value();
            prop_assert_eq!(&full.first_detection, &resumed.first_detection);
            prop_assert_eq!(&full.detected, &resumed.detected);
        }
    }
}
