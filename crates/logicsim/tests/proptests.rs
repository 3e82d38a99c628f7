//! Property-based tests for the simulator and defect machinery, including
//! the differential suites pinning the CSR/wide-word kernel to the naive
//! scalar reference evaluator and the event-driven incremental engine to
//! the batch CSR kernel under random mutation/rollback sequences.

use proptest::prelude::*;
use rand::Rng;

use iddq_logicsim::delta::{DeltaSim, Patch, PatchOp};
use iddq_logicsim::fault_sweep::{self, FaultSweepOptions, LogicFault};
use iddq_logicsim::faults::IddqFault;
use iddq_logicsim::logic_test::StuckAtFault;
use iddq_logicsim::reference::NaiveSimulator;
use iddq_logicsim::{iddq, BackendKind, Simulator};
use iddq_netlist::{data, CellKind, Netlist, NetlistBuilder, NodeId, PackedWord, W256, W512};

/// A random ISCAS-like netlist, sized to exercise every gate kind, long
/// same-kind runs and multi-level reordering in the CSR compiler.
fn random_netlist(seed: u64) -> iddq_netlist::Netlist {
    let profile = iddq_gen::iscas::IscasProfile::by_name("c432").expect("known circuit");
    iddq_gen::iscas::generate(profile, seed)
}

/// The transitive fanout cone of `seed`, the seed first, in BFS order.
fn fanout_cone(nl: &Netlist, seed: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; nl.node_count()];
    seen[seed.index()] = true;
    let mut cone = vec![seed];
    let mut head = 0;
    while head < cone.len() {
        for &f in nl.fanout(cone[head]) {
            if !std::mem::replace(&mut seen[f.index()], true) {
                cone.push(f);
            }
        }
        head += 1;
    }
    cone
}

/// A mutable mirror of a netlist's structure, rebuilt into a fresh
/// [`Netlist`] after every patch so the batch CSR kernel can act as the
/// oracle for the incremental engine.
struct Model {
    kinds: Vec<Option<CellKind>>,
    fanins: Vec<Vec<NodeId>>,
    names: Vec<String>,
    outputs: Vec<NodeId>,
}

impl Model {
    fn of(nl: &Netlist) -> Self {
        Model {
            kinds: nl
                .node_ids()
                .map(|id| nl.node(id).kind().cell_kind())
                .collect(),
            fanins: nl
                .node_ids()
                .map(|id| nl.node(id).fanin().to_vec())
                .collect(),
            names: nl
                .node_ids()
                .map(|id| nl.node_name(id).to_owned())
                .collect(),
            outputs: nl.outputs().to_vec(),
        }
    }

    fn apply(&mut self, patch: &Patch) {
        for op in &patch.ops {
            match op {
                PatchOp::SetKind { gate, kind } => self.kinds[gate.index()] = Some(*kind),
                PatchOp::SetFanin { gate, fanin } => {
                    self.fanins[gate.index()] = fanin.clone();
                }
                PatchOp::AddGate { gate, kind, fanin } => {
                    assert_eq!(gate.index(), self.kinds.len());
                    self.kinds.push(Some(*kind));
                    self.fanins.push(fanin.clone());
                    self.names.push(format!("padd{}", gate.index()));
                }
                PatchOp::RemoveGate { gate } => {
                    assert_eq!(gate.index() + 1, self.kinds.len());
                    self.kinds.pop();
                    self.fanins.pop();
                    self.names.pop();
                }
            }
        }
    }

    /// Whether the last node can be popped: a gate, not an output, with no
    /// consumers.
    fn tail_removable(&self) -> bool {
        let last = self.kinds.len() - 1;
        self.kinds[last].is_some()
            && !self.outputs.contains(&NodeId(last as u32))
            && !self
                .fanins
                .iter()
                .any(|fanin| fanin.iter().any(|f| f.index() == last))
    }

    /// Rebuilds a validated netlist. Node ids are preserved because nodes
    /// are re-added in id order.
    fn build(&self) -> Netlist {
        let mut b = NetlistBuilder::new("model");
        for (i, kind) in self.kinds.iter().enumerate() {
            match kind {
                None => {
                    b.add_input(&self.names[i]);
                }
                Some(k) => {
                    b.add_gate(&self.names[i], *k, self.fanins[i].clone())
                        .expect("model keeps arities legal");
                }
            }
        }
        for &o in &self.outputs {
            b.mark_output(o);
        }
        b.build().expect("model keeps the DAG acyclic")
    }

    /// Topological levels of the current model structure.
    fn levels(&self) -> Vec<u32> {
        iddq_netlist::levelize::levels(&self.build())
    }
}

/// Draws one structurally valid, acyclicity-preserving patch: a kind
/// flip, a same-arity rewire onto strictly shallower drivers, a gate
/// insertion at the tail, or a removal of a consumer-free tail gate.
fn random_patch(model: &Model, rng: &mut impl Rng) -> Option<Patch> {
    let gates: Vec<usize> = (0..model.kinds.len())
        .filter(|&i| model.kinds[i].is_some())
        .collect();
    let gi = gates[rng.gen_range(0..gates.len())];
    let gate = NodeId(gi as u32);
    let arity = model.fanins[gi].len();
    match rng.gen_range(0..4u32) {
        0 => {
            // Kind flip to a different kind accepting the current arity.
            let options: Vec<CellKind> = CellKind::ALL
                .into_iter()
                .filter(|k| k.accepts_fanin(arity) && Some(*k) != model.kinds[gi])
                .collect();
            if options.is_empty() {
                return None;
            }
            let kind = options[rng.gen_range(0..options.len())];
            Some(Patch::single(PatchOp::SetKind { gate, kind }))
        }
        1 => {
            // Rewire: same arity, drivers drawn from strictly lower levels
            // (guarantees the DAG stays acyclic).
            let levels = model.levels();
            let shallow: Vec<NodeId> = (0..model.kinds.len() as u32)
                .map(NodeId)
                .filter(|n| levels[n.index()] < levels[gi])
                .collect();
            if shallow.is_empty() {
                return None;
            }
            let fanin: Vec<NodeId> = (0..arity)
                .map(|_| shallow[rng.gen_range(0..shallow.len())])
                .collect();
            Some(Patch::single(PatchOp::SetFanin { gate, fanin }))
        }
        2 => {
            // Insertion at the tail, reading any existing nodes.
            let kind = CellKind::ALL[rng.gen_range(0..CellKind::ALL.len())];
            let arity = if kind.accepts_fanin(1) {
                1
            } else {
                rng.gen_range(2..=4)
            };
            let fanin: Vec<NodeId> = (0..arity)
                .map(|_| NodeId(rng.gen_range(0..model.kinds.len() as u32)))
                .collect();
            Some(Patch::single(PatchOp::AddGate {
                gate: NodeId(model.kinds.len() as u32),
                kind,
                fanin,
            }))
        }
        _ => {
            // Removal of the tail, when it is a consumer-free non-output
            // gate (typically one inserted earlier in the sequence).
            if !model.tail_removable() {
                return None;
            }
            Some(Patch::single(PatchOp::RemoveGate {
                gate: NodeId(model.kinds.len() as u32 - 1),
            }))
        }
    }
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

    /// The event-driven incremental engine stays bit-for-bit equal to a
    /// from-scratch CSR evaluation of the equivalently mutated circuit
    /// across a random sequence of kind-flip and rewire patches, with
    /// random immediate apply→rollback round-trips interleaved, and the
    /// full unwind of the patch stack restores the pristine circuit.
    #[test]
    fn delta_engine_matches_csr_under_mutation_sequences(
        seed in 0u64..200,
        salt in any::<u64>(),
        steps in 1usize..8,
    ) {
        use rand::{Rng, SeedableRng};
        let nl = random_netlist(seed);
        let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| salt.rotate_left((i % 61) as u32).wrapping_mul(2 * i + 1))
            .collect();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&inputs);
        let pristine = delta.values().to_vec();
        prop_assert_eq!(&pristine[..], &Simulator::new(&nl).eval(&inputs)[..]);

        let mut model = Model::of(&nl);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ salt);
        let mut applied = 0usize;
        for _ in 0..steps {
            let Some(patch) = random_patch(&model, &mut rng) else { continue };
            if rng.gen_bool(0.3) {
                // Round-trip: apply + immediate rollback is a no-op.
                let before = delta.values().to_vec();
                delta.apply(&patch).expect("patch is structurally valid");
                delta.rollback();
                prop_assert_eq!(delta.values(), &before[..]);
                continue;
            }
            delta.apply(&patch).expect("patch is structurally valid");
            applied += 1;
            model.apply(&patch);
            // Oracle: fresh CSR compile + full sweep of the mutated
            // circuit (node ids preserved by the model rebuild). The node
            // set may have grown or shrunk, so compare over the model's
            // current ids — inserted gates included.
            let oracle = Simulator::new(&model.build()).eval(&inputs);
            prop_assert_eq!(delta.node_count(), model.kinds.len());
            for i in 0..model.kinds.len() {
                let id = NodeId(i as u32);
                prop_assert_eq!(
                    delta.value(id), oracle[id.index()],
                    "node {} after {} patches", id, applied
                );
            }
        }
        // Unwind the whole stack: back to the pristine circuit.
        for _ in 0..applied {
            delta.rollback();
        }
        prop_assert_eq!(delta.values(), &pristine[..]);
    }

    /// A rewire that would close a combinational cycle is rejected and
    /// the engine state is untouched.
    #[test]
    fn delta_engine_rejects_cycles_atomically(seed in 0u64..100, salt in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let nl = random_netlist(seed);
        let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| salt.wrapping_mul(i | 1))
            .collect();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&inputs);
        let before = delta.values().to_vec();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xc1c);
        // Pick a gate with a non-trivial fanout cone and wire one of its
        // transitive successors back into it.
        let candidates: Vec<NodeId> = nl.gate_ids().filter(|&g| fanout_cone(&nl, g).len() > 1).collect();
        // Multi-level circuits always have gates with downstream cones.
        prop_assert!(!candidates.is_empty());
        let gate = candidates[rng.gen_range(0..candidates.len())];
        let cone = fanout_cone(&nl, gate);
        let succ = cone[rng.gen_range(1..cone.len())];
        let arity = nl.node(gate).fanin().len();
        let fanin: Vec<NodeId> = (0..arity).map(|_| succ).collect();
        let err = delta
            .apply(&Patch::single(PatchOp::SetFanin { gate, fanin }))
            .unwrap_err();
        prop_assert!(matches!(err, iddq_logicsim::delta::PatchError::Cycle(_)));
        prop_assert_eq!(delta.values(), &before[..]);
        prop_assert_eq!(delta.pending_patches(), 0);
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
