//! Sensor-level IDDQ detection: which defects does each test vector expose
//! to which BIC sensor.
//!
//! A partitioned CUT has one current sensor per module. After a vector is
//! applied and the transient decays, sensor *i* measures the module's
//! fault-free leakage `I_DDQ,nd,i` plus the current of any *activated*
//! defect sited in the module; it flags FAIL when the measurement exceeds
//! `I_DDQ,th`. Detection therefore requires both the logical activation
//! condition (from [`faults`](crate::faults)) and an electrically sane
//! sensor: `I_DDQ,nd,i < I_DDQ,th` — the discriminability constraint the
//! partitioner enforces.
//!
//! The sweep packs vectors 256 at a time into [`W256`] words, evaluates
//! the fault-free machine with the CSR-compiled [`Simulator`] (IDDQ
//! detection needs only fault-free values), and checks each defect's
//! activation on the fault-shard × pattern-batch grid it shares with the
//! [`fault_sweep`](crate::fault_sweep), spread over worker threads.

use std::ops::Range;

use iddq_control::{Outcome, RunControl};
use iddq_netlist::{Netlist, PackedWord, W256};

use crate::faults::IddqFault;
use crate::grid;
use crate::sim::Simulator;

/// Module assignment marker for nodes outside any module (primary inputs).
pub const NO_MODULE: u32 = u32::MAX;

/// Outcome of an IDDQ test experiment.
#[derive(Debug, Clone)]
pub struct IddqSimulation {
    /// Per-fault: was it detected by any vector/sensor.
    pub detected: Vec<bool>,
    /// Per-fault: index of the first detecting vector, if any.
    pub first_detection: Vec<Option<usize>>,
    /// Fraction of faults detected.
    pub coverage: f64,
    /// Number of vectors applied.
    pub vectors_applied: usize,
}

/// Packs one chunk of boolean vectors (at most `W::LANES`) into a reused
/// word buffer, one word per primary input.
///
/// # Panics
///
/// Panics if the chunk exceeds the lane count, any vector's arity differs
/// from `words.len()`, or `words` is shorter than the vectors.
pub fn pack_chunk_into<W: PackedWord>(chunk: &[Vec<bool>], words: &mut [W]) {
    assert!(chunk.len() <= W::LANES as usize, "chunk exceeds lane count");
    words.fill(W::zeros());
    for (k, v) in chunk.iter().enumerate() {
        assert_eq!(v.len(), words.len(), "vector arity mismatch");
        for (i, &bit) in v.iter().enumerate() {
            if bit {
                words[i].set_bit(k as u32);
            }
        }
    }
}

/// Packs frame `t` of each sequence in a batch: lane `k` reads vector
/// `(seq_base + k) * frames + t` (vectors are *sequence-major*: the `F`
/// consecutive vectors of sequence `s` are its per-frame stimuli).
/// Returns how many lanes have a vector at this frame — always a lane
/// *prefix*, so a short tail sequence stops contributing cleanly and the
/// caller can mask detections with [`PackedWord::mask_lanes`].
///
/// # Panics
///
/// Panics if any touched vector's arity differs from `words.len()`.
pub fn pack_seq_frame_into<W: PackedWord>(
    vectors: &[Vec<bool>],
    seq_base: usize,
    frames: usize,
    t: usize,
    words: &mut [W],
) -> u32 {
    words.fill(W::zeros());
    let mut valid = 0u32;
    for k in 0..W::LANES as usize {
        let vi = (seq_base + k) * frames + t;
        if vi >= vectors.len() {
            break;
        }
        valid = k as u32 + 1;
        let v = &vectors[vi];
        assert_eq!(v.len(), words.len(), "vector arity mismatch");
        for (i, &bit) in v.iter().enumerate() {
            if bit {
                words[i].set_bit(k as u32);
            }
        }
    }
    valid
}

/// Packs boolean vectors into `W::LANES`-wide batches for
/// [`Simulator::eval`] (64 per batch for `u64`).
///
/// Returns `(batches, used)` where each batch holds one word per primary
/// input; the last batch may be partially filled.
///
/// # Panics
///
/// Panics if any vector's length differs from `num_inputs`.
#[must_use]
pub fn pack_vectors<W: PackedWord>(
    vectors: &[Vec<bool>],
    num_inputs: usize,
) -> Vec<(Vec<W>, usize)> {
    vectors
        .chunks(W::LANES as usize)
        .map(|chunk| {
            let mut words = vec![W::zeros(); num_inputs];
            pack_chunk_into(chunk, &mut words);
            (words, chunk.len())
        })
        .collect()
}

/// Tuning knobs of the IDDQ sweep. Results are identical for every
/// setting.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `0` = one per available core (capped by the work).
    pub threads: usize,
    /// Frames per test sequence. `0` or `1` = the classical one-shot
    /// sweep; `F > 1` reads the vector set as consecutive `F`-cycle
    /// sequences from the all-zero reset, and a defect is detected at
    /// vector index `seq*F + frame` when that frame's *fault-free* values
    /// activate it (IDDQ detection needs activation, not propagation —
    /// the good machine's state trajectory is the only one simulated).
    pub frames: usize,
}

/// Runs the full IDDQ test experiment.
///
/// * `module_of[node]` — module index per node ([`NO_MODULE`] for primary
///   inputs),
/// * `module_leakage_ua[m]` — fault-free quiescent current of module `m`,
/// * `threshold_ua` — the sensors' common `I_DDQ,th`.
///
/// A fault is *detected* by a vector iff it is activated and at least one
/// of its site modules has a sane sensor (`leakage < threshold`) whose
/// measurement `leakage + defect current` reaches the threshold.
///
/// The result is bit-identical for any [`SweepOptions::threads`]: workers
/// only report each fault's earliest activating vector inside their own
/// grid cell, and the merge takes the minimum.
///
/// # Panics
///
/// Panics if `module_of.len() != netlist.node_count()` or a gate maps to a
/// module index out of range of `module_leakage_ua`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn simulate_with_options(
    netlist: &Netlist,
    faults: &[IddqFault],
    vectors: &[Vec<bool>],
    module_of: &[u32],
    module_leakage_ua: &[f64],
    threshold_ua: f64,
    options: &SweepOptions,
) -> IddqSimulation {
    simulate_with_control(
        netlist,
        faults,
        vectors,
        module_of,
        module_leakage_ua,
        threshold_ua,
        options,
        &RunControl::unlimited(),
    )
    .into_value()
}

/// [`simulate_with_options`] under an [`iddq_control::RunControl`]:
/// cancellable, budget-aware, and panic-isolated.
///
/// Workers poll the control at every pattern-batch boundary and charge one
/// work unit per pattern applied per grid cell. On a stop the function
/// returns [`Outcome::Partial`] — the detections of every completed cell,
/// a `coverage` equal to the fraction of planned cell-batch work that ran,
/// and the [`StopReason`](iddq_control::StopReason); a caught worker panic
/// ends the same way with `WorkerPanicked`.
///
/// # Panics
///
/// As [`simulate_with_options`] (argument-shape violations are caller
/// bugs, not runtime conditions).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn simulate_with_control(
    netlist: &Netlist,
    faults: &[IddqFault],
    vectors: &[Vec<bool>],
    module_of: &[u32],
    module_leakage_ua: &[f64],
    threshold_ua: f64,
    options: &SweepOptions,
    control: &RunControl,
) -> Outcome<IddqSimulation> {
    assert_eq!(module_of.len(), netlist.node_count());
    // Sensor sanity is a property of the partition, not of the vector:
    // decide it once per fault.
    let sensor_sees = |module: u32, current_ua: f64| {
        module != NO_MODULE && {
            let leak = module_leakage_ua[module as usize];
            leak < threshold_ua && leak + current_ua >= threshold_ua
        }
    };
    let seen: Vec<bool> = faults
        .iter()
        .map(|fault| {
            let (a, b) = fault.sites();
            sensor_sees(module_of[a.index()], fault.current_ua())
                || b.is_some_and(|b| sensor_sees(module_of[b.index()], fault.current_ua()))
        })
        .collect();
    let spec = grid::Spec {
        faults: faults.len(),
        vectors: vectors.len(),
        lanes: W256::LANES as usize,
        frames: options.frames,
        threads: options.threads,
        fault_shards: 0,
        dropping: true,
        chaos_panic_batch: None,
        resume: None,
    };
    grid::run(&spec, control, || Activation {
        netlist,
        faults,
        vectors,
        seen: &seen,
        frames: options.frames.max(1),
        sim: Simulator::new(netlist),
        words: vec![W256::zeros(); netlist.num_inputs()],
        values: vec![W256::zeros(); netlist.node_count()],
        state: vec![W256::zeros(); netlist.num_state_elements()],
    })
    .map(|sweep| {
        let (detected, coverage) = sweep.detected();
        IddqSimulation {
            detected,
            first_detection: sweep.first_detection,
            coverage,
            vectors_applied: vectors.len(),
        }
    })
}

/// The IDDQ sweep's per-worker detector: steps the fault-free machine
/// through each frame of a batch of sequences and checks every live
/// fault's activation (frames = 1 is one plain evaluation).
struct Activation<'a> {
    netlist: &'a Netlist,
    faults: &'a [IddqFault],
    vectors: &'a [Vec<bool>],
    /// Per fault: some site module's sensor can see its current.
    seen: &'a [bool],
    frames: usize,
    sim: Simulator,
    words: Vec<W256>,
    values: Vec<W256>,
    state: Vec<W256>,
}

impl grid::Detector for Activation<'_> {
    fn detectable(&self, fault: usize) -> bool {
        self.seen[fault]
    }

    fn sweep_batch(
        &mut self,
        batch: usize,
        faults: Range<usize>,
        live: &[bool],
        hits: &mut [Option<(u32, usize)>],
    ) {
        let seq_base = batch * W256::LANES as usize;
        self.state.fill(W256::zeros());
        for t in 0..self.frames {
            let lanes =
                pack_seq_frame_into(self.vectors, seq_base, self.frames, t, &mut self.words);
            if lanes == 0 {
                break;
            }
            self.sim
                .step_frame(&self.words, &mut self.state, &mut self.values);
            for ((hit, &l), fault) in hits.iter_mut().zip(live).zip(&self.faults[faults.clone()]) {
                if !l {
                    continue;
                }
                let act = fault
                    .activation(self.netlist, &self.values)
                    .mask_lanes(lanes);
                if let Some(lane) = act.first_set() {
                    if hit.is_none_or(|(best, _)| lane < best) {
                        *hit = Some((lane, t));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_control::StopReason;
    use iddq_netlist::data;

    fn simulate(
        nl: &Netlist,
        faults: &[IddqFault],
        vectors: &[Vec<bool>],
        module_of: &[u32],
        leakage: &[f64],
        threshold: f64,
    ) -> IddqSimulation {
        let options = SweepOptions::default();
        simulate_with_options(nl, faults, vectors, module_of, leakage, threshold, &options)
    }

    fn one_module_assignment(nl: &Netlist) -> Vec<u32> {
        nl.node_ids()
            .map(|id| if nl.is_gate(id) { 0 } else { NO_MODULE })
            .collect()
    }

    #[test]
    fn activated_fault_is_detected_with_good_sensor() {
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        let faults = vec![IddqFault::StuckOn {
            gate: g22,
            current_ua: 50.0,
        }];
        let vectors = vec![vec![true; 5]]; // 22 = 1 → activated
        let module_of = one_module_assignment(&nl);
        let r = simulate(&nl, &faults, &vectors, &module_of, &[0.1], 1.0);
        assert_eq!(r.detected, vec![true]);
        assert_eq!(r.first_detection, vec![Some(0)]);
        assert_eq!(r.coverage, 1.0);
    }

    #[test]
    fn unactivated_fault_is_missed() {
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        let faults = vec![IddqFault::StuckOn {
            gate: g22,
            current_ua: 50.0,
        }];
        let vectors = vec![vec![false; 5]]; // 22 = 0 → not activated
        let module_of = one_module_assignment(&nl);
        let r = simulate(&nl, &faults, &vectors, &module_of, &[0.1], 1.0);
        assert_eq!(r.detected, vec![false]);
        assert_eq!(r.coverage, 0.0);
    }

    #[test]
    fn saturated_sensor_cannot_detect() {
        // Module leakage above threshold: the sensor always fails, so the
        // measurement carries no defect information — the discriminability
        // constraint exists precisely to rule this out.
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        let faults = vec![IddqFault::StuckOn {
            gate: g22,
            current_ua: 50.0,
        }];
        let vectors = vec![vec![true; 5]];
        let module_of = one_module_assignment(&nl);
        let r = simulate(&nl, &faults, &vectors, &module_of, &[5.0], 1.0);
        assert_eq!(r.detected, vec![false]);
    }

    #[test]
    fn tiny_defect_current_below_threshold_missed() {
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        let faults = vec![IddqFault::StuckOn {
            gate: g22,
            current_ua: 0.5,
        }];
        let vectors = vec![vec![true; 5]];
        let module_of = one_module_assignment(&nl);
        // leakage 0.1 + defect 0.5 = 0.6 < 1.0 → missed
        let r = simulate(&nl, &faults, &vectors, &module_of, &[0.1], 1.0);
        assert_eq!(r.detected, vec![false]);
    }

    #[test]
    fn bridge_detected_via_either_module() {
        let nl = data::c17();
        let g10 = nl.find("10").unwrap();
        let g11 = nl.find("11").unwrap();
        let faults = vec![IddqFault::Bridge {
            a: g10,
            b: g11,
            current_ua: 100.0,
        }];
        // Put g10 in module 0 (saturated sensor) and g11 in module 1 (good).
        let mut module_of = vec![NO_MODULE; nl.node_count()];
        for g in nl.gate_ids() {
            module_of[g.index()] = u32::from(g == g11);
        }
        // input "1" = 0 → 10 = 1, 11 = 0 → bridge active.
        let vectors = vec![vec![false, true, true, true, true]];
        let r = simulate(&nl, &faults, &vectors, &module_of, &[10.0, 0.1], 1.0);
        assert_eq!(r.detected, vec![true]);
    }

    #[test]
    fn first_detection_vector_index_across_batches() {
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        let faults = vec![IddqFault::StuckOn {
            gate: g22,
            current_ua: 50.0,
        }];
        // 300 inactive vectors then one activating one (index 300) — spans
        // more than one 256-wide batch.
        let mut vectors = vec![vec![false; 5]; 300];
        vectors.push(vec![true; 5]);
        let module_of = one_module_assignment(&nl);
        let r = simulate(&nl, &faults, &vectors, &module_of, &[0.1], 1.0);
        assert_eq!(r.first_detection, vec![Some(300)]);
    }

    #[test]
    fn thread_count_is_invisible_in_results() {
        let nl = data::ripple_adder(6);
        let faults =
            crate::faults::enumerate(&nl, &crate::faults::FaultUniverseConfig::default(), 13);
        // Enough vectors for several batches; alternate activation-rich
        // and all-zero vectors.
        let vectors: Vec<Vec<bool>> = (0..1100)
            .map(|k| {
                (0..nl.num_inputs())
                    .map(|i| (k * 31 + i * 7) % 3 == 0)
                    .collect()
            })
            .collect();
        let module_of = one_module_assignment(&nl);
        let run = |threads| {
            let options = SweepOptions {
                threads,
                ..SweepOptions::default()
            };
            simulate_with_options(&nl, &faults, &vectors, &module_of, &[0.1], 1.0, &options)
        };
        let base = run(1);
        for threads in [2, 3, 8] {
            let par = run(threads);
            assert_eq!(base.detected, par.detected, "threads = {threads}");
            assert_eq!(
                base.first_detection, par.first_detection,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn seq_activation_needs_latched_state() {
        // y = AND(q, a) with q = DFF(a): a StuckOn defect on y only draws
        // current when y = 1, which needs a = 1 in two consecutive frames
        // — invisible to the combinational sweep (q reads the reset 0).
        let mut b = iddq_netlist::NetlistBuilder::new("seq-iddq");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        b.set_dff_input(q, a);
        let y = b
            .add_gate("y", iddq_netlist::CellKind::And, vec![q, a])
            .unwrap();
        b.mark_output(y);
        let nl = b.build().unwrap();
        let faults = vec![IddqFault::StuckOn {
            gate: y,
            current_ua: 50.0,
        }];
        let module_of = one_module_assignment(&nl);
        let vectors = vec![vec![true], vec![true]]; // one 2-frame sequence
        let combi = simulate(&nl, &faults, &vectors, &module_of, &[0.1], 1.0);
        assert_eq!(
            combi.detected,
            vec![false],
            "one-shot vectors cannot activate y"
        );
        let opts = SweepOptions {
            frames: 2,
            ..SweepOptions::default()
        };
        let seq = simulate_with_options(&nl, &faults, &vectors, &module_of, &[0.1], 1.0, &opts);
        assert_eq!(
            seq.first_detection,
            vec![Some(1)],
            "activated at frame 1 of sequence 0"
        );
    }

    #[test]
    fn seq_grid_and_combinational_frames_invariance() {
        // DFF-free netlist: sequence grouping relabels nothing (index
        // seq*F + t is the plain vector index), so frames must be
        // invisible; and with frames fixed, so must the grid shape.
        let nl = data::ripple_adder(5);
        let faults =
            crate::faults::enumerate(&nl, &crate::faults::FaultUniverseConfig::default(), 13);
        let vectors: Vec<Vec<bool>> = (0..700)
            .map(|k| {
                (0..nl.num_inputs())
                    .map(|i| (k * 31 + i * 7) % 3 == 0)
                    .collect()
            })
            .collect();
        let module_of = one_module_assignment(&nl);
        let base = simulate(&nl, &faults, &vectors, &module_of, &[0.1], 1.0);
        for (frames, threads) in [(2, 1), (3, 4), (5, 2), (7, 3)] {
            let opts = SweepOptions { threads, frames };
            let r = simulate_with_options(&nl, &faults, &vectors, &module_of, &[0.1], 1.0, &opts);
            assert_eq!(
                base.first_detection, r.first_detection,
                "frames={frames} threads={threads}"
            );
        }
    }

    #[test]
    fn empty_fault_list_full_coverage() {
        let nl = data::c17();
        let module_of = one_module_assignment(&nl);
        let r = simulate(&nl, &[], &[vec![false; 5]], &module_of, &[0.1], 1.0);
        assert_eq!(r.coverage, 1.0);
    }

    #[test]
    fn quota_budget_degrades_to_partial() {
        use iddq_control::RunBudget;
        let nl = data::ripple_adder(6);
        let faults =
            crate::faults::enumerate(&nl, &crate::faults::FaultUniverseConfig::default(), 13);
        // All-zero vectors keep every fault live, so the sweep must visit
        // every batch — the quota genuinely interrupts it.
        let vectors: Vec<Vec<bool>> = vec![vec![false; nl.num_inputs()]; 1100];
        let module_of = one_module_assignment(&nl);
        let control = RunControl::with_budget(RunBudget::unlimited().with_quota(256));
        let out = simulate_with_control(
            &nl,
            &faults,
            &vectors,
            &module_of,
            &[0.1],
            1.0,
            &SweepOptions::default(),
            &control,
        );
        match out {
            Outcome::Partial {
                value,
                coverage,
                reason,
            } => {
                assert_eq!(reason, StopReason::QuotaExhausted);
                assert!(coverage < 1.0);
                assert_eq!(value.vectors_applied, 1100);
            }
            Outcome::Complete(_) => panic!("a 256-pattern quota cannot finish 1100 vectors"),
        }
    }

    #[test]
    fn pre_cancelled_simulation_is_partial() {
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        let faults = vec![IddqFault::StuckOn {
            gate: g22,
            current_ua: 50.0,
        }];
        let module_of = one_module_assignment(&nl);
        let control = RunControl::unlimited();
        control.token().cancel();
        let out = simulate_with_control(
            &nl,
            &faults,
            &[vec![true; 5]],
            &module_of,
            &[0.1],
            1.0,
            &SweepOptions::default(),
            &control,
        );
        assert!(!out.is_complete());
        assert_eq!(out.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn pack_vectors_shapes() {
        let vectors = vec![vec![true, false]; 130];
        let packed = pack_vectors::<u64>(&vectors, 2);
        assert_eq!(packed.len(), 3);
        assert_eq!(packed[0].1, 64);
        assert_eq!(packed[2].1, 2);
        assert_eq!(packed[0].0[0], !0u64);
        assert_eq!(packed[0].0[1], 0);
    }

    #[test]
    fn wide_packing_matches_narrow() {
        let vectors: Vec<Vec<bool>> = (0..300)
            .map(|k| (0..3).map(|i| (k + i) % 5 == 0).collect())
            .collect();
        let narrow = pack_vectors::<u64>(&vectors, 3);
        let wide = pack_vectors::<W256>(&vectors, 3);
        assert_eq!(narrow.len(), 5);
        assert_eq!(wide.len(), 2);
        assert_eq!(wide[0].1, 256);
        assert_eq!(wide[1].1, 44);
        // Limb 1 of the first wide batch is narrow batch 1, etc.
        for input in 0..3 {
            assert_eq!(wide[0].0[input].0[0], narrow[0].0[input]);
            assert_eq!(wide[0].0[input].0[3], narrow[3].0[input]);
            assert_eq!(wide[1].0[input].0[0], narrow[4].0[input]);
        }
    }
}
