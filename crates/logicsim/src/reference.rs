//! Naive reference evaluator.
//!
//! This reproduces the pre-CSR simulator exactly as the seed shipped it:
//! one heap-allocated fan-in `Vec` per gate, a scratch gather buffer per
//! step, and a freshly allocated value vector per 64-pattern batch. It
//! exists for two reasons:
//!
//! * **correctness** — the differential property tests assert the compiled
//!   CSR kernel agrees with it bit-for-bit on random netlists;
//! * **benchmarking** — the `bench` binary's `BENCH_sim.json` reports the
//!   CSR/wide-word speedup against this baseline, so the comparison stays
//!   honest across future refactors.
//!
//! [`iddq_first_detection`] builds the IDDQ sweep's scalar oracle on top
//! of it.

use iddq_netlist::{Netlist, NodeId};

use crate::faults::IddqFault;
use crate::iddq::NO_MODULE;

/// The seed's levelized 64-way simulator, kept as a golden reference.
///
/// Sequential support is deliberately the *slowest obviously-correct*
/// form: [`NaiveSimulator::step_frames`] evaluates each frame with a full
/// sweep (no incrementality, no parallelism), scattering latched state and
/// capturing next-state scalar-style. The frame engines are differentially
/// tested against it.
#[derive(Debug, Clone)]
pub struct NaiveSimulator {
    program: Vec<Step>,
    node_count: usize,
    input_indices: Vec<usize>,
    /// DFF output node per state element (`Netlist::state_elements` order).
    dff_targets: Vec<usize>,
    /// D-driver node per state element, aligned with `dff_targets`.
    dff_d: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Step {
    target: usize,
    kind: iddq_netlist::CellKind,
    fanin: Vec<usize>,
}

impl NaiveSimulator {
    /// Compiles the netlist into the per-gate-`Vec` program.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let mut program = Vec::with_capacity(netlist.gate_count());
        for &id in netlist.topo_order() {
            let node = netlist.node(id);
            if let Some(kind) = node.kind().cell_kind() {
                // State elements carry latched state: no evaluation step
                // (a DFF precedes its D driver in topo order anyway).
                if kind.is_state() {
                    continue;
                }
                program.push(Step {
                    target: id.index(),
                    kind,
                    fanin: node.fanin().iter().map(|f| f.index()).collect(),
                });
            }
        }
        NaiveSimulator {
            program,
            node_count: netlist.node_count(),
            input_indices: netlist.inputs().iter().map(|i| i.index()).collect(),
            dff_targets: netlist.state_elements().iter().map(|d| d.index()).collect(),
            dff_d: netlist
                .state_elements()
                .iter()
                .map(|d| netlist.node(*d).fanin()[0].index())
                .collect(),
        }
    }

    /// Evaluates 64 packed patterns, allocating the result (the seed's
    /// `Simulator::eval`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    #[must_use]
    pub fn eval(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(
            inputs.len(),
            self.input_indices.len(),
            "one packed word per primary input required"
        );
        let mut values = vec![0u64; self.node_count];
        for (&idx, &word) in self.input_indices.iter().zip(inputs) {
            values[idx] = word;
        }
        let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
        for step in &self.program {
            fanin_buf.clear();
            fanin_buf.extend(step.fanin.iter().map(|&f| values[f]));
            values[step.target] = step.kind.eval_packed(&fanin_buf);
        }
        values
    }

    /// Evaluates a packed sequence of frames from the all-zero reset
    /// state, returning one full values vector per frame (DFF outputs hold
    /// the state latched *during* that frame).
    ///
    /// This is the per-frame rebuild oracle: frame `t` is a fresh full
    /// sweep with the previous frame's captured next-state scattered over
    /// the DFF outputs.
    ///
    /// # Panics
    ///
    /// Panics if any frame's input count differs from the number of
    /// primary inputs.
    #[must_use]
    pub fn step_frames(&self, frame_inputs: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let mut state = vec![0u64; self.dff_targets.len()];
        let mut out = Vec::with_capacity(frame_inputs.len());
        for inputs in frame_inputs {
            assert_eq!(
                inputs.len(),
                self.input_indices.len(),
                "one packed word per primary input required"
            );
            let mut values = vec![0u64; self.node_count];
            for (&idx, &word) in self.input_indices.iter().zip(inputs) {
                values[idx] = word;
            }
            for (&idx, &word) in self.dff_targets.iter().zip(&state) {
                values[idx] = word;
            }
            let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
            for step in &self.program {
                fanin_buf.clear();
                fanin_buf.extend(step.fanin.iter().map(|&f| values[f]));
                values[step.target] = step.kind.eval_packed(&fanin_buf);
            }
            for (slot, &d) in state.iter_mut().zip(&self.dff_d) {
                *slot = values[d];
            }
            out.push(values);
        }
        out
    }
}

/// The IDDQ sweep's scalar oracle: each fault's earliest detecting vector
/// index, one vector at a time.
///
/// With `frames <= 1` every vector is evaluated on its own; with
/// `frames = F > 1` the vectors are read sequence-major (`vectors[s*F + t]`
/// is frame `t` of sequence `s`) and each sequence is stepped from the
/// all-zero reset by [`NaiveSimulator::step_frames`]. A fault is detected
/// at vector `v` when the fault-free values of `v` activate it
/// ([`IddqFault::activation`]) and one of its site modules has a sensor
/// with `leakage < threshold <= leakage + defect current` — the rule
/// [`iddq::simulate_with_options`](crate::iddq::simulate_with_options)
/// must reproduce bit for bit.
///
/// # Panics
///
/// Panics if `module_of.len() != netlist.node_count()`, a gate maps to a
/// module out of range of `module_leakage_ua`, or a vector's arity
/// differs from the primary-input count.
#[must_use]
pub fn iddq_first_detection(
    netlist: &Netlist,
    faults: &[IddqFault],
    vectors: &[Vec<bool>],
    module_of: &[u32],
    module_leakage_ua: &[f64],
    threshold_ua: f64,
    frames: usize,
) -> Vec<Option<usize>> {
    assert_eq!(module_of.len(), netlist.node_count());
    let sensor_sees = |site: NodeId, current_ua: f64| {
        let module = module_of[site.index()];
        module != NO_MODULE && {
            let leak = module_leakage_ua[module as usize];
            leak < threshold_ua && leak + current_ua >= threshold_ua
        }
    };
    let naive = NaiveSimulator::new(netlist);
    let frames = frames.max(1);
    let mut first = vec![None; faults.len()];
    for (s, sequence) in vectors.chunks(frames).enumerate() {
        let inputs: Vec<Vec<u64>> = sequence
            .iter()
            .map(|v| v.iter().map(|&bit| u64::from(bit)).collect())
            .collect();
        for (t, values) in naive.step_frames(&inputs).iter().enumerate() {
            for (slot, fault) in first.iter_mut().zip(faults) {
                let (a, b) = fault.sites();
                if slot.is_none()
                    && fault.activation(netlist, values) & 1 == 1
                    && (sensor_sees(a, fault.current_ua())
                        || b.is_some_and(|b| sensor_sees(b, fault.current_ua())))
                {
                    *slot = Some(s * frames + t);
                }
            }
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_netlist::data;

    #[test]
    fn step_frames_matches_csr_frame_engine() {
        let mut b = iddq_netlist::NetlistBuilder::new("toggle");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        let n = b
            .add_gate("n", iddq_netlist::CellKind::Not, vec![q])
            .unwrap();
        b.set_dff_input(q, n);
        let y = b
            .add_gate("y", iddq_netlist::CellKind::Xor, vec![a, q])
            .unwrap();
        b.mark_output(y);
        let nl = b.build().unwrap();

        let naive = NaiveSimulator::new(&nl);
        let csr = crate::Simulator::new(&nl);
        let frames: Vec<Vec<u64>> = (0..5u64)
            .map(|t| vec![t.wrapping_mul(0x2545_f491_4f6c_dd1d)])
            .collect();
        let oracle = naive.step_frames(&frames);
        let mut state = vec![0u64; csr.num_state_elements()];
        let mut values = vec![0u64; csr.node_count()];
        for (t, inputs) in frames.iter().enumerate() {
            csr.step_frame(inputs, &mut state, &mut values);
            assert_eq!(values, oracle[t], "frame {t}");
        }
    }

    #[test]
    fn reference_evaluates_c17() {
        let nl = data::c17();
        let sim = NaiveSimulator::new(&nl);
        let v = sim.eval(&[!0u64; 5]);
        let g22 = nl.find("22").unwrap();
        let g23 = nl.find("23").unwrap();
        assert_eq!(v[g22.index()] & 1, 1);
        assert_eq!(v[g23.index()] & 1, 0);
    }
}
