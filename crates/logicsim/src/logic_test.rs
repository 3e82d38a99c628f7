//! Voltage (logic) testing — the comparison point of the paper's §1.
//!
//! "The test methodology based on the observation of the quiescent
//! current (IDDQ) complements logic (voltage) testing in CMOS
//! technologies. The quiescent current consumed by the IC is a good
//! indicator of the presence of a large class of defects escaping logic
//! test."
//!
//! To demonstrate the *escaping* part, this module implements the logic
//! view of the same defects:
//!
//! * [`StuckAtFault`] — the classical logic fault model, detected when
//!   forcing the node flips a primary output,
//! * [`bridge_logic_detection`] — a bridging short modelled logically as a
//!   wired-AND of the two nets (the standard ground-dominant model);
//!   detected only if some vector propagates the corruption to an
//!   output,
//! * [`logic_observability`] — maps each IDDQ defect to its logic-test
//!   visibility: gate-oxide shorts and stuck-on transistors leave
//!   intermediate analogue voltages and (to first order) *no* logic
//!   change, which is precisely why they escape voltage testing.
//!
//! All detection masks are generic over the packed word, so the same code
//! scores 64 (`u64`) or 256 ([`iddq_netlist::W256`]) patterns per call.

use iddq_netlist::{Netlist, NodeId, PackedWord};

use crate::faults::IddqFault;
use crate::sim::Simulator;

/// A classical stuck-at fault on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckAtFault {
    /// The faulty node (its output net).
    pub node: NodeId,
    /// `true` for stuck-at-1, `false` for stuck-at-0.
    pub stuck_at_one: bool,
}

/// Packed detection mask for a stuck-at fault: bit *k* set iff pattern *k*
/// produces a different value on some primary output.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the netlist's primary-input
/// count.
#[must_use]
pub fn stuck_at_detection<W: PackedWord>(
    netlist: &Netlist,
    fault: StuckAtFault,
    inputs: &[W],
) -> W {
    let good = Simulator::new(netlist).eval(inputs);
    stuck_at_detection_from(netlist, &good, fault, inputs)
}

/// [`stuck_at_detection`] against precomputed fault-free values.
///
/// `good` must be the fault-free evaluation of `inputs` on `netlist`.
#[must_use]
pub fn stuck_at_detection_from<W: PackedWord>(
    netlist: &Netlist,
    good: &[W],
    fault: StuckAtFault,
    inputs: &[W],
) -> W {
    let bad = eval_forced_with_state(
        netlist,
        inputs,
        &[],
        &[(fault.node, W::splat(fault.stuck_at_one))],
    );
    let mut diff = W::zeros();
    for &o in netlist.outputs() {
        diff = diff | (good[o.index()] ^ bad[o.index()]);
    }
    diff
}

/// Evaluates the circuit with some nodes forced to fixed packed values and
/// the latched state scattered over the DFF outputs: one word per state
/// element in [`Netlist::state_elements`] order (empty = the all-zero
/// reset). DFF outputs hold their scattered (or forced) word and are never
/// recomputed from their D fan-in — the per-frame rebuild oracle the
/// fault sweep is differentially tested against.
pub(crate) fn eval_forced_with_state<W: PackedWord>(
    netlist: &Netlist,
    inputs: &[W],
    state: &[W],
    forced: &[(NodeId, W)],
) -> Vec<W> {
    assert_eq!(inputs.len(), netlist.num_inputs());
    assert!(
        state.is_empty() || state.len() == netlist.num_state_elements(),
        "one packed word per state element required"
    );
    let mut values = vec![W::zeros(); netlist.node_count()];
    for (&id, &w) in netlist.inputs().iter().zip(inputs) {
        values[id.index()] = w;
    }
    for (&id, &w) in netlist.state_elements().iter().zip(state) {
        values[id.index()] = w;
    }
    for &(n, v) in forced {
        values[n.index()] = v;
    }
    let mut buf = Vec::with_capacity(8);
    for &id in netlist.topo_order() {
        if forced.iter().any(|&(n, _)| n == id) {
            continue;
        }
        let node = netlist.node(id);
        if let Some(kind) = node.kind().cell_kind() {
            if kind.is_state() {
                continue;
            }
            buf.clear();
            buf.extend(node.fanin().iter().map(|f| values[f.index()]));
            values[id.index()] = kind.eval_packed(&buf);
        }
    }
    values
}

/// Logic detection mask of a bridging short between nets `a` and `b`
/// under the wired-AND (ground-dominant) model, over packed patterns.
///
/// The bridged value `v(a) ∧ v(b)` replaces both nets and the corruption
/// is propagated; since the composition stays monotone in the bridged
/// value and the graph is acyclic, two forward sweeps reach the fixpoint.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the primary-input count.
#[must_use]
pub fn bridge_logic_detection<W: PackedWord>(
    netlist: &Netlist,
    a: NodeId,
    b: NodeId,
    inputs: &[W],
) -> W {
    let good = Simulator::new(netlist).eval(inputs);
    bridge_logic_detection_from(netlist, &good, a, b, inputs)
}

/// [`bridge_logic_detection`] against precomputed fault-free values, so a
/// sweep over many bridges re-uses one evaluation per batch.
///
/// `good` must be the fault-free evaluation of `inputs` on `netlist`.
#[must_use]
pub fn bridge_logic_detection_from<W: PackedWord>(
    netlist: &Netlist,
    good: &[W],
    a: NodeId,
    b: NodeId,
    inputs: &[W],
) -> W {
    // Iterate the wired value to a fixpoint (the second sweep re-reads the
    // downstream-updated driver values; a could feed b's cone or vice
    // versa).
    let mut wired = good[a.index()] & good[b.index()];
    let mut bad = Vec::new();
    for _ in 0..3 {
        bad = eval_forced_with_state(netlist, inputs, &[], &[(a, wired), (b, wired)]);
        // Driver outputs recomputed from the corrupted fan-ins:
        let da = recompute_driver(netlist, &bad, a);
        let db = recompute_driver(netlist, &bad, b);
        let next = da & db;
        if next == wired {
            break;
        }
        wired = next;
    }
    let mut diff = W::zeros();
    for &o in netlist.outputs() {
        diff = diff | (good[o.index()] ^ bad[o.index()]);
    }
    diff
}

pub(crate) fn recompute_driver<W: PackedWord>(netlist: &Netlist, values: &[W], node: NodeId) -> W {
    match netlist.node(node).kind().cell_kind() {
        None => values[node.index()], // primary input drives itself
        Some(kind) => {
            let ins: Vec<W> = netlist
                .node(node)
                .fanin()
                .iter()
                .map(|f| values[f.index()])
                .collect();
            kind.eval_packed(&ins)
        }
    }
}

/// Whether each IDDQ defect is *logically* detectable by the given packed
/// test vectors.
///
/// Gate-oxide shorts and stuck-on transistors are parametric defects: the
/// defective gate still drives (degraded but correct) logic levels, so
/// they are reported logic-silent — the class the paper's §1 says escapes
/// voltage test.
#[must_use]
pub fn logic_observability<W: PackedWord>(
    netlist: &Netlist,
    faults: &[IddqFault],
    vector_batches: &[Vec<W>],
) -> Vec<bool> {
    // One fault-free evaluation per batch, shared across its faults.
    let sim = Simulator::new(netlist);
    let goods: Vec<Vec<W>> = vector_batches.iter().map(|ins| sim.eval(ins)).collect();
    faults
        .iter()
        .map(|f| match *f {
            IddqFault::Bridge { a, b, .. } => {
                vector_batches.iter().zip(&goods).any(|(ins, good)| {
                    !bridge_logic_detection_from(netlist, good, a, b, ins).is_zero()
                })
            }
            IddqFault::GateOxideShort { .. } | IddqFault::StuckOn { .. } => false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_netlist::{data, W256};

    #[test]
    fn stuck_at_on_output_always_detected_by_sensitizing_vector() {
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        // All-ones: 22 = 1, so stuck-at-0 flips it.
        let sa0 = StuckAtFault {
            node: g22,
            stuck_at_one: false,
        };
        let det = stuck_at_detection(&nl, sa0, &[!0u64; 5]);
        assert_ne!(det & 1, 1 ^ 1); // bit 0 set
        assert_eq!(det & 1, 1);
        // Stuck-at-1 is silent on that vector.
        let sa1 = StuckAtFault {
            node: g22,
            stuck_at_one: true,
        };
        assert_eq!(stuck_at_detection(&nl, sa1, &[!0u64; 5]) & 1, 0);
    }

    #[test]
    fn stuck_at_internal_requires_propagation() {
        // 11 = NAND(3,6). With inputs all 0: 11 = 1; s-a-0 on 11 flips 16
        // and 19, propagating to 22/23? 16 = NAND(2,11): 2=0 → 16 = 1
        // regardless of 11 → masked. 19 = NAND(11,7): 7=0 → 1 → masked.
        // So all-zeros does NOT detect s-a-0 on 11.
        let nl = data::c17();
        let g11 = nl.find("11").unwrap();
        let sa0 = StuckAtFault {
            node: g11,
            stuck_at_one: false,
        };
        assert_eq!(stuck_at_detection(&nl, sa0, &[0u64; 5]) & 1, 0);
        // With 2 = 1, 7 = 1 the flip propagates.
        // inputs order (1,2,3,6,7) = (0,1,0,0,1)
        let det = stuck_at_detection(&nl, sa0, &[0, !0, 0, 0, !0]);
        assert_eq!(det & 1, 1);
    }

    #[test]
    fn bridge_wired_and_detected_when_values_differ_and_propagate() {
        let nl = data::c17();
        let g10 = nl.find("10").unwrap();
        let g19 = nl.find("19").unwrap();
        // input "1" = 0, rest 1: 10 = 1, 11 = 0, 19 = NAND(0,1) = 1 …
        // find a vector where the bridge corrupts an output: sweep all 32.
        let mut packed = vec![0u64; 5];
        for pat in 0u64..32 {
            for (i, word) in packed.iter_mut().enumerate() {
                if pat >> i & 1 == 1 {
                    *word |= 1 << pat;
                }
            }
        }
        let det = bridge_logic_detection(&nl, g10, g19, &packed);
        // At least one of the 32 input combinations must expose it
        // logically (c17 is small and well-observable).
        assert_ne!(det, 0);
    }

    #[test]
    fn bridge_between_identical_nets_is_logic_silent() {
        // Bridging a net to itself can never change logic.
        let nl = data::c17();
        let g10 = nl.find("10").unwrap();
        let mut packed = vec![0u64; 5];
        for pat in 0u64..32 {
            for (i, word) in packed.iter_mut().enumerate() {
                if pat >> i & 1 == 1 {
                    *word |= 1 << pat;
                }
            }
        }
        assert_eq!(bridge_logic_detection(&nl, g10, g10, &packed), 0);
    }

    #[test]
    fn parametric_defects_are_logic_silent() {
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        let faults = vec![
            IddqFault::GateOxideShort {
                gate: g22,
                pin: 0,
                current_ua: 100.0,
            },
            IddqFault::StuckOn {
                gate: g22,
                current_ua: 100.0,
            },
        ];
        let batches = vec![vec![!0u64; 5], vec![0u64; 5]];
        let vis = logic_observability(&nl, &faults, &batches);
        assert_eq!(vis, vec![false, false]);
    }

    #[test]
    fn forced_eval_matches_plain_eval_without_forces() {
        let nl = data::ripple_adder(3);
        let sim = Simulator::new(&nl);
        let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| 0x55aa << (i % 8))
            .collect();
        assert_eq!(
            sim.eval(&inputs),
            eval_forced_with_state(&nl, &inputs, &[], &[])
        );
    }

    #[test]
    fn wide_stuck_at_matches_narrow_lanes() {
        let nl = data::c17();
        let g11 = nl.find("11").unwrap();
        let fault = StuckAtFault {
            node: g11,
            stuck_at_one: false,
        };
        let narrow: Vec<u64> = vec![0x0123_4567_89ab_cdef, !0, 0, 0xff00_ff00, 0x55aa];
        let wide: Vec<W256> = narrow.iter().map(|&w| W256([w, 0, !0, w])).collect();
        let dn = stuck_at_detection(&nl, fault, &narrow);
        let dw = stuck_at_detection(&nl, fault, &wide);
        assert_eq!(dw.0[0], dn);
        assert_eq!(dw.0[3], dn);
    }
}
