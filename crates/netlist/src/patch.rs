//! The shared structural-patch vocabulary.
//!
//! A [`Patch`] is an ordered list of gate-level edits applied atomically to
//! a circuit structure. Its one consumer is
//! `iddq_core::resynth::ResynthEval`, the incremental *cost*
//! re-evaluation of the patched circuit (the paper's partitioning cost
//! function), whose structure and levels live in
//! [`crate::cone::DynamicCones`]. The lifecycle is validate-and-apply,
//! push the inverse patch onto an undo stack, roll back by applying the
//! inverse through the same machinery. Keeping the op vocabulary here
//! lets rewrite generators — `iddq-synth`'s decomposition and buffer-tree
//! builders — emit patches without depending on the cost engine.
//!
//! # Structural insertion and removal
//!
//! Node identity is positional ([`NodeId`]s are dense indices), so
//! insertion and removal follow a *stack discipline* that keeps every
//! existing id stable:
//!
//! * [`PatchOp::AddGate`] appends a node: its id must equal the current
//!   node count. Its fan-in may reference any existing node, which makes a
//!   cycle impossible at insertion time; its level is `1 + max(fan-in
//!   levels)`.
//! * [`PatchOp::RemoveGate`] pops a node: it must be the *last* node and
//!   must have no consumers (an empty fanout). Anything else would either
//!   renumber ids or dangle references.
//!
//! A rewrite that replaces a region therefore looks like: `AddGate` the new
//! nodes at the tail, `SetFanin` the consumers over to them, and (for the
//! inverse direction) `SetFanin` back before `RemoveGate` pops the tail.
//! Inverses generated by the engines follow exactly this shape, so a
//! rollback is always applicable.
//!
//! # Materialization
//!
//! [`materialize`] replays a patch onto a plain [`Netlist`] copy with node
//! order (hence ids) preserved — the *rebuild oracle* differential tests
//! and benchmarks score against.

use std::fmt;

use crate::graph::{Netlist, NetlistBuilder, NetlistError, NodeId};
use crate::kind::CellKind;

/// One structural change to the circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchOp {
    /// Replace the logic function of `gate` (the new kind must accept the
    /// gate's fan-in count at application time).
    SetKind {
        /// The gate to change.
        gate: NodeId,
        /// Its new logic function.
        kind: CellKind,
    },
    /// Rewire the ordered fan-in list of `gate` (the gate's kind at
    /// application time must accept the new arity; the rewiring must not
    /// create a cycle).
    SetFanin {
        /// The gate to rewire.
        gate: NodeId,
        /// Its new ordered driver list.
        fanin: Vec<NodeId>,
    },
    /// Append a new gate at the tail of the id space. `gate` must equal
    /// the current node count; the fan-in must reference existing nodes
    /// (so insertion can never close a cycle).
    AddGate {
        /// The id the new gate takes (== node count at application time).
        gate: NodeId,
        /// Its logic function.
        kind: CellKind,
        /// Its ordered driver list (existing nodes only).
        fanin: Vec<NodeId>,
    },
    /// Pop the gate at the tail of the id space. `gate` must be the last
    /// node, a gate (not a primary input), and must have no consumers.
    RemoveGate {
        /// The gate to remove (== last node id at application time).
        gate: NodeId,
    },
}

impl PatchOp {
    /// The node this op targets.
    #[must_use]
    pub fn gate(&self) -> NodeId {
        match *self {
            PatchOp::SetKind { gate, .. }
            | PatchOp::SetFanin { gate, .. }
            | PatchOp::AddGate { gate, .. }
            | PatchOp::RemoveGate { gate } => gate,
        }
    }

    /// Whether the op changes the circuit's adjacency (edges or node set)
    /// — the ops that can move separation distances and levels.
    #[must_use]
    pub fn changes_adjacency(&self) -> bool {
        matches!(
            self,
            PatchOp::SetFanin { .. } | PatchOp::AddGate { .. } | PatchOp::RemoveGate { .. }
        )
    }
}

/// An ordered set of structural changes applied (and rolled back)
/// atomically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Patch {
    /// The changes, applied in order.
    pub ops: Vec<PatchOp>,
}

impl Patch {
    /// Single-op convenience constructor.
    #[must_use]
    pub fn single(op: PatchOp) -> Self {
        Patch { ops: vec![op] }
    }

    /// Concatenates several patches into one (ops in sequence).
    #[must_use]
    pub fn concat(patches: &[Patch]) -> Self {
        Patch {
            ops: patches.iter().flat_map(|p| p.ops.iter().cloned()).collect(),
        }
    }
}

/// Why a [`Patch`] was rejected. Rejection is atomic: the consuming
/// engine's state is exactly as before the apply call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The targeted node is a primary input, not a gate.
    NotAGate(NodeId),
    /// A fan-in reference is out of range for this circuit.
    UnknownNode(NodeId),
    /// The gate's kind does not accept the fan-in count.
    BadArity {
        /// The offending gate.
        gate: NodeId,
        /// Its logic function at the point of failure.
        kind: CellKind,
        /// The illegal fan-in count.
        got: usize,
    },
    /// The rewiring would create a combinational cycle through this node.
    Cycle(NodeId),
    /// An `AddGate` id does not equal the current node count (insertion is
    /// append-only).
    NotAppend {
        /// The id the op carried.
        gate: NodeId,
        /// The id an append must use (the current node count).
        expected: u32,
    },
    /// A `RemoveGate` target is not the last node, still has consumers,
    /// carries a value force, or (in engines that track them) is a
    /// primary output.
    NotRemovable(NodeId),
    /// The op targets (or would create) a DFF state element: the
    /// structural patch vocabulary is combinational-only — state elements
    /// are frame boundaries, edited by rebuilding the netlist.
    StateElement(NodeId),
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NotAGate(g) => write!(f, "node {g} is not a gate"),
            PatchError::UnknownNode(g) => write!(f, "fan-in reference {g} is out of range"),
            PatchError::BadArity { gate, kind, got } => {
                write!(f, "gate {gate} of kind {kind} cannot take {got} fan-ins")
            }
            PatchError::Cycle(g) => write!(f, "patch creates a combinational cycle through {g}"),
            PatchError::NotAppend { gate, expected } => {
                write!(f, "AddGate id {gate} must be the next free id n{expected}")
            }
            PatchError::NotRemovable(g) => {
                write!(f, "node {g} is not the consumer-free last node")
            }
            PatchError::StateElement(g) => {
                write!(
                    f,
                    "node {g} is a state element; patches are combinational-only"
                )
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// Replays `patch` onto a fresh [`Netlist`] copy of `netlist`, preserving
/// node order and ids — the *rebuild oracle*: scoring or simulating the
/// returned netlist from scratch must agree with the incremental engines
/// applying the same patch.
///
/// Nodes appended by [`PatchOp::AddGate`] are named `__p{id}`. DFF state elements are frame boundaries, not rewrite
/// material: an op that mutates, adds or removes one is a programming
/// error of the patch generator (patches edit the combinational logic
/// *between* frame boundaries).
///
/// # Errors
///
/// Returns the underlying [`NetlistError`] when the patched structure is
/// invalid (illegal arity, dangling reference, cycle).
///
/// # Panics
///
/// Panics if the patch violates the structural stack discipline
/// (non-append `AddGate`, non-tail or consumed `RemoveGate`, or a target
/// out of range) — these are programming errors of the
/// patch generator, not data errors of the circuit.
pub fn materialize(netlist: &Netlist, patch: &Patch) -> Result<Netlist, NetlistError> {
    let mut kinds: Vec<Option<CellKind>> = netlist
        .node_ids()
        .map(|id| netlist.node(id).kind().cell_kind())
        .collect();
    let mut fanins: Vec<Vec<NodeId>> = netlist
        .node_ids()
        .map(|id| netlist.node(id).fanin().to_vec())
        .collect();
    let mut names: Vec<String> = netlist
        .node_ids()
        .map(|id| netlist.node_name(id).to_owned())
        .collect();
    // Consumer counts let RemoveGate assert the no-fanout precondition.
    let mut consumers: Vec<usize> = vec![0; kinds.len()];
    for f in fanins.iter().flatten() {
        consumers[f.index()] += 1;
    }
    let is_dff = |k: &Option<CellKind>| k.is_some_and(CellKind::is_state);
    for op in &patch.ops {
        match op {
            PatchOp::SetKind { gate, kind } => {
                assert!(
                    kinds[gate.index()].is_some(),
                    "SetKind targets a gate, got {gate}"
                );
                assert!(
                    !is_dff(&kinds[gate.index()]) && !kind.is_state(),
                    "SetKind cannot change a state element"
                );
                kinds[gate.index()] = Some(*kind);
            }
            PatchOp::SetFanin { gate, fanin } => {
                assert!(
                    kinds[gate.index()].is_some(),
                    "SetFanin targets a gate, got {gate}"
                );
                assert!(
                    !is_dff(&kinds[gate.index()]),
                    "SetFanin cannot rewire a state element"
                );
                for f in &fanins[gate.index()] {
                    consumers[f.index()] -= 1;
                }
                for f in fanin {
                    consumers[f.index()] += 1;
                }
                fanins[gate.index()] = fanin.clone();
            }
            PatchOp::AddGate { gate, kind, fanin } => {
                assert_eq!(
                    gate.index(),
                    kinds.len(),
                    "AddGate id must be the next free id"
                );
                assert!(!kind.is_state(), "AddGate cannot create a state element");
                for f in fanin {
                    assert!(f.index() < kinds.len(), "AddGate fan-in {f} out of range");
                    consumers[f.index()] += 1;
                }
                kinds.push(Some(*kind));
                fanins.push(fanin.clone());
                names.push(format!("__p{}", gate.index()));
                consumers.push(0);
            }
            PatchOp::RemoveGate { gate } => {
                assert_eq!(gate.index() + 1, kinds.len(), "RemoveGate pops the tail");
                assert!(kinds[gate.index()].is_some(), "RemoveGate targets a gate");
                assert!(
                    !is_dff(&kinds[gate.index()]),
                    "RemoveGate cannot remove a state element"
                );
                assert_eq!(
                    consumers[gate.index()],
                    0,
                    "RemoveGate target has consumers"
                );
                assert!(
                    !netlist.outputs().contains(gate),
                    "RemoveGate target is a primary output"
                );
                for f in &fanins[gate.index()] {
                    consumers[f.index()] -= 1;
                }
                kinds.pop();
                fanins.pop();
                names.pop();
                consumers.pop();
            }
        }
    }
    let mut b = NetlistBuilder::new(netlist.name());
    for (i, kind) in kinds.iter().enumerate() {
        match kind {
            None => {
                b.try_add_input(&names[i])?;
            }
            Some(k) => {
                b.add_gate(&names[i], *k, fanins[i].clone())?;
            }
        }
    }
    for &o in netlist.outputs() {
        b.mark_output(o);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    #[test]
    fn materialize_identity_patch_preserves_structure() {
        let nl = data::c17();
        let out = materialize(&nl, &Patch::default()).unwrap();
        assert_eq!(out.node_count(), nl.node_count());
        for id in nl.node_ids() {
            assert_eq!(out.node(id).kind(), nl.node(id).kind());
            assert_eq!(out.node(id).fanin(), nl.node(id).fanin());
            assert_eq!(out.node_name(id), nl.node_name(id));
        }
        assert_eq!(out.outputs(), nl.outputs());
    }

    #[test]
    fn materialize_add_rewire_remove_roundtrip() {
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        let g10 = nl.find("10").unwrap();
        let g11 = nl.find("11").unwrap();
        let n = nl.node_count() as u32;
        // Insert a NAND over (10, 11), route 22 through it, then undo.
        let forward = Patch {
            ops: vec![
                PatchOp::AddGate {
                    gate: NodeId(n),
                    kind: CellKind::Nand,
                    fanin: vec![g10, g11],
                },
                PatchOp::SetFanin {
                    gate: g22,
                    fanin: vec![NodeId(n), g10],
                },
            ],
        };
        let patched = materialize(&nl, &forward).unwrap();
        assert_eq!(patched.node_count(), nl.node_count() + 1);
        assert_eq!(patched.node(g22).fanin()[0], NodeId(n));
        let inverse = Patch {
            ops: vec![
                PatchOp::SetFanin {
                    gate: g22,
                    fanin: nl.node(g22).fanin().to_vec(),
                },
                PatchOp::RemoveGate { gate: NodeId(n) },
            ],
        };
        let both = Patch::concat(&[forward, inverse]);
        let back = materialize(&nl, &both).unwrap();
        assert_eq!(back.node_count(), nl.node_count());
        for id in nl.node_ids() {
            assert_eq!(back.node(id).fanin(), nl.node(id).fanin());
        }
    }

    #[test]
    fn materialize_rejects_cycles_via_builder() {
        let nl = data::c17();
        let g10 = nl.find("10").unwrap();
        let g22 = nl.find("22").unwrap();
        let patch = Patch::single(PatchOp::SetFanin {
            gate: g10,
            fanin: vec![g22, nl.find("3").unwrap()],
        });
        assert!(matches!(
            materialize(&nl, &patch).unwrap_err(),
            NetlistError::Cycle { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "RemoveGate target is a primary output")]
    fn materialize_panics_on_output_removal() {
        // c17's tail node 23 is a consumer-free primary output: removal
        // would leave a dangling output id in the rebuilt netlist.
        let nl = data::c17();
        let last = NodeId(nl.node_count() as u32 - 1);
        assert!(nl.outputs().contains(&last));
        let _ = materialize(&nl, &Patch::single(PatchOp::RemoveGate { gate: last }));
    }

    #[test]
    fn materialize_identity_preserves_dffs() {
        let mut b = crate::graph::NetlistBuilder::new("seq");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        let n = b.add_gate("n", CellKind::Not, vec![q]).unwrap();
        b.set_dff_input(q, n);
        let y = b.add_gate("y", CellKind::And, vec![a, q]).unwrap();
        b.mark_output(y);
        let nl = b.build().unwrap();
        let out = materialize(&nl, &Patch::default()).unwrap();
        assert_eq!(out.num_state_elements(), 1);
        assert!(out.is_state_element(q));
    }

    #[test]
    #[should_panic(expected = "SetKind cannot change a state element")]
    fn materialize_panics_on_dff_mutation() {
        let mut b = crate::graph::NetlistBuilder::new("seq");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        b.set_dff_input(q, a);
        b.mark_output(q);
        let nl = b.build().unwrap();
        let _ = materialize(
            &nl,
            &Patch::single(PatchOp::SetKind {
                gate: q,
                kind: CellKind::Buf,
            }),
        );
    }

    #[test]
    #[should_panic(expected = "RemoveGate target has consumers")]
    fn materialize_panics_on_consumed_removal() {
        let nl = data::c17();
        // Node 23 is the tail and consumer-free; give it a consumer by
        // rewiring gate 10 onto it, then try to pop it.
        let last = NodeId(nl.node_count() as u32 - 1);
        let ops = vec![
            PatchOp::SetFanin {
                gate: nl.find("10").unwrap(),
                fanin: vec![last, nl.find("3").unwrap()],
            },
            PatchOp::RemoveGate { gate: last },
        ];
        let _ = materialize(&nl, &Patch { ops });
    }
}
