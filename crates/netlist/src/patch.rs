//! The shared structural-patch vocabulary.
//!
//! A [`Patch`] is an ordered list of gate-level edits applied atomically to
//! a circuit structure. Its one consumer is
//! `iddq_core::resynth::ResynthEval`, the incremental *cost*
//! re-evaluation of the patched circuit (the paper's partitioning cost
//! function), whose structure and levels live in
//! [`crate::cone::DynamicCones`]. Keeping the op vocabulary here lets
//! rewrite generators — `iddq-synth`'s per-gate decomposition — emit
//! patches without depending on the cost engine.
//!
//! # Two ops, append-only
//!
//! Node identity is positional ([`NodeId`]s are dense indices), so the
//! vocabulary keeps every existing id stable:
//!
//! * [`PatchOp::AddGate`] appends a node: its id must equal the current
//!   node count. Its fan-in may reference any existing node, which makes a
//!   cycle impossible at insertion time; its level is `1 + max(fan-in
//!   levels)`.
//! * [`PatchOp::SetFanin`] rewires an existing gate.
//!
//! A rewrite that replaces a region therefore looks like: `AddGate` the new
//! nodes at the tail, then `SetFanin` the consumers over to them. Undoing
//! one is the engine's business: it restores the rewired fan-ins and pops
//! the appended tail.
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
    /// Rewire the ordered fan-in list of `gate` (the gate's kind must
    /// accept the new arity).
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
}

impl PatchOp {
    /// The node this op targets.
    #[must_use]
    pub fn gate(&self) -> NodeId {
        match *self {
            PatchOp::SetFanin { gate, .. } | PatchOp::AddGate { gate, .. } => gate,
        }
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
/// engine checks the whole patch before its first edit, so its state is
/// exactly as before the apply call.
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
        /// Its logic function.
        kind: CellKind,
        /// The illegal fan-in count.
        got: usize,
    },
    /// An `AddGate` id does not equal the current node count (insertion is
    /// append-only).
    NotAppend {
        /// The id the op carried.
        gate: NodeId,
        /// The id an append must use (the current node count).
        expected: u32,
    },
    /// The op targets (or would create) a DFF state element: the
    /// structural patch vocabulary is combinational-only — state elements
    /// are frame boundaries, edited by rebuilding the netlist.
    StateElement(NodeId),
    /// The op on this node does not subdivide the fan-in edges of one
    /// existing gate: an engine that accepts only subdivisions (which can
    /// neither close a cycle nor shorten a distance) rejects it.
    NotASubdivision(NodeId),
    /// An earlier patch is still pending: it must be committed or rolled
    /// back before the next one.
    Pending,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NotAGate(g) => write!(f, "node {g} is not a gate"),
            PatchError::UnknownNode(g) => write!(f, "fan-in reference {g} is out of range"),
            PatchError::BadArity { gate, kind, got } => {
                write!(f, "gate {gate} of kind {kind} cannot take {got} fan-ins")
            }
            PatchError::NotAppend { gate, expected } => {
                write!(f, "AddGate id {gate} must be the next free id n{expected}")
            }
            PatchError::StateElement(g) => {
                write!(
                    f,
                    "node {g} is a state element; patches are combinational-only"
                )
            }
            PatchError::NotASubdivision(g) => write!(
                f,
                "the op on node {g} does not subdivide an existing gate's fan-in edges"
            ),
            PatchError::Pending => write!(f, "a patch is pending; commit or roll it back first"),
        }
    }
}

impl std::error::Error for PatchError {}

/// Replays `patch` onto a fresh [`Netlist`] copy of `netlist`, preserving
/// node order and ids — the *rebuild oracle*: scoring or simulating the
/// returned netlist from scratch must agree with the incremental engines
/// applying the same patch.
///
/// Nodes appended by [`PatchOp::AddGate`] are named `__p{id}`. DFF state
/// elements are frame boundaries, not rewrite material: an op that
/// rewires or adds one is a programming error of the patch generator
/// (patches edit the combinational logic *between* frame boundaries).
///
/// # Errors
///
/// Returns the underlying [`NetlistError`] when the patched structure is
/// invalid (illegal arity, dangling reference, cycle).
///
/// # Panics
///
/// Panics if the patch breaks the append-only discipline (a non-append
/// `AddGate`, a target out of range) or edits a state element — these
/// are programming errors of the patch generator, not data errors of the
/// circuit.
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
    for op in &patch.ops {
        match op {
            PatchOp::SetFanin { gate, fanin } => {
                let kind = kinds[gate.index()];
                assert!(kind.is_some(), "SetFanin targets a gate, got {gate}");
                assert!(
                    !kind.is_some_and(CellKind::is_state),
                    "SetFanin cannot rewire a state element"
                );
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
                }
                kinds.push(Some(*kind));
                fanins.push(fanin.clone());
                names.push(format!("__p{}", gate.index()));
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
    fn materialize_appends_and_rewires() {
        let nl = data::c17();
        let g22 = nl.find("22").unwrap();
        let g10 = nl.find("10").unwrap();
        let g11 = nl.find("11").unwrap();
        let n = nl.node_count() as u32;
        // Insert a NAND over (10, 11) and route 22 through it.
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
        assert_eq!(patched.node_name(NodeId(n)), format!("__p{n}"));
        assert_eq!(patched.fanout(NodeId(n)), &[g22]);
        for id in nl.node_ids().filter(|&id| id != g22) {
            assert_eq!(patched.node(id).fanin(), nl.node(id).fanin());
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
    #[should_panic(expected = "SetFanin cannot rewire a state element")]
    fn materialize_panics_on_dff_mutation() {
        let mut b = crate::graph::NetlistBuilder::new("seq");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let q = b.add_dff("q").unwrap();
        b.set_dff_input(q, a);
        b.mark_output(q);
        let nl = b.build().unwrap();
        let _ = materialize(
            &nl,
            &Patch::single(PatchOp::SetFanin {
                gate: q,
                fanin: vec![c],
            }),
        );
    }
}
