//! The plain partition data type `Π = {M₁, …, M_K}`.

use std::fmt;

use iddq_netlist::{Netlist, NodeId};

/// Marker for nodes outside any module (primary inputs).
pub const NO_MODULE: u32 = u32::MAX;

/// A partition of the netlist's gates into disjoint modules.
///
/// Invariants (checked by [`Partition::validate`], maintained by the
/// mutation operations):
///
/// * every gate belongs to exactly one module,
/// * primary inputs belong to none,
/// * `module_of` and `modules` agree,
/// * every gate's recorded position indexes it in its module's list,
/// * no module is empty (empty modules are dropped, as in the paper's
///   Monte-Carlo step: "if all gates of `M` are moved, this module is
///   deleted").
///
/// # Example
///
/// ```rust
/// use iddq_core::Partition;
/// use iddq_netlist::data;
///
/// let c17 = data::c17();
/// let gs = data::c17_paper_gates(&c17);
/// // The paper's optimum: {(g1,g3,g5), (g2,g4,g6)}.
/// let p = Partition::from_groups(&c17, vec![
///     vec![gs[0], gs[2], gs[4]],
///     vec![gs[1], gs[3], gs[5]],
/// ]).unwrap();
/// assert_eq!(p.module_count(), 2);
/// assert_eq!(p.module_of(gs[2]), Some(0));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Partition {
    module_of: Vec<u32>,
    modules: Vec<Vec<NodeId>>,
    /// Per-node position inside its module's gate list (`0` for primary
    /// inputs), so a move finds its gate in O(1).
    pos: Vec<u32>,
}

/// Errors from partition construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A gate appears in more than one group.
    Duplicated(NodeId),
    /// A gate is missing from every group.
    Uncovered(NodeId),
    /// A group references a primary input.
    InputInGroup(NodeId),
    /// A group is empty.
    EmptyGroup,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Duplicated(g) => write!(f, "gate {g} assigned twice"),
            PartitionError::Uncovered(g) => write!(f, "gate {g} not covered by any module"),
            PartitionError::InputInGroup(g) => write!(f, "primary input {g} listed in a module"),
            PartitionError::EmptyGroup => write!(f, "empty module in group list"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl Partition {
    /// Builds a partition from explicit gate groups.
    ///
    /// # Errors
    ///
    /// Returns a [`PartitionError`] if the groups are not a disjoint,
    /// exhaustive, input-free cover of the gates.
    pub fn from_groups(
        netlist: &Netlist,
        groups: Vec<Vec<NodeId>>,
    ) -> Result<Self, PartitionError> {
        let mut module_of = vec![NO_MODULE; netlist.node_count()];
        let mut pos = vec![0u32; netlist.node_count()];
        for (mi, group) in groups.iter().enumerate() {
            if group.is_empty() {
                return Err(PartitionError::EmptyGroup);
            }
            for (k, &g) in group.iter().enumerate() {
                if !netlist.is_gate(g) {
                    return Err(PartitionError::InputInGroup(g));
                }
                if module_of[g.index()] != NO_MODULE {
                    return Err(PartitionError::Duplicated(g));
                }
                module_of[g.index()] = mi as u32;
                pos[g.index()] = k as u32;
            }
        }
        for g in netlist.gate_ids() {
            if module_of[g.index()] == NO_MODULE {
                return Err(PartitionError::Uncovered(g));
            }
        }
        Ok(Partition {
            module_of,
            modules: groups,
            pos,
        })
    }

    /// The trivial single-module partition.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no gates.
    #[must_use]
    // A single group holding every gate exactly once is a valid
    // cover by construction.
    #[allow(clippy::expect_used)]
    pub fn single_module(netlist: &Netlist) -> Self {
        let gates: Vec<NodeId> = netlist.gate_ids().collect();
        assert!(!gates.is_empty(), "netlist has no gates");
        Partition::from_groups(netlist, vec![gates]).expect("single cover is valid")
    }

    /// Number of (non-empty) modules `K`.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// The gates of module `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn module(&self, m: usize) -> &[NodeId] {
        &self.modules[m]
    }

    /// All modules.
    #[must_use]
    pub fn modules(&self) -> &[Vec<NodeId>] {
        &self.modules
    }

    /// The module index of a gate (`None` for primary inputs).
    #[must_use]
    pub fn module_of(&self, id: NodeId) -> Option<usize> {
        match self.module_of[id.index()] {
            NO_MODULE => None,
            m => Some(m as usize),
        }
    }

    /// Position of a gate inside its module's gate list, so
    /// `modules()[m][p] == gate` for `Some(m) = module_of(gate)` and
    /// `Some(p) = position_of(gate)` (`None` for primary inputs).
    #[must_use]
    pub fn position_of(&self, id: NodeId) -> Option<usize> {
        self.module_of(id).map(|_| self.pos[id.index()] as usize)
    }

    /// Dense assignment vector (one entry per node, [`NO_MODULE`] for
    /// primary inputs) — the representation `iddq-logicsim` consumes.
    #[must_use]
    pub fn assignment(&self) -> &[u32] {
        &self.module_of
    }

    /// Moves `gate` into module `target`, dropping its old module if it
    /// becomes empty. Returns the old module index.
    ///
    /// When a module is dropped, the *last* module is renumbered into its
    /// slot (swap-remove semantics); callers tracking module indices must
    /// use the returned [`MoveOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if `gate` is a primary input or `target` is out of range.
    pub fn move_gate(&mut self, gate: NodeId, target: usize) -> MoveOutcome {
        self.move_gate_undoable(gate, target).0
    }

    /// [`Partition::move_gate`] that additionally returns an exact undo
    /// record for [`Partition::undo_move`].
    ///
    /// The gate is found through the position index, in O(1).
    ///
    /// # Panics
    ///
    /// As [`Partition::move_gate`].
    pub fn move_gate_undoable(&mut self, gate: NodeId, target: usize) -> (MoveOutcome, MoveUndo) {
        let source = self.module_of[gate.index()];
        assert!(source != NO_MODULE, "cannot move a primary input");
        assert!(target < self.modules.len(), "target module out of range");
        let source = source as usize;
        if source == target {
            let outcome = MoveOutcome {
                source,
                removed_module: None,
            };
            return (
                outcome,
                MoveUndo {
                    gate,
                    source,
                    source_pos: 0,
                    target,
                    noop: true,
                    removal: None,
                },
            );
        }
        let pos = self.pos[gate.index()] as usize;
        debug_assert_eq!(
            self.modules[source][pos], gate,
            "position index consistent with the module lists"
        );
        let src = &mut self.modules[source];
        src.swap_remove(pos);
        if let Some(&filled) = src.get(pos) {
            // The old last gate now fills the hole.
            self.pos[filled.index()] = pos as u32;
        }
        self.pos[gate.index()] = self.modules[target].len() as u32;
        self.modules[target].push(gate);
        self.module_of[gate.index()] = target as u32;

        let removal = if self.modules[source].is_empty() {
            let last = self.modules.len() - 1;
            self.modules.swap_remove(source);
            if source != last {
                // The old `last` now lives at `source`: renumber its gates.
                for &g in &self.modules[source] {
                    self.module_of[g.index()] = source as u32;
                }
            }
            Some(ModuleRemoval {
                removed: source,
                moved_from: last,
            })
        } else {
            None
        };
        (
            MoveOutcome {
                source,
                removed_module: removal,
            },
            MoveUndo {
                gate,
                source,
                source_pos: pos,
                target,
                noop: false,
                removal,
            },
        )
    }

    /// Exactly reverts one [`Partition::move_gate_undoable`], including
    /// gate-list order and module renumbering.
    ///
    /// Undo records must be applied in strict reverse order of the moves
    /// they came from: each undo assumes the partition is in the state
    /// immediately following its move.
    pub fn undo_move(&mut self, undo: &MoveUndo) {
        if undo.noop {
            return;
        }
        // 1. Re-create the emptied source module, pushing the module that
        //    was swapped into its slot back to the end.
        if let Some(removal) = undo.removal {
            if removal.removed == removal.moved_from {
                self.modules.push(Vec::new());
            } else {
                let displaced = std::mem::take(&mut self.modules[removal.removed]);
                self.modules.push(displaced);
                for &g in &self.modules[removal.moved_from] {
                    self.module_of[g.index()] = removal.moved_from as u32;
                }
            }
        }
        // 2. The gate is the most recent push into the target module.
        let popped = self.modules[undo.target].pop();
        debug_assert_eq!(popped, Some(undo.gate), "undo out of order");
        // 3. Restore the gate at its exact old position (inverting the
        //    swap_remove: the displaced old-last element returns to the
        //    end).
        let src = &mut self.modules[undo.source];
        src.push(undo.gate);
        let last = src.len() - 1;
        src.swap(undo.source_pos, last);
        let displaced = src[last];
        self.pos[displaced.index()] = last as u32;
        self.pos[undo.gate.index()] = undo.source_pos as u32;
        self.module_of[undo.gate.index()] = undo.source as u32;
    }

    /// Checks all structural invariants against `netlist`.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, netlist: &Netlist) -> Result<(), PartitionError> {
        Partition::from_groups(netlist, self.modules.clone()).map(|_| ())
    }

    /// Sizes of all modules (handy for balance assertions in tests).
    #[must_use]
    pub fn module_sizes(&self) -> Vec<usize> {
        self.modules.iter().map(Vec::len).collect()
    }
}

/// Exact inverse of one gate move (see [`Partition::undo_move`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveUndo {
    gate: NodeId,
    /// Module the gate came from.
    source: usize,
    /// Exact position of the gate inside the source gate list.
    source_pos: usize,
    /// Module the gate went to.
    target: usize,
    /// Source equalled target: nothing changed.
    noop: bool,
    removal: Option<ModuleRemoval>,
}

impl MoveUndo {
    /// Whether the move removed (emptied) its source module.
    #[must_use]
    pub fn removed_module(&self) -> Option<ModuleRemoval> {
        self.removal
    }
}

/// Result of a [`Partition::move_gate`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveOutcome {
    /// Module the gate came from (index *before* any removal).
    pub source: usize,
    /// Set when the source module became empty and was removed.
    pub removed_module: Option<ModuleRemoval>,
}

/// Renumbering information after an empty module was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleRemoval {
    /// Index the empty module occupied.
    pub removed: usize,
    /// Index the (former) last module moved from — it now occupies
    /// `removed`. Equal to `removed` when the last module itself emptied.
    pub moved_from: usize,
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Partition")
            .field("modules", &self.modules)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_netlist::data;

    fn c17_halves() -> (iddq_netlist::Netlist, Partition) {
        let nl = data::c17();
        let gs = data::c17_paper_gates(&nl);
        let p = Partition::from_groups(
            &nl,
            vec![vec![gs[0], gs[2], gs[4]], vec![gs[1], gs[3], gs[5]]],
        )
        .unwrap();
        (nl, p)
    }

    #[test]
    fn from_groups_valid() {
        let (nl, p) = c17_halves();
        assert_eq!(p.module_count(), 2);
        p.validate(&nl).unwrap();
        assert_eq!(p.module_sizes(), vec![3, 3]);
    }

    #[test]
    fn duplicate_gate_rejected() {
        let nl = data::c17();
        let gs = data::c17_paper_gates(&nl);
        let err = Partition::from_groups(&nl, vec![vec![gs[0]], vec![gs[0]]]).unwrap_err();
        assert_eq!(err, PartitionError::Duplicated(gs[0]));
    }

    #[test]
    fn uncovered_gate_rejected() {
        let nl = data::c17();
        let gs = data::c17_paper_gates(&nl);
        let err =
            Partition::from_groups(&nl, vec![vec![gs[0], gs[1], gs[2], gs[3], gs[4]]]).unwrap_err();
        assert_eq!(err, PartitionError::Uncovered(gs[5]));
    }

    #[test]
    fn input_in_group_rejected() {
        let nl = data::c17();
        let pi = nl.inputs()[0];
        let err = Partition::from_groups(&nl, vec![vec![pi]]).unwrap_err();
        assert_eq!(err, PartitionError::InputInGroup(pi));
    }

    #[test]
    fn empty_group_rejected() {
        let nl = data::c17();
        let err = Partition::from_groups(&nl, vec![vec![]]).unwrap_err();
        assert_eq!(err, PartitionError::EmptyGroup);
    }

    #[test]
    fn move_gate_updates_both_views() {
        let (nl, mut p) = c17_halves();
        let gs = data::c17_paper_gates(&nl);
        let out = p.move_gate(gs[0], 1);
        assert_eq!(out.source, 0);
        assert!(out.removed_module.is_none());
        assert_eq!(p.module_of(gs[0]), Some(1));
        assert_eq!(p.module_sizes(), vec![2, 4]);
        p.validate(&nl).unwrap();
    }

    #[test]
    fn emptying_a_module_removes_it() {
        let (nl, mut p) = c17_halves();
        let gs = data::c17_paper_gates(&nl);
        p.move_gate(gs[0], 1);
        p.move_gate(gs[2], 1);
        let out = p.move_gate(gs[4], 1);
        assert!(out.removed_module.is_some());
        assert_eq!(p.module_count(), 1);
        p.validate(&nl).unwrap();
        // All six gates in the surviving module.
        assert_eq!(p.module_sizes(), vec![6]);
    }

    #[test]
    fn swap_remove_renumbers_last_module() {
        let nl = data::c17();
        let gs = data::c17_paper_gates(&nl);
        let mut p = Partition::from_groups(
            &nl,
            vec![vec![gs[0], gs[1]], vec![gs[2]], vec![gs[3], gs[4], gs[5]]],
        )
        .unwrap();
        // Empty module 1: gs[2] moves to module 0; module 2 renumbers to 1.
        let out = p.move_gate(gs[2], 0);
        let removal = out.removed_module.unwrap();
        assert_eq!(removal.removed, 1);
        assert_eq!(removal.moved_from, 2);
        assert_eq!(p.module_of(gs[3]), Some(1));
        p.validate(&nl).unwrap();
    }

    #[test]
    fn move_to_same_module_is_noop() {
        let (nl, mut p) = c17_halves();
        let gs = data::c17_paper_gates(&nl);
        let before = p.clone();
        p.move_gate(gs[0], 0);
        assert_eq!(p, before);
        p.validate(&nl).unwrap();
    }

    #[test]
    fn single_module_covers_everything() {
        let nl = data::ripple_adder(3);
        let p = Partition::single_module(&nl);
        assert_eq!(p.module_count(), 1);
        assert_eq!(p.module(0).len(), nl.gate_count());
        p.validate(&nl).unwrap();
    }

    #[test]
    fn undo_move_restores_exact_state() {
        let (nl, mut p) = c17_halves();
        let gs = data::c17_paper_gates(&nl);
        let before = p.clone();
        let (_, undo) = p.move_gate_undoable(gs[0], 1);
        assert_ne!(p, before);
        p.undo_move(&undo);
        assert_eq!(p, before);
        p.validate(&nl).unwrap();
    }

    #[test]
    fn undo_move_restores_through_module_removal() {
        let nl = data::c17();
        let gs = data::c17_paper_gates(&nl);
        let mut p = Partition::from_groups(
            &nl,
            vec![vec![gs[0], gs[1]], vec![gs[2]], vec![gs[3], gs[4], gs[5]]],
        )
        .unwrap();
        let before = p.clone();
        // Empties module 1; module 2 renumbers into its slot.
        let (out, undo) = p.move_gate_undoable(gs[2], 0);
        assert!(out.removed_module.is_some());
        assert_eq!(undo.removed_module(), out.removed_module);
        p.undo_move(&undo);
        assert_eq!(p, before);
        p.validate(&nl).unwrap();
    }

    #[test]
    fn undo_move_sequence_in_reverse_order() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let nl = data::ripple_adder(6);
        let gates: Vec<NodeId> = nl.gate_ids().collect();
        let third = gates.len() / 3;
        let mut p = Partition::from_groups(
            &nl,
            vec![
                gates[..third].to_vec(),
                gates[third..2 * third].to_vec(),
                gates[2 * third..].to_vec(),
            ],
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let before = p.clone();
            let mut undos = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                let g = gates[rng.gen_range(0..gates.len())];
                let t = rng.gen_range(0..p.module_count());
                undos.push(p.move_gate_undoable(g, t).1);
            }
            for u in undos.iter().rev() {
                p.undo_move(u);
            }
            assert_eq!(p, before);
            p.validate(&nl).unwrap();
        }
    }

    /// The position index against the module lists, both ways.
    fn assert_positions(p: &Partition, label: &str) {
        for (m, gates) in p.modules().iter().enumerate() {
            for (k, &g) in gates.iter().enumerate() {
                assert_eq!(p.module_of(g), Some(m), "{label}: module of {g}");
                assert_eq!(p.position_of(g), Some(k), "{label}: position of {g}");
            }
        }
    }

    #[test]
    fn position_index_survives_random_moves_and_undo() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let nl = data::ripple_adder(8);
        let gates: Vec<NodeId> = nl.gate_ids().collect();
        // Small modules, so draining one (swap-remove renumbering) is common.
        let groups: Vec<Vec<NodeId>> = gates.chunks(3).map(<[NodeId]>::to_vec).collect();
        let mut p = Partition::from_groups(&nl, groups).unwrap();
        assert_positions(&p, "start");
        let mut rng = SmallRng::seed_from_u64(41);
        let mut removals = 0;
        for round in 0..40 {
            let before = p.clone();
            let mut undos = Vec::new();
            for step in 0..rng.gen_range(1..12) {
                let label = format!("round {round} step {step}");
                let k = p.module_count();
                if k > 1 && rng.gen_bool(0.3) {
                    // Drain a whole module into another one.
                    let source = rng.gen_range(0..k);
                    let target = (source + rng.gen_range(1..k)) % k;
                    let members = p.module(source).to_vec();
                    for (i, &g) in members.iter().enumerate() {
                        let (out, undo) = p.move_gate_undoable(g, target);
                        assert_eq!(out.removed_module.is_some(), i + 1 == members.len());
                        undos.push(undo);
                        assert_positions(&p, &label);
                    }
                    removals += 1;
                } else {
                    let g = gates[rng.gen_range(0..gates.len())];
                    undos.push(p.move_gate_undoable(g, rng.gen_range(0..k)).1);
                    assert_positions(&p, &label);
                }
                p.validate(&nl).unwrap();
            }
            for (i, u) in undos.iter().enumerate().rev() {
                p.undo_move(u);
                assert_positions(&p, &format!("round {round} undo {i}"));
            }
            assert_eq!(p.modules(), before.modules(), "round {round}");
            assert_eq!(p.assignment(), before.assignment(), "round {round}");
            assert_eq!(p, before, "round {round}");
        }
        assert!(removals > 0, "no module was emptied");
        // Keep moving from the restored state: the index stays live.
        for &g in &gates {
            p.move_gate(g, 0);
            assert_positions(&p, "final sweep");
        }
    }

    #[test]
    fn undo_of_last_module_self_removal() {
        // Source is the *last* module: removal.removed == moved_from.
        let nl = data::c17();
        let gs = data::c17_paper_gates(&nl);
        let mut p = Partition::from_groups(
            &nl,
            vec![vec![gs[0], gs[1], gs[2], gs[3], gs[4]], vec![gs[5]]],
        )
        .unwrap();
        let before = p.clone();
        let (out, undo) = p.move_gate_undoable(gs[5], 0);
        let removal = out.removed_module.unwrap();
        assert_eq!(removal.removed, removal.moved_from);
        p.undo_move(&undo);
        assert_eq!(p, before);
        p.validate(&nl).unwrap();
    }

    #[test]
    fn assignment_vector_matches() {
        let (nl, p) = c17_halves();
        for g in nl.gate_ids() {
            assert_eq!(p.assignment()[g.index()] as usize, p.module_of(g).unwrap());
        }
        for &i in nl.inputs() {
            assert_eq!(p.assignment()[i.index()], NO_MODULE);
        }
    }
}
