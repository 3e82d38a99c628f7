//! Cone indexing: a flat topological index for full weighted sweeps,
//! and a growable index with level-ordered cone walks for patched
//! structures.
//!
//! [`ConeIndex`] holds the netlist's topological order and a flat (CSR)
//! copy of its fan-in lists laid out in that order, so the weighted
//! longest-path sweep, [`ConeIndex::longest_path_into`], reads them front
//! to back without touching the netlist's per-node `Vec`s.
//!
//! [`DynamicCones`] answers the incremental question of engines that patch
//! the circuit: *given that these nodes changed, which nodes downstream
//! can be affected, in an order that evaluates every driver before its
//! consumers?* Its walk is *event-driven*: the visitor decides per node
//! whether the change propagated or died out, so a walk touches only the
//! nodes whose inputs really changed, not the full structural fanout cone.
//!
//! # Example
//!
//! ```rust
//! use iddq_netlist::cone::ConeIndex;
//! use iddq_netlist::{data, levelize};
//!
//! let c17 = data::c17();
//! let index = ConeIndex::new(&c17);
//! let weight: Vec<f64> = c17
//!     .node_ids()
//!     .map(|id| if c17.is_gate(id) { 1.0 } else { 0.0 })
//!     .collect();
//! let mut arr = vec![0.0; c17.node_count()];
//! index.longest_path_into(&weight, &mut arr);
//! // Unit weights: the latest output arrives after C17's three levels.
//! let latest = c17.outputs().iter().map(|o| arr[o.index()]).fold(0.0, f64::max);
//! assert_eq!(latest, 3.0);
//! assert_eq!(arr, levelize::longest_path(&c17, &weight));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{Netlist, NodeId};
use crate::levelize;

/// Per-netlist flat index for full weighted sweeps: a topological order
/// and the fan-in lists laid out in it.
///
/// The index covers the **combinational** view of the circuit: an edge
/// into a DFF is a sequential edge (the frame boundary), so a DFF lists no
/// fan-in in [`ConeIndex::fanin`] and launches a fresh path in the sweep.
#[derive(Debug, Clone)]
pub struct ConeIndex {
    /// Topological order over combinational edges (the netlist's).
    topo: Vec<u32>,
    /// Per-node position in `topo`.
    topo_pos: Vec<u32>,
    /// Fan-in lists laid out in topological order (CSR over `topo`
    /// positions), so a full sweep reads them front to back.
    fanin_offsets: Vec<u32>,
    fanin_pool: Vec<u32>,
}

impl ConeIndex {
    /// Builds the index (one copy of the fan-in lists, in topological
    /// order).
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.node_count();
        let topo: Vec<u32> = netlist.topo_order().iter().map(|id| id.0).collect();
        let mut topo_pos = vec![0u32; n];
        let mut fanin_offsets = Vec::with_capacity(n + 1);
        let mut fanin_pool = Vec::new();
        fanin_offsets.push(0u32);
        for (k, &i) in topo.iter().enumerate() {
            let id = NodeId(i);
            topo_pos[id.index()] = k as u32;
            if !netlist.is_state_element(id) {
                fanin_pool.extend(netlist.node(id).fanin().iter().map(|f| f.0));
            }
            fanin_offsets.push(fanin_pool.len() as u32);
        }
        ConeIndex {
            topo,
            topo_pos,
            fanin_offsets,
            fanin_pool,
        }
    }

    /// Direct *combinational* fan-in of a node, in pin order, as raw
    /// indices. A DFF lists none: its D edge belongs to the previous frame.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn fanin(&self, id: NodeId) -> &[u32] {
        self.fanin_at(self.topo_pos[id.index()] as usize)
    }

    /// Fan-in list of the node at position `k` of the topological order.
    fn fanin_at(&self, k: usize) -> &[u32] {
        &self.fanin_pool[self.fanin_offsets[k] as usize..self.fanin_offsets[k + 1] as usize]
    }

    /// Weighted longest-path arrival times into `arr`: one pass over the
    /// flat fan-in lists in topological order, bit-identical to
    /// [`levelize::longest_path`] (same recurrence, same pin order).
    ///
    /// # Panics
    ///
    /// Panics if `weight` or `arr` is shorter than the node count.
    pub fn longest_path_into(&self, weight: &[f64], arr: &mut [f64]) {
        for (k, &i) in self.topo.iter().enumerate() {
            arr[i as usize] = latest(self.fanin_at(k), arr) + weight[i as usize];
        }
    }
}

/// The largest of `arr` over `fanin`, and `0` for an empty list: the
/// `fold(0.0, f64::max)` of [`levelize::longest_path`] as a plain compare
/// chain, without `f64::max`'s NaN selects. Both keep the accumulator on
/// a NaN and pick the same bits otherwise: an arrival is never `-0.0` (it
/// is a sum whose fan-in side is `+0.0` or more), so equal values have
/// equal bits.
fn latest(fanin: &[u32], arr: &[f64]) -> f64 {
    let mut max = 0.0f64;
    for &f in fanin {
        let a = arr[f as usize];
        if a > max {
            max = a;
        }
    }
    max
}

/// A *growable* cone index: levels plus both adjacency directions, with
/// node insertion/removal, edge rewiring, batched re-levelization and a
/// level-ordered event-driven walk ([`DynamicCones::walker`]).
///
/// [`ConeIndex`] is immutable and CSR-packed for the full sweep;
/// `DynamicCones` trades the packing for mutability and is the structural
/// substrate of engines that patch the circuit while keeping derived state
/// alive (`iddq_core::resynth::ResynthEval`). Ids only ever grow at the
/// tail: [`DynamicCones::push_node`] appends, [`DynamicCones::pop_node`]
/// pops the consumer-free tail (undoing an append), and existing ids
/// never move.
///
/// Levels are maintained by [`DynamicCones::relevel_acyclic`], which the
/// caller invokes once per *batch* of edge edits that cannot close a
/// cycle (seeding the rewired gates), and put back by
/// [`DynamicCones::restore_levels`] from the moves it logged.
#[derive(Debug, Clone)]
pub struct DynamicCones {
    level: Vec<u32>,
    fanin: Vec<Vec<u32>>,
    fanout: Vec<Vec<u32>>,
    /// `true` for level-0 *sources*: primary inputs and DFF state elements
    /// (a DFF output is a frame-boundary pseudo-input). Sources cannot be
    /// rewired or popped, keep level 0 through every relevel, and walks
    /// do not propagate *into* them — but their physical fan-in /
    /// fanout edges stay in the adjacency so undirected proximity queries
    /// ([`DynamicCones::undirected_ball`], [`DynamicCones::bounded_bfs`])
    /// still see the D pin.
    is_input: Vec<bool>,
    // Walk / BFS scratch, epoch-stamped so walks are allocation-free.
    stamp: Vec<u64>,
    generation: u64,
    buckets: Vec<Vec<u32>>,
    queue: Vec<u32>,
}

impl DynamicCones {
    /// Copies the structure of `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let level = levelize::levels(netlist);
        let max_level = level.iter().copied().max().unwrap_or(0) as usize;
        let n = netlist.node_count();
        DynamicCones {
            level,
            fanin: netlist
                .node_ids()
                .map(|id| netlist.node(id).fanin().iter().map(|f| f.0).collect())
                .collect(),
            fanout: netlist
                .node_ids()
                .map(|id| netlist.fanout(id).iter().map(|f| f.0).collect())
                .collect(),
            is_input: netlist
                .node_ids()
                .map(|id| !netlist.is_gate(id) || netlist.is_state_element(id))
                .collect(),
            stamp: vec![0; n],
            generation: 0,
            buckets: vec![Vec::new(); max_level + 1],
            queue: Vec::new(),
        }
    }

    /// Current node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.level.len()
    }

    /// Topological level of a node (`0` for primary inputs).
    #[must_use]
    pub fn level(&self, i: usize) -> u32 {
        self.level[i]
    }

    /// Ordered fan-in of a node.
    #[must_use]
    pub fn fanin(&self, i: usize) -> &[u32] {
        &self.fanin[i]
    }

    /// Fanout (consumer) list of a node, one entry per consuming pin.
    #[must_use]
    pub fn fanout(&self, i: usize) -> &[u32] {
        &self.fanout[i]
    }

    /// Level a gate would get from its current fan-in (`0` for inputs).
    #[must_use]
    pub fn local_level(&self, i: usize) -> u32 {
        if self.is_input[i] {
            return 0;
        }
        1 + self.fanin[i]
            .iter()
            .map(|&f| self.level[f as usize])
            .max()
            .unwrap_or(0)
    }

    /// Appends a gate reading `fanin` and returns its id. The level is
    /// `1 + max(fan-in levels)`; appending can never create a cycle.
    ///
    /// # Panics
    ///
    /// Panics if a fan-in reference is out of range.
    pub fn push_node(&mut self, fanin: &[u32]) -> u32 {
        let id = self.level.len() as u32;
        for &f in fanin {
            assert!((f as usize) < self.level.len(), "fan-in out of range");
            self.fanout[f as usize].push(id);
        }
        let lv = 1 + fanin
            .iter()
            .map(|&f| self.level[f as usize])
            .max()
            .unwrap_or(0);
        self.level.push(lv);
        self.fanin.push(fanin.to_vec());
        self.fanout.push(Vec::new());
        self.is_input.push(false);
        self.stamp.push(0);
        if self.buckets.len() <= lv as usize {
            self.buckets.resize_with(lv as usize + 1, Vec::new);
        }
        id
    }

    /// Pops the last node, returning its fan-in list.
    ///
    /// # Panics
    ///
    /// Panics if the last node is a primary input or still has consumers.
    // The `expect`s below assert the fanin/fanout mirror-consistency
    // invariant this structure maintains on every mutation; breaking it
    // is a bug in this module, not a recoverable condition.
    #[allow(clippy::expect_used)]
    pub fn pop_node(&mut self) -> Vec<u32> {
        let id = (self.level.len() - 1) as u32;
        assert!(!self.is_input[id as usize], "cannot pop a primary input");
        assert!(
            self.fanout[id as usize].is_empty(),
            "cannot pop a node with consumers"
        );
        let fanin = self.fanin.pop().expect("non-empty");
        for &f in &fanin {
            let fo = &mut self.fanout[f as usize];
            let pos = fo.iter().position(|&x| x == id).expect("consistent");
            fo.swap_remove(pos);
        }
        self.level.pop();
        self.fanout.pop();
        self.is_input.pop();
        self.stamp.pop();
        fanin
    }

    /// Replaces a gate's fan-in edges, returning the old list. This is an
    /// *edge-only* edit: levels are not touched — after a batch of edits,
    /// call [`DynamicCones::relevel_acyclic`] with the rewired gates.
    ///
    /// # Panics
    ///
    /// Panics if `i` is a primary input or a reference is out of range.
    // Same mirror-consistency invariant as `pop_node`: an absent fanout
    // back-edge is a bug in this module.
    #[allow(clippy::expect_used)]
    pub fn set_fanin(&mut self, i: usize, new: &[u32]) -> Vec<u32> {
        assert!(!self.is_input[i], "cannot rewire a primary input");
        for &f in new {
            assert!((f as usize) < self.level.len(), "fan-in out of range");
        }
        let old = std::mem::replace(&mut self.fanin[i], new.to_vec());
        // Occurrence-preserving fanout maintenance (a driver may feed the
        // same gate on several pins).
        for &f in &old {
            let fo = &mut self.fanout[f as usize];
            let pos = fo.iter().position(|&x| x == i as u32).expect("consistent");
            fo.swap_remove(pos);
        }
        for &f in new {
            self.fanout[f as usize].push(i as u32);
        }
        old
    }

    /// Recomputes levels after edge edits that cannot close a cycle
    /// (such as subdivisions of existing edges): a wave from `seeds`,
    /// lowest level first, recomputes each node it reaches and goes on
    /// only past the levels that moved, instead of walking the whole
    /// transitive fanout. Every move is appended to `moved` as `(node,
    /// previous level)`; a node may move more than once, and
    /// [`DynamicCones::restore_levels`] undoes the moves newest first.
    ///
    /// # Panics
    ///
    /// Panics if the edits did close a cycle (a level would pass the
    /// node count).
    pub fn relevel_acyclic(&mut self, seeds: &[u32], moved: &mut Vec<(u32, u32)>) {
        let bound = self.level.len() as u32;
        let mut wave: BinaryHeap<Reverse<(u32, u32)>> = seeds
            .iter()
            .map(|&s| Reverse((self.level[s as usize], s)))
            .collect();
        while let Some(Reverse((_, i))) = wave.pop() {
            let lv = self.local_level(i as usize);
            let old = std::mem::replace(&mut self.level[i as usize], lv);
            if lv == old {
                continue;
            }
            assert!(lv <= bound, "the edits closed a cycle through node {i}");
            moved.push((i, old));
            if self.buckets.len() <= lv as usize {
                self.buckets.resize_with(lv as usize + 1, Vec::new);
            }
            for &succ in &self.fanout[i as usize] {
                // Levels never cross a sequential edge: a DFF output is a
                // frame-boundary source pinned at level 0.
                if !self.is_input[succ as usize] {
                    wave.push(Reverse((self.level[succ as usize], succ)));
                }
            }
        }
    }

    /// Undoes the level moves [`DynamicCones::relevel_acyclic`] logged
    /// into `moved`, newest first, skipping nodes popped since. Only valid once the edge edits
    /// that relevel followed are reverted and no other level moved in
    /// between.
    pub fn restore_levels(&mut self, moved: &[(u32, u32)]) {
        for &(i, lv) in moved.iter().rev() {
            if let Some(level) = self.level.get_mut(i as usize) {
                *level = lv;
            }
        }
    }

    /// Splits out a level-ordered event-driven walker over the *current*
    /// structure. The split borrow lets the visitor closure freely use the
    /// caller's own per-node state while the walker drives the traversal.
    pub fn walker(&mut self) -> DynWalker<'_> {
        self.generation += 1;
        DynWalker {
            level: &self.level,
            fanin: &self.fanin,
            fanout: &self.fanout,
            is_input: &self.is_input,
            stamp: &mut self.stamp,
            generation: self.generation,
            buckets: &mut self.buckets,
        }
    }

    /// Collects every node within undirected (fan-in ∪ fanout) distance
    /// `depth` of the seed set, including the seeds, in BFS order.
    #[must_use]
    pub fn undirected_ball(&mut self, seeds: &[u32], depth: u32) -> Vec<u32> {
        self.generation += 1;
        let generation = self.generation;
        let mut out: Vec<u32> = Vec::new();
        for &s in seeds {
            if self.stamp[s as usize] != generation {
                self.stamp[s as usize] = generation;
                out.push(s);
            }
        }
        let mut head = 0usize;
        let mut frontier_end = out.len();
        let mut d = 0u32;
        while d < depth && head < frontier_end {
            for k in head..frontier_end {
                let i = out[k] as usize;
                for &n in self.fanin[i].iter().chain(self.fanout[i].iter()) {
                    if self.stamp[n as usize] != generation {
                        self.stamp[n as usize] = generation;
                        out.push(n);
                    }
                }
            }
            head = frontier_end;
            frontier_end = out.len();
            d += 1;
        }
        out
    }

    /// Bounded undirected BFS from one node: calls `visit(node, dist)` for
    /// every node at distance `1..=depth` of `from`, in BFS order.
    ///
    /// This is the separation-maintenance primitive: summing `ρ − dist`
    /// over the visited *gates* reproduces a
    /// [`GateSeparationTable`](crate::separation::GateSeparationTable) row
    /// weight for the current (patched) structure.
    pub fn bounded_bfs(&mut self, from: u32, depth: u32, mut visit: impl FnMut(u32, u32)) {
        self.generation += 1;
        let generation = self.generation;
        let DynamicCones {
            ref fanin,
            ref fanout,
            ref mut stamp,
            ref mut queue,
            ..
        } = *self;
        stamp[from as usize] = generation;
        queue.clear();
        queue.push(from);
        let mut head = 0usize;
        let mut frontier_end = 1usize;
        let mut d = 0u32;
        while d < depth && head < frontier_end {
            d += 1;
            for k in head..frontier_end {
                let i = queue[k] as usize;
                for &n in fanin[i].iter().chain(fanout[i].iter()) {
                    if stamp[n as usize] != generation {
                        stamp[n as usize] = generation;
                        queue.push(n);
                        visit(n, d);
                    }
                }
            }
            head = frontier_end;
            frontier_end = queue.len();
        }
    }
}

/// Split-borrow walker over a [`DynamicCones`] (see
/// [`DynamicCones::walker`]). One walker instance performs one walk.
#[derive(Debug)]
pub struct DynWalker<'a> {
    level: &'a [u32],
    fanin: &'a [Vec<u32>],
    fanout: &'a [Vec<u32>],
    is_input: &'a [bool],
    stamp: &'a mut [u64],
    generation: u64,
    buckets: &'a mut [Vec<u32>],
}

impl DynWalker<'_> {
    /// Walks the union of the seeds' cones in level order: each reached
    /// node is visited exactly once, drivers before consumers; a `false`
    /// verdict stops the wave at that node. The visitor receives the
    /// node's current fan-in list (the walker already borrows the index,
    /// so the caller cannot). Returns the number of visited nodes.
    pub fn walk(
        self,
        seeds: impl IntoIterator<Item = u32>,
        mut visit: impl FnMut(u32, &[u32]) -> bool,
    ) -> usize {
        let generation = self.generation;
        let mut lowest = self.buckets.len();
        for s in seeds {
            if self.stamp[s as usize] != generation {
                self.stamp[s as usize] = generation;
                let lv = self.level[s as usize] as usize;
                self.buckets[lv].push(s);
                lowest = lowest.min(lv);
            }
        }
        let mut visited = 0usize;
        for lv in lowest..self.buckets.len() {
            let mut k = 0usize;
            while k < self.buckets[lv].len() {
                let i = self.buckets[lv][k] as usize;
                k += 1;
                visited += 1;
                if visit(i as u32, &self.fanin[i]) {
                    for &succ in &self.fanout[i] {
                        let succ = succ as usize;
                        // A wave never crosses a sequential edge: latched
                        // state is constant for the rest of the frame (and
                        // pushing a level-0 node into an already-drained
                        // bucket would corrupt the walk).
                        if !self.is_input[succ] && self.stamp[succ] != generation {
                            self.stamp[succ] = generation;
                            self.buckets[self.level[succ] as usize].push(succ as u32);
                        }
                    }
                }
            }
            self.buckets[lv].clear();
        }
        visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::graph::NetlistBuilder;
    use crate::kind::CellKind;

    #[test]
    fn dynamic_cones_mirror_the_netlist() {
        let nl = data::ripple_adder(5);
        let levels = levelize::levels(&nl);
        let dynamic = DynamicCones::new(&nl);
        for id in nl.node_ids() {
            assert_eq!(dynamic.level(id.index()), levels[id.index()]);
            let fanout: Vec<u32> = nl.fanout(id).iter().map(|f| f.0).collect();
            assert_eq!(dynamic.fanout(id.index()), &fanout[..]);
            let want: Vec<u32> = nl.node(id).fanin().iter().map(|f| f.0).collect();
            assert_eq!(dynamic.fanin(id.index()), &want[..]);
        }
    }

    #[test]
    fn dynamic_push_pop_roundtrip() {
        let nl = data::c17();
        let mut d = DynamicCones::new(&nl);
        let n = d.node_count();
        let g10 = nl.find("10").unwrap().0;
        let g11 = nl.find("11").unwrap().0;
        let id = d.push_node(&[g10, g11]);
        assert_eq!(id as usize, n);
        assert_eq!(d.level(id as usize), 2);
        assert!(d.fanout(g10 as usize).contains(&id));
        let fanin = d.pop_node();
        assert_eq!(fanin, vec![g10, g11]);
        assert_eq!(d.node_count(), n);
        assert!(!d.fanout(g10 as usize).contains(&id));
    }

    #[test]
    fn dynamic_relevel_deepens_rewired_chain() {
        // i -> g0 -> g1 -> g2 and a parallel g3(i); rewiring g3 onto g2
        // deepens it from level 1 to level 4.
        let mut b = NetlistBuilder::new("deepen");
        let i = b.add_input("i");
        let g0 = b.add_gate("g0", CellKind::Not, vec![i]).unwrap();
        let g1 = b.add_gate("g1", CellKind::Not, vec![g0]).unwrap();
        let g2 = b.add_gate("g2", CellKind::Not, vec![g1]).unwrap();
        let g3 = b.add_gate("g3", CellKind::Not, vec![i]).unwrap();
        b.mark_output(g2);
        b.mark_output(g3);
        let nl = b.build().unwrap();
        let mut d = DynamicCones::new(&nl);
        let old = d.set_fanin(g3.index(), &[g2.0]);
        assert_eq!(d.local_level(g3.index()), 4);
        let mut moved = Vec::new();
        d.relevel_acyclic(&[g3.0], &mut moved);
        assert_eq!(d.level(g3.index()), 4);
        assert_eq!(moved, vec![(g3.0, 1)]);
        // Reverting the edge and the logged moves restores the levels.
        d.set_fanin(g3.index(), &old);
        d.restore_levels(&moved);
        assert_eq!(d.level(g3.index()), 1);
        assert_eq!(d.local_level(g3.index()), 1);
    }

    #[test]
    fn acyclic_relevel_matches_a_fresh_index() {
        // A chain g0..g3 off `a`, x = AND(b, g3) at level 5 feeding y;
        // z = AND(a, b) at level 1 feeding w; v = AND(w, y) joins both.
        // One batch deepens z onto g3 and lowers x onto the inputs: the
        // early-stopping wave must land on the levels of a fresh index of
        // the rewired netlist (v's level falls through y and rises
        // through w), and its log must restore the original ones.
        let mut b = NetlistBuilder::new("wave");
        let a = b.add_input("a");
        let bi = b.add_input("b");
        let mut prev = a;
        for k in 0..4 {
            prev = b
                .add_gate(format!("g{k}"), CellKind::Not, vec![prev])
                .unwrap();
        }
        let x = b.add_gate("x", CellKind::And, vec![bi, prev]).unwrap();
        let y = b.add_gate("y", CellKind::Not, vec![x]).unwrap();
        let z = b.add_gate("z", CellKind::And, vec![a, bi]).unwrap();
        let w = b.add_gate("w", CellKind::Not, vec![z]).unwrap();
        let v = b.add_gate("v", CellKind::And, vec![w, y]).unwrap();
        b.mark_output(v);
        let nl = b.build().unwrap();
        let rewired = crate::patch::materialize(
            &nl,
            &crate::patch::Patch {
                ops: vec![
                    crate::patch::PatchOp::SetFanin {
                        gate: z,
                        fanin: vec![prev, bi],
                    },
                    crate::patch::PatchOp::SetFanin {
                        gate: x,
                        fanin: vec![a, bi],
                    },
                ],
            },
        )
        .unwrap();
        let fresh = DynamicCones::new(&rewired);
        let mut wave = DynamicCones::new(&nl);
        let before: Vec<u32> = (0..wave.node_count()).map(|i| wave.level(i)).collect();
        let old_z = wave.set_fanin(z.index(), &[prev.0, bi.0]);
        let old_x = wave.set_fanin(x.index(), &[a.0, bi.0]);
        let mut moved = Vec::new();
        wave.relevel_acyclic(&[z.0, x.0], &mut moved);
        assert_eq!(wave.level(z.index()), 5);
        assert_eq!(wave.level(x.index()), 1);
        assert_eq!(wave.level(v.index()), 7);
        for i in 0..wave.node_count() {
            assert_eq!(wave.level(i), fresh.level(i), "level of node {i}");
        }
        wave.set_fanin(x.index(), &old_x);
        wave.set_fanin(z.index(), &old_z);
        wave.restore_levels(&moved);
        for (i, &lv) in before.iter().enumerate() {
            assert_eq!(wave.level(i), lv, "restored level of node {i}");
        }
    }

    #[test]
    fn dynamic_walker_level_ordered_and_stoppable() {
        let nl = data::ripple_adder(4);
        let mut d = DynamicCones::new(&nl);
        let seeds: Vec<u32> = nl.gate_ids().take(2).map(|g| g.0).collect();
        let levels: Vec<u32> = (0..d.node_count()).map(|i| d.level(i)).collect();
        let mut last = 0u32;
        let mut seen = std::collections::HashSet::new();
        let visited = d.walker().walk(seeds.iter().copied(), |i, _| {
            assert!(levels[i as usize] >= last);
            last = levels[i as usize];
            assert!(seen.insert(i));
            true
        });
        assert_eq!(visited, seen.len());
        let stopped = d.walker().walk(seeds.iter().copied(), |_, _| false);
        assert_eq!(stopped, seeds.len());
    }

    #[test]
    fn dynamic_ball_and_bfs_match_oracle_distances() {
        let nl = data::c17();
        let mut d = DynamicCones::new(&nl);
        let mut bfs = crate::separation::BoundedBfs::new(&nl, 6);
        for id in nl.node_ids() {
            let mut got: Vec<(u32, u32)> = Vec::new();
            d.bounded_bfs(id.0, 5, |n, dist| got.push((n, dist)));
            got.sort_unstable();
            let mut want: Vec<(u32, u32)> = Vec::new();
            bfs.row_into(id, &mut want);
            assert_eq!(got, want, "node {id}");
            // The ball of a single seed is the BFS closure plus the seed.
            let ball = d.undirected_ball(&[id.0], 5);
            assert_eq!(ball.len(), want.len() + 1);
        }
    }

    #[test]
    fn sequential_edges_end_cone_walks() {
        // q = DFF(n), n = NOT(q), y = AND(a, q): a legal feedback loop.
        let mut b = NetlistBuilder::new("seq");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        let n = b.add_gate("n", CellKind::Not, vec![q]).unwrap();
        b.set_dff_input(q, n);
        let y = b.add_gate("y", CellKind::And, vec![a, q]).unwrap();
        b.mark_output(y);
        let nl = b.build().unwrap();

        let index = ConeIndex::new(&nl);
        // The D edge ends the frame: the DFF lists no fan-in.
        assert!(index.fanin(q).is_empty());
        assert_eq!(index.fanin(n), &[q.0]);

        let mut d = DynamicCones::new(&nl);
        assert_eq!(d.level(q.index()), 0);
        let visited = d.walker().walk([n.0], |_, _| true);
        assert_eq!(visited, 1, "wave must stop at the D pin");
        // Seeding the DFF output (state changed at a frame boundary)
        // reaches the combinational logic it feeds.
        let mut reached = Vec::new();
        d.walker().walk([q.0], |i, _| {
            reached.push(i);
            true
        });
        assert!(reached.contains(&n.0) && reached.contains(&y.0));
        // ...but undirected proximity still sees the physical D edge.
        let ball = d.undirected_ball(&[n.0], 1);
        assert!(ball.contains(&q.0));
        // Releveling from inside the DFF loop stops at the D pin.
        d.relevel_acyclic(&[n.0, q.0], &mut Vec::new());
        assert_eq!(d.level(q.index()), 0);
        assert_eq!(d.level(n.index()), 1);
    }
}
