//! Fanout-cone indexing: forward adjacency plus level-ordered transitive
//! cone traversal.
//!
//! Incremental engines (event-driven simulation, incremental longest-path
//! timing) all answer the same structural question: *given that these
//! nodes changed, which nodes downstream can be affected, in an order that
//! evaluates every driver before its consumers?* [`ConeIndex`] answers it
//! once per netlist — topological levels plus flat CSR copies of the
//! fanout and fan-in lists — and [`ConeWalker`] walks dirty cones over
//! that index with a level-bucketed worklist, visiting each reached node
//! exactly once in non-decreasing level order. The same fan-in lists and
//! the index's topological order drive the flat full weighted sweep,
//! [`ConeIndex::longest_path_into`].
//!
//! The walk is *event-driven*: the visitor decides per node whether the
//! change actually propagated ([`ConeStep::Propagate`]) or died out
//! ([`ConeStep::Stop`]), so a cone walk touches only the nodes whose
//! inputs really changed, not the full structural fanout cone.
//!
//! # Example
//!
//! ```rust
//! use iddq_netlist::cone::{ConeIndex, ConeStep, ConeWalker};
//! use iddq_netlist::data;
//!
//! let c17 = data::c17();
//! let index = ConeIndex::new(&c17);
//! let g10 = c17.find("10").unwrap();
//! // Full structural cone of gate 10: itself plus gate 22.
//! let cone = index.cone(g10);
//! assert_eq!(cone.len(), 2);
//! // Levels never decrease along the walk.
//! let mut walker = ConeWalker::new(&index);
//! let mut last = 0;
//! walker.walk(&index, [g10], |id| {
//!     assert!(index.level(id) >= last);
//!     last = index.level(id);
//!     ConeStep::Propagate
//! });
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{Netlist, NodeId};
use crate::levelize;

/// Per-netlist structural index for fanout-cone traversals.
///
/// Holds the topological level of every node, a topological order and
/// flat (CSR) copies of the fanout and fan-in adjacency, so repeated cone
/// walks and full sweeps are cache-friendly and never touch the netlist's
/// per-node `Vec`s.
///
/// The index covers the **combinational** view of the circuit: an edge
/// into a DFF is a sequential edge (the frame boundary), so it is omitted
/// from [`ConeIndex::fanout`] and [`ConeIndex::fanin`] — a change cannot
/// propagate into latched state within a frame, and the level-bucketed
/// walk relies on fanout edges strictly increasing the level, which a
/// high-level → level-0 sequential edge would violate. DFF outputs
/// themselves sit at level 0, list no fan-in, and can be used as walk
/// seeds (state changed at a frame boundary).
#[derive(Debug, Clone)]
pub struct ConeIndex {
    level: Vec<u32>,
    offsets: Vec<u32>,
    pool: Vec<u32>,
    /// Topological order over combinational edges (the netlist's).
    topo: Vec<u32>,
    /// Per-node position in `topo`.
    topo_pos: Vec<u32>,
    /// Fan-in lists laid out in topological order (CSR over `topo`
    /// positions), so a full sweep reads them front to back.
    fanin_offsets: Vec<u32>,
    fanin_pool: Vec<u32>,
    max_level: u32,
}

impl ConeIndex {
    /// Builds the index (one levelization pass + one copy of each
    /// adjacency direction).
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let level = levelize::levels(netlist);
        let max_level = level.iter().copied().max().unwrap_or(0);
        let n = netlist.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut pool = Vec::new();
        offsets.push(0u32);
        for id in netlist.node_ids() {
            pool.extend(
                netlist
                    .fanout(id)
                    .iter()
                    .filter(|f| !netlist.is_state_element(**f))
                    .map(|f| f.index() as u32),
            );
            offsets.push(pool.len() as u32);
        }
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
            level,
            offsets,
            pool,
            topo,
            topo_pos,
            fanin_offsets,
            fanin_pool,
            max_level,
        }
    }

    /// Number of nodes covered by the index.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.level.len()
    }

    /// Topological level of a node (`0` for primary inputs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// Deepest level in the circuit.
    #[must_use]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Direct *combinational* fanout of a node, as raw indices into the
    /// node id space. Consumers reached through a DFF's D pin are not
    /// listed (sequential edges end the frame).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn fanout(&self, id: NodeId) -> &[u32] {
        let i = id.index();
        &self.pool[self.offsets[i] as usize..self.offsets[i + 1] as usize]
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

    /// Latest arrival over the combinational fan-in of `id` under `arr`
    /// (`0` for primary inputs and DFFs, which launch fresh paths) — the
    /// inner step of [`levelize::longest_path`].
    ///
    /// # Panics
    ///
    /// Panics if `id` or a fan-in is out of range of `arr`.
    #[must_use]
    pub fn fanin_arrival(&self, id: NodeId, arr: &[f64]) -> f64 {
        latest(self.fanin(id), arr)
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

    /// The full transitive fanout cone of `seed` (including the seed), in
    /// level order. Allocates; hot paths should reuse a [`ConeWalker`].
    #[must_use]
    pub fn cone(&self, seed: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut walker = ConeWalker::new(self);
        walker.walk(self, [seed], |id| {
            out.push(id);
            ConeStep::Propagate
        });
        out
    }

    /// Size of every node's transitive fanout cone (including the node).
    ///
    /// One full walk per node — an `O(V·E)` diagnostic used for cone-size
    /// statistics and threshold calibration, not for hot paths.
    #[must_use]
    pub fn cone_sizes(&self) -> Vec<usize> {
        let mut walker = ConeWalker::new(self);
        (0..self.level.len())
            .map(|i| {
                let mut n = 0usize;
                walker.walk(self, [NodeId(i as u32)], |_| {
                    n += 1;
                    ConeStep::Propagate
                });
                n
            })
            .collect()
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

/// Visitor verdict for one node of a cone walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConeStep {
    /// The node's value/attribute changed: enqueue its fanout.
    Propagate,
    /// The change died out here: do not enqueue the fanout.
    Stop,
}

/// Reusable level-bucketed worklist for [`ConeIndex`] walks.
///
/// Construction sizes the scratch buffers once; every subsequent
/// [`ConeWalker::walk`] is allocation-free (buckets keep their capacity).
/// Each reached node is visited exactly once, and nodes are visited in
/// non-decreasing level order, so a visitor that recomputes a node from
/// its fan-ins always sees fully updated drivers.
#[derive(Debug)]
pub struct ConeWalker {
    /// Per-node stamp of the walk that last visited it.
    stamp: Vec<u64>,
    generation: u64,
    buckets: Vec<Vec<u32>>,
}

impl ConeWalker {
    /// Creates a walker sized for `index`.
    #[must_use]
    pub fn new(index: &ConeIndex) -> Self {
        ConeWalker {
            stamp: vec![0; index.node_count()],
            generation: 0,
            buckets: vec![Vec::new(); index.max_level as usize + 1],
        }
    }

    /// Walks the union of the seeds' cones in level order.
    ///
    /// Every node reached through [`ConeStep::Propagate`] verdicts
    /// (including each seed) is passed to `visit` exactly once. Returns
    /// the number of visited nodes.
    ///
    /// # Panics
    ///
    /// Panics if the walker was built for a smaller index than the one
    /// passed (reuse it only with the index it was created for).
    pub fn walk(
        &mut self,
        index: &ConeIndex,
        seeds: impl IntoIterator<Item = NodeId>,
        mut visit: impl FnMut(NodeId) -> ConeStep,
    ) -> usize {
        assert_eq!(
            self.stamp.len(),
            index.node_count(),
            "walker bound to a different index"
        );
        self.generation += 1;
        let generation = self.generation;
        let mut lowest = self.buckets.len();
        for seed in seeds {
            let i = seed.index();
            if self.stamp[i] != generation {
                self.stamp[i] = generation;
                let lv = index.level[i] as usize;
                self.buckets[lv].push(i as u32);
                lowest = lowest.min(lv);
            }
        }
        // Stamps now mean "enqueued or visited in this generation": a node
        // is enqueued at most once, and since fanout edges strictly
        // increase the level, a bucket is complete by the time the walk
        // reaches it.
        let mut visited = 0usize;
        for lv in lowest..self.buckets.len() {
            let mut k = 0usize;
            while k < self.buckets[lv].len() {
                let i = self.buckets[lv][k] as usize;
                k += 1;
                visited += 1;
                if visit(NodeId(i as u32)) == ConeStep::Propagate {
                    let fo = index.offsets[i] as usize..index.offsets[i + 1] as usize;
                    for f in fo {
                        let succ = index.pool[f] as usize;
                        if self.stamp[succ] != generation {
                            self.stamp[succ] = generation;
                            self.buckets[index.level[succ] as usize].push(succ as u32);
                        }
                    }
                }
            }
            self.buckets[lv].clear();
        }
        visited
    }
}

/// A *growable* cone index: levels plus both adjacency directions, with
/// node insertion/removal, edge rewiring, batched re-levelization (atomic
/// cycle rejection) and the same level-ordered event-driven walk as
/// [`ConeWalker`].
///
/// [`ConeIndex`] is immutable and CSR-packed for the hot read-only paths;
/// `DynamicCones` trades the packing for mutability and is the structural
/// substrate of engines that patch the circuit while keeping derived state
/// alive (`iddq_core::resynth::ResynthEval`). Ids follow the stack
/// discipline of [`crate::patch`]: [`DynamicCones::push_node`] appends,
/// [`DynamicCones::pop_node`] pops the consumer-free tail, and existing
/// ids never move.
///
/// Levels are maintained by [`DynamicCones::relevel`], which the caller
/// invokes once per *batch* of edge edits (seeding the gates whose
/// [`DynamicCones::local_level`] moved); a failed relevel leaves every
/// level untouched, so callers can revert the edge edits and be back in a
/// consistent state.
#[derive(Debug, Clone)]
pub struct DynamicCones {
    level: Vec<u32>,
    fanin: Vec<Vec<u32>>,
    fanout: Vec<Vec<u32>>,
    /// `true` for level-0 *sources*: primary inputs and DFF state elements
    /// (a DFF output is a frame-boundary pseudo-input). Sources cannot be
    /// rewired or popped, never wait on fan-in during [`DynamicCones::relevel`],
    /// and walks do not propagate *into* them — but their physical fan-in /
    /// fanout edges stay in the adjacency so undirected proximity queries
    /// ([`DynamicCones::undirected_ball`], [`DynamicCones::bounded_bfs`])
    /// still see the D pin.
    is_input: Vec<bool>,
    // Walk / relevel scratch, epoch-stamped so walks are allocation-free.
    stamp: Vec<u64>,
    generation: u64,
    buckets: Vec<Vec<u32>>,
    affected: Vec<u32>,
    indeg: Vec<u32>,
    tmp_level: Vec<u32>,
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
            affected: Vec::new(),
            indeg: vec![0; n],
            tmp_level: vec![0; n],
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
        self.indeg.push(0);
        self.tmp_level.push(0);
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
        self.indeg.pop();
        self.tmp_level.pop();
        fanin
    }

    /// Replaces a gate's fan-in edges, returning the old list. This is an
    /// *edge-only* edit: levels are not touched — after a batch of edits,
    /// call [`DynamicCones::relevel`] with the gates whose
    /// [`DynamicCones::local_level`] moved.
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

    /// Recomputes levels over the transitive fanout of `seeds`, detecting
    /// cycles. On `Err(node)` no level has been modified — the caller can
    /// revert its edge edits and the index is consistent again. On `Ok`,
    /// `(node, previous level)` is appended to `moved` for every level
    /// that changed, so a caller that reverts the edge edits later can
    /// put the levels back with [`DynamicCones::restore_levels`] instead
    /// of walking the cone again.
    ///
    /// # Errors
    ///
    /// Returns a node on the combinational cycle the current edges close.
    // The `expect` below fires only if the cycle-detection accounting
    // (processed count vs. positive in-degree) is itself inconsistent —
    // a bug in this function, not an input condition.
    #[allow(clippy::expect_used)]
    pub fn relevel(&mut self, seeds: &[u32], moved: &mut Vec<(u32, u32)>) -> Result<(), u32> {
        self.generation += 1;
        let generation = self.generation;
        self.affected.clear();
        for &s in seeds {
            if self.stamp[s as usize] != generation {
                self.stamp[s as usize] = generation;
                self.affected.push(s);
            }
        }
        let mut head = 0usize;
        while head < self.affected.len() {
            let i = self.affected[head] as usize;
            head += 1;
            for &succ in &self.fanout[i] {
                // Sequential edges do not carry level changes: a level move
                // never crosses a frame boundary into a DFF.
                if !self.is_input[succ as usize] && self.stamp[succ as usize] != generation {
                    self.stamp[succ as usize] = generation;
                    self.affected.push(succ);
                }
            }
        }
        // Kahn inside the region; levels of outside drivers are final.
        // Writes are deferred to `tmp_level` until the region is proven
        // acyclic.
        for &i in &self.affected {
            self.indeg[i as usize] = 0;
        }
        for k in 0..self.affected.len() {
            let i = self.affected[k] as usize;
            // Sources (inputs, DFFs) have their level pinned to 0: even a
            // DFF seeded into the region waits on nothing — its D fan-in
            // edge belongs to the previous frame.
            if self.is_input[i] {
                continue;
            }
            for &f in &self.fanin[i] {
                if self.stamp[f as usize] == generation {
                    self.indeg[i] += 1;
                }
            }
        }
        let mut queue: Vec<u32> = self
            .affected
            .iter()
            .copied()
            .filter(|&i| self.indeg[i as usize] == 0)
            .collect();
        let mut new_level: Vec<(u32, u32)> = Vec::with_capacity(self.affected.len());
        let mut head = 0usize;
        while head < queue.len() {
            let i = queue[head] as usize;
            head += 1;
            let lv = if self.is_input[i] {
                0
            } else {
                1 + self.fanin[i]
                    .iter()
                    .map(|&f| {
                        if self.stamp[f as usize] == generation {
                            self.tmp_level[f as usize]
                        } else {
                            self.level[f as usize]
                        }
                    })
                    .max()
                    .unwrap_or(0)
            };
            self.tmp_level[i] = lv;
            new_level.push((i as u32, lv));
            for &succ in &self.fanout[i] {
                if !self.is_input[succ as usize] && self.stamp[succ as usize] == generation {
                    self.indeg[succ as usize] -= 1;
                    if self.indeg[succ as usize] == 0 {
                        queue.push(succ);
                    }
                }
            }
        }
        if new_level.len() != self.affected.len() {
            let on = self
                .affected
                .iter()
                .copied()
                .find(|&i| self.indeg[i as usize] > 0)
                .expect("unprocessed node has positive in-degree");
            return Err(on);
        }
        for (i, lv) in new_level {
            let old = std::mem::replace(&mut self.level[i as usize], lv);
            if old != lv {
                moved.push((i, old));
            }
        }
        let max_level = self.level.iter().copied().max().unwrap_or(0) as usize;
        if self.buckets.len() <= max_level {
            self.buckets.resize_with(max_level + 1, Vec::new);
        }
        Ok(())
    }

    /// [`DynamicCones::relevel`] for edge edits that cannot close a
    /// cycle: a wave from `seeds`, lowest level first, recomputes each
    /// node it reaches and goes on only past the levels that moved,
    /// instead of walking the whole transitive fanout for the cycle
    /// check. Every move is logged into `moved` as there; a node may
    /// move more than once, and [`DynamicCones::restore_levels`] undoes
    /// the moves newest first.
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
                // Levels never cross a sequential edge (see `relevel`).
                if !self.is_input[succ as usize] {
                    wave.push(Reverse((self.level[succ as usize], succ)));
                }
            }
        }
    }

    /// Undoes the level moves a [`DynamicCones::relevel`] or
    /// [`DynamicCones::relevel_acyclic`] logged into `moved`, newest
    /// first, skipping nodes popped since. Only valid once the edge edits
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
            ref mut affected,
            ..
        } = *self;
        stamp[from as usize] = generation;
        affected.clear();
        affected.push(from);
        let mut head = 0usize;
        let mut frontier_end = 1usize;
        let mut d = 0u32;
        while d < depth && head < frontier_end {
            d += 1;
            for k in head..frontier_end {
                let i = affected[k] as usize;
                for &n in fanin[i].iter().chain(fanout[i].iter()) {
                    if stamp[n as usize] != generation {
                        stamp[n as usize] = generation;
                        affected.push(n);
                        visit(n, d);
                    }
                }
            }
            head = frontier_end;
            frontier_end = affected.len();
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
    fn cone_of_c17_gate11() {
        // 11 feeds 16 and 19; 16 feeds 22, 23; 19 feeds 23.
        let nl = data::c17();
        let index = ConeIndex::new(&nl);
        let g11 = nl.find("11").unwrap();
        let cone = index.cone(g11);
        let names: Vec<&str> = cone.iter().map(|&id| nl.node_name(id)).collect();
        assert_eq!(names, vec!["11", "16", "19", "22", "23"]);
    }

    #[test]
    fn cone_of_output_is_itself() {
        let nl = data::c17();
        let index = ConeIndex::new(&nl);
        let g23 = nl.find("23").unwrap();
        assert_eq!(index.cone(g23), vec![g23]);
    }

    #[test]
    fn levels_match_levelize() {
        let nl = data::ripple_adder(4);
        let index = ConeIndex::new(&nl);
        let lv = levelize::levels(&nl);
        for id in nl.node_ids() {
            assert_eq!(index.level(id), lv[id.index()]);
        }
        assert_eq!(index.max_level(), lv.iter().copied().max().unwrap());
    }

    #[test]
    fn fanout_matches_netlist() {
        let nl = data::c17();
        let index = ConeIndex::new(&nl);
        for id in nl.node_ids() {
            let want: Vec<u32> = nl.fanout(id).iter().map(|f| f.0).collect();
            assert_eq!(index.fanout(id), &want[..]);
        }
    }

    #[test]
    fn walk_visits_level_ordered_and_once() {
        let nl = data::ripple_adder(6);
        let index = ConeIndex::new(&nl);
        let mut walker = ConeWalker::new(&index);
        let seeds: Vec<NodeId> = nl.gate_ids().take(3).collect();
        let mut seen = std::collections::HashSet::new();
        let mut last = 0u32;
        let visited = walker.walk(&index, seeds.iter().copied(), |id| {
            assert!(seen.insert(id), "node {id} visited twice");
            assert!(index.level(id) >= last, "level order violated at {id}");
            last = index.level(id);
            ConeStep::Propagate
        });
        assert_eq!(visited, seen.len());
        for s in seeds {
            assert!(seen.contains(&s));
        }
    }

    #[test]
    fn stop_prunes_downstream() {
        // A chain: stopping at the first gate must keep the walk from ever
        // reaching deeper gates.
        let mut b = NetlistBuilder::new("chain");
        let mut prev = b.add_input("i");
        for k in 0..5 {
            prev = b
                .add_gate(format!("g{k}"), CellKind::Not, vec![prev])
                .unwrap();
        }
        b.mark_output(prev);
        let nl = b.build().unwrap();
        let index = ConeIndex::new(&nl);
        let mut walker = ConeWalker::new(&index);
        let g0 = nl.find("g0").unwrap();
        let visited = walker.walk(&index, [g0], |_| ConeStep::Stop);
        assert_eq!(visited, 1);
    }

    #[test]
    fn walker_is_reusable_across_generations() {
        let nl = data::c17();
        let index = ConeIndex::new(&nl);
        let mut walker = ConeWalker::new(&index);
        let g10 = nl.find("10").unwrap();
        let a = walker.walk(&index, [g10], |_| ConeStep::Propagate);
        let b = walker.walk(&index, [g10], |_| ConeStep::Propagate);
        assert_eq!(a, b);
        // 10 feeds only gate 22.
        assert_eq!(a, 2);
    }

    #[test]
    fn reconvergence_visits_join_once() {
        // i -> a, i -> b, (a, b) -> o: seeding {a, b} must visit o once.
        let mut b = NetlistBuilder::new("reconv");
        let i = b.add_input("i");
        let ga = b.add_gate("a", CellKind::Not, vec![i]).unwrap();
        let gb = b.add_gate("b", CellKind::Buf, vec![i]).unwrap();
        let o = b.add_gate("o", CellKind::And, vec![ga, gb]).unwrap();
        b.mark_output(o);
        let nl = b.build().unwrap();
        let index = ConeIndex::new(&nl);
        let mut walker = ConeWalker::new(&index);
        let visited = walker.walk(&index, [ga, gb], |_| ConeStep::Propagate);
        assert_eq!(visited, 3);
    }

    #[test]
    fn dynamic_cones_mirror_static_index() {
        let nl = data::ripple_adder(5);
        let index = ConeIndex::new(&nl);
        let dynamic = DynamicCones::new(&nl);
        for id in nl.node_ids() {
            assert_eq!(dynamic.level(id.index()), index.level(id));
            assert_eq!(dynamic.fanout(id.index()), index.fanout(id));
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
    fn dynamic_relevel_rejects_cycle_atomically() {
        let nl = data::c17();
        let mut d = DynamicCones::new(&nl);
        let g10 = nl.find("10").unwrap().0 as usize;
        let g22 = nl.find("22").unwrap().0;
        let levels_before: Vec<u32> = (0..d.node_count()).map(|i| d.level(i)).collect();
        // 10 feeds 16 feeds 22; feeding 22 back into 10 closes a cycle.
        let old = d.set_fanin(g10, &[g22, nl.find("3").unwrap().0]);
        assert!(d.relevel(&[g10 as u32], &mut Vec::new()).is_err());
        d.set_fanin(g10, &old);
        for (i, &lv) in levels_before.iter().enumerate() {
            assert_eq!(d.level(i), lv, "levels untouched after rejected relevel");
        }
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
        d.relevel(&[g3.0], &mut moved).unwrap();
        assert_eq!(d.level(g3.index()), 4);
        assert_eq!(moved, vec![(g3.0, 1)]);
        // Reverting the edge and the logged moves restores the levels.
        d.set_fanin(g3.index(), &old);
        d.restore_levels(&moved);
        assert_eq!(d.level(g3.index()), 1);
        assert_eq!(d.local_level(g3.index()), 1);
    }

    #[test]
    fn acyclic_relevel_matches_the_checked_relevel() {
        // A chain g0..g3 off `a`, x = AND(b, g3) at level 5 feeding y;
        // z = AND(a, b) at level 1 feeding w; v = AND(w, y) joins both.
        // One batch deepens z onto g3 and lowers x onto the inputs: the
        // early-stopping wave must land on the checked relevel's levels
        // (v's level falls through y and rises through w), and its log
        // must restore the original ones.
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
        let mut checked = DynamicCones::new(&nl);
        let before: Vec<u32> = (0..checked.node_count())
            .map(|i| checked.level(i))
            .collect();
        let old_z = checked.set_fanin(z.index(), &[prev.0, bi.0]);
        let old_x = checked.set_fanin(x.index(), &[a.0, bi.0]);
        let mut wave = checked.clone();
        let seeds = [z.0, x.0];
        checked.relevel(&seeds, &mut Vec::new()).unwrap();
        let mut moved = Vec::new();
        wave.relevel_acyclic(&seeds, &mut moved);
        assert_eq!(wave.level(z.index()), 5);
        assert_eq!(wave.level(x.index()), 1);
        assert_eq!(wave.level(v.index()), 7);
        for i in 0..wave.node_count() {
            assert_eq!(wave.level(i), checked.level(i), "level of node {i}");
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
        let sep = crate::separation::SeparationOracle::new(&nl, 6);
        for id in nl.node_ids() {
            let mut got: Vec<(u32, u32)> = Vec::new();
            d.bounded_bfs(id.0, 5, |n, dist| got.push((n, dist)));
            got.sort_unstable();
            let want: Vec<(u32, u32)> = sep.near_slice(id).to_vec();
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
        // n drives only q's D pin — its combinational cone is itself.
        assert_eq!(index.cone(n), vec![n]);
        assert_eq!(index.level(q), 0);
        // Seeding the DFF output (state changed at a frame boundary)
        // reaches the combinational logic it feeds.
        let cone = index.cone(q);
        assert!(cone.contains(&n) && cone.contains(&y));

        let mut d = DynamicCones::new(&nl);
        assert_eq!(d.level(q.index()), 0);
        let visited = d.walker().walk([n.0], |_, _| true);
        assert_eq!(visited, 1, "wave must stop at the D pin");
        // ...but undirected proximity still sees the physical D edge.
        let ball = d.undirected_ball(&[n.0], 1);
        assert!(ball.contains(&q.0));
        // Releveling a region containing the DFF loop is not a cycle.
        d.relevel(&[n.0, q.0], &mut Vec::new()).unwrap();
        assert_eq!(d.level(q.index()), 0);
        assert_eq!(d.level(n.index()), 1);
    }

    #[test]
    fn cone_sizes_count_reachability() {
        let nl = data::c17();
        let index = ConeIndex::new(&nl);
        let sizes = index.cone_sizes();
        assert_eq!(sizes[nl.find("10").unwrap().index()], 2);
        assert_eq!(sizes[nl.find("11").unwrap().index()], 5);
        assert_eq!(sizes[nl.find("23").unwrap().index()], 1);
        // Input 3 feeds gates 10 and 11, reaching everything but input
        // nodes: 3, 10, 11, 16, 19, 22, 23.
        assert_eq!(sizes[nl.find("3").unwrap().index()], 7);
    }
}
