//! Event-driven incremental simulation.
//!
//! The batch [`Simulator`](crate::Simulator) re-evaluates the whole
//! circuit per sweep — ideal when every node is needed, wasteful when the
//! question is *"this circuit, but with one gate changed"*. [`DeltaSim`]
//! answers that question incrementally: it owns a persistent copy of the
//! packed node values plus a mutable copy of the circuit structure, and a
//! [`Patch`] of gate changes triggers re-evaluation of only the *dirty
//! cone* — the gates whose packed value actually changes — via a
//! level-bucketed worklist that visits each node at most once, drivers
//! before consumers.
//!
//! # Patch lifecycle
//!
//! 1. [`DeltaSim::set_inputs`] establishes the baseline state (one full
//!    sweep over the current structure).
//! 2. [`DeltaSim::apply`] validates and applies a [`Patch`] (gate kind
//!    and/or fan-in edge changes, node insertion/removal), re-levelizes
//!    the affected region (rejecting cycles and illegal arities with the
//!    state unchanged), propagates values through the dirty cone, and
//!    pushes the *inverse* patch onto an undo stack.
//! 3. [`DeltaSim::rollback`] pops the undo stack and applies the inverse
//!    through the same machinery, restoring the previous structure and
//!    values exactly; [`DeltaSim::commit`] forgets the undo history
//!    instead, making the mutations permanent.
//!
//! Because rollback is itself a patch application, inputs may be changed
//! *between* apply and rollback: values are always recomputed from the
//! current inputs, never replayed from a log.
//!
//! # Structural insertion and removal
//!
//! [`PatchOp::AddGate`] and [`PatchOp::RemoveGate`] grow and shrink the
//! simulated circuit under the stack discipline of
//! [`iddq_netlist::patch`]: insertion is append-only (the op's id must be
//! the current node count) and removal pops the consumer-free tail node.
//! Ids of existing nodes therefore never move, and all per-node state
//! (values, forces, levels, adjacency) grows and shrinks at the tail.
//!
//! Levelization rules: an inserted gate reads only pre-existing nodes, so
//! it can never close a cycle and its level is simply `1 + max(fan-in
//! levels)` at insertion time. Only [`PatchOp::SetFanin`] can move levels
//! or close cycles; those trigger the batched re-levelization below
//! (which also repairs the levels of gates inserted earlier in the same
//! patch, since they sit in the fanout region of any rewired driver). A
//! removed gate has no consumers, so removal never dirties any value; the
//! inverse op (`AddGate` with the recorded kind and fan-in) recomputes the
//! node's value from the unchanged drivers on rollback.
//!
//! A region rewrite is expressed as `AddGate` the replacement nodes, then
//! `SetFanin` the consumers over to them — exactly the patch shape
//! `iddq-synth`'s decomposition and buffer-tree builders emit, and the
//! shape whose generated inverse (`SetFanin` back, `RemoveGate` in
//! reverse order) is always applicable.
//!
//! # Dirty-cone semantics
//!
//! Propagation is event-driven, not structural: a re-evaluated gate whose
//! packed value is bit-identical to before stops the wave, so the visited
//! set is usually much smaller than the structural fanout cone. The
//! [`PatchReport`] returned by apply/rollback counts both the visited and
//! the actually-changed nodes — callers batching mutations can use it to
//! fall back to a full batch sweep when a patch dirties most of the
//! circuit.
//!
//! # Value forces
//!
//! Besides structural edits, a node (gate *or* primary input) can be
//! *forced*: its packed value is pinned to a per-lane word and it is
//! never recomputed from its fan-in until the force is lifted.
//! [`DeltaSim::force_word`] / [`DeltaSim::unforce_word`] set and lift a
//! pin outside the undo stack — callers pair them themselves; the
//! single-frame fault-patch engine superimposes bridges (wired-AND words)
//! this way. Within the crate, `superimpose` sets a whole list of pins
//! and propagates them in one level-ordered walk that logs every value it
//! changes (several calls may stack onto one log), and `lift_logged`
//! clears those pins and writes the logged values back, newest first,
//! without re-evaluating anything. The multi-frame fault engine
//! superimposes each faulty machine — its diverged DFF words and the
//! fault site — this way: one walk in, none out.
//!
//! # Stuck-at probes
//!
//! [`DeltaSim::stuck_at_probe`] answers the single-frame stuck-at
//! question — in which lanes does pinning a node to 0 or 1 flip some
//! primary output — without leaving any trace in the persistent state,
//! and exactly (lane for lane) as a pin, an output diff and a release
//! would. It works in three steps:
//!
//! 1. **excitation** — a stuck word equal to the node's current word
//!    changes nothing and is answered at once;
//! 2. **fanout-free region** — the faulty word is carried along the chain
//!    of single-consumer nodes (not primary outputs, not feeding a DFF D
//!    pin) to its *stem*. Side inputs keep their current values, and a
//!    consumer that reads the driver on several pins sees the faulty word
//!    on each of them. A step whose word stops differing ends the probe;
//! 3. **stem observability** — the stem is flipped in *all* lanes once,
//!    by a level-bucket walk that stops when its worklist empties, logs
//!    every value it changes, XORs only the changed primary-output words
//!    and restores the logged values instead of re-evaluating them. Lanes
//!    are independent, so the flipped lanes that reach an output, masked
//!    by the lanes the fault flips at the stem, are the detection. The
//!    observability word is cached per stem until the next call that
//!    changes values, structure or pins.
//!
//! # State elements and frames
//!
//! A [`CellKind::Dff`] output is a frame boundary: it holds a latched
//! packed word for a whole frame and is never recomputed from its D
//! fan-in by a sweep — the sequential edge stops every propagation wave.
//! [`DeltaSim::set_state`] loads the latched words (and propagates the
//! resulting changes like an input load), [`DeltaSim::capture_state`]
//! reads the settled next-state off the D drivers, and
//! [`DeltaSim::step_frame`] combines the two into the same
//! *scatter → evaluate → capture* cycle as the batch engine's
//! `Simulator::step_frame`. Structural patches may not touch state
//! elements ([`PatchError::StateElement`]) — but value forces may, which
//! is exactly how the multi-frame fault engine injects a diverged faulty
//! state into an otherwise shared structure.

use iddq_netlist::{CellKind, Netlist, NodeId, PackedWord};

pub use iddq_netlist::patch::{Patch, PatchError, PatchOp};

/// Work accounting of one apply/rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchReport {
    /// Nodes re-evaluated by the worklist (the dirty-cone walk length).
    pub reevaluated: usize,
    /// Nodes whose packed value actually changed.
    pub changed: usize,
}

/// Mutable flat (CSR-style) adjacency: per-node slots in one shared index
/// pool, with per-slot capacity so rewires that fit in place cost a copy
/// and oversized ones relocate to the pool tail. The initial layout is in
/// node order, so cone walks touch the pool near-sequentially.
#[derive(Debug, Clone)]
struct Adjacency {
    off: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    pool: Vec<u32>,
}

impl Adjacency {
    fn from_lists(lists: impl Iterator<Item = Vec<u32>>, slack: u32) -> Self {
        let mut off = Vec::new();
        let mut len = Vec::new();
        let mut cap = Vec::new();
        let mut pool = Vec::new();
        for list in lists {
            let c = list.len() as u32 + slack;
            off.push(pool.len() as u32);
            len.push(list.len() as u32);
            cap.push(c);
            pool.extend_from_slice(&list);
            pool.extend(std::iter::repeat_n(0, slack as usize));
        }
        Adjacency {
            off,
            len,
            cap,
            pool,
        }
    }

    /// Heap bytes of the four SoA `u32` arrays.
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<u32>()
            * (self.off.capacity()
                + self.len.capacity()
                + self.cap.capacity()
                + self.pool.capacity())
    }

    #[inline]
    fn get(&self, i: usize) -> &[u32] {
        let o = self.off[i] as usize;
        &self.pool[o..o + self.len[i] as usize]
    }

    fn set(&mut self, i: usize, new: &[u32]) {
        if new.len() as u32 > self.cap[i] {
            // Relocate to the tail with doubled capacity; the old slot
            // becomes dead pool space (bounded by total rewrite volume).
            let c = (new.len() * 2) as u32;
            self.off[i] = self.pool.len() as u32;
            self.cap[i] = c;
            self.pool.extend(std::iter::repeat_n(0, c as usize));
        }
        let o = self.off[i] as usize;
        self.pool[o..o + new.len()].copy_from_slice(new);
        self.len[i] = new.len() as u32;
    }

    fn push(&mut self, i: usize, v: u32) {
        if self.len[i] == self.cap[i] {
            let current = self.get(i).to_vec();
            let c = (current.len() as u32 + 1) * 2;
            self.off[i] = self.pool.len() as u32;
            self.cap[i] = c;
            self.pool.extend(std::iter::repeat_n(0, c as usize));
            let o = self.off[i] as usize;
            self.pool[o..o + current.len()].copy_from_slice(&current);
        }
        let o = self.off[i] as usize + self.len[i] as usize;
        self.pool[o] = v;
        self.len[i] += 1;
    }

    /// Appends a node slot holding `list` (plus `slack` spare capacity) at
    /// the tail of the pool.
    fn push_slot(&mut self, list: &[u32], slack: u32) {
        let c = list.len() as u32 + slack;
        self.off.push(self.pool.len() as u32);
        self.len.push(list.len() as u32);
        self.cap.push(c);
        self.pool.extend_from_slice(list);
        self.pool.extend(std::iter::repeat_n(0, slack as usize));
    }

    /// Drops the last node slot. When the slot's range sits at the pool
    /// tail — always true for the apply→rollback round-trip of an
    /// insertion, the probe-loop pattern — the storage is reclaimed;
    /// interior (relocated-away) ranges stay dead like any other
    /// relocation residue.
    // The `expect`s assert this pool's own bookkeeping (offsets, caps
    // and lengths move in lockstep); they cannot fire from caller input.
    #[allow(clippy::expect_used)]
    fn pop_slot(&mut self) {
        let off = self.off.pop().expect("non-empty adjacency");
        self.len.pop();
        let cap = self.cap.pop().expect("non-empty adjacency");
        if (off + cap) as usize == self.pool.len() {
            self.pool.truncate(off as usize);
        }
    }

    /// Removes one occurrence of `v` (order not preserved).
    // Same bookkeeping invariant: every stored edge has a mirror entry.
    #[allow(clippy::expect_used)]
    fn remove_one(&mut self, i: usize, v: u32) {
        let o = self.off[i] as usize;
        let n = self.len[i] as usize;
        let slot = &mut self.pool[o..o + n];
        let pos = slot
            .iter()
            .position(|&x| x == v)
            .expect("adjacency consistent");
        slot.swap(pos, n - 1);
        self.len[i] -= 1;
    }
}

/// Event-driven incremental simulator with persistent per-node packed
/// state.
///
/// # Example
///
/// ```rust
/// use iddq_logicsim::delta::{DeltaSim, Patch, PatchOp};
/// use iddq_netlist::{data, CellKind};
///
/// let c17 = data::c17();
/// let mut sim = DeltaSim::<u64>::new(&c17);
/// sim.set_inputs(&[!0u64; 5]);
/// let g22 = c17.find("22").unwrap();
/// assert_eq!(sim.value(g22) & 1, 1); // 22 = NAND(10, 16) = 1
///
/// // Mutate 22 into an AND: only its (empty) fanout cone re-evaluates.
/// let patch = Patch::single(PatchOp::SetKind { gate: g22, kind: CellKind::And });
/// sim.apply(&patch).unwrap();
/// assert_eq!(sim.value(g22) & 1, 0);
/// sim.rollback();
/// assert_eq!(sim.value(g22) & 1, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaSim<W: PackedWord> {
    /// `None` for primary inputs.
    kinds: Vec<Option<CellKind>>,
    fanin: Adjacency,
    fanout: Adjacency,
    level: Vec<u32>,
    values: Vec<W>,
    /// Per-node value pin (`None` = evaluate normally).
    forced: Vec<Option<W>>,
    input_words: Vec<W>,
    input_indices: Vec<u32>,
    /// Primary-input position per node (`u32::MAX` for gates).
    input_pos: Vec<u32>,
    /// State-element position per node (`u32::MAX` for everything else).
    state_pos: Vec<u32>,
    /// DFF output node per state element (`Netlist::state_elements` order).
    state_nodes: Vec<u32>,
    /// D-driver node per state element, aligned with `state_nodes`.
    state_d: Vec<u32>,
    /// Latched packed word per state element (what the DFF output reads).
    state_words: Vec<W>,
    /// Per node: is it a primary output (appended gates never are).
    output: Vec<bool>,
    /// Inverse patches, innermost last.
    undo: Vec<Patch>,
    // Worklist / re-levelization scratch (all node-count sized, epoch
    // stamped so walks are allocation-free).
    stamp: Vec<u64>,
    generation: u64,
    buckets: Vec<Vec<u32>>,
    affected: Vec<u32>,
    indeg: Vec<u32>,
    tmp_level: Vec<u32>,
    gather: Vec<W>,
    /// Bumped by every [`DeltaSim::sweep`] (input load, frame step, pin
    /// change, patch), so a cached stem observability is valid while its
    /// stamp still equals it.
    values_epoch: u64,
    /// Stem-observability cache of [`DeltaSim::stuck_at_probe`] (`epoch`,
    /// word) per node; sized on the first probe.
    stem_obs: Vec<(u64, W)>,
    /// `(node, previous value)` per change of the current stem walk.
    change_log: Vec<(u32, W)>,
}

impl<W: PackedWord> DeltaSim<W> {
    /// Copies the netlist structure and establishes the all-zero-input
    /// baseline state.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.node_count();
        let kinds = netlist
            .node_ids()
            .map(|id| netlist.node(id).kind().cell_kind())
            .collect();
        // Fan-in slots carry no slack (rewires keep or relocate); fanout
        // slots get a little headroom so consumer churn stays in place.
        let fanin = Adjacency::from_lists(
            netlist
                .node_ids()
                .map(|id| netlist.node(id).fanin().iter().map(|f| f.0).collect()),
            0,
        );
        let fanout = Adjacency::from_lists(
            netlist
                .node_ids()
                .map(|id| netlist.fanout(id).iter().map(|f| f.0).collect()),
            2,
        );
        let level = iddq_netlist::levelize::levels(netlist);
        let max_level = level.iter().copied().max().unwrap_or(0) as usize;
        let mut input_pos = vec![u32::MAX; n];
        for (k, &i) in netlist.inputs().iter().enumerate() {
            input_pos[i.index()] = k as u32;
        }
        let mut state_pos = vec![u32::MAX; n];
        for (k, &d) in netlist.state_elements().iter().enumerate() {
            state_pos[d.index()] = k as u32;
        }
        let state_d: Vec<u32> = netlist
            .state_elements()
            .iter()
            .map(|d| netlist.node(*d).fanin()[0].0)
            .collect();
        let mut output = vec![false; n];
        for &o in netlist.outputs() {
            output[o.index()] = true;
        }
        let mut sim = DeltaSim {
            kinds,
            fanin,
            fanout,
            level,
            values: vec![W::zeros(); n],
            forced: vec![None; n],
            input_words: vec![W::zeros(); netlist.num_inputs()],
            input_indices: netlist.inputs().iter().map(|i| i.0).collect(),
            input_pos,
            state_pos,
            state_nodes: netlist.state_elements().iter().map(|d| d.0).collect(),
            state_d,
            state_words: vec![W::zeros(); netlist.num_state_elements()],
            output,
            undo: Vec::new(),
            stamp: vec![0; n],
            generation: 0,
            buckets: vec![Vec::new(); max_level + 1],
            affected: Vec::new(),
            indeg: vec![0; n],
            tmp_level: vec![0; n],
            gather: Vec::new(),
            values_epoch: 0,
            stem_obs: Vec::new(),
            change_log: Vec::new(),
        };
        let zeros = vec![W::zeros(); sim.input_words.len()];
        sim.set_inputs(&zeros);
        sim
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.input_indices.len()
    }

    /// Total node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.values.len()
    }

    /// Approximate heap footprint of the persistent engine state in
    /// bytes: the SoA adjacency pools (u32 throughout), the packed value
    /// / force lanes (`LANES / 8` bytes per node per lane set), and the
    /// node-count-sized scratch arrays. Pending undo patches are not
    /// counted (their size is the caller's patch history, not the
    /// engine's steady state).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let u32s = self.level.capacity()
            + self.input_indices.capacity()
            + self.input_pos.capacity()
            + self.state_pos.capacity()
            + self.state_nodes.capacity()
            + self.state_d.capacity()
            + self.affected.capacity()
            + self.indeg.capacity()
            + self.tmp_level.capacity();
        let words = self.values.capacity()
            + self.input_words.capacity()
            + self.state_words.capacity()
            + self.gather.capacity();
        self.fanin.memory_bytes()
            + self.fanout.memory_bytes()
            + self.output.capacity()
            + self.stem_obs.capacity() * std::mem::size_of::<(u64, W)>()
            + self.change_log.capacity() * std::mem::size_of::<(u32, W)>()
            + self.kinds.capacity() * std::mem::size_of::<Option<CellKind>>()
            + self.forced.capacity() * std::mem::size_of::<Option<W>>()
            + u32s * std::mem::size_of::<u32>()
            + words * std::mem::size_of::<W>()
            + self.stamp.capacity() * std::mem::size_of::<u64>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// The persistent packed value of every node under the current inputs
    /// and structure.
    #[must_use]
    pub fn values(&self) -> &[W] {
        &self.values
    }

    /// Packed value of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn value(&self, id: NodeId) -> W {
        self.values[id.index()]
    }

    /// Current logic function of a node (`None` for primary inputs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn kind(&self, id: NodeId) -> Option<CellKind> {
        self.kinds[id.index()]
    }

    /// Current ordered fan-in of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn fanin(&self, id: NodeId) -> Vec<NodeId> {
        self.fanin
            .get(id.index())
            .iter()
            .map(|&i| NodeId(i))
            .collect()
    }

    /// Current ordered fan-in as raw node indices, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub(crate) fn fanin_indices(&self, id: NodeId) -> &[u32] {
        self.fanin.get(id.index())
    }

    /// Number of applied-but-uncommitted patches on the undo stack.
    #[must_use]
    pub fn pending_patches(&self) -> usize {
        self.undo.len()
    }

    /// Loads a packed input batch and fully re-evaluates the circuit over
    /// the current (possibly patched) structure.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn set_inputs(&mut self, inputs: &[W]) {
        assert_eq!(
            inputs.len(),
            self.input_indices.len(),
            "one packed word per primary input required"
        );
        self.input_words.copy_from_slice(inputs);
        // Forced full sweep: seed every input and every state element,
        // never stop the wave. Every gate is combinationally reachable
        // from that seed set (walking fan-in back terminates at an input
        // or a DFF output), so the sweep establishes the evaluation
        // invariant over the whole circuit. The sweep itself reads each
        // input's word / latched state word (or its force) on visit.
        let mut seeds: Vec<u32> = self.input_indices.clone();
        seeds.extend_from_slice(&self.state_nodes);
        self.sweep(&seeds, true);
    }

    /// Number of DFF state elements.
    #[must_use]
    pub fn num_state_elements(&self) -> usize {
        self.state_nodes.len()
    }

    /// Loads the latched state words (one per state element, in
    /// `Netlist::state_elements` order) and propagates the resulting
    /// changes through the dirty cone, exactly like an input load.
    ///
    /// A force pin on a DFF output survives the load: the pinned value
    /// keeps shadowing the latched word until the force is lifted.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the number of state elements.
    pub fn set_state(&mut self, state: &[W]) -> PatchReport {
        assert_eq!(
            state.len(),
            self.state_words.len(),
            "one packed word per state element required"
        );
        self.state_words.copy_from_slice(state);
        let seeds: Vec<u32> = self.state_nodes.clone();
        self.sweep(&seeds, false)
    }

    /// Reads the settled next-state off the D drivers into `state` (one
    /// word per state element, in `Netlist::state_elements` order).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the number of state elements.
    pub fn capture_state(&self, state: &mut [W]) {
        assert_eq!(
            state.len(),
            self.state_words.len(),
            "one packed word per state element required"
        );
        for (slot, &d) in state.iter_mut().zip(&self.state_d) {
            *slot = self.values[d as usize];
        }
    }

    /// Advances one frame: latches `state` into the DFF outputs, loads
    /// `inputs`, propagates the combined dirty cone, then captures the
    /// next-state back into `state` — the same scatter → evaluate →
    /// capture cycle as the batch engine's `Simulator::step_frame`, but
    /// event-driven (only values that changed since the previous frame
    /// re-propagate).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `state` have the wrong length.
    pub fn step_frame(&mut self, inputs: &[W], state: &mut [W]) -> PatchReport {
        assert_eq!(
            inputs.len(),
            self.input_indices.len(),
            "one packed word per primary input required"
        );
        assert_eq!(
            state.len(),
            self.state_words.len(),
            "one packed word per state element required"
        );
        self.input_words.copy_from_slice(inputs);
        self.state_words.copy_from_slice(state);
        let mut seeds: Vec<u32> = self.input_indices.clone();
        seeds.extend_from_slice(&self.state_nodes);
        let report = self.sweep(&seeds, false);
        self.capture_state(state);
        report
    }

    /// Pins `node` to a per-lane packed constant and propagates the dirty
    /// cone. Pins bypass the undo stack: callers pair this with
    /// [`DeltaSim::unforce_word`] themselves.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn force_word(&mut self, node: NodeId, value: W) -> PatchReport {
        self.forced[node.index()] = Some(value);
        self.sweep(&[node.0], false)
    }

    /// Lifts a [`DeltaSim::force_word`] pin: the node is recomputed from
    /// its fan-in (or its loaded input word) and the change propagates.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn unforce_word(&mut self, node: NodeId) -> PatchReport {
        self.forced[node.index()] = None;
        self.sweep(&[node.0], false)
    }

    /// The current force pin of a node, if any.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn forced_value(&self, node: NodeId) -> Option<W> {
        self.forced[node.index()]
    }

    /// Pins every `(node, word)` of `pins` — a later pin on the same node
    /// wins — and propagates all of them in one level-ordered walk that
    /// appends each value it changes, with its previous word, to `log`.
    /// Returns the walk length. Several calls may share one `log` (each
    /// walks on top of the previous ones); [`DeltaSim::lift_logged`]
    /// undoes them all without re-evaluating anything. The pinned nodes
    /// must carry no pin of their own beforehand: the lift clears them.
    pub(crate) fn superimpose(&mut self, pins: &[(NodeId, W)], log: &mut Vec<(u32, W)>) -> usize {
        for &(node, word) in pins {
            self.forced[node.index()] = Some(word);
        }
        self.values_epoch += 1;
        self.walk(pins.iter().map(|&(node, _)| node.0), false, Some(log))
            .reevaluated
    }

    /// Lifts what [`DeltaSim::superimpose`] set: clears the pins of
    /// `pins` and writes the logged values back, newest first, leaving
    /// `log` empty. Nothing is re-evaluated — the logged words are the
    /// values the unpinned circuit already held.
    pub(crate) fn lift_logged(&mut self, pins: &[(NodeId, W)], log: &mut Vec<(u32, W)>) {
        for &(node, _) in pins {
            self.forced[node.index()] = None;
        }
        for (k, old) in log.drain(..).rev() {
            self.values[k as usize] = old;
        }
        self.values_epoch += 1;
    }

    /// Applies a patch: structural edit, local re-levelization, dirty-cone
    /// value propagation. The inverse lands on the undo stack.
    ///
    /// # Errors
    ///
    /// Returns a [`PatchError`] (state unchanged) when an op targets a
    /// non-gate, uses an illegal arity, references an unknown node, or
    /// would create a combinational cycle.
    pub fn apply(&mut self, patch: &Patch) -> Result<PatchReport, PatchError> {
        let (inverse, report) = self.apply_inner(patch)?;
        self.undo.push(inverse);
        Ok(report)
    }

    /// Rolls the most recent uncommitted patch back, restoring structure
    /// and re-propagating values. Returns the rollback's own dirty-cone
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics if there is no patch to roll back.
    // Documented panic contract (empty undo stack), and the inverse of
    // an accepted patch re-validates by construction.
    #[allow(clippy::expect_used)]
    pub fn rollback(&mut self) -> PatchReport {
        let inverse = self.undo.pop().expect("no patch to roll back");
        let (_, report) = self
            .apply_inner(&inverse)
            .expect("inverse of an accepted patch is always valid");
        report
    }

    /// Makes all applied patches permanent by clearing the undo stack.
    pub fn commit(&mut self) {
        self.undo.clear();
    }

    // On a relevel failure the already-applied ops are unwound with
    // their recorded inverses, which restore the exact prior structure —
    // that restore failing would mean the inverse bookkeeping is broken.
    #[allow(clippy::expect_used)]
    fn apply_inner(&mut self, patch: &Patch) -> Result<(Patch, PatchReport), PatchError> {
        let inverse = self.apply_structure(patch)?;
        let seeds: Vec<u32> = {
            // Deduplicated set of edited gates (a patch may touch a gate
            // twice, e.g. kind + fan-in). Gates removed by the patch have
            // nothing left to re-evaluate (removal requires an empty
            // fanout) and are filtered out.
            let mut s: Vec<u32> = patch
                .ops
                .iter()
                .map(|op| op.gate().0)
                .filter(|&g| (g as usize) < self.kinds.len())
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        // Levels can only change — and a cycle can only appear — when a
        // rewired gate's locally recomputed level moved: kind flips and
        // level-preserving rewires skip the (fanout-cone-sized)
        // re-levelization entirely. The prune is airtight for cycles:
        // wiring a gate's own (transitive) successor in as a driver
        // necessarily raises its local level, because levels strictly
        // increase along every edge. Inserted gates take `1 + max(fan-in
        // levels)` directly; if a rewire in the same patch later moves a
        // driver's level, the insertion sits in that driver's fanout
        // region and is repaired by the same pass.
        let relevel_seeds: Vec<u32> = patch
            .ops
            .iter()
            .filter(|op| matches!(op, PatchOp::SetFanin { .. }))
            .map(|op| op.gate().0)
            .filter(|&g| (g as usize) < self.kinds.len())
            .filter(|&g| self.local_level(g as usize) != self.level[g as usize])
            .collect();
        if !relevel_seeds.is_empty() {
            if let Err(cycle) = self.relevel(&relevel_seeds) {
                let _ = self
                    .apply_structure(&inverse)
                    .expect("restoring the previous structure cannot fail");
                return Err(cycle);
            }
        }
        let report = self.sweep(&seeds, false);
        Ok((inverse, report))
    }

    /// Level a gate would get from its current fan-in (`0` for inputs).
    fn local_level(&self, i: usize) -> u32 {
        if self.kinds[i].is_none() {
            return 0;
        }
        1 + self
            .fanin
            .get(i)
            .iter()
            .map(|&f| self.level[f as usize])
            .max()
            .unwrap_or(0)
    }

    /// Applies the structural ops in order, returning the inverse patch.
    /// On mid-patch validation failure the already-applied prefix is
    /// reverted, leaving the structure untouched.
    fn apply_structure(&mut self, patch: &Patch) -> Result<Patch, PatchError> {
        let mut inverse: Vec<PatchOp> = Vec::with_capacity(patch.ops.len());
        for op in &patch.ops {
            let gate = op.gate();
            let gi = gate.index();
            let valid = (|| {
                // AddGate is validated against the id it *creates*; every
                // other op targets an existing node.
                if let PatchOp::AddGate { kind, fanin, .. } = op {
                    let expected = self.kinds.len() as u32;
                    if gate.0 != expected {
                        return Err(PatchError::NotAppend { gate, expected });
                    }
                    if kind.is_state() {
                        return Err(PatchError::StateElement(gate));
                    }
                    if !kind.accepts_fanin(fanin.len()) {
                        return Err(PatchError::BadArity {
                            gate,
                            kind: *kind,
                            got: fanin.len(),
                        });
                    }
                    for &f in fanin {
                        if f.index() >= self.kinds.len() {
                            return Err(PatchError::UnknownNode(f));
                        }
                    }
                    return Ok(());
                }
                if gi >= self.kinds.len() {
                    return Err(PatchError::UnknownNode(gate));
                }
                let Some(kind) = self.kinds[gi] else {
                    return Err(PatchError::NotAGate(gate));
                };
                // Structural edits stop at frame boundaries: a DFF can be
                // pinned (`force_word`, fault injection) but never
                // rekinded, rewired or removed.
                if kind.is_state() {
                    return Err(PatchError::StateElement(gate));
                }
                match op {
                    PatchOp::AddGate { .. } => unreachable!("handled above"),
                    PatchOp::SetKind { kind: new_kind, .. } => {
                        if new_kind.is_state() {
                            return Err(PatchError::StateElement(gate));
                        }
                        let arity = self.fanin.get(gi).len();
                        if !new_kind.accepts_fanin(arity) {
                            return Err(PatchError::BadArity {
                                gate,
                                kind: *new_kind,
                                got: arity,
                            });
                        }
                    }
                    PatchOp::SetFanin { fanin, .. } => {
                        if !kind.accepts_fanin(fanin.len()) {
                            return Err(PatchError::BadArity {
                                gate,
                                kind,
                                got: fanin.len(),
                            });
                        }
                        for &f in fanin {
                            if f.index() >= self.kinds.len() {
                                return Err(PatchError::UnknownNode(f));
                            }
                        }
                    }
                    PatchOp::RemoveGate { .. } => {
                        if gi + 1 != self.kinds.len()
                            || !self.fanout.get(gi).is_empty()
                            || self.forced[gi].is_some()
                        {
                            return Err(PatchError::NotRemovable(gate));
                        }
                    }
                }
                Ok(())
            })();
            if let Err(e) = valid {
                // Revert the applied prefix, innermost first.
                for inv in inverse.iter().rev() {
                    self.apply_op_unchecked(inv);
                }
                return Err(e);
            }
            inverse.push(self.apply_op_unchecked(op));
        }
        inverse.reverse();
        Ok(Patch { ops: inverse })
    }

    /// Applies one validated op, returning its inverse.
    // `_unchecked` by contract: ops reach here only after
    // `validate_op`, so the gate-kind slots are guaranteed populated.
    #[allow(clippy::expect_used)]
    fn apply_op_unchecked(&mut self, op: &PatchOp) -> PatchOp {
        match op {
            PatchOp::SetKind { gate, kind } => {
                let gi = gate.index();
                let old = self.kinds[gi].expect("validated as gate");
                self.kinds[gi] = Some(*kind);
                PatchOp::SetKind {
                    gate: *gate,
                    kind: old,
                }
            }
            PatchOp::SetFanin { gate, fanin } => {
                let gi = gate.index();
                let new: Vec<u32> = fanin.iter().map(|f| f.0).collect();
                let old = self.fanin.get(gi).to_vec();
                self.fanin.set(gi, &new);
                // Fanout maintenance preserves occurrence counts (a driver
                // may feed the same gate on several pins).
                for &f in &old {
                    self.fanout.remove_one(f as usize, gate.0);
                }
                for &f in &new {
                    self.fanout.push(f as usize, gate.0);
                }
                PatchOp::SetFanin {
                    gate: *gate,
                    fanin: old.into_iter().map(NodeId).collect(),
                }
            }
            PatchOp::AddGate { gate, kind, fanin } => {
                let list: Vec<u32> = fanin.iter().map(|f| f.0).collect();
                self.kinds.push(Some(*kind));
                self.fanin.push_slot(&list, 0);
                self.fanout.push_slot(&[], 2);
                for &f in &list {
                    self.fanout.push(f as usize, gate.0);
                }
                // Append-only insertion reads pre-existing drivers only:
                // no cycle is possible and the level is locally exact
                // (repaired by the batched relevel if a same-patch rewire
                // later moves a driver).
                let lv = 1 + list
                    .iter()
                    .map(|&f| self.level[f as usize])
                    .max()
                    .unwrap_or(0);
                self.level.push(lv);
                if self.buckets.len() <= lv as usize {
                    self.buckets.resize_with(lv as usize + 1, Vec::new);
                }
                self.values.push(W::zeros());
                self.forced.push(None);
                self.output.push(false);
                self.input_pos.push(u32::MAX);
                self.state_pos.push(u32::MAX);
                self.stamp.push(0);
                self.indeg.push(0);
                self.tmp_level.push(0);
                PatchOp::RemoveGate { gate: *gate }
            }
            PatchOp::RemoveGate { gate } => {
                let gi = gate.index();
                let kind = self.kinds.pop().flatten().expect("validated gate");
                let fanin: Vec<NodeId> = self.fanin.get(gi).iter().map(|&f| NodeId(f)).collect();
                for f in &fanin {
                    self.fanout.remove_one(f.index(), gate.0);
                }
                self.fanin.pop_slot();
                self.fanout.pop_slot();
                self.level.pop();
                self.values.pop();
                self.forced.pop();
                self.output.pop();
                self.input_pos.pop();
                self.state_pos.pop();
                self.stamp.pop();
                self.indeg.pop();
                self.tmp_level.pop();
                PatchOp::AddGate {
                    gate: *gate,
                    kind,
                    fanin,
                }
            }
        }
    }

    /// Recomputes levels over the transitive fanout of `seeds`, detecting
    /// cycles. On `Err` no level has been modified.
    // As in `cone::relevel`: the expect cross-checks the cycle
    // detector's own accounting, not an input condition.
    #[allow(clippy::expect_used)]
    fn relevel(&mut self, seeds: &[u32]) -> Result<(), PatchError> {
        // Affected region: transitive fanout of the edited gates over the
        // *new* adjacency (any node whose level can change has an edited
        // ancestor, hence is reachable).
        self.generation += 1;
        let generation = self.generation;
        self.affected.clear();
        let mut head = 0usize;
        for &s in seeds {
            if self.stamp[s as usize] != generation {
                self.stamp[s as usize] = generation;
                self.affected.push(s);
            }
        }
        while head < self.affected.len() {
            let i = self.affected[head] as usize;
            head += 1;
            for &succ in self.fanout.get(i) {
                let succ = succ as usize;
                // State elements are level-0 frame boundaries: their level
                // never moves, and the edge into them never closes a
                // combinational cycle.
                if self.state_pos[succ] != u32::MAX {
                    continue;
                }
                if self.stamp[succ] != generation {
                    self.stamp[succ] = generation;
                    self.affected.push(succ as u32);
                }
            }
        }
        // Kahn inside the region; levels of outside drivers are final.
        for &i in &self.affected {
            self.indeg[i as usize] = 0;
        }
        for k in 0..self.affected.len() {
            let i = self.affected[k] as usize;
            for &f in self.fanin.get(i) {
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
        // Defer writes into `self.level` until the whole region is proven
        // acyclic: `tmp_level` (epoch-stamped scratch, `MAX` = not yet
        // computed) tracks in-region updates meanwhile. Kahn order
        // guarantees an in-region driver is computed before its readers.
        for &i in &self.affected {
            self.tmp_level[i as usize] = u32::MAX;
        }
        while head < queue.len() {
            let i = queue[head] as usize;
            head += 1;
            let lv = if self.kinds[i].is_some() {
                1 + self
                    .fanin
                    .get(i)
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
            } else {
                0
            };
            self.tmp_level[i] = lv;
            new_level.push((i as u32, lv));
            for &succ in self.fanout.get(i) {
                let succ = succ as usize;
                if self.stamp[succ] == generation {
                    self.indeg[succ] -= 1;
                    if self.indeg[succ] == 0 {
                        queue.push(succ as u32);
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
            return Err(PatchError::Cycle(NodeId(on)));
        }
        for (i, lv) in new_level {
            self.level[i as usize] = lv;
        }
        let max_level = self.level.iter().copied().max().unwrap_or(0) as usize;
        if self.buckets.len() <= max_level {
            self.buckets.resize_with(max_level + 1, Vec::new);
        }
        Ok(())
    }

    /// Single-frame stuck-at probe: the lanes in which pinning `node` to
    /// `stuck_at_one` flips at least one primary output under the current
    /// values and pins, plus the number of node evaluations it took (the
    /// fanout-free-region steps and, unless cached, the stem walk). The
    /// answer equals `force_word(node, W::splat(stuck_at_one))`, an output
    /// diff and a release lane for lane; the persistent values are left
    /// exactly as they were (see the module docs' *Stuck-at probes*).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn stuck_at_probe(&mut self, node: NodeId, stuck_at_one: bool) -> (W, usize) {
        let mut i = node.index();
        let mut faulty = W::splat(stuck_at_one);
        let mut flipped = faulty ^ self.values[i];
        let mut evaluated = 0usize;
        loop {
            if flipped == W::zeros() {
                return (flipped, evaluated);
            }
            if self.output[i] {
                // Every flipped lane is seen right here; downstream outputs
                // can only flip in lanes that already differ.
                return (flipped, evaluated);
            }
            let consumers = self.fanout.get(i);
            let Some(&c) = consumers.first() else {
                // Dangling: nothing observes the node.
                return (W::zeros(), evaluated);
            };
            if consumers.iter().any(|&o| o != c) {
                break;
            }
            let c = c as usize;
            if self.state_pos[c] != u32::MAX || self.forced[c].is_some() {
                // A D pin is a sequential edge and a pinned consumer holds
                // its pin: the wave stops either way.
                return (W::zeros(), evaluated);
            }
            // Evaluate the single consumer with the faulty word on every
            // pin that reads `i`, then put the good word back.
            let good = std::mem::replace(&mut self.values[i], faulty);
            let next = self.eval_node(c);
            self.values[i] = good;
            evaluated += 1;
            flipped = next ^ self.values[c];
            faulty = next;
            i = c;
        }
        let (observable, walked) = self.stem_observability(i);
        (flipped & observable, evaluated + walked)
    }

    /// The lanes in which flipping stem `i` reaches a primary output
    /// (cached per stem while the values stay put), and the walk length
    /// (`0` on a cache hit).
    fn stem_observability(&mut self, i: usize) -> (W, usize) {
        let n = self.values.len();
        if self.stem_obs.len() < n {
            self.stem_obs.resize(n, (u64::MAX, W::zeros()));
        }
        let (epoch, cached) = self.stem_obs[i];
        if epoch == self.values_epoch {
            return (cached, 0);
        }
        // Pin the stem to its complement for the length of one walk; the
        // stem itself lands first in the change log.
        let pin = self.forced[i].replace(!self.values[i]);
        let mut log = std::mem::take(&mut self.change_log);
        log.clear();
        let report = self.walk([i as u32], false, Some(&mut log));
        self.forced[i] = pin;
        let mut observable = W::zeros();
        for &(k, old) in &log {
            let k = k as usize;
            if self.output[k] {
                observable = observable | (old ^ self.values[k]);
            }
            self.values[k] = old;
        }
        self.change_log = log;
        self.stem_obs[i] = (self.values_epoch, observable);
        (observable, report.reevaluated)
    }

    /// The value node `i` takes from its current pin, latched word, input
    /// word or fan-in values.
    #[inline]
    fn eval_node(&mut self, i: usize) -> W {
        if let Some(pin) = self.forced[i] {
            // A forced node holds its pin regardless of structure.
            return pin;
        }
        if self.state_pos[i] != u32::MAX {
            // A DFF output reads its latched word, never its D fan-in —
            // latching happens only in `set_state` / `step_frame`, between
            // frames.
            return self.state_words[self.state_pos[i] as usize];
        }
        let Some(kind) = self.kinds[i] else {
            // Primary inputs re-read their loaded word.
            return self.input_words[self.input_pos[i] as usize];
        };
        // Direct-op fast paths for the 1/2-input forms that dominate ISCAS
        // circuits (no fold, no gather); larger gates take the generic
        // path.
        match *self.fanin.get(i) {
            [a] => {
                let a = self.values[a as usize];
                match kind {
                    CellKind::Not => !a,
                    CellKind::Dff => unreachable!("state elements read their latched word above"),
                    _ => a,
                }
            }
            [a, b] => {
                let a = self.values[a as usize];
                let b = self.values[b as usize];
                match kind {
                    CellKind::Nand => !(a & b),
                    CellKind::Nor => !(a | b),
                    CellKind::And => a & b,
                    CellKind::Or => a | b,
                    CellKind::Xor => a ^ b,
                    CellKind::Xnor => !(a ^ b),
                    CellKind::Buf | CellKind::Not | CellKind::Dff => {
                        unreachable!("arity 1 kinds never take two fan-ins")
                    }
                }
            }
            _ => {
                self.gather.clear();
                for &f in self.fanin.get(i) {
                    self.gather.push(self.values[f as usize]);
                }
                kind.eval_packed(&self.gather)
            }
        }
    }

    /// Level-ordered worklist sweep from `seeds`. With `force`, every
    /// reached node is re-evaluated and always propagates (full sweep);
    /// without, propagation stops at nodes whose value did not change.
    /// Invalidates every cached stem observability.
    fn sweep(&mut self, seeds: &[u32], force: bool) -> PatchReport {
        self.values_epoch += 1;
        self.walk(seeds.iter().copied(), force, None)
    }

    /// The worklist walk behind [`DeltaSim::sweep`]; with `log`, every
    /// changed node is recorded with its previous value. The walk ends
    /// as soon as the worklist is empty.
    fn walk(
        &mut self,
        seeds: impl IntoIterator<Item = u32>,
        force: bool,
        mut log: Option<&mut Vec<(u32, W)>>,
    ) -> PatchReport {
        self.generation += 1;
        let generation = self.generation;
        let mut lowest = self.buckets.len();
        let mut pending = 0usize;
        for s in seeds {
            if self.stamp[s as usize] != generation {
                self.stamp[s as usize] = generation;
                let lv = self.level[s as usize] as usize;
                self.buckets[lv].push(s);
                pending += 1;
                lowest = lowest.min(lv);
            }
        }
        let mut reevaluated = 0usize;
        let mut changed = 0usize;
        for lv in lowest..self.buckets.len() {
            if pending == 0 {
                break;
            }
            let mut k = 0usize;
            while k < self.buckets[lv].len() {
                let i = self.buckets[lv][k] as usize;
                k += 1;
                pending -= 1;
                reevaluated += 1;
                let new = self.eval_node(i);
                let old = std::mem::replace(&mut self.values[i], new);
                let delta = new != old;
                if delta {
                    changed += 1;
                    if let Some(log) = log.as_deref_mut() {
                        log.push((i as u32, old));
                    }
                }
                if delta || force {
                    for &succ in self.fanout.get(i) {
                        let succ = succ as usize;
                        // A D fan-in edge is sequential: the wave stops at
                        // the state element (its latched word does not
                        // depend on this frame's values — and pushing a
                        // level-0 node from a higher bucket would leave
                        // worklist residue anyway).
                        if self.state_pos[succ] != u32::MAX {
                            continue;
                        }
                        if self.stamp[succ] != generation {
                            self.stamp[succ] = generation;
                            self.buckets[self.level[succ] as usize].push(succ as u32);
                            pending += 1;
                        }
                    }
                }
            }
            self.buckets[lv].clear();
        }
        PatchReport {
            reevaluated,
            changed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use iddq_netlist::data;

    #[test]
    fn matches_csr_on_baseline() {
        let nl = data::ripple_adder(6);
        let sim = Simulator::new(&nl);
        let mut delta = DeltaSim::<u64>::new(&nl);
        let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        delta.set_inputs(&inputs);
        assert_eq!(delta.values(), &sim.eval(&inputs)[..]);
    }

    #[test]
    fn kind_flip_propagates_and_rolls_back() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let baseline = delta.values().to_vec();
        let g10 = nl.find("10").unwrap();
        // 10: NAND -> AND flips it from 0 to 1 under all-ones inputs,
        // rippling through 16, 22, 23.
        let r = delta
            .apply(&Patch::single(PatchOp::SetKind {
                gate: g10,
                kind: CellKind::And,
            }))
            .unwrap();
        assert!(r.changed >= 1);
        assert_eq!(delta.value(g10) & 1, 1);
        assert_eq!(delta.pending_patches(), 1);
        let r = delta.rollback();
        assert!(r.changed >= 1);
        assert_eq!(delta.values(), &baseline[..]);
        assert_eq!(delta.pending_patches(), 0);
    }

    #[test]
    fn silent_patch_stops_immediately() {
        // Under all-zero inputs a NAND and a NOR of zeros both read 1: the
        // flip re-evaluates only the patched gate and nothing downstream.
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[0u64; 5]);
        let g10 = nl.find("10").unwrap();
        let r = delta
            .apply(&Patch::single(PatchOp::SetKind {
                gate: g10,
                kind: CellKind::Nor,
            }))
            .unwrap();
        assert_eq!(r.reevaluated, 1);
        assert_eq!(r.changed, 0);
        delta.rollback();
    }

    #[test]
    fn rewire_matches_rebuilt_netlist() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let inputs = [0x0123_4567_89ab_cdefu64, !0, 0x55aa, 0, 0xff00_ff00];
        delta.set_inputs(&inputs);
        // Rewire 22 = NAND(10, 16) to NAND(11, 19).
        let g22 = nl.find("22").unwrap();
        let g11 = nl.find("11").unwrap();
        let g19 = nl.find("19").unwrap();
        delta
            .apply(&Patch::single(PatchOp::SetFanin {
                gate: g22,
                fanin: vec![g11, g19],
            }))
            .unwrap();
        // Reference: rebuild the mutated circuit from scratch.
        let mut b = iddq_netlist::NetlistBuilder::new("c17-mut");
        let mut map = std::collections::HashMap::new();
        for &i in nl.inputs() {
            map.insert(i, b.add_input(nl.node_name(i)));
        }
        for &id in nl.topo_order() {
            if let Some(kind) = nl.node(id).kind().cell_kind() {
                let fanin: Vec<NodeId> = if id == g22 {
                    vec![map[&g11], map[&g19]]
                } else {
                    nl.node(id).fanin().iter().map(|f| map[f]).collect()
                };
                map.insert(id, b.add_gate(nl.node_name(id), kind, fanin).unwrap());
            }
        }
        for &o in nl.outputs() {
            b.mark_output(map[&o]);
        }
        let mutated = b.build().unwrap();
        let reference = Simulator::new(&mutated).eval(&inputs);
        for id in nl.node_ids() {
            assert_eq!(
                delta.value(id),
                reference[map[&id].index()],
                "node {}",
                nl.node_name(id)
            );
        }
        delta.rollback();
        assert_eq!(delta.values(), &Simulator::new(&nl).eval(&inputs)[..]);
    }

    #[test]
    fn cycle_is_rejected_atomically() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let before = delta.values().to_vec();
        let g10 = nl.find("10").unwrap();
        let g22 = nl.find("22").unwrap();
        // 10 feeds 16 feeds 22; feeding 22 back into 10 is a cycle.
        let err = delta
            .apply(&Patch::single(PatchOp::SetFanin {
                gate: g10,
                fanin: vec![g22, nl.find("3").unwrap()],
            }))
            .unwrap_err();
        assert!(matches!(err, PatchError::Cycle(_)));
        assert_eq!(delta.values(), &before[..]);
        assert_eq!(delta.fanin(g10), nl.node(g10).fanin().to_vec());
        assert_eq!(delta.pending_patches(), 0);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let g10 = nl.find("10").unwrap();
        let err = delta
            .apply(&Patch::single(PatchOp::SetFanin {
                gate: g10,
                fanin: vec![g10, nl.find("3").unwrap()],
            }))
            .unwrap_err();
        assert!(matches!(err, PatchError::Cycle(_)));
    }

    #[test]
    fn bad_arity_and_non_gate_rejected() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let g10 = nl.find("10").unwrap();
        let pi = nl.inputs()[0];
        assert!(matches!(
            delta
                .apply(&Patch::single(PatchOp::SetKind {
                    gate: g10,
                    kind: CellKind::Not,
                }))
                .unwrap_err(),
            PatchError::BadArity { got: 2, .. }
        ));
        assert!(matches!(
            delta
                .apply(&Patch::single(PatchOp::SetKind {
                    gate: pi,
                    kind: CellKind::Not,
                }))
                .unwrap_err(),
            PatchError::NotAGate(_)
        ));
    }

    #[test]
    fn failed_op_mid_patch_reverts_prefix() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let before = delta.values().to_vec();
        let g10 = nl.find("10").unwrap();
        let patch = Patch {
            ops: vec![
                PatchOp::SetKind {
                    gate: g10,
                    kind: CellKind::And,
                },
                PatchOp::SetKind {
                    gate: nl.inputs()[0],
                    kind: CellKind::Not,
                },
            ],
        };
        assert!(delta.apply(&patch).is_err());
        assert_eq!(delta.kind(g10), Some(CellKind::Nand));
        assert_eq!(delta.values(), &before[..]);
    }

    #[test]
    fn stacked_patches_roll_back_in_order() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let base = delta.values().to_vec();
        let g10 = nl.find("10").unwrap();
        let g11 = nl.find("11").unwrap();
        delta
            .apply(&Patch::single(PatchOp::SetKind {
                gate: g10,
                kind: CellKind::And,
            }))
            .unwrap();
        let after_first = delta.values().to_vec();
        delta
            .apply(&Patch::single(PatchOp::SetKind {
                gate: g11,
                kind: CellKind::Or,
            }))
            .unwrap();
        delta.rollback();
        assert_eq!(delta.values(), &after_first[..]);
        delta.rollback();
        assert_eq!(delta.values(), &base[..]);
    }

    #[test]
    fn inputs_can_change_between_apply_and_rollback() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let g10 = nl.find("10").unwrap();
        delta
            .apply(&Patch::single(PatchOp::SetKind {
                gate: g10,
                kind: CellKind::And,
            }))
            .unwrap();
        // New inputs while mutated, then rollback: state must equal the
        // pristine circuit under the *new* inputs.
        delta.set_inputs(&[0u64; 5]);
        delta.rollback();
        assert_eq!(delta.values(), &Simulator::new(&nl).eval(&[0u64; 5])[..]);
    }

    #[test]
    fn commit_clears_undo() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let g10 = nl.find("10").unwrap();
        delta
            .apply(&Patch::single(PatchOp::SetKind {
                gate: g10,
                kind: CellKind::And,
            }))
            .unwrap();
        delta.commit();
        assert_eq!(delta.pending_patches(), 0);
        assert_eq!(delta.kind(g10), Some(CellKind::And));
    }

    #[test]
    fn stuck_at_force_word_propagates_and_releases() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let baseline = delta.values().to_vec();
        // 10 = NAND(1,3) = 0 under all-ones; pin it to 1 and the flip
        // ripples into 22.
        let g10 = nl.find("10").unwrap();
        let g22 = nl.find("22").unwrap();
        let r = delta.force_word(g10, !0);
        assert!(r.changed >= 1);
        assert_eq!(delta.value(g10), !0);
        assert_ne!(delta.value(g22), baseline[g22.index()]);
        assert_eq!(delta.forced_value(g10), Some(!0u64));
        delta.unforce_word(g10);
        assert_eq!(delta.values(), &baseline[..]);
        assert_eq!(delta.forced_value(g10), None);
    }

    #[test]
    fn force_on_primary_input_and_release() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[0u64; 5]);
        let pi = nl.inputs()[0];
        let baseline = delta.values().to_vec();
        delta.force_word(pi, !0);
        assert_eq!(delta.value(pi), !0);
        // New inputs while forced: the pin survives the full sweep.
        delta.set_inputs(&[0x55u64; 5]);
        assert_eq!(delta.value(pi), !0);
        delta.unforce_word(pi);
        // Released: the PI reads its *current* loaded word, not the one
        // from force time.
        assert_eq!(delta.value(pi), 0x55);
        delta.set_inputs(&[0u64; 5]);
        assert_eq!(delta.values(), &baseline[..]);
    }

    #[test]
    fn silent_force_stops_immediately() {
        // Forcing a node to the value it already has re-evaluates only the
        // node itself.
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let g22 = nl.find("22").unwrap();
        assert_eq!(delta.value(g22), !0);
        let r = delta.force_word(g22, !0);
        assert_eq!(r.reevaluated, 1);
        assert_eq!(r.changed, 0);
        delta.unforce_word(g22);
    }

    #[test]
    fn word_force_matches_forced_reference_eval() {
        // force_word with a lane-dependent word equals a per-lane forced
        // evaluation; unforce restores the baseline exactly.
        let nl = data::ripple_adder(4);
        let mut delta = DeltaSim::<u64>::new(&nl);
        let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        delta.set_inputs(&inputs);
        let baseline = delta.values().to_vec();
        let gate = nl.gate_ids().nth(2).unwrap();
        let pin = 0x0f0f_1234_5678_9abc;
        delta.force_word(gate, pin);
        assert_eq!(delta.value(gate), pin);
        // Reference: naive topo eval skipping the forced node.
        let mut want = vec![0u64; nl.node_count()];
        for (&id, &w) in nl.inputs().iter().zip(&inputs) {
            want[id.index()] = w;
        }
        want[gate.index()] = pin;
        for &id in nl.topo_order() {
            if id == gate {
                continue;
            }
            if let Some(kind) = nl.node(id).kind().cell_kind() {
                let ins: Vec<u64> = nl
                    .node(id)
                    .fanin()
                    .iter()
                    .map(|f| want[f.index()])
                    .collect();
                want[id.index()] = kind.eval_packed(&ins);
            }
        }
        assert_eq!(delta.values(), &want[..]);
        delta.unforce_word(gate);
        assert_eq!(delta.values(), &baseline[..]);
    }

    #[test]
    fn structural_patch_respects_active_force() {
        // A kind flip on a forced gate changes nothing until the force is
        // lifted.
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let g10 = nl.find("10").unwrap();
        delta.force_word(g10, 0);
        let forced_state = delta.values().to_vec();
        let r = delta
            .apply(&Patch::single(PatchOp::SetKind {
                gate: g10,
                kind: CellKind::And,
            }))
            .unwrap();
        assert_eq!(r.changed, 0);
        assert_eq!(delta.values(), &forced_state[..]);
        delta.rollback(); // kind
        delta.unforce_word(g10); // force
        assert_eq!(delta.value(g10) & 1, 0); // NAND(1,1) = 0
    }

    #[test]
    fn add_gate_evaluates_immediately_and_rolls_back() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let inputs = [0x0123_4567_89ab_cdefu64, !0, 0x55aa, 0, 0xff00_ff00];
        delta.set_inputs(&inputs);
        let g10 = nl.find("10").unwrap();
        let g11 = nl.find("11").unwrap();
        let n = nl.node_count() as u32;
        let r = delta
            .apply(&Patch::single(PatchOp::AddGate {
                gate: NodeId(n),
                kind: CellKind::Xor,
                fanin: vec![g10, g11],
            }))
            .unwrap();
        assert_eq!(delta.node_count(), nl.node_count() + 1);
        assert_eq!(r.reevaluated, 1);
        assert_eq!(delta.value(NodeId(n)), delta.value(g10) ^ delta.value(g11));
        assert_eq!(delta.kind(NodeId(n)), Some(CellKind::Xor));
        delta.rollback();
        assert_eq!(delta.node_count(), nl.node_count());
        assert_eq!(delta.values(), &Simulator::new(&nl).eval(&inputs)[..]);
    }

    #[test]
    fn region_rewrite_matches_materialized_oracle() {
        // AddGate + SetFanin in one patch — the decomposition shape — must
        // equal a from-scratch simulation of the materialized circuit, and
        // the generated inverse must restore the pristine values.
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let inputs = [0xdead_beef_0123_4567u64, 0x55aa, !0, 0, 0x0f0f_0f0f];
        delta.set_inputs(&inputs);
        let pristine = delta.values().to_vec();
        let g10 = nl.find("10").unwrap();
        let g11 = nl.find("11").unwrap();
        let g22 = nl.find("22").unwrap();
        let n = nl.node_count() as u32;
        let patch = Patch {
            ops: vec![
                PatchOp::AddGate {
                    gate: NodeId(n),
                    kind: CellKind::And,
                    fanin: vec![g10, g11],
                },
                PatchOp::SetFanin {
                    gate: g22,
                    fanin: vec![NodeId(n), g10],
                },
            ],
        };
        delta.apply(&patch).unwrap();
        let mutated = iddq_netlist::patch::materialize(&nl, &patch).unwrap();
        let oracle = Simulator::new(&mutated).eval(&inputs);
        assert_eq!(delta.values(), &oracle[..]);
        delta.rollback();
        assert_eq!(delta.values(), &pristine[..]);
        assert_eq!(delta.node_count(), nl.node_count());
    }

    #[test]
    fn add_gate_id_must_append() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let g10 = nl.find("10").unwrap();
        let err = delta
            .apply(&Patch::single(PatchOp::AddGate {
                gate: NodeId(nl.node_count() as u32 + 1),
                kind: CellKind::Not,
                fanin: vec![g10],
            }))
            .unwrap_err();
        assert!(matches!(err, PatchError::NotAppend { .. }));
    }

    #[test]
    fn remove_gate_guards() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        // 16 feeds 22 and 23: consumed, and not the tail either.
        let g16 = nl.find("16").unwrap();
        assert!(matches!(
            delta
                .apply(&Patch::single(PatchOp::RemoveGate { gate: g16 }))
                .unwrap_err(),
            PatchError::NotRemovable(_)
        ));
        // The tail node 23 is consumer-free but forced nodes stay pinned.
        let tail = NodeId(nl.node_count() as u32 - 1);
        delta.force_word(tail, !0);
        assert!(matches!(
            delta
                .apply(&Patch::single(PatchOp::RemoveGate { gate: tail }))
                .unwrap_err(),
            PatchError::NotRemovable(_)
        ));
        delta.unforce_word(tail);
        // Unforced, it pops — and the inverse re-adds it.
        delta
            .apply(&Patch::single(PatchOp::RemoveGate { gate: tail }))
            .unwrap();
        assert_eq!(delta.node_count(), nl.node_count() - 1);
        delta.rollback();
        assert_eq!(delta.node_count(), nl.node_count());
        assert_eq!(delta.kind(tail), Some(CellKind::Nand));
    }

    #[test]
    fn insertion_rollback_reclaims_pool_storage() {
        // A long-lived simulator driven through probe loops (apply an
        // insertion, score, roll back, repeat) must not grow its
        // adjacency pools monotonically.
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let g10 = nl.find("10").unwrap();
        let g11 = nl.find("11").unwrap();
        let patch = Patch::single(PatchOp::AddGate {
            gate: NodeId(nl.node_count() as u32),
            kind: CellKind::And,
            fanin: vec![g10, g11],
        });
        delta.apply(&patch).unwrap();
        delta.rollback();
        let fanin_pool = delta.fanin.pool.len();
        let fanout_pool = delta.fanout.pool.len();
        for _ in 0..100 {
            delta.apply(&patch).unwrap();
            delta.rollback();
        }
        assert_eq!(delta.fanin.pool.len(), fanin_pool);
        assert_eq!(delta.fanout.pool.len(), fanout_pool);
    }

    #[test]
    fn failed_op_after_insertion_reverts_the_insertion() {
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[!0u64; 5]);
        let before = delta.values().to_vec();
        let g10 = nl.find("10").unwrap();
        let patch = Patch {
            ops: vec![
                PatchOp::AddGate {
                    gate: NodeId(nl.node_count() as u32),
                    kind: CellKind::Not,
                    fanin: vec![g10],
                },
                // Illegal: NOT cannot take two fan-ins.
                PatchOp::SetKind {
                    gate: g10,
                    kind: CellKind::Not,
                },
            ],
        };
        assert!(delta.apply(&patch).is_err());
        assert_eq!(delta.node_count(), nl.node_count());
        assert_eq!(delta.values(), &before[..]);
        assert_eq!(delta.pending_patches(), 0);
    }

    #[test]
    fn inserted_gate_level_repaired_by_same_patch_rewire() {
        // Chain i -> g0 -> g1; insert NOT(g0), then rewire g0 deeper is
        // impossible here — instead rewire g1 to read the insertion and
        // check the insertion's downstream value stays consistent after
        // input changes (levels must be right for the sweep order).
        let mut b = iddq_netlist::NetlistBuilder::new("lvl");
        let i = b.add_input("i");
        let g0 = b.add_gate("g0", CellKind::Not, vec![i]).unwrap();
        let g1 = b.add_gate("g1", CellKind::Not, vec![g0]).unwrap();
        b.mark_output(g1);
        let nl = b.build().unwrap();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[0x00ff_00ffu64]);
        let n = NodeId(nl.node_count() as u32);
        delta
            .apply(&Patch {
                ops: vec![
                    PatchOp::AddGate {
                        gate: n,
                        kind: CellKind::Not,
                        fanin: vec![g0],
                    },
                    PatchOp::SetFanin {
                        gate: g1,
                        fanin: vec![n],
                    },
                ],
            })
            .unwrap();
        // g1 = NOT(NOT(NOT i)) = NOT i... via n: n = NOT(g0) = i, g1 = NOT(n).
        assert_eq!(delta.value(g1), !delta.value(i));
        delta.set_inputs(&[0x1234_5678u64]);
        assert_eq!(delta.value(g1), !0x1234_5678u64);
        delta.rollback();
        assert_eq!(delta.value(g1), delta.value(i));
    }

    /// q = DFF(n), n = NOT(q), y = XOR(a, q): q toggles every frame.
    fn toggle() -> iddq_netlist::Netlist {
        let mut b = iddq_netlist::NetlistBuilder::new("toggle");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        let n = b.add_gate("n", CellKind::Not, vec![q]).unwrap();
        b.set_dff_input(q, n);
        let y = b.add_gate("y", CellKind::Xor, vec![a, q]).unwrap();
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn baseline_covers_state_fed_logic() {
        // n = NOT(q) is reachable only from the DFF, not from any primary
        // input: the construction-time sweep must still evaluate it.
        let nl = toggle();
        let delta = DeltaSim::<u64>::new(&nl);
        let n = nl.find("n").unwrap();
        assert_eq!(delta.value(n), !0u64);
    }

    #[test]
    fn step_frame_matches_csr_frame_engine() {
        let nl = toggle();
        let csr = Simulator::new(&nl);
        let mut delta = DeltaSim::<u64>::new(&nl);
        let mut csr_state = vec![0u64; csr.num_state_elements()];
        let mut csr_values = vec![0u64; csr.node_count()];
        let mut d_state = vec![0u64; delta.num_state_elements()];
        for t in 0..6u64 {
            let inputs = vec![t.wrapping_mul(0x2545_f491_4f6c_dd1d)];
            csr.step_frame(&inputs, &mut csr_state, &mut csr_values);
            delta.step_frame(&inputs, &mut d_state);
            assert_eq!(delta.values(), &csr_values[..], "frame {t}");
            assert_eq!(d_state, csr_state, "state after frame {t}");
        }
    }

    #[test]
    fn structural_patches_on_state_elements_rejected() {
        let nl = toggle();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let q = nl.find("q").unwrap();
        let n = nl.find("n").unwrap();
        for patch in [
            Patch::single(PatchOp::SetKind {
                gate: q,
                kind: CellKind::Buf,
            }),
            Patch::single(PatchOp::SetFanin {
                gate: q,
                fanin: vec![n],
            }),
            Patch::single(PatchOp::RemoveGate { gate: q }),
            Patch::single(PatchOp::SetKind {
                gate: n,
                kind: CellKind::Dff,
            }),
            Patch::single(PatchOp::AddGate {
                gate: NodeId(nl.node_count() as u32),
                kind: CellKind::Dff,
                fanin: vec![n],
            }),
        ] {
            assert!(
                matches!(
                    delta.apply(&patch).unwrap_err(),
                    PatchError::StateElement(_)
                ),
                "patch {patch:?} should be rejected as a state-element edit"
            );
        }
        assert_eq!(delta.pending_patches(), 0);
    }

    #[test]
    fn force_word_on_dff_injects_and_releases_state() {
        // The multi-frame fault engine's state-divergence mechanism: pin a
        // DFF output to a faulty word, observe the combinational fanout
        // and the captured next-state diverge, lift the pin, recover.
        let nl = toggle();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[0u64]);
        let q = nl.find("q").unwrap();
        let y = nl.find("y").unwrap();
        assert_eq!(delta.value(y), 0);
        delta.force_word(q, 0xffffu64);
        assert_eq!(delta.value(q), 0xffff);
        assert_eq!(delta.value(y), 0xffff); // y = a XOR q = q
        let mut captured = vec![0u64; 1];
        delta.capture_state(&mut captured);
        assert_eq!(captured[0], !0xffffu64); // next q = NOT(q)
        delta.unforce_word(q);
        assert_eq!(delta.value(q), 0);
        assert_eq!(delta.value(y), 0);
    }

    #[test]
    fn force_pin_survives_frame_latch() {
        // A forced DFF keeps its pin across step_frame: the latched word
        // updates underneath but the pin shadows it until lifted.
        let nl = toggle();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let q = nl.find("q").unwrap();
        delta.force_word(q, !0u64);
        let mut state = vec![0u64; 1];
        delta.step_frame(&[0u64], &mut state);
        assert_eq!(delta.value(q), !0u64);
        assert_eq!(state[0], 0); // next q = NOT(forced 1) = 0
        delta.unforce_word(q);
    }

    #[test]
    fn rewire_through_dff_loop_is_not_a_cycle() {
        // n sits on a feedback loop through q; deepening n from NOT(q) to
        // NOT(y) moves its level and triggers re-levelization. The region
        // walk must stop at the DFF rather than report a false cycle.
        let nl = toggle();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[0x5a5au64]);
        let baseline = delta.values().to_vec();
        let n = nl.find("n").unwrap();
        let y = nl.find("y").unwrap();
        delta
            .apply(&Patch::single(PatchOp::SetFanin {
                gate: n,
                fanin: vec![y],
            }))
            .unwrap();
        assert_eq!(delta.value(n), !delta.value(y));
        delta.rollback();
        assert_eq!(delta.values(), &baseline[..]);
    }

    #[test]
    fn step_frames_match_naive_oracle_with_midstream_patch() {
        // Frame stepping composes with the patch machinery: mutate a gate,
        // run frames against a rebuilt-netlist oracle, roll back, and the
        // pristine frame behaviour returns.
        let nl = toggle();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let n = nl.find("n").unwrap();
        // n: NOT -> BUF turns the toggler into a hold register (q stays 0).
        delta
            .apply(&Patch::single(PatchOp::SetKind {
                gate: n,
                kind: CellKind::Buf,
            }))
            .unwrap();
        let mut state = vec![0u64; 1];
        for t in 0..4 {
            delta.step_frame(&[0u64], &mut state);
            assert_eq!(state[0], 0, "held state, frame {t}");
        }
        delta.rollback();
        state[0] = 0;
        delta.set_state(&state);
        let naive = crate::reference::NaiveSimulator::new(&nl);
        let frames: Vec<Vec<u64>> = (0..4u64).map(|t| vec![t * 3]).collect();
        let oracle = naive.step_frames(&frames);
        for (t, inputs) in frames.iter().enumerate() {
            delta.step_frame(inputs, &mut state);
            assert_eq!(delta.values(), &oracle[t][..], "frame {t}");
        }
    }

    #[test]
    fn deepening_rewire_extends_levels() {
        // Chain i -> g0 -> g1 -> g2, plus a parallel g3(i). Rewiring g3 to
        // read g2 deepens it from level 1 to level 4.
        let mut b = iddq_netlist::NetlistBuilder::new("deepen");
        let i = b.add_input("i");
        let g0 = b.add_gate("g0", CellKind::Not, vec![i]).unwrap();
        let g1 = b.add_gate("g1", CellKind::Not, vec![g0]).unwrap();
        let g2 = b.add_gate("g2", CellKind::Not, vec![g1]).unwrap();
        let g3 = b.add_gate("g3", CellKind::Not, vec![i]).unwrap();
        b.mark_output(g2);
        b.mark_output(g3);
        let nl = b.build().unwrap();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[0x5555_5555_5555_5555]);
        delta
            .apply(&Patch::single(PatchOp::SetFanin {
                gate: g3,
                fanin: vec![g2],
            }))
            .unwrap();
        // g3 = NOT(g2), and g2 = NOT(NOT(NOT(i))) = NOT(i), so g3 = i.
        assert_eq!(delta.value(g3), delta.value(i));
        delta.rollback();
        // Pristine again: g3 = NOT(i).
        assert_eq!(delta.value(g3), !delta.value(i));
    }

    /// The probe's answer by its definition: pin, diff the outputs,
    /// restore the node's previous pin (if any).
    fn forced_output_diff(delta: &mut DeltaSim<u64>, nl: &Netlist, node: NodeId, one: bool) -> u64 {
        let good: Vec<u64> = nl.outputs().iter().map(|&o| delta.value(o)).collect();
        let pin = delta.forced_value(node);
        delta.force_word(node, u64::splat(one));
        let diff = nl
            .outputs()
            .iter()
            .zip(&good)
            .fold(0, |acc, (&o, &g)| acc | (g ^ delta.value(o)));
        match pin {
            Some(word) => delta.force_word(node, word),
            None => delta.unforce_word(node),
        };
        diff
    }

    /// Every node at both polarities: the probe equals its definition,
    /// twice in a row (the second pass reads cached stems) and without
    /// moving any value. The reference answers are all taken first, so
    /// the probes run back to back on one cache.
    fn assert_probes_match(delta: &mut DeltaSim<u64>, nl: &Netlist) {
        let faults: Vec<(NodeId, bool)> = nl
            .node_ids()
            .flat_map(|node| [(node, false), (node, true)])
            .collect();
        let want: Vec<u64> = faults
            .iter()
            .map(|&(node, one)| forced_output_diff(delta, nl, node, one))
            .collect();
        let before = delta.values().to_vec();
        for _ in 0..2 {
            for (&(node, one), &want) in faults.iter().zip(&want) {
                let (got, _) = delta.stuck_at_probe(node, one);
                assert_eq!(got, want, "{} node {node} sa{}", nl.name(), u8::from(one));
                assert_eq!(delta.values(), &before[..]);
            }
        }
    }

    #[test]
    fn stuck_at_probe_matches_force_and_leaves_values() {
        for nl in [data::c17(), data::ripple_adder(4), toggle()] {
            let mut delta = DeltaSim::<u64>::new(&nl);
            let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
                .map(|i| (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            delta.set_inputs(&inputs);
            assert_probes_match(&mut delta, &nl);
        }
    }

    #[test]
    fn stuck_at_probe_cache_follows_pins_and_inputs() {
        // c17's stems 3, 11 and 16 are cached by the first pass. Pinning
        // 16 cuts 11's path through 22 (and 16's own observability), and
        // lifting the pin and loading new inputs changes every stem again:
        // no cached word may survive either change.
        let nl = data::c17();
        let mut delta = DeltaSim::<u64>::new(&nl);
        delta.set_inputs(&[0x0123_4567_89ab_cdef, !0, 0x55aa, 0xf0f0, 0xff00_ff00]);
        assert_probes_match(&mut delta, &nl);
        let g16 = nl.find("16").unwrap();
        delta.force_word(g16, 0);
        assert_probes_match(&mut delta, &nl);
        delta.unforce_word(g16);
        delta.set_inputs(&[!0, 0x1234, 0, !0, 0x0f0f]);
        assert_probes_match(&mut delta, &nl);
    }

    #[test]
    fn superimpose_and_lift_match_the_force_sequence() {
        // One logged walk over several pins — a DFF output pinned twice
        // (the later word wins) and a primary input — equals the same
        // pins forced one walk at a time, node for node; a second walk
        // onto the same log (a bridge round) stacks on top; the lift
        // restores every value and leaves no pin behind. Stuck-at probes
        // see the pins while they stand and answer as before once lifted:
        // no stem observability cached on one side is read on the other.
        let profile = iddq_gen::seq::SeqProfile::by_name("s298").unwrap();
        let nl = iddq_gen::seq::generate(profile, 5);
        let mut delta = DeltaSim::<u64>::new(&nl);
        let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| (i + 3).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let mut state = vec![0u64; delta.num_state_elements()];
        for _ in 0..3 {
            delta.step_frame(&inputs, &mut state);
        }
        let (q, q2) = (nl.state_elements()[0], nl.state_elements()[1]);
        let pi = nl.inputs()[0];
        let pins = [
            (q, 0x00ff_00ff_00ff_00ff),
            (pi, !delta.value(pi)),
            (q2, !delta.value(q2)),
            (q, 0x0f0f_f0f0_3c3c_c3c3),
        ];
        let probes = |delta: &mut DeltaSim<u64>| -> Vec<u64> {
            nl.node_ids()
                .map(|node| delta.stuck_at_probe(node, true).0)
                .collect()
        };
        let before_probes = probes(&mut delta);
        let before = delta.values().to_vec();

        let mut reference = delta.clone();
        for &(node, word) in &pins {
            reference.force_word(node, word);
        }
        let mut log = Vec::new();
        assert!(delta.superimpose(&pins, &mut log) > 0);
        assert_eq!(delta.forced_value(q), Some(0x0f0f_f0f0_3c3c_c3c3));
        assert_eq!(delta.values(), reference.values());
        // The second walk re-pins a gate the first one changed, so that
        // gate lands in the log twice.
        let &(gate, _) = log
            .iter()
            .rev()
            .find(|&&(k, _)| delta.kind(NodeId(k)).is_some_and(|kind| !kind.is_state()))
            .expect("the superposition changes some gate");
        let round = [(NodeId(gate), !delta.value(NodeId(gate)))];
        reference.force_word(round[0].0, round[0].1);
        delta.superimpose(&round, &mut log);
        assert_eq!(delta.values(), reference.values());
        // While superimposed, probes see the pins exactly as the forced
        // reference does: nothing cached before may answer for them.
        assert_eq!(probes(&mut delta), probes(&mut reference));

        let lifted: Vec<(NodeId, u64)> = pins.iter().chain(&round).copied().collect();
        delta.lift_logged(&lifted, &mut log);
        assert!(log.is_empty());
        assert_eq!(delta.values(), &before[..]);
        for &(node, _) in &lifted {
            reference.unforce_word(node);
        }
        assert_eq!(delta.values(), reference.values());
        assert!(nl.node_ids().all(|node| delta.forced_value(node).is_none()));
        assert_eq!(probes(&mut delta), before_probes);
        // The good machine steps on from the restored state as if the
        // superposition had never happened.
        let mut stepped = state.clone();
        delta.step_frame(&inputs, &mut stepped);
        reference.step_frame(&inputs, &mut state);
        assert_eq!(stepped, state);
        assert_eq!(delta.values(), reference.values());
    }
}
