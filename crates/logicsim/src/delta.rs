//! Event-driven incremental simulation over a fixed circuit.
//!
//! The batch [`Simulator`](crate::Simulator) re-evaluates the whole
//! circuit per sweep — ideal when every node is needed, wasteful when the
//! question is *"these values, but with one node pinned"*. [`DeltaSim`]
//! answers that question incrementally: it owns a persistent copy of the
//! packed node values over an immutable CSR copy of the circuit
//! structure, and a value change (an input load, a latched state, a pin)
//! re-evaluates only the *dirty cone* — the gates whose packed value
//! actually changes — via a level-bucketed worklist that visits each node
//! at most once, drivers before consumers.
//!
//! The structure is fixed at [`DeltaSim::new`]. Structural edits — the
//! resynthesis rewrites of [`iddq_netlist::patch`] — are scored on
//! `iddq_netlist::cone::DynamicCones`, never simulated here.
//!
//! # Dirty-cone semantics
//!
//! Propagation is event-driven, not structural: a re-evaluated gate whose
//! packed value is bit-identical to before stops the wave, so the visited
//! set is usually much smaller than the structural fanout cone. The
//! [`SweepReport`] returned by each value change counts both the visited
//! and the actually-changed nodes (the fault sweep's dirty-cone work
//! metric).
//!
//! # Value forces
//!
//! A node (gate *or* primary input) can be *forced*: its packed value is
//! pinned to a per-lane word and it is never recomputed from its fan-in
//! until the force is lifted. [`DeltaSim::force_word`] /
//! [`DeltaSim::unforce_word`] set and lift a pin — callers pair them
//! themselves; the single-frame fault-patch engine superimposes bridges
//! (wired-AND words) this way. Within the crate, `superimpose` sets a
//! whole list of pins and propagates them in one level-ordered walk that
//! logs every value it changes (several calls may stack onto one log),
//! and `lift_logged` clears those pins and writes the logged values back,
//! newest first, without re-evaluating anything. The multi-frame fault
//! engine superimposes each faulty machine — its diverged DFF words and
//! the fault site — this way: one walk in, none out.
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
//!    changes values or pins.
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
//! `Simulator::step_frame`. A value force may pin a DFF output, which is
//! exactly how the multi-frame fault engine injects a diverged faulty
//! state into the shared good machine.

use iddq_netlist::{CellKind, Netlist, NodeId, PackedWord};
/// Work accounting of one event-driven sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// Nodes re-evaluated by the worklist (the dirty-cone walk length).
    pub reevaluated: usize,
    /// Nodes whose packed value actually changed.
    pub changed: usize,
}

/// Immutable CSR adjacency: node `i`'s list is
/// `pool[offsets[i]..offsets[i + 1]]`, laid out in node order so cone
/// walks touch the pool near-sequentially.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<u32>,
    pool: Vec<u32>,
}

impl Csr {
    fn from_lists<'a>(lists: impl Iterator<Item = &'a [NodeId]>) -> Self {
        let mut offsets = vec![0];
        let mut pool = Vec::new();
        for list in lists {
            pool.extend(list.iter().map(|f| f.0));
            offsets.push(pool.len() as u32);
        }
        Csr { offsets, pool }
    }

    /// Heap bytes of the two `u32` arrays.
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * (self.offsets.capacity() + self.pool.capacity())
    }

    #[inline]
    fn get(&self, i: usize) -> &[u32] {
        &self.pool[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Event-driven incremental simulator with persistent per-node packed
/// state over a fixed circuit.
///
/// # Example
///
/// ```rust
/// use iddq_logicsim::delta::DeltaSim;
/// use iddq_netlist::data;
///
/// let c17 = data::c17();
/// let mut sim = DeltaSim::<u64>::new(&c17);
/// sim.set_inputs(&[!0u64; 5]);
/// let g10 = c17.find("10").unwrap();
/// let g22 = c17.find("22").unwrap();
/// assert_eq!(sim.value(g10) & 1, 0); // 10 = NAND(1, 3) = 0
/// assert_eq!(sim.value(g22) & 1, 1); // 22 = NAND(10, 16) = 1
///
/// // Pin 10 to 1: only its fanout cone re-evaluates, and output 22 flips.
/// sim.force_word(g10, !0);
/// assert_eq!(sim.value(g22) & 1, 0);
/// sim.unforce_word(g10);
/// assert_eq!(sim.value(g22) & 1, 1);
///
/// // The same fault as a probe: 10 stuck-at-1 flips an output in every
/// // lane, and the persistent values stay as they were.
/// let (detected, _) = sim.stuck_at_probe(g10, true);
/// assert_eq!(detected, !0);
/// assert_eq!(sim.value(g22) & 1, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaSim<W: PackedWord> {
    /// `None` for primary inputs.
    kinds: Vec<Option<CellKind>>,
    fanin: Csr,
    fanout: Csr,
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
    /// Per node: is it a primary output.
    output: Vec<bool>,
    // Worklist scratch (node-count sized, epoch stamped so walks are
    // allocation-free).
    stamp: Vec<u64>,
    generation: u64,
    buckets: Vec<Vec<u32>>,
    gather: Vec<W>,
    /// Bumped by every [`DeltaSim::sweep`] (input load, frame step, pin
    /// change), so a cached stem observability is valid while its
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
        let fanin = Csr::from_lists(netlist.node_ids().map(|id| netlist.node(id).fanin()));
        let fanout = Csr::from_lists(netlist.node_ids().map(|id| netlist.fanout(id)));
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
            stamp: vec![0; n],
            generation: 0,
            buckets: vec![Vec::new(); max_level + 1],
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
    /// bytes: the CSR adjacency (u32 throughout), the packed value / force
    /// lanes (`LANES / 8` bytes per node per lane set), and the
    /// node-count-sized scratch arrays.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let u32s = self.level.capacity()
            + self.input_indices.capacity()
            + self.input_pos.capacity()
            + self.state_pos.capacity()
            + self.state_nodes.capacity()
            + self.state_d.capacity();
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
    /// and pins.
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

    /// Logic function of a node (`None` for primary inputs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn kind(&self, id: NodeId) -> Option<CellKind> {
        self.kinds[id.index()]
    }

    /// Ordered fan-in of a node as raw node indices.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub(crate) fn fanin_indices(&self, id: NodeId) -> &[u32] {
        self.fanin.get(id.index())
    }

    /// Loads a packed input batch and fully re-evaluates the circuit.
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
    pub fn set_state(&mut self, state: &[W]) -> SweepReport {
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
    pub fn step_frame(&mut self, inputs: &[W], state: &mut [W]) -> SweepReport {
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
    /// cone. Callers pair this with [`DeltaSim::unforce_word`]
    /// themselves.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn force_word(&mut self, node: NodeId, value: W) -> SweepReport {
        self.forced[node.index()] = Some(value);
        self.sweep(&[node.0], false)
    }

    /// Lifts a [`DeltaSim::force_word`] pin: the node is recomputed from
    /// its fan-in (or its loaded input word) and the change propagates.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn unforce_word(&mut self, node: NodeId) -> SweepReport {
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
            // A forced node holds its pin regardless of its fan-in.
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
    fn sweep(&mut self, seeds: &[u32], force: bool) -> SweepReport {
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
    ) -> SweepReport {
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
        SweepReport {
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
    fn step_frames_match_naive_oracle_after_state_reset() {
        // Frames stepped after `set_state` reloads the reset state match
        // the naive per-frame oracle from reset: nothing of the earlier
        // frames survives the reload.
        let nl = toggle();
        let mut delta = DeltaSim::<u64>::new(&nl);
        let mut state = vec![0u64; 1];
        for t in 0..3u64 {
            delta.step_frame(&[t * 5 + 1], &mut state);
        }
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
