use iddq_netlist::{CellKind, Netlist, PackedWord};

/// Levelized wide-word pattern-parallel logic simulator.
///
/// The netlist is compiled once into a flat CSR *program*: all fan-in
/// indices live in one shared `u32` pool addressed by per-gate offsets, so
/// an evaluation sweep is a linear walk over three dense arrays with no
/// per-gate allocation or pointer chasing. Gates are grouped (within their
/// topological level, which preserves dependencies) into runs of identical
/// `(kind, fan-in)` so the inner loop dispatches once per run, with
/// specialized loops for the 1- and 2-input forms that dominate ISCAS
/// circuits.
///
/// Each node value is a [`PackedWord`] whose bit *k* carries pattern *k*:
/// one sweep evaluates 64 input vectors for `u64` or 256 for
/// [`W256`](iddq_netlist::W256). The simulator borrows nothing from the
/// netlist after construction and [`Simulator::eval_into`] performs no
/// allocation, so batched sweeps can reuse one values buffer.
///
/// # Frames and state elements
///
/// Sequential circuits are evaluated frame by frame: a DFF output is a
/// level-0 *frame-boundary pseudo-input* holding the latched present
/// state, so DFFs are excluded from the run schedule — a sweep only
/// evaluates combinational gates. [`Simulator::step_frame`] scatters a
/// packed state vector (one word per DFF, bit *k* = pattern *k*'s state),
/// sweeps the frame, then captures each DFF's D-driver value as the next
/// state. [`Simulator::eval_into`] remains the frames = 1 path: it
/// evaluates one frame from the all-zero state (on a DFF-free netlist it
/// is the exact pre-refactor combinational kernel, bit for bit).
///
/// # Example
///
/// ```rust
/// use iddq_logicsim::Simulator;
/// use iddq_netlist::data;
///
/// let adder = data::ripple_adder(2);
/// let sim = Simulator::new(&adder);
/// // a = 01, b = 01, cin = 0 → sum = 10, cout = 0 (1 + 1 = 2).
/// let v = sim.eval_bool(&[true, false, true, false, false]);
/// let sum0 = adder.find("sum0").unwrap();
/// let sum1 = adder.find("sum1").unwrap();
/// assert!(!v[sum0.index()]);
/// assert!(v[sum1.index()]);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Evaluated node per step, in dependency-safe order.
    targets: Vec<u32>,
    /// Per-step fan-in slice bounds: step `s` reads
    /// `pool[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    /// Shared fan-in index pool.
    pool: Vec<u32>,
    /// Maximal same-shape step runs, in step order. Runs may span level
    /// boundaries (merging maximizes run length): the sweep walks steps in
    /// order, so every driver is final before any consumer reads it.
    runs: Vec<Run>,
    node_count: usize,
    input_indices: Vec<u32>,
    /// Node index of every DFF output, in `Netlist::state_elements` order;
    /// `step_frame` scatters the packed state vector here.
    dff_targets: Vec<u32>,
    /// Node index of every DFF's D driver, aligned with `dff_targets`;
    /// `step_frame` captures the next state from here.
    dff_d: Vec<u32>,
}

/// A maximal run of consecutive steps sharing `(kind, arity)`.
#[derive(Debug, Clone, Copy)]
struct Run {
    kind: CellKind,
    /// Fan-in count of every step in the run.
    arity: u32,
    /// Step range `start..end`.
    start: u32,
    end: u32,
}

impl Simulator {
    /// Compiles the netlist into the CSR evaluation program.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        // Topological level per node: gates of one level are mutually
        // independent, so steps may be freely reordered inside a level.
        // Sorting by (level, kind, arity) maximizes run length while
        // keeping every driver evaluated before its consumers.
        let mut level = vec![0u32; netlist.node_count()];
        let mut order: Vec<(u32, CellKind, u32, u32)> = Vec::with_capacity(netlist.gate_count());
        for &id in netlist.topo_order() {
            let node = netlist.node(id);
            if let Some(kind) = node.kind().cell_kind() {
                // DFF outputs are frame-boundary sources: level 0, no
                // evaluation step (their value is scattered state).
                if kind.is_state() {
                    continue;
                }
                let lv = 1 + node
                    .fanin()
                    .iter()
                    .map(|f| level[f.index()])
                    .max()
                    .unwrap_or(0);
                level[id.index()] = lv;
                order.push((lv, kind, node.fanin().len() as u32, id.index() as u32));
            }
        }
        order.sort_unstable();

        let mut targets = Vec::with_capacity(order.len());
        let mut offsets = Vec::with_capacity(order.len() + 1);
        let mut pool = Vec::new();
        let mut runs: Vec<Run> = Vec::new();
        offsets.push(0u32);
        for &(_, kind, arity, target) in &order {
            let step = targets.len() as u32;
            targets.push(target);
            pool.extend(
                netlist
                    .node(iddq_netlist::NodeId(target))
                    .fanin()
                    .iter()
                    .map(|f| f.index() as u32),
            );
            offsets.push(pool.len() as u32);
            match runs.last_mut() {
                Some(run) if run.kind == kind && run.arity == arity => run.end = step + 1,
                _ => runs.push(Run {
                    kind,
                    arity,
                    start: step,
                    end: step + 1,
                }),
            }
        }

        pool.shrink_to_fit();
        runs.shrink_to_fit();

        Simulator {
            targets,
            offsets,
            pool,
            runs,
            node_count: netlist.node_count(),
            input_indices: netlist.inputs().iter().map(|i| i.index() as u32).collect(),
            dff_targets: netlist
                .state_elements()
                .iter()
                .map(|d| d.index() as u32)
                .collect(),
            dff_d: netlist
                .state_elements()
                .iter()
                .map(|d| netlist.node(*d).fanin()[0].index() as u32)
                .collect(),
        }
    }

    /// Approximate heap footprint of the compiled program, in bytes.
    ///
    /// Every index is `u32` and every array is exact-sized at build time,
    /// so the program costs `4·(steps + pool entries)` plus a small run
    /// table — about 4–5 bytes per fan-in edge plus 8 per gate,
    /// independent of the lane width (the packed *values* buffer is the
    /// caller's and costs `node_count · LANES / 8` bytes per batch).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<u32>()
            * (self.targets.capacity()
                + self.offsets.capacity()
                + self.pool.capacity()
                + self.input_indices.capacity()
                + self.dff_targets.capacity()
                + self.dff_d.capacity())
            + std::mem::size_of::<Run>() * self.runs.capacity()
    }

    /// Number of DFF state elements: the length required of the packed
    /// state vector of [`Simulator::step_frame`] (zero for combinational
    /// netlists).
    #[must_use]
    pub fn num_state_elements(&self) -> usize {
        self.dff_targets.len()
    }

    /// Number of primary inputs expected by [`Simulator::eval`].
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.input_indices.len()
    }

    /// Length required of the output buffer of [`Simulator::eval_into`]:
    /// one packed word per netlist node.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Evaluates one packed batch into a caller-provided buffer without
    /// allocating: `values` receives one packed word per node.
    ///
    /// `inputs[k]` carries the packed values of the *k*-th primary input
    /// (netlist input order).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs
    /// or `values.len()` differs from [`Simulator::node_count`].
    pub fn eval_into<W: PackedWord>(&self, inputs: &[W], values: &mut [W]) {
        self.scatter(inputs, None, values);
        for run in &self.runs {
            self.eval_run(run, values);
        }
    }

    /// Evaluates one frame of a sequential circuit and advances the packed
    /// state in place: scatter `inputs` and the present `state` (one word
    /// per DFF, [`Netlist::state_elements`](iddq_netlist::Netlist::state_elements)
    /// order), sweep the combinational logic into `values`, then capture
    /// every DFF's D-driver value back into `state` as the next state.
    ///
    /// After the call, `values` holds the full frame evaluation (DFF
    /// outputs carry the *present* state that was latched during the
    /// frame) and `state` holds the state the next frame will latch. A
    /// multi-frame sequence is a loop of `step_frame` calls over a state
    /// vector initialized to all zeros (the reset convention); with
    /// `state` all-zero and discarded, one call is bit-identical to
    /// [`Simulator::eval_into`].
    ///
    /// # Panics
    ///
    /// Panics on the [`Simulator::eval_into`] length conditions, or if
    /// `state.len()` differs from [`Simulator::num_state_elements`].
    pub fn step_frame<W: PackedWord>(&self, inputs: &[W], state: &mut [W], values: &mut [W]) {
        self.scatter(inputs, Some(state), values);
        for run in &self.runs {
            self.eval_run(run, values);
        }
        self.capture_state(state, values);
    }

    /// Scatters packed inputs (and, when given, packed DFF state) over a
    /// zeroed values buffer. With `state: None`, DFF outputs stay at the
    /// all-zero reset state.
    fn scatter<W: PackedWord>(&self, inputs: &[W], state: Option<&[W]>, values: &mut [W]) {
        assert_eq!(
            inputs.len(),
            self.input_indices.len(),
            "one packed word per primary input required"
        );
        assert_eq!(
            values.len(),
            self.node_count,
            "one packed word per node required"
        );
        values.fill(W::zeros());
        for (&idx, &word) in self.input_indices.iter().zip(inputs) {
            values[idx as usize] = word;
        }
        if let Some(state) = state {
            assert_eq!(
                state.len(),
                self.dff_targets.len(),
                "one packed word per state element required"
            );
            for (&idx, &word) in self.dff_targets.iter().zip(state) {
                values[idx as usize] = word;
            }
        }
    }

    /// Latches every DFF's next state (its D-driver value) into `state`.
    fn capture_state<W: PackedWord>(&self, state: &mut [W], values: &[W]) {
        for (slot, &d) in state.iter_mut().zip(&self.dff_d) {
            *slot = values[d as usize];
        }
    }

    /// One dispatch per run: the specialized loops keep the per-gate work
    /// at two indexed loads, one logic op and one store for the dominant
    /// 2-input NAND/NOR/AND/OR forms.
    fn eval_run<W: PackedWord>(&self, run: &Run, values: &mut [W]) {
        let steps = run.start as usize..run.end as usize;
        match (run.kind, run.arity) {
            (CellKind::Buf, 1) => self.run1(steps, values, |a| a),
            (CellKind::Not, 1) => self.run1(steps, values, |a: W| !a),
            (CellKind::Nand, 2) => self.run2(steps, values, |a, b| !(a & b)),
            (CellKind::Nor, 2) => self.run2(steps, values, |a, b| !(a | b)),
            (CellKind::And, 2) => self.run2(steps, values, |a, b| a & b),
            (CellKind::Or, 2) => self.run2(steps, values, |a, b| a | b),
            (CellKind::Xor, 2) => self.run2(steps, values, |a, b| a ^ b),
            (CellKind::Xnor, 2) => self.run2(steps, values, |a, b| !(a ^ b)),
            (CellKind::And, _) => self.run_fold(steps, values, W::ones(), |a, b| a & b, false),
            (CellKind::Nand, _) => self.run_fold(steps, values, W::ones(), |a, b| a & b, true),
            (CellKind::Or, _) => self.run_fold(steps, values, W::zeros(), |a, b| a | b, false),
            (CellKind::Nor, _) => self.run_fold(steps, values, W::zeros(), |a, b| a | b, true),
            (CellKind::Xor, _) => self.run_fold(steps, values, W::zeros(), |a, b| a ^ b, false),
            (CellKind::Xnor, _) => self.run_fold(steps, values, W::zeros(), |a, b| a ^ b, true),
            (CellKind::Buf | CellKind::Not, _) => {
                unreachable!("netlist invariants force arity 1 for Buf/Not")
            }
            (CellKind::Dff, _) => {
                unreachable!("state elements are never scheduled as evaluation steps")
            }
        }
    }

    #[inline]
    fn run1<W: PackedWord>(
        &self,
        steps: std::ops::Range<usize>,
        values: &mut [W],
        op: impl Fn(W) -> W,
    ) {
        for s in steps {
            let a = values[self.pool[self.offsets[s] as usize] as usize];
            values[self.targets[s] as usize] = op(a);
        }
    }

    #[inline]
    fn run2<W: PackedWord>(
        &self,
        steps: std::ops::Range<usize>,
        values: &mut [W],
        op: impl Fn(W, W) -> W,
    ) {
        for s in steps {
            let base = self.offsets[s] as usize;
            let a = values[self.pool[base] as usize];
            let b = values[self.pool[base + 1] as usize];
            values[self.targets[s] as usize] = op(a, b);
        }
    }

    #[inline]
    fn run_fold<W: PackedWord>(
        &self,
        steps: std::ops::Range<usize>,
        values: &mut [W],
        unit: W,
        op: impl Fn(W, W) -> W,
        invert: bool,
    ) {
        for s in steps {
            let fanin = &self.pool[self.offsets[s] as usize..self.offsets[s + 1] as usize];
            let mut acc = unit;
            for &f in fanin {
                acc = op(acc, values[f as usize]);
            }
            values[self.targets[s] as usize] = if invert { !acc } else { acc };
        }
    }

    /// Evaluates one packed batch (64 patterns for `u64`, 256 for
    /// [`W256`](iddq_netlist::W256)), allocating the result vector.
    ///
    /// `inputs[k]` carries the packed values of the *k*-th primary input
    /// (in the netlist's input order). Returns one packed word per node.
    /// Hot paths should prefer [`Simulator::eval_into`] with a reused
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    #[must_use]
    pub fn eval<W: PackedWord>(&self, inputs: &[W]) -> Vec<W> {
        let mut values = vec![W::zeros(); self.node_count];
        self.eval_into(inputs, &mut values);
        values
    }

    /// Evaluates a single boolean vector (convenience wrapper over
    /// [`Simulator::eval`] using bit 0 of a `u64` batch).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    #[must_use]
    pub fn eval_bool(&self, inputs: &[bool]) -> Vec<bool> {
        let mut packed = vec![0u64; inputs.len()];
        let mut values = vec![0u64; self.node_count];
        self.eval_bool_into(inputs, &mut packed, &mut values)
            .iter()
            .map(|&w| w & 1 != 0)
            .collect()
    }

    /// Allocation-free core of [`Simulator::eval_bool`]: packs `inputs`
    /// into bit 0 of `packed` and evaluates into `values`, returning
    /// `values` for chaining. Both buffers are caller-owned and reusable
    /// across calls.
    ///
    /// # Panics
    ///
    /// Panics if `packed.len() != inputs.len()`, or on the
    /// [`Simulator::eval_into`] arity conditions.
    pub fn eval_bool_into<'v>(
        &self,
        inputs: &[bool],
        packed: &mut [u64],
        values: &'v mut [u64],
    ) -> &'v [u64] {
        assert_eq!(packed.len(), inputs.len(), "one packed word per input bit");
        for (w, &b) in packed.iter_mut().zip(inputs) {
            *w = u64::from(b);
        }
        self.eval_into(packed, values);
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveSimulator;
    use iddq_netlist::{data, W256};

    #[test]
    fn c17_truth_spot_checks() {
        // c17: 22 = NAND(10,16), 23 = NAND(16,19)
        // 10 = NAND(1,3), 11 = NAND(3,6), 16 = NAND(2,11), 19 = NAND(11,7)
        let nl = data::c17();
        let sim = Simulator::new(&nl);
        // inputs (1,2,3,6,7) = all zeros: 10=1, 11=1, 16=1, 19=1, 22=0, 23=0
        let v = sim.eval_bool(&[false; 5]);
        assert!(!v[nl.find("22").unwrap().index()]);
        assert!(!v[nl.find("23").unwrap().index()]);
        // all ones: 10=0, 11=0, 16=1, 19=1, 22=1, 23=0
        let v = sim.eval_bool(&[true; 5]);
        assert!(v[nl.find("22").unwrap().index()]);
        assert!(!v[nl.find("23").unwrap().index()]);
    }

    #[test]
    fn ripple_adder_exhaustive_4bit() {
        let n = 4;
        let nl = data::ripple_adder(n);
        let sim = Simulator::new(&nl);
        for a in 0u32..16 {
            for b in 0u32..16 {
                for cin in 0u32..2 {
                    let mut ins = Vec::new();
                    for i in 0..n {
                        ins.push(a >> i & 1 == 1);
                    }
                    for i in 0..n {
                        ins.push(b >> i & 1 == 1);
                    }
                    ins.push(cin == 1);
                    let v = sim.eval_bool(&ins);
                    let mut got = 0u32;
                    for i in 0..n {
                        let s = nl.find(&format!("sum{i}")).unwrap();
                        got |= u32::from(v[s.index()]) << i;
                    }
                    let cout = nl.find(&format!("cout{}", n - 1)).unwrap();
                    got |= u32::from(v[cout.index()]) << n;
                    assert_eq!(got, a + b + cin, "a={a} b={b} cin={cin}");
                }
            }
        }
    }

    #[test]
    fn packed_parallelism_matches_serial() {
        let nl = data::c17();
        let sim = Simulator::new(&nl);
        // Pack all 32 input combinations into one word.
        let mut packed = vec![0u64; 5];
        for pat in 0u64..32 {
            for (i, word) in packed.iter_mut().enumerate() {
                if pat >> i & 1 == 1 {
                    *word |= 1 << pat;
                }
            }
        }
        let pv = sim.eval(&packed);
        for pat in 0u64..32 {
            let ins: Vec<bool> = (0..5).map(|i| pat >> i & 1 == 1).collect();
            let sv = sim.eval_bool(&ins);
            for id in nl.node_ids() {
                assert_eq!(
                    pv[id.index()] >> pat & 1 == 1,
                    sv[id.index()],
                    "pattern {pat}, node {}",
                    nl.node_name(id)
                );
            }
        }
    }

    #[test]
    fn wide_word_matches_u64_lanes() {
        // The same 64 patterns replicated into each W256 limb must produce
        // the 64-bit result in each limb.
        let nl = data::ripple_adder(6);
        let sim = Simulator::new(&nl);
        let narrow: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let wide: Vec<W256> = narrow.iter().map(|&w| W256([w, !w, w ^ 0xff, 0])).collect();
        let nv = sim.eval(&narrow);
        let wv = sim.eval(&wide);
        for id in nl.node_ids() {
            assert_eq!(wv[id.index()].0[0], nv[id.index()], "limb 0, node {id}");
        }
        // Limb 3 carries the all-zero-input patterns: must equal eval of 0s.
        let zeros = sim.eval(&vec![0u64; nl.num_inputs()]);
        for id in nl.node_ids() {
            assert_eq!(wv[id.index()].0[3], zeros[id.index()], "limb 3, node {id}");
        }
    }

    #[test]
    fn csr_matches_naive_reference() {
        let nl = data::ripple_adder(8);
        let sim = Simulator::new(&nl);
        let naive = NaiveSimulator::new(&nl);
        let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| 0xdead_beef_u64.rotate_left(i as u32).wrapping_mul(i | 1))
            .collect();
        assert_eq!(sim.eval(&inputs), naive.eval(&inputs));
    }

    #[test]
    fn eval_into_reuses_buffer() {
        let nl = data::c17();
        let sim = Simulator::new(&nl);
        let mut buf = vec![0u64; sim.node_count()];
        sim.eval_into(&[!0u64; 5], &mut buf);
        let first = buf.clone();
        // A second, different evaluation must fully overwrite the buffer …
        sim.eval_into(&[0u64; 5], &mut buf);
        assert_ne!(first, buf);
        // … and evaluating the first inputs again restores the result.
        sim.eval_into(&[!0u64; 5], &mut buf);
        assert_eq!(first, buf);
    }

    #[test]
    #[should_panic(expected = "one packed word per primary input")]
    fn wrong_input_arity_panics() {
        let nl = data::c17();
        let sim = Simulator::new(&nl);
        let _ = sim.eval(&[0u64, 0]);
    }

    #[test]
    fn simulator_is_reusable() {
        let nl = data::c17();
        let sim = Simulator::new(&nl);
        let a = sim.eval_bool(&[true; 5]);
        let b = sim.eval_bool(&[true; 5]);
        assert_eq!(a, b);
    }

    fn toggle() -> iddq_netlist::Netlist {
        // q = DFF(n), n = NOT(q), y = XOR(a, q): q toggles every frame.
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
    fn schedule_is_dependency_ordered() {
        // The invariant serial `eval_into` relies on: every fan-in of step
        // `s` is a primary input, a DFF output, or the target of a step
        // before `s`, and every gate is scheduled exactly once.
        for nl in [data::c17(), data::ripple_adder(8), toggle()] {
            let sim = Simulator::new(&nl);
            let mut ready = vec![false; sim.node_count];
            for &i in sim.input_indices.iter().chain(&sim.dff_targets) {
                ready[i as usize] = true;
            }
            for (s, &t) in sim.targets.iter().enumerate() {
                let fanin = &sim.pool[sim.offsets[s] as usize..sim.offsets[s + 1] as usize];
                for &f in fanin {
                    assert!(
                        ready[f as usize],
                        "{}: step {s} reads node {f} early",
                        nl.name()
                    );
                }
                assert!(
                    !ready[t as usize],
                    "{}: node {t} scheduled twice",
                    nl.name()
                );
                ready[t as usize] = true;
            }
            let combinational = nl.node_ids().filter(|&id| {
                nl.node(id)
                    .kind()
                    .cell_kind()
                    .is_some_and(|k| !k.is_state())
            });
            assert_eq!(sim.targets.len(), combinational.count(), "{}", nl.name());
            assert!(ready.iter().all(|&r| r), "{}: unscheduled node", nl.name());
        }
    }

    #[test]
    fn step_frame_latches_toggle_state() {
        let nl = toggle();
        let sim = Simulator::new(&nl);
        assert_eq!(sim.num_state_elements(), 1);
        let y = nl.find("y").unwrap().index();
        let mut state = vec![0u64; 1];
        let mut values = vec![0u64; sim.node_count()];
        let mut outs = Vec::new();
        for _ in 0..4 {
            sim.step_frame(&[0u64], &mut state, &mut values);
            outs.push(values[y] & 1);
        }
        // y = a XOR q with a = 0 and q toggling 0,1,0,1…
        assert_eq!(outs, vec![0, 1, 0, 1]);
    }

    #[test]
    fn step_frame_matches_unrolled_oracle() {
        // Frame stepping must agree bit-for-bit with evaluating the
        // time-frame-expanded combinational circuit.
        let nl = toggle();
        let sim = Simulator::new(&nl);
        let frames = 5;
        let u = iddq_netlist::unroll::unroll(&nl, frames).unwrap();
        let usim = Simulator::new(u.netlist());

        let a = nl.find("a").unwrap();
        let a_words: Vec<u64> = (0..frames as u64)
            .map(|t| 0x9e37_79b9_7f4a_7c15u64.rotate_left(t as u32 * 7))
            .collect();

        // Unrolled: one input per (original input × frame) + state inputs.
        let mut uin = vec![0u64; usim.num_inputs()];
        let pos: std::collections::HashMap<_, _> = u
            .netlist()
            .inputs()
            .iter()
            .enumerate()
            .map(|(k, &i)| (i, k))
            .collect();
        for (t, &w) in a_words.iter().enumerate() {
            uin[pos[&u.image(t, a)]] = w;
        }
        // state pseudo-inputs stay 0 (the reset convention).
        let uv = usim.eval(&uin);

        let mut state = vec![0u64; sim.num_state_elements()];
        let mut values = vec![0u64; sim.node_count()];
        for (t, &w) in a_words.iter().enumerate() {
            sim.step_frame(&[w], &mut state, &mut values);
            for id in nl.node_ids() {
                assert_eq!(
                    values[id.index()],
                    uv[u.image(t, id).index()],
                    "frame {t}, node {}",
                    nl.node_name(id)
                );
            }
        }
    }

    #[test]
    fn step_frame_from_zero_state_is_eval_into() {
        // frames = 1 special case: identical to the combinational path.
        for nl in [data::c17(), data::ripple_adder(6), toggle()] {
            let sim = Simulator::new(&nl);
            let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
                .map(|i| 0xdead_beef_cafe_f00du64.rotate_left(i as u32 * 5))
                .collect();
            let mut values_a = vec![0u64; sim.node_count()];
            let mut values_b = vec![0u64; sim.node_count()];
            let mut state = vec![0u64; sim.num_state_elements()];
            sim.eval_into(&inputs, &mut values_a);
            sim.step_frame(&inputs, &mut state, &mut values_b);
            assert_eq!(values_a, values_b, "{}", nl.name());
        }
    }

    #[test]
    fn memory_bytes_is_plausible() {
        let nl = data::ripple_adder(8);
        let sim = Simulator::new(&nl);
        let bytes = sim.memory_bytes();
        // At least 4 bytes per step + per pool entry, and far less than a
        // naive per-gate Vec-of-Vec layout would need.
        assert!(bytes >= 4 * (sim.targets.len() + sim.pool.len()));
        assert!(bytes < 64 * nl.node_count());
    }
}
