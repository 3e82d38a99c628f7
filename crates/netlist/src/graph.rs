use std::collections::HashMap;
use std::fmt;

use iddq_control::Fnv1a;

use crate::kind::CellKind;

/// Index of a node (primary input or gate) inside a [`Netlist`].
///
/// `NodeId`s are dense: a netlist with *n* nodes uses ids `0..n`. They are
/// only meaningful for the netlist that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node *is*: a primary input or a gate computing a [`CellKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum NodeKind {
    /// Primary input; carries no logic function and has no fan-in.
    Input,
    /// Combinational gate with the given logic function.
    Gate(CellKind),
}

impl NodeKind {
    /// The cell kind if this node is a gate, `None` for primary inputs.
    #[must_use]
    pub fn cell_kind(self) -> Option<CellKind> {
        match self {
            NodeKind::Input => None,
            NodeKind::Gate(k) => Some(k),
        }
    }

    /// Returns `true` for gate nodes.
    #[must_use]
    pub fn is_gate(self) -> bool {
        matches!(self, NodeKind::Gate(_))
    }
}

/// A single node of the netlist: its kind plus the ordered fan-in list.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Node {
    kind: NodeKind,
    fanin: Vec<NodeId>,
}

impl Node {
    /// The node's kind.
    #[must_use]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The ordered fan-in (driver) list; empty for primary inputs.
    #[must_use]
    pub fn fanin(&self) -> &[NodeId] {
        &self.fanin
    }
}

/// Errors raised while building or parsing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal name was defined twice.
    DuplicateName(String),
    /// A gate references a signal that was never defined.
    UndefinedSignal(String),
    /// A gate was declared with an illegal number of inputs.
    BadFanin {
        /// Name of the offending gate.
        gate: String,
        /// The gate's logic function.
        kind: CellKind,
        /// The number of fan-ins it was declared with.
        got: usize,
    },
    /// The connection graph contains a combinational cycle.
    ///
    /// Cycles *through state elements* (a DFF on the loop) are legal —
    /// the DFF breaks the loop at the frame boundary; only loops made
    /// entirely of combinational gates are rejected.
    Cycle {
        /// Name of one node on the cycle.
        on: String,
    },
    /// A DFF latches itself directly: its D input is its own output with
    /// zero combinational gates on the path. Such a bit can never change
    /// after initialization, which in every practical case is a netlist
    /// typo; the parser reports it with the offending line.
    DffSelfLoop {
        /// 1-based line number of the `DFF(...)` declaration.
        line: usize,
        /// Name of the self-latching DFF.
        dff: String,
    },
    /// An output was declared for an unknown signal.
    UnknownOutput(String),
    /// The netlist has no primary output.
    NoOutputs,
    /// A `.bench` line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "signal `{n}` defined twice"),
            NetlistError::UndefinedSignal(n) => {
                write!(f, "signal `{n}` is referenced but never defined")
            }
            NetlistError::BadFanin { gate, kind, got } => {
                write!(
                    f,
                    "gate `{gate}` of kind {kind} declared with illegal fan-in {got}"
                )
            }
            NetlistError::Cycle { on } => write!(f, "combinational cycle through `{on}`"),
            NetlistError::DffSelfLoop { line, dff } => write!(
                f,
                "line {line}: DFF `{dff}` latches its own output directly \
                 (no combinational path on the loop)"
            ),
            NetlistError::UnknownOutput(n) => write!(f, "OUTPUT declared for unknown signal `{n}`"),
            NetlistError::NoOutputs => write!(f, "netlist has no primary outputs"),
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// An immutable, validated netlist — combinational gates plus optional
/// [`CellKind::Dff`] state elements.
///
/// Invariants guaranteed by construction:
///
/// * every fan-in reference resolves to an existing node,
/// * every gate's fan-in count is legal for its [`CellKind`],
/// * the *combinational* graph is acyclic; [`Netlist::topo_order`] lists
///   nodes so that every combinational gate appears after all of its
///   drivers. DFF fan-in edges are **sequential edges**: they are frame
///   boundaries, excluded from ordering and cycle detection, so a DFF
///   (like a primary input) appears in the order before its D driver and
///   feedback loops through DFFs are legal,
/// * fanout lists are consistent with fan-in lists,
/// * there is at least one primary output.
///
/// # Example
///
/// ```rust
/// use iddq_netlist::{CellKind, NetlistBuilder};
///
/// # fn main() -> Result<(), iddq_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("half-adder");
/// let a = b.add_input("a");
/// let c = b.add_input("b");
/// let sum = b.add_gate("sum", CellKind::Xor, vec![a, c])?;
/// let carry = b.add_gate("carry", CellKind::And, vec![a, c])?;
/// b.mark_output(sum);
/// b.mark_output(carry);
/// let nl = b.build()?;
/// assert_eq!(nl.gate_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    names: Vec<String>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    fanouts: Vec<Vec<NodeId>>,
    topo: Vec<NodeId>,
    dffs: Vec<NodeId>,
    name_index: HashMap<String, NodeId>,
}

impl Netlist {
    /// The circuit name (e.g. `"c17"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Approximate heap footprint of the netlist in bytes: per-node
    /// structure (fan-in and fanout lists, `Vec` headers), the name
    /// strings, and the name index.
    ///
    /// The netlist is the *mutable front door*, not the hot-path layout —
    /// the engines compile it into flat u32 CSR programs
    /// ([`crate::separation::GateSeparationTable`], `iddq_logicsim`'s
    /// simulators) whose footprints are a fraction of this. The dominant
    /// costs here are the two `Vec<NodeId>` per node (24-byte headers
    /// each) and the per-node `String`s; at 10^6 gates with terse
    /// generated names this is roughly 150–200 bytes per node.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let vec_header = std::mem::size_of::<Vec<NodeId>>();
        let string_header = std::mem::size_of::<String>();
        let node_ids = |v: &Vec<NodeId>| v.capacity() * std::mem::size_of::<NodeId>();
        self.nodes
            .iter()
            .map(|n| std::mem::size_of::<Node>() + node_ids(&n.fanin))
            .sum::<usize>()
            + self
                .names
                .iter()
                .map(|s| string_header + s.capacity())
                .sum::<usize>()
            + self
                .fanouts
                .iter()
                .map(|f| vec_header + node_ids(f))
                .sum::<usize>()
            + node_ids(&self.inputs)
            + node_ids(&self.outputs)
            + node_ids(&self.topo)
            + node_ids(&self.dffs)
            // HashMap entries: key string + NodeId + ~1.14x bucket slack.
            + self
                .name_index
                .keys()
                .map(|k| string_header + k.capacity() + std::mem::size_of::<NodeId>())
                .sum::<usize>()
                * 8
                / 7
    }

    /// A 64-bit FNV-1a hash of the circuit *structure*: node kinds,
    /// fan-in lists, input order, and output order. Node names are
    /// deliberately excluded — two netlists that differ only in naming
    /// simulate identically, compile to the same CSR programs, and have
    /// the same separation tables, so they may share cached artifacts.
    ///
    /// This is the cache key of the serving layer: an inline `.bench`
    /// upload that hashes to a known structure reuses the compiled
    /// simulator and oracle instead of rebuilding them.
    #[must_use]
    pub fn structural_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.nodes.len() as u64).u64(self.inputs.len() as u64);
        for n in &self.nodes {
            let kind_tag = match n.kind {
                NodeKind::Input => u64::MAX,
                NodeKind::Gate(k) => k as u64,
            };
            h.u64(kind_tag).u64(n.fanin.len() as u64);
            for f in &n.fanin {
                h.u64(u64::from(f.0));
            }
        }
        h.u64(self.outputs.len() as u64);
        for o in &self.outputs {
            h.u64(u64::from(o.0));
        }
        h.finish()
    }

    /// Total node count (primary inputs + gates).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of gate nodes (`n` in the paper's notation).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.nodes.len() - self.inputs.len()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Primary input ids in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output ids in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The declared name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Looks a node up by its declared name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Fanout (consumer) list of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[must_use]
    pub fn fanout(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// Nodes in a topological order over *combinational* edges: every
    /// combinational gate appears after all of its drivers. DFFs are
    /// frame-boundary sources (like primary inputs) and appear before
    /// their D drivers — code walking this order must not read a DFF's
    /// fan-in value as if it were already computed.
    #[must_use]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// State elements (DFF nodes) in id order; empty for a purely
    /// combinational netlist.
    #[must_use]
    pub fn state_elements(&self) -> &[NodeId] {
        &self.dffs
    }

    /// Number of state elements (DFFs).
    #[must_use]
    pub fn num_state_elements(&self) -> usize {
        self.dffs.len()
    }

    /// Returns `true` if the netlist contains at least one state element
    /// — i.e. evaluation is frame-based rather than one-shot.
    #[must_use]
    pub fn has_state(&self) -> bool {
        !self.dffs.is_empty()
    }

    /// Returns `true` if the node is a DFF state element.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[must_use]
    pub fn is_state_element(&self, id: NodeId) -> bool {
        self.nodes[id.index()]
            .kind
            .cell_kind()
            .is_some_and(CellKind::is_state)
    }

    /// Iterator over all node ids, `0..node_count()`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over the ids of gate nodes only.
    pub fn gate_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|id| self.is_gate(*id))
    }

    /// Returns `true` if the node is a gate (not a primary input).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[must_use]
    pub fn is_gate(&self, id: NodeId) -> bool {
        self.nodes[id.index()].kind.is_gate()
    }

    /// Returns `true` if the node is a primary output.
    #[must_use]
    pub fn is_output(&self, id: NodeId) -> bool {
        self.outputs.contains(&id)
    }

    /// Undirected neighbours of a node: the union of fan-in and fanout.
    ///
    /// This is the adjacency used by the separation metric of §3.3 of the
    /// paper ("the undirected graph of the logic circuit").
    pub fn undirected_neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let node = &self.nodes[id.index()];
        node.fanin
            .iter()
            .copied()
            .chain(self.fanouts[id.index()].iter().copied())
    }

    /// Dense gate indexing: maps a gate's [`NodeId`] to `0..gate_count()`.
    ///
    /// Many per-gate tables in the partitioner are indexed by this compact
    /// id rather than the node id. Returns `None` for primary inputs.
    #[must_use]
    pub fn gate_index(&self, id: NodeId) -> Option<usize> {
        if !self.is_gate(id) {
            return None;
        }
        // Gates and inputs can interleave in id space; count gates below.
        Some(
            self.nodes[..id.index()]
                .iter()
                .filter(|n| n.kind.is_gate())
                .count(),
        )
    }
}

/// Incremental builder for [`Netlist`].
///
/// See [`Netlist`] for a usage example.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    nodes: Vec<Node>,
    names: Vec<String>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    name_index: HashMap<String, NodeId>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a circuit called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            nodes: Vec::new(),
            names: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            name_index: HashMap::new(),
        }
    }

    fn intern(&mut self, name: &str, node: Node) -> Result<NodeId, NetlistError> {
        if self.name_index.contains_key(name) {
            return Err(NetlistError::DuplicateName(name.to_owned()));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.names.push(name.to_owned());
        self.name_index.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Adds a primary input.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken (inputs are normally added
    /// first; use [`NetlistBuilder::try_add_input`] when names come from
    /// untrusted data).
    // Deliberate panicking convenience wrapper: the fallible form is
    // `try_add_input`, and this one documents its panic contract.
    #[allow(clippy::expect_used)]
    pub fn add_input(&mut self, name: impl AsRef<str>) -> NodeId {
        self.try_add_input(name).expect("duplicate input name")
    }

    /// Adds a primary input, reporting duplicate names as errors.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn try_add_input(&mut self, name: impl AsRef<str>) -> Result<NodeId, NetlistError> {
        let id = self.intern(
            name.as_ref(),
            Node {
                kind: NodeKind::Input,
                fanin: Vec::new(),
            },
        )?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a gate with the given function and fan-in list.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken and
    /// [`NetlistError::BadFanin`] if the fan-in count is illegal for
    /// `kind`. (Dangling fan-in ids are caught at [`NetlistBuilder::build`]
    /// time.)
    pub fn add_gate(
        &mut self,
        name: impl AsRef<str>,
        kind: CellKind,
        fanin: Vec<NodeId>,
    ) -> Result<NodeId, NetlistError> {
        if !kind.accepts_fanin(fanin.len()) {
            return Err(NetlistError::BadFanin {
                gate: name.as_ref().to_owned(),
                kind,
                got: fanin.len(),
            });
        }
        self.intern(
            name.as_ref(),
            Node {
                kind: NodeKind::Gate(kind),
                fanin,
            },
        )
    }

    /// Adds a DFF state element whose D input will be connected later via
    /// [`NetlistBuilder::set_dff_input`] — the natural shape for feedback
    /// loops, where the next-state logic is built *after* the state
    /// outputs it reads.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_dff(&mut self, name: impl AsRef<str>) -> Result<NodeId, NetlistError> {
        self.intern(
            name.as_ref(),
            Node {
                kind: NodeKind::Gate(CellKind::Dff),
                fanin: Vec::new(),
            },
        )
    }

    /// Connects (or reconnects) the D input of a DFF created with
    /// [`NetlistBuilder::add_dff`].
    ///
    /// # Panics
    ///
    /// Panics if `dff` does not name a DFF node.
    pub fn set_dff_input(&mut self, dff: NodeId, d: NodeId) {
        let node = &mut self.nodes[dff.index()];
        assert!(
            node.kind.cell_kind().is_some_and(CellKind::is_state),
            "set_dff_input target must be a DFF"
        );
        node.fanin = vec![d];
    }

    /// Declares an existing node as a primary output (idempotent).
    pub fn mark_output(&mut self, id: NodeId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finalizes the netlist, validating all structural invariants.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UndefinedSignal`] for dangling fan-in references,
    /// * [`NetlistError::Cycle`] if the graph is not a DAG,
    /// * [`NetlistError::NoOutputs`] if no output was marked.
    pub fn build(self) -> Result<Netlist, NetlistError> {
        let n = self.nodes.len();
        for (i, node) in self.nodes.iter().enumerate() {
            for &f in &node.fanin {
                if f.index() >= n {
                    return Err(NetlistError::UndefinedSignal(format!("{f}")));
                }
            }
            // A DFF added via `add_dff` may still be awaiting its D input;
            // catch the forgotten `set_dff_input` here (combinational
            // fan-ins were validated at `add_gate` time).
            if let Some(kind) = node.kind.cell_kind() {
                if kind.is_state() && !kind.accepts_fanin(node.fanin.len()) {
                    return Err(NetlistError::BadFanin {
                        gate: self.names[i].clone(),
                        kind,
                        got: node.fanin.len(),
                    });
                }
            }
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }

        let mut fanouts: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &f in &node.fanin {
                fanouts[f.index()].push(NodeId(i as u32));
            }
        }

        // Kahn's algorithm for a topological order / cycle check, over
        // combinational edges only: a DFF's fan-in is a sequential edge
        // crossing the frame boundary, so the DFF starts as a source
        // (in-degree 0, like a primary input) and its D edge neither
        // orders it after the driver nor participates in the cycle check
        // — loops that pass through a DFF are legal, purely combinational
        // loops are not.
        let is_dff = |nd: &Node| nd.kind.cell_kind().is_some_and(CellKind::is_state);
        let mut indeg: Vec<usize> = self
            .nodes
            .iter()
            .map(|nd| if is_dff(nd) { 0 } else { nd.fanin.len() })
            .collect();
        let mut stack: Vec<NodeId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(id) = stack.pop() {
            topo.push(id);
            for &succ in &fanouts[id.index()] {
                if is_dff(&self.nodes[succ.index()]) {
                    continue; // sequential edge: the DFF was a source
                }
                indeg[succ.index()] -= 1;
                if indeg[succ.index()] == 0 {
                    stack.push(succ);
                }
            }
        }
        if topo.len() != n {
            let on = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| self.names[i].clone())
                .unwrap_or_default();
            return Err(NetlistError::Cycle { on });
        }

        let dffs: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, nd)| is_dff(nd))
            .map(|(i, _)| NodeId(i as u32))
            .collect();

        Ok(Netlist {
            name: self.name,
            nodes: self.nodes,
            names: self.names,
            inputs: self.inputs,
            outputs: self.outputs,
            fanouts,
            topo,
            dffs,
            name_index: self.name_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut b = NetlistBuilder::new("ha");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let s = b.add_gate("s", CellKind::Xor, vec![a, c]).unwrap();
        let k = b.add_gate("k", CellKind::And, vec![a, c]).unwrap();
        b.mark_output(s);
        b.mark_output(k);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let nl = half_adder();
        assert_eq!(nl.node_count(), 4);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.num_inputs(), 2);
        assert_eq!(nl.num_outputs(), 2);
        assert_eq!(nl.name(), "ha");
    }

    #[test]
    fn fanouts_are_inverse_of_fanins() {
        let nl = half_adder();
        let a = nl.find("a").unwrap();
        let s = nl.find("s").unwrap();
        let k = nl.find("k").unwrap();
        let mut fo = nl.fanout(a).to_vec();
        fo.sort();
        assert_eq!(fo, vec![s, k]);
        assert!(nl.fanout(s).is_empty());
    }

    #[test]
    fn topo_order_respects_edges() {
        let nl = half_adder();
        let pos: Vec<usize> = {
            let mut p = vec![0; nl.node_count()];
            for (i, id) in nl.topo_order().iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for id in nl.node_ids() {
            for &f in nl.node(id).fanin() {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn structural_fingerprint_ignores_names_not_structure() {
        let nl = half_adder();
        assert_eq!(nl.structural_fingerprint(), nl.structural_fingerprint());

        // Same structure, different names: identical fingerprint.
        let mut b = NetlistBuilder::new("renamed");
        let a = b.add_input("x");
        let c = b.add_input("y");
        let s = b.add_gate("sum", CellKind::Xor, vec![a, c]).unwrap();
        let k = b.add_gate("carry", CellKind::And, vec![a, c]).unwrap();
        b.mark_output(s);
        b.mark_output(k);
        let renamed = b.build().unwrap();
        assert_eq!(
            nl.structural_fingerprint(),
            renamed.structural_fingerprint()
        );

        // Changing a gate kind changes the fingerprint.
        let mut b = NetlistBuilder::new("nand-ha");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let s = b.add_gate("s", CellKind::Xor, vec![a, c]).unwrap();
        let k = b.add_gate("k", CellKind::Nand, vec![a, c]).unwrap();
        b.mark_output(s);
        b.mark_output(k);
        let kinded = b.build().unwrap();
        assert_ne!(nl.structural_fingerprint(), kinded.structural_fingerprint());

        // Dropping an output changes the fingerprint.
        let mut b = NetlistBuilder::new("one-out");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let s = b.add_gate("s", CellKind::Xor, vec![a, c]).unwrap();
        let _k = b.add_gate("k", CellKind::And, vec![a, c]).unwrap();
        b.mark_output(s);
        let fewer = b.build().unwrap();
        assert_ne!(nl.structural_fingerprint(), fewer.structural_fingerprint());

        // Pinned: serve cache and store keys are this value.
        assert_eq!(
            crate::data::c17().structural_fingerprint(),
            0x6f53_e72a_c775_c7a9
        );
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = NetlistBuilder::new("x");
        b.add_input("a");
        assert_eq!(
            b.try_add_input("a").unwrap_err(),
            NetlistError::DuplicateName("a".into())
        );
    }

    #[test]
    fn bad_fanin_rejected() {
        let mut b = NetlistBuilder::new("x");
        let a = b.add_input("a");
        let err = b.add_gate("g", CellKind::Nand, vec![a]).unwrap_err();
        assert!(matches!(err, NetlistError::BadFanin { got: 1, .. }));
    }

    #[test]
    fn cycle_rejected() {
        // Two gates feeding each other. We must construct fanin ids ahead
        // of definition, which the builder only checks at build() time.
        let mut b = NetlistBuilder::new("cyc");
        let a = b.add_input("a");
        // g1 = AND(a, g2) where g2 = AND(a, g1): ids 1 and 2.
        let g1 = b.add_gate("g1", CellKind::And, vec![a, NodeId(2)]).unwrap();
        let _g2 = b.add_gate("g2", CellKind::And, vec![a, g1]).unwrap();
        b.mark_output(g1);
        assert!(matches!(b.build().unwrap_err(), NetlistError::Cycle { .. }));
    }

    #[test]
    fn dangling_reference_rejected() {
        let mut b = NetlistBuilder::new("dang");
        let a = b.add_input("a");
        let g = b.add_gate("g", CellKind::And, vec![a, NodeId(99)]).unwrap();
        b.mark_output(g);
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::UndefinedSignal(_)
        ));
    }

    #[test]
    fn no_outputs_rejected() {
        let mut b = NetlistBuilder::new("noout");
        b.add_input("a");
        assert_eq!(b.build().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn gate_index_is_dense_over_gates() {
        let nl = half_adder();
        let mut seen = vec![false; nl.gate_count()];
        for g in nl.gate_ids() {
            let gi = nl.gate_index(g).unwrap();
            assert!(!seen[gi]);
            seen[gi] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(nl.gate_index(nl.inputs()[0]), None);
    }

    #[test]
    fn undirected_neighbors_union() {
        let nl = half_adder();
        let a = nl.find("a").unwrap();
        let s = nl.find("s").unwrap();
        let n: Vec<NodeId> = nl.undirected_neighbors(s).collect();
        assert!(n.contains(&a));
        let n: Vec<NodeId> = nl.undirected_neighbors(a).collect();
        assert!(n.contains(&s));
    }

    /// A 2-bit feedback circuit: q1 = DFF(NOT q0), q0 = DFF(xin XOR q1).
    fn toggle_pair() -> Netlist {
        let mut b = NetlistBuilder::new("toggle");
        let xin = b.add_input("xin");
        let q0 = b.add_dff("q0").unwrap();
        let q1 = b.add_dff("q1").unwrap();
        let n0 = b.add_gate("n0", CellKind::Not, vec![q0]).unwrap();
        let x0 = b.add_gate("x0", CellKind::Xor, vec![xin, q1]).unwrap();
        b.set_dff_input(q1, n0);
        b.set_dff_input(q0, x0);
        b.mark_output(x0);
        b.build().unwrap()
    }

    #[test]
    fn dff_feedback_loops_are_legal() {
        let nl = toggle_pair();
        assert!(nl.has_state());
        assert_eq!(nl.num_state_elements(), 2);
        let q0 = nl.find("q0").unwrap();
        let q1 = nl.find("q1").unwrap();
        assert_eq!(nl.state_elements(), &[q0, q1]);
        assert!(nl.is_state_element(q0) && nl.is_state_element(q1));
        assert!(!nl.is_state_element(nl.find("n0").unwrap()));
        // Topo order respects combinational edges only: DFFs are sources.
        let pos: Vec<usize> = {
            let mut p = vec![0; nl.node_count()];
            for (i, id) in nl.topo_order().iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for id in nl.node_ids() {
            if nl.is_state_element(id) {
                continue;
            }
            for &f in nl.node(id).fanin() {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn combinational_cycle_still_rejected_with_dffs_present() {
        let mut b = NetlistBuilder::new("mixed-cyc");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        // g1 = AND(q, g2), g2 = AND(a, g1): a purely combinational loop
        // that also reads a DFF — still a cycle.
        let g1 = b.add_gate("g1", CellKind::And, vec![q, NodeId(3)]).unwrap();
        let g2 = b.add_gate("g2", CellKind::And, vec![a, g1]).unwrap();
        b.set_dff_input(q, g2);
        b.mark_output(g1);
        assert!(matches!(b.build().unwrap_err(), NetlistError::Cycle { .. }));
    }

    #[test]
    fn unconnected_dff_rejected_at_build() {
        let mut b = NetlistBuilder::new("loose");
        let a = b.add_input("a");
        let _q = b.add_dff("q").unwrap();
        let g = b.add_gate("g", CellKind::Not, vec![a]).unwrap();
        b.mark_output(g);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::BadFanin { got: 0, .. }));
    }

    #[test]
    fn dff_changes_structural_fingerprint() {
        // BUF and DFF with identical wiring must hash differently: they
        // simulate differently (one is transparent, one latches).
        let build = |kind: CellKind| {
            let mut b = NetlistBuilder::new("fp");
            let a = b.add_input("a");
            let g = b.add_gate("g", kind, vec![a]).unwrap();
            let o = b.add_gate("o", CellKind::Not, vec![g]).unwrap();
            b.mark_output(o);
            b.build().unwrap()
        };
        assert_ne!(
            build(CellKind::Buf).structural_fingerprint(),
            build(CellKind::Dff).structural_fingerprint()
        );
    }

    #[test]
    fn mark_output_idempotent() {
        let mut b = NetlistBuilder::new("x");
        let a = b.add_input("a");
        let g = b.add_gate("g", CellKind::Not, vec![a]).unwrap();
        b.mark_output(g);
        b.mark_output(g);
        let nl = b.build().unwrap();
        assert_eq!(nl.num_outputs(), 1);
    }
}
