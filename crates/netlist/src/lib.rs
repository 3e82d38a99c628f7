//! Gate-level netlist substrate for the IDDQ-testability synthesis flow.
//!
//! This crate models a combinational Circuit Under Test (CUT) as a directed
//! acyclic graph `C = (G, T)` of gates and interconnections, exactly as the
//! partitioning formulation of Wunderlich et al. (DATE 1995) requires. It
//! provides:
//!
//! * [`Netlist`] — an immutable, validated gate-level DAG with primary
//!   inputs, primary outputs and precomputed fanout lists,
//! * [`NetlistBuilder`] — the only way to construct a [`Netlist`]; it
//!   validates arity, connectivity and acyclicity,
//! * [`CellKind`] — the logic function vocabulary (the electrical view of a
//!   cell lives in `iddq-celllib`),
//! * [`mod@bench`] — a reader/writer for the ISCAS-85 `.bench` interchange
//!   format,
//! * [`levelize`] — topological levels, weighted longest paths and the
//!   *transition-time sets* `t_i^1, …, t_i^{L_i}` of §3.1 of the paper,
//! * [`cone`] — a flat topological fan-in index for the weighted
//!   longest-path sweep, plus the growable [`cone::DynamicCones`] with
//!   level-ordered, event-driven cone walks for patched structures,
//! * [`patch`] — the structural-patch vocabulary of resynthesis
//!   (`AddGate` appends a gate, `SetFanin` rewires one), consumed by
//!   `ResynthEval` over [`cone::DynamicCones`], with a rebuild-oracle
//!   [`patch::materialize`],
//! * [`separation`] — the bounded undirected separation metric `S(g_i, g_j)`
//!   of §3.3,
//! * [`stats`] — structural circuit statistics (fan-in/fan-out mixes,
//!   depth, widest level),
//! * [`data`] — embedded reference circuits (the exact ISCAS-85 C17 used in
//!   the paper's running example, plus a small ripple-carry adder),
//! * [`unroll`] — time-frame expansion of a sequential netlist into a pure
//!   combinational one (the classical construction behind sequential ATPG
//!   and the differential oracle for the frame-stepping engines).
//!
//! # Sequential circuits
//!
//! Since the frame-based refactor the netlist is no longer restricted to
//! combinational DAGs: [`CellKind::Dff`] models a D flip-flop state
//! element. A DFF's output is a **frame-boundary pseudo-input** (level 0,
//! holds latched state for a whole frame) and its single D fan-in is a
//! **sequential edge** — excluded from topological ordering, cycle
//! detection, levelization and cone traversal, so feedback loops through
//! DFFs are legal while purely combinational cycles remain errors.
//! Physical adjacency (separation, undirected neighborhoods) still sees
//! the D edge.
//!
//! # Memory layout & scale
//!
//! The crate is built to hold million-gate circuits comfortably, which
//! dictates a two-tier layout:
//!
//! * [`Netlist`] is the **mutable front door**: per-node fan-in vectors,
//!   name strings and a name index. That convenience costs roughly
//!   150–200 bytes per node, and it is the *only* per-node-allocating
//!   structure in the flow — everything downstream compiles the graph
//!   into flat arrays once and never touches it again on the hot path.
//! * Engine representations are **structure-of-arrays over `u32`
//!   indices**: the gate separation table's row storage is one flat
//!   `(gate, ρ − d)` array behind a CSR offset table, built exactly
//!   sized. `u32` everywhere halves the index footprint against `usize`
//!   on 64-bit targets and caps the node count at 4 × 10⁹ — far above
//!   the 10⁶–10⁷ range this flow targets.
//!
//! Every representation reports its measured footprint via a
//! `memory_bytes()` accessor ([`Netlist::memory_bytes`],
//! [`separation::GateSeparationTable::memory_bytes`]), surfaced by the
//! CLI's `stats --memory` report. A sharded table build stitches its
//! per-shard vectors into one exactly sized copy, so its transient peak
//! is about twice the table; the serial build grows one vector in place.
//!
//! # Example
//!
//! ```rust
//! use iddq_netlist::{data, CellKind};
//!
//! # fn main() -> Result<(), iddq_netlist::NetlistError> {
//! let c17 = data::c17();
//! assert_eq!(c17.num_inputs(), 5);
//! assert_eq!(c17.num_outputs(), 2);
//! assert_eq!(c17.gate_count(), 6);
//! for g in c17.gate_ids() {
//!     assert_eq!(c17.node(g).kind().cell_kind(), Some(CellKind::Nand));
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bench;
pub mod cone;
pub mod data;
pub mod dot;
mod graph;
mod kind;
pub mod levelize;
pub mod packed;
pub mod patch;
pub mod separation;
pub mod stats;
mod timeset;
pub mod unroll;

pub use graph::{Netlist, NetlistBuilder, NetlistError, Node, NodeId, NodeKind};
pub use kind::CellKind;
pub use packed::{LaneWidth, PackedWord, W256, W512};
pub use timeset::TimeSet;
