//! The bounded separation metric of §3.3, on a flat array BFS engine.
//!
//! The *separation parameter* `S(g_i, g_j)` of two gates is the minimum
//! number of nodes traversed when going from `g_i` to `g_j` in the
//! *undirected* graph of the logic circuit, saturated at a bound `ρ`
//! (written `p` in the paper): if the distance exceeds `ρ` or no path
//! exists, `S(g_i, g_j) := ρ`.
//!
//! The module separation `S(M) = Σ_{g_i, g_j ∈ M} S(g_i, g_j)` (over
//! unordered pairs) is minimal when `M` is a clique of the circuit graph,
//! capturing the routing difficulty of linking a BIC sensor to gates placed
//! in remote locations.
//!
//! # Construction
//!
//! [`GateSeparationTable`] precomputes, once per netlist, the ρ-bounded
//! BFS neighbourhood of every gate restricted to its *gate* partners,
//! stored as one flat `(entries, offsets)` CSR table of `(gate, ρ − d)`
//! rows sorted by node id: a distance is a binary search over a short
//! contiguous row, and a full-neighbourhood scan
//! ([`GateSeparationTable::row`]) is a pointer bump. Primary inputs are
//! crossed by the BFS but have no row and are in no row: §3.3 only needs
//! gate-to-gate distances.
//!
//! Each entry is **one packed `u32`**, `partner << b | (ρ − d)`, where
//! `b` is the bit width of `ρ − 1` (3 bits at ρ 6, 8 at ρ 256): half the
//! bytes of a `(u32, u32)` pair. The partner holds the high bits, so a
//! row sorted by packed value is sorted by partner, and the readers
//! decode as they scan. The id field leaves `32 − b` bits, so a table
//! at ρ holds at most `2^(32 − b)` nodes (2²⁹ at ρ 6);
//! [`GateSeparationTable::check_capacity`] refuses a larger netlist
//! with a typed error, and a build panics on one.
//!
//! The build ([`GateSeparationTable::direct`]) is **flat, bit-parallel
//! and array-based**:
//!
//! * the undirected adjacency (fan-in ∪ fanout) is copied once into a CSR
//!   `(offsets, pool)` pair, so the traversal reads contiguous memory
//!   instead of chasing the netlist's per-node `Vec`s;
//! * sources are processed in **batches of 64** (`BatchScratch`): each
//!   `u64` word carries one frontier bit per batch source, one masked
//!   `O(V + E)` sweep per level advances all 64 BFS runs at once
//!   (synchronous two-phase update, so first-arrival levels are exact),
//!   and first arrivals land in a per-batch `u8` level table;
//! * a batch's rows are then emitted sixteen columns at a time: one
//!   ascending scan over the node space deals each reached node into its
//!   columns' slots of one buffer, sized by arrival counts the BFS keeps —
//!   rows come out sorted by node id with **no comparison sort** and no
//!   per-node map allocation of any kind.
//!
//! Total work is `O(⌈n/64⌉ · ρ · (V + E))` word operations plus four
//! `O(V)` emission scans per batch — on circuits whose ρ-balls span
//! hundreds of nodes this is an order of magnitude below a scalar BFS per
//! gate, which is kept as [`GateSeparationTable::reference`] (one
//! [`BoundedBfs`] row per gate) — the differential oracle the property
//! tests compare against entry for entry. (For the degenerate `ρ > 256`
//! the arrival level no longer fits the batch table's `u8` and the build
//! falls back to a scalar epoch-stamped/ball-bitset BFS per source,
//! `BfsScratch` — same rows, also covered by the equality tests.)
//!
//! Batches are independent, so `threads > 1` shards the node range across
//! worker threads (each with its own scratch) and stitches the per-shard
//! CSR segments back together in node order — the result is
//! **bit-identical** to the serial build for every thread count. The
//! stitch grows the first shard's vector and frees each later shard as
//! soon as it is copied, so it never holds two full copies of the
//! entries. The serial build keeps the one vector it grew, whose spare
//! capacity is never written; [`GateSeparationTable::memory_bytes`]
//! counts the entries, not that capacity.

use std::ops::Range;

use iddq_control::EngineError;

use crate::graph::{Netlist, NodeId};

/// The bit split of a packed table entry at bound ρ: the weight
/// `ρ − d` (in `1..ρ`) takes the low `shift` bits, the bit width of
/// `ρ − 1`, and the partner's node id the `32 − shift` bits above them.
///
/// A row's weights therefore sum below 2³²: it holds fewer than
/// `2^(32 − shift)` partners, each weighing below `2^shift`. The row
/// kernels accumulate each row in a `u32` on that bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packing {
    shift: u32,
    mask: u32,
}

impl Packing {
    fn new(rho: u32) -> Self {
        let shift = u32::BITS - rho.saturating_sub(1).leading_zeros();
        Packing {
            shift,
            // `shift` reaches 32 for ρ > 2³¹; the mask is then all ones.
            mask: ((1u64 << shift) - 1) as u32,
        }
    }

    /// The largest node count the id field holds: `2^(32 − shift)`.
    fn max_nodes(self) -> u64 {
        1u64 << (u32::BITS - self.shift)
    }

    /// The packing at `rho` of a `node_count`-node table.
    ///
    /// # Panics
    ///
    /// Panics with [`GateSeparationTable::check_capacity`]'s message if
    /// the node ids do not fit the id field.
    fn fitting(node_count: usize, rho: u32) -> Self {
        if let Err(e) = GateSeparationTable::check_capacity(node_count, rho) {
            panic!("{e}");
        }
        Packing::new(rho)
    }

    fn pack(self, partner: u32, weight: u32) -> u32 {
        debug_assert!(u64::from(partner) < self.max_nodes() && weight <= self.mask);
        (partner << self.shift) | weight
    }

    /// `(partner, weight)` of a packed entry.
    fn unpack(self, entry: u32) -> (u32, u32) {
        (entry >> self.shift, entry & self.mask)
    }
}

/// Entries a row kernel decodes per block
/// (`GateSeparationTable::fold_row_owners`): a stack buffer, long enough
/// to vectorize over.
const DECODE_BLOCK: usize = 64;

/// A row end as a `u32` CSR offset.
///
/// # Panics
///
/// Panics if the table holds more than `u32::MAX` entries.
fn row_end(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!(
            "gate separation table over {} entries: its u32 row offsets cannot address them",
            u32::MAX
        )
    })
}

/// Flat CSR copy of the undirected adjacency (fan-in ∪ fanout), the
/// traversal substrate of every separation build.
fn undirected_csr(netlist: &Netlist) -> (Vec<u32>, Vec<u32>) {
    let n = netlist.node_count();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut pool = Vec::new();
    offsets.push(0u32);
    for id in netlist.node_ids() {
        pool.extend(netlist.undirected_neighbors(id).map(|v| v.0));
        offsets.push(pool.len() as u32);
    }
    (offsets, pool)
}

/// Per-worker BFS scratch: an epoch-stamped `stamp`/`dist` array pair
/// plus the frontier (`touched`) list and a ball bitset. Bumping `epoch`
/// invalidates every stamp at once, so consecutive BFS runs share the
/// arrays with zero reset cost.
///
/// Rows must come out **sorted by node id**, but BFS discovers nodes in
/// frontier order — instead of sorting ~hundreds of entries per row
/// (`O(ball · log ball)` comparisons, the dominant cost of a naive flat
/// build on large circuits), discoveries set a bit in `ball` and the row
/// is emitted by iterating the bitset's set bits in ascending order,
/// reading each node's distance back from the stamped `dist` array —
/// `O(n/64 + ball)` per row, no comparison sort at all. The bitset words
/// are cleared as they are consumed, so there is no per-row reset sweep
/// either.
struct BfsScratch {
    stamp: Vec<u32>,
    epoch: u32,
    dist: Vec<u32>,
    ball: Vec<u64>,
    touched: Vec<u32>,
}

impl BfsScratch {
    fn new(n: usize) -> Self {
        BfsScratch {
            stamp: vec![0; n],
            epoch: 0,
            dist: vec![0; n],
            ball: vec![0; n.div_ceil(64)],
            touched: Vec::new(),
        }
    }

    /// Runs one BFS from `src` truncated at depth `rho - 1`, marking the
    /// discovered ball (excluding `src`) in the bitset and stamping each
    /// node's distance. Returns nothing; the caller drains the ball via
    /// [`BfsScratch::emit`].
    fn ball_from(&mut self, src: u32, rho: u32, adj_offsets: &[u32], adj_pool: &[u32]) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.stamp[src as usize] = epoch;
        self.touched.clear();
        self.touched.push(src);
        let (mut head, mut tail) = (0usize, 1usize);
        let mut d = 0u32;
        while d + 1 < rho && head < tail {
            d += 1;
            for k in head..tail {
                let u = self.touched[k] as usize;
                for &v in &adj_pool[adj_offsets[u] as usize..adj_offsets[u + 1] as usize] {
                    if self.stamp[v as usize] != epoch {
                        self.stamp[v as usize] = epoch;
                        self.dist[v as usize] = d;
                        self.ball[v as usize / 64] |= 1u64 << (v % 64);
                        self.touched.push(v);
                    }
                }
            }
            head = tail;
            tail = self.touched.len();
        }
    }

    /// Drains the ball bitset in ascending node order, pushing
    /// `map(node, dist)` per set bit and clearing the words on the way.
    fn emit<T>(&mut self, out: &mut Vec<T>, map: impl Fn(u32, u32) -> T) {
        for w in 0..self.ball.len() {
            let mut bits = self.ball[w];
            if bits == 0 {
                continue;
            }
            self.ball[w] = 0;
            while bits != 0 {
                let v = (w as u32) * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                out.push(map(v, self.dist[v as usize]));
            }
        }
    }

    /// One [`BoundedBfs`] row: every `(node, distance)` of the ball,
    /// sorted by node id.
    fn row_into(
        &mut self,
        src: u32,
        rho: u32,
        adj_offsets: &[u32],
        adj_pool: &[u32],
        out: &mut Vec<(u32, u32)>,
    ) {
        self.ball_from(src, rho, adj_offsets, adj_pool);
        self.emit(out, |v, d| (v, d));
    }

    /// One [`GateSeparationTable`] row: the ball restricted to *gate*
    /// partners as packed `(node, rho - distance)` entries, sorted by
    /// node id — the same row as [`BfsScratch::row_into`] filtered to
    /// gates.
    #[allow(clippy::too_many_arguments)] // the BFS inputs, plus the packing
    fn gate_row_into(
        &mut self,
        src: u32,
        rho: u32,
        adj_offsets: &[u32],
        adj_pool: &[u32],
        is_gate: &[bool],
        packing: Packing,
        out: &mut Vec<u32>,
    ) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.stamp[src as usize] = epoch;
        self.touched.clear();
        self.touched.push(src);
        let (mut head, mut tail) = (0usize, 1usize);
        let mut d = 0u32;
        while d + 1 < rho && head < tail {
            d += 1;
            for k in head..tail {
                let u = self.touched[k] as usize;
                for &v in &adj_pool[adj_offsets[u] as usize..adj_offsets[u + 1] as usize] {
                    if self.stamp[v as usize] != epoch {
                        self.stamp[v as usize] = epoch;
                        self.touched.push(v);
                        if is_gate[v as usize] {
                            self.dist[v as usize] = d;
                            self.ball[v as usize / 64] |= 1u64 << (v % 64);
                        }
                    }
                }
            }
            head = tail;
            tail = self.touched.len();
        }
        self.emit(out, |v, d| packing.pack(v, rho - d));
    }
}

/// One source's ρ-bounded neighbourhood at a time, for callers that need
/// only a few rows: the flat undirected adjacency is copied once, and each
/// [`BoundedBfs::row_into`] runs a single truncated BFS. A row holds
/// every node (primary inputs included) at distance `1..ρ` from the
/// source, sorted by node id; its gate entries are the source's
/// [`GateSeparationTable`] row, as distances instead of weights.
///
/// ```rust
/// use iddq_netlist::data;
/// use iddq_netlist::separation::{BoundedBfs, GateSeparationTable};
///
/// let c17 = data::c17();
/// let g10 = c17.find("10").unwrap();
/// let mut row = Vec::new();
/// BoundedBfs::new(&c17, 4).row_into(g10, &mut row);
/// row.retain(|&(n, _)| c17.is_gate(iddq_netlist::NodeId(n)));
/// let table = GateSeparationTable::direct(&c17, 4, 1);
/// let weights: Vec<(u32, u32)> = row.iter().map(|&(n, d)| (n, 4 - d)).collect();
/// assert!(table.row(g10).eq(weights));
/// ```
pub struct BoundedBfs {
    rho: u32,
    adj_offsets: Vec<u32>,
    adj_pool: Vec<u32>,
    scratch: BfsScratch,
}

impl BoundedBfs {
    /// Prepares per-source BFS on `netlist` with saturation bound `rho`.
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`.
    #[must_use]
    pub fn new(netlist: &Netlist, rho: u32) -> Self {
        assert!(rho > 0, "separation bound rho must be positive");
        let (adj_offsets, adj_pool) = undirected_csr(netlist);
        BoundedBfs {
            rho,
            adj_offsets,
            adj_pool,
            scratch: BfsScratch::new(netlist.node_count()),
        }
    }

    /// Appends every `(node index, distance)` with distance `1..rho` from
    /// `src` to `out`, in ascending node order.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn row_into(&mut self, src: NodeId, out: &mut Vec<(u32, u32)>) {
        self.scratch
            .row_into(src.0, self.rho, &self.adj_offsets, &self.adj_pool, out);
    }
}

/// 64-source **bit-parallel** batched BFS: column `i` of every `u64`
/// tracks source `i` of the current batch, so one masked sweep over the
/// edge list advances 64 BFS frontiers at once.
///
/// * `seen[v]` — which batch sources have reached `v` so far;
/// * `acc[v]` — the synchronous-level scratch (`OR` of the neighbours'
///   `seen`, computed for every node before any `seen` is updated, so
///   arrival levels are exact);
/// * `dist[v·64 + i]` — the first-arrival level of source `i` at `v`
///   (`u8`: callers fall back to the per-source engine when `ρ > 256`).
///
/// Per level the sweep costs `O(V + E)` word operations *for all 64
/// sources together* — the per-source per-edge work of a scalar BFS
/// collapses 64-fold, which is what makes the table build cheap on
/// circuits whose ρ-balls span hundreds of nodes.
struct BatchScratch {
    seen: Vec<u64>,
    acc: Vec<u64>,
    dist: Vec<u8>,
    /// Per batch column, the nodes that arrived in it (its source
    /// excluded), tallied by [`BatchScratch::run`].
    arrivals: [u32; 64],
    /// The reached nodes of up to [`EMIT_GROUP`] columns, column after
    /// column, while [`BatchScratch::emit_rows`] deals them.
    rows: Vec<u32>,
}

impl BatchScratch {
    fn new(n: usize) -> Self {
        BatchScratch {
            seen: vec![0; n],
            acc: vec![0; n],
            dist: vec![0; n * 64],
            arrivals: [0; 64],
            rows: Vec::new(),
        }
    }

    /// Runs the batched BFS for up to 64 `sources` (seeding only the
    /// columns whose `seed` flag is set), truncated at depth `rho - 1`.
    fn run(&mut self, sources: &[(u32, bool)], rho: u32, adj_offsets: &[u32], adj_pool: &[u32]) {
        debug_assert!(sources.len() <= 64);
        debug_assert!(rho <= 256, "u8 arrival levels");
        for w in self.seen.iter_mut() {
            *w = 0;
        }
        self.arrivals = [0; 64];
        for (i, &(src, seed)) in sources.iter().enumerate() {
            if seed {
                self.seen[src as usize] |= 1u64 << i;
            }
        }
        let n = self.seen.len();
        for d in 1..rho {
            let mut any = 0u64;
            for v in 0..n {
                let mut acc = 0u64;
                for &u in &adj_pool[adj_offsets[v] as usize..adj_offsets[v + 1] as usize] {
                    acc |= self.seen[u as usize];
                }
                let delta = acc & !self.seen[v];
                self.acc[v] = delta;
                any |= delta;
            }
            if any == 0 {
                break;
            }
            for v in 0..n {
                let mut delta = self.acc[v];
                if delta == 0 {
                    continue;
                }
                self.seen[v] |= delta;
                while delta != 0 {
                    let i = delta.trailing_zeros() as usize;
                    delta &= delta - 1;
                    self.dist[v * 64 + i] = d as u8;
                    self.arrivals[i] += 1;
                }
            }
        }
    }

    /// Emits the rows of all batch columns, in column order, onto `out`,
    /// pushing each row's end (`out.len()`) onto `ends`. Per group of
    /// [`EMIT_GROUP`] columns, one ascending pass over the node space
    /// deals every node a column reached into that column's slot of
    /// `rows` (sized by the arrival tallies), so each row comes out sorted
    /// with no comparison sort; `map` then filters each `(node, distance)`
    /// pair and packs it into an entry, row by row. A source's own node
    /// is skipped.
    fn emit_rows(
        &mut self,
        sources: &[(u32, bool)],
        out: &mut Vec<u32>,
        ends: &mut Vec<u32>,
        mut map: impl FnMut(u32, u32) -> Option<u32>,
    ) {
        for first in (0..sources.len()).step_by(EMIT_GROUP) {
            let group = first..(first + EMIT_GROUP).min(sources.len());
            let mask = (!0u64 >> (64 - group.len())) << first;
            let mut start = [0u32; EMIT_GROUP + 1];
            for (k, i) in group.clone().enumerate() {
                start[k + 1] = start[k] + self.arrivals[i];
            }
            let mut cursor = start;
            self.rows.clear();
            self.rows.resize(start[group.len()] as usize, 0);
            for (v, &seen) in self.seen.iter().enumerate() {
                let mut bits = seen & mask;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if v as u32 != sources[i].0 {
                        self.rows[cursor[i - first] as usize] = v as u32;
                        cursor[i - first] += 1;
                    }
                }
            }
            for (k, i) in group.enumerate() {
                for &v in &self.rows[start[k] as usize..start[k + 1] as usize] {
                    if let Some(entry) = map(v, u32::from(self.dist[v as usize * 64 + i])) {
                        out.push(entry);
                    }
                }
                ends.push(row_end(out.len()));
            }
        }
    }
}

/// Batch columns [`BatchScratch::emit_rows`] deals per pass over the node
/// space: a quarter of a batch keeps its row buffer small (a quarter of
/// the batch's entries) for four short passes.
const EMIT_GROUP: usize = 16;

/// One shard's build output: its flat entries plus shard-relative row
/// ends.
type CsrShard = (Vec<u32>, Vec<u32>);

/// Builds a CSR `(flat, offsets)` pair over `n` rows by calling
/// `build(range, flat_out)` per contiguous shard — serially for
/// `threads <= 1`, otherwise on scoped worker threads with the shards
/// stitched back in row order (bit-identical to the serial result, since
/// each row's content is independent of the sharding). The stitch grows
/// the first shard's vector and drops each later shard once it is
/// copied, so the entries are never held twice over.
///
/// `build` appends its rows to the output vector and pushes one
/// *shard-relative* end offset per row.
///
/// # Panics
///
/// Panics if the rows hold more than `u32::MAX` entries.
fn build_csr_rows<F>(n: usize, threads: usize, build: F) -> (Vec<u32>, Vec<u32>)
where
    F: Fn(Range<usize>, &mut Vec<u32>, &mut Vec<u32>) + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        let mut flat = Vec::new();
        let mut ends = Vec::with_capacity(n);
        build(0..n, &mut flat, &mut ends);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        offsets.extend(ends);
        return (flat, offsets);
    }
    let chunk = n.div_ceil(threads);
    let parts: Vec<CsrShard> = std::thread::scope(|scope| {
        let build = &build;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let range = (t * chunk).min(n)..((t + 1) * chunk).min(n);
                scope.spawn(move || {
                    let mut flat = Vec::new();
                    let mut ends = Vec::with_capacity(range.len());
                    build(range, &mut flat, &mut ends);
                    (flat, ends)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(shard) => shard,
                // A panicked shard is unrecoverable here (this builder has
                // no partial-result channel); re-raise on the caller's
                // thread rather than abort the process from a worker.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let total: usize = parts.iter().map(|(flat, _)| flat.len()).sum();
    let mut parts = parts.into_iter();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut flat = Vec::new();
    if let Some((first, ends)) = parts.next() {
        flat = first;
        flat.reserve_exact(total - flat.len());
        offsets.extend(ends);
    }
    for (part, ends) in parts {
        let base = flat.len();
        offsets.extend(ends.into_iter().map(|e| row_end(base + e as usize)));
        flat.extend(part);
    }
    (flat, offsets)
}

/// Flattened gate-to-gate neighbour weights for O(neighbourhood)
/// separation deltas against a dense module-assignment vector.
///
/// Built from the netlist ([`GateSeparationTable::direct`], see the
/// [module docs](self)), or from maintained distance rows
/// ([`GateSeparationTable::from_distance_rows`]); each gate's row holds
/// only its *gate* neighbours within the bound, pre-weighted as `ρ − d`,
/// so the incremental primitive
///
/// `S(gate → module) = ρ·(|module| − [gate ∈ module]) − Σ_{near ∩ module}(ρ − d)`
///
/// becomes one contiguous scan with direct `assignment[n] == module` tests
/// — no hashing, no primary-input entries to skip, no closure dispatch.
///
/// # Example
///
/// ```rust
/// use iddq_netlist::{data, separation::GateSeparationTable};
///
/// let c17 = data::c17();
/// let table = GateSeparationTable::direct(&c17, 4, 1);
/// let g10 = c17.find("10").unwrap();
/// let g22 = c17.find("22").unwrap();
/// assert_eq!(table.distance(g10, g22), 1); // directly connected
/// assert_eq!(table.distance(g10, g10), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateSeparationTable {
    rho: u64,
    packing: Packing,
    offsets: Vec<u32>,
    /// `partner << b | (ρ − d)` per in-bound gate neighbour (see the
    /// [module docs](self)).
    entries: Vec<u32>,
    /// Per node, the sum of its row's weights ([`Self::near_weight`]).
    totals: Vec<u64>,
}

/// The planning figures of a table that is not built yet, from
/// [`GateSeparationTable::estimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEstimate {
    /// Extrapolated number of `(gate, ρ − d)` entries.
    pub entries: usize,
    /// Extrapolated [`GateSeparationTable::memory_bytes`].
    pub bytes: usize,
}

impl GateSeparationTable {
    /// Builds the table straight from the netlist — one gate-filtered
    /// bounded BFS per gate over the flat undirected adjacency, 64
    /// sources per batch. Equal to [`GateSeparationTable::reference`]
    /// entry for entry (property-tested). `threads > 1` shards the
    /// batches across workers (bit-identical result).
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`, if the netlist has more nodes than a table
    /// at `rho` can pack ([`GateSeparationTable::check_capacity`]), or if
    /// the table would hold more than `u32::MAX` entries (its row offsets
    /// are `u32`).
    #[must_use]
    pub fn direct(netlist: &Netlist, rho: u32, threads: usize) -> Self {
        assert!(rho > 0, "separation bound rho must be positive");
        let n = netlist.node_count();
        let packing = Packing::fitting(n, rho);
        let (adj_offsets, adj_pool) = undirected_csr(netlist);
        let is_gate: Vec<bool> = netlist.node_ids().map(|id| netlist.is_gate(id)).collect();
        let (entries, offsets) = build_csr_rows(n, threads, |range, entries, ends| {
            if rho <= 256 {
                let mut scratch = BatchScratch::new(n);
                let mut start = range.start;
                while start < range.end {
                    // Primary-input columns stay unseeded: their rows are
                    // empty by construction and cost no sweep work.
                    let batch: Vec<(u32, bool)> = (start..(start + 64).min(range.end))
                        .map(|i| (i as u32, is_gate[i]))
                        .collect();
                    scratch.run(&batch, rho, &adj_offsets, &adj_pool);
                    scratch.emit_rows(&batch, entries, ends, |v, d| {
                        is_gate[v as usize].then(|| packing.pack(v, rho - d))
                    });
                    start += batch.len();
                }
            } else {
                let mut scratch = BfsScratch::new(n);
                for i in range {
                    if is_gate[i] {
                        scratch.gate_row_into(
                            i as u32,
                            rho,
                            &adj_offsets,
                            &adj_pool,
                            &is_gate,
                            packing,
                            entries,
                        );
                    }
                    ends.push(row_end(entries.len()));
                }
            }
        });
        GateSeparationTable::from_rows(rho, packing, offsets, entries)
    }

    /// The slow reference of [`GateSeparationTable::direct`]: one
    /// [`BoundedBfs`] row per gate, one source at a time, restricted to
    /// its gate partners and weighted by
    /// [`GateSeparationTable::from_distance_rows`]. The property tests
    /// compare the batched build against it entry for entry, and the
    /// `context_build` benchmark section times it as the baseline.
    ///
    /// # Panics
    ///
    /// As [`GateSeparationTable::direct`].
    #[must_use]
    pub fn reference(netlist: &Netlist, rho: u32) -> Self {
        let mut bfs = BoundedBfs::new(netlist, rho);
        let rows = netlist
            .node_ids()
            .map(|id| {
                let mut row = Vec::new();
                if netlist.is_gate(id) {
                    bfs.row_into(id, &mut row);
                    row.retain(|&(n, _)| netlist.is_gate(NodeId(n)));
                }
                row
            })
            .collect();
        GateSeparationTable::from_distance_rows(rho, rows)
    }

    /// Whether a `node_count`-node netlist's table at `rho` fits the
    /// packed entry layout: an entry keeps `32 − b` bits for the partner's
    /// node id, `b` the bit width of `ρ − 1`, so a table at `rho` holds at
    /// most `2^(32 − b)` nodes (2³¹ at ρ 2, 2²⁹ at ρ 6, 2²⁴ at ρ 256).
    /// Callers that take ρ from a user check here before they build.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidArg`] naming both limits — the most nodes
    /// `rho` allows and the largest ρ that `node_count` nodes allow — if
    /// the netlist does not fit.
    pub fn check_capacity(node_count: usize, rho: u32) -> Result<(), EngineError> {
        let max_nodes = Packing::new(rho).max_nodes();
        if node_count as u64 <= max_nodes {
            return Ok(());
        }
        // `node_count` ids need the bit width of `node_count − 1`; the
        // weight field may take the rest, so ρ − 1 < 2^(32 − id bits).
        let id_bits = u64::BITS - (node_count as u64 - 1).leading_zeros();
        let other = match u32::BITS.checked_sub(id_bits) {
            Some(free) => format!(
                "{node_count} nodes allow rho up to {}",
                (1u64 << free).min(u64::from(u32::MAX))
            ),
            None => format!("no rho allows more than {} nodes", 1u64 << u32::BITS),
        };
        Err(EngineError::InvalidArg(format!(
            "a gate separation table at rho {rho} holds at most {max_nodes} nodes, and this \
             netlist has {node_count}; {other}"
        )))
    }

    /// Estimates the entry count and the
    /// [`GateSeparationTable::memory_bytes`] of the `(netlist, rho)`
    /// table **without building it**: the gate rows of up to 32 evenly
    /// spaced gates, each one [`BoundedBfs`] run, give a mean row length
    /// that is extrapolated to every gate; the bytes count 4 per entry
    /// plus the exact offsets and totals.
    ///
    /// The estimate costs `O(V + E)` for the adjacency copy plus 32
    /// ρ-bounded BFS runs — orders of magnitude below the build — and is
    /// what the serving layer's tier planner consults before committing
    /// to a table under a memory ceiling or a deadline. Treat it as a
    /// planning signal within sampling error, not an exact quote. Zero
    /// for an empty netlist or `rho == 0`.
    #[must_use]
    pub fn estimate(netlist: &Netlist, rho: u32) -> TableEstimate {
        let n = netlist.node_count();
        if n == 0 || rho == 0 {
            return TableEstimate {
                entries: 0,
                bytes: 0,
            };
        }
        let gates: Vec<NodeId> = netlist.gate_ids().collect();
        let samples = gates.len().min(32);
        let stride = gates.len().checked_div(samples).unwrap_or(0);
        let mut bfs = BoundedBfs::new(netlist, rho);
        let mut row = Vec::new();
        let mut sampled = 0usize;
        for k in 0..samples {
            row.clear();
            bfs.row_into(gates[k * stride], &mut row);
            sampled += row
                .iter()
                .filter(|&&(v, _)| netlist.is_gate(NodeId(v)))
                .count();
        }
        let entries = (sampled * gates.len()).checked_div(samples).unwrap_or(0);
        TableEstimate {
            entries,
            bytes: entries * std::mem::size_of::<u32>()
                + (n + 1) * std::mem::size_of::<u32>()
                + n * std::mem::size_of::<u64>(),
        }
    }

    /// The table of maintained distance rows: `rows[i]` holds node `i`'s
    /// in-bound gate partners as `(partner, d)` with `1 ≤ d < ρ`, sorted
    /// by partner id (empty for primary inputs), the shape the
    /// patch-scored resynthesis evaluation keeps up to date. A search
    /// that ends holding exact rows hands them over this way instead of
    /// a second build: equal to [`GateSeparationTable::direct`] of the
    /// same structure entry for entry. Each row is packed and dropped as
    /// it is copied, so the peak stays near one copy of the entries.
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`, if `rows` has more nodes than a table at
    /// `rho` can pack ([`GateSeparationTable::check_capacity`]), if the
    /// rows hold more than `u32::MAX` entries, or (in debug builds) if a
    /// distance is out of `1..ρ` or a partner out of range of `rows`.
    #[must_use]
    pub fn from_distance_rows(rho: u32, rows: Vec<Vec<(u32, u32)>>) -> Self {
        assert!(rho > 0, "separation bound rho must be positive");
        let n = rows.len();
        let packing = Packing::fitting(n, rho);
        let mut entries = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for row in rows {
            entries.extend(row.into_iter().map(|(p, d)| {
                debug_assert!((1..rho).contains(&d), "distance {d} out of 1..{rho}");
                debug_assert!((p as usize) < n, "partner {p} out of {n} rows");
                packing.pack(p, rho - d)
            }));
            offsets.push(row_end(entries.len()));
        }
        GateSeparationTable::from_rows(rho, packing, offsets, entries)
    }

    /// Wraps built rows, storing each row's weight total for the O(1)
    /// [`GateSeparationTable::near_weight`]. A serially built entry
    /// vector keeps the spare capacity of its growth, which is never
    /// written and so takes no memory. Shrinking it would cost more: the
    /// allocator then maps every later build's entries fresh, and each
    /// build pays a page fault per 4 KiB of them again.
    fn from_rows(rho: u32, packing: Packing, offsets: Vec<u32>, entries: Vec<u32>) -> Self {
        let totals = offsets
            .windows(2)
            .map(|w| {
                entries[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|&e| u64::from(packing.unpack(e).1))
                    .sum()
            })
            .collect();
        GateSeparationTable {
            rho: u64::from(rho),
            packing,
            offsets,
            entries,
            totals,
        }
    }

    /// Memory the table occupies in bytes: 4 bytes per packed
    /// `(gate, ρ − d)` entry plus 4 per row offset and 8 per row total
    /// (the entry vector's unwritten spare capacity left out). At 10^6
    /// nodes this is the dominant analysis structure; see the crate
    /// docs' "memory layout & scale" section.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<u32>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.totals.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of `(gate, weight)` entries across all rows.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of nodes (rows) of the table's netlist.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.totals.len()
    }

    /// Saturated distance between two gates: `0` for `a == b`, `ρ − w`
    /// for a partner in `a`'s row, otherwise `ρ`. One binary search over
    /// the sorted row of `a`. A primary input has no row and is in none,
    /// so its distance to any other node reads as `ρ`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range of the table's netlist.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        let row = self.packed_row(a);
        let packing = self.packing;
        match row.binary_search_by_key(&b.0, |&e| packing.unpack(e).0) {
            Ok(k) => self.rho() - packing.unpack(row[k]).1,
            Err(_) => self.rho(),
        }
    }

    /// Module separation `S(M)` of a gate set by its pair sum: the sum
    /// over its unordered pairs of the saturated distance, `ρ − w` for a
    /// pair in the row and `ρ` for one outside it, quadratic in
    /// `|module|`. This is the slow reference that
    /// [`GateSeparationTable::partition_separations`], the linear kernel
    /// the evaluator scores with, is tested against.
    ///
    /// # Panics
    ///
    /// Panics if a member is out of range of the table's netlist.
    #[must_use]
    pub fn module_separation(&self, module: &[NodeId]) -> u64 {
        let mut sum = 0u64;
        for (i, &a) in module.iter().enumerate() {
            for &b in &module[i + 1..] {
                sum += u64::from(self.distance(a, b));
            }
        }
        sum
    }

    /// Module separation `S(M)` of every module of a partition, from the
    /// rows in `O(Σ row length of the members)` instead of the pair sum's
    /// `O(|M|²)` lookups. `assignment` holds each node's module index (one
    /// entry per node; any value outside `0..modules.len()` for nodes in
    /// no module), and `modules[m]` lists exactly the gates assigned `m`.
    ///
    /// Every pair of members is either in both members' rows, with the
    /// same weight `ρ − d` (the rows are symmetric), or in neither, at
    /// distance `ρ`. So with `W_in(M) = Σ_{g ∈ M} Σ_{n ∈ row(g) ∩ M}(ρ − d)`,
    /// each near pair counted once from each end,
    ///
    /// `S(M) = ρ·C(|M|, 2) − W_in(M) / 2`,
    ///
    /// the same integer as [`GateSeparationTable::module_separation`].
    ///
    /// # Panics
    ///
    /// Panics if a member or a row entry is out of range of `assignment`.
    #[must_use]
    pub fn partition_separations(&self, modules: &[Vec<NodeId>], assignment: &[u32]) -> Vec<u64> {
        let mask = self.packing.mask;
        modules
            .iter()
            .enumerate()
            .map(|(m, gates)| {
                let m = m as u32;
                let mut doubled = 0u64;
                for &g in gates {
                    debug_assert_eq!(assignment[g.index()], m, "gate {g} not in module {m}");
                    // The masked add of `member_weights`: membership is
                    // unpredictable, so no branch per entry. A row's
                    // weights sum below 2³² (see `Packing`).
                    let inside_row =
                        self.fold_row_owners(g, assignment, 0u32, |mut sum, owners, entries| {
                            for (&owner, &e) in owners.iter().zip(entries) {
                                sum += e & mask & 0u32.wrapping_sub(u32::from(owner == m));
                            }
                            sum
                        });
                    doubled += u64::from(inside_row);
                }
                debug_assert!(doubled.is_multiple_of(2), "asymmetric rows in module {m}");
                let size = gates.len() as u64;
                self.rho * (size * size.saturating_sub(1) / 2) - doubled / 2
            })
            .collect()
    }

    /// Total neighbour weight `W(g) = Σ_{g' gate, d(g,g') < ρ} (ρ − d)` of
    /// one gate's row (`0` for primary inputs).
    ///
    /// This is `W_in` of [`GateSeparationTable::partition_separations`]
    /// for a module that holds every gate: `S(M) = ρ·|pairs| − Σ_g W(g)/2`,
    /// the identity the patch-scored resynthesis evaluation maintains
    /// incrementally. `W(g)` also caps the weight `g` has to any one
    /// module, which is what the evolution's bound on a batch move's
    /// separation needs. O(1): the totals are stored when the table is
    /// built.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range of the table's netlist.
    #[must_use]
    pub fn near_weight(&self, gate: NodeId) -> u64 {
        self.totals[gate.index()]
    }

    /// One gate's full near row: its `(gate node index, ρ − d)` entries
    /// in ascending node index, decoded from the packed row as they are
    /// read, excluding the gate itself (empty for primary inputs). This
    /// is the seed of the incrementally maintained ΔW rows in the
    /// patch-scored resynthesis evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range of the table's netlist.
    pub fn row(&self, gate: NodeId) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
        let packing = self.packing;
        self.packed_row(gate)
            .iter()
            .map(move |&e| packing.unpack(e))
    }

    /// One gate's packed entries.
    fn packed_row(&self, gate: NodeId) -> &[u32] {
        let i = gate.index();
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Folds `gate`'s row in blocks of [`DECODE_BLOCK`] entries:
    /// `f(acc, owners, entries)` sees each partner's `assignment` value
    /// beside its packed entry. The partners are decoded in one pass and
    /// looked up in another, so `f`'s reduction over the two slices has
    /// no load it cannot vectorize; that keeps the row kernels as fast
    /// over packed entries as over `(u32, u32)` pairs, where a per-entry
    /// shift, lookup and masked add was not. The accumulator is passed by
    /// value so that it stays in registers.
    fn fold_row_owners<A>(
        &self,
        gate: NodeId,
        assignment: &[u32],
        init: A,
        f: impl Fn(A, &[u32], &[u32]) -> A,
    ) -> A {
        let shift = self.packing.shift;
        let mut owners = [0u32; DECODE_BLOCK];
        let mut acc = init;
        for entries in self.packed_row(gate).chunks(DECODE_BLOCK) {
            let owners = &mut owners[..entries.len()];
            for (owner, &e) in owners.iter_mut().zip(entries) {
                *owner = e >> shift;
            }
            for owner in owners.iter_mut() {
                *owner = assignment[*owner as usize];
            }
            acc = f(acc, owners, entries);
        }
        acc
    }

    /// Saturation bound ρ the table was built with.
    #[must_use]
    pub fn rho(&self) -> u32 {
        // The bound is stored widened for the weight arithmetic; it
        // originates from a `u32` constructor argument.
        self.rho as u32
    }

    /// Row weights `W(gate, M) = Σ_{n ∈ row ∩ M}(ρ − d)` from `gate` to the
    /// gates assigned to each of `modules` in `assignment` (one entry per
    /// node), in one branch-free scan of the row. The separation from
    /// `gate` to the members of `M` is then
    /// `ρ·(|M| − [gate ∈ M]) − W(gate, M)`, the pair sum of
    /// [`GateSeparationTable::distance`] over the members; a gate move
    /// needs it for its source and its target module at once.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range of the table's netlist.
    #[must_use]
    pub fn member_weights(&self, gate: NodeId, assignment: &[u32], modules: [u32; 2]) -> [u64; 2] {
        let [a, b] = modules;
        let mask = self.packing.mask;
        // Masked adds, not `if`s: membership is unpredictable, and a
        // branch per entry costs more than the row's memory traffic. A
        // row's weights sum below 2³² (see `Packing`), so `u32` sums
        // cannot overflow.
        let (wa, wb) = self.fold_row_owners(
            gate,
            assignment,
            (0u32, 0u32),
            |(mut wa, mut wb), owners, entries| {
                for (&owner, &e) in owners.iter().zip(entries) {
                    let w = e & mask;
                    wa += w & 0u32.wrapping_sub(u32::from(owner == a));
                    wb += w & 0u32.wrapping_sub(u32::from(owner == b));
                }
                (wa, wb)
            },
        );
        [u64::from(wa), u64::from(wb)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::graph::NetlistBuilder;
    use crate::kind::CellKind;

    fn chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut prev = b.add_input("i");
        for k in 0..n {
            prev = b
                .add_gate(format!("g{k}"), CellKind::Not, vec![prev])
                .unwrap();
        }
        b.mark_output(prev);
        b.build().unwrap()
    }

    /// The batched table and its one-BFS-per-gate reference, asserted
    /// equal.
    fn direct_and_reference(nl: &Netlist, rho: u32) -> GateSeparationTable {
        let table = GateSeparationTable::direct(nl, rho, 1);
        assert_eq!(
            table,
            GateSeparationTable::reference(nl, rho),
            "rho {rho} on {}",
            nl.name()
        );
        table
    }

    #[test]
    fn chain_distances() {
        let nl = chain(6);
        let table = direct_and_reference(&nl, 10);
        let g0 = nl.find("g0").unwrap();
        let g3 = nl.find("g3").unwrap();
        assert_eq!(table.distance(g0, g3), 3);
        assert_eq!(table.distance(g3, g0), 3); // symmetric
    }

    #[test]
    fn saturation_applies() {
        let nl = chain(10);
        let table = direct_and_reference(&nl, 3);
        let g0 = nl.find("g0").unwrap();
        let g1 = nl.find("g1").unwrap();
        let g2 = nl.find("g2").unwrap();
        let g9 = nl.find("g9").unwrap();
        assert_eq!(table.distance(g0, g1), 1);
        assert_eq!(table.distance(g0, g2), 2);
        assert_eq!(table.distance(g0, g9), 3); // saturated at rho
    }

    #[test]
    fn estimate_tracks_actual_footprint() {
        // On a regular structure (uniform ball sizes) the sampled
        // estimate should land within a factor of 2 of the real table.
        let nl = data::ripple_adder(64);
        for rho in [2u32, 4, 6] {
            let actual = GateSeparationTable::direct(&nl, rho, 1).memory_bytes();
            let est = GateSeparationTable::estimate(&nl, rho).bytes;
            assert!(
                est * 2 >= actual && est <= actual * 2,
                "rho={rho}: est={est} actual={actual}"
            );
        }
        assert_eq!(GateSeparationTable::estimate(&nl, 0).bytes, 0);
    }

    #[test]
    fn disconnected_gates_saturate() {
        let mut b = NetlistBuilder::new("two-islands");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let g1 = b.add_gate("g1", CellKind::Not, vec![a]).unwrap();
        let g2 = b.add_gate("g2", CellKind::Not, vec![c]).unwrap();
        b.mark_output(g1);
        b.mark_output(g2);
        let nl = b.build().unwrap();
        let table = direct_and_reference(&nl, 5);
        assert_eq!(table.distance(g1, g2), 5);
        assert_eq!(table.module_separation(&[g1, g2]), 5);
    }

    #[test]
    fn module_separation_clique_is_minimal() {
        // In c17, gates {10, 16, 22} form a path (10-22 direct, 16-22
        // direct, 10-16 via 22 or via PI 3/11...). Compare with a spread
        // module.
        let nl = data::c17();
        let table = direct_and_reference(&nl, 6);
        let m_tight: Vec<NodeId> = ["10", "16", "22"]
            .iter()
            .map(|n| nl.find(n).unwrap())
            .collect();
        let m_spread: Vec<NodeId> = ["10", "19", "23"]
            .iter()
            .map(|n| nl.find(n).unwrap())
            .collect();
        assert!(table.module_separation(&m_tight) <= table.module_separation(&m_spread));
    }

    #[test]
    fn incremental_primitive_matches_full() {
        let nl = data::c17();
        let table = direct_and_reference(&nl, 6);
        let all: Vec<NodeId> = nl.gate_ids().collect();
        let (g, rest) = all.split_first().unwrap();
        let mut assignment = vec![u32::MAX; nl.node_count()];
        for r in rest {
            assignment[r.index()] = 0;
        }
        let [w, _] = table.member_weights(*g, &assignment, [0, 1]);
        let delta = u64::from(table.rho()) * rest.len() as u64 - w;
        assert_eq!(
            table.module_separation(&all),
            table.module_separation(rest) + delta
        );
    }

    #[test]
    fn member_weights_match_the_pair_sum() {
        let nl = data::ripple_adder(6);
        let table = GateSeparationTable::direct(&nl, 6, 1);
        let reference = GateSeparationTable::reference(&nl, 6);
        let gates: Vec<NodeId> = nl.gate_ids().collect();
        // Assign gates round-robin to three modules; inputs stay u32::MAX.
        let mut assignment = vec![u32::MAX; nl.node_count()];
        for (k, &g) in gates.iter().enumerate() {
            assignment[g.index()] = (k % 3) as u32;
        }
        for module in 0..3u32 {
            let members: Vec<NodeId> = gates
                .iter()
                .copied()
                .filter(|g| assignment[g.index()] == module)
                .collect();
            for &g in &gates {
                let includes = assignment[g.index()] == module;
                let want: u64 = members
                    .iter()
                    .map(|&m| u64::from(reference.distance(g, m)))
                    .sum();
                let other = (module + 1) % 3;
                let [w, w_other] = table.member_weights(g, &assignment, [module, other]);
                let got = u64::from(table.rho()) * (members.len() as u64 - u64::from(includes)) - w;
                assert_eq!(want, got, "gate {g} module {module}");
                let [w_swapped, _] = table.member_weights(g, &assignment, [other, module]);
                assert_eq!(w_other, w_swapped, "gate {g} module {other}");
            }
        }
    }

    #[test]
    fn direct_build_matches_reference_build() {
        for rho in [1, 2, 3, 5, 6, 9] {
            for nl in [data::c17(), data::ripple_adder(8), chain(12)] {
                direct_and_reference(&nl, rho);
            }
        }
    }

    #[test]
    fn huge_rho_fallback_matches_reference() {
        // rho > 256 exceeds the batched engine's u8 arrival levels and
        // takes the scalar per-source path — rows must be identical.
        let nl = chain(12);
        let fallback = direct_and_reference(&nl, 300);
        let g0 = nl.find("g0").unwrap();
        let g9 = nl.find("g9").unwrap();
        assert_eq!(fallback.distance(g0, g9), 9);
        assert_eq!(GateSeparationTable::direct(&nl, 300, 2), fallback);
    }

    #[test]
    fn parallel_build_matches_serial_build() {
        let nl = data::ripple_adder(9);
        let serial = GateSeparationTable::direct(&nl, 6, 1);
        for threads in [2, 3, 7, 64] {
            assert_eq!(
                GateSeparationTable::direct(&nl, 6, threads),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn near_weight_is_the_row_sum() {
        let nl = data::ripple_adder(8);
        for table in [
            GateSeparationTable::direct(&nl, 6, 2),
            GateSeparationTable::reference(&nl, 6),
        ] {
            for id in nl.node_ids() {
                let sum: u64 = table.row(id).map(|(_, w)| u64::from(w)).sum();
                assert_eq!(table.near_weight(id), sum, "node {id}");
            }
        }
    }

    #[test]
    fn distance_zero_to_self() {
        let nl = chain(2);
        let table = direct_and_reference(&nl, 4);
        let g0 = nl.find("g0").unwrap();
        assert_eq!(table.distance(g0, g0), 0);
        assert_eq!(table.module_separation(&[g0]), 0);
    }

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn zero_rho_panics_in_direct_table() {
        let nl = chain(2);
        let _ = GateSeparationTable::direct(&nl, 0, 1);
    }

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn zero_rho_panics_in_reference_table() {
        let nl = chain(2);
        let _ = GateSeparationTable::reference(&nl, 0);
    }

    #[test]
    fn rho_one_saturates_everything_but_self() {
        let nl = chain(3);
        let table = direct_and_reference(&nl, 1);
        assert_eq!(table.entry_count(), 0);
        let g0 = nl.find("g0").unwrap();
        let g1 = nl.find("g1").unwrap();
        assert_eq!(table.distance(g0, g1), 1); // adjacent but saturated to rho=1
        assert_eq!(table.distance(g0, g0), 0);
    }

    #[test]
    fn memory_bytes_accounts_entries_and_offsets() {
        // Exactly sized, from both the serial and the stitched build.
        for nl in [data::ripple_adder(8), chain(200)] {
            let n = nl.node_count();
            for threads in [1, 3] {
                let table = GateSeparationTable::direct(&nl, 6, threads);
                assert_eq!(
                    table.memory_bytes(),
                    4 * table.entry_count() + 4 * (n + 1) + 8 * n,
                    "{} at {threads} threads",
                    nl.name()
                );
            }
        }
    }

    #[test]
    fn packed_entries_round_trip_at_the_field_limits() {
        for (rho, shift) in [(2u32, 1u32), (6, 3), (256, 8), (300, 9)] {
            let packing = Packing::new(rho);
            assert_eq!(packing.shift, shift, "rho {rho}");
            assert_eq!(packing.max_nodes(), 1u64 << (32 - shift), "rho {rho}");
            let last = u32::try_from(packing.max_nodes() - 1).unwrap();
            // The partner holds the high bits: packed order is partner
            // order whatever the weights.
            assert!(packing.pack(1, rho - 1) < packing.pack(2, 1));
            // Row 0 reaches node 1 at the largest weight and the largest
            // id at the smallest; the ids are decoded, not indexed.
            let entries = vec![packing.pack(1, rho - 1), packing.pack(last, 1)];
            let table = GateSeparationTable::from_rows(rho, packing, vec![0, 2, 2], entries);
            let row: Vec<(u32, u32)> = table.row(NodeId(0)).collect();
            assert_eq!(row, [(1, rho - 1), (last, 1)], "rho {rho}");
            assert_eq!(table.row(NodeId(0)).len(), 2);
            assert_eq!(table.distance(NodeId(0), NodeId(1)), 1, "rho {rho}");
            assert_eq!(table.distance(NodeId(0), NodeId(last)), rho - 1);
            assert_eq!(table.distance(NodeId(0), NodeId(last - 1)), rho);
            assert_eq!(table.near_weight(NodeId(0)), u64::from(rho));
            assert_eq!(table.row(NodeId(1)).len(), 0);
        }
    }

    #[test]
    fn capacity_check_agrees_with_the_field_split() {
        let bounds = [
            1u32,
            2,
            6,
            8,
            9,
            256,
            257,
            300,
            1 << 30,
            (1 << 31) + 1,
            u32::MAX,
        ];
        for rho in bounds {
            let max = Packing::new(rho).max_nodes();
            let fits = usize::try_from(max).unwrap();
            assert!(
                GateSeparationTable::check_capacity(fits, rho).is_ok(),
                "rho {rho}"
            );
            let err = GateSeparationTable::check_capacity(fits + 1, rho).unwrap_err();
            assert!(err.is_usage(), "rho {rho}: {err}");
            let message = err.to_string();
            assert!(
                message.contains(&format!("at rho {rho} holds at most {max} nodes")),
                "{message}"
            );
            // The largest bound it names does fit, and one more does not
            // (past 2³² nodes no bound fits: the ids are `u32`).
            match message.split("allow rho up to ").nth(1) {
                Some(allowed) => {
                    let allowed: u32 = allowed.parse().unwrap();
                    assert!(GateSeparationTable::check_capacity(fits + 1, allowed).is_ok());
                    assert!(GateSeparationTable::check_capacity(fits + 1, allowed + 1).is_err());
                }
                None => assert_eq!(rho, 1, "{message}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "holds at most 2 nodes, and this netlist has 4")]
    fn unpackable_netlist_panics_in_direct_table() {
        let _ = GateSeparationTable::direct(&chain(3), (1 << 30) + 1, 1);
    }
}
