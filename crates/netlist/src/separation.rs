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
//! [`SeparationOracle`] precomputes, once per netlist, the ρ-bounded BFS
//! neighbourhood of every node, stored as one flat `(flat, offsets)` CSR
//! table of `(node, distance)` rows sorted by node id —
//! [`SeparationOracle::distance`] is a binary search over a short
//! contiguous row, and full-neighbourhood scans
//! ([`SeparationOracle::near_slice`]) are a pointer bump.
//!
//! The build is **flat, bit-parallel and array-based**:
//!
//! * the undirected adjacency (fan-in ∪ fanout) is copied once into a CSR
//!   `(offsets, pool)` pair, so the traversal reads contiguous memory
//!   instead of chasing the netlist's per-node `Vec`s;
//! * sources are processed in **batches of 64** ([`BatchScratch`]): each
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
//! hundreds of nodes this is an order of magnitude below even a tight
//! scalar BFS per node, and far below the historical per-node `HashMap`
//! build, which is kept as [`SeparationOracle::new_reference`] — the
//! differential oracle the property tests compare against bit for bit.
//! (For the degenerate `ρ > 256` the arrival level no longer fits the
//! batch table's `u8` and the build falls back to a scalar
//! epoch-stamped/ball-bitset BFS per source, [`BfsScratch`] — same rows,
//! also covered by the equality tests.)
//!
//! Batches are independent, so [`SeparationOracle::new_parallel`] shards
//! the node range across worker threads (each with its own scratch) and
//! stitches the per-shard CSR segments back together in node order — the
//! result is **bit-identical** to the serial build for every thread
//! count.
//!
//! [`GateSeparationTable`] is the gate-only `ρ − d` neighbour-weight
//! distillation the optimizers scan; [`GateSeparationTable::direct`]
//! builds it straight from the netlist without materializing the full
//! (input-polluted) oracle — the `GateSep` analysis tier of
//! `iddq_core::context`.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use iddq_control::{Outcome, RunControl, StopReason};

use crate::graph::{Netlist, NodeId};

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
    fn emit(&mut self, out: &mut Vec<(u32, u32)>, map: impl Fn(u32, u32) -> (u32, u32)) {
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

    /// One oracle row: every `(node, distance)` of the ball, sorted by
    /// node id.
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
    /// partners as `(node, rho - distance)` weight pairs, sorted by node
    /// id — bit-identical to distilling the same row from a full oracle.
    fn gate_row_into(
        &mut self,
        src: u32,
        rho: u32,
        adj_offsets: &[u32],
        adj_pool: &[u32],
        is_gate: &[bool],
        out: &mut Vec<(u32, u32)>,
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
        self.emit(out, |v, d| (v, rho - d));
    }
}

/// One source's ρ-bounded neighbourhood at a time, for callers that need
/// only a few rows: the flat undirected adjacency is copied once, and each
/// [`BoundedBfs::row_into`] runs a single truncated BFS. A row equals the
/// same source's [`SeparationOracle::near_slice`] entry for entry (sorted
/// by node id, the source itself excluded), without building the table.
///
/// ```rust
/// use iddq_netlist::data;
/// use iddq_netlist::separation::{BoundedBfs, SeparationOracle};
///
/// let c17 = data::c17();
/// let g10 = c17.find("10").unwrap();
/// let mut row = Vec::new();
/// BoundedBfs::new(&c17, 4).row_into(g10, &mut row);
/// assert_eq!(row, SeparationOracle::new(&c17, 4).near_slice(g10));
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
/// collapses 64-fold, which is what makes the oracle build cheap on
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
    /// with no comparison sort; `map` then filters/transforms each
    /// `(node, distance)` pair row by row. A source's own node is skipped.
    fn emit_rows(
        &mut self,
        sources: &[(u32, bool)],
        out: &mut Vec<(u32, u32)>,
        ends: &mut Vec<u32>,
        mut map: impl FnMut(u32, u32) -> Option<(u32, u32)>,
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
                // One push per entry grows `out` exactly as the row-by-row
                // emission did: table capacities are part of what callers
                // account for.
                for &v in &self.rows[start[k] as usize..start[k + 1] as usize] {
                    if let Some(pair) = map(v, u32::from(self.dist[v as usize * 64 + i])) {
                        out.push(pair);
                    }
                }
                ends.push(out.len() as u32);
            }
        }
    }
}

/// Batch columns [`BatchScratch::emit_rows`] deals per pass over the node
/// space: a quarter of a batch keeps its row buffer small (a quarter of
/// the batch's entries) for four short passes.
const EMIT_GROUP: usize = 16;

/// One shard's build output: its flat rows plus shard-relative row ends.
type CsrShard = (Vec<(u32, u32)>, Vec<u32>);

/// Builds a CSR `(flat, offsets)` pair over `n` rows by calling
/// `build(range, flat_out)` per contiguous shard — serially for
/// `threads <= 1`, otherwise on scoped worker threads with the shards
/// stitched back in row order (bit-identical to the serial result, since
/// each row's content is independent of the sharding).
///
/// `build` appends its rows to the output vector and pushes one
/// *shard-relative* end offset per row.
fn build_csr_rows<F>(n: usize, threads: usize, build: F) -> (Vec<(u32, u32)>, Vec<u32>)
where
    F: Fn(Range<usize>, &mut Vec<(u32, u32)>, &mut Vec<u32>) + Sync,
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
    let mut flat = Vec::with_capacity(total);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    for (part, ends) in parts {
        let base = flat.len() as u32;
        offsets.extend(ends.into_iter().map(|e| base + e));
        flat.extend(part);
    }
    (flat, offsets)
}

/// [`build_csr_rows`] with a worker-boundary panic guard: a shard whose
/// build panics contributes empty rows (shard-relative end offsets of 0)
/// instead of tearing the process down, and the flag records that it
/// happened. Used by the control-aware oracle build, whose `Partial`
/// contract gives the empty rows a meaning (unfinished = saturated).
fn build_csr_rows_guarded<F>(
    n: usize,
    threads: usize,
    panicked: &AtomicBool,
    build: F,
) -> (Vec<(u32, u32)>, Vec<u32>)
where
    F: Fn(Range<usize>, &mut Vec<(u32, u32)>, &mut Vec<u32>) + Sync,
{
    build_csr_rows(n, threads, |range, flat, ends| {
        let rows = range.len();
        let flat0 = flat.len();
        let ends0 = ends.len();
        if catch_unwind(AssertUnwindSafe(|| build(range.clone(), flat, ends))).is_err() {
            panicked.store(true, Ordering::Relaxed);
            flat.truncate(flat0);
            ends.truncate(ends0);
            let base = flat.len() as u32;
            ends.extend((0..rows).map(|_| base));
        }
    })
}

/// Precomputed ρ-bounded pairwise distances over the undirected circuit
/// graph, stored as one flat CSR table of sorted `(node, distance)` rows.
///
/// # Example
///
/// ```rust
/// use iddq_netlist::{data, separation::SeparationOracle};
///
/// let c17 = data::c17();
/// let sep = SeparationOracle::new(&c17, 4);
/// let g10 = c17.find("10").unwrap();
/// let g22 = c17.find("22").unwrap();
/// assert_eq!(sep.distance(g10, g22), 1); // directly connected
/// assert_eq!(sep.distance(g10, g10), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeparationOracle {
    rho: u32,
    /// Per-node neighbourhoods as flat `(node, distance)` pairs, sorted by
    /// node id (CSR layout). Distance 0 (self) and ≥ ρ (saturated) are
    /// implicit.
    flat: Vec<(u32, u32)>,
    offsets: Vec<u32>,
}

impl SeparationOracle {
    /// Builds the oracle for `netlist` with saturation bound `rho` using
    /// the flat array BFS engine (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`; a zero bound would make every pair identical.
    #[must_use]
    pub fn new(netlist: &Netlist, rho: u32) -> Self {
        Self::new_parallel(netlist, rho, 1)
    }

    /// [`SeparationOracle::new`] with the per-node BFS sharded across
    /// `threads` workers. The shards are stitched deterministically in
    /// node order, so the result is **bit-identical** to the serial build
    /// for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`.
    #[must_use]
    pub fn new_parallel(netlist: &Netlist, rho: u32, threads: usize) -> Self {
        Self::new_parallel_with_control(netlist, rho, threads, &RunControl::unlimited())
            .into_value()
    }

    /// [`SeparationOracle::new_parallel`] under an
    /// [`iddq_control::RunControl`]: cancellable, budget-aware, and
    /// panic-isolated.
    ///
    /// Workers poll the control at every 64-source batch boundary and
    /// charge one work unit per source row built. Each worker checks the
    /// budget independently, so a quota of `q` rows may be overshot by
    /// up to one batch per worker: at most `q + threads × 64` rows are
    /// built before the stop. On a stop the function
    /// returns [`Outcome::Partial`]: rows built so far are exact, rows
    /// not yet built are *empty* — [`SeparationOracle::distance`] then
    /// reports the saturated bound `ρ` for their pairs, a sound
    /// (pessimistic) default for the cost model. `coverage` is the
    /// fraction of node rows completed. A panicking BFS shard likewise
    /// degrades to `Partial` with [`StopReason::WorkerPanicked`] instead
    /// of aborting the process.
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`.
    #[must_use]
    pub fn new_parallel_with_control(
        netlist: &Netlist,
        rho: u32,
        threads: usize,
        control: &RunControl,
    ) -> Outcome<Self> {
        assert!(rho > 0, "separation bound rho must be positive");
        let n = netlist.node_count();
        let (adj_offsets, adj_pool) = undirected_csr(netlist);
        let completed = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        let (flat, offsets) = build_csr_rows_guarded(n, threads, &panicked, |range, flat, ends| {
            if rho <= 256 {
                let mut scratch = BatchScratch::new(n);
                let mut start = range.start;
                while start < range.end {
                    if control.check().is_some() {
                        // Pad the unfinished rows empty (= saturated) and
                        // leave them uncounted.
                        ends.extend((start..range.end).map(|_| flat.len() as u32));
                        return;
                    }
                    let batch: Vec<(u32, bool)> = (start..(start + 64).min(range.end))
                        .map(|i| (i as u32, true))
                        .collect();
                    scratch.run(&batch, rho, &adj_offsets, &adj_pool);
                    scratch.emit_rows(&batch, flat, ends, |v, d| Some((v, d)));
                    completed.fetch_add(batch.len(), Ordering::Relaxed);
                    control.charge(batch.len() as u64);
                    start += batch.len();
                }
            } else {
                // Arrival levels no longer fit the batched engine's u8
                // columns: per-source scalar BFS (same rows, see the
                // equality tests).
                let mut scratch = BfsScratch::new(n);
                for i in range.clone() {
                    if control.check().is_some() {
                        ends.extend((i..range.end).map(|_| flat.len() as u32));
                        return;
                    }
                    scratch.row_into(i as u32, rho, &adj_offsets, &adj_pool, flat);
                    ends.push(flat.len() as u32);
                    completed.fetch_add(1, Ordering::Relaxed);
                    control.charge(1);
                }
            }
        });
        let value = SeparationOracle { rho, flat, offsets };
        let done = completed.load(Ordering::Relaxed);
        if done >= n && !panicked.load(Ordering::Relaxed) {
            Outcome::Complete(value)
        } else {
            let reason = control
                .check()
                .or(if panicked.load(Ordering::Relaxed) {
                    Some(StopReason::WorkerPanicked)
                } else {
                    None
                })
                .unwrap_or(StopReason::WorkerPanicked);
            Outcome::Partial {
                value,
                coverage: if n == 0 { 1.0 } else { done as f64 / n as f64 },
                reason,
            }
        }
    }

    /// Memory-lean **streamed** build for large `V·ρ` tables: one 64-batch
    /// loop appends rows directly into the flat table (no per-shard
    /// vectors, no stitch copy), the flat vector is pre-reserved from a
    /// sampled row-length estimate (so growth doubling never overshoots
    /// the final size by 2x), and the scratch footprint stays at one
    /// `BatchScratch` (`~66·V` bytes) regardless of circuit size.
    ///
    /// Peak resident memory is therefore `final table + one scratch`,
    /// where the sharded parallel build peaks near *twice* the table (all
    /// shard outputs live while they are stitched) plus one scratch per
    /// worker. The price is serial row construction — use this when the
    /// table dominates RAM, the parallel build when CPU time does.
    /// [`iddq_core`'s context builder](../../iddq_core/context/index.html)
    /// switches to this build automatically once `V·ρ` crosses its
    /// streaming threshold.
    ///
    /// Same control contract as
    /// [`SeparationOracle::new_parallel_with_control`]: rows are charged
    /// to the budget as they are built, a stop pads the remaining rows
    /// empty (= saturated) and returns [`Outcome::Partial`]. The completed
    /// result is **bit-identical** to [`SeparationOracle::new`].
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`.
    #[must_use]
    pub fn new_streamed_with_control(
        netlist: &Netlist,
        rho: u32,
        control: &RunControl,
    ) -> Outcome<Self> {
        assert!(rho > 0, "separation bound rho must be positive");
        let n = netlist.node_count();
        let (adj_offsets, adj_pool) = undirected_csr(netlist);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut flat: Vec<(u32, u32)> = Vec::new();
        let mut done = 0usize;
        let mut stopped = false;
        if rho <= 256 {
            let mut scratch = BatchScratch::new(n);
            // Estimate the mean row length from one evenly spaced sample
            // batch, then reserve the flat table once (a sample batch
            // costs the same as any other batch — O(ρ·(V+E)) words).
            if n > 64 {
                let stride = n / 64;
                let sample: Vec<(u32, bool)> =
                    (0..64).map(|k| ((k * stride) as u32, true)).collect();
                scratch.run(&sample, rho, &adj_offsets, &adj_pool);
                let mut sampled = 0usize;
                scratch.emit_rows(&sample, &mut Vec::new(), &mut Vec::new(), |_, _| {
                    sampled += 1;
                    None
                });
                // 9/8 headroom over the sampled mean; shrink_to_fit below
                // returns any excess.
                flat.reserve(sampled * n / 64 + sampled * n / 512 + 64);
            }
            let mut start = 0usize;
            while start < n {
                if control.check().is_some() {
                    stopped = true;
                    break;
                }
                let batch: Vec<(u32, bool)> = (start..(start + 64).min(n))
                    .map(|i| (i as u32, true))
                    .collect();
                scratch.run(&batch, rho, &adj_offsets, &adj_pool);
                scratch.emit_rows(&batch, &mut flat, &mut offsets, |v, d| Some((v, d)));
                done += batch.len();
                control.charge(batch.len() as u64);
                start += batch.len();
            }
        } else {
            let mut scratch = BfsScratch::new(n);
            for i in 0..n {
                if control.check().is_some() {
                    stopped = true;
                    break;
                }
                scratch.row_into(i as u32, rho, &adj_offsets, &adj_pool, &mut flat);
                offsets.push(flat.len() as u32);
                done += 1;
                control.charge(1);
            }
        }
        if stopped {
            // Unbuilt rows stay empty: distance() saturates them to rho.
            let end = flat.len() as u32;
            offsets.extend((done..n).map(|_| end));
        }
        flat.shrink_to_fit();
        let value = SeparationOracle { rho, flat, offsets };
        if done >= n {
            Outcome::Complete(value)
        } else {
            Outcome::Partial {
                value,
                coverage: if n == 0 { 1.0 } else { done as f64 / n as f64 },
                reason: control.check().unwrap_or(StopReason::Cancelled),
            }
        }
    }

    /// Heap footprint of the table in bytes: 8 bytes per `(node,
    /// distance)` entry plus 4 per row offset. At 10^6 nodes and ρ = 5
    /// this is the dominant analysis structure; see the crate docs'
    /// "memory layout & scale" section for the full per-gate budget.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.flat.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
    }

    /// Number of `(node, distance)` entries across all rows.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.flat.len()
    }

    /// Estimates the heap footprint a full `(netlist, rho)` table would
    /// occupy **without building it**, by running the bounded BFS from a
    /// small evenly spaced sample of sources (≤ 32) and extrapolating the
    /// mean ball size to all `V` rows.
    ///
    /// The estimate costs `O(V + E)` for the adjacency copy plus 32
    /// ρ-bounded BFS runs — orders of magnitude below the `O(V · ball)`
    /// build — and is what the serving layer's admission/degradation
    /// logic consults before committing to a [`Separation`-tier]
    /// (crate::separation) context under a memory ceiling. Accuracy is
    /// within sampling error of the true mean ball size; treat it as a
    /// planning signal, not an exact quote.
    #[must_use]
    pub fn estimate_bytes(netlist: &Netlist, rho: u32) -> usize {
        let n = netlist.node_count();
        if n == 0 || rho == 0 {
            return 0;
        }
        let samples = n.min(32);
        let stride = n / samples;
        let mut bfs = BoundedBfs::new(netlist, rho);
        let mut flat: Vec<(u32, u32)> = Vec::new();
        let mut sampled_entries = 0usize;
        for k in 0..samples {
            flat.clear();
            bfs.row_into(NodeId((k * stride) as u32), &mut flat);
            sampled_entries += flat.len();
        }
        let mean_row = sampled_entries as f64 / samples as f64;
        let entries = (mean_row * n as f64) as usize;
        entries * std::mem::size_of::<(u32, u32)>() + (n + 1) * std::mem::size_of::<u32>()
    }

    /// The historical per-node `HashMap` BFS build (the PR 4 constructor),
    /// kept as the **differential oracle**: it must produce a table equal
    /// to [`SeparationOracle::new`] bit for bit (property-tested), and the
    /// `context_build` benchmark quotes it as the baseline the flat
    /// engine is gated against.
    #[must_use]
    pub fn new_reference(netlist: &Netlist, rho: u32) -> Self {
        assert!(rho > 0, "separation bound rho must be positive");
        let n = netlist.node_count();
        let mut near: Vec<HashMap<NodeId, u32>> = Vec::with_capacity(n);
        let mut dist = vec![u32::MAX; n];
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut next: Vec<NodeId> = Vec::new();
        let mut touched: Vec<NodeId> = Vec::new();

        for id in netlist.node_ids() {
            let mut map = HashMap::new();
            dist[id.index()] = 0;
            touched.push(id);
            frontier.clear();
            frontier.push(id);
            let mut d = 0u32;
            while !frontier.is_empty() && d + 1 < rho {
                d += 1;
                next.clear();
                for &u in &frontier {
                    for v in netlist.undirected_neighbors(u) {
                        if dist[v.index()] == u32::MAX {
                            dist[v.index()] = d;
                            touched.push(v);
                            next.push(v);
                            map.insert(v, d);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
            }
            for t in touched.drain(..) {
                dist[t.index()] = u32::MAX;
            }
            near.push(map);
        }
        let mut flat = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for map in &near {
            let start = flat.len();
            flat.extend(map.iter().map(|(&node, &d)| (node.0, d)));
            flat[start..].sort_unstable_by_key(|&(node, _)| node);
            offsets.push(flat.len() as u32);
        }
        SeparationOracle { rho, flat, offsets }
    }

    /// The precomputed neighbourhood of `a` as a flat slice of
    /// `(node index, distance)` pairs, sorted by node index.
    #[must_use]
    pub fn near_slice(&self, a: NodeId) -> &[(u32, u32)] {
        let i = a.index();
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The saturation bound ρ.
    #[must_use]
    pub fn rho(&self) -> u32 {
        self.rho
    }

    /// Saturated distance between two nodes: `0` for `a == b`, the BFS
    /// distance if it is `< ρ`, otherwise `ρ`.
    ///
    /// One binary search over the sorted neighbourhood row of `a`.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        let row = self.near_slice(a);
        match row.binary_search_by_key(&b.0, |&(node, _)| node) {
            Ok(i) => row[i].1,
            Err(_) => self.rho,
        }
    }

    /// Module separation `S(M)`: the sum of saturated distances over all
    /// unordered gate pairs of `module`.
    ///
    /// Quadratic in `|module|`, as the paper notes; module sizes stay small
    /// in practice.
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

    /// All nodes strictly within the saturation bound of `a` (distance
    /// `1..rho`), in ascending node-id order with their distances.
    ///
    /// This exposes the BFS neighbourhoods the oracle already computed, so
    /// callers sampling "nearby" nodes (e.g. bridge-defect enumeration) can
    /// iterate candidates directly instead of testing every node pair.
    #[must_use]
    pub fn neighbors_within(&self, a: NodeId) -> Vec<(NodeId, u32)> {
        self.near_slice(a)
            .iter()
            .map(|&(n, d)| (NodeId(n), d))
            .collect()
    }

    /// Sum of saturated distances from `gate` to every member of `module`
    /// (skipping `gate` itself if present).
    ///
    /// This is the incremental-update primitive: moving a gate between
    /// modules changes `S` by exactly `delta_to(module_new) -
    /// delta_to(module_old)`.
    #[must_use]
    pub fn separation_to_module(&self, gate: NodeId, module: &[NodeId]) -> u64 {
        module
            .iter()
            .filter(|&&m| m != gate)
            .map(|&m| u64::from(self.distance(gate, m)))
            .sum()
    }

    /// Distills the oracle into a gate-only neighbour-weight table for the
    /// optimizer's incremental separation deltas (see
    /// [`GateSeparationTable`]).
    ///
    /// When no full oracle is needed, [`GateSeparationTable::direct`]
    /// builds an equal table straight from the netlist.
    #[must_use]
    pub fn gate_table(&self, netlist: &Netlist) -> GateSeparationTable {
        let is_gate: Vec<bool> = netlist.node_ids().map(|id| netlist.is_gate(id)).collect();
        let mut entries = Vec::with_capacity(self.flat.len());
        let mut offsets = Vec::with_capacity(netlist.node_count() + 1);
        offsets.push(0u32);
        for id in netlist.node_ids() {
            if is_gate[id.index()] {
                entries.extend(
                    self.near_slice(id)
                        .iter()
                        .filter(|&&(n, _)| n != id.0 && is_gate[n as usize])
                        .map(|&(n, d)| (n, self.rho - d)),
                );
            }
            offsets.push(entries.len() as u32);
        }
        GateSeparationTable::from_rows(u64::from(self.rho), offsets, entries)
    }

    /// [`SeparationOracle::separation_to_module`] by membership test
    /// instead of member list: every member outside the gate's bounded
    /// neighbourhood contributes the saturated ρ, so the sum is
    /// `ρ·(members − [gate is one]) − Σ_{near ∩ module}(ρ − d)` — one
    /// cache-friendly scan of the precomputed neighbourhood with O(1)
    /// membership tests, independent of the module size.
    ///
    /// `member_count` is the module's size and `includes_gate` whether
    /// `gate` itself is currently a member (it contributes 0 either way,
    /// matching [`SeparationOracle::separation_to_module`]).
    #[must_use]
    pub fn separation_to_members(
        &self,
        gate: NodeId,
        member_count: usize,
        includes_gate: bool,
        mut is_member: impl FnMut(NodeId) -> bool,
    ) -> u64 {
        let mut sum = u64::from(self.rho) * (member_count as u64 - u64::from(includes_gate));
        for &(n, d) in self.near_slice(gate) {
            if n != gate.0 && is_member(NodeId(n)) {
                sum -= u64::from(self.rho - d);
            }
        }
        sum
    }
}

/// Flattened gate-to-gate neighbour weights for O(neighbourhood)
/// separation deltas against a dense module-assignment vector.
///
/// Built either by distilling a [`SeparationOracle`]
/// ([`SeparationOracle::gate_table`]) or directly from the netlist
/// ([`GateSeparationTable::direct`] — no oracle materialized); each
/// gate's row holds only its *gate* neighbours within the bound,
/// pre-weighted as `ρ − d`, so the incremental primitive
///
/// `S(gate → module) = ρ·(|module| − [gate ∈ module]) − Σ_{near ∩ module}(ρ − d)`
///
/// becomes one contiguous scan with direct `assignment[n] == module` tests
/// — no hashing, no primary-input entries to skip, no closure dispatch.
/// Results are bit-identical to
/// [`SeparationOracle::separation_to_members`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateSeparationTable {
    rho: u64,
    offsets: Vec<u32>,
    /// `(gate node index, rho - distance)` per in-bound gate neighbour.
    entries: Vec<(u32, u32)>,
    /// Per node, the sum of its row's weights ([`Self::near_weight`]).
    totals: Vec<u64>,
}

impl GateSeparationTable {
    /// Builds the table straight from the netlist — one gate-filtered
    /// bounded BFS per gate over the flat undirected adjacency, without
    /// materializing the full (input-row-carrying) [`SeparationOracle`].
    /// Equal to `SeparationOracle::new(netlist, rho).gate_table(netlist)`
    /// entry for entry (property-tested), at a fraction of the build cost
    /// and footprint. `threads > 1` shards the per-gate BFS exactly like
    /// [`SeparationOracle::new_parallel`] (bit-identical result).
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`.
    #[must_use]
    pub fn direct(netlist: &Netlist, rho: u32, threads: usize) -> Self {
        assert!(rho > 0, "separation bound rho must be positive");
        let n = netlist.node_count();
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
                        is_gate[v as usize].then_some((v, rho - d))
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
                            entries,
                        );
                    }
                    ends.push(entries.len() as u32);
                }
            }
        });
        GateSeparationTable::from_rows(u64::from(rho), offsets, entries)
    }

    /// The table of maintained distance rows: `rows[i]` holds node `i`'s
    /// in-bound gate partners as `(partner, d)` with `1 ≤ d < ρ`, sorted
    /// by partner id (empty for primary inputs), the shape the
    /// patch-scored resynthesis evaluation keeps up to date. A search
    /// that ends holding exact rows hands them over this way instead of
    /// a second build: equal to [`GateSeparationTable::direct`] of the
    /// same structure entry for entry. Each row is dropped once copied,
    /// so the peak stays near one copy of the entries.
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`, or (in debug builds) if a distance is out
    /// of `1..ρ`.
    #[must_use]
    pub fn from_distance_rows(rho: u32, rows: Vec<Vec<(u32, u32)>>) -> Self {
        assert!(rho > 0, "separation bound rho must be positive");
        let mut entries = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u32);
        for row in rows {
            entries.extend(row.into_iter().map(|(p, d)| {
                debug_assert!((1..rho).contains(&d), "distance {d} out of 1..{rho}");
                (p, rho - d)
            }));
            offsets.push(entries.len() as u32);
        }
        GateSeparationTable::from_rows(u64::from(rho), offsets, entries)
    }

    /// Wraps built rows, storing each row's weight total for the O(1)
    /// [`GateSeparationTable::near_weight`].
    fn from_rows(rho: u64, offsets: Vec<u32>, entries: Vec<(u32, u32)>) -> Self {
        let totals = offsets
            .windows(2)
            .map(|w| {
                entries[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|&(_, d)| u64::from(d))
                    .sum()
            })
            .collect();
        GateSeparationTable {
            rho,
            offsets,
            entries,
            totals,
        }
    }

    /// Heap footprint of the table in bytes: 8 bytes per `(gate, weight)`
    /// entry plus 4 per row offset and 8 per row total.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u32, u32)>()
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
    /// for a partner in `a`'s row, otherwise `ρ`.
    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        let row = self.row(a);
        match row.binary_search_by_key(&b.0, |&(node, _)| node) {
            Ok(k) => self.rho() - row[k].1,
            Err(_) => self.rho(),
        }
    }

    /// Module separation `S(M)` of a gate set: the sum over its
    /// unordered pairs of the saturated distance, `ρ − w` for a pair in
    /// the row and `ρ` for one outside it — bit-identical to
    /// [`SeparationOracle::module_separation`], and as quadratic in
    /// `|module|`. Each lookup is one binary search of a gate-only row,
    /// shorter than the oracle's rows, which also carry primary inputs.
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

    /// Total neighbour weight `W(g) = Σ_{g' gate, d(g,g') < ρ} (ρ − d)` of
    /// one gate's row (`0` for primary inputs).
    ///
    /// For a module containing *all* gates, `S(M) = ρ·|pairs| − Σ_g W(g)/2`
    /// — the identity the patch-scored resynthesis evaluation maintains
    /// incrementally instead of re-running the O(G²) pair sum. `W(g)` also
    /// caps the weight `g` has to any one module, which is what the
    /// evolution's bound on a batch move's separation needs. O(1): the
    /// totals are stored when the table is built.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range of the table's netlist.
    #[must_use]
    pub fn near_weight(&self, gate: NodeId) -> u64 {
        self.totals[gate.index()]
    }

    /// One gate's full near row: `(gate node index, ρ − d)` entries
    /// sorted by node index, excluding the gate itself (empty for
    /// primary inputs). This is the seed of the incrementally maintained
    /// ΔW rows in the patch-scored resynthesis evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range of the table's netlist.
    #[must_use]
    pub fn row(&self, gate: NodeId) -> &[(u32, u32)] {
        let i = gate.index();
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
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
    /// `ρ·(|M| − [gate ∈ M]) − W(gate, M)`, bit-identical to
    /// [`SeparationOracle::separation_to_members`]; a gate move needs it
    /// for its source and its target module at once.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range of the table's netlist.
    #[must_use]
    pub fn member_weights(&self, gate: NodeId, assignment: &[u32], modules: [u32; 2]) -> [u64; 2] {
        let [a, b] = modules;
        let (mut wa, mut wb) = (0u64, 0u64);
        // Masked adds, not `if`s: membership is unpredictable, and a
        // branch per entry costs more than the row's memory traffic.
        for &(n, w) in self.row(gate) {
            let m = assignment[n as usize];
            let w = u64::from(w);
            wa += w & 0u64.wrapping_sub(u64::from(m == a));
            wb += w & 0u64.wrapping_sub(u64::from(m == b));
        }
        [wa, wb]
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

    #[test]
    fn chain_distances() {
        let nl = chain(6);
        let sep = SeparationOracle::new(&nl, 10);
        let g0 = nl.find("g0").unwrap();
        let g3 = nl.find("g3").unwrap();
        assert_eq!(sep.distance(g0, g3), 3);
        assert_eq!(sep.distance(g3, g0), 3); // symmetric
    }

    #[test]
    fn saturation_applies() {
        let nl = chain(10);
        let sep = SeparationOracle::new(&nl, 3);
        let g0 = nl.find("g0").unwrap();
        let g1 = nl.find("g1").unwrap();
        let g2 = nl.find("g2").unwrap();
        let g9 = nl.find("g9").unwrap();
        assert_eq!(sep.distance(g0, g1), 1);
        assert_eq!(sep.distance(g0, g2), 2);
        assert_eq!(sep.distance(g0, g9), 3); // saturated at rho
    }

    #[test]
    fn estimate_bytes_tracks_actual_footprint() {
        // On a regular structure (uniform ball sizes) the sampled
        // estimate should land within a factor of 2 of the real table.
        let nl = data::ripple_adder(64);
        for rho in [2u32, 4] {
            let actual = SeparationOracle::new(&nl, rho).memory_bytes();
            let est = SeparationOracle::estimate_bytes(&nl, rho);
            assert!(
                est * 2 >= actual && est <= actual * 2,
                "rho={rho}: est={est} actual={actual}"
            );
        }
        assert_eq!(SeparationOracle::estimate_bytes(&nl, 0), 0);
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
        let sep = SeparationOracle::new(&nl, 5);
        assert_eq!(sep.distance(g1, g2), 5);
    }

    #[test]
    fn module_separation_clique_is_minimal() {
        // In c17, gates {10, 16, 22} form a path (10-22 direct, 16-22
        // direct, 10-16 via 22 or via PI 3/11...). Compare with a spread
        // module.
        let nl = data::c17();
        let sep = SeparationOracle::new(&nl, 6);
        let m_tight: Vec<NodeId> = ["10", "16", "22"]
            .iter()
            .map(|n| nl.find(n).unwrap())
            .collect();
        let m_spread: Vec<NodeId> = ["10", "19", "23"]
            .iter()
            .map(|n| nl.find(n).unwrap())
            .collect();
        assert!(sep.module_separation(&m_tight) <= sep.module_separation(&m_spread));
    }

    #[test]
    fn incremental_primitive_matches_full() {
        let nl = data::c17();
        let sep = SeparationOracle::new(&nl, 6);
        let all: Vec<NodeId> = nl.gate_ids().collect();
        let (g, rest) = all.split_first().unwrap();
        let full_with = sep.module_separation(&all);
        let full_without = sep.module_separation(rest);
        let delta = sep.separation_to_module(*g, rest);
        assert_eq!(full_with, full_without + delta);
    }

    #[test]
    fn membership_form_matches_member_list_form() {
        let nl = data::ripple_adder(6);
        let sep = SeparationOracle::new(&nl, 6);
        let gates: Vec<NodeId> = nl.gate_ids().collect();
        let (inside, outside) = gates.split_at(gates.len() / 2);
        for &g in &gates {
            let includes = inside.contains(&g);
            let by_list = sep.separation_to_module(g, inside);
            let by_membership =
                sep.separation_to_members(g, inside.len(), includes, |n| inside.contains(&n));
            assert_eq!(by_list, by_membership, "gate {g} vs inside");
            let by_list = sep.separation_to_module(g, outside);
            let by_membership =
                sep.separation_to_members(g, outside.len(), outside.contains(&g), |n| {
                    outside.contains(&n)
                });
            assert_eq!(by_list, by_membership, "gate {g} vs outside");
        }
    }

    #[test]
    fn gate_table_matches_membership_form() {
        let nl = data::ripple_adder(6);
        let sep = SeparationOracle::new(&nl, 6);
        let table = sep.gate_table(&nl);
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
                let want = sep.separation_to_members(g, members.len(), includes, |n| {
                    assignment[n.index()] == module
                });
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
    fn flat_build_matches_reference_build() {
        for rho in [1, 2, 3, 6, 9] {
            for nl in [data::c17(), data::ripple_adder(7), chain(12)] {
                let flat = SeparationOracle::new(&nl, rho);
                let reference = SeparationOracle::new_reference(&nl, rho);
                assert_eq!(flat, reference, "rho {rho} on {}", nl.name());
            }
        }
    }

    #[test]
    fn huge_rho_fallback_matches_reference() {
        // rho > 256 exceeds the batched engine's u8 arrival levels and
        // takes the scalar per-source path — rows must be identical.
        let nl = chain(12);
        let fallback = SeparationOracle::new(&nl, 300);
        assert_eq!(fallback, SeparationOracle::new_reference(&nl, 300));
        let g0 = nl.find("g0").unwrap();
        let g9 = nl.find("g9").unwrap();
        assert_eq!(fallback.distance(g0, g9), 9);
        assert_eq!(
            GateSeparationTable::direct(&nl, 300, 2),
            fallback.gate_table(&nl)
        );
    }

    #[test]
    fn parallel_build_matches_serial_build() {
        let nl = data::ripple_adder(9);
        let serial = SeparationOracle::new(&nl, 6);
        for threads in [1, 2, 3, 7, 64] {
            assert_eq!(
                SeparationOracle::new_parallel(&nl, 6, threads),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn direct_gate_table_matches_oracle_distillation() {
        for rho in [1, 2, 5, 6] {
            for nl in [data::c17(), data::ripple_adder(8)] {
                let want = SeparationOracle::new(&nl, rho).gate_table(&nl);
                for threads in [1, 3] {
                    let got = GateSeparationTable::direct(&nl, rho, threads);
                    assert_eq!(got, want, "rho {rho}, {threads} threads, {}", nl.name());
                }
            }
        }
    }

    #[test]
    fn near_weight_is_the_row_sum() {
        let nl = data::ripple_adder(8);
        for table in [
            GateSeparationTable::direct(&nl, 6, 2),
            SeparationOracle::new(&nl, 6).gate_table(&nl),
        ] {
            for id in nl.node_ids() {
                let sum: u64 = table.row(id).iter().map(|&(_, w)| u64::from(w)).sum();
                assert_eq!(table.near_weight(id), sum, "node {id}");
            }
        }
    }

    #[test]
    fn near_slice_matches_neighbors_within() {
        let nl = data::c17();
        let sep = SeparationOracle::new(&nl, 5);
        for id in nl.node_ids() {
            let slice: Vec<(NodeId, u32)> = sep
                .near_slice(id)
                .iter()
                .map(|&(n, d)| (NodeId(n), d))
                .collect();
            assert_eq!(slice, sep.neighbors_within(id));
        }
    }

    #[test]
    fn distance_zero_to_self() {
        let nl = chain(2);
        let sep = SeparationOracle::new(&nl, 4);
        let g0 = nl.find("g0").unwrap();
        assert_eq!(sep.distance(g0, g0), 0);
        assert_eq!(sep.separation_to_module(g0, &[g0]), 0);
    }

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn zero_rho_panics() {
        let nl = chain(2);
        let _ = SeparationOracle::new(&nl, 0);
    }

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn zero_rho_panics_in_direct_table() {
        let nl = chain(2);
        let _ = GateSeparationTable::direct(&nl, 0, 1);
    }

    #[test]
    fn rho_one_saturates_everything_but_self() {
        let nl = chain(3);
        let sep = SeparationOracle::new(&nl, 1);
        let g0 = nl.find("g0").unwrap();
        let g1 = nl.find("g1").unwrap();
        assert_eq!(sep.distance(g0, g1), 1); // adjacent but saturated to rho=1
        assert_eq!(sep.distance(g0, g0), 0);
    }

    #[test]
    fn controlled_build_complete_matches_plain() {
        let nl = chain(40);
        for threads in [1, 3] {
            let out = SeparationOracle::new_parallel_with_control(
                &nl,
                4,
                threads,
                &RunControl::unlimited(),
            );
            assert!(out.is_complete());
            assert_eq!(out.into_value(), SeparationOracle::new(&nl, 4));
        }
    }

    #[test]
    fn quota_budget_yields_partial_with_saturated_tail() {
        use iddq_control::RunBudget;
        let nl = chain(200);
        let full = SeparationOracle::new(&nl, 4);
        let quota = 64;
        // One worker stops at the first batch boundary past the quota.
        let control = RunControl::with_budget(RunBudget::unlimited().with_quota(quota));
        match SeparationOracle::new_parallel_with_control(&nl, 4, 1, &control) {
            Outcome::Partial {
                value,
                coverage,
                reason,
            } => {
                assert_eq!(reason, StopReason::QuotaExhausted);
                assert!(coverage < 1.0);
                // Built rows are exact; unbuilt rows saturate to rho.
                let g0 = nl.find("g0").unwrap();
                let g1 = nl.find("g1").unwrap();
                assert_eq!(value.distance(g0, g1), full.distance(g0, g1));
                let a = nl.find("g190").unwrap();
                let b = nl.find("g191").unwrap();
                assert_eq!(value.distance(a, b), 4);
            }
            Outcome::Complete(_) => panic!("a 64-row quota cannot build 200+ rows"),
        }
        // Several workers each poll the quota at their own 64-source
        // batch boundaries, so together they may overshoot it by up to
        // one batch per worker — or, on a small circuit, finish it.
        let threads = 4;
        let control = RunControl::with_budget(RunBudget::unlimited().with_quota(quota));
        let out = SeparationOracle::new_parallel_with_control(&nl, 4, threads, &control);
        let (value, coverage) = match out {
            Outcome::Partial {
                value,
                coverage,
                reason,
            } => {
                assert_eq!(reason, StopReason::QuotaExhausted);
                (value, coverage)
            }
            Outcome::Complete(value) => (value, 1.0),
        };
        let n = nl.node_count();
        let built = value.offsets.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(
            built as u64 <= quota + threads as u64 * 64,
            "{built} rows built under a {quota}-row quota"
        );
        assert_eq!(coverage, built as f64 / n as f64);
        for a in nl.node_ids() {
            for b in nl.node_ids() {
                let d = value.distance(a, b);
                assert!(
                    d == full.distance(a, b) || d == 4,
                    "distance({a:?}, {b:?}) = {d}"
                );
            }
        }
    }

    #[test]
    fn streamed_build_matches_plain_build() {
        for rho in [1, 3, 6, 300] {
            for nl in [data::c17(), data::ripple_adder(9), chain(80)] {
                let out =
                    SeparationOracle::new_streamed_with_control(&nl, rho, &RunControl::unlimited());
                assert!(out.is_complete());
                assert_eq!(
                    out.into_value(),
                    SeparationOracle::new(&nl, rho),
                    "rho {rho} on {}",
                    nl.name()
                );
            }
        }
    }

    #[test]
    fn streamed_build_respects_quota() {
        use iddq_control::RunBudget;
        let nl = chain(200);
        let control = RunControl::with_budget(RunBudget::unlimited().with_quota(64));
        let out = SeparationOracle::new_streamed_with_control(&nl, 4, &control);
        match out {
            Outcome::Partial {
                value,
                coverage,
                reason,
            } => {
                assert_eq!(reason, StopReason::QuotaExhausted);
                assert!(coverage < 1.0);
                let g0 = nl.find("g0").unwrap();
                let g1 = nl.find("g1").unwrap();
                assert_eq!(value.distance(g0, g1), 1);
                let a = nl.find("g190").unwrap();
                let b = nl.find("g191").unwrap();
                assert_eq!(value.distance(a, b), 4); // unbuilt row = saturated
            }
            Outcome::Complete(_) => panic!("a 64-row quota cannot build 200+ rows"),
        }
    }

    #[test]
    fn memory_bytes_accounts_entries_and_offsets() {
        let nl = data::ripple_adder(8);
        let sep = SeparationOracle::new(&nl, 6);
        assert!(sep.memory_bytes() >= 8 * sep.entry_count() + 4 * (nl.node_count() + 1));
        let table = GateSeparationTable::direct(&nl, 6, 1);
        assert!(table.memory_bytes() >= 8 * table.entry_count() + 8 * nl.node_count());
        // The gate-only table is never larger than the full oracle.
        assert!(table.entry_count() <= sep.entry_count());
    }

    #[test]
    fn pre_cancelled_build_is_all_saturated() {
        let nl = chain(20);
        let control = RunControl::unlimited();
        control.token().cancel();
        let out = SeparationOracle::new_parallel_with_control(&nl, 4, 2, &control);
        assert_eq!(out.stop_reason(), Some(StopReason::Cancelled));
        let value = out.into_value();
        let g0 = nl.find("g0").unwrap();
        let g1 = nl.find("g1").unwrap();
        assert_eq!(value.distance(g0, g1), 4); // unbuilt row = saturated
    }
}
