//! Synthetic mega-circuit generator: 10^5–10^7 gates, deterministic by
//! seed, built in O(gates) time.
//!
//! The ISCAS-like generator ([`crate::iscas`]) reproduces the *shape* of
//! the published benchmarks but allocates fan-in by scanning candidate
//! pools, which is quadratic and tops out around 10^4 gates. Scale work
//! (structural parallelism, memory budgets, separation-table builds) needs
//! circuits two to three orders of magnitude larger, so this module
//! builds levelized random logic directly:
//!
//! * the gate budget is spread evenly over a depth chosen to grow with
//!   `log2(gates)` (≈ 33 levels at 10^5 gates, ≈ 40 at 10^6), giving the
//!   wide levels that structural parallelism feeds on while staying in
//!   the depth range of real synthesized netlists;
//! * every gate draws its first fan-in from the *previous* level — so a
//!   gate placed on level `l` has topological level exactly `l`, and the
//!   level structure of the output is known without re-levelizing —
//!   and its remaining fan-ins from earlier levels with a locality bias
//!   (mostly the previous level, occasionally a long-range edge), which
//!   yields the local-routing-dominated structure of datapath arrays;
//! * kinds and arities follow the same NAND-dominated mix as the ISCAS
//!   generator; every fan-in pick is O(1) because each level's node ids
//!   form one contiguous range.
//!
//! Determinism: the same [`MegaConfig`] (including the seed) always
//! produces the identical netlist, byte-for-byte through
//! [`iddq_netlist::bench::to_bench`] — pinned by the generator proptests.

// The generator mints fresh unique names and in-range fan-ins by
// construction, so builder calls cannot fail; the `expect`s document that
// invariant.
#![allow(clippy::expect_used)]

use iddq_netlist::{CellKind, Netlist, NetlistBuilder, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Gate-kind mix for 1-input picks (inverter-heavy, like ISCAS).
const UNARY_MIX: [(CellKind, u32); 2] = [(CellKind::Not, 7), (CellKind::Buf, 3)];

/// Gate-kind mix for multi-input picks (NAND-dominated).
const MULTI_MIX: [(CellKind, u32); 6] = [
    (CellKind::Nand, 42),
    (CellKind::Nor, 16),
    (CellKind::And, 14),
    (CellKind::Or, 12),
    (CellKind::Xor, 9),
    (CellKind::Xnor, 7),
];

/// Arity distribution (1 covers the unary kinds).
const ARITY_MIX: [(usize, u32); 4] = [(1, 18), (2, 56), (3, 18), (4, 8)];

fn weighted<T: Copy>(rng: &mut SmallRng, table: &[(T, u32)]) -> T {
    let total: u32 = table.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for &(v, w) in table {
        if pick < w {
            return v;
        }
        pick -= w;
    }
    table[table.len() - 1].0
}

/// Shape of one generated mega-circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MegaConfig {
    /// Number of gates to generate (exact).
    pub gates: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of gate levels; the gate budget is spread evenly across
    /// them, so the mean level width is `gates / depth`.
    pub depth: u32,
    /// RNG seed; every field participates in determinism.
    pub seed: u64,
}

impl MegaConfig {
    /// Default shape for a gate budget: depth grows with `2·log2(gates)`
    /// (33 levels at 10^5, 40 at 10^6, 46 at 10^7) and the input count
    /// with `sqrt(gates)`.
    ///
    /// # Panics
    ///
    /// Panics if `gates < 16`.
    #[must_use]
    pub fn with_gates(gates: usize, seed: u64) -> Self {
        assert!(gates >= 16, "mega circuits start at 16 gates");
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let depth = ((gates as f64).log2() * 2.0).round().clamp(8.0, 96.0) as usize;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let inputs = ((gates as f64).sqrt().round() as usize).max(16);
        MegaConfig {
            gates,
            inputs,
            depth: depth.min(gates / 2) as u32,
            seed,
        }
    }
}

/// Generates the mega-circuit described by `config`.
///
/// Runs in O(gates) time and memory. Every gate on generator level `l`
/// (1-based) has topological level exactly `l`; every fan-out-free gate
/// is marked as a primary output (the whole last level always qualifies).
///
/// # Panics
///
/// Panics if `config.gates < config.depth` (a level would be empty),
/// `config.inputs == 0` or `config.depth == 0`.
#[must_use]
pub fn generate(config: &MegaConfig) -> Netlist {
    let depth = config.depth as usize;
    assert!(config.inputs > 0, "need at least one input");
    assert!(depth > 0, "need at least one level");
    assert!(config.gates >= depth, "need at least one gate per level");
    let mut rng =
        SmallRng::seed_from_u64(config.seed ^ 0x6d65_6761 ^ (config.gates as u64).rotate_left(17));
    let mut b = NetlistBuilder::new(format!("mega{}", config.gates));

    // Level 0: the primary inputs. Ids are assigned sequentially by the
    // builder, so each level occupies one contiguous id range and a
    // fan-in pick inside a level is a single `gen_range`.
    for k in 0..config.inputs {
        b.add_input(format!("i{k}"));
    }
    let mut level_ranges: Vec<(u32, u32)> = vec![(0, config.inputs as u32)];
    let mut consumed = vec![false; config.inputs + config.gates];

    let base = config.gates / depth;
    let extra = config.gates % depth;
    let mut next_id = config.inputs as u32;
    let mut gate_no = 0usize;
    for l in 1..=depth {
        let count = base + usize::from(l <= extra);
        let start = next_id;
        let (prev_lo, prev_hi) = level_ranges[l - 1];
        for _ in 0..count {
            let arity = if l == 1 && config.inputs == 1 {
                1
            } else {
                weighted(&mut rng, &ARITY_MIX)
            };
            let kind = if arity == 1 {
                weighted(&mut rng, &UNARY_MIX)
            } else {
                weighted(&mut rng, &MULTI_MIX)
            };
            let mut fanin = Vec::with_capacity(arity);
            // First fan-in from the previous level pins the gate's
            // topological level to exactly `l`.
            fanin.push(NodeId(rng.gen_range(prev_lo..prev_hi)));
            for _ in 1..arity {
                // Locality bias: 3 in 4 edges come from the previous
                // level, the rest uniformly from any earlier level.
                let (lo, hi) = if rng.gen_range(0..4u32) < 3 || l == 1 {
                    (prev_lo, prev_hi)
                } else {
                    level_ranges[rng.gen_range(0..l)]
                };
                fanin.push(NodeId(rng.gen_range(lo..hi)));
            }
            for f in &fanin {
                consumed[f.index()] = true;
            }
            let id = b
                .add_gate(format!("g{gate_no}"), kind, fanin)
                .expect("mega names unique, arities in range");
            debug_assert_eq!(id.0, next_id);
            next_id += 1;
            gate_no += 1;
        }
        level_ranges.push((start, next_id));
    }

    // Every fan-out-free gate becomes a primary output; the last level is
    // entirely fan-out-free, so the netlist always has outputs.
    for id in config.inputs as u32..next_id {
        if !consumed[id as usize] {
            b.mark_output(NodeId(id));
        }
    }
    b.build().expect("mega construction is acyclic by levels")
}

/// Convenience wrapper: [`generate`] with [`MegaConfig::with_gates`].
#[must_use]
pub fn mega_circuit(gates: usize, seed: u64) -> Netlist {
    generate(&MegaConfig::with_gates(gates, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_netlist::{bench, levelize, stats::CircuitStats};

    #[test]
    fn exact_counts_and_depth() {
        let cfg = MegaConfig {
            gates: 5000,
            inputs: 64,
            depth: 25,
            seed: 7,
        };
        let nl = generate(&cfg);
        assert_eq!(nl.gate_count(), 5000);
        assert_eq!(nl.num_inputs(), 64);
        assert_eq!(levelize::depth(&nl), 25);
    }

    #[test]
    fn generator_levels_are_exact() {
        // Generator level l == topological level l, for every gate.
        let cfg = MegaConfig {
            gates: 2000,
            inputs: 32,
            depth: 20,
            seed: 3,
        };
        let nl = generate(&cfg);
        let lv = levelize::levels(&nl);
        let per_level = 2000 / 20;
        for (k, id) in nl.gate_ids().enumerate() {
            let expect = 1 + (k / per_level) as u32;
            assert_eq!(lv[id.index()], expect, "gate {k}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = mega_circuit(3000, 11);
        let b = mega_circuit(3000, 11);
        assert_eq!(bench::to_bench(&a), bench::to_bench(&b));
        let c = mega_circuit(3000, 12);
        assert_ne!(bench::to_bench(&a), bench::to_bench(&c));
    }

    #[test]
    fn bench_round_trip() {
        let nl = mega_circuit(1500, 5);
        let text = bench::to_bench(&nl);
        let back = bench::parse(nl.name(), &text).expect("generated .bench parses");
        assert_eq!(bench::to_bench(&back), text);
    }

    #[test]
    fn default_shape_scales() {
        let nl = mega_circuit(20_000, 1);
        let s = CircuitStats::of(&nl);
        assert_eq!(s.gates, 20_000);
        assert!(s.inputs >= 16);
        assert!(s.depth >= 8);
        assert!(s.outputs >= 1);
        // Wide levels are the point: the widest level must carry a healthy
        // share of the budget.
        assert!(s.gates_per_level_max * s.depth as usize >= s.gates / 2);
    }

    #[test]
    #[should_panic(expected = "16 gates")]
    fn tiny_budget_rejected() {
        let _ = MegaConfig::with_gates(8, 0);
    }
}
