//! IDDQ test-pattern generation.
//!
//! The paper assumes "a precomputed test vector set of the global CUT"
//! (§3.4) — partitioning never changes the vectors, only the per-vector
//! application time. This crate builds such a set: pseudo-random patterns
//! fault-simulated against the IDDQ defect universe, greedily compacted to
//! the vectors that first-detect at least one new fault.
//!
//! IDDQ ATPG is much easier than stuck-at ATPG because a defect only needs
//! *activation* (a conducting state), not propagation to an output, so
//! random patterns reach high coverage quickly; the value of compaction is
//! cutting test *time*, which is exactly the `c_4` cost the partitioner
//! estimates per vector.
//!
//! # Example
//!
//! ```rust
//! use iddq_atpg::{generate, AtpgConfig};
//! use iddq_logicsim::faults::{enumerate, FaultUniverseConfig};
//! use iddq_netlist::data;
//!
//! let nl = data::ripple_adder(4);
//! let faults = enumerate(&nl, &FaultUniverseConfig::default(), 7);
//! let t = generate(&nl, &faults, &AtpgConfig::default(), 7);
//! assert!(t.coverage > 0.9);
//! assert!(t.vectors.len() < 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use iddq_logicsim::faults::IddqFault;
use iddq_logicsim::Simulator;
use iddq_netlist::unroll::{unroll, Unrolled};
use iddq_netlist::{Netlist, NetlistError, PackedWord, W256};

/// Generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgConfig {
    /// Stop once this fraction of the fault universe is activated.
    pub target_coverage: f64,
    /// Give up after this many random 64-pattern batches without
    /// improvement.
    pub stagnation_batches: usize,
    /// Hard cap on total batches.
    pub max_batches: usize,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            target_coverage: 0.99,
            stagnation_batches: 16,
            max_batches: 512,
        }
    }
}

/// A compacted IDDQ test set.
#[derive(Debug, Clone)]
pub struct TestSet {
    /// The kept vectors, in application order (one `bool` per primary
    /// input, netlist input order).
    pub vectors: Vec<Vec<bool>>,
    /// Activation coverage achieved over the fault universe.
    pub coverage: f64,
    /// Per-fault: was it activated by some kept vector.
    pub activated: Vec<bool>,
}

/// Generates a compacted vector set activating the given fault universe.
///
/// Deterministic for a fixed `(netlist, faults, config, seed)`.
///
/// The inner loop fault-simulates 256 random patterns at a time (one
/// [`W256`] sweep of the CSR-compiled [`Simulator`], into reused buffers) and
/// keeps, per batch, the patterns that activate at least one
/// not-yet-covered fault (greedy first-fit compaction, scanning patterns
/// in index order).
#[must_use]
pub fn generate(
    netlist: &Netlist,
    faults: &[IddqFault],
    config: &AtpgConfig,
    seed: u64,
) -> TestSet {
    let sim = Simulator::new(netlist);
    let num_inputs = netlist.num_inputs();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa7b6);
    let mut activated = vec![false; faults.len()];
    let mut vectors: Vec<Vec<bool>> = Vec::new();
    let mut remaining = faults.len();
    let mut stagnant = 0usize;
    let mut words = vec![W256::zeros(); num_inputs];
    let mut values = vec![W256::zeros(); sim.node_count()];
    let mut masks: Vec<(usize, W256)> = Vec::new();

    for _batch in 0..config.max_batches {
        if faults.is_empty()
            || 1.0 - remaining as f64 / faults.len() as f64 >= config.target_coverage
            || stagnant >= config.stagnation_batches
        {
            break;
        }
        for w in &mut words {
            *w = W256::from_limbs(|_| rng.gen());
        }
        sim.eval_into(&words, &mut values);
        // Activation masks of still-uncovered faults.
        masks.clear();
        masks.extend(
            faults
                .iter()
                .enumerate()
                .filter(|(fi, _)| !activated[*fi])
                .map(|(fi, f)| (fi, f.activation(netlist, &values))),
        );
        let mut batch_progress = false;
        for k in 0..W256::LANES {
            let mut keep = false;
            for &(fi, mask) in &masks {
                if !activated[fi] && mask.bit(k) {
                    activated[fi] = true;
                    remaining -= 1;
                    keep = true;
                }
            }
            if keep {
                batch_progress = true;
                vectors.push((0..num_inputs).map(|i| words[i].bit(k)).collect());
            }
        }
        stagnant = if batch_progress { 0 } else { stagnant + 1 };
    }

    let coverage = if faults.is_empty() {
        1.0
    } else {
        activated.iter().filter(|&&a| a).count() as f64 / faults.len() as f64
    };
    TestSet {
        vectors,
        coverage,
        activated,
    }
}

/// A compacted IDDQ test set of multi-frame *sequences*.
///
/// Vectors are laid out sequence-major: `vectors[s * frames + t]` is the
/// frame-`t` stimulus of kept sequence `s` — exactly the layout the
/// sweep engines consume through their `frames` option. Every sequence
/// starts from the all-zero reset state.
#[derive(Debug, Clone)]
pub struct SeqTestSet {
    /// Kept per-frame vectors, `frames` consecutive entries per sequence
    /// (one `bool` per primary input, netlist input order).
    pub vectors: Vec<Vec<bool>>,
    /// Frames per sequence (≥ 1).
    pub frames: usize,
    /// Activation coverage achieved over the fault universe.
    pub coverage: f64,
    /// Per-fault: was it activated at some frame of some kept sequence.
    pub activated: Vec<bool>,
}

/// Sequential IDDQ generation by bounded time-frame expansion.
///
/// The netlist is unrolled to `frames` copies of its combinational fabric
/// ([`iddq_netlist::unroll`]); frame-0 state is the all-zero reset, frame
/// `t > 0` state is the previous frame's captured next-state. Random
/// per-frame stimuli are then fault-simulated on the unrolled netlist —
/// one [`W256`] lane per candidate *sequence* — and a sequence is kept
/// when some frame of it activates a not-yet-covered fault (greedy
/// first-fit, scanning lanes in index order, as in [`generate`]).
///
/// A fault's per-frame activation is evaluated on the good-machine
/// trajectory through the fault's frame-`t` image, so defects whose
/// activating state is only *reachable* (not settable combinationally)
/// become coverable once `frames` is large enough.
///
/// `frames` is clamped to ≥ 1. The combinational path is the depth-0
/// special case: on a DFF-free netlist, `frames = 1` reproduces
/// [`generate`] bit-for-bit (same random stream, same compaction).
/// Deterministic for a fixed `(netlist, faults, config, seed, frames)`.
///
/// # Errors
///
/// Propagates [`NetlistError`] from the time-frame expansion.
pub fn generate_seq(
    netlist: &Netlist,
    faults: &[IddqFault],
    config: &AtpgConfig,
    seed: u64,
    frames: usize,
) -> Result<SeqTestSet, NetlistError> {
    let frames = frames.max(1);
    let unrolled = unroll(netlist, frames)?;
    let unl = unrolled.netlist();
    let sim = Simulator::new(unl);

    // Input slot of each unrolled pseudo-input node.
    let mut slot = vec![usize::MAX; unl.node_count()];
    for (i, &n) in unl.inputs().iter().enumerate() {
        slot[n.index()] = i;
    }

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa7b6);
    let mut activated = vec![false; faults.len()];
    let mut vectors: Vec<Vec<bool>> = Vec::new();
    let mut remaining = faults.len();
    let mut stagnant = 0usize;
    // State pseudo-inputs keep their zero words: the reset convention.
    let mut words = vec![W256::zeros(); unl.num_inputs()];
    let mut values = vec![W256::zeros(); sim.node_count()];
    let mut masks: Vec<(usize, W256)> = Vec::new();

    for _batch in 0..config.max_batches {
        if faults.is_empty()
            || 1.0 - remaining as f64 / faults.len() as f64 >= config.target_coverage
            || stagnant >= config.stagnation_batches
        {
            break;
        }
        // Draw frame-major in original input order so the frames = 1
        // stream on a combinational netlist matches `generate` exactly.
        for t in 0..frames {
            for &pi in netlist.inputs() {
                words[slot[unrolled.image(t, pi).index()]] = W256::from_limbs(|_| rng.gen());
            }
        }
        sim.eval_into(&words, &mut values);
        // Whole-sequence activation masks of still-uncovered faults.
        masks.clear();
        masks.extend(
            faults
                .iter()
                .enumerate()
                .filter(|(fi, _)| !activated[*fi])
                .map(|(fi, f)| {
                    let mut m = W256::zeros();
                    for t in 0..frames {
                        m = m | seq_activation(f, netlist, &unrolled, t, &values);
                    }
                    (fi, m)
                }),
        );
        let mut batch_progress = false;
        for k in 0..W256::LANES {
            let mut keep = false;
            for &(fi, mask) in &masks {
                if !activated[fi] && mask.bit(k) {
                    activated[fi] = true;
                    remaining -= 1;
                    keep = true;
                }
            }
            if keep {
                batch_progress = true;
                for t in 0..frames {
                    vectors.push(
                        netlist
                            .inputs()
                            .iter()
                            .map(|&pi| words[slot[unrolled.image(t, pi).index()]].bit(k))
                            .collect(),
                    );
                }
            }
        }
        stagnant = if batch_progress { 0 } else { stagnant + 1 };
    }

    let coverage = if faults.is_empty() {
        1.0
    } else {
        activated.iter().filter(|&&a| a).count() as f64 / faults.len() as f64
    };
    Ok(SeqTestSet {
        vectors,
        frames,
        coverage,
        activated,
    })
}

/// Per-frame activation of `fault` on the unrolled good machine.
///
/// Sites are mapped through the frame-`t` image. The gate-oxide-short pin
/// must be resolved through the *original* fan-in list: a DFF's image is
/// a pseudo-input (frame 0) or an alias of the previous frame's D-driver
/// image (frame `t > 0`), neither of which preserves the pin ordinal.
fn seq_activation<W: PackedWord>(
    fault: &IddqFault,
    netlist: &Netlist,
    unrolled: &Unrolled,
    t: usize,
    values: &[W],
) -> W {
    match *fault {
        IddqFault::Bridge { a, b, .. } => {
            values[unrolled.image(t, a).index()] ^ values[unrolled.image(t, b).index()]
        }
        IddqFault::GateOxideShort { gate, pin, .. } => {
            let input = netlist.node(gate).fanin()[pin];
            values[unrolled.image(t, input).index()] ^ values[unrolled.image(t, gate).index()]
        }
        IddqFault::StuckOn { gate, .. } => values[unrolled.image(t, gate).index()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_logicsim::faults::{enumerate, FaultUniverseConfig};
    use iddq_netlist::data;

    fn universe(nl: &Netlist, seed: u64) -> Vec<IddqFault> {
        enumerate(nl, &FaultUniverseConfig::default(), seed)
    }

    #[test]
    fn reaches_high_coverage_on_adder() {
        let nl = data::ripple_adder(8);
        let faults = universe(&nl, 3);
        let t = generate(&nl, &faults, &AtpgConfig::default(), 3);
        assert!(t.coverage >= 0.95, "coverage {}", t.coverage);
        assert!(!t.vectors.is_empty());
    }

    #[test]
    fn deterministic() {
        let nl = data::ripple_adder(4);
        let faults = universe(&nl, 9);
        let a = generate(&nl, &faults, &AtpgConfig::default(), 5);
        let b = generate(&nl, &faults, &AtpgConfig::default(), 5);
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn compaction_keeps_only_useful_vectors() {
        // Every kept vector must newly activate ≥ 1 fault, so the count
        // can never exceed the fault count.
        let nl = data::ripple_adder(6);
        let faults = universe(&nl, 11);
        let t = generate(&nl, &faults, &AtpgConfig::default(), 11);
        assert!(t.vectors.len() <= faults.len());
    }

    #[test]
    fn empty_fault_list_no_vectors_full_coverage() {
        let nl = data::c17();
        let t = generate(&nl, &[], &AtpgConfig::default(), 1);
        assert!(t.vectors.is_empty());
        assert_eq!(t.coverage, 1.0);
    }

    #[test]
    fn activated_flags_consistent_with_coverage() {
        let nl = data::c17();
        let faults = universe(&nl, 2);
        let t = generate(&nl, &faults, &AtpgConfig::default(), 2);
        let frac = t.activated.iter().filter(|&&a| a).count() as f64 / faults.len() as f64;
        assert!((frac - t.coverage).abs() < 1e-12);
    }

    /// `q = DFF(a)`, `y = AND(q, a)`: activating a stuck-on at `y` needs
    /// `a = 1` in two consecutive frames — impossible combinationally
    /// from the all-zero reset state.
    fn latch_fixture() -> (Netlist, Vec<IddqFault>) {
        let mut b = iddq_netlist::NetlistBuilder::new("latch1");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        let y = b
            .add_gate("y", iddq_netlist::CellKind::And, vec![q, a])
            .unwrap();
        b.set_dff_input(q, a);
        b.mark_output(y);
        let nl = b.build().unwrap();
        let f = IddqFault::StuckOn {
            gate: nl.find("y").unwrap(),
            current_ua: 150.0,
        };
        (nl, vec![f])
    }

    #[test]
    fn seq_depth0_oracle_matches_combinational() {
        // On a DFF-free netlist, frames = 1 is an exact rename of the
        // combinational path: identical random stream, identical vectors.
        let nl = data::ripple_adder(4);
        let faults = universe(&nl, 9);
        let comb = generate(&nl, &faults, &AtpgConfig::default(), 5);
        let seq = generate_seq(&nl, &faults, &AtpgConfig::default(), 5, 1).unwrap();
        assert_eq!(seq.frames, 1);
        assert_eq!(seq.vectors, comb.vectors);
        assert_eq!(seq.activated, comb.activated);
        assert_eq!(seq.coverage, comb.coverage);
        // frames = 0 clamps to 1.
        let clamped = generate_seq(&nl, &faults, &AtpgConfig::default(), 5, 0).unwrap();
        assert_eq!(clamped.frames, 1);
        assert_eq!(clamped.vectors, comb.vectors);
    }

    #[test]
    fn seq_covers_state_reachable_fault() {
        let (nl, faults) = latch_fixture();
        let cfg = AtpgConfig::default();
        let depth0 = generate_seq(&nl, &faults, &cfg, 5, 1).unwrap();
        assert_eq!(depth0.coverage, 0.0);
        assert!(depth0.vectors.is_empty());

        let deep = generate_seq(&nl, &faults, &cfg, 5, 2).unwrap();
        assert_eq!(deep.frames, 2);
        assert_eq!(deep.activated, vec![true]);
        assert_eq!(deep.vectors.len(), 2, "one kept sequence of two frames");

        // Replay the sequence on the original netlist: the defect must be
        // activated at some frame of the good-machine trajectory.
        let sim = Simulator::new(&nl);
        let mut state = vec![0u64; sim.num_state_elements()];
        let mut values = vec![0u64; sim.node_count()];
        let mut seen = 0u64;
        for t in 0..deep.frames {
            let inputs: Vec<u64> = deep.vectors[t].iter().map(|&b| b as u64).collect();
            sim.step_frame(&inputs, &mut state, &mut values);
            seen |= faults[0].activation(&nl, &values) & 1;
        }
        assert_eq!(seen, 1);
    }

    #[test]
    fn seq_deterministic() {
        let (nl, faults) = latch_fixture();
        let cfg = AtpgConfig::default();
        let first = generate_seq(&nl, &faults, &cfg, 7, 3).unwrap();
        let again = generate_seq(&nl, &faults, &cfg, 7, 3).unwrap();
        assert_eq!(again.vectors, first.vectors);
        assert_eq!(again.activated, first.activated);
        assert_eq!(again.vectors.len() % 3, 0, "sequence-major layout");
    }

    #[test]
    fn hard_batch_cap_respected() {
        let nl = data::ripple_adder(4);
        let faults = universe(&nl, 8);
        let cfg = AtpgConfig {
            max_batches: 1,
            ..AtpgConfig::default()
        };
        let t = generate(&nl, &faults, &cfg, 8);
        // One batch is one 256-wide sweep, and compaction can keep at most
        // one vector per newly covered fault.
        assert!(t.vectors.len() <= 256.min(faults.len()));
    }
}
