//! Random-pattern simulation with an all-node checksum: the one recipe
//! behind `iddq sim` and the serve `sim` request.
//!
//! A run evaluates `batches` batches of `W::LANES` lanes. Each lane
//! carries one sequence of `frames` vectors from the all-zero reset
//! state, and every input word is drawn from one SplitMix64 stream
//! seeded by the caller. A netlist with state elements, or a run of more
//! than one frame, is clocked with [`Simulator::step_frame`]; a
//! single-frame run of a DFF-free netlist takes the one-shot
//! [`Simulator::eval_into`].
//!
//! Every node value of every frame is folded in, not just the primary
//! outputs: the deep outputs of the synthetic profiles are near-constant
//! under random stimuli and would make a poor discriminator. Limb `i` of
//! each value goes into accumulator `i % 4` (`acc = acc.rotate_left(1) ^
//! limb`); four independent accumulators keep the fold off the
//! evaluation's critical path. [`fold_checksum`] turns the accumulators
//! of one or more runs into one checksum.

use iddq_control::{Outcome, RunControl};
use iddq_netlist::PackedWord;

use crate::Simulator;

/// What a [`run`] computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomRun {
    /// The four limb accumulators of the all-node fold.
    pub acc: [u64; 4],
    /// Batches evaluated to completion.
    pub batches: u64,
}

/// Evaluates `batches` batches of random `frames`-vector sequences
/// (see the [module docs](self)), drawing the input words from the
/// SplitMix64 stream seeded with `seed`.
///
/// `control` is checked before each batch and charged one unit after
/// it, so a stop never tears a batch: a [`Outcome::Partial`] carries the
/// accumulators of the batches that ran.
pub fn run<W: PackedWord>(
    sim: &Simulator,
    seed: u64,
    batches: u64,
    frames: usize,
    control: &RunControl,
) -> Outcome<RandomRun> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    };
    let mut inputs = vec![W::zeros(); sim.num_inputs()];
    let mut values = vec![W::zeros(); sim.node_count()];
    let mut dff_state = vec![W::zeros(); sim.num_state_elements()];
    let stepped = frames > 1 || !dff_state.is_empty();
    let mut out = RandomRun {
        acc: [0; 4],
        batches: 0,
    };
    for _ in 0..batches {
        if let Some(reason) = control.check() {
            #[allow(clippy::cast_precision_loss)]
            let coverage = out.batches as f64 / batches as f64;
            return Outcome::Partial {
                value: out,
                coverage,
                reason,
            };
        }
        // Every sequence starts from the all-zero reset state.
        dff_state.fill(W::zeros());
        for _ in 0..frames {
            for w in &mut inputs {
                *w = W::from_limbs(|_| next());
            }
            if stepped {
                sim.step_frame(&inputs, &mut dff_state, &mut values);
            } else {
                sim.eval_into(&inputs, &mut values);
            }
            for v in &values {
                for i in 0..W::LIMBS {
                    let a = &mut out.acc[i % 4];
                    *a = a.rotate_left(1) ^ v.limb(i);
                }
            }
        }
        out.batches += 1;
        control.charge(1);
    }
    Outcome::Complete(out)
}

/// Folds the accumulators of several runs, in order, into one checksum.
/// For a single 64-lane run (only the first accumulator moves) it is
/// that accumulator.
#[must_use]
pub fn fold_checksum(accs: &[[u64; 4]]) -> u64 {
    accs.iter().fold(0, |checksum, acc| {
        let c = acc[0] ^ acc[1].rotate_left(16) ^ acc[2].rotate_left(32) ^ acc[3].rotate_left(48);
        checksum.rotate_left(8) ^ c
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_control::{RunBudget, StopReason};
    use iddq_netlist::{data, W256};

    #[test]
    fn quota_stops_between_batches() {
        let nl = data::ripple_adder(4);
        let sim = Simulator::new(&nl);
        let all = run::<u64>(&sim, 7, 6, 2, &RunControl::unlimited());
        assert!(all.is_complete());
        let control = RunControl::with_budget(RunBudget::unlimited().with_quota(4));
        let part = run::<u64>(&sim, 7, 6, 2, &control);
        assert_eq!(part.stop_reason(), Some(StopReason::QuotaExhausted));
        assert_eq!(part.value().batches, 4);
        // A prefix of the same stream, folded the same way.
        let four = run::<u64>(&sim, 7, 4, 2, &RunControl::unlimited());
        assert_eq!(part.value(), four.value());
        assert_ne!(all.value().acc, four.value().acc);
    }

    #[test]
    fn the_fold_of_one_narrow_run_is_its_first_accumulator() {
        let nl = data::c17();
        let sim = Simulator::new(&nl);
        let narrow = run::<u64>(&sim, 3, 5, 1, &RunControl::unlimited()).into_value();
        assert_eq!(narrow.acc[1..], [0, 0, 0]);
        assert_eq!(fold_checksum(&[narrow.acc]), narrow.acc[0]);
        // Wide words fill every accumulator.
        let wide = run::<W256>(&sim, 3, 5, 1, &RunControl::unlimited()).into_value();
        assert!(wide.acc.iter().all(|&a| a != 0));
    }
}
