//! The evolution-based partitioning algorithm (§4).
//!
//! One cycle of the strategy (adapted from Rechenberg/Schwefel via Saab &
//! Rao, as the paper describes):
//!
//! 1. **Recombination** — "just one parent is sufficient for a child, and
//!    recombination is just duplication": each of the μ parents is copied
//!    λ times.
//! 2. **Mutation** — per child, a random module `M_start` is selected, its
//!    boundary gates are determined, `m_move ∈ {1, …, min(m,
//!    m_boundary)}` gates are chosen uniformly and each moves into a
//!    connected target module. Additionally χ *Monte-Carlo* descendants
//!    per parent move a random number of random gates of a random module
//!    into a random module — the high-variance step that "reduces the
//!    probability of being caught in a local minimum". Emptied modules
//!    are deleted.
//! 3. **Step-width adaptation** — each descendant's `m` is redrawn from a
//!    normal distribution with variance ε around its parent's `m`.
//! 4. **Selection** — parents older than the maximum lifetime `o` are
//!    deleted; the μ best of the remaining individuals become the next
//!    parents.
//!
//! # Scoring through patch + rollback
//!
//! Descendants are *scored*, not built: each worker keeps one scratch
//! [`Evaluated`] and, per descendant, applies the mutation moves inside
//! a transaction, settles the delay state (one full arrival sweep), reads
//! the cost and rolls back. A mutation applies its moves gate by gate; a
//! Monte-Carlo descendant is one [`Evaluated::move_gates`] batch. Only the descendants that survive
//! selection are materialized by replaying their recorded moves on a
//! parent clone — the `μ(λ+χ) − μ` losers per generation never pay for a
//! full evaluator construction.
//!
//! Most descendants do not even pay for their exact cost. Each
//! generation has a **bar**: the μ-th best cost among the parents that
//! survive aging into its selection pool. Those μ parents come before
//! any candidate that costs more, so a descendant whose cost *lower
//! bound* is strictly above the bar can never be selected. The bounds
//! (see `Evaluated::cost_lower_bound`) run cheapest first, and each
//! descendant stops at the first one that loses:
//!
//! 1. **leakage** (Monte-Carlo only, before the batch moves): the two
//!    touched modules' leakage after the batch gives their exact
//!    discriminability violations; with the other modules' violations
//!    and the module count, the penalty alone usually decides it;
//! 2. **path floor** (before the settle): exact area, module-count and
//!    violation terms, `D_BIC` at its critical-path floor `max(D, L)`,
//!    and the separation exact for a mutation's scanned moves, or a floor
//!    from O(1) row totals for a Monte-Carlo batch moved without its row
//!    scans;
//! 3. **settle** (Monte-Carlo only): the same with the exact delay terms;
//! 4. **exact scan**: a Monte-Carlo batch that passes every bound is
//!    rolled back and re-applied with [`Evaluated::move_gates`]; a
//!    mutation that passes the path floor settles for its exact cost.
//!
//! On `iddq test c7552 --seed 3` the leakage check decides 468 of the
//! 720 Monte-Carlo descendants and the path floor 131 more before their
//! settle; the path floor decides 496 of the 1,440 mutations (3,281 of
//! 6,000 in the s5378 `synth --resynth --per-gate` run). A descendant
//! that loses keeps its bound as its pool cost and is rolled back.
//! Selection, the generation log, `evaluations` (which counts pruned
//! descendants too) and every output are bit-identical to scoring all of
//! them exactly. There is no bar when fewer than μ parents survive
//! aging, or when a cost weight or the violation penalty is negative.
//!
//! Building the start population, scoring and materialization share one
//! loop for any thread count: `min(threads, tasks)` workers claim the
//! next task from a shared counter, so the μ from-scratch start
//! evaluations, the cheap mutations and the costly Monte-Carlo steps
//! balance across cores, and a worker re-clones its scratch only when
//! the claimed descendant's parent differs from the last one. Results go
//! back into their task slots, every start individual and descendant
//! draws from its own seed, and rollback is bit-exact, so selection sees
//! the same candidates in the same order whatever the thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use iddq_control::{Outcome, RunControl, StopReason};
use iddq_netlist::NodeId;

use crate::context::EvalContext;
use crate::evaluator::Evaluated;
use crate::partition::Partition;
use crate::start;

/// Strategy parameters (the glossary's `μ, λ, χ, o, m, ε`).
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionConfig {
    /// μ — number of parents.
    pub mu: usize,
    /// λ — mutated children per parent.
    pub lambda: usize,
    /// χ — Monte-Carlo descendants per parent.
    pub chi: usize,
    /// o — maximum lifetime in generations.
    pub max_lifetime: u32,
    /// Initial mutation step width `m` (max gates moved per mutation).
    pub m_init: f64,
    /// ε — standard deviation of the step-width adaptation.
    pub epsilon: f64,
    /// Maximum number of generations.
    pub generations: usize,
    /// Stop early after this many generations without best-cost
    /// improvement.
    pub stagnation: usize,
    /// Worker threads for the start population, descendant scoring and
    /// survivor materialization (0 and 1 both run on the calling thread
    /// alone).
    /// The result is identical for any thread count: every descendant
    /// draws from its own seeded RNG stream and scratch rollback is
    /// bit-exact.
    pub threads: usize,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            mu: 6,
            lambda: 4,
            chi: 2,
            max_lifetime: 8,
            m_init: 4.0,
            epsilon: 1.0,
            generations: 400,
            stagnation: 60,
            threads: 1,
        }
    }
}

/// One individual of the population.
#[derive(Debug, Clone)]
struct Individual<'a> {
    eval: Evaluated<'a>,
    cost: f64,
    m: f64,
    age: u32,
}

/// The exact moves that turn a parent into one of its descendants.
#[derive(Debug, Clone)]
enum Moves {
    /// A §4.2 mutation: single-gate `(gate, target)` moves, in order.
    Gates(Vec<(NodeId, usize)>),
    /// A Monte-Carlo descendant: one batched move of part of a module.
    Batch(Vec<NodeId>, usize),
}

impl Moves {
    fn apply(&self, eval: &mut Evaluated<'_>) {
        match self {
            Moves::Gates(moves) => {
                for &(g, t) in moves {
                    eval.move_gate(g, t);
                }
            }
            Moves::Batch(gates, target) => {
                eval.move_gates(gates, *target);
            }
        }
    }
}

/// A scored-but-not-materialized descendant: parent index plus the exact
/// moves to replay if it survives selection.
#[derive(Debug, Clone)]
struct ScoredChild {
    parent: usize,
    moves: Moves,
    /// The settled cost, or for a pruned descendant the lower bound that
    /// lost to the generation's bar.
    cost: f64,
    m: f64,
    pruned: bool,
}

/// What scoring one descendant yields: its recorded moves, its cost (a
/// lower bound when pruned), its adapted step width, and whether a bound
/// pruned it.
type Scored = (Moves, f64, f64, bool);

/// Progress record per generation (for convergence plots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationLog {
    /// Generation index.
    pub generation: usize,
    /// Best cost in the population.
    pub best_cost: f64,
    /// Population mean cost.
    pub mean_cost: f64,
    /// Module count of the best individual.
    pub best_modules: usize,
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct EvolutionOutcome {
    /// The best partition found.
    pub best: Partition,
    /// Its weighted cost.
    pub best_cost: f64,
    /// Convergence trace.
    pub log: Vec<GenerationLog>,
    /// Total partitions evaluated: the start population, every
    /// descendant decided (scored exactly or pruned by a bound) and every
    /// restart.
    pub evaluations: usize,
    /// Monte-Carlo descendants rejected by a cost lower bound without
    /// their exact cost (counted in `evaluations` too).
    pub pruned: usize,
    /// Mutations rejected by a cost lower bound before their settle
    /// (counted in `evaluations` too).
    pub pruned_mutations: usize,
}

/// Runs the evolution strategy from chain-grown start partitions under
/// an [`iddq_control::RunControl`]: cancellable, budget-aware, and
/// panic-isolated. Pass [`RunControl::unlimited`] for a plain run and
/// take its value with [`Outcome::into_value`].
///
/// Deterministic for fixed `(ctx, config, seed)`.
///
/// The control is polled at every generation boundary and charged one
/// work unit per descendant scored. A budget or cancellation hit stops
/// the search at the next boundary and returns [`Outcome::Partial`]
/// carrying the best partition found so far; `coverage` is the fraction
/// of the configured generations that ran. A panic while scoring or
/// materializing a descendant is caught per descendant: exactly the
/// descendants that panicked are lost (for any thread count, since each
/// worker claims one at a time and rebuilds its scratch after a panic),
/// the generation finishes with the rest, and the run stops with
/// [`StopReason::WorkerPanicked`]. Stagnation-based early exit is a
/// *normal* termination and still yields [`Outcome::Complete`].
///
/// # Panics
///
/// Panics if `config.mu == 0` or the netlist has no gates (caller bugs,
/// not runtime conditions).
#[must_use]
pub fn optimize(
    ctx: &EvalContext<'_>,
    config: &EvolutionConfig,
    seed: u64,
    control: &RunControl,
) -> Outcome<EvolutionOutcome> {
    search(ctx, config, seed, control).map(|(outcome, _)| outcome)
}

/// [`optimize`], also handing back the evaluator of the best individual
/// (cloned whenever the best improved, or the start population's best
/// when the run stops before any improvement), so a caller can report
/// the winner without evaluating it again.
// The `expect`s inside assert the scratch-arena and
// parent-materialization accounting of the generation loop — each
// slot is provably filled exactly once before it is taken.
#[allow(clippy::expect_used)]
pub(crate) fn search<'a>(
    ctx: &'a EvalContext<'a>,
    config: &EvolutionConfig,
    seed: u64,
    control: &RunControl,
) -> Outcome<(EvolutionOutcome, Evaluated<'a>)> {
    assert!(config.mu > 0, "need at least one parent");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xe501);
    let module_count = start::estimate_module_count(ctx);
    // Chain partitions target a size that yields the estimated count.
    let size_for_count = ctx.gates.len().div_ceil(module_count).max(1);

    // The start population is built on the same claim loop as the
    // descendants (each individual from its own seed, so the order and
    // the result do not depend on the thread count). A panic here leaves
    // nothing to search from, so it aborts the run.
    let mut population: Vec<Individual<'_>> = claim_each(
        config.mu,
        config.threads,
        || (),
        |(), i| {
            let p = start::chain_partition(ctx, size_for_count, seed.wrapping_add(i as u64));
            let eval = Evaluated::new(ctx, p);
            let cost = eval.total_cost();
            Individual {
                eval,
                cost,
                m: config.m_init,
                age: 0,
            }
        },
    )
    .into_iter()
    .map(|slot| slot.expect("building a start individual panicked"))
    .collect();
    let mut evaluations = population.len();
    let (mut pruned, mut pruned_mutations) = (0usize, 0usize);

    let mut log = Vec::new();
    let mut best_cost = f64::INFINITY;
    let mut best: Option<Evaluated<'a>> = None;
    let mut stagnant = 0usize;
    let mut stopped: Option<StopReason> = None;
    let mut generations_run = 0usize;

    for generation in 0..config.generations {
        if let Some(reason) = control.check() {
            stopped = Some(reason);
            break;
        }
        // Descendant tasks: (parent index, Monte-Carlo?, private seed).
        // Each task gets its own RNG derived from the master stream, so
        // the outcome is identical whatever the thread count.
        let tasks: Vec<(usize, bool, u64)> = population
            .iter()
            .enumerate()
            .flat_map(|(pi, _)| {
                (0..config.lambda)
                    .map(move |_| (pi, false))
                    .chain((0..config.chi).map(move |_| (pi, true)))
            })
            .map(|(pi, mc)| (pi, mc, rng.gen::<u64>()))
            .collect();
        let bar = pruning_bar(ctx, &population, config);
        // Workers claim descendants one at a time and keep one scratch
        // evaluator each, re-cloned only when the claimed descendant's
        // parent changes: apply → settle → score → rollback, no per-loser
        // clones. A descendant that panics is lost
        // on its own (its worker's scratch is rebuilt), the generation
        // finishes with the rest, and the run then stops.
        let scored = claim_each(
            tasks.len(),
            config.threads,
            || None::<(usize, Evaluated<'_>)>,
            |scratch, ti| {
                let (pi, mc, s) = tasks[ti];
                let mut child_rng = SmallRng::seed_from_u64(s);
                if scratch.as_ref().map(|(owner, _)| *owner) != Some(pi) {
                    *scratch = Some((pi, population[pi].eval.clone()));
                }
                let (_, eval) = scratch.as_mut().expect("scratch just ensured");
                let parent_m = population[pi].m;
                let scored = if mc {
                    monte_carlo(eval, parent_m, config, &mut child_rng, bar)
                } else {
                    mutate(eval, parent_m, config, &mut child_rng, bar)
                };
                scored.map(|(moves, cost, m, pruned)| ScoredChild {
                    parent: pi,
                    moves,
                    cost,
                    m,
                    pruned,
                })
            },
        );
        let mut panicked = scored.iter().any(Option::is_none);
        let children: Vec<ScoredChild> = scored.into_iter().flatten().flatten().collect();
        evaluations += children.len();
        for child in children.iter().filter(|c| c.pruned) {
            match child.moves {
                Moves::Batch(..) => pruned += 1,
                Moves::Gates(_) => pruned_mutations += 1,
            }
        }
        control.charge(tasks.len() as u64);

        // Selection pool: aged parents + all descendants, in that order
        // (stable sort keeps it deterministic under cost ties).
        for p in &mut population {
            p.age += 1;
        }
        enum Cand {
            Parent(usize),
            Child(usize),
        }
        let mut pool: Vec<(f64, Cand)> = population
            .iter()
            .enumerate()
            .filter(|(_, p)| p.age <= config.max_lifetime)
            .map(|(i, p)| (p.cost, Cand::Parent(i)))
            .collect();
        pool.extend(
            children
                .iter()
                .enumerate()
                .map(|(i, c)| (c.cost, Cand::Child(i))),
        );
        pool.sort_by(|a, b| a.0.total_cmp(&b.0));
        pool.truncate(config.mu);

        // Materialize the surviving children through the same claim
        // loop: each replays its recorded moves on a clone of its parent.
        // Parents move over directly, in pool order.
        let survivors: Vec<&ScoredChild> = pool
            .iter()
            .filter_map(|(_, cand)| match cand {
                Cand::Child(ci) => Some(&children[*ci]),
                Cand::Parent(_) => None,
            })
            .collect();
        let materialized = claim_each(
            survivors.len(),
            config.threads,
            || (),
            |(), si| {
                let child = survivors[si];
                debug_assert!(!child.pruned, "a pruned descendant cannot survive");
                let mut eval = population[child.parent].eval.clone();
                child.moves.apply(&mut eval);
                eval.settle();
                debug_assert_eq!(
                    eval.total_cost().to_bits(),
                    child.cost.to_bits(),
                    "materialized cost must equal scored cost"
                );
                Individual {
                    eval,
                    cost: child.cost,
                    m: child.m,
                    age: 0,
                }
            },
        );
        panicked |= materialized.iter().any(Option::is_none);
        let mut parents: Vec<Option<Individual<'_>>> = population.into_iter().map(Some).collect();
        let mut materialized = materialized.into_iter();
        population = pool
            .iter()
            .filter_map(|(_, cand)| match cand {
                Cand::Parent(i) => Some(parents[*i].take().expect("each parent selected once")),
                Cand::Child(_) => materialized.next().expect("one slot per surviving child"),
            })
            .collect();

        if population.is_empty() {
            // All parents aged out with no offspring (degenerate tiny
            // circuits): restart from chains.
            let p = start::chain_partition(ctx, size_for_count, seed ^ generation as u64);
            let eval = Evaluated::new(ctx, p);
            let cost = eval.total_cost();
            evaluations += 1;
            population.push(Individual {
                eval,
                cost,
                m: config.m_init,
                age: 0,
            });
        }

        let gen_best = &population[0];
        let mean_cost = population.iter().map(|i| i.cost).sum::<f64>() / population.len() as f64;
        log.push(GenerationLog {
            generation,
            best_cost: gen_best.cost,
            mean_cost,
            best_modules: gen_best.eval.partition().module_count(),
        });
        if gen_best.cost + 1e-12 < best_cost {
            best_cost = gen_best.cost;
            best = Some(gen_best.eval.clone());
            stagnant = 0;
        } else {
            stagnant += 1;
            if stagnant >= config.stagnation {
                generations_run = generation + 1;
                break;
            }
        }
        generations_run = generation + 1;
        if panicked {
            stopped = Some(StopReason::WorkerPanicked);
            break;
        }
    }

    // A stop before the first improvement still has the evaluated start
    // population to report: take its best member.
    let (best_eval, best_cost) = match best {
        Some(eval) => (eval, best_cost),
        None => {
            let gen_best = population
                .iter()
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .unwrap_or(&population[0]);
            (gen_best.eval.clone(), gen_best.cost)
        }
    };
    let outcome = EvolutionOutcome {
        best: best_eval.partition().clone(),
        best_cost,
        log,
        evaluations,
        pruned,
        pruned_mutations,
    };
    let value = (outcome, best_eval);
    match stopped {
        None => Outcome::Complete(value),
        Some(reason) => Outcome::Partial {
            value,
            coverage: if config.generations == 0 {
                1.0
            } else {
                generations_run as f64 / config.generations as f64
            },
            reason,
        },
    }
}

/// The pruning bar of one generation: the μ-th best cost among the
/// parents that survive aging into its selection pool (`age + 1 ≤ o`).
/// Those μ parents come before any candidate that costs more, so a
/// descendant whose cost lower bound is strictly above the bar is never
/// selected. `None` when fewer than μ parents survive, or when a cost
/// weight or the violation penalty is negative (the total is then not
/// monotone in its terms, and a term-wise bound proves nothing).
fn pruning_bar(
    ctx: &EvalContext<'_>,
    population: &[Individual<'_>],
    config: &EvolutionConfig,
) -> Option<f64> {
    let w = &ctx.config.weights;
    let monotone = [
        w.area,
        w.delay,
        w.interconnect,
        w.test_time,
        w.module_count,
        ctx.config.violation_penalty,
    ]
    .iter()
    .all(|&x| x >= 0.0);
    let mut costs: Vec<f64> = population
        .iter()
        .filter(|p| p.age < config.max_lifetime)
        .map(|p| p.cost)
        .collect();
    if !monotone || costs.len() < config.mu {
        return None;
    }
    costs.sort_by(f64::total_cmp);
    Some(costs[config.mu - 1])
}

/// Runs `task(state, i)` for every `i` in `0..n` on `min(threads, n)`
/// workers (at least one). Each worker builds its private `state` with
/// `init` and claims the next index from a shared counter, so tasks of
/// uneven cost balance themselves. Results land in their index slots,
/// so the caller sees the same order for any thread count. A task that
/// panics leaves `None` in its slot, and its worker rebuilds its state
/// before the next claim: only the tasks that panicked are lost. The
/// calling thread is one of the workers, so one worker runs inline.
fn claim_each<S, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<Option<T>> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            // The counter publishes no data: results travel back through
            // the join, so `Relaxed` suffices.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            let result = catch_unwind(AssertUnwindSafe(|| task(&mut state, i)));
            if result.is_err() {
                state = init();
            }
            done.push((i, result.ok()));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(n)).map(|_| scope.spawn(worker)).collect();
        let mut batches = vec![worker()];
        batches.extend(helpers.into_iter().filter_map(|h| h.join().ok()));
        for (i, result) in batches.into_iter().flatten() {
            slots[i] = result;
        }
    });
    slots
}

/// Scores one §4.2 mutation on the scratch evaluator: move up to `m`
/// boundary gates of a random module into connected modules, settle,
/// read the cost, roll back. Returns `None` when no move is possible
/// (single-module partitions have no boundary); the scratch is always
/// restored to the parent state.
///
/// With a `bar`, the moved state is bounded before the settle (exact
/// separation, `D_BIC` at its critical-path floor); a bound strictly
/// above the bar is returned as the pruned mutation's cost, unsettled.
fn mutate(
    scratch: &mut Evaluated<'_>,
    parent_m: f64,
    config: &EvolutionConfig,
    rng: &mut SmallRng,
    bar: Option<f64>,
) -> Option<Scored> {
    let k = scratch.partition().module_count();
    if k < 2 {
        return None;
    }
    let m_start = rng.gen_range(0..k);
    let boundary = scratch.boundary_gates(m_start);
    if boundary.is_empty() {
        return None;
    }
    let m_step = adapt_step(parent_m, config.epsilon, rng);
    let cap = (m_step.round() as usize).clamp(1, boundary.len());
    let m_move = rng.gen_range(1..=cap);
    scratch.begin_txn();
    let mut moves: Vec<(NodeId, usize)> = Vec::with_capacity(m_move);
    let mut candidates = boundary;
    while moves.len() < m_move && !candidates.is_empty() {
        let gi = rng.gen_range(0..candidates.len());
        let gate = candidates.swap_remove(gi);
        // Gate may have been re-homed indirectly by module removal; the
        // connected-target list is computed against the current state.
        let targets = scratch.connected_modules(gate);
        if targets.is_empty() {
            continue;
        }
        let target = targets[rng.gen_range(0..targets.len())];
        scratch.move_gate(gate, target);
        moves.push((gate, target));
        if scratch.partition().module_count() < 2 {
            break;
        }
    }
    if moves.is_empty() {
        scratch.rollback_txn();
        return None;
    }
    if let Some(bar) = bar {
        let bound = scratch.cost_lower_bound();
        if bound > bar {
            scratch.rollback_txn();
            return Some((Moves::Gates(moves), bound, m_step, true));
        }
    }
    scratch.settle();
    let cost = scratch.total_cost();
    scratch.rollback_txn();
    Some((Moves::Gates(moves), cost, m_step, false))
}

/// Scores one Monte-Carlo descendant: a random number of random gates of
/// a random module moves into a random module ("the random variation of
/// these descendants is higher compared with mutations"), as one
/// [`Evaluated::move_gates`] batch.
///
/// With a `bar`, the batch is bounded three times before it pays for its
/// row scans: on the touched modules' leakage before it moves, then moved
/// without the scans and bounded before the settle (`D_BIC` at its
/// critical-path floor) and after it (exact delay terms). A bound
/// strictly above the bar is returned as the pruned descendant's cost.
/// Only a descendant that passes every check is rolled back and
/// re-applied with the scans for its exact cost.
fn monte_carlo(
    scratch: &mut Evaluated<'_>,
    parent_m: f64,
    config: &EvolutionConfig,
    rng: &mut SmallRng,
    bar: Option<f64>,
) -> Option<Scored> {
    let k = scratch.partition().module_count();
    if k < 2 {
        return None;
    }
    let source = rng.gen_range(0..k);
    let target = {
        let mut t = rng.gen_range(0..k - 1);
        if t >= source {
            t += 1;
        }
        t
    };
    let size = scratch.partition().module(source).len();
    let count = rng.gen_range(1..=size);
    let gates: Vec<NodeId> = {
        let mut pool: Vec<NodeId> = scratch.partition().module(source).to_vec();
        (0..count)
            .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
            .collect()
    };
    let m_step = adapt_step(parent_m, config.epsilon, rng);
    if let Some(bar) = bar {
        let bound = scratch.batch_leakage_bound(&gates, target);
        if bound > bar {
            return Some((Moves::Batch(gates, target), bound, m_step, true));
        }
        scratch.begin_txn();
        scratch.move_gates_unscanned(&gates, target);
        let mut bound = scratch.cost_lower_bound();
        if bound <= bar {
            scratch.settle();
            bound = scratch.cost_lower_bound();
        }
        scratch.rollback_txn();
        if bound > bar {
            return Some((Moves::Batch(gates, target), bound, m_step, true));
        }
    }
    scratch.begin_txn();
    scratch.move_gates(&gates, target);
    scratch.settle();
    let cost = scratch.total_cost();
    scratch.rollback_txn();
    Some((Moves::Batch(gates, target), cost, m_step, false))
}

/// Redraws the mutation step width from `N(m, ε²)`, floored at 1.
fn adapt_step(m: f64, epsilon: f64, rng: &mut SmallRng) -> f64 {
    // Box–Muller transform; `rand` ships no normal distribution and the
    // approved crate set excludes rand_distr.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (m + epsilon * z).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use iddq_celllib::Library;
    use iddq_netlist::data;

    fn quick_config() -> EvolutionConfig {
        EvolutionConfig {
            mu: 4,
            lambda: 3,
            chi: 1,
            max_lifetime: 6,
            m_init: 2.0,
            epsilon: 1.0,
            generations: 60,
            stagnation: 20,
            threads: 1,
        }
    }

    /// An unbudgeted run.
    fn run(ctx: &EvalContext<'_>, config: &EvolutionConfig, seed: u64) -> EvolutionOutcome {
        optimize(ctx, config, seed, &RunControl::unlimited()).into_value()
    }

    #[test]
    fn optimizes_c17_to_feasible_two_modules_or_fewer() {
        let nl = data::c17();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let out = run(&ctx, &quick_config(), 1);
        out.best.validate(&nl).unwrap();
        let eval = Evaluated::new(&ctx, out.best.clone());
        assert!(eval.cost().feasible());
        assert!(out.best_cost.is_finite());
    }

    #[test]
    fn best_cost_never_increases_in_log() {
        let nl = data::ripple_adder(12);
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let out = run(&ctx, &quick_config(), 3);
        let mut best = f64::INFINITY;
        for entry in &out.log {
            best = best.min(entry.best_cost);
            // The running best observed so far must be reflected.
            assert!(entry.best_cost >= best - 1e-9);
        }
        assert!(out.evaluations > quick_config().mu);
    }

    #[test]
    fn deterministic_for_seed() {
        let nl = data::ripple_adder(8);
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let a = run(&ctx, &quick_config(), 42);
        let b = run(&ctx, &quick_config(), 42);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_cost, b.best_cost);
    }

    #[test]
    fn improves_over_start_partitions() {
        let nl = data::ripple_adder(24);
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let count = crate::start::estimate_module_count(&ctx);
        let chain = crate::start::chain_partition(&ctx, ctx.gates.len().div_ceil(count).max(1), 42);
        let start_cost = Evaluated::new(&ctx, chain).total_cost();
        let out = run(&ctx, &quick_config(), 42);
        assert!(
            out.best_cost <= start_cost,
            "{} vs {start_cost}",
            out.best_cost
        );
    }

    #[test]
    fn step_width_adaptation_floors_at_one() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            assert!(adapt_step(1.0, 10.0, &mut rng) >= 1.0);
        }
    }

    /// A generated c880 and a generated s1423 (with DFFs).
    fn generated() -> [iddq_netlist::Netlist; 2] {
        [
            iddq_gen::iscas::generate(iddq_gen::iscas::IscasProfile::by_name("c880").unwrap(), 5),
            iddq_gen::seq::generate(iddq_gen::seq::SeqProfile::by_name("s1423").unwrap(), 5),
        ]
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let adder = data::ripple_adder(10);
        let [c880, _] = generated();
        let lib = Library::generic_1um();
        // The adder under the quick config, and c880 under the default
        // one, where the bound prunes Monte-Carlo descendants.
        let c880_cfg = EvolutionConfig {
            generations: 12,
            ..EvolutionConfig::default()
        };
        for (nl, cfg, pruned) in [(&adder, quick_config(), None), (&c880, c880_cfg, Some(115))] {
            let ctx = EvalContext::new(nl, &lib, PartitionConfig::paper_default());
            let seq = run(&ctx, &cfg, 11);
            let par_cfg = EvolutionConfig { threads: 4, ..cfg };
            let par = run(&ctx, &par_cfg, 11);
            assert_eq!(seq.best, par.best);
            assert_eq!(seq.best_cost.to_bits(), par.best_cost.to_bits());
            assert_eq!(seq.evaluations, par.evaluations);
            assert_eq!(seq.pruned, par.pruned);
            assert_eq!(seq.log, par.log);
            if let Some(pruned) = pruned {
                assert_eq!(seq.pruned, pruned, "{}", nl.name());
            }
        }
    }

    /// Pins the search's result on generated circuits, recorded before
    /// Monte-Carlo descendants were bound-pruned: pruning must not change
    /// the best cost (to the bit), the best partition (by a digest of its
    /// assignment) or the evaluation count.
    #[test]
    fn pruned_search_matches_the_unpruned_golden_results() {
        let lib = Library::generic_1um();
        let golden: [(&str, u64, u64, u64); 4] = [
            ("c880", 3, 0x40ca_b166_e801_0839, 0x2942_d8bc_8c09_6ed3),
            ("c880", 11, 0x40cb_2ae1_1372_671c, 0x806b_46e2_39ea_1904),
            ("s1423", 3, 0x40cd_041e_be52_4833, 0x8411_c51a_eebc_312a),
            ("s1423", 11, 0x40cd_68b4_50f0_14e9, 0xdf50_7d5d_a065_c9f3),
        ];
        let config = EvolutionConfig {
            generations: 25,
            ..EvolutionConfig::default()
        };
        for nl in generated() {
            let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
            for &(name, seed, cost_bits, digest) in golden.iter().filter(|g| g.0 == nl.name()) {
                let out = run(&ctx, &config, seed);
                // FNV-1a over the assignment vector.
                let got = out
                    .best
                    .assignment()
                    .iter()
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, &m| {
                        (h ^ u64::from(m)).wrapping_mul(0x0100_0000_01b3)
                    });
                assert_eq!(out.best_cost.to_bits(), cost_bits, "{name} seed {seed}");
                assert_eq!(got, digest, "{name} seed {seed}");
                assert_eq!(out.evaluations, 906, "{name} seed {seed}");
                assert!(out.pruned > 0, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn negative_weight_prunes_nothing() {
        let [c880, _] = generated();
        let lib = Library::generic_1um();
        let config = EvolutionConfig {
            generations: 8,
            ..EvolutionConfig::default()
        };
        let default = EvalContext::new(&c880, &lib, PartitionConfig::paper_default());
        assert!(run(&default, &config, 3).pruned > 0);
        let mut negative = PartitionConfig::paper_default();
        negative.weights.module_count = -10.0;
        let ctx = EvalContext::new(&c880, &lib, negative);
        let out = run(&ctx, &config, 3);
        assert_eq!(out.pruned, 0);
        assert!(out.evaluations > config.mu);
    }

    #[test]
    fn claim_each_loses_only_the_panicking_tasks() {
        // Task 3 poisons its worker's state and panics. The worker must
        // rebuild the state, or every later task it claims panics too.
        for threads in [1, 2, 4] {
            let slots = claim_each(
                9,
                threads,
                || false,
                |poisoned, i| {
                    assert!(!*poisoned, "state kept after a panic");
                    if i == 3 {
                        *poisoned = true;
                        panic!("injected panic");
                    }
                    i * 10
                },
            );
            let want: Vec<Option<usize>> = (0..9).map(|i| (i != 3).then_some(i * 10)).collect();
            assert_eq!(slots, want, "threads = {threads}");
        }
        assert!(claim_each(0, 4, || (), |(), i| i).is_empty());
    }

    #[test]
    fn quota_budget_stops_early_with_best_so_far() {
        use iddq_control::RunBudget;
        let nl = data::ripple_adder(10);
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        // One generation scores mu*(lambda+chi) = 16 descendants; a
        // 40-unit quota allows at most a few generations of 60.
        let control = RunControl::with_budget(RunBudget::unlimited().with_quota(40));
        let out = optimize(&ctx, &quick_config(), 7, &control);
        match out {
            Outcome::Partial {
                value,
                coverage,
                reason,
            } => {
                assert_eq!(reason, StopReason::QuotaExhausted);
                assert!(coverage < 1.0);
                assert!(value.best_cost.is_finite());
                value.best.validate(&nl).unwrap();
            }
            Outcome::Complete(_) => panic!("a 40-evaluation quota cannot finish 60 generations"),
        }
    }

    #[test]
    fn pre_cancelled_optimize_reports_start_population_best() {
        let nl = data::c17();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let control = RunControl::unlimited();
        control.token().cancel();
        let out = optimize(&ctx, &quick_config(), 1, &control);
        assert_eq!(out.stop_reason(), Some(StopReason::Cancelled));
        let value = out.into_value();
        assert!(value.best_cost.is_finite());
        value.best.validate(&nl).unwrap();
        assert!(value.log.is_empty());
    }

    /// When every parent ages out with no descendant, the search restarts
    /// from one fresh chain. On a one-gate netlist every chain is one
    /// module, so neither mutation nor Monte-Carlo yields a descendant;
    /// with `stagnation` above the run length the population ages out at
    /// generations 2, 5 and 8 (`max_lifetime` 2). Each restart is one
    /// evaluation, and every generation's best is the single-module cost.
    #[test]
    fn aged_out_population_restarts_from_a_chain() {
        let mut b = iddq_netlist::NetlistBuilder::new("one");
        let i = b.add_input("i");
        let g = b
            .add_gate("g", iddq_netlist::CellKind::Not, vec![i])
            .unwrap();
        b.mark_output(g);
        let nl = b.build().unwrap();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let config = EvolutionConfig {
            generations: 10,
            max_lifetime: 2,
            stagnation: 20,
            ..quick_config()
        };
        let out = run(&ctx, &config, 1);
        assert_eq!(out.log.len(), 10);
        assert_eq!(out.evaluations, config.mu + 3);
        assert_eq!(out.best.module_count(), 1);
        let single = Evaluated::new_by_pair_sums(&ctx, Partition::single_module(&nl)).total_cost();
        assert_eq!(out.best_cost.to_bits(), single.to_bits());
        for entry in &out.log {
            assert_eq!(entry.best_cost.to_bits(), single.to_bits());
            assert_eq!(entry.best_modules, 1);
        }
    }

    #[test]
    fn mutation_returns_none_for_single_module() {
        let nl = data::c17();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let mut eval = Evaluated::new(&ctx, Partition::single_module(&nl));
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(mutate(&mut eval, 2.0, &quick_config(), &mut rng, None).is_none());
        assert!(monte_carlo(&mut eval, 2.0, &quick_config(), &mut rng, None).is_none());
    }
}
