//! The paper's contribution: partitioning a CMOS circuit into BIC-sensed
//! modules for IDDQ testability.
//!
//! The **PART-IDDQ** problem (paper §2): find a partition `Π* = {M_1, …,
//! M_K}` of the gates that satisfies
//!
//! * *discriminability* — `d(M_i) = I_DDQ,th / I_DDQ,nd,i ≥ d` for every
//!   module (typically `d = 10`), and
//! * *virtual-rail perturbation* — `R_s,i · î_DD,max,i ≤ r*` for a
//!   realizable bypass device,
//!
//! while minimizing the weighted cost
//!
//! ```text
//! C(Π) = α₁·c₁ + α₂·c₂ + α₃·c₃ + α₄·c₄ + α₅·c₅
//!        (area)  (delay) (wiring) (test time) (module count)
//! ```
//!
//! The problem is NP-hard; the paper optimizes it with an evolution
//! strategy (μ parents, λ children each, χ Monte-Carlo descendants,
//! maximum lifetime o, adaptive mutation width m with variance ε).
//!
//! Module map:
//!
//! * [`config`] — weights and parameters (paper defaults included),
//! * [`context`] — one-time analysis of a netlist + library
//!   (transition-time sets, separation analyses, nominal timing), built
//!   flat, tiered ([`AnalysisTier`]) and optionally parallel via
//!   [`EvalContextBuilder`],
//! * [`partition`] — the plain partition data type,
//! * [`evaluator`] — incremental cost evaluation ([`Evaluated`]),
//! * [`resynth`] — structure-patched cost evaluation ([`ResynthEval`]):
//!   resynthesis candidates scored by patch apply/rollback on one
//!   persistent evaluation instead of netlist rebuilds,
//! * [`start`] — §4.2 chain-grown start partitions,
//! * [`evolution`] — §4 the evolution strategy,
//! * [`standard`] — §5 the straightforward baseline partitioner,
//! * [`flow`] — end-to-end synthesis entry points and reporting.
//!
//! # Failure semantics
//!
//! The searches are budget-aware: [`evolution::optimize`] accepts an
//! [`iddq_control::RunControl`] and returns an [`iddq_control::Outcome`]. The evolution loop checks its
//! control at *generation boundaries* and charges one quota unit per
//! descendant scored; on a stop it returns the best individual found so
//! far as [`iddq_control::Outcome::Partial`] with `coverage` =
//! generations run / generations requested. Every descendant is scored
//! under its own `catch_unwind`: a panicking descendant is lost alone
//! (its worker rebuilds its scratch evaluator), and the search stops with
//! [`iddq_control::StopReason::WorkerPanicked`] after the survivors are
//! selected, so a poisoned worker can never corrupt the population.
//!
//! # Quickstart
//!
//! ```rust
//! use iddq_celllib::Library;
//! use iddq_core::evolution::EvolutionConfig;
//! use iddq_core::{config::PartitionConfig, flow};
//! use iddq_netlist::data;
//!
//! let c17 = data::c17();
//! let lib = Library::generic_1um();
//! let cfg = PartitionConfig::paper_default();
//! let evo = EvolutionConfig::default();
//! let result = flow::synthesize_with(&c17, &lib, &cfg, &evo, 42);
//! assert!(result.report.feasible);
//! assert!(result.report.modules.len() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod context;
pub mod cost;
pub mod evaluator;
pub mod evolution;
pub mod flow;
pub mod partition;
pub mod resynth;
pub mod standard;
pub mod start;

pub use config::{PartitionConfig, Weights};
pub use context::{plan_tier, AnalysisTier, EvalContext, EvalContextBuilder, TierBudget, TierPlan};
pub use cost::{CostBreakdown, Figures, Objective};
pub use evaluator::Evaluated;
pub use partition::Partition;
pub use resynth::ResynthEval;
