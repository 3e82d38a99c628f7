//! Deterministic synthetic circuit generators.
//!
//! The paper evaluates on the ISCAS-85 benchmark set (Brglez et al. 1985).
//! Those netlists are not redistributable inside this repository, so this
//! crate provides:
//!
//! * [`iscas`] — a seeded random-DAG generator matched, circuit by
//!   circuit, to the published ISCAS-85 statistics (primary inputs,
//!   primary outputs, gate count, approximate logic depth, gate-type mix),
//!   exposed through [`iscas::IscasProfile`] and [`iscas::generate`];
//! * [`mod@array`] — the two-dimensional cell-array CUT of the paper's
//!   Figure 2, with three cell types and column-staggered switching times,
//!   used to demonstrate the influence of partition *shape* on BIC sensor
//!   area;
//! * [`mega`] — the O(gates) levelized mega-circuit generator
//!   (10^5–10^7 gates) behind the `scale` benchmarks: wide levels for
//!   structural parallelism, exact level placement, deterministic by
//!   [`mega::MegaConfig`];
//! * [`seq`] — ISCAS-89-like *sequential* circuits ([`seq::SeqProfile`],
//!   [`seq::generate`]): DFF state elements as frame-boundary
//!   pseudo-inputs, next-state functions wired through the fabric, for
//!   exercising the multi-frame sweep and time-frame-expanded ATPG
//!   paths.
//!
//! Generation is fully deterministic given `(profile, seed)`, so every
//! experiment over generated circuits (e.g. the `table1` binary of
//! `iddq-bench`) regenerates bit-identically.
//!
//! # Example
//!
//! ```rust
//! use iddq_gen::iscas;
//!
//! let profile = iscas::IscasProfile::by_name("c1908").unwrap();
//! let nl = iscas::generate(profile, 42);
//! assert_eq!(nl.gate_count(), 880);
//! assert_eq!(nl.num_inputs(), 33);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod array;
pub mod iscas;
pub mod mega;
pub mod seq;
