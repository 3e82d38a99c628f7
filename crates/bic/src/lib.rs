//! Built-In Current (BIC) sensor modelling.
//!
//! The sensor architecture of the paper's Figure 1: a sensing device in
//! the module's ground path, a bypass MOS switch (control `C`) and a
//! detection circuit producing PASS/FAIL. During normal operation `C = 1`
//! keeps the bypass ON, so the only electrical footprint is the bypass ON
//! resistance `R_s`; during test `C = 0` lets the sensing device compare
//! the module's quiescent current against `I_DDQ,th`.
//!
//! This crate covers:
//!
//! * [`sizing`] — choosing `R_s,i = r*/î_DD,max,i` per module from the
//!   virtual-rail perturbation limit, clamped to the technology's
//!   realizable window,
//! * [`sensor::BicSensor`] — the sized sensor: area (`A_0 + A_1/R_s`),
//!   time constant `τ_s = R_s·C_s`, per-vector settle time `Δ(τ)`,
//! * [`detect`] — behavioural PASS/FAIL evaluation with measurement
//!   noise bounds.
//!
//! # Example
//!
//! ```rust
//! use iddq_bic::sizing::{size_sensor, SizingSpec};
//! use iddq_celllib::Technology;
//!
//! let tech = Technology::generic_1um();
//! let spec = SizingSpec::paper_default();
//! // A module with 20 mA peak transient current:
//! let sensor = size_sensor(20_000.0, 600.0, &spec, &tech).unwrap();
//! assert!(sensor.rs_ohm <= spec.r_star_mv / 20.0); // r*/î
//! assert!(sensor.area > spec.a0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod detect;
pub mod sensor;
pub mod sizing;

pub use sensor::BicSensor;
