//! Partitioning configuration: cost weights and constraint parameters.

use iddq_bic::sizing::SizingSpec;
use serde::{Deserialize, Serialize};

/// The weight factors `α₁ … α₅` of the global cost function.
///
/// # Example
///
/// ```rust
/// use iddq_core::Weights;
///
/// let w = Weights::paper();
/// assert_eq!(w.delay, 1e5); // delay overhead dominates, as in §5.1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    /// `α₁` — sensor area term `c₁ = log A`.
    pub area: f64,
    /// `α₂` — delay overhead term `c₂ = (D_BIC − D)/D`.
    pub delay: f64,
    /// `α₃` — intra-module wiring term `c₃ = log S(Π)`.
    pub interconnect: f64,
    /// `α₄` — test application time term `c₄`.
    pub test_time: f64,
    /// `α₅` — module count term `c₅ = K` (test clock/output routing).
    pub module_count: f64,
}

impl Weights {
    /// The exact weights of the paper's §5.1:
    /// `C(Π) = 9·c₁ + 10⁵·c₂ + c₃ + c₄ + 10·c₅`.
    #[must_use]
    pub fn paper() -> Self {
        Weights {
            area: 9.0,
            delay: 1e5,
            interconnect: 1.0,
            test_time: 1.0,
            module_count: 10.0,
        }
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights::paper()
    }
}

/// Full configuration of the PART-IDDQ instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Cost weights.
    pub weights: Weights,
    /// Required discriminability `d` (paper: "a typical value is 10").
    pub d_min: f64,
    /// Sensor sizing parameters (`r*`, area model, decay model).
    pub sizing: SizingSpec,
    /// Saturation bound `ρ` for the separation metric of §3.3.
    pub rho: u32,
    /// Size of the precomputed test-vector set (only scales the absolute
    /// test time report; the `c₄` overhead ratio is per-vector).
    pub num_vectors: usize,
    /// Penalty added to the cost per constraint violation, keeping the
    /// search ordered while strongly repelling infeasible regions.
    pub violation_penalty: f64,
}

impl PartitionConfig {
    /// Paper-default parameters: weights of §5.1, `d = 10`, `r* = 200 mV`,
    /// `ρ = 6`.
    #[must_use]
    pub fn paper_default() -> Self {
        PartitionConfig {
            weights: Weights::paper(),
            d_min: 10.0,
            sizing: SizingSpec::paper_default(),
            rho: 6,
            num_vectors: 1024,
            violation_penalty: 1e7,
        }
    }
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_weights_match_section_5_1() {
        let w = Weights::paper();
        assert_eq!(w.area, 9.0);
        assert_eq!(w.delay, 1e5);
        assert_eq!(w.interconnect, 1.0);
        assert_eq!(w.test_time, 1.0);
        assert_eq!(w.module_count, 10.0);
    }

    #[test]
    fn default_config_is_feasibly_parameterized() {
        let c = PartitionConfig::default();
        assert!(c.d_min > 1.0, "IDDQ test needs d > 1 (paper §2)");
        assert!(c.sizing.r_star_mv >= 100.0 && c.sizing.r_star_mv <= 300.0);
        assert!(c.rho > 0);
        assert!(c.violation_penalty > 1e6);
    }
}
