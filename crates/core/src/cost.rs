//! The global cost function `C(Π) = Σ αᵢ·cᵢ(Π)` and its one owner,
//! [`Objective`].

use serde::{Deserialize, Serialize};

use crate::config::{PartitionConfig, Weights};
use crate::evaluator::ModuleSensor;

/// All cost terms of one partition evaluation, before and after
/// weighting.
///
/// Terms follow §3 of the paper:
///
/// * `c1 = log A` — total BIC sensor area (log-compressed "so all
///   components of the objective function have similar range"),
/// * `c2 = (D_BIC − D)/D` — relative critical-path delay overhead,
/// * `c3 = log S(Π)` — intra-module separation (wiring difficulty),
/// * `c4` — relative test-application-time overhead (logic settle plus
///   the slowest sensor's decay+sense window, per vector),
/// * `c5 = K` — module count (test clock/output routing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// `c₁`: log of total sensor area.
    pub c1_area: f64,
    /// `c₂`: relative delay overhead.
    pub c2_delay: f64,
    /// `c₃`: log of total separation.
    pub c3_interconnect: f64,
    /// `c₄`: relative test-time overhead.
    pub c4_test_time: f64,
    /// `c₅`: module count.
    pub c5_modules: f64,
    /// Number of violated constraints (discriminability + rail
    /// perturbation, counted per module).
    pub violations: usize,
    /// Raw (un-logged) total sensor area, for reporting — the figure the
    /// paper's Table 1 prints.
    pub sensor_area: f64,
    /// Absolute degraded critical path `D_BIC`, ps.
    pub dbic_ps: f64,
    /// Absolute per-vector test time `D_BIC + max_i Δ(τᵢ)`, ps.
    pub vector_time_ps: f64,
}

impl CostBreakdown {
    /// The constraint evaluation function `r(Π)` of §2: 1 iff every
    /// module meets discriminability `I_DDQ,th / I_DDQ,nd,i ≥ d` and has
    /// a realizable bypass within the rail perturbation `r*`.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.violations == 0
    }
}

/// The figures of one partition that its cost terms are computed from.
/// For [`Objective::floor`] a field may hold a lower bound instead, and
/// an unknown one its least value: 0, and `D_BIC` at most `D`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Figures {
    /// Module count `K`.
    pub modules: usize,
    /// Constraint violations, summed over the modules.
    pub violations: usize,
    /// Total sensor area `A`.
    pub sensor_area: f64,
    /// Total separation `S(Π)`.
    pub separation: u64,
    /// The slowest sensor's decay+sense time `max_i Δ(τᵢ)`, ps.
    pub max_delta_ps: f64,
    /// Degraded critical path `D_BIC`, ps.
    pub dbic_ps: f64,
    /// Nominal critical path `D`, ps (positive).
    pub nominal_delay_ps: f64,
}

impl Figures {
    /// The figures of the modules carrying `sensors`: their violations
    /// and areas summed and their decay times maxed in module order.
    pub(crate) fn of_modules(
        sensors: impl IntoIterator<Item = ModuleSensor>,
        separation: u64,
        dbic_ps: f64,
        nominal_delay_ps: f64,
    ) -> Self {
        let mut figures = Figures {
            separation,
            dbic_ps,
            nominal_delay_ps,
            ..Figures::default()
        };
        for sens in sensors {
            figures.modules += 1;
            figures.violations += sens.violations;
            figures.sensor_area += sens.area;
            figures.max_delta_ps = figures.max_delta_ps.max(sens.delta_ps);
        }
        figures
    }
}

/// The objective the search minimises: `C(Π) = Σ αᵢ·cᵢ(Π)` (§3) plus
/// the violation penalty per violated constraint, under the weights and
/// penalty of one [`PartitionConfig`], read from
/// [`EvalContext::objective`](crate::EvalContext::objective).
///
/// # The floor
///
/// [`Objective::new`] admits only non-negative weights and penalty, so
/// the total is monotone in every figure, in floating point too: each
/// term rises with its figures (subtraction, division by `D > 0`, `ln`),
/// and multiplication by a non-negative weight and each addition of the
/// fixed-order sum are monotone in each operand, since rounding to
/// nearest never reverses an order. For `c₃ = ln(1 + S)` a faithfully
/// rounded `ln` suffices while `S < 2⁴⁶`, where `ln` of neighbouring
/// integers differs by more than two ulps. So [`Objective::floor`] of
/// lower bounds on the figures bounds the total. Its one premise on the
/// figures is `D_BIC ≥ D`: every degraded gate weight is its nominal
/// delay times `δ ≥ 1`, under the same max/+ recurrence over the same
/// graph. A graded violation measure (Deb's feasibility rules) or a
/// delay reference other than `D` changes these premises; this is the
/// one place that must re-derive them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    weights: Weights,
    violation_penalty: f64,
}

impl Objective {
    /// The objective of `config`'s weights and violation penalty.
    ///
    /// # Panics
    ///
    /// Panics if a weight or the penalty is negative or NaN: the total
    /// would not be monotone in its figures, and no floor would bound it.
    #[must_use]
    pub fn new(config: &PartitionConfig) -> Self {
        let (w, violation_penalty) = (config.weights, config.violation_penalty);
        let all = [w.area, w.delay, w.interconnect, w.test_time, w.module_count];
        assert!(
            all.iter().chain([&violation_penalty]).all(|&x| x >= 0.0),
            "cost weights and the violation penalty must be non-negative: {w:?}, \
             penalty {violation_penalty}"
        );
        Objective {
            weights: w,
            violation_penalty,
        }
    }

    /// The five cost terms of `figures`.
    #[must_use]
    pub fn terms(&self, figures: &Figures) -> CostBreakdown {
        let d = figures.nominal_delay_ps.max(f64::MIN_POSITIVE);
        let vector_time_ps = figures.dbic_ps + figures.max_delta_ps;
        CostBreakdown {
            c1_area: figures.sensor_area.max(1.0).ln(),
            c2_delay: (figures.dbic_ps - figures.nominal_delay_ps) / d,
            c3_interconnect: (1.0 + figures.separation as f64).ln(),
            c4_test_time: (vector_time_ps - figures.nominal_delay_ps) / d,
            c5_modules: figures.modules as f64,
            violations: figures.violations,
            sensor_area: figures.sensor_area,
            dbic_ps: figures.dbic_ps,
            vector_time_ps,
        }
    }

    /// The weighted total `Σ αᵢ·cᵢ` plus the violation penalty.
    #[must_use]
    pub fn total(&self, cost: &CostBreakdown) -> f64 {
        let w = &self.weights;
        w.area * cost.c1_area
            + w.delay * cost.c2_delay
            + w.interconnect * cost.c3_interconnect
            + w.test_time * cost.c4_test_time
            + w.module_count * cost.c5_modules
            + self.violation_penalty * cost.violations as f64
    }

    /// The lowest total that figures each at least `figures` can reach
    /// (see [the floor](Objective#the-floor)): `D_BIC` below `D` counts
    /// as `D`, and a separation from 2⁴⁶ on as 0. Bit for bit
    /// `total(&terms(figures))` whenever `D_BIC ≥ D` and `S < 2⁴⁶`.
    #[must_use]
    pub fn floor(&self, figures: &Figures) -> f64 {
        self.total(&self.terms(&Figures {
            dbic_ps: figures.dbic_ps.max(figures.nominal_delay_ps),
            separation: if figures.separation < 1 << 46 {
                figures.separation
            } else {
                0
            },
            ..*figures
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_total_matches_paper_formula() {
        let objective = Objective::new(&PartitionConfig::paper_default());
        let mut c = CostBreakdown {
            c1_area: 14.0,
            c2_delay: 0.06,
            c3_interconnect: 8.0,
            c4_test_time: 4.0,
            c5_modules: 3.0,
            violations: 0,
            sensor_area: 1.2e6,
            dbic_ps: 5000.0,
            vector_time_ps: 30_000.0,
        };
        let want = 9.0 * 14.0 + 1e5 * 0.06 + 8.0 + 4.0 + 10.0 * 3.0;
        assert!((objective.total(&c) - want).abs() < 1e-9);
        // Each violation adds the penalty.
        c.violations = 2;
        assert!((objective.total(&c) - want - 2e7).abs() < 1e-6);
        assert!(!c.feasible());
    }
}
