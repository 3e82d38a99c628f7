//! End-to-end synthesis entry points and reporting.
//!
//! [`synthesize_with`] runs the full flow of the paper: build the analysis
//! context, grow start partitions, optimize with the evolution strategy
//! and emit a [`SynthesisReport`] with every per-module electrical figure
//! (sensor size, discriminability, time constants). The report is read
//! off the evaluator the search holds for its best individual, rebased
//! (floating-point figures recomputed, exact separations kept), so the
//! winner is not evaluated a second time. [`compare_standard`]
//! additionally builds the §5 baseline at the same module count, the
//! comparison Table 1 reports.

use serde::{Deserialize, Serialize};

use iddq_celllib::Library;
use iddq_control::RunControl;
use iddq_netlist::Netlist;

use crate::config::PartitionConfig;
use crate::context::EvalContext;
use crate::cost::CostBreakdown;
use crate::evaluator::Evaluated;
use crate::evolution::{self, EvolutionConfig, GenerationLog};
use crate::partition::Partition;
use crate::standard;

/// Per-module figures of a synthesized design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleReport {
    /// Module index.
    pub index: usize,
    /// Gate count.
    pub gates: usize,
    /// `î_DD,max,i` in µA.
    pub peak_current_ua: f64,
    /// Fault-free `I_DDQ,nd,i` in nA.
    pub leakage_na: f64,
    /// Discriminability `d(M_i) = I_DDQ,th / I_DDQ,nd,i`.
    pub discriminability: f64,
    /// Sized bypass resistance `R_s,i` in Ω (`None` if infeasible).
    pub rs_ohm: Option<f64>,
    /// Sensor area `A_0 + A_1/R_s,i` (`None` if infeasible).
    pub sensor_area: Option<f64>,
    /// Sensor time constant `τ_s,i` in ps.
    pub tau_ps: Option<f64>,
    /// Per-vector decay+sense time `Δ(τ_s,i)` in ps.
    pub delta_ps: Option<f64>,
}

/// Complete result record, serializable so experiment runs can be stored
/// and compared as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisReport {
    /// Circuit name.
    pub circuit: String,
    /// Gate count of the CUT.
    pub gates: usize,
    /// Per-module details.
    pub modules: Vec<ModuleReport>,
    /// Cost breakdown of the final partition.
    pub cost: CostBreakdown,
    /// Weighted total cost.
    pub total_cost: f64,
    /// `r(Π)` of the final partition.
    pub feasible: bool,
    /// Nominal critical path `D` in ps.
    pub nominal_delay_ps: f64,
    /// Estimated total test time (`num_vectors · (D_BIC + max Δ)`) in ps.
    pub test_time_ps: f64,
}

/// Output of [`synthesize_with`].
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The optimized partition.
    pub partition: Partition,
    /// Structured report.
    pub report: SynthesisReport,
    /// Evolution convergence trace.
    pub log: Vec<GenerationLog>,
    /// Number of partitions evaluated.
    pub evaluations: usize,
    /// Monte-Carlo descendants rejected by a cost lower bound
    /// ([`EvolutionOutcome::pruned`](crate::evolution::EvolutionOutcome::pruned)).
    pub pruned: usize,
    /// Mutations rejected by a cost lower bound
    /// ([`EvolutionOutcome::pruned_mutations`](crate::evolution::EvolutionOutcome::pruned_mutations)).
    pub pruned_mutations: usize,
}

/// Builds the report for an arbitrary evaluated partition.
#[must_use]
pub fn report_for(eval: &Evaluated<'_>) -> SynthesisReport {
    let ctx = eval.context();
    let cost = eval.cost();
    let modules = eval
        .stats()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let sensor = eval.sensor(i).ok();
            let leak_ua = s.leakage_na / 1000.0;
            ModuleReport {
                index: i,
                gates: eval.partition().module(i).len(),
                peak_current_ua: s.peak_current_ua,
                leakage_na: s.leakage_na,
                discriminability: if leak_ua > 0.0 {
                    ctx.technology.iddq_threshold_ua / leak_ua
                } else {
                    f64::INFINITY
                },
                rs_ohm: sensor.as_ref().map(|x| x.rs_ohm),
                sensor_area: sensor.as_ref().map(|x| x.area),
                tau_ps: sensor.as_ref().map(iddq_bic::BicSensor::tau_ps),
                delta_ps: sensor.as_ref().map(|x| x.delta_ps(s.peak_current_ua)),
            }
        })
        .collect();
    SynthesisReport {
        circuit: ctx.netlist.name().to_owned(),
        gates: ctx.netlist.gate_count(),
        modules,
        cost,
        total_cost: ctx.objective().total(&cost),
        feasible: cost.feasible(),
        nominal_delay_ps: ctx.nominal_delay_ps,
        test_time_ps: cost.vector_time_ps * ctx.config.num_vectors as f64,
    }
}

/// Runs the flow with explicit optimizer parameters.
///
/// The analysis context is built once at the
/// [`GateSep`](crate::AnalysisTier::GateSep) tier, with the gate table's
/// BFS sharded across `evo.threads` workers (bit-identical to a serial
/// build).
#[must_use]
pub fn synthesize_with(
    netlist: &Netlist,
    library: &Library,
    config: &PartitionConfig,
    evo: &EvolutionConfig,
    seed: u64,
) -> SynthesisResult {
    let ctx = gate_sep_context(netlist, library, config, evo);
    synthesize_in(&ctx, evo, seed)
}

/// The flow's context: the `GateSep` tier, sharded across `evo.threads`.
fn gate_sep_context<'a>(
    netlist: &'a Netlist,
    library: &'a Library,
    config: &PartitionConfig,
    evo: &EvolutionConfig,
) -> EvalContext<'a> {
    EvalContext::builder(netlist, library, config.clone())
        .threads(evo.threads)
        .build()
}

/// Runs the flow on a caller-supplied context, so callers that already
/// hold the analyses — e.g. the gate table a per-gate resynthesis search
/// ends with (see [`EvalContextBuilder::sep_table`]) — do not pay for a
/// second build.
///
/// The report comes from the evaluator the search ends holding for its
/// best individual, rebased: its floating-point figures are recomputed
/// from scratch and its exact separation totals kept, so the report is
/// bit-identical to one built on `Evaluated::new` of the best partition
/// without scanning the members' separation rows again.
///
/// # Panics
///
/// Panics if `ctx` was built below [`AnalysisTier::GateSep`](crate::AnalysisTier::GateSep).
///
/// [`EvalContextBuilder::sep_table`]: crate::context::EvalContextBuilder::sep_table
#[must_use]
pub fn synthesize_in(ctx: &EvalContext<'_>, evo: &EvolutionConfig, seed: u64) -> SynthesisResult {
    let (outcome, best) = evolution::search(ctx, evo, seed, &RunControl::unlimited()).into_value();
    SynthesisResult {
        partition: outcome.best,
        report: report_for(&best.rebased()),
        log: outcome.log,
        evaluations: outcome.evaluations,
        pruned: outcome.pruned,
        pruned_mutations: outcome.pruned_mutations,
    }
}

/// Side-by-side evolution vs §5-standard comparison at equal module count
/// (the Table 1 experiment).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Evolution result.
    pub evolution: SynthesisResult,
    /// Standard-partitioning report at the same module sizes.
    pub standard: SynthesisReport,
    /// Standard partition itself.
    pub standard_partition: Partition,
}

/// Runs both methods; the standard baseline receives the evolution
/// result's module sizes, exactly as §5 prescribes.
#[must_use]
pub fn compare_standard(
    netlist: &Netlist,
    library: &Library,
    config: &PartitionConfig,
    evo: &EvolutionConfig,
    seed: u64,
) -> Comparison {
    let ctx = gate_sep_context(netlist, library, config, evo);
    let evolution = synthesize_in(&ctx, evo, seed);

    // Same module *count* as the evolution result, balanced sizes — the
    // electrically determined size of §5 ("we take the numbers obtained by
    // the evolution based algorithm").
    let sizes = standard::equal_sizes(netlist.gate_count(), evolution.partition.module_count());
    let std_p = standard::standard_partition(&ctx, &sizes);
    let std_eval = Evaluated::new(&ctx, std_p.clone());
    let std_report = report_for(&std_eval);

    Comparison {
        evolution,
        standard: std_report,
        standard_partition: std_p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_netlist::data;

    #[test]
    fn c17_flow_end_to_end() {
        let nl = data::c17();
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let r = synthesize_with(&nl, &lib, &cfg, &EvolutionConfig::default(), 7);
        assert!(r.report.feasible);
        assert_eq!(r.report.gates, 6);
        assert_eq!(r.report.circuit, "c17");
        assert!(r.report.test_time_ps > 0.0);
        for m in &r.report.modules {
            assert!(m.discriminability >= cfg.d_min);
            assert!(m.rs_ohm.is_some());
        }
    }

    #[test]
    fn comparison_produces_equal_module_counts() {
        let nl = data::ripple_adder(20);
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let evo = crate::evolution::EvolutionConfig {
            generations: 40,
            ..Default::default()
        };
        let cmp = compare_standard(&nl, &lib, &cfg, &evo, 5);
        assert_eq!(
            cmp.evolution.report.modules.len(),
            cmp.standard.modules.len()
        );
    }

    #[test]
    fn report_serializes_to_json() {
        let nl = data::c17();
        let lib = Library::generic_1um();
        let cfg = PartitionConfig::paper_default();
        let r = synthesize_with(&nl, &lib, &cfg, &EvolutionConfig::default(), 1);
        // serde round-trip via the Serialize impl (serde_json lives in the
        // bench crate; here a token check that the derives compile and the
        // data model is self-consistent).
        let cloned = r.report.clone();
        assert_eq!(cloned, r.report);
    }
}
