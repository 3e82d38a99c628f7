//! Tiered, parallel construction of the one-time analysis context shared
//! by every partition evaluation.
//!
//! # The tiers
//!
//! Not every consumer needs every analysis, and the analyses have very
//! different costs — on large circuits the §3.3 separation table
//! dominates the build. [`EvalContextBuilder`] therefore constructs an
//! [`EvalContext`] at one of two tiers:
//!
//! | tier ([`AnalysisTier`]) | contains | needed by |
//! |---|---|---|
//! | `Timing` | cell tables, §3.1 transition-time sets, fanout-cone index, nominal critical path, topo gate list | the serve `stats` floor under memory or deadline pressure |
//! | `GateSep` (the default; `Separation` is an alias) | `Timing` + the gate-only `ρ − d` neighbour-weight table ([`GateSeparationTable`]), built *directly* from the netlist or handed over ([`EvalContextBuilder::sep_table`]) | [`crate::Evaluated`], [`crate::standard`], [`crate::evolution`], [`crate::flow`], [`crate::resynth::ResynthEval`], the patch-scored per-gate resynthesis search (`iddq-synth::cost_aware_per_gate_in`) and the bridge sampler (`iddq-logicsim::faults::enumerate_with`) — §3.3 only needs gate-to-gate distances |
//!
//! `Timing ⊂ GateSep`. `iddq synth --resynth --per-gate` builds one table
//! per run: the search ends holding the rows of the netlist it returns,
//! and the evolution's context is built around them.
//!
//! # Parallelism
//!
//! The table build is one independent bounded BFS per gate, 64 sources
//! per batch; [`EvalContextBuilder::threads`] shards the batches across
//! workers (the stitched result is bit-identical to the serial build, so
//! a parallel context is interchangeable with a serial one everywhere).

use iddq_celllib::{Library, NodeTables, Technology};
use iddq_netlist::cone::ConeIndex;
use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::{levelize, Netlist, TimeSet};

use crate::config::PartitionConfig;
use crate::cost::Objective;

/// How much analysis an [`EvalContext`] carries (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnalysisTier {
    /// Tables, transition times, cones and nominal delay only.
    Timing,
    /// `Timing` plus the gate-only separation table — what
    /// [`EvalContext::new`] builds.
    GateSep,
}

impl AnalysisTier {
    /// The separation tier under its older name: the gate table is the
    /// one separation analysis, so `Separation` is `GateSep`, and
    /// `"separation"` parses to it.
    #[allow(non_upper_case_globals)]
    pub const Separation: AnalysisTier = AnalysisTier::GateSep;

    /// Canonical lower-case name, the wire form of the serving protocol.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AnalysisTier::Timing => "timing",
            AnalysisTier::GateSep => "gatesep",
        }
    }
}

impl std::fmt::Display for AnalysisTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for AnalysisTier {
    type Err = iddq_control::EngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "timing" => Ok(AnalysisTier::Timing),
            "gatesep" | "separation" => Ok(AnalysisTier::GateSep),
            other => Err(iddq_control::EngineError::InvalidArg(format!(
                "unknown analysis tier {other:?} (expected timing | gatesep | separation)"
            ))),
        }
    }
}

/// Resource ceilings consulted by [`plan_tier`] before an analysis build
/// is committed to: how much wall clock is left on the request and how
/// much memory the artifact may occupy. `None` means unconstrained.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierBudget {
    /// Milliseconds left before the caller's deadline.
    pub remaining_ms: Option<u64>,
    /// Ceiling on the analysis artifact's heap footprint, bytes.
    pub memory_bytes: Option<usize>,
}

/// The tier [`plan_tier`] decided to build, and whether that is a
/// degradation from what the caller asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierPlan {
    /// The tier that fits the budget.
    pub tier: AnalysisTier,
    /// `true` iff `tier` is below the requested tier.
    pub degraded: bool,
    /// Human-readable reason for the downgrade (empty when not degraded).
    pub reason: String,
}

/// Conservative build-rate assumption for the separation table, entries
/// per millisecond: used by [`plan_tier`] to translate a
/// remaining-deadline budget into a largest-affordable table. Calibrated
/// well below the measured flat-BFS engine rate so the planner errs
/// toward degrading early rather than blowing a deadline mid-build.
pub const SEPARATION_ENTRIES_PER_MS: u64 = 20_000;

/// Picks the most capable [`AnalysisTier`] at or below `requested` whose
/// estimated build cost fits `budget`: a `GateSep` request whose table
/// would not fit degrades to `Timing`, and so does one whose netlist is
/// too large for a table at `rho` ([`GateSeparationTable::check_capacity`];
/// the reason quotes its message).
///
/// The cost model is deliberately cheap — a sampled
/// [`GateSeparationTable::estimate`] probe (no table is built) whose
/// bytes meet the memory ceiling and whose entry count, at the fixed
/// [`SEPARATION_ENTRIES_PER_MS`] rate, meets the deadline — because this
/// runs on the admission path of every `stats` request the server plans.
/// `Timing` always fits: its analyses are linear passes the request
/// would not be admitted without.
#[must_use]
pub fn plan_tier(
    netlist: &Netlist,
    rho: u32,
    requested: AnalysisTier,
    budget: &TierBudget,
) -> TierPlan {
    let granted = TierPlan {
        tier: requested,
        degraded: false,
        reason: String::new(),
    };
    if requested == AnalysisTier::Timing {
        return granted;
    }
    let degrade = |reason: String| TierPlan {
        tier: AnalysisTier::Timing,
        degraded: true,
        reason,
    };
    if let Err(e) = GateSeparationTable::check_capacity(netlist.node_count(), rho) {
        return degrade(format!("{} tier cannot be built: {e}", requested.as_str()));
    }
    let est = GateSeparationTable::estimate(netlist, rho);
    let over_memory = budget.memory_bytes.is_some_and(|cap| est.bytes > cap);
    let over_deadline = budget
        .remaining_ms
        .is_some_and(|ms| (est.entries as u64).div_ceil(SEPARATION_ENTRIES_PER_MS) > ms);
    if !over_memory && !over_deadline {
        return granted;
    }
    degrade(format!(
        "{} tier needs ~{} bytes{}",
        requested.as_str(),
        est.bytes,
        if over_memory {
            " (over memory ceiling)"
        } else {
            " (over deadline budget)"
        }
    ))
}

/// Precomputed, partition-independent analysis of one `(netlist, library,
/// config)` triple.
///
/// Everything the cost estimators need repeatedly — transition-time sets
/// (§3.1), the separation analyses (§3.3), nominal critical-path timing
/// (§3.2) and flattened cell tables — is computed once here; evaluating or
/// mutating a partition then never touches the netlist text again.
///
/// The separation table is tiered (see the [module docs](self)):
/// [`EvalContext::separation`] panics when the context was built at
/// `Timing`, with [`EvalContext::try_separation`] as the non-panicking
/// form.
///
/// # Example
///
/// ```rust
/// use iddq_celllib::Library;
/// use iddq_core::{config::PartitionConfig, EvalContext};
/// use iddq_netlist::data;
///
/// let c17 = data::c17();
/// let lib = Library::generic_1um();
/// let ctx = EvalContext::new(&c17, &lib, PartitionConfig::paper_default());
/// assert!(ctx.nominal_delay_ps > 0.0);
/// assert_eq!(ctx.gates.len(), 6);
/// ```
#[derive(Debug)]
pub struct EvalContext<'a> {
    /// The circuit under test.
    pub netlist: &'a Netlist,
    /// The cell library (kept for structure-patching consumers that must
    /// re-derive per-gate rows when a gate's kind or arity changes).
    pub library: &'a Library,
    /// Configuration (weights, constraints, sizing).
    pub config: PartitionConfig,
    /// The cost objective of `config`'s weights and penalty.
    objective: Objective,
    /// Technology snapshot from the library.
    pub technology: Technology,
    /// Flattened per-node electrical tables.
    pub tables: NodeTables,
    /// §3.1 transition-time sets per node, on the technology grid.
    pub times: Vec<TimeSet>,
    /// One past the largest transition time over all nodes (histogram
    /// length for the per-module activity analysis).
    pub horizon: usize,
    /// Topological order and flat fan-in lists of the arrival sweep that
    /// settles the degraded delay (`D_BIC`).
    pub cones: ConeIndex,
    /// Gate neighbours of every node in the undirected circuit graph
    /// (fan-in then fanout, DFF D edges included, primary inputs left
    /// out), as one flat CSR: `neighbor_pool[neighbor_offsets[i]..
    /// neighbor_offsets[i + 1]]`. The mutation candidates and targets of
    /// [`crate::Evaluated`] are read from it.
    neighbor_offsets: Vec<u32>,
    neighbor_pool: Vec<u32>,
    /// Nominal (sensor-free) critical path delay `D`, picoseconds.
    pub nominal_delay_ps: f64,
    /// All gate ids, in topological order.
    pub gates: Vec<iddq_netlist::NodeId>,
    /// Which tier was built.
    tier: AnalysisTier,
    /// Gate-only neighbour-weight table (§3.3): the per-move separation
    /// delta in [`crate::evaluator::Evaluated`] is one contiguous scan of
    /// this table against the dense assignment vector. `GateSep` tier.
    separation: Option<GateSeparationTable>,
}

/// Staged construction of an [`EvalContext`] — pick a tier and a thread
/// count, or hand over a built table.
///
/// # Example
///
/// ```rust
/// use iddq_celllib::Library;
/// use iddq_core::context::AnalysisTier;
/// use iddq_core::{config::PartitionConfig, EvalContext, ResynthEval};
/// use iddq_netlist::data;
///
/// let c17 = data::c17();
/// let lib = Library::generic_1um();
/// let ctx = EvalContext::builder(&c17, &lib, PartitionConfig::paper_default())
///     .tier(AnalysisTier::GateSep)
///     .threads(2)
///     .build();
/// assert_eq!(ctx.tier(), AnalysisTier::GateSep);
/// assert_eq!(ctx.separation().rho(), ctx.config.rho);
/// let mut eval = ResynthEval::new(&ctx);
/// assert!(eval.total_cost().is_finite());
/// ```
#[derive(Debug)]
pub struct EvalContextBuilder<'a> {
    netlist: &'a Netlist,
    library: &'a Library,
    config: PartitionConfig,
    tier: AnalysisTier,
    threads: usize,
    table: Option<GateSeparationTable>,
}

impl<'a> EvalContextBuilder<'a> {
    /// Starts a builder at the `GateSep` tier, serial build.
    #[must_use]
    pub fn new(netlist: &'a Netlist, library: &'a Library, config: PartitionConfig) -> Self {
        EvalContextBuilder {
            netlist,
            library,
            config,
            tier: AnalysisTier::GateSep,
            threads: 1,
            table: None,
        }
    }

    /// Selects how much analysis to build (default:
    /// [`AnalysisTier::GateSep`]).
    #[must_use]
    pub fn tier(mut self, tier: AnalysisTier) -> Self {
        self.tier = tier;
        self
    }

    /// Shards the separation BFS across `threads` workers (`0` and `1`
    /// both mean serial). The result is bit-identical for every thread
    /// count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builds a [`AnalysisTier::GateSep`] context around `table` instead
    /// of building one: the table must be the netlist's at the
    /// configured ρ (as [`GateSeparationTable::direct`] would build it),
    /// e.g. the rows a per-gate resynthesis search ends with. Overrides
    /// [`EvalContextBuilder::tier`] and [`EvalContextBuilder::threads`].
    ///
    /// # Panics
    ///
    /// [`EvalContextBuilder::build`] panics if the table's ρ or node
    /// count differs from the configuration's and the netlist's.
    #[must_use]
    pub fn sep_table(mut self, table: GateSeparationTable) -> Self {
        self.table = Some(table);
        self
    }

    /// Runs the analyses of the selected tier.
    ///
    /// # Panics
    ///
    /// Panics if a cost weight or the violation penalty is negative or
    /// NaN ([`Objective::new`]), and, for a table handed over with
    /// [`EvalContextBuilder::sep_table`], if its ρ or node count differs
    /// from the configuration's and the netlist's.
    #[must_use]
    pub fn build(self) -> EvalContext<'a> {
        let EvalContextBuilder {
            netlist,
            library,
            config,
            mut tier,
            threads,
            table,
        } = self;
        let objective = Objective::new(&config);
        let tables = NodeTables::new(netlist, library);
        let times = levelize::transition_times(netlist, &tables.grid_delay);
        let horizon = times
            .iter()
            .filter_map(TimeSet::max)
            .max()
            .map(|t| t as usize + 1)
            .unwrap_or(1);
        let cones = ConeIndex::new(netlist);
        let mut neighbor_offsets = Vec::with_capacity(netlist.node_count() + 1);
        let mut neighbor_pool = Vec::new();
        neighbor_offsets.push(0);
        for id in netlist.node_ids() {
            neighbor_pool.extend(
                netlist
                    .undirected_neighbors(id)
                    .filter(|&n| netlist.is_gate(n))
                    .map(|n| n.0),
            );
            neighbor_offsets.push(neighbor_pool.len() as u32);
        }
        let nominal_delay_ps = levelize::critical_path_delay(netlist, &tables.delay_ps);
        let gates = netlist
            .topo_order()
            .iter()
            .copied()
            .filter(|&id| netlist.is_gate(id))
            .collect();
        if let Some(table) = &table {
            assert_eq!(
                table.rho(),
                config.rho,
                "handed-over table built at another ρ"
            );
            assert_eq!(
                table.node_count(),
                netlist.node_count(),
                "handed-over table of another netlist"
            );
            tier = AnalysisTier::GateSep;
        }
        let separation = match tier {
            AnalysisTier::Timing => None,
            AnalysisTier::GateSep => Some(
                table.unwrap_or_else(|| GateSeparationTable::direct(netlist, config.rho, threads)),
            ),
        };
        EvalContext {
            netlist,
            library,
            config,
            objective,
            technology: library.technology().clone(),
            tables,
            times,
            horizon,
            cones,
            neighbor_offsets,
            neighbor_pool,
            nominal_delay_ps,
            gates,
            tier,
            separation,
        }
    }
}

impl<'a> EvalContext<'a> {
    /// Runs the one-time analyses at the `GateSep` tier (serial build).
    /// Use [`EvalContext::builder`] for the `Timing` tier, a parallel
    /// build or a handed-over table.
    #[must_use]
    pub fn new(netlist: &'a Netlist, library: &'a Library, config: PartitionConfig) -> Self {
        EvalContextBuilder::new(netlist, library, config).build()
    }

    /// Starts an [`EvalContextBuilder`].
    #[must_use]
    pub fn builder(
        netlist: &'a Netlist,
        library: &'a Library,
        config: PartitionConfig,
    ) -> EvalContextBuilder<'a> {
        EvalContextBuilder::new(netlist, library, config)
    }

    /// The cost objective: the one owner of the total and its floor.
    #[must_use]
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The tier this context was built at.
    #[must_use]
    pub fn tier(&self) -> AnalysisTier {
        self.tier
    }

    /// The §3.3 gate-only `ρ − d` neighbour-weight table.
    ///
    /// # Panics
    ///
    /// Panics if the context was built at [`AnalysisTier::Timing`].
    #[must_use]
    pub fn separation(&self) -> &GateSeparationTable {
        self.separation.as_ref().unwrap_or_else(|| {
            panic!(
                "EvalContext tier {:?} carries no separation table — build \
                 with AnalysisTier::GateSep",
                self.tier
            )
        })
    }

    /// The separation table, if this tier carries one.
    #[must_use]
    pub fn try_separation(&self) -> Option<&GateSeparationTable> {
        self.separation.as_ref()
    }

    /// The gates among `id`'s undirected neighbours (fan-in, then
    /// fanout), as raw node indices: [`Netlist::undirected_neighbors`]
    /// without the primary inputs, read from one flat array.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn gate_neighbors(&self, id: iddq_netlist::NodeId) -> &[u32] {
        let i = id.index();
        &self.neighbor_pool
            [self.neighbor_offsets[i] as usize..self.neighbor_offsets[i + 1] as usize]
    }

    /// Average per-gate leakage in nanoamps — used by the §4.2 module-size
    /// estimate.
    #[must_use]
    pub fn mean_gate_leakage_na(&self) -> f64 {
        if self.gates.is_empty() {
            return 0.0;
        }
        self.gates
            .iter()
            .map(|g| self.tables.leakage_na[g.index()])
            .sum::<f64>()
            / self.gates.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_netlist::data;

    fn test_library() -> &'static Library {
        static LIB: std::sync::OnceLock<Library> = std::sync::OnceLock::new();
        LIB.get_or_init(Library::generic_1um)
    }

    fn ctx_for(netlist: &Netlist) -> EvalContext<'_> {
        EvalContext::new(netlist, test_library(), PartitionConfig::paper_default())
    }

    #[test]
    fn build_refuses_negative_or_nan_weights() {
        let edits: [fn(&mut PartitionConfig); 3] = [
            |c| c.weights.delay = -1.0,
            |c| c.violation_penalty = -1.0,
            |c| c.weights.interconnect = f64::NAN,
        ];
        for edit in edits {
            let mut config = PartitionConfig::paper_default();
            edit(&mut config);
            let nl = data::c17();
            let panic = std::panic::catch_unwind(|| EvalContext::new(&nl, test_library(), config))
                .expect_err("a negative or NaN weight must not build");
            let message = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains("must be non-negative"), "{message}");
        }
    }

    #[test]
    fn horizon_covers_all_transition_times() {
        let nl = data::c17();
        let ctx = ctx_for(&nl);
        for id in nl.node_ids() {
            if let Some(t) = ctx.times[id.index()].max() {
                assert!((t as usize) < ctx.horizon);
            }
        }
    }

    #[test]
    fn nominal_delay_is_three_nand_levels() {
        let nl = data::c17();
        let ctx = ctx_for(&nl);
        let nand_delay = ctx.tables.delay_ps[nl.find("10").unwrap().index()];
        assert!((ctx.nominal_delay_ps - 3.0 * nand_delay).abs() < 1e-9);
    }

    #[test]
    fn gates_in_topological_order() {
        let nl = data::ripple_adder(4);
        let ctx = ctx_for(&nl);
        let mut pos = vec![0usize; nl.node_count()];
        for (i, id) in nl.topo_order().iter().enumerate() {
            pos[id.index()] = i;
        }
        for w in ctx.gates.windows(2) {
            assert!(pos[w[0].index()] < pos[w[1].index()]);
        }
    }

    #[test]
    fn mean_leakage_positive() {
        let nl = data::c17();
        assert!(ctx_for(&nl).mean_gate_leakage_na() > 0.0);
    }

    #[test]
    fn default_build_is_gatesep_tier() {
        let nl = data::c17();
        let ctx = ctx_for(&nl);
        assert_eq!(ctx.tier(), AnalysisTier::GateSep);
        assert!(ctx.try_separation().is_some());
        assert_eq!(ctx.separation().rho(), ctx.config.rho);
    }

    #[test]
    fn gatesep_tier_table_equals_the_reference_table() {
        let nl = data::ripple_adder(8);
        let config = PartitionConfig::paper_default();
        let reference = GateSeparationTable::reference(&nl, config.rho);
        let light = EvalContext::builder(&nl, test_library(), config.clone())
            .tier(AnalysisTier::GateSep)
            .build();
        assert_eq!(light.tier(), AnalysisTier::GateSep);
        assert_eq!(light.separation(), &reference);
        let handed = EvalContext::builder(&nl, test_library(), config)
            .tier(AnalysisTier::Timing)
            .sep_table(reference.clone())
            .build();
        assert_eq!(handed.tier(), AnalysisTier::GateSep);
        assert_eq!(handed.separation(), &reference);
    }

    #[test]
    fn timing_tier_has_timing_analyses_only() {
        let nl = data::c17();
        let ctx = EvalContext::builder(&nl, test_library(), PartitionConfig::paper_default())
            .tier(AnalysisTier::Timing)
            .build();
        assert!(ctx.try_separation().is_none());
        assert!(ctx.nominal_delay_ps > 0.0);
        assert_eq!(ctx.gates.len(), 6);
    }

    #[test]
    #[should_panic(expected = "no separation table")]
    fn separation_accessor_panics_below_tier() {
        let nl = data::c17();
        let ctx = EvalContext::builder(&nl, test_library(), PartitionConfig::paper_default())
            .tier(AnalysisTier::Timing)
            .build();
        let _ = ctx.separation();
    }

    #[test]
    fn parallel_build_matches_serial() {
        let nl = data::ripple_adder(10);
        let serial = ctx_for(&nl);
        let ctx = EvalContext::builder(&nl, test_library(), PartitionConfig::paper_default())
            .threads(4)
            .build();
        assert_eq!(ctx.separation(), serial.separation());
    }

    #[test]
    fn tier_ordering_and_names() {
        assert!(AnalysisTier::Timing < AnalysisTier::GateSep);
        assert_eq!(AnalysisTier::Separation, AnalysisTier::GateSep);
        for tier in [AnalysisTier::Timing, AnalysisTier::GateSep] {
            assert_eq!(tier.as_str().parse::<AnalysisTier>().unwrap(), tier);
        }
        for alias in ["separation", "SEPARATION", "GateSep"] {
            assert_eq!(
                alias.parse::<AnalysisTier>().unwrap(),
                AnalysisTier::GateSep
            );
        }
        assert!("turbo".parse::<AnalysisTier>().is_err());
    }

    #[test]
    fn plan_tier_unconstrained_grants_request() {
        let nl = data::ripple_adder(16);
        let plan = plan_tier(&nl, 4, AnalysisTier::GateSep, &TierBudget::default());
        assert_eq!(plan.tier, AnalysisTier::GateSep);
        assert!(!plan.degraded);
        assert!(plan.reason.is_empty());
    }

    #[test]
    fn plan_tier_degrades_under_memory_pressure() {
        let nl = data::ripple_adder(64);
        // A ceiling below the table forces the floor.
        let starved = plan_tier(
            &nl,
            4,
            AnalysisTier::GateSep,
            &TierBudget {
                remaining_ms: None,
                memory_bytes: Some(16),
            },
        );
        assert_eq!(starved.tier, AnalysisTier::Timing);
        assert!(starved.degraded);
        assert!(starved.reason.contains("memory"));
        // A ceiling just above the estimate keeps the table.
        let roomy = plan_tier(
            &nl,
            4,
            AnalysisTier::GateSep,
            &TierBudget {
                remaining_ms: None,
                memory_bytes: Some(GateSeparationTable::estimate(&nl, 4).bytes),
            },
        );
        assert_eq!(roomy.tier, AnalysisTier::GateSep);
        assert!(!roomy.degraded);
    }

    #[test]
    fn plan_tier_degrades_under_deadline_pressure() {
        let nl = data::ripple_adder(64);
        let rushed = plan_tier(
            &nl,
            4,
            AnalysisTier::GateSep,
            &TierBudget {
                remaining_ms: Some(0),
                memory_bytes: None,
            },
        );
        assert_eq!(rushed.tier, AnalysisTier::Timing);
        assert!(rushed.degraded);
        assert!(rushed.reason.contains("deadline"));
    }

    #[test]
    fn plan_tier_degrades_an_unpackable_bound() {
        // At ρ = u32::MAX the weight takes every bit of an entry.
        let nl = data::ripple_adder(4);
        let plan = plan_tier(&nl, u32::MAX, AnalysisTier::GateSep, &TierBudget::default());
        assert_eq!(plan.tier, AnalysisTier::Timing);
        assert!(plan.degraded);
        assert!(
            plan.reason.contains("holds at most 1 nodes"),
            "{}",
            plan.reason
        );
    }

    #[test]
    fn plan_tier_never_upgrades_a_timing_request() {
        let nl = data::c17();
        let plan = plan_tier(&nl, 4, AnalysisTier::Timing, &TierBudget::default());
        assert_eq!(plan.tier, AnalysisTier::Timing);
        assert!(!plan.degraded);
    }
}
