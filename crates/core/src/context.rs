//! Tiered, parallel construction of the one-time analysis context shared
//! by every partition evaluation.
//!
//! # The tier lattice
//!
//! Not every consumer needs every analysis, and the analyses have very
//! different costs — on large circuits the §3.3 separation oracle
//! dominates the build. [`EvalContextBuilder`] therefore constructs an
//! [`EvalContext`] at one of three tiers:
//!
//! | tier ([`AnalysisTier`]) | contains | needed by |
//! |---|---|---|
//! | `Timing` | cell tables, §3.1 transition-time sets, fanout-cone index, nominal critical path, topo gate list | everything below builds on it |
//! | `GateSep` | `Timing` + the gate-only `ρ − d` neighbour-weight table ([`GateSeparationTable`]), built *directly* from the netlist or handed over ([`EvalContextBuilder::sep_table`]) | [`crate::Evaluated`], [`crate::standard`], [`crate::evolution`], [`crate::flow`], [`crate::resynth::ResynthEval`] and the patch-scored resynthesis searches (`iddq-synth::cost_aware[_per_gate]`) — every flow, since §3.3 only needs gate-to-gate distances |
//! | `Separation` | `Timing` + the full ρ-bounded [`SeparationOracle`] (+ the table distilled from it) | node-to-node distances that involve primary inputs: the serve `stats` artifacts, the bridge sampler's oracle path (`iddq-logicsim::faults::enumerate_with`) and the `context_build` benchmark section |
//!
//! `Timing ⊂ GateSep ⊂ Separation`: each tier strictly extends the one
//! below. The CLI flows (`iddq test`, `iddq synth`) stop at `GateSep` —
//! the full oracle also carries every primary-input row they never read,
//! and skipping it removes most of the construction cost and a third of
//! the peak memory of `iddq test` on c7552. `iddq synth --resynth
//! --per-gate` builds one table per run: the search ends holding the
//! rows of the netlist it returns, and the evolution's context is built
//! around them.
//!
//! # Parallelism
//!
//! The separation build is one independent bounded BFS per node;
//! [`EvalContextBuilder::threads`] shards it across workers (the stitched
//! result is bit-identical to the serial build, so a parallel context is
//! interchangeable with a serial one everywhere).
//!
//! [`EvalContextBuilder::reference_oracle`] pins the build to the
//! historical hash-map constructor
//! ([`SeparationOracle::new_reference`]) — the differential baseline the
//! `context_build` benchmark section gates the flat engine against.

use iddq_celllib::{Library, NodeTables, Technology};
use iddq_netlist::cone::ConeIndex;
use iddq_netlist::separation::{GateSeparationTable, SeparationOracle};
use iddq_netlist::{levelize, Netlist, TimeSet};

use crate::config::PartitionConfig;

/// How much analysis an [`EvalContext`] carries (see the
/// [module docs](self) for the lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnalysisTier {
    /// Tables, transition times, cones and nominal delay only.
    Timing,
    /// `Timing` plus the gate-only separation table (no full oracle).
    GateSep,
    /// `Timing` plus the full separation oracle (and its gate table) —
    /// what [`EvalContext::new`] builds.
    Separation,
}

impl AnalysisTier {
    /// The next cheaper tier in the lattice, or `None` at the floor:
    /// `Separation → GateSep → Timing → ∅`. Degradation logic walks this
    /// chain until the candidate tier fits its budget.
    #[must_use]
    pub fn downgrade(self) -> Option<AnalysisTier> {
        match self {
            AnalysisTier::Separation => Some(AnalysisTier::GateSep),
            AnalysisTier::GateSep => Some(AnalysisTier::Timing),
            AnalysisTier::Timing => None,
        }
    }

    /// Canonical lower-case name, the wire form of the serving protocol.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AnalysisTier::Timing => "timing",
            AnalysisTier::GateSep => "gatesep",
            AnalysisTier::Separation => "separation",
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
            "gatesep" => Ok(AnalysisTier::GateSep),
            "separation" => Ok(AnalysisTier::Separation),
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

/// Conservative build-rate assumption for the separation analyses,
/// table entries per millisecond: used by [`plan_tier`] to translate a
/// remaining-deadline budget into a largest-affordable table. Calibrated
/// well below the measured flat-BFS engine rate so the planner errs
/// toward degrading early rather than blowing a deadline mid-build.
pub const SEPARATION_ENTRIES_PER_MS: u64 = 20_000;

/// Picks the most capable [`AnalysisTier`] at or below `requested` whose
/// estimated build cost fits `budget`, walking the
/// [`AnalysisTier::downgrade`] chain: `Separation → GateSep → Timing`.
///
/// The cost model is deliberately cheap — a sampled
/// [`SeparationOracle::estimate_bytes`] probe (no table is built) and the
/// fixed [`SEPARATION_ENTRIES_PER_MS`] rate — because this runs on the
/// admission path of every `stats` request the server plans. `Timing`
/// always fits: its analyses are linear passes the request would not be
/// admitted without.
#[must_use]
pub fn plan_tier(
    netlist: &Netlist,
    rho: u32,
    requested: AnalysisTier,
    budget: &TierBudget,
) -> TierPlan {
    let full_bytes = match requested {
        AnalysisTier::Timing => 0,
        _ => SeparationOracle::estimate_bytes(netlist, rho),
    };
    // The gate-only table skips every primary-input row and stores only
    // gate→gate pairs; scale the full-table estimate by the squared gate
    // fraction (both the row count and the per-row ball shrink).
    let gate_fraction = if netlist.node_count() == 0 {
        0.0
    } else {
        netlist.gate_count() as f64 / netlist.node_count() as f64
    };
    let mut tier = requested;
    let mut reason = String::new();
    loop {
        let est_bytes = match tier {
            AnalysisTier::Timing => break,
            AnalysisTier::GateSep => (full_bytes as f64 * gate_fraction * gate_fraction) as usize,
            AnalysisTier::Separation => full_bytes,
        };
        let over_memory = budget.memory_bytes.is_some_and(|cap| est_bytes > cap);
        let over_deadline = budget.remaining_ms.is_some_and(|ms| {
            let entries = est_bytes as u64 / 8;
            entries.div_ceil(SEPARATION_ENTRIES_PER_MS) > ms
        });
        if !over_memory && !over_deadline {
            break;
        }
        if reason.is_empty() {
            reason = format!(
                "{} tier needs ~{} bytes{}",
                tier.as_str(),
                est_bytes,
                if over_memory {
                    " (over memory ceiling)"
                } else {
                    " (over deadline budget)"
                }
            );
        }
        match tier.downgrade() {
            Some(lower) => tier = lower,
            None => break,
        }
    }
    TierPlan {
        degraded: tier < requested,
        tier,
        reason: if tier < requested {
            reason
        } else {
            String::new()
        },
    }
}

/// Precomputed, partition-independent analysis of one `(netlist, library,
/// config)` triple.
///
/// Everything the cost estimators need repeatedly — transition-time sets
/// (§3.1), the separation analyses (§3.3), nominal critical-path timing
/// (§3.2) and flattened cell tables — is computed once here; evaluating or
/// mutating a partition then never touches the netlist text again.
///
/// The separation analyses are tiered (see the [module docs](self)):
/// [`EvalContext::separation`] and [`EvalContext::sep_table`] panic when
/// the context was built below the tier that provides them, with
/// [`EvalContext::try_separation`] / [`EvalContext::try_sep_table`] as the
/// non-panicking forms.
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
    /// Technology snapshot from the library.
    pub technology: Technology,
    /// Flattened per-node electrical tables.
    pub tables: NodeTables,
    /// §3.1 transition-time sets per node, on the technology grid.
    pub times: Vec<TimeSet>,
    /// One past the largest transition time over all nodes (histogram
    /// length for the per-module activity analysis).
    pub horizon: usize,
    /// Fanout-cone index driving the incremental delay re-simulation.
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
    /// Bounded-BFS separation oracle (§3.3); `Separation` tier only.
    separation: Option<SeparationOracle>,
    /// Gate-only neighbour-weight table: the per-move separation delta in
    /// [`crate::evaluator::Evaluated`] is one contiguous scan of this
    /// table against the dense assignment vector. `GateSep` tier and up.
    sep_table: Option<GateSeparationTable>,
}

/// Staged construction of an [`EvalContext`] — pick a tier, a thread
/// count, and (for benchmarking) the reference oracle constructor.
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
/// // A lightweight context for patch-scored resynthesis: no full oracle.
/// let ctx = EvalContext::builder(&c17, &lib, PartitionConfig::paper_default())
///     .tier(AnalysisTier::GateSep)
///     .build();
/// assert_eq!(ctx.tier(), AnalysisTier::GateSep);
/// assert!(ctx.try_separation().is_none());
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
    reference_oracle: bool,
    table: Option<GateSeparationTable>,
}

impl<'a> EvalContextBuilder<'a> {
    /// Starts a builder at the full `Separation` tier, serial build.
    #[must_use]
    pub fn new(netlist: &'a Netlist, library: &'a Library, config: PartitionConfig) -> Self {
        EvalContextBuilder {
            netlist,
            library,
            config,
            tier: AnalysisTier::Separation,
            threads: 1,
            reference_oracle: false,
            table: None,
        }
    }

    /// Selects how much analysis to build (default:
    /// [`AnalysisTier::Separation`]).
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

    /// Builds the separation oracle with the historical hash-map
    /// constructor ([`SeparationOracle::new_reference`]) instead of the
    /// flat engine — the differential/benchmark baseline. Only meaningful
    /// at the `Separation` tier.
    #[must_use]
    pub fn reference_oracle(mut self) -> Self {
        self.reference_oracle = true;
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

    /// `V·ρ` threshold above which the `Separation` tier switches from
    /// the sharded parallel oracle build to the memory-lean streamed
    /// build ([`SeparationOracle::new_streamed_with_control`]): beyond
    /// ~400k nodes at ρ = 5 the oracle table dominates RAM and the
    /// streamed build's single-copy peak wins over sharded build speed.
    /// Both builds produce bit-identical oracles.
    pub const STREAMED_ORACLE_MIN_WORK: usize = 2_000_000;

    /// Runs the analyses of the selected tier.
    #[must_use]
    pub fn build(self) -> EvalContext<'a> {
        let EvalContextBuilder {
            netlist,
            library,
            config,
            mut tier,
            threads,
            reference_oracle,
            table,
        } = self;
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
        let (separation, sep_table) =
            match tier {
                AnalysisTier::Timing => (None, None),
                AnalysisTier::GateSep => (
                    None,
                    Some(table.unwrap_or_else(|| {
                        GateSeparationTable::direct(netlist, config.rho, threads)
                    })),
                ),
                AnalysisTier::Separation => {
                    let oracle = if reference_oracle {
                        SeparationOracle::new_reference(netlist, config.rho)
                    } else if netlist.node_count() * config.rho as usize
                        >= EvalContextBuilder::STREAMED_ORACLE_MIN_WORK
                    {
                        // Large V·ρ: the memory-lean streamed build keeps the
                        // peak at one table + one scratch instead of the
                        // sharded build's stitched-copy peak (bit-identical
                        // result either way).
                        SeparationOracle::new_streamed_with_control(
                            netlist,
                            config.rho,
                            &iddq_control::RunControl::unlimited(),
                        )
                        .into_value()
                    } else {
                        SeparationOracle::new_parallel(netlist, config.rho, threads)
                    };
                    let table = oracle.gate_table(netlist);
                    (Some(oracle), Some(table))
                }
            };
        EvalContext {
            netlist,
            library,
            config,
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
            sep_table,
        }
    }
}

impl<'a> EvalContext<'a> {
    /// Runs the one-time analyses at the full `Separation` tier (serial
    /// build). Use [`EvalContext::builder`] for lighter tiers or a
    /// parallel build.
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

    /// The tier this context was built at.
    #[must_use]
    pub fn tier(&self) -> AnalysisTier {
        self.tier
    }

    /// The §3.3 separation oracle.
    ///
    /// # Panics
    ///
    /// Panics if the context was built below [`AnalysisTier::Separation`].
    #[must_use]
    pub fn separation(&self) -> &SeparationOracle {
        self.separation.as_ref().unwrap_or_else(|| {
            panic!(
                "EvalContext tier {:?} carries no separation oracle — build \
                 with AnalysisTier::Separation",
                self.tier
            )
        })
    }

    /// The separation oracle, if this tier carries one.
    #[must_use]
    pub fn try_separation(&self) -> Option<&SeparationOracle> {
        self.separation.as_ref()
    }

    /// The gate-only `ρ − d` neighbour-weight table.
    ///
    /// # Panics
    ///
    /// Panics if the context was built below [`AnalysisTier::GateSep`].
    #[must_use]
    pub fn sep_table(&self) -> &GateSeparationTable {
        self.sep_table.as_ref().unwrap_or_else(|| {
            panic!(
                "EvalContext tier {:?} carries no gate separation table — \
                 build with AnalysisTier::GateSep or above",
                self.tier
            )
        })
    }

    /// The gate separation table, if this tier carries one.
    #[must_use]
    pub fn try_sep_table(&self) -> Option<&GateSeparationTable> {
        self.sep_table.as_ref()
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
    fn default_build_is_full_tier() {
        let nl = data::c17();
        let ctx = ctx_for(&nl);
        assert_eq!(ctx.tier(), AnalysisTier::Separation);
        assert!(ctx.try_separation().is_some());
        assert!(ctx.try_sep_table().is_some());
        assert_eq!(ctx.separation().rho(), ctx.config.rho);
    }

    #[test]
    fn gatesep_tier_table_equals_full_tier_table() {
        let nl = data::ripple_adder(8);
        let full = ctx_for(&nl);
        let light = EvalContext::builder(&nl, test_library(), PartitionConfig::paper_default())
            .tier(AnalysisTier::GateSep)
            .build();
        assert_eq!(light.tier(), AnalysisTier::GateSep);
        assert!(light.try_separation().is_none());
        assert_eq!(light.sep_table(), full.sep_table());
    }

    #[test]
    fn timing_tier_has_timing_analyses_only() {
        let nl = data::c17();
        let ctx = EvalContext::builder(&nl, test_library(), PartitionConfig::paper_default())
            .tier(AnalysisTier::Timing)
            .build();
        assert!(ctx.try_separation().is_none());
        assert!(ctx.try_sep_table().is_none());
        assert!(ctx.nominal_delay_ps > 0.0);
        assert_eq!(ctx.gates.len(), 6);
    }

    #[test]
    #[should_panic(expected = "no separation oracle")]
    fn separation_accessor_panics_below_tier() {
        let nl = data::c17();
        let ctx = EvalContext::builder(&nl, test_library(), PartitionConfig::paper_default())
            .tier(AnalysisTier::GateSep)
            .build();
        let _ = ctx.separation();
    }

    #[test]
    #[should_panic(expected = "no gate separation table")]
    fn sep_table_accessor_panics_below_tier() {
        let nl = data::c17();
        let ctx = EvalContext::builder(&nl, test_library(), PartitionConfig::paper_default())
            .tier(AnalysisTier::Timing)
            .build();
        let _ = ctx.sep_table();
    }

    #[test]
    fn parallel_and_reference_builds_match_serial() {
        let nl = data::ripple_adder(10);
        let serial = ctx_for(&nl);
        for build in [
            EvalContext::builder(&nl, test_library(), PartitionConfig::paper_default()).threads(4),
            EvalContext::builder(&nl, test_library(), PartitionConfig::paper_default())
                .reference_oracle(),
        ] {
            let ctx = build.build();
            assert_eq!(ctx.separation(), serial.separation());
            assert_eq!(ctx.sep_table(), serial.sep_table());
        }
    }

    #[test]
    fn tier_ordering_reflects_the_lattice() {
        assert!(AnalysisTier::Timing < AnalysisTier::GateSep);
        assert!(AnalysisTier::GateSep < AnalysisTier::Separation);
    }

    #[test]
    fn tier_downgrade_chain_and_names() {
        assert_eq!(
            AnalysisTier::Separation.downgrade(),
            Some(AnalysisTier::GateSep)
        );
        assert_eq!(
            AnalysisTier::GateSep.downgrade(),
            Some(AnalysisTier::Timing)
        );
        assert_eq!(AnalysisTier::Timing.downgrade(), None);
        for tier in [
            AnalysisTier::Timing,
            AnalysisTier::GateSep,
            AnalysisTier::Separation,
        ] {
            assert_eq!(tier.as_str().parse::<AnalysisTier>().unwrap(), tier);
        }
        assert_eq!(
            "SEPARATION".parse::<AnalysisTier>().unwrap(),
            AnalysisTier::Separation
        );
        assert!("turbo".parse::<AnalysisTier>().is_err());
    }

    #[test]
    fn plan_tier_unconstrained_grants_request() {
        let nl = data::ripple_adder(16);
        let plan = plan_tier(&nl, 4, AnalysisTier::Separation, &TierBudget::default());
        assert_eq!(plan.tier, AnalysisTier::Separation);
        assert!(!plan.degraded);
        assert!(plan.reason.is_empty());
    }

    #[test]
    fn plan_tier_degrades_under_memory_pressure() {
        let nl = data::ripple_adder(64);
        // A ceiling below even the gate-only table forces the floor.
        let starved = plan_tier(
            &nl,
            4,
            AnalysisTier::Separation,
            &TierBudget {
                remaining_ms: None,
                memory_bytes: Some(16),
            },
        );
        assert_eq!(starved.tier, AnalysisTier::Timing);
        assert!(starved.degraded);
        assert!(starved.reason.contains("memory"));
        // A generous ceiling keeps the full tier.
        let roomy = plan_tier(
            &nl,
            4,
            AnalysisTier::Separation,
            &TierBudget {
                remaining_ms: None,
                memory_bytes: Some(usize::MAX),
            },
        );
        assert_eq!(roomy.tier, AnalysisTier::Separation);
        assert!(!roomy.degraded);
    }

    #[test]
    fn plan_tier_degrades_under_deadline_pressure() {
        let nl = data::ripple_adder(64);
        let rushed = plan_tier(
            &nl,
            4,
            AnalysisTier::Separation,
            &TierBudget {
                remaining_ms: Some(0),
                memory_bytes: None,
            },
        );
        assert!(rushed.tier < AnalysisTier::Separation);
        assert!(rushed.degraded);
        assert!(rushed.reason.contains("deadline"));
    }

    #[test]
    fn plan_tier_never_upgrades_a_timing_request() {
        let nl = data::c17();
        let plan = plan_tier(&nl, 4, AnalysisTier::Timing, &TierBudget::default());
        assert_eq!(plan.tier, AnalysisTier::Timing);
        assert!(!plan.degraded);
    }
}
