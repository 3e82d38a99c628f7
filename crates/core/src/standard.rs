//! The "standard partitioning" baseline of §5.
//!
//! "The process of standard partitioning starts with a gate as near to a
//! primary input as possible. New gates are added until a specified size
//! of the module is generated … The new gate added is that gate whose path
//! length to all the gates already clustered gives a minimum sum. If there
//! are multiple choices, a gate of this set is selected such that the path
//! lengths to all the gates not yet clustered give a maximum sum. A
//! partition generated this way contains modules such that their gates are
//! connected most closely."
//!
//! Module sizes are supplied by the caller; the paper "takes the numbers
//! obtained by the evolution based algorithm" so that both methods produce
//! the same number of modules and the comparison isolates module *shape*.

use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::{levelize, NodeId};

use crate::context::EvalContext;
use crate::partition::Partition;

/// Builds the standard partition with the given module sizes.
///
/// Path lengths are the ρ-saturated separation distances of §3.3 (the
/// same metric the cost function uses), read from the context's gate
/// table, so a [`GateSep`](crate::AnalysisTier::GateSep) context
/// suffices.
///
/// # Panics
///
/// Panics if `module_sizes` is empty, contains a zero, or does not sum to
/// the gate count.
#[must_use]
// `module_sizes` sums to the gate count (the caller derives it from
// `estimate_module_count`), so a free gate exists whenever a cluster
// still needs members, and the resulting groups form an exact cover.
#[allow(clippy::expect_used)]
pub fn standard_partition(ctx: &EvalContext<'_>, module_sizes: &[usize]) -> Partition {
    let netlist = ctx.netlist;
    let n_gates = netlist.gate_count();
    assert!(!module_sizes.is_empty(), "need at least one module");
    assert!(
        module_sizes.iter().all(|&s| s > 0),
        "module sizes must be positive"
    );
    assert_eq!(
        module_sizes.iter().sum::<usize>(),
        n_gates,
        "module sizes must cover the gates exactly"
    );

    let levels = levelize::levels(netlist);
    let sep = ctx.separation();
    let rho = u64::from(sep.rho());

    // Sum of saturated distances from each gate to *all* gates: most pairs
    // saturate at ρ, so start from ρ·(n−1) and subtract the row's
    // `ρ − d` weights, whose sum the table stores.
    let gates: Vec<NodeId> = netlist.gate_ids().collect();
    let mut total_sum: Vec<u64> = vec![0; netlist.node_count()];
    for &g in &gates {
        total_sum[g.index()] = rho * (n_gates as u64 - 1) - sep.near_weight(g);
    }

    let mut free: Vec<bool> = netlist.node_ids().map(|id| netlist.is_gate(id)).collect();
    // Running sum of distances from each free gate to the current cluster.
    let mut sum_clustered: Vec<u64> = vec![0; netlist.node_count()];
    let mut groups: Vec<Vec<NodeId>> = Vec::with_capacity(module_sizes.len());

    for &size in module_sizes {
        for s in sum_clustered.iter_mut() {
            *s = 0;
        }
        // Seed: free gate nearest a primary input (lowest level; stable
        // tie-break by id for determinism).
        let seed = gates
            .iter()
            .copied()
            .filter(|g| free[g.index()])
            .min_by_key(|g| (levels[g.index()], g.index()))
            .expect("sizes sum to the number of free gates");
        let mut cluster = vec![seed];
        free[seed.index()] = false;
        update_sums(&gates, &free, &mut sum_clustered, sep, seed);

        while cluster.len() < size {
            // Minimum summed distance to the cluster; ties: maximum summed
            // distance to everything else (≈ unclustered gates).
            let next = gates
                .iter()
                .copied()
                .filter(|g| free[g.index()])
                .min_by(|&a, &b| {
                    let ka = sum_clustered[a.index()];
                    let kb = sum_clustered[b.index()];
                    ka.cmp(&kb)
                        .then_with(|| {
                            let ua = total_sum[a.index()] - sum_clustered[a.index()];
                            let ub = total_sum[b.index()] - sum_clustered[b.index()];
                            ub.cmp(&ua) // max unclustered sum first
                        })
                        .then_with(|| a.index().cmp(&b.index()))
                })
                .expect("sizes sum to the number of free gates");
            cluster.push(next);
            free[next.index()] = false;
            update_sums(&gates, &free, &mut sum_clustered, sep, next);
        }
        groups.push(cluster);
    }
    Partition::from_groups(netlist, groups).expect("greedy clustering covers all gates once")
}

/// Adds each free gate's distance to `joined`: `ρ`, less the `ρ − d`
/// weight of the free gates in `joined`'s row (distances are symmetric).
fn update_sums(
    gates: &[NodeId],
    free: &[bool],
    sum_clustered: &mut [u64],
    sep: &GateSeparationTable,
    joined: NodeId,
) {
    let rho = u64::from(sep.rho());
    for &g in gates {
        if free[g.index()] {
            sum_clustered[g.index()] += rho;
        }
    }
    for (h, w) in sep.row(joined) {
        if free[h as usize] {
            sum_clustered[h as usize] -= u64::from(w);
        }
    }
}

/// Convenience: equal-size split (remainder spread over the first
/// modules), matching a target module count.
///
/// # Panics
///
/// Panics if `k == 0` or `k > gate count`.
#[must_use]
pub fn equal_sizes(n_gates: usize, k: usize) -> Vec<usize> {
    assert!(k > 0 && k <= n_gates, "need 1 ≤ k ≤ gates");
    let base = n_gates / k;
    let rem = n_gates % k;
    (0..k).map(|i| base + usize::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::evaluator::Evaluated;
    use iddq_celllib::Library;
    use iddq_netlist::data;

    fn test_library() -> &'static Library {
        static LIB: std::sync::OnceLock<Library> = std::sync::OnceLock::new();
        LIB.get_or_init(Library::generic_1um)
    }

    fn ctx_of(nl: &iddq_netlist::Netlist) -> EvalContext<'_> {
        EvalContext::new(nl, test_library(), PartitionConfig::paper_default())
    }

    #[test]
    fn covers_gates_with_exact_sizes() {
        let nl = data::ripple_adder(10);
        let ctx = ctx_of(&nl);
        let sizes = equal_sizes(nl.gate_count(), 5);
        let p = standard_partition(&ctx, &sizes);
        p.validate(&nl).unwrap();
        let mut got = p.module_sizes();
        got.sort_unstable();
        let mut want = sizes;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn equal_sizes_sums() {
        assert_eq!(equal_sizes(10, 3), vec![4, 3, 3]);
        assert_eq!(equal_sizes(9, 3), vec![3, 3, 3]);
        assert_eq!(equal_sizes(1, 1), vec![1]);
    }

    #[test]
    fn clusters_are_locally_tight() {
        // Standard clustering groups closely connected gates: its mean
        // intra-module separation must beat a deliberately interleaved
        // partition of the same sizes.
        let nl = data::ripple_adder(12);
        let ctx = ctx_of(&nl);
        let k = 4;
        let sizes = equal_sizes(nl.gate_count(), k);
        let std_p = standard_partition(&ctx, &sizes);
        let gates: Vec<_> = nl.gate_ids().collect();
        let striped: Vec<Vec<_>> = (0..k)
            .map(|m| {
                gates
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % k == m)
                    .map(|(_, g)| g)
                    .collect()
            })
            .collect();
        let striped_p = Partition::from_groups(&nl, striped).unwrap();
        let sep_std: u64 = Evaluated::new(&ctx, std_p)
            .stats()
            .iter()
            .map(|s| s.separation)
            .sum();
        let sep_striped: u64 = Evaluated::new(&ctx, striped_p)
            .stats()
            .iter()
            .map(|s| s.separation)
            .sum();
        assert!(sep_std < sep_striped, "{sep_std} vs {sep_striped}");
    }

    #[test]
    fn deterministic() {
        let nl = data::ripple_adder(8);
        let ctx = ctx_of(&nl);
        let sizes = equal_sizes(nl.gate_count(), 3);
        assert_eq!(
            standard_partition(&ctx, &sizes),
            standard_partition(&ctx, &sizes)
        );
    }

    #[test]
    #[should_panic(expected = "cover the gates exactly")]
    fn wrong_total_panics() {
        let nl = data::c17();
        let ctx = ctx_of(&nl);
        let _ = standard_partition(&ctx, &[2, 2]);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::config::PartitionConfig;
    use iddq_celllib::Library;
    use iddq_netlist::data;

    #[test]
    fn all_singleton_modules() {
        let nl = data::c17();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let sizes = vec![1usize; nl.gate_count()];
        let p = standard_partition(&ctx, &sizes);
        p.validate(&nl).unwrap();
        assert_eq!(p.module_count(), nl.gate_count());
        assert!(p.module_sizes().iter().all(|&s| s == 1));
    }

    #[test]
    fn single_covering_module() {
        let nl = data::c17();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let p = standard_partition(&ctx, &[nl.gate_count()]);
        assert_eq!(p.module_count(), 1);
        p.validate(&nl).unwrap();
    }

    #[test]
    fn seeds_start_near_primary_inputs() {
        // The first module's seed is the free gate closest to a PI: for
        // c17 that is a level-1 gate (10 or 11).
        let nl = data::c17();
        let lib = Library::generic_1um();
        let ctx = EvalContext::new(&nl, &lib, PartitionConfig::paper_default());
        let p = standard_partition(&ctx, &[3, 3]);
        let lv = iddq_netlist::levelize::levels(&nl);
        let min_level_in_first = p.module(0).iter().map(|g| lv[g.index()]).min().unwrap();
        assert_eq!(min_level_in_first, 1);
    }
}
