//! Regenerates the paper's **§4.3 / Figures 3–5**: the evolution steps on
//! ISCAS-85 C17.
//!
//! The paper's worked example (gate labels g1..g6 = benchmark gates
//! 10, 11, 16, 19, 22, 23):
//!
//! ```text
//! Π¹ = {(1,5), (2,3), (4,6)}          (figure 4, start partition)
//! mutation: M_start = (4,6), move g4 → (2,3)
//! Π² = {(1,5), (2,3,4), (6)}
//! mutation: M_start = (2,3,4), move g3 → (6)
//! Π³ = {(1,5), (2,4), (3,6)}          (figure 5, left)
//! mutation: M_start = (3,6), g3 → (1,5), g6 → (2,4); (3,6) empties
//! Πf = {(1,3,5), (2,4,6)}             (figure 5, right — the optimum)
//! ```
//!
//! This binary replays the exact move sequence, prints the cost after
//! every step, exhaustively enumerates *all* 203 partitions of the six
//! gates to locate the true optimum under our cost model, and finally
//! checks that the free-running evolution strategy reaches it.
//!
//! Usage: `fig_c17_trace` (no arguments).

use iddq_bench::{experiment_config, experiment_library};
use iddq_control::RunControl;
use iddq_core::evolution::{self, EvolutionConfig};
use iddq_core::{EvalContext, Evaluated, Partition};
use iddq_netlist::{data, NodeId};

fn cost_of(ctx: &EvalContext<'_>, groups: Vec<Vec<NodeId>>) -> (f64, bool) {
    let nl = ctx.netlist;
    let p = Partition::from_groups(nl, groups).expect("valid groups");
    let e = Evaluated::new(ctx, p);
    let c = e.cost();
    (e.total_cost(), c.feasible())
}

/// Enumerates all set partitions of `items` (Bell number sized — fine for
/// the 6 gates of C17).
fn all_partitions(items: &[NodeId]) -> Vec<Vec<Vec<NodeId>>> {
    fn rec(rest: &[NodeId], acc: &mut Vec<Vec<NodeId>>, out: &mut Vec<Vec<Vec<NodeId>>>) {
        match rest.split_first() {
            None => out.push(acc.clone()),
            Some((&first, tail)) => {
                for i in 0..acc.len() {
                    acc[i].push(first);
                    rec(tail, acc, out);
                    acc[i].pop();
                }
                acc.push(vec![first]);
                rec(tail, acc, out);
                acc.pop();
            }
        }
    }
    let mut out = Vec::new();
    rec(items, &mut Vec::new(), &mut out);
    out
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument `{arg}`\nusage: fig_c17_trace");
        std::process::exit(2);
    }
    let nl = data::c17();
    let lib = experiment_library();
    let cfg = experiment_config();
    let ctx = EvalContext::new(&nl, &lib, cfg);
    let g = data::c17_paper_gates(&nl); // g[0] = paper's g1 = gate 10, …

    println!("== Figures 3-5: the paper's C17 mutation trace ==");
    let steps: Vec<(&str, Vec<Vec<NodeId>>)> = vec![
        (
            "P1 {(1,5)(2,3)(4,6)}",
            vec![vec![g[0], g[4]], vec![g[1], g[2]], vec![g[3], g[5]]],
        ),
        (
            "P2 {(1,5)(2,3,4)(6)}",
            vec![vec![g[0], g[4]], vec![g[1], g[2], g[3]], vec![g[5]]],
        ),
        (
            "P3 {(1,5)(2,4)(3,6)}",
            vec![vec![g[0], g[4]], vec![g[1], g[3]], vec![g[2], g[5]]],
        ),
        (
            "Pf {(1,3,5)(2,4,6)}",
            vec![vec![g[0], g[2], g[4]], vec![g[1], g[3], g[5]]],
        ),
    ];
    let mut costs = Vec::new();
    for (label, groups) in &steps {
        let (cost, feasible) = cost_of(&ctx, groups.clone());
        println!("{label:<24} cost = {cost:>10.1}   feasible = {feasible}");
        costs.push(cost);
    }
    assert!(
        costs.last().unwrap() < costs.first().unwrap(),
        "the trace must end cheaper than it started"
    );

    // Exhaustive optimum over all 203 set partitions of the six gates.
    let gates: Vec<NodeId> = g.to_vec();
    let mut best: Option<(f64, Vec<Vec<NodeId>>)> = None;
    let mut count = 0usize;
    for parts in all_partitions(&gates) {
        count += 1;
        let (cost, _) = cost_of(&ctx, parts.clone());
        if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
            best = Some((cost, parts));
        }
    }
    let (best_cost, best_parts) = best.expect("non-empty enumeration");
    let fmt = |p: &Vec<Vec<NodeId>>| {
        let mut names: Vec<String> = p
            .iter()
            .map(|m| {
                let mut ns: Vec<&str> = m.iter().map(|x| nl.node_name(*x)).collect();
                ns.sort();
                format!("({})", ns.join(","))
            })
            .collect();
        names.sort();
        names.join(" ")
    };
    println!("\nenumerated {count} partitions of C17");
    println!(
        "global optimum: {} at cost {best_cost:.1}",
        fmt(&best_parts)
    );
    println!(
        "paper's  Pf:    {} at cost {:.1}",
        fmt(&steps[3].1),
        costs[3]
    );

    // Free-running evolution must reach the enumerated optimum.
    let out = evolution::optimize(
        &ctx,
        &EvolutionConfig {
            generations: 200,
            stagnation: 80,
            ..Default::default()
        },
        7,
        &RunControl::unlimited(),
    )
    .into_value();
    println!(
        "\nevolution strategy reached cost {:.1} ({} evaluations)",
        out.best_cost, out.evaluations
    );
    assert!(
        out.best_cost <= best_cost + 1e-6,
        "ES must find the exhaustive optimum on C17"
    );
    println!("OK: evolution reaches the exhaustive optimum on C17");
}
