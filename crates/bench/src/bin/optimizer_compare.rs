//! Head-to-head of the §4 evolution strategy against the alternative
//! optimizers the paper lists ("force-driven, simulated annealing, Monte
//! Carlo, genetic, e.g."): simulated annealing and greedy local search,
//! all over the same incremental evaluator, neighbourhood and start
//! partitions.
//!
//! Usage: `optimizer_compare [--quick] [--seed N]`

use iddq_bench::{circuit_seed, experiment_config, experiment_library, table1_circuit};
use iddq_control::RunControl;
use iddq_core::evolution::{self, EvolutionConfig};
use iddq_core::optimizers::{greedy_local_search, simulated_annealing, AnnealingConfig};
use iddq_core::{EvalContext, Evaluated};
use iddq_gen::iscas::IscasProfile;

fn main() {
    let mut quick = false;
    let mut seed = 42u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let lib = experiment_library();
    let cfg = experiment_config();
    let circuits = if quick {
        vec!["c432"]
    } else {
        vec!["c432", "c880", "c1908"]
    };
    let evo = EvolutionConfig {
        generations: if quick { 40 } else { 150 },
        stagnation: if quick { 20 } else { 50 },
        ..Default::default()
    };
    let sa = AnnealingConfig {
        moves_per_temperature: if quick { 30 } else { 120 },
        ..Default::default()
    };
    let greedy_restarts = if quick { 3 } else { 8 };

    println!(
        "{:<8} {:<22} {:>12} {:>10} {:>8} {:>10} {:>9}",
        "circuit", "optimizer", "cost", "evals", "K", "area", "time"
    );
    for name in circuits {
        let profile = IscasProfile::by_name(name).expect("known circuit");
        let nl = table1_circuit(profile);
        let ctx = EvalContext::new(&nl, &lib, cfg.clone());
        let s = seed ^ circuit_seed(name);

        let mut results: Vec<(
            String,
            f64,
            usize,
            iddq_core::Partition,
            std::time::Duration,
        )> = Vec::new();
        let t0 = std::time::Instant::now();
        let es = evolution::optimize(&ctx, &evo, s, &RunControl::unlimited()).into_value();
        results.push((
            "evolution strategy".into(),
            es.best_cost,
            es.evaluations,
            es.best,
            t0.elapsed(),
        ));

        let t0 = std::time::Instant::now();
        let an = simulated_annealing(&ctx, &sa, s);
        results.push((
            "simulated annealing".into(),
            an.best_cost,
            an.evaluations,
            an.best,
            t0.elapsed(),
        ));

        let t0 = std::time::Instant::now();
        let gr = greedy_local_search(&ctx, greedy_restarts, 200, s);
        results.push((
            "greedy local search".into(),
            gr.best_cost,
            gr.evaluations,
            gr.best,
            t0.elapsed(),
        ));

        for (label, cost, evals, part, time) in &results {
            let eval = Evaluated::new(&ctx, part.clone());
            let breakdown = eval.cost();
            println!(
                "{:<8} {:<22} {:>12.1} {:>10} {:>8} {:>10.3e} {:>8.2?}",
                name,
                label,
                cost,
                evals,
                part.module_count(),
                breakdown.sensor_area,
                time
            );
        }
        let best = results
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        println!("{:<8} -> best: {}\n", name, best.0);
    }
}
