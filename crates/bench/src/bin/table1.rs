//! Regenerates the paper's **Table 1**: evolution-based vs standard
//! partitioning over the ISCAS-85 suite.
//!
//! Rows, as in the paper: number of modules, BIC sensor area for both
//! methods, the sensor-area overhead of standard partitioning, and the
//! delay / test-application overheads (which barely differ between the
//! methods — the paper's point is that area is the discriminator).
//!
//! Usage:
//!
//! ```text
//! table1 [--quick] [--converge] [--ablate] [--json PATH] [--seed N]
//! ```
//!
//! * `--quick` — fewer generations (smoke run)
//! * `--converge` — also print the best-cost-per-generation series (X1)
//! * `--ablate` — also run χ = 0 (no Monte-Carlo descendants) and random
//!   (non-chain) starts, quantifying both design choices
//! * `--json PATH` — dump all reports as JSON for offline comparison

use std::collections::BTreeMap;

use iddq_bench::{
    circuit_seed, experiment_config, experiment_library, full_evolution, quick_evolution,
    table1_circuit,
};
use iddq_core::evolution::EvolutionConfig;
use iddq_core::flow::{self, Comparison};
use iddq_gen::iscas::IscasProfile;

struct Args {
    quick: bool,
    converge: bool,
    ablate: bool,
    json: Option<String>,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        converge: false,
        ablate: false,
        json: None,
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--converge" => args.converge = true,
            "--ablate" => args.ablate = true,
            "--json" => args.json = it.next(),
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an integer");
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let lib = experiment_library();
    let cfg = experiment_config();
    let evo = if args.quick {
        quick_evolution()
    } else {
        full_evolution()
    };

    let suite = IscasProfile::table1_suite();
    let mut comparisons: Vec<(String, Comparison)> = Vec::new();
    for profile in &suite {
        let nl = table1_circuit(profile);
        let t0 = std::time::Instant::now();
        let cmp = flow::compare_standard(
            &nl,
            &lib,
            &cfg,
            &evo,
            args.seed ^ circuit_seed(profile.name),
        );
        eprintln!(
            "[{}] {} gates, {} evaluations, {:.1?}",
            profile.name,
            nl.gate_count(),
            cmp.evolution.evaluations,
            t0.elapsed()
        );
        comparisons.push((profile.name.to_owned(), cmp));
    }

    print_table(&comparisons);

    if args.converge {
        println!("\n== Convergence (X1): best cost per generation ==");
        for (name, cmp) in &comparisons {
            let series: Vec<String> = cmp
                .evolution
                .log
                .iter()
                .step_by((cmp.evolution.log.len() / 12).max(1))
                .map(|g| format!("g{}:{:.0}", g.generation, g.best_cost))
                .collect();
            println!("{name:>8}: {}", series.join("  "));
        }
    }

    if args.ablate {
        run_ablations(&args, &evo);
    }

    if let Some(path) = &args.json {
        let mut out: BTreeMap<String, serde_json::Value> = BTreeMap::new();
        for (name, cmp) in &comparisons {
            out.insert(
                name.clone(),
                serde_json::json!({
                    "evolution": cmp.evolution.report,
                    "standard": cmp.standard,
                }),
            );
        }
        iddq_control::write_atomic(
            std::path::Path::new(path),
            &serde_json::to_string_pretty(&out).expect("serializable"),
        )
        .expect("writable json path");
        eprintln!("wrote {path}");
    }
}

fn print_table(comparisons: &[(String, Comparison)]) {
    let names: Vec<&str> = comparisons.iter().map(|(n, _)| n.as_str()).collect();
    println!("== Table 1: standard vs evolution-based partitioning ==");
    print!("{:<38}", "circuit");
    for n in &names {
        print!("{:>12}", n.to_uppercase());
    }
    println!();

    row(comparisons, "#modules", |c| {
        format!("{}", c.evolution.report.modules.len())
    });
    row(comparisons, "sensor area (evolution)", |c| {
        format!("{:.2e}", c.evolution.report.cost.sensor_area)
    });
    row(comparisons, "sensor area (standard)", |c| {
        format!("{:.2e}", c.standard.cost.sensor_area)
    });
    row(comparisons, "area overhead of standard", |c| {
        format!(
            "{:.1}%",
            (c.standard.cost.sensor_area / c.evolution.report.cost.sensor_area - 1.0) * 100.0
        )
    });
    row(comparisons, "delay overhead (evolution)", |c| {
        format!("{:.2e}", c.evolution.report.cost.c2_delay)
    });
    row(comparisons, "delay overhead (standard)", |c| {
        format!("{:.2e}", c.standard.cost.c2_delay)
    });
    row(comparisons, "test time overhead (evolution)", |c| {
        format!("{:.2e}", c.evolution.report.cost.c4_test_time)
    });
    row(comparisons, "test time overhead (standard)", |c| {
        format!("{:.2e}", c.standard.cost.c4_test_time)
    });
    row(comparisons, "feasible r(PI)", |c| {
        format!("{}/{}", c.evolution.report.feasible, c.standard.feasible)
    });
}

fn row(comparisons: &[(String, Comparison)], label: &str, f: impl Fn(&Comparison) -> String) {
    print!("{label:<38}");
    for (_, c) in comparisons {
        print!("{:>12}", f(c));
    }
    println!();
}

fn run_ablations(args: &Args, evo: &EvolutionConfig) {
    println!("\n== Ablations (Monte-Carlo descendants, chain starts) ==");
    let lib = experiment_library();
    let cfg = experiment_config();
    // Representative mid-size circuit to keep ablation runtime sane.
    let profile = IscasProfile::by_name("c1908").expect("known");
    let nl = table1_circuit(profile);
    let seed = args.seed ^ circuit_seed(profile.name);

    let base = flow::synthesize_with(&nl, &lib, &cfg, evo, seed);
    println!(
        "baseline (chi={}, chains): cost {:.0}, area {:.2e}, K={}",
        evo.chi,
        base.report.total_cost,
        base.report.cost.sensor_area,
        base.report.modules.len()
    );

    let no_mc = EvolutionConfig {
        chi: 0,
        ..evo.clone()
    };
    let r = flow::synthesize_with(&nl, &lib, &cfg, &no_mc, seed);
    println!(
        "no Monte-Carlo (chi=0):    cost {:.0}, area {:.2e}, K={}",
        r.report.total_cost,
        r.report.cost.sensor_area,
        r.report.modules.len()
    );

    let lazy = EvolutionConfig {
        lambda: evo.lambda + evo.chi,
        chi: 0,
        ..evo.clone()
    };
    let r = flow::synthesize_with(&nl, &lib, &cfg, &lazy, seed);
    println!(
        "equal-budget mutation-only: cost {:.0}, area {:.2e}, K={}",
        r.report.total_cost,
        r.report.cost.sensor_area,
        r.report.modules.len()
    );
}
