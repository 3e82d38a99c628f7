//! Regenerates the paper's **Figure 2**: the influence of partition
//! *shape* on BIC sensor area.
//!
//! The CUT is a two-dimensional cell array with three cell types whose
//! columns switch simultaneously (same logic depth) while rows switch at
//! staggered times. Partition 1 groups *rows* — "the three cells C1, C2,
//! C3 will not switch in parallel" — so each group's maximum transient
//! current is low; Partition 2 groups *columns*, whose cells all switch at
//! once, so "the switching devices have to be greater to guarantee the
//! same limits of the virtual rail perturbation, and partition 1 should be
//! preferred".
//!
//! Usage: `fig2_shape [--rows N] [--cols N]` (default 6×6: a square
//! array, so both shapes yield the same number of equal-size groups and
//! the comparison isolates shape alone).

use iddq_bench::{experiment_config, experiment_library};
use iddq_core::{EvalContext, Evaluated, Partition};
use iddq_gen::array;

const USAGE: &str = "usage: fig2_shape [--rows N] [--cols N]";

/// Parses the flags of [`USAGE`] into `(rows, cols)`. An unknown argument,
/// or `--rows` / `--cols` without a positive integer, is an error naming
/// it.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(usize, usize), String> {
    let (mut rows, mut cols) = (6usize, 6usize);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--rows" => &mut rows,
            "--cols" => &mut cols,
            _ => return Err(format!("unknown argument `{arg}`")),
        };
        *slot = args
            .next()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("flag `{arg}` expects a positive integer"))?;
    }
    Ok((rows, cols))
}

fn main() {
    let (rows, cols) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let nl = array::cell_array(rows, cols);
    let lib = experiment_library();
    let cfg = experiment_config();
    let ctx = EvalContext::new(&nl, &lib, cfg);

    let partitions = [
        (
            "Partition 1 (rows: staggered switching)",
            array::row_partition(&nl, rows, cols),
        ),
        (
            "Partition 2 (columns: simultaneous switching)",
            array::col_partition(&nl, rows, cols),
        ),
    ];

    println!("== Figure 2: group shape vs BIC sensor area ({rows}x{cols} array) ==");
    let mut areas = Vec::new();
    for (label, groups) in partitions {
        let p = Partition::from_groups(&nl, groups).expect("array partitions are valid");
        let e = Evaluated::new(&ctx, p);
        let cost = e.cost();
        let peak_max = e
            .stats()
            .iter()
            .map(|s| s.peak_current_ua)
            .fold(0.0f64, f64::max);
        let peak_mean =
            e.stats().iter().map(|s| s.peak_current_ua).sum::<f64>() / e.stats().len() as f64;
        println!("\n{label}");
        println!("  groups:                 {}", e.stats().len());
        println!("  mean group i_dd_max:    {peak_mean:.0} uA");
        println!("  worst group i_dd_max:   {peak_max:.0} uA");
        println!("  total BIC sensor area:  {:.3e}", cost.sensor_area);
        println!("  delay overhead c2:      {:.3e}", cost.c2_delay);
        areas.push(cost.sensor_area);
    }
    println!(
        "\ncolumn-shaped groups need {:.1}% more sensor area than row-shaped groups",
        (areas[1] / areas[0] - 1.0) * 100.0
    );
    assert!(
        areas[1] > areas[0],
        "paper's figure-2 ordering must hold: simultaneous groups cost more area"
    );
}
