//! Quickstart: partition ISCAS-85 C17 for IDDQ testability.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Loads the embedded C17 netlist (the paper's running example), runs the
//! evolution-based synthesis flow with the paper's §5.1 cost weights, and
//! prints the per-module sensor plan.

use iddq::celllib::Library;
use iddq::core::evolution::EvolutionConfig;
use iddq::core::{config::PartitionConfig, flow};
use iddq::netlist::data;

fn main() {
    // 1. The circuit under test: c17, six NAND gates.
    let cut = data::c17();
    println!(
        "CUT: {} ({} inputs, {} outputs, {} gates)",
        cut.name(),
        cut.num_inputs(),
        cut.num_outputs(),
        cut.gate_count()
    );

    // 2. A target cell library characterized at electrical level.
    let library = Library::generic_1um();

    // 3. Paper-default constraints and weights:
    //    C(P) = 9 c1 + 1e5 c2 + c3 + c4 + 10 c5, d >= 10, r* = 200 mV.
    let config = PartitionConfig::paper_default();

    // 4. Run the evolution-based partitioning flow.
    let evo = EvolutionConfig::default();
    let result = flow::synthesize_with(&cut, &library, &config, &evo, 42);
    let report = &result.report;

    println!(
        "\npartitioned into {} modules (cost {:.1}, feasible: {})",
        report.modules.len(),
        report.total_cost,
        report.feasible
    );
    for m in &report.modules {
        let gates: Vec<&str> = result
            .partition
            .module(m.index)
            .iter()
            .map(|g| cut.node_name(*g))
            .collect();
        println!(
            "  M{}: gates {{{}}}  i_max = {:.0} uA  d = {:.0}  Rs = {:.1} ohm  area = {:.2e}",
            m.index,
            gates.join(","),
            m.peak_current_ua,
            m.discriminability,
            m.rs_ohm.expect("feasible module has a sensor"),
            m.sensor_area.expect("feasible module has a sensor"),
        );
    }
    println!(
        "\ndelay: {:.0} ps nominal -> {:.0} ps with sensors (c2 = {:.2e})",
        report.nominal_delay_ps, report.cost.dbic_ps, report.cost.c2_delay
    );
    println!(
        "test: {:.1} ns per vector, {:.2} us for {} vectors",
        report.cost.vector_time_ps / 1000.0,
        report.test_time_ps / 1e6,
        config.num_vectors
    );
}
