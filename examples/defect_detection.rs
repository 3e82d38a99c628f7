//! End-to-end IDDQ test demonstration: why partitioning makes defects
//! observable.
//!
//! ```text
//! cargo run --release --example defect_detection
//! ```
//!
//! The motivating scenario of the paper's introduction: a CUT whose total
//! fault-free leakage is too close to the defect threshold for a single
//! current sensor ("non defective IDDQ currents of large circuits can be
//! larger than 1 µA"). We
//!
//! 1. build a CUT and a realistic defect universe (bridges, gate-oxide
//!    shorts, stuck-on transistors),
//! 2. generate a compacted IDDQ vector set with the ATPG substrate,
//! 3. measure defect coverage with (a) one chip-wide sensor and (b) the
//!    BIC-sensor-per-module plan produced by the partitioner,
//!
//! and report the coverage gap.

use iddq::atpg::{self, AtpgConfig};
use iddq::celllib::Library;
use iddq::core::{config::PartitionConfig, evolution::EvolutionConfig, flow};
use iddq::gen::iscas::{self, IscasProfile};
use iddq::logicsim::faults::{enumerate, FaultUniverseConfig};
use iddq::logicsim::iddq as iddq_sim;
use iddq::logicsim::iddq::NO_MODULE;

fn main() {
    // A large CUT: ~9000 gates, past the point the paper's introduction
    // warns about — "non defective IDDQ currents of large circuits can be
    // larger than 1 uA", so a single chip-wide sensor saturates on the
    // fault-free leakage alone.
    let profile = IscasProfile {
        name: "big9000",
        inputs: 128,
        outputs: 64,
        gates: 9000,
        depth: 55,
    };
    let cut = iscas::generate(&profile, 7);
    let library = Library::generic_1um();
    let config = PartitionConfig::paper_default();
    let threshold_ua = library.technology().iddq_threshold_ua;

    // Defect universe and test set (partition-independent, §3.4).
    let faults = enumerate(&cut, &FaultUniverseConfig::default(), 11);
    let tests = atpg::generate(&cut, &faults, &AtpgConfig::default(), 11);
    println!(
        "defect universe: {} faults; ATPG kept {} vectors (activation coverage {:.1}%)",
        faults.len(),
        tests.vectors.len(),
        tests.coverage * 100.0
    );

    // Total fault-free leakage of the whole CUT.
    let total_leak_na: f64 = {
        let tables = iddq::celllib::NodeTables::new(&cut, &library);
        cut.gate_ids().map(|g| tables.leakage_na[g.index()]).sum()
    };
    println!(
        "whole-CUT fault-free IDDQ: {:.3} uA vs threshold {:.1} uA (d = {:.1}, need {:.0})",
        total_leak_na / 1000.0,
        threshold_ua,
        threshold_ua / (total_leak_na / 1000.0),
        config.d_min
    );

    // (a) Single chip-wide sensor.
    let single_module: Vec<u32> = cut
        .node_ids()
        .map(|id| if cut.is_gate(id) { 0 } else { NO_MODULE })
        .collect();
    let single = iddq_sim::simulate_with_options(
        &cut,
        &faults,
        &tests.vectors,
        &single_module,
        &[total_leak_na / 1000.0],
        threshold_ua,
        &iddq_sim::SweepOptions::default(),
    );

    // (b) Partitioned CUT with one BIC sensor per module.
    let evo = EvolutionConfig {
        generations: 40,
        stagnation: 20,
        ..Default::default()
    };
    let result = flow::synthesize_with(&cut, &library, &config, &evo, 7);
    let module_leaks: Vec<f64> = result
        .report
        .modules
        .iter()
        .map(|m| m.leakage_na / 1000.0)
        .collect();
    let partitioned = iddq_sim::simulate_with_options(
        &cut,
        &faults,
        &tests.vectors,
        result.partition.assignment(),
        &module_leaks,
        threshold_ua,
        &iddq_sim::SweepOptions::default(),
    );

    println!(
        "\n                       single sensor   {} BIC sensors",
        module_leaks.len()
    );
    println!(
        "defect coverage        {:>12.1}%   {:>12.1}%",
        single.coverage * 100.0,
        partitioned.coverage * 100.0
    );
    let detected_single = single.detected.iter().filter(|&&d| d).count();
    let detected_part = partitioned.detected.iter().filter(|&&d| d).count();
    println!(
        "defects detected       {:>13}   {:>13}",
        detected_single, detected_part
    );
    println!(
        "\npartitioning recovers {} defects a chip-wide sensor misses",
        detected_part.saturating_sub(detected_single)
    );
    assert!(
        partitioned.coverage >= single.coverage,
        "per-module sensors must never do worse"
    );
}
