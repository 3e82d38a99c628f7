//! §1's motivating claim, measured: "the quiescent current … is a good
//! indicator of the presence of a large class of defects escaping logic
//! test".
//!
//! ```text
//! cargo run --release --example logic_vs_iddq
//! ```
//!
//! Builds a defect universe (bridges + gate-oxide shorts + stuck-on
//! transistors), a shared vector set, and scores every defect twice:
//!
//! * **logic test** — detected only if some vector propagates a wrong
//!   value to a primary output (wired-AND model for bridges; parametric
//!   defects never corrupt logic),
//! * **IDDQ test** — detected if some vector merely *activates* the
//!   defect under a partitioned BIC-sensor plan.

use iddq::atpg::{self, AtpgConfig};
use iddq::celllib::Library;
use iddq::core::{config::PartitionConfig, evolution::EvolutionConfig, flow};
use iddq::gen::iscas::{self, IscasProfile};
use iddq::logicsim::faults::{enumerate, FaultUniverseConfig, IddqFault};
use iddq::logicsim::iddq as iddq_sim;
use iddq::logicsim::{iddq::pack_vectors, logic_test};

fn main() {
    let profile = IscasProfile::by_name("c880").expect("known");
    let cut = iscas::generate(profile, 13);
    let library = Library::generic_1um();
    let config = PartitionConfig::paper_default();

    let faults = enumerate(&cut, &FaultUniverseConfig::default(), 13);
    let tests = atpg::generate(&cut, &faults, &AtpgConfig::default(), 13);
    println!(
        "CUT {}: {} gates; {} defects; {} vectors",
        cut.name(),
        cut.gate_count(),
        faults.len(),
        tests.vectors.len()
    );

    // Logic-test verdict per defect.
    let batches: Vec<Vec<u64>> = pack_vectors(&tests.vectors, cut.num_inputs())
        .into_iter()
        .map(|(words, _)| words)
        .collect();
    let logic = logic_test::logic_observability(&cut, &faults, &batches);

    // IDDQ verdict per defect under the synthesized sensor plan.
    let evo = EvolutionConfig {
        generations: 60,
        stagnation: 25,
        ..Default::default()
    };
    let result = flow::synthesize_with(&cut, &library, &config, &evo, 13);
    let leaks: Vec<f64> = result
        .report
        .modules
        .iter()
        .map(|m| m.leakage_na / 1000.0)
        .collect();
    let iddq = iddq_sim::simulate_with_options(
        &cut,
        &faults,
        &tests.vectors,
        result.partition.assignment(),
        &leaks,
        library.technology().iddq_threshold_ua,
        &iddq_sim::SweepOptions::default(),
    );

    let mut table = [[0usize; 2]; 2]; // [logic][iddq]
    for (l, q) in logic.iter().zip(&iddq.detected) {
        table[usize::from(*l)][usize::from(*q)] += 1;
    }
    let kinds = |pred: &dyn Fn(&IddqFault) -> bool| faults.iter().filter(|f| pred(f)).count();
    println!(
        "\ndefect mix: {} bridges, {} gate-oxide shorts, {} stuck-on",
        kinds(&|f| matches!(f, IddqFault::Bridge { .. })),
        kinds(&|f| matches!(f, IddqFault::GateOxideShort { .. })),
        kinds(&|f| matches!(f, IddqFault::StuckOn { .. })),
    );
    println!("\n                      IDDQ miss   IDDQ detect");
    println!(
        "logic miss          {:>10} {:>13}",
        table[0][0], table[0][1]
    );
    println!(
        "logic detect        {:>10} {:>13}",
        table[1][0], table[1][1]
    );

    let logic_cov = logic.iter().filter(|&&d| d).count() as f64 / faults.len() as f64;
    println!(
        "\nlogic-test coverage: {:.1}%   IDDQ coverage: {:.1}%",
        logic_cov * 100.0,
        iddq.coverage * 100.0
    );
    println!(
        "defects escaping logic test but caught by IDDQ: {}",
        table[0][1]
    );
    assert!(
        table[0][1] > 0,
        "a large class of defects must escape logic test yet be IDDQ-detectable (§1)"
    );
}
