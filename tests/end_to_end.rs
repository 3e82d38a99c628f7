//! Cross-crate integration tests: the full synthesis flow from netlist
//! generation through partitioning to defect simulation.

use iddq::atpg::{self, AtpgConfig};
use iddq::celllib::{Library, NodeTables};
use iddq::core::{config::PartitionConfig, evolution::EvolutionConfig, flow};
use iddq::gen::iscas::{self, IscasProfile};
use iddq::logicsim::faults::{enumerate, FaultUniverseConfig};
use iddq::logicsim::iddq as iddq_sim;
use iddq::netlist::bench;

fn quick_evo() -> EvolutionConfig {
    EvolutionConfig {
        generations: 40,
        stagnation: 20,
        ..Default::default()
    }
}

#[test]
fn synthesize_c432_yields_feasible_partition() {
    let profile = IscasProfile::by_name("c432").unwrap();
    let cut = iscas::generate(profile, 1);
    let lib = Library::generic_1um();
    let cfg = PartitionConfig::paper_default();
    let result = flow::synthesize_with(&cut, &lib, &cfg, &quick_evo(), 1);
    assert!(result.report.feasible);
    result.partition.validate(&cut).unwrap();
    // Every module gets a realizable sensor within the discriminability
    // budget.
    for m in &result.report.modules {
        assert!(m.discriminability >= cfg.d_min);
        let rs = m.rs_ohm.expect("feasible sensor");
        assert!(rs >= lib.technology().r_bypass_min_ohm);
        assert!(rs <= lib.technology().r_bypass_max_ohm);
    }
}

#[test]
fn evolution_beats_standard_on_sensor_area() {
    // The paper's headline (Table 1): standard partitioning needs
    // 14.5–30.6 % more BIC sensor hardware. Direction must reproduce on
    // any mid-size circuit.
    let profile = IscasProfile::by_name("c880").unwrap();
    let cut = iscas::generate(profile, 2);
    let lib = Library::generic_1um();
    let cfg = PartitionConfig::paper_default();
    let cmp = flow::compare_standard(&cut, &lib, &cfg, &quick_evo(), 2);
    assert_eq!(
        cmp.evolution.report.modules.len(),
        cmp.standard.modules.len(),
        "comparison must hold module count fixed"
    );
    assert!(
        cmp.standard.cost.sensor_area > cmp.evolution.report.cost.sensor_area,
        "standard {} must exceed evolution {}",
        cmp.standard.cost.sensor_area,
        cmp.evolution.report.cost.sensor_area
    );
}

#[test]
fn full_flow_is_deterministic() {
    let profile = IscasProfile::by_name("c432").unwrap();
    let cut = iscas::generate(profile, 9);
    let lib = Library::generic_1um();
    let cfg = PartitionConfig::paper_default();
    let a = flow::synthesize_with(&cut, &lib, &cfg, &quick_evo(), 4);
    let b = flow::synthesize_with(&cut, &lib, &cfg, &quick_evo(), 4);
    assert_eq!(a.partition, b.partition);
    assert_eq!(a.report, b.report);
}

#[test]
fn partitioned_sensors_detect_activated_defects() {
    let profile = IscasProfile::by_name("c432").unwrap();
    let cut = iscas::generate(profile, 5);
    let lib = Library::generic_1um();
    let cfg = PartitionConfig::paper_default();
    let result = flow::synthesize_with(&cut, &lib, &cfg, &quick_evo(), 5);

    let faults = enumerate(&cut, &FaultUniverseConfig::default(), 5);
    let tests = atpg::generate(&cut, &faults, &AtpgConfig::default(), 5);
    let module_leaks: Vec<f64> = result
        .report
        .modules
        .iter()
        .map(|m| m.leakage_na / 1000.0)
        .collect();
    let sim = iddq_sim::simulate_with_options(
        &cut,
        &faults,
        &tests.vectors,
        result.partition.assignment(),
        &module_leaks,
        lib.technology().iddq_threshold_ua,
        &iddq_sim::SweepOptions::default(),
    );
    // Defect currents (50–500 µA) dwarf the 1 µA threshold, so detection
    // coverage equals activation coverage when all sensors are sane.
    assert!(
        (sim.coverage - tests.coverage).abs() < 1e-9,
        "sensor coverage {} vs activation coverage {}",
        sim.coverage,
        tests.coverage
    );
    assert!(sim.coverage > 0.5);
}

#[test]
fn generated_circuits_roundtrip_through_bench_format() {
    for name in ["c432", "c880", "c1355"] {
        let profile = IscasProfile::by_name(name).unwrap();
        let cut = iscas::generate(profile, 3);
        let text = bench::to_bench(&cut);
        let back = bench::parse(name, &text).unwrap();
        assert_eq!(back.gate_count(), cut.gate_count());
        assert_eq!(back.num_inputs(), cut.num_inputs());
        assert_eq!(back.num_outputs(), cut.num_outputs());
        // Logic equivalence on a handful of random-ish vectors.
        let sim_a = iddq::logicsim::Simulator::new(&cut);
        let sim_b = iddq::logicsim::Simulator::new(&back);
        let inputs: Vec<u64> = (0..cut.num_inputs() as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let va = sim_a.eval(&inputs);
        for &o in cut.outputs() {
            let ob = back.find(cut.node_name(o)).unwrap();
            let vb = sim_b.eval(&inputs);
            assert_eq!(va[o.index()], vb[ob.index()]);
        }
    }
}

#[test]
fn module_leakage_sums_to_circuit_leakage() {
    let profile = IscasProfile::by_name("c499").unwrap();
    let cut = iscas::generate(profile, 8);
    let lib = Library::generic_1um();
    let cfg = PartitionConfig::paper_default();
    let result = flow::synthesize_with(&cut, &lib, &cfg, &quick_evo(), 8);
    let tables = NodeTables::new(&cut, &lib);
    let total: f64 = cut.gate_ids().map(|g| tables.leakage_na[g.index()]).sum();
    let from_modules: f64 = result.report.modules.iter().map(|m| m.leakage_na).sum();
    assert!((total - from_modules).abs() < 1e-6);
}

#[test]
fn report_json_roundtrip() {
    let profile = IscasProfile::by_name("c432").unwrap();
    let cut = iscas::generate(profile, 2);
    let lib = Library::generic_1um();
    let cfg = PartitionConfig::paper_default();
    let result = flow::synthesize_with(&cut, &lib, &cfg, &quick_evo(), 2);
    let json = serde_json::to_string(&result.report).unwrap();
    let back: iddq::core::flow::SynthesisReport = serde_json::from_str(&json).unwrap();
    // Floats may shift by an ULP through the decimal representation, so
    // compare structure plus key figures with tolerance.
    assert_eq!(back.circuit, result.report.circuit);
    assert_eq!(back.gates, result.report.gates);
    assert_eq!(back.modules.len(), result.report.modules.len());
    assert_eq!(back.feasible, result.report.feasible);
    assert!((back.total_cost - result.report.total_cost).abs() < 1e-6);
    assert!((back.cost.sensor_area - result.report.cost.sensor_area).abs() < 1e-6);
}
