//! The gate separation table on generated circuits: against its
//! one-BFS-per-gate reference, its round trip through distance rows,
//! and its footprint (4 bytes per packed entry) and footprint estimate.

use iddq_gen::iscas::{generate, IscasProfile};
use iddq_gen::seq::{generate as generate_seq, SeqProfile};
use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::{Netlist, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn generated() -> [Netlist; 2] {
    [
        generate(IscasProfile::by_name("c880").unwrap(), 5),
        generate_seq(SeqProfile::by_name("s1423").unwrap(), 5),
    ]
}

/// The batched table equals its reference, and its
/// `module_separation` is the reference's pair sum on random gate
/// subsets of a generated c880 and s1423, from the empty and one-gate
/// sets up to every gate. ρ 6 is the flow's bound; ρ 300 takes the
/// per-source build path (ρ > 256) and a 9-bit weight field.
#[test]
fn table_module_separation_matches_oracle() {
    let mut rng = SmallRng::seed_from_u64(29);
    for nl in &generated() {
        for rho in [2, 5, 6, 300] {
            let oracle = GateSeparationTable::reference(nl, rho);
            let table = GateSeparationTable::direct(nl, rho, 1);
            assert_eq!(table, oracle, "{} at rho {rho}", nl.name());
            let mut gates: Vec<NodeId> = nl.gate_ids().collect();
            let mut sizes = vec![0, 1, 2, gates.len()];
            sizes.extend((0..12).map(|_| rng.gen_range(3..gates.len())));
            for size in sizes {
                // A partial Fisher–Yates draw of `size` distinct gates.
                for i in 0..size {
                    let j = rng.gen_range(i..gates.len());
                    gates.swap(i, j);
                }
                let module = &gates[..size];
                assert_eq!(
                    table.module_separation(module),
                    oracle.module_separation(module),
                    "{} at rho {rho}, {size} gates",
                    nl.name()
                );
            }
        }
    }
}

/// Rows written as distances rebuild the directly built table entry for
/// entry.
#[test]
fn table_from_distance_rows_round_trips() {
    for nl in &generated() {
        let rho = 5;
        let table = GateSeparationTable::direct(nl, rho, 1);
        let rows = nl
            .node_ids()
            .map(|id| table.row(id).map(|(p, w)| (p, rho - w)).collect())
            .collect();
        let rebuilt = GateSeparationTable::from_distance_rows(rho, rows);
        assert_eq!(rebuilt, table, "{}", nl.name());
        assert_eq!(rebuilt.node_count(), nl.node_count());
    }
}

/// On generated circuits the table is exactly sized, whichever build
/// made it, and the sampled estimate the tier planner reads lands
/// within a factor of 2 of the real footprint.
#[test]
fn generated_tables_are_exactly_sized_and_estimated() {
    let c7552 = generate(IscasProfile::by_name("c7552").unwrap(), 5);
    for nl in generated().iter().chain([&c7552]) {
        let n = nl.node_count();
        let rho = 6;
        let table = GateSeparationTable::direct(nl, rho, 1);
        assert_eq!(
            table.memory_bytes(),
            4 * table.entry_count() + 4 * (n + 1) + 8 * n,
            "{}",
            nl.name()
        );
        assert_eq!(
            GateSeparationTable::direct(nl, rho, 2).memory_bytes(),
            table.memory_bytes()
        );
        let est = GateSeparationTable::estimate(nl, rho);
        let actual = table.memory_bytes();
        assert!(
            est.bytes * 2 >= actual && est.bytes <= actual * 2,
            "{}: est={est:?} actual={actual}",
            nl.name()
        );
        assert!(
            est.entries * 2 >= table.entry_count() && est.entries <= table.entry_count() * 2,
            "{}: est={est:?} entries={}",
            nl.name(),
            table.entry_count()
        );
    }
}
