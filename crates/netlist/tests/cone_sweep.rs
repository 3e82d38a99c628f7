//! The flat weighted sweep of `ConeIndex` against the netlist-walking
//! recurrence of `levelize::longest_path`, bit for bit.

use iddq_gen::iscas::{generate, IscasProfile};
use iddq_gen::seq::{generate as generate_seq, SeqProfile};
use iddq_netlist::cone::ConeIndex;
use iddq_netlist::{data, levelize, Netlist};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random weights on c17, a generated c880 and a generated s1423 (whose
/// DFFs launch fresh paths): the flat sweep reproduces `longest_path`
/// exactly.
#[test]
fn flat_sweep_matches_longest_path_bitwise() {
    let circuits: [Netlist; 3] = [
        data::c17(),
        generate(IscasProfile::by_name("c880").unwrap(), 5),
        generate_seq(SeqProfile::by_name("s1423").unwrap(), 5),
    ];
    assert!(circuits[2].has_state(), "s1423 must exercise DFF cuts");
    let mut rng = SmallRng::seed_from_u64(17);
    for nl in &circuits {
        let index = ConeIndex::new(nl);
        let mut arr = vec![f64::NAN; nl.node_count()];
        for round in 0..8 {
            let weight: Vec<f64> = nl
                .node_ids()
                .map(|id| {
                    if nl.is_gate(id) {
                        rng.gen_range(0.0..1000.0)
                    } else {
                        0.0
                    }
                })
                .collect();
            let want = levelize::longest_path(nl, &weight);
            index.longest_path_into(&weight, &mut arr);
            for id in nl.node_ids() {
                let i = id.index();
                assert_eq!(
                    arr[i].to_bits(),
                    want[i].to_bits(),
                    "{} round {round}: arrival of node {id}",
                    nl.name()
                );
            }
        }
        // The fan-in lists are the netlist's, in pin order, minus DFF D edges.
        for id in nl.node_ids() {
            let want: Vec<u32> = if nl.is_state_element(id) {
                Vec::new()
            } else {
                nl.node(id).fanin().iter().map(|f| f.0).collect()
            };
            assert_eq!(index.fanin(id), &want[..], "{} node {id}", nl.name());
        }
    }
}
