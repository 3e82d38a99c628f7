//! Property-based tests for the netlist substrate's algebraic laws.

use proptest::prelude::*;

use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::{data, CellKind, Netlist, NetlistBuilder, NodeId, TimeSet};

fn times_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..500, 0..40)
}

/// A random combinational DAG grown from proptest-drawn choices: every
/// gate picks a kind and wires legal fan-ins among the already-built
/// nodes, so acyclicity holds by construction. Exercises reconvergence,
/// multi-pin edges (the same driver on several pins) and mixed arities.
fn build_dag(n_in: usize, specs: &[(u8, Vec<u16>)]) -> Netlist {
    let mut b = NetlistBuilder::new("random-dag");
    let mut nodes: Vec<NodeId> = (0..n_in).map(|i| b.add_input(format!("i{i}"))).collect();
    for (k, (kind_pick, fanin_picks)) in specs.iter().enumerate() {
        let fanin: Vec<NodeId> = fanin_picks
            .iter()
            .map(|&p| nodes[p as usize % nodes.len()])
            .collect();
        let kind = CellKind::ALL
            .into_iter()
            .cycle()
            .skip(*kind_pick as usize % CellKind::ALL.len())
            .find(|kind| kind.accepts_fanin(fanin.len()))
            .expect("some kind accepts 1..4 fan-ins");
        let g = b
            .add_gate(format!("g{k}"), kind, fanin)
            .expect("arity chosen to be legal");
        nodes.push(g);
    }
    let last = *nodes.last().expect("at least one gate");
    b.mark_output(last);
    b.build().expect("grown DAGs are acyclic and connected")
}

/// The proptest input feeding [`build_dag`]: per-gate kind pick plus
/// 1–3 fan-in picks.
fn dag_spec() -> impl Strategy<Value = Vec<(u8, Vec<u16>)>> {
    prop::collection::vec(
        (any::<u8>(), prop::collection::vec(any::<u16>(), 1usize..4)),
        1usize..40,
    )
}

proptest! {
    /// Set semantics: FromIterator + iter round-trips as a sorted dedup.
    #[test]
    fn timeset_roundtrip(times in times_strategy()) {
        let set: TimeSet = times.iter().copied().collect();
        let mut want = times.clone();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), want);
        prop_assert_eq!(set.len(), set.iter().count());
    }

    /// Shifting distributes over membership: t ∈ S ⇔ t+δ ∈ S≫δ.
    #[test]
    fn timeset_shift_membership(times in times_strategy(), delta in 0u32..300) {
        let set: TimeSet = times.iter().copied().collect();
        let shifted = set.shifted(delta);
        for t in set.iter() {
            prop_assert!(shifted.contains(t + delta));
        }
        prop_assert_eq!(set.len(), shifted.len());
        prop_assert_eq!(set.min().map(|t| t + delta), shifted.min());
        prop_assert_eq!(set.max().map(|t| t + delta), shifted.max());
    }

    /// Union is commutative, associative and idempotent.
    #[test]
    fn timeset_union_laws(a in times_strategy(), b in times_strategy()) {
        let sa: TimeSet = a.iter().copied().collect();
        let sb: TimeSet = b.iter().copied().collect();
        let mut ab = sa.clone();
        ab.union_with(&sb);
        let mut ba = sb.clone();
        ba.union_with(&sa);
        prop_assert_eq!(&ab, &ba);
        let mut aa = sa.clone();
        aa.union_with(&sa);
        prop_assert_eq!(&aa, &sa);
        // Shifted union equals union of shifts.
        let mut left = sa.clone();
        left.union_with_shifted(&sb, 7);
        let mut right = sa.clone();
        right.union_with(&sb.shifted(7));
        prop_assert_eq!(left, right);
    }

    /// The gate separation table is a symmetric, ρ-saturated premetric
    /// on any generated chain-with-taps circuit.
    #[test]
    fn separation_is_symmetric_and_saturated(n in 3usize..30, rho in 1u32..8) {
        let mut b = NetlistBuilder::new("chain");
        let mut prev = b.add_input("i");
        let mut gates: Vec<NodeId> = Vec::new();
        for k in 0..n {
            prev = b.add_gate(format!("g{k}"), CellKind::Not, vec![prev]).unwrap();
            gates.push(prev);
        }
        b.mark_output(prev);
        let nl = b.build().unwrap();
        let sep = GateSeparationTable::direct(&nl, rho, 1);
        for &a in &gates {
            prop_assert_eq!(sep.distance(a, a), 0);
            for &c in &gates {
                let d = sep.distance(a, c);
                prop_assert_eq!(d, sep.distance(c, a));
                prop_assert!(d <= rho);
                if a != c {
                    // True chain distance, saturated.
                    let want = (a.index() as i64 - c.index() as i64).unsigned_abs() as u32;
                    prop_assert_eq!(d, want.min(rho));
                }
            }
        }
    }

    /// The batched table build equals its one-BFS-per-gate reference on
    /// random netlists across the practical ρ range: every row, and
    /// every pairwise gate `distance`.
    #[test]
    fn direct_table_matches_bfs_reference(
        n_in in 2usize..5,
        specs in dag_spec(),
        rho in 1u32..8,
    ) {
        let nl = build_dag(n_in, &specs);
        let table = GateSeparationTable::direct(&nl, rho, 1);
        let reference = GateSeparationTable::reference(&nl, rho);
        prop_assert_eq!(&table, &reference, "CSR tables diverge");
        for a in nl.gate_ids() {
            prop_assert!(table.row(a).eq(reference.row(a)));
            for b in nl.gate_ids() {
                prop_assert_eq!(
                    table.distance(a, b),
                    reference.distance(a, b),
                    "distance({a}, {b})"
                );
            }
        }
    }

    /// The sharded parallel build is bit-identical to the serial one for
    /// every thread count (including more threads than nodes).
    #[test]
    fn parallel_builds_bit_identical_to_serial(
        n_in in 2usize..5,
        specs in dag_spec(),
        rho in 1u32..8,
        threads in 2usize..7,
    ) {
        let nl = build_dag(n_in, &specs);
        let table = GateSeparationTable::direct(&nl, rho, 1);
        prop_assert_eq!(&GateSeparationTable::direct(&nl, rho, threads), &table);
        prop_assert_eq!(
            &GateSeparationTable::direct(&nl, rho, nl.node_count() + 7),
            &table
        );
    }

    /// The row kernel `partition_separations` equals the pair-sum
    /// reference `module_separation` on every module of a random gate
    /// partition of a random netlist, at every saturation bound.
    #[test]
    fn partition_separations_match_the_pair_sum(
        n_in in 1usize..6,
        specs in dag_spec(),
        rho in 1u32..8,
        k in 1usize..6,
        picks in prop::collection::vec(any::<u8>(), 40),
    ) {
        let nl = build_dag(n_in, &specs);
        let table = GateSeparationTable::direct(&nl, rho, 1);
        let mut modules: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for (i, g) in nl.gate_ids().enumerate() {
            modules[usize::from(picks[i % picks.len()]) % k].push(g);
        }
        modules.retain(|m| !m.is_empty());
        let mut assignment = vec![u32::MAX; nl.node_count()];
        for (m, gates) in modules.iter().enumerate() {
            for g in gates {
                assignment[g.index()] = m as u32;
            }
        }
        let want: Vec<u64> = modules.iter().map(|m| table.module_separation(m)).collect();
        prop_assert_eq!(table.partition_separations(&modules, &assignment), want);
    }

    /// Module separation equals the pairwise sum definition for arbitrary
    /// gate subsets of c17.
    #[test]
    fn module_separation_matches_pairwise_sum(mask in 1u8..63) {
        let nl = data::c17();
        let sep = GateSeparationTable::direct(&nl, 5, 1);
        let reference = GateSeparationTable::reference(&nl, 5);
        let gates: Vec<NodeId> = data::c17_paper_gates(&nl)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, g)| g)
            .collect();
        let mut want = 0u64;
        for (i, &a) in gates.iter().enumerate() {
            for &b in &gates[i + 1..] {
                want += u64::from(reference.distance(a, b));
            }
        }
        prop_assert_eq!(sep.module_separation(&gates), want);
    }
}

/// Fuzzing the `.bench` parser: arbitrary corruption of a valid netlist
/// text — byte splices, truncations, line shuffles — must never panic.
/// Every input either parses cleanly or comes back as a *line-numbered*
/// parse error, because the CLI forwards untrusted files straight into
/// this function.
mod bench_parser_fuzz {
    use super::*;
    use iddq_netlist::{bench, NetlistError};

    /// Parse must return, not panic; errors must carry a plausible line
    /// number (1-based, within the text).
    fn assert_total(text: &str) {
        match bench::parse("fuzz", text) {
            Ok(nl) => {
                // A netlist that parsed is structurally valid: its
                // printable form must round-trip.
                let again = bench::parse("fuzz2", &bench::to_bench(&nl)).expect("round-trip");
                assert_eq!(nl.node_count(), again.node_count());
            }
            Err(NetlistError::Parse { line, .. }) => {
                let lines = text.lines().count().max(1);
                assert!(
                    line >= 1 && line <= lines,
                    "error line {line} outside 1..={lines}"
                );
            }
            Err(_) => {} // structural errors (cycles, duplicate defs) are fine too
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random byte splices into a valid `.bench` text.
        #[test]
        fn spliced_bytes_never_panic(
            seed in 0u64..50,
            edits in proptest::collection::vec((0usize..4096, 0u8..=255), 1..32),
        ) {
            let nl = data::ripple_adder((seed % 5 + 1) as usize);
            let mut bytes = bench::to_bench(&nl).into_bytes();
            for &(pos, byte) in &edits {
                let i = pos % bytes.len();
                bytes[i] = byte;
            }
            let text = String::from_utf8_lossy(&bytes).into_owned();
            assert_total(&text);
        }

        /// Truncation at every byte offset.
        #[test]
        fn truncations_never_panic(seed in 0u64..10, cut in 0usize..4096) {
            let nl = data::ripple_adder((seed % 4 + 1) as usize);
            let text = bench::to_bench(&nl);
            let cut = cut % (text.len() + 1);
            // Truncate on a char boundary (bench output is ASCII, but
            // stay defensive).
            let mut end = cut;
            while end > 0 && !text.is_char_boundary(end) {
                end -= 1;
            }
            assert_total(&text[..end]);
        }

        /// Line shuffles: declarations out of dependency order must be
        /// a clean error or a clean parse, never a crash.
        #[test]
        fn shuffled_lines_never_panic(seed in 0u64..10, order in proptest::collection::vec(0usize..64, 4..64)) {
            let nl = data::ripple_adder((seed % 4 + 2) as usize);
            let text = bench::to_bench(&nl);
            let lines: Vec<&str> = text.lines().collect();
            let shuffled: Vec<&str> = order
                .iter()
                .map(|&i| lines[i % lines.len()])
                .collect();
            assert_total(&shuffled.join("\n"));
        }

        /// Pathological free-form garbage (not derived from a valid file).
        #[test]
        fn arbitrary_text_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            // Map arbitrary bytes into printable ASCII + newlines so the
            // fuzz actually exercises the line-oriented grammar instead
            // of failing UTF-8 decoding up front.
            let text: String = bytes
                .iter()
                .map(|&b| if b % 13 == 0 { '\n' } else { (b % 95 + 32) as char })
                .collect();
            assert_total(&text);
        }
    }
}
