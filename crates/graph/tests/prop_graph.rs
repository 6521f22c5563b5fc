//! Property-based tests for the graph substrate: CSR round-trips,
//! transfer-graph structural invariants, the in-slices layout, and
//! Equation 1 conservation laws.

use orex_graph::slices::{CHUNK_ROWS, NO_ROW, PAD_EDGE, WINDOW_ROWS};
use orex_graph::{
    Csr, DataGraph, DataGraphBuilder, Direction, NodeId, SchemaGraph, TransferGraph, TransferRates,
    TransferTypeId,
};
use proptest::prelude::*;

/// Strategy: a random edge list over `n` nodes.
fn edges_strategy(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (1..max_nodes).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..max_edges))
    })
}

proptest! {
    /// Every input edge appears exactly once in the CSR, under its source.
    #[test]
    fn csr_preserves_all_edges((n, edges) in edges_strategy(50, 200)) {
        let (csr, perm) = Csr::from_edges(n, &edges);
        prop_assert_eq!(csr.edge_count(), edges.len());
        let mut seen = vec![false; edges.len()];
        for node in 0..n {
            for (target, slot) in csr.neighbors(node) {
                let input = perm[slot] as usize;
                prop_assert!(!seen[input]);
                seen[input] = true;
                prop_assert_eq!(edges[input], (node as u32, target));
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Degrees sum to the edge count.
    #[test]
    fn csr_degrees_sum_to_edge_count((n, edges) in edges_strategy(50, 200)) {
        let (csr, _) = Csr::from_edges(n, &edges);
        let total: usize = (0..n).map(|v| csr.degree(v)).sum();
        prop_assert_eq!(total, edges.len());
    }
}

/// Builds a random two-type data graph: papers citing papers and written
/// by authors.
fn random_data_graph(
    papers: usize,
    authors: usize,
    cite_pairs: &[(u32, u32)],
    by_pairs: &[(u32, u32)],
) -> DataGraph {
    let mut schema = SchemaGraph::new();
    let paper = schema.add_node_type("Paper").unwrap();
    let author = schema.add_node_type("Author").unwrap();
    let cites = schema.add_edge_type(paper, paper, "cites").unwrap();
    let by = schema.add_edge_type(paper, author, "by").unwrap();
    let mut b = DataGraphBuilder::new(schema);
    let pids: Vec<_> = (0..papers)
        .map(|_| b.add_node(paper, vec![]).unwrap())
        .collect();
    let aids: Vec<_> = (0..authors)
        .map(|_| b.add_node(author, vec![]).unwrap())
        .collect();
    for &(s, t) in cite_pairs {
        b.add_edge(pids[s as usize % papers], pids[t as usize % papers], cites)
            .unwrap();
    }
    for &(s, t) in by_pairs {
        b.add_edge(pids[s as usize % papers], aids[t as usize % authors], by)
            .unwrap();
    }
    b.freeze()
}

proptest! {
    /// The transfer graph always has exactly twice the data edges, and the
    /// per-node, per-type outgoing alphas of each node sum to the type's
    /// rate whenever the node has any edge of that type (Equation 1).
    #[test]
    fn transfer_weights_sum_to_rate_per_type(
        papers in 1usize..20,
        authors in 1usize..10,
        cite_pairs in proptest::collection::vec((0u32..100, 0u32..100), 0..60),
        by_pairs in proptest::collection::vec((0u32..100, 0u32..100), 0..40),
        rate_seed in 0u64..1000,
    ) {
        let g = random_data_graph(papers, authors, &cite_pairs, &by_pairs);
        let tg = TransferGraph::build(&g);
        prop_assert_eq!(tg.transfer_edge_count(), 2 * g.edge_count());

        // Derive four pseudo-random rates in [0, 0.25] so sums stay <= 1.
        let mut rates = TransferRates::zero(g.schema());
        let mut x = rate_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for et in g.schema().edge_types() {
            for tt in [TransferTypeId::forward(et), TransferTypeId::backward(et)] {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = ((x >> 33) % 1000) as f64 / 4000.0;
                rates.set(tt, r).unwrap();
            }
        }
        rates.validate(g.schema()).unwrap();
        let w = tg.weights(&rates);

        for node in 0..tg.node_count() {
            let node = NodeId::from_usize(node);
            let mut per_type = std::collections::HashMap::new();
            for (_, e) in tg.out_transfer(node) {
                *per_type.entry(tg.edge_transfer_type(e)).or_insert(0.0) += w[e];
            }
            for (tt, sum) in per_type {
                prop_assert!((sum - rates.get(tt)).abs() < 1e-9,
                    "type {:?} sums to {} not {}", tt, sum, rates.get(tt));
            }
        }
    }

    /// In-transfer adjacency is the exact reverse of out-transfer adjacency.
    #[test]
    fn transfer_in_is_reverse_of_out(
        papers in 1usize..15,
        cite_pairs in proptest::collection::vec((0u32..50, 0u32..50), 0..40),
    ) {
        let g = random_data_graph(papers, 1, &cite_pairs, &[]);
        let tg = TransferGraph::build(&g);
        let mut out_set = std::collections::HashSet::new();
        let mut in_set = std::collections::HashSet::new();
        for v in 0..tg.node_count() {
            let v = NodeId::from_usize(v);
            for (dst, e) in tg.out_transfer(v) {
                out_set.insert((v, dst, e));
            }
            for (src, e) in tg.in_transfer(v) {
                in_set.insert((src, v, e));
            }
        }
        prop_assert_eq!(out_set, in_set);
    }

    /// The in-slot alpha the power sweep reads, `class_alpha` through the
    /// live in-slices' class ids, is the edge-indexed weights gathered
    /// into slot order, bit for bit, and `0.0` for padding slots; the
    /// live slices hold exactly the edges of nonzero weight, once each;
    /// both are the class table's alpha, and
    /// that is Equation 1 recomputed from scratch,
    /// `rate(type) * (1.0 / OutDeg(src, type))` with OutDeg counted from
    /// `out_transfer`, bit for bit; and Equation 1's per-type identity
    /// holds. For any rates: zero ones included, and after
    /// `ensure_bidirectional` fills them.
    #[test]
    fn slot_aligned_weights_are_the_gathered_edge_weights(
        papers in 1usize..20,
        authors in 1usize..10,
        cite_pairs in proptest::collection::vec((0u32..100, 0u32..100), 0..60),
        by_pairs in proptest::collection::vec((0u32..100, 0u32..100), 0..40),
        dense in proptest::collection::vec(prop_oneof![Just(0.0), 0.0f64..0.25], 4..5),
        bidirectional in any::<bool>(),
    ) {
        let g = random_data_graph(papers, authors, &cite_pairs, &by_pairs);
        let tg = TransferGraph::build(&g);
        let mut rates = TransferRates::from_dense(g.schema(), dense).unwrap();
        if bidirectional {
            rates.ensure_bidirectional(1e-4);
        }
        rates.validate(g.schema()).unwrap();
        let edge_indexed = tg.weights(&rates);
        let mut class_alpha = tg.class_alpha(&rates);
        class_alpha.push(0.0);
        let live = tg.live_edges(&class_alpha);
        let slices = live.in_slices();
        let mut held: Vec<u32> =
            slices.edges().iter().copied().filter(|&e| e != PAD_EDGE).collect();
        held.sort_unstable();
        let nonzero: Vec<u32> = (0..tg.transfer_edge_count() as u32)
            .filter(|&e| edge_indexed[e as usize] != 0.0)
            .collect();
        prop_assert_eq!(held, nonzero);
        let in_slot = |per_edge: &[f64]| -> Vec<u64> {
            let at = |e: u32| if e == PAD_EDGE { 0.0 } else { per_edge[e as usize] };
            slices.edges().iter().map(|&e| at(e).to_bits()).collect()
        };
        let gathered = in_slot(&edge_indexed);
        let through_classes: Vec<u64> = slices
            .classes()
            .iter()
            .map(|&c| class_alpha[c as usize].to_bits())
            .collect();
        prop_assert_eq!(&through_classes, &gathered);
        prop_assert!(tg.verify_weight_invariant(&rates));

        let mut eq1 = vec![f64::NAN; tg.transfer_edge_count()];
        for node in 0..tg.node_count() {
            let out: Vec<usize> = tg.out_transfer(NodeId::from_usize(node)).map(|(_, e)| e).collect();
            for &e in &out {
                // The class table's type is the data edge's, oriented.
                let tt = tg.edge_transfer_type(e);
                let rec = g.edge(tg.edge_origin(e));
                prop_assert_eq!(tt.edge_type, rec.edge_type);
                let oriented = match tt.direction {
                    Direction::Forward => (rec.source, rec.target),
                    Direction::Backward => (rec.target, rec.source),
                };
                prop_assert_eq!(tg.edge_endpoints(e), oriented);
                let out_deg = out.iter().filter(|&&f| tg.edge_transfer_type(f) == tt).count();
                eq1[e] = rates.get(tt) * (1.0 / out_deg as f64);
            }
        }
        let by_class: Vec<u64> = tg
            .edge_classes()
            .iter()
            .map(|&c| class_alpha[c as usize].to_bits())
            .collect();
        let scratch: Vec<u64> = eq1.iter().map(|a| a.to_bits()).collect();
        prop_assert_eq!(&by_class, &scratch);
        let edge_order: Vec<u64> = edge_indexed.iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(&edge_order, &scratch);
        prop_assert_eq!(through_classes, in_slot(&eq1));
    }

    /// The in-slices hold every transfer edge exactly once, under its
    /// target's lane, with its source; each row's slots are in ascending
    /// edge order and padding sits only at a lane's tail; `in_transfer`
    /// yields exactly the edges whose target is that node, in ascending
    /// order. The graphs have empty rows, node counts that are not a
    /// multiple of 4 or of the window (a few span two windows), and hub
    /// rows longer than every other row of their chunk.
    #[test]
    fn slices_hold_every_transfer_edge_once_in_ascending_order(
        papers in prop_oneof![1usize..40, WINDOW_ROWS - 3..WINDOW_ROWS + 9],
        cite_pairs in proptest::collection::vec((0u32..5000, 0u32..5000), 0..80),
        hub_citers in 0usize..30,
    ) {
        let hubs: Vec<(u32, u32)> = (0..hub_citers as u32).map(|s| (s + 1, 0)).collect();
        let pairs: Vec<(u32, u32)> = cite_pairs.into_iter().chain(hubs).collect();
        let g = random_data_graph(papers, 1, &pairs, &[]);
        let tg = TransferGraph::build(&g);
        let all = tg.all_edges();
        let slices = all.in_slices();
        let n = tg.node_count();
        let edge_count = tg.transfer_edge_count();
        prop_assert_eq!(slices.chunk_count(), n.div_ceil(CHUNK_ROWS));

        let mut seen = vec![false; edge_count];
        for c in 0..slices.chunk_count() {
            let slots = slices.chunk_slots(c);
            for (lane, row) in slices.chunk_rows(c).into_iter().enumerate() {
                let lane_slots: Vec<usize> =
                    (slots.start + lane..slots.end).step_by(CHUNK_ROWS).collect();
                let edges: Vec<u32> = lane_slots.iter().map(|&s| slices.edges()[s]).collect();
                let real = edges.iter().take_while(|&&e| e != PAD_EDGE).count();
                prop_assert!(edges[real..].iter().all(|&e| e == PAD_EDGE), "padding is a tail");
                if row == NO_ROW {
                    prop_assert_eq!(real, 0);
                    continue;
                }
                prop_assert!(edges[..real].windows(2).all(|p| p[0] < p[1]), "ascending edges");
                prop_assert!(slices.lane(row as usize).eq(lane_slots[..real].iter().copied()));
                for &slot in &lane_slots[..real] {
                    let e = slices.edges()[slot] as usize;
                    prop_assert!(!std::mem::replace(&mut seen[e], true), "edge {} twice", e);
                    let (src, dst) = tg.edge_endpoints(e);
                    prop_assert_eq!(dst.raw(), row);
                    prop_assert_eq!(slices.sources()[slot], src.raw());
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every edge has a slot");

        for node in 0..n {
            let want: Vec<(NodeId, usize)> = (0..edge_count)
                .filter(|&e| tg.edge_endpoints(e).1.index() == node)
                .map(|e| (tg.edge_endpoints(e).0, e))
                .collect();
            let got: Vec<(NodeId, usize)> = tg.in_transfer(NodeId::from_usize(node)).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Conformance re-verification succeeds for builder-constructed graphs.
    #[test]
    fn builder_graphs_conform(
        papers in 1usize..15,
        authors in 1usize..8,
        cite_pairs in proptest::collection::vec((0u32..50, 0u32..50), 0..30),
        by_pairs in proptest::collection::vec((0u32..50, 0u32..50), 0..20),
    ) {
        let g = random_data_graph(papers, authors, &cite_pairs, &by_pairs);
        prop_assert!(g.verify_conformance().is_ok());
    }
}
