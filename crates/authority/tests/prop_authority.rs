//! Property-based tests for the ranking engines: Equation 4 fixpoint
//! identities, damping behaviour, top-k consistency, HITS invariants.

use orex_authority::{
    base_subgraph, hits, power_iteration, power_iteration_batch, top_k, BaseSet, HitsParams,
    RankParams, TransitionMatrix,
};
use orex_graph::{
    DataGraphBuilder, NodeId, SchemaGraph, TransferGraph, TransferRates, TransferTypeId,
};
use proptest::prelude::*;

fn build_graph(
    n: usize,
    edges: &[(u32, u32)],
    fwd: f64,
    bwd: f64,
) -> (TransferGraph, TransferRates) {
    let mut schema = SchemaGraph::new();
    let p = schema.add_node_type("P").unwrap();
    let r = schema.add_edge_type(p, p, "r").unwrap();
    let mut b = DataGraphBuilder::new(schema);
    let nodes: Vec<_> = (0..n).map(|_| b.add_node(p, vec![]).unwrap()).collect();
    for &(s, t) in edges {
        b.add_edge(nodes[s as usize % n], nodes[t as usize % n], r)
            .unwrap();
    }
    let g = b.freeze();
    let mut rates = TransferRates::zero(g.schema());
    rates.set(TransferTypeId::forward(r), fwd).unwrap();
    rates.set(TransferTypeId::backward(r), bwd).unwrap();
    (TransferGraph::build(&g), rates)
}

fn tight() -> RankParams {
    RankParams {
        epsilon: 1e-13,
        max_iterations: 10_000,
        threads: 1,
        ..RankParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// At the fixpoint, every component satisfies Equation 4 and the
    /// total mass is in (0, 1].
    #[test]
    fn equation4_holds_componentwise(
        n in 2usize..20,
        edges in proptest::collection::vec((0u32..30, 0u32..30), 0..60),
        base_node in 0u32..20,
        fwd_pct in 10u8..=45,
        bwd_pct in 0u8..=45,
    ) {
        let fwd = fwd_pct as f64 / 100.0;
        let bwd = bwd_pct as f64 / 100.0;
        let (tg, rates) = build_graph(n, &edges, fwd, bwd);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([base_node % n as u32]).unwrap();
        let res = power_iteration(&m, &base, &tight(), None);
        prop_assert!(res.converged);
        let w = tg.weights(&rates);
        let d = 0.85;
        for i in 0..n {
            let mut acc = 0.0;
            for (src, e) in tg.in_transfer(NodeId::from_usize(i)) {
                acc += w[e] * res.scores[src.index()];
            }
            let expect = d * acc + (1.0 - d) * base.probability(i as u32);
            prop_assert!((res.scores[i] - expect).abs() < 1e-9,
                "node {i}: {} vs {}", res.scores[i], expect);
        }
        let sum: f64 = res.scores.iter().sum();
        prop_assert!(sum > 0.0 && sum <= 1.0 + 1e-9, "mass {sum}");
    }

    /// Lower damping keeps more mass at the base set.
    #[test]
    fn damping_controls_base_concentration(
        n in 2usize..15,
        edges in proptest::collection::vec((0u32..20, 0u32..20), 1..40),
    ) {
        let (tg, rates) = build_graph(n, &edges, 0.4, 0.1);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let low = power_iteration(&m, &base, &RankParams { damping: 0.3, ..tight() }, None);
        let high = power_iteration(&m, &base, &RankParams { damping: 0.9, ..tight() }, None);
        prop_assert!(low.scores[0] >= high.scores[0] - 1e-9,
            "base mass should grow as damping falls: {} vs {}",
            low.scores[0], high.scores[0]);
    }

    /// top_k is consistent with the raw scores for any k.
    #[test]
    fn top_k_agrees_with_scores(
        n in 1usize..15,
        edges in proptest::collection::vec((0u32..20, 0u32..20), 0..40),
        k in 0usize..20,
    ) {
        let (tg, rates) = build_graph(n, &edges, 0.5, 0.1);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::global(n).unwrap();
        let res = power_iteration(&m, &base, &tight(), None);
        let ranked = top_k(&res.scores, k, 0.0);
        prop_assert!(ranked.len() <= k);
        // Every reported entry outranks every non-reported node.
        let reported: std::collections::HashSet<u32> =
            ranked.iter().map(|r| r.node).collect();
        if let Some(worst) = ranked.last() {
            for (node, &score) in res.scores.iter().enumerate() {
                if !reported.contains(&(node as u32)) && score > 0.0 {
                    prop_assert!(
                        score < worst.score
                            || (score == worst.score && node as u32 > worst.node)
                            || ranked.len() < k,
                        "missed better node {node}"
                    );
                }
            }
        }
    }

    /// HITS vectors stay L2-normalized and non-negative on any graph
    /// with at least one edge.
    #[test]
    fn hits_invariants(
        n in 2usize..15,
        edges in proptest::collection::vec((0u32..20, 0u32..20), 1..40),
    ) {
        let (tg, _) = build_graph(n, &edges, 0.5, 0.0);
        let res = hits(&tg, None, &HitsParams::default());
        for &a in res.authorities.iter().chain(&res.hubs) {
            prop_assert!(a >= 0.0 && a.is_finite());
        }
        let na: f64 = res.authorities.iter().map(|x| x * x).sum();
        // Norm is 1 unless the graph has no intact edge structure.
        prop_assert!((na - 1.0).abs() < 1e-6 || na == 0.0);
    }

    /// The batched kernel is bit-identical to running each base set
    /// through its own power iteration, for any graph, base-set mix and
    /// thread count: same scores, same iteration counts, same residuals.
    #[test]
    fn batch_bitwise_equals_independent_runs(
        n in 2usize..16,
        edges in proptest::collection::vec((0u32..16, 0u32..16), 1..40),
        bases in proptest::collection::vec(
            proptest::collection::vec((0u32..16, 0.1f64..10.0), 1..4),
            1..5,
        ),
        threads in 1usize..4,
        fwd_pct in 10u8..=45,
        bwd_pct in 0u8..=45,
    ) {
        let (tg, rates) = build_graph(n, &edges, fwd_pct as f64 / 100.0, bwd_pct as f64 / 100.0);
        let m = TransitionMatrix::new(&tg, &rates);
        let params = RankParams {
            threads,
            ..RankParams::default()
        };
        let base_sets: Vec<BaseSet> = bases
            .iter()
            .map(|ws| {
                BaseSet::weighted(ws.iter().map(|&(i, w)| (i % n as u32, w))).unwrap()
            })
            .collect();
        let batched = power_iteration_batch(&m, &base_sets, &params, None);
        prop_assert_eq!(batched.len(), base_sets.len());
        for (base, batch) in base_sets.iter().zip(&batched) {
            let solo = power_iteration(&m, base, &params, None);
            prop_assert_eq!(batch.iterations, solo.iterations);
            prop_assert_eq!(batch.converged, solo.converged);
            prop_assert_eq!(batch.residuals.len(), solo.residuals.len());
            for (b, s) in batch.residuals.iter().zip(&solo.residuals) {
                prop_assert_eq!(b.to_bits(), s.to_bits());
            }
            for (b, s) in batch.scores.iter().zip(&solo.scores) {
                prop_assert_eq!(b.to_bits(), s.to_bits());
            }
        }
    }

    /// The base subgraph always contains its roots and only valid nodes.
    #[test]
    fn base_subgraph_sane(
        n in 1usize..15,
        edges in proptest::collection::vec((0u32..20, 0u32..20), 0..30),
        root in 0u32..15,
    ) {
        let (tg, _) = build_graph(n, &edges, 0.5, 0.1);
        let root = root % n as u32;
        let sub = base_subgraph(&tg, &[root]);
        prop_assert!(sub.contains(&root));
        for &node in &sub {
            prop_assert!((node as usize) < n);
        }
        // Sorted and unique.
        for w in sub.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }
}
