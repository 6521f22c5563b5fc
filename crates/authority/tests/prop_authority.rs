//! Property-based tests for the ranking engines: Equation 4 fixpoint
//! identities, the contraction bound on a stopped run's error, damping
//! behaviour, top-k consistency, HITS invariants, the
//! class-table kernel over the in-slices against a pull straight from
//! the edge list, and the live-edge layout against the layout of every
//! edge.

use orex_authority::{
    base_subgraph, hits, power_iteration, top_k, BaseSet, HitsParams, RankParams, RankResult,
    TransitionMatrix,
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
    build_fanned_graph(n, edges, 0, fwd, bwd)
}

/// `build_graph` plus a fan of `fan` extra nodes, each citing one of the
/// first `n` nodes and its predecessor in the fan: a second window of
/// in-slices, so a second thread range, once `n + fan` passes 4,096.
fn build_fanned_graph(
    n: usize,
    edges: &[(u32, u32)],
    fan: usize,
    fwd: f64,
    bwd: f64,
) -> (TransferGraph, TransferRates) {
    let mut schema = SchemaGraph::new();
    let p = schema.add_node_type("P").unwrap();
    let r = schema.add_edge_type(p, p, "r").unwrap();
    let mut b = DataGraphBuilder::new(schema);
    let nodes: Vec<_> = (0..n + fan)
        .map(|_| b.add_node(p, vec![]).unwrap())
        .collect();
    for &(s, t) in edges {
        b.add_edge(nodes[s as usize % n], nodes[t as usize % n], r)
            .unwrap();
    }
    for j in 0..fan {
        b.add_edge(nodes[n + j], nodes[j % n], r).unwrap();
        if j > 0 {
            b.add_edge(nodes[n + j], nodes[n + j - 1], r).unwrap();
        }
    }
    let g = b.freeze();
    let mut rates = TransferRates::zero(g.schema());
    rates.set(TransferTypeId::forward(r), fwd).unwrap();
    rates.set(TransferTypeId::backward(r), bwd).unwrap();
    (TransferGraph::build(&g), rates)
}

/// The reference kernel: Equation 4 by Jacobi sweeps in which each row
/// sums `edge_weights[e] * r[src(e)]` over the edges into it in ascending
/// edge id, read straight from the edge list with no in-adjacency, with
/// the engine's residual and stopping rule.
fn reference_rank(
    tg: &TransferGraph,
    edge_weights: &[f64],
    base: &BaseSet,
    params: &RankParams,
) -> RankResult {
    let n = tg.node_count();
    let ends: Vec<(usize, usize)> = (0..edge_weights.len())
        .map(|e| tg.edge_endpoints(e))
        .map(|(src, dst)| (src.index(), dst.index()))
        .collect();
    let d = params.damping;
    let mut jump = base.to_dense(n);
    for p in &mut jump {
        *p *= 1.0 - d;
    }
    let mut r = base.to_dense(n);
    let mut r_new = vec![0.0; n];
    let mut residuals = Vec::new();
    let mut converged = false;
    for _ in 0..params.max_iterations {
        let mut acc = vec![0.0; n];
        for (&(src, dst), w) in ends.iter().zip(edge_weights) {
            acc[dst] += w * r[src];
        }
        for ((out, acc), jump) in r_new.iter_mut().zip(acc).zip(&jump) {
            *out = d * acc + jump;
        }
        let residual: f64 = r_new.iter().zip(&r).map(|(&a, &b)| (a - b).abs()).sum();
        residuals.push(residual);
        std::mem::swap(&mut r, &mut r_new);
        if residual < params.epsilon {
            converged = true;
            break;
        }
    }
    RankResult {
        scores: r,
        iterations: residuals.len(),
        converged,
        residuals,
    }
}

/// A fan size: none in three cases of four, else enough nodes for a
/// second window of in-slices.
fn second_window() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(0usize), Just(0usize), 4100usize..4400]
}

/// Scores and residuals as bit patterns, plus the iteration count and
/// convergence flag: what "bit for bit" compares.
fn bits(r: &RankResult) -> (Vec<u64>, Vec<u64>, usize, bool) {
    (
        r.scores.iter().map(|v| v.to_bits()).collect(),
        r.residuals.iter().map(|v| v.to_bits()).collect(),
        r.iterations,
        r.converged,
    )
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

    /// With `‖A‖₁ ≤ 1` (forward + backward rate at most 1) Equation 4
    /// contracts in L1 by `d`, so a run stopped at the paper's ε (or a
    /// tighter one) is within `d/(1−d)` times its last residual of the
    /// fixpoint: `‖r* − r_t‖₁ ≤ d/(1−d)·‖r_t − r_{t−1}‖₁`.
    #[test]
    fn stopped_run_is_within_the_contraction_bound_of_the_fixpoint(
        n in 2usize..25,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
        base in proptest::collection::vec((0u32..25, 0.1f64..10.0), 1..5),
        fwd_pct in 0u8..=100,
        bwd_share in 0u8..=100,
        tight_epsilon in any::<bool>(),
    ) {
        let fwd = f64::from(fwd_pct) / 100.0;
        let bwd = (1.0 - fwd) * f64::from(bwd_share) / 100.0;
        let (tg, rates) = build_graph(n, &edges, fwd, bwd);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::weighted(base.iter().map(|&(i, w)| (i % n as u32, w))).unwrap();
        let epsilon = if tight_epsilon { 1e-4 } else { 0.002 };
        let params = RankParams { epsilon, threads: 1, ..RankParams::default() };
        let stopped = power_iteration(&m, &base, &params, None);
        let fixpoint = power_iteration(&m, &base, &tight(), None);
        prop_assert!(stopped.converged && fixpoint.converged);
        let d = params.damping;
        let bound = d / (1.0 - d) * stopped.residuals.last().copied().unwrap_or(0.0);
        let error: f64 = stopped
            .scores
            .iter()
            .zip(&fixpoint.scores)
            .map(|(a, b)| (a - b).abs())
            .sum();
        prop_assert!(error <= bound + 1e-9, "L1 error {error} > bound {bound}");
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

    /// The class-table kernel over the in-slices ranks exactly as the
    /// edge-list reference: scores, residuals and iteration counts bit for
    /// bit, at 1, 2 and 3 threads, for a matrix from rates and one from
    /// `from_edge_weights(tg.weights(r))`. Rates may be zero, and
    /// `ensure_bidirectional` may fill the zeros.
    #[test]
    fn class_kernel_ranks_like_a_gathered_alpha_pull(
        n in 1usize..16,
        edges in proptest::collection::vec((0u32..16, 0u32..16), 0..40),
        fan in second_window(),
        bases in proptest::collection::vec(
            proptest::collection::vec((0u32..16, 0.1f64..10.0), 1..4),
            1..4,
        ),
        fwd_pct in prop_oneof![Just(0u8), 1u8..=45],
        bwd_pct in prop_oneof![Just(0u8), 1u8..=45],
        bidirectional in any::<bool>(),
    ) {
        let (tg, mut rates) =
            build_fanned_graph(n, &edges, fan, fwd_pct as f64 / 100.0, bwd_pct as f64 / 100.0);
        if bidirectional {
            rates.ensure_bidirectional(1e-4);
        }
        let weights = tg.weights(&rates);
        let base_sets: Vec<BaseSet> = bases
            .iter()
            .map(|ws| {
                BaseSet::weighted(ws.iter().map(|&(i, w)| (i % n as u32, w))).unwrap()
            })
            .collect();
        let params = RankParams {
            epsilon: 1e-9,
            max_iterations: 300,
            ..RankParams::default()
        };
        let want: Vec<_> = base_sets
            .iter()
            .map(|base| bits(&reference_rank(&tg, &weights, base, &params)))
            .collect();
        for m in [
            TransitionMatrix::new(&tg, &rates),
            TransitionMatrix::from_edge_weights(&tg, weights.clone()),
        ] {
            for threads in 1..=3 {
                let params = RankParams { threads, ..params };
                for (base, want) in base_sets.iter().zip(&want) {
                    let got = bits(&power_iteration(&m, base, &params, None));
                    prop_assert_eq!(&got, want, "{} threads", threads);
                }
            }
        }
    }

    /// Zero rates drop their edges from the layout a matrix from rates
    /// sweeps, and nothing else changes: on random schema graphs with at
    /// least one zero-rate type, `power_iteration` on the live layout
    /// equals it on the layout of every edge (`from_edge_weights`), bit
    /// for bit in scores, residuals and iteration count, on one thread
    /// and on two (two thread ranges once the fan adds a second window).
    #[test]
    fn live_layout_ranks_like_the_layout_of_every_edge(
        type_rolls in proptest::collection::vec((0usize..3, 0usize..3), 1..5),
        node_types in proptest::collection::vec(0usize..3, 2..30),
        edge_rolls in proptest::collection::vec((0u32..64, 0u32..64, 0usize..8), 1..80),
        rate_rolls in proptest::collection::vec(prop_oneof![Just(0u8), 1u8..=100], 10..11),
        zero_roll in 0usize..10,
        fan in second_window(),
        base in proptest::collection::vec((0u32..64, 0.1f64..10.0), 1..4),
    ) {
        let mut schema = SchemaGraph::new();
        let types: Vec<_> = (0..3)
            .map(|t| schema.add_node_type(format!("T{t}")).unwrap())
            .collect();
        let edge_types: Vec<_> = type_rolls
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| schema.add_edge_type(types[s], types[t], format!("e{i}")).unwrap())
            .collect();
        let mut b = DataGraphBuilder::new(schema);
        let mut by_type: Vec<Vec<NodeId>> = vec![Vec::new(); 3];
        for (i, &t) in node_types.iter().enumerate() {
            // Every node type gets a node.
            let t = if i < 3 { i } else { t };
            by_type[t].push(b.add_node(types[t], vec![]).unwrap());
        }
        for &(s, t, ty) in &edge_rolls {
            let ty = ty % edge_types.len();
            let (src, dst) = (&by_type[type_rolls[ty].0], &by_type[type_rolls[ty].1]);
            let (src, dst) = (src[s as usize % src.len()], dst[t as usize % dst.len()]);
            b.add_edge(src, dst, edge_types[ty]).unwrap();
        }
        // The fan: nodes of the first edge type's source type, each linked
        // to a node of its target type.
        let (fan_src, fan_dst) = type_rolls[0];
        for j in 0..fan {
            let node = b.add_node(types[fan_src], vec![]).unwrap();
            let targets = &by_type[fan_dst];
            b.add_edge(node, targets[j % targets.len()], edge_types[0]).unwrap();
        }
        let g = b.freeze();
        let rate_count = 2 * edge_types.len();
        let mut dense: Vec<f64> =
            rate_rolls[..rate_count].iter().map(|&r| f64::from(r) / 100.0).collect();
        dense[zero_roll % rate_count] = 0.0;
        let mut rates = TransferRates::from_dense(g.schema(), dense).unwrap();
        rates.rescale_outgoing(g.schema());
        rates.validate(g.schema()).unwrap();
        prop_assert!(rates.as_slice().contains(&0.0));

        let tg = TransferGraph::build(&g);
        let n = tg.node_count() as u32;
        let base = BaseSet::weighted(base.iter().map(|&(i, w)| (i % n, w))).unwrap();
        let live = TransitionMatrix::new(&tg, &rates);
        let every = TransitionMatrix::from_edge_weights(&tg, tg.weights(&rates));
        let dead_edges = tg.weights(&rates).contains(&0.0);
        prop_assert_eq!(
            !tg.live_edges(&tg.class_alpha(&rates)).same_layout(&tg.all_edges()),
            dead_edges
        );
        let params = RankParams { epsilon: 1e-9, max_iterations: 300, ..RankParams::default() };
        for threads in 1..=2 {
            let params = RankParams { threads, ..params };
            let want = bits(&power_iteration(&every, &base, &params, None));
            let got = bits(&power_iteration(&live, &base, &params, None));
            prop_assert_eq!(got, want, "{} threads", threads);
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
