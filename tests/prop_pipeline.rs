//! Cross-crate property tests: random small graphs + random queries must
//! uphold the paper's structural invariants end to end.

use orex::authority::{object_rank2, power_iteration, BaseSet, RankParams, TransitionMatrix};
use orex::explain::{ExplainParams, Explanation};
use orex::graph::{
    DataGraph, DataGraphBuilder, NodeId, SchemaGraph, TransferGraph, TransferRates, TransferTypeId,
};
use orex::ir::{Analyzer, IndexBuilder, InvertedIndex, Okapi, QueryVector};
use orex::reformulate::{edge_type_flows, structure_reformulate, StructureParams};
use proptest::prelude::*;

/// Builds a random two-type labeled graph with text drawn from a tiny
/// vocabulary (so base sets are non-trivial).
fn random_setup(
    papers: usize,
    cite_pairs: &[(u32, u32)],
    title_seed: &[u8],
) -> (DataGraph, TransferRates, TransferGraph, InvertedIndex) {
    const WORDS: [&str; 6] = ["olap", "cube", "mining", "graph", "stream", "join"];
    let mut schema = SchemaGraph::new();
    let p = schema.add_node_type("Paper").unwrap();
    let cites = schema.add_edge_type(p, p, "cites").unwrap();
    let mut b = DataGraphBuilder::new(schema);
    let nodes: Vec<_> = (0..papers)
        .map(|i| {
            let w1 = WORDS[title_seed[i % title_seed.len()] as usize % WORDS.len()];
            let w2 = WORDS[(i * 7 + 3) % WORDS.len()];
            let title = format!("{w1} {w2} paper {i}");
            b.add_node_with(p, &[("Title", title.as_str())]).unwrap()
        })
        .collect();
    for &(s, t) in cite_pairs {
        let s = s as usize % papers;
        let t = t as usize % papers;
        if s != t {
            b.add_edge(nodes[s], nodes[t], cites).unwrap();
        }
    }
    let g = b.freeze();
    let mut rates = TransferRates::zero(g.schema());
    rates.set(TransferTypeId::forward(cites), 0.7).unwrap();
    rates.set(TransferTypeId::backward(cites), 0.1).unwrap();
    let tg = TransferGraph::build(&g);
    let mut ib = IndexBuilder::new(Analyzer::new());
    for node in g.nodes() {
        ib.add_document(node.raw(), &g.node_text(node));
    }
    let idx = ib.build();
    (g, rates, tg, idx)
}

fn tight() -> RankParams {
    RankParams {
        epsilon: 1e-13,
        max_iterations: 5000,
        threads: 1,
        ..RankParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ObjectRank2 scores are a sub-probability vector and the ranking is
    /// invariant to warm starts.
    #[test]
    fn objectrank2_invariants(
        papers in 4usize..24,
        cite_pairs in proptest::collection::vec((0u32..40, 0u32..40), 1..80),
        title_seed in proptest::collection::vec(0u8..6, 1..8),
    ) {
        let (_, rates, tg, idx) = random_setup(papers, &cite_pairs, &title_seed);
        let m = TransitionMatrix::new(&tg, &rates);
        let q = QueryVector::from_weights([("olap", 1.0)]);
        let Ok(cold) = object_rank2(&m, &idx, &q, &Okapi::default(), &tight(), None) else {
            return Ok(()); // vocabulary roll produced no matching doc
        };
        let sum: f64 = cold.scores.iter().sum();
        prop_assert!(sum > 0.0 && sum <= 1.0 + 1e-9);
        prop_assert!(cold.scores.iter().all(|&s| s >= 0.0 && s.is_finite()));

        // Warm-start from a perturbed copy reaches the same fixpoint.
        let perturbed: Vec<f64> = cold.scores.iter().map(|&s| s * 0.9 + 1e-4).collect();
        let warm = object_rank2(&m, &idx, &q, &Okapi::default(), &tight(), Some(&perturbed)).unwrap();
        for (a, b) in cold.scores.iter().zip(&warm.scores) {
            prop_assert!((a - b).abs() < 1e-8, "fixpoint must be unique: {a} vs {b}");
        }
    }

    /// Explanation invariants: h factors in [0, 1], adjusted <= original
    /// flow, target inflow <= target score, every subgraph edge's alpha
    /// positive.
    #[test]
    fn explanation_invariants(
        papers in 4usize..20,
        cite_pairs in proptest::collection::vec((0u32..30, 0u32..30), 2..60),
        title_seed in proptest::collection::vec(0u8..6, 1..8),
        target_roll in 0usize..20,
    ) {
        let (_, rates, tg, idx) = random_setup(papers, &cite_pairs, &title_seed);
        let m = TransitionMatrix::new(&tg, &rates);
        let q = QueryVector::from_weights([("olap", 1.0)]);
        let Ok(result) = object_rank2(&m, &idx, &q, &Okapi::default(), &tight(), None) else {
            return Ok(());
        };
        let base = BaseSet::weighted(idx.base_set_scores(&q, &Okapi::default())).unwrap();
        let target = NodeId::from_usize(target_roll % papers);
        let Ok(expl) = Explanation::explain(
            &tg, &rates, &result.scores, base.nodes(), target,
            &ExplainParams { epsilon: 1e-12, ..ExplainParams::default() },
        ) else {
            return Ok(()); // unreachable target is a legal outcome
        };
        prop_assert!(expl.converged());
        for node in expl.nodes() {
            let h = expl.reduction_factor(node).unwrap();
            prop_assert!((0.0..=1.0 + 1e-9).contains(&h), "h({node}) = {h}");
        }
        for e in expl.edges() {
            prop_assert!(e.alpha > 0.0);
            prop_assert!(e.adjusted_flow <= e.original_flow + 1e-12);
            prop_assert!(e.adjusted_flow >= 0.0);
        }
        let inflow = expl.target_inflow();
        let score = result.scores[target.index()];
        prop_assert!(inflow <= score + 1e-8, "inflow {inflow} > score {score}");
    }

    /// Structure reformulation always yields valid rates, for any flow
    /// vector and any C_f.
    #[test]
    fn structure_reformulation_stays_valid(
        papers in 4usize..16,
        cite_pairs in proptest::collection::vec((0u32..20, 0u32..20), 2..40),
        title_seed in proptest::collection::vec(0u8..6, 1..8),
        cf_percent in 1u8..=100,
        target_roll in 0usize..16,
    ) {
        let (g, rates, tg, idx) = random_setup(papers, &cite_pairs, &title_seed);
        let m = TransitionMatrix::new(&tg, &rates);
        let q = QueryVector::from_weights([("olap", 1.0), ("cube", 0.5)]);
        let Ok(result) = object_rank2(&m, &idx, &q, &Okapi::default(), &tight(), None) else {
            return Ok(());
        };
        let base = BaseSet::weighted(idx.base_set_scores(&q, &Okapi::default())).unwrap();
        let target = NodeId::from_usize(target_roll % papers);
        let Ok(expl) = Explanation::explain(
            &tg, &rates, &result.scores, base.nodes(), target, &ExplainParams::default(),
        ) else {
            return Ok(());
        };
        let flows = edge_type_flows(&expl, &tg);
        let new = structure_reformulate(
            &rates,
            &flows,
            g.schema(),
            &StructureParams::unpruned(cf_percent as f64 / 100.0),
        );
        prop_assert!(new.validate(g.schema()).is_ok());
    }

    /// The power iteration over any validated rates contracts: residuals
    /// are eventually monotonically non-increasing.
    #[test]
    fn residual_contraction(
        papers in 3usize..16,
        cite_pairs in proptest::collection::vec((0u32..20, 0u32..20), 1..40),
    ) {
        let (_, rates, tg, _) = random_setup(papers, &cite_pairs, &[1]);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::global(papers).unwrap();
        let res = power_iteration(&m, &base, &tight(), None);
        prop_assert!(res.converged);
        // Skip the first couple of transient steps.
        for w in res.residuals.windows(2).skip(2) {
            prop_assert!(w[1] <= w[0] * (1.0 + 1e-9), "{:?}", res.residuals);
        }
    }
}
