//! The ranking algorithms of the paper and its baselines.
//!
//! - [`object_rank2`]: the paper's ranker (Section 3) — weighted base set
//!   from IR scores, Equation 4;
//! - [`object_rank`]: the original ObjectRank of Balmin et al. (VLDB 2004)
//!   — uniform (0/1) base set over nodes containing a query term;
//! - [`modified_object_rank`]: the multi-keyword comparison baseline of
//!   Section 6.1.1, Equation 16 — per-keyword runs combined by a product
//!   with normalizing exponents `g(t) = 1 / log(|S(t)|)`;
//! - [`global_object_rank`]: query-independent ObjectRank over the full
//!   node set, used to seed warm starts for initial queries (Section 6.2);
//! - [`page_rank`]: type-oblivious PageRank on the directed data graph,
//!   the Web baseline the introduction contrasts against.

use crate::base_set::{BaseSet, BaseSetError};
use crate::power::{power_iteration, RankParams, RankResult, TransitionMatrix};
use orex_graph::{Direction, TransferGraph};
use orex_ir::{InvertedIndex, QueryVector, Scorer};
use std::fmt;

/// Errors raised by the high-level rankers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankingError {
    /// The query matched no node: the base set is empty.
    EmptyBaseSet(BaseSetError),
    /// The query vector has no usable terms.
    EmptyQuery,
}

impl fmt::Display for RankingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankingError::EmptyBaseSet(e) => write!(f, "empty base set: {e}"),
            RankingError::EmptyQuery => write!(f, "query has no usable terms"),
        }
    }
}

impl std::error::Error for RankingError {}

impl From<BaseSetError> for RankingError {
    fn from(e: BaseSetError) -> Self {
        RankingError::EmptyBaseSet(e)
    }
}

/// ObjectRank2 (Section 3): the base-set jump probability of each node is
/// proportional to its IR score for the query vector (Equation 2), and the
/// scores follow Equation 4.
///
/// `warm_start` feeds the previous score vector per the Section 6.2
/// optimization.
pub fn object_rank2(
    matrix: &TransitionMatrix<'_>,
    index: &InvertedIndex,
    query: &QueryVector,
    scorer: &dyn Scorer,
    params: &RankParams,
    warm_start: Option<&[f64]>,
) -> Result<RankResult, RankingError> {
    let base = query_base_set(index, query, scorer)?;
    Ok(power_iteration(matrix, &base, params, warm_start))
}

/// The ObjectRank2 base set of a query vector: each matching node
/// weighted by its IR score (Equation 2), normalized. What
/// [`object_rank2`] ranks from.
pub fn query_base_set(
    index: &InvertedIndex,
    query: &QueryVector,
    scorer: &dyn Scorer,
) -> Result<BaseSet, RankingError> {
    if query.is_empty() {
        return Err(RankingError::EmptyQuery);
    }
    let mut span = orex_telemetry::tracer().span("authority.base_set");
    let base = BaseSet::weighted(index.base_set_scores(query, scorer))?;
    if span.is_recording() {
        span.attr_u64("base_set_size", base.len() as u64);
    }
    Ok(base)
}

/// Original ObjectRank (BHP04): same random walk, but every base-set node
/// is jumped to with equal probability (the `s_i ∈ {0, 1}` base set,
/// normalized).
pub fn object_rank(
    matrix: &TransitionMatrix<'_>,
    index: &InvertedIndex,
    query: &QueryVector,
    params: &RankParams,
    warm_start: Option<&[f64]>,
) -> Result<RankResult, RankingError> {
    if query.is_empty() {
        return Err(RankingError::EmptyQuery);
    }
    let mut nodes: Vec<u32> = Vec::new();
    for (term, _) in query.iter() {
        if let Some(tid) = index.term_id(term) {
            nodes.extend(index.postings(tid).iter().map(|p| p.doc));
        }
    }
    let base = BaseSet::uniform(nodes)?;
    Ok(power_iteration(matrix, &base, params, warm_start))
}

/// Query-independent global ObjectRank: uniform base set over all nodes.
pub fn global_object_rank(matrix: &TransitionMatrix<'_>, params: &RankParams) -> RankResult {
    // orex::allow(ORX008): `BaseSet::global` fails only for a
    // zero-node graph, and dataset construction rejects empty graphs
    // before a matrix ever reaches the ranking kernels.
    let base = BaseSet::global(matrix.node_count()).expect("non-empty graph");
    power_iteration(matrix, &base, params, None)
}

/// The modified multi-keyword ObjectRank of Equation 16:
///
/// ```text
/// r(v) = Π_i  r_{t_i}(v) ^ g(t_i),    g(t) = 1 / log |S(t)|
/// ```
///
/// Each keyword gets its own single-keyword ObjectRank run with a uniform
/// base set `S(t_i)`; the normalizing exponent counteracts the skew toward
/// popular keywords. `|S(t)| <= e` clamps the exponent to 1 (the paper does
/// not define `g` for tiny base sets; any fixed positive choice preserves
/// the ranking semantics there).
///
/// Nodes missing from any keyword's reachable set score 0 (product
/// semantics). Keywords absent from the corpus are an error only when
/// *all* are absent.
pub fn modified_object_rank(
    matrix: &TransitionMatrix<'_>,
    index: &InvertedIndex,
    query: &QueryVector,
    params: &RankParams,
) -> Result<RankResult, RankingError> {
    if query.is_empty() {
        return Err(RankingError::EmptyQuery);
    }
    let n = matrix.node_count();
    let mut combined = vec![1.0; n];
    let mut iterations = 0;
    let mut converged = true;
    let mut matched_any = false;
    for (term, _) in query.iter() {
        let Some(tid) = index.term_id(term) else {
            continue;
        };
        let nodes: Vec<u32> = index.postings(tid).iter().map(|p| p.doc).collect();
        let Ok(base) = BaseSet::uniform(nodes) else {
            continue;
        };
        matched_any = true;
        let g = 1.0 / (base.len() as f64).ln().max(1.0);
        let res = power_iteration(matrix, &base, params, None);
        iterations += res.iterations;
        converged &= res.converged;
        for (c, &s) in combined.iter_mut().zip(&res.scores) {
            *c *= s.powf(g);
        }
    }
    if !matched_any {
        return Err(RankingError::EmptyBaseSet(BaseSetError::Empty));
    }
    Ok(RankResult {
        scores: combined,
        iterations,
        converged,
        residuals: Vec::new(),
    })
}

/// Type-oblivious PageRank on the directed data graph: every node spreads
/// its authority equally over its *forward* transfer edges (the original
/// data-graph edges); backward edges carry nothing. The jump vector is
/// uniform over all nodes. The weights take one value per distinct
/// forward out-degree, plus 0, so the matrix classes them into that many
/// classes ([`TransitionMatrix::from_edge_weights`]).
pub fn page_rank(graph: &TransferGraph, params: &RankParams) -> RankResult {
    let n = graph.node_count();
    // Count forward out-degrees.
    let mut fwd_deg = vec![0u32; n];
    for e in 0..graph.transfer_edge_count() {
        if graph.edge_transfer_type(e).direction == Direction::Forward {
            let (src, _) = graph.edge_endpoints(e);
            fwd_deg[src.index()] += 1;
        }
    }
    let weights: Vec<f64> = (0..graph.transfer_edge_count())
        .map(|e| {
            if graph.edge_transfer_type(e).direction == Direction::Forward {
                let (src, _) = graph.edge_endpoints(e);
                1.0 / fwd_deg[src.index()] as f64
            } else {
                0.0
            }
        })
        .collect();
    let matrix = TransitionMatrix::from_edge_weights(graph, weights);
    let base = BaseSet::global(n).expect("non-empty graph");
    power_iteration(&matrix, &base, params, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_graph::{DataGraph, DataGraphBuilder, SchemaGraph, TransferRates, TransferTypeId};
    use orex_ir::{Analyzer, IndexBuilder, Okapi, Query};

    /// Figure-1-like dataset: 4 papers, an author; "olap" appears in two
    /// papers, the "cube" paper is cited by all others but does not
    /// contain "olap".
    fn dataset() -> (DataGraph, TransferRates) {
        let mut schema = SchemaGraph::new();
        let paper = schema.add_node_type("Paper").unwrap();
        let author = schema.add_node_type("Author").unwrap();
        let cites = schema.add_edge_type(paper, paper, "cites").unwrap();
        let by = schema.add_edge_type(paper, author, "by").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let cube = b
            .add_node_with(paper, &[("Title", "Data Cube Relational Aggregation")])
            .unwrap();
        let index_sel = b
            .add_node_with(paper, &[("Title", "Index Selection for OLAP")])
            .unwrap();
        let range_q = b
            .add_node_with(paper, &[("Title", "Range Queries in OLAP Data Cubes")])
            .unwrap();
        let modeling = b
            .add_node_with(paper, &[("Title", "Modeling Multidimensional Databases")])
            .unwrap();
        let agrawal = b.add_node_with(author, &[("Name", "R. Agrawal")]).unwrap();
        b.add_edge(index_sel, cube, cites).unwrap();
        b.add_edge(range_q, cube, cites).unwrap();
        b.add_edge(modeling, cube, cites).unwrap();
        b.add_edge(range_q, modeling, cites).unwrap();
        b.add_edge(range_q, agrawal, by).unwrap();
        b.add_edge(modeling, agrawal, by).unwrap();
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(cites), 0.7).unwrap();
        rates.set(TransferTypeId::forward(by), 0.2).unwrap();
        rates.set(TransferTypeId::backward(by), 0.2).unwrap();
        (g, rates)
    }

    fn index_of(g: &DataGraph) -> orex_ir::InvertedIndex {
        let mut b = IndexBuilder::new(Analyzer::new());
        for node in g.nodes() {
            b.add_document(node.raw(), &g.node_text(node));
        }
        b.build()
    }

    fn params() -> RankParams {
        RankParams {
            epsilon: 1e-10,
            max_iterations: 1000,
            ..RankParams::default()
        }
    }

    #[test]
    fn objectrank2_ranks_cited_paper_without_keyword() {
        let (g, rates) = dataset();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let idx = index_of(&g);
        let q = QueryVector::initial(&Query::parse("olap"), idx.analyzer());
        let res = object_rank2(&m, &idx, &q, &Okapi::default(), &params(), None).unwrap();
        // The "Data Cube" paper (node 0) has no "olap" but receives all
        // citation flow — the headline ObjectRank behaviour.
        assert!(res.scores[0] > 0.0);
        assert!(
            res.scores[0] > res.scores[3],
            "cited hub should outrank a non-matching leaf: {:?}",
            res.scores
        );
    }

    #[test]
    fn objectrank2_differs_from_objectrank_via_weighting() {
        let (g, rates) = dataset();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let idx = index_of(&g);
        let q = QueryVector::initial(&Query::parse("olap data"), idx.analyzer());
        let or2 = object_rank2(&m, &idx, &q, &Okapi::default(), &params(), None).unwrap();
        let or1 = object_rank(&m, &idx, &q, &params(), None).unwrap();
        // Both produce valid rankings, but base-set weighting shifts mass.
        let diff: f64 = or2
            .scores
            .iter()
            .zip(&or1.scores)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "weighted base set should change scores");
    }

    #[test]
    fn empty_query_rejected() {
        let (g, rates) = dataset();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let idx = index_of(&g);
        let q = QueryVector::empty();
        assert!(matches!(
            object_rank2(&m, &idx, &q, &Okapi::default(), &params(), None),
            Err(RankingError::EmptyQuery)
        ));
    }

    #[test]
    fn unmatched_query_gives_empty_base_set() {
        let (g, rates) = dataset();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let idx = index_of(&g);
        let q = QueryVector::from_weights([("zzzz", 1.0)]);
        assert!(matches!(
            object_rank2(&m, &idx, &q, &Okapi::default(), &params(), None),
            Err(RankingError::EmptyBaseSet(_))
        ));
    }

    #[test]
    fn global_object_rank_favors_hub() {
        let (g, rates) = dataset();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let res = global_object_rank(&m, &params());
        // The thrice-cited cube paper accumulates the most authority.
        let best = res
            .scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 0);
    }

    #[test]
    fn modified_object_rank_is_product_of_runs() {
        let (g, rates) = dataset();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let idx = index_of(&g);
        let q = QueryVector::initial(&Query::parse("olap cube"), idx.analyzer());
        let res = modified_object_rank(&m, &idx, &q, &params()).unwrap();
        // Verify against a manual per-keyword computation.
        for term in ["olap", "cube"] {
            assert!(idx.term_id(term).is_some());
        }
        let manual = {
            let mut combined = vec![1.0; g.node_count()];
            for term in ["olap", "cube"] {
                let tid = idx.term_id(term).unwrap();
                let nodes: Vec<u32> = idx.postings(tid).iter().map(|p| p.doc).collect();
                let base = BaseSet::uniform(nodes.clone()).unwrap();
                let g_exp = 1.0 / (nodes.len() as f64).ln().max(1.0);
                let r = power_iteration(&m, &base, &params(), None);
                for (c, &s) in combined.iter_mut().zip(&r.scores) {
                    *c *= s.powf(g_exp);
                }
            }
            combined
        };
        for (a, b) in res.scores.iter().zip(&manual) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn modified_object_rank_skips_unknown_terms() {
        let (g, rates) = dataset();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let idx = index_of(&g);
        let q = QueryVector::from_weights([("olap", 1.0), ("zzzz", 1.0)]);
        assert!(modified_object_rank(&m, &idx, &q, &params()).is_ok());
        let all_unknown = QueryVector::from_weights([("zzzz", 1.0)]);
        assert!(modified_object_rank(&m, &idx, &all_unknown, &params()).is_err());
    }

    #[test]
    fn page_rank_sums_to_one_with_dangling_leak_only() {
        let (g, _) = dataset();
        let tg = TransferGraph::build(&g);
        let res = page_rank(&tg, &params());
        let sum: f64 = res.scores.iter().sum();
        assert!(sum > 0.0 && sum <= 1.0 + 1e-9);
        // The cube paper and the author are sinks receiving flow.
        assert!(res.scores[0] > res.scores[1]);
    }
}
