//! Content-based reformulation (Section 5.1, Equations 11–12).
//!
//! Traditional relevance-feedback expansion adds terms *from the feedback
//! document*. Authority-flow ranking extends the idea: terms from every
//! node of the explaining subgraph are candidates, weighted by the
//! authority that node transfers to the feedback object and decayed by its
//! distance from it:
//!
//! ```text
//! w'(t) = Σ_{v_k ∈ G_v^Q, t ∈ v_k}  C_d^{D(v_k)} · outflow(v_k)      (Eq. 11)
//! ```
//!
//! where `outflow(v_k)` is the node's adjusted outgoing flow in the
//! subgraph, and the feedback object itself — whose outflow is undefined
//! in `G_v^Q` — contributes `d · inflow(v)` instead. The top-`z` terms are
//! normalized so their maximum equals the mean weight of the current query
//! vector, scaled by the expansion factor `C_e`, and added to the query
//! (Equation 12).

use orex_explain::Explanation;
use orex_ir::{InvertedIndex, QueryVector, TermId};

/// Parameters of content-based reformulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContentParams {
    /// Decay factor `C_d` (typically 0.5, in the spirit of XRANK).
    pub decay: f64,
    /// Expansion factor `C_e ∈ [0, 1]` scaling new term weights
    /// (typically 0.5; 0 disables content reformulation).
    pub expansion_factor: f64,
    /// Number of top terms `z` to add.
    pub top_terms: usize,
    /// Damping factor `d` of the explained query — used for the feedback
    /// object's own contribution (`d · inflow`).
    pub damping: f64,
}

impl Default for ContentParams {
    fn default() -> Self {
        Self {
            decay: 0.5,
            expansion_factor: 0.5,
            top_terms: 5,
            damping: 0.85,
        }
    }
}

/// Computes the raw expansion-term weights `w'(t)` of Equation 11 for one
/// explaining subgraph. Returns `(term, weight)` pairs in descending
/// weight order (ties broken alphabetically), *before* top-`z` selection
/// and normalization — multi-feedback aggregation (Equation 14) sums these
/// raw weights across feedback objects first.
pub fn expansion_term_weights(
    explanation: &Explanation,
    index: &InvertedIndex,
    params: &ContentParams,
) -> Vec<(String, f64)> {
    let mut weights = vec![0.0; index.vocabulary_size()];
    let mut terms = Vec::new();
    harvest(explanation, index, params, &mut weights, &mut terms);
    heaviest(&weights, terms, index, usize::MAX)
}

/// Adds `w'(t)` of Equation 11 for one explaining subgraph into
/// `weights`, a dense array indexed by [`TermId`], through [`add_weight`].
pub(crate) fn harvest(
    explanation: &Explanation,
    index: &InvertedIndex,
    params: &ContentParams,
    weights: &mut [f64],
    terms: &mut Vec<TermId>,
) {
    let target = explanation.target();
    for (node, d, outflow) in explanation.nodes_with_outflow() {
        let node_weight = if node == target {
            // The target's outgoing flow is not defined in the subgraph;
            // use d * inflow (Section 5.1).
            params.damping * explanation.inflow(node)
        } else {
            params.decay.powi(d as i32) * outflow
        };
        if node_weight <= 0.0 {
            continue;
        }
        for &(term, _tf) in index.doc_terms(node.raw()) {
            add_weight(weights, terms, term, node_weight);
        }
    }
}

/// `weights[term] += weight`, listing `term` in `terms` on its first
/// addition. Every weight added is positive, so a term is new exactly when
/// its entry is still zero.
pub(crate) fn add_weight(weights: &mut [f64], terms: &mut Vec<TermId>, term: TermId, weight: f64) {
    let slot = &mut weights[term as usize];
    if *slot == 0.0 {
        terms.push(term);
    }
    *slot += weight;
}

/// The `z` heaviest of `terms` with their weights, in descending weight
/// order with ties broken alphabetically; only those `z` get a `String`.
pub(crate) fn heaviest(
    weights: &[f64],
    mut terms: Vec<TermId>,
    index: &InvertedIndex,
    z: usize,
) -> Vec<(String, f64)> {
    let order = |a: &TermId, b: &TermId| {
        weights[*b as usize]
            .total_cmp(&weights[*a as usize])
            .then_with(|| index.term_text(*a).cmp(index.term_text(*b)))
    };
    if z < terms.len() {
        terms.select_nth_unstable_by(z, order);
        terms.truncate(z);
    }
    terms.sort_unstable_by(order);
    terms
        .into_iter()
        .map(|t| (index.term_text(t).to_string(), weights[t as usize]))
        .collect()
}

/// Selects the top-`z` terms and normalizes their weights per Section 5.1:
/// the maximum expansion weight is scaled to the mean weight `a_w` of the
/// current query vector (or to 1 for an empty query).
pub fn select_and_normalize(
    raw: &[(String, f64)],
    query: &QueryVector,
    top_terms: usize,
) -> Vec<(String, f64)> {
    let mut top: Vec<(String, f64)> = raw.iter().take(top_terms).cloned().collect();
    let max = top.iter().map(|&(_, w)| w).fold(0.0, f64::max);
    if max <= 0.0 {
        return Vec::new();
    }
    let a_w = if query.is_empty() {
        1.0
    } else {
        query.mean_weight()
    };
    let scale = a_w / max;
    for (_, w) in &mut top {
        *w *= scale;
    }
    top
}

/// Equation 12: `Q_{i+1} = Q_i + C_e Σ w'(t) · t` over the (already
/// normalized) expansion terms. Terms already in the query have their
/// weights increased; new terms are appended in weight order.
pub fn apply_expansion(
    query: &QueryVector,
    normalized_terms: &[(String, f64)],
    expansion_factor: f64,
) -> QueryVector {
    let mut out = query.clone();
    for (term, weight) in normalized_terms {
        out.add_weight(term, expansion_factor * weight);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reformulate, ReformulateParams};
    use orex_authority::{power_iteration, BaseSet, RankParams, TransitionMatrix};
    use orex_explain::ExplainParams;
    use orex_graph::{
        DataGraphBuilder, NodeId, SchemaGraph, TransferGraph, TransferRates, TransferTypeId,
    };
    use orex_ir::{Analyzer, IndexBuilder, Query};

    /// source("olap survey") -> mid("data cube analysis") -> target("range
    /// queries cubes"), plus an off-path node("irrelevant topic") hanging
    /// off mid. Returns the explanation of the target, the index, and the
    /// schema, graph and rates `reformulate` takes.
    fn setup() -> (
        Explanation,
        InvertedIndex,
        SchemaGraph,
        TransferGraph,
        TransferRates,
    ) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("Paper").unwrap();
        let r = schema.add_edge_type(p, p, "cites").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let s = b.add_node_with(p, &[("Title", "olap survey")]).unwrap();
        let mid = b
            .add_node_with(p, &[("Title", "data cube analysis")])
            .unwrap();
        let t = b
            .add_node_with(p, &[("Title", "range queries cubes")])
            .unwrap();
        let off = b
            .add_node_with(p, &[("Title", "irrelevant topic")])
            .unwrap();
        b.add_edge(s, mid, r).unwrap();
        b.add_edge(mid, t, r).unwrap();
        b.add_edge(mid, off, r).unwrap();
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(r), 0.8).unwrap();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let rank = power_iteration(
            &m,
            &base,
            &RankParams {
                epsilon: 1e-14,
                max_iterations: 5000,
                threads: 1,
                ..RankParams::default()
            },
            None,
        );
        let expl = orex_explain::Explanation::explain(
            &tg,
            &rates,
            &rank.scores,
            base.nodes(),
            NodeId::new(2),
            &ExplainParams::default(),
        )
        .unwrap();
        let mut ib = IndexBuilder::new(Analyzer::new());
        for node in g.nodes() {
            ib.add_document(node.raw(), &g.node_text(node));
        }
        (expl, ib.build(), g.schema().clone(), tg, rates)
    }

    /// `reformulate` on the setup's explanation, content component only.
    fn content_only(query: &QueryVector, expansion_factor: f64) -> QueryVector {
        let (expl, idx, schema, graph, rates) = setup();
        let params = ReformulateParams::content_only(expansion_factor);
        let out = reformulate(query, &rates, &schema, &graph, &idx, &[&expl], &params);
        assert_eq!(out.rates, rates);
        out.query
    }

    #[test]
    fn target_terms_get_highest_weight() {
        let (expl, idx, ..) = setup();
        let raw = expansion_term_weights(&expl, &idx, &ContentParams::default());
        assert!(!raw.is_empty());
        // The feedback object's own terms lead thanks to C_d^0 and the
        // full inflow weight.
        let top_terms: Vec<&str> = raw.iter().take(3).map(|(t, _)| t.as_str()).collect();
        assert!(top_terms.contains(&"rang"), "{top_terms:?}");
        assert!(top_terms.contains(&"queri"), "{top_terms:?}");
    }

    #[test]
    fn off_path_terms_excluded() {
        let (expl, idx, ..) = setup();
        let raw = expansion_term_weights(&expl, &idx, &ContentParams::default());
        assert!(
            !raw.iter().any(|(t, _)| t == "irrelev" || t == "topic"),
            "terms of nodes outside the explaining subgraph must not appear"
        );
    }

    #[test]
    fn distance_decays_weights() {
        let (expl, idx, ..) = setup();
        let raw = expansion_term_weights(&expl, &idx, &ContentParams::default());
        let get = |t: &str| raw.iter().find(|(x, _)| x == t).map(|&(_, w)| w);
        // "olap" is 2 hops from the target and decayed twice; "cube"
        // appears at distance 1 (mid) *and* 0 (target: "cubes" stems to
        // cube), so it outweighs olap.
        let olap = get("olap").expect("olap harvested");
        let cube = get("cube").expect("cube harvested");
        assert!(cube > olap, "cube {cube} vs olap {olap}");
    }

    #[test]
    fn normalization_ties_max_to_query_mean() {
        let (expl, idx, ..) = setup();
        let raw = expansion_term_weights(&expl, &idx, &ContentParams::default());
        let q = QueryVector::from_weights([("olap", 2.0), ("data", 4.0)]); // mean 3
        let norm = select_and_normalize(&raw, &q, 5);
        let max = norm.iter().map(|&(_, w)| w).fold(0.0, f64::max);
        assert!((max - 3.0).abs() < 1e-12);
    }

    #[test]
    fn equation12_accumulates_existing_terms() {
        let q = QueryVector::from_weights([("olap", 1.0)]);
        let terms = vec![("olap".to_string(), 1.0), ("cube".to_string(), 0.8)];
        let out = apply_expansion(&q, &terms, 0.5);
        assert!((out.weight("olap") - 1.5).abs() < 1e-12);
        assert!((out.weight("cube") - 0.4).abs() < 1e-12);
        // Order: original terms first.
        let order: Vec<&str> = out.iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec!["olap", "cube"]);
    }

    #[test]
    fn zero_expansion_factor_is_identity() {
        let a = Analyzer::new();
        let q = QueryVector::initial(&Query::parse("olap"), &a);
        assert_eq!(content_only(&q, 0.0), q);
    }

    #[test]
    fn top_terms_limit_respected() {
        let (expl, idx, ..) = setup();
        let raw = expansion_term_weights(&expl, &idx, &ContentParams::default());
        let q = QueryVector::from_weights([("olap", 1.0)]);
        let norm = select_and_normalize(&raw, &q, 2);
        assert!(norm.len() <= 2);
    }

    #[test]
    fn full_reformulation_grows_query() {
        let a = Analyzer::new();
        let q = QueryVector::initial(&Query::parse("olap"), &a);
        let out = content_only(&q, ContentParams::default().expansion_factor);
        assert!(out.len() > q.len());
        // olap keeps at least its original weight.
        assert!(out.weight("olap") >= 1.0);
    }

    #[test]
    fn deterministic_order_on_ties() {
        let (expl, idx, ..) = setup();
        let r1 = expansion_term_weights(&expl, &idx, &ContentParams::default());
        let r2 = expansion_term_weights(&expl, &idx, &ContentParams::default());
        assert_eq!(r1, r2);
    }
}
