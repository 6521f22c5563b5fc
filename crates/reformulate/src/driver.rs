//! The combined reformulation driver (Sections 5.1–5.3).
//!
//! Given the explaining subgraphs of one or more user-selected feedback
//! objects, produces the reformulated query: an expanded query vector
//! (content-based component) and adjusted authority transfer rates
//! (structure-based component). Multi-object feedback aggregates the raw
//! per-object term weights (Equation 14) and per-type flow sums
//! (Equation 15) by summation before the shared normalization steps —
//! summation being the monotone aggregation function the paper uses in
//! its surveys.

use crate::content::{
    add_weight, apply_expansion, harvest, heaviest, select_and_normalize, ContentParams,
};
use crate::structure::{
    edge_type_flows, edge_type_flows_pruned, structure_reformulate, StructureParams,
};
use orex_explain::Explanation;
use orex_graph::{SchemaGraph, TransferGraph, TransferRates};
use orex_ir::{InvertedIndex, QueryVector};

/// Full reformulation configuration.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct ReformulateParams {
    /// Content-based component (set `content.expansion_factor = 0` for
    /// structure-only reformulation, the internal survey's winner).
    pub content: ContentParams,
    /// Structure-based component (set `structure.rate_factor = 0` for
    /// content-only reformulation).
    pub structure: StructureParams,
}

impl ReformulateParams {
    /// Content-only setting (`C_f = 0`), as in the Section 6.1.1 survey's
    /// first arm (`C_e = 0.2` there).
    pub fn content_only(expansion_factor: f64) -> Self {
        Self {
            content: ContentParams {
                expansion_factor,
                ..ContentParams::default()
            },
            structure: StructureParams {
                rate_factor: 0.0,
                ..StructureParams::default()
            },
        }
    }

    /// Structure-only setting (`C_e = 0`), the survey's winner.
    pub fn structure_only(rate_factor: f64) -> Self {
        Self {
            content: ContentParams {
                expansion_factor: 0.0,
                ..ContentParams::default()
            },
            structure: StructureParams {
                rate_factor,
                ..StructureParams::default()
            },
        }
    }
}

/// The outcome of a reformulation step.
#[derive(Clone, Debug)]
pub struct Reformulation {
    /// The expanded query vector (`Q_{i+1}`, Equation 12). Equal to the
    /// input query under structure-only settings.
    pub query: QueryVector,
    /// The adjusted authority transfer rates (Equation 13 + normalization).
    /// Equal to the input rates under content-only settings.
    pub rates: TransferRates,
    /// The normalized expansion terms that were added (empty when content
    /// reformulation is disabled).
    pub expansion_terms: Vec<(String, f64)>,
}

/// Reformulates a query given the explaining subgraphs of the feedback
/// objects (Sections 5.1–5.3).
///
/// # Panics
/// Panics if `explanations` is empty — reformulation without feedback is
/// a caller bug.
pub fn reformulate(
    query: &QueryVector,
    rates: &TransferRates,
    schema: &SchemaGraph,
    graph: &TransferGraph,
    index: &InvertedIndex,
    explanations: &[&Explanation],
    params: &ReformulateParams,
) -> Reformulation {
    assert!(
        !explanations.is_empty(),
        "reformulation requires at least one feedback object"
    );

    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("reformulate.feedback_us");
    let mut round_span = orex_telemetry::tracer().span("reformulate.round");
    if round_span.is_recording() {
        round_span.attr_u64("feedback_objects", explanations.len() as u64);
        round_span.attr_f64("expansion_factor", params.content.expansion_factor);
        round_span.attr_f64("rate_factor", params.structure.rate_factor);
    }
    telemetry.counter("reformulate.runs").incr();
    telemetry
        .counter("reformulate.feedback_objects")
        .add(explanations.len() as u64);

    // --- Content component (Eq. 11, aggregated by Eq. 14) --------------
    let (new_query, expansion_terms) = if params.content.expansion_factor > 0.0 {
        // Each object's raw weights are summed on their own, then added
        // into the aggregate object by object: `(w1 + w2) + w3`, not one
        // running sum over every object's nodes, whose rounding differs.
        let vocabulary = index.vocabulary_size();
        let (mut agg, mut agg_terms) = (vec![0.0; vocabulary], Vec::new());
        let (mut one, mut one_terms) = (vec![0.0; vocabulary], Vec::new());
        for expl in explanations {
            harvest(expl, index, &params.content, &mut one, &mut one_terms);
            for term in one_terms.drain(..) {
                let w = std::mem::take(&mut one[term as usize]);
                add_weight(&mut agg, &mut agg_terms, term, w);
            }
        }
        let top = heaviest(&agg, agg_terms, index, params.content.top_terms);
        let normalized = select_and_normalize(&top, query, params.content.top_terms);
        let q = apply_expansion(query, &normalized, params.content.expansion_factor);
        (q, normalized)
    } else {
        (query.clone(), Vec::new())
    };

    // --- Structure component (Eq. 13, aggregated by Eq. 15) ------------
    let new_rates = if params.structure.rate_factor > 0.0 {
        let mut agg = vec![0.0; graph.transfer_type_count()];
        for expl in explanations {
            let flows = if params.structure.top_paths > 0 {
                edge_type_flows_pruned(expl, graph, params.structure.top_paths)
            } else {
                edge_type_flows(expl, graph)
            };
            for (i, f) in flows.into_iter().enumerate() {
                agg[i] += f;
            }
        }
        structure_reformulate(rates, &agg, schema, &params.structure)
    } else {
        rates.clone()
    };

    telemetry
        .histogram("reformulate.expansion_terms")
        .record(expansion_terms.len() as f64);
    if round_span.is_recording() {
        round_span.attr_u64("expansion_terms", expansion_terms.len() as u64);
    }
    orex_telemetry::logger()
        .info("reformulate", "feedback applied")
        .field_u64("feedback_objects", explanations.len() as u64)
        .field_u64("expansion_terms", expansion_terms.len() as u64)
        .field_f64("expansion_factor", params.content.expansion_factor)
        .field_f64("rate_factor", params.structure.rate_factor)
        .emit();

    Reformulation {
        query: new_query,
        rates: new_rates,
        expansion_terms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::expansion_term_weights;
    use orex_authority::{power_iteration, BaseSet, RankParams, TransitionMatrix};
    use orex_explain::ExplainParams;
    use orex_graph::{DataGraphBuilder, EdgeTypeId, NodeId, TransferTypeId};
    use orex_ir::{Analyzer, IndexBuilder, Query};

    struct Fixture {
        schema: SchemaGraph,
        graph: TransferGraph,
        rates: TransferRates,
        index: InvertedIndex,
        expl_a: Explanation,
        expl_b: Explanation,
        query: QueryVector,
    }

    /// Base node feeding two feedback objects through citation chains.
    fn fixture() -> Fixture {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("Paper").unwrap();
        let cites = schema.add_edge_type(p, p, "cites").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let s = b.add_node_with(p, &[("Title", "olap overview")]).unwrap();
        let t1 = b
            .add_node_with(p, &[("Title", "olap cube storage")])
            .unwrap();
        let t2 = b.add_node_with(p, &[("Title", "olap range scan")]).unwrap();
        b.add_edge(s, t1, cites).unwrap();
        b.add_edge(s, t2, cites).unwrap();
        let g = b.freeze();
        let schema = g.schema().clone();
        let mut rates = TransferRates::uniform(&schema, 0.3);
        rates
            .set(TransferTypeId::backward(EdgeTypeId::new(0)), 0.2)
            .unwrap();
        let graph = TransferGraph::build(&g);
        let mut ib = IndexBuilder::new(Analyzer::new());
        for node in g.nodes() {
            ib.add_document(node.raw(), &g.node_text(node));
        }
        let index = ib.build();
        let query = QueryVector::initial(&Query::parse("olap"), index.analyzer());

        let m = TransitionMatrix::new(&graph, &rates);
        let base =
            BaseSet::weighted(index.base_set_scores(&query, &orex_ir::Okapi::default())).unwrap();
        let rank = power_iteration(
            &m,
            &base,
            &RankParams {
                epsilon: 1e-12,
                max_iterations: 2000,
                threads: 1,
                ..RankParams::default()
            },
            None,
        );
        let mk = |t: u32| {
            Explanation::explain(
                &graph,
                &rates,
                &rank.scores,
                base.nodes(),
                NodeId::new(t),
                &ExplainParams::default(),
            )
            .unwrap()
        };
        let expl_a = mk(1);
        let expl_b = mk(2);
        Fixture {
            schema,
            graph,
            rates,
            index,
            expl_a,
            expl_b,
            query,
        }
    }

    #[test]
    fn structure_only_leaves_query_unchanged() {
        let f = fixture();
        let out = reformulate(
            &f.query,
            &f.rates,
            &f.schema,
            &f.graph,
            &f.index,
            &[&f.expl_a],
            &ReformulateParams::structure_only(0.5),
        );
        assert_eq!(out.query, f.query);
        assert!(out.expansion_terms.is_empty());
        assert_ne!(out.rates, f.rates);
        out.rates.validate(&f.schema).unwrap();
    }

    #[test]
    fn content_only_leaves_rates_unchanged() {
        let f = fixture();
        let out = reformulate(
            &f.query,
            &f.rates,
            &f.schema,
            &f.graph,
            &f.index,
            &[&f.expl_a],
            &ReformulateParams::content_only(0.2),
        );
        assert_eq!(out.rates, f.rates);
        assert!(!out.expansion_terms.is_empty());
        assert!(out.query.len() > f.query.len());
    }

    #[test]
    fn combined_changes_both() {
        let f = fixture();
        let out = reformulate(
            &f.query,
            &f.rates,
            &f.schema,
            &f.graph,
            &f.index,
            &[&f.expl_a],
            &ReformulateParams::default(),
        );
        assert_ne!(out.query, f.query);
        assert_ne!(out.rates, f.rates);
    }

    #[test]
    fn multi_feedback_aggregates_terms_from_both_objects() {
        let f = fixture();
        let params = ReformulateParams {
            content: ContentParams {
                top_terms: 10,
                ..ContentParams::default()
            },
            ..ReformulateParams::default()
        };
        let both = reformulate(
            &f.query,
            &f.rates,
            &f.schema,
            &f.graph,
            &f.index,
            &[&f.expl_a, &f.expl_b],
            &params,
        );
        let terms: Vec<&str> = both
            .expansion_terms
            .iter()
            .map(|(t, _)| t.as_str())
            .collect();
        // cube/storage come from t1's subgraph, rang/scan from t2's.
        assert!(terms.contains(&"cube"), "{terms:?}");
        assert!(terms.contains(&"rang"), "{terms:?}");
    }

    #[test]
    fn multi_feedback_sums_raw_weights() {
        let f = fixture();
        // "olap" appears in both subgraphs; with two feedback objects its
        // aggregated raw weight is the sum, so it stays the top term.
        let out = reformulate(
            &f.query,
            &f.rates,
            &f.schema,
            &f.graph,
            &f.index,
            &[&f.expl_a, &f.expl_b],
            &ReformulateParams::default(),
        );
        assert_eq!(out.expansion_terms[0].0, "olap");
    }

    #[test]
    #[should_panic(expected = "at least one feedback object")]
    fn empty_feedback_panics() {
        let f = fixture();
        let _ = reformulate(
            &f.query,
            &f.rates,
            &f.schema,
            &f.graph,
            &f.index,
            &[],
            &ReformulateParams::default(),
        );
    }

    /// Titles are drawn from eight words with eight distinct stems, so
    /// subgraphs share terms, and the terms of a title that no other node
    /// carries tie in weight and are ordered by their text.
    const WORDS: [&str; 8] = [
        "olap", "cube", "range", "scan", "mining", "graph", "index", "storage",
    ];

    /// `(term, weight bits)` pairs, for bit-exact comparison.
    fn bits<'a>(terms: impl IntoIterator<Item = (&'a str, f64)>) -> Vec<(String, u64)> {
        terms
            .into_iter()
            .map(|(t, w)| (t.to_string(), w.to_bits()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The `TermId`-keyed harvest gives bit-identical expansion terms
        /// and query to the string-keyed one it replaced, for one to three
        /// feedback objects and `z` of 0, 1, 5 and past the vocabulary;
        /// `expansion_term_weights` returns the same full sorted list.
        #[test]
        fn matches_the_string_keyed_reference(
            titles in proptest::collection::vec(proptest::collection::vec(0usize..8, 1..4), 3..9),
            edge_rolls in proptest::collection::vec((0usize..9, 0usize..9), 1..20),
            base_rolls in proptest::collection::vec(0u32..9, 1..3),
            target_rolls in proptest::collection::vec(0u32..9, 1..4),
            (query_word, z_roll) in (0usize..8, 0usize..4),
        ) {
            let mut schema = SchemaGraph::new();
            let p = schema.add_node_type("Paper").unwrap();
            let cites = schema.add_edge_type(p, p, "cites").unwrap();
            let mut b = DataGraphBuilder::new(schema);
            let papers: Vec<_> = titles
                .iter()
                .map(|words| {
                    let title: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
                    b.add_node_with(p, &[("Title", &title.join(" "))]).unwrap()
                })
                .collect();
            for &(s, t) in &edge_rolls {
                b.add_edge(papers[s % papers.len()], papers[t % papers.len()], cites).unwrap();
            }
            let g = b.freeze();
            let schema = g.schema().clone();
            let mut rates = TransferRates::uniform(&schema, 0.3);
            rates.set(TransferTypeId::backward(EdgeTypeId::new(0)), 0.2).unwrap();
            let graph = TransferGraph::build(&g);
            let mut ib = IndexBuilder::new(Analyzer::new());
            for node in g.nodes() {
                ib.add_document(node.raw(), &g.node_text(node));
            }
            let index = ib.build();
            let query = QueryVector::initial(&Query::parse(WORDS[query_word]), index.analyzer());
            let n = papers.len() as u32;
            let base = BaseSet::uniform(base_rolls.iter().map(|&r| r % n)).unwrap();
            let rank = power_iteration(
                &TransitionMatrix::new(&graph, &rates),
                &base,
                &RankParams { epsilon: 1e-12, max_iterations: 2000, threads: 1, ..RankParams::default() },
                None,
            );
            let explanations: Vec<Explanation> = target_rolls
                .iter()
                .filter_map(|&t| {
                    let target = NodeId::new(t % n);
                    let params = ExplainParams::default();
                    Explanation::explain(&graph, &rates, &rank.scores, base.nodes(), target, &params).ok()
                })
                .collect();
            if explanations.is_empty() {
                return Ok(());
            }
            let top_terms = [0, 1, 5, 100][z_roll];
            let content = ContentParams { top_terms, ..ContentParams::default() };
            for expl in &explanations {
                let got = expansion_term_weights(expl, &index, &content);
                let want = reference::expansion_term_weights(expl, &index, &content);
                proptest::prop_assert_eq!(
                    bits(got.iter().map(|(t, w)| (t.as_str(), *w))),
                    bits(want.iter().map(|(t, w)| (t.as_str(), *w)))
                );
            }
            let feedback: Vec<&Explanation> = explanations.iter().collect();
            let params = ReformulateParams { content, ..ReformulateParams::default() };
            let out = reformulate(&query, &rates, &schema, &graph, &index, &feedback, &params);
            let (want_query, want_terms) = reference::content(&query, &index, &feedback, &content);
            proptest::prop_assert_eq!(
                bits(out.expansion_terms.iter().map(|(t, w)| (t.as_str(), *w))),
                bits(want_terms.iter().map(|(t, w)| (t.as_str(), *w)))
            );
            proptest::prop_assert_eq!(bits(out.query.iter()), bits(want_query.iter()));
        }
    }

    /// The content component as it stood before the harvest was keyed by
    /// `TermId`: one `&str`-keyed map per explanation, a `String` per
    /// distinct term, a `String`-keyed map across explanations and a full
    /// sort before the top `z` are taken. Kept verbatim as the oracle for
    /// `matches_the_string_keyed_reference`.
    mod reference {
        use crate::content::{apply_expansion, select_and_normalize, ContentParams};
        use orex_explain::Explanation;
        use orex_ir::{InvertedIndex, QueryVector};
        use std::collections::HashMap;

        pub fn expansion_term_weights(
            explanation: &Explanation,
            index: &InvertedIndex,
            params: &ContentParams,
        ) -> Vec<(String, f64)> {
            let mut weights: HashMap<&str, f64> = HashMap::new();
            let target = explanation.target();
            for node in explanation.nodes() {
                let node_weight = if node == target {
                    params.damping * explanation.inflow(node)
                } else {
                    let d = explanation
                        .distance(node)
                        .expect("subgraph node has a distance");
                    params.decay.powi(d as i32) * explanation.outflow(node)
                };
                if node_weight <= 0.0 {
                    continue;
                }
                for &(term, _tf) in index.doc_terms(node.raw()) {
                    *weights.entry(index.term_text(term)).or_insert(0.0) += node_weight;
                }
            }
            let mut out: Vec<(String, f64)> = weights
                .into_iter()
                .map(|(t, w)| (t.to_string(), w))
                .collect();
            out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            out
        }

        pub fn content(
            query: &QueryVector,
            index: &InvertedIndex,
            explanations: &[&Explanation],
            params: &ContentParams,
        ) -> (QueryVector, Vec<(String, f64)>) {
            let mut agg: HashMap<String, f64> = HashMap::new();
            for expl in explanations {
                for (term, w) in expansion_term_weights(expl, index, params) {
                    *agg.entry(term).or_insert(0.0) += w;
                }
            }
            let mut raw: Vec<(String, f64)> = agg.into_iter().collect();
            raw.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let normalized = select_and_normalize(&raw, query, params.top_terms);
            let q = apply_expansion(query, &normalized, params.expansion_factor);
            (q, normalized)
        }
    }
}
