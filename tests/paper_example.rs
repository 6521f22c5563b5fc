//! Integration test reconstructing the paper's running example: the DBLP
//! subset of Figure 1 with the authority transfer rates of Figure 3, the
//! "OLAP" query of Section 1, the authority flows of Figure 6 and the
//! explaining subgraph of Figure 9.

use orex::authority::{object_rank2, top_k, TransitionMatrix};
use orex::explain::{top_paths, ExplainParams, Explanation};
use orex::graph::{
    DataGraph, DataGraphBuilder, NodeId, SchemaGraph, TransferGraph, TransferRates, TransferTypeId,
};
use orex::ir::{Analyzer, IndexBuilder, InvertedIndex, Okapi, Query, QueryVector};
use orex::reformulate::{
    expansion_term_weights, reformulate, ContentParams, ReformulateParams, StructureParams,
};

/// Node indices following Figure 6's numbering: v1..v7 map to 0..6.
const V1_INDEX_SELECTION: u32 = 0;
const V2_ICDE: u32 = 1;
const V3_YEAR_1997: u32 = 2;
const V4_RANGE_QUERIES: u32 = 3;
const V5_MODELING: u32 = 4;
const V6_AGRAWAL: u32 = 5;
const V7_DATA_CUBE: u32 = 6;

struct Figure1 {
    graph: DataGraph,
    rates: TransferRates,
    transfer: TransferGraph,
    index: InvertedIndex,
}

fn figure1() -> Figure1 {
    let mut schema = SchemaGraph::new();
    let paper = schema.add_node_type("Paper").unwrap();
    let conf = schema.add_node_type("Conference").unwrap();
    let year = schema.add_node_type("Year").unwrap();
    let author = schema.add_node_type("Author").unwrap();
    let cites = schema.add_edge_type(paper, paper, "cites").unwrap();
    let by = schema.add_edge_type(paper, author, "by").unwrap();
    let has = schema.add_edge_type(conf, year, "has_instance").unwrap();
    let contains = schema.add_edge_type(year, paper, "contains").unwrap();

    let mut b = DataGraphBuilder::new(schema);
    let v1 = b
        .add_node_with(
            paper,
            &[
                ("Title", "Index Selection for OLAP."),
                ("Year", "ICDE 1997"),
            ],
        )
        .unwrap();
    let v2 = b.add_node_with(conf, &[("Name", "ICDE")]).unwrap();
    let v3 = b
        .add_node_with(
            year,
            &[
                ("Name", "ICDE"),
                ("Year", "1997"),
                ("Location", "Birmingham"),
            ],
        )
        .unwrap();
    let v4 = b
        .add_node_with(
            paper,
            &[
                ("Title", "Range Queries in OLAP Data Cubes."),
                ("Year", "SIGMOD 1997"),
            ],
        )
        .unwrap();
    let v5 = b
        .add_node_with(
            paper,
            &[
                ("Title", "Modeling Multidimensional Databases."),
                ("Year", "ICDE 1997"),
            ],
        )
        .unwrap();
    let v6 = b.add_node_with(author, &[("Name", "R. Agrawal")]).unwrap();
    let v7 = b
        .add_node_with(
            paper,
            &[
                (
                    "Title",
                    "Data Cube: A Relational Aggregation Operator Generalizing \
                     Group-By, Cross-Tab, and Sub-Total.",
                ),
                ("Year", "ICDE 1996"),
            ],
        )
        .unwrap();

    // Edges of Figure 1 / Figure 5.
    b.add_edge(v1, v7, cites).unwrap();
    b.add_edge(v2, v3, has).unwrap();
    b.add_edge(v3, v1, contains).unwrap();
    b.add_edge(v3, v5, contains).unwrap();
    b.add_edge(v4, v7, cites).unwrap();
    b.add_edge(v4, v5, cites).unwrap();
    b.add_edge(v5, v7, cites).unwrap();
    b.add_edge(v4, v6, by).unwrap();
    b.add_edge(v5, v6, by).unwrap();
    let graph = b.freeze();

    // Figure 3 rates: [PP, PPb, PA, AP, CY, YC, YP, PY].
    let mut rates = TransferRates::zero(graph.schema());
    rates.set(TransferTypeId::forward(cites), 0.7).unwrap();
    rates.set(TransferTypeId::backward(cites), 0.0).unwrap();
    rates.set(TransferTypeId::forward(by), 0.2).unwrap();
    rates.set(TransferTypeId::backward(by), 0.2).unwrap();
    rates.set(TransferTypeId::forward(has), 0.3).unwrap();
    rates.set(TransferTypeId::backward(has), 0.3).unwrap();
    rates.set(TransferTypeId::forward(contains), 0.3).unwrap();
    rates.set(TransferTypeId::backward(contains), 0.1).unwrap();
    rates.validate(graph.schema()).unwrap();

    let transfer = TransferGraph::build(&graph);
    let mut ib = IndexBuilder::new(Analyzer::new());
    for node in graph.nodes() {
        ib.add_document(node.raw(), &graph.node_text(node));
    }
    Figure1 {
        index: ib.build(),
        transfer,
        graph,
        rates,
    }
}

fn run_olap(f: &Figure1) -> (QueryVector, Vec<f64>, orex::authority::BaseSet) {
    let qv = QueryVector::initial(&Query::parse("OLAP"), f.index.analyzer());
    let matrix = TransitionMatrix::new(&f.transfer, &f.rates);
    let params = orex::authority::RankParams {
        epsilon: 1e-12,
        max_iterations: 2000,
        threads: 1,
        ..Default::default()
    };
    let result = object_rank2(&matrix, &f.index, &qv, &Okapi::default(), &params, None).unwrap();
    let base = orex::authority::BaseSet::weighted(f.index.base_set_scores(&qv, &Okapi::default()))
        .unwrap();
    (qv, result.scores, base)
}

#[test]
fn base_set_is_the_two_olap_papers() {
    let f = figure1();
    let (_, _, base) = run_olap(&f);
    let nodes: Vec<u32> = base.nodes().collect();
    assert_eq!(nodes, vec![V1_INDEX_SELECTION, V4_RANGE_QUERIES]);
}

#[test]
fn data_cube_ranks_top_without_containing_the_keyword() {
    // "Given the subgraph of Figure 1, the 'Data Cube' paper is ranked on
    // the top, even though it does not contain the keyword 'OLAP'."
    let f = figure1();
    let (_, scores, _) = run_olap(&f);
    let ranked = top_k(&scores, 7, 0.0);
    assert_eq!(ranked[0].node, V7_DATA_CUBE, "scores: {scores:?}");
    // The two base-set papers follow close behind (paper reports
    // r = [0.076, 0.002, 0.009, 0.076, 0.017, 0.025, 0.083]).
    assert!(scores[V7_DATA_CUBE as usize] > scores[V1_INDEX_SELECTION as usize]);
    assert!(scores[V1_INDEX_SELECTION as usize] > scores[V2_ICDE as usize]);
    assert!(scores[V4_RANGE_QUERIES as usize] > scores[V2_ICDE as usize]);
}

#[test]
fn score_ordering_matches_figure6() {
    // Figure 6's converged vector orders the nodes
    // v7 > v1 ≈ v4 > v6 > v5 > v3 > v2. The IR weighting perturbs the
    // v1/v4 tie; the rest of the order is structural.
    let f = figure1();
    let (_, scores, _) = run_olap(&f);
    let s = |v: u32| scores[v as usize];
    assert!(s(V7_DATA_CUBE) > s(V6_AGRAWAL));
    assert!(s(V6_AGRAWAL) > s(V3_YEAR_1997));
    assert!(s(V5_MODELING) > s(V3_YEAR_1997));
    assert!(s(V3_YEAR_1997) > s(V2_ICDE));
}

#[test]
fn explaining_subgraph_of_range_queries_excludes_data_cube() {
    // Example 1: "the 'Data Cube' paper is not in G_v^Q, since there is
    // no path from that paper to v4."
    let f = figure1();
    let (_, scores, base) = run_olap(&f);
    let expl = Explanation::explain(
        &f.transfer,
        &f.rates,
        &scores,
        base.nodes(),
        NodeId::new(V4_RANGE_QUERIES),
        &ExplainParams::default(),
    )
    .unwrap();
    assert!(!expl.contains(NodeId::new(V7_DATA_CUBE)));
    // The target's reduction factor is pinned at 1: its incoming flows
    // are exactly the original ones.
    assert_eq!(
        expl.reduction_factor(NodeId::new(V4_RANGE_QUERIES)),
        Some(1.0)
    );
    for e in expl.in_edges(NodeId::new(V4_RANGE_QUERIES)) {
        assert!((e.adjusted_flow - e.original_flow).abs() < 1e-15);
    }
    // h factors of non-target nodes are strictly below 1 (flow leaks to
    // v7, which is outside the subgraph).
    for node in expl.nodes() {
        if node.raw() != V4_RANGE_QUERIES {
            let h = expl.reduction_factor(node).unwrap();
            assert!(h < 1.0, "h({node}) = {h}");
        }
    }
}

#[test]
fn explanation_paths_lead_from_base_set_to_target() {
    // Figure 9 includes v1's 4-hop path v1 -> v3 -> v5 -> v6 -> v4, so
    // the illustrative example uses a radius above the L = 3 the
    // performance experiments pick; radius 6 covers the whole subset.
    let f = figure1();
    let (_, scores, base) = run_olap(&f);
    let expl = Explanation::explain(
        &f.transfer,
        &f.rates,
        &scores,
        base.nodes(),
        NodeId::new(V4_RANGE_QUERIES),
        &ExplainParams {
            radius: 6,
            ..ExplainParams::default()
        },
    )
    .unwrap();
    assert!(expl.contains(NodeId::new(V1_INDEX_SELECTION)));
    let paths = top_paths(&expl, 3);
    assert!(!paths.is_empty());
    for p in &paths {
        assert!(base.contains(p.nodes[0].raw()));
        assert_eq!(p.nodes.last().unwrap().raw(), V4_RANGE_QUERIES);
    }
}

#[test]
fn example2_expansion_terms_match_the_paper() {
    // Example 2: feedback object v4 ("Range Queries in OLAP Data Cubes"),
    // C_d = C_e = 0.5 — "the top-5 new terms are olap, cubes, range,
    // multidimensional and modeling" (we see their stems).
    let f = figure1();
    let (qv, scores, base) = run_olap(&f);
    let expl = Explanation::explain(
        &f.transfer,
        &f.rates,
        &scores,
        base.nodes(),
        NodeId::new(V4_RANGE_QUERIES),
        &ExplainParams::default(),
    )
    .unwrap();
    let raw = expansion_term_weights(&expl, &f.index, &ContentParams::default());
    let top5: Vec<&str> = raw.iter().take(8).map(|(t, _)| t.as_str()).collect();
    for stem in ["olap", "cube", "rang"] {
        assert!(top5.contains(&stem), "{stem} missing from {top5:?}");
    }
    // The target's own terms outrank terms only found upstream.
    let weight_of = |t: &str| {
        raw.iter()
            .find(|(x, _)| x == t)
            .map(|&(_, w)| w)
            .unwrap_or(0.0)
    };
    assert!(weight_of("rang") > weight_of("multidimension"));
    assert!(weight_of("rang") > weight_of("model"));
    let _ = qv;
}

#[test]
fn example2_reformulated_query_boosts_olap() {
    let f = figure1();
    let (qv, scores, base) = run_olap(&f);
    let expl = Explanation::explain(
        &f.transfer,
        &f.rates,
        &scores,
        base.nodes(),
        NodeId::new(V4_RANGE_QUERIES),
        &ExplainParams::default(),
    )
    .unwrap();
    let out = reformulate(
        &qv,
        &f.rates,
        f.graph.schema(),
        &f.transfer,
        &f.index,
        &[&expl],
        &ReformulateParams {
            content: ContentParams::default(),
            structure: StructureParams::unpruned(0.5),
        },
    );
    // "olap" was weight 1; expansion adds to it (the paper's Example 2
    // reformulated vector leads with olap at the highest weight).
    assert!(out.query.weight("olap") > 1.0);
    let max = out
        .query
        .iter()
        .map(|(_, w)| w)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(out.query.weight("olap"), max);
    // Structure side stays valid and keeps citation edges dominant
    // (Example 2 cont'd: PP stays the largest rate).
    out.rates.validate(f.graph.schema()).unwrap();
    let cites_fwd = out
        .rates
        .get(TransferTypeId::forward(orex::graph::EdgeTypeId::new(0)));
    for idx in 0..out.rates.len() {
        assert!(out.rates.as_slice()[idx] <= cites_fwd + 1e-12);
    }
}

#[test]
fn bidirectional_epsilon_keeps_data_cube_explainable() {
    // Section 4: "We assume all edges are bidirectional (arbitrarily
    // small flow rates can be assigned to direction of small importance)
    // to guarantee convergence" — with an epsilon back-rate, even the
    // Data Cube paper (a pure sink under Figure 3 rates) gets a
    // non-trivial explaining subgraph.
    let f = figure1();
    let mut rates = f.rates.clone();
    rates.ensure_bidirectional(1e-3);
    // Rescale: paper-type nodes now exceed 1.
    rates.rescale_outgoing(f.graph.schema());
    rates.validate(f.graph.schema()).unwrap();
    let qv = QueryVector::initial(&Query::parse("OLAP"), f.index.analyzer());
    let matrix = TransitionMatrix::new(&f.transfer, &rates);
    let params = orex::authority::RankParams {
        epsilon: 1e-12,
        max_iterations: 2000,
        threads: 1,
        ..Default::default()
    };
    let result = object_rank2(&matrix, &f.index, &qv, &Okapi::default(), &params, None).unwrap();
    let base = orex::authority::BaseSet::weighted(f.index.base_set_scores(&qv, &Okapi::default()))
        .unwrap();
    let expl = Explanation::explain(
        &f.transfer,
        &rates,
        &result.scores,
        base.nodes(),
        NodeId::new(V7_DATA_CUBE),
        &ExplainParams::default(),
    )
    .unwrap();
    assert!(expl.converged());
    assert!(expl.edge_count() >= 3);
    assert!(expl.target_inflow() > 0.0);
}
