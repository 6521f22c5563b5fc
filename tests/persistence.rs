//! Integration tests for the persistence path: a trained system survives
//! a save/load cycle with its ranking intact, and the text format carries
//! user data into the full pipeline.

use orex::datagen::{generate_dblp, DblpConfig, TextConfig};
use orex::ir::Query;
use orex::{ObjectRankSystem, QuerySession, SystemConfig};
use orex_store::{
    decode_graph, decode_rates, encode_graph, encode_rates, fnv1a, parse_text, to_text,
    PrecomputedRanks,
};

fn dataset() -> orex::datagen::Dataset {
    generate_dblp(
        "persist",
        &DblpConfig {
            papers: 400,
            authors: 160,
            conferences: 5,
            years_per_conference: 4,
            text: TextConfig {
                vocab_size: 900,
                topics: 6,
                ..TextConfig::default()
            },
            ..DblpConfig::default()
        },
    )
}

#[test]
fn trained_system_survives_snapshot_roundtrip() {
    let d = dataset();
    let gt = d.ground_truth.clone();
    let sys = ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default());

    // Train the rates for two rounds (structure-only, so the query
    // vector itself stays reconstructible from its keywords — content
    // expansion would add weighted terms that plain keywords cannot
    // carry).
    let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
    for _ in 0..2 {
        let top = session.top_k(2);
        let nodes: Vec<_> = top.iter().map(|r| r.node).collect();
        session
            .feedback_with(
                &nodes,
                &orex::reformulate::ReformulateParams::structure_only(0.5),
            )
            .unwrap();
    }
    let trained_rates = session.rates().clone();
    let expected: Vec<(u32, f64)> = session
        .top_k(10)
        .iter()
        .map(|r| (r.node.raw(), r.score))
        .collect();

    // Snapshot graph + rates, reload into a fresh system.
    let graph2 = decode_graph(encode_graph(sys.graph())).unwrap();
    let rates2 = decode_rates(encode_rates(&trained_rates), graph2.schema()).unwrap();
    assert_eq!(rates2, trained_rates);
    let sys2 = ObjectRankSystem::new(graph2, rates2, SystemConfig::default());
    // Re-running the *expanded* query: reconstruct it from the session.
    let keywords: Vec<String> = session
        .query_vector()
        .iter()
        .map(|(t, _)| t.to_string())
        .collect();
    let session2 = QuerySession::start(&sys2, &Query::new(keywords)).unwrap();
    let got: Vec<(u32, f64)> = session2
        .top_k(10)
        .iter()
        .map(|r| (r.node.raw(), r.score))
        .collect();
    // Same nodes in the same order. (Scores match to convergence slack:
    // both sessions converge the same query under the same rates, but
    // warm-start seeds differ — sys2's global rank uses the trained
    // rates.)
    let nodes_a: Vec<u32> = expected.iter().map(|&(n, _)| n).collect();
    let nodes_b: Vec<u32> = got.iter().map(|&(n, _)| n).collect();
    assert_eq!(nodes_a, nodes_b);
    let _ = gt;
}

#[test]
fn precomputed_ranks_answer_a_query_after_a_byte_roundtrip() {
    let d = dataset();
    let sys = ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default());
    let matrix = orex::authority::TransitionMatrix::new(sys.transfer(), sys.initial_rates());
    let okapi = orex::ir::Okapi::default();
    let terms: Vec<String> = ["data", "queri", "graph"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let params = orex::authority::RankParams {
        epsilon: 1e-9,
        max_iterations: 500,
        ..sys.config().rank
    };
    let hash = fnv1a(&encode_graph(sys.graph()));
    let built = PrecomputedRanks::build(&matrix, sys.index(), &okapi, &terms, &params, hash);
    // Roundtrip the store through bytes: manifest and vectors survive.
    let store = PrecomputedRanks::decode(built.encode()).unwrap();
    assert_eq!(store.dataset_hash(), hash);
    assert_eq!(store.node_count(), sys.graph().node_count());
    assert_eq!(store.terms(), built.terms());

    // A covered multi-keyword query is answered by linear combination,
    // with no iteration, and agrees with a live run to convergence slack
    // plus f32 storage rounding.
    let qv = orex::ir::QueryVector::initial(&Query::parse("data graph"), sys.index().analyzer());
    assert!(store.covers(&qv, sys.index()));
    let combined = store.combine(&qv, &okapi).unwrap();
    let live =
        orex::authority::object_rank2(&matrix, sys.index(), &qv, &okapi, &params, None).unwrap();
    let diff: f64 = combined
        .iter()
        .zip(&live.scores)
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(diff < params.epsilon * 10.0 + 1e-4, "L1 diff {diff}");
}

#[test]
fn text_format_feeds_the_full_pipeline() {
    // Export a generated graph to text, re-import, and query it.
    let d = dataset();
    let text = to_text(&d.graph);
    let graph = parse_text(&text).unwrap();
    assert_eq!(graph.node_count(), d.graph.node_count());
    assert_eq!(graph.edge_count(), d.graph.edge_count());
    let sys = ObjectRankSystem::new(graph, d.ground_truth, SystemConfig::default());
    let session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
    assert!(!session.top_k(5).is_empty());
}
