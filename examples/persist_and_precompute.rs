//! Persistence and precomputation: snapshot a dataset, train rates, save
//! them, and build the BHP04-style precomputed single-keyword rank
//! vectors that Section 6.2 prescribes for exploratory search over large
//! graphs — then answer a multi-keyword query from them by linear
//! combination, with no iteration.
//!
//! Run with: `cargo run --release --example persist_and_precompute`

use orex::authority::{object_rank2, TransitionMatrix};
use orex::datagen::Preset;
use orex::ir::{Okapi, Query, QueryVector};
use orex::{ObjectRankSystem, QuerySession, SystemConfig};
use orex_store::{
    encode_graph, fnv1a, load_graph, load_rates, save_graph, save_rates, PrecomputedRanks,
};

fn main() {
    let dir = std::env::temp_dir().join("orex-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph_path = dir.join("dblp-top.graph");
    let rates_path = dir.join("trained.rates");
    let ranks_path = dir.join("ranks.bin");

    // --- build, train, persist -------------------------------------
    let dataset = Preset::DblpTop.generate(0.05);
    println!(
        "generated {}: {} nodes, {} edges",
        dataset.name,
        dataset.graph.node_count(),
        dataset.graph.edge_count()
    );
    save_graph(&dataset.graph, &graph_path).expect("save graph");
    let system =
        ObjectRankSystem::new(dataset.graph, dataset.ground_truth, SystemConfig::default());

    let mut session = QuerySession::start(&system, &Query::parse("data")).expect("query");
    for _ in 0..2 {
        let top = session.top_k(2);
        let nodes: Vec<_> = top.iter().map(|r| r.node).collect();
        session.feedback(&nodes).expect("feedback");
    }
    save_rates(session.rates(), &rates_path).expect("save rates");
    println!(
        "trained rates for {} rounds and saved them to {}",
        session.round(),
        rates_path.display()
    );

    // --- precompute the single-keyword vectors ----------------------
    let matrix = TransitionMatrix::new(system.transfer(), session.rates());
    let terms: Vec<String> = ["data", "query", "mining", "index", "graph"]
        .iter()
        .filter_map(|kw| system.index().analyzer().analyze_term(kw))
        .collect();
    let t = std::time::Instant::now();
    let ranks = PrecomputedRanks::build(
        &matrix,
        system.index(),
        &Okapi::default(),
        &terms,
        &system.config().rank,
        fnv1a(&encode_graph(system.graph())),
    );
    ranks.save(&ranks_path).expect("save ranks");
    println!(
        "precomputed {} rank vectors in {:.1?} -> {}",
        ranks.len(),
        t.elapsed(),
        ranks_path.display()
    );

    // --- reload everything and answer a query from the vectors ------
    let graph = load_graph(&graph_path).expect("load graph");
    let rates = load_rates(&rates_path, graph.schema()).expect("load rates");
    let system2 = ObjectRankSystem::new(graph, rates, SystemConfig::default());
    let ranks = PrecomputedRanks::load(&ranks_path).expect("load ranks");
    assert_eq!(
        ranks.dataset_hash(),
        fnv1a(&encode_graph(system2.graph())),
        "the vectors were computed for this graph"
    );

    let qv = QueryVector::initial(&Query::parse("data mining"), system2.index().analyzer());
    let matrix2 = TransitionMatrix::new(system2.transfer(), system2.initial_rates());
    let t = std::time::Instant::now();
    let combined = ranks
        .combine(&qv, &Okapi::default())
        .expect("both keywords are precomputed");
    let combine_time = t.elapsed();
    let t = std::time::Instant::now();
    let live = object_rank2(
        &matrix2,
        system2.index(),
        &qv,
        &Okapi::default(),
        &system2.config().rank,
        None,
    )
    .expect("live run");
    let live_time = t.elapsed();
    let diff: f64 = combined
        .iter()
        .zip(&live.scores)
        .map(|(a, b)| (a - b).abs())
        .sum();
    println!(
        "\nmulti-keyword query after reload: combined in {combine_time:.1?} vs {} live \
         iterations in {live_time:.1?} (L1 difference {diff:.1e})",
        live.iterations
    );
    let _ = std::fs::remove_dir_all(&dir);
}
