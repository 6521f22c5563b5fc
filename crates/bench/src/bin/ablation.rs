//! Ablation studies for the design choices DESIGN.md §6 calls out:
//!
//! 1. flow-adjustment fixpoint (Eq. 10) vs the naive single-pass
//!    proportional reduction the paper's Section 4 dismisses ("will fail
//!    if there are cycles");
//! 2. explaining-subgraph radius L ∈ {1..5}: size / coverage / cost
//!    (the paper picks L = 3);
//! 3. warm start on/off for reformulated queries (Section 6.2);
//! 4. weighted (ObjectRank2) vs 0/1 (ObjectRank) base set: ranking
//!    divergence.
//!
//! Run: `cargo run -p orex-bench --release --bin ablation [-- --scale 0.25]`

use orex_authority::{object_rank, object_rank2, top_k, TransitionMatrix};
use orex_bench::{build_system, pick_queries, scale_arg, write_json};
use orex_core::{QuerySession, SystemConfig};
use orex_datagen::Preset;
use orex_eval::kendall_tau;
use orex_explain::{ExplainParams, Explanation};
use orex_graph::NodeId;
use orex_ir::QueryVector;

fn main() {
    let scale = scale_arg(0.25);
    let (system, _, keywords) = build_system(Preset::DblpTop, scale, SystemConfig::default());
    let queries = pick_queries(&system, &keywords, 3);
    let mut report = serde_json::Map::new();

    // ---------------------------------------------------------------
    // Ablation 1: fixpoint vs naive single-pass flow adjustment.
    // ---------------------------------------------------------------
    println!("\n[1] Equation 10 fixpoint vs naive single-pass adjustment");
    println!("    (relative error of naive adjusted flows on cyclic subgraphs)");
    let mut worst_err: f64 = 0.0;
    let mut samples = 0usize;
    for query in &queries {
        let Ok(session) = QuerySession::start(&system, query) else {
            continue;
        };
        for r in session.top_k(3) {
            if session.explain(r.node).is_err() {
                continue;
            }
            // Naive: one pass of Equation 10 (h = alpha-sum toward kept
            // edges, no iteration), then Eq. 7. Exactly right on DAG-like
            // subgraphs, wrong in cycles.
            let tight = tight_explanation(&system, &session, r.node);
            let Some(tight) = tight else { continue };
            let mut naive_h: std::collections::HashMap<u32, f64> = Default::default();
            for node in tight.nodes() {
                if node == tight.target() {
                    naive_h.insert(node.raw(), 1.0);
                } else {
                    let s: f64 = tight.out_edges(node).map(|e| e.alpha).sum();
                    naive_h.insert(node.raw(), s.min(1.0));
                }
            }
            for e in tight.edges() {
                let naive = naive_h[&e.target.raw()] * e.original_flow;
                if e.adjusted_flow > 1e-12 {
                    let err = (naive - e.adjusted_flow).abs() / e.adjusted_flow;
                    worst_err = worst_err.max(err);
                    samples += 1;
                }
            }
        }
    }
    println!("    {samples} edges compared; worst naive relative error: {worst_err:.2}x");
    report.insert(
        "naive_vs_fixpoint_worst_rel_error".into(),
        serde_json::json!(worst_err),
    );

    // ---------------------------------------------------------------
    // Ablation 2: radius sweep.
    // ---------------------------------------------------------------
    println!("\n[2] Explaining-subgraph radius L sweep");
    println!(
        "    {:>2} {:>10} {:>10} {:>12} {:>10}",
        "L", "nodes", "edges", "coverage", "time"
    );
    let mut radius_rows = Vec::new();
    if let Ok(session) = QuerySession::start(&system, &queries[0]) {
        let target = session
            .top_k(10)
            .into_iter()
            .find(|r| {
                // Prefer a non-base-set target so coverage is meaningful.
                let term = system
                    .index()
                    .analyzer()
                    .analyze_term(&queries[0].keywords[0]);
                term.and_then(|t| system.index().term_id(&t))
                    .map(|t| system.index().tf(r.node.raw(), t) == 0)
                    .unwrap_or(false)
            })
            .map(|r| r.node);
        if let Some(target) = target {
            let score = session.scores()[target.index()];
            for radius in 1..=5usize {
                let t = std::time::Instant::now();
                let params = ExplainParams {
                    radius,
                    epsilon: 1e-9,
                    ..ExplainParams::default()
                };
                let base = orex_authority::BaseSet::weighted(
                    system
                        .index()
                        .base_set_scores(session.query_vector(), &system.config().okapi),
                )
                .unwrap();
                match Explanation::explain(
                    system.transfer(),
                    session.rates(),
                    session.scores(),
                    base.nodes(),
                    target,
                    &params,
                ) {
                    Ok(expl) => {
                        let coverage = expl.target_inflow() / score;
                        let elapsed = t.elapsed();
                        println!(
                            "    {:>2} {:>10} {:>10} {:>11.1}% {:>10.1?}",
                            radius,
                            expl.node_count(),
                            expl.edge_count(),
                            coverage * 100.0,
                            elapsed
                        );
                        radius_rows.push(serde_json::json!({
                            "radius": radius,
                            "nodes": expl.node_count(),
                            "edges": expl.edge_count(),
                            "coverage": coverage,
                            "seconds": elapsed.as_secs_f64(),
                        }));
                    }
                    Err(_) => println!("    {radius:>2} unreachable at this radius"),
                }
            }
        }
    }
    report.insert("radius_sweep".into(), serde_json::json!(radius_rows));

    // ---------------------------------------------------------------
    // Ablation 3: warm start on/off.
    // ---------------------------------------------------------------
    println!("\n[3] Warm start for reformulated queries (Section 6.2)");
    let mut with_ws = 0.0;
    let mut without_ws = 0.0;
    let mut n_rounds = 0usize;
    for query in &queries {
        let Ok(mut session) = QuerySession::start(&system, query) else {
            continue;
        };
        for _ in 0..3 {
            let top = session.top_k(2);
            if top.is_empty() {
                break;
            }
            let nodes: Vec<_> = top.iter().map(|r| r.node).collect();
            let Ok(stats) = session.feedback(&nodes) else {
                break;
            };
            with_ws += stats.rank_iterations as f64;
            // Re-run the same reformulated query cold.
            let matrix = TransitionMatrix::new(system.transfer(), session.rates());
            if let Ok(cold) = object_rank2(
                &matrix,
                system.index(),
                session.query_vector(),
                &system.config().okapi,
                &system.config().rank,
                None,
            ) {
                without_ws += cold.iterations as f64;
                n_rounds += 1;
            }
        }
    }
    let n = n_rounds.max(1) as f64;
    println!(
        "    avg iterations with warm start: {:.1}   without: {:.1}",
        with_ws / n,
        without_ws / n
    );
    report.insert(
        "warm_start".into(),
        serde_json::json!({
            "with": with_ws / n,
            "without": without_ws / n,
            "rounds": n_rounds,
        }),
    );

    // ---------------------------------------------------------------
    // Ablation 4: weighted vs uniform base set.
    // ---------------------------------------------------------------
    println!("\n[4] Weighted (ObjectRank2) vs 0/1 (ObjectRank) base set");
    let matrix = TransitionMatrix::new(system.transfer(), system.initial_rates());
    let mut taus = Vec::new();
    for query in &queries {
        let qv = QueryVector::initial(query, system.index().analyzer());
        let (Ok(w), Ok(u)) = (
            object_rank2(
                &matrix,
                system.index(),
                &qv,
                &system.config().okapi,
                &system.config().rank,
                None,
            ),
            object_rank(&matrix, system.index(), &qv, &system.config().rank, None),
        ) else {
            continue;
        };
        let top_w: Vec<u32> = top_k(&w.scores, 20, 0.0).iter().map(|r| r.node).collect();
        let top_u: Vec<u32> = top_k(&u.scores, 20, 0.0).iter().map(|r| r.node).collect();
        let tau = kendall_tau(&top_w, &top_u);
        let overlap = top_w
            .iter()
            .take(10)
            .filter(|n| top_u[..10.min(top_u.len())].contains(n))
            .count();
        println!(
            "    {:<14} tau(top20) = {tau:.3}   overlap@10 = {overlap}",
            query.to_string()
        );
        taus.push(serde_json::json!({
            "query": query.to_string(),
            "kendall_tau_top20": tau,
            "overlap_at_10": overlap,
        }));
    }
    report.insert("weighted_vs_uniform_base".into(), serde_json::json!(taus));

    // ---------------------------------------------------------------
    // Ablation 5: top-k early termination (BHP04-style interactive
    // optimization).
    // ---------------------------------------------------------------
    println!("\n[5] Top-k early termination vs full convergence");
    let mut full_iters = 0.0;
    let mut early_iters = 0.0;
    let mut agree = 0usize;
    let mut total = 0usize;
    for query in &queries {
        let qv = QueryVector::initial(query, system.index().analyzer());
        let matrix = TransitionMatrix::new(system.transfer(), system.initial_rates());
        let Ok(base) = orex_authority::BaseSet::weighted(
            system.index().base_set_scores(&qv, &system.config().okapi),
        ) else {
            continue;
        };
        let mut tight = system.config().rank;
        tight.epsilon = 1e-8;
        tight.max_iterations = 500;
        let full = orex_authority::power_iteration(&matrix, &base, &tight, None);
        let early = orex_authority::power_iteration_topk(
            &matrix,
            &base,
            &tight,
            &orex_authority::TopKParams::default(),
            None,
        );
        full_iters += full.iterations as f64;
        early_iters += early.result.iterations as f64;
        let full_top: Vec<u32> = top_k(&full.scores, 10, 0.0)
            .iter()
            .map(|r| r.node)
            .collect();
        let early_top: Vec<u32> = early.top.iter().map(|r| r.node).collect();
        if full_top == early_top {
            agree += 1;
        }
        total += 1;
    }
    let n = total.max(1) as f64;
    println!(
        "    avg iterations: full {:.1} vs top-10 stable {:.1}; top-10 identical on {agree}/{total} queries",
        full_iters / n,
        early_iters / n
    );
    report.insert(
        "topk_early_termination".into(),
        serde_json::json!({
            "full_avg_iterations": full_iters / n,
            "early_avg_iterations": early_iters / n,
            "topk_agreement": format!("{agree}/{total}"),
        }),
    );

    write_json("ablation", &serde_json::Value::Object(report));
}

/// Tightly-converged explanation for ablation 1 (so the fixpoint is the
/// reference).
fn tight_explanation(
    system: &orex_core::ObjectRankSystem,
    session: &QuerySession<'_>,
    target: NodeId,
) -> Option<Explanation> {
    let base = orex_authority::BaseSet::weighted(
        system
            .index()
            .base_set_scores(session.query_vector(), &system.config().okapi),
    )
    .ok()?;
    Explanation::explain(
        system.transfer(),
        session.rates(),
        session.scores(),
        base.nodes(),
        target,
        &ExplainParams {
            epsilon: 1e-12,
            ..ExplainParams::default()
        },
    )
    .ok()
}
