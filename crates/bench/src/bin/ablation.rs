//! Ablation studies for the design choices DESIGN.md §6 calls out:
//!
//! 1. flow-adjustment fixpoint (Eq. 10) vs the naive single-pass
//!    proportional reduction the paper's Section 4 dismisses ("will fail
//!    if there are cycles");
//! 2. explaining-subgraph radius L ∈ {1..5}: size / coverage / cost
//!    (the paper picks L = 3);
//! 3. warm start on/off for reformulated queries (Section 6.2);
//! 4. weighted (ObjectRank2) vs 0/1 (ObjectRank) base set: ranking
//!    divergence;
//! 5. the served ranking (the paper's ε) against its ε = 1e-12 fixpoint:
//!    top-10 set and order agreement, the true L1 error against the
//!    contraction bound d/(1−d)·last residual, and the sweeps each needs.
//!
//! Run: `cargo run -p orex-bench --release --bin ablation [-- --scale 0.25]`

use orex_authority::{
    object_rank, object_rank2, power_iteration, query_base_set, top_k, RankParams, TransitionMatrix,
};
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
    // Ablation 5: how exact is the served ranking? The paper's ε against
    // each query's own ε = 1e-12 fixpoint, both from the served warm start.
    // ---------------------------------------------------------------
    println!(
        "\n[5] Served ranking (eps {}) vs its eps 1e-12 fixpoint",
        system.config().rank.epsilon
    );
    println!(
        "    {:<16} {:>4} {:>6} {:>10} {:>10} {:>7} {:>7}",
        "query", "set", "order", "true L1", "bound", "sweeps", "fixpt"
    );
    let served_params = system.config().rank;
    let fixpoint_params = RankParams {
        epsilon: 1e-12,
        max_iterations: 1000,
        ..served_params
    };
    let d = served_params.damping;
    let top10 =
        |scores: &[f64]| -> Vec<u32> { top_k(scores, 10, 0.0).iter().map(|r| r.node).collect() };
    let mut rows = Vec::new();
    let (mut set_agree, mut order_agree, mut within_bound) = (0usize, 0usize, 0usize);
    let (mut errors, mut bounds) = (Vec::new(), Vec::new());
    let (mut served_sweeps, mut fixpoint_sweeps) = (Vec::new(), Vec::new());
    for query in pick_queries(&system, &keywords, 35) {
        let qv = QueryVector::initial(&query, system.index().analyzer());
        let Ok(base) = query_base_set(system.index(), &qv, &system.config().okapi) else {
            continue;
        };
        let served = power_iteration(&matrix, &base, &served_params, system.global_scores());
        let fixpoint = power_iteration(&matrix, &base, &fixpoint_params, system.global_scores());
        let (top_s, top_f) = (top10(&served.scores), top10(&fixpoint.scores));
        let same_set = top_s.iter().all(|n| top_f.contains(n)) && top_s.len() == top_f.len();
        let same_order = top_s == top_f;
        let true_l1: f64 = served
            .scores
            .iter()
            .zip(&fixpoint.scores)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let bound = d / (1.0 - d) * served.residuals.last().copied().unwrap_or(0.0);
        set_agree += usize::from(same_set);
        order_agree += usize::from(same_order);
        within_bound += usize::from(true_l1 <= bound);
        errors.push(true_l1);
        bounds.push(bound);
        served_sweeps.push(served.iterations as f64);
        fixpoint_sweeps.push(fixpoint.iterations as f64);
        println!(
            "    {:<16} {:>4} {:>6} {true_l1:>10.2e} {bound:>10.2e} {:>7} {:>7}",
            query.to_string(),
            if same_set { "yes" } else { "no" },
            if same_order { "yes" } else { "no" },
            served.iterations,
            fixpoint.iterations
        );
        rows.push(serde_json::json!({
            "query": query.to_string(),
            "top10_set_agrees": same_set,
            "top10_order_agrees": same_order,
            "true_l1_error": true_l1,
            "l1_bound": bound,
            "served_sweeps": served.iterations,
            "fixpoint_sweeps": fixpoint.iterations,
            "fixpoint_converged": fixpoint.converged,
        }));
    }
    let total = rows.len();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "    top-10 set agrees on {set_agree}/{total}, order on {order_agree}/{total}; \
         true L1 within the bound on {within_bound}/{total} (mean {:.2e} vs {:.2e}); \
         mean sweeps {:.1} served vs {:.1} fixpoint",
        mean(&errors),
        mean(&bounds),
        mean(&served_sweeps),
        mean(&fixpoint_sweeps)
    );
    report.insert(
        "served_vs_fixpoint".into(),
        serde_json::json!({
            "served_epsilon": served_params.epsilon,
            "fixpoint_epsilon": fixpoint_params.epsilon,
            "top10_set_agreement": format!("{set_agree}/{total}"),
            "top10_order_agreement": format!("{order_agree}/{total}"),
            "within_bound": format!("{within_bound}/{total}"),
            "mean_true_l1_error": mean(&errors),
            "mean_l1_bound": mean(&bounds),
            "mean_served_sweeps": mean(&served_sweeps),
            "mean_fixpoint_sweeps": mean(&fixpoint_sweeps),
            "queries": rows,
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
