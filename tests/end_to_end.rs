//! End-to-end integration tests across crates: generated dataset ->
//! system -> query -> explanation -> feedback -> reformulated query,
//! checking the cross-crate invariants the paper's equations impose.

use orex::authority::BaseSet;
use orex::core::{ObjectRankSystem, QuerySession, SystemConfig};
use orex::datagen::{generate_dblp, DblpConfig, Preset, TextConfig};
use orex::explain::to_text;
use orex::ir::Query;
use orex::reformulate::ReformulateParams;

fn system() -> ObjectRankSystem {
    let d = generate_dblp(
        "e2e",
        &DblpConfig {
            papers: 800,
            authors: 300,
            conferences: 6,
            years_per_conference: 5,
            text: TextConfig {
                vocab_size: 1500,
                topics: 10,
                ..TextConfig::default()
            },
            ..DblpConfig::default()
        },
    );
    ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default())
}

#[test]
fn scores_are_probability_like() {
    let sys = system();
    let session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
    let sum: f64 = session.scores().iter().sum();
    assert!(sum > 0.0 && sum <= 1.0 + 1e-6, "score mass {sum}");
    assert!(session.scores().iter().all(|&s| s >= 0.0 && s.is_finite()));
}

#[test]
fn explanation_accounts_for_target_score() {
    // For a target outside the base set, its converged score is exactly
    // its explained inflow (with an unbounded radius): with radius L the
    // explained inflow is a lower bound that should still cover most of
    // the score mass for well-connected targets. The identity only holds
    // at a tight fixpoint, so this test converges far past the paper's
    // operational 0.002 threshold.
    let d = generate_dblp(
        "e2e-tight",
        &DblpConfig {
            papers: 800,
            authors: 300,
            conferences: 6,
            years_per_conference: 5,
            text: TextConfig {
                vocab_size: 1500,
                topics: 10,
                ..TextConfig::default()
            },
            ..DblpConfig::default()
        },
    );
    let mut config = SystemConfig::default();
    config.rank.epsilon = 1e-12;
    config.rank.max_iterations = 2000;
    let sys = ObjectRankSystem::new(d.graph, d.ground_truth, config);
    let session = QuerySession::start(&sys, &Query::parse("mining")).unwrap();
    let analyzer = sys.index().analyzer();
    let term = analyzer.analyze_term("mining").unwrap();
    let tid = sys.index().term_id(&term).unwrap();
    let top = session.top_k(20);
    let outside = top
        .iter()
        .find(|r| sys.index().tf(r.node.raw(), tid) == 0)
        .expect("some top result lacks the keyword");
    let expl = session.explain(outside.node).unwrap();
    let inflow = expl.target_inflow();
    let score = session.scores()[outside.node.index()];
    assert!(inflow > 0.0);
    assert!(
        inflow <= score + 1e-9,
        "explained inflow {inflow} cannot exceed the score {score}"
    );
    assert!(
        inflow > 0.2 * score,
        "radius-3 explanation should cover a meaningful share: {inflow} of {score}"
    );
}

#[test]
fn feedback_improves_rates_similarity_to_ground_truth() {
    let d = generate_dblp(
        "train",
        &DblpConfig {
            papers: 800,
            authors: 300,
            conferences: 6,
            years_per_conference: 5,
            ..DblpConfig::default()
        },
    );
    let gt = d.ground_truth.clone();
    let sys = ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default());
    // Ground-truth session defines what "relevant" means.
    let query = Query::parse("data");
    let gt_session = QuerySession::start(&sys, &query).unwrap();
    let relevant: Vec<_> = gt_session.top_k(5).iter().map(|r| r.node).collect();

    // Trainee starts from rescaled-uniform rates.
    let start = orex::graph::TransferRates::normalized_uniform(sys.graph().schema(), 0.3);
    let before = start.cosine_similarity(&gt);
    let mut session = QuerySession::start_with(&sys, &query, start).unwrap();
    for _ in 0..3 {
        let _ = session.feedback_with(&relevant, &ReformulateParams::structure_only(0.5));
    }
    let after = session.rates().cosine_similarity(&gt);
    assert!(
        after > before,
        "training should approach ground truth: {before} -> {after}"
    );
}

#[test]
fn reformulated_rates_always_valid_across_rounds() {
    let sys = system();
    let mut session = QuerySession::start(&sys, &Query::parse("query")).unwrap();
    for _ in 0..4 {
        let top = session.top_k(3);
        if session.feedback(&[top[0].node]).is_ok() {
            session.rates().validate(sys.graph().schema()).unwrap();
        }
    }
}

#[test]
fn rendering_works_on_generated_data() {
    let sys = system();
    let session = QuerySession::start(&sys, &Query::parse("index")).unwrap();
    let top = session.top_k(3);
    let expl = session.explain(top[0].node).unwrap();
    let text = to_text(&expl, sys.graph(), 2);
    assert!(text.contains("Why"));
    let dot = orex::explain::to_dot(&expl, sys.graph());
    assert!(dot.starts_with("digraph"));
}

#[test]
fn bio_pipeline_end_to_end() {
    let d = Preset::Ds7Cancer.generate(0.03);
    let sys = ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default());
    let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
    let top = session.top_k(10);
    assert!(!top.is_empty());
    // Authority flows across source boundaries: some non-PubMed entity
    // appears despite keywords living mostly in abstracts.
    let stats = session.feedback(&[top[0].node]).unwrap();
    assert!(stats.rank_converged);
}

#[test]
fn base_set_matches_manual_ir_computation() {
    let sys = system();
    let q = orex::ir::QueryVector::initial(&Query::parse("graph data"), sys.index().analyzer());
    let pairs = sys.index().base_set_scores(&q, &sys.config().okapi);
    let base = BaseSet::weighted(pairs.clone()).unwrap();
    // Probabilities proportional to IR scores.
    let total: f64 = pairs.iter().map(|&(_, s)| s).sum();
    for &(doc, s) in pairs.iter().take(50) {
        assert!((base.probability(doc) - s / total).abs() < 1e-12);
    }
}

#[test]
fn sessions_are_deterministic() {
    let sys = system();
    let run = || {
        let mut s = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let top = s.top_k(5);
        s.feedback(&[top[0].node]).unwrap();
        s.top_k(10)
            .iter()
            .map(|r| (r.node.raw(), r.score))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for ((n1, s1), (n2, s2)) in a.iter().zip(&b) {
        assert_eq!(n1, n2);
        assert_eq!(s1, s2);
    }
}

#[test]
fn reformulation_delta_explains_the_change() {
    // Explain the same target before and after a structure-only feedback
    // round; the delta shows how reformulation redistributed authority.
    let sys = system();
    let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
    let top = session.top_k(5);
    let target = top[0].node;
    let before = session.explain(target).unwrap();
    session
        .feedback_with(&[target], &ReformulateParams::structure_only(0.5))
        .unwrap();
    let after = session.explain(target).unwrap();
    let delta = orex::explain::diff(&before, &after, 10).unwrap();
    assert_eq!(delta.target, target);
    // The rates changed, so some edge flow must have changed.
    assert!(
        !delta.edge_changes.is_empty() || (delta.inflow_after - delta.inflow_before).abs() > 0.0,
        "a reformulation round should move some flow"
    );
    let text = orex::explain::delta_to_text(&delta, sys.graph());
    assert!(text.contains("Reformulation effect"));
}

#[test]
fn meta_path_summary_explains_dblp_results() {
    let sys = system();
    let session = QuerySession::start(&sys, &Query::parse("mining")).unwrap();
    let top = session.top_k(5);
    let summary = session.explain_summary(top[0].node, 8).unwrap();
    assert!(!summary.is_empty());
    // Signatures must be valid schema-level paths over DBLP labels.
    for m in &summary {
        assert!(
            m.signature.starts_with("Paper")
                || m.signature.starts_with("Year")
                || m.signature.starts_with("Author")
                || m.signature.starts_with("Conference"),
            "{}",
            m.signature
        );
        assert!(m.total_flow > 0.0);
    }
}
