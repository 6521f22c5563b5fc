//! Query sessions: execute, inspect, explain, give feedback, repeat.
//!
//! A [`QuerySession`] owns the evolving state of one user interaction —
//! the query vector, the authority transfer rates, and the converged
//! ObjectRank2 scores — and implements the feedback loop of Section 5:
//! each [`QuerySession::feedback`] call explains the selected objects,
//! reformulates query and rates, and re-executes with the previous scores
//! as warm start (Section 6.2). Per-stage wall times and iteration counts
//! are recorded so the Figures 14–17 experiments read them off directly.

use crate::system::ObjectRankSystem;
use orex_authority::{object_rank2, top_k, BaseSet, Ranked, RankingError, TransitionMatrix};
use orex_explain::{ExplainError, Explanation};
use orex_graph::{NodeId, TransferRates};
use orex_ir::{Query, QueryVector};
use orex_reformulate::{reformulate, ReformulateParams};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A ranked result with its display name.
#[derive(Clone, Debug)]
pub struct ResultObject {
    /// The node.
    pub node: NodeId,
    /// Its ObjectRank2 score.
    pub score: f64,
    /// The node's type label.
    pub label: String,
    /// A short display name.
    pub display: String,
}

/// Timing and iteration record of one pipeline step (initial query or one
/// feedback/reformulation round) — the raw data behind Figures 14–17 and
/// Table 3.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// ObjectRank2 execution wall time.
    pub rank_time: Duration,
    /// ObjectRank2 power iterations.
    pub rank_iterations: usize,
    /// Whether ObjectRank2 converged within the threshold.
    pub rank_converged: bool,
    /// Explaining-subgraph construction wall time (zero for the initial
    /// query).
    pub explain_construction_time: Duration,
    /// Explaining-ObjectRank2 (flow-adjustment fixpoint) wall time.
    pub explain_adjustment_time: Duration,
    /// Mean fixpoint iterations across the feedback objects (Table 3).
    pub explain_iterations: f64,
    /// Query reformulation wall time.
    pub reformulate_time: Duration,
}

/// Errors surfaced by sessions.
#[derive(Debug)]
pub enum SessionError {
    /// The (possibly reformulated) query produced no base set.
    Ranking(RankingError),
    /// A feedback object could not be explained.
    Explain(ExplainError),
    /// Feedback was given with no objects selected.
    NoFeedbackObjects,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Ranking(e) => write!(f, "ranking failed: {e}"),
            SessionError::Explain(e) => write!(f, "explanation failed: {e}"),
            SessionError::NoFeedbackObjects => write!(f, "no feedback objects given"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<RankingError> for SessionError {
    fn from(e: RankingError) -> Self {
        SessionError::Ranking(e)
    }
}

impl From<ExplainError> for SessionError {
    fn from(e: ExplainError) -> Self {
        SessionError::Explain(e)
    }
}

/// One converged score vector with the memoised head of its ranking.
///
/// Built once per ranking and never edited: the session, its snapshots
/// and every clone of them share one instance, and a feedback round
/// installs a fresh one. That is what lets a server hand the same
/// |V|-sized vector to its result cache, its session table and any
/// number of concurrent requests without copying it.
#[derive(Debug)]
struct RankedScores {
    values: Vec<f64>,
    /// `(k, top_k(values, k, 0.0))` for the largest `k` asked for so far.
    top: Mutex<(usize, Vec<Ranked>)>,
}

impl RankedScores {
    fn new(values: Vec<f64>) -> Arc<Self> {
        Arc::new(Self {
            values,
            top: Mutex::new((0, Vec::new())),
        })
    }

    /// `top_k(values, k, 0.0)`, scanning `values` only when `k` exceeds
    /// what the memo can answer. `top_k` orders by (score descending,
    /// node ascending), a total order, so the list for `k` is a prefix
    /// of the list for any larger `k`; a memoised list shorter than the
    /// `k` it was computed for holds every positive score and answers
    /// every `k`.
    fn top_k(&self, k: usize) -> Vec<Ranked> {
        // The memo is replaced whole, so a poisoned lock still guards a
        // consistent pair.
        let mut memo = self.top.lock().unwrap_or_else(PoisonError::into_inner);
        if k > memo.0 && memo.1.len() == memo.0 {
            *memo = (k, top_k(&self.values, k, 0.0));
        }
        memo.1[..k.min(memo.1.len())].to_vec()
    }
}

/// A captured session state (see [`QuerySession::snapshot`]). Cloning
/// one shares its score vector rather than copying it.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    query: QueryVector,
    rates: TransferRates,
    scores: Arc<RankedScores>,
    history: Vec<StepStats>,
}

impl SessionSnapshot {
    /// Assembles a snapshot from externally computed state — the entry
    /// point for serving paths that obtain scores without running a
    /// session, e.g. by combining precomputed single-keyword vectors
    /// (the paper's Linearity property). The resulting snapshot resumes
    /// like any other: feedback rounds re-rank live from these scores.
    ///
    /// `history` starts with a single default step (index 0 is the
    /// initial query, whose iteration count is genuinely 0 here).
    pub fn from_parts(query: QueryVector, rates: TransferRates, scores: Vec<f64>) -> Self {
        Self {
            query,
            rates,
            scores: RankedScores::new(scores),
            history: vec![StepStats::default()],
        }
    }

    /// The score vector captured in this snapshot.
    pub fn scores(&self) -> &[f64] {
        &self.scores.values
    }

    /// The query vector captured in this snapshot.
    pub fn query_vector(&self) -> &QueryVector {
        &self.query
    }

    /// The rates captured in this snapshot.
    pub fn rates(&self) -> &TransferRates {
        &self.rates
    }
}

/// One user's evolving query interaction.
pub struct QuerySession<'s> {
    system: &'s ObjectRankSystem,
    query: QueryVector,
    rates: TransferRates,
    /// Per-transfer-edge alpha weights for `rates`, derived on the first
    /// explanation that needs them (see [`Self::weights`]).
    weights: OnceLock<Vec<f64>>,
    /// Converged ObjectRank2 scores of the current query, shared with
    /// every snapshot taken of them.
    scores: Arc<RankedScores>,
    /// Stats per step: index 0 is the initial query.
    history: Vec<StepStats>,
}

/// Ranks `query` under `rates` from `warm_start`: the execution step of
/// the initial query and of every feedback round. The edge weights
/// derived for the ranking go into its transition matrix and are dropped
/// with it. The returned stats carry the rank fields only.
fn rank(
    system: &ObjectRankSystem,
    rates: &TransferRates,
    query: &QueryVector,
    warm_start: Option<&[f64]>,
) -> Result<(Arc<RankedScores>, StepStats), SessionError> {
    let telemetry = orex_telemetry::global();
    let weights = system.transfer().weights(rates);
    let matrix = TransitionMatrix::from_edge_weights(system.transfer(), weights);
    let start = Instant::now();
    let rank_span = telemetry.span("session.rank_us");
    let mut rank_tspan = orex_telemetry::tracer().span("session.rank");
    let result = object_rank2(
        &matrix,
        system.index(),
        query,
        &system.config().okapi,
        &system.config().rank,
        warm_start,
    )?;
    if rank_tspan.is_recording() {
        rank_tspan.attr_u64("iterations", result.iterations as u64);
        rank_tspan.attr_u64("converged", u64::from(result.converged));
    }
    drop(rank_tspan);
    drop(rank_span);
    let stats = StepStats {
        rank_time: start.elapsed(),
        rank_iterations: result.iterations,
        rank_converged: result.converged,
        ..StepStats::default()
    };
    Ok((RankedScores::new(result.scores), stats))
}

impl<'s> QuerySession<'s> {
    /// Executes the initial query with the system's initial rates.
    pub fn start(system: &'s ObjectRankSystem, query: &Query) -> Result<Self, SessionError> {
        Self::start_with(system, query, system.initial_rates().clone())
    }

    /// Executes the initial query with explicit starting rates (used by
    /// the training experiments, which initialize all rates to 0.3). The
    /// session derives its own edge weights only if an explanation is
    /// asked for.
    pub fn start_with(
        system: &'s ObjectRankSystem,
        query: &Query,
        rates: TransferRates,
    ) -> Result<Self, SessionError> {
        let telemetry = orex_telemetry::global();
        let tracer = orex_telemetry::tracer();
        telemetry.counter("session.queries").incr();
        // Root span of the query's trace; every engine span below nests
        // under it via the thread-local active-span stack.
        let mut query_span = tracer.span("session.query");
        if query_span.is_recording() {
            query_span.attr_str("query", query.keywords.join(" "));
        }
        let log = orex_telemetry::logger();
        if log.enabled(orex_telemetry::Level::Info, "core.session") {
            log.info("core.session", "query started")
                .field_str("query", query.keywords.join(" "))
                .field_u64("keywords", query.keywords.len() as u64)
                .emit();
        }
        let qv = {
            let _analyze = tracer.span("session.analyze");
            let analysis = telemetry.span("session.query_analysis_us");
            let qv = QueryVector::initial(query, system.index().analyzer());
            drop(analysis);
            qv
        };
        let (scores, stats) = rank(system, &rates, &qv, system.global_scores())?;
        Ok(Self {
            system,
            query: qv,
            rates,
            weights: OnceLock::new(),
            scores,
            history: vec![stats],
        })
    }

    /// Reconstructs a session from a snapshot without re-ranking.
    ///
    /// Where [`Self::restore`] rewinds an existing session, `resume`
    /// builds one from scratch — the shape a server needs when sessions
    /// outlive any single borrow of the system: keep the [`SessionSnapshot`]
    /// (plain owned data, `Send`) between requests and resume it against
    /// the shared system when the next request arrives. The converged
    /// scores are shared with the snapshot and the edge weights wait for
    /// the first explanation, so resuming is O(1): reading a top-k off a
    /// resumed session never touches |V| or |E|.
    ///
    /// # Panics
    /// Panics if the snapshot comes from a different graph (score
    /// dimension mismatch).
    pub fn resume(system: &'s ObjectRankSystem, snapshot: SessionSnapshot) -> Self {
        assert_eq!(
            snapshot.scores.values.len(),
            system.graph().node_count(),
            "snapshot belongs to a different graph"
        );
        Self {
            system,
            query: snapshot.query,
            rates: snapshot.rates,
            weights: OnceLock::new(),
            scores: snapshot.scores,
            history: snapshot.history,
        }
    }

    /// The system this session runs against.
    #[inline]
    pub fn system(&self) -> &'s ObjectRankSystem {
        self.system
    }

    /// The current (possibly expanded) query vector.
    #[inline]
    pub fn query_vector(&self) -> &QueryVector {
        &self.query
    }

    /// The current (possibly trained) rates.
    #[inline]
    pub fn rates(&self) -> &TransferRates {
        &self.rates
    }

    /// The converged score vector.
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores.values
    }

    /// The per-transfer-edge alpha weights of the current rates
    /// (Equation 1) — |E| work, paid once per session state and only by
    /// a session that explains.
    fn weights(&self) -> &[f64] {
        self.weights
            .get_or_init(|| self.system.transfer().weights(&self.rates))
    }

    /// Per-step statistics; index 0 is the initial query, subsequent
    /// entries are feedback rounds.
    #[inline]
    pub fn history(&self) -> &[StepStats] {
        &self.history
    }

    /// Number of reformulation rounds performed so far.
    #[inline]
    pub fn round(&self) -> usize {
        self.history.len() - 1
    }

    /// Captures the session's full state — query vector, rates, scores,
    /// history — so a later [`Self::restore`] can undo feedback rounds
    /// (users change their minds about what was relevant). The snapshot
    /// shares the session's score vector (and its memoised top-k); a
    /// later feedback round gives the session a new vector and leaves
    /// the snapshot's untouched.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            query: self.query.clone(),
            rates: self.rates.clone(),
            scores: Arc::clone(&self.scores),
            history: self.history.clone(),
        }
    }

    /// Restores a previously captured state.
    ///
    /// # Panics
    /// Panics if the snapshot comes from a different graph (score
    /// dimension mismatch).
    pub fn restore(&mut self, snapshot: SessionSnapshot) {
        assert_eq!(
            snapshot.scores.values.len(),
            self.system.graph().node_count(),
            "snapshot belongs to a different graph"
        );
        self.weights = OnceLock::new();
        self.query = snapshot.query;
        self.rates = snapshot.rates;
        self.scores = snapshot.scores;
        self.history = snapshot.history;
    }

    /// The top-`k` results, best first.
    pub fn top_k(&self, k: usize) -> Vec<ResultObject> {
        self.scores
            .top_k(k)
            .into_iter()
            .map(|Ranked { node, score }| {
                let node = NodeId::new(node);
                ResultObject {
                    node,
                    score,
                    label: self.system.graph().node_label(node).to_string(),
                    display: self.system.display(node),
                }
            })
            .collect()
    }

    /// Explains why `target` received its current score (Section 4).
    pub fn explain(&self, target: NodeId) -> Result<Explanation, SessionError> {
        self.explain_from(&self.current_base_set()?, target)
    }

    /// Explains `target` against the current rates and scores, given the
    /// current query's base set.
    fn explain_from(&self, base: &BaseSet, target: NodeId) -> Result<Explanation, SessionError> {
        Ok(Explanation::explain(
            self.system.transfer(),
            self.weights(),
            &self.scores.values,
            base,
            target,
            &self.system.config().explain,
        )?)
    }

    /// Explains `target` and summarizes the explanation by meta-path —
    /// the schema-level shapes of its strongest `k` authority paths
    /// ("Paper =cites=> Paper", "Paper =by=> Author <=by= Paper", ...).
    pub fn explain_summary(
        &self,
        target: NodeId,
        k: usize,
    ) -> Result<Vec<orex_explain::MetaPath>, SessionError> {
        let explanation = self.explain(target)?;
        Ok(orex_explain::summarize(
            &explanation,
            self.system.transfer(),
            self.system.graph(),
            k,
        ))
    }

    fn current_base_set(&self) -> Result<BaseSet, SessionError> {
        let _span = orex_telemetry::global().span("session.ir_lookup_us");
        let _tspan = orex_telemetry::tracer().span("session.ir_lookup");
        BaseSet::weighted(
            self.system
                .index()
                .base_set_scores(&self.query, &self.system.config().okapi),
        )
        .map_err(|e| SessionError::Ranking(RankingError::EmptyBaseSet(e)))
    }

    /// Marks `objects` as relevant, reformulates the query with the
    /// session's default parameters, and re-executes.
    pub fn feedback(&mut self, objects: &[NodeId]) -> Result<StepStats, SessionError> {
        let params = self.system.config().reformulate;
        self.feedback_with(objects, &params)
    }

    /// Feedback with explicit reformulation parameters (the survey
    /// experiments sweep `C_e` / `C_f`).
    pub fn feedback_with(
        &mut self,
        objects: &[NodeId],
        params: &ReformulateParams,
    ) -> Result<StepStats, SessionError> {
        if objects.is_empty() {
            return Err(SessionError::NoFeedbackObjects);
        }
        let telemetry = orex_telemetry::global();
        let tracer = orex_telemetry::tracer();
        telemetry.counter("session.feedback_rounds").incr();
        // Root span of this feedback round's trace.
        let mut round_span = tracer.span("session.feedback");
        if round_span.is_recording() {
            round_span.attr_u64("round", self.history.len() as u64);
            round_span.attr_u64("feedback_objects", objects.len() as u64);
        }

        // Stage 1 + 2: explain every feedback object.
        let base = self.current_base_set()?;
        let mut explanations = Vec::with_capacity(objects.len());
        let mut construction = Duration::ZERO;
        let mut adjustment = Duration::ZERO;
        let mut fixpoint_iters = 0usize;
        for &obj in objects {
            let e = self.explain_from(&base, obj)?;
            construction += e.construction_time();
            adjustment += e.adjustment_time();
            fixpoint_iters += e.iterations();
            explanations.push(e);
        }

        // Stage 3: reformulate.
        let refs: Vec<&Explanation> = explanations.iter().collect();
        let t = Instant::now();
        let outcome = reformulate(
            &self.query,
            &self.rates,
            self.system.graph().schema(),
            self.system.transfer(),
            self.system.index(),
            &refs,
            params,
        );
        let reformulate_time = t.elapsed();

        // Stage 4: re-execute with warm start from the previous scores.
        let (scores, rank_stats) = rank(
            self.system,
            &outcome.rates,
            &outcome.query,
            Some(&self.scores.values),
        )?;
        let stats = StepStats {
            explain_construction_time: construction,
            explain_adjustment_time: adjustment,
            explain_iterations: fixpoint_iters as f64 / objects.len() as f64,
            reformulate_time,
            ..rank_stats
        };

        orex_telemetry::logger()
            .info("core.session", "feedback applied")
            .field_u64("round", self.history.len() as u64)
            .field_u64("objects", objects.len() as u64)
            .field_u64("expansion_terms", outcome.expansion_terms.len() as u64)
            .field_u64("rank_iterations", stats.rank_iterations as u64)
            .field_bool("rank_converged", stats.rank_converged)
            .emit();

        self.query = outcome.query;
        self.rates = outcome.rates;
        // Always a fresh vector and a fresh memo: snapshots taken before
        // this round keep the scores and top-k they captured.
        self.weights = OnceLock::new();
        self.scores = scores;
        self.history.push(stats);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ObjectRankSystem, SystemConfig};
    use orex_datagen::{generate_dblp, DblpConfig, TextConfig};

    fn system() -> ObjectRankSystem {
        let d = generate_dblp(
            "s",
            &DblpConfig {
                papers: 400,
                authors: 150,
                conferences: 4,
                years_per_conference: 4,
                text: TextConfig {
                    vocab_size: 800,
                    topics: 6,
                    ..TextConfig::default()
                },
                ..DblpConfig::default()
            },
        );
        ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default())
    }

    #[test]
    fn initial_query_returns_results() {
        let sys = system();
        let session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let top = session.top_k(10);
        assert!(!top.is_empty());
        assert!(top.len() <= 10);
        // Sorted descending.
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert_eq!(session.round(), 0);
        assert!(session.history()[0].rank_iterations > 0);
    }

    #[test]
    fn unknown_keyword_errors() {
        let sys = system();
        assert!(matches!(
            QuerySession::start(&sys, &Query::parse("qqqqzzzz")),
            Err(SessionError::Ranking(_))
        ));
    }

    #[test]
    fn explain_top_result_succeeds() {
        let sys = system();
        let session = QuerySession::start(&sys, &Query::parse("query")).unwrap();
        let top = session.top_k(5);
        let expl = session.explain(top[0].node).unwrap();
        assert!(expl.node_count() >= 1);
        assert!(expl.target_inflow() >= 0.0);
    }

    #[test]
    fn feedback_round_updates_state_and_history() {
        let sys = system();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let before_rates = session.rates().clone();
        let top = session.top_k(10);
        let stats = session.feedback(&[top[0].node, top[1].node]).unwrap();
        assert_eq!(session.round(), 1);
        assert!(stats.rank_iterations > 0);
        assert!(stats.explain_iterations > 0.0);
        assert_ne!(session.rates(), &before_rates, "rates should train");
        assert!(!session.query_vector().is_empty());
    }

    #[test]
    fn warm_start_speeds_up_reformulated_queries() {
        let sys = system();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let initial_iters = session.history()[0].rank_iterations;
        let top = session.top_k(5);
        let stats = session.feedback(&[top[0].node]).unwrap();
        // The Figures 14(b)-17(b) claim: reformulated queries converge in
        // fewer iterations thanks to score reuse.
        assert!(
            stats.rank_iterations <= initial_iters,
            "warm {} vs cold {}",
            stats.rank_iterations,
            initial_iters
        );
    }

    #[test]
    fn empty_feedback_rejected() {
        let sys = system();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        assert!(matches!(
            session.feedback(&[]),
            Err(SessionError::NoFeedbackObjects)
        ));
    }

    #[test]
    fn multiple_rounds_accumulate_history() {
        let sys = system();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        for _ in 0..3 {
            let top = session.top_k(3);
            session.feedback(&[top[0].node]).unwrap();
        }
        assert_eq!(session.history().len(), 4);
        assert_eq!(session.round(), 3);
    }

    #[test]
    fn explain_summary_produces_meta_paths() {
        let sys = system();
        let session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let top = session.top_k(3);
        let summary = session.explain_summary(top[0].node, 5).unwrap();
        assert!(!summary.is_empty());
        for m in &summary {
            assert!(m.count >= 1);
            assert!(
                m.signature.contains("Paper")
                    || m.signature.contains("Year")
                    || m.signature.contains("Author")
                    || m.signature.contains("Conference")
            );
        }
    }

    #[test]
    fn snapshot_restore_undoes_feedback() {
        let sys = system();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let checkpoint = session.snapshot();
        let before_top: Vec<u32> = session.top_k(10).iter().map(|r| r.node.raw()).collect();
        let top = session.top_k(3);
        session.feedback(&[top[0].node]).unwrap();
        assert_eq!(session.round(), 1);
        session.restore(checkpoint);
        assert_eq!(session.round(), 0);
        let after_top: Vec<u32> = session.top_k(10).iter().map(|r| r.node.raw()).collect();
        assert_eq!(before_top, after_top);
        // The restored session is fully functional: feedback again.
        let top = session.top_k(3);
        session.feedback(&[top[0].node]).unwrap();
        assert_eq!(session.round(), 1);
    }

    #[test]
    fn resume_rebuilds_an_equivalent_session() {
        let sys = system();
        let mut original = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let top = original.top_k(3);
        original.feedback(&[top[0].node]).unwrap();
        let snapshot = original.snapshot();
        let expected: Vec<u32> = original.top_k(10).iter().map(|r| r.node.raw()).collect();

        let mut resumed = QuerySession::resume(&sys, snapshot);
        assert_eq!(resumed.round(), 1);
        let got: Vec<u32> = resumed.top_k(10).iter().map(|r| r.node.raw()).collect();
        assert_eq!(expected, got, "resume must not perturb the ranking");

        // The resumed session continues the feedback loop identically to
        // the original (same warm-start scores, same rates).
        let pick = original.top_k(3)[0].node;
        original.feedback(&[pick]).unwrap();
        resumed.feedback(&[pick]).unwrap();
        let a: Vec<u32> = original.top_k(10).iter().map(|r| r.node.raw()).collect();
        let b: Vec<u32> = resumed.top_k(10).iter().map(|r| r.node.raw()).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn resume_rejects_foreign_snapshots() {
        let sys = system();
        let session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let mut short_scores = session.scores().to_vec();
        short_scores.pop();
        let snapshot = SessionSnapshot::from_parts(
            session.query_vector().clone(),
            session.rates().clone(),
            short_scores,
        );
        let _ = QuerySession::resume(&sys, snapshot);
    }

    #[test]
    fn snapshot_clone_and_resume_share_the_score_vector() {
        let sys = system();
        let session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let storage = session.scores().as_ptr();
        let snapshot = session.snapshot();
        assert_eq!(snapshot.scores().as_ptr(), storage);
        let copy = snapshot.clone();
        assert_eq!(copy.scores().as_ptr(), storage);
        let resumed = QuerySession::resume(&sys, copy);
        assert_eq!(resumed.scores().as_ptr(), storage);
        assert_eq!(resumed.snapshot().scores().as_ptr(), storage);
    }

    #[test]
    fn feedback_leaves_earlier_snapshots_untouched() {
        let sys = system();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let before = session.snapshot();
        let storage = before.scores().as_ptr();
        let scores: Vec<u64> = before.scores().iter().map(|s| s.to_bits()).collect();
        // Asked for before the round, so the memo the snapshot shares is
        // populated when feedback runs.
        let top = session.scores.top_k(10);
        session.feedback(&[NodeId::new(top[0].node)]).unwrap();

        assert_ne!(session.scores().as_ptr(), storage, "a fresh vector");
        assert_eq!(before.scores().as_ptr(), storage);
        let after: Vec<u64> = before.scores().iter().map(|s| s.to_bits()).collect();
        assert_eq!(scores, after);
        assert_eq!(before.scores.top_k(10), top);
        // The advanced session ranks its own vector, not the old memo.
        assert_eq!(session.scores.top_k(10), top_k(session.scores(), 10, 0.0));
    }

    /// Clones of one snapshot resumed on several threads rank off one
    /// memo; whichever `k` wins the race to fill or widen it, every
    /// reader gets the direct answer for the `k` it asked for.
    #[test]
    fn concurrent_readers_of_one_memo_agree_with_direct_top_k() {
        let sys = system();
        let snapshot = QuerySession::start(&sys, &Query::parse("data"))
            .unwrap()
            .snapshot();
        let gate = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for thread in 0..4usize {
                let (gate, snapshot) = (&gate, snapshot.clone());
                scope.spawn(move || {
                    gate.wait();
                    for round in 0..50 {
                        let k = (thread * 7 + round * 3) % 40;
                        assert_eq!(
                            snapshot.scores.top_k(k),
                            top_k(snapshot.scores(), k, 0.0),
                            "k = {k}"
                        );
                    }
                });
            }
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Whatever order `k`s arrive in — growing, shrinking, beyond the
        /// number of positive scores — the memoised answer is exactly the
        /// direct one, on vectors full of ties and zeros.
        #[test]
        fn memoised_top_k_equals_direct_top_k(
            levels in proptest::collection::vec(0u8..5, 0..40),
            ks in proptest::collection::vec(0usize..50, 1..12),
        ) {
            let values: Vec<f64> = levels.iter().map(|&l| f64::from(l) * 0.125).collect();
            let shared = RankedScores::new(values.clone());
            for k in ks {
                proptest::prop_assert_eq!(shared.top_k(k), top_k(&values, k, 0.0));
            }
        }
    }

    #[test]
    fn structure_only_feedback_keeps_query() {
        let sys = system();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let q_before = session.query_vector().clone();
        let top = session.top_k(3);
        session
            .feedback_with(&[top[0].node], &ReformulateParams::structure_only(0.5))
            .unwrap();
        assert_eq!(session.query_vector(), &q_before);
    }
}
