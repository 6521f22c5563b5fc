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
use orex_authority::{
    power_iteration, query_base_set, top_k, BaseSet, Ranked, RankingError, TransitionMatrix,
};
use orex_explain::{ExplainError, Explanation};
use orex_graph::{NodeId, TransferRates};
use orex_ir::{Query, QueryVector};
use orex_reformulate::{reformulate, ReformulateParams};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
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
    /// query). A feedback object whose explanation the round reused from
    /// an earlier [`QuerySession::explain`] on the same state adds
    /// nothing: that time was spent, and recorded, by the call that built
    /// it.
    pub explain_construction_time: Duration,
    /// Explaining-ObjectRank2 (flow-adjustment fixpoint) wall time; a
    /// reused explanation adds nothing, as above.
    pub explain_adjustment_time: Duration,
    /// Mean fixpoint iterations across the feedback objects (Table 3),
    /// reused explanations included: the count is a property of the
    /// explanation, not of the call that built it.
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

/// One converged score vector with the nodes of the base set it was
/// ranked from and the memoised head of its ranking.
///
/// Built once per ranking and never edited: the session, its snapshots
/// and every clone of them share one instance, and a feedback round
/// installs a fresh one. That is what lets a server hand the same
/// |V|-sized vector to its result cache, its session table and any
/// number of concurrent requests without copying it, and what lets every
/// explanation and feedback round on a state read its base set instead
/// of scoring the query again.
#[derive(Debug)]
struct RankedScores {
    values: Vec<f64>,
    /// The nodes of the query's base set, ascending: set by the ranking,
    /// or on first use when the scores came from elsewhere
    /// ([`SessionSnapshot::from_parts`]). An explanation reads only which
    /// nodes are in the base set, so their weights are not kept: 4 B per
    /// node where the weighted set takes 16, on each of a server's
    /// sessions.
    base_nodes: OnceLock<Box<[u32]>>,
    /// `(k, top_k(values, k, 0.0))` for the largest `k` asked for so far.
    top: Mutex<(usize, Vec<Ranked>)>,
}

impl RankedScores {
    fn new(values: Vec<f64>, base: Option<&BaseSet>) -> Arc<Self> {
        Arc::new(Self {
            values,
            base_nodes: base
                .map(|b| OnceLock::from(b.nodes().collect::<Box<[u32]>>()))
                .unwrap_or_default(),
            top: Mutex::new((0, Vec::new())),
        })
    }

    /// The base-set nodes, from `compute` on the first call when the
    /// ranking did not leave them.
    fn base_nodes(
        &self,
        compute: impl FnOnce() -> Result<BaseSet, RankingError>,
    ) -> Result<&[u32], SessionError> {
        if let Some(nodes) = self.base_nodes.get() {
            return Ok(nodes);
        }
        let nodes = compute()?.nodes().collect();
        Ok(self.base_nodes.get_or_init(|| nodes))
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
/// one shares its score vector and its last explanation rather than
/// copying them.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    query: QueryVector,
    rates: TransferRates,
    scores: Arc<RankedScores>,
    history: Vec<StepStats>,
    /// The last explanation built on this state, if any.
    explained: Option<Arc<Explanation>>,
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
            scores: RankedScores::new(scores, None),
            history: vec![StepStats::default()],
            explained: None,
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

    /// The last explanation built on this state, if one was kept.
    pub fn explained(&self) -> Option<&Explanation> {
        self.explained.as_deref()
    }

    /// Drops the kept explanation; the state itself is unchanged.
    pub fn forget_explanation(&mut self) {
        self.explained = None;
    }

    /// Whether both snapshots hold the same ranking: the one score
    /// vector a session state shares with every snapshot of it. A
    /// feedback round always installs a new one.
    pub fn same_ranking(&self, other: &SessionSnapshot) -> bool {
        Arc::ptr_eq(&self.scores, &other.scores)
    }
}

/// One user's evolving query interaction.
pub struct QuerySession<'s> {
    system: &'s ObjectRankSystem,
    query: QueryVector,
    rates: TransferRates,
    /// Converged ObjectRank2 scores of the current query, shared with
    /// every snapshot taken of them.
    scores: Arc<RankedScores>,
    /// Stats per step: index 0 is the initial query.
    history: Vec<StepStats>,
    /// The last explanation built on this state (see [`Self::explain`]).
    explained: Mutex<Option<Arc<Explanation>>>,
}

/// Ranks `query` under `rates` from `warm_start`: the execution step of
/// the initial query and of every feedback round. The matrix reads alpha
/// from the graph's Equation 1 class table under `rates`, so building it
/// costs the class table, not a per-edge array. The returned scores keep
/// the nodes of the base set they were ranked from; the stats carry the
/// rank fields only.
fn rank(
    system: &ObjectRankSystem,
    rates: &TransferRates,
    query: &QueryVector,
    warm_start: Option<&[f64]>,
) -> Result<(Arc<RankedScores>, StepStats), SessionError> {
    let telemetry = orex_telemetry::global();
    let matrix = TransitionMatrix::new(system.transfer(), rates);
    let start = Instant::now();
    let rank_span = telemetry.span("session.rank_us");
    let mut rank_tspan = orex_telemetry::tracer().span("session.rank");
    let base = query_base_set(system.index(), query, &system.config().okapi)?;
    let result = power_iteration(&matrix, &base, &system.config().rank, warm_start);
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
    Ok((RankedScores::new(result.scores, Some(&base)), stats))
}

impl<'s> QuerySession<'s> {
    /// Executes the initial query with the system's initial rates.
    pub fn start(system: &'s ObjectRankSystem, query: &Query) -> Result<Self, SessionError> {
        Self::start_with(system, query, system.initial_rates().clone())
    }

    /// Executes the initial query with explicit starting rates (used by
    /// the training experiments, which initialize all rates to 0.3). Any
    /// rates rank on a matrix built for them, as the initial ones do; an
    /// explanation reads its `alpha` from the graph's Equation 1
    /// class table under any rates.
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
            scores,
            history: vec![stats],
            explained: Mutex::new(None),
        })
    }

    /// Reconstructs a session from a snapshot without re-ranking.
    ///
    /// Where [`Self::restore`] rewinds an existing session, `resume`
    /// builds one from scratch — the shape a server needs when sessions
    /// outlive any single borrow of the system: keep the [`SessionSnapshot`]
    /// (plain owned data, `Send`) between requests and resume it against
    /// the shared system when the next request arrives. The converged
    /// scores and the last explanation are shared with the snapshot, and
    /// a session state holds no per-edge array, so resuming is O(1):
    /// reading a top-k off a resumed session never touches |V| or |E|,
    /// and explaining the target the snapshot already explained builds
    /// nothing.
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
            scores: snapshot.scores,
            history: snapshot.history,
            explained: Mutex::new(snapshot.explained),
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
    /// history, last explanation — so a later [`Self::restore`] can undo
    /// feedback rounds (users change their minds about what was
    /// relevant). The snapshot shares the session's score vector (and its
    /// memoised top-k) and explanation; a later feedback round gives the
    /// session new ones and leaves the snapshot's untouched.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            query: self.query.clone(),
            rates: self.rates.clone(),
            scores: Arc::clone(&self.scores),
            history: self.history.clone(),
            explained: self.explained_slot().clone(),
        }
    }

    /// The last-explanation slot. It is replaced whole, so a poisoned
    /// lock still guards a consistent value.
    fn explained_slot(&self) -> MutexGuard<'_, Option<Arc<Explanation>>> {
        self.explained
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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
        self.query = snapshot.query;
        self.rates = snapshot.rates;
        self.scores = snapshot.scores;
        self.history = snapshot.history;
        self.explained = Mutex::new(snapshot.explained);
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
    ///
    /// The session keeps the last explanation it built: asking for the
    /// same target again, or giving it as feedback, returns that one
    /// instead of building it anew. Any other target is built and
    /// replaces it.
    pub fn explain(&self, target: NodeId) -> Result<Arc<Explanation>, SessionError> {
        if let Some(kept) = self.kept_explanation(target) {
            return Ok(kept);
        }
        let built = Arc::new(self.explain_from(self.base_nodes()?, target)?);
        *self.explained_slot() = Some(Arc::clone(&built));
        Ok(built)
    }

    /// The kept explanation, when it explains `target`.
    fn kept_explanation(&self, target: NodeId) -> Option<Arc<Explanation>> {
        self.explained_slot()
            .as_ref()
            .filter(|e| e.target() == target)
            .map(Arc::clone)
    }

    /// Explains `target` against the current rates and scores, given the
    /// current query's base-set nodes.
    fn explain_from(&self, base: &[u32], target: NodeId) -> Result<Explanation, SessionError> {
        Ok(Explanation::explain(
            self.system.transfer(),
            &self.rates,
            &self.scores.values,
            base.iter().copied(),
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

    /// The current query's base-set nodes: the ones its ranking kept, or,
    /// for scores from [`SessionSnapshot::from_parts`], scored once on
    /// first use and kept with them.
    fn base_nodes(&self) -> Result<&[u32], SessionError> {
        self.scores.base_nodes(|| {
            let _span = orex_telemetry::global().span("session.ir_lookup_us");
            let _tspan = orex_telemetry::tracer().span("session.ir_lookup");
            query_base_set(
                self.system.index(),
                &self.query,
                &self.system.config().okapi,
            )
        })
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

        // Stage 1 + 2: explain every feedback object, reusing the one an
        // earlier `explain` on this state already built.
        let base = self.base_nodes()?;
        let mut explanations = Vec::with_capacity(objects.len());
        let mut construction = Duration::ZERO;
        let mut adjustment = Duration::ZERO;
        let mut fixpoint_iters = 0usize;
        for &obj in objects {
            let e = match self.kept_explanation(obj) {
                Some(kept) => {
                    telemetry.counter("session.explanations_reused").incr();
                    kept
                }
                None => {
                    let e = self.explain_from(base, obj)?;
                    construction += e.construction_time();
                    adjustment += e.adjustment_time();
                    Arc::new(e)
                }
            };
            fixpoint_iters += e.iterations();
            explanations.push(e);
        }

        // Stage 3: reformulate.
        let refs: Vec<&Explanation> = explanations.iter().map(|e| &**e).collect();
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
        // Always a fresh vector, a fresh memo and no explanation yet:
        // snapshots taken before this round keep what they captured.
        self.scores = scores;
        self.history.push(stats);
        self.explained = Mutex::new(None);
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
            let shared = RankedScores::new(values.clone(), None);
            for k in ks {
                proptest::prop_assert_eq!(shared.top_k(k), top_k(&values, k, 0.0));
            }
        }
    }

    fn score_bits(session: &QuerySession<'_>) -> Vec<u64> {
        session.scores().iter().map(|s| s.to_bits()).collect()
    }

    /// The same subgraph, flow for flow.
    fn assert_same_explanation(a: &Explanation, b: &Explanation) {
        assert_eq!(a.target(), b.target());
        assert_eq!(a.iterations(), b.iterations());
        assert_eq!(a.target_inflow().to_bits(), b.target_inflow().to_bits());
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn feedback_reuses_what_explain_built_and_lands_where_a_rebuild_lands() {
        let sys = system();
        let mut explained = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let mut twin = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let top = explained.top_k(2);
        let (t, u) = (top[0].node, top[1].node);

        let first = explained.explain(t).unwrap();
        assert!(
            Arc::ptr_eq(&first, &explained.explain(t).unwrap()),
            "a second explain of the same target on one state builds nothing"
        );
        explained.feedback(&[t, u]).unwrap();
        twin.feedback(&[t, u]).unwrap();
        assert_eq!(explained.query_vector(), twin.query_vector());
        assert_eq!(explained.rates(), twin.rates());
        assert_eq!(score_bits(&explained), score_bits(&twin));
    }

    #[test]
    fn the_kept_explanation_belongs_to_the_state_that_built_it() {
        let sys = system();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let top = session.top_k(2);
        let (t, u) = (top[0].node, top[1].node);
        let before = session.explain(t).unwrap();
        let checkpoint = session.snapshot();
        assert!(Arc::ptr_eq(
            &before,
            &QuerySession::resume(&sys, checkpoint.clone())
                .explain(t)
                .unwrap()
        ));

        // A kept `t` is never taken for `u`.
        let stats = session.feedback(&[u]).unwrap();
        let mut bare = checkpoint.clone();
        bare.forget_explanation();
        let twin_u = QuerySession::resume(&sys, bare).explain(u).unwrap();
        assert!(stats.explain_construction_time > Duration::ZERO);
        assert_eq!(stats.explain_iterations, twin_u.iterations() as f64);

        // The round leaves no explanation behind; the next one is built
        // on the new state, exactly as a fresh session there builds it.
        let advanced = session.snapshot();
        assert!(advanced.explained().is_none());
        let after = session.explain(t).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        let fresh = QuerySession::resume(&sys, advanced).explain(t).unwrap();
        assert!(!Arc::ptr_eq(&after, &fresh));
        assert_same_explanation(&after, &fresh);

        // Restoring the older state brings its explanation back.
        session.restore(checkpoint);
        assert!(Arc::ptr_eq(&before, &session.explain(t).unwrap()));
    }

    #[test]
    fn a_reused_explanation_adds_iterations_but_no_time_to_the_round() {
        let sys = system();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let t = session.top_k(1)[0].node;
        let built = session.explain(t).unwrap();
        let stats = session.feedback(&[t]).unwrap();
        assert_eq!(stats.explain_construction_time, Duration::ZERO);
        assert_eq!(stats.explain_adjustment_time, Duration::ZERO);
        assert_eq!(stats.explain_iterations, built.iterations() as f64);
    }

    /// What a session ranked under `rates` must equal: `object_rank2` on
    /// a matrix built from their edge-indexed weights, classed by bit
    /// pattern (not the graph's class ids sessions read), from the global
    /// warm start.
    fn fresh_rank_bits(
        sys: &ObjectRankSystem,
        rates: &TransferRates,
        qv: &QueryVector,
    ) -> Vec<u64> {
        let fresh =
            TransitionMatrix::from_edge_weights(sys.transfer(), sys.transfer().weights(rates));
        let config = sys.config();
        let result = orex_authority::object_rank2(
            &fresh,
            sys.index(),
            qv,
            &config.okapi,
            &config.rank,
            sys.global_scores(),
        )
        .unwrap();
        result.scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn a_round_zero_session_ranks_like_a_fresh_build() {
        let sys = system();
        let session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        assert_eq!(
            score_bits(&session),
            fresh_rank_bits(&sys, sys.initial_rates(), session.query_vector())
        );
    }

    #[test]
    fn other_starting_rates_rank_on_their_own_matrix_like_a_fresh_build() {
        let sys = system();
        let rates = TransferRates::normalized_uniform(sys.graph().schema(), 0.3);
        assert_ne!(&rates, sys.initial_rates());
        let session = QuerySession::start_with(&sys, &Query::parse("data"), rates.clone()).unwrap();
        let bits = score_bits(&session);
        assert_eq!(bits, fresh_rank_bits(&sys, &rates, session.query_vector()));
        let initial = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        assert_ne!(bits, score_bits(&initial), "the rates must matter");
        assert_explains_like_a_fresh_derivation(&session);
    }

    /// The session's explanation of its top result equals one built
    /// afresh for the session's rates and scores, and every edge's alpha
    /// is the session rates' edge-indexed Equation 1 weight, bit for bit.
    fn assert_explains_like_a_fresh_derivation(session: &QuerySession<'_>) {
        let sys = session.system();
        let target = session.top_k(1)[0].node;
        let fresh = Explanation::explain(
            sys.transfer(),
            session.rates(),
            session.scores(),
            fresh_base_set(session).nodes(),
            target,
            &sys.config().explain,
        )
        .unwrap();
        let explained = session.explain(target).unwrap();
        assert_same_explanation(&explained, &fresh);
        let weights = sys.transfer().weights(session.rates());
        for e in explained.edges() {
            assert_eq!(e.alpha.to_bits(), weights[e.transfer_edge].to_bits());
        }
    }

    /// The current query's base set scored afresh.
    fn fresh_base_set(session: &QuerySession<'_>) -> BaseSet {
        let sys = session.system();
        query_base_set(sys.index(), session.query_vector(), &sys.config().okapi).unwrap()
    }

    /// A ranked state keeps the nodes of the base set it ranked from,
    /// equal to those of one scored afresh, through feedback; a state
    /// from `from_parts` scores them on first use, once, and every resume
    /// of that snapshot shares them.
    #[test]
    fn a_ranked_state_keeps_its_base_set() {
        let sys = system();
        let fresh_nodes = |s: &QuerySession<'_>| fresh_base_set(s).nodes().collect::<Vec<_>>();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        for _ in 0..2 {
            assert_eq!(session.base_nodes().unwrap(), fresh_nodes(&session));
            let top = session.top_k(1)[0].node;
            session.feedback(&[top]).unwrap();
        }
        assert_eq!(session.base_nodes().unwrap(), fresh_nodes(&session));

        let parts = SessionSnapshot::from_parts(
            session.query_vector().clone(),
            session.rates().clone(),
            session.scores().to_vec(),
        );
        assert!(parts.scores.base_nodes.get().is_none());
        let a = QuerySession::resume(&sys, parts.clone());
        let b = QuerySession::resume(&sys, parts.clone());
        let kept = a.base_nodes().unwrap();
        assert_eq!(kept, fresh_nodes(&a));
        assert!(std::ptr::eq(kept, b.base_nodes().unwrap()), "scored once");
        assert!(std::ptr::eq(
            kept,
            &**parts.scores.base_nodes.get().unwrap()
        ));
    }

    /// Equation 13 multiplies rates, so feedback never changes which
    /// rates are zero: every round's matrix sweeps the layout the initial
    /// rates chose (DBLP's PP-back is 0), and no round builds another.
    #[test]
    fn feedback_keeps_the_zero_rate_set_and_its_layout() {
        let sys = system();
        let transfer = sys.transfer();
        let zeros = |rates: &TransferRates| -> Vec<usize> {
            let dense = rates.as_slice();
            (0..dense.len()).filter(|&t| dense[t] == 0.0).collect()
        };
        let initial = sys.initial_rates();
        assert!(!zeros(initial).is_empty(), "DBLP rates zero PP-back");
        let layout = transfer.live_edges(&transfer.class_alpha(initial));
        assert!(!layout.same_layout(&transfer.all_edges()));
        let bytes = transfer.heap_bytes();
        let mut session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        for round in 0..3 {
            let top = session.top_k(2);
            session.feedback(&[top[0].node, top[1].node]).unwrap();
            assert_ne!(session.rates(), initial, "round {round} trains the rates");
            assert_eq!(zeros(session.rates()), zeros(initial), "round {round}");
            let alpha = transfer.class_alpha(session.rates());
            assert!(transfer.live_edges(&alpha).same_layout(&layout));
        }
        assert_eq!(transfer.heap_bytes(), bytes, "no other layout built");
    }

    #[test]
    fn a_round_zero_explanation_explains_like_a_fresh_derivation() {
        let sys = system();
        let session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        assert_explains_like_a_fresh_derivation(&session);
    }

    /// Two threads resume one snapshot and summarize its kept
    /// explanation at different `k`, racing on the explanation's path
    /// memo; each gets what a single thread gets from an explanation
    /// asked for that `k` alone.
    #[test]
    fn concurrent_summaries_of_one_kept_explanation_agree() {
        let sys = system();
        let session = QuerySession::start(&sys, &Query::parse("data")).unwrap();
        let target = session.top_k(1)[0].node;
        let bare = session.snapshot();
        session.explain(target).unwrap();
        let kept = session.snapshot();
        let rows = |summary: Vec<orex_explain::MetaPath>| {
            summary
                .into_iter()
                .map(|m| (m.signature, m.count, m.total_flow.to_bits(), m.example))
                .collect::<Vec<_>>()
        };
        let ks = [2usize, 8, 5, 12, 1];
        let expected: Vec<_> = ks
            .iter()
            .map(|&k| {
                let alone = QuerySession::resume(&sys, bare.clone());
                rows(alone.explain_summary(target, k).unwrap())
            })
            .collect();
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for thread in 0..2 {
                let (gate, sys, kept, expected) = (&gate, &sys, kept.clone(), &expected);
                scope.spawn(move || {
                    let resumed = QuerySession::resume(sys, kept);
                    gate.wait();
                    for round in 0..ks.len() {
                        let i = (round + thread * 2) % ks.len();
                        let got = rows(resumed.explain_summary(target, ks[i]).unwrap());
                        assert_eq!(got, expected[i], "k = {}", ks[i]);
                    }
                });
            }
        });
    }

    /// Round-0 sessions on several threads share the system's graph and
    /// its class ids, and rank exactly as a single thread does.
    #[test]
    fn concurrent_round_zero_sessions_agree_bitwise() {
        let sys = system();
        let queries = ["data", "query", "data query"];
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| score_bits(&QuerySession::start(&sys, &Query::parse(q)).unwrap()))
            .collect();
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (gate, sys, expected) = (&gate, &sys, &expected);
                scope.spawn(move || {
                    gate.wait();
                    for (q, want) in queries.iter().zip(expected) {
                        let session = QuerySession::start(sys, &Query::parse(q)).unwrap();
                        assert_eq!(&score_bits(&session), want, "query {q:?}");
                    }
                });
            }
        });
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
