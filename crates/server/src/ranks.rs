//! A dataset's precompute tier: the rank vectors of an `orex precompute`
//! artifact, and the background builder that adds the terms it lacks.
//!
//! On a result-cache miss, a query whose terms the tier covers is
//! answered by the exact linear combination of their single-keyword
//! vectors (the paper's Linearity property, see
//! [`PrecomputedRanks::combine`]) instead of a live power iteration. A
//! query with uncovered terms runs live, and [`PrecomputeTier::combine`]
//! queues those terms for the builder so the *next* occurrence combines.
//!
//! The tier exists only for a dataset served with an artifact. It is
//! built and validated where the artifact is loaded
//! ([`PrecomputeTier::load`]), which is also the one place its builder
//! thread is spawned; [`PrecomputeTier::close`] ends that thread.

use orex_core::ObjectRankSystem;
use orex_ir::{InvertedIndex, QueryVector, Scorer};
use orex_store::PrecomputedRanks;
use std::collections::HashSet;
use std::path::Path;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;

/// One queued backfill batch: the uncovered terms plus the trace
/// context of the request that discovered them, so the builder thread's
/// work shows up as part of that request's (distributed) trace instead
/// of running untraced.
struct BackfillJob {
    /// Terms to build vectors for.
    terms: Vec<String>,
    /// Context of the originating request span, if one was open when
    /// the miss was queued.
    context: Option<orex_telemetry::TraceContext>,
}

/// Outcome of consulting the precomputed vectors for a query.
pub enum CombineOutcome {
    /// Covered: the exact combined score vector.
    Hit(Vec<f64>),
    /// Not covered: the terms that lack vectors were queued for backfill.
    Miss,
    /// Covered, but no query term occurs in the corpus, so there is
    /// nothing to combine. The live path reports such a query as an
    /// empty base set.
    Uncombinable,
}

/// The loaded vectors plus everything that grows them; see the module
/// docs.
pub struct PrecomputeTier {
    ranks: RwLock<PrecomputedRanks>,
    /// Terms already queued, so repeated misses don't re-queue work the
    /// builder hasn't finished yet.
    in_flight: Mutex<HashSet<String>>,
    /// Queue to the builder thread; `None` once closed.
    queue: Mutex<Option<Sender<BackfillJob>>>,
    builder: Mutex<Option<JoinHandle<()>>>,
}

impl PrecomputeTier {
    /// Loads the artifact at `path`, checks it against `system` (graph
    /// hash, node count, damping, epsilon — a mismatched artifact is an
    /// error, not a silent mis-ranking) and spawns the tier's backfill
    /// builder.
    pub fn load(
        dataset: &str,
        path: &Path,
        system: &Arc<ObjectRankSystem>,
    ) -> Result<Arc<Self>, String> {
        let ranks = PrecomputedRanks::load(path).map_err(|e| e.to_string())?;
        validate_precompute(&ranks, system)?;
        orex_telemetry::logger()
            .info("server.precompute", "precomputed ranks loaded")
            .field_str("dataset", dataset)
            .field_str("path", path.to_string_lossy())
            .field_u64("terms", ranks.len() as u64)
            .field_u64("dataset_hash", ranks.dataset_hash())
            .emit();
        let (tier, rx) = Self::with_queue(ranks);
        let builder = {
            let tier = Arc::clone(&tier);
            let system = Arc::clone(system);
            let dataset = dataset.to_string();
            std::thread::Builder::new()
                .name(format!("orex-backfill-{dataset}"))
                .spawn(move || tier.backfill_loop(&dataset, &system, rx))
                .map_err(|e| format!("spawning the backfill builder: {e}"))?
        };
        *tier.builder.lock().unwrap_or_else(PoisonError::into_inner) = Some(builder);
        Ok(tier)
    }

    /// A tier over `ranks` and the receiving end of its queue, with no
    /// builder attached yet.
    fn with_queue(ranks: PrecomputedRanks) -> (Arc<Self>, Receiver<BackfillJob>) {
        orex_telemetry::global()
            .gauge("server.precompute_terms")
            .set(ranks.len() as f64);
        let (tx, rx) = std::sync::mpsc::channel();
        let tier = Self {
            ranks: RwLock::new(ranks),
            in_flight: Mutex::new(HashSet::new()),
            queue: Mutex::new(Some(tx)),
            builder: Mutex::new(None),
        };
        (Arc::new(tier), rx)
    }

    /// Number of term vectors currently held.
    pub fn term_count(&self) -> usize {
        self.ranks
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Consults the vectors for an exact combined answer, queueing the
    /// terms they lack for backfill.
    pub fn combine(
        &self,
        query: &QueryVector,
        index: &InvertedIndex,
        scorer: &dyn Scorer,
    ) -> CombineOutcome {
        let telemetry = orex_telemetry::global();
        let missing = {
            let ranks = self.ranks.read().unwrap_or_else(PoisonError::into_inner);
            let missing = ranks.missing_terms(query, index);
            if missing.is_empty() {
                return match ranks.combine(query, scorer) {
                    Some(scores) => {
                        telemetry.counter("server.precompute_hits").incr();
                        CombineOutcome::Hit(scores)
                    }
                    None => CombineOutcome::Uncombinable,
                };
            }
            missing
        };
        telemetry.counter("server.precompute_misses").incr();
        self.request_backfill(missing);
        CombineOutcome::Miss
    }

    /// Queues uncovered terms for the builder, capturing the calling
    /// thread's trace context so the builder's span joins the
    /// originating request's trace. Terms already in flight are
    /// skipped, and a term is marked in flight only once its job is
    /// queued; returns how many were newly queued.
    fn request_backfill(&self, terms: Vec<String>) -> usize {
        let mut in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let fresh: Vec<String> = terms
            .into_iter()
            .filter(|t| !in_flight.contains(t))
            .collect();
        if fresh.is_empty() {
            return 0;
        }
        let queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(sender) = queue.as_ref() else {
            return 0;
        };
        let job = BackfillJob {
            terms: fresh.clone(),
            context: orex_telemetry::tracer().current_context(),
        };
        if sender.send(job).is_err() {
            // Builder already gone; nothing will be built.
            return 0;
        }
        let count = fresh.len();
        in_flight.extend(fresh);
        orex_telemetry::global()
            .counter("server.backfill_requests")
            .add(count as u64);
        count
    }

    /// Installs vectors the builder finished, clearing their in-flight
    /// marks. Locks `ranks` before `in_flight`, the order `combine`
    /// takes them in.
    fn insert_backfilled(&self, built: Vec<(String, f64, Vec<f64>)>) {
        let telemetry = orex_telemetry::global();
        let mut ranks = self.ranks.write().unwrap_or_else(PoisonError::into_inner);
        let mut in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let count = built.len() as u64;
        for (term, mass, scores) in built {
            ranks.insert(term.clone(), mass, &scores);
            in_flight.remove(&term);
        }
        telemetry.counter("server.backfill_built").add(count);
        telemetry
            .gauge("server.precompute_terms")
            .set(ranks.len() as f64);
    }

    /// Clears in-flight marks for terms the builder skipped (e.g. empty
    /// base sets), so a later request may retry them.
    fn clear_in_flight(&self, terms: &[String]) {
        let mut in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for t in terms {
            in_flight.remove(t);
        }
    }

    /// Drops the queue, so the builder's `recv` ends once it has built
    /// what was already queued, and joins the builder. Part of graceful
    /// shutdown; later misses queue nothing.
    pub fn close(&self) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let builder = self
            .builder
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(builder) = builder {
            if builder.join().is_err() {
                orex_telemetry::logger()
                    .error("server.backfill", "backfill builder panicked")
                    .emit();
            }
        }
    }

    /// The backfill builder: drains term batches from the queue, builds
    /// each term's vector with [`orex_store::term_vector`] (the offline
    /// build's per-term path, warm-started from the system's global
    /// scores under its rank parameters) and installs the finished
    /// vectors. Exits when the queue is closed.
    fn backfill_loop(&self, dataset: &str, system: &ObjectRankSystem, rx: Receiver<BackfillJob>) {
        let scorer = &system.config().okapi;
        let params = system.config().rank;
        while let Ok(job) = rx.recv() {
            let terms = job.terms;
            // The builder's work joins the trace of the request that queued
            // it (a remote-parent root on this thread), so a fleet trace
            // shows the deferred backfill a miss triggered, not just the
            // miss itself.
            let mut tspan =
                orex_telemetry::tracer().span_with_context("server.backfill", job.context);
            if tspan.is_recording() {
                tspan.attr_str("reason", "precompute_miss");
                tspan.attr_u64("terms", terms.len() as u64);
            }
            let _span = orex_telemetry::global().span("server.backfill_us");
            let matrix =
                orex_authority::TransitionMatrix::new(system.transfer(), system.initial_rates());
            let mut built: Vec<(String, f64, Vec<f64>)> = Vec::with_capacity(terms.len());
            let mut skipped: Vec<String> = Vec::new();
            for term in terms {
                match orex_store::term_vector(
                    &matrix,
                    system.index(),
                    scorer,
                    &term,
                    &params,
                    system.global_scores(),
                ) {
                    Some((mass, result)) => built.push((term, mass, result.scores)),
                    None => skipped.push(term),
                }
            }
            // Terms without base sets can never combine; unmark them so a
            // rebuilt index could retry.
            self.clear_in_flight(&skipped);
            if built.is_empty() {
                continue;
            }
            orex_telemetry::logger()
                .info("server.backfill", "backfilled precomputed vectors")
                .field_str("dataset", dataset)
                .field_u64("terms", built.len() as u64)
                .field_bool("backfill", true)
                .emit();
            self.insert_backfilled(built);
        }
    }
}

/// Checks a precompute artifact against the served system: the graph
/// hash, node count, and convergence parameters must match — a
/// mismatched artifact is a build error, not a silent mis-ranking.
fn validate_precompute(store: &PrecomputedRanks, system: &ObjectRankSystem) -> Result<(), String> {
    let graph_hash = orex_store::fnv1a(&orex_store::encode_graph(system.graph()));
    if store.dataset_hash() != graph_hash {
        return Err(format!(
            "precompute artifact was built for a different dataset \
             (artifact {:#x}, serving {:#x})",
            store.dataset_hash(),
            graph_hash
        ));
    }
    if store.node_count() != system.graph().node_count() {
        return Err(format!(
            "precompute artifact has {} nodes, graph has {}",
            store.node_count(),
            system.graph().node_count()
        ));
    }
    let rank = &system.config().rank;
    if store.damping() != rank.damping || store.epsilon() != rank.epsilon {
        return Err(format!(
            "precompute artifact converged under damping {} / epsilon {}, \
             system runs damping {} / epsilon {}",
            store.damping(),
            store.epsilon(),
            rank.damping,
            rank.epsilon
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backfill_queue_dedups_in_flight_terms() {
        let (tier, rx) = PrecomputeTier::with_queue(PrecomputedRanks::new(0, 4, 0.85, 1e-6));
        assert_eq!(
            tier.request_backfill(vec!["alpha".into(), "beta".into()]),
            2
        );
        assert_eq!(tier.request_backfill(vec!["alpha".into()]), 0, "in flight");
        assert_eq!(rx.try_recv().unwrap().terms.len(), 2);
        // The builder skipped "alpha": it may be queued again.
        tier.clear_in_flight(&["alpha".to_string()]);
        assert_eq!(tier.request_backfill(vec!["alpha".into()]), 1);
        tier.close();
        assert_eq!(tier.request_backfill(vec!["gamma".into()]), 0, "closed");
        assert!(rx.try_recv().is_ok(), "the re-queued alpha job");
        assert!(rx.try_recv().is_err(), "nothing queued after close");
    }

    /// A send the builder can no longer receive queues nothing, so it
    /// must not leave the term marked in flight for good.
    #[test]
    fn failed_send_leaves_no_in_flight_mark() {
        let (tier, rx) = PrecomputeTier::with_queue(PrecomputedRanks::new(0, 4, 0.85, 1e-6));
        drop(rx);
        assert_eq!(tier.request_backfill(vec!["alpha".into()]), 0);
        assert!(tier
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty());
    }
}
