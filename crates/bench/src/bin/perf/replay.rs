//! The in-process half of the per-layer numbers.
//!
//! `replay` walks the workload's request sequence through the layers'
//! public functions in the order the server's handlers call them, with
//! a span around each call. `battery` times standalone kernels on the
//! workload's first dataset. Neither touches the server under test.

use crate::check::{feedback_objects, node_ids, Reference, TopK};
use crate::client::request_bytes;
use crate::stats::median;
use crate::trace::Trace;
use crate::workload::{feedback_body, Iteration, Plan, Shape, CACHE_ENTRIES, K, MAX_SESSIONS};
use orex_authority::{global_object_rank, object_rank2, top_k, TransitionMatrix};
use orex_core::{ObjectRankSystem, QuerySession, ResultObject, StepStats};
use orex_graph::TransferGraph;
use orex_ir::{Analyzer, IndexBuilder, Query, QueryVector};
use orex_server::http::{read_request, Response};
use orex_server::{ResultCache, SessionTable};
use std::hint::black_box;
use std::io::BufReader;
use std::time::{Duration, Instant};

/// Operations replayed.
const REPLAY_OPS: usize = 64;
/// Repetitions of a microsecond-scale kernel.
const KERNEL_REPS: usize = 32;
/// Repetitions of a kernel that takes milliseconds or more.
const BUILD_REPS: usize = 3;

fn results_json(results: &[ResultObject]) -> serde_json::Value {
    serde_json::Value::Array(
        results
            .iter()
            .map(|r| {
                serde_json::json!({
                    "node": r.node.raw(),
                    "score": r.score,
                    "label": r.label.clone(),
                    "display": r.display.clone(),
                })
            })
            .collect(),
    )
}

fn top_of(results: &[ResultObject]) -> TopK {
    TopK {
        nodes: results.iter().map(|r| u64::from(r.node.raw())).collect(),
        scores: results.iter().map(|r| r.score).collect(),
    }
}

struct Replayer<'a> {
    plan: &'a Plan,
    reference: &'a Reference,
    caches: Vec<ResultCache>,
    sessions: SessionTable,
    trace: Trace,
    requests: u32,
    feedback_steps: Vec<StepStats>,
    explanations: Vec<ExplanationSize>,
}

impl<'a> Replayer<'a> {
    fn system(&self, it: Iteration) -> &'a ObjectRankSystem {
        &self.reference.systems[it.dataset]
    }

    fn serialize(&mut self, root: u32, payload: &serde_json::Value) {
        let request = self.requests;
        self.trace
            .scope("server.serialize", Some(root), request, || {
                let body = serde_json::to_string(payload).unwrap_or_default();
                let mut wire = Vec::new();
                let _ = Response::json(200, body).write_to(&mut wire, true);
                black_box(wire);
            });
    }

    fn parse(&mut self, root: u32, raw: &[u8]) -> Result<(), String> {
        let request = self.requests;
        self.trace
            .scope("server.parse", Some(root), request, || {
                read_request(&mut BufReader::new(raw), 64 * 1024).map(black_box)
            })
            .map(drop)
            .map_err(|e| format!("replay: the server's parser rejects a benchmark request: {e:?}"))
    }

    /// `handle_query`, layer by layer.
    fn query(&mut self, it: Iteration) -> Result<(u64, TopK), String> {
        self.requests += 1;
        let request = self.requests;
        let system = self.system(it);
        let raw = request_bytes("POST", "/query", Some(&self.plan.query_body(it)));
        let root = self.trace.open("replay.query", request);
        self.parse(root, &raw)?;
        let query = Query::parse(self.plan.keyword(it));
        let qv = self
            .trace
            .scope("ir.query_vector", Some(root), request, || {
                QueryVector::initial(&query, system.index().analyzer())
            });
        let key = ResultCache::key(&qv);
        let cache = &self.caches[it.dataset];
        let hit = self
            .trace
            .scope("server.cache_get", Some(root), request, || cache.get(&key))
            .map_err(|e| format!("replay cache get: {e}"))?;
        let snapshot = match hit {
            Some(snapshot) => snapshot,
            None => {
                let session = self
                    .trace
                    .scope("core.session_start", Some(root), request, || {
                        QuerySession::start(system, &query)
                    })
                    .map_err(|e| format!("replay query {:?}: {e}", query.keywords))?;
                let snapshot = self
                    .trace
                    .scope("core.snapshot", Some(root), request, || session.snapshot());
                // `RankStore::store` clones the snapshot into the cache.
                self.trace
                    .scope("server.cache_put", Some(root), request, || {
                        cache.put(key, snapshot.clone())
                    })
                    .map_err(|e| format!("replay cache put: {e}"))?;
                snapshot
            }
        };
        let session = self
            .trace
            .scope("core.session_resume", Some(root), request, || {
                QuerySession::resume(system, snapshot.clone())
            });
        let sessions = &self.sessions;
        let sid = self
            .trace
            .scope("server.session_insert", Some(root), request, || {
                sessions.insert("replay", snapshot)
            })
            .map_err(|e| format!("replay session insert: {e}"))?;
        let results = self
            .trace
            .scope("core.top_k", Some(root), request, || session.top_k(K));
        let payload = serde_json::json!({
            "session": sid,
            "dataset": "replay",
            "cached": false,
            "combined": false,
            "trace": serde_json::Value::Null,
            "results": results_json(&results),
        });
        self.serialize(root, &payload);
        self.trace.close(root);
        Ok((sid, top_of(&results)))
    }

    /// `handle_explain`, layer by layer.
    fn explain(&mut self, it: Iteration, sid: u64, node: u64) -> Result<(), String> {
        self.requests += 1;
        let request = self.requests;
        let system = self.system(it);
        let root = self.trace.open("replay.explain", request);
        let sessions = &self.sessions;
        let (_, snapshot) = self
            .trace
            .scope("server.session_get", Some(root), request, || {
                sessions.get(sid)
            })
            .map_err(|e| format!("replay session get: {e}"))?
            .ok_or("replay: session evicted before its explain")?;
        let session = self
            .trace
            .scope("core.session_resume", Some(root), request, || {
                QuerySession::resume(system, snapshot)
            });
        let target = node_ids(&[node])[0];
        let explanation = self
            .trace
            .scope("explain.explain", Some(root), request, || {
                session.explain(target)
            })
            .map_err(|e| format!("replay explain: {e}"))?;
        self.explanations.push(ExplanationSize {
            nodes: explanation.node_count(),
            edges: explanation.edge_count(),
            fixpoint_iterations: explanation.iterations(),
        });
        // Measured as the server calls it: `explain_summary` explains
        // the target a second time before summarizing.
        let summary = self
            .trace
            .scope("explain.summarize", Some(root), request, || {
                session.explain_summary(target, 8)
            })
            .map_err(|e| format!("replay explain summary: {e}"))?;
        let meta_paths: Vec<serde_json::Value> = summary
            .iter()
            .map(|m| {
                serde_json::json!({
                    "signature": m.signature.clone(),
                    "count": m.count as u64,
                    "total_flow": m.total_flow,
                })
            })
            .collect();
        let payload = serde_json::json!({
            "session": sid,
            "target": node,
            "display": system.display(target),
            "target_inflow": explanation.target_inflow(),
            "nodes": explanation.node_count() as u64,
            "edges": explanation.edge_count() as u64,
            "fixpoint_iterations": explanation.iterations() as u64,
            "converged": explanation.converged(),
            "meta_paths": serde_json::Value::Array(meta_paths),
        });
        self.serialize(root, &payload);
        self.trace.close(root);
        Ok(())
    }

    /// `handle_feedback`, layer by layer.
    fn feedback(&mut self, it: Iteration, sid: u64, objects: &[u64]) -> Result<TopK, String> {
        self.requests += 1;
        let request = self.requests;
        let system = self.system(it);
        let raw = request_bytes(
            "POST",
            &format!("/feedback/{sid}"),
            Some(&feedback_body(objects)),
        );
        let root = self.trace.open("replay.feedback", request);
        self.parse(root, &raw)?;
        let sessions = &self.sessions;
        let (_, snapshot) = self
            .trace
            .scope("server.session_get", Some(root), request, || {
                sessions.get(sid)
            })
            .map_err(|e| format!("replay session get: {e}"))?
            .ok_or("replay: session evicted before its feedback")?;
        let mut session = self
            .trace
            .scope("core.session_resume", Some(root), request, || {
                QuerySession::resume(system, snapshot)
            });
        let objects = node_ids(objects);
        let step = self
            .trace
            .scope("core.feedback", Some(root), request, || {
                session.feedback(&objects)
            })
            .map_err(|e| format!("replay feedback: {e}"))?;
        self.feedback_steps.push(step);
        let advanced = self
            .trace
            .scope("core.snapshot", Some(root), request, || session.snapshot());
        self.trace
            .scope("server.session_update", Some(root), request, || {
                sessions.update(sid, advanced)
            })
            .map_err(|e| format!("replay session update: {e}"))?;
        let results = self
            .trace
            .scope("core.top_k", Some(root), request, || session.top_k(K));
        let payload = serde_json::json!({
            "session": sid,
            "round": session.round() as u64,
            "rank_iterations": step.rank_iterations as u64,
            "converged": step.rank_converged,
            "results": results_json(&results),
        });
        self.serialize(root, &payload);
        self.trace.close(root);
        Ok(top_of(&results))
    }
}

/// Size of one replayed explaining subgraph.
pub struct ExplanationSize {
    pub nodes: usize,
    pub edges: usize,
    pub fixpoint_iterations: usize,
}

/// What the replay hands back.
pub struct Replayed {
    pub trace: Trace,
    /// `StepStats` of every replayed `QuerySession::feedback`.
    pub feedback_steps: Vec<StepStats>,
    /// One entry per replayed `GET /explain`.
    pub explanations: Vec<ExplanationSize>,
}

/// Replays the first [`REPLAY_OPS`] operations of the sequence, starting
/// from the state the fill phase leaves a server in: a full result cache
/// and a full session table, so puts and inserts evict as they do in
/// the timed windows.
pub fn replay(plan: &Plan, reference: &Reference) -> Result<Replayed, String> {
    let mut r = Replayer {
        plan,
        reference,
        caches: reference
            .systems
            .iter()
            .map(|_| ResultCache::new(CACHE_ENTRIES))
            .collect(),
        sessions: SessionTable::new(Duration::from_secs(600), MAX_SESSIONS),
        trace: Trace::new(Instant::now()),
        requests: 0,
        feedback_steps: Vec::new(),
        explanations: Vec::new(),
    };
    for (dataset, cache) in r.caches.iter().enumerate() {
        let first = Iteration { dataset, key: 0 };
        let filler = reference.start(dataset, plan.keyword(first))?.snapshot();
        for slot in 0..CACHE_ENTRIES {
            cache
                .put(format!("fill-{slot}"), filler.clone())
                .map_err(|e| format!("replay cache fill: {e}"))?;
        }
        for _ in 0..MAX_SESSIONS.div_ceil(reference.systems.len()) {
            r.sessions
                .insert("fill", filler.clone())
                .map_err(|e| format!("replay session fill: {e}"))?;
        }
    }
    let mut i = 0;
    while (r.requests as usize) < REPLAY_OPS {
        let it = plan.iteration(i);
        i += 1;
        let (sid, top) = r.query(it)?;
        if plan.spec.shape == Shape::QueryOnly {
            continue;
        }
        r.explain(it, sid, top.nodes[0])?;
        let next = r.feedback(it, sid, &feedback_objects(&top))?;
        if plan.spec.shape == Shape::PaperLoop {
            r.explain(it, sid, next.nodes[0])?;
            r.feedback(it, sid, &feedback_objects(&next))?;
        }
    }
    Ok(Replayed {
        trace: r.trace,
        feedback_steps: r.feedback_steps,
        explanations: r.explanations,
    })
}

fn timed<T>(work: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    black_box(work());
    t.elapsed()
}

fn median_us(reps: usize, mut rep: impl FnMut(usize) -> Duration) -> f64 {
    median((0..reps).map(|i| rep(i).as_secs_f64() * 1e6).collect())
}

/// Standalone kernels on the workload's first dataset, rotating through
/// its keyword pool: the calls `QuerySession::start` and
/// `ObjectRankSystem::new` make, one at a time. Returns `(metric name,
/// value)` pairs.
pub fn battery(plan: &Plan, reference: &Reference) -> Result<Vec<(&'static str, f64)>, String> {
    let system = &reference.systems[0];
    let config = system.config();
    let transfer = system.transfer();
    let index = system.index();
    let rates = system.initial_rates();
    let pool = plan.spec.datasets[0].pool;
    let vector = |rep: usize| {
        let keyword = plan.keyword(Iteration {
            dataset: 0,
            key: rep % pool,
        });
        QueryVector::initial(&Query::parse(keyword), index.analyzer())
    };
    let matrix = TransitionMatrix::new(transfer, rates);
    let mut iterations = Vec::new();
    let mut scores = Vec::new();
    let mut failure = None;
    let rank_us = median_us(KERNEL_REPS, |rep| {
        let qv = vector(rep);
        let t = Instant::now();
        let ranked = object_rank2(
            &matrix,
            index,
            &qv,
            &config.okapi,
            &config.rank,
            system.global_scores(),
        );
        let elapsed = t.elapsed();
        match ranked {
            Ok(result) => {
                iterations.push(result.iterations as f64);
                scores = result.scores;
            }
            Err(e) => failure = Some(format!("battery rank, pool key {}: {e}", rep % pool)),
        }
        elapsed
    });
    if let Some(why) = failure {
        return Err(why);
    }
    Ok(vec![
        (
            "graph.weights_us",
            median_us(KERNEL_REPS, |_| timed(|| transfer.weights(rates))),
        ),
        (
            "graph.transfer_build_ms",
            median_us(BUILD_REPS, |_| {
                timed(|| TransferGraph::build(system.graph()))
            }) / 1e3,
        ),
        (
            "authority.matrix_build_us",
            median_us(KERNEL_REPS, |_| {
                let weights = transfer.weights(rates);
                timed(|| TransitionMatrix::from_edge_weights(transfer, weights))
            }),
        ),
        ("authority.rank_us", rank_us),
        ("authority.rank_iterations", median(iterations)),
        (
            "authority.top_k_us",
            median_us(KERNEL_REPS, |_| timed(|| top_k(&scores, K, 0.0))),
        ),
        (
            "authority.global_rank_ms",
            median_us(BUILD_REPS, |_| {
                timed(|| global_object_rank(&matrix, &config.rank))
            }) / 1e3,
        ),
        (
            "ir.base_set_us",
            median_us(KERNEL_REPS, |rep| {
                let qv = vector(rep);
                timed(|| index.base_set_scores(&qv, &config.okapi))
            }),
        ),
        (
            "ir.index_build_ms",
            median_us(BUILD_REPS, |_| {
                timed(|| {
                    let mut builder = IndexBuilder::new(Analyzer::new());
                    for node in system.graph().nodes() {
                        builder.add_document(node.raw(), &system.graph().node_text(node));
                    }
                    builder.build()
                })
            }) / 1e3,
        ),
    ])
}
