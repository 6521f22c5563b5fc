//! The worker server: configuration, routing, and handlers.
//!
//! The transport — accept loop, connection cap, keep-alive connection
//! loop, drain, and the per-request envelope of trace, metrics and
//! access log — is [`crate::frontend`], shared with the router. This
//! module binds the listener, owns the state handlers work against,
//! and supplies the route function.

use crate::error::ServerError;
use crate::frontend::{self, AccessFields, Limits, ShutdownHandle, Surface};
use crate::http::{Request, Response};
use crate::logs::LogArchive;
use crate::ranks::CombineOutcome;
use crate::registry::{DatasetService, SystemRegistry};
use crate::sessions::SessionTable;
use crate::status::{Occupancy, StatusBoard};
use crate::traces::TraceArchive;
use orex_core::{ObjectRankSystem, QuerySession, SessionError, SessionSnapshot};
use orex_graph::NodeId;
use orex_ir::{Query, QueryVector};
use orex_telemetry::Level;
use serde_json::Value;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Tuning knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7474`. Port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Handler threads: parsed requests queue for one of this many
    /// threads, so that many handlers run at once however many
    /// connections are open.
    pub threads: usize,
    /// LRU result-cache capacity (distinct normalized queries), per
    /// dataset.
    pub cache_entries: usize,
    /// Session idle TTL.
    pub session_ttl: Duration,
    /// Max live sessions before LRU eviction.
    pub max_sessions: usize,
    /// Per-request body limit in bytes.
    pub max_body_bytes: usize,
    /// Socket timeout: how long a connection's first request may take
    /// to start arriving, and the bound on reading the rest of any
    /// request and on writing its response.
    pub io_timeout: Duration,
    /// Traces retained for `GET /trace/<id>`.
    pub max_traces: usize,
    /// Log records retained for `GET /logs` (the server-side archive on
    /// top of the logger's own ring).
    pub max_logs: usize,
    /// Requests at least this slow additionally log a `server.slow`
    /// WARN record.
    pub slow_request: Duration,
    /// Precomputed rank-vector artifact (from `orex precompute`) to
    /// answer covered queries by linear combination. Validated against
    /// the served dataset at bind time. Single-dataset
    /// ([`Server::bind`]) path only.
    pub precompute_path: Option<PathBuf>,
    /// Build vectors for uncovered query terms in a background thread so
    /// later occurrences combine. Only meaningful with a precompute
    /// artifact loaded.
    pub backfill: bool,
    /// Continuous-profiler sampling rate in Hz; 0 leaves the sampler
    /// off (`GET /profile` then answers 503). The first component to
    /// touch the global profiler fixes its rate, and `OREX_PROFILE_HZ`
    /// overrides both.
    pub profile_hz: u64,
    /// Cadence of the background status collector that feeds
    /// `/debug/status` history and evaluates SLO burn rates.
    pub status_interval: Duration,
    /// Live-connection cap: connections accepted past this limit are
    /// answered `503` + `Retry-After` immediately instead of queueing.
    pub max_connections: usize,
    /// Max requests served on one keep-alive connection before the
    /// server closes it (bounds per-connection state lifetime).
    pub keepalive_requests: u64,
    /// How long a kept-alive connection may sit idle before the server
    /// closes it.
    pub keepalive_idle: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7474".to_string(),
            threads: 8,
            cache_entries: 256,
            session_ttl: Duration::from_secs(600),
            max_sessions: 1024,
            max_body_bytes: 64 * 1024,
            io_timeout: Duration::from_secs(5),
            max_traces: 256,
            max_logs: 4096,
            slow_request: Duration::from_millis(500),
            precompute_path: None,
            backfill: true,
            profile_hz: orex_telemetry::profile::DEFAULT_HZ,
            status_interval: Duration::from_secs(2),
            max_connections: 1024,
            keepalive_requests: 1000,
            keepalive_idle: Duration::from_secs(5),
        }
    }
}

/// Everything a handler needs, shared across connection threads.
struct ServerState {
    registry: SystemRegistry,
    sessions: SessionTable,
    traces: TraceArchive,
    logs: LogArchive,
    status: StatusBoard,
}

/// A bound, not-yet-running server; call [`Server::run`] to serve.
pub struct Server {
    listener: TcpListener,
    state: ServerState,
    config: ServerConfig,
    stop: ShutdownHandle,
}

impl Server {
    /// Binds `config.addr` serving the single `system` as the dataset
    /// named `default`. When a precompute artifact is configured it is
    /// loaded and validated against the served dataset (graph hash,
    /// node count, damping, epsilon) — a mismatched artifact is a bind
    /// error, not a silent mis-ranking.
    pub fn bind(system: Arc<ObjectRankSystem>, config: ServerConfig) -> io::Result<Self> {
        let service = DatasetService::from_system(
            "default",
            orex_datagen::Preset::DblpTop,
            0.0,
            system,
            config.cache_entries,
            config.precompute_path.as_deref(),
        )
        .map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why))?;
        let registry = SystemRegistry::single(service, config.backfill);
        Self::bind_registry(registry, config)
    }

    /// Binds `config.addr` serving every dataset in `registry`. The
    /// first registered dataset answers requests that don't name one.
    pub fn bind_registry(registry: SystemRegistry, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let state = ServerState {
            registry,
            sessions: SessionTable::new(config.session_ttl, config.max_sessions),
            traces: TraceArchive::new(config.max_traces),
            logs: LogArchive::new(config.max_logs),
            status: StatusBoard::new(),
        };
        Ok(Self {
            listener,
            state,
            config,
            stop: ShutdownHandle::default(),
        })
    }

    /// Builds every registered dataset now instead of lazily on first
    /// use. Surfaces build errors before the server starts serving.
    pub fn build_all_datasets(&self) -> io::Result<()> {
        self.state
            .registry
            .build_all()
            .map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why))
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.stop.clone()
    }

    /// Serves until shutdown is requested (via [`ShutdownHandle`] or an
    /// installed signal handler), then drains in-flight requests and
    /// returns.
    pub fn run(self) -> io::Result<()> {
        let Self {
            listener,
            state,
            config,
            stop,
        } = self;
        // Continuous profiling: sample every thread's span stack so
        // `GET /profile` always has recent history.
        if config.profile_hz > 0 {
            orex_telemetry::profiler_at(config.profile_hz).start();
        }
        let limits = Limits {
            max_connections: config.max_connections,
            handlers: Some(config.threads),
            max_body_bytes: config.max_body_bytes,
            io_timeout: config.io_timeout,
            keepalive_idle: config.keepalive_idle,
            keepalive_requests: config.keepalive_requests.max(1),
            slow_request: config.slow_request,
        };
        // Background status collector: snapshots metrics into the status
        // board's history ring and keeps SLO burn rates (and the
        // `orex_slo_*` gauges on /metrics) current even when nobody polls
        // /debug/status. Paced by a condvar so shutdown can interrupt a
        // sleep (ORX005: no bare thread::sleep in this crate).
        let collector_stop = (Mutex::new(false), Condvar::new());
        let served = std::thread::scope(|scope| {
            // Best effort: without the thread, status is still
            // collected on demand by `/debug/status`.
            let _ = std::thread::Builder::new()
                .name("orex-status".into())
                .spawn_scoped(scope, || {
                    let (lock, cv) = &collector_stop;
                    loop {
                        state.status.collect();
                        let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
                        let (guard, _timeout) = cv
                            .wait_timeout(guard, config.status_interval)
                            .unwrap_or_else(PoisonError::into_inner);
                        if *guard {
                            return;
                        }
                    }
                });
            let served = frontend::serve(
                &listener,
                &Surface::SERVER,
                &limits,
                &stop,
                &state.traces,
                |request, fields| route(request, &state, fields),
            );
            // Close the backfill queues after the drain (drained requests
            // may still enqueue) and wait for the builders to finish.
            state.registry.shutdown();
            let (lock, cv) = &collector_stop;
            *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cv.notify_all();
            served
        });
        served?;
        orex_telemetry::global()
            .counter("server.clean_shutdowns")
            .incr();
        Ok(())
    }
}

/// Renders a handler result, logging every 5xx at ERROR — the request
/// span is still open here, so the record carries the trace id that
/// `GET /trace/<id>` serves. `endpoint` feeds the per-endpoint
/// `server.<endpoint>_5xx` counter the availability SLOs read.
fn respond(endpoint: &str, result: Result<Response, ServerError>) -> Response {
    result.unwrap_or_else(|e| {
        if e.status() >= 500 {
            orex_telemetry::global()
                .counter(&format!("server.{endpoint}_5xx"))
                .incr();
            orex_telemetry::logger()
                .error("server.error", format!("{e}"))
                .field_u64("status", u64::from(e.status()))
                .field_str("endpoint", endpoint)
                .emit();
        }
        e.into_response()
    })
}

fn route(request: &Request, state: &ServerState, fields: &mut AccessFields) -> Response {
    let (segments, query) = request.target();
    match (request.method.as_str(), segments.as_slice()) {
        // The clock header carries this process's tracer time so an
        // ingress probe can estimate cross-process clock offsets for
        // stitched trace alignment.
        ("GET", ["healthz"]) => Response::text(200, "ok\n").with_header(
            "X-Orex-Clock",
            orex_telemetry::tracer().now_ns().to_string(),
        ),
        ("GET", ["metrics"]) => {
            let _span = orex_telemetry::global().span("server.metrics_us");
            Response::text(200, orex_telemetry::global().snapshot().to_prometheus())
        }
        ("POST", ["query"]) => respond("query", handle_query(request, state, fields)),
        ("GET", ["datasets"]) => respond("datasets", handle_datasets(state)),
        ("GET", ["explain", sid, node]) => {
            respond("explain", handle_explain(state, sid, node, fields))
        }
        ("POST", ["feedback", sid]) => {
            respond("feedback", handle_feedback(request, state, sid, fields))
        }
        ("GET", ["trace", id]) => respond("trace", handle_trace(state, id, query)),
        ("GET", ["logs"]) => respond("logs", handle_logs(state, query)),
        ("GET", ["profile"]) => respond("profile", handle_profile(query)),
        ("GET", ["debug", "status"]) => respond("status", handle_status(state, query)),
        (method, segments) => frontend::unrouted(method, segments),
    }
}

/// Parses the request body as a JSON object.
fn body_object(request: &Request) -> Result<Value, ServerError> {
    let text = request
        .body_str()
        .ok_or_else(|| ServerError::BadRequest("body is not UTF-8".into()))?;
    let value = serde_json::from_str(text)
        .map_err(|_| ServerError::BadRequest("body is not valid JSON".into()))?;
    if value.as_object().is_none() {
        return Err(ServerError::BadRequest("body must be a JSON object".into()));
    }
    Ok(value)
}

fn ranked_json(session: &QuerySession<'_>, k: usize) -> Value {
    let results: Vec<Value> = session
        .top_k(k)
        .into_iter()
        .map(|r| {
            serde_json::json!({
                "node": r.node.raw(),
                "score": r.score,
                "label": r.label,
                "display": r.display,
            })
        })
        .collect();
    Value::Array(results)
}

fn session_error(e: &SessionError) -> ServerError {
    match e {
        SessionError::Ranking(_) | SessionError::Explain(_) => {
            ServerError::BadRequest(format!("{e}"))
        }
        SessionError::NoFeedbackObjects => {
            ServerError::BadRequest("no feedback objects given".into())
        }
    }
}

fn requested_k(body: &Value) -> usize {
    body.get("k")
        .and_then(Value::as_u64)
        .map_or(10, |k| (k as usize).clamp(1, 1000))
}

/// `GET /datasets`: every registered dataset with its load state and
/// per-dataset memory accounting.
fn handle_datasets(state: &ServerState) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.datasets_us");
    telemetry.counter("server.datasets_requests").incr();
    Ok(Response::json(
        200,
        serde_json::to_string(&state.registry.list_json()).unwrap_or_default(),
    ))
}

fn handle_query(
    request: &Request,
    state: &ServerState,
    flags: &mut AccessFields,
) -> Result<Response, ServerError> {
    let body = body_object(request)?;
    let Some(query_text) = body.get("query").and_then(Value::as_str) else {
        return Err(ServerError::BadRequest("missing \"query\" field".into()));
    };
    let dataset_name = match body.get("dataset") {
        None => state.registry.default_name().to_string(),
        Some(Value::String(name)) => name.clone(),
        Some(_) => {
            return Err(ServerError::BadRequest(
                "\"dataset\" must be a string".into(),
            ))
        }
    };
    // Recorded before resolution so the access log carries the dataset
    // the client *asked for*, including unknown ones (their 404s are
    // exactly the records an operator greps for).
    flags.dataset = Some(dataset_name.clone());
    let service = state.registry.get(&dataset_name)?;
    service.count_query();
    let k = requested_k(&body);
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.query_us");
    telemetry.counter("server.query_requests").incr();

    let system = service.system();
    let ranks = service.ranks();
    // Normalize before consulting the cache, so equivalent spellings of
    // one query share an entry.
    let query = Query::parse(query_text);
    let qv = QueryVector::initial(&query, system.index().analyzer());

    let mut combined = false;
    let (snapshot, cached) = match ranks.lookup_initial(&qv)? {
        Some(snapshot) => (snapshot, true),
        // Result-cache miss: prefer the exact linear combination of
        // precomputed single-keyword vectors (Linearity, Section 6.2);
        // fall back to a live power iteration and queue the uncovered
        // terms for background backfill.
        None => match ranks.combine(&qv, system.index(), &system.config().okapi) {
            CombineOutcome::Hit(scores) => {
                combined = true;
                flags.precompute_hit = Some(true);
                let snapshot =
                    SessionSnapshot::from_parts(qv.clone(), system.initial_rates().clone(), scores);
                ranks.store(&qv, &snapshot)?;
                (snapshot, false)
            }
            outcome => {
                if let CombineOutcome::Miss(missing) = outcome {
                    flags.precompute_hit = Some(false);
                    ranks.request_backfill(missing);
                }
                let session = QuerySession::start(system, &query).map_err(|e| session_error(&e))?;
                let snapshot = session.snapshot();
                ranks.store(&qv, &snapshot)?;
                (snapshot, false)
            }
        },
    };
    flags.cache_hit = Some(cached);
    // The request's trace, so the client can ask `GET /trace/<id>` for it.
    let trace_id = orex_telemetry::tracer()
        .current_span()
        .map(|(trace, _)| trace.0);
    let session = QuerySession::resume(system, snapshot.clone());
    let session_id = state.sessions.insert(&dataset_name, snapshot)?;
    let payload = serde_json::json!({
        "session": session_id,
        "dataset": dataset_name,
        "cached": cached,
        "combined": combined,
        "trace": trace_id.map_or(Value::Null, Value::from),
        "results": ranked_json(&session, k),
    });
    Ok(Response::json(
        200,
        serde_json::to_string(&payload).unwrap_or_default(),
    ))
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

/// The `key=value` pairs of a query string, in order. A key outside
/// `expected` yields the handler's 400 in its place.
fn query_params<'q>(
    query: &'q str,
    expected: &'static [&'static str],
) -> impl Iterator<Item = Result<(&'q str, &'q str), ServerError>> + 'q {
    query.split('&').filter(|p| !p.is_empty()).map(move |pair| {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if expected.contains(&key) {
            Ok((key, value))
        } else {
            Err(ServerError::BadRequest(format!(
                "unknown query parameter {key:?} (expected {})",
                expected.join("|")
            )))
        }
    })
}

/// Parses the value of query parameter `key` as an unsigned integer.
fn unsigned<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ServerError> {
    value
        .parse()
        .map_err(|_| ServerError::BadRequest(format!("{key} must be an unsigned integer")))
}

/// Resolves a session id to its snapshot and owning dataset service.
fn session_service(
    state: &ServerState,
    sid: u64,
    flags: &mut AccessFields,
) -> Result<Option<(Arc<DatasetService>, SessionSnapshot)>, ServerError> {
    let Some((dataset, snapshot)) = state.sessions.get(sid)? else {
        return Ok(None);
    };
    flags.dataset = Some(dataset.to_string());
    let service = state.registry.get(&dataset)?;
    Ok(Some((service, snapshot)))
}

fn handle_explain(
    state: &ServerState,
    sid: &str,
    node: &str,
    flags: &mut AccessFields,
) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.explain_us");
    telemetry.counter("server.explain_requests").incr();
    let Some(sid) = parse_id(sid) else {
        return Err(ServerError::BadRequest(
            "session id must be an integer".into(),
        ));
    };
    let Ok(node) = node.parse::<u32>() else {
        return Err(ServerError::BadRequest("node id must be an integer".into()));
    };
    let Some((service, snapshot)) = session_service(state, sid, flags)? else {
        return Err(ServerError::NotFound("no such session (expired?)".into()));
    };
    let system = service.system();
    if node as usize >= system.graph().node_count() {
        return Err(ServerError::BadRequest("node id out of range".into()));
    }
    let session = QuerySession::resume(system, snapshot);
    let target = NodeId::new(node);
    let explanation = session.explain(target).map_err(|e| session_error(&e))?;
    let summary = orex_explain::summarize(&explanation, system.transfer(), system.graph(), 8);
    let meta_paths: Vec<Value> = summary
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
        "meta_paths": Value::Array(meta_paths),
    });
    Ok(Response::json(
        200,
        serde_json::to_string(&payload).unwrap_or_default(),
    ))
}

/// Most distinct objects one `/feedback` round accepts. Every object
/// costs a full explanation on the handler's thread, so like the body
/// size this bounds what one outside request can ask for.
const MAX_FEEDBACK_OBJECTS: usize = 64;

fn handle_feedback(
    request: &Request,
    state: &ServerState,
    sid: &str,
    flags: &mut AccessFields,
) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.feedback_us");
    telemetry.counter("server.feedback_requests").incr();
    let Some(sid) = parse_id(sid) else {
        return Err(ServerError::BadRequest(
            "session id must be an integer".into(),
        ));
    };
    let body = body_object(request)?;
    let Some(raw_objects) = body.get("objects").and_then(Value::as_array) else {
        return Err(ServerError::BadRequest("missing \"objects\" array".into()));
    };
    let Some((service, snapshot)) = session_service(state, sid, flags)? else {
        return Err(ServerError::NotFound("no such session (expired?)".into()));
    };
    let system = service.system();
    let node_count = system.graph().node_count();
    // Equations 14/15 aggregate over a *set* of feedback objects: a
    // repeated id votes once.
    let mut objects: Vec<NodeId> = Vec::new();
    for v in raw_objects {
        let node = match v.as_u64() {
            Some(raw) if (raw as usize) < node_count => NodeId::new(raw as u32),
            _ => {
                return Err(ServerError::BadRequest(
                    "objects must be in-range node ids".into(),
                ))
            }
        };
        if objects.contains(&node) {
            continue;
        }
        if objects.len() == MAX_FEEDBACK_OBJECTS {
            return Err(ServerError::BadRequest("too many feedback objects".into()));
        }
        objects.push(node);
    }
    let k = requested_k(&body);
    // Warm-start reformulation: resume the stored state, run one
    // feedback round, store the advanced state back.
    let mut session = QuerySession::resume(system, snapshot);
    let stats = session.feedback(&objects).map_err(|e| session_error(&e))?;
    // A session that expired mid-round is not revived: this response
    // still answers, and the next call on `sid` gets the 404.
    state.sessions.update(sid, session.snapshot())?;
    let payload = serde_json::json!({
        "session": sid,
        "round": session.round() as u64,
        "rank_iterations": stats.rank_iterations as u64,
        "converged": stats.rank_converged,
        "results": ranked_json(&session, k),
    });
    Ok(Response::json(
        200,
        serde_json::to_string(&payload).unwrap_or_default(),
    ))
}

/// `GET /trace/<id>[?format=chrome|wire]`: one archived trace, as a
/// Chrome trace-event JSON document (the default, for humans) or in the
/// line-oriented wire format (for a stitching ingress edge assembling a
/// fleet-wide view).
fn handle_trace(state: &ServerState, id: &str, query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.trace_us");
    telemetry.counter("server.trace_requests").incr();
    let Some(id) = parse_id(id) else {
        return Err(ServerError::BadRequest(
            "trace id must be an integer".into(),
        ));
    };
    let mut wire = false;
    for param in query_params(query, &["format"]) {
        match param?.1 {
            "chrome" => wire = false,
            "wire" => wire = true,
            _ => {
                return Err(ServerError::BadRequest(
                    "format must be chrome or wire".into(),
                ));
            }
        }
    }
    // The requested trace may still sit in the ring (e.g. traced by
    // another worker that hasn't drained yet): absorb before lookup.
    state.traces.absorb(orex_telemetry::tracer().drain());
    match state.traces.get(id) {
        Some(spans) if wire => Ok(Response::text(200, orex_telemetry::export::to_wire(&spans))),
        Some(spans) => Ok(Response::json(
            200,
            orex_telemetry::export::to_chrome_trace(&spans),
        )),
        None => Err(ServerError::NotFound("no such trace (evicted?)".into())),
    }
}

/// `GET /logs?level=&since=&limit=&trace=`: tails the captured log ring
/// as JSON-lines. `level` keeps records at that severity or worse,
/// `since` keeps records with a capture sequence strictly greater (the
/// `seq` field of each served line, for polling), `limit` keeps the
/// newest N, `trace` keeps records stamped with that trace id — the
/// logs leg of metrics → trace → logs correlation.
fn handle_logs(state: &ServerState, query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.logs_us");
    telemetry.counter("server.logs_requests").incr();
    let mut level = None;
    let mut since = None;
    let mut limit = None;
    let mut trace = None;
    for param in query_params(query, &["level", "since", "limit", "trace"]) {
        let (key, value) = param?;
        match key {
            "level" => level = Some(value.parse::<Level>().map_err(ServerError::BadRequest)?),
            "since" => since = Some(unsigned(key, value)?),
            "limit" => limit = Some(unsigned(key, value)?),
            // "trace", the one expected key left.
            _ => trace = Some(unsigned(key, value)?),
        }
    }
    // Records may still sit in the logger's ring (emitted by workers
    // that haven't been drained): absorb before serving. The archive
    // keeps them for subsequent (and `since=`-cursored) reads.
    state.logs.absorb(orex_telemetry::logger().drain());
    // Every response advertises the newest capture sequence so pollers
    // always hold a valid cursor. A `since` beyond that cursor (stale
    // cursor from before a ring reset / server restart) serves an empty
    // page rather than stalling forever or replaying from the start —
    // the client resets its cursor from the header.
    let newest = state.logs.newest_seq().unwrap_or(0);
    let records = match since {
        Some(s) if s > newest => Vec::new(),
        _ => state.logs.query(level, since, limit, trace),
    };
    Ok(Response::new(
        200,
        "application/x-ndjson",
        orex_telemetry::export::log_json_lines(&records).into_bytes(),
    )
    .with_header("X-Orex-Log-Cursor", newest.to_string()))
}

/// `GET /profile?seconds=&format=folded|chrome`: folded span stacks (or
/// a Chrome trace-event view) aggregated from the continuous profiler's
/// rolling windows. `seconds=0` (the default) covers all retained
/// history. 503 when the sampler is off (`profile_hz = 0` and no
/// `OREX_PROFILE_HZ`).
fn handle_profile(query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.profile_us");
    telemetry.counter("server.profile_requests").incr();
    let mut seconds = 0u64;
    let mut format = "folded";
    for param in query_params(query, &["seconds", "format"]) {
        match param? {
            (key @ "seconds", value) => seconds = unsigned(key, value)?,
            (_, "folded") => format = "folded",
            (_, "chrome") => format = "chrome",
            _ => {
                return Err(ServerError::BadRequest(
                    "format must be folded or chrome".into(),
                ));
            }
        }
    }
    let profiler = orex_telemetry::profiler();
    if !profiler.is_running() {
        return Err(ServerError::Unavailable(
            "profiler is not running (start the server with a nonzero profile rate)".into(),
        ));
    }
    let snapshot = profiler.snapshot(seconds);
    Ok(match format {
        "chrome" => Response::json(200, snapshot.to_chrome()),
        _ => Response::text(200, snapshot.to_folded()),
    })
}

/// `GET /debug/status[?format=json]`: the operator dashboard. HTML by
/// default (self-refreshing, zero scripts); `format=json` serves the
/// machine-readable document `orex top` and CI consume.
fn handle_status(state: &ServerState, query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.status_us");
    telemetry.counter("server.status_requests").incr();
    let mut json = false;
    for param in query_params(query, &["format"]) {
        match param?.1 {
            "json" => json = true,
            "html" => json = false,
            _ => {
                return Err(ServerError::BadRequest(
                    "format must be html or json".into(),
                ));
            }
        }
    }
    // Top up history so the page is fresh even between collector ticks
    // (and deterministic in tests, which poll faster than the cadence).
    state.status.collect_if_stale(Duration::from_millis(250));
    state.logs.absorb(orex_telemetry::logger().drain());
    let mut cache = 0usize;
    let mut precompute_terms = 0usize;
    for name in state.registry.names() {
        if let Some(svc) = state.registry.get_if_loaded(name) {
            cache += svc.ranks().cached_results();
            precompute_terms += svc.ranks().precomputed_terms();
        }
    }
    let occupancy = Occupancy {
        sessions: state.sessions.len(),
        cache,
        precompute_terms,
        traces: state.traces.len(),
        logs: state.logs.len(),
        recent_errors: state.logs.query(Some(Level::Error), None, None, None).len(),
    };
    Ok(if json {
        Response::json(200, state.status.render_json(occupancy))
    } else {
        Response::html(200, state.status.render_html(occupancy))
    })
}
