//! The worker server: configuration, routing, and handlers.
//!
//! The transport — accept loop, connection cap, keep-alive connection
//! loop, drain, and the per-request envelope of trace, metrics and
//! access log — is [`crate::frontend`], shared with the router. This
//! module binds the listener, owns the state handlers work against,
//! and supplies the route function.

use crate::cache::ResultCache;
use crate::error::ServerError;
use crate::frontend::{self, AccessFields, Limits, ShutdownHandle, Surface};
use crate::http::{Request, Response};
use crate::ranks::CombineOutcome;
use crate::registry::{DatasetService, SystemRegistry};
use crate::sessions::SessionTable;
use orex_core::{QuerySession, SessionError, SessionSnapshot};
use orex_graph::NodeId;
use orex_ir::{Query, QueryVector};
use orex_telemetry::{Level, TraceId};
use serde_json::Value;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7474`. Port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Route permits: at most this many requests are routed at once,
    /// each on its connection's thread, however many connections are
    /// open; the rest wait for a permit. It also caps the allocator's
    /// arenas (see [`Server::bind`]).
    pub threads: usize,
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
    /// Requests at least this slow additionally log a `server.slow`
    /// WARN record.
    pub slow_request: Duration,
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
            session_ttl: Duration::from_secs(600),
            max_sessions: 1024,
            max_body_bytes: 64 * 1024,
            io_timeout: Duration::from_secs(5),
            slow_request: Duration::from_millis(500),
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
}

/// A bound, not-yet-running server; call [`Server::run`] to serve.
pub struct Server {
    listener: TcpListener,
    state: ServerState,
    config: ServerConfig,
    stop: ShutdownHandle,
}

impl Server {
    /// Binds `config.addr` serving every dataset in `registry`. The
    /// first registered dataset answers requests that don't name one.
    ///
    /// Before any connection thread exists it caps glibc's malloc arenas
    /// at one per route permit plus the main arena: otherwise each
    /// connection thread may get an arena of its own, and the large
    /// buffers a route function allocates spread over as many arenas as
    /// there are connections (peak RSS on the `feedback_loop` benchmark
    /// workload rose 8–15 % without the cap).
    pub fn bind(registry: SystemRegistry, config: ServerConfig) -> io::Result<Self> {
        cap_malloc_arenas(config.threads.max(1) + 1);
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let state = ServerState {
            registry,
            sessions: SessionTable::new(config.session_ttl, config.max_sessions),
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
        let limits = Limits {
            max_connections: config.max_connections,
            concurrent_routes: config.threads,
            max_body_bytes: config.max_body_bytes,
            io_timeout: config.io_timeout,
            keepalive_idle: config.keepalive_idle,
            keepalive_requests: config.keepalive_requests.max(1),
            slow_request: config.slow_request,
        };
        let served = frontend::serve(
            &listener,
            &Surface::SERVER,
            &limits,
            &stop,
            |request, fields| route(request, &state, fields),
        );
        // Close the precompute tiers after the drain (drained requests
        // may still enqueue backfill) and wait for their builders.
        state.registry.shutdown();
        served?;
        orex_telemetry::global()
            .counter("server.clean_shutdowns")
            .incr();
        Ok(())
    }
}

/// Caps the number of glibc malloc arenas at `arenas`; returns whether
/// the allocator took the cap. A no-op returning `false` off linux-gnu.
fn cap_malloc_arenas(arenas: usize) -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        let arenas = i32::try_from(arenas).unwrap_or(i32::MAX);
        // SAFETY: `mallopt(3)` takes two plain integers and only adjusts
        // a glibc malloc tunable under the allocator's own lock; it is
        // callable from any thread at any time, and a lower `M_ARENA_MAX`
        // only stops new arenas from being created — memory already
        // handed out stays valid.
        unsafe { mallopt(M_ARENA_MAX, arenas) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        let _ = arenas;
        false
    }
}

/// Renders a handler result, logging every 5xx at ERROR — the request
/// span is still open here, so the record carries the trace id that
/// `GET /trace/<id>` serves. `endpoint` feeds the per-endpoint
/// `server.<endpoint>_5xx` counter, which `/metrics` exports beside the
/// endpoint's `_requests` count and `_us` histogram.
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
        ("GET", ["metrics"]) => respond("metrics", handle_metrics(query)),
        ("POST", ["query"]) => respond("query", handle_query(request, state, fields)),
        ("GET", ["datasets"]) => respond("datasets", handle_datasets(state, query)),
        ("GET", ["explain", sid, node]) => {
            respond("explain", handle_explain(state, sid, node, fields))
        }
        ("POST", ["feedback", sid]) => {
            respond("feedback", handle_feedback(request, state, sid, fields))
        }
        ("GET", ["trace", id]) => respond("trace", handle_trace(id, query)),
        ("GET", ["logs"]) => respond("logs", handle_logs(query)),
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

/// `GET /metrics`: the recorder's snapshot in the Prometheus text format.
/// Takes no query parameters.
fn handle_metrics(query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.metrics_us");
    for param in query_params(query, &[]) {
        param?;
    }
    Ok(Response::text(200, telemetry.snapshot().to_prometheus()))
}

/// `GET /datasets`: every registered dataset with its load state and
/// per-dataset memory accounting. Takes no query parameters.
fn handle_datasets(state: &ServerState, query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.datasets_us");
    telemetry.counter("server.datasets_requests").incr();
    for param in query_params(query, &[]) {
        param?;
    }
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
    // Normalize before consulting the cache, so equivalent spellings of
    // one query share an entry.
    let query = Query::parse(query_text);
    let qv = QueryVector::initial(&query, system.index().analyzer());
    let key = ResultCache::key(&qv);

    let mut combined = false;
    let (snapshot, cached) = match service.results().get(&key)? {
        Some(snapshot) => (snapshot, true),
        // Result-cache miss: prefer the exact linear combination of
        // precomputed single-keyword vectors (Linearity, Section 6.2);
        // fall back to a live power iteration (the tier has queued the
        // uncovered terms for background backfill).
        None => {
            let outcome = service
                .precompute()
                .map(|tier| tier.combine(&qv, system.index(), &system.config().okapi));
            let snapshot = match outcome {
                Some(CombineOutcome::Hit(scores)) => {
                    combined = true;
                    flags.precompute_hit = Some(true);
                    SessionSnapshot::from_parts(qv, system.initial_rates().clone(), scores)
                }
                outcome => {
                    if let Some(CombineOutcome::Miss) = outcome {
                        flags.precompute_hit = Some(false);
                    }
                    QuerySession::start(system, &query)
                        .map_err(|e| session_error(&e))?
                        .snapshot()
                }
            };
            service.results().put(key, snapshot.clone())?;
            (snapshot, false)
        }
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
            let expected = match expected {
                [] => "none".to_string(),
                keys => keys.join("|"),
            };
            Err(ServerError::BadRequest(format!(
                "unknown query parameter {key:?} (expected {expected})"
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
    // Summarized first, so the paths it searches are memoised in the
    // explanation before the session table charges its bytes.
    let summary = orex_explain::summarize(&explanation, system.transfer(), system.graph(), 8);
    // Kept for the `/feedback` that usually follows, which reuses the
    // explanation and its paths; refused if one already moved the
    // session on.
    state.sessions.keep_explanation(sid, session.snapshot())?;
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
/// size this bounds what one outside request can ask for. The object
/// the session's last `/explain` built costs nothing: the round reuses
/// that explanation.
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

/// `GET /trace/<id>`: one retained trace as a Chrome trace-event JSON
/// document — the document a stitching router merges into its fleet
/// view, too. It takes no query parameters.
fn handle_trace(id: &str, query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.trace_us");
    telemetry.counter("server.trace_requests").incr();
    let Some(id) = parse_id(id) else {
        return Err(ServerError::BadRequest(
            "trace id must be an integer".into(),
        ));
    };
    for param in query_params(query, &[]) {
        param?;
    }
    let spans = orex_telemetry::tracer().spans_of(TraceId(id));
    if spans.is_empty() {
        return Err(ServerError::NotFound("no such trace (evicted?)".into()));
    }
    Ok(Response::json(
        200,
        orex_telemetry::export::to_chrome_trace(&spans),
    ))
}

/// `GET /logs?level=&since=&limit=&trace=`: tails the logger's ring
/// as JSON-lines. `level` keeps records at that severity or worse,
/// `since` keeps records with a capture sequence strictly greater (the
/// `seq` field of each served line, for polling), `limit` keeps the
/// newest N, `trace` keeps records stamped with that trace id — the
/// logs leg of metrics → trace → logs correlation.
fn handle_logs(query: &str) -> Result<Response, ServerError> {
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
    let logger = orex_telemetry::logger();
    // Every response advertises the newest capture sequence so pollers
    // always hold a valid cursor. A `since` beyond that cursor (stale
    // cursor from before a server restart) serves an empty page rather
    // than stalling forever or replaying from the start — the client
    // resets its cursor from the header.
    let newest = logger.newest_seq().unwrap_or(0);
    let records = match since {
        Some(s) if s > newest => Vec::new(),
        _ => logger.query(level, since, limit, trace),
    };
    Ok(Response::new(
        200,
        "application/x-ndjson",
        orex_telemetry::export::log_json_lines(&records).into_bytes(),
    )
    .with_header("X-Orex-Log-Cursor", newest.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn the_allocator_takes_the_arena_cap() {
        assert!(cap_malloc_arenas(ServerConfig::default().threads + 1));
    }
}
