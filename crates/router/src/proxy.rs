//! Request routing, retry, and fleet-wide aggregation handlers.
//!
//! Queries route by consistent hash of `(dataset, query text)` so
//! repeats of the same query land on the same worker's result cache.
//! Session-scoped requests (`/explain`, `/feedback`) are *sticky*: the
//! router encodes the owning worker into the session id it hands out
//! (`global = local * W + worker`), so the worker is recoverable from
//! the id alone — no routing table to lose. Observability endpoints
//! aggregate across the fleet: `/metrics` re-labels every worker series
//! with `worker="i"`, `/logs` stamps each record with its worker, and
//! `/debug/status` nests per-worker status docs under a router summary.
//!
//! The router is also the fleet's tracing ingress edge: every request
//! runs under a `router.request` span (adopting an incoming
//! `X-Orex-Trace` context when the client sent one, else making the
//! sampling decision here), every proxied hop opens a child span and
//! injects its context so worker spans join the same trace, and
//! `GET /trace/<id>` stitches the router's own spans (read in place from
//! its tracer) together with every worker's into one per-process-lane
//! Chrome export.

use crate::fleet::{Fleet, Worker};
use orex_server::frontend::unrouted;
use orex_server::{ClientResponse, Request, Response};
use orex_telemetry::export::{parse_wire, to_chrome_trace_stitched, to_wire, ProcessLane};
use orex_telemetry::{TraceContext, TraceId};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Promoted-trace snapshots retained for retro-stitching.
const MAX_RETRO_TRACES: usize = 64;

/// Shared state the connection threads handle requests against.
pub struct RouterContext {
    /// The supervised worker fleet.
    pub fleet: Arc<Fleet>,
    /// Router start time, for `/debug/status` uptime.
    pub started: Instant,
    /// The router's own bound address (shown in status).
    pub addr: String,
    /// Wire-format snapshots of fleet-promoted slow traces, fetched
    /// from the workers before their tracers evict them.
    pub retro: RetroTraces,
}

impl RouterContext {
    /// Context for `fleet` with an empty retro store.
    pub fn new(fleet: Arc<Fleet>, started: Instant, addr: String) -> Self {
        Self {
            fleet,
            started,
            addr,
            retro: RetroTraces::new(MAX_RETRO_TRACES),
        }
    }
}

/// Bounded store of per-worker wire-format trace snapshots, keyed by
/// trace id — how a slow trace promoted on one worker survives long
/// enough for `GET /trace/<id>` to stitch its sibling spans after the
/// workers' own tracers move on. Oldest trace evicted first.
pub struct RetroTraces {
    inner: Mutex<RetroInner>,
    max_traces: usize,
}

struct RetroInner {
    /// Trace ids in first-stored order, driving eviction.
    order: VecDeque<u64>,
    /// Per-trace `(worker index, wire text)` snapshots.
    traces: HashMap<u64, Vec<(usize, String)>>,
}

impl RetroTraces {
    /// A store retaining at most `max_traces` traces (minimum 1).
    pub fn new(max_traces: usize) -> Self {
        Self {
            inner: Mutex::new(RetroInner {
                order: VecDeque::new(),
                traces: HashMap::new(),
            }),
            max_traces: max_traces.max(1),
        }
    }

    /// Stores (or replaces) the snapshots of one trace.
    pub fn insert(&self, trace: u64, snapshots: Vec<(usize, String)>) {
        if snapshots.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.traces.insert(trace, snapshots).is_none() {
            inner.order.push_back(trace);
        }
        while inner.order.len() > self.max_traces {
            if let Some(victim) = inner.order.pop_front() {
                inner.traces.remove(&victim);
            }
        }
    }

    /// The stored `(worker, wire text)` snapshots of `trace`, if any.
    pub fn get(&self, trace: u64) -> Vec<(usize, String)> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .traces
            .get(&trace)
            .cloned()
            .unwrap_or_default()
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .traces
            .len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The router's route function: dispatches one request to its handler.
/// It runs inside the shared front end's request envelope, so the
/// `router.request` span is open here — proxied hops parent under it
/// and every log record carries the fleet-shared trace id.
pub fn route(request: &Request, ctx: &RouterContext) -> Response {
    let (segments, query) = request.target();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => handle_healthz(ctx),
        ("POST", ["query"]) => handle_query(request, ctx),
        ("GET", ["explain", sid, node]) => {
            handle_session(ctx, "GET", sid, |local| format!("/explain/{local}/{node}"))
        }
        ("POST", ["feedback", sid]) => handle_session_with_body(ctx, sid, &request.body, |local| {
            format!("/feedback/{local}")
        }),
        ("GET", ["datasets"]) => proxy_any(ctx, "/datasets"),
        ("GET", ["metrics"]) => handle_metrics(ctx),
        ("GET", ["logs"]) => handle_logs(ctx, query),
        ("GET", ["trace", id]) => handle_trace(ctx, id),
        ("GET", ["debug", "status"]) => handle_status(ctx, query),
        (method, segments) => unrouted(method, segments),
    }
}

/// One traced proxied hop: a child span of the enclosing
/// `router.request` (carrying `worker`, `attempt`, and `reason` attrs)
/// whose context is injected as `X-Orex-Trace` so the worker's spans
/// parent under it. A worker that reports fleet-promoted slow traces
/// via `X-Orex-Promoted` triggers a retro-fetch of their sibling spans
/// before the workers' tracers evict them.
fn traced_hop(
    ctx: &RouterContext,
    worker: &Worker,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    attempt: u64,
    reason: &str,
) -> std::io::Result<ClientResponse> {
    let tracer = orex_telemetry::tracer();
    let mut span = tracer.span("router.proxy");
    if span.is_recording() {
        span.attr_u64("worker", worker.index as u64);
        span.attr_u64("attempt", attempt);
        span.attr_str("reason", reason);
    }
    let result = match span.context() {
        Some(hop) => {
            let value = hop.header_value();
            worker.client.request_with_headers(
                method,
                path,
                &[(TraceContext::HEADER, value.as_str())],
                body,
            )
        }
        None => worker.client.request(method, path, body),
    };
    if let Ok(response) = &result {
        note_promotions(ctx, response);
    }
    result
}

/// Acts on a worker's `X-Orex-Promoted` response header: for every
/// reported trace id, snapshots the wire-format spans from every
/// healthy worker into the retro store. Promotions only happen for
/// slow traces, so the extra fan-out is rare by construction.
fn note_promotions(ctx: &RouterContext, response: &ClientResponse) {
    let Some(value) = response.header("x-orex-promoted") else {
        return;
    };
    let ids: Vec<u64> = value
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    for id in ids {
        orex_telemetry::global()
            .counter("router.trace_promotions")
            .incr();
        let mut snapshots = Vec::new();
        for worker in ctx.fleet.workers() {
            if !worker.is_healthy() {
                continue;
            }
            let Ok(reply) = worker.client.get(&format!("/trace/{id}?format=wire")) else {
                continue;
            };
            if reply.status != 200 {
                continue;
            }
            if let Some(text) = reply.body_str() {
                if !text.is_empty() {
                    snapshots.push((worker.index, text.to_string()));
                }
            }
        }
        ctx.retro.insert(id, snapshots);
    }
}

/// Ready when at least one worker serves; the fleet degrades, it does
/// not binarize.
fn handle_healthz(ctx: &RouterContext) -> Response {
    if ctx.fleet.healthy_count() >= 1 {
        Response::text(200, "ok\n")
    } else {
        no_healthy_workers()
    }
}

/// Saturation 503, logged so the record (stamped with the in-flight
/// request's trace id) is greppable by trace.
fn no_healthy_workers() -> Response {
    orex_telemetry::logger()
        .warn("router.saturated", "no healthy workers")
        .emit();
    Response::error(503, "no healthy workers").with_header("Retry-After", "1")
}

/// `POST /query`: consistent-hash on `(dataset, query)`, forward, and
/// encode the serving worker into the returned session id. A request
/// that fails on its owner (connection error, or the worker itself
/// saturated with 503) is retried once on the next distinct healthy
/// worker — `router.retries` counts those.
fn handle_query(request: &Request, ctx: &RouterContext) -> Response {
    // The routing key prefers (dataset, query text) so identical
    // queries hit the same worker's result cache; an unparseable body
    // hashes raw (the worker will 400 it, any worker is fine).
    let parsed = request
        .body_str()
        .and_then(|s| serde_json::from_str(s).ok());
    let key: Vec<u8> = match &parsed {
        Some(v) => {
            let dataset = v.get("dataset").and_then(Value::as_str).unwrap_or("");
            let query = v.get("query").and_then(Value::as_str).unwrap_or("");
            let mut key = Vec::with_capacity(dataset.len() + 1 + query.len());
            key.extend_from_slice(dataset.as_bytes());
            key.push(0);
            key.extend_from_slice(query.as_bytes());
            key
        }
        None => request.body.clone(),
    };
    let Some(owner) = ctx.fleet.route(&key) else {
        return no_healthy_workers();
    };
    let workers = ctx.fleet.workers();
    let attempt = |index: usize, number: u64, reason: &str| {
        traced_hop(
            ctx,
            &workers[index],
            "POST",
            "/query",
            Some(&request.body),
            number,
            reason,
        )
    };
    let (served_by, result) = match attempt(owner, 1, "route") {
        Ok(r) if r.status != 503 => (owner, Ok(r)),
        first => match ctx.fleet.route_excluding(&key, owner) {
            Some(alternate) => {
                orex_telemetry::global().counter("router.retries").incr();
                let reason = match &first {
                    Ok(_) => "worker_503",
                    Err(_) => "worker_unreachable",
                };
                // Stamped with the request's trace id (the span is
                // open), so retry diagnostics grep by trace.
                orex_telemetry::logger()
                    .warn("router.retry", "retrying query on alternate worker")
                    .field_u64("from", owner as u64)
                    .field_u64("to", alternate as u64)
                    .field_str("reason", reason)
                    .emit();
                (alternate, attempt(alternate, 2, reason))
            }
            None => (owner, first),
        },
    };
    match result {
        Ok(response) => {
            let encoded = rewrite_session(&response, |local| {
                local * ctx.fleet.len() as u64 + served_by as u64
            });
            encoded.unwrap_or_else(|| to_response(&response))
        }
        Err(e) => Response::error(502, &format!("worker {served_by} unreachable: {e}")),
    }
}

/// Session-sticky GET (`/explain`): decode the owning worker from the
/// id, forward with the worker-local id, restore the global id in the
/// response.
fn handle_session(
    ctx: &RouterContext,
    method: &str,
    sid: &str,
    local_path: impl Fn(u64) -> String,
) -> Response {
    let Some((worker, local, global)) = decode_session(ctx, sid) else {
        return Response::error(400, "session id must be an integer");
    };
    forward_session(ctx, worker, method, &local_path(local), None, global)
}

/// Session-sticky POST (`/feedback`).
fn handle_session_with_body(
    ctx: &RouterContext,
    sid: &str,
    body: &[u8],
    local_path: impl Fn(u64) -> String,
) -> Response {
    let Some((worker, local, global)) = decode_session(ctx, sid) else {
        return Response::error(400, "session id must be an integer");
    };
    forward_session(ctx, worker, "POST", &local_path(local), Some(body), global)
}

/// Splits a global session id into `(worker index, worker-local id,
/// global id)`.
fn decode_session(ctx: &RouterContext, sid: &str) -> Option<(usize, u64, u64)> {
    let global: u64 = sid.parse().ok()?;
    let fleet_size = ctx.fleet.len() as u64;
    Some(((global % fleet_size) as usize, global / fleet_size, global))
}

fn forward_session(
    ctx: &RouterContext,
    worker: usize,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    global_sid: u64,
) -> Response {
    let workers = ctx.fleet.workers();
    if !workers[worker].is_healthy() {
        // The owner is down; its session table is gone with it. 503 so
        // the client retries after the worker returns (and then gets an
        // honest 404 for the lost session).
        return no_healthy_workers();
    }
    match traced_hop(
        ctx,
        &workers[worker],
        method,
        path,
        body,
        1,
        "session_sticky",
    ) {
        Ok(response) => {
            rewrite_session(&response, |_| global_sid).unwrap_or_else(|| to_response(&response))
        }
        Err(e) => Response::error(502, &format!("worker {worker} unreachable: {e}")),
    }
}

/// Re-writes the `"session"` field of a JSON 200 response through
/// `encode`; `None` when the response isn't a rewritable JSON object.
fn rewrite_session(response: &ClientResponse, encode: impl Fn(u64) -> u64) -> Option<Response> {
    if response.status != 200 {
        return None;
    }
    let mut doc: Value = serde_json::from_str(response.body_str()?).ok()?;
    let local = doc.get("session").and_then(Value::as_u64)?;
    doc.as_object_mut()?
        .insert("session".to_string(), Value::from(encode(local)));
    let body = serde_json::to_string(&doc).ok()?;
    Some(Response::json(200, body))
}

/// Forwards `path` (with its query string) to the first healthy worker.
fn proxy_any(ctx: &RouterContext, path: &str) -> Response {
    for worker in ctx.fleet.workers() {
        if !worker.is_healthy() {
            continue;
        }
        if let Ok(response) = worker.client.get(path) {
            return to_response(&response);
        }
    }
    no_healthy_workers()
}

/// `GET /metrics`: the router's own series (with `# TYPE` comments),
/// then every healthy worker's series re-labelled `worker="i"` (their
/// comment lines dropped so types aren't re-declared per worker).
fn handle_metrics(ctx: &RouterContext) -> Response {
    let mut out = orex_telemetry::global().snapshot().to_prometheus();
    for worker in ctx.fleet.workers() {
        if !worker.is_healthy() {
            continue;
        }
        let Ok(response) = worker.client.get("/metrics") else {
            continue;
        };
        if response.status != 200 {
            continue;
        }
        let Some(text) = response.body_str() else {
            continue;
        };
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            relabel_series(line, worker.index, &mut out);
        }
    }
    Response::new(200, "text/plain; version=0.0.4; charset=utf-8", out)
}

/// Injects `worker="i"` as the first label of a Prometheus series line,
/// preserving any ` # {...} v` exemplar suffix.
fn relabel_series(line: &str, worker: usize, out: &mut String) {
    use std::fmt::Write as _;
    let (series, exemplar) = match line.split_once(" # ") {
        Some((series, exemplar)) => (series, Some(exemplar)),
        None => (line, None),
    };
    match (series.find('{'), series.find(' ')) {
        // `name{labels} value` — worker joins the existing label set.
        (Some(brace), Some(space)) if brace < space => {
            let _ = write!(
                out,
                "{}{{worker=\"{worker}\",{}",
                &series[..brace],
                &series[brace + 1..]
            );
        }
        // `name value` — worker becomes the only label.
        (_, Some(space)) => {
            let _ = write!(
                out,
                "{}{{worker=\"{worker}\"}}{}",
                &series[..space],
                &series[space..]
            );
        }
        _ => out.push_str(series),
    }
    if let Some(exemplar) = exemplar {
        let _ = write!(out, " # {exemplar}");
    }
    out.push('\n');
}

/// `GET /logs`: fans the query out to every healthy worker and stamps
/// each NDJSON record with its `"worker"` index. Parameter errors from
/// a worker (400) pass through so validation behaves like one server.
fn handle_logs(ctx: &RouterContext, query: &str) -> Response {
    let path = if query.is_empty() {
        "/logs".to_string()
    } else {
        format!("/logs?{query}")
    };
    let mut out = String::new();
    let mut served_any = false;
    for worker in ctx.fleet.workers() {
        if !worker.is_healthy() {
            continue;
        }
        let Ok(response) = worker.client.get(&path) else {
            continue;
        };
        if response.status == 400 {
            return to_response(&response);
        }
        if response.status != 200 {
            continue;
        }
        served_any = true;
        let Some(text) = response.body_str() else {
            continue;
        };
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix('{') {
                out.push_str(&format!("{{\"worker\":{},", worker.index));
                out.push_str(rest);
                out.push('\n');
            }
        }
    }
    if !served_any {
        return no_healthy_workers();
    }
    Response::new(200, "application/x-ndjson; charset=utf-8", out)
}

/// `GET /trace/<id>`: stitches one fleet-wide trace. The router's own
/// retained spans form lane `pid 1`; every worker is asked for its
/// share in the wire format and becomes lane `pid index + 2`, its
/// timestamps shifted onto the router's clock by the health-probe
/// offset estimate. A worker that already evicted the trace (or is
/// down) falls back to the retro store's snapshot, so fleet-promoted
/// slow traces stitch even after worker-side eviction.
fn handle_trace(ctx: &RouterContext, id: &str) -> Response {
    let Ok(trace_id) = id.parse::<u64>() else {
        return Response::error(400, "trace id must be an integer");
    };
    let mut lanes = Vec::new();
    let spans = orex_telemetry::tracer().spans_of(TraceId(trace_id));
    if !spans.is_empty() {
        lanes.push(ProcessLane {
            pid: 1,
            label: format!("router {}", ctx.addr),
            offset_ns: 0,
            spans: parse_wire(&to_wire(&spans)),
        });
    }
    let retro = ctx.retro.get(trace_id);
    for worker in ctx.fleet.workers() {
        let live = if worker.is_healthy() {
            worker
                .client
                .get(&format!("/trace/{trace_id}?format=wire"))
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| r.body_str().map(String::from))
        } else {
            None
        };
        let text = live.or_else(|| {
            retro
                .iter()
                .find(|(index, _)| *index == worker.index)
                .map(|(_, text)| text.clone())
        });
        let Some(text) = text else { continue };
        let spans = parse_wire(&text);
        if spans.is_empty() {
            continue;
        }
        lanes.push(ProcessLane {
            pid: worker.index as u64 + 2,
            label: format!("worker-{} {}", worker.index, worker.addr),
            offset_ns: worker.clock_offset_ns(),
            spans,
        });
    }
    if lanes.is_empty() {
        return Response::error(404, "no process holds that trace");
    }
    Response::json(200, to_chrome_trace_stitched(&lanes))
}

/// `GET /debug/status`: the fleet view `orex top` renders — a router
/// summary plus one row per worker with its own status doc inlined.
fn handle_status(ctx: &RouterContext, query: &str) -> Response {
    // Only JSON exists; anything else asked for is a client error.
    if !matches!(query, "" | "format=json") {
        return Response::error(400, &format!("unknown parameters: {query:?}"));
    }
    let snapshot = orex_telemetry::global().snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let workers: Vec<Value> = ctx
        .fleet
        .workers()
        .iter()
        .map(|worker| {
            let status = worker_status(worker);
            serde_json::json!({
                "index": worker.index as u64,
                "addr": worker.addr.clone(),
                "healthy": worker.is_healthy(),
                "restarts": worker.restarts(),
                "status": status,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "router": serde_json::json!({
            "addr": ctx.addr.clone(),
            "workers": ctx.fleet.len() as u64,
            "healthy": ctx.fleet.healthy_count() as u64,
            "requests": counter("router.requests"),
            "retries": counter("router.retries"),
            "worker_restarts": counter("router.worker_restarts"),
            "uptime_s": ctx.started.elapsed().as_secs_f64(),
        }),
        "workers": Value::Array(workers),
    });
    Response::json(200, serde_json::to_string(&doc).unwrap_or_default())
}

/// One worker's `/debug/status?format=json` doc, or `Null` when the
/// worker is down or answers garbage.
fn worker_status(worker: &Arc<Worker>) -> Value {
    if !worker.is_healthy() {
        return Value::Null;
    }
    worker
        .client
        .get("/debug/status?format=json")
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| r.body_str().and_then(|s| serde_json::from_str(s).ok()))
        .unwrap_or(Value::Null)
}

/// Converts a worker's [`ClientResponse`] into a front-end [`Response`],
/// carrying status, content type, and body through.
fn to_response(response: &ClientResponse) -> Response {
    let declared = response.header("content-type").unwrap_or("");
    let content_type = if declared.contains("json") && declared.contains("ndjson") {
        "application/x-ndjson; charset=utf-8"
    } else if declared.contains("json") {
        "application/json"
    } else if declared.contains("html") {
        "text/html; charset=utf-8"
    } else {
        "text/plain; charset=utf-8"
    };
    Response::new(response.status, content_type, response.body.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(worker: usize, text: &str) -> Vec<(usize, String)> {
        vec![(worker, text.to_string())]
    }

    #[test]
    fn retro_traces_evict_oldest_first() {
        let retro = RetroTraces::new(2);
        retro.insert(1, snap(0, "a"));
        retro.insert(2, snap(1, "b"));
        retro.insert(3, snap(0, "c"));
        assert_eq!(retro.len(), 2);
        assert!(retro.get(1).is_empty());
        assert_eq!(retro.get(2), snap(1, "b"));
        assert_eq!(retro.get(3), snap(0, "c"));
    }

    #[test]
    fn retro_reinsert_replaces_and_keeps_eviction_position() {
        let retro = RetroTraces::new(2);
        retro.insert(1, snap(0, "old"));
        retro.insert(2, snap(1, "b"));
        retro.insert(1, snap(1, "new"));
        assert_eq!(retro.len(), 2);
        assert_eq!(retro.get(1), snap(1, "new"));
        // Trace 1 is still the oldest stored, so it goes first.
        retro.insert(3, snap(0, "c"));
        assert!(retro.get(1).is_empty());
        assert_eq!(retro.get(2), snap(1, "b"));
    }

    #[test]
    fn retro_ignores_empty_snapshots_and_unknown_ids_read_empty() {
        let retro = RetroTraces::new(4);
        retro.insert(7, Vec::new());
        assert!(retro.is_empty());
        assert!(retro.get(7).is_empty());
        assert!(retro.get(42).is_empty());
    }
}
