//! Request routing, retry, and fleet-wide aggregation handlers.
//!
//! Queries route by consistent hash of `(dataset, query text)` so
//! repeats of the same query land on the same worker's result cache.
//! Session-scoped requests (`/explain`, `/feedback`) are *sticky*: the
//! router encodes the owning worker into the session id it hands out
//! (`global = local * W + worker`), so the worker is recoverable from
//! the id alone — no routing table to lose. Observability endpoints
//! fan one GET out to every healthy worker and merge the answers:
//! `/metrics` declares each family once, re-labelling every worker
//! series with `worker="i"`, and `/logs` stamps each record with its
//! worker.
//!
//! The router is also the fleet's tracing ingress edge: every request
//! runs under a `router.request` span (adopting an incoming
//! `X-Orex-Trace` context when the client sent one, else making the
//! sampling decision here), every proxied hop opens a child span and
//! injects its context so worker spans join the same trace, and
//! `GET /trace/<id>` merges the Chrome document of the router's own
//! spans with the one every worker serves for that id, one labelled
//! `pid` lane per process on the router's clock.

use crate::fleet::{Fleet, Worker};
use orex_server::frontend::unrouted;
use orex_server::{ClientResponse, Request, Response};
use orex_telemetry::export::to_chrome_trace;
use orex_telemetry::{TraceContext, TraceId};
use serde_json::{json, Map, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Shared state the connection threads handle requests against.
pub struct RouterContext {
    /// The supervised worker fleet.
    pub fleet: Arc<Fleet>,
    /// The router's own bound address (labels its lane in stitched
    /// traces).
    pub addr: String,
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
        ("GET", ["explain", sid, node]) => handle_session(ctx, "GET", sid, None, |local| {
            format!("/explain/{local}/{node}")
        }),
        ("POST", ["feedback", sid]) => {
            handle_session(ctx, "POST", sid, Some(&request.body), |local| {
                format!("/feedback/{local}")
            })
        }
        ("GET", ["datasets"]) => {
            no_query_params(query).unwrap_or_else(|| proxy_any(ctx, "/datasets"))
        }
        ("GET", ["metrics"]) => no_query_params(query).unwrap_or_else(|| handle_metrics(ctx)),
        ("GET", ["logs"]) => handle_logs(ctx, query),
        ("GET", ["trace", id]) => handle_trace(ctx, id, query),
        (method, segments) => unrouted(method, segments),
    }
}

/// One traced proxied hop: a child span of the enclosing
/// `router.request` (carrying `worker`, `attempt`, and `reason` attrs)
/// whose context is injected as `X-Orex-Trace` so the worker's spans
/// parent under it.
fn traced_hop(
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
    match span.context() {
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

/// Session-sticky request (`/explain`, `/feedback`): decode the owning
/// worker from the id, forward with the worker-local id, restore the
/// global id in the response.
fn handle_session(
    ctx: &RouterContext,
    method: &str,
    sid: &str,
    body: Option<&[u8]>,
    local_path: impl Fn(u64) -> String,
) -> Response {
    let Some((worker, local, global)) = decode_session(ctx, sid) else {
        return Response::error(400, "session id must be an integer");
    };
    forward_session(ctx, worker, method, &local_path(local), body, global)
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
    match traced_hop(&workers[worker], method, path, body, 1, "session_sticky") {
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

/// GETs `path` from every healthy worker, in worker order, yielding
/// each answer; a worker that is down or unreachable is skipped. Lazy:
/// a caller that stops early contacts no further worker.
fn fan_out<'a>(
    ctx: &'a RouterContext,
    path: &'a str,
) -> impl Iterator<Item = (usize, ClientResponse)> + 'a {
    ctx.fleet
        .workers()
        .iter()
        .filter(|worker| worker.is_healthy())
        .filter_map(move |worker| Some((worker.index, worker.client.get(path).ok()?)))
}

/// [`fan_out`] narrowed to the `200` answers with UTF-8 bodies.
fn fan_out_ok<'a>(
    ctx: &'a RouterContext,
    path: &'a str,
) -> impl Iterator<Item = (usize, String)> + 'a {
    fan_out(ctx, path)
        .filter(|(_, response)| response.status == 200)
        .filter_map(|(index, response)| Some((index, response.body_str()?.to_string())))
}

/// Forwards `path` (with its query string) to the first healthy worker.
fn proxy_any(ctx: &RouterContext, path: &str) -> Response {
    fan_out(ctx, path)
        .next()
        .map_or_else(no_healthy_workers, |(_, response)| to_response(&response))
}

/// The 400 a worker answers for a route that takes no query parameters
/// (`/metrics`, `/datasets`, `/trace/<id>`) when `query` names one.
fn no_query_params(query: &str) -> Option<Response> {
    let pair = query.split('&').find(|p| !p.is_empty())?;
    let key = pair.split_once('=').map_or(pair, |(key, _)| key);
    let message = format!("unknown query parameter {key:?} (expected none)");
    Some(Response::error(400, &message))
}

/// `GET /metrics`: the router's own exposition merged with every
/// healthy worker's, see [`merge_exposition`].
fn handle_metrics(ctx: &RouterContext) -> Response {
    let own = orex_telemetry::global().snapshot().to_prometheus();
    let workers: Vec<_> = fan_out_ok(ctx, "/metrics").collect();
    let text = merge_exposition(&own, &workers);
    Response::new(200, "text/plain; version=0.0.4; charset=utf-8", text)
}

/// Merges Prometheus texts into one exposition that declares each
/// family once, as one contiguous group: its `# TYPE` line from
/// whichever text declared it first, then the router's series, then
/// each worker's re-labelled `worker="i"`, in worker order. Families
/// keep the order they were first seen in; other comment lines drop.
fn merge_exposition(own: &str, workers: &[(usize, String)]) -> String {
    // Per family, in first-seen order: its `# TYPE` line and its series.
    let mut families: Vec<(String, String)> = Vec::new();
    let mut slots: HashMap<&str, usize> = HashMap::new();
    let sources = std::iter::once((None, own)).chain(
        workers
            .iter()
            .map(|(index, text)| (Some(*index), text.as_str())),
    );
    for (worker, text) in sources {
        let mut family = None;
        for line in text.lines().filter(|line| !line.is_empty()) {
            let declared = line
                .strip_prefix("# TYPE ")
                .and_then(|d| d.split(' ').next());
            if declared.is_none() && line.starts_with('#') {
                continue;
            }
            family = declared.or(family);
            // A series before any `# TYPE` is its own family.
            let name = family.unwrap_or_else(|| line.split(['{', ' ']).next().unwrap_or(line));
            let slot = *slots.entry(name).or_insert_with(|| {
                families.push((String::new(), String::new()));
                families.len() - 1
            });
            let (head, series) = &mut families[slot];
            match (declared, worker) {
                (Some(_), _) if head.is_empty() => head.extend([line, "\n"]),
                (Some(_), _) => {}
                (None, Some(index)) => relabel_series(line, index, series),
                (None, None) => series.extend([line, "\n"]),
            }
        }
    }
    families
        .into_iter()
        .flat_map(|(head, series)| [head, series])
        .collect()
}

/// Injects `worker="i"` as the first label of a Prometheus series line,
/// preserving any ` # {...} v` exemplar suffix.
fn relabel_series(line: &str, worker: usize, out: &mut String) {
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
    let mut out = String::new();
    let mut served_any = false;
    for (index, response) in fan_out(ctx, &format!("/logs?{query}")) {
        match response.status {
            400 => return to_response(&response),
            200 => served_any = true,
            _ => continue,
        }
        for line in response.body_str().unwrap_or_default().lines() {
            if let Some(rest) = line.strip_prefix('{') {
                let _ = writeln!(out, "{{\"worker\":{index},{rest}");
            }
        }
    }
    if !served_any {
        return no_healthy_workers();
    }
    Response::new(200, "application/x-ndjson; charset=utf-8", out)
}

/// One process's share of a stitched trace.
struct Lane {
    /// Chrome `pid`: 1 for the router, worker index + 2 for a worker.
    pid: u64,
    /// `process_name` label, e.g. `worker-0 127.0.0.1:7510`.
    label: String,
    /// Added to every timestamp to move the process's tracer clock onto
    /// the router's (estimated from health-probe round trips).
    offset_ns: i64,
    /// The process's Chrome document of the trace.
    doc: String,
}

/// `GET /trace/<id>`: stitches one fleet-wide trace. The router's own
/// retained spans form lane `pid 1`; every worker's `GET /trace/<id>`
/// document becomes lane `pid index + 2`, shifted onto the router's
/// clock. A worker that is down, or no longer holds the trace, adds no
/// lane. Like a worker's, it takes no query parameters.
fn handle_trace(ctx: &RouterContext, id: &str, query: &str) -> Response {
    let Ok(trace_id) = id.parse::<u64>() else {
        return Response::error(400, "trace id must be an integer");
    };
    if let Some(rejected) = no_query_params(query) {
        return rejected;
    }
    let mut lanes = vec![Lane {
        pid: 1,
        label: format!("router {}", ctx.addr),
        offset_ns: 0,
        doc: to_chrome_trace(&orex_telemetry::tracer().spans_of(TraceId(trace_id))),
    }];
    let workers = ctx.fleet.workers();
    let path = format!("/trace/{trace_id}");
    lanes.extend(fan_out_ok(ctx, &path).map(|(index, doc)| {
        let worker = &workers[index];
        Lane {
            pid: index as u64 + 2,
            label: format!("worker-{index} {}", worker.addr),
            offset_ns: worker.clock_offset_ns(),
            doc,
        }
    }));
    match merge_chrome_traces(&lanes) {
        Some(json) => Response::json(200, json),
        None => Response::error(404, "no process holds that trace"),
    }
}

/// Merges per-process Chrome documents into one trace: each lane opens
/// with a `process_name` metadata event, and every event of its
/// document moves to the lane's `pid` with `ts` shifted by the lane's
/// offset. A document that does not parse, or holds no events, adds no
/// lane; `None` when no lane is left.
fn merge_chrome_traces(lanes: &[Lane]) -> Option<String> {
    let mut merged = Vec::new();
    for lane in lanes {
        let Some(events) = lane_events(lane).filter(|events| !events.is_empty()) else {
            continue;
        };
        merged.push(json!({
            "name": "process_name",
            "ph": "M",
            "pid": lane.pid,
            "tid": 0u64,
            "args": json!({ "name": lane.label.as_str() }),
        }));
        merged.extend(events);
    }
    if merged.is_empty() {
        return None;
    }
    serde_json::to_string(&json!({ "traceEvents": merged, "displayTimeUnit": "ms" })).ok()
}

/// The events of `lane`'s document moved onto the lane; `None` unless
/// the document is `{"traceEvents":[…]}` with every event an object.
fn lane_events(lane: &Lane) -> Option<Vec<Value>> {
    let doc: Value = serde_json::from_str(&lane.doc).ok()?;
    let shift_us = lane.offset_ns as f64 / 1e3;
    let moved = |event: &Value| {
        let mut out = Map::new();
        for (key, value) in event.as_object()?.iter() {
            let value = match (key.as_str(), value.as_f64()) {
                ("pid", _) => Value::from(lane.pid),
                ("ts", Some(ts)) => Value::from(ts + shift_us),
                _ => value.clone(),
            };
            out.insert(key.clone(), value);
        }
        Some(Value::Object(out))
    };
    doc.get("traceEvents")?
        .as_array()?
        .iter()
        .map(moved)
        .collect()
}

/// Converts a worker's [`ClientResponse`] into a front-end [`Response`],
/// carrying status, content type, and body through.
fn to_response(response: &ClientResponse) -> Response {
    let declared = response.header("content-type").unwrap_or("");
    let content_type = if declared.contains("json") && declared.contains("ndjson") {
        "application/x-ndjson; charset=utf-8"
    } else if declared.contains("json") {
        "application/json"
    } else {
        "text/plain; charset=utf-8"
    };
    Response::new(response.status, content_type, response.body.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_telemetry::Tracer;
    use proptest::prelude::*;

    #[test]
    fn merged_exposition_declares_each_family_once_and_contiguously() {
        let router = "# TYPE orex_router_requests counter\n\
                      orex_router_requests 5\n\
                      # TYPE orex_server_sessions_live gauge\n\
                      orex_server_sessions_live 9\n";
        let worker0 = "# TYPE orex_server_request_us histogram\n\
                       orex_server_request_us_bucket{le=\"100\"} 2 # {trace_id=\"77\"} 42\n\
                       orex_server_request_us_bucket{le=\"+Inf\"} 3\n\
                       orex_server_request_us_sum 250\n\
                       orex_server_request_us_count 3\n\
                       # TYPE orex_server_sessions_live gauge\n\
                       orex_server_sessions_live 4\n";
        let worker1 = "# TYPE orex_server_sessions_live gauge\n\
                       orex_server_sessions_live 6\n\
                       # TYPE orex_server_request_us histogram\n\
                       orex_server_request_us_bucket{le=\"+Inf\"} 1\n\
                       orex_server_request_us_sum 90\n\
                       orex_server_request_us_count 1\n";
        let merged = merge_exposition(router, &[(0, worker0.into()), (1, worker1.into())]);
        assert_eq!(
            merged,
            "# TYPE orex_router_requests counter\n\
             orex_router_requests 5\n\
             # TYPE orex_server_sessions_live gauge\n\
             orex_server_sessions_live 9\n\
             orex_server_sessions_live{worker=\"0\"} 4\n\
             orex_server_sessions_live{worker=\"1\"} 6\n\
             # TYPE orex_server_request_us histogram\n\
             orex_server_request_us_bucket{worker=\"0\",le=\"100\"} 2 # {trace_id=\"77\"} 42\n\
             orex_server_request_us_bucket{worker=\"0\",le=\"+Inf\"} 3\n\
             orex_server_request_us_sum{worker=\"0\"} 250\n\
             orex_server_request_us_count{worker=\"0\"} 3\n\
             orex_server_request_us_bucket{worker=\"1\",le=\"+Inf\"} 1\n\
             orex_server_request_us_sum{worker=\"1\"} 90\n\
             orex_server_request_us_count{worker=\"1\"} 1\n"
        );
        // The worker-only histogram is typed exactly once, and its
        // series sit in one run right after that declaration.
        assert_eq!(
            merged
                .matches("# TYPE orex_server_request_us histogram")
                .count(),
            1
        );
        let lines: Vec<&str> = merged.lines().collect();
        let of_family: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("orex_server_request_us"))
            .collect();
        let declared = lines
            .iter()
            .position(|l| *l == "# TYPE orex_server_request_us histogram")
            .unwrap();
        assert_eq!(of_family, (declared + 1..declared + 8).collect::<Vec<_>>());
    }

    #[test]
    fn series_without_a_type_line_group_under_their_own_name() {
        let merged = merge_exposition(
            "",
            &[(0, "# HELP up a\nup 1\n".into()), (1, "up 0\n".into())],
        );
        assert_eq!(merged, "up{worker=\"0\"} 1\nup{worker=\"1\"} 0\n");
    }

    /// Span names are `&'static str`; index into a fixed pool.
    const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

    /// Documents that must add no lane.
    const MALFORMED: [&str; 6] = [
        "",
        "not json",
        "[]",
        "{\"traceEvents\":7}",
        "{\"traceEvents\":[1,2]}",
        "{\"traceEvents\":[{\"ph\":\"B\",\"ts\":1}",
    ];

    /// Interprets a byte program against a fresh tracer — each byte
    /// opens a child span, closes the innermost one, or records an
    /// instant event on it — and renders what it recorded.
    fn chrome_doc(program: &[u8]) -> String {
        let tracer = Tracer::new(1024);
        let mut open = Vec::new();
        for &op in program {
            match op % 3 {
                0 => open.push(tracer.span(NAMES[usize::from(op / 3) % NAMES.len()])),
                1 => drop(open.pop()),
                _ => {
                    if let Some(span) = open.last_mut() {
                        span.event("tick");
                    }
                }
            }
        }
        // Close innermost-first so every parent outlives its children.
        while open.pop().is_some() {}
        to_chrome_trace(&tracer.drain())
    }

    fn events(doc: &str) -> Vec<Value> {
        serde_json::from_str(doc)
            .ok()
            .and_then(|d: Value| d.get("traceEvents")?.as_array().cloned())
            .unwrap_or_default()
    }

    proptest! {
        /// Merging 1–3 documents (the router's and up to two workers')
        /// gives each non-empty one a labelled lane on its own pid, keeps
        /// its events in order with `ts` shifted by the lane's offset,
        /// keeps every `B`/`E` pair on one `(pid, tid)`, and gives a
        /// malformed document no lane.
        #[test]
        fn merged_lanes_are_labelled_shifted_and_balanced(
            programs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..48),
                1..4,
            ),
            offsets in proptest::collection::vec(-5_000_000_000i64..5_000_000_000, 3..4),
            malformed in (0usize..4, 0usize..MALFORMED.len() + 1),
        ) {
            let mut lanes: Vec<Lane> = programs
                .iter()
                .enumerate()
                .map(|(i, program)| Lane {
                    // Lane 0 is the router (pid 1), lane i is worker i-1.
                    pid: if i == 0 { 1 } else { i as u64 + 1 },
                    label: if i == 0 { "router".into() } else { format!("worker-{}", i - 1) },
                    offset_ns: if i == 0 { 0 } else { offsets[i] },
                    doc: chrome_doc(program),
                })
                .collect();
            let (at, which) = malformed;
            if let Some(doc) = MALFORMED.get(which) {
                let lane = Lane { pid: 9, label: "bad".into(), offset_ns: 0, doc: doc.to_string() };
                lanes.insert(at.min(lanes.len()), lane);
            }
            let expected: Vec<(&Lane, Vec<Value>)> = lanes
                .iter()
                .map(|lane| (lane, events(&lane.doc)))
                .filter(|(lane, source)| lane.pid != 9 && !source.is_empty())
                .collect();
            let Some(merged) = merge_chrome_traces(&lanes) else {
                prop_assert!(expected.is_empty(), "a lane with events was dropped");
                return Ok(());
            };
            let merged = events(&merged);
            prop_assert_eq!(
                merged.len(),
                expected.iter().map(|(_, source)| source.len() + 1).sum::<usize>()
            );
            let mut at = merged.iter();
            let mut open: HashMap<(u64, u64), Vec<String>> = HashMap::new();
            for (lane, source) in &expected {
                let label = at.next().unwrap();
                prop_assert_eq!(label.get("ph").and_then(Value::as_str), Some("M"));
                prop_assert_eq!(label.get("pid").and_then(Value::as_u64), Some(lane.pid));
                prop_assert_eq!(
                    label.get("args").and_then(|a| a.get("name")).and_then(Value::as_str),
                    Some(lane.label.as_str())
                );
                for original in source {
                    let event = at.next().unwrap();
                    prop_assert_eq!(event.get("pid").and_then(Value::as_u64), Some(lane.pid));
                    for key in ["name", "ph", "tid", "args"] {
                        prop_assert_eq!(event.get(key), original.get(key), "{}", key);
                    }
                    let ts = |e: &Value| e.get("ts").and_then(Value::as_f64).unwrap();
                    prop_assert_eq!(ts(event), ts(original) + lane.offset_ns as f64 / 1e3);
                    let name = event.get("name").and_then(Value::as_str).unwrap().to_string();
                    let tid = event.get("tid").and_then(Value::as_u64).unwrap();
                    let stack = open.entry((lane.pid, tid)).or_default();
                    match event.get("ph").and_then(Value::as_str) {
                        Some("B") => stack.push(name),
                        Some("E") => prop_assert_eq!(stack.pop(), Some(name)),
                        _ => {}
                    }
                }
            }
            prop_assert!(open.values().all(Vec::is_empty), "unclosed spans: {:?}", open);
        }
    }
}
