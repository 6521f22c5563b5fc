//! End-to-end router tests over real sockets: an external-source fleet
//! fronting two in-process `orex-server` instances, each serving the
//! same two named datasets from a registry. Covers query routing and
//! cache affinity, session stickiness through encoded ids, fleet-wide
//! aggregation of /metrics and /logs, unknown-dataset 404 passthrough,
//! worker-loss degradation, and clean drain.

use orex_router::{Fleet, Router, RouterConfig, WorkerSource};
use orex_server::{DatasetSpec, HttpClient, Server, ServerConfig, SystemRegistry};
use serde_json::Value;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The tracer ring and logger are process-global; tests serialize so
/// one fleet's records can't be absorbed by another test's workers.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

struct TestWorker {
    addr: String,
    shutdown: orex_server::ShutdownHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn spawn_worker() -> TestWorker {
    let specs = vec![
        DatasetSpec::parse("dblp=dblp-top:0.02").expect("spec"),
        DatasetSpec::parse("bio=ds7-cancer:0.02").expect("spec"),
    ];
    let registry = SystemRegistry::new(specs, 64).expect("registry");
    let server = Server::bind(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind worker");
    let addr = server.local_addr().expect("addr").to_string();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    TestWorker {
        addr,
        shutdown,
        thread: Some(thread),
    }
}

fn wait_until(deadline: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if ready() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    ready()
}

fn json_body(response: &orex_server::ClientResponse) -> Value {
    serde_json::from_str(response.body_str().expect("utf8 body")).expect("json body")
}

fn session_of(doc: &Value) -> u64 {
    doc.get("session")
        .and_then(Value::as_u64)
        .expect("session id")
}

#[test]
fn router_fronts_a_two_worker_fleet_end_to_end() {
    let _guard = serial();
    let workers = [spawn_worker(), spawn_worker()];
    let fleet = Fleet::start(
        WorkerSource::External {
            addrs: workers.iter().map(|w| w.addr.clone()).collect(),
        },
        Duration::from_millis(50),
    )
    .expect("fleet");
    let router = Router::bind(
        Arc::clone(&fleet),
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let addr = router.local_addr().expect("addr").to_string();
    let handle = router.shutdown_handle();
    let router_thread = std::thread::spawn(move || router.run());
    let client = HttpClient::new(addr.clone());

    // Workers start ejected; the health loop admits them as their first
    // probes pass, and router readiness follows the fleet's.
    assert!(
        wait_until(Duration::from_secs(10), || fleet.healthy_count() == 2),
        "both workers should pass health checks"
    );
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);

    // The datasets listing proxies to a worker's registry.
    let datasets = client.get("/datasets").expect("datasets");
    assert_eq!(datasets.status, 200);
    let listing = json_body(&datasets);
    let names: Vec<&str> = listing
        .get("datasets")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|d| d.get("name").and_then(Value::as_str))
        .collect();
    assert!(
        names.contains(&"dblp") && names.contains(&"bio"),
        "{listing:?}"
    );

    // Queries route by (dataset, query) hash; the session id encodes the
    // serving worker, and repeats stick to the same worker's cache.
    let keyword = orex_datagen::Preset::DblpTop
        .generate(0.02)
        .suggested_keywords
        .first()
        .cloned()
        .expect("keyword");
    let body = format!("{{\"query\": \"{keyword}\", \"k\": 5, \"dataset\": \"dblp\"}}");
    let first = client.post("/query", &body).expect("query");
    assert_eq!(first.status, 200, "{:?}", first.body_str());
    let payload = json_body(&first);
    let session = payload
        .get("session")
        .and_then(Value::as_u64)
        .expect("session id");
    let owner = (session % 2) as usize;
    assert_eq!(payload.get("dataset").and_then(Value::as_str), Some("dblp"));
    let node = payload
        .get("results")
        .and_then(Value::as_array)
        .and_then(|r| r.first())
        .and_then(|r| r.get("node"))
        .and_then(Value::as_u64)
        .expect("top result");

    let second = client.post("/query", &body).expect("repeat query");
    assert_eq!(second.status, 200);
    let second_owner = (session_of(&json_body(&second)) % 2) as usize;
    assert_eq!(
        second_owner, owner,
        "identical queries must stick to one worker's warm cache"
    );

    // Session-sticky endpoints decode the worker from the id and
    // restore the global id in responses.
    let explain = client
        .get(&format!("/explain/{session}/{node}"))
        .expect("explain");
    assert_eq!(explain.status, 200, "{:?}", explain.body_str());
    assert_eq!(session_of(&json_body(&explain)), session);

    let feedback = client
        .post(
            &format!("/feedback/{session}"),
            &format!("{{\"objects\": [{node}], \"k\": 5}}"),
        )
        .expect("feedback");
    assert_eq!(feedback.status, 200, "{:?}", feedback.body_str());
    assert_eq!(session_of(&json_body(&feedback)), session);

    // Unknown datasets pass the worker's typed 404 through unchanged.
    let unknown = client
        .post("/query", "{\"query\": \"x\", \"dataset\": \"nope\"}")
        .expect("unknown dataset");
    assert_eq!(unknown.status, 404);
    assert!(
        json_body(&unknown)
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("unknown dataset")),
        "{:?}",
        unknown.body_str()
    );

    // Bad session ids are rejected at the router, not forwarded.
    let bad_sid = client.get("/explain/banana/3").expect("bad sid");
    assert_eq!(bad_sid.status, 400);

    // /metrics aggregates: router series plus worker series labelled
    // worker="i".
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str().expect("utf8 metrics").to_string();
    assert!(text.contains("orex_router_requests"), "router's own series");
    assert!(text.contains("worker=\"0\""), "worker 0 series labelled");
    assert!(text.contains("worker=\"1\""), "worker 1 series labelled");

    // /logs stamps every record with its worker index.
    let logs = client.get("/logs?level=info").expect("logs");
    assert_eq!(logs.status, 200);
    let records = logs.body_str().expect("utf8 logs");
    assert!(
        records
            .lines()
            .filter(|l| !l.is_empty())
            .all(|l| l.starts_with("{\"worker\":")),
        "every aggregated record carries a worker field"
    );
    // Worker 400s (parameter validation) pass through.
    let bad_logs = client.get("/logs?level=nope").expect("bad logs");
    assert_eq!(bad_logs.status, 400);

    // Kill the worker that owns the query. The fleet ejects it, the
    // query re-routes to the survivor, and the dead worker's sessions
    // degrade to 503 (the session table died with the process).
    workers[owner].shutdown.shutdown();
    assert!(
        wait_until(Duration::from_secs(10), || fleet.healthy_count() == 1),
        "the killed worker should be ejected"
    );
    let survivor = 1 - owner;
    let rerouted = client.post("/query", &body).expect("rerouted query");
    assert_eq!(rerouted.status, 200, "{:?}", rerouted.body_str());
    let rerouted_owner = (session_of(&json_body(&rerouted)) % 2) as usize;
    assert_eq!(
        rerouted_owner, survivor,
        "query must fail over to the survivor"
    );

    let lost = client
        .get(&format!("/explain/{session}/{node}"))
        .expect("lost session");
    assert!(
        lost.status == 503 || lost.status == 502,
        "a dead worker's session degrades, got {}",
        lost.status
    );

    // The router's own /metrics counts the ejection.
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str().expect("utf8 metrics");
    let ejections = text
        .lines()
        .find_map(|l| l.strip_prefix("orex_router_worker_ejections "))
        .and_then(|v| v.parse::<f64>().ok());
    assert!(ejections.unwrap_or(0.0) >= 1.0, "ejections: {ejections:?}");

    // Clean drain: router stops accepting, open connections finish, the
    // fleet (external here) is released.
    handle.shutdown();
    router_thread
        .join()
        .expect("router thread")
        .expect("clean router drain");

    // Stop the surviving in-process servers.
    for worker in &workers {
        worker.shutdown.shutdown();
    }
    for mut worker in workers {
        if let Some(thread) = worker.thread.take() {
            let _ = thread.join();
        }
    }
}

#[test]
fn router_stitches_one_trace_across_its_own_and_worker_spans() {
    use orex_telemetry::{SpanId, TraceContext, TraceId};
    if !orex_telemetry::tracer().is_enabled() {
        return;
    }
    let _guard = serial();
    let workers = [spawn_worker(), spawn_worker()];
    let fleet = Fleet::start(
        WorkerSource::External {
            addrs: workers.iter().map(|w| w.addr.clone()).collect(),
        },
        Duration::from_millis(50),
    )
    .expect("fleet");
    let router = Router::bind(
        Arc::clone(&fleet),
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let addr = router.local_addr().expect("addr").to_string();
    let handle = router.shutdown_handle();
    let router_thread = std::thread::spawn(move || router.run());
    let client = HttpClient::new(addr.clone());
    assert!(
        wait_until(Duration::from_secs(10), || fleet.healthy_count() == 2),
        "both workers should pass health checks"
    );

    // One query, one caller-minted sampled trace context: the router
    // adopts it, its proxy hop re-injects it, and the worker joins it.
    let keyword = orex_datagen::Preset::DblpTop
        .generate(0.02)
        .suggested_keywords
        .first()
        .cloned()
        .expect("keyword");
    let context = TraceContext {
        trace: TraceId(0x000F_1EE7_0001),
        parent: SpanId(42),
        flags: TraceContext::SAMPLED,
    };
    let trace_id = context.trace.0;
    let header_value = context.header_value();
    let body = format!("{{\"query\": \"{keyword}\", \"k\": 5, \"dataset\": \"dblp\"}}");
    let reply = client
        .request_with_headers(
            "POST",
            "/query",
            &[(TraceContext::HEADER, &header_value)],
            Some(body.as_bytes()),
        )
        .expect("traced query");
    assert_eq!(reply.status, 200, "{:?}", reply.body_str());
    assert_eq!(
        json_body(&reply).get("trace").and_then(Value::as_u64),
        Some(trace_id),
        "one id from ingress to worker and back"
    );

    // The stitched export puts the router and the serving worker in
    // separate labelled process lanes, one trace across both.
    let stitched = client
        .get(&format!("/trace/{trace_id}"))
        .expect("stitched trace");
    assert_eq!(stitched.status, 200, "{:?}", stitched.body_str());
    let doc = json_body(&stitched);
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    let lanes: Vec<(u64, &str)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .map(|e| {
            (
                e.get("pid").and_then(Value::as_u64).expect("pid"),
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .expect("lane label"),
            )
        })
        .collect();
    assert!(
        lanes
            .iter()
            .any(|(pid, l)| *pid == 1 && l.starts_with("router")),
        "router lane present: {lanes:?}"
    );
    assert!(
        lanes
            .iter()
            .any(|(pid, l)| *pid >= 2 && l.starts_with("worker-")),
        "worker lane present: {lanes:?}"
    );
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for expected in ["router.request", "router.proxy", "server.request"] {
        assert!(
            span_names.contains(&expected),
            "missing {expected}: {span_names:?}"
        );
    }
    // The proxy hop records where and why it forwarded.
    let proxy_span = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("router.proxy"))
        .unwrap();
    let args = proxy_span.get("args").expect("proxy span args");
    assert!(args.get("worker").is_some(), "{args:?}");
    assert_eq!(args.get("attempt").and_then(Value::as_u64), Some(1));
    assert_eq!(args.get("reason").and_then(Value::as_str), Some("route"));

    // Fleet-wide logs filtered to the shared id: every surviving record
    // carries it, and the worker's access record is among them.
    let logs = client
        .get(&format!("/logs?trace={trace_id}"))
        .expect("trace-filtered logs");
    assert_eq!(logs.status, 200);
    let records: Vec<Value> = logs
        .body_str()
        .expect("utf8 logs")
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| serde_json::from_str(l).expect("json record"))
        .collect();
    assert!(!records.is_empty(), "the traced request left log records");
    for v in &records {
        assert_eq!(
            v.get("trace").and_then(Value::as_u64),
            Some(trace_id),
            "{v:?}"
        );
    }
    assert!(
        records
            .iter()
            .any(|v| v.get("target").and_then(Value::as_str) == Some("server.access")),
        "worker access record joins the trace: {records:?}"
    );

    // Unknown ids 404, malformed ids 400.
    let missing = client.get("/trace/999999999999").expect("missing trace");
    assert_eq!(missing.status, 404);
    let bad = client.get("/trace/banana").expect("bad trace id");
    assert_eq!(bad.status, 400);

    handle.shutdown();
    router_thread
        .join()
        .expect("router thread")
        .expect("clean router drain");
    for worker in &workers {
        worker.shutdown.shutdown();
    }
    for mut worker in workers {
        if let Some(thread) = worker.thread.take() {
            let _ = thread.join();
        }
    }
}
