//! End-to-end tests: a real server on an ephemeral loopback port,
//! exercised over real sockets with a minimal test client.
//!
//! The tracer ring and telemetry recorder are process-global, so tests
//! serialize on a mutex — each test then owns every span its requests
//! produce.

use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
use orex_datagen::Preset;
use orex_ir::Query;
use orex_server::{DatasetService, Server, ServerConfig, ShutdownHandle, SystemRegistry};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Generator scale of the fixture dataset.
const SCALE: f64 = 0.02;

/// Result-cache capacity of the served fixture dataset.
const CACHE_ENTRIES: usize = 256;

/// The system under test plus a keyword guaranteed to rank.
fn fixture() -> (Arc<ObjectRankSystem>, String) {
    static FIXTURE: OnceLock<(Arc<ObjectRankSystem>, String)> = OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            let d = Preset::DblpTop.generate(SCALE);
            let keywords = d.suggested_keywords.clone();
            let system = Arc::new(ObjectRankSystem::new(
                d.graph,
                d.ground_truth,
                SystemConfig::default(),
            ));
            let keyword = keywords
                .iter()
                .find(|kw| QuerySession::start(&system, &Query::parse(kw)).is_ok())
                .expect("some keyword ranks")
                .clone();
            (system, keyword)
        })
        .clone()
}

struct TestServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

/// The fixture system as the dataset `default`, with the precompute
/// artifact at `precompute` if one is given.
fn fixture_service(precompute: Option<&Path>) -> Result<Arc<DatasetService>, String> {
    DatasetService::from_system(
        "default",
        Preset::DblpTop,
        SCALE,
        fixture().0,
        CACHE_ENTRIES,
        precompute,
    )
}

impl TestServer {
    fn spawn(config: ServerConfig) -> Self {
        Self::spawn_with(config, None)
    }

    /// Serves the fixture dataset, loading `precompute` if given.
    fn spawn_with(config: ServerConfig, precompute: Option<&Path>) -> Self {
        let service = fixture_service(precompute).expect("load the fixture dataset");
        Self::bind(SystemRegistry::single(service), config)
    }

    fn bind(registry: SystemRegistry, config: ServerConfig) -> Self {
        let server = Server::bind(registry, config).expect("bind ephemeral port");
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Self {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    fn spawn_default() -> Self {
        Self::spawn(TestServer::config())
    }

    fn config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            io_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("clean shutdown");
        }
    }
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn json(&self) -> Value {
        serde_json::from_str(&self.body).unwrap_or_else(|_| panic!("body is JSON: {:?}", self.body))
    }

    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends raw bytes, reads to EOF. Requests built by [`get`]/[`post`]
/// carry `Connection: close` so the keep-alive server closes after one
/// response and EOF framing stays valid.
fn raw(addr: SocketAddr, request: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8_lossy(&response);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {text:?}"));
    let (head, body) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body,
    }
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn result_nodes(payload: &Value) -> Vec<u64> {
    payload
        .get("results")
        .and_then(Value::as_array)
        .expect("results array")
        .iter()
        .map(|r| r.get("node").and_then(Value::as_u64).expect("node id"))
        .collect()
}

#[test]
fn full_interactive_loop_end_to_end() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let server = TestServer::spawn_default();

    // healthz
    let reply = get(server.addr, "/healthz");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, "ok\n");

    // query
    let reply = post(
        server.addr,
        "/query",
        &format!("{{\"query\": \"{keyword}\", \"k\": 5}}"),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let payload = reply.json();
    let session = payload.get("session").and_then(Value::as_u64).unwrap();
    let nodes = result_nodes(&payload);
    assert!(!nodes.is_empty() && nodes.len() <= 5);

    // explain the top result
    let reply = get(server.addr, &format!("/explain/{session}/{}", nodes[0]));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let explain = reply.json();
    assert!(
        explain
            .get("target_inflow")
            .and_then(Value::as_f64)
            .unwrap()
            >= 0.0
    );
    assert!(explain.get("nodes").and_then(Value::as_u64).unwrap() >= 1);
    assert!(!explain
        .get("meta_paths")
        .and_then(Value::as_array)
        .unwrap()
        .is_empty());

    // feedback round
    let reply = post(
        server.addr,
        &format!("/feedback/{session}"),
        &format!("{{\"objects\": [{}], \"k\": 5}}", nodes[0]),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let feedback = reply.json();
    assert_eq!(feedback.get("round").and_then(Value::as_u64), Some(1));
    assert!(!result_nodes(&feedback).is_empty());

    // metrics show the traffic and parse as Prometheus text exposition
    let reply = get(server.addr, "/metrics");
    assert_eq!(reply.status, 200);
    assert_prometheus(&reply.body);
    assert!(reply.body.contains("orex_server_requests"));
    assert!(reply.body.contains("server_request_us"));

    // the query's trace renders as Chrome trace JSON
    let trace_id = payload.get("trace").and_then(Value::as_u64).unwrap();
    let reply = get(server.addr, &format!("/trace/{trace_id}"));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let trace = reply.json();
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(
        events
            .iter()
            .any(|e| { e.get("name").and_then(Value::as_str) == Some("server.request") }),
        "trace contains the request root span"
    );
}

/// Minimal Prometheus text-format validation: every non-comment line is
/// `name{...} value` (optionally with an OpenMetrics ` # {labels} value`
/// exemplar suffix), every `# TYPE` names a metric.
fn assert_prometheus(text: &str) {
    assert!(!text.is_empty());
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("TYPE ") || rest.starts_with("HELP "),
                "bad comment: {line:?}"
            );
            continue;
        }
        // Strip an exemplar suffix before validating the series itself.
        let series = if let Some((series, exemplar)) = line.split_once(" # ") {
            assert!(
                line.contains("_bucket{"),
                "exemplar on a non-bucket line: {line:?}"
            );
            let (labels, value) = exemplar
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("exemplar has no value: {line:?}"));
            assert!(
                labels.starts_with("{trace_id=\"") && labels.ends_with("\"}"),
                "bad exemplar labels in {line:?}"
            );
            assert!(
                value.parse::<f64>().is_ok(),
                "bad exemplar value in {line:?}"
            );
            series
        } else {
            line
        };
        let (name_part, value) = series.rsplit_once(' ').unwrap_or_else(|| {
            panic!("metric line has no value: {line:?}");
        });
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name: {name:?}"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "bad value in {line:?}"
        );
    }
}

#[test]
fn repeated_query_hits_the_cache_with_identical_results() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let server = TestServer::spawn_default();
    let body = format!("{{\"query\": \"{keyword}\"}}");

    let first = post(server.addr, "/query", &body).json();
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));

    // Different spelling, same normalized query vector.
    let respelled = format!("{{\"query\": \"  {} \"}}", keyword.to_uppercase());
    let second = post(server.addr, "/query", &respelled).json();
    assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(result_nodes(&first), result_nodes(&second));
    // Distinct sessions: feedback on one must not affect the other.
    assert_ne!(
        first.get("session").and_then(Value::as_u64),
        second.get("session").and_then(Value::as_u64)
    );
}

#[test]
fn server_feedback_matches_in_process_session() {
    let _guard = serial();
    let (system, keyword) = fixture();
    let server = TestServer::spawn_default();

    let query = post(
        server.addr,
        "/query",
        &format!("{{\"query\": \"{keyword}\", \"k\": 10}}"),
    )
    .json();
    let session_id = query.get("session").and_then(Value::as_u64).unwrap();
    let nodes = result_nodes(&query);
    let picks = &nodes[..2.min(nodes.len())];
    let picks_json: Vec<String> = picks.iter().map(u64::to_string).collect();
    let served = post(
        server.addr,
        &format!("/feedback/{session_id}"),
        &format!("{{\"objects\": [{}], \"k\": 10}}", picks_json.join(",")),
    )
    .json();

    // The equivalent in-process run.
    let mut local = QuerySession::start(&system, &Query::parse(&keyword)).unwrap();
    let local_initial: Vec<u64> = local
        .top_k(10)
        .iter()
        .map(|r| r.node.raw() as u64)
        .collect();
    assert_eq!(nodes, local_initial, "initial top-k must match");
    let objects: Vec<orex_graph::NodeId> = picks
        .iter()
        .map(|&n| orex_graph::NodeId::new(n as u32))
        .collect();
    local.feedback(&objects).unwrap();
    let local_after: Vec<u64> = local
        .top_k(10)
        .iter()
        .map(|r| r.node.raw() as u64)
        .collect();

    assert_eq!(
        result_nodes(&served),
        local_after,
        "reformulated top-k must match the in-process run"
    );
}

/// The cache entry, the session-table entry and the resumed session
/// share one score vector. A feedback round on the session must install
/// a new one: the cached answer stays exactly what it was, and the
/// session's own state is the reformulated one.
#[test]
fn feedback_on_a_session_leaves_the_cached_answer_untouched() {
    let _guard = serial();
    let (system, keyword) = fixture();
    let server = TestServer::spawn_default();
    let body = format!("{{\"query\": \"{keyword}\", \"k\": 10}}");

    let first = post(server.addr, "/query", &body).json();
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
    let cached_before = default_dataset(server.addr).get("cached_results").cloned();
    assert_eq!(cached_before, Some(Value::from(1u64)));
    let session_id = first.get("session").and_then(Value::as_u64).unwrap();
    let nodes = result_nodes(&first);
    let picks = &nodes[..2.min(nodes.len())];
    let picks_json: Vec<String> = picks.iter().map(u64::to_string).collect();
    let advanced = post(
        server.addr,
        &format!("/feedback/{session_id}"),
        &format!("{{\"objects\": [{}], \"k\": 10}}", picks_json.join(",")),
    )
    .json();
    assert_eq!(advanced.get("round").and_then(Value::as_u64), Some(1));
    // Only `/query` writes the result cache: the feedback round added
    // nothing to it.
    assert_eq!(
        default_dataset(server.addr).get("cached_results").cloned(),
        cached_before
    );

    let second = post(server.addr, "/query", &body).json();
    assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(
        first.get("results"),
        second.get("results"),
        "ids and scores of the cached answer survive the feedback round"
    );

    // The session itself moved on: its explanation is the one the
    // reformulated in-process session gives, under the trained rates.
    let mut local = QuerySession::start(&system, &Query::parse(&keyword)).unwrap();
    let objects: Vec<orex_graph::NodeId> = picks
        .iter()
        .map(|&n| orex_graph::NodeId::new(n as u32))
        .collect();
    local.feedback(&objects).unwrap();
    let target = result_nodes(&advanced)[0];
    let expected = local
        .explain(orex_graph::NodeId::new(target as u32))
        .unwrap();
    let served = get(server.addr, &format!("/explain/{session_id}/{target}")).json();
    assert_eq!(
        served.get("target_inflow").and_then(Value::as_f64),
        Some(expected.target_inflow())
    );
    assert_eq!(
        served.get("edges").and_then(Value::as_u64),
        Some(expected.edge_count() as u64)
    );
    assert_eq!(
        served.get("fixpoint_iterations").and_then(Value::as_u64),
        Some(expected.iterations() as u64)
    );
    // ... while the session the cache hit opened still explains the
    // same node from the unreformulated state.
    let fresh_id = second.get("session").and_then(Value::as_u64).unwrap();
    let fresh = get(server.addr, &format!("/explain/{fresh_id}/{target}")).json();
    assert_ne!(
        fresh.get("target_inflow").and_then(Value::as_f64),
        served.get("target_inflow").and_then(Value::as_f64)
    );
}

/// Equations 14/15 aggregate over a *set* of feedback objects: naming
/// one twice is naming it once. (A second object is what makes the
/// repeat visible — alone, `[a,a]` doubles every vote and the
/// normalisation steps cancel it.)
#[test]
fn repeated_feedback_object_votes_once() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let server = TestServer::spawn_default();
    let body = format!("{{\"query\": \"{keyword}\", \"k\": 10}}");
    let first = post(server.addr, "/query", &body).json();
    let second = post(server.addr, "/query", &body).json();
    let sessions = [&first, &second].map(|q| q.get("session").and_then(Value::as_u64).unwrap());
    assert_ne!(sessions[0], sessions[1]);
    let (a, b) = (result_nodes(&first)[0], result_nodes(&first)[1]);

    let twice = post(
        server.addr,
        &format!("/feedback/{}", sessions[0]),
        &format!("{{\"objects\": [{a},{b},{a}], \"k\": 10}}"),
    );
    let once = post(
        server.addr,
        &format!("/feedback/{}", sessions[1]),
        &format!("{{\"objects\": [{a},{b}], \"k\": 10}}"),
    );
    assert_eq!((twice.status, once.status), (200, 200));
    assert_eq!(
        twice.body.replacen(
            &format!("\"session\":{}", sessions[0]),
            &format!("\"session\":{}", sessions[1]),
            1
        ),
        once.body,
        "same body apart from the session id"
    );
}

/// `/feedback` reuses the explanation the session's `/explain` just
/// built, and answers exactly as a session that never explained. Only
/// the session-table entry keeps it: a later session opened from the
/// cached answer reuses nothing.
#[test]
fn feedback_after_explain_reuses_its_explanation_and_answers_the_same() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let server = TestServer::spawn_default();
    let body = format!("{{\"query\": \"{keyword}\", \"k\": 10}}");
    let open = || {
        post(server.addr, "/query", &body)
            .json()
            .get("session")
            .and_then(Value::as_u64)
            .unwrap()
    };
    let first = post(server.addr, "/query", &body).json();
    let explained = first.get("session").and_then(Value::as_u64).unwrap();
    let plain = open();
    let (t, u) = (result_nodes(&first)[0], result_nodes(&first)[1]);
    let metric = |name| metric_value(&get(server.addr, "/metrics").body, name).unwrap_or(0.0);
    let reused = || metric("orex_session_explanations_reused");
    let feedback = |sid: u64| {
        let reply = post(
            server.addr,
            &format!("/feedback/{sid}"),
            &format!("{{\"objects\": [{t},{u}], \"k\": 10}}"),
        );
        assert_eq!(reply.status, 200, "{}", reply.body);
        reply
            .body
            .replacen(&format!("\"session\":{sid}"), "\"session\":_", 1)
    };
    let before = reused();

    assert_eq!(
        get(server.addr, &format!("/explain/{explained}/{t}")).status,
        200
    );
    assert!(metric("orex_server_sessions_explained_bytes") > 0.0);
    let after_explain = feedback(explained);
    assert_eq!(reused(), before + 1.0, "the round reused one explanation");
    assert_eq!(metric("orex_server_sessions_explained_bytes"), 0.0);
    assert_eq!(
        after_explain,
        feedback(plain),
        "same body apart from the session id"
    );
    assert_eq!(reused(), before + 1.0);

    let third = open();
    assert_eq!(after_explain, feedback(third));
    assert_eq!(
        reused(),
        before + 1.0,
        "the cached answer kept no explanation"
    );
}

/// `/explain` and `/feedback` racing on one session: the explanation
/// write-back never undoes a feedback round, so the rounds count up one
/// by one and the session ends in the last round's state.
#[test]
fn racing_explain_never_undoes_a_feedback_round() {
    const ROUNDS: u64 = 50;
    let _guard = serial();
    let (_, keyword) = fixture();
    let server = TestServer::spawn_default();
    let addr = server.addr;
    let query = post(
        addr,
        "/query",
        &format!("{{\"query\": \"{keyword}\", \"k\": 10}}"),
    )
    .json();
    let sid = query.get("session").and_then(Value::as_u64).unwrap();
    let (a, b) = (result_nodes(&query)[0], result_nodes(&query)[1]);
    let feedback = move || {
        let reply = post(
            addr,
            &format!("/feedback/{sid}"),
            &format!("{{\"objects\": [{a},{b}]}}"),
        );
        assert_eq!(reply.status, 200, "{}", reply.body);
        reply.json().get("round").and_then(Value::as_u64).unwrap()
    };
    let gate = std::sync::Barrier::new(2);
    let rounds: Vec<u64> = std::thread::scope(|scope| {
        let explainer = scope.spawn(|| {
            gate.wait();
            for _ in 0..ROUNDS {
                let reply = get(addr, &format!("/explain/{sid}/{a}"));
                assert!(reply.status < 500, "{}: {}", reply.status, reply.body);
            }
        });
        gate.wait();
        let rounds = (0..ROUNDS).map(|_| feedback()).collect();
        explainer.join().unwrap();
        rounds
    });
    assert_eq!(rounds, (1..=ROUNDS).collect::<Vec<_>>());
    assert_eq!(feedback(), ROUNDS + 1);
}

/// Every feedback object costs a full explanation on the handler's
/// thread; a list past the bound is refused before any runs.
#[test]
fn oversized_feedback_list_is_refused_and_leaves_the_session_alone() {
    let _guard = serial();
    let (system, keyword) = fixture();
    let server = TestServer::spawn_default();
    let query = post(
        server.addr,
        "/query",
        &format!("{{\"query\": \"{keyword}\"}}"),
    )
    .json();
    let session = query.get("session").and_then(Value::as_u64).unwrap();
    assert!(system.graph().node_count() > 65);
    let feedback = |ids: std::ops::Range<u32>| {
        let ids: Vec<String> = ids.map(|id| id.to_string()).collect();
        post(
            server.addr,
            &format!("/feedback/{session}"),
            &format!("{{\"objects\": [{}]}}", ids.join(",")),
        )
    };

    let refused = feedback(0..65);
    assert_eq!(refused.status, 400);
    assert!(
        refused.body.contains("too many feedback objects"),
        "{:?}",
        refused.body
    );
    // No round ran: the next call is the session's first.
    let a = result_nodes(&query)[0] as u32;
    let next = feedback(a..a + 1);
    assert_eq!(next.status, 200, "{:?}", next.body);
    assert_eq!(next.json().get("round").and_then(Value::as_u64), Some(1));
}

/// Transport-level rejections (malformed request lines, oversized
/// bodies, the connection cap, unknown routes and methods) are covered
/// once for server and router by `orex-router`'s
/// `frontend_conformance` test; these are the handler-level ones.
#[test]
fn malformed_bodies_get_400s_not_crashes() {
    let _guard = serial();
    let server = TestServer::spawn_default();

    assert_eq!(post(server.addr, "/query", "not json").status, 400);
    assert_eq!(post(server.addr, "/query", "[1,2]").status, 400);
    assert_eq!(post(server.addr, "/query", "{}").status, 400);
    assert_eq!(
        post(server.addr, "/query", "{\"query\": \"zzzqqqxx\"}").status,
        400,
        "unknown keyword is a client error"
    );
    assert_eq!(post(server.addr, "/feedback/abc", "{}").status, 400);
    // The server is still healthy afterwards.
    assert_eq!(get(server.addr, "/healthz").status, 200);
}

/// The request clock starts once the request is in hand: time a client
/// spends connected but silent is not the server's latency.
#[test]
fn request_clock_excludes_client_idle_time() {
    let _guard = serial();
    let mut config = TestServer::config();
    config.slow_request = Duration::from_millis(100);
    let server = TestServer::spawn(config);
    let _ = orex_telemetry::logger().drain();

    let mut stream = TcpStream::connect(server.addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200));
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    let records = orex_telemetry::logger().drain();
    let access: Vec<_> = records
        .iter()
        .filter(|r| r.target == "server.access")
        .collect();
    assert_eq!(access.len(), 1, "one access record for the one request");
    let latency_us = access[0]
        .fields
        .iter()
        .find_map(|(key, value)| match value {
            orex_telemetry::FieldValue::U64(v) if *key == "latency_us" => Some(*v),
            _ => None,
        })
        .expect("latency_us field");
    assert!(
        latency_us < 100_000,
        "latency {latency_us}us includes the client's 200ms of silence"
    );
    assert!(
        records.iter().all(|r| r.target != "server.slow"),
        "an idle client must not make a request slow"
    );
}

#[test]
fn sessions_expire_after_ttl() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let mut config = TestServer::config();
    config.session_ttl = Duration::from_millis(80);
    let server = TestServer::spawn(config);

    let query = post(
        server.addr,
        "/query",
        &format!("{{\"query\": \"{keyword}\"}}"),
    )
    .json();
    let session = query.get("session").and_then(Value::as_u64).unwrap();
    let nodes = result_nodes(&query);
    assert_eq!(
        get(server.addr, &format!("/explain/{session}/{}", nodes[0])).status,
        200
    );
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        get(server.addr, &format!("/explain/{session}/{}", nodes[0])).status,
        404,
        "expired session must 404"
    );
    assert_eq!(
        post(
            server.addr,
            &format!("/feedback/{session}"),
            "{\"objects\": [1]}"
        )
        .status,
        404
    );
}

#[test]
fn concurrent_clients_see_no_server_errors() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let server = TestServer::spawn_default();
    let addr = server.addr;
    // The logger ring is process-global; only this test's records count.
    let _ = orex_telemetry::logger().drain();

    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let keyword = keyword.clone();
                scope.spawn(move || {
                    if i % 3 == 0 {
                        get(addr, "/healthz").status
                    } else if i % 3 == 1 {
                        get(addr, "/metrics").status
                    } else {
                        post(addr, "/query", &format!("{{\"query\": \"{keyword}\"}}")).status
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(statuses.len(), 64);
    for status in statuses {
        assert!(status < 500, "no server errors under concurrency");
        assert_ne!(status, 0, "no dropped connections");
    }

    // The log agrees with the status codes: nothing logged at ERROR.
    let errors = get(addr, "/logs?level=error");
    assert_eq!(errors.status, 200);
    assert_eq!(errors.body.trim(), "", "ERROR records under clean load");
}

#[test]
fn every_request_emits_exactly_one_trace_correlated_access_log_record() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let server = TestServer::spawn_default();

    // The logger ring is process-global; start from a clean slate so
    // only this test's requests are in the archive.
    let _ = orex_telemetry::logger().drain();

    // A mixed batch: ranked queries (miss then cache hit), health
    // checks, and a 404 — errors must produce access logs too.
    let query_body = format!("{{\"query\": \"{keyword}\"}}");
    let first = post(server.addr, "/query", &query_body);
    assert_eq!(first.status, 200, "{}", first.body);
    let second = post(server.addr, "/query", &query_body);
    assert_eq!(second.status, 200);
    for _ in 0..3 {
        assert_eq!(get(server.addr, "/healthz").status, 200);
    }
    assert_eq!(get(server.addr, "/no/such/route").status, 404);
    let requests_before_scrape = 6;

    let reply = get(server.addr, "/logs?level=info");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let access: Vec<Value> = reply
        .body
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| serde_json::from_str(l).expect("every /logs line is valid JSON"))
        .filter(|v: &Value| v.get("target").and_then(Value::as_str) == Some("server.access"))
        .collect();
    assert_eq!(
        access.len(),
        requests_before_scrape,
        "exactly one access record per request:\n{}",
        reply.body
    );

    // Statuses in the log match the statuses served.
    let mut statuses: Vec<u64> = access
        .iter()
        .map(|v| {
            v.get("fields")
                .and_then(|f| f.get("status"))
                .and_then(Value::as_u64)
                .expect("status field")
        })
        .collect();
    statuses.sort_unstable();
    assert_eq!(statuses, [200, 200, 200, 200, 200, 404]);

    // Every request-derived record carries a trace id, and the /query
    // records' trace ids resolve in the trace archive.
    for v in &access {
        assert!(
            v.get("trace").and_then(Value::as_u64).is_some(),
            "access record missing trace id: {v:?}"
        );
    }
    let first_trace = first.json().get("trace").and_then(Value::as_u64).unwrap();
    let query_records: Vec<&Value> = access
        .iter()
        .filter(|v| {
            v.get("fields")
                .and_then(|f| f.get("path"))
                .and_then(Value::as_str)
                == Some("/query")
        })
        .collect();
    assert_eq!(query_records.len(), 2);
    assert!(
        query_records
            .iter()
            .any(|v| v.get("trace").and_then(Value::as_u64) == Some(first_trace)),
        "the /query access record carries the response's trace id"
    );
    assert_eq!(
        get(server.addr, &format!("/trace/{first_trace}")).status,
        200,
        "the access log's trace id resolves in the trace archive"
    );

    // Cache-hit annotation: miss on the first query, hit on the second.
    let hits: Vec<bool> = query_records
        .iter()
        .map(|v| {
            v.get("fields")
                .and_then(|f| f.get("cache_hit"))
                .and_then(Value::as_bool)
                .expect("cache_hit on query records")
        })
        .collect();
    assert_eq!(hits.iter().filter(|h| **h).count(), 1, "{hits:?}");

    // No server errors were logged, and the filter parameters work: an
    // error-only view of this traffic is empty.
    let errors = get(server.addr, "/logs?level=error");
    assert_eq!(errors.status, 200);
    assert_eq!(errors.body.trim(), "", "no ERROR records: {}", errors.body);

    // Bad query parameters are client errors.
    assert_eq!(get(server.addr, "/logs?level=loud").status, 400);
    assert_eq!(get(server.addr, "/logs?nope=1").status, 400);

    // `since=` pages strictly past a cursor: the largest seq served
    // above yields nothing older.
    let max_seq = reply
        .body
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            serde_json::from_str(l)
                .ok()
                .and_then(|v: Value| v.get("seq").and_then(Value::as_u64))
                .expect("seq on every record")
        })
        .max()
        .unwrap();
    let tail = get(server.addr, &format!("/logs?since={max_seq}&level=info"));
    let stale: Vec<u64> = tail
        .body
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            serde_json::from_str(l)
                .ok()
                .and_then(|v: Value| v.get("seq").and_then(Value::as_u64))
                .unwrap()
        })
        .collect();
    assert!(
        stale.iter().all(|s| *s > max_seq),
        "since= must be exclusive: {stale:?}"
    );
}

/// Index terms by descending document frequency whose text survives the
/// query analyzer unchanged (so sending them as query keywords hits the
/// same vocabulary entries the artifact stores).
fn stable_top_terms(system: &Arc<ObjectRankSystem>) -> Vec<String> {
    let index = system.index();
    let mut by_df: Vec<(u32, String)> = (0..index.vocabulary_size() as u32)
        .map(|t| (index.df(t), index.term_text(t).to_string()))
        .collect();
    by_df.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    by_df
        .into_iter()
        .filter(|(df, t)| *df > 0 && index.analyzer().analyze_term(t).as_deref() == Some(t))
        .map(|(_, t)| t)
        .collect()
}

/// The `default` dataset's row of `GET /datasets`.
fn default_dataset(addr: SocketAddr) -> Value {
    let doc = get(addr, "/datasets").json();
    doc.get("datasets")
        .and_then(Value::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("name").and_then(Value::as_str) == Some("default"))
        })
        .cloned()
        .expect("a default dataset row")
}

fn metric_value(metrics: &str, name: &str) -> Option<f64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.parse().ok())
}

#[test]
fn covered_queries_combine_precomputed_vectors_and_misses_backfill() {
    let _guard = serial();
    let (system, _) = fixture();
    let terms = stable_top_terms(&system);
    assert!(terms.len() >= 3, "fixture vocabulary too small");

    // Build an artifact for the served graph: top terms through the
    // batched kernel, manifest stamped with the dataset hash.
    let matrix = orex_authority::TransitionMatrix::new(system.transfer(), system.initial_rates());
    let hash = orex_store::fnv1a(&orex_store::encode_graph(system.graph()));
    let store = orex_store::PrecomputedRanks::build(
        &matrix,
        system.index(),
        &system.config().okapi,
        &terms[..2],
        &system.config().rank,
        hash,
    );
    assert_eq!(store.terms().len(), 2, "both top terms must build");
    let path = std::env::temp_dir().join(format!("orex-e2e-precompute-{}.bin", std::process::id()));
    store.save(&path).expect("save artifact");

    let server = TestServer::spawn_with(TestServer::config(), Some(&path));
    let loaded = default_dataset(server.addr);
    assert_eq!(
        loaded.get("precompute_terms").and_then(Value::as_u64),
        Some(2)
    );

    // A multi-keyword query fully covered by the artifact is answered by
    // the exact linear combination — no live iteration.
    let covered = format!("{{\"query\": \"{} {}\", \"k\": 5}}", terms[0], terms[1]);
    let reply = post(server.addr, "/query", &covered);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let payload = reply.json();
    assert_eq!(payload.get("combined").and_then(Value::as_bool), Some(true));
    assert_eq!(payload.get("cached").and_then(Value::as_bool), Some(false));
    let nodes = result_nodes(&payload);
    assert!(!nodes.is_empty());

    // The combined session supports the rest of the interactive loop.
    let session = payload.get("session").and_then(Value::as_u64).unwrap();
    let explain = get(server.addr, &format!("/explain/{session}/{}", nodes[0]));
    assert_eq!(explain.status, 200, "{}", explain.body);
    // Read after the first explanation (which adds nothing to the
    // listing) and before anything is backfilled.
    let memory_loaded = default_dataset(server.addr)
        .get("memory_bytes")
        .and_then(Value::as_u64)
        .unwrap();

    // Re-asking is a plain result-cache hit, not a second combination.
    let again = post(server.addr, "/query", &covered).json();
    assert_eq!(again.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(result_nodes(&again), nodes);

    // A query with an uncached vocabulary term falls back to live
    // iteration and queues the term for background backfill.
    let uncovered = format!("{{\"query\": \"{} {}\"}}", terms[0], terms[2]);
    let reply = post(server.addr, "/query", &uncovered);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let payload = reply.json();
    assert_eq!(
        payload.get("combined").and_then(Value::as_bool),
        Some(false)
    );

    // Metrics carry the hit/miss split.
    let metrics = get(server.addr, "/metrics").body;
    assert!(metric_value(&metrics, "orex_server_precompute_hits").unwrap_or(0.0) >= 1.0);
    assert!(metric_value(&metrics, "orex_server_precompute_misses").unwrap_or(0.0) >= 1.0);

    // Once the backfill thread lands the missing vector, a fresh query
    // over the same terms combines.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = get(server.addr, "/metrics").body;
        if metric_value(&metrics, "orex_server_backfill_built").unwrap_or(0.0) >= 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "backfill never completed:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // The listing counts the backfilled vector, as f32 per node.
    let backfilled = default_dataset(server.addr);
    assert_eq!(
        backfilled.get("precompute_terms").and_then(Value::as_u64),
        Some(3)
    );
    assert_eq!(
        backfilled.get("memory_bytes").and_then(Value::as_u64),
        Some(memory_loaded + system.graph().node_count() as u64 * 4)
    );
    let after = post(
        server.addr,
        "/query",
        &format!("{{\"query\": \"{} {}\"}}", terms[1], terms[2]),
    );
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(
        after.json().get("combined").and_then(Value::as_bool),
        Some(true),
        "backfilled term must combine"
    );

    drop(server);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mismatched_precompute_artifact_is_refused_at_bind() {
    let _guard = serial();
    let (system, _) = fixture();
    // Right dimensions, wrong dataset hash: loading the dataset must
    // fail loudly rather than serve rankings computed for another graph.
    let store = orex_store::PrecomputedRanks::new(
        0x0BAD_CAFE,
        system.graph().node_count(),
        system.config().rank.damping,
        system.config().rank.epsilon,
    );
    let path = std::env::temp_dir().join(format!("orex-e2e-badhash-{}.bin", std::process::id()));
    store.save(&path).expect("save artifact");
    let err = fixture_service(Some(&path)).expect_err("the artifact must be refused");
    assert!(err.contains("different dataset"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn logs_cursor_past_newest_returns_empty_page_with_current_cursor() {
    let _guard = serial();
    let server = TestServer::spawn_default();

    // Generate some log traffic so the archive has a real newest seq.
    for _ in 0..3 {
        assert_eq!(get(server.addr, "/healthz").status, 200);
    }
    let reply = get(server.addr, "/logs");
    assert_eq!(reply.status, 200);
    let cursor: u64 = reply
        .header("X-Orex-Log-Cursor")
        .expect("every /logs response advertises a cursor")
        .parse()
        .expect("cursor is an integer");
    assert!(cursor > 0, "traffic above must have produced records");

    // A stale cursor far past the newest seq (e.g. held across a server
    // restart) serves an empty page, NOT a replay from the start, and
    // hands back the current cursor so the poller can resync.
    let stale = get(server.addr, &format!("/logs?since={}", cursor + 1_000_000));
    assert_eq!(stale.status, 200);
    assert_eq!(stale.body.trim(), "", "no replay: {}", stale.body);
    let resync: u64 = stale
        .header("X-Orex-Log-Cursor")
        .expect("empty page still carries the cursor")
        .parse()
        .unwrap();
    assert!(resync >= cursor);

    // Polling from the advertised cursor yields only newer records.
    let next = get(server.addr, &format!("/logs?since={resync}"));
    assert_eq!(next.status, 200);
    for line in next.body.lines().filter(|l| !l.is_empty()) {
        let v: Value = serde_json::from_str(line).unwrap();
        assert!(v.get("seq").and_then(Value::as_u64).unwrap() > resync);
    }
}

#[test]
fn metrics_serve_red_series_and_occupancy() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let server = TestServer::spawn_default();

    // Traffic so every RED series has samples: a query + a health check.
    let reply = post(
        server.addr,
        "/query",
        &format!("{{\"query\": \"{keyword}\"}}"),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(get(server.addr, "/healthz").status, 200);

    // Rate, errors and duration per endpoint, and occupancy, are plain
    // /metrics series.
    let metrics = get(server.addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert_prometheus(&metrics.body);
    let at_least_one = |name: &str| {
        let value = metric_value(&metrics.body, name);
        assert!(value.unwrap_or(0.0) >= 1.0, "{name}: {value:?}");
    };
    at_least_one("orex_server_query_requests");
    at_least_one("orex_server_query_us_count");
    at_least_one("orex_server_requests");
    at_least_one("orex_server_sessions_live");
    assert!(
        !metrics.body.lines().any(|l| l.contains("orex_slo_")),
        "{}",
        metrics.body
    );
}

#[test]
fn request_histogram_exemplars_resolve_to_served_traces() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let server = TestServer::spawn_default();

    for _ in 0..5 {
        let reply = post(
            server.addr,
            "/query",
            &format!("{{\"query\": \"{keyword}\"}}"),
        );
        assert_eq!(reply.status, 200);
    }
    let metrics = get(server.addr, "/metrics").body;
    assert_prometheus(&metrics);
    // Pull every exemplar trace id off the request histogram's buckets.
    let exemplar_ids: Vec<u64> = metrics
        .lines()
        .filter(|l| l.starts_with("orex_server_request_us_bucket"))
        .filter_map(|l| l.split("trace_id=\"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .filter_map(|id| id.parse().ok())
        .collect();
    assert!(
        !exemplar_ids.is_empty(),
        "sampled traffic must leave exemplars:\n{metrics}"
    );
    // The newest exemplar (largest trace id) resolves in the archive —
    // the tail-latency investigation loop the exemplars exist for.
    let newest = exemplar_ids.iter().max().unwrap();
    let trace = get(server.addr, &format!("/trace/{newest}"));
    assert_eq!(trace.status, 200, "{}", trace.body);
    assert!(trace.body.contains("server.request"), "{}", trace.body);
    // And the access log filtered to that trace correlates.
    let logs = get(server.addr, "/logs").body;
    assert!(
        logs.lines().any(|l| {
            serde_json::from_str(l)
                .ok()
                .and_then(|v: Value| v.get("trace").and_then(Value::as_u64))
                == Some(*newest)
        }),
        "no log record carries exemplar trace {newest}:\n{logs}"
    );
}

/// POST with an `X-Orex-Trace` header attached — the cross-process
/// propagation path a router exercises.
fn post_traced(addr: SocketAddr, path: &str, body: &str, context: &str) -> Reply {
    raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Orex-Trace: {context}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

#[test]
fn propagated_trace_context_is_adopted_and_controls_sampling() {
    use orex_telemetry::{SpanId, TraceContext, TraceId};
    let _guard = serial();
    let (_, keyword) = fixture();
    let tracer = orex_telemetry::tracer();
    if !tracer.is_enabled() {
        return;
    }
    let server = TestServer::spawn_default();
    let query_body = format!("{{\"query\": \"{keyword}\"}}");

    // Health probes advertise the worker clock for skew alignment.
    let health = get(server.addr, "/healthz");
    assert_eq!(health.status, 200);
    let clock: u64 = health
        .header("X-Orex-Clock")
        .expect("healthz carries the worker clock")
        .parse()
        .expect("clock is nanoseconds");
    let later: u64 = get(server.addr, "/healthz")
        .header("X-Orex-Clock")
        .unwrap()
        .parse()
        .unwrap();
    assert!(later >= clock, "the advertised clock is monotonic");

    // A sampled remote context: the server joins the caller's trace
    // instead of minting one.
    let sampled = TraceContext {
        trace: TraceId(0xABCD_1234),
        parent: SpanId(0x99),
        flags: TraceContext::SAMPLED,
    };
    let reply = post_traced(server.addr, "/query", &query_body, &sampled.header_value());
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        reply.json().get("trace").and_then(Value::as_u64),
        Some(0xABCD_1234),
        "response reports the propagated trace id"
    );
    // The archive serves it as a Chrome document whose every span
    // belongs to the propagated trace, and the root span's parent is the
    // caller's span id — the link a stitching router reads across
    // processes.
    let chrome = get(server.addr, "/trace/2882343476");
    assert_eq!(chrome.status, 200, "{}", chrome.body);
    let doc: Value = serde_json::from_str(&chrome.body).expect("chrome JSON");
    let begins: Vec<&Value> = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("B"))
        .collect();
    for begin in &begins {
        assert_eq!(
            begin
                .get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Value::as_u64),
            Some(2_882_343_476),
            "foreign span in {begin:?}"
        );
    }
    let request = begins
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("server.request"))
        .unwrap_or_else(|| panic!("server.request span in {}", chrome.body));
    assert_eq!(
        request
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Value::as_u64),
        Some(153), // 0x99: the remote parent
        "root span links to the remote parent:\n{}",
        chrome.body
    );
    // The Chrome document is the only rendering: a format knob is an
    // unknown parameter like any other.
    let knob = get(server.addr, "/trace/2882343476?format=wire");
    assert_eq!(knob.status, 400, "{}", knob.body);
    assert!(
        knob.body.contains("unknown query parameter"),
        "{}",
        knob.body
    );
    // Log records stamped with the shared id filter by ?trace=.
    let logs = get(server.addr, "/logs?trace=2882343476");
    assert_eq!(logs.status, 200);
    let records: Vec<Value> = logs
        .body
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert!(!records.is_empty(), "the access record carries the trace");
    for v in &records {
        assert_eq!(v.get("trace").and_then(Value::as_u64), Some(2_882_343_476));
    }

    // An explicitly-unsampled context (flags 00) overrides the local
    // record-everything default: nothing reaches the archive.
    let unsampled = TraceContext {
        trace: TraceId(0xBEEF_0001),
        parent: SpanId(7),
        flags: 0,
    };
    let reply = post_traced(
        server.addr,
        "/query",
        &query_body,
        &unsampled.header_value(),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        get(server.addr, &format!("/trace/{}", 0xBEEF_0001u64)).status,
        404,
        "the propagated unsampled decision wins over the local draw"
    );

    // With a zero slow threshold every trace is "slow": an unsampled
    // trace is promoted whole into this process's ring and served like
    // a sampled one. A flags byte with an unknown bit (`02`) reads as
    // unsampled and is promoted the same way.
    tracer.set_slow_threshold(Some(Duration::ZERO));
    let mut replies = Vec::new();
    for (trace, flags) in [(0xBEEF_0002u64, 0x02), (0xBEEF_0003, 0)] {
        let context = TraceContext {
            trace: TraceId(trace),
            parent: SpanId(7),
            flags,
        };
        replies.push(post_traced(
            server.addr,
            "/query",
            &query_body,
            &context.header_value(),
        ));
    }
    tracer.set_slow_threshold(None);
    for (reply, trace) in replies.iter().zip([0xBEEF_0002u64, 0xBEEF_0003]) {
        assert_eq!(reply.status, 200, "{}", reply.body);
        let chrome = get(server.addr, &format!("/trace/{trace}"));
        assert_eq!(chrome.status, 200, "slow trace {trace} is served");
        assert!(
            chrome.body.contains("server.request"),
            "the promoted root is in the ring:\n{}",
            chrome.body
        );
    }
    // Promotion is local: a response carries the framing headers and
    // nothing that names promoted traces.
    for (name, _) in replies.iter().flat_map(|r| &r.headers) {
        let name = name.to_ascii_lowercase();
        assert!(
            ["content-type", "content-length", "connection"].contains(&name.as_str()),
            "unexpected response header {name}"
        );
    }
}

#[test]
fn keep_alive_connections_are_reused_across_requests() {
    let _guard = serial();
    let server = TestServer::spawn_default();
    let client = orex_server::HttpClient::new(server.addr.to_string());

    for _ in 0..20 {
        let reply = client.get("/healthz").expect("request");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body_str(), Some("ok\n"));
    }
    assert_eq!(client.requests(), 20);
    assert_eq!(
        client.connects(),
        1,
        "sequential requests share one connection"
    );
    assert!(
        client.reuse_ratio() >= 0.9,
        "reuse ratio {} below the fleet target",
        client.reuse_ratio()
    );

    // The server counted the reuses too.
    let reply = client.get("/metrics").expect("metrics");
    let metrics = reply.body_str().unwrap();
    assert!(
        metric_value(metrics, "orex_server_keepalive_reuses").unwrap_or(0.0) >= 19.0,
        "server-side reuse counter:\n{metrics}"
    );
}

#[test]
fn registry_serves_datasets_by_name_and_404s_unknown_ones() {
    let _guard = serial();
    let (_, keyword) = fixture();
    let specs = vec![
        orex_server::DatasetSpec::parse("dblp=dblp-top:0.02").expect("spec"),
        orex_server::DatasetSpec::parse("bio=ds7-cancer:0.02").expect("spec"),
    ];
    let registry = SystemRegistry::new(specs, 64).expect("registry");
    let server = TestServer::bind(registry, TestServer::config());

    // Lazy: nothing is built until first use.
    let listing = get(server.addr, "/datasets");
    assert_eq!(listing.status, 200, "{}", listing.body);
    let doc = listing.json();
    assert_eq!(doc.get("default").and_then(Value::as_str), Some("dblp"));
    let datasets = doc.get("datasets").and_then(Value::as_array).unwrap();
    assert_eq!(datasets.len(), 2);
    for d in datasets {
        assert_eq!(d.get("loaded").and_then(Value::as_bool), Some(false));
    }

    // Routing by name: the dblp dataset builds on first query and the
    // session it opens remembers its owning dataset.
    let reply = post(
        server.addr,
        "/query",
        &format!("{{\"query\": \"{keyword}\", \"dataset\": \"dblp\"}}"),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let payload = reply.json();
    assert_eq!(payload.get("dataset").and_then(Value::as_str), Some("dblp"));
    let session = payload.get("session").and_then(Value::as_u64).unwrap();
    let nodes = result_nodes(&payload);
    assert_eq!(
        get(server.addr, &format!("/explain/{session}/{}", nodes[0])).status,
        200
    );

    // The listing now shows dblp loaded with memory accounting; bio is
    // still cold.
    let doc = get(server.addr, "/datasets").json();
    let datasets = doc.get("datasets").and_then(Value::as_array).unwrap();
    let dblp = datasets
        .iter()
        .find(|d| d.get("name").and_then(Value::as_str) == Some("dblp"))
        .unwrap();
    assert_eq!(dblp.get("loaded").and_then(Value::as_bool), Some(true));
    assert!(dblp.get("memory_bytes").and_then(Value::as_u64).unwrap() > 0);
    assert!(dblp.get("nodes").and_then(Value::as_u64).unwrap() > 0);
    let bio = datasets
        .iter()
        .find(|d| d.get("name").and_then(Value::as_str) == Some("bio"))
        .unwrap();
    assert_eq!(bio.get("loaded").and_then(Value::as_bool), Some(false));
    assert!(
        doc.get("total_memory_bytes")
            .and_then(Value::as_u64)
            .unwrap()
            > 0
    );

    // Unknown dataset: typed 404, not a 500, and the server stays up.
    let reply = post(
        server.addr,
        "/query",
        &format!("{{\"query\": \"{keyword}\", \"dataset\": \"nope\"}}"),
    );
    assert_eq!(reply.status, 404, "{}", reply.body);
    assert!(
        reply
            .json()
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("unknown dataset"),
        "{}",
        reply.body
    );
    // Non-string dataset field is a client error.
    assert_eq!(
        post(server.addr, "/query", "{\"query\": \"x\", \"dataset\": 3}").status,
        400
    );
    assert_eq!(get(server.addr, "/healthz").status, 200);

    // The unknown-dataset 404's access record carries the dataset name.
    let logs = get(server.addr, "/logs?level=info").body;
    assert!(
        logs.lines().any(|l| {
            serde_json::from_str(l)
                .ok()
                .map(|v: Value| {
                    v.get("fields")
                        .and_then(|f| f.get("dataset"))
                        .and_then(Value::as_str)
                        == Some("nope")
                        && v.get("fields")
                            .and_then(|f| f.get("status"))
                            .and_then(Value::as_u64)
                            == Some(404)
                })
                .unwrap_or(false)
        }),
        "404 access record carries the dataset field:\n{logs}"
    );
}

#[test]
fn graceful_shutdown_reports_clean_exit() {
    let _guard = serial();
    let server = TestServer::spawn_default();
    assert_eq!(get(server.addr, "/healthz").status, 200);
    drop(server); // Drop asserts run() returned Ok after drain.
    let snapshot = orex_telemetry::global().snapshot();
    assert!(
        snapshot
            .counters
            .get("server.clean_shutdowns")
            .copied()
            .unwrap_or(0)
            >= 1
    );
}
