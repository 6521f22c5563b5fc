//! Front-end conformance: a bare worker server and a router run on the
//! same `orex_server::frontend`, so the same hostile or edge-case bytes
//! must produce the same wire behaviour and the same accounting on
//! both. One table of cases is sent to each over real sockets and each
//! outcome is held to the same expected row.
//!
//! Accounting is read from the process-global recorder and logger under
//! each front end's own prefix. The bare server runs (and stops) before
//! the fleet starts, because the router's worker is itself a `server.*`
//! front end whose health probes would otherwise be counted.

use orex_router::{Fleet, Router, RouterConfig, WorkerSource};
use orex_server::{DatasetSpec, Server, ServerConfig, ShutdownHandle, SystemRegistry};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Short budgets so the timeout cases finish quickly.
const IO_TIMEOUT: Duration = Duration::from_millis(300);
const KEEPALIVE_IDLE: Duration = Duration::from_millis(300);
const MAX_BODY: usize = 256;

struct Case {
    name: &'static str,
    /// Bytes written in one go after connecting (may be empty).
    send: &'static [u8],
    /// Use the instance whose connection cap is zero.
    over_cap: bool,
    /// Expected response statuses, in order.
    statuses: &'static [u16],
    /// `Retry-After` of the last response.
    retry_after: Option<&'static str>,
    /// The front end closes the connection after the last response.
    closes: bool,
    /// With `closes == false`: stay silent afterwards and expect the
    /// keep-alive idle limit to close the connection without a byte.
    then_idle_close: bool,
}

const CASES: &[Case] = &[
    Case {
        name: "malformed request line",
        send: b"NONSENSE\r\n",
        over_cap: false,
        statuses: &[400],
        retry_after: None,
        closes: true,
        then_idle_close: false,
    },
    Case {
        name: "unsupported protocol version",
        send: b"GET / FTP/9\r\n",
        over_cap: false,
        statuses: &[400],
        retry_after: None,
        closes: true,
        then_idle_close: false,
    },
    Case {
        name: "oversized body, by declared length",
        send: b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1024\r\n\r\n",
        over_cap: false,
        statuses: &[413],
        retry_after: None,
        closes: true,
        then_idle_close: false,
    },
    Case {
        name: "no request before the io timeout",
        send: b"",
        over_cap: false,
        statuses: &[408],
        retry_after: None,
        closes: true,
        then_idle_close: false,
    },
    Case {
        name: "request stalls mid-headers",
        send: b"GET /healthz HTTP/1.1\r\nHost: t\r\n",
        over_cap: false,
        statuses: &[408],
        retry_after: None,
        closes: true,
        then_idle_close: false,
    },
    Case {
        name: "connect over the connection cap",
        send: b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        over_cap: true,
        statuses: &[503],
        retry_after: Some("1"),
        closes: true,
        then_idle_close: false,
    },
    Case {
        name: "unknown route keeps the connection",
        send: b"GET /no/such/route HTTP/1.1\r\nHost: t\r\n\r\n",
        over_cap: false,
        statuses: &[404],
        retry_after: None,
        closes: false,
        then_idle_close: false,
    },
    Case {
        name: "known route, wrong shape",
        send: b"GET /explain/1 HTTP/1.1\r\nHost: t\r\n\r\n",
        over_cap: false,
        statuses: &[404],
        retry_after: None,
        closes: false,
        then_idle_close: false,
    },
    Case {
        name: "removed /profile endpoint is an unknown route",
        send: b"GET /profile HTTP/1.1\r\nHost: t\r\n\r\n",
        over_cap: false,
        statuses: &[404],
        retry_after: None,
        closes: false,
        then_idle_close: false,
    },
    Case {
        name: "PUT /query is a method error",
        send: b"PUT /query HTTP/1.1\r\nHost: t\r\n\r\n",
        over_cap: false,
        statuses: &[405],
        retry_after: None,
        closes: false,
        then_idle_close: false,
    },
    Case {
        name: "pipelined requests answer in order, last one closes",
        send: b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                GET /no/such/route HTTP/1.1\r\nHost: t\r\n\r\n\
                GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        over_cap: false,
        statuses: &[200, 404, 200],
        retry_after: None,
        closes: true,
        then_idle_close: false,
    },
    Case {
        name: "Connection: close is honoured",
        send: b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        over_cap: false,
        statuses: &[200],
        retry_after: None,
        closes: true,
        then_idle_close: false,
    },
    Case {
        name: "HTTP/1.0 defaults to close",
        send: b"GET /healthz HTTP/1.0\r\n\r\n",
        over_cap: false,
        statuses: &[200],
        retry_after: None,
        closes: true,
        then_idle_close: false,
    },
    Case {
        name: "idle keep-alive connection is closed silently",
        send: b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        over_cap: false,
        statuses: &[200],
        retry_after: None,
        closes: false,
        then_idle_close: true,
    },
];

/// Everything observable about one case on one front end.
#[derive(Debug, PartialEq)]
struct Outcome {
    statuses: Vec<u16>,
    /// `Connection:` header of every response.
    connection: Vec<String>,
    retry_after: Option<String>,
    closed_after_last_response: bool,
    closed_by_idle_limit: bool,
    access_records: usize,
    requests: u64,
    overload_503: u64,
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<String> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.clone())
    }
}

/// Reads one `Content-Length`-framed response.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header colon");
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let reply = Reply { status, headers };
    let length: usize = reply
        .header("Content-Length")
        .and_then(|v| v.parse().ok())
        .expect("every response declares its length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    reply
}

/// Waits up to `wait` for the peer to close: `true` on EOF, `false`
/// when the connection is still open and silent.
fn closed_within(reader: &mut BufReader<TcpStream>, wait: Duration) -> bool {
    reader.get_ref().set_read_timeout(Some(wait)).unwrap();
    match reader.fill_buf() {
        Ok([]) => true,
        Ok(extra) => panic!("unexpected bytes after the last response: {extra:?}"),
        Err(e) if matches!(e.kind(), std::io::ErrorKind::ConnectionReset) => true,
        Err(_) => false,
    }
}

fn counter(name: &str) -> u64 {
    orex_telemetry::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// One front end under test: the instance the cases talk to, and a
/// twin whose connection cap is zero.
struct Target {
    prefix: &'static str,
    addr: String,
    capped_addr: String,
}

impl Target {
    fn run(&self, case: &Case) -> Outcome {
        let access_target = format!("{}.access", self.prefix);
        let requests = format!("{}.requests", self.prefix);
        let overload = format!("{}.overload_503", self.prefix);
        let _ = orex_telemetry::logger().drain();
        let (requests_before, overload_before) = (counter(&requests), counter(&overload));

        let addr = if case.over_cap {
            &self.capped_addr
        } else {
            &self.addr
        };
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(case.send).expect("send");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let replies: Vec<Reply> = case
            .statuses
            .iter()
            .map(|_| read_reply(&mut reader))
            .collect();
        // Well inside the keep-alive idle limit, so "still open" here
        // is the front end's choice, not its idle timer.
        let closed_after_last_response = closed_within(&mut reader, KEEPALIVE_IDLE / 3);
        let closed_by_idle_limit = case.then_idle_close
            && !closed_after_last_response
            && closed_within(&mut reader, KEEPALIVE_IDLE * 10);
        drop(reader);

        Outcome {
            statuses: replies.iter().map(|r| r.status).collect(),
            connection: replies
                .iter()
                .map(|r| r.header("Connection").unwrap_or_default())
                .collect(),
            retry_after: replies.last().and_then(|r| r.header("Retry-After")),
            closed_after_last_response,
            closed_by_idle_limit,
            access_records: orex_telemetry::logger()
                .drain()
                .iter()
                .filter(|record| record.target == access_target)
                .count(),
            requests: counter(&requests) - requests_before,
            overload_503: counter(&overload) - overload_before,
        }
    }

    /// Runs every case and holds each outcome to the table — the same
    /// table for both front ends, which is what makes them identical.
    fn run_all(&self) {
        for case in CASES {
            let n = case.statuses.len();
            let mut connection = vec!["keep-alive".to_string(); n];
            if case.closes {
                connection[n - 1] = "close".to_string();
            }
            let expected = Outcome {
                statuses: case.statuses.to_vec(),
                connection,
                retry_after: case.retry_after.map(String::from),
                closed_after_last_response: case.closes,
                closed_by_idle_limit: case.then_idle_close,
                access_records: n,
                requests: n as u64,
                overload_503: u64::from(case.over_cap),
            };
            assert_eq!(
                self.run(case),
                expected,
                "{}: case {:?}",
                self.prefix,
                case.name
            );
        }
    }
}

/// A running server or router, stopped and joined on drop.
struct Running {
    addr: String,
    stop: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop.shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("thread").expect("clean drain");
        }
    }
}

fn spawn_server(config: ServerConfig) -> Running {
    // Lazy registry: nothing is built, no case issues a query.
    let specs = vec![DatasetSpec::parse("dblp=dblp-top:0.02").expect("spec")];
    let registry = SystemRegistry::new(specs, 8).expect("registry");
    let server = Server::bind(registry, config).expect("bind server");
    Running {
        addr: server.local_addr().expect("addr").to_string(),
        stop: server.shutdown_handle(),
        thread: Some(std::thread::spawn(move || server.run())),
    }
}

fn spawn_router(worker: &str, config: RouterConfig) -> (Running, Arc<Fleet>) {
    let fleet = Fleet::start(
        WorkerSource::External {
            addrs: vec![worker.to_string()],
        },
        Duration::from_millis(50),
    )
    .expect("fleet");
    let router = Router::bind(Arc::clone(&fleet), config).expect("bind router");
    let running = Running {
        addr: router.local_addr().expect("addr").to_string(),
        stop: router.shutdown_handle(),
        thread: Some(std::thread::spawn(move || router.run())),
    };
    (running, fleet)
}

#[test]
fn server_and_router_answer_hostile_and_edge_requests_identically() {
    let server_config = |max_connections| ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        max_body_bytes: MAX_BODY,
        io_timeout: IO_TIMEOUT,
        keepalive_idle: KEEPALIVE_IDLE,
        max_connections,
        ..ServerConfig::default()
    };
    {
        let server = spawn_server(server_config(64));
        let capped = spawn_server(server_config(0));
        Target {
            prefix: "server",
            addr: server.addr.clone(),
            capped_addr: capped.addr.clone(),
        }
        .run_all();
    }

    let router_config = |max_connections| RouterConfig {
        addr: "127.0.0.1:0".into(),
        max_body_bytes: MAX_BODY,
        io_timeout: IO_TIMEOUT,
        keepalive_idle: KEEPALIVE_IDLE,
        max_connections,
        ..RouterConfig::default()
    };
    {
        let worker = spawn_server(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        });
        let (router, fleet) = spawn_router(&worker.addr, router_config(64));
        let (capped, _capped_fleet) = spawn_router(&worker.addr, router_config(0));
        let admitted = Instant::now() + Duration::from_secs(10);
        while fleet.healthy_count() == 0 {
            assert!(Instant::now() < admitted, "worker never passed a probe");
            std::thread::sleep(Duration::from_millis(20));
        }
        Target {
            prefix: "router",
            addr: router.addr.clone(),
            capped_addr: capped.addr.clone(),
        }
        .run_all();
    }
}
