//! The closed loop: two client connections taking iterations off one
//! shared cursor, and what a timed window of that traffic measured.

use crate::client::{first_u64, numbers_after, request_bytes, Client, Reply};
use crate::stats::{percentile, sorted};
use crate::trace::Trace;
use crate::workload::{feedback_body, Iteration, Plan, Shape, CLIENTS};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Query,
    Explain,
    Feedback,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Query, Op::Explain, Op::Feedback];

    pub fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Explain => "explain",
            Op::Feedback => "feedback",
        }
    }
}

struct Sample {
    op: Op,
    latency: Duration,
    ok: bool,
    cached: bool,
}

/// Every response body of one fill-phase iteration, in order.
pub struct Observed {
    pub index: u64,
    pub it: Iteration,
    pub bodies: Vec<(Op, String)>,
}

/// What one client connection did during one phase.
pub struct Lane {
    samples: Vec<Sample>,
    /// Wall time of every completed iteration.
    loops: Vec<Duration>,
    pub observed: Vec<Observed>,
    pub trace: Option<Trace>,
    /// Phase start to this client's last response.
    elapsed: Duration,
    errors: Vec<String>,
}

#[derive(Clone, Copy)]
pub enum Until {
    /// Run the iterations below this index.
    Index(u64),
    /// Start no request after this instant.
    Deadline(Instant),
}

struct Driver<'a> {
    plan: &'a Plan,
    client: Client,
    lane: Lane,
    until: Until,
    requests: u32,
}

impl Driver<'_> {
    fn expired(&self) -> bool {
        matches!(self.until, Until::Deadline(at) if Instant::now() >= at)
    }

    /// One request; `None` when it failed or the window closed first.
    fn issue(&mut self, op: Op, path: &str, body: Option<&str>) -> Option<Reply> {
        if self.expired() {
            return None;
        }
        let method = if body.is_some() { "POST" } else { "GET" };
        let sent = self.client.round_trip(&request_bytes(method, path, body));
        self.requests += 1;
        let (ok, cached, latency) = match &sent {
            Ok(reply) => (
                reply.status == 200,
                op == Op::Query && reply.body.contains("\"cached\":true"),
                reply.latency(),
            ),
            Err(_) => (false, false, Duration::ZERO),
        };
        self.lane.samples.push(Sample {
            op,
            latency,
            ok,
            cached,
        });
        match sent {
            Ok(reply) if ok => {
                if let Some(trace) = &mut self.lane.trace {
                    let n = self.requests;
                    let root = trace.record("client.request", reply.start, reply.end, None, n);
                    trace.record("client.write", reply.start, reply.write_done, Some(root), n);
                    let (sent, first) = (reply.write_done, reply.first_byte);
                    trace.record("client.first_byte_wait", sent, first, Some(root), n);
                    trace.record("client.read", reply.first_byte, reply.end, Some(root), n);
                }
                Some(reply)
            }
            Ok(reply) => {
                let body: String = reply.body.chars().take(120).collect();
                self.lane.errors.push(format!(
                    "{} {path}: status {} {body}",
                    op.name(),
                    reply.status
                ));
                None
            }
            Err(e) => {
                self.lane.errors.push(format!("{} {path}: {e}", op.name()));
                None
            }
        }
    }

    /// One iteration of the workload's loop; `None` when a request
    /// failed or the window closed mid-way.
    fn iteration(&mut self, it: Iteration, bodies: &mut Vec<(Op, String)>) -> Option<()> {
        let mut step = |driver: &mut Self, op: Op, path: &str, body: Option<&str>| {
            let reply = driver.issue(op, path, body)?;
            let ids: Vec<u64> = numbers_after(&reply.body, "node")
                .take(2)
                .filter_map(|n| n.parse().ok())
                .collect();
            let session = first_u64(&reply.body, "session");
            bodies.push((op, reply.body));
            Some((session, ids))
        };
        let query = self.plan.query_body(it);
        let (session, top) = step(self, Op::Query, "/query", Some(&query))?;
        let shape = self.plan.spec.shape;
        if shape == Shape::QueryOnly {
            return Some(());
        }
        let session = session?;
        let explain = |top: &[u64]| Some(format!("/explain/{session}/{}", top.first()?));
        let feedback = format!("/feedback/{session}");
        step(self, Op::Explain, &explain(&top)?, None)?;
        let (_, next) = step(self, Op::Feedback, &feedback, Some(&feedback_body(&top)))?;
        if shape == Shape::PaperLoop {
            step(self, Op::Explain, &explain(&next)?, None)?;
            step(self, Op::Feedback, &feedback, Some(&feedback_body(&next)))?;
        }
        Some(())
    }
}

/// One client connection: takes iterations off the shared `cursor`
/// until `until`.
fn drive(
    plan: &Plan,
    addr: SocketAddr,
    cursor: &AtomicU64,
    until: Until,
    trace: Option<Trace>,
    observe: bool,
) -> Lane {
    let mut driver = Driver {
        plan,
        client: Client::new(addr),
        lane: Lane {
            samples: Vec::new(),
            loops: Vec::new(),
            observed: Vec::new(),
            trace,
            elapsed: Duration::ZERO,
            errors: Vec::new(),
        },
        until,
        requests: 0,
    };
    let begun = Instant::now();
    let mut last_response = begun;
    while !driver.expired() {
        // ORDERING: the cursor only hands out distinct indices; nothing
        // else is published through it.
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if matches!(until, Until::Index(end) if index >= end) {
            break;
        }
        let it = plan.iteration(index);
        let mut bodies = Vec::new();
        let started = Instant::now();
        let completed = driver.iteration(it, &mut bodies).is_some();
        if !bodies.is_empty() {
            last_response = Instant::now();
        }
        if completed {
            driver.lane.loops.push(last_response - started);
        }
        if observe {
            driver.lane.observed.push(Observed { index, it, bodies });
        }
    }
    driver.lane.elapsed = last_response - begun;
    driver.lane
}

/// One phase: every client runs [`drive`] on its own thread and
/// connection, continuing the sequence where the previous phase stopped.
pub fn run_phase(
    plan: &Plan,
    addr: SocketAddr,
    cursor: &AtomicU64,
    until: Until,
    traced: Option<Instant>,
    observe: bool,
) -> Vec<Lane> {
    let lanes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let trace = traced.map(Trace::new);
                scope.spawn(move || drive(plan, addr, cursor, until, trace, observe))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    if let Until::Index(end) = until {
        // Every client overshoots by one when it finds the phase done.
        cursor.store(end, Ordering::Relaxed);
    }
    lanes
}

/// What a timed window measured, client side.
pub struct Window {
    /// Ascending latencies of successful requests, milliseconds.
    pub latency_ms: BTreeMap<Op, Vec<f64>>,
    pub loops_ms: Vec<f64>,
    pub throughput_rps: f64,
    pub cached_share: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Window {
    pub fn of(lanes: &[Lane]) -> Self {
        let mut latency_ms: BTreeMap<Op, Vec<f64>> =
            Op::ALL.iter().map(|&op| (op, vec![])).collect();
        let (mut attempted, mut failed, mut cached, mut throughput_rps) = (0, 0, 0, 0.0);
        for lane in lanes {
            let mut succeeded = 0;
            for sample in &lane.samples {
                attempted += 1;
                if sample.ok {
                    succeeded += 1;
                    cached += u64::from(sample.cached);
                    let ms = sample.latency.as_secs_f64() * 1e3;
                    latency_ms.entry(sample.op).or_default().push(ms);
                } else {
                    failed += 1;
                }
            }
            if succeeded > 0 {
                throughput_rps += succeeded as f64 / lane.elapsed.as_secs_f64();
            }
        }
        let queries = latency_ms[&Op::Query].len();
        Self {
            latency_ms: latency_ms
                .into_iter()
                .map(|(op, v)| (op, sorted(v)))
                .collect(),
            loops_ms: sorted(
                lanes
                    .iter()
                    .flat_map(|l| l.loops.iter().map(|d| d.as_secs_f64() * 1e3))
                    .collect(),
            ),
            throughput_rps,
            cached_share: if queries == 0 {
                0.0
            } else {
                cached as f64 / queries as f64
            },
            attempted,
            failed,
            errors: lanes
                .iter()
                .flat_map(|l| l.errors.iter().cloned())
                .collect(),
        }
    }

    pub fn percentile(&self, op: Op, p: f64) -> f64 {
        percentile(&self.latency_ms[&op], p)
    }
}
