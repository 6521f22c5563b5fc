//! `perf` — the orex serving benchmark.
//!
//! One process spawns the real release `orex` binary, drives it over
//! loopback from two closed-loop keep-alive clients with zero think
//! time, checks the outputs, and prints every end-to-end and per-layer
//! metric by name with its unit. See `README.md` in this directory for
//! the workloads, the metric glossary and how the numbers interact.
//!
//! ```text
//! perf [--workload NAME] [--seed 42] [--seconds 15] [--trace 0|1]
//!      [--out DIR] [--repeat-check]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! end-to-end (`--trace 0`) and the per-layer (`--trace 1`) halves run.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod client;
mod drive;
mod procs;
mod replay;
mod stats;
mod trace;
mod workload;

use check::{feedback_objects, node_ids, Digest, Reference, TopK};
use client::{first_u64, request_bytes, Client};
use drive::{run_phase, Lane, Observed, Op, Until, Window};
use procs::{orex_binary, ServerProc, FLEET_WORKERS};
use stats::{histogram_mean_between, mean, median, metric_sum, metric_values, percentile};
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};
use trace::Trace;
use workload::{CachedRule, Plan, Spec, CLIENTS, MAX_SESSIONS, WORKLOADS};

/// Servers started per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A server that has not answered by then fails the run.
const READY_LIMIT: Duration = Duration::from_secs(120);
/// Distinct fill-phase queries compared with the in-process reference.
const SAMPLED_QUERIES: usize = 16;
/// Fill-phase feedback chains compared with the in-process reference.
const SAMPLED_CHAINS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

/// A gated metric: what a user of the served loop sees.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: Better,
    /// Share of the parent's median by which it may worsen.
    bound: f64,
}

/// Must match `end_to_end` in `BENCHMARK.json` (a unit test checks).
const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "loop_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Ungated metrics of single layers: `(name, unit, better)`. Must match
/// `per_layer` in `BENCHMARK.json`. A workload that never enters a layer
/// reports 0 for it.
const PER_LAYER: &[(&str, &str, Better)] = &[
    ("transport.residual_query_ms", "ms", Better::Lower),
    ("transport.residual_explain_ms", "ms", Better::Lower),
    ("transport.residual_feedback_ms", "ms", Better::Lower),
    ("client.write_us", "us", Better::Lower),
    ("client.first_byte_wait_us", "us", Better::Lower),
    ("client.read_us", "us", Better::Lower),
    ("client.query_p95_ms", "ms", Better::Lower),
    ("client.query_p99_ms", "ms", Better::Lower),
    ("client.explain_p50_ms", "ms", Better::Lower),
    ("client.explain_p95_ms", "ms", Better::Lower),
    ("client.feedback_p50_ms", "ms", Better::Lower),
    ("client.feedback_p95_ms", "ms", Better::Lower),
    ("client.loop_p95_ms", "ms", Better::Lower),
    ("server.parse_us", "us", Better::Lower),
    ("server.serialize_us", "us", Better::Lower),
    ("server.cache_get_us", "us", Better::Lower),
    ("server.cache_put_us", "us", Better::Lower),
    ("server.cache_hit_share", "ratio", Better::Higher),
    ("server.session_insert_us", "us", Better::Lower),
    ("server.session_get_us", "us", Better::Lower),
    ("server.session_update_us", "us", Better::Lower),
    ("server.handler_query_us_mean", "us", Better::Lower),
    ("server.handler_explain_us_mean", "us", Better::Lower),
    ("server.handler_feedback_us_mean", "us", Better::Lower),
    ("core.session_start_us", "us", Better::Lower),
    ("core.snapshot_us", "us", Better::Lower),
    ("core.session_resume_us", "us", Better::Lower),
    ("core.top_k_us", "us", Better::Lower),
    ("core.feedback_us", "us", Better::Lower),
    ("core.feedback.rank_us", "us", Better::Lower),
    ("core.feedback.explain_us", "us", Better::Lower),
    ("core.feedback.rank_iterations", "count", Better::Lower),
    ("graph.weights_us", "us", Better::Lower),
    ("graph.transfer_build_ms", "ms", Better::Lower),
    ("authority.matrix_build_us", "us", Better::Lower),
    ("authority.rank_us", "us", Better::Lower),
    ("authority.rank_iterations", "count", Better::Lower),
    ("authority.top_k_us", "us", Better::Lower),
    ("authority.global_rank_ms", "ms", Better::Lower),
    ("ir.query_vector_us", "us", Better::Lower),
    ("ir.base_set_us", "us", Better::Lower),
    ("ir.index_build_ms", "ms", Better::Lower),
    ("explain.explain_us", "us", Better::Lower),
    ("explain.summarize_us", "us", Better::Lower),
    ("explain.subgraph_nodes", "count", Better::Lower),
    ("explain.subgraph_edges", "count", Better::Lower),
    ("explain.fixpoint_iterations", "count", Better::Lower),
    ("reformulate.reformulate_us", "us", Better::Lower),
    ("router.overhead_ms", "ms", Better::Lower),
    ("router.retries", "count", Better::Lower),
    ("router.conn_reuse_share", "ratio", Better::Higher),
    ("datagen.generate_s", "s", Better::Lower),
    ("core.system_build_s", "s", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("replay.unattributed_share", "ratio", Better::Lower),
];

struct Options {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end half only; `Some(true)`: per-layer half
    /// only; `None`: both.
    trace: Option<bool>,
    out: PathBuf,
    repeat_check: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = Self {
            workloads: WORKLOADS.iter().collect(),
            seed: 42,
            seconds: 15.0,
            trace: None,
            // `<target>/perf`, next to the profile directory this
            // executable was built into.
            out: std::env::current_exe()
                .ok()
                .and_then(|exe| Some(exe.parent()?.parent()?.join("perf")))
                .ok_or("cannot locate this executable")?,
            repeat_check: false,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if flag == "--repeat-check" {
                options.repeat_check = true;
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} expects a value"))?;
            let bad = || format!("{flag} got invalid value {value:?}");
            match flag.as_str() {
                "--workload" => {
                    options.workloads = vec![workload::find(value).ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {value:?} (one of {})", names.join(", "))
                    })?];
                }
                "--seed" => options.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    options.seconds = value.parse().map_err(|_| bad())?;
                    if !(options.seconds > 0.0 && options.seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    options.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                "--out" => options.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(options)
    }

    fn end_to_end(&self) -> bool {
        self.trace != Some(true)
    }

    fn per_layer(&self) -> bool {
        self.trace != Some(false)
    }
}

/// Everything one workload run found.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    /// Correctness, validity and hygiene findings; empty means correct.
    failures: Vec<String>,
    digest: String,
    /// Per-span-name roll-ups of the client trace and the replay trace.
    layers: Vec<(&'static str, BTreeMap<&'static str, trace::Layer>)>,
}

impl Report {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    fn absorb(&mut self, window: &Window, phase: &str) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        for e in window.errors.iter().take(5) {
            self.failures.push(format!("{phase}: {e}"));
        }
        if window.errors.len() > 5 {
            self.failures.push(format!(
                "{phase}: ... and {} more errors",
                window.errors.len() - 5
            ));
        }
    }
}

/// Starts the workload's server and waits for its first 200 on `POST
/// /query`; the elapsed time is one `setup_s` sample.
fn start_server(
    orex: &Path,
    spec: &'static Spec,
    out: &Path,
) -> Result<(ServerProc, Duration), String> {
    let dataset = spec.datasets[0]
        .name
        .map_or(String::new(), |d| format!(",\"dataset\":\"{d}\""));
    let probe = request_bytes(
        "POST",
        "/query",
        Some(&format!(
            "{{\"query\":\"data\"{dataset},\"k\":{}}}",
            workload::K
        )),
    );
    let begun = Instant::now();
    let mut server = ServerProc::spawn(orex, spec, out)?;
    loop {
        server.check_alive()?;
        match Client::new(server.addr).round_trip(&probe) {
            Ok(reply) if reply.status == 200 => break,
            // An `orex route` answers 503 until a worker is healthy.
            Ok(reply) if reply.status != 503 => {
                return Err(format!(
                    "readiness probe answered {}: {}",
                    reply.status, reply.body
                ));
            }
            _ => {}
        }
        if begun.elapsed() > READY_LIMIT {
            return Err(format!("server not ready after {READY_LIMIT:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let setup = begun.elapsed();
    server.pids(); // learn the workers while their parent is alive
    Ok((server, setup))
}

/// Checks every fill-phase response and compares the sampled ones with
/// the in-process reference. Returns the digest of all top-k ids.
fn validate_fill(
    plan: &Plan,
    reference: &Reference,
    lanes: &[Lane],
    report: &mut Report,
) -> String {
    let mut digest = Digest::new();
    // In sequence order, whichever connection carried the iteration.
    let mut observed: Vec<&Observed> = lanes.iter().flat_map(|l| &l.observed).collect();
    observed.sort_by_key(|obs| obs.index);
    let mut tops: Vec<(&Observed, Vec<Option<TopK>>)> = Vec::new();
    for obs in observed {
        let at = format!("fill iteration {}", obs.index);
        let mut parsed = Vec::new();
        for (op, body) in &obs.bodies {
            if *op == Op::Explain {
                if first_u64(body, "nodes").unwrap_or(0) == 0 {
                    report.fail(format!("{at}: explain returned an empty subgraph"));
                }
                parsed.push(None);
                continue;
            }
            match TopK::parse(body).and_then(|top| top.check_shape().map(|()| top)) {
                Ok(top) => {
                    top.nodes.iter().for_each(|&n| digest.add(n));
                    parsed.push(Some(top));
                }
                Err(why) => {
                    report.fail(format!("{at}: {} response: {why}", op.name()));
                    parsed.push(None);
                }
            }
        }
        tops.push((obs, parsed));
    }

    let mut distinct = HashSet::new();
    let mut chains = 0;
    for (obs, parsed) in &tops {
        let fresh =
            distinct.len() < SAMPLED_QUERIES && distinct.insert((obs.it.dataset, obs.it.key));
        let chain = obs.bodies.len() > 1 && chains < SAMPLED_CHAINS;
        if !(fresh || chain) || parsed.is_empty() {
            continue;
        }
        let keyword = plan.keyword(obs.it);
        let at = format!("iteration {} ({keyword:?})", obs.index);
        let mut session = match reference.start(obs.it.dataset, keyword) {
            Ok(session) => session,
            Err(why) => {
                report.fail(format!("{at}: {why}"));
                continue;
            }
        };
        let Some(mut top) = parsed[0].clone() else {
            continue;
        };
        if let Err(why) = top.matches(&session.top_k(workload::K)) {
            report.fail(format!("{at}: query: {why}"));
        }
        if !chain {
            continue;
        }
        chains += 1;
        for ((op, body), parsed) in obs.bodies.iter().zip(parsed).skip(1) {
            let checked = match op {
                Op::Explain => session
                    .explain(node_ids(&top.nodes[..1])[0])
                    .map_err(|e| e.to_string())
                    .and_then(|e| {
                        let want = (e.node_count() as u64, e.edge_count() as u64);
                        let got = (first_u64(body, "nodes"), first_u64(body, "edges"));
                        if got == (Some(want.0), Some(want.1)) {
                            Ok(())
                        } else {
                            Err(format!(
                                "subgraph {got:?} differs from the reference {want:?}"
                            ))
                        }
                    }),
                _ => session
                    .feedback(&node_ids(&feedback_objects(&top)))
                    .map_err(|e| e.to_string())
                    .and_then(|_| {
                        let got = parsed.clone().ok_or("malformed response")?;
                        got.matches(&session.top_k(workload::K))?;
                        top = got;
                        Ok(())
                    }),
            };
            if let Err(why) = checked {
                report.fail(format!("{at}: {}: {why}", op.name()));
                break;
            }
        }
    }
    digest.hex()
}

/// Cache-hit queries, round-robin over the pools from every client
/// connection, until every session table behind the server is full:
/// `server_peak_rss_mb` then reads a steady state no matter how many
/// requests the timed window fits in.
fn top_up_sessions(plan: &Plan, addr: SocketAddr, report: &mut Report) {
    let tables = if plan.spec.routed { FLEET_WORKERS } else { 1 };
    let one_client = |first: usize| {
        let mut client = Client::new(addr);
        let (mut attempted, mut failures) = (0, Vec::new());
        for n in (first..6 * MAX_SESSIONS * tables).step_by(CLIENTS) {
            if attempted % 8 == 0 {
                let live = scrape_metrics(addr)
                    .map(|text| metric_values(&text, "orex_server_sessions_live"))
                    .unwrap_or_default();
                if live.len() == tables && live.iter().all(|&v| v >= MAX_SESSIONS as f64) {
                    return (attempted, failures);
                }
            }
            let body = plan.query_body(plan.pair(n % plan.pairs()));
            attempted += 1;
            let checked = client
                .round_trip(&request_bytes("POST", "/query", Some(&body)))
                .map_err(|e| e.to_string())
                .and_then(|r| match r.status {
                    200 => TopK::parse(&r.body)?.check_shape(),
                    status => Err(format!("status {status}")),
                });
            if let Err(why) = checked {
                failures.push(format!("session top-up query {n}: {why}"));
            }
        }
        failures.push("session tables never filled during the top-up".into());
        (attempted, failures)
    };
    let outcomes: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || one_client(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a top-up thread panicked"))
            .collect()
    });
    for (attempted, failures) in outcomes {
        report.attempted += attempted;
        failures.into_iter().for_each(|why| report.fail(why));
    }
}

fn scrape_metrics(addr: SocketAddr) -> Result<String, String> {
    let reply = Client::new(addr)
        .round_trip(&request_bytes("GET", "/metrics", None))
        .map_err(|e| format!("scraping /metrics: {e}"))?;
    match reply.status {
        200 => Ok(reply.body),
        status => Err(format!("scraping /metrics: status {status}")),
    }
}

fn check_cached_rule(spec: &Spec, window: &Window, phase: &str, report: &mut Report) {
    let share = window.cached_share;
    let violated = match spec.cached {
        CachedRule::AtLeast(min) => share < min,
        CachedRule::AtMost(max) => share > max,
        CachedRule::Any => false,
    };
    if violated {
        report.fail(format!(
            "{phase}: {:.1}% of query responses were cached, outside {:?}: the run is invalid",
            share * 100.0,
            spec.cached
        ));
    }
}

/// The per-layer half: an untraced and a traced window of the same
/// traffic around two `/metrics` scrapes, then the in-process replay.
fn per_layer(
    opts: &Options,
    plan: &Plan,
    reference: &Reference,
    addr: SocketAddr,
    cursor: &AtomicU64,
    report: &mut Report,
) -> Result<(), String> {
    let spec = plan.spec;
    let half = Duration::from_secs_f64(opts.seconds / 2.0);
    let plain = Window::of(&run_phase(
        plan,
        addr,
        cursor,
        Until::Deadline(Instant::now() + half),
        None,
        false,
    ));
    report.absorb(&plain, "untraced");
    let before = scrape_metrics(addr)?;
    let epoch = Instant::now();
    let lanes = run_phase(
        plan,
        addr,
        cursor,
        Until::Deadline(epoch + half),
        Some(epoch),
        false,
    );
    let after = scrape_metrics(addr)?;
    let traced = Window::of(&lanes);
    report.absorb(&traced, "traced");
    check_cached_rule(spec, &traced, "traced", report);

    let mut trace = Trace::new(epoch);
    for lane in lanes {
        trace.merge(lane.trace.expect("traced lanes carry a trace"));
    }
    let client_layers = trace.layers();
    let replayed = replay::replay(plan, reference)?;
    let replay_layers = replayed.trace.layers();
    let span_p50 = |layers: &BTreeMap<&str, trace::Layer>, name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| percentile(&l.durations_us, 50.0))
    };

    let m = &mut report.metrics;
    for op in Op::ALL {
        let handler = format!("orex_server_{}_us", op.name());
        let handler_us = histogram_mean_between(&before, &after, &handler);
        let client_ms = mean(&traced.latency_ms[&op]);
        let (residual, handler_name) = match op {
            Op::Query => (
                "transport.residual_query_ms",
                "server.handler_query_us_mean",
            ),
            Op::Explain => (
                "transport.residual_explain_ms",
                "server.handler_explain_us_mean",
            ),
            Op::Feedback => (
                "transport.residual_feedback_ms",
                "server.handler_feedback_us_mean",
            ),
        };
        m.insert(handler_name, handler_us);
        let seen = !traced.latency_ms[&op].is_empty();
        m.insert(
            residual,
            if seen {
                client_ms - handler_us / 1e3
            } else {
                0.0
            },
        );
    }
    m.insert("client.write_us", span_p50(&client_layers, "client.write"));
    m.insert(
        "client.first_byte_wait_us",
        span_p50(&client_layers, "client.first_byte_wait"),
    );
    m.insert("client.read_us", span_p50(&client_layers, "client.read"));
    m.insert("client.query_p95_ms", traced.percentile(Op::Query, 95.0));
    m.insert("client.query_p99_ms", traced.percentile(Op::Query, 99.0));
    m.insert(
        "client.explain_p50_ms",
        traced.percentile(Op::Explain, 50.0),
    );
    m.insert(
        "client.explain_p95_ms",
        traced.percentile(Op::Explain, 95.0),
    );
    m.insert(
        "client.feedback_p50_ms",
        traced.percentile(Op::Feedback, 50.0),
    );
    m.insert(
        "client.feedback_p95_ms",
        traced.percentile(Op::Feedback, 95.0),
    );
    m.insert("client.loop_p95_ms", percentile(&traced.loops_ms, 95.0));
    m.insert("server.cache_hit_share", traced.cached_share);
    for (metric, span) in [
        ("server.parse_us", "server.parse"),
        ("server.serialize_us", "server.serialize"),
        ("server.cache_get_us", "server.cache_get"),
        ("server.cache_put_us", "server.cache_put"),
        ("server.session_insert_us", "server.session_insert"),
        ("server.session_get_us", "server.session_get"),
        ("server.session_update_us", "server.session_update"),
        ("core.session_start_us", "core.session_start"),
        ("core.snapshot_us", "core.snapshot"),
        ("core.session_resume_us", "core.session_resume"),
        ("core.top_k_us", "core.top_k"),
        ("core.feedback_us", "core.feedback"),
        ("ir.query_vector_us", "ir.query_vector"),
        ("explain.explain_us", "explain.explain"),
        ("explain.summarize_us", "explain.summarize"),
    ] {
        m.insert(metric, span_p50(&replay_layers, span));
    }
    let steps = &replayed.feedback_steps;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    m.insert(
        "core.feedback.rank_us",
        median(steps.iter().map(|s| us(s.rank_time)).collect()),
    );
    m.insert(
        "core.feedback.explain_us",
        median(
            steps
                .iter()
                .map(|s| us(s.explain_construction_time + s.explain_adjustment_time))
                .collect(),
        ),
    );
    m.insert(
        "core.feedback.rank_iterations",
        median(steps.iter().map(|s| s.rank_iterations as f64).collect()),
    );
    m.insert(
        "reformulate.reformulate_us",
        median(steps.iter().map(|s| us(s.reformulate_time)).collect()),
    );
    let sizes = &replayed.explanations;
    m.insert(
        "explain.subgraph_nodes",
        median(sizes.iter().map(|e| e.nodes as f64).collect()),
    );
    m.insert(
        "explain.subgraph_edges",
        median(sizes.iter().map(|e| e.edges as f64).collect()),
    );
    m.insert(
        "explain.fixpoint_iterations",
        median(sizes.iter().map(|e| e.fixpoint_iterations as f64).collect()),
    );
    for (name, value) in replay::battery(plan, reference)? {
        m.insert(name, value);
    }

    let delta = |name: &str| metric_sum(&after, name) - metric_sum(&before, name);
    let (mut overhead_ms, mut reuse) = (0.0, 0.0);
    if spec.routed {
        let handled: f64 = Op::ALL
            .iter()
            .map(|op| delta(&format!("orex_server_{}_us_count", op.name())))
            .sum();
        let handler_us: f64 = Op::ALL
            .iter()
            .map(|op| delta(&format!("orex_server_{}_us_sum", op.name())))
            .sum();
        if handled > 0.0 {
            overhead_ms = (delta("orex_router_request_us_sum") - handler_us) / handled / 1e3;
        }
        let served = delta("orex_server_requests");
        if served > 0.0 {
            reuse = delta("orex_server_keepalive_reuses") / served;
        }
    }
    m.insert("router.overhead_ms", overhead_ms);
    m.insert("router.retries", delta("orex_router_retries"));
    m.insert("router.conn_reuse_share", reuse);
    m.insert("datagen.generate_s", reference.generate.as_secs_f64());
    m.insert("core.system_build_s", reference.system_build.as_secs_f64());
    let (plain_p50, traced_p50) = (
        plain.percentile(Op::Query, 50.0),
        traced.percentile(Op::Query, 50.0),
    );
    m.insert(
        "trace.overhead_share",
        if plain_p50 > 0.0 {
            (traced_p50 - plain_p50) / plain_p50
        } else {
            0.0
        },
    );
    let self_ns = replayed.trace.self_times_ns();
    let roots = replayed
        .trace
        .spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.parent.is_none());
    let (unattributed, total) =
        roots.fold((0, 0), |(u, t), (s, own)| (u + own, t + s.duration_ns()));
    m.insert(
        "replay.unattributed_share",
        if total > 0 {
            unattributed as f64 / total as f64
        } else {
            0.0
        },
    );

    report.layers = vec![("client", client_layers), ("replay", replay_layers)];
    trace.merge(replayed.trace);
    let path = opts.out.join(format!("trace_{}.json", spec.name));
    trace
        .write_json(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One workload, start to finish.
fn run_workload(opts: &Options, spec: &'static Spec, orex: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let begun = Instant::now();
    let repeats = if opts.end_to_end() { SETUP_REPEATS } else { 1 };
    let mut setups = Vec::new();
    let mut server: Option<ServerProc> = None;
    for _ in 0..repeats {
        if let Some(previous) = server.take() {
            if let Err(why) = previous.stop_gracefully() {
                report.fail(why);
            }
        }
        let (started, setup) = start_server(orex, spec, &opts.out)?;
        setups.push(setup.as_secs_f64());
        server = Some(started);
    }
    let mut server = server.expect("at least one server was started");
    let addr = server.addr;
    eprintln!(
        "[perf] {}: {repeats} setup(s) took {:.2?}",
        spec.name,
        begun.elapsed()
    );
    let mut lap = Instant::now();
    let mut phase_done = |phase: &str| {
        eprintln!("[perf] {}: {phase} took {:.2?}", spec.name, lap.elapsed());
        lap = Instant::now();
    };

    let reference = Reference::build(spec)?;
    let plan = Plan::new(spec, opts.seed, &reference.candidates(spec))?;
    let cursor = AtomicU64::new(0);
    phase_done("building the in-process reference");

    let fill = Until::Index(spec.fill_iterations as u64);
    let lanes = run_phase(&plan, addr, &cursor, fill, None, true);
    report.absorb(&Window::of(&lanes), "fill");
    report.digest = validate_fill(&plan, &reference, &lanes, &mut report);
    drop(lanes);
    phase_done("fill and its validation");
    top_up_sessions(&plan, addr, &mut report);
    phase_done("session top-up");
    if opts.seed == 42 {
        let expected = serde_json::from_str(include_str!("expected.json"))
            .map_err(|e| format!("expected.json: {e}"))?;
        let want = expected
            .get(spec.name)
            .and_then(|v| v.as_str())
            .unwrap_or("");
        if want != report.digest {
            report.fail(format!(
                "results_digest {} differs from expected.json's {want:?}",
                report.digest
            ));
        }
    }
    server.check_alive()?;

    // The reference is idle memory from here on; return it before the
    // timed window unless the replay still needs it.
    let reference = opts.per_layer().then_some(reference);

    if opts.end_to_end() {
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let lanes = run_phase(&plan, addr, &cursor, Until::Deadline(deadline), None, false);
        let window = Window::of(&lanes);
        report.absorb(&window, "measure");
        check_cached_rule(spec, &window, "measure", &mut report);
        let m = &mut report.metrics;
        m.insert("setup_s", median(setups));
        m.insert("throughput_rps", window.throughput_rps);
        m.insert("query_p50_ms", window.percentile(Op::Query, 50.0));
        m.insert("loop_p50_ms", percentile(&window.loops_ms, 50.0));
        m.insert("server_peak_rss_mb", server.peak_rss_mb()?);
        server.check_alive()?;
        phase_done("measure window");
    }
    if let Some(reference) = &reference {
        per_layer(opts, &plan, reference, addr, &cursor, &mut report)?;
        server.check_alive()?;
        phase_done("untraced and traced windows, replay and battery");
    }
    if let Err(why) = server.stop_gracefully() {
        report.fail(why);
    }
    phase_done("shutdown");
    Ok(report)
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

/// The contract's result line.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(*value),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `(key, value)` facts about the machine and build, recorded with
/// every result.
fn environment(seed: u64) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        ("seed", seed.to_string()),
    ]
}

fn print_report(spec: &Spec, report: &Report) {
    for (name, value) in &report.metrics {
        println!(
            "{:<14} {name:<34} {:>16} {}",
            spec.name,
            number(*value),
            unit_of(name)
        );
    }
    if !report.layers.is_empty() {
        println!(
            "{:<14} self time per layer (span, count, total self ms, p50 us):",
            spec.name
        );
    }
    for (part, layers) in &report.layers {
        for (name, layer) in layers {
            println!(
                "{:<14}   {part:<7} {name:<26} {:>7} {:>12.3} {:>12.1}",
                spec.name,
                layer.durations_us.len(),
                layer.self_ns as f64 / 1e6,
                percentile(&layer.durations_us, 50.0)
            );
        }
    }
    println!("{:<14} results_digest {}", spec.name, report.digest);
    for why in &report.failures {
        println!("{:<14} FAILURE {why}", spec.name);
    }
}

fn write_results(
    opts: &Options,
    spec: &Spec,
    report: &Report,
    env: &[(&str, String)],
) -> Result<(), String> {
    let object = |pairs: Vec<(String, serde_json::Value)>| {
        let mut map = serde_json::Map::new();
        for (key, value) in pairs {
            map.insert(key, value);
        }
        serde_json::Value::Object(map)
    };
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value)| {
            let entry = serde_json::json!({ "value": *value, "unit": unit_of(name) });
            (name.to_string(), entry)
        })
        .collect();
    let layers = report
        .layers
        .iter()
        .flat_map(|(part, layers)| {
            layers.iter().map(move |(name, layer)| {
                serde_json::json!({
                    "trace": *part,
                    "span": *name,
                    "count": layer.durations_us.len() as u64,
                    "self_ms": layer.self_ns as f64 / 1e6,
                    "p50_us": percentile(&layer.durations_us, 50.0),
                })
            })
        })
        .collect();
    let failures = report
        .failures
        .iter()
        .map(|f| serde_json::Value::from(f.as_str()))
        .collect();
    let document = serde_json::json!({
        "workload": spec.name,
        "seconds": opts.seconds,
        "environment": object(env.iter().map(|(k, v)| (k.to_string(), serde_json::Value::from(v.as_str()))).collect()),
        "correct": report.failures.is_empty(),
        "attempted": report.attempted,
        "failed": report.failed,
        "results_digest": report.digest.as_str(),
        "metrics": object(metrics),
        "layers": serde_json::Value::Array(layers),
        "failures": serde_json::Value::Array(failures),
    });
    let path = opts.out.join(format!("results_{}.json", spec.name));
    let text = serde_json::to_string_pretty(&document).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs every selected workload once; returns the reports in order.
fn run_set(opts: &Options, orex: &Path, env: &[(&str, String)]) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    for spec in &opts.workloads {
        eprintln!("[perf] {}: {}", spec.name, spec.why);
        let report = run_workload(opts, spec, orex)?;
        print_report(spec, &report);
        write_results(opts, spec, &report, env)?;
        println!("{}", result_line(&report));
        reports.push(report);
    }
    Ok(reports)
}

/// Two full end-to-end sets back to back: every metric of every
/// workload must repeat within its own bound.
fn repeat_check(opts: &Options, orex: &Path, env: &[(&str, String)]) -> Result<bool, String> {
    let first = run_set(opts, orex, env)?;
    let second = run_set(opts, orex, env)?;
    let mut pass = first.iter().chain(&second).all(|r| r.failures.is_empty());
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for ((spec, a), b) in opts.workloads.iter().zip(&first).zip(&second) {
        for metric in END_TO_END {
            let (x, y) = (a.metrics[metric.name], b.metrics[metric.name]);
            // Positive when the second run is the worse one.
            let diff = match metric.better {
                Better::Lower => (y - x) / x.abs(),
                Better::Higher => (x - y) / x.abs(),
            };
            let ok = diff.abs() <= metric.bound;
            pass &= ok;
            println!(
                "{:<14} {:<20} {x:>14.4} {y:>14.4} {:>+8.2}% {:>6.0}% {}",
                spec.name,
                metric.name,
                diff * 100.0,
                metric.bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(pass)
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut opts = Options::parse(args)?;
    let orex = orex_binary()?;
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("creating {}: {e}", opts.out.display()))?;
    let env = environment(opts.seed);
    for (key, value) in &env {
        eprintln!("[perf] {key}: {value}");
    }
    if opts.repeat_check {
        opts.trace = Some(false);
        return repeat_check(&opts, &orex, &env);
    }
    let reports = run_set(&opts, &orex, &env)?;
    Ok(reports.iter().all(|r| r.failures.is_empty()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("perf: {why}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, five directories up.
    const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

    fn better(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = serde_json::from_str(BENCHMARK).unwrap();
        let field = |v: &serde_json::Value, key: &str| {
            v.get(key).and_then(|f| f.as_str()).unwrap().to_string()
        };
        let listed: Vec<_> = doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .collect();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), better(metric.better));
            assert_eq!(
                entry.get("bound").and_then(|b| b.as_f64()),
                Some(metric.bound)
            );
        }
        let listed: Vec<_> = doc
            .get("per_layer")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .collect();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, (name, unit, direction)) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), *name);
            assert_eq!(field(entry, "unit"), *unit);
            assert_eq!(field(entry, "better"), better(*direction));
        }
        let listed: Vec<_> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .collect();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, spec) in listed.iter().zip(WORKLOADS) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "why"), spec.why);
            assert!(spec.why.len() <= 200);
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut report = Report::default();
        report.metrics.insert("setup_s", 0.8127);
        report.metrics.insert("query_p50_ms", f64::NAN);
        report.attempted = 1000;
        let line = result_line(&report);
        let doc = serde_json::from_str(&line).unwrap();
        let keys: Vec<_> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(1000));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        report.fail("a finding".into());
        assert!(result_line(&report).starts_with("{\"correct\": false"));
    }

    #[test]
    fn options_reject_unknown_workloads_and_trace_values() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(Options::parse(&args(&["--workload", "nope"])).is_err());
        assert!(Options::parse(&args(&["--trace", "2"])).is_err());
        assert!(Options::parse(&args(&["--seconds", "0"])).is_err());
        let o = Options::parse(&args(&[
            "--workload",
            "live_rank",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
            "--out",
            "x",
        ]))
        .unwrap();
        assert_eq!(
            (o.workloads[0].name, o.seed, o.trace),
            ("live_rank", 7, Some(true))
        );
        assert!(o.per_layer() && !o.end_to_end());
    }
}
