//! The one HTTP/1.1 front end behind every orex listener.
//!
//! Everything between a [`TcpListener`] and a route function lives
//! here, once, for both the worker server and the router: the accept
//! loop and its stop flags, the connection cap with its inline `503`,
//! the keep-alive/pipelining connection loop with one
//! parse-error→status table, the drain protocol, and the per-request
//! envelope (trace adoption, metrics, the access record, trace
//! archiving). A caller supplies a [`Surface`] (the names it reports
//! under), [`Limits`], and the route function — nothing else differs
//! between the two binaries.
//!
//! Connection model: one scoped thread per accepted connection, at
//! most `max_connections` of them; past the cap a connection is
//! answered `503` + `Retry-After` on the accept thread. A connection
//! thread blocks in `read` between requests, so idle keep-alive
//! connections cost a parked thread and nothing else. *Handlers* are
//! bounded separately: with `Limits::handlers = Some(n)` a parsed
//! request is handed to one of `n` handler threads, which routes it and
//! writes the response while the connection thread waits, so at most
//! `n` route functions run at a time however many connections are
//! open. With `None` the route function runs on the connection thread
//! and the connection cap is the only gate. Shutdown stops accepting,
//! lets every connection finish the response it is working on, and
//! joins the threads.

use crate::http::{is_timeout, read_request, ParseError, Request, Response};
use crate::traces::TraceArchive;
use orex_telemetry::{Counter, HistogramHandle, TraceContext};
use std::io::{self, BufRead, BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// How often an idle connection wakes from `read` to observe the drain
/// flag and its idle budget.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// The names one front end reports under. Span names and log targets
/// are `&'static str` in the telemetry API, so the two surfaces are
/// spelled out rather than formatted from the prefix per request.
pub struct Surface {
    /// Metric prefix: `<prefix>.requests`, `<prefix>.request_us`, ...
    prefix: &'static str,
    /// Root span of every request's trace.
    request_span: &'static str,
    /// Target of the one access record every response gets.
    access_target: &'static str,
    /// Target of the WARN a slow request additionally gets.
    slow_target: &'static str,
}

impl Surface {
    /// The worker server: `server.*`.
    pub const SERVER: Surface = Surface {
        prefix: "server",
        request_span: "server.request",
        access_target: "server.access",
        slow_target: "server.slow",
    };
    /// The router: `router.*`.
    pub const ROUTER: Surface = Surface {
        prefix: "router",
        request_span: "router.request",
        access_target: "router.access",
        slow_target: "router.slow",
    };
}

/// The bounds a front end enforces on its peers and on itself.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Live-connection cap; connections past it get `503` +
    /// `Retry-After` instead of a thread.
    pub max_connections: usize,
    /// `Some(n)`: route functions run on `n` dedicated handler threads
    /// (minimum 1), which bounds how many run at once and keeps their
    /// allocations on a fixed set of threads — per-thread allocator
    /// arenas otherwise spread a handler's large buffers over as many
    /// arenas as there are connections (measured: +14 % peak RSS on the
    /// `cache_hot` benchmark workload). `None`: each request is routed
    /// on its connection's thread, for route functions that mostly wait
    /// on someone else.
    pub handlers: Option<usize>,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Budget for a connection's first request to start arriving, for
    /// reading the rest of any request once it has, and for writes.
    pub io_timeout: Duration,
    /// How long a kept-alive connection may sit idle between requests.
    pub keepalive_idle: Duration,
    /// Requests served on one connection before it is closed.
    pub keepalive_requests: u64,
    /// Requests at least this slow additionally log a WARN.
    pub slow_request: Duration,
}

/// What a route function adds to its request's access record.
#[derive(Default)]
pub struct AccessFields {
    /// Dataset the request addressed (even when unknown — the access
    /// log carries what the client asked for).
    pub dataset: Option<String>,
    /// `Some(true)` when the result cache satisfied the query.
    pub cache_hit: Option<bool>,
    /// `Some(true)` when precomputed vectors were combined; `Some(false)`
    /// when a precomputed store was consulted but a live iteration ran.
    pub precompute_hit: Option<bool>,
}

/// Signals a running front end to stop accepting and drain.
#[derive(Clone, Default)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests shutdown; the serving `run` returns after draining.
    pub fn shutdown(&self) {
        // Release pairs with the accept loop's Acquire load: everything
        // the requester did before asking for shutdown is visible to the
        // drain path. SeqCst would buy nothing — there is no multi-flag
        // total order to preserve here.
        self.stop.store(true, Ordering::Release);
    }

    /// True once shutdown has been requested through this handle.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Set by the process signal handler; observed by every accept loop.
static SIGNAL_STOP: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT/SIGTERM handlers that request graceful shutdown of
/// every running front end in the process. Safe to call more than once.
/// No-op on non-Unix platforms.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        // Async-signal-safety: the handler only stores to an AtomicBool.
        extern "C" fn on_signal(_sig: i32) {
            // ORDERING: the flag is the only communication — nothing is
            // published under it, and a signal handler must not need a
            // full fence anyway; Release pairs with the accept loop's
            // Acquire for ordinary flag visibility.
            SIGNAL_STOP.store(true, Ordering::Release);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal(2)` is async-signal-safe to install at any
        // time; the handler is an `extern "C" fn` that only performs an
        // atomic store (itself async-signal-safe, no allocation, no
        // locks). Replacing a previously installed handler is the
        // documented idempotent behaviour this function promises.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// The public route set — first path segment and the method it
/// answers — shared so a worker and the router in front of it agree on
/// `404` versus `405` for everything neither routes.
const ROUTES: [(&str, &str); 10] = [
    ("healthz", "GET"),
    ("metrics", "GET"),
    ("query", "POST"),
    ("datasets", "GET"),
    ("explain", "GET"),
    ("feedback", "POST"),
    ("trace", "GET"),
    ("logs", "GET"),
    ("profile", "GET"),
    ("debug", "GET"),
];

/// The response for a request no route arm matched: `405` when the
/// path names a known route under another method, `404` otherwise
/// (unknown path, or a known route with the wrong shape).
pub fn unrouted(method: &str, segments: &[&str]) -> Response {
    let known = segments
        .first()
        .and_then(|first| ROUTES.iter().find(|(name, _)| name == first));
    match known {
        Some((_, allowed)) if *allowed != method => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such route"),
    }
}

/// Serves `listener` until `stop` (or an installed signal handler)
/// requests shutdown, then drains and returns: every parsed request is
/// passed to `route` inside the request envelope, and completed spans
/// are absorbed into `traces`.
pub fn serve<R>(
    listener: &TcpListener,
    surface: &Surface,
    limits: &Limits,
    stop: &ShutdownHandle,
    traces: &TraceArchive,
    route: R,
) -> io::Result<()>
where
    R: Fn(&Request, &mut AccessFields) -> Response + Sync,
{
    let front = Frontend {
        surface,
        limits,
        traces,
        route,
        meters: Meters::new(surface.prefix),
        live: AtomicUsize::new(0),
        draining: AtomicBool::new(false),
    };
    let (jobs, queue) = channel::<Job>();
    let queue = Mutex::new(queue);
    // The scope joins every thread before it returns, which is the
    // drain: idle connections observe the flag within one `IDLE_POLL`,
    // busy ones after the response they are working on, and handler
    // threads once the last connection has dropped its queue handle.
    std::thread::scope(|scope| {
        let jobs = match limits.handlers {
            Some(handlers) => {
                for _ in 0..handlers.max(1) {
                    std::thread::Builder::new()
                        .name(format!("orex-{}-handler", surface.prefix))
                        .spawn_scoped(scope, || front.handler_loop(&queue))?;
                }
                Some(jobs)
            }
            None => None,
        };
        let result = front.accept_loop(scope, listener, stop, jobs);
        // ORDERING: Release pairs with the connection loops' Acquire.
        front.draining.store(true, Ordering::Release);
        result
    })
}

/// One parsed request on its way to a handler thread.
struct Job {
    request: Request,
    /// When the request was in hand; queue wait counts as latency.
    start: Instant,
    keep_alive: bool,
    /// The connection's write half, lent to the handler so the response
    /// leaves from the thread that built it — a second thread wake-up
    /// before the write is measurable when every core is ranking.
    writer: TcpStream,
    /// Where the connection thread waits to get `writer` back, with
    /// whether the response was written.
    done: Sender<(TcpStream, bool)>,
}

/// Pre-resolved handles for the metrics every request touches.
struct Meters {
    connections: Counter,
    overload_503: Counter,
    requests: Counter,
    keepalive_reuses: Counter,
    keepalive_idle_closed: Counter,
    request_timeouts: Counter,
    request_us: HistogramHandle,
}

impl Meters {
    fn new(prefix: &str) -> Self {
        let telemetry = orex_telemetry::global();
        let counter = |name: &str| telemetry.counter(&format!("{prefix}.{name}"));
        Self {
            connections: counter("connections"),
            overload_503: counter("overload_503"),
            requests: counter("requests"),
            keepalive_reuses: counter("keepalive_reuses"),
            keepalive_idle_closed: counter("keepalive_idle_closed"),
            request_timeouts: counter("request_timeouts"),
            request_us: telemetry.histogram(&format!("{prefix}.request_us")),
        }
    }
}

/// Releases a connection's slot under the cap on every exit path.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // ORDERING: occupancy statistic, pairs with the accept loop's
        // Relaxed load; no data is published under this counter.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

struct Frontend<'a, R> {
    surface: &'a Surface,
    limits: &'a Limits,
    traces: &'a TraceArchive,
    route: R,
    meters: Meters,
    /// Connections that currently own a thread.
    live: AtomicUsize,
    /// Set when the accept loop exits: connections close instead of
    /// waiting for another request.
    draining: AtomicBool,
}

impl<R> Frontend<'_, R>
where
    R: Fn(&Request, &mut AccessFields) -> Response + Sync,
{
    fn accept_loop<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        listener: &TcpListener,
        stop: &ShutdownHandle,
        jobs: Option<Sender<Job>>,
    ) -> io::Result<()> {
        // Acquire pairs with the Release stores in `shutdown()` and the
        // signal handler; either flag stopping is sufficient and they
        // never coordinate with each other.
        while !stop.is_shutdown() && !SIGNAL_STOP.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.meters.connections.incr();
                    // ORDERING: occupancy gate, not a synchronization
                    // point — Relaxed suffices; an off-by-a-few race at
                    // the cap only shifts which connection sees the 503.
                    if self.live.load(Ordering::Relaxed) >= self.limits.max_connections {
                        self.refuse_overloaded(stream);
                        continue;
                    }
                    // ORDERING: same occupancy gate as the load above.
                    self.live.fetch_add(1, Ordering::Relaxed);
                    let slot = Slot(&self.live);
                    let jobs = jobs.clone();
                    // A failed spawn drops the closure, and with it the
                    // stream and the slot.
                    let _ = std::thread::Builder::new()
                        .name(format!("orex-{}-conn", self.surface.prefix))
                        .spawn_scoped(scope, move || {
                            let _slot = slot;
                            self.connection_loop(stream, jobs);
                        });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // orex::allow(ORX005): the listener is nonblocking so
                    // this accept loop must pace its own polling to keep
                    // observing the stop flags; 2ms bounds shutdown
                    // latency without burning a core.
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Answers an over-cap connection with `503` + `Retry-After`
    /// without giving it a thread. The write happens on the accept
    /// thread but is one small buffer under a write timeout.
    fn refuse_overloaded(&self, mut stream: TcpStream) {
        self.meters.overload_503.incr();
        let response = Response::error(503, "at connection capacity, retry shortly")
            .with_header("Retry-After", "1");
        self.account(
            None,
            &response,
            &AccessFields::default(),
            Duration::ZERO,
            None,
        );
        let _ = stream.set_write_timeout(Some(self.limits.io_timeout));
        let _ = stream.set_nodelay(true);
        let _ = response.write_to(&mut stream, false);
        // Unread request bytes at close time force an RST that can destroy
        // the 503 in flight; send our FIN, then drain what the client
        // already wrote (bounded, short timeout) so the close is graceful.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
        let mut sink = [0u8; 4096];
        for _ in 0..16 {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    /// Serves one connection: requests are read in order off one
    /// buffered reader (so pipelined requests drain back to back) and
    /// answered in the same order, until the client closes, a protocol
    /// error or limit ends the connection, or the front end drains.
    fn connection_loop(&self, stream: TcpStream, jobs: Option<Sender<Job>>) {
        let limits = self.limits;
        let _ = stream.set_write_timeout(Some(limits.io_timeout));
        // A response is one complete write; holding it back for more
        // bytes to coalesce with only adds the peer's delayed-ACK timer.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        // Both halves are one socket, so timeouts set through `writer`
        // govern reads through `reader`.
        let mut writer = stream;
        let mut reader = BufReader::new(read_half);
        let mut served = 0u64;
        let mut waiting_since = Instant::now();
        loop {
            // ORDERING: Acquire pairs with the drain flag's Release store.
            if self.draining.load(Ordering::Acquire) {
                return;
            }
            // Wait for the next request's first byte in short slices;
            // client idle time is spent here, outside the request clock.
            if reader.buffer().is_empty() {
                let _ = writer.set_read_timeout(Some(IDLE_POLL));
                match reader.fill_buf() {
                    Ok([]) => return, // client closed
                    Ok(_) => {}
                    Err(e) if is_timeout(&e) => {
                        let budget = if served == 0 {
                            limits.io_timeout
                        } else {
                            limits.keepalive_idle
                        };
                        if waiting_since.elapsed() < budget {
                            continue;
                        }
                        if served == 0 {
                            self.reject(&mut writer, &ParseError::Idle);
                        } else {
                            self.meters.keepalive_idle_closed.incr();
                        }
                        return;
                    }
                    Err(_) => return,
                }
            }
            let _ = writer.set_read_timeout(Some(limits.io_timeout));
            let request = match read_request(&mut reader, limits.max_body_bytes) {
                Ok(request) => request,
                Err(e) => {
                    self.reject(&mut writer, &e);
                    return;
                }
            };
            let start = Instant::now();
            if served > 0 {
                // A second (or later) request on one connection is the
                // keep-alive win the transport layer exists for.
                self.meters.keepalive_reuses.incr();
            }
            let keep_alive = request.keep_alive() && served + 1 < limits.keepalive_requests;
            let written = match &jobs {
                None => self
                    .exchange(&request, start)
                    .write_to(&mut writer, keep_alive)
                    .is_ok(),
                Some(jobs) => {
                    // One channel per request: if the handler dies with
                    // the job, its sender goes too and `recv` returns.
                    let (done, finished) = channel();
                    let job = Job {
                        request,
                        start,
                        keep_alive,
                        writer,
                        done,
                    };
                    if jobs.send(job).is_err() {
                        return;
                    }
                    match finished.recv() {
                        Ok((returned, written)) => {
                            writer = returned;
                            written
                        }
                        Err(_) => return,
                    }
                }
            };
            if !written || !keep_alive {
                return;
            }
            served += 1;
            waiting_since = Instant::now();
        }
    }

    /// One handler thread: routes queued requests until every
    /// connection thread and the accept loop have dropped the queue.
    fn handler_loop(&self, queue: &Mutex<Receiver<Job>>) {
        loop {
            // Hold the lock only while waiting for a job, never while
            // running one, so handlers run concurrently. A poisoned
            // lock is recovered: the receiver's state lives in the
            // channel, not the guard.
            let job = match queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                // orex::allow(ORX009): the mutex exists solely to share
                // the receiver between handlers — blocking in recv()
                // while holding it is the intended serialization (only
                // one idle handler waits at a time), and the guard is
                // released before the job runs.
                .recv()
            {
                Ok(job) => job,
                Err(_) => return,
            };
            let Job {
                request,
                start,
                keep_alive,
                mut writer,
                done,
            } = job;
            let written = self
                .exchange(&request, start)
                .write_to(&mut writer, keep_alive)
                .is_ok();
            let _ = done.send((writer, written));
        }
    }

    /// Ends a connection whose next request could not be read: the one
    /// table from parse failure to status. No request is in hand, so
    /// the access record carries `-` placeholders, zero latency and no
    /// trace.
    fn reject(&self, writer: &mut TcpStream, error: &ParseError) {
        let response = match error {
            ParseError::ConnectionClosed => return,
            ParseError::Idle | ParseError::Io(_) => {
                self.meters.request_timeouts.incr();
                Response::error(408, "timed out reading request")
            }
            ParseError::BodyTooLarge(_) => Response::error(413, "request body exceeds limit"),
            ParseError::Malformed(why) => Response::error(400, why),
        };
        self.account(
            None,
            &response,
            &AccessFields::default(),
            Duration::ZERO,
            None,
        );
        let _ = response.write_to(writer, false);
    }

    /// The request envelope: routes one parsed request inside its root
    /// span and accounts for the response.
    ///
    /// A request carrying `X-Orex-Trace` joins the caller's trace
    /// instead of minting one: the request span becomes a remote-parent
    /// root and the propagated flags byte overrides the local sampling
    /// draw — the ingress edge of the fleet decides, every hop behind
    /// it obeys.
    fn exchange(&self, request: &Request, start: Instant) -> Response {
        let tracer = orex_telemetry::tracer();
        let context = request
            .header(TraceContext::HEADER)
            .and_then(TraceContext::parse);
        // Handler spans nest under this root. It is dropped before the
        // ring is drained below so the archive sees the complete trace.
        let response = {
            let mut span = tracer.span_with_context(self.surface.request_span, context);
            if span.is_recording() {
                span.attr_str("method", &request.method);
                span.attr_str("path", &request.path);
            }
            // Only sampled traces reach the archive, so only those make
            // honest exemplars — an unsampled id would 404 on
            // `GET /trace/<id>`.
            let exemplar = span
                .trace_id()
                .filter(|_| span.is_sampled())
                .map(|trace| trace.0);
            let mut fields = AccessFields::default();
            let response = (self.route)(request, &mut fields);
            // Accounted while the span is still open, so the access
            // record is stamped with this request's trace/span ids.
            self.account(Some(request), &response, &fields, start.elapsed(), exemplar);
            response
        };
        self.traces.absorb(tracer.drain());
        // Slow-trace promotions ride back to the ingress edge on the
        // response so it can retro-fetch sibling spans fleet-wide
        // before they evict.
        let promoted = tracer.take_promoted();
        if promoted.is_empty() {
            return response;
        }
        let ids: Vec<String> = promoted.iter().map(u64::to_string).collect();
        response.with_header("X-Orex-Promoted", ids.join(","))
    }

    /// What every response reports, whoever produced it: one
    /// `requests` increment, one `request_us` sample, one
    /// `responses_Nxx` increment, one access record — plus a slow WARN
    /// when the request crossed the threshold.
    fn account(
        &self,
        request: Option<&Request>,
        response: &Response,
        fields: &AccessFields,
        elapsed: Duration,
        exemplar: Option<u64>,
    ) {
        self.meters.requests.incr();
        self.meters
            .request_us
            .record_with_exemplar(elapsed.as_micros() as f64, exemplar);
        // Resolved by name so only status classes that occur get a series.
        let class = response.status / 100;
        orex_telemetry::global()
            .counter(&format!("{}.responses_{class}xx", self.surface.prefix))
            .incr();

        let log = orex_telemetry::logger();
        let method = request.map_or("-", |r| r.method.as_str());
        let path = request.map_or("-", |r| r.path.as_str());
        let latency_us = elapsed.as_micros() as u64;
        let mut record = log
            .info(self.surface.access_target, "request")
            .field_str("method", method)
            .field_str("path", path)
            .field_u64("status", u64::from(response.status))
            .field_u64("bytes", response.body.len() as u64)
            .field_u64("latency_us", latency_us);
        if let Some(dataset) = &fields.dataset {
            record = record.field_str("dataset", dataset);
        }
        if let Some(hit) = fields.cache_hit {
            record = record.field_bool("cache_hit", hit);
        }
        if let Some(hit) = fields.precompute_hit {
            record = record.field_bool("precompute_hit", hit);
        }
        record.emit();
        if elapsed >= self.limits.slow_request {
            log.warn(self.surface.slow_target, "slow request")
                .field_str("method", method)
                .field_str("path", path)
                .field_u64("status", u64::from(response.status))
                .field_u64("latency_us", latency_us)
                .field_u64("threshold_us", self.limits.slow_request.as_micros() as u64)
                .emit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Barrier;

    fn limits(handlers: usize) -> Limits {
        Limits {
            max_connections: 16,
            handlers: Some(handlers),
            max_body_bytes: 1024,
            io_timeout: Duration::from_secs(10),
            keepalive_idle: Duration::from_secs(10),
            keepalive_requests: 100,
            slow_request: Duration::MAX,
        }
    }

    #[test]
    fn unrouted_tells_wrong_method_from_unknown_path() {
        assert_eq!(unrouted("PUT", &["query"]).status, 405);
        assert_eq!(unrouted("GET", &["query"]).status, 405);
        assert_eq!(unrouted("GET", &["explain", "1"]).status, 404);
        assert_eq!(unrouted("GET", &["no", "such", "route"]).status, 404);
        assert_eq!(unrouted("GET", &[]).status, 404);
    }

    /// Four connections each send one request at a front end with two
    /// handler threads. The route function rendezvouses at a two-party
    /// barrier: with fewer than two handlers it would deadlock, and the
    /// high-water mark shows no third ever ran alongside.
    #[test]
    fn handler_threads_bound_concurrent_route_calls() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let limits = limits(2);
        let stop = ShutdownHandle::default();
        let traces = TraceArchive::new(4);
        let running = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let pair = Barrier::new(2);
        let route = |_: &Request, _: &mut AccessFields| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            pair.wait();
            running.fetch_sub(1, Ordering::SeqCst);
            Response::text(200, "ok\n")
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve(&listener, &Surface::SERVER, &limits, &stop, &traces, route));
            let clients: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        stream
                            .write_all(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
                            .unwrap();
                        let mut reply = String::new();
                        stream.read_to_string(&mut reply).unwrap();
                        reply
                    })
                })
                .collect();
            for client in clients {
                let reply = client.join().unwrap();
                assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
            }
            stop.shutdown();
            server.join().unwrap().unwrap();
        });
        assert_eq!(high_water.load(Ordering::SeqCst), 2);
    }

    /// Head and body written separately on a socket without
    /// `TCP_NODELAY` stall every response after a connection's first by
    /// the client's delayed-ACK timer (~40 ms on Linux); the median of
    /// 20 kept-alive round trips sits on that timer or far below it.
    #[test]
    fn kept_alive_responses_do_not_wait_for_a_delayed_ack() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let limits = limits(1);
        let stop = ShutdownHandle::default();
        let traces = TraceArchive::new(4);
        let route = |_: &Request, _: &mut AccessFields| Response::json(200, r#"{"ok":true}"#);
        let mut round_trips = std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve(&listener, &Surface::SERVER, &limits, &stop, &traces, route));
            let client = crate::client::HttpClient::new(addr.to_string());
            let round_trips: Vec<Duration> = (0..20)
                .map(|_| {
                    let sent = Instant::now();
                    let reply = client.get("/x").unwrap();
                    assert_eq!(reply.body_str(), Some(r#"{"ok":true}"#));
                    sent.elapsed()
                })
                .collect();
            assert_eq!(client.connects(), 1, "all on one kept-alive connection");
            stop.shutdown();
            server.join().unwrap().unwrap();
            round_trips
        });
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(20),
            "median round trip {median:?}, all {round_trips:?}"
        );
    }
}
