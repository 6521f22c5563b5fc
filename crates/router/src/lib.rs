//! # orex-router — a shared-nothing router fleet for horizontal scale
//!
//! One process serves only as far as one heap and one socket backlog
//! carry it. This crate scales *out* instead: a router proxies the
//! public HTTP surface onto N independent `orex serve` worker
//! processes, each owning its own datasets, sessions, and caches —
//! shared nothing, so workers never coordinate and a crash takes down
//! 1/N of capacity, not the service.
//!
//! Three layers:
//!
//! - **Routing** ([`ring`]): a consistent-hash ring with virtual nodes
//!   maps `(dataset, query)` keys to workers, keeping repeat queries on
//!   warm result caches; ejecting a crashed worker remaps only its own
//!   ≈1/N key share. Session requests route by the worker index the
//!   router encodes into every session id it hands out.
//! - **Supervision** ([`fleet`]): spawn `--workers N` processes on
//!   `--base-port`..., health-probe them, eject/readmit from the ring,
//!   relaunch crashes with capped backoff, and fan SIGTERM out so
//!   drains cascade.
//! - **Proxy** ([`proxy`]): the route function behind the shared
//!   [`orex_server::frontend`] — the same accept loop, connection loop
//!   and request envelope a worker runs on. It forwards queries
//!   (retrying once on an alternate healthy worker when the owner is
//!   unreachable or saturated), and serves fleet-wide aggregated
//!   `/metrics`, `/logs`, and `/debug/status`.

#![warn(missing_docs)]

pub mod fleet;
pub mod proxy;
pub mod ring;

pub use fleet::{Fleet, Worker, WorkerSource};
pub use proxy::RouterContext;
pub use ring::HashRing;

use orex_server::frontend::{self, Limits, Surface};
use orex_server::ShutdownHandle;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Router front-end configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Public listen address.
    pub addr: String,
    /// Per-request I/O timeout on the client side.
    pub io_timeout: Duration,
    /// Close a kept-alive connection idle this long.
    pub keepalive_idle: Duration,
    /// Worker health-probe interval.
    pub health_interval: Duration,
    /// Live-connection cap; beyond it new connections get `503` +
    /// `Retry-After` instead of queueing unboundedly.
    pub max_connections: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7470".to_string(),
            io_timeout: Duration::from_secs(30),
            keepalive_idle: Duration::from_secs(5),
            health_interval: Duration::from_millis(250),
            max_connections: 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A bound, not-yet-running router; call [`Router::run`] to serve.
pub struct Router {
    listener: TcpListener,
    fleet: Arc<Fleet>,
    config: RouterConfig,
    stop: ShutdownHandle,
}

impl Router {
    /// Binds `config.addr` in front of `fleet`.
    pub fn bind(fleet: Arc<Fleet>, config: RouterConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            fleet,
            config,
            stop: ShutdownHandle::default(),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this router from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.stop.clone()
    }

    /// The fleet this router fronts.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Serves until shutdown is requested (via [`ShutdownHandle`] or an
    /// installed signal handler), then drains: stop accepting, let open
    /// connections finish their in-flight response, and cascade the
    /// shutdown to the fleet (SIGTERM to every spawned worker, bounded
    /// wait).
    pub fn run(self) -> io::Result<()> {
        let ctx = RouterContext::new(
            Arc::clone(&self.fleet),
            Instant::now(),
            self.local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| self.config.addr.clone()),
        );
        // A proxied request spends its time waiting on a worker, so it
        // runs on its connection's thread and the connection cap is the
        // router's only concurrency gate. The router has no
        // per-connection request limit and no slow-request threshold.
        let limits = Limits {
            max_connections: self.config.max_connections,
            handlers: None,
            max_body_bytes: self.config.max_body_bytes,
            io_timeout: self.config.io_timeout,
            keepalive_idle: self.config.keepalive_idle,
            keepalive_requests: u64::MAX,
            slow_request: Duration::MAX,
        };
        let served = frontend::serve(
            &self.listener,
            &Surface::ROUTER,
            &limits,
            &self.stop,
            &ctx.traces,
            |request, _fields| proxy::route(request, &ctx),
        );
        self.fleet.shutdown();
        served?;
        orex_telemetry::global()
            .counter("router.clean_shutdowns")
            .incr();
        Ok(())
    }
}
