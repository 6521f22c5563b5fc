//! Worker fleet supervision: spawn, health-check, eject/readmit,
//! restart-on-crash with capped backoff, and SIGTERM fan-out.
//!
//! Each worker is one `orex serve` process (or, in tests, an external
//! address) owning its own datasets, sessions, and caches — shared
//! nothing. A background health thread polls every worker's `/healthz`;
//! a worker that fails its check (or whose process exited) is marked
//! unhealthy and ejected from the routing ring, and a crashed spawned
//! process is relaunched with exponential backoff. When the check
//! passes again the worker is readmitted — the ring restores its exact
//! pre-ejection key ownership, so its caches stay useful.

use crate::ring::HashRing;
use orex_server::HttpClient;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Restart backoff: `BACKOFF_BASE << restarts`, capped at [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(100);
/// Upper bound on the restart backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(5);
/// How long SIGTERM'd workers get to drain before SIGKILL.
const DRAIN_DEADLINE: Duration = Duration::from_secs(15);

/// Where the fleet's worker processes come from.
pub enum WorkerSource {
    /// The fleet spawns and supervises one process per worker:
    /// `argv[0] argv[1..] --addr 127.0.0.1:<base_port + index>`.
    Spawn {
        /// Command template; the fleet appends `--addr`.
        argv: Vec<String>,
        /// First worker's port; worker `i` listens on `base_port + i`.
        base_port: u16,
        /// Number of workers to spawn.
        workers: usize,
    },
    /// Already-running servers (in-process test fixtures): no process
    /// management, health checking and routing only.
    External {
        /// One `host:port` per worker.
        addrs: Vec<String>,
    },
}

/// One supervised worker.
pub struct Worker {
    /// Stable fleet index — also the session-id routing residue.
    pub index: usize,
    /// The worker's `host:port`.
    pub addr: String,
    /// Pooled keep-alive client for proxied traffic.
    pub client: HttpClient,
    /// Short-timeout client for health probes, so a wedged worker
    /// can't stall the health loop for a full proxy timeout.
    probe: HttpClient,
    healthy: AtomicBool,
    restarts: AtomicU64,
    child: Mutex<Option<Child>>,
    /// Earliest instant the next relaunch may happen.
    backoff_until: Mutex<Option<Instant>>,
    /// Estimated offset translating this worker's tracer clock onto the
    /// router's (`router_ns = worker_ns + offset`), refreshed by each
    /// passing health probe from its round trip and the worker's
    /// `X-Orex-Clock` header. Stitched fleet traces shift the worker's
    /// span timestamps by this.
    clock_offset_ns: AtomicI64,
}

impl Worker {
    /// True when the last health probe passed.
    pub fn is_healthy(&self) -> bool {
        // ORDERING: health state is advisory — a stale read just means
        // one request retries; Relaxed suffices.
        self.healthy.load(Ordering::Relaxed)
    }

    /// The latest worker-to-router clock-offset estimate, nanoseconds.
    pub fn clock_offset_ns(&self) -> i64 {
        // ORDERING: advisory estimate, no synchronization role.
        self.clock_offset_ns.load(Ordering::Relaxed)
    }
}

/// The supervised worker set plus the routing ring over it.
pub struct Fleet {
    workers: Vec<Arc<Worker>>,
    ring: Mutex<HashRing>,
    /// Restart template (`None` for external fleets).
    argv: Option<Vec<String>>,
    /// `(stopped, wake)`: the health loop waits on the condvar so
    /// shutdown interrupts its sleep immediately.
    stop: Arc<(Mutex<bool>, Condvar)>,
    health_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Fleet {
    /// Builds the fleet — spawning worker processes when `source` is
    /// [`WorkerSource::Spawn`] — and starts the health loop with the
    /// given probe interval. Workers start *unhealthy* and are admitted
    /// by their first passing probe, so the router's `/healthz` flips
    /// ready only once at least one worker actually serves.
    pub fn start(source: WorkerSource, health_interval: Duration) -> std::io::Result<Arc<Self>> {
        let (addrs, argv) = match source {
            WorkerSource::Spawn {
                argv,
                base_port,
                workers,
            } => {
                if workers == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "a fleet needs at least one worker",
                    ));
                }
                let addrs: Vec<String> = (0..workers)
                    .map(|i| format!("127.0.0.1:{}", base_port + i as u16))
                    .collect();
                (addrs, Some(argv))
            }
            WorkerSource::External { addrs } => {
                if addrs.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "a fleet needs at least one worker",
                    ));
                }
                (addrs, None)
            }
        };

        let workers: Vec<Arc<Worker>> = addrs
            .iter()
            .enumerate()
            .map(|(index, addr)| {
                Arc::new(Worker {
                    index,
                    addr: addr.clone(),
                    client: HttpClient::with_timeouts(
                        addr.clone(),
                        Duration::from_secs(1),
                        Duration::from_secs(30),
                    ),
                    probe: HttpClient::with_timeouts(
                        addr.clone(),
                        Duration::from_millis(250),
                        Duration::from_secs(2),
                    ),
                    healthy: AtomicBool::new(false),
                    restarts: AtomicU64::new(0),
                    child: Mutex::new(None),
                    backoff_until: Mutex::new(None),
                    clock_offset_ns: AtomicI64::new(0),
                })
            })
            .collect();

        let mut ring = HashRing::new(workers.len());
        for w in &workers {
            ring.eject(w.index); // admitted by the first passing probe
        }

        let fleet = Arc::new(Self {
            workers,
            ring: Mutex::new(ring),
            argv,
            stop: Arc::new((Mutex::new(false), Condvar::new())),
            health_thread: Mutex::new(None),
        });

        if fleet.argv.is_some() {
            for worker in &fleet.workers {
                fleet.launch(worker)?;
            }
        }

        let loop_fleet = Arc::clone(&fleet);
        let handle = std::thread::Builder::new()
            .name("orex-router-health".into())
            .spawn(move || loop_fleet.health_loop(health_interval))?;
        *lock(&fleet.health_thread) = Some(handle);
        Ok(fleet)
    }

    /// The workers, fleet-indexed.
    pub fn workers(&self) -> &[Arc<Worker>] {
        &self.workers
    }

    /// Number of workers (healthy or not).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Always false — construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Number of currently healthy workers.
    pub fn healthy_count(&self) -> usize {
        self.workers.iter().filter(|w| w.is_healthy()).count()
    }

    /// Routes `key` on the ring; `None` when no worker is healthy.
    pub fn route(&self, key: &[u8]) -> Option<usize> {
        lock(&self.ring).route(key)
    }

    /// Routes `key` avoiding `skip` — the retry path.
    pub fn route_excluding(&self, key: &[u8], skip: usize) -> Option<usize> {
        lock(&self.ring).route_excluding(key, skip)
    }

    /// One health pass over every worker; returns when the stop flag
    /// flips. Crashed spawned workers are relaunched past their backoff.
    fn health_loop(&self, interval: Duration) {
        loop {
            for worker in &self.workers {
                self.reap_and_restart(worker);
                self.probe(worker);
            }
            let (stopped, wake) = &*self.stop;
            let guard = lock(stopped);
            // The wait doubles as the inter-pass sleep; a shutdown
            // notification ends it (and the loop) immediately.
            let (guard, _) = wake
                .wait_timeout(guard, interval)
                .unwrap_or_else(PoisonError::into_inner);
            if *guard {
                return;
            }
        }
    }

    /// If `worker`'s process exited, record the crash and relaunch it
    /// once the backoff window has passed.
    fn reap_and_restart(&self, worker: &Arc<Worker>) {
        if self.argv.is_none() {
            return;
        }
        let exited = {
            let mut child = lock(&worker.child);
            match child.as_mut().map(Child::try_wait) {
                Some(Ok(Some(_status))) => {
                    *child = None;
                    true
                }
                _ => false,
            }
        };
        if exited {
            self.mark_unhealthy(worker, "process exited");
            // ORDERING: restart count is a statistic; Relaxed suffices.
            let restarts = worker.restarts.fetch_add(1, Ordering::Relaxed);
            let backoff = BACKOFF_CAP.min(BACKOFF_BASE * 2u32.saturating_pow(restarts as u32));
            *lock(&worker.backoff_until) = Some(Instant::now() + backoff);
            orex_telemetry::global()
                .counter("router.worker_restarts")
                .incr();
        }
        let pending = *lock(&worker.backoff_until);
        let due = lock(&worker.child).is_none() && pending.is_some_and(|at| Instant::now() >= at);
        if due {
            *lock(&worker.backoff_until) = None;
            if let Err(e) = self.launch(worker) {
                orex_telemetry::logger()
                    .error(
                        "router.fleet",
                        format!("relaunching worker {}: {e}", worker.index),
                    )
                    .emit();
                // Try again next pass.
                *lock(&worker.backoff_until) = Some(Instant::now() + BACKOFF_BASE);
            }
        }
    }

    /// Spawns `worker`'s process from the argv template.
    fn launch(&self, worker: &Arc<Worker>) -> std::io::Result<()> {
        let Some(argv) = &self.argv else {
            return Ok(());
        };
        let Some((program, rest)) = argv.split_first() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "empty worker command",
            ));
        };
        let child = Command::new(program)
            .args(rest)
            .args(["--addr", &worker.addr])
            .stdin(Stdio::null())
            .spawn()?;
        orex_telemetry::logger()
            .info(
                "router.fleet",
                format!(
                    "worker {} spawned on {} (pid {})",
                    worker.index,
                    worker.addr,
                    child.id()
                ),
            )
            .field_u64("worker", worker.index as u64)
            .emit();
        *lock(&worker.child) = Some(child);
        Ok(())
    }

    /// One `/healthz` probe; flips health state and the ring membership
    /// on transitions, and refreshes the worker's clock-offset estimate
    /// from the probe round trip: the worker's `X-Orex-Clock` reading
    /// is assumed to have happened at the round trip's midpoint, so
    /// `offset = (t0 + t1) / 2 − worker_clock` — the classic
    /// NTP-style estimate, good to half the round trip (microseconds on
    /// loopback, plenty for lane alignment in a stitched trace).
    fn probe(&self, worker: &Arc<Worker>) {
        let tracer = orex_telemetry::tracer();
        let t0 = tracer.now_ns();
        let reply = worker.probe.get("/healthz");
        let t1 = tracer.now_ns();
        let ok = matches!(&reply, Ok(r) if r.status == 200);
        if let Ok(r) = &reply {
            if let Some(clock) = r.header("x-orex-clock").and_then(|v| v.parse::<u64>().ok()) {
                let midpoint = (t0 / 2) + (t1 / 2);
                let offset = midpoint as i64 - clock as i64;
                // ORDERING: advisory estimate read by trace stitching;
                // no synchronization role.
                worker.clock_offset_ns.store(offset, Ordering::Relaxed);
            }
        }
        if ok {
            // ORDERING: swap is the transition edge; health state is
            // advisory so Relaxed suffices (the ring lock orders the
            // membership change itself).
            if !worker.healthy.swap(true, Ordering::Relaxed) {
                lock(&self.ring).readmit(worker.index);
                // The previous incarnation's pooled connections are
                // dead; drop them so proxied requests start clean.
                worker.client.clear_idle();
                orex_telemetry::global()
                    .counter("router.worker_readmissions")
                    .incr();
                orex_telemetry::logger()
                    .info(
                        "router.fleet",
                        format!("worker {} healthy; readmitted to the ring", worker.index),
                    )
                    .field_u64("worker", worker.index as u64)
                    .emit();
            }
        } else {
            // ORDERING: advisory health flag; the ring lock orders the
            // membership change itself. Relaxed suffices.
            let was_healthy = worker.healthy.swap(false, Ordering::Relaxed);
            if was_healthy {
                self.mark_unhealthy(worker, "health probe failed");
            }
        }
    }

    fn mark_unhealthy(&self, worker: &Arc<Worker>, why: &str) {
        // ORDERING: advisory flag; the ring lock orders membership.
        worker.healthy.store(false, Ordering::Relaxed);
        lock(&self.ring).eject(worker.index);
        worker.client.clear_idle();
        orex_telemetry::global()
            .counter("router.worker_ejections")
            .incr();
        orex_telemetry::logger()
            .warn(
                "router.fleet",
                format!("worker {} ejected: {why}", worker.index),
            )
            .field_u64("worker", worker.index as u64)
            .emit();
    }

    /// Stops the health loop, SIGTERMs every spawned worker so each
    /// drains its in-flight requests, and waits (bounded) for them to
    /// exit — SIGKILL only past the deadline.
    pub fn shutdown(&self) {
        {
            let (stopped, wake) = &*self.stop;
            *lock(stopped) = true;
            wake.notify_all();
        }
        if let Some(handle) = lock(&self.health_thread).take() {
            let _ = handle.join();
        }
        if self.argv.is_none() {
            return;
        }
        for worker in &self.workers {
            let child = lock(&worker.child);
            if let Some(child) = child.as_ref() {
                send_sigterm(child.id());
            }
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        for worker in &self.workers {
            let mut child_slot = lock(&worker.child);
            let Some(mut child) = child_slot.take() else {
                continue;
            };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill(); // SIGKILL: drain deadline blown
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => {
                        let (stopped, wake) = &*self.stop;
                        // Re-purpose the stop condvar as a sleeper: the
                        // flag is already true, so this is a plain
                        // bounded wait between exit polls.
                        let guard = lock(stopped);
                        let _ = wake
                            .wait_timeout(guard, Duration::from_millis(50))
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Err(_) => break,
                }
            }
        }
    }
}

/// SIGTERM (graceful drain) to `pid`. `Child::kill` sends SIGKILL,
/// which would drop in-flight requests — exactly what drain must not do.
fn send_sigterm(pid: u32) {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: kill(2) with a pid we spawned and still hold a
        // handle to; no memory is touched.
        unsafe {
            kill(pid as i32, SIGTERM);
        }
    }
    #[cfg(not(unix))]
    let _ = pid;
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
