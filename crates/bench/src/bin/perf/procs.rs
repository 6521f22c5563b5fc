//! Spawning, watching and stopping the `orex` server under test.
//!
//! Ports are picked at run time, server output goes to files under the
//! output directory, and a [`ServerProc`] that goes out of scope on any
//! path — error return or panic — takes its processes with it.

use crate::workload::{Spec, CACHE_ENTRIES, CLIENTS, MAX_SESSIONS};
use std::fs::File;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a SIGTERM'd server may take to drain before SIGKILL.
const STOP_DEADLINE: Duration = Duration::from_secs(10);
/// Workers behind `orex route`.
pub const FLEET_WORKERS: usize = 2;

/// The release `orex` binary sitting next to this executable.
pub fn orex_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let path = exe.with_file_name("orex");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build it first with `cargo build --release --workspace --bins` \
             (perf drives the real server binary that sits next to it)",
            path.display()
        ))
    }
}

/// `count` consecutive loopback ports that were free a moment ago.
fn free_ports(count: u16) -> Result<u16, String> {
    for _ in 0..64 {
        let probe = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probing ports: {e}"))?;
        let base = probe
            .local_addr()
            .map_err(|e| format!("probing ports: {e}"))?
            .port();
        let Some(last) = base.checked_add(count - 1) else {
            continue;
        };
        let rest: Vec<_> = (base + 1..=last)
            .map(|p| TcpListener::bind(("127.0.0.1", p)))
            .collect();
        if rest.iter().all(Result::is_ok) {
            return Ok(base);
        }
    }
    Err("no run of free loopback ports found".into())
}

fn send_signal(pid: u32, signal: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: kill(2) takes two integers and touches no memory of this
    // process; the pid is one this benchmark spawned or found as a child
    // of one it spawned.
    unsafe {
        kill(pid as i32, signal);
    }
}
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// `(pid, parent pid)` of every process whose command name is `orex`.
fn orex_processes() -> Vec<(u32, u32)> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|entry| {
        let pid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // "pid (comm) state ppid ..." — comm may itself contain ')'.
        let (head, tail) = stat.rsplit_once(')')?;
        if head.split_once('(')?.1 != "orex" {
            return None;
        }
        let mut fields = tail.split_whitespace();
        let state = fields.next()?;
        let parent = fields.next()?.parse().ok()?;
        (state != "Z").then_some((pid, parent))
    })
    .collect()
}

/// One running server (or router plus its workers).
pub struct ServerProc {
    child: Option<Child>,
    pub addr: SocketAddr,
    /// The child's own children (`orex route` workers), once seen.
    workers: Vec<u32>,
}

impl ServerProc {
    /// Starts the workload's server with stdout and stderr redirected to
    /// `<out>/server_<workload>.{out,err}`.
    pub fn spawn(orex: &Path, spec: &Spec, out: &Path) -> Result<Self, String> {
        let mut command = Command::new(orex);
        let port = if spec.routed {
            let base = free_ports(1 + FLEET_WORKERS as u16)?;
            command.args(["route", "--workers", &FLEET_WORKERS.to_string(), "--eager"]);
            command.args(["--base-port", &(base + 1).to_string()]);
            for d in spec.datasets {
                let name = d.name.ok_or("a routed workload names its datasets")?;
                command.args(["--dataset", &format!("{name}={}:{}", d.preset, d.scale)]);
            }
            base
        } else {
            let d = &spec.datasets[0];
            command.args(["serve", "--preset", d.preset, "--scale", d.scale]);
            free_ports(1)?
        };
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        command.args(["--addr", &addr.to_string()]);
        command.args(["--threads", &CLIENTS.to_string()]);
        command.args(["--cache-entries", &CACHE_ENTRIES.to_string()]);
        command.args(["--max-sessions", &MAX_SESSIONS.to_string()]);
        let log = |ext: &str| {
            let path = out.join(format!("server_{}.{ext}", spec.name));
            File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))
        };
        let child = command
            .stdin(Stdio::null())
            .stdout(log("out")?)
            .stderr(log("err")?)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", orex.display()))?;
        Ok(Self {
            child: Some(child),
            addr,
            workers: Vec::new(),
        })
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Fails if the server process has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        let child = self.child.as_mut().ok_or("server already stopped")?;
        match child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!(
                "server exited early ({status}); see its stderr file"
            )),
            Err(e) => Err(format!("polling the server process: {e}")),
        }
    }

    /// Server pid plus its worker pids, refreshing the worker list.
    pub fn pids(&mut self) -> Vec<u32> {
        let me = self.pid();
        for (pid, parent) in orex_processes() {
            if parent == me && !self.workers.contains(&pid) {
                self.workers.push(pid);
            }
        }
        std::iter::once(me)
            .chain(self.workers.iter().copied())
            .collect()
    }

    /// `VmHWM` summed over the server's processes, in MB.
    pub fn peak_rss_mb(&mut self) -> Result<f64, String> {
        let mut total_kb = 0.0;
        for pid in self.pids() {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
                .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
            let kb = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
            total_kb += kb;
        }
        Ok(total_kb / 1024.0)
    }

    /// SIGTERM, a bounded wait, SIGKILL for whatever is left. Returns
    /// the pids that needed the SIGKILL.
    fn terminate(&mut self) -> Vec<u32> {
        let watched = self.pids();
        let Some(mut child) = self.child.take() else {
            return Vec::new();
        };
        let me = child.id();
        send_signal(me, SIGTERM);
        let deadline = Instant::now() + STOP_DEADLINE;
        let mut exited = false;
        let survivors = loop {
            exited = exited || !matches!(child.try_wait(), Ok(None));
            // Only workers need the /proc scan; the child is reaped here.
            let live = match watched.len() {
                1 => Vec::new(),
                _ => orex_processes(),
            };
            let left: Vec<u32> = watched
                .iter()
                .copied()
                .filter(|&pid| match pid == me {
                    true => !exited,
                    false => live.iter().any(|(p, _)| *p == pid),
                })
                .collect();
            if left.is_empty() || Instant::now() >= deadline {
                break left;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        for &pid in &survivors {
            send_signal(pid, SIGKILL);
        }
        let _ = child.wait();
        survivors
    }

    /// Stops the server and reports processes that outlived a graceful
    /// shutdown as an error.
    pub fn stop_gracefully(mut self) -> Result<(), String> {
        let killed = self.terminate();
        if killed.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "orex processes {killed:?} ignored SIGTERM for {STOP_DEADLINE:?} and were killed"
            ))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.terminate();
    }
}
