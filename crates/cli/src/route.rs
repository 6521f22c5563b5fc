//! The `orex route` subcommand: spawn and front a shared-nothing
//! worker fleet.
//!
//! One command brings up N `orex serve` worker processes on
//! consecutive ports plus a router that consistent-hashes queries
//! across them, supervises crashes, and aggregates `/metrics` and
//! `/logs` fleet-wide:
//!
//! ```text
//! orex route --addr 127.0.0.1:7470 --workers 3 --base-port 7480 \
//!     --dataset dblp=dblp-top:0.05 --dataset bio=ds7-cancer:0.02
//! ```
//!
//! Dataset and tuning flags after the router's own are forwarded to
//! every worker. SIGTERM/ctrl-c drain the router's open connections,
//! then cascade to the workers so each drains its in-flight requests.

use orex_router::{Fleet, Router, RouterConfig, WorkerSource};
use orex_server::install_signal_handlers;
use std::io::Write;
use std::time::Duration;

use crate::argv::{apply_trace_flags, flag, flag_values, reject_unknown};
use crate::subcommands::SUBCOMMAND_HELP;

/// Worker flags the router forwards verbatim to every spawned
/// `orex serve` process.
const FORWARDED_VALUE_FLAGS: &[&str] = &[
    "--dataset",
    "--preset",
    "--scale",
    "--threads",
    "--cache-entries",
    "--session-ttl",
    "--max-sessions",
    "--precompute",
    "--trace-sample",
    "--trace-slow-ms",
];
const FORWARDED_SWITCHES: &[&str] = &["--eager"];

/// The router's own value flags; it takes no switch of its own.
const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--workers",
    "--base-port",
    "--worker-addr",
    "--health-interval-ms",
    "--timeout-ms",
    "--max-connections",
];

/// Reads the router's own flags into `config`, applies the trace flags
/// to this process's tracer, and returns the worker count and base
/// port. Any argument that is neither a router flag nor a forwarded
/// worker flag is an error.
fn parse(args: &[String], config: &mut RouterConfig) -> Result<(usize, u16), String> {
    let known = [VALUE_FLAGS, FORWARDED_VALUE_FLAGS].concat();
    reject_unknown("route", args, &known, FORWARDED_SWITCHES)?;
    if let Some(addr) = flag::<String>("route", args, "--addr")? {
        config.addr = addr;
    }
    if let Some(ms) = flag::<u64>("route", args, "--timeout-ms")? {
        config.io_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = flag::<u64>("route", args, "--health-interval-ms")? {
        config.health_interval = Duration::from_millis(ms.max(50));
    }
    if let Some(max) = flag::<usize>("route", args, "--max-connections")? {
        config.max_connections = max;
    }
    let workers = flag::<usize>("route", args, "--workers")?.unwrap_or(2);
    if workers == 0 {
        return Err("route: --workers must be at least 1".into());
    }
    let base_port = flag::<u16>("route", args, "--base-port")?.unwrap_or(7480);
    // The router's own tracer draws the sampling fate of every routed
    // request; the same flags are also forwarded to the workers.
    apply_trace_flags("route", args)?;
    Ok((workers, base_port))
}

/// `orex route [--addr A] [--workers N] [--base-port P]
/// [--worker-addr H:P]... [--health-interval-ms N] [--timeout-ms N]
/// [--max-connections N] [<forwarded worker flags>]` — serve the fleet.
/// Returns the process exit code.
pub fn run_route(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<i32> {
    let mut config = RouterConfig::default();
    let (workers, base_port) = match parse(args, &mut config) {
        Ok(parsed) => parsed,
        Err(msg) => {
            writeln!(err, "{msg}\n\n{SUBCOMMAND_HELP}")?;
            return Ok(2);
        }
    };
    let external = flag_values(args, "--worker-addr");

    let source = if external.is_empty() {
        let exe = std::env::current_exe()?;
        let mut argv = vec![exe.to_string_lossy().into_owned(), "serve".to_string()];
        for name in FORWARDED_VALUE_FLAGS {
            for value in flag_values(args, name) {
                argv.push((*name).to_string());
                argv.push(value);
            }
        }
        for name in FORWARDED_SWITCHES {
            if args.iter().any(|a| a == name) {
                argv.push((*name).to_string());
            }
        }
        WorkerSource::Spawn {
            argv,
            base_port,
            workers,
        }
    } else {
        WorkerSource::External { addrs: external }
    };

    let fleet = match Fleet::start(source, config.health_interval) {
        Ok(fleet) => fleet,
        Err(e) => {
            writeln!(err, "route: starting the worker fleet: {e}")?;
            return Ok(1);
        }
    };
    let router = match Router::bind(std::sync::Arc::clone(&fleet), config.clone()) {
        Ok(router) => router,
        Err(e) => {
            writeln!(err, "route: binding {}: {e}", config.addr)?;
            fleet.shutdown();
            return Ok(1);
        }
    };
    install_signal_handlers();
    let addr = router.local_addr()?;
    writeln!(
        out,
        "routing on http://{addr} fronting {} worker(s)",
        fleet.len()
    )?;
    for worker in fleet.workers() {
        writeln!(out, "  worker {} -> http://{}", worker.index, worker.addr)?;
    }
    writeln!(
        out,
        "try: curl -s http://{addr}/healthz ; curl -s http://{addr}/metrics"
    )?;
    out.flush()?;
    match router.run() {
        Ok(()) => {
            writeln!(
                err,
                "[route] drained open connections; workers stopped; clean shutdown"
            )?;
            Ok(0)
        }
        Err(e) => {
            writeln!(err, "route: accept loop failed: {e}")?;
            Ok(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Every flag the router forwards is one `orex serve` accepts, so a
    /// spawned worker never exits 2 on its argv.
    #[test]
    fn forwarded_flags_are_ones_serve_accepts() {
        for name in FORWARDED_VALUE_FLAGS {
            assert!(crate::serve::VALUE_FLAGS.contains(name), "{name}");
        }
        for name in FORWARDED_SWITCHES {
            assert!(crate::serve::SWITCHES.contains(name), "{name}");
        }
    }

    #[test]
    fn bad_flag_values_exit_2() {
        for bad in [
            vec!["--workers", "many"],
            vec!["--workers", "0"],
            vec!["--base-port", "high"],
            vec!["--timeout-ms"],
            vec!["--health-interval-ms", "soon"],
            vec!["--max-connections", "-2"],
            vec!["--trace-sample", "often"],
            vec!["--trace-slow-ms", "-1"],
            vec!["--trace-sampel", "10"],
            vec!["--workers", "2", "stray"],
        ] {
            let mut out = Vec::new();
            let mut err = Vec::new();
            let code = run_route(&argv(&bad), &mut out, &mut err).unwrap();
            assert_eq!(code, 2, "args {bad:?} must be rejected");
            assert!(!err.is_empty());
        }
    }

    /// The argv the serving benchmark starts a fleet with stays accepted.
    #[test]
    fn the_benchmark_fleet_argv_is_accepted() {
        let args = argv(&[
            "--workers",
            "2",
            "--eager",
            "--base-port",
            "7481",
            "--dataset",
            "dblp=dblp-top:0.05",
            "--dataset",
            "bio=ds7-cancer:0.02",
            "--addr",
            "127.0.0.1:7480",
            "--threads",
            "4",
            "--cache-entries",
            "64",
            "--max-sessions",
            "100000",
        ]);
        let mut config = RouterConfig::default();
        assert_eq!(parse(&args, &mut config), Ok((2, 7481)));
        assert_eq!(config.addr, "127.0.0.1:7480");
    }

    #[test]
    fn bind_failure_exits_1() {
        // External workers so nothing is spawned; the unroutable bind
        // address fails fast.
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run_route(
            &argv(&["--addr", "256.0.0.1:0", "--worker-addr", "127.0.0.1:9"]),
            &mut out,
            &mut err,
        )
        .unwrap();
        assert_eq!(code, 1);
        let msg = String::from_utf8(err).unwrap();
        assert!(msg.contains("route: binding"), "{msg}");
    }
}
