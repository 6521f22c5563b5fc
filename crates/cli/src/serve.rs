//! The `orex serve` subcommand: build a system and serve it over HTTP.
//!
//! The served dataset comes from a generator preset (same `--preset` /
//! `--scale` vocabulary as `orex trace`), so a full interactive-loop
//! deployment is one command; it serves one dataset named `default`,
//! built before the server binds:
//!
//! ```text
//! orex serve --addr 127.0.0.1:7474 --preset dblp-top --scale 0.1
//! ```
//!
//! Repeatable `--dataset NAME=PRESET:SCALE[:PRECOMPUTE]` flags serve
//! several named datasets from one process instead; clients pick one
//! with the `dataset` field of `POST /query`. Datasets build lazily on
//! first use unless `--eager` builds them all upfront:
//!
//! ```text
//! orex serve --dataset dblp=dblp-top:0.05 --dataset bio=ds7-cancer:0.02 --eager
//! ```
//!
//! SIGTERM/ctrl-c drain in-flight requests before exit (see
//! `orex_server::install_signal_handlers`).

use orex_datagen::Preset;
use orex_server::{install_signal_handlers, DatasetSpec, Server, ServerConfig, SystemRegistry};
use std::io::Write;
use std::time::Duration;

use crate::argv::{apply_trace_flags, flag, flag_values, reject_unknown};
use crate::subcommands::SUBCOMMAND_HELP;

/// Every flag `run_serve` reads that takes the argument after it.
pub(crate) const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--preset",
    "--scale",
    "--precompute",
    "--dataset",
    "--threads",
    "--cache-entries",
    "--session-ttl",
    "--max-sessions",
    "--max-body-kb",
    "--timeout-ms",
    "--slow-ms",
    "--trace-sample",
    "--trace-slow-ms",
];
/// Every flag `run_serve` reads that stands alone.
pub(crate) const SWITCHES: &[&str] = &["--eager"];

/// The dataset `--preset` (default dblp-top), `--scale` (default 0.05)
/// and `--precompute` describe when no `--dataset` is given.
fn default_dataset(args: &[String]) -> Result<DatasetSpec, String> {
    let preset_name =
        flag::<String>("serve", args, "--preset")?.unwrap_or_else(|| "dblp-top".into());
    let preset = Preset::parse(&preset_name).ok_or_else(|| {
        format!("serve: unknown preset '{preset_name}' (dblp-top, dblp-complete, ds7, ds7-cancer)")
    })?;
    Ok(DatasetSpec {
        name: "default".into(),
        preset,
        scale: flag("serve", args, "--scale")?.unwrap_or(0.05),
        precompute: flag::<String>("serve", args, "--precompute")?.map(Into::into),
    })
}

/// `orex serve [--addr A] [--preset NAME] [--scale F]
/// [--dataset NAME=PRESET:SCALE[:PRECOMPUTE]]... [--eager] [--threads N]
/// [--cache-entries N] [--session-ttl SECS] [--max-sessions N]
/// [--max-body-kb N] [--timeout-ms N] [--trace-sample N]
/// [--trace-slow-ms N] [--slow-ms N] [--precompute FILE]` — serve the
/// interactive loop over HTTP, optionally combining precomputed rank
/// vectors from an `orex precompute` artifact (backfilling the terms it
/// lacks). Any other argument exits 2. Returns the process exit code.
pub fn run_serve(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<i32> {
    let mut config = ServerConfig::default();
    let mut cache_entries = 256;
    let parsed: Result<(), String> = (|| {
        reject_unknown("serve", args, VALUE_FLAGS, SWITCHES)?;
        if let Some(addr) = flag::<String>("serve", args, "--addr")? {
            config.addr = addr;
        }
        if let Some(threads) = flag::<usize>("serve", args, "--threads")? {
            config.threads = threads.max(1);
        }
        if let Some(entries) = flag::<usize>("serve", args, "--cache-entries")? {
            cache_entries = entries;
        }
        if let Some(secs) = flag::<u64>("serve", args, "--session-ttl")? {
            config.session_ttl = Duration::from_secs(secs.max(1));
        }
        if let Some(max) = flag::<usize>("serve", args, "--max-sessions")? {
            config.max_sessions = max;
        }
        if let Some(kb) = flag::<usize>("serve", args, "--max-body-kb")? {
            config.max_body_bytes = kb * 1024;
        }
        if let Some(ms) = flag::<u64>("serve", args, "--timeout-ms")? {
            config.io_timeout = Duration::from_millis(ms.max(1));
        }
        if let Some(ms) = flag::<u64>("serve", args, "--slow-ms")? {
            config.slow_request = Duration::from_millis(ms.max(1));
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        writeln!(err, "{msg}\n\n{SUBCOMMAND_HELP}")?;
        return Ok(2);
    }

    let dataset_flags = flag_values(args, "--dataset");
    let specs = if dataset_flags.is_empty() {
        default_dataset(args).map(|spec| vec![spec])
    } else {
        dataset_flags
            .iter()
            .map(|raw| DatasetSpec::parse(raw).map_err(|msg| format!("serve: {msg}")))
            .collect()
    };
    let registry = match specs.and_then(|specs| {
        SystemRegistry::new(specs, cache_entries).map_err(|msg| format!("serve: {msg}"))
    }) {
        Ok(r) => r,
        Err(msg) => {
            writeln!(err, "{msg}")?;
            return Ok(2);
        }
    };

    if let Err(msg) = apply_trace_flags("serve", args) {
        writeln!(err, "{msg}")?;
        return Ok(2);
    }

    // The default dataset is built before the bind. `--eager` datasets
    // build after it: a fleet's health probes then queue on the bound
    // port and are answered the moment serving starts.
    let default_only = dataset_flags.is_empty();
    let eager = args.iter().any(|a| a == "--eager");
    if default_only {
        if let Err(e) = registry.build_all() {
            writeln!(err, "serve: building the dataset: {e}")?;
            return Ok(1);
        }
    }
    writeln!(
        err,
        "[serve] datasets: {} (default {}; {})",
        registry.names().join(", "),
        registry.default_name(),
        if default_only || eager {
            "built eagerly"
        } else {
            "built lazily on first use"
        }
    )?;
    let server = match Server::bind(registry, config.clone()) {
        Ok(s) => s,
        Err(e) => {
            writeln!(err, "serve: binding {}: {e}", config.addr)?;
            return Ok(1);
        }
    };
    if eager {
        if let Err(e) = server.build_all_datasets() {
            writeln!(err, "serve: building datasets eagerly: {e}")?;
            return Ok(1);
        }
    }
    install_signal_handlers();
    let addr = server.local_addr()?;
    writeln!(
        out,
        "serving on http://{addr} ({} workers, cache {} entries, session ttl {:?})",
        config.threads, cache_entries, config.session_ttl
    )?;
    writeln!(
        out,
        "try: curl -s http://{addr}/healthz ; curl -s -XPOST http://{addr}/query -d '{{\"query\": \"data mining\"}}'"
    )?;
    writeln!(
        out,
        "logs: curl -s 'http://{addr}/logs?level=info'   (OREX_LOG tunes capture)"
    )?;
    out.flush()?;
    match server.run() {
        Ok(()) => {
            writeln!(err, "[serve] drained in-flight requests; clean shutdown")?;
            Ok(0)
        }
        Err(e) => {
            writeln!(err, "serve: accept loop failed: {e}")?;
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

    #[test]
    fn bad_flag_values_exit_2() {
        for bad in [
            vec!["--threads", "many"],
            vec!["--session-ttl", "-3"],
            vec!["--scale", "huge"],
            vec!["--preset", "nope"],
            vec!["--timeout-ms"],
            vec!["--max-sessions", "lots"],
            vec!["--profile-hz", "fast"],
            vec!["--profile-hz", "97"],
            vec!["--thread", "4"],
            vec!["--status-interval-ms", "-2"],
            vec!["--status-interval-ms", "2000"],
            vec!["--dataset", "missing-equals"],
            vec!["--dataset", "d=nope:0.05"],
            vec!["--dataset", "d=dblp-top:tiny"],
            vec!["--trace-sample", "often"],
            vec!["--trace-slow-ms", "-1"],
        ] {
            let mut out = Vec::new();
            let mut err = Vec::new();
            let code = run_serve(&argv(&bad), &mut out, &mut err).unwrap();
            assert_eq!(code, 2, "args {bad:?} must be rejected");
            assert!(!err.is_empty());
        }
    }

    /// The argv the serving benchmark starts a server with stays accepted.
    #[test]
    fn the_benchmark_server_argv_is_accepted() {
        let args = argv(&[
            "--preset",
            "dblp-top",
            "--scale",
            "0.05",
            "--addr",
            "127.0.0.1:7474",
            "--threads",
            "4",
            "--cache-entries",
            "64",
            "--max-sessions",
            "100000",
        ]);
        assert_eq!(
            reject_unknown("serve", &args, VALUE_FLAGS, SWITCHES),
            Ok(())
        );
        assert_eq!(default_dataset(&args).unwrap().preset, Preset::DblpTop);
    }

    #[test]
    fn preset_flags_describe_the_default_dataset() {
        let args = argv(&[
            "--preset",
            "ds7-cancer",
            "--scale",
            "0.02",
            "--precompute",
            "x.bin",
        ]);
        let spec = default_dataset(&args).unwrap();
        assert_eq!(spec.name, "default");
        assert_eq!(spec.preset, Preset::Ds7Cancer);
        assert_eq!(spec.scale, 0.02);
        assert_eq!(
            spec.precompute.as_deref(),
            Some(std::path::Path::new("x.bin"))
        );
        let spec = default_dataset(&[]).unwrap();
        assert_eq!((spec.preset, spec.scale), (Preset::DblpTop, 0.05));
        assert!(spec.precompute.is_none());
    }

    #[test]
    fn bind_failure_exits_1() {
        // An unroutable bind address fails fast, after system build.
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run_serve(
            &argv(&["--addr", "256.0.0.1:0", "--scale", "0.01"]),
            &mut out,
            &mut err,
        )
        .unwrap();
        assert_eq!(code, 1);
        let msg = String::from_utf8(err).unwrap();
        assert!(msg.contains("serve: binding"), "{msg}");
    }
}
