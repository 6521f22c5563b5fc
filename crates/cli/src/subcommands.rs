//! Non-interactive `orex` subcommands.
//!
//! `orex trace "<query>"` runs one query end-to-end with tracing enabled
//! and exports the collected span tree (Chrome trace-event JSON or folded
//! stacks for flamegraph tooling). It is plumbing around the
//! `orex-telemetry` APIs; the ranking goes through the ordinary
//! [`QuerySession`] path so the trace reflects real production spans. A
//! running server's telemetry is read over HTTP instead: `GET /metrics`,
//! `GET /logs` and `GET /trace/<id>`.

use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
use orex_datagen::Preset;
use orex_ir::Query;
use orex_telemetry::export::{to_chrome_trace, to_folded_stacks};
use std::io::Write;

use crate::argv::{flag_value, positionals};

/// Usage text for the non-interactive subcommands (the REPL has its own
/// `help`).
pub const SUBCOMMAND_HELP: &str = "\
orex — explaining & reformulating authority flow queries

usage:
  orex                       start the interactive shell
  orex trace \"<query>\" [--format chrome|folded] [--preset NAME]
                             [--scale F] [--out FILE]
                             run one traced query and export its span tree
  orex serve [--addr A] [--preset NAME] [--scale F]
             [--dataset NAME=PRESET:SCALE[:PRECOMPUTE]]... [--eager]
             [--threads N]
             [--cache-entries N] [--session-ttl SECS] [--max-sessions N]
             [--max-body-kb N] [--timeout-ms N] [--trace-sample N]
             [--trace-slow-ms N] [--slow-ms N]
             [--precompute FILE]
                             serve the interactive query/explain/feedback
                             loop over HTTP (POST /query, GET /explain/
                             <session>/<node>, POST /feedback/<session>,
                             GET /healthz|/metrics|/trace/<id>|/logs|
                             /datasets);
                             repeatable --dataset flags serve several
                             named datasets from one registry (clients
                             pick one via the \"dataset\" field of POST
                             /query; unknown names get a typed 404);
                             datasets build lazily on first use unless
                             --eager builds them all upfront;
                             with --precompute, covered queries are
                             answered by exact linear combination of the
                             artifact's vectors and uncovered terms are
                             backfilled in the background;
                             SIGTERM or ctrl-c drains in-flight requests
  orex route [--addr A] [--workers N] [--base-port P]
             [--worker-addr H:P]... [--health-interval-ms N]
             [--timeout-ms N] [--max-connections N]
             [<worker flags: --dataset/--eager/--preset/--scale/
              --threads/--cache-entries/...>]
                             spawn N `orex serve` worker processes on
                             base-port, base-port+1, ... and front them
                             with a consistent-hash router: queries for
                             the same (dataset, query) pair stick to one
                             worker's warm cache, session requests follow
                             the worker encoded in their session id, and
                             /metrics and /logs aggregate the whole
                             fleet (each series/record labelled
                             worker=\"i\"); crashed workers are ejected,
                             relaunched with capped backoff, and
                             readmitted when healthy; --worker-addr
                             fronts already-running servers instead of
                             spawning; SIGTERM or ctrl-c drains the
                             router then cascades the drain to workers
  orex precompute [--preset NAME] [--scale F] [--top N] [--out FILE]
                  [--manifest FILE] [--check K] [--stats FILE]
                             build single-keyword rank vectors for the
                             top-N document-frequency terms through the
                             batched power-iteration kernel and persist
                             them with a manifest for `orex serve
                             --precompute`; --check K compares K combined
                             queries against live iteration
  orex analyze [--root DIR] [--format text|json] [--output FILE]
               [--explain ORXnnn]
                             run the workspace static-analysis gate
                             (rules ORX001–ORX010 from analyze.policy);
                             --explain prints a rule's rationale and waiver
                             syntax; exits 1 on any finding";

/// Every flag `run_trace` reads; each takes the argument after it.
const TRACE_VALUE_FLAGS: &[&str] = &["--format", "--preset", "--scale", "--out"];

/// `orex trace "<query>" [--format chrome|folded] [--preset NAME]
/// [--scale F] [--out FILE]` — run one query with tracing on and export
/// the span tree. Returns the process exit code.
pub fn run_trace(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<i32> {
    let positional = match positionals("trace", args, TRACE_VALUE_FLAGS, &[]) {
        Ok(p) => p,
        Err(msg) => {
            writeln!(err, "{msg}\n\n{SUBCOMMAND_HELP}")?;
            return Ok(2);
        }
    };
    let Some(query_text) = positional.first() else {
        writeln!(err, "trace: missing query string\n\n{SUBCOMMAND_HELP}")?;
        return Ok(2);
    };
    let format = flag_value(args, "--format").unwrap_or_else(|| "chrome".into());
    if format != "chrome" && format != "folded" {
        writeln!(err, "trace: unknown format '{format}' (chrome|folded)")?;
        return Ok(2);
    }
    let preset_name = flag_value(args, "--preset").unwrap_or_else(|| "dblp-top".into());
    let Some(preset) = Preset::parse(&preset_name) else {
        writeln!(
            err,
            "trace: unknown preset '{preset_name}' (dblp-top, dblp-complete, ds7, ds7-cancer)"
        )?;
        return Ok(2);
    };
    let scale: f64 = match flag_value(args, "--scale").map(|s| s.parse()) {
        None => 0.05,
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            writeln!(err, "trace: --scale expects a number")?;
            return Ok(2);
        }
    };

    let tracer = orex_telemetry::tracer();
    if !tracer.is_enabled() {
        writeln!(
            err,
            "trace: tracing is disabled (OREX_TELEMETRY=0); nothing to collect"
        )?;
        return Ok(2);
    }

    let dataset = preset.generate(scale);
    let (nodes, edges) = dataset.sizes();
    writeln!(
        err,
        "[trace] {} at scale {scale}: {nodes} nodes, {edges} edges",
        preset.name()
    )?;
    let system =
        ObjectRankSystem::new(dataset.graph, dataset.ground_truth, SystemConfig::default());
    let query = Query::parse(query_text);

    // Discard spans recorded while building the system so the export holds
    // exactly the query's trace.
    let _ = tracer.drain();
    match QuerySession::start(&system, &query) {
        Ok(session) => drop(session),
        Err(e) => {
            writeln!(err, "trace: query failed: {e}")?;
            return Ok(1);
        }
    }
    let records = tracer.drain();
    writeln!(err, "[trace] collected {} spans", records.len())?;

    let rendered = match format.as_str() {
        "chrome" => to_chrome_trace(&records),
        _ => to_folded_stacks(&records),
    };
    match flag_value(args, "--out") {
        Some(path) if path != "-" => {
            std::fs::write(&path, rendered.as_bytes()).map_err(|e| {
                std::io::Error::new(e.kind(), format!("trace: writing {path}: {e}"))
            })?;
            writeln!(err, "[trace] wrote {path}")?;
        }
        _ => writeln!(out, "{rendered}")?,
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>) -> std::io::Result<i32>) -> (i32, String) {
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = f(&mut out, &mut err).unwrap();
        (code, String::from_utf8(out).unwrap())
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trace_rejects_missing_query_and_bad_flags() {
        let (code, _) = run(|o, e| run_trace(&args(&[]), o, e));
        assert_eq!(code, 2);
        let (code, _) = run(|o, e| run_trace(&args(&["data", "--format", "xml"]), o, e));
        assert_eq!(code, 2);
        let (code, _) = run(|o, e| run_trace(&args(&["data", "--preset", "nope"]), o, e));
        assert_eq!(code, 2);
        let (code, _) = run(|o, e| run_trace(&args(&["data", "--trace-sampel", "10"]), o, e));
        assert_eq!(code, 2);
    }

    #[test]
    fn trace_emits_chrome_json_with_nested_session_spans() {
        let (code, out) = run(|o, e| {
            run_trace(
                &args(&["data", "--scale", "0.01", "--format", "chrome"]),
                o,
                e,
            )
        });
        if !orex_telemetry::tracer().is_enabled() {
            assert_eq!(code, 2);
            return;
        }
        assert_eq!(code, 0, "{out}");
        let parsed = serde_json::from_str(&out).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        // Root session span plus at least three nesting levels:
        // session.query -> session.rank -> authority.power ->
        // authority.power.iteration.
        for expected in [
            "session.query",
            "session.rank",
            "authority.power",
            "authority.power.iteration",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        let begins = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("E"))
            .count();
        assert_eq!(begins, ends, "unbalanced B/E events");
    }

    #[test]
    fn trace_folded_output_contains_rooted_stacks() {
        let (code, out) = run(|o, e| {
            run_trace(
                &args(&["data", "--scale", "0.01", "--format", "folded"]),
                o,
                e,
            )
        });
        if !orex_telemetry::tracer().is_enabled() {
            assert_eq!(code, 2);
            return;
        }
        assert_eq!(code, 0, "{out}");
        assert!(
            out.lines()
                .any(|l| l.starts_with("session.query;session.rank;authority.power")),
            "{out}"
        );
    }
}
