//! Non-interactive `orex` subcommands.
//!
//! `orex trace "<query>"` runs one query end-to-end with tracing enabled
//! and exports the collected span tree (Chrome trace-event JSON or folded
//! stacks for flamegraph tooling). `orex stats` renders the telemetry
//! snapshot (JSON or Prometheus text exposition). Both are plumbing
//! around the `orex-telemetry` APIs; anything ranking-related goes
//! through the ordinary [`QuerySession`] path so the traces reflect real
//! production spans.

use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
use orex_datagen::Preset;
use orex_ir::Query;
use orex_telemetry::export::{to_chrome_trace, to_folded_stacks};
use orex_telemetry::{Exemplar, HistogramSummary, Snapshot, BUCKETS};
use std::io::Write;

/// Usage text for the non-interactive subcommands (the REPL has its own
/// `help`).
pub const SUBCOMMAND_HELP: &str = "\
orex — explaining & reformulating authority flow queries

usage:
  orex                       start the interactive shell
  orex trace \"<query>\" [--format chrome|folded] [--preset NAME]
                             [--scale F] [--out FILE]
                             run one traced query and export its span tree
  orex trace --fleet <trace-id> [--addr A] [--out FILE]
                             fetch GET /trace/<id> from a running router
                             (or standalone server) and emit the stitched
                             Chrome trace: one clock-aligned process lane
                             per router/worker that recorded spans for
                             that trace id
  orex stats [--format json|prom] [--snapshot FILE]
                             dump telemetry, or re-render a saved snapshot
  orex serve [--addr A] [--preset NAME] [--scale F]
             [--dataset NAME=PRESET:SCALE[:PRECOMPUTE]]... [--eager]
             [--threads N]
             [--cache-entries N] [--session-ttl SECS] [--max-sessions N]
             [--max-body-kb N] [--timeout-ms N] [--trace-sample N]
             [--trace-slow-ms N] [--slow-ms N]
             [--status-interval-ms N]
             [--precompute FILE]
                             serve the interactive query/explain/feedback
                             loop over HTTP (POST /query, GET /explain/
                             <session>/<node>, POST /feedback/<session>,
                             GET /healthz|/metrics|/trace/<id>|/logs|
                             /debug/status|/datasets);
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
                             /metrics, /logs, and /debug/status aggregate
                             the whole fleet (each series/record labelled
                             worker=\"i\"); crashed workers are ejected,
                             relaunched with capped backoff, and
                             readmitted when healthy; --worker-addr
                             fronts already-running servers instead of
                             spawning; SIGTERM or ctrl-c drains the
                             router then cascades the drain to workers
  orex top [--addr A] [--interval-ms N] [--once]
                             poll GET /debug/status on a running server
                             and render per-endpoint RED metrics,
                             occupancy, and SLO burn rates as a terminal
                             dashboard; --once prints a single frame
                             (for scripts and CI)
  orex precompute [--preset NAME] [--scale F] [--top N] [--out FILE]
                  [--manifest FILE] [--check K] [--stats FILE]
                             build single-keyword rank vectors for the
                             top-N document-frequency terms through the
                             batched power-iteration kernel and persist
                             them with a manifest for `orex serve
                             --precompute`; --check K compares K combined
                             queries against live iteration
  orex logs [FILE] [--level L] [--target PREFIX] [--since SEQ]
            [--limit N] [--trace ID] [--format text|json]
                             filter a JSON-lines log capture (a file, or
                             stdin — e.g. piped from `curl .../logs`) and
                             render it as text or re-emit JSON lines
  orex analyze [--root DIR] [--format text|json|sarif] [--output FILE]
               [--cache FILE] [--explain ORXnnn]
                             run the workspace static-analysis gate
                             (rules ORX001–ORX010 from analyze.policy);
                             --cache reuses per-file analyses across runs,
                             --explain prints a rule's rationale and waiver
                             syntax; exits 1 on any finding";

/// Returns the value following `flag` in `args`.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The positional arguments: everything not a flag or a flag's value.
fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        out.push(a.clone());
    }
    out
}

/// `orex trace "<query>" [--format chrome|folded] [--preset NAME]
/// [--scale F] [--out FILE]` — run one query with tracing on and export
/// the span tree. Returns the process exit code.
pub fn run_trace(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<i32> {
    if args.iter().any(|a| a == "--fleet") {
        return run_trace_fleet(args, out, err);
    }
    let positional = positionals(args);
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

/// `orex trace --fleet <trace-id> [--addr A] [--out FILE]` — fetch the
/// stitched cross-process Chrome trace for one trace id from a running
/// router (or standalone server) and print it (or write it to `--out`).
/// The id is accepted in decimal (as printed by `orex logs` and metric
/// exemplars) or hex (as carried in the `X-Orex-Trace` header).
fn run_trace_fleet(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<i32> {
    let Some(raw_id) = flag_value(args, "--fleet") else {
        writeln!(
            err,
            "trace: --fleet expects a trace id\n\n{SUBCOMMAND_HELP}"
        )?;
        return Ok(2);
    };
    let hex = raw_id.strip_prefix("0x").unwrap_or(&raw_id);
    let id: u64 = match raw_id.parse().or_else(|_| u64::from_str_radix(hex, 16)) {
        Ok(0) | Err(_) => {
            writeln!(
                err,
                "trace: --fleet expects a decimal or hex trace id, got '{raw_id}'"
            )?;
            return Ok(2);
        }
        Ok(id) => id,
    };
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7470".into());
    let client = orex_server::HttpClient::new(addr.clone());
    let rendered = match client.get(&format!("/trace/{id}")) {
        Ok(reply) if reply.status == 200 => reply.body_str().unwrap_or_default().to_string(),
        Ok(reply) => {
            writeln!(
                err,
                "trace: {addr} returned {} for trace {id}: {}",
                reply.status,
                reply.body_str().unwrap_or("").trim_end()
            )?;
            return Ok(1);
        }
        Err(e) => {
            writeln!(err, "trace: fetching /trace/{id} from {addr}: {e}")?;
            return Ok(1);
        }
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

/// `orex stats [--format json|prom] [--snapshot FILE]` — dump the
/// telemetry snapshot of this process, or re-render a saved one.
/// Returns the process exit code.
pub fn run_stats(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<i32> {
    let format = flag_value(args, "--format").unwrap_or_else(|| "json".into());
    if format != "json" && format != "prom" {
        writeln!(err, "stats: unknown format '{format}' (json|prom)")?;
        return Ok(2);
    }
    let current = match flag_value(args, "--snapshot") {
        Some(path) => match load_snapshot(&path) {
            Ok(s) => s,
            Err(e) => {
                writeln!(err, "stats: {e}")?;
                return Ok(2);
            }
        },
        None => orex_telemetry::global().snapshot(),
    };
    match format.as_str() {
        "prom" => write!(out, "{}", current.to_prometheus())?,
        _ => writeln!(out, "{}", current.to_json_pretty())?,
    }
    Ok(0)
}

/// Loads a telemetry [`Snapshot`] from a JSON file. Accepts both raw
/// snapshot dumps (`orex stats > f.json`) and bench result artifacts,
/// whose snapshot lives under a top-level `"telemetry"` key.
pub fn load_snapshot(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let root = value.get("telemetry").unwrap_or(&value);
    snapshot_from_json(root).map_err(|e| format!("parsing {path}: {e}"))
}

/// Decodes the JSON layout produced by [`Snapshot::to_json_pretty`] (and
/// mirrored by the bench harness) back into a [`Snapshot`]. Unknown keys
/// are ignored; missing histogram fields default to zero so older
/// artifacts without bucket arrays still load.
pub fn snapshot_from_json(v: &serde_json::Value) -> Result<Snapshot, String> {
    let obj = v.as_object().ok_or("snapshot is not a JSON object")?;
    let mut snapshot = Snapshot::default();
    if let Some(counters) = obj.get("counters").and_then(|c| c.as_object()) {
        for (name, val) in counters.iter() {
            let n = val
                .as_u64()
                .or_else(|| val.as_f64().map(|f| f as u64))
                .ok_or_else(|| format!("counter {name:?} is not a number"))?;
            snapshot.counters.insert(name.clone(), n);
        }
    }
    if let Some(gauges) = obj.get("gauges").and_then(|c| c.as_object()) {
        for (name, val) in gauges.iter() {
            let n = val
                .as_f64()
                .ok_or_else(|| format!("gauge {name:?} is not a number"))?;
            snapshot.gauges.insert(name.clone(), n);
        }
    }
    if let Some(histograms) = obj.get("histograms").and_then(|c| c.as_object()) {
        for (name, val) in histograms.iter() {
            let h = val
                .as_object()
                .ok_or_else(|| format!("histogram {name:?} is not an object"))?;
            let f = |key: &str| h.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
            let mut summary = HistogramSummary {
                count: h.get("count").and_then(|v| v.as_u64()).unwrap_or(0),
                sum: f("sum"),
                min: f("min"),
                max: f("max"),
                mean: f("mean"),
                p50: f("p50"),
                p95: f("p95"),
                ..HistogramSummary::default()
            };
            if let Some(buckets) = h.get("buckets").and_then(|v| v.as_array()) {
                for (i, b) in buckets.iter().take(BUCKETS).enumerate() {
                    summary.buckets[i] = b.as_u64().unwrap_or(0);
                }
            }
            // Sparse exemplar array: [{"bucket":i,"trace":t,"value":v}].
            // Kept so a re-export (`orex stats --snapshot f.json --format
            // prom`) preserves the trace-id links.
            if let Some(exemplars) = h.get("exemplars").and_then(|v| v.as_array()) {
                for e in exemplars {
                    let Some(i) = e.get("bucket").and_then(|v| v.as_u64()) else {
                        continue;
                    };
                    let Some(trace) = e.get("trace").and_then(|v| v.as_u64()) else {
                        continue;
                    };
                    if let Some(slot) = summary.exemplars.get_mut(i as usize) {
                        *slot = Some(Exemplar {
                            trace,
                            value: e.get("value").and_then(|v| v.as_f64()).unwrap_or(0.0),
                        });
                    }
                }
            }
            snapshot.histograms.insert(name.clone(), summary);
        }
    }
    Ok(snapshot)
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
    }

    #[test]
    fn trace_fleet_rejects_bad_ids_and_reports_unreachable_routers() {
        // No id value at all (the flag is last, so nothing follows it).
        let (code, _) = run(|o, e| run_trace(&args(&["--fleet"]), o, e));
        assert_eq!(code, 2);
        // Neither decimal nor hex.
        let (code, _) = run(|o, e| run_trace(&args(&["--fleet", "not-an-id"]), o, e));
        assert_eq!(code, 2);
        // Zero is never a valid trace id.
        let (code, _) = run(|o, e| run_trace(&args(&["--fleet", "0"]), o, e));
        assert_eq!(code, 2);
        // A well-formed id against a dead address is a runtime error (1),
        // not a usage error (2). Port 9 is discard/refused.
        let (code, _) = run(|o, e| {
            run_trace(
                &args(&["--fleet", "0xdeadbeef", "--addr", "127.0.0.1:9"]),
                o,
                e,
            )
        });
        assert_eq!(code, 1);
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

    #[test]
    fn stats_prom_format_renders_exposition() {
        orex_telemetry::global().counter("cli.test.prom").incr();
        let (code, out) = run(|o, e| run_stats(&args(&["--format", "prom"]), o, e));
        assert_eq!(code, 0);
        if orex_telemetry::global().is_enabled() {
            assert!(out.contains("# TYPE orex_cli_test_prom counter"), "{out}");
        }
    }

    #[test]
    fn stats_snapshot_rerenders_a_bench_artifact() {
        let path = std::env::temp_dir().join("orex-stats-snapshot-test.json");
        std::fs::write(
            &path,
            r#"{"telemetry":{"counters":{"server.requests":41},"gauges":{},"histograms":{}}}"#,
        )
        .unwrap();
        let file = path.display().to_string();
        let (code, out) =
            run(|o, e| run_stats(&args(&["--snapshot", &file, "--format", "prom"]), o, e));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("orex_server_requests 41"), "{out}");
        let (code, _) = run(|o, e| run_stats(&args(&["--snapshot", "/nonexistent"]), o, e));
        assert_eq!(code, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let recorder = orex_telemetry::Recorder::new();
        recorder.counter("a.count").add(7);
        recorder.gauge("b.level").set(2.5);
        recorder.histogram("c.us").record(12.0);
        recorder
            .histogram("c.us")
            .record_with_exemplar(48.0, Some(901));
        let snapshot = recorder.snapshot();
        let parsed =
            snapshot_from_json(&serde_json::from_str(&snapshot.to_json_pretty()).unwrap()).unwrap();
        assert_eq!(parsed.counters, snapshot.counters);
        assert_eq!(parsed.gauges, snapshot.gauges);
        assert_eq!(
            parsed.histograms["c.us"].buckets,
            snapshot.histograms["c.us"].buckets
        );
        assert_eq!(
            parsed.histograms["c.us"].mean,
            snapshot.histograms["c.us"].mean
        );
        // Exemplar trace links survive the roundtrip, so a prom
        // re-export of a saved snapshot keeps its `# {trace_id=...}`.
        assert_eq!(
            parsed.histograms["c.us"].exemplars,
            snapshot.histograms["c.us"].exemplars
        );
        assert!(parsed.histograms["c.us"]
            .exemplars
            .iter()
            .flatten()
            .any(|e| e.trace == 901 && e.value == 48.0));
        assert!(parsed.to_prometheus().contains(r#"# {trace_id="901"} 48"#));
    }
}
