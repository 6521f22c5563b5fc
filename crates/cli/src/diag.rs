//! The `orex top` subcommand: an operator view over a running
//! server's status board.
//!
//! `orex top` polls `GET /debug/status?format=json` and renders the RED
//! rows, occupancy, and request-rate history as a terminal dashboard:
//!
//! ```text
//! orex top --addr 127.0.0.1:7474 --interval-ms 1000
//! ```

use orex_server::{sparkline, HttpClient};
use std::fmt::Write as _;
use std::io::Write;
use std::time::Duration;

use crate::subcommands::SUBCOMMAND_HELP;

/// Address used when `--addr` is omitted: the `orex serve` default.
const DEFAULT_ADDR: &str = "127.0.0.1:7474";

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `GET path` on `client`: the body of a `200`, or the message to
/// print when there is none.
fn fetch(client: &HttpClient, path: &str) -> Result<String, String> {
    let addr = client.addr();
    match client.get(path) {
        Ok(reply) => {
            let body = String::from_utf8_lossy(&reply.body);
            if reply.status == 200 {
                Ok(body.into_owned())
            } else {
                Err(format!("{addr} answered {}: {}", reply.status, body.trim()))
            }
        }
        Err(e) => Err(format!(
            "fetching {path} from {addr}: {e}\n\n{SUBCOMMAND_HELP}"
        )),
    }
}

fn fmt_count(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.1}M", v / 1_000_000.0)
    } else if v >= 10_000.0 {
        format!("{:.0}k", v / 1_000.0)
    } else {
        format!("{v:.0}")
    }
}

/// Renders a `/debug/status?format=json` document as a terminal
/// dashboard. Understands both shapes: a single server's doc (RED
/// table, occupancy, sparklines) and a router's fleet doc (router
/// summary plus one RED row per worker).
fn render_status(addr: &str, doc: &serde_json::Value) -> String {
    if doc.get("router").is_some() && doc.get("workers").is_some() {
        return render_fleet_status(doc);
    }
    let mut out = String::new();
    let uptime = doc.get("uptime_s").and_then(|v| v.as_f64()).unwrap_or(0.0);
    let recent_errors = doc
        .get("recent_errors")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "orex top — {addr}   up {uptime:.0}s   recent errors: {recent_errors}"
    );
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "  {:<10} {:>9} {:>8} {:>6} {:>10} {:>10}",
        "endpoint", "requests", "req/s", "5xx", "p50(us)", "p95(us)"
    );
    for row in doc
        .get("endpoints")
        .and_then(|v| v.as_array())
        .map(Vec::as_slice)
        .unwrap_or_default()
    {
        let s = |k: &str| row.get(k).and_then(|v| v.as_str()).unwrap_or("?");
        let f = |k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  {:<10} {:>9} {:>8.1} {:>6} {:>10} {:>10}",
            s("name"),
            f("requests") as u64,
            f("rate_per_s"),
            f("errors_5xx") as u64,
            fmt_count(f("p50_us")),
            fmt_count(f("p95_us")),
        );
    }

    if let Some(occ) = doc.get("occupancy") {
        let g = |k: &str| occ.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  occupancy: sessions {}  cache {}  precompute {}  spans {}  logs {}",
            g("sessions"),
            g("cache"),
            g("precompute_terms"),
            g("spans"),
            g("logs"),
        );
    }

    if let Some(history) = doc.get("history") {
        let series = |k: &str| -> Vec<f64> {
            history
                .get(k)
                .and_then(|v| v.as_array())
                .map(|a| a.iter().filter_map(|v| v.as_f64()).collect())
                .unwrap_or_default()
        };
        let rates = series("requests_per_s");
        let p95s = series("request_p95_us");
        if !rates.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "  req/s   {}  (peak {:.1})",
                sparkline(&rates),
                rates.iter().cloned().fold(0.0, f64::max)
            );
            let _ = writeln!(
                out,
                "  p95(us) {}  (peak {})",
                sparkline(&p95s),
                fmt_count(p95s.iter().cloned().fold(0.0, f64::max))
            );
        }
    }
    out
}

/// Renders the router's fleet status doc: a summary line, then one RED
/// row per worker (requests, rate, 5xx, worst p95) computed
/// from each worker's inlined status doc.
fn render_fleet_status(doc: &serde_json::Value) -> String {
    let mut out = String::new();
    let router = doc.get("router");
    let rg = |k: &str| {
        router
            .and_then(|r| r.get(k))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let uptime = router
        .and_then(|r| r.get("uptime_s"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let router_addr = router
        .and_then(|r| r.get("addr"))
        .and_then(|v| v.as_str())
        .unwrap_or("?");
    let _ = writeln!(
        out,
        "orex top — router {router_addr}   workers {} (healthy {})   up {uptime:.0}s   requests {}   retries {}   worker restarts {}",
        rg("workers"),
        rg("healthy"),
        rg("requests"),
        rg("retries"),
        rg("worker_restarts"),
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<6} {:<18} {:<6} {:>8} {:>9} {:>8} {:>6} {:>10}",
        "worker", "addr", "health", "restarts", "requests", "req/s", "5xx", "p95(us)"
    );

    for row in doc
        .get("workers")
        .and_then(|v| v.as_array())
        .map(Vec::as_slice)
        .unwrap_or_default()
    {
        let index = row.get("index").and_then(|v| v.as_u64()).unwrap_or(0);
        let worker_addr = row.get("addr").and_then(|v| v.as_str()).unwrap_or("?");
        let healthy = row
            .get("healthy")
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        let restarts = row.get("restarts").and_then(|v| v.as_u64()).unwrap_or(0);
        let status = row.get("status");
        // Down (or not-yet-scraped) workers have a Null status doc.
        let Some(status) = status.filter(|s| s.as_object().is_some()) else {
            let _ = writeln!(
                out,
                "  {index:<6} {worker_addr:<18} {:<6} {restarts:>8} {:>9} {:>8} {:>6} {:>10}",
                if healthy { "ok" } else { "DOWN" },
                "-",
                "-",
                "-",
                "-",
            );
            continue;
        };
        // Fold the worker's per-endpoint RED rows into one fleet row.
        let mut requests = 0u64;
        let mut rate = 0.0f64;
        let mut errors_5xx = 0u64;
        let mut p95 = 0.0f64;
        for ep in status
            .get("endpoints")
            .and_then(|v| v.as_array())
            .map(Vec::as_slice)
            .unwrap_or_default()
        {
            let f = |k: &str| ep.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
            requests += f("requests") as u64;
            rate += f("rate_per_s");
            errors_5xx += f("errors_5xx") as u64;
            p95 = p95.max(f("p95_us"));
        }
        let _ = writeln!(
            out,
            "  {index:<6} {worker_addr:<18} {:<6} {restarts:>8} {requests:>9} {rate:>8.1} {errors_5xx:>6} {:>10}",
            if healthy { "ok" } else { "DOWN" },
            fmt_count(p95),
        );
    }
    out
}

/// `orex top [--addr A] [--interval-ms N] [--once]` — poll a running
/// server's (or router's) `/debug/status?format=json` and render it as
/// a terminal dashboard — against `orex route` the frame shows one RED
/// row per worker; `--once` prints a single frame and exits (for
/// scripts and CI). Returns the process exit code.
pub fn run_top(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> std::io::Result<i32> {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| DEFAULT_ADDR.into());
    let interval: u64 = match flag_value(args, "--interval-ms").map(|s| s.parse()) {
        None => 2000,
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            writeln!(err, "top: --interval-ms expects an unsigned integer")?;
            return Ok(2);
        }
    };
    let once = args.iter().any(|a| a == "--once");

    // One keep-alive connection serves every refresh.
    let client = HttpClient::new(addr.clone());
    loop {
        let doc = match fetch(&client, "/debug/status?format=json") {
            Ok(body) => match serde_json::from_str(&body) {
                Ok(v) => v,
                Err(e) => {
                    writeln!(err, "top: {addr} sent unparseable status JSON: {e}")?;
                    return Ok(1);
                }
            },
            Err(msg) => {
                writeln!(err, "top: {msg}")?;
                return Ok(1);
            }
        };
        if once {
            write!(out, "{}", render_status(&addr, &doc))?;
            return Ok(0);
        }
        // Clear the terminal between frames so the dashboard redraws in
        // place, like top(1).
        write!(out, "\x1b[2J\x1b[H{}", render_status(&addr, &doc))?;
        out.flush()?;
        std::thread::sleep(Duration::from_millis(interval.max(100)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn run(f: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>) -> std::io::Result<i32>) -> (i32, String) {
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = f(&mut out, &mut err).unwrap();
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn top_renders_fleet_status_docs_with_per_worker_rows() {
        let doc: serde_json::Value = serde_json::from_str(
            r#"{
              "router": {"addr": "127.0.0.1:7470", "workers": 2, "healthy": 1,
                         "requests": 42, "retries": 3, "worker_restarts": 1,
                         "uptime_s": 12.5},
              "workers": [
                {"index": 0, "addr": "127.0.0.1:7480", "healthy": true, "restarts": 0,
                 "status": {
                   "endpoints": [
                     {"name": "query", "requests": 30, "rate_per_s": 3.0,
                      "errors_5xx": 0, "p50_us": 100, "p95_us": 900},
                     {"name": "explain", "requests": 10, "rate_per_s": 1.0,
                      "errors_5xx": 1, "p50_us": 50, "p95_us": 400}
                   ]
                 }},
                {"index": 1, "addr": "127.0.0.1:7481", "healthy": false, "restarts": 2,
                 "status": null}
              ]
            }"#,
        )
        .expect("fixture doc");
        let frame = render_status("127.0.0.1:7470", &doc);
        assert!(frame.contains("workers 2 (healthy 1)"), "{frame}");
        assert!(frame.contains("retries 3"), "{frame}");
        // Worker 0: folded RED row (30+10 requests, 1 5xx, worst p95).
        assert!(frame.contains("127.0.0.1:7480"), "{frame}");
        assert!(frame.contains("40"), "{frame}");
        assert!(frame.contains("900"), "{frame}");
        // Worker 1 is down: dashes, no fabricated numbers.
        assert!(frame.contains("DOWN"), "{frame}");

        // A single-server doc still renders the classic dashboard.
        let single: serde_json::Value =
            serde_json::from_str(r#"{"uptime_s": 5.0, "recent_errors": 0, "endpoints": []}"#)
                .expect("single doc");
        let frame = render_status("127.0.0.1:7474", &single);
        assert!(frame.contains("orex top — 127.0.0.1:7474"), "{frame}");
    }

    #[test]
    fn top_rejects_bad_flags_and_unreachable_server() {
        let (code, _) = run(|o, e| run_top(&args(&["--interval-ms", "soon"]), o, e));
        assert_eq!(code, 2);
        let (code, _) = run(|o, e| run_top(&args(&["--addr", "127.0.0.1:9", "--once"]), o, e));
        assert_eq!(code, 1);
    }

    #[test]
    fn render_status_formats_red_occupancy_slos_and_sparklines() {
        let doc: serde_json::Value = serde_json::from_str(
            r#"{
                "uptime_s": 12.7,
                "recent_errors": 2,
                "endpoints": [
                    {"name":"request","requests":120,"rate_per_s":3.5,
                     "errors_5xx":1,"p50_us":900.0,"p95_us":42000.0},
                    {"name":"query","requests":80,"rate_per_s":2.1,
                     "errors_5xx":0,"p50_us":1500.0,"p95_us":2500000.0}
                ],
                "occupancy": {"sessions":4,"cache":7,"precompute_terms":0,
                              "spans":12,"logs":300},
                "history": {"samples":3,
                            "requests_per_s":[0.0,2.0,4.0],
                            "request_p95_us":[100.0,200.0,400.0]}
            }"#,
        )
        .unwrap();
        let text = render_status("127.0.0.1:7474", &doc);
        assert!(text.contains("up 13s"), "{text}");
        assert!(text.contains("recent errors: 2"), "{text}");
        assert!(text.contains("request"), "{text}");
        assert!(
            text.contains("2.5M"),
            "large p95 rendered compactly: {text}"
        );
        assert!(text.contains("sessions 4"), "{text}");
        assert!(text.contains("req/s"), "{text}");
        assert!(text.contains('█'), "sparkline present: {text}");
    }
}
