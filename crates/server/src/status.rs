//! The operator surface behind `GET /debug/status`.
//!
//! A [`StatusBoard`] keeps a bounded ring of metric snapshots, seeded
//! with one at construction and topped up by the handler on each poll.
//! From that history it renders two views of identical content: a
//! zero-dependency HTML page with per-endpoint RED rows (rate / errors /
//! duration), occupancy gauges and unicode sparklines, and a JSON
//! document that `orex top` (and CI assertions) consume.

use orex_telemetry::Snapshot;
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Snapshot history retained for sparklines. Samples accrue one per
/// poll (the HTML page's 2s meta-refresh, or `orex top --interval-ms`),
/// so at a 2s poll this covers ~4 minutes.
const MAX_HISTORY: usize = 120;

/// The endpoints the RED table reports, with the metric names each row
/// reads: (label, request counter, 5xx counter, latency histogram).
const ENDPOINTS: [(&str, &str, &str, &str); 7] = [
    (
        "request",
        "server.requests",
        "server.responses_5xx",
        "server.request_us",
    ),
    (
        "query",
        "server.query_requests",
        "server.query_5xx",
        "server.query_us",
    ),
    (
        "explain",
        "server.explain_requests",
        "server.explain_5xx",
        "server.explain_us",
    ),
    (
        "feedback",
        "server.feedback_requests",
        "server.feedback_5xx",
        "server.feedback_us",
    ),
    (
        "trace",
        "server.trace_requests",
        "server.trace_5xx",
        "server.trace_us",
    ),
    (
        "logs",
        "server.logs_requests",
        "server.logs_5xx",
        "server.logs_us",
    ),
    (
        "metrics",
        "server.metrics_requests",
        "server.metrics_5xx",
        "server.metrics_us",
    ),
];

/// Storage occupancy figures the handler reads off the server state.
#[derive(Clone, Copy, Debug, Default)]
pub struct Occupancy {
    /// Live sessions.
    pub sessions: usize,
    /// Cached query results.
    pub cache: usize,
    /// Precomputed rank vectors loaded (0 when serving live-only).
    pub precompute_terms: usize,
    /// Spans the tracer retains for `GET /trace/<id>`.
    pub spans: usize,
    /// Log records the logger retains for `GET /logs`.
    pub logs: usize,
    /// ERROR records the logger currently retains.
    pub recent_errors: usize,
}

/// One point of sparkline history.
struct Sample {
    at: Duration,
    snapshot: Snapshot,
}

/// Bounded snapshot history; see the module docs.
pub struct StatusBoard {
    epoch: Instant,
    history: Mutex<Vec<Sample>>,
}

/// One endpoint's RED row.
struct RedRow {
    name: &'static str,
    requests: u64,
    rate_per_s: f64,
    errors_5xx: u64,
    p50_us: f64,
    p95_us: f64,
}

impl Default for StatusBoard {
    fn default() -> Self {
        Self::new()
    }
}

impl StatusBoard {
    /// A board whose history starts with one snapshot of the global
    /// recorder, so the first poll rates traffic since construction.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            history: Mutex::new(vec![Sample {
                at: Duration::ZERO,
                snapshot: orex_telemetry::global().snapshot(),
            }]),
        }
    }

    /// Takes one snapshot of the global recorder into the history ring.
    pub fn collect(&self) {
        let at = self.epoch.elapsed();
        let snapshot = orex_telemetry::global().snapshot();
        let mut history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        history.push(Sample { at, snapshot });
        if history.len() > MAX_HISTORY {
            let excess = history.len() - MAX_HISTORY;
            history.drain(..excess);
        }
    }

    /// [`StatusBoard::collect`], but only when the newest sample is
    /// older than `max_age` — lets the request handler guarantee fresh
    /// data without flooding the history under polling.
    pub fn collect_if_stale(&self, max_age: Duration) {
        let stale = {
            let history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
            match history.last() {
                Some(s) => self.epoch.elapsed().saturating_sub(s.at) >= max_age,
                None => true,
            }
        };
        if stale {
            self.collect();
        }
    }

    /// RED rows for every endpoint that has seen traffic. Rates compare
    /// the newest snapshot against the newest one at least `window`
    /// older, or against the oldest retained one if none is.
    fn red_rows(history: &[Sample], window: Duration) -> Vec<RedRow> {
        let (Some(oldest), Some(latest)) = (history.first(), history.last()) else {
            return Vec::new();
        };
        let base = latest
            .at
            .checked_sub(window)
            .and_then(|from| history.iter().rev().find(|s| s.at <= from))
            .unwrap_or(oldest);
        let dt = (latest.at.saturating_sub(base.at)).as_secs_f64();
        ENDPOINTS
            .iter()
            .filter_map(|&(name, req, bad, hist)| {
                let count = |snap: &Snapshot, key: &str| {
                    snap.counters
                        .get(key)
                        .copied()
                        .unwrap_or_else(|| snap.histograms.get(key).map_or(0, |h| h.count))
                };
                let requests = count(&latest.snapshot, req)
                    .max(latest.snapshot.histograms.get(hist).map_or(0, |h| h.count));
                if requests == 0 {
                    return None;
                }
                let delta = requests.saturating_sub(
                    count(&base.snapshot, req)
                        .max(base.snapshot.histograms.get(hist).map_or(0, |h| h.count)),
                );
                let summary = latest.snapshot.histograms.get(hist);
                Some(RedRow {
                    name,
                    requests,
                    rate_per_s: if dt > 0.0 { delta as f64 / dt } else { 0.0 },
                    errors_5xx: latest.snapshot.counters.get(bad).copied().unwrap_or(0),
                    p50_us: summary.map_or(0.0, |h| h.p50),
                    p95_us: summary.map_or(0.0, |h| h.p95),
                })
            })
            .collect()
    }

    /// Request-rate and request-p95 series across the history ring, for
    /// sparklines: `(requests_per_s, p95_us)` per retained sample.
    fn history_series(history: &[Sample]) -> (Vec<f64>, Vec<f64>) {
        let mut rates = Vec::with_capacity(history.len());
        let mut p95s = Vec::with_capacity(history.len());
        let mut prev: Option<(&Sample, u64)> = None;
        for s in history {
            let total = s
                .snapshot
                .counters
                .get("server.requests")
                .copied()
                .unwrap_or(0);
            let rate = match prev {
                Some((p, ptotal)) => {
                    let dt = s.at.saturating_sub(p.at).as_secs_f64();
                    if dt > 0.0 {
                        total.saturating_sub(ptotal) as f64 / dt
                    } else {
                        0.0
                    }
                }
                None => 0.0,
            };
            rates.push(rate);
            p95s.push(
                s.snapshot
                    .histograms
                    .get("server.request_us")
                    .map_or(0.0, |h| h.p95),
            );
            prev = Some((s, total));
        }
        (rates, p95s)
    }

    /// The machine-readable status document (`?format=json`).
    pub fn render_json(&self, occupancy: Occupancy) -> String {
        let history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        let rows = Self::red_rows(&history, Duration::from_secs(60));
        let (rates, p95s) = Self::history_series(&history);
        let endpoints: Vec<Value> = rows
            .iter()
            .map(|r| {
                serde_json::json!({
                    "name": r.name,
                    "requests": r.requests,
                    "rate_per_s": r.rate_per_s,
                    "errors_5xx": r.errors_5xx,
                    "p50_us": r.p50_us,
                    "p95_us": r.p95_us,
                })
            })
            .collect();
        let doc = serde_json::json!({
            "uptime_s": self.epoch.elapsed().as_secs_f64(),
            "endpoints": endpoints,
            "occupancy": serde_json::json!({
                "sessions": occupancy.sessions,
                "cache": occupancy.cache,
                "precompute_terms": occupancy.precompute_terms,
                "spans": occupancy.spans,
                "logs": occupancy.logs,
            }),
            "recent_errors": occupancy.recent_errors,
            "history": serde_json::json!({
                "samples": history.len(),
                "requests_per_s": rates,
                "request_p95_us": p95s,
            }),
        });
        serde_json::to_string(&doc).unwrap_or_default()
    }

    /// The human-readable status page (default format).
    pub fn render_html(&self, occupancy: Occupancy) -> String {
        let history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        let rows = Self::red_rows(&history, Duration::from_secs(60));
        let (rates, p95s) = Self::history_series(&history);
        let mut out = String::with_capacity(4096);
        out.push_str(
            "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
             <meta http-equiv=\"refresh\" content=\"2\">\
             <title>orex status</title><style>\
             body{font-family:monospace;background:#111;color:#ddd;margin:2em}\
             table{border-collapse:collapse;margin:1em 0}\
             td,th{border:1px solid #444;padding:4px 10px;text-align:right}\
             th{background:#222}td:first-child,th:first-child{text-align:left}\
             .spark{font-size:1.2em;letter-spacing:1px}\
             h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.5em}\
             </style></head><body><h1>orex status</h1>",
        );
        let _ = write!(
            out,
            "<p>uptime {:.0}s &middot; {} history samples</p>",
            self.epoch.elapsed().as_secs_f64(),
            history.len()
        );
        out.push_str("<h2>endpoints (RED, 60s window)</h2><table><tr><th>endpoint</th><th>req</th><th>rate/s</th><th>5xx</th><th>p50 &micro;s</th><th>p95 &micro;s</th></tr>");
        for r in &rows {
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{:.1}</td><td>{}</td><td>{:.0}</td><td>{:.0}</td></tr>",
                r.name, r.requests, r.rate_per_s, r.errors_5xx, r.p50_us, r.p95_us
            );
        }
        if rows.is_empty() {
            out.push_str("<tr><td colspan=\"6\">no traffic yet</td></tr>");
        }
        out.push_str("</table><h2>occupancy</h2><table><tr><th>sessions</th><th>cache</th><th>precompute terms</th><th>spans</th><th>logs</th><th>recent errors</th></tr>");
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr></table>",
            occupancy.sessions,
            occupancy.cache,
            occupancy.precompute_terms,
            occupancy.spans,
            occupancy.logs,
            occupancy.recent_errors
        );
        out.push_str("<h2>history</h2>");
        let _ = write!(
            out,
            "<p>req/s <span class=\"spark\">{}</span></p>\
             <p>p95&nbsp;&nbsp; <span class=\"spark\">{}</span></p>",
            sparkline(&rates),
            sparkline(&p95s)
        );
        out.push_str("</body></html>");
        out
    }
}

/// Renders values as a fixed-height unicode sparkline, scaled to the
/// series max (all-zero series render as a flat baseline).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }

    #[test]
    fn board_collects_and_renders_both_formats() {
        let telemetry = orex_telemetry::global();
        telemetry.counter("server.requests").incr();
        telemetry.histogram("server.request_us").record(1000.0);
        let board = StatusBoard::new();
        board.collect();
        board.collect();
        let json = board.render_json(Occupancy::default());
        assert!(json.contains("\"endpoints\""), "{json}");
        assert!(json.contains("\"request\""), "{json}");
        let html = board.render_html(Occupancy {
            sessions: 2,
            ..Occupancy::default()
        });
        assert!(html.contains("<td>request</td>"), "{html}");
        assert!(html.contains("orex status"), "{html}");
    }

    #[test]
    fn first_poll_rates_run_from_the_board_start() {
        let board = StatusBoard::new();
        let telemetry = orex_telemetry::global();
        telemetry.counter("server.requests").incr();
        telemetry.histogram("server.request_us").record(1000.0);
        std::thread::sleep(Duration::from_millis(20));
        board.collect();
        let history = board.history.lock().unwrap();
        let rows = StatusBoard::red_rows(&history, Duration::from_secs(60));
        let request = rows.iter().find(|r| r.name == "request").unwrap();
        assert!(request.rate_per_s > 0.0, "{}", request.rate_per_s);
    }

    #[test]
    fn collect_if_stale_skips_fresh_history() {
        let board = StatusBoard::new();
        board.collect_if_stale(Duration::ZERO);
        board.collect_if_stale(Duration::from_secs(60));
        let history = board.history.lock().unwrap();
        assert_eq!(history.len(), 2, "second collect was fresh-skipped");
    }

    #[test]
    fn history_stays_bounded() {
        let board = StatusBoard::new();
        for _ in 0..(MAX_HISTORY + 50) {
            board.collect();
        }
        let history = board.history.lock().unwrap();
        assert_eq!(history.len(), MAX_HISTORY);
    }
}
