//! The operator surface behind `GET /debug/status`.
//!
//! A [`StatusBoard`] keeps a bounded ring of metric snapshots (fed by
//! the server's background collector and topped up on demand by the
//! handler) and an [`SloTracker`] evaluated over the same history. From
//! those it renders two views of identical content: a zero-dependency
//! HTML page with per-endpoint RED rows (rate / errors / duration),
//! occupancy gauges, burn-rate SLO rows and unicode sparklines, and a
//! JSON document that `orex top` (and CI assertions) consume.

use orex_telemetry::{default_slos, SloTracker, SloWindows, Snapshot};
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Snapshot history retained for sparklines (at the collector's default
/// 2s cadence this covers ~4 minutes).
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

struct Inner {
    history: Vec<Sample>,
    slo: SloTracker,
}

/// Bounded snapshot history + SLO evaluation; see the module docs.
pub struct StatusBoard {
    epoch: Instant,
    inner: Mutex<Inner>,
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
    /// A board tracking the default serving SLOs from an empty history.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                history: Vec::new(),
                slo: SloTracker::new(default_slos(), SloWindows::default()),
            }),
        }
    }

    /// Takes one snapshot of the global recorder into the history ring,
    /// advances the SLO tracker, and publishes `slo.*` gauges back into
    /// the recorder (surfacing as `orex_slo_*` on `/metrics`).
    pub fn collect(&self) {
        let recorder = orex_telemetry::global();
        let at = self.epoch.elapsed();
        let snapshot = recorder.snapshot();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.slo.observe(at, &snapshot);
        inner.slo.publish(recorder);
        inner.history.push(Sample { at, snapshot });
        if inner.history.len() > MAX_HISTORY {
            let excess = inner.history.len() - MAX_HISTORY;
            inner.history.drain(..excess);
        }
    }

    /// [`StatusBoard::collect`], but only when the newest sample is
    /// older than `max_age` — lets the request handler guarantee fresh
    /// data without flooding the history under polling.
    pub fn collect_if_stale(&self, max_age: Duration) {
        let stale = {
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            match inner.history.last() {
                Some(s) => self.epoch.elapsed().saturating_sub(s.at) >= max_age,
                None => true,
            }
        };
        if stale {
            self.collect();
        }
    }

    /// RED rows for every endpoint that has seen traffic, newest
    /// snapshot against a baseline ~`window` earlier for rates.
    fn red_rows(inner: &Inner, window: Duration) -> Vec<RedRow> {
        let Some(latest) = inner.history.last() else {
            return Vec::new();
        };
        let from = latest.at.saturating_sub(window);
        let base = inner
            .history
            .iter()
            .find(|s| s.at >= from)
            .unwrap_or(latest);
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
    fn history_series(inner: &Inner) -> (Vec<f64>, Vec<f64>) {
        let mut rates = Vec::with_capacity(inner.history.len());
        let mut p95s = Vec::with_capacity(inner.history.len());
        let mut prev: Option<(&Sample, u64)> = None;
        for s in &inner.history {
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
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let rows = Self::red_rows(&inner, Duration::from_secs(60));
        let (rates, p95s) = Self::history_series(&inner);
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
        let slos: Vec<Value> = inner
            .slo
            .statuses()
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "objective": s.objective,
                    "burn_short": s.burn_short,
                    "burn_long": s.burn_long,
                    "burning": s.burning,
                    "good": s.good,
                    "total": s.total,
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
            "slos": slos,
            "history": serde_json::json!({
                "samples": inner.history.len(),
                "requests_per_s": rates,
                "request_p95_us": p95s,
            }),
        });
        serde_json::to_string(&doc).unwrap_or_default()
    }

    /// The human-readable status page (default format).
    pub fn render_html(&self, occupancy: Occupancy) -> String {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let rows = Self::red_rows(&inner, Duration::from_secs(60));
        let (rates, p95s) = Self::history_series(&inner);
        let statuses = inner.slo.statuses();
        let mut out = String::with_capacity(4096);
        out.push_str(
            "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
             <meta http-equiv=\"refresh\" content=\"2\">\
             <title>orex status</title><style>\
             body{font-family:monospace;background:#111;color:#ddd;margin:2em}\
             table{border-collapse:collapse;margin:1em 0}\
             td,th{border:1px solid #444;padding:4px 10px;text-align:right}\
             th{background:#222}td:first-child,th:first-child{text-align:left}\
             .burn{color:#f55;font-weight:bold}.ok{color:#5c5}\
             .spark{font-size:1.2em;letter-spacing:1px}\
             h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.5em}\
             </style></head><body><h1>orex status</h1>",
        );
        let _ = write!(
            out,
            "<p>uptime {:.0}s &middot; {} history samples</p>",
            self.epoch.elapsed().as_secs_f64(),
            inner.history.len()
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
        out.push_str("<h2>SLOs (burn rates, 1m/5m)</h2><table><tr><th>slo</th><th>objective</th><th>burn 1m</th><th>burn 5m</th><th>state</th></tr>");
        for s in &statuses {
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{:.2}</td><td>{:.2}</td><td class=\"{}\">{}</td></tr>",
                s.name,
                s.objective,
                s.burn_short,
                s.burn_long,
                if s.burning { "burn" } else { "ok" },
                if s.burning { "BURNING" } else { "ok" }
            );
        }
        out.push_str("</table><h2>history</h2>");
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
        assert!(json.contains("\"slos\""), "{json}");
        let html = board.render_html(Occupancy {
            sessions: 2,
            ..Occupancy::default()
        });
        assert!(html.contains("<td>request</td>"), "{html}");
        assert!(html.contains("orex status"), "{html}");
    }

    #[test]
    fn collect_if_stale_skips_fresh_history() {
        let board = StatusBoard::new();
        board.collect_if_stale(Duration::from_secs(60));
        board.collect_if_stale(Duration::from_secs(60));
        let inner = board.inner.lock().unwrap();
        assert_eq!(inner.history.len(), 1, "second collect was fresh-skipped");
    }

    #[test]
    fn history_stays_bounded() {
        let board = StatusBoard::new();
        for _ in 0..(MAX_HISTORY + 50) {
            board.collect();
        }
        let inner = board.inner.lock().unwrap();
        assert_eq!(inner.history.len(), MAX_HISTORY);
    }
}
