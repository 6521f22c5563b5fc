//! Service-level objectives over metric [`Snapshot`]s.
//!
//! An [`SloSpec`] names an objective (availability or latency) defined
//! entirely in terms of metrics the recorder already exports, so SLO
//! evaluation needs no new instrumentation: availability reads a
//! total/bad counter pair, latency reads a histogram's bucket counts
//! against a threshold. An [`SloTracker`] keeps a short history of
//! (good, total) event counts and computes multi-window **burn rates**
//! — the rate the error budget is being consumed, where 1.0 means
//! "exactly exhausting the budget". Following the classic multi-window
//! alerting recipe, an objective is *burning* only when **both** the
//! short and the long window burn above 1.0: the short window makes
//! alerts fast to clear, the long window suppresses blips.
//!
//! Trackers are driven externally (the server's status collector calls
//! [`SloTracker::observe`] on its own cadence) and publish
//! `slo.<name>.*` gauges back into the recorder, which `/metrics`
//! exposes as `orex_slo_*` series.

use std::collections::VecDeque;
use std::time::Duration;

use crate::{bucket_upper_bound, Recorder, Snapshot, BUCKETS};

/// What an objective measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SloKind {
    /// Good events = `total - bad`, read from two counters.
    Availability {
        /// Counter counting all events (e.g. `server.requests`).
        total: &'static str,
        /// Counter counting failed events (e.g. `server.responses_5xx`).
        /// Missing counters read as 0 — no failures yet.
        bad: &'static str,
    },
    /// Good events = histogram samples at or below a threshold.
    Latency {
        /// Histogram name (e.g. `server.request_us`).
        histogram: &'static str,
        /// Samples ≤ this value (same unit as the histogram) are good.
        /// Align to a [`bucket_upper_bound`] — the histogram only knows
        /// bucket boundaries, so a mid-bucket threshold rounds down.
        threshold_us: f64,
    },
}

/// One service-level objective.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Stable identifier used in gauge names and reports.
    pub name: &'static str,
    /// Fraction of events that must be good, e.g. `0.999`.
    pub objective: f64,
    /// How good/total events are read from a snapshot.
    pub kind: SloKind,
}

impl SloSpec {
    /// Extracts cumulative `(good, total)` event counts from a snapshot.
    pub fn good_total(&self, snap: &Snapshot) -> (u64, u64) {
        match self.kind {
            SloKind::Availability { total, bad } => {
                let total = snap.counters.get(total).copied().unwrap_or(0);
                let bad = snap.counters.get(bad).copied().unwrap_or(0);
                (total.saturating_sub(bad), total)
            }
            SloKind::Latency {
                histogram,
                threshold_us,
            } => match snap.histograms.get(histogram) {
                Some(h) => {
                    let good = h
                        .buckets
                        .iter()
                        .take(BUCKETS - 1)
                        .enumerate()
                        .filter(|(i, _)| bucket_upper_bound(*i) <= threshold_us)
                        .map(|(_, b)| b)
                        .sum();
                    (good, h.count)
                }
                None => (0, 0),
            },
        }
    }
}

/// Evaluation window pair for burn rates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloWindows {
    /// Fast-reacting window (default 1 minute).
    pub short: Duration,
    /// Blip-suppressing window (default 5 minutes).
    pub long: Duration,
}

impl Default for SloWindows {
    fn default() -> Self {
        Self {
            short: Duration::from_secs(60),
            long: Duration::from_secs(300),
        }
    }
}

/// One objective's evaluated state; see [`SloTracker::statuses`].
#[derive(Clone, Debug, PartialEq)]
pub struct SloStatus {
    /// Spec this status evaluates.
    pub name: &'static str,
    /// The objective fraction, copied from the spec.
    pub objective: f64,
    /// Burn rate over the short window (1.0 = budget exactly consumed).
    pub burn_short: f64,
    /// Burn rate over the long window.
    pub burn_long: f64,
    /// True when both windows burn above 1.0.
    pub burning: bool,
    /// Cumulative good events at the latest observation.
    pub good: u64,
    /// Cumulative total events at the latest observation.
    pub total: u64,
}

/// Cumulative (good, total) at one observation instant.
#[derive(Clone, Copy, Debug)]
struct SloSample {
    at: Duration,
    good: u64,
    total: u64,
}

/// Tracks burn rates for a set of objectives from periodic snapshots.
///
/// Timestamps are caller-supplied offsets from an arbitrary epoch
/// (typically server start), which keeps the tracker deterministic in
/// tests. Observations must be monotonically non-decreasing in `at`.
#[derive(Debug)]
pub struct SloTracker {
    specs: Vec<SloSpec>,
    windows: SloWindows,
    history: Vec<VecDeque<SloSample>>,
}

impl SloTracker {
    /// Creates a tracker over `specs` with the given windows.
    pub fn new(specs: Vec<SloSpec>, windows: SloWindows) -> Self {
        let history = specs.iter().map(|_| VecDeque::new()).collect();
        Self {
            specs,
            windows,
            history,
        }
    }

    /// The tracked specs, in status order.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Records one snapshot taken `at` after the epoch.
    pub fn observe(&mut self, at: Duration, snap: &Snapshot) {
        // Keep enough history to cover the long window with one sample
        // of slack before it, so window deltas have a baseline.
        let horizon = at.saturating_sub(self.windows.long * 2);
        for (spec, hist) in self.specs.iter().zip(self.history.iter_mut()) {
            let (good, total) = spec.good_total(snap);
            hist.push_back(SloSample { at, good, total });
            while hist.len() > 2 && hist[1].at <= horizon {
                hist.pop_front();
            }
        }
    }

    /// Evaluates every objective at the latest observation.
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.specs
            .iter()
            .zip(self.history.iter())
            .map(|(spec, hist)| {
                let latest = hist.back().copied().unwrap_or(SloSample {
                    at: Duration::ZERO,
                    good: 0,
                    total: 0,
                });
                let burn = |window: Duration| -> f64 {
                    // Baseline = oldest sample inside the window; early in
                    // a run that clamps the window to the data we have.
                    let from = latest.at.saturating_sub(window);
                    let base = hist
                        .iter()
                        .find(|s| s.at >= from)
                        .copied()
                        .unwrap_or(latest);
                    let total = latest.total.saturating_sub(base.total);
                    let good = latest.good.saturating_sub(base.good);
                    if total == 0 {
                        return 0.0;
                    }
                    let error_rate = (total - good.min(total)) as f64 / total as f64;
                    let budget = 1.0 - spec.objective;
                    if budget <= 0.0 {
                        if error_rate > 0.0 {
                            f64::INFINITY
                        } else {
                            0.0
                        }
                    } else {
                        error_rate / budget
                    }
                };
                let burn_short = burn(self.windows.short);
                let burn_long = burn(self.windows.long);
                SloStatus {
                    name: spec.name,
                    objective: spec.objective,
                    burn_short,
                    burn_long,
                    burning: burn_short > 1.0 && burn_long > 1.0,
                    good: latest.good,
                    total: latest.total,
                }
            })
            .collect()
    }

    /// Publishes `slo.<name>.burn_short/.burn_long/.burning` gauges so
    /// `/metrics` exports them as `orex_slo_*` series.
    pub fn publish(&self, recorder: &Recorder) -> Vec<SloStatus> {
        let statuses = self.statuses();
        for s in &statuses {
            recorder
                .gauge(&format!("slo.{}.burn_short", s.name))
                .set(s.burn_short);
            recorder
                .gauge(&format!("slo.{}.burn_long", s.name))
                .set(s.burn_long);
            recorder
                .gauge(&format!("slo.{}.burning", s.name))
                .set(if s.burning { 1.0 } else { 0.0 });
        }
        statuses
    }
}

/// The serving SLOs the status board reports on: availability
/// per endpoint (non-5xx responses) and latency for the request path.
/// Latency thresholds sit on power-of-two bucket bounds (2^18 µs ≈
/// 262 ms) because the histogram only resolves bucket edges.
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "request_availability",
            objective: 0.999,
            kind: SloKind::Availability {
                total: "server.requests",
                bad: "server.responses_5xx",
            },
        },
        SloSpec {
            name: "query_availability",
            objective: 0.999,
            kind: SloKind::Availability {
                total: "server.query_requests",
                bad: "server.query_5xx",
            },
        },
        SloSpec {
            name: "explain_availability",
            objective: 0.999,
            kind: SloKind::Availability {
                total: "server.explain_requests",
                bad: "server.explain_5xx",
            },
        },
        SloSpec {
            name: "feedback_availability",
            objective: 0.999,
            kind: SloKind::Availability {
                total: "server.feedback_requests",
                bad: "server.feedback_5xx",
            },
        },
        SloSpec {
            name: "request_latency",
            objective: 0.99,
            kind: SloKind::Latency {
                histogram: "server.request_us",
                threshold_us: 262144.0,
            },
        },
        SloSpec {
            name: "query_latency",
            objective: 0.99,
            kind: SloKind::Latency {
                histogram: "server.query_us",
                threshold_us: 262144.0,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(requests: u64, bad: u64) -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("server.requests".into(), requests);
        s.counters.insert("server.responses_5xx".into(), bad);
        s
    }

    fn avail_spec() -> SloSpec {
        SloSpec {
            name: "request_availability",
            objective: 0.999,
            kind: SloKind::Availability {
                total: "server.requests",
                bad: "server.responses_5xx",
            },
        }
    }

    fn tracker() -> SloTracker {
        SloTracker::new(vec![avail_spec()], SloWindows::default())
    }

    #[test]
    fn no_traffic_is_not_burning() {
        let mut t = tracker();
        t.observe(Duration::from_secs(0), &snap(0, 0));
        t.observe(Duration::from_secs(60), &snap(0, 0));
        let s = &t.statuses()[0];
        assert_eq!(s.burn_short, 0.0);
        assert_eq!(s.burn_long, 0.0);
        assert!(!s.burning);
    }

    #[test]
    fn clean_traffic_is_not_burning() {
        let mut t = tracker();
        for i in 0..=10u64 {
            t.observe(Duration::from_secs(i * 30), &snap(i * 1000, 0));
        }
        let s = &t.statuses()[0];
        assert_eq!(s.burn_short, 0.0);
        assert!(!s.burning);
        assert_eq!(s.total, 10_000);
    }

    #[test]
    fn sustained_errors_burn_both_windows() {
        // 1% errors against a 0.1% budget → burn rate 10 in both windows.
        let mut t = tracker();
        for i in 0..=10u64 {
            t.observe(Duration::from_secs(i * 60), &snap(i * 1000, i * 10));
        }
        let s = &t.statuses()[0];
        assert!((s.burn_short - 10.0).abs() < 1e-9, "{}", s.burn_short);
        assert!((s.burn_long - 10.0).abs() < 1e-9, "{}", s.burn_long);
        assert!(s.burning);
    }

    #[test]
    fn old_burst_clears_once_windows_pass() {
        // Errors only in the first minute; after 10 clean minutes both
        // windows look clean again.
        let mut t = tracker();
        t.observe(Duration::from_secs(0), &snap(0, 0));
        t.observe(Duration::from_secs(60), &snap(1000, 100));
        for i in 2..=12u64 {
            t.observe(Duration::from_secs(i * 60), &snap(i * 1000, 100));
        }
        let s = &t.statuses()[0];
        assert_eq!(s.burn_short, 0.0);
        assert_eq!(s.burn_long, 0.0);
        assert!(!s.burning);
    }

    #[test]
    fn short_blip_does_not_burn_long_window() {
        // A burst confined to the newest minute burns the short window
        // hard but dilutes across the long window below 1.0.
        let mut t = tracker();
        for i in 0..=4u64 {
            t.observe(Duration::from_secs(i * 60), &snap(i * 100_000, 0));
        }
        // Minute 5: 100k more requests, 150 errors (0.15% of the burst,
        // but only 0.03% of the 500k long-window total).
        t.observe(Duration::from_secs(300), &snap(500_000, 150));
        let s = &t.statuses()[0];
        assert!(s.burn_short > 1.0, "short {}", s.burn_short);
        assert!(s.burn_long < 1.0, "long {}", s.burn_long);
        assert!(!s.burning);
    }

    #[test]
    fn latency_slo_counts_buckets_at_or_below_threshold() {
        let spec = SloSpec {
            name: "request_latency",
            objective: 0.99,
            kind: SloKind::Latency {
                histogram: "server.request_us",
                threshold_us: 262144.0,
            },
        };
        let r = Recorder::new();
        let h = r.histogram("server.request_us");
        for _ in 0..99 {
            h.record(1000.0); // well under threshold
        }
        h.record(1e9); // one sample far over
        let (good, total) = spec.good_total(&r.snapshot());
        assert_eq!(total, 100);
        assert_eq!(good, 99);
    }

    #[test]
    fn latency_slo_burns_when_tail_exceeds_budget() {
        let spec = SloSpec {
            name: "request_latency",
            objective: 0.99,
            kind: SloKind::Latency {
                histogram: "server.request_us",
                threshold_us: 262144.0,
            },
        };
        let r = Recorder::new();
        let h = r.histogram("server.request_us");
        let mut t = SloTracker::new(vec![spec], SloWindows::default());
        t.observe(Duration::from_secs(0), &r.snapshot());
        for _ in 0..90 {
            h.record(1000.0);
        }
        for _ in 0..10 {
            h.record(1e9); // 10% slow — 10× the 1% budget
        }
        t.observe(Duration::from_secs(60), &r.snapshot());
        let s = &t.statuses()[0];
        assert!((s.burn_short - 10.0).abs() < 1e-9, "{}", s.burn_short);
        assert!(s.burning);
    }

    #[test]
    fn missing_metrics_read_as_zero_traffic() {
        let mut t = tracker();
        t.observe(Duration::from_secs(0), &Snapshot::default());
        t.observe(Duration::from_secs(60), &Snapshot::default());
        let s = &t.statuses()[0];
        assert_eq!(s.total, 0);
        assert!(!s.burning);
    }

    #[test]
    fn history_stays_bounded() {
        let mut t = tracker();
        for i in 0..10_000u64 {
            t.observe(Duration::from_secs(i * 2), &snap(i, 0));
        }
        // 2× the 5-minute long window at one sample per 2s ≈ 300 + slack.
        assert!(t.history[0].len() < 400, "{}", t.history[0].len());
    }

    #[test]
    fn publish_exports_gauges() {
        let r = Recorder::new();
        let mut t = tracker();
        for i in 0..=5u64 {
            t.observe(Duration::from_secs(i * 60), &snap(i * 1000, i * 10));
        }
        let statuses = t.publish(&r);
        assert!(statuses[0].burning);
        let snap = r.snapshot();
        assert_eq!(
            snap.gauges
                .get("slo.request_availability.burning")
                .copied()
                .unwrap_or(0.0),
            1.0
        );
        assert!(snap
            .to_prometheus()
            .contains("orex_slo_request_availability_burn_short"));
    }

    #[test]
    fn default_slos_cover_request_and_query_paths() {
        let slos = default_slos();
        assert!(slos.iter().any(|s| s.name == "request_availability"));
        assert!(slos.iter().any(|s| s.name == "request_latency"));
        for s in &slos {
            assert!(s.objective > 0.9 && s.objective < 1.0);
        }
    }
}
