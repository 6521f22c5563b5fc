//! Zero-dependency runtime telemetry for the orex engines.
//!
//! Every engine crate records into a [`Recorder`] — counters, gauges,
//! histograms, and scoped [`Span`] timers — and anything holding a
//! recorder can export a point-in-time [`Snapshot`] as JSON. Resolving a
//! metric by name costs one `RwLock` read + hash lookup; a resolved
//! handle holds the metric's storage and costs only its own atomics, so
//! hot loops resolve once and keep the handle. A recorder is enabled or
//! disabled for life; a disabled one hands out no-op handles, so
//! instrumented code pays only a branch.
//!
//! Engines use the process-wide [`global()`] recorder so instrumentation
//! never changes public engine signatures; tests construct private
//! recorders, and overhead measurements start the process with
//! `OREX_TELEMETRY=0`.
//!
//! Naming convention: `crate.component.metric`, lowercase, with the unit
//! as a suffix where one applies (`session.rank_us`). Span timers record
//! elapsed microseconds into the histogram of the same name.
//!
//! Beyond aggregates, the [`trace`] module provides per-query
//! hierarchical tracing — a [`Tracer`] minting nested spans collected
//! into one bounded ring it owns — and the [`log`] module the third
//! pillar: a [`Logger`] capturing leveled, structured [`LogRecord`]s
//! into the same kind of ring, each stamped with the trace/span ids
//! active on the logging thread (`OREX_LOG` configures its per-target
//! filter). Both rings are read in place ([`Tracer::spans_of`],
//! [`Logger::query`]); nothing has to drain them to serve a read.
//! [`export`] renders spans as Chrome trace-event JSON or folded
//! flamegraph stacks, and log records as JSON-lines or human-readable
//! text.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::exit, clippy::disallowed_methods))]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod export;
pub mod log;
mod ring;
pub mod trace;

pub use log::{logger, FieldValue, Level, LogFilter, LogRecord, Logger, RateLimit, RecordBuilder};
pub use trace::{
    tracer, ActiveSpan, AttrValue, SpanId, SpanRecord, TraceContext, TraceEvent, TraceId, Tracer,
};

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Number of exponential histogram buckets; bucket `i` holds values in
/// `(2^(i-BUCKET_BIAS-1), 2^(i-BUCKET_BIAS)]`, spanning ~1e-10 .. ~1e9.
pub const BUCKETS: usize = 64;
const BUCKET_BIAS: i32 = 32;

/// Upper bound of histogram bucket `i` (inclusive). The last bucket also
/// absorbs everything larger, so exporters should label it `+Inf`.
pub fn bucket_upper_bound(i: usize) -> f64 {
    2f64.powi(i as i32 - BUCKET_BIAS)
}

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
pub fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

// Each variant holds its storage behind its own `Arc`, so resolving a
// metric once yields a typed handle that bumps a bare atomic with no
// registry lock, hash, or enum match on the hot path.
enum Metric {
    Counter(Arc<AtomicU64>),
    /// Last-written f64, stored as bits.
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Lock-free histogram over non-negative f64 samples: exact count / sum /
/// min / max plus exponential buckets for approximate quantiles.
struct Histogram {
    count: AtomicU64,
    /// Compensated-free f64 accumulation via CAS on the bit pattern.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    /// Per-bucket exemplars: the most recent trace id whose sample
    /// landed in the bucket (0 = none; real trace ids start at 1) and
    /// that sample's value, as f64 bits.
    exemplar_trace: [AtomicU64; BUCKETS],
    exemplar_value: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_trace: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_value: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn bucket_index(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        (value.log2().ceil() as i32 + BUCKET_BIAS).clamp(0, BUCKETS as i32 - 1) as usize
    }

    fn record(&self, value: f64) {
        self.record_with_exemplar(value, None);
    }

    fn record_with_exemplar(&self, value: f64, trace: Option<u64>) {
        // ORDERING: each cell is an independent statistic; readers
        // tolerate torn cross-cell views (a snapshot racing a record may
        // see the count without the bucket), so no publication ordering
        // is needed.
        self.count.fetch_add(1, Ordering::Relaxed);
        let bucket = Self::bucket_index(value);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed); // ORDERING: as above
        if let Some(trace) = trace {
            // ORDERING: last-writer-wins exemplar cells; a racing reader
            // may pair one sample's trace with another's value, which
            // still names a real recent trace in this bucket — the only
            // guarantee exemplars promise.
            self.exemplar_value[bucket].store(value.to_bits(), Ordering::Relaxed);
            self.exemplar_trace[bucket].store(trace, Ordering::Relaxed); // ORDERING: as above
        }
        update_f64(&self.sum_bits, |cur| cur + value);
        update_f64(&self.min_bits, |cur| cur.min(value));
        update_f64(&self.max_bits, |cur| cur.max(value));
    }

    fn summary(&self) -> HistogramSummary {
        // ORDERING: statistics reads; see `record` — a summary racing
        // concurrent records is approximate by design.
        let count = self.count.load(Ordering::Relaxed);
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed)); // ORDERING: as above
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)); // ORDERING: as above
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            // ORDERING: statistics reads, as above.
            let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
            let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed)); // ORDERING: as above
            let target = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    // Upper bound of the bucket, clamped to the observed
                    // range so e.g. an all-zeros histogram reports 0, not
                    // the lowest bucket's tiny upper bound.
                    return 2f64.powi(i as i32 - BUCKET_BIAS).clamp(min, max);
                }
            }
            max
        };
        HistogramSummary {
            count,
            sum,
            min: if count == 0 {
                0.0
            } else {
                // ORDERING: statistics reads, as above.
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                // ORDERING: statistics reads, as above.
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
            mean: if count == 0 { 0.0 } else { sum / count as f64 },
            p50: quantile(0.50),
            p95: quantile(0.95),
            buckets,
            exemplars: std::array::from_fn(|i| {
                // ORDERING: statistics reads, as above; 0 = no exemplar.
                let trace = self.exemplar_trace[i].load(Ordering::Relaxed);
                (trace != 0).then(|| Exemplar {
                    trace,
                    value: f64::from_bits(self.exemplar_value[i].load(Ordering::Relaxed)), // ORDERING: as above
                })
            }),
        }
    }
}

fn update_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    // ORDERING: single-cell read-modify-write; the CAS itself guarantees
    // atomicity of the update and nothing else is published under it.
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        // ORDERING: as above.
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

struct Registry {
    metrics: RwLock<HashMap<String, Metric>>,
}

/// A cheaply cloneable handle to a metric registry, enabled or disabled
/// for life.
///
/// Handles returned by [`counter`](Recorder::counter) /
/// [`gauge`](Recorder::gauge) / [`histogram`](Recorder::histogram) /
/// [`span`](Recorder::span) hold the metric's storage directly, so they
/// never go stale; a disabled recorder's handles are no-ops.
#[derive(Clone)]
pub struct Recorder {
    registry: Option<Arc<Registry>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh, enabled recorder.
    pub fn new() -> Self {
        Self {
            registry: Some(Arc::new(Registry {
                metrics: RwLock::new(HashMap::new()),
            })),
        }
    }

    /// A recorder that records nothing: every handle it hands out is a
    /// no-op and its snapshot is always empty.
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// False for a [`Recorder::disabled`] recorder.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The storage of metric `name`, registered through `make` when
    /// absent; `None` on a disabled recorder. `storage` picks the
    /// caller's kind out of an entry.
    ///
    /// The storage `Arc` is cloned once, straight from the map entry:
    /// its count shares a cache line with the metric's own atomics, so
    /// every extra clone is a contended write on the request path.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    fn resolve<T>(
        &self,
        name: &str,
        make: fn() -> Metric,
        storage: fn(&Metric) -> Option<&Arc<T>>,
    ) -> Option<Arc<T>> {
        let registry = self.registry.as_ref()?;
        let take = |m: &Metric| storage(m).map(Arc::clone).ok_or(m.kind());
        // A poisoned registry lock is recovered everywhere in this
        // crate: the map is structurally sound (inserts happen-or-don't
        // under the guard) and telemetry must keep working after an
        // unrelated thread panicked mid-resolve.
        let found = registry
            .metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(take);
        let found = found.unwrap_or_else(|| {
            let mut metrics = registry
                .metrics
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            take(metrics.entry(name.to_string()).or_insert_with(make))
        });
        match found {
            Ok(v) => Some(v),
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` contract: a kind collision is a programmer \
                          error at the call site, not a runtime condition, and every caller \
                          passes a literal"
            )]
            Err(kind) => panic!("telemetry metric {name:?} already registered as a {kind}"),
        }
    }

    /// A monotonically increasing counter. Resolve it once (e.g. in a
    /// `OnceLock`) for hot loops: each op is then one atomic add.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.resolve(
            name,
            || Metric::Counter(Arc::new(AtomicU64::new(0))),
            |m| match m {
                Metric::Counter(v) => Some(v),
                _ => None,
            },
        ))
    }

    /// A last-value-wins gauge.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.resolve(
            name,
            || Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
            |m| match m {
                Metric::Gauge(v) => Some(v),
                _ => None,
            },
        ))
    }

    /// A distribution of non-negative samples. Recording into the handle
    /// is a handful of atomic ops, with no registry lock or hash.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.resolve(
            name,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(h),
                _ => None,
            },
        ))
    }

    /// Starts a scoped timer; on drop it records elapsed microseconds
    /// into the histogram named `name`.
    pub fn span(&self, name: &str) -> Span {
        let hist = self.histogram(name);
        Span {
            start: hist.is_recording().then(Instant::now),
            hist,
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(registry) = &self.registry else {
            return snap;
        };
        let metrics = registry
            .metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(v) => {
                    // ORDERING: statistics read; snapshots racing
                    // updates are approximate by design.
                    let count = v.load(Ordering::Relaxed);
                    snap.counters.insert(name.clone(), count);
                }
                Metric::Gauge(bits) => {
                    // ORDERING: statistics read, as above.
                    let bits = bits.load(Ordering::Relaxed);
                    snap.gauges.insert(name.clone(), f64::from_bits(bits));
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.summary());
                }
            }
        }
        snap
    }
}

/// Counter handle; see [`Recorder::counter`]. One `Option` branch per op.
#[derive(Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(v) = &self.0 {
            // ORDERING: monotonic statistic; readers only ever sum it.
            v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// Gauge handle; see [`Recorder::gauge`].
#[derive(Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Overwrites the gauge value.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(bits) = &self.0 {
            // ORDERING: last-value-wins statistic; readers take any
            // recent value.
            bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Histogram handle; see [`Recorder::histogram`]. Recording touches the
/// histogram's atomics directly — no lock, hash, or match.
#[derive(Clone)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// True when samples go somewhere — lets hot loops skip building the
    /// sample (e.g. reading the clock) on disabled recorders.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: f64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Records one sample and, when `trace` is set, stamps it as the
    /// containing bucket's exemplar so tail-latency buckets resolve to a
    /// concrete trace id.
    #[inline]
    pub fn record_with_exemplar(&self, value: f64, trace: Option<u64>) {
        if let Some(h) = &self.0 {
            h.record_with_exemplar(value, trace);
        }
    }
}

/// Scoped timer; see [`Recorder::span`]. Records elapsed microseconds on
/// drop.
pub struct Span {
    start: Option<Instant>,
    hist: HistogramHandle,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            // Stamp the sample with the current sampled trace (if any) so
            // histogram buckets carry exemplar trace ids for free.
            let trace = crate::tracer().current_sampled_trace().map(|t| t.0);
            self.hist
                .record_with_exemplar(start.elapsed().as_secs_f64() * 1e6, trace);
        }
    }
}

/// One histogram bucket's exemplar: the most recent sampled trace whose
/// sample landed in the bucket, and that sample's value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exemplar {
    /// Trace id of the exemplar sample (never 0).
    pub trace: u64,
    /// The recorded sample value.
    pub value: f64,
}

/// Aggregate statistics for one histogram at snapshot time. Quantiles are
/// approximate (upper bound of the containing power-of-two bucket); the
/// rest are exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
    /// Raw exponential bucket counts (see [`bucket_upper_bound`]).
    pub buckets: [u64; BUCKETS],
    /// Per-bucket exemplars (`None` when no sampled trace landed there).
    pub exemplars: [Option<Exemplar>; BUCKETS],
}

// `[u64; 64]` has no std `Default`, so derive won't do.
impl Default for HistogramSummary {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            buckets: [0; BUCKETS],
            exemplars: [None; BUCKETS],
        }
    }
}

/// A point-in-time copy of a recorder's metrics, name-sorted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot in Prometheus text exposition format.
    /// Metric names are prefixed `orex_` with dots mapped to underscores;
    /// histograms become cumulative `_bucket{le="..."}` series (empty
    /// buckets elided) plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 5);
            out.push_str("orex_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn prom_f64(v: f64) -> String {
            if v == f64::INFINITY {
                "+Inf".to_string()
            } else if v == f64::NEG_INFINITY {
                "-Inf".to_string()
            } else if v.is_nan() {
                "NaN".to_string()
            } else {
                format!("{v}")
            }
        }
        // Decimal trace ids match `GET /trace/<id>`; the id is numeric but
        // still goes through the label escaper like every label value.
        fn exemplar_suffix(e: Option<Exemplar>) -> String {
            match e {
                Some(e) => format!(
                    " # {{trace_id=\"{}\"}} {}",
                    prom_label_value(&e.trace.to_string()),
                    prom_f64(e.value)
                ),
                None => String::new(),
            }
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, value) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", prom_f64(*value));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                cumulative += b;
                // The last bucket also absorbs clamped larger values, so
                // its honest label is the `+Inf` series below.
                if b == 0 || i == BUCKETS - 1 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{n}_bucket{{le=\"{}\"}} {cumulative}{}",
                    prom_f64(bucket_upper_bound(i)),
                    exemplar_suffix(h.exemplars[i])
                );
            }
            let _ = writeln!(
                out,
                "{n}_bucket{{le=\"+Inf\"}} {}{}",
                h.count,
                exemplar_suffix(h.exemplars[BUCKETS - 1])
            );
            let _ = writeln!(out, "{n}_sum {}", prom_f64(h.sum));
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }

    /// Compact JSON: `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        self.write_json(None)
    }

    /// Two-space-indented JSON.
    pub fn to_json_pretty(&self) -> String {
        self.write_json(Some(0))
    }

    fn write_json(&self, indent: Option<usize>) -> String {
        type Section<'a> = (&'a str, Box<dyn Fn(&mut String, Option<usize>) + 'a>);
        let mut out = String::new();
        let sections: [Section<'_>; 3] = [
            (
                "counters",
                Box::new(|out: &mut String, ind| {
                    json_object(out, ind, self.counters.iter(), |out, v, _| {
                        let _ = write!(out, "{v}");
                    })
                }),
            ),
            (
                "gauges",
                Box::new(|out: &mut String, ind| {
                    json_object(out, ind, self.gauges.iter(), |out, v, _| json_f64(out, *v))
                }),
            ),
            (
                "histograms",
                Box::new(|out: &mut String, ind| {
                    json_object(out, ind, self.histograms.iter(), |out, h, ind| {
                        let fields: [(&str, f64); 6] = [
                            ("sum", h.sum),
                            ("min", h.min),
                            ("max", h.max),
                            ("mean", h.mean),
                            ("p50", h.p50),
                            ("p95", h.p95),
                        ];
                        out.push('{');
                        newline_indent(out, ind.map(|d| d + 1));
                        let _ = write!(out, "\"count\":{}{}", json_space(ind), h.count);
                        for (k, v) in fields {
                            out.push(',');
                            newline_indent(out, ind.map(|d| d + 1));
                            let _ = write!(out, "\"{k}\":{}", json_space(ind));
                            json_f64(out, v);
                        }
                        out.push(',');
                        newline_indent(out, ind.map(|d| d + 1));
                        // Buckets stay on one line even in pretty mode —
                        // 64 entries would drown the rest of the report.
                        let _ = write!(out, "\"buckets\":{}[", json_space(ind));
                        for (i, b) in h.buckets.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "{b}");
                        }
                        out.push(']');
                        out.push(',');
                        newline_indent(out, ind.map(|d| d + 1));
                        // Sparse: only buckets that hold an exemplar.
                        let _ = write!(out, "\"exemplars\":{}[", json_space(ind));
                        let mut first = true;
                        for (i, e) in h.exemplars.iter().enumerate() {
                            if let Some(e) = e {
                                if !first {
                                    out.push(',');
                                }
                                first = false;
                                let _ = write!(
                                    out,
                                    "{{\"bucket\":{i},\"trace\":{},\"value\":",
                                    e.trace
                                );
                                json_f64(out, e.value);
                                out.push('}');
                            }
                        }
                        out.push(']');
                        newline_indent(out, ind);
                        out.push('}');
                    })
                }),
            ),
        ];
        out.push('{');
        for (i, (name, write_section)) in sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline_indent(&mut out, indent.map(|d| d + 1));
            let _ = write!(out, "\"{name}\":{}", json_space(indent));
            write_section(&mut out, indent.map(|d| d + 1));
        }
        newline_indent(&mut out, indent);
        out.push('}');
        out
    }
}

fn json_space(indent: Option<usize>) -> &'static str {
    if indent.is_some() {
        " "
    } else {
        ""
    }
}

fn newline_indent(out: &mut String, depth: Option<usize>) {
    if let Some(d) = depth {
        out.push('\n');
        for _ in 0..d {
            out.push_str("  ");
        }
    }
}

fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn json_object<'a, V: 'a>(
    out: &mut String,
    indent: Option<usize>,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    write_value: impl Fn(&mut String, &V, Option<usize>),
) {
    let entries: Vec<_> = entries.collect();
    if entries.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push('{');
    for (i, (key, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, indent.map(|d| d + 1));
        out.push('"');
        export::escape_json(key, out);
        let _ = write!(out, "\":{}", json_space(indent));
        write_value(out, value, indent.map(|d| d + 1));
    }
    newline_indent(out, indent);
    out.push('}');
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// True when `OREX_TELEMETRY` asks for telemetry (metrics *and* trace
/// collection) to start disabled.
pub(crate) fn env_disabled() -> bool {
    std::env::var("OREX_TELEMETRY")
        .map(|v| matches!(v.to_ascii_lowercase().as_str(), "0" | "off" | "false"))
        .unwrap_or(false)
}

/// The process-wide recorder the engine crates record into. Enabled by
/// default; set the `OREX_TELEMETRY` environment variable to `0`, `off`,
/// or `false` to run the process with recording off for life (handy for
/// overhead A/B runs). The same variable also disables the global
/// [`tracer`].
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(|| {
        if env_disabled() {
            Recorder::disabled()
        } else {
            Recorder::new()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_basics() {
        let r = Recorder::new();
        r.counter("c").add(5);
        r.counter("c").incr();
        r.gauge("g").set(1.5);
        r.gauge("g").set(-2.5);
        let h = r.histogram("h");
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.record(v);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 6);
        assert_eq!(snap.gauges["g"], -2.5);
        let hs = &snap.histograms["h"];
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 16.0);
        assert_eq!(hs.min, 1.0);
        assert_eq!(hs.max, 10.0);
        assert_eq!(hs.mean, 4.0);
        assert!(hs.p50 >= 1.0 && hs.p50 <= 4.0, "p50 = {}", hs.p50);
        assert!(hs.p95 >= 4.0 && hs.p95 <= 16.0, "p95 = {}", hs.p95);
    }

    #[test]
    fn concurrent_counters_are_exact() {
        const THREADS: usize = 8;
        const OPS: u64 = 10_000;
        let r = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let r = r.clone();
                scope.spawn(move || {
                    let c = r.counter("hits");
                    let h = r.histogram("latency");
                    for i in 0..OPS {
                        c.incr();
                        h.record((i % 7) as f64);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters["hits"], THREADS as u64 * OPS);
        let hs = &snap.histograms["latency"];
        assert_eq!(hs.count, THREADS as u64 * OPS);
        // Sum of 0..7 cycling: OPS/7 full cycles of 21 per thread, exact
        // because every sample is a small integer (f64-exact adds).
        let per_thread: f64 = (0..OPS).map(|i| (i % 7) as f64).sum();
        assert_eq!(hs.sum, per_thread * THREADS as f64);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        r.counter("c").add(3);
        r.gauge("g").set(1.0);
        r.histogram("h").record(2.0);
        drop(r.span("s"));
        assert!(r.snapshot().is_empty(), "disabled recorder must stay empty");
    }

    #[test]
    fn span_records_elapsed_micros() {
        let r = Recorder::new();
        {
            let _span = r.span("work_us");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let hs = r.snapshot().histograms["work_us"];
        assert_eq!(hs.count, 1);
        assert!(hs.sum >= 1_000.0, "expected ≥1ms recorded, got {}", hs.sum);
    }

    #[test]
    fn snapshot_json_shape() {
        let r = Recorder::new();
        r.counter("b.count").incr();
        r.counter("a.count").add(2);
        r.gauge("g.val").set(0.5);
        r.histogram("h.us").record(3.0);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Name-sorted within each section.
        let a = json.find("a.count").unwrap();
        let b = json.find("b.count").unwrap();
        assert!(a < b, "counters must be name-sorted: {json}");
        assert!(
            json.contains(r#""counters":{"a.count":2,"b.count":1}"#),
            "{json}"
        );
        assert!(json.contains(r#""g.val":0.5"#), "{json}");
        assert!(json.contains(r#""count":1"#), "{json}");
        assert!(json.contains(r#""p95":"#), "{json}");
        let pretty = r.snapshot().to_json_pretty();
        assert!(pretty.contains("\n  \"counters\": {\n"), "{pretty}");
    }

    #[test]
    fn empty_snapshot_serializes() {
        let snap = Recorder::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(
            snap.to_json(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Recorder::new();
        r.counter("m").incr();
        r.gauge("m").set(1.0);
    }

    #[test]
    fn global_is_shared() {
        global().counter("test.global").incr();
        assert!(global().snapshot().counters.contains_key("test.global"));
    }

    #[test]
    fn counter_is_live_and_a_disabled_one_is_a_noop() {
        let r = Recorder::new();
        let h = r.counter("hot.ops");
        h.add(2);
        h.incr();
        assert_eq!(r.snapshot().counters["hot.ops"], 3);
        // A disabled recorder's counter records nowhere.
        let d = Recorder::disabled();
        let dead = d.counter("hot.ops");
        dead.add(100);
        assert!(d.snapshot().is_empty());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Recorder::new();
        r.counter("session.queries").add(3);
        r.gauge("authority.power.last_residual").set(0.25);
        let h = r.histogram("session.rank_us");
        h.record(3.0);
        h.record(5.0);
        let prom = r.snapshot().to_prometheus();
        assert!(prom.contains("# TYPE orex_session_queries counter\norex_session_queries 3\n"));
        assert!(prom.contains("orex_authority_power_last_residual 0.25\n"));
        assert!(prom.contains("# TYPE orex_session_rank_us histogram\n"));
        // 3.0 and 5.0 land in buckets with upper bounds 4 and 8:
        // cumulative counts 1 then 2.
        assert!(
            prom.contains("orex_session_rank_us_bucket{le=\"4\"} 1\n"),
            "{prom}"
        );
        assert!(
            prom.contains("orex_session_rank_us_bucket{le=\"8\"} 2\n"),
            "{prom}"
        );
        assert!(prom.contains("orex_session_rank_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(prom.contains("orex_session_rank_us_sum 8\n"));
        assert!(prom.contains("orex_session_rank_us_count 2\n"));
    }

    #[test]
    fn snapshot_json_includes_buckets() {
        let r = Recorder::new();
        r.histogram("h").record(3.0);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"buckets\":[0,"), "{json}");
        let pretty = r.snapshot().to_json_pretty();
        // Buckets stay on one line even pretty-printed.
        assert!(pretty.contains("\"buckets\": [0,"), "{pretty}");
    }

    #[test]
    fn prometheus_sanitizes_hostile_metric_names_and_escapes_labels() {
        let r = Recorder::new();
        // Hostile metric names: quotes, newlines, backslashes, spaces.
        r.counter("evil\"name\nwith\\stuff").incr();
        r.gauge("another evil{label=\"x\"}").set(1.0);
        r.histogram("bad\nhist").record(2.0);
        let prom = r.snapshot().to_prometheus();
        for line in prom.lines() {
            let payload = line.strip_prefix("# TYPE ").unwrap_or(line);
            let name = payload.split([' ', '{']).next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "unsanitized metric name in line {line:?}"
            );
            assert!(!line.contains('\n'));
        }
        assert!(prom.contains("orex_evil_name_with_stuff 1\n"), "{prom}");
        // Label-value escaping covers backslash, quote, and newline.
        assert_eq!(prom_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(prom_label_value("plain-123"), "plain-123");
    }

    #[test]
    fn json_escapes_hostile_metric_names() {
        let names = [
            "evil\"name\nwith\\stuff",
            "another evil{label=\"x\"}",
            "bad\nhist",
        ];
        let r = Recorder::new();
        r.counter(names[0]).incr();
        r.gauge(names[1]).set(1.0);
        r.histogram(names[2]).record(2.0);
        let json = r.snapshot().to_json();
        assert!(!json.chars().any(|c| c.is_control()), "{json:?}");
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        for (section, name) in ["counters", "gauges", "histograms"].iter().zip(names) {
            let entry = doc.get(section).and_then(|s| s.get(name));
            assert!(entry.is_some(), "{section} lacks {name:?}");
        }
    }

    #[test]
    fn exemplars_land_in_buckets_and_export() {
        let r = Recorder::new();
        let h = r.histogram("server.request_us");
        h.record_with_exemplar(3.0, Some(42)); // bucket le=4
        h.record_with_exemplar(1e12, Some(7)); // clamps into last bucket
        h.record(5.0); // no exemplar for bucket le=8
        let snap = r.snapshot();
        let s = &snap.histograms["server.request_us"];
        let b4 = Histogram::bucket_index(3.0);
        assert_eq!(
            s.exemplars[b4],
            Some(Exemplar {
                trace: 42,
                value: 3.0
            })
        );
        assert_eq!(
            s.exemplars[BUCKETS - 1],
            Some(Exemplar {
                trace: 7,
                value: 1e12
            })
        );
        assert_eq!(s.exemplars[Histogram::bucket_index(5.0)], None);
        let prom = snap.to_prometheus();
        assert!(
            prom.contains("orex_server_request_us_bucket{le=\"4\"} 1 # {trace_id=\"42\"} 3\n"),
            "{prom}"
        );
        assert!(
            prom.contains(
                "orex_server_request_us_bucket{le=\"+Inf\"} 3 # {trace_id=\"7\"} 1000000000000\n"
            ),
            "{prom}"
        );
        let json = snap.to_json();
        assert!(
            json.contains(&format!("{{\"bucket\":{b4},\"trace\":42,\"value\":3}}")),
            "{json}"
        );
    }

    #[test]
    fn exemplar_overwrites_keep_latest_trace() {
        let r = Recorder::new();
        let h = r.histogram("h");
        h.record_with_exemplar(3.0, Some(1));
        h.record_with_exemplar(3.5, Some(2));
        h.record_with_exemplar(3.9, None); // None never clears an exemplar
        let snap = r.snapshot();
        let e = snap.histograms["h"].exemplars[Histogram::bucket_index(3.5)].unwrap();
        assert_eq!(e.trace, 2);
        assert_eq!(e.value, 3.5);
    }

    #[test]
    fn span_drop_stamps_exemplar_from_sampled_trace() {
        let r = Recorder::new();
        let tracer = tracer();
        {
            let _t = tracer.span("exemplar.test");
            let _s = r.span("exemplar.span_us");
        }
        let snap = r.snapshot();
        let s = &snap.histograms["exemplar.span_us"];
        assert_eq!(s.count, 1);
        // The global tracer samples trace 1 by default (every=1 unless
        // OREX_TRACE_SAMPLE says otherwise), so the bucket the sample
        // landed in should carry a trace id — unless sampling disabled it.
        let have: Vec<u64> = s.exemplars.iter().flatten().map(|e| e.trace).collect();
        if tracer.is_enabled() {
            assert!(!have.is_empty(), "sampled span should leave an exemplar");
        }
    }
}
