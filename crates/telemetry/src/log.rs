//! Structured, trace-correlated event logging.
//!
//! The third observability pillar next to the metrics [`crate::Recorder`]
//! and the [`crate::trace`] module: a [`Logger`] captures leveled
//! [`LogRecord`]s — a message plus typed key=value fields — into the same
//! kind of bounded ring the tracer owns (drop-oldest, no allocation for
//! records the filter rejects), read in place by [`Logger::query`].
//! Every record is stamped with the trace and span ids of the innermost
//! span open on the logging thread, so a log line, the trace it belongs
//! to, and the metrics of the same window cross-reference by id.
//!
//! Filtering is per target (the `crate.component` the record came from)
//! with a default level, configured programmatically via
//! [`Logger::set_filter`] or through the `OREX_LOG` environment variable
//! for the process-wide [`logger`]:
//!
//! ```text
//! OREX_LOG=info                      # default level only
//! OREX_LOG=warn,server=debug        # per-target override
//! OREX_LOG=off                       # capture nothing
//! ```
//!
//! Hot loops rate-limit their callsites with [`RateLimit`] (e.g. the
//! power iteration logs its residual at most once every N iterations).
//! Render records with [`crate::export::log_json_lines`].

use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::ring::{Ring, Sequenced};
use crate::trace::{SpanId, TraceId};

/// Log severity, most severe first: `Error < Warn < Info < Debug <
/// Trace` in `Ord` terms, so "at most `Info`" selects the quieter
/// levels.
#[derive(Clone, Copy, Debug, Eq, Hash, Ord, PartialEq, PartialOrd)]
pub enum Level {
    /// A failure the operator must see (every 5xx logs at this level).
    Error,
    /// Something off-nominal but survivable (non-convergence, slow
    /// requests).
    Warn,
    /// Milestones: convergence, index builds, the per-request access
    /// log. The default capture level.
    Info,
    /// Per-step diagnostics (cache decisions, fixpoint rounds).
    Debug,
    /// Highest-volume diagnostics (per-iteration residuals).
    Trace,
}

impl Level {
    /// All levels, most severe first.
    pub const ALL: [Level; 5] = [
        Level::Error,
        Level::Warn,
        Level::Info,
        Level::Debug,
        Level::Trace,
    ];

    /// Verbosity rank: 0 for [`Level::Error`] up to 4 for
    /// [`Level::Trace`].
    pub fn verbosity(self) -> u8 {
        match self {
            Level::Error => 0,
            Level::Warn => 1,
            Level::Info => 2,
            Level::Debug => 3,
            Level::Trace => 4,
        }
    }

    /// Upper-case name, fixed width not included (`"ERROR"`, `"WARN"`,
    /// ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level {other:?} (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

/// A typed value attached to a record as `key=value`.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

/// One captured log event, as the logger's ring retains it.
#[derive(Clone, Debug)]
pub struct LogRecord {
    /// Severity.
    pub level: Level,
    /// Origin, `crate.component` by convention (`server.access`,
    /// `authority.power`).
    pub target: &'static str,
    /// Human-readable message; machine-readable detail belongs in
    /// `fields`.
    pub message: String,
    /// Typed key=value fields attached via the [`RecordBuilder`].
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Trace the logging thread was inside when the record was made,
    /// `None` when no span was open.
    pub trace: Option<TraceId>,
    /// Innermost open span at record time.
    pub span: Option<SpanId>,
    /// Wall-clock timestamp, nanoseconds since the Unix epoch.
    pub unix_ns: u64,
    /// Logical id of the logging thread (shared with
    /// [`crate::SpanRecord::tid`]).
    pub tid: u64,
    /// Capture order: the ring ticket assigned on push. [`Logger::query`]
    /// and [`Logger::drain`] return records in this order, and
    /// `GET /logs?since=` cursors over it.
    pub seq: u64,
}

impl Sequenced for LogRecord {
    fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Per-target level filter: a default level plus longest-prefix-match
/// overrides, parsed from `OREX_LOG=<level>[,target=level]*` syntax.
///
/// A target `server` matches records whose target is `server` or starts
/// with `server.`; the longest matching prefix wins. A level of `off`
/// (or `none`) suppresses everything it governs.
#[derive(Clone, Debug, PartialEq)]
pub struct LogFilter {
    /// Level for targets with no override; `None` = off.
    default: Option<Level>,
    /// `(prefix, level)` overrides; `None` = off for that prefix.
    targets: Vec<(String, Option<Level>)>,
}

impl Default for LogFilter {
    /// Capture `Info` and more severe everywhere.
    fn default() -> Self {
        Self {
            default: Some(Level::Info),
            targets: Vec::new(),
        }
    }
}

fn parse_level_or_off(s: &str) -> Result<Option<Level>, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" => Ok(None),
        other => other.parse::<Level>().map(Some),
    }
}

impl FromStr for LogFilter {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut default = None;
        let mut saw_default = false;
        let mut targets = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    let target = target.trim();
                    if target.is_empty() {
                        return Err(format!("empty target in log filter segment {part:?}"));
                    }
                    targets.push((target.to_string(), parse_level_or_off(level)?));
                }
                None => {
                    if saw_default {
                        return Err(format!(
                            "second default level {part:?} in log filter (only one allowed)"
                        ));
                    }
                    saw_default = true;
                    default = parse_level_or_off(part)?;
                }
            }
        }
        if !saw_default && targets.is_empty() {
            return Err("empty log filter".to_string());
        }
        // Longest prefixes first, so the first match below is the most
        // specific one.
        targets.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        Ok(Self { default, targets })
    }
}

impl LogFilter {
    /// A filter that captures `level` and more severe for every target.
    pub fn at(level: Level) -> Self {
        Self {
            default: Some(level),
            targets: Vec::new(),
        }
    }

    /// A filter that captures nothing.
    pub fn off() -> Self {
        Self {
            default: None,
            targets: Vec::new(),
        }
    }

    /// Adds (or tightens) a per-target override; `None` mutes the
    /// target.
    pub fn with_target(mut self, target: impl Into<String>, level: Option<Level>) -> Self {
        self.targets.push((target.into(), level));
        self.targets
            .sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        self
    }

    /// The level governing `target`: its longest matching prefix
    /// override, or the default.
    pub fn effective(&self, target: &str) -> Option<Level> {
        for (prefix, level) in &self.targets {
            let matches = target == prefix
                || (target.len() > prefix.len()
                    && target.starts_with(prefix.as_str())
                    && target.as_bytes()[prefix.len()] == b'.');
            if matches {
                return *level;
            }
        }
        self.default
    }

    /// Whether a record at `level` from `target` passes this filter.
    pub fn admits(&self, level: Level, target: &str) -> bool {
        self.effective(target).is_some_and(|max| level <= max)
    }

    /// The most verbose level any target can pass, `None` when the
    /// filter rejects everything — the logger's constant-time reject.
    fn max_verbosity(&self) -> Option<Level> {
        let mut max = self.default;
        for (_, level) in &self.targets {
            if let Some(l) = level {
                if max.is_none_or(|m| *l > m) {
                    max = Some(*l);
                }
            }
        }
        max
    }
}

/// Per-callsite 1-in-N admission for logging inside hot loops. Owned by
/// the callsite as a `static`; the first call is always admitted, then
/// every `every`-th after it.
///
/// ```
/// use orex_telemetry::{logger, Level, RateLimit};
/// static RESIDUAL: RateLimit = RateLimit::new();
/// for iteration in 0..1000 {
///     if RESIDUAL.admit(64) {
///         logger()
///             .record(Level::Trace, "authority.power", "residual")
///             .field_u64("iteration", iteration);
///     }
/// }
/// ```
#[derive(Debug, Default)]
pub struct RateLimit {
    seen: AtomicU64,
}

impl RateLimit {
    /// A fresh limiter (admits its first call).
    pub const fn new() -> Self {
        Self {
            seen: AtomicU64::new(0),
        }
    }

    /// Draws once; true for calls 0, `every`, `2*every`, ... A period of
    /// 0 or 1 admits everything.
    pub fn admit(&self, every: u64) -> bool {
        if every <= 1 {
            // Keep the draw count meaningful even when unlimited.
            // ORDERING: Relaxed — monotone counter; no data published.
            self.seen.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // ORDERING: Relaxed — monotone draw counter; no data published.
        let draw = self.seen.fetch_add(1, Ordering::Relaxed);
        draw.is_multiple_of(every)
    }

    /// Total draws so far (admitted or not), for "N suppressed"
    /// summaries.
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — monotone counter read for reporting only.
        self.seen.load(Ordering::Relaxed)
    }
}

/// `max_verbosity` cache encoding: 0 = filter rejects everything,
/// otherwise verbosity + 1.
const VERBOSITY_OFF: u8 = 0;

struct LoggerInner {
    ring: Ring<LogRecord>,
    filter: RwLock<LogFilter>,
    /// Cached [`LogFilter::max_verbosity`] so a rejected record costs
    /// one atomic load; see [`VERBOSITY_OFF`].
    max_verbosity: AtomicU8,
}

/// Captures structured log records into a bounded ring; see the module
/// docs. Cloning shares the underlying ring and filter.
#[derive(Clone)]
pub struct Logger {
    inner: Option<Arc<LoggerInner>>,
}

impl Logger {
    /// Ring capacity used by the global [`logger`].
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An enabled logger whose ring holds up to `capacity` records
    /// (minimum 1), with the default [`LogFilter`] (`Info`).
    pub fn new(capacity: usize) -> Self {
        let filter = LogFilter::default();
        let max = encode_verbosity(&filter);
        Self {
            inner: Some(Arc::new(LoggerInner {
                ring: Ring::new(capacity),
                filter: RwLock::new(filter),
                max_verbosity: AtomicU8::new(max),
            })),
        }
    }

    /// A logger whose every operation is a no-op costing one branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// False for a [`Logger::disabled`] logger.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.ring.capacity())
    }

    /// Records currently retained (0 when disabled).
    pub fn retained(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.ring.len())
    }

    /// Replaces the filter. No-op on a disabled logger.
    pub fn set_filter(&self, filter: LogFilter) {
        if let Some(inner) = &self.inner {
            let max = encode_verbosity(&filter);
            {
                let mut slot = inner.filter.write().unwrap_or_else(PoisonError::into_inner);
                *slot = filter;
            }
            // Release-publish the cached bound after the filter itself,
            // pairing with the Acquire load in `enabled`: a thread that
            // sees the new bound takes the lock and sees the new filter.
            inner.max_verbosity.store(max, Ordering::Release);
        }
    }

    /// A copy of the current filter (the default one when disabled).
    pub fn filter(&self) -> LogFilter {
        self.inner.as_ref().map_or_else(LogFilter::default, |i| {
            i.filter
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        })
    }

    /// Whether a record at `level` from `target` would be captured —
    /// lets callsites skip formatting expensive messages. One atomic
    /// load when the answer is no for every target.
    #[inline]
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        // Acquire pairs with the Release store in `set_filter`.
        let max = inner.max_verbosity.load(Ordering::Acquire);
        if max == VERBOSITY_OFF || level.verbosity() + 1 > max {
            return false;
        }
        inner
            .filter
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .admits(level, target)
    }

    /// Opens a record. If the filter rejects it, the returned builder is
    /// inert (no allocation happened beyond `message`'s own). Otherwise
    /// the record is stamped with the wall clock, the logging thread's
    /// id, and the current trace/span of the global [`crate::tracer`],
    /// and commits to the ring when the builder drops.
    pub fn record(
        &self,
        level: Level,
        target: &'static str,
        message: impl Into<String>,
    ) -> RecordBuilder<'_> {
        let Some(inner) = &self.inner else {
            return RecordBuilder { pending: None };
        };
        if !self.enabled(level, target) {
            return RecordBuilder { pending: None };
        }
        let (trace, span) = match crate::tracer().current_span() {
            Some((t, s)) => (Some(t), Some(s)),
            None => (None, None),
        };
        let record = LogRecord {
            level,
            target,
            message: message.into(),
            fields: Vec::new(),
            trace,
            span,
            unix_ns: unix_now_ns(),
            tid: crate::trace::current_tid(),
            seq: 0,
        };
        RecordBuilder {
            pending: Some((inner, record)),
        }
    }

    /// Shorthand for [`Logger::record`] at [`Level::Error`].
    pub fn error(&self, target: &'static str, message: impl Into<String>) -> RecordBuilder<'_> {
        self.record(Level::Error, target, message)
    }

    /// Shorthand for [`Logger::record`] at [`Level::Warn`].
    pub fn warn(&self, target: &'static str, message: impl Into<String>) -> RecordBuilder<'_> {
        self.record(Level::Warn, target, message)
    }

    /// Shorthand for [`Logger::record`] at [`Level::Info`].
    pub fn info(&self, target: &'static str, message: impl Into<String>) -> RecordBuilder<'_> {
        self.record(Level::Info, target, message)
    }

    /// Shorthand for [`Logger::record`] at [`Level::Debug`].
    pub fn debug(&self, target: &'static str, message: impl Into<String>) -> RecordBuilder<'_> {
        self.record(Level::Debug, target, message)
    }

    /// Shorthand for [`Logger::record`] at [`Level::Trace`].
    pub fn trace(&self, target: &'static str, message: impl Into<String>) -> RecordBuilder<'_> {
        self.record(Level::Trace, target, message)
    }

    /// Copies of the retained records passing the filters, oldest first,
    /// leaving the ring as it was: at most `level` severity rank (e.g.
    /// `Level::Warn` selects WARN and ERROR), capture sequence strictly
    /// greater than `since`, records stamped with trace id `trace`
    /// (records without a trace never match), and when `limit` is given
    /// only the *newest* `limit` survivors.
    pub fn query(
        &self,
        level: Option<Level>,
        since: Option<u64>,
        limit: Option<usize>,
        trace: Option<u64>,
    ) -> Vec<LogRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = inner.ring.filtered(|r| {
            level.is_none_or(|max| r.level <= max)
                && since.is_none_or(|s| r.seq > s)
                && trace.is_none_or(|t| r.trace.map(|id| id.0) == Some(t))
        });
        if let Some(limit) = limit {
            if out.len() > limit {
                out.drain(..out.len() - limit);
            }
        }
        out
    }

    /// Capture sequence of the newest retained record — the cursor a
    /// poller should resume from. `None` when nothing is retained.
    pub fn newest_seq(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|i| i.ring.newest_seq())
    }

    /// Removes and returns every captured record, oldest first.
    pub fn drain(&self) -> Vec<LogRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.ring.drain())
    }
}

fn encode_verbosity(filter: &LogFilter) -> u8 {
    filter
        .max_verbosity()
        .map_or(VERBOSITY_OFF, |l| l.verbosity() + 1)
}

fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// An admitted record being assembled; commits to the ring on drop, so
/// a bare `logger().info(...).field_u64(...);` statement logs at the
/// semicolon.
pub struct RecordBuilder<'a> {
    pending: Option<(&'a Arc<LoggerInner>, LogRecord)>,
}

impl RecordBuilder<'_> {
    /// False when the filter rejected this record — attaching fields is
    /// then a no-op costing one branch.
    pub fn is_recording(&self) -> bool {
        self.pending.is_some()
    }

    /// Attaches an unsigned-integer field.
    #[must_use]
    pub fn field_u64(mut self, key: &'static str, value: u64) -> Self {
        if let Some((_, record)) = &mut self.pending {
            record.fields.push((key, FieldValue::U64(value)));
        }
        self
    }

    /// Attaches a signed-integer field.
    #[must_use]
    pub fn field_i64(mut self, key: &'static str, value: i64) -> Self {
        if let Some((_, record)) = &mut self.pending {
            record.fields.push((key, FieldValue::I64(value)));
        }
        self
    }

    /// Attaches a float field.
    #[must_use]
    pub fn field_f64(mut self, key: &'static str, value: f64) -> Self {
        if let Some((_, record)) = &mut self.pending {
            record.fields.push((key, FieldValue::F64(value)));
        }
        self
    }

    /// Attaches a boolean field.
    #[must_use]
    pub fn field_bool(mut self, key: &'static str, value: bool) -> Self {
        if let Some((_, record)) = &mut self.pending {
            record.fields.push((key, FieldValue::Bool(value)));
        }
        self
    }

    /// Attaches a string field; the value is only materialised when the
    /// record was admitted.
    #[must_use]
    pub fn field_str(mut self, key: &'static str, value: impl AsRef<str>) -> Self {
        if let Some((_, record)) = &mut self.pending {
            record
                .fields
                .push((key, FieldValue::Str(value.as_ref().to_string())));
        }
        self
    }

    /// Commits now instead of at end-of-statement; equivalent to
    /// dropping the builder but reads better when the builder is bound
    /// to a variable.
    pub fn emit(self) {
        drop(self);
    }
}

impl Drop for RecordBuilder<'_> {
    fn drop(&mut self) {
        if let Some((inner, record)) = self.pending.take() {
            inner.ring.push(record);
        }
    }
}

static GLOBAL_LOGGER: OnceLock<Logger> = OnceLock::new();

/// The process-wide logger the engine crates record into. Enabled by
/// default with a [`Logger::DEFAULT_CAPACITY`]-record ring at `Info`;
/// `OREX_LOG=<level>[,target=level]*` adjusts the filter (`off` captures
/// nothing), and `OREX_TELEMETRY=0|off|false` starts the logger disabled
/// along with the rest of telemetry. A malformed `OREX_LOG` falls back
/// to the default filter.
pub fn logger() -> &'static Logger {
    GLOBAL_LOGGER.get_or_init(|| {
        if crate::env_disabled() {
            Logger::disabled()
        } else {
            let l = Logger::new(Logger::DEFAULT_CAPACITY);
            if let Some(filter) = std::env::var("OREX_LOG")
                .ok()
                .and_then(|v| v.parse::<LogFilter>().ok())
            {
                l.set_filter(filter);
            }
            l
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_carry_message_fields_and_order() {
        let l = Logger::new(16);
        l.info("t.a", "first")
            .field_u64("n", 7)
            .field_f64("x", 0.5)
            .field_bool("ok", true)
            .field_str("s", "v")
            .field_i64("d", -3)
            .emit();
        l.warn("t.b", "second").emit();
        let records = l.drain();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].message, "first");
        assert_eq!(records[0].level, Level::Info);
        assert_eq!(records[0].fields.len(), 5);
        assert_eq!(records[0].fields[0], ("n", FieldValue::U64(7)));
        assert_eq!(records[0].fields[3], ("s", FieldValue::Str("v".into())));
        assert_eq!(records[1].level, Level::Warn);
        assert!(records[0].seq < records[1].seq);
        assert!(records[0].unix_ns > 0);
        assert!(l.drain().is_empty(), "drain removes records");
    }

    #[test]
    fn default_filter_captures_info_not_debug() {
        let l = Logger::new(16);
        assert!(l.enabled(Level::Info, "x"));
        assert!(!l.enabled(Level::Debug, "x"));
        l.debug("x", "dropped").emit();
        l.trace("x", "dropped").emit();
        l.info("x", "kept").emit();
        let records = l.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].message, "kept");
    }

    #[test]
    fn filter_parses_default_and_targets() {
        let f: LogFilter = "warn,server=debug,authority.power=trace".parse().unwrap();
        assert_eq!(f.effective("core.session"), Some(Level::Warn));
        assert_eq!(f.effective("server"), Some(Level::Debug));
        assert_eq!(f.effective("server.access"), Some(Level::Debug));
        assert_eq!(f.effective("serverless"), Some(Level::Warn));
        assert_eq!(f.effective("authority.power"), Some(Level::Trace));
        assert!(f.admits(Level::Debug, "server.access"));
        assert!(!f.admits(Level::Trace, "server.access"));
    }

    #[test]
    fn filter_longest_prefix_wins() {
        let f: LogFilter = "info,server=warn,server.access=debug".parse().unwrap();
        assert_eq!(f.effective("server.access"), Some(Level::Debug));
        assert_eq!(f.effective("server.access.slow"), Some(Level::Debug));
        assert_eq!(f.effective("server.cache"), Some(Level::Warn));
    }

    #[test]
    fn filter_off_rejects_everything() {
        let f: LogFilter = "off".parse().unwrap();
        assert!(!f.admits(Level::Error, "x"));
        let l = Logger::new(4);
        l.set_filter(f);
        l.error("x", "dropped").emit();
        assert!(l.drain().is_empty());
        let muted: LogFilter = "info,noisy=off".parse().unwrap();
        assert!(!muted.admits(Level::Error, "noisy.sub"));
        assert!(muted.admits(Level::Info, "other"));
    }

    #[test]
    fn filter_rejects_malformed_input() {
        assert!("".parse::<LogFilter>().is_err());
        assert!("loud".parse::<LogFilter>().is_err());
        assert!("info,=debug".parse::<LogFilter>().is_err());
        assert!("info,warn".parse::<LogFilter>().is_err());
        assert!("info,server=verydetailed".parse::<LogFilter>().is_err());
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let l = Logger::new(2);
        l.info("t", "one").emit();
        l.info("t", "two").emit();
        l.info("t", "three").emit();
        let messages: Vec<_> = l.drain().into_iter().map(|r| r.message).collect();
        assert_eq!(messages, ["two", "three"]);
    }

    #[test]
    fn disabled_logger_is_inert() {
        let l = Logger::disabled();
        assert!(!l.is_enabled());
        assert_eq!(l.capacity(), 0);
        assert!(!l.enabled(Level::Error, "x"));
        let b = l.error("x", "nothing");
        assert!(!b.is_recording());
        b.field_u64("k", 1).emit();
        assert!(l.drain().is_empty());
    }

    #[test]
    fn records_stamp_the_current_trace_and_span() {
        let t = crate::tracer();
        let l = Logger::new(16);
        l.info("t", "outside").emit();
        let (trace, span) = {
            let span = t.span("log.test.root");
            l.info("t", "inside").emit();
            (span.trace_id(), t.current_span().map(|(_, s)| s))
        };
        let records = l.drain();
        assert_eq!(records[0].trace, None);
        assert_eq!(records[0].span, None);
        if t.is_enabled() {
            assert_eq!(records[1].trace, trace);
            assert_eq!(records[1].span, span);
            assert!(records[1].trace.is_some());
        }
    }

    #[test]
    fn rate_limit_admits_one_in_n() {
        let rl = RateLimit::new();
        let admitted: Vec<bool> = (0..10).map(|_| rl.admit(4)).collect();
        assert_eq!(
            admitted,
            [true, false, false, false, true, false, false, false, true, false]
        );
        assert_eq!(rl.count(), 10);
        let open = RateLimit::new();
        assert!((0..5).all(|_| open.admit(1)));
        assert!((0..5).all(|_| open.admit(0)));
        assert_eq!(open.count(), 10);
    }

    #[test]
    fn set_filter_updates_the_fast_reject_bound() {
        let l = Logger::new(16);
        assert!(!l.enabled(Level::Trace, "x"));
        l.set_filter(LogFilter::at(Level::Trace));
        assert!(l.enabled(Level::Trace, "x"));
        l.set_filter(LogFilter::off().with_target("only", Some(Level::Debug)));
        assert!(l.enabled(Level::Debug, "only.this"));
        assert!(!l.enabled(Level::Error, "other"));
    }

    fn emit_numbered(logger: &Logger, range: std::ops::Range<u64>) {
        for i in range {
            logger.info("t", format!("m{i}")).field_u64("i", i).emit();
        }
    }

    #[test]
    fn query_preserves_order_and_evicts_oldest() {
        let l = Logger::new(3);
        emit_numbered(&l, 0..2);
        emit_numbered(&l, 2..5);
        assert_eq!(l.retained(), 3);
        let all = l.query(None, None, None, None);
        let messages: Vec<_> = all.iter().map(|r| r.message.as_str()).collect();
        assert_eq!(messages, ["m2", "m3", "m4"], "last three survive");
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(l.retained(), 3, "query leaves the ring as it was");
    }

    #[test]
    fn query_filters_by_level_since_and_limit() {
        let l = Logger::new(64);
        l.set_filter(LogFilter::at(Level::Debug));
        l.error("t", "boom").emit();
        l.warn("t", "odd").emit();
        l.info("t", "fine").emit();
        l.debug("t", "detail").emit();

        assert_eq!(l.query(None, None, None, None).len(), 4);
        let severe = l.query(Some(Level::Warn), None, None, None);
        assert_eq!(severe.len(), 2);
        assert!(severe.iter().all(|r| r.level <= Level::Warn));

        let first_seq = l.query(None, None, None, None)[0].seq;
        let after = l.query(None, Some(first_seq), None, None);
        assert_eq!(after.len(), 3, "since is exclusive");

        let newest = l.query(None, None, Some(2), None);
        assert_eq!(newest.len(), 2);
        assert_eq!(newest[1].message, "detail", "limit keeps the newest");
    }

    #[test]
    fn query_filters_by_trace_id() {
        let l = Logger::new(64);
        let traced_id;
        {
            let span = crate::tracer().span("t.request");
            traced_id = span.trace_id().map(|t| t.0);
            l.info("t", "inside").emit();
        }
        l.info("t", "outside").emit();

        if let Some(id) = traced_id {
            let matched = l.query(None, None, None, Some(id));
            assert_eq!(matched.len(), 1);
            assert_eq!(matched[0].message, "inside");
        }
        // A trace id nothing was stamped with matches no records —
        // including the untraced "outside" record.
        assert!(l.query(None, None, None, Some(u64::MAX)).is_empty());
    }

    #[test]
    fn empty_logger_queries_empty() {
        for l in [Logger::new(4), Logger::disabled()] {
            assert_eq!(l.retained(), 0);
            assert!(l
                .query(Some(Level::Error), Some(7), Some(1), None)
                .is_empty());
            assert_eq!(l.newest_seq(), None);
        }
    }

    #[test]
    fn newest_seq_tracks_the_latest_record() {
        let l = Logger::new(4);
        assert_eq!(l.newest_seq(), None);
        emit_numbered(&l, 0..3);
        let newest = l.newest_seq().unwrap();
        let all = l.query(None, None, None, None);
        assert_eq!(newest, all.last().unwrap().seq);
        // A cursor past the newest seq matches nothing.
        assert!(l.query(None, Some(newest + 100), None, None).is_empty());
    }

    #[test]
    fn concurrent_logging_keeps_every_record_distinct() {
        let l = Logger::new(256);
        std::thread::scope(|scope| {
            for thread in 0..4 {
                let l = l.clone();
                scope.spawn(move || {
                    for i in 0..8 {
                        l.info("t", "c")
                            .field_u64("thread", thread)
                            .field_u64("i", i)
                            .emit();
                    }
                });
            }
        });
        let records = l.drain();
        assert_eq!(records.len(), 32);
        let mut seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        let sorted = seqs.clone();
        seqs.sort_unstable();
        assert_eq!(seqs, sorted, "drain returns capture order");
        seqs.dedup();
        assert_eq!(seqs.len(), 32, "every record got a distinct ticket");
    }
}
