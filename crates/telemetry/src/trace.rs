//! Per-query hierarchical tracing.
//!
//! A [`Tracer`] mints a fresh [`TraceId`] for every root span and nests
//! child spans under whatever span is active on the current thread, so
//! engines get parent/child structure without threading context through
//! public signatures. Completed spans — start/end timestamps, key=value
//! attributes, instant events — land in a bounded ring buffer the tracer
//! owns: steady-state memory is fixed (oldest spans are evicted first)
//! and a disabled tracer costs exactly one branch per span with no
//! allocation and no ring write.
//!
//! Read one trace in place with [`Tracer::spans_of`], or take every
//! span with [`Tracer::drain`], and render them with the
//! [`crate::export`] module (Chrome trace-event JSON or folded
//! flamegraph stacks).
//!
//! Under real traffic, recording *every* trace just fills the ring with
//! the most recent queries rather than the most interesting ones. Per
//! the 1-in-N sampling of [`Tracer::set_sample_every`] (or the
//! `OREX_TRACE_SAMPLE` environment variable), unsampled traces buffer
//! their spans until the root completes and are then discarded — unless
//! the root ran at least [`Tracer::set_slow_threshold`]
//! (`OREX_TRACE_SLOW_US`), in which case the whole trace is promoted to
//! the ring anyway. Slow outliers are always retained, in the ring of
//! the process that ran them; with no slow threshold an unsampled span
//! is dropped as soon as it closes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::ring::{Ring, Sequenced};

/// Identifies one query's trace; every root span mints a fresh id and
/// its descendants inherit it.
#[derive(Clone, Copy, Debug, Eq, Hash, Ord, PartialEq, PartialOrd)]
pub struct TraceId(pub u64);

/// Identifies one span within a tracer.
#[derive(Clone, Copy, Debug, Eq, Hash, Ord, PartialEq, PartialOrd)]
pub struct SpanId(pub u64);

/// Distributed trace context carried across process boundaries in the
/// `X-Orex-Trace` header, W3C-traceparent style:
/// `<trace:016x>-<parent_span:016x>-<flags:02x>`.
///
/// The flags byte carries the ingress edge's sampling decision so every
/// process in the request path agrees on it: `01`
/// ([`TraceContext::SAMPLED`]) means the trace won the sampling draw at
/// the ingress edge and every hop records it, overriding its local
/// 1-in-N draw; `00` means unsampled, so each hop keeps its part only if
/// its own root crosses its slow threshold. Other bits are ignored.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct TraceContext {
    /// Trace the remote caller is inside.
    pub trace: TraceId,
    /// The caller's span, adopted as the local root's parent.
    pub parent: SpanId,
    /// Sampling flags; see the type docs.
    pub flags: u8,
}

impl TraceContext {
    /// Header name the context travels in (lower-cased, the form header
    /// lookups use).
    pub const HEADER: &'static str = "x-orex-trace";
    /// Flags bit: the ingress edge sampled this trace.
    pub const SAMPLED: u8 = 0x01;

    /// Whether the ingress edge sampled this trace.
    pub fn sampled(&self) -> bool {
        self.flags & Self::SAMPLED != 0
    }

    /// Parses a header value of the form
    /// `<trace:016x>-<parent:016x>-<flags:02x>`. Unknown flag bits are
    /// preserved; a zero trace id (no trace) and malformed input parse
    /// as `None`.
    pub fn parse(value: &str) -> Option<Self> {
        let mut parts = value.trim().splitn(3, '-');
        let trace = u64::from_str_radix(parts.next()?, 16).ok()?;
        let parent = u64::from_str_radix(parts.next()?, 16).ok()?;
        let flags = u8::from_str_radix(parts.next()?, 16).ok()?;
        if trace == 0 {
            return None;
        }
        Some(Self {
            trace: TraceId(trace),
            parent: SpanId(parent),
            flags,
        })
    }

    /// Renders the header value [`TraceContext::parse`] reads.
    pub fn header_value(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:02x}",
            self.trace.0, self.parent.0, self.flags
        )
    }
}

/// A typed span attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

/// A point-in-time marker recorded inside a span.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub at_ns: u64,
}

/// A completed span, as the tracer's ring retains it.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id, unique within the tracer.
    pub id: SpanId,
    /// Parent span, `None` for roots. The parent may have been evicted
    /// from the ring; exporters treat such orphans as roots.
    pub parent: Option<SpanId>,
    /// Span name (`crate.component.phase` by convention).
    pub name: &'static str,
    /// Start time, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End time, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Attributes attached via [`ActiveSpan::attr_u64`] and friends.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Instant events attached via [`ActiveSpan::event`].
    pub events: Vec<TraceEvent>,
    /// Logical id of the thread the span ran on (small dense integers,
    /// not OS thread ids).
    pub tid: u64,
    /// Completion order: the ring ticket assigned when the span ended. [`Tracer::spans_of`] and [`Tracer::drain`] return
    /// records in this order.
    pub ticket: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

// The span sink is the bounded ring shared with the logger (see
// [`crate::ring`]); it stamps each record's ticket.
impl Sequenced for SpanRecord {
    fn set_seq(&mut self, seq: u64) {
        self.ticket = seq;
    }

    fn seq(&self) -> u64 {
        self.ticket
    }
}

/// 1-in-N trace sampling state; see [`Tracer::set_sample_every`].
struct Sampling {
    /// Record 1-in-`every` root spans (and their descendants); `<= 1`
    /// means every trace is recorded.
    every: AtomicU64,
    /// Unsampled traces whose root runs at least this long are promoted
    /// to the ring anyway; `u64::MAX` = never promote.
    slow_ns: AtomicU64,
    /// Root spans seen, driving the 1-in-N decision.
    roots: AtomicU64,
    /// Completed spans of still-open *unsampled* traces, keyed by trace
    /// id and held until their root decides promote-or-discard. Empty
    /// while no slow threshold is set.
    pending: Mutex<HashMap<u64, Vec<SpanRecord>>>,
}

/// At most this many unsampled traces buffer pending spans at once —
/// a leak guard, since well-formed traces drain when their root drops.
const MAX_PENDING_TRACES: usize = 256;

/// Entropy-derived base for trace and span ids, so independently
/// started processes (router and each worker) almost surely mint from
/// disjoint ranges — a fleet stitches traces by id, and two processes
/// both counting up from 1 would collide on every query, and a worker
/// span sharing its remote parent's id (the router hop) would file the
/// worker's root under its own descendant and render an empty trace.
/// SplitMix64 over the process id and the wall clock; deterministic
/// under miri, which isolates the clock.
fn id_seed() -> u64 {
    #[cfg(miri)]
    {
        1
    }
    #[cfg(not(miri))]
    {
        static SEED_SALT: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        // ORDERING: Relaxed — pure salt allocation; only uniqueness matters.
        let salt = SEED_SALT.fetch_add(1, Ordering::Relaxed);
        let mut x = nanos
            ^ (u64::from(std::process::id()) << 32)
            ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        // Nonzero: TraceContext::parse treats trace id 0 as "no trace".
        (x ^ (x >> 31)) | 1
    }
}

struct TracerInner {
    /// Distinguishes tracers on the shared thread-local span stack.
    id: u64,
    /// All timestamps are offsets from this instant.
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    ring: Ring<SpanRecord>,
    sampling: Sampling,
}

impl TracerInner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[derive(Clone, Copy)]
struct StackEntry {
    tracer: u64,
    trace: u64,
    span: u64,
    /// Whether this trace won the 1-in-N sampling draw (children
    /// inherit the root's decision).
    sampled: bool,
}

thread_local! {
    /// Active-span stack shared by all tracers on this thread; entries
    /// are tagged with their tracer's id so independent tracers (e.g. a
    /// test's private tracer next to the global one) never adopt each
    /// other's spans as parents.
    static SPAN_STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // ORDERING: Relaxed — pure id allocation; only uniqueness matters.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Mints per-query trace ids and nested spans; see the module docs.
/// Cloning shares the underlying ring.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// Ring capacity used by the global [`tracer`].
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An enabled tracer whose ring holds up to `capacity` completed
    /// spans (minimum 1); older spans are evicted oldest-first.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(TracerInner {
                // ORDERING: Relaxed — pure id allocation.
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                next_trace: AtomicU64::new(id_seed()),
                next_span: AtomicU64::new(id_seed()),
                ring: Ring::new(capacity),
                sampling: Sampling {
                    every: AtomicU64::new(1),
                    slow_ns: AtomicU64::new(u64::MAX),
                    roots: AtomicU64::new(0),
                    pending: Mutex::new(HashMap::new()),
                },
            })),
        }
    }

    /// A tracer whose every operation is a no-op: spans cost one branch,
    /// allocate nothing, and never touch a ring.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// False for a [`Tracer::disabled`] tracer.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.ring.capacity())
    }

    /// Completed spans currently retained (0 when disabled).
    pub fn retained(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.ring.len())
    }

    /// Samples 1-in-`every` traces: only every `every`-th root span (and
    /// its descendants) commits to the ring; the rest buffer until their
    /// root completes and are discarded — unless promoted by the slow
    /// threshold. `0` and `1` both mean "record every trace" (the
    /// default). No-op on a disabled tracer.
    pub fn set_sample_every(&self, every: u64) {
        if let Some(inner) = &self.inner {
            // Release-publish the new rate so a thread that observes it
            // (Acquire loads in `span`/`sample_every`) also observes any
            // configuration written before this call.
            inner.sampling.every.store(every.max(1), Ordering::Release);
        }
    }

    /// The current 1-in-N sampling rate (1 = every trace).
    pub fn sample_every(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(1, |i| i.sampling.every.load(Ordering::Acquire).max(1))
    }

    /// Unsampled traces whose *root* span runs at least `threshold` are
    /// committed to the ring anyway, so slow outliers are always
    /// retained under sampling. `None` (the default) never promotes.
    pub fn set_slow_threshold(&self, threshold: Option<Duration>) {
        if let Some(inner) = &self.inner {
            let ns = threshold.map_or(u64::MAX, |d| {
                u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
            });
            // Release-publish, pairing with the Acquire loads in
            // `slow_threshold` and the root-drop promotion check.
            inner.sampling.slow_ns.store(ns, Ordering::Release);
        }
    }

    /// The always-trace slow threshold, when one is set.
    pub fn slow_threshold(&self) -> Option<Duration> {
        let ns = self
            .inner
            .as_ref()
            .map_or(u64::MAX, |i| i.sampling.slow_ns.load(Ordering::Acquire));
        (ns != u64::MAX).then(|| Duration::from_nanos(ns))
    }

    /// Opens a span. If this thread already has an active span from this
    /// tracer, the new span becomes its child and joins its trace;
    /// otherwise it becomes the root of a freshly minted trace. The span
    /// closes (and its record enters the ring) when the guard drops.
    pub fn span(&self, name: &'static str) -> ActiveSpan {
        self.open(name, None)
    }

    /// Opens a span under a remote trace context (the server's request
    /// path adopting an incoming `X-Orex-Trace` header). With
    /// `Some(context)` the span becomes a *remote-parent root*: it joins
    /// the caller's trace, records the caller's span as its parent, and
    /// takes the propagated sampling decision instead of drawing
    /// locally — but it still runs the root-side promote-or-discard
    /// decision when it closes, so an unsampled remote trace whose local
    /// work is slow is promoted into this tracer's ring. With `None`
    /// this is exactly [`Tracer::span`].
    pub fn span_with_context(
        &self,
        name: &'static str,
        context: Option<TraceContext>,
    ) -> ActiveSpan {
        self.open(name, context)
    }

    fn open(&self, name: &'static str, context: Option<TraceContext>) -> ActiveSpan {
        let Some(inner) = &self.inner else {
            return ActiveSpan {
                inner: None,
                _not_send: PhantomData,
            };
        };
        // ORDERING: Relaxed — pure id allocation; only uniqueness matters.
        let id = SpanId(inner.next_span.fetch_add(1, Ordering::Relaxed));
        let (trace, parent, sampled, root) = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // A remote context wins over local nesting: it only arrives
            // at ingress points where no local span is open, and the
            // propagated decision must not be re-drawn.
            let decided = match context {
                Some(ctx) => Some((ctx.trace, Some(ctx.parent), ctx.sampled(), true)),
                None => stack
                    .iter()
                    .rev()
                    .find(|e| e.tracer == inner.id)
                    .map(|e| (TraceId(e.trace), Some(SpanId(e.span)), e.sampled, false)),
            };
            let (trace, parent, sampled, root) = decided.unwrap_or_else(|| {
                // Acquire pairs with the Release store in
                // `set_sample_every`: a root that sees the new rate also
                // sees every config write that preceded it.
                let every = inner.sampling.every.load(Ordering::Acquire);
                let sampled =
                    every <= 1 || inner.sampling.roots.fetch_add(1, Ordering::Relaxed) % every == 0; // ORDERING: Relaxed — monotone draw counter; no data published.
                (
                    TraceId(inner.next_trace.fetch_add(1, Ordering::Relaxed)), // ORDERING: Relaxed — pure id allocation.
                    None,
                    sampled,
                    true,
                )
            });
            stack.push(StackEntry {
                tracer: inner.id,
                trace: trace.0,
                span: id.0,
                sampled,
            });
            (trace, parent, sampled, root)
        });
        let record = SpanRecord {
            trace,
            id,
            parent,
            name,
            start_ns: inner.now_ns(),
            end_ns: 0,
            attrs: Vec::new(),
            events: Vec::new(),
            tid: TID.with(|t| *t),
            ticket: 0,
        };
        ActiveSpan {
            inner: Some(Box::new(ActiveInner {
                tracer: Arc::clone(inner),
                record,
                sampled,
                root,
            })),
            _not_send: PhantomData,
        }
    }

    /// Copies of the retained spans of `trace`, in completion order,
    /// leaving the ring as it was. A trace is readable while it is
    /// still open: each span is retained as it completes, so children
    /// show up before their root. Empty when nothing of `trace` is
    /// retained (never recorded, unsampled, or evicted).
    pub fn spans_of(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.ring.filtered(|r| r.trace == trace))
    }

    /// Removes and returns every completed span in the ring, oldest
    /// first. Spans still open stay untracked until their guards drop.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.ring.drain())
    }

    /// Nanoseconds since this tracer's epoch — the clock every span's
    /// `start_ns`/`end_ns` is stamped with. Exposed so processes can
    /// exchange clock readings (`X-Orex-Clock` on health probes) and a
    /// stitching ingress can align per-process span timestamps. 0 when
    /// disabled.
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now_ns())
    }

    /// The innermost span of this tracer still open on the current
    /// thread, as `(trace, span)` ids — how the log module stamps each
    /// record with its trace context. `None` when no span is open here
    /// (or the tracer is disabled).
    pub fn current_span(&self) -> Option<(TraceId, SpanId)> {
        let inner = self.inner.as_ref()?;
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|e| e.tracer == inner.id)
                .map(|e| (TraceId(e.trace), SpanId(e.span)))
        })
    }

    /// The trace the current thread is inside, but only when that trace
    /// won the sampling draw and will be retained in the ring — the id
    /// exemplars should point at, since an unsampled trace's id would
    /// 404 on `GET /trace/<id>`. `None` when no span is open here, the
    /// trace is unsampled, or the tracer is disabled.
    pub fn current_sampled_trace(&self) -> Option<TraceId> {
        let inner = self.inner.as_ref()?;
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|e| e.tracer == inner.id)
                .and_then(|e| e.sampled.then_some(TraceId(e.trace)))
        })
    }

    /// The current thread's innermost open span of this tracer as a
    /// propagation context — what an outbound hop, or a job handed off
    /// to a background thread, should carry so remote (or deferred)
    /// spans join this trace. `None` when no span is open here or the
    /// tracer is disabled.
    pub fn current_context(&self) -> Option<TraceContext> {
        let inner = self.inner.as_ref()?;
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|e| e.tracer == inner.id)
                .map(|e| TraceContext {
                    trace: TraceId(e.trace),
                    parent: SpanId(e.span),
                    flags: if e.sampled { TraceContext::SAMPLED } else { 0 },
                })
        })
    }
}

/// Logical id of the current thread (the same small dense integers
/// stamped into [`SpanRecord::tid`]), for the log module.
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| *t)
}

struct ActiveInner {
    tracer: Arc<TracerInner>,
    record: SpanRecord,
    sampled: bool,
    /// Whether this span runs the root-side promote-or-discard decision
    /// on drop. Local roots have no parent; a *remote-parent* root has
    /// `record.parent == Some(remote span)` yet is still the outermost
    /// span of this process's part of the trace, so `parent.is_some()`
    /// cannot distinguish the two.
    root: bool,
}

/// Guard for an open span; see [`Tracer::span`]. Dropping it stamps the
/// end timestamp and commits the record to the tracer's ring.
///
/// Deliberately `!Send`: parenting lives in a thread-local stack, so a
/// guard must drop on the thread that opened it.
pub struct ActiveSpan {
    inner: Option<Box<ActiveInner>>,
    _not_send: PhantomData<*const ()>,
}

impl ActiveSpan {
    /// True when this span will be recorded (its tracer is enabled) —
    /// lets callers skip computing expensive attribute values.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace this span belongs to (`None` when disabled).
    pub fn trace_id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|i| i.record.trace)
    }

    /// True when this span's trace won the sampling draw and will land
    /// in the ring — the condition under which its trace id is worth
    /// exposing as an exemplar.
    pub fn is_sampled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.sampled)
    }

    /// The trace context a downstream hop should adopt: this trace,
    /// this span as the remote parent, and the trace's sampling
    /// decision in the flags byte. Inject it as the `X-Orex-Trace`
    /// header ([`TraceContext::HEADER`]) on outbound requests. `None`
    /// when the tracer is disabled.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|i| TraceContext {
            trace: i.record.trace,
            parent: i.record.id,
            flags: if i.sampled { TraceContext::SAMPLED } else { 0 },
        })
    }

    /// Attaches an unsigned-integer attribute.
    #[inline]
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.record.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attaches a float attribute.
    #[inline]
    pub fn attr_f64(&mut self, key: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.record.attrs.push((key, AttrValue::F64(value)));
        }
    }

    /// Attaches a string attribute. The value is only materialised when
    /// the span is recording.
    #[inline]
    pub fn attr_str(&mut self, key: &'static str, value: impl AsRef<str>) {
        if let Some(inner) = &mut self.inner {
            inner
                .record
                .attrs
                .push((key, AttrValue::Str(value.as_ref().to_string())));
        }
    }

    /// Records an instant event at the current time inside this span.
    #[inline]
    pub fn event(&mut self, name: &'static str) {
        if let Some(inner) = &mut self.inner {
            let at_ns = inner.tracer.now_ns();
            inner.record.events.push(TraceEvent { name, at_ns });
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let ActiveInner {
            tracer,
            mut record,
            sampled,
            root,
        } = *inner;
        record.end_ns = tracer.now_ns();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Usually the top of the stack, but search downward so an
            // out-of-order drop (e.g. guards stored in a struct) can't
            // corrupt unrelated entries.
            if let Some(pos) = stack
                .iter()
                .rposition(|e| e.tracer == tracer.id && e.span == record.id.0)
            {
                stack.remove(pos);
            }
        });
        if sampled {
            tracer.ring.push(record);
            return;
        }
        // Acquire pairs with the Release store in `set_slow_threshold`.
        let slow_ns = tracer.sampling.slow_ns.load(Ordering::Acquire);
        if !root {
            if slow_ns == u64::MAX {
                // Nothing can promote this trace: drop the span now.
                return;
            }
            // Unsampled child: hold it until the root decides whether
            // the trace is promoted (slow) or discarded. A poisoned
            // lock is recovered — every mutation of the pending map
            // completes or never starts, so the map stays structurally
            // valid, and a span guard's Drop must never panic.
            let mut pending = tracer
                .sampling
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let at_cap =
                pending.len() >= MAX_PENDING_TRACES && !pending.contains_key(&record.trace.0);
            if !at_cap {
                let buf = pending.entry(record.trace.0).or_default();
                if buf.len() < tracer.ring.capacity() {
                    buf.push(record);
                }
            }
            return;
        }
        // Unsampled root (local or remote-parent): this process's part
        // of the trace is complete. Promote everything if the root
        // crossed the slow threshold, otherwise drop it all. The entry
        // is removed either way, so a threshold cleared mid-trace
        // leaves nothing behind.
        let buffered = tracer
            .sampling
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner) // recovered: see above, Drop must not panic
            .remove(&record.trace.0);
        if record.duration_ns() >= slow_ns {
            for span in buffered.into_iter().flatten() {
                tracer.ring.push(span);
            }
            tracer.ring.push(record);
        }
    }
}

static GLOBAL_TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer the engine crates open spans on. Enabled by
/// default with a [`Tracer::DEFAULT_CAPACITY`]-span ring; setting
/// `OREX_TELEMETRY=0|off|false` starts it disabled, making every span a
/// single-branch no-op. `OREX_TRACE_SAMPLE=N` starts it sampling 1-in-N
/// traces and `OREX_TRACE_SLOW_US=T` promotes any unsampled trace whose
/// root ran at least `T` microseconds.
pub fn tracer() -> &'static Tracer {
    GLOBAL_TRACER.get_or_init(|| {
        if crate::env_disabled() {
            Tracer::disabled()
        } else {
            let t = Tracer::new(Tracer::DEFAULT_CAPACITY);
            if let Some(every) = std::env::var("OREX_TRACE_SAMPLE")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
            {
                t.set_sample_every(every);
            }
            if let Some(us) = std::env::var("OREX_TRACE_SLOW_US")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
            {
                t.set_slow_threshold(Some(Duration::from_micros(us)));
            }
            t
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_then_children_share_a_trace() {
        let t = Tracer::new(16);
        {
            let root = t.span("root");
            let root_trace = root.trace_id().unwrap();
            {
                let child = t.span("child");
                assert_eq!(child.trace_id(), Some(root_trace));
                drop(t.span("grandchild"));
            }
        }
        let records = t.drain();
        assert_eq!(records.len(), 3);
        // Completion order: grandchild, child, root.
        assert_eq!(records[0].name, "grandchild");
        assert_eq!(records[2].name, "root");
        let root = &records[2];
        let child = &records[1];
        let grandchild = &records[0];
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(grandchild.parent, Some(child.id));
        assert!(records.iter().all(|r| r.trace == root.trace));
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
    }

    #[test]
    fn separate_roots_get_separate_traces() {
        let t = Tracer::new(16);
        drop(t.span("a"));
        drop(t.span("b"));
        let records = t.drain();
        assert_eq!(records.len(), 2);
        assert_ne!(records[0].trace, records[1].trace);
        assert!(records.iter().all(|r| r.parent.is_none()));
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let t = Tracer::new(2);
        drop(t.span("one"));
        drop(t.span("two"));
        drop(t.span("three"));
        let names: Vec<_> = t.drain().iter().map(|r| r.name).collect();
        assert_eq!(names, ["two", "three"]);
        assert!(t.drain().is_empty(), "drain removes records");
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let mut span = t.span("root");
        assert!(!span.is_recording());
        assert_eq!(span.trace_id(), None);
        span.attr_u64("k", 1);
        span.event("e");
        drop(span);
        assert!(t.drain().is_empty());
        // The shared stack stays untouched for other tracers.
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn attributes_and_events_survive_the_ring() {
        let t = Tracer::new(4);
        {
            let mut span = t.span("work");
            span.attr_u64("n", 7);
            span.attr_f64("residual", 0.125);
            span.attr_str("query", "multicast");
            span.event("pruned");
        }
        let records = t.drain();
        let r = &records[0];
        assert_eq!(r.attrs[0], ("n", AttrValue::U64(7)));
        assert_eq!(r.attrs[1], ("residual", AttrValue::F64(0.125)));
        assert_eq!(r.attrs[2], ("query", AttrValue::Str("multicast".into())));
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].name, "pruned");
        assert!(r.events[0].at_ns >= r.start_ns && r.events[0].at_ns <= r.end_ns);
    }

    #[test]
    fn private_tracers_do_not_adopt_each_others_spans() {
        let a = Tracer::new(4);
        let b = Tracer::new(4);
        let _outer = a.span("a.root");
        drop(b.span("b.root"));
        let b_records = b.drain();
        assert_eq!(b_records[0].parent, None, "b must not parent under a");
    }

    #[test]
    fn sampling_records_one_in_n_traces() {
        let t = Tracer::new(64);
        t.set_sample_every(2);
        assert_eq!(t.sample_every(), 2);
        for _ in 0..4 {
            let _root = t.span("root");
            drop(t.span("child"));
        }
        let records = t.drain();
        // Roots 0 and 2 win the draw (0 % 2 == 0), each with one child.
        assert_eq!(records.len(), 4);
        let traces: std::collections::HashSet<_> = records.iter().map(|r| r.trace).collect();
        assert_eq!(traces.len(), 2);
        assert_eq!(records.iter().filter(|r| r.name == "root").count(), 2);
        // Discarded traces left nothing pending.
        let inner = t.inner.as_ref().unwrap();
        assert!(inner.sampling.pending.lock().unwrap().is_empty());
    }

    #[test]
    fn slow_unsampled_traces_are_promoted() {
        let t = Tracer::new(64);
        t.set_sample_every(u64::MAX); // only root 0 samples; everything after loses
        t.set_slow_threshold(Some(Duration::ZERO)); // ...but everything is "slow"
        assert_eq!(t.slow_threshold(), Some(Duration::ZERO));
        drop(t.span("first")); // sampled (draw 0)
        {
            let _root = t.span("slow.root"); // unsampled, promoted on drop
            drop(t.span("slow.child"));
        }
        let records = t.drain();
        let names: Vec<_> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["first", "slow.child", "slow.root"]);
        let root = records.iter().find(|r| r.name == "slow.root").unwrap();
        let child = records.iter().find(|r| r.name == "slow.child").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.trace, root.trace);
    }

    #[test]
    fn discarded_traces_clear_their_pending_buffer() {
        let t = Tracer::new(64);
        t.set_sample_every(u64::MAX);
        drop(t.span("winner")); // draw 0: sampled
        let inner = t.inner.as_ref().unwrap();
        {
            let _root = t.span("loser.root");
            drop(t.span("loser.child"));
            assert!(
                inner.sampling.pending.lock().unwrap().is_empty(),
                "with no slow threshold an unsampled child is not buffered"
            );
        }
        let names: Vec<_> = t.drain().iter().map(|r| r.name).collect();
        assert_eq!(names, ["winner"], "unsampled trace fully discarded");
        assert!(
            inner.sampling.pending.lock().unwrap().is_empty(),
            "root drop must free the buffered children"
        );
    }

    #[test]
    fn sampling_disabled_by_default() {
        let t = Tracer::new(16);
        assert_eq!(t.sample_every(), 1);
        assert_eq!(t.slow_threshold(), None);
        for _ in 0..5 {
            drop(t.span("root"));
        }
        assert_eq!(t.drain().len(), 5);
    }

    #[test]
    fn context_header_roundtrips() {
        let ctx = TraceContext {
            trace: TraceId(0xDEAD_BEEF_1234_5678),
            parent: SpanId(42),
            flags: TraceContext::SAMPLED,
        };
        let value = ctx.header_value();
        assert_eq!(value, "deadbeef12345678-000000000000002a-01");
        assert_eq!(TraceContext::parse(&value), Some(ctx));
        assert!(ctx.sampled());
        // Unknown bits are kept but ignored: `02` reads as unsampled.
        let parsed = TraceContext::parse("deadbeef12345678-000000000000002a-02").unwrap();
        assert_eq!(parsed.flags, 0x02);
        assert!(!parsed.sampled());
    }

    #[test]
    fn context_parse_rejects_malformed() {
        for bad in [
            "",
            "nothex-0000000000000001-01",
            "0000000000000001-nothex-01",
            "0000000000000001-0000000000000002-zz",
            "0000000000000001-0000000000000002",
            "0000000000000000-0000000000000002-01", // zero trace id
            "00000000000000010000000000000002-01",
        ] {
            assert!(TraceContext::parse(bad).is_none(), "{bad:?} must not parse");
        }
        // Whitespace around a well-formed value is tolerated (header
        // values arrive trimmed, but be safe).
        assert!(TraceContext::parse(" 0000000000000001-0000000000000002-00 ").is_some());
    }

    #[test]
    fn remote_context_adopts_trace_and_parent() {
        let t = Tracer::new(16);
        let ctx = TraceContext {
            trace: TraceId(777),
            parent: SpanId(12),
            flags: TraceContext::SAMPLED,
        };
        {
            let root = t.span_with_context("server.request", Some(ctx));
            assert_eq!(root.trace_id(), Some(TraceId(777)));
            assert!(root.is_sampled());
            drop(t.span("child"));
        }
        let records = t.drain();
        assert_eq!(records.len(), 2);
        let root = records.iter().find(|r| r.name == "server.request").unwrap();
        let child = records.iter().find(|r| r.name == "child").unwrap();
        assert_eq!(root.trace, TraceId(777));
        assert_eq!(root.parent, Some(SpanId(12)), "remote parent preserved");
        assert_eq!(child.trace, TraceId(777));
        assert_eq!(child.parent, Some(root.id));
    }

    #[test]
    fn span_with_context_none_is_a_plain_span() {
        let t = Tracer::new(16);
        drop(t.span_with_context("root", None));
        let records = t.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].parent, None);
    }

    #[test]
    fn propagated_sampled_flag_overrides_local_draw() {
        let t = Tracer::new(64);
        t.set_sample_every(u64::MAX);
        drop(t.span("winner")); // consume draw 0: every later local root loses
        drop(t.span("local.loser"));
        let ctx = TraceContext {
            trace: TraceId(5000),
            parent: SpanId(1),
            flags: TraceContext::SAMPLED,
        };
        {
            let _root = t.span_with_context("remote.request", Some(ctx));
            drop(t.span("remote.child"));
        }
        let names: Vec<_> = t.drain().iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["winner", "remote.child", "remote.request"],
            "the propagated decision records despite the lost local draw"
        );
    }

    #[test]
    fn propagated_unsampled_context_does_not_consume_a_local_draw() {
        let t = Tracer::new(64);
        t.set_sample_every(2); // draws 0, 2, 4... win
        let ctx = TraceContext {
            trace: TraceId(6000),
            parent: SpanId(1),
            flags: 0,
        };
        drop(t.span_with_context("remote", Some(ctx))); // no draw consumed
        drop(t.span("local.a")); // draw 0: sampled
        drop(t.span("local.b")); // draw 1: unsampled
        let names: Vec<_> = t.drain().iter().map(|r| r.name).collect();
        assert_eq!(names, ["local.a"]);
    }

    #[test]
    fn slow_unsampled_remote_trace_is_promoted_into_the_ring() {
        let t = Tracer::new(64);
        t.set_slow_threshold(Some(Duration::ZERO));
        let ctx = TraceContext {
            trace: TraceId(8000),
            parent: SpanId(1),
            flags: 0, // unsampled
        };
        {
            let _root = t.span_with_context("remote.request", Some(ctx));
            let _child = t.span("remote.child");
            drop(t.span("remote.grandchild"));
        }
        let spans = t.spans_of(TraceId(8000));
        let names: Vec<_> = spans.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["remote.grandchild", "remote.child", "remote.request"]
        );
        assert_eq!(spans[2].parent, Some(SpanId(1)), "remote parent kept");
        assert_eq!(spans[1].parent, Some(spans[2].id));
        assert_eq!(spans[0].parent, Some(spans[1].id));
        let inner = t.inner.as_ref().unwrap();
        assert!(inner.sampling.pending.lock().unwrap().is_empty());
    }

    #[test]
    fn active_span_context_carries_the_sampling_decision() {
        let t = Tracer::new(16);
        let span = t.span("root");
        let ctx = span.context().unwrap();
        assert_eq!(Some(ctx.trace), span.trace_id());
        assert!(ctx.sampled(), "default sampling records everything");
        assert_eq!(TraceContext::parse(&ctx.header_value()), Some(ctx));
        drop(span);

        t.set_sample_every(u64::MAX);
        drop(t.span("consume-draw-0"));
        let loser = t.span("unsampled");
        let ctx = loser.context().unwrap();
        assert_eq!(ctx.flags, 0, "an unsampled trace propagates 00");
        drop(loser);

        let remote = t.span_with_context(
            "remote",
            Some(TraceContext {
                trace: TraceId(9000),
                parent: SpanId(3),
                flags: 0x02,
            }),
        );
        let ctx = remote.context().unwrap();
        assert_eq!(ctx.flags, 0, "unknown bits are not passed on");
        assert_eq!(ctx.trace, TraceId(9000));

        assert!(Tracer::disabled().span("x").context().is_none());
    }

    #[test]
    fn trace_ids_are_entropy_seeded_per_tracer() {
        // Under miri the seed is pinned; elsewhere two tracers created in
        // the same process at (almost) the same time still differ because
        // the clock advances between seeds — and any collision here would
        // mean the whole fleet collides by construction.
        let a = Tracer::new(4);
        let b = Tracer::new(4);
        drop(a.span("a"));
        drop(b.span("b"));
        let (ra, rb) = (a.drain().remove(0), b.drain().remove(0));
        assert_ne!(ra.trace.0, 0);
        assert_ne!(rb.trace.0, 0);
        if !cfg!(miri) {
            assert_ne!(
                ra.trace, rb.trace,
                "independent tracers mint from disjoint ranges"
            );
            assert_ne!(ra.id, rb.id, "span ids are seeded per tracer too");
        }
    }

    #[test]
    fn child_span_is_readable_before_its_root_closes() {
        let t = Tracer::new(64);
        let trace;
        {
            let root = t.span("request");
            trace = root.trace_id().unwrap();
            drop(t.span("rank"));
            let open: Vec<_> = t.spans_of(trace).iter().map(|r| r.name).collect();
            assert_eq!(open, ["rank"], "the child reads while its root is open");
        }
        let spans = t.spans_of(trace);
        let names: Vec<_> = spans.iter().map(|r| r.name).collect();
        assert_eq!(names, ["rank", "request"], "completion order");
        assert!(spans[0].ticket < spans[1].ticket);
        assert_eq!(
            t.spans_of(trace).len(),
            2,
            "reading leaves the ring as it was"
        );
    }

    #[test]
    fn eviction_drops_oldest_trace() {
        let t = Tracer::new(4);
        let ids: Vec<TraceId> = ["a", "b", "c"]
            .into_iter()
            .map(|name| {
                let root = t.span(name);
                drop(t.span("child"));
                root.trace_id().unwrap()
            })
            .collect();
        assert_eq!(t.retained(), 4);
        assert!(t.spans_of(ids[0]).is_empty(), "oldest trace evicted");
        assert_eq!(t.spans_of(ids[1]).len(), 2);
        assert_eq!(t.spans_of(ids[2]).len(), 2);
    }

    #[test]
    fn unknown_trace_reads_empty() {
        let t = Tracer::new(2);
        assert!(t.spans_of(TraceId(42)).is_empty());
        assert_eq!(t.retained(), 0);
        assert!(Tracer::disabled().spans_of(TraceId(42)).is_empty());
    }

    #[test]
    fn concurrent_spans_keep_per_thread_parenting() {
        let t = Tracer::new(256);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        let _root = t.span("outer");
                        drop(t.span("inner"));
                    }
                });
            }
        });
        let records = t.drain();
        assert_eq!(records.len(), 64);
        for r in records.iter().filter(|r| r.name == "inner") {
            let parent = records
                .iter()
                .find(|p| Some(p.id) == r.parent)
                .expect("parent present");
            assert_eq!(parent.name, "outer");
            assert_eq!(parent.tid, r.tid, "parent chosen from the same thread");
            assert_eq!(parent.trace, r.trace);
        }
    }
}
