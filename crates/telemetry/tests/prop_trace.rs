//! Property-based tests for the tracing layer: random span programs must
//! always produce well-formed traces (strict nesting, ordered
//! timestamps, in-span events), the bounded ring must evict oldest-first,
//! and the Chrome trace-event export must round-trip through a JSON
//! parser with matched B/E pairs.

use orex_telemetry::export::to_chrome_trace;
use orex_telemetry::{SpanId, SpanRecord, TraceId, Tracer};
use proptest::prelude::*;
use std::collections::HashMap;

/// Span names are `&'static str`; index into a fixed pool.
const NAMES: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// Interprets a byte program against a tracer: each byte either opens a
/// child span, closes the innermost open span, or records an event on it.
/// Returns the drained records.
fn run_program(tracer: &Tracer, program: &[u8]) -> Vec<SpanRecord> {
    let mut open: Vec<orex_telemetry::ActiveSpan> = Vec::new();
    for (i, &op) in program.iter().enumerate() {
        match op % 4 {
            0 | 1 => {
                let mut span = tracer.span(NAMES[(op as usize / 4) % NAMES.len()]);
                span.attr_u64("step", i as u64);
                open.push(span);
            }
            2 => {
                open.pop();
            }
            _ => {
                if let Some(span) = open.last_mut() {
                    span.event("tick");
                }
            }
        }
    }
    // Close innermost-first: a Vec drops front-to-back, which would end
    // parents before their children and (correctly) violate nesting.
    while open.pop().is_some() {}
    tracer.drain()
}

fn by_id(records: &[SpanRecord]) -> HashMap<(TraceId, SpanId), &SpanRecord> {
    records.iter().map(|r| ((r.trace, r.id), r)).collect()
}

proptest! {
    /// Every record a random program produces is well-formed: end after
    /// start, events inside the span window, and each child strictly
    /// nested inside its parent (same trace, window contained).
    #[test]
    fn traces_are_well_formed(program in proptest::collection::vec(any::<u8>(), 0..200)) {
        let tracer = Tracer::new(1024);
        let records = run_program(&tracer, &program);
        let index = by_id(&records);
        for r in &records {
            prop_assert!(r.end_ns >= r.start_ns, "span {} ends before it starts", r.name);
            for e in &r.events {
                prop_assert!(
                    e.at_ns >= r.start_ns && e.at_ns <= r.end_ns,
                    "event outside its span window"
                );
            }
            if let Some(parent_id) = r.parent {
                // The program closes spans strictly LIFO, so every parent
                // outlives its children and must be present in the drain.
                let parent = index
                    .get(&(r.trace, parent_id))
                    .expect("parent drained alongside child");
                prop_assert!(parent.start_ns <= r.start_ns, "child starts before parent");
                prop_assert!(parent.end_ns >= r.end_ns, "child ends after parent");
            }
        }
    }

    /// Roots never carry a parent, and children inherit their root's
    /// trace id: all spans reachable from one root share one trace.
    #[test]
    fn trace_ids_partition_by_root(program in proptest::collection::vec(any::<u8>(), 0..200)) {
        let tracer = Tracer::new(1024);
        let records = run_program(&tracer, &program);
        let index = by_id(&records);
        for r in &records {
            match r.parent {
                None => {}
                Some(p) => {
                    let parent = index.get(&(r.trace, p)).expect("parent present");
                    prop_assert_eq!(parent.trace, r.trace, "child crossed traces");
                }
            }
        }
    }

    /// A ring of capacity `cap` keeps exactly the `cap` most recent
    /// records, in ticket order.
    #[test]
    fn ring_keeps_newest_in_order(cap in 1usize..16, n in 0usize..48) {
        let tracer = Tracer::new(cap);
        for i in 0..n {
            let mut span = tracer.span("seq");
            span.attr_u64("seq", i as u64);
        }
        let records = tracer.drain();
        prop_assert_eq!(records.len(), n.min(cap));
        let seqs: Vec<u64> = records
            .iter()
            .map(|r| match r.attrs.iter().find(|(k, _)| *k == "seq") {
                Some((_, orex_telemetry::AttrValue::U64(v))) => *v,
                other => panic!("missing seq attr: {other:?}"),
            })
            .collect();
        let expected: Vec<u64> = (n.saturating_sub(cap)..n).map(|i| i as u64).collect();
        prop_assert_eq!(seqs, expected, "survivors must be the newest, oldest-first");
    }

    /// The Chrome export of any random program parses as JSON and closes
    /// every B event with a matching E at the same nesting position.
    #[test]
    fn chrome_export_round_trips(program in proptest::collection::vec(any::<u8>(), 0..120)) {
        let tracer = Tracer::new(1024);
        let records = run_program(&tracer, &program);
        let json = to_chrome_trace(&records);
        let value = serde_json::from_str(&json).expect("chrome trace is valid JSON");
        let events = value
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // Per (pid, tid) lane, B/E events must balance like parentheses.
        let mut depth: HashMap<(u64, u64), Vec<String>> = HashMap::new();
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph");
            let lane = (
                e.get("pid").and_then(|p| p.as_u64()).expect("pid"),
                e.get("tid").and_then(|t| t.as_u64()).expect("tid"),
            );
            let name = e.get("name").and_then(|n| n.as_str()).expect("name");
            match ph {
                "B" => depth.entry(lane).or_default().push(name.to_string()),
                "E" => {
                    let open = depth.get_mut(&lane).and_then(Vec::pop);
                    prop_assert_eq!(open.as_deref(), Some(name), "E without matching B");
                }
                "i" => {}
                other => prop_assert!(false, "unexpected phase {}", other),
            }
        }
        for (lane, stack) in depth {
            prop_assert!(stack.is_empty(), "unclosed spans in lane {lane:?}: {stack:?}");
        }
    }

    /// Any well-formed trace context survives the wire: rendering the
    /// `X-Orex-Trace` header value and parsing it back is the identity.
    #[test]
    fn context_header_round_trips(
        trace in 1u64..u64::MAX,
        parent in any::<u64>(),
        flags in 0u8..4,
    ) {
        let context = orex_telemetry::TraceContext {
            trace: TraceId(trace),
            parent: SpanId(parent),
            flags,
        };
        let parsed = orex_telemetry::TraceContext::parse(&context.header_value());
        prop_assert_eq!(parsed, Some(context));
    }

    /// A propagated "sampled" flag overrides the worker's local 1-in-N
    /// draw: no matter how aggressive the local rate, every remote span
    /// whose context carries SAMPLED commits to the ring — and every
    /// remote span whose context says "unsampled" stays out, even when
    /// the local counter would have picked it.
    #[test]
    fn propagated_decision_overrides_local_sampling(
        every in 2u64..64,
        n in 1usize..32,
        trace in 1u64..u64::MAX,
    ) {
        let tracer = Tracer::new(1024);
        tracer.set_sample_every(every);
        tracer.set_slow_threshold(None);
        for i in 0..n {
            // Alternate: even spans propagate SAMPLED, odd spans carry
            // flags 0 (unsampled).
            let context = orex_telemetry::TraceContext {
                trace: TraceId(trace),
                parent: SpanId(900 + i as u64),
                flags: if i % 2 == 0 { orex_telemetry::TraceContext::SAMPLED } else { 0 },
            };
            let span = tracer.span_with_context("ingress", Some(context));
            prop_assert_eq!(span.is_sampled(), i % 2 == 0, "local 1-in-{} draw leaked through", every);
            drop(span);
        }
        // Exactly the SAMPLED-flagged spans survive, regardless of `every`.
        prop_assert_eq!(tracer.drain().len(), n.div_ceil(2));
    }

    /// With a zero slow threshold (everything is "slow"), an unsampled
    /// remote trace is promoted whole into the local ring: the root and
    /// every child, all under the caller's trace id.
    #[test]
    fn slow_unsampled_remote_trace_is_promoted_whole(
        trace in 1u64..u64::MAX,
        children in 0usize..8,
    ) {
        let tracer = Tracer::new(1024);
        tracer.set_sample_every(u64::MAX);
        tracer.set_slow_threshold(Some(std::time::Duration::ZERO));
        let context = orex_telemetry::TraceContext {
            trace: TraceId(trace),
            parent: SpanId(7),
            flags: 0,
        };
        let root = tracer.span_with_context("ingress", Some(context));
        for _ in 0..children {
            drop(tracer.span("child"));
        }
        drop(root);
        prop_assert_eq!(tracer.spans_of(TraceId(trace)).len(), children + 1);
    }
}

/// A disabled tracer records nothing regardless of the program thrown at
/// it — the `OREX_TELEMETRY=0` path.
#[test]
fn disabled_tracer_records_nothing() {
    let tracer = Tracer::disabled();
    let mut span = tracer.span("root");
    assert!(!span.is_recording());
    span.attr_u64("ignored", 1);
    span.event("ignored");
    let child = tracer.span("child");
    drop(child);
    drop(span);
    assert!(tracer.drain().is_empty());
    assert_eq!(tracer.capacity(), 0);
}
