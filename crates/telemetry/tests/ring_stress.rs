//! Real-thread exercises of the trace ring, sized to run under Miri
//! (the CI `miri` job) and ThreadSanitizer (the CI `tsan` job) as well
//! as natively.

use orex_telemetry::trace::Tracer;
use std::collections::HashSet;
use std::thread;

// Small iteration counts: Miri executes these interpreted, roughly
// 1000x slower than native, and the interesting schedules appear within
// a handful of overlapping operations.
const PUSHERS: usize = 2;
const SPANS_PER_PUSHER: usize = 8;

#[test]
fn concurrent_push_push_eviction_stays_bounded_and_ordered() {
    let tracer = Tracer::new(4);
    thread::scope(|scope| {
        for _ in 0..PUSHERS {
            let tracer = tracer.clone();
            scope.spawn(move || {
                for _ in 0..SPANS_PER_PUSHER {
                    drop(tracer.span("w"));
                }
            });
        }
    });
    let records = tracer.drain();
    assert!(!records.is_empty(), "something must survive eviction");
    assert!(records.len() <= 4, "ring is bounded by its capacity");
    // Drain returns completion (ticket) order, and concurrent pushes
    // never duplicate a span.
    for pair in records.windows(2) {
        assert!(pair[0].ticket < pair[1].ticket, "tickets strictly increase");
    }
    let ids: HashSet<_> = records.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), records.len(), "no span recorded twice");
}

#[test]
fn concurrent_push_drain_tear_never_duplicates_a_span() {
    let tracer = Tracer::new(8);
    let mut seen = thread::scope(|scope| {
        let drainer = {
            let tracer = tracer.clone();
            scope.spawn(move || {
                let mut seen = Vec::new();
                // Drain repeatedly while the pushers run, tearing drains
                // across in-flight pushes.
                for _ in 0..PUSHERS * SPANS_PER_PUSHER {
                    seen.extend(tracer.drain());
                    thread::yield_now();
                }
                seen
            })
        };
        for _ in 0..PUSHERS {
            let tracer = tracer.clone();
            scope.spawn(move || {
                for _ in 0..SPANS_PER_PUSHER {
                    drop(tracer.span("p"));
                }
            });
        }
        drainer.join().expect("drainer thread")
    });
    // Whatever the racing drains missed is still in the ring.
    seen.extend(tracer.drain());
    assert!(seen.len() <= PUSHERS * SPANS_PER_PUSHER);
    let ids: HashSet<_> = seen.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), seen.len(), "a span must drain at most once");
    let tickets: HashSet<_> = seen.iter().map(|r| r.ticket).collect();
    assert_eq!(tickets.len(), seen.len(), "tickets are unique");
}

#[test]
fn sampling_config_published_to_other_threads() {
    // The set_sample_every/set_slow_threshold stores are Release and the
    // hot-path loads Acquire; a reader thread must observe a coherent
    // configuration (this is the pairing TSan would flag if weakened).
    let tracer = Tracer::new(16);
    tracer.set_sample_every(3);
    thread::scope(|scope| {
        let tracer = tracer.clone();
        scope
            .spawn(move || {
                assert_eq!(tracer.sample_every(), 3);
                drop(tracer.span("sampled-or-not"));
            })
            .join()
            .expect("reader thread");
    });
}
