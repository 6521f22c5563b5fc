//! The bounded record ring behind the tracer and the logger.
//!
//! A `Mutex` over a `VecDeque` plus a sequence counter: `push` stamps
//! the next sequence number, appends, and evicts the oldest record once
//! the ring is over capacity — so it holds at most `capacity` records,
//! oldest first and in sequence order. Readers clone out what they need
//! in place ([`Ring::filtered`]); only [`Ring::drain`] empties it.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A record type that stores the sequence number assigned on push.
pub(crate) trait Sequenced {
    /// Stamps the assigned sequence number into the record.
    fn set_seq(&mut self, seq: u64);
    /// The sequence number stamped by [`Sequenced::set_seq`].
    fn seq(&self) -> u64;
}

struct Inner<T> {
    records: VecDeque<T>,
    next_seq: u64,
}

/// Bounded sequence-ordered ring; see the module docs.
pub(crate) struct Ring<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
}

impl<T: Sequenced + Clone> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                records: VecDeque::new(),
                next_seq: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Best-effort telemetry: a poisoned lock is recovered rather than
    /// surfaced — every mutation below completes or never starts, so
    /// the deque stays valid, and a span guard's `Drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn push(&self, mut record: T) {
        let mut inner = self.lock();
        record.set_seq(inner.next_seq);
        inner.next_seq += 1;
        inner.records.push_back(record);
        let evicted = if inner.records.len() > self.capacity {
            inner.records.pop_front()
        } else {
            None
        };
        // Unlock before the evicted record's buffers are freed.
        drop(inner);
        drop(evicted);
    }

    /// Removes and returns every record, oldest first.
    pub(crate) fn drain(&self) -> Vec<T> {
        self.lock().records.drain(..).collect()
    }

    /// Number of records held.
    pub(crate) fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Sequence number of the newest record held, `None` when empty.
    pub(crate) fn newest_seq(&self) -> Option<u64> {
        self.lock().records.back().map(Sequenced::seq)
    }

    /// Copies of the records `keep` accepts, oldest first; the ring is
    /// left as it was.
    pub(crate) fn filtered(&self, mut keep: impl FnMut(&T) -> bool) -> Vec<T> {
        self.lock()
            .records
            .iter()
            .filter(|r| keep(r))
            .cloned()
            .collect()
    }
}
