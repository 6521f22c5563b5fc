//! The in-memory session table.
//!
//! `QuerySession` borrows the system, so live sessions can't cross
//! request boundaries. Instead the table stores each session as a
//! [`SessionSnapshot`] — owned, `Send` data — and handlers resume it
//! against the shared system via `QuerySession::resume`, which is O(1):
//! the snapshot's score vector is shared, not copied, so `insert`, `get`
//! and `update` move a pointer while they hold the table's lock, and
//! edge weights are derived only by a request that explains. Entries
//! expire after a TTL of disuse and the table holds at most
//! `max_entries` sessions, evicting least-recently-used first.

use crate::error::ServerError;
use orex_core::SessionSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct Entry {
    /// Name of the dataset the session ranks against — `/explain` and
    /// `/feedback` carry only a session id, so the table is what maps a
    /// session back to its owning dataset in a multi-dataset process.
    dataset: Arc<str>,
    snapshot: SessionSnapshot,
    last_used: Instant,
}

/// TTL + LRU bounded session store; see the module docs.
pub struct SessionTable {
    entries: Mutex<HashMap<u64, Entry>>,
    next_id: AtomicU64,
    ttl: Duration,
    max_entries: usize,
}

impl SessionTable {
    /// A table whose entries expire after `ttl` of disuse and which
    /// holds at most `max_entries` sessions (minimum 1).
    pub fn new(ttl: Duration, max_entries: usize) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            ttl,
            max_entries: max_entries.max(1),
        }
    }

    /// The table's entry map, or a typed error when a panicking thread
    /// poisoned it mid-update (the map may then be inconsistent, so
    /// request paths refuse it rather than serving garbage).
    fn locked(&self) -> Result<MutexGuard<'_, HashMap<u64, Entry>>, ServerError> {
        self.entries
            .lock()
            .map_err(ServerError::poisoned("session table"))
    }

    /// Stores a snapshot as a new session owned by `dataset` and
    /// returns its id.
    pub fn insert(&self, dataset: &str, snapshot: SessionSnapshot) -> Result<u64, ServerError> {
        // ORDERING: pure id allocation — nothing is published under this
        // counter, uniqueness is all that matters.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let telemetry = orex_telemetry::global();
        let mut entries = self.locked()?;
        Self::sweep(&mut entries, now, self.ttl);
        while entries.len() >= self.max_entries {
            let Some((&victim, _)) = entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            entries.remove(&victim);
            telemetry.counter("server.sessions_evicted").incr();
        }
        entries.insert(
            id,
            Entry {
                dataset: Arc::from(dataset),
                snapshot,
                last_used: now,
            },
        );
        telemetry.counter("server.sessions_created").incr();
        telemetry
            .gauge("server.sessions_live")
            .set(entries.len() as f64);
        Ok(id)
    }

    /// Clones the snapshot for `id` (with its owning dataset name) and
    /// refreshes its TTL clock; `Ok(None)` if the id is unknown or the
    /// entry has expired.
    pub fn get(&self, id: u64) -> Result<Option<(Arc<str>, SessionSnapshot)>, ServerError> {
        let now = Instant::now();
        let mut entries = self.locked()?;
        Self::sweep(&mut entries, now, self.ttl);
        Ok(entries.get_mut(&id).map(|entry| {
            entry.last_used = now;
            (Arc::clone(&entry.dataset), entry.snapshot.clone())
        }))
    }

    /// Replaces the snapshot for `id` (after a feedback round). Returns
    /// false if the session vanished (expired/evicted) in the meantime;
    /// it is not revived, so the next call on `id` is a 404.
    pub fn update(&self, id: u64, snapshot: SessionSnapshot) -> Result<bool, ServerError> {
        let mut entries = self.locked()?;
        Ok(match entries.get_mut(&id) {
            Some(entry) => {
                entry.snapshot = snapshot;
                entry.last_used = Instant::now();
                true
            }
            None => false,
        })
    }

    /// Live (unexpired) session count. Observability path: recovers the
    /// map from a poisoned lock instead of failing, since a count can do
    /// no harm.
    pub fn len(&self) -> usize {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        Self::sweep(&mut entries, Instant::now(), self.ttl);
        entries.len()
    }

    /// True when no live sessions remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn sweep(entries: &mut HashMap<u64, Entry>, now: Instant, ttl: Duration) {
        let before = entries.len();
        entries.retain(|_, e| now.duration_since(e.last_used) < ttl);
        let expired = before - entries.len();
        if expired > 0 {
            let telemetry = orex_telemetry::global();
            telemetry
                .counter("server.sessions_expired")
                .add(expired as u64);
            telemetry
                .gauge("server.sessions_live")
                .set(entries.len() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
    use orex_ir::Query;

    fn snapshot() -> SessionSnapshot {
        let d = orex_datagen::Preset::DblpTop.generate(0.01);
        let system = ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default());
        let keyword = d
            .suggested_keywords
            .iter()
            .find(|kw| QuerySession::start(&system, &Query::parse(kw)).is_ok())
            .expect("some keyword ranks");
        QuerySession::start(&system, &Query::parse(keyword))
            .unwrap()
            .snapshot()
    }

    #[test]
    fn insert_get_update_roundtrip() {
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let snap = snapshot();
        let id = table.insert("dblp", snap.clone()).unwrap();
        let (dataset, stored) = table.get(id).unwrap().expect("session present");
        assert_eq!(&*dataset, "dblp", "entry remembers its owning dataset");
        assert_eq!(
            stored.scores().as_ptr(),
            snap.scores().as_ptr(),
            "get shares the stored entry's score vector"
        );
        assert!(table.update(id, snap).unwrap());
        assert_eq!(table.len(), 1);
        assert!(table.get(id + 999).unwrap().is_none());
        assert!(!table.update(id + 999, snapshot()).unwrap());
    }

    #[test]
    fn entries_expire_after_ttl() {
        let table = SessionTable::new(Duration::from_millis(20), 8);
        let id = table.insert("d", snapshot()).unwrap();
        assert!(table.get(id).unwrap().is_some());
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            table.get(id).unwrap().is_none(),
            "expired session must vanish"
        );
        assert!(table.is_empty());
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let table = SessionTable::new(Duration::from_secs(60), 2);
        let snap = snapshot();
        let a = table.insert("d", snap.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let b = table.insert("d", snap.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(table.get(a).unwrap().is_some());
        let c = table.insert("d", snap).unwrap();
        assert_eq!(table.len(), 2);
        assert!(table.get(a).unwrap().is_some(), "recently used survives");
        assert!(table.get(b).unwrap().is_none(), "LRU entry evicted");
        assert!(table.get(c).unwrap().is_some());
    }

    #[test]
    fn poisoned_lock_is_a_typed_error() {
        use std::sync::Arc;
        let table = Arc::new(SessionTable::new(Duration::from_secs(60), 8));
        let t2 = Arc::clone(&table);
        // Poison the entries mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = t2.entries.lock().unwrap();
            panic!("poison the session table");
        })
        .join();
        match table.get(1) {
            Err(ServerError::LockPoisoned(what)) => assert_eq!(what, "session table"),
            other => panic!("expected LockPoisoned, got {other:?}"),
        }
        // len() recovers instead of failing.
        assert_eq!(table.len(), 0);
    }
}
