//! The in-memory session table.
//!
//! `QuerySession` borrows the system, so live sessions can't cross
//! request boundaries. Instead the table stores each session as a
//! [`SessionSnapshot`] — owned, `Send` data — and handlers resume it
//! against the shared system via `QuerySession::resume`, which is O(1):
//! the snapshot's score vector is shared, not copied, so `insert`, `get`
//! and `update` move a pointer while they hold the table's lock. Entries
//! expire after a TTL of disuse and the table holds at most
//! `max_entries` sessions, evicting least-recently-used first.
//!
//! A snapshot may also carry the last explanation built on its state.
//! `/explain` writes the one it built back through
//! [`SessionTable::keep_explanation`], so the `/feedback` that follows
//! reuses it instead of building it again. The write-back replaces the
//! entry only while it still holds the same ranking: a feedback round
//! that landed in between always wins. Only that call stores an
//! explanation (`insert` and `update` store none), so the result cache's
//! snapshots never pin one. All kept explanations together stay within
//! [`EXPLAINED_BUDGET_BYTES`]; past it the least-recently-used session
//! loses its explanation, not its state.

use crate::error::ServerError;
use orex_core::SessionSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Heap bytes all kept explanations of one table may hold together. One
/// explanation on DBLPtop at scale 1.0 holds about 3 MB, so a session
/// between its `/explain` and its `/feedback` fits twenty times over; an
/// explanation larger than the whole budget is not kept.
pub const EXPLAINED_BUDGET_BYTES: usize = 64 << 20;

struct Entry {
    /// Name of the dataset the session ranks against — `/explain` and
    /// `/feedback` carry only a session id, so the table is what maps a
    /// session back to its owning dataset in a multi-dataset process.
    dataset: Arc<str>,
    snapshot: SessionSnapshot,
    /// Heap bytes of the snapshot's kept explanation (0 without one).
    explained_bytes: usize,
    last_used: Instant,
}

/// The entries, and the explanation bytes they hold between them.
#[derive(Default)]
struct Entries {
    map: HashMap<u64, Entry>,
    explained_bytes: usize,
}

impl Entries {
    fn remove(&mut self, id: u64) {
        if let Some(entry) = self.map.remove(&id) {
            self.release(entry.explained_bytes);
        }
    }

    /// Drops the kept explanation of `id`'s entry, keeping its state.
    fn forget_explanation(&mut self, id: u64) {
        if let Some(entry) = self.map.get_mut(&id) {
            entry.snapshot.forget_explanation();
            let bytes = std::mem::take(&mut entry.explained_bytes);
            self.release(bytes);
        }
    }

    /// Takes `bytes` of dropped explanations off the total.
    fn release(&mut self, bytes: usize) {
        if bytes > 0 {
            self.explained_bytes -= bytes;
            self.publish_explained_bytes();
        }
    }

    fn publish_explained_bytes(&self) {
        orex_telemetry::global()
            .gauge("server.sessions_explained_bytes")
            .set(self.explained_bytes as f64);
    }
}

/// TTL + LRU bounded session store; see the module docs.
pub struct SessionTable {
    entries: Mutex<Entries>,
    next_id: AtomicU64,
    ttl: Duration,
    max_entries: usize,
    explained_budget: usize,
}

impl SessionTable {
    /// A table whose entries expire after `ttl` of disuse and which
    /// holds at most `max_entries` sessions (minimum 1).
    pub fn new(ttl: Duration, max_entries: usize) -> Self {
        Self {
            entries: Mutex::new(Entries::default()),
            next_id: AtomicU64::new(1),
            ttl,
            max_entries: max_entries.max(1),
            explained_budget: EXPLAINED_BUDGET_BYTES,
        }
    }

    /// The table's entry map, or a typed error when a panicking thread
    /// poisoned it mid-update (the map may then be inconsistent, so
    /// request paths refuse it rather than serving garbage).
    fn locked(&self) -> Result<MutexGuard<'_, Entries>, ServerError> {
        self.entries
            .lock()
            .map_err(ServerError::poisoned("session table"))
    }

    /// Stores a snapshot, without its explanation, as a new session
    /// owned by `dataset` and returns its id.
    pub fn insert(&self, dataset: &str, mut snapshot: SessionSnapshot) -> Result<u64, ServerError> {
        // ORDERING: pure id allocation — nothing is published under this
        // counter, uniqueness is all that matters.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        snapshot.forget_explanation();
        let now = Instant::now();
        let telemetry = orex_telemetry::global();
        let mut entries = self.locked()?;
        Self::sweep(&mut entries, now, self.ttl);
        while entries.map.len() >= self.max_entries {
            let Some((&victim, _)) = entries.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            entries.remove(victim);
            telemetry.counter("server.sessions_evicted").incr();
        }
        entries.map.insert(
            id,
            Entry {
                dataset: Arc::from(dataset),
                snapshot,
                explained_bytes: 0,
                last_used: now,
            },
        );
        telemetry.counter("server.sessions_created").incr();
        telemetry
            .gauge("server.sessions_live")
            .set(entries.map.len() as f64);
        Ok(id)
    }

    /// Clones the snapshot for `id` (with its owning dataset name) and
    /// refreshes its TTL clock; `Ok(None)` if the id is unknown or the
    /// entry has expired.
    pub fn get(&self, id: u64) -> Result<Option<(Arc<str>, SessionSnapshot)>, ServerError> {
        let now = Instant::now();
        let mut entries = self.locked()?;
        Self::sweep(&mut entries, now, self.ttl);
        Ok(entries.map.get_mut(&id).map(|entry| {
            entry.last_used = now;
            (Arc::clone(&entry.dataset), entry.snapshot.clone())
        }))
    }

    /// Replaces the snapshot for `id` (after a feedback round) with
    /// `snapshot` minus its explanation. Returns false if the session
    /// vanished (expired/evicted) in the meantime; it is not revived, so
    /// the next call on `id` is a 404. An entry idle for at least the
    /// TTL counts as expired here too, even when no sweep has removed it
    /// yet.
    pub fn update(&self, id: u64, mut snapshot: SessionSnapshot) -> Result<bool, ServerError> {
        snapshot.forget_explanation();
        let now = Instant::now();
        let mut entries = self.locked()?;
        Self::sweep(&mut entries, now, self.ttl);
        entries.forget_explanation(id);
        Ok(match entries.map.get_mut(&id) {
            Some(entry) => {
                entry.snapshot = snapshot;
                entry.last_used = now;
                true
            }
            None => false,
        })
    }

    /// Keeps the explanation `snapshot` carries for session `id`, so a
    /// following feedback round on the same state reuses it. The entry
    /// is replaced only while it still holds the same ranking as
    /// `snapshot`; after a feedback round, or once the session expired
    /// (by the same rule as [`Self::update`]), nothing changes. An
    /// explanation larger than the whole byte budget is not kept; any
    /// other evicts the least-recently-used sessions' explanations until
    /// the kept ones fit. Returns whether the explanation was kept.
    pub fn keep_explanation(
        &self,
        id: u64,
        snapshot: SessionSnapshot,
    ) -> Result<bool, ServerError> {
        let Some(bytes) = snapshot.explained().map(|e| e.heap_bytes()) else {
            return Ok(false);
        };
        if bytes > self.explained_budget {
            return Ok(false);
        }
        let now = Instant::now();
        let mut entries = self.locked()?;
        Self::sweep(&mut entries, now, self.ttl);
        match entries.map.get(&id) {
            Some(entry) if entry.snapshot.same_ranking(&snapshot) => {}
            _ => return Ok(false),
        }
        entries.forget_explanation(id);
        while entries.explained_bytes + bytes > self.explained_budget {
            let Some(victim) = entries
                .map
                .iter()
                .filter(|(_, e)| e.explained_bytes > 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&victim, _)| victim)
            else {
                break;
            };
            entries.forget_explanation(victim);
        }
        let Some(entry) = entries.map.get_mut(&id) else {
            return Ok(false);
        };
        entry.snapshot = snapshot;
        entry.explained_bytes = bytes;
        entry.last_used = now;
        entries.explained_bytes += bytes;
        entries.publish_explained_bytes();
        Ok(true)
    }

    /// Live (unexpired) session count. Observability path: recovers the
    /// map from a poisoned lock instead of failing, since a count can do
    /// no harm.
    pub fn len(&self) -> usize {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        Self::sweep(&mut entries, Instant::now(), self.ttl);
        entries.map.len()
    }

    /// True when no live sessions remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn sweep(entries: &mut Entries, now: Instant, ttl: Duration) {
        let before = entries.map.len();
        let mut freed = 0;
        entries.map.retain(|_, e| {
            let live = now.duration_since(e.last_used) < ttl;
            if !live {
                freed += e.explained_bytes;
            }
            live
        });
        let expired = before - entries.map.len();
        if expired > 0 {
            entries.release(freed);
            let telemetry = orex_telemetry::global();
            telemetry
                .counter("server.sessions_expired")
                .add(expired as u64);
            telemetry
                .gauge("server.sessions_live")
                .set(entries.map.len() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
    use orex_ir::Query;

    fn snapshot() -> SessionSnapshot {
        ranked().1
    }

    /// A system and a ranked snapshot on it.
    fn ranked() -> (ObjectRankSystem, SessionSnapshot) {
        let d = orex_datagen::Preset::DblpTop.generate(0.01);
        let system = ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default());
        let keyword = d
            .suggested_keywords
            .iter()
            .find(|kw| QuerySession::start(&system, &Query::parse(kw)).is_ok())
            .expect("some keyword ranks");
        let snapshot = QuerySession::start(&system, &Query::parse(keyword))
            .unwrap()
            .snapshot();
        (system, snapshot)
    }

    /// `snapshot` carrying the explanation of its top result.
    fn explained(system: &ObjectRankSystem, snapshot: &SessionSnapshot) -> SessionSnapshot {
        let session = QuerySession::resume(system, snapshot.clone());
        session.explain(session.top_k(1)[0].node).unwrap();
        session.snapshot()
    }

    fn kept(table: &SessionTable, id: u64) -> bool {
        let (_, snapshot) = table.get(id).unwrap().expect("session present");
        snapshot.explained().is_some()
    }

    #[test]
    fn explanations_are_kept_only_while_the_entry_holds_the_same_ranking() {
        let (system, snap) = ranked();
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let with = explained(&system, &snap);
        let id = table.insert("d", with.clone()).unwrap();
        assert!(!kept(&table, id), "insert stores no explanation");
        assert!(table.keep_explanation(id, with.clone()).unwrap());
        assert!(kept(&table, id));

        // A feedback round moves the entry on; a late write-back of the
        // older state's explanation must not undo it.
        let mut session = QuerySession::resume(&system, snap);
        session.feedback(&[session.top_k(1)[0].node]).unwrap();
        let advanced = session.snapshot();
        assert!(table.update(id, advanced.clone()).unwrap());
        assert!(!table.keep_explanation(id, with).unwrap());
        let (_, stored) = table.get(id).unwrap().unwrap();
        assert!(stored.same_ranking(&advanced));
        assert!(stored.explained().is_none());
        assert_eq!(table.locked().unwrap().explained_bytes, 0);
    }

    #[test]
    fn keep_explanation_does_not_revive_an_expired_session() {
        let (system, snap) = ranked();
        let table = SessionTable::new(Duration::from_millis(20), 8);
        let id = table.insert("d", snap.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert!(!table
            .keep_explanation(id, explained(&system, &snap))
            .unwrap());
        assert!(table.get(id).unwrap().is_none());
    }

    #[test]
    fn the_byte_budget_evicts_the_least_recently_used_explanation() {
        let (system, snap) = ranked();
        let with = explained(&system, &snap);
        let bytes = with.explained().unwrap().heap_bytes();
        let mut table = SessionTable::new(Duration::from_secs(60), 8);
        table.explained_budget = 2 * bytes;
        let ids: Vec<u64> = (0..3)
            .map(|_| table.insert("d", snap.clone()).unwrap())
            .collect();
        for &id in &ids[..2] {
            assert!(table.keep_explanation(id, with.clone()).unwrap());
            std::thread::sleep(Duration::from_millis(5));
        }
        // Touch the first so the second is the least recently used.
        assert!(kept(&table, ids[0]));
        std::thread::sleep(Duration::from_millis(5));
        assert!(table.keep_explanation(ids[2], with).unwrap());
        assert!(kept(&table, ids[0]));
        assert!(!kept(&table, ids[1]), "the LRU explanation went");
        assert!(kept(&table, ids[2]));
        assert_eq!(table.len(), 3, "its session stayed");
        assert_eq!(table.locked().unwrap().explained_bytes, 2 * bytes);
    }

    #[test]
    fn an_explanation_larger_than_the_budget_is_not_kept() {
        let (system, snap) = ranked();
        let with = explained(&system, &snap);
        let mut table = SessionTable::new(Duration::from_secs(60), 8);
        table.explained_budget = with.explained().unwrap().heap_bytes() - 1;
        let id = table.insert("d", snap).unwrap();
        assert!(!table.keep_explanation(id, with).unwrap());
        assert!(!kept(&table, id));
        assert_eq!(table.locked().unwrap().explained_bytes, 0);
    }

    /// `/explain` summarizes before it keeps, so the charge covers the
    /// paths the summary memoised in the explanation.
    #[test]
    fn a_kept_explanation_is_charged_its_bytes_after_summarize() {
        let (system, snap) = ranked();
        let session = QuerySession::resume(&system, snap.clone());
        let explanation = session.explain(session.top_k(1)[0].node).unwrap();
        let bare = explanation.heap_bytes();
        orex_explain::summarize(&explanation, system.transfer(), system.graph(), 8);
        assert!(
            explanation.heap_bytes() > bare,
            "the summary memoised paths"
        );
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let id = table.insert("d", snap).unwrap();
        assert!(table.keep_explanation(id, session.snapshot()).unwrap());
        let entries = table.locked().unwrap();
        assert_eq!(entries.map[&id].explained_bytes, explanation.heap_bytes());
        assert_eq!(entries.explained_bytes, explanation.heap_bytes());
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
    fn update_does_not_revive_an_expired_session() {
        let table = SessionTable::new(Duration::from_millis(20), 8);
        let id = table.insert("d", snapshot()).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            !table.update(id, snapshot()).unwrap(),
            "an entry idle past its TTL is gone, not refreshed"
        );
        assert!(table.get(id).unwrap().is_none());
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
