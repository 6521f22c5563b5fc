//! The LRU result cache.
//!
//! Keyed on the *normalized* query vector — analyzed terms sorted with
//! their weights — so "Data  Mining" and "mining data" share an entry.
//! A hit returns the converged [`SessionSnapshot`] of the original
//! execution; the handler resumes it into a fresh session, skipping the
//! power iteration entirely. A snapshot shares its score vector and
//! memoised top-k with its clones, so `get` and `put` move a pointer
//! under the lock, not |V| scores, and every hit on one entry ranks off
//! the same memo. Hits and misses land in the telemetry counters
//! `server.cache_hits` / `server.cache_misses`.

use crate::error::ServerError;
use orex_core::SessionSnapshot;
use orex_ir::QueryVector;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CacheEntry {
    snapshot: SessionSnapshot,
    /// Logical access clock for LRU eviction.
    used_at: u64,
}

/// Bounded LRU map from normalized query key to converged snapshot.
pub struct ResultCache {
    entries: Mutex<(HashMap<String, CacheEntry>, u64)>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` distinct queries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Mutex::new((HashMap::new(), 0)),
            capacity: capacity.max(1),
        }
    }

    /// Canonical cache key of a query vector: terms sorted, weights
    /// rendered with full precision.
    pub fn key(query: &QueryVector) -> String {
        let mut terms: Vec<(&str, f64)> = query.iter().collect();
        terms.sort_by(|a, b| a.0.cmp(b.0));
        let mut key = String::new();
        for (term, weight) in terms {
            key.push_str(term);
            key.push('=');
            key.push_str(&format!("{weight:.17e};"));
        }
        key
    }

    /// The cache map and clock, or a typed error when poisoned.
    fn locked(&self) -> Result<MutexGuard<'_, (HashMap<String, CacheEntry>, u64)>, ServerError> {
        self.entries
            .lock()
            .map_err(ServerError::poisoned("result cache"))
    }

    /// Looks `key` up, bumping its recency and the hit/miss counters.
    pub fn get(&self, key: &str) -> Result<Option<SessionSnapshot>, ServerError> {
        let telemetry = orex_telemetry::global();
        let mut guard = self.locked()?;
        let (entries, clock) = &mut *guard;
        *clock += 1;
        Ok(match entries.get_mut(key) {
            Some(entry) => {
                entry.used_at = *clock;
                telemetry.counter("server.cache_hits").incr();
                Some(entry.snapshot.clone())
            }
            None => {
                telemetry.counter("server.cache_misses").incr();
                None
            }
        })
    }

    /// Stores the converged snapshot for `key`, evicting the least
    /// recently used entry when full.
    pub fn put(&self, key: String, snapshot: SessionSnapshot) -> Result<(), ServerError> {
        let mut guard = self.locked()?;
        let (entries, clock) = &mut *guard;
        *clock += 1;
        if !entries.contains_key(&key) {
            while entries.len() >= self.capacity {
                let Some(victim) = entries
                    .iter()
                    .min_by_key(|(_, e)| e.used_at)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                entries.remove(&victim);
                orex_telemetry::global()
                    .counter("server.cache_evictions")
                    .incr();
            }
        }
        entries.insert(
            key,
            CacheEntry {
                snapshot,
                used_at: *clock,
            },
        );
        Ok(())
    }

    /// Entries currently cached. Observability path: recovers from a
    /// poisoned lock instead of failing.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .0
            .len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
    use orex_ir::Query;

    fn snapshot() -> (SessionSnapshot, QueryVector) {
        let d = orex_datagen::Preset::DblpTop.generate(0.01);
        let system = ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default());
        let keyword = d
            .suggested_keywords
            .iter()
            .find(|kw| QuerySession::start(&system, &Query::parse(kw)).is_ok())
            .expect("some keyword ranks");
        let session = QuerySession::start(&system, &Query::parse(keyword)).unwrap();
        (session.snapshot(), session.query_vector().clone())
    }

    #[test]
    fn keys_normalize_term_order() {
        let a = QueryVector::from_weights([("data", 1.0), ("mining", 0.5)]);
        let b = QueryVector::from_weights([("mining", 0.5), ("data", 1.0)]);
        assert_eq!(ResultCache::key(&a), ResultCache::key(&b));
        let c = QueryVector::from_weights([("mining", 0.25), ("data", 1.0)]);
        assert_ne!(ResultCache::key(&a), ResultCache::key(&c));
    }

    #[test]
    fn hit_after_put_miss_before() {
        let cache = ResultCache::new(4);
        let (snap, qv) = snapshot();
        let key = ResultCache::key(&qv);
        assert!(cache.get(&key).unwrap().is_none());
        let storage = snap.scores().as_ptr();
        cache.put(key.clone(), snap).unwrap();
        for _ in 0..2 {
            let hit = cache.get(&key).unwrap().expect("cached");
            assert_eq!(
                hit.scores().as_ptr(),
                storage,
                "every hit shares the stored score vector"
            );
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_keeps_recent() {
        let cache = ResultCache::new(2);
        let (snap, _) = snapshot();
        cache.put("a".into(), snap.clone()).unwrap();
        cache.put("b".into(), snap.clone()).unwrap();
        assert!(cache.get("a").unwrap().is_some()); // refresh a; b is now LRU
        cache.put("c".into(), snap).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").unwrap().is_some());
        assert!(cache.get("b").unwrap().is_none(), "LRU entry evicted");
        assert!(cache.get("c").unwrap().is_some());
    }
}
