//! The front-line result cache: a TTL'd LRU above the Summary DB.
//!
//! The Summary DB (PR 1) is per-view and durable; this cache is
//! cross-request and cheap — the split matchy's caching guide
//! documents 2–10× wins from. Keys are `(view, store version, query)`:
//! a payload is a function of exactly those three.
//!
//! - A **batch commit** installs a new store version, so every entry
//!   cached against the old one becomes unreachable — commits
//!   invalidate by construction, no flush traffic, no stale reads.
//! - A **repair** purges the repaired view's entries outright
//!   ([`ResultCache::purge_view`]). A repair that installs a store
//!   moves the version anyway; one that only resets the Summary DB does
//!   not, and although the view's bytes are the bytes the entries were
//!   computed from, dropping a view's entries costs a few recomputes
//!   while reasoning about which survive buys nothing: after the one
//!   event that distrusts derived state, keep none.
//! - **Fallback results never enter.** A degraded view answers from
//!   the raw archive; those values are correct *now* but not tied to
//!   a store version, so admitting them could outlive their truth.
//!   Mirrors the PR 1 Summary-DB rule. The server enforces it and
//!   counts refusals here.
//!
//! Time is the server's **logical tick** (one tick per submitted
//! request), not wall time, so TTL expiry is deterministic and the
//! serving test harness can replay it exactly.

use std::collections::{BTreeMap, HashMap};

use crate::server::Payload;

/// The cache key. Two requests share an entry only when the view, the
/// pinned store version *and* the canonical query string all match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// View name.
    pub view: String,
    /// Store version the result was computed at.
    pub version: u64,
    /// Canonical query rendering, e.g. `"mean(INCOME)"`.
    pub query: String,
}

/// Counters the cache maintains; snapshot via
/// [`crate::Server::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted to respect the capacity bound.
    pub lru_evictions: u64,
    /// Entries dropped because their TTL had lapsed at lookup time.
    pub ttl_evictions: u64,
    /// Results refused admission because they were computed as
    /// [`sdbms_core::ComputeSource::Fallback`] (degraded-view reads).
    pub fallback_rejections: u64,
    /// Entries dropped by an explicit per-view purge (repairs).
    pub purged: u64,
}

struct Slot {
    payload: Payload,
    /// Recency stamp; also the key into the recency index.
    seq: u64,
    /// First tick at which the entry is no longer servable.
    expires: u64,
}

/// The TTL'd LRU map. Recency is a `BTreeMap<seq, key>` side index, so
/// both touch and evict are `O(log n)` — no scans on the hot path.
pub struct ResultCache {
    capacity: usize,
    ttl: u64,
    map: HashMap<QueryKey, Slot>,
    recency: BTreeMap<u64, QueryKey>,
    next_seq: u64,
    stats: FrontCacheStats,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries, each servable for
    /// `ttl` logical ticks after insertion. `capacity == 0` disables
    /// the cache entirely (every lookup misses, nothing is stored).
    #[must_use]
    pub fn new(capacity: usize, ttl: u64) -> Self {
        ResultCache {
            capacity,
            ttl,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            next_seq: 0,
            stats: FrontCacheStats::default(),
        }
    }

    /// Current entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> FrontCacheStats {
        self.stats
    }

    /// Record a refusal to admit a Fallback-sourced result (the
    /// server enforces the rule; the cache keeps the count).
    pub fn note_fallback_rejection(&mut self) {
        self.stats.fallback_rejections += 1;
    }

    /// Look up `key` at logical time `now`. A live hit refreshes the
    /// entry's recency; an expired entry is dropped and counted as a
    /// TTL eviction plus a miss.
    pub fn get(&mut self, key: &QueryKey, now: u64) -> Option<Payload> {
        let Some(slot) = self.map.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if now >= slot.expires {
            let seq = slot.seq;
            self.map.remove(key);
            self.recency.remove(&seq);
            self.stats.ttl_evictions += 1;
            self.stats.misses += 1;
            return None;
        }
        // Touch: move to the most-recent end of the index.
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(slot) = self.map.get_mut(key) {
            self.recency.remove(&slot.seq);
            slot.seq = seq;
            self.recency.insert(seq, key.clone());
            self.stats.hits += 1;
            return Some(slot.payload.clone());
        }
        None
    }

    /// Would a query over `view` rendered as `query` *likely* hit at
    /// logical time `now`? True when any unexpired entry matches the
    /// view and query string at **any** version — the
    /// door's brownout check cannot know the pinned version without
    /// taking the engine lock, so this is deliberately a conservative
    /// over-approximation: a probe may admit a query that then misses
    /// (the version moved), never the reverse kind of harm. Touches no
    /// recency state and counts no stats — it is an admission
    /// heuristic, not a lookup.
    #[must_use]
    pub fn probe_fresh(&self, view: &str, query: &str, now: u64) -> bool {
        self.map
            .iter()
            .any(|(k, slot)| k.view == view && k.query == query && now < slot.expires)
    }

    /// Admit a freshly computed result at logical time `now`,
    /// evicting the least-recently-used entry if the cache is full.
    /// No-op when the cache is disabled (`capacity == 0`).
    pub fn insert(&mut self, key: QueryKey, payload: Payload, now: u64) {
        if self.capacity == 0 {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(old) = self.map.insert(
            key.clone(),
            Slot {
                payload,
                seq,
                expires: now.saturating_add(self.ttl),
            },
        ) {
            self.recency.remove(&old.seq);
        }
        self.recency.insert(seq, key);
        self.stats.insertions += 1;
        while self.map.len() > self.capacity {
            let Some((&oldest, _)) = self.recency.iter().next() else {
                break;
            };
            if let Some(victim) = self.recency.remove(&oldest) {
                self.map.remove(&victim);
                self.stats.lru_evictions += 1;
            }
        }
    }

    /// Drop every entry belonging to `view`, whatever its version.
    /// Called on repair (module docs).
    pub fn purge_view(&mut self, view: &str) {
        let victims: Vec<QueryKey> = self
            .map
            .keys()
            .filter(|k| k.view == view)
            .cloned()
            .collect();
        for k in victims {
            if let Some(slot) = self.map.remove(&k) {
                self.recency.remove(&slot.seq);
                self.stats.purged += 1;
            }
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.map.len())
            .field("capacity", &self.capacity)
            .field("ttl", &self.ttl)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_core::SummaryValue;

    fn key(view: &str, version: u64, q: &str) -> QueryKey {
        QueryKey {
            view: view.into(),
            version,
            query: q.into(),
        }
    }

    fn payload(x: f64) -> Payload {
        Payload::Summary(SummaryValue::Scalar(x))
    }

    #[test]
    fn hit_after_insert_miss_after_version_bump() {
        let mut c = ResultCache::new(8, 100);
        c.insert(key("v", 1, "mean(INCOME)"), payload(5.0), 0);
        assert_eq!(c.get(&key("v", 1, "mean(INCOME)"), 1), Some(payload(5.0)));
        // A commit bumps the version: the old entry is simply
        // unreachable under the new key.
        assert_eq!(c.get(&key("v", 2, "mean(INCOME)"), 2), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn ttl_expires_entries_deterministically() {
        let mut c = ResultCache::new(8, 10);
        c.insert(key("v", 1, "q"), payload(1.0), 100);
        assert!(c.get(&key("v", 1, "q"), 109).is_some(), "tick 109 < 110");
        assert!(c.get(&key("v", 1, "q"), 110).is_none(), "tick 110 expired");
        assert_eq!(c.stats().ttl_evictions, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used_not_least_recently_inserted() {
        let mut c = ResultCache::new(2, 1000);
        c.insert(key("v", 1, "a"), payload(1.0), 0);
        c.insert(key("v", 1, "b"), payload(2.0), 1);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get(&key("v", 1, "a"), 2).is_some());
        c.insert(key("v", 1, "c"), payload(3.0), 3);
        assert!(c.get(&key("v", 1, "a"), 4).is_some());
        assert!(c.get(&key("v", 1, "b"), 5).is_none(), "b was evicted");
        assert!(c.get(&key("v", 1, "c"), 6).is_some());
        assert_eq!(c.stats().lru_evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_replaces_without_leaking_recency() {
        let mut c = ResultCache::new(4, 1000);
        c.insert(key("v", 1, "a"), payload(1.0), 0);
        c.insert(key("v", 1, "a"), payload(2.0), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key("v", 1, "a"), 2), Some(payload(2.0)));
        // The recency index must hold exactly one entry for the key.
        c.insert(key("v", 1, "b"), payload(3.0), 3);
        c.insert(key("v", 1, "c"), payload(4.0), 4);
        c.insert(key("v", 1, "d"), payload(5.0), 5);
        c.insert(key("v", 1, "e"), payload(6.0), 6);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn purge_view_is_scoped() {
        let mut c = ResultCache::new(8, 1000);
        c.insert(key("v", 1, "a"), payload(1.0), 0);
        c.insert(key("v", 2, "a"), payload(2.0), 1);
        c.insert(key("w", 1, "a"), payload(3.0), 2);
        c.purge_view("v");
        assert!(c.get(&key("v", 1, "a"), 3).is_none());
        assert!(c.get(&key("v", 2, "a"), 4).is_none());
        assert!(
            c.get(&key("w", 1, "a"), 5).is_some(),
            "other views keep entries"
        );
        assert_eq!(c.stats().purged, 2);
    }

    #[test]
    fn probe_fresh_matches_any_version_without_touching_stats() {
        let mut c = ResultCache::new(8, 10);
        c.insert(key("v", 3, "mean(INCOME)"), payload(1.0), 100);
        let before = c.stats();
        assert!(
            c.probe_fresh("v", "mean(INCOME)", 105),
            "any version matches"
        );
        assert!(!c.probe_fresh("v", "mean(INCOME)", 110), "expired");
        assert!(!c.probe_fresh("w", "mean(INCOME)", 105), "other view");
        assert!(!c.probe_fresh("v", "max(INCOME)", 105), "other query");
        assert_eq!(c.stats(), before, "probing is invisible to the counters");
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let mut c = ResultCache::new(0, 1000);
        c.insert(key("v", 1, "a"), payload(1.0), 0);
        assert!(c.is_empty());
        assert!(c.get(&key("v", 1, "a"), 1).is_none());
        assert_eq!(c.stats().insertions, 0);
    }
}
