//! LRU cache of completed result documents, keyed by job id.
//!
//! Caching full result bodies is *correct* here, not heuristic: the
//! simulation pipeline is bit-deterministic, so re-running a spec can only
//! reproduce the same bytes (the integration suite asserts this by
//! comparing a cache hit against a fresh run byte for byte). The cache
//! therefore needs no invalidation story beyond capacity eviction.
//!
//! `BTreeMap` keeps iteration deterministic (the workspace bans `HashMap`
//! for that reason); recency is a monotonic tick rather than wall time so
//! eviction order is reproducible too.

use std::collections::BTreeMap;
use std::sync::Arc;

struct Entry {
    last_used: u64,
    doc: Arc<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
}

pub(crate) struct ResultCache {
    entries: BTreeMap<String, Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> ResultCache {
        ResultCache {
            entries: BTreeMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a result document, bumping its recency on a hit.
    pub(crate) fn get(&mut self, id: &str) -> Option<Arc<String>> {
        self.tick += 1;
        match self.entries.get_mut(id) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.doc))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a completed result, evicting the least-recently-used entry
    /// when over capacity.
    pub(crate) fn insert(&mut self, id: &str, doc: Arc<String>) {
        self.tick += 1;
        self.entries.insert(id.to_string(), Entry { last_used: self.tick, doc });
        while self.entries.len() > self.capacity {
            let oldest =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone());
            match oldest {
                Some(key) => {
                    self.entries.remove(&key);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn hit_returns_same_bytes_and_counts() {
        let mut cache = ResultCache::new(4);
        assert!(cache.get("a").is_none());
        cache.insert("a", doc("{\"x\":1}"));
        let hit = cache.get("a").unwrap();
        assert_eq!(hit.as_str(), "{\"x\":1}");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = ResultCache::new(2);
        cache.insert("a", doc("A"));
        cache.insert("b", doc("B"));
        assert!(cache.get("a").is_some()); // "b" is now the LRU entry.
        cache.insert("c", doc("C"));
        assert!(cache.get("b").is_none(), "LRU entry should be evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_is_clamped_not_panicking() {
        let mut cache = ResultCache::new(0);
        cache.insert("a", doc("A"));
        assert!(cache.get("a").is_some());
        cache.insert("b", doc("B"));
        assert!(cache.get("a").is_none());
    }
}
