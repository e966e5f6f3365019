//! Instance-digest memoization: identical `schedule` requests (same ETC
//! bytes, same engine knobs — see `ScheduleRequest::digest`) are served
//! from a bounded LRU cache instead of re-running the engine.
//!
//! The entry is the *answer* (assignment + makespan + run stats), not
//! the engine state, so a hit costs one hash lookup and one clone, which
//! the response then takes over without copying the assignment again.
//! Wall-time-budget requests are cached too: their result is one valid
//! run's best schedule, which is exactly what a repeat request asks for.

use std::collections::HashMap;

/// A memoized schedule answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// Resolved instance name.
    pub instance: String,
    /// Instance dimensions.
    pub n_tasks: usize,
    /// Instance dimensions.
    pub n_machines: usize,
    /// Best makespan found by the original run.
    pub makespan: f64,
    /// Evaluations the original run spent.
    pub evaluations: u64,
    /// Wall-clock of the original run, milliseconds.
    pub engine_ms: f64,
    /// Task→machine assignment of the best schedule.
    pub assignment: Vec<u32>,
}

struct Slot {
    value: CachedRun,
    last_used: u64,
}

/// A bounded LRU map from request digest to [`CachedRun`], with hit/miss
/// accounting. Eviction is exact LRU via a monotonic use counter; the
/// O(capacity) eviction scan is irrelevant next to an engine run.
pub struct ScheduleCache {
    map: HashMap<u64, Slot>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ScheduleCache {
    /// A cache holding at most `capacity` entries; capacity 0 disables
    /// caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        Self { map: HashMap::new(), capacity, tick: 0, hits: 0, misses: 0 }
    }

    /// Looks up a digest, counting a hit or miss and refreshing LRU
    /// recency on hit.
    pub fn get(&mut self, digest: u64) -> Option<CachedRun> {
        let hit = self.hit(digest);
        if hit.is_none() {
            self.misses += 1;
        }
        hit
    }

    /// Hit-only lookup: on a hit, counts it and refreshes LRU recency
    /// exactly like [`ScheduleCache::get`]; on a miss, counts nothing. A
    /// caller that will hand the miss to a later `get` (the daemon's
    /// connection threads, ahead of the batch scheduler) keeps every
    /// request counted exactly once.
    pub fn hit(&mut self, digest: u64) -> Option<CachedRun> {
        let slot = self.map.get_mut(&digest)?;
        self.tick += 1;
        slot.last_used = self.tick;
        self.hits += 1;
        Some(slot.value.clone())
    }

    /// Peeks without touching recency or hit/miss counters.
    pub fn contains(&self, digest: u64) -> bool {
        self.map.contains_key(&digest)
    }

    /// Inserts an answer, evicting the least-recently-used entry when
    /// full.
    pub fn insert(&mut self, digest: u64, value: CachedRun) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&digest) && self.map.len() >= self.capacity {
            if let Some((&oldest, _)) = self.map.iter().min_by_key(|(_, slot)| slot.last_used) {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(digest, Slot { value, last_used: self.tick });
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// LRU bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Every live entry, in unspecified order (the drain-time corpus
    /// persistence pass; callers wanting determinism sort by digest).
    pub fn entries(&self) -> impl Iterator<Item = (u64, &CachedRun)> {
        self.map.iter().map(|(&digest, slot)| (digest, &slot.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tag: u64) -> CachedRun {
        CachedRun {
            instance: format!("i{tag}"),
            n_tasks: 4,
            n_machines: 2,
            makespan: tag as f64,
            evaluations: 100 + tag,
            engine_ms: 1.0,
            assignment: vec![0, 1, 0, 1],
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = ScheduleCache::new(4);
        assert_eq!(c.get(1), None);
        c.insert(1, run(1));
        assert_eq!(c.get(1).unwrap().makespan, 1.0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ScheduleCache::new(2);
        c.insert(1, run(1));
        c.insert(2, run(2));
        assert!(c.get(1).is_some(), "touch 1 so 2 is the LRU");
        c.insert(3, run(3));
        assert!(c.contains(1), "recently used survives");
        assert!(!c.contains(2), "LRU evicted");
        assert!(c.contains(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = ScheduleCache::new(2);
        c.insert(1, run(1));
        c.insert(2, run(2));
        c.insert(1, run(10));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap().makespan, 10.0, "value refreshed");
        assert!(c.contains(2), "no spurious eviction");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ScheduleCache::new(0);
        c.insert(1, run(1));
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn hit_counts_hits_only_and_refreshes_recency() {
        let mut c = ScheduleCache::new(2);
        assert_eq!(c.hit(1), None);
        assert_eq!((c.hits(), c.misses()), (0, 0), "a hit-only miss counts nothing");
        c.insert(1, run(1));
        c.insert(2, run(2));
        assert_eq!(c.hit(1).unwrap().makespan, 1.0);
        assert_eq!((c.hits(), c.misses()), (1, 0));
        c.insert(3, run(3));
        assert!(c.contains(1), "the hit refreshed 1, so 2 was the LRU");
        assert!(!c.contains(2));
    }

    #[test]
    fn contains_does_not_perturb_counters() {
        let mut c = ScheduleCache::new(2);
        c.insert(7, run(7));
        assert!(c.contains(7));
        assert!(!c.contains(8));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }
}
