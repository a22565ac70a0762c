//! One thread-safe memo table for every host-side compile cache.
//!
//! A compiled weight plan ([`crate::WeightPlanCache`]) and a compiled
//! activation profile ([`crate::ActProfileCache`]) are both pure
//! functions of a key, so both are instances of [`MemoCache`]: each
//! alias contributes only its key type and compile recipe, and the
//! table owns the locking, the LRU byte budget and the lookup counters.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Monotonic lookup counters of a [`MemoCache`], shared (like the table
/// itself) by every clone of the cache.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    evictions: AtomicU64,
    bytes_evicted: AtomicU64,
}

/// A point-in-time snapshot of a [`MemoCache`]'s lookup counters.
///
/// * `hits` — lookups answered from the table.
/// * `misses` — lookups that compiled a new value.
/// * `bypasses` — lookups that compiled a new value the caller flagged
///   as a bypass. The weight-plan cache flags **dense** (non-W-DBB)
///   plans: they are memoized like any other since the allocation-free
///   refactor (regenerating raw weights per batch was the dominant host
///   cost of dense lanes), and the separate counter keeps DBB compile
///   counts comparable across versions. The activation-profile cache
///   never bypasses.
/// * `evictions` / `bytes_evicted` — entries (and their estimated
///   bytes) an LRU byte budget pushed out; always zero on unbounded
///   caches.
///
/// Counters only ever grow; per-run deltas come from
/// [`CacheStats::since`]. On a budgeted cache the hit/miss/eviction
/// *counters* may vary with host-thread interleaving (which lane
/// touches an entry first decides recency), while the cached values
/// themselves are pure recomputations — so simulated results stay
/// byte-identical under any eviction schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the table.
    pub hits: u64,
    /// Lookups that compiled a new value.
    pub misses: u64,
    /// Lookups that compiled a new value flagged as a bypass.
    pub bypasses: u64,
    /// Entries evicted to stay within a byte budget.
    pub evictions: u64,
    /// Estimated bytes those evictions released.
    pub bytes_evicted: u64,
}

impl CacheStats {
    /// The activity between `earlier` and `self` (both snapshots of the
    /// same cache, `self` taken later). Saturating: a stale or swapped
    /// `earlier` (e.g. a snapshot kept across a cache replacement)
    /// clamps to zero instead of underflowing — deltas are diagnostics,
    /// and a debug-build panic deep in a monitoring path is worse than
    /// a conservative zero.
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bypasses: self.bypasses.saturating_sub(earlier.bypasses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            bytes_evicted: self.bytes_evicted.saturating_sub(earlier.bytes_evicted),
        }
    }

    /// Total lookups (hits + misses + bypasses).
    pub(crate) fn lookups(&self) -> u64 {
        self.hits + self.misses + self.bypasses
    }

    /// Fraction of lookups served from the table (0 before the first
    /// lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A resident entry's value: a slot racing lookups wait on while the
/// first one compiles, replaced by the plain value once it is ready
/// (the slot's extra allocation would otherwise stay resident per
/// entry).
#[derive(Debug)]
enum Slot<V> {
    Compiling(Arc<OnceLock<Arc<V>>>),
    Ready(Arc<V>),
}

/// One resident value plus its LRU bookkeeping.
#[derive(Debug)]
struct Entry<V> {
    slot: Slot<V>,
    /// Estimated resident bytes, frozen once the value is compiled so
    /// insert/evict accounting always balances (zero while it compiles).
    bytes: u64,
    last_used: u64,
}

/// The lock-protected state of a [`MemoCache`].
#[derive(Debug)]
struct Table<K, V> {
    map: HashMap<K, Entry<V>>,
    /// LRU clock, bumped on every touch.
    tick: u64,
    resident_bytes: u64,
}

/// A thread-safe memo table from `K` to shared compiled values `V`,
/// optionally bounded by an LRU byte budget.
///
/// Every clone shares the table and its counters. On an **unbounded**
/// cache each key compiles exactly once however host threads
/// interleave: the entry is created inside the lock, the value compiles
/// outside it, and concurrent first users of the key wait for that
/// compile (counted as hits) instead of compiling again — so counter
/// assertions in tests and examples can be exact.
///
/// [`MemoCache::with_byte_budget`] bounds the table: once a compiled
/// value's bytes are accounted and the estimated resident bytes exceed
/// the budget, least-recently-used entries are evicted (never the one
/// just inserted — a budget smaller than a single value still serves
/// it, it just can't keep it). Evicted values recompile on next use to
/// identical values, so a budget changes host time and the counters,
/// never simulated results.
#[derive(Debug)]
pub struct MemoCache<K, V> {
    inner: Arc<Mutex<Table<K, V>>>,
    counters: Arc<Counters>,
    /// LRU byte budget; `None` = unbounded.
    budget: Option<u64>,
}

impl<K, V> Clone for MemoCache<K, V> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            counters: Arc::clone(&self.counters),
            budget: self.budget,
        }
    }
}

impl<K, V> Default for MemoCache<K, V> {
    fn default() -> Self {
        let table = Table { map: HashMap::new(), tick: 0, resident_bytes: 0 };
        Self { inner: Arc::new(Mutex::new(table)), counters: Arc::default(), budget: None }
    }
}

impl<K: Copy + Eq + Hash, V> MemoCache<K, V> {
    /// An empty unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that evicts least-recently-used entries whenever
    /// the estimated resident bytes exceed `budget`.
    pub fn with_byte_budget(budget: u64) -> Self {
        Self { budget: Some(budget), ..Self::default() }
    }

    fn lock(&self) -> MutexGuard<'_, Table<K, V>> {
        self.inner.lock().expect("memo cache poisoned")
    }

    /// Returns the value cached under `key`, running `compile` on first
    /// use and accounting `bytes` of the result against the budget.
    /// A first use counts as a bypass when `bypass` is set, as a miss
    /// otherwise.
    pub(crate) fn get_or_compile(
        &self,
        key: K,
        bypass: bool,
        compile: impl FnOnce() -> V,
        bytes: impl FnOnce(&V) -> u64,
    ) -> Arc<V> {
        let (slot, compiled_here) = {
            let mut table = self.lock();
            table.tick += 1;
            let tick = table.tick;
            if let Some(entry) = table.map.get_mut(&key) {
                entry.last_used = tick;
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                match &entry.slot {
                    Slot::Ready(value) => return Arc::clone(value),
                    Slot::Compiling(slot) => (Arc::clone(slot), false),
                }
            } else {
                let counter = if bypass { &self.counters.bypasses } else { &self.counters.misses };
                counter.fetch_add(1, Ordering::Relaxed);
                let slot = Arc::new(OnceLock::new());
                let entry =
                    Entry { slot: Slot::Compiling(Arc::clone(&slot)), bytes: 0, last_used: tick };
                table.map.insert(key, entry);
                (slot, true)
            }
        };
        // Compile outside the lock: compiles are the expensive part, so
        // lookups of other keys proceed while a racing lookup of this
        // one blocks here instead of compiling it a second time.
        let value = Arc::clone(slot.get_or_init(|| Arc::new(compile())));
        if !compiled_here {
            return value;
        }
        let mut table = self.lock();
        // Account the bytes unless the entry was evicted or cleared
        // while it compiled.
        let Some(entry) = table
            .map
            .get_mut(&key)
            .filter(|e| matches!(&e.slot, Slot::Compiling(s) if Arc::ptr_eq(s, &slot)))
        else {
            return value;
        };
        let value_bytes = bytes(&value);
        entry.slot = Slot::Ready(Arc::clone(&value));
        entry.bytes = value_bytes;
        table.resident_bytes += value_bytes;
        if let Some(budget) = self.budget {
            self.evict_locked(&mut table, budget, &key);
        }
        value
    }

    /// Evicts least-recently-used entries (never `keep`, the one just
    /// inserted) until the table fits `budget`. The victim scan is
    /// linear in the table size — fine while eviction is rare next to
    /// the compiles it pays for.
    fn evict_locked(&self, table: &mut Table<K, V>, budget: u64, keep: &K) {
        while table.resident_bytes > budget && table.map.len() > 1 {
            let victim = table
                .map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(k) = victim else { break };
            let e = table.map.remove(&k).expect("victim is resident");
            table.resident_bytes -= e.bytes;
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            self.counters.bytes_evicted.fetch_add(e.bytes, Ordering::Relaxed);
        }
    }

    /// A snapshot of the cache's lookup counters. Counters are
    /// monotone; diff two snapshots with [`CacheStats::since`] to scope
    /// them to one run.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            bypasses: c.bypasses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            bytes_evicted: c.bytes_evicted.load(Ordering::Relaxed),
        }
    }

    /// Estimated bytes of the currently resident values.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident_bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (not counted as evictions).
    #[cfg(test)]
    fn clear(&self) {
        let mut table = self.lock();
        table.map.clear();
        table.resident_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compile that clears the table and looks its own key up again
    /// must not account its bytes over the fresh entry that inner
    /// lookup created: the outer lookup still gets its own value, the
    /// table keeps the inner one, and the bytes are counted once.
    #[test]
    fn entry_cleared_while_compiling_is_not_overwritten() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        let outer = cache.get_or_compile(
            7,
            false,
            || {
                cache.clear();
                assert_eq!(*cache.get_or_compile(7, false, || 2, |_| 50), 2);
                1
            },
            |_| 50,
        );
        assert_eq!(*outer, 1, "the outer lookup returns the value it compiled");
        assert_eq!(cache.resident_bytes(), 50, "only the inner entry is accounted");
        assert_eq!(*cache.get_or_compile(7, false, || 3, |_| 50), 2, "the inner value stays");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.lookups()), (1, 2, 3));
    }
}
