//! The memory tier: a sharded LRU of `Arc`-shared values with byte-size
//! accounting and single-flight computation coalescing.
//!
//! Keys are [`Digest`]s; the digest's low bits pick a shard, so unrelated
//! keys contend on different mutexes.  Each shard keeps an exact LRU over
//! its *ready* entries (a monotonic access stamp in a `BTreeMap`, O(log n)
//! touch and evict); an in-flight computation is never evicted from under
//! its waiters.  Capacity is enforced per shard — entry and byte caps are
//! split evenly — so with more than one shard the eviction order is
//! LRU-per-shard, the standard sharded-cache approximation.  Small caches
//! auto-configure a single shard and keep exact global LRU semantics.
//!
//! Single-flight: the first caller for an absent key installs a pending
//! slot and computes outside the lock; concurrent callers for the same key
//! block on a condvar and share the result.  A panicking computation
//! removes its pending slot and unblocks waiters with an error, so the key
//! stays retryable.

use crate::stats::{StoreOutcome, StoreStats};
use bitwave_core::digest::Digest;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// What a non-blocking [`MemoryTier::try_peek`] found for a key.
#[derive(Debug, Clone)]
pub enum TryPeek<V> {
    /// A ready entry; replay its shared value.
    Ready(Arc<V>),
    /// A computation is in flight; the caller can wait elsewhere (e.g. the
    /// serve tier's event loop attaches the request as a batch rider)
    /// instead of blocking this thread on the store's condvar.
    Pending,
    /// Nothing is cached or in flight for the key.
    Absent,
}

/// Where a fill came from, reported by the fill closure of
/// [`MemoryTier::get_or_fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOrigin {
    /// The value was read (and verified) from the disk tier.
    Disk,
    /// The value was computed.
    Computed,
}

/// Memory-tier capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryTierConfig {
    /// Total entry capacity across shards (min 1).
    pub max_entries: usize,
    /// Total byte capacity across shards; `0` means unbounded.
    pub max_bytes: u64,
    /// Shard count; `0` picks automatically (1 shard for small caches so
    /// LRU stays exact, up to 8 for large ones).
    pub shards: usize,
}

impl MemoryTierConfig {
    /// An entry-bounded config with automatic sharding and no byte cap.
    pub fn entries(max_entries: usize) -> Self {
        Self {
            max_entries,
            max_bytes: 0,
            shards: 0,
        }
    }

    fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        (self.max_entries / 32).clamp(1, 8)
    }
}

/// One in-flight computation; waiters block on the condvar until `done`.
struct Pending<V> {
    done: Mutex<Option<Result<Arc<V>, String>>>,
    cv: Condvar,
}

enum Slot<V> {
    Ready {
        value: Arc<V>,
        bytes: u64,
        /// Access stamp keying this entry in [`Shard::by_stamp`].
        stamp: u64,
    },
    Pending(Arc<Pending<V>>),
}

struct Shard<V> {
    map: HashMap<u128, Slot<V>>,
    /// Ready keys by monotonic access stamp; the first entry is the LRU.
    by_stamp: BTreeMap<u64, u128>,
    next_stamp: u64,
    bytes: u64,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            by_stamp: BTreeMap::new(),
            next_stamp: 0,
            bytes: 0,
        }
    }

    /// Stamps a ready key as most-recently-used.
    fn touch(&mut self, key: u128) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(Slot::Ready { stamp: old, .. }) = self.map.get_mut(&key) {
            self.by_stamp.remove(old);
            *old = stamp;
            self.by_stamp.insert(stamp, key);
        }
    }

    fn insert_ready(&mut self, key: u128, value: Arc<V>, bytes: u64) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(Slot::Ready {
            bytes: old_bytes,
            stamp: old_stamp,
            ..
        }) = self.map.get(&key)
        {
            self.bytes = self.bytes.saturating_sub(*old_bytes);
            self.by_stamp.remove(old_stamp);
        }
        self.map.insert(
            key,
            Slot::Ready {
                value,
                bytes,
                stamp,
            },
        );
        self.by_stamp.insert(stamp, key);
        self.bytes += bytes;
    }

    /// Evicts LRU-first until within the caps; returns the eviction count.
    /// The newest entry is always admitted — even when it alone exceeds the
    /// byte cap — so an oversized value still serves its own hits until
    /// something newer displaces it, instead of being recomputed on every
    /// lookup.
    fn enforce(&mut self, entry_cap: usize, byte_cap: u64) -> u64 {
        let mut evicted = 0;
        while (self.by_stamp.len() > entry_cap || (byte_cap > 0 && self.bytes > byte_cap))
            && self.by_stamp.len() > 1
        {
            let Some((_, victim)) = self.by_stamp.pop_first() else {
                break;
            };
            if let Some(Slot::Ready { bytes, .. }) = self.map.remove(&victim) {
                self.bytes = self.bytes.saturating_sub(bytes);
            }
            evicted += 1;
        }
        evicted
    }
}

/// The sharded, bounded, single-flight memory tier.
pub struct MemoryTier<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_entry_cap: usize,
    shard_byte_cap: u64,
    stats: Arc<StoreStats>,
}

impl<V> fmt::Debug for MemoryTier<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryTier")
            .field("shards", &self.shards.len())
            .field("shard_entry_cap", &self.shard_entry_cap)
            .field("shard_byte_cap", &self.shard_byte_cap)
            .finish()
    }
}

impl<V: Send + Sync + 'static> MemoryTier<V> {
    /// Creates a tier with its own stats.
    pub fn new(config: MemoryTierConfig) -> Self {
        Self::with_stats(config, Arc::new(StoreStats::default()))
    }

    /// Creates a tier sharing an existing stats object (how
    /// [`crate::TieredStore`] funnels both tiers into one counter set).
    pub fn with_stats(config: MemoryTierConfig, stats: Arc<StoreStats>) -> Self {
        let shards = config.resolved_shards().max(1);
        let entry_cap = config.max_entries.max(1).div_ceil(shards);
        let byte_cap = if config.max_bytes == 0 {
            0
        } else {
            (config.max_bytes / shards as u64).max(1)
        };
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_entry_cap: entry_cap.max(1),
            shard_byte_cap: byte_cap,
            stats,
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> &Arc<StoreStats> {
        &self.stats
    }

    /// Number of ready (replayable) entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock(s).by_stamp.len())
            .sum()
    }

    /// True when no ready entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes of ready entries across shards.
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| Self::lock(s).bytes).sum()
    }

    /// Drops every ready entry (in-flight computations and their waiters
    /// are untouched; counters keep counting).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = Self::lock(shard);
            shard.map.retain(|_, slot| matches!(slot, Slot::Pending(_)));
            shard.by_stamp.clear();
            shard.bytes = 0;
        }
    }

    fn lock(shard: &Mutex<Shard<V>>) -> MutexGuard<'_, Shard<V>> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn shard_for(&self, key: Digest) -> &Mutex<Shard<V>> {
        &self.shards[(key.raw() % self.shards.len() as u128) as usize]
    }

    /// Looks `key` up without computing and without waiting: a ready entry
    /// is touched in the LRU and returned, an in-flight computation reports
    /// [`TryPeek::Pending`].  Uncounted — callers that want hit accounting
    /// layer it on top (see `TieredStore::probe`).
    pub fn try_peek(&self, key: Digest) -> TryPeek<V> {
        let mut shard = Self::lock(self.shard_for(key));
        match shard.map.get(&key.raw()) {
            Some(Slot::Ready { value, .. }) => {
                let value = Arc::clone(value);
                shard.touch(key.raw());
                TryPeek::Ready(value)
            }
            Some(Slot::Pending(_)) => TryPeek::Pending,
            None => TryPeek::Absent,
        }
    }

    /// Inserts a ready entry directly (the disk-promotion path of replay
    /// lookups).  Overwrites any existing ready entry for the key.
    pub fn insert(&self, key: Digest, value: Arc<V>, bytes: u64) {
        let mut shard = Self::lock(self.shard_for(key));
        if matches!(shard.map.get(&key.raw()), Some(Slot::Pending(_))) {
            // Never clobber an in-flight computation; its waiters would
            // block on a condvar nobody signals.
            return;
        }
        shard.insert_ready(key.raw(), value, bytes);
        let evicted = shard.enforce(self.shard_entry_cap, self.shard_byte_cap);
        drop(shard);
        for _ in 0..evicted {
            StoreStats::bump(&self.stats.evictions);
        }
    }

    /// Looks `key` up; on a miss, runs `fill` (outside the shard lock) and
    /// stores its value with the byte weight it reports.  Concurrent calls
    /// for the same key coalesce onto the first caller's fill; waiters that
    /// observe a failure receive `waiter_err` of the failure message.
    ///
    /// # Errors
    ///
    /// The filling caller's error is returned as-is; nothing is cached.
    pub fn get_or_fill<E, F>(
        &self,
        key: Digest,
        fill: F,
        waiter_err: impl FnOnce(String) -> E,
    ) -> Result<(Arc<V>, StoreOutcome), E>
    where
        F: FnOnce() -> Result<(V, u64, FillOrigin), E>,
        E: fmt::Display,
    {
        let pending = {
            let mut shard = Self::lock(self.shard_for(key));
            match shard.map.get(&key.raw()) {
                Some(Slot::Ready { value, .. }) => {
                    let value = Arc::clone(value);
                    shard.touch(key.raw());
                    StoreStats::bump(&self.stats.hits);
                    return Ok((value, StoreOutcome::Hit));
                }
                Some(Slot::Pending(p)) => Arc::clone(p),
                None => {
                    let pending = Arc::new(Pending {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    shard
                        .map
                        .insert(key.raw(), Slot::Pending(Arc::clone(&pending)));
                    drop(shard);
                    return self.run_fill(key, pending, fill);
                }
            }
        };
        StoreStats::bump(&self.stats.coalesced);
        Self::wait(&pending)
            .map(|value| (value, StoreOutcome::Coalesced))
            .map_err(waiter_err)
    }

    fn run_fill<E, F>(
        &self,
        key: Digest,
        pending: Arc<Pending<V>>,
        fill: F,
    ) -> Result<(Arc<V>, StoreOutcome), E>
    where
        F: FnOnce() -> Result<(V, u64, FillOrigin), E>,
        E: fmt::Display,
    {
        // If `fill` panics, the unwind must not leave the pending slot in
        // the map (every later call for the key would block forever on a
        // condvar nobody will signal).  The guard runs on unwind only — the
        // normal path disarms it.
        struct PendingGuard<'a, V: Send + Sync + 'static> {
            tier: &'a MemoryTier<V>,
            key: Digest,
            pending: &'a Pending<V>,
            armed: bool,
        }
        impl<V: Send + Sync + 'static> Drop for PendingGuard<'_, V> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut shard = MemoryTier::lock(self.tier.shard_for(self.key));
                shard.map.remove(&self.key.raw());
                drop(shard);
                let mut done = self
                    .pending
                    .done
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if done.is_none() {
                    *done = Some(Err("computation panicked".to_string()));
                }
                self.pending.cv.notify_all();
            }
        }
        let mut guard = PendingGuard {
            tier: self,
            key,
            pending: &pending,
            armed: true,
        };
        let result = fill();
        guard.armed = false;
        drop(guard);

        let evicted;
        let (settled, outcome) = match result {
            Ok((value, bytes, origin)) => {
                let value = Arc::new(value);
                let mut shard = Self::lock(self.shard_for(key));
                shard.insert_ready(key.raw(), Arc::clone(&value), bytes);
                evicted = shard.enforce(self.shard_entry_cap, self.shard_byte_cap);
                drop(shard);
                let outcome = match origin {
                    FillOrigin::Disk => {
                        StoreStats::bump(&self.stats.disk_hits);
                        StoreOutcome::Disk
                    }
                    FillOrigin::Computed => {
                        StoreStats::bump(&self.stats.misses);
                        StoreOutcome::Miss
                    }
                };
                (Ok(value), Ok(outcome))
            }
            Err(e) => {
                let mut shard = Self::lock(self.shard_for(key));
                shard.map.remove(&key.raw());
                evicted = 0;
                drop(shard);
                // A failed computation still counts as a miss: the cold
                // path ran, it just produced nothing cacheable.
                StoreStats::bump(&self.stats.misses);
                (Err(e.to_string()), Err(e))
            }
        };
        for _ in 0..evicted {
            StoreStats::bump(&self.stats.evictions);
        }
        let mut done = pending
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *done = Some(settled.clone());
        pending.cv.notify_all();
        drop(done);
        match outcome {
            Ok(outcome) => {
                let Ok(value) = settled else {
                    unreachable!("settled is Ok whenever outcome is Ok")
                };
                Ok((value, outcome))
            }
            Err(e) => Err(e),
        }
    }

    fn wait(pending: &Pending<V>) -> Result<Arc<V>, String> {
        let mut done = pending
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = pending
                .cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tier(entries: usize) -> MemoryTier<String> {
        MemoryTier::new(MemoryTierConfig {
            max_entries: entries,
            max_bytes: 0,
            shards: 1,
        })
    }

    fn key(tag: &str) -> Digest {
        Digest::of_bytes(tag.as_bytes())
    }

    fn computed(body: &str) -> Result<(String, u64, FillOrigin), String> {
        Ok((body.to_string(), body.len() as u64, FillOrigin::Computed))
    }

    /// The ready value under `key`, if any.
    fn ready(tier: &MemoryTier<String>, key: Digest) -> Option<Arc<String>> {
        match tier.try_peek(key) {
            TryPeek::Ready(value) => Some(value),
            TryPeek::Pending | TryPeek::Absent => None,
        }
    }

    #[test]
    fn miss_then_hit_shares_the_arc_and_accounts_bytes() {
        let tier = tier(4);
        let (a, outcome) = tier
            .get_or_fill(key("d1"), || computed("body-1"), |e| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Miss);
        let (b, outcome) = tier
            .get_or_fill(key("d1"), || panic!("must not refill"), |e: String| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.bytes(), 6);
        assert_eq!(tier.stats().hits(), 1);
        assert_eq!(tier.stats().misses(), 1);
        assert_eq!(
            ready(&tier, key("d1")).as_deref().map(String::as_str),
            Some("body-1")
        );
        assert!(ready(&tier, key("absent")).is_none());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let tier = tier(2);
        tier.get_or_fill(key("a"), || computed("A"), |e| e).unwrap();
        tier.get_or_fill(key("b"), || computed("B"), |e| e).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        tier.get_or_fill(key("a"), || unreachable!(), |e: String| e)
            .unwrap();
        tier.get_or_fill(key("c"), || computed("C"), |e| e).unwrap();
        assert_eq!(tier.stats().evictions(), 1);
        assert!(ready(&tier, key("b")).is_none(), "b must have been evicted");
        assert!(ready(&tier, key("a")).is_some());
        assert!(ready(&tier, key("c")).is_some());
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.bytes(), 2);
    }

    #[test]
    fn byte_cap_evicts_before_the_entry_cap() {
        let tier: MemoryTier<String> = MemoryTier::new(MemoryTierConfig {
            max_entries: 100,
            max_bytes: 10,
            shards: 1,
        });
        tier.get_or_fill(key("a"), || computed("aaaa"), |e| e)
            .unwrap();
        tier.get_or_fill(key("b"), || computed("bbbb"), |e| e)
            .unwrap();
        tier.get_or_fill(key("c"), || computed("cccc"), |e| e)
            .unwrap();
        assert!(tier.bytes() <= 10, "byte cap must hold: {}", tier.bytes());
        assert_eq!(tier.stats().evictions(), 1);
        assert!(ready(&tier, key("a")).is_none(), "LRU victim is the oldest");
    }

    #[test]
    fn an_entry_larger_than_the_byte_cap_is_still_admitted() {
        // The newest entry must survive enforcement even when it alone
        // blows the byte cap — otherwise an oversized value would be
        // recomputed on every single lookup.
        let tier: MemoryTier<String> = MemoryTier::new(MemoryTierConfig {
            max_entries: 8,
            max_bytes: 4,
            shards: 1,
        });
        tier.get_or_fill(key("big"), || computed("0123456789"), |e| e)
            .unwrap();
        assert_eq!(tier.len(), 1, "the oversized entry must be retained");
        let (_, outcome) = tier
            .get_or_fill(key("big"), || unreachable!(), |e: String| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Hit);
        // A newer entry displaces it.
        tier.get_or_fill(key("next"), || computed("x"), |e| e)
            .unwrap();
        assert!(ready(&tier, key("big")).is_none());
        assert!(ready(&tier, key("next")).is_some());
    }

    #[test]
    fn failed_fill_is_not_cached_and_is_retryable() {
        let tier = tier(2);
        let err = tier
            .get_or_fill(key("bad"), || Err("boom".to_string()), |e| e)
            .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(tier.len(), 0);
        let (_, outcome) = tier
            .get_or_fill(key("bad"), || computed("recovered"), |e| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Miss);
        assert_eq!(tier.stats().misses(), 2);
    }

    #[test]
    fn panicking_fill_unblocks_waiters_and_allows_retry() {
        let tier = Arc::new(tier(4));
        let panicker = {
            let tier = Arc::clone(&tier);
            std::thread::spawn(move || {
                let _ = tier.get_or_fill(
                    key("doomed"),
                    || -> Result<(String, u64, FillOrigin), String> {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("fill bug");
                    },
                    |e| e,
                );
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        let err = tier
            .get_or_fill(key("doomed"), || computed("unused"), |e| e)
            .unwrap_err();
        assert!(err.contains("panicked"), "waiter must be unblocked: {err}");
        assert!(panicker.join().is_err(), "fill did panic");
        let (value, outcome) = tier
            .get_or_fill(key("doomed"), || computed("recovered"), |e| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Miss);
        assert_eq!(&**value, "recovered");
    }

    #[test]
    fn concurrent_identical_fills_run_once() {
        let tier = Arc::new(MemoryTier::<String>::new(MemoryTierConfig::entries(64)));
        let fills = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let tier = Arc::clone(&tier);
            let fills = Arc::clone(&fills);
            handles.push(std::thread::spawn(move || {
                tier.get_or_fill(
                    key("shared"),
                    || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        computed("shared-body")
                    },
                    |e| e,
                )
                .unwrap()
            }));
        }
        let results: Vec<(Arc<String>, StoreOutcome)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(fills.load(Ordering::SeqCst), 1, "single-flight");
        assert!(results.iter().all(|(body, _)| &***body == "shared-body"));
        let misses = results
            .iter()
            .filter(|(_, o)| *o == StoreOutcome::Miss)
            .count();
        assert_eq!(misses, 1);
        let stats = tier.stats();
        assert_eq!(stats.misses() + stats.coalesced() + stats.hits(), 8);
    }

    #[test]
    fn clear_drops_ready_entries_but_keeps_counting() {
        let tier = tier(4);
        tier.get_or_fill(key("a"), || computed("A"), |e| e).unwrap();
        tier.get_or_fill(key("b"), || computed("B"), |e| e).unwrap();
        assert_eq!(tier.len(), 2);
        tier.clear();
        assert!(tier.is_empty());
        assert_eq!(tier.bytes(), 0);
        assert_eq!(tier.stats().misses(), 2, "counters survive clear");
    }

    #[test]
    fn sharded_tiers_spread_entries_and_stay_bounded() {
        let tier: MemoryTier<String> = MemoryTier::new(MemoryTierConfig {
            max_entries: 64,
            max_bytes: 0,
            shards: 8,
        });
        for i in 0..200 {
            let tag = format!("entry-{i}");
            tier.get_or_fill(key(&tag), || computed(&tag), |e| e)
                .unwrap();
        }
        assert!(
            tier.len() <= 64,
            "per-shard caps bound the total: {}",
            tier.len()
        );
        assert!(tier.stats().evictions() >= 136);
    }
}
