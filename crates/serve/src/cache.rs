//! Content-addressed report cache: a thin wrapper over three
//! [`bitwave_store::TieredStore`] op namespaces (`evaluate`, `search`,
//! `design`), storing **serialized** response bodies under request digests.
//!
//! The store substrate supplies everything the old hand-rolled cache
//! implemented itself: sharded LRU with byte accounting, single-flight
//! computation coalescing, and — when a store root is configured — a
//! checksummed disk tier, so cached responses survive restarts.  A hit from
//! either tier replays bytes identical to the cold run that populated it;
//! the `X-Bitwave-Cache` header distinguishes `hit` (memory), `disk`
//! (promoted from the disk tier), `miss` and `coalesced`.

use bitwave::digest::Digest;
use bitwave_store::{StoreConfig, StoreStats, StringCodec, TieredStore};
use std::io;
use std::sync::Arc;

/// Re-export: how a cache lookup was satisfied (`hit` / `disk` / `miss` /
/// `coalesced`, the `X-Bitwave-Cache` values).
pub use bitwave_store::StoreOutcome as CacheOutcome;

/// The cached operations; each gets its own op namespace in the store (and
/// on disk: `<root>/evaluate/<digest>`, `<root>/search/<digest>`,
/// `<root>/design/<digest>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// `POST /v1/evaluate` responses.
    Evaluate,
    /// `POST /v1/search` responses.
    Search,
    /// Final `POST /v1/design` reports (one NDJSON line each).
    Design,
}

impl CacheOp {
    /// Every op, in store order.
    const ALL: [CacheOp; 3] = [CacheOp::Evaluate, CacheOp::Search, CacheOp::Design];

    /// The op namespace string (directory name and metrics label).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOp::Evaluate => "evaluate",
            CacheOp::Search => "search",
            CacheOp::Design => crate::design::DESIGN_OP,
        }
    }
}

/// The content-addressed, bounded, single-flight, optionally persistent
/// report cache.
#[derive(Debug)]
pub struct ReportCache {
    /// One store per op, indexed in [`CacheOp::ALL`] order.
    stores: [TieredStore<StringCodec>; 3],
}

impl ReportCache {
    /// Creates a memory-only cache bounding each op to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            stores: CacheOp::ALL.map(|op| TieredStore::memory_only(op.as_str(), capacity)),
        }
    }

    /// Creates a cache from a full [`StoreConfig`]; with a root configured,
    /// every op persists under it and replays across restarts.
    ///
    /// # Errors
    ///
    /// Propagates disk-tier directory creation/scan failures.
    pub fn with_config(config: &StoreConfig) -> io::Result<Self> {
        let [evaluate, search, design] =
            CacheOp::ALL.map(|op| TieredStore::new(op.as_str(), config));
        Ok(Self {
            stores: [evaluate?, search?, design?],
        })
    }

    /// The tiered store behind one op (metrics and gauges).
    pub fn store(&self, op: CacheOp) -> &TieredStore<StringCodec> {
        &self.stores[op as usize]
    }

    /// One op's counters.
    pub fn stats(&self, op: CacheOp) -> &StoreStats {
        self.store(op).stats()
    }

    /// Ready memory-tier entries across every op.
    pub fn len(&self) -> usize {
        self.stores.iter().map(TieredStore::mem_entries).sum()
    }

    /// True when no ready entry is cached in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every op's memory tier (disk tiers untouched) — the next
    /// lookups behave exactly like a restarted process.
    pub fn clear_memory(&self) {
        self.stores.iter().for_each(TieredStore::clear_memory);
    }

    /// Non-blocking counted lookup — the event-loop fast path.  Answers from
    /// the memory tier (counting a hit) or the disk tier (counting a disk
    /// hit and promoting); returns `None` on a miss **or** while the digest
    /// is pending, without ever blocking on an in-flight computation.
    pub fn probe(&self, op: CacheOp, digest: Digest) -> Option<(Arc<String>, CacheOutcome)> {
        self.store(op).probe(digest)
    }

    /// Replays a cached body by digest without counting a hit or miss — the
    /// `GET /v1/reports/{digest}` path.  Consults the memory tier, then the
    /// disk tier, of the evaluate op first and the search op second (the
    /// digest's op discriminator keeps the namespaces disjoint, so at most
    /// one can match; design reports are addressed by sweep, not here).
    /// The returned outcome says which tier answered (`Hit` = memory,
    /// `Disk` = promoted from disk).  A pending digest reads as absent
    /// instead of waiting for its computation.
    pub fn try_replay(&self, digest: Digest) -> Option<(Arc<String>, CacheOutcome)> {
        self.store(CacheOp::Evaluate)
            .try_get(digest)
            .or_else(|| self.store(CacheOp::Search).try_get(digest))
    }

    /// Looks `digest` up in `op`'s store; on a full miss, runs `compute`
    /// (outside the cache locks) and stores its result in memory and — when
    /// persistent — on disk.  Concurrent calls for the same digest are
    /// coalesced onto one computation.
    ///
    /// # Errors
    ///
    /// Propagates the computation's error message; waiters receive a clone
    /// of it and nothing is cached.
    pub fn get_or_compute<F>(
        &self,
        op: CacheOp,
        digest: Digest,
        compute: F,
    ) -> Result<(Arc<String>, CacheOutcome), String>
    where
        F: FnOnce() -> Result<String, String>,
    {
        self.store(op).get_or_compute(digest, compute, |e| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn digest(tag: &str) -> Digest {
        Digest::of_bytes(tag.as_bytes())
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("bitwave-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn miss_then_hit_replays_identical_bytes() {
        let cache = ReportCache::new(4);
        let (a, outcome) = cache
            .get_or_compute(CacheOp::Evaluate, digest("d1"), || Ok("body-1".to_string()))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (b, outcome) = cache
            .get_or_compute(CacheOp::Evaluate, digest("d1"), || {
                panic!("must not recompute")
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(a, b);
        assert_eq!(cache.stats(CacheOp::Evaluate).hits(), 1);
        assert_eq!(cache.stats(CacheOp::Evaluate).misses(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache
                .try_replay(digest("d1"))
                .map(|(body, _)| body.to_string()),
            Some("body-1".to_string())
        );
        assert!(cache.try_replay(digest("absent")).is_none());
    }

    #[test]
    fn ops_are_disjoint_namespaces_but_share_replay() {
        let cache = ReportCache::new(4);
        cache
            .get_or_compute(CacheOp::Evaluate, digest("e"), || Ok("EV".to_string()))
            .unwrap();
        cache
            .get_or_compute(CacheOp::Search, digest("s"), || Ok("SE".to_string()))
            .unwrap();
        // Same digest in the other op is a miss (ops never alias in
        // practice: the request keys carry an op discriminator).
        let (_, outcome) = cache
            .get_or_compute(CacheOp::Search, digest("e"), || Ok("other".to_string()))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        // Replay finds both ops' bodies.
        assert_eq!(
            cache
                .try_replay(digest("s"))
                .map(|(body, _)| body.to_string()),
            Some("SE".to_string())
        );
        assert_eq!(
            cache
                .try_replay(digest("e"))
                .map(|(body, _)| body.to_string()),
            Some("EV".to_string())
        );
    }

    #[test]
    fn failed_computation_is_not_cached() {
        let cache = ReportCache::new(2);
        let err = cache
            .get_or_compute(CacheOp::Evaluate, digest("bad"), || Err("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(cache.len(), 0);
        let (_, outcome) = cache
            .get_or_compute(CacheOp::Evaluate, digest("bad"), || {
                Ok("recovered".to_string())
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cache.stats(CacheOp::Evaluate).misses(), 2);
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let cache = Arc::new(ReportCache::new(4));
        let computations = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computations = Arc::clone(&computations);
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_compute(CacheOp::Evaluate, digest("shared"), || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok("shared-body".to_string())
                    })
                    .unwrap()
            }));
        }
        let results: Vec<(Arc<String>, CacheOutcome)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computations.load(Ordering::SeqCst), 1, "single-flight");
        assert!(results.iter().all(|(body, _)| &***body == "shared-body"));
        let stats = cache.stats(CacheOp::Evaluate);
        assert_eq!(stats.misses() + stats.coalesced() + stats.hits(), 8);
    }

    #[test]
    fn persistent_cache_replays_across_instances_byte_identically() {
        let root = temp_root("restart");
        let config = StoreConfig::default().with_root(&root).with_mem_entries(8);
        let cold_body = {
            let cache = ReportCache::with_config(&config).unwrap();
            let (body, outcome) = cache
                .get_or_compute(CacheOp::Evaluate, digest("r"), || {
                    Ok("{\"report\":42}".to_string())
                })
                .unwrap();
            assert_eq!(outcome, CacheOutcome::Miss);
            body.to_string()
        };
        // A fresh cache over the same root = a restarted process.
        let cache = ReportCache::with_config(&config).unwrap();
        let (warm, outcome) = cache
            .get_or_compute(CacheOp::Evaluate, digest("r"), || {
                panic!("must replay from disk")
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Disk);
        assert_eq!(*warm, cold_body, "disk hits replay byte-identical JSON");
        // Replay (GET /v1/reports/{digest}) also reaches the disk tier.
        cache.clear_memory();
        let (body, outcome) = cache.try_replay(digest("r")).expect("disk replay");
        assert_eq!(*body, cold_body);
        assert_eq!(outcome, CacheOutcome::Disk, "replay must report its tier");
        let _ = std::fs::remove_dir_all(&root);
    }
}
