//! The tiered content-addressed store: memory over optional disk.

use crate::codec::StoreCodec;
use crate::config::StoreConfig;
use crate::disk::{DiskMiss, DiskTier};
use crate::memory::{FillOrigin, MemoryTier, MemoryTierConfig, TryPeek};
use crate::stats::{StoreOutcome, StoreStats};
use bitwave_core::digest::Digest;
use std::fmt;
use std::io;
use std::sync::Arc;

/// A content-addressed store with a sharded single-flight LRU memory tier
/// and an optional checksummed disk tier.
///
/// Values are addressed by [`Digest`] keys under one `op` namespace (the
/// disk layout is `<root>/<op>/<digest>`).  The codec `C` serializes each
/// value once on the cold path — the encoded bytes drive memory byte
/// accounting, the disk payload, and byte-identical replay.
///
/// Lookup order: memory (hit) → disk (verified read, promoted into memory)
/// → compute (encoded, cached in memory, written to disk best-effort).
/// Concurrent lookups of one key coalesce onto a single computation.  Disk
/// problems are **never errors**: corrupt, truncated or version-mismatched
/// entries are quarantined and treated as misses, and a failed write leaves
/// the value served from memory.
pub struct TieredStore<C: StoreCodec> {
    op: String,
    memory: MemoryTier<C::Value>,
    disk: Option<DiskTier>,
    stats: Arc<StoreStats>,
}

impl<C: StoreCodec> fmt::Debug for TieredStore<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TieredStore")
            .field("op", &self.op)
            .field("mem_entries", &self.memory.len())
            .field("persistent", &self.persistent())
            .finish()
    }
}

impl<C: StoreCodec> TieredStore<C> {
    /// Creates the store for `op` under `config`, opening the disk tier
    /// when a root is configured.
    ///
    /// # Errors
    ///
    /// Propagates disk-tier directory creation/scan failures.
    pub fn new(op: &str, config: &StoreConfig) -> io::Result<Self> {
        let stats = Arc::new(StoreStats::default());
        let memory = MemoryTier::with_stats(
            MemoryTierConfig {
                max_entries: config.mem_entries,
                max_bytes: config.mem_bytes,
                shards: 0,
            },
            Arc::clone(&stats),
        );
        let disk = match &config.root {
            Some(root) => Some(DiskTier::open(root, op, config.disk_bytes)?),
            None => None,
        };
        Ok(Self {
            op: op.to_string(),
            memory,
            disk,
            stats,
        })
    }

    /// A memory-only store bounded to `max_entries`.
    pub fn memory_only(op: &str, max_entries: usize) -> Self {
        match Self::new(
            op,
            &StoreConfig {
                root: None,
                mem_entries: max_entries,
                ..StoreConfig::default()
            },
        ) {
            Ok(store) => store,
            Err(_) => unreachable!("memory-only stores cannot fail to open"),
        }
    }

    /// The op namespace.
    pub fn op(&self) -> &str {
        &self.op
    }

    /// True when a disk tier is attached.
    pub fn persistent(&self) -> bool {
        self.disk.is_some()
    }

    /// The shared counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Ready entries in the memory tier.
    pub fn mem_entries(&self) -> usize {
        self.memory.len()
    }

    /// Accounted bytes in the memory tier.
    pub fn mem_bytes(&self) -> u64 {
        self.memory.bytes()
    }

    /// Entry-count gauge of the disk tier (0 without one).
    pub fn disk_entries(&self) -> u64 {
        self.disk.as_ref().map_or(0, DiskTier::entries)
    }

    /// Byte gauge of the disk tier (0 without one).
    pub fn disk_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, DiskTier::bytes)
    }

    /// Drops every memory-tier entry, keeping the disk tier — after this,
    /// lookups replay from disk exactly as a restarted process would.
    pub fn clear_memory(&self) {
        self.memory.clear();
    }

    /// Reads and decodes `key` from the disk tier; verification or decode
    /// failures quarantine the entry and report a miss.
    fn disk_read(&self, key: Digest) -> Option<(C::Value, u64)> {
        let disk = self.disk.as_ref()?;
        match disk.read(key) {
            Ok(payload) => {
                let len = payload.len() as u64;
                match C::decode(payload) {
                    Ok(value) => Some((value, len)),
                    Err(_) => {
                        disk.quarantine(key);
                        StoreStats::bump(&self.stats.quarantined);
                        None
                    }
                }
            }
            Err(DiskMiss::Absent) => None,
            Err(DiskMiss::Quarantined) => {
                StoreStats::bump(&self.stats.quarantined);
                None
            }
        }
    }

    fn disk_write(&self, key: Digest, payload: &[u8]) {
        if let Some(disk) = &self.disk {
            if !disk.write(key, payload) {
                StoreStats::bump(&self.stats.disk_write_errors);
            }
        }
    }

    /// Looks `key` up through both tiers; on a full miss runs `compute`,
    /// encodes the value once, caches it in memory and persists it
    /// best-effort.  Concurrent calls for one key coalesce onto the first
    /// caller; a coalesced waiter that observes a failure receives
    /// `waiter_err` of the failure message.
    ///
    /// # Errors
    ///
    /// The computing caller's error is propagated as-is; nothing is cached.
    pub fn get_or_compute<E, F>(
        &self,
        key: Digest,
        compute: F,
        waiter_err: impl FnOnce(String) -> E,
    ) -> Result<(Arc<C::Value>, StoreOutcome), E>
    where
        F: FnOnce() -> Result<C::Value, E>,
        E: fmt::Display,
    {
        self.memory.get_or_fill(
            key,
            || {
                if let Some((value, bytes)) = self.disk_read(key) {
                    return Ok((value, bytes, FillOrigin::Disk));
                }
                let value = compute()?;
                if !self.persistent() {
                    // Memory-only: weigh the value without materializing
                    // the encoded form.
                    let weight = C::byte_weight(&value);
                    return Ok((value, weight, FillOrigin::Computed));
                }
                match C::encode(&value) {
                    Ok(encoded) => {
                        self.disk_write(key, &encoded);
                        Ok((value, encoded.len() as u64, FillOrigin::Computed))
                    }
                    // An unencodable value is still served and cached in
                    // memory (weight 0); it just cannot persist.
                    Err(_) => {
                        StoreStats::bump(&self.stats.disk_write_errors);
                        Ok((value, 0, FillOrigin::Computed))
                    }
                }
            },
            waiter_err,
        )
    }

    /// Replays `key` without computing: memory first, then the disk tier
    /// (promoting a verified entry into memory).  Never waits on an
    /// in-flight computation — a pending key reports `None` and the caller
    /// decides how to wait (the serve tier's event loop must not block).
    /// Uncounted in hit/miss stats; the returned [`StoreOutcome`] says
    /// which tier answered (`Hit` or `Disk`).
    pub fn try_get(&self, key: Digest) -> Option<(Arc<C::Value>, StoreOutcome)> {
        match self.memory.try_peek(key) {
            TryPeek::Ready(value) => Some((value, StoreOutcome::Hit)),
            TryPeek::Pending => None,
            TryPeek::Absent => {
                let (value, bytes) = self.disk_read(key)?;
                let value = Arc::new(value);
                self.memory.insert(key, Arc::clone(&value), bytes);
                Some((value, StoreOutcome::Disk))
            }
        }
    }

    /// Non-blocking existence probe: `true` when `key` is ready in memory
    /// or has an entry file on disk (one `stat`, nothing read, decoded or
    /// promoted).  A pending in-flight computation reports `false` — the
    /// caller polls again, exactly like [`try_get`](Self::try_get).  A
    /// `true` can still miss on the subsequent verified read if the disk
    /// entry turns out corrupt; poll loops must treat it as a hint.
    pub fn contains(&self, key: Digest) -> bool {
        match self.memory.try_peek(key) {
            TryPeek::Ready(_) => true,
            TryPeek::Pending => false,
            TryPeek::Absent => self.disk.as_ref().is_some_and(|disk| disk.contains(key)),
        }
    }

    /// Non-blocking **counted** lookup for admission paths: a memory hit
    /// bumps `hits`, a disk promotion bumps `disk_hits`, and a miss or
    /// in-flight key counts nothing here — the eventual
    /// [`get_or_compute`](Self::get_or_compute) (or the event loop's rider
    /// accounting via [`StoreStats::note_coalesced`]) records it.
    pub fn probe(&self, key: Digest) -> Option<(Arc<C::Value>, StoreOutcome)> {
        let (value, outcome) = self.try_get(key)?;
        match outcome {
            StoreOutcome::Hit => StoreStats::bump(&self.stats.hits),
            StoreOutcome::Disk => StoreStats::bump(&self.stats.disk_hits),
            StoreOutcome::Miss | StoreOutcome::Coalesced => {}
        }
        Some((value, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::StringCodec;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("bitwave-store-tiered-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn key(tag: &str) -> Digest {
        Digest::of_bytes(tag.as_bytes())
    }

    #[test]
    fn memory_only_stores_behave_like_a_single_flight_lru() {
        let store = TieredStore::<StringCodec>::memory_only("test", 4);
        assert!(!store.persistent());
        let (a, outcome) = store
            .get_or_compute(key("d"), || Ok::<_, String>("body".to_string()), |e| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Miss);
        let (b, outcome) = store
            .get_or_compute(key("d"), || unreachable!(), |e: String| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.mem_entries(), 1);
        assert_eq!(store.mem_bytes(), 4);
        assert_eq!(store.disk_entries(), 0);
    }

    #[test]
    fn a_reopened_store_serves_disk_hits_byte_identically() {
        let root = temp_root("reopen");
        let config = StoreConfig::default().with_root(&root).with_mem_entries(8);
        let first = TieredStore::<StringCodec>::new("evaluate", &config).unwrap();
        let (cold, outcome) = first
            .get_or_compute(
                key("r"),
                || Ok::<_, String>("report-json".to_string()),
                |e| e,
            )
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Miss);
        drop(first);

        // A fresh store over the same root = a restarted process.
        let second = TieredStore::<StringCodec>::new("evaluate", &config).unwrap();
        assert_eq!(second.disk_entries(), 1);
        let (warm, outcome) = second
            .get_or_compute(key("r"), || panic!("must not recompute"), |e: String| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Disk);
        assert_eq!(*warm, *cold, "disk hits must replay byte-identically");
        assert_eq!(second.stats().disk_hits(), 1);
        assert_eq!(second.stats().misses(), 0);
        // Now promoted: the next lookup is a memory hit.
        let (_, outcome) = second
            .get_or_compute(key("r"), || panic!("still cached"), |e: String| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Hit);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn clear_memory_forces_the_disk_path() {
        let root = temp_root("clear");
        let config = StoreConfig::default().with_root(&root);
        let store = TieredStore::<StringCodec>::new("op", &config).unwrap();
        store
            .get_or_compute(key("x"), || Ok::<_, String>("value".to_string()), |e| e)
            .unwrap();
        store.clear_memory();
        assert_eq!(store.mem_entries(), 0);
        let (_, outcome) = store
            .get_or_compute(key("x"), || panic!("disk has it"), |e: String| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Disk);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replay_get_consults_disk_and_promotes() {
        let root = temp_root("replay");
        let config = StoreConfig::default().with_root(&root);
        let store = TieredStore::<StringCodec>::new("op", &config).unwrap();
        assert!(store.try_get(key("absent")).is_none());
        store
            .get_or_compute(key("y"), || Ok::<_, String>("yy".to_string()), |e| e)
            .unwrap();
        store.clear_memory();
        let (replayed, outcome) = store.try_get(key("y")).expect("disk replay");
        assert_eq!(*replayed, "yy");
        assert_eq!(outcome, StoreOutcome::Disk);
        assert_eq!(store.mem_entries(), 1, "replay promotes into memory");
        let (_, outcome) = store.try_get(key("y")).expect("memory replay");
        assert_eq!(
            outcome,
            StoreOutcome::Hit,
            "promoted replays answer from memory"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn try_get_never_blocks_on_a_pending_key_and_probe_counts() {
        let store = Arc::new(TieredStore::<StringCodec>::memory_only("op", 8));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let filler = {
            let store = Arc::clone(&store);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                store
                    .get_or_compute(
                        key("slow"),
                        || {
                            gate.wait();
                            std::thread::sleep(std::time::Duration::from_millis(100));
                            Ok::<_, String>("slow-body".to_string())
                        },
                        |e| e,
                    )
                    .unwrap()
            })
        };
        gate.wait();
        // The computation is in flight: both non-blocking lookups must
        // return immediately with None instead of waiting ~100 ms.
        let t0 = std::time::Instant::now();
        assert!(store.try_get(key("slow")).is_none());
        assert!(store.probe(key("slow")).is_none());
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(50),
            "try_get/probe must not block on a pending slot"
        );
        filler.join().unwrap();
        // Ready now: try_get is uncounted, probe bumps hits.
        let hits_before = store.stats().hits();
        let (value, outcome) = store.try_get(key("slow")).expect("ready");
        assert_eq!((&**value, outcome), ("slow-body", StoreOutcome::Hit));
        assert_eq!(store.stats().hits(), hits_before, "try_get is uncounted");
        let (_, outcome) = store.probe(key("slow")).expect("ready");
        assert_eq!(outcome, StoreOutcome::Hit);
        assert_eq!(store.stats().hits(), hits_before + 1, "probe counts hits");
    }

    #[test]
    fn probe_promotes_from_disk_and_counts_a_disk_hit() {
        let root = temp_root("probe-disk");
        let config = StoreConfig::default().with_root(&root);
        let store = TieredStore::<StringCodec>::new("op", &config).unwrap();
        store
            .get_or_compute(key("p"), || Ok::<_, String>("pp".to_string()), |e| e)
            .unwrap();
        store.clear_memory();
        assert!(store.probe(key("absent")).is_none());
        let (value, outcome) = store.probe(key("p")).expect("disk probe");
        assert_eq!((&**value, outcome), ("pp", StoreOutcome::Disk));
        assert_eq!(store.stats().disk_hits(), 1);
        assert_eq!(store.mem_entries(), 1, "probe promotes into memory");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn contains_probes_both_tiers_without_reading_or_promoting() {
        let root = temp_root("contains");
        let config = StoreConfig::default().with_root(&root);
        let store = TieredStore::<StringCodec>::new("op", &config).unwrap();
        assert!(!store.contains(key("c")));
        store
            .get_or_compute(key("c"), || Ok::<_, String>("cc".to_string()), |e| e)
            .unwrap();
        assert!(store.contains(key("c")));
        store.clear_memory();
        assert!(store.contains(key("c")), "the disk entry answers the probe");
        assert_eq!(store.mem_entries(), 0, "a probe must not read or promote");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn note_coalesced_feeds_the_shared_counters() {
        let store = TieredStore::<StringCodec>::memory_only("op", 4);
        assert_eq!(store.stats().coalesced(), 0);
        store.stats().note_coalesced();
        store.stats().note_coalesced();
        assert_eq!(store.stats().coalesced(), 2);
    }

    #[test]
    fn corrupt_disk_entries_recompute_without_errors() {
        let root = temp_root("corrupt");
        let config = StoreConfig::default().with_root(&root);
        let store = TieredStore::<StringCodec>::new("op", &config).unwrap();
        store
            .get_or_compute(key("z"), || Ok::<_, String>("good".to_string()), |e| e)
            .unwrap();
        // Corrupt the file behind the store's back, then drop memory.
        let path = root.join("op").join(key("z").to_hex());
        let mut raw = std::fs::read(&path).unwrap();
        let flip_at = 60 % raw.len();
        raw[flip_at] ^= 0x55;
        std::fs::write(&path, &raw).unwrap();
        store.clear_memory();
        let (value, outcome) = store
            .get_or_compute(key("z"), || Ok::<_, String>("good".to_string()), |e| e)
            .unwrap();
        assert_eq!(
            outcome,
            StoreOutcome::Miss,
            "corruption is a miss, not an error"
        );
        assert_eq!(*value, "good");
        assert_eq!(store.stats().quarantined(), 1);
        // The recompute rewrote a valid entry.
        store.clear_memory();
        let (_, outcome) = store
            .get_or_compute(key("z"), || panic!("rewritten"), |e: String| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Disk);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_verified_payload_that_fails_to_decode_is_quarantined() {
        let root = temp_root("undecodable");
        let config = StoreConfig::default().with_root(&root);
        let store = TieredStore::<StringCodec>::new("op", &config).unwrap();
        // A well-formed, checksummed entry whose payload is not UTF-8.
        store.disk_write(key("u"), &[0xff, 0xfe]);
        let (value, outcome) = store
            .get_or_compute(key("u"), || Ok::<_, String>("fresh".to_string()), |e| e)
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Miss);
        assert_eq!(*value, "fresh");
        assert_eq!(store.stats().quarantined(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
