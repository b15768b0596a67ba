//! The shared sweep ledger: content-addressed results plus claim files.
//!
//! Workers coordinate through a `bitwave-store` root shared on disk.  Each
//! candidate's [`crate::eval::PointResult`] is a
//! content-addressed `"sweep"` entry keyed by `(sweep digest, index)`, so
//! a result computed by any worker (or a previous run — warm restart) is
//! visible to all.  Before computing, a worker must win the point's claim
//! in a [`ClaimLedger`] under `<root>/sweep-claims/<sweep>/`; stale claims
//! from crashed workers expire after the configured TTL and are re-stolen.
//! Results are deterministic, so the rare double-compute after a steal race
//! publishes identical bytes and is harmless.

use crate::config::SweepConfig;
use crate::eval::PointResult;
use bitwave_core::digest::Digest;
use bitwave_store::{ClaimLedger, ClaimOutcome, JsonCodec, StoreConfig, TieredStore};
use serde::Serialize;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Store operation namespace for sweep point results.
pub const SWEEP_OP: &str = "sweep";

/// Addresses one point of one sweep.
#[derive(Serialize)]
struct PointKey {
    sweep: String,
    index: usize,
}

/// A handle onto one sweep's shared state: the result store and (when a
/// root is given) the claim ledger.
pub struct SweepLedger {
    store: TieredStore<JsonCodec<PointResult>>,
    claims: Option<ClaimLedger>,
    sweep: String,
    /// Memoized per-index store keys — the digest of `(sweep, index)` never
    /// changes, so poll loops should not re-serialize it every tick.
    keys: Mutex<HashMap<usize, Digest>>,
    /// Results this handle has already observed.  Once a point has landed
    /// it is immutable (content-addressed), so a polling `--watch` loop
    /// answers landed indices from here with zero syscalls and only
    /// `stat`s the still-missing ones.
    seen: Mutex<HashMap<usize, Arc<PointResult>>>,
}

impl SweepLedger {
    /// Opens the ledger for `config`.  With a `root` the ledger is shared
    /// across processes (results persist, claims arbitrate); without one it
    /// is a private in-memory store — the plain sequential path.
    ///
    /// # Errors
    ///
    /// Propagates store/ledger directory creation failures.
    pub fn open(config: &SweepConfig, root: Option<&Path>) -> io::Result<Self> {
        let sweep = config.digest().to_hex();
        match root {
            Some(root) => {
                let store_config = StoreConfig::default()
                    .with_root(root)
                    .with_mem_entries(config.total_points().max(64));
                let store = TieredStore::new(SWEEP_OP, &store_config)?;
                let claims = ClaimLedger::open(
                    root.join("sweep-claims").join(&sweep),
                    Duration::from_millis(config.claim_ttl_ms),
                )?;
                Ok(Self {
                    store,
                    claims: Some(claims),
                    sweep,
                    keys: Mutex::new(HashMap::new()),
                    seen: Mutex::new(HashMap::new()),
                })
            }
            None => Ok(Self {
                store: TieredStore::memory_only(SWEEP_OP, config.total_points().max(64)),
                claims: None,
                sweep,
                keys: Mutex::new(HashMap::new()),
                seen: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The sweep's digest hex — its identity in the store.
    pub fn sweep(&self) -> &str {
        &self.sweep
    }

    /// The store key of point `index` (memoized per handle).
    pub fn key(&self, index: usize) -> Digest {
        if let Some(hit) = self.keys.lock().ok().and_then(|g| g.get(&index).copied()) {
            return hit;
        }
        let key = Digest::of_value(&PointKey {
            sweep: self.sweep.clone(),
            index,
        })
        .expect("point key is always serializable");
        if let Ok(mut guard) = self.keys.lock() {
            guard.insert(index, key);
        }
        key
    }

    /// Non-blocking result lookup.  An index this handle has already seen
    /// answers from its immutable-result cache without touching the store;
    /// an unseen index costs one `stat` (plus the verified read when the
    /// entry actually exists — memory, then shared disk).
    pub fn result(&self, index: usize) -> Option<Arc<PointResult>> {
        if let Some(hit) = self.seen.lock().ok().and_then(|g| g.get(&index).cloned()) {
            return Some(hit);
        }
        let key = self.key(index);
        if !self.store.contains(key) {
            return None;
        }
        let value = self.store.try_get(key).map(|(value, _)| value)?;
        if let Ok(mut guard) = self.seen.lock() {
            guard.insert(index, Arc::clone(&value));
        }
        Some(value)
    }

    /// Attempts to claim point `index` for computation.  Without a shared
    /// root there is no contention and the claim always succeeds.
    ///
    /// # Errors
    ///
    /// Propagates unexpected claim-file I/O errors.
    pub fn claim(&self, index: usize) -> io::Result<ClaimOutcome> {
        match &self.claims {
            Some(claims) => claims.try_claim(&format!("{index}")),
            None => Ok(ClaimOutcome::Claimed),
        }
    }

    /// Publishes a computed result and releases the point's claim.
    pub fn publish(&self, index: usize, result: PointResult) -> Arc<PointResult> {
        let (value, _) = self
            .store
            .get_or_compute(self.key(index), || Ok::<_, String>(result), |e| e)
            .unwrap_or_else(|_| unreachable!("sweep publish compute is infallible"));
        if let Some(claims) = &self.claims {
            claims.release(&format!("{index}"));
        }
        if let Ok(mut guard) = self.seen.lock() {
            guard.insert(index, Arc::clone(&value));
        }
        value
    }

    /// Test hook: abandon a claim on `index` without publishing — simulates
    /// a worker crash mid-computation.
    pub fn abandon_claim_for_test(&self, index: usize) -> io::Result<ClaimOutcome> {
        self.claim(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::enumerate;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("bitwave-sweep-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn synthetic_result(index: usize) -> PointResult {
        let config = SweepConfig::tiny();
        let point = enumerate(&config)[index];
        PointResult {
            index,
            label: point.label(),
            point,
            area_mm2: point.area_mm2(),
            feasible: true,
            error: None,
            models: Vec::new(),
            total_cycles: 1.0,
            total_energy_pj: 2.0,
            edp: 2.0,
            menu: Vec::new(),
        }
    }

    #[test]
    fn results_are_shared_across_ledger_handles() {
        let config = SweepConfig::tiny();
        let root = temp_root("share");
        let a = SweepLedger::open(&config, Some(&root)).unwrap();
        let b = SweepLedger::open(&config, Some(&root)).unwrap();
        assert!(a.result(0).is_none());
        a.publish(0, synthetic_result(0));
        let replayed = b.result(0).expect("second handle sees the disk entry");
        assert_eq!(replayed.index, 0);
        assert!(b.result(1).is_none(), "other points stay absent");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn claims_arbitrate_across_handles_and_release_on_publish() {
        let config = SweepConfig::tiny();
        let root = temp_root("claims");
        let a = SweepLedger::open(&config, Some(&root)).unwrap();
        let b = SweepLedger::open(&config, Some(&root)).unwrap();
        assert_eq!(a.claim(2).unwrap(), ClaimOutcome::Claimed);
        assert_eq!(b.claim(2).unwrap(), ClaimOutcome::Held);
        a.publish(2, synthetic_result(2));
        // Publishing released the claim; the point is answered by the store
        // so no one needs it, but a re-claim must not dead-lock.
        assert_eq!(b.claim(2).unwrap(), ClaimOutcome::Claimed);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn watch_polls_answer_seen_indices_without_reopening_entry_files() {
        let config = SweepConfig::tiny();
        let root = temp_root("seen");
        let a = SweepLedger::open(&config, Some(&root)).unwrap();
        a.publish(3, synthetic_result(3));
        assert!(a.result(3).is_some());
        // Remove the entry file behind the ledger's back: a handle that has
        // already observed the landed (immutable) result keeps answering
        // from its cache with zero syscalls...
        let path = root.join(SWEEP_OP).join(a.key(3).to_hex());
        std::fs::remove_file(&path).unwrap();
        assert!(a.result(3).is_some(), "seen cache answers without the file");
        // ...while a fresh handle only stats the missing entry and reports
        // it absent without attempting a read.
        let b = SweepLedger::open(&config, Some(&root)).unwrap();
        assert!(b.result(3).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn distinct_configs_do_not_share_results() {
        let root = temp_root("isolated");
        let tiny = SweepConfig::tiny();
        let mut other = tiny.clone();
        other.seed += 1;
        let a = SweepLedger::open(&tiny, Some(&root)).unwrap();
        let b = SweepLedger::open(&other, Some(&root)).unwrap();
        a.publish(0, synthetic_result(0));
        assert!(b.result(0).is_none(), "different sweep digest, no overlap");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn memory_only_ledger_always_claims() {
        let config = SweepConfig::tiny();
        let ledger = SweepLedger::open(&config, None).unwrap();
        assert_eq!(ledger.claim(0).unwrap(), ClaimOutcome::Claimed);
        assert_eq!(ledger.claim(0).unwrap(), ClaimOutcome::Claimed);
        ledger.publish(0, synthetic_result(0));
        assert!(ledger.result(0).is_some());
    }
}
