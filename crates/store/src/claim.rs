//! A cross-process work-claim ledger over a shared directory.
//!
//! Multi-process sweeps shard work by *claiming* items before computing
//! them.  A claim is a file created with `O_CREAT | O_EXCL`
//! ([`fs::OpenOptions::create_new`]) — the one filesystem primitive that is
//! an atomic test-and-set across processes (write-via-rename, used by the
//! disk tier's entry publish, *overwrites* and therefore cannot arbitrate
//! ownership).  Exactly one contender wins each claim; everyone else sees
//! [`ClaimOutcome::Held`].
//!
//! Crashed owners must not strand their items forever, so claims carry a
//! **time-to-live**: a claim file whose mtime is older than the ledger's TTL
//! is considered abandoned and may be *stolen* — removed and re-claimed
//! atomically by whoever notices first.  Two racing stealers both remove
//! (the loser's remove is a no-op) and then race one `create_new`; exactly
//! one wins.  Live owners therefore must finish (or [`ClaimLedger::touch`]
//! their claim) within the TTL.
//!
//! The ledger never stores results — completion is signalled by publishing
//! the result itself (e.g. a [`crate::TieredStore`] entry) and then
//! [`ClaimLedger::release`]-ing the claim.  Callers check for the result
//! *before* claiming and again *after* winning a claim: a peer may publish
//! and release between the first check and the claim, and only the second
//! check keeps completed work from being taken again.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// What [`ClaimLedger::try_claim`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// This caller now owns the item and must compute it (then
    /// [`ClaimLedger::release`] the claim).
    Claimed,
    /// Another live owner holds the item; try again later or move on.
    Held,
    /// A stale claim (owner presumed crashed) was removed and re-claimed by
    /// this caller — semantically [`ClaimOutcome::Claimed`], distinguished
    /// for steal accounting.
    Stolen,
}

impl ClaimOutcome {
    /// True when the caller owns the item (fresh claim or steal).
    pub fn owned(self) -> bool {
        matches!(self, ClaimOutcome::Claimed | ClaimOutcome::Stolen)
    }
}

/// A TTL-expiring claim ledger rooted at one directory.
#[derive(Debug)]
pub struct ClaimLedger {
    dir: PathBuf,
    ttl: Duration,
}

impl ClaimLedger {
    /// Opens (creating if needed) the ledger directory.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn open(dir: impl Into<PathBuf>, ttl: Duration) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, ttl })
    }

    /// The ledger's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stale-claim time-to-live.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    fn claim_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.claim"))
    }

    /// Attempts to claim `key` (a filename-safe item identifier).  At most
    /// one contender per key holds the claim at a time; a claim whose file
    /// is older than the TTL is stolen.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the expected
    /// already-exists/not-found races.
    pub fn try_claim(&self, key: &str) -> io::Result<ClaimOutcome> {
        match self.create_claim(key) {
            Ok(()) => return Ok(ClaimOutcome::Claimed),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
        // Held by someone — unless the owner is presumed dead.
        if !self.is_stale(key) {
            return Ok(ClaimOutcome::Held);
        }
        // Steal: remove the stale file, then race a fresh create_new.  The
        // remove is idempotent (a concurrent stealer may get there first)
        // and exactly one contender wins the re-create.
        match fs::remove_file(self.claim_path(key)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        match self.create_claim(key) {
            Ok(()) => Ok(ClaimOutcome::Stolen),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(ClaimOutcome::Held),
            Err(e) => Err(e),
        }
    }

    /// Refreshes a held claim's mtime so a long computation is not stolen
    /// mid-flight.  Best-effort: a vanished claim file is not an error (the
    /// work will simply race its stealer, and deterministic results make
    /// the double-compute harmless).
    pub fn touch(&self, key: &str) {
        let _ = fs::OpenOptions::new()
            .write(true)
            .open(self.claim_path(key))
            .and_then(|mut f| f.write_all(b"."));
    }

    /// Releases a claim after its result has been published.  Releasing an
    /// already-released (or stolen) claim is a no-op.
    pub fn release(&self, key: &str) {
        match fs::remove_file(self.claim_path(key)) {
            Ok(()) => {}
            Err(_) => {
                // Already gone (stolen or never created) — nothing to do.
            }
        }
    }

    /// True when `key` currently has a claim file (live or stale).
    pub fn is_held(&self, key: &str) -> bool {
        self.claim_path(key).exists()
    }

    fn create_claim(&self, key: &str) -> io::Result<()> {
        let mut file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.claim_path(key))?;
        // The content is diagnostic only; ownership lives in the file's
        // existence and freshness.
        let _ = write!(file, "{}", std::process::id());
        Ok(())
    }

    /// True when the claim file exists and is older than the TTL.  A claim
    /// whose mtime cannot be read is treated as live (conservative: never
    /// steal on uncertainty).
    fn is_stale(&self, key: &str) -> bool {
        let Ok(meta) = fs::metadata(self.claim_path(key)) else {
            return false;
        };
        let Ok(modified) = meta.modified() else {
            return false;
        };
        SystemTime::now()
            .duration_since(modified)
            .map(|age| age > self.ttl)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bitwave-claim-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn first_claim_wins_second_is_held() {
        let ledger = ClaimLedger::open(temp_dir("basic"), Duration::from_secs(60)).unwrap();
        assert_eq!(ledger.try_claim("p0").unwrap(), ClaimOutcome::Claimed);
        assert_eq!(ledger.try_claim("p0").unwrap(), ClaimOutcome::Held);
        assert!(ledger.is_held("p0"));
        ledger.release("p0");
        assert!(!ledger.is_held("p0"));
        assert_eq!(ledger.try_claim("p0").unwrap(), ClaimOutcome::Claimed);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let ledger = ClaimLedger::open(temp_dir("keys"), Duration::from_secs(60)).unwrap();
        assert_eq!(ledger.try_claim("a").unwrap(), ClaimOutcome::Claimed);
        assert_eq!(ledger.try_claim("b").unwrap(), ClaimOutcome::Claimed);
        assert_eq!(ledger.try_claim("a").unwrap(), ClaimOutcome::Held);
    }

    #[test]
    fn stale_claims_are_stolen_after_the_ttl() {
        let ledger = ClaimLedger::open(temp_dir("steal"), Duration::from_millis(50)).unwrap();
        assert_eq!(ledger.try_claim("p0").unwrap(), ClaimOutcome::Claimed);
        // The "owner" crashes: no release.  Within the TTL the claim holds.
        assert_eq!(ledger.try_claim("p0").unwrap(), ClaimOutcome::Held);
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(ledger.try_claim("p0").unwrap(), ClaimOutcome::Stolen);
        // The steal re-created a fresh claim, held again.
        assert_eq!(ledger.try_claim("p0").unwrap(), ClaimOutcome::Held);
    }

    #[test]
    fn touch_keeps_a_live_claim_from_being_stolen() {
        let ledger = ClaimLedger::open(temp_dir("touch"), Duration::from_millis(120)).unwrap();
        assert_eq!(ledger.try_claim("p0").unwrap(), ClaimOutcome::Claimed);
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(60));
            ledger.touch("p0");
        }
        assert_eq!(
            ledger.try_claim("p0").unwrap(),
            ClaimOutcome::Held,
            "a touched claim must stay owned past the original TTL"
        );
    }

    #[test]
    fn racing_contenders_produce_exactly_one_owner() {
        let dir = temp_dir("race");
        let owners = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let dir = dir.clone();
                let owners = Arc::clone(&owners);
                std::thread::spawn(move || {
                    let ledger = ClaimLedger::open(dir, Duration::from_secs(60)).unwrap();
                    if ledger.try_claim("contested").unwrap().owned() {
                        owners.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            owners.load(Ordering::Relaxed),
            1,
            "exactly one contender may own a claim"
        );
    }
}
