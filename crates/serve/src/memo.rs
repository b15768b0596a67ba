//! The request-body memo: exact `POST` body bytes → the report digest they
//! resolved to.
//!
//! Finding a compute request's report-cache address means parsing the body
//! ([`crate::EvaluateRequest::from_json`]), resolving it against the model
//! and accelerator registries (`normalize` / `normalize_search`) and
//! digesting the canonical key — work that depends only on the body bytes.
//! The event loop records the digest each body resolved to, so a repeat of
//! the same bytes goes straight to the report cache.
//!
//! The memo is a bounded LRU ([`MemoryTier`]) capped at [`MEMO_ENTRIES`]
//! entries and [`MEMO_BYTES`] body bytes, keyed by the FNV-1a/128 digest of
//! the op name plus the body.  Each entry keeps its op and body, and a
//! lookup compares both in full, so a key collision reads as a miss rather
//! than another request's report.  Only bodies that normalised and digested
//! are recorded: an invalid body is parsed (and answered `400`) every time.

use crate::cache::CacheOp;
use bitwave::digest::Digest;
use bitwave_store::{MemoryTier, MemoryTierConfig, TryPeek};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Entry cap of the memo.
pub(crate) const MEMO_ENTRIES: usize = 1024;
/// Cap on the body bytes the memo holds; a body longer than this is never
/// recorded.
pub(crate) const MEMO_BYTES: u64 = 256 * 1024;

/// One recorded body and the digest it resolved to.
struct Remembered {
    op: CacheOp,
    body: Box<[u8]>,
    digest: Digest,
}

/// Bounded map from `(op, body bytes)` to the body's report digest.
#[derive(Debug)]
pub(crate) struct BodyMemo {
    tier: MemoryTier<Remembered>,
    /// Lookups answered from the memo.
    hits: AtomicU64,
}

impl BodyMemo {
    /// A memo with the [`MEMO_ENTRIES`] and [`MEMO_BYTES`] caps.
    pub(crate) fn new() -> Self {
        // One shard: the event loop is the only caller, and one shard keeps
        // both caps exact.
        Self {
            tier: MemoryTier::new(MemoryTierConfig {
                max_entries: MEMO_ENTRIES,
                max_bytes: MEMO_BYTES,
                shards: 1,
            }),
            hits: AtomicU64::new(0),
        }
    }

    fn key(op: CacheOp, body: &[u8]) -> Digest {
        let tag = op.as_str().as_bytes();
        let mut tagged = Vec::with_capacity(tag.len() + 1 + body.len());
        tagged.extend_from_slice(tag);
        tagged.push(0);
        tagged.extend_from_slice(body);
        Digest::of_bytes(&tagged)
    }

    /// The digest `body` resolved to under `op`, if it was recorded.
    pub(crate) fn lookup(&self, op: CacheOp, body: &[u8]) -> Option<Digest> {
        match self.tier.try_peek(Self::key(op, body)) {
            TryPeek::Ready(entry) if entry.op == op && *entry.body == *body => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.digest)
            }
            _ => None,
        }
    }

    /// Records that `body` resolved to `digest` under `op`.
    pub(crate) fn remember(&self, op: CacheOp, body: &[u8], digest: Digest) {
        self.insert(Self::key(op, body), op, body, digest);
    }

    fn insert(&self, key: Digest, op: CacheOp, body: &[u8], digest: Digest) {
        let bytes = body.len() as u64;
        if bytes > MEMO_BYTES {
            return;
        }
        let entry = Remembered {
            op,
            body: body.into(),
            digest,
        };
        self.tier.insert(key, Arc::new(entry), bytes);
    }

    /// Lookups answered from the memo so far.
    #[cfg(test)]
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Recorded bodies.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.tier.len()
    }

    /// Stores `(op, body)` → `digest` under the key of `(key_op,
    /// key_body)`: a planted key collision.
    #[cfg(test)]
    pub(crate) fn plant(
        &self,
        (key_op, key_body): (CacheOp, &[u8]),
        (op, body): (CacheOp, &[u8]),
        digest: Digest,
    ) {
        self.insert(Self::key(key_op, key_body), op, body, digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(tag: &str) -> Digest {
        Digest::of_bytes(tag.as_bytes())
    }

    #[test]
    fn a_recorded_body_is_found_only_under_its_op_and_exact_bytes() {
        let memo = BodyMemo::new();
        let body = br#"{"model":"resnet18"}"#;
        assert_eq!(memo.lookup(CacheOp::Evaluate, body), None);
        memo.remember(CacheOp::Evaluate, body, digest("d"));
        assert_eq!(memo.lookup(CacheOp::Evaluate, body), Some(digest("d")));
        assert_eq!(memo.lookup(CacheOp::Search, body), None);
        assert_eq!(
            memo.lookup(CacheOp::Evaluate, br#"{"model": "resnet18"}"#),
            None
        );
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn the_memo_stays_within_its_entry_and_byte_caps() {
        let memo = BodyMemo::new();
        for i in 0..MEMO_ENTRIES + 100 {
            let body = format!(r#"{{"model":"resnet18","seed":{i}}}"#);
            memo.remember(CacheOp::Evaluate, body.as_bytes(), digest(&body));
        }
        assert_eq!(memo.len(), MEMO_ENTRIES);
        assert!(memo.tier.bytes() <= MEMO_BYTES);
        // The newest bodies survive, the oldest were evicted.
        let newest = format!(r#"{{"model":"resnet18","seed":{}}}"#, MEMO_ENTRIES + 99);
        assert!(memo.lookup(CacheOp::Evaluate, newest.as_bytes()).is_some());
        assert!(memo
            .lookup(CacheOp::Evaluate, br#"{"model":"resnet18","seed":0}"#)
            .is_none());

        // Long bodies: the byte cap binds before the entry cap.
        let padded = |i: usize| format!(r#"{{"model":"resnet18","seed":{i:0>4000}}}"#);
        for i in 0..MEMO_ENTRIES {
            let body = padded(i);
            memo.remember(CacheOp::Evaluate, body.as_bytes(), digest(&body));
        }
        assert!(memo.tier.bytes() <= MEMO_BYTES);
        assert!(memo.len() <= (MEMO_BYTES / 4000) as usize);
        // A body longer than the byte cap is never recorded.
        let huge = vec![b' '; MEMO_BYTES as usize + 1];
        memo.remember(CacheOp::Evaluate, &huge, digest("huge"));
        assert_eq!(memo.lookup(CacheOp::Evaluate, &huge), None);
        assert!(memo.tier.bytes() <= MEMO_BYTES);
    }
}
