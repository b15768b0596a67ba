//! # bitwave-store
//!
//! A **tiered, persistent, content-addressed store** — the one caching
//! substrate behind the serve tier's report cache, its shared weight store
//! and the sweep's result ledger.
//!
//! * [`memory::MemoryTier`] — a sharded LRU of `Arc`-shared values with
//!   byte-size accounting and **single-flight** computation coalescing
//!   (concurrent lookups of one key run the computation once).  Usable on
//!   its own for values that should never touch disk (the weight store:
//!   weights are cheap to regenerate and big on disk).
//! * [`disk::DiskTier`] — one file per entry at `<root>/<op>/<digest>`
//!   with a versioned header, length and word-parallel 128-bit payload
//!   checksum ([`disk::payload_checksum`]); atomic write-via-rename; fully
//!   verified reads.  Corrupt, truncated or version-mismatched entries are
//!   **quarantined and treated as misses — never errors**.
//! * [`TieredStore`] — memory over optional disk, glued by a
//!   [`codec::StoreCodec`] that serializes each value **once** to bytes,
//!   so replays from either tier are byte-identical.
//! * [`config::StoreConfig`] — root directory and per-tier capacities;
//!   persistence is **off by default**, so a default-configured store is
//!   indistinguishable from the bounded in-memory caches it replaced.
//! * [`claim::ClaimLedger`] — a TTL-expiring cross-process work-claim
//!   ledger (`create_new` claim files) that turns a shared store root into
//!   a work-stealing queue for sharded sweeps.
//!
//! ```
//! use bitwave_core::digest::Digest;
//! use bitwave_store::{StoreConfig, StoreOutcome, StringCodec, TieredStore};
//!
//! let root = std::env::temp_dir().join(format!("bitwave-store-doc-{}", std::process::id()));
//! let config = StoreConfig::default().with_root(&root);
//! let key = Digest::of_bytes(b"request");
//!
//! let store = TieredStore::<StringCodec>::new("evaluate", &config).unwrap();
//! let (body, outcome) = store
//!     .get_or_compute(key, || Ok::<_, String>("expensive report".to_string()), |e| e)
//!     .unwrap();
//! assert_eq!(outcome, StoreOutcome::Miss);
//!
//! // A fresh store over the same root — i.e. a restarted process — replays
//! // the entry from disk, byte-identically, without recomputing.
//! let restarted = TieredStore::<StringCodec>::new("evaluate", &config).unwrap();
//! let (replayed, outcome) = restarted
//!     .get_or_compute(key, || panic!("must not recompute"), |e: String| e)
//!     .unwrap();
//! assert_eq!(outcome, StoreOutcome::Disk);
//! assert_eq!(*replayed, *body);
//! # let _ = std::fs::remove_dir_all(&root);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claim;
pub mod codec;
pub mod config;
pub mod disk;
pub mod memory;
pub mod stats;
pub mod tiered;

pub use claim::{ClaimLedger, ClaimOutcome};
pub use codec::{CodecError, JsonCodec, StoreCodec, StringCodec};
pub use config::StoreConfig;
pub use disk::{DiskTier, FORMAT_VERSION, QUARANTINE_DIR};
pub use memory::{FillOrigin, MemoryTier, MemoryTierConfig, TryPeek};
pub use stats::{StoreOutcome, StoreStats};
pub use tiered::TieredStore;
