//! Property tests for the disk tier: arbitrary values round-trip
//! byte-identically across reopen, and arbitrary corruption (byte flips,
//! truncation) is a miss that recomputes — never a panic or an error
//! surfaced to the caller.  Entries of an earlier on-disk format are
//! quarantined and recomputed, never served.

use bitwave_core::digest::{fnv1a128, Digest};
use bitwave_store::{
    StoreConfig, StoreOutcome, StringCodec, TieredStore, FORMAT_VERSION, QUARANTINE_DIR,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique store root per drawn case (cases of one test run sequentially,
/// but distinct tests run in parallel threads).
fn temp_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "bitwave-store-prop-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Arbitrary printable payloads of assorted sizes (including empty).
fn payload_from(chars: &[u8]) -> String {
    chars
        .iter()
        .map(|&b| char::from(b'\x20' + (b % 95)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_values_roundtrip_across_reopen_byte_identically(
        raw_payloads in vec(vec(0u8..=255, 0..512), 1..8),
        seed in 0u64..u64::MAX,
    ) {
        let root = temp_root("roundtrip");
        let config = StoreConfig::default().with_root(&root).with_mem_entries(64);
        let entries: Vec<(Digest, String)> = raw_payloads
            .iter()
            .enumerate()
            .map(|(i, raw)| {
                let key = Digest::of_bytes(format!("k-{seed}-{i}").as_bytes());
                (key, payload_from(raw))
            })
            .collect();

        {
            let store = TieredStore::<StringCodec>::new("prop", &config).unwrap();
            for (key, payload) in &entries {
                let (stored, outcome) = store
                    .get_or_compute(*key, || Ok::<_, String>(payload.clone()), |e| e)
                    .unwrap();
                prop_assert_eq!(outcome, StoreOutcome::Miss);
                prop_assert_eq!(&*stored, payload);
            }
        }

        // Reopen (fresh process) and read every entry back byte-identically.
        let reopened = TieredStore::<StringCodec>::new("prop", &config).unwrap();
        prop_assert_eq!(reopened.disk_entries(), entries.len() as u64);
        for (key, payload) in &entries {
            let (replayed, outcome) = reopened
                .get_or_compute(*key, || panic!("must replay from disk"), |e: String| e)
                .unwrap();
            prop_assert_eq!(outcome, StoreOutcome::Disk);
            prop_assert_eq!(&*replayed, payload, "disk replay must be byte-identical");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn arbitrary_corruption_is_a_miss_that_recomputes(
        raw_payload in vec(0u8..=255, 1..256),
        flip_offset in 0usize..4096,
        flip_mask in 1u8..=255,
    ) {
        let root = temp_root("flip");
        let config = StoreConfig::default().with_root(&root);
        let payload = payload_from(&raw_payload);
        let key = Digest::of_bytes(b"corruptible");
        let store = TieredStore::<StringCodec>::new("prop", &config).unwrap();
        store
            .get_or_compute(key, || Ok::<_, String>(payload.clone()), |e| e)
            .unwrap();

        // Flip one byte anywhere in the file (header or payload).
        let path = root.join("prop").join(key.to_hex());
        let mut raw = std::fs::read(&path).unwrap();
        let at = flip_offset % raw.len();
        raw[at] ^= flip_mask;
        std::fs::write(&path, &raw).unwrap();

        store.clear_memory();
        let (value, outcome) = store
            .get_or_compute(key, || Ok::<_, String>(payload.clone()), |e| e)
            .unwrap();
        prop_assert_eq!(outcome, StoreOutcome::Miss, "corruption must be a silent miss");
        prop_assert_eq!(&*value, &payload);
        prop_assert_eq!(store.stats().quarantined(), 1);
        // The recompute rewrote a valid entry; a restart replays it.
        store.clear_memory();
        let (_, outcome) = store
            .get_or_compute(key, || panic!("rewritten"), |e: String| e)
            .unwrap();
        prop_assert_eq!(outcome, StoreOutcome::Disk);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn arbitrary_truncation_is_a_miss_that_recomputes(
        raw_payload in vec(0u8..=255, 1..256),
        keep_fraction in 0usize..100,
    ) {
        let root = temp_root("truncate");
        let config = StoreConfig::default().with_root(&root);
        let payload = payload_from(&raw_payload);
        let key = Digest::of_bytes(b"truncatable");
        let store = TieredStore::<StringCodec>::new("prop", &config).unwrap();
        store
            .get_or_compute(key, || Ok::<_, String>(payload.clone()), |e| e)
            .unwrap();

        let path = root.join("prop").join(key.to_hex());
        let raw = std::fs::read(&path).unwrap();
        let keep = raw.len() * keep_fraction / 100;
        std::fs::write(&path, &raw[..keep]).unwrap();

        store.clear_memory();
        let (value, outcome) = store
            .get_or_compute(key, || Ok::<_, String>(payload.clone()), |e| e)
            .unwrap();
        prop_assert_eq!(outcome, StoreOutcome::Miss, "truncation must be a silent miss");
        prop_assert_eq!(&*value, &payload);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A format-1 entry (same header layout, FNV-1a/128 payload checksum) left
/// by an older build is a quarantined miss: the value is recomputed and
/// rewritten in the current format, which then replays from disk.
#[test]
fn a_format_1_entry_is_quarantined_and_recomputed() {
    let root = temp_root("format1");
    let config = StoreConfig::default().with_root(&root);
    let key = Digest::of_bytes(b"written-by-format-1");
    let payload = "a report cached before the checksum changed";

    let mut entry = Vec::new();
    entry.extend_from_slice(b"BWS1");
    entry.extend_from_slice(&1u32.to_le_bytes());
    entry.extend_from_slice(&key.raw().to_le_bytes());
    entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    entry.extend_from_slice(&fnv1a128(payload.as_bytes()).to_le_bytes());
    entry.extend_from_slice(payload.as_bytes());
    let dir = root.join("prop");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(key.to_hex()), &entry).unwrap();

    let store = TieredStore::<StringCodec>::new("prop", &config).unwrap();
    assert_eq!(store.disk_entries(), 1);
    let (value, outcome) = store
        .get_or_compute(key, || Ok::<_, String>(payload.to_string()), |e| e)
        .unwrap();
    assert_eq!(
        outcome,
        StoreOutcome::Miss,
        "a format-1 entry is never served"
    );
    assert_eq!(&*value, payload);
    assert_eq!(store.stats().quarantined(), 1);
    assert!(dir.join(QUARANTINE_DIR).join(key.to_hex()).exists());

    store.clear_memory();
    let (replayed, outcome) = store
        .get_or_compute(key, || panic!("the rewritten entry replays"), |e: String| e)
        .unwrap();
    assert_eq!(outcome, StoreOutcome::Disk);
    assert_eq!(&*replayed, payload);
    let rewritten = std::fs::read(dir.join(key.to_hex())).unwrap();
    assert_eq!(
        rewritten[4..8],
        FORMAT_VERSION.to_le_bytes(),
        "the recompute rewrote the entry in the current format"
    );
    let _ = std::fs::remove_dir_all(&root);
}
