//! The disk tier: one checksummed file per entry, atomic writes, verified
//! reads, quarantine instead of errors.
//!
//! Layout: `<root>/<op>/<digest>` where `<digest>` is the entry key's
//! 32-hex-char form.  Each file is a fixed 48-byte header followed by the
//! codec payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"BWS1"
//!      4     4  format version (u32 LE) — 2
//!      8    16  entry digest (u128 LE) — must match the file name / lookup
//!     24     8  payload length (u64 LE)
//!     32    16  payload checksum (u128 LE) — see [`payload_checksum`]
//!     48     …  payload
//! ```
//!
//! The payload checksum is word-parallel: four independent `u64` lanes
//! each absorb one little-endian word of every 32-byte stripe (the last
//! stripe zero-padded), and the lanes are folded with the payload length
//! into 128 bits.  Each lane step is a bijection of the lane for a fixed
//! word, so any change confined to one lane — every single-bit flip — is
//! always detected.  Format 1 used FNV-1a/128, one 128-bit multiply per
//! byte in a serial chain; its entries now fail the version check and are
//! recomputed like any other miss.
//!
//! Writes go to a temp file in the same directory and are published with an
//! atomic rename, so readers never observe a half-written entry.  Reads
//! verify everything; any mismatch (bad magic, foreign version, truncation,
//! checksum failure, aliased digest) **quarantines** the file under
//! `<op>/quarantine/` and reports a miss — corruption is never an error and
//! never panics.

use bitwave_core::digest::Digest;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: [u8; 4] = *b"BWS1";
/// On-disk format version; entries written by a different version are
/// quarantined as misses, never decoded.
pub const FORMAT_VERSION: u32 = 2;
const HEADER_LEN: usize = 48;
/// Subdirectory corrupt entries are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Initial lane states of [`payload_checksum`] (the first 256 bits of π's
/// fractional part).  Part of the on-disk format.
const CHECKSUM_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// Odd multiplier of the lane step (odd, so multiplying is a bijection).
const CHECKSUM_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Bytes absorbed per step: one `u64` word per lane.
const STRIPE: usize = 32;

/// One lane step: a bijection of `lane` for a fixed `word` (xor, odd
/// multiply and xorshift each invert).
fn absorb(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(CHECKSUM_MUL);
    x ^ (x >> 29)
}

/// Feeds one 32-byte stripe to the four lanes, word `i` to lane `i`.
fn absorb_stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        *lane = absorb(*lane, word);
    }
}

/// The murmur3 64-bit finaliser, a bijection with full avalanche.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The 128-bit payload checksum stored at header bytes 32..48 of a
/// format-[`FORMAT_VERSION`] entry.
///
/// Four `u64` lanes absorb the payload in 32-byte stripes (the tail
/// zero-padded to a full stripe), so the four multiply chains run in
/// parallel instead of one 128-bit multiply per byte.  The lanes and the
/// payload length are then folded into 128 bits: lanes 0 and 2 into the
/// low half, lanes 1 and 3 into the high half, each through a bijective
/// finaliser, followed by two Feistel rounds across the halves.  Every
/// step is a bijection of the state a single lane feeds, so a change
/// confined to one lane (any single-bit flip) always changes the result.
///
/// The value is part of the on-disk format: changing it requires a
/// [`FORMAT_VERSION`] bump.  It is an error-detecting checksum, not a
/// content digest — request keys stay FNV-1a/128
/// ([`bitwave_core::digest::Digest`]).
pub fn payload_checksum(payload: &[u8]) -> u128 {
    let mut lanes = CHECKSUM_SEEDS;
    let stripes = payload.chunks_exact(STRIPE);
    let tail = stripes.remainder();
    for stripe in stripes {
        absorb_stripe(&mut lanes, stripe);
    }
    if !tail.is_empty() {
        let mut padded = [0u8; STRIPE];
        padded[..tail.len()].copy_from_slice(tail);
        absorb_stripe(&mut lanes, &padded);
    }
    let len = payload.len() as u64;
    let mut lo = avalanche(lanes[0] ^ lanes[2].rotate_left(32) ^ len);
    let mut hi = avalanche(lanes[1] ^ lanes[3].rotate_left(32) ^ len.rotate_left(32));
    hi ^= avalanche(lo);
    lo ^= avalanche(hi);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Why a disk read missed (all treated identically by the store; the
/// distinction feeds quarantine accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskMiss {
    /// No file for the digest.
    Absent,
    /// The file existed but failed verification and was quarantined.
    Quarantined,
}

/// One op's disk tier.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    max_bytes: u64,
    entries: AtomicU64,
    bytes: AtomicU64,
}

/// Temp-file sequence shared by every tier handle in the process.  Two
/// handles opened on the *same* directory (e.g. sweep workers sharing one
/// store root) would otherwise generate colliding `.tmp-<pid>-<n>` names,
/// truncate each other's in-flight temp files and publish one key's
/// filename with another key's payload.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Orphaned temp files younger than this are left alone at open: they may
/// be a live writer's in-flight entry in a directory shared across handles
/// or processes.  Real orphans (crashed writers) age past it and get swept
/// by the next open.
const TMP_SWEEP_MIN_AGE: std::time::Duration = std::time::Duration::from_secs(60);

impl DiskTier {
    /// Opens (creating if needed) the tier at `<root>/<op>` and scans it to
    /// initialize the entry/byte gauges.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/scan failures — opening is the one
    /// fallible disk operation; reads and writes after it never error.
    pub fn open(root: &Path, op: &str, max_bytes: u64) -> io::Result<Self> {
        let dir = root.join(op);
        fs::create_dir_all(&dir)?;
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            // Sweep temp files orphaned by a crash mid-write — they were
            // never published (the rename didn't happen), so they are dead
            // weight no gauge or cap would otherwise see.  Only aged ones:
            // a young temp may belong to a live writer in a directory
            // shared with other handles or processes.
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(".tmp-"))
            {
                let aged = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mtime| mtime.elapsed().ok())
                    .is_some_and(|age| age >= TMP_SWEEP_MIN_AGE);
                if aged {
                    let _ = fs::remove_file(entry.path());
                }
                continue;
            }
            if !Self::is_entry_name(&entry.file_name()) {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    entries += 1;
                    bytes += meta.len();
                }
            }
        }
        Ok(Self {
            dir,
            max_bytes,
            entries: AtomicU64::new(entries),
            bytes: AtomicU64::new(bytes),
        })
    }

    fn is_entry_name(name: &std::ffi::OsStr) -> bool {
        name.to_str()
            .is_some_and(|n| n.len() == 32 && n.bytes().all(|b| b.is_ascii_hexdigit()))
    }

    /// The tier's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entry-count gauge.
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// Byte gauge (headers included).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: Digest) -> PathBuf {
        self.dir.join(key.to_hex())
    }

    /// Whether an entry file exists for `key` — a single `stat`, no read,
    /// no verification.  A poll loop can use this to skip opening and
    /// checksumming files it has already decided it does not need yet; a
    /// `true` may still turn into a verified-read miss (quarantine) later.
    pub fn contains(&self, key: Digest) -> bool {
        fs::metadata(self.entry_path(key))
            .map(|m| m.is_file())
            .unwrap_or(false)
    }

    /// Reads and fully verifies the entry for `key`.  Any failure short of
    /// "file absent" quarantines the file; the caller only ever sees a
    /// payload or a miss.
    pub fn read(&self, key: Digest) -> Result<Vec<u8>, DiskMiss> {
        let path = self.entry_path(key);
        let mut file = match fs::File::open(&path) {
            Ok(file) => file,
            Err(_) => return Err(DiskMiss::Absent),
        };
        let mut raw = Vec::new();
        if file.read_to_end(&mut raw).is_err() {
            drop(file);
            self.quarantine(key);
            return Err(DiskMiss::Quarantined);
        }
        drop(file);
        match Self::verify(key, &raw) {
            Some(payload_start) => {
                // Drop the header in place: no second payload-sized buffer.
                raw.drain(..payload_start);
                Ok(raw)
            }
            None => {
                self.quarantine(key);
                Err(DiskMiss::Quarantined)
            }
        }
    }

    /// Verifies header + checksum; returns the payload offset when valid.
    fn verify(key: Digest, raw: &[u8]) -> Option<usize> {
        if raw.len() < HEADER_LEN || raw[0..4] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(raw[4..8].try_into().ok()?);
        if version != FORMAT_VERSION {
            return None;
        }
        let digest = u128::from_le_bytes(raw[8..24].try_into().ok()?);
        if digest != key.raw() {
            return None;
        }
        let len = u64::from_le_bytes(raw[24..32].try_into().ok()?);
        let payload = &raw[HEADER_LEN..];
        if payload.len() as u64 != len {
            return None;
        }
        let checksum = u128::from_le_bytes(raw[32..48].try_into().ok()?);
        if payload_checksum(payload) != checksum {
            return None;
        }
        Some(HEADER_LEN)
    }

    /// Writes the entry for `key` atomically (temp file + rename).
    /// Best-effort: returns `false` on any I/O failure — the store keeps
    /// serving the value from memory either way.  An already-present entry
    /// is left untouched (content-addressed: same digest, same bytes).
    pub fn write(&self, key: Digest, payload: &[u8]) -> bool {
        let path = self.entry_path(key);
        if path.exists() {
            return true;
        }
        let total = (HEADER_LEN + payload.len()) as u64;
        if self.max_bytes > 0 {
            self.make_room(total);
        }
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let written = (|| -> io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
            file.write_all(&key.raw().to_le_bytes())?;
            file.write_all(&(payload.len() as u64).to_le_bytes())?;
            file.write_all(&payload_checksum(payload).to_le_bytes())?;
            file.write_all(payload)?;
            file.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        match written {
            Ok(()) => {
                self.entries.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(total, Ordering::Relaxed);
                true
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                false
            }
        }
    }

    /// Deletes oldest-modified entries until `incoming` bytes fit under the
    /// byte cap.
    fn make_room(&self, incoming: u64) {
        let budget = self.max_bytes.saturating_sub(incoming);
        if self.bytes() <= budget {
            return;
        }
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut candidates: Vec<(std::time::SystemTime, PathBuf, u64)> = dir
            .flatten()
            .filter(|e| Self::is_entry_name(&e.file_name()))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, e.path(), meta.len()))
            })
            .collect();
        candidates.sort_by_key(|candidate| candidate.0);
        for (_, path, len) in candidates {
            if self.bytes() <= budget {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                Self::saturating_sub(&self.entries, 1);
                Self::saturating_sub(&self.bytes, len);
            }
        }
    }

    /// Gauge decrement that can never wrap: concurrent removals of one
    /// entry (e.g. two racing quarantines) saturate at zero instead of
    /// underflowing to ~`u64::MAX` and poisoning the byte-cap arithmetic.
    fn saturating_sub(counter: &AtomicU64, delta: u64) {
        let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(delta))
        });
    }

    /// Largest number of files kept for forensics in `<op>/quarantine/`;
    /// beyond it, corrupt entries are deleted outright so sustained
    /// corruption cannot grow disk usage without bound (the quarantine
    /// directory sits outside the `disk_bytes` cap).
    const QUARANTINE_CAP: usize = 64;

    /// Moves the entry for `key` into the quarantine subdirectory (deleting
    /// instead once the quarantine holds `QUARANTINE_CAP` files, or
    /// when the rename fails).  Re-quarantining a digest overwrites its
    /// previous quarantined copy.
    pub fn quarantine(&self, key: Digest) {
        let path = self.entry_path(key);
        let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let quarantine_dir = self.dir.join(QUARANTINE_DIR);
        let quarantine_full = fs::read_dir(&quarantine_dir)
            .map(|entries| entries.count() >= Self::QUARANTINE_CAP)
            .unwrap_or(false);
        let removed = (!quarantine_full
            && fs::create_dir_all(&quarantine_dir)
                .and_then(|()| fs::rename(&path, quarantine_dir.join(key.to_hex())))
                .is_ok())
            || fs::remove_file(&path).is_ok();
        // Only the caller that actually moved/deleted the file adjusts the
        // gauges, so two racing quarantines of one entry decrement once.
        if removed {
            Self::saturating_sub(&self.entries, 1);
            Self::saturating_sub(&self.bytes, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("bitwave-store-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    /// The known-answer payload of `len` bytes: a fixed byte pattern that
    /// exercises every lane and the zero-padded tail.
    fn kat_payload(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    /// Pins the format-2 checksum: a change to any of these values changes
    /// what is on disk and must come with a [`FORMAT_VERSION`] bump.
    #[test]
    fn payload_checksum_known_answers() {
        let known: [(usize, u128); 6] = [
            (0, 0x2466_5319_dfce_517a_986a_7acd_ce3a_45bc),
            (1, 0x58b1_8717_0764_06bf_3296_f30f_6c26_b066),
            (31, 0xae2c_1919_b76e_fce3_5b21_2130_0922_7b17),
            (32, 0x9c15_8720_fbad_375a_0c3b_ea3d_7144_9923),
            (33, 0x7907_fb1f_4f9e_7513_d965_2cdb_8bac_1c4c),
            (20_480, 0x7be0_d166_fef7_dbe5_21b2_3145_cad3_5740),
        ];
        for (len, expected) in known {
            assert_eq!(
                payload_checksum(&kat_payload(len)),
                expected,
                "checksum of the {len}-byte known-answer payload"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let payload = kat_payload(100);
        let clean = payload_checksum(&payload);
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(payload_checksum(&flipped), clean, "flip of bit {bit}");
        }
    }

    #[test]
    fn every_truncation_changes_the_checksum() {
        let payload = kat_payload(100);
        let clean = payload_checksum(&payload);
        for keep in 0..payload.len() {
            assert_ne!(
                payload_checksum(&payload[..keep]),
                clean,
                "truncation to {keep} bytes"
            );
        }
        // A zero-padded tail is not mistaken for a longer zero-filled one.
        let mut zero_extended = payload.clone();
        zero_extended.extend_from_slice(&[0; 4]);
        assert_ne!(payload_checksum(&zero_extended), clean);
    }

    #[test]
    fn write_then_read_roundtrips_and_tracks_gauges() {
        let root = temp_root("roundtrip");
        let tier = DiskTier::open(&root, "evaluate", 0).unwrap();
        let key = Digest::of_bytes(b"entry");
        assert_eq!(tier.read(key), Err(DiskMiss::Absent));
        assert!(tier.write(key, b"payload-bytes"));
        assert_eq!(tier.read(key).unwrap(), b"payload-bytes");
        assert_eq!(tier.entries(), 1);
        assert_eq!(tier.bytes(), 48 + 13);
        // Reopening rescans the gauges.
        let reopened = DiskTier::open(&root, "evaluate", 0).unwrap();
        assert_eq!(reopened.entries(), 1);
        assert_eq!(reopened.bytes(), 48 + 13);
        assert_eq!(reopened.read(key).unwrap(), b"payload-bytes");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_quarantined_misses() {
        let root = temp_root("corrupt");
        let tier = DiskTier::open(&root, "op", 0).unwrap();
        let key = Digest::of_bytes(b"damaged");
        assert!(tier.write(key, b"the payload"));
        // Flip one payload byte on disk.
        let path = tier.dir().join(key.to_hex());
        let mut raw = fs::read(&path).unwrap();
        *raw.last_mut().unwrap() ^= 0xff;
        fs::write(&path, &raw).unwrap();
        assert_eq!(tier.read(key), Err(DiskMiss::Quarantined));
        assert!(!path.exists(), "corrupt entry must leave the live dir");
        assert!(tier.dir().join(QUARANTINE_DIR).join(key.to_hex()).exists());
        assert_eq!(tier.entries(), 0);
        // A rewrite repopulates the slot.
        assert!(tier.write(key, b"the payload"));
        assert_eq!(tier.read(key).unwrap(), b"the payload");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_and_version_mismatched_entries_miss() {
        let root = temp_root("truncated");
        let tier = DiskTier::open(&root, "op", 0).unwrap();
        let key = Digest::of_bytes(b"short");
        assert!(tier.write(key, b"0123456789"));
        let path = tier.dir().join(key.to_hex());
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        assert_eq!(tier.read(key), Err(DiskMiss::Quarantined));

        let key2 = Digest::of_bytes(b"versioned");
        assert!(tier.write(key2, b"vv"));
        let path2 = tier.dir().join(key2.to_hex());
        let mut raw2 = fs::read(&path2).unwrap();
        raw2[4] ^= 0x01; // foreign format version
        fs::write(&path2, &raw2).unwrap();
        assert_eq!(tier.read(key2), Err(DiskMiss::Quarantined));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn an_entry_aliased_under_the_wrong_digest_misses() {
        let root = temp_root("aliased");
        let tier = DiskTier::open(&root, "op", 0).unwrap();
        let key = Digest::of_bytes(b"original");
        let other = Digest::of_bytes(b"other");
        assert!(tier.write(key, b"data"));
        // Copy the valid file under a different digest's name.
        fs::copy(
            tier.dir().join(key.to_hex()),
            tier.dir().join(other.to_hex()),
        )
        .unwrap();
        assert_eq!(tier.read(other), Err(DiskMiss::Quarantined));
        assert_eq!(tier.read(key).unwrap(), b"data");
        let _ = fs::remove_dir_all(&root);
    }

    /// Two handles on the *same* directory (sweep workers sharing a store
    /// root) must never truncate each other's in-flight temp files: every
    /// published entry reads back valid under its own key and nothing is
    /// quarantined.  Before the process-wide temp counter, both handles
    /// named temps `.tmp-<pid>-0`, `.tmp-<pid>-1`, … and concurrent writes
    /// aliased one key's filename with another key's payload.
    #[test]
    fn concurrent_handles_on_one_directory_never_alias_entries() {
        let root = temp_root("shared-handles");
        let writers: Vec<_> = (0..2)
            .map(|handle| {
                let root = root.clone();
                std::thread::spawn(move || {
                    let tier = DiskTier::open(&root, "op", 0).unwrap();
                    for i in 0..200 {
                        let key = Digest::of_bytes(format!("h{handle}-k{i}").as_bytes());
                        assert!(tier.write(key, format!("h{handle}-payload-{i}").as_bytes()));
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        let tier = DiskTier::open(&root, "op", 0).unwrap();
        for handle in 0..2 {
            for i in 0..200 {
                let key = Digest::of_bytes(format!("h{handle}-k{i}").as_bytes());
                assert_eq!(
                    tier.read(key).unwrap(),
                    format!("h{handle}-payload-{i}").as_bytes(),
                    "entry h{handle}-k{i} must read back under its own key"
                );
            }
        }
        assert!(
            !tier.dir().join(QUARANTINE_DIR).exists(),
            "no cross-written entries may be quarantined"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_cap_evicts_oldest_entries_first() {
        let root = temp_root("cap");
        // Each entry is 48 + 10 bytes; cap to roughly three entries.
        let tier = DiskTier::open(&root, "op", 3 * 58 + 10).unwrap();
        let keys: Vec<Digest> = (0..5)
            .map(|i| Digest::of_bytes(format!("entry-{i}").as_bytes()))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            assert!(tier.write(*key, format!("payload-{i:02}").as_bytes()));
            // Distinct mtimes so eviction order is deterministic.
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        assert!(
            tier.bytes() <= 3 * 58 + 10,
            "cap must hold: {}",
            tier.bytes()
        );
        assert_eq!(tier.read(keys[0]), Err(DiskMiss::Absent), "oldest evicted");
        assert!(tier.read(keys[4]).is_ok(), "newest survives");
        let _ = fs::remove_dir_all(&root);
    }
}
