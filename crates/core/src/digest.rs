//! Stable content digests over serializable values.
//!
//! Several subsystems address computed artefacts by a digest of the inputs
//! that produced them: the evaluation service (`bitwave-serve`) caches
//! serialized `ModelReport`s under a digest of the normalised request, and
//! the dataflow design-space explorer (`bitwave-dse`) keys per-layer
//! search results with a digest of (layer shape, sparsity profile,
//! accelerator spec, search space).  The digest must be **stable** — the
//! same logical value always hashes to the same digest, across processes and
//! runs — so it cannot use [`std::hash::Hash`] (whose hasher is randomised
//! and whose byte layout is unspecified).  Instead a value is first rendered
//! to canonical compact JSON (the vendored serde preserves struct-field
//! declaration order, so the rendering is deterministic) and the JSON bytes
//! are hashed with FNV-1a/128.
//!
//! Digests are formatted as 32 lowercase hex characters, e.g.
//! `"5e1b40b4a3fe5bd0a35b1a2f2f9e5a6c"`.  The facade crate re-exports this
//! module as `bitwave::digest` together with the request-level key types.

use crate::error::CoreError;
use serde::Serialize;
use std::fmt;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a/128 over a byte slice.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut hash = FNV128_OFFSET;
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(FNV128_PRIME);
    }
    hash
}

/// A stable 128-bit content digest, displayed as 32 lowercase hex chars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(u128);

impl Digest {
    /// Digest of raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        Digest(fnv1a128(bytes))
    }

    /// Digest of a serializable value via its canonical compact JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] when the value fails to
    /// serialize.
    pub fn of_value<T: Serialize + ?Sized>(value: &T) -> Result<Self, CoreError> {
        let json = serde_json::to_string(value).map_err(|e| CoreError::Serialization {
            message: e.to_string(),
        })?;
        Ok(Self::of_bytes(json.as_bytes()))
    }

    /// Parses the 32-hex-char form back into a digest.  Returns `None` for
    /// anything that is not exactly 32 lowercase/uppercase hex characters.
    pub fn parse(text: &str) -> Option<Self> {
        if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(Digest)
    }

    /// The 32-lowercase-hex-char string form.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// The raw 128-bit value (e.g. for shard selection in content-addressed
    /// stores).
    pub fn raw(self) -> u128 {
        self.0
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_calls_and_formats() {
        let a = Digest::of_bytes(b"bitwave");
        let b = Digest::of_bytes(b"bitwave");
        assert_eq!(a, b);
        assert_ne!(a, Digest::of_bytes(b"bitwavf"));
        let hex = a.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Digest::parse(&hex), Some(a));
        assert_eq!(hex, a.to_string());
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a/128 of the empty input is the offset basis.
        assert_eq!(fnv1a128(b""), FNV128_OFFSET);
        // One-byte avalanche: 'a' XORed into the basis then multiplied once.
        let expected = (FNV128_OFFSET ^ u128::from(b'a')).wrapping_mul(FNV128_PRIME);
        assert_eq!(fnv1a128(b"a"), expected);
    }

    #[test]
    fn parse_rejects_malformed_digests() {
        assert!(Digest::parse("").is_none());
        assert!(Digest::parse("xyz").is_none());
        assert!(Digest::parse(&"0".repeat(31)).is_none());
        assert!(Digest::parse(&"g".repeat(32)).is_none());
        assert!(Digest::parse(&"0".repeat(33)).is_none());
    }

    #[test]
    fn value_digest_tracks_field_changes() {
        #[derive(Serialize)]
        struct Probe {
            a: u64,
            b: usize,
        }
        let x = Digest::of_value(&Probe { a: 42, b: 16 }).unwrap();
        let y = Digest::of_value(&Probe { a: 42, b: 16 }).unwrap();
        assert_eq!(x, y);
        let z = Digest::of_value(&Probe { a: 43, b: 16 }).unwrap();
        assert_ne!(x, z);
    }
}
