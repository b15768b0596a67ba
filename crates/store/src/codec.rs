//! Value codecs: how stored values become bytes and come back.
//!
//! A [`crate::TieredStore`] serializes each value **once** on the cold path;
//! the encoded bytes drive the memory tier's byte accounting and the disk
//! tier's payload, so a value read back from either tier replays
//! byte-identically.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::marker::PhantomData;

/// A codec failure (encode or decode).  Decode failures on the disk path are
/// treated as cache misses, never surfaced to callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    /// Creates an error with a message.
    pub fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Serializes store values to bytes and replays them byte-identically.
pub trait StoreCodec: Send + Sync + 'static {
    /// The stored value type.
    type Value: Send + Sync + 'static;

    /// Encodes a value to its canonical byte form.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the value cannot be serialized.
    fn encode(value: &Self::Value) -> Result<Vec<u8>, CodecError>;

    /// Decodes a value from bytes previously produced by
    /// [`StoreCodec::encode`].  Takes the verified payload by value, so a
    /// codec whose value owns its bytes (e.g. [`StringCodec`]) reuses the
    /// buffer instead of copying it.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for malformed bytes; the store treats this as
    /// a miss and quarantines the entry.
    fn decode(bytes: Vec<u8>) -> Result<Self::Value, CodecError>;

    /// Byte weight of a value for memory-tier accounting.  The default
    /// materializes the encoded form and measures it; codecs whose encoded
    /// size is knowable without copying (e.g. [`StringCodec`]) override it,
    /// so memory-only stores never pay the encode just to weigh a value.
    fn byte_weight(value: &Self::Value) -> u64 {
        Self::encode(value).map_or(0, |bytes| bytes.len() as u64)
    }
}

/// Identity codec for already-serialized string payloads (e.g. the serve
/// tier's JSON response bodies): encode is a byte copy, decode validates
/// UTF-8 in place and keeps the payload buffer.  Replays are trivially
/// byte-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct StringCodec;

impl StoreCodec for StringCodec {
    type Value = String;

    fn encode(value: &String) -> Result<Vec<u8>, CodecError> {
        Ok(value.as_bytes().to_vec())
    }

    fn decode(bytes: Vec<u8>) -> Result<String, CodecError> {
        String::from_utf8(bytes)
            .map_err(|e| CodecError::new(format!("invalid UTF-8 payload: {}", e.utf8_error())))
    }

    fn byte_weight(value: &String) -> u64 {
        value.len() as u64
    }
}

/// JSON codec for any serde value.  The vendored serde preserves struct
/// field order and renders floats with their shortest round-trip
/// representation, so `encode(decode(bytes)) == bytes` for bytes this codec
/// produced — decoded values re-serialize byte-identically.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonCodec<T>(PhantomData<T>);

impl<T> StoreCodec for JsonCodec<T>
where
    T: Serialize + Deserialize + Send + Sync + 'static,
{
    type Value = T;

    fn encode(value: &T) -> Result<Vec<u8>, CodecError> {
        serde_json::to_string(value)
            .map(String::into_bytes)
            .map_err(|e| CodecError::new(e.to_string()))
    }

    fn decode(bytes: Vec<u8>) -> Result<T, CodecError> {
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| CodecError::new(format!("invalid UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| CodecError::new(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_codec_roundtrips_and_rejects_bad_utf8() {
        let encoded = StringCodec::encode(&"{\"a\":1}".to_string()).unwrap();
        assert_eq!(StringCodec::decode(encoded).unwrap(), "{\"a\":1}");
        assert!(StringCodec::decode(vec![0xff, 0xfe]).is_err());
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Probe {
        name: String,
        ratio: f64,
        count: usize,
    }

    #[test]
    fn json_codec_roundtrips_byte_identically() {
        let probe = Probe {
            name: "conv1".to_string(),
            ratio: 2.875,
            count: 21,
        };
        let encoded = JsonCodec::<Probe>::encode(&probe).unwrap();
        let decoded = JsonCodec::<Probe>::decode(encoded.clone()).unwrap();
        assert_eq!(decoded, probe);
        let re_encoded = JsonCodec::<Probe>::encode(&decoded).unwrap();
        assert_eq!(
            re_encoded, encoded,
            "decoded values must replay byte-identically"
        );
        assert!(JsonCodec::<Probe>::decode(b"{not json".to_vec()).is_err());
    }
}
