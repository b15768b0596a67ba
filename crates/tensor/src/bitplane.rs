//! Bitplane-packed weight representation — word-parallel sparsity kernels.
//!
//! The BitWave hardware never looks at weights value-by-value: its memory
//! words are 64-bit packed segments of *same-significance* bits (Fig. 10),
//! so a single word read delivers bit-column `b` of 64 consecutive weights.
//! This module applies the same layout to the simulator's analysis kernels.
//! A [`BitplaneTensor`] stores, for **both** encodings (two's complement and
//! sign-magnitude), eight `Vec<u64>` planes:
//!
//! ```text
//!            element index →  63 62 61 ............ 2  1  0
//! plane[7] (sign/MSB)  word0  s  s  s  ............ s  s  s
//! plane[6]             word0  m6 m6 m6 ............ m6 m6 m6
//!   ⋮                           ⋮
//! plane[0] (LSB)       word0  m0 m0 m0 ............ m0 m0 m0
//! ```
//!
//! Bit `i` of `plane[b][w]` is bit `b` of element `64*w + i` — identical to
//! the order [`crate::bits::pack_column`] produces.  With this layout every
//! analysis the paper performs collapses to word operations:
//!
//! * **bit sparsity** — `count_ones` over a plane;
//! * **value sparsity** — `count_ones` of the OR of all eight planes;
//! * **zero-column index** of a group — is the group's window of plane `b`
//!   zero?  (8 window tests instead of `G` encode+OR steps);
//! * **per-group non-zero column counts** — an OR-fold turns each aligned
//!   `G`-bit lane into a 0/1 indicator at the lane LSB, and adding the eight
//!   indicator words sums the counts of 16 (for `G = 4`) or more groups at
//!   once with plain `u64` addition (lane counts ≤ 8 never carry).
//!
//! **Tail masking.** A tensor whose length is not a multiple of 64 occupies
//! `len.div_ceil(64)` words; the bits of the final word at positions
//! `len % 64` and above are **always zero**.  Zero tail bits contribute
//! nothing to any popcount, OR-mask or indicator sum, so no kernel needs a
//! special tail path — the invariant is established once at packing time.
//!
//! Packing itself runs at word speed too: eight encoded bytes are loaded as
//! one `u64` and transposed with the classic 8×8 bit-matrix transpose
//! ([`transpose8`]), producing one byte of each of the eight planes per
//! step.  Only the two's-complement planes are transposed from bytes — the
//! sign-magnitude planes are then *derived* from them with a word-parallel
//! ripple-carry negation (64 encodes per plane word collapse to ~20 word
//! ops).
//!
//! In the pipeline, packing happens **once per layer** inside the compress
//! stage ([`Groups`]`::to_bitplanes` in `bitwave-core`).  The same pass
//! reduces every count the statistics, the BCS size accounting and the
//! accelerator sparsity profile read ([`PlaneCounts`]) while each plane word
//! is still in registers, with the lane fold at a compile-time width for
//! group sizes dividing 64; none of them walks the planes again.
//!
//! [`Groups`]: ../../bitwave_core/group/struct.Groups.html

use crate::bits::{Encoding, WORD_BITS};

/// Number of elements packed into one plane word.
pub const WORD_LEN: usize = 64;

/// Transposes a `u64` viewed as an 8×8 bit matrix (Hacker's Delight 7-3).
///
/// When `x` is built with [`u64::from_le_bytes`] from 8 encoded weight
/// bytes, byte `b` of the little-endian result holds bit `b` of each of the
/// 8 weights (LSB = first weight) — i.e. one byte of each bitplane.
#[inline]
pub fn transpose8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Transposes up to 64 encoded bytes into the 8 plane words they
/// contribute, accumulated in registers (one store per plane, not one
/// read-modify-write per 8-byte block).
#[inline]
fn transpose_block(bytes: &[u8; WORD_LEN]) -> [u64; WORD_BITS] {
    let mut acc = [0u64; WORD_BITS];
    for block in 0..WORD_LEN / WORD_BITS {
        let x = u64::from_le_bytes(
            bytes[block * 8..block * 8 + 8]
                .try_into()
                .expect("8-byte block"),
        );
        if x == 0 {
            continue;
        }
        let col_bytes = transpose8(x).to_le_bytes();
        for (b, lane) in acc.iter_mut().enumerate() {
            *lane |= u64::from(col_bytes[b]) << (block * 8);
        }
    }
    acc
}

/// Derives the sign-magnitude planes of 64 elements from their
/// two's-complement planes, entirely word-parallel — 64 encodes collapse to
/// a 7-step ripple-carry over the planes.
///
/// Per lane: non-negative values encode identically; a negative value `v`
/// becomes sign bit + magnitude `-v = !v + 1`, computed bitwise with the
/// sign plane doubling as both the lane-complement mask and the injected
/// `+1` carry.  The carry that survives bit 6 is set exactly for `v = -128`
/// lanes (every complemented magnitude bit was 1), which sign-magnitude
/// saturates to magnitude 127 — matching [`crate::sm::to_sign_magnitude`].
#[inline]
fn sm_planes_from_tc(tc: &[u64; WORD_BITS]) -> [u64; WORD_BITS] {
    let neg = tc[7];
    let mut sm = [0u64; WORD_BITS];
    let mut carry = neg;
    for b in 0..7 {
        let inverted = tc[b] ^ neg;
        sm[b] = inverted ^ carry;
        carry &= inverted;
    }
    for plane in &mut sm[..7] {
        *plane |= carry;
    }
    sm[7] = neg;
    sm
}

/// Extracts `width` bits of `plane` starting at absolute bit `start`,
/// right-aligned.  `start + width` must not exceed the packed bit length.
#[inline]
fn window(plane: &[u64], start: usize, width: usize) -> u64 {
    debug_assert!((1..=WORD_LEN).contains(&width));
    let word = start / WORD_LEN;
    let offset = start % WORD_LEN;
    let mut bits = plane[word] >> offset;
    let available = WORD_LEN - offset;
    if width > available {
        bits |= plane[word + 1] << available;
    }
    if width < WORD_LEN {
        bits &= (1u64 << width) - 1;
    }
    bits
}

/// Mask of one `g`-bit lane (`g` = 64: the whole word).
const fn lane_mask(g: usize) -> u64 {
    if g >= WORD_LEN {
        u64::MAX
    } else {
        (1 << g) - 1
    }
}

/// OR-folds each aligned `G`-bit lane of `word` into its lane LSB: the
/// result has the lane LSB set iff the lane held any `1` bit.  Exact for
/// every lane because the shift subset-sums cover `1..G` and never reach
/// `G`, so no bit crosses a lane boundary into a *lower* lane's LSB
/// position.  `G` must divide 64; the fold unrolls at compile time.
#[inline]
fn nonzero_segments<const G: usize>(word: u64) -> u64 {
    let mut x = word;
    let mut shift = G / 2;
    while shift > 0 {
        x |= x >> shift;
        shift /= 2;
    }
    // `u64::MAX / lane_mask(G)` has exactly the lane LSBs set.
    x & (u64::MAX / lane_mask(G))
}

/// Every count the per-layer analyses read off a [`BitplaneTensor`],
/// reduced in the same pass that packs the planes (see
/// [`BitplaneTensor::counts`]).  All counts are exact integers; the zero
/// tail bits contribute nothing to any of them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlaneCounts {
    /// Number of non-zero elements (an element is zero iff every
    /// two's-complement bit is zero, which holds iff its sign-magnitude
    /// encoding is zero too).
    pub nonzero_elements: u64,
    /// Set bits, indexed by [`slot`].
    ones: [u64; 2],
    /// Non-zero bit columns over all group windows, indexed by [`slot`].
    nonzero_columns: [u64; 2],
    /// Non-zero sign-magnitude bit columns of each group window (0..=8), in
    /// group order — the per-group cycle costs of the BCE array.
    pub group_columns: Vec<u32>,
}

/// Index of `encoding` in [`PlaneCounts`]' per-encoding arrays.
fn slot(encoding: Encoding) -> usize {
    match encoding {
        Encoding::TwosComplement => 0,
        Encoding::SignMagnitude => 1,
    }
}

impl PlaneCounts {
    /// Set bits over all elements under `encoding`.
    pub fn ones(&self, encoding: Encoding) -> u64 {
        self.ones[slot(encoding)]
    }

    /// Non-zero bit columns over all group windows under `encoding` — the
    /// quantity BCS payload sizing and column-sparsity statistics need.
    pub fn nonzero_columns(&self, encoding: Encoding) -> u64 {
        self.nonzero_columns[slot(encoding)]
    }

    /// Adds one plane word of 64 elements.  For `G` ≠ 0 (a lane width
    /// dividing 64, at least 4) it also adds the column counts: the eight
    /// sign-magnitude indicator words are summed with one `u64` addition
    /// each, so every `G`-bit lane accumulates its group's count (≤ 8,
    /// never carrying into a neighbour).  `G` = 0 leaves the columns to
    /// [`BitplaneTensor::count_window_columns`].
    #[inline]
    fn add_word<const G: usize>(
        &mut self,
        tc: &[u64; WORD_BITS],
        sm: &[u64; WORD_BITS],
        num_groups: usize,
    ) {
        let mut any = 0u64;
        let mut lanes = 0u64;
        for (&t, &s) in tc.iter().zip(sm) {
            any |= t;
            self.ones[0] += u64::from(t.count_ones());
            self.ones[1] += u64::from(s.count_ones());
            if G != 0 {
                let indicators = nonzero_segments::<G>(s);
                self.nonzero_columns[0] += u64::from(nonzero_segments::<G>(t).count_ones());
                self.nonzero_columns[1] += u64::from(indicators.count_ones());
                lanes += indicators;
            }
        }
        self.nonzero_elements += u64::from(any.count_ones());
        if let Some(per_word) = WORD_LEN.checked_div(G) {
            let take = per_word.min(num_groups - self.group_columns.len());
            self.group_columns
                .extend((0..take).map(|i| ((lanes >> (i * G)) & lane_mask(G)) as u32));
        }
    }
}

/// Bitplanes of a single weight group (≤ 64 elements): one `u64` per bit
/// column, both a standalone fast kernel (per-group column masks) and the
/// unit [`BitplaneTensor`] windows decompose into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupPlanes {
    planes: [u64; WORD_BITS],
    len: usize,
}

impl GroupPlanes {
    /// Packs a group of at most 64 values under `encoding`.
    ///
    /// # Panics
    ///
    /// Panics if `group.len() > 64` — a group must fit one plane word (the
    /// same limit as [`crate::bits::pack_column`]).
    pub fn pack(group: &[i8], encoding: Encoding) -> Self {
        assert!(
            group.len() <= WORD_LEN,
            "a packed group holds at most 64 weights"
        );
        let mut bytes = [0u8; WORD_LEN];
        for (slot, &value) in bytes.iter_mut().zip(group) {
            *slot = encoding.encode(value);
        }
        let mut planes = [0u64; WORD_BITS];
        for block in 0..group.len().div_ceil(WORD_BITS) {
            let x = u64::from_le_bytes(
                bytes[block * 8..block * 8 + 8]
                    .try_into()
                    .expect("8-byte block"),
            );
            if x == 0 {
                continue;
            }
            let col_bytes = transpose8(x).to_le_bytes();
            for (b, plane) in planes.iter_mut().enumerate() {
                *plane |= u64::from(col_bytes[b]) << (block * 8);
            }
        }
        Self {
            planes,
            len: group.len(),
        }
    }

    /// Builds group planes directly from already-windowed plane words.
    #[inline]
    fn from_words(planes: [u64; WORD_BITS], len: usize) -> Self {
        Self { planes, len }
    }

    /// Number of elements in the packed group.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the group holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed bit-column `bit` (LSB of the word = first element) —
    /// identical to [`crate::bits::pack_column`] on the original group.
    #[inline]
    pub fn plane(&self, bit: usize) -> u64 {
        self.planes[bit]
    }

    /// All eight packed bit-columns, LSB plane first.
    #[inline]
    pub fn planes(&self) -> &[u64; WORD_BITS] {
        &self.planes
    }

    /// The zero-column index of the group: bit `b` set iff column `b` is
    /// non-zero — identical to [`crate::bits::nonzero_column_mask`].
    #[inline]
    pub fn nonzero_column_mask(&self) -> u8 {
        let mut mask = 0u8;
        for (b, &plane) in self.planes.iter().enumerate() {
            if plane != 0 {
                mask |= 1 << b;
            }
        }
        mask
    }
}

/// A whole tensor's worth of bitplanes under **both** encodings, packed once
/// and shared by every analysis kernel (see the module docs for the layout
/// and the tail-masking invariant), together with the [`PlaneCounts`]
/// reduced while packing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitplaneTensor {
    len: usize,
    group_size: usize,
    tc: [Vec<u64>; WORD_BITS],
    sm: [Vec<u64>; WORD_BITS],
    counts: PlaneCounts,
}

impl BitplaneTensor {
    /// Packs `data` into bitplanes with group windows of `group_size`
    /// elements, reducing the [`PlaneCounts`] in the same pass.
    ///
    /// `data` is normally the padded backing store of an extracted `Groups`
    /// (every group zero-padded to `group_size`), so that group `i` occupies
    /// bits `i*group_size..(i+1)*group_size` of every plane.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= group_size <= 64`: a group window must fit one
    /// plane word, the same limit the scalar `pack_column` enforces.
    pub fn from_slice(data: &[i8], group_size: usize) -> Self {
        assert!(
            (1..=WORD_LEN).contains(&group_size),
            "bitplane group windows hold at most 64 weights (got {group_size})"
        );
        // Lane widths dividing 64 count columns word-parallel at a
        // compile-time width; the rest count them per group window.
        match group_size {
            4 => Self::pack::<4>(data, group_size),
            8 => Self::pack::<8>(data, group_size),
            16 => Self::pack::<16>(data, group_size),
            32 => Self::pack::<32>(data, group_size),
            64 => Self::pack::<64>(data, group_size),
            _ => {
                let mut planes = Self::pack::<0>(data, group_size);
                planes.count_window_columns();
                planes
            }
        }
    }

    fn pack<const G: usize>(data: &[i8], group_size: usize) -> Self {
        let words = data.len().div_ceil(WORD_LEN);
        let num_groups = data.len().div_ceil(group_size);
        let mut tc: [Vec<u64>; WORD_BITS] = std::array::from_fn(|_| vec![0u64; words]);
        let mut sm: [Vec<u64>; WORD_BITS] = std::array::from_fn(|_| vec![0u64; words]);
        let mut counts = PlaneCounts {
            group_columns: Vec::with_capacity(num_groups),
            ..PlaneCounts::default()
        };
        let mut tc_bytes = [0u8; WORD_LEN];
        for (word, chunk) in data.chunks(WORD_LEN).enumerate() {
            if chunk.len() < WORD_LEN {
                // Masked tail: unused byte slots must encode zero so the
                // plane bits beyond `len` stay clear.
                tc_bytes = [0u8; WORD_LEN];
            }
            for (slot, &value) in tc_bytes.iter_mut().zip(chunk) {
                *slot = value as u8;
            }
            // Only the two's-complement bytes are transposed; the
            // sign-magnitude planes are derived from them word-parallel,
            // and both are counted while still in registers.
            let tc_word = transpose_block(&tc_bytes);
            let sm_word = sm_planes_from_tc(&tc_word);
            counts.add_word::<G>(&tc_word, &sm_word, num_groups);
            for b in 0..WORD_BITS {
                tc[b][word] = tc_word[b];
                sm[b][word] = sm_word[b];
            }
        }
        Self {
            len: data.len(),
            group_size,
            tc,
            sm,
            counts,
        }
    }

    /// Column counts for group windows that do not tile a plane word: one
    /// window mask per group and encoding.
    fn count_window_columns(&mut self) {
        for group in 0..self.num_groups() {
            let tc = self
                .group_mask(Encoding::TwosComplement, group)
                .count_ones();
            let sm = self.group_mask(Encoding::SignMagnitude, group).count_ones();
            self.counts.nonzero_columns[0] += u64::from(tc);
            self.counts.nonzero_columns[1] += u64::from(sm);
            self.counts.group_columns.push(sm);
        }
    }

    /// The counts reduced while packing: non-zero elements, set bits and
    /// non-zero columns per encoding, and the per-group sign-magnitude
    /// column counts.
    #[inline]
    pub fn counts(&self) -> &PlaneCounts {
        &self.counts
    }

    /// Number of packed elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no elements are packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The group-window size the tensor was packed for.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of group windows (`len.div_ceil(group_size)`).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.len.div_ceil(self.group_size)
    }

    #[inline]
    fn encoded(&self, encoding: Encoding) -> &[Vec<u64>; WORD_BITS] {
        match encoding {
            Encoding::TwosComplement => &self.tc,
            Encoding::SignMagnitude => &self.sm,
        }
    }

    /// Bitplane `bit` under `encoding` (bit `i` of word `w` = bit `bit` of
    /// element `64*w + i`).
    #[inline]
    pub fn plane(&self, encoding: Encoding, bit: usize) -> &[u64] {
        &self.encoded(encoding)[bit]
    }

    /// Number of elements in group window `group` (only the final window can
    /// be short).
    #[inline]
    fn group_width(&self, group: usize) -> usize {
        (self.len - group * self.group_size).min(self.group_size)
    }

    /// The bits of column `bit` inside group window `group`, right-aligned
    /// (LSB = first element of the group) — identical to
    /// [`crate::bits::pack_column`] on the group's elements.
    #[inline]
    pub fn group_column(&self, encoding: Encoding, group: usize, bit: usize) -> u64 {
        window(
            &self.encoded(encoding)[bit],
            group * self.group_size,
            self.group_width(group),
        )
    }

    /// The zero-column index of group window `group`: bit `b` set iff
    /// column `b` is non-zero — identical to
    /// [`crate::bits::nonzero_column_mask`] on the group's elements.
    #[inline]
    pub fn group_mask(&self, encoding: Encoding, group: usize) -> u8 {
        let planes = self.encoded(encoding);
        let start = group * self.group_size;
        let width = self.group_width(group);
        let mut mask = 0u8;
        for (b, plane) in planes.iter().enumerate() {
            if window(plane, start, width) != 0 {
                mask |= 1 << b;
            }
        }
        mask
    }

    /// All eight columns of group window `group` as [`GroupPlanes`].
    #[inline]
    pub fn group_planes(&self, encoding: Encoding, group: usize) -> GroupPlanes {
        let planes = self.encoded(encoding);
        let start = group * self.group_size;
        let width = self.group_width(group);
        let mut words = [0u64; WORD_BITS];
        for (b, plane) in planes.iter().enumerate() {
            words[b] = window(plane, start, width);
        }
        GroupPlanes::from_words(words, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ENCODINGS: [Encoding; 2] = [Encoding::TwosComplement, Encoding::SignMagnitude];

    /// Bit-by-bit reference for the 8×8 transpose.
    fn transpose8_naive(x: u64) -> u64 {
        let mut out = 0u64;
        for row in 0..8 {
            for col in 0..8 {
                if (x >> (row * 8 + col)) & 1 == 1 {
                    out |= 1 << (col * 8 + row);
                }
            }
        }
        out
    }

    /// Scalar reference for a packed column (no GroupPlanes involvement —
    /// `bits::pack_column` is itself a wrapper over the packed path now).
    fn naive_column(data: &[i8], start: usize, width: usize, enc: Encoding, bit: usize) -> u64 {
        let mut word = 0u64;
        for i in 0..width {
            if (enc.encode(data[start + i]) >> bit) & 1 == 1 {
                word |= 1 << i;
            }
        }
        word
    }

    /// Scalar reference for the zero-column index (independent of the packed
    /// kernels).
    fn naive_mask(group: &[i8], enc: Encoding) -> u8 {
        group.iter().fold(0u8, |mask, &v| mask | enc.encode(v))
    }

    #[test]
    fn transpose8_matches_naive_on_structured_patterns() {
        for x in [
            0u64,
            u64::MAX,
            0x0123_4567_89AB_CDEF,
            0x8040_2010_0804_0201,
            0xFF00_FF00_FF00_FF00,
            0x8000_0000_0000_0001,
        ] {
            assert_eq!(transpose8(x), transpose8_naive(x), "x={x:#018x}");
        }
    }

    #[test]
    fn group_planes_match_naive_columns() {
        let group: Vec<i8> = (-32..32).collect();
        for enc in ENCODINGS {
            let packed = GroupPlanes::pack(&group, enc);
            for b in 0..WORD_BITS {
                assert_eq!(
                    packed.plane(b),
                    naive_column(&group, 0, group.len(), enc, b),
                    "bit {b}"
                );
            }
            assert_eq!(packed.nonzero_column_mask(), naive_mask(&group, enc));
        }
    }

    #[test]
    fn tail_bits_beyond_len_are_zero() {
        let data = vec![-1i8; 70]; // all bits set in TC; 70 % 64 = 6
        let planes = BitplaneTensor::from_slice(&data, 8);
        assert_eq!(planes.plane(Encoding::TwosComplement, 0).len(), 2);
        for b in 0..WORD_BITS {
            let tail = planes.plane(Encoding::TwosComplement, b)[1];
            assert_eq!(tail, (1u64 << 6) - 1, "bit {b} tail must be masked");
        }
        assert_eq!(planes.counts().ones(Encoding::TwosComplement), 70 * 8);
        assert_eq!(planes.counts().nonzero_elements, 70);
    }

    #[test]
    fn derived_sign_magnitude_planes_match_encode_for_every_value() {
        // Exhaustive over i8, exercising the ripple-carry negation and the
        // -128 saturation lane fix-up.
        let data: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        let planes = BitplaneTensor::from_slice(&data, 8);
        for (i, &v) in data.iter().enumerate() {
            for enc in ENCODINGS {
                let byte = enc.encode(v);
                for b in 0..WORD_BITS {
                    let bit = (planes.plane(enc, b)[i / WORD_LEN] >> (i % WORD_LEN)) & 1;
                    assert_eq!(bit == 1, (byte >> b) & 1 == 1, "v={v} bit={b}");
                }
            }
        }
    }

    #[test]
    fn group_windows_straddle_word_boundaries() {
        // Group size 24 does not divide 64: group 2 spans bits 48..72,
        // straddling the word boundary.
        let data: Vec<i8> = (0..96).map(|i| (i % 17) as i8 - 8).collect();
        let planes = BitplaneTensor::from_slice(&data, 24);
        for enc in ENCODINGS {
            for g in 0..planes.num_groups() {
                let start = g * 24;
                let width = (data.len() - start).min(24);
                for b in 0..WORD_BITS {
                    assert_eq!(
                        planes.group_column(enc, g, b),
                        naive_column(&data, start, width, enc, b),
                        "group {g} bit {b}"
                    );
                }
                assert_eq!(
                    planes.group_mask(enc, g),
                    naive_mask(&data[start..start + width], enc),
                    "group {g} mask"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn transpose8_matches_naive(x in any::<u64>()) {
            prop_assert_eq!(transpose8(x), transpose8_naive(x));
        }

        #[test]
        fn transpose8_is_an_involution(x in any::<u64>()) {
            prop_assert_eq!(transpose8(transpose8(x)), x);
        }

        #[test]
        fn planes_match_scalar_columns(
            data in proptest::collection::vec(-128i8..=127, 0..200),
            g in 1usize..=64,
        ) {
            let planes = BitplaneTensor::from_slice(&data, g);
            prop_assert_eq!(planes.num_groups(), data.len().div_ceil(g));
            for enc in ENCODINGS {
                let mut total_nonzero = 0u64;
                let mut counts = Vec::new();
                for gi in 0..planes.num_groups() {
                    let start = gi * g;
                    let width = (data.len() - start).min(g);
                    let group = &data[start..start + width];
                    let mask = naive_mask(group, enc);
                    prop_assert_eq!(planes.group_mask(enc, gi), mask);
                    for b in 0..WORD_BITS {
                        prop_assert_eq!(
                            planes.group_column(enc, gi, b),
                            naive_column(&data, start, width, enc, b)
                        );
                    }
                    let gp = planes.group_planes(enc, gi);
                    prop_assert_eq!(gp.len(), width);
                    prop_assert_eq!(gp.nonzero_column_mask(), mask);
                    total_nonzero += u64::from(mask.count_ones());
                    counts.push(mask.count_ones());
                }
                prop_assert_eq!(planes.counts().nonzero_columns(enc), total_nonzero);
                if enc == Encoding::SignMagnitude {
                    prop_assert_eq!(&planes.counts().group_columns, &counts);
                }
                let scalar_ones: u64 = data
                    .iter()
                    .map(|&v| u64::from(enc.encode(v).count_ones()))
                    .sum();
                prop_assert_eq!(planes.counts().ones(enc), scalar_ones);
            }
            let nonzero = data.iter().filter(|&&v| v != 0).count() as u64;
            prop_assert_eq!(planes.counts().nonzero_elements, nonzero);
        }

        #[test]
        fn group_planes_equal_tensor_windows(
            data in proptest::collection::vec(-128i8..=127, 1..130),
        ) {
            for g in [8usize, 16, 32] {
                let planes = BitplaneTensor::from_slice(&data, g);
                for enc in ENCODINGS {
                    for gi in 0..planes.num_groups() {
                        let start = gi * g;
                        let width = (data.len() - start).min(g);
                        let direct = GroupPlanes::pack(&data[start..start + width], enc);
                        prop_assert_eq!(planes.group_planes(enc, gi), direct);
                    }
                }
            }
        }
    }
}
