//! Per-level bitplane encoding of multilevel coefficients.
//!
//! Coefficients of one level are normalised by the level exponent
//! `E = floor(log2(max|c|)) + 1` to fixed point with [`PLANES`] fractional
//! bits, then emitted most-significant plane first. Each plane is an
//! independently fetchable segment consisting of the plane's magnitude bits
//! (RLE-compressed — high planes of smooth-field coefficients are almost all
//! zero) followed by the sign bits of the coefficients that *became
//! significant* in this plane (embedded sign coding: signs cost nothing
//! until a coefficient matters).
//!
//! After receiving `k` planes, every coefficient of the level satisfies
//! `|c − ĉ| ≤ 2^{E−k} + 2^{E−PLANES+1}` — truncation plus the fixed-point
//! rounding/clamping slack. Receiving all planes is near-lossless
//! (relative ~1e-18), matching PMGARD's "archive at nearly full accuracy".
//!
//! ## Word-parallel kernels
//!
//! Both directions run word-parallel by default: the encoder transposes the
//! fixed-point magnitudes into plane-major packed words once (64
//! coefficients per [`transpose64`] tile) and emits each plane through the
//! word RLE codec; the decoder keeps its accumulated state *in the
//! plane-major orientation* — consuming a plane is an `O(count / 64)` word
//! append plus word-level significance tracking, and the coefficient-major
//! magnitudes are recovered by one transpose per reconstruction. The
//! streams and the reconstructed values are byte-identical to the scalar
//! reference ([`encode_level_scalar`], [`LevelDecoder::new_scalar`]), which
//! stays available for cross-checking and benchmarking and serves requests
//! when `PQR_SCALAR_KERNELS=1`.

use pqr_util::bitplane_simd::{scalar_kernels, transpose64};
use pqr_util::byteio::{ByteReader, ByteWriter};
use pqr_util::error::{PqrError, Result};
use pqr_util::rle::{
    decode_bits_auto, decode_bits_auto_words, encode_bits_auto, encode_bits_auto_words,
};

/// Number of bitplanes kept per level (fixed-point fractional bits).
pub const PLANES: u32 = 60;

/// Encodes one level's coefficients; holds the per-plane segments.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedLevel {
    /// Level exponent: all |c| < 2^exponent. `None` for an all-zero level
    /// (no planes stored at all).
    pub exponent: Option<i32>,
    /// Number of coefficients.
    pub count: usize,
    /// Per-plane segment bytes, MSB plane first (`PLANES` entries, empty if
    /// the level is all-zero).
    pub planes: Vec<Vec<u8>>,
}

/// Truncation error bound after receiving `k` of the level's planes.
///
/// `exponent = None` (all-zero level) needs no data: the error is 0.
pub fn truncation_error(exponent: Option<i32>, k: u32) -> f64 {
    match exponent {
        None => 0.0,
        Some(e) => exp2(e - k as i32) + exp2(e - PLANES as i32 + 1),
    }
}

/// `2^e` for possibly large-negative `e` without going through powi's
/// domain checks.
#[inline]
fn exp2(e: i32) -> f64 {
    (e as f64).exp2()
}

/// The shared normalisation front half of both encoders: level exponent,
/// fixed-point magnitudes and sign flags. `None` for all-zero/empty levels.
fn fixed_point(coeffs: &[f64]) -> Option<(i32, Vec<u64>, Vec<bool>)> {
    let count = coeffs.len();
    let max_abs = coeffs.iter().fold(0.0f64, |m, c| m.max(c.abs()));
    if max_abs == 0.0 || count == 0 {
        return None;
    }
    // E such that |c| < 2^E for all c (strict: frac < 1).
    let mut e = max_abs.log2().floor() as i32 + 1;
    if max_abs * exp2(-e) >= 1.0 {
        e += 1; // log2 float slack
    }

    // Fixed-point magnitudes m ∈ [0, 2^PLANES) and signs.
    let scale = exp2(PLANES as i32 - e);
    let max_m = (1u64 << PLANES) - 1;
    let ms: Vec<u64> = coeffs
        .iter()
        .map(|c| {
            let m = (c.abs() * scale).round() as u64;
            m.min(max_m)
        })
        .collect();
    let negs: Vec<bool> = coeffs.iter().map(|c| *c < 0.0).collect();
    Some((e, ms, negs))
}

/// Frames one plane segment: length-prefixed magnitude-bit blob + sign blob.
fn frame_plane(bit_blob: Vec<u8>, sign_blob: Vec<u8>) -> Vec<u8> {
    // u32 length prefixes: plane segments are numerous, keep them lean
    let mut w = ByteWriter::with_capacity(bit_blob.len() + sign_blob.len() + 8);
    w.put_u32(bit_blob.len() as u32);
    w.put_raw(&bit_blob);
    w.put_u32(sign_blob.len() as u32);
    w.put_raw(&sign_blob);
    w.finish()
}

/// Encodes a level's coefficients into per-plane segments.
///
/// Word-parallel: one bit-matrix transpose per 64 coefficients yields every
/// plane's packed bits at once; significance tracking and sign collection
/// run on words. Byte-identical to [`encode_level_scalar`] (property-tested)
/// and falls back to it under `PQR_SCALAR_KERNELS=1`.
pub fn encode_level(coeffs: &[f64]) -> EncodedLevel {
    if scalar_kernels() {
        return encode_level_scalar(coeffs);
    }
    let count = coeffs.len();
    let Some((e, ms, negs)) = fixed_point(coeffs) else {
        return EncodedLevel {
            exponent: None,
            count,
            planes: Vec::new(),
        };
    };
    let nchunks = count.div_ceil(64);
    let neg_words = pqr_util::bitplane_simd::pack_bits(&negs);

    // Transpose the magnitude matrix to plane-major packed words: plane p's
    // word for chunk c is the transposed tile's row `PLANES - 1 - p`.
    let mut plane_words = vec![0u64; PLANES as usize * nchunks];
    let mut tile = [0u64; 64];
    for c in 0..nchunks {
        tile.fill(0);
        let lo = c * 64;
        for (j, &m) in ms[lo..(lo + 64).min(count)].iter().enumerate() {
            tile[j] = m;
        }
        transpose64(&mut tile);
        for p in 0..PLANES as usize {
            plane_words[p * nchunks + c] = tile[PLANES as usize - 1 - p];
        }
    }

    let mut sig = vec![0u64; nchunks];
    let mut sign_words: Vec<u64> = Vec::with_capacity(nchunks);
    let mut planes = Vec::with_capacity(PLANES as usize);
    for p in 0..PLANES as usize {
        let pw = &plane_words[p * nchunks..(p + 1) * nchunks];
        // signs of the coefficients that become significant in this plane,
        // in ascending coefficient order
        sign_words.clear();
        sign_words.resize(nchunks, 0);
        let mut nsigns = 0usize;
        for (c, (&w, s)) in pw.iter().zip(sig.iter_mut()).enumerate() {
            let mut newly = w & !*s;
            *s |= w;
            while newly != 0 {
                let j = newly.trailing_zeros();
                let neg = (neg_words[c] >> j) & 1;
                sign_words[nsigns / 64] |= neg << (nsigns % 64);
                nsigns += 1;
                newly &= newly - 1;
            }
        }
        let bit_blob = encode_bits_auto_words(pw, count);
        let sign_blob = encode_bits_auto_words(&sign_words, nsigns);
        planes.push(frame_plane(bit_blob, sign_blob));
    }
    EncodedLevel {
        exponent: Some(e),
        count,
        planes,
    }
}

/// The scalar reference encoder: one coefficient per inner-loop step.
/// Kept callable so tests and benches can assert/measure the word-parallel
/// path against it.
pub fn encode_level_scalar(coeffs: &[f64]) -> EncodedLevel {
    let count = coeffs.len();
    let Some((e, ms, negs)) = fixed_point(coeffs) else {
        return EncodedLevel {
            exponent: None,
            count,
            planes: Vec::new(),
        };
    };
    let mut planes = Vec::with_capacity(PLANES as usize);
    let mut significant = vec![false; count];
    for p in 0..PLANES {
        let shift = PLANES - 1 - p;
        let mut bits = Vec::with_capacity(count);
        let mut signs = Vec::new();
        for j in 0..count {
            let bit = (ms[j] >> shift) & 1 == 1;
            bits.push(bit);
            if bit && !significant[j] {
                significant[j] = true;
                signs.push(negs[j]);
            }
        }
        planes.push(frame_plane(
            encode_bits_auto(&bits),
            encode_bits_auto(&signs),
        ));
    }
    EncodedLevel {
        exponent: Some(e),
        count,
        planes,
    }
}

/// Incremental decoder: feed planes in order, read out coefficient values.
#[derive(Debug, Clone)]
pub struct LevelDecoder {
    exponent: Option<i32>,
    count: usize,
    planes_read: u32,
    state: DecodeState,
}

/// The decoder's accumulated per-coefficient state, in one of two
/// orientations.
#[derive(Debug, Clone)]
enum DecodeState {
    /// Coefficient-major scalar reference: magnitudes accumulate bit by bit.
    Scalar {
        /// Accumulated magnitudes (fixed point).
        ms: Vec<u64>,
        /// Sign of each coefficient (valid once significant).
        negs: Vec<bool>,
        significant: Vec<bool>,
    },
    /// Plane-major word state: consumed planes stay packed as decoded;
    /// magnitudes are recovered by transpose on demand.
    Words {
        /// Consumed planes' packed bits, plane-major (`planes_read` rows of
        /// `count.div_ceil(64)` words).
        planes: Vec<u64>,
        /// Packed significance bits.
        sig: Vec<u64>,
        /// Packed sign bits (valid once significant).
        negs: Vec<u64>,
    },
}

impl LevelDecoder {
    /// Creates a decoder for a level with the given exponent and size,
    /// using the word-parallel kernel (scalar under `PQR_SCALAR_KERNELS=1`).
    pub fn new(exponent: Option<i32>, count: usize) -> Self {
        if scalar_kernels() {
            return Self::new_scalar(exponent, count);
        }
        let nchunks = count.div_ceil(64);
        Self {
            exponent,
            count,
            planes_read: 0,
            state: DecodeState::Words {
                planes: Vec::new(),
                sig: vec![0; nchunks],
                negs: vec![0; nchunks],
            },
        }
    }

    /// Creates a decoder pinned to the scalar reference path — the oracle
    /// the word-parallel kernel is property-tested against.
    pub fn new_scalar(exponent: Option<i32>, count: usize) -> Self {
        Self {
            exponent,
            count,
            planes_read: 0,
            state: DecodeState::Scalar {
                ms: vec![0; count],
                negs: vec![false; count],
                significant: vec![false; count],
            },
        }
    }

    /// Number of planes consumed so far.
    pub fn planes_read(&self) -> u32 {
        self.planes_read
    }

    /// Current per-coefficient truncation error bound.
    pub fn error_bound(&self) -> f64 {
        truncation_error(self.exponent, self.planes_read)
    }

    /// Consumes the next plane segment (must be fed strictly in order).
    pub fn push_plane(&mut self, segment: &[u8]) -> Result<()> {
        let Some(_) = self.exponent else {
            return Err(PqrError::InvalidRequest(
                "all-zero level has no planes".into(),
            ));
        };
        if self.planes_read >= PLANES {
            return Err(PqrError::InvalidRequest("level already complete".into()));
        }
        let mut r = ByteReader::new(segment);
        let bit_len = r.get_u32()? as usize;
        let bit_blob = r.get_raw(bit_len)?;
        let sign_len = r.get_u32()? as usize;
        let sign_blob = r.get_raw(sign_len)?;
        match &mut self.state {
            DecodeState::Scalar {
                ms,
                negs,
                significant,
            } => {
                let bits = decode_bits_auto(bit_blob, self.count)?;
                // the first-significances this plane introduces (indexing
                // three parallel per-coefficient arrays by j); both blobs
                // are validated before any state mutates, so a corrupt
                // sign blob leaves the decoder untouched — matching the
                // word path exactly, errors included
                let newly: Vec<usize> = (0..self.count)
                    .filter(|&j| bits[j] && !significant[j])
                    .collect();
                let signs = decode_bits_auto(sign_blob, newly.len())?;
                let shift = PLANES - 1 - self.planes_read;
                for (j, &bit) in bits.iter().enumerate() {
                    if bit {
                        ms[j] |= 1u64 << shift;
                        significant[j] = true;
                    }
                }
                for (&sign, &j) in signs.iter().zip(&newly) {
                    negs[j] = sign;
                }
            }
            DecodeState::Words { planes, sig, negs } => {
                let words = decode_bits_auto_words(bit_blob, self.count)?;
                let nsigns: usize = words
                    .iter()
                    .zip(sig.iter())
                    .map(|(&w, &s)| (w & !s).count_ones() as usize)
                    .sum();
                let signs = decode_bits_auto_words(sign_blob, nsigns)?;
                // both blobs decoded — mutate only now, so a corrupt sign
                // blob leaves the decoder untouched
                let mut si = 0usize;
                for (c, (&w, s)) in words.iter().zip(sig.iter_mut()).enumerate() {
                    let mut newly = w & !*s;
                    *s |= w;
                    while newly != 0 {
                        let j = newly.trailing_zeros();
                        negs[c] |= ((signs[si / 64] >> (si % 64)) & 1) << j;
                        si += 1;
                        newly &= newly - 1;
                    }
                }
                planes.extend_from_slice(&words);
            }
        }
        self.planes_read += 1;
        Ok(())
    }

    /// Reconstructs coefficient `j` from the planes received so far.
    #[inline]
    pub fn coefficient(&self, j: usize) -> f64 {
        let Some(e) = self.exponent else {
            return 0.0;
        };
        let (m, neg) = match &self.state {
            DecodeState::Scalar { ms, negs, .. } => (ms[j], negs[j]),
            DecodeState::Words { planes, negs, .. } => {
                let nchunks = self.count.div_ceil(64);
                let (c, b) = (j / 64, j % 64);
                let mut m = 0u64;
                for p in 0..self.planes_read {
                    let bit = (planes[p as usize * nchunks + c] >> b) & 1;
                    m |= bit << (PLANES - 1 - p);
                }
                (m, (negs[c] >> b) & 1 == 1)
            }
        };
        let v = m as f64 * exp2(e - PLANES as i32);
        if neg {
            -v
        } else {
            v
        }
    }

    /// All coefficients at current precision.
    pub fn coefficients(&self) -> Vec<f64> {
        let Some(e) = self.exponent else {
            return vec![0.0; self.count];
        };
        match &self.state {
            DecodeState::Scalar { .. } => (0..self.count).map(|j| self.coefficient(j)).collect(),
            DecodeState::Words { planes, negs, .. } => {
                // transpose the consumed planes back to coefficient-major
                // magnitudes, one 64×64 tile per 64 coefficients
                let scale = exp2(e - PLANES as i32);
                let nchunks = self.count.div_ceil(64);
                let mut out = Vec::with_capacity(self.count);
                let mut tile = [0u64; 64];
                for c in 0..nchunks {
                    tile.fill(0);
                    for p in 0..self.planes_read as usize {
                        tile[PLANES as usize - 1 - p] = planes[p * nchunks + c];
                    }
                    transpose64(&mut tile);
                    let neg = negs[c];
                    let take = (self.count - c * 64).min(64);
                    for (j, &m) in tile[..take].iter().enumerate() {
                        let v = m as f64 * scale;
                        out.push(if (neg >> j) & 1 == 1 { -v } else { v });
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coeffs(n: usize, scale: f64) -> Vec<f64> {
        let mut s = 0x5a5a5a5au64;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s as f64 / u64::MAX as f64) * 2.0 - 1.0) * scale
            })
            .collect()
    }

    fn decode_k(enc: &EncodedLevel, k: u32) -> LevelDecoder {
        let mut d = LevelDecoder::new(enc.exponent, enc.count);
        for p in 0..k as usize {
            d.push_plane(&enc.planes[p]).unwrap();
        }
        d
    }

    #[test]
    fn word_encoder_is_byte_identical_to_scalar() {
        for (n, scale) in [
            (1usize, 1.0),
            (63, 0.3),
            (64, 2.0),
            (65, 1e-5),
            (500, 3.7),
            (1000, 1e6),
        ] {
            let mut coeffs = sample_coeffs(n, scale);
            if n > 2 {
                coeffs[n / 2] = 0.0; // keep a never-significant coefficient
            }
            let word = encode_level(&coeffs);
            let scalar = encode_level_scalar(&coeffs);
            assert_eq!(word.exponent, scalar.exponent, "n={n}");
            assert_eq!(word.count, scalar.count);
            assert_eq!(word.planes, scalar.planes, "n={n} scale={scale}");
        }
    }

    #[test]
    fn word_decoder_matches_scalar_at_every_depth() {
        let coeffs = sample_coeffs(777, 2.5);
        let enc = encode_level(&coeffs);
        let mut dw = LevelDecoder::new(enc.exponent, enc.count);
        let mut ds = LevelDecoder::new_scalar(enc.exponent, enc.count);
        for p in 0..PLANES as usize {
            dw.push_plane(&enc.planes[p]).unwrap();
            ds.push_plane(&enc.planes[p]).unwrap();
            // bit-identical reconstructions, not approximately equal
            let cw = dw.coefficients();
            let cs = ds.coefficients();
            assert_eq!(cw, cs, "divergence after plane {p}");
            assert_eq!(dw.coefficient(3), ds.coefficient(3));
        }
    }

    #[test]
    fn hostile_segments_fail_identically_through_both_decoders() {
        let coeffs = sample_coeffs(200, 1.1);
        let enc = encode_level(&coeffs);
        let seg = &enc.planes[2];
        let mut hostile: Vec<Vec<u8>> = Vec::new();
        for cut in [0usize, 2, 5, seg.len() / 2, seg.len() - 1] {
            hostile.push(seg[..cut].to_vec());
        }
        // oversized: trailing garbage after a valid segment
        let mut oversized = seg.clone();
        oversized.extend_from_slice(&[0xab; 16]);
        hostile.push(oversized);
        // bit-blob length prefix lying beyond the segment
        let mut lying = seg.clone();
        lying[0..4].copy_from_slice(&(seg.len() as u32 * 2).to_le_bytes());
        hostile.push(lying);
        // corrupt mode byte inside the bit blob
        let mut bad_mode = seg.clone();
        bad_mode[4] = 0x77;
        hostile.push(bad_mode);

        for (i, bad) in hostile.iter().enumerate() {
            let mut dw = decode_k(&enc, 2);
            let mut ds = {
                let mut d = LevelDecoder::new_scalar(enc.exponent, enc.count);
                for p in 0..2 {
                    d.push_plane(&enc.planes[p]).unwrap();
                }
                d
            };
            let rw = dw.push_plane(bad);
            let rs = ds.push_plane(bad);
            assert_eq!(
                rw.is_err(),
                rs.is_err(),
                "case {i} diverged: {rw:?} vs {rs:?}"
            );
            // the valid oversized-trailing case must also decode identically
            if rw.is_ok() {
                assert_eq!(dw.coefficients(), ds.coefficients(), "case {i}");
            }
        }
    }

    #[test]
    fn corrupt_sign_blob_leaves_both_decoders_untouched() {
        // a plane whose bit blob is intact but whose sign blob is corrupt
        // must fail without mutating state, identically in both decoders
        let coeffs = sample_coeffs(300, 1.4);
        let enc = encode_level(&coeffs);
        let seg = &enc.planes[0];
        let mut r = ByteReader::new(seg);
        let bit_len = r.get_u32().unwrap() as usize;
        let bit_blob = r.get_raw(bit_len).unwrap().to_vec();
        let sign_len = r.get_u32().unwrap() as usize;
        let sign_blob = r.get_raw(sign_len).unwrap().to_vec();
        assert!(sign_len > 1, "plane 0 must introduce significances");
        let bad = frame_plane(bit_blob, sign_blob[..1].to_vec());
        for mut d in [
            LevelDecoder::new(enc.exponent, enc.count),
            LevelDecoder::new_scalar(enc.exponent, enc.count),
        ] {
            assert!(d.push_plane(&bad).is_err());
            assert_eq!(d.planes_read(), 0);
            assert_eq!(d.coefficients(), vec![0.0; enc.count], "state mutated");
            // the decoder is still usable: the intact segment now applies
            d.push_plane(seg).unwrap();
            assert_eq!(d.planes_read(), 1);
        }
    }

    #[test]
    fn truncation_error_honoured_at_every_depth() {
        let coeffs = sample_coeffs(500, 3.7);
        let enc = encode_level(&coeffs);
        for k in [1u32, 2, 5, 10, 20, 40, PLANES] {
            let d = decode_k(&enc, k);
            let bound = d.error_bound();
            for (j, &c) in coeffs.iter().enumerate() {
                let err = (d.coefficient(j) - c).abs();
                assert!(err <= bound, "k={k} j={j}: err {err} > bound {bound}");
            }
        }
    }

    #[test]
    fn full_depth_is_near_lossless() {
        let coeffs = sample_coeffs(200, 1e3);
        let enc = encode_level(&coeffs);
        let d = decode_k(&enc, PLANES);
        for (j, &c) in coeffs.iter().enumerate() {
            let rel = (d.coefficient(j) - c).abs() / c.abs().max(1e-300);
            assert!(rel < 1e-15, "j={j}: rel err {rel}");
        }
    }

    #[test]
    fn error_decreases_monotonically_with_planes() {
        let coeffs = sample_coeffs(300, 2.0);
        let enc = encode_level(&coeffs);
        let mut prev = f64::INFINITY;
        for k in 1..=PLANES {
            let b = truncation_error(enc.exponent, k);
            assert!(b < prev, "k={k}: {b} !< {prev}");
            prev = b;
        }
    }

    #[test]
    fn signs_recovered_correctly() {
        let coeffs = vec![1.0, -1.0, 0.5, -0.25, 0.0, -0.75];
        let enc = encode_level(&coeffs);
        let d = decode_k(&enc, PLANES);
        for (j, &c) in coeffs.iter().enumerate() {
            assert_eq!(
                d.coefficient(j) < 0.0,
                c < 0.0 && c != 0.0,
                "sign mismatch at {j}"
            );
        }
    }

    #[test]
    fn all_zero_level_costs_nothing() {
        let enc = encode_level(&[0.0; 100]);
        assert_eq!(enc.exponent, None);
        assert!(enc.planes.is_empty());
        assert_eq!(truncation_error(None, 0), 0.0);
        let d = LevelDecoder::new(None, 100);
        assert_eq!(d.coefficient(7), 0.0);
        assert_eq!(d.error_bound(), 0.0);
        assert_eq!(d.coefficients(), vec![0.0; 100]);
    }

    #[test]
    fn empty_level() {
        let enc = encode_level(&[]);
        assert_eq!(enc.count, 0);
        assert_eq!(enc.exponent, None);
    }

    #[test]
    fn high_planes_of_small_coefficients_are_tiny() {
        // coefficients ≪ 2^E ⇒ top planes all-zero ⇒ RLE collapses them
        let mut coeffs = sample_coeffs(10_000, 1e-6);
        coeffs[0] = 1.0; // forces a large exponent
        let enc = encode_level(&coeffs);
        let top: usize = enc.planes[..10].iter().map(|p| p.len()).sum();
        assert!(top < 400, "top-10 planes take {top} B");
    }

    #[test]
    fn exponent_strictly_dominates_magnitudes() {
        for scale in [1e-12, 1.0, 1e12, 0.99999999, 4.000001] {
            let coeffs = vec![scale, -scale / 2.0];
            let enc = encode_level(&coeffs);
            let e = enc.exponent.unwrap();
            assert!(scale < exp2(e), "scale {scale} !< 2^{e}");
            assert!(scale >= exp2(e - 2), "exponent {e} too large for {scale}");
        }
    }

    #[test]
    fn push_past_end_is_error() {
        let enc = encode_level(&[1.0]);
        let mut d = decode_k(&enc, PLANES);
        assert!(d.push_plane(&enc.planes[0]).is_err());
    }

    #[test]
    fn zero_level_rejects_planes() {
        let mut d = LevelDecoder::new(None, 5);
        assert!(d.push_plane(&[]).is_err());
    }

    #[test]
    fn corrupt_plane_detected() {
        let coeffs = sample_coeffs(64, 1.0);
        let enc = encode_level(&coeffs);
        for mut d in [
            LevelDecoder::new(enc.exponent, enc.count),
            LevelDecoder::new_scalar(enc.exponent, enc.count),
        ] {
            assert!(d.push_plane(&enc.planes[0][..2]).is_err());
        }
    }
}
