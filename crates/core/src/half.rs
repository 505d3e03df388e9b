//! IEEE 754 binary16 ("half precision"), implemented from scratch.
//!
//! §4 of the paper: *"CuMF_SGD uses half-precision to store feature
//! matrices, which halves the memory bandwidth need"*. On GPUs the
//! conversion is a hardware instruction; here we implement the conversion
//! pair in software with round-to-nearest-even, the same rounding CUDA's
//! `__float2half_rn` performs.
//!
//! Only storage conversions are needed — all arithmetic happens in f32,
//! exactly as in the CUDA kernel (loads widen to f32 registers, stores
//! narrow back).
//!
//! Whole rows convert through [`Element::widen_row`] /
//! [`Element::narrow_row`]. On x86-64 hosts with F16C those run the
//! hardware `vcvtph2ps` / `vcvtps2ph` instructions, 8 lanes at a time,
//! selected by a runtime CPU check; elsewhere they run the software
//! conversions above. Both paths give the same bits for every input: the
//! hardware quiets signalling NaNs on widening and keeps NaN payloads on
//! narrowing, where [`F16::to_f32`] keeps the quiet bit as stored and
//! [`F16::from_f32`] narrows every NaN to `sign | 0x7E00`, so any 8-lane
//! group holding a NaN is redone in software.

use crate::feature::Element;

/// An IEEE 754 binary16 value: 1 sign bit, 5 exponent bits, 10 mantissa
/// bits. Range ±65504, ~3 decimal digits of precision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// The largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// The smallest positive normal value, 2⁻¹⁴.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);

    /// Creates from the raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// The raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from f32 with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN. Preserve NaN-ness with a quiet-NaN payload bit.
            return if mant == 0 {
                F16(sign | 0x7C00)
            } else {
                F16(sign | 0x7E00)
            };
        }

        // Unbiased exponent; f32 bias 127, f16 bias 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow -> infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range: drop 13 mantissa bits with RNE.
            let mant16 = (mant >> 13) as u16;
            let half_exp = ((unbiased + 15) as u16) << 10;
            let rest = mant & 0x1FFF;
            let mut out = sign | half_exp | mant16;
            // Round: up if remainder > half, or exactly half and LSB set.
            if rest > 0x1000 || (rest == 0x1000 && (mant16 & 1) == 1) {
                out += 1; // Carries correctly into the exponent on overflow.
            }
            return F16(out);
        }
        if unbiased >= -25 {
            // Subnormal f16: the target is mant16 = round(value / 2^-24)
            // = round(full_mant * 2^(unbiased+1)), i.e. a right shift of
            // the 24-bit significand by (-unbiased - 1) ∈ 14..=24.
            // unbiased == -25 is included: mant16 shifts to 0, but a
            // value strictly above 2^-25 (rest > half) must round up to
            // the smallest subnormal, not flush to zero; exactly 2^-25
            // ties to the even pattern 0x0000.
            let full_mant = mant | 0x0080_0000;
            let shift = (-1 - unbiased) as u32;
            let mant16 = (full_mant >> shift) as u16;
            let rest = full_mant & ((1u32 << shift) - 1);
            let half = 1u32 << (shift - 1);
            let mut out = sign | mant16;
            if rest > half || (rest == half && (mant16 & 1) == 1) {
                out += 1;
            }
            return F16(out);
        }
        // Underflow to (signed) zero.
        F16(sign)
    }

    /// Converts to f32 exactly (every f16 value is representable in f32).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x03FF) as u32;
        let bits = match (exp, mant) {
            (0, 0) => sign, // signed zero
            (0, m) => {
                // Subnormal: renormalise. Zeros before the leading one
                // within the 10-bit field = u32 leading zeros - 22.
                let lz = m.leading_zeros() - 22;
                let shifted = m << (lz + 1); // leading one lands at bit 10
                let exp32 = 127 - 15 - lz; // = 112 - field_lz
                sign | (exp32 << 23) | ((shifted & 0x03FF) << 13)
            }
            (0x1F, 0) => sign | 0x7F80_0000,             // infinity
            (0x1F, m) => sign | 0x7F80_0000 | (m << 13), // NaN
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }

    /// True if this value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True if this value is ±∞.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// True if the value is neither NaN nor infinite.
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

impl Element for F16 {
    const BYTES: usize = 2;
    const NAME: &'static str = "f16";
    #[inline(always)]
    fn from_f32(x: f32) -> Self {
        F16::from_f32(x)
    }
    #[inline(always)]
    fn to_f32(self) -> f32 {
        self.to_f32()
    }
    #[inline]
    fn widen_row(src: &[Self], dst: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if f16c::detected() {
            // SAFETY: `detected` just confirmed AVX and F16C on this CPU.
            return unsafe { f16c::widen(src, dst) };
        }
        widen_soft(src, dst)
    }
    #[inline]
    fn narrow_row(src: &[f32], dst: &mut [Self]) {
        #[cfg(target_arch = "x86_64")]
        if f16c::detected() {
            // SAFETY: `detected` just confirmed AVX and F16C on this CPU.
            return unsafe { f16c::narrow(src, dst) };
        }
        narrow_soft(src, dst)
    }
}

/// The software row widening: [`F16::to_f32`] per element.
fn widen_soft(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "row length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

/// The software row narrowing: [`F16::from_f32`] per element.
fn narrow_soft(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "row length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16::from_f32(s);
    }
}

/// Row conversions with the x86-64 F16C instructions, 8 lanes per step.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use std::arch::x86_64::*;

    use super::{narrow_soft, widen_soft, F16};

    /// True when this CPU can run [`widen`] and [`narrow`].
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("f16c") && is_x86_feature_detected!("avx")
    }

    /// [`super::widen_soft`] in hardware, bit for bit.
    ///
    /// # Safety
    /// The CPU must support AVX and F16C ([`detected`]).
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn widen(src: &[F16], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "row length mismatch");
        let body = src.len() - src.len() % 8;
        for i in (0..body).step_by(8) {
            // SAFETY: `i + 8 <= len` for both slices, the loads and
            // stores are the unaligned forms, and `F16` is a
            // `repr(transparent)` `u16`, so 8 of them are one `__m128i`.
            let nan = unsafe {
                let wide = _mm256_cvtph_ps(_mm_loadu_si128(src.as_ptr().add(i).cast()));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), wide);
                _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(wide, wide))
            };
            if nan != 0 {
                // The hardware sets the quiet bit of signalling NaNs.
                widen_soft(&src[i..i + 8], &mut dst[i..i + 8]);
            }
        }
        widen_soft(&src[body..], &mut dst[body..]);
    }

    /// [`super::narrow_soft`] in hardware, bit for bit.
    ///
    /// # Safety
    /// The CPU must support AVX and F16C ([`detected`]).
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn narrow(src: &[f32], dst: &mut [F16]) {
        assert_eq!(src.len(), dst.len(), "row length mismatch");
        let body = src.len() - src.len() % 8;
        for i in (0..body).step_by(8) {
            // SAFETY: as in `widen`, with the roles of the slices swapped.
            let nan = unsafe {
                let wide = _mm256_loadu_ps(src.as_ptr().add(i));
                let half = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(wide);
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), half);
                _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(wide, wide))
            };
            if nan != 0 {
                // The hardware keeps NaN payloads; `from_f32` does not.
                narrow_soft(&src[i..i + 8], &mut dst[i..i + 8]);
            }
        }
        narrow_soft(&src[body..], &mut dst[body..]);
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Maximum relative quantisation error of a round trip through f16 for
/// values in the normal range: half an ulp = 2⁻¹¹.
pub const F16_MAX_RELATIVE_ERROR: f32 = 1.0 / 2048.0;

/// The largest finite binary16 magnitude, as f32: any stored value with
/// `|x| > 65504 + 16` (the rounding boundary is 65520) overflows to ±∞.
/// The FP16 range-analysis pass proves stored intermediates stay below
/// this.
pub const F16_MAX_F32: f32 = 65504.0;

/// The smallest positive *normal* binary16 value (2⁻¹⁴) as f32; below it
/// precision degrades gradually through the subnormal range.
pub const F16_MIN_POSITIVE_NORMAL_F32: f32 = 6.103_515_6e-5;

/// The smallest positive subnormal binary16 value (2⁻²⁴) as f32; stores
/// with magnitude under half of it flush to zero — the floor under which
/// SGD updates silently stagnate in half precision.
pub const F16_MIN_POSITIVE_SUBNORMAL_F32: f32 = 5.960_464_5e-8;

#[cfg(test)]
mod tests {
    use super::*;

    /// Widens with the F16C body, or prints a note and returns false on a
    /// host without F16C, so a skipped hardware check is never silent.
    fn hw_widen(src: &[F16], dst: &mut [f32]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if f16c::detected() {
            // SAFETY: `detected` just confirmed AVX and F16C on this CPU.
            unsafe { f16c::widen(src, dst) };
            return true;
        }
        println!("note: no F16C on this host; hardware widening not checked");
        false
    }

    /// [`hw_widen`] for narrowing.
    fn hw_narrow(src: &[f32], dst: &mut [F16]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if f16c::detected() {
            // SAFETY: `detected` just confirmed AVX and F16C on this CPU.
            unsafe { f16c::narrow(src, dst) };
            return true;
        }
        println!("note: no F16C on this host; hardware narrowing not checked");
        false
    }

    /// Narrows `src` by software, hardware and dispatch and requires the
    /// same bits from all three.
    fn assert_narrow_paths_agree(src: &[f32]) {
        let mut soft = vec![F16::ZERO; src.len()];
        let mut hard = vec![F16::ZERO; src.len()];
        let mut dispatched = vec![F16::ZERO; src.len()];
        narrow_soft(src, &mut soft);
        F16::narrow_row(src, &mut dispatched);
        let checked_hw = hw_narrow(src, &mut hard);
        for (i, &x) in src.iter().enumerate() {
            let want = F16::from_f32(x).to_bits();
            assert_eq!(
                soft[i].to_bits(),
                want,
                "software, input {:#010x}",
                x.to_bits()
            );
            assert_eq!(
                dispatched[i].to_bits(),
                want,
                "dispatch, input {:#010x}",
                x.to_bits()
            );
            if checked_hw {
                assert_eq!(hard[i].to_bits(), want, "F16C, input {:#010x}", x.to_bits());
            }
        }
    }

    #[test]
    fn every_half_widens_identically_on_every_path() {
        // Includes every NaN payload, signalling ones too: `to_f32`
        // keeps the quiet bit as stored.
        let src: Vec<F16> = (0..=0xFFFFu16).map(F16::from_bits).collect();
        let mut soft = vec![0.0f32; src.len()];
        let mut hard = vec![0.0f32; src.len()];
        let mut dispatched = vec![0.0f32; src.len()];
        widen_soft(&src, &mut soft);
        F16::widen_row(&src, &mut dispatched);
        // An odd length runs the scalar tail as well as the 8-lane body.
        let checked_hw = hw_widen(&src[1..], &mut hard[1..]) && hw_widen(&src[..1], &mut hard[..1]);
        for (i, h) in src.iter().enumerate() {
            let want = h.to_f32().to_bits();
            assert_eq!(soft[i].to_bits(), want, "software, half {i:#06x}");
            assert_eq!(dispatched[i].to_bits(), want, "dispatch, half {i:#06x}");
            if checked_hw {
                assert_eq!(hard[i].to_bits(), want, "F16C, half {i:#06x}");
            }
        }
    }

    #[test]
    fn edges_and_every_rounding_tie_narrow_identically_on_every_path() {
        let mut cases = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            65504.0,
            65519.0,
            65520.0,
            -65520.0,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
        ];
        // The overflow edge (65520 ties to ∞) and the 2⁻²⁵ subnormal edge
        // (exactly 2⁻²⁵ ties to 0, anything above rounds up to 2⁻²⁴),
        // each with its f32 neighbours, both signs.
        for edge in [65520.0f32, 2.0f32.powi(-25), 2.0f32.powi(-24)] {
            for x in [
                edge,
                f32::from_bits(edge.to_bits() - 1),
                f32::from_bits(edge.to_bits() + 1),
            ] {
                cases.extend([x, -x]);
            }
        }
        // NaN payloads, quiet and signalling, both signs.
        for payload in [
            1u32, 0x1FFF, 0x2000, 0x20_0000, 0x3F_FFFF, 0x40_0000, 0x7F_FFFF,
        ] {
            cases.extend([
                f32::from_bits(0x7F80_0000 | payload),
                f32::from_bits(0xFF80_0000 | payload),
            ]);
        }
        // Every tie: the midpoint between each pair of neighbouring
        // finite halves (subnormals included, exact in f32), and the f32
        // values either side of it.
        for sign in [0u16, 0x8000] {
            for bits in 0..0x7BFFu16 {
                let lo = F16::from_bits(sign | bits).to_f32();
                let hi = F16::from_bits(sign | (bits + 1)).to_f32();
                let mid = (lo + hi) / 2.0;
                assert_eq!(f64::from(mid), (f64::from(lo) + f64::from(hi)) / 2.0);
                let b = mid.to_bits();
                cases.extend([mid, f32::from_bits(b - 1), f32::from_bits(b + 1)]);
            }
        }
        assert_narrow_paths_agree(&cases);
    }

    #[test]
    fn strided_f32_sweep_narrows_identically_on_every_path() {
        // Every 251st bit pattern of the 32-bit space: 17.1M inputs over
        // every exponent, NaNs mixed into the same 8-lane groups as
        // finite values. Chunks of 4099 also exercise the scalar tail.
        let mut chunk = Vec::with_capacity(4099);
        for bits in (0..=u32::MAX).step_by(251) {
            chunk.push(f32::from_bits(bits));
            if chunk.len() == chunk.capacity() {
                assert_narrow_paths_agree(&chunk);
                chunk.clear();
            }
        }
        assert_narrow_paths_agree(&chunk);
    }

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "integer {i}");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1e6).is_infinite());
        assert!(F16::from_f32(-1e6).is_infinite());
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
        // 65520 rounds to inf (midpoint rounds to even = inf),
        // 65519 rounds down to MAX.
        assert!(F16::from_f32(65520.0).is_infinite());
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(!F16::from_f32(1.0).is_nan());
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(F16::from_bits(0x0001).to_f32(), tiny);
        // Largest subnormal: (1023/1024) * 2^-14.
        let big_sub = (1023.0 / 1024.0) * 2.0f32.powi(-14);
        assert_eq!(F16::from_f32(big_sub).to_bits(), 0x03FF);
        assert_eq!(F16::from_bits(0x03FF).to_f32(), big_sub);
        // Below half the smallest subnormal underflows to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)), F16::ZERO);
        // MIN_POSITIVE normal round trips.
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16
        // (1 + 2^-10); RNE keeps the even mantissa -> 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is halfway between (1+2^-10) and (1+2^-9); RNE picks
        // the even mantissa (1+2^-9, bits ...10).
        let halfway2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway2).to_bits(), 0x3C02);
        // Just above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_bits(), 0x3C01);
    }

    #[test]
    fn relative_error_bound_on_normal_range() {
        // Sweep pseudo-random values across the normal f16 range and check
        // the round-trip error bound.
        let mut x = 0.000_061_5f32; // just above min normal
        while x < 60000.0 {
            for sign in [1.0f32, -1.0] {
                let v = x * sign;
                let rt = F16::from_f32(v).to_f32();
                let rel = ((rt - v) / v).abs();
                assert!(
                    rel <= F16_MAX_RELATIVE_ERROR,
                    "x = {v}, round trip {rt}, rel err {rel}"
                );
            }
            x *= 1.37;
        }
    }

    #[test]
    fn all_f16_bit_patterns_round_trip_exactly() {
        // f16 -> f32 -> f16 must be the identity for every finite pattern.
        for bits in 0..=0xFFFFu16 {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
                continue;
            }
            let rt = F16::from_f32(h.to_f32());
            assert_eq!(rt.to_bits(), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn range_constants_match_bit_patterns() {
        assert_eq!(F16::MAX.to_f32(), F16_MAX_F32);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), F16_MIN_POSITIVE_NORMAL_F32);
        assert_eq!(
            F16::from_bits(0x0001).to_f32(),
            F16_MIN_POSITIVE_SUBNORMAL_F32
        );
        assert_eq!(F16_MIN_POSITIVE_NORMAL_F32, 2.0f32.powi(-14));
        assert_eq!(F16_MIN_POSITIVE_SUBNORMAL_F32, 2.0f32.powi(-24));
    }

    #[test]
    fn feature_scale_values_are_well_represented() {
        // Feature values live in roughly [-2, 2] after the paper's
        // "parameter scaling"; quantisation there is harmless.
        for i in 0..1000 {
            let x = -2.0 + 4.0 * (i as f32) / 999.0;
            let rt = F16::from_f32(x).to_f32();
            assert!((rt - x).abs() <= 2.0 * F16_MAX_RELATIVE_ERROR * x.abs().max(0.25));
        }
    }
}
