//! Feature (factor) matrices `P` (m×k) and `Q` (n×k).
//!
//! Row-major storage so one SGD update touches two contiguous k-element
//! rows — the access the CUDA kernel coalesces across its 32 threads (§4).
//! Storage is generic over the element type: `f32`, or
//! [`F16`](crate::half::F16) for the paper's half-precision mode.

use cumf_rng::{ChaCha8Rng, Rng};

use crate::fnv::{fnv1a_extend, FNV_OFFSET};

/// A storage element of a factor matrix: converts to/from f32 compute form.
pub trait Element: Copy + Send + Sync + Default + 'static {
    /// Bytes per stored element (2 for f16, 4 for f32) — what the
    /// bandwidth model charges.
    const BYTES: usize;
    /// Human-readable name for reports.
    const NAME: &'static str;
    /// Narrowing store.
    fn from_f32(x: f32) -> Self;
    /// Widening load.
    fn to_f32(self) -> f32;
    /// Widens a row: `dst[i] = src[i].to_f32()`. Overrides (bulk hardware
    /// conversions) must give the same bits for every input.
    #[inline]
    fn widen_row(src: &[Self], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "row length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32();
        }
    }
    /// Narrows a row: `dst[i] = Self::from_f32(src[i])`, with the same
    /// bit-identity rule for overrides as [`Element::widen_row`].
    #[inline]
    fn narrow_row(src: &[f32], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "row length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Self::from_f32(s);
        }
    }
    /// The row itself as f32, when the element type is f32: kernels then
    /// work in place instead of staging a widened copy.
    #[inline]
    fn as_f32_mut(_row: &mut [Self]) -> Option<&mut [f32]> {
        None
    }
    /// Read-only counterpart of [`Element::as_f32_mut`].
    #[inline]
    fn as_f32(_row: &[Self]) -> Option<&[f32]> {
        None
    }
}

impl Element for f32 {
    const BYTES: usize = 4;
    const NAME: &'static str = "f32";
    #[inline(always)]
    fn from_f32(x: f32) -> Self {
        x
    }
    #[inline(always)]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn as_f32_mut(row: &mut [Self]) -> Option<&mut [f32]> {
        Some(row)
    }
    #[inline]
    fn as_f32(row: &[Self]) -> Option<&[f32]> {
        Some(row)
    }
}

/// Elements below which [`FactorMatrix::random_init`] stays on the
/// calling thread: a spawn costs about what drawing this many takes.
const PARALLEL_INIT_MIN: usize = 1 << 16;

/// Fills `rows` (whole rows of length `k`) with `U(0, scale)` draws, one
/// word of `rng` per element in order. Each row is drawn, then narrowed
/// in one call: the same draws in the same order as element by element.
fn fill_uniform<E: Element>(rows: &mut [E], k: usize, scale: f32, rng: &mut ChaCha8Rng) {
    let mut draws = vec![0.0f32; k];
    for row in rows.chunks_exact_mut(k) {
        for d in &mut draws {
            *d = rng.gen_range(0.0..scale);
        }
        E::narrow_row(&draws, row);
    }
}

/// A dense rows×k factor matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorMatrix<E: Element> {
    rows: u32,
    k: u32,
    data: Vec<E>,
}

impl<E: Element> FactorMatrix<E> {
    /// Creates a zero-initialised matrix.
    pub fn zeros(rows: u32, k: u32) -> Self {
        assert!(k > 0, "feature dimension must be positive");
        FactorMatrix {
            rows,
            k,
            data: vec![E::default(); rows as usize * k as usize],
        }
    }

    /// Algorithm 1, line 3: initialise entries `U(0, sqrt(1/k))`.
    ///
    /// The positive uniform init biases early predictions towards positive
    /// ratings, matching LIBMF/cuMF initialisation.
    ///
    /// Element `i` (row-major) takes word `i` of `rng`'s stream, so large
    /// matrices split their rows across the host's cores, each starting
    /// at its first element's word ([`ChaCha8Rng::advance`]). The result
    /// and the position `rng` is left at are those of one serial loop.
    pub fn random_init(rows: u32, k: u32, rng: &mut ChaCha8Rng) -> Self {
        let threads = if rows as usize * k as usize >= PARALLEL_INIT_MIN {
            crate::concurrent::host_threads()
        } else {
            1
        };
        Self::random_init_on(rows, k, rng, threads)
    }

    /// [`Self::random_init`] on `threads` threads.
    fn random_init_on(rows: u32, k: u32, rng: &mut ChaCha8Rng, threads: usize) -> Self {
        let mut m = Self::zeros(rows, k);
        let scale = (1.0 / k as f32).sqrt();
        let k = k as usize;
        let chunk = (rows as usize).div_ceil(threads.max(1)).max(1) * k;
        let mut chunks = m.data.chunks_mut(chunk);
        let first = chunks.next().unwrap_or_default();
        let skipped = first.len();
        std::thread::scope(|scope| {
            for (t, rest) in chunks.enumerate() {
                let mut own = rng.clone();
                own.advance(((t + 1) * chunk) as u64);
                scope.spawn(move || fill_uniform(rest, k, scale, &mut own));
            }
            fill_uniform(first, k, scale, rng);
        });
        rng.advance((m.data.len() - skipped) as u64);
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Feature dimension k.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: u32) -> &[E] {
        let k = self.k as usize;
        let base = r as usize * k;
        &self.data[base..base + k]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: u32) -> &mut [E] {
        let k = self.k as usize;
        let base = r as usize * k;
        &mut self.data[base..base + k]
    }

    /// Loads row `r` widened to f32 into `out` (length k).
    #[inline]
    pub fn load_row(&self, r: u32, out: &mut [f32]) {
        E::widen_row(self.row(r), out);
    }

    /// Stores `vals` (length k) narrowed into row `r`.
    #[inline]
    pub fn store_row(&mut self, r: u32, vals: &[f32]) {
        E::narrow_row(vals, self.row_mut(r));
    }

    /// Raw element slice (row-major).
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Mutable raw element slice (row-major), for executors that split
    /// the matrix into disjoint row blocks.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Total storage bytes — what a staging transfer of this matrix costs.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * E::BYTES
    }

    /// Builds a matrix from an f32 slice (narrowing into E).
    pub fn from_f32_slice(rows: u32, k: u32, vals: &[f32]) -> Self {
        assert_eq!(vals.len(), rows as usize * k as usize, "shape mismatch");
        let mut data = vec![E::default(); vals.len()];
        E::narrow_row(vals, &mut data);
        FactorMatrix { rows, k, data }
    }

    /// Number of non-finite (NaN/Inf) entries in the matrix. Zero on a
    /// healthy model; the fault-injection supervisor's post-epoch scan
    /// treats any positive count as a gradient storm to roll back.
    pub fn non_finite_count(&self) -> usize {
        self.data.iter().filter(|e| !e.to_f32().is_finite()).count()
    }

    /// FNV-1a digest over the element bit patterns, row-major. This is the
    /// hand-off checksum of the fault layer: a P/Q segment is digested
    /// before a (simulated) transfer and verified after, so corruption on
    /// the link is detected rather than silently trained on.
    pub fn digest(&self) -> u64 {
        self.data.iter().fold(FNV_OFFSET, |h, e| {
            fnv1a_extend(h, &e.to_f32().to_bits().to_le_bytes())
        })
    }

    /// Copies rows `range` out as a new matrix (a P/Q *segment* for the
    /// multi-GPU partitioning of §6.1).
    pub fn segment(&self, range: std::ops::Range<u32>) -> FactorMatrix<E> {
        let k = self.k as usize;
        let lo = range.start as usize * k;
        let hi = range.end as usize * k;
        FactorMatrix {
            rows: range.end - range.start,
            k: self.k,
            data: self.data[lo..hi].to_vec(),
        }
    }

    /// Writes a segment back at row offset `at` (the D2H merge of §6.1).
    pub fn write_segment(&mut self, at: u32, seg: &FactorMatrix<E>) {
        assert_eq!(seg.k, self.k, "k mismatch");
        assert!(at + seg.rows <= self.rows, "segment out of range");
        let k = self.k as usize;
        let lo = at as usize * k;
        self.data[lo..lo + seg.data.len()].copy_from_slice(&seg.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::F16;
    use cumf_rng::{RngCore, SeedableRng};

    #[test]
    fn zeros_shape() {
        let m: FactorMatrix<f32> = FactorMatrix::zeros(5, 3);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.k(), 3);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.storage_bytes(), 60);
    }

    #[test]
    fn random_init_respects_scale() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(100, 16, &mut rng);
        let scale = (1.0f32 / 16.0).sqrt();
        for &x in m.as_slice() {
            assert!((0.0..scale).contains(&x), "{x} outside [0, {scale})");
        }
        // Mean should approach scale/2.
        let mean: f32 = m.as_slice().iter().sum::<f32>() / 1600.0;
        assert!((mean - scale / 2.0).abs() < 0.01);
    }

    #[test]
    fn random_init_narrows_the_same_draws_in_the_same_order() {
        for k in [1u32, 13, 128] {
            let m: FactorMatrix<F16> =
                FactorMatrix::random_init(37, k, &mut ChaCha8Rng::seed_from_u64(k as u64));
            let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
            let scale = (1.0 / k as f32).sqrt();
            for (i, e) in m.as_slice().iter().enumerate() {
                let want = F16::from_f32(rng.gen_range(0.0..scale));
                assert_eq!(e.to_bits(), want.to_bits(), "k={k} element {i}");
            }
        }
    }

    #[test]
    fn random_init_is_the_same_on_any_thread_count() {
        fn check<E: Element>(rows: u32, k: u32) {
            let mut serial_rng = ChaCha8Rng::seed_from_u64(u64::from(rows * 31 + k));
            serial_rng.next_u32(); // start mid-block
            let mut after = serial_rng.clone();
            let serial = FactorMatrix::<E>::random_init_on(rows, k, &mut after, 1);
            for threads in [2, 5] {
                let mut rng = serial_rng.clone();
                let m = FactorMatrix::<E>::random_init_on(rows, k, &mut rng, threads);
                let case = format!("{} {rows}x{k} on {threads} threads", E::NAME);
                assert_eq!(m.digest(), serial.digest(), "{case}");
                assert_eq!(
                    rng.next_u64(),
                    after.clone().next_u64(),
                    "{case}: rng position"
                );
            }
        }
        for (rows, k) in [(0, 4), (1, 3), (3, 5), (37, 13), (101, 16), (64, 1)] {
            check::<f32>(rows, k);
            check::<F16>(rows, k);
        }
    }

    #[test]
    fn row_round_trip() {
        let mut m: FactorMatrix<f32> = FactorMatrix::zeros(4, 3);
        m.store_row(2, &[1.0, 2.0, 3.0]);
        let mut out = [0.0f32; 3];
        m.load_row(2, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn f16_storage_quantises() {
        let mut m: FactorMatrix<F16> = FactorMatrix::zeros(2, 2);
        m.store_row(0, &[0.3333333, 1.0]);
        let mut out = [0.0f32; 2];
        m.load_row(0, &mut out);
        assert!((out[0] - 0.3333333).abs() < 3e-4); // quantised
        assert_eq!(out[1], 1.0); // exact
        assert_eq!(m.storage_bytes(), 8); // half the f32 bytes
        assert_eq!(F16::NAME, "f16");
    }

    #[test]
    fn segments_round_trip() {
        let vals: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let m: FactorMatrix<f32> = FactorMatrix::from_f32_slice(4, 3, &vals);
        let seg = m.segment(1..3);
        assert_eq!(seg.rows(), 2);
        assert_eq!(seg.row(0), &[3.0, 4.0, 5.0]);
        let mut m2: FactorMatrix<f32> = FactorMatrix::zeros(4, 3);
        m2.write_segment(1, &seg);
        assert_eq!(m2.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m2.row(2), &[6.0, 7.0, 8.0]);
        assert_eq!(m2.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "segment out of range")]
    fn write_segment_bounds_checked() {
        let seg: FactorMatrix<f32> = FactorMatrix::zeros(3, 2);
        let mut m: FactorMatrix<f32> = FactorMatrix::zeros(4, 2);
        m.write_segment(2, &seg);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_slice_checks_shape() {
        let _: FactorMatrix<f32> = FactorMatrix::from_f32_slice(2, 2, &[0.0; 5]);
    }
}
