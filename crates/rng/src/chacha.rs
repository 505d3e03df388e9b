//! ChaCha8 stream-cipher RNG (RFC 8439 block function, 8 double-rounds
//! halved to 8 quarter-round rounds as in `rand_chacha`'s ChaCha8).

use crate::{RngCore, SeedableRng};

/// A ChaCha stream cipher with 8 rounds used as a PRNG.
///
/// The generator runs the ChaCha block function over an incrementing
/// 64-bit counter and emits the 16 output words of each 64-byte block as
/// eight little-endian `u64`s. ChaCha8 passes all standard statistical
/// test batteries and, unlike LCGs or xorshift, has no detectable lattice
/// structure — overkill for data synthesis, but it makes seeds portable
/// claims ("seed 42 produced this data set") trustworthy.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key + constants + counter state fed to the block function.
    state: [u32; 16],
    /// Buffered output words of the current block.
    buf: [u32; 16],
    /// Next unread index into `buf`; 16 means "exhausted".
    idx: usize,
}

const ROUNDS: usize = 8;
/// "expand 32-byte k", the ChaCha constant words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// SplitMix64: expands a 64-bit seed into a stream of well-mixed words.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ChaCha8Rng {
    /// Builds a generator from a 256-bit key (eight words) with the block
    /// counter and nonce at zero.
    pub fn from_key(key: [u32; 8]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&key);
        // state[12..14]: 64-bit block counter; state[14..16]: nonce (zero).
        ChaCha8Rng {
            state,
            buf: [0; 16],
            idx: 16,
        }
    }

    /// Runs the block function once and refills the output buffer.
    fn refill(&mut self) {
        let mut w = self.state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut w, 0, 4, 8, 12);
            quarter_round(&mut w, 1, 5, 9, 13);
            quarter_round(&mut w, 2, 6, 10, 14);
            quarter_round(&mut w, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut w, 0, 5, 10, 15);
            quarter_round(&mut w, 1, 6, 11, 12);
            quarter_round(&mut w, 2, 7, 8, 13);
            quarter_round(&mut w, 3, 4, 9, 14);
        }
        for (o, (&x, &s)) in self.buf.iter_mut().zip(w.iter().zip(&self.state)) {
            *o = x.wrapping_add(s);
        }
        // Increment the 64-bit block counter (words 12/13).
        let (lo, carry) = self.state[12].overflowing_add(1);
        self.state[12] = lo;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
        self.idx = 0;
    }

    /// Skips `words` output words: afterwards the generator yields what
    /// it would after `words` calls to `next_u32`, without computing the
    /// blocks in between. Lets threads start independent slices of one
    /// stream at their own offsets.
    pub fn advance(&mut self, words: u64) {
        let left = (16 - self.idx) as u64;
        if words <= left {
            self.idx += words as usize;
            return;
        }
        // Absolute word position of the target: the buffered block is
        // `counter - 1` (or nothing is buffered and `idx` is 16).
        let counter = u64::from(self.state[12]) | u64::from(self.state[13]) << 32;
        let target = (counter * 16 - left) + words;
        let block = target / 16;
        self.state[12] = block as u32;
        self.state[13] = (block >> 32) as u32;
        self.idx = 16;
        let offset = (target % 16) as usize;
        if offset > 0 {
            self.refill();
            self.idx = offset;
        }
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let w = splitmix64(&mut sm);
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        Self::from_key(key)
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_word() as u64;
        let hi = self.next_word() as u64;
        lo | (hi << 32)
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 test vector, run with 20 rounds: validates the
    /// quarter-round wiring and counter/constant layout that ChaCha8
    /// shares with ChaCha20.
    #[test]
    fn chacha_block_function_matches_rfc8439() {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for (i, w) in state[4..12].iter_mut().enumerate() {
            let b = (4 * i) as u32;
            *w = u32::from_le_bytes([b as u8, (b + 1) as u8, (b + 2) as u8, (b + 3) as u8]);
        }
        state[12] = 1; // counter
        state[13] = u32::from_le_bytes([0x00, 0x00, 0x00, 0x09]);
        state[14] = u32::from_le_bytes([0x00, 0x00, 0x00, 0x4a]);
        state[15] = 0;
        let mut w = state;
        for _ in 0..10 {
            quarter_round(&mut w, 0, 4, 8, 12);
            quarter_round(&mut w, 1, 5, 9, 13);
            quarter_round(&mut w, 2, 6, 10, 14);
            quarter_round(&mut w, 3, 7, 11, 15);
            quarter_round(&mut w, 0, 5, 10, 15);
            quarter_round(&mut w, 1, 6, 11, 12);
            quarter_round(&mut w, 2, 7, 8, 13);
            quarter_round(&mut w, 3, 4, 9, 14);
        }
        let out: Vec<u32> = w
            .iter()
            .zip(&state)
            .map(|(&a, &b)| a.wrapping_add(b))
            .collect();
        let expected: [u32; 16] = [
            0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033, 0x9aaa2204,
            0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9, 0xd19c12b5, 0xb94e16de,
            0xe883d0cb, 0x4e3c50a2,
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn blocks_differ_and_counter_advances() {
        let mut rng = ChaCha8Rng::from_key([0; 8]);
        let first: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first, second, "consecutive blocks must differ");
    }

    #[test]
    fn keys_separate_streams() {
        let mut a = ChaCha8Rng::from_key([1, 0, 0, 0, 0, 0, 0, 0]);
        let mut b = ChaCha8Rng::from_key([2, 0, 0, 0, 0, 0, 0, 0]);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn advance_equals_drawing_the_skipped_words() {
        // Starting mid-block, at a block boundary and with nothing
        // buffered; skips within the block, onto and across boundaries.
        for start in [0u64, 1, 5, 15, 16, 17, 31, 40] {
            for n in [0u64, 1, 3, 10, 11, 15, 16, 17, 31, 32, 33, 100, 1_000] {
                let mut a = ChaCha8Rng::seed_from_u64(start * 1_000 + n);
                for _ in 0..start {
                    a.next_u32();
                }
                let mut b = a.clone();
                a.advance(n);
                for _ in 0..n {
                    b.next_u32();
                }
                let next = |r: &mut ChaCha8Rng| (0..40).map(|_| r.next_u32()).collect::<Vec<_>>();
                assert_eq!(next(&mut a), next(&mut b), "start {start}, advance {n}");
            }
        }
    }

    #[test]
    fn advance_carries_into_the_high_counter_word() {
        let mut a = ChaCha8Rng::from_key([3; 8]);
        a.state[12] = u32::MAX - 1;
        let mut b = a.clone();
        a.advance(40);
        for _ in 0..40 {
            b.next_u32();
        }
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.state[12..14], b.state[12..14]);
    }

    #[test]
    fn counter_carry_propagates() {
        let mut rng = ChaCha8Rng::from_key([7; 8]);
        rng.state[12] = u32::MAX;
        rng.refill();
        assert_eq!(rng.state[12], 0);
        assert_eq!(rng.state[13], 1);
    }
}
