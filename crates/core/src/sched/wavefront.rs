//! Wavefront-update (§5.2) — the paper's blocking-based GPU policy.
//!
//! The rating matrix is split into an `s × c` grid (`s` = workers). Worker
//! `w` owns grid row `w` and walks its blocks in a per-epoch column
//! sequence; before entering a block it must hold that block's *column
//! lock* — a one-dimensional, local check, in contrast with LIBMF's global
//! two-dimensional table. A worker that finishes a block early moves on as
//! soon as its next column frees up, which bounds load imbalance.
//!
//! ## Deadlock freedom
//!
//! Column sequences are rotations of one shared per-epoch permutation
//! (worker `w` starts at offset `w · c / s`). All workers then traverse the
//! same cyclic order; a waits-for edge from worker A to worker B means B
//! holds the column one step ahead of A's position, so any waits-for cycle
//! of length L would need `L ≡ 0 (mod c)` — impossible for `L ≤ s < c`.
//! The constructor therefore requires `c ≥ 2s` (the paper's own example
//! uses c = 2s: 4 workers, 8 columns).

use cumf_rng::seq::SliceRandom;
use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;

use cumf_data::CooMatrix;

use super::{StreamItem, UpdateStream};
use crate::partition::segment_of;

/// Wavefront-update scheduling over an s×c block grid.
#[derive(Debug, Clone)]
pub struct WavefrontStream {
    workers: usize,
    cols: usize,
    /// blocks[w * cols + c] = sample indices of block (w, c).
    blocks: Vec<Vec<usize>>,
    /// Shared per-epoch column permutation.
    perm: Vec<usize>,
    /// Per-worker rotation offset into `perm`.
    offsets: Vec<usize>,
    /// locks[col] = worker currently holding the column.
    locks: Vec<Option<usize>>,
    /// Per-worker progress: (wave index, cursor, holding column).
    state: Vec<WorkerState>,
    seed: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct WorkerState {
    wave: usize,
    cursor: usize,
    holding: Option<usize>,
}

impl WavefrontStream {
    /// Builds the grid over `data` with `workers` block-rows and `cols`
    /// block-columns. Requires `cols ≥ 2 · workers` (see module docs) and
    /// `workers ≤ m`, `cols ≤ n`.
    pub fn new(data: &CooMatrix, workers: usize, cols: usize, seed: u64) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(
            cols >= 2 * workers,
            "wavefront needs cols >= 2*workers for deadlock freedom \
             (got {cols} cols, {workers} workers)"
        );
        assert!(
            workers as u32 <= data.rows().max(1),
            "more workers than rows"
        );
        assert!(cols as u32 <= data.cols().max(1), "more columns than items");
        let mut blocks = vec![Vec::new(); workers * cols];
        for (i, e) in data.iter().enumerate() {
            let bw = segment_of(data.rows(), workers as u32, e.u) as usize;
            let bc = segment_of(data.cols(), cols as u32, e.v) as usize;
            blocks[bw * cols + bc].push(i);
        }
        let mut stream = WavefrontStream {
            workers,
            cols,
            blocks,
            perm: (0..cols).collect(),
            offsets: (0..workers).map(|w| w * cols / workers).collect(),
            locks: vec![None; cols],
            state: vec![WorkerState::default(); workers],
            seed,
        };
        stream.begin_epoch(0);
        stream
    }

    /// The column worker `w` targets at its current wave.
    fn target_col(&self, w: usize) -> usize {
        self.perm[(self.offsets[w] + self.state[w].wave) % self.cols]
    }

    /// Total blocks in the grid.
    pub fn grid_blocks(&self) -> usize {
        self.workers * self.cols
    }
}

impl UpdateStream for WavefrontStream {
    fn workers(&self) -> usize {
        self.workers
    }

    fn next(&mut self, w: usize) -> StreamItem {
        loop {
            let st = self.state[w];
            match st.holding {
                Some(col) => {
                    let block = &self.blocks[w * self.cols + col];
                    if st.cursor < block.len() {
                        let i = block[st.cursor];
                        self.state[w].cursor += 1;
                        return StreamItem::Sample(i);
                    }
                    // Block finished: release the column, move to the
                    // next wave.
                    debug_assert_eq!(self.locks[col], Some(w));
                    self.locks[col] = None;
                    self.state[w].holding = None;
                    self.state[w].wave += 1;
                    self.state[w].cursor = 0;
                }
                None => {
                    if st.wave >= self.cols {
                        return StreamItem::Exhausted;
                    }
                    let col = self.target_col(w);
                    match self.locks[col] {
                        None => {
                            self.locks[col] = Some(w);
                            self.state[w].holding = Some(col);
                            // Loop: serve the first sample (or release an
                            // empty block immediately).
                        }
                        Some(_) => return StreamItem::Stall,
                    }
                }
            }
        }
    }

    fn begin_epoch(&mut self, epoch: u32) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ (u64::from(epoch) << 32));
        self.perm = (0..self.cols).collect();
        self.perm.shuffle(&mut rng);
        self.locks.fill(None);
        self.state.fill(WorkerState::default());
    }

    fn name(&self) -> &'static str {
        "wavefront"
    }

    fn block_grid(&self) -> Option<(u32, u32)> {
        Some((self.workers as u32, self.cols as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::drain_epoch;

    fn matrix(m: u32, n: u32, nnz: usize) -> CooMatrix {
        let mut coo = CooMatrix::new(m, n);
        for i in 0..nnz {
            coo.push(
                (i as u32 * 7919) % m,
                (i as u32 * 104729) % n,
                (i % 5) as f32,
            );
        }
        coo
    }

    #[test]
    fn covers_every_sample_exactly_once() {
        let data = matrix(64, 64, 2000);
        let mut s = WavefrontStream::new(&data, 4, 8, 1);
        let seqs = drain_epoch(&mut s, 100_000);
        let mut all: Vec<usize> = seqs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..2000).collect::<Vec<_>>());
    }

    #[test]
    fn workers_stay_in_their_block_rows() {
        let data = matrix(64, 64, 2000);
        let mut s = WavefrontStream::new(&data, 4, 8, 2);
        let seqs = drain_epoch(&mut s, 100_000);
        for (w, seq) in seqs.iter().enumerate() {
            for &i in seq {
                let u = data.get(i).u;
                let bw = segment_of(data.rows(), 4, u) as usize;
                assert_eq!(bw, w, "sample {i} (row {u}) served by worker {w}");
            }
        }
    }

    /// The central §5.2 invariant: at no instant do two workers update
    /// blocks in the same column.
    #[test]
    fn no_two_workers_share_a_column() {
        let data = matrix(128, 128, 5000);
        let mut s = WavefrontStream::new(&data, 8, 16, 3);
        let mut done = [false; 8];
        let mut guard = 0;
        while !done.iter().all(|&d| d) {
            let mut cols_this_round = std::collections::HashSet::new();
            for (w, d) in done.iter_mut().enumerate() {
                if *d {
                    continue;
                }
                match s.next(w) {
                    StreamItem::Sample(i) => {
                        let bc = segment_of(data.cols(), 16, data.get(i).v);
                        assert!(
                            cols_this_round.insert(bc),
                            "two workers updated block-column {bc} in one round"
                        );
                    }
                    StreamItem::Stall => {}
                    StreamItem::Exhausted => *d = true,
                }
            }
            guard += 1;
            assert!(guard < 100_000, "deadlock");
        }
    }

    #[test]
    fn epochs_reshuffle_but_still_cover() {
        let data = matrix(32, 32, 500);
        let mut s = WavefrontStream::new(&data, 2, 4, 4);
        let a: Vec<Vec<usize>> = drain_epoch(&mut s, 100_000);
        s.begin_epoch(1);
        let b: Vec<Vec<usize>> = drain_epoch(&mut s, 100_000);
        let flat = |v: &Vec<Vec<usize>>| {
            let mut f: Vec<usize> = v.iter().flatten().copied().collect();
            f.sort_unstable();
            f
        };
        assert_eq!(flat(&a), flat(&b), "same coverage");
        assert_ne!(a, b, "different order across epochs");
    }

    #[test]
    fn rotated_offsets_spread_workers() {
        let data = matrix(64, 64, 100);
        let s = WavefrontStream::new(&data, 4, 8, 0);
        assert_eq!(s.offsets, vec![0, 2, 4, 6]);
        assert_eq!(s.grid_blocks(), 32);
    }

    #[test]
    #[should_panic(expected = "deadlock freedom")]
    fn too_few_columns_rejected() {
        let data = matrix(16, 16, 10);
        let _ = WavefrontStream::new(&data, 4, 4, 0);
    }

    #[test]
    fn single_worker_degenerates_to_blocked_serial() {
        let data = matrix(16, 16, 200);
        let mut s = WavefrontStream::new(&data, 1, 2, 5);
        let seqs = drain_epoch(&mut s, 10_000);
        assert_eq!(seqs[0].len(), 200);
    }
}
