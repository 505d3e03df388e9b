//! LIBMF's blocked scheduling with a global table (§5, Fig 5a).
//!
//! The rating matrix is divided into an `a × a` grid. A central table
//! tracks which block-rows and block-columns are busy; an idle worker
//! searches the table for an unprocessed block whose row *and* column are
//! both free (Eq. 6 independence), claims it, and sweeps its samples
//! serially. Every claim is a global critical section — the scalability
//! bottleneck Fig 5(b) demonstrates and cuMF_SGD's policies avoid.
//!
//! This stream reproduces LIBMF's *semantics* (what gets updated when);
//! the *cost* of the critical section is modelled separately by
//! `cumf_gpu_sim::SchedulerModel::GlobalTable`.

use cumf_rng::seq::SliceRandom;
use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;

use cumf_data::CooMatrix;

use super::{StreamItem, UpdateStream};
use crate::partition::segment_of;

/// LIBMF-style global-table block scheduling over an a×a grid.
#[derive(Debug, Clone)]
pub struct LibmfTableStream {
    workers: usize,
    a: usize,
    /// blocks[bi * a + bj] = sample indices of block (bi, bj).
    blocks: Vec<Vec<usize>>,
    row_busy: Vec<bool>,
    col_busy: Vec<bool>,
    processed: Vec<bool>,
    remaining: usize,
    /// Per-worker: currently held block and cursor.
    state: Vec<Option<(usize, usize)>>,
    rng: ChaCha8Rng,
    seed: u64,
}

impl LibmfTableStream {
    /// Builds the a×a grid over `data` for `workers` workers.
    pub fn new(data: &CooMatrix, workers: usize, a: usize, seed: u64) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(a > 0, "grid dimension must be positive");
        let (m, n) = (data.rows(), data.cols());
        assert!(a <= m.min(n) as usize, "grid {a} exceeds matrix {m}x{n}");
        let mut blocks = vec![Vec::new(); a * a];
        for (i, e) in data.iter().enumerate() {
            let bi = segment_of(m, a as u32, e.u) as usize;
            let bj = segment_of(n, a as u32, e.v) as usize;
            blocks[bi * a + bj].push(i);
        }
        let mut s = LibmfTableStream {
            workers,
            a,
            blocks,
            row_busy: vec![false; a],
            col_busy: vec![false; a],
            processed: vec![false; a * a],
            remaining: a * a,
            state: vec![None; workers],
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
        };
        s.begin_epoch(0);
        s
    }

    /// Attempts to claim a random free independent block for a worker.
    fn claim(&mut self) -> Option<usize> {
        // The table search: all unprocessed blocks whose row and column are
        // free. LIBMF scans the whole table under the lock (O(a²)).
        let mut candidates: Vec<usize> = (0..self.blocks.len())
            .filter(|&b| {
                !self.processed[b] && !self.row_busy[b / self.a] && !self.col_busy[b % self.a]
            })
            .collect();
        candidates.shuffle(&mut self.rng);
        let b = candidates.first().copied()?;
        self.row_busy[b / self.a] = true;
        self.col_busy[b % self.a] = true;
        Some(b)
    }

    fn release(&mut self, b: usize) {
        self.row_busy[b / self.a] = false;
        self.col_busy[b % self.a] = false;
        self.processed[b] = true;
        self.remaining -= 1;
    }

    /// Number of blocks not yet processed this epoch.
    pub fn remaining_blocks(&self) -> usize {
        self.remaining
    }
}

impl UpdateStream for LibmfTableStream {
    fn workers(&self) -> usize {
        self.workers
    }

    fn next(&mut self, w: usize) -> StreamItem {
        loop {
            match self.state[w] {
                Some((b, cursor)) => {
                    if cursor < self.blocks[b].len() {
                        self.state[w] = Some((b, cursor + 1));
                        return StreamItem::Sample(self.blocks[b][cursor]);
                    }
                    self.release(b);
                    self.state[w] = None;
                }
                None => {
                    if self.remaining == 0 {
                        return StreamItem::Exhausted;
                    }
                    match self.claim() {
                        Some(b) => {
                            self.state[w] = Some((b, 0));
                            // Loop to serve the first sample (empty blocks
                            // release immediately and try again).
                        }
                        None => return StreamItem::Stall,
                    }
                }
            }
        }
    }

    fn begin_epoch(&mut self, epoch: u32) {
        self.rng = ChaCha8Rng::seed_from_u64(self.seed ^ (u64::from(epoch) << 32));
        self.row_busy.fill(false);
        self.col_busy.fill(false);
        self.processed.fill(false);
        self.remaining = self.a * self.a;
        self.state.fill(None);
    }

    fn name(&self) -> &'static str {
        "libmf-table"
    }

    fn block_grid(&self) -> Option<(u32, u32)> {
        Some((self.a as u32, self.a as u32))
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
                (i as u32).wrapping_mul(2654435761) % m,
                (i as u32).wrapping_mul(40503) % n,
                1.0,
            );
        }
        coo
    }

    #[test]
    fn covers_every_sample_exactly_once() {
        let data = matrix(60, 60, 1500);
        let mut s = LibmfTableStream::new(&data, 4, 6, 1);
        let seqs = drain_epoch(&mut s, 100_000);
        let mut all: Vec<usize> = seqs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1500).collect::<Vec<_>>());
        assert_eq!(s.remaining_blocks(), 0);
    }

    /// Eq. 6: concurrently-updated blocks never share a row or a column.
    #[test]
    fn in_flight_blocks_are_independent() {
        let data = matrix(100, 100, 3000);
        let a = 10;
        let mut s = LibmfTableStream::new(&data, 5, a, 2);
        let mut done = [false; 5];
        let mut guard = 0;
        while !done.iter().all(|&d| d) {
            let mut rows = std::collections::HashSet::new();
            let mut cols = std::collections::HashSet::new();
            for (w, d) in done.iter_mut().enumerate() {
                if *d {
                    continue;
                }
                match s.next(w) {
                    StreamItem::Sample(i) => {
                        let e = data.get(i);
                        let bi = segment_of(data.rows(), a as u32, e.u);
                        let bj = segment_of(data.cols(), a as u32, e.v);
                        assert!(rows.insert(bi), "row conflict at block-row {bi}");
                        assert!(cols.insert(bj), "col conflict at block-col {bj}");
                    }
                    StreamItem::Stall => {}
                    StreamItem::Exhausted => *d = true,
                }
            }
            guard += 1;
            assert!(guard < 200_000, "livelock");
        }
    }

    /// With a ≤ workers, at most `a` workers can run; the rest starve —
    /// the §7.6 observation behind Fig 14.
    #[test]
    fn small_grid_starves_excess_workers() {
        let data = matrix(40, 40, 2000);
        let workers = 8;
        let a = 2; // only 2 independent blocks can ever be in flight
        let mut s = LibmfTableStream::new(&data, workers, a, 3);
        let mut active_counts = Vec::new();
        let mut done = vec![false; workers];
        let mut guard = 0;
        while !done.iter().all(|&d| d) {
            let mut active = 0;
            for (w, d) in done.iter_mut().enumerate() {
                if *d {
                    continue;
                }
                match s.next(w) {
                    StreamItem::Sample(_) => active += 1,
                    StreamItem::Stall => {}
                    StreamItem::Exhausted => *d = true,
                }
            }
            if active > 0 {
                active_counts.push(active);
            }
            guard += 1;
            assert!(guard < 100_000);
        }
        // At any instant at most `a` blocks are held; a round containing a
        // block handoff can briefly show one extra active worker.
        assert!(
            active_counts.iter().all(|&c| c <= a + 1),
            "at most a+1={} workers can be active in a round, saw {:?}",
            a + 1,
            active_counts.iter().max()
        );
        let over = active_counts.iter().filter(|&&c| c > a).count();
        assert!(
            over <= a * a,
            "handoff rounds ({over}) cannot exceed the block count"
        );
    }

    #[test]
    fn epochs_differ_in_block_order() {
        let data = matrix(30, 30, 400);
        let mut s = LibmfTableStream::new(&data, 3, 5, 7);
        let a = drain_epoch(&mut s, 100_000);
        s.begin_epoch(1);
        let b = drain_epoch(&mut s, 100_000);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds matrix")]
    fn oversized_grid_rejected() {
        let data = matrix(4, 4, 10);
        let _ = LibmfTableStream::new(&data, 2, 8, 0);
    }
}
