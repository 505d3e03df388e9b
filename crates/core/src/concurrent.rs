//! Concurrent-execution engines: how parallel SGD updates actually touch
//! the model.
//!
//! On a GPU, hundreds of thread blocks race on the feature matrices; on
//! this crate's single-core reproduction platform real threads cannot
//! produce representative races. We therefore execute schedules through a
//! deterministic **round-based conflict engine**:
//!
//! * In every round, each non-stalled worker receives one sample from the
//!   [`crate::sched::UpdateStream`].
//! * All workers *read* the factor rows as of the start of the round
//!   (stale reads — what racing Hogwild! workers observe).
//! * Each computes its SGD delta against that snapshot.
//! * All deltas are then *committed additively*.
//!
//! When two workers in a round share a row or column, both corrections are
//! applied even though each was computed assuming it acted alone — the
//! overshoot that makes Hogwild! diverge when `s` is *not* ≪ `min(m, n)`
//! (§7.5). When no collision occurs, a round is exactly equivalent to
//! sequential execution. Conflict-free policies (wavefront, LIBMF blocking)
//! can run in the cheaper [`ExecMode::Sequential`] mode, which the engine
//! verifies is collision-free as it goes.
//!
//! A `ThreadedHogwild` executor ([`threaded_hogwild_epoch`]) using real OS threads over atomic f32
//! cells is provided as well, for cross-validation on multi-core hosts.
//!
//! The Sequential engine runs blocked schedules (wavefront, LIBMF table)
//! on real threads too, through the block-ticket executor: a drained epoch
//! cut into one-worker-in-one-block segments, each started only once the
//! earlier segments on its row block and its column block have finished,
//! so the result is bit for bit that of in-order application.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cumf_data::CooMatrix;

use crate::engine::model::ModelView;
use crate::feature::{Element, FactorMatrix};
use crate::sched::UpdateStream;

/// How parallel updates are applied to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Apply each worker's update immediately, in worker order. Exact for
    /// conflict-free schedules; silently serialises racy ones.
    Sequential,
    /// Round-snapshot reads + additive commits: Hogwild! race semantics
    /// (stale gradients, double-applied corrections on collision).
    StaleAdditive,
    /// Real OS threads racing lock-free on atomic factor cells (ignores
    /// the stream's ordering; unsupported for the biased model).
    Threaded,
}

/// Statistics of one executed epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochStats {
    /// SGD updates applied.
    pub updates: u64,
    /// Lockstep rounds the epoch needed (drives the simulated-time model:
    /// a stalled worker still burns a round slot).
    pub rounds: u64,
    /// Worker-round slots lost to stalls.
    pub stalls: u64,
    /// Rounds in which ≥ 2 workers touched the same P row.
    pub row_collisions: u64,
    /// Rounds in which ≥ 2 workers touched the same Q column.
    pub col_collisions: u64,
}

impl EpochStats {
    /// Fraction of worker-round slots that stalled.
    pub fn stall_fraction(&self) -> f64 {
        let slots = self.updates + self.stalls;
        if slots == 0 {
            0.0
        } else {
            self.stalls as f64 / slots as f64
        }
    }
}

/// Default consecutive-sample claim size for the threaded executors — the
/// paper's `f = 256` ([`crate::sched::BatchHogwildStream::DEFAULT_F`]).
pub const DEFAULT_THREAD_BATCH: usize = crate::sched::BatchHogwildStream::DEFAULT_F;

/// Execution knobs for [`run_epoch_with`] that are not part of the
/// scheduling policy itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecParams {
    /// Samples each OS thread claims per shared-counter grab in
    /// [`ExecMode::Threaded`] (ignored by the other modes).
    pub thread_batch: usize,
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams {
            thread_batch: DEFAULT_THREAD_BATCH,
        }
    }
}

/// Runs one epoch of `stream` against `(p, q)` with learning rate `gamma`
/// and regularisation `lambda`. Thin compatibility wrapper over the
/// bias-capable epoch bodies in [`crate::engine::exec`], using the default
/// [`ExecParams`].
pub fn run_epoch<E: Element, S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    p: &mut FactorMatrix<E>,
    q: &mut FactorMatrix<E>,
    stream: &mut S,
    gamma: f32,
    lambda: f32,
    mode: ExecMode,
) -> EpochStats {
    run_epoch_with(
        data,
        p,
        q,
        stream,
        gamma,
        lambda,
        mode,
        ExecParams::default(),
    )
}

/// [`run_epoch`] with explicit [`ExecParams`] — the configurable seam the
/// model checker and benches use to exercise small thread batches.
#[allow(clippy::too_many_arguments)]
pub fn run_epoch_with<E: Element, S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    p: &mut FactorMatrix<E>,
    q: &mut FactorMatrix<E>,
    stream: &mut S,
    gamma: f32,
    lambda: f32,
    mode: ExecMode,
    params: ExecParams,
) -> EpochStats {
    let view = ModelView { p, q, bias: None };
    match mode {
        ExecMode::Sequential => {
            crate::engine::exec::sequential_epoch(data, view, stream, gamma, lambda)
        }
        ExecMode::StaleAdditive => {
            crate::engine::exec::stale_additive_epoch(data, view, stream, gamma, lambda)
        }
        ExecMode::Threaded => crate::engine::exec::threaded_epoch(
            data,
            view,
            stream.workers().max(1),
            params.thread_batch.max(1),
            gamma,
            lambda,
        ),
    }
}

/// Threads the host can run at once (1 when unknown).
pub(crate) fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Block-ticket executor (a drained blocked schedule on real OS threads)
// ---------------------------------------------------------------------------

/// One worker's consecutive run of samples inside one block of the grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    /// The stream worker that ran it: its samples are in that worker's
    /// lane of the plan.
    pub worker: u32,
    /// Row block.
    pub bi: u32,
    /// Column block.
    pub bj: u32,
    /// Earlier segments on column block `bj`.
    pub col_rank: u32,
    /// First sample in the worker's lane.
    pub start: u32,
    /// Samples in the segment.
    pub len: u32,
}

/// A drained epoch cut into segments, in the drained order of their first
/// samples. Segments that share a row block or a column block never
/// overlap in the drained order, and every sample lies in its segment's
/// block: running each block's segments in plan order therefore applies
/// every row's and every column's updates in the drained order.
#[derive(Debug)]
pub(crate) struct BlockPlan {
    /// `(row blocks, column blocks)`, under [`crate::partition::segment_of`].
    pub grid: (u32, u32),
    /// Segments in plan order.
    pub segments: Vec<Segment>,
    /// Each worker's sample indices in drained order.
    pub lanes: Vec<Vec<u32>>,
}

impl BlockPlan {
    /// The samples of segment `s`.
    fn samples(&self, s: &Segment) -> &[u32] {
        let start = s.start as usize;
        &self.lanes[s.worker as usize][start..start + s.len as usize]
    }

    /// Every sample, segment after segment in plan order.
    pub fn in_order(&self) -> impl Iterator<Item = u32> + '_ {
        self.segments
            .iter()
            .flat_map(|s| self.samples(s).iter().copied())
    }
}

/// One block of P or Q rows with its bias cells: a disjoint chunk of the
/// matrix, so that threads can hold different blocks at once.
struct Block<'a, E> {
    first: u32,
    rows: &'a mut [E],
    bias: Option<&'a mut [f32]>,
}

impl<E> Block<'_, E> {
    /// Row `r` (of the whole matrix) and its bias cell.
    #[inline]
    fn row(&mut self, r: u32, k: usize) -> (&mut [E], Option<&mut f32>) {
        let at = (r - self.first) as usize;
        let bias = self.bias.as_deref_mut().map(|b| &mut b[at]);
        (&mut self.rows[at * k..(at + 1) * k], bias)
    }
}

/// Splits `rows` (and `bias`) into the `parts` row ranges of
/// [`crate::partition::segment_range`], each behind its own lock.
fn lock_blocks<'a, E>(
    mut rows: &'a mut [E],
    mut bias: Option<&'a mut [f32]>,
    total: u32,
    parts: u32,
    k: usize,
) -> Vec<Mutex<Block<'a, E>>> {
    (0..parts)
        .map(|b| {
            let range = crate::partition::segment_range(total, parts, b);
            let n = (range.end - range.start) as usize;
            let (head, tail) = std::mem::take(&mut rows).split_at_mut(n * k);
            rows = tail;
            let bias = bias.as_mut().map(|cells| {
                let (head, tail) = std::mem::take(cells).split_at_mut(n);
                *cells = tail;
                head
            });
            Mutex::new(Block {
                first: range.start,
                rows: head,
                bias,
            })
        })
        .collect()
}

/// The executor's shared progress: per row block, its segments in plan
/// order, how many have finished and whether one is running; per column
/// block, how many have finished.
struct Tickets {
    row_queues: Vec<Vec<u32>>,
    rows_done: Vec<u32>,
    rows_busy: Vec<bool>,
    cols_done: Vec<u32>,
    /// Segments not yet finished.
    left: usize,
    /// A thread panicked: the others stop instead of waiting for it.
    aborted: bool,
}

impl Tickets {
    /// The earliest segment that may start: the next on its row block,
    /// and the next on its column block, with no segment running on its
    /// row block. `None` when nothing is ready yet.
    fn ready(&self, plan: &BlockPlan) -> Option<u32> {
        let mut best = None;
        for (bi, queue) in self.row_queues.iter().enumerate() {
            let Some(&id) = queue.get(self.rows_done[bi] as usize) else {
                continue;
            };
            let s = &plan.segments[id as usize];
            let up = !self.rows_busy[bi] && self.cols_done[s.bj as usize] == s.col_rank;
            if up && best.is_none_or(|b| id < b) {
                best = Some(id);
            }
        }
        best
    }
}

/// Marks the tickets aborted if the thread holding it unwinds.
struct AbortOnPanic<'a>(&'a (Mutex<Tickets>, Condvar));

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut tickets) = self.0 .0.lock() {
                tickets.aborted = true;
            }
            self.0 .1.notify_all();
        }
    }
}

/// Runs a verified [`BlockPlan`] on `threads` scoped OS threads.
///
/// P row blocks and Q column blocks (with their bias cells) are disjoint
/// chunks of the model, each behind its own `Mutex`. A segment starts
/// only once every earlier segment on its row block and on its column
/// block has finished (its *tickets*); it then holds its P block and its
/// Q block, in that order, for all of its samples. Every row and column
/// thus sees its updates in plan order, which is the drained order: the
/// result is bit for bit that of applying the drained order in sequence.
/// Each thread runs the earliest segment that is ready. The earliest
/// unfinished segment is always ready or running, so the executor cannot
/// deadlock.
pub(crate) fn block_ticket_epoch<E: Element>(
    data: &CooMatrix,
    model: ModelView<'_, E>,
    plan: &BlockPlan,
    threads: usize,
    gamma: f32,
    lambda: f32,
) {
    let k = model.p.k() as usize;
    let (parts_p, parts_q) = plan.grid;
    let (mu, user, item) = match model.bias {
        Some(b) => (b.mu, Some(&mut b.user[..]), Some(&mut b.item[..])),
        None => (0.0, None, None),
    };
    let (m, n) = (model.p.rows(), model.q.rows());
    let p_blocks = lock_blocks(model.p.as_mut_slice(), user, m, parts_p, k);
    let q_blocks = lock_blocks(model.q.as_mut_slice(), item, n, parts_q, k);
    let mut row_queues = vec![Vec::new(); parts_p as usize];
    for (id, s) in plan.segments.iter().enumerate() {
        row_queues[s.bi as usize].push(id as u32);
    }
    let state = (
        Mutex::new(Tickets {
            row_queues,
            rows_done: vec![0; parts_p as usize],
            rows_busy: vec![false; parts_p as usize],
            cols_done: vec![0; parts_q as usize],
            left: plan.segments.len(),
            aborted: false,
        }),
        Condvar::new(),
    );
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            let (state, p_blocks, q_blocks) = (&state, &p_blocks, &q_blocks);
            scope.spawn(move || {
                let _abort = AbortOnPanic(state);
                let mut stage = vec![0.0f32; 2 * k];
                while let Some(id) = next_ready(state, plan) {
                    let s = plan.segments[id as usize];
                    let mut pb = p_blocks[s.bi as usize].lock().expect("P block poisoned");
                    let mut qb = q_blocks[s.bj as usize].lock().expect("Q block poisoned");
                    for &i in plan.samples(&s) {
                        let e = data.get(i as usize);
                        let (p, bu) = pb.row(e.u, k);
                        let (q, bv) = qb.row(e.v, k);
                        let bias = bu.zip(bv).map(|(bu, bv)| (mu, bu, bv));
                        crate::engine::exec::update_sample(
                            p, q, bias, e.r, gamma, lambda, &mut stage,
                        );
                    }
                    drop((pb, qb));
                    let mut tickets = state.0.lock().expect("tickets poisoned");
                    tickets.rows_busy[s.bi as usize] = false;
                    tickets.rows_done[s.bi as usize] += 1;
                    tickets.cols_done[s.bj as usize] += 1;
                    tickets.left -= 1;
                    drop(tickets);
                    state.1.notify_all();
                }
            });
        }
    });
}

/// Claims the earliest ready segment, waiting until there is one. `None`
/// once every segment has finished (or another thread panicked).
fn next_ready(state: &(Mutex<Tickets>, Condvar), plan: &BlockPlan) -> Option<u32> {
    let mut tickets = state.0.lock().expect("tickets poisoned");
    loop {
        if tickets.aborted || tickets.left == 0 {
            return None;
        }
        if let Some(id) = tickets.ready(plan) {
            tickets.rows_busy[plan.segments[id as usize].bi as usize] = true;
            return Some(id);
        }
        tickets = state.1.wait(tickets).expect("tickets poisoned");
    }
}

// ---------------------------------------------------------------------------
// Real-thread Hogwild! (cross-validation executor)
// ---------------------------------------------------------------------------

/// Shared factor storage for lock-free multi-threaded updates: f32 values
/// bit-cast into `AtomicU32` cells, read/written with relaxed ordering —
/// exactly the memory semantics Hogwild! assumes.
#[derive(Debug)]
pub struct AtomicFactors {
    rows: u32,
    k: u32,
    data: Vec<AtomicU32>,
    /// Sanitizer instance id (lockset analysis, feature `sanitize`).
    #[cfg(feature = "sanitize")]
    san_id: u64,
}

impl AtomicFactors {
    /// Builds atomic storage from a plain factor matrix.
    pub fn from_matrix<E: Element>(m: &FactorMatrix<E>) -> Self {
        AtomicFactors {
            rows: m.rows(),
            k: m.k(),
            data: m
                .as_slice()
                .iter()
                .map(|e| AtomicU32::new(e.to_f32().to_bits()))
                .collect(),
            #[cfg(feature = "sanitize")]
            san_id: crate::sanitize::new_instance(),
        }
    }

    /// Copies the atomic state back into a plain matrix.
    pub fn to_matrix<E: Element>(&self) -> FactorMatrix<E> {
        let vals: Vec<f32> = self
            .data
            .iter()
            .map(|a| f32::from_bits(a.load(Ordering::Relaxed)))
            .collect();
        FactorMatrix::from_f32_slice(self.rows, self.k, &vals)
    }

    /// Reads row `r` into `out`.
    pub fn load_row(&self, r: u32, out: &mut [f32]) {
        #[cfg(feature = "sanitize")]
        crate::sanitize::on_access(
            "atomic",
            (self.san_id, r),
            crate::sanitize::AccessKind::Read,
        );
        let k = self.k as usize;
        let base = r as usize * k;
        for (o, cell) in out.iter_mut().zip(&self.data[base..base + k]) {
            *o = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// Writes row `r` from `vals` (racy by design).
    pub fn store_row(&self, r: u32, vals: &[f32]) {
        #[cfg(feature = "sanitize")]
        crate::sanitize::on_access(
            "atomic",
            (self.san_id, r),
            crate::sanitize::AccessKind::Write,
        );
        let k = self.k as usize;
        let base = r as usize * k;
        for (cell, &v) in self.data[base..base + k].iter().zip(vals) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Runs one epoch of batch-Hogwild! on real OS threads. Each thread claims
/// `batch`-sample chunks off a shared atomic counter and updates the shared
/// atomic factors lock-free. Returns the number of updates executed.
pub fn threaded_hogwild_epoch(
    data: &CooMatrix,
    p: &Arc<AtomicFactors>,
    q: &Arc<AtomicFactors>,
    threads: usize,
    batch: usize,
    gamma: f32,
    lambda: f32,
) -> u64 {
    assert!(threads > 0 && batch > 0);
    let counter = AtomicUsize::new(0);
    let n = data.nnz();
    let k = p.k as usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let counter = &counter;
            let p = Arc::clone(p);
            let q = Arc::clone(q);
            handles.push(scope.spawn(move || {
                let mut pu = vec![0.0f32; k];
                let mut qv = vec![0.0f32; k];
                let mut done = 0u64;
                loop {
                    let start = counter.fetch_add(batch, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + batch).min(n);
                    for i in start..end {
                        let e = data.get(i);
                        p.load_row(e.u, &mut pu);
                        q.load_row(e.v, &mut qv);
                        let err = e.r - pu.iter().zip(&qv).map(|(a, b)| a * b).sum::<f32>();
                        for j in 0..k {
                            let pj = pu[j];
                            let qj = qv[j];
                            pu[j] = pj + gamma * (err * qj - lambda * pj);
                            qv[j] = qj + gamma * (err * pj - lambda * qj);
                        }
                        p.store_row(e.u, &pu);
                        q.store_row(e.v, &qv);
                        done += 1;
                    }
                }
                done
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{BatchHogwildStream, SerialStream};
    use cumf_rng::ChaCha8Rng;
    use cumf_rng::SeedableRng;

    fn tiny_data() -> CooMatrix {
        let mut coo = CooMatrix::new(20, 20);
        for i in 0..200u32 {
            coo.push(i % 20, (i * 7) % 20, ((i % 5) as f32) - 2.0);
        }
        coo
    }

    fn init(m: u32, n: u32, k: u32) -> (FactorMatrix<f32>, FactorMatrix<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        (
            FactorMatrix::random_init(m, k, &mut rng),
            FactorMatrix::random_init(n, k, &mut rng),
        )
    }

    #[test]
    fn sequential_mode_counts_updates() {
        let data = tiny_data();
        let (mut p, mut q) = init(20, 20, 4);
        let mut stream = SerialStream::new(data.nnz());
        let stats = run_epoch(
            &data,
            &mut p,
            &mut q,
            &mut stream,
            0.05,
            0.01,
            ExecMode::Sequential,
        );
        assert_eq!(stats.updates, 200);
        assert_eq!(stats.stalls, 0);
        assert_eq!(stats.rounds, 201); // +1 round to observe exhaustion
    }

    #[test]
    fn stale_additive_single_worker_equals_sequential() {
        // With one worker there are no collisions: both modes must produce
        // identical models.
        let data = tiny_data();
        let (mut p1, mut q1) = init(20, 20, 4);
        let (mut p2, mut q2) = (p1.clone(), q1.clone());
        let mut s1 = SerialStream::new(data.nnz());
        let mut s2 = SerialStream::new(data.nnz());
        run_epoch(
            &data,
            &mut p1,
            &mut q1,
            &mut s1,
            0.05,
            0.01,
            ExecMode::Sequential,
        );
        run_epoch(
            &data,
            &mut p2,
            &mut q2,
            &mut s2,
            0.05,
            0.01,
            ExecMode::StaleAdditive,
        );
        for r in 0..20 {
            for (a, b) in p1.row(r).iter().zip(p2.row(r)) {
                assert!((a - b).abs() < 1e-6);
            }
            for (a, b) in q1.row(r).iter().zip(q2.row(r)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn collisions_are_detected() {
        // 2 workers on a 1x1 matrix: every round collides on both axes.
        let mut coo = CooMatrix::new(1, 1);
        for _ in 0..10 {
            coo.push(0, 0, 1.0);
        }
        let (mut p, mut q) = init(1, 1, 2);
        let mut stream = BatchHogwildStream::new(coo.nnz(), 2, 1);
        let stats = run_epoch(
            &coo,
            &mut p,
            &mut q,
            &mut stream,
            0.01,
            0.0,
            ExecMode::StaleAdditive,
        );
        assert_eq!(stats.updates, 10);
        assert!(stats.row_collisions >= 4, "{stats:?}");
        assert!(stats.col_collisions >= 4);
    }

    #[test]
    fn wide_matrix_has_rare_collisions() {
        let mut coo = CooMatrix::new(1000, 1000);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        use cumf_rng::Rng;
        for _ in 0..2000 {
            coo.push(rng.gen_range(0..1000), rng.gen_range(0..1000), 1.0);
        }
        let (mut p, mut q) = init(1000, 1000, 2);
        let mut stream = BatchHogwildStream::new(coo.nnz(), 4, 16);
        let stats = run_epoch(
            &coo,
            &mut p,
            &mut q,
            &mut stream,
            0.01,
            0.0,
            ExecMode::StaleAdditive,
        );
        // s=4 workers, 1000x1000: collision probability per round ~ 6/1000.
        let frac = (stats.row_collisions + stats.col_collisions) as f64 / stats.rounds as f64;
        assert!(frac < 0.05, "collision fraction {frac}");
    }

    #[test]
    fn stall_fraction() {
        let s = EpochStats {
            updates: 75,
            rounds: 100,
            stalls: 25,
            ..Default::default()
        };
        assert!((s.stall_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(EpochStats::default().stall_fraction(), 0.0);
    }

    #[test]
    fn threaded_hogwild_runs_all_updates() {
        let data = tiny_data();
        let (p0, q0) = init(20, 20, 4);
        let p = Arc::new(AtomicFactors::from_matrix(&p0));
        let q = Arc::new(AtomicFactors::from_matrix(&q0));
        let updates = threaded_hogwild_epoch(&data, &p, &q, 4, 16, 0.05, 0.01);
        assert_eq!(updates, 200);
        // The model must have moved.
        let p_after: FactorMatrix<f32> = p.to_matrix();
        assert_ne!(p_after, p0);
    }

    #[test]
    fn atomic_factors_round_trip() {
        let (p0, _) = init(5, 5, 3);
        let a = AtomicFactors::from_matrix(&p0);
        let back: FactorMatrix<f32> = a.to_matrix();
        assert_eq!(back, p0);
        let mut row = vec![0.0f32; 3];
        a.load_row(2, &mut row);
        assert_eq!(&row[..], p0.row(2));
        a.store_row(2, &[9.0, 8.0, 7.0]);
        a.load_row(2, &mut row);
        assert_eq!(row, vec![9.0, 8.0, 7.0]);
    }
}

// ---------------------------------------------------------------------------
// Lock-striped multi-threaded executor (conflict-free by locking)
// ---------------------------------------------------------------------------

/// Shared f32 factor storage protected by striped row locks — the
/// "just take locks" alternative to Hogwild! that shared-memory CPU
/// implementations use when they cannot tolerate races. Each row maps to
/// one of `shards` `std::sync::Mutex` stripes; an update locks its P
/// stripe and Q stripe in canonical order (P side first, then Q side,
/// ties impossible since the matrices are distinct lock arrays), so no
/// deadlock is possible.
///
/// Every acquisition is counted in the observability registry, and
/// acquisitions that found the stripe already held are counted
/// separately — the contention ratio is the measured analogue of the
/// paper's update-conflict probability.
#[derive(Debug)]
pub struct StripedFactors {
    rows: u32,
    k: u32,
    shards: usize,
    locks: Vec<std::sync::Mutex<()>>,
    data: Vec<std::cell::UnsafeCell<f32>>,
    obs_acquired: cumf_obs::Counter,
    obs_contended: cumf_obs::Counter,
    obs_poisoned: cumf_obs::Counter,
    /// Sanitizer instance id (lockset analysis, feature `sanitize`).
    #[cfg(feature = "sanitize")]
    san_id: u64,
}

// SAFETY: all mutable access to `data` rows happens while holding the
// stripe lock covering that row (enforced by the private API below).
unsafe impl Sync for StripedFactors {}
unsafe impl Send for StripedFactors {}

impl StripedFactors {
    /// Builds striped storage from a factor matrix.
    pub fn from_matrix<E: Element>(m: &FactorMatrix<E>, shards: usize) -> Self {
        Self::from_matrix_in(m, shards, cumf_obs::registry())
    }

    /// [`Self::from_matrix`], counting lock events in `registry` instead
    /// of the process-global one.
    fn from_matrix_in<E: Element>(
        m: &FactorMatrix<E>,
        shards: usize,
        registry: &cumf_obs::Registry,
    ) -> Self {
        assert!(shards > 0);
        StripedFactors {
            rows: m.rows(),
            k: m.k(),
            shards,
            locks: (0..shards).map(|_| std::sync::Mutex::new(())).collect(),
            data: m
                .as_slice()
                .iter()
                .map(|e| std::cell::UnsafeCell::new(e.to_f32()))
                .collect(),
            obs_acquired: registry.counter(
                "cumf_core_stripe_acquisitions_total",
                "Row-stripe lock acquisitions in the lock-striped executor",
            ),
            obs_contended: registry.counter(
                "cumf_core_stripe_contended_total",
                "Row-stripe acquisitions that found the stripe already held",
            ),
            obs_poisoned: registry.counter(
                "cumf_core_stripe_poisoned_total",
                "Row-stripe acquisitions that found the stripe poisoned by a panicked writer",
            ),
            #[cfg(feature = "sanitize")]
            san_id: crate::sanitize::new_instance(),
        }
    }

    /// Copies back into a plain matrix (requires exclusive access: `&mut`).
    pub fn into_matrix<E: Element>(self) -> FactorMatrix<E> {
        let vals: Vec<f32> = self.data.into_iter().map(|c| c.into_inner()).collect();
        FactorMatrix::from_f32_slice(self.rows, self.k, &vals)
    }

    #[inline]
    fn stripe(&self, row: u32) -> usize {
        row as usize % self.shards
    }

    /// The stripe pair a two-row update must acquire, in canonical
    /// ascending stripe order regardless of the argument order. This is
    /// the single place the two-row acquisition order is decided, so the
    /// static deadlock pass and the runtime path cannot drift apart.
    #[inline]
    pub fn ordered_stripes(&self, a: u32, b: u32) -> (usize, usize) {
        let (sa, sb) = (self.stripe(a), self.stripe(b));
        (sa.min(sb), sa.max(sb))
    }

    /// Acquires one stripe lock, tallying contention and surfacing
    /// poison. Acquisitions are counted only once the guard is actually
    /// held; a stripe found busy counts as contended, while a stripe
    /// poisoned by a panicked writer is counted separately
    /// (`stripe_poisoned_total`) and propagates a panic — the factors
    /// under it may be torn.
    #[inline]
    fn lock_stripe(&self, stripe: usize) -> std::sync::MutexGuard<'_, ()> {
        let lock = &self.locks[stripe];
        let guard = match lock.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.obs_contended.inc();
                match lock.lock() {
                    Ok(guard) => guard,
                    Err(_) => {
                        self.obs_poisoned.inc();
                        panic!(
                            "factor stripe {stripe} poisoned: a writer panicked while \
                             holding it, the rows it covers may be torn"
                        );
                    }
                }
            }
            Err(std::sync::TryLockError::Poisoned(_)) => {
                self.obs_poisoned.inc();
                panic!(
                    "factor stripe {stripe} poisoned: a writer panicked while \
                     holding it, the rows it covers may be torn"
                );
            }
        };
        self.obs_acquired.inc();
        guard
    }

    /// Runs `f` with a mutable view of row `row` while holding its stripe
    /// lock.
    #[inline]
    fn with_row_locked<R>(&self, row: u32, f: impl FnOnce(&mut [f32]) -> R) -> R {
        let stripe = self.stripe(row);
        let _guard = self.lock_stripe(stripe);
        #[cfg(feature = "sanitize")]
        let _held = crate::sanitize::hold((self.san_id << 16) | stripe as u64);
        #[cfg(feature = "sanitize")]
        crate::sanitize::on_access(
            "striped",
            (self.san_id, row),
            crate::sanitize::AccessKind::Write,
        );
        let k = self.k as usize;
        let base = row as usize * k;
        // SAFETY: the stripe lock serialises all access to rows of this
        // stripe; the returned slice does not escape `f`.
        let slice = unsafe { std::slice::from_raw_parts_mut(self.data[base].get(), k) };
        f(slice)
    }

    /// Runs `f` with mutable views of two *distinct* rows of this matrix
    /// (passed in argument order) while holding both rows' stripe locks.
    ///
    /// The locks are acquired in canonical ascending **stripe** order
    /// ([`Self::ordered_stripes`]), whatever order the rows are given
    /// in, so two concurrent two-row updates can never wait on each
    /// other in a cycle. When both rows share a stripe the lock is taken
    /// once. This is the update shape the online-SGD / fold-in paths
    /// need (two rows of the same factor matrix touched atomically);
    /// the acquisition order is certified by the `cumf-analyze` deadlock
    /// pass (`two-row-update` protocol) and its descending broken twin
    /// is refuted there.
    pub fn with_two_rows_locked<R>(
        &self,
        a: u32,
        b: u32,
        f: impl FnOnce(&mut [f32], &mut [f32]) -> R,
    ) -> R {
        assert_ne!(a, b, "two-row update needs distinct rows (got {a} twice)");
        assert!(
            a < self.rows && b < self.rows,
            "rows ({a}, {b}) out of bounds for {} rows",
            self.rows
        );
        let (lo, hi) = self.ordered_stripes(a, b);
        let _guard_lo = self.lock_stripe(lo);
        let _guard_hi = if hi != lo {
            Some(self.lock_stripe(hi))
        } else {
            None
        };
        #[cfg(feature = "sanitize")]
        let _held_lo = crate::sanitize::hold((self.san_id << 16) | lo as u64);
        #[cfg(feature = "sanitize")]
        let _held_hi = (hi != lo).then(|| crate::sanitize::hold((self.san_id << 16) | hi as u64));
        #[cfg(feature = "sanitize")]
        for row in [a, b] {
            crate::sanitize::on_access(
                "striped",
                (self.san_id, row),
                crate::sanitize::AccessKind::Write,
            );
        }
        let k = self.k as usize;
        // SAFETY: the stripe locks covering both rows are held for the
        // whole call (one lock when the stripes coincide), the rows are
        // distinct so the two k-cell ranges are disjoint, and neither
        // slice escapes `f`.
        let row_a = unsafe { std::slice::from_raw_parts_mut(self.data[a as usize * k].get(), k) };
        let row_b = unsafe { std::slice::from_raw_parts_mut(self.data[b as usize * k].get(), k) };
        f(row_a, row_b)
    }
}

// ---------------------------------------------------------------------------
// Static lock-acquisition site annotations
// ---------------------------------------------------------------------------

/// One statically-declared lock-acquisition site: while holding `held`
/// (`None` at a protocol entry), the anchored code acquires `acquires`.
///
/// These annotations are the instrument-free extraction layer of the
/// `cumf-analyze` deadlock pass: they live next to the code they
/// describe, and the analyzer builds the global lock-order graph from
/// them, proves it acyclic (or refutes it with a cycle witness), and
/// derives the FIFO wait-chain bounds of the liveness certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockSiteAnno {
    /// Protocol the site belongs to (one lock-order graph per protocol).
    pub protocol: &'static str,
    /// Lock class held when the acquisition happens (`None` = entry).
    pub held: Option<&'static str>,
    /// Lock class being acquired.
    pub acquires: &'static str,
    /// Source anchor of the acquisition (`file::item`).
    pub anchor: &'static str,
    /// Why the order is what it is.
    pub note: &'static str,
}

/// Every blocking acquisition this module ships, as consumed by the
/// deadlock analyzer. Keep in sync with the executors above: the
/// broken-twin refutations in `cumf-analyze` are what make a drift here
/// visible.
pub const LOCK_SITES: &[LockSiteAnno] = &[
    LockSiteAnno {
        protocol: "striped-epoch",
        held: None,
        acquires: "P.stripe",
        anchor: "crates/core/src/concurrent.rs::striped_locked_epoch",
        note: "per-update entry: the P-side stripe is always taken first",
    },
    LockSiteAnno {
        protocol: "striped-epoch",
        held: Some("P.stripe"),
        acquires: "Q.stripe",
        anchor: "crates/core/src/concurrent.rs::striped_locked_epoch",
        note: "canonical P-then-Q order; the matrices are distinct lock arrays",
    },
    LockSiteAnno {
        protocol: "two-row-update",
        held: None,
        acquires: "stripe.lo",
        anchor: "crates/core/src/concurrent.rs::StripedFactors::with_two_rows_locked",
        note: "entry: the lower-indexed stripe of the pair is taken first",
    },
    LockSiteAnno {
        protocol: "two-row-update",
        held: Some("stripe.lo"),
        acquires: "stripe.hi",
        anchor: "crates/core/src/concurrent.rs::StripedFactors::with_two_rows_locked",
        note: "ascending stripe order via ordered_stripes; equal stripes lock once",
    },
    LockSiteAnno {
        protocol: "block-ticket",
        held: None,
        acquires: "P.block",
        anchor: "crates/core/src/concurrent.rs::block_ticket_epoch",
        note: "per-segment entry: the segment's P row block is always taken first",
    },
    LockSiteAnno {
        protocol: "block-ticket",
        held: Some("P.block"),
        acquires: "Q.block",
        anchor: "crates/core/src/concurrent.rs::block_ticket_epoch",
        note: "canonical P-then-Q order; the tickets already keep two running \
               segments off each other's blocks",
    },
];

/// Every shipped update path, lifted into the asynchrony IR consumed by
/// the `cumf-analyze` staleness certifier. Like [`LOCK_SITES`], these
/// annotations live next to the executors they describe; the analyzer
/// instantiates each path, computes its worst-case per-row staleness
/// bound τ, and cross-validates τ by exhaustive interleaving model
/// checking. Keep in sync with the executors: the analyzer panics on
/// drift (a path here with no model, or a model with no path here).
pub const UPDATE_PATHS: &[crate::stale::UpdatePathAnno] = &[
    crate::stale::UpdatePathAnno {
        path: "solver-hogwild",
        footprint: crate::stale::Footprint::SharedRows,
        sync: crate::stale::SyncKind::RoundBarrier,
        anchor: "crates/core/src/engine/exec.rs::stale_additive_epoch",
        note: "lockstep rounds: snapshot reads, additive commits, barrier \
               every round — each of the other W−1 workers publishes at \
               most one write between a read and the write it feeds",
    },
    crate::stale::UpdatePathAnno {
        path: "batch-hogwild-threaded",
        footprint: crate::stale::Footprint::SharedRows,
        sync: crate::stale::SyncKind::EpochJoin,
        anchor: "crates/core/src/concurrent.rs::threaded_hogwild_epoch",
        note: "free-running threads claim batches off a shared counter; \
               the only barrier is the epoch join, so τ is bounded by \
               (W−1) × the per-epoch update quota",
    },
    crate::stale::UpdatePathAnno {
        path: "striped-epoch",
        footprint: crate::stale::Footprint::RowLocked,
        sync: crate::stale::SyncKind::LockRelease,
        anchor: "crates/core/src/concurrent.rs::striped_locked_epoch",
        note: "every read-modify-write holds both row stripes, so the \
               read a write feeds is never stale (τ = 0)",
    },
    crate::stale::UpdatePathAnno {
        path: "two-row-update",
        footprint: crate::stale::Footprint::RowLocked,
        sync: crate::stale::SyncKind::LockRelease,
        anchor: "crates/core/src/concurrent.rs::StripedFactors::with_two_rows_locked",
        note: "both rows locked in ascending stripe order across the \
               whole update — serialised per row pair (τ = 0)",
    },
    crate::stale::UpdatePathAnno {
        path: "block-ticket",
        footprint: crate::stale::Footprint::RowLocked,
        sync: crate::stale::SyncKind::LockRelease,
        anchor: "crates/core/src/concurrent.rs::block_ticket_epoch",
        note: "each segment holds its P block and Q block across all of its \
               read-modify-writes, and starts only after the earlier \
               segments on both blocks released them (τ = 0)",
    },
    crate::stale::UpdatePathAnno {
        path: "partitioned-grid",
        footprint: crate::stale::Footprint::DisjointRows,
        sync: crate::stale::SyncKind::GridIndependence,
        anchor: "crates/core/src/multi_gpu.rs::train_partitioned",
        note: "Eq. 6 wave schedule: concurrently-executed blocks share no \
               row or column segment, so cross-writer row sets are \
               disjoint (τ = 0 across blocks)",
    },
];

/// One epoch of lock-striped parallel SGD on real OS threads: each thread
/// claims `batch`-sample chunks off a shared counter and performs each
/// update under its rows' stripe locks (P row lock held, then Q row lock —
/// canonical order, deadlock-free). Returns the number of updates.
pub fn striped_locked_epoch(
    data: &CooMatrix,
    p: &StripedFactors,
    q: &StripedFactors,
    threads: usize,
    batch: usize,
    gamma: f32,
    lambda: f32,
) -> u64 {
    assert!(threads > 0 && batch > 0);
    assert_eq!(p.k, q.k, "P and Q must share k");
    let counter = AtomicUsize::new(0);
    let n = data.nnz();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let counter = &counter;
            handles.push(scope.spawn(move || {
                let mut done = 0u64;
                loop {
                    let start = counter.fetch_add(batch, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + batch).min(n) {
                        let e = data.get(i);
                        // Canonical order: P stripe, then Q stripe.
                        p.with_row_locked(e.u, |pu| {
                            q.with_row_locked(e.v, |qv| {
                                crate::kernel::sgd_update(pu, qv, e.r, gamma, lambda);
                            })
                        });
                        done += 1;
                    }
                }
                done
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    })
}

#[cfg(test)]
mod striped_tests {
    use super::*;
    use crate::metrics::rmse;
    use cumf_data::synth::{generate, SynthConfig};
    use cumf_rng::ChaCha8Rng;
    use cumf_rng::SeedableRng;

    #[test]
    fn striped_epoch_runs_all_updates_and_converges() {
        let d = generate(&SynthConfig {
            m: 200,
            n: 150,
            k_true: 3,
            train_samples: 10_000,
            test_samples: 1_000,
            noise_std: 0.1,
            row_skew: 0.4,
            col_skew: 0.4,
            rating_offset: 1.0,
            seed: 8,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let p0: FactorMatrix<f32> = FactorMatrix::random_init(200, 5, &mut rng);
        let q0: FactorMatrix<f32> = FactorMatrix::random_init(150, 5, &mut rng);
        let p = StripedFactors::from_matrix(&p0, 64);
        let q = StripedFactors::from_matrix(&q0, 64);
        let mut total = 0;
        for _ in 0..12 {
            total += striped_locked_epoch(&d.train, &p, &q, 4, 64, 0.1, 0.02);
        }
        assert_eq!(total, 12 * 10_000);
        let pm: FactorMatrix<f32> = p.into_matrix();
        let qm: FactorMatrix<f32> = q.into_matrix();
        let r = rmse(&d.test, &pm, &qm);
        assert!(r < 0.25, "striped-lock SGD should converge, got {r}");
    }

    #[test]
    fn striped_storage_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(10, 3, &mut rng);
        let s = StripedFactors::from_matrix(&m, 4);
        s.with_row_locked(3, |row| {
            row.copy_from_slice(&[7.0, 8.0, 9.0]);
        });
        let back: FactorMatrix<f32> = s.into_matrix();
        assert_eq!(back.row(3), &[7.0, 8.0, 9.0]);
        assert_eq!(back.row(0), m.row(0));
    }

    #[test]
    fn poisoned_stripe_counts_distinctly_and_acquisition_counts_after_hold() {
        // A registry of its own: tests running in parallel bump the
        // process-global counters (or switch them off).
        let registry = cumf_obs::Registry::new();
        registry.set_enabled(true);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(4, 2, &mut rng);
        let s = StripedFactors::from_matrix_in(&m, 1, &registry);
        // A writer panicking under the stripe poisons it (one successful
        // acquisition).
        let join = std::thread::scope(|scope| {
            scope
                .spawn(|| s.with_row_locked(0, |_| panic!("writer dies mid-update")))
                .join()
        });
        assert!(join.is_err());
        // The next acquisition must surface the poison distinctly: the
        // poisoned counter ticks, the acquisition counter does NOT (the
        // guard was never held).
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.with_row_locked(1, |row| row[0])
        }));
        let err = *attempt.unwrap_err().downcast::<String>().unwrap();
        assert!(err.contains("poisoned"), "{err}");
        assert_eq!(s.obs_poisoned.get(), 1);
        assert_eq!(
            s.obs_acquired.get(),
            1,
            "only the writer's successful acquisition may be counted"
        );
    }

    #[test]
    fn two_row_update_acquires_ascending_stripes() {
        // The canonical order is a pure function of the (unordered) row
        // pair: sorted by stripe index and symmetric in the arguments —
        // the property the deadlock pass certifies statically.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(64, 2, &mut rng);
        let s = StripedFactors::from_matrix(&m, 7);
        use cumf_rng::Rng;
        for _ in 0..200 {
            let a = rng.gen_range(0u32..64);
            let b = rng.gen_range(0u32..64);
            let (lo, hi) = s.ordered_stripes(a, b);
            assert!(lo <= hi, "stripes out of order for rows ({a}, {b})");
            assert_eq!(
                (lo, hi),
                s.ordered_stripes(b, a),
                "order must not depend on argument order"
            );
        }
        // Argument order is preserved for the data even when the stripe
        // order swaps: rows 8 and 3 map to stripes 1 and 3, so the lock
        // order is (1, 3) but the slices arrive as (row 8, row 3).
        s.with_two_rows_locked(8, 3, |ra, rb| {
            ra.copy_from_slice(&[8.0, 8.0]);
            rb.copy_from_slice(&[3.0, 3.0]);
        });
        // Same-stripe pair (rows 2 and 9 are both stripe 2): locked once.
        s.with_two_rows_locked(2, 9, |ra, rb| {
            ra[0] = 2.0;
            rb[0] = 9.0;
        });
        let back: FactorMatrix<f32> = s.into_matrix();
        assert_eq!(back.row(8), &[8.0, 8.0]);
        assert_eq!(back.row(3), &[3.0, 3.0]);
        assert_eq!(back.row(2)[0], 2.0);
        assert_eq!(back.row(9)[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn two_row_update_rejects_duplicate_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(4, 2, &mut rng);
        let s = StripedFactors::from_matrix(&m, 2);
        s.with_two_rows_locked(1, 1, |_, _| {});
    }

    #[test]
    fn two_row_heavy_contention_is_deadlock_free() {
        // Half the threads update (0, 1), half (1, 0): under a naive
        // argument-order acquisition this is the ABBA pattern; the
        // canonical ascending-stripe order must let it finish.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let m: FactorMatrix<f32> = FactorMatrix::random_init(2, 2, &mut rng);
        let s = StripedFactors::from_matrix(&m, 2);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = &s;
                scope.spawn(move || {
                    let (a, b) = if t % 2 == 0 { (0, 1) } else { (1, 0) };
                    for _ in 0..2_000 {
                        s.with_two_rows_locked(a, b, |ra, rb| {
                            ra[0] += 1.0;
                            rb[1] += 1.0;
                        });
                    }
                });
            }
        });
        let back: FactorMatrix<f32> = s.into_matrix();
        // 8 threads x 2000 updates each touched cell (a, 0) exactly once
        // per update: the totals prove no update was lost or torn.
        let total = (back.row(0)[0] - m.row(0)[0]) + (back.row(1)[0] - m.row(1)[0]);
        assert!((total - 16_000.0).abs() < 1e-3, "lost updates: {total}");
    }

    #[test]
    fn lock_sites_name_real_protocols() {
        // The annotation table is consumed by the deadlock analyzer;
        // entries must anchor into this file and every `held` class must
        // appear as an `acquires` of the same protocol (no dangling
        // hold-edges).
        for site in LOCK_SITES {
            assert!(site.anchor.contains("concurrent.rs"), "{site:?}");
            if let Some(held) = site.held {
                assert!(
                    LOCK_SITES
                        .iter()
                        .any(|s| s.protocol == site.protocol && s.acquires == held),
                    "dangling held class {held} in {site:?}"
                );
            }
        }
    }

    #[test]
    fn heavy_contention_is_deadlock_free() {
        // All samples share one row and one column: every update contends
        // on the same two stripes. Must finish (canonical lock order).
        let mut coo = CooMatrix::new(2, 2);
        for _ in 0..2_000 {
            coo.push(0, 0, 1.0);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p0: FactorMatrix<f32> = FactorMatrix::random_init(2, 3, &mut rng);
        let q0: FactorMatrix<f32> = FactorMatrix::random_init(2, 3, &mut rng);
        let p = StripedFactors::from_matrix(&p0, 2);
        let q = StripedFactors::from_matrix(&q0, 2);
        let done = striped_locked_epoch(&coo, &p, &q, 8, 16, 0.01, 0.0);
        assert_eq!(done, 2_000);
    }
}
