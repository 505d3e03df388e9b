//! Execution-engine layer: how one epoch's updates touch the model.
//!
//! An [`ExecEngine`] turns a scheduled stream of samples into model
//! mutations under a chosen execution semantics:
//!
//! * [`SequentialEngine`] — apply each update in worker order (exact for
//!   conflict-free schedules; blocked schedules run on every core through
//!   the block-ticket executor of [`crate::concurrent`], bit for bit);
//! * [`StaleAdditiveEngine`] — the round-based Hogwild! conflict engine
//!   (snapshot reads, additive commits) of [`crate::concurrent`];
//! * [`ThreadedHogwildEngine`] — real OS threads racing on atomic f32
//!   cells (cross-validation on multi-core hosts).
//!
//! All three support the bias-free model; the first two also train the
//! biased model (`μ + b_u + b_v + p·q`), extending the same stale-read /
//! additive-commit semantics to the bias cells.

use std::ops::Range;
use std::sync::Arc;

use cumf_data::{CooMatrix, Entry};

use crate::concurrent::{
    block_ticket_epoch, host_threads, threaded_hogwild_epoch, AtomicFactors, BlockPlan, EpochStats,
    ExecMode, Segment,
};
use crate::feature::Element;
use crate::kernel::sgd_update;
use crate::partition::{segment_of, segment_range};
use crate::sched::{StreamItem, UpdateStream};

use super::model::ModelView;

/// An execution semantics for one epoch of scheduled updates.
pub trait ExecEngine<E: Element> {
    /// Runs one epoch of `stream` against the model view.
    fn run_epoch(
        &mut self,
        data: &CooMatrix,
        model: ModelView<'_, E>,
        stream: &mut dyn UpdateStream,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats;

    /// Engine name for traces and reports.
    fn name(&self) -> &'static str;
}

/// Immediate in-order application ([`ExecMode::Sequential`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialEngine;

/// Round-snapshot reads + additive commits ([`ExecMode::StaleAdditive`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaleAdditiveEngine;

/// Real-thread lock-free Hogwild! over atomic factors. Ignores the stream's
/// ordering (threads claim `batch`-sample chunks off a shared counter) and
/// does not support the biased model.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedHogwildEngine {
    /// OS threads to spawn.
    pub threads: usize,
    /// Samples claimed per counter grab.
    pub batch: usize,
}

impl<E: Element> ExecEngine<E> for SequentialEngine {
    fn run_epoch(
        &mut self,
        data: &CooMatrix,
        model: ModelView<'_, E>,
        stream: &mut dyn UpdateStream,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats {
        sequential_epoch(data, model, stream, gamma, lambda)
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

impl<E: Element> ExecEngine<E> for StaleAdditiveEngine {
    fn run_epoch(
        &mut self,
        data: &CooMatrix,
        model: ModelView<'_, E>,
        stream: &mut dyn UpdateStream,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats {
        stale_additive_epoch(data, model, stream, gamma, lambda)
    }

    fn name(&self) -> &'static str {
        "stale-additive"
    }
}

impl<E: Element> ExecEngine<E> for ThreadedHogwildEngine {
    fn run_epoch(
        &mut self,
        data: &CooMatrix,
        model: ModelView<'_, E>,
        stream: &mut dyn UpdateStream,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats {
        let _ = stream;
        threaded_epoch(data, model, self.threads, self.batch, gamma, lambda)
    }

    fn name(&self) -> &'static str {
        "threaded-hogwild"
    }
}

/// The engine implementing an [`ExecMode`], sized for `workers` parallel
/// workers fetching `batch` samples at a time (both only used by the
/// threaded mode).
pub fn engine_for<E: Element>(
    mode: ExecMode,
    workers: usize,
    batch: usize,
) -> Box<dyn ExecEngine<E>> {
    match mode {
        ExecMode::Sequential => Box::new(SequentialEngine),
        ExecMode::StaleAdditive => Box::new(StaleAdditiveEngine),
        ExecMode::Threaded => Box::new(ThreadedHogwildEngine {
            threads: workers.max(1),
            batch: batch.max(1),
        }),
    }
}

/// The round loop both replay engines share: each round polls every live
/// worker of the stream once and gathers its samples into a reused
/// buffer, counting rounds, stalls, updates and collisions as it goes.
struct Rounds {
    exhausted: Vec<bool>,
    live: usize,
    /// The current round's samples, in worker order.
    samples: Vec<Entry>,
    /// The worker and sample index of each of `samples`.
    sources: Vec<(u32, usize)>,
    /// Bitsets over P rows and Q columns for collision accounting,
    /// all-zero between rounds.
    seen_rows: Vec<u64>,
    seen_cols: Vec<u64>,
}

impl Rounds {
    fn new(workers: usize, data: &CooMatrix) -> Self {
        Rounds {
            exhausted: vec![false; workers],
            live: workers,
            samples: Vec::with_capacity(workers),
            sources: Vec::with_capacity(workers),
            seen_rows: vec![0; (data.rows() as usize).div_ceil(64)],
            seen_cols: vec![0; (data.cols() as usize).div_ceil(64)],
        }
    }

    /// Gathers the next round; `false` once every worker is exhausted.
    /// The caller applies every gathered sample.
    fn next<S: UpdateStream + ?Sized>(
        &mut self,
        data: &CooMatrix,
        stream: &mut S,
        stats: &mut EpochStats,
    ) -> bool {
        if self.live == 0 {
            return false;
        }
        stats.rounds += 1;
        self.samples.clear();
        self.sources.clear();
        for (w, done) in self.exhausted.iter_mut().enumerate() {
            if *done {
                continue;
            }
            match stream.next(w) {
                StreamItem::Sample(i) => self.sources.push((w as u32, i)),
                StreamItem::Stall => stats.stalls += 1,
                StreamItem::Exhausted => {
                    *done = true;
                    self.live -= 1;
                }
            }
        }
        // Fetched after the stream is polled, so the loads overlap.
        let fetch = self.sources.iter().map(|&(_, i)| data.get(i));
        self.samples.extend(fetch);
        stats.updates += self.samples.len() as u64;
        let rows = self.samples.iter().map(|e| e.u);
        stats.row_collisions += collides(&mut self.seen_rows, rows) as u64;
        let cols = self.samples.iter().map(|e| e.v);
        stats.col_collisions += collides(&mut self.seen_cols, cols) as u64;
        true
    }
}

/// Whether two of `keys` are equal. Marks each key in the bitset `seen`,
/// then zeroes the words it marked, so `seen` is all-zero again on return.
fn collides(seen: &mut [u64], keys: impl Iterator<Item = u32> + Clone) -> bool {
    let mut hit = false;
    for key in keys.clone() {
        let (word, bit) = (key as usize / 64, 1u64 << (key % 64));
        hit |= seen[word] & bit != 0;
        seen[word] |= bit;
    }
    for key in keys {
        seen[key as usize / 64] = 0;
    }
    hit
}

/// One epoch of immediate in-order application. With biases present, each
/// sample updates `b_u`/`b_v` with the prediction error before the factor
/// rows (both against the pre-update values, as in Algorithm 1).
///
/// Sequential execution is only *exact* for conflict-free schedules, so
/// this engine verifies the invariant as it goes: rounds in which two
/// workers touch the same P row or Q column are counted in
/// [`EpochStats::row_collisions`]/[`EpochStats::col_collisions`]. A racy
/// schedule therefore no longer serialises *silently* — upstream callers
/// ([`crate::solver`]) additionally refuse sequential execution unless the
/// schedule carries a [`crate::sched::ConflictCert`].
///
/// A stream with a block grid ([`UpdateStream::block_grid`]) on a
/// multi-core host is drained first and cut into a block plan, which
/// the block-ticket executor ([`crate::concurrent`]) runs on up to one
/// thread per core, bit for bit as in order. Any other stream, or a
/// drained order that breaks its declared grid, is applied in order.
pub fn sequential_epoch<E: Element, S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    model: ModelView<'_, E>,
    stream: &mut S,
    gamma: f32,
    lambda: f32,
) -> EpochStats {
    let threads = host_threads().min(stream.workers());
    sequential_epoch_on(data, model, stream, gamma, lambda, threads).0
}

/// [`sequential_epoch`] on at most `threads` threads; also says whether
/// the block-ticket executor ran.
fn sequential_epoch_on<E: Element, S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    mut model: ModelView<'_, E>,
    stream: &mut S,
    gamma: f32,
    lambda: f32,
    threads: usize,
) -> (EpochStats, bool) {
    let mut stats = EpochStats::default();
    let mut rounds = Rounds::new(stream.workers(), data);
    let mut stage = vec![0.0f32; 2 * model.p.k() as usize];
    // Plans index samples as u32 and split P and Q by the data's shape.
    let fits = u32::try_from(data.nnz()).is_ok()
        && (model.p.rows(), model.q.rows()) == (data.rows(), data.cols());
    let grid = stream
        .block_grid()
        .filter(|&(p, q)| threads > 1 && fits && p > 0 && q > 0);
    let mut planner = grid.map(|grid| Planner::new(data, grid, stream.workers()));
    while rounds.next(data, stream, &mut stats) {
        for (e, &(w, i)) in rounds.samples.iter().zip(&rounds.sources) {
            if let Some(plan) = planner.as_mut() {
                let Err(reason) = plan.push(w, i as u32, e) else {
                    continue;
                };
                // Every sample before this one keeps to the grid, so the
                // plan so far, segment after segment, is that prefix.
                grid_fallback(stream.name(), &reason);
                let prefix = planner.take().expect("planning").plan;
                for i in prefix.in_order() {
                    apply(&mut model, data.get(i as usize), gamma, lambda, &mut stage);
                }
            }
            apply(&mut model, *e, gamma, lambda, &mut stage);
        }
    }
    match planner {
        Some(planner) => {
            block_ticket_epoch(data, model, &planner.plan, threads, gamma, lambda);
            (stats, true)
        }
        None => (stats, false),
    }
}

/// Applies sample `e` to the model (see [`update_sample`]).
#[inline]
fn apply<E: Element>(
    model: &mut ModelView<'_, E>,
    e: Entry,
    gamma: f32,
    lambda: f32,
    stage: &mut [f32],
) {
    let bias = model.bias.as_deref_mut().map(|b| {
        let (bu, bv) = (&mut b.user[e.u as usize], &mut b.item[e.v as usize]);
        (b.mu, bu, bv)
    });
    let (p, q) = (model.p.row_mut(e.u), model.q.row_mut(e.v));
    update_sample(p, q, bias, e.r, gamma, lambda, stage);
}

/// One SGD step of rating `r` on a P row, a Q row and, for the biased
/// model, `(μ, b_u, b_v)`: the per-sample update of both the in-order
/// path and the block-ticket executor. `stage` holds `2k` floats.
#[inline]
pub(crate) fn update_sample<E: Element>(
    p: &mut [E],
    q: &mut [E],
    bias: Option<(f32, &mut f32, &mut f32)>,
    r: f32,
    gamma: f32,
    lambda: f32,
    stage: &mut [f32],
) {
    let Some((mu, bu, bv)) = bias else {
        sgd_update(p, q, r, gamma, lambda);
        return;
    };
    let (pu, qv) = stage.split_at_mut(p.len());
    E::widen_row(p, pu);
    E::widen_row(q, qv);
    let pred = mu + *bu + *bv + pu.iter().zip(&*qv).map(|(a, b)| a * b).sum::<f32>();
    let err = r - pred;
    *bu += gamma * (err - lambda * *bu);
    *bv += gamma * (err - lambda * *bv);
    for (pj, qj) in pu.iter_mut().zip(qv.iter_mut()) {
        let (p0, q0) = (*pj, *qj);
        *pj = p0 + gamma * (err * q0 - lambda * p0);
        *qj = q0 + gamma * (err * p0 - lambda * q0);
    }
    E::narrow_row(pu, p);
    E::narrow_row(qv, q);
}

/// Counts a declared grid that failed verification, and says why the
/// first time.
fn grid_fallback(stream: &str, reason: &str) {
    cumf_obs::counter(
        "cumf_core_grid_fallback_total",
        "Sequential epochs whose declared block grid failed verification and ran on one core",
    )
    .inc();
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "warning: the {stream} schedule breaks its declared block grid ({reason}); \
             running its epoch on one core"
        )
    });
}

/// Cuts an epoch into [`Segment`]s while it is drained, verifying on the
/// way that segments sharing a row block or a column block never overlap
/// in the drained order.
struct Planner {
    shape: (u32, u32),
    plan: BlockPlan,
    /// Each worker's current segment.
    open: Vec<Option<Open>>,
    /// The last segment that touched each row block.
    rows: Vec<Option<u32>>,
    /// The last segment that touched each column block, and how many
    /// segments have started on it.
    cols: Vec<(Option<u32>, u32)>,
}

/// A worker's current segment and the row and column ranges of its block.
#[derive(Debug, Clone)]
struct Open {
    id: u32,
    rows: Range<u32>,
    cols: Range<u32>,
}

impl Planner {
    fn new(data: &CooMatrix, grid: (u32, u32), workers: usize) -> Self {
        Planner {
            shape: (data.rows(), data.cols()),
            plan: BlockPlan {
                grid,
                segments: Vec::new(),
                lanes: vec![Vec::new(); workers],
            },
            open: vec![None; workers],
            rows: vec![None; grid.0 as usize],
            cols: vec![(None, 0); grid.1 as usize],
        }
    }

    /// Adds worker `w`'s next drained sample `i` (`e`). A sample in its
    /// worker's current block continues that segment, which must still
    /// be the last to have touched both of the block's axes; any other
    /// starts a new segment.
    fn push(&mut self, w: u32, i: u32, e: &Entry) -> Result<(), String> {
        let open = &mut self.open[w as usize];
        let id = match open {
            Some(o) if o.rows.contains(&e.u) && o.cols.contains(&e.v) => {
                let s = &self.plan.segments[o.id as usize];
                let (row, col) = (self.rows[s.bi as usize], self.cols[s.bj as usize].0);
                if row != Some(o.id) || col != Some(o.id) {
                    return Err(format!(
                        "worker {w} returns to block ({}, {}) after another worker \
                         touched its row or column block",
                        s.bi, s.bj
                    ));
                }
                o.id
            }
            _ => {
                let (grid, (m, n)) = (self.plan.grid, self.shape);
                let (bi, bj) = (segment_of(m, grid.0, e.u), segment_of(n, grid.1, e.v));
                let col = &mut self.cols[bj as usize];
                let id = self.plan.segments.len() as u32;
                self.plan.segments.push(Segment {
                    worker: w,
                    bi,
                    bj,
                    col_rank: col.1,
                    start: self.plan.lanes[w as usize].len() as u32,
                    len: 0,
                });
                col.1 += 1;
                *open = Some(Open {
                    id,
                    rows: segment_range(m, grid.0, bi),
                    cols: segment_range(n, grid.1, bj),
                });
                id
            }
        };
        let s = &mut self.plan.segments[id as usize];
        self.rows[s.bi as usize] = Some(id);
        self.cols[s.bj as usize].0 = Some(id);
        s.len += 1;
        self.plan.lanes[w as usize].push(i);
        Ok(())
    }
}

/// One epoch of round-snapshot reads + additive commits (the Hogwild!
/// conflict engine — see [`crate::concurrent`] for the semantics). Bias
/// cells, when present, follow the same protocol: read with the round's
/// snapshot, deltas committed additively.
///
/// Every delta of a round is computed before any is committed, so the
/// live rows *are* the round's snapshot: f32 rows are read in place, other
/// element types are widened once per read and once per commit.
pub fn stale_additive_epoch<E: Element, S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    mut model: ModelView<'_, E>,
    stream: &mut S,
    gamma: f32,
    lambda: f32,
) -> EpochStats {
    let s = stream.workers();
    let k = model.p.k() as usize;
    let mut stats = EpochStats::default();
    let mut rounds = Rounds::new(s, data);
    // Per-sample deltas of one round, and staging rows for non-f32 storage.
    let (mut dp, mut dq) = (vec![0.0f32; s * k], vec![0.0f32; s * k]);
    let (mut dbu, mut dbv) = (vec![0.0f32; s], vec![0.0f32; s]);
    let (mut pu, mut qv) = (vec![0.0f32; k], vec![0.0f32; k]);
    while rounds.next(data, stream, &mut stats) {
        // Phase A: deltas against the pre-commit state.
        let deltas = dp.chunks_exact_mut(k).zip(dq.chunks_exact_mut(k));
        for (idx, (e, (dp, dq))) in rounds.samples.iter().zip(deltas).enumerate() {
            let p = staged(model.p.row(e.u), &mut pu);
            let q = staged(model.q.row(e.v), &mut qv);
            let err = match model.bias.as_deref() {
                // Two dots on purpose: `sgd_delta` folds from +0.0, the
                // biased `f32::sum` starts from -0.0, and bits follow each.
                None => e.r - p.iter().zip(q).fold(0.0, |acc, (a, b)| acc + a * b),
                Some(bias) => {
                    let bu = bias.user[e.u as usize];
                    let bv = bias.item[e.v as usize];
                    let pred = bias.mu + bu + bv + p.iter().zip(q).map(|(a, b)| a * b).sum::<f32>();
                    let err = e.r - pred;
                    dbu[idx] = gamma * (err - lambda * bu);
                    dbv[idx] = gamma * (err - lambda * bv);
                    err
                }
            };
            for (((dp, dq), &pj), &qj) in dp.iter_mut().zip(dq.iter_mut()).zip(p).zip(q) {
                *dp = gamma * (err * qj - lambda * pj);
                *dq = gamma * (err * pj - lambda * qj);
            }
        }
        // Phase B: additive commits (colliding corrections stack — the
        // Hogwild! overshoot).
        let deltas = dp.chunks_exact(k).zip(dq.chunks_exact(k));
        for (idx, (e, (dp, dq))) in rounds.samples.iter().zip(deltas).enumerate() {
            add_row(model.p.row_mut(e.u), dp, &mut pu);
            add_row(model.q.row_mut(e.v), dq, &mut qv);
            if let Some(bias) = model.bias.as_deref_mut() {
                bias.user[e.u as usize] += dbu[idx];
                bias.item[e.v as usize] += dbv[idx];
            }
        }
    }
    stats
}

/// A stored row as f32: the row itself for f32, else widened into `stage`.
fn staged<'a, E: Element>(row: &'a [E], stage: &'a mut [f32]) -> &'a [f32] {
    match E::as_f32(row) {
        Some(row) => row,
        None => {
            E::widen_row(row, stage);
            stage
        }
    }
}

/// `row += d`: in place for f32, else widened into `stage`, added and
/// narrowed once.
fn add_row<E: Element>(row: &mut [E], d: &[f32], stage: &mut [f32]) {
    if let Some(row) = E::as_f32_mut(row) {
        row.iter_mut().zip(d).for_each(|(a, d)| *a += d);
        return;
    }
    E::widen_row(row, stage);
    stage.iter_mut().zip(d).for_each(|(a, d)| *a += d);
    E::narrow_row(stage, row);
}

/// One epoch on real OS threads racing over atomic factor cells (see
/// [`threaded_hogwild_epoch`]). `rounds` is approximated as
/// `ceil(updates / threads)` for the simulated-time models; collision
/// counts are unavailable (the races are real, not replayed).
///
/// # Panics
///
/// Panics when the view carries bias terms: the threaded executor races
/// on factor cells only.
pub fn threaded_epoch<E: Element>(
    data: &CooMatrix,
    model: ModelView<'_, E>,
    threads: usize,
    batch: usize,
    gamma: f32,
    lambda: f32,
) -> EpochStats {
    assert!(
        model.bias.is_none(),
        "threaded Hogwild! does not support the biased model"
    );
    let p = Arc::new(AtomicFactors::from_matrix(model.p));
    let q = Arc::new(AtomicFactors::from_matrix(model.q));
    let updates = threaded_hogwild_epoch(data, &p, &q, threads, batch, gamma, lambda);
    *model.p = p.to_matrix();
    *model.q = q.to_matrix();
    EpochStats {
        updates,
        rounds: updates.div_ceil(threads as u64),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::model::{BiasTerms, EngineModel};
    use crate::half::F16;
    use crate::kernel::sgd_delta;
    use crate::sched::{
        BatchHogwildStream, HogwildStream, LibmfTableStream, SerialStream, WavefrontStream,
    };
    use cumf_rng::{ChaCha8Rng, Rng, SeedableRng};

    fn tiny_data() -> CooMatrix {
        let mut coo = CooMatrix::new(20, 20);
        for i in 0..200u32 {
            coo.push(i % 20, (i * 7) % 20, ((i % 5) as f32) - 2.0);
        }
        coo
    }

    fn unbiased_model(seed: u64) -> EngineModel<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        EngineModel::init_unbiased(&tiny_data(), 4, &mut rng)
    }

    fn biased_model(seed: u64) -> EngineModel<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        EngineModel::init_biased(&tiny_data(), 4, &mut rng)
    }

    #[test]
    fn biased_stale_single_worker_matches_sequential() {
        // One worker → no collisions → stale-additive must equal the
        // sequential biased path (modulo the dot-product order, which both
        // paths share: the plain serial sum).
        let data = tiny_data();
        let mut m1 = biased_model(3);
        let mut m2 = m1.clone();
        let mut s1 = SerialStream::new(data.nnz());
        let mut s2 = SerialStream::new(data.nnz());
        sequential_epoch(&data, m1.view(), &mut s1, 0.05, 0.01);
        stale_additive_epoch(&data, m2.view(), &mut s2, 0.05, 0.01);
        let b1 = m1.bias.as_ref().unwrap();
        let b2 = m2.bias.as_ref().unwrap();
        for (a, b) in b1.user.iter().zip(&b2.user) {
            assert!((a - b).abs() < 1e-6);
        }
        for (a, b) in b1.item.iter().zip(&b2.item) {
            assert!((a - b).abs() < 1e-6);
        }
        for r in 0..20 {
            for (a, b) in m1.p.row(r).iter().zip(m2.p.row(r)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    /// The three-phase body the engine had before it read rows in place:
    /// snapshot copies, deltas against the copies, then load/add/store
    /// commits. Kept verbatim as the reference it must match bit for bit.
    fn reference_stale_additive_epoch<E: Element, S: UpdateStream + ?Sized>(
        data: &CooMatrix,
        mut model: ModelView<'_, E>,
        stream: &mut S,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats {
        let s = stream.workers();
        let k = model.p.k() as usize;
        let mu = model.bias.as_ref().map(|b| b.mu).unwrap_or(0.0);
        let biased = model.bias.is_some();
        let mut stats = EpochStats::default();
        let mut exhausted = vec![false; s];
        let mut live = s;

        // Round buffers, reused across rounds.
        let mut round: Vec<(u32, u32)> = Vec::with_capacity(s); // (u, v) per committed worker
        let mut snap_p = vec![0.0f32; s * k];
        let mut snap_q = vec![0.0f32; s * k];
        let mut dp = vec![0.0f32; s * k];
        let mut dq = vec![0.0f32; s * k];
        let mut ratings: Vec<f32> = Vec::with_capacity(s);
        let mut snap_bu = vec![0.0f32; s];
        let mut snap_bv = vec![0.0f32; s];
        let mut dbu = vec![0.0f32; s];
        let mut dbv = vec![0.0f32; s];

        while live > 0 {
            stats.rounds += 1;
            round.clear();
            ratings.clear();
            for (w, done) in exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                match stream.next(w) {
                    StreamItem::Sample(i) => {
                        let e = data.get(i);
                        round.push((e.u, e.v));
                        ratings.push(e.r);
                    }
                    StreamItem::Stall => stats.stalls += 1,
                    StreamItem::Exhausted => {
                        *done = true;
                        live -= 1;
                    }
                }
            }
            if round.is_empty() {
                continue;
            }
            // Phase 1: snapshot reads (all against pre-round state).
            for (idx, &(u, v)) in round.iter().enumerate() {
                model.p.load_row(u, &mut snap_p[idx * k..(idx + 1) * k]);
                model.q.load_row(v, &mut snap_q[idx * k..(idx + 1) * k]);
                if let Some(bias) = model.bias.as_deref() {
                    snap_bu[idx] = bias.user[u as usize];
                    snap_bv[idx] = bias.item[v as usize];
                }
            }
            // Collision accounting.
            {
                let mut rows: Vec<u32> = round.iter().map(|&(u, _)| u).collect();
                rows.sort_unstable();
                if rows.windows(2).any(|w| w[0] == w[1]) {
                    stats.row_collisions += 1;
                }
                let mut cols: Vec<u32> = round.iter().map(|&(_, v)| v).collect();
                cols.sort_unstable();
                if cols.windows(2).any(|w| w[0] == w[1]) {
                    stats.col_collisions += 1;
                }
            }
            // Phase 2: compute deltas against the snapshot.
            for idx in 0..round.len() {
                let lo = idx * k;
                let hi = lo + k;
                if biased {
                    let sp = &snap_p[lo..hi];
                    let sq = &snap_q[lo..hi];
                    let pred = mu
                        + snap_bu[idx]
                        + snap_bv[idx]
                        + sp.iter().zip(sq).map(|(a, b)| a * b).sum::<f32>();
                    let err = ratings[idx] - pred;
                    dbu[idx] = gamma * (err - lambda * snap_bu[idx]);
                    dbv[idx] = gamma * (err - lambda * snap_bv[idx]);
                    for j in 0..k {
                        dp[lo + j] = gamma * (err * sq[j] - lambda * sp[j]);
                        dq[lo + j] = gamma * (err * sp[j] - lambda * sq[j]);
                    }
                } else {
                    sgd_delta(
                        &snap_p[lo..hi],
                        &snap_q[lo..hi],
                        ratings[idx],
                        gamma,
                        lambda,
                        &mut dp[lo..hi],
                        &mut dq[lo..hi],
                    );
                }
            }
            // Phase 3: additive commit (colliding corrections stack — the
            // Hogwild! overshoot).
            let mut acc = vec![0.0f32; k];
            for (idx, &(u, v)) in round.iter().enumerate() {
                let lo = idx * k;
                model.p.load_row(u, &mut acc);
                for (a, d) in acc.iter_mut().zip(&dp[lo..lo + k]) {
                    *a += d;
                }
                model.p.store_row(u, &acc);
                model.q.load_row(v, &mut acc);
                for (a, d) in acc.iter_mut().zip(&dq[lo..lo + k]) {
                    *a += d;
                }
                model.q.store_row(v, &acc);
                if let Some(bias) = model.bias.as_deref_mut() {
                    bias.user[u as usize] += dbu[idx];
                    bias.item[v as usize] += dbv[idx];
                }
            }
            stats.updates += round.len() as u64;
        }
        stats
    }

    /// Every bit of the trainable state: factor digests and bias bits.
    fn state_bits<E: Element>(m: &EngineModel<E>) -> (u64, u64, Vec<u32>) {
        let bias = m.bias.as_ref().map_or(Vec::new(), |b| {
            let cells = b.user.iter().chain(&b.item).chain([&b.mu]);
            cells.map(|x| x.to_bits()).collect()
        });
        (m.p.digest(), m.q.digest(), bias)
    }

    fn engine_matches_reference<E: Element>(data: &CooMatrix, k: u32, biased: bool) {
        let n = data.nnz();
        let streams: [fn(usize) -> Box<dyn UpdateStream>; 3] = [
            |n| Box::new(SerialStream::new(n)),
            |n| Box::new(HogwildStream::new(n, 12, 17)),
            |n| Box::new(BatchHogwildStream::new(n, 16, 3)),
        ];
        for (i, stream) in streams.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(u64::from(k) * 31 + i as u64);
            let mut fast = if biased {
                EngineModel::<E>::init_biased(data, k, &mut rng)
            } else {
                EngineModel::<E>::init_unbiased(data, k, &mut rng)
            };
            let mut reference = fast.clone();
            let (mut s1, mut s2) = (stream(n), stream(n));
            for epoch in 0..2 {
                s1.begin_epoch(epoch);
                s2.begin_epoch(epoch);
                let got = stale_additive_epoch(data, fast.view(), s1.as_mut(), 0.05, 0.02);
                let want =
                    reference_stale_additive_epoch(data, reference.view(), s2.as_mut(), 0.05, 0.02);
                let case = format!(
                    "{}x{} {} k={k} biased={biased} {}",
                    data.rows(),
                    data.cols(),
                    E::NAME,
                    s1.name()
                );
                assert_eq!(got, want, "{case}");
                assert_eq!(state_bits(&fast), state_bits(&reference), "{case}");
                if i > 0 {
                    assert!(got.row_collisions > 0 && got.col_collisions > 0, "{case}");
                }
            }
        }
    }

    fn random_data(m: u32, n: u32, nnz: u32) -> CooMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(u64::from(m));
        let mut data = CooMatrix::new(m, n);
        for _ in 0..nnz {
            let (u, v) = (rng.gen_range(0..m), rng.gen_range(0..n));
            data.push(u, v, rng.gen_range(-2.0..2.0));
        }
        data
    }

    #[test]
    fn stale_additive_matches_three_phase_reference_bitwise() {
        // With 12–16 workers, every round collides on 7 × 5; on 997 × 601
        // only some do, so the collision counts are checked too.
        let forced = random_data(7, 5, 140);
        let occasional = random_data(997, 601, 3000);
        for k in [1, 7, 16, 31] {
            for biased in [false, true] {
                for data in [&forced, &occasional] {
                    engine_matches_reference::<f32>(data, k, biased);
                    engine_matches_reference::<F16>(data, k, biased);
                }
            }
        }
    }

    /// The sequential body before it drained the stream first, with the
    /// round loop and sort-based collision counts of the engines before
    /// [`Rounds`]: each round's samples applied as they arrive. The
    /// reference the drained paths must match bit for bit.
    fn reference_sequential_epoch<E: Element, S: UpdateStream + ?Sized>(
        data: &CooMatrix,
        mut model: ModelView<'_, E>,
        stream: &mut S,
        gamma: f32,
        lambda: f32,
    ) -> EpochStats {
        let k = model.p.k() as usize;
        let mut stats = EpochStats::default();
        let mut exhausted = vec![false; stream.workers()];
        let mut pu = vec![0.0f32; k];
        let mut qv = vec![0.0f32; k];
        while exhausted.iter().any(|&done| !done) {
            stats.rounds += 1;
            let mut round = Vec::new();
            for (w, done) in exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                match stream.next(w) {
                    StreamItem::Sample(i) => round.push(data.get(i)),
                    StreamItem::Stall => stats.stalls += 1,
                    StreamItem::Exhausted => *done = true,
                }
            }
            stats.updates += round.len() as u64;
            let shared = |mut keys: Vec<u32>| {
                keys.sort_unstable();
                keys.windows(2).any(|w| w[0] == w[1]) as u64
            };
            stats.row_collisions += shared(round.iter().map(|e| e.u).collect());
            stats.col_collisions += shared(round.iter().map(|e| e.v).collect());
            for e in &round {
                match model.bias.as_deref_mut() {
                    None => {
                        sgd_update(
                            model.p.row_mut(e.u),
                            model.q.row_mut(e.v),
                            e.r,
                            gamma,
                            lambda,
                        );
                    }
                    Some(bias) => {
                        model.p.load_row(e.u, &mut pu);
                        model.q.load_row(e.v, &mut qv);
                        let bu = bias.user[e.u as usize];
                        let bv = bias.item[e.v as usize];
                        let pred =
                            bias.mu + bu + bv + pu.iter().zip(&qv).map(|(a, b)| a * b).sum::<f32>();
                        let err = e.r - pred;
                        bias.user[e.u as usize] = bu + gamma * (err - lambda * bu);
                        bias.item[e.v as usize] = bv + gamma * (err - lambda * bv);
                        for j in 0..k {
                            let pj = pu[j];
                            let qj = qv[j];
                            pu[j] = pj + gamma * (err * qj - lambda * pj);
                            qv[j] = qj + gamma * (err * pj - lambda * qj);
                        }
                        model.p.store_row(e.u, &pu);
                        model.q.store_row(e.v, &qv);
                    }
                }
            }
        }
        stats
    }

    /// Runs two epochs of `make()`'s stream through the sequential engine
    /// on each thread count and through the reference, asserting equal
    /// stats and bits. Returns whether the block-ticket executor ran at
    /// every thread count above one.
    fn sequential_matches_reference<E: Element>(
        data: &CooMatrix,
        k: u32,
        biased: bool,
        make: &dyn Fn() -> Box<dyn UpdateStream>,
    ) -> bool {
        let mut rng = ChaCha8Rng::seed_from_u64(u64::from(k) * 7 + u64::from(biased));
        let init = if biased {
            EngineModel::<E>::init_biased(data, k, &mut rng)
        } else {
            EngineModel::<E>::init_unbiased(data, k, &mut rng)
        };
        let mut parallel = true;
        for threads in [1, 2, 3, 16] {
            let (mut got, mut want) = (init.clone(), init.clone());
            let (mut s1, mut s2) = (make(), make());
            for epoch in 0..2 {
                s1.begin_epoch(epoch);
                s2.begin_epoch(epoch);
                let (stats, ran) =
                    sequential_epoch_on(data, got.view(), s1.as_mut(), 0.05, 0.02, threads);
                let expected =
                    reference_sequential_epoch(data, want.view(), s2.as_mut(), 0.05, 0.02);
                let case = format!(
                    "{} k={k} biased={biased} {} threads={threads} epoch {epoch}",
                    E::NAME,
                    s1.name()
                );
                assert_eq!(stats, expected, "{case}");
                assert_eq!(state_bits(&got), state_bits(&want), "{case}");
                parallel &= ran || threads == 1;
                assert!(!ran || threads > 1, "{case}: one thread never plans");
            }
        }
        parallel
    }

    #[test]
    fn block_ticket_executor_matches_in_order_application_bitwise() {
        let data = random_data(97, 61, 1500);
        let streams: [&dyn Fn() -> Box<dyn UpdateStream>; 2] =
            [&|| Box::new(WavefrontStream::new(&data, 4, 8, 5)), &|| {
                Box::new(LibmfTableStream::new(&data, 3, 5, 6))
            }];
        for make in streams {
            for k in [1, 7, 16, 128] {
                for biased in [false, true] {
                    assert!(sequential_matches_reference::<f32>(&data, k, biased, make));
                    assert!(sequential_matches_reference::<F16>(&data, k, biased, make));
                }
            }
        }
    }

    /// A stream that declares a block grid of our choosing.
    struct Declared(Box<dyn UpdateStream>, (u32, u32));

    impl UpdateStream for Declared {
        fn workers(&self) -> usize {
            self.0.workers()
        }
        fn next(&mut self, worker: usize) -> StreamItem {
            self.0.next(worker)
        }
        fn begin_epoch(&mut self, epoch: u32) {
            self.0.begin_epoch(epoch)
        }
        fn name(&self) -> &'static str {
            "declared"
        }
        fn block_grid(&self) -> Option<(u32, u32)> {
            Some(self.1)
        }
    }

    #[test]
    fn a_finer_declared_grid_still_runs_on_every_thread() {
        // 8 × 16 refines the wavefront's own 4 × 8 grid: each worker's
        // run in a block splits into many segments that the tickets must
        // still order.
        let data = random_data(97, 61, 1500);
        let make = || -> Box<dyn UpdateStream> {
            Box::new(Declared(
                Box::new(WavefrontStream::new(&data, 4, 8, 5)),
                (8, 16),
            ))
        };
        for biased in [false, true] {
            assert!(sequential_matches_reference::<f32>(
                &data, 16, biased, &make
            ));
            assert!(sequential_matches_reference::<F16>(&data, 7, biased, &make));
        }
    }

    #[test]
    fn a_grid_the_schedule_breaks_falls_back_to_in_order() {
        let data = random_data(97, 61, 1500);
        // Batch-Hogwild!'s workers share blocks from the first rounds on;
        // the wavefront's workers keep to a 4 × 4 coarsening of its grid
        // for a while, until two of them hold neighbouring columns.
        let streams: [&dyn Fn() -> Box<dyn UpdateStream>; 2] = [
            &|| {
                let inner = BatchHogwildStream::new(data.nnz(), 4, 8);
                Box::new(Declared(Box::new(inner), (2, 2)))
            },
            &|| {
                Box::new(Declared(
                    Box::new(WavefrontStream::new(&data, 4, 8, 5)),
                    (4, 4),
                ))
            },
        ];
        for make in streams {
            for biased in [false, true] {
                assert!(!sequential_matches_reference::<f32>(
                    &data, 16, biased, make
                ));
                assert!(!sequential_matches_reference::<F16>(&data, 7, biased, make));
            }
        }
    }

    #[test]
    fn threaded_engine_runs_all_updates() {
        let data = tiny_data();
        let mut m = unbiased_model(7);
        let before = m.p.clone();
        let stats = threaded_epoch(&data, m.view(), 4, 16, 0.05, 0.01);
        assert_eq!(stats.updates, 200);
        assert_eq!(stats.rounds, 50);
        assert_ne!(m.p, before);
    }

    #[test]
    #[should_panic(expected = "does not support the biased model")]
    fn threaded_engine_rejects_bias() {
        let data = tiny_data();
        let mut m = unbiased_model(9);
        m.bias = Some(BiasTerms {
            mu: 0.0,
            user: vec![0.0; 20],
            item: vec![0.0; 20],
        });
        let _ = threaded_epoch(&data, m.view(), 2, 8, 0.05, 0.01);
    }

    #[test]
    fn engine_for_covers_every_mode() {
        for (mode, name) in [
            (ExecMode::Sequential, "sequential"),
            (ExecMode::StaleAdditive, "stale-additive"),
            (ExecMode::Threaded, "threaded-hogwild"),
        ] {
            let e = engine_for::<f32>(mode, 4, 64);
            assert_eq!(e.name(), name);
        }
    }

    #[test]
    fn dyn_engine_matches_free_function() {
        let data = tiny_data();
        let mut m1 = unbiased_model(11);
        let mut m2 = m1.clone();
        let mut s1 = SerialStream::new(data.nnz());
        let mut s2 = SerialStream::new(data.nnz());
        let mut engine = engine_for::<f32>(ExecMode::Sequential, 1, 1);
        engine.run_epoch(&data, m1.view(), &mut s1, 0.05, 0.01);
        sequential_epoch(&data, m2.view(), &mut s2, 0.05, 0.01);
        assert_eq!(m1.p, m2.p);
        assert_eq!(m1.q, m2.q);
    }
}
