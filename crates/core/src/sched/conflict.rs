//! Schedule conflict prover: machine-checked conflict-freedom certificates.
//!
//! The paper's §5 scheduling argument rests on a no-overlap invariant:
//! wavefront-update and LIBMF's global table never let two concurrent
//! workers touch the same P row or Q column, while batch-Hogwild!
//! deliberately tolerates (rare) overlaps. Until now that claim lived in
//! doc comments; this module *proves* it per run.
//!
//! [`certify`] symbolically drives any [`UpdateStream`] — the same
//! deterministic schedule the engine will execute — against a dataset's
//! row/column access sets, round by round. Two non-stalled workers landing
//! on the same P row or Q column in one round is exactly the collision the
//! stale-additive engine would double-apply, so the prover either
//!
//! * returns a [`ConflictCert`]: a certificate that *no* round of *any*
//!   checked epoch overlaps, carrying a digest of the schedule it
//!   inspected, or
//! * returns a [`ConflictWitness`]: the first concrete counterexample
//!   (epoch, round, worker pair, shared row/column, sample indices).
//!
//! [`crate::solver::train_resumable`] consumes certificates through
//! [`resolve_exec_mode`] — [`ExecMode::Sequential`]
//! is only selected for schedules that certified; a schedule that claims
//! conflict-freedom but produces a witness is downgraded to the
//! stale-additive conflict engine instead of being silently serialised.

use cumf_data::CooMatrix;

use crate::concurrent::ExecMode;
use crate::fnv::{fnv1a_extend, FNV_OFFSET};

use super::{StreamItem, UpdateStream};

/// Which factor-matrix axis two workers collided on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Both workers updated this P row (shared user `u`).
    Row(u32),
    /// Both workers updated this Q column (shared item `v`).
    Col(u32),
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Axis::Row(u) => write!(f, "P-row {u}"),
            Axis::Col(v) => write!(f, "Q-col {v}"),
        }
    }
}

/// A concrete schedule conflict: round `round` of epoch `epoch` handed
/// `sample_a` to `worker_a` and `sample_b` to `worker_b`, and both samples
/// touch `axis`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictWitness {
    /// Epoch of the conflicting round.
    pub epoch: u32,
    /// Round index within the epoch (0-based).
    pub round: u64,
    /// First worker of the colliding pair.
    pub worker_a: usize,
    /// Second worker of the colliding pair.
    pub worker_b: usize,
    /// Sample index `worker_a` was scheduled.
    pub sample_a: usize,
    /// Sample index `worker_b` was scheduled.
    pub sample_b: usize,
    /// The shared P row or Q column.
    pub axis: Axis,
}

impl std::fmt::Display for ConflictWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {} round {}: workers {} and {} (samples {} and {}) share {}",
            self.epoch,
            self.round,
            self.worker_a,
            self.worker_b,
            self.sample_a,
            self.sample_b,
            self.axis
        )
    }
}

/// A conflict-freedom certificate: every checked round of every checked
/// epoch of the named schedule is overlap-free on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictCert {
    /// Schedule (policy) name the certificate covers.
    pub schedule: &'static str,
    /// Parallel workers the schedule drives.
    pub workers: usize,
    /// Epochs the prover drove.
    pub epochs_checked: u32,
    /// Scheduling rounds inspected across all checked epochs.
    pub rounds: u64,
    /// Samples inspected across all checked epochs.
    pub samples: u64,
    /// FNV-1a digest of the inspected schedule — `(epoch, round, worker,
    /// sample)` quadruples in order. Re-certifying the same deterministic
    /// stream must reproduce this digest bit-exactly.
    pub schedule_digest: u64,
}

impl ConflictCert {
    /// The trivial certificate for single-worker schedules: one worker per
    /// round can never pair-conflict, no driving needed.
    pub fn trivial(schedule: &'static str) -> Self {
        ConflictCert {
            schedule,
            workers: 1,
            epochs_checked: 0,
            rounds: 0,
            samples: 0,
            schedule_digest: FNV_OFFSET,
        }
    }
}

impl std::fmt::Display for ConflictCert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.epochs_checked == 0 {
            write!(f, "{}: trivially conflict-free (1 worker)", self.schedule)
        } else {
            write!(
                f,
                "{}: conflict-free over {} epochs, {} rounds, {} samples, {} workers \
                 (digest {:016x})",
                self.schedule,
                self.epochs_checked,
                self.rounds,
                self.samples,
                self.workers,
                self.schedule_digest
            )
        }
    }
}

/// Outcome of driving a schedule through the prover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No round of any checked epoch overlaps.
    Certified(ConflictCert),
    /// The schedule conflicts; here is the first counterexample.
    Refuted(ConflictWitness),
}

impl Verdict {
    /// True for [`Verdict::Certified`].
    pub fn is_certified(&self) -> bool {
        matches!(self, Verdict::Certified(_))
    }

    /// The certificate, if the schedule certified.
    pub fn certificate(&self) -> Option<&ConflictCert> {
        match self {
            Verdict::Certified(c) => Some(c),
            Verdict::Refuted(_) => None,
        }
    }

    /// The counterexample, if the schedule was refuted.
    pub fn witness(&self) -> Option<&ConflictWitness> {
        match self {
            Verdict::Certified(_) => None,
            Verdict::Refuted(w) => Some(w),
        }
    }
}

/// Drives `stream` for `epochs` epochs against `data`'s row/column access
/// sets and proves conflict-freedom or produces a witness.
///
/// The stream is consumed epoch by epoch exactly as the execution engine
/// would consume it ([`UpdateStream::begin_epoch`] then one
/// [`UpdateStream::next`] per live worker per round), so the certificate
/// covers precisely the schedule a training run over the same seed would
/// execute. The stream is left positioned at the end of epoch
/// `epochs - 1`; call `begin_epoch` to reuse it (all streams are
/// deterministic, so replay is exact).
///
/// `max_rounds_per_epoch` guards against non-terminating schedules; the
/// prover panics if an epoch fails to exhaust within the bound (a
/// scheduling deadlock — itself a bug the bound surfaces).
///
/// # Panics
///
/// Panics if the stream schedules a sample index out of `data`'s bounds,
/// or if an epoch exceeds `max_rounds_per_epoch` rounds.
pub fn certify<S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    stream: &mut S,
    epochs: u32,
    max_rounds_per_epoch: u64,
) -> Verdict {
    let s = stream.workers();
    let name = stream.name();
    if s <= 1 {
        // Still drive the schedule (digest + termination check is useful),
        // but a single worker cannot pair-conflict. Cheap exit instead:
        return Verdict::Certified(ConflictCert::trivial(name));
    }
    let nnz = data.nnz();
    let mut cert = ConflictCert {
        schedule: name,
        workers: s,
        epochs_checked: epochs,
        rounds: 0,
        samples: 0,
        schedule_digest: FNV_OFFSET,
    };
    // Per-round claim maps: axis value -> (worker, sample). Rebuilt per
    // round; sized by the worker count, so plain Vecs beat hashing.
    let mut row_claims: Vec<(u32, usize, usize)> = Vec::with_capacity(s);
    let mut col_claims: Vec<(u32, usize, usize)> = Vec::with_capacity(s);
    for epoch in 0..epochs {
        stream.begin_epoch(epoch);
        let mut exhausted = vec![false; s];
        let mut live = s;
        let mut round: u64 = 0;
        while live > 0 {
            assert!(
                round < max_rounds_per_epoch,
                "schedule `{name}` did not exhaust within {max_rounds_per_epoch} rounds \
                 (scheduling deadlock?)"
            );
            row_claims.clear();
            col_claims.clear();
            for (w, done) in exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                match stream.next(w) {
                    StreamItem::Sample(i) => {
                        assert!(
                            i < nnz,
                            "schedule `{name}` produced sample {i} out of bounds ({nnz})"
                        );
                        let e = data.get(i);
                        if let Some(&(_, wa, ia)) = row_claims.iter().find(|&&(u, _, _)| u == e.u) {
                            return Verdict::Refuted(ConflictWitness {
                                epoch,
                                round,
                                worker_a: wa,
                                worker_b: w,
                                sample_a: ia,
                                sample_b: i,
                                axis: Axis::Row(e.u),
                            });
                        }
                        if let Some(&(_, wa, ia)) = col_claims.iter().find(|&&(v, _, _)| v == e.v) {
                            return Verdict::Refuted(ConflictWitness {
                                epoch,
                                round,
                                worker_a: wa,
                                worker_b: w,
                                sample_a: ia,
                                sample_b: i,
                                axis: Axis::Col(e.v),
                            });
                        }
                        row_claims.push((e.u, w, i));
                        col_claims.push((e.v, w, i));
                        cert.samples += 1;
                        let mut h = cert.schedule_digest;
                        for v in [u64::from(epoch), round, w as u64, i as u64] {
                            h = fnv1a_extend(h, &v.to_le_bytes());
                        }
                        cert.schedule_digest = h;
                    }
                    StreamItem::Stall => {}
                    StreamItem::Exhausted => {
                        *done = true;
                        live -= 1;
                    }
                }
            }
            round += 1;
            cert.rounds += 1;
        }
    }
    Verdict::Certified(cert)
}

/// Resolves the execution mode for a schedule that *claims*
/// `default_mode`: [`ExecMode::Sequential`] is only honoured when the
/// prover certifies the schedule conflict-free over the epochs about to
/// run; a refuted schedule is downgraded to [`ExecMode::StaleAdditive`]
/// (the engine that models its races honestly) and the witness returned.
///
/// Non-sequential defaults pass through untouched (racy engines need no
/// certificate). The probe stream is consumed; pass a dedicated instance.
pub fn resolve_exec_mode<S: UpdateStream + ?Sized>(
    data: &CooMatrix,
    probe: &mut S,
    default_mode: ExecMode,
    epochs: u32,
) -> (ExecMode, Option<Verdict>) {
    if default_mode != ExecMode::Sequential {
        return (default_mode, None);
    }
    // Rounds are bounded by samples plus per-worker bookkeeping; any
    // correct schedule exhausts well within this.
    let bound = (data.nnz() as u64 + 2) * (probe.workers() as u64 + 1) + 64;
    let verdict = certify(data, probe, epochs, bound);
    let mode = match &verdict {
        Verdict::Certified(_) => {
            cumf_obs::counter(
                "cumf_core_sched_certified_total",
                "Schedules proven conflict-free before sequential execution",
            )
            .inc();
            ExecMode::Sequential
        }
        Verdict::Refuted(w) => {
            cumf_obs::counter(
                "cumf_core_sched_refuted_total",
                "Sequential-claiming schedules refuted by a conflict witness",
            )
            .inc();
            eprintln!(
                "warning: schedule `{}` claims conflict-freedom but conflicts ({w}); \
                 downgrading to the stale-additive conflict engine",
                probe.name()
            );
            ExecMode::StaleAdditive
        }
    };
    (mode, Some(verdict))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{
        BatchHogwildStream, LibmfTableStream, SerialStream, UpdateStream, WavefrontStream,
    };

    fn matrix(m: u32, n: u32, nnz: usize) -> CooMatrix {
        let mut coo = CooMatrix::new(m, n);
        for i in 0..nnz {
            coo.push(
                (i as u32).wrapping_mul(7919) % m,
                (i as u32).wrapping_mul(104_729) % n,
                1.0,
            );
        }
        coo
    }

    #[test]
    fn serial_is_trivially_certified() {
        let data = matrix(8, 8, 50);
        let mut s = SerialStream::new(data.nnz());
        let v = certify(&data, &mut s, 3, 10_000);
        let cert = v.certificate().expect("serial must certify");
        assert_eq!(cert.workers, 1);
        assert_eq!(cert.epochs_checked, 0); // trivial path
    }

    #[test]
    fn wavefront_certifies_and_digest_is_replayable() {
        let data = matrix(64, 64, 1500);
        let mut a = WavefrontStream::new(&data, 4, 8, 9);
        let mut b = WavefrontStream::new(&data, 4, 8, 9);
        let va = certify(&data, &mut a, 4, 1_000_000);
        let vb = certify(&data, &mut b, 4, 1_000_000);
        let ca = va.certificate().expect("wavefront must certify");
        let cb = vb.certificate().expect("wavefront must certify");
        assert_eq!(ca, cb, "deterministic schedule, deterministic cert");
        assert_eq!(ca.samples, 4 * 1500);
        assert!(ca.schedule_digest != 0);
    }

    #[test]
    fn libmf_certifies() {
        let data = matrix(60, 60, 900);
        let mut s = LibmfTableStream::new(&data, 5, 6, 3);
        let v = certify(&data, &mut s, 3, 1_000_000);
        assert!(v.is_certified(), "{v:?}");
    }

    #[test]
    fn batch_hogwild_on_1x1_is_refuted_with_witness() {
        let mut coo = CooMatrix::new(1, 1);
        for _ in 0..8 {
            coo.push(0, 0, 1.0);
        }
        let mut s = BatchHogwildStream::new(coo.nnz(), 2, 1);
        let v = certify(&coo, &mut s, 1, 10_000);
        let w = v.witness().expect("1x1 Hogwild! must conflict");
        assert_eq!(w.epoch, 0);
        assert_eq!(w.round, 0);
        assert_eq!((w.worker_a, w.worker_b), (0, 1));
        assert_eq!(w.axis, Axis::Row(0), "row axis is checked first");
        assert_ne!(w.sample_a, w.sample_b);
    }

    #[test]
    fn certificate_consumption_downgrades_refuted_schedules() {
        let mut coo = CooMatrix::new(1, 1);
        for _ in 0..8 {
            coo.push(0, 0, 1.0);
        }
        let mut racy = BatchHogwildStream::new(coo.nnz(), 2, 1);
        let (mode, verdict) = resolve_exec_mode(&coo, &mut racy, ExecMode::Sequential, 1);
        assert_eq!(mode, ExecMode::StaleAdditive);
        assert!(verdict.unwrap().witness().is_some());

        let data = matrix(64, 64, 500);
        let mut clean = WavefrontStream::new(&data, 4, 8, 1);
        let (mode, verdict) = resolve_exec_mode(&data, &mut clean, ExecMode::Sequential, 2);
        assert_eq!(mode, ExecMode::Sequential);
        assert!(verdict.unwrap().is_certified());
    }

    #[test]
    fn non_sequential_defaults_pass_through() {
        let data = matrix(8, 8, 20);
        let mut s = BatchHogwildStream::new(data.nnz(), 4, 2);
        let (mode, verdict) = resolve_exec_mode(&data, &mut s, ExecMode::StaleAdditive, 5);
        assert_eq!(mode, ExecMode::StaleAdditive);
        assert!(verdict.is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_sample_is_rejected() {
        struct Bogus;
        impl UpdateStream for Bogus {
            fn workers(&self) -> usize {
                2
            }
            fn next(&mut self, _w: usize) -> StreamItem {
                StreamItem::Sample(999)
            }
            fn begin_epoch(&mut self, _e: u32) {}
            fn name(&self) -> &'static str {
                "bogus"
            }
        }
        let data = matrix(4, 4, 10);
        let _ = certify(&data, &mut Bogus, 1, 100);
    }
}
