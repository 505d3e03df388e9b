//! The single-GPU cuMF_SGD training loop.
//!
//! A thin client of the layered [`crate::engine`]: it translates a
//! [`SolverConfig`] into a scheduling policy ([`crate::sched`]), an
//! execution engine ([`crate::engine::exec`]), a time domain, and the
//! solver's observer stack (obs probes, divergence guard, optional
//! checkpointing), then hands the epoch loop to
//! [`EpochPipeline`] — producing the
//! per-epoch convergence traces that are the raw material of every
//! RMSE-vs-time figure in the paper.

use std::path::PathBuf;

use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;

use cumf_data::CooMatrix;

use crate::concurrent::{EpochStats, ExecMode};
use crate::engine::{
    engine_for, load_checkpoint, Checkpointer, DivergenceGuard, EngineModel, EpochObserver,
    EpochPipeline, ModelIoError, ModelTime, NoSimTime, ObsProbes, StreamBackend, TimeDomain,
};
use crate::feature::{Element, FactorMatrix};
use crate::kernel::CostCert;
use crate::lrate::Schedule;
use crate::metrics::Trace;
use crate::stale::StaleVerdict;

use crate::sched::{
    resolve_exec_mode, BatchHogwildStream, HogwildStream, LibmfTableStream, SerialStream,
    UpdateStream, Verdict, WavefrontStream,
};

pub use crate::engine::time::TimeModel;
pub use crate::engine::TrainReport;

/// Which scheduling policy the solver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// One worker, storage order. The convergence reference.
    Serial,
    /// Plain Hogwild! with uniformly random picks.
    Hogwild {
        /// Parallel workers.
        workers: u32,
    },
    /// §5.1 batch-Hogwild! — the paper's single-GPU default.
    BatchHogwild {
        /// Parallel workers (thread blocks).
        workers: u32,
        /// Consecutive samples per grab (`f`, default 256).
        batch: u32,
    },
    /// §5.2 wavefront-update.
    Wavefront {
        /// Parallel workers (grid rows).
        workers: u32,
        /// Grid columns (≥ 2 × workers).
        cols: u32,
    },
    /// LIBMF's global-table blocking (the baseline policy).
    LibmfTable {
        /// Parallel workers (CPU threads).
        workers: u32,
        /// Grid dimension (a×a blocks).
        a: u32,
    },
}

impl Scheme {
    /// Number of parallel workers the scheme runs.
    pub fn workers(&self) -> u32 {
        match *self {
            Scheme::Serial => 1,
            Scheme::Hogwild { workers }
            | Scheme::BatchHogwild { workers, .. }
            | Scheme::Wavefront { workers, .. }
            | Scheme::LibmfTable { workers, .. } => workers,
        }
    }

    /// The execution semantics the scheme needs: lock-free policies race
    /// (stale-additive); blocking policies are conflict-free (sequential).
    pub fn default_mode(&self) -> ExecMode {
        match self {
            Scheme::Serial | Scheme::Wavefront { .. } | Scheme::LibmfTable { .. } => {
                ExecMode::Sequential
            }
            Scheme::Hogwild { .. } | Scheme::BatchHogwild { .. } => ExecMode::StaleAdditive,
        }
    }

    /// The rating-fetch pattern the scheme's memory traffic follows:
    /// plain Hogwild! picks samples at random (each fetch drags a full
    /// cache line), every other policy streams samples in order.
    pub fn rating_access(&self) -> cumf_gpu_sim::RatingAccess {
        match self {
            Scheme::Hogwild { .. } => cumf_gpu_sim::RatingAccess::RandomLine { line_bytes: 128 },
            _ => cumf_gpu_sim::RatingAccess::Streamed,
        }
    }

    /// Policy name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Serial => "serial",
            Scheme::Hogwild { .. } => "hogwild",
            Scheme::BatchHogwild { .. } => "batch-hogwild",
            Scheme::Wavefront { .. } => "wavefront",
            Scheme::LibmfTable { .. } => "libmf-table",
        }
    }

    /// The deterministic update stream implementing this policy over `n`
    /// training samples, derived from the run's `seed`.
    pub fn stream(&self, train: &CooMatrix, seed: u64) -> Box<dyn UpdateStream> {
        match *self {
            Scheme::Serial => Box::new(SerialStream::new(train.nnz())),
            Scheme::Hogwild { workers } => Box::new(HogwildStream::new(
                train.nnz(),
                workers as usize,
                seed ^ 0x5eed,
            )),
            Scheme::BatchHogwild { workers, batch } => Box::new(BatchHogwildStream::new(
                train.nnz(),
                workers as usize,
                batch as usize,
            )),
            Scheme::Wavefront { workers, cols } => Box::new(WavefrontStream::new(
                train,
                workers as usize,
                cols as usize,
                seed ^ 0x3afe,
            )),
            Scheme::LibmfTable { workers, a } => Box::new(LibmfTableStream::new(
                train,
                workers as usize,
                a as usize,
                seed ^ 0x71b,
            )),
        }
    }
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Feature dimension of the model.
    pub k: u32,
    /// Regularisation λ (shared by P and Q, as in the paper).
    pub lambda: f32,
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// Epochs (full passes) to run.
    pub epochs: u32,
    /// Scheduling policy.
    pub scheme: Scheme,
    /// Seed for initialisation and policy randomness.
    pub seed: u64,
    /// Execution-mode override (defaults to [`Scheme::default_mode`]).
    pub mode: Option<ExecMode>,
    /// Abort and flag divergence when test RMSE exceeds this ceiling.
    pub divergence_ceiling: f64,
}

impl SolverConfig {
    /// A sensible default configuration for a given scheme.
    pub fn new(k: u32, scheme: Scheme) -> Self {
        SolverConfig {
            k,
            lambda: 0.05,
            schedule: Schedule::paper_default(0.08, 0.3),
            epochs: 20,
            scheme,
            seed: 42,
            mode: None,
            divergence_ceiling: 1e3,
        }
    }
}

/// Where, how often, and whether to resume from a training checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file path.
    pub path: PathBuf,
    /// Save after every `every`-th epoch.
    pub every: u32,
    /// If true and `path` exists, continue the checkpointed run instead of
    /// starting fresh.
    pub resume: bool,
}

/// Output of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult<E: Element> {
    /// Learned row factors.
    pub p: FactorMatrix<E>,
    /// Learned column factors.
    pub q: FactorMatrix<E>,
    /// Per-epoch convergence trace.
    pub trace: Trace,
    /// Per-epoch execution statistics.
    pub epoch_stats: Vec<EpochStats>,
    /// End-of-run summary snapshot.
    pub report: TrainReport,
    /// True if training hit the divergence ceiling and stopped early.
    pub diverged: bool,
    /// Execution mode actually used (after certificate resolution).
    pub exec_mode: ExecMode,
    /// The schedule prover's verdict, when sequential execution was
    /// requested: the consumed [`crate::sched::ConflictCert`], or the
    /// [`crate::sched::ConflictWitness`] that forced a downgrade to the
    /// stale-additive conflict engine. `None` for racy-by-design modes.
    pub schedule_verdict: Option<Verdict>,
    /// The staleness certifier's verdict, when racy execution was the
    /// resolved default: the [`crate::stale::StaleCert`] bounding the
    /// run's per-row staleness τ and checking the lr·τ condition, or
    /// the [`crate::stale::StaleWitness`] that forced a downgrade to
    /// sequential execution. `None` for explicit mode overrides and
    /// non-racy schedules.
    pub stale_verdict: Option<StaleVerdict>,
    /// The Eq. 5 cost certificate for this run's kernel: kernel-contract
    /// bytes/flops per update certified against [`crate::SgdUpdateCost`]
    /// for the run's `k`, storage precision, and rating-access pattern
    /// (plus the time model's drift, when one priced the trace).
    pub cost_cert: CostCert,
}

impl<E: Element> TrainResult<E> {
    /// Total updates across all executed epochs.
    pub fn total_updates(&self) -> u64 {
        self.epoch_stats.iter().map(|s| s.updates).sum()
    }
}

/// Trains a factorization of `train`, evaluating test RMSE after every
/// epoch. Generic over the storage element: `f32`, or `F16` for the
/// paper's half-precision mode.
pub fn train<E: Element>(
    train: &CooMatrix,
    test: &CooMatrix,
    config: &SolverConfig,
    time: Option<&TimeModel>,
) -> TrainResult<E> {
    train_resumable(train, test, config, time, None)
        .expect("training without checkpointing performs no IO")
}

/// [`train`], with optional checkpoint/resume. With `Some(spec)`, a
/// checkpoint is written every `spec.every` epochs and after the last
/// one (a failed final write is this function's `Err`); with
/// `spec.resume` set and an existing checkpoint at `spec.path`, the run
/// continues where it stopped — deterministic streams and the
/// checkpointed LR state make the result bit-identical to an
/// uninterrupted run.
pub fn train_resumable<E: Element>(
    train: &CooMatrix,
    test: &CooMatrix,
    config: &SolverConfig,
    time: Option<&TimeModel>,
    checkpoint: Option<&CheckpointSpec>,
) -> Result<TrainResult<E>, ModelIoError> {
    assert!(config.k > 0, "k must be positive");
    assert!(!train.is_empty(), "training set is empty");

    // The run's cost certificate: the kernel's memory contract for this
    // (k, precision, rating-access) checked against the Eq. 5 model, with
    // the time model's pricing drift recorded when one is supplied.
    let cost_cert = CostCert::certify::<E>(
        config.k,
        config.scheme.rating_access(),
        time.map(|tm| &tm.cost),
    );

    let (mut model, resume_state) = match checkpoint {
        Some(spec) if spec.resume && spec.path.exists() => {
            let (model, state) = load_checkpoint::<E>(&spec.path)?;
            if model.p.rows() != train.rows()
                || model.q.rows() != train.cols()
                || model.p.k() != config.k
            {
                return Err(ModelIoError::Format(format!(
                    "checkpoint shape {}x{} k={} does not match run {}x{} k={}",
                    model.p.rows(),
                    model.q.rows(),
                    model.p.k(),
                    train.rows(),
                    train.cols(),
                    config.k
                )));
            }
            (model, Some(state))
        }
        _ => {
            let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
            (EngineModel::init_unbiased(train, config.k, &mut rng), None)
        }
    };

    // Sequential execution is only exact for conflict-free schedules, so
    // it must be *proven*: drive a probe instance of the schedule through
    // the conflict prover and consume the certificate (or downgrade on a
    // witness). Explicit `mode` overrides skip the prover — the caller
    // asked for those semantics by name.
    let (mode, schedule_verdict) = match config.mode {
        Some(m) => (m, None),
        None => {
            let default = config.scheme.default_mode();
            if default == ExecMode::Sequential && config.scheme.workers() > 1 {
                let mut probe = config.scheme.stream(train, config.seed);
                resolve_exec_mode(train, probe.as_mut(), default, config.epochs)
            } else {
                (default, None)
            }
        }
    };
    // Racy execution must also be *earned*: lift the solver's Hogwild
    // path into the asynchrony IR and certify bounded staleness plus the
    // lr·τ condition against the configured schedule; a refuted
    // configuration is serialised. Explicit `mode` overrides skip it,
    // and a run the conflict prover already adjudicated keeps that
    // verdict's mode (no downgrade ping-pong).
    let (mode, stale_verdict) = if config.mode.is_none() && schedule_verdict.is_none() {
        let spec = crate::stale::PathSpec::solver_hogwild(
            config.scheme.workers(),
            train.rows().min(train.cols()),
        );
        crate::stale::resolve_stale_mode(&spec, &config.schedule, config.epochs, mode)
    } else {
        (mode, None)
    };
    let thread_batch = match config.scheme {
        Scheme::BatchHogwild { batch, .. } => batch as usize,
        _ => crate::concurrent::DEFAULT_THREAD_BATCH,
    };
    let mut backend = StreamBackend::new(
        train,
        config.scheme.stream(train, config.seed),
        engine_for::<E>(mode, config.scheme.workers() as usize, thread_batch),
        config.scheme.workers(),
    );

    let mut time_domain: Box<dyn TimeDomain> = match time {
        Some(tm) => Box::new(ModelTime(tm.clone())),
        None => Box::new(NoSimTime),
    };

    let mut probes = ObsProbes::new();
    let mut guard = DivergenceGuard::new(config.divergence_ceiling);
    let mut checkpointer =
        checkpoint.map(|spec| Checkpointer::new(&spec.path, spec.every, config.epochs, guard));
    let mut observers: Vec<&mut dyn EpochObserver<E>> = vec![&mut probes, &mut guard];
    if let Some(ckpt) = checkpointer.as_mut() {
        observers.push(ckpt);
    }

    let pipeline = EpochPipeline {
        label: config.scheme.name(),
        epochs: config.epochs,
        lambda: config.lambda,
        schedule: config.schedule.clone(),
    };
    let run = pipeline.run(
        &mut model,
        &mut backend,
        time_domain.as_mut(),
        &mut observers,
        test,
        resume_state,
    );
    if let Some(e) = checkpointer
        .as_mut()
        .and_then(Checkpointer::take_final_error)
    {
        return Err(e);
    }

    Ok(TrainResult {
        p: model.p,
        q: model.q,
        trace: run.trace,
        epoch_stats: run.epoch_stats,
        report: run.report,
        diverged: run.diverged,
        exec_mode: mode,
        schedule_verdict,
        stale_verdict,
        cost_cert,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::F16;
    use crate::SgdUpdateCost;
    use cumf_data::synth::{generate, SynthConfig};

    fn small_dataset() -> cumf_data::synth::SynthDataset {
        generate(&SynthConfig {
            m: 300,
            n: 200,
            k_true: 4,
            train_samples: 15_000,
            test_samples: 1_500,
            noise_std: 0.1,
            row_skew: 0.4,
            col_skew: 0.4,
            rating_offset: 1.0,
            seed: 11,
        })
    }

    fn base_config(scheme: Scheme) -> SolverConfig {
        SolverConfig {
            k: 6,
            lambda: 0.02,
            schedule: Schedule::paper_default(0.1, 0.1),
            epochs: 15,
            scheme,
            seed: 1,
            mode: None,
            divergence_ceiling: 1e3,
        }
    }

    #[test]
    fn serial_sgd_converges_towards_noise_floor() {
        let d = small_dataset();
        let r = train::<f32>(&d.train, &d.test, &base_config(Scheme::Serial), None);
        assert!(!r.diverged);
        let final_rmse = r.trace.final_rmse().unwrap();
        assert!(
            final_rmse < 0.2,
            "serial SGD should approach the 0.1 floor, got {final_rmse}"
        );
        // RMSE decreased substantially from epoch 1.
        assert!(r.trace.points[0].rmse > final_rmse);
        assert_eq!(r.total_updates(), 15_000 * 15);
    }

    #[test]
    fn batch_hogwild_matches_serial_convergence() {
        let d = small_dataset();
        let serial = train::<f32>(&d.train, &d.test, &base_config(Scheme::Serial), None);
        let bh = train::<f32>(
            &d.train,
            &d.test,
            &base_config(Scheme::BatchHogwild {
                workers: 8,
                batch: 64,
            }),
            None,
        );
        assert!(!bh.diverged);
        let s = serial.trace.final_rmse().unwrap();
        let b = bh.trace.final_rmse().unwrap();
        assert!(
            (b - s).abs() < 0.05,
            "batch-hogwild {b} should track serial {s} when s << min(m,n)"
        );
    }

    #[test]
    fn wavefront_converges() {
        let d = small_dataset();
        let r = train::<f32>(
            &d.train,
            &d.test,
            &base_config(Scheme::Wavefront {
                workers: 4,
                cols: 10,
            }),
            None,
        );
        assert!(!r.diverged);
        assert!(r.trace.final_rmse().unwrap() < 0.25);
        // Conflict-free: sequential mode used, so stalls are the only
        // parallel artefact.
        assert!(r.epoch_stats.iter().all(|s| s.updates == 15_000));
    }

    #[test]
    fn libmf_table_converges() {
        let d = small_dataset();
        let r = train::<f32>(
            &d.train,
            &d.test,
            &base_config(Scheme::LibmfTable { workers: 4, a: 10 }),
            None,
        );
        assert!(!r.diverged);
        assert!(r.trace.final_rmse().unwrap() < 0.25);
    }

    #[test]
    fn f16_storage_converges_like_f32() {
        // §4: half-precision storage "does not incur accuracy loss".
        let d = small_dataset();
        let cfg = base_config(Scheme::BatchHogwild {
            workers: 4,
            batch: 64,
        });
        let r32 = train::<f32>(&d.train, &d.test, &cfg, None);
        let r16 = train::<F16>(&d.train, &d.test, &cfg, None);
        let a = r32.trace.final_rmse().unwrap();
        let b = r16.trace.final_rmse().unwrap();
        assert!((a - b).abs() < 0.03, "f16 RMSE {b} must track f32 RMSE {a}");
    }

    #[test]
    fn massive_oversubscription_degrades_convergence() {
        // §7.5: convergence needs s << min(m, n). Crank s up to the matrix
        // dimension and conflicts must visibly hurt (slower convergence or
        // divergence) relative to the serial reference.
        let d = generate(&SynthConfig {
            m: 60,
            n: 40,
            k_true: 4,
            train_samples: 20_000,
            test_samples: 2_000,
            noise_std: 0.1,
            row_skew: 1.0,
            col_skew: 1.0,
            rating_offset: 0.0,
            seed: 12,
        });
        let mut cfg = base_config(Scheme::BatchHogwild {
            workers: 40,
            batch: 8,
        });
        cfg.schedule = Schedule::Fixed(0.5);
        // Pin the racy mode explicitly: the staleness certifier would
        // (correctly) refuse this configuration and serialise it, and
        // this test exists to demonstrate the very pathology it guards
        // against.
        cfg.mode = Some(ExecMode::StaleAdditive);
        let racy = train::<f32>(&d.train, &d.test, &cfg, None);
        let mut serial_cfg = base_config(Scheme::Serial);
        serial_cfg.schedule = Schedule::Fixed(0.5);
        let serial = train::<f32>(&d.train, &d.test, &serial_cfg, None);
        // A fully-diverged trace has no finite point (best_rmse = None).
        let serial_final = serial.trace.best_rmse().unwrap();
        let hurt = racy.diverged
            || racy
                .trace
                .best_rmse()
                .is_none_or(|best| best > serial_final * 1.05);
        assert!(
            hurt,
            "s=40 on a 60x40 matrix must hurt: racy {:?} vs serial {serial_final}",
            racy.trace.best_rmse()
        );
    }

    #[test]
    fn cost_certificate_attached_to_result() {
        let d = small_dataset();
        let r32 = train::<f32>(&d.train, &d.test, &base_config(Scheme::Serial), None);
        assert!(r32.cost_cert.is_certified(), "{}", r32.cost_cert);
        assert_eq!(r32.cost_cert.k, 6);
        assert_eq!(r32.cost_cert.precision, "f32");
        assert_eq!(r32.cost_cert.bytes_per_update, 12 + 16 * 6);
        assert_eq!(r32.cost_cert.time_model_drift, None);
        let r16 = train::<F16>(&d.train, &d.test, &base_config(Scheme::Serial), None);
        assert_eq!(r16.cost_cert.precision, "f16");
        assert_eq!(r16.cost_cert.bytes_per_update, 12 + 8 * 6);
        // Plain Hogwild! certifies under the random-line rating pattern.
        let rh = train::<f32>(
            &d.train,
            &d.test,
            &base_config(Scheme::Hogwild { workers: 4 }),
            None,
        );
        assert!(rh.cost_cert.is_certified(), "{}", rh.cost_cert);
        assert_eq!(rh.cost_cert.bytes_per_update, 128 + 16 * 6);
    }

    #[test]
    fn time_model_accumulates() {
        let d = small_dataset();
        let tm = TimeModel {
            cost: SgdUpdateCost::cumf(16),
            total_bandwidth: 1e9,
            epoch_overhead: 0.001,
        };
        let r = train::<f32>(&d.train, &d.test, &base_config(Scheme::Serial), Some(&tm));
        let pts = &r.trace.points;
        assert!(pts[0].seconds > 0.0);
        for w in pts.windows(2) {
            assert!(w[1].seconds > w[0].seconds);
        }
        // Serial: rounds = N+1, bytes = 12 + 4*16*2 = 140.
        let expected_epoch = 0.001 + (15_000.0 + 1.0) * 140.0 / 1e9;
        assert!((pts[0].seconds - expected_epoch).abs() / expected_epoch < 1e-6);
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn empty_training_set_rejected() {
        let d = small_dataset();
        let empty = CooMatrix::new(5, 5);
        let _ = train::<f32>(&empty, &d.test, &base_config(Scheme::Serial), None);
    }

    #[test]
    fn threaded_mode_override_converges() {
        // The engine seam in action: any scheme's samples executed by the
        // real-thread Hogwild! engine — previously a separate entry point.
        let d = small_dataset();
        let mut cfg = base_config(Scheme::BatchHogwild {
            workers: 4,
            batch: 64,
        });
        cfg.mode = Some(ExecMode::Threaded);
        let r = train::<f32>(&d.train, &d.test, &cfg, None);
        assert!(!r.diverged);
        assert!(r.trace.final_rmse().unwrap() < 0.25);
        assert_eq!(r.total_updates(), 15_000 * 15);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        // Interrupt at epoch 5 of 15, resume, and the full trace must be
        // bit-identical to never having stopped.
        let d = small_dataset();
        let cfg = base_config(Scheme::BatchHogwild {
            workers: 8,
            batch: 64,
        });
        let full = train::<f32>(&d.train, &d.test, &cfg, None);

        let dir = std::env::temp_dir().join("cumf_solver_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.cmfk");
        let _ = std::fs::remove_file(&path);

        let mut first = cfg.clone();
        first.epochs = 5;
        let spec = CheckpointSpec {
            path: path.clone(),
            every: 5,
            resume: true,
        };
        let _ = train_resumable::<f32>(&d.train, &d.test, &first, None, Some(&spec)).unwrap();
        let resumed = train_resumable::<f32>(&d.train, &d.test, &cfg, None, Some(&spec)).unwrap();

        assert_eq!(resumed.trace.points.len(), full.trace.points.len());
        for (a, b) in resumed.trace.points.iter().zip(&full.trace.points) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.updates, b.updates);
            assert_eq!(a.rmse.to_bits(), b.rmse.to_bits(), "epoch {}", a.epoch);
        }
        assert_eq!(resumed.p, full.p);
        assert_eq!(resumed.q, full.q);
        // Only the post-resume epochs were executed by the second call.
        assert_eq!(resumed.epoch_stats.len(), 10);
        let _ = std::fs::remove_file(&path);
    }
}
