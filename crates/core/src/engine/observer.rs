//! Observer layer: side effects hanging off the epoch loop.
//!
//! The pipeline invokes every [`EpochObserver`] after each epoch's
//! evaluation; observers see an immutable [`EpochCtx`] snapshot plus the
//! model, and may vote to stop the run. The stock observers cover the
//! three concerns the monolithic loops used to hand-roll:
//!
//! * [`ObsProbes`] — the solver's counter/gauge/histogram surface;
//! * [`DivergenceGuard`] — the RMSE ceiling (and non-finite) early exit;
//! * [`Checkpointer`] — periodic and final model-file saves (`--save`,
//!   `--resume`).

use std::path::PathBuf;

use crate::concurrent::EpochStats;
use crate::feature::Element;
use crate::lrate::LrState;
use crate::metrics::Trace;

use super::checkpoint::{save_checkpoint, ModelIoError, ResumeState};
use super::model::EngineModel;

/// Everything an observer may inspect after one epoch.
#[derive(Debug)]
pub struct EpochCtx<'a> {
    /// 0-based index of the epoch just executed.
    pub epoch: u32,
    /// Learning rate the epoch ran at.
    pub gamma: f32,
    /// Execution statistics of the epoch.
    pub stats: &'a EpochStats,
    /// Test RMSE after the epoch.
    pub rmse: f64,
    /// Seconds the epoch cost on the run's time domain.
    pub sim_epoch_seconds: f64,
    /// Measured wall seconds of the update phase.
    pub epoch_wall_seconds: f64,
    /// Measured wall seconds of the RMSE evaluation.
    pub eval_wall_seconds: f64,
    /// Updates accumulated across the run so far.
    pub total_updates: u64,
    /// Time-domain seconds accumulated across the run so far.
    pub total_sim_seconds: f64,
    /// Convergence trace so far (includes this epoch's point).
    pub trace: &'a Trace,
    /// Learning-rate evaluator state after this epoch's observation.
    pub lr: LrState,
}

/// An observer's verdict on whether training should continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineControl {
    /// Keep training.
    Continue,
    /// Stop after this epoch.
    Stop {
        /// True when the stop is a divergence abort (flags the result).
        diverged: bool,
    },
}

/// A hook invoked by the pipeline after every epoch.
pub trait EpochObserver<E: Element> {
    /// Called after each epoch's evaluation; return
    /// [`PipelineControl::Stop`] to end the run early.
    fn on_epoch_end(&mut self, ctx: &EpochCtx<'_>, model: &EngineModel<E>) -> PipelineControl;
}

/// The solver's observability surface: per-epoch counters, gauges, and
/// histograms in the global `cumf-obs` registry (every probe is a no-op
/// unless recording is enabled).
pub struct ObsProbes {
    epochs: cumf_obs::Counter,
    updates: cumf_obs::Counter,
    stalls: cumf_obs::Counter,
    row_coll: cumf_obs::Counter,
    col_coll: cumf_obs::Counter,
    rmse: cumf_obs::Gauge,
    gamma: cumf_obs::Gauge,
    epoch_secs: cumf_obs::Histogram,
    eval_secs: cumf_obs::Histogram,
    sim_secs: cumf_obs::Histogram,
}

impl ObsProbes {
    /// Registers (or re-attaches to) the solver series.
    pub fn new() -> Self {
        ObsProbes {
            epochs: cumf_obs::counter("cumf_solver_epochs_total", "Training epochs executed"),
            updates: cumf_obs::counter("cumf_solver_updates_total", "SGD updates applied"),
            stalls: cumf_obs::counter(
                "cumf_solver_stalls_total",
                "Worker-round slots lost to scheduler stalls",
            ),
            row_coll: cumf_obs::counter(
                "cumf_solver_row_collisions_total",
                "Rounds where two or more workers touched the same P row",
            ),
            col_coll: cumf_obs::counter(
                "cumf_solver_col_collisions_total",
                "Rounds where two or more workers touched the same Q column",
            ),
            rmse: cumf_obs::gauge("cumf_solver_rmse", "Test RMSE after the most recent epoch"),
            gamma: cumf_obs::gauge(
                "cumf_solver_gamma",
                "Learning rate of the most recent epoch",
            ),
            epoch_secs: cumf_obs::histogram(
                "cumf_solver_epoch_seconds",
                "Wall-clock seconds per training epoch (updates only, excluding evaluation)",
            ),
            eval_secs: cumf_obs::histogram(
                "cumf_solver_rmse_eval_seconds",
                "Wall-clock seconds per test-RMSE evaluation",
            ),
            sim_secs: cumf_obs::histogram(
                "cumf_solver_sim_epoch_seconds",
                "Simulated seconds per epoch under the attached machine-time model",
            ),
        }
    }
}

impl Default for ObsProbes {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Element> EpochObserver<E> for ObsProbes {
    fn on_epoch_end(&mut self, ctx: &EpochCtx<'_>, _model: &EngineModel<E>) -> PipelineControl {
        self.epoch_secs.record(ctx.epoch_wall_seconds);
        self.eval_secs.record(ctx.eval_wall_seconds);
        if ctx.sim_epoch_seconds > 0.0 {
            self.sim_secs.record(ctx.sim_epoch_seconds);
        }
        self.epochs.inc();
        self.updates.add(ctx.stats.updates);
        self.stalls.add(ctx.stats.stalls);
        self.row_coll.add(ctx.stats.row_collisions);
        self.col_coll.add(ctx.stats.col_collisions);
        self.rmse.set(ctx.rmse);
        self.gamma.set(ctx.gamma as f64);
        PipelineControl::Continue
    }
}

/// Stops the run when test RMSE goes non-finite or exceeds a ceiling.
///
/// With [`DivergenceGuard::with_model_scan`] the guard additionally scans
/// the model itself for non-finite factors after each epoch: an injected
/// NaN storm can poison rows the test set never touches, so RMSE alone
/// would let the corruption train onwards and surface epochs later. The
/// scan makes the stop fire on the epoch the storm happened, which is what
/// lets the supervisor's rollback (restoring factors *and* the checkpointed
/// BoldDriver learning-rate state through the CMFK resume machinery)
/// reproduce the fault-free trajectory bit-exactly.
#[derive(Debug, Clone, Copy)]
pub struct DivergenceGuard {
    ceiling: f64,
    scan_model: bool,
}

impl DivergenceGuard {
    /// Guards against RMSE above `ceiling` (or non-finite).
    pub fn new(ceiling: f64) -> Self {
        DivergenceGuard {
            ceiling,
            scan_model: false,
        }
    }

    /// Guards against non-finite RMSE only (the biased/baseline paths).
    pub fn non_finite_only() -> Self {
        DivergenceGuard {
            ceiling: f64::INFINITY,
            scan_model: false,
        }
    }

    /// Also scan the model for non-finite factors/biases after each epoch
    /// (the supervisor's NaN-storm detector).
    pub fn with_model_scan(mut self) -> Self {
        self.scan_model = true;
        self
    }
}

impl<E: Element> EpochObserver<E> for DivergenceGuard {
    fn on_epoch_end(&mut self, ctx: &EpochCtx<'_>, model: &EngineModel<E>) -> PipelineControl {
        if !ctx.rmse.is_finite() || ctx.rmse > self.ceiling {
            return PipelineControl::Stop { diverged: true };
        }
        if self.scan_model && model.non_finite_count() > 0 {
            return PipelineControl::Stop { diverged: true };
        }
        PipelineControl::Continue
    }
}

/// Saves the model file with its resume state every `every` epochs and
/// after the run's last epoch. An epoch its [`DivergenceGuard`] rejects is
/// never saved: that guard stops the run there, and the file keeps the
/// last good model. A failed periodic save is
/// reported to stderr and training continues — it must not kill a long
/// run; a failed final save is kept for [`Checkpointer::take_final_error`].
#[derive(Debug)]
pub struct Checkpointer {
    path: PathBuf,
    every: u32,
    epochs: u32,
    guard: DivergenceGuard,
    final_error: Option<ModelIoError>,
}

impl Checkpointer {
    /// Saves to `path` after every `every`-th epoch (`every` is clamped
    /// to at least 1) and after epoch `epochs`, the run's last, skipping
    /// epochs that `guard` (the run's own divergence guard) rejects.
    pub fn new(path: impl Into<PathBuf>, every: u32, epochs: u32, guard: DivergenceGuard) -> Self {
        Checkpointer {
            path: path.into(),
            every: every.max(1),
            epochs,
            guard,
            final_error: None,
        }
    }

    /// The error of the save after the last epoch, if that save failed.
    pub fn take_final_error(&mut self) -> Option<ModelIoError> {
        self.final_error.take()
    }
}

impl<E: Element> EpochObserver<E> for Checkpointer {
    fn on_epoch_end(&mut self, ctx: &EpochCtx<'_>, model: &EngineModel<E>) -> PipelineControl {
        let done = ctx.epoch + 1;
        let last = done == self.epochs;
        if !(last || done.is_multiple_of(self.every)) {
            return PipelineControl::Continue;
        }
        if let PipelineControl::Stop { .. } = self.guard.on_epoch_end(ctx, model) {
            return PipelineControl::Continue;
        }
        let state = ResumeState {
            next_epoch: done,
            updates: ctx.total_updates,
            sim_seconds: ctx.total_sim_seconds,
            trace: ctx.trace.clone(),
            lr: Some(ctx.lr),
        };
        if let Err(e) = save_checkpoint(&self.path, model, &state) {
            if last {
                self.final_error = Some(e);
            } else {
                eprintln!("warning: checkpoint to {} failed: {e}", self.path.display());
            }
        }
        PipelineControl::Continue
    }
}
