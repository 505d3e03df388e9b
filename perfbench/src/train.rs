//! The two training workloads: `netflix-target` (f32, batch-Hogwild! on
//! the StaleAdditive engine, factors in cache, trained to a target RMSE)
//! and `yahoo-dram-f16` (f16, wavefront on the Sequential engine, factors
//! several times the last-level cache, a fixed epoch budget).

use std::time::Instant;

use cumf_core::concurrent::{run_epoch_with, striped_locked_epoch, ExecParams, StripedFactors};
use cumf_core::kernel::sgd_update;
use cumf_core::lrate::{LearningRate, Schedule};
use cumf_core::multi_gpu::{train_partitioned, MultiGpuConfig};
use cumf_core::sched::{BatchHogwildStream, StreamItem, UpdateStream};
use cumf_core::solver::{train, Scheme, SolverConfig, TrainResult};
use cumf_core::{rmse, Element, ExecMode, FactorMatrix, KernelTraffic, F16};
use cumf_data::presets::{NETFLIX, YAHOO_MUSIC};
use cumf_data::synth::{generate, SynthConfig, SynthDataset};
use cumf_data::CooMatrix;
use cumf_gpu_sim::{PCIE3_X16, TITAN_X_MAXWELL};
use cumf_rng::{ChaCha8Rng, SeedableRng};

use crate::report::{median, Outcome, Report, END_TO_END, PER_LAYER};
use crate::trace::{Recorder, Span};
use crate::{convert, Size, Spec, SETUP_REPS};

/// How long a training run lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epochs {
    /// Train until test RMSE reaches `rmse_floor + margin`, within
    /// `budget` epochs.
    ToTarget {
        /// Epochs the calibration run may take.
        budget: u32,
        /// Target distance above the data's noise floor.
        margin: f64,
    },
    /// Exactly this many epochs.
    Fixed(u32),
}

/// Everything that defines one training workload.
#[derive(Debug, Clone)]
pub struct TrainPlan {
    /// Data to generate.
    pub data: SynthConfig,
    /// Feature dimension.
    pub k: u32,
    /// Scheduling policy.
    pub scheme: Scheme,
    /// Regularisation λ.
    pub lambda: f32,
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// Run length.
    pub epochs: Epochs,
    /// Whether the traced run also measures one epoch per engine.
    pub engine_rungs: bool,
}

/// Updates the bare-kernel rung replays: a prefix of epoch 0's order.
const KERNEL_UPDATES: usize = 300_000;

/// Netflix stand-in scale: the largest (in 0.005 steps) whose f32 P+Q
/// at k=16 fit a 2 MiB L2 (31,212 × 1,155 rows, 2.07 MB).
const NETFLIX_SCALE: f64 = 0.065;

/// `netflix-target`: the Table-4 cuMF_SGD setup on the Netflix stand-in.
pub fn netflix_plan(seed: u64, size: Size) -> TrainPlan {
    let scale = match size {
        Size::Full => NETFLIX_SCALE,
        Size::Tiny => 0.003,
    };
    let data = NETFLIX.scaled_config(scale, 16, seed);
    let workers = 16.min(data.m.min(data.n) / 20);
    TrainPlan {
        data,
        k: 16,
        scheme: Scheme::BatchHogwild {
            workers,
            batch: 256,
        },
        lambda: 0.02,
        schedule: Schedule::paper_default(0.1, 0.1),
        epochs: Epochs::ToTarget {
            budget: 15,
            margin: 0.08,
        },
        engine_rungs: true,
    }
}

/// `yahoo-dram-f16`: Yahoo!Music's full dimensions at the paper's k=128
/// in f16, over one million Zipf-skewed ratings (the full 253M would be
/// 3 GB of COO). λ is not Table 3's 1.0, which suits the 0–100 rating
/// scale; the stand-in's ratings sit near 3.
pub fn yahoo_plan(seed: u64, size: Size) -> TrainPlan {
    let (m, n, train_samples, test_samples) = match size {
        Size::Full => (
            YAHOO_MUSIC.m as u32,
            YAHOO_MUSIC.n as u32,
            1_000_000,
            50_000,
        ),
        Size::Tiny => (20_000, 12_000, 40_000, 2_000),
    };
    TrainPlan {
        data: SynthConfig {
            m,
            n,
            k_true: 8,
            train_samples,
            test_samples,
            noise_std: 0.1,
            row_skew: 0.55,
            col_skew: 0.55,
            rating_offset: 3.0,
            seed,
        },
        k: 128,
        scheme: Scheme::Wavefront {
            workers: 16,
            cols: 32,
        },
        lambda: 0.05,
        schedule: Schedule::paper_default(YAHOO_MUSIC.alpha, YAHOO_MUSIC.beta),
        epochs: Epochs::Fixed(2),
        engine_rungs: false,
    }
}

/// The facts about one `train` call that its correctness checks read.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Test RMSE after each epoch.
    pub rmse: Vec<f64>,
    /// Training hit the divergence ceiling.
    pub diverged: bool,
    /// Execution mode after certificate resolution.
    pub exec_mode: ExecMode,
    /// Conflict prover verdict, when one ran.
    pub schedule_certified: Option<bool>,
    /// Staleness certifier verdict, when one ran.
    pub stale_certified: Option<bool>,
    /// Eq. 5 cost certificate held.
    pub cost_certified: bool,
}

impl RunSummary {
    fn of<E: Element>(r: &TrainResult<E>) -> Self {
        RunSummary {
            rmse: r.trace.points.iter().map(|p| p.rmse).collect(),
            diverged: r.diverged,
            exec_mode: r.exec_mode,
            schedule_certified: r.schedule_verdict.as_ref().map(|v| v.is_certified()),
            stale_certified: r.stale_verdict.as_ref().map(|v| v.is_certified()),
            cost_certified: r.cost_cert.is_certified(),
        }
    }
}

/// Why a training run failed its checks (empty when it passed).
/// `target` is the RMSE a to-target run must reach.
fn train_failures(plan: &TrainPlan, target: Option<f64>, s: &RunSummary) -> Vec<String> {
    let mut out = Vec::new();
    let last = s.rmse.last().copied().unwrap_or(f64::NAN);
    if s.diverged || !last.is_finite() {
        out.push(format!("diverged (final rmse {last})"));
    }
    let expect = plan.scheme.default_mode();
    if s.exec_mode != expect {
        out.push(format!("exec mode {:?}, expected {expect:?}", s.exec_mode));
    }
    if !s.cost_certified {
        out.push("cost certificate refuted".into());
    }
    match expect {
        ExecMode::StaleAdditive if s.stale_certified != Some(true) => {
            out.push(format!("staleness verdict {:?}", s.stale_certified))
        }
        ExecMode::Sequential if s.schedule_certified != Some(true) => {
            out.push(format!("conflict verdict {:?}", s.schedule_certified))
        }
        _ => {}
    }
    match (plan.epochs, target) {
        (Epochs::ToTarget { .. }, Some(t)) if last.is_nan() || last > t => {
            out.push(format!("final rmse {last:.4} misses target {t:.4}"))
        }
        (Epochs::Fixed(_), _) if !(s.rmse.len() >= 2 && last < s.rmse[0]) => {
            out.push(format!("rmse did not improve after epoch 1: {:?}", s.rmse))
        }
        _ => {}
    }
    out
}

/// Counts one `train` call in `outcome`, failed unless every check holds.
pub fn check_train(
    outcome: &mut Outcome,
    plan: &TrainPlan,
    target: Option<f64>,
    summary: &RunSummary,
    what: &str,
) {
    let fails = train_failures(plan, target, summary);
    outcome.check(fails.is_empty(), || format!("{what}: {}", fails.join("; ")));
}

fn config(plan: &TrainPlan, epochs: u32) -> SolverConfig {
    SolverConfig {
        k: plan.k,
        lambda: plan.lambda,
        schedule: plan.schedule.clone(),
        epochs,
        scheme: plan.scheme,
        seed: plan.data.seed,
        mode: None,
        divergence_ceiling: 1e3,
    }
}

/// Runs a training workload in storage precision `E`.
pub fn run<E: Element>(plan: &TrainPlan, spec: &Spec, rec: &mut Recorder, report: &mut Report) {
    // Set-up: data generation, repeated so its median is steady.
    let mut setup = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPS {
        drop(data.take());
        let t0 = Instant::now();
        data = Some(rec.span("data.generate", |_| generate(&plan.data)));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let d = data.expect("set-up ran at least once");
    report.factor_bytes =
        (d.train.rows() as u64 + d.train.cols() as u64) * plan.k as u64 * E::BYTES as u64;
    report.notes.push(format!(
        "workload: {} rows x {} cols, k={}, {} train / {} test ratings, {} factors",
        d.train.rows(),
        d.train.cols(),
        plan.k,
        d.train.nnz(),
        d.test.nnz(),
        E::NAME
    ));

    // A to-target run first finds the target epoch with one budgeted,
    // untimed call; timed calls then train exactly to it.
    let (epochs, target) = match plan.epochs {
        Epochs::Fixed(n) => (n, None),
        Epochs::ToTarget { budget, margin } => {
            let target = d.rmse_floor + margin;
            let r = train::<E>(&d.train, &d.test, &config(plan, budget), None);
            let summary = RunSummary::of(&r);
            check_train(
                &mut report.outcome,
                plan,
                Some(target),
                &summary,
                "calibration run",
            );
            (
                r.trace.epochs_to_rmse(target).unwrap_or(budget),
                Some(target),
            )
        }
    };

    // Timed calls. The traced run alternates recording on and off, so the
    // two medians give the tracing overhead, and follows each traced call
    // with a layer-by-layer replay of it, so that the replay samples the
    // same stretch of time as the call it explains on a noisy host.
    let tracing = rec.enabled();
    let min_calls = if tracing { 2 } else { 1 };
    let cfg = config(plan, epochs);
    let (mut plain, mut traced, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut residuals, mut replayed) = (Vec::new(), Replayed::default());
    let mut last = None;
    let start = Instant::now();
    while plain.len() + traced.len() < min_calls || start.elapsed().as_secs_f64() < spec.seconds {
        let on = tracing && traced.len() <= plain.len();
        rec.set_enabled(on);
        let t0 = Instant::now();
        let r = rec.span("solver.train", |_| {
            train::<E>(&d.train, &d.test, &cfg, None)
        });
        let wall = t0.elapsed().as_secs_f64();
        if on { &mut traced } else { &mut plain }.push(wall);
        rates.push(r.total_updates() as f64 / wall);
        let summary = RunSummary::of(&r);
        drop(r);
        check_train(&mut report.outcome, plan, target, &summary, "train call");
        last = Some(summary);
        if on {
            let first = rec.spans().len();
            replay::<E>(plan, &d, epochs, rec, &mut replayed);
            let accounted: f64 = rec.spans()[first..]
                .iter()
                .filter(|s| matches!(s.name, "feature.init" | "exec.epoch" | "metrics.rmse"))
                .map(Span::secs)
                .sum();
            residuals.push(wall - accounted);
        }
    }
    rec.set_enabled(tracing);
    let last = last.expect("at least one timed call");
    let final_rmse = last.rmse.last().copied().unwrap_or(f64::NAN);
    let all: Vec<f64> = plain.iter().chain(&traced).copied().collect();
    report.notes.push(format!(
        "train: {epochs} epochs per call, {} calls (wall s {:.3?}), final test rmse {final_rmse:.5} (floor {}{})",
        all.len(),
        all,
        d.rmse_floor,
        target.map_or(String::new(), |t| format!(", target {t:.3}"))
    ));

    if !tracing {
        report.metric(&END_TO_END, "setup_s", median(&setup));
        report.metric(&END_TO_END, "call_s", median(&all));
        report.metric(&END_TO_END, "ops_per_s", median(&rates));
        report.metric(&END_TO_END, "quality_ratio", final_rmse / d.rmse_floor);
        return;
    }

    let train_s = median(&traced);
    let residual = median(&residuals);
    report.ledger("train_s", train_s, "s");
    report.ledger("test_rmse", final_rmse, "rmse");
    report.ledger(
        "trace.overhead_share",
        (train_s - median(&plain)) / median(&plain),
        "ratio",
    );
    report.ledger(
        "data.generate_s",
        median(&rec.durations("data.generate")),
        "s",
    );
    layer_ledger::<E>(plan, &replayed, rec, report);
    report.ledger("solver.residual_s", residual, "s");
    if plan.engine_rungs {
        engine_rungs(plan, &d, rec, report);
    }

    for (name, ledger) in [
        ("data.generate_s", "data.generate_s"),
        ("feature.init_s", "feature.init_s"),
        ("kernel.f32.ns_per_op", "kernel.f32.ns_per_update"),
        ("kernel.f16.ns_per_op", "kernel.f16.ns_per_update"),
        ("kernel.bytes_per_op", "kernel.bytes_per_update"),
        ("kernel.gbps", "kernel.gbps"),
        ("call.self_s", "solver.residual_s"),
        ("trace.overhead_share", "trace.overhead_share"),
    ] {
        let v = report.ledger_value(ledger).expect("ledger entry recorded");
        report.metric(&PER_LAYER, name, v);
    }
    report.metric(&PER_LAYER, "call.self_share", residual / train_s);
}

/// Drains one epoch of `stream`, appending sample indices to `order`;
/// returns the stalls seen.
fn drain(stream: &mut dyn UpdateStream, order: &mut Vec<usize>) -> u64 {
    let workers = stream.workers();
    let mut done = vec![false; workers];
    let mut live = workers;
    let mut stalls = 0;
    while live > 0 {
        for (w, finished) in done.iter_mut().enumerate() {
            if *finished {
                continue;
            }
            match stream.next(w) {
                StreamItem::Sample(i) => order.push(i),
                StreamItem::Stall => stalls += 1,
                StreamItem::Exhausted => {
                    *finished = true;
                    live -= 1;
                }
            }
        }
    }
    stalls
}

/// `sgd_update` over `order` with no engine around it.
fn kernel_pass<T: Element>(
    data: &CooMatrix,
    p: &mut FactorMatrix<T>,
    q: &mut FactorMatrix<T>,
    order: &[usize],
    gamma: f32,
    lambda: f32,
) -> f32 {
    let mut acc = 0.0f32;
    for &i in order {
        let e = data.get(i);
        acc += sgd_update(p.row_mut(e.u), q.row_mut(e.v), e.r, gamma, lambda);
    }
    std::hint::black_box(acc)
}

/// Times the kernel in precision `T` on a copy of the initial model.
#[allow(clippy::too_many_arguments)]
fn kernel_rung<S: Element, T: Element>(
    data: &CooMatrix,
    p: &FactorMatrix<S>,
    q: &FactorMatrix<S>,
    order: &[usize],
    gamma: f32,
    lambda: f32,
    name: &'static str,
    rec: &mut Recorder,
) -> f64 {
    let (mut pc, mut qc) = (convert::<S, T>(p), convert::<S, T>(q));
    rec.span(name, |_| {
        kernel_pass(data, &mut pc, &mut qc, order, gamma, lambda)
    });
    rec.total(name) * 1e9 / order.len().max(1) as f64
}

/// Counts the layer replays accumulate.
#[derive(Debug, Default)]
struct Replayed {
    /// Stream items drained (samples + stalls).
    items: u64,
    /// Stalls among them.
    stalls: u64,
    /// Updates the engine epochs applied.
    updates: u64,
    /// Rounds with a shared P row.
    rows: u64,
    /// Rounds with a shared Q column.
    cols: u64,
    /// Bare-kernel ns/update in (f32, f16), from the first replay.
    kernel_ns: Option<(f64, f64)>,
}

/// Replays one `train` call's layers from the benchmark's own code, each
/// in its own span: model initialisation, then per epoch the engine epoch
/// and the RMSE evaluation back to back as `train` runs them, then one
/// stream drain per epoch. The first replay also times the bare kernel,
/// in f32 and f16, over epoch 0's order before the epochs run.
fn replay<E: Element>(
    plan: &TrainPlan,
    d: &SynthDataset,
    epochs: u32,
    rec: &mut Recorder,
    acc: &mut Replayed,
) {
    let (train, seed) = (&d.train, plan.data.seed);
    let (mut p, mut q) = rec.span("feature.init", |_| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = FactorMatrix::<E>::random_init(train.rows(), plan.k, &mut rng);
        let q = FactorMatrix::<E>::random_init(train.cols(), plan.k, &mut rng);
        (p, q)
    });
    let lr = LearningRate::new(plan.schedule.clone());
    let mut stream = plan.scheme.stream(train, seed);
    let mut order = Vec::with_capacity(train.nnz());
    if acc.kernel_ns.is_none() {
        stream.begin_epoch(0);
        drain(stream.as_mut(), &mut order);
        let prefix = &order[..order.len().min(KERNEL_UPDATES)];
        let (gamma, lambda) = (lr.gamma(0), plan.lambda);
        let f32_ns = kernel_rung::<E, f32>(train, &p, &q, prefix, gamma, lambda, "kernel.f32", rec);
        let f16_ns = kernel_rung::<E, F16>(train, &p, &q, prefix, gamma, lambda, "kernel.f16", rec);
        acc.kernel_ns = Some((f32_ns, f16_ns));
    }
    let mode = plan.scheme.default_mode();
    for epoch in 0..epochs {
        let stats = rec.span("exec.epoch", |_| {
            stream.begin_epoch(epoch);
            run_epoch_with(
                train,
                &mut p,
                &mut q,
                stream.as_mut(),
                lr.gamma(epoch),
                plan.lambda,
                mode,
                ExecParams::default(),
            )
        });
        acc.updates += stats.updates;
        acc.rows += stats.row_collisions;
        acc.cols += stats.col_collisions;
        rec.span("metrics.rmse", |_| {
            std::hint::black_box(rmse(&d.test, &p, &q))
        });
    }
    for epoch in 0..epochs {
        order.clear();
        let stalls = rec.span("sched.stream", |_| {
            stream.begin_epoch(epoch);
            drain(stream.as_mut(), &mut order)
        });
        acc.stalls += stalls;
        acc.items += order.len() as u64 + stalls;
    }
}

/// The replayed layers' ledger entries.
fn layer_ledger<E: Element>(plan: &TrainPlan, acc: &Replayed, rec: &Recorder, report: &mut Report) {
    let (f32_ns, f16_ns) = acc.kernel_ns.expect("at least one replay");
    let own_ns = if E::BYTES == 2 { f16_ns } else { f32_ns };
    let bytes =
        KernelTraffic::of_update_kernel::<E>(plan.k).dram_bytes(plan.scheme.rating_access());
    let stream_total = rec.total("sched.stream");
    let exec_epochs = rec.durations("exec.epoch");
    let kernel_in_exec = acc.updates as f64 * own_ns * 1e-9;
    let per_epoch = 1.0 / exec_epochs.len().max(1) as f64;
    report.ledger(
        "feature.init_s",
        median(&rec.durations("feature.init")),
        "s",
    );
    report.ledger(
        "sched.stream_s",
        median(&rec.durations("sched.stream")),
        "s",
    );
    report.ledger(
        "sched.ns_per_item",
        stream_total * 1e9 / acc.items.max(1) as f64,
        "ns",
    );
    report.ledger(
        "sched.stall_ratio",
        acc.stalls as f64 / acc.items.max(1) as f64,
        "ratio",
    );
    report.ledger("kernel.f32.ns_per_update", f32_ns, "ns");
    report.ledger("kernel.f16.ns_per_update", f16_ns, "ns");
    report.ledger("kernel.bytes_per_update", bytes as f64, "B");
    report.ledger("kernel.gbps", bytes as f64 / own_ns, "GB/s");
    report.ledger("exec.epoch_s", median(&exec_epochs), "s");
    report.ledger(
        "exec.self_s",
        (exec_epochs.iter().sum::<f64>() - stream_total - kernel_in_exec) * per_epoch,
        "s",
    );
    report.ledger("exec.row_collisions", acc.rows as f64 * per_epoch, "count");
    report.ledger("exec.col_collisions", acc.cols as f64 * per_epoch, "count");
    report.ledger(
        "metrics.rmse_s",
        median(&rec.durations("metrics.rmse")),
        "s",
    );
}

/// One epoch per execution engine on the workload's data, each from the
/// same initial model: the engine ladder of the roadmap's layer ledger.
fn engine_rungs(plan: &TrainPlan, d: &SynthDataset, rec: &mut Recorder, report: &mut Report) {
    let (train, seed) = (&d.train, plan.data.seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let p0 = FactorMatrix::<f32>::random_init(train.rows(), plan.k, &mut rng);
    let q0 = FactorMatrix::<f32>::random_init(train.cols(), plan.k, &mut rng);
    let gamma = LearningRate::new(plan.schedule.clone()).gamma(0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batch = 256;
    let params = ExecParams {
        thread_batch: batch,
    };

    for (name, mode) in [
        ("exec.sequential", ExecMode::Sequential),
        ("exec.stale_additive", ExecMode::StaleAdditive),
    ] {
        let (mut p, mut q) = (p0.clone(), q0.clone());
        let mut stream = plan.scheme.stream(train, seed);
        rec.span(name, |_| {
            stream.begin_epoch(0);
            run_epoch_with(
                train,
                &mut p,
                &mut q,
                stream.as_mut(),
                gamma,
                plan.lambda,
                mode,
                params,
            )
        });
    }
    {
        // The threaded engine runs one OS thread per stream worker, so its
        // stream has exactly `nproc` workers.
        let (mut p, mut q) = (p0.clone(), q0.clone());
        let mut stream = BatchHogwildStream::new(train.nnz(), threads, batch);
        rec.span("exec.threaded", |_| {
            stream.begin_epoch(0);
            run_epoch_with(
                train,
                &mut p,
                &mut q,
                &mut stream,
                gamma,
                plan.lambda,
                ExecMode::Threaded,
                params,
            )
        });
    }
    {
        let (sp, sq) = (
            StripedFactors::from_matrix(&p0, 64),
            StripedFactors::from_matrix(&q0, 64),
        );
        rec.span("exec.striped", |_| {
            striped_locked_epoch(train, &sp, &sq, threads, batch, gamma, plan.lambda)
        });
    }
    {
        let mut cfg = MultiGpuConfig::new(plan.k, 4, 4, 2);
        cfg.epochs = 1;
        cfg.lambda = plan.lambda;
        cfg.schedule = plan.schedule.clone();
        cfg.workers_per_gpu = plan.scheme.workers();
        cfg.batch = batch as u32;
        cfg.seed = seed;
        rec.span("exec.partitioned", |_| {
            train_partitioned::<f32>(train, &d.test, &cfg, &TITAN_X_MAXWELL, &PCIE3_X16)
        });
    }
    for (span, metric) in [
        ("exec.sequential", "exec.sequential.epoch_s"),
        ("exec.stale_additive", "exec.stale_additive.epoch_s"),
        ("exec.threaded", "exec.threaded.epoch_s"),
        ("exec.striped", "exec.striped.epoch_s"),
        ("exec.partitioned", "exec.partitioned.epoch_s"),
    ] {
        report.ledger(metric, rec.total(span), "s");
    }
}
