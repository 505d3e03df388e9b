//! Cross-path contracts of the layered engine: the single-GPU solver, the
//! partitioned multi-GPU path, the biased model, and the model file
//! (save/resume, and the CLI readers) all run through one `EpochPipeline`
//! and one file format, so their behaviours must compose and coincide
//! where the layers say they do.

use std::process::Command;

use cumf_sgd::core::engine::{load_checkpoint, save_checkpoint, ModelIoError, ResumeState};
use cumf_sgd::core::multi_gpu::{train_partitioned, MultiGpuConfig};
use cumf_sgd::core::solver::{train, train_resumable, CheckpointSpec, Scheme, SolverConfig};
use cumf_sgd::core::{EngineModel, ExecMode, Schedule, Trace, F16};
use cumf_sgd::data::synth::{generate, SynthConfig, SynthDataset};
use cumf_sgd::gpu_sim::{PCIE3_X16, TITAN_X_MAXWELL};
use cumf_sgd::rng::{ChaCha8Rng, SeedableRng};

fn dataset(offset: f32, seed: u64) -> SynthDataset {
    generate(&SynthConfig {
        m: 300,
        n: 200,
        k_true: 4,
        train_samples: 15_000,
        test_samples: 1_500,
        noise_std: 0.1,
        row_skew: 0.4,
        col_skew: 0.4,
        rating_offset: offset,
        seed,
    })
}

fn assert_traces_converge_identically(a: &Trace, b: &Trace) {
    assert_eq!(a.points.len(), b.points.len(), "trace lengths differ");
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.epoch, y.epoch);
        assert_eq!(x.updates, y.updates, "epoch {}", x.epoch);
        assert_eq!(
            x.rmse.to_bits(),
            y.rmse.to_bits(),
            "epoch {}: {} vs {}",
            x.epoch,
            x.rmse,
            y.rmse
        );
    }
}

/// A 1×1 grid on 1 GPU degenerates to the single-GPU solver: same stream,
/// same engine, same model init — the convergence trace must be
/// bit-identical (only the time domain differs).
#[test]
fn one_by_one_grid_matches_single_gpu_solver_bitwise() {
    let d = dataset(1.0, 33);
    let workers = 8u32;
    let batch = 64u32;
    let seed = 7u64;

    let mut mg = MultiGpuConfig::new(6, 1, 1, 1);
    mg.epochs = 8;
    mg.lambda = 0.02;
    mg.schedule = Schedule::paper_default(0.1, 0.1);
    mg.workers_per_gpu = workers;
    mg.batch = batch;
    mg.seed = seed;
    let part = train_partitioned::<f32>(&d.train, &d.test, &mg, &TITAN_X_MAXWELL, &PCIE3_X16);

    let solo = train::<f32>(
        &d.train,
        &d.test,
        &SolverConfig {
            k: 6,
            lambda: 0.02,
            schedule: Schedule::paper_default(0.1, 0.1),
            epochs: 8,
            scheme: Scheme::BatchHogwild { workers, batch },
            seed,
            mode: Some(ExecMode::StaleAdditive),
            divergence_ceiling: 1e3,
        },
        None,
    );

    assert_traces_converge_identically(&part.trace, &solo.trace);
    assert_eq!(part.p, solo.p, "P factors must be bit-identical");
    assert_eq!(part.q, solo.q, "Q factors must be bit-identical");
}

/// Bias terms absorb a rating offset the factors alone need epochs to
/// learn: biased training beats the unbiased run after 3 epochs on
/// offset-heavy data, on a single device (a 1×1 grid, which is the
/// solver's path) and partitioned over a 4×4 grid on 2 GPUs.
#[test]
fn biased_partitioned_beats_unbiased_on_offset_heavy_data() {
    let d = dataset(3.5, 91);
    for (p, q, gpus) in [(1, 1, 1), (4, 4, 2)] {
        let mut cfg = MultiGpuConfig::new(6, p, q, gpus);
        cfg.epochs = 3;
        cfg.lambda = 0.02;
        cfg.schedule = Schedule::NomadDecay {
            alpha: 0.1,
            beta: 0.1,
        };
        cfg.workers_per_gpu = 8;
        cfg.batch = 32;

        let plain = train_partitioned::<f32>(&d.train, &d.test, &cfg, &TITAN_X_MAXWELL, &PCIE3_X16);
        let mut biased_cfg = cfg.clone();
        biased_cfg.bias = true;
        let biased =
            train_partitioned::<f32>(&d.train, &d.test, &biased_cfg, &TITAN_X_MAXWELL, &PCIE3_X16);

        assert!(!biased.diverged);
        assert!(biased.bias.is_some());
        let b = biased.trace.final_rmse().unwrap();
        let u = plain.trace.final_rmse().unwrap();
        assert!(
            b < u,
            "{p}x{q} grid: bias terms should absorb the 3.5 offset in early epochs: \
             biased {b} vs plain {u}"
        );
    }
}

/// Biased single-device training is a 1×1 grid with `bias: true`: it
/// reaches the noise floor's neighbourhood on offset-heavy data.
#[test]
fn biased_model_converges() {
    let d = dataset(3.5, 91);
    let mut cfg = MultiGpuConfig::new(6, 1, 1, 1);
    cfg.epochs = 20;
    cfg.lambda = 0.02;
    cfg.schedule = Schedule::NomadDecay {
        alpha: 0.1,
        beta: 0.1,
    };
    cfg.workers_per_gpu = 8;
    cfg.batch = 256;
    cfg.bias = true;
    let r = train_partitioned::<f32>(&d.train, &d.test, &cfg, &TITAN_X_MAXWELL, &PCIE3_X16);
    assert!(!r.diverged);
    assert!(r.bias.is_some());
    let final_rmse = r.trace.final_rmse().unwrap();
    assert!(final_rmse < 0.2, "biased model rmse {final_rmse}");
}

/// FP16 storage + the real-thread Hogwild! engine — the other previously
/// impossible combination — converges like the f32 run.
#[test]
fn f16_threaded_hogwild_converges() {
    let d = dataset(1.0, 33);
    let mut cfg = SolverConfig::new(
        6,
        Scheme::BatchHogwild {
            workers: 4,
            batch: 64,
        },
    );
    cfg.epochs = 12;
    cfg.lambda = 0.02;
    cfg.schedule = Schedule::paper_default(0.1, 0.1);
    cfg.mode = Some(ExecMode::Threaded);
    let r = train::<F16>(&d.train, &d.test, &cfg, None);
    assert!(!r.diverged);
    let rmse = r.trace.final_rmse().unwrap();
    assert!(rmse < 0.25, "f16 + threaded Hogwild! rmse {rmse}");
    assert_eq!(r.total_updates(), 15_000 * 12);
}

/// Interrupting at an arbitrary epoch and resuming reproduces the
/// uninterrupted run exactly, including the learning-rate state of an
/// adaptive (BoldDriver) schedule. The interrupted run stops off the
/// checkpoint cadence, so its last epoch is saved by the final write.
#[test]
fn resume_with_adaptive_schedule_is_bit_exact() {
    let d = dataset(1.0, 33);
    let mut cfg = SolverConfig::new(
        6,
        Scheme::BatchHogwild {
            workers: 8,
            batch: 64,
        },
    );
    cfg.epochs = 9;
    cfg.lambda = 0.02;
    cfg.schedule = Schedule::BoldDriver {
        initial: 0.05,
        up: 1.05,
        down: 0.5,
    };
    let full = train::<f32>(&d.train, &d.test, &cfg, None);

    let dir = std::env::temp_dir().join("cumf_engine_paths_resume");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bold.cmfk");
    let _ = std::fs::remove_file(&path);

    let spec = CheckpointSpec {
        path: path.clone(),
        every: 2,
        resume: true,
    };
    let mut first = cfg.clone();
    first.epochs = 5; // not a multiple of `every`
    let stopped = train_resumable::<f32>(&d.train, &d.test, &first, None, Some(&spec)).unwrap();
    let (saved, state) = load_checkpoint::<f32>(&path).unwrap();
    assert_eq!((saved.p, saved.q), (stopped.p, stopped.q));
    assert_eq!(state.next_epoch, 5);
    assert_eq!(state.trace, stopped.trace);
    let lr = state
        .lr
        .expect("the saved file carries the learning-rate state");
    assert_eq!(lr.last_loss, stopped.trace.final_rmse());
    assert_ne!(lr.current, 0.05, "BoldDriver has adapted the rate");
    let resumed = train_resumable::<f32>(&d.train, &d.test, &cfg, None, Some(&spec)).unwrap();

    assert_traces_converge_identically(&resumed.trace, &full.trace);
    assert_eq!(resumed.p, full.p);
    assert_eq!(resumed.q, full.q);
    let _ = std::fs::remove_file(&path);
}

/// Checkpoints round-trip the full engine model — including bias terms —
/// and reject files from the (different) model format.
#[test]
fn checkpoint_round_trips_biased_model() {
    let d = dataset(3.5, 91);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let model = EngineModel::<f32>::init_biased(&d.train, 4, &mut rng);
    let state = ResumeState {
        next_epoch: 3,
        updates: 123,
        sim_seconds: 1.5,
        trace: Trace::default(),
        lr: None,
    };
    let dir = std::env::temp_dir().join("cumf_engine_paths_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("biased.cmfk");
    save_checkpoint(&path, &model, &state).unwrap();
    let (loaded, loaded_state) = load_checkpoint::<f32>(&path).unwrap();
    assert_eq!(loaded, model);
    assert_eq!(loaded_state, state);

    // The CLI predicts with the bias terms, and refuses to serve a model
    // whose ranking would silently drop them.
    let path_arg = path.to_str().unwrap();
    let predicted = cumf_ok(&["predict", "--model", path_arg, "--user", "1", "--item", "2"]);
    assert!(
        predicted.contains(&format!("{:.3}", model.predict(1, 2))),
        "{predicted}"
    );
    let (_, stderr) = cumf_fails(&["serve", "--model", path_arg, "--requests", "10"]);
    assert!(
        stderr.contains("biased models are not servable"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Writes the offset-1 dataset to `dir` as `train.bin` / `test.bin` and
/// returns their paths.
fn write_dataset(dir: &std::path::Path) -> (String, String) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let d = dataset(1.0, 33);
    let train_bin = dir.join("train.bin");
    let test_bin = dir.join("test.bin");
    cumf_sgd::data::io::write_binary_file(&train_bin, &d.train).unwrap();
    cumf_sgd::data::io::write_binary_file(&test_bin, &d.test).unwrap();
    let s = |p: std::path::PathBuf| p.to_str().unwrap().to_string();
    (s(train_bin), s(test_bin))
}

/// Runs the `cumf` binary, asserting success; returns its stdout.
fn cumf_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cumf"))
        .args(args)
        .output()
        .expect("cumf binary runs");
    assert!(
        out.status.success(),
        "cumf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Runs the `cumf` binary, asserting it exits 1 without panicking;
/// returns its stdout and stderr.
fn cumf_fails(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cumf"))
        .args(args)
        .output()
        .expect("cumf binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "cumf {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "cumf {args:?}: {stderr}");
    (stdout, stderr)
}

/// The first word printed after `label` in `text`.
fn printed_after<'a>(text: &'a str, label: &str) -> &'a str {
    let at = text
        .find(label)
        .unwrap_or_else(|| panic!("no `{label}` in {text}"));
    text[at + label.len()..].split_whitespace().next().unwrap()
}

/// End-to-end CLI: `cumf train --save` writes one model file that
/// `evaluate`, `predict` and `serve --model` all read at the element width
/// its header records — no width flag on the read side, for f32 and f16.
#[test]
fn cli_save_evaluate_predict_serve_round_trip() {
    let dir = std::env::temp_dir().join("cumf_cli_model_round_trip");
    let (train_bin, test_bin) = write_dataset(&dir);
    for (name, width) in [("f32.cmfk", None), ("f16.cmfk", Some("--f16"))] {
        let model = dir.join(name);
        let model = model.to_str().unwrap();
        let mut train = vec!["train", "--data", &train_bin, "--test", &test_bin];
        train.extend([
            "--k",
            "6",
            "--epochs",
            "4",
            "--workers",
            "8",
            "--save",
            model,
        ]);
        train.extend(width);
        let trained = cumf_ok(&train);
        let evaluated = cumf_ok(&["evaluate", "--model", model, "--data", &test_bin]);
        // The reloaded model is the trained one: same test RMSE.
        assert_eq!(
            printed_after(&trained, "final test RMSE:"),
            printed_after(&evaluated, "samples:"),
            "{name}"
        );
        let predicted = cumf_ok(&["predict", "--model", model, "--user", "3", "--item", "7"]);
        let rating: f32 = printed_after(&predicted, "item 7):").parse().unwrap();
        assert!(rating.is_finite(), "{name}: {predicted}");
        let served = cumf_ok(&["serve", "--model", model, "--requests", "200"]);
        assert!(
            served.contains("300 users x 200 items (k=6)"),
            "{name}: {served}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A model file in the retired CMFM format is refused with a typed
/// "bad magic" error, by the library and by the CLI, never a panic.
#[test]
fn legacy_cmfm_file_is_a_bad_magic_error() {
    let dir = std::env::temp_dir().join("cumf_legacy_cmfm");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("legacy.cmfm");
    // CMFM v1: magic, version, element width, m, n, k, then P and Q.
    let mut bytes = b"CMFM".to_vec();
    for x in [1u32, 4, 1, 1, 2] {
        bytes.extend(x.to_le_bytes());
    }
    for x in [0.5f32, 0.25, 0.5, 0.25] {
        bytes.extend(x.to_le_bytes());
    }
    std::fs::write(&path, &bytes).unwrap();

    let err = load_checkpoint::<f32>(&path).unwrap_err();
    assert!(matches!(err, ModelIoError::Format(_)), "{err}");
    assert!(err.to_string().contains("bad magic"), "{err}");

    let (_, stderr) = cumf_fails(&["predict", "--model", path.to_str().unwrap()]);
    assert!(stderr.contains("bad magic"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end CLI: `cumf train --save ... --resume` continues an
/// interrupted run from the model file and produces the same file as one
/// uninterrupted invocation.
#[test]
fn cli_checkpoint_resume_round_trip() {
    let dir = std::env::temp_dir().join("cumf_cli_resume_test");
    let (train_bin, test_bin) = write_dataset(&dir);
    let run = |epochs: &str, save: &std::path::Path, extra: &[&str]| {
        let mut args = vec!["train", "--data", &train_bin, "--test", &test_bin];
        args.extend([
            "--k",
            "6",
            "--epochs",
            epochs,
            "--workers",
            "8",
            "--batch",
            "64",
        ]);
        args.extend(["--save", save.to_str().unwrap()]);
        args.extend(extra);
        cumf_ok(&args);
    };

    let model_full = dir.join("full.cmfk");
    run("10", &model_full, &[]);

    let model_resumed = dir.join("resumed.cmfk");
    // Interrupt: run only 4 of 10 epochs, saving every 2.
    run("4", &model_resumed, &["--checkpoint-every", "2"]);
    // Resume to the full 10 epochs.
    run(
        "10",
        &model_resumed,
        &["--checkpoint-every", "2", "--resume"],
    );

    let full_bytes = std::fs::read(&model_full).unwrap();
    let resumed_bytes = std::fs::read(&model_resumed).unwrap();
    assert_eq!(
        full_bytes, resumed_bytes,
        "resumed model file must be byte-identical to the uninterrupted run's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--save` that cannot be written is a failed run: exit 1, and no
/// claim that the model was saved.
#[test]
fn cli_failed_final_save_exits_nonzero() {
    let dir = std::env::temp_dir().join("cumf_cli_failed_save");
    let (train_bin, test_bin) = write_dataset(&dir);
    let save = dir.join("missing").join("model.cmfk");
    let save = save.to_str().unwrap();
    let (stdout, stderr) = cumf_fails(&[
        "train",
        "--data",
        &train_bin,
        "--test",
        &test_bin,
        "--k",
        "6",
        "--epochs",
        "2",
        "--workers",
        "8",
        "--save",
        save,
    ]);
    assert!(!stdout.contains("model saved"), "{stdout}");
    assert!(stderr.contains(save), "the error names the file: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An epoch the divergence guard rejects is not saved, even when its
/// factors are finite: here the ceiling sits below the RMSE any first
/// epoch reaches, on the run's last epoch, which is also on the cadence.
#[test]
fn diverged_epoch_is_never_saved() {
    let d = dataset(1.0, 33);
    let dir = std::env::temp_dir().join("cumf_engine_paths_diverged");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = CheckpointSpec {
        path: dir.join("model.cmfk"),
        every: 1,
        resume: false,
    };
    let mut cfg = SolverConfig::new(6, Scheme::Serial);
    cfg.epochs = 2;
    train_resumable::<f32>(&d.train, &d.test, &cfg, None, Some(&spec)).unwrap();
    let good = std::fs::read(&spec.path).unwrap();
    cfg.epochs = 1;
    cfg.divergence_ceiling = 1e-3;
    let r = train_resumable::<f32>(&d.train, &d.test, &cfg, None, Some(&spec)).unwrap();
    assert!(r.diverged);
    assert_eq!(r.p.non_finite_count(), 0, "the rejected factors are finite");
    assert_eq!(std::fs::read(&spec.path).unwrap(), good);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run that diverges on its last epoch reports the divergence and
/// leaves the model file already at `--save` untouched and loadable.
#[test]
fn cli_diverged_run_keeps_the_saved_model() {
    let dir = std::env::temp_dir().join("cumf_cli_diverged_save");
    let (train_bin, test_bin) = write_dataset(&dir);
    let model = dir.join("model.cmfk");
    let model = model.to_str().unwrap();
    let train = |epochs: &'static str, alpha: &'static str| {
        vec![
            "train",
            "--data",
            &train_bin,
            "--test",
            &test_bin,
            "--k",
            "6",
            "--epochs",
            epochs,
            "--workers",
            "8",
            "--alpha",
            alpha,
            "--save",
            model,
        ]
    };
    cumf_ok(&train("2", "0.1"));
    let good = std::fs::read(model).unwrap();
    // One epoch at a step size far past stability: the run's last epoch
    // is the one that diverges.
    let (stdout, stderr) = cumf_fails(&train("1", "50"));
    assert!(stderr.contains("training diverged"), "{stderr}");
    assert!(!stdout.contains("model saved"), "{stdout}");
    assert_eq!(
        std::fs::read(model).unwrap(),
        good,
        "the good model survives"
    );
    cumf_ok(&["evaluate", "--model", model, "--data", &test_bin]);
    let _ = std::fs::remove_dir_all(&dir);
}
