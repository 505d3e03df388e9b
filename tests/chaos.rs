//! Chaos integration tests: the fault-injection + self-healing supervisor
//! stack, end to end. The core guarantees exercised here:
//!
//! * retry/backoff is deterministic, jittered, and bounded — a permanently
//!   dead link surfaces a typed error instead of spinning;
//! * recovery is *exact*: a run that retried through transfer corruption,
//!   or rolled back through a NaN storm / learning-rate spike, finishes
//!   bit-identical to the fault-free run (same trace, same factors);
//! * rollback restores the BoldDriver learning-rate state along with the
//!   factors, so the post-rollback trajectory is the checkpoint-resumed
//!   trajectory;
//! * device loss degrades gracefully onto the surviving simulated GPUs;
//! * the whole recovery event log is a deterministic function of
//!   (plan, seed).

use cumf_sgd::core::multi_gpu::MultiGpuConfig;
use cumf_sgd::core::{
    FaultKind, FaultPlan, RecoveryKind, RetryPolicy, Schedule, SupervisorConfig, TrainError,
    TrainSupervisor,
};
use cumf_sgd::data::synth::{generate, SynthConfig, SynthDataset};
use cumf_sgd::gpu_sim::{PCIE3_X16, TITAN_X_MAXWELL};

fn dataset() -> SynthDataset {
    generate(&SynthConfig {
        m: 120,
        n: 100,
        k_true: 3,
        train_samples: 6_000,
        test_samples: 600,
        ..SynthConfig::default()
    })
}

fn config(schedule: Schedule) -> MultiGpuConfig {
    let mut cfg = MultiGpuConfig::new(5, 4, 4, 2);
    cfg.epochs = 12;
    cfg.workers_per_gpu = 4;
    cfg.batch = 32;
    cfg.lambda = 0.02;
    cfg.schedule = schedule;
    cfg.seed = 17;
    cfg
}

fn nomad() -> Schedule {
    Schedule::paper_default(0.1, 0.1)
}

fn bold() -> Schedule {
    Schedule::BoldDriver {
        initial: 0.08,
        up: 1.05,
        down: 0.5,
    }
}

fn run(
    d: &SynthDataset,
    cfg: &MultiGpuConfig,
    supervision: SupervisorConfig,
    plan: FaultPlan,
) -> Result<cumf_sgd::core::SupervisedResult<f32>, TrainError> {
    TrainSupervisor::new(supervision, plan).train_partitioned::<f32>(
        &d.train,
        &d.test,
        cfg,
        &TITAN_X_MAXWELL,
        &PCIE3_X16,
    )
}

#[test]
fn retry_delays_are_deterministic_jittered_and_bounded() {
    let p = RetryPolicy {
        max_attempts: 6,
        base_delay_s: 0.01,
        multiplier: 2.0,
        max_delay_s: 0.2,
        jitter: 0.25,
        seed: 7,
    };
    let a = p.delays();
    // Bounded: max_attempts attempts means max_attempts - 1 waits.
    assert_eq!(a.len(), 5);
    // Deterministic: the full sequence is a pure function of the policy,
    // and each delay is indexable out of order.
    assert_eq!(a, p.delays());
    for (i, &d) in a.iter().enumerate() {
        assert_eq!(d, p.delay(i as u32), "delay({i}) must be order-independent");
    }
    // Every delay sits inside the jitter envelope of the capped
    // exponential: nominal_i = min(base * mult^i, max), ±25%.
    let mut jittered = false;
    for (i, &d) in a.iter().enumerate() {
        let nominal = (0.01 * 2f64.powi(i as i32)).min(0.2);
        assert!(
            d >= nominal * 0.75 - 1e-12 && d <= nominal * 1.25 + 1e-12,
            "delay {i} = {d} outside jitter envelope of {nominal}"
        );
        if (d - nominal).abs() > 1e-6 {
            jittered = true;
        }
    }
    assert!(jittered, "jitter must actually perturb the sequence");
    // A different seed reshuffles the jitter.
    let q = RetryPolicy { seed: 8, ..p };
    assert_ne!(a, q.delays());
    // Zero jitter collapses to the exact capped exponential.
    let exact = RetryPolicy { jitter: 0.0, ..p };
    assert_eq!(exact.delays(), vec![0.01, 0.02, 0.04, 0.08, 0.16]);
}

#[test]
fn permanently_dead_link_is_a_typed_error_not_a_spin() {
    let d = dataset();
    let cfg = config(nomad());
    let supervision = SupervisorConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
        ..SupervisorConfig::default()
    };
    // A corruption that never delivers clean within the attempt budget.
    let plan = FaultPlan::new().at_epoch(
        2,
        FaultKind::TransferCorruption {
            flips: 4,
            clean_after: 99,
        },
    );
    match run(&d, &cfg, supervision, plan) {
        Err(TrainError::TransferFailed { epoch, attempts }) => {
            assert_eq!(epoch, 2);
            assert_eq!(attempts, 3, "must stop at the attempt budget");
        }
        Err(other) => panic!("expected TransferFailed, got {other}"),
        Ok(_) => panic!("dead link must not complete"),
    }

    // Same story for a permanent stall: every retry burns a watchdog
    // timeout, then the supervisor gives up with the same typed error.
    let plan = FaultPlan::new().at_epoch(
        3,
        FaultKind::TransferStall {
            stall_s: 5.0,
            permanent: true,
        },
    );
    match run(&d, &cfg, supervision, plan) {
        Err(TrainError::TransferFailed { epoch, attempts }) => {
            assert_eq!(epoch, 3);
            assert_eq!(attempts, 3);
        }
        Err(other) => panic!("expected TransferFailed, got {other}"),
        Ok(_) => panic!("permanent stall must not complete"),
    }
}

#[test]
fn corruption_retry_recovers_bit_exactly() {
    let d = dataset();
    let cfg = config(nomad());
    let baseline = run(&d, &cfg, SupervisorConfig::default(), FaultPlan::new()).unwrap();
    let plan = FaultPlan::new().at_epoch(
        2,
        FaultKind::TransferCorruption {
            flips: 4,
            clean_after: 2,
        },
    );
    let faulted = run(&d, &cfg, SupervisorConfig::default(), plan).unwrap();
    assert!(faulted.log.count(RecoveryKind::Retried) >= 1);
    assert_eq!(faulted.log.count(RecoveryKind::Recovered), 1);
    assert_eq!(faulted.rollbacks, 0);
    // The clean delivery restored the exact pre-corruption bytes, so the
    // recovered numerics are the fault-free numerics, bit for bit. (The
    // simulated timeline is *not* equal: recovery honestly charges the
    // backoff delays, so `seconds` drifts from the faulted epoch on.)
    assert_eq!(faulted.trace.points.len(), baseline.trace.points.len());
    for (f, b) in faulted.trace.points.iter().zip(&baseline.trace.points) {
        assert_eq!(f.epoch, b.epoch);
        assert_eq!(f.updates, b.updates);
        assert_eq!(f.rmse.to_bits(), b.rmse.to_bits());
    }
    let faulted_s: f64 = faulted.trace.points.last().unwrap().seconds;
    let baseline_s: f64 = baseline.trace.points.last().unwrap().seconds;
    assert!(faulted_s > baseline_s, "backoff must cost simulated time");
    assert_eq!(faulted.p, baseline.p);
    assert_eq!(faulted.q, baseline.q);
}

#[test]
fn nan_storm_rolls_back_without_leaking_non_finite() {
    let d = dataset();
    let cfg = config(nomad());
    let baseline = run(&d, &cfg, SupervisorConfig::default(), FaultPlan::new()).unwrap();
    let plan = FaultPlan::new().at_epoch(3, FaultKind::NanStorm { rows: 3 });
    let r = run(&d, &cfg, SupervisorConfig::default(), plan).unwrap();
    assert!(r.rollbacks >= 1, "a NaN storm must force a rollback");
    assert!(r.log.count(RecoveryKind::RolledBack) >= 1);
    assert_eq!(r.p.non_finite_count(), 0, "no NaN may survive recovery");
    assert_eq!(r.q.non_finite_count(), 0);
    // Rollback restored the snapshot and the storm is one-shot, so the
    // replay *is* the fault-free trajectory.
    assert_eq!(r.trace.points, baseline.trace.points);
    assert_eq!(r.p, baseline.p);
}

/// A sim-time trigger fires at the first epoch whose simulated start is at
/// or past `t`, and only once: the rolled-back replay of that epoch starts
/// past `t` again but runs clean.
#[test]
fn sim_time_fault_fires_once_at_first_epoch_starting_past_t() {
    let d = dataset();
    let cfg = config(nomad());
    let baseline = run(&d, &cfg, SupervisorConfig::default(), FaultPlan::new()).unwrap();
    let starts: Vec<f64> = baseline
        .timings
        .iter()
        .scan(0.0, |clock, t| {
            let start = *clock;
            *clock += t.seconds;
            Some(start)
        })
        .collect();
    // Exactly epoch 4's start, and a point inside epoch 3: either way
    // epoch 4 is the first to start at or past t.
    for t in [starts[4], 0.5 * (starts[3] + starts[4])] {
        let plan = FaultPlan::new().at_sim_time(t, FaultKind::NanStorm { rows: 3 });
        let r = run(&d, &cfg, SupervisorConfig::default(), plan).unwrap();
        let injected: Vec<u32> = r
            .log
            .events
            .iter()
            .filter(|e| e.kind == RecoveryKind::Injected)
            .map(|e| e.epoch)
            .collect();
        assert_eq!(injected, [4], "t={t}\n{}", r.log);
        assert!(r.rollbacks >= 1, "the storm must force a rollback");
        assert_eq!(r.trace.points, baseline.trace.points);
        assert_eq!(r.p, baseline.p);
        assert_eq!(r.q, baseline.q);
    }
}

/// Satellite regression for DivergenceGuard rollback: the learning-rate
/// spike diverges a BoldDriver run; rollback must restore the adaptive LR
/// state (current rate + last observed loss) together with the factors. If
/// it restored only the factors, the post-rollback gammas would differ and
/// the trace would split from the fault-free run.
#[test]
fn lr_spike_rollback_restores_bold_driver_state() {
    let d = dataset();
    let cfg = config(bold());
    let baseline = run(&d, &cfg, SupervisorConfig::default(), FaultPlan::new()).unwrap();
    let plan = FaultPlan::new().at_epoch(4, FaultKind::LrSpike { factor: 500.0 });
    let r = run(&d, &cfg, SupervisorConfig::default(), plan).unwrap();
    assert!(
        r.rollbacks >= 1,
        "a 500x LR spike must diverge and roll back"
    );
    // Diverge → rollback → converge reproduces the checkpoint-resumed
    // (i.e. uninterrupted) trajectory exactly.
    assert_eq!(r.trace.points, baseline.trace.points);
    assert_eq!(r.p, baseline.p);
    assert_eq!(r.q, baseline.q);
}

#[test]
fn device_loss_completes_on_surviving_gpus() {
    let d = dataset();
    let cfg = config(nomad());
    let baseline = run(&d, &cfg, SupervisorConfig::default(), FaultPlan::new()).unwrap();
    let plan = FaultPlan::new().at_epoch(3, FaultKind::DeviceLoss { gpu: 1 });
    let r = run(&d, &cfg, SupervisorConfig::default(), plan).unwrap();
    assert_eq!(r.gpus_used, 1, "the run must finish on the survivor");
    assert_eq!(r.log.count(RecoveryKind::Degraded), 1);
    let base = baseline.trace.final_rmse().unwrap();
    let got = r.trace.final_rmse().unwrap();
    assert!(got.is_finite());
    assert!(
        ((got - base) / base).abs() <= 0.02,
        "degraded run must stay within 2% of baseline: {got} vs {base}"
    );
}

#[test]
fn recovery_log_is_deterministic() {
    let d = dataset();
    let cfg = config(nomad());
    let plan = || {
        FaultPlan::new()
            .at_epoch(
                2,
                FaultKind::TransferCorruption {
                    flips: 4,
                    clean_after: 2,
                },
            )
            .at_epoch(4, FaultKind::NanStorm { rows: 2 })
    };
    let a = run(&d, &cfg, SupervisorConfig::default(), plan()).unwrap();
    let b = run(&d, &cfg, SupervisorConfig::default(), plan()).unwrap();
    assert_eq!(a.log.digest(), b.log.digest());
    let lines = |r: &cumf_sgd::core::SupervisedResult<f32>| {
        r.log
            .events
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(&a), lines(&b), "event-for-event identical logs");
    assert!(!a.log.events.is_empty());
}
