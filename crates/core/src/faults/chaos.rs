//! The chaos scenario matrix behind `cumf chaos`.
//!
//! Runs a fixed fault × policy matrix through the [`TrainSupervisor`] on
//! a seeded synthetic dataset and checks the robustness contract:
//!
//! * every scenario is **deterministic** — each one runs twice and the
//!   two recovery-event logs (or typed errors) must digest identically;
//! * every *recovering* scenario ends within a relative RMSE tolerance
//!   of the fault-free baseline (most are bit-exact: retries redeliver
//!   the fault-free bytes and rollbacks replay the fault-free epochs;
//!   only device loss changes the wave schedule and merely stays within
//!   tolerance);
//! * scenarios injecting unrecoverable faults must fail with the right
//!   **typed error**, not spin or panic;
//! * no scenario may leak non-finite values into the returned factors.

use cumf_data::synth::{generate, SynthConfig};
use cumf_gpu_sim::{PCIE3_X16, TITAN_X_MAXWELL};

use crate::lrate::Schedule;
use crate::multi_gpu::MultiGpuConfig;

use super::retry::RetryPolicy;
use super::supervisor::{SupervisorConfig, TrainError, TrainSupervisor};
use super::{FaultKind, FaultPlan};
use crate::fnv::fnv1a64;

/// Options of a chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// Master seed: dataset, model init, fault schedules, retry jitter.
    pub seed: u64,
    /// Smaller dataset and fewer epochs (the CI profile).
    pub quick: bool,
    /// Relative RMSE tolerance vs the fault-free baseline.
    pub tolerance: f64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 42,
            quick: false,
            tolerance: 0.02,
        }
    }
}

/// How a scenario ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// The run completed; RMSE and recovery counts are available.
    Recovered {
        /// Final test RMSE.
        rmse: f64,
        /// Relative RMSE delta vs the fault-free baseline.
        rel_delta: f64,
        /// Rollbacks performed.
        rollbacks: u32,
        /// Transfer retries performed.
        retries: usize,
        /// Simulated GPUs the run finished on.
        gpus_used: u32,
        /// Post-degradation slowdown factor (1.0 when undamaged).
        throughput_hit: f64,
    },
    /// The run surfaced a typed error.
    Failed {
        /// `Display` rendering of the [`TrainError`].
        error: String,
    },
}

/// One row of the chaos matrix, after execution.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (the fault).
    pub name: &'static str,
    /// Recovery policy exercised.
    pub policy: &'static str,
    /// What happened.
    pub outcome: ScenarioOutcome,
    /// Recovery-log events (0 for the baseline).
    pub events: usize,
    /// Digest of the recovery log (or of the error text).
    pub log_digest: u64,
    /// Both executions produced the same digest.
    pub deterministic: bool,
    /// The scenario met its contract.
    pub passed: bool,
    /// One-line explanation when failed (empty when passed).
    pub detail: String,
}

/// The full chaos report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Fault-free baseline RMSE every scenario is compared against.
    pub baseline_rmse: f64,
    /// Relative tolerance applied.
    pub tolerance: f64,
    /// All scenario rows (including the baseline).
    pub scenarios: Vec<ScenarioResult>,
    /// True when every scenario passed.
    pub passed: bool,
}

impl ChaosReport {
    /// Renders the recovery report as a text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos matrix: {} scenarios, baseline rmse {:.4}, tolerance {:.1}%\n\n",
            self.scenarios.len(),
            self.baseline_rmse,
            self.tolerance * 100.0
        ));
        out.push_str(&format!(
            "{:<22} {:<16} {:<9} {:>6} {:>9} {:>6} {:<5} result\n",
            "scenario", "policy", "outcome", "events", "rmse", "Δ%", "det"
        ));
        for s in &self.scenarios {
            let (outcome, rmse, delta) = match &s.outcome {
                ScenarioOutcome::Recovered {
                    rmse, rel_delta, ..
                } => (
                    "recover",
                    format!("{rmse:.4}"),
                    format!("{:.2}", rel_delta * 100.0),
                ),
                ScenarioOutcome::Failed { .. } => ("error", "-".into(), "-".into()),
            };
            out.push_str(&format!(
                "{:<22} {:<16} {:<9} {:>6} {:>9} {:>6} {:<5} {}{}\n",
                s.name,
                s.policy,
                outcome,
                s.events,
                rmse,
                delta,
                if s.deterministic { "yes" } else { "NO" },
                if s.passed { "pass" } else { "FAIL" },
                if s.detail.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", s.detail)
                },
            ));
        }
        let recovered = self
            .scenarios
            .iter()
            .filter(|s| matches!(s.outcome, ScenarioOutcome::Recovered { .. }))
            .count();
        out.push_str(&format!(
            "\n{} recovered, {} typed errors, overall: {}\n",
            recovered,
            self.scenarios.len() - recovered,
            if self.passed { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// What a scenario is required to do.
enum Expect {
    /// Complete within tolerance of the baseline.
    Recover,
    /// Complete on exactly this many surviving GPUs, within tolerance.
    RecoverOnGpus(u32),
    /// Fail with a [`TrainError`] whose text contains the needle.
    FailWith(&'static str),
}

struct Scenario {
    name: &'static str,
    policy: &'static str,
    plan: FaultPlan,
    supervision: SupervisorConfig,
    expect: Expect,
}

fn scenarios(seed: u64, epochs: u32) -> Vec<Scenario> {
    let retry = |max_attempts: u32| RetryPolicy {
        max_attempts,
        seed,
        ..RetryPolicy::default()
    };
    let policy = |max_attempts: u32| SupervisorConfig {
        retry: retry(max_attempts),
        ..SupervisorConfig::default()
    };
    let mid = epochs / 2;
    vec![
        Scenario {
            name: "fault-free",
            policy: "none",
            plan: FaultPlan::new(),
            supervision: policy(4),
            expect: Expect::Recover,
        },
        Scenario {
            name: "lr-spike",
            policy: "rollback",
            plan: FaultPlan::new().at_epoch(mid, FaultKind::LrSpike { factor: 500.0 }),
            supervision: policy(4),
            expect: Expect::Recover,
        },
        Scenario {
            name: "nan-storm",
            policy: "rollback",
            plan: FaultPlan::new().at_epoch(mid + 1, FaultKind::NanStorm { rows: 3 }),
            supervision: policy(4),
            expect: Expect::Recover,
        },
        Scenario {
            name: "transfer-corruption",
            policy: "retry",
            plan: FaultPlan::new().at_epoch(
                2,
                FaultKind::TransferCorruption {
                    flips: 4,
                    clean_after: 2,
                },
            ),
            supervision: policy(4),
            expect: Expect::Recover,
        },
        Scenario {
            name: "corruption-burst",
            policy: "patient-retry",
            plan: FaultPlan::new().at_epoch(
                mid,
                FaultKind::TransferCorruption {
                    flips: 16,
                    clean_after: 4,
                },
            ),
            supervision: policy(6),
            expect: Expect::Recover,
        },
        Scenario {
            name: "corruption-dead-link",
            policy: "bounded-retry",
            plan: FaultPlan::new().at_epoch(
                2,
                FaultKind::TransferCorruption {
                    flips: 4,
                    clean_after: 99,
                },
            ),
            supervision: policy(3),
            expect: Expect::FailWith("transfer failed permanently"),
        },
        Scenario {
            name: "transfer-stall",
            policy: "watchdog-retry",
            plan: FaultPlan::new().at_epoch(
                3,
                FaultKind::TransferStall {
                    stall_s: 5.0,
                    permanent: false,
                },
            ),
            supervision: policy(4),
            expect: Expect::Recover,
        },
        Scenario {
            name: "stall-permanent",
            policy: "bounded-retry",
            plan: FaultPlan::new().at_epoch(
                3,
                FaultKind::TransferStall {
                    stall_s: 5.0,
                    permanent: true,
                },
            ),
            supervision: policy(3),
            expect: Expect::FailWith("transfer failed permanently"),
        },
        Scenario {
            name: "device-loss",
            policy: "degrade",
            plan: FaultPlan::new().at_epoch(mid, FaultKind::DeviceLoss { gpu: 1 }),
            supervision: policy(4),
            expect: Expect::RecoverOnGpus(1),
        },
        Scenario {
            name: "sm-throttle",
            policy: "degrade",
            plan: FaultPlan::new().at_epoch(2, FaultKind::SmThrottle { survival: 0.5 }),
            supervision: policy(4),
            expect: Expect::Recover,
        },
        Scenario {
            name: "corruption+nan-storm",
            policy: "retry+rollback",
            plan: FaultPlan::new()
                .at_epoch(
                    2,
                    FaultKind::TransferCorruption {
                        flips: 4,
                        clean_after: 2,
                    },
                )
                .at_epoch(mid + 2, FaultKind::NanStorm { rows: 2 }),
            supervision: policy(4),
            expect: Expect::Recover,
        },
    ]
}

/// Runs the chaos matrix and returns the recovery report.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let (samples, epochs) = if opts.quick { (8_000, 8) } else { (20_000, 14) };
    let d = generate(&SynthConfig {
        m: 300,
        n: 240,
        k_true: 4,
        train_samples: samples,
        test_samples: samples / 10,
        noise_std: 0.1,
        row_skew: 0.4,
        col_skew: 0.4,
        rating_offset: 1.0,
        seed: opts.seed ^ 0xDA7A,
    });
    let mut config = MultiGpuConfig::new(6, 4, 4, 2);
    config.epochs = epochs;
    config.workers_per_gpu = 8;
    config.batch = 32;
    config.schedule = Schedule::paper_default(0.1, 0.1);
    config.lambda = 0.02;
    config.seed = opts.seed;

    // Fault-free baseline through the same supervised path, so every
    // comparison is apples-to-apples.
    let baseline = TrainSupervisor::new(SupervisorConfig::default(), FaultPlan::new())
        .train_partitioned::<f32>(&d.train, &d.test, &config, &TITAN_X_MAXWELL, &PCIE3_X16)
        .expect("fault-free baseline must train");
    let baseline_rmse = baseline
        .trace
        .final_rmse()
        .expect("baseline produced no trace");

    let mut rows = Vec::new();
    let mut all_pass = true;
    for sc in scenarios(opts.seed, epochs) {
        let run = |_: u32| -> (Result<_, TrainError>, u64, usize) {
            let sup = TrainSupervisor::new(sc.supervision, sc.plan.clone());
            let r = sup.train_partitioned::<f32>(
                &d.train,
                &d.test,
                &config,
                &TITAN_X_MAXWELL,
                &PCIE3_X16,
            );
            let (digest, events) = match &r {
                Ok(res) => (res.log.digest(), res.log.events.len()),
                Err(e) => (fnv1a64(e.to_string().as_bytes()), 0),
            };
            (r, digest, events)
        };
        let (first, digest_a, events) = run(0);
        let (_, digest_b, _) = run(1);
        let deterministic = digest_a == digest_b;

        let (outcome, mut passed, mut detail) = match first {
            Ok(res) => {
                let rmse = res.trace.final_rmse().unwrap_or(f64::NAN);
                let rel_delta = ((rmse - baseline_rmse) / baseline_rmse).abs();
                let leak = res.p.non_finite_count() + res.q.non_finite_count();
                let retries = res.log.count(super::RecoveryKind::Retried);
                let outcome = ScenarioOutcome::Recovered {
                    rmse,
                    rel_delta,
                    rollbacks: res.rollbacks,
                    retries,
                    gpus_used: res.gpus_used,
                    throughput_hit: res.throughput_hit,
                };
                let (mut ok, mut why) = match sc.expect {
                    Expect::Recover => (true, String::new()),
                    Expect::RecoverOnGpus(g) => (
                        res.gpus_used == g,
                        format!("expected {g} surviving GPUs, got {}", res.gpus_used),
                    ),
                    Expect::FailWith(needle) => {
                        (false, format!("expected error containing {needle:?}"))
                    }
                };
                if ok && rel_delta > opts.tolerance {
                    ok = false;
                    why = format!(
                        "rmse {rmse:.4} off baseline {baseline_rmse:.4} by {:.2}%",
                        rel_delta * 100.0
                    );
                }
                if ok && leak > 0 {
                    ok = false;
                    why = format!("{leak} non-finite factors leaked");
                }
                if ok {
                    why.clear();
                }
                (outcome, ok, why)
            }
            Err(e) => {
                let text = e.to_string();
                let (ok, why) = match sc.expect {
                    Expect::FailWith(needle) => (
                        text.contains(needle),
                        format!("error {text:?} missing {needle:?}"),
                    ),
                    _ => (false, format!("unexpected error: {text}")),
                };
                (
                    ScenarioOutcome::Failed { error: text },
                    ok,
                    if ok { String::new() } else { why },
                )
            }
        };
        if !deterministic {
            passed = false;
            detail = format!("non-deterministic: digests {digest_a:#018x} vs {digest_b:#018x}");
        }
        all_pass &= passed;
        rows.push(ScenarioResult {
            name: sc.name,
            policy: sc.policy,
            outcome,
            events,
            log_digest: digest_a,
            deterministic,
            passed,
            detail,
        });
    }

    ChaosReport {
        baseline_rmse,
        tolerance: opts.tolerance,
        scenarios: rows,
        passed: all_pass,
    }
}
