//! The benchmark's own tests: the declared metric set, a tiny-size smoke
//! run of every workload, and injected wrong answers.

use cumf_core::ExecMode;
use cumf_perfbench::report::{valid_name, valid_unit, Better, Outcome, END_TO_END, PER_LAYER};
use cumf_perfbench::serve::check_answer;
use cumf_perfbench::train::{check_train, netflix_plan, yahoo_plan, RunSummary};
use cumf_perfbench::{declared, run, Size, Spec, Workload};
use cumf_serve::Scored;

fn tiny(workload: Workload, trace: bool) -> Spec {
    Spec {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    }
}

#[test]
fn every_workload_emits_every_declared_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (report, rec) = run(&tiny(workload, trace));
            let label = format!("{} trace={trace}", workload.name());
            assert_eq!(
                report.mismatches(declared(trace)),
                Vec::<String>::new(),
                "{label}"
            );
            assert!(
                report.outcome.correct,
                "{label}: {:?}",
                report.outcome.notes
            );
            assert_eq!(
                report.outcome.failed, 0,
                "{label}: {:?}",
                report.outcome.notes
            );
            assert!(report.outcome.attempted >= 1, "{label}");
            for m in report.metrics.iter().chain(&report.ledger) {
                assert!(valid_name(m.name), "{label}: bad name {}", m.name);
                assert!(valid_unit(m.unit), "{label}: bad unit {}", m.unit);
            }
            let line = report.result_line();
            assert!(line.starts_with("{\"correct\": true,"), "{label}: {line}");
            if trace {
                for layer in ["data.generate", "feature.init"] {
                    assert!(!rec.durations(layer).is_empty(), "{label}: no {layer} span");
                }
                let ledger: Vec<&str> = report.ledger.iter().map(|m| m.name).collect();
                let expect: &[&str] = match workload {
                    Workload::ServeZipf => &[
                        "serve.topn_ns_per_item",
                        "serve.cache_hit_ratio",
                        "serve.self_s",
                        "serve.hedges",
                        "serve.retries",
                        "serve.timeouts",
                        "serve.shed",
                    ],
                    _ => &[
                        "sched.stream_s",
                        "sched.ns_per_item",
                        "sched.stall_ratio",
                        "kernel.f32.ns_per_update",
                        "kernel.f16.ns_per_update",
                        "exec.epoch_s",
                        "exec.self_s",
                        "metrics.rmse_s",
                        "solver.residual_s",
                    ],
                };
                for name in expect {
                    assert!(ledger.contains(name), "{label}: ledger lacks {name}");
                }
                if workload == Workload::NetflixTarget {
                    for rung in [
                        "sequential",
                        "stale_additive",
                        "threaded",
                        "striped",
                        "partitioned",
                    ] {
                        let name = format!("exec.{rung}.epoch_s");
                        assert!(
                            ledger.iter().any(|n| *n == name),
                            "{label}: ledger lacks {name}"
                        );
                    }
                }
            } else {
                assert!(
                    rec.spans().is_empty(),
                    "{label}: untraced run recorded spans"
                );
            }
        }
    }
}

#[test]
fn declared_names_and_units_are_legal_and_unique() {
    for list in [&END_TO_END[..], &PER_LAYER[..]] {
        for (i, m) in list.iter().enumerate() {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(
                list[i + 1..].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
        }
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn benchmark_json_lists_the_declared_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to this package");
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let better = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            m.name, m.unit
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len();
    assert_eq!(text.matches("\"name\":").count(), declared, "extra entries");
}

#[test]
fn a_corrupted_top_n_is_caught_and_counted() {
    let want = vec![
        Scored {
            item: 3,
            score: 2.5,
        },
        Scored {
            item: 9,
            score: 1.25,
        },
    ];
    let mut outcome = Outcome::default();
    check_answer(&mut outcome, 7, &want, &want);
    assert!(outcome.correct);

    let mut swapped = want.clone();
    swapped.swap(0, 1);
    let mut rescored = want.clone();
    rescored[1].score = f32::from_bits(rescored[1].score.to_bits() + 1);
    for wrong in [swapped, rescored, want[..1].to_vec()] {
        check_answer(&mut outcome, 7, &wrong, &want);
    }
    assert!(!outcome.correct);
    assert_eq!((outcome.attempted, outcome.failed), (4, 3));
}

fn passing(mode: ExecMode) -> RunSummary {
    RunSummary {
        rmse: vec![0.4, 0.3, 0.17],
        diverged: false,
        exec_mode: mode,
        schedule_certified: (mode == ExecMode::Sequential).then_some(true),
        stale_certified: (mode == ExecMode::StaleAdditive).then_some(true),
        cost_certified: true,
    }
}

#[test]
fn a_run_that_misses_its_target_or_loses_its_mode_is_caught_and_counted() {
    let plan = netflix_plan(1, Size::Tiny);
    let target = Some(0.18);
    let mut outcome = Outcome::default();
    check_train(
        &mut outcome,
        &plan,
        target,
        &passing(ExecMode::StaleAdditive),
        "ok",
    );
    assert!(outcome.correct && outcome.failed == 0);

    let mut missed = passing(ExecMode::StaleAdditive);
    missed.rmse.push(0.181);
    let mut downgraded = passing(ExecMode::StaleAdditive);
    downgraded.exec_mode = ExecMode::Sequential;
    downgraded.stale_certified = Some(false);
    let mut diverged = passing(ExecMode::StaleAdditive);
    diverged.rmse.push(f64::NAN);
    for bad in [missed, downgraded, diverged] {
        check_train(&mut outcome, &plan, target, &bad, "bad");
    }
    assert!(!outcome.correct);
    assert_eq!((outcome.attempted, outcome.failed), (4, 3));
}

#[test]
fn a_fixed_budget_run_must_certify_and_improve() {
    let plan = yahoo_plan(1, Size::Tiny);
    let mut outcome = Outcome::default();
    check_train(
        &mut outcome,
        &plan,
        None,
        &passing(ExecMode::Sequential),
        "ok",
    );
    assert!(outcome.correct);

    let mut flat = passing(ExecMode::Sequential);
    flat.rmse = vec![0.4, 0.41];
    let mut refuted = passing(ExecMode::Sequential);
    refuted.schedule_certified = Some(false);
    let mut uncosted = passing(ExecMode::Sequential);
    uncosted.cost_certified = false;
    for bad in [flat, refuted, uncosted] {
        check_train(&mut outcome, &plan, None, &bad, "bad");
    }
    assert_eq!((outcome.attempted, outcome.failed), (4, 3));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "serve-zipf",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "serve-zipf", "--seed", "1", "--seconds", "1"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cumf-perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
