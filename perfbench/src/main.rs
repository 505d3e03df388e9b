//! `cumf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host label, the workload's sizes, (traced) the per-layer
//! ledger and span totals, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Traced runs also write
//! their spans to `out/` in this package's directory.

use std::process::ExitCode;

use cumf_perfbench::{declared, run, Size, Spec, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: cumf-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Spec, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Spec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(msg) => return usage(&msg),
    };
    let (report, rec) = run(&spec);

    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.ledger {
        println!("ledger {} {} {}", m.name, m.value, m.unit);
    }
    for name in rec.names() {
        println!(
            "span {name} count={} total_s={:.6}",
            rec.durations(name).len(),
            rec.total(name)
        );
    }
    for note in &report.outcome.notes {
        println!("failed: {note}");
    }
    if spec.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}.spans.json",
            spec.workload.name(),
            spec.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, rec.write_json())) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }

    let mismatches = report.mismatches(declared(spec.trace));
    if !mismatches.is_empty() {
        for m in mismatches {
            eprintln!("error: {m}");
        }
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
