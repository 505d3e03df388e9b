//! The `serve-zipf` workload: closed-loop top-N serving with the
//! `ServeConfig` defaults over a 4×2 sharded model with a Netflix-sized
//! catalog, built from seeded factors.

use std::time::Instant;

use cumf_core::{Element, FactorMatrix, F16};
use cumf_data::presets::NETFLIX;
use cumf_data::synth::{generate, zipf_weights, AliasTable, SynthConfig};
use cumf_rng::{ChaCha8Rng, SeedableRng};
use cumf_serve::topn::SCAN_BLOCK;
use cumf_serve::{run_closed_loop, top_n_blocked, top_n_naive, Scored, ServeConfig, ShardedModel};

use crate::report::{median, Outcome, Report, END_TO_END, PER_LAYER};
use crate::trace::Recorder;
use crate::{convert, Size, Spec, SETUP_REPS};

/// Everything that defines the serving workload.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Ratings whose item degrees give the popularity prior; the planted
    /// factors become the served model.
    pub data: SynthConfig,
    /// Closed-loop configuration.
    pub serve: ServeConfig,
}

/// P-shards × Q-shards of the served model.
const GRID: (u32, u32) = (4, 2);
/// Seeded users whose blocked top-N is compared with the naive scan.
const CHECKED_USERS: usize = 32;
/// Zipf-drawn users the traced top-N rung scans in f32 after each traced
/// call (so it samples the same stretch of time as the calls); the slower
/// f16 rung scans the first quarter of them once.
const RUNG_USERS: usize = 128;

/// `serve-zipf`: 16 closed-loop clients, Zipf s=1.1 users, top-10, LRU
/// 512, 50 ms deadline, the full overload policy.
pub fn serve_plan(seed: u64, size: Size) -> ServePlan {
    let (m, n, k, requests) = match size {
        Size::Full => ((NETFLIX.m / 10) as u32, NETFLIX.n as u32, 128, 2_000),
        Size::Tiny => (2_000, 600, 32, 1_000),
    };
    ServePlan {
        data: SynthConfig {
            m,
            n,
            k_true: k,
            train_samples: 20 * n as usize,
            test_samples: 1_000,
            seed,
            ..SynthConfig::default()
        },
        serve: ServeConfig {
            requests,
            seed,
            ..ServeConfig::default()
        },
    }
}

/// Counts one top-N answer in `outcome`: `got` must equal the reference
/// `want` item for item and score for score.
pub fn check_answer(outcome: &mut Outcome, user: u32, got: &[Scored], want: &[Scored]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits());
    outcome.check(same, || {
        format!("top-N of user {user} differs from the naive scan")
    });
}

fn users(m: u32, zipf_s: f64, count: usize, seed: u64) -> Vec<u32> {
    let table = AliasTable::new(&zipf_weights(m as usize, zipf_s));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count).map(|_| table.sample(&mut rng)).collect()
}

/// Scans the whole catalog once for each user row in `rows`, in a span
/// called `name`; returns the nanoseconds per scored item over every such
/// span so far.
fn scan<E: Element>(
    rows: &[Vec<E>],
    q: &FactorMatrix<E>,
    top_n: usize,
    name: &'static str,
    rec: &mut Recorder,
) -> f64 {
    rec.span(name, |_| {
        for row in rows {
            std::hint::black_box(top_n_blocked(row, q, 0..q.rows(), top_n, SCAN_BLOCK));
        }
    });
    let scored = rec.durations(name).len() * rows.len() * q.rows() as usize;
    rec.total(name) * 1e9 / scored as f64
}

/// Runs the serving workload.
pub fn run(plan: &ServePlan, spec: &Spec, rec: &mut Recorder, report: &mut Report) {
    let (m, n, k) = (plan.data.m, plan.data.n, plan.data.k_true);
    let mut setup = Vec::new();
    let mut model = None;
    for _ in 0..SETUP_REPS {
        drop(model.take());
        let t0 = Instant::now();
        let d = rec.span("data.generate", |_| generate(&plan.data));
        let (p, q) = rec.span("feature.init", |_| {
            (
                FactorMatrix::<f32>::from_f32_slice(m, k, &d.p_true),
                FactorMatrix::<f32>::from_f32_slice(n, k, &d.q_true),
            )
        });
        let pop: Vec<f32> = d.train.col_degrees().iter().map(|&c| c as f32).collect();
        model = Some(rec.span("serve.build", |_| {
            ShardedModel::new(p, q, GRID.0, GRID.1, Some(pop))
        }));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let model = model.expect("set-up ran at least once");
    report.factor_bytes = (m as u64 + n as u64) * k as u64 * 4;
    report.notes.push(format!(
        "workload: {m} users x {n} items, k={k}, grid {}x{}, {} requests per call, f32 factors",
        GRID.0, GRID.1, plan.serve.requests
    ));

    // The blocked scan the service uses must equal the naive reference.
    let q = model.q_matrix();
    for u in users(m, plan.serve.zipf_s, CHECKED_USERS, plan.data.seed ^ 0xc4ec) {
        let row = model.user_row(u);
        let blocked = top_n_blocked(row, q, 0..n, plan.serve.top_n, SCAN_BLOCK);
        let naive = top_n_naive(row, q, 0..n, plan.serve.top_n);
        check_answer(&mut report.outcome, u, &blocked, &naive);
    }

    // Timed calls: the same closed-loop run repeated; every repeat must
    // reproduce the first run's digest bit for bit.
    let tracing = rec.enabled();
    let rung: Vec<Vec<f32>> = match tracing {
        false => Vec::new(),
        true => users(m, plan.serve.zipf_s, RUNG_USERS, plan.data.seed ^ 0x70b)
            .into_iter()
            .map(|u| model.user_row(u).to_vec())
            .collect(),
    };
    let mut f32_ns = f64::NAN;
    let (mut plain, mut traced, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let start = Instant::now();
    while plain.len() + traced.len() < 2 || start.elapsed().as_secs_f64() < spec.seconds {
        let on = tracing && traced.len() <= plain.len();
        rec.set_enabled(on);
        let t0 = Instant::now();
        let r = rec.span("serve.run", |_| run_closed_loop(&model, &plan.serve));
        let wall = t0.elapsed().as_secs_f64();
        if on { &mut traced } else { &mut plain }.push(wall);
        rates.push(r.completed as f64 / wall);
        if on {
            f32_ns = scan(&rung, q, plan.serve.top_n, "kernel.f32.topn", rec);
        }
        report
            .outcome
            .ops(r.issued, r.shed + r.deadline_finalized + r.late_success);
        match &first {
            None => first = Some(r),
            Some(f) => report.outcome.check(f.digest() == r.digest(), || {
                format!(
                    "serve digest {:#x} != first run's {:#x}",
                    r.digest(),
                    f.digest()
                )
            }),
        }
    }
    rec.set_enabled(tracing);
    let r = first.expect("at least one timed call");
    let all: Vec<f64> = plain.iter().chain(&traced).copied().collect();
    report.notes.push(format!(
        "serve: {} calls, p50 {:.4} ms, p99 {:.4} ms, {} cache hits of {} completed",
        all.len(),
        r.p(0.50) * 1e3,
        r.p(0.99) * 1e3,
        r.cache_hits,
        r.completed
    ));

    if !tracing {
        report.metric(&END_TO_END, "setup_s", median(&setup));
        report.metric(&END_TO_END, "call_s", median(&all));
        report.metric(&END_TO_END, "ops_per_s", median(&rates));
        report.metric(&END_TO_END, "quality_ratio", r.p(0.99) / r.deadline_s);
        return;
    }

    let wall = median(&traced);
    let rung16: Vec<Vec<F16>> = rung[..rung.len().div_ceil(4)]
        .iter()
        .map(|row| row.iter().map(|&x| F16::from_f32(x)).collect())
        .collect();
    let q16 = convert::<f32, F16>(q);
    let f16_ns = scan(&rung16, &q16, plan.serve.top_n, "kernel.f16.topn", rec);
    let scans = r.completed.saturating_sub(r.cache_hits);
    let serve_self = wall - scans as f64 * n as f64 * f32_ns * 1e-9;
    let bytes = (k as usize * <f32 as Element>::BYTES) as f64;

    report.ledger("serve_wall_s", wall, "s");
    report.ledger("serve_wall_rps", r.completed as f64 / wall, "1/s");
    report.ledger("serve_p50_ms", r.p(0.50) * 1e3, "ms");
    report.ledger("serve_p99_ms", r.p(0.99) * 1e3, "ms");
    report.ledger(
        "degraded_share",
        r.degraded() as f64 / r.issued.max(1) as f64,
        "ratio",
    );
    report.ledger("failed_share", report.outcome.failed_share(), "ratio");
    report.ledger(
        "data.generate_s",
        median(&rec.durations("data.generate")),
        "s",
    );
    report.ledger(
        "feature.init_s",
        median(&rec.durations("feature.init")),
        "s",
    );
    report.ledger("serve.topn_ns_per_item", f32_ns, "ns");
    report.ledger("kernel.f16.ns_per_item", f16_ns, "ns");
    report.ledger("kernel.bytes_per_item", bytes, "B");
    report.ledger("kernel.gbps", bytes / f32_ns, "GB/s");
    report.ledger(
        "serve.cache_hit_ratio",
        r.cache_hits as f64 / r.completed.max(1) as f64,
        "ratio",
    );
    report.ledger("serve.self_s", serve_self, "s");
    report.ledger("serve.hedges", r.hedges as f64, "count");
    report.ledger("serve.retries", r.retries as f64, "count");
    report.ledger("serve.timeouts", r.timeouts as f64, "count");
    report.ledger("serve.shed", r.shed as f64, "count");
    report.ledger(
        "trace.overhead_share",
        (wall - median(&plain)) / median(&plain),
        "ratio",
    );

    for (name, ledger) in [
        ("data.generate_s", "data.generate_s"),
        ("feature.init_s", "feature.init_s"),
        ("kernel.f32.ns_per_op", "serve.topn_ns_per_item"),
        ("kernel.f16.ns_per_op", "kernel.f16.ns_per_item"),
        ("kernel.bytes_per_op", "kernel.bytes_per_item"),
        ("kernel.gbps", "kernel.gbps"),
        ("call.self_s", "serve.self_s"),
        ("trace.overhead_share", "trace.overhead_share"),
    ] {
        let v = report.ledger_value(ledger).expect("ledger entry recorded");
        report.metric(&PER_LAYER, name, v);
    }
    report.metric(&PER_LAYER, "call.self_share", serve_self / wall);
}
