//! The repository benchmark for the cuMF_SGD reproduction.
//!
//! Three workloads drive the library crates through their public entry
//! points (see `README.md` in this directory for why each was chosen):
//!
//! * `netflix-target` — `train::<f32>` to a target RMSE with factors in
//!   cache (compute- and engine-bound);
//! * `yahoo-dram-f16` — `train::<F16>` at Yahoo!Music's full dimensions,
//!   factors several times the last-level cache (bandwidth-bound);
//! * `serve-zipf` — closed-loop top-N serving (read-only scans).
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! spans around each call into a layer and reports the per-layer ledger.

pub mod host;
pub mod report;
pub mod serve;
pub mod trace;
pub mod train;

use cumf_core::{Element, FactorMatrix, F16};

use report::{Report, END_TO_END, PER_LAYER};
use trace::Recorder;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// f32 training to a target RMSE, factors in cache.
    NetflixTarget,
    /// f16 training over factors larger than the last-level cache.
    YahooDramF16,
    /// Closed-loop Zipf top-N serving.
    ServeZipf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::NetflixTarget,
        Workload::YahooDramF16,
        Workload::ServeZipf,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetflixTarget => "netflix-target",
            Workload::YahooDramF16 => "yahoo-dram-f16",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: `Full` is the benchmark; `Tiny` is the same code path on
/// inputs small enough for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed calls repeat for (at least one call runs, two
    /// when traced or serving).
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// A copy of `m` in storage precision `T`, row by row (no full-size
/// temporary).
pub fn convert<S: Element, T: Element>(m: &FactorMatrix<S>) -> FactorMatrix<T> {
    let mut out = FactorMatrix::<T>::zeros(m.rows(), m.k());
    let mut row = vec![0.0f32; m.k() as usize];
    for r in 0..m.rows() {
        m.load_row(r, &mut row);
        out.store_row(r, &row);
    }
    out
}

/// Runs one workload and returns its report and the recorded spans.
pub fn run(spec: &Spec) -> (Report, Recorder) {
    let host = host::Host::probe();
    let mut rec = Recorder::new(spec.trace);
    let mut report = Report::default();
    match spec.workload {
        Workload::NetflixTarget => {
            let plan = train::netflix_plan(spec.seed, spec.size);
            train::run::<f32>(&plan, spec, &mut rec, &mut report);
        }
        Workload::YahooDramF16 => {
            let plan = train::yahoo_plan(spec.seed, spec.size);
            train::run::<F16>(&plan, spec, &mut rec, &mut report);
        }
        Workload::ServeZipf => {
            let plan = serve::serve_plan(spec.seed, spec.size);
            serve::run(&plan, spec, &mut rec, &mut report);
        }
    }

    report.notes.push(format!(
        "factor_bytes={} ({:.3} x llc_bytes={})",
        report.factor_bytes,
        report.factor_bytes as f64 / host.llc_bytes.max(1) as f64,
        host.llc_bytes
    ));

    // Peak memory is read before the copy-bandwidth buffers exist.
    let peak = host::peak_rss_mb();
    let copy_bytes = match spec.size {
        Size::Full => host::copy_bytes(host.llc_bytes),
        Size::Tiny => 8 << 20,
    };
    let copy = host::copy_gbps(copy_bytes);
    report.notes.insert(0, host.label(copy));
    report
        .notes
        .push(format!("copy arrays: 2 x {copy_bytes} B"));
    if spec.trace {
        let gbps = report.ledger_value("kernel.gbps").expect("kernel rung ran");
        let factor_bytes = report.factor_bytes as f64;
        report.ledger("feature.factor_bytes", factor_bytes, "B");
        report.metric(&PER_LAYER, "feature.factor_bytes", factor_bytes);
        report.ledger("host.copy_gbps", copy, "GB/s");
        report.ledger("host.llc_bytes", host.llc_bytes as f64, "B");
        report.ledger("kernel.bw_fraction", gbps / copy, "ratio");
        report.metric(&PER_LAYER, "kernel.bw_fraction", gbps / copy);
        report.metric(&PER_LAYER, "host.copy_gbps", copy);
        report.metric(&PER_LAYER, "host.llc_bytes", host.llc_bytes as f64);
    } else {
        report.metric(&END_TO_END, "peak_rss_mb", peak);
    }
    (report, rec)
}

/// The metrics a run's result line must carry.
pub fn declared(trace: bool) -> &'static [report::Declared] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
