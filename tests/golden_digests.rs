//! Golden digests of trained factors. Two epochs on each engine path, in
//! both precisions, must reproduce the recorded `FactorMatrix::digest()`
//! of P and Q. Any change to a training bit (a reordered sum, a fused
//! multiply-add, a different commit order or round grouping) fails here,
//! even when the model's quality holds.

use cumf_sgd::core::multi_gpu::{train_partitioned, MultiGpuConfig};
use cumf_sgd::core::solver::{train, Scheme, SolverConfig};
use cumf_sgd::core::{Element, ExecMode, FactorMatrix, F16};
use cumf_sgd::data::synth::{generate, SynthConfig, SynthDataset};
use cumf_sgd::gpu_sim::{PCIE3_X16, TITAN_X_MAXWELL};

fn dataset() -> SynthDataset {
    generate(&SynthConfig {
        m: 240,
        n: 160,
        k_true: 4,
        train_samples: 12_000,
        test_samples: 600,
        noise_std: 0.1,
        row_skew: 0.4,
        col_skew: 0.4,
        rating_offset: 1.0,
        seed: 2017,
    })
}

fn digests<E: Element>(p: &FactorMatrix<E>, q: &FactorMatrix<E>) -> [u64; 2] {
    [p.digest(), q.digest()]
}

/// Two epochs of the single-GPU solver, which must resolve to `mode`.
fn solver<E: Element>(d: &SynthDataset, scheme: Scheme, mode: ExecMode) -> [u64; 2] {
    let mut cfg = SolverConfig::new(16, scheme);
    cfg.epochs = 2;
    cfg.lambda = 0.02;
    cfg.seed = 5;
    let r = train::<E>(&d.train, &d.test, &cfg, None);
    assert_eq!(r.exec_mode, mode, "{} {scheme:?}", E::NAME);
    assert!(!r.diverged);
    digests(&r.p, &r.q)
}

/// Two epochs of a biased 2×2 grid on two simulated GPUs.
fn partitioned<E: Element>(d: &SynthDataset) -> [u64; 2] {
    let mut cfg = MultiGpuConfig::new(16, 2, 2, 2);
    cfg.epochs = 2;
    cfg.lambda = 0.02;
    cfg.workers_per_gpu = 8;
    cfg.batch = 32;
    cfg.seed = 5;
    cfg.bias = true;
    let r = train_partitioned::<E>(&d.train, &d.test, &cfg, &TITAN_X_MAXWELL, &PCIE3_X16);
    assert!(!r.diverged && r.bias.is_some());
    digests(&r.p, &r.q)
}

#[test]
fn trained_factor_digests_match_recorded_bits() {
    let d = dataset();
    let wavefront = Scheme::Wavefront {
        workers: 8,
        cols: 16,
    };
    let batch_hogwild = Scheme::BatchHogwild {
        workers: 8,
        batch: 32,
    };
    let got = [
        (
            "wavefront/sequential f32",
            solver::<f32>(&d, wavefront, ExecMode::Sequential),
        ),
        (
            "wavefront/sequential f16",
            solver::<F16>(&d, wavefront, ExecMode::Sequential),
        ),
        (
            "batch-hogwild/stale-additive f32",
            solver::<f32>(&d, batch_hogwild, ExecMode::StaleAdditive),
        ),
        (
            "batch-hogwild/stale-additive f16",
            solver::<F16>(&d, batch_hogwild, ExecMode::StaleAdditive),
        ),
        ("partitioned 2x2 biased f32", partitioned::<f32>(&d)),
        ("partitioned 2x2 biased f16", partitioned::<F16>(&d)),
    ];
    // Change these only with a deliberate change to the training arithmetic.
    let want: [(&str, [u64; 2]); 6] = [
        (
            "wavefront/sequential f32",
            [0xdcb436c1cc702d8e, 0x265712af2146f3e2],
        ),
        (
            "wavefront/sequential f16",
            [0xa916f774cb6422f2, 0xfd040992b45adbfc],
        ),
        (
            "batch-hogwild/stale-additive f32",
            [0x4b094cb6bf75025e, 0x4f12745bac4bd75e],
        ),
        (
            "batch-hogwild/stale-additive f16",
            [0x68bab82b378d1e30, 0xe507cbec53debff6],
        ),
        (
            "partitioned 2x2 biased f32",
            [0x60f8b8987ea1f159, 0x893af2e626332325],
        ),
        (
            "partitioned 2x2 biased f16",
            [0xf3e67a319bc408ab, 0x0e896269934e5550],
        ),
    ];
    assert_eq!(got, want);
}
