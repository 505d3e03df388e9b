//! Incremental training (§9: SGD "converges faster and is easy to do
//! incremental update" — one of the paper's reasons to maintain cuMF_SGD
//! alongside cuMF_ALS): train a model, persist it, then fold in a batch of
//! newly-arrived ratings *without* retraining from scratch.
//!
//! ```sh
//! cargo run --release --example incremental_training
//! ```

use cumf_rng::ChaCha8Rng;
use cumf_rng::SeedableRng;
use cumf_sgd::core::engine::load_checkpoint;
use cumf_sgd::core::solver::{train_resumable, CheckpointSpec, Scheme, SolverConfig};
use cumf_sgd::core::{EngineModel, Schedule};
use cumf_sgd::data::synth::{generate, SynthConfig};
use cumf_sgd::data::{holdout_split, CooMatrix};

fn main() {
    // The full data set; we pretend 20% of it arrives later.
    let data = generate(&SynthConfig {
        m: 1_500,
        n: 1_000,
        k_true: 8,
        train_samples: 160_000,
        test_samples: 16_000,
        noise_std: 0.1,
        row_skew: 0.6,
        col_skew: 0.6,
        rating_offset: 3.0,
        seed: 13,
    });
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (day_one, day_two) = holdout_split(&data.train, 0.2, &mut rng);
    println!(
        "day 1: {} ratings; day 2 arrivals: {} ratings",
        day_one.nnz(),
        day_two.nnz()
    );

    let base_config = SolverConfig {
        k: 10,
        lambda: 0.02,
        schedule: Schedule::NomadDecay {
            alpha: 0.1,
            beta: 0.1,
        },
        epochs: 20,
        scheme: Scheme::BatchHogwild {
            workers: 16,
            batch: 256,
        },
        seed: 42,
        mode: None,
        divergence_ceiling: 1e3,
    };

    // --- Day 1: train on the initial data; the model file is written
    // after the last epoch, exactly as `cumf train --save` does.
    let path = std::env::temp_dir().join("cumf_incremental_day1.cmfk");
    let save = CheckpointSpec {
        path: path.clone(),
        every: base_config.epochs,
        resume: false,
    };
    let day1 = train_resumable::<f32>(&day_one, &data.test, &base_config, None, Some(&save))
        .expect("model file is writable");
    let day1_rmse = day1.trace.final_rmse().unwrap();
    println!(
        "day 1 model: test RMSE {day1_rmse:.4}, {} bytes persisted",
        std::fs::metadata(&path).unwrap().len()
    );

    // --- Day 2: load the model and continue with a few cheap epochs over
    // the *new* ratings only, at a reduced learning rate.
    let (model, _) = load_checkpoint::<f32>(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!((&model.p, &model.q), (&day1.p, &day1.q), "lossless reload");
    let incremental = continue_training(&model, &day_two, 5, 0.03, 0.02);
    let inc_rmse = incremental.rmse(&data.test);

    // --- The expensive alternative: full retraining on everything.
    let full = cumf_sgd::core::train::<f32>(&data.train, &data.test, &base_config, None);
    let full_rmse = full.trace.final_rmse().unwrap();

    println!("day 2 incremental (5 epochs over 20% of the data): RMSE {inc_rmse:.4}");
    println!("day 2 full retrain (20 epochs over all data):      RMSE {full_rmse:.4}");
    let updates_inc = 5 * day_two.nnz();
    let updates_full = 20 * data.train.nnz();
    println!(
        "incremental cost: {updates_inc} updates vs {updates_full} ({}x cheaper)",
        updates_full / updates_inc.max(1)
    );

    assert!(
        inc_rmse < day1_rmse + 0.01,
        "incremental update must not regress the day-1 model"
    );
    assert!(
        inc_rmse < full_rmse + 0.05,
        "incremental should stay close to a full retrain"
    );
}

/// Continues SGD from an existing model over newly-arrived samples: plain
/// serial sweeps with a fixed small learning rate (the production pattern
/// for streaming recommenders).
fn continue_training(
    model: &EngineModel<f32>,
    new_data: &CooMatrix,
    epochs: u32,
    gamma: f32,
    lambda: f32,
) -> EngineModel<f32> {
    use cumf_sgd::core::kernel::sgd_update;
    let mut p = model.p.clone();
    let mut q = model.q.clone();
    for _ in 0..epochs {
        for e in new_data.iter() {
            sgd_update(p.row_mut(e.u), q.row_mut(e.v), e.r, gamma, lambda);
        }
    }
    EngineModel::unbiased(p, q)
}
