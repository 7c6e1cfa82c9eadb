//! Determinism suite for the parallel LOOCV training fan-out.
//!
//! `train_scenario1_models_cached` / `train_scenario2_model_cached` fan independent
//! `(fold, power)` training jobs out across worker threads (DESIGN.md §10);
//! these tests pin down the property that makes that safe to rely on: the
//! trained models' predictions are **bit-identical for every worker count**.
//! Every headline number of the paper is derived from LOOCV predictions, so
//! a training fan-out that let the worker count leak into seeds, sample
//! order, or float accumulation would make the figures irreproducible across
//! machines with different core counts. The twin suite for the dataset sweep
//! is `tests/dataset_determinism.rs`.

use pnp::benchmarks::full_suite;
use pnp::core::dataset::Dataset;
use pnp::core::training::{
    train_scenario1_models_cached, train_scenario2_model_cached, train_unseen_power_cached,
    TrainSettings,
};
use pnp::graph::Vocabulary;
use pnp::machine::haswell;
use pnp::openmp::Threads;
use pnp::tensor::set_matmul_threads;

/// A few applications keep each training pass cheap while still giving every
/// fold several regions to train on and validate against.
fn small_dataset() -> Dataset {
    let apps: Vec<_> = full_suite().into_iter().take(4).collect();
    Dataset::build_with_threads(&haswell(), &apps, &Vocabulary::standard(), Threads::Auto)
}

/// Small-but-real settings: multiple folds, every power level, a model deep
/// enough to exercise the full forward/backward stack.
fn settings_with_workers(workers: usize) -> TrainSettings {
    TrainSettings {
        hidden_dim: 8,
        rgcn_layers: 1,
        fc_hidden: 16,
        epochs: 4,
        batch_size: 16,
        folds: 3,
        seed: 0xD15E,
        train_threads: Threads::Fixed(workers),
    }
}

/// Scenario-1 (one model per fold × power) and scenario-2 (one model per
/// fold) predictions must be identical at 1, 2, and 8 training workers.
#[test]
fn training_is_bit_identical_across_worker_counts() {
    let ds = small_dataset();
    let s1_baseline = train_scenario1_models_cached(&ds, &settings_with_workers(1), false, None);
    let s2_baseline = train_scenario2_model_cached(&ds, &settings_with_workers(1), false, None);
    for workers in [2usize, 8] {
        let settings = settings_with_workers(workers);
        assert_eq!(
            train_scenario1_models_cached(&ds, &settings, false, None),
            s1_baseline,
            "scenario-1 predictions differ between 1 and {workers} training workers"
        );
        assert_eq!(
            train_scenario2_model_cached(&ds, &settings, false, None),
            s2_baseline,
            "scenario-2 predictions differ between 1 and {workers} training workers"
        );
    }
}

/// The dynamic-feature variant threads counters through the same fan-out and
/// must hold the same guarantee (its samples depend on the power level, so a
/// job-indexing bug would corrupt it first).
#[test]
fn dynamic_variant_is_bit_identical_across_worker_counts() {
    let ds = small_dataset();
    let baseline = train_scenario1_models_cached(&ds, &settings_with_workers(1), true, None);
    assert_eq!(
        train_scenario1_models_cached(&ds, &settings_with_workers(4), true, None),
        baseline,
        "dynamic scenario-1 predictions differ between 1 and 4 training workers"
    );
}

/// The unseen-power pipeline fans folds out with compound seeds
/// (`0x4000 + fold * 8 + held_out_power`); both held-out caps must reproduce
/// the serial result.
#[test]
fn unseen_power_training_is_bit_identical_across_worker_counts() {
    let ds = small_dataset();
    for held_out in [0usize, ds.space.power_levels.len() - 1] {
        let baseline = train_unseen_power_cached(&ds, &settings_with_workers(1), held_out, None);
        assert_eq!(
            train_unseen_power_cached(&ds, &settings_with_workers(8), held_out, None),
            baseline,
            "unseen-power predictions differ between 1 and 8 workers (cap {held_out})"
        );
    }
}

/// Enabling the opt-in intra-op matmul parallelism must not change trained
/// models either: the benchmark code graphs are hundreds of nodes tall, so
/// the row-parallel kernel genuinely engages here (unlike the unit-scale
/// graphs in `pnp-gnn`'s own tests). Safe to flip the global knob even with
/// concurrent tests in this binary — the kernel is bit-identical, so other
/// tests can only observe a wall-clock difference.
#[test]
fn parallel_matmul_does_not_change_trained_models() {
    let ds = small_dataset();
    let settings = settings_with_workers(2);
    set_matmul_threads(1);
    let serial = train_scenario1_models_cached(&ds, &settings, false, None);
    set_matmul_threads(4);
    let parallel = train_scenario1_models_cached(&ds, &settings, false, None);
    set_matmul_threads(1);
    assert_eq!(
        parallel, serial,
        "scenario-1 predictions differ between serial and 4-worker matmul"
    );
}
