//! Cross-crate model integration: training the GNN on real benchmark graphs
//! with real labels, LOOCV hygiene, and the PnP tuner's end-to-end value.

use pnp_benchmarks::full_suite;
use pnp_core::dataset::Dataset;
use pnp_core::pnp::{PnPTuner, TunerMode};
use pnp_core::training::{train_scenario1_models_cached, FoldPlan, TrainSettings};
use pnp_graph::Vocabulary;
use pnp_machine::haswell;

fn small_dataset() -> Dataset {
    // First 8 applications keep the training fast while still spanning
    // several behaviour classes (proxy apps + stencils).
    let apps: Vec<_> = full_suite().into_iter().take(8).collect();
    Dataset::build(&haswell(), &apps, &Vocabulary::standard())
}

fn fast_settings() -> TrainSettings {
    TrainSettings {
        hidden_dim: 12,
        rgcn_layers: 2,
        fc_hidden: 24,
        epochs: 8,
        batch_size: 16,
        folds: 3,
        seed: 0xFEED,
        train_threads: pnp::openmp::Threads::Fixed(2),
    }
}

#[test]
fn loocv_predictions_are_valid_classes_and_add_value() {
    let ds = small_dataset();
    let settings = fast_settings();
    let preds = train_scenario1_models_cached(&ds, &settings, false, None);
    assert_eq!(preds.len(), ds.len());

    let mut pnp_speedups = Vec::new();
    let mut oracle_speedups = Vec::new();
    for (i, sweep) in ds.sweeps.iter().enumerate() {
        for (p, &class) in preds[i].iter().enumerate() {
            assert!(class < ds.space.configs_per_power());
            let default_t = sweep.default_samples[p].time_s;
            pnp_speedups.push(default_t / sweep.samples[p][class].time_s);
            oracle_speedups.push(default_t / sweep.best_time(p));
        }
    }
    let geo_pnp = pnp_core::eval::geomean(&pnp_speedups);
    let geo_oracle = pnp_core::eval::geomean(&oracle_speedups);
    // Even with tiny training budgets the predictions must not be worse than
    // ~25% below the default on geometric mean, and the oracle bounds them.
    assert!(
        geo_pnp > 0.75,
        "geometric-mean speedup collapsed: {geo_pnp}"
    );
    assert!(geo_oracle >= geo_pnp * 0.999);
}

#[test]
fn fold_plan_never_leaks_validation_apps_into_training() {
    let ds = small_dataset();
    let apps = ds.applications();
    let plan = FoldPlan::new(&apps, 3);
    let all_held: Vec<String> = plan.held_out.iter().flatten().cloned().collect();
    // Every app is held out exactly once across folds.
    for app in &apps {
        assert_eq!(all_held.iter().filter(|a| *a == app).count(), 1);
    }
}

#[test]
fn deployed_pnp_tuner_beats_the_default_on_training_regions() {
    let ds = small_dataset();
    let mut settings = fast_settings();
    settings.epochs = 20;
    let tuner = PnPTuner::train(&ds, TunerMode::PowerConstrained { power_idx: 0 }, &settings);

    let mut tuned_better_or_equal = 0usize;
    for i in 0..ds.len() {
        let point = tuner.predict(&ds.regions[i].graph);
        let class = ds.space.omp_index(&point.omp).expect("prediction in space");
        let tuned_t = ds.sweeps[i].samples[0][class].time_s;
        let default_t = ds.sweeps[i].default_samples[0].time_s;
        if tuned_t <= default_t * 1.02 {
            tuned_better_or_equal += 1;
        }
    }
    assert!(
        tuned_better_or_equal * 10 >= ds.len() * 7,
        "tuned configurations should match or beat the default on most training regions ({tuned_better_or_equal}/{})",
        ds.len()
    );
}

#[test]
fn edp_mode_predictions_reduce_edp_relative_to_default_at_tdp() {
    let ds = small_dataset();
    let mut settings = fast_settings();
    settings.epochs = 20;
    let tuner = PnPTuner::train(&ds, TunerMode::Edp, &settings);
    let tdp_idx = ds.space.power_levels.len() - 1;

    let mut improvements = Vec::new();
    for i in 0..ds.len() {
        let point = tuner.predict(&ds.regions[i].graph);
        let power_idx = ds
            .space
            .power_levels
            .iter()
            .position(|&p| p == point.power_watts)
            .unwrap();
        let class = ds.space.omp_index(&point.omp).unwrap();
        let tuned = ds.sweeps[i].samples[power_idx][class];
        let baseline = ds.sweeps[i].default_samples[tdp_idx];
        improvements.push(baseline.edp() / tuned.edp());
    }
    let geo = pnp_core::eval::geomean(&improvements);
    assert!(
        geo > 1.0,
        "geometric-mean EDP improvement should exceed 1.0, got {geo}"
    );
}
