//! The offline pipeline every serve run starts with: a fresh store is
//! trained from scratch — per machine, the sweep of the full 30-app suite
//! and the static scenario-1 and scenario-2 LOOCV grids with their
//! predictions — which is the offline user's time to models, and the store
//! the daemon then serves. The predictions give the paper's headline
//! quality numbers, which must repeat exactly from run to run.

use crate::inputs;
use crate::trace::Recorder;
use crate::train_settings;
use pnp_core::training::{
    train_scenario1_models_cached, train_scenario2_model_cached, FoldPlan, TrainSettings,
};
use pnp_core::{geomean, ArtifactStore, Dataset};
use pnp_gnn::{Minibatcher, ModelConfig, PnPModel};
use pnp_graph::Vocabulary;
use pnp_machine::PowerModel;
use pnp_openmp::sim::simulate_region_with_model;
use pnp_tensor::optim::clip_grad_norm;
use pnp_tensor::{cross_entropy, AdamW, Optimizer};
use std::path::Path;
use std::time::{Duration, Instant};

/// What training the store produced.
pub struct Models {
    /// Sweep plus both LOOCV grids with predictions, for both machines.
    pub wall: Duration,
    /// The swept datasets, haswell first.
    pub datasets: Vec<Dataset>,
    /// Geomean over region × power cap of default time over the time of
    /// the predicted configuration, both machines.
    pub geomean_speedup: f64,
    /// Geomean over regions of default-at-TDP EDP over the EDP of the
    /// predicted point, both machines.
    pub geomean_edp_gain: f64,
}

/// The paper's headline numbers from the LOOCV predictions.
fn quality(datasets: &[Dataset], s1: &[Vec<Vec<usize>>], s2: &[Vec<usize>]) -> (f64, f64) {
    let mut speedups = Vec::new();
    let mut edp_gains = Vec::new();
    for ((ds, s1), s2) in datasets.iter().zip(s1).zip(s2) {
        let per = ds.space.configs_per_power();
        let tdp = ds.space.power_levels.len() - 1;
        for (i, sweep) in ds.sweeps.iter().enumerate() {
            for (p, &class) in s1[i].iter().enumerate() {
                speedups.push(sweep.default_samples[p].time_s / sweep.samples[p][class].time_s);
            }
            let (p, c) = (s2[i] / per, s2[i] % per);
            edp_gains.push(sweep.default_samples[tdp].edp() / sweep.samples[p][c].edp());
        }
    }
    (geomean(&speedups), geomean(&edp_gains))
}

/// Trains a fresh store in `dir` (anything there is removed first).
pub fn build_store(dir: &Path, rec: &mut Recorder) -> Result<Models, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let store = ArtifactStore::open(dir);
    let settings = train_settings();
    let apps = pnp_benchmarks::full_suite();
    let vocab = Vocabulary::standard();
    let started = Instant::now();
    let (mut datasets, mut s1, mut s2) = (Vec::new(), Vec::new(), Vec::new());
    for machine in inputs::machines() {
        let ds = rec.span("openmp.sweep", |_| {
            store.load_or_build_dataset(&machine, &apps, &vocab, settings.train_threads)
        });
        let cache = store.for_dataset(&ds);
        s1.push(rec.span("core.train_scenario1", |_| {
            train_scenario1_models_cached(&ds, &settings, false, Some(&cache))
        }));
        s2.push(rec.span("core.train_scenario2", |_| {
            train_scenario2_model_cached(&ds, &settings, false, Some(&cache))
        }));
        datasets.push(ds);
    }
    let wall = started.elapsed();
    let (geomean_speedup, geomean_edp_gain) = quality(&datasets, &s1, &s2);
    Ok(Models {
        wall,
        datasets,
        geomean_speedup,
        geomean_edp_gain,
    })
}

/// Whether the geomeans equal, bit for bit, those the first run in this
/// checkout recorded under `work` (the first run records them).
pub fn matches_reference(work: &Path, models: &Models) -> Result<bool, String> {
    let reference = format!(
        "{:016x} {:016x}\n",
        models.geomean_speedup.to_bits(),
        models.geomean_edp_gain.to_bits()
    );
    let path = work.join("quality.reference");
    match std::fs::read_to_string(&path) {
        Ok(recorded) => Ok(recorded == reference),
        Err(_) => {
            std::fs::write(&path, &reference).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

/// Simulations one sweep of `ds` runs: every region, at every power level,
/// under every OpenMP configuration plus the default one.
pub fn simulations(ds: &Dataset) -> usize {
    ds.len() * ds.space.power_levels.len() * (ds.space.omp_configs().len() + 1)
}

/// Replays the simulator over every region's default configuration, then
/// fold 0 / power level 0 of scenario 1 step by step: the training loop
/// `Trainer::train` runs, with the same model shape, optimizer, clipping and
/// minibatching, each forward, backward and optimizer step in its own span.
/// Returns the optimizer steps taken.
pub fn replay_job(ds: &Dataset, settings: &TrainSettings, rec: &mut Recorder) -> usize {
    let power_model = PowerModel::for_machine(&ds.machine);
    let cap = ds.space.power_levels[0];
    for region in &ds.regions {
        rec.span("openmp.simulate", |_| {
            simulate_region_with_model(
                &ds.machine,
                &power_model,
                &region.profile,
                &ds.space.default_config,
                cap,
            )
        });
    }

    let folds = FoldPlan::new(&ds.applications(), settings.folds);
    let held_out = &folds.held_out[0];
    let samples: Vec<usize> = (0..ds.len())
        .filter(|&i| !held_out.contains(&ds.regions[i].app))
        .collect();
    let mut model = PnPModel::new(ModelConfig {
        vocab_size: Vocabulary::standard().len(),
        hidden_dim: settings.hidden_dim,
        num_rgcn_layers: settings.rgcn_layers,
        fc_hidden: settings.fc_hidden,
        num_classes: ds.space.configs_per_power(),
        num_relations: 3,
        num_dynamic_features: 0,
        dropout: 0.0,
        seed: settings.seed,
    });
    let mut optimizer = AdamW::new(1e-3).amsgrad();
    let mut batcher = Minibatcher::new(samples.len(), settings.batch_size, settings.seed);
    let mut steps = 0;
    for _ in 0..settings.epochs {
        for batch in batcher.epoch_batches() {
            model.zero_grad();
            for &k in &batch {
                let i = samples[k];
                let logits = rec.span("gnn.forward", |_| {
                    model.forward(&ds.regions[i].graph, None, true)
                });
                let label = ds.sweeps[i].best_time_config(0);
                let (_, mut dlogits) = cross_entropy(&logits, &[label]);
                dlogits.scale_inplace(1.0 / batch.len() as f32);
                rec.span("gnn.backward", |_| model.backward(&dlogits));
            }
            let mut params = model.parameters();
            clip_grad_norm(&mut params, 5.0);
            rec.span("tensor.optim_step", |_| optimizer.step(&mut params));
            steps += 1;
        }
    }
    steps
}
