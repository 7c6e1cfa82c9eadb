//! The user-facing PnP tuner.
//!
//! [`PnPTuner`] packages a trained model together with the search space so a
//! downstream user can ask "which configuration should I run this region
//! with?" without touching the training pipeline. It needs **no executions**
//! of the target region — the prediction comes purely from the code graph
//! (and, in dynamic mode, one profiling run's counters).

use crate::dataset::Dataset;
use crate::training::TrainSettings;
use pnp_gnn::train::OptimizerKind;
use pnp_gnn::{ModelConfig, PnPModel, TrainConfig, Trainer, TrainingSample};
use pnp_graph::{EncodedGraph, Vocabulary};
use pnp_tuners::ConfigPoint;

/// What the tuner optimizes for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TunerMode {
    /// Best execution time at the given power-level index of the machine's
    /// search space (scenario 1).
    PowerConstrained {
        /// Index into `SearchSpace::power_levels`.
        power_idx: usize,
    },
    /// Best energy-delay product over the joint power × configuration space
    /// (scenario 2).
    Edp,
}

/// A trained, ready-to-query PnP tuner.
pub struct PnPTuner {
    model: PnPModel,
    dataset_space: pnp_tuners::SearchSpace,
    mode: TunerMode,
    /// Per-class prior quality computed from the training sweeps (see
    /// `training::class_prior_scenario1`); blended with the model's
    /// probabilities at prediction time.
    class_prior: Vec<f64>,
}

impl PnPTuner {
    /// Trains a tuner on *all* regions of a dataset (no held-out fold — this
    /// is the deployment path; the evaluation pipelines in
    /// [`crate::training`] use cross-validation instead).
    pub fn train(dataset: &Dataset, mode: TunerMode, settings: &TrainSettings) -> PnPTuner {
        let (num_classes, samples): (usize, Vec<TrainingSample>) = match mode {
            TunerMode::PowerConstrained { power_idx } => (
                dataset.space.configs_per_power(),
                (0..dataset.len())
                    .map(|i| TrainingSample {
                        graph: dataset.regions[i].graph.clone(),
                        dynamic: None,
                        label: dataset.sweeps[i].best_time_config(power_idx),
                        group: dataset.regions[i].app.clone(),
                    })
                    .collect(),
            ),
            TunerMode::Edp => (
                dataset.space.num_tuned_points(),
                (0..dataset.len())
                    .map(|i| {
                        let (p, c) = dataset.sweeps[i].best_edp_point();
                        TrainingSample {
                            graph: dataset.regions[i].graph.clone(),
                            dynamic: None,
                            label: dataset.space.joint_index(p, c),
                            group: dataset.regions[i].app.clone(),
                        }
                    })
                    .collect(),
            ),
        };
        let mut model = PnPModel::new(ModelConfig {
            vocab_size: Vocabulary::standard().len(),
            hidden_dim: settings.hidden_dim,
            num_rgcn_layers: settings.rgcn_layers,
            fc_hidden: settings.fc_hidden,
            num_classes,
            num_relations: 3,
            num_dynamic_features: 0,
            dropout: 0.0,
            seed: settings.seed,
        });
        let trainer = Trainer::new(TrainConfig {
            epochs: settings.epochs,
            learning_rate: 1e-3,
            batch_size: settings.batch_size,
            optimizer: match mode {
                TunerMode::PowerConstrained { .. } => OptimizerKind::AdamWAmsgrad,
                TunerMode::Edp => OptimizerKind::Adam,
            },
            grad_clip: 5.0,
            freeze_gnn: false,
            seed: settings.seed,
        });
        trainer.train(&mut model, &samples);
        let all_idx: Vec<usize> = (0..dataset.len()).collect();
        let class_prior = match mode {
            TunerMode::PowerConstrained { power_idx } => {
                crate::training::class_prior_scenario1(dataset, power_idx, &all_idx)
            }
            TunerMode::Edp => crate::training::class_prior_scenario2(dataset, &all_idx),
        };
        PnPTuner {
            model,
            dataset_space: dataset.space.clone(),
            mode,
            class_prior,
        }
    }

    /// The tuner's mode.
    pub fn mode(&self) -> TunerMode {
        self.mode
    }

    /// Predicts the best configuration point for an (encoded) region graph —
    /// zero executions needed.
    pub fn predict(&self, graph: &EncodedGraph) -> ConfigPoint {
        let class =
            crate::training::predict_with_prior(&self.model, graph, None, &self.class_prior);
        match self.mode {
            TunerMode::PowerConstrained { power_idx } => ConfigPoint {
                power_watts: self.dataset_space.power_levels[power_idx],
                omp: self.dataset_space.omp_configs()[class],
            },
            TunerMode::Edp => self.dataset_space.decode_joint(class),
        }
    }

    /// The full ranking of configuration points, most promising first
    /// (prior-blended, like [`PnPTuner::predict`]).
    pub fn predict_ranked(&self, graph: &EncodedGraph, top_k: usize) -> Vec<ConfigPoint> {
        let probs = self.model.predict_proba(graph, None);
        let mut classes: Vec<usize> = (0..probs.len()).collect();
        // `total_cmp` keeps the ranking total even if a score degenerates to
        // NaN (e.g. a NaN model probability) — a panic here would take the
        // whole tuner down on one bad prediction.
        classes.sort_by(|&a, &b| {
            let score =
                |c: usize| (probs[c].max(1e-9) as f64).ln() + self.class_prior[c].max(1e-9).ln();
            score(b).total_cmp(&score(a))
        });
        classes
            .into_iter()
            .take(top_k)
            .map(|class| match self.mode {
                TunerMode::PowerConstrained { power_idx } => ConfigPoint {
                    power_watts: self.dataset_space.power_levels[power_idx],
                    omp: self.dataset_space.omp_configs()[class],
                },
                TunerMode::Edp => self.dataset_space.decode_joint(class),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnp_benchmarks::builders::{matmul_kernel, small_boundary_kernel, streaming_kernel};
    use pnp_benchmarks::Application;
    use pnp_machine::haswell;

    fn tiny_dataset() -> Dataset {
        let apps = vec![
            Application::new("a1", vec![matmul_kernel("a1_r0", 150, 150, 150)]),
            Application::new("a2", vec![streaming_kernel("a2_r0", 100_000, 2, 1.0)]),
            Application::new("a3", vec![small_boundary_kernel("a3_r0", 800, 2)]),
        ];
        Dataset::build(&haswell(), &apps, &Vocabulary::standard())
    }

    fn tiny_settings() -> TrainSettings {
        TrainSettings {
            epochs: 6,
            hidden_dim: 8,
            rgcn_layers: 1,
            fc_hidden: 16,
            ..TrainSettings::quick()
        }
    }

    #[test]
    fn trained_tuner_predicts_valid_points() {
        let ds = tiny_dataset();
        let tuner = PnPTuner::train(
            &ds,
            TunerMode::PowerConstrained { power_idx: 0 },
            &tiny_settings(),
        );
        let point = tuner.predict(&ds.regions[0].graph);
        assert_eq!(point.power_watts, ds.space.power_levels[0]);
        assert!(ds.space.omp_index(&point.omp).is_some());
        let ranked = tuner.predict_ranked(&ds.regions[0].graph, 5);
        assert_eq!(ranked.len(), 5);
        assert_eq!(ranked[0].omp, point.omp);
    }

    #[test]
    fn edp_mode_predicts_a_power_level_too() {
        let ds = tiny_dataset();
        let tuner = PnPTuner::train(&ds, TunerMode::Edp, &tiny_settings());
        let point = tuner.predict(&ds.regions[1].graph);
        assert!(ds.space.power_levels.contains(&point.power_watts));
        assert_eq!(tuner.mode(), TunerMode::Edp);
    }

    #[test]
    fn tuner_memorizes_training_regions_reasonably() {
        // With no held-out fold, the predicted configurations should perform
        // close to the per-region optimum on most training regions (exact
        // class recovery is not required — many configurations tie).
        let ds = tiny_dataset();
        let mut settings = tiny_settings();
        settings.epochs = 40;
        let tuner = PnPTuner::train(&ds, TunerMode::PowerConstrained { power_idx: 3 }, &settings);
        let mut near_optimal = 0;
        for i in 0..ds.len() {
            let predicted = tuner.predict(&ds.regions[i].graph);
            let class = ds.space.omp_index(&predicted.omp).expect("in space");
            let predicted_t = ds.sweeps[i].samples[3][class].time_s;
            let best_t = ds.sweeps[i].best_time(3);
            if predicted_t <= best_t * 3.0 {
                near_optimal += 1;
            }
        }
        assert!(
            near_optimal >= 1,
            "only {near_optimal}/3 training regions predicted near-optimally"
        );
    }
}
