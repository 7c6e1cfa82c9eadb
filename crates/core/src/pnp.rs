//! The user-facing PnP tuner.
//!
//! [`PnPTuner`] packages a trained model together with the search space so a
//! downstream user can ask "which configuration should I run this region
//! with?" without touching the training pipeline. It needs **no executions**
//! of the target region — the prediction comes purely from the code graph.
//! What each [`TuneObjective`] means — its samples, optimizer, class prior
//! and class decoding — is defined once, in [`crate::training`]; the tuner
//! only trains on every region and predicts through it.

use crate::dataset::Dataset;
use crate::training::{
    blend_score, predict_with_prior_batch, train_on_all, TrainSettings, TuneObjective,
};
use pnp_gnn::PnPModel;
use pnp_graph::EncodedGraph;
use pnp_tuners::{ConfigPoint, SearchSpace};

/// A trained, ready-to-query PnP tuner.
pub struct PnPTuner {
    model: PnPModel,
    space: SearchSpace,
    objective: TuneObjective,
    /// The objective's class prior over every training region, blended
    /// with the model's probabilities at prediction time (DESIGN.md §5).
    class_prior: Vec<f64>,
}

impl PnPTuner {
    /// Trains a tuner on *all* regions of a dataset (no held-out fold — this
    /// is the deployment path; the evaluation pipelines in
    /// [`crate::training`] use cross-validation instead).
    pub fn train(
        dataset: &Dataset,
        objective: TuneObjective,
        settings: &TrainSettings,
    ) -> PnPTuner {
        let all_idx: Vec<usize> = (0..dataset.len()).collect();
        PnPTuner {
            model: train_on_all(dataset, settings, objective, 0),
            space: dataset.space.clone(),
            objective,
            class_prior: objective.class_prior(dataset, &all_idx),
        }
    }

    /// The objective the tuner was trained for.
    pub fn mode(&self) -> TuneObjective {
        self.objective
    }

    /// Predicts the best configuration point for an (encoded) region graph —
    /// zero executions needed. A batch of one through the fused predictor
    /// the cross-validation pipelines use.
    pub fn predict(&self, graph: &EncodedGraph) -> ConfigPoint {
        let classes = predict_with_prior_batch(&self.model, &[graph], None, &self.class_prior);
        self.objective.decode(&self.space, classes[0])
    }

    /// The `top_k` most promising configuration points, best first, ranked
    /// by the same prior-blended score [`PnPTuner::predict`] maximizes.
    pub fn predict_ranked(&self, graph: &EncodedGraph, top_k: usize) -> Vec<ConfigPoint> {
        let probs = self.model.predict_proba(graph, None);
        let mut ranked: Vec<(usize, f64)> = probs
            .iter()
            .zip(&self.class_prior)
            .map(|(&p, &q)| blend_score(p, q))
            .enumerate()
            .collect();
        // `total_cmp` keeps the ranking total even if a score degenerates to
        // NaN (e.g. a NaN model probability) — a panic here would take the
        // whole tuner down on one bad prediction.
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked
            .into_iter()
            .take(top_k)
            .map(|(class, _)| self.objective.decode(&self.space, class))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnp_benchmarks::builders::{matmul_kernel, small_boundary_kernel, streaming_kernel};
    use pnp_benchmarks::Application;
    use pnp_graph::Vocabulary;
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
        let tuner = PnPTuner::train(&ds, TuneObjective::Time { power_idx: 0 }, &tiny_settings());
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
        let tuner = PnPTuner::train(&ds, TuneObjective::Edp, &tiny_settings());
        let graph = &ds.regions[1].graph;
        let point = tuner.predict(graph);
        assert!(ds.space.power_levels.contains(&point.power_watts));
        assert_eq!(tuner.mode(), TuneObjective::Edp);
        assert_eq!(tuner.predict_ranked(graph, 1)[0], point);
    }

    #[test]
    fn tuner_memorizes_training_regions_reasonably() {
        // With no held-out fold, the predicted configurations should perform
        // close to the per-region optimum on most training regions (exact
        // class recovery is not required — many configurations tie).
        let ds = tiny_dataset();
        let mut settings = tiny_settings();
        settings.epochs = 40;
        let tuner = PnPTuner::train(&ds, TuneObjective::Time { power_idx: 3 }, &settings);
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
