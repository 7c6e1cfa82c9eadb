//! Evaluation metrics for trained models.

use crate::model::PnPModel;
use crate::train::TrainingSample;

/// Classification accuracy of a model over a sample set.
pub fn accuracy(model: &PnPModel, samples: &[TrainingSample]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct = samples
        .iter()
        .filter(|s| model.predict(&s.graph, s.dynamic.as_deref()) == s.label)
        .count();
    correct as f32 / samples.len() as f32
}

/// Top-k accuracy: the true label appears among the k highest-probability
/// classes. The tuning evaluation cares about *near-optimal* configurations,
/// so top-k is the more meaningful training diagnostic.
pub fn topk_accuracy(model: &PnPModel, samples: &[TrainingSample], k: usize) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let hits = samples
        .iter()
        .filter(|s| {
            model
                .predict_ranked(&s.graph, s.dynamic.as_deref())
                .iter()
                .take(k)
                .any(|&c| c == s.label)
        })
        .count();
    hits as f32 / samples.len() as f32
}

/// Per-class prediction counts `(class, count)` sorted by class id — a quick
/// check that the classifier is not collapsing onto a single output.
pub fn prediction_histogram(model: &PnPModel, samples: &[TrainingSample]) -> Vec<(usize, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for s in samples {
        *counts
            .entry(model.predict(&s.graph, s.dynamic.as_deref()))
            .or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use pnp_graph::{build_region_graph, EncodedGraph, Vocabulary};
    use pnp_ir::dsl::*;
    use pnp_ir::lower_kernel;

    fn sample(label: usize) -> TrainingSample {
        let region = RegionSource {
            name: "r0".into(),
            pragma: OmpPragma::default(),
            arrays: vec![ArrayDecl::d1("A", "N")],
            scalars: vec![],
            size_params: vec!["N".into()],
            helpers: vec![],
            parallel_loop: LoopNest::new(
                "i",
                LoopBound::Param("N".into()),
                vec![Stmt::Assign {
                    target: ArrayRef::d1("A", IndexExpr::var("i")),
                    value: Expr::Const(label as f64),
                }],
            ),
        };
        let m = lower_kernel("app", &[region]);
        let g = build_region_graph(&m, "r0").unwrap();
        TrainingSample {
            graph: EncodedGraph::encode(&g, &Vocabulary::standard()),
            dynamic: None,
            label,
            group: "app".into(),
        }
    }

    #[test]
    fn metrics_are_in_unit_interval_and_monotone() {
        let samples = vec![sample(0), sample(1), sample(2)];
        let model = PnPModel::new(ModelConfig {
            vocab_size: Vocabulary::standard().len(),
            hidden_dim: 8,
            num_rgcn_layers: 1,
            fc_hidden: 8,
            num_classes: 4,
            num_relations: 3,
            num_dynamic_features: 0,
            dropout: 0.0,
            seed: 1,
        });
        let a1 = accuracy(&model, &samples);
        let t1 = topk_accuracy(&model, &samples, 1);
        let t4 = topk_accuracy(&model, &samples, 4);
        assert!((0.0..=1.0).contains(&a1));
        assert!((a1 - t1).abs() < 1e-6);
        assert_eq!(t4, 1.0);
        let hist = prediction_histogram(&model, &samples);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn empty_sample_set_gives_zero() {
        let model = PnPModel::new(ModelConfig {
            vocab_size: 64,
            hidden_dim: 4,
            num_rgcn_layers: 1,
            fc_hidden: 4,
            num_classes: 2,
            num_relations: 3,
            num_dynamic_features: 0,
            dropout: 0.0,
            seed: 1,
        });
        assert_eq!(accuracy(&model, &[]), 0.0);
        assert_eq!(topk_accuracy(&model, &[], 3), 0.0);
    }
}
