//! Training loop: minibatch gradient accumulation, optimizer selection,
//! optional GNN freezing (transfer learning), and simple reporting.

use crate::batch::Minibatcher;
use crate::model::PnPModel;
use pnp_graph::EncodedGraph;
use pnp_tensor::optim::clip_grad_norm;
use pnp_tensor::{cross_entropy, Adam, AdamW, Optimizer, Parameter};

/// One labelled training example: a code graph, optional dynamic features
/// (hardware counters / normalized power cap) and the index of the best
/// configuration found by the exhaustive sweep.
#[derive(Clone, Debug)]
pub struct TrainingSample {
    /// The encoded code graph (static features).
    pub graph: EncodedGraph,
    /// Dynamic features, if the model uses them.
    pub dynamic: Option<Vec<f32>>,
    /// Target class (best configuration index).
    pub label: usize,
    /// Grouping key for leave-one-out cross-validation — the application the
    /// region belongs to.
    pub group: String,
}

/// Which optimizer to use (Table II lists AdamW+amsgrad for the
/// power-constrained experiments and Adam for the EDP experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Adam.
    Adam,
    /// AdamW with the AMSGrad variant enabled.
    AdamWAmsgrad,
}

/// Training hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Learning rate (paper: 1e-3).
    pub learning_rate: f32,
    /// Gradient-accumulation batch size (paper: 16).
    pub batch_size: usize,
    /// Optimizer selection.
    pub optimizer: OptimizerKind,
    /// Gradient-norm clip (0 disables clipping).
    pub grad_clip: f32,
    /// When true, only the dense classifier is updated — the transfer-
    /// learning mode of Section IV-B.
    pub freeze_gnn: bool,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            learning_rate: 1e-3,
            batch_size: 16,
            optimizer: OptimizerKind::AdamWAmsgrad,
            grad_clip: 5.0,
            freeze_gnn: false,
            seed: 0xBEEF,
        }
    }
}

/// Summary of one training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean cross-entropy loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the training set after the final epoch.
    pub final_train_accuracy: f32,
    /// Number of optimizer steps taken.
    pub steps: usize,
    /// Number of parameters updated per step (differs when the GNN is frozen).
    pub trainable_parameters: usize,
}

impl TrainReport {
    /// True when the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

/// Trains [`PnPModel`]s.
pub struct Trainer {
    /// Training hyperparameters.
    pub config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    fn make_optimizer(&self) -> Box<dyn Optimizer> {
        match self.config.optimizer {
            OptimizerKind::Adam => Box::new(Adam::new(self.config.learning_rate)),
            OptimizerKind::AdamWAmsgrad => {
                Box::new(AdamW::new(self.config.learning_rate).amsgrad())
            }
        }
    }

    /// Trains `model` on `samples` and returns a report.
    ///
    /// With `freeze_gnn` set, the (constant) pooled GNN representation of
    /// every sample is computed **once** up front and all epochs train only
    /// the dense head on the cached features — the graph layers run once per
    /// sample instead of once per sample per epoch. This is what makes the
    /// transfer-learning path genuinely ~4× cheaper (§IV-B) while still
    /// giving the head the full epoch budget.
    pub fn train(&self, model: &mut PnPModel, samples: &[TrainingSample]) -> TrainReport {
        assert!(!samples.is_empty(), "cannot train on an empty sample set");
        let mut optimizer = self.make_optimizer();
        let mut batcher = Minibatcher::new(samples.len(), self.config.batch_size, self.config.seed);
        let freeze = self.config.freeze_gnn;
        let mut report = TrainReport::default();

        // Frozen-GNN fast path: cache each sample's pooled graph features.
        let pooled: Vec<pnp_tensor::Tensor> = if freeze {
            samples
                .iter()
                .map(|s| model.pooled_features(&s.graph))
                .collect()
        } else {
            Vec::new()
        };

        for _epoch in 0..self.config.epochs {
            let mut epoch_loss = 0.0f32;
            let mut batches_done = 0usize;
            for batch in batcher.epoch_batches() {
                model.zero_grad();
                let mut batch_loss = 0.0f32;
                for &idx in &batch {
                    let s = &samples[idx];
                    let logits = if freeze {
                        model.head_forward(&pooled[idx], s.dynamic.as_deref())
                    } else {
                        model.forward(&s.graph, s.dynamic.as_deref(), true)
                    };
                    let (loss, mut dlogits) = cross_entropy(&logits, &[s.label]);
                    // Average the gradient over the batch.
                    dlogits.scale_inplace(1.0 / batch.len() as f32);
                    if freeze {
                        model.head_backward(&dlogits);
                    } else {
                        model.backward(&dlogits);
                    }
                    batch_loss += loss;
                }
                batch_loss /= batch.len() as f32;

                let mut params = model.parameters();
                if freeze {
                    params.retain(|p| !is_gnn_parameter(p));
                }
                if self.config.grad_clip > 0.0 {
                    clip_grad_norm(&mut params, self.config.grad_clip);
                }
                report.trainable_parameters = params.iter().map(|p| p.numel()).sum();
                optimizer.step(&mut params);
                // Clear any gradients that were not handed to the optimizer
                // (frozen parameters) so they do not accumulate across steps.
                model.zero_grad();

                epoch_loss += batch_loss;
                batches_done += 1;
                report.steps += 1;
            }
            report
                .epoch_losses
                .push(epoch_loss / batches_done.max(1) as f32);
        }

        report.final_train_accuracy = crate::metrics::accuracy(model, samples);
        report
    }
}

fn is_gnn_parameter(p: &Parameter) -> bool {
    p.name.starts_with("embed") || p.name.starts_with("rgcn")
}

/// Splits samples into `(train, validation)` for leave-one-out cross
/// validation: every sample whose `group` equals `held_out_group` goes into
/// the validation set.
pub fn loocv_split<'a>(
    samples: &'a [TrainingSample],
    held_out_group: &str,
) -> (Vec<&'a TrainingSample>, Vec<&'a TrainingSample>) {
    let mut train = Vec::new();
    let mut val = Vec::new();
    for s in samples {
        if s.group == held_out_group {
            val.push(s);
        } else {
            train.push(s);
        }
    }
    (train, val)
}

/// All distinct groups (application names) in stable order of first
/// appearance — the fold list for LOOCV.
pub fn groups(samples: &[TrainingSample]) -> Vec<String> {
    let mut seen = Vec::new();
    for s in samples {
        if !seen.contains(&s.group) {
            seen.push(s.group.clone());
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use pnp_graph::{build_region_graph, Vocabulary};
    use pnp_ir::dsl::*;
    use pnp_ir::lower_kernel;

    /// Builds a small dataset of structurally different graphs with labels
    /// correlated to their structure (deep loop nests → class 1, flat → 0).
    fn dataset() -> Vec<TrainingSample> {
        let vocab = Vocabulary::standard();
        let mut samples = Vec::new();
        for variant in 0..6 {
            let deep = variant % 2 == 1;
            let body = if deep {
                vec![Stmt::Loop(LoopNest::new(
                    "j",
                    LoopBound::Param("N".into()),
                    vec![Stmt::Accumulate {
                        target: ArrayRef::d1("A", IndexExpr::var("i")),
                        op: BinOp::Add,
                        value: Expr::load1("B", IndexExpr::var("j")),
                    }],
                ))]
            } else {
                vec![Stmt::Assign {
                    target: ArrayRef::d1("A", IndexExpr::var("i")),
                    value: Expr::mul(Expr::load1("B", IndexExpr::var("i")), Expr::Const(2.0)),
                }]
            };
            let region = RegionSource {
                name: format!("r{variant}"),
                pragma: OmpPragma::default(),
                arrays: vec![ArrayDecl::d1("A", "N"), ArrayDecl::d1("B", "N")],
                scalars: vec![],
                size_params: vec!["N".into()],
                helpers: vec![],
                parallel_loop: LoopNest::new("i", LoopBound::Param("N".into()), body),
            };
            let m = lower_kernel(&format!("app{variant}"), std::slice::from_ref(&region));
            let g = build_region_graph(&m, &region.name).unwrap();
            samples.push(TrainingSample {
                graph: pnp_graph::EncodedGraph::encode(&g, &vocab),
                dynamic: None,
                label: usize::from(deep),
                group: format!("app{}", variant % 3),
            });
        }
        samples
    }

    fn tiny_model(classes: usize) -> PnPModel {
        PnPModel::new(ModelConfig {
            vocab_size: Vocabulary::standard().len(),
            hidden_dim: 8,
            num_rgcn_layers: 2,
            fc_hidden: 16,
            num_classes: classes,
            num_relations: 3,
            num_dynamic_features: 0,
            dropout: 0.0,
            seed: 11,
        })
    }

    #[test]
    fn training_learns_structure_labels() {
        let samples = dataset();
        let mut model = tiny_model(2);
        // 6 samples / batch 4 gives only 2 optimizer steps per epoch, so the
        // paper's lr of 1e-3 needs a real epoch budget to memorize the set.
        let trainer = Trainer::new(TrainConfig {
            epochs: 120,
            batch_size: 4,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut model, &samples);
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
        assert!(
            report.final_train_accuracy >= 0.99,
            "train accuracy {}",
            report.final_train_accuracy
        );
    }

    #[test]
    fn freezing_gnn_reduces_trainable_parameters() {
        let samples = dataset();
        let mut full = tiny_model(2);
        let mut frozen = tiny_model(2);
        let t_full = Trainer::new(TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        });
        let t_frozen = Trainer::new(TrainConfig {
            epochs: 1,
            freeze_gnn: true,
            ..TrainConfig::default()
        });
        let r_full = t_full.train(&mut full, &samples);
        let r_frozen = t_frozen.train(&mut frozen, &samples);
        assert!(r_frozen.trainable_parameters < r_full.trainable_parameters / 2);
    }

    #[test]
    fn frozen_training_leaves_gnn_weights_untouched_and_still_learns() {
        // Regression for the transfer-accuracy collapse: the frozen fast
        // path must (a) never move an embedding/RGCN weight and (b) still
        // let the dense head learn the toy structure labels with the full
        // epoch budget.
        let samples = dataset();
        let mut model = tiny_model(2);
        let gnn_before = model.gnn_weights();
        let trainer = Trainer::new(TrainConfig {
            epochs: 120,
            batch_size: 4,
            freeze_gnn: true,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut model, &samples);
        let gnn_after = model.gnn_weights();
        for (name, before) in &gnn_before.tensors {
            let after = &gnn_after.tensors[name];
            assert_eq!(before.data, after.data, "frozen parameter {name} moved");
        }
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
        assert!(
            report.final_train_accuracy >= 0.99,
            "frozen-head training should still memorize the toy set, got {}",
            report.final_train_accuracy
        );
    }

    #[test]
    fn loocv_split_partitions_by_group() {
        let samples = dataset();
        let gs = groups(&samples);
        assert_eq!(gs.len(), 3);
        let (train, val) = loocv_split(&samples, &gs[0]);
        assert_eq!(train.len() + val.len(), samples.len());
        assert!(val.iter().all(|s| s.group == gs[0]));
        assert!(train.iter().all(|s| s.group != gs[0]));
        assert!(!val.is_empty());
    }

    #[test]
    fn adam_variant_also_trains() {
        let samples = dataset();
        let mut model = tiny_model(2);
        let trainer = Trainer::new(TrainConfig {
            epochs: 10,
            optimizer: OptimizerKind::Adam,
            batch_size: 3,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut model, &samples);
        assert!(report.improved());
        assert_eq!(report.steps, 10 * 2);
    }

    #[test]
    #[should_panic]
    fn empty_training_set_panics() {
        let mut model = tiny_model(2);
        Trainer::new(TrainConfig::default()).train(&mut model, &[]);
    }
}
