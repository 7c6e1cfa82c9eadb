//! The PnP model: embedding → RGCN stack → readout → dense classifier.

use crate::batch::GraphBatch;
use crate::readout::MeanReadout;
use crate::rgcn::RgcnLayer;
use pnp_graph::EncodedGraph;
use pnp_tensor::init::kaiming_normal;
use pnp_tensor::{
    softmax_rows, softmax_rows_inplace, Dropout, Embedding, Layer, LeakyReLU, Linear, Parameter,
    ParameterBundle, ReLU, SeededRng, Tensor,
};

/// Hyperparameters of the PnP model (defaults follow Table II of the paper,
/// with a reduced hidden size so the whole evaluation runs on one core).
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Vocabulary size of the node-text embedding.
    pub vocab_size: usize,
    /// Node / hidden representation width.
    pub hidden_dim: usize,
    /// Number of RGCN layers (paper: 4).
    pub num_rgcn_layers: usize,
    /// Width of the dense classifier's hidden layers.
    pub fc_hidden: usize,
    /// Number of output classes (tuning configurations).
    pub num_classes: usize,
    /// Number of edge relations (3: control, data, call).
    pub num_relations: usize,
    /// Number of dynamic features appended to the readout (0 for the static
    /// tuner; 5 counters [+1 power] for the dynamic tuner).
    pub num_dynamic_features: usize,
    /// Dropout probability applied to the readout vector.
    pub dropout: f32,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            vocab_size: 512,
            hidden_dim: 32,
            num_rgcn_layers: 4,
            fc_hidden: 64,
            num_classes: 126,
            num_relations: 3,
            num_dynamic_features: 0,
            dropout: 0.1,
            seed: 0xC0FFEE,
        }
    }
}

/// A single graph as a batch of one — how every single-graph inference
/// reaches [`PnPModel::forward_batch`].
///
/// # Panics
///
/// On an empty graph or an edge outside the graph: the model cannot pool
/// an empty node set, and `pnp-graph` encoding never produces either.
fn one_graph(graph: &EncodedGraph) -> GraphBatch {
    GraphBatch::from_graphs(&[graph]).expect("cannot run the model on this graph")
}

/// The row tables of inference forwards, lent to every RGCN layer of a
/// forward and to every model of a committee, so a call allocates its
/// `classes x hidden_dim` tables once instead of once per layer and
/// model. Make one per call and drop it after: it holds no results, only
/// allocations sized by the largest batch it has seen.
pub struct Workspace {
    /// The class table a layer reads.
    input: Tensor,
    /// The class table a layer writes.
    output: Tensor,
    /// Each relation's messages.
    scratch: Tensor,
}

impl Workspace {
    /// An empty workspace; its tables grow on first use.
    pub fn new() -> Self {
        let empty = || Tensor::zeros(&[0, 0]);
        Workspace {
            input: empty(),
            output: empty(),
            scratch: empty(),
        }
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

/// The PnP tuner model.
pub struct PnPModel {
    /// Configuration the model was built with.
    pub config: ModelConfig,
    token_embedding: Embedding,
    kind_embedding: Embedding,
    rgcn_layers: Vec<RgcnLayer>,
    rgcn_activations: Vec<LeakyReLU>,
    readout: MeanReadout,
    dropout: Dropout,
    fc_layers: Vec<Linear>,
    fc_activations: Vec<ReLU>,
}

// Inference takes `&self`, so one model may serve many threads at once.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<PnPModel>();
};

/// How a fresh model initializes a parameter.
#[derive(Clone, Copy)]
enum Init {
    /// `N(0, 0.1)`, the embedding tables.
    Embedding,
    /// Kaiming-normal over the first dimension as fan-in.
    Kaiming,
    /// Zeros, the biases.
    Zeros,
}

/// A checkpoint that does not fit a model configuration: some parameter is
/// missing or has another shape, or the checkpoint holds extra tensors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointMismatch {
    /// Parameters found in the checkpoint by name and shape.
    pub restored: usize,
    /// Parameters the configuration has.
    pub expected: usize,
    /// Tensors the checkpoint holds.
    pub stored: usize,
}

impl PnPModel {
    /// Builds a model from a configuration.
    pub fn new(config: ModelConfig) -> Self {
        let mut rng = SeededRng::new(config.seed);
        Self::assemble(config, |_, shape, init| match init {
            Init::Embedding => {
                let mut t = Tensor::randn(shape, &mut rng);
                t.scale_inplace(0.1);
                t
            }
            // Every Kaiming-initialized parameter is a matrix.
            Init::Kaiming => match *shape {
                [fan_in, fan_out] => kaiming_normal(fan_in, fan_out, &mut rng),
                _ => Tensor::zeros(shape),
            },
            Init::Zeros => Tensor::zeros(shape),
        })
    }

    /// Builds a model of `config` whose every parameter comes from
    /// `checkpoint` (a [`PnPModel::all_weights`] bundle), without drawing
    /// the seeded initialization a restore would overwrite. The checkpoint
    /// must fit exactly: every parameter present by name and shape, and no
    /// other tensor stored.
    pub fn from_checkpoint(
        config: ModelConfig,
        checkpoint: &ParameterBundle,
    ) -> Result<Self, CheckpointMismatch> {
        let mut restored = 0;
        let mut model = Self::assemble(config, |name, shape, _| {
            match checkpoint.tensors.get(name) {
                Some(saved) if saved.shape == shape => {
                    restored += 1;
                    saved.clone()
                }
                _ => Tensor::zeros(shape),
            }
        });
        let expected = model.num_parameters();
        if restored == expected && checkpoint.len() == restored {
            return Ok(model);
        }
        Err(CheckpointMismatch {
            restored,
            expected,
            stored: checkpoint.len(),
        })
    }

    /// The model of `config` with each parameter's value from
    /// `value(name, shape, init)`, asked for in a fixed order: the token
    /// and kind embeddings, each RGCN layer's self-loop, relation and bias
    /// weights, then each dense layer's weight and bias. [`PnPModel::new`]
    /// draws its seeded stream in that order.
    fn assemble(
        config: ModelConfig,
        mut value: impl FnMut(&str, &[usize], Init) -> Tensor,
    ) -> Self {
        let mut param = |name: String, shape: &[usize], init| {
            let v = value(&name, shape, init);
            Parameter::new(name, v)
        };
        let (hidden, relations) = (config.hidden_dim, config.num_relations);
        let token_embedding = Embedding::from_table(param(
            "embed.token".into(),
            &[config.vocab_size, hidden],
            Init::Embedding,
        ));
        let kind_embedding =
            Embedding::from_table(param("embed.kind".into(), &[3, hidden], Init::Embedding));

        let rgcn_layers: Vec<RgcnLayer> = (0..config.num_rgcn_layers)
            .map(|l| {
                let w_self = param(format!("rgcn{l}.w_self"), &[hidden, hidden], Init::Kaiming);
                let w_rel = (0..relations)
                    .map(|r| {
                        param(
                            format!("rgcn{l}.w_rel{r}"),
                            &[hidden, hidden],
                            Init::Kaiming,
                        )
                    })
                    .collect();
                let bias = param(format!("rgcn{l}.bias"), &[hidden], Init::Zeros);
                RgcnLayer::from_parameters(w_self, w_rel, bias)
            })
            .collect();
        let rgcn_activations = (0..config.num_rgcn_layers)
            .map(|_| LeakyReLU::new())
            .collect();

        let fc_in = hidden + config.num_dynamic_features;
        let widths = [
            (fc_in, config.fc_hidden),
            (config.fc_hidden, config.fc_hidden),
            (config.fc_hidden, config.num_classes),
        ];
        let fc_layers = widths
            .iter()
            .enumerate()
            .map(|(i, &(d_in, d_out))| {
                let weight = param(format!("fc{i}.weight"), &[d_in, d_out], Init::Kaiming);
                let bias = param(format!("fc{i}.bias"), &[d_out], Init::Zeros);
                Linear::from_parameters(weight, bias)
            })
            .collect();
        let fc_activations = vec![ReLU::new(), ReLU::new()];

        PnPModel {
            dropout: Dropout::new(config.dropout, config.seed ^ 0xD0),
            config,
            token_embedding,
            kind_embedding,
            rgcn_layers,
            rgcn_activations,
            readout: MeanReadout::new(),
            fc_layers,
            fc_activations,
        }
    }

    /// Switches every RGCN layer into tied-weight (plain GCN) mode — used by
    /// the RGCN-vs-GCN ablation.
    pub fn set_relational(&mut self, relational: bool) {
        for l in &mut self.rgcn_layers {
            l.relational = relational;
        }
    }

    /// Switches the readout to sum pooling (ablation).
    pub fn set_sum_pooling(&mut self, sum: bool) {
        self.readout.sum_pool = sum;
    }

    /// Forward pass over one encoded graph. `dynamic_features` must have
    /// length `config.num_dynamic_features`. Returns `(1 x num_classes)`
    /// logits.
    ///
    /// With `train` set this is the training forward: every layer records
    /// its backward cache and dropout samples a mask, and the RGCN layers
    /// run their one forward body over node rows. Without it, the graph
    /// runs through [`PnPModel::forward_batch`] as a batch of one — the one
    /// inference body (DESIGN.md §15).
    ///
    /// # Panics
    ///
    /// On an empty graph, an edge outside the graph, a relation count other
    /// than `config.num_relations`, or a dynamic-feature count other than
    /// `config.num_dynamic_features`.
    pub fn forward(
        &mut self,
        graph: &EncodedGraph,
        dynamic_features: Option<&[f32]>,
        train: bool,
    ) -> Tensor {
        if !train {
            return self.forward_one(graph, dynamic_features);
        }
        // A batch of one for its read plan; every node row is kept, because
        // backward needs the full input of each layer.
        let batch = one_graph(graph);
        let tok = self.token_embedding.lookup_train(batch.tokens());
        let kind = self.kind_embedding.lookup_train(batch.kinds());
        let mut h = tok.add(&kind);
        for (layer, act) in self
            .rgcn_layers
            .iter_mut()
            .zip(self.rgcn_activations.iter_mut())
        {
            h = act.forward_train(&layer.forward_train(&h, batch.plan()));
        }
        let pooled = self.readout.forward_train(&h);
        self.head_forward(&pooled, dynamic_features)
    }

    /// Inference forward of one graph: a batch of one through
    /// [`PnPModel::forward_batch`].
    fn forward_one(&self, graph: &EncodedGraph, dynamic_features: Option<&[f32]>) -> Tensor {
        let dynamic = dynamic_features.map(|d| vec![d.to_vec()]);
        self.forward_batch(&one_graph(graph), dynamic.as_deref())
    }

    /// Runs only the GNN half of the model (embeddings → RGCN stack →
    /// readout) in inference mode and returns the pooled `(1 x hidden_dim)`
    /// graph representation.
    ///
    /// With a frozen GNN this output is constant per graph, so the trainer
    /// caches it once and drives every epoch through
    /// [`PnPModel::head_forward`] / [`PnPModel::head_backward`] — the
    /// mechanism behind the paper's transfer-learning speedup (§IV-B): only
    /// the dense classifier is re-trained, and the expensive graph layers run
    /// once per sample instead of once per sample per epoch.
    pub fn pooled_features(&self, graph: &EncodedGraph) -> Tensor {
        self.pooled_batch(&one_graph(graph), &mut Workspace::new())
    }

    /// Training forward of the classifier head only (dropout →
    /// dynamic-feature concat → dense stack) over a pooled graph
    /// representation from [`PnPModel::pooled_features`]. It is the tail of
    /// the training [`PnPModel::forward`].
    pub fn head_forward(&mut self, pooled: &Tensor, dynamic_features: Option<&[f32]>) -> Tensor {
        let dyn_feats = dynamic_features.unwrap_or(&[]);
        assert_eq!(
            dyn_feats.len(),
            self.config.num_dynamic_features,
            "expected {} dynamic features, got {}",
            self.config.num_dynamic_features,
            dyn_feats.len()
        );
        let pooled = self.dropout.forward_train(pooled);
        let mut x = if dyn_feats.is_empty() {
            pooled
        } else {
            let dyn_row = Tensor::from_vec(dyn_feats.to_vec(), &[1, dyn_feats.len()]);
            pooled.concat_cols(&dyn_row)
        };
        for (i, fc) in self.fc_layers.iter_mut().enumerate() {
            x = fc.forward_train(&x);
            if let Some(act) = self.fc_activations.get_mut(i) {
                x = act.forward_train(&x);
            }
        }
        x
    }

    /// Backward pass of the classifier head only: accumulates dense-layer
    /// gradients and stops at the (frozen) readout boundary.
    pub fn head_backward(&mut self, grad_logits: &Tensor) {
        self.dense_backward(grad_logits);
        // The gradient would continue into the dropout mask and the GNN; both
        // are frozen in head-only training, so it stops here.
    }

    /// Backward through the dense stack; returns the gradient w.r.t. its
    /// input (pooled features plus dynamic-feature columns).
    fn dense_backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut d = grad_logits.clone();
        for (i, fc) in self.fc_layers.iter_mut().enumerate().rev() {
            if let Some(act) = self.fc_activations.get_mut(i) {
                d = act.backward(&d);
            }
            d = fc.backward(&d);
        }
        d
    }

    /// Backward pass from the logits gradient; accumulates all parameter
    /// gradients.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let d = self.dense_backward(grad_logits);
        // Split off the dynamic-feature columns (no gradient needed for them).
        let hidden = self.config.hidden_dim;
        let d_pooled = if self.config.num_dynamic_features > 0 {
            let mut trimmed = Tensor::zeros(&[1, hidden]);
            trimmed.set_row(0, &d.row(0)[..hidden]);
            trimmed
        } else {
            d
        };
        let d_pooled = self.dropout.backward(&d_pooled);
        let mut dh = self.readout.backward(&d_pooled);
        for (layer, act) in self
            .rgcn_layers
            .iter_mut()
            .zip(self.rgcn_activations.iter_mut())
            .rev()
        {
            let dz = act.backward(&dh);
            dh = layer.backward(&dz);
        }
        self.token_embedding.backward_ids(&dh);
        self.kind_embedding.backward_ids(&dh);
    }

    /// Embeddings → RGCN stack → per-segment readout over a block-diagonal
    /// batch: one pooled `(1 x hidden_dim)` row per graph. Every table
    /// holds one row per row class of the batch's plan: level 0 the
    /// distinct `(token, kind)` pairs, layer ℓ's output the level-(ℓ+1)
    /// classes. Each layer writes the workspace's output table, activates
    /// it in place, and swaps it in as the next layer's input; the readout
    /// reads each node's row through its class.
    fn pooled_batch(&self, batch: &GraphBatch, ws: &mut Workspace) -> Tensor {
        let depth = self.rgcn_layers.len();
        let classes = batch.plan().row_classes(depth);
        let Workspace {
            input,
            output,
            scratch,
        } = ws;
        let tok = self.token_embedding.lookup(classes.tokens());
        let kind = self.kind_embedding.lookup(classes.kinds());
        *input = tok.add(&kind);
        for ((layer, act), reads) in self
            .rgcn_layers
            .iter()
            .zip(&self.rgcn_activations)
            .zip(classes.layers())
        {
            layer.forward_into(input, reads, output, scratch);
            act.forward_inplace(output);
            std::mem::swap(input, output);
        }
        self.readout
            .forward_segments(input, classes.classes(depth), batch.segments())
    }

    /// Fused inference forward over a block-diagonal [`GraphBatch`]:
    /// returns `(B x num_classes)` logits, row `i` bit-identical to the
    /// training-path `forward(graphs[i], …, true)` of a dropout-free model
    /// (DESIGN.md §15). This is the only inference body: every single-graph
    /// prediction runs it over a batch of one.
    ///
    /// The batch's merged edge lists have no cross-graph edges and the
    /// readout pools per segment, so every per-node and per-graph value is
    /// computed by exactly the per-row/per-edge operation sequence of a
    /// graph alone. The batch's [`crate::ReadPlan`] numbers its row classes
    /// on the first inference forward and keeps them for every later model
    /// over the batch: each layer computes one row per class, multiplies
    /// each relation's weights once per distinct source class, and
    /// scatters only the edges into each class's first node. Nodes of one
    /// class get bit-identical rows, so this changes no output bit
    /// (DESIGN.md §15). Products that still reach
    /// [`pnp_tensor::PAR_MIN_ROWS`] rows take the row-parallel `pnp_tensor`
    /// matmul (`PNP_MATMUL_THREADS`).
    ///
    /// `dynamic_features`, when present, must hold one row of
    /// `config.num_dynamic_features` values per graph, in batch order.
    /// Takes `&self`: no caches are written and dropout is the identity, so
    /// one model serves any number of threads at once.
    pub fn forward_batch(
        &self,
        batch: &GraphBatch,
        dynamic_features: Option<&[Vec<f32>]>,
    ) -> Tensor {
        self.forward_batch_with(batch, dynamic_features, &mut Workspace::new())
    }

    /// [`PnPModel::forward_batch`] over the node tables of `ws`; the logits
    /// do not depend on what `ws` held before.
    fn forward_batch_with(
        &self,
        batch: &GraphBatch,
        dynamic_features: Option<&[Vec<f32>]>,
        ws: &mut Workspace,
    ) -> Tensor {
        assert!(!batch.is_empty(), "cannot run the model on an empty batch");
        match dynamic_features {
            Some(rows) => {
                assert_eq!(
                    rows.len(),
                    batch.len(),
                    "expected one dynamic-feature row per graph"
                );
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(
                        row.len(),
                        self.config.num_dynamic_features,
                        "graph {i}: expected {} dynamic features, got {}",
                        self.config.num_dynamic_features,
                        row.len()
                    );
                }
            }
            None => assert_eq!(
                self.config.num_dynamic_features, 0,
                "model expects {} dynamic features per graph",
                self.config.num_dynamic_features
            ),
        }

        self.head_batch(&self.pooled_batch(batch, ws), dynamic_features)
    }

    /// Identity dropout, the optional dynamic features and the dense
    /// classifier over pooled rows, one row per graph.
    fn head_batch(&self, pooled: &Tensor, dynamic_features: Option<&[Vec<f32>]>) -> Tensor {
        let pooled = self.dropout.forward(pooled);
        let mut x = match dynamic_features {
            Some(rows) if self.config.num_dynamic_features > 0 => {
                let dyn_rows = Tensor::from_rows(rows);
                pooled.concat_cols(&dyn_rows)
            }
            _ => pooled,
        };
        for (i, fc) in self.fc_layers.iter().enumerate() {
            x = fc.forward(&x);
            if let Some(act) = self.fc_activations.get(i) {
                x = act.forward(&x);
            }
        }
        x
    }

    /// Class probabilities for every graph in a [`GraphBatch`], in batch
    /// order. Each row is bit-identical to [`PnPModel::predict_proba`] on
    /// that graph alone (DESIGN.md §15).
    ///
    /// # Examples
    ///
    /// ```
    /// use pnp_gnn::{GraphBatch, ModelConfig, PnPModel};
    /// use pnp_graph::EncodedGraph;
    ///
    /// let a = EncodedGraph {
    ///     name: "a".into(),
    ///     tokens: vec![0, 1, 2],
    ///     kinds: vec![0, 1, 2],
    ///     relations: vec![vec![(0, 1), (1, 2)], vec![(2, 0)], vec![]],
    /// };
    /// let b = EncodedGraph {
    ///     name: "b".into(),
    ///     tokens: vec![3, 4],
    ///     kinds: vec![0, 1],
    ///     relations: vec![vec![(1, 0)], vec![], vec![]],
    /// };
    /// let model = PnPModel::new(ModelConfig {
    ///     vocab_size: 8,
    ///     hidden_dim: 4,
    ///     num_rgcn_layers: 2,
    ///     fc_hidden: 8,
    ///     num_classes: 3,
    ///     ..ModelConfig::default()
    /// });
    ///
    /// let batch = GraphBatch::from_graphs(&[&a, &b]).unwrap();
    /// let batched = model.predict_proba_batch(&batch, None);
    ///
    /// // One probability row per graph, bit-identical to the single path.
    /// assert_eq!(batched.len(), 2);
    /// assert_eq!(batched[0], model.predict_proba(&a, None));
    /// assert_eq!(batched[1], model.predict_proba(&b, None));
    /// ```
    pub fn predict_proba_batch(
        &self,
        batch: &GraphBatch,
        dynamic_features: Option<&[Vec<f32>]>,
    ) -> Vec<Vec<f32>> {
        let probs = self.predict_proba_with(batch, dynamic_features, &mut Workspace::new());
        (0..probs.rows()).map(|r| probs.row(r).to_vec()).collect()
    }

    /// [`PnPModel::predict_proba_batch`] as one `(B x num_classes)` tensor,
    /// over the node tables of `ws`: how a committee runs every model of a
    /// call through one workspace and reads each probability row in place.
    pub fn predict_proba_with(
        &self,
        batch: &GraphBatch,
        dynamic_features: Option<&[Vec<f32>]>,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut probs = self.forward_batch_with(batch, dynamic_features, ws);
        softmax_rows_inplace(&mut probs);
        probs
    }

    /// Class probabilities for one graph (inference mode).
    pub fn predict_proba(
        &self,
        graph: &EncodedGraph,
        dynamic_features: Option<&[f32]>,
    ) -> Vec<f32> {
        let logits = self.forward_one(graph, dynamic_features);
        softmax_rows(&logits).row(0).to_vec()
    }

    /// The predicted class (argmax of the probabilities).
    pub fn predict(&self, graph: &EncodedGraph, dynamic_features: Option<&[f32]>) -> usize {
        self.forward_one(graph, dynamic_features).argmax_row(0)
    }

    /// Classes ranked from most to least likely (used to pick the best
    /// *valid* configuration when some classes are masked out).
    pub fn predict_ranked(
        &self,
        graph: &EncodedGraph,
        dynamic_features: Option<&[f32]>,
    ) -> Vec<usize> {
        let logits = self.forward_one(graph, dynamic_features);
        let row = logits.row(0);
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
        idx
    }

    /// All trainable parameters.
    pub fn parameters(&mut self) -> Vec<&mut Parameter> {
        let mut ps: Vec<&mut Parameter> = vec![
            &mut self.token_embedding.table,
            &mut self.kind_embedding.table,
        ];
        for l in &mut self.rgcn_layers {
            ps.extend(l.parameters());
        }
        for l in &mut self.fc_layers {
            ps.extend(l.parameters());
        }
        ps
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    pub fn num_weights(&mut self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }

    /// Captures *every* trainable parameter (embeddings, RGCN stack, dense
    /// classifier) — the checkpoint the artifact store persists for a
    /// trained model. [`PnPModel::load_all_weights`] restores it into a
    /// freshly constructed model of the same configuration, reproducing the
    /// trained model's predictions bit-for-bit.
    pub fn all_weights(&mut self) -> ParameterBundle {
        let params = self.parameters();
        let refs: Vec<&Parameter> = params.iter().map(|p| &**p).collect();
        ParameterBundle::capture(&refs)
    }

    /// Restores a full checkpoint from [`PnPModel::all_weights`]. Returns
    /// the number of tensors restored; callers treating the bundle as a
    /// complete checkpoint should check it equals
    /// [`PnPModel::num_parameters`] (a shape or name mismatch leaves the
    /// unmatched parameter at its fresh initialization).
    pub fn load_all_weights(&mut self, bundle: &ParameterBundle) -> usize {
        let mut params = self.parameters();
        bundle.restore(&mut params)
    }

    /// Number of parameter tensors (not scalars; see
    /// [`PnPModel::num_weights`] for the scalar count).
    pub fn num_parameters(&mut self) -> usize {
        self.parameters().len()
    }

    /// Captures the GNN part of the model (embeddings + RGCN layers) for the
    /// transfer-learning experiment.
    pub fn gnn_weights(&mut self) -> ParameterBundle {
        let params = self.parameters();
        let refs: Vec<&Parameter> = params
            .iter()
            .map(|p| &**p)
            .filter(|p| p.name.starts_with("embed") || p.name.starts_with("rgcn"))
            .collect();
        ParameterBundle::capture(&refs)
    }

    /// Restores previously saved GNN weights (dense layers stay untouched).
    /// Returns the number of tensors restored.
    pub fn load_gnn_weights(&mut self, bundle: &ParameterBundle) -> usize {
        let mut params = self.parameters();
        bundle.restore(&mut params)
    }
}

/// The model over the all-rows RGCN body (`RgcnLayer::forward_all_rows`):
/// the bit-identity reference of `crate::forward_properties`.
#[cfg(test)]
impl PnPModel {
    pub(crate) fn forward_batch_all_rows(
        &self,
        batch: &GraphBatch,
        dynamic_features: Option<&[Vec<f32>]>,
    ) -> Tensor {
        let tok = self.token_embedding.lookup(batch.tokens());
        let kind = self.kind_embedding.lookup(batch.kinds());
        let mut h = tok.add(&kind);
        for (layer, act) in self.rgcn_layers.iter().zip(&self.rgcn_activations) {
            h = act.forward(&layer.forward_all_rows(&h, batch.relations()));
        }
        let nodes: Vec<usize> = (0..h.rows()).collect();
        let pooled = self.readout.forward_segments(&h, &nodes, batch.segments());
        self.head_batch(&pooled, dynamic_features)
    }

    pub(crate) fn forward_train_all_rows(
        &mut self,
        graph: &EncodedGraph,
        dynamic_features: Option<&[f32]>,
    ) -> Tensor {
        let tok = self.token_embedding.lookup_train(&graph.tokens);
        let kind = self.kind_embedding.lookup_train(&graph.kinds);
        let mut h = tok.add(&kind);
        for (layer, act) in self
            .rgcn_layers
            .iter_mut()
            .zip(self.rgcn_activations.iter_mut())
        {
            h = act.forward_train(&layer.forward_train_all_rows(&h, &graph.relations));
        }
        let pooled = self.readout.forward_train(&h);
        self.head_forward(&pooled, dynamic_features)
    }

    pub(crate) fn backward_all_rows(&mut self, grad_logits: &Tensor) {
        let d = self.dense_backward(grad_logits);
        let hidden = self.config.hidden_dim;
        let d_pooled = if self.config.num_dynamic_features > 0 {
            let mut trimmed = Tensor::zeros(&[1, hidden]);
            trimmed.set_row(0, &d.row(0)[..hidden]);
            trimmed
        } else {
            d
        };
        let d_pooled = self.dropout.backward(&d_pooled);
        let mut dh = self.readout.backward(&d_pooled);
        for (layer, act) in self
            .rgcn_layers
            .iter_mut()
            .zip(self.rgcn_activations.iter_mut())
            .rev()
        {
            let dz = act.backward(&dh);
            dh = layer.backward_all_rows(&dz);
        }
        self.token_embedding.backward_ids(&dh);
        self.kind_embedding.backward_ids(&dh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnp_graph::{build_region_graph, Vocabulary};
    use pnp_ir::dsl::*;
    use pnp_ir::lower_kernel;
    use pnp_tensor::cross_entropy;

    fn toy_graph() -> EncodedGraph {
        let region = RegionSource {
            name: "r0".into(),
            pragma: OmpPragma::default(),
            arrays: vec![ArrayDecl::d1("A", "N"), ArrayDecl::d1("B", "N")],
            scalars: vec!["alpha".into()],
            size_params: vec!["N".into()],
            helpers: vec![],
            parallel_loop: LoopNest::new(
                "i",
                LoopBound::Param("N".into()),
                vec![Stmt::Assign {
                    target: ArrayRef::d1("B", IndexExpr::var("i")),
                    value: Expr::mul(
                        Expr::Scalar("alpha".into()),
                        Expr::load1("A", IndexExpr::var("i")),
                    ),
                }],
            ),
        };
        let m = lower_kernel("toy", &[region]);
        let g = build_region_graph(&m, "r0").unwrap();
        EncodedGraph::encode(&g, &Vocabulary::standard())
    }

    fn small_config(num_classes: usize, dynamic: usize) -> ModelConfig {
        ModelConfig {
            vocab_size: Vocabulary::standard().len(),
            hidden_dim: 8,
            num_rgcn_layers: 2,
            fc_hidden: 16,
            num_classes,
            num_relations: 3,
            num_dynamic_features: dynamic,
            dropout: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn predict_ranked_is_a_pinned_total_order_over_the_logits() {
        let g = toy_graph();
        let mut model = PnPModel::new(small_config(10, 0));
        let ranked = model.predict_ranked(&g, None);
        // A permutation of all classes, bitwise-stable across calls.
        let mut seen = ranked.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(model.predict_ranked(&g, None), ranked);
        // Consistent with the logits under the same total order the sort
        // uses (descending `total_cmp`), bit for bit.
        let logits = model.forward(&g, None, false);
        let row = logits.row(0);
        for w in ranked.windows(2) {
            assert_ne!(
                row[w[0]].total_cmp(&row[w[1]]),
                std::cmp::Ordering::Less,
                "rank order disagrees with logits: {:?}",
                ranked
            );
        }
    }

    #[test]
    fn forward_produces_logits_of_expected_shape() {
        let g = toy_graph();
        let mut model = PnPModel::new(small_config(10, 0));
        let logits = model.forward(&g, None, false);
        assert_eq!(logits.shape, vec![1, 10]);
        assert!(logits.all_finite());
    }

    #[test]
    fn dynamic_features_change_the_prediction_inputs() {
        let g = toy_graph();
        let mut model = PnPModel::new(small_config(6, 3));
        let a = model.forward(&g, Some(&[0.0, 0.0, 0.0]), false);
        let b = model.forward(&g, Some(&[10.0, -5.0, 3.0]), false);
        let diff: f32 = a.data.iter().zip(&b.data).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4);
    }

    #[test]
    #[should_panic]
    fn wrong_dynamic_feature_count_panics() {
        let g = toy_graph();
        let mut model = PnPModel::new(small_config(6, 3));
        let _ = model.forward(&g, Some(&[1.0]), false);
    }

    #[test]
    fn training_reduces_loss_on_a_single_graph() {
        use pnp_tensor::{AdamW, Optimizer};
        let g = toy_graph();
        let mut model = PnPModel::new(small_config(5, 0));
        let mut opt = AdamW::new(0.01).amsgrad();
        let target = vec![3usize];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let logits = model.forward(&g, None, true);
            let (loss, dl) = cross_entropy(&logits, &target);
            model.backward(&dl);
            opt.step(&mut model.parameters());
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "loss {first:?} -> {last}");
        assert_eq!(model.predict(&g, None), 3);
    }

    #[test]
    fn predict_ranked_returns_a_permutation() {
        let g = toy_graph();
        let model = PnPModel::new(small_config(8, 0));
        let ranked = model.predict_ranked(&g, None);
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn gnn_weight_capture_and_restore_roundtrip() {
        let mut model_a = PnPModel::new(small_config(5, 0));
        let bundle = model_a.gnn_weights();
        assert!(!bundle.is_empty());
        assert!(bundle
            .tensors
            .keys()
            .all(|k| k.starts_with("embed") || k.starts_with("rgcn")));

        let mut model_b = PnPModel::new(ModelConfig {
            seed: 99,
            ..small_config(5, 0)
        });
        let before = model_b.predict_proba(&toy_graph(), None);
        let restored = model_b.load_gnn_weights(&bundle);
        assert_eq!(restored, bundle.len());
        let after = model_b.predict_proba(&toy_graph(), None);
        let diff: f32 = before.iter().zip(&after).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "restoring GNN weights must change the output");
    }

    #[test]
    fn all_weights_roundtrip_reproduces_predictions_bitwise() {
        let g = toy_graph();
        let mut trained = PnPModel::new(small_config(5, 0));
        let bundle = trained.all_weights();
        assert_eq!(bundle.len(), trained.num_parameters());

        // A differently seeded model restored from the bundle must agree
        // with the source bit-for-bit — including through a JSON round-trip
        // (the artifact store's persistence path).
        let json = bundle.to_json();
        let reloaded = pnp_tensor::ParameterBundle::from_json(&json).unwrap();
        let mut twin = PnPModel::new(ModelConfig {
            seed: 0xDEAD,
            ..small_config(5, 0)
        });
        let restored = twin.load_all_weights(&reloaded);
        assert_eq!(restored, twin.num_parameters());
        let a = trained.predict_proba(&g, None);
        let b = twin.predict_proba(&g, None);
        assert_eq!(a, b, "restored model must match bitwise");
    }

    #[test]
    fn a_model_built_from_its_checkpoint_predicts_bitwise_alike() {
        let g = toy_graph();
        for dynamic in [0, 3] {
            let mut trained = PnPModel::new(small_config(5, dynamic));
            let bundle = trained.all_weights();
            let mut restored =
                PnPModel::from_checkpoint(small_config(5, dynamic), &bundle).unwrap();
            assert_eq!(restored.all_weights().tensors, bundle.tensors);
            let feats = vec![0.5; dynamic];
            let feats = (dynamic > 0).then_some(feats.as_slice());
            let bits = |p: Vec<f32>| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(trained.predict_proba(&g, feats)),
                bits(restored.predict_proba(&g, feats))
            );
        }
    }

    #[test]
    fn from_checkpoint_is_as_strict_as_a_full_restore() {
        let mut source = PnPModel::new(small_config(5, 0));
        let full = source.all_weights();
        let expected = full.len();
        // What a seeded model plus `load_all_weights` would count.
        let old_check = |bundle: &ParameterBundle| {
            let mut model = PnPModel::new(small_config(5, 0));
            let restored = model.load_all_weights(bundle);
            (restored, model.num_parameters(), bundle.len())
        };
        let mut missing = full.clone();
        missing.tensors.remove("rgcn1.w_rel2");
        let mut reshaped = full.clone();
        reshaped
            .tensors
            .insert("fc2.bias".into(), Tensor::zeros(&[6]));
        let mut extra = full.clone();
        extra
            .tensors
            .insert("fc3.weight".into(), Tensor::zeros(&[2, 2]));
        for bundle in [missing, reshaped, extra] {
            let fit = PnPModel::from_checkpoint(small_config(5, 0), &bundle)
                .err()
                .expect("an unfit checkpoint is refused");
            assert_eq!((fit.restored, fit.expected, fit.stored), old_check(&bundle));
        }
        assert_eq!(old_check(&full), (expected, expected, expected));
        // Another class count changes the last dense layer's shape.
        assert!(PnPModel::from_checkpoint(small_config(6, 0), &full).is_err());
    }

    #[test]
    fn num_weights_counts_everything() {
        let mut model = PnPModel::new(small_config(4, 0));
        let n = model.num_weights();
        // embeddings + 2 rgcn layers (self+3 rel+bias) + 3 fc layers
        assert!(n > 1000);
        let sum: usize = model.parameters().iter().map(|p| p.numel()).sum();
        assert_eq!(n, sum);
    }

    #[test]
    fn parameter_names_are_unique() {
        let mut model = PnPModel::new(small_config(4, 2));
        let mut names: Vec<String> = model.parameters().iter().map(|p| p.name.clone()).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
