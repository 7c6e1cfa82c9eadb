//! # pnp-gnn
//!
//! The learning core of the PnP tuner: a Relational Graph Convolutional
//! Network (RGCN) over flow-aware code graphs, followed by a dense classifier
//! that predicts the best OpenMP configuration.
//!
//! The model follows the paper (Section III-D, Table II):
//!
//! * node features = embedded node text token + node kind,
//! * 4 RGCN layers with Leaky ReLU and relation-specific weights
//!   (control / data / call flow),
//! * mean readout over all nodes,
//! * 3 fully connected layers with ReLU producing class logits,
//! * trained with cross-entropy, Adam / AdamW(amsgrad), lr = 1e-3, batch 16.
//!
//! Two variants exist, mirroring the paper's *static* and *dynamic* tuners:
//! [`PnPModel`] consumes only the code graph; when constructed with
//! `num_dynamic_features > 0` it additionally concatenates normalized
//! hardware counters (and, for the unseen-power-constraint experiment, the
//! normalized power cap) to the readout vector before the dense layers.
//!
//! ## Threading
//!
//! Training is deterministic for a fixed seed, and that determinism is
//! load-bearing: `pnp-core` fans whole LOOCV training jobs out across
//! threads (DESIGN.md §10) and relies on each job reproducing the serial
//! result bit-for-bit. The dense products that dominate the RGCN forward and
//! backward passes (`node_features · W` over hundreds of graph-node rows)
//! additionally support opt-in intra-op row parallelism via
//! `pnp_tensor::set_matmul_threads` / `PNP_MATMUL_THREADS`, which is also
//! bit-identical to the serial kernel at every worker count — enabling it
//! never changes a trained model, only the wall clock. It pays off when few
//! concurrent training jobs must fill many cores (fold-count < core-count).
//!
//! ## Batched inference
//!
//! Inference over many graphs goes through [`GraphBatch`]: the graphs are
//! merged into one block-diagonal graph (concatenated node features, edge
//! lists shifted by per-graph node offsets) and
//! [`PnPModel::forward_batch`] runs the whole batch through one fused
//! forward. The batch's [`ReadPlan`] numbers its row classes on the first
//! inference forward and keeps them for every later model over the batch
//! ([`RowClasses`]): nodes with the same `(token, kind)` pair and the same
//! ordered in-edges from same-class sources get bit-identical rows in
//! every layer (their 1-WL colour), so each layer computes one row per
//! class — its self product, each relation's product once per distinct
//! source class, and the scatter only over edges into each class's first
//! node ([`RgcnLayer::forward_into`]). Fusing graphs shares that work: a
//! batch's tables are as tall as its distinct rows, and a graph that
//! repeats another's structure adds none. Because no edge crosses a graph
//! boundary and the readout pools per segment, reading each node's row
//! through its class, every batched output row is bit-identical to the
//! single-graph path (DESIGN.md §15) — batching, like threading, is
//! a scheduling decision, never a numerical one. Single-graph prediction is
//! itself a batch of one, and inference takes `&self` throughout, so one
//! model can serve many threads; only the training forward writes the
//! backward caches, over node rows ([`ReadPlan::node_reads`]) and never
//! over classes. The row tables an inference forward writes live in a
//! [`Workspace`] the caller makes per call
//! ([`PnPModel::predict_proba_with`]); a committee lends one to all its
//! models, so a call allocates its tables once.

pub mod batch;
#[cfg(test)]
mod forward_properties;
pub mod metrics;
pub mod model;
pub mod plan;
pub mod readout;
pub mod rgcn;
pub mod train;

pub use batch::{BatchError, GraphBatch, Minibatcher};
pub use model::{CheckpointMismatch, ModelConfig, PnPModel, Workspace};
pub use plan::{LayerReads, ReadPlan, RowClasses};
pub use readout::MeanReadout;
pub use rgcn::RgcnLayer;
pub use train::{TrainConfig, TrainReport, Trainer, TrainingSample};
