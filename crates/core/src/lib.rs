//! # pnp-core
//!
//! The top of the PnP-tuner stack: everything needed to go from the benchmark
//! suite to the numbers in the paper's figures.
//!
//! * [`dataset`] — runs the exhaustive configuration sweep of every region on
//!   a machine (the "oracle" data), packages code graphs, counters, and
//!   best-configuration labels.
//! * [`pnp`] — the user-facing [`pnp::PnPTuner`]: a trained GNN that predicts
//!   the best OpenMP configuration (and power level, for EDP mode) for an
//!   unseen region *without executing it*.
//! * [`training`] — leave-one-application-out cross-validation pipelines for
//!   the static and dynamic variants, plus the GNN-freezing transfer-learning
//!   path.
//! * [`eval`] — the metrics the paper reports: speedup, greenup, EDP
//!   improvement, oracle-normalized values, and geometric means.
//! * [`experiments`] — one driver per table/figure (see DESIGN.md's
//!   experiment index); the binaries in `pnp-bench` are thin wrappers around
//!   these.
//! * [`report`] — plain-text table rendering and JSON export of experiment
//!   results.
//! * [`validate`] — the paper-fidelity harness: every figure/table claim
//!   encoded as a machine-checkable invariant (DESIGN.md §11), driven by the
//!   `validate_paper` binary and the `validate` CI job.
//! * [`artifact`] — the content-addressed artifact cache (DESIGN.md §12):
//!   fingerprints and keys for built datasets and trained model grids on top
//!   of `pnp-store`, so drivers and CI jobs reuse instead of recompute.
//! * [`registry`] — the model registry (DESIGN.md §14): a typed
//!   `machine × suite × hyperparameters → TrainedGrid` view assembled from
//!   the persisted store index, with O(1) lookup and `list`/`describe`.
//! * [`serving`] — the serve path shared by the `pnp-serve` daemon and the
//!   offline tests: wire request/response types, checkpoint restoration
//!   with fit checks, and the committee predictor that is bit-identical to
//!   the offline predict path (ARCHITECTURE.md §9).

pub mod artifact;
pub mod dataset;
pub mod eval;
pub mod experiments;
pub mod pnp;
pub mod registry;
pub mod report;
pub mod serving;
pub mod training;
pub mod validate;

pub use artifact::{dataset_fingerprint, ArtifactStore, DatasetCache};
pub use dataset::{Dataset, RegionRecord, Sweep};
pub use eval::{checked_geomean, fraction_within, geomean, normalized_speedups};
pub use experiments::RunCtx;
pub use pnp::PnPTuner;
pub use registry::{DatasetDescriptor, ModelDescriptor, ModelRegistry, ModelSummary};
pub use serving::{
    resolve_graph, serving_tables, GridPipeline, KernelInput, ServingTables, TuneObjective,
    TunePrediction, TuneRequest, TuneResponse, TuneService,
};
pub use training::{FoldPlan, TrainSettings};
pub use validate::ValidationReport;
