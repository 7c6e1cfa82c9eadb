//! Training pipelines: grouped leave-applications-out cross-validation for
//! both tuning scenarios, the dynamic-feature variants, the
//! unseen-power-constraint generalization, and transfer learning.
//!
//! ## Parallel LOOCV (DESIGN.md §10)
//!
//! Every cross-validated pipeline here is a grid of *independent* training
//! jobs — one model per `(fold, power level)` pair for scenario 1, one per
//! fold for scenario 2 and the unseen-power variant. Since PR 3 these jobs
//! fan out over the in-tree OpenMP executor (`pnp_openmp::par`): each job
//! carries its own deterministic seed (derived from its grid coordinates by
//! [`GridPipeline`]), trains in isolation, and returns its
//! held-out predictions, which are written back into the prediction matrix
//! by `(region, power)` index. Because no float ever crosses a job boundary
//! and the seeds do not depend on the worker count, the trained models and
//! all downstream metrics are **bit-identical for every worker count** —
//! `tests/training_determinism.rs` and the CI train-perf smoke enforce it.
//! The knob is [`TrainSettings::train_threads`] (`PNP_TRAIN_THREADS` /
//! `--train-threads` in the experiment binaries).

//! ## Cached training (DESIGN.md §12)
//!
//! Given a cache, each `train_*_cached` pipeline persists its grid of
//! trained checkpoints in the content-addressed artifact store as a
//! [`TrainedGrid`] (one [`ParameterBundle`] per `(fold, power)` job, keyed
//! on the dataset's content hash plus every hyperparameter); given `None`,
//! it trains every job. On a warm store the pipeline skips training entirely
//! and *replays*: it rebuilds each job's model from its seed, restores the
//! checkpoint, and recomputes the held-out predictions — which are
//! bit-identical to the freshly trained ones, because weights survive the
//! JSON round-trip exactly (shortest-round-trip float formatting) and
//! prediction is deterministic. Any checkpoint that does not fit the current
//! job plan falls back to training that job, never to a panic.

use crate::artifact::{ArtifactKey, DatasetCache};
use crate::dataset::{Dataset, Sweep};
use pnp_gnn::train::OptimizerKind;
use pnp_gnn::{ModelConfig, PnPModel, TrainConfig, Trainer, TrainingSample};
use pnp_graph::Vocabulary;
use pnp_openmp::{parallel_map, Threads};
use pnp_tensor::ParameterBundle;
use pnp_tuners::{ConfigPoint, SearchSpace};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Model/training sizes. `quick` keeps the whole evaluation tractable on a
/// single core; `full` matches the paper's hyperparameters (Table II).
#[derive(Clone, Debug)]
pub struct TrainSettings {
    /// Hidden width of the node representation.
    pub hidden_dim: usize,
    /// Number of RGCN layers (paper: 4).
    pub rgcn_layers: usize,
    /// Width of the dense classifier layers.
    pub fc_hidden: usize,
    /// Training epochs per fold.
    pub epochs: usize,
    /// Gradient-accumulation batch size (paper: 16).
    pub batch_size: usize,
    /// Number of cross-validation folds over applications. With 30 (one per
    /// application) this is exactly the paper's LOOCV; the quick setting
    /// groups applications into fewer folds, which is still leakage-free.
    pub folds: usize,
    /// Base random seed.
    pub seed: u64,
    /// Worker count for the cross-validation training fan-out (one job per
    /// `(fold, power level)` pair in scenario 1, one per fold elsewhere).
    /// Training outputs are bit-identical for every value — the knob only
    /// changes wall-clock time. Resolved from `PNP_TRAIN_THREADS` by
    /// [`TrainSettings::from_env`]; defaults to one worker per core.
    pub train_threads: Threads,
}

impl TrainSettings {
    /// Fast settings for the single-core container (default).
    pub fn quick() -> Self {
        TrainSettings {
            hidden_dim: 16,
            rgcn_layers: 2,
            fc_hidden: 32,
            epochs: 14,
            batch_size: 16,
            folds: 5,
            seed: 0x5EED,
            train_threads: Threads::Auto,
        }
    }

    /// Paper-fidelity settings (Table II; LOOCV over all 30 applications).
    pub fn full() -> Self {
        TrainSettings {
            hidden_dim: 32,
            rgcn_layers: 4,
            fc_hidden: 64,
            epochs: 60,
            batch_size: 16,
            folds: 30,
            seed: 0x5EED,
            train_threads: Threads::Auto,
        }
    }

    /// `quick()` unless the environment variable `PNP_FULL=1` is set; the
    /// training worker count is resolved from `PNP_TRAIN_THREADS` (unset
    /// means one worker per core).
    pub fn from_env() -> Self {
        let mut settings = if std::env::var("PNP_FULL").map(|v| v == "1").unwrap_or(false) {
            Self::full()
        } else {
            Self::quick()
        };
        settings.train_threads = Threads::from_train_env();
        settings
    }

    /// The one model shape these settings train: their hidden width, RGCN
    /// depth and classifier width over the standard vocabulary and the three
    /// edge relations, without dropout, seeded with `seed ^ seed_offset`.
    pub fn model_config(
        &self,
        num_classes: usize,
        num_dynamic: usize,
        seed_offset: u64,
    ) -> ModelConfig {
        ModelConfig {
            vocab_size: Vocabulary::standard().len(),
            hidden_dim: self.hidden_dim,
            num_rgcn_layers: self.rgcn_layers,
            fc_hidden: self.fc_hidden,
            num_classes,
            num_relations: 3,
            num_dynamic_features: num_dynamic,
            dropout: 0.0,
            seed: self.seed ^ seed_offset,
        }
    }

    pub(crate) fn train_config(&self, optimizer: OptimizerKind, freeze_gnn: bool) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            learning_rate: 1e-3,
            batch_size: self.batch_size,
            optimizer,
            grad_clip: 5.0,
            freeze_gnn,
            seed: self.seed,
        }
    }
}

/// The cross-validation fold plan: each entry is the set of applications held
/// out (validated on) in that fold.
#[derive(Clone, Debug)]
pub struct FoldPlan {
    /// Held-out application groups, one per fold.
    pub held_out: Vec<Vec<String>>,
}

impl FoldPlan {
    /// Splits the applications into `folds` groups round-robin. With
    /// `folds >= apps.len()` this degenerates to exact LOOCV.
    ///
    /// An empty `apps` list yields an **empty plan** (no folds): there is
    /// nothing to hold out, so every training pipeline driven by the plan
    /// trains zero models and returns its all-zero prediction default.
    /// (Before PR 3 this case silently clamped to one empty fold, which the
    /// pipelines then had to skip as degenerate.)
    pub fn new(apps: &[String], folds: usize) -> Self {
        if apps.is_empty() {
            return FoldPlan {
                held_out: Vec::new(),
            };
        }
        let folds = folds.clamp(1, apps.len());
        let mut held_out = vec![Vec::new(); folds];
        for (i, app) in apps.iter().enumerate() {
            held_out[i % folds].push(app.clone());
        }
        FoldPlan { held_out }
    }

    /// Number of folds.
    pub fn len(&self) -> usize {
        self.held_out.len()
    }

    /// True when the plan has no folds.
    pub fn is_empty(&self) -> bool {
        self.held_out.is_empty()
    }
}

/// What one tune request, or one trained model, optimizes for — and the one
/// place that says what each objective means: its class count, its
/// training samples, its Table II optimizer, its class prior, and how a
/// class decodes to a [`ConfigPoint`]. The derived order — every `Time` by
/// power index, then `Edp` — is the order batches dispatch their objective
/// groups in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TuneObjective {
    /// Best execution time at power level `power_idx` of the machine's
    /// search space (scenario 1).
    Time {
        /// Index into `SearchSpace::power_levels`.
        power_idx: usize,
    },
    /// Best energy-delay product over the joint power × configuration space
    /// (scenario 2).
    Edp,
}

impl TuneObjective {
    /// The class count: OpenMP configurations per power level for time,
    /// joint (power × configuration) points for EDP.
    pub(crate) fn num_classes(&self, space: &SearchSpace) -> usize {
        match self {
            TuneObjective::Time { .. } => space.configs_per_power(),
            TuneObjective::Edp => space.num_tuned_points(),
        }
    }

    /// Table II: AdamW (amsgrad) for the time objective, plain Adam for EDP.
    pub(crate) fn optimizer(&self) -> OptimizerKind {
        match self {
            TuneObjective::Time { .. } => OptimizerKind::AdamWAmsgrad,
            TuneObjective::Edp => OptimizerKind::Adam,
        }
    }

    /// Region `i`'s counters for a dynamic model: its default run at the
    /// objective's power level — at TDP (the highest level) for EDP,
    /// matching "two profiling executions" in the paper — plus the
    /// normalized cap when `include_power`.
    fn counters(&self, ds: &Dataset, i: usize, include_power: bool) -> Vec<f32> {
        let power_idx = match *self {
            TuneObjective::Time { power_idx } => power_idx,
            TuneObjective::Edp => ds.space.power_levels.len() - 1,
        };
        ds.dynamic_features(i, power_idx, include_power)
    }

    /// Region `i`'s training sample: its graph labelled with its best class
    /// under this objective, plus its counters when `dynamic` is
    /// `Some(include_power)`.
    pub(crate) fn sample(&self, ds: &Dataset, i: usize, dynamic: Option<bool>) -> TrainingSample {
        let label = match *self {
            TuneObjective::Time { power_idx } => ds.sweeps[i].best_time_config(power_idx),
            TuneObjective::Edp => {
                let (p, c) = ds.sweeps[i].best_edp_point();
                ds.space.joint_index(p, c)
            }
        };
        TrainingSample {
            graph: ds.regions[i].graph.clone(),
            dynamic: dynamic.map(|include_power| self.counters(ds, i, include_power)),
            label,
            group: ds.regions[i].app.clone(),
        }
    }

    /// [`TuneObjective::sample`] for each of `regions`, in order.
    pub(crate) fn samples(
        &self,
        ds: &Dataset,
        regions: impl IntoIterator<Item = usize>,
        dynamic: Option<bool>,
    ) -> Vec<TrainingSample> {
        regions
            .into_iter()
            .map(|i| self.sample(ds, i, dynamic))
            .collect()
    }

    /// Per-class "prior quality" scores computed from the training sweeps:
    /// `score[c]` combines the geometric mean over training regions of
    /// `best / observed(c)` — time at the objective's power level, or EDP —
    /// with a [`RISK_WEIGHT`]-weighted worst-case term. Predictions blend
    /// the classifier's probabilities with this prior (`ln p + ln prior`),
    /// which keeps the tuner sensible when the model is uncertain — the GNN
    /// sharpens the choice where it has signal and the prior prevents
    /// catastrophic picks (e.g. a huge-chunk static schedule for a short
    /// loop) where it does not. The paper's models are trained far longer on
    /// real hardware; this blending compensates for the reduced training
    /// budget of the reproduction and is documented in DESIGN.md §11.
    pub(crate) fn class_prior(&self, ds: &Dataset, train_idx: &[usize]) -> Vec<f64> {
        let per = ds.space.configs_per_power();
        let sweeps: Vec<&Sweep> = train_idx.iter().map(|&i| &ds.sweeps[i]).collect();
        // A region's best is the same for every class, so it is found once
        // here: the EDP best alone scans the whole joint space.
        let best: Vec<f64> = sweeps
            .iter()
            .map(|sweep| match *self {
                TuneObjective::Time { power_idx } => sweep.best_time(power_idx),
                TuneObjective::Edp => sweep.best_edp(),
            })
            .collect();
        (0..self.num_classes(&ds.space))
            .map(|class| {
                let ratios: Vec<f64> = sweeps
                    .iter()
                    .zip(&best)
                    .map(|(sweep, &best)| match *self {
                        TuneObjective::Time { power_idx } => {
                            (best / sweep.samples[power_idx][class].time_s).max(1e-6)
                        }
                        TuneObjective::Edp => {
                            (best / sweep.samples[class / per][class % per].edp()).max(1e-9)
                        }
                    })
                    .collect();
                risk_adjusted_score(&ratios)
            })
            .collect()
    }

    /// The configuration point class `class` stands for: an OpenMP
    /// configuration at the objective's power level, or a joint point.
    pub(crate) fn decode(&self, space: &SearchSpace, class: usize) -> ConfigPoint {
        match *self {
            TuneObjective::Time { power_idx } => ConfigPoint {
                power_watts: space.power_levels[power_idx],
                omp: space.omp_config(class),
            },
            TuneObjective::Edp => space.decode_joint(class),
        }
    }
}

/// Weight of the worst-case (minimum over training regions) ratio inside the
/// class priors: a configuration that is catastrophic for even one training
/// region is strongly penalized, while uniformly-decent configurations are
/// unaffected.
pub(crate) const RISK_WEIGHT: f64 = 0.5;

/// Risk-adjusted prior score for one class from its per-training-region
/// `best / observed` ratios (each in `(0, 1]`): the geometric mean times the
/// worst case raised to [`RISK_WEIGHT`].
///
/// A pure geometric mean endorses configurations that are fine on average
/// but disastrous for a minority of regions — the paper-fidelity harness
/// caught held-out regions being handed a 512-element static chunk that
/// starves most threads on short loops (0.05–0.09x "speedups"). The
/// worst-case term vetoes such picks while leaving uniformly-decent
/// configurations untouched.
pub(crate) fn risk_adjusted_score(ratios: &[f64]) -> f64 {
    let mut log_sum = 0.0f64;
    let mut log_min = 0.0f64;
    for &r in ratios {
        let l = r.ln();
        log_sum += l;
        log_min = log_min.min(l);
    }
    let mean = log_sum / ratios.len().max(1) as f64;
    (mean + RISK_WEIGHT * log_min).exp()
}

/// The `ln p + ln prior` score of one class, the model's f32 probability
/// clamped before it widens to f64 — one formula for the argmax below and
/// [`crate::PnPTuner::predict_ranked`]'s ranking.
pub(crate) fn blend_score(p: f32, prior: f64) -> f64 {
    (p.max(1e-9) as f64).ln() + prior.max(1e-9).ln()
}

/// The [`blend_score`] argmax with strict `>` comparison. (A 2x prior
/// upweighting for the extrapolating unseen-power pipeline was measured and
/// rejected: it nudged the full-suite fig. 4 geomean up by ~2 % but clearly
/// hurt the reduced validation suite — one shared weight keeps the blend
/// predictable.)
fn prior_blend_argmax(probs: &[f32], prior: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (c, (&p, &q)) in probs.iter().zip(prior).enumerate() {
        let score = blend_score(p, q);
        if score > best_score {
            best_score = score;
            best = c;
        }
    }
    best
}

/// The prior-blended class of each graph through the fused block-diagonal
/// forward ([`pnp_gnn::GraphBatch`]), bit-identical to predicting each
/// graph alone (DESIGN.md §15) — so a whole validation fold or evaluation
/// set shares one read plan and one forward per model, whose first layer
/// multiplies each distinct `(token, kind)` row once for all its regions.
/// A single prediction is a batch of one.
///
/// # Panics
///
/// If the graphs cannot form a batch — a zero-node graph or an edge
/// outside its graph, as the single-graph forward does. A graph that
/// `build_region_graph` produced and `EncodedGraph::encode` encoded, as
/// every `Dataset` region is, never has either.
pub(crate) fn predict_with_prior_batch(
    model: &PnPModel,
    graphs: &[&pnp_graph::EncodedGraph],
    dynamic: Option<&[Vec<f32>]>,
    prior: &[f64],
) -> Vec<usize> {
    if graphs.is_empty() {
        return Vec::new();
    }
    let batch = pnp_gnn::GraphBatch::from_graphs(graphs)
        .expect("cannot run the model on these graphs: a graph has no nodes or a stray edge");
    model
        .predict_proba_batch(&batch, dynamic)
        .iter()
        .map(|probs| prior_blend_argmax(probs, prior))
        .collect()
}

/// Trains one static-feature model for `objective` on *every* region of
/// `ds` (no folds), seeded `settings.seed ^ seed_offset`. Three families
/// train this way, each under its own offset so their weights stay
/// disjoint from every LOOCV grid under the `grid-v1` seed scheme
/// (DESIGN.md §10): the deployment [`crate::PnPTuner`] (0), the
/// out-of-distribution models (`0x8000 + power_idx`) and the transfer
/// experiment's source model (`0x7000`).
pub(crate) fn train_on_all(
    ds: &Dataset,
    settings: &TrainSettings,
    objective: TuneObjective,
    seed_offset: u64,
) -> PnPModel {
    let config = settings.model_config(objective.num_classes(&ds.space), 0, seed_offset);
    let mut model = PnPModel::new(config);
    let samples = objective.samples(ds, 0..ds.len(), None);
    Trainer::new(settings.train_config(objective.optimizer(), false)).train(&mut model, &samples);
    model
}

/// One LOOCV model grid, and the one place that says what such a grid is
/// (DESIGN.md §10, §12): its artifact kind and key fields, the shape of its
/// per-job models, and the `grid-v1` seed offset of every job. The
/// `train_*_cached` pipelines train and replay through it, the store keys
/// it ([`DatasetCache::grid_key`]), the model registry reads it back from a
/// key ([`GridPipeline::from_key`]), and the serve path restores with it
/// ([`crate::serving::restore_grid`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridPipeline {
    /// `models/scenario1`: one model per `(fold, power)`.
    Scenario1 {
        /// Counter-features variant.
        dynamic: bool,
    },
    /// `models/scenario2`: one model per fold over the joint class space.
    Scenario2 {
        /// Counter-features variant.
        dynamic: bool,
    },
    /// `models/unseen_power`: one model per fold, trained without one cap.
    UnseenPower {
        /// The held-out power index.
        held_out_power: usize,
    },
}

/// The PAPI-style counters a dynamic model reads (`Dataset::dynamic_features`).
const COUNTERS: usize = 5;

impl GridPipeline {
    /// The artifact-kind prefix every model grid shares.
    pub(crate) const KIND_PREFIX: &'static str = "models/";

    /// The artifact kind the grid is stored under.
    pub fn kind(&self) -> &'static str {
        match self {
            GridPipeline::Scenario1 { .. } => "models/scenario1",
            GridPipeline::Scenario2 { .. } => "models/scenario2",
            GridPipeline::UnseenPower { .. } => "models/unseen_power",
        }
    }

    /// The pipeline name: `scenario1`, `scenario2` or `unseen_power`.
    pub fn name(&self) -> &'static str {
        self.kind().trim_start_matches(Self::KIND_PREFIX)
    }

    /// The grid's key without its hyperparameters: kind, training-dataset
    /// hash, and the variant field ([`DatasetCache::grid_key`] adds the
    /// rest).
    pub(crate) fn key(&self, dataset_sha256: &str) -> ArtifactKey {
        let key = ArtifactKey::new(self.kind()).field("dataset_sha256", dataset_sha256);
        match *self {
            GridPipeline::Scenario1 { dynamic } | GridPipeline::Scenario2 { dynamic } => {
                key.field("dynamic", dynamic)
            }
            GridPipeline::UnseenPower { held_out_power } => {
                key.field("held_out_power", held_out_power)
            }
        }
    }

    /// Reads the pipeline back from a grid key: `None` for any other kind,
    /// or when the variant field is missing or unparseable.
    pub fn from_key(key: &ArtifactKey) -> Option<GridPipeline> {
        let dynamic = || key.get("dynamic")?.parse().ok();
        Some(match key.kind() {
            "models/scenario1" => GridPipeline::Scenario1 {
                dynamic: dynamic()?,
            },
            "models/scenario2" => GridPipeline::Scenario2 {
                dynamic: dynamic()?,
            },
            "models/unseen_power" => GridPipeline::UnseenPower {
                held_out_power: key.get("held_out_power")?.parse().ok()?,
            },
            _ => return None,
        })
    }

    /// What job `(fold_idx, power_idx)`'s model predicts: time at the job's
    /// power level, EDP, or time at the held-out cap.
    pub(crate) fn objective(&self, (_, power_idx): (usize, usize)) -> TuneObjective {
        match *self {
            GridPipeline::Scenario1 { .. } => TuneObjective::Time { power_idx },
            GridPipeline::Scenario2 { .. } => TuneObjective::Edp,
            GridPipeline::UnseenPower { held_out_power } => TuneObjective::Time {
                power_idx: held_out_power,
            },
        }
    }

    /// Job `(fold_idx, power_idx)`'s model: its objective's class count and
    /// the grid's dynamic width (the counters, plus the normalized cap for
    /// the unseen-power grid), seeded `settings.seed ^ offset` from the
    /// job's grid coordinates — never from execution order (DESIGN.md §10).
    pub(crate) fn model_config(
        &self,
        ds: &Dataset,
        settings: &TrainSettings,
        at: (usize, usize),
    ) -> ModelConfig {
        let (fold_idx, power_idx) = at;
        let counters = |dynamic: bool| if dynamic { COUNTERS } else { 0 };
        let (num_dynamic, seed_offset) = match *self {
            GridPipeline::Scenario1 { dynamic } => (counters(dynamic), fold_idx * 16 + power_idx),
            GridPipeline::Scenario2 { dynamic } => (counters(dynamic), 0x2000 + fold_idx),
            GridPipeline::UnseenPower { held_out_power } => {
                (COUNTERS + 1, 0x4000 + fold_idx * 8 + held_out_power)
            }
        };
        let num_classes = self.objective(at).num_classes(&ds.space);
        settings.model_config(num_classes, num_dynamic, seed_offset as u64)
    }

    /// The fit check: builds job `at`'s model from its checkpoint, or says
    /// why it does not fit (tensor count, names or shapes — possible only
    /// when code drifted under an unchanged store schema). Warm replay
    /// retrains an unfit job; the serve path skips its grid.
    pub(crate) fn restore(
        &self,
        ds: &Dataset,
        settings: &TrainSettings,
        at: (usize, usize),
        checkpoint: &ParameterBundle,
    ) -> Result<PnPModel, String> {
        PnPModel::from_checkpoint(self.model_config(ds, settings, at), checkpoint).map_err(|fit| {
            format!(
                "{} checkpoint for job (fold {}, power {}) does not fit: \
                 {}/{} tensors restored, {} stored",
                self.name(),
                at.0,
                at.1,
                fit.restored,
                fit.expected,
                fit.stored
            )
        })
    }
}

/// One training job of a grid: its coordinates `(fold_idx, power_idx)`
/// (`power_idx` is 0 for the per-fold grids) and its fold's region split.
/// The index vectors are shared (`Arc`) across a fold's per-power jobs.
struct Job {
    at: (usize, usize),
    train_idx: Arc<Vec<usize>>,
    val_idx: Arc<Vec<usize>>,
}

/// A grid's job plan, in dispatch order. Degenerate folds (nothing to train
/// on or nothing to validate on) dispatch no job.
fn grid_jobs(ds: &Dataset, settings: &TrainSettings, pipeline: GridPipeline) -> Vec<Job> {
    let per_fold = match pipeline {
        GridPipeline::Scenario1 { .. } => ds.space.power_levels.len(),
        _ => 1,
    };
    FoldPlan::new(&ds.applications(), settings.folds)
        .held_out
        .iter()
        .enumerate()
        .flat_map(|(fold_idx, held_out)| {
            let (val_idx, train_idx): (Vec<usize>, Vec<usize>) =
                (0..ds.len()).partition(|&i| held_out.contains(&ds.regions[i].app));
            let split = (!train_idx.is_empty() && !val_idx.is_empty())
                .then(|| (Arc::new(train_idx), Arc::new(val_idx)));
            split.into_iter().flat_map(move |(train_idx, val_idx)| {
                (0..per_fold).map(move |power_idx| Job {
                    at: (fold_idx, power_idx),
                    train_idx: train_idx.clone(),
                    val_idx: val_idx.clone(),
                })
            })
        })
        .collect()
}

/// A cross-validated pipeline's trained checkpoints — the artifact the
/// content-addressed store persists for each `train_*` pipeline.
///
/// `jobs[i]` holds job `i`'s grid coordinates (`(fold_idx, power_idx)` for
/// scenario 1, `(fold_idx, 0)` for the per-fold pipelines) and `weights[i]`
/// its full checkpoint. On load, the coordinates are checked against the
/// current fold plan: a grid trained under a different plan is retrained,
/// not misapplied.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainedGrid {
    /// Grid coordinates per job, in dispatch order.
    pub jobs: Vec<(usize, usize)>,
    /// Full model checkpoint per job (every trainable parameter).
    pub weights: Vec<ParameterBundle>,
}

/// The job-grid choreography shared by every `train_*_cached` pipeline:
/// plans `pipeline`'s jobs and returns each with its held-out predictions,
/// in dispatch order. Every job's model is seeded by `pipeline` from its
/// grid coordinates, then trained in place by `train_job`. Without a cache
/// each job trains and predicts. With one, the [`TrainedGrid`] under
/// [`DatasetCache::grid_key`] is loaded (trained and saved on a miss) and
/// retrained-and-overwritten when it does not match the job plan; each job
/// then restores its checkpoint through the [`GridPipeline`] fit check,
/// retraining that job alone when it does not fit, and predicts.
fn replay_or_train(
    ds: &Dataset,
    settings: &TrainSettings,
    pipeline: GridPipeline,
    cache: Option<&DatasetCache>,
    train_job: &(impl Fn(&Job, &mut PnPModel) + Sync),
    predict_job: &(impl Fn(&Job, &PnPModel) -> Vec<usize> + Sync),
) -> Vec<(Job, Vec<usize>)> {
    let jobs = grid_jobs(ds, settings, pipeline);
    let threads = settings.train_threads;
    let train = |job: &Job| {
        let mut model = PnPModel::new(pipeline.model_config(ds, settings, job.at));
        train_job(job, &mut model);
        model
    };
    let predictions = match cache {
        None => parallel_map(&jobs, threads, |job| predict_job(job, &train(job))),
        Some(cache) => {
            let key = cache.grid_key(pipeline, settings);
            let coords: Vec<(usize, usize)> = jobs.iter().map(|job| job.at).collect();
            let train_grid = || TrainedGrid {
                jobs: coords.clone(),
                weights: parallel_map(&jobs, threads, |job| train(job).all_weights()),
            };
            let mut grid = cache.store().load_or_build(&key, train_grid);
            // Coordinates AND weight count must fit the current plan — a
            // grid from drifted code could match one but not the other, and
            // a short weight list would silently drop jobs from the replay.
            if grid.jobs != coords || grid.weights.len() != coords.len() {
                eprintln!(
                    "[pnp-store] cached {} grid does not match the current fold plan; \
                     retraining",
                    pipeline.name()
                );
                grid = train_grid();
                if let Err(e) = cache.store().save(&key, &grid) {
                    eprintln!("[pnp-store] could not overwrite stale grid: {e}");
                }
            }
            let replays: Vec<(&Job, &ParameterBundle)> = jobs.iter().zip(&grid.weights).collect();
            parallel_map(&replays, threads, |&(job, checkpoint)| {
                let model = pipeline
                    .restore(ds, settings, job.at, checkpoint)
                    .unwrap_or_else(|why| {
                        eprintln!("[pnp-store] {why}; retraining this job");
                        train(job)
                    });
                predict_job(job, &model)
            })
        }
    };
    jobs.into_iter().zip(predictions).collect()
}

/// Predicts a validation fold through one fused block-diagonal forward —
/// bit-identical to the per-region loop (DESIGN.md §15). `dynamic` is
/// `Some(include_power)` for a model that reads `objective`'s counters.
fn predict_fold(
    model: &PnPModel,
    ds: &Dataset,
    val_idx: &[usize],
    objective: TuneObjective,
    dynamic: Option<bool>,
    prior: &[f64],
) -> Vec<usize> {
    let graphs: Vec<&pnp_graph::EncodedGraph> =
        val_idx.iter().map(|&i| &ds.regions[i].graph).collect();
    let counters: Option<Vec<Vec<f32>>> = dynamic.map(|include_power| {
        val_idx
            .iter()
            .map(|&i| objective.counters(ds, i, include_power))
            .collect()
    });
    predict_with_prior_batch(model, &graphs, counters.as_deref(), prior)
}

/// The scenario grids' jobs: each learns its [`GridPipeline::objective`]
/// from its training regions (with their counters when `use_dynamic`) and
/// predicts its validation fold, blended with the objective's class prior
/// over the training regions.
fn scenario_grid(
    ds: &Dataset,
    settings: &TrainSettings,
    pipeline: GridPipeline,
    use_dynamic: bool,
    cache: Option<&DatasetCache>,
) -> Vec<(Job, Vec<usize>)> {
    let dynamic = use_dynamic.then_some(false);
    let train_job = |job: &Job, model: &mut PnPModel| {
        let objective = pipeline.objective(job.at);
        let samples = objective.samples(ds, job.train_idx.iter().copied(), dynamic);
        Trainer::new(settings.train_config(objective.optimizer(), false)).train(model, &samples);
    };
    let predict_job = |job: &Job, model: &PnPModel| {
        let objective = pipeline.objective(job.at);
        let prior = objective.class_prior(ds, &job.train_idx);
        predict_fold(model, ds, &job.val_idx, objective, dynamic, &prior)
    };
    replay_or_train(ds, settings, pipeline, cache, &train_job, &predict_job)
}

/// Scenario 1 (power-constrained tuning): trains one model per fold per power
/// level and returns `predictions[region][power]` = predicted OpenMP class.
///
/// `use_dynamic` adds the five PAPI-style counters (collected from the
/// default-configuration run at that power level) to the classifier input —
/// the paper's "PnP Tuner (Dynamic)" variant.
///
/// The `fold × power` grid of independent jobs fans out over
/// [`TrainSettings::train_threads`] workers; each job keeps its
/// [`GridPipeline`] seed and predictions are written back by
/// `(region, power)` index, so the output is bit-identical for every worker
/// count (DESIGN.md §10). With a cache (`None` trains every job), a warm
/// store loads and replays the grid of checkpoints instead of training,
/// producing bit-identical predictions (DESIGN.md §12).
pub fn train_scenario1_models_cached(
    ds: &Dataset,
    settings: &TrainSettings,
    use_dynamic: bool,
    cache: Option<&DatasetCache>,
) -> Vec<Vec<usize>> {
    let pipeline = GridPipeline::Scenario1 {
        dynamic: use_dynamic,
    };
    let mut predictions = vec![vec![0usize; ds.space.power_levels.len()]; ds.len()];
    for (job, preds) in scenario_grid(ds, settings, pipeline, use_dynamic, cache) {
        for (&i, class) in job.val_idx.iter().zip(preds) {
            predictions[i][job.at.1] = class;
        }
    }
    predictions
}

/// Scenario 2 (EDP tuning): trains one model per fold over the joint
/// (power × configuration) class space and returns `predictions[region]` =
/// predicted joint class. The dynamic variant reads the counters of the
/// default run at TDP.
///
/// Folds are independent jobs and fan out over
/// [`TrainSettings::train_threads`] workers with per-fold [`GridPipeline`]
/// seeds and indexed write-back — output is bit-identical for every worker
/// count (DESIGN.md §10). With a cache (`None` trains every job), a warm
/// store replays the per-fold checkpoints instead of training
/// (DESIGN.md §12).
pub fn train_scenario2_model_cached(
    ds: &Dataset,
    settings: &TrainSettings,
    use_dynamic: bool,
    cache: Option<&DatasetCache>,
) -> Vec<usize> {
    let pipeline = GridPipeline::Scenario2 {
        dynamic: use_dynamic,
    };
    let mut predictions = vec![0usize; ds.len()];
    for (job, preds) in scenario_grid(ds, settings, pipeline, use_dynamic, cache) {
        for (&i, class) in job.val_idx.iter().zip(preds) {
            predictions[i] = class;
        }
    }
    predictions
}

/// Unseen-power-constraint generalization (Figures 4/5): the model never sees
/// measurements at `held_out_power`; it is trained on the other power levels
/// with counters *and the normalized power cap* as dynamic features, then
/// asked to predict configurations for the held-out cap. Cross-validation
/// over applications is applied simultaneously, as in the paper.
///
/// Folds fan out over [`TrainSettings::train_threads`] workers exactly like
/// the scenario pipelines, with per-fold [`GridPipeline`] seeds that also
/// encode the held-out cap — output is bit-identical for every worker
/// count. With a cache (`None` trains every job), a warm store replays the
/// per-fold checkpoints instead of training (DESIGN.md §12).
pub fn train_unseen_power_cached(
    ds: &Dataset,
    settings: &TrainSettings,
    held_out_power: usize,
    cache: Option<&DatasetCache>,
) -> Vec<usize> {
    let pipeline = GridPipeline::UnseenPower { held_out_power };
    let held_out = TuneObjective::Time {
        power_idx: held_out_power,
    };
    let train_powers: Vec<usize> = (0..ds.space.power_levels.len())
        .filter(|&p| p != held_out_power)
        .collect();
    let train_job = |job: &Job, model: &mut PnPModel| {
        let samples: Vec<TrainingSample> = job
            .train_idx
            .iter()
            .flat_map(|&i| {
                train_powers.iter().map(move |&power_idx| {
                    TuneObjective::Time { power_idx }.sample(ds, i, Some(true))
                })
            })
            .collect();
        Trainer::new(settings.train_config(held_out.optimizer(), false)).train(model, &samples);
    };
    let predict_job = |job: &Job, model: &PnPModel| {
        // The prior for the unseen cap is a proximity-weighted average
        // over the caps observed during training (measurements at the
        // held-out cap are, by construction, unavailable). Inverse-
        // distance weights matter: a uniform average biases the prior
        // toward the behaviour of far-away caps — e.g. toward
        // few-thread configurations when TDP is held out — which the
        // `fig4.pnp_beats_default_at_unseen_caps` paper-fidelity
        // invariant caught as a sub-1.0 geomean speedup.
        let held_cap = ds.space.power_levels[held_out_power];
        let scale = ds.machine.tdp_watts.max(1e-9);
        let mut prior = vec![0.0f64; ds.space.configs_per_power()];
        let mut total_w = 0.0f64;
        for &power_idx in &train_powers {
            let dist = (ds.space.power_levels[power_idx] - held_cap).abs() / scale;
            let w = 1.0 / (dist + 0.05);
            total_w += w;
            let at_cap = TuneObjective::Time { power_idx }.class_prior(ds, &job.train_idx);
            for (q, v) in prior.iter_mut().zip(at_cap) {
                *q += w * v;
            }
        }
        for v in &mut prior {
            *v /= total_w.max(1e-9);
        }
        predict_fold(model, ds, &job.val_idx, held_out, Some(true), &prior)
    };
    let mut predictions = vec![0usize; ds.len()];
    for (job, preds) in replay_or_train(ds, settings, pipeline, cache, &train_job, &predict_job) {
        for (&i, class) in job.val_idx.iter().zip(preds) {
            predictions[i] = class;
        }
    }
    predictions
}

/// Outcome of the transfer-learning experiment (Section IV-B): training the
/// Skylake model from scratch vs. loading the Haswell-trained GNN weights and
/// re-training only the dense layers.
#[derive(Clone, Debug)]
pub struct TransferReport {
    /// Wall-clock seconds to train from scratch.
    pub scratch_seconds: f64,
    /// Wall-clock seconds with frozen, transferred GNN layers.
    pub transfer_seconds: f64,
    /// Training-set accuracy from scratch.
    pub scratch_accuracy: f32,
    /// Training-set accuracy with transfer.
    pub transfer_accuracy: f32,
}

impl TransferReport {
    /// The speed-up of the training process (paper reports ≈ 4.18×, i.e.
    /// ~76 % less training time).
    pub fn training_speedup(&self) -> f64 {
        self.scratch_seconds / self.transfer_seconds.max(1e-9)
    }
}

/// Runs the transfer-learning experiment: trains on the source dataset, saves
/// the GNN weights, then trains a target-machine model (a) from scratch and
/// (b) with the transferred GNN frozen, comparing wall-clock time and
/// accuracy.
pub fn transfer_experiment(
    source: &Dataset,
    target: &Dataset,
    settings: &TrainSettings,
    power_idx: usize,
) -> TransferReport {
    let objective = TuneObjective::Time { power_idx };
    let bundle = train_on_all(source, settings, objective, 0x7000).gnn_weights();
    let num_classes = objective.num_classes(&source.space);
    let target_samples = objective.samples(target, 0..target.len(), None);

    // From scratch on the target machine.
    let trainer = Trainer::new(settings.train_config(objective.optimizer(), false));
    let mut scratch_model = PnPModel::new(settings.model_config(num_classes, 0, 0x7100));
    // pnp-lint: allow(wall-clock) — the transfer experiment's deliverable IS wall-clock training time
    let t0 = Instant::now();
    let scratch_report = trainer.train(&mut scratch_model, &target_samples);
    let scratch_seconds = t0.elapsed().as_secs_f64();

    // Transfer: restore GNN weights, freeze them, and re-train only the
    // dense head — with the *full* epoch budget. The time saving comes from
    // the trainer's frozen-GNN fast path (graph layers run once per sample
    // instead of once per sample per epoch), matching the paper's mechanism:
    // comparable accuracy at ~76 % less training time. (An earlier revision
    // instead cut the epoch budget to a quarter, which faked the speedup and
    // collapsed the transfer accuracy to chance — caught by the
    // `transfer.accuracy` paper-fidelity invariant, DESIGN.md §11.)
    let mut transfer_model = PnPModel::new(settings.model_config(num_classes, 0, 0x7200));
    transfer_model.load_gnn_weights(&bundle);
    let frozen_trainer = Trainer::new(settings.train_config(objective.optimizer(), true));
    // pnp-lint: allow(wall-clock) — paired timing against the scratch run above
    let t1 = Instant::now();
    let transfer_report = frozen_trainer.train(&mut transfer_model, &target_samples);
    let transfer_seconds = t1.elapsed().as_secs_f64();

    TransferReport {
        scratch_seconds,
        transfer_seconds,
        scratch_accuracy: scratch_report.final_train_accuracy,
        transfer_accuracy: transfer_report.final_train_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_plan_partitions_applications() {
        let apps: Vec<String> = (0..7).map(|i| format!("app{i}")).collect();
        let plan = FoldPlan::new(&apps, 3);
        assert_eq!(plan.len(), 3);
        let total: usize = plan.held_out.iter().map(|g| g.len()).sum();
        assert_eq!(total, 7);
        // LOOCV degenerate case
        let loocv = FoldPlan::new(&apps, 100);
        assert_eq!(loocv.len(), 7);
        assert!(loocv.held_out.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn fold_plan_for_empty_dataset_is_empty() {
        // No applications means no folds — not one empty fold (which every
        // consumer would then have to special-case as untrainable).
        for folds in [0usize, 1, 5] {
            let plan = FoldPlan::new(&[], folds);
            assert!(plan.is_empty(), "folds={folds}");
            assert_eq!(plan.len(), 0, "folds={folds}");
        }
        // A zero-fold request over a non-empty list still clamps to 1.
        let apps = vec!["a".to_string()];
        assert_eq!(FoldPlan::new(&apps, 0).len(), 1);
    }

    #[test]
    fn risk_adjusted_prior_vetoes_catastrophic_minority_configs() {
        // Two hypothetical configs over four training regions: A is
        // uniformly decent, B is slightly better on average but disastrous
        // for one region. The risk-adjusted score must rank A above B,
        // where a pure geometric mean would rank B above A.
        let a = [0.8, 0.8, 0.8, 0.8];
        let b = [1.0, 1.0, 1.0, 0.5];
        assert!(
            crate::eval::geomean(&b) > crate::eval::geomean(&a),
            "the pure geomean should prefer B, or this test checks nothing"
        );
        assert!(
            risk_adjusted_score(&a) > risk_adjusted_score(&b),
            "A={} B={}",
            risk_adjusted_score(&a),
            risk_adjusted_score(&b)
        );
        // Uniform ratios: the worst case equals the mean, so the adjustment
        // only sharpens the score monotonically (ordering is preserved).
        assert!(risk_adjusted_score(&[1.0; 3]) >= risk_adjusted_score(&[0.9; 3]));
        // Degenerate empty input stays finite (no training regions).
        assert!(risk_adjusted_score(&[]).is_finite());
    }

    #[test]
    fn class_priors_match_a_per_class_reference_to_the_bit() {
        use pnp_benchmarks::builders::{matmul_kernel, small_boundary_kernel, streaming_kernel};
        use pnp_benchmarks::Application;
        let apps = vec![
            Application::new("a1", vec![matmul_kernel("a1_r0", 150, 150, 150)]),
            Application::new("a2", vec![streaming_kernel("a2_r0", 100_000, 2, 1.0)]),
            Application::new("a3", vec![small_boundary_kernel("a3_r0", 800, 2)]),
        ];
        let ds = Dataset::build(&pnp_machine::haswell(), &apps, &Vocabulary::standard());
        let per = ds.space.configs_per_power();
        // The reference finds each region's best inside the class loop.
        let reference = |objective: TuneObjective, train_idx: &[usize]| -> Vec<u64> {
            (0..objective.num_classes(&ds.space))
                .map(|class| {
                    let ratios: Vec<f64> = train_idx
                        .iter()
                        .map(|&i| {
                            let sweep = &ds.sweeps[i];
                            match objective {
                                TuneObjective::Time { power_idx } => (sweep.best_time(power_idx)
                                    / sweep.samples[power_idx][class].time_s)
                                    .max(1e-6),
                                TuneObjective::Edp => (sweep.best_edp()
                                    / sweep.samples[class / per][class % per].edp())
                                .max(1e-9),
                            }
                        })
                        .collect();
                    risk_adjusted_score(&ratios).to_bits()
                })
                .collect()
        };
        let objectives = (0..ds.space.power_levels.len())
            .map(|power_idx| TuneObjective::Time { power_idx })
            .chain([TuneObjective::Edp]);
        for objective in objectives {
            for train_idx in [vec![0, 1, 2], vec![2, 0]] {
                let prior: Vec<u64> = objective
                    .class_prior(&ds, &train_idx)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                assert_eq!(
                    prior,
                    reference(objective, &train_idx),
                    "{objective:?} over {train_idx:?}"
                );
            }
        }
    }

    #[test]
    fn quick_settings_are_smaller_than_full() {
        let q = TrainSettings::quick();
        let f = TrainSettings::full();
        assert!(q.epochs < f.epochs);
        assert!(q.hidden_dim <= f.hidden_dim);
        assert_eq!(f.rgcn_layers, 4);
        assert_eq!(f.folds, 30);
        assert_eq!(f.batch_size, 16);
    }
}
