//! The serve path: request/response wire types, sweep-derived serving
//! tables, checkpoint restoration for cached [`TrainedGrid`]s, and the
//! committee predictor — everything the `pnp-serve` daemon needs that must
//! live *next to the training pipelines* so served predictions are
//! bit-identical to offline ones (DESIGN.md §14). What a grid is — its
//! model shape, per-job seeds, and fit check — is not restated here:
//! [`restore_grid`] restores through the same [`GridPipeline`] the training
//! pipelines replay through.
//!
//! The split mirrors ARCHITECTURE.md §9: this module is the inference
//! engine (pure, deterministic, no I/O beyond what callers hand it); the
//! `pnp-serve` crate adds the registry-driven startup, the socket protocol,
//! and request batching around it. The offline path calls
//! [`TuneService::tune`]; the daemon calls [`TuneService::tune_batch`],
//! which fuses each objective group into one block-diagonal forward
//! ([`pnp_gnn::GraphBatch`], DESIGN.md §15) and is bit-identical to the
//! single path per request — so the bit-identity guarantee stays
//! structural: both paths share one committee and one prediction builder.

use crate::dataset::Dataset;
pub use crate::training::{GridPipeline, TuneObjective};
use crate::training::{TrainSettings, TrainedGrid};
use pnp_gnn::{BatchError, GraphBatch, PnPModel, Workspace};
use pnp_graph::{build_region_graph, EdgeFlow, EncodedGraph, Vocabulary};
use pnp_ir::{try_lower_kernel, RegionSource};
use pnp_tuners::{ConfigPoint, SearchSpace};
use serde::{Deserialize, Serialize};

/// The kernel a client wants tuned: either DSL source (the server lowers,
/// graphs, and encodes it — the zero-setup path) or a pre-encoded graph
/// (the client already ran the compiler side; the server only validates).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum KernelInput {
    /// Serialized region sources of one application; `region` names which
    /// one to tune.
    Source {
        /// Application name (module name in the lowered IR).
        app: String,
        /// All of the application's regions (helpers may be shared).
        regions: Vec<RegionSource>,
        /// The region to tune.
        region: String,
    },
    /// A pre-encoded code graph (validated against the server vocabulary).
    Graph(EncodedGraph),
}

/// One tune request, as carried by the wire protocol.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TuneRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Machine to tune for (a registry machine name, e.g. `"haswell"`).
    pub machine: String,
    /// Objective.
    pub objective: TuneObjective,
    /// The kernel.
    pub kernel: KernelInput,
    /// Per-request deadline in milliseconds, measured from the moment the
    /// daemon admits the request. `None` (or an absent field, which old
    /// clients send) means no deadline. A request whose deadline passes
    /// while it waits in the dispatcher queue is answered with a typed
    /// rejection instead of a stale prediction — the degradation contract
    /// (DESIGN.md §17).
    pub deadline_ms: Option<u64>,
}

/// A successful prediction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TunePrediction {
    /// Predicted class index (per-power OpenMP class for the time
    /// objective, joint class for EDP).
    pub class: usize,
    /// The concrete configuration point: power cap plus OpenMP config.
    pub point: ConfigPoint,
    /// Expected gain over the default configuration, from the training
    /// sweeps: geomean `default time / predicted time` at the request's
    /// power level (time objective) or geomean EDP improvement over
    /// default-at-TDP (EDP objective). A *population* expectation, not a
    /// per-kernel measurement — serving never executes anything.
    pub expected_gain: f64,
    /// Registry id of the model that produced the prediction.
    pub model: String,
}

/// One tune response. Exactly one of `prediction`/`error` is set; `error`
/// carries a human-readable reason (unknown machine, malformed kernel,
/// out-of-range power index, ...).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TuneResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The prediction, on success.
    pub prediction: Option<TunePrediction>,
    /// The failure reason, otherwise.
    pub error: Option<String>,
}

impl TuneResponse {
    /// A success response.
    pub fn ok(id: u64, prediction: TunePrediction) -> TuneResponse {
        TuneResponse {
            id,
            prediction: Some(prediction),
            error: None,
        }
    }

    /// An error response.
    pub fn err(id: u64, error: impl Into<String>) -> TuneResponse {
        TuneResponse {
            id,
            prediction: None,
            error: Some(error.into()),
        }
    }
}

/// Resolves a [`KernelInput`] to an encoded graph: lowers + graphs + encodes
/// the source form, or validates the pre-encoded form against `vocab`. Both
/// forms of the same kernel yield the same graph (tested below), so clients
/// can switch freely.
pub fn resolve_graph(kernel: &KernelInput, vocab: &Vocabulary) -> Result<EncodedGraph, String> {
    let graph = match kernel {
        KernelInput::Graph(graph) => {
            graph.validate(vocab.len())?;
            graph.clone()
        }
        KernelInput::Source {
            app,
            regions,
            region,
        } => {
            let module =
                try_lower_kernel(app, regions).map_err(|e| format!("lowering failed: {e:?}"))?;
            let graph = build_region_graph(&module, region)
                .ok_or_else(|| format!("region {region:?} not found in application {app:?}"))?;
            EncodedGraph::encode(&graph, vocab)
        }
    };
    // The model cannot pool an empty node set and its RGCN layers expect
    // exactly the standard relation arity; a pre-encoded graph violating
    // either must come back as an error, never a panic (the daemon feeds
    // this from client input).
    if graph.num_nodes() == 0 {
        return Err(format!("{}: kernel graph has no nodes", graph.name));
    }
    if graph.relations.len() != EdgeFlow::COUNT {
        return Err(format!(
            "{}: expected {} edge relations, got {}",
            graph.name,
            EdgeFlow::COUNT,
            graph.relations.len()
        ));
    }
    Ok(graph)
}

/// Sweep-derived tables computed once at startup: the all-regions class
/// priors (the deployment-path blend, exactly as [`crate::PnPTuner`] uses)
/// and the expected-gain tables reported alongside predictions.
#[derive(Clone, Debug)]
pub struct ServingTables {
    /// `time_priors[p][c]`: scenario-1 prior of OpenMP class `c` at power
    /// level `p`, computed over every region.
    pub time_priors: Vec<Vec<f64>>,
    /// Scenario-2 prior per joint class, computed over every region.
    pub edp_prior: Vec<f64>,
    /// `expected_speedup[p][c]`: geomean over regions of
    /// `default time / time(c)` at power level `p`.
    pub expected_speedup: Vec<Vec<f64>>,
    /// Expected EDP improvement over default-at-TDP per joint class.
    pub expected_edp_gain: Vec<f64>,
}

/// Computes the serving tables from a dataset's sweeps.
pub fn serving_tables(ds: &Dataset) -> ServingTables {
    let all_idx: Vec<usize> = (0..ds.len()).collect();
    let num_powers = ds.space.power_levels.len();
    let per = ds.space.configs_per_power();
    let tdp_idx = num_powers - 1;

    let time_priors: Vec<Vec<f64>> = (0..num_powers)
        .map(|power_idx| TuneObjective::Time { power_idx }.class_prior(ds, &all_idx))
        .collect();
    let edp_prior = TuneObjective::Edp.class_prior(ds, &all_idx);

    let expected_speedup: Vec<Vec<f64>> = (0..num_powers)
        .map(|p| {
            (0..per)
                .map(|c| {
                    let ratios: Vec<f64> = ds
                        .sweeps
                        .iter()
                        .map(|s| s.default_samples[p].time_s / s.samples[p][c].time_s)
                        .collect();
                    crate::eval::geomean(&ratios)
                })
                .collect()
        })
        .collect();
    let expected_edp_gain: Vec<f64> = (0..ds.space.num_tuned_points())
        .map(|class| {
            let (p, c) = (class / per, class % per);
            let ratios: Vec<f64> = ds
                .sweeps
                .iter()
                .map(|s| s.default_samples[tdp_idx].edp() / s.samples[p][c].edp())
                .collect();
            crate::eval::geomean(&ratios)
        })
        .collect();

    ServingTables {
        time_priors,
        edp_prior,
        expected_speedup,
        expected_edp_gain,
    }
}

/// A restored grid: `(grid coordinates, model)` per job, in grid order.
pub type RestoredGrid = Vec<((usize, usize), PnPModel)>;

/// Restores every checkpoint of a cached grid into a freshly seeded model of
/// the pipeline's shape, returning `(grid coordinates, model)` per job in
/// grid order. Errors (rather than silently misapplying weights) when a
/// checkpoint does not fit — the [`GridPipeline`] fit check, the "unfit
/// checkpoint" failure mode SERVING.md documents: the caller skips that
/// grid and keeps serving from the ones that load.
pub fn restore_grid(
    ds: &Dataset,
    settings: &TrainSettings,
    pipeline: GridPipeline,
    grid: &TrainedGrid,
) -> Result<RestoredGrid, String> {
    if grid.jobs.len() != grid.weights.len() {
        return Err(format!(
            "grid has {} job coordinates but {} checkpoints",
            grid.jobs.len(),
            grid.weights.len()
        ));
    }
    grid.jobs
        .iter()
        .zip(&grid.weights)
        .map(|(&at, checkpoint)| Ok((at, pipeline.restore(ds, settings, at, checkpoint)?)))
        .collect()
}

/// The committee's prior-blend argmax over summed fold probabilities:
/// `ln(mean proba) + ln(prior)` with strict `>` comparison.
fn blend_with_prior(sum: &[f64], n: f64, prior: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (c, (&s, &q)) in sum.iter().zip(prior).enumerate() {
        let score = (s / n).max(1e-9).ln() + q.max(1e-9).ln();
        if score > best_score {
            best_score = score;
            best = c;
        }
    }
    best
}

/// Committee prediction: one class per graph. Each class is the mean of the
/// fold models' probabilities (f64 accumulation in model order —
/// deterministic), blended with the class prior by `ln p + ln prior` argmax
/// like the offline pipelines' single-model blend (which clamps the f32
/// probability, where this clamps the f64 mean).
///
/// The batch is assembled once, with its [`pnp_gnn::ReadPlan`], and runs
/// through every fold model's fused [`PnPModel::predict_proba_with`]
/// forward, all over one [`Workspace`] whose node tables the call
/// allocates once and drops on return. Each model's first layer multiplies
/// one row per distinct `(token, kind)` pair of the batch, and each
/// relation's weights multiply only the rows its edges read; the sums read
/// each probability row in place. Per graph the accumulation order and the
/// argmax are those of the graph alone, so the class of a graph never
/// depends on what it was batched with (DESIGN.md §15).
pub fn committee_predict_batch(
    models: &[PnPModel],
    graphs: &[&EncodedGraph],
    prior: &[f64],
) -> Result<Vec<usize>, BatchError> {
    let batch = GraphBatch::from_graphs(graphs)?;
    let mut workspace = Workspace::new();
    let mut sums = vec![vec![0.0f64; prior.len()]; graphs.len()];
    for model in models {
        let probs = model.predict_proba_with(&batch, None, &mut workspace);
        for (r, sum) in sums.iter_mut().enumerate() {
            for (s, &p) in sum.iter_mut().zip(probs.row(r)) {
                *s += p as f64;
            }
        }
    }
    let n = models.len().max(1) as f64;
    Ok(sums
        .iter()
        .map(|sum| blend_with_prior(sum, n, prior))
        .collect())
}

/// One machine's ready-to-serve inference state: the static scenario-1 and
/// scenario-2 fold committees restored from their cached grids, the serving
/// tables, and the search space. This is the *single* prediction path —
/// the daemon shares one per machine across its batch workers and wraps it
/// in a socket; the bit-identity tests call it directly. Every method takes
/// `&self`, so concurrent callers need no lock.
pub struct TuneService {
    machine: String,
    space: SearchSpace,
    vocab: Vocabulary,
    tables: ServingTables,
    /// `time[p]` = scenario-1 fold committee for power level `p`.
    time: Vec<Vec<PnPModel>>,
    /// Scenario-2 fold committee over the joint class space.
    edp: Vec<PnPModel>,
    time_model_id: String,
    edp_model_id: String,
}

// The daemon shares one service per machine across its batch workers.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<TuneService>();
};

impl TuneService {
    /// Restores a service from the two static grids of one machine's
    /// dataset — [`restore_grid`] on each, then [`TuneService::assemble`].
    /// `time_model_id`/`edp_model_id` are the registry ids echoed in
    /// predictions.
    pub fn restore(
        ds: &Dataset,
        settings: &TrainSettings,
        scenario1: &TrainedGrid,
        scenario2: &TrainedGrid,
        time_model_id: impl Into<String>,
        edp_model_id: impl Into<String>,
    ) -> Result<TuneService, String> {
        let restore = |pipeline, grid| restore_grid(ds, settings, pipeline, grid);
        TuneService::assemble(
            ds,
            restore(GridPipeline::Scenario1 { dynamic: false }, scenario1)?,
            restore(GridPipeline::Scenario2 { dynamic: false }, scenario2)?,
            time_model_id,
            edp_model_id,
        )
    }

    /// Assembles a service from the restored static scenario-1 and
    /// scenario-2 grids of one machine's dataset: one committee per power
    /// level, one over the joint space. Refuses a scenario-1 grid that
    /// lacks a model for some power level (or names one out of range) and
    /// an empty scenario-2 grid.
    pub fn assemble(
        ds: &Dataset,
        scenario1: RestoredGrid,
        scenario2: RestoredGrid,
        time_model_id: impl Into<String>,
        edp_model_id: impl Into<String>,
    ) -> Result<TuneService, String> {
        let mut time: Vec<Vec<PnPModel>> =
            ds.space.power_levels.iter().map(|_| Vec::new()).collect();
        for ((_, power_idx), model) in scenario1 {
            time.get_mut(power_idx)
                .ok_or_else(|| format!("scenario1 job has power index {power_idx} out of range"))?
                .push(model);
        }
        if let Some(p) = time.iter().position(Vec::is_empty) {
            return Err(format!("scenario1 grid has no model for power level {p}"));
        }
        let edp: Vec<PnPModel> = scenario2.into_iter().map(|(_, m)| m).collect();
        if edp.is_empty() {
            return Err("scenario2 grid holds no models".into());
        }
        Ok(TuneService {
            machine: ds.machine.name.clone(),
            space: ds.space.clone(),
            vocab: Vocabulary::standard(),
            tables: serving_tables(ds),
            time,
            edp,
            time_model_id: time_model_id.into(),
            edp_model_id: edp_model_id.into(),
        })
    }

    /// The machine this service predicts for.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// The committee and class prior that answer `objective`. The power
    /// index must have passed [`TuneService::check_power_idx`].
    fn committee(&self, objective: TuneObjective) -> (&[PnPModel], &[f64]) {
        match objective {
            TuneObjective::Time { power_idx } => {
                (&self.time[power_idx], &self.tables.time_priors[power_idx])
            }
            TuneObjective::Edp => (&self.edp, &self.tables.edp_prior),
        }
    }

    /// Packages a predicted class: a per-power OpenMP class for the time
    /// objective, a joint class for EDP.
    fn prediction(&self, objective: TuneObjective, class: usize) -> TunePrediction {
        let (expected_gain, model) = match objective {
            TuneObjective::Time { power_idx } => (
                self.tables.expected_speedup[power_idx][class],
                &self.time_model_id,
            ),
            TuneObjective::Edp => (self.tables.expected_edp_gain[class], &self.edp_model_id),
        };
        TunePrediction {
            class,
            point: objective.decode(&self.space, class),
            expected_gain,
            model: model.clone(),
        }
    }

    fn check_power_idx(&self, power_idx: usize) -> Result<(), String> {
        if power_idx >= self.space.power_levels.len() {
            return Err(format!(
                "power_idx {power_idx} out of range ({} levels)",
                self.space.power_levels.len()
            ));
        }
        Ok(())
    }

    /// The full serve path for one request body: resolve the kernel to a
    /// graph, then predict — a batch of one through
    /// [`TuneService::tune_batch`].
    pub fn tune(
        &self,
        kernel: &KernelInput,
        objective: TuneObjective,
    ) -> Result<TunePrediction, String> {
        self.tune_batch(&[(kernel, objective)])
            .pop()
            .unwrap_or_else(|| Err("internal: batch answered nothing".into()))
    }

    /// The fused serve path for a batch of request bodies: every kernel is
    /// resolved, the valid requests are grouped by objective (time requests
    /// share a committee per power level, EDP requests share one), and each
    /// group runs through [`committee_predict_batch`] as a single
    /// block-diagonal forward per fold model.
    ///
    /// Results come back in request order and each is bit-identical to
    /// [`TuneService::tune`] on that request alone (DESIGN.md §15).
    /// Per-request failures — malformed kernels, out-of-range power
    /// indices — fill their own slot without failing the rest of the batch.
    pub fn tune_batch(
        &self,
        requests: &[(&KernelInput, TuneObjective)],
    ) -> Vec<Result<TunePrediction, String>> {
        let mut slots: Vec<Option<Result<TunePrediction, String>>> =
            (0..requests.len()).map(|_| None).collect();

        // Resolve every kernel up front; failures settle their slot now.
        let mut groups: std::collections::BTreeMap<TuneObjective, Vec<(usize, EncodedGraph)>> =
            std::collections::BTreeMap::new();
        for (i, (kernel, objective)) in requests.iter().enumerate() {
            let valid = match objective {
                TuneObjective::Time { power_idx } => self.check_power_idx(*power_idx),
                TuneObjective::Edp => Ok(()),
            };
            match valid.and_then(|()| resolve_graph(kernel, &self.vocab)) {
                Ok(graph) => groups.entry(*objective).or_default().push((i, graph)),
                Err(why) => slots[i] = Some(Err(why)),
            }
        }

        for (objective, members) in groups {
            let (indices, group): (Vec<usize>, Vec<&EncodedGraph>) =
                members.iter().map(|(i, graph)| (*i, graph)).unzip();
            let (committee, prior) = self.committee(objective);
            match committee_predict_batch(committee, &group, prior) {
                Ok(classes) => {
                    for (&i, class) in indices.iter().zip(classes) {
                        slots[i] = Some(Ok(self.prediction(objective, class)));
                    }
                }
                // Unreachable for graphs that passed `resolve_graph`, but a
                // batch-assembly failure must degrade to per-slot errors,
                // never a panic.
                Err(why) => {
                    for &i in &indices {
                        slots[i] = Some(Err(format!("batch assembly failed: {why}")));
                    }
                }
            }
        }

        // Every slot is settled above; if one ever were not, a typed error
        // beats a daemon-killing panic.
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| Err("internal: request slot left unsettled".into())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactStore;
    use crate::training::{train_scenario1_models_cached, train_scenario2_model_cached};
    use pnp_benchmarks::builders::{matmul_kernel, small_boundary_kernel, streaming_kernel};
    use pnp_benchmarks::Application;
    use pnp_machine::haswell;
    use pnp_openmp::Threads;

    fn tiny_apps() -> Vec<Application> {
        vec![
            Application::new("a1", vec![matmul_kernel("a1_r0", 120, 120, 120)]),
            Application::new("a2", vec![streaming_kernel("a2_r0", 80_000, 2, 1.0)]),
            Application::new("a3", vec![small_boundary_kernel("a3_r0", 700, 2)]),
        ]
    }

    fn tiny_settings() -> TrainSettings {
        TrainSettings {
            epochs: 4,
            hidden_dim: 8,
            rgcn_layers: 1,
            fc_hidden: 16,
            folds: 3,
            train_threads: Threads::Fixed(1),
            ..TrainSettings::quick()
        }
    }

    /// Builds a tiny dataset, trains both static grids through the cached
    /// pipelines into a temp store, and returns everything a service needs.
    fn trained_fixture(
        tag: &str,
    ) -> (
        Dataset,
        TrainSettings,
        TrainedGrid,
        TrainedGrid,
        ArtifactStore,
    ) {
        let dir =
            std::env::temp_dir().join(format!("pnp_serving_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir);
        let ds = Dataset::build_with_threads(
            &haswell(),
            &tiny_apps(),
            &Vocabulary::standard(),
            Threads::Fixed(1),
        );
        let settings = tiny_settings();
        let cache = store.for_dataset(&ds);
        train_scenario1_models_cached(&ds, &settings, false, Some(&cache));
        train_scenario2_model_cached(&ds, &settings, false, Some(&cache));
        let load = |pipeline| -> TrainedGrid {
            cache
                .store()
                .load(&cache.grid_key(pipeline, &settings))
                .expect("static grid cached")
        };
        let s1 = load(GridPipeline::Scenario1 { dynamic: false });
        let s2 = load(GridPipeline::Scenario2 { dynamic: false });
        (ds, settings, s1, s2, store)
    }

    #[test]
    fn serving_tables_are_shaped_and_positive() {
        let ds = Dataset::build_with_threads(
            &haswell(),
            &tiny_apps(),
            &Vocabulary::standard(),
            Threads::Fixed(1),
        );
        let tables = serving_tables(&ds);
        let num_powers = ds.space.power_levels.len();
        assert_eq!(tables.time_priors.len(), num_powers);
        assert_eq!(tables.expected_speedup.len(), num_powers);
        assert_eq!(tables.edp_prior.len(), ds.space.num_tuned_points());
        assert_eq!(tables.expected_edp_gain.len(), ds.space.num_tuned_points());
        for row in tables.time_priors.iter().chain(&tables.expected_speedup) {
            assert_eq!(row.len(), ds.space.configs_per_power());
            assert!(row.iter().all(|v| v.is_finite() && *v > 0.0));
        }
        assert!(tables.edp_prior.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn restored_service_predicts_deterministically_and_in_range() {
        let (ds, settings, s1, s2, store) = trained_fixture("restore");
        let service =
            TuneService::restore(&ds, &settings, &s1, &s2, "time-model", "edp-model").unwrap();
        assert_eq!(service.machine(), "haswell");
        let graph = &KernelInput::Graph(ds.regions[0].graph.clone());
        for p in 0..ds.space.power_levels.len() {
            let a = service
                .tune(graph, TuneObjective::Time { power_idx: p })
                .unwrap();
            let b = service
                .tune(graph, TuneObjective::Time { power_idx: p })
                .unwrap();
            assert_eq!(a, b, "prediction must be deterministic");
            assert!(a.class < ds.space.configs_per_power());
            assert_eq!(a.point.power_watts, ds.space.power_levels[p]);
            assert_eq!(a.model, "time-model");
            assert!(a.expected_gain.is_finite() && a.expected_gain > 0.0);
        }
        let e = service.tune(graph, TuneObjective::Edp).unwrap();
        assert!(e.class < ds.space.num_tuned_points());
        assert!(ds.space.power_levels.contains(&e.point.power_watts));
        assert_eq!(e.model, "edp-model");
        // Out-of-range power index is an error, not a panic.
        assert!(service
            .tune(graph, TuneObjective::Time { power_idx: 99 })
            .is_err());
        std::fs::remove_dir_all(store.store().root()).ok();
    }

    #[test]
    fn source_and_graph_inputs_agree() {
        let (ds, settings, s1, s2, store) = trained_fixture("source");
        let service =
            TuneService::restore(&ds, &settings, &s1, &s2, "time-model", "edp-model").unwrap();
        let apps = tiny_apps();
        let source = KernelInput::Source {
            app: apps[0].name.clone(),
            regions: apps[0].regions.iter().map(|r| r.source.clone()).collect(),
            region: "a1_r0".into(),
        };
        let graph = KernelInput::Graph(ds.regions[0].graph.clone());
        let objective = TuneObjective::Time { power_idx: 0 };
        assert_eq!(
            service.tune(&source, objective).unwrap(),
            service.tune(&graph, objective).unwrap(),
            "the source path must resolve to the same graph the dataset encoded"
        );
        // Unknown regions and invalid graphs are errors, not panics.
        let missing = KernelInput::Source {
            app: "a1".into(),
            regions: apps[0].regions.iter().map(|r| r.source.clone()).collect(),
            region: "nope".into(),
        };
        assert!(service.tune(&missing, objective).is_err());
        let mut bad = ds.regions[0].graph.clone();
        bad.tokens.push(usize::MAX);
        assert!(service.tune(&KernelInput::Graph(bad), objective).is_err());
        std::fs::remove_dir_all(store.store().root()).ok();
    }

    #[test]
    fn unfit_checkpoints_are_rejected_not_misapplied() {
        let (ds, settings, s1, _s2, store) = trained_fixture("unfit");
        // Empty bundle: wrong tensor count.
        let mut broken = s1.clone();
        broken.weights[0] = pnp_tensor::ParameterBundle::default();
        assert!(restore_grid(
            &ds,
            &settings,
            GridPipeline::Scenario1 { dynamic: false },
            &broken
        )
        .is_err());
        // Mismatched jobs/weights lengths.
        let mut truncated = s1.clone();
        truncated.weights.pop();
        assert!(restore_grid(
            &ds,
            &settings,
            GridPipeline::Scenario1 { dynamic: false },
            &truncated
        )
        .is_err());
        // A wider model shape (different hyperparameters) cannot absorb the
        // same checkpoints.
        let mut wider = settings.clone();
        wider.hidden_dim *= 2;
        assert!(
            restore_grid(&ds, &wider, GridPipeline::Scenario1 { dynamic: false }, &s1).is_err()
        );
        std::fs::remove_dir_all(store.store().root()).ok();
    }

    #[test]
    fn assembly_refuses_incomplete_grids() {
        let (ds, settings, s1, s2, store) = trained_fixture("assemble");
        let restore = |pipeline, grid| restore_grid(&ds, &settings, pipeline, grid).unwrap();
        let time = || restore(GridPipeline::Scenario1 { dynamic: false }, &s1);
        let edp = || restore(GridPipeline::Scenario2 { dynamic: false }, &s2);
        assert!(TuneService::assemble(&ds, time(), edp(), "t", "e").is_ok());

        // A scenario-1 grid missing every model of one power level.
        let mut gapped = time();
        gapped.retain(|&((_, power_idx), _)| power_idx != 1);
        let why = TuneService::assemble(&ds, gapped, edp(), "t", "e").err();
        assert_eq!(
            why.as_deref(),
            Some("scenario1 grid has no model for power level 1")
        );
        // A scenario-1 job naming a power level the space does not have.
        let mut stray = time();
        stray[0].0 .1 = 99;
        let why = TuneService::assemble(&ds, stray, edp(), "t", "e").err();
        assert_eq!(
            why.as_deref(),
            Some("scenario1 job has power index 99 out of range")
        );
        // An empty scenario-2 grid.
        let why = TuneService::assemble(&ds, time(), Vec::new(), "t", "e").err();
        assert_eq!(why.as_deref(), Some("scenario2 grid holds no models"));
        std::fs::remove_dir_all(store.store().root()).ok();
    }

    /// The committee class from the training-path forward of every fold
    /// model — per-graph layer code that shares no body with the fused
    /// inference forward. Served models are dropout-free
    /// (`TrainSettings::model_config`), so it must agree to the bit.
    fn training_path_committee(
        models: &mut [PnPModel],
        graph: &EncodedGraph,
        prior: &[f64],
    ) -> usize {
        let mut sum = vec![0.0f64; prior.len()];
        for model in models.iter_mut() {
            assert_eq!(model.config.dropout, 0.0, "served models are dropout-free");
            let probs = pnp_tensor::softmax_rows(&model.forward(graph, None, true));
            for (s, &p) in sum.iter_mut().zip(probs.row(0)) {
                *s += p as f64;
            }
        }
        blend_with_prior(&sum, models.len().max(1) as f64, prior)
    }

    #[test]
    fn batched_committee_matches_single_committee_exactly() {
        let (ds, settings, s1, s2, store) = trained_fixture("committee_batch");
        let mut service =
            TuneService::restore(&ds, &settings, &s1, &s2, "time-model", "edp-model").unwrap();
        let graphs: Vec<&EncodedGraph> = ds.regions.iter().map(|r| &r.graph).collect();
        let mut committees: Vec<(&mut Vec<PnPModel>, Vec<f64>)> = service
            .time
            .iter_mut()
            .zip(service.tables.time_priors.clone())
            .collect();
        committees.push((&mut service.edp, service.tables.edp_prior.clone()));
        for (k, (models, prior)) in committees.into_iter().enumerate() {
            let batched = committee_predict_batch(models, &graphs, &prior).unwrap();
            let alone: Vec<usize> = graphs
                .iter()
                .map(|g| committee_predict_batch(models, &[g], &prior).unwrap()[0])
                .collect();
            assert_eq!(batched, alone, "committee {k}: batch of one");
            let reference: Vec<usize> = graphs
                .iter()
                .map(|g| training_path_committee(models, g, &prior))
                .collect();
            assert_eq!(batched, reference, "committee {k}: training forward");
        }
        std::fs::remove_dir_all(store.store().root()).ok();
    }

    #[test]
    fn tune_batch_is_bit_identical_to_tune_and_isolates_failures() {
        let (ds, settings, s1, s2, store) = trained_fixture("tune_batch");
        let service =
            TuneService::restore(&ds, &settings, &s1, &s2, "time-model", "edp-model").unwrap();
        let num_powers = ds.space.power_levels.len();

        // A mixed batch: every region under every objective, interleaved
        // with malformed requests that must fail in place.
        let kernels: Vec<KernelInput> = ds
            .regions
            .iter()
            .map(|r| KernelInput::Graph(r.graph.clone()))
            .collect();
        let mut bad = ds.regions[0].graph.clone();
        bad.tokens.push(usize::MAX);
        let bad = KernelInput::Graph(bad);
        let hollow = KernelInput::Graph(EncodedGraph {
            name: "hollow".into(),
            tokens: vec![],
            kinds: vec![],
            relations: vec![vec![], vec![], vec![]],
        });

        let mut requests: Vec<(&KernelInput, TuneObjective)> = Vec::new();
        for (i, kernel) in kernels.iter().enumerate() {
            requests.push((
                kernel,
                TuneObjective::Time {
                    power_idx: i % num_powers,
                },
            ));
            requests.push((kernel, TuneObjective::Edp));
        }
        requests.push((&bad, TuneObjective::Edp));
        requests.push((&hollow, TuneObjective::Edp));
        requests.push((&kernels[0], TuneObjective::Time { power_idx: 99 }));

        let batched = service.tune_batch(&requests);
        assert_eq!(batched.len(), requests.len());
        for ((kernel, objective), result) in requests.iter().zip(&batched) {
            let single = service.tune(kernel, *objective);
            match (result, &single) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b, s);
                    assert_eq!(
                        b.expected_gain.to_bits(),
                        s.expected_gain.to_bits(),
                        "expected_gain must match to the bit"
                    );
                }
                (Err(b), Err(s)) => assert_eq!(b, s),
                (b, s) => panic!("batched {b:?} disagrees with single {s:?}"),
            }
        }
        // The malformed tail really did error.
        assert!(batched[batched.len() - 3].is_err(), "invalid token");
        assert!(batched[batched.len() - 2].is_err(), "empty graph");
        assert!(batched[batched.len() - 1].is_err(), "bad power index");
        std::fs::remove_dir_all(store.store().root()).ok();
    }

    #[test]
    fn empty_and_misshapen_kernels_are_errors_on_the_single_path_too() {
        let vocab = Vocabulary::standard();
        let hollow = KernelInput::Graph(EncodedGraph {
            name: "hollow".into(),
            tokens: vec![],
            kinds: vec![],
            relations: vec![vec![], vec![], vec![]],
        });
        assert!(resolve_graph(&hollow, &vocab)
            .unwrap_err()
            .contains("no nodes"));
        let two_rel = KernelInput::Graph(EncodedGraph {
            name: "two-rel".into(),
            tokens: vec![0],
            kinds: vec![0],
            relations: vec![vec![], vec![]],
        });
        assert!(resolve_graph(&two_rel, &vocab)
            .unwrap_err()
            .contains("edge relations"));
    }

    #[test]
    fn wire_types_round_trip_through_json() {
        let request = TuneRequest {
            id: 7,
            machine: "haswell".into(),
            objective: TuneObjective::Time { power_idx: 2 },
            kernel: KernelInput::Graph(EncodedGraph {
                name: "k".into(),
                tokens: vec![1, 2],
                kinds: vec![0, 1],
                relations: vec![vec![(0, 1)], vec![], vec![]],
            }),
            deadline_ms: Some(250),
        };
        let json = serde_json::to_string(&request).unwrap();
        let back: TuneRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.objective, request.objective);
        assert_eq!(back.deadline_ms, Some(250));
        // A frame from a client predating deadlines has no `deadline_ms`
        // field at all; it must parse as "no deadline", not an error.
        let legacy = json.replace(",\"deadline_ms\":250", "");
        assert_ne!(legacy, json, "the field was present to remove");
        let back: TuneRequest = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.deadline_ms, None);
        let response = TuneResponse::err(7, "unknown machine \"riscv\"");
        let json = serde_json::to_string(&response).unwrap();
        let back: TuneResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, 7);
        assert!(back.prediction.is_none());
        assert_eq!(back.error.as_deref(), Some("unknown machine \"riscv\""));
    }
}
