//! The serving engine: registry-driven startup, batched inference, and hot
//! model reload.
//!
//! At startup the engine walks the [`ModelRegistry`], loads every machine's
//! dataset once, reads and restores **every** model grid in the store once,
//! through the [`GridPipeline`] its key names (fit-checking each — an unfit
//! or corrupt checkpoint is skipped with a log line, never misapplied), and
//! assembles each machine's [`TuneService`] from the models its static
//! scenario-1/2 grids restored to. The registry reads through a plain
//! store, so build-only store modes cannot turn those reads into misses.
//! Requests are then served by [`ServeEngine::tune_batch`]: the batch is
//! grouped by machine and objective, and the groups fan out over the
//! in-tree `pnp_openmp` pool via `parallel_map`, each group running as one
//! fused block-diagonal forward ([`TuneService::tune_batch`], DESIGN.md
//! §15): one read plan for the whole group, and each layer multiplies
//! only the rows its edges read, the first over the group's distinct
//! `(token, kind)` rows. Inference takes `&self`, so every worker reads
//! the same shared service without a lock, and the fused forward is
//! bit-identical to the
//! single-graph one: the response vector is bit-identical for every worker
//! count and batch composition — and identical to the offline
//! [`TuneService::tune`] path (DESIGN.md §14).
//!
//! The registry and services are one atomically swappable snapshot behind
//! one `Arc`: [`ServeEngine::reload`] rebuilds it *off* the serving path
//! from a fresh registry and swaps the `Arc` in one write-lock critical
//! section, so in-flight batches finish on the snapshot they started with
//! and new batches see the new grids — no restart, no dropped request
//! (DESIGN.md §17). [`ServeEngine::spawn_reload_watcher`] automates this by
//! polling the store's index generation ([`pnp_store::StoreIndex`]).

use pnp_core::registry::ModelRegistry;
use pnp_core::serving::{
    restore_grid, GridPipeline, KernelInput, TuneObjective, TuneRequest, TuneResponse, TuneService,
};
use pnp_openmp::{parallel_map, Threads};
use pnp_store::{Store, StoreIndex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread;
use std::time::Duration;

use crate::protocol::{ServeStats, PROTOCOL_VERSION};

/// Startup knobs of the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Initial batch worker count; 0 means one per available core.
    /// Adjustable at runtime via the `SetWorkers` request.
    pub workers: usize,
}

/// What a cold start or a reload did — one line per grid, printed by the
/// daemon and asserted on by the integration tests.
#[derive(Clone, Debug, Default)]
pub struct StartupReport {
    /// Grids that restored cleanly (fit check passed).
    pub grids_loaded: usize,
    /// Grids skipped: unfit/corrupt checkpoints, unjoined datasets, or
    /// unparseable settings.
    pub grids_skipped: usize,
    /// Human-readable log, one line per grid and per machine.
    pub lines: Vec<String>,
}

impl StartupReport {
    fn log(&mut self, line: String) {
        eprintln!("[pnp-serve] {line}");
        self.lines.push(line);
    }
}

/// The swappable snapshot: everything that changes together on a reload.
/// Batches clone its `Arc` once at entry, so a swap mid-batch is invisible
/// to that batch (DESIGN.md §17).
struct Snapshot {
    registry: Arc<ModelRegistry>,
    /// One shared service per served machine.
    services: BTreeMap<String, TuneService>,
    generation: String,
}

impl Snapshot {
    fn machines(&self) -> Vec<String> {
        self.services.keys().cloned().collect()
    }
}

/// The daemon's shared state: the swappable registry + services snapshot,
/// plus the serving and degradation counters.
pub struct ServeEngine {
    live: RwLock<Arc<Snapshot>>,
    workers: AtomicUsize,
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch_seen: AtomicU64,
    fused_batches: AtomicU64,
    fused_graphs: AtomicU64,
    max_fused_batch: AtomicU64,
    shed_requests: AtomicU64,
    deadline_expired: AtomicU64,
    queue_depth: AtomicU64,
    reloads: AtomicU64,
    grids_loaded: AtomicUsize,
    grids_skipped: AtomicUsize,
}

/// Restores and fit-checks every grid in `registry`, then assembles one
/// service per machine — the shared body of cold start and reload. Each
/// grid is read and restored once: the fit check keeps the static pair's
/// restored models for the service.
fn build_services(
    registry: &ModelRegistry,
    report: &mut StartupReport,
) -> BTreeMap<String, TuneService> {
    let mut machines = BTreeMap::new();

    for dataset in registry.datasets() {
        let Some(ds) = registry.load_dataset(dataset) else {
            report.log(format!(
                "machine {}: dataset {} failed to load — skipping its grids",
                dataset.machine, dataset.address
            ));
            report.grids_skipped += registry
                .models()
                .iter()
                .filter(|m| m.dataset_sha256 == dataset.sha256)
                .count();
            continue;
        };
        // Fit-check every grid trained on this dataset, serveable or not:
        // a corrupt checkpoint must surface at startup, not at request
        // time.
        let (mut time, mut edp) = (None, None);
        for model in registry
            .models()
            .iter()
            .filter(|m| m.dataset_sha256 == dataset.sha256)
        {
            let outcome = model.settings().and_then(|settings| {
                let grid = registry
                    .load_grid(model)
                    .ok_or_else(|| "grid payload failed to load".to_string())?;
                restore_grid(&ds, &settings, model.grid, &grid)
            });
            match outcome {
                Ok(restored) => {
                    report.grids_loaded += 1;
                    let n = restored.len();
                    report.log(format!("loaded {} ({n} checkpoints)", model.id));
                    match model.grid {
                        GridPipeline::Scenario1 { dynamic: false } => {
                            time = Some((model, restored))
                        }
                        GridPipeline::Scenario2 { dynamic: false } => edp = Some((model, restored)),
                        _ => {}
                    }
                }
                Err(why) => {
                    report.grids_skipped += 1;
                    report.log(format!("SKIP {}: {why}", model.id));
                }
            }
        }

        if ds.is_empty() {
            report.log(format!(
                "machine {}: dataset is empty — nothing to serve",
                dataset.machine
            ));
            continue;
        }
        if machines.contains_key(&dataset.machine) {
            report.log(format!(
                "machine {}: already served by an earlier dataset — skipping {}",
                dataset.machine, dataset.address
            ));
            continue;
        }
        let (Some((s1, grid1)), Some((s2, grid2))) = (time, edp) else {
            report.log(format!(
                "machine {}: no loadable static scenario1+scenario2 pair — not serving",
                dataset.machine
            ));
            continue;
        };
        match TuneService::assemble(&ds, grid1, grid2, &s1.id, &s2.id) {
            Ok(service) => {
                report.log(format!(
                    "machine {}: serving (time={}, edp={})",
                    dataset.machine, s1.id, s2.id
                ));
                machines.insert(dataset.machine.clone(), service);
            }
            Err(why) => report.log(format!(
                "machine {}: service assembly failed: {why}",
                dataset.machine
            )),
        }
    }
    machines
}

impl ServeEngine {
    /// Cold start: restore every grid in the registry, then one service per
    /// machine. Serving zero machines is a valid (if useless) state — the
    /// daemon binary refuses it, the tests exercise it.
    pub fn start(registry: ModelRegistry, config: &EngineConfig) -> (ServeEngine, StartupReport) {
        let mut report = StartupReport::default();
        let services = build_services(&registry, &mut report);
        let generation = registry.generation().to_string();

        let engine = ServeEngine {
            live: RwLock::new(Arc::new(Snapshot {
                registry: Arc::new(registry),
                services,
                generation,
            })),
            workers: AtomicUsize::new(config.workers),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch_seen: AtomicU64::new(0),
            fused_batches: AtomicU64::new(0),
            fused_graphs: AtomicU64::new(0),
            max_fused_batch: AtomicU64::new(0),
            shed_requests: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            grids_loaded: AtomicUsize::new(report.grids_loaded),
            grids_skipped: AtomicUsize::new(report.grids_skipped),
        };
        (engine, report)
    }

    /// The current snapshot.
    fn live(&self) -> Arc<Snapshot> {
        self.live
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Machines with a ready service (in the current snapshot).
    pub fn machines(&self) -> Vec<String> {
        self.live().machines()
    }

    /// The registry behind the current snapshot (`List`/`Describe` answer
    /// from this; a reload swaps it together with the services).
    pub fn registry(&self) -> Arc<ModelRegistry> {
        self.live().registry.clone()
    }

    /// Generation stamp of the store index the current snapshot was built
    /// from.
    pub fn generation(&self) -> String {
        self.live().generation.clone()
    }

    /// Sets the batch worker count (0 = one per available core).
    pub fn set_workers(&self, workers: usize) {
        self.workers.store(workers, Ordering::Relaxed);
    }

    fn batch_threads(&self) -> Threads {
        match self.workers.load(Ordering::Relaxed) {
            0 => Threads::Auto,
            n => Threads::Fixed(n),
        }
    }

    /// Admission control (DESIGN.md §17): reserves a dispatcher-queue slot
    /// for one tune request. Returns `false` — and counts a shed — when the
    /// queue already holds `max_queue` requests; the caller must then
    /// answer with a typed `Overloaded` rejection instead of enqueueing.
    /// Every admitted request must be paired with one [`ServeEngine::departed`]
    /// call when it leaves the queue.
    pub fn admit(&self, max_queue: usize) -> bool {
        let prior = self.queue_depth.fetch_add(1, Ordering::SeqCst);
        if prior >= max_queue as u64 {
            self.queue_depth.fetch_sub(1, Ordering::SeqCst);
            self.shed_requests.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Releases the queue slot taken by [`ServeEngine::admit`] — called by
    /// the dispatcher as it dequeues, whatever it then decides to do with
    /// the request.
    pub fn departed(&self) {
        self.queue_depth.fetch_sub(1, Ordering::SeqCst);
    }

    /// Counts one request whose deadline budget ran out in the queue.
    pub fn note_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Serves one batch: requests are grouped by machine and objective, and
    /// the groups fan out over the worker pool — each group running as one
    /// fused block-diagonal forward on its machine's shared service
    /// ([`TuneService::tune_batch`], DESIGN.md §15). Responses come back in
    /// request order, bit-identical to serving each request alone. Unknown
    /// machines get error responses; nothing panics on client input. The
    /// snapshot is taken once at entry, so a concurrent reload never splits
    /// a batch across two model generations (DESIGN.md §17).
    pub fn tune_batch(&self, requests: &[TuneRequest]) -> Vec<TuneResponse> {
        self.tune_batch_on(&self.live(), requests)
    }

    /// [`ServeEngine::tune_batch`] on an explicit snapshot: every answer,
    /// error messages included, comes from `live` alone.
    fn tune_batch_on(&self, live: &Snapshot, requests: &[TuneRequest]) -> Vec<TuneResponse> {
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch_seen
            .fetch_max(requests.len() as u64, Ordering::Relaxed);

        // Group by (machine, objective): requests sharing a committee fuse
        // into one block-diagonal forward. BTreeMap order keeps dispatch
        // deterministic.
        let mut settled: BTreeMap<usize, TuneResponse> = BTreeMap::new();
        type Group<'a> = (&'a TuneService, Vec<(usize, &'a TuneRequest)>);
        let mut groups: BTreeMap<(&str, TuneObjective), Group<'_>> = BTreeMap::new();
        for (i, request) in requests.iter().enumerate() {
            let Some(service) = live.services.get(&request.machine) else {
                let message = format!(
                    "unknown machine {:?} (serving: {:?})",
                    request.machine,
                    live.machines().join(", ")
                );
                settled.insert(i, TuneResponse::err(request.id, message));
                continue;
            };
            groups
                .entry((request.machine.as_str(), request.objective))
                .or_insert_with(|| (service, Vec::new()))
                .1
                .push((i, request));
        }
        let groups: Vec<Group<'_>> = groups.into_values().collect();
        for (_, group) in &groups {
            self.fused_batches.fetch_add(1, Ordering::Relaxed);
            self.fused_graphs
                .fetch_add(group.len() as u64, Ordering::Relaxed);
            self.max_fused_batch
                .fetch_max(group.len() as u64, Ordering::Relaxed);
        }
        let group_results = parallel_map(&groups, self.batch_threads(), |(service, group)| {
            let bodies: Vec<(&KernelInput, TuneObjective)> = group
                .iter()
                .map(|(_, request)| (&request.kernel, request.objective))
                .collect();
            service.tune_batch(&bodies)
        });
        for ((_, group), results) in groups.iter().zip(group_results) {
            for ((i, request), result) in group.iter().zip(results) {
                settled.insert(
                    *i,
                    match result {
                        Ok(prediction) => TuneResponse::ok(request.id, prediction),
                        Err(why) => TuneResponse::err(request.id, why),
                    },
                );
            }
        }
        requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                settled.remove(&i).unwrap_or_else(|| {
                    TuneResponse::err(request.id, "internal: request slot left unsettled")
                })
            })
            .collect()
    }

    /// The single-request path — literally a one-element batch, so it
    /// cannot diverge from the batched path.
    pub fn tune(&self, request: &TuneRequest) -> TuneResponse {
        self.tune_batch(std::slice::from_ref(request))
            .into_iter()
            .next()
            .unwrap_or_else(|| TuneResponse::err(request.id, "internal: batch answered nothing"))
    }

    /// Hot model reload (DESIGN.md §17): restores and fit-checks every grid
    /// of `registry` *off* the serving path, then swaps the snapshot `Arc`
    /// (registry + services + generation) in one critical section. Batches
    /// already running keep the `Arc` they cloned at entry and finish
    /// undisturbed; the next batch serves the new grids.
    pub fn reload(&self, registry: ModelRegistry) -> StartupReport {
        let mut report = StartupReport::default();
        let services = build_services(&registry, &mut report);
        let generation = registry.generation().to_string();
        *self.live.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(Snapshot {
            registry: Arc::new(registry),
            services,
            generation,
        });
        self.grids_loaded
            .store(report.grids_loaded, Ordering::Relaxed);
        self.grids_skipped
            .store(report.grids_skipped, Ordering::Relaxed);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        report.log(format!(
            "hot reload #{}: {} grid(s) loaded, {} skipped",
            self.reloads.load(Ordering::Relaxed),
            report.grids_loaded,
            report.grids_skipped
        ));
        report
    }

    /// One watcher tick: reopens the store, loads (or rebuilds) its index,
    /// and hot-reloads when the generation stamp moved. Returns whether a
    /// reload happened. Cheap when nothing changed — one small JSON read
    /// plus a file-name walk, no artifact payload is touched.
    pub fn reload_if_stale(&self) -> bool {
        let store = Store::open(self.live().registry.store().root());
        let index = StoreIndex::load_or_rebuild(&store);
        if index.generation() == self.generation() {
            return false;
        }
        self.reload(ModelRegistry::from_index(store, &index));
        true
    }

    /// Spawns the registry watcher: every `poll`, check the store's index
    /// generation and hot-reload on change, until `stop` is set. The daemon
    /// binary runs this for the life of the process; tests drive
    /// [`ServeEngine::reload_if_stale`] directly when they want determinism.
    pub fn spawn_reload_watcher(
        self: &Arc<ServeEngine>,
        poll: Duration,
        stop: Arc<AtomicBool>,
    ) -> thread::JoinHandle<()> {
        let engine = Arc::clone(self);
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                thread::sleep(poll);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                engine.reload_if_stale();
            }
        })
    }

    /// Serving counters since startup.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch_seen: self.max_batch_seen.load(Ordering::Relaxed),
            fused_batches: self.fused_batches.load(Ordering::Relaxed),
            fused_graphs: self.fused_graphs.load(Ordering::Relaxed),
            max_fused_batch: self.max_fused_batch.load(Ordering::Relaxed),
            machines: self.machines(),
            grids_loaded: self.grids_loaded.load(Ordering::Relaxed),
            grids_skipped: self.grids_skipped.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::SeqCst),
            reloads: self.reloads.load(Ordering::Relaxed),
            protocol: PROTOCOL_VERSION,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnp_benchmarks::builders::{matmul_kernel, small_boundary_kernel, streaming_kernel};
    use pnp_benchmarks::Application;
    use pnp_core::artifact::ArtifactStore;
    use pnp_core::training::{
        train_scenario1_models_cached, train_scenario2_model_cached, TrainSettings,
    };
    use pnp_graph::Vocabulary;

    /// A store holding both static haswell grids, trained at toy size.
    fn trained_store(dir: &std::path::Path) -> pnp_core::Dataset {
        let _ = std::fs::remove_dir_all(dir);
        let store = ArtifactStore::open(dir);
        let apps = vec![
            Application::new("a1", vec![matmul_kernel("a1_r0", 120, 120, 120)]),
            Application::new("a2", vec![streaming_kernel("a2_r0", 80_000, 2, 1.0)]),
            Application::new("a3", vec![small_boundary_kernel("a3_r0", 700, 2)]),
        ];
        let settings = TrainSettings {
            epochs: 2,
            hidden_dim: 8,
            rgcn_layers: 1,
            fc_hidden: 16,
            folds: 3,
            train_threads: Threads::Fixed(1),
            ..TrainSettings::quick()
        };
        let ds = store.load_or_build_dataset(
            &pnp_machine::haswell(),
            &apps,
            &Vocabulary::standard(),
            Threads::Fixed(1),
        );
        let cache = store.for_dataset(&ds);
        train_scenario1_models_cached(&ds, &settings, false, Some(&cache));
        train_scenario2_model_cached(&ds, &settings, false, Some(&cache));
        ds
    }

    #[test]
    fn unknown_machine_errors_come_from_the_batch_snapshot() {
        let tmp = std::env::temp_dir();
        let trained = tmp.join(format!("pnp_engine_unknown_{}", std::process::id()));
        let empty = tmp.join(format!("pnp_engine_empty_{}", std::process::id()));
        let ds = trained_store(&trained);
        let _ = std::fs::remove_dir_all(&empty);
        std::fs::create_dir_all(&empty).expect("mkdir empty store");

        let (engine, _) = ServeEngine::start(
            ModelRegistry::open(Store::open(&trained)),
            &EngineConfig { workers: 1 },
        );
        assert_eq!(engine.machines(), vec!["haswell".to_string()]);
        let request = |id: u64, machine: &str| TuneRequest {
            id,
            machine: machine.into(),
            objective: TuneObjective::Edp,
            kernel: KernelInput::Graph(ds.regions[0].graph.clone()),
            deadline_ms: None,
        };
        let batch = [request(1, "riscv"), request(2, "haswell")];

        // A batch admitted on the haswell generation, then a reload onto a
        // store that serves nothing before the batch answers.
        let admitted = engine.live();
        engine.reload(ModelRegistry::open(Store::open(&empty)));
        assert!(engine.machines().is_empty());
        let answers = engine.tune_batch_on(&admitted, &batch);
        assert_eq!(
            answers[0].error.as_deref(),
            Some(r#"unknown machine "riscv" (serving: "haswell")"#),
            "the error must list the generation the batch was admitted on"
        );
        assert!(answers[1].prediction.is_some(), "{:?}", answers[1].error);

        // A batch admitted after the reload sees only the new generation.
        let answers = engine.tune_batch(&batch);
        for answer in &answers {
            let machine = if answer.id == 1 { "riscv" } else { "haswell" };
            assert_eq!(
                answer.error.as_deref(),
                Some(format!(r#"unknown machine "{machine}" (serving: "")"#).as_str())
            );
        }
        let _ = std::fs::remove_dir_all(&trained);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn cold_start_reads_each_grid_once() {
        let dir = std::env::temp_dir().join(format!("pnp_engine_reads_{}", std::process::id()));
        trained_store(&dir);
        let (engine, report) = ServeEngine::start(
            ModelRegistry::open(Store::open(&dir)),
            &EngineConfig { workers: 1 },
        );
        assert_eq!(engine.machines(), vec!["haswell".to_string()]);
        assert_eq!(report.grids_loaded, 2);
        // One dataset read plus one read per grid: the fit check hands the
        // static pair's grids on to the service restore.
        let stats = engine.registry().store().stats();
        assert_eq!((stats.hits, stats.misses), (3, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_only_store_modes_cannot_blank_the_daemon() {
        let dir = std::env::temp_dir().join(format!("pnp_engine_modes_{}", std::process::id()));
        trained_store(&dir);
        let forced = || Store::open(&dir).with_force_rebuild(true).with_verify(true);
        let registry = ModelRegistry::open(forced());
        assert!(!registry.store().force_rebuild() && !registry.store().verify());
        assert_eq!(registry.models().len(), 2);
        for model in registry.models() {
            assert!(registry.load_grid(model).is_some(), "{}", model.id);
        }
        let (engine, report) = ServeEngine::start(registry, &EngineConfig { workers: 1 });
        assert_eq!(engine.machines(), vec!["haswell".to_string()]);
        assert_eq!((report.grids_loaded, report.grids_skipped), (2, 0));
        // `from_index` is the hot-reload path: it reads plain too.
        let (engine, _) = ServeEngine::start(
            ModelRegistry::from_index(forced(), &StoreIndex::load_or_rebuild(&forced())),
            &EngineConfig { workers: 1 },
        );
        assert_eq!(engine.machines(), vec!["haswell".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
