//! The model registry: a typed view over the store index mapping
//! `machine × suite × hyperparameters → TrainedGrid`, with O(1) lookup and
//! `list`/`describe` APIs instead of directory walks.
//!
//! The registry holds no state of its own — it is assembled entirely from
//! the persisted [`StoreIndex`] (artifact headers only, no payload reads).
//! The join that makes it work: a model key embeds the SHA-256 of its
//! training dataset's serialization (`dataset_sha256`), and for a *stored*
//! dataset that hash is exactly the artifact header's `payload_sha256` — so
//! models connect to their dataset (and through it to the machine and
//! suite) via the index alone. Which grid a key names, and the settings it
//! was trained under, are read back by [`GridPipeline::from_key`] and
//! [`settings_from_key`] — the inverses of the key the training pipelines
//! write. DESIGN.md §14 documents this key contract.

use crate::artifact::settings_from_key;
use crate::dataset::Dataset;
use crate::training::{GridPipeline, TrainSettings, TrainedGrid};
use pnp_store::{ArtifactKey, IndexEntry, Store, StoreIndex};
use serde::{Deserialize, Serialize};

/// One stored dataset, as seen through the index.
#[derive(Clone, Debug)]
pub struct DatasetDescriptor {
    /// Machine name (the `machine` key field).
    pub machine: String,
    /// Number of applications in the suite.
    pub apps: usize,
    /// The dataset's content hash — what model keys embed.
    pub sha256: String,
    /// Content address of the artifact (for `describe` output).
    pub address: String,
    /// Payload size in bytes.
    pub payload_len: usize,
    key: ArtifactKey,
}

/// One stored model grid, joined to its dataset.
#[derive(Clone, Debug)]
pub struct ModelDescriptor {
    /// Stable registry id, e.g. `haswell/scenario1/static@1a2b3c4d5e6f`.
    pub id: String,
    /// Pipeline (`scenario1`, `scenario2`, or `unseen_power`).
    pub pipeline: String,
    /// Machine name from the joined dataset, or `None` when the training
    /// dataset is not (or no longer) in this store.
    pub machine: Option<String>,
    /// Counter-features variant.
    pub dynamic: bool,
    /// Held-out power index (`models/unseen_power` only).
    pub held_out_power: Option<usize>,
    /// The grid the key names (`pipeline`, `dynamic` and `held_out_power`
    /// are its fields, spelled out for listing).
    pub grid: GridPipeline,
    /// The `dataset_sha256` key field.
    pub dataset_sha256: String,
    /// Content address of the grid artifact.
    pub address: String,
    /// Payload size in bytes.
    pub payload_len: usize,
    key: ArtifactKey,
}

/// Wire-friendly summary of one registry model (the daemon's `List`
/// response).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelSummary {
    /// Registry id.
    pub id: String,
    /// Pipeline name.
    pub pipeline: String,
    /// Machine name, or `"unjoined"` when the dataset is absent.
    pub machine: String,
    /// Counter-features variant.
    pub dynamic: bool,
    /// Held-out power index, for `unseen_power` grids.
    pub held_out_power: Option<usize>,
    /// Artifact address.
    pub address: String,
    /// Payload size in bytes.
    pub payload_len: usize,
}

impl ModelDescriptor {
    /// The full artifact key.
    pub fn key(&self) -> &ArtifactKey {
        &self.key
    }

    /// Reconstructs the [`TrainSettings`] the grid was trained under from
    /// the key's hyperparameter fields ([`settings_from_key`]). Errors on a
    /// foreign seed scheme or a missing/unparseable field — a grid whose
    /// settings cannot be recovered cannot be restored into correctly
    /// shaped models.
    pub fn settings(&self) -> Result<TrainSettings, String> {
        settings_from_key(&self.key).map_err(|why| format!("grid {} {why}", self.id))
    }

    /// The wire summary.
    pub fn summary(&self) -> ModelSummary {
        ModelSummary {
            id: self.id.clone(),
            pipeline: self.pipeline.clone(),
            machine: self.machine.clone().unwrap_or_else(|| "unjoined".into()),
            dynamic: self.dynamic,
            held_out_power: self.held_out_power,
            address: self.address.clone(),
            payload_len: self.payload_len,
        }
    }
}

/// The registry: every dataset and model grid in one store, joined.
pub struct ModelRegistry {
    store: Store,
    generation: String,
    datasets: Vec<DatasetDescriptor>,
    models: Vec<ModelDescriptor>,
}

impl ModelRegistry {
    /// Opens the registry over a store: loads (or rebuilds) the persisted
    /// index, then joins model entries to dataset entries. O(index size) —
    /// no artifact payload is read.
    pub fn open(store: Store) -> ModelRegistry {
        let index = StoreIndex::load_or_rebuild(&store);
        ModelRegistry::from_index(store, &index)
    }

    /// [`ModelRegistry::open`] from an already-loaded index. The registry
    /// reads through a plain store on `store`'s root: the build-only modes
    /// (force-rebuild, verify) would turn every load into a miss, and a
    /// server has nothing to rebuild from.
    pub fn from_index(store: Store, index: &StoreIndex) -> ModelRegistry {
        let skip = |entry: &IndexEntry, why: &str| {
            eprintln!(
                "[pnp-serve] registry skips {} {} (unparseable key: {why})",
                entry.kind, entry.address
            );
        };
        let parse = |entry: &IndexEntry| {
            ArtifactKey::parse(&entry.key)
                .map_err(|why| skip(entry, &why))
                .ok()
        };
        let datasets: Vec<DatasetDescriptor> = index
            .of_kind("dataset")
            .filter_map(|entry| {
                let key = parse(entry)?;
                Some(DatasetDescriptor {
                    machine: key.get("machine").unwrap_or("unknown").to_string(),
                    apps: key.get("apps").and_then(|v| v.parse().ok()).unwrap_or(0),
                    sha256: entry.payload_sha256.clone(),
                    address: entry.address.clone(),
                    payload_len: entry.payload_len,
                    key,
                })
            })
            .collect();
        let models = index
            .entries()
            .iter()
            .filter(|entry| entry.kind.starts_with(GridPipeline::KIND_PREFIX))
            .filter_map(|entry| {
                let key = parse(entry)?;
                let Some(grid) = GridPipeline::from_key(&key) else {
                    skip(entry, "no readable grid variant");
                    return None;
                };
                let dataset_sha256 = key.get("dataset_sha256").unwrap_or_default().to_string();
                let machine = datasets
                    .iter()
                    .find(|d| d.sha256 == dataset_sha256)
                    .map(|d| d.machine.clone());
                let (dynamic, held_out_power, variant) = match grid {
                    GridPipeline::Scenario1 { dynamic } | GridPipeline::Scenario2 { dynamic } => {
                        let variant = if dynamic { "dynamic" } else { "static" };
                        (dynamic, None, variant.to_string())
                    }
                    GridPipeline::UnseenPower { held_out_power } => {
                        (false, Some(held_out_power), format!("cap{held_out_power}"))
                    }
                };
                let id = format!(
                    "{}/{}/{variant}@{}",
                    machine.as_deref().unwrap_or("unjoined"),
                    grid.name(),
                    entry.address.get(..12).unwrap_or(&entry.address)
                );
                Some(ModelDescriptor {
                    id,
                    pipeline: grid.name().to_string(),
                    machine,
                    dynamic,
                    held_out_power,
                    grid,
                    dataset_sha256,
                    address: entry.address.clone(),
                    payload_len: entry.payload_len,
                    key,
                })
            })
            .collect();
        ModelRegistry {
            store: Store::open(store.root()),
            generation: index.generation().to_string(),
            datasets,
            models,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Generation stamp of the store index this registry was assembled
    /// from ([`StoreIndex::generation`]). The serve daemon's reload watcher
    /// compares this against the store's current generation to decide when
    /// a hot reload is due.
    pub fn generation(&self) -> &str {
        &self.generation
    }

    /// All stored datasets, in index (kind, address) order.
    pub fn datasets(&self) -> &[DatasetDescriptor] {
        &self.datasets
    }

    /// All stored model grids, grouped by pipeline then address order.
    pub fn models(&self) -> &[ModelDescriptor] {
        &self.models
    }

    /// One model by registry id.
    pub fn get(&self, id: &str) -> Option<&ModelDescriptor> {
        self.models.iter().find(|m| m.id == id)
    }

    /// The dataset a model was trained on, when it is in this store.
    pub fn dataset_of(&self, model: &ModelDescriptor) -> Option<&DatasetDescriptor> {
        self.datasets
            .iter()
            .find(|d| d.sha256 == model.dataset_sha256)
    }

    /// Loads a dataset payload. `None` on a (corrupt-file) miss.
    pub fn load_dataset(&self, dataset: &DatasetDescriptor) -> Option<Dataset> {
        self.store.load(&dataset.key)
    }

    /// Loads a model grid payload. `None` on a (corrupt-file) miss.
    pub fn load_grid(&self, model: &ModelDescriptor) -> Option<TrainedGrid> {
        self.store.load(&model.key)
    }

    /// Human-readable description of one model: identity, provenance, and
    /// every hyperparameter from the key — the daemon's `Describe` answer.
    pub fn describe(&self, id: &str) -> Option<String> {
        let model = self.get(id)?;
        let mut out = format!(
            "{}\n  pipeline: {}\n  machine: {}\n  dynamic: {}\n",
            model.id,
            model.pipeline,
            model.machine.as_deref().unwrap_or("unjoined"),
            model.dynamic,
        );
        if let Some(cap) = model.held_out_power {
            out.push_str(&format!("  held_out_power: {cap}\n"));
        }
        out.push_str(&format!(
            "  artifact: {} ({} bytes)\n",
            model.address, model.payload_len
        ));
        match self.dataset_of(model) {
            Some(ds) => out.push_str(&format!(
                "  dataset: {} ({} apps, {} bytes, sha256 {})\n",
                ds.address, ds.apps, ds.payload_len, ds.sha256
            )),
            None => out.push_str(&format!(
                "  dataset: NOT IN STORE (sha256 {})\n",
                model.dataset_sha256
            )),
        }
        for (name, value) in model.key.fields() {
            if name != "dataset_sha256" {
                out.push_str(&format!("  {name}: {value}\n"));
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactStore;
    use pnp_graph::Vocabulary;
    use pnp_machine::haswell;
    use pnp_openmp::Threads;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pnp_registry_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// An empty-suite dataset is enough to exercise keys and joins without
    /// training anything.
    fn seed_store(dir: &std::path::Path) -> (Dataset, TrainSettings) {
        let store = ArtifactStore::open(dir);
        let ds = store.load_or_build_dataset(
            &haswell(),
            &[],
            &Vocabulary::standard(),
            Threads::Fixed(1),
        );
        let settings = TrainSettings::quick();
        let cache = store.for_dataset(&ds);
        let grid = TrainedGrid {
            jobs: vec![(0, 0)],
            weights: vec![pnp_tensor::ParameterBundle::default()],
        };
        for pipeline in [
            GridPipeline::Scenario1 { dynamic: false },
            GridPipeline::Scenario1 { dynamic: true },
            GridPipeline::UnseenPower { held_out_power: 3 },
        ] {
            store
                .store()
                .save(&cache.grid_key(pipeline, &settings), &grid)
                .unwrap();
        }
        (ds, settings)
    }

    #[test]
    fn registry_joins_models_to_their_dataset() {
        let dir = temp_dir("join");
        let (_ds, _settings) = seed_store(&dir);
        let registry = ModelRegistry::open(Store::open(&dir));
        assert_eq!(registry.datasets().len(), 1);
        assert_eq!(registry.models().len(), 3);
        for model in registry.models() {
            assert_eq!(model.machine.as_deref(), Some("haswell"), "{}", model.id);
            assert!(model.id.starts_with("haswell/"), "{}", model.id);
            assert!(registry.dataset_of(model).is_some());
        }
        let statics: Vec<_> = registry
            .models()
            .iter()
            .filter(|m| m.pipeline == "scenario1" && !m.dynamic)
            .collect();
        assert_eq!(statics.len(), 1);
        let caps: Vec<_> = registry
            .models()
            .iter()
            .filter(|m| m.held_out_power == Some(3))
            .collect();
        assert_eq!(caps.len(), 1);
        assert!(caps[0].id.contains("/cap3@"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn descriptor_settings_round_trip_the_key_fields() {
        let dir = temp_dir("settings");
        let (_ds, settings) = seed_store(&dir);
        let registry = ModelRegistry::open(Store::open(&dir));
        let model = &registry.models()[0];
        let restored = model.settings().unwrap();
        assert_eq!(restored.hidden_dim, settings.hidden_dim);
        assert_eq!(restored.rgcn_layers, settings.rgcn_layers);
        assert_eq!(restored.fc_hidden, settings.fc_hidden);
        assert_eq!(restored.epochs, settings.epochs);
        assert_eq!(restored.batch_size, settings.batch_size);
        assert_eq!(restored.folds, settings.folds);
        assert_eq!(restored.seed, settings.seed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lookup_describe_and_load_work_by_id() {
        let dir = temp_dir("describe");
        seed_store(&dir);
        let registry = ModelRegistry::open(Store::open(&dir));
        let id = registry.models()[0].id.clone();
        let described = registry.describe(&id).expect("describable");
        assert!(described.contains("pipeline:"));
        assert!(described.contains("machine: haswell"));
        assert!(described.contains("epochs:"));
        assert!(registry.describe("nonexistent").is_none());
        let model = registry.get(&id).unwrap();
        let grid = registry.load_grid(model).expect("grid loads");
        assert_eq!(grid.jobs, vec![(0, 0)]);
        let ds = registry
            .load_dataset(registry.dataset_of(model).unwrap())
            .expect("dataset loads");
        assert!(ds.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unjoined_models_are_listed_not_hidden() {
        // A grid whose dataset was never stored still appears (machine
        // unjoined) — operators must be able to see orphaned grids.
        let dir = temp_dir("unjoined");
        let store = ArtifactStore::open(&dir);
        let ds = Dataset::build_with_threads(
            &haswell(),
            &[],
            &Vocabulary::standard(),
            Threads::Fixed(1),
        );
        let cache = store.for_dataset(&ds);
        let grid = TrainedGrid {
            jobs: vec![],
            weights: vec![],
        };
        store
            .store()
            .save(
                &cache.grid_key(
                    GridPipeline::Scenario2 { dynamic: false },
                    &TrainSettings::quick(),
                ),
                &grid,
            )
            .unwrap();
        let registry = ModelRegistry::open(Store::open(&dir));
        assert_eq!(registry.datasets().len(), 0);
        assert_eq!(registry.models().len(), 1);
        let model = &registry.models()[0];
        assert_eq!(model.machine, None);
        assert!(model.id.starts_with("unjoined/scenario2/static@"));
        assert_eq!(model.summary().machine, "unjoined");
        assert!(registry.dataset_of(model).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_grid_key_without_its_variant_is_skipped_not_served_as_cap_0() {
        let dir = temp_dir("no_variant");
        seed_store(&dir);
        // An unseen-power grid whose key lost `held_out_power`: readable as
        // a key, but it names no grid this build can restore.
        let store = ArtifactStore::open(&dir);
        let orphan = ArtifactKey::new("models/unseen_power").field("dataset_sha256", "x");
        let grid = TrainedGrid {
            jobs: vec![],
            weights: vec![],
        };
        store.store().save(&orphan, &grid).unwrap();
        let registry = ModelRegistry::open(Store::open(&dir));
        assert_eq!(registry.models().len(), 3, "the seeded grids stay listed");
        assert!(registry.models().iter().all(|m| m.key() != &orphan));
        let caps: Vec<_> = registry
            .models()
            .iter()
            .filter_map(|m| m.held_out_power)
            .collect();
        assert_eq!(caps, vec![3], "no grid is read as cap 0");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn descriptors_carry_the_grid_their_key_names() {
        let dir = temp_dir("grid");
        seed_store(&dir);
        let registry = ModelRegistry::open(Store::open(&dir));
        for model in registry.models() {
            assert_eq!(GridPipeline::from_key(model.key()), Some(model.grid));
            assert_eq!(model.pipeline, model.grid.name());
            assert!(model.id.contains(&format!("/{}/", model.grid.name())));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
