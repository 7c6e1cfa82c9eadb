//! Domain glue between the generic content-addressed store (`pnp-store`) and
//! the PnP pipeline: fingerprints and cache keys for built [`Dataset`]s and
//! trained model grids, plus the [`ArtifactStore`] wrapper every driver and
//! binary threads through.
//!
//! ## What goes into a key (DESIGN.md §12)
//!
//! A cache key must cover *everything that determines the artifact's bytes*:
//!
//! * **dataset** — machine fingerprint (the serialized [`MachineSpec`], which
//!   also determines the Table I search space), suite fingerprint
//!   (application names, region names, serialized workload profiles),
//!   vocabulary fingerprint, and the store schema version.
//! * **model grids** — [`DatasetCache::grid_key`]: the grid's kind and
//!   variant field (dynamic-feature flag or held-out cap), both defined by
//!   [`GridPipeline`]; the *content hash of the serialized dataset* the
//!   models were trained on (so any dataset change invalidates every
//!   downstream model); every training hyperparameter of [`TrainSettings`];
//!   and the seed-scheme tag [`SEED_SCHEME`]. [`GridPipeline::from_key`]
//!   and [`settings_from_key`] read a grid key back.
//! * **experiment results** (`experiments/*`) — the dataset hash(es) plus
//!   the hyperparameters, for results that are cheap to re-derive from
//!   models but expensive to recompute from scratch (ablation grids,
//!   transfer reports, the motivating-example sweep).
//!
//! Worker-count knobs are deliberately excluded: PRs 2–3 made every pipeline
//! bit-identical across worker counts, which is the property that makes this
//! cache sound. What a key *cannot* capture is the code itself — a simulator
//! or training change that alters bytes under an unchanged key must bump
//! [`pnp_store::SCHEMA_VERSION`]; the `--verify-store` mode exists to catch
//! exactly that drift (it recomputes on every hit and byte-compares).

use crate::dataset::Dataset;
use crate::training::{GridPipeline, TrainSettings};
use pnp_benchmarks::Application;
use pnp_graph::Vocabulary;
use pnp_machine::MachineSpec;
use pnp_openmp::Threads;
use pnp_store::sha256_hex;
pub use pnp_store::{ArtifactKey, Store, StoreStats};

/// Tag naming the deterministic per-job seeding scheme of the LOOCV training
/// grids (DESIGN.md §10; the offsets live in [`GridPipeline`]). Changing how
/// jobs derive their seeds changes every trained weight, so the tag is part
/// of every model key.
pub const SEED_SCHEME: &str = "grid-v1";

/// SHA-256 of a value's compact JSON serialization.
fn json_sha256<T: serde::Serialize>(value: &T) -> String {
    sha256_hex(
        serde_json::to_string(value)
            .expect("fingerprinted values serialize")
            .as_bytes(),
    )
}

/// Content fingerprint of a machine model (covers the derived Table I search
/// space, the power model, and the simulator inputs).
pub fn machine_fingerprint(machine: &MachineSpec) -> String {
    json_sha256(machine)
}

/// Content fingerprint of an application suite: application names, region
/// names, and each region's serialized workload profile — the inputs from
/// which the sweep and the code graphs are derived.
pub fn suite_fingerprint(apps: &[Application]) -> String {
    let digest: Vec<(String, Vec<(String, &pnp_openmp::RegionProfile)>)> = apps
        .iter()
        .map(|app| {
            (
                app.name.clone(),
                app.regions
                    .iter()
                    .map(|r| (r.name().to_string(), &r.profile))
                    .collect(),
            )
        })
        .collect();
    json_sha256(&digest)
}

/// Content fingerprint of a built dataset: SHA-256 of its full JSON
/// serialization. Every model key embeds this, so models can never be
/// replayed against a dataset other than the one they were trained on.
pub fn dataset_fingerprint(ds: &Dataset) -> String {
    json_sha256(ds)
}

/// Adds every [`TrainSettings`] hyperparameter that shapes trained weights
/// to a key. (`train_threads` is excluded: training is bit-identical for
/// every worker count, DESIGN.md §10.)
fn with_settings(key: ArtifactKey, s: &TrainSettings) -> ArtifactKey {
    key.field("hidden_dim", s.hidden_dim)
        .field("rgcn_layers", s.rgcn_layers)
        .field("fc_hidden", s.fc_hidden)
        .field("epochs", s.epochs)
        .field("batch_size", s.batch_size)
        .field("folds", s.folds)
        .field("seed", s.seed)
        .field("seed_scheme", SEED_SCHEME)
}

/// Reads back the [`TrainSettings`] a grid key was built with
/// ([`DatasetCache::grid_key`]). Errors on a foreign seed scheme or a
/// missing/unparseable field — a grid whose settings cannot be recovered
/// cannot be replayed into correctly shaped, correctly seeded models.
/// `train_threads` is no key field; it comes back as one worker (restoring
/// checkpoints does not depend on it).
pub fn settings_from_key(key: &ArtifactKey) -> Result<TrainSettings, String> {
    let scheme = key.get("seed_scheme").unwrap_or("<missing>");
    if scheme != SEED_SCHEME {
        return Err(format!(
            "uses seed scheme {scheme:?}, this build replays {SEED_SCHEME:?}"
        ));
    }
    fn field<T: std::str::FromStr>(key: &ArtifactKey, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        key.get(name)
            .ok_or_else(|| format!("key lacks field {name:?}"))?
            .parse()
            .map_err(|e| format!("field {name:?}: {e}"))
    }
    Ok(TrainSettings {
        hidden_dim: field(key, "hidden_dim")?,
        rgcn_layers: field(key, "rgcn_layers")?,
        fc_hidden: field(key, "fc_hidden")?,
        epochs: field(key, "epochs")?,
        batch_size: field(key, "batch_size")?,
        folds: field(key, "folds")?,
        seed: field(key, "seed")?,
        train_threads: Threads::Fixed(1),
    })
}

/// A [`Store`] plus the domain key builders — the handle the experiment
/// drivers, the validation harness, and every `pnp-bench` binary thread
/// through (always as `Option<&ArtifactStore>`: `None` means "no cache",
/// and every path must work identically without one).
///
/// ```
/// use pnp_core::artifact::ArtifactStore;
/// use pnp_graph::Vocabulary;
/// use pnp_machine::haswell;
/// use pnp_openmp::Threads;
///
/// let root = std::env::temp_dir().join(format!("pnp-artifact-doc-{}", std::process::id()));
/// # std::fs::remove_dir_all(&root).ok();
/// let store = ArtifactStore::open(&root);
/// // The first call builds and caches the (here: empty-suite) dataset;
/// // the second is a pure load of byte-identical content.
/// let vocab = Vocabulary::standard();
/// let ds = store.load_or_build_dataset(&haswell(), &[], &vocab, Threads::Fixed(1));
/// let again = store.load_or_build_dataset(&haswell(), &[], &vocab, Threads::Fixed(1));
/// assert!(ds.is_empty() && again.is_empty());
/// assert_eq!(store.stats().writes, 1);
/// assert_eq!(store.stats().hits, 1);
/// # std::fs::remove_dir_all(&root).ok();
/// ```
#[derive(Debug)]
pub struct ArtifactStore {
    store: Store,
}

impl ArtifactStore {
    /// Wraps an opened store.
    pub fn new(store: Store) -> Self {
        ArtifactStore { store }
    }

    /// Opens a store rooted at `dir`.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Self {
        ArtifactStore::new(Store::open(dir))
    }

    /// Opens the store named by `PNP_STORE` (honouring `PNP_STORE_FORCE` /
    /// `PNP_STORE_VERIFY`), or `None` when unset.
    pub fn from_env() -> Option<Self> {
        Store::from_env().map(ArtifactStore::new)
    }

    /// The underlying generic store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The cache key of a built dataset.
    pub fn dataset_key(
        machine: &MachineSpec,
        apps: &[Application],
        vocab: &Vocabulary,
    ) -> ArtifactKey {
        ArtifactKey::new("dataset")
            .field("machine", &machine.name)
            .field("machine_sha256", machine_fingerprint(machine))
            .field("suite_sha256", suite_fingerprint(apps))
            .field("apps", apps.len())
            // Content hash, not just the length: two equally-sized
            // vocabularies would otherwise collide on one key while encoding
            // graphs differently.
            .field("vocab_sha256", json_sha256(vocab))
    }

    /// Returns the cached dataset for `(machine, apps, vocab)`, or builds it
    /// with `threads` workers and caches it. The cached and freshly built
    /// datasets are byte-identical (enforced by `--verify-store` and the
    /// `store_roundtrip` integration tests), so callers cannot observe which
    /// path ran.
    pub fn load_or_build_dataset(
        &self,
        machine: &MachineSpec,
        apps: &[Application],
        vocab: &Vocabulary,
        threads: Threads,
    ) -> Dataset {
        let key = Self::dataset_key(machine, apps, vocab);
        self.store.load_or_build(&key, || {
            Dataset::build_with_threads(machine, apps, vocab, threads)
        })
    }

    /// Binds this store to a dataset's content hash, yielding the handle the
    /// training pipelines key their model grids under.
    pub fn for_dataset<'a>(&'a self, ds: &Dataset) -> DatasetCache<'a> {
        DatasetCache {
            store: self,
            dataset_sha256: dataset_fingerprint(ds),
        }
    }
}

/// An [`ArtifactStore`] bound to one dataset's content hash. Computing the
/// hash serializes the full dataset once, so drivers create this once per
/// dataset and reuse it across their training calls.
///
/// Every model key embeds the bound hash, which is also exactly the stored
/// dataset artifact's header `payload_sha256` — the join the model registry
/// (DESIGN.md §14) is built on:
///
/// ```
/// use pnp_core::artifact::{dataset_fingerprint, ArtifactStore};
/// use pnp_core::{Dataset, GridPipeline, TrainSettings};
/// use pnp_graph::Vocabulary;
/// use pnp_machine::haswell;
/// use pnp_openmp::Threads;
///
/// let store = ArtifactStore::open("/tmp/pnp-artifact-doc-keys");
/// let ds = Dataset::build_with_threads(
///     &haswell(), &[], &Vocabulary::standard(), Threads::Fixed(1));
/// let cache = store.for_dataset(&ds);
/// assert_eq!(cache.dataset_sha256(), dataset_fingerprint(&ds));
/// let pipeline = GridPipeline::Scenario1 { dynamic: false };
/// let key = cache.grid_key(pipeline, &TrainSettings::quick());
/// assert_eq!(key.get("dataset_sha256"), Some(cache.dataset_sha256()));
/// assert_eq!(key.get("seed_scheme"), Some("grid-v1"));
/// assert_eq!(GridPipeline::from_key(&key), Some(pipeline));
/// ```
#[derive(Debug)]
pub struct DatasetCache<'a> {
    store: &'a ArtifactStore,
    dataset_sha256: String,
}

impl DatasetCache<'_> {
    /// The underlying generic store.
    pub fn store(&self) -> &Store {
        self.store.store()
    }

    /// The bound dataset's content hash.
    pub fn dataset_sha256(&self) -> &str {
        &self.dataset_sha256
    }

    /// Key of one trained-model grid: the pipeline's kind and variant
    /// field ([`GridPipeline`]), the bound dataset hash, and every
    /// hyperparameter.
    pub fn grid_key(&self, pipeline: GridPipeline, settings: &TrainSettings) -> ArtifactKey {
        with_settings(pipeline.key(&self.dataset_sha256), settings)
    }

    /// Key of the cached ablation results.
    pub fn ablations_key(&self, settings: &TrainSettings) -> ArtifactKey {
        with_settings(
            ArtifactKey::new("experiments/ablations").field("dataset_sha256", &self.dataset_sha256),
            settings,
        )
    }
}

/// Key of the cached transfer-learning report (spans two datasets). Unlike
/// every other artifact this one carries *wall-clock measurements*, so it is
/// cached with [`Store::load_or_build_nondeterministic`] — re-measured
/// timings legitimately differ, and the bit-identity contract does not
/// apply to it.
pub fn transfer_key(
    source_sha256: &str,
    target_sha256: &str,
    settings: &TrainSettings,
    power_idx: usize,
) -> ArtifactKey {
    with_settings(
        ArtifactKey::new("experiments/transfer")
            .field("source_sha256", source_sha256)
            .field("target_sha256", target_sha256)
            .field("power_idx", power_idx),
        settings,
    )
}

/// Key of the cached out-of-distribution generalization results: train on
/// one dataset, evaluate on a generated synthetic dataset. Fingerprinted by
/// both dataset hashes *and* the generator seed scheme (`gen_seed`,
/// `gen_kernels`), so changing the generated corpus — even to one with an
/// identical region count — can never replay stale results. Fully
/// deterministic (predictions + analytic sweeps), so it is cached under the
/// bit-identity contract.
pub fn ood_key(
    train_sha256: &str,
    eval_sha256: &str,
    settings: &TrainSettings,
    gen_seed: u64,
    gen_kernels: usize,
) -> ArtifactKey {
    with_settings(
        ArtifactKey::new("experiments/ood")
            .field("train_sha256", train_sha256)
            .field("eval_sha256", eval_sha256)
            .field("gen_seed", gen_seed)
            .field("gen_kernels", gen_kernels)
            .field("gen_scheme", "pnp-gen-v1"),
        settings,
    )
}

/// Key of the cached motivating-example results (a single-region sweep plus
/// argmin scans — fully deterministic).
pub fn motivating_key(machine: &MachineSpec, apps: &[Application]) -> ArtifactKey {
    ArtifactKey::new("experiments/motivating")
        .field("machine", &machine.name)
        .field("machine_sha256", machine_fingerprint(machine))
        .field("suite_sha256", suite_fingerprint(apps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnp_machine::{haswell, skylake};

    #[test]
    fn machine_fingerprints_differ_between_presets() {
        assert_ne!(
            machine_fingerprint(&haswell()),
            machine_fingerprint(&skylake())
        );
        // Stable across calls.
        assert_eq!(
            machine_fingerprint(&haswell()),
            machine_fingerprint(&haswell())
        );
    }

    #[test]
    fn suite_fingerprint_tracks_apps_and_regions() {
        let apps = pnp_benchmarks::full_suite();
        let full = suite_fingerprint(&apps);
        let mut six = apps.clone();
        six.truncate(6);
        assert_ne!(full, suite_fingerprint(&six));
        assert_eq!(suite_fingerprint(&six), suite_fingerprint(&six));
    }

    fn empty_dataset_cache(store: &ArtifactStore) -> DatasetCache<'_> {
        let ds = Dataset::build_with_threads(
            &haswell(),
            &[],
            &Vocabulary::standard(),
            Threads::Fixed(1),
        );
        store.for_dataset(&ds)
    }

    const PIPELINES: [GridPipeline; 6] = [
        GridPipeline::Scenario1 { dynamic: false },
        GridPipeline::Scenario1 { dynamic: true },
        GridPipeline::Scenario2 { dynamic: false },
        GridPipeline::Scenario2 { dynamic: true },
        GridPipeline::UnseenPower { held_out_power: 0 },
        GridPipeline::UnseenPower { held_out_power: 3 },
    ];

    #[test]
    fn model_keys_separate_pipelines_and_hyperparameters() {
        let store = ArtifactStore::open("/tmp/unused");
        let cache = empty_dataset_cache(&store);
        let quick = TrainSettings::quick();
        let mut longer = TrainSettings::quick();
        longer.epochs += 1;
        let addresses: std::collections::BTreeSet<String> = PIPELINES
            .iter()
            .map(|&p| cache.grid_key(p, &quick).address())
            .collect();
        assert_eq!(addresses.len(), PIPELINES.len(), "one address per grid");
        let s1 = GridPipeline::Scenario1 { dynamic: false };
        assert_ne!(
            cache.grid_key(s1, &quick).address(),
            cache.grid_key(s1, &longer).address()
        );
    }

    /// Store addresses are the contract a warm store is replayed under: the
    /// grid key must be exactly the field-by-field key earlier releases
    /// wrote, or every stored grid turns into a miss.
    #[test]
    fn grid_keys_keep_their_stored_addresses() {
        let store = ArtifactStore::open("/tmp/unused");
        let cache = empty_dataset_cache(&store);
        for settings in [TrainSettings::quick(), TrainSettings::full()] {
            for pipeline in PIPELINES {
                let (kind, variant, value) = match pipeline {
                    GridPipeline::Scenario1 { dynamic } => {
                        ("models/scenario1", "dynamic", dynamic.to_string())
                    }
                    GridPipeline::Scenario2 { dynamic } => {
                        ("models/scenario2", "dynamic", dynamic.to_string())
                    }
                    GridPipeline::UnseenPower { held_out_power } => (
                        "models/unseen_power",
                        "held_out_power",
                        held_out_power.to_string(),
                    ),
                };
                let expected = ArtifactKey::new(kind)
                    .field("dataset_sha256", cache.dataset_sha256())
                    .field(variant, value)
                    .field("hidden_dim", settings.hidden_dim)
                    .field("rgcn_layers", settings.rgcn_layers)
                    .field("fc_hidden", settings.fc_hidden)
                    .field("epochs", settings.epochs)
                    .field("batch_size", settings.batch_size)
                    .field("folds", settings.folds)
                    .field("seed", settings.seed)
                    .field("seed_scheme", "grid-v1");
                let key = cache.grid_key(pipeline, &settings);
                assert_eq!(key, expected, "{pipeline:?}");
                assert_eq!(key.address(), expected.address(), "{pipeline:?}");
                assert_eq!(pipeline.kind(), kind);
                assert_eq!(pipeline.name(), kind.trim_start_matches("models/"));
            }
        }
    }

    #[test]
    fn grid_pipelines_and_settings_round_trip_through_their_key() {
        let store = ArtifactStore::open("/tmp/unused");
        let cache = empty_dataset_cache(&store);
        for settings in [TrainSettings::quick(), TrainSettings::full()] {
            for pipeline in PIPELINES {
                let key = cache.grid_key(pipeline, &settings);
                // Through the canonical text form, as the registry reads it.
                let key = ArtifactKey::parse(&key.canonical()).unwrap();
                assert_eq!(GridPipeline::from_key(&key), Some(pipeline));
                let back = settings_from_key(&key).unwrap();
                let expected = TrainSettings {
                    train_threads: Threads::Fixed(1),
                    ..settings.clone()
                };
                assert_eq!(format!("{back:?}"), format!("{expected:?}"));
            }
        }
    }

    #[test]
    fn unreadable_grid_keys_are_refused() {
        let store = ArtifactStore::open("/tmp/unused");
        let cache = empty_dataset_cache(&store);
        let settings = TrainSettings::quick();
        // Other kinds, and grid kinds with a missing or garbled variant.
        let not_grids = [
            ArtifactKey::new("dataset").field("machine", "haswell"),
            cache.ablations_key(&settings),
            ArtifactKey::new("models/unseen_power").field("dataset_sha256", "x"),
            ArtifactKey::new("models/scenario1").field("dynamic", "maybe"),
            ArtifactKey::new("models/other").field("dynamic", true),
        ];
        for key in &not_grids {
            assert_eq!(GridPipeline::from_key(key), None, "{}", key.canonical());
        }
        // A foreign seed scheme or a lost field cannot be replayed.
        let key = cache.grid_key(GridPipeline::Scenario2 { dynamic: false }, &settings);
        let foreign = ArtifactKey::parse(&key.canonical().replace("grid-v1", "grid-v0")).unwrap();
        assert!(settings_from_key(&foreign)
            .unwrap_err()
            .contains("seed scheme"));
        let no_epochs = ArtifactKey::parse(&key.canonical().replace("epochs", "epochz")).unwrap();
        assert!(settings_from_key(&no_epochs)
            .unwrap_err()
            .contains("\"epochs\""));
    }
}
