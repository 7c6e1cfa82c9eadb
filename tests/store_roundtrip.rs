//! Integration tests of the content-addressed artifact store (DESIGN.md
//! §12): the bit-identity contract (cached artifact bytes == freshly
//! computed bytes, warm replay == cold training), and every failure mode
//! the store must degrade through — corruption, key mismatches, concurrent
//! writers, force-rebuild.

use pnp::benchmarks::builders::{matmul_kernel, small_boundary_kernel, streaming_kernel};
use pnp::benchmarks::Application;
use pnp::core::artifact::ArtifactStore;
use pnp::core::training::{
    train_scenario1_models_cached, train_scenario2_model_cached, train_unseen_power_cached,
    TrainSettings,
};
use pnp::core::{Dataset, RunCtx};
use pnp::graph::Vocabulary;
use pnp::machine::haswell;
use pnp::openmp::Threads;
use pnp::store::Store;

fn tiny_apps() -> Vec<Application> {
    vec![
        Application::new("appA", vec![matmul_kernel("appA_r0", 160, 160, 160)]),
        Application::new(
            "appB",
            vec![
                streaming_kernel("appB_r0", 150_000, 2, 1.0),
                small_boundary_kernel("appB_r1", 900, 2),
            ],
        ),
    ]
}

fn tiny_settings() -> TrainSettings {
    let mut s = TrainSettings::quick();
    s.hidden_dim = 8;
    s.fc_hidden = 16;
    s.epochs = 3;
    s.folds = 2;
    s.train_threads = Threads::Fixed(1);
    s
}

fn tiny_dataset() -> Dataset {
    Dataset::build_with_threads(
        &haswell(),
        &tiny_apps(),
        &Vocabulary::standard(),
        Threads::Fixed(1),
    )
}

/// A store rooted in a unique temp directory, removed on drop.
struct TempStore {
    dir: std::path::PathBuf,
}

impl TempStore {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pnp_store_it_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempStore { dir }
    }

    fn open(&self) -> ArtifactStore {
        ArtifactStore::open(&self.dir)
    }

    fn open_with(&self, force: bool, verify: bool) -> ArtifactStore {
        ArtifactStore::new(
            Store::open(&self.dir)
                .with_force_rebuild(force)
                .with_verify(verify),
        )
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn cached_dataset_bytes_equal_freshly_built_bytes() {
    let tmp = TempStore::new("dataset_bytes");
    let machine = haswell();
    let apps = tiny_apps();
    let vocab = Vocabulary::standard();

    let fresh = Dataset::build_with_threads(&machine, &apps, &vocab, Threads::Fixed(1));
    let fresh_bytes = serde_json::to_string(&fresh).unwrap();

    // Cold: builds and caches.
    let store = tmp.open();
    let built = store.load_or_build_dataset(&machine, &apps, &vocab, Threads::Fixed(1));
    assert_eq!(serde_json::to_string(&built).unwrap(), fresh_bytes);
    assert_eq!(store.stats().writes, 1);

    // The artifact's payload on disk is the exact fresh serialization.
    let key = ArtifactStore::dataset_key(&machine, &apps, &vocab);
    let payload = store.store().load_bytes(&key).expect("artifact exists");
    assert_eq!(
        payload,
        fresh_bytes.as_bytes(),
        "cached bytes != fresh bytes"
    );

    // Warm: loads, and re-serializes byte-identically (lossless floats).
    let warm_store = tmp.open();
    let loaded = warm_store.load_or_build_dataset(&machine, &apps, &vocab, Threads::Fixed(1));
    assert_eq!(serde_json::to_string(&loaded).unwrap(), fresh_bytes);
    let s = warm_store.stats();
    assert_eq!(
        (s.hits, s.misses, s.writes),
        (1, 0, 0),
        "warm run must not rebuild"
    );

    // The drivers' single dataset entry point gives the same bytes with a
    // (warm) store and without one.
    let no_store = RunCtx {
        sweep_threads: Threads::Fixed(1),
        store: None,
    };
    let with_store = RunCtx {
        sweep_threads: Threads::Fixed(1),
        store: Some(tmp.open()),
    };
    let built = no_store.dataset(&machine, &apps);
    let served = with_store.dataset(&machine, &apps);
    assert_eq!(serde_json::to_string(&built).unwrap(), fresh_bytes);
    assert_eq!(serde_json::to_string(&served).unwrap(), fresh_bytes);
    assert_eq!(with_store.store.as_ref().unwrap().stats().hits, 1);
    assert!(no_store.cache(&built).is_none());
    assert_eq!(
        with_store.cache(&served).unwrap().dataset_sha256(),
        pnp::core::dataset_fingerprint(&built)
    );
}

#[test]
fn warm_training_replays_bit_identical_predictions() {
    let tmp = TempStore::new("warm_training");
    let ds = tiny_dataset();
    let settings = tiny_settings();

    // Ground truth: the uncached pipelines.
    let s1 = train_scenario1_models_cached(&ds, &settings, false, None);
    let s1_dyn = train_scenario1_models_cached(&ds, &settings, true, None);
    let s2 = train_scenario2_model_cached(&ds, &settings, false, None);
    let up = train_unseen_power_cached(&ds, &settings, 0, None);

    // Cold cached run: trains, saves, and must agree with the uncached run.
    let store = tmp.open();
    let cache = store.for_dataset(&ds);
    assert_eq!(
        train_scenario1_models_cached(&ds, &settings, false, Some(&cache)),
        s1
    );
    assert_eq!(
        train_scenario1_models_cached(&ds, &settings, true, Some(&cache)),
        s1_dyn
    );
    assert_eq!(
        train_scenario2_model_cached(&ds, &settings, false, Some(&cache)),
        s2
    );
    assert_eq!(
        train_unseen_power_cached(&ds, &settings, 0, Some(&cache)),
        up
    );
    assert_eq!(store.stats().writes, 4, "one grid artifact per pipeline");

    // Warm run from a fresh handle: replays checkpoints, no training, same
    // predictions bit-for-bit.
    let warm = tmp.open();
    let cache = warm.for_dataset(&ds);
    assert_eq!(
        train_scenario1_models_cached(&ds, &settings, false, Some(&cache)),
        s1
    );
    assert_eq!(
        train_scenario1_models_cached(&ds, &settings, true, Some(&cache)),
        s1_dyn
    );
    assert_eq!(
        train_scenario2_model_cached(&ds, &settings, false, Some(&cache)),
        s2
    );
    assert_eq!(
        train_unseen_power_cached(&ds, &settings, 0, Some(&cache)),
        up
    );
    let s = warm.stats();
    assert_eq!(s.hits, 4, "every grid must be served from the store");
    assert_eq!((s.misses, s.writes, s.corrupt), (0, 0, 0));

    // Verify mode: retrains everything and byte-compares against the cached
    // grids — the strongest form of the bit-identity contract.
    let verifying = tmp.open_with(false, true);
    let cache = verifying.for_dataset(&ds);
    assert_eq!(
        train_scenario1_models_cached(&ds, &settings, false, Some(&cache)),
        s1
    );
    let s = verifying.stats();
    assert_eq!(s.verified, 1, "verify mode must byte-compare the hit");
    assert_eq!(
        s.verify_mismatches, 0,
        "cached grid bytes must equal fresh bytes"
    );
}

#[test]
fn hyperparameter_change_misses_cleanly() {
    let tmp = TempStore::new("hyper_miss");
    let ds = tiny_dataset();
    let settings = tiny_settings();

    let store = tmp.open();
    let cache = store.for_dataset(&ds);
    train_scenario1_models_cached(&ds, &settings, false, Some(&cache));
    assert_eq!(store.stats().writes, 1);

    // One epoch more: a different key — a clean miss and a second artifact,
    // never a stale hit.
    let mut longer = settings.clone();
    longer.epochs += 1;
    let fresh = train_scenario1_models_cached(&ds, &longer, false, None);
    let store2 = tmp.open();
    let cache2 = store2.for_dataset(&ds);
    assert_eq!(
        train_scenario1_models_cached(&ds, &longer, false, Some(&cache2)),
        fresh
    );
    let s = store2.stats();
    assert_eq!(s.hits, 0, "changed hyperparameters must not hit");
    assert_eq!(s.misses, 1);
    assert_eq!(s.writes, 1);
}

#[test]
fn corrupted_grid_artifact_falls_back_to_retraining() {
    let tmp = TempStore::new("corrupt_grid");
    let ds = tiny_dataset();
    let settings = tiny_settings();
    let baseline = train_scenario1_models_cached(&ds, &settings, false, None);

    let store = tmp.open();
    let cache = store.for_dataset(&ds);
    train_scenario1_models_cached(&ds, &settings, false, Some(&cache));
    let key = cache.scenario1_key(&settings, false);
    let path = store.store().artifact_path(&key);

    // Truncate the artifact mid-payload.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let recovering = tmp.open();
    let cache = recovering.for_dataset(&ds);
    let preds = train_scenario1_models_cached(&ds, &settings, false, Some(&cache));
    assert_eq!(
        preds, baseline,
        "fallback retraining must agree with baseline"
    );
    let s = recovering.stats();
    assert_eq!(s.corrupt, 1, "the truncated artifact must be detected");
    assert_eq!(s.writes, 1, "the rebuilt grid must overwrite the bad file");

    // And the overwritten artifact is valid again.
    let healed = tmp.open();
    let cache = healed.for_dataset(&ds);
    assert_eq!(
        train_scenario1_models_cached(&ds, &settings, false, Some(&cache)),
        baseline
    );
    assert_eq!(healed.stats().hits, 1);
}

#[test]
fn force_rebuild_retrains_and_overwrites() {
    let tmp = TempStore::new("force_rebuild");
    let ds = tiny_dataset();
    let settings = tiny_settings();
    let baseline = train_scenario1_models_cached(&ds, &settings, false, None);

    let store = tmp.open();
    let cache = store.for_dataset(&ds);
    train_scenario1_models_cached(&ds, &settings, false, Some(&cache));
    let key = cache.scenario1_key(&settings, false);
    let before = std::fs::metadata(store.store().artifact_path(&key)).unwrap();

    let forced = tmp.open_with(true, false);
    let cache = forced.for_dataset(&ds);
    assert_eq!(
        train_scenario1_models_cached(&ds, &settings, false, Some(&cache)),
        baseline
    );
    let s = forced.stats();
    assert_eq!(s.hits, 0, "force-rebuild must not read the cache");
    assert!(s.writes >= 1, "force-rebuild must overwrite");
    let after = std::fs::metadata(forced.store().artifact_path(&key)).unwrap();
    assert!(
        after.modified().unwrap() >= before.modified().unwrap(),
        "artifact must be rewritten"
    );
}

/// The acceptance criterion in miniature: a cold validation run (populates
/// the store) and a warm one (pure load-and-evaluate) must produce a
/// byte-identical report — same verdicts, same observed values, including
/// the transfer experiment, whose measured report is cached as-is.
#[test]
fn warm_validation_report_is_byte_identical_to_cold() {
    use pnp::core::validate;

    let tmp = TempStore::new("warm_validation");
    let apps: Vec<_> = pnp::benchmarks::full_suite().into_iter().take(2).collect();
    let settings = tiny_settings();
    // The 6-kernel OOD corpus deliberately undershoots the corpus-size
    // invariant's floor — this test asserts byte-identity and store stats,
    // not verdicts, and a small corpus keeps the double run cheap.

    let ctx = |store| RunCtx {
        sweep_threads: Threads::Fixed(1),
        store: Some(store),
    };
    let cold_ctx = ctx(tmp.open());
    let cold = validate::run(&apps, &settings, &cold_ctx, 0xD17A, 6);
    assert!(
        cold_ctx.store.as_ref().unwrap().stats().writes > 0,
        "cold run must populate the store"
    );

    let warm_ctx = ctx(tmp.open());
    let warm = validate::run(&apps, &settings, &warm_ctx, 0xD17A, 6);
    let s = warm_ctx.store.as_ref().unwrap().stats();
    assert_eq!(s.misses, 0, "warm run must not rebuild anything");
    assert_eq!(s.writes, 0);
    assert!(s.hits > 0);

    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "warm validation report must be byte-identical to the cold one"
    );
}

#[test]
fn dataset_key_tracks_machine_suite_and_vocab() {
    let apps = tiny_apps();
    let vocab = Vocabulary::standard();
    let base = ArtifactStore::dataset_key(&haswell(), &apps, &vocab).address();
    assert_ne!(
        base,
        ArtifactStore::dataset_key(&pnp::machine::skylake(), &apps, &vocab).address()
    );
    let fewer = &apps[..1];
    assert_ne!(
        base,
        ArtifactStore::dataset_key(&haswell(), fewer, &vocab).address()
    );
}
