//! Perf-tracking harness for the parallel LOOCV training pipeline.
//!
//! Builds one dataset, then trains the scenario-1 (power-constrained) and
//! scenario-2 (EDP) cross-validation pipelines at a list of training worker
//! counts, measures wall time, checks that every run's predictions are
//! identical to the 1-worker baseline, and writes the timings as
//! machine-readable JSON — the training-side twin of `bench_dataset_build`
//! and the source of the committed `BENCH_loocv_train.json` perf trajectory.
//!
//! ```text
//! bench_loocv_train [--threads 1,2,4,8] [--apps N] [--machine haswell|skylake]
//!                   [--repeats N] [--min-speedup S:T] [--out PATH]
//! ```
//!
//! Exits non-zero when any run's predictions differ from the baseline, so CI
//! can use it directly as the training determinism gate. `--min-speedup S:T`
//! adds a perf gate: the run at `T` workers must reach speedup ≥ `S` over
//! serial training — guarding against the fan-out silently degenerating to a
//! serial loop (which no prediction comparison can catch). The gate is
//! skipped with a warning when the host has fewer than `T` cores, where the
//! speedup physically cannot materialize.

use pnp_bench::{banner, enforce_min_speedup, report_store_stats, PerfHarnessOptions, Provenance};
use pnp_benchmarks::full_suite;
use pnp_core::training::{
    train_scenario1_models_cached, train_scenario2_model_cached, TrainSettings,
};
use pnp_openmp::Threads;
use serde::Serialize;
use std::time::Instant;

/// One measured training pass (scenario 1 + scenario 2).
#[derive(Clone, Debug, Serialize)]
struct Run {
    /// Training worker count.
    threads: usize,
    /// Best-of-`repeats` wall time in seconds (both scenarios combined).
    wall_s: f64,
    /// `wall_s(1 worker) / wall_s(this)` — the headline speedup.
    speedup_vs_1t: f64,
    /// Whether the scenario-1 predictions equal the 1-worker baseline.
    scenario1_identical_to_1t: bool,
    /// Whether the scenario-2 predictions equal the 1-worker baseline.
    scenario2_identical_to_1t: bool,
}

/// The `BENCH_loocv_train.json` schema.
#[derive(Clone, Debug, Serialize)]
struct Report {
    /// Benchmark identifier (always `"loocv_train"`).
    bench: String,
    /// Machine whose dataset the models were trained on.
    machine: String,
    /// Number of applications in the dataset.
    applications: usize,
    /// Number of OpenMP regions.
    regions: usize,
    /// Cross-validation folds actually planned.
    folds: usize,
    /// Power levels (scenario 1 trains one model per fold per level).
    power_levels: usize,
    /// Independent scenario-1 training jobs (`folds × power_levels`).
    scenario1_jobs: usize,
    /// Training epochs per model.
    epochs: usize,
    /// Measurement provenance: git SHA, store-key schema version, and
    /// `available_parallelism` of the measuring host (without spare cores
    /// the speedups cannot materialize) — the same attribution contract as
    /// `VALIDATION.json`'s context header.
    context: Provenance,
    /// Best-of-`repeats` timing per worker count.
    runs: Vec<Run>,
}

/// One timed training pass at a fixed worker count.
fn train_once(
    ds: &pnp_core::dataset::Dataset,
    settings: &TrainSettings,
    workers: usize,
) -> (f64, Vec<Vec<usize>>, Vec<usize>) {
    let mut settings = settings.clone();
    settings.train_threads = Threads::Fixed(workers);
    let start = Instant::now();
    let s1 = train_scenario1_models_cached(ds, &settings, false, None);
    let s2 = train_scenario2_model_cached(ds, &settings, false, None);
    (start.elapsed().as_secs_f64(), s1, s2)
}

fn main() {
    banner(
        "loocv_train timing",
        "LOOCV training wall time per worker count + determinism check",
    );
    let opts = PerfHarnessOptions::parse("BENCH_loocv_train.json");
    let mut apps = full_suite();
    if let Some(n) = opts.apps {
        apps.truncate(n);
    }
    let context = Provenance::capture();
    let available = context.available_parallelism;

    // The dataset build is not what this harness measures; build it once up
    // front (parallel sweep, auto workers) and share it across every run —
    // or serve it straight from the artifact store when one is warm (the CI
    // train-perf job reuses the warm-store artifact exactly here). The
    // *training* below never touches the store: it is the measured quantity.
    let machine = opts.machine.clone();
    let store = opts.open_store();
    let vocab = pnp_graph::Vocabulary::standard();
    let ds = match &store {
        Some(store) => store.load_or_build_dataset(&machine, &apps, &vocab, Threads::Auto),
        None => {
            pnp_core::dataset::Dataset::build_with_threads(&machine, &apps, &vocab, Threads::Auto)
        }
    };
    let settings = TrainSettings::from_env();
    let folds = pnp_core::training::FoldPlan::new(&ds.applications(), settings.folds).len();
    let power_levels = ds.space.power_levels.len();

    // The 1-worker pass is always the determinism anchor and the speedup
    // denominator, measured best-of-`repeats` like every other entry.
    let mut wall_1t = f64::INFINITY;
    let mut baseline_s1 = Vec::new();
    let mut baseline_s2 = Vec::new();
    for r in 0..opts.repeats {
        let (wall, s1, s2) = train_once(&ds, &settings, 1);
        wall_1t = wall_1t.min(wall);
        if r == 0 {
            baseline_s1 = s1;
            baseline_s2 = s2;
        }
    }

    let mut runs = Vec::new();
    let mut all_identical = true;
    for &threads in &opts.threads {
        let (best, s1_identical, s2_identical) = if threads == 1 {
            (wall_1t, true, true)
        } else {
            let mut best = f64::INFINITY;
            let mut s1_id = true;
            let mut s2_id = true;
            for _ in 0..opts.repeats {
                let (wall, s1, s2) = train_once(&ds, &settings, threads);
                best = best.min(wall);
                s1_id &= s1 == baseline_s1;
                s2_id &= s2 == baseline_s2;
            }
            (best, s1_id, s2_id)
        };
        all_identical &= s1_identical && s2_identical;
        eprintln!(
            "[bench_loocv_train] {threads:>2} workers: {best:.3} s  \
             s1_identical={s1_identical} s2_identical={s2_identical}"
        );
        runs.push(Run {
            threads,
            wall_s: best,
            speedup_vs_1t: wall_1t / best,
            scenario1_identical_to_1t: s1_identical,
            scenario2_identical_to_1t: s2_identical,
        });
    }
    let report = Report {
        bench: "loocv_train".into(),
        machine: machine.name.clone(),
        applications: apps.len(),
        regions: ds.len(),
        folds,
        power_levels,
        scenario1_jobs: folds * power_levels,
        epochs: settings.epochs,
        context,
        runs,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, &json).expect("write timing JSON");
    println!("{json}");
    eprintln!("[bench_loocv_train] wrote {}", opts.out);
    if let Some(store) = &store {
        if report_store_stats("bench_loocv_train", store) {
            eprintln!(
                "[bench_loocv_train] FAIL: --verify-store found cached bytes differing from \
                 fresh computations (broken cache-key contract, DESIGN.md §12)"
            );
            std::process::exit(1);
        }
    }

    if !all_identical {
        eprintln!("[bench_loocv_train] FAIL: some training run differs from the 1-worker baseline");
        std::process::exit(1);
    }

    let speedups: Vec<(usize, f64)> = report
        .runs
        .iter()
        .map(|r| (r.threads, r.speedup_vs_1t))
        .collect();
    enforce_min_speedup("bench_loocv_train", opts.min_speedup, &speedups, available);
}
