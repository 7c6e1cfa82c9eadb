//! Perf-tracking harness for the parallel LOOCV training pipeline.
//!
//! Builds one dataset, then trains the scenario-1 (power-constrained) and
//! scenario-2 (EDP) cross-validation pipelines at a list of training worker
//! counts, measures wall time, checks that every run's predictions are
//! identical to the 1-worker baseline, and writes the timings as a
//! [`pnp_bench::Trajectory`] — the training-side twin of
//! `bench_dataset_build` and the source of the committed
//! `BENCH_loocv_train.json` perf trajectory.
//!
//! ```text
//! bench_loocv_train [--threads 1,2,4,8] [--apps N] [--machine haswell|skylake]
//!                   [--repeats N] [--min-speedup S:T] [--out PATH]
//!                   [--store DIR] [--force-rebuild] [--verify-store]
//! ```
//!
//! Exits non-zero when any run's predictions differ from the baseline, so CI
//! can use it directly as the training determinism gate. `--min-speedup S:T`
//! adds a perf gate: the run at `T` workers must reach speedup ≥ `S` over
//! serial training — guarding against the fan-out silently degenerating to a
//! serial loop (which no prediction comparison can catch). The gate is
//! skipped with a warning when the host has fewer than `T` cores, where the
//! speedup physically cannot materialize.

use pnp_bench::{banner, sweep, PerfHarnessOptions, Sample, Trajectory};
use pnp_benchmarks::full_suite;
use pnp_core::training::{
    train_scenario1_models_cached, train_scenario2_model_cached, FoldPlan, TrainSettings,
};
use pnp_openmp::Threads;
use std::time::Instant;

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

    // The dataset build is not what this harness measures: it comes from
    // the artifact store when one is warm (the CI train-perf job reuses the
    // warm-store artifact exactly here). The *training* below never touches
    // the store: it is the measured quantity.
    let ds = opts.ctx.dataset(&opts.machine, &apps);
    let settings = TrainSettings::from_env();
    let folds = FoldPlan::new(&ds.applications(), settings.folds).len();
    let power_levels = ds.space.power_levels.len();

    let runs = sweep(&opts.threads, opts.repeats, |workers| {
        let settings = TrainSettings {
            train_threads: Threads::Fixed(workers),
            ..settings.clone()
        };
        let start = Instant::now();
        let s1 = train_scenario1_models_cached(&ds, &settings, false, None);
        let s2 = train_scenario2_model_cached(&ds, &settings, false, None);
        Sample::new(start.elapsed().as_secs_f64(), (s1, s2))
    });

    let trajectory = Trajectory::new("loocv_train", runs)
        .param("machine", &opts.machine.name)
        .param("applications", &apps.len())
        .param("regions", &ds.len())
        .param("folds", &folds)
        .param("power_levels", &power_levels)
        .param("scenario1_jobs", &(folds * power_levels))
        .param("epochs", &settings.epochs);
    opts.finish(&trajectory);
}
