//! Perf-tracking harness for the exhaustive dataset sweep.
//!
//! Builds the dataset at a list of worker counts, measures wall time, checks
//! that every build is bit-identical to the 1-thread baseline (serialized
//! with `serde_json` and compared as strings), and writes the timings as a
//! [`pnp_bench::Trajectory`] — the perf trajectory CI uploads per run and
//! the repository seeds in `BENCH_dataset_build.json`.
//!
//! ```text
//! bench_dataset_build [--threads 1,2,4,8] [--apps N] [--machine haswell|skylake]
//!                     [--repeats N] [--min-speedup S:T] [--out PATH]
//!                     [--store DIR] [--force-rebuild] [--verify-store]
//! ```
//!
//! Exits non-zero when any build differs from the baseline, so CI can use it
//! directly as the sweep-smoke determinism gate. `--min-speedup S:T` adds a
//! perf gate: the run at `T` threads must reach speedup ≥ `S` over the
//! serial build — guarding against the fan-out silently degenerating to a
//! serial sweep (which no byte comparison can catch). The gate is skipped
//! with a warning when the host has fewer than `T` cores, where the speedup
//! physically cannot materialize.

use pnp_bench::{banner, sweep, PerfHarnessOptions, Sample, Trajectory};
use pnp_benchmarks::full_suite;
use pnp_core::dataset::Dataset;
use pnp_graph::Vocabulary;
use pnp_openmp::Threads;
use pnp_tuners::SearchSpace;
use std::time::Instant;

fn main() {
    banner(
        "dataset_build timing",
        "exhaustive sweep wall time per worker count + determinism check",
    );
    let opts = PerfHarnessOptions::parse("BENCH_dataset_build.json");
    let mut apps = full_suite();
    if let Some(n) = opts.apps {
        apps.truncate(n);
    }
    let vocab = Vocabulary::standard();

    let runs = sweep(&opts.threads, opts.repeats, |workers| {
        let start = Instant::now();
        let ds = Dataset::build_with_threads(&opts.machine, &apps, &vocab, Threads::Fixed(workers));
        let wall_s = start.elapsed().as_secs_f64();
        Sample::new(
            wall_s,
            serde_json::to_string(&ds).expect("dataset serializes"),
        )
    });

    // This harness *measures* cold builds, so the sweep never reads the
    // store — but a configured store is warmed on the way out with the
    // dataset any warm consumer would compute.
    if opts.ctx.store.is_some() {
        opts.ctx.dataset(&opts.machine, &apps);
    }

    let space = SearchSpace::for_machine(&opts.machine);
    let regions: usize = apps.iter().map(|app| app.regions.len()).sum();
    let trajectory = Trajectory::new("dataset_build", runs)
        .param("machine", &opts.machine.name)
        .param("applications", &apps.len())
        .param("regions", &regions)
        .param(
            "simulations_per_region",
            &((space.configs_per_power() + 1) * space.power_levels.len()),
        );
    opts.finish(&trajectory);
}
