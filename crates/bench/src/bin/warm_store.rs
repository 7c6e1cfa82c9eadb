//! Populates the content-addressed artifact store with everything the
//! figure/table drivers and the paper-fidelity harness consume: one dataset
//! per machine, every LOOCV trained-model grid (scenario 1 static+dynamic,
//! scenario 2 static+dynamic, unseen-power for both held-out caps), the
//! transfer-learning report, the ablation grid, the motivating-example
//! sweep, and the out-of-distribution artifacts (synthetic dataset + cached
//! OOD report, DESIGN.md §13) — so a subsequent `validate_paper --store …`
//! (or any experiment binary) is pure load-and-evaluate.
//!
//! It does so by running the paper-fidelity harness itself
//! (`pnp_core::validate::run`, default OOD corpus) and discarding the
//! report: the artifacts written are exactly the ones `validate_paper`
//! reads, by construction.
//!
//! ```text
//! warm_store --store DIR [--apps N] [--sweep-threads N] [--train-threads N]
//!            [--force-rebuild] [--verify-store]
//! ```
//!
//! The CI `warm-store` job runs this once per workflow (`--apps 6`), uploads
//! the store directory as an artifact, and the `validate` / `train-perf`
//! jobs download and reuse it instead of recomputing per job.

use pnp_bench::{banner, from_env_and_args, report_store_stats};
use pnp_core::validate::{self, DEFAULT_OOD_KERNELS, DEFAULT_OOD_SEED};
use std::time::Instant;

/// Flags taking a value; `--apps` is warm_store's own, the rest are scanned
/// by `pnp_bench::from_env_and_args`.
const KNOWN_FLAGS: [&str; 4] = ["--apps", "--store", "--sweep-threads", "--train-threads"];
/// Valueless flags (also scanned by `pnp_bench::from_env_and_args`).
const KNOWN_BOOL_FLAGS: [&str; 2] = ["--force-rebuild", "--verify-store"];

/// Minimal strict parse: reject unknown flags (a typo'd `--app 6` would
/// silently warm the wrong suite) and extract `--apps`.
fn apps_from_args(args: &[String]) -> Option<usize> {
    let mut apps = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if KNOWN_BOOL_FLAGS.contains(&arg.as_str()) {
            i += 1;
            continue;
        }
        let known = KNOWN_FLAGS.iter().find(|f| {
            arg == **f
                || arg
                    .strip_prefix(**f)
                    .is_some_and(|rest| rest.starts_with('='))
        });
        let Some(flag) = known else {
            panic!(
                "unknown argument {arg:?} (expected one of {KNOWN_FLAGS:?} or {KNOWN_BOOL_FLAGS:?})"
            );
        };
        let value = if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
            i += 1;
            v.to_string()
        } else {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone();
            i += 2;
            v
        };
        if *flag == "--apps" {
            apps = Some(value.parse().expect("--apps N"));
        }
    }
    apps
}

fn main() {
    banner(
        "Artifact-store warm-up",
        "builds datasets + trains every model grid once, for reuse by every driver",
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let apps_limit = apps_from_args(&args);

    let (settings, ctx) = from_env_and_args();
    let Some(store) = &ctx.store else {
        eprintln!("[warm_store] no store configured — pass --store DIR or set PNP_STORE");
        std::process::exit(2);
    };

    let mut apps = pnp_benchmarks::full_suite();
    if let Some(n) = apps_limit {
        apps.truncate(n);
    }
    let t0 = Instant::now();
    validate::run(
        &apps,
        &settings,
        &ctx,
        DEFAULT_OOD_SEED,
        DEFAULT_OOD_KERNELS,
    );
    eprintln!(
        "[warm_store] done in {:.2}s ({} applications per machine)",
        t0.elapsed().as_secs_f64(),
        apps.len()
    );
    if report_store_stats("warm_store", store) {
        std::process::exit(1);
    }
}
