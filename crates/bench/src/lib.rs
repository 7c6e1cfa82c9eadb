//! # pnp-bench
//!
//! Two kinds of artefacts live here:
//!
//! 1. **Experiment binaries** (`src/bin/`): one per table/figure of the
//!    paper. Each builds the required dataset(s), runs the corresponding
//!    driver from `pnp-core::experiments`, prints the rows/series the paper
//!    plots, and writes a JSON copy under `target/experiments/`.
//!    By default they run the *quick* configuration (reduced epochs / folds)
//!    so the whole set finishes on a single-core machine; set `PNP_FULL=1`
//!    for the paper-fidelity settings.
//! 2. **Criterion micro-benchmarks** (`benches/`): component throughput
//!    (graph construction, RGCN forward/backward, execution-model sweeps,
//!    tuner search, the real parallel-for executor).
//!
//! This library crate only hosts small helpers shared by the binaries.

use pnp_core::artifact::ArtifactStore;
use pnp_core::experiments::{ExperimentError, RunCtx};
use pnp_core::training::TrainSettings;
use pnp_machine::{haswell, skylake, MachineSpec};
use pnp_openmp::Threads;
use pnp_store::Store;
use serde::Serialize;

/// CLI options shared by the perf-tracking harnesses (`bench_dataset_build`,
/// `bench_loocv_train`): which worker counts to measure, how much of the
/// suite to use, and the optional speedup gate.
///
/// ```text
/// [--threads 1,2,4,8] [--apps N] [--machine haswell|skylake]
/// [--repeats N] [--min-speedup S:T] [--out PATH]
/// [--store DIR] [--force-rebuild] [--verify-store]
/// ```
pub struct PerfHarnessOptions {
    /// Worker counts to measure (`--threads`, default `1,2,4,8`). The
    /// 1-worker run is always the determinism anchor and speedup
    /// denominator.
    pub threads: Vec<usize>,
    /// Truncate the application suite to the first `N` apps (`--apps`).
    pub apps: Option<usize>,
    /// Machine model to measure on (`--machine`, default haswell).
    pub machine: MachineSpec,
    /// Best-of-`N` timing repeats (`--repeats`, default 1).
    pub repeats: usize,
    /// `Some((s, t))` (`--min-speedup S:T`): require speedup ≥ `s` at `t`
    /// workers; see [`enforce_min_speedup`].
    pub min_speedup: Option<(f64, usize)>,
    /// Output path of the timing JSON (`--out`).
    pub out: String,
    /// Artifact-store directory (`--store`; `PNP_STORE` is the fallback,
    /// applied by [`PerfHarnessOptions::open_store`]). How a harness uses
    /// the store is harness-specific: a harness never serves the quantity
    /// it *measures* from the cache.
    pub store: Option<String>,
    /// `--force-rebuild`: ignore and overwrite cached artifacts.
    pub force_rebuild: bool,
    /// `--verify-store`: byte-compare cached artifacts against fresh
    /// computations on every hit.
    pub verify_store: bool,
}

impl PerfHarnessOptions {
    /// Parses the process arguments, with the harness-specific default
    /// output path. Panics with a usage message on unknown or malformed
    /// flags — a perf harness should refuse, not guess.
    pub fn parse(default_out: &str) -> Self {
        Self::parse_from(std::env::args().skip(1).collect(), default_out)
    }

    fn parse_from(args: Vec<String>, default_out: &str) -> Self {
        let mut opts = PerfHarnessOptions {
            threads: vec![1, 2, 4, 8],
            apps: None,
            machine: haswell(),
            repeats: 1,
            min_speedup: None,
            out: default_out.to_string(),
            store: None,
            force_rebuild: false,
            verify_store: false,
        };
        let value = |args: &[String], i: usize, flag: &str| -> String {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--threads" => {
                    let v = value(&args, i, "--threads");
                    opts.threads = v
                        .split(',')
                        .map(|s| s.trim().parse().expect("--threads takes e.g. 1,2,4,8"))
                        .collect();
                    i += 2;
                }
                "--apps" => {
                    opts.apps = Some(value(&args, i, "--apps").parse().expect("--apps N"));
                    i += 2;
                }
                "--machine" => {
                    opts.machine = match value(&args, i, "--machine").as_str() {
                        "haswell" => haswell(),
                        "skylake" => skylake(),
                        other => panic!("unknown machine {other:?} (haswell|skylake)"),
                    };
                    i += 2;
                }
                "--repeats" => {
                    opts.repeats = value(&args, i, "--repeats").parse().expect("--repeats N");
                    i += 2;
                }
                "--min-speedup" => {
                    let v = value(&args, i, "--min-speedup");
                    let (s, t) = v.split_once(':').expect("--min-speedup S:T, e.g. 2.0:4");
                    opts.min_speedup = Some((
                        s.parse().expect("--min-speedup: S must be a float"),
                        t.parse().expect("--min-speedup: T must be a thread count"),
                    ));
                    i += 2;
                }
                "--out" => {
                    opts.out = value(&args, i, "--out");
                    i += 2;
                }
                "--store" => {
                    opts.store = Some(value(&args, i, "--store"));
                    i += 2;
                }
                "--force-rebuild" => {
                    opts.force_rebuild = true;
                    i += 1;
                }
                "--verify-store" => {
                    opts.verify_store = true;
                    i += 1;
                }
                other => panic!("unknown argument {other:?}"),
            }
        }
        assert!(!opts.threads.is_empty(), "--threads list must be non-empty");
        assert!(opts.repeats >= 1, "--repeats must be at least 1");
        opts
    }

    /// Opens the artifact store these options name (or the `PNP_STORE`
    /// fallback); `None` when no store is configured.
    pub fn open_store(&self) -> Option<ArtifactStore> {
        open_store(self.store.clone(), self.force_rebuild, self.verify_store)
    }
}

/// Applies the `--min-speedup S:T` perf gate shared by the harnesses: the
/// measured run at `t` workers (from `runs`, a `(workers, speedup_vs_1t)`
/// list) must reach speedup ≥ `s`, guarding against a fan-out silently
/// degenerating to serial — which no output comparison can catch. Exits the
/// process with status 1 on failure. The gate is skipped with a warning when
/// the host has fewer than `t` cores (`available`), where the speedup
/// physically cannot materialize. `tag` prefixes the log lines
/// (e.g. `"bench_loocv_train"`).
pub fn enforce_min_speedup(
    tag: &str,
    min_speedup: Option<(f64, usize)>,
    runs: &[(usize, f64)],
    available: usize,
) {
    let Some((min, at_threads)) = min_speedup else {
        return;
    };
    let &(_, speedup) = runs
        .iter()
        .find(|(threads, _)| *threads == at_threads)
        .unwrap_or_else(|| {
            panic!("--min-speedup references {at_threads} threads, not in --threads list")
        });
    if available < at_threads {
        eprintln!(
            "[{tag}] skipping --min-speedup gate: host has {available} core(s), \
             {at_threads} are needed for the speedup to materialize"
        );
    } else if speedup < min {
        eprintln!(
            "[{tag}] FAIL: speedup at {at_threads} threads is {speedup:.2}x, \
             required >= {min:.2}x — the parallel fan-out may have degenerated to serial"
        );
        std::process::exit(1);
    } else {
        eprintln!(
            "[{tag}] speedup gate passed: {speedup:.2}x >= {min:.2}x at {at_threads} threads"
        );
    }
}

/// Resolves everything an experiment binary needs from its command line
/// and environment, printing each choice so experiment logs record it:
///
/// * the training settings — `PNP_FULL=1` for the paper-fidelity
///   configuration, quick otherwise;
/// * the LOOCV training worker count (`TrainSettings::train_threads`) —
///   `--train-threads N` (or `--train-threads=N`) wins, then
///   `PNP_TRAIN_THREADS`, then auto (one worker per core). Training outputs
///   are bit-identical for every value (DESIGN.md §10);
/// * the exhaustive-sweep worker count — `--sweep-threads N` (or `=N`) wins,
///   then `PNP_SWEEP_THREADS`, then auto. The dataset is bit-identical for
///   every value;
/// * the content-addressed artifact store (DESIGN.md §12) — `--store DIR`
///   wins, then `PNP_STORE`; unset means no store (every pipeline
///   recomputes). `--force-rebuild` / `PNP_STORE_FORCE=1` ignores and
///   overwrites cached artifacts; `--verify-store` / `PNP_STORE_VERIFY=1`
///   recomputes on every hit and byte-compares against the cached payload.
pub fn from_env_and_args() -> (TrainSettings, RunCtx) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    from_args(&args)
}

/// [`from_env_and_args`] over an explicit argument list.
fn from_args(args: &[String]) -> (TrainSettings, RunCtx) {
    let mut settings = TrainSettings::from_env();
    let mode = if settings.folds >= 30 {
        "FULL"
    } else {
        "quick"
    };
    eprintln!(
        "[pnp-bench] {mode} settings: {} folds, {} epochs, hidden {}, {} RGCN layers",
        settings.folds, settings.epochs, settings.hidden_dim, settings.rgcn_layers
    );
    settings.train_threads = threads_flag_from(args, "--train-threads", Threads::from_train_env());
    eprintln!("[pnp-bench] training workers: {}", settings.train_threads);
    let sweep_threads = threads_flag_from(args, "--sweep-threads", Threads::from_env());
    eprintln!("[pnp-bench] sweep workers: {sweep_threads}");
    let store = open_store(
        string_flag_from(args, "--store"),
        bool_flag_from(args, "--force-rebuild"),
        bool_flag_from(args, "--verify-store"),
    );
    (
        settings,
        RunCtx {
            sweep_threads,
            store,
        },
    )
}

/// Unwraps a driver's result, or prints the error and exits with status 1
/// (the figure/table binaries' failure path on a degenerate suite).
pub fn or_exit<T>(tag: &str, result: Result<T, ExperimentError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("[{tag}] FAIL: {e}");
        std::process::exit(1);
    })
}

/// Picks a `Threads` knob named `flag` out of an argument list (both
/// `--flag N` and `--flag=N` forms), falling back to `fallback` when the
/// flag is absent or unparseable (a long experiment should degrade, not
/// abort, on a typo'd knob).
fn threads_flag_from(args: &[String], flag: &str, fallback: Threads) -> Threads {
    let inline = format!("{flag}=");
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix(&inline) {
            return Threads::parse(v).unwrap_or(fallback);
        }
        if arg == flag {
            return args
                .get(i + 1)
                .and_then(|v| Threads::parse(v))
                .unwrap_or(fallback);
        }
    }
    fallback
}

/// Scans an argument list for a `--flag V` / `--flag=V` string value.
/// Public because the `pnp-serve` binaries reuse the experiment CLI idiom.
pub fn string_flag_from(args: &[String], flag: &str) -> Option<String> {
    let inline = format!("{flag}=");
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix(&inline) {
            return Some(v.to_string());
        }
        if arg == flag {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// True when a boolean `--flag` is present in the argument list.
/// Public because the `pnp-serve` binaries reuse the experiment CLI idiom.
pub fn bool_flag_from(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The `q`-th percentile (0–100) of a sample set by nearest-rank on a sorted
/// copy — the definition the serve-path latency report (`BENCH_serve.json`
/// p50/p99) uses. NaNs are rejected by assertion (a NaN latency means the
/// harness itself is broken); an empty sample set returns 0.0 so a
/// zero-request smoke run still renders a report.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=100.0).contains(&q), "percentile q={q} out of range");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    assert!(
        !sorted.iter().any(|s| s.is_nan()),
        "NaN latency sample: the harness clock is broken"
    );
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Shared store opener: an explicit `--store` directory wins, then
/// `PNP_STORE`; the CLI mode flags are OR-ed on top of the environment
/// modes, whose semantics live in one place — [`Store::with_env_modes`] /
/// [`Store::from_env`] — so the CLI and library paths cannot drift.
fn open_store(dir: Option<String>, force_flag: bool, verify_flag: bool) -> Option<ArtifactStore> {
    let base = match dir {
        Some(d) => Store::open(d).with_env_modes(),
        None => Store::from_env()?,
    };
    let force = base.force_rebuild() || force_flag;
    let verify = base.verify() || verify_flag;
    let store = base.with_force_rebuild(force).with_verify(verify);
    eprintln!(
        "[pnp-bench] artifact store: {} (force_rebuild={force}, verify={verify})",
        store.root().display()
    );
    Some(ArtifactStore::new(store))
}

/// Prints a store's end-of-run hit/miss tally. Returns `true` when verify
/// mode found cached bytes differing from fresh computations — a broken
/// cache-key contract the calling binary should turn into a non-zero exit.
pub fn report_store_stats(tag: &str, store: &ArtifactStore) -> bool {
    let s = store.stats();
    eprintln!(
        "[{tag}] store: {} hit(s), {} miss(es), {} write(s), {} corrupt, \
         {} verified, {} verify mismatch(es)",
        s.hits, s.misses, s.writes, s.corrupt, s.verified, s.verify_mismatches
    );
    s.verify_mismatches > 0
}

/// Measurement provenance stamped into the perf-trajectory JSONs
/// (`BENCH_dataset_build.json` / `BENCH_loocv_train.json`), mirroring the
/// context header of `VALIDATION.json`: which commit produced the numbers,
/// under which store-key schema, on how many cores — so trajectory points
/// are attributable long after the run.
#[derive(Clone, Debug, Serialize)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the measured tree (falls back to the
    /// `GITHUB_SHA` environment variable, then `"unknown"`).
    pub git_sha: String,
    /// [`pnp_store::SCHEMA_VERSION`] the binary was built with.
    pub store_schema_version: u32,
    /// `std::thread::available_parallelism` of the measuring host — without
    /// spare cores the speedups cannot materialize (the ROADMAP's 1-core
    /// container caveat travels with the data).
    pub available_parallelism: usize,
}

impl Provenance {
    /// Captures the current process's provenance.
    pub fn capture() -> Self {
        Provenance {
            git_sha: git_sha(),
            store_schema_version: pnp_store::SCHEMA_VERSION,
            available_parallelism: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }
}

/// The commit the working tree is at: `git rev-parse HEAD` (suffixed with
/// `-dirty` when the tree has uncommitted changes — numbers measured on a
/// dirty tree are not reproducible from the stamped commit), then the
/// `GITHUB_SHA` environment variable (detached CI checkouts), then
/// `"unknown"` — a perf harness must not fail because git is absent.
pub fn git_sha() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    git(&["rev-parse", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .map(|sha| {
            let dirty =
                git(&["status", "--porcelain"]).is_some_and(|status| !status.trim().is_empty());
            if dirty {
                format!("{sha}-dirty")
            } else {
                sha
            }
        })
        .or_else(|| std::env::var("GITHUB_SHA").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints a standard header naming the figure/table being regenerated.
pub fn banner(artefact: &str, description: &str) {
    println!("==============================================================");
    println!("{artefact}: {description}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_settings_are_quick() {
        std::env::remove_var("PNP_FULL");
        let (s, _) = from_args(&[]);
        assert!(s.folds < 30);
    }

    #[test]
    fn threads_flag_cli_forms_are_accepted() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for flag in ["--sweep-threads", "--train-threads"] {
            assert_eq!(
                threads_flag_from(&args(&[flag, "4"]), flag, Threads::Auto),
                Threads::Fixed(4)
            );
            assert_eq!(
                threads_flag_from(&args(&[&format!("{flag}=2")]), flag, Threads::Auto),
                Threads::Fixed(2)
            );
            assert_eq!(
                threads_flag_from(&args(&[&format!("{flag}=auto")]), flag, Threads::Fixed(3)),
                Threads::Auto
            );
            // No flag, or an unparseable value: the fallback wins.
            assert_eq!(
                threads_flag_from(&args(&["--other"]), flag, Threads::Fixed(8)),
                Threads::Fixed(8)
            );
            assert_eq!(
                threads_flag_from(&args(&[flag, "lots"]), flag, Threads::Auto),
                Threads::Auto
            );
        }
        // The two knobs do not shadow each other.
        assert_eq!(
            threads_flag_from(
                &args(&["--sweep-threads", "4"]),
                "--train-threads",
                Threads::Fixed(2)
            ),
            Threads::Fixed(2)
        );
    }

    #[test]
    fn from_args_resolves_both_worker_knobs_and_the_store() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let dir = std::env::temp_dir().join(format!("pnp-bench-ctx-{}", std::process::id()));
        let (settings, ctx) = from_args(&args(&[
            "--sweep-threads",
            "3",
            "--train-threads=2",
            "--store",
            dir.to_str().unwrap(),
            "--verify-store",
        ]));
        assert_eq!(ctx.sweep_threads, Threads::Fixed(3));
        assert_eq!(settings.train_threads, Threads::Fixed(2));
        let store = ctx.store.expect("--store opens a store");
        assert_eq!(store.store().root(), dir.as_path());
        assert!(store.store().verify());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_harness_options_parse_and_default() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let defaults = PerfHarnessOptions::parse_from(Vec::new(), "X.json");
        assert_eq!(defaults.threads, vec![1, 2, 4, 8]);
        assert_eq!(defaults.apps, None);
        assert_eq!(defaults.machine.name, "haswell");
        assert_eq!(defaults.repeats, 1);
        assert_eq!(defaults.min_speedup, None);
        assert_eq!(defaults.out, "X.json");

        let opts = PerfHarnessOptions::parse_from(
            args(&[
                "--threads",
                "1,4",
                "--apps",
                "6",
                "--machine",
                "skylake",
                "--repeats",
                "2",
                "--min-speedup",
                "1.3:4",
                "--out",
                "smoke.json",
            ]),
            "X.json",
        );
        assert_eq!(opts.threads, vec![1, 4]);
        assert_eq!(opts.apps, Some(6));
        assert_eq!(opts.machine.name, "skylake");
        assert_eq!(opts.repeats, 2);
        assert_eq!(opts.min_speedup, Some((1.3, 4)));
        assert_eq!(opts.out, "smoke.json");
        assert_eq!(opts.store, None);
        assert!(!opts.force_rebuild && !opts.verify_store);

        let opts = PerfHarnessOptions::parse_from(
            args(&["--store", "pnp-store", "--force-rebuild", "--verify-store"]),
            "X.json",
        );
        assert_eq!(opts.store.as_deref(), Some("pnp-store"));
        assert!(opts.force_rebuild && opts.verify_store);
    }

    #[test]
    fn store_flags_are_scanned_from_arbitrary_argument_lists() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            string_flag_from(&args(&["--apps", "6", "--store", "dir"]), "--store").as_deref(),
            Some("dir")
        );
        assert_eq!(
            string_flag_from(&args(&["--store=dir"]), "--store").as_deref(),
            Some("dir")
        );
        assert_eq!(string_flag_from(&args(&["--apps", "6"]), "--store"), None);
        assert!(bool_flag_from(&args(&["--verify-store"]), "--verify-store"));
        assert!(!bool_flag_from(&args(&[]), "--verify-store"));
        // An explicit directory opens a store without consulting PNP_STORE.
        let store = open_store(Some("/tmp/pnp-bench-flag-test".into()), true, false)
            .expect("explicit dir opens");
        assert!(store.store().force_rebuild());
        assert!(!store.store().verify());
    }

    #[test]
    fn percentile_follows_nearest_rank() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 99.0), 5.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn percentile_is_bitwise_pinned_on_ties_and_signed_zero() {
        // `total_cmp` orders -0.0 below 0.0, so the nearest-rank picks are
        // pinned bit for bit even across sign-of-zero ties.
        let samples = [0.0, -0.0, 0.0, -0.0];
        assert_eq!(percentile(&samples, 50.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(percentile(&samples, 100.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "NaN latency sample")]
    fn percentile_rejects_nan_samples() {
        percentile(&[1.0, f64::NAN], 50.0);
    }

    #[test]
    fn provenance_capture_is_well_formed() {
        let p = Provenance::capture();
        assert!(!p.git_sha.is_empty());
        assert_eq!(p.store_schema_version, pnp_store::SCHEMA_VERSION);
        assert!(p.available_parallelism >= 1);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn perf_harness_options_reject_unknown_flags() {
        PerfHarnessOptions::parse_from(vec!["--what".into()], "X.json");
    }
}
