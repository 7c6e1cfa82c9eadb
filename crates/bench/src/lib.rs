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
//! This library crate hosts the helpers shared by the binaries, including
//! the one perf-trajectory schema ([`Trajectory`]) that the `bench_*`
//! harnesses and `pnp_load` write, and the best-of-repeats [`sweep`] the
//! offline harnesses measure with.

use pnp_core::artifact::ArtifactStore;
use pnp_core::experiments::{ExperimentError, RunCtx};
use pnp_core::training::TrainSettings;
use pnp_machine::{haswell, skylake, MachineSpec};
use pnp_openmp::Threads;
use pnp_store::Store;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// CLI options shared by the offline perf harnesses (`bench_dataset_build`,
/// `bench_loocv_train`, `bench_inference`): which worker counts to measure,
/// how much of the suite to use, where inputs come from, and the optional
/// speedup gate.
///
/// ```text
/// [--threads 1,2,4,8] [--apps N] [--machine haswell|skylake]
/// [--repeats N] [--min-speedup S:T] [--out PATH]
/// [--store DIR] [--force-rebuild] [--verify-store]
/// ```
pub struct PerfHarnessOptions {
    /// Worker counts to measure (`--threads`, default `1,2,4,8`). [`sweep`]
    /// always measures 1 worker first, as the determinism anchor and
    /// speedup denominator.
    pub threads: Vec<usize>,
    /// Truncate the application suite to the first `N` apps (`--apps`).
    pub apps: Option<usize>,
    /// Machine model to measure on (`--machine`, default haswell).
    pub machine: MachineSpec,
    /// Best-of-`N` timing repeats (`--repeats`, default 1).
    pub repeats: usize,
    /// `Some((s, t))` (`--min-speedup S:T`): require speedup ≥ `s` at `t`
    /// workers; see [`Trajectory::check`].
    pub min_speedup: Option<(f64, usize)>,
    /// Output path of the trajectory JSON (`--out`).
    pub out: String,
    /// Where the harness's *inputs* come from: `--store DIR` (`PNP_STORE`
    /// is the fallback), `--force-rebuild` and `--verify-store` open the
    /// artifact store, and [`RunCtx::dataset`] serves the dataset from it.
    /// A harness never serves the quantity it *measures* from the cache.
    pub ctx: RunCtx,
}

const PERF_HARNESS_USAGE: &str = "[--threads 1,2,4,8] [--apps N] [--machine haswell|skylake] \
     [--repeats N] [--min-speedup S:T] [--out PATH] [--store DIR] [--force-rebuild] [--verify-store]";

impl PerfHarnessOptions {
    /// Parses the process arguments, with the harness-specific default
    /// output path. Prints the usage message and exits with status 2 on
    /// unknown or malformed flags: a perf harness should refuse, not guess.
    pub fn parse(default_out: &str) -> Self {
        Self::parse_from(std::env::args().skip(1), default_out)
            .unwrap_or_else(|e| usage_exit(PERF_HARNESS_USAGE, &e))
    }

    /// [`PerfHarnessOptions::parse`] over an explicit argument list.
    fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
    ) -> Result<Self, String> {
        let mut threads = vec![1, 2, 4, 8];
        let mut apps = None;
        let mut machine = haswell();
        let mut repeats = 1;
        let mut min_speedup = None;
        let mut out = default_out.to_string();
        let (mut store, mut force_rebuild, mut verify_store) = (None, false, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--threads" => {
                    threads = value()?
                        .split(',')
                        .map(|s| parse_num(s.trim(), "--threads"))
                        .collect::<Result<_, _>>()?;
                }
                "--apps" => apps = Some(parse_num(&value()?, "--apps")?),
                "--machine" => {
                    machine = match value()?.as_str() {
                        "haswell" => haswell(),
                        "skylake" => skylake(),
                        other => {
                            return Err(format!("unknown machine {other:?} (haswell|skylake)"))
                        }
                    };
                }
                "--repeats" => repeats = parse_num(&value()?, "--repeats")?,
                // Validated once the worker list is known.
                "--min-speedup" => min_speedup = Some(value()?),
                "--out" => out = value()?,
                "--store" => store = Some(value()?),
                "--force-rebuild" => force_rebuild = true,
                "--verify-store" => verify_store = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if threads.contains(&0) {
            return Err("--threads takes positive worker counts, e.g. 1,2,4,8".into());
        }
        if repeats == 0 {
            return Err("--repeats must be at least 1".into());
        }
        let min_speedup = min_speedup
            .map(|v| parse_min_speedup(&v, &sweep_workers(&threads)))
            .transpose()?;
        Ok(PerfHarnessOptions {
            threads,
            apps,
            machine,
            repeats,
            min_speedup,
            out,
            ctx: RunCtx {
                sweep_threads: Threads::Auto,
                store: open_store(store, force_rebuild, verify_store),
            },
        })
    }

    /// The offline harnesses' tail: prints the store's hit/miss tally, then
    /// [`Trajectory::write_and_gate`]s against `--out` and `--min-speedup`.
    /// Exits with status 1 when verify mode found cached bytes differing
    /// from fresh computations (a broken cache-key contract, DESIGN.md §12).
    pub fn finish(&self, trajectory: &Trajectory) {
        let tag = &trajectory.bench;
        let mismatched = self
            .ctx
            .store
            .as_ref()
            .is_some_and(|store| report_store_stats(tag, store));
        trajectory.write_and_gate(&self.out, self.min_speedup);
        if mismatched {
            fail(
                tag,
                "--verify-store found cached bytes differing from fresh computations",
            );
        }
    }
}

/// Parses one numeric flag value, naming the flag on error.
fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?} as a number"))
}

/// Parses a `--min-speedup S:T` value against the worker counts a run
/// measures: `T` must be one of them, and so must 1, the anchor every
/// `speedup_vs_1w` is measured against.
pub fn parse_min_speedup(value: &str, workers: &[usize]) -> Result<(f64, usize), String> {
    let (s, t) = value
        .split_once(':')
        .ok_or_else(|| format!("--min-speedup takes S:T, e.g. 2.0:4, not {value:?}"))?;
    let (s, t) = (
        parse_num(s, "--min-speedup S")?,
        parse_num(t, "--min-speedup T")?,
    );
    if !workers.contains(&1) {
        return Err(format!(
            "--min-speedup needs the 1-worker anchor, but the worker list is {workers:?}"
        ));
    }
    if !workers.contains(&t) {
        return Err(format!(
            "--min-speedup references {t} workers, not in the worker list {workers:?}"
        ));
    }
    Ok((s, t))
}

/// Prints `err` and a usage line, then exits with status 2 (bad usage).
pub fn usage_exit(usage: &str, err: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    eprintln!("error: {err}\nusage: {program} {usage}");
    std::process::exit(2)
}

/// Prints a `FAIL` line under `tag` and exits with status 1.
fn fail(tag: &str, msg: &str) -> ! {
    eprintln!("[{tag}] FAIL: {msg}");
    std::process::exit(1)
}

/// One point of a perf trajectory: a measurement at a fixed worker count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Run {
    /// Worker count measured.
    pub workers: usize,
    /// Wall time of the headline quantity in seconds (best of the
    /// repeats, for the offline harnesses).
    pub wall_s: f64,
    /// Throughput relative to the `workers == 1` run; `None` without one.
    /// See [`anchor_speedups`].
    pub speedup_vs_1w: Option<f64>,
    /// Whether every output equalled the 1-worker anchor bit for bit;
    /// `None` when the bench has no identity contract.
    pub identical: Option<bool>,
    /// Bench-specific measurements, by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The one perf-trajectory schema every `BENCH_*.json` is written in
/// (DESIGN.md §9, "Perf trajectory").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trajectory {
    /// Benchmark identifier (`dataset_build`, `loocv_train`, `inference`,
    /// `serve`).
    pub bench: String,
    /// Who measured, at which commit, on how many cores.
    pub context: Provenance,
    /// Bench-specific parameters of the measurement (machine, suite size,
    /// batch shape, daemon counters, …).
    pub params: BTreeMap<String, Value>,
    /// One run per measured worker count.
    pub runs: Vec<Run>,
}

impl Trajectory {
    /// A trajectory of `runs`, stamped with this process's provenance.
    pub fn new(bench: &str, runs: Vec<Run>) -> Self {
        Trajectory {
            bench: bench.to_string(),
            context: Provenance::capture(),
            params: BTreeMap::new(),
            runs,
        }
    }

    /// Records the bench-specific parameter `name`.
    pub fn param<T: Serialize + ?Sized>(mut self, name: &str, value: &T) -> Self {
        self.params
            .insert(name.to_string(), serde_json::to_value(value));
        self
    }

    /// The shared gates. Fails when a run diverged from its 1-worker
    /// anchor, or when `min_speedup = Some((s, t))` and the run at `t`
    /// workers is below `s`× — a fan-out silently degenerating to serial,
    /// which no output comparison can catch. The speedup gate is skipped
    /// when the host has fewer than `t` cores, where the speedup cannot
    /// materialize. `Ok` carries the line to log.
    pub fn check(&self, min_speedup: Option<(f64, usize)>) -> Result<String, String> {
        let diverged: Vec<usize> = self
            .runs
            .iter()
            .filter(|r| r.identical == Some(false))
            .map(|r| r.workers)
            .collect();
        if !diverged.is_empty() {
            return Err(format!(
                "runs at {diverged:?} workers differ from the 1-worker anchor"
            ));
        }
        let Some((min, at)) = min_speedup else {
            return Ok("no --min-speedup gate set".into());
        };
        let available = self.context.available_parallelism;
        let speedup = self
            .runs
            .iter()
            .find(|r| r.workers == at)
            .ok_or_else(|| format!("no run at {at} workers to gate"))?
            .speedup_vs_1w
            .ok_or_else(|| format!("no 1-worker anchor to gate {at} workers against"))?;
        if available < at {
            Ok(format!(
                "skipping --min-speedup gate: host has {available} core(s), \
                 {at} are needed for the speedup to materialize"
            ))
        } else if speedup < min {
            Err(format!(
                "speedup at {at} workers is {speedup:.2}x, required >= {min:.2}x \
                 — the parallel fan-out may have degenerated to serial"
            ))
        } else {
            Ok(format!(
                "speedup gate passed: {speedup:.2}x >= {min:.2}x at {at} workers"
            ))
        }
    }

    /// Writes the trajectory to `out` as pretty JSON, prints it, and applies
    /// [`Trajectory::check`]. Exits with status 1 when the write or a gate
    /// fails.
    pub fn write_and_gate(&self, out: &str, min_speedup: Option<(f64, usize)>) {
        let tag = &self.bench;
        let json = serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| fail(tag, &format!("trajectory does not serialize: {e}")));
        if let Err(e) = std::fs::write(out, &json) {
            fail(tag, &format!("cannot write {out}: {e}"));
        }
        println!("{json}");
        eprintln!("[{tag}] wrote {out}");
        match self.check(min_speedup) {
            Ok(line) => eprintln!("[{tag}] {line}"),
            Err(e) => fail(tag, &e),
        }
    }
}

/// One timed repeat of an offline harness's measured closure. The harness
/// binary reads the clock; library code never does (the `wall-clock` lint
/// rule).
pub struct Sample<O> {
    /// Wall time of the headline quantity in seconds.
    pub wall_s: f64,
    /// Further timed quantities in seconds, by metric name.
    pub timed: BTreeMap<String, f64>,
    /// Outputs that must equal the anchor: the first output of the first
    /// 1-worker repeat.
    pub outputs: Vec<O>,
}

impl<O> Sample<O> {
    /// A sample with one timed quantity and one output.
    pub fn new(wall_s: f64, output: O) -> Self {
        Sample {
            wall_s,
            timed: BTreeMap::new(),
            outputs: vec![output],
        }
    }
}

/// The worker counts [`sweep`] measures: 1 first (the anchor), then the
/// rest of `threads` in order.
fn sweep_workers(threads: &[usize]) -> Vec<usize> {
    std::iter::once(1)
        .chain(threads.iter().copied().filter(|&w| w != 1))
        .collect()
}

/// Measures `measure(workers)` best-of-`repeats` at 1 worker, then at every
/// other count in `threads`. Each timed quantity keeps its own minimum over
/// the repeats (`wall_s`, and every [`Sample::timed`] entry as a metric), so
/// ratios between them belong after the sweep. A run is `identical` when
/// every output of every repeat equals the anchor, the first output of the
/// first 1-worker repeat; `speedup_vs_1w` is `wall_s(1) / wall_s`.
pub fn sweep<O: PartialEq>(
    threads: &[usize],
    repeats: usize,
    mut measure: impl FnMut(usize) -> Sample<O>,
) -> Vec<Run> {
    let mut anchor = None;
    let mut runs = Vec::new();
    for workers in sweep_workers(threads) {
        let mut wall_s = f64::INFINITY;
        let mut metrics = BTreeMap::new();
        let mut identical = true;
        for _ in 0..repeats.max(1) {
            let sample = measure(workers);
            wall_s = wall_s.min(sample.wall_s);
            for (name, secs) in sample.timed {
                let best = metrics.entry(name).or_insert(f64::INFINITY);
                *best = secs.min(*best);
            }
            for output in sample.outputs {
                match &anchor {
                    Some(first) => identical &= output == *first,
                    None => anchor = Some(output),
                }
            }
        }
        eprintln!("[sweep] {workers:>2} worker(s): {wall_s:.3} s  identical={identical}");
        runs.push(Run {
            workers,
            wall_s,
            speedup_vs_1w: None,
            identical: Some(identical),
            metrics,
        });
    }
    anchor_speedups(&mut runs, |r| 1.0 / r.wall_s);
    runs
}

/// Sets every run's `speedup_vs_1w` to `rate(run) / rate(anchor)`, where
/// the anchor is the `workers == 1` run and `rate` is higher-is-better
/// (throughput, or `1 / wall_s`). Without a 1-worker run, or when its rate
/// is not a positive finite number, every speedup is `None`.
pub fn anchor_speedups(runs: &mut [Run], rate: impl Fn(&Run) -> f64) {
    let anchor = runs
        .iter()
        .find(|r| r.workers == 1)
        .map(&rate)
        .filter(|a| a.is_finite() && *a > 0.0);
    for run in runs.iter_mut() {
        run.speedup_vs_1w = anchor.map(|a| rate(run) / a);
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
    let mut sorted = samples.to_vec();
    assert!(
        !sorted.iter().any(|s| s.is_nan()),
        "NaN latency sample: the harness clock is broken"
    );
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.saturating_sub(1).min(sorted.len().saturating_sub(1)))
        .copied()
        .unwrap_or(0.0)
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

/// Measurement provenance stamped into every perf trajectory (the
/// [`Trajectory::context`] of the four `BENCH_*.json` files), mirroring the
/// context header of `VALIDATION.json`: which commit produced the numbers,
/// under which store-key schema, on how many cores — so trajectory points
/// are attributable long after the run.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
        let defaults = PerfHarnessOptions::parse_from(Vec::new(), "X.json").unwrap();
        assert_eq!(defaults.threads, vec![1, 2, 4, 8]);
        assert_eq!(defaults.apps, None);
        assert_eq!(defaults.machine.name, "haswell");
        assert_eq!(defaults.repeats, 1);
        assert_eq!(defaults.min_speedup, None);
        assert_eq!(defaults.out, "X.json");
        assert_eq!(defaults.ctx.sweep_threads, Threads::Auto);

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
        )
        .unwrap();
        assert_eq!(opts.threads, vec![1, 4]);
        assert_eq!(opts.apps, Some(6));
        assert_eq!(opts.machine.name, "skylake");
        assert_eq!(opts.repeats, 2);
        assert_eq!(opts.min_speedup, Some((1.3, 4)));
        assert_eq!(opts.out, "smoke.json");

        let dir = std::env::temp_dir().join(format!("pnp-bench-opts-{}", std::process::id()));
        let opts = PerfHarnessOptions::parse_from(
            args(&[
                "--store",
                dir.to_str().unwrap(),
                "--force-rebuild",
                "--verify-store",
            ]),
            "X.json",
        )
        .unwrap();
        let store = opts.ctx.store.expect("--store opens a store");
        assert_eq!(store.store().root(), dir.as_path());
        assert!(store.store().force_rebuild() && store.store().verify());
    }

    #[test]
    fn perf_harness_options_reject_malformed_flags() {
        let parse = |v: &[&str]| {
            PerfHarnessOptions::parse_from(v.iter().map(|s| s.to_string()), "X.json").err()
        };
        assert!(parse(&["--apps"]).unwrap().contains("needs a value"));
        assert!(parse(&["--apps", "six"]).unwrap().contains("--apps"));
        assert!(parse(&["--machine", "epyc"])
            .unwrap()
            .contains("unknown machine"));
        assert!(parse(&["--threads", "1,0"]).unwrap().contains("positive"));
        assert!(parse(&["--repeats", "0"]).unwrap().contains("at least 1"));
        // The gated worker count must be measured; 1 always is.
        assert!(parse(&["--threads", "1,2", "--min-speedup", "2:4"])
            .unwrap()
            .contains("not in the worker list"));
        assert_eq!(parse(&["--min-speedup", "2:4", "--threads", "4"]), None);
    }

    #[test]
    fn min_speedup_requires_the_one_worker_anchor() {
        assert_eq!(parse_min_speedup("1.2:4", &[1, 4]), Ok((1.2, 4)));
        assert!(parse_min_speedup("1.2:8", &[4, 8])
            .unwrap_err()
            .contains("1-worker anchor"));
        assert!(parse_min_speedup("1.2:8", &[1, 4])
            .unwrap_err()
            .contains("not in the worker list"));
        assert!(parse_min_speedup("1.2", &[1]).unwrap_err().contains("S:T"));
    }

    fn run(workers: usize, wall_s: f64, throughput: f64) -> Run {
        Run {
            workers,
            wall_s,
            speedup_vs_1w: None,
            identical: None,
            metrics: BTreeMap::from([("throughput_rps".to_string(), throughput)]),
        }
    }

    fn throughput(r: &Run) -> f64 {
        r.metrics.get("throughput_rps").copied().unwrap_or(0.0)
    }

    #[test]
    fn speedups_anchor_on_the_one_worker_run_not_the_first() {
        let mut runs = vec![run(4, 1.0, 400.0), run(1, 1.0, 100.0), run(8, 1.0, 800.0)];
        anchor_speedups(&mut runs, throughput);
        let speedups: Vec<_> = runs.iter().map(|r| r.speedup_vs_1w).collect();
        assert_eq!(speedups, vec![Some(4.0), Some(1.0), Some(8.0)]);
    }

    #[test]
    fn speedups_are_null_without_a_one_worker_run() {
        let mut runs = vec![run(2, 1.0, 200.0), run(4, 1.0, 400.0)];
        anchor_speedups(&mut runs, throughput);
        assert!(runs.iter().all(|r| r.speedup_vs_1w.is_none()));
        // A 1-worker run that accepted nothing anchors nothing either.
        let mut runs = vec![run(1, 1.0, 0.0), run(2, 1.0, 200.0)];
        anchor_speedups(&mut runs, throughput);
        assert!(runs.iter().all(|r| r.speedup_vs_1w.is_none()));
    }

    #[test]
    fn sweep_measures_the_anchor_first_and_keeps_per_quantity_minima() {
        let mut calls = Vec::new();
        // Repeat 0 is fast on `wall_s`, repeat 1 on `other_s`: each
        // quantity keeps its own best.
        let runs = sweep(&[4, 2], 2, |workers| {
            calls.push(workers);
            let repeat = calls.iter().filter(|&&w| w == workers).count();
            let mut sample = Sample::new(if repeat == 1 { 1.0 } else { 3.0 }, 7u8);
            let other = if repeat == 1 { 5.0 } else { 2.0 };
            sample
                .timed
                .insert("other_s".into(), other / workers as f64);
            sample
        });
        assert_eq!(calls, vec![1, 1, 4, 4, 2, 2]);
        let workers: Vec<_> = runs.iter().map(|r| r.workers).collect();
        assert_eq!(workers, vec![1, 4, 2]);
        for r in &runs {
            assert_eq!(r.wall_s, 1.0);
            assert_eq!(r.metrics.get("other_s"), Some(&(2.0 / r.workers as f64)));
            assert_eq!(r.identical, Some(true));
            assert_eq!(r.speedup_vs_1w, Some(1.0));
        }
    }

    #[test]
    fn sweep_flags_a_diverging_run_and_the_gate_fails_it() {
        // Worker count 4 produces a different output on its second repeat;
        // every other output matches the anchor.
        let mut repeat_at_4 = 0;
        let runs = sweep(&[1, 2, 4], 2, |workers| {
            let output = if workers == 4 {
                repeat_at_4 += 1;
                repeat_at_4
            } else {
                1
            };
            Sample::new(1.0 / workers as f64, output)
        });
        let identical: Vec<_> = runs.iter().map(|r| r.identical).collect();
        assert_eq!(identical, vec![Some(true), Some(true), Some(false)]);
        let speedups: Vec<_> = runs.iter().map(|r| r.speedup_vs_1w).collect();
        assert_eq!(speedups, vec![Some(1.0), Some(2.0), Some(4.0)]);
        let err = Trajectory::new("test", runs).check(None).unwrap_err();
        assert!(err.contains("[4] workers differ"), "{err}");
    }

    #[test]
    fn sweep_compares_every_output_of_a_sample_to_the_anchor() {
        // A second output that disagrees with the first, even at 1 worker,
        // breaks identity: the anchor is the first output alone.
        let runs = sweep(&[1], 1, |_| {
            let mut sample = Sample::new(1.0, "single");
            sample.outputs.push("fused");
            sample
        });
        assert_eq!(runs[0].identical, Some(false));
    }

    #[test]
    fn speedup_gate_passes_fails_and_skips() {
        let mut runs = vec![run(1, 4.0, 0.0), run(4, 2.0, 0.0)];
        anchor_speedups(&mut runs, |r| 1.0 / r.wall_s);
        let mut t = Trajectory::new("test", runs);
        t.context.available_parallelism = 4;
        assert!(t.check(Some((1.5, 4))).unwrap().contains("passed"));
        assert!(t.check(Some((2.5, 4))).unwrap_err().contains("2.00x"));
        assert!(t.check(Some((1.5, 8))).unwrap_err().contains("no run at 8"));
        t.context.available_parallelism = 2;
        assert!(t.check(Some((2.5, 4))).unwrap().contains("skipping"));
        // Without a 1-worker anchor there is nothing to gate against.
        t.runs.remove(0);
        anchor_speedups(&mut t.runs, |r| 1.0 / r.wall_s);
        t.context.available_parallelism = 4;
        assert!(t.check(Some((1.5, 4))).unwrap_err().contains("anchor"));
    }

    #[test]
    fn trajectory_round_trips_through_json() {
        let mut runs = vec![run(1, 2.0, 50.0), run(2, 1.0, 100.0)];
        anchor_speedups(&mut runs, throughput);
        let t = Trajectory::new("test", runs)
            .param("machine", "haswell")
            .param("regions", &68usize);
        let json = serde_json::to_string_pretty(&t).unwrap();
        let back: Trajectory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.runs, t.runs);
        assert_eq!(back.params, t.params);
        assert_eq!(back.context.git_sha, t.context.git_sha);
        assert!(json.contains("\"speedup_vs_1w\": 2.0"), "{json}");
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
    fn perf_harness_options_reject_unknown_flags() {
        let err = PerfHarnessOptions::parse_from(vec!["--what".into()], "X.json").err();
        assert!(err.is_some_and(|e| e.contains("unknown argument")));
    }
}
