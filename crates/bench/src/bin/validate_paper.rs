//! Paper-fidelity validation harness: drives every figure/table experiment
//! through its driver's `run` entry point (via `pnp_core::validate::run`),
//! evaluates the
//! machine-checkable invariants of `pnp_core::validate` (DESIGN.md §11), and
//! writes the verdicts as `VALIDATION.json`.
//!
//! ```text
//! validate_paper [--apps N] [--out PATH] [--sweep-threads N] [--train-threads N]
//!                [--store DIR] [--force-rebuild] [--verify-store]
//!                [--ood-seed S] [--ood-kernels N]
//! ```
//!
//! Exits non-zero when any invariant fails that is not a documented
//! `expected_fail` (DESIGN.md §11) — CI runs `--apps 6` as the fidelity
//! gate; the full 30-application suite is the default locally. The report
//! header stamps `available_parallelism` so trajectory consumers can see the
//! measurement context (the dev containers here are 1-core).
//!
//! With `--store DIR` (or `PNP_STORE`), datasets and trained-model grids
//! come from the content-addressed artifact store when warm — a second run
//! is load-and-evaluate with a byte-identical verdict list (DESIGN.md §12).
//! `--verify-store` additionally recomputes on every hit and byte-compares;
//! a mismatch (broken key contract) also exits non-zero.
//!
//! `--ood-seed` / `--ood-kernels` choose the generated out-of-distribution
//! corpus the `ood.*` invariants gate (DESIGN.md §13); the defaults pin the
//! byte-identical corpus CI scores.

use pnp_bench::{banner, from_env_and_args, report_store_stats};
use pnp_core::validate::{self, DEFAULT_OOD_KERNELS, DEFAULT_OOD_SEED};

/// The flags this binary understands that take one value (`--flag V` or
/// `--flag=V`): its own `--apps`/`--out`/`--ood-*`, plus the worker-count
/// and store knobs `pnp_bench::from_env_and_args` scans the argument list
/// for.
const KNOWN_FLAGS: [&str; 7] = [
    "--apps",
    "--out",
    "--sweep-threads",
    "--train-threads",
    "--store",
    "--ood-seed",
    "--ood-kernels",
];

/// Valueless boolean flags (consumed by `pnp_bench::from_env_and_args`).
const KNOWN_BOOL_FLAGS: [&str; 2] = ["--force-rebuild", "--verify-store"];

/// Extracts the known flags and rejects everything else — a fidelity gate
/// should refuse, not guess: a typo'd `--app 6` silently validating the
/// full 30-application suite would gate CI on the wrong scope.
fn parse_args(args: &[String]) -> std::collections::BTreeMap<String, String> {
    let mut values = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if KNOWN_BOOL_FLAGS.contains(&arg.as_str()) {
            values.insert(arg.clone(), "1".to_string());
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
        if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
            values.insert(flag.to_string(), v.to_string());
            i += 1;
        } else {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"));
            values.insert(flag.to_string(), v.clone());
            i += 2;
        }
    }
    values
}

fn main() {
    banner(
        "Paper-fidelity validation",
        "machine-checks every figure/table against the paper's qualitative trends",
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let values = parse_args(&args);
    let mut apps = pnp_benchmarks::full_suite();
    if let Some(n) = values.get("--apps") {
        apps.truncate(n.parse().expect("--apps N"));
    }
    let out = values
        .get("--out")
        .cloned()
        .unwrap_or_else(|| "VALIDATION.json".to_string());

    let ood_seed = values
        .get("--ood-seed")
        .map(|v| v.parse().expect("--ood-seed S"))
        .unwrap_or(DEFAULT_OOD_SEED);
    let ood_kernels = values
        .get("--ood-kernels")
        .map(|v| v.parse().expect("--ood-kernels N"))
        .unwrap_or(DEFAULT_OOD_KERNELS);

    let (settings, ctx) = from_env_and_args();
    let report = validate::run(&apps, &settings, &ctx, ood_seed, ood_kernels);
    println!("{}", report.render());
    if let Some(ood) = &report.ood {
        println!("{}", ood.render());
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write VALIDATION.json");
    eprintln!("[validate_paper] wrote {out}");

    if let Some(store) = &ctx.store {
        if report_store_stats("validate_paper", store) {
            eprintln!(
                "[validate_paper] FAIL: --verify-store found cached artifacts whose bytes \
                 differ from fresh computations (broken cache-key contract, DESIGN.md §12)"
            );
            std::process::exit(1);
        }
    }

    let hard = report.hard_failures();
    if !hard.is_empty() {
        eprintln!(
            "[validate_paper] FAIL: {} invariant(s) diverge from the paper without a \
             documented DESIGN.md §11 gap:",
            hard.len()
        );
        for inv in hard {
            eprintln!(
                "  {} ({}): {} — observed {}",
                inv.id, inv.citation, inv.claim, inv.observed
            );
        }
        std::process::exit(1);
    }
    if report.unexpected_passed > 0 {
        eprintln!(
            "[validate_paper] note: {} expected_fail invariant(s) now pass — \
             prune pnp_core::validate::EXPECTED_FAIL and DESIGN.md §11",
            report.unexpected_passed
        );
    }
    eprintln!("[validate_paper] all non-expected invariants hold");
}
