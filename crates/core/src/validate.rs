//! Paper-fidelity validation: the qualitative claims of every figure/table
//! of conf_ipps_DuttaCJ23, encoded as typed, machine-checkable invariants.
//!
//! Each invariant has a stable id, a figure/table citation, a human-readable
//! claim, and a pass/fail verdict computed from the experiments' *structured*
//! result types (no stdout scraping — every experiment module exposes
//! `…Summary`-level accessors for exactly this purpose). Invariants listed in
//! [`EXPECTED_FAIL`] are known modelling gaps documented in DESIGN.md §11:
//! they are reported but do not count as hard failures (and start counting as
//! [`InvariantStatus::UnexpectedPass`] the day the gap closes, so the list
//! cannot rot silently).
//!
//! The `validate_paper` binary in `pnp-bench` drives [`run`]
//! and writes the report as `VALIDATION.json`; the `validate` CI job fails
//! the build on any non-expected failure. `tests/validation_invariants.rs`
//! runs the same pipeline on a reduced 6-application suite.

use crate::dataset::Dataset;
use crate::experiments::ablations::AblationResults;
use crate::experiments::edp::EdpResults;
use crate::experiments::motivating::MotivatingResults;
use crate::experiments::ood::OodResults;
use crate::experiments::power_constrained::PowerConstrainedResults;
use crate::experiments::transfer::TransferResults;
use crate::experiments::unseen_power::UnseenPowerResults;
use crate::experiments::{self, ExperimentError, RunCtx};
use crate::report::TextTable;
use crate::training::{FoldPlan, TrainSettings};
use pnp_benchmarks::Application;
use pnp_graph::Vocabulary;
use pnp_machine::{haswell, skylake, MachineSpec};
use pnp_openmp::Threads;
use pnp_tuners::SearchSpace;
use serde::{Deserialize, Serialize};

/// The source paper every claim cites back to.
pub const PAPER: &str = "conf_ipps_DuttaCJ23";

/// Number of applications in the paper's full benchmark suite; validation
/// runs on fewer applications are "reduced" (the CI smoke uses 6) and get
/// the [`SuiteScope::ReducedOnly`] expected-fail entries in addition to the
/// [`SuiteScope::Any`] ones.
pub const FULL_SUITE_APPS: usize = 30;

/// Default generator seed for the out-of-distribution corpus (DESIGN.md
/// §13). Fixed so that every `validate_paper` run — and the CI gate — scores
/// the same byte-identical generated suite unless `--ood-seed` overrides it.
pub const DEFAULT_OOD_SEED: u64 = 0xD17A;

/// Default out-of-distribution corpus size: the ≥ 24-kernel acceptance
/// floor of ROADMAP item 4.
pub const DEFAULT_OOD_KERNELS: usize = 24;

/// Which suite sizes an [`EXPECTED_FAIL`] entry applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteScope {
    /// The gap shows on every suite size.
    Any,
    /// The gap only shows on the full 30-application suite.
    FullOnly,
    /// The gap only shows on reduced suites (< [`FULL_SUITE_APPS`] apps),
    /// where leave-applications-out folds have too few structural cousins
    /// to generalize from.
    ReducedOnly,
}

/// One documented modelling gap: the invariant id and the suite sizes it is
/// expected to fail on.
#[derive(Clone, Copy, Debug)]
pub struct ExpectedFailEntry {
    /// Invariant id the entry downgrades.
    pub id: &'static str,
    /// Suite sizes the failure is expected on.
    pub scope: SuiteScope,
}

/// Invariant ids that are *known* to diverge from the paper on this
/// reproduction, with each modelling gap documented in DESIGN.md §11. A
/// matching entry downgrades a failure to
/// [`InvariantStatus::ExpectedFail`] and upgrades a pass to
/// [`InvariantStatus::UnexpectedPass`] (a nudge to remove the entry and the
/// DESIGN.md paragraph together).
pub const EXPECTED_FAIL: &[ExpectedFailEntry] = &[
    // The reproduction's quick-budget GNN is far weaker than the paper's
    // fully-trained model, so the *absolute* oracle-proximity rates of the
    // PnP tuner trail BLISS/OpenTuner instead of beating them (the paper's
    // §IV-B headline). The directional claims (beats default, bounded by
    // the oracle) all hold; see DESIGN.md §11.1.
    ExpectedFailEntry {
        id: "fig2.pnp_competitive_with_search",
        scope: SuiteScope::Any,
    },
    ExpectedFailEntry {
        id: "fig3.pnp_competitive_with_search",
        scope: SuiteScope::Any,
    },
    // Extrapolating the normalized-power feature to the held-out Skylake
    // TDP leaves the unseen-cap geomean a hair at-or-under 1.0 (DESIGN.md
    // §11.2).
    ExpectedFailEntry {
        id: "fig4.pnp_beats_default_at_unseen_caps",
        scope: SuiteScope::Any,
    },
    // The quick-budget EDP model often picks default-equivalent points at
    // TDP on Haswell (speedup/greenup exactly 1.0 — *not* improvements
    // under the strict `fraction_above` semantics), so strictly-improved
    // applications/regions stay in the minority there; the Skylake twins
    // pass (DESIGN.md §11.3).
    ExpectedFailEntry {
        id: "edp.haswell.majority_greenup",
        scope: SuiteScope::FullOnly,
    },
    ExpectedFailEntry {
        id: "edp.haswell.majority_regions_improve",
        scope: SuiteScope::Any,
    },
    // On reduced suites the LOOCV folds hold out applications with no
    // structural cousins left in training, so a few directional per-cap
    // claims miss 1.0 (DESIGN.md §11.4).
    ExpectedFailEntry {
        id: "fig2.pnp_beats_default_every_cap",
        scope: SuiteScope::ReducedOnly,
    },
    // Out of distribution the suite-trained model reliably beats the default
    // (observed ~1.3x geomean, with >= 88 % of generated regions no-regret
    // at every cap), but it captures well under half of the oracle's
    // headroom (~28 % on the 6-app quick-budget run). The >= 50 % floor is
    // kept as the target; the gap is documented in DESIGN.md §13.1.
    ExpectedFailEntry {
        id: "ood.pnp_captures_oracle_headroom",
        scope: SuiteScope::Any,
    },
];

/// True when `id` is expected to fail on a suite of the given size.
pub fn is_expected_fail(id: &str, suite_apps: usize) -> bool {
    let reduced = suite_apps < FULL_SUITE_APPS;
    EXPECTED_FAIL.iter().any(|e| {
        e.id == id
            && match e.scope {
                SuiteScope::Any => true,
                SuiteScope::FullOnly => !reduced,
                SuiteScope::ReducedOnly => reduced,
            }
    })
}

/// Verdict for one invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InvariantStatus {
    /// The claim holds.
    Pass,
    /// The claim does not hold and is not a documented gap — a hard failure.
    Fail,
    /// The claim does not hold but the divergence is documented in
    /// DESIGN.md §11 ([`EXPECTED_FAIL`]).
    ExpectedFail,
    /// The claim holds although it is listed in [`EXPECTED_FAIL`] — the
    /// documentation is stale.
    UnexpectedPass,
}

/// One checked claim.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InvariantResult {
    /// Stable machine-readable id, e.g. `fig2.pnp_beats_default_every_cap`.
    pub id: String,
    /// Paper artefact the claim comes from, e.g. `Fig. 2 / §IV-B`.
    pub citation: String,
    /// The qualitative claim in prose.
    pub claim: String,
    /// Observed values backing the verdict.
    pub observed: String,
    /// Verdict.
    pub status: InvariantStatus,
}

/// The measurement context stamped into every report (the ROADMAP's 1-core
/// container caveat travels with the data: speedup-flavoured observations
/// from a host without spare cores should be read accordingly).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ValidationContext {
    /// `std::thread::available_parallelism()` of the measuring host.
    pub available_parallelism: usize,
    /// Number of applications in the evaluated suite.
    pub suite_apps: usize,
    /// Number of OpenMP regions per machine, `(machine, regions)`.
    pub suite_regions: Vec<(String, usize)>,
    /// Training-settings mode (`quick` or `full`).
    pub settings_mode: String,
    /// Epochs per trained model.
    pub epochs: usize,
    /// Cross-validation folds requested.
    pub folds: usize,
    /// Generator seed of the out-of-distribution corpus.
    pub ood_seed: u64,
    /// Number of generated kernels in the out-of-distribution corpus.
    pub ood_kernels: usize,
}

/// The full validation report (serialized as `VALIDATION.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Source paper id.
    pub paper: String,
    /// Measurement context (host parallelism, suite size, settings).
    pub context: ValidationContext,
    /// Every checked invariant, in check order.
    pub invariants: Vec<InvariantResult>,
    /// Number of passing invariants.
    pub passed: usize,
    /// Number of hard failures (not expected, not documented).
    pub failed: usize,
    /// Number of documented expected failures.
    pub expected_failed: usize,
    /// Number of stale [`EXPECTED_FAIL`] entries that now pass.
    pub unexpected_passed: usize,
    /// The out-of-distribution experiment results backing the `ood.*`
    /// verdicts (absent when the driver could not run, e.g. `--apps 0`).
    /// CI publishes this table to the step summary.
    pub ood: Option<OodResults>,
}

impl ValidationReport {
    /// The invariants that constitute hard failures.
    pub fn hard_failures(&self) -> Vec<&InvariantResult> {
        self.invariants
            .iter()
            .filter(|i| i.status == InvariantStatus::Fail)
            .collect()
    }

    /// Looks an invariant up by id.
    pub fn invariant(&self, id: &str) -> Option<&InvariantResult> {
        self.invariants.iter().find(|i| i.id == id)
    }

    /// Renders the report as an aligned text table plus a tally line.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["status", "invariant", "citation", "observed"]);
        for inv in &self.invariants {
            let status = match inv.status {
                InvariantStatus::Pass => "PASS",
                InvariantStatus::Fail => "FAIL",
                InvariantStatus::ExpectedFail => "XFAIL",
                InvariantStatus::UnexpectedPass => "XPASS",
            };
            t.row(&[
                status.to_string(),
                inv.id.clone(),
                inv.citation.clone(),
                inv.observed.clone(),
            ]);
        }
        format!(
            "{}\n{} passed, {} failed, {} expected-fail, {} unexpected-pass \
             ({} invariants; host parallelism {})\n",
            t.render(),
            self.passed,
            self.failed,
            self.expected_failed,
            self.unexpected_passed,
            self.invariants.len(),
            self.context.available_parallelism,
        )
    }
}

/// Accumulates invariant verdicts; [`Validator::check`] applies the
/// [`EXPECTED_FAIL`] downgrade/upgrade rules for the suite size it was
/// created for.
#[derive(Debug)]
pub struct Validator {
    results: Vec<InvariantResult>,
    suite_apps: usize,
}

impl Default for Validator {
    fn default() -> Self {
        Validator::new()
    }
}

impl Validator {
    /// Creates an empty validator for the full-suite expected-fail rules.
    pub fn new() -> Self {
        Validator::for_suite(FULL_SUITE_APPS)
    }

    /// Creates an empty validator for a suite of `suite_apps` applications
    /// (reduced suites get additional [`SuiteScope::ReducedOnly`] entries).
    pub fn for_suite(suite_apps: usize) -> Self {
        Validator {
            results: Vec::new(),
            suite_apps,
        }
    }

    /// Records one claim's verdict.
    pub fn check(&mut self, id: &str, citation: &str, claim: &str, pass: bool, observed: String) {
        let expected_fail = is_expected_fail(id, self.suite_apps);
        let status = match (pass, expected_fail) {
            (true, false) => InvariantStatus::Pass,
            (true, true) => InvariantStatus::UnexpectedPass,
            (false, true) => InvariantStatus::ExpectedFail,
            (false, false) => InvariantStatus::Fail,
        };
        self.results.push(InvariantResult {
            id: id.to_string(),
            citation: citation.to_string(),
            claim: claim.to_string(),
            observed,
            status,
        });
    }

    /// Finalizes the report with its measurement context.
    pub fn into_report(self, context: ValidationContext) -> ValidationReport {
        let count = |s: InvariantStatus| self.results.iter().filter(|i| i.status == s).count();
        ValidationReport {
            paper: PAPER.to_string(),
            passed: count(InvariantStatus::Pass),
            failed: count(InvariantStatus::Fail),
            expected_failed: count(InvariantStatus::ExpectedFail),
            unexpected_passed: count(InvariantStatus::UnexpectedPass),
            invariants: self.results,
            context,
            ood: None,
        }
    }
}

fn fmt_vec(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", cells.join(", "))
}

/// Table I checks: the structure of the tuning search space.
pub fn check_search_space(v: &mut Validator, machine: &MachineSpec, space: &SearchSpace) {
    let cite = "Table I";
    let tag = format!("table1.{}", machine.name);
    let per = space.thread_counts.len() * space.schedules.len() * space.chunk_sizes.len();
    let consistent = space.configs_per_power() == per
        && space.num_tuned_points() == per * space.power_levels.len()
        && space.num_valid_points() == space.num_tuned_points() + space.power_levels.len();
    v.check(
        &format!("{tag}.counts_consistent"),
        cite,
        "threads x schedules x chunks per cap; tuned = per-cap x caps; valid = tuned + defaults",
        consistent,
        format!(
            "per_cap={} tuned={} valid={}",
            space.configs_per_power(),
            space.num_tuned_points(),
            space.num_valid_points()
        ),
    );
    v.check(
        &format!("{tag}.paper_sizes"),
        cite,
        "126 configurations per cap, 504 tuned + 4 defaults = 508 valid points",
        space.configs_per_power() == 126
            && space.num_tuned_points() == 504
            && space.num_valid_points() == 508,
        format!(
            "per_cap={} tuned={} valid={}",
            space.configs_per_power(),
            space.num_tuned_points(),
            space.num_valid_points()
        ),
    );
    let ascending = space.power_levels.windows(2).all(|w| w[0] < w[1]);
    let positive = space.power_levels.iter().all(|&p| p > 0.0);
    let tops_at_tdp = space
        .power_levels
        .last()
        .is_some_and(|&p| (p - machine.tdp_watts).abs() < 1e-9);
    v.check(
        &format!("{tag}.power_levels"),
        cite,
        "4 positive, strictly ascending power caps, topping out at TDP",
        space.power_levels.len() == 4 && ascending && positive && tops_at_tdp,
        format!(
            "caps={} tdp={}",
            fmt_vec(&space.power_levels),
            machine.tdp_watts
        ),
    );
}

/// Table II checks: the training hyperparameters of the full configuration.
pub fn check_hyperparameters(v: &mut Validator) {
    let full = TrainSettings::full();
    let quick = TrainSettings::quick();
    v.check(
        "table2.full_matches_paper",
        "Table II",
        "paper-fidelity settings: 4 RGCN layers, batch 16, LOOCV over 30 applications",
        full.rgcn_layers == 4 && full.batch_size == 16 && full.folds == 30 && full.epochs >= 60,
        format!(
            "rgcn_layers={} batch={} folds={} epochs={}",
            full.rgcn_layers, full.batch_size, full.folds, full.epochs
        ),
    );
    v.check(
        "table2.quick_within_full",
        "Table II",
        "the quick configuration only shrinks the paper's budgets, never exceeds them",
        quick.epochs <= full.epochs
            && quick.hidden_dim <= full.hidden_dim
            && quick.rgcn_layers <= full.rgcn_layers
            && quick.folds <= full.folds,
        format!(
            "quick epochs/hidden/layers/folds = {}/{}/{}/{}",
            quick.epochs, quick.hidden_dim, quick.rgcn_layers, quick.folds
        ),
    );
}

/// Dataset-level physical invariants (the sweep both trains the model and
/// serves as the oracle, so its internal consistency underwrites every
/// figure).
pub fn check_dataset_invariants(v: &mut Validator, ds: &Dataset) {
    let tag = format!("dataset.{}", ds.machine.name);
    check_dataset_invariants_tagged(v, &tag, ds);
}

/// [`check_dataset_invariants`] under an explicit invariant-id prefix, so
/// the same physical checks can gate a second dataset of the *same* machine
/// (the synthetic OOD sweep) without colliding with the paper suite's ids.
pub fn check_dataset_invariants_tagged(v: &mut Validator, tag: &str, ds: &Dataset) {
    let cite = "§III (measurement methodology)";
    let num_powers = ds.space.power_levels.len();

    let mut oracle_monotone = true;
    let mut default_monotone = true;
    let mut oracle_bounds_default = true;
    let mut all_finite = true;
    let mut worst_violation = 0.0f64;
    for sweep in &ds.sweeps {
        for p in 0..num_powers {
            let best = sweep.best_time(p);
            let default = sweep.default_samples[p].time_s;
            if !(best > 0.0 && best.is_finite() && default > 0.0 && default.is_finite()) {
                all_finite = false;
            }
            // The tuned space does not contain the default chunk setting, so
            // allow a 5 % slack before calling the oracle worse than default.
            if best > default * 1.05 {
                oracle_bounds_default = false;
                worst_violation = worst_violation.max(best / default);
            }
            if p + 1 < num_powers {
                // More power headroom can only help (tiny float slack).
                if sweep.best_time(p + 1) > best * (1.0 + 1e-9) {
                    oracle_monotone = false;
                }
                if sweep.default_samples[p + 1].time_s > default * (1.0 + 1e-9) {
                    default_monotone = false;
                }
            }
        }
    }
    v.check(
        &format!("{tag}.times_finite_positive"),
        cite,
        "every sweep sample has finite positive time and energy",
        all_finite
            && ds
                .sweeps
                .iter()
                .flat_map(|s| s.samples.iter().flatten())
                .all(|s| s.time_s > 0.0 && s.time_s.is_finite() && s.energy_j > 0.0),
        format!("regions={} caps={}", ds.len(), num_powers),
    );
    v.check(
        &format!("{tag}.oracle_monotone_in_cap"),
        cite,
        "raising the power cap never slows the per-region oracle down",
        oracle_monotone,
        format!("monotone over {} regions x {} caps", ds.len(), num_powers),
    );
    v.check(
        &format!("{tag}.default_monotone_in_cap"),
        cite,
        "raising the power cap never slows the default configuration down",
        default_monotone,
        format!("monotone over {} regions x {} caps", ds.len(), num_powers),
    );
    v.check(
        &format!("{tag}.oracle_bounds_default"),
        cite,
        "the tuned oracle is never materially slower than the default configuration",
        oracle_bounds_default,
        if oracle_bounds_default {
            "oracle <= 1.05 x default everywhere".to_string()
        } else {
            format!("worst oracle/default ratio {worst_violation:.3}")
        },
    );
    let labels_valid = ds.sweeps.iter().all(|s| {
        (0..num_powers).all(|p| s.best_time_config(p) < ds.space.configs_per_power()) && {
            let (bp, bc) = s.best_edp_point();
            bp < num_powers && bc < ds.space.configs_per_power()
        }
    });
    v.check(
        &format!("{tag}.labels_in_range"),
        cite,
        "every training label indexes a real point of the Table I space",
        labels_valid,
        format!("classes_per_cap={}", ds.space.configs_per_power()),
    );
}

/// Figure 2/3 + §IV-B checks for one machine's power-constrained results.
pub fn check_power_constrained(v: &mut Validator, tag: &str, r: &PowerConstrainedResults) {
    let cite = if tag == "fig2" {
        "Fig. 2 / §IV-B"
    } else {
        "Fig. 3 / §IV-B"
    };
    let caps = r.power_caps();

    let pnp_per_cap: Vec<f64> = caps
        .iter()
        .filter_map(|&c| r.geomean_speedup("pnp_static", c))
        .collect();
    v.check(
        &format!("{tag}.pnp_beats_default_every_cap"),
        cite,
        "the static PnP tuner's geomean speedup over the default exceeds 1 at every cap",
        pnp_per_cap.len() == caps.len() && pnp_per_cap.iter().all(|&s| s > 1.0),
        fmt_vec(&pnp_per_cap),
    );

    let mut oracle_bounds = true;
    for &cap in &caps {
        let oracle = r.oracle_geomean(cap).unwrap_or(0.0);
        for tuner in ["pnp_static", "pnp_dynamic", "bliss", "opentuner"] {
            if r.geomean_speedup(tuner, cap).unwrap_or(f64::INFINITY) > oracle * (1.0 + 1e-9) {
                oracle_bounds = false;
            }
        }
    }
    v.check(
        &format!("{tag}.oracle_bounds_tuners"),
        cite,
        "no tuner's geomean speedup exceeds the oracle's at any cap",
        oracle_bounds,
        format!(
            "oracle={}",
            fmt_vec(
                &caps
                    .iter()
                    .filter_map(|&c| r.oracle_geomean(c))
                    .collect::<Vec<_>>()
            )
        ),
    );

    let normalized_ok = r
        .rows
        .iter()
        .flat_map(|row| row.normalized.iter())
        .all(|&n| (0.0..=1.0 + 1e-9).contains(&n));
    v.check(
        &format!("{tag}.normalized_in_unit_interval"),
        cite,
        "every oracle-normalized bar lies in [0, 1]",
        normalized_ok,
        format!(
            "{} rows x {} tuners",
            r.rows.len(),
            crate::experiments::power_constrained::TUNERS.len()
        ),
    );

    let oracles: Vec<f64> = caps.iter().filter_map(|&c| r.oracle_geomean(c)).collect();
    let headroom = oracles.first().zip(oracles.last());
    v.check(
        &format!("{tag}.headroom_grows_as_cap_shrinks"),
        cite,
        "tuning headroom (oracle geomean speedup) is largest at the most restrictive cap",
        headroom.is_some_and(|(lo, hi)| *lo >= hi * 0.98),
        fmt_vec(&oracles),
    );

    let execs = &r.summary.executions_per_case;
    let exec_of = |name: &str| {
        execs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| *e)
            .unwrap_or(f64::NAN)
    };
    v.check(
        &format!("{tag}.pnp_needs_no_search"),
        cite,
        "PnP tunes with 0 (static) / 2 (dynamic profiling) executions; the search-based tuners need many more",
        exec_of("pnp_static") == 0.0
            && exec_of("pnp_dynamic") <= 2.0
            && exec_of("bliss") > 2.0
            && exec_of("opentuner") > 2.0,
        format!(
            "static={} dynamic={} bliss={:.1} opentuner={:.1}",
            exec_of("pnp_static"),
            exec_of("pnp_dynamic"),
            exec_of("bliss"),
            exec_of("opentuner")
        ),
    );

    let rows_per_cap: Vec<usize> = caps.iter().map(|&c| r.rows_at(c).len()).collect();
    v.check(
        &format!("{tag}.rows_complete"),
        cite,
        "the figure has one bar group per (application, cap) pair — the same applications at every cap",
        !rows_per_cap.is_empty()
            && rows_per_cap.iter().all(|&n| n > 0 && n == rows_per_cap[0])
            && rows_per_cap.iter().sum::<usize>() == r.rows.len(),
        format!("rows={} per_cap={:?}", r.rows.len(), rows_per_cap),
    );

    let s = &r.summary;
    v.check(
        &format!("{tag}.pnp_competitive_with_search"),
        cite,
        "the static PnP tuner matches or beats the search-based tuners' oracle proximity",
        s.pnp_static_within_95 >= s.bliss_within_95
            && s.pnp_static_within_95 >= s.opentuner_within_95,
        format!(
            "within95: pnp={:.2} bliss={:.2} opentuner={:.2}",
            s.pnp_static_within_95, s.bliss_within_95, s.opentuner_within_95
        ),
    );
    v.check(
        &format!("{tag}.fractions_valid"),
        cite,
        "all §IV-B oracle-proximity and head-to-head fractions are valid probabilities",
        [
            s.pnp_static_within_95,
            s.pnp_dynamic_within_95,
            s.bliss_within_95,
            s.opentuner_within_95,
            s.pnp_beats_bliss,
            s.pnp_beats_opentuner,
        ]
        .iter()
        .all(|f| (0.0..=1.0).contains(f)),
        format!(
            "pnp95={:.2} dyn95={:.2} beats_bliss={:.2}",
            s.pnp_static_within_95, s.pnp_dynamic_within_95, s.pnp_beats_bliss
        ),
    );
}

/// Figure 4/5 checks: generalization to unseen power caps, compared against
/// the seen-cap results of the same machine.
pub fn check_unseen_power(
    v: &mut Validator,
    tag: &str,
    r: &UnseenPowerResults,
    seen: &PowerConstrainedResults,
) {
    let cite = if tag == "fig4" { "Fig. 4" } else { "Fig. 5" };
    let caps = r.held_out_caps();

    let mut beats_default = true;
    let mut oracle_bounds = true;
    let mut pnp_geo = Vec::new();
    for &cap in &caps {
        if let Some((pnp, oracle)) = r.geomean_at(cap) {
            pnp_geo.push(pnp);
            if pnp <= 1.0 {
                beats_default = false;
            }
            if pnp > oracle * (1.0 + 1e-9) {
                oracle_bounds = false;
            }
        }
    }
    v.check(
        &format!("{tag}.pnp_beats_default_at_unseen_caps"),
        cite,
        "PnP still beats the default configuration at caps it never trained on",
        beats_default && pnp_geo.len() == caps.len(),
        fmt_vec(&pnp_geo),
    );
    v.check(
        &format!("{tag}.oracle_bounds_pnp"),
        cite,
        "the unseen-cap PnP geomean speedup never exceeds the oracle's",
        oracle_bounds,
        format!("caps={}", fmt_vec(&caps)),
    );
    v.check(
        &format!("{tag}.within_consistency"),
        cite,
        "the within-20% fraction dominates the within-5% fraction (both valid)",
        r.within_80 >= r.within_95 && (0.0..=1.0).contains(&r.within_95),
        format!("within95={:.2} within80={:.2}", r.within_95, r.within_80),
    );
    v.check(
        &format!("{tag}.graceful_degradation"),
        cite,
        "unseen-cap accuracy degrades gracefully: at least half the seen-cap within-5% rate",
        r.within_95 >= seen.summary.pnp_static_within_95 * 0.5,
        format!(
            "unseen within95={:.2} vs seen {:.2}",
            r.within_95, seen.summary.pnp_static_within_95
        ),
    );
}

/// Figure 6/7 + §IV-C checks for one machine's EDP results.
pub fn check_edp(v: &mut Validator, tag: &str, r: &EdpResults) {
    let cite = "Fig. 6/7 / §IV-C";
    let pnp_edp = r.geomean_edp_improvement("pnp_static").unwrap_or(0.0);
    v.check(
        &format!("{tag}.pnp_improves_edp"),
        cite,
        "joint (power, configuration) tuning improves geomean EDP over default-at-TDP",
        pnp_edp > 1.0,
        format!("geomean EDP improvement {pnp_edp:.3}"),
    );

    let mut identity_ok = true;
    let mut worst = 0.0f64;
    for tuner in ["pnp_static", "pnp_dynamic", "bliss", "opentuner"] {
        let edp = r.geomean_edp_improvement(tuner).unwrap_or(f64::NAN);
        let s = r.geomean_speedup(tuner).unwrap_or(f64::NAN);
        let g = r.geomean_greenup(tuner).unwrap_or(f64::NAN);
        let rel = (edp - s * g).abs() / edp.abs().max(1e-12);
        let within_tolerance = rel.is_finite() && rel < 1e-6;
        if !within_tolerance {
            identity_ok = false;
        }
        worst = worst.max(rel);
    }
    v.check(
        &format!("{tag}.edp_speedup_greenup_identity"),
        cite,
        "geomean EDP improvement factors as geomean speedup x geomean greenup (table consistency)",
        identity_ok,
        format!("worst relative error {worst:.2e}"),
    );

    let majority = r.greenup_majority("pnp_static").unwrap_or(0.0);
    v.check(
        &format!("{tag}.majority_greenup"),
        cite,
        "EDP tuning yields a greenup > 1 for the majority of applications",
        majority >= 0.5,
        format!("{:.0}% of applications", 100.0 * majority),
    );
    v.check(
        &format!("{tag}.majority_regions_improve"),
        cite,
        "most regions run faster and use less energy than default-at-TDP",
        r.summary.pnp_speedup_cases >= 0.5 && r.summary.pnp_greenup_cases >= 0.5,
        format!(
            "faster={:.0}% greener={:.0}%",
            100.0 * r.summary.pnp_speedup_cases,
            100.0 * r.summary.pnp_greenup_cases
        ),
    );
    v.check(
        &format!("{tag}.within_consistency"),
        cite,
        "within-20% dominates within-5% for both PnP variants",
        r.summary.pnp_static_within_80 >= r.summary.pnp_static_within_95
            && r.summary.pnp_dynamic_within_80 >= r.summary.pnp_dynamic_within_95,
        format!(
            "static {:.2}/{:.2}, dynamic {:.2}/{:.2}",
            r.summary.pnp_static_within_95,
            r.summary.pnp_static_within_80,
            r.summary.pnp_dynamic_within_95,
            r.summary.pnp_dynamic_within_80
        ),
    );
    let normalized_ok = r
        .rows
        .iter()
        .flat_map(|row| row.normalized_edp.iter())
        .all(|&n| (0.0..=1.0 + 1e-9).contains(&n));
    v.check(
        &format!("{tag}.normalized_in_unit_interval"),
        cite,
        "every oracle-normalized EDP bar lies in [0, 1]",
        normalized_ok,
        format!("{} rows", r.rows.len()),
    );
}

/// Section I motivating-example checks.
pub fn check_motivating(v: &mut Validator, r: &MotivatingResults) {
    let cite = "§I (motivating example)";
    let caps: Vec<f64> = r.best_speedup_per_cap.iter().map(|(c, _)| *c).collect();
    let speedups: Vec<f64> = r.best_speedup_per_cap.iter().map(|(_, s)| *s).collect();

    v.check(
        "motivating.tuning_pays_at_every_cap",
        cite,
        "the best configuration beats the default at every cap",
        speedups.iter().all(|&s| s >= 1.0),
        fmt_vec(&speedups),
    );
    let at_lowest = caps.first().and_then(|&c| r.speedup_at(c));
    let at_highest = caps.last().and_then(|&c| r.speedup_at(c));
    v.check(
        "motivating.headroom",
        cite,
        "tuning headroom is largest at the lowest cap (paper: 7.54x at 40 W vs 1.67x at 85 W)",
        at_lowest.zip(at_highest).is_some_and(|(lo, hi)| lo > hi),
        format!("caps={} speedups={}", fmt_vec(&caps), fmt_vec(&speedups)),
    );
    v.check(
        "motivating.headroom_monotone",
        cite,
        "the best-over-default speedup shrinks monotonically as the cap rises",
        speedups.windows(2).all(|w| w[0] >= w[1] * 0.98),
        fmt_vec(&speedups),
    );
    v.check(
        "motivating.race_to_halt_violated",
        cite,
        "the fastest point is not the most energy-efficient point",
        r.race_to_halt_violated,
        format!("violated={}", r.race_to_halt_violated),
    );
    v.check(
        "motivating.best_edp_wins_both_ways",
        cite,
        "the best-EDP point is both faster and greener than default-at-TDP (paper: 1.64x / 2.7x)",
        r.best_edp.1 > 1.0 && r.best_edp.2 > 1.0,
        format!("speedup={:.2} greenup={:.2}", r.best_edp.1, r.best_edp.2),
    );
}

/// §IV-B transfer-learning checks.
pub fn check_transfer(v: &mut Validator, r: &TransferResults) {
    let cite = "§IV-B (transfer learning)";
    v.check(
        "transfer.speedup",
        cite,
        "re-training only the dense head is clearly faster than training from scratch (paper: ~4.18x)",
        r.speedup > 1.5,
        format!(
            "{:.2}x ({:.2}s -> {:.2}s)",
            r.speedup, r.scratch_seconds, r.transfer_seconds
        ),
    );
    v.check(
        "transfer.accuracy",
        cite,
        "the transferred model's accuracy is comparable to training from scratch",
        f64::from(r.transfer_accuracy) >= f64::from(r.scratch_accuracy) - 0.15,
        format!(
            "scratch={:.2} transfer={:.2}",
            r.scratch_accuracy, r.transfer_accuracy
        ),
    );
}

/// DESIGN.md §6 ablation checks.
pub fn check_ablations(v: &mut Validator, r: &AblationResults) {
    let cite = "DESIGN.md §6 (ablations)";
    let rgcn = r.model_accuracy("RGCN + mean");
    let gcn = r.model_accuracy("plain GCN");
    v.check(
        "ablations.relational_weights_help",
        cite,
        "relation-typed weights never clearly hurt accuracy vs. the tied-weight GCN",
        rgcn.zip(gcn).is_some_and(|(r, g)| r >= g - 0.05),
        format!("rgcn={rgcn:?} gcn={gcn:?}"),
    );
    v.check(
        "ablations.accuracies_valid",
        cite,
        "every ablation accuracy is a valid fraction",
        r.model_variants
            .iter()
            .all(|row| (0.0..=1.0).contains(&row.value)),
        format!("{} variants", r.model_variants.len()),
    );
    let b5 = r.bliss_at_budget(5);
    let b20 = r.bliss_at_budget(20);
    v.check(
        "ablations.bliss_budget_monotone",
        cite,
        "a 20-sample BLISS budget is at least as good as a 5-sample budget",
        b5.zip(b20).is_some_and(|(lo, hi)| hi >= lo - 0.02),
        format!("5={b5:?} 20={b20:?}"),
    );
}

/// Generated-corpus checks (ROADMAP item 4 / DESIGN.md §13): the seed-driven
/// kernel generator must be deterministic and prefix-stable, and every
/// kernel it emits must flow panic-free through
/// lower → verify → region graph → encode with zero out-of-vocabulary nodes
/// — the encode-path hardening half of the OOD gate, checked before any
/// model ever sees the corpus.
pub fn check_generated_corpus(v: &mut Validator, seed: u64, count: usize) {
    let cite = "DESIGN.md §13 (synthetic kernels)";
    let corpus = pnp_ir::gen::corpus(seed, count);
    let again = pnp_ir::gen::corpus(seed, count);
    let prefix = pnp_ir::gen::corpus(seed, count / 2);
    v.check(
        "ood.corpus_deterministic",
        cite,
        "the same generator seed yields a byte-identical corpus, prefix-stable in the count",
        corpus == again && corpus[..count / 2] == prefix[..],
        format!("seed={seed:#x} kernels={count}"),
    );
    let names: std::collections::BTreeSet<&str> =
        corpus.iter().map(|k| k.source.name.as_str()).collect();
    v.check(
        "ood.corpus_size",
        cite,
        "the corpus meets the >= 24-kernel acceptance floor with unique region names",
        corpus.len() == count && count >= DEFAULT_OOD_KERNELS && names.len() == corpus.len(),
        format!("kernels={} unique_names={}", corpus.len(), names.len()),
    );

    let vocab = Vocabulary::standard();
    let mut encoded = 0usize;
    let mut first_err = String::new();
    for (i, k) in corpus.iter().enumerate() {
        let fail = |msg: String| format!("kernel {i} ({}): {msg}", k.source.name);
        let module = match pnp_ir::lower::try_lower_kernel("ood", std::slice::from_ref(&k.source)) {
            Ok(m) => m,
            Err(e) => {
                if first_err.is_empty() {
                    first_err = fail(e.to_string());
                }
                continue;
            }
        };
        if let Err(e) = pnp_ir::verify::verify_module(&module) {
            if first_err.is_empty() {
                first_err = fail(format!("{e:?}"));
            }
            continue;
        }
        let Some(graph) = pnp_graph::builder::build_region_graph(&module, &k.source.name) else {
            if first_err.is_empty() {
                first_err = fail("no region graph".to_string());
            }
            continue;
        };
        if vocab.oov_rate(&graph) != 0.0 {
            if first_err.is_empty() {
                first_err = fail("out-of-vocabulary node texts".to_string());
            }
            continue;
        }
        let enc = pnp_graph::vocab::EncodedGraph::encode(&graph, &vocab);
        if let Err(e) = enc.validate(vocab.len()) {
            if first_err.is_empty() {
                first_err = fail(e);
            }
            continue;
        }
        encoded += 1;
    }
    v.check(
        "ood.corpus_encodes_in_vocabulary",
        cite,
        "every generated kernel lowers, verifies, graphs, and encodes fully in-vocabulary",
        encoded == corpus.len(),
        if first_err.is_empty() {
            format!("{encoded}/{} kernels", corpus.len())
        } else {
            first_err
        },
    );
}

/// Out-of-distribution accuracy checks (ROADMAP item 4 / DESIGN.md §13):
/// the suite-trained model scored on kernels it has never seen.
pub fn check_ood(v: &mut Validator, r: &OodResults) {
    let cite = "DESIGN.md §13 (OOD generalization)";
    let pnp: Vec<f64> = r.rows.iter().map(|x| x.pnp_geomean_speedup).collect();
    let oracle: Vec<f64> = r.rows.iter().map(|x| x.oracle_geomean_speedup).collect();

    v.check(
        "ood.results_complete",
        cite,
        "the driver scored every generated region at every cap with valid fractions",
        !r.rows.is_empty()
            && r.regions.len() == r.kernels
            && r.rows.iter().all(|x| {
                x.pnp_geomean_speedup.is_finite()
                    && x.pnp_geomean_speedup > 0.0
                    && x.oracle_geomean_speedup.is_finite()
                    && (0.0..=1.0).contains(&x.frac_within_10pct_of_oracle)
                    && (0.0..=1.0).contains(&x.frac_no_worse_than_default)
            }),
        format!("kernels={} caps={}", r.kernels, r.rows.len()),
    );
    v.check(
        "ood.oracle_bounds_pnp",
        cite,
        "the predicted configuration never beats the exhaustive-sweep oracle at any cap",
        r.rows
            .iter()
            .all(|x| x.pnp_geomean_speedup <= x.oracle_geomean_speedup * (1.0 + 1e-9)),
        format!("pnp={} oracle={}", fmt_vec(&pnp), fmt_vec(&oracle)),
    );
    v.check(
        "ood.oracle_has_headroom",
        cite,
        "the tuned oracle materially beats the default on the generated corpus too",
        r.rows.iter().all(|x| x.oracle_geomean_speedup >= 0.95),
        fmt_vec(&oracle),
    );
    v.check(
        "ood.pnp_beats_default",
        cite,
        "out of distribution, the suite-trained model still beats the default overall (geomean over caps)",
        r.overall_pnp_speedup() >= 1.0,
        format!("overall pnp={:.3}x oracle={:.3}x", r.overall_pnp_speedup(), r.overall_oracle_speedup()),
    );
    v.check(
        "ood.pnp_captures_oracle_headroom",
        cite,
        "the model captures a substantial fraction of the oracle's OOD headroom, not just parity with default",
        r.oracle_fraction() >= 0.5,
        format!("{:.0}% of oracle headroom", 100.0 * r.oracle_fraction()),
    );
    v.check(
        "ood.majority_no_worse_than_default",
        cite,
        "at every cap, most generated regions run no slower than the default configuration",
        r.min_no_worse_than_default() >= 0.5,
        format!(
            "weakest cap: {:.0}% of regions",
            100.0 * r.min_no_worse_than_default()
        ),
    );
}

/// Edge sweeps: degenerate inputs must produce typed errors or documented
/// neutral values, never panics (the satellite audit of this PR).
pub fn check_edge_cases(v: &mut Validator, settings: &TrainSettings) {
    let cite = "edge sweep (no paper artefact)";
    let machine = haswell();
    let empty =
        Dataset::build_with_threads(&machine, &[], &Vocabulary::standard(), Threads::Fixed(1));
    let all_typed = experiments::power_constrained::run(&empty, settings, None).err()
        == Some(ExperimentError::EmptyDataset)
        && experiments::edp::run(&empty, settings, None).err()
            == Some(ExperimentError::EmptyDataset)
        && experiments::unseen_power::run(&empty, settings, None).err()
            == Some(ExperimentError::EmptyDataset)
        && experiments::ablations::run(&empty, settings, None).err()
            == Some(ExperimentError::EmptyDataset);
    v.check(
        "edge.empty_dataset_is_typed_error",
        cite,
        "every experiment driver rejects an empty dataset with a typed error",
        all_typed,
        "power_constrained/edp/unseen_power/ablations".to_string(),
    );

    v.check(
        "edge.empty_fold_plan",
        cite,
        "an empty application list yields an empty fold plan, not one empty fold",
        FoldPlan::new(&[], 5).is_empty(),
        format!("folds={}", FoldPlan::new(&[], 5).len()),
    );

    let zero_cap = pnp_openmp::sim::simulate_region(
        &machine,
        &pnp_openmp::RegionProfile::balanced("edge", 1000),
        &pnp_openmp::default_config(&machine),
        0.0,
    );
    v.check(
        "edge.zero_cap_stays_finite",
        cite,
        "a zero-watt power cap is floored, yielding finite positive time and energy",
        zero_cap.time_s.is_finite() && zero_cap.time_s > 0.0 && zero_cap.energy_j.is_finite(),
        format!(
            "time={:.3e}s energy={:.3e}J",
            zero_cap.time_s, zero_cap.energy_j
        ),
    );

    v.check(
        "edge.geomean_total",
        cite,
        "aggregates are total: empty geomean is the neutral 1.0 and zero values are detected, not panics",
        crate::eval::geomean(&[]) == 1.0
            && crate::eval::checked_geomean(&[1.0, 0.0]).is_none()
            && crate::eval::geomean(&[1.0, 0.0]).is_finite(),
        "geomean([])=1.0, checked_geomean catches non-positives".to_string(),
    );
}

/// Runs every figure/table experiment through the drivers' `run` entry
/// points over `apps` (the full 30-application suite, or a reduced one such
/// as the 6-app suite CI gates) and checks all encoded invariants, returning
/// the report. The out-of-distribution corpus is
/// `synthetic_suite(ood_seed, ood_kernels)` ([`DEFAULT_OOD_SEED`] /
/// [`DEFAULT_OOD_KERNELS`] unless overridden).
///
/// With a store in `ctx` (DESIGN.md §12), a warm store serves every dataset
/// and trained artifact, turning the harness into load-and-evaluate — with
/// a byte-identical verdict list, since every cached artifact is
/// bit-identical to a fresh computation (the transfer report is cached
/// as-measured). A cold run writes exactly the artifacts a warm one reads.
pub fn run(
    apps: &[Application],
    settings: &TrainSettings,
    ctx: &RunCtx,
    ood_seed: u64,
    ood_kernels: usize,
) -> ValidationReport {
    let mut v = Validator::for_suite(apps.len());

    check_hyperparameters(&mut v);
    check_edge_cases(&mut v, settings);

    // One dataset per machine, shared by every per-machine experiment (and
    // served from the artifact store when one is warm).
    let machines = [haswell(), skylake()];
    let mut datasets = Vec::new();
    for machine in &machines {
        let space = SearchSpace::for_machine(machine);
        check_search_space(&mut v, machine, &space);
        let ds = ctx.dataset(machine, apps);
        check_dataset_invariants(&mut v, &ds);
        datasets.push(ds);
    }
    let (ds_haswell, ds_skylake) = (&datasets[0], &datasets[1]);
    // One cache handle per dataset (each binds the dataset's content hash,
    // computed once here and reused by every training pipeline below).
    let caches: Vec<_> = datasets.iter().map(|ds| ctx.cache(ds)).collect();
    let (cache_haswell, cache_skylake) = (caches[0].as_ref(), caches[1].as_ref());

    // One failing meta-invariant per driver that cannot run at all — the
    // harness itself must survive degenerate suites (e.g. `--apps 0`) and
    // report them as verdicts, not panics, which the drivers' typed errors
    // make possible.
    let driver_failed = |v: &mut Validator, tag: &str, cite: &str, err: &ExperimentError| {
        v.check(
            &format!("{tag}.driver_ran"),
            cite,
            "the experiment driver accepts the validation suite",
            false,
            err.to_string(),
        );
    };

    // Fig. 2/3 (+ §IV-B) and Fig. 4/5 — power-constrained and unseen-cap.
    for (ds, cache, pc_tag, up_tag) in [
        (ds_haswell, cache_haswell, "fig2", "fig5"),
        (ds_skylake, cache_skylake, "fig3", "fig4"),
    ] {
        match experiments::power_constrained::run(ds, settings, cache) {
            Ok(pc) => {
                check_power_constrained(&mut v, pc_tag, &pc);
                match experiments::unseen_power::run(ds, settings, cache) {
                    Ok(up) => check_unseen_power(&mut v, up_tag, &up, &pc),
                    Err(e) => driver_failed(&mut v, up_tag, "Fig. 4/5", &e),
                }
            }
            Err(e) => {
                driver_failed(&mut v, pc_tag, "Fig. 2/3 / §IV-B", &e);
                driver_failed(&mut v, up_tag, "Fig. 4/5", &e);
            }
        }
    }

    // Fig. 6/7 (+ §IV-C) on both machines.
    for (ds, cache, tag) in [
        (ds_haswell, cache_haswell, "edp.haswell"),
        (ds_skylake, cache_skylake, "edp.skylake"),
    ] {
        match experiments::edp::run(ds, settings, cache) {
            Ok(edp) => check_edp(&mut v, tag, &edp),
            Err(e) => driver_failed(&mut v, tag, "Fig. 6/7 / §IV-C", &e),
        }
    }

    // §I motivating example (its own single-region sweep, independent of
    // the validation suite).
    let motivating = experiments::motivating::run(ctx);
    check_motivating(&mut v, &motivating);

    // §IV-B transfer learning and the DESIGN.md §6 ablations need regions
    // to train on; on a degenerate suite they are reported, not run.
    match experiments::transfer::run(
        ds_haswell,
        ds_skylake,
        settings,
        cache_haswell.zip(cache_skylake),
    ) {
        Ok(transfer) => check_transfer(&mut v, &transfer),
        Err(e) => driver_failed(&mut v, "transfer", "§IV-B (transfer learning)", &e),
    }
    match experiments::ablations::run(ds_haswell, settings, cache_haswell) {
        Ok(ablations) => check_ablations(&mut v, &ablations),
        Err(e) => driver_failed(&mut v, "ablations", "DESIGN.md §6 (ablations)", &e),
    }

    // ROADMAP item 4: out-of-distribution generalization on generated
    // kernels (DESIGN.md §13). The corpus-level checks run unconditionally;
    // the accuracy gate needs a non-degenerate training suite.
    check_generated_corpus(&mut v, ood_seed, ood_kernels);
    let eval = ctx.dataset(
        &haswell(),
        &pnp_benchmarks::synthetic_suite(ood_seed, ood_kernels),
    );
    check_dataset_invariants_tagged(&mut v, "ood.dataset", &eval);
    let cache_eval = ctx.cache(&eval);
    let ood = match experiments::ood::run(
        ds_haswell,
        &eval,
        settings,
        ood_seed,
        ood_kernels,
        cache_haswell.zip(cache_eval.as_ref()),
    ) {
        Ok(r) => {
            check_ood(&mut v, &r);
            Some(r)
        }
        Err(e) => {
            driver_failed(&mut v, "ood", "DESIGN.md §13 (OOD generalization)", &e);
            None
        }
    };

    let context = ValidationContext {
        available_parallelism: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        suite_apps: apps.len(),
        suite_regions: datasets
            .iter()
            .map(|ds| (ds.machine.name.clone(), ds.len()))
            .collect(),
        settings_mode: if settings.folds >= 30 {
            "full"
        } else {
            "quick"
        }
        .to_string(),
        epochs: settings.epochs,
        folds: settings.folds,
        ood_seed,
        ood_kernels,
    };
    let mut report = v.into_report(context);
    report.ood = ood;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_applies_expected_fail_rules() {
        let mut v = Validator::new();
        v.check("unit.pass", "t", "c", true, "x".into());
        v.check("unit.fail", "t", "c", false, "x".into());
        v.check(EXPECTED_FAIL[0].id, "t", "c", false, "x".into());
        v.check(EXPECTED_FAIL[1].id, "t", "c", true, "x".into());
        let report = v.into_report(ValidationContext {
            available_parallelism: 1,
            suite_apps: 0,
            suite_regions: vec![],
            settings_mode: "quick".into(),
            epochs: 1,
            folds: 1,
            ood_seed: 0,
            ood_kernels: 0,
        });
        assert_eq!(report.passed, 1);
        assert_eq!(report.failed, 1);
        assert_eq!(report.expected_failed, 1);
        assert_eq!(report.unexpected_passed, 1);
        assert_eq!(report.hard_failures().len(), 1);
        assert_eq!(report.hard_failures()[0].id, "unit.fail");
        assert_eq!(
            report.invariant(EXPECTED_FAIL[0].id).unwrap().status,
            InvariantStatus::ExpectedFail
        );
    }

    #[test]
    fn expected_fail_scopes_follow_suite_size() {
        // Any-scope entries apply on both suite sizes.
        assert!(is_expected_fail("fig2.pnp_competitive_with_search", 6));
        assert!(is_expected_fail("fig2.pnp_competitive_with_search", 30));
        // FullOnly entries are enforced strictly on reduced suites.
        assert!(is_expected_fail("edp.haswell.majority_greenup", 30));
        assert!(!is_expected_fail("edp.haswell.majority_greenup", 6));
        // ReducedOnly entries are enforced strictly on the full suite.
        assert!(is_expected_fail("fig2.pnp_beats_default_every_cap", 6));
        assert!(!is_expected_fail("fig2.pnp_beats_default_every_cap", 30));
        // Unknown ids are never expected to fail.
        assert!(!is_expected_fail("fig2.rows_complete", 6));
    }

    #[test]
    fn report_round_trips_through_json_and_renders() {
        let mut v = Validator::new();
        v.check("unit.a", "Fig. 2", "claim", true, "1.0".into());
        let report = v.into_report(ValidationContext {
            available_parallelism: 4,
            suite_apps: 6,
            suite_regions: vec![("haswell".into(), 13)],
            settings_mode: "quick".into(),
            epochs: 14,
            folds: 5,
            ood_seed: 0,
            ood_kernels: 0,
        });
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("available_parallelism"));
        let back: ValidationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.passed, 1);
        let text = report.render();
        assert!(text.contains("PASS"));
        assert!(text.contains("unit.a"));
        assert!(text.contains("host parallelism 4"));
    }

    #[test]
    fn table_level_checks_pass_on_the_real_presets() {
        let mut v = Validator::new();
        check_hyperparameters(&mut v);
        for machine in [haswell(), skylake()] {
            let space = SearchSpace::for_machine(&machine);
            check_search_space(&mut v, &machine, &space);
        }
        let report = v.into_report(ValidationContext {
            available_parallelism: 1,
            suite_apps: 0,
            suite_regions: vec![],
            settings_mode: "quick".into(),
            epochs: 1,
            folds: 1,
            ood_seed: 0,
            ood_kernels: 0,
        });
        assert_eq!(report.failed, 0, "failures: {:?}", report.hard_failures());
    }
}
