//! Out-of-distribution generalization (ROADMAP item 4): train on the frozen
//! paper suite, evaluate on kernels the model has *never seen* — synthetic
//! programs emitted by the `pnp_ir::gen` generator and swept through the
//! same analytic machine models as every paper region.
//!
//! LOOCV over the 30-app suite only measures generalization *within* the
//! frozen distribution. This driver measures it *outside*: the generated
//! corpus varies loop nests, arithmetic mixes, memory footprints, and
//! scalability limits beyond anything in the suite, so a model that merely
//! memorized suite shapes scores near the default here, while one that
//! learned transferable structure tracks the oracle. The paper-fidelity
//! validator gates the resulting invariants (`ood.*` checks).

use crate::artifact::{self, DatasetCache};
use crate::dataset::Dataset;
use crate::eval::{fraction_within, geomean};
use crate::report::TextTable;
use crate::training::{class_prior_scenario1, predict_with_prior, train_ood_model, TrainSettings};
use serde::{Deserialize, Serialize};

use super::{check_dataset, ExperimentError};

/// Per-power-cap aggregate over the generated evaluation corpus.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OodRow {
    /// Power cap (W) this row was evaluated under.
    pub power_watts: f64,
    /// Geometric-mean speedup of the PnP-predicted configuration over the
    /// OpenMP default, across the generated regions.
    pub pnp_geomean_speedup: f64,
    /// Geometric-mean speedup of the per-region oracle (exhaustive-sweep
    /// best) over the default — the ceiling PnP is measured against.
    pub oracle_geomean_speedup: f64,
    /// Fraction of generated regions whose predicted configuration runs
    /// within 10 % of its oracle time.
    pub frac_within_10pct_of_oracle: f64,
    /// Fraction of generated regions where the prediction is no slower than
    /// the default configuration.
    pub frac_no_worse_than_default: f64,
}

/// Serializable outcome of the out-of-distribution experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OodResults {
    /// Generator seed the evaluation corpus was built from.
    pub seed: u64,
    /// Number of generated kernels evaluated.
    pub kernels: usize,
    /// Region names of the generated corpus, in corpus order.
    pub regions: Vec<String>,
    /// One row per power cap of the shared search space.
    pub rows: Vec<OodRow>,
}

impl OodResults {
    /// Geometric mean of the per-cap PnP speedups — the headline "does the
    /// model beat the default out of distribution" number.
    pub fn overall_pnp_speedup(&self) -> f64 {
        geomean(
            &self
                .rows
                .iter()
                .map(|r| r.pnp_geomean_speedup)
                .collect::<Vec<_>>(),
        )
    }

    /// Geometric mean of the per-cap oracle speedups.
    pub fn overall_oracle_speedup(&self) -> f64 {
        geomean(
            &self
                .rows
                .iter()
                .map(|r| r.oracle_geomean_speedup)
                .collect::<Vec<_>>(),
        )
    }

    /// How much of the oracle's headroom the model captures overall, as
    /// `overall PnP speedup / overall oracle speedup` (1.0 = oracle-perfect,
    /// values near `1 / oracle` = no better than default).
    pub fn oracle_fraction(&self) -> f64 {
        let oracle = self.overall_oracle_speedup();
        if oracle <= 0.0 {
            return 0.0;
        }
        self.overall_pnp_speedup() / oracle
    }

    /// Smallest per-cap fraction of regions that are no worse than default —
    /// the weakest cap is what the validation gate cares about.
    pub fn min_no_worse_than_default(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.frac_no_worse_than_default)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Renders the per-cap table plus the overall summary line.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&[
            "power cap (W)",
            "PnP speedup",
            "oracle speedup",
            "within 10% of oracle",
            "no worse than default",
        ]);
        for r in &self.rows {
            t.row(&[
                format!("{:.0}", r.power_watts),
                format!("{:.3}", r.pnp_geomean_speedup),
                format!("{:.3}", r.oracle_geomean_speedup),
                format!("{:.0}%", 100.0 * r.frac_within_10pct_of_oracle),
                format!("{:.0}%", 100.0 * r.frac_no_worse_than_default),
            ]);
        }
        format!(
            "\nOut-of-distribution generalization ({} generated kernels, seed {:#x})\n{}\noverall: PnP {:.3}x vs oracle {:.3}x ({:.0}% of oracle headroom)\n",
            self.kernels,
            self.seed,
            t.render(),
            self.overall_pnp_speedup(),
            self.overall_oracle_speedup(),
            100.0 * self.oracle_fraction(),
        )
    }
}

/// Runs the out-of-distribution experiment: for every power cap, train one
/// model on *all* of `train` (no folds — the evaluation set is disjoint by
/// construction) and predict each `eval` region's configuration class,
/// scoring predicted vs. default vs. oracle times from `eval`'s exhaustive
/// sweep. The evaluation set is the generated corpus
/// `pnp_benchmarks::synthetic_suite(seed, kernels)`, swept like the paper
/// suite (the dataset key fingerprints the generated content, so each
/// corpus gets its own store entry).
///
/// `seed`/`kernels` are recorded in the results so reports and cache keys
/// stay tied to the generated corpus they describe. With cache handles
/// bound to the two datasets, the report is served from / stored into the
/// artifact store under a generator-seed-fingerprinted key; the experiment
/// is fully deterministic (DESIGN.md §9/§12), so cached and fresh results
/// are byte-identical.
pub fn run(
    train: &Dataset,
    eval: &Dataset,
    settings: &TrainSettings,
    seed: u64,
    kernels: usize,
    caches: Option<(&DatasetCache, &DatasetCache)>,
) -> Result<OodResults, ExperimentError> {
    // The error paths come *before* the store: a degenerate input fails
    // identically with and without a cache.
    check_dataset(train, 1)?;
    check_dataset(eval, 1)?;
    if train.space != eval.space {
        return Err(ExperimentError::MismatchedSearchSpaces);
    }
    let compute = || evaluate(train, eval, settings, seed, kernels);
    Ok(match caches {
        Some((cache_train, cache_eval)) => {
            let key = artifact::ood_key(
                cache_train.dataset_sha256(),
                cache_eval.dataset_sha256(),
                settings,
                seed,
                kernels,
            );
            cache_train.store().load_or_build(&key, compute)
        }
        None => compute(),
    })
}

/// The uncached experiment behind [`run`], on inputs it has validated.
fn evaluate(
    train: &Dataset,
    eval: &Dataset,
    settings: &TrainSettings,
    seed: u64,
    kernels: usize,
) -> OodResults {
    let all_train: Vec<usize> = (0..train.len()).collect();
    let mut rows = Vec::with_capacity(train.space.power_levels.len());
    for (power_idx, &power_watts) in train.space.power_levels.iter().enumerate() {
        let model = train_ood_model(train, settings, power_idx);
        let prior = class_prior_scenario1(train, power_idx, &all_train);

        let mut pnp_ratios = Vec::with_capacity(eval.len());
        let mut oracle_ratios = Vec::with_capacity(eval.len());
        let mut oracle_fracs = Vec::with_capacity(eval.len());
        for (r, record) in eval.regions.iter().enumerate() {
            let pred = predict_with_prior(&model, &record.graph, None, &prior);
            let sweep = &eval.sweeps[r];
            let t_pred = sweep.samples[power_idx][pred].time_s;
            let t_default = sweep.default_samples[power_idx].time_s;
            let t_best = sweep.best_time(power_idx);
            pnp_ratios.push(t_default / t_pred);
            oracle_ratios.push(t_default / t_best);
            oracle_fracs.push(t_best / t_pred);
        }

        rows.push(OodRow {
            power_watts,
            pnp_geomean_speedup: geomean(&pnp_ratios),
            oracle_geomean_speedup: geomean(&oracle_ratios),
            frac_within_10pct_of_oracle: fraction_within(&oracle_fracs, 0.9),
            frac_no_worse_than_default: fraction_within(&pnp_ratios, 1.0 - 1e-9),
        });
    }

    OodResults {
        seed,
        kernels,
        regions: eval
            .regions
            .iter()
            .map(|r| format!("{}/{}", r.app, r.region))
            .collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::TrainSettings;

    fn tiny_settings() -> TrainSettings {
        let mut s = TrainSettings::quick();
        s.epochs = 2;
        s
    }

    fn tiny_datasets() -> (Dataset, Dataset) {
        let machine = pnp_machine::haswell();
        let ctx = crate::experiments::RunCtx {
            sweep_threads: pnp_openmp::Threads::Fixed(1),
            store: None,
        };
        let train_apps: Vec<_> = pnp_benchmarks::full_suite().into_iter().take(3).collect();
        let train = ctx.dataset(&machine, &train_apps);
        let eval = ctx.dataset(&machine, &pnp_benchmarks::synthetic_suite(7, 4));
        (train, eval)
    }

    #[test]
    fn ood_runs_end_to_end_and_is_deterministic() {
        let (train, eval) = tiny_datasets();
        let s = tiny_settings();
        let a = run(&train, &eval, &s, 7, 4, None).unwrap();
        let b = run(&train, &eval, &s, 7, 4, None).unwrap();
        assert_eq!(a.kernels, 4);
        assert_eq!(a.regions.len(), 4);
        assert_eq!(a.rows.len(), train.space.power_levels.len());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "OOD experiment must be bit-deterministic"
        );
        for row in &a.rows {
            assert!(row.oracle_geomean_speedup >= 1.0 - 1e-9);
            assert!(row.pnp_geomean_speedup > 0.0);
            assert!(
                row.pnp_geomean_speedup <= row.oracle_geomean_speedup + 1e-9,
                "prediction cannot beat the exhaustive-sweep oracle"
            );
            assert!((0.0..=1.0).contains(&row.frac_within_10pct_of_oracle));
            assert!((0.0..=1.0).contains(&row.frac_no_worse_than_default));
        }
        let text = a.render();
        assert!(text.contains("Out-of-distribution"));
        assert!(text.contains("oracle"));
    }

    #[test]
    fn ood_rejects_degenerate_inputs() {
        let (train, eval) = tiny_datasets();
        let s = tiny_settings();
        let empty = Dataset {
            machine: train.machine.clone(),
            space: train.space.clone(),
            regions: Vec::new(),
            sweeps: Vec::new(),
        };
        assert_eq!(
            run(&empty, &eval, &s, 7, 4, None).unwrap_err(),
            ExperimentError::EmptyDataset
        );
        assert_eq!(
            run(&train, &empty, &s, 7, 4, None).unwrap_err(),
            ExperimentError::EmptyDataset
        );
        let mut skewed = eval.clone();
        skewed.space.power_levels.push(999.0);
        assert_eq!(
            run(&train, &skewed, &s, 7, 4, None).unwrap_err(),
            ExperimentError::MismatchedSearchSpaces
        );
    }
}
