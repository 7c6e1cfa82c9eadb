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

use crate::artifact::{self, ArtifactStore, DatasetCache};
use crate::dataset::Dataset;
use crate::eval::{fraction_within, geomean};
use crate::report::TextTable;
use crate::training::{class_prior_scenario1, predict_with_prior, train_ood_model, TrainSettings};
use pnp_graph::Vocabulary;
use pnp_machine::MachineSpec;
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

/// Builds the synthetic evaluation dataset for `(machine, seed, count)`:
/// generated kernels swept through the analytic machine models exactly like
/// the paper suite. Served from the store when warm (the dataset key already
/// fingerprints the generated suite content, so each `(seed, count)` corpus
/// gets its own entry).
pub fn build_synthetic_dataset(
    machine: &MachineSpec,
    seed: u64,
    count: usize,
    sweep_threads: pnp_openmp::Threads,
    store: Option<&ArtifactStore>,
) -> Dataset {
    let apps = pnp_benchmarks::synthetic_suite(seed, count);
    let vocab = Vocabulary::standard();
    match store {
        Some(store) => store.load_or_build_dataset(machine, &apps, &vocab, sweep_threads),
        None => Dataset::build_with_threads(machine, &apps, &vocab, sweep_threads),
    }
}

/// Runs the out-of-distribution experiment on pre-built datasets: for every
/// power cap, train one model on *all* of `train` (no folds — the evaluation
/// set is disjoint by construction) and predict each `eval` region's
/// configuration class, scoring predicted vs. default vs. oracle times from
/// `eval`'s exhaustive sweep.
///
/// `seed`/`kernels` are recorded in the results so reports and cache keys
/// stay tied to the generated corpus they describe.
pub fn try_run_on_datasets(
    train: &Dataset,
    eval: &Dataset,
    settings: &TrainSettings,
    seed: u64,
    kernels: usize,
) -> Result<OodResults, ExperimentError> {
    check_dataset(train, 1)?;
    check_dataset(eval, 1)?;
    if train.space != eval.space {
        return Err(ExperimentError::MismatchedSearchSpaces);
    }

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

    Ok(OodResults {
        seed,
        kernels,
        regions: eval
            .regions
            .iter()
            .map(|r| format!("{}/{}", r.app, r.region))
            .collect(),
        rows,
    })
}

/// [`try_run_on_datasets`] with result caching: when cache handles (bound to
/// the two datasets' content hashes) are present, the report is served from /
/// stored into the artifact store under a generator-seed-fingerprinted key.
/// The experiment is fully deterministic (DESIGN.md §9/§12), so cached and
/// fresh results are byte-identical.
pub fn try_run_on_datasets_cached(
    train: &Dataset,
    eval: &Dataset,
    settings: &TrainSettings,
    seed: u64,
    kernels: usize,
    caches: Option<(&DatasetCache, &DatasetCache)>,
) -> Result<OodResults, ExperimentError> {
    match caches {
        Some((cache_train, cache_eval)) => {
            // Probe the error paths *before* touching the store: a degenerate
            // input must fail identically with and without a cache.
            check_dataset(train, 1)?;
            check_dataset(eval, 1)?;
            if train.space != eval.space {
                return Err(ExperimentError::MismatchedSearchSpaces);
            }
            let key = artifact::ood_key(
                cache_train.dataset_sha256(),
                cache_eval.dataset_sha256(),
                settings,
                seed,
                kernels,
            );
            Ok(cache_train.store().load_or_build(&key, || {
                try_run_on_datasets(train, eval, settings, seed, kernels)
                    .expect("preconditions checked above")
            }))
        }
        None => try_run_on_datasets(train, eval, settings, seed, kernels),
    }
}

/// End-to-end convenience: build the Haswell paper-suite training dataset
/// and the `(seed, count)` synthetic evaluation dataset (both served from
/// the store when warm), then run the experiment with the report cached.
pub fn run_with_store(
    settings: &TrainSettings,
    sweep_threads: pnp_openmp::Threads,
    store: Option<&ArtifactStore>,
    seed: u64,
    count: usize,
) -> Result<OodResults, ExperimentError> {
    let machine = pnp_machine::haswell();
    let train = super::build_full_dataset_cached(&machine, sweep_threads, store);
    let eval = build_synthetic_dataset(&machine, seed, count, sweep_threads, store);
    let cache_train = store.map(|s| s.for_dataset(&train));
    let cache_eval = store.map(|s| s.for_dataset(&eval));
    try_run_on_datasets_cached(
        &train,
        &eval,
        settings,
        seed,
        count,
        cache_train.as_ref().zip(cache_eval.as_ref()),
    )
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
        let vocab = Vocabulary::standard();
        let train_apps: Vec<_> = pnp_benchmarks::full_suite().into_iter().take(3).collect();
        let train = Dataset::build_with_threads(
            &machine,
            &train_apps,
            &vocab,
            pnp_openmp::Threads::Fixed(1),
        );
        let eval = build_synthetic_dataset(&machine, 7, 4, pnp_openmp::Threads::Fixed(1), None);
        (train, eval)
    }

    #[test]
    fn ood_runs_end_to_end_and_is_deterministic() {
        let (train, eval) = tiny_datasets();
        let s = tiny_settings();
        let a = try_run_on_datasets(&train, &eval, &s, 7, 4).unwrap();
        let b = try_run_on_datasets(&train, &eval, &s, 7, 4).unwrap();
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
            try_run_on_datasets(&empty, &eval, &s, 7, 4).unwrap_err(),
            ExperimentError::EmptyDataset
        );
        assert_eq!(
            try_run_on_datasets(&train, &empty, &s, 7, 4).unwrap_err(),
            ExperimentError::EmptyDataset
        );
        let mut skewed = eval.clone();
        skewed.space.power_levels.push(999.0);
        assert_eq!(
            try_run_on_datasets(&train, &skewed, &s, 7, 4).unwrap_err(),
            ExperimentError::MismatchedSearchSpaces
        );
    }
}
