//! Design-choice ablations called out in DESIGN.md §6:
//!
//! * relation-typed RGCN vs. plain GCN (tied relation weights),
//! * mean vs. sum readout pooling,
//! * BLISS sampling-budget sensitivity (5 / 10 / 20 samples).
//!
//! Each ablation reports training-set top-1 accuracy of the classifier on the
//! scenario-1 task at TDP (model variants), or the oracle-normalized speedup
//! (tuner budgets). These are intentionally lightweight — they answer "does
//! the design choice matter", not "what is the final benchmark number".

use crate::artifact::DatasetCache;
use crate::dataset::Dataset;
use crate::eval::geomean;
use crate::report::TextTable;
use crate::training::{TrainSettings, TuneObjective};
use pnp_gnn::{PnPModel, Trainer};
use pnp_tuners::{BlissTuner, Objective, SimEvaluator};
use serde::Serialize;

/// Result of one ablation row.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct AblationRow {
    /// Name of the variant.
    pub variant: String,
    /// The scalar outcome (accuracy or normalized speedup).
    pub value: f64,
}

/// All ablation results.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct AblationResults {
    /// Model-variant rows (training accuracy).
    pub model_variants: Vec<AblationRow>,
    /// BLISS budget rows (oracle-normalized speedup).
    pub bliss_budgets: Vec<AblationRow>,
}

impl AblationResults {
    /// Training accuracy of the model variant whose name contains `needle`
    /// (structured accessor for the paper-fidelity validator).
    pub fn model_accuracy(&self, needle: &str) -> Option<f64> {
        self.model_variants
            .iter()
            .find(|r| r.variant.contains(needle))
            .map(|r| r.value)
    }

    /// Oracle-normalized speedup of the BLISS run with `budget` samples.
    pub fn bliss_at_budget(&self, budget: usize) -> Option<f64> {
        let label = format!("{budget} samples");
        self.bliss_budgets
            .iter()
            .find(|r| r.variant == label)
            .map(|r| r.value)
    }

    /// Renders both ablation tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("\nModel ablations (training-set accuracy, scenario 1 @ TDP)\n");
        let mut t = TextTable::new(&["variant", "train accuracy"]);
        for r in &self.model_variants {
            t.row_numeric(&r.variant, &[r.value]);
        }
        out.push_str(&t.render());
        out.push_str("\nBLISS sampling-budget sensitivity (oracle-normalized speedup)\n");
        let mut t = TextTable::new(&["budget", "normalized speedup"]);
        for r in &self.bliss_budgets {
            t.row_numeric(&r.variant, &[r.value]);
        }
        out.push_str(&t.render());
        out
    }
}

fn train_variant(ds: &Dataset, settings: &TrainSettings, relational: bool, sum_pool: bool) -> f64 {
    // Every variant trains from one fixed seed, whatever the settings' seed.
    let settings = TrainSettings {
        seed: 0xAB1A,
        ..settings.clone()
    };
    let objective = TuneObjective::Time {
        power_idx: ds.space.power_levels.len() - 1,
    };
    let mut model = PnPModel::new(settings.model_config(objective.num_classes(&ds.space), 0, 0));
    model.set_relational(relational);
    model.set_sum_pooling(sum_pool);
    let samples = objective.samples(ds, 0..ds.len(), None);
    let trainer = Trainer::new(settings.train_config(objective.optimizer(), false));
    let report = trainer.train(&mut model, &samples);
    report.final_train_accuracy as f64
}

/// Runs all ablations on a dataset. Training a variant on zero regions (or
/// indexing a TDP that does not exist) yields a typed error instead of a
/// panic.
///
/// Ablations train one model per variant on the full training set (no fold
/// grid, so `settings.train_threads` is not consulted), and with a cache
/// bound to `ds` the cached artifact is the whole [`AblationResults`] —
/// every number in it is deterministic (fixed seeds for both the model
/// variants and the BLISS budget sweeps), which keeps it inside the
/// bit-identity contract (DESIGN.md §12).
pub fn run(
    ds: &Dataset,
    settings: &TrainSettings,
    cache: Option<&DatasetCache>,
) -> Result<AblationResults, super::ExperimentError> {
    super::check_dataset(ds, 1)?;
    if let Some(cache) = cache {
        let key = cache.ablations_key(settings);
        return Ok(cache
            .store()
            .load_or_build(&key, || compute_ablations(ds, settings)));
    }
    Ok(compute_ablations(ds, settings))
}

/// The uncached ablation computation shared by both paths.
fn compute_ablations(ds: &Dataset, settings: &TrainSettings) -> AblationResults {
    let model_variants = vec![
        AblationRow {
            variant: "RGCN + mean pooling (paper)".into(),
            value: train_variant(ds, settings, true, false),
        },
        AblationRow {
            variant: "plain GCN (tied relation weights)".into(),
            value: train_variant(ds, settings, false, false),
        },
        AblationRow {
            variant: "RGCN + sum pooling".into(),
            value: train_variant(ds, settings, true, true),
        },
    ];

    // BLISS budget sensitivity at the lowest power cap, over a subset of
    // regions (every fourth region keeps this cheap).
    let power = ds.space.power_levels[0];
    let objective = Objective::TimeAtPower { power_watts: power };
    let mut bliss_budgets = Vec::new();
    for &budget in &[5usize, 10, 20] {
        let mut normalized = Vec::new();
        for i in (0..ds.len()).step_by(4) {
            let evaluator = SimEvaluator::new(ds.machine.clone(), ds.regions[i].profile.clone());
            let result = BlissTuner::new(&ds.space, 7000 + i as u64)
                .with_budget(budget)
                .tune(&evaluator, &objective);
            let default_t = ds.sweeps[i].default_samples[0].time_s;
            let best_t = ds.sweeps[i].best_time(0);
            let speedup = default_t / result.best_sample.time_s;
            let oracle = default_t / best_t;
            normalized.push((speedup / oracle).min(1.0));
        }
        bliss_budgets.push(AblationRow {
            variant: format!("{budget} samples"),
            value: geomean(&normalized),
        });
    }

    AblationResults {
        model_variants,
        bliss_budgets,
    }
}
