//! Transfer learning (Section IV-B): the code graphs are identical on both
//! machines (they are produced statically by the same compiler), so the GNN
//! layers trained on the Haswell dataset can be reused on Skylake, retraining
//! only the dense classifier — the paper reports ≈ 4.18× faster training
//! (76 % less training time).

use super::{check_dataset, ExperimentError};
use crate::artifact::{self, DatasetCache};
use crate::dataset::Dataset;
use crate::report::TextTable;
use crate::training::{transfer_experiment, TrainSettings, TransferReport};
use serde::Serialize;

/// Serializable wrapper of the transfer-learning outcome.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct TransferResults {
    /// Seconds to train the Skylake model from scratch.
    pub scratch_seconds: f64,
    /// Seconds to train with the transferred (frozen) Haswell GNN.
    pub transfer_seconds: f64,
    /// Training speed-up factor.
    pub speedup: f64,
    /// Training-set accuracy from scratch.
    pub scratch_accuracy: f32,
    /// Training-set accuracy with transfer.
    pub transfer_accuracy: f32,
}

impl From<TransferReport> for TransferResults {
    fn from(r: TransferReport) -> Self {
        TransferResults {
            speedup: r.training_speedup(),
            scratch_seconds: r.scratch_seconds,
            transfer_seconds: r.transfer_seconds,
            scratch_accuracy: r.scratch_accuracy,
            transfer_accuracy: r.transfer_accuracy,
        }
    }
}

impl TransferResults {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["training path", "wall time (s)", "train accuracy"]);
        t.row(&[
            "from scratch (Skylake)".into(),
            format!("{:.2}", self.scratch_seconds),
            format!("{:.2}", self.scratch_accuracy),
        ]);
        t.row(&[
            "transfer (Haswell GNN frozen)".into(),
            format!("{:.2}", self.transfer_seconds),
            format!("{:.2}", self.transfer_accuracy),
        ]);
        format!(
            "\nTransfer learning (paper: ~4.18x faster / 76% less training time)\n{}\ntraining speed-up: {:.2}x ({:.0}% less training time)\n",
            t.render(),
            self.speedup,
            100.0 * (1.0 - 1.0 / self.speedup.max(1e-9))
        )
    }
}

/// Runs the transfer-learning experiment (source → target; the paper's is
/// Haswell → Skylake) at the source machine's TDP, its highest power level.
/// (Unlike the cross-validated pipelines this experiment trains single
/// models and *measures their wall time*, so it does not consult
/// `settings.train_threads` — the scratch/transfer timing comparison must
/// not depend on an unrelated fan-out knob.)
///
/// With cache handles bound to the two datasets, the *report* is cached.
/// Unlike the model grids, this artifact carries wall-clock measurements
/// (the experiment's very point is the scratch-vs-transfer training-time
/// ratio), so it is cached with the non-deterministic variant: a warm store
/// returns the first run's measured report verbatim; re-measuring is what
/// `--force-rebuild` is for. The bit-identity contract (DESIGN.md §12)
/// explicitly exempts it.
///
/// Both datasets need regions to train on, and the target needs the
/// source's TDP level; otherwise the result is a typed error.
pub fn run(
    source: &Dataset,
    target: &Dataset,
    settings: &TrainSettings,
    caches: Option<(&DatasetCache, &DatasetCache)>,
) -> Result<TransferResults, ExperimentError> {
    check_dataset(source, 1)?;
    let power_idx = source.space.power_levels.len() - 1;
    check_dataset(target, power_idx + 1)?;
    let compute =
        || TransferResults::from(transfer_experiment(source, target, settings, power_idx));
    Ok(match caches {
        Some((cache_source, cache_target)) => {
            let key = artifact::transfer_key(
                cache_source.dataset_sha256(),
                cache_target.dataset_sha256(),
                settings,
                power_idx,
            );
            cache_source
                .store()
                .load_or_build_nondeterministic(&key, compute)
        }
        None => compute(),
    })
}
