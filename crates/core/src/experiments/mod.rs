//! Experiment drivers — one per table/figure of the paper.
//!
//! Each driver returns a serializable result structure and knows how to
//! render itself as the rows/series the corresponding figure plots. Each
//! driver has exactly one entry point, `run`, over pre-built datasets (built
//! with [`RunCtx::dataset`]) and optional cache handles ([`RunCtx::cache`]);
//! the `pnp-bench` binaries are thin wrappers that call it and print.
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | §I motivating example | [`motivating`] |
//! | Table I (search space) | `pnp-tuners::SearchSpace` (printed by the `table1_search_space` binary) |
//! | Table II (hyperparameters) | printed by the `table2_hyperparameters` binary |
//! | Fig. 2 / Fig. 3 (+ §IV-B numbers) | [`power_constrained`] |
//! | Fig. 4 / Fig. 5 | [`unseen_power`] |
//! | Fig. 6 / Fig. 7 (+ §IV-C numbers) | [`edp`] |
//! | §IV-B transfer learning | [`transfer`] |
//! | Design-choice ablations (DESIGN.md §6) | [`ablations`] |
//! | Out-of-distribution generalization (DESIGN.md §13) | [`ood`] |

pub mod ablations;
pub mod edp;
pub mod motivating;
pub mod ood;
pub mod power_constrained;
pub mod transfer;
pub mod unseen_power;

use pnp_benchmarks::Application;
use pnp_graph::Vocabulary;
use pnp_machine::MachineSpec;
use pnp_openmp::Threads;

use crate::artifact::{ArtifactStore, DatasetCache};
use crate::dataset::Dataset;

/// Why an experiment driver cannot run on a dataset.
///
/// The drivers' `run` entry points return these instead of panicking
/// deep inside a pipeline (empty prediction sets, `len - 1` underflow on an
/// empty power-level list, training on zero samples) — the degenerate inputs
/// the paper-fidelity validator's edge sweeps probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExperimentError {
    /// The dataset holds no regions: nothing to sweep, train on, or tune.
    EmptyDataset,
    /// The search space has fewer power levels than the experiment needs
    /// (`needed`): 1 for the cap-indexed pipelines, 2 for the unseen-power
    /// hold-out.
    NotEnoughPowerLevels {
        /// Minimum number of power levels the driver requires.
        needed: usize,
        /// Number of power levels the dataset's search space actually has.
        have: usize,
    },
    /// Two datasets that must share a Table I search space (train vs.
    /// evaluate in the out-of-distribution experiment) do not: a class
    /// predicted on one would name a different configuration on the other.
    MismatchedSearchSpaces,
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::EmptyDataset => {
                write!(f, "dataset holds no regions — nothing to train or tune")
            }
            ExperimentError::NotEnoughPowerLevels { needed, have } => write!(
                f,
                "search space has {have} power level(s), the experiment needs at least {needed}"
            ),
            ExperimentError::MismatchedSearchSpaces => write!(
                f,
                "train and evaluation datasets have different search spaces"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Shared guard for the drivers' `run` entry points.
pub(crate) fn check_dataset(ds: &Dataset, min_power_levels: usize) -> Result<(), ExperimentError> {
    if ds.is_empty() {
        return Err(ExperimentError::EmptyDataset);
    }
    let have = ds.space.power_levels.len();
    if have < min_power_levels {
        return Err(ExperimentError::NotEnoughPowerLevels {
            needed: min_power_levels,
            have,
        });
    }
    Ok(())
}

/// What every driver needs besides its training settings: how many workers
/// run the exhaustive sweeps, and the optional artifact store (DESIGN.md
/// §12) that serves datasets and trained artifacts when warm. The
/// `pnp-bench` binaries build one from their flags and environment.
#[derive(Debug)]
pub struct RunCtx {
    /// Worker count for the exhaustive sweeps. Datasets are bit-identical
    /// for every value; the knob only changes wall-clock time.
    pub sweep_threads: Threads,
    /// Content-addressed artifact store; `None` recomputes everything.
    pub store: Option<ArtifactStore>,
}

impl RunCtx {
    /// The swept dataset of `apps` on `machine`: served from the store when
    /// warm, built (and cached, when a store is configured) otherwise.
    /// Cached and fresh datasets are byte-identical, so callers cannot
    /// observe which path ran.
    pub fn dataset(&self, machine: &MachineSpec, apps: &[Application]) -> Dataset {
        let vocab = Vocabulary::standard();
        match &self.store {
            Some(store) => store.load_or_build_dataset(machine, apps, &vocab, self.sweep_threads),
            None => Dataset::build_with_threads(machine, apps, &vocab, self.sweep_threads),
        }
    }

    /// The store bound to `ds`'s content hash, the handle the drivers key
    /// their trained artifacts under; `None` without a store. Binding
    /// serializes the dataset once, so create it once per dataset.
    pub fn cache(&self, ds: &Dataset) -> Option<DatasetCache<'_>> {
        self.store.as_ref().map(|store| store.for_dataset(ds))
    }
}
