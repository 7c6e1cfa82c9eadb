//! Generalization to unseen power constraints (Figures 4 and 5): the model is
//! trained with all measurements at the target cap removed, using hardware
//! counters plus the normalized power cap as dynamic features, and evaluated
//! on the held-out cap (lowest and highest per machine).

use crate::artifact::DatasetCache;
use crate::dataset::Dataset;
use crate::eval::{fraction_within, geomean};
use crate::report::TextTable;
use crate::training::{train_unseen_power_cached, TrainSettings};
use serde::Serialize;

/// One application bar of Figure 4/5 at one held-out power cap.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct UnseenPowerRow {
    /// Application name.
    pub app: String,
    /// Held-out power cap in watts.
    pub power_watts: f64,
    /// Oracle-normalized speedup of the default configuration.
    pub default_norm: f64,
    /// Oracle-normalized speedup of the PnP prediction.
    pub pnp_norm: f64,
}

/// Results for one machine (two held-out caps).
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct UnseenPowerResults {
    /// Machine name ("skylake" → Figure 4, "haswell" → Figure 5).
    pub machine: String,
    /// Per-application, per-held-out-cap rows.
    pub rows: Vec<UnseenPowerRow>,
    /// Geometric-mean PnP speedup over default at each held-out cap,
    /// `(cap, pnp, oracle)`.
    pub geomean_speedups: Vec<(f64, f64, f64)>,
    /// Fraction of regions within 5 % of the oracle (both caps pooled).
    pub within_95: f64,
    /// Fraction of regions within 20 % of the oracle.
    pub within_80: f64,
}

impl UnseenPowerResults {
    /// The held-out power caps, in evaluation order.
    pub fn held_out_caps(&self) -> Vec<f64> {
        self.geomean_speedups.iter().map(|(c, _, _)| *c).collect()
    }

    /// `(pnp, oracle)` geometric-mean speedups at one held-out cap — the
    /// structured accessor the paper-fidelity validator consumes.
    pub fn geomean_at(&self, cap: f64) -> Option<(f64, f64)> {
        self.geomean_speedups
            .iter()
            .find(|(c, _, _)| *c == cap)
            .map(|(_, p, o)| (*p, *o))
    }

    /// Renders the figure's series as a table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "\nUnseen power constraints ({}) — normalized speedups, oracle = 1.0\n",
            self.machine
        ));
        let mut t = TextTable::new(&["app", "power W", "default", "pnp"]);
        for row in &self.rows {
            t.row(&[
                row.app.clone(),
                format!("{:.0}", row.power_watts),
                format!("{:.3}", row.default_norm),
                format!("{:.3}", row.pnp_norm),
            ]);
        }
        out.push_str(&t.render());
        for (cap, pnp, oracle) in &self.geomean_speedups {
            out.push_str(&format!(
                "geomean speedup at {cap:.0} W: PnP {pnp:.2}x vs oracle {oracle:.2}x\n"
            ));
        }
        out.push_str(&format!(
            "within 5% of oracle: {:.1}% | within 20%: {:.1}%\n",
            100.0 * self.within_95,
            100.0 * self.within_80
        ));
        out
    }
}

/// Runs the unseen-power experiment on a dataset, holding out the lowest
/// and the highest cap as in the paper. With a cache bound to `ds`, one
/// trained-model grid per held-out cap is loaded and replayed when warm,
/// trained and saved when cold — bit-identical either way. Holding a cap out
/// requires at least two power levels and a non-empty region list;
/// degenerate datasets yield a typed error instead of an underflow or an
/// empty-training-set panic.
pub fn run(
    ds: &Dataset,
    settings: &TrainSettings,
    cache: Option<&DatasetCache>,
) -> Result<UnseenPowerResults, super::ExperimentError> {
    super::check_dataset(ds, 2)?;
    let held_out = [ds.space.power_levels.len() - 1, 0];
    let mut rows = Vec::new();
    let mut geomean_speedups = Vec::new();
    let mut all_norm = Vec::new();

    for &p in &held_out {
        let preds = train_unseen_power_cached(ds, settings, p, cache);
        let mut pnp_speedups = Vec::new();
        let mut oracle_speedups = Vec::new();
        let mut norm_per_region = Vec::new();
        for (i, sweep) in ds.sweeps.iter().enumerate() {
            let default_t = sweep.default_samples[p].time_s;
            let best_t = sweep.best_time(p);
            let pnp_t = sweep.samples[p][preds[i]].time_s;
            let oracle_speedup = default_t / best_t;
            let pnp_speedup = default_t / pnp_t;
            pnp_speedups.push(pnp_speedup);
            oracle_speedups.push(oracle_speedup);
            norm_per_region.push((pnp_speedup / oracle_speedup).min(1.0));
        }
        all_norm.extend(norm_per_region.iter().copied());
        geomean_speedups.push((
            ds.space.power_levels[p],
            geomean(&pnp_speedups),
            geomean(&oracle_speedups),
        ));

        for app in ds.applications() {
            let idx: Vec<usize> = (0..ds.len())
                .filter(|&i| ds.regions[i].app == app)
                .collect();
            let default_norm = geomean(
                &idx.iter()
                    .map(|&i| {
                        let sweep = &ds.sweeps[i];
                        (sweep.best_time(p) / sweep.default_samples[p].time_s).min(1.0)
                    })
                    .collect::<Vec<_>>(),
            );
            let pnp_norm = geomean(&idx.iter().map(|&i| norm_per_region[i]).collect::<Vec<_>>());
            rows.push(UnseenPowerRow {
                app,
                power_watts: ds.space.power_levels[p],
                default_norm,
                pnp_norm,
            });
        }
    }

    Ok(UnseenPowerResults {
        machine: ds.machine.name.clone(),
        rows,
        geomean_speedups,
        within_95: fraction_within(&all_norm, 0.95),
        within_80: fraction_within(&all_norm, 0.80),
    })
}
