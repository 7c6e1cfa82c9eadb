//! Power-constrained tuning (Figures 2 and 3, plus the §IV-B headline
//! numbers): at each of the four power caps, every tuner picks an OpenMP
//! configuration for every region; results are reported as per-application
//! geometric-mean speedups over the default configuration, normalized by the
//! oracle's speedup.

use crate::artifact::DatasetCache;
use crate::dataset::Dataset;
use crate::eval::{fraction_no_worse, fraction_within, geomean};
use crate::report::TextTable;
use crate::training::{train_scenario1_models_cached, TrainSettings};
use pnp_tuners::{BlissTuner, Objective, OpenTunerLike, RegionEvaluator, SimEvaluator};
use serde::Serialize;

/// The tuners compared in Figures 2/3, in plotting order.
pub const TUNERS: [&str; 5] = ["default", "pnp_static", "pnp_dynamic", "bliss", "opentuner"];

/// One bar group of Figure 2/3: one application at one power cap.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct FigureRow {
    /// Application name.
    pub app: String,
    /// Power cap in watts.
    pub power_watts: f64,
    /// Oracle-normalized geometric-mean speedup per tuner, ordered as
    /// [`TUNERS`].
    pub normalized: Vec<f64>,
}

/// Headline numbers of §IV-B for one machine.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct Summary {
    /// Geometric-mean raw speedup over the default configuration per power
    /// cap, for each tuner (ordered as [`TUNERS`], excluding "default").
    pub geomean_speedup_per_power: Vec<(f64, Vec<f64>)>,
    /// Oracle geometric-mean speedup per power cap.
    pub oracle_geomean_per_power: Vec<(f64, f64)>,
    /// Fraction of (region, power) cases where the static PnP tuner is within
    /// 5 % of the oracle.
    pub pnp_static_within_95: f64,
    /// Same for the dynamic variant.
    pub pnp_dynamic_within_95: f64,
    /// Same for BLISS and OpenTuner.
    pub bliss_within_95: f64,
    /// Fraction of cases OpenTuner is within 5 % of the oracle.
    pub opentuner_within_95: f64,
    /// Fraction of cases the PnP tuner (static) matches or beats BLISS.
    pub pnp_beats_bliss: f64,
    /// Fraction of cases the PnP tuner (static) matches or beats OpenTuner.
    pub pnp_beats_opentuner: f64,
    /// Average number of region executions each tuner needed per case.
    pub executions_per_case: Vec<(String, f64)>,
}

/// Full results of the power-constrained experiment on one machine.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct PowerConstrainedResults {
    /// Machine name ("haswell" → Figure 2, "skylake" → Figure 3).
    pub machine: String,
    /// Per-application, per-power rows.
    pub rows: Vec<FigureRow>,
    /// Headline summary.
    pub summary: Summary,
}

impl PowerConstrainedResults {
    /// Index of a tuner name within [`TUNERS`] (the order of every
    /// per-tuner vector in the rows).
    pub fn tuner_index(name: &str) -> Option<usize> {
        TUNERS.iter().position(|t| *t == name)
    }

    /// The distinct power caps, in row (ascending) order.
    pub fn power_caps(&self) -> Vec<f64> {
        let mut caps: Vec<f64> = self.rows.iter().map(|r| r.power_watts).collect();
        caps.sort_by(f64::total_cmp);
        caps.dedup();
        caps
    }

    /// Geometric-mean *raw* speedup over the default configuration for a
    /// tuner at a power cap (`None` for unknown tuners/caps; "default" is
    /// 1.0 by construction). This is the structured accessor the
    /// paper-fidelity validator consumes — no stdout scraping.
    pub fn geomean_speedup(&self, tuner: &str, power_watts: f64) -> Option<f64> {
        if tuner == "default" {
            return self.cap_entry(power_watts).map(|_| 1.0);
        }
        let t = Self::tuner_index(tuner)?.checked_sub(1)?;
        self.cap_entry(power_watts)?.1.get(t).copied()
    }

    /// Oracle geometric-mean speedup at a power cap.
    pub fn oracle_geomean(&self, power_watts: f64) -> Option<f64> {
        self.summary
            .oracle_geomean_per_power
            .iter()
            .find(|(p, _)| *p == power_watts)
            .map(|(_, g)| *g)
    }

    /// The per-application figure rows at one power cap.
    pub fn rows_at(&self, power_watts: f64) -> Vec<&FigureRow> {
        self.rows
            .iter()
            .filter(|r| r.power_watts == power_watts)
            .collect()
    }

    fn cap_entry(&self, power_watts: f64) -> Option<&(f64, Vec<f64>)> {
        self.summary
            .geomean_speedup_per_power
            .iter()
            .find(|(p, _)| *p == power_watts)
    }

    /// Renders the figure as one table per power cap (the paper's four
    /// stacked charts).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let powers: Vec<f64> = {
            let mut p: Vec<f64> = self.rows.iter().map(|r| r.power_watts).collect();
            p.dedup();
            p
        };
        for power in powers {
            out.push_str(&format!(
                "\nNormalized speedups at {power:.0} W ({}) — oracle = 1.0\n",
                self.machine
            ));
            let mut table =
                TextTable::new(&["app", TUNERS[0], TUNERS[1], TUNERS[2], TUNERS[3], TUNERS[4]]);
            for row in self.rows.iter().filter(|r| r.power_watts == power) {
                table.row_numeric(&row.app, &row.normalized);
            }
            out.push_str(&table.render());
        }
        out.push_str(&format!("\nSummary ({})\n", self.machine));
        let mut table = TextTable::new(&[
            "power W",
            "oracle",
            "pnp_static",
            "pnp_dynamic",
            "bliss",
            "opentuner",
        ]);
        for ((power, tuners), (_, oracle)) in self
            .summary
            .geomean_speedup_per_power
            .iter()
            .zip(&self.summary.oracle_geomean_per_power)
        {
            let mut vals = vec![*oracle];
            vals.extend_from_slice(tuners);
            table.row_numeric(&format!("{power:.0}"), &vals);
        }
        out.push_str(&table.render());
        out.push_str(&format!(
            "\n>=0.95x oracle: pnp_static {:.1}% | pnp_dynamic {:.1}% | bliss {:.1}% | opentuner {:.1}%\n",
            100.0 * self.summary.pnp_static_within_95,
            100.0 * self.summary.pnp_dynamic_within_95,
            100.0 * self.summary.bliss_within_95,
            100.0 * self.summary.opentuner_within_95,
        ));
        out.push_str(&format!(
            "PnP (static) matches/beats BLISS in {:.1}% and OpenTuner in {:.1}% of cases\n",
            100.0 * self.summary.pnp_beats_bliss,
            100.0 * self.summary.pnp_beats_opentuner,
        ));
        out.push_str("Executions per tuned case: ");
        for (name, execs) in &self.summary.executions_per_case {
            out.push_str(&format!("{name}={execs:.1} "));
        }
        out.push('\n');
        out
    }
}

/// Runs the experiment on a dataset. With a cache bound to `ds`, the
/// scenario-1 static and dynamic model grids are loaded and replayed when
/// warm, trained and saved when cold — bit-identical either way (DESIGN.md
/// §12). The LOOCV fan-out is governed by `settings.train_threads`; results
/// are bit-identical for every value. Datasets the pipeline cannot process
/// (no regions, no power levels) yield a typed error, not a panic.
pub fn run(
    ds: &Dataset,
    settings: &TrainSettings,
    cache: Option<&DatasetCache>,
) -> Result<PowerConstrainedResults, super::ExperimentError> {
    super::check_dataset(ds, 1)?;
    let preds_static = train_scenario1_models_cached(ds, settings, false, cache);
    let preds_dynamic = train_scenario1_models_cached(ds, settings, true, cache);
    let num_powers = ds.space.power_levels.len();

    // Per (region, power) normalized speedups per tuner.
    let mut normalized: Vec<Vec<Vec<f64>>> = vec![Vec::new(); TUNERS.len()];
    let mut raw_speedup: Vec<Vec<Vec<f64>>> = vec![Vec::new(); TUNERS.len()];
    let mut oracle_speedups: Vec<Vec<f64>> = Vec::new();
    let mut bliss_execs = 0.0;
    let mut opentuner_execs = 0.0;

    for t in 0..TUNERS.len() {
        normalized[t] = vec![Vec::new(); num_powers];
        raw_speedup[t] = vec![Vec::new(); num_powers];
    }

    for (i, sweep) in ds.sweeps.iter().enumerate() {
        let evaluator = SimEvaluator::new(ds.machine.clone(), ds.regions[i].profile.clone());
        let mut oracle_row = Vec::new();
        for p in 0..num_powers {
            let default_t = sweep.default_samples[p].time_s;
            let best_t = sweep.best_time(p);
            let oracle_speedup = default_t / best_t;
            oracle_row.push(oracle_speedup);

            // Tuner times at this power.
            let pnp_static_t = sweep.samples[p][preds_static[i][p]].time_s;
            let pnp_dynamic_t = sweep.samples[p][preds_dynamic[i][p]].time_s;

            let objective = Objective::TimeAtPower {
                power_watts: ds.space.power_levels[p],
            };
            let before = evaluator.evaluations();
            let bliss = BlissTuner::new(&ds.space, 1000 + i as u64).tune(&evaluator, &objective);
            bliss_execs += (evaluator.evaluations() - before) as f64;
            let before = evaluator.evaluations();
            let opentuner =
                OpenTunerLike::new(&ds.space, 2000 + i as u64).tune(&evaluator, &objective);
            opentuner_execs += (evaluator.evaluations() - before) as f64;

            let times = [
                default_t,
                pnp_static_t,
                pnp_dynamic_t,
                bliss.best_sample.time_s,
                opentuner.best_sample.time_s,
            ];
            for (t, &time) in times.iter().enumerate() {
                let speedup = default_t / time;
                raw_speedup[t][p].push(speedup);
                normalized[t][p].push((speedup / oracle_speedup).min(1.0));
            }
        }
        oracle_speedups.push(oracle_row);
    }

    // Per-application rows (geometric mean over the app's regions).
    let mut rows = Vec::new();
    let apps = ds.applications();
    for p in 0..num_powers {
        for app in &apps {
            let region_idx: Vec<usize> = (0..ds.len())
                .filter(|&i| ds.regions[i].app == *app)
                .collect();
            let mut per_tuner = Vec::new();
            for norm_t in normalized.iter() {
                let vals: Vec<f64> = region_idx.iter().map(|&i| norm_t[p][i]).collect();
                per_tuner.push(geomean(&vals));
            }
            rows.push(FigureRow {
                app: app.clone(),
                power_watts: ds.space.power_levels[p],
                normalized: per_tuner,
            });
        }
    }
    // Keep figure ordering: power-major (one chart per power), matching
    // render(). `total_cmp` so a degenerate (NaN) cap cannot panic the sort.
    rows.sort_by(|a, b| a.power_watts.total_cmp(&b.power_watts));

    // Summary.
    let flat = |t: usize| -> Vec<f64> {
        (0..num_powers)
            .flat_map(|p| normalized[t][p].iter().copied())
            .collect()
    };
    let pnp_flat = flat(1);
    let dyn_flat = flat(2);
    let bliss_flat = flat(3);
    let opentuner_flat = flat(4);

    let cases = ds.len() as f64 * num_powers as f64;
    let summary = Summary {
        geomean_speedup_per_power: (0..num_powers)
            .map(|p| {
                (
                    ds.space.power_levels[p],
                    (1..TUNERS.len())
                        .map(|t| geomean(&raw_speedup[t][p]))
                        .collect(),
                )
            })
            .collect(),
        oracle_geomean_per_power: (0..num_powers)
            .map(|p| {
                let v: Vec<f64> = oracle_speedups.iter().map(|r| r[p]).collect();
                (ds.space.power_levels[p], geomean(&v))
            })
            .collect(),
        pnp_static_within_95: fraction_within(&pnp_flat, 0.95),
        pnp_dynamic_within_95: fraction_within(&dyn_flat, 0.95),
        bliss_within_95: fraction_within(&bliss_flat, 0.95),
        opentuner_within_95: fraction_within(&opentuner_flat, 0.95),
        pnp_beats_bliss: fraction_no_worse(&pnp_flat, &bliss_flat),
        pnp_beats_opentuner: fraction_no_worse(&pnp_flat, &opentuner_flat),
        executions_per_case: vec![
            ("pnp_static".into(), 0.0),
            ("pnp_dynamic".into(), 2.0),
            ("bliss".into(), bliss_execs / cases),
            ("opentuner".into(), opentuner_execs / cases),
        ],
    };

    Ok(PowerConstrainedResults {
        machine: ds.machine.name.clone(),
        rows,
        summary,
    })
}
