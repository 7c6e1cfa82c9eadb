//! The Section I motivating example: exhaustive exploration of the
//! `ApplyAccelerationBoundaryConditionsForNodes` region of LULESH on the
//! Haswell machine.
//!
//! The paper reports that the best OpenMP configuration beats the default by
//! 7.54× / 2.11× / 1.80× / 1.67× at 40/60/70/85 W, that the most
//! energy-efficient point is *not* the fastest one (contradicting
//! race-to-halt), and that the best-EDP point gives a 1.64× speedup and a
//! 2.7× greenup over the default configuration at TDP.

use super::RunCtx;
use crate::artifact;
use crate::eval::geomean;
use crate::report::TextTable;
use pnp_benchmarks::proxy::lulesh;
use pnp_benchmarks::Application;
use pnp_graph::Vocabulary;
use pnp_machine::haswell;
use pnp_tuners::ConfigPoint;
use serde::Serialize;

use crate::dataset::Dataset;

/// Results of the motivating-example sweep.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct MotivatingResults {
    /// `(power cap, best speedup over the default config at that cap)`.
    pub best_speedup_per_cap: Vec<(f64, f64)>,
    /// The `(power, config)` point with the lowest energy, and its speedup /
    /// greenup over default-at-TDP.
    pub most_energy_efficient: (ConfigPoint, f64, f64),
    /// The `(power, config)` point with the lowest EDP, and its speedup /
    /// greenup over default-at-TDP.
    pub best_edp: (ConfigPoint, f64, f64),
    /// Whether the fastest point differs from the most energy-efficient point
    /// (the paper's "race-to-halt does not hold" observation).
    pub race_to_halt_violated: bool,
}

impl MotivatingResults {
    /// Best-over-default speedup at one power cap (structured accessor for
    /// the paper-fidelity validator).
    pub fn speedup_at(&self, cap: f64) -> Option<f64> {
        self.best_speedup_per_cap
            .iter()
            .find(|(c, _)| *c == cap)
            .map(|(_, s)| *s)
    }

    /// Renders the example as a small table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("\nMotivating example: LULESH boundary-condition region on Haswell\n");
        let mut t = TextTable::new(&["power cap (W)", "best speedup over default"]);
        for (cap, speedup) in &self.best_speedup_per_cap {
            t.row_numeric(&format!("{cap:.0}"), &[*speedup]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "most energy-efficient point: {} @ {:.0} W -> speedup {:.2}x, greenup {:.2}x over default @ TDP\n",
            self.most_energy_efficient.0.omp,
            self.most_energy_efficient.0.power_watts,
            self.most_energy_efficient.1,
            self.most_energy_efficient.2
        ));
        out.push_str(&format!(
            "best-EDP point:              {} @ {:.0} W -> speedup {:.2}x, greenup {:.2}x over default @ TDP\n",
            self.best_edp.0.omp,
            self.best_edp.0.power_watts,
            self.best_edp.1,
            self.best_edp.2
        ));
        out.push_str(&format!(
            "race-to-halt violated (fastest != greenest): {}\n",
            self.race_to_halt_violated
        ));
        out
    }
}

/// Runs the motivating-example sweep: a single-region dataset swept with
/// `ctx.sweep_threads` workers (a formality for one region, threaded through
/// for uniformity). With a store, the whole result — the sweep plus
/// deterministic argmin scans — is cached under the machine and suite
/// fingerprints (DESIGN.md §12).
pub fn run(ctx: &RunCtx) -> MotivatingResults {
    let machine = haswell();
    let lulesh_app = lulesh::app();
    let region_idx = lulesh_app
        .regions
        .iter()
        .position(|r| r.name() == lulesh::MOTIVATING_REGION)
        .expect("motivating region exists");
    let single = Application::new("LULESH", vec![lulesh_app.regions[region_idx].clone()]);
    match &ctx.store {
        Some(store) => {
            let key = artifact::motivating_key(&machine, std::slice::from_ref(&single));
            store.store().load_or_build(&key, || {
                compute_motivating(&machine, single.clone(), ctx.sweep_threads)
            })
        }
        None => compute_motivating(&machine, single, ctx.sweep_threads),
    }
}

/// The uncached motivating-example computation shared by both paths.
fn compute_motivating(
    machine: &pnp_machine::MachineSpec,
    single: Application,
    sweep_threads: pnp_openmp::Threads,
) -> MotivatingResults {
    let ds =
        Dataset::build_with_threads(machine, &[single], &Vocabulary::standard(), sweep_threads);
    let sweep = &ds.sweeps[0];
    let tdp_idx = ds.space.power_levels.len() - 1;
    let baseline_tdp = sweep.default_samples[tdp_idx];

    let best_speedup_per_cap: Vec<(f64, f64)> = (0..ds.space.power_levels.len())
        .map(|p| {
            (
                ds.space.power_levels[p],
                sweep.default_samples[p].time_s / sweep.best_time(p),
            )
        })
        .collect();

    // Most energy-efficient point over the joint space.
    let mut best_energy = (0usize, 0usize);
    let mut best_energy_val = f64::INFINITY;
    let mut fastest = (0usize, 0usize);
    let mut fastest_val = f64::INFINITY;
    for p in 0..ds.space.power_levels.len() {
        for c in 0..ds.space.configs_per_power() {
            let s = sweep.samples[p][c];
            if s.energy_j < best_energy_val {
                best_energy_val = s.energy_j;
                best_energy = (p, c);
            }
            if s.time_s < fastest_val {
                fastest_val = s.time_s;
                fastest = (p, c);
            }
        }
    }
    let (ep, ec) = best_energy;
    let energy_sample = sweep.samples[ep][ec];
    let most_energy_efficient = (
        ds.point(ep, ec),
        baseline_tdp.time_s / energy_sample.time_s,
        baseline_tdp.energy_j / energy_sample.energy_j,
    );

    let (bp, bc) = sweep.best_edp_point();
    let edp_sample = sweep.samples[bp][bc];
    let best_edp = (
        ds.point(bp, bc),
        baseline_tdp.time_s / edp_sample.time_s,
        baseline_tdp.energy_j / edp_sample.energy_j,
    );

    // Use the geometric mean of the per-cap speedups as a stable scalar for
    // reports (not part of the paper's numbers, but handy in EXPERIMENTS.md).
    let _overall = geomean(
        &best_speedup_per_cap
            .iter()
            .map(|(_, s)| *s)
            .collect::<Vec<_>>(),
    );

    MotivatingResults {
        best_speedup_per_cap,
        most_energy_efficient,
        best_edp,
        race_to_halt_violated: fastest != best_energy,
    }
}
