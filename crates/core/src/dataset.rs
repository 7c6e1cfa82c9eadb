//! Dataset creation: the exhaustive sweep that both trains the model (labels)
//! and serves as the oracle every tuner is normalized against.

use pnp_benchmarks::Application;
use pnp_graph::{EncodedGraph, Vocabulary};
use pnp_machine::{CounterSet, EnergySample, MachineSpec, PowerModel};
use pnp_openmp::sim::simulate_region_with_model;
use pnp_openmp::{parallel_map_indexed, OmpConfig, RegionProfile, Threads};
use pnp_tuners::{ConfigPoint, SearchSpace};
use serde::{Deserialize, Serialize};

/// One region of the dataset: identification, static features, and profile.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegionRecord {
    /// Application the region belongs to (the LOOCV group).
    pub app: String,
    /// Region name.
    pub region: String,
    /// Encoded code graph (static features).
    pub graph: EncodedGraph,
    /// Workload profile driving the simulator.
    pub profile: RegionProfile,
}

/// The exhaustive sweep of one region on one machine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sweep {
    /// `samples[p][c]` = sample of OpenMP config `c` (space order) at power
    /// level `p`.
    pub samples: Vec<Vec<EnergySample>>,
    /// Sample of the *default* OpenMP configuration at each power level.
    pub default_samples: Vec<EnergySample>,
    /// Counters observed when running the default configuration at each
    /// power level (the dynamic features; the paper collects them with PAPI
    /// in two profiling runs).
    pub default_counters: Vec<CounterSet>,
}

impl Sweep {
    /// Index of the fastest OpenMP configuration at power level `p`.
    pub fn best_time_config(&self, p: usize) -> usize {
        argmin(self.samples[p].iter().map(|s| s.time_s))
    }

    /// The best (lowest) execution time at power level `p`.
    pub fn best_time(&self, p: usize) -> f64 {
        self.samples[p][self.best_time_config(p)].time_s
    }

    /// `(power level, config)` minimizing the energy-delay product.
    pub fn best_edp_point(&self) -> (usize, usize) {
        let mut best = (0usize, 0usize);
        let mut best_edp = f64::INFINITY;
        for (p, row) in self.samples.iter().enumerate() {
            for (c, s) in row.iter().enumerate() {
                if s.edp() < best_edp {
                    best_edp = s.edp();
                    best = (p, c);
                }
            }
        }
        best
    }

    /// The lowest EDP in the joint space.
    pub fn best_edp(&self) -> f64 {
        let (p, c) = self.best_edp_point();
        self.samples[p][c].edp()
    }
}

fn argmin<I: Iterator<Item = f64>>(values: I) -> usize {
    let mut best = 0;
    let mut best_v = f64::INFINITY;
    for (i, v) in values.enumerate() {
        if v < best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// The full dataset for one machine.
///
/// Serializes losslessly (floats use shortest-round-trip formatting), which
/// the artifact store relies on: a dataset cached by `pnp_core::artifact`
/// and loaded back re-serializes to byte-identical JSON.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    /// The machine the sweep was performed on.
    pub machine: MachineSpec,
    /// The Table I search space of that machine.
    pub space: SearchSpace,
    /// Region records (static features), in suite order.
    pub regions: Vec<RegionRecord>,
    /// Exhaustive sweeps, parallel to `regions`.
    pub sweeps: Vec<Sweep>,
}

/// The serial (per-region) unit of work of [`Dataset::build`]: one region's
/// full `(power level, OpenMP configuration)` grid plus its graph encoding.
struct RegionJob {
    app: String,
    region: String,
    graph: pnp_graph::CodeGraph,
    profile: RegionProfile,
}

impl RegionJob {
    fn run(
        &self,
        machine: &MachineSpec,
        power_model: &PowerModel,
        space: &SearchSpace,
        omp_configs: &[OmpConfig],
        vocab: &Vocabulary,
    ) -> (RegionRecord, Sweep) {
        let mut samples = Vec::with_capacity(space.power_levels.len());
        let mut default_samples = Vec::with_capacity(space.power_levels.len());
        let mut default_counters = Vec::with_capacity(space.power_levels.len());
        for &power in &space.power_levels {
            let row: Vec<EnergySample> = omp_configs
                .iter()
                .map(|omp| {
                    simulate_region_with_model(machine, power_model, &self.profile, omp, power)
                        .sample()
                })
                .collect();
            let default_run = simulate_region_with_model(
                machine,
                power_model,
                &self.profile,
                &space.default_config,
                power,
            );
            default_samples.push(default_run.sample());
            default_counters.push(default_run.counters);
            samples.push(row);
        }
        (
            RegionRecord {
                app: self.app.clone(),
                region: self.region.clone(),
                graph: EncodedGraph::encode(&self.graph, vocab),
                profile: self.profile.clone(),
            },
            Sweep {
                samples,
                default_samples,
                default_counters,
            },
        )
    }
}

impl Dataset {
    /// Builds the dataset: encodes every region's code graph and sweeps every
    /// `(power level, OpenMP configuration)` point through the execution
    /// model.
    ///
    /// Worker count comes from the `PNP_SWEEP_THREADS` environment variable
    /// (see [`Threads::from_env`]); use [`Dataset::build_with_threads`] to
    /// set it explicitly. The result is bit-identical for every worker
    /// count.
    pub fn build(machine: &MachineSpec, apps: &[Application], vocab: &Vocabulary) -> Dataset {
        Dataset::build_with_threads(machine, apps, vocab, Threads::from_env())
    }

    /// Builds the dataset with an explicit worker count, fanning the
    /// per-region sweeps out over [`pnp_openmp::parallel_map_indexed`].
    ///
    /// Each region's `(power level, OpenMP configuration)` grid is one
    /// independent job; results are written back by region index, so
    /// `regions`/`sweeps` keep suite order and the dataset is bit-identical
    /// regardless of `threads` (DESIGN.md §9 explains why that determinism
    /// is a hard requirement for LOOCV reproducibility).
    pub fn build_with_threads(
        machine: &MachineSpec,
        apps: &[Application],
        vocab: &Vocabulary,
        threads: Threads,
    ) -> Dataset {
        let space = SearchSpace::for_machine(machine);
        let power_model = PowerModel::for_machine(machine);
        let omp_configs = space.omp_configs();

        // Serial, cheap prologue: lower every region to its code graph and
        // collect the independent jobs in suite order.
        let mut jobs = Vec::new();
        for app in apps {
            let graphs = app.region_graphs();
            for ((region_name, graph), bench) in graphs.into_iter().zip(&app.regions) {
                debug_assert_eq!(region_name, bench.source.name);
                jobs.push(RegionJob {
                    app: app.name.clone(),
                    region: bench.source.name.clone(),
                    graph,
                    profile: bench.profile.clone(),
                });
            }
        }

        // Parallel fan-out: job `i` produces exactly slot `i` of the output.
        let results = parallel_map_indexed(jobs.len(), threads, |i| {
            jobs[i].run(machine, &power_model, &space, &omp_configs, vocab)
        });
        let (regions, sweeps) = results.into_iter().unzip();

        Dataset {
            machine: machine.clone(),
            space,
            regions,
            sweeps,
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when the dataset holds no regions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The distinct application names, in first-appearance order (the LOOCV
    /// folds).
    pub fn applications(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.regions {
            if !seen.contains(&r.app) {
                seen.push(r.app.clone());
            }
        }
        seen
    }

    /// The configuration point for `(power index, OpenMP class index)`.
    pub fn point(&self, power_idx: usize, omp_idx: usize) -> ConfigPoint {
        crate::TuneObjective::Time { power_idx }.decode(&self.space, omp_idx)
    }

    /// The default OpenMP configuration of this machine.
    pub fn default_config(&self) -> OmpConfig {
        self.space.default_config
    }

    /// Normalized dynamic-feature vector for a region at a power level:
    /// the five PAPI-style counters (from the default-configuration profiling
    /// run) plus, optionally, the normalized power cap.
    pub fn dynamic_features(
        &self,
        region_idx: usize,
        power_idx: usize,
        include_power: bool,
    ) -> Vec<f32> {
        let mut f = self.sweeps[region_idx].default_counters[power_idx].normalized_features();
        if include_power {
            let max_power = self.machine.tdp_watts;
            f.push((self.space.power_levels[power_idx] / max_power) as f32);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnp_benchmarks::builders::{matmul_kernel, small_boundary_kernel, streaming_kernel};
    use pnp_machine::haswell;

    fn tiny_apps() -> Vec<Application> {
        vec![
            Application::new("appA", vec![matmul_kernel("appA_r0", 200, 200, 200)]),
            Application::new(
                "appB",
                vec![
                    streaming_kernel("appB_r0", 200_000, 2, 1.0),
                    small_boundary_kernel("appB_r1", 1000, 2),
                ],
            ),
        ]
    }

    #[test]
    fn parallel_build_is_bit_identical_to_the_serial_build() {
        let machine = haswell();
        let apps = tiny_apps();
        let vocab = Vocabulary::standard();
        let serial = Dataset::build_with_threads(&machine, &apps, &vocab, Threads::Fixed(1));
        let baseline = serde_json::to_string(&serial).expect("serializable");
        for workers in [2usize, 4] {
            let par = Dataset::build_with_threads(&machine, &apps, &vocab, Threads::Fixed(workers));
            assert_eq!(
                serde_json::to_string(&par).unwrap(),
                baseline,
                "dataset differs at {workers} workers"
            );
        }
    }

    #[test]
    fn dataset_dimensions_are_consistent() {
        let machine = haswell();
        let ds = Dataset::build(&machine, &tiny_apps(), &Vocabulary::standard());
        assert_eq!(ds.len(), 3);
        assert_eq!(
            ds.applications(),
            vec!["appA".to_string(), "appB".to_string()]
        );
        for sweep in &ds.sweeps {
            assert_eq!(sweep.samples.len(), 4);
            assert_eq!(sweep.samples[0].len(), 126);
            assert_eq!(sweep.default_samples.len(), 4);
        }
    }

    #[test]
    fn best_labels_are_really_the_best() {
        let machine = haswell();
        let ds = Dataset::build(&machine, &tiny_apps(), &Vocabulary::standard());
        for sweep in &ds.sweeps {
            for p in 0..4 {
                let best = sweep.best_time_config(p);
                let best_t = sweep.samples[p][best].time_s;
                assert!(sweep.samples[p].iter().all(|s| s.time_s >= best_t - 1e-15));
            }
            let (bp, bc) = sweep.best_edp_point();
            let best_edp = sweep.samples[bp][bc].edp();
            for row in &sweep.samples {
                for s in row {
                    assert!(s.edp() >= best_edp - 1e-15);
                }
            }
        }
    }

    #[test]
    fn oracle_beats_or_matches_the_default_configuration() {
        let machine = haswell();
        let ds = Dataset::build(&machine, &tiny_apps(), &Vocabulary::standard());
        for sweep in &ds.sweeps {
            for p in 0..4 {
                // The tuned space does not contain the default chunk setting,
                // but the best tuned config should still be at least roughly
                // as good as the default (and usually much better).
                assert!(sweep.best_time(p) <= sweep.default_samples[p].time_s * 1.05);
            }
        }
    }

    #[test]
    fn dynamic_features_have_expected_width() {
        let machine = haswell();
        let ds = Dataset::build(&machine, &tiny_apps(), &Vocabulary::standard());
        assert_eq!(ds.dynamic_features(0, 0, false).len(), 5);
        assert_eq!(ds.dynamic_features(0, 0, true).len(), 6);
        let low = ds.dynamic_features(0, 0, true);
        let high = ds.dynamic_features(0, 3, true);
        assert!(high[5] > low[5], "power feature should grow with the cap");
    }
}
