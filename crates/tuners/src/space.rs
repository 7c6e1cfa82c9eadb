//! The tuning search space of Table I.

use pnp_machine::MachineSpec;
use pnp_openmp::{default_config, OmpConfig, Schedule};
use serde::{Deserialize, Serialize};

/// The chunk sizes of Table I.
pub const CHUNK_SIZES: [usize; 7] = [1, 8, 32, 64, 128, 256, 512];

/// One point of the joint search space: a power cap plus an OpenMP runtime
/// configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConfigPoint {
    /// Package power cap in watts.
    pub power_watts: f64,
    /// OpenMP runtime configuration.
    pub omp: OmpConfig,
}

/// The machine-specific search space (Table I).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Power cap levels (4 per machine).
    pub power_levels: Vec<f64>,
    /// Thread counts (6 per machine).
    pub thread_counts: Vec<usize>,
    /// Scheduling policies (3).
    pub schedules: Vec<Schedule>,
    /// Chunk sizes (7).
    pub chunk_sizes: Vec<usize>,
    /// The default OpenMP configuration of the machine (all hardware threads,
    /// static schedule, default chunk).
    pub default_config: OmpConfig,
}

impl SearchSpace {
    /// Builds the Table I search space for a machine.
    pub fn for_machine(machine: &MachineSpec) -> Self {
        SearchSpace {
            power_levels: machine.default_power_levels(),
            thread_counts: machine.default_thread_counts(),
            schedules: Schedule::all().to_vec(),
            chunk_sizes: CHUNK_SIZES.to_vec(),
            default_config: default_config(machine),
        }
    }

    /// Number of OpenMP configurations per power level (6 × 3 × 7 = 126).
    pub fn configs_per_power(&self) -> usize {
        self.thread_counts.len() * self.schedules.len() * self.chunk_sizes.len()
    }

    /// Number of tuned points in the joint space (paper: 504).
    pub fn num_tuned_points(&self) -> usize {
        self.configs_per_power() * self.power_levels.len()
    }

    /// Number of valid points including the default configuration at each
    /// power level (paper: 508).
    pub fn num_valid_points(&self) -> usize {
        self.num_tuned_points() + self.power_levels.len()
    }

    /// Enumerates the OpenMP configurations tuned within one power level, in
    /// a stable order (this order defines the scenario-1 class labels).
    pub fn omp_configs(&self) -> Vec<OmpConfig> {
        let mut v = Vec::with_capacity(self.configs_per_power());
        for &threads in &self.thread_counts {
            for &schedule in &self.schedules {
                for &chunk in &self.chunk_sizes {
                    v.push(OmpConfig::new(threads, schedule, Some(chunk)));
                }
            }
        }
        v
    }

    /// The OpenMP configuration of class `class` within a power level —
    /// `omp_configs()[class]` without building the list, and the inverse of
    /// [`SearchSpace::omp_index`].
    ///
    /// # Panics
    ///
    /// If `class >= configs_per_power()`.
    pub fn omp_config(&self, class: usize) -> OmpConfig {
        let (schedules, chunks) = (self.schedules.len(), self.chunk_sizes.len());
        OmpConfig::new(
            self.thread_counts[class / (schedules * chunks)],
            self.schedules[class / chunks % schedules],
            Some(self.chunk_sizes[class % chunks]),
        )
    }

    /// The class index of an OpenMP configuration within a power level, if it
    /// is part of the tuned space.
    pub fn omp_index(&self, config: &OmpConfig) -> Option<usize> {
        let t = self
            .thread_counts
            .iter()
            .position(|&x| x == config.threads)?;
        let s = self.schedules.iter().position(|&x| x == config.schedule)?;
        let c = self
            .chunk_sizes
            .iter()
            .position(|&x| Some(x) == config.chunk)?;
        Some(t * self.schedules.len() * self.chunk_sizes.len() + s * self.chunk_sizes.len() + c)
    }

    /// Enumerates the full joint space (power × OpenMP configuration), in a
    /// stable order (this order defines the scenario-2 / EDP class labels).
    pub fn joint_points(&self) -> Vec<ConfigPoint> {
        let omp = self.omp_configs();
        let mut v = Vec::with_capacity(self.num_tuned_points());
        for &power in &self.power_levels {
            for config in &omp {
                v.push(ConfigPoint {
                    power_watts: power,
                    omp: *config,
                });
            }
        }
        v
    }

    /// The joint-space class index of `(power level index, OpenMP class index)`.
    pub fn joint_index(&self, power_idx: usize, omp_idx: usize) -> usize {
        power_idx * self.configs_per_power() + omp_idx
    }

    /// Decodes a joint-space class index back into a [`ConfigPoint`].
    pub fn decode_joint(&self, class: usize) -> ConfigPoint {
        let per = self.configs_per_power();
        ConfigPoint {
            power_watts: self.power_levels[class / per],
            omp: self.omp_config(class % per),
        }
    }

    /// Normalized feature vector of a point, used by the surrogate models of
    /// the BLISS-style tuner: [threads/max, log2(threads)/log2(max),
    /// schedule one-hot ×3, log2(chunk)/log2(max chunk), power/TDP].
    pub fn point_features(&self, point: &ConfigPoint) -> Vec<f64> {
        let max_threads = *self.thread_counts.iter().max().unwrap() as f64;
        let max_chunk = *self.chunk_sizes.iter().max().unwrap() as f64;
        let max_power = self.power_levels.iter().cloned().fold(1.0, f64::max);
        let chunk = point.omp.chunk.unwrap_or(1) as f64;
        let mut f = vec![
            point.omp.threads as f64 / max_threads,
            (point.omp.threads as f64).log2() / max_threads.log2(),
            0.0,
            0.0,
            0.0,
            chunk.log2() / max_chunk.log2().max(1.0),
            point.power_watts / max_power,
        ];
        f[2 + match point.omp.schedule {
            Schedule::Static => 0,
            Schedule::Dynamic => 1,
            Schedule::Guided => 2,
        }] = 1.0;
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnp_machine::{haswell, skylake};

    #[test]
    fn space_sizes_match_table_one() {
        for machine in [haswell(), skylake()] {
            let space = SearchSpace::for_machine(&machine);
            assert_eq!(space.configs_per_power(), 126);
            assert_eq!(space.num_tuned_points(), 504);
            assert_eq!(space.num_valid_points(), 508);
            assert_eq!(space.omp_configs().len(), 126);
            assert_eq!(space.joint_points().len(), 504);
        }
    }

    #[test]
    fn omp_index_roundtrips() {
        let space = SearchSpace::for_machine(&haswell());
        for (i, config) in space.omp_configs().iter().enumerate() {
            assert_eq!(space.omp_index(config), Some(i));
        }
        // The default configuration (no explicit chunk) is outside the tuned space.
        assert_eq!(space.omp_index(&space.default_config), None);
    }

    #[test]
    fn omp_config_inverts_omp_index_for_every_class() {
        for machine in [haswell(), skylake()] {
            let space = SearchSpace::for_machine(&machine);
            for (class, config) in space.omp_configs().iter().enumerate() {
                assert_eq!(
                    &space.omp_config(class),
                    config,
                    "{} class {class}",
                    machine.name
                );
                assert_eq!(space.omp_index(&space.omp_config(class)), Some(class));
            }
        }
    }

    #[test]
    fn joint_index_roundtrips() {
        let space = SearchSpace::for_machine(&skylake());
        let points = space.joint_points();
        for (class, point) in points.iter().enumerate() {
            let decoded = space.decode_joint(class);
            assert_eq!(&decoded, point);
        }
        assert_eq!(space.joint_index(2, 10), 2 * 126 + 10);
    }

    #[test]
    fn features_are_bounded_and_distinct() {
        let space = SearchSpace::for_machine(&haswell());
        let points = space.joint_points();
        let f0 = space.point_features(&points[0]);
        assert_eq!(f0.len(), 7);
        for p in points.iter().step_by(37) {
            let f = space.point_features(p);
            assert!(f.iter().all(|x| (-0.01..=1.01).contains(x)), "{f:?}");
        }
        let f_last = space.point_features(points.last().unwrap());
        assert_ne!(f0, f_last);
    }
}
