//! # pnp-openmp
//!
//! The OpenMP runtime layer of the reproduction. It provides:
//!
//! * [`OmpConfig`] — the tunable runtime configuration of Table I
//!   (thread count, scheduling policy, chunk size) plus the default
//!   configuration the paper compares against (all hardware threads, static
//!   schedule, compiler-chosen chunk).
//! * [`schedule`] — iteration-to-thread assignment for `static`, `dynamic`
//!   and `guided` schedules, both as pure chunk lists and as a cost-aware
//!   list-scheduling simulation.
//! * [`pool`] — a real shared-memory parallel-for executor (worksharing over
//!   OS threads) implementing the same three schedules, so examples and
//!   integration tests can run genuinely parallel kernels on the host.
//! * [`par`] — data-parallel collection helpers on top of the executor: an
//!   order-preserving [`parallel_map`] and the [`Threads`] worker knob. The
//!   exhaustive dataset sweep in `pnp-core` fans out over this layer.
//! * [`sim`] — the analytic execution model: given a machine, a power cap,
//!   a region's workload profile and an `OmpConfig`, it predicts execution
//!   time, energy, sustained frequency and PAPI-style counters. This replaces
//!   the paper's physical testbed measurements (see DESIGN.md).

pub mod config;
pub mod par;
pub mod pool;
pub mod profile;
pub mod schedule;
pub mod sim;

pub use config::{default_config, OmpConfig, Schedule};
pub use par::{parallel_map, parallel_map_indexed, Threads};
pub use pool::ThreadPool;
pub use profile::{AccessPattern, ImbalanceShape, RegionProfile};
pub use sim::{simulate_region, simulate_region_with_model, ExecutionResult};
