//! Data-parallel helpers built on the worksharing executor.
//!
//! [`ThreadPool::parallel_for`] is an OpenMP-shaped primitive: it runs a
//! side-effecting body over an index space. This module layers the
//! *collecting* patterns the rest of the repository needs on top of it —
//! a scoped, order-preserving [`parallel_map`] (and its index-space twin
//! [`parallel_map_indexed`]) plus the [`Threads`] knob that decides how many
//! workers drive it.
//!
//! Two properties are guaranteed and load-bearing (see DESIGN.md §9):
//!
//! * **Order preservation** — output slot `i` holds exactly `f(input[i])`,
//!   written back by index, so results never depend on completion order.
//! * **Determinism** — for a pure `f`, the returned vector is bit-identical
//!   regardless of the worker count (including the serial 1-thread path).
//!
//! Jobs are handed out through a `dynamic, chunk 1` schedule: the map is
//! meant for coarse-grained, heterogeneous work items (an exhaustive region
//! sweep takes orders of magnitude longer than a dispatch), where greedy
//! load balancing beats static partitioning.

use crate::config::{OmpConfig, Schedule};
use crate::pool::ThreadPool;
use std::sync::OnceLock;

/// Environment variable consulted by [`Threads::from_env`].
pub const THREADS_ENV_VAR: &str = "PNP_SWEEP_THREADS";

/// Environment variable consulted by [`Threads::from_train_env`] — the
/// worker count of the LOOCV training fan-out in `pnp-core` (one job per
/// `(fold, power level)` pair), kept separate from the sweep knob so the two
/// phases can be sized independently.
pub const TRAIN_THREADS_ENV_VAR: &str = "PNP_TRAIN_THREADS";

/// How many worker threads a data-parallel operation should use.
///
/// The knob is resolved *late* (at [`Threads::resolve`] time) so a single
/// value can be threaded through layers that do not know the machine it
/// will eventually run on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Threads {
    /// Use the host's available parallelism (`std::thread::available_parallelism`),
    /// falling back to 1 when it cannot be queried.
    #[default]
    Auto,
    /// Use exactly this many workers. `Fixed(0)` is a degenerate request and
    /// resolves to 1 — parallel operations never run with zero workers.
    Fixed(usize),
}

impl Threads {
    /// Resolves the knob from the `PNP_SWEEP_THREADS` environment variable:
    /// unset, empty, or `auto` (any case) mean [`Threads::Auto`]; a decimal
    /// integer means [`Threads::Fixed`]. Unparseable values fall back to
    /// `Auto` rather than aborting an hours-long experiment.
    pub fn from_env() -> Threads {
        Threads::from_env_var(THREADS_ENV_VAR)
    }

    /// Resolves the knob from the `PNP_TRAIN_THREADS` environment variable,
    /// with the same semantics as [`Threads::from_env`].
    pub fn from_train_env() -> Threads {
        Threads::from_env_var(TRAIN_THREADS_ENV_VAR)
    }

    /// Resolves the knob from an arbitrary environment variable (the shared
    /// core of [`Threads::from_env`] / [`Threads::from_train_env`]): unset
    /// means `Auto`, anything set goes through [`Threads::parse`], and
    /// unparseable values fall back to `Auto` rather than aborting an
    /// hours-long experiment.
    pub fn from_env_var(var: &str) -> Threads {
        match std::env::var(var) {
            Ok(v) => Threads::parse(&v).unwrap_or(Threads::Auto),
            Err(_) => Threads::Auto,
        }
    }

    /// Parses a knob value: `""`/`"auto"` (any case) → `Auto`, a decimal
    /// integer → `Fixed`. Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<Threads> {
        let s = s.trim();
        if s.is_empty() || s.eq_ignore_ascii_case("auto") {
            return Some(Threads::Auto);
        }
        s.parse::<usize>().ok().map(Threads::Fixed)
    }

    /// The concrete worker count: always ≥ 1.
    pub fn resolve(&self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            Threads::Fixed(n) => (*n).max(1),
        }
    }
}

impl std::fmt::Display for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Threads::Auto => write!(f, "auto({})", self.resolve()),
            Threads::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Maps `f` over `0..n` in parallel, returning the results in index order.
///
/// This is the indexed-collect primitive: each worker writes its result into
/// the slot of the index it computed, so the output is order-preserving and
/// (for a pure `f`) bit-identical for every worker count. With one worker —
/// or `n <= 1` — no threads are spawned and the map degenerates to a plain
/// serial loop over the same `f`, which is what makes the 1-thread output
/// the natural determinism baseline.
pub fn parallel_map_indexed<U, F>(n: usize, threads: Threads, f: F) -> Vec<U>
where
    U: Send + Sync,
    F: Fn(usize) -> U + Sync,
{
    let workers = threads.resolve().min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // One write-once slot per index. `OnceLock` both carries the value and
    // encodes the invariant that every index is produced exactly once.
    let slots: Vec<OnceLock<U>> = (0..n).map(|_| OnceLock::new()).collect();
    let pool = ThreadPool::new(OmpConfig::new(workers, Schedule::Dynamic, Some(1)));
    pool.parallel_for(n, |i| {
        let value = f(i);
        assert!(
            slots[i].set(value).is_ok(),
            "parallel_for visited index {i} twice"
        );
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("parallel_for covered every index"))
        .collect()
}

/// Maps `f` over a slice in parallel, returning `Vec<f(item)>` in input
/// order. A thin wrapper over [`parallel_map_indexed`]; the same ordering and
/// determinism guarantees apply.
pub fn parallel_map<T, U, F>(items: &[T], threads: Threads, f: F) -> Vec<U>
where
    T: Sync,
    U: Send + Sync,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_indexed(items.len(), threads, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn output_is_in_input_order_for_every_worker_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)] {
            let got = parallel_map(&items, threads, |x| x * 3 + 1);
            assert_eq!(got, expected, "threads={threads:?}");
        }
    }

    #[test]
    fn indexed_map_matches_serial_map_bitwise() {
        // Float results must be bit-identical, not just approximately equal.
        let f = |i: usize| ((i as f64) * 0.1).sin() / ((i + 1) as f64);
        let serial: Vec<u64> = (0..1000).map(|i| f(i).to_bits()).collect();
        for workers in [2usize, 3, 8] {
            let par = parallel_map_indexed(1000, Threads::Fixed(workers), f);
            let par_bits: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
            assert_eq!(par_bits, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<i32> = parallel_map_indexed(0, Threads::Fixed(4), |i| i as i32);
        assert!(empty.is_empty());
        let one = parallel_map_indexed(1, Threads::Auto, |i| i + 41);
        assert_eq!(one, vec![41]);
    }

    #[test]
    fn multiple_workers_actually_participate() {
        // Scheduling is up to the OS, so retry a few times before declaring
        // the executor single-threaded (the sleeps make a lone worker
        // draining every job astronomically unlikely, but not impossible).
        for attempt in 0..3 {
            let ids = Mutex::new(HashSet::new());
            parallel_map_indexed(64, Threads::Fixed(4), |i| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(200));
                i
            });
            if ids.into_inner().unwrap().len() > 1 {
                return;
            }
            eprintln!("attempt {attempt}: only one worker participated, retrying");
        }
        panic!("no run saw more than one participating worker");
    }

    #[test]
    fn single_worker_spawns_no_threads() {
        let main_id = std::thread::current().id();
        parallel_map_indexed(16, Threads::Fixed(1), |i| {
            assert_eq!(std::thread::current().id(), main_id);
            i
        });
    }

    #[test]
    fn knob_parsing_and_clamping() {
        assert_eq!(Threads::parse("auto"), Some(Threads::Auto));
        assert_eq!(Threads::parse("AUTO"), Some(Threads::Auto));
        assert_eq!(Threads::parse(""), Some(Threads::Auto));
        assert_eq!(Threads::parse(" 4 "), Some(Threads::Fixed(4)));
        assert_eq!(Threads::parse("0"), Some(Threads::Fixed(0)));
        assert_eq!(Threads::parse("-1"), None);
        assert_eq!(Threads::parse("many"), None);
        // The degenerate zero request is clamped, never honoured.
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert!(Threads::Auto.resolve() >= 1);
        assert_eq!(Threads::default(), Threads::Auto);
    }

    #[test]
    fn display_names_the_resolved_auto_count() {
        assert_eq!(Threads::Fixed(6).to_string(), "6");
        let auto = Threads::Auto.to_string();
        assert!(auto.starts_with("auto("), "{auto}");
    }
}
