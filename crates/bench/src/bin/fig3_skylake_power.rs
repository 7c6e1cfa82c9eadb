//! Regenerates Figure 3: power-constrained tuning on the Skylake testbed
//! (normalized speedups per application at 75/100/120/150 W).

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::power_constrained;
use pnp_core::report::write_json;
use pnp_machine::skylake;

fn main() {
    banner(
        "Figure 3",
        "power-constrained tuning, Skylake (normalized by oracle)",
    );
    let (settings, ctx) = from_env_and_args();
    let ds = ctx.dataset(&skylake(), &full_suite());
    let results = or_exit(
        "fig3",
        power_constrained::run(&ds, &settings, ctx.cache(&ds).as_ref()),
    );
    println!("{}", results.render());
    if let Ok(path) = write_json("fig3_skylake_power", &results) {
        eprintln!("[pnp-bench] wrote {}", path.display());
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("fig3", store) {
            std::process::exit(1);
        }
    }
}
