//! Regenerates Figure 2: power-constrained tuning on the Haswell testbed
//! (normalized speedups per application at 40/60/70/85 W for the default
//! configuration, PnP static/dynamic, BLISS, and OpenTuner).

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::power_constrained;
use pnp_core::report::write_json;
use pnp_machine::haswell;

fn main() {
    banner(
        "Figure 2",
        "power-constrained tuning, Haswell (normalized by oracle)",
    );
    let (settings, ctx) = from_env_and_args();
    let ds = ctx.dataset(&haswell(), &full_suite());
    let results = or_exit(
        "fig2",
        power_constrained::run(&ds, &settings, ctx.cache(&ds).as_ref()),
    );
    println!("{}", results.render());
    if let Ok(path) = write_json("fig2_haswell_power", &results) {
        eprintln!("[pnp-bench] wrote {}", path.display());
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("fig2", store) {
            std::process::exit(1);
        }
    }
}
