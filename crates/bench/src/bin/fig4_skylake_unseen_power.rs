//! Regenerates Figure 4: generalization to unseen power constraints on
//! Skylake (train without the 75 W / 150 W measurements, predict for them).

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::unseen_power;
use pnp_core::report::write_json;
use pnp_machine::skylake;

fn main() {
    banner("Figure 4", "unseen power constraints, Skylake");
    let (settings, ctx) = from_env_and_args();
    let ds = ctx.dataset(&skylake(), &full_suite());
    let results = or_exit(
        "fig4",
        unseen_power::run(&ds, &settings, ctx.cache(&ds).as_ref()),
    );
    println!("{}", results.render());
    if let Ok(path) = write_json("fig4_skylake_unseen_power", &results) {
        eprintln!("[pnp-bench] wrote {}", path.display());
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("fig4", store) {
            std::process::exit(1);
        }
    }
}
