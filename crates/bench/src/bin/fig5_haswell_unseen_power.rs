//! Regenerates Figure 5: generalization to unseen power constraints on
//! Haswell (train without the 40 W / 85 W measurements, predict for them).

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::unseen_power;
use pnp_core::report::write_json;
use pnp_machine::haswell;

fn main() {
    banner("Figure 5", "unseen power constraints, Haswell");
    let (settings, ctx) = from_env_and_args();
    let ds = ctx.dataset(&haswell(), &full_suite());
    let results = or_exit(
        "fig5",
        unseen_power::run(&ds, &settings, ctx.cache(&ds).as_ref()),
    );
    println!("{}", results.render());
    if let Ok(path) = write_json("fig5_haswell_unseen_power", &results) {
        eprintln!("[pnp-bench] wrote {}", path.display());
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("fig5", store) {
            std::process::exit(1);
        }
    }
}
