//! Regenerates the Section I motivating example: exhaustive exploration of
//! the LULESH boundary-condition region on Haswell.

use pnp_bench::{banner, from_env_and_args, report_store_stats};
use pnp_core::experiments::motivating;
use pnp_core::report::write_json;

fn main() {
    banner(
        "Motivating example (Section I)",
        "LULESH ApplyAccelerationBoundaryConditionsForNodes on Haswell",
    );
    let (_, ctx) = from_env_and_args();
    let results = motivating::run(&ctx);
    println!("{}", results.render());
    if let Ok(path) = write_json("motivating_example", &results) {
        eprintln!("[pnp-bench] wrote {}", path.display());
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("motivating_example", store) {
            std::process::exit(1);
        }
    }
}
