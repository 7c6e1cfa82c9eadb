//! Runs the design-choice ablations listed in DESIGN.md §6: RGCN vs. plain
//! GCN, mean vs. sum readout pooling, and BLISS budget sensitivity.

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::ablations;
use pnp_core::report::write_json;
use pnp_machine::haswell;

fn main() {
    banner(
        "Ablations",
        "RGCN vs GCN, readout pooling, BLISS budget sensitivity (Haswell)",
    );
    let (settings, ctx) = from_env_and_args();
    let ds = ctx.dataset(&haswell(), &full_suite());
    let results = or_exit(
        "ablations",
        ablations::run(&ds, &settings, ctx.cache(&ds).as_ref()),
    );
    println!("{}", results.render());
    if let Ok(path) = write_json("ablations", &results) {
        eprintln!("[pnp-bench] wrote {}", path.display());
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("ablations", store) {
            std::process::exit(1);
        }
    }
}
