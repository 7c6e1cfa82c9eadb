//! Regenerates Figure 6: normalized EDP improvement over the default OpenMP
//! configuration at TDP, per application, on both testbeds.

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::edp;
use pnp_core::report::write_json;
use pnp_machine::{haswell, skylake};

fn main() {
    banner(
        "Figure 6",
        "EDP tuning — normalized EDP improvements (both machines)",
    );
    let (settings, ctx) = from_env_and_args();
    for machine in [skylake(), haswell()] {
        let ds = ctx.dataset(&machine, &full_suite());
        let results = or_exit("fig6", edp::run(&ds, &settings, ctx.cache(&ds).as_ref()));
        println!("{}", results.render());
        let name = format!("fig6_edp_{}", machine.name);
        if let Ok(path) = write_json(&name, &results) {
            eprintln!("[pnp-bench] wrote {}", path.display());
        }
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("fig6", store) {
            std::process::exit(1);
        }
    }
}
