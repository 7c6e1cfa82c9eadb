//! Regenerates the §IV-C headline numbers ("Table 4" in EXPERIMENTS.md):
//! geometric-mean EDP improvement, speedup, and greenup over the default
//! configuration at TDP for both machines.

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::edp::{self, EdpResults};
use pnp_core::report::TextTable;
use pnp_machine::{haswell, skylake};
use std::path::Path;

fn load_cached(machine: &str) -> Option<EdpResults> {
    let path = Path::new("target")
        .join("experiments")
        .join(format!("fig6_edp_{machine}.json"));
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

fn main() {
    banner("Section IV-C summary", "EDP tuning headline numbers");
    let (settings, ctx) = from_env_and_args();
    for machine in [haswell(), skylake()] {
        let results = load_cached(&machine.name).unwrap_or_else(|| {
            eprintln!(
                "[pnp-bench] no cached fig6 results for {}, re-running",
                machine.name
            );
            let ds = ctx.dataset(&machine, &full_suite());
            or_exit("table4", edp::run(&ds, &settings, ctx.cache(&ds).as_ref()))
        });
        println!("\n--- {} ---", results.machine);
        let mut t = TextTable::new(&["metric", "pnp_static", "pnp_dynamic", "bliss", "opentuner"]);
        t.row_numeric(
            "geomean EDP improvement",
            &results.summary.geomean_edp_improvement,
        );
        t.row_numeric("geomean speedup", &results.summary.geomean_speedup);
        t.row_numeric("geomean greenup", &results.summary.geomean_greenup);
        println!("{}", t.render());
        println!(
            "PnP static: faster than default in {:.0}% of regions, less energy in {:.0}%",
            100.0 * results.summary.pnp_speedup_cases,
            100.0 * results.summary.pnp_greenup_cases
        );
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("table4", store) {
            std::process::exit(1);
        }
    }
}
