//! Regenerates Figure 7: speedups and greenups over the default OpenMP
//! configuration at TDP when tuning for EDP (both testbeds, all tuners).
//!
//! Reads the JSON produced by `fig6_edp` when available (the two figures come
//! from the same experiment); otherwise re-runs the experiment.

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::edp::{self, EdpResults};
use pnp_core::report::{write_json, TextTable};
use pnp_machine::{haswell, skylake};
use std::path::Path;

fn load_cached(machine: &str) -> Option<EdpResults> {
    let path = Path::new("target")
        .join("experiments")
        .join(format!("fig6_edp_{machine}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn main() {
    banner(
        "Figure 7",
        "EDP tuning — speedups and greenups over default @ TDP",
    );
    let (settings, ctx) = from_env_and_args();
    for machine in [haswell(), skylake()] {
        let results = load_cached(&machine.name).unwrap_or_else(|| {
            eprintln!(
                "[pnp-bench] no cached fig6 results for {}, re-running",
                machine.name
            );
            let ds = ctx.dataset(&machine, &full_suite());
            or_exit("fig7", edp::run(&ds, &settings, ctx.cache(&ds).as_ref()))
        });
        println!("\n--- {} ---", machine.name);
        let hdr = [
            "app",
            "default",
            "pnp_static",
            "pnp_dynamic",
            "bliss",
            "opentuner",
        ];
        println!("Speedups over default @ TDP");
        let mut t = TextTable::new(&hdr);
        for row in &results.rows {
            t.row_numeric(&row.app, &row.speedup);
        }
        println!("{}", t.render());
        println!("Greenups over default @ TDP");
        let mut t = TextTable::new(&hdr);
        for row in &results.rows {
            t.row_numeric(&row.app, &row.greenup);
        }
        println!("{}", t.render());
        let name = format!("fig7_edp_speedup_greenup_{}", machine.name);
        if let Ok(path) = write_json(&name, &results) {
            eprintln!("[pnp-bench] wrote {}", path.display());
        }
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("fig7", store) {
            std::process::exit(1);
        }
    }
}
