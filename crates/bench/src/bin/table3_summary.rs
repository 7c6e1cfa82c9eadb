//! Regenerates the §IV-B headline numbers ("Table 3" in EXPERIMENTS.md):
//! per-power geometric-mean speedups and oracle-proximity statistics for both
//! machines, reusing the JSON written by the Figure 2/3 binaries when present.

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::power_constrained::{self, PowerConstrainedResults};
use pnp_core::report::TextTable;
use pnp_machine::{haswell, skylake};
use std::path::Path;

fn load_cached(name: &str) -> Option<PowerConstrainedResults> {
    let path = Path::new("target")
        .join("experiments")
        .join(format!("{name}.json"));
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

fn main() {
    banner(
        "Section IV-B summary",
        "geomean speedups per power cap and oracle proximity",
    );
    let (settings, ctx) = from_env_and_args();
    let runs = [
        ("fig2_haswell_power", haswell()),
        ("fig3_skylake_power", skylake()),
    ];
    for (cache, machine) in runs {
        let results = load_cached(cache).unwrap_or_else(|| {
            eprintln!(
                "[pnp-bench] no cached {cache}, re-running (use fig2/fig3 binaries to cache)"
            );
            let ds = ctx.dataset(&machine, &full_suite());
            or_exit(
                "table3",
                power_constrained::run(&ds, &settings, ctx.cache(&ds).as_ref()),
            )
        });
        println!("\n--- {} ---", results.machine);
        let mut t = TextTable::new(&[
            "power W",
            "oracle",
            "pnp_static",
            "pnp_dynamic",
            "bliss",
            "opentuner",
        ]);
        for ((power, tuners), (_, oracle)) in results
            .summary
            .geomean_speedup_per_power
            .iter()
            .zip(&results.summary.oracle_geomean_per_power)
        {
            let mut vals = vec![*oracle];
            vals.extend_from_slice(tuners);
            t.row_numeric(&format!("{power:.0}"), &vals);
        }
        println!("{}", t.render());
        println!(
            ">=0.95x oracle: pnp_static {:.1}%, pnp_dynamic {:.1}%, bliss {:.1}%, opentuner {:.1}%",
            100.0 * results.summary.pnp_static_within_95,
            100.0 * results.summary.pnp_dynamic_within_95,
            100.0 * results.summary.bliss_within_95,
            100.0 * results.summary.opentuner_within_95
        );
        println!(
            "PnP static matches/beats BLISS in {:.1}% and OpenTuner in {:.1}% of cases",
            100.0 * results.summary.pnp_beats_bliss,
            100.0 * results.summary.pnp_beats_opentuner
        );
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("table3", store) {
            std::process::exit(1);
        }
    }
}
