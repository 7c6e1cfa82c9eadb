//! Regenerates the transfer-learning result of Section IV-B: reusing the
//! Haswell-trained GNN layers on Skylake and retraining only the dense
//! classifier (paper: ≈ 4.18× faster training / 76 % less training time).

use pnp_bench::{banner, from_env_and_args, or_exit, report_store_stats};
use pnp_benchmarks::full_suite;
use pnp_core::experiments::transfer;
use pnp_core::report::write_json;
use pnp_machine::{haswell, skylake};

fn main() {
    banner(
        "Transfer learning (Section IV-B)",
        "Haswell GNN reused on Skylake",
    );
    let (settings, ctx) = from_env_and_args();
    let source = ctx.dataset(&haswell(), &full_suite());
    let target = ctx.dataset(&skylake(), &full_suite());
    let (cache_source, cache_target) = (ctx.cache(&source), ctx.cache(&target));
    let results = or_exit(
        "transfer_learning",
        transfer::run(
            &source,
            &target,
            &settings,
            cache_source.as_ref().zip(cache_target.as_ref()),
        ),
    );
    println!("{}", results.render());
    if let Ok(path) = write_json("transfer_learning", &results) {
        eprintln!("[pnp-bench] wrote {}", path.display());
    }
    if let Some(store) = &ctx.store {
        if report_store_stats("transfer_learning", store) {
            std::process::exit(1);
        }
    }
}
