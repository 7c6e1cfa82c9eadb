//! Quickstart: describe an OpenMP region, build its flow-aware code graph,
//! train a PnP tuner on the benchmark suite, and ask it for the best
//! configuration under a 40 W power cap — without executing the region.
//! The tuner's objective is a `TuneObjective`, the same type a served tune
//! request carries: `Time { power_idx: 0 }` here (best time at the lowest
//! cap); `TuneObjective::Edp` would pick the power cap too.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use pnp_benchmarks::builders::stencil2d_kernel;
use pnp_benchmarks::full_suite;
use pnp_core::dataset::Dataset;
use pnp_core::pnp::PnPTuner;
use pnp_core::training::TrainSettings;
use pnp_core::TuneObjective;
use pnp_graph::{EncodedGraph, GraphFeatures, Vocabulary};
use pnp_ir::lower_kernel;
use pnp_machine::haswell;
use pnp_openmp::{simulate_region, Threads};

fn main() {
    run();
}

/// The whole quickstart pipeline; also exercised by the `#[test]` below so
/// `cargo test --examples` keeps this walkthrough working.
fn run() {
    // 1. Describe a new OpenMP region (a 5-point stencil the tuner has never
    //    seen) and turn it into a flow-aware code graph.
    let region = stencil2d_kernel("user_stencil", 2048, 2048, 5);
    let module = lower_kernel("user_app", std::slice::from_ref(&region.source));
    let graph = pnp_graph::build_region_graph(&module, "user_stencil").expect("region lowered");
    let features = GraphFeatures::of(&graph);
    println!(
        "code graph: {} nodes, {} edges ({} control / {} data / {} call)",
        features.num_nodes,
        features.num_edges,
        features.control_edges,
        features.data_edges,
        features.call_edges
    );

    // 2. Build the training dataset (exhaustive sweep of the benchmark suite
    //    on the simulated Haswell testbed) and train the static PnP tuner for
    //    the 40 W power cap.
    let machine = haswell();
    // The sweep fans out one job per region over the in-tree OpenMP executor.
    // `Threads::from_env` reads `PNP_SWEEP_THREADS` (default: one worker per
    // available core) — the same knob `Dataset::build` resolves internally.
    // The dataset bytes are identical for any worker count.
    let sweep_threads = Threads::from_env();
    println!(
        "building dataset on {} (68 regions x 504 configs, {} sweep workers)...",
        machine.name,
        sweep_threads.resolve()
    );
    let dataset = Dataset::build_with_threads(
        &machine,
        &full_suite(),
        &Vocabulary::standard(),
        sweep_threads,
    );
    let settings = TrainSettings::quick();
    println!("training the PnP tuner ({} epochs)...", settings.epochs);
    let tuner = PnPTuner::train(&dataset, TuneObjective::Time { power_idx: 0 }, &settings);

    // 3. Ask for the best configuration for the unseen region.
    let encoded = EncodedGraph::encode(&graph, &Vocabulary::standard());
    let prediction = tuner.predict(&encoded);
    println!(
        "predicted configuration at {:.0} W: {}",
        prediction.power_watts, prediction.omp
    );

    // 4. Check what the prediction buys us against the default configuration.
    let default = pnp_openmp::default_config(&machine);
    let cap = prediction.power_watts;
    let tuned = simulate_region(&machine, &region.profile, &prediction.omp, cap);
    let base = simulate_region(&machine, &region.profile, &default, cap);
    println!(
        "default ({}|{:.0} W): {:.3} ms, {:.1} J",
        default,
        cap,
        base.time_s * 1e3,
        base.energy_j
    );
    println!(
        "tuned   ({}|{:.0} W): {:.3} ms, {:.1} J  -> speedup {:.2}x, greenup {:.2}x",
        prediction.omp,
        cap,
        tuned.time_s * 1e3,
        tuned.energy_j,
        base.time_s / tuned.time_s,
        base.energy_j / tuned.energy_j
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn quickstart_pipeline_runs() {
        super::run();
    }
}
