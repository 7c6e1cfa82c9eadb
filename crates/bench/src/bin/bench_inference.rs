//! Perf-tracking harness for batched block-diagonal inference.
//!
//! Builds one dataset, replicates its region graphs into a fixed inference
//! batch, and measures a committee forward pass two ways at each matmul
//! worker count: the *single* path (one [`PnPModel::predict_proba`] call per
//! graph per model) and the *fused* path (one [`GraphBatch`] through
//! [`PnPModel::predict_proba_batch`], DESIGN.md §15). Every measured run's
//! probabilities are compared bit-for-bit against the 1-thread single-graph
//! baseline, and the timings become the committed `BENCH_inference.json`
//! [`pnp_bench::Trajectory`] — the inference-side sibling of
//! `BENCH_dataset_build`, `BENCH_loocv_train`, and `BENCH_serve`. A run's
//! `wall_s` is the fused path's; its `single_wall_s` and `fused_speedup`
//! (`single_wall_s / wall_s`) metrics carry the single path.
//!
//! ```text
//! bench_inference [--threads 1,2,4,8] [--apps N] [--machine haswell|skylake]
//!                 [--repeats N] [--min-speedup S:T] [--out PATH]
//!                 [--store DIR] [--force-rebuild] [--verify-store]
//! ```
//!
//! Exits non-zero when any run's probabilities differ from the baseline, so
//! CI can use it directly as the inference determinism gate. `--min-speedup
//! S:T` requires the *fused* path to run `S` times faster at `T` workers
//! than at 1 (skipped with a warning on hosts with fewer than `T` cores).
//! Row-parallel matmul engages only on products of at least
//! [`pnp_tensor::PAR_MIN_ROWS`] rows, and the fused forward computes one
//! row per row class of the batch ([`pnp_gnn::RowClasses`]), not one per
//! node. The replicated graphs collapse into their originals' classes, so
//! the batch computes no more rows than its distinct regions do, and few
//! of its products reach that threshold: at `--apps 6` the fused pass
//! runs at about 0.8× at 2 workers against 1. The committee uses freshly
//! seeded weights — inference cost does not depend on what the weights
//! are, and skipping training keeps the harness fast enough for
//! per-commit CI.

use pnp_bench::{banner, sweep, PerfHarnessOptions, Sample, Trajectory};
use pnp_benchmarks::full_suite;
use pnp_core::TrainSettings;
use pnp_gnn::{GraphBatch, PnPModel};
use pnp_graph::EncodedGraph;
use pnp_tensor::set_matmul_threads;
use std::time::Instant;

/// Committee size: matches the per-fold model count a `TuneService`
/// committee carries for the tiny CI fixtures.
const COMMITTEE: usize = 3;
/// The batch replicates the region list until it carries at least this many
/// graphs — large enough that fusion has something to win on.
const MIN_BATCH_GRAPHS: usize = 64;
/// Hidden dimension of the committee models.
const HIDDEN_DIM: usize = 32;
/// RGCN layers per committee model.
const RGCN_LAYERS: usize = 2;
/// Width of the committee models' dense classifier layers.
const FC_HIDDEN: usize = 64;

/// A committee of the model shape the trainer builds
/// ([`TrainSettings::model_config`]) at the bench's widths, member `i`
/// seeded with `0xBA7C4 ^ i`.
fn committee(num_classes: usize) -> Vec<PnPModel> {
    let settings = TrainSettings {
        hidden_dim: HIDDEN_DIM,
        rgcn_layers: RGCN_LAYERS,
        fc_hidden: FC_HIDDEN,
        seed: 0xBA7C4,
        ..TrainSettings::quick()
    };
    (0..COMMITTEE)
        .map(|i| PnPModel::new(settings.model_config(num_classes, 0, i as u64)))
        .collect()
}

/// The single path: one forward per graph per model (a batch of one each),
/// graphs outermost, models in committee order.
fn predict_single(models: &[PnPModel], graphs: &[&EncodedGraph]) -> Vec<Vec<f32>> {
    let mut out = Vec::with_capacity(graphs.len() * models.len());
    for graph in graphs {
        for model in models {
            out.push(model.predict_proba(graph, None));
        }
    }
    out
}

/// The fused path: one block-diagonal batch through every model.
fn predict_batched(models: &[PnPModel], graphs: &[&EncodedGraph]) -> Vec<Vec<f32>> {
    let batch = GraphBatch::from_graphs(graphs).expect("dataset graphs batch cleanly");
    let per_model: Vec<Vec<Vec<f32>>> = models
        .iter()
        .map(|m| m.predict_proba_batch(&batch, None))
        .collect();
    let mut out = Vec::with_capacity(graphs.len() * models.len());
    for g in 0..graphs.len() {
        for rows in &per_model {
            out.push(rows[g].clone());
        }
    }
    out
}

fn bits(probs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    probs
        .iter()
        .map(|row| row.iter().map(|p| p.to_bits()).collect())
        .collect()
}

fn main() {
    banner(
        "inference timing",
        "single vs fused block-diagonal committee inference per matmul worker count",
    );
    let opts = PerfHarnessOptions::parse("BENCH_inference.json");
    let mut apps = full_suite();
    if let Some(n) = opts.apps {
        apps.truncate(n);
    }

    // The dataset build is not what this harness measures: it comes from
    // the artifact store when one is warm (the CI inference-perf job reuses
    // the warm-store artifact exactly here).
    let ds = opts.ctx.dataset(&opts.machine, &apps);
    assert!(!ds.is_empty(), "dataset has no regions to infer on");

    let mut graphs: Vec<&EncodedGraph> = Vec::new();
    while graphs.len() < MIN_BATCH_GRAPHS {
        graphs.extend(ds.regions.iter().map(|r| &r.graph));
    }
    let batch_nodes: usize = graphs.iter().map(|g| g.num_nodes()).sum();
    let num_classes = ds.space.num_tuned_points();
    let models = committee(num_classes);
    eprintln!(
        "[bench_inference] batch: {} graph(s), {} node(s), committee of {} ({} classes)",
        graphs.len(),
        batch_nodes,
        models.len(),
        num_classes
    );
    assert!(
        batch_nodes >= pnp_tensor::PAR_MIN_ROWS,
        "batch too small for the thread sweep to engage row-parallel matmul"
    );

    // Both paths' outputs are checked against the anchor, the 1-thread
    // single-graph probabilities: the single output comes first.
    let mut runs = sweep(&opts.threads, opts.repeats, |workers| {
        set_matmul_threads(workers);
        let start = Instant::now();
        let single = predict_single(&models, &graphs);
        let single_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let fused = predict_batched(&models, &graphs);
        let fused_s = start.elapsed().as_secs_f64();
        let mut sample = Sample::new(fused_s, bits(&single));
        sample.outputs.push(bits(&fused));
        sample.timed.insert("single_wall_s".into(), single_s);
        sample
    });
    set_matmul_threads(1);
    for run in &mut runs {
        let fused_speedup = run.metrics["single_wall_s"] / run.wall_s;
        run.metrics.insert("fused_speedup".into(), fused_speedup);
    }

    let trajectory = Trajectory::new("inference", runs)
        .param("machine", &opts.machine.name)
        .param("applications", &apps.len())
        .param("regions", &ds.len())
        .param("batch_graphs", &graphs.len())
        .param("batch_nodes", &batch_nodes)
        .param("committee", &models.len())
        .param("hidden_dim", &HIDDEN_DIM)
        .param("rgcn_layers", &RGCN_LAYERS)
        .param("fc_hidden", &FC_HIDDEN);
    opts.finish(&trajectory);
}
