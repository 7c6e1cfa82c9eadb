//! Perf-tracking harness for batched block-diagonal inference.
//!
//! Builds one dataset, replicates its region graphs into a fixed inference
//! batch, and measures a committee forward pass two ways at each matmul
//! worker count: the *single* path (one [`PnPModel::predict_proba`] call per
//! graph per model) and the *fused* path (one [`GraphBatch`] through
//! [`PnPModel::predict_proba_batch`], DESIGN.md §15). Every measured run's
//! probabilities are compared bit-for-bit against the 1-thread single-graph
//! baseline, and the timings become the committed `BENCH_inference.json`
//! perf trajectory — the inference-side sibling of `BENCH_dataset_build`,
//! `BENCH_loocv_train`, and `BENCH_serve`.
//!
//! ```text
//! bench_inference [--threads 1,2,4,8] [--apps N] [--machine haswell|skylake]
//!                 [--repeats N] [--min-speedup S:T] [--out PATH] [--store DIR]
//! ```
//!
//! Exits non-zero when any run's probabilities differ from the baseline, so
//! CI can use it directly as the inference determinism gate. `--min-speedup
//! S:T` gates the *fused* path's thread scaling: the batch concatenates
//! enough nodes to clear [`pnp_tensor::PAR_MIN_ROWS`], so row-parallel
//! matmul must actually pay off at `T` workers (skipped with a warning on
//! hosts with fewer than `T` cores). The committee uses freshly seeded
//! weights — inference cost does not depend on what the weights are, and
//! skipping training keeps the harness fast enough for per-commit CI.

use pnp_bench::{banner, enforce_min_speedup, PerfHarnessOptions, Provenance};
use pnp_benchmarks::full_suite;
use pnp_gnn::{GraphBatch, ModelConfig, PnPModel};
use pnp_graph::{EncodedGraph, Vocabulary};
use pnp_openmp::Threads;
use pnp_tensor::set_matmul_threads;
use serde::Serialize;
use std::time::Instant;

/// Committee size: matches the per-fold model count a `TuneService`
/// committee carries for the tiny CI fixtures.
const COMMITTEE: usize = 3;
/// The batch replicates the region list until it carries at least this many
/// graphs — large enough that fusion has something to win on.
const MIN_BATCH_GRAPHS: usize = 64;

/// One measured inference pass (single and fused) at a fixed matmul worker
/// count.
#[derive(Clone, Debug, Serialize)]
struct Run {
    /// Matmul worker count (`set_matmul_threads`).
    threads: usize,
    /// Best-of-`repeats` wall time of the single-graph path in seconds.
    single_wall_s: f64,
    /// Best-of-`repeats` wall time of the fused batched path in seconds
    /// (including `GraphBatch` assembly — it is part of the fused path).
    batched_wall_s: f64,
    /// `single_wall_s / batched_wall_s` at this worker count — the fusion
    /// win itself.
    fused_speedup: f64,
    /// `batched_wall_s(1 thread) / batched_wall_s(this)` — the fused path's
    /// thread scaling, which `--min-speedup` gates.
    speedup_vs_1t: f64,
    /// Whether both paths' probabilities equal the 1-thread single-graph
    /// baseline to the bit.
    identical_to_baseline: bool,
}

/// The `BENCH_inference.json` schema.
#[derive(Clone, Debug, Serialize)]
struct Report {
    /// Benchmark identifier (always `"inference"`).
    bench: String,
    /// Machine whose dataset supplied the region graphs.
    machine: String,
    /// Number of applications in the dataset.
    applications: usize,
    /// Number of distinct OpenMP region graphs.
    regions: usize,
    /// Graphs in the replicated inference batch.
    batch_graphs: usize,
    /// Total nodes across the batch (must clear `PAR_MIN_ROWS` for the
    /// thread sweep to mean anything).
    batch_nodes: usize,
    /// Models in the committee.
    committee: usize,
    /// Hidden dimension of the committee models.
    hidden_dim: usize,
    /// RGCN layers per model.
    rgcn_layers: usize,
    /// Measurement provenance: git SHA, store-key schema version, and
    /// `available_parallelism` of the measuring host.
    context: Provenance,
    /// Best-of-`repeats` timing per matmul worker count.
    runs: Vec<Run>,
}

fn committee(num_classes: usize) -> Vec<PnPModel> {
    (0..COMMITTEE)
        .map(|i| {
            PnPModel::new(ModelConfig {
                vocab_size: Vocabulary::standard().len(),
                hidden_dim: 32,
                num_rgcn_layers: 2,
                fc_hidden: 64,
                num_classes,
                num_relations: pnp_graph::EdgeFlow::COUNT,
                num_dynamic_features: 0,
                dropout: 0.0,
                seed: 0xBA7C4 + i as u64,
            })
        })
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
    let context = Provenance::capture();
    let available = context.available_parallelism;

    // The dataset build is not what this harness measures; serve it from the
    // warm store when one is configured (the CI inference-perf job reuses
    // the warm-store artifact exactly here).
    let machine = opts.machine.clone();
    let store = opts.open_store();
    let vocab = Vocabulary::standard();
    let ds = match &store {
        Some(store) => store.load_or_build_dataset(&machine, &apps, &vocab, Threads::Auto),
        None => {
            pnp_core::dataset::Dataset::build_with_threads(&machine, &apps, &vocab, Threads::Auto)
        }
    };
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

    // The 1-thread single-graph pass is the bit-identity anchor; a 1-thread
    // fused pass (measured whether or not 1 is in --threads) is the
    // thread-scaling denominator.
    set_matmul_threads(1);
    let baseline = bits(&predict_single(&models, &graphs));
    let mut batched_1t = f64::INFINITY;
    for _ in 0..opts.repeats {
        let start = Instant::now();
        let _ = predict_batched(&models, &graphs);
        batched_1t = batched_1t.min(start.elapsed().as_secs_f64());
    }

    let mut runs = Vec::new();
    let mut all_identical = true;
    for &threads in &opts.threads {
        set_matmul_threads(threads);
        let mut single_best = f64::INFINITY;
        let mut batched_best = f64::INFINITY;
        let mut identical = true;
        for _ in 0..opts.repeats {
            let start = Instant::now();
            let single = predict_single(&models, &graphs);
            single_best = single_best.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let batched = predict_batched(&models, &graphs);
            batched_best = batched_best.min(start.elapsed().as_secs_f64());
            identical &= bits(&single) == baseline && bits(&batched) == baseline;
        }
        if threads == 1 {
            batched_1t = batched_1t.min(batched_best);
        }
        all_identical &= identical;
        eprintln!(
            "[bench_inference] {threads:>2} thread(s): single {single_best:.3} s, \
             fused {batched_best:.3} s ({:.2}x)  identical={identical}",
            single_best / batched_best
        );
        runs.push(Run {
            threads,
            single_wall_s: single_best,
            batched_wall_s: batched_best,
            fused_speedup: single_best / batched_best,
            speedup_vs_1t: batched_1t / batched_best,
            identical_to_baseline: identical,
        });
    }
    set_matmul_threads(1);

    let report = Report {
        bench: "inference".into(),
        machine: machine.name.clone(),
        applications: apps.len(),
        regions: ds.len(),
        batch_graphs: graphs.len(),
        batch_nodes,
        committee: models.len(),
        hidden_dim: 32,
        rgcn_layers: 2,
        context,
        runs,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, &json).expect("write timing JSON");
    println!("{json}");
    eprintln!("[bench_inference] wrote {}", opts.out);

    if !all_identical {
        eprintln!(
            "[bench_inference] FAIL: some run differs from the 1-thread single-graph baseline \
             — the bit-identity contract (DESIGN.md §15) is broken"
        );
        std::process::exit(1);
    }

    let speedups: Vec<(usize, f64)> = report
        .runs
        .iter()
        .map(|r| (r.threads, r.speedup_vs_1t))
        .collect();
    enforce_min_speedup("bench_inference", opts.min_speedup, &speedups, available);
}
