//! Criterion bench: fused block-diagonal inference vs per-graph forwards.
//!
//! Measures what DESIGN.md §15 claims: `B` graphs through one
//! `predict_proba_batch` call cost one tall matmul per relation per layer,
//! against `B` separate `predict_proba` calls costing `B` small ones.

use criterion::{criterion_group, criterion_main, Criterion};
use pnp_benchmarks::builders::{matmul_kernel, stencil2d_kernel, streaming_kernel};
use pnp_gnn::{GraphBatch, ModelConfig, PnPModel};
use pnp_graph::{build_region_graph, EncodedGraph, Vocabulary};
use pnp_ir::lower_kernel;

fn encoded(region: &pnp_benchmarks::BenchRegion) -> EncodedGraph {
    let module = lower_kernel("app", std::slice::from_ref(&region.source));
    let graph = build_region_graph(&module, &region.source.name).unwrap();
    EncodedGraph::encode(&graph, &Vocabulary::standard())
}

fn model(hidden: usize, layers: usize) -> PnPModel {
    PnPModel::new(ModelConfig {
        vocab_size: Vocabulary::standard().len(),
        hidden_dim: hidden,
        num_rgcn_layers: layers,
        fc_hidden: 64,
        num_classes: 126,
        num_relations: 3,
        num_dynamic_features: 0,
        dropout: 0.0,
        seed: 1,
    })
}

fn bench_inference(c: &mut Criterion) {
    let base = [
        encoded(&matmul_kernel("mm", 500, 500, 500)),
        encoded(&stencil2d_kernel("st", 1000, 1000, 9)),
        encoded(&streaming_kernel("sx", 80_000, 2, 1.0)),
    ];
    let mut group = c.benchmark_group("inference");
    for batch_size in [8usize, 32] {
        let graphs: Vec<&EncodedGraph> = (0..batch_size).map(|i| &base[i % base.len()]).collect();
        for (hidden, layers) in [(16usize, 2usize), (32, 4)] {
            let m = model(hidden, layers);
            group.bench_function(format!("single_b{batch_size}_h{hidden}_l{layers}"), |b| {
                b.iter(|| {
                    graphs
                        .iter()
                        .map(|g| m.predict_proba(g, None))
                        .collect::<Vec<_>>()
                })
            });
            let m = model(hidden, layers);
            group.bench_function(format!("fused_b{batch_size}_h{hidden}_l{layers}"), |b| {
                b.iter(|| {
                    let batch = GraphBatch::from_graphs(&graphs).unwrap();
                    m.predict_proba_batch(&batch, None)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
