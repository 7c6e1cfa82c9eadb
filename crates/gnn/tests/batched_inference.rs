//! Batched-vs-single bit-identity: the block-diagonal fused forward
//! (DESIGN.md §15) must reproduce the single-graph inference path exactly —
//! for every batch size, ragged graph mix, dynamic-feature setting, and
//! matmul thread count. Not approximately: `f32::to_bits` equal.
//!
//! Single-graph inference is itself a batch of one, so the tests also
//! check every fused row against the training-path forward of a
//! dropout-free twin model, which feeds the first layer node rows instead
//! of the batch's distinct `(token, kind)` rows. The all-rows layer body
//! the read plan replaced is checked in `src/forward_properties.rs`.

use pnp_gnn::{BatchError, GraphBatch, ModelConfig, PnPModel};
use pnp_graph::EncodedGraph;
use pnp_tensor::{set_matmul_threads, softmax_rows};

/// Deterministic ragged toy graph `i`: sizes cycle through 1..13 nodes,
/// edge patterns differ per relation, some relations are empty.
fn toy_graph(i: usize) -> EncodedGraph {
    let sizes = [1usize, 2, 3, 5, 8, 13, 4, 9, 6, 11];
    let n = sizes[i % sizes.len()];
    let tokens: Vec<usize> = (0..n).map(|k| (i * 7 + k * 3) % 32).collect();
    let kinds: Vec<usize> = (0..n).map(|k| (i + k) % 3).collect();
    // Relation 0: a forward chain. Relation 1: back edges from every third
    // node. Relation 2: empty for every other graph.
    let chain: Vec<(usize, usize)> = (1..n).map(|k| (k - 1, k)).collect();
    let back: Vec<(usize, usize)> = (0..n)
        .step_by(3)
        .filter(|&k| k > 0)
        .map(|k| (k, 0))
        .collect();
    let self_ish: Vec<(usize, usize)> = if i.is_multiple_of(2) && n > 1 {
        vec![(n - 1, 0), (0, n - 1)]
    } else {
        vec![]
    };
    EncodedGraph {
        name: format!("toy{i}"),
        tokens,
        kinds,
        relations: vec![chain, back, self_ish],
    }
}

fn config(num_dynamic: usize, seed: u64) -> ModelConfig {
    ModelConfig {
        vocab_size: 32,
        hidden_dim: 8,
        num_rgcn_layers: 2,
        fc_hidden: 16,
        num_classes: 6,
        num_relations: 3,
        num_dynamic_features: num_dynamic,
        dropout: 0.1, // identity at inference; must not matter
        seed,
    }
}

/// Class probabilities from the training-path `forward(g, dyn, true)` of a
/// twin of `config` without dropout. The twin draws the same weights (the
/// dropout RNG is seeded separately), and dropout-free training forwards
/// compute what inference computes — one graph at a time, over node rows
/// instead of the fused pass's row classes.
fn training_reference(
    config: ModelConfig,
    sum_pool: bool,
    graphs: &[EncodedGraph],
    dynamic: Option<&[Vec<f32>]>,
) -> Vec<Vec<f32>> {
    let mut twin = PnPModel::new(ModelConfig {
        dropout: 0.0,
        ..config
    });
    twin.set_sum_pooling(sum_pool);
    graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let logits = twin.forward(g, dynamic.map(|d| d[i].as_slice()), true);
            softmax_rows(&logits).row(0).to_vec()
        })
        .collect()
}

fn assert_rows_bit_identical(batched: &[Vec<f32>], single: &[Vec<f32>], what: &str) {
    assert_eq!(batched.len(), single.len(), "{what}: row count");
    for (i, (b, s)) in batched.iter().zip(single).enumerate() {
        assert_eq!(b.len(), s.len(), "{what}: graph {i} width");
        for (c, (x, y)) in b.iter().zip(s).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: graph {i} class {c}: batched {x} != single {y}"
            );
        }
    }
}

#[test]
fn batched_probabilities_are_bit_identical_across_batch_sizes() {
    let model = PnPModel::new(config(0, 41));
    for batch_size in [1usize, 2, 7, 64] {
        let graphs: Vec<EncodedGraph> = (0..batch_size).map(toy_graph).collect();
        let refs: Vec<&EncodedGraph> = graphs.iter().collect();
        let batch = GraphBatch::from_graphs(&refs).unwrap();
        let batched = model.predict_proba_batch(&batch, None);
        let single: Vec<Vec<f32>> = graphs
            .iter()
            .map(|g| model.predict_proba(g, None))
            .collect();
        assert_rows_bit_identical(&batched, &single, &format!("batch size {batch_size}"));
        let reference = training_reference(config(0, 41), false, &graphs, None);
        assert_rows_bit_identical(
            &batched,
            &reference,
            &format!("batch size {batch_size} vs training forward"),
        );
    }
}

#[test]
fn dynamic_features_stay_bit_identical_per_graph() {
    let model = PnPModel::new(config(5, 42));
    let graphs: Vec<EncodedGraph> = (0..7).map(toy_graph).collect();
    let refs: Vec<&EncodedGraph> = graphs.iter().collect();
    let dynamic: Vec<Vec<f32>> = (0..7)
        .map(|i| (0..5).map(|k| (i as f32 * 0.3) - k as f32 * 0.7).collect())
        .collect();
    let batch = GraphBatch::from_graphs(&refs).unwrap();
    let batched = model.predict_proba_batch(&batch, Some(&dynamic));
    let single: Vec<Vec<f32>> = graphs
        .iter()
        .zip(&dynamic)
        .map(|(g, d)| model.predict_proba(g, Some(d)))
        .collect();
    assert_rows_bit_identical(&batched, &single, "dynamic features");
    let reference = training_reference(config(5, 42), false, &graphs, Some(&dynamic));
    assert_rows_bit_identical(&batched, &reference, "dynamic features vs training forward");
}

#[test]
fn sum_pooling_ablation_is_also_bit_identical() {
    let mut model = PnPModel::new(config(0, 43));
    model.set_sum_pooling(true);
    let graphs: Vec<EncodedGraph> = (0..5).map(toy_graph).collect();
    let refs: Vec<&EncodedGraph> = graphs.iter().collect();
    let batch = GraphBatch::from_graphs(&refs).unwrap();
    let batched = model.predict_proba_batch(&batch, None);
    let single: Vec<Vec<f32>> = graphs
        .iter()
        .map(|g| model.predict_proba(g, None))
        .collect();
    assert_rows_bit_identical(&batched, &single, "sum pooling");
    let reference = training_reference(config(0, 43), true, &graphs, None);
    assert_rows_bit_identical(&batched, &reference, "sum pooling vs training forward");
}

#[test]
fn matmul_thread_count_never_changes_batched_output() {
    // A batch large enough to push every layer's matmul past the
    // row-parallel threshold (PAR_MIN_ROWS = 128 rows).
    let graphs: Vec<EncodedGraph> = (0..64).map(toy_graph).collect();
    let refs: Vec<&EncodedGraph> = graphs.iter().collect();
    let batch = GraphBatch::from_graphs(&refs).unwrap();
    assert!(
        batch.num_nodes() >= pnp_tensor::PAR_MIN_ROWS,
        "batch must be tall enough to exercise the parallel matmul"
    );

    let model = PnPModel::new(config(0, 44));
    set_matmul_threads(1);
    let serial = model.predict_proba_batch(&batch, None);
    for threads in [2usize, 4, 8] {
        set_matmul_threads(threads);
        let parallel = model.predict_proba_batch(&batch, None);
        assert_rows_bit_identical(&parallel, &serial, &format!("{threads} matmul threads"));
    }
    set_matmul_threads(1);
}

#[test]
fn empty_batch_is_a_typed_error_not_a_panic() {
    assert_eq!(GraphBatch::from_graphs(&[]).unwrap_err(), BatchError::Empty);
}

#[test]
fn empty_graph_in_a_batch_is_reported_with_its_position() {
    let good = toy_graph(1);
    let empty = EncodedGraph {
        name: "hollow".into(),
        tokens: vec![],
        kinds: vec![],
        relations: vec![vec![], vec![], vec![]],
    };
    let err = GraphBatch::from_graphs(&[&good, &empty]).unwrap_err();
    assert_eq!(
        err,
        BatchError::EmptyGraph {
            index: 1,
            name: "hollow".into()
        }
    );
    // The error is displayable and std::error::Error for client surfaces.
    assert!(err.to_string().contains("hollow"));
}

#[test]
fn relation_arity_mismatch_is_rejected() {
    let three = toy_graph(0);
    let two = EncodedGraph {
        name: "two-rel".into(),
        tokens: vec![0, 1],
        kinds: vec![0, 1],
        relations: vec![vec![(0, 1)], vec![]],
    };
    let err = GraphBatch::from_graphs(&[&three, &two]).unwrap_err();
    assert_eq!(
        err,
        BatchError::RelationArity {
            index: 1,
            expected: 3,
            got: 2
        }
    );
}

#[test]
fn out_of_range_edges_cannot_alias_a_neighbouring_graph() {
    let good = toy_graph(2);
    let bad = EncodedGraph {
        name: "oob".into(),
        tokens: vec![0, 1],
        kinds: vec![0, 1],
        relations: vec![vec![(0, 5)], vec![], vec![]],
    };
    let err = GraphBatch::from_graphs(&[&bad, &good]).unwrap_err();
    assert_eq!(
        err,
        BatchError::EdgeOutOfRange {
            index: 0,
            relation: 0,
            edge: (0, 5),
            num_nodes: 2
        }
    );
}

#[test]
fn batch_layout_matches_the_documented_offsets() {
    let graphs: Vec<EncodedGraph> = (0..3).map(toy_graph).collect();
    let refs: Vec<&EncodedGraph> = graphs.iter().collect();
    let batch = GraphBatch::from_graphs(&refs).unwrap();
    assert_eq!(batch.len(), 3);
    let sizes: Vec<usize> = graphs.iter().map(|g| g.num_nodes()).collect();
    let mut expected = vec![0usize];
    for s in &sizes {
        expected.push(expected.last().unwrap() + s);
    }
    assert_eq!(batch.segments(), &expected[..]);
    assert_eq!(batch.num_nodes(), sizes.iter().sum::<usize>());
    // Every merged edge stays inside its own graph's segment.
    for edges in batch.relations() {
        for &(s, d) in edges {
            let block = batch
                .segments()
                .windows(2)
                .position(|w| w[0] <= s && s < w[1])
                .unwrap();
            let (lo, hi) = (batch.segments()[block], batch.segments()[block + 1]);
            assert!(
                (lo..hi).contains(&d),
                "edge ({s}, {d}) crosses a graph boundary"
            );
        }
    }
}
