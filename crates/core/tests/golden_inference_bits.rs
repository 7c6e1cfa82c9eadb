//! A pin of the served inference bits across commits.
//!
//! Every other bit-identity check compares two paths of the same build
//! (fused against single, gathered rows against all rows, one worker
//! against many). This one compares against a constant: an FNV-1a digest
//! of every probability bit a fixed-seed committee of the quick model
//! shape produces over a fixed batch of generated kernels. A change to a
//! kernel, a layer or the forward that moves a single bit changes the
//! digest; a refactor must leave it as it is.

use pnp_core::serving::{resolve_graph, KernelInput};
use pnp_core::TrainSettings;
use pnp_gnn::{GraphBatch, ModelConfig, PnPModel};
use pnp_graph::{EncodedGraph, Vocabulary};

/// Models per committee, as many as a quick-settings fold committee.
const COMMITTEE: usize = 5;
/// Graphs per batch: one `serve_gen_burst` burst.
const BATCH: usize = 32;
/// Seed of the generated-kernel corpus.
const CORPUS_SEED: u64 = 2301;

/// The batch: the first [`BATCH`] kernels of the corpus, lowered and
/// encoded exactly as the daemon resolves a source-form request.
fn graphs() -> Vec<EncodedGraph> {
    let vocab = Vocabulary::standard();
    pnp_ir::gen::corpus(CORPUS_SEED, BATCH)
        .into_iter()
        .enumerate()
        .map(|(i, generated)| {
            let kernel = KernelInput::Source {
                app: format!("gen{i}"),
                region: generated.source.name.clone(),
                regions: vec![generated.source],
            };
            resolve_graph(&kernel, &vocab).expect("generated kernels resolve")
        })
        .collect()
}

/// FNV-1a over the little-endian bytes of every probability's bits, model
/// by model, graph by graph, class by class.
fn committee_digest(num_classes: usize, graphs: &[&EncodedGraph]) -> u64 {
    digest_of(&TrainSettings::quick(), num_classes, graphs)
}

/// [`committee_digest`] of a committee of `settings`' model shape.
fn digest_of(settings: &TrainSettings, num_classes: usize, graphs: &[&EncodedGraph]) -> u64 {
    let batch = GraphBatch::from_graphs(graphs).expect("generated graphs batch");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..COMMITTEE {
        let model = PnPModel::new(settings.model_config(num_classes, 0, i as u64));
        for row in model.predict_proba_batch(&batch, None) {
            for p in row {
                for byte in p.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    hash
}

#[test]
fn committee_probabilities_match_the_pinned_digest() {
    let owned = graphs();
    let graphs: Vec<&EncodedGraph> = owned.iter().collect();
    // Haswell's class counts: 126 OpenMP configurations per power level
    // (the time objective) and 504 joint configurations (EDP).
    let time = committee_digest(126, &graphs);
    let edp = committee_digest(504, &graphs);
    assert_eq!(
        (time, edp),
        (0x138f_b7e4_3ebb_9213, 0xd1de_7b80_c694_9603),
        "inference bits moved: time digest {time:#018x}, EDP digest {edp:#018x}"
    );
}

#[test]
fn a_batch_of_one_matches_the_pinned_digest() {
    let owned = graphs();
    let time = committee_digest(126, &[&owned[0]]);
    assert_eq!(
        time, 0x165c_a5dd_6471_3e2e,
        "inference bits moved: B = 1 digest {time:#018x}"
    );
}

#[test]
fn a_four_layer_committee_matches_the_pinned_digest() {
    let owned = graphs();
    let graphs: Vec<&EncodedGraph> = owned.iter().collect();
    // The paper's depth: as many RGCN layers as `ModelConfig::default`.
    let settings = TrainSettings {
        rgcn_layers: ModelConfig::default().num_rgcn_layers,
        ..TrainSettings::quick()
    };
    let time = digest_of(&settings, 126, &graphs);
    assert_eq!(
        time, 0xb582_fcbe_1806_c5cc,
        "inference bits moved: depth-4 digest {time:#018x}"
    );
}
