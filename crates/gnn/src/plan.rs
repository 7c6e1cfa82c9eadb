//! Which rows an RGCN forward computes, for one batch of graphs.
//!
//! ## Row classes
//!
//! A message-passing layer gives two nodes bit-identical output rows when
//! their input rows are equal and their in-edges carry equal messages in
//! the same order: those nodes have the same 1-WL colour. A [`ReadPlan`]
//! numbers these colours exactly, level by level ([`RowClasses`]):
//!
//! - the level-0 class of a node is its `(token, kind)` pair, which fixes
//!   its embedded input row;
//! - its level-(ℓ+1) class is its level-ℓ class plus the ordered list of
//!   `(relation, level-ℓ class of the source)` over its in-edges, relation
//!   by relation in edge order.
//!
//! Relation order, edge order and in-degree all belong to the signature,
//! because float addition is not associative and the normalization
//! `1 / in_degree` is part of each message. Classes are numbered in
//! first-seen node order and compared on the whole signature; a hash only
//! picks the bucket.
//!
//! By induction, layer ℓ's output row of a node depends only on its
//! level-(ℓ+1) class: the self term reads the node's level-ℓ row, every
//! message reads a source's level-ℓ row, and the signature fixes both and
//! the order they are added in. So the inference forward computes one row
//! per class ([`LayerReads`]) and the readout reads each node's row through
//! its class, with every bit unchanged (DESIGN.md §15).
//!
//! The training forward keeps one row per node ([`ReadPlan::node_reads`]):
//! backward needs every node's input, and a batch of one per step would
//! pay for classes it never shares.

use std::iter;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// An unset slot of the dense lookup tables.
const NONE: usize = usize::MAX;

/// The entry of `map` at `index`, or [`NONE`] past its end.
fn entry(map: &[usize], index: usize) -> usize {
    map.get(index).copied().unwrap_or(NONE)
}

/// One message a layer scatters: `out[row] += norm · messages[slot]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scatter {
    /// Output-table row the message is added to.
    pub(crate) row: usize,
    /// The edge source's position among its relation's source rows.
    pub(crate) slot: usize,
    /// `1 / in_degree(dst)` under the edge's relation.
    pub(crate) norm: f32,
}

/// What a layer reads and scatters for one relation.
#[derive(Clone, Debug, Default)]
pub(crate) struct RelationReads {
    /// The distinct input-table rows the scattered edges read as sources,
    /// in first-seen order.
    pub(crate) sources: Vec<usize>,
    /// The scattered edges; those into one output row keep edge order.
    pub(crate) edges: Vec<Scatter>,
}

impl RelationReads {
    /// Appends the edge from input row `source` into output row `row`,
    /// with `slot_of` mapping input rows to their slot among `sources`.
    fn scatter(&mut self, slot_of: &mut [usize], source: usize, row: usize, norm: f32) {
        if let Some(slot) = slot_of.get_mut(source) {
            if *slot == NONE {
                *slot = self.sources.len();
                self.sources.push(source);
            }
            self.edges.push(Scatter {
                row,
                slot: *slot,
                norm,
            });
        }
    }
}

/// The reads of one RGCN layer: which input-table row each output row's
/// self term reads, and per relation which source rows its messages read
/// and where they land. Over node rows (training) every row and edge is
/// kept; over row classes (inference) there is one output row per class
/// and only the edges into each class's first node are scattered.
#[derive(Clone, Debug)]
pub struct LayerReads {
    /// Row count of the input table.
    inputs: usize,
    /// Per output row, the input row of its self term.
    self_rows: Vec<usize>,
    relations: Vec<RelationReads>,
}

impl LayerReads {
    /// The reads of a layer over node rows: every node an output row,
    /// every edge scattered in edge order.
    fn nodes(num_nodes: usize, relations: &[Vec<(usize, usize)>]) -> LayerReads {
        let relations = relations
            .iter()
            .map(|edges| {
                let mut in_degree = vec![0usize; num_nodes];
                for &(_, d) in edges {
                    if let Some(deg) = in_degree.get_mut(d) {
                        *deg += 1;
                    }
                }
                let mut reads = RelationReads::default();
                let mut slot_of = vec![NONE; num_nodes];
                for &(s, d) in edges {
                    // Exactly `1 / deg as f32`, the all-rows reference's norm.
                    let deg = in_degree.get(d).copied().unwrap_or(1);
                    reads.scatter(&mut slot_of, s, d, 1.0 / deg as f32);
                }
                reads
            })
            .collect();
        LayerReads {
            inputs: num_nodes,
            self_rows: (0..num_nodes).collect(),
            relations,
        }
    }

    /// The reads of the layer from level-ℓ class rows (node `i`'s is
    /// `input_of[i]`, `inputs` rows in all) to level-(ℓ+1) class rows,
    /// output row `k` computed for `firsts[k]`, the first node of class
    /// `k`: only those nodes' in-edges are scattered.
    fn classes(
        inputs: usize,
        input_of: &[usize],
        firsts: &[usize],
        in_edges: &InEdges,
        arity: usize,
    ) -> LayerReads {
        let mut relations = vec![RelationReads::default(); arity];
        let mut slot_of = vec![vec![NONE; inputs]; arity];
        for (row, &node) in firsts.iter().enumerate() {
            let edges = in_edges.of(node, &in_edges.edges);
            // A node's in-edges run relation by relation, so each run's
            // length is its in-degree under that relation.
            for run in edges.chunk_by(|a, b| a.0 == b.0) {
                let norm = 1.0 / run.len() as f32;
                for &(r, s) in run {
                    if let (Some(reads), Some(slots)) = (relations.get_mut(r), slot_of.get_mut(r)) {
                        reads.scatter(slots, entry(input_of, s), row, norm);
                    }
                }
            }
        }
        LayerReads {
            inputs,
            self_rows: firsts.iter().map(|&node| entry(input_of, node)).collect(),
            relations,
        }
    }

    /// Row count of the input table.
    pub fn input_rows(&self) -> usize {
        self.inputs
    }

    /// Row count of the output table.
    pub fn output_rows(&self) -> usize {
        self.self_rows.len()
    }

    /// Per output row, the input row its self term reads.
    pub fn self_rows(&self) -> &[usize] {
        &self.self_rows
    }

    /// The distinct input rows relation `relation` reads as edge sources,
    /// in first-seen order.
    pub fn source_rows(&self, relation: usize) -> &[usize] {
        self.relations
            .get(relation)
            .map_or(&[], |reads| &reads.sources)
    }

    /// How many of relation `relation`'s edges the layer scatters.
    pub fn scattered_edges(&self, relation: usize) -> usize {
        self.relations
            .get(relation)
            .map_or(0, |reads| reads.edges.len())
    }

    pub(crate) fn relations(&self) -> &[RelationReads] {
        &self.relations
    }
}

/// A node's signature: a head word and the words after it.
type Signature<'a> = (usize, &'a [usize]);

/// FxHash's word mixer over a signature.
fn signature_hash((head, tail): Signature) -> u64 {
    iter::once(&head).chain(tail).fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ w as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

/// Word-for-word equality of two signatures. Most are a few words long,
/// so an inline loop beats a `memcmp` call.
fn same((a, a_tail): Signature, (b, b_tail): Signature) -> bool {
    a == b && a_tail.len() == b_tail.len() && a_tail.iter().zip(b_tail).all(|(x, y)| x == y)
}

/// Numbers the distinct signatures of nodes `0..n` in first-seen node
/// order. Returns each node's class and each class's first node. Nodes
/// share a class exactly when their signatures are equal word for word;
/// the hash only picks the first bucket of an open-addressed table that is
/// never more than half full.
fn classify<'a>(n: usize, signature: impl Fn(usize) -> Signature<'a>) -> (Vec<usize>, Vec<usize>) {
    let bits = (2 * n).max(2).next_power_of_two().trailing_zeros();
    let mut buckets = vec![NONE; 1 << bits];
    let mut firsts: Vec<usize> = Vec::new();
    let classes = (0..n)
        .map(|node| {
            let own = signature(node);
            // The top bits of the last multiply are the best mixed.
            let mut bucket = (signature_hash(own) >> (64 - bits)) as usize;
            loop {
                match buckets.get_mut(bucket) {
                    None => bucket = 0,
                    Some(class) if *class == NONE => {
                        *class = firsts.len();
                        firsts.push(node);
                        return *class;
                    }
                    Some(class) => {
                        if firsts.get(*class).is_some_and(|&f| same(signature(f), own)) {
                            return *class;
                        }
                        bucket += 1;
                    }
                }
            }
        })
        .collect();
    (classes, firsts)
}

/// Every node's in-edges, relation by relation in edge order: the order a
/// layer adds their messages in.
struct InEdges {
    /// Node `i`'s in-edges are `edges[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// `(relation, source)` of each in-edge.
    edges: Vec<(usize, usize)>,
}

impl InEdges {
    fn new(num_nodes: usize, relations: &[Vec<(usize, usize)>]) -> InEdges {
        let mut starts = vec![0usize; num_nodes + 1];
        for &(_, d) in relations.iter().flatten() {
            if let Some(count) = starts.get_mut(d + 1) {
                *count += 1;
            }
        }
        let mut total = 0;
        for start in &mut starts {
            total += *start;
            *start = total;
        }
        let mut cursor = starts.clone();
        let mut edges = vec![(0, 0); total];
        for (relation, list) in relations.iter().enumerate() {
            for &(s, d) in list {
                if let Some(at) = cursor.get_mut(d) {
                    if let Some(edge) = edges.get_mut(*at) {
                        *edge = (relation, s);
                    }
                    *at += 1;
                }
            }
        }
        InEdges { starts, edges }
    }

    /// Node `node`'s entries of `per_edge`, a table aligned with the
    /// in-edges.
    fn of<'a, T>(&self, node: usize, per_edge: &'a [T]) -> &'a [T] {
        match self.starts.get(node..node + 2) {
            Some(&[lo, hi]) => per_edge.get(lo..hi).unwrap_or_default(),
            _ => &[],
        }
    }
}

/// The exact row classes of a batch, level by level, and the reads of the
/// layers between them (see the module docs).
#[derive(Debug)]
pub struct RowClasses {
    /// Token of each level-0 class.
    tokens: Vec<usize>,
    /// Kind of each level-0 class.
    kinds: Vec<usize>,
    /// Per level `0..=depth`, each node's class.
    levels: Vec<Vec<usize>>,
    /// Per layer `0..depth`, its reads from level-ℓ rows to level-(ℓ+1)
    /// rows.
    layers: Vec<LayerReads>,
}

impl RowClasses {
    /// The classes of `plan`'s nodes up to level `depth`.
    fn build(plan: &ReadPlan, depth: usize) -> RowClasses {
        let n = plan.num_nodes();
        let (level0, firsts) = classify(n, |node| {
            let kind = plan.kinds.get(node..node + 1).unwrap_or_default();
            (entry(&plan.tokens, node), kind)
        });
        let tokens = firsts
            .iter()
            .map(|&node| entry(&plan.tokens, node))
            .collect();
        let kinds = firsts
            .iter()
            .map(|&node| entry(&plan.kinds, node))
            .collect();
        let arity = plan.relations.len();
        let in_edges = InEdges::new(n, &plan.relations);
        let mut levels = vec![level0];
        let mut layers = Vec::with_capacity(depth);
        let mut count = firsts.len();
        for _ in 0..depth {
            let Some(prev) = levels.last() else { break };
            // Each in-edge's `(relation, source class)` as one word.
            let messages: Vec<usize> = in_edges
                .edges
                .iter()
                .map(|&(r, s)| entry(prev, s) * arity + r)
                .collect();
            let (next, firsts) =
                classify(n, |node| (entry(prev, node), in_edges.of(node, &messages)));
            layers.push(LayerReads::classes(count, prev, &firsts, &in_edges, arity));
            count = firsts.len();
            levels.push(next);
        }
        RowClasses {
            tokens,
            kinds,
            levels,
            layers,
        }
    }

    /// Levels built beyond level 0: the deepest model these classes serve.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Token id of each level-0 class, in first-seen node order.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    /// Kind index of each level-0 class, in first-seen node order.
    pub fn kinds(&self) -> &[usize] {
        &self.kinds
    }

    /// Each node's class at `level` (empty past [`RowClasses::depth`]).
    pub fn classes(&self, level: usize) -> &[usize] {
        self.levels.get(level).map_or(&[], Vec::as_slice)
    }

    /// Number of classes at `level`.
    pub fn count(&self, level: usize) -> usize {
        match level.checked_sub(1) {
            None => self.tokens.len(),
            Some(layer) => self.layers.get(layer).map_or(0, LayerReads::output_rows),
        }
    }

    /// The reads of each layer, in depth order: layer ℓ reads level-ℓ rows
    /// and writes level-(ℓ+1) rows.
    pub fn layers(&self) -> &[LayerReads] {
        &self.layers
    }
}

/// Which rows an RGCN forward reads and writes, for one batch of graphs.
/// Built by [`crate::GraphBatch::from_graphs`] and shared by every layer
/// of every model run over that batch. It holds the batch's nodes and
/// edges; the reads are built on first use and kept: node rows for the
/// training forward, row classes for inference.
#[derive(Debug)]
pub struct ReadPlan {
    tokens: Vec<usize>,
    kinds: Vec<usize>,
    relations: Vec<Vec<(usize, usize)>>,
    nodes: OnceLock<LayerReads>,
    classes: Mutex<Option<Arc<RowClasses>>>,
}

impl ReadPlan {
    /// Plans the reads of a graph with per-node `tokens` and `kinds` and
    /// per-relation `(src, dst)` edge lists whose endpoints are node ids
    /// below `tokens.len()`.
    pub(crate) fn new(
        tokens: Vec<usize>,
        kinds: Vec<usize>,
        relations: Vec<Vec<(usize, usize)>>,
    ) -> ReadPlan {
        assert_eq!(tokens.len(), kinds.len(), "one kind per token");
        ReadPlan {
            tokens,
            kinds,
            relations,
            nodes: OnceLock::new(),
            classes: Mutex::new(None),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.tokens.len()
    }

    /// Token id of each node.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    /// Kind index of each node.
    pub fn kinds(&self) -> &[usize] {
        &self.kinds
    }

    /// Per-relation `(src, dst)` edge lists over node ids.
    pub fn relations(&self) -> &[Vec<(usize, usize)>] {
        &self.relations
    }

    /// The reads of a layer over node rows: every node an output row and
    /// every edge scattered. Built on first use.
    pub fn node_reads(&self) -> &LayerReads {
        self.nodes
            .get_or_init(|| LayerReads::nodes(self.num_nodes(), &self.relations))
    }

    /// The row classes up to at least level `depth`, built on first use
    /// and kept for every later model over the batch; a deeper model
    /// rebuilds them to its depth.
    pub fn row_classes(&self, depth: usize) -> Arc<RowClasses> {
        let mut cached = self.classes.lock().unwrap_or_else(PoisonError::into_inner);
        match &*cached {
            Some(classes) if classes.depth() >= depth => Arc::clone(classes),
            _ => {
                let built = Arc::new(RowClasses::build(self, depth));
                *cached = Some(Arc::clone(&built));
                built
            }
        }
    }

    /// The depth of the row classes built so far; `None` until an
    /// inference forward ran over the batch.
    pub fn class_depth(&self) -> Option<usize> {
        let cached = self.classes.lock().unwrap_or_else(PoisonError::into_inner);
        cached.as_ref().map(|classes| classes.depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RgcnLayer;
    use pnp_tensor::{SeededRng, Tensor};

    /// Sources 0 and 2 share token 1, sources 1 and 3 token 2, and sinks
    /// 4–7 token 5. Sinks 4 and 5 read an A then a B source under
    /// relation 0; sink 6 reads the same classes in the other order; sink 7
    /// reads the B source under relation 1 instead.
    fn plan() -> Arc<ReadPlan> {
        Arc::new(ReadPlan::new(
            vec![1, 2, 1, 2, 5, 5, 5, 5],
            vec![0; 8],
            vec![
                vec![(0, 4), (1, 4), (2, 5), (3, 5), (1, 6), (0, 6), (0, 7)],
                vec![(1, 7)],
                vec![],
            ],
        ))
    }

    #[test]
    fn classes_split_on_edge_order_and_relation_and_nest_by_level() {
        let plan = plan();
        let classes = plan.row_classes(3);
        assert_eq!(classes.depth(), 3);
        assert_eq!(classes.classes(0), &[0, 1, 0, 1, 2, 2, 2, 2]);
        assert_eq!(
            (classes.tokens(), classes.kinds()),
            (&[1, 2, 5][..], &[0, 0, 0][..])
        );
        // 4 and 5 share a class; 6 (other order) and 7 (other relation)
        // each get their own.
        assert_eq!(classes.classes(1), &[0, 1, 0, 1, 2, 2, 3, 4]);
        for level in 0..classes.depth() {
            let (coarse, fine) = (classes.classes(level), classes.classes(level + 1));
            assert_eq!(coarse.len(), fine.len());
            // Every level-(ℓ+1) class lies inside one level-ℓ class.
            for (i, (&ci, &fi)) in coarse.iter().zip(fine).enumerate() {
                for (&cj, &fj) in coarse.iter().zip(fine).skip(i + 1) {
                    assert!(fi != fj || ci == cj, "level {} splits a class", level + 1);
                }
            }
            assert_eq!(
                classes.count(level),
                coarse.iter().max().map_or(0, |m| m + 1)
            );
        }

        // Layer 0 computes rows for the first nodes 0, 1, 4, 6 and 7 only.
        let layer = &classes.layers()[0];
        assert_eq!((layer.input_rows(), layer.output_rows()), (3, 5));
        assert_eq!(layer.self_rows(), &[0, 1, 2, 2, 2]);
        // Edges into 5 are not scattered: 5 reads its row from 4's class.
        assert_eq!(layer.scattered_edges(0), 5);
        assert_eq!(layer.source_rows(0), &[0, 1]);
        assert_eq!(layer.source_rows(1), &[1]);
        assert_eq!(layer.scattered_edges(2), 0);
    }

    #[test]
    fn training_forwards_build_no_classes_and_inference_keeps_them() {
        let plan = plan();
        let mut rng = SeededRng::new(3);
        let mut layer = RgcnLayer::new("rgcn0", 4, 4, 3, &mut rng);
        let h = Tensor::randn(&[plan.num_nodes(), 4], &mut rng);
        let out = layer.forward_train(&h, &plan);
        layer.backward(&Tensor::ones(&out.shape));
        assert_eq!(plan.class_depth(), None);

        let two = plan.row_classes(2);
        assert_eq!(plan.class_depth(), Some(2));
        // A shallower model reuses the deeper classes; a deeper one
        // rebuilds them to its depth.
        assert!(Arc::ptr_eq(&two, &plan.row_classes(1)));
        assert_eq!(plan.row_classes(4).depth(), 4);
        assert_eq!(plan.class_depth(), Some(4));
    }
}
