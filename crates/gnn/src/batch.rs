//! Batching: minibatch index generation for training, and block-diagonal
//! graph batching for fused inference.
//!
//! Graphs have different sizes, so a *training* "batch" here is a set of
//! sample indices whose gradients are accumulated before one optimizer step —
//! matching the paper's batch size of 16 (Table II). The *inference* batch is
//! a [`GraphBatch`]: `B` graphs concatenated into one block-diagonal graph so
//! the whole batch runs through one fused forward pass (DESIGN.md §15).

use crate::plan::ReadPlan;
use pnp_graph::EncodedGraph;
use pnp_tensor::SeededRng;
use std::fmt;
use std::sync::Arc;

/// Why a [`GraphBatch`] could not be assembled. Client-facing callers (the
/// serve path) must get a typed error back, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// The batch holds no graphs at all.
    Empty,
    /// Graph `index` has zero nodes — the model cannot pool an empty node
    /// set ([`crate::PnPModel::forward`] asserts the same thing).
    EmptyGraph {
        /// Position of the offending graph in the batch.
        index: usize,
        /// Its `EncodedGraph::name`.
        name: String,
    },
    /// Graph `index` groups its edges into a different number of relations
    /// than the first graph — the block-diagonal merge is per relation, so
    /// every graph must agree.
    RelationArity {
        /// Position of the offending graph in the batch.
        index: usize,
        /// Relation count of the first graph.
        expected: usize,
        /// Relation count of graph `index`.
        got: usize,
    },
    /// Graph `index` has an edge endpoint outside its own node range; the
    /// offset shift would silently alias a node of a *different* graph, so
    /// it is rejected up front.
    EdgeOutOfRange {
        /// Position of the offending graph in the batch.
        index: usize,
        /// Relation the bad edge belongs to.
        relation: usize,
        /// The `(src, dst)` pair as stored in the graph.
        edge: (usize, usize),
        /// The graph's node count.
        num_nodes: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Empty => write!(f, "cannot batch zero graphs"),
            BatchError::EmptyGraph { index, name } => {
                write!(f, "graph {index} ({name:?}) has no nodes")
            }
            BatchError::RelationArity {
                index,
                expected,
                got,
            } => write!(
                f,
                "graph {index} has {got} relations, batch expects {expected}"
            ),
            BatchError::EdgeOutOfRange {
                index,
                relation,
                edge,
                num_nodes,
            } => write!(
                f,
                "graph {index} relation {relation} edge {edge:?} exceeds its {num_nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

/// `B` encoded graphs merged into one block-diagonal graph for fused
/// inference (DESIGN.md §15).
///
/// Node ids of graph `i` are shifted by the total node count of graphs
/// `0..i`, token/kind sequences are concatenated in batch order, and the
/// per-relation edge lists are concatenated graph by graph with the same
/// shift. No edge crosses a graph boundary, so message passing over the
/// merged edge lists computes exactly what it would per graph. The batch
/// also carries its [`ReadPlan`], shared by every layer of every model run
/// over the batch. On the first inference forward the plan numbers the
/// batch's row classes (nodes whose rows every layer computes alike,
/// [`crate::RowClasses`]) and keeps them, so each RGCN layer computes one
/// row per class: a batch's products are as tall as its distinct rows,
/// and graphs that repeat another's structure add none. `segments`
/// (length `B + 1`) records the node offsets so the readout can pool each
/// graph separately ([`pnp_tensor::Tensor::segment_mean_rows_of`]);
/// pooling globally would mix graphs and break the
/// [bit-identity contract](crate::PnPModel::forward_batch).
///
/// # Examples
///
/// ```
/// use pnp_gnn::GraphBatch;
/// use pnp_graph::EncodedGraph;
///
/// let a = EncodedGraph {
///     name: "a".into(),
///     tokens: vec![0, 1, 2],
///     kinds: vec![0, 1, 2],
///     relations: vec![vec![(0, 1), (1, 2)], vec![], vec![]],
/// };
/// let b = EncodedGraph {
///     name: "b".into(),
///     tokens: vec![3, 4],
///     kinds: vec![0, 1],
///     relations: vec![vec![(1, 0)], vec![(0, 1)], vec![]],
/// };
/// let batch = GraphBatch::from_graphs(&[&a, &b]).unwrap();
///
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.num_nodes(), 5);
/// // Graph boundaries as node offsets: a spans rows 0..3, b spans 3..5.
/// assert_eq!(batch.segments(), &[0, 3, 5]);
/// // b's edges are shifted by a's 3 nodes; a's are untouched.
/// assert_eq!(batch.relations()[0], vec![(0, 1), (1, 2), (4, 3)]);
/// assert_eq!(batch.relations()[1], vec![(3, 4)]);
/// // No row classes until an inference forward asks for them.
/// assert_eq!(batch.plan().class_depth(), None);
/// // The five nodes hold five distinct (token, kind) pairs, so five
/// // level-0 classes, and five classes at level 1.
/// let classes = batch.plan().row_classes(1);
/// assert_eq!(classes.tokens(), &[0, 1, 2, 3, 4]);
/// assert_eq!(classes.count(1), 5);
/// // Layer 0's relation 0 reads sources 0, 1 and 4; relation 1 only 3.
/// assert_eq!(classes.layers()[0].source_rows(0), &[0, 1, 4]);
/// assert_eq!(classes.layers()[0].source_rows(1), &[3]);
///
/// // An empty batch is a typed error, not a panic.
/// assert!(GraphBatch::from_graphs(&[]).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct GraphBatch {
    plan: Arc<ReadPlan>,
    segments: Vec<usize>,
}

impl GraphBatch {
    /// Merges `graphs` (in order) into one block-diagonal batch.
    ///
    /// Fails with a typed [`BatchError`] on an empty batch, a zero-node
    /// graph, mismatched relation counts, or an edge endpoint outside its
    /// graph — all conditions under which the fused forward would otherwise
    /// panic or silently read another graph's nodes.
    pub fn from_graphs(graphs: &[&EncodedGraph]) -> Result<GraphBatch, BatchError> {
        if graphs.is_empty() {
            return Err(BatchError::Empty);
        }
        let num_relations = graphs[0].relations.len();
        let total_nodes: usize = graphs.iter().map(|g| g.num_nodes()).sum();

        let mut tokens = Vec::with_capacity(total_nodes);
        let mut kinds = Vec::with_capacity(total_nodes);
        let mut relations: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_relations];
        let mut segments = Vec::with_capacity(graphs.len() + 1);
        segments.push(0);

        let mut offset = 0usize;
        for (index, g) in graphs.iter().enumerate() {
            let n = g.num_nodes();
            if n == 0 {
                return Err(BatchError::EmptyGraph {
                    index,
                    name: g.name.clone(),
                });
            }
            if g.relations.len() != num_relations {
                return Err(BatchError::RelationArity {
                    index,
                    expected: num_relations,
                    got: g.relations.len(),
                });
            }
            tokens.extend_from_slice(&g.tokens);
            kinds.extend_from_slice(&g.kinds);
            for (relation, edges) in g.relations.iter().enumerate() {
                for &(s, d) in edges {
                    if s >= n || d >= n {
                        return Err(BatchError::EdgeOutOfRange {
                            index,
                            relation,
                            edge: (s, d),
                            num_nodes: n,
                        });
                    }
                    relations[relation].push((s + offset, d + offset));
                }
            }
            offset += n;
            segments.push(offset);
        }

        Ok(GraphBatch {
            plan: Arc::new(ReadPlan::new(tokens, kinds, relations)),
            segments,
        })
    }

    /// Number of graphs in the batch.
    pub fn len(&self) -> usize {
        self.segments.len() - 1
    }

    /// True when the batch holds no graphs (unreachable via
    /// [`GraphBatch::from_graphs`], which rejects empty batches).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total node count across all graphs.
    pub fn num_nodes(&self) -> usize {
        *self.segments.last().unwrap()
    }

    /// Concatenated token ids (`num_nodes` entries).
    pub fn tokens(&self) -> &[usize] {
        self.plan.tokens()
    }

    /// Concatenated node-kind indices (`num_nodes` entries).
    pub fn kinds(&self) -> &[usize] {
        self.plan.kinds()
    }

    /// Merged per-relation edge lists with batch-global node ids.
    pub fn relations(&self) -> &[Vec<(usize, usize)>] {
        self.plan.relations()
    }

    /// The rows the RGCN layers read and write over this batch.
    pub fn plan(&self) -> &Arc<ReadPlan> {
        &self.plan
    }

    /// Graph boundaries as `len() + 1` ascending node offsets; graph `i`
    /// owns node rows `segments()[i]..segments()[i + 1]`.
    pub fn segments(&self) -> &[usize] {
        &self.segments
    }
}

/// Shuffles sample indices each epoch and yields fixed-size batches.
pub struct Minibatcher {
    num_samples: usize,
    batch_size: usize,
    rng: SeededRng,
}

impl Minibatcher {
    /// Creates a batcher over `num_samples` samples.
    pub fn new(num_samples: usize, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Minibatcher {
            num_samples,
            batch_size,
            rng: SeededRng::new(seed),
        }
    }

    /// Returns the batches (each a vector of sample indices) for one epoch,
    /// in a freshly shuffled order.
    pub fn epoch_batches(&mut self) -> Vec<Vec<usize>> {
        let mut indices: Vec<usize> = (0..self.num_samples).collect();
        self.rng.shuffle(&mut indices);
        indices
            .chunks(self.batch_size)
            .map(|c| c.to_vec())
            .collect()
    }

    /// Number of batches per epoch.
    pub fn batches_per_epoch(&self) -> usize {
        self.num_samples.div_ceil(self.batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cover_every_index_exactly_once() {
        let mut b = Minibatcher::new(37, 16, 1);
        let batches = b.epoch_batches();
        assert_eq!(batches.len(), 3);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn shuffling_changes_between_epochs() {
        let mut b = Minibatcher::new(64, 16, 2);
        let e1 = b.epoch_batches();
        let e2 = b.epoch_batches();
        assert_ne!(e1, e2);
    }

    #[test]
    fn batches_per_epoch_rounds_up() {
        let b = Minibatcher::new(17, 16, 3);
        assert_eq!(b.batches_per_epoch(), 2);
        let b = Minibatcher::new(16, 16, 3);
        assert_eq!(b.batches_per_epoch(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_batch_size_panics() {
        Minibatcher::new(4, 0, 1);
    }
}
