//! Batched inference: flattened models and blocked row-major scoring.
//!
//! Training produces pointer-linked `Box` trees that score one row at a
//! time — every node visit chases a heap pointer, and scoring a corpus
//! re-walks that scattered memory once per row. `compile()` turns each
//! trained model into a [`CompiledClassifier`]/[`CompiledRegressor`]:
//! trees become struct-of-arrays node tables ([`FlatTree`] — `feature`,
//! `threshold`, `left`, `right` as parallel vectors, leaf values stored
//! inline in the `threshold` slot under a `u32::MAX` feature sentinel),
//! and a whole forest shares one node table ([`FlatForest`]).
//!
//! `predict_batch` then scores blocks of [`BLOCK_ROWS`] rows at a time:
//! each block is gathered from the columnar [`ColMatrix`] into one
//! row-major scratch buffer, and every tree traverses all rows of the
//! block before the next tree starts, so a tree's nodes are fetched once
//! per block instead of once per row. Linear, naive-Bayes and k-NN
//! models get columnar batch loops with the same accumulation order as
//! their row-major `predict_proba`.
//!
//! **Every batched prediction is bit-identical to the boxed per-row
//! path**: traversals use the same `value <= threshold` comparison with
//! the same missing-feature default, and every floating-point fold (tree
//! sums, dot products, log-likelihoods, neighbour votes) runs in the
//! same element order as the row-major original.
//!
//! Compiled models also (de)serialize through the serde-free
//! [`bytes`](crate::bytes) codec, so a trained battery can be saved once
//! and reloaded for repeated scoring runs.

use crate::bytes::{ByteReader, ByteWriter};
use crate::dataset::ColMatrix;
use crate::tree::Node;

/// Rows gathered per scoring block. 64 rows × ~100 features × 8 bytes is
/// ~50 KiB of scratch — comfortably L2-resident alongside the node table.
pub(crate) const BLOCK_ROWS: usize = 64;

/// Feature sentinel marking a leaf node; the leaf value lives in the
/// node's `threshold` slot.
pub(crate) const LEAF: u32 = u32::MAX;

/// Rows traversed in lockstep by the blocked kernel. Each lane is an
/// independent root-to-leaf walk, so the loads of `LANES` rows overlap
/// instead of serializing on one walk's dependency chain.
pub(crate) const LANES: usize = 16;

/// Gather `x` into row-major blocks of up to [`BLOCK_ROWS`] rows and hand
/// each to `f` as `(first_row_index, real_rows, row_major_values)`; rows
/// are `x.n_cols()`-wide consecutive slices of the last argument. The
/// block is padded with all-zero rows up to a [`LANES`] multiple (real
/// rows first), so the lockstep kernel never needs a scalar tail — sinks
/// must ignore row indices at or beyond `real_rows`.
pub(crate) fn for_each_block(x: &ColMatrix, mut f: impl FnMut(usize, usize, &[f64])) {
    let width = x.n_cols();
    let mut scratch = vec![0.0; BLOCK_ROWS * width];
    let mut start = 0;
    while start < x.n_rows() {
        let len = BLOCK_ROWS.min(x.n_rows() - start);
        let padded = len.next_multiple_of(LANES);
        for j in 0..width {
            for (r, &v) in x.col(j)[start..start + len].iter().enumerate() {
                scratch[r * width + j] = v;
            }
        }
        scratch[len * width..padded * width].fill(0.0);
        f(start, len, &scratch[..padded * width]);
        start += len;
    }
}

/// A decision or regression tree flattened into parallel node arrays.
///
/// Node 0 is the root; a compiled tree always has at least one node (an
/// unfitted tree compiles to a single leaf holding its default value).
#[derive(Debug, Clone, Default)]
pub struct FlatTree {
    pub(crate) feature: Vec<u32>,
    pub(crate) threshold: Vec<f64>,
    pub(crate) left: Vec<u32>,
    pub(crate) right: Vec<u32>,
    /// The kernel's leaf-rewritten node view — a pure function of the
    /// arrays above, built once on first use instead of per scoring
    /// call.
    kt: std::sync::OnceLock<Box<KernelTables>>,
    /// Largest split feature index (0 for a lone leaf), cached apart
    /// from `kt`: every batch path checks it against the matrix width,
    /// and a compiled program never needs the rest of `kt`.
    max_feature: std::sync::OnceLock<u32>,
    /// The quantized program, compiled once by [`optimize`](Self::optimize);
    /// `None` inside means compilation was attempted and fell back.
    opt: std::sync::OnceLock<Option<Box<crate::kernel::ForestProgram>>>,
}

/// Derived caches (`kt`, `max_feature`, `opt`) are excluded: they are
/// functions of the node table, and the kernel's leaf thresholds are
/// `NaN`, which would make any tree compare unequal to itself.
impl PartialEq for FlatTree {
    fn eq(&self, other: &Self) -> bool {
        self.feature == other.feature
            && self.threshold == other.threshold
            && self.left == other.left
            && self.right == other.right
    }
}

impl FlatTree {
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Leaves self-loop (`left == right == i`): the lockstep kernel then
    /// needs no leaf branch — a lane that has reached its leaf keeps
    /// re-selecting the same node until the tree's depth budget runs out.
    fn push_leaf(&mut self, value: f64) -> u32 {
        let i = self.feature.len() as u32;
        self.feature.push(LEAF);
        self.threshold.push(value);
        self.left.push(i);
        self.right.push(i);
        i
    }

    /// Preorder-flatten `node`, returning its index.
    fn push_node(&mut self, node: &Node) -> u32 {
        match node {
            Node::Leaf { value } => self.push_leaf(*value),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let i = self.feature.len() as u32;
                self.feature.push(*feature as u32);
                self.threshold.push(*threshold);
                self.left.push(0);
                self.right.push(0);
                let l = self.push_node(left);
                let r = self.push_node(right);
                self.left[i as usize] = l;
                self.right[i as usize] = r;
                i
            }
        }
    }

    /// Walk from node `root` for one row. Same comparison and
    /// missing-feature default as the boxed `Node::predict`, so results
    /// are bit-identical (NaN features included: `NaN <= t` is false on
    /// both paths, taking the right branch).
    #[inline]
    fn score_from(&self, root: u32, row: &[f64]) -> f64 {
        let mut i = root as usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.threshold[i];
            }
            let v = row.get(f as usize).copied().unwrap_or(0.0);
            i = if v <= self.threshold[i] {
                self.left[i]
            } else {
                self.right[i]
            } as usize;
        }
    }

    /// Max root-to-leaf edge count from every node, via one reverse pass
    /// (children always follow their parent — the preorder invariant
    /// `validate` enforces — so suffix depths are final when read).
    pub(crate) fn node_depths(&self) -> Vec<u32> {
        let n = self.feature.len();
        let mut depth = vec![0u32; n];
        for i in (0..n).rev() {
            if self.feature[i] != LEAF {
                depth[i] = 1 + depth[self.left[i] as usize].max(depth[self.right[i] as usize]);
            }
        }
        depth
    }

    /// Rewrite the node table for the lockstep kernel: leaves get feature
    /// 0 (so every per-step row load is in-bounds) and threshold `NaN`
    /// (so the `v <= t` select is always false and a finished lane takes
    /// `right`, which self-loops). Split nodes are untouched, so the
    /// kernel makes exactly the decisions `score_from` makes. Built once
    /// and cached — repeated scalar/explain calls stop rebuilding it.
    pub(crate) fn kernel_tables(&self) -> &KernelTables {
        self.kt.get_or_init(|| {
            let mut feature_right = Vec::with_capacity(self.feature.len());
            let mut threshold = Vec::with_capacity(self.threshold.len());
            for i in 0..self.feature.len() {
                let (f, t) = if self.feature[i] == LEAF {
                    (0, f64::NAN)
                } else {
                    (self.feature[i], self.threshold[i])
                };
                feature_right.push(u64::from(f) << 32 | u64::from(self.right[i]));
                threshold.push(t);
            }
            Box::new(KernelTables {
                feature_right,
                threshold,
            })
        })
    }

    /// Largest feature index any split reads (0 when there is none) —
    /// the batch paths' one-time `max_feature < width` guard.
    pub(crate) fn max_feature(&self) -> u32 {
        *self.max_feature.get_or_init(|| {
            self.feature
                .iter()
                .filter(|&&f| f != LEAF)
                .max()
                .copied()
                .unwrap_or(0)
        })
    }

    /// Compile this tree's quantized program (a single-tree forest in
    /// kernel terms). Idempotent; scoring uses the program only after
    /// this has run, so un-optimized instances stay the exact
    /// interpreter. Returns whether a compiled program is active.
    pub fn optimize(&self) -> bool {
        self.opt
            .get_or_init(|| {
                let depth = self.node_depths()[0];
                crate::kernel::ForestProgram::compile(self, &[0], &[depth]).map(Box::new)
            })
            .is_some()
    }

    /// The compiled program, if [`optimize`](Self::optimize) has run and
    /// succeeded.
    #[inline]
    pub(crate) fn program(&self) -> Option<&crate::kernel::ForestProgram> {
        self.opt.get().and_then(|p| p.as_deref())
    }

    /// Walk every row of a row-major `block` (whose row count must be a
    /// [`LANES`] multiple, as [`for_each_block`] guarantees) from `root`,
    /// calling `sink(row_index_in_block, leaf_value)` — including for any
    /// zero-padding rows, which the sink must discard. `kt` comes from
    /// [`kernel_tables`](FlatTree::kernel_tables) and every feature in it
    /// must be `< width` (the caller checks `max_feature` once).
    ///
    /// Rows advance [`LANES`] at a time in lockstep for exactly `depth`
    /// steps with no leaf test in the hot loop: a lane that reaches its
    /// leaf keeps failing the `NaN` comparison and holds position through
    /// the self-looping `right` child. The preorder invariant `left ==
    /// i + 1` (enforced by `validate`) makes the taken branch pure
    /// arithmetic, so each step is four loads plus a select and the
    /// lanes' dependency chains overlap. Each lane makes exactly the
    /// decisions `score_from` makes, so leaf values — and therefore
    /// predictions — are bit-identical.
    fn score_block(
        &self,
        kt: &KernelTables,
        root: u32,
        depth: u32,
        block: &[f64],
        width: usize,
        sink: &mut impl FnMut(usize, f64),
    ) {
        let mut base = 0;
        for chunk in block.chunks_exact(width * LANES) {
            let mut idx = [root as usize; LANES];
            for _ in 0..depth {
                for (l, i) in idx.iter_mut().enumerate() {
                    let fr = kt.feature_right[*i];
                    let v = chunk[l * width + (fr >> 32) as usize];
                    *i = if v <= kt.threshold[*i] {
                        *i + 1
                    } else {
                        (fr & u64::from(u32::MAX)) as usize
                    };
                }
            }
            for (l, &i) in idx.iter().enumerate() {
                sink(base + l, self.threshold[i]);
            }
            base += LANES;
        }
    }

    /// Score every row of `x` (blocked lockstep traversal, falling back
    /// to the plain row walk when the tree references features beyond
    /// the matrix width — those reads default to 0.0, which the kernel's
    /// unconditional loads cannot express). After [`optimize`](Self::optimize)
    /// the quantized program runs instead, under the same fallback
    /// condition and with bit-identical results.
    pub fn predict_batch(&self, x: &ColMatrix) -> Vec<f64> {
        let width = x.n_cols();
        if width == 0 {
            return (0..x.n_rows()).map(|_| self.score_from(0, &[])).collect();
        }
        if self.max_feature() as usize >= width {
            let mut row = vec![0.0; width];
            return (0..x.n_rows())
                .map(|i| {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = x.value(i, j);
                    }
                    self.score_from(0, &row)
                })
                .collect();
        }
        let mut out = vec![0.0; x.n_rows()];
        if let Some(prog) = self.program() {
            prog.walk_batch(x, &mut |r, _leaf, v| out[r] = v);
            return out;
        }
        let kt = self.kernel_tables();
        let depth = self.node_depths()[0];
        for_each_block(x, |start, rows, block| {
            let dst = &mut out[start..start + rows];
            self.score_block(kt, 0, depth, block, width, &mut |r, v| {
                if r < dst.len() {
                    dst[r] = v;
                }
            });
        });
        out
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32s(&self.feature);
        w.put_f64s(&self.threshold);
        w.put_u32s(&self.left);
        w.put_u32s(&self.right);
    }

    fn decode(r: &mut ByteReader) -> Result<FlatTree, String> {
        let tree = FlatTree {
            feature: r.get_u32s()?,
            threshold: r.get_f64s()?,
            left: r.get_u32s()?,
            right: r.get_u32s()?,
            ..Default::default()
        };
        tree.validate()?;
        Ok(tree)
    }

    /// Structural sanity: equal-length arrays, at least one node, every
    /// split's left child at exactly `i + 1` with the right child in
    /// bounds after it (the preorder invariants `node_depths` and the
    /// lockstep kernel rely on, which also rule out cycles), and every
    /// leaf self-looping (ditto). A corrupt table must fail at load time,
    /// not loop or index out of bounds mid-traversal.
    fn validate(&self) -> Result<(), String> {
        let n = self.feature.len();
        if n == 0 {
            return Err("flat tree has no nodes".into());
        }
        if self.threshold.len() != n || self.left.len() != n || self.right.len() != n {
            return Err("flat tree arrays disagree on node count".into());
        }
        for i in 0..n {
            let (l, r) = (self.left[i] as usize, self.right[i] as usize);
            if self.feature[i] == LEAF {
                if l != i || r != i {
                    return Err(format!("flat tree leaf {i} does not self-loop"));
                }
            } else if l != i + 1 || r <= i || r >= n {
                return Err(format!("flat tree node {i} has out-of-order children"));
            }
        }
        Ok(())
    }
}

/// The lockstep kernel's view of a [`FlatTree`]: same node indices, but
/// leaves carry feature 0 and a `NaN` threshold so the hot loop needs no
/// leaf test or bounds fallback, and each node's feature and right child
/// are packed into one `u64` (feature high, right low) so a step is one
/// load fewer. See [`kernel_tables`](FlatTree::kernel_tables).
#[derive(Debug, Clone)]
pub(crate) struct KernelTables {
    pub(crate) feature_right: Vec<u64>,
    pub(crate) threshold: Vec<f64>,
}

/// Flatten a boxed tree root (`None` = unfitted, which predicts
/// `default_value`).
pub(crate) fn flatten_tree(root: Option<&Node>, default_value: f64) -> FlatTree {
    let mut tree = FlatTree::default();
    match root {
        Some(node) => {
            tree.push_node(node);
        }
        None => {
            tree.push_leaf(default_value);
        }
    }
    tree
}

/// A whole forest sharing one flattened node table.
///
/// `predict_batch` averages per-tree leaf values in tree order, dividing
/// by a divisor precomputed at compile time. The divisor is kept as the
/// tree count itself (not its reciprocal): `sum * (1.0 / n)` is not
/// bitwise equal to `sum / n` for non-power-of-two tree counts, and the
/// boxed path divides.
#[derive(Debug, Clone)]
pub struct FlatForest {
    pub(crate) roots: Vec<u32>,
    pub(crate) nodes: FlatTree,
    /// Per-root max depth (not serialized — recomputed from the table),
    /// the lockstep kernel's step budget.
    pub(crate) depths: Vec<u32>,
    /// Number of voting trees as `f64` — the division denominator.
    pub(crate) n_trees: f64,
    /// Prediction when the forest has no trees (0.5 classifier, 0.0
    /// regressor), matching the boxed empty-forest guard.
    pub(crate) empty_value: f64,
    /// Attribution's derived view (subtree expectations + per-edge
    /// credits) — like `kernel`, a pure function of the node table, but
    /// built lazily on the first `attribute_batch`/`attribute_row` so
    /// scoring-only deployments never pay for it (boxed: it must not
    /// grow the enum variants scoring matches on).
    pub(crate) attr: std::sync::OnceLock<Box<crate::attribution::AttrTables>>,
    /// The quantized program, compiled once by [`optimize`](Self::optimize);
    /// `None` inside means compilation was attempted and fell back.
    opt: std::sync::OnceLock<Option<Box<crate::kernel::ForestProgram>>>,
}

/// Derived caches (`depths`, the node table's kernel view, `attr`,
/// `opt`) are excluded: they are functions of the node table, and the
/// kernel's leaf thresholds are `NaN`, which would make any forest
/// compare unequal to itself.
impl PartialEq for FlatForest {
    fn eq(&self, other: &Self) -> bool {
        self.roots == other.roots
            && self.nodes == other.nodes
            && self.n_trees == other.n_trees
            && self.empty_value == other.empty_value
    }
}

impl FlatForest {
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.n_nodes()
    }

    /// Lower the forest into its quantized, feature-pruned, depth-unrolled
    /// program (see [`crate::kernel`]). Idempotent; batched scoring and
    /// attribution use the program only after this has run, so
    /// un-optimized instances stay the exact interpreter. Returns whether
    /// a compiled program is active (`false` = exactness fallback).
    pub fn optimize(&self) -> bool {
        self.opt
            .get_or_init(|| {
                crate::kernel::ForestProgram::compile(&self.nodes, &self.roots, &self.depths)
                    .map(Box::new)
            })
            .is_some()
    }

    /// The compiled program, if [`optimize`](Self::optimize) has run and
    /// succeeded.
    #[inline]
    pub(crate) fn program(&self) -> Option<&crate::kernel::ForestProgram> {
        self.opt.get().and_then(|p| p.as_deref())
    }

    /// Mean of per-tree predictions for one row, in tree order.
    #[inline]
    fn score_row(&self, row: &[f64]) -> f64 {
        let mut sum = 0.0;
        for &root in &self.roots {
            sum += self.nodes.score_from(root, row);
        }
        sum / self.n_trees
    }

    /// Score every row of `x`: per block, every tree traverses all rows
    /// before the next tree starts, keeping the tree's nodes cache-hot.
    pub fn predict_batch(&self, x: &ColMatrix) -> Vec<f64> {
        let n = x.n_rows();
        if self.roots.is_empty() {
            return vec![self.empty_value; n];
        }
        let width = x.n_cols();
        if width == 0 {
            return (0..n).map(|_| self.score_row(&[])).collect();
        }
        if self.nodes.max_feature() as usize >= width {
            let mut row = vec![0.0; width];
            return (0..n)
                .map(|i| {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = x.value(i, j);
                    }
                    self.score_row(&row)
                })
                .collect();
        }
        let mut out = vec![0.0; n];
        if let Some(prog) = self.program() {
            // The compiled program folds leaves in the interpreter's
            // exact order (trees in forest order per row), so sums — and
            // the final division — are bit-identical.
            // SAFETY: walk_batch only fires rows `< x.n_rows()` =
            // out.len(); this sink runs once per (row, tree) and is the
            // single hottest callback in batch scoring.
            prog.walk_batch(x, &mut |r, _leaf, v| unsafe {
                *out.get_unchecked_mut(r) += v;
            });
            out.iter_mut().for_each(|o| *o /= self.n_trees);
            return out;
        }
        let kt = self.nodes.kernel_tables();
        for_each_block(x, |start, rows, block| {
            // Padded accumulator: pad-row sums land here too and are
            // simply never copied out, keeping the sink branch-free.
            let mut acc = [0.0f64; BLOCK_ROWS];
            let acc = &mut acc[..block.len() / width];
            for (&root, &depth) in self.roots.iter().zip(&self.depths) {
                self.nodes
                    .score_block(kt, root, depth, block, width, &mut |r, v| acc[r] += v);
            }
            for (dst, sum) in out[start..start + rows].iter_mut().zip(&*acc) {
                *dst = sum / self.n_trees;
            }
        });
        out
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32s(&self.roots);
        self.nodes.encode(w);
        w.put_f64(self.n_trees);
        w.put_f64(self.empty_value);
    }

    fn decode(r: &mut ByteReader) -> Result<FlatForest, String> {
        let roots = r.get_u32s()?;
        let nodes = FlatTree::decode(r)?;
        if let Some(&root) = roots.iter().find(|&&root| root as usize >= nodes.n_nodes()) {
            return Err(format!("flat forest root {root} is out of range"));
        }
        let all_depths = nodes.node_depths();
        let depths = roots.iter().map(|&r| all_depths[r as usize]).collect();
        Ok(FlatForest {
            depths,
            roots,
            nodes,
            n_trees: r.get_f64()?,
            empty_value: r.get_f64()?,
            attr: Default::default(),
            opt: Default::default(),
        })
    }
}

/// Flatten a forest's trees into one shared node table.
pub(crate) fn flatten_forest<'a>(
    trees: impl Iterator<Item = Option<&'a Node>>,
    empty_value: f64,
) -> FlatForest {
    let mut nodes = FlatTree::default();
    let mut roots = Vec::new();
    for root in trees {
        roots.push(match root {
            Some(node) => nodes.push_node(node),
            None => nodes.push_leaf(empty_value),
        });
    }
    if roots.is_empty() {
        // Keep the invariant that a node table is never empty.
        nodes.push_leaf(empty_value);
    }
    let all_depths = nodes.node_depths();
    FlatForest {
        n_trees: roots.len() as f64,
        depths: roots.iter().map(|&r| all_depths[r as usize]).collect(),
        roots,
        nodes,
        empty_value,
        attr: Default::default(),
        opt: Default::default(),
    }
}

/// Columnar `bias + Σ w_j·x_j` accumulated in feature order — the same
/// fold the row-major `dot` performs, so sums are bit-identical.
fn linear_batch(bias: f64, weights: &[f64], x: &ColMatrix) -> Vec<f64> {
    let mut z = vec![0.0; x.n_rows()];
    for (w, j) in weights.iter().zip(0..x.n_cols()) {
        for (zi, &v) in z.iter_mut().zip(x.col(j)) {
            *zi += w * v;
        }
    }
    z.iter_mut().for_each(|zi| *zi += bias);
    z
}

/// Batched gaussian-NB posterior, same per-feature fold order as
/// `GaussianNb::log_likelihood`.
fn nb_batch(log_priors: [f64; 2], stats: &[Vec<(f64, f64)>; 2], x: &ColMatrix) -> Vec<f64> {
    let ln_2pi = (2.0 * std::f64::consts::PI).ln();
    let mut ll = [
        vec![log_priors[0]; x.n_rows()],
        vec![log_priors[1]; x.n_rows()],
    ];
    for (class, out) in ll.iter_mut().enumerate() {
        for (&(mean, var), j) in stats[class].iter().zip(0..x.n_cols()) {
            for (l, &v) in out.iter_mut().zip(x.col(j)) {
                *l += -0.5 * ((v - mean) * (v - mean) / var + var.ln() + ln_2pi);
            }
        }
    }
    ll[0]
        .iter()
        .zip(&ll[1])
        .map(|(&l0, &l1)| {
            let m = l0.max(l1);
            let e0 = (l0 - m).exp();
            let e1 = (l1 - m).exp();
            e1 / (e0 + e1)
        })
        .collect()
}

/// Squared Euclidean distance with the row-major fold order (truncates at
/// the shorter operand, like the boxed `zip`).
#[inline]
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Batched k-NN vote fractions: one reused distance scratch per call
/// instead of a fresh allocation per row.
fn knn_batch(k: usize, width: usize, train: &[f64], labels: &[u32], x: &ColMatrix) -> Vec<f64> {
    let n = x.n_rows();
    if labels.is_empty() {
        return vec![0.5; n];
    }
    let mut row = vec![0.0; x.n_cols()];
    let mut dists: Vec<(f64, u32)> = Vec::with_capacity(labels.len());
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        for (j, v) in row.iter_mut().enumerate() {
            *v = x.value(i, j);
        }
        dists.clear();
        if width == 0 {
            dists.extend(labels.iter().map(|&l| (0.0, l)));
        } else {
            dists.extend(
                train
                    .chunks_exact(width)
                    .zip(labels)
                    .map(|(t, &l)| (sq_dist(&row, t), l)),
            );
        }
        let k = k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let votes: u32 = dists[..k].iter().map(|&(_, l)| l).sum();
        out.push(votes as f64 / k as f64);
    }
    out
}

/// A classifier compiled for batched scoring and binary persistence.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledClassifier {
    Forest(FlatForest),
    Tree(FlatTree),
    Logistic {
        bias: f64,
        weights: Vec<f64>,
    },
    GaussianNb {
        log_priors: [f64; 2],
        /// `stats[class][feature] = (mean, variance)`; empty = unfitted.
        stats: [Vec<(f64, f64)>; 2],
        fitted: bool,
    },
    Knn {
        k: usize,
        /// Row-major training rows, `width` features each.
        width: usize,
        train: Vec<f64>,
        labels: Vec<u32>,
    },
}

impl CompiledClassifier {
    /// Class-1 probability for every row of `x`, bit-identical to the
    /// source model's `predict_proba` per row.
    pub fn predict_batch(&self, x: &ColMatrix) -> Vec<f64> {
        match self {
            CompiledClassifier::Forest(forest) => forest.predict_batch(x),
            CompiledClassifier::Tree(tree) => tree.predict_batch(x),
            CompiledClassifier::Logistic { bias, weights } => linear_batch(*bias, weights, x)
                .into_iter()
                .map(crate::logreg::sigmoid)
                .collect(),
            CompiledClassifier::GaussianNb {
                log_priors,
                stats,
                fitted,
            } => {
                if !*fitted {
                    return vec![0.5; x.n_rows()];
                }
                nb_batch(*log_priors, stats, x)
            }
            CompiledClassifier::Knn {
                k,
                width,
                train,
                labels,
            } => knn_batch(*k, *width, train, labels, x),
        }
    }

    /// Compile tree-shaped models to their quantized programs (see
    /// [`crate::kernel`]); other learners are already branch-free and
    /// return `true` unchanged. Returns whether every kernel this model
    /// could compile is active.
    pub fn optimize(&self) -> bool {
        match self {
            CompiledClassifier::Forest(forest) => forest.optimize(),
            CompiledClassifier::Tree(tree) => tree.optimize(),
            _ => true,
        }
    }

    /// The active compiled program, if this is a tree-shaped model whose
    /// `optimize` succeeded.
    pub(crate) fn program(&self) -> Option<&crate::kernel::ForestProgram> {
        match self {
            CompiledClassifier::Forest(forest) => forest.program(),
            CompiledClassifier::Tree(tree) => tree.program(),
            _ => None,
        }
    }

    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            CompiledClassifier::Forest(forest) => {
                w.put_u8(0);
                forest.encode(w);
            }
            CompiledClassifier::Tree(tree) => {
                w.put_u8(1);
                tree.encode(w);
            }
            CompiledClassifier::Logistic { bias, weights } => {
                w.put_u8(2);
                w.put_f64(*bias);
                w.put_f64s(weights);
            }
            CompiledClassifier::GaussianNb {
                log_priors,
                stats,
                fitted,
            } => {
                w.put_u8(3);
                w.put_u8(*fitted as u8);
                w.put_f64(log_priors[0]);
                w.put_f64(log_priors[1]);
                for class in stats {
                    w.put_usize(class.len());
                    for &(mean, var) in class {
                        w.put_f64(mean);
                        w.put_f64(var);
                    }
                }
            }
            CompiledClassifier::Knn {
                k,
                width,
                train,
                labels,
            } => {
                w.put_u8(4);
                w.put_usize(*k);
                w.put_usize(*width);
                w.put_f64s(train);
                w.put_u32s(labels);
            }
        }
    }

    pub fn decode(r: &mut ByteReader) -> Result<CompiledClassifier, String> {
        match r.get_u8()? {
            0 => Ok(CompiledClassifier::Forest(FlatForest::decode(r)?)),
            1 => Ok(CompiledClassifier::Tree(FlatTree::decode(r)?)),
            2 => Ok(CompiledClassifier::Logistic {
                bias: r.get_f64()?,
                weights: r.get_f64s()?,
            }),
            3 => {
                let fitted = r.get_u8()? != 0;
                let log_priors = [r.get_f64()?, r.get_f64()?];
                let mut stats: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
                for class in &mut stats {
                    let n = r.get_usize()?;
                    for _ in 0..n {
                        class.push((r.get_f64()?, r.get_f64()?));
                    }
                }
                Ok(CompiledClassifier::GaussianNb {
                    log_priors,
                    stats,
                    fitted,
                })
            }
            4 => {
                let k = r.get_usize()?;
                let width = r.get_usize()?;
                let train = r.get_f64s()?;
                let labels = r.get_u32s()?;
                if width != 0 && train.len() != width * labels.len() {
                    return Err("knn training matrix size mismatch".into());
                }
                Ok(CompiledClassifier::Knn {
                    k,
                    width,
                    train,
                    labels,
                })
            }
            tag => Err(format!("unknown compiled-classifier tag {tag}")),
        }
    }
}

/// Link every optimized tree-shaped model of a battery to one shared
/// quantization (the union of their cut tables), so batched scoring
/// ranks each matrix once per call instead of once per model — see
/// [`crate::kernel`]. Call after the battery's `optimize` pass; models
/// without an active program (non-tree learners, exactness fallbacks)
/// simply don't participate. Idempotent, and a no-op when the merged
/// tables would not quantize losslessly.
pub fn link_battery<'a>(
    classifiers: impl IntoIterator<Item = &'a CompiledClassifier>,
    regressors: impl IntoIterator<Item = &'a CompiledRegressor>,
) {
    let programs: Vec<&crate::kernel::ForestProgram> = classifiers
        .into_iter()
        .filter_map(|m| m.program())
        .chain(regressors.into_iter().filter_map(|m| m.program()))
        .collect();
    crate::kernel::link_programs(&programs);
}

/// A regressor compiled for batched scoring and binary persistence.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledRegressor {
    Linear {
        intercept: f64,
        coefficients: Vec<f64>,
    },
    Tree(FlatTree),
    Forest(FlatForest),
}

impl CompiledRegressor {
    /// Predicted target for every row of `x`, bit-identical to the
    /// source model's `predict` per row.
    pub fn predict_batch(&self, x: &ColMatrix) -> Vec<f64> {
        match self {
            CompiledRegressor::Linear {
                intercept,
                coefficients,
            } => linear_batch(*intercept, coefficients, x),
            CompiledRegressor::Tree(tree) => tree.predict_batch(x),
            CompiledRegressor::Forest(forest) => forest.predict_batch(x),
        }
    }

    /// Compile tree-shaped models to their quantized programs (see
    /// [`crate::kernel`]); linear models are already branch-free.
    pub fn optimize(&self) -> bool {
        match self {
            CompiledRegressor::Linear { .. } => true,
            CompiledRegressor::Tree(tree) => tree.optimize(),
            CompiledRegressor::Forest(forest) => forest.optimize(),
        }
    }

    /// The active compiled program, if this is a tree-shaped model whose
    /// `optimize` succeeded.
    pub(crate) fn program(&self) -> Option<&crate::kernel::ForestProgram> {
        match self {
            CompiledRegressor::Linear { .. } => None,
            CompiledRegressor::Tree(tree) => tree.program(),
            CompiledRegressor::Forest(forest) => forest.program(),
        }
    }

    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            CompiledRegressor::Linear {
                intercept,
                coefficients,
            } => {
                w.put_u8(0);
                w.put_f64(*intercept);
                w.put_f64s(coefficients);
            }
            CompiledRegressor::Tree(tree) => {
                w.put_u8(1);
                tree.encode(w);
            }
            CompiledRegressor::Forest(forest) => {
                w.put_u8(2);
                forest.encode(w);
            }
        }
    }

    pub fn decode(r: &mut ByteReader) -> Result<CompiledRegressor, String> {
        match r.get_u8()? {
            0 => Ok(CompiledRegressor::Linear {
                intercept: r.get_f64()?,
                coefficients: r.get_f64s()?,
            }),
            1 => Ok(CompiledRegressor::Tree(FlatTree::decode(r)?)),
            2 => Ok(CompiledRegressor::Forest(FlatForest::decode(r)?)),
            tag => Err(format!("unknown compiled-regressor tag {tag}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestConfig, RandomForest, RandomForestRegressor};
    use crate::knn::Knn;
    use crate::logreg::LogisticRegression;
    use crate::nb::GaussianNb;
    use crate::tree::{DecisionTree, RegressionTree};
    use crate::{Classifier, Regressor};

    /// Deterministic pseudo-random rows (splitmix64-flavoured), sized to
    /// cross several block boundaries.
    fn synth_rows(n: usize, cols: usize, salt: u64) -> Vec<Vec<f64>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt | 1);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        (0..n)
            .map(|_| (0..cols).map(|_| next() * 10.0 - 5.0).collect())
            .collect()
    }

    fn labels_of(rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| (r[0] + r[1] > 0.0) as usize).collect()
    }

    fn assert_batch_matches_rowwise(model: &dyn Classifier, rows: &[Vec<f64>]) {
        let x = ColMatrix::from_rows(rows);
        let batch = model.predict_batch(&x);
        assert_eq!(batch.len(), rows.len());
        for (row, got) in rows.iter().zip(&batch) {
            assert_eq!(
                got.to_bits(),
                model.predict_proba(row).to_bits(),
                "batched prediction diverged"
            );
        }
    }

    #[test]
    fn forest_batch_is_bit_identical_across_blocks() {
        // 150 rows: two full 64-row blocks plus a 22-row tail.
        let rows = synth_rows(150, 7, 3);
        let y = labels_of(&rows);
        let mut f = RandomForest::new();
        f.fit(&rows, &y);
        assert_batch_matches_rowwise(&f, &rows);
    }

    #[test]
    fn every_classifier_batch_is_bit_identical() {
        let rows = synth_rows(97, 5, 11);
        let y = labels_of(&rows);
        let models: Vec<Box<dyn Classifier>> = vec![
            Box::new(RandomForest::new()),
            Box::new(DecisionTree::new()),
            Box::new(LogisticRegression::new()),
            Box::new(GaussianNb::new()),
            Box::new(Knn::new(5)),
        ];
        for mut model in models {
            model.fit(&rows, &y);
            assert_batch_matches_rowwise(model.as_ref(), &rows);
        }
    }

    #[test]
    fn regressor_batches_are_bit_identical() {
        let rows = synth_rows(80, 4, 7);
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[2] + 0.5).collect();
        let x = ColMatrix::from_rows(&rows);

        let mut forest = RandomForestRegressor::new();
        forest.fit(&rows, &y);
        let mut tree = RegressionTree::new();
        tree.fit(&rows, &y);
        let mut linear = crate::linreg::LinearRegression::new();
        linear.fit(&rows, &y);

        let batch = forest.compile().unwrap().predict_batch(&x);
        for (row, got) in rows.iter().zip(&batch) {
            assert_eq!(got.to_bits(), Regressor::predict(&forest, row).to_bits());
        }
        let batch = tree.compile().unwrap().predict_batch(&x);
        for (row, got) in rows.iter().zip(&batch) {
            assert_eq!(got.to_bits(), Regressor::predict(&tree, row).to_bits());
        }
        let batch = linear.compile().unwrap().predict_batch(&x);
        for (row, got) in rows.iter().zip(&batch) {
            assert_eq!(got.to_bits(), Regressor::predict(&linear, row).to_bits());
        }
    }

    #[test]
    fn compiled_roundtrip_through_bytes() {
        let rows = synth_rows(60, 4, 23);
        let y = labels_of(&rows);
        let mut f = RandomForest::with_config(ForestConfig {
            n_trees: 7,
            ..Default::default()
        });
        f.fit(&rows, &y);
        let compiled = f.compile().unwrap();
        let mut w = ByteWriter::new();
        compiled.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = CompiledClassifier::decode(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(compiled, decoded);
    }

    #[test]
    fn unfitted_models_compile_to_defaults() {
        let x = ColMatrix::from_rows(&synth_rows(10, 3, 1));
        let f = RandomForest::new();
        assert!(f
            .compile()
            .unwrap()
            .predict_batch(&x)
            .iter()
            .all(|&p| p == 0.5));
        let t = DecisionTree::new();
        assert!(t
            .compile()
            .unwrap()
            .predict_batch(&x)
            .iter()
            .all(|&p| p == 0.5));
        let r = RandomForestRegressor::new();
        assert!(r
            .compile()
            .unwrap()
            .predict_batch(&x)
            .iter()
            .all(|&p| p == 0.0));
    }

    #[test]
    fn zero_width_matrix_scores_leaf_defaults() {
        let rows: Vec<Vec<f64>> = vec![vec![]; 5];
        let x = ColMatrix::from_rows(&rows);
        let mut t = DecisionTree::new();
        t.fit(&synth_rows(20, 2, 9), &labels_of(&synth_rows(20, 2, 9)));
        let batch = t.predict_batch(&x);
        assert_eq!(batch.len(), 5);
        for (got, row) in batch.iter().zip(&rows) {
            assert_eq!(got.to_bits(), t.predict_proba(row).to_bits());
        }
    }

    #[test]
    fn empty_forest_roundtrips_and_scores_empty_value() {
        // A forest with zero voting trees (never produced by `fit`, but
        // legal on the wire) must round-trip and score its empty default
        // rather than dividing by a zero tree count.
        let forest = flatten_forest(std::iter::empty(), 0.5);
        assert_eq!(forest.n_trees(), 0);
        let mut w = ByteWriter::new();
        CompiledClassifier::Forest(forest.clone()).encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = CompiledClassifier::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded, CompiledClassifier::Forest(forest));
        let x = ColMatrix::from_rows(&synth_rows(9, 3, 5));
        assert!(decoded.predict_batch(&x).iter().all(|&p| p == 0.5));
    }

    #[test]
    fn single_leaf_tree_roundtrips_and_scores_constant() {
        // The smallest legal tree: one self-looping leaf. Must survive
        // the wire and predict its constant for wide and zero-width rows.
        let tree = flatten_tree(None, 0.25);
        assert_eq!(tree.n_nodes(), 1);
        let mut w = ByteWriter::new();
        CompiledRegressor::Tree(tree.clone()).encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = CompiledRegressor::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded, CompiledRegressor::Tree(tree));
        let wide = ColMatrix::from_rows(&synth_rows(70, 4, 13));
        assert!(decoded.predict_batch(&wide).iter().all(|&p| p == 0.25));
        let empty = ColMatrix::from_rows(&vec![vec![]; 3]);
        assert!(decoded.predict_batch(&empty).iter().all(|&p| p == 0.25));
    }

    #[test]
    fn nan_thresholds_decode_and_score_without_panicking() {
        // A NaN *leaf value* (stored in the threshold slot) is legal and
        // must flow through scoring as NaN.
        let mut w = ByteWriter::new();
        w.put_u8(1); // tree tag
        w.put_u32s(&[LEAF]);
        w.put_f64s(&[f64::NAN]);
        w.put_u32s(&[0]);
        w.put_u32s(&[0]);
        let bytes = w.into_bytes();
        let decoded = CompiledClassifier::decode(&mut ByteReader::new(&bytes)).unwrap();
        let x = ColMatrix::from_rows(&synth_rows(5, 2, 17));
        assert!(decoded.predict_batch(&x).iter().all(|p| p.is_nan()));

        // A NaN *split threshold*: `v <= NaN` is false for every v, so
        // both the row walk and the lockstep kernel must take the right
        // branch — deterministically, with no panic.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u32s(&[0, LEAF, LEAF]);
        w.put_f64s(&[f64::NAN, 1.0, 2.0]);
        w.put_u32s(&[1, 1, 2]);
        w.put_u32s(&[2, 1, 2]);
        let bytes = w.into_bytes();
        let decoded = CompiledClassifier::decode(&mut ByteReader::new(&bytes)).unwrap();
        // Enough rows to exercise the blocked kernel, not just the tail.
        let x = ColMatrix::from_rows(&synth_rows(130, 3, 19));
        assert!(decoded.predict_batch(&x).iter().all(|&p| p == 2.0));
    }

    #[test]
    fn every_truncation_of_a_compiled_model_fails_decode() {
        let rows = synth_rows(40, 3, 29);
        let y = labels_of(&rows);
        let mut f = RandomForest::with_config(ForestConfig {
            n_trees: 3,
            ..Default::default()
        });
        f.fit(&rows, &y);
        let mut w = ByteWriter::new();
        f.compile().unwrap().encode(&mut w);
        let bytes = w.into_bytes();
        // Every proper prefix must error — never panic, never succeed
        // (success on a prefix would mean trailing fields are ignored).
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                CompiledClassifier::decode(&mut r).is_err(),
                "decode succeeded on a {cut}-byte truncation"
            );
        }
    }

    #[test]
    fn corrupt_tables_fail_decode() {
        let mut w = ByteWriter::new();
        w.put_u8(1); // tree tag
        w.put_u32s(&[3]); // one split node referencing children 9/9
        w.put_f64s(&[0.0]);
        w.put_u32s(&[9]);
        w.put_u32s(&[9]);
        let bytes = w.into_bytes();
        assert!(CompiledClassifier::decode(&mut ByteReader::new(&bytes)).is_err());

        assert!(CompiledClassifier::decode(&mut ByteReader::new(&[250])).is_err());
    }
}
