//! Batched inference: flattened models and their batch scoring engine.
//!
//! Training produces pointer-linked `Box` trees that score one row at a
//! time — every node visit chases a heap pointer, and scoring a corpus
//! re-walks that scattered memory once per row. `compile()` turns each
//! trained model into a [`CompiledClassifier`]/[`CompiledRegressor`]:
//! trees become struct-of-arrays node tables ([`FlatTree`] — `feature`,
//! `threshold`, `right` as parallel vectors, 16 bytes a node, leaf
//! values stored inline in the `threshold` slot under a `u32::MAX`
//! feature sentinel, every split's left child the next node in
//! preorder), and a whole forest shares one node table ([`FlatForest`]).
//! Tables are built at their exact size: the boxed tree is counted
//! before it is flattened.
//!
//! Tree models batch-score through one engine, the compiled program of
//! [`crate::kernel`]: its mask walk runs every block of at least
//! `MASK_MIN_ROWS` rows and every block of a forest with a tree deeper
//! than the unroll limit, and its depth-unrolled ladders run the shorter
//! blocks of shallow forests. The program is compiled on the first
//! `predict_batch` or `attribute_batch` and cached on the model
//! (`optimize()` does the same eagerly). The scalar row walk
//! ([`FlatTree::score_from`]) is the one fallback — for matrices too
//! narrow for the table's splits and for tables `compile` refuses — and
//! the reference the tests compare the programs against. Linear, naive-Bayes and k-NN models get columnar
//! batch loops with the same accumulation order as their row-major
//! `predict_proba`.
//!
//! **Every batched prediction is bit-identical to the boxed per-row
//! path**: traversals make the same `value <= threshold` decisions with
//! the same missing-feature default, and every floating-point fold (tree
//! sums, dot products, log-likelihoods, neighbour votes) runs in the
//! same element order as the row-major original.
//!
//! Compiled models also (de)serialize through the serde-free
//! [`bytes`](crate::bytes) codec, so a trained battery can be saved once
//! and reloaded for repeated scoring runs.

use crate::bytes::{ByteReader, ByteWriter};
use crate::dataset::ColMatrix;
use crate::kernel::ForestProgram;
use crate::tree::Node;
use std::sync::OnceLock;

/// Feature sentinel marking a leaf node; the leaf value lives in the
/// node's `threshold` slot.
pub(crate) const LEAF: u32 = u32::MAX;

/// Apply `f` to every row of `x`, gathered into one reused row buffer —
/// the scalar fallback's row loop.
pub(crate) fn map_rows<T>(x: &ColMatrix, mut f: impl FnMut(&[f64]) -> T) -> Vec<T> {
    let mut row = vec![0.0; x.n_cols()];
    (0..x.n_rows())
        .map(|i| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = x.value(i, j);
            }
            f(&row)
        })
        .collect()
}

/// A decision or regression tree flattened into parallel node arrays.
///
/// Node 0 is the root; a compiled tree always has at least one node (an
/// unfitted tree compiles to a single leaf holding its default value).
/// Nodes sit in preorder, so a split `i`'s left child is always `i + 1`
/// and only the right child is stored. The wire format still carries a
/// `left` array (`i + 1` for splits, `i` for leaves): encode writes it
/// and decode rejects any table that breaks the invariant.
#[derive(Debug, Clone, Default)]
pub struct FlatTree {
    pub(crate) feature: Vec<u32>,
    /// Leaf values in their leaf slots — the one value table every
    /// engine reads.
    pub(crate) threshold: Vec<f64>,
    /// Each split's right child; a leaf holds its own id.
    pub(crate) right: Vec<u32>,
    /// The compiled program, built on first batch use or by
    /// [`optimize`](Self::optimize); `None` inside means `compile`
    /// refused and the scalar row walk stays in charge.
    opt: OnceLock<Option<Box<ForestProgram>>>,
}

/// The derived program (`opt`) is excluded: it is a function of the
/// node table.
impl PartialEq for FlatTree {
    fn eq(&self, other: &Self) -> bool {
        self.feature == other.feature
            && self.threshold == other.threshold
            && self.right == other.right
    }
}

impl FlatTree {
    /// An empty table with room for exactly `n` nodes.
    fn with_capacity(n: usize) -> FlatTree {
        FlatTree {
            feature: Vec::with_capacity(n),
            threshold: Vec::with_capacity(n),
            right: Vec::with_capacity(n),
            opt: OnceLock::new(),
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Leaves self-loop (`right == i`), the wire invariant `validate`
    /// enforces.
    fn push_leaf(&mut self, value: f64) -> u32 {
        let i = self.feature.len() as u32;
        self.feature.push(LEAF);
        self.threshold.push(value);
        self.right.push(i);
        i
    }

    /// Preorder-flatten `node`, returning its index. The left subtree
    /// lands right after its split, at `i + 1`.
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
                self.right.push(0);
                self.push_node(left);
                let r = self.push_node(right);
                self.right[i as usize] = r;
                i
            }
        }
    }

    /// Walk from node `root` for one row — the scalar fallback and the
    /// reference the compiled programs are tested against. Same
    /// comparison and missing-feature default as the boxed
    /// `Node::predict`, so results are bit-identical (NaN features
    /// included: `NaN <= t` is false on both paths, taking the right
    /// branch).
    #[inline]
    pub(crate) fn score_from(&self, root: u32, row: &[f64]) -> f64 {
        let mut i = root as usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.threshold[i];
            }
            let v = row.get(f as usize).copied().unwrap_or(0.0);
            i = if v <= self.threshold[i] {
                i + 1
            } else {
                self.right[i] as usize
            };
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
                depth[i] = 1 + depth[i + 1].max(depth[self.right[i] as usize]);
            }
        }
        depth
    }

    /// Compile this tree's program (a single-tree forest in kernel
    /// terms) now instead of on first batch use. Idempotent. Returns
    /// whether a compiled program is active (`false`: `compile` refused
    /// and batches take the scalar row walk).
    pub fn optimize(&self) -> bool {
        self.program().is_some()
    }

    /// The compiled program, built on first call.
    pub(crate) fn program(&self) -> Option<&ForestProgram> {
        self.opt
            .get_or_init(|| ForestProgram::compile(self, &[0]).map(Box::new))
            .as_deref()
    }

    /// The program that batch-scores `x`, or `None` when the scalar row
    /// walk must.
    pub(crate) fn batch_program(&self, x: &ColMatrix) -> Option<&ForestProgram> {
        self.program().filter(|prog| prog.fits(x))
    }

    /// Score every row of `x` through the compiled program, or the
    /// scalar row walk where the program cannot run.
    pub fn predict_batch(&self, x: &ColMatrix) -> Vec<f64> {
        match self.batch_program(x) {
            Some(prog) => {
                let mut out = vec![0.0; x.n_rows()];
                prog.walk_batch(x, &self.threshold, &mut |r, _leaf, v| out[r] = v);
                out
            }
            None => map_rows(x, |row| self.score_from(0, row)),
        }
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32s(&self.feature);
        w.put_f64s(&self.threshold);
        // The wire `left`: `i + 1` for a split, `i` for a leaf.
        let left = self.feature.iter().enumerate();
        w.put_u32_iter(
            left.len(),
            left.map(|(i, &f)| i as u32 + u32::from(f != LEAF)),
        );
        w.put_u32s(&self.right);
    }

    /// Decode a wire table. Its `left` array is read only to check it.
    fn decode(r: &mut ByteReader) -> Result<FlatTree, String> {
        let feature = r.get_u32s()?;
        let threshold = r.get_f64s()?;
        let left = r.get_u32s()?;
        let tree = FlatTree {
            feature,
            threshold,
            right: r.get_u32s()?,
            opt: OnceLock::new(),
        };
        tree.validate(&left)?;
        Ok(tree)
    }

    /// Structural sanity: equal-length arrays, at least one node, every
    /// split's wire `left` child at exactly `i + 1` with the right child
    /// in bounds after it (the preorder invariants `node_depths` and the
    /// compiled program's walks rely on, which also rule out cycles),
    /// and every leaf self-looping. A corrupt table must fail at load
    /// time, not loop or index out of bounds mid-traversal.
    fn validate(&self, left: &[u32]) -> Result<(), String> {
        let n = self.feature.len();
        if n == 0 {
            return Err("flat tree has no nodes".into());
        }
        if self.threshold.len() != n || left.len() != n || self.right.len() != n {
            return Err("flat tree arrays disagree on node count".into());
        }
        for (i, &l) in left.iter().enumerate() {
            let (l, r) = (l as usize, self.right[i] as usize);
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

/// Flatten a boxed tree root (`None` = unfitted, which predicts
/// `default_value`).
pub(crate) fn flatten_tree(root: Option<&Node>, default_value: f64) -> FlatTree {
    let mut tree = FlatTree::with_capacity(root.map_or(1, Node::n_nodes));
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
    /// Number of voting trees as `f64` — the division denominator.
    pub(crate) n_trees: f64,
    /// Prediction when the forest has no trees (0.5 classifier, 0.0
    /// regressor), matching the boxed empty-forest guard.
    pub(crate) empty_value: f64,
    /// Attribution's derived view (subtree expectations + per-edge
    /// credits) — a pure function of the node table, built lazily on the
    /// first `attribute_batch`/`attribute_row` so scoring-only
    /// deployments never pay for it (boxed: it must not grow the enum
    /// variants scoring matches on).
    pub(crate) attr: OnceLock<Box<crate::attribution::AttrTables>>,
    /// The compiled program, built on first batch use or by
    /// [`optimize`](Self::optimize); `None` inside means `compile`
    /// refused and the scalar row walk stays in charge.
    opt: OnceLock<Option<Box<ForestProgram>>>,
}

/// Derived caches (`attr`, `opt`) are excluded: they are functions of
/// the node table.
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

    /// Compile the forest's quantized, feature-pruned program (see
    /// [`crate::kernel`]) now instead of on first batch use. Idempotent.
    /// Returns whether a compiled program is active (`false`: `compile`
    /// refused and batches take the scalar row walk).
    pub fn optimize(&self) -> bool {
        self.program().is_some()
    }

    /// The compiled program, built on first call.
    pub(crate) fn program(&self) -> Option<&ForestProgram> {
        self.opt
            .get_or_init(|| ForestProgram::compile(&self.nodes, &self.roots).map(Box::new))
            .as_deref()
    }

    /// The program that batch-scores `x`, or `None` when the scalar row
    /// walk must.
    pub(crate) fn batch_program(&self, x: &ColMatrix) -> Option<&ForestProgram> {
        self.program().filter(|prog| prog.fits(x))
    }

    /// Mean of per-tree predictions for one row, in tree order — the
    /// scalar fallback and reference.
    #[inline]
    pub(crate) fn score_row(&self, row: &[f64]) -> f64 {
        let mut sum = 0.0;
        for &root in &self.roots {
            sum += self.nodes.score_from(root, row);
        }
        sum / self.n_trees
    }

    /// Score every row of `x` through the compiled program, or the
    /// scalar row walk where the program cannot run.
    pub fn predict_batch(&self, x: &ColMatrix) -> Vec<f64> {
        let n = x.n_rows();
        if self.roots.is_empty() {
            return vec![self.empty_value; n];
        }
        let Some(prog) = self.batch_program(x) else {
            return map_rows(x, |row| self.score_row(row));
        };
        // The program fires each row's leaves in forest order — the row
        // walk's fold order — so sums and the final division are
        // bit-identical.
        let mut out = vec![0.0; n];
        // SAFETY: walk_batch only fires rows `< x.n_rows()` = out.len();
        // this sink runs once per (row, tree) and is the single hottest
        // callback in batch scoring.
        prog.walk_batch(x, &self.nodes.threshold, &mut |r, _leaf, v| unsafe {
            *out.get_unchecked_mut(r) += v;
        });
        out.iter_mut().for_each(|o| *o /= self.n_trees);
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
        Ok(FlatForest {
            roots,
            nodes,
            n_trees: r.get_f64()?,
            empty_value: r.get_f64()?,
            attr: Default::default(),
            opt: Default::default(),
        })
    }
}

/// Flatten a forest's trees into one shared node table, counted first
/// so the table is allocated once at its exact size.
pub(crate) fn flatten_forest<'a>(
    trees: impl Iterator<Item = Option<&'a Node>> + Clone,
    empty_value: f64,
) -> FlatForest {
    let n_trees = trees.clone().count();
    let n_nodes: usize = trees.clone().map(|t| t.map_or(1, Node::n_nodes)).sum();
    let mut nodes = FlatTree::with_capacity(n_nodes.max(1));
    let mut roots = Vec::with_capacity(n_trees);
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
    FlatForest {
        n_trees: roots.len() as f64,
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

    /// Compile tree-shaped models to their quantized programs now rather
    /// than on first batch use (see [`crate::kernel`]); other learners
    /// are already branch-free and return `true` unchanged. Returns
    /// whether every program this model could compile is active.
    pub fn optimize(&self) -> bool {
        match self {
            CompiledClassifier::Forest(forest) => forest.optimize(),
            CompiledClassifier::Tree(tree) => tree.optimize(),
            _ => true,
        }
    }

    /// The compiled program (built on first call), if this is a
    /// tree-shaped model whose table compiles.
    pub(crate) fn program(&self) -> Option<&ForestProgram> {
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

/// Link every tree-shaped model of a battery to one shared quantization
/// (the union of their cut tables), so batched scoring ranks each matrix
/// once per call instead of once per model — see [`crate::kernel`].
/// Compiles any program not built yet; models without one (non-tree
/// learners, tables `compile` refuses) simply don't participate. Idempotent, and a no-op when the merged
/// tables would not quantize losslessly.
pub fn link_battery<'a>(
    classifiers: impl IntoIterator<Item = &'a CompiledClassifier>,
    regressors: impl IntoIterator<Item = &'a CompiledRegressor>,
) {
    let programs: Vec<&ForestProgram> = classifiers
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

    /// Compile tree-shaped models to their quantized programs now rather
    /// than on first batch use (see [`crate::kernel`]); linear models are
    /// already branch-free.
    pub fn optimize(&self) -> bool {
        match self {
            CompiledRegressor::Linear { .. } => true,
            CompiledRegressor::Tree(tree) => tree.optimize(),
            CompiledRegressor::Forest(forest) => forest.optimize(),
        }
    }

    /// The compiled program (built on first call), if this is a
    /// tree-shaped model whose table compiles.
    pub(crate) fn program(&self) -> Option<&ForestProgram> {
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

    /// The compiled batch against the boxed model's per-row
    /// `predict_proba`.
    fn assert_batch_matches_rowwise(model: &dyn Classifier, rows: &[Vec<f64>]) {
        let x = ColMatrix::from_rows(rows);
        let batch = model.compile().expect("compiles").predict_batch(&x);
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
    fn first_batch_call_compiles_the_program() {
        // A compiled model that never ran `optimize()` still batch-scores
        // through its program: the first batch call builds it.
        let rows = synth_rows(40, 4, 31);
        let y = labels_of(&rows);
        let x = ColMatrix::from_rows(&rows);
        let compiled =
            |opt: &OnceLock<Option<Box<ForestProgram>>>| opt.get().is_some_and(|p| p.is_some());

        let mut f = RandomForest::new();
        f.fit(&rows, &y);
        let Some(CompiledClassifier::Forest(forest)) = f.compile() else {
            panic!("forests compile to a flat forest");
        };
        assert!(!compiled(&forest.opt));
        forest.predict_batch(&x);
        assert!(compiled(&forest.opt));

        let mut t = DecisionTree::new();
        t.fit(&rows, &y);
        let tree = t.compile().unwrap();
        let CompiledClassifier::Tree(flat) = &tree else {
            panic!("trees compile to a flat tree");
        };
        assert!(!compiled(&flat.opt));
        tree.attribute_batch(&x);
        assert!(compiled(&flat.opt));
    }

    #[test]
    fn zero_width_matrix_scores_leaf_defaults() {
        let rows: Vec<Vec<f64>> = vec![vec![]; 5];
        let x = ColMatrix::from_rows(&rows);
        let mut t = DecisionTree::new();
        t.fit(&synth_rows(20, 2, 9), &labels_of(&synth_rows(20, 2, 9)));
        let batch = t.compile().unwrap().predict_batch(&x);
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
        // both the row walk and the compiled program must take the right
        // branch — deterministically, with no panic.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u32s(&[0, LEAF, LEAF]);
        w.put_f64s(&[f64::NAN, 1.0, 2.0]);
        w.put_u32s(&[1, 1, 2]);
        w.put_u32s(&[2, 1, 2]);
        let bytes = w.into_bytes();
        let decoded = CompiledClassifier::decode(&mut ByteReader::new(&bytes)).unwrap();
        // Enough rows to exercise the mask walk, not just a short block.
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

        // The wire `left` is not stored, only checked: a split whose left
        // child is not the next node, or a leaf that does not self-loop,
        // fails decode even when `right` is sound.
        for left in [[2, 1, 2], [1, 2, 2], [1, 1, 0]] {
            let mut w = ByteWriter::new();
            w.put_u8(1);
            w.put_u32s(&[0, LEAF, LEAF]);
            w.put_f64s(&[0.5, 1.0, 2.0]);
            w.put_u32s(&left);
            w.put_u32s(&[2, 1, 2]);
            let bytes = w.into_bytes();
            assert!(
                CompiledClassifier::decode(&mut ByteReader::new(&bytes)).is_err(),
                "left {left:?} decoded"
            );
        }

        assert!(CompiledClassifier::decode(&mut ByteReader::new(&[250])).is_err());
    }
}
