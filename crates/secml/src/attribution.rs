//! Exact per-feature attribution for compiled models.
//!
//! For every scored row this module answers "*which columns moved the
//! prediction, and by how much*" with a Saabas-style path decomposition:
//! walking a flattened tree from the root, each split reassigns the
//! expected leaf value from the parent's subtree to the taken child's,
//! and that change is credited to the split feature. Summed over a
//! forest and divided by the tree count, the credits decompose the
//! prediction around a per-model baseline (the leaf-count-weighted
//! expectation of the empty query). Linear and logistic models decompose
//! their margin into `weight × value` terms, gaussian NB into per-feature
//! class-1-minus-class-0 log-likelihood terms; k-NN has no additive
//! structure and degrades to an all-baseline attribution.
//!
//! **The invariant is bitwise, not approximate**: folding
//! `baseline + c_0 + c_1 + …` in column order reproduces
//! [`RowAttribution::score`] exactly, and `score`/`prediction` are
//! bit-identical to what [`CompiledClassifier::predict_batch`] /
//! [`CompiledRegressor::predict_batch`] emit for the same row. Floating
//! point addition is not associative, so raw path credits only sum to
//! the prediction within rounding; [`exactify`] closes the gap by
//! folding the residual into the last nonzero credit (a few-ulp nudge on
//! a feature that already dominates), which makes the invariant hold by
//! construction for every model family, worker count, and block size.
//!
//! Tree attribution is batched exactly like scoring: rows are gathered
//! by [`for_each_block`] into the same row-major scratch layout, and
//! every tree walks all [`BLOCK_ROWS`] rows via the packed
//! [`KernelTables`] before the next tree starts. Crediting is split off
//! the descent so the hot loop stays the scoring kernel verbatim
//! (branch-free, leaf-blind, four loads and a select per step): each
//! edge's credit `E[child] − E[parent]` depends only on the child
//! reached, so it is precomputed per node ([`Credits`]) and deposited by
//! a short parent-pointer walk *up* from the landed leaf — actual path
//! length, not padded max depth, and no per-step leaf test. Per row,
//! credits accumulate in the same (tree-major, leaf-to-root) order as
//! the scalar walk, so batched and scalar attributions are bit-identical.

use crate::dataset::ColMatrix;
use crate::infer::{
    for_each_block, sq_dist, CompiledClassifier, CompiledRegressor, FlatForest, FlatTree,
    KernelTables, BLOCK_ROWS, LANES, LEAF,
};

/// One row's decomposed prediction.
///
/// `contributions[j]` is column `j`'s credit in *score space* (the
/// prediction itself for trees, forests and linear regression; the
/// pre-sigmoid margin for logistic regression; the class-1-vs-class-0
/// log-odds margin for gaussian NB). Folding `baseline` plus the
/// contributions in column order reproduces `score` bit-for-bit (see
/// [`fold`]), and `prediction` is bit-identical to the batched scoring
/// kernels' output for the same row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowAttribution {
    /// Expected score of the empty query (model-only prior).
    pub baseline: f64,
    /// Per-column credits; `baseline + Σ contributions == score` bitwise.
    pub contributions: Vec<f64>,
    /// The decomposed quantity: the model's score-space output.
    pub score: f64,
    /// The model's prediction, bit-identical to `predict_batch`.
    pub prediction: f64,
}

impl RowAttribution {
    /// An attribution with no feature credits: baseline, score and
    /// prediction all equal `value`. Used for models (or inputs) without
    /// additive structure — empty forests, unfitted NB, k-NN.
    fn constant(value: f64, width: usize) -> RowAttribution {
        RowAttribution {
            baseline: value,
            contributions: vec![exact_zero(value); width],
            score: value,
            prediction: value,
        }
    }
}

/// The canonical verification fold: `baseline + c_0 + c_1 + …` in
/// column order, one rounding per addition.
pub fn fold(baseline: f64, contributions: &[f64]) -> f64 {
    let mut acc = baseline;
    for &c in contributions {
        acc += c;
    }
    acc
}

/// A zero that keeps `value + 0 == value` bitwise: `-0.0 + 0.0` is
/// `+0.0`, so a negative-zero target needs negative-zero padding.
fn exact_zero(target: f64) -> f64 {
    if target == 0.0 && target.is_sign_negative() {
        -0.0
    } else {
        0.0
    }
}

/// Step `x` one representable value toward `+∞` (`up`) or `-∞`.
fn next_toward(x: f64, up: bool) -> f64 {
    if x == 0.0 {
        let tiny = f64::from_bits(1);
        return if up { tiny } else { -tiny };
    }
    let bits = x.to_bits();
    let bits = if (x > 0.0) == up { bits + 1 } else { bits - 1 };
    f64::from_bits(bits)
}

/// Force `fold(baseline, bins) == target` *bitwise* by absorbing the
/// floating-point residual into the last nonzero bin (or the baseline
/// when every bin is zero).
///
/// The correction slot is the last nonzero bin, so the fold past it only
/// adds exact zeros and the problem reduces to one addition:
/// `prefix + bins[slot] == target`. A Newton step
/// (`bins[slot] += target − fold`) lands exactly whenever the residual
/// subtraction is exact (Sterbenz: always, once the fold is within a
/// factor of two of the target — i.e. after at most one step in the
/// common case); the ulp walk covers the remaining rounding cases, and
/// a degenerate all-baseline attribution guarantees the invariant even
/// for non-finite targets (NaN leaves, overflowing margins).
fn exactify(baseline: &mut f64, bins: &mut [f64], target: f64) {
    if fold(*baseline, bins).to_bits() == target.to_bits() {
        return;
    }
    if target.is_finite() {
        let slot = bins.iter().rposition(|&b| b != 0.0);
        for _ in 0..32 {
            let f = fold(*baseline, bins);
            if f.to_bits() == target.to_bits() {
                return;
            }
            let adjustment = target - f;
            if !adjustment.is_finite() {
                break;
            }
            match slot {
                Some(j) => bins[j] += adjustment,
                None => *baseline += adjustment,
            }
        }
        for _ in 0..256 {
            let f = fold(*baseline, bins);
            if f.to_bits() == target.to_bits() {
                return;
            }
            if !f.is_finite() || f == target {
                break; // ±0 sign mismatch: ulp steps cannot fix it
            }
            let up = f < target;
            match slot {
                Some(j) => bins[j] = next_toward(bins[j], up),
                None => *baseline = next_toward(*baseline, up),
            }
        }
    }
    // Last resort: give the whole score to the baseline. Exact for any
    // target, including NaN and signed zeros.
    *baseline = target;
    let zero = exact_zero(target);
    bins.iter_mut().for_each(|b| *b = zero);
}

/// Leaf-count-weighted expected value of every subtree, via the same
/// reverse pass as `node_depths` (children follow their parent in the
/// preorder table, so suffix values are final when read). Flat tables
/// carry no training cover counts, so every leaf weighs 1 — the
/// expectation of a uniformly random root-to-leaf descent.
fn subtree_expected(tree: &FlatTree) -> Vec<f64> {
    let n = tree.feature.len();
    let mut expected = vec![0.0f64; n];
    let mut leaves = vec![0u64; n];
    for i in (0..n).rev() {
        if tree.feature[i] == LEAF {
            expected[i] = tree.threshold[i];
            leaves[i] = 1;
        } else {
            let (l, r) = (tree.left[i] as usize, tree.right[i] as usize);
            let (cl, cr) = (leaves[l], leaves[r]);
            leaves[i] = cl + cr;
            expected[i] = (expected[l] * cl as f64 + expected[r] * cr as f64) / (cl + cr) as f64;
        }
    }
    expected
}

/// A forest's derived attribution view, cached on [`FlatForest`] after
/// the first use: per-subtree expectations (baseline inputs) and the
/// per-edge credit tables.
#[derive(Debug, Clone)]
pub(crate) struct AttrTables {
    expected: Vec<f64>,
    credits: Credits,
}

impl FlatForest {
    fn attr_tables(&self) -> &AttrTables {
        self.attr.get_or_init(|| {
            let expected = subtree_expected(&self.nodes);
            let credits = Credits::build(&self.nodes, &expected);
            Box::new(AttrTables { expected, credits })
        })
    }
}

/// Per-edge credit tables for the leaf-to-root deposit walk. A preorder
/// flat tree gives every node a unique parent, so the credit a row earns
/// at a node — `E[node] − E[parent]`, owed to the parent's split feature
/// — is a per-node constant. Precomputing it turns attribution into the
/// *scoring* descent (branch-free, leaf-blind) plus a parent-pointer
/// walk up from the landed leaf that runs for the actual path length.
#[derive(Debug, Clone)]
struct Credits {
    /// `parent[i]` is `i`'s parent; roots point at themselves (the
    /// up-walk's stop condition).
    parent: Vec<u32>,
    /// The parent split's feature — which bin `delta` belongs to.
    feat: Vec<u32>,
    /// `expected[i] − expected[parent[i]]`; `0.0` at roots (never read).
    delta: Vec<f64>,
}

impl Credits {
    fn build(tree: &FlatTree, expected: &[f64]) -> Credits {
        let n = tree.feature.len();
        let mut credits = Credits {
            parent: (0..n as u32).collect(),
            feat: vec![0; n],
            delta: vec![0.0; n],
        };
        for i in 0..n {
            if tree.feature[i] == LEAF {
                continue;
            }
            for child in [tree.left[i] as usize, tree.right[i] as usize] {
                credits.parent[child] = i as u32;
                credits.feat[child] = tree.feature[i];
                credits.delta[child] = expected[child] - expected[i];
            }
        }
        credits
    }

    /// Deposit the path credits for the row that landed on `leaf`,
    /// leaf-edge first. Credits to features outside `bins` are dropped
    /// (narrow-row fallback) — `exactify` re-absorbs them.
    #[inline]
    fn deposit(&self, leaf: usize, bins: &mut [f64]) {
        let mut i = leaf;
        loop {
            let p = self.parent[i] as usize;
            if p == i {
                return;
            }
            if let Some(bin) = bins.get_mut(self.feat[i] as usize) {
                *bin += self.delta[i];
            }
            i = p;
        }
    }
}

/// Walk one tree for one row — the same branches as `score_from`
/// (missing features read 0.0, `NaN <= t` goes right) — then deposit the
/// path's credits and return the leaf value.
fn attribute_walk_row(
    nodes: &FlatTree,
    credits: &Credits,
    root: u32,
    row: &[f64],
    bins: &mut [f64],
) -> f64 {
    let mut i = root as usize;
    loop {
        let f = nodes.feature[i];
        if f == LEAF {
            credits.deposit(i, bins);
            return nodes.threshold[i];
        }
        let v = row.get(f as usize).copied().unwrap_or(0.0);
        i = if v <= nodes.threshold[i] {
            nodes.left[i]
        } else {
            nodes.right[i]
        } as usize;
    }
}

/// The blocked attribution kernel: one tree over every row of a
/// row-major block (a [`LANES`] multiple, as [`for_each_block`]
/// guarantees). The descent is the scoring kernel's verbatim — lanes
/// advance in lockstep through the packed [`KernelTables`] with no leaf
/// test (a finished lane self-loops under the `NaN` rule) — and each
/// lane's credits are then deposited by [`Credits::deposit`] from the
/// landed leaf, in the same per-row order as [`attribute_walk_row`].
/// `bins` is row-major (`width` per row);
/// `leaf_sink(row_in_block, leaf_value)` fires once per lane, including
/// for padding rows the caller must ignore (their bins are overwritten
/// or discarded, so crediting them is harmless).
#[allow(clippy::too_many_arguments)]
fn attribute_walk_block(
    nodes: &FlatTree,
    kt: &KernelTables,
    credits: &Credits,
    root: u32,
    depth: u32,
    block: &[f64],
    width: usize,
    bins: &mut [f64],
    leaf_sink: &mut impl FnMut(usize, f64),
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
            leaf_sink(base + l, nodes.threshold[i]);
            credits.deposit(i, &mut bins[(base + l) * width..(base + l + 1) * width]);
        }
        base += LANES;
    }
}

/// Exactified attribution from raw credits: `score` becomes the fold
/// target, `prediction` is supplied by the caller (identical to `score`
/// for identity-link models).
fn finish_additive(
    mut baseline: f64,
    mut contributions: Vec<f64>,
    target: f64,
    prediction: f64,
) -> RowAttribution {
    exactify(&mut baseline, &mut contributions, target);
    RowAttribution {
        baseline,
        contributions,
        score: target,
        prediction,
    }
}

/// Scalar forest attribution for one row: every tree walked in order,
/// leaf values folded like `score_row`, credits and baseline divided by
/// the tree count bin-by-bin.
fn forest_attribute_row(
    forest: &FlatForest,
    expected: &[f64],
    credits: &Credits,
    row: &[f64],
    width: usize,
) -> RowAttribution {
    let mut bins = vec![0.0f64; width];
    let mut sum = 0.0;
    for &root in &forest.roots {
        sum += attribute_walk_row(&forest.nodes, credits, root, row, &mut bins);
    }
    finish_forest_row(forest, expected, &bins, sum)
}

fn finish_forest_row(
    forest: &FlatForest,
    expected: &[f64],
    raw_bins: &[f64],
    leaf_sum: f64,
) -> RowAttribution {
    let mut root_sum = 0.0;
    for &root in &forest.roots {
        root_sum += expected[root as usize];
    }
    let baseline = root_sum / forest.n_trees;
    let contributions: Vec<f64> = raw_bins.iter().map(|&b| b / forest.n_trees).collect();
    let target = leaf_sum / forest.n_trees;
    finish_additive(baseline, contributions, target, target)
}

/// Batched forest attribution with the same block/fallback structure as
/// `FlatForest::predict_batch`: empty forests yield constant
/// attributions, zero-width or too-narrow matrices take the scalar row
/// walk, everything else the blocked kernel.
fn forest_attribute_batch(forest: &FlatForest, x: &ColMatrix) -> Vec<RowAttribution> {
    let n = x.n_rows();
    let width = x.n_cols();
    if forest.roots.is_empty() {
        return (0..n)
            .map(|_| RowAttribution::constant(forest.empty_value, width))
            .collect();
    }
    let at = forest.attr_tables();
    let (expected, credits) = (at.expected.as_slice(), &at.credits);
    if width == 0 || forest.nodes.max_feature() as usize >= width {
        let mut row = vec![0.0; width];
        return (0..n)
            .map(|i| {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = x.value(i, j);
                }
                forest_attribute_row(forest, expected, credits, &row, width)
            })
            .collect();
    }
    if let Some(prog) = forest.program() {
        // The compiled program lands on the same leaf ids in the same
        // per-row tree order, so deposits and leaf sums — and therefore
        // every attribution — are bit-identical to the interpreter.
        let mut bins = vec![0.0f64; n * width];
        let mut sums = vec![0.0f64; n];
        prog.walk_batch(x, &mut |r, leaf, v| {
            sums[r] += v;
            credits.deposit(leaf as usize, &mut bins[r * width..(r + 1) * width]);
        });
        return (0..n)
            .map(|r| {
                finish_forest_row(forest, expected, &bins[r * width..(r + 1) * width], sums[r])
            })
            .collect();
    }
    let mut out = Vec::with_capacity(n);
    let mut bins = vec![0.0f64; BLOCK_ROWS * width];
    let mut sums = [0.0f64; BLOCK_ROWS];
    for_each_block(x, |_start, rows, block| {
        let padded = block.len() / width;
        bins[..padded * width].fill(0.0);
        sums[..padded].fill(0.0);
        for (&root, &depth) in forest.roots.iter().zip(&forest.depths) {
            attribute_walk_block(
                &forest.nodes,
                forest.nodes.kernel_tables(),
                credits,
                root,
                depth,
                block,
                width,
                &mut bins,
                &mut |r, v| sums[r] += v,
            );
        }
        for r in 0..rows {
            out.push(finish_forest_row(
                forest,
                expected,
                &bins[r * width..(r + 1) * width],
                sums[r],
            ));
        }
    });
    out
}

/// Scalar single-tree attribution: the leaf value *is* the prediction.
fn tree_attribute_row(
    tree: &FlatTree,
    expected: &[f64],
    credits: &Credits,
    row: &[f64],
    width: usize,
) -> RowAttribution {
    let mut bins = vec![0.0f64; width];
    let leaf = attribute_walk_row(tree, credits, 0, row, &mut bins);
    finish_additive(expected[0], bins, leaf, leaf)
}

/// Batched single-tree attribution, mirroring `FlatTree::predict_batch`'s
/// fallback structure.
fn tree_attribute_batch(tree: &FlatTree, x: &ColMatrix) -> Vec<RowAttribution> {
    let n = x.n_rows();
    let width = x.n_cols();
    let expected = subtree_expected(tree);
    let credits = Credits::build(tree, &expected);
    if width == 0 {
        return (0..n)
            .map(|_| tree_attribute_row(tree, &expected, &credits, &[], 0))
            .collect();
    }
    if tree.max_feature() as usize >= width {
        let mut row = vec![0.0; width];
        return (0..n)
            .map(|i| {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = x.value(i, j);
                }
                tree_attribute_row(tree, &expected, &credits, &row, width)
            })
            .collect();
    }
    if let Some(prog) = tree.program() {
        let mut bins = vec![0.0f64; n * width];
        let mut leaves = vec![0.0f64; n];
        prog.walk_batch(x, &mut |r, leaf, v| {
            leaves[r] = v;
            credits.deposit(leaf as usize, &mut bins[r * width..(r + 1) * width]);
        });
        return (0..n)
            .map(|r| {
                finish_additive(
                    expected[0],
                    bins[r * width..(r + 1) * width].to_vec(),
                    leaves[r],
                    leaves[r],
                )
            })
            .collect();
    }
    let kt = tree.kernel_tables();
    let depth = tree.node_depths()[0];
    let mut out = Vec::with_capacity(n);
    let mut bins = vec![0.0f64; BLOCK_ROWS * width];
    let mut leaves = [0.0f64; BLOCK_ROWS];
    for_each_block(x, |_start, rows, block| {
        let padded = block.len() / width;
        bins[..padded * width].fill(0.0);
        attribute_walk_block(
            tree,
            kt,
            &credits,
            0,
            depth,
            block,
            width,
            &mut bins,
            &mut |r, v| leaves[r] = v,
        );
        for r in 0..rows {
            let leaf = leaves[r];
            out.push(finish_additive(
                expected[0],
                bins[r * width..(r + 1) * width].to_vec(),
                leaf,
                leaf,
            ));
        }
    });
    out
}

/// Linear margin decomposition: `contributions[j] = w_j · x_j`, baseline
/// is the intercept, and the target is folded in `linear_batch`'s order
/// (weights first, intercept last) so it matches the scoring kernel
/// bitwise; `exactify` reconciles the baseline-first verification fold.
fn linear_attribute_row(bias: f64, weights: &[f64], row: &[f64]) -> (f64, Vec<f64>, f64) {
    let mut z = 0.0;
    let mut bins = vec![0.0f64; row.len()];
    for (j, (w, &v)) in weights.iter().zip(row.iter()).enumerate() {
        let term = w * v;
        z += term;
        bins[j] = term;
    }
    z += bias;
    (bias, bins, z)
}

/// Gaussian-NB log-odds decomposition: baseline is the prior log-odds,
/// each feature credits its class-1-minus-class-0 log-likelihood term,
/// and the prediction is recomputed with exactly `nb_batch`'s fold
/// (priors first, per-feature terms in column order, max-shifted exp).
fn nb_attribute_row(
    log_priors: [f64; 2],
    stats: &[Vec<(f64, f64)>; 2],
    row: &[f64],
) -> RowAttribution {
    let ln_2pi = (2.0 * std::f64::consts::PI).ln();
    let width = row.len();
    let mut ll = [log_priors[0], log_priors[1]];
    let mut terms: Vec<[f64; 2]> = vec![[0.0, 0.0]; width];
    for (class, total) in ll.iter_mut().enumerate() {
        for (&(mean, var), j) in stats[class].iter().zip(0..width) {
            let v = row[j];
            let term = -0.5 * ((v - mean) * (v - mean) / var + var.ln() + ln_2pi);
            *total += term;
            terms[j][class] = term;
        }
    }
    let margin = ll[1] - ll[0];
    let m = ll[0].max(ll[1]);
    let e0 = (ll[0] - m).exp();
    let e1 = (ll[1] - m).exp();
    let prediction = e1 / (e0 + e1);
    let baseline = log_priors[1] - log_priors[0];
    let bins: Vec<f64> = terms.iter().map(|t| t[1] - t[0]).collect();
    finish_additive(baseline, bins, margin, prediction)
}

/// k-NN vote fraction with `knn_batch`'s exact per-row ops. Nearest
/// neighbours have no per-feature additive decomposition, so the whole
/// score sits in the baseline and every contribution is zero — the
/// invariant holds trivially.
fn knn_attribute_row(
    k: usize,
    width: usize,
    train: &[f64],
    labels: &[u32],
    row: &[f64],
) -> RowAttribution {
    let value = if labels.is_empty() {
        0.5
    } else {
        let mut dists: Vec<(f64, u32)> = if width == 0 {
            labels.iter().map(|&l| (0.0, l)).collect()
        } else {
            train
                .chunks_exact(width)
                .zip(labels)
                .map(|(t, &l)| (sq_dist(row, t), l))
                .collect()
        };
        let k = k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let votes: u32 = dists[..k].iter().map(|&(_, l)| l).sum();
        votes as f64 / k as f64
    };
    RowAttribution::constant(value, row.len())
}

/// Gather rows out of `x` and attribute each through `f`.
fn per_row(x: &ColMatrix, mut f: impl FnMut(&[f64]) -> RowAttribution) -> Vec<RowAttribution> {
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

impl CompiledClassifier {
    /// Attribute every row of `x`. Tree-family models run the blocked
    /// kernel (one tree over all rows per block); the rest are cheap
    /// per-row decompositions. Results are bit-identical to
    /// [`attribute_row`](CompiledClassifier::attribute_row) on the same
    /// row, and `prediction` to
    /// [`predict_batch`](CompiledClassifier::predict_batch).
    pub fn attribute_batch(&self, x: &ColMatrix) -> Vec<RowAttribution> {
        match self {
            CompiledClassifier::Forest(forest) => forest_attribute_batch(forest, x),
            CompiledClassifier::Tree(tree) => tree_attribute_batch(tree, x),
            _ => per_row(x, |row| self.attribute_row(row)),
        }
    }

    /// The scalar reference: attribute one row.
    pub fn attribute_row(&self, row: &[f64]) -> RowAttribution {
        match self {
            CompiledClassifier::Forest(forest) => {
                if forest.roots.is_empty() {
                    return RowAttribution::constant(forest.empty_value, row.len());
                }
                let at = forest.attr_tables();
                forest_attribute_row(forest, &at.expected, &at.credits, row, row.len())
            }
            CompiledClassifier::Tree(tree) => {
                let expected = subtree_expected(tree);
                let credits = Credits::build(tree, &expected);
                tree_attribute_row(tree, &expected, &credits, row, row.len())
            }
            CompiledClassifier::Logistic { bias, weights } => {
                let (baseline, bins, z) = linear_attribute_row(*bias, weights, row);
                finish_additive(baseline, bins, z, crate::logreg::sigmoid(z))
            }
            CompiledClassifier::GaussianNb {
                log_priors,
                stats,
                fitted,
            } => {
                if !*fitted {
                    return RowAttribution::constant(0.5, row.len());
                }
                nb_attribute_row(*log_priors, stats, row)
            }
            CompiledClassifier::Knn {
                k,
                width,
                train,
                labels,
            } => knn_attribute_row(*k, *width, train, labels, row),
        }
    }
}

impl CompiledRegressor {
    /// Attribute every row of `x`; see
    /// [`CompiledClassifier::attribute_batch`].
    pub fn attribute_batch(&self, x: &ColMatrix) -> Vec<RowAttribution> {
        match self {
            CompiledRegressor::Forest(forest) => forest_attribute_batch(forest, x),
            CompiledRegressor::Tree(tree) => tree_attribute_batch(tree, x),
            CompiledRegressor::Linear { .. } => per_row(x, |row| self.attribute_row(row)),
        }
    }

    /// The scalar reference: attribute one row.
    pub fn attribute_row(&self, row: &[f64]) -> RowAttribution {
        match self {
            CompiledRegressor::Forest(forest) => {
                if forest.roots.is_empty() {
                    return RowAttribution::constant(forest.empty_value, row.len());
                }
                let at = forest.attr_tables();
                forest_attribute_row(forest, &at.expected, &at.credits, row, row.len())
            }
            CompiledRegressor::Tree(tree) => {
                let expected = subtree_expected(tree);
                let credits = Credits::build(tree, &expected);
                tree_attribute_row(tree, &expected, &credits, row, row.len())
            }
            CompiledRegressor::Linear {
                intercept,
                coefficients,
            } => {
                let (baseline, bins, z) = linear_attribute_row(*intercept, coefficients, row);
                finish_additive(baseline, bins, z, z)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::{ByteReader, ByteWriter};
    use crate::forest::{RandomForest, RandomForestRegressor};
    use crate::knn::Knn;
    use crate::logreg::LogisticRegression;
    use crate::nb::GaussianNb;
    use crate::tree::{DecisionTree, RegressionTree};
    use crate::{Classifier, Regressor};

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

    fn assert_attribution_invariants(model: &CompiledClassifier, rows: &[Vec<f64>], name: &str) {
        let x = ColMatrix::from_rows(rows);
        let batch = model.attribute_batch(&x);
        let predictions = model.predict_batch(&x);
        assert_eq!(batch.len(), rows.len(), "{name}");
        for (i, (row, att)) in rows.iter().zip(&batch).enumerate() {
            assert_eq!(att.contributions.len(), row.len(), "{name} row {i}");
            // The fold reproduces the score exactly.
            assert_eq!(
                fold(att.baseline, &att.contributions).to_bits(),
                att.score.to_bits(),
                "{name} row {i}: fold != score"
            );
            // The prediction matches the scoring kernel exactly.
            assert_eq!(
                att.prediction.to_bits(),
                predictions[i].to_bits(),
                "{name} row {i}: prediction != predict_batch"
            );
            // Block and scalar paths agree exactly.
            let scalar = model.attribute_row(row);
            assert_eq!(att, &scalar, "{name} row {i}: batch != scalar");
        }
    }

    #[test]
    fn every_classifier_attribution_is_exact() {
        // 150 rows: two full blocks plus a tail, exercising padding lanes.
        let rows = synth_rows(150, 7, 3);
        let y = labels_of(&rows);
        let models: Vec<(&str, Box<dyn Classifier>)> = vec![
            ("forest", Box::new(RandomForest::new())),
            ("tree", Box::new(DecisionTree::new())),
            ("logistic", Box::new(LogisticRegression::new())),
            ("nb", Box::new(GaussianNb::new())),
            ("knn", Box::new(Knn::new(5))),
        ];
        for (name, mut model) in models {
            model.fit(&rows, &y);
            let compiled = model.compile().expect("compiles");
            assert_attribution_invariants(&compiled, &rows, name);
        }
    }

    #[test]
    fn regressor_attributions_are_exact() {
        let rows = synth_rows(97, 5, 11);
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[2] + 0.5).collect();
        let x = ColMatrix::from_rows(&rows);

        let mut forest = RandomForestRegressor::new();
        forest.fit(&rows, &y);
        let mut tree = RegressionTree::new();
        tree.fit(&rows, &y);
        let mut linear = crate::linreg::LinearRegression::new();
        linear.fit(&rows, &y);

        for (name, compiled) in [
            ("forest", forest.compile().unwrap()),
            ("tree", tree.compile().unwrap()),
            ("linear", linear.compile().unwrap()),
        ] {
            let batch = compiled.attribute_batch(&x);
            let predictions = compiled.predict_batch(&x);
            for (i, (row, att)) in rows.iter().zip(&batch).enumerate() {
                assert_eq!(
                    fold(att.baseline, &att.contributions).to_bits(),
                    att.score.to_bits(),
                    "{name} row {i}"
                );
                assert_eq!(att.prediction.to_bits(), predictions[i].to_bits(), "{name}");
                assert_eq!(att, &compiled.attribute_row(row), "{name} row {i}");
            }
        }
    }

    #[test]
    fn tree_credits_point_at_split_features() {
        // A hand-built stump on feature 2: all credit must land there.
        let mut w = ByteWriter::new();
        w.put_u8(1); // tree tag
        w.put_u32s(&[2, LEAF, LEAF]);
        w.put_f64s(&[0.0, 1.0, 5.0]);
        w.put_u32s(&[1, 1, 2]);
        w.put_u32s(&[2, 1, 2]);
        let bytes = w.into_bytes();
        let tree = CompiledClassifier::decode(&mut ByteReader::new(&bytes)).unwrap();
        let att = tree.attribute_row(&[9.0, 9.0, -1.0, 9.0]);
        assert_eq!(att.baseline, 3.0); // (1 + 5) / 2
        assert_eq!(att.score, 1.0);
        assert_eq!(att.contributions[2], -2.0);
        assert!(att
            .contributions
            .iter()
            .enumerate()
            .all(|(j, &c)| j == 2 || c == 0.0));
    }

    #[test]
    fn nan_leaves_degrade_to_constant_attribution() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u32s(&[LEAF]);
        w.put_f64s(&[f64::NAN]);
        w.put_u32s(&[0]);
        w.put_u32s(&[0]);
        let bytes = w.into_bytes();
        let tree = CompiledClassifier::decode(&mut ByteReader::new(&bytes)).unwrap();
        let rows = synth_rows(70, 3, 17);
        let x = ColMatrix::from_rows(&rows);
        for att in tree.attribute_batch(&x) {
            assert!(att.prediction.is_nan());
            assert!(att.baseline.is_nan());
            assert!(att.contributions.iter().all(|&c| c == 0.0));
        }
    }

    #[test]
    fn empty_forest_attributes_its_empty_value() {
        let forest = crate::infer::flatten_forest(std::iter::empty(), 0.5);
        let compiled = CompiledClassifier::Forest(forest);
        let rows = synth_rows(9, 3, 5);
        let x = ColMatrix::from_rows(&rows);
        for (att, row) in compiled.attribute_batch(&x).iter().zip(&rows) {
            assert_eq!(att.baseline, 0.5);
            assert_eq!(att.prediction, 0.5);
            assert_eq!(
                fold(att.baseline, &att.contributions).to_bits(),
                0.5f64.to_bits()
            );
            assert_eq!(att, &compiled.attribute_row(row));
        }
    }

    #[test]
    fn unfitted_models_attribute_constants() {
        let rows = synth_rows(10, 3, 1);
        let x = ColMatrix::from_rows(&rows);
        for model in [
            RandomForest::new().compile().unwrap(),
            DecisionTree::new().compile().unwrap(),
            GaussianNb::new().compile().unwrap(),
        ] {
            for att in model.attribute_batch(&x) {
                assert_eq!(att.prediction, 0.5);
                assert_eq!(
                    fold(att.baseline, &att.contributions).to_bits(),
                    att.score.to_bits()
                );
            }
        }
    }

    #[test]
    fn exactify_handles_awkward_targets() {
        // Residual absorption into the last nonzero bin.
        let mut baseline = 0.1;
        let mut bins = vec![0.2, 0.0, 0.3, 0.0];
        let target = 0.1 + (0.2 + 0.3) + 1e-18;
        exactify(&mut baseline, &mut bins, target);
        assert_eq!(fold(baseline, &bins).to_bits(), target.to_bits());
        assert_eq!(bins[1], 0.0);
        assert_eq!(bins[3], 0.0);

        // All-zero bins: the baseline takes the correction.
        let mut baseline = 1.0;
        let mut bins = vec![0.0; 3];
        exactify(&mut baseline, &mut bins, 2.5);
        assert_eq!(fold(baseline, &bins).to_bits(), 2.5f64.to_bits());

        // Non-finite targets collapse to the degenerate form.
        let mut baseline = 1.0;
        let mut bins = vec![0.5, 0.25];
        exactify(&mut baseline, &mut bins, f64::INFINITY);
        assert_eq!(baseline, f64::INFINITY);
        assert!(bins.iter().all(|&b| b == 0.0));

        // Negative-zero target survives the trailing-zero fold.
        let mut baseline = 1.0;
        let mut bins = vec![0.5, 0.25];
        exactify(&mut baseline, &mut bins, -0.0);
        assert_eq!(fold(baseline, &bins).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn wide_tree_features_fall_back_to_scalar_rows() {
        // A stump on feature 5 scored against 3-column rows: the batch
        // path must take the same fallback as `predict_batch` and stay
        // exact (the dropped credit is re-absorbed by exactify).
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u32s(&[5, LEAF, LEAF]);
        w.put_f64s(&[0.5, 1.0, 2.0]);
        w.put_u32s(&[1, 1, 2]);
        w.put_u32s(&[2, 1, 2]);
        let bytes = w.into_bytes();
        let tree = CompiledClassifier::decode(&mut ByteReader::new(&bytes)).unwrap();
        let rows = synth_rows(20, 3, 23);
        let x = ColMatrix::from_rows(&rows);
        let predictions = tree.predict_batch(&x);
        for (i, (att, row)) in tree.attribute_batch(&x).iter().zip(&rows).enumerate() {
            assert_eq!(att.prediction.to_bits(), predictions[i].to_bits());
            assert_eq!(
                fold(att.baseline, &att.contributions).to_bits(),
                att.score.to_bits()
            );
            assert_eq!(att, &tree.attribute_row(row));
        }
    }
}
