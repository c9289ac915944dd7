//! Decision trees: entropy-based classification and variance-reduction
//! regression (the C4.5-style learner in the zoo).
//!
//! Split finding is incremental: each feature column is sorted **once per
//! matrix** (the [`ColMatrix`] sort permutations, which cross-validation
//! folds and forest bootstraps derive rather than re-sort), and every node
//! sweeps thresholds left-to-right in that order while maintaining running
//! statistics — class counts for entropy, sum / sum-of-squares for
//! variance. One pass per feature per node replaces the former
//! re-partition-and-recompute search, turning an O(n²) scan per feature
//! into O(n).

use crate::dataset::ColMatrix;
use crate::{Classifier, Regressor};

/// A binary decision tree. Crate-visible so the [`infer`](crate::infer)
/// module can flatten grown trees into node tables.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        /// Class-1 probability (classification) or mean target (regression).
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, row: &[f64]) -> f64 {
        match self {
            Node::Leaf { value } => *value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if row.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                    left.predict(row)
                } else {
                    right.predict(row)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    /// Nodes in this subtree — the exact length of its flattened table.
    pub(crate) fn n_nodes(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.n_nodes() + right.n_nodes(),
        }
    }
}

/// Hyper-parameters shared by both tree flavors.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_split: usize,
    /// Consider only this many features per split (None = all) — the
    /// random-forest hook; the indices are supplied by the caller.
    pub min_gain: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 4,
            min_gain: 1e-7,
        }
    }
}

/// Criterion: entropy for classification, variance for regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Criterion {
    Entropy,
    Variance,
}

/// Binary entropy from a positive count and a total.
fn entropy_of(ones: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let p1 = ones / n;
    let p0 = 1.0 - p1;
    let mut h = 0.0;
    for p in [p0, p1] {
        if p > 0.0 {
            h -= p * p.log2();
        }
    }
    h
}

/// Variance from running sum / sum-of-squares and a count.
fn variance_of(sum: f64, sumsq: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let mean = sum / n;
    // Guard the tiny negative values catastrophic cancellation can leave.
    (sumsq / n - mean * mean).max(0.0)
}

/// Running node statistics for either criterion. For entropy, `sum` is the
/// positive-label count (labels are 0/1 floats); `sumsq` is unused.
#[derive(Clone, Copy, Default)]
struct Stats {
    n: f64,
    sum: f64,
    sumsq: f64,
}

impl Stats {
    fn add(&mut self, y: f64) {
        self.n += 1.0;
        self.sum += y;
        self.sumsq += y * y;
    }

    fn impurity(&self, criterion: Criterion) -> f64 {
        match criterion {
            Criterion::Entropy => entropy_of(self.sum, self.n),
            Criterion::Variance => variance_of(self.sum, self.sumsq, self.n),
        }
    }
}

/// The best split of the masked rows over `feature_pool`:
/// `(feature, threshold, gain)`, or `None` when no feature admits a split.
/// `mask[r]` is true exactly for the rows in the node; `parent` holds
/// their aggregate statistics.
fn best_split(
    x: &ColMatrix,
    y: &[f64],
    mask: &[bool],
    parent: Stats,
    criterion: Criterion,
    feature_pool: &[usize],
) -> Option<(usize, f64, f64)> {
    let parent_impurity = parent.impurity(criterion);
    let n = parent.n;
    let mut best: Option<(usize, f64, f64)> = None;
    for &feature in feature_pool {
        let col = x.col(feature);
        let mut left = Stats::default();
        let mut prev: Option<f64> = None;
        // Sweep the column's global sort order restricted to this node:
        // every boundary between distinct values is a candidate threshold,
        // and the running `left` stats make each gain O(1).
        for &r in x.sorted(feature) {
            let r = r as usize;
            if !mask[r] {
                continue;
            }
            let v = col[r];
            if let Some(pv) = prev {
                if v > pv && left.n > 0.0 && left.n < n {
                    let threshold = (pv + v) / 2.0;
                    let right = Stats {
                        n: n - left.n,
                        sum: parent.sum - left.sum,
                        sumsq: parent.sumsq - left.sumsq,
                    };
                    let weighted = (left.n / n) * left.impurity(criterion)
                        + (right.n / n) * right.impurity(criterion);
                    let gain = parent_impurity - weighted;
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((feature, threshold, gain));
                    }
                }
            }
            left.add(y[r]);
            prev = Some(v);
        }
    }
    best
}

/// The entropy-criterion best split — the oracle surface for property
/// tests and benchmarks. `labels` are 0/1; considers all of `x`'s rows.
pub fn best_split_entropy(
    x: &ColMatrix,
    labels: &[usize],
    feature_pool: &[usize],
) -> Option<(usize, f64, f64)> {
    let y: Vec<f64> = labels.iter().map(|&v| v as f64).collect();
    best_split_full(x, &y, Criterion::Entropy, feature_pool)
}

/// The variance-criterion best split over all of `x`'s rows.
pub fn best_split_variance(
    x: &ColMatrix,
    y: &[f64],
    feature_pool: &[usize],
) -> Option<(usize, f64, f64)> {
    best_split_full(x, y, Criterion::Variance, feature_pool)
}

fn best_split_full(
    x: &ColMatrix,
    y: &[f64],
    criterion: Criterion,
    feature_pool: &[usize],
) -> Option<(usize, f64, f64)> {
    let node_rows: Vec<u32> = (0..x.n_rows() as u32).collect();
    let mask = vec![true; x.n_rows()];
    let mut parent = Stats::default();
    for &r in &node_rows {
        parent.add(y[r as usize]);
    }
    best_split(x, y, &mask, parent, criterion, feature_pool)
}

/// Everything that stays fixed while one tree grows: the dataset, the
/// hyper-parameters, and the candidate feature pool (random forests pass a
/// subsample; plain trees pass all features).
struct GrowContext<'a> {
    x: &'a ColMatrix,
    y: &'a [f64],
    config: &'a TreeConfig,
    criterion: Criterion,
    feature_pool: &'a [usize],
}

/// Grow a tree on the rows at `node_rows`. `mask` is a shared scratch
/// membership array (all false between nodes).
fn grow(ctx: &GrowContext, node_rows: &[u32], mask: &mut [bool], depth: usize) -> Node {
    let GrowContext {
        x,
        y,
        config,
        criterion,
        feature_pool,
    } = *ctx;
    let mut parent = Stats::default();
    for &r in node_rows {
        parent.add(y[r as usize]);
    }
    let mean = parent.sum / parent.n.max(1.0);
    let parent_impurity = parent.impurity(criterion);

    if depth >= config.max_depth
        || node_rows.len() < config.min_samples_split
        || parent_impurity <= 0.0
    {
        return Node::Leaf { value: mean };
    }

    for &r in node_rows {
        mask[r as usize] = true;
    }
    let best = best_split(x, y, mask, parent, criterion, feature_pool);
    for &r in node_rows {
        mask[r as usize] = false;
    }

    match best {
        Some((feature, threshold, gain)) if gain > config.min_gain => {
            let col = x.col(feature);
            let (mut li, mut ri) = (Vec::new(), Vec::new());
            for &r in node_rows {
                if col[r as usize] <= threshold {
                    li.push(r);
                } else {
                    ri.push(r);
                }
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(grow(ctx, &li, mask, depth + 1)),
                right: Box::new(grow(ctx, &ri, mask, depth + 1)),
            }
        }
        _ => Node::Leaf { value: mean },
    }
}

fn grow_root(
    x: &ColMatrix,
    y: &[f64],
    config: &TreeConfig,
    criterion: Criterion,
    feature_pool: &[usize],
    empty_value: f64,
) -> Node {
    if x.is_empty() {
        return Node::Leaf { value: empty_value };
    }
    let node_rows: Vec<u32> = (0..x.n_rows() as u32).collect();
    let mut mask = vec![false; x.n_rows()];
    let ctx = GrowContext {
        x,
        y,
        config,
        criterion,
        feature_pool,
    };
    grow(&ctx, &node_rows, &mut mask, 0)
}

/// Entropy-criterion decision-tree classifier.
#[derive(Debug, Clone, Default)]
pub struct DecisionTree {
    pub config: TreeConfig,
    root: Option<Node>,
}

impl DecisionTree {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(config: TreeConfig) -> Self {
        DecisionTree { config, root: None }
    }

    /// Depth of the grown tree (0 = single leaf / unfitted).
    pub fn depth(&self) -> usize {
        self.root.as_ref().map(|r| r.depth()).unwrap_or(0)
    }

    /// Fit restricted to a feature subset (random-forest hook).
    pub fn fit_with_pool(&mut self, x: &ColMatrix, y: &[usize], pool: &[usize]) {
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        self.root = Some(grow_root(
            x,
            &yf,
            &self.config,
            Criterion::Entropy,
            pool,
            0.5,
        ));
    }

    pub(crate) fn root(&self) -> Option<&Node> {
        self.root.as_ref()
    }
}

impl Classifier for DecisionTree {
    fn fit_matrix(&mut self, x: &ColMatrix, y: &[usize]) {
        assert_eq!(x.n_rows(), y.len(), "row/label count mismatch");
        let pool: Vec<usize> = (0..x.n_cols()).collect();
        self.fit_with_pool(x, y, &pool);
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        self.root.as_ref().map(|r| r.predict(row)).unwrap_or(0.5)
    }

    fn compile(&self) -> Option<crate::CompiledClassifier> {
        Some(crate::CompiledClassifier::Tree(crate::infer::flatten_tree(
            self.root(),
            0.5,
        )))
    }
}

/// Variance-reduction regression tree.
#[derive(Debug, Clone, Default)]
pub struct RegressionTree {
    pub config: TreeConfig,
    root: Option<Node>,
}

impl RegressionTree {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(config: TreeConfig) -> Self {
        RegressionTree { config, root: None }
    }

    /// Fit restricted to a feature subset (random-forest hook).
    pub fn fit_with_pool(&mut self, x: &ColMatrix, y: &[f64], pool: &[usize]) {
        self.root = Some(grow_root(
            x,
            y,
            &self.config,
            Criterion::Variance,
            pool,
            0.0,
        ));
    }

    pub(crate) fn root(&self) -> Option<&Node> {
        self.root.as_ref()
    }
}

impl Regressor for RegressionTree {
    fn fit_matrix(&mut self, x: &ColMatrix, y: &[f64]) {
        assert_eq!(x.n_rows(), y.len(), "row/target count mismatch");
        let pool: Vec<usize> = (0..x.n_cols()).collect();
        self.fit_with_pool(x, y, &pool);
    }

    fn predict(&self, row: &[f64]) -> f64 {
        self.root.as_ref().map(|r| r.predict(row)).unwrap_or(0.0)
    }

    fn compile(&self) -> Option<crate::CompiledRegressor> {
        Some(crate::CompiledRegressor::Tree(crate::infer::flatten_tree(
            self.root(),
            0.0,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_threshold_rule() {
        // class = x > 3
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 2.0]).collect();
        let y: Vec<usize> = x.iter().map(|r| (r[0] > 3.0) as usize).collect();
        let mut t = DecisionTree::new();
        t.fit(&x, &y);
        assert_eq!(t.predict(&[1.0]), 0);
        assert_eq!(t.predict(&[8.0]), 1);
        assert!(t.depth() >= 1);
    }

    #[test]
    fn learns_conjunction_with_depth_two() {
        // class = (x0 > 0.5) AND (x1 > 0.5): needs two nested splits.
        // (XOR, by contrast, defeats greedy entropy trees: every first
        // split has zero gain.)
        let x = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.1, 0.1],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
            vec![0.9, 0.9],
        ];
        let y = vec![0, 0, 0, 1, 0, 0, 0, 1];
        let mut t = DecisionTree::with_config(TreeConfig {
            min_samples_split: 2,
            ..Default::default()
        });
        t.fit(&x, &y);
        let correct = x.iter().zip(&y).filter(|(r, &l)| t.predict(r) == l).count();
        assert_eq!(correct, 8);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn max_depth_limits_growth() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..64).map(|i| (i % 2) as usize).collect();
        let mut t = DecisionTree::with_config(TreeConfig {
            max_depth: 3,
            min_samples_split: 2,
            ..Default::default()
        });
        t.fit(&x, &y);
        assert!(t.depth() <= 3);
    }

    #[test]
    fn pure_node_is_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let mut t = DecisionTree::new();
        t.fit(&x, &y);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[99.0]), 1);
    }

    #[test]
    fn unfitted_tree_predicts_half() {
        let t = DecisionTree::new();
        assert_eq!(t.predict_proba(&[1.0]), 0.5);
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] < 15.0 { 2.0 } else { 10.0 })
            .collect();
        let mut t = RegressionTree::new();
        t.fit(&x, &y);
        assert!((t.predict(&[5.0]) - 2.0).abs() < 1e-9);
        assert!((t.predict(&[25.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn regression_tree_piecewise_approximation() {
        // y = x²: deeper trees approximate better.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 5.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[0]).collect();
        let mut shallow = RegressionTree::with_config(TreeConfig {
            max_depth: 1,
            min_samples_split: 2,
            ..Default::default()
        });
        shallow.fit(&x, &y);
        let mut deep = RegressionTree::with_config(TreeConfig {
            max_depth: 6,
            min_samples_split: 2,
            ..Default::default()
        });
        deep.fit(&x, &y);
        let mse = |t: &RegressionTree| {
            x.iter()
                .zip(&y)
                .map(|(r, &v)| (t.predict(r) - v) * (t.predict(r) - v))
                .sum::<f64>()
                / x.len() as f64
        };
        assert!(mse(&deep) < mse(&shallow) / 4.0);
    }

    #[test]
    fn empty_fit_is_harmless() {
        let mut t = DecisionTree::new();
        t.fit(&[], &[]);
        assert_eq!(t.predict_proba(&[1.0]), 0.5);
        let mut rt = RegressionTree::new();
        Regressor::fit(&mut rt, &[], &[]);
        assert_eq!(rt.predict(&[1.0]), 0.0);
    }

    #[test]
    fn nan_feature_does_not_panic() {
        // A degraded pipeline vector can feed NaN into training; the
        // total_cmp sort order puts NaNs last and the tree still fits.
        let x = vec![vec![1.0], vec![2.0], vec![f64::NAN], vec![4.0], vec![5.0]];
        let y = vec![0, 0, 0, 1, 1];
        let mut t = DecisionTree::with_config(TreeConfig {
            min_samples_split: 2,
            ..Default::default()
        });
        t.fit(&x, &y);
        assert_eq!(t.predict(&[5.0]), 1);
    }

    #[test]
    fn split_oracle_on_clean_threshold() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 7.0]).collect();
        let labels: Vec<usize> = (0..10).map(|i| (i >= 5) as usize).collect();
        let m = ColMatrix::from_rows(&rows);
        let (feature, threshold, gain) = best_split_entropy(&m, &labels, &[0, 1]).unwrap();
        assert_eq!(feature, 0);
        assert!((threshold - 4.5).abs() < 1e-12);
        assert!((gain - 1.0).abs() < 1e-12, "gain = {gain}");
    }
}
