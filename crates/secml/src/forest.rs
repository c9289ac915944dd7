//! Random forests: bagging + per-tree feature subsampling over the
//! decision/regression trees.
//!
//! Trees are independent given their seeds, so training fans out over the
//! work-stealing pool: tree `t` draws its bootstrap and feature pool from
//! a generator seeded with `derive_seed(config.seed, t)`, which makes
//! every tree a pure function of `(config, data, t)` — the forest is
//! byte-identical whether grown on 1 thread or 16. Bootstrap matrices are
//! [`ColMatrix::subset`] gathers, so the per-column sort order is derived
//! from the parent matrix rather than re-sorted per tree.

use crate::dataset::ColMatrix;
use crate::tree::{DecisionTree, RegressionTree, TreeConfig};
use crate::{Classifier, Regressor};
use pipeline::pool::{default_workers, parallel_map};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{derive_seed, Rng, SeedableRng};

/// Shared forest hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub tree: TreeConfig,
    /// Features sampled per tree as a fraction of the total (√p-style
    /// defaults are achieved by the caller choosing ~ `1/√p`).
    pub feature_fraction: f64,
    /// RNG seed — forests are deterministic for a given seed, and the
    /// result does not depend on `jobs`.
    pub seed: u64,
    /// Worker threads for tree growing (0 = all cores, 1 = sequential).
    pub jobs: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 30,
            tree: TreeConfig::default(),
            feature_fraction: 0.6,
            seed: 42,
            jobs: 1,
        }
    }
}

impl ForestConfig {
    fn workers(&self) -> usize {
        if self.jobs == 0 {
            default_workers()
        } else {
            self.jobs
        }
    }
}

fn bootstrap(rng: &mut StdRng, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

fn feature_pool(rng: &mut StdRng, cols: usize, fraction: f64) -> Vec<usize> {
    let k = ((cols as f64 * fraction).ceil() as usize).clamp(1, cols.max(1));
    let mut all: Vec<usize> = (0..cols).collect();
    all.shuffle(rng);
    all.truncate(k);
    all
}

/// The bootstrap sample and feature pool for tree `t` — a pure function
/// of the config seed and the tree index.
fn tree_draw(config: &ForestConfig, t: usize, n: usize, cols: usize) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, t as u64));
    let sample = bootstrap(&mut rng, n);
    let pool = feature_pool(&mut rng, cols, config.feature_fraction);
    (sample, pool)
}

/// Random-forest classifier: mean of per-tree leaf probabilities.
#[derive(Debug, Clone, Default)]
pub struct RandomForest {
    pub config: ForestConfig,
    trees: Vec<DecisionTree>,
    /// Number of voting trees as `f64`, cached at fit time so prediction
    /// never reconverts the count per row. Kept as a divisor rather than
    /// a reciprocal: `sum * (1.0 / n)` is not bit-identical to `sum / n`
    /// for non-power-of-two tree counts.
    n_trees_f: f64,
}

impl RandomForest {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(config: ForestConfig) -> Self {
        RandomForest {
            config,
            ..Default::default()
        }
    }
}

impl Classifier for RandomForest {
    fn fit_matrix(&mut self, x: &ColMatrix, y: &[usize]) {
        assert_eq!(x.n_rows(), y.len(), "row/label count mismatch");
        self.trees.clear();
        self.n_trees_f = 0.0;
        if x.is_empty() || x.n_cols() == 0 {
            return;
        }
        // Sort once up front so every bootstrap derives its permutations.
        x.sorted(0);
        let indices: Vec<usize> = (0..self.config.n_trees).collect();
        self.trees = parallel_map(self.config.workers(), &indices, |_, &t| {
            let (sample, pool) = tree_draw(&self.config, t, x.n_rows(), x.n_cols());
            let bx = x.subset(&sample);
            let by: Vec<usize> = sample.iter().map(|&i| y[i]).collect();
            let mut tree = DecisionTree::with_config(self.config.tree);
            tree.fit_with_pool(&bx, &by, &pool);
            tree
        });
        self.n_trees_f = self.trees.len() as f64;
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        self.trees.iter().map(|t| t.predict_proba(row)).sum::<f64>() / self.n_trees_f
    }

    fn compile(&self) -> Option<crate::CompiledClassifier> {
        Some(crate::CompiledClassifier::Forest(
            crate::infer::flatten_forest(self.trees.iter().map(|t| t.root()), 0.5),
        ))
    }
}

/// Random-forest regressor: mean of per-tree predictions.
#[derive(Debug, Clone, Default)]
pub struct RandomForestRegressor {
    pub config: ForestConfig,
    trees: Vec<RegressionTree>,
    /// See [`RandomForest::n_trees_f`](RandomForest): fit-time divisor.
    n_trees_f: f64,
}

impl RandomForestRegressor {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(config: ForestConfig) -> Self {
        RandomForestRegressor {
            config,
            ..Default::default()
        }
    }
}

impl Regressor for RandomForestRegressor {
    fn fit_matrix(&mut self, x: &ColMatrix, y: &[f64]) {
        assert_eq!(x.n_rows(), y.len(), "row/target count mismatch");
        self.trees.clear();
        self.n_trees_f = 0.0;
        if x.is_empty() || x.n_cols() == 0 {
            return;
        }
        x.sorted(0);
        let indices: Vec<usize> = (0..self.config.n_trees).collect();
        self.trees = parallel_map(self.config.workers(), &indices, |_, &t| {
            let (sample, pool) = tree_draw(&self.config, t, x.n_rows(), x.n_cols());
            let bx = x.subset(&sample);
            let by: Vec<f64> = sample.iter().map(|&i| y[i]).collect();
            let mut tree = RegressionTree::with_config(self.config.tree);
            tree.fit_with_pool(&bx, &by, &pool);
            tree
        });
        self.n_trees_f = self.trees.len() as f64;
    }

    fn predict(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.n_trees_f
    }

    fn compile(&self) -> Option<crate::CompiledRegressor> {
        Some(crate::CompiledRegressor::Forest(
            crate::infer::flatten_forest(self.trees.iter().map(|t| t.root()), 0.0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_threshold() -> (Vec<Vec<f64>>, Vec<usize>) {
        // class = x0 + x1 > 10, with an irrelevant third feature.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let a = (i % 10) as f64;
            let b = (i / 10) as f64;
            x.push(vec![a, b, (i % 3) as f64]);
            y.push((a + b > 10.0) as usize);
        }
        (x, y)
    }

    #[test]
    fn forest_learns_threshold() {
        let (x, y) = noisy_threshold();
        let mut f = RandomForest::new();
        f.fit(&x, &y);
        let correct = x.iter().zip(&y).filter(|(r, &l)| f.predict(r) == l).count();
        assert!(
            correct as f64 / x.len() as f64 > 0.9,
            "accuracy {}",
            correct as f64 / x.len() as f64
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = noisy_threshold();
        let mut f1 = RandomForest::new();
        f1.fit(&x, &y);
        let mut f2 = RandomForest::new();
        f2.fit(&x, &y);
        for row in &x {
            assert_eq!(f1.predict_proba(row), f2.predict_proba(row));
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (x, y) = noisy_threshold();
        let mut seq = RandomForest::with_config(ForestConfig {
            jobs: 1,
            ..Default::default()
        });
        seq.fit(&x, &y);
        let mut par = RandomForest::with_config(ForestConfig {
            jobs: 4,
            ..Default::default()
        });
        par.fit(&x, &y);
        for row in &x {
            assert_eq!(
                seq.predict_proba(row).to_bits(),
                par.predict_proba(row).to_bits()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = noisy_threshold();
        let mut f1 = RandomForest::with_config(ForestConfig {
            seed: 1,
            ..Default::default()
        });
        f1.fit(&x, &y);
        let mut f2 = RandomForest::with_config(ForestConfig {
            seed: 2,
            ..Default::default()
        });
        f2.fit(&x, &y);
        let any_diff = x
            .iter()
            .any(|r| (f1.predict_proba(r) - f2.predict_proba(r)).abs() > 1e-12);
        assert!(any_diff);
    }

    #[test]
    fn probabilities_average_over_trees() {
        let (x, y) = noisy_threshold();
        let mut f = RandomForest::with_config(ForestConfig {
            n_trees: 30,
            ..Default::default()
        });
        f.fit(&x, &y);
        // Trees whose sampled feature pool misses one of the two relevant
        // features cap out near 0.75 on this out-of-distribution point, so
        // the ensemble mean lands in the low 0.8s with lucky draws and the
        // mid 0.7s with unlucky ones — assert confident direction, not a
        // specific bootstrap outcome.
        let p = f.predict_proba(&[9.0, 9.0, 0.0]);
        assert!(p > 0.7, "p = {p}");
        let p = f.predict_proba(&[0.0, 0.0, 0.0]);
        assert!(p < 0.3, "p = {p}");
    }

    #[test]
    fn regressor_fits_smooth_function() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 6.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        let mut f = RandomForestRegressor::new();
        f.fit(&x, &y);
        let pred = f.predict(&[5.0]);
        assert!((pred - 16.0).abs() < 2.0, "pred = {pred}");
    }

    #[test]
    fn empty_fit_is_harmless() {
        let mut f = RandomForest::new();
        f.fit(&[], &[]);
        assert_eq!(f.predict_proba(&[1.0]), 0.5);
        let mut r = RandomForestRegressor::new();
        r.fit(&[], &[]);
        assert_eq!(r.predict(&[1.0]), 0.0);
    }
}
