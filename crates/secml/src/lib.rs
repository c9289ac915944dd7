//! secml — a small, self-contained machine-learning library.
//!
//! The paper's Figure 4 pipes code-property feature vectors and CVE-derived
//! labels into "a data mining tool, such as Weka" with cross-validation.
//! Offline we replace Weka with this crate:
//!
//! * [`dataset`] — named-column datasets with class or numeric targets;
//! * [`preprocess`] — standardization, min-max scaling, log transforms;
//! * [`select`] — correlation and information-gain feature ranking;
//! * classifiers: [`logreg`] (L2 logistic regression), [`nb`] (gaussian
//!   naive Bayes), [`tree`] (entropy decision tree), [`forest`] (random
//!   forest), [`knn`] (k-nearest neighbours);
//! * regressors: [`linreg`] (OLS / ridge via normal equations),
//!   regression trees;
//! * [`eval`] — accuracy/precision/recall/F1/AUC, R²/MAE/RMSE, confusion
//!   matrices, and stratified k-fold cross-validation.
//!
//! Models whose weights are inspectable (linear/logistic regression) expose
//! them — §5.3 of the paper turns those weights into "which code property
//! drives the predicted risk" developer hints.

pub mod attribution;
pub mod bytes;
pub mod dataset;
pub mod eval;
pub mod forest;
pub mod infer;
pub mod kernel;
pub mod knn;
pub mod linalg;
pub mod linreg;
pub mod logreg;
pub mod nb;
pub mod preprocess;
pub mod select;
pub mod tree;

pub use attribution::RowAttribution;
pub use dataset::{ColMatrix, ColMatrixBuilder, Dataset};
pub use eval::{brier_score, roc_auc, ClassificationReport, ConfusionMatrix, RegressionReport};
pub use infer::{link_battery, CompiledClassifier, CompiledRegressor, FlatForest, FlatTree};

/// A trained binary classifier: predicts the probability of class 1.
///
/// Implementations consume the columnar [`ColMatrix`] layout (the
/// training hot path); the row-major [`fit`](Classifier::fit) is a
/// provided convenience that transposes once and delegates.
pub trait Classifier {
    /// Fit on the columnar matrix `x` and binary labels `y` (0/1).
    /// Panics if `x.n_rows() != y.len()`.
    fn fit_matrix(&mut self, x: &ColMatrix, y: &[usize]);
    /// Fit on row-major data (converted once, then [`fit_matrix`]).
    ///
    /// [`fit_matrix`]: Classifier::fit_matrix
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize]) {
        self.fit_matrix(&ColMatrix::from_rows(x), y);
    }
    /// Probability that `row` belongs to class 1.
    fn predict_proba(&self, row: &[f64]) -> f64;
    /// Hard prediction at the 0.5 threshold.
    fn predict(&self, row: &[f64]) -> usize {
        (self.predict_proba(row) >= 0.5) as usize
    }
    /// Class-1 probability for every row of `x`, bit-identical to calling
    /// [`predict_proba`](Classifier::predict_proba) per row. The default
    /// materializes rows into one reused scratch buffer; the branch-free
    /// learners override it with their compiled columnar loops. Tree
    /// models batch-score through their compiled form (see [`infer`]).
    fn predict_batch(&self, x: &ColMatrix) -> Vec<f64> {
        let mut row = vec![0.0; x.n_cols()];
        (0..x.n_rows())
            .map(|i| {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = x.value(i, j);
                }
                self.predict_proba(&row)
            })
            .collect()
    }
    /// Compile into the flattened batched-inference form, or `None` for
    /// models without a compiled representation.
    fn compile(&self) -> Option<CompiledClassifier> {
        None
    }
}

/// A trained regressor.
pub trait Regressor {
    /// Fit on the columnar matrix `x` and numeric targets `y`.
    fn fit_matrix(&mut self, x: &ColMatrix, y: &[f64]);
    /// Fit on row-major data (converted once, then [`fit_matrix`]).
    ///
    /// [`fit_matrix`]: Regressor::fit_matrix
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        self.fit_matrix(&ColMatrix::from_rows(x), y);
    }
    /// Predict the target for `row`.
    fn predict(&self, row: &[f64]) -> f64;
    /// Predicted target for every row of `x`, bit-identical to calling
    /// [`predict`](Regressor::predict) per row.
    fn predict_batch(&self, x: &ColMatrix) -> Vec<f64> {
        let mut row = vec![0.0; x.n_cols()];
        (0..x.n_rows())
            .map(|i| {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = x.value(i, j);
                }
                self.predict(&row)
            })
            .collect()
    }
    /// Compile into the flattened batched-inference form, or `None` for
    /// models without a compiled representation.
    fn compile(&self) -> Option<CompiledRegressor> {
        None
    }
}

impl<T: Classifier + ?Sized> Classifier for Box<T> {
    fn fit_matrix(&mut self, x: &ColMatrix, y: &[usize]) {
        (**self).fit_matrix(x, y);
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[usize]) {
        (**self).fit(x, y);
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        (**self).predict_proba(row)
    }

    fn predict(&self, row: &[f64]) -> usize {
        (**self).predict(row)
    }

    fn predict_batch(&self, x: &ColMatrix) -> Vec<f64> {
        (**self).predict_batch(x)
    }

    fn compile(&self) -> Option<CompiledClassifier> {
        (**self).compile()
    }
}
