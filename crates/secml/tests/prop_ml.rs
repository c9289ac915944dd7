//! Property tests over the ML library's numeric invariants.
//!
//! Cases come from seeded splitmix64 loops, so a failure reproduces from
//! the case number in its message alone.

use secml::eval::{roc_auc, stratified_folds, ConfusionMatrix, RegressionReport};
use secml::linreg::{simple_regression, LinearRegression};
use secml::logreg::LogisticRegression;
use secml::preprocess::Standardizer;
use secml::{Classifier, Regressor};

const CASES: u64 = 96;

/// splitmix64: tiny, seeded, reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn below(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// `lo..hi` values drawn by `draw`.
    fn vec<T>(&mut self, lo: usize, hi: usize, mut draw: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.below(lo, hi);
        (0..n).map(|_| draw(self)).collect()
    }
}

/// One generator per (property, case): cases are independent streams.
fn cases(property: u64) -> impl Iterator<Item = (u64, Rng)> {
    (0..CASES).map(move |case| (case, Rng(property << 32 | case)))
}

/// Probabilities are probabilities, whatever the data.
#[test]
fn classifier_probabilities_in_unit_interval() {
    for (case, mut rng) in cases(1) {
        let points = rng.vec(8, 40, |r| {
            (r.uniform(-50.0, 50.0), r.uniform(-50.0, 50.0), r.coin())
        });
        let rows: Vec<Vec<f64>> = points.iter().map(|(a, b, _)| vec![*a, *b]).collect();
        let labels: Vec<usize> = points.iter().map(|(_, _, l)| *l as usize).collect();
        let mut m = LogisticRegression::new();
        m.fit(&rows, &labels);
        for row in &rows {
            let p = m.predict_proba(row);
            assert!((0.0..=1.0).contains(&p), "case {case}: {p}");
        }
    }
}

/// AUC is symmetric under score negation: AUC(s) + AUC(-s) = 1 for
/// tie-free scores.
#[test]
fn auc_negation_symmetry() {
    for (case, mut rng) in cases(2) {
        // Deduplicate to avoid ties; build alternating labels.
        let mut s = rng.vec(6, 40, |r| r.uniform(-100.0, 100.0));
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s.dedup();
        if s.len() < 4 {
            continue;
        }
        let labels: Vec<usize> = (0..s.len()).map(|i| i % 2).collect();
        let neg: Vec<f64> = s.iter().map(|v| -v).collect();
        let auc = roc_auc(&labels, &s);
        let auc_neg = roc_auc(&labels, &neg);
        assert!((auc + auc_neg - 1.0).abs() < 1e-9, "case {case}");
        assert!((0.0..=1.0).contains(&auc), "case {case}: {auc}");
    }
}

/// Stratified folds partition the index set and keep both classes in
/// every fold when feasible.
#[test]
fn stratified_folds_partition() {
    for (case, mut rng) in cases(3) {
        let labels = rng.vec(10, 80, |r| r.below(0, 2));
        let k = rng.below(2, 6);
        let folds = stratified_folds(&labels, k);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..labels.len()).collect::<Vec<_>>(), "case {case}");
        let pos = labels.iter().filter(|&&l| l == 1).count();
        let neg = labels.len() - pos;
        if pos >= k && neg >= k {
            for f in &folds {
                assert!(f.iter().any(|&i| labels[i] == 1), "case {case}");
                assert!(f.iter().any(|&i| labels[i] == 0), "case {case}");
            }
        }
    }
}

/// Confusion-matrix metrics stay in [0, 1].
#[test]
fn confusion_metrics_bounded() {
    for (case, mut rng) in cases(4) {
        let truth = rng.vec(1, 60, |r| r.below(0, 2));
        let flips = rng.vec(1, 60, Rng::coin);
        let predicted: Vec<usize> = truth
            .iter()
            .zip(flips.iter().chain(std::iter::repeat(&false)))
            .map(|(&t, &f)| if f { 1 - t } else { t })
            .collect();
        let m = ConfusionMatrix::from_predictions(&truth, &predicted);
        for v in [m.accuracy(), m.precision(), m.recall(), m.f1()] {
            assert!((0.0..=1.0).contains(&v), "case {case}: {v}");
        }
        assert_eq!(m.total(), truth.len().min(predicted.len()), "case {case}");
    }
}

/// OLS on exactly-linear data recovers the relation regardless of the
/// sampled coefficients.
#[test]
fn ols_recovers_exact_line() {
    for (case, mut rng) in cases(5) {
        let slope = rng.uniform(-5.0, 5.0);
        let intercept = rng.uniform(-10.0, 10.0);
        let x: Vec<f64> = (0..25).map(|i| i as f64 / 2.0).collect();
        let y: Vec<f64> = x.iter().map(|v| intercept + slope * v).collect();
        let fit = simple_regression(&x, &y);
        assert!((fit.slope - slope).abs() < 1e-8, "case {case}");
        assert!((fit.intercept - intercept).abs() < 1e-7, "case {case}");
        let mut model = LinearRegression::new();
        let rows: Vec<Vec<f64>> = x.iter().map(|v| vec![*v]).collect();
        model.fit(&rows, &y);
        assert!((model.coefficients[0] - slope).abs() < 1e-6, "case {case}");
    }
}

/// Scoring targets against themselves is a perfect fit: no error, and
/// R² of 1 (0 for constant targets, never NaN).
#[test]
fn regression_report_total() {
    for (case, mut rng) in cases(6) {
        let targets = rng.vec(2, 40, |r| r.uniform(-100.0, 100.0));
        let report = RegressionReport::compute(&targets, &targets);
        assert_eq!(report.mae, 0.0, "case {case}");
        assert!(
            report.r_squared == 1.0 || report.r_squared == 0.0,
            "case {case}: {}",
            report.r_squared
        );
    }
}

/// Standardization is monotone: z-scores preserve order and stay finite.
#[test]
fn standardizer_preserves_order() {
    for (case, mut rng) in cases(7) {
        let values = rng.vec(3, 50, |r| r.uniform(-1e4, 1e4));
        let rows: Vec<Vec<f64>> = values.iter().map(|v| vec![*v]).collect();
        let st = Standardizer::fit(&rows);
        let mut transformed = rows.clone();
        st.transform(&mut transformed);
        for (w, t) in values.windows(2).zip(transformed.windows(2)) {
            let (z_a, z_b) = (t[0][0], t[1][0]);
            if w[0] < w[1] {
                assert!(z_a <= z_b, "case {case}");
            }
            assert!(z_a.is_finite() && z_b.is_finite(), "case {case}");
        }
    }
}
