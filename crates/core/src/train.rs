//! The training phase (§5.2, Figure 4).
//!
//! Assembles the dataset (testbed features × CVE-derived labels over the
//! §5.1-selected applications), applies the data transformations the paper
//! lists among the main challenges (log transform for heavy-tailed counts,
//! standardization, optional feature filtering), trains one classifier per
//! hypothesis plus a vulnerability-count regressor, and cross-validates
//! everything "within the ground truth".
//!
//! Every entry point runs one column-wise core. `Trainer::prepare` streams
//! raw dense rows into the standardized, filtered training matrix (spilled
//! to disk on request) and `Trainer::fit` trains the final models on it.
//! [`Trainer::train_with_report`] adds a cross-validation pass over the
//! same matrix; [`Trainer::train`] and [`Trainer::train_streaming`] skip
//! it, since no final fit depends on it.

use crate::extract::{self, CorpusFeatures};
use crate::hypothesis::{standard_battery, Hypothesis};
use crate::score::CompiledModel;
use corpus::Corpus;
use cvedb::{AppHistory, SelectionCriteria};
use pipeline::{parallel_map, PipelineReport};
use secml::dataset::{ColMatrix, ColMatrixBuilder};
use secml::eval::{
    cross_validate_classifier_jobs, cross_validate_regressor_jobs, ClassificationReport,
    RegressionReport,
};
use secml::forest::{ForestConfig, RandomForest};
use secml::knn::Knn;
use secml::linreg::LinearRegression;
use secml::logreg::LogisticRegression;
use secml::nb::GaussianNb;
use secml::preprocess::{signed_log1p, Standardizer};
use secml::select::{info_gain_column, label_entropy, pearson_column, pearson_target_stats, top_k};
use secml::tree::DecisionTree;
use secml::{Classifier, Regressor};
use std::fmt;
use std::path::Path;

/// A heap-allocated classifier usable across threads (models are stored in
/// shared `TrainedModel`s).
pub type BoxedClassifier = Box<dyn Classifier + Send + Sync>;

/// Which learner family to use for the hypothesis classifiers — the
/// "tuning the parameters to the learning algorithms" knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Learner {
    Logistic,
    NaiveBayes,
    DecisionTree,
    RandomForest,
    Knn,
}

/// Forest size used when no explicit `forest_trees` is configured.
pub const DEFAULT_FOREST_TREES: usize = 20;

impl Learner {
    pub const ALL: [Learner; 5] = [
        Learner::Logistic,
        Learner::NaiveBayes,
        Learner::DecisionTree,
        Learner::RandomForest,
        Learner::Knn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Learner::Logistic => "logistic",
            Learner::NaiveBayes => "naive-bayes",
            Learner::DecisionTree => "decision-tree",
            Learner::RandomForest => "random-forest",
            Learner::Knn => "knn",
        }
    }

    /// Instantiate an untrained classifier (sequential training).
    pub fn make(self) -> BoxedClassifier {
        self.make_jobs(1)
    }

    /// Instantiate an untrained classifier whose fit may use up to `jobs`
    /// worker threads (only the random forest parallelizes; trained
    /// output never depends on `jobs`).
    pub fn make_jobs(self, jobs: usize) -> BoxedClassifier {
        self.make_sized(DEFAULT_FOREST_TREES, jobs)
    }

    /// Like [`make_jobs`](Learner::make_jobs), with an explicit ensemble
    /// size. Only the random forest reads `trees`; other learners have no
    /// ensemble to size. Larger forests are the serving-scale stress case
    /// for the batched inference engine (see the `inference_throughput`
    /// bench).
    pub fn make_sized(self, trees: usize, jobs: usize) -> BoxedClassifier {
        match self {
            Learner::Logistic => Box::new(LogisticRegression::new()),
            Learner::NaiveBayes => Box::new(GaussianNb::new()),
            Learner::DecisionTree => Box::new(DecisionTree::new()),
            Learner::RandomForest => Box::new(RandomForest::with_config(ForestConfig {
                n_trees: trees,
                jobs,
                ..Default::default()
            })),
            Learner::Knn => Box::new(Knn::new(5)),
        }
    }
}

impl fmt::Display for Learner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the top-k feature filter ranks candidates (§5.2's "filtering
/// features that are irrelevant to the prediction").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMethod {
    /// |Pearson correlation| against the log-count target.
    #[default]
    PearsonVsCount,
    /// Information gain against the CVSS>7 labels (the Weka
    /// `InfoGainAttributeEval` route).
    InfoGainVsHighSeverity,
}

/// Trainer configuration.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    pub learner: Learner,
    pub folds: usize,
    /// Keep only the top-k features by the configured ranking
    /// (None = keep all) — §5.2's "filtering features that are irrelevant".
    pub top_k_features: Option<usize>,
    /// Ranking used by the top-k filter.
    pub selection_method: SelectionMethod,
    /// Apply signed log1p before standardization.
    pub log_transform: bool,
    /// Which applications qualify as ground truth.
    pub selection: SelectionCriteria,
    /// Restrict features to one name prefix (ablation hook; None = all).
    pub feature_prefix: Option<String>,
    /// Feature-extraction worker threads (0 = one per core). Parallel
    /// extraction is byte-identical to sequential, so training stays
    /// deterministic regardless of `jobs`.
    pub jobs: usize,
    /// Worker threads for ML training (hypothesis batteries, CV folds,
    /// forest trees). 0 = inherit `jobs` (whose own 0 means all
    /// cores). Trained models and reports are byte-identical for every
    /// value.
    pub train_jobs: usize,
    /// Trees per random forest (ignored by the other learners). The
    /// default keeps training fast; serving-heavy deployments can grow
    /// the ensemble and amortize it through the compiled batch engine.
    pub forest_trees: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            learner: Learner::Logistic,
            folds: 5,
            top_k_features: None,
            selection_method: SelectionMethod::default(),
            log_transform: true,
            selection: SelectionCriteria::default(),
            feature_prefix: None,
            jobs: 0,
            train_jobs: 0,
            forest_trees: DEFAULT_FOREST_TREES,
        }
    }
}

/// Builds [`TrainedModel`]s from a corpus.
#[derive(Default)]
pub struct Trainer {
    pub config: TrainerConfig,
}

impl Trainer {
    pub fn new() -> Trainer {
        Trainer::default()
    }

    pub fn with_config(config: TrainerConfig) -> Trainer {
        Trainer { config }
    }

    pub fn with_learner(learner: Learner) -> Trainer {
        Trainer {
            config: TrainerConfig {
                learner,
                ..Default::default()
            },
        }
    }

    /// ML worker count: `train_jobs`, falling back to `jobs`,
    /// falling back to all cores.
    fn resolved_train_jobs(&self) -> usize {
        let jobs = if self.config.train_jobs == 0 {
            self.config.jobs
        } else {
            self.config.train_jobs
        };
        if jobs == 0 {
            pipeline::default_workers()
        } else {
            jobs
        }
    }

    /// Train on the corpus; panics if no application passes selection
    /// (a corpus misconfiguration, not a runtime condition).
    pub fn train(&self, corpus: &Corpus) -> TrainedModel {
        let (histories, extraction) = self.extract_selected(corpus);
        let (schema, rows) = extraction.dense_rows();
        self.fit(self.prepare_rows(&schema, &rows, &histories), &histories)
    }

    /// Train and also return the cross-validation report.
    pub fn train_with_report(&self, corpus: &Corpus) -> (TrainedModel, TrainingReport) {
        let (histories, extraction) = self.extract_selected(corpus);
        let (schema, rows) = extraction.dense_rows();
        let prepared = self.prepare_rows(&schema, &rows, &histories);
        let report = self.cross_validate(&prepared, &histories, extraction.report);
        (self.fit(prepared, &histories), report)
    }

    /// Out-of-core training entry point. Consumes raw dense feature rows
    /// (in `schema` order, one per history, in `histories` order) through
    /// a single pass, optionally spilling the working matrices under
    /// `spill_dir` so peak memory stays bounded by one column rather than
    /// the whole matrix. This is the same core [`train`](Trainer::train)
    /// runs, so the model is bit-identical to training on the corpus the
    /// rows were extracted from, spilled or not.
    ///
    /// `schema` must be the sorted feature-name union — for the standard
    /// testbed every program emits the full name set, so the sorted names
    /// of any extracted vector qualify.
    pub fn train_streaming(
        &self,
        schema: &[String],
        rows: impl IntoIterator<Item = Vec<f64>>,
        histories: &[AppHistory],
        spill_dir: Option<&Path>,
    ) -> std::io::Result<TrainedModel> {
        let prepared = self.prepare(schema, rows, histories, spill_dir)?;
        Ok(self.fit(prepared, histories))
    }

    /// The ground-truth histories this configuration selects, and their
    /// applications' features extracted through the pipeline driver
    /// (parallel + fault isolated; output order matches the histories).
    pub(crate) fn extract_selected(&self, corpus: &Corpus) -> (Vec<AppHistory>, CorpusFeatures) {
        let histories = corpus.db.select(&self.config.selection);
        assert!(
            !histories.is_empty(),
            "no application passed the ground-truth selection criteria"
        );
        let selected: Vec<&corpus::GeneratedApp> = histories
            .iter()
            .map(|h| {
                corpus
                    .apps
                    .iter()
                    .find(|a| a.spec.name == h.app)
                    .unwrap_or_else(|| panic!("history for unknown app {}", h.app))
            })
            .collect();
        let extraction = extract::extract_apps(selected, self.config.jobs);
        (histories, extraction)
    }

    /// [`prepare`](Trainer::prepare) over rows already in memory.
    pub(crate) fn prepare_rows(
        &self,
        schema: &[String],
        rows: &[Vec<f64>],
        histories: &[AppHistory],
    ) -> Prepared {
        self.prepare(schema, rows, histories, None)
            .expect("in-RAM preparation does no I/O")
    }

    /// Raw dense rows → the training matrix, column at a time:
    ///
    /// 1. stream every row through the prefix projection and the
    ///    (cell-local) log1p into the raw working matrix;
    /// 2. per column, the standardizer's mean and std and, when filtering,
    ///    the selection score of the standardized column;
    /// 3. the kept standardized columns become the training matrix.
    ///
    /// With `spill_dir` both matrices are spilled, so peak memory stays one
    /// column wide.
    fn prepare<R: AsRef<[f64]>>(
        &self,
        schema: &[String],
        rows: impl IntoIterator<Item = R>,
        histories: &[AppHistory],
        spill_dir: Option<&Path>,
    ) -> std::io::Result<Prepared> {
        assert!(!histories.is_empty(), "no histories to train on");

        // Optional prefix projection of the schema, done on column indices
        // so rows stream.
        let (all_feature_names, proj): (Vec<String>, Vec<usize>) = match &self.config.feature_prefix
        {
            Some(prefix) => schema
                .iter()
                .enumerate()
                .filter(|(_, n)| n.starts_with(prefix.as_str()))
                .map(|(i, n)| (n.clone(), i))
                .unzip(),
            None => (schema.to_vec(), (0..schema.len()).collect()),
        };
        let width = all_feature_names.len();

        // Pass 1: stream every row through the (cell-local) log1p into
        // the raw working matrix.
        let mut builder = ColMatrixBuilder::new(width);
        if let Some(dir) = spill_dir {
            builder = builder.spill(&dir.join("raw"))?;
        }
        let mut r = Vec::with_capacity(width);
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), schema.len(), "row width must match schema");
            r.clear();
            r.extend(proj.iter().map(|&i| row[i]));
            if self.config.log_transform {
                for v in r.iter_mut() {
                    *v = signed_log1p(*v);
                }
            }
            builder.push_row(&r)?;
        }
        let n_rows = builder.n_rows();
        assert_eq!(n_rows, histories.len(), "one row per selected history");
        let raw = builder.finish()?;

        // Count target (log10, as in Figure 2).
        let counts: Vec<f64> = histories.iter().map(|h| (h.total as f64).log10()).collect();

        // Pass 2, column-at-a-time: standardizer statistics and (when
        // filtering) selection scores — Pearson vs the count target, or
        // info gain vs the high-severity labels.
        let n = n_rows.max(1) as f64;
        let mut means = vec![0.0; width];
        let mut stds = vec![0.0; width];
        let mut scores = vec![0.0; width];
        let select_labels: Option<Vec<usize>> = (self.config.top_k_features.is_some()
            && self.config.selection_method == SelectionMethod::InfoGainVsHighSeverity)
            .then(|| {
                histories
                    .iter()
                    .map(|h| Hypothesis::AnyHighSeverity.label(h))
                    .collect()
            });
        let (my, syy) = pearson_target_stats(&counts);
        let parent = select_labels.as_deref().map(label_entropy);
        for j in 0..width {
            let mut col = raw.col_owned(j);
            let mut m = 0.0;
            for &v in &col {
                m += v;
            }
            m /= n;
            let mut s = 0.0;
            for &v in &col {
                s += (v - m) * (v - m);
            }
            s = (s / n).sqrt();
            if s < 1e-12 {
                s = 1.0;
            }
            means[j] = m;
            stds[j] = s;
            if self.config.top_k_features.is_some() {
                for v in col.iter_mut() {
                    *v = (*v - m) / s;
                }
                scores[j] = match (&select_labels, parent) {
                    (Some(labels), Some(parent)) => info_gain_column(&col, labels, parent),
                    _ => pearson_column(&col, &counts, my, syy),
                };
            }
        }
        let standardizer = Standardizer { means, stds };

        let kept: Vec<usize> = match self.config.top_k_features {
            Some(k) => {
                let mut idx = top_k(&scores, k.min(width));
                idx.sort_unstable();
                idx
            }
            None => (0..width).collect(),
        };

        // Pass 3: materialize the kept standardized columns as the
        // training matrix — spilled again when out-of-core, so peak RSS
        // stays one column wide.
        let standardized = |&j: &usize| {
            let mut col = raw.col_owned(j);
            for v in col.iter_mut() {
                *v = (*v - standardizer.means[j]) / standardizer.stds[j];
            }
            col
        };
        let matrix = match spill_dir {
            Some(dir) => {
                ColMatrix::spill_columns(&dir.join("train"), n_rows, kept.iter().map(standardized))?
            }
            None => ColMatrix::from_columns(n_rows, kept.iter().map(standardized).collect()),
        };
        // Sort every column once here: each CV fold and forest bootstrap
        // derives its own order from these permutations.
        if matrix.n_cols() > 0 {
            matrix.sorted(0);
        }
        Ok(Prepared {
            matrix,
            standardizer,
            kept,
            all_feature_names,
            counts,
        })
    }

    /// The final fits: one classifier per non-degenerate hypothesis, the
    /// count and severity regressors, and the attribution weights.
    fn fit(&self, prepared: Prepared, histories: &[AppHistory]) -> TrainedModel {
        let Prepared {
            matrix,
            standardizer,
            kept,
            all_feature_names,
            counts,
        } = prepared;

        // Hypothesis classifiers, fanned out over the pool. Models are
        // assembled in battery order, so they are byte-identical for every
        // worker count.
        let labelled = battery_labels(histories);
        let trainable = trainable(&labelled);
        let (w1, w2) = split_workers(self.resolved_train_jobs(), trainable.len());
        let trained = parallel_map(w1, &trainable, |_, (_, labels, _)| {
            let mut model = self.config.learner.make_sized(self.config.forest_trees, w2);
            model.fit_matrix(&matrix, labels);
            model
        });
        let hypotheses = trainable.iter().map(|(h, ..)| *h).zip(trained).collect();

        // Count regressor (always linear, for inspectable weights).
        let mut count_model = LinearRegression::ridge(1.0);
        count_model.fit_matrix(&matrix, &counts);

        // Per-severity-band count regressors — the paper's metric "predicts
        // the number, severity, classification, and impact": high/critical,
        // medium, and low report counts are modelled separately
        // (log10(1+n) targets).
        let severity_models: Vec<(SeverityBand, LinearRegression)> = SeverityBand::ALL
            .iter()
            .map(|&band| {
                let targets: Vec<f64> = histories
                    .iter()
                    .map(|h| (1.0 + band.count(h) as f64).log10())
                    .collect();
                let mut model = LinearRegression::ridge(1.0);
                model.fit_matrix(&matrix, &targets);
                (band, model)
            })
            .collect();

        // Auxiliary risk model for attributions: logistic on CVSS>7 when
        // trainable, else reuse the count weights.
        let risk_labels: Vec<usize> = histories
            .iter()
            .map(|h| Hypothesis::AnyHighSeverity.label(h))
            .collect();
        let risk_weights = if is_trainable(&risk_labels, risk_labels.iter().sum()) {
            let mut lr = LogisticRegression::new();
            lr.fit_matrix(&matrix, &risk_labels);
            lr.weights
        } else {
            count_model.coefficients.clone()
        };

        TrainedModel {
            feature_names: kept.iter().map(|&i| all_feature_names[i].clone()).collect(),
            log_transform: self.config.log_transform,
            standardizer,
            kept,
            all_feature_names,
            hypotheses,
            count_model,
            severity_models,
            risk_weights,
        }
    }

    /// Cross-validate every non-degenerate hypothesis and the count
    /// regressor over the prepared matrix. The worker budget splits into
    /// concurrent hypotheses × concurrent folds each; reports are
    /// assembled in battery order, so they are byte-identical for every
    /// worker count.
    pub(crate) fn cross_validate(
        &self,
        prepared: &Prepared,
        histories: &[AppHistory],
        extraction: PipelineReport,
    ) -> TrainingReport {
        let labelled = battery_labels(histories);
        let trainable = trainable(&labelled);
        let jobs = self.resolved_train_jobs();
        let (w1, w2) = split_workers(jobs, trainable.len());
        let mut reports = parallel_map(w1, &trainable, |_, (_, labels, _)| {
            cross_validate_classifier_jobs(
                || self.config.learner.make_sized(self.config.forest_trees, 1),
                &prepared.matrix,
                labels,
                self.config.folds,
                w2,
            )
        })
        .into_iter();
        let hypothesis_reports = labelled
            .iter()
            .map(|(hypothesis, labels, positives)| HypothesisOutcome {
                hypothesis: *hypothesis,
                report: is_trainable(labels, *positives)
                    .then(|| reports.next().expect("one report per trainable task")),
                base_rate: *positives as f64 / labels.len() as f64,
            })
            .collect();
        let count_cv = cross_validate_regressor_jobs(
            || LinearRegression::ridge(1.0),
            &prepared.matrix,
            &prepared.counts,
            self.config.folds,
            jobs,
        );
        TrainingReport {
            n_apps: histories.len(),
            n_features: prepared.kept.len(),
            learner: self.config.learner,
            hypothesis_reports,
            count_cv,
            extraction,
        }
    }
}

/// The training matrix, and what a model needs to repeat its preparation
/// on new rows.
pub(crate) struct Prepared {
    /// The kept standardized columns, one row per history.
    matrix: ColMatrix,
    standardizer: Standardizer,
    /// Indices of the kept columns within `all_feature_names`.
    kept: Vec<usize>,
    /// The prefix-projected schema, before filtering.
    all_feature_names: Vec<String>,
    /// The log10 vulnerability-count target, one per history.
    counts: Vec<f64>,
}

/// A hypothesis, its labels over the histories, and its positive count.
type Labelled = (Hypothesis, Vec<usize>, usize);

/// Labels for every hypothesis of the standard battery, in battery order.
fn battery_labels(histories: &[AppHistory]) -> Vec<Labelled> {
    standard_battery()
        .into_iter()
        .map(|hypothesis| {
            let labels: Vec<usize> = histories.iter().map(|h| hypothesis.label(h)).collect();
            let positives = labels.iter().sum();
            (hypothesis, labels, positives)
        })
        .collect()
}

/// Single-class labels are degenerate: the constant answer is exact, so no
/// model is trained or cross-validated for them.
fn is_trainable(labels: &[usize], positives: usize) -> bool {
    positives > 0 && positives < labels.len()
}

/// The non-degenerate entries of `labelled`, in order.
fn trainable(labelled: &[Labelled]) -> Vec<&Labelled> {
    labelled
        .iter()
        .filter(|(_, labels, positives)| is_trainable(labels, *positives))
        .collect()
}

/// Split `jobs` workers into `w1` concurrent tasks × `w2` workers each,
/// so total threads stay ≈ `jobs`.
fn split_workers(jobs: usize, tasks: usize) -> (usize, usize) {
    let w1 = jobs.min(tasks).max(1);
    (w1, (jobs / w1).max(1))
}

/// Cross-validation outcome for one hypothesis.
#[derive(Debug, Clone)]
pub struct HypothesisOutcome {
    pub hypothesis: Hypothesis,
    /// None when the labels were degenerate (single class) in this corpus.
    pub report: Option<ClassificationReport>,
    /// Fraction of positive labels.
    pub base_rate: f64,
}

/// The full training report (the numbers EXP-HYP prints).
#[derive(Debug, Clone)]
pub struct TrainingReport {
    pub n_apps: usize,
    pub n_features: usize,
    pub learner: Learner,
    pub hypothesis_reports: Vec<HypothesisOutcome>,
    pub count_cv: RegressionReport,
    /// Feature-extraction report (throughput, failures).
    pub extraction: PipelineReport,
}

impl fmt::Display for TrainingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trained on {} apps × {} features with {}",
            self.n_apps, self.n_features, self.learner
        )?;
        writeln!(
            f,
            "extraction: {} programs at {:.1} programs/sec on {} worker(s), {} degraded",
            self.extraction.programs,
            self.extraction.throughput(),
            self.extraction.jobs,
            self.extraction.errors.len()
        )?;
        writeln!(
            f,
            "count regression (log10): R² = {:.3}, MAE = {:.3}",
            self.count_cv.r_squared, self.count_cv.mae
        )?;
        for h in &self.hypothesis_reports {
            match &h.report {
                Some(r) => writeln!(
                    f,
                    "  {:<24} acc={:.2} f1={:.2} auc={:.2} (base rate {:.2})",
                    h.hypothesis.name(),
                    r.accuracy,
                    r.f1,
                    r.auc,
                    h.base_rate
                )?,
                None => writeln!(
                    f,
                    "  {:<24} degenerate (base rate {:.2})",
                    h.hypothesis.name(),
                    h.base_rate
                )?,
            }
        }
        Ok(())
    }
}

/// The training phase's product: the fitted battery with its inspectable
/// weights. It does not score; [`compile`](TrainedModel::compile) lowers
/// it into the [`CompiledModel`] that every scoring path runs — the §5.3
/// deliverable.
pub struct TrainedModel {
    /// Names of the kept features, in column order.
    pub feature_names: Vec<String>,
    pub log_transform: bool,
    standardizer: Standardizer,
    /// Indices of kept features within the full schema.
    kept: Vec<usize>,
    all_feature_names: Vec<String>,
    hypotheses: Vec<(Hypothesis, BoxedClassifier)>,
    /// log10-count regressor.
    pub count_model: LinearRegression,
    /// Per-severity-band count regressors (log10(1+n) targets).
    severity_models: Vec<(SeverityBand, LinearRegression)>,
    /// Weights used for per-feature attribution.
    pub risk_weights: Vec<f64>,
}

/// The severity bands the metric predicts counts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeverityBand {
    /// CVSS ≥ 7.0 (High + Critical).
    HighOrCritical,
    /// CVSS 4.0 – 6.9.
    Medium,
    /// CVSS 0.1 – 3.9.
    Low,
}

impl SeverityBand {
    pub const ALL: [SeverityBand; 3] = [
        SeverityBand::HighOrCritical,
        SeverityBand::Medium,
        SeverityBand::Low,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SeverityBand::HighOrCritical => "high/critical",
            SeverityBand::Medium => "medium",
            SeverityBand::Low => "low",
        }
    }

    /// Ground-truth count of reports in this band for one history.
    pub fn count(self, history: &cvedb::AppHistory) -> usize {
        use cvss::Severity;
        let get = |s: Severity| history.by_severity.get(&s).copied().unwrap_or(0);
        match self {
            SeverityBand::HighOrCritical => get(Severity::High) + get(Severity::Critical),
            SeverityBand::Medium => get(Severity::Medium),
            SeverityBand::Low => get(Severity::Low) + get(Severity::None),
        }
    }
}

impl TrainedModel {
    /// Lower the whole battery into a [`CompiledModel`]: every boxed
    /// model becomes its flattened `secml` compiled form for batched
    /// scoring and serde-free persistence. Its predictions are
    /// bit-identical to each boxed model's `predict_proba` / `predict`.
    pub fn compile(&self) -> CompiledModel {
        CompiledModel {
            feature_names: self.feature_names.clone(),
            log_transform: self.log_transform,
            standardizer: self.standardizer.clone(),
            kept: self.kept.clone(),
            all_feature_names: self.all_feature_names.clone(),
            hypotheses: self
                .hypotheses
                .iter()
                .map(|(h, m)| {
                    (
                        *h,
                        m.compile().expect("battery learners support compilation"),
                    )
                })
                .collect(),
            count_model: self.count_model.compile().expect("linreg always compiles"),
            severity_models: self
                .severity_models
                .iter()
                .map(|(band, m)| (*band, m.compile().expect("linreg always compiles")))
                .collect(),
            risk_weights: self.risk_weights.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> &'static Corpus {
        crate::testutil::shared_corpus()
    }

    #[test]
    fn trains_and_reports() {
        let corpus = corpus();
        let (model, report) = Trainer::new().train_with_report(corpus);
        assert!(report.n_apps >= 20);
        assert!(report.n_features >= 70);
        assert_eq!(model.feature_names.len(), report.n_features);
        // The degenerate/trained split covers the whole battery.
        assert_eq!(report.hypothesis_reports.len(), standard_battery().len());
        // At least a few hypotheses are non-degenerate on a 10-app corpus.
        let trained = report
            .hypothesis_reports
            .iter()
            .filter(|h| h.report.is_some())
            .count();
        assert!(trained >= 3, "only {trained} hypotheses trainable");
    }

    #[test]
    fn prediction_is_finite_and_positive() {
        let corpus = corpus();
        let model = Trainer::new().train(corpus).compile();
        let report = model.evaluate_program(&corpus.apps[0].program, 1);
        let count = report.predicted_vulnerabilities;
        assert!(count.is_finite() && count >= 0.0);
        for (_, p) in report.hypotheses {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn feature_selection_reduces_width() {
        let corpus = corpus();
        let trainer = Trainer::with_config(TrainerConfig {
            top_k_features: Some(10),
            ..Default::default()
        });
        let (model, report) = trainer.train_with_report(corpus);
        assert_eq!(report.n_features, 10);
        assert_eq!(model.feature_names.len(), 10);
    }

    #[test]
    fn prefix_restriction_works() {
        let corpus = corpus();
        let trainer = Trainer::with_config(TrainerConfig {
            feature_prefix: Some("loc.".into()),
            ..Default::default()
        });
        let (model, _) = trainer.train_with_report(corpus);
        assert!(model.feature_names.iter().all(|n| n.starts_with("loc.")));
    }

    #[test]
    fn info_gain_selection_works() {
        let corpus = corpus();
        let trainer = Trainer::with_config(TrainerConfig {
            top_k_features: Some(10),
            selection_method: SelectionMethod::InfoGainVsHighSeverity,
            ..Default::default()
        });
        let (model, report) = trainer.train_with_report(corpus);
        assert_eq!(report.n_features, 10);
        // The two rankings select from the same pool but need not agree.
        let pearson = Trainer::with_config(TrainerConfig {
            top_k_features: Some(10),
            ..Default::default()
        })
        .train(corpus);
        assert_eq!(model.feature_names.len(), pearson.feature_names.len());
    }

    #[test]
    fn all_learners_train() {
        let corpus = corpus();
        for learner in Learner::ALL {
            let model = Trainer::with_learner(learner).train(corpus).compile();
            let report = model.evaluate_program(&corpus.apps[0].program, 1);
            if let Some(p) = report.high_severity_risk {
                assert!((0.0..=1.0).contains(&p), "{learner}: {p}");
            }
        }
    }

    #[test]
    fn streaming_training_is_bit_identical_to_train() {
        let corpus = corpus();
        let trainer = Trainer::with_config(TrainerConfig {
            top_k_features: Some(14),
            ..Default::default()
        });
        let eager = trainer.train(corpus).compile().to_bytes();

        let (histories, extraction) = trainer.extract_selected(corpus);
        let (schema, rows) = extraction.dense_rows();

        let in_ram = trainer
            .train_streaming(&schema, rows.iter().cloned(), &histories, None)
            .unwrap();
        assert_eq!(
            eager,
            in_ram.compile().to_bytes(),
            "in-RAM streaming differs"
        );

        let dir = std::env::temp_dir().join(format!("clvy-train-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spilled = trainer
            .train_streaming(&schema, rows.iter().cloned(), &histories, Some(&dir))
            .unwrap();
        assert_eq!(
            eager,
            spilled.compile().to_bytes(),
            "spilled streaming differs"
        );

        // Replay's dense-row scorer matches the feature-map scorer.
        let compiled = spilled.compile();
        let report = compiled
            .evaluate_batch(&extraction.features[..1], 1)
            .remove(0);
        let dense = compiled.hypothesis_batch_dense(Hypothesis::AnyHighSeverity, &[&rows[0]]);
        assert!(dense.is_some(), "high-severity hypothesis is trainable");
        assert_eq!(
            report.high_severity_risk.map(f64::to_bits),
            dense.map(|p| p[0].to_bits())
        );
    }

    #[test]
    fn streaming_training_rejects_a_truncated_spill_segment() {
        // More rows than one raw spill segment holds, so a full segment
        // lands on disk mid-stream; the row source then cuts it short by
        // one byte (a full disk, a concurrent cleanup). Training must
        // fail with an error, not panic inside a worker.
        let trainer = Trainer::new();
        let histories: Vec<cvedb::AppHistory> = corpus()
            .db
            .select(&trainer.config.selection)
            .iter()
            .cycle()
            .take(4097)
            .cloned()
            .collect();
        let schema: Vec<String> = vec!["a".into(), "b".into()];
        let dir = std::env::temp_dir().join(format!("clvy-train-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seg = dir.join("raw").join("seg-0.col");
        let cut = std::cell::Cell::new(false);
        let rows = (0..histories.len()).map(|i| {
            if !cut.get() && seg.exists() {
                let len = std::fs::metadata(&seg).unwrap().len();
                let file = std::fs::OpenOptions::new().write(true).open(&seg);
                file.unwrap().set_len(len - 1).unwrap();
                cut.set(true);
            }
            vec![i as f64, (i % 7) as f64]
        });
        let Err(err) = trainer.train_streaming(&schema, rows, &histories, Some(&dir)) else {
            panic!("training over a truncated spill segment succeeded");
        };
        assert!(cut.get(), "no segment was spilled mid-stream");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_display_is_readable() {
        let corpus = corpus();
        let (_, report) = Trainer::new().train_with_report(corpus);
        let text = report.to_string();
        assert!(text.contains("count regression"));
        assert!(text.contains("cvss_gt_7") || text.contains("degenerate"));
    }
}
