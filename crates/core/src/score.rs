//! Risk scoring: the one engine every scoring path runs.
//!
//! Training produces a [`TrainedModel`](crate::train::TrainedModel), a
//! builder of boxed per-row models;
//! [`TrainedModel::compile`](crate::train::TrainedModel::compile) lowers
//! the whole battery into a [`CompiledModel`] of flattened `secml` models
//! ([`CompiledClassifier`] / [`CompiledRegressor`]), and that is the only
//! type that scores. [`CompiledModel::evaluate_batch`] scores a whole
//! corpus at once: feature rows are prepared into one reused scratch
//! buffer (no per-app allocation), assembled into a single columnar
//! [`ColMatrix`], and every model in the battery scores the full matrix
//! with its compiled `predict_batch` engine, fanned out over the pipeline
//! work-stealing pool. Reports are identical for any worker count, and
//! equal bit for bit the reports of the boxed row-by-row scorer this
//! engine replaced (frozen in `tests/fixtures/scoring.golden`).
//!
//! Compiled models also persist: [`CompiledModel::save`] /
//! [`CompiledModel::load`] write a versioned, serde-free binary format
//! (`CLVY` magic; see DESIGN.md §10), so one training run can feed many
//! scoring runs — the CLI `score` subcommand is built on this.

use crate::hypothesis::{standard_battery, Hypothesis};
use crate::metric::{assemble_report, SecurityReport};
use crate::testbed::Testbed;
use crate::train::SeverityBand;
use minilang::ast::Program;
use secml::bytes::{ByteReader, ByteWriter};
use secml::dataset::ColMatrix;
use secml::preprocess::{signed_log1p, Standardizer};
use secml::{CompiledClassifier, CompiledRegressor};
use static_analysis::FeatureVector;
use std::path::Path;

/// File magic for persisted compiled models.
const MAGIC: &[u8; 4] = b"CLVY";
/// Bump on any layout change; readers reject unknown versions.
const VERSION: u32 = 1;

/// Batches below this many apps run sequentially even when `jobs > 1`:
/// pool fan-out (task dispatch, cross-core cache traffic, per-chunk
/// scratch) costs more than it saves on small corpora — an earlier
/// `BENCH_INFER` snapshot measured 4 workers *slower* than 1 at 117
/// rows. Outputs are bit-identical either way (the worker-count
/// invariance the tests prove), so the clamp is purely a scheduling
/// decision. Shared by [`CompiledModel::evaluate_batch`] and the
/// explanation engine ([`crate::explain`]).
pub const PARALLEL_MIN_ROWS: usize = 128;

/// One model of a compiled battery; [`CompiledModel::battery`] lists them
/// in scoring order.
pub(crate) enum BatteryModel<'a> {
    Classify(&'a CompiledClassifier),
    Regress(&'a CompiledRegressor),
}

/// A trained battery compiled for batched scoring and persistence.
pub struct CompiledModel {
    /// Names of the kept features, in column order.
    pub feature_names: Vec<String>,
    pub(crate) log_transform: bool,
    pub(crate) standardizer: Standardizer,
    pub(crate) kept: Vec<usize>,
    pub(crate) all_feature_names: Vec<String>,
    pub(crate) hypotheses: Vec<(Hypothesis, CompiledClassifier)>,
    pub(crate) count_model: CompiledRegressor,
    pub(crate) severity_models: Vec<(SeverityBand, CompiledRegressor)>,
    pub(crate) risk_weights: Vec<f64>,
}

/// A corpus prepared for battery scoring: the transformed model-input
/// rows and their columnar stacking. Build once with
/// [`CompiledModel::prepare_batch`], score (repeatedly) with
/// [`CompiledModel::score_battery`].
pub struct PreparedBatch {
    pub(crate) rows: Vec<Vec<f64>>,
    pub(crate) matrix: ColMatrix,
}

impl PreparedBatch {
    /// Number of prepared rows (apps).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }
}

/// Transform a raw feature vector into a model input row, reusing the
/// caller's scratch buffers instead of allocating per app. `full` holds
/// the complete schema-width row; `out` receives the kept columns.
pub(crate) fn prepare_row_into(
    all_feature_names: &[String],
    log_transform: bool,
    standardizer: &Standardizer,
    kept: &[usize],
    fv: &FeatureVector,
    full: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    // One linear merge over the sorted map instead of a lookup per
    // schema column; identical values either way.
    fv.fill_dense(all_feature_names, full);
    prepare_dense_into(log_transform, standardizer, kept, full, out);
}

/// The dense half of [`prepare_row_into`]: a raw schema-width row, in
/// place through log1p and standardization, then its kept columns into
/// `out` — the same transform training applied.
fn prepare_dense_into(
    log_transform: bool,
    standardizer: &Standardizer,
    kept: &[usize],
    full: &mut [f64],
    out: &mut Vec<f64>,
) {
    if log_transform {
        for v in full.iter_mut() {
            *v = signed_log1p(*v);
        }
    }
    standardizer.transform_row(full);
    out.clear();
    out.extend(kept.iter().map(|&i| full[i]));
}

impl CompiledModel {
    /// Transform a raw feature vector into the model's input row.
    pub fn prepare_row(&self, fv: &FeatureVector) -> Vec<f64> {
        let mut full = Vec::new();
        let mut out = Vec::new();
        prepare_row_into(
            &self.all_feature_names,
            self.log_transform,
            &self.standardizer,
            &self.kept,
            fv,
            &mut full,
            &mut out,
        );
        out
    }

    pub fn n_hypotheses(&self) -> usize {
        self.hypotheses.len()
    }

    /// Every model of the battery in scoring order: the hypothesis
    /// classifiers (battery order), the count regressor, then the
    /// severity regressors. Prediction vectors, attributions and report
    /// assembly all index models in this order.
    pub(crate) fn battery(&self) -> Vec<BatteryModel<'_>> {
        let classifiers = self
            .hypotheses
            .iter()
            .map(|(_, m)| BatteryModel::Classify(m));
        let regressors = std::iter::once(&self.count_model)
            .chain(self.severity_models.iter().map(|(_, m)| m))
            .map(BatteryModel::Regress);
        classifiers.chain(regressors).collect()
    }

    /// Compile every tree-shaped model in the battery to its quantized,
    /// feature-pruned program (`secml::kernel`) now, and link the
    /// programs to one shared quantization — the eager warm-up of what
    /// batch scoring otherwise does on first use (minus the link). A
    /// load/reload-time step, not a wire-format change: `CLVY` bytes are
    /// untouched, and scoring stays bitwise identical (the programs make
    /// provably the same decisions as the scalar row walk). Returns the
    /// number of models with an active program, non-tree learners
    /// included; tables `compile` refuses keep the scalar row walk and
    /// are not counted.
    pub fn optimize(&self) -> usize {
        let classifiers = self.hypotheses.iter().map(|(_, m)| m.optimize());
        let regressors = std::iter::once(&self.count_model)
            .chain(self.severity_models.iter().map(|(_, m)| m))
            .map(|m| m.optimize());
        let active = classifiers.chain(regressors).filter(|&ok| ok).count();
        // Link the battery's kernels to one shared quantization so a
        // scoring call ranks the batch matrix once, not once per model.
        secml::link_battery(
            self.hypotheses.iter().map(|(_, m)| m),
            std::iter::once(&self.count_model).chain(self.severity_models.iter().map(|(_, m)| m)),
        );
        active
    }

    /// Prepare every app's model-input row, fanned out over `jobs`
    /// workers in contiguous chunks through one reused scratch pair per
    /// chunk (satellite of the batching work: the old path allocated a
    /// schema-width vector per app). Chunks are flattened in order, so
    /// the row layout does not depend on `jobs`. Shared by
    /// [`evaluate_batch`](CompiledModel::evaluate_batch) and the
    /// explanation engine ([`crate::explain`]).
    pub(crate) fn prepared_rows(
        &self,
        apps: &[(String, FeatureVector)],
        jobs: usize,
    ) -> Vec<Vec<f64>> {
        let chunk_len = apps.len().div_ceil(jobs.max(1)).max(1);
        let chunks: Vec<&[(String, FeatureVector)]> = apps.chunks(chunk_len).collect();
        pipeline::parallel_map(jobs, &chunks, |_, chunk| {
            let mut full = Vec::new();
            let mut rows = Vec::with_capacity(chunk.len());
            for (_, fv) in *chunk {
                let mut row = Vec::with_capacity(self.kept.len());
                prepare_row_into(
                    &self.all_feature_names,
                    self.log_transform,
                    &self.standardizer,
                    &self.kept,
                    fv,
                    &mut full,
                    &mut row,
                );
                rows.push(row);
            }
            rows
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Prepare a corpus once for (possibly repeated) battery scoring:
    /// rows transformed in contiguous per-worker chunks, stacked into
    /// the single columnar matrix every model consumes. Splitting this
    /// from [`score_battery`](CompiledModel::score_battery) lets a
    /// caller amortize feature prep across models, ablations or repeat
    /// scoring runs; [`evaluate_batch`](CompiledModel::evaluate_batch)
    /// is exactly the two stages plus report assembly.
    pub fn prepare_batch(&self, apps: &[(String, FeatureVector)], jobs: usize) -> PreparedBatch {
        let rows = self.prepared_rows(apps, self.clamp_jobs(apps.len(), jobs));
        let matrix = ColMatrix::from_rows(&rows);
        PreparedBatch { rows, matrix }
    }

    /// The pure inference stage: every model in the battery (hypothesis
    /// classifiers, count regressor, severity regressors — in that
    /// order) scores the entire prepared matrix with its compiled
    /// batch engine, fanned out over `jobs` pool workers. One
    /// prediction vector per model, rows in corpus order.
    pub fn score_battery(&self, batch: &PreparedBatch, jobs: usize) -> Vec<Vec<f64>> {
        let jobs = self.clamp_jobs(batch.rows.len(), jobs);
        pipeline::parallel_map(jobs, &self.battery(), |_, model| match model {
            BatteryModel::Classify(m) => m.predict_batch(&batch.matrix),
            BatteryModel::Regress(m) => m.predict_batch(&batch.matrix),
        })
    }

    /// Small batches run sequentially regardless of `jobs`; see
    /// [`PARALLEL_MIN_ROWS`].
    pub(crate) fn clamp_jobs(&self, rows: usize, jobs: usize) -> usize {
        if rows < PARALLEL_MIN_ROWS {
            1
        } else if jobs == 0 {
            pipeline::default_workers()
        } else {
            jobs
        }
    }

    /// Score a whole corpus of `(app_name, feature_vector)` pairs into
    /// security reports, in input order.
    ///
    /// [`prepare_batch`](CompiledModel::prepare_batch), then
    /// [`score_battery`](CompiledModel::score_battery), then per-app
    /// report assembly — all three stages fan out over `jobs` pool
    /// workers (0 = all cores). Output is bit-identical for any `jobs`.
    pub fn evaluate_batch(
        &self,
        apps: &[(String, FeatureVector)],
        jobs: usize,
    ) -> Vec<SecurityReport> {
        let batch = self.prepare_batch(apps, jobs);
        let predictions = self.score_battery(&batch, jobs);
        let n_hyp = self.hypotheses.len();
        let jobs = self.clamp_jobs(apps.len(), jobs);
        let rows = &batch.rows;

        // Per-app assembly is independent, so it rides the pool too.
        pipeline::parallel_map(jobs, apps, |i, (name, fv)| {
            let hypotheses: Vec<(Hypothesis, f64)> = self
                .hypotheses
                .iter()
                .zip(&predictions)
                .map(|((h, _), scores)| (*h, scores[i]))
                .collect();
            // Back-transforms: the count model predicts log10(n), the
            // severity models log10(1 + n).
            let predicted = 10f64.powf(predictions[n_hyp][i]).max(0.0);
            let severity: Vec<(SeverityBand, f64)> = self
                .severity_models
                .iter()
                .enumerate()
                .map(|(s, (band, _))| {
                    (
                        *band,
                        (10f64.powf(predictions[n_hyp + 1 + s][i]) - 1.0).max(0.0),
                    )
                })
                .collect();
            assemble_report(
                name.clone(),
                fv,
                &rows[i],
                &self.feature_names,
                &self.risk_weights,
                hypotheses,
                predicted,
                severity,
            )
        })
    }

    /// `hypothesis`'s probabilities for raw dense rows in training-schema
    /// order, prepared as training prepared them and scored in one batch;
    /// `None` when the hypothesis was degenerate at training time.
    pub(crate) fn hypothesis_batch_dense(
        &self,
        hypothesis: Hypothesis,
        rows: &[&[f64]],
    ) -> Option<Vec<f64>> {
        let (_, classifier) = self.hypotheses.iter().find(|(h, _)| *h == hypothesis)?;
        let mut full = Vec::new();
        let prepared: Vec<Vec<f64>> = rows
            .iter()
            .map(|dense| {
                full.clear();
                full.extend_from_slice(dense);
                let mut row = Vec::with_capacity(self.kept.len());
                prepare_dense_into(
                    self.log_transform,
                    &self.standardizer,
                    &self.kept,
                    &mut full,
                    &mut row,
                );
                row
            })
            .collect();
        Some(classifier.predict_batch(&ColMatrix::from_rows(&prepared)))
    }

    /// Evaluate one program end to end: extract its features, then
    /// score them through [`evaluate_batch`](CompiledModel::evaluate_batch).
    /// The report names the program.
    pub fn evaluate_program(&self, program: &Program, jobs: usize) -> SecurityReport {
        let fv = Testbed::new().extract(program);
        self.evaluate_batch(&[(program.name.clone(), fv)], jobs)
            .pop()
            .expect("one app in, one report out")
    }

    /// Serialize to the versioned binary format, in a buffer allocated
    /// once at its exact size.
    pub fn to_bytes(&self) -> Vec<u8> {
        ByteWriter::exact(|w| self.encode(w))
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(MAGIC);
        w.put_u32(VERSION);
        put_strings(w, &self.feature_names);
        w.put_u8(self.log_transform as u8);
        w.put_f64s(&self.standardizer.means);
        w.put_f64s(&self.standardizer.stds);
        w.put_usize(self.kept.len());
        for &i in &self.kept {
            w.put_u64(i as u64);
        }
        put_strings(w, &self.all_feature_names);
        w.put_usize(self.hypotheses.len());
        for (hypothesis, model) in &self.hypotheses {
            // Hypotheses serialize by their stable unique name, matched
            // against the standard battery at load time.
            w.put_str(&hypothesis.name());
            model.encode(w);
        }
        self.count_model.encode(w);
        w.put_usize(self.severity_models.len());
        for (band, model) in &self.severity_models {
            let tag = SeverityBand::ALL
                .iter()
                .position(|b| b == band)
                .expect("band is in ALL") as u8;
            w.put_u8(tag);
            model.encode(w);
        }
        w.put_f64s(&self.risk_weights);
    }

    /// Deserialize from [`to_bytes`](CompiledModel::to_bytes) output.
    pub fn from_bytes(bytes: &[u8]) -> Result<CompiledModel, String> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != MAGIC.as_slice() {
            return Err("not a compiled clairvoyant model (bad magic)".into());
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(format!(
                "unsupported model version {version} (this build reads {VERSION})"
            ));
        }
        let feature_names = get_strings(&mut r)?;
        let log_transform = r.get_u8()? != 0;
        let standardizer = Standardizer {
            means: r.get_f64s()?,
            stds: r.get_f64s()?,
        };
        let n_kept = r.get_usize()?;
        let mut kept = Vec::with_capacity(n_kept.min(1 << 20));
        for _ in 0..n_kept {
            kept.push(
                usize::try_from(r.get_u64()?).map_err(|_| "kept index overflow".to_string())?,
            );
        }
        let all_feature_names = get_strings(&mut r)?;
        // Row prep indexes the schema-width row by every kept index and
        // zips it with the standardizer: a mismatch would panic on every
        // score or silently mis-scale, so it fails decode instead.
        let width = all_feature_names.len();
        if let Some(&i) = kept.iter().find(|&&i| i >= width) {
            return Err(format!(
                "kept feature index {i} is outside the {width}-feature schema"
            ));
        }
        if standardizer.means.len() != width || standardizer.stds.len() != width {
            return Err(format!(
                "standardizer covers {} means and {} stds for a {width}-feature schema",
                standardizer.means.len(),
                standardizer.stds.len()
            ));
        }
        let battery = standard_battery();
        let n_hyp = r.get_usize()?;
        let mut hypotheses = Vec::with_capacity(n_hyp.min(1 << 10));
        for _ in 0..n_hyp {
            let name = r.get_str()?;
            let hypothesis = battery
                .iter()
                .find(|h| h.name() == name)
                .copied()
                .ok_or_else(|| format!("unknown hypothesis `{name}` in model file"))?;
            hypotheses.push((hypothesis, CompiledClassifier::decode(&mut r)?));
        }
        let count_model = CompiledRegressor::decode(&mut r)?;
        let n_sev = r.get_usize()?;
        let mut severity_models = Vec::with_capacity(n_sev.min(16));
        for _ in 0..n_sev {
            let tag = r.get_u8()? as usize;
            let band = *SeverityBand::ALL
                .get(tag)
                .ok_or_else(|| format!("unknown severity band tag {tag}"))?;
            severity_models.push((band, CompiledRegressor::decode(&mut r)?));
        }
        let risk_weights = r.get_f64s()?;
        // Bytes past the model (a longer old file overwritten in place)
        // would load under a fingerprint no `to_bytes` reproduces.
        if !r.is_done() {
            return Err(format!("{} trailing bytes after the model", r.remaining()));
        }
        Ok(CompiledModel {
            feature_names,
            log_transform,
            standardizer,
            kept,
            all_feature_names,
            hypotheses,
            count_model,
            severity_models,
            risk_weights,
        })
    }

    /// Write the model to `path`.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_bytes())
            .map_err(|e| format!("cannot write model to `{}`: {e}", path.display()))
    }

    /// Load a model previously written by [`save`](CompiledModel::save).
    pub fn load(path: &Path) -> Result<CompiledModel, String> {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("cannot read model from `{}`: {e}", path.display()))?;
        CompiledModel::from_bytes(&bytes)
    }
}

fn put_strings(w: &mut ByteWriter, strings: &[String]) {
    w.put_usize(strings.len());
    for s in strings {
        w.put_str(s);
    }
}

fn get_strings(r: &mut ByteReader) -> Result<Vec<String>, String> {
    let n = r.get_usize()?;
    if n > r.remaining() {
        return Err(format!("corrupt string count {n}"));
    }
    (0..n).map(|_| r.get_str()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;
    use crate::testutil::{shared_compiled, shared_corpus, shared_model};
    use crate::train::{Learner, Trainer, TrainerConfig};

    fn corpus_features() -> Vec<(String, FeatureVector)> {
        let corpus = shared_corpus();
        corpus
            .apps
            .iter()
            .take(6)
            .map(|app| (app.spec.name.clone(), Testbed::new().extract(&app.program)))
            .collect()
    }

    fn reports_bit_identical(a: &SecurityReport, b: &SecurityReport) {
        assert_eq!(a.app, b.app);
        assert_eq!(
            a.predicted_vulnerabilities.to_bits(),
            b.predicted_vulnerabilities.to_bits()
        );
        assert_eq!(
            a.high_severity_risk.map(f64::to_bits),
            b.high_severity_risk.map(f64::to_bits)
        );
        assert_eq!(
            a.network_risk.map(f64::to_bits),
            b.network_risk.map(f64::to_bits)
        );
        assert_eq!(a.hypotheses.len(), b.hypotheses.len());
        for ((h1, p1), (h2, p2)) in a.hypotheses.iter().zip(&b.hypotheses) {
            assert_eq!(h1, h2);
            assert_eq!(p1.to_bits(), p2.to_bits(), "{h1:?}");
        }
        for ((s1, n1), (s2, n2)) in a.severity_counts.iter().zip(&b.severity_counts) {
            assert_eq!(s1, s2);
            assert_eq!(n1.to_bits(), n2.to_bits());
        }
        assert_eq!(a.structural_risk.to_bits(), b.structural_risk.to_bits());
        assert_eq!(a.risk_score().to_bits(), b.risk_score().to_bits());
        assert_eq!(a.attributions, b.attributions);
        assert_eq!(a.hints, b.hints);
    }

    #[test]
    fn batch_reports_match_scalar_path_bitwise() {
        // The per-row reference: `explain_features` walks each compiled
        // model one row at a time, and its report must equal the batch
        // kernels' report exactly.
        let compiled = shared_compiled();
        let apps = corpus_features();
        let batch = compiled.evaluate_batch(&apps, 1);
        assert_eq!(batch.len(), apps.len());
        for ((name, fv), report) in apps.iter().zip(&batch) {
            let scalar = compiled.explain_features(name.clone(), fv).report;
            reports_bit_identical(&scalar, report);
        }
    }

    #[test]
    fn worker_count_does_not_change_reports() {
        let compiled = shared_compiled();
        let apps = corpus_features();
        let one = compiled.evaluate_batch(&apps, 1);
        let four = compiled.evaluate_batch(&apps, 4);
        for (a, b) in one.iter().zip(&four) {
            reports_bit_identical(a, b);
        }
    }

    #[test]
    fn worker_fanout_above_the_clamp_is_bit_identical() {
        // Small corpora are clamped to one worker, so tile past
        // PARALLEL_MIN_ROWS to exercise real pool fan-out in all three
        // stages — and prove it still changes nothing.
        let compiled = shared_compiled();
        let seed = corpus_features();
        let apps: Vec<(String, FeatureVector)> = (0..PARALLEL_MIN_ROWS + 5)
            .map(|i| {
                let (name, fv) = &seed[i % seed.len()];
                (format!("{name}-{i}"), fv.clone())
            })
            .collect();
        let one = compiled.evaluate_batch(&apps, 1);
        let four = compiled.evaluate_batch(&apps, 4);
        for (a, b) in one.iter().zip(&four) {
            reports_bit_identical(a, b);
        }
    }

    #[test]
    fn optimized_battery_reports_are_bit_identical() {
        // An eagerly optimized, linked battery against one that compiles
        // its programs unlinked on first use, and both against the
        // scalar per-row walk.
        let model = shared_model();
        let lazy = model.compile();
        let optimized = model.compile();
        assert!(optimized.optimize() > 0, "battery compiles some programs");
        let apps = corpus_features();
        let unlinked = lazy.evaluate_batch(&apps, 1);
        let linked = optimized.evaluate_batch(&apps, 1);
        for (a, b) in unlinked.iter().zip(&linked) {
            reports_bit_identical(a, b);
        }
        for ((name, fv), report) in apps.iter().zip(&linked) {
            let scalar = lazy.explain_features(name.clone(), fv).report;
            reports_bit_identical(&scalar, report);
        }
    }

    #[test]
    fn byte_roundtrip_preserves_predictions() {
        let compiled = shared_compiled();
        let bytes = compiled.to_bytes();
        let loaded = CompiledModel::from_bytes(&bytes).expect("roundtrip");
        let apps = corpus_features();
        let before = compiled.evaluate_batch(&apps, 2);
        let after = loaded.evaluate_batch(&apps, 2);
        for (a, b) in before.iter().zip(&after) {
            reports_bit_identical(a, b);
        }
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        assert!(CompiledModel::from_bytes(b"nope").is_err());
        assert!(CompiledModel::from_bytes(b"CLVY\xFF\xFF\xFF\xFF").is_err());
        let bytes = shared_compiled().to_bytes();
        assert!(CompiledModel::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn kept_indices_outside_the_schema_fail_decode() {
        let mut model = shared_model().compile();
        model.kept[0] = model.all_feature_names.len();
        let err = CompiledModel::from_bytes(&model.to_bytes())
            .err()
            .expect("out-of-range kept index decoded");
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn standardizer_means_of_the_wrong_width_fail_decode() {
        let mut model = shared_model().compile();
        model.standardizer.means.pop();
        let err = CompiledModel::from_bytes(&model.to_bytes())
            .err()
            .expect("short means decoded");
        assert!(err.contains("standardizer"), "{err}");
    }

    #[test]
    fn standardizer_stds_of_the_wrong_width_fail_decode() {
        let mut model = shared_model().compile();
        model.standardizer.stds.push(1.0);
        let err = CompiledModel::from_bytes(&model.to_bytes())
            .err()
            .expect("long stds decoded");
        assert!(err.contains("standardizer"), "{err}");
    }

    #[test]
    fn load_returns_errors_not_panics_on_bad_files() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        // Missing file: an error naming the path, not a panic.
        let missing = dir.join(format!("clairvoyant-no-such-model-{pid}.clvy"));
        let err = CompiledModel::load(&missing).err().expect("missing file");
        assert!(err.contains("cannot read model"), "{err}");

        // Empty file: fails the magic check.
        let empty = dir.join(format!("clairvoyant-empty-model-{pid}.clvy"));
        std::fs::write(&empty, b"").unwrap();
        assert!(CompiledModel::load(&empty).is_err());

        // Truncated file: a real model cut mid-stream must error too.
        let bytes = shared_compiled().to_bytes();
        let truncated = dir.join(format!("clairvoyant-truncated-model-{pid}.clvy"));
        std::fs::write(&truncated, &bytes[..bytes.len() - 9]).unwrap();
        assert!(CompiledModel::load(&truncated).is_err());

        std::fs::remove_file(&empty).ok();
        std::fs::remove_file(&truncated).ok();
    }

    /// The corruption sweep's battery: a small forest model's bytes, and
    /// the 64 rows its decoded mutants must score.
    fn sweep_fixture() -> (Vec<u8>, Vec<(String, FeatureVector)>) {
        let model = Trainer::with_config(TrainerConfig {
            learner: Learner::RandomForest,
            forest_trees: 2,
            top_k_features: Some(8),
            ..Default::default()
        })
        .train(shared_corpus());
        let seed = corpus_features();
        let apps = (0..64)
            .map(|i| {
                let (name, fv) = &seed[i % seed.len()];
                (format!("{name}-{i}"), fv.clone())
            })
            .collect();
        (model.compile().to_bytes(), apps)
    }

    /// Decode `bytes`; a model that decodes must score and explain 1 and
    /// 64 rows.
    fn decode_and_score(bytes: &[u8], apps: &[(String, FeatureVector)]) {
        if let Ok(model) = CompiledModel::from_bytes(bytes) {
            for rows in [&apps[..1], apps] {
                assert_eq!(model.evaluate_batch(rows, 1).len(), rows.len());
                assert_eq!(model.explain_batch(rows, 1).len(), rows.len());
            }
        }
    }

    #[test]
    fn corrupted_model_bytes_fail_decode_or_score_without_panicking() {
        let (bytes, apps) = sweep_fixture();
        for cut in 0..bytes.len() {
            assert!(
                CompiledModel::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte truncation decoded"
            );
        }
        // Bytes past the end — a longer old file overwritten in place
        // without truncation — would be served under a fingerprint that
        // no `to_bytes` reproduces.
        for tail in [vec![0u8], bytes.clone()] {
            let mut appended = bytes.clone();
            appended.extend_from_slice(&tail);
            let err = CompiledModel::from_bytes(&appended)
                .err()
                .unwrap_or_else(|| panic!("{} appended bytes decoded", tail.len()));
            assert!(err.contains("trailing"), "{err}");
        }
        let mut panicked = Vec::new();
        for value in [1u64 << 20, u64::MAX] {
            // Stride 11 (coprime to the 8-byte field width) reaches
            // every alignment and keeps the debug-build sweep short.
            for at in (0..=bytes.len() - 8).step_by(11) {
                let mut mutant = bytes.clone();
                mutant[at..at + 8].copy_from_slice(&value.to_le_bytes());
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    decode_and_score(&mutant, &apps)
                }));
                if outcome.is_err() {
                    panicked.push((at, value));
                }
            }
        }
        assert!(
            panicked.is_empty(),
            "{} of {} overwrites decoded to a model that panics: {panicked:?}",
            panicked.len(),
            bytes.len()
        );
    }
}
