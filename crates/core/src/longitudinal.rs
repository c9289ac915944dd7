//! Longitudinal replay: the retrain → hot-redeploy loop.
//!
//! The ROADMAP's scale-out item: the clairvoyant metric only pays off if
//! it can be *re-estimated* as the application population evolves. This
//! driver replays simulated epochs over a [`corpus::LongitudinalStream`]:
//!
//! 1. **Label, then extract** — every app is labelled from its synthesis
//!    plan ([`LongitudinalStream::epoch_app`], no code generated), and a
//!    sliding ground-truth window (the most recent `window_years` of
//!    revealed CVE records) selects the training apps, as §5.1 selects by
//!    CVE history before measuring code. Only selected apps without a
//!    cached dense row for their current code are materialized and
//!    extracted ([`pipeline::extract_batch`] over a [`Testbed`]), so the
//!    per-epoch cost follows the selected churn, not the population.
//! 2. **Retrain** — the model is retrained on the selected rows through
//!    [`Trainer::train_streaming`], spilling its working matrices to disk
//!    when `out_of_core` is set, and compiled once: the one
//!    [`CompiledModel`] both measures drift and is deployed.
//! 3. **Measure drift** — the previous epoch's model is scored on the
//!    *new* epoch's labels (AUC + Brier on the high-severity hypothesis)
//!    next to the refreshed model; the gap is the cost of serving stale.
//! 4. **Hot-redeploy** — the refreshed model's `CLVY` bytes are written
//!    under the work dir, and handed to the `deploy` hook, which
//!    a serving fleet implements with the existing `reload` op.
//!
//! Everything is deterministic: the same config produces byte-identical
//! models, fingerprints and drift numbers (see
//! [`LongitudinalReport::drift_json`], the CI equality gate).

use crate::hypothesis::Hypothesis;
use crate::score::CompiledModel;
use crate::testbed::Testbed;
use crate::train::{Trainer, TrainerConfig};
use corpus::{LongitudinalStream, StreamConfig};
use cvedb::CveDatabase;
use minilang::ast::Program;
use pipeline::Extractor as _;
use secml::eval::{brier_score, roc_auc};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Apps materialized per extraction batch: bounds how many programs are
/// resident at once, however large the population.
const EXTRACT_CHUNK: usize = 64;

/// Configuration for [`replay`].
#[derive(Debug, Clone)]
pub struct LongitudinalConfig {
    /// The evolving population.
    pub stream: StreamConfig,
    /// Number of epochs to replay.
    pub epochs: usize,
    /// Sliding ground-truth window: each epoch trains on records revealed
    /// within the last `window_years` years up to its cutoff. Must stay
    /// comfortably above the selection rule's 5-year history floor.
    pub window_years: i32,
    /// Trainer settings (selection criteria, learner, feature filter…).
    pub trainer: TrainerConfig,
    /// Where per-epoch `CLVY` models and spill matrices are written.
    pub work_dir: PathBuf,
    /// Spill training matrices to disk instead of holding them in RAM.
    pub out_of_core: bool,
}

impl Default for LongitudinalConfig {
    fn default() -> LongitudinalConfig {
        LongitudinalConfig {
            stream: StreamConfig::default(),
            epochs: 3,
            window_years: 10,
            trainer: TrainerConfig::default(),
            work_dir: std::env::temp_dir().join("clairvoyant-longitudinal"),
            out_of_core: true,
        }
    }
}

/// What one replayed epoch produced.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    pub epoch: usize,
    /// Ground-truth cutoff year for this epoch.
    pub cutoff_year: i32,
    /// Apps whose code was rewritten this epoch (all of them at epoch 0).
    pub apps_changed: usize,
    /// Apps materialized and extracted this epoch: selected apps with no
    /// cached row for their current code.
    pub apps_extracted: usize,
    /// Apps passing ground-truth selection (= training rows).
    pub trained_apps: usize,
    /// Kept features after selection.
    pub n_features: usize,
    /// Where the epoch's `CLVY` model was written.
    pub model_path: PathBuf,
    /// FNV-1a fingerprint of the model bytes — matches the serve
    /// daemon's reported fingerprint after a reload of this file.
    pub fingerprint: String,
    /// Previous epoch's model scored on THIS epoch's high-severity
    /// labels (None at epoch 0) — the drift being measured.
    pub stale_auc: Option<f64>,
    pub stale_brier: Option<f64>,
    /// The refreshed model on the same labels.
    pub fresh_auc: f64,
    pub fresh_brier: f64,
    pub extract_ms: u128,
    pub retrain_ms: u128,
}

/// The full replay outcome.
#[derive(Debug, Clone)]
pub struct LongitudinalReport {
    /// Population size.
    pub apps: usize,
    pub epochs: Vec<EpochOutcome>,
}

impl LongitudinalReport {
    /// A deterministic JSON rendering of everything except timings and
    /// file paths — two replays of the same config must produce equal
    /// strings (the CI drift-report equality gate).
    pub fn drift_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"apps\":{},\"epochs\":[", self.apps);
        for (i, e) in self.epochs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"epoch\":{},\"cutoff_year\":{},\"apps_changed\":{},\"trained_apps\":{},\
                 \"n_features\":{},\"fingerprint\":\"{}\",\"stale_auc\":{},\"stale_brier\":{},\
                 \"fresh_auc\":{:.12},\"fresh_brier\":{:.12}}}",
                e.epoch,
                e.cutoff_year,
                e.apps_changed,
                e.trained_apps,
                e.n_features,
                e.fingerprint,
                e.stale_auc
                    .map_or("null".to_string(), |v| format!("{v:.12}")),
                e.stale_brier
                    .map_or("null".to_string(), |v| format!("{v:.12}")),
                e.fresh_auc,
                e.fresh_brier,
            );
        }
        s.push_str("]}");
        s
    }
}

/// Per-app replay cache: the raw dense feature row (schema order,
/// pre-transform) of the code generation it was extracted from. Filled
/// only for selected apps; refreshed when a selected app's last-changed
/// epoch moves.
struct AppCache {
    last_changed: usize,
    dense: Vec<f64>,
}

/// An epoch's compiled model plus the training-time base rate used when
/// the high-severity hypothesis was degenerate. The one model both
/// measures drift and is written out as the epoch's `CLVY` bytes.
struct EpochModel {
    model: CompiledModel,
    base_rate: f64,
}

impl EpochModel {
    /// AUC + Brier of this model on the given labelled dense rows, scored
    /// in one batch.
    fn score(&self, rows: &[&[f64]], labels: &[usize]) -> (f64, f64) {
        let probs = self
            .model
            .hypothesis_batch_dense(Hypothesis::AnyHighSeverity, rows)
            .unwrap_or_else(|| vec![self.base_rate; rows.len()]);
        (roc_auc(labels, &probs), brier_score(labels, &probs))
    }
}

/// Replay `config.epochs` epochs; `deploy(epoch, clvy_path)` is invoked
/// after each epoch's model is written (a serve fleet passes a
/// `reload`-issuing hook; offline callers pass `|_, _| Ok(())`).
pub fn replay(
    config: &LongitudinalConfig,
    mut deploy: impl FnMut(usize, &Path) -> Result<(), String>,
) -> io::Result<LongitudinalReport> {
    std::fs::create_dir_all(&config.work_dir)?;
    let stream = LongitudinalStream::new(config.stream.clone());
    let apps = config.stream.apps;
    let testbed = Testbed::new();
    // Feature names are program-independent, so the degraded vector's
    // sorted names are every extracted vector's schema.
    let mut schema: Vec<String> = testbed
        .degraded()
        .names()
        .into_iter()
        .map(str::to_string)
        .collect();
    schema.sort();
    let mut cache: Vec<Option<AppCache>> = (0..apps).map(|_| None).collect();
    let mut prev: Option<EpochModel> = None;
    let mut epochs_out = Vec::new();

    for epoch in 0..config.epochs {
        let t_extract = Instant::now();
        let cutoff = stream.cutoff_year(epoch);
        let floor = cutoff - config.window_years + 1;

        // Label every app from its plan; no code is generated.
        let mut apps_changed = 0usize;
        let mut index_of: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        let mut db = CveDatabase::new();
        for i in 0..apps {
            let labelled = stream.epoch_app(i, epoch);
            apps_changed += usize::from(labelled.changed);
            for r in labelled.records {
                if r.published.year >= floor {
                    db.insert(r);
                }
            }
            index_of.insert(labelled.app.spec.name, (i, labelled.last_changed));
        }

        // Sliding-window ground truth → the apps to train on.
        let histories = db.select(&config.trainer.selection);
        assert!(
            !histories.is_empty(),
            "epoch {epoch}: no app passed selection — widen window_years"
        );

        // Materialize and extract only the selected apps whose current
        // code has no cached row.
        let stale: Vec<(usize, usize)> = histories
            .iter()
            .map(|h| index_of[h.app.as_str()])
            .filter(|&(i, last_changed)| {
                cache[i]
                    .as_ref()
                    .is_none_or(|c| c.last_changed != last_changed)
            })
            .collect();
        for chunk in stale.chunks(EXTRACT_CHUNK) {
            let built: Vec<Program> = chunk
                .iter()
                .map(|&(i, last_changed)| stream.materialize(i, last_changed).0.program)
                .collect();
            let programs: Vec<&Program> = built.iter().collect();
            let (vectors, _) = pipeline::extract_batch(&testbed, &programs, config.trainer.jobs);
            for (&(i, last_changed), fv) in chunk.iter().zip(vectors) {
                let mut dense = Vec::new();
                fv.fill_dense(&schema, &mut dense);
                cache[i] = Some(AppCache {
                    last_changed,
                    dense,
                });
            }
        }
        let extract_ms = t_extract.elapsed().as_millis();
        let dense_of = |app: &str| -> &[f64] {
            cache[index_of[app].0]
                .as_ref()
                .expect("selected app is cached")
                .dense
                .as_slice()
        };

        let t_retrain = Instant::now();
        let trainer = Trainer::with_config(config.trainer.clone());
        let spill_dir = config
            .out_of_core
            .then(|| config.work_dir.join(format!("spill-{epoch}")));
        let model = trainer.train_streaming(
            &schema,
            histories.iter().map(|h| dense_of(&h.app).to_vec()),
            &histories,
            spill_dir.as_deref(),
        )?;
        let retrain_ms = t_retrain.elapsed().as_millis();

        // Drift: stale vs fresh on this epoch's labels.
        let labels: Vec<usize> = histories
            .iter()
            .map(|h| Hypothesis::AnyHighSeverity.label(h))
            .collect();
        let base_rate = labels.iter().sum::<usize>() as f64 / labels.len() as f64;
        let rows: Vec<&[f64]> = histories.iter().map(|h| dense_of(&h.app)).collect();
        let fresh = EpochModel {
            model: model.compile(),
            base_rate,
        };
        let (fresh_auc, fresh_brier) = fresh.score(&rows, &labels);
        let (stale_auc, stale_brier) = match &prev {
            Some(p) => {
                let (a, b) = p.score(&rows, &labels);
                (Some(a), Some(b))
            }
            None => (None, None),
        };

        // Persist the compiled model and hand it to the fleet.
        let bytes = fresh.model.to_bytes();
        let fingerprint = format!("{:016x}", pipeline::fnv::hash_bytes(&bytes));
        let model_path = config.work_dir.join(format!("epoch-{epoch}.clvy"));
        std::fs::write(&model_path, &bytes)?;
        deploy(epoch, &model_path).map_err(io::Error::other)?;

        epochs_out.push(EpochOutcome {
            epoch,
            cutoff_year: cutoff,
            apps_changed,
            apps_extracted: stale.len(),
            trained_apps: histories.len(),
            n_features: fresh.model.feature_names.len(),
            model_path,
            fingerprint,
            stale_auc,
            stale_brier,
            fresh_auc,
            fresh_brier,
            extract_ms,
            retrain_ms,
        });
        prev = Some(fresh);
        if let Some(dir) = spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    Ok(LongitudinalReport {
        apps,
        epochs: epochs_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(tag: &str) -> LongitudinalConfig {
        LongitudinalConfig {
            stream: StreamConfig {
                apps: 24,
                ..StreamConfig::default()
            },
            epochs: 3,
            work_dir: std::env::temp_dir().join(format!(
                "clairvoyant-longi-test-{}-{tag}",
                std::process::id()
            )),
            ..LongitudinalConfig::default()
        }
    }

    #[test]
    fn replay_is_deterministic_and_incremental() {
        let mut deployed = Vec::new();
        let config = tiny_config("a");
        let report = replay(&config, |e, p| {
            deployed.push((e, p.to_path_buf()));
            Ok(())
        })
        .unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(deployed.len(), 3);
        // Epoch 0 rewrites everything; later epochs only churn.
        assert_eq!(report.epochs[0].apps_changed, 24);
        assert!(report.epochs[1].apps_changed < 24);
        // Label first: epoch 0 extracts exactly the apps it trains on,
        // and no epoch extracts an app it does not train on.
        let first = &report.epochs[0];
        assert_eq!(first.apps_extracted, first.trained_apps);
        assert!(first.apps_extracted < first.apps_changed);
        for e in &report.epochs {
            assert!(e.apps_extracted <= e.trained_apps, "epoch {}", e.epoch);
        }
        for e in &report.epochs {
            assert!(e.trained_apps > 0);
            assert!(e.fingerprint.len() == 16);
            assert!(e.model_path.exists());
            assert!((0.0..=1.0).contains(&e.fresh_auc));
        }
        assert!(report.epochs[1].stale_auc.is_some());
        assert!(report.epochs[0].stale_auc.is_none());

        // Same config ⇒ identical drift report and model bytes.
        let config_b = LongitudinalConfig {
            work_dir: std::env::temp_dir()
                .join(format!("clairvoyant-longi-test-{}-b", std::process::id())),
            ..tiny_config("a")
        };
        let report_b = replay(&config_b, |_, _| Ok(())).unwrap();
        assert_eq!(report.drift_json(), report_b.drift_json());
        for (x, y) in report.epochs.iter().zip(&report_b.epochs) {
            assert_eq!(
                std::fs::read(&x.model_path).unwrap(),
                std::fs::read(&y.model_path).unwrap(),
                "epoch {} models differ across replays",
                x.epoch
            );
        }
    }

    #[test]
    fn out_of_core_matches_in_ram_models() {
        let mut a = tiny_config("ram");
        a.out_of_core = false;
        let mut b = tiny_config("ooc");
        b.out_of_core = true;
        let ra = replay(&a, |_, _| Ok(())).unwrap();
        let rb = replay(&b, |_, _| Ok(())).unwrap();
        assert_eq!(ra.drift_json(), rb.drift_json());
        for (x, y) in ra.epochs.iter().zip(&rb.epochs) {
            assert_eq!(x.fingerprint, y.fingerprint, "epoch {}", x.epoch);
        }
    }

    #[test]
    fn deploy_errors_propagate() {
        let config = tiny_config("err");
        let err = replay(&config, |_, _| Err("fleet unreachable".into())).unwrap_err();
        assert!(err.to_string().contains("fleet unreachable"));
    }
}
