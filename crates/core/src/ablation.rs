//! The unified-vs-single-metric ablation (EXP-UNIFIED).
//!
//! The paper's position (§4): *"a weighted aggregation of multiple metrics
//! can provide a more precise estimation of potential vulnerabilities"*
//! than any single noisy metric. This module trains the count regressor and
//! the headline hypothesis on (a) each feature family alone and (b) the
//! full unified vector, and compares cross-validated quality.

use crate::train::{Trainer, TrainerConfig};
use corpus::Corpus;
use std::fmt;

/// The feature families (testbed prefixes) that can stand alone.
pub const FAMILIES: [&str; 10] = [
    "loc.",
    "cyclomatic.",
    "halstead.",
    "counts.",
    "callgraph.",
    "dataflow.",
    "taint.",
    "smells.",
    "bugfind.",
    "rasq.",
];

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// `"unified"` or the family prefix.
    pub family: String,
    /// Cross-validated R² of the log-count regression.
    pub count_r2: f64,
    /// Cross-validated AUC of the CVSS>7 hypothesis (None if degenerate).
    pub high_sev_auc: Option<f64>,
    pub n_features: usize,
}

/// Full ablation result.
#[derive(Debug, Clone)]
pub struct AblationResult {
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    /// The unified row.
    pub fn unified(&self) -> &AblationRow {
        self.rows
            .iter()
            .find(|r| r.family == "unified")
            .expect("unified row present")
    }

    /// Best single-family row by count R².
    pub fn best_single(&self) -> &AblationRow {
        self.rows
            .iter()
            .filter(|r| r.family != "unified")
            .max_by(|a, b| a.count_r2.partial_cmp(&b.count_r2).expect("finite"))
            .expect("at least one family row")
    }

    /// The LoC-only row — the de-facto metric the paper argues against.
    pub fn loc_only(&self) -> &AblationRow {
        self.rows
            .iter()
            .find(|r| r.family == "loc.")
            .expect("loc row present")
    }
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>10} {:>14} {:>10}",
            "features", "count R²", "CVSS>7 AUC", "width"
        )?;
        for row in &self.rows {
            let auc = row
                .high_sev_auc
                .map(|a| format!("{a:.3}"))
                .unwrap_or_else(|| "—".to_string());
            writeln!(
                f,
                "{:<14} {:>10.3} {:>14} {:>10}",
                row.family, row.count_r2, auc, row.n_features
            )?;
        }
        Ok(())
    }
}

/// Run the ablation over a corpus. Every family trains on the same
/// ground truth, so the corpus is extracted once and each run projects
/// its family's columns out of the shared rows.
pub fn run_ablation(corpus: &Corpus) -> AblationResult {
    let config = TrainerConfig {
        // §5.2's "filtering features that are irrelevant": keep the
        // regression honest when the app count is modest relative to
        // the unified vector's width.
        top_k_features: Some(8),
        ..Default::default()
    };
    let (histories, extraction) = Trainer::with_config(config.clone()).extract_selected(corpus);
    let (schema, dense) = extraction.dense_rows();
    let families = std::iter::once(None).chain(FAMILIES.map(Some));
    let rows = families
        .map(|family| {
            let trainer = Trainer::with_config(TrainerConfig {
                feature_prefix: family.map(String::from),
                ..config.clone()
            });
            let prepared = trainer.prepare_rows(&schema, &dense, &histories);
            let report = trainer.cross_validate(&prepared, &histories, extraction.report.clone());
            let high_sev_auc = report
                .hypothesis_reports
                .iter()
                .find(|h| h.hypothesis.name() == "cvss_gt_7")
                .and_then(|h| h.report.as_ref())
                .map(|r| r.auc);
            AblationRow {
                family: family.unwrap_or("unified").to_string(),
                count_r2: report.count_cv.r_squared,
                high_sev_auc,
                n_features: report.n_features,
            }
        })
        .collect();
    AblationResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn ablation() -> &'static AblationResult {
        static RESULT: std::sync::OnceLock<AblationResult> = std::sync::OnceLock::new();
        RESULT.get_or_init(|| run_ablation(crate::testutil::shared_corpus()))
    }

    #[test]
    fn has_all_rows() {
        let result = ablation();
        assert_eq!(result.rows.len(), 1 + FAMILIES.len());
        assert_eq!(result.rows[0].family, "unified");
        assert!(result.unified().n_features >= result.loc_only().n_features);
    }

    #[test]
    fn unified_beats_loc_only() {
        // The paper's core claim, on a corpus where quality factors carry
        // most of the variance LoC cannot see.
        let result = ablation();
        assert!(
            result.unified().count_r2 > result.loc_only().count_r2,
            "unified {:.3} ≤ loc {:.3}\n{result}",
            result.unified().count_r2,
            result.loc_only().count_r2,
        );
    }

    #[test]
    fn display_renders_table() {
        let text = ablation().to_string();
        assert!(text.contains("unified"));
        assert!(text.contains("loc."));
        assert!(text.contains("count R²"));
    }
}
