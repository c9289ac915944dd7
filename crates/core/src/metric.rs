//! Using the metric (§5.3).
//!
//! *"The outcome of the training phase is a classifier, which predicts the
//! number, severity, classification, and impact of vulnerabilities, for any
//! application. … Properties that heavily contribute to a given result can
//! be flagged for developer attention."* A [`SecurityReport`] is that
//! output: predicted count, per-hypothesis risks, the top contributing
//! code properties, and the actionable hints the paper sketches (bounds
//! checking for buffer-overflow risk, firewalling for network risk).

use crate::hypothesis::Hypothesis;
use crate::testbed::Testbed;
use crate::train::{SeverityBand, TrainedModel};
use cvedb::Cwe;
use minilang::ast::Program;
use std::fmt;

/// One feature's contribution to the predicted risk.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    pub feature: String,
    /// Standardized feature value for this program.
    pub value: f64,
    /// Model weight.
    pub weight: f64,
    /// `weight × value` — the signed contribution.
    pub contribution: f64,
}

/// A developer-facing action hint derived from the dominant risk signals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hint {
    pub advice: String,
    /// The signal that triggered it.
    pub because: String,
}

/// The §5.3 evaluation result for one program.
#[derive(Debug, Clone)]
pub struct SecurityReport {
    pub app: String,
    /// Predicted number of (eventually reported) vulnerabilities.
    pub predicted_vulnerabilities: f64,
    /// Probability of ever seeing a CVSS > 7 report.
    pub high_severity_risk: Option<f64>,
    /// Probability of a network-reachable vulnerability.
    pub network_risk: Option<f64>,
    /// Predicted report counts per severity band (high/critical, medium,
    /// low) — the "number, severity" part of the §5.3 output.
    pub severity_counts: Vec<(SeverityBand, f64)>,
    /// All hypothesis probabilities, in battery order.
    pub hypotheses: Vec<(Hypothesis, f64)>,
    /// Direct structural risk in [0, 1], computed from the program's own
    /// exposed taint flows, bug-finder reports, attack-graph reachability
    /// and attack surface (model-free, so it responds to micro-level code
    /// changes the corpus-trained models may be too coarse to see).
    pub structural_risk: f64,
    /// Features contributing most to the risk, largest |contribution| first.
    pub attributions: Vec<Attribution>,
    /// Actionable advice.
    pub hints: Vec<Hint>,
}

impl SecurityReport {
    /// A coarse scalar "risk score" (0–100) blending the learned
    /// predictions (count, severity) with the direct structural signals.
    pub fn risk_score(&self) -> f64 {
        let count_part = (self.predicted_vulnerabilities.max(0.0) + 1.0)
            .log10()
            .min(3.0)
            / 3.0;
        let sev_part = self.high_severity_risk.unwrap_or(0.5);
        (40.0 * count_part + 25.0 * sev_part + 35.0 * self.structural_risk).clamp(0.0, 100.0)
    }

    /// Probability for a specific CWE hypothesis, when trained.
    pub fn cwe_risk(&self, cwe: Cwe) -> Option<f64> {
        self.hypotheses
            .iter()
            .find(|(h, _)| matches!(h, Hypothesis::AnyCwe(c) if *c == cwe))
            .map(|(_, p)| *p)
    }
}

impl fmt::Display for SecurityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "security report for `{}`", self.app)?;
        writeln!(
            f,
            "  predicted vulnerabilities: {:.1}",
            self.predicted_vulnerabilities
        )?;
        if let Some(p) = self.high_severity_risk {
            writeln!(f, "  high-severity risk (CVSS>7): {:.0}%", p * 100.0)?;
        }
        if let Some(p) = self.network_risk {
            writeln!(f, "  network-attack risk (AV:N): {:.0}%", p * 100.0)?;
        }
        if !self.severity_counts.is_empty() {
            let mix: Vec<String> = self
                .severity_counts
                .iter()
                .map(|(band, n)| format!("{} {:.1}", band.name(), n))
                .collect();
            writeln!(f, "  predicted severity mix: {}", mix.join(", "))?;
        }
        writeln!(f, "  risk score: {:.0}/100", self.risk_score())?;
        if !self.attributions.is_empty() {
            writeln!(f, "  top contributing properties:")?;
            for a in self.attributions.iter().take(5) {
                writeln!(
                    f,
                    "    {:<28} contribution {:+.3}",
                    a.feature, a.contribution
                )?;
            }
        }
        for hint in &self.hints {
            writeln!(f, "  hint: {} (because {})", hint.advice, hint.because)?;
        }
        Ok(())
    }
}

/// Evaluate `program` with a trained model.
pub fn evaluate(model: &TrainedModel, program: &Program) -> SecurityReport {
    let fv = Testbed::new().extract(program);
    evaluate_features(model, program.name.clone(), &fv)
}

/// Score a pre-extracted feature vector through the boxed per-row models.
/// This is the reference path the batched engine
/// ([`CompiledModel::evaluate_batch`](crate::score::CompiledModel::evaluate_batch))
/// must match bit-for-bit.
pub fn evaluate_features(
    model: &TrainedModel,
    app: String,
    fv: &static_analysis::FeatureVector,
) -> SecurityReport {
    let row = model.prepare_row(fv);
    let hypotheses = model.all_hypotheses(&row);
    let predicted = model.predicted_count(&row);
    let severity = model.predicted_severity_counts(&row);
    assemble_report(
        app,
        fv,
        &row,
        &model.feature_names,
        &model.risk_weights,
        hypotheses,
        predicted,
        severity,
    )
}

/// Assemble a [`SecurityReport`] from precomputed model outputs. Shared by
/// the boxed per-row path above and the batched scoring engine in
/// [`crate::score`], so the two report shapes cannot drift apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_report(
    app: String,
    fv: &static_analysis::FeatureVector,
    row: &[f64],
    feature_names: &[String],
    risk_weights: &[f64],
    hypotheses: Vec<(Hypothesis, f64)>,
    predicted_vulnerabilities: f64,
    severity_counts: Vec<(SeverityBand, f64)>,
) -> SecurityReport {
    let lookup = |target: Hypothesis| {
        hypotheses
            .iter()
            .find(|(h, _)| *h == target)
            .map(|(_, p)| *p)
    };
    let high_severity_risk = lookup(Hypothesis::AnyHighSeverity);
    let network_risk = lookup(Hypothesis::AnyNetworkAttackable);

    // Attributions from the inspectable risk weights: rank column
    // indices and materialize (clone the names of) only the kept top
    // 10. Selection + a 10-element sort replaces sorting the whole
    // schema (the old stable sort was the hottest part of report
    // assembly). The comparator — |contribution| descending, column
    // index ascending — is a total order, and on ties the stable sort
    // kept indices ascending too, so the ranked prefix is identical.
    // `total_cmp` orders magnitudes (never `-0.0`) as `partial_cmp`
    // does, and ranks a NaN contribution — a damaged model file's
    // weight or scale — first instead of panicking.
    let n = feature_names.len().min(row.len()).min(risk_weights.len());
    let mut ranked: Vec<usize> = (0..n).collect();
    let by_rank = |&a: &usize, &b: &usize| {
        (risk_weights[b] * row[b])
            .abs()
            .total_cmp(&(risk_weights[a] * row[a]).abs())
            .then(a.cmp(&b))
    };
    if n > 10 {
        ranked.select_nth_unstable_by(9, by_rank);
        ranked.truncate(10);
    }
    ranked.sort_by(by_rank);
    let attributions: Vec<Attribution> = ranked
        .into_iter()
        .map(|i| Attribution {
            feature: feature_names[i].clone(),
            value: row[i],
            weight: risk_weights[i],
            contribution: risk_weights[i] * row[i],
        })
        .collect();

    let hints = derive_hints(fv, &hypotheses);

    SecurityReport {
        app,
        predicted_vulnerabilities,
        high_severity_risk,
        network_risk,
        severity_counts,
        hypotheses,
        structural_risk: structural_risk(fv),
        attributions,
        hints,
    }
}

/// Model-free risk from the raw feature vector: saturating sum of the
/// signals that directly witness exploitable structure.
pub fn structural_risk(fv: &static_analysis::FeatureVector) -> f64 {
    let raw = 0.6 * fv.get_or_zero("taint.exposed_flows")
        + 0.25 * fv.get_or_zero("taint.flows")
        + 0.4 * fv.get_or_zero("bugfind.errors")
        + 0.1 * fv.get_or_zero("bugfind.warnings")
        + 0.5 * fv.get_or_zero("bounds.out_of_bounds")
        + 0.8 * fv.get_or_zero("attackgraph.goal_reachable")
        + 0.05 * fv.get_or_zero("rasq.quotient");
    // Normalize per function so big-but-clean programs are not penalized
    // for size alone.
    let functions = fv.get_or_zero("counts.functions").max(1.0);
    let density = raw / functions.sqrt();
    1.0 - (-density / 1.5).exp()
}

/// §5.3's examples, mechanized: map dominant signals to advice.
fn derive_hints(
    fv: &static_analysis::FeatureVector,
    hypotheses: &[(Hypothesis, f64)],
) -> Vec<Hint> {
    let mut hints = Vec::new();
    let prob = |target: &Hypothesis| {
        hypotheses
            .iter()
            .find(|(h, _)| h == target)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    };
    if prob(&Hypothesis::AnyCwe(Cwe::StackBufferOverflow)) > 0.5
        || fv.get_or_zero("bounds.unproved_ratio") > 0.5
    {
        hints.push(Hint {
            advice: "apply bounds checking to buffer writes".into(),
            because: "high stack-buffer-overflow risk".into(),
        });
    }
    if prob(&Hypothesis::AnyNetworkAttackable) > 0.5 {
        hints.push(Hint {
            advice: "place the application behind a firewall or intrusion-protection system".into(),
            because: "a network attack is predicted".into(),
        });
    }
    if fv.get_or_zero("taint.exposed_flows") > 0.0 {
        hints.push(Hint {
            advice: "validate attacker-reachable inputs before use".into(),
            because: format!(
                "{} tainted source-to-sink flows are reachable from interfaces",
                fv.get_or_zero("taint.exposed_flows")
            ),
        });
    }
    if fv.get_or_zero("smells.sparse_comments") > 0.0 {
        hints.push(Hint {
            advice: "raise review coverage on the undocumented modules".into(),
            because: "comment density is below the review threshold".into(),
        });
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{shared_corpus, shared_model};
    use corpus::Corpus;
    use minilang::{parse_program, Dialect};

    fn trained() -> (&'static Corpus, &'static TrainedModel) {
        (shared_corpus(), shared_model())
    }

    #[test]
    fn report_has_all_sections() {
        let (corpus, model) = trained();
        let report = model.evaluate(&corpus.apps[0].program);
        assert_eq!(report.app, corpus.apps[0].spec.name);
        assert!(report.predicted_vulnerabilities.is_finite());
        assert!(!report.attributions.is_empty());
        assert!(report.attributions.len() <= 10);
        let text = report.to_string();
        assert!(text.contains("predicted vulnerabilities"));
        assert!(text.contains("risk score"));
    }

    #[test]
    fn attributions_sorted_by_magnitude() {
        let (corpus, model) = trained();
        let report = model.evaluate(&corpus.apps[1].program);
        for w in report.attributions.windows(2) {
            assert!(w[0].contribution.abs() >= w[1].contribution.abs());
        }
    }

    #[test]
    fn risky_program_gets_buffer_hint() {
        let (_, model) = trained();
        let p = parse_program(
            "risky",
            Dialect::C,
            &[(
                "m.c".into(),
                "@endpoint(network)
                 fn handle(req: str, n: int) {
                     let buf: str[16];
                     strcpy(buf, req);
                     buf[n] = req;
                 }"
                .into(),
            )],
        )
        .unwrap();
        let report = model.evaluate(&p);
        assert!(
            report
                .hints
                .iter()
                .any(|h| h.advice.contains("bounds checking")),
            "hints: {:?}",
            report.hints
        );
        assert!(report
            .hints
            .iter()
            .any(|h| h.advice.contains("validate attacker-reachable inputs")));
    }

    #[test]
    fn risk_score_bounds() {
        let (corpus, model) = trained();
        for app in corpus.apps.iter().take(3) {
            let r = model.evaluate(&app.program);
            let score = r.risk_score();
            assert!((0.0..=100.0).contains(&score), "{score}");
        }
    }

    #[test]
    fn cwe_risk_lookup() {
        let (corpus, model) = trained();
        let report = model.evaluate(&corpus.apps[0].program);
        // The battery always includes CWE-121; probability present iff the
        // hypothesis was trainable on this corpus.
        let p = report.cwe_risk(Cwe::StackBufferOverflow);
        if let Some(p) = p {
            assert!((0.0..=1.0).contains(&p));
        }
        assert!(report
            .cwe_risk(Cwe::MemoryLeak)
            .is_none_or(|p| (0.0..=1.0).contains(&p)));
    }
}
