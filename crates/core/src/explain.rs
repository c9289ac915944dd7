//! The explanation engine (§5.3, DESIGN.md §12).
//!
//! The paper's deliverable is a *report*, not a probability: per-feature
//! weights are surfaced "so the developer can see which code properties
//! drive the predicted risk". This module upgrades that from static
//! model weights to **exact per-prediction attributions**: every model
//! in the compiled battery decomposes each score into a baseline plus
//! per-feature credits through [`secml::attribution`], with the bitwise
//! invariant `baseline + Σ contributions == score` and predictions
//! bit-identical to [`CompiledModel::evaluate_batch`]. On top sit
//! LEOPARD-style **function-level hotspots** (PAPERS.md): functions are
//! binned by decision complexity and ranked inside each bin by direct
//! vulnerability evidence (taint flows, out-of-bounds accesses,
//! uninitialized uses…), pointing auditors at the code that drives the
//! program-level prediction.
//!
//! [`CompiledModel::explain_batch`] is the batched entry point — it
//! shares the scoring engine's row preparation and runs every model's
//! batch attribution over the whole corpus, so explaining a
//! corpus costs about two scoring passes, not a per-row scalar walk.
//! [`CompiledModel::explain_features`] is the scalar reference path the
//! batched engine must match bit-for-bit.

use crate::hypothesis::Hypothesis;
use crate::metric::{assemble_report, SecurityReport};
use crate::score::{BatteryModel, CompiledModel};
use crate::testbed::Testbed;
use crate::train::SeverityBand;
use minilang::ast::Program;
use secml::dataset::ColMatrix;
use secml::RowAttribution;
use static_analysis::{AnalysisContext, FeatureVector, FunctionContext};
use std::fmt;

/// One model's decomposed output for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelExplanation {
    /// What this model predicts: a hypothesis name (`cvss_gt_7`, …),
    /// `count`, or `severity <band>`.
    pub target: String,
    /// Score-space expectation of the empty query (model prior).
    pub baseline: f64,
    /// The decomposed score (pre-link margin for logistic/NB models).
    pub score: f64,
    /// The model's prediction, bit-identical to the scoring engine.
    pub prediction: f64,
    /// Per-feature credits aligned with [`Explanation::features`];
    /// `baseline + Σ contributions == score` bitwise.
    pub contributions: Vec<f64>,
}

/// A risky function surfaced by the LEOPARD-style ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    pub function: String,
    /// Direct vulnerability evidence score (unitless; higher is worse).
    pub score: f64,
    /// Decision-point cyclomatic complexity — the binning metric.
    pub complexity: usize,
    /// Complexity bin (`⌊log2(complexity + 1)⌋`): hotspots cover every
    /// populated bin, so simple-but-dirty functions still surface.
    pub bin: usize,
    /// Dominant evidence signals, largest first.
    pub signals: Vec<(String, f64)>,
}

/// The full explanation for one application: the ordinary report, every
/// model's exact attribution, and (when a program was available) the
/// function-level hotspots.
#[derive(Debug, Clone)]
pub struct Explanation {
    pub report: SecurityReport,
    /// Kept-feature names, in the contribution vectors' column order.
    pub features: Vec<String>,
    /// One entry per battery model: hypotheses in battery order, then
    /// the count model, then the severity-band models.
    pub models: Vec<ModelExplanation>,
    /// Ranked function hotspots; empty when only a feature vector was
    /// available (no program to analyze).
    pub hotspots: Vec<Hotspot>,
}

impl Explanation {
    /// The explanation for a named target, if present.
    pub fn model(&self, target: &str) -> Option<&ModelExplanation> {
        self.models.iter().find(|m| m.target == target)
    }

    /// Per-feature *risk* credit: the count model's contributions plus
    /// the high-severity hypothesis' margin credits — the two signals
    /// `risk_score` weighs heaviest. The absolute scale mixes log-count
    /// and log-odds units; comparisons use it for *ranking* deltas, not
    /// as a calibrated quantity.
    pub fn risk_contributions(&self) -> Vec<f64> {
        let mut credits = vec![0.0f64; self.features.len()];
        for target in ["count", &Hypothesis::AnyHighSeverity.name()] {
            if let Some(m) = self.model(target) {
                for (c, &v) in credits.iter_mut().zip(&m.contributions) {
                    *c += v;
                }
            }
        }
        credits
    }

    /// Feature names with their risk credits, largest |credit| first
    /// (ties broken by name for determinism).
    pub fn top_risk_features(&self, k: usize) -> Vec<(String, f64)> {
        let mut ranked: Vec<(String, f64)> = self
            .features
            .iter()
            .cloned()
            .zip(self.risk_contributions())
            .collect();
        ranked.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.report)?;
        writeln!(f, "  risk-driving properties (exact attribution):")?;
        for (name, credit) in self.top_risk_features(5) {
            writeln!(f, "    {name:<28} {credit:+.3}")?;
        }
        if !self.hotspots.is_empty() {
            writeln!(f, "  function hotspots:")?;
            for h in &self.hotspots {
                let signals: Vec<String> = h
                    .signals
                    .iter()
                    .take(3)
                    .map(|(name, v)| format!("{name} {v:+.2}"))
                    .collect();
                writeln!(
                    f,
                    "    {:<24} score {:.2} (complexity {}{})",
                    h.function,
                    h.score,
                    h.complexity,
                    if signals.is_empty() {
                        String::new()
                    } else {
                        format!("; {}", signals.join(", "))
                    }
                )?;
            }
        }
        Ok(())
    }
}

impl CompiledModel {
    /// Explain a whole corpus of `(app_name, feature_vector)` pairs, in
    /// input order. Row preparation and report assembly are shared with
    /// [`evaluate_batch`](CompiledModel::evaluate_batch); every model's
    /// batch attribution then replaces its batch scoring, and the
    /// reports are rebuilt from the attribution predictions — which are
    /// bit-identical to the batch scores, so an
    /// explained report equals the scored report exactly, for any
    /// worker count.
    pub fn explain_batch(&self, apps: &[(String, FeatureVector)], jobs: usize) -> Vec<Explanation> {
        // Same small-batch clamp as `evaluate_batch`.
        let jobs = self.clamp_jobs(apps.len(), jobs);
        let rows = self.prepared_rows(apps, jobs);
        let matrix = ColMatrix::from_rows(&rows);
        let attributions: Vec<Vec<RowAttribution>> =
            pipeline::parallel_map(jobs, &self.battery(), |_, model| match model {
                BatteryModel::Classify(m) => m.attribute_batch(&matrix),
                BatteryModel::Regress(m) => m.attribute_batch(&matrix),
            });

        pipeline::parallel_map(jobs, apps, |i, (name, fv)| {
            self.assemble_explanation(name.clone(), fv, &rows[i], |t| &attributions[t][i])
        })
    }

    /// The scalar reference: explain one pre-extracted feature vector
    /// through the per-row attribution walks. Bit-identical to the
    /// corresponding [`explain_batch`](CompiledModel::explain_batch)
    /// entry.
    pub fn explain_features(&self, app: String, fv: &FeatureVector) -> Explanation {
        let row = self.prepare_row(fv);
        let attributions: Vec<RowAttribution> = self
            .battery()
            .iter()
            .map(|model| match model {
                BatteryModel::Classify(m) => m.attribute_row(&row),
                BatteryModel::Regress(m) => m.attribute_row(&row),
            })
            .collect();
        self.assemble_explanation(app, fv, &row, |t| &attributions[t])
    }

    /// Explain a program: extract features, explain them, and attach the
    /// top-`top_k` function hotspots.
    pub fn explain_program(&self, program: &Program, top_k: usize, jobs: usize) -> Explanation {
        let (fv, hotspots) = Testbed::new().extract_with(program, |cx| rank_hotspots_cx(cx, top_k));
        let mut explanation = self
            .explain_batch(&[(program.name.clone(), fv)], jobs)
            .pop()
            .expect("one app in, one explanation out");
        explanation.hotspots = hotspots;
        explanation
    }

    /// Shared assembly: model index `t` follows
    /// [`battery`](CompiledModel::battery) order — hypotheses, then the
    /// count model, then severity bands.
    fn assemble_explanation<'a>(
        &self,
        name: String,
        fv: &FeatureVector,
        row: &[f64],
        att: impl Fn(usize) -> &'a RowAttribution,
    ) -> Explanation {
        let n_hyp = self.hypotheses.len();
        let hypotheses: Vec<(Hypothesis, f64)> = self
            .hypotheses
            .iter()
            .enumerate()
            .map(|(t, (h, _))| (*h, att(t).prediction))
            .collect();
        // Same back-transforms as `evaluate_batch`; the attribution
        // predictions are bit-identical to the scoring kernels', so the
        // assembled report is too.
        let predicted = 10f64.powf(att(n_hyp).prediction).max(0.0);
        let severity: Vec<(SeverityBand, f64)> = self
            .severity_models
            .iter()
            .enumerate()
            .map(|(s, (band, _))| {
                (
                    *band,
                    (10f64.powf(att(n_hyp + 1 + s).prediction) - 1.0).max(0.0),
                )
            })
            .collect();

        let mut models = Vec::with_capacity(n_hyp + 1 + self.severity_models.len());
        for (t, (h, _)) in self.hypotheses.iter().enumerate() {
            models.push(model_explanation(h.name(), att(t)));
        }
        models.push(model_explanation("count".to_string(), att(n_hyp)));
        for (s, (band, _)) in self.severity_models.iter().enumerate() {
            models.push(model_explanation(
                format!("severity {}", band.name()),
                att(n_hyp + 1 + s),
            ));
        }

        let report = assemble_report(
            name,
            fv,
            row,
            &self.feature_names,
            &self.risk_weights,
            hypotheses,
            predicted,
            severity,
        );
        Explanation {
            report,
            features: self.feature_names.clone(),
            models,
            hotspots: Vec::new(),
        }
    }
}

fn model_explanation(target: String, att: &RowAttribution) -> ModelExplanation {
    ModelExplanation {
        target,
        baseline: att.baseline,
        score: att.score,
        prediction: att.prediction,
        contributions: att.contributions.clone(),
    }
}

/// Evidence weights for the hotspot score: direct witnesses of
/// exploitable structure dominate (exposed taint, out-of-bounds writes),
/// softer signals (dead stores, capped path search) tie-break.
const HOTSPOT_SIGNALS: &[(&str, f64)] = &[
    ("taint.exposed_flows", 1.0),
    ("taint.flows", 0.6),
    ("bounds.out_of_bounds", 0.5),
    ("dataflow.uninitialized_uses", 0.3),
    ("bounds.unknown", 0.15),
    ("dataflow.dead_stores", 0.1),
    ("paths.capped", 0.1),
    ("dead_code", 0.1),
];

fn function_signals(fc: &FunctionContext, flows: usize, exposed: usize) -> Vec<(String, f64)> {
    let raw: &[(&str, f64)] = &[
        ("taint.exposed_flows", exposed as f64),
        ("taint.flows", flows as f64),
        ("bounds.out_of_bounds", fc.bounds.out_of_bounds as f64),
        (
            "dataflow.uninitialized_uses",
            fc.dataflow.possibly_uninitialized_uses as f64,
        ),
        ("bounds.unknown", fc.bounds.unknown as f64),
        ("dataflow.dead_stores", fc.dataflow.dead_stores as f64),
        ("paths.capped", fc.paths.capped as usize as f64),
        ("dead_code", fc.has_dead_code as usize as f64),
    ];
    let mut signals: Vec<(String, f64)> = raw
        .iter()
        .filter(|(_, v)| *v > 0.0)
        .map(|(name, v)| {
            let weight = HOTSPOT_SIGNALS
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, w)| *w)
                .expect("signal is registered");
            (name.to_string(), weight * v)
        })
        .collect();
    signals.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    signals
}

/// Rank a program's functions LEOPARD-style: bin by decision complexity,
/// score each function by its direct vulnerability evidence, take the
/// top function of every populated bin (complex bins first), then fill
/// remaining slots by global score. Deterministic: ties break by score
/// descending, then function name ascending.
pub fn rank_hotspots(program: &Program, top_k: usize) -> Vec<Hotspot> {
    let cx = AnalysisContext::build(program);
    rank_hotspots_cx(&cx, top_k)
}

/// [`rank_hotspots`] over an already-built analysis context.
pub fn rank_hotspots_cx(cx: &AnalysisContext, top_k: usize) -> Vec<Hotspot> {
    // Per-function taint flow counts from the shared interprocedural pass.
    let mut spots: Vec<Hotspot> = cx
        .functions
        .iter()
        .map(|fc| {
            let name = &fc.function.name;
            let flows = cx.taint.flows.iter().filter(|f| &f.function == name);
            let (mut total, mut exposed) = (0usize, 0usize);
            for flow in flows {
                total += 1;
                exposed += flow.via_parameters as usize;
            }
            let signals = function_signals(fc, total, exposed);
            let score: f64 = signals.iter().map(|(_, v)| v).sum();
            let complexity = fc.decision_complexity;
            Hotspot {
                function: name.clone(),
                score,
                complexity,
                bin: (complexity + 1).ilog2() as usize,
                signals,
            }
        })
        .filter(|h| h.score > 0.0)
        .collect();
    spots.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.function.cmp(&b.function))
    });

    // LEOPARD coverage: the top function of each populated bin first
    // (most complex bins first), then the global score order.
    let mut picked: Vec<Hotspot> = Vec::new();
    let mut bins_seen: Vec<usize> = Vec::new();
    let mut leaders: Vec<&Hotspot> = Vec::new();
    for spot in &spots {
        if !bins_seen.contains(&spot.bin) {
            bins_seen.push(spot.bin);
            leaders.push(spot);
        }
    }
    leaders.sort_by(|a, b| {
        b.bin
            .cmp(&a.bin)
            .then_with(|| b.score.total_cmp(&a.score))
            .then_with(|| a.function.cmp(&b.function))
    });
    for leader in leaders {
        if picked.len() < top_k {
            picked.push(leader.clone());
        }
    }
    for spot in &spots {
        if picked.len() >= top_k {
            break;
        }
        if !picked.iter().any(|p| p.function == spot.function) {
            picked.push(spot.clone());
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;
    use crate::testutil::{shared_corpus, shared_model};
    use minilang::{parse_program, Dialect};
    use secml::attribution::fold;

    fn corpus_features() -> Vec<(String, FeatureVector)> {
        let corpus = shared_corpus();
        corpus
            .apps
            .iter()
            .take(6)
            .map(|app| (app.spec.name.clone(), Testbed::new().extract(&app.program)))
            .collect()
    }

    #[test]
    fn explanations_decompose_every_model_exactly() {
        let compiled = shared_model().compile();
        let apps = corpus_features();
        let explained = compiled.explain_batch(&apps, 1);
        assert_eq!(explained.len(), apps.len());
        for e in &explained {
            assert_eq!(
                e.models.len(),
                compiled.n_hypotheses() + 1 + e.report.severity_counts.len()
            );
            for m in &e.models {
                assert_eq!(m.contributions.len(), e.features.len(), "{}", m.target);
                assert_eq!(
                    fold(m.baseline, &m.contributions).to_bits(),
                    m.score.to_bits(),
                    "{} does not fold to its score",
                    m.target
                );
            }
        }
    }

    #[test]
    fn explained_reports_equal_scored_reports_bitwise() {
        let compiled = shared_model().compile();
        let apps = corpus_features();
        let scored = compiled.evaluate_batch(&apps, 2);
        let explained = compiled.explain_batch(&apps, 2);
        for (s, e) in scored.iter().zip(&explained) {
            assert_eq!(s.app, e.report.app);
            assert_eq!(
                s.predicted_vulnerabilities.to_bits(),
                e.report.predicted_vulnerabilities.to_bits()
            );
            for ((h1, p1), (h2, p2)) in s.hypotheses.iter().zip(&e.report.hypotheses) {
                assert_eq!(h1, h2);
                assert_eq!(p1.to_bits(), p2.to_bits());
            }
            assert_eq!(s.risk_score().to_bits(), e.report.risk_score().to_bits());
        }
    }

    #[test]
    fn batch_matches_scalar_reference_bitwise() {
        let compiled = shared_model().compile();
        let apps = corpus_features();
        let batch = compiled.explain_batch(&apps, 4);
        for ((name, fv), b) in apps.iter().zip(&batch) {
            let scalar = compiled.explain_features(name.clone(), fv);
            assert_eq!(scalar.features, b.features);
            assert_eq!(scalar.models, b.models);
        }
    }

    #[test]
    fn hotspots_surface_the_risky_function() {
        let program = parse_program(
            "app",
            Dialect::C,
            &[(
                "m.c".into(),
                "@endpoint(network)
                 fn risky(req: str, n: int) {
                     let buf: str[8];
                     strcpy(buf, req);
                     buf[n] = req;
                     system(req);
                 }
                 fn tidy(x: int) {
                     let y: int = x + 1;
                     log_msg(y);
                 }"
                .into(),
            )],
        )
        .unwrap();
        let hotspots = rank_hotspots(&program, 5);
        assert!(!hotspots.is_empty());
        assert_eq!(hotspots[0].function, "risky");
        assert!(hotspots[0].score > 0.0);
        assert!(!hotspots[0].signals.is_empty());
        // The tidy function has no evidence and must not appear.
        assert!(hotspots.iter().all(|h| h.function != "tidy"));
    }

    #[test]
    fn explain_program_attaches_hotspots_and_renders() {
        let corpus = shared_corpus();
        let compiled = shared_model().compile();
        let e = compiled.explain_program(&corpus.apps[0].program, 3, 1);
        assert!(e.hotspots.len() <= 3);
        let text = e.to_string();
        assert!(text.contains("risk-driving properties"));
    }
}
