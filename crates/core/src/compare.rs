//! Comparing programs and versions (§1, §5.3).
//!
//! *"In selecting between two library implementations for use in a web
//! service, our proposed metric would identify which is less likely to have
//! vulnerabilities"* — [`compare_programs`]. And the CI-gate use: *"the
//! classifier can give the developer an evaluation of, say, whether a code
//! change has raised or lowered the risk than the previous version of the
//! code"* — [`version_delta`].

use crate::explain::Explanation;
use crate::metric::SecurityReport;
use crate::score::CompiledModel;
use crate::testbed::Testbed;
use minilang::ast::Program;
use std::fmt;

/// How many per-feature deltas a comparison keeps.
const MAX_DELTAS: usize = 10;

/// One feature's exact risk-credit difference between two candidates.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureDelta {
    pub feature: String,
    /// Risk credit in candidate `a` (see [`Explanation::risk_contributions`]).
    pub a: f64,
    /// Risk credit in candidate `b`.
    pub b: f64,
    /// `b − a` (positive: this property makes b riskier).
    pub delta: f64,
}

/// Outcome of an A/B comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub a: SecurityReport,
    pub b: SecurityReport,
    /// Attribution-backed per-feature deltas, largest |delta| first —
    /// "b is riskier because branch-density +0.31, taint-sinks +0.22".
    pub deltas: Vec<FeatureDelta>,
}

impl Comparison {
    /// Build a comparison from two full explanations: the reports carry
    /// over, and per-feature risk credits difference into ranked deltas
    /// (|delta| descending, ties by feature name, top ten kept). Used by
    /// both [`compare_programs`] and the serving `compare` endpoint, so
    /// wire responses equal the offline result exactly.
    pub fn from_explanations(a: &Explanation, b: &Explanation) -> Comparison {
        let credits_a = a.risk_contributions();
        let credits_b = b.risk_contributions();
        let mut deltas: Vec<FeatureDelta> = a
            .features
            .iter()
            .enumerate()
            .map(|(i, feature)| {
                let (ca, cb) = (credits_a[i], credits_b[i]);
                FeatureDelta {
                    feature: feature.clone(),
                    a: ca,
                    b: cb,
                    delta: cb - ca,
                }
            })
            .filter(|d| d.delta != 0.0)
            .collect();
        deltas.sort_by(|x, y| {
            y.delta
                .abs()
                .total_cmp(&x.delta.abs())
                .then_with(|| x.feature.cmp(&y.feature))
        });
        deltas.truncate(MAX_DELTAS);
        Comparison {
            a: a.report.clone(),
            b: b.report.clone(),
            deltas,
        }
    }

    /// Name of the lower-risk candidate (ties go to `a`).
    pub fn preferred(&self) -> &str {
        if self.b.risk_score() < self.a.risk_score() {
            &self.b.app
        } else {
            &self.a.app
        }
    }

    /// Risk-score difference `b − a` (negative: b is safer).
    pub fn delta(&self) -> f64 {
        self.b.risk_score() - self.a.risk_score()
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: risk {:.0}/100, predicted vulns {:.1}",
            self.a.app,
            self.a.risk_score(),
            self.a.predicted_vulnerabilities
        )?;
        writeln!(
            f,
            "{}: risk {:.0}/100, predicted vulns {:.1}",
            self.b.app,
            self.b.risk_score(),
            self.b.predicted_vulnerabilities
        )?;
        write!(f, "prefer `{}`", self.preferred())?;
        if !self.deltas.is_empty() {
            let riskier = if self.delta() >= 0.0 {
                &self.b.app
            } else {
                &self.a.app
            };
            write!(f, "\n`{riskier}` is riskier because:")?;
            for d in &self.deltas {
                // Print the credit shift towards the riskier candidate so
                // the sign reads "how much this property hurts it".
                let towards = if self.delta() >= 0.0 {
                    d.delta
                } else {
                    -d.delta
                };
                write!(f, "\n  {:<28} {towards:+.3}", d.feature)?;
            }
        }
        Ok(())
    }
}

/// Evaluate two candidate programs and compare, with attribution-backed
/// per-feature deltas: both programs are extracted and explained in one
/// batch over `jobs` workers.
pub fn compare_programs(
    model: &CompiledModel,
    a: &Program,
    b: &Program,
    jobs: usize,
) -> Comparison {
    let testbed = Testbed::new();
    let apps = vec![
        (a.name.clone(), testbed.extract(a)),
        (b.name.clone(), testbed.extract(b)),
    ];
    let explained = model.explain_batch(&apps, jobs);
    Comparison::from_explanations(&explained[0], &explained[1])
}

/// The version-gate verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RiskChange {
    Lowered,
    Unchanged,
    Raised,
}

/// Result of evaluating a code change.
#[derive(Debug, Clone)]
pub struct VersionDelta {
    pub before: SecurityReport,
    pub after: SecurityReport,
    /// Score delta (after − before).
    pub score_delta: f64,
    pub verdict: RiskChange,
}

impl fmt::Display for VersionDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = match self.verdict {
            RiskChange::Lowered => "LOWERED",
            RiskChange::Unchanged => "UNCHANGED",
            RiskChange::Raised => "RAISED",
        };
        write!(
            f,
            "risk {word}: {:.1} → {:.1} ({:+.1})",
            self.before.risk_score(),
            self.after.risk_score(),
            self.score_delta
        )
    }
}

/// The shared gate verdict: deltas within ±1 risk point count as
/// unchanged (measurement noise). `gate`, `watch`, and [`version_delta`]
/// all classify through here so a CI failure means the same thing
/// everywhere.
pub fn classify_delta(score_delta: f64) -> RiskChange {
    if score_delta > 1.0 {
        RiskChange::Raised
    } else if score_delta < -1.0 {
        RiskChange::Lowered
    } else {
        RiskChange::Unchanged
    }
}

/// Evaluate a code change: `before` vs `after` versions of one
/// application, extracted and scored in one batch over `jobs` workers.
pub fn version_delta(
    model: &CompiledModel,
    before: &Program,
    after: &Program,
    jobs: usize,
) -> VersionDelta {
    let testbed = Testbed::new();
    let apps = vec![
        (before.name.clone(), testbed.extract(before)),
        (after.name.clone(), testbed.extract(after)),
    ];
    let mut reports = model.evaluate_batch(&apps, jobs).into_iter();
    let before_report = reports.next().expect("before report");
    let after_report = reports.next().expect("after report");
    delta_from_reports(before_report, after_report)
}

/// Assemble a [`VersionDelta`] from two finished reports — also the
/// `watch` daemon's entry point, which re-scores incrementally and only
/// has reports in hand.
pub fn delta_from_reports(before: SecurityReport, after: SecurityReport) -> VersionDelta {
    let score_delta = after.risk_score() - before.risk_score();
    VersionDelta {
        before,
        after,
        score_delta,
        verdict: classify_delta(score_delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{shared_compiled, shared_model};
    use minilang::{parse_program, Dialect};

    fn model() -> &'static CompiledModel {
        shared_compiled()
    }

    fn program(name: &str, src: &str) -> Program {
        parse_program(name, Dialect::C, &[("m.c".into(), src.into())]).unwrap()
    }

    const RISKY: &str = "@endpoint(network) @priv(root)
        fn handle(req: str, n: int) {
            let buf: str[16];
            strcpy(buf, req);
            system(req);
            printf(req);
            buf[n] = req;
        }";

    const SAFE: &str = "@endpoint(network)
        fn handle(req: str, n: int) {
            if n < 0 || n > 15 { return; }
            if strlen(req) > 15 { return; }
            let buf: str[16];
            strncpy(buf, req, 15);
            log_msg(\"handled\");
        }";

    #[test]
    fn prefers_the_safer_library() {
        let m = model();
        let risky = program("libfast", RISKY);
        let safe = program("libsafe", SAFE);
        let cmp = compare_programs(m, &risky, &safe, 1);
        assert_eq!(cmp.preferred(), "libsafe", "\n{cmp}");
        assert!(cmp.delta() < 0.0);
        // Symmetric call agrees.
        let cmp2 = compare_programs(m, &safe, &risky, 1);
        assert_eq!(cmp2.preferred(), "libsafe");
    }

    #[test]
    fn hardening_change_lowers_risk() {
        let m = model();
        let before = program("app", RISKY);
        let after = program("app", SAFE);
        let delta = version_delta(m, &before, &after, 1);
        assert_eq!(delta.verdict, RiskChange::Lowered, "\n{delta}");
        assert!(delta.score_delta < 0.0);
    }

    #[test]
    fn identity_change_is_unchanged() {
        let m = model();
        let v = program("app", SAFE);
        let delta = version_delta(m, &v, &v, 1);
        assert_eq!(delta.verdict, RiskChange::Unchanged);
        assert_eq!(delta.score_delta, 0.0);
    }

    #[test]
    fn regression_change_raises_risk() {
        let m = model();
        let delta = version_delta(m, &program("app", SAFE), &program("app", RISKY), 1);
        assert_eq!(delta.verdict, RiskChange::Raised, "\n{delta}");
    }

    #[test]
    fn display_formats() {
        let m = model();
        let cmp = compare_programs(m, &program("a", SAFE), &program("b", RISKY), 1);
        assert!(cmp.to_string().contains("prefer"));
        let delta = version_delta(m, &program("a", SAFE), &program("a", RISKY), 1);
        assert!(delta.to_string().contains("RAISED"));
    }

    #[test]
    fn comparison_carries_attribution_deltas() {
        let m = model();
        let cmp = compare_programs(m, &program("a", SAFE), &program("b", RISKY), 1);
        assert!(!cmp.deltas.is_empty(), "distinct programs must differ");
        assert!(cmp.deltas.len() <= 10);
        // Ranked by |delta| descending, and each delta is exact b − a.
        for pair in cmp.deltas.windows(2) {
            assert!(pair[0].delta.abs() >= pair[1].delta.abs());
        }
        for d in &cmp.deltas {
            assert_eq!(d.delta.to_bits(), (d.b - d.a).to_bits());
        }
        assert!(cmp.to_string().contains("riskier because"));
        // Identical inputs produce no deltas.
        let same = compare_programs(m, &program("x", SAFE), &program("x", SAFE), 1);
        assert!(same.deltas.is_empty());
        assert!(!same.to_string().contains("riskier because"));
    }

    /// The shared model round-tripped through `CLVY` bytes: what
    /// `gate --model` scores with instead of retraining.
    fn loaded_model() -> CompiledModel {
        CompiledModel::from_bytes(&shared_model().compile().to_bytes()).expect("model decodes")
    }

    #[test]
    fn compiled_gate_matches_trained_gate() {
        let before = program("app", SAFE);
        let after = program("app", RISKY);
        let trained = version_delta(model(), &before, &after, 1);
        let loaded = version_delta(&loaded_model(), &before, &after, 2);
        assert_eq!(trained.verdict, loaded.verdict);
        assert_eq!(trained.score_delta.to_bits(), loaded.score_delta.to_bits());
        assert_eq!(
            trained.before.risk_score().to_bits(),
            loaded.before.risk_score().to_bits()
        );
    }

    #[test]
    fn classify_delta_thresholds() {
        assert_eq!(classify_delta(1.5), RiskChange::Raised);
        assert_eq!(classify_delta(1.0), RiskChange::Unchanged);
        assert_eq!(classify_delta(0.0), RiskChange::Unchanged);
        assert_eq!(classify_delta(-1.0), RiskChange::Unchanged);
        assert_eq!(classify_delta(-1.2), RiskChange::Lowered);
    }

    #[test]
    fn compiled_route_matches_trained_route() {
        let a = program("a", SAFE);
        let b = program("b", RISKY);
        let via_model = compare_programs(model(), &a, &b, 1);
        let via_compiled = compare_programs(&loaded_model(), &a, &b, 4);
        assert_eq!(via_model.preferred(), via_compiled.preferred());
        assert_eq!(via_model.delta().to_bits(), via_compiled.delta().to_bits());
        assert_eq!(via_model.deltas, via_compiled.deltas);
        // And the compared reports equal the per-program reports bitwise.
        let alone = model().evaluate_program(&a, 1);
        assert_eq!(
            alone.risk_score().to_bits(),
            via_compiled.a.risk_score().to_bits()
        );
    }
}
