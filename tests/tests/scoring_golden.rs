//! Golden-fixture gate for scoring: every learner, trained at the default
//! configuration on `training.golden`'s 12-app corpus, scores the 48
//! synthesized `seeded_app` programs (all four dialects). Every number of
//! every report (as f64 bits), the attributions, the hints and each
//! explanation's per-model attribution must match
//! `fixtures/scoring.golden`, as must one program comparison, one
//! version-gate verdict and one whole-system report.
//!
//! The fixture was frozen from the boxed row-by-row scorer that preceded
//! the compiled engine (the `TrainedModel` report path, since deleted).
//! The compiled engine must reproduce it at any worker count, with its
//! tree programs compiled lazily or linked up front, and through
//! `evaluate_program` as well as `evaluate_batch`.
//!
//! On a mismatch the test names the first differing line and writes the
//! full actual output to `target/tmp/scoring.golden.actual`.

use clairvoyant::metric::SecurityReport;
use clairvoyant::prelude::*;
use clairvoyant::system::{evaluate_system, Component, Containment, Exposure, SystemSpec};
use clairvoyant::{Comparison, SystemReport, VersionDelta};
use integration_tests::{assert_matches_fixture, seeded_app};
use static_analysis::FeatureVector;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

const FIXTURE: &str = include_str!("../fixtures/scoring.golden");

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::generate(&CorpusConfig::small(12, 99)))
}

/// One trained model per learner, in `Learner::ALL` order.
fn models() -> &'static [(Learner, TrainedModel)] {
    static MODELS: OnceLock<Vec<(Learner, TrainedModel)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        Learner::ALL
            .iter()
            .map(|&learner| (learner, Trainer::with_learner(learner).train(corpus())))
            .collect()
    })
}

/// The scored population: `seed-NN` labels and extracted features.
fn apps() -> &'static [(String, FeatureVector)] {
    static APPS: OnceLock<Vec<(String, FeatureVector)>> = OnceLock::new();
    APPS.get_or_init(|| {
        (0..48u64)
            .map(|i| {
                let program = seeded_app(i);
                (program.name.clone(), Testbed::new().extract(&program))
            })
            .collect()
    })
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn opt_bits(v: Option<f64>) -> String {
    v.map_or("none".to_string(), bits)
}

fn digest(values: &[f64]) -> String {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    format!("{:016x}", pipeline::fnv::hash_bytes(&bytes))
}

/// One report in fixture format, every line prefixed with `label`.
fn render_report(out: &mut String, label: &str, r: &SecurityReport) {
    writeln!(
        out,
        "{label} app={} count={} high={} net={} structural={} risk={}",
        r.app,
        bits(r.predicted_vulnerabilities),
        opt_bits(r.high_severity_risk),
        opt_bits(r.network_risk),
        bits(r.structural_risk),
        bits(r.risk_score())
    )
    .unwrap();
    write!(out, "{label} hyp").unwrap();
    for (h, p) in &r.hypotheses {
        write!(out, " {}={}", h.name(), bits(*p)).unwrap();
    }
    write!(out, "\n{label} sev").unwrap();
    for (band, n) in &r.severity_counts {
        write!(out, " {}={}", band.name(), bits(*n)).unwrap();
    }
    out.push('\n');
    for a in &r.attributions {
        writeln!(
            out,
            "{label} attr {} value={} weight={} contribution={}",
            a.feature,
            bits(a.value),
            bits(a.weight),
            bits(a.contribution)
        )
        .unwrap();
    }
    for h in &r.hints {
        writeln!(out, "{label} hint {} | {}", h.advice, h.because).unwrap();
    }
}

/// One explanation's per-model attributions: the baseline, score and
/// prediction bits, and a digest of the per-feature contribution bits.
fn render_explanation(out: &mut String, label: &str, e: &Explanation) {
    for m in &e.models {
        writeln!(
            out,
            "{label} explain {} baseline={} score={} prediction={} contributions={}",
            m.target.replace(' ', "_"),
            bits(m.baseline),
            bits(m.score),
            bits(m.prediction),
            digest(&m.contributions)
        )
        .unwrap();
    }
}

/// The 48 reports and explanations of one learner.
fn render_battery(
    out: &mut String,
    learner: Learner,
    reports: &[SecurityReport],
    explanations: &[Explanation],
) {
    for (i, (report, explanation)) in reports.iter().zip(explanations).enumerate() {
        let label = format!("{learner}/seed-{i:02}");
        render_report(out, &label, report);
        render_explanation(out, &label, explanation);
    }
}

fn system() -> SystemSpec {
    let component = |name: &str, i: u64, exposure, containment| Component {
        name: name.to_string(),
        program: seeded_app(i),
        exposure,
        containment,
    };
    SystemSpec {
        name: "golden-system".into(),
        components: vec![
            component("frontend", 1, Exposure::NetworkFacing, Containment::None),
            component("worker", 6, Exposure::Internal, Containment::Container),
            component("store", 11, Exposure::Internal, Containment::Vm),
            component("logd", 12, Exposure::Infrastructure, Containment::None),
        ],
    }
}

fn render_comparison(out: &mut String, c: &Comparison) {
    writeln!(
        out,
        "compare a={} b={} risk_a={} risk_b={} preferred={} delta={}",
        c.a.app,
        c.b.app,
        bits(c.a.risk_score()),
        bits(c.b.risk_score()),
        c.preferred(),
        bits(c.delta())
    )
    .unwrap();
    for d in &c.deltas {
        writeln!(
            out,
            "compare delta {} a={} b={} delta={}",
            d.feature,
            bits(d.a),
            bits(d.b),
            bits(d.delta)
        )
        .unwrap();
    }
}

fn render_version_delta(out: &mut String, d: &VersionDelta) {
    writeln!(
        out,
        "gate before={} after={} score_delta={} verdict={:?}",
        bits(d.before.risk_score()),
        bits(d.after.risk_score()),
        bits(d.score_delta),
        d.verdict
    )
    .unwrap();
}

fn render_system(out: &mut String, s: &SystemReport) {
    let chain = s
        .escalation_chain
        .as_ref()
        .map_or("none".to_string(), |(from, to)| format!("{from}->{to}"));
    writeln!(
        out,
        "system {} score={} weakest={} chain={chain}",
        s.system,
        bits(s.score),
        s.weakest
    )
    .unwrap();
    for c in &s.components {
        writeln!(
            out,
            "system component {} app={} exposure={} containment={} risk={} weighted={} privileged={}",
            c.name,
            c.report.app,
            c.exposure.name(),
            c.containment.name(),
            bits(c.report.risk_score()),
            bits(c.weighted_risk),
            c.privileged
        )
        .unwrap();
    }
}

const HEADER: &str = "\
# Scoring golden fixture: per learner (default configuration, trained on
# the 12-app training.golden corpus) and per seeded program, every report
# number as f64 bits, the attributions and hints, and per battery model
# the explanation's baseline/score/prediction bits plus an FNV-1a digest
# of its per-feature contribution bits. Then one comparison, one version
# gate and one whole-system report under the logistic model.
";

/// The fixture text from every learner's compiled model — linked up
/// front when `optimize` is set — at `jobs` workers, with the reports
/// from `score`.
fn render_all(
    jobs: usize,
    optimize: bool,
    score: impl Fn(&CompiledModel) -> Vec<SecurityReport>,
) -> String {
    let mut out = String::from(HEADER);
    let compiled: Vec<(Learner, CompiledModel)> = models()
        .iter()
        .map(|(learner, model)| {
            let compiled = model.compile();
            if optimize {
                compiled.optimize();
            }
            (*learner, compiled)
        })
        .collect();
    for (learner, model) in &compiled {
        let explanations = model.explain_batch(apps(), jobs);
        render_battery(&mut out, *learner, &score(model), &explanations);
    }
    let model = &compiled[0].1;
    let comparison = compare_programs(model, &seeded_app(1), &seeded_app(3), jobs);
    render_comparison(&mut out, &comparison);
    let delta = version_delta(model, &seeded_app(4), &seeded_app(5), jobs);
    render_version_delta(&mut out, &delta);
    render_system(&mut out, &evaluate_system(model, &system(), jobs));
    out
}

fn check(actual: &str, what: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/tmp");
    std::fs::create_dir_all(&dir).expect("create target/tmp");
    assert_matches_fixture(FIXTURE, actual, &dir.join("scoring.golden.actual"), what);
}

#[test]
fn batch_reports_match_golden_at_any_worker_count() {
    for jobs in [1, 4] {
        let actual = render_all(jobs, false, |model| model.evaluate_batch(apps(), jobs));
        check(&actual, &format!("evaluate_batch at {jobs} workers"));
    }
}

#[test]
fn optimized_batch_reports_match_golden() {
    let actual = render_all(1, true, |model| model.evaluate_batch(apps(), 1));
    check(&actual, "evaluate_batch of an optimized battery");
}

#[test]
fn program_reports_match_golden() {
    let actual = render_all(1, false, |model| {
        (0..48u64)
            .map(|i| model.evaluate_program(&seeded_app(i), 1))
            .collect()
    });
    check(&actual, "evaluate_program");
}
