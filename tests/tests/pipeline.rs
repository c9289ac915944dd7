//! End-to-end integration: corpus → testbed → training → metric, across
//! every crate in the workspace.

use clairvoyant::prelude::*;
use clairvoyant::testbed::Testbed;
use corpus::{Corpus, CorpusConfig};
use cvedb::SelectionCriteria;
use std::sync::OnceLock;

fn shared() -> &'static (Corpus, CompiledModel) {
    static SHARED: OnceLock<(Corpus, CompiledModel)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let mut config = CorpusConfig::small(20, 90210);
        config.language_mix = [14, 2, 2, 2];
        config.max_kloc = 2.5;
        let corpus = Corpus::generate(&config);
        let model = Trainer::new().train(&corpus).compile();
        (corpus, model)
    })
}

#[test]
fn full_pipeline_produces_reports_for_every_app() {
    let (corpus, model) = shared();
    for app in corpus.apps.iter().take(5) {
        let report = model.evaluate_program(&app.program, 1);
        assert!(report.predicted_vulnerabilities.is_finite());
        assert!((0.0..=100.0).contains(&report.risk_score()));
        assert!(!report.attributions.is_empty());
    }
}

#[test]
fn predictions_track_ground_truth_ordering() {
    // Spearman-lite: predicted counts of selected apps should correlate
    // positively with the actual CVE counts.
    let (corpus, model) = shared();
    let histories = corpus.db.select(&SelectionCriteria::default());
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for h in &histories {
        let app = corpus.apps.iter().find(|a| a.spec.name == h.app).unwrap();
        let report = model.evaluate_program(&app.program, 1);
        pairs.push((report.predicted_vulnerabilities, h.total as f64));
    }
    let xs: Vec<f64> = pairs.iter().map(|p| p.0.ln_1p()).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1.ln_1p()).collect();
    let r = secml::linreg::simple_regression(&xs, &ys).r;
    assert!(r > 0.5, "prediction/truth correlation too weak: {r:.3}");
}

#[test]
fn corpus_generation_is_deterministic_end_to_end() {
    let config = CorpusConfig::small(6, 1234);
    let a = Corpus::generate(&config);
    let b = Corpus::generate(&config);
    assert_eq!(a.db.len(), b.db.len());
    for (x, y) in a.apps.iter().zip(&b.apps) {
        assert_eq!(x.files, y.files);
    }
    // And the extracted features agree exactly.
    let t = Testbed::new();
    let fa = t.extract(&a.apps[0].program);
    let fb = t.extract(&b.apps[0].program);
    assert_eq!(fa, fb);
}

#[test]
fn testbed_features_cover_every_family_on_corpus_apps() {
    let (corpus, _) = shared();
    let t = Testbed::new();
    let fv = t.extract(&corpus.apps[0].program);
    for prefix in [
        "loc.",
        "cyclomatic.",
        "halstead.",
        "counts.",
        "callgraph.",
        "dataflow.",
        "taint.",
        "bounds.",
        "paths.",
        "smells.",
        "lang.",
        "bugfind.",
        "rasq.",
        "attackgraph.",
    ] {
        assert!(!fv.with_prefix(prefix).is_empty(), "missing {prefix}");
    }
}

#[test]
fn selection_excludes_short_history_apps() {
    let (corpus, _) = shared();
    let selected = corpus.db.select(&SelectionCriteria::default());
    assert!(selected.iter().all(|h| !h.app.starts_with("young-")));
    assert!(selected.iter().all(|h| h.span_years() >= 5.0));
    assert!(selected.len() >= 18);
}

#[test]
fn comparison_and_gate_work_on_corpus_apps() {
    let (corpus, model) = shared();
    let a = &corpus.apps[0].program;
    let b = &corpus.apps[1].program;
    let cmp = clairvoyant::compare_programs(model, a, b, 1);
    assert!(cmp.preferred() == cmp.a.app || cmp.preferred() == cmp.b.app);
    let delta = clairvoyant::version_delta(model, a, a, 1);
    assert_eq!(delta.score_delta, 0.0);
}
