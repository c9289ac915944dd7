//! Golden-fixture gate for the training pipeline: for every learner at
//! the default configuration, and for the logistic and random-forest
//! learners under each feature-filtering option, the compiled model
//! (FNV-1a digest of its CLVY bytes) and every cross-validation number
//! (as f64 bits) must match `fixtures/training.golden`.
//!
//! `train_with_report` produces the fixture text; `train` and
//! `train_streaming` (in RAM and spilled to disk) must produce the same
//! model bytes for every case, the zero-width cases included (a prefix
//! that matches no feature, and `top_k_features: Some(0)`).
//!
//! On a mismatch the test names the first differing case and line and
//! writes the full actual output to `target/tmp/training.golden.actual`.

use clairvoyant::extract::extract_apps;
use clairvoyant::prelude::*;
use clairvoyant::train::SelectionMethod;
use clairvoyant::TrainingReport;
use integration_tests::assert_matches_fixture;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

const FIXTURE: &str = include_str!("../fixtures/training.golden");

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::generate(&CorpusConfig::small(12, 99)))
}

/// A configuration variant: its label and how it edits the default.
type Variant = (&'static str, fn(&mut TrainerConfig));

/// Every fixture case: a label and its trainer configuration.
fn cases() -> Vec<(String, TrainerConfig)> {
    let mut out: Vec<(String, TrainerConfig)> = Learner::ALL
        .iter()
        .map(|&learner| {
            let config = TrainerConfig {
                learner,
                ..Default::default()
            };
            (format!("{learner}/default"), config)
        })
        .collect();
    let variants: [Variant; 6] = [
        ("top8-pearson", |c| c.top_k_features = Some(8)),
        ("top8-infogain", |c| {
            c.top_k_features = Some(8);
            c.selection_method = SelectionMethod::InfoGainVsHighSeverity;
        }),
        ("prefix-taint", |c| c.feature_prefix = Some("taint.".into())),
        ("prefix-unmatched", |c| {
            c.feature_prefix = Some("no-such-family.".into())
        }),
        ("top0", |c| c.top_k_features = Some(0)),
        ("no-log1p", |c| c.log_transform = false),
    ];
    for learner in [Learner::Logistic, Learner::RandomForest] {
        for (name, apply) in variants {
            let mut config = TrainerConfig {
                learner,
                ..Default::default()
            };
            apply(&mut config);
            out.push((format!("{learner}/{name}"), config));
        }
    }
    out
}

fn digest(model: &TrainedModel) -> String {
    format!(
        "{:016x}",
        pipeline::fnv::hash_bytes(&model.compile().to_bytes())
    )
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// One case in fixture format: the model digest, then the count CV,
/// then one line per hypothesis of the battery.
fn render(label: &str, model: &TrainedModel, report: &TrainingReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{label} clvy={} apps={} features={}",
        digest(model),
        report.n_apps,
        report.n_features
    )
    .unwrap();
    let cv = &report.count_cv;
    writeln!(
        out,
        "{label} count r2={} mae={} rmse={} n={}",
        bits(cv.r_squared),
        bits(cv.mae),
        bits(cv.rmse),
        cv.n
    )
    .unwrap();
    for h in &report.hypothesis_reports {
        write!(
            out,
            "{label} {} base={}",
            h.hypothesis.name(),
            bits(h.base_rate)
        )
        .unwrap();
        match &h.report {
            Some(r) => writeln!(
                out,
                " tp={} tn={} fp={} fn={} acc={} prec={} rec={} f1={} auc={}",
                r.matrix.tp,
                r.matrix.tn,
                r.matrix.fp,
                r.matrix.fn_,
                bits(r.accuracy),
                bits(r.precision),
                bits(r.recall),
                bits(r.f1),
                bits(r.auc)
            ),
            None => writeln!(out, " degenerate"),
        }
        .unwrap();
    }
    out
}

#[test]
fn train_with_report_matches_golden() {
    let mut actual = String::from(
        "# Training golden fixture: per case, the FNV-1a digest of the compiled\n\
         # model's CLVY bytes, then every cross-validation number as f64 bits.\n",
    );
    for (label, config) in cases() {
        let (model, report) = Trainer::with_config(config).train_with_report(corpus());
        actual.push_str(&render(&label, &model, &report));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/tmp");
    std::fs::create_dir_all(&dir).expect("create target/tmp");
    assert_matches_fixture(
        FIXTURE,
        &actual,
        &dir.join("training.golden.actual"),
        "train_with_report",
    );
}

/// The fixture's model digest for `label`.
fn golden_digest(label: &str) -> &'static str {
    FIXTURE
        .lines()
        .find_map(|l| l.strip_prefix(label)?.strip_prefix(" clvy="))
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no fixture digest for {label}"))
}

#[test]
fn train_and_streaming_match_golden_models() {
    let corpus = corpus();
    let selection = TrainerConfig::default().selection;
    let histories = corpus.db.select(&selection);
    let selected: Vec<&corpus::GeneratedApp> = histories
        .iter()
        .map(|h| corpus.apps.iter().find(|a| a.spec.name == h.app).unwrap())
        .collect();
    let (schema, rows) = extract_apps(selected, 0).dense_rows();

    let dir = std::env::temp_dir().join(format!("clvy-train-golden-{}", std::process::id()));
    for (label, config) in cases() {
        let expected = golden_digest(&label);
        let trainer = Trainer::with_config(config);
        assert_eq!(digest(&trainer.train(corpus)), expected, "{label}: train");
        let in_ram = trainer
            .train_streaming(&schema, rows.iter().cloned(), &histories, None)
            .unwrap();
        assert_eq!(digest(&in_ram), expected, "{label}: streaming in RAM");
        let _ = std::fs::remove_dir_all(&dir);
        let spilled = trainer
            .train_streaming(&schema, rows.iter().cloned(), &histories, Some(&dir))
            .unwrap();
        assert_eq!(digest(&spilled), expected, "{label}: streaming spilled");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
