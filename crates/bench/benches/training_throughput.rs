//! BENCH-PERF (part 2): the offline training budget of §1 — corpus
//! generation, the ML training engine, and metric application.
//!
//! The headline measurement times the training engine (columnar matrix +
//! incremental split sweep + pooled forest/CV training) on a prepared
//! dataset: a 150-app corpus, the full feature set, 5 CV folds, and the
//! full standard hypothesis battery with the 20-tree random forest.
//! Results print as a one-line `BENCH_TRAIN {…}` JSON record with the
//! absolute wall time and core count, and the bench asserts that 1-worker
//! and 4-worker training are bit-identical.

use bench::harness::{black_box, BenchmarkId, Criterion};
use bench::{criterion_group, criterion_main};
use clairvoyant::extract::extract_apps;
use clairvoyant::hypothesis::standard_battery;
use clairvoyant::train::TrainerConfig;
use clairvoyant::{Learner, Trainer};
use cvedb::SelectionCriteria;
use secml::dataset::ColMatrix;
use secml::eval::cross_validate_classifier_jobs;
use secml::forest::{ForestConfig, RandomForest};
use secml::preprocess::{log1p_rows, Standardizer};
use secml::Classifier;
use std::time::Instant;

const FOLDS: usize = 5;
const TREES: usize = 20;

/// The trainer's data prep on the full feature set: log1p +
/// standardization of the dense rows, and the labels of every
/// non-degenerate battery hypothesis.
fn prepared_battery(corpus: &corpus::Corpus) -> (Vec<Vec<f64>>, Vec<Vec<usize>>) {
    let histories = corpus.db.select(&SelectionCriteria::default());
    let apps: Vec<&corpus::GeneratedApp> = histories
        .iter()
        .map(|h| {
            corpus
                .apps
                .iter()
                .find(|a| a.spec.name == h.app)
                .expect("app exists")
        })
        .collect();
    let (_, mut rows) = extract_apps(apps, 0).dense_rows();
    log1p_rows(&mut rows);
    let st = Standardizer::fit(&rows);
    st.transform(&mut rows);
    let labelled: Vec<Vec<usize>> = standard_battery()
        .iter()
        .map(|h| histories.iter().map(|hist| h.label(hist)).collect())
        .filter(|labels: &Vec<usize>| {
            let p: usize = labels.iter().sum();
            p > 0 && p < labels.len()
        })
        .collect();
    (rows, labelled)
}

fn bench_training_engine(c: &mut Criterion) {
    let config = corpus::CorpusConfig::small(150, 5);
    let corpus = corpus::Corpus::generate(&config);
    let (rows, batteries) = prepared_battery(&corpus);
    let n_rows = rows.len();
    let n_features = rows.first().map(|r| r.len()).unwrap_or(0);
    eprintln!(
        "training engine: {} apps × {} features, {} trainable hypotheses",
        n_rows,
        n_features,
        batteries.len()
    );

    // Shared columnar matrix, incremental sweep, pooled CV.
    let battery = |jobs: usize| -> Vec<f64> {
        let matrix = ColMatrix::from_rows(&rows);
        matrix.sorted(0);
        batteries
            .iter()
            .map(|labels| {
                let report = cross_validate_classifier_jobs(
                    || {
                        RandomForest::with_config(ForestConfig {
                            n_trees: TREES,
                            ..Default::default()
                        })
                    },
                    &matrix,
                    labels,
                    FOLDS,
                    jobs,
                );
                let mut model = RandomForest::with_config(ForestConfig {
                    n_trees: TREES,
                    jobs,
                    ..Default::default()
                });
                model.fit_matrix(&matrix, labels);
                report.auc
            })
            .collect()
    };

    // Determinism gate: 1 worker and 4 workers must agree bit-for-bit.
    let sequential = battery(1);
    let parallel = battery(4);
    assert_eq!(
        sequential.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        parallel.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "parallel training diverged from sequential"
    );

    let t0 = Instant::now();
    black_box(battery(1));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let cores = pipeline::default_workers();
    println!(
        "BENCH_TRAIN {{\"rows\":{n_rows},\"features\":{n_features},\"trees\":{TREES},\
         \"folds\":{FOLDS},\"hypotheses\":{},\"cores\":{cores},\"wall_ms\":{:.1}}}",
        batteries.len(),
        wall_ms,
    );
    eprintln!("training engine: {wall_ms:.0} ms on {cores} core(s)");

    // Full trainer wall (extraction included) on the same corpus, for the
    // BENCH ledger.
    let mut group = c.benchmark_group("train");
    group.sample_size(5);
    group.bench_with_input(BenchmarkId::from_parameter(150), &150, |b, _| {
        b.iter(|| {
            let trainer = Trainer::with_config(TrainerConfig {
                learner: Learner::RandomForest,
                train_jobs: 1,
                ..Default::default()
            });
            let (model, report) = trainer.train_with_report(&corpus);
            black_box((model.feature_names.len(), report.n_apps))
        })
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("corpus_generate");
    group.sample_size(10);
    for n in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let config = corpus::CorpusConfig::small(n, 5);
            b.iter(|| black_box(corpus::Corpus::generate(&config).db.len()))
        });
    }
    group.finish();
}

fn bench_evaluation(c: &mut Criterion) {
    // Applying the metric must be cheap: this is the inner loop of the CI
    // gate (§5.3).
    let config = corpus::CorpusConfig::small(10, 5);
    let corpus = corpus::Corpus::generate(&config);
    let model = clairvoyant::Trainer::new().train(&corpus).compile();
    model.optimize();
    let program = &corpus.apps[0].program;
    let mut group = c.benchmark_group("evaluate");
    group.sample_size(20);
    group.bench_function("security_report", |b| {
        b.iter(|| black_box(model.evaluate_program(program, 1).risk_score()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_training_engine,
    bench_evaluation
);
criterion_main!(benches);
