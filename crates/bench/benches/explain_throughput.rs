//! BENCH-EXPLAIN: batched per-feature attribution vs plain batched scoring.
//!
//! Explanation is a serving workload, not an offline report: the daemon
//! folds `explain`/`compare` rows into the same batches as `score`, so
//! attribution must stay within a small constant factor of scoring or it
//! would dominate mixed batches. This bench trains the same serving-scale
//! random-forest battery as BENCH-INFER (200 trees per forest), compiles
//! it, and races [`CompiledModel::evaluate_batch`](clairvoyant::CompiledModel)
//! against [`CompiledModel::explain_batch`](clairvoyant::CompiledModel)
//! over a 150-app corpus. Two equality gates run before anything is
//! timed: every explained report must equal its scored report bit-for-bit,
//! and every model of every row must satisfy the fold invariant
//! `baseline + Σ contributions == score` **bitwise**. The result prints
//! as one `BENCH_EXPLAIN` JSON line (snapshot:
//! `results/BENCH_EXPLAIN.json`); `ratio` is explain-vs-score wall time at
//! the better worker count and is asserted `< 3.0` in full runs.
//!
//! `CLAIRVOYANT_BENCH_SMOKE=1` shrinks the corpus, forest and iteration
//! count to a CI-sized equality smoke test (the ratio is still reported
//! but not asserted — tiny corpora are all fixed overhead).

use bench::harness::{black_box, Criterion};
use bench::{criterion_group, criterion_main};
use clairvoyant::prelude::*;

fn bench_explain(_c: &mut Criterion) {
    use std::time::Instant;
    let smoke = std::env::var("CLAIRVOYANT_BENCH_SMOKE").is_ok();
    let (n_apps, n_train, trees, iters) = if smoke {
        (24, 30, clairvoyant::train::DEFAULT_FOREST_TREES, 1)
    } else {
        (150, 150, 200, 20)
    };

    let train_corpus = Corpus::generate(&CorpusConfig::small(n_train, 20170408));
    let model = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        forest_trees: trees,
        ..Default::default()
    })
    .train(&train_corpus);
    let compiled = model.compile();

    let mut score_config = CorpusConfig::small(n_apps, 5);
    score_config.max_kloc = 2.0;
    let score_corpus = Corpus::generate(&score_config);
    let apps = extract_corpus(&score_corpus, 0).features;

    // Equality gates before timing: explained reports must equal scored
    // reports bitwise, and every attribution must fold back to its score
    // exactly, at 1 and 4 workers.
    let scored = compiled.evaluate_batch(&apps, 1);
    for jobs in [1, 4] {
        let explained = compiled.explain_batch(&apps, jobs);
        assert_eq!(explained.len(), scored.len());
        for (report, explanation) in scored.iter().zip(&explained) {
            assert_eq!(report.app, explanation.report.app);
            assert_eq!(
                report.risk_score().to_bits(),
                explanation.report.risk_score().to_bits(),
                "explained risk score diverged for {} at {jobs} worker(s)",
                report.app
            );
            for ((h1, p1), (h2, p2)) in report.hypotheses.iter().zip(&explanation.report.hypotheses)
            {
                assert_eq!(h1, h2);
                assert_eq!(
                    p1.to_bits(),
                    p2.to_bits(),
                    "explained {h1} diverged for {}",
                    report.app
                );
            }
            for m in &explanation.models {
                let folded = secml::attribution::fold(m.baseline, &m.contributions);
                assert_eq!(
                    folded.to_bits(),
                    m.score.to_bits(),
                    "{} does not fold for {} at {jobs} worker(s)",
                    m.target,
                    report.app
                );
            }
        }
    }

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.evaluate_batch(&apps, 1).len());
    }
    let score_1w_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.evaluate_batch(&apps, 4).len());
    }
    let score_4w_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.explain_batch(&apps, 1).len());
    }
    let explain_1w_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.explain_batch(&apps, 4).len());
    }
    let explain_4w_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    // Compare like against like: best explain time vs best score time.
    let ratio = explain_1w_ms.min(explain_4w_ms) / score_1w_ms.min(score_4w_ms).max(1e-9);
    println!(
        "BENCH_EXPLAIN {{\"rows\":{},\"trees\":{trees},\"iters\":{iters},\
         \"score_1w_ms\":{score_1w_ms:.2},\"score_4w_ms\":{score_4w_ms:.2},\
         \"explain_1w_ms\":{explain_1w_ms:.2},\"explain_4w_ms\":{explain_4w_ms:.2},\
         \"ratio\":{ratio:.2},\"folds_exact\":true,\"reports_identical\":true}}",
        apps.len(),
    );
    eprintln!(
        "explanation engine: score {:.1} ms, explain {:.1} ms (best of 1w/4w), \
         ratio {ratio:.2}× over {} apps × {trees}-tree forests",
        score_1w_ms.min(score_4w_ms),
        explain_1w_ms.min(explain_4w_ms),
        apps.len()
    );
    if !smoke {
        assert!(
            ratio < 3.0,
            "batched attribution must stay within 3× of batched scoring, got {ratio:.2}×"
        );
    }
}

criterion_group!(benches, bench_explain);
criterion_main!(benches);
