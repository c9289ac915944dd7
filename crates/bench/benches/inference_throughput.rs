//! BENCH-INFER: throughput of the compiled batch scoring engine.
//!
//! The §5.3 workflow scores whole corpora ("for any application"), so
//! serving throughput matters as much as training time. This bench trains
//! a serving-scale random-forest battery (200 trees per forest), compiles
//! it ([`TrainedModel::compile`](clairvoyant::TrainedModel)) and runs
//! [`CompiledModel::optimize`](clairvoyant::CompiledModel) as serve's
//! load path does, then times `CompiledModel::evaluate_batch` (quantized,
//! feature-pruned programs — see `secml::kernel` — and pool fan-out) over
//! a 150-app corpus.
//!
//! Before anything is timed, two equality gates run: batched reports at
//! 1 and 4 workers must be bit-identical, and batched explanations
//! (`explain_batch`, at 1 and 4 workers) must equal the scalar per-row
//! attribution walk (`explain_features`) bit-for-bit. Equality with the
//! boxed scorer the engine replaced is tier-1's `scoring_golden.rs`.
//!
//! The result prints as one `BENCH_INFER` JSON line (snapshot:
//! `results/BENCH_INFER.json`, with the machine's `cores`). `rows_per_s`
//! is 1-worker `evaluate_batch` throughput; CI fails the job if it
//! regresses more than 10% below the snapshot. The same line reports
//! the battery scoring stage alone (`score_battery` over one prepared
//! batch, as `score_ms`) and end-to-end `explain_batch` (`explain_ms`),
//! both on one worker.
//!
//! `CLAIRVOYANT_BENCH_SMOKE=1` shrinks the corpus, forest and iteration
//! count to a CI-sized equality smoke test.

use bench::harness::{black_box, Criterion};
use bench::{criterion_group, criterion_main};
use clairvoyant::explain::Explanation;
use clairvoyant::prelude::*;
use clairvoyant::SecurityReport;

fn assert_reports_identical(a: &SecurityReport, b: &SecurityReport, context: &str) {
    assert_eq!(a.app, b.app, "{context}");
    assert_eq!(
        a.predicted_vulnerabilities.to_bits(),
        b.predicted_vulnerabilities.to_bits(),
        "{context}: predicted count diverged for {}",
        a.app
    );
    assert_eq!(a.hypotheses.len(), b.hypotheses.len(), "{context}");
    for ((h1, p1), (h2, p2)) in a.hypotheses.iter().zip(&b.hypotheses) {
        assert_eq!(h1, h2, "{context}");
        assert_eq!(
            p1.to_bits(),
            p2.to_bits(),
            "{context}: {h1} diverged for {}",
            a.app
        );
    }
    for ((s1, n1), (s2, n2)) in a.severity_counts.iter().zip(&b.severity_counts) {
        assert_eq!(s1, s2, "{context}");
        assert_eq!(n1.to_bits(), n2.to_bits(), "{context}: severity {}", a.app);
    }
    assert_eq!(
        a.risk_score().to_bits(),
        b.risk_score().to_bits(),
        "{context}: risk score diverged for {}",
        a.app
    );
}

fn assert_explanations_identical(a: &Explanation, b: &Explanation, context: &str) {
    assert_reports_identical(&a.report, &b.report, context);
    assert_eq!(a.features, b.features, "{context}");
    assert_eq!(a.models.len(), b.models.len(), "{context}");
    for (ma, mb) in a.models.iter().zip(&b.models) {
        assert_eq!(ma.target, mb.target, "{context}");
        assert_eq!(ma.baseline.to_bits(), mb.baseline.to_bits(), "{context}");
        assert_eq!(ma.score.to_bits(), mb.score.to_bits(), "{context}");
        assert_eq!(
            ma.prediction.to_bits(),
            mb.prediction.to_bits(),
            "{context}: {} prediction diverged for {}",
            ma.target,
            a.report.app
        );
        assert_eq!(ma.contributions.len(), mb.contributions.len(), "{context}");
        for (ca, cb) in ma.contributions.iter().zip(&mb.contributions) {
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "{context}: {} attribution diverged for {}",
                ma.target,
                a.report.app
            );
        }
    }
}

fn bench_inference(_c: &mut Criterion) {
    use std::time::Instant;
    let smoke = std::env::var("CLAIRVOYANT_BENCH_SMOKE").is_ok();
    let (n_apps, n_train, trees, iters) = if smoke {
        (24, 30, clairvoyant::train::DEFAULT_FOREST_TREES, 1)
    } else {
        (150, 150, 200, 20)
    };

    // Train the forest battery on its own corpus, then score a disjoint
    // one — serving and training sets need not match.
    let train_corpus = Corpus::generate(&CorpusConfig::small(n_train, 20170408));
    let compiled = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        forest_trees: trees,
        ..Default::default()
    })
    .train(&train_corpus)
    .compile();
    let programs = compiled.optimize();

    let mut score_config = CorpusConfig::small(n_apps, 5);
    score_config.max_kloc = 2.0;
    let score_corpus = Corpus::generate(&score_config);
    let apps = extract_corpus(&score_corpus, 0).features;

    // Equality gates before timing: batched reports at 1 worker against
    // 4 workers, batched explanations against the scalar attribution
    // walk at 1 and 4 workers.
    let one = compiled.evaluate_batch(&apps, 1);
    let four = compiled.evaluate_batch(&apps, 4);
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_reports_identical(a, b, "1 vs 4 workers");
    }
    let scalar_explanations: Vec<Explanation> = apps
        .iter()
        .map(|(name, fv)| compiled.explain_features(name.clone(), fv))
        .collect();
    for (jobs, context) in [(1, "1 worker"), (4, "4 workers")] {
        let explained = compiled.explain_batch(&apps, jobs);
        assert_eq!(explained.len(), scalar_explanations.len());
        for (a, b) in scalar_explanations.iter().zip(&explained) {
            assert_explanations_identical(a, b, context);
        }
    }

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.evaluate_batch(&apps, 1).len());
    }
    let batched_1w_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.evaluate_batch(&apps, 4).len());
    }
    let batched_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    // The battery scoring stage alone, over one prepared batch.
    let batch = compiled.prepare_batch(&apps, 1);
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.score_battery(&batch, 1).len());
    }
    let score_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(compiled.explain_batch(&apps, 1).len());
    }
    let explain_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let rows_per_s = apps.len() as f64 / (batched_1w_ms / 1e3).max(1e-12);
    let cores = pipeline::default_workers();
    println!(
        "BENCH_INFER {{\"rows\":{},\"trees\":{trees},\"iters\":{iters},\"programs\":{programs},\
         \"cores\":{cores},\"batched_1w_ms\":{:.2},\"batched_4w_ms\":{:.2},\
         \"rows_per_s\":{:.1},\"score_ms\":{:.2},\"explain_ms\":{:.2},\
         \"reports_identical\":true,\"explanations_identical\":true}}",
        apps.len(),
        batched_1w_ms,
        batched_ms,
        rows_per_s,
        score_ms,
        explain_ms
    );
    eprintln!(
        "inference engine: batched {batched_1w_ms:.1} ms (1w, {rows_per_s:.0} rows/s) / \
         {batched_ms:.1} ms (4w); battery scoring {score_ms:.1} ms, explain {explain_ms:.1} ms \
         over {} apps × {trees}-tree forests ({programs} programs, {cores} cores)",
        apps.len()
    );
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
