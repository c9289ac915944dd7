//! Cross-crate checks for the fast training engine: the incremental
//! split sweep must agree with a naive oracle, and parallel training must
//! be byte-identical to sequential training at every layer (forest,
//! cross-validation, full trainer).

use clairvoyant::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secml::dataset::ColMatrix;
use secml::forest::{ForestConfig, RandomForest};
use secml::tree::{best_split_entropy, best_split_variance};
use secml::Classifier;

/// Naive O(n²-per-feature) split search: for every feature, try every
/// midpoint threshold by re-partitioning and recomputing impurities from
/// scratch — the algorithm the incremental sweep replaced.
fn naive_best_split(
    x: &[Vec<f64>],
    y: &[f64],
    entropy_mode: bool,
    pool: &[usize],
) -> Option<(usize, f64, f64)> {
    let n = x.len() as f64;
    let impurity = |ys: &[f64]| -> f64 {
        if ys.is_empty() {
            return 0.0;
        }
        let m = ys.len() as f64;
        if entropy_mode {
            let ones = ys.iter().sum::<f64>();
            let mut h = 0.0;
            for p in [ones / m, 1.0 - ones / m] {
                if p > 0.0 {
                    h -= p * p.log2();
                }
            }
            h
        } else {
            let mean = ys.iter().sum::<f64>() / m;
            ys.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / m
        }
    };
    let parent = impurity(y);
    let mut best: Option<(usize, f64, f64)> = None;
    for &feature in pool {
        let mut vals: Vec<f64> = x.iter().map(|r| r[feature]).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        for w in vals.windows(2) {
            let threshold = (w[0] + w[1]) / 2.0;
            let left: Vec<f64> = x
                .iter()
                .zip(y)
                .filter(|(r, _)| r[feature] <= threshold)
                .map(|(_, &v)| v)
                .collect();
            let right: Vec<f64> = x
                .iter()
                .zip(y)
                .filter(|(r, _)| r[feature] > threshold)
                .map(|(_, &v)| v)
                .collect();
            if left.is_empty() || right.is_empty() {
                continue;
            }
            let weighted = (left.len() as f64 / n) * impurity(&left)
                + (right.len() as f64 / n) * impurity(&right);
            let gain = parent - weighted;
            if best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                best = Some((feature, threshold, gain));
            }
        }
    }
    best
}

fn random_dataset(seed: u64, rows: usize, cols: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            (0..cols)
                // Coarse grid values force plenty of ties, the hard case
                // for threshold enumeration.
                .map(|_| (rng.gen_range(0..12) as f64) / 3.0)
                .collect()
        })
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|r| (r[0] + r[1 % cols] > 3.5) as usize)
        .collect();
    (x, y)
}

#[test]
fn incremental_sweep_matches_naive_oracle_entropy() {
    for seed in 0..25u64 {
        let rows = 5 + (seed as usize * 7) % 40;
        let cols = 1 + (seed as usize) % 5;
        let (x, y) = random_dataset(seed, rows, cols);
        let pool: Vec<usize> = (0..cols).collect();
        let m = ColMatrix::from_rows(&x);
        let fast = best_split_entropy(&m, &y, &pool);
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        let naive = naive_best_split(&x, &yf, true, &pool);
        match (fast, naive) {
            (None, None) => {}
            (Some((ff, ft, fg)), Some((nf, nt, ng))) => {
                assert_eq!(ff, nf, "seed {seed}: feature mismatch");
                assert!((ft - nt).abs() < 1e-12, "seed {seed}: {ft} vs {nt}");
                assert!((fg - ng).abs() < 1e-9, "seed {seed}: gain {fg} vs {ng}");
            }
            other => panic!("seed {seed}: {other:?}"),
        }
    }
}

#[test]
fn incremental_sweep_matches_naive_oracle_variance() {
    for seed in 100..120u64 {
        let rows = 6 + (seed as usize * 5) % 30;
        let cols = 1 + (seed as usize) % 4;
        let (x, labels) = random_dataset(seed, rows, cols);
        // Continuous-ish targets from the same generator.
        let y: Vec<f64> = x
            .iter()
            .zip(&labels)
            .map(|(r, &l)| r.iter().sum::<f64>() + l as f64 * 3.0)
            .collect();
        let pool: Vec<usize> = (0..cols).collect();
        let m = ColMatrix::from_rows(&x);
        let fast = best_split_variance(&m, &y, &pool);
        let naive = naive_best_split(&x, &y, false, &pool);
        match (fast, naive) {
            (None, None) => {}
            (Some((ff, ft, fg)), Some((nf, nt, ng))) => {
                assert_eq!(ff, nf, "seed {seed}: feature mismatch");
                assert!((ft - nt).abs() < 1e-12, "seed {seed}: {ft} vs {nt}");
                assert!((fg - ng).abs() < 1e-9, "seed {seed}: gain {fg} vs {ng}");
            }
            other => panic!("seed {seed}: {other:?}"),
        }
    }
}

#[test]
fn forest_is_bit_identical_across_worker_counts() {
    let (x, y) = random_dataset(7, 60, 4);
    let probe: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 5.0; 4]).collect();
    let fit = |jobs: usize| {
        let mut f = RandomForest::with_config(ForestConfig {
            n_trees: 12,
            jobs,
            ..Default::default()
        });
        f.fit(&x, &y);
        probe
            .iter()
            .map(|r| f.predict_proba(r).to_bits())
            .collect::<Vec<u64>>()
    };
    let sequential = fit(1);
    assert_eq!(sequential, fit(2));
    assert_eq!(sequential, fit(4));
}

#[test]
fn trainer_output_is_bit_identical_across_worker_counts() {
    let corpus = Corpus::generate(&CorpusConfig::small(12, 99));
    let probe = Testbed::new().extract(&corpus.apps[0].program);

    let outputs: Vec<(String, Vec<u64>)> = [1usize, 4]
        .iter()
        .map(|&jobs| {
            let trainer = Trainer::with_config(TrainerConfig {
                learner: Learner::RandomForest,
                train_jobs: jobs,
                ..Default::default()
            });
            let (model, report) = trainer.train_with_report(&corpus);
            let scored = model
                .compile()
                .evaluate_batch(&[("probe".to_string(), probe.clone())], 1)
                .remove(0);
            let mut bits: Vec<u64> = scored.hypotheses.iter().map(|(_, p)| p.to_bits()).collect();
            bits.push(scored.predicted_vulnerabilities.to_bits());
            bits.extend(model.risk_weights.iter().map(|w| w.to_bits()));
            bits.push(report.count_cv.r_squared.to_bits());
            for h in &report.hypothesis_reports {
                if let Some(r) = &h.report {
                    bits.push(r.auc.to_bits());
                    bits.push(r.accuracy.to_bits());
                }
            }
            // Drop the extraction line: programs/sec is wall-clock, the
            // one legitimately run-dependent number in the report.
            let text: String = report
                .to_string()
                .lines()
                .filter(|l| !l.starts_with("extraction:"))
                .collect::<Vec<_>>()
                .join("\n");
            (text, bits)
        })
        .collect();

    assert_eq!(
        outputs[0].1, outputs[1].1,
        "train_jobs=1 and train_jobs=4 diverged"
    );
    assert_eq!(outputs[0].0, outputs[1].0, "reports diverged");
}
