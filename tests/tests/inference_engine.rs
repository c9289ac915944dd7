//! Cross-crate checks for the batched inference engine: for every
//! learner and across dialect-skewed corpora, compile → serialize →
//! deserialize → `evaluate_batch` must reproduce the scalar per-row
//! reference path (each compiled model walked one row at a time)
//! bit-for-bit at any worker count, on disk as well as in memory, and
//! system evaluation must not depend on workers either. Equality with
//! the boxed scorer the engine replaced is `scoring_golden.rs`.

use clairvoyant::prelude::*;
use clairvoyant::system::{evaluate_system, Containment, Exposure};
use clairvoyant::SecurityReport;
use clairvoyant::{Component, SystemSpec};
use static_analysis::FeatureVector;

fn extract_apps(corpus: &Corpus) -> Vec<(String, FeatureVector)> {
    let testbed = Testbed::new();
    corpus
        .apps
        .iter()
        .map(|app| (app.spec.name.clone(), testbed.extract(&app.program)))
        .collect()
}

/// Every float compared through its bit pattern: the batched engine
/// promises exact reproduction, not tolerance-level agreement.
fn assert_reports_identical(a: &SecurityReport, b: &SecurityReport, context: &str) {
    assert_eq!(a.app, b.app, "{context}: app");
    assert_eq!(
        a.predicted_vulnerabilities.to_bits(),
        b.predicted_vulnerabilities.to_bits(),
        "{context}: predicted count for {}",
        a.app
    );
    assert_eq!(
        a.high_severity_risk.map(f64::to_bits),
        b.high_severity_risk.map(f64::to_bits),
        "{context}: high-severity risk for {}",
        a.app
    );
    assert_eq!(
        a.network_risk.map(f64::to_bits),
        b.network_risk.map(f64::to_bits),
        "{context}: network risk for {}",
        a.app
    );
    assert_eq!(a.hypotheses.len(), b.hypotheses.len(), "{context}");
    for ((h1, p1), (h2, p2)) in a.hypotheses.iter().zip(&b.hypotheses) {
        assert_eq!(h1, h2, "{context}: battery order for {}", a.app);
        assert_eq!(p1.to_bits(), p2.to_bits(), "{context}: {h1} for {}", a.app);
    }
    assert_eq!(
        a.severity_counts.len(),
        b.severity_counts.len(),
        "{context}"
    );
    for ((s1, n1), (s2, n2)) in a.severity_counts.iter().zip(&b.severity_counts) {
        assert_eq!(s1, s2, "{context}: band order for {}", a.app);
        assert_eq!(
            n1.to_bits(),
            n2.to_bits(),
            "{context}: {s1:?} for {}",
            a.app
        );
    }
    assert_eq!(
        a.structural_risk.to_bits(),
        b.structural_risk.to_bits(),
        "{context}: structural risk for {}",
        a.app
    );
    assert_eq!(a.attributions.len(), b.attributions.len(), "{context}");
    for (x, y) in a.attributions.iter().zip(&b.attributions) {
        assert_eq!(x.feature, y.feature, "{context}: attribution for {}", a.app);
        assert_eq!(x.value.to_bits(), y.value.to_bits(), "{context}");
        assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{context}");
        assert_eq!(
            x.contribution.to_bits(),
            y.contribution.to_bits(),
            "{context}"
        );
    }
    assert_eq!(
        a.hints.len(),
        b.hints.len(),
        "{context}: hints for {}",
        a.app
    );
    for (x, y) in a.hints.iter().zip(&b.hints) {
        assert_eq!(x.advice, y.advice, "{context}");
        assert_eq!(x.because, y.because, "{context}");
    }
    assert_eq!(
        a.risk_score().to_bits(),
        b.risk_score().to_bits(),
        "{context}: risk score for {}",
        a.app
    );
}

/// Scalar per-row reference reports for a corpus: every compiled model
/// walked one row at a time (`explain_features`), no batch kernel.
fn scalar_reports(model: &CompiledModel, apps: &[(String, FeatureVector)]) -> Vec<SecurityReport> {
    apps.iter()
        .map(|(name, fv)| model.explain_features(name.clone(), fv).report)
        .collect()
}

/// The full journey — compile, serialize, deserialize, batch-score at 1
/// and 4 workers — compared against the scalar reference path.
fn assert_roundtrip_matches_scalar(
    model: &TrainedModel,
    apps: &[(String, FeatureVector)],
    context: &str,
) {
    let compiled = model.compile();
    let reference = scalar_reports(&compiled, apps);
    let bytes = compiled.to_bytes();
    let decoded = CompiledModel::from_bytes(&bytes).expect("roundtrip decodes");
    for jobs in [1, 4] {
        let batched = decoded.evaluate_batch(apps, jobs);
        assert_eq!(batched.len(), reference.len(), "{context}");
        for (a, b) in reference.iter().zip(&batched) {
            assert_reports_identical(a, b, &format!("{context}, {jobs} worker(s)"));
        }
    }
}

#[test]
fn every_learner_roundtrips_bit_identically() {
    let train_corpus = Corpus::generate(&CorpusConfig::small(16, 20177));
    let score_corpus = Corpus::generate(&CorpusConfig::small(12, 99));
    let apps = extract_apps(&score_corpus);
    for learner in Learner::ALL {
        let model = Trainer::with_config(TrainerConfig {
            learner,
            ..Default::default()
        })
        .train(&train_corpus);
        assert_roundtrip_matches_scalar(&model, &apps, &format!("learner {learner}"));
    }
}

#[test]
fn dialect_skewed_corpora_score_identically() {
    let model = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        ..Default::default()
    })
    .train(&Corpus::generate(&CorpusConfig::small(16, 20177)));
    // One corpus per dominant dialect: C, Python, Java, C++.
    for (i, language_mix) in [[9, 1, 1, 1], [1, 9, 1, 1], [1, 1, 9, 1], [1, 1, 1, 9]]
        .into_iter()
        .enumerate()
    {
        let mut config = CorpusConfig::small(12, 7 + i as u64);
        config.language_mix = language_mix;
        let apps = extract_apps(&Corpus::generate(&config));
        assert_roundtrip_matches_scalar(&model, &apps, &format!("dialect mix {language_mix:?}"));
    }
}

#[test]
fn saved_model_scores_identically_after_reload() {
    let model = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        ..Default::default()
    })
    .train(&Corpus::generate(&CorpusConfig::small(16, 20177)));
    let apps = extract_apps(&Corpus::generate(&CorpusConfig::small(10, 41)));
    let compiled = model.compile();
    let reference = scalar_reports(&compiled, &apps);

    let path = std::env::temp_dir().join(format!("clairvoyant-model-{}.clvy", std::process::id()));
    compiled.save(&path).expect("model saves");
    let loaded = CompiledModel::load(&path).expect("model loads");
    let _ = std::fs::remove_file(&path);

    let batched = loaded.evaluate_batch(&apps, 2);
    assert_eq!(batched.len(), reference.len());
    for (a, b) in reference.iter().zip(&batched) {
        assert_reports_identical(a, b, "reloaded from disk");
    }
}

/// The explanation engine's core invariant, end to end: for every
/// learner (each on a differently dialect-skewed corpus), every model in
/// the compiled battery decomposes every row into `baseline + Σ
/// contributions == score` **bitwise**, the attribution predictions are
/// bitwise equal to the scoring engine's, the batched path matches the
/// scalar per-row reference, and none of it depends on the worker count.
#[test]
fn attribution_folds_exactly_for_every_learner() {
    let train_corpus = Corpus::generate(&CorpusConfig::small(16, 20177));
    let mixes = [[9, 1, 1, 1], [1, 9, 1, 1], [1, 1, 9, 1], [1, 1, 1, 9]];
    for (i, learner) in Learner::ALL.into_iter().enumerate() {
        let model = Trainer::with_config(TrainerConfig {
            learner,
            ..Default::default()
        })
        .train(&train_corpus);
        let compiled = model.compile();
        let mut config = CorpusConfig::small(8, 100 + i as u64);
        config.language_mix = mixes[i % mixes.len()];
        let apps = extract_apps(&Corpus::generate(&config));
        let context = format!("learner {learner}, mix {:?}", config.language_mix);

        let scored = compiled.evaluate_batch(&apps, 1);
        let one = compiled.explain_batch(&apps, 1);
        let four = compiled.explain_batch(&apps, 4);
        assert_eq!(one.len(), apps.len(), "{context}");

        for (((e1, e4), report), (name, fv)) in one.iter().zip(&four).zip(&scored).zip(&apps) {
            // The report assembled from attributions equals the scoring
            // engine's report bitwise.
            assert_reports_identical(report, &e1.report, &context);

            // Worker count changes nothing, and the batched kernels match
            // the scalar per-row attribution walk bit-for-bit.
            let scalar = compiled.explain_features(name.clone(), fv);
            for ((m1, m4), ms) in e1.models.iter().zip(&e4.models).zip(&scalar.models) {
                assert_eq!(m1.target, m4.target, "{context}");
                assert_eq!(m1.target, ms.target, "{context}");
                for other in [m4, ms] {
                    assert_eq!(
                        m1.baseline.to_bits(),
                        other.baseline.to_bits(),
                        "{context}: {} baseline for {name}",
                        m1.target
                    );
                    assert_eq!(
                        m1.score.to_bits(),
                        other.score.to_bits(),
                        "{context}: {} score for {name}",
                        m1.target
                    );
                    assert_eq!(
                        m1.prediction.to_bits(),
                        other.prediction.to_bits(),
                        "{context}: {} prediction for {name}",
                        m1.target
                    );
                    assert_eq!(m1.contributions.len(), other.contributions.len());
                    for (c1, c2) in m1.contributions.iter().zip(&other.contributions) {
                        assert_eq!(
                            c1.to_bits(),
                            c2.to_bits(),
                            "{context}: {} contribution for {name}",
                            m1.target
                        );
                    }
                }

                // The tentpole invariant: baseline + Σ contributions
                // reproduces the decomposed score exactly.
                let mut folded = m1.baseline;
                for c in &m1.contributions {
                    folded += *c;
                }
                assert_eq!(
                    folded.to_bits(),
                    m1.score.to_bits(),
                    "{context}: {} does not fold for {name}",
                    m1.target
                );
            }
        }
    }
}

/// Differential fuzzing of the compiled programs (`secml::kernel`)
/// against the scalar per-row reference (`attribute_row`), over seeded
/// random *wire* forests — tables that arrive through the `CLVY` decode
/// path rather than training, so they reach shapes training never
/// emits: depth past the unroll limit, NaN split thresholds and NaN
/// leaf values, single-leaf trees, empty forests, duplicate and
/// signed-zero cuts. Scores and attributions must be bit-identical for
/// every forest, at batch sizes straddling the program's mask/ladder
/// engine boundary.
mod kernel_fuzz {
    use secml::bytes::{ByteReader, ByteWriter};
    use secml::{ColMatrix, CompiledClassifier};

    const LEAF: u32 = u32::MAX;
    const FEATS: usize = 6;
    /// Batch sizes straddling the mask-walk threshold (32) and the
    /// 64-row block width, plus the single-row serve shape.
    const SIZES: [usize; 6] = [1, 31, 32, 64, 65, 117];

    /// splitmix64: tiny, seeded, good enough to shake out edge cases
    /// reproducibly.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A split threshold: mostly ordinary finite values, salted with
        /// the exact-compare hazards — NaN (always-false splits), signed
        /// zeros, duplicated round values, extremes.
        fn threshold(&mut self) -> f64 {
            match self.below(12) {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                3 => 1.0, // deliberately duplicated across nodes
                4 => -1e300,
                5 => 1e300,
                _ => self.unit() * 8.0 - 4.0,
            }
        }

        /// A row value: the same hazards the thresholds carry, plus
        /// infinities and exact threshold hits.
        fn cell(&mut self) -> f64 {
            match self.below(14) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => 1.0,
                _ => self.unit() * 8.0 - 4.0,
            }
        }
    }

    /// A random forest in wire-table form (preorder, leaves
    /// self-looping — the invariants `FlatTree::validate` demands).
    #[derive(Default)]
    struct WireForest {
        roots: Vec<u32>,
        feature: Vec<u32>,
        threshold: Vec<f64>,
        left: Vec<u32>,
        right: Vec<u32>,
    }

    impl WireForest {
        fn push_leaf(&mut self, value: f64) -> u32 {
            let i = self.feature.len() as u32;
            self.feature.push(LEAF);
            self.threshold.push(value);
            self.left.push(i);
            self.right.push(i);
            i
        }

        /// Preorder-generate a subtree: split probability decays with
        /// depth, but a `spine` budget forces a left chain first so some
        /// trees exceed the program's unroll depth (8) and send short
        /// blocks through the mask walk.
        fn gen(&mut self, rng: &mut Rng, depth: u32, spine: u32) -> u32 {
            let split = spine > 0 || (depth < 11 && rng.below(100) < 72);
            if !split {
                // Leaf values include NaN: batch and scalar paths must
                // fold the same bits through identical per-row sums.
                let value = if rng.below(24) == 0 {
                    f64::NAN
                } else {
                    rng.unit() * 2.0 - 1.0
                };
                return self.push_leaf(value);
            }
            let i = self.feature.len() as u32;
            self.feature.push(rng.below(FEATS as u64) as u32);
            self.threshold.push(rng.threshold());
            self.left.push(0);
            self.right.push(0);
            let l = self.gen(rng, depth + 1, spine.saturating_sub(1));
            let r = self.gen(rng, depth + 1, 0);
            self.left[i as usize] = l;
            self.right[i as usize] = r;
            i
        }

        /// Serialize as a `CompiledClassifier::Forest` and decode back
        /// through the production wire path (which validates the table).
        fn decode(&self) -> CompiledClassifier {
            let mut w = ByteWriter::new();
            w.put_u8(0); // CompiledClassifier::Forest tag
            w.put_u32s(&self.roots);
            w.put_u32s(&self.feature);
            w.put_f64s(&self.threshold);
            w.put_u32s(&self.left);
            w.put_u32s(&self.right);
            w.put_f64(self.roots.len().max(1) as f64);
            w.put_f64(0.5);
            let bytes = w.into_bytes();
            CompiledClassifier::decode(&mut ByteReader::new(&bytes)).expect("fuzzed table decodes")
        }
    }

    /// One seeded random forest. Shape 0 is the empty forest (no roots,
    /// one orphan node to satisfy validation); shape 1 a single leaf;
    /// shape 2 a deep left spine; the rest mixed random trees.
    fn gen_forest(seed: u64) -> WireForest {
        let mut rng = Rng(seed.wrapping_mul(2) | 1);
        let mut wf = WireForest::default();
        match seed % 8 {
            0 => {
                wf.push_leaf(7.0);
            }
            1 => {
                let root = wf.push_leaf(0.25);
                wf.roots.push(root);
            }
            2 => {
                let root = wf.gen(&mut rng, 0, 10 + (seed % 4) as u32);
                wf.roots.push(root);
            }
            _ => {
                for _ in 0..1 + rng.below(6) {
                    let spine = if rng.below(3) == 0 { 9 } else { 0 };
                    let root = wf.gen(&mut rng, 0, spine);
                    wf.roots.push(root);
                }
            }
        }
        wf
    }

    fn rows(rng: &mut Rng, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..FEATS).map(|_| rng.cell()).collect())
            .collect()
    }

    /// Batch scores and attributions against `attribute_row` per row:
    /// prediction, score, baseline and every contribution, bitwise.
    fn assert_matches_scalar(model: &CompiledClassifier, seed: u64) {
        let mut rng = Rng(seed ^ 0xD6E8_FEB8_6659_FD93);
        for n in SIZES {
            let rows = rows(&mut rng, n);
            let x = ColMatrix::from_rows(&rows);
            let scores = model.predict_batch(&x);
            let attributions = model.attribute_batch(&x);
            assert_eq!(scores.len(), n);
            assert_eq!(attributions.len(), n);
            for (i, row) in rows.iter().enumerate() {
                let context = format!("seed {seed}, {n} rows, row {i}");
                let want = model.attribute_row(row);
                let got = &attributions[i];
                assert_eq!(
                    scores[i].to_bits(),
                    want.prediction.to_bits(),
                    "{context}: batch score"
                );
                assert_eq!(
                    got.prediction.to_bits(),
                    want.prediction.to_bits(),
                    "{context}: prediction"
                );
                assert_eq!(
                    got.score.to_bits(),
                    want.score.to_bits(),
                    "{context}: score"
                );
                assert_eq!(
                    got.baseline.to_bits(),
                    want.baseline.to_bits(),
                    "{context}: baseline"
                );
                assert_eq!(
                    got.contributions.len(),
                    want.contributions.len(),
                    "{context}"
                );
                for (j, (a, b)) in got
                    .contributions
                    .iter()
                    .zip(&want.contributions)
                    .enumerate()
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "{context}: contribution {j}");
                }
            }
        }
    }

    #[test]
    fn fuzzed_wire_forests_score_and_attribute_bit_identically() {
        // Unlinked programs, compiled on the first batch call. Degenerate
        // tables may refuse to compile (the exactness fallback); they
        // still must match through the scalar walk they keep.
        for seed in 0..48u64 {
            assert_matches_scalar(&gen_forest(seed).decode(), seed);
        }
    }

    #[test]
    fn fuzzed_linked_batteries_stay_bit_identical() {
        // Groups of fuzzed forests linked to one shared quantization
        // (the battery path `CompiledModel::optimize` takes): the
        // merged-table remap must preserve bit-identity for every
        // member, including the degenerate shapes.
        for group in 0..6u64 {
            let seeds: Vec<u64> = (0..5).map(|k| group * 5 + k).collect();
            let models: Vec<CompiledClassifier> =
                seeds.iter().map(|&s| gen_forest(s).decode()).collect();
            for model in &models {
                model.optimize();
            }
            secml::link_battery(models.iter(), []);
            for (model, &seed) in models.iter().zip(&seeds) {
                assert_matches_scalar(model, seed);
            }
        }
    }
}

/// Serve's wire responses come from programs compiled and linked at
/// load (`ModelState` runs `optimize()` before the state is published);
/// they must be bitwise the JSON rendered from the scalar per-row
/// reference (`CompiledModel::explain_features`, no batch kernel) — the
/// end-to-end closure of the program equality gates.
#[test]
fn served_scores_are_bit_identical_to_the_scalar_reference() {
    use clairvoyant::report::{security_report_value, Json};
    use serve::client::{is_ok, Client};
    use serve::server::{ModelState, ServeConfig};

    let model = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        ..Default::default()
    })
    .train(&Corpus::generate(&CorpusConfig::small(14, 20177)));
    let apps = extract_apps(&Corpus::generate(&CorpusConfig::small(8, 53)));

    // Offline reference: the unlinked battery, one scalar walk per row.
    let expected: Vec<String> = scalar_reports(&model.compile(), &apps)
        .iter()
        .map(|r| security_report_value(r).to_string())
        .collect();

    // Served path: the compiled battery, its programs compiled and
    // linked up front as the reload path does.
    let handle = serve::start(
        ServeConfig {
            batch_max: 3,
            jobs: 2,
            ..ServeConfig::default()
        },
        ModelState::from_model(model.compile()),
    )
    .expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("set timeout");
    for ((name, fv), want) in apps.iter().zip(&expected) {
        let response = client.score_features(name, fv).expect("score");
        assert!(is_ok(&response), "score failed: {response}");
        let Json::Object(obj) = &response else {
            panic!("score response is not an object: {response}");
        };
        let report = obj.get("report").expect("response has report").to_string();
        assert_eq!(&report, want, "served report diverged for {name}");
    }
    handle.shutdown();
}

#[test]
fn system_reports_do_not_depend_on_worker_count() {
    let model = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        ..Default::default()
    })
    .train(&Corpus::generate(&CorpusConfig::small(16, 20177)));
    let corpus = Corpus::generate(&CorpusConfig::small(3, 5));
    let exposures = [
        Exposure::NetworkFacing,
        Exposure::Internal,
        Exposure::Infrastructure,
    ];
    let system = SystemSpec {
        name: "stack".into(),
        components: corpus
            .apps
            .iter()
            .zip(exposures)
            .map(|(app, exposure)| Component {
                name: app.spec.name.clone(),
                program: app.program.clone(),
                exposure,
                containment: Containment::Container,
            })
            .collect(),
    };
    let compiled = model.compile();
    compiled.optimize();
    let one = evaluate_system(&compiled, &system, 1);
    let four = evaluate_system(&compiled, &system, 4);
    assert_eq!(one.score.to_bits(), four.score.to_bits());
    assert_eq!(one.weakest, four.weakest);
    assert_eq!(one.escalation_chain, four.escalation_chain);
    assert_eq!(one.components.len(), four.components.len());
    for (a, b) in one.components.iter().zip(&four.components) {
        assert_eq!(a.weighted_risk.to_bits(), b.weighted_risk.to_bits());
        assert_eq!(a.privileged, b.privileged);
        assert_reports_identical(&a.report, &b.report, "system component");
    }
}
