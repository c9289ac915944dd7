//! Black-box tests for the PR 10 longitudinal scale-out layer.
//!
//! Three pillars, each exercised end to end rather than per crate:
//!
//! - **Soak**: a 3-epoch [`replay`] drives a LIVE scoring daemon — the
//!   deploy hook hot-reloads each epoch's `CLVY` while concurrent
//!   clients score through pipelined connections the whole time. Zero
//!   requests may drop or error across both swaps, every response must
//!   pair a fingerprint with exactly that model's bit-exact offline
//!   report (never a torn hybrid), and once the final swap lands a
//!   fresh request must match offline scoring under the refreshed file.
//! - **Out-of-core property sweep**: seeded random matrices — NaN
//!   cells, constant columns, single-row, zero-column shapes — pushed
//!   through the spill-to-disk builder and re-opened from disk must
//!   reproduce the in-RAM twin bit-for-bit: cell values, per-column
//!   sort permutations, `subset` derivations, and trained-forest
//!   outputs at 1 and 4 workers.
//! - **Stream determinism**: the longitudinal stream is a pure
//!   function of `(seed, tenant knobs, epoch)` — identical across
//!   stream instances, consumption orders, and chunk sizes — and the
//!   classic `Corpus::generate` stays bitwise equal to draining the
//!   streaming generator in arbitrary chunks.

use clairvoyant::longitudinal::{replay, LongitudinalConfig};
use clairvoyant::prelude::*;
use clairvoyant::report::{security_report_value, Json};
use corpus::{Corpus, LongitudinalStream, StreamConfig};
use rand::rngs::StdRng;
use rand::{derive_seed, Rng, SeedableRng};
use secml::forest::{ForestConfig, RandomForest};
use secml::{Classifier, ColMatrix, ColMatrixBuilder};
use serve::client::{is_ok, Client};
use serve::server::{ModelState, ServeConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clairvoyant-longit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The probe programs the soak clients score over and over. Distinct
/// shapes so distinct reports tell models apart.
const PROBES: [(&str, &str); 3] = [
    (
        "probe-net",
        "@endpoint(network)\nfn handle(req: str, n: int) -> int {\n    let buf: str[24];\n    let i: int = 0;\n    while i < n {\n        if i > 2 { n = n - 1; }\n        i = i + 1;\n    }\n    strcpy(buf, req);\n    return n;\n}\n",
    ),
    (
        "probe-cli",
        "fn main(arg: str) -> int {\n    let total: int = 0;\n    let i: int = 0;\n    while i < 9 {\n        if i > 4 { total = total + i; }\n        i = i + 1;\n    }\n    log_msg(arg);\n    return total;\n}\n",
    ),
    (
        "probe-exec",
        "fn run(cmd: str, depth: int) -> int {\n    let scratch: str[48];\n    if depth > 1 { exec(cmd); }\n    sprintf(scratch, cmd);\n    return depth + 2;\n}\n",
    ),
];

/// Offline reference for a probe under one epoch's persisted model:
/// same parse, same extraction, same compiled engine the daemon runs.
fn offline_reports(model_path: &std::path::Path) -> BTreeMap<String, String> {
    let compiled = CompiledModel::load(model_path).expect("load epoch model");
    PROBES
        .iter()
        .map(|(name, source)| {
            let program = parse_program(
                name,
                Dialect::C,
                &[(format!("{name}.src"), source.to_string())],
            )
            .expect("probe parses");
            let fv = Testbed::new().extract(&program);
            let reports = compiled.evaluate_batch(&[(name.to_string(), fv)], 1);
            (
                name.to_string(),
                security_report_value(&reports[0]).to_string(),
            )
        })
        .collect()
}

/// Pull `(model_fingerprint, report_json)` out of a score response.
fn score_parts(response: &Json) -> (String, String) {
    let Json::Object(obj) = response else {
        panic!("score response is not an object: {response}");
    };
    let Some(Json::String(fp)) = obj.get("model") else {
        panic!("score response has no model fingerprint: {response}");
    };
    let report = obj.get("report").expect("score response has a report");
    (fp.clone(), report.to_string())
}

/// The tentpole soak: replay three epochs, hot-redeploying each epoch's
/// model into a live daemon under sustained pipelined scoring load.
#[test]
fn soak_replay_redeploys_without_dropping_or_tearing() {
    let work = scratch("soak");
    let config = LongitudinalConfig {
        stream: StreamConfig {
            apps: 24,
            ..StreamConfig::default()
        },
        epochs: 3,
        trainer: TrainerConfig {
            top_k_features: Some(14),
            ..Default::default()
        },
        work_dir: work.clone(),
        out_of_core: true,
        ..Default::default()
    };

    // Epoch 0 trains before any daemon exists; its deploy boots the
    // fleet-of-one. Later epochs hot-reload the running daemon while
    // the scorer threads below are still to come — the swaps under load
    // happen in the second half of this test, driven by the recorded
    // paths. First, collect the three persisted models.
    let mut model_paths: Vec<PathBuf> = Vec::new();
    let report = replay(&config, |_, path| {
        model_paths.push(path.to_path_buf());
        Ok(())
    })
    .expect("replay");
    assert_eq!(model_paths.len(), 3, "one deploy per epoch");
    let fingerprints: Vec<String> = report
        .epochs
        .iter()
        .map(|e| e.fingerprint.clone())
        .collect();

    // The daemon must agree with the driver about each file's identity.
    for (path, fingerprint) in model_paths.iter().zip(&fingerprints) {
        let state = ModelState::load(path).expect("epoch model loads");
        assert_eq!(
            &state.fingerprint_hex(),
            fingerprint,
            "driver fingerprint diverges from the serve loader"
        );
    }

    // Offline ground truth per epoch model, keyed by fingerprint.
    let expected: BTreeMap<String, BTreeMap<String, String>> = model_paths
        .iter()
        .zip(&fingerprints)
        .map(|(path, fp)| (fp.clone(), offline_reports(path)))
        .collect();

    let handle = serve::start(
        ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        },
        ModelState::load(&model_paths[0]).expect("boot model"),
    )
    .expect("daemon starts");
    let addr = handle.addr();

    const SCORERS: usize = 3;
    let stop = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    let requests: Vec<Json> = PROBES
        .iter()
        .map(|(name, source)| {
            Json::object(vec![
                ("op", Json::String("score".into())),
                ("name", Json::String((*name).into())),
                ("source", Json::String((*source).into())),
                ("dialect", Json::String("c".into())),
            ])
        })
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..SCORERS {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("scorer connects");
                client
                    .set_timeout(Some(Duration::from_secs(30)))
                    .expect("set timeout");
                while !stop.load(Ordering::Relaxed) {
                    // All probe requests go on the wire before the first
                    // response is read — the pipelined path a swap must
                    // never tear or drop.
                    let responses = client.pipeline(&requests).expect("pipeline survives swap");
                    assert_eq!(responses.len(), requests.len(), "response dropped");
                    for ((name, _), response) in PROBES.iter().zip(&responses) {
                        assert!(is_ok(response), "request errored mid-swap: {response}");
                        let (fp, report) = score_parts(response);
                        let model = expected.get(&fp).unwrap_or_else(|| {
                            panic!("fingerprint {fp} matches no deployed epoch")
                        });
                        // Bit-identical to offline scoring under the
                        // model the response claims — never a hybrid of
                        // pre- and post-swap state.
                        assert_eq!(
                            &report, &model[*name],
                            "torn response for {name} under {fp}"
                        );
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // The redeploy loop: both swaps land while the scorers hammer.
        let mut admin = Client::connect(addr).expect("admin connects");
        for path in &model_paths[1..] {
            std::thread::sleep(Duration::from_millis(40));
            let response = admin
                .reload(Some(&path.to_string_lossy()))
                .expect("reload round-trip");
            assert!(is_ok(&response), "reload refused: {response}");
        }
        std::thread::sleep(Duration::from_millis(40));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        answered.load(Ordering::Relaxed) > 0,
        "soak produced no scored responses"
    );

    // Post-swap: the daemon now speaks exclusively for the refreshed
    // model, bit-identical to loading that CLVY offline.
    let final_fp = fingerprints.last().expect("three epochs");
    let mut client = Client::connect(addr).expect("post-swap connect");
    for (name, source) in PROBES {
        let response = client.score_source(name, source, "c").expect("score");
        assert!(is_ok(&response), "post-swap score failed: {response}");
        let (fp, report) = score_parts(&response);
        assert_eq!(&fp, final_fp, "stale model still serving after final swap");
        assert_eq!(&report, &expected[final_fp][name]);
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

/// Column styles the matrix property sweep draws from — the edge shapes
/// the spill format must preserve bit-for-bit.
fn random_matrix(rng: &mut StdRng, n_rows: usize, n_cols: usize) -> Vec<Vec<f64>> {
    let styles: Vec<u8> = (0..n_cols).map(|_| rng.gen_range(0..4u8)).collect();
    let constants: Vec<f64> = (0..n_cols).map(|_| rng.gen_range(-5.0..5.0)).collect();
    (0..n_rows)
        .map(|_| {
            (0..n_cols)
                .map(|j| match styles[j] {
                    0 => constants[j],
                    1 if rng.gen_bool(0.3) => f64::NAN,
                    1 => rng.gen_range(-100.0..100.0),
                    2 => {
                        let tiny = rng.gen_range(-1.0..1.0);
                        tiny * 1e-300
                    }
                    _ => rng.gen_range(-1e9..1e9),
                })
                .collect()
        })
        .collect()
}

fn assert_bit_identical(ram: &ColMatrix, other: &ColMatrix, what: &str) {
    assert_eq!(ram.n_rows(), other.n_rows(), "{what}: row count");
    assert_eq!(ram.n_cols(), other.n_cols(), "{what}: column count");
    for j in 0..ram.n_cols() {
        assert_eq!(ram.sorted(j), other.sorted(j), "{what}: sort perm col {j}");
        for i in 0..ram.n_rows() {
            assert_eq!(
                ram.value(i, j).to_bits(),
                other.value(i, j).to_bits(),
                "{what}: cell ({i},{j})"
            );
        }
    }
}

/// Property sweep: for seeded random shapes, the spilled matrix and its
/// re-opened-from-disk twin reproduce the in-RAM matrix exactly —
/// values, permutations, subsets, and downstream forest training.
#[test]
fn out_of_core_matrices_match_ram_under_random_shapes() {
    let base = scratch("prop");
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(derive_seed(0x0005_9110_c04e, case));
        // Pin in the edge shapes; sample the rest.
        let (n_rows, n_cols) = match case % 6 {
            0 => (1, rng.gen_range(1..6)),  // single row
            1 => (rng.gen_range(2..32), 0), // no columns
            _ => (rng.gen_range(2..32), rng.gen_range(1..7)),
        };
        let rows = random_matrix(&mut rng, n_rows, n_cols);
        let ram = ColMatrix::from_rows(&rows);

        let dir = base.join(format!("case-{case}"));
        let mut builder = ColMatrixBuilder::new(n_cols)
            .chunk_rows(rng.gen_range(1..8))
            .spill(&dir)
            .expect("arm spill");
        for row in &rows {
            builder.push_row(row).expect("push row");
        }
        let spilled = builder.finish().expect("finish spill");
        let reloaded = ColMatrix::open_spilled(&dir).expect("reopen from disk");
        assert_bit_identical(&ram, &spilled, &format!("case {case} spilled"));
        assert_bit_identical(&ram, &reloaded, &format!("case {case} reloaded"));

        // Subset derivations (with repeats) stay bit-identical.
        let indices: Vec<usize> = (0..n_rows.max(1))
            .map(|_| rng.gen_range(0..n_rows))
            .collect();
        assert_bit_identical(
            &ram.subset(&indices),
            &spilled.subset(&indices),
            &format!("case {case} subset"),
        );

        // Forests trained on the spilled matrix are byte-for-byte the
        // in-RAM forests, independent of worker count.
        if n_cols > 0 && n_rows >= 4 {
            let labels: Vec<usize> = (0..n_rows).map(|i| (i + case as usize) % 2).collect();
            for jobs in [1usize, 4] {
                let config = ForestConfig {
                    n_trees: 8,
                    jobs,
                    seed: 0xf0_5e_ed,
                    ..Default::default()
                };
                let mut from_ram = RandomForest::with_config(config);
                from_ram.fit_matrix(&ram, &labels);
                let mut from_spill = RandomForest::with_config(config);
                from_spill.fit_matrix(&spilled, &labels);
                for row in &rows {
                    assert_eq!(
                        from_ram.predict_proba(row).to_bits(),
                        from_spill.predict_proba(row).to_bits(),
                        "case {case}: forest diverged at {jobs} worker(s)"
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Render everything observable about one labelled epoch app, its code
/// included (built through `materialize`).
fn epoch_app_key(stream: &LongitudinalStream, index: usize, ea: &corpus::EpochApp) -> String {
    let (code, _) = stream.materialize(index, ea.last_changed);
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}",
        ea.app.spec, ea.app.seeded, code.files, ea.records, ea.changed, ea.last_changed
    )
}

/// Epoch N is a pure function of (seed, tenant knobs, N): independent
/// stream instances and arbitrary consumption orders agree byte for
/// byte, chunk size included.
#[test]
fn longitudinal_stream_is_pure_under_order_and_chunking() {
    let config = StreamConfig {
        apps: 40,
        ..StreamConfig::default()
    };
    let forward = LongitudinalStream::new(config.clone());
    let scattered = LongitudinalStream::new(config.clone());

    for epoch in [0usize, 2] {
        let in_order: Vec<String> = forward
            .epoch(epoch)
            .enumerate()
            .map(|(i, ea)| epoch_app_key(&forward, i, &ea))
            .collect();
        // Consume the same epoch from a fresh stream in a scrambled
        // order (and re-query one index twice): every draw must be
        // position-pure, not cursor-dependent.
        let mut scrambled: Vec<(usize, String)> = (0..config.apps)
            .map(|i| (i * 23 + 7) % config.apps)
            .map(|i| {
                (
                    i,
                    epoch_app_key(&scattered, i, &scattered.epoch_app(i, epoch)),
                )
            })
            .collect();
        scrambled.sort();
        scrambled.dedup();
        assert_eq!(
            scrambled.len(),
            config.apps,
            "index walk must cover all apps"
        );
        for (i, key) in scrambled {
            assert_eq!(
                key, in_order[i],
                "epoch {epoch} app {i} depends on consumption order"
            );
        }
        // Re-query is idempotent.
        let again = epoch_app_key(&scattered, 11, &scattered.epoch_app(11, epoch));
        assert_eq!(again, in_order[11], "repeat query diverged");
    }
}

/// The classic generator equals its own streaming form drained in any
/// chunk size — `Corpus::generate` is now a thin wrapper over it.
#[test]
fn corpus_generate_matches_chunked_stream_drain() {
    let mut config = CorpusConfig::small(18, 20179);
    config.language_mix = [12, 2, 2, 2];
    let eager = Corpus::generate(&config);

    for chunk in [1usize, 5, 18] {
        let mut stream = Corpus::stream(&config);
        let mut apps = Vec::new();
        loop {
            let batch: Vec<_> = stream.by_ref().take(chunk).collect();
            if batch.is_empty() {
                break;
            }
            apps.extend(batch);
        }
        assert_eq!(apps.len(), eager.apps.len(), "chunk {chunk}: app count");
        for (a, b) in eager.apps.iter().zip(&apps) {
            assert_eq!(
                format!("{:?}|{:?}", a.spec, a.files),
                format!("{:?}|{:?}", b.spec, b.files),
                "chunk {chunk}: app diverged"
            );
        }
        let db = stream.into_db();
        assert_eq!(
            format!("{:?}", eager.db.records()),
            format!("{:?}", db.records()),
            "chunk {chunk}: CVE database diverged"
        );
    }
}
