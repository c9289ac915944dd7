//! BENCH-SERVE: scoring-service round-trip throughput and latency.
//!
//! Boots the `serve` daemon in-process on an ephemeral port and drives it
//! the way a deployment would: hundreds of concurrent clients
//! **pipelining** pre-extracted feature vectors over the length-prefixed
//! JSON protocol. Three gates run before anything is timed:
//!
//! 1. **Equality** — every app's wire-scored report must be string-equal
//!    to the offline [`evaluate_batch`] report, and must carry the
//!    served model's fingerprint.
//! 2. **Overload** — a second daemon with `max_inflight = 1` and an
//!    artificial batch delay must answer a typed `busy` error, not queue
//!    unboundedly or drop the connection.
//! 3. **Recovery** — after the overload clears, the same server must
//!    score again.
//!
//! Then N client threads each blast bursts of `WINDOW` pipelined `score`
//! requests per connection (request frames are precomputed, so the
//! client side of the hot loop is one `write_all` plus reads), and the
//! equality gate runs *inside* the timed loop: every response must be
//! byte-identical to the precomputed offline reference frame. The result
//! prints as one `BENCH_SERVE` JSON line (snapshot:
//! `results/BENCH_SERVE.json`) with requests/sec and client-observed
//! p50/p95/p99/p99.9 latency. `CLAIRVOYANT_BENCH_SMOKE=1` shrinks
//! everything to a CI-sized round-trip check.
//!
//! [`evaluate_batch`]: clairvoyant::CompiledModel::evaluate_batch

use bench::{criterion_group, criterion_main};
use clairvoyant::prelude::*;
use clairvoyant::report::{security_report_value, Json};
use serve::client::{error_type, is_ok};
use serve::protocol::{frame_into, ok_response};
use serve::{Client, ModelState, ServeConfig};
use std::time::{Duration, Instant};

/// Pull `(model_fingerprint, report_json)` out of a score response.
fn score_parts(response: &Json) -> (String, String) {
    assert!(is_ok(response), "score failed: {response}");
    let Json::Object(obj) = response else {
        panic!("score response is not an object: {response}");
    };
    let Some(Json::String(fp)) = obj.get("model") else {
        panic!("score response has no model fingerprint: {response}");
    };
    let report = obj.get("report").expect("score response has a report");
    (fp.clone(), report.to_string())
}

fn bench_serve(_c: &mut bench::harness::Criterion) {
    let smoke = std::env::var("CLAIRVOYANT_BENCH_SMOKE").is_ok();
    // clients × bursts × window pipelined requests in the timed section.
    let (n_apps, clients, bursts, window) = if smoke {
        (8, 4, 3, 4)
    } else {
        (34, 200, 10, 32)
    };

    // Fixed-seed model and corpus: the bench is deterministic end to end.
    let train_corpus = Corpus::generate(&CorpusConfig::small(30, 20170408));
    let compiled = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        ..Default::default()
    })
    .train(&train_corpus)
    .compile();

    let mut score_config = CorpusConfig::small(n_apps, 5);
    score_config.max_kloc = 2.0;
    let score_corpus = Corpus::generate(&score_config);
    let apps = extract_corpus(&score_corpus, 0).features;

    // Offline reference reports, serialized exactly as the server does.
    let reports = compiled.evaluate_batch(&apps, 1);
    let expected: Vec<String> = reports
        .iter()
        .map(|r| security_report_value(r).to_string())
        .collect();

    let model = ModelState::from_model(compiled);
    let fingerprint = model.fingerprint_hex();
    let handle = serve::start(
        ServeConfig {
            // Sized for the pipelined fleet: the in-flight cap must hold
            // clients × window admitted jobs, or the equality gate would
            // (correctly) trip on typed busy refusals.
            max_inflight: (clients * window * 2).max(256),
            batch_max: 128,
            jobs: 1,
            // One reactor + one shard: the bench host is a single core,
            // so extra threads only add context switches.
            reactor_threads: 1,
            batch_shards: 1,
            ..ServeConfig::default()
        },
        model,
    )
    .expect("start server");
    let addr = handle.addr();

    // Gate 1: every wire report equals its offline reference, byte for
    // byte, under the served model's fingerprint.
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    for ((name, fv), want) in apps.iter().zip(&expected) {
        let response = client.score_features(name, fv).expect("score");
        let (fp, got) = score_parts(&response);
        assert_eq!(fp, fingerprint, "fingerprint mismatch for {name}");
        assert_eq!(&got, want, "wire report diverged from offline for {name}");
    }

    // Gates 2 + 3: a saturated server answers `busy`, then recovers.
    let overload = serve::start(
        ServeConfig {
            max_inflight: 1,
            batch_max: 1,
            debug_batch_delay: Duration::from_millis(300),
            ..ServeConfig::default()
        },
        ModelState::from_model(
            Trainer::with_config(TrainerConfig::default())
                .train(&train_corpus)
                .compile(),
        ),
    )
    .expect("start overload server");
    let overload_addr = overload.addr();
    let (hold_name, hold_fv) = apps[0].clone();
    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(overload_addr).expect("connect holder");
        c.score_features(&hold_name, &hold_fv).expect("held score")
    });
    std::thread::sleep(Duration::from_millis(100)); // let the holder admit
    let mut probe = Client::connect(overload_addr).expect("connect probe");
    let refused = probe
        .score_features(&apps[1].0, &apps[1].1)
        .expect("probe roundtrip");
    let busy_seen = error_type(&refused) == Some("busy");
    assert!(busy_seen, "expected busy, got: {refused}");
    assert!(is_ok(&holder.join().expect("holder thread")));
    let recovered = probe
        .score_features(&apps[1].0, &apps[1].1)
        .expect("recovery roundtrip");
    assert!(is_ok(&recovered), "server did not recover: {recovered}");
    overload.shutdown();

    // Precompute the hot-loop bytes once: per-app request frames (what
    // every client writes) and per-app expected response payloads (the
    // byte-equality gate each response is checked against — `frame_into`
    // + `ok_response` is exactly how the server renders its replies).
    let request_frames: Vec<Vec<u8>> = apps
        .iter()
        .map(|(name, fv)| {
            let request = Json::object(vec![
                ("op", Json::String("score".into())),
                ("name", Json::String(name.clone())),
                (
                    "features",
                    Json::Object(
                        fv.iter()
                            .map(|(k, v)| (k.to_string(), Json::Number(v)))
                            .collect(),
                    ),
                ),
            ]);
            let mut frame = Vec::new();
            frame_into(&mut frame, &request);
            frame
        })
        .collect();
    let expected_payloads: Vec<String> = reports
        .iter()
        .map(|report| {
            ok_response(
                "score",
                vec![
                    ("model", Json::String(fingerprint.clone())),
                    ("report", security_report_value(report)),
                ],
            )
            .to_string()
        })
        .collect();

    // Timed section: every client pipelines `window` requests per burst
    // over one persistent connection — one write, `window` reads — and
    // byte-checks each response in request order.
    let t0 = Instant::now();
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let apps = &apps;
                let request_frames = &request_frames;
                let expected_payloads = &expected_payloads;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect worker");
                    client
                        .set_timeout(Some(Duration::from_secs(60)))
                        .expect("set timeout");
                    let mut lats = Vec::with_capacity(bursts * window);
                    let mut burst_bytes = Vec::new();
                    for b in 0..bursts {
                        burst_bytes.clear();
                        let base = c + b * window;
                        for i in 0..window {
                            burst_bytes.extend_from_slice(&request_frames[(base + i) % apps.len()]);
                        }
                        let t = Instant::now();
                        client.send_framed(&burst_bytes).expect("send burst");
                        for i in 0..window {
                            let payload = client.recv_payload().expect("recv");
                            // In-loop equality gate: responses must come
                            // back in request order, byte-identical to
                            // the offline reference.
                            let want = expected_payloads[(base + i) % apps.len()].as_bytes();
                            assert_eq!(
                                payload, want,
                                "client {c} burst {b} response {i}: wire bytes diverged \
                                 from offline scoring (or arrived out of order)"
                            );
                            lats.push(t.elapsed().as_micros() as u64);
                        }
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut all: Vec<u64> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let total = all.len();
    let quantile = |q: f64| all[((total - 1) as f64 * q) as usize] as f64 / 1e3;
    let rps = total as f64 / elapsed.max(1e-9);

    handle.shutdown();

    println!(
        "BENCH_SERVE {{\"apps\":{},\"clients\":{clients},\"window\":{window},\
         \"requests\":{total},\"throughput_rps\":{rps:.1},\"p50_ms\":{:.2},\
         \"p95_ms\":{:.2},\"p99_ms\":{:.2},\"p999_ms\":{:.2},\
         \"busy_seen\":{busy_seen},\"reports_identical\":true}}",
        apps.len(),
        quantile(0.5),
        quantile(0.95),
        quantile(0.99),
        quantile(0.999),
    );
    eprintln!(
        "serve engine: {total} pipelined requests from {clients} clients \
         (window {window}) in {elapsed:.2} s ({rps:.0} req/s), \
         p50 {:.2} ms, p99 {:.2} ms, p99.9 {:.2} ms",
        quantile(0.5),
        quantile(0.99),
        quantile(0.999),
    );
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
