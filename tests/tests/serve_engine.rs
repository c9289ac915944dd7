//! Black-box tests for the scoring daemon (`crates/serve`).
//!
//! Every test boots a real daemon on an ephemeral port and drives it
//! over TCP — no test reaches into server internals. The pillars:
//!
//! - **Bit-identity**: a served `score` response carries exactly the
//!   JSON the offline engine produces for the same model and features
//!   (`security_report_value` over `evaluate_batch` output), at any
//!   client concurrency and for any request interleaving.
//! - **Robustness**: seeded protocol garbage (truncated frames, huge
//!   length prefixes, invalid UTF-8, mid-request disconnects) gets
//!   typed errors or a dropped connection — the accept loop never
//!   wedges and the next well-formed client is served normally.
//! - **Hot reload**: hammering `score` while `reload` swaps between two
//!   models yields responses that are each internally consistent with
//!   exactly one of the two model fingerprints.
//! - **Backpressure and drain**: over the admission cap clients get a
//!   typed `busy` error; shutdown answers everything already admitted.
//! - **Pipelining**: many requests written back-to-back on one
//!   connection come back bit-identical and in request order, through
//!   dribbled frames, slow readers, and mid-pipeline disconnects; idle
//!   connections cost the reactor zero wakeups.

use clairvoyant::prelude::*;
use clairvoyant::report::{comparison_value, explanation_value, security_report_value, Json};
use serve::client::{error_type, is_ok, Client};
use serve::protocol::{read_frame, write_frame};
use serve::server::{ModelState, ServeConfig};
use static_analysis::FeatureVector;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Everything the tests share: two distinct trained models persisted as
/// CLVY files, their fingerprints, and a small extracted app set.
/// Training dominates this suite's runtime, so it happens once.
struct Fixture {
    path_a: PathBuf,
    path_b: PathBuf,
    fp_a: String,
    fp_b: String,
    apps: Vec<(String, FeatureVector)>,
    /// App name → offline report JSON under model A / model B.
    expected_a: BTreeMap<String, String>,
    expected_b: BTreeMap<String, String>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut config = CorpusConfig::small(16, 20177);
        config.language_mix = [12, 2, 1, 1];
        config.max_kloc = 2.0;
        let corpus = Corpus::generate(&config);
        let trainer = Trainer::with_config(TrainerConfig {
            top_k_features: Some(14),
            ..Default::default()
        });
        let model_a = trainer.train(&corpus).compile();
        // Model B: same corpus, different feature budget — close enough
        // to be swappable, different enough to fingerprint apart.
        let model_b = Trainer::with_config(TrainerConfig {
            top_k_features: Some(10),
            ..Default::default()
        })
        .train(&corpus)
        .compile();

        let dir = std::env::temp_dir();
        let path_a = dir.join(format!("clairvoyant-serve-a-{}.clvy", std::process::id()));
        let path_b = dir.join(format!("clairvoyant-serve-b-{}.clvy", std::process::id()));
        model_a.save(&path_a).expect("save model A");
        model_b.save(&path_b).expect("save model B");
        let fp_a = ModelState::load(&path_a).expect("load A").fingerprint_hex();
        let fp_b = ModelState::load(&path_b).expect("load B").fingerprint_hex();
        assert_ne!(fp_a, fp_b, "fixture models must be distinguishable");

        let testbed = Testbed::new();
        let apps: Vec<(String, FeatureVector)> = corpus
            .apps
            .iter()
            .take(10)
            .map(|app| (app.spec.name.clone(), testbed.extract(&app.program)))
            .collect();

        let expected = |model: &CompiledModel| -> BTreeMap<String, String> {
            model
                .evaluate_batch(&apps, 1)
                .iter()
                .map(|r| (r.app.clone(), security_report_value(r).to_string()))
                .collect()
        };
        // Expectations come from re-loading the files the daemon serves,
        // so the comparison covers the persisted form end to end.
        let expected_a = expected(&CompiledModel::load(&path_a).expect("reload A"));
        let expected_b = expected(&CompiledModel::load(&path_b).expect("reload B"));

        Fixture {
            path_a,
            path_b,
            fp_a,
            fp_b,
            apps,
            expected_a,
            expected_b,
        }
    })
}

fn start_server(config: ServeConfig) -> serve::ServerHandle {
    let model = ModelState::load(&fixture().path_a).expect("load model A");
    serve::start(config, model).expect("daemon starts")
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    client
}

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

#[test]
fn concurrent_scores_are_bit_identical_to_offline_batch() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        batch_max: 4, // small batches force cross-client coalescing
        jobs: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    const CLIENTS: usize = 6;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = connect(addr);
                // Each client walks the app set from a different offset,
                // so batches mix apps in client-dependent orders.
                for i in 0..fx.apps.len() {
                    let (name, fv) = &fx.apps[(i + c) % fx.apps.len()];
                    let response = client.score_features(name, fv).expect("score");
                    let (fp, report) = score_parts(&response);
                    assert_eq!(fp, fx.fp_a, "unexpected model fingerprint");
                    assert_eq!(
                        &report, &fx.expected_a[name],
                        "served report for {name} diverged from offline evaluate_batch"
                    );
                }
            });
        }
    });

    // The daemon's own accounting saw every request and actually
    // coalesced some of them into multi-app batches.
    let mut client = connect(addr);
    let stats = client.stats().expect("stats");
    let text = stats.to_string();
    assert!(is_ok(&stats), "stats failed: {stats}");
    let total = (CLIENTS * fx.apps.len()) as f64;
    let scored = stat_field(&stats, "scored_apps");
    assert!(
        scored >= total,
        "stats lost requests: scored {scored} < sent {total} in {text}"
    );
    assert!(
        stat_field(&stats, "batches") <= scored,
        "batch count cannot exceed scored apps: {text}"
    );
    handle.shutdown();
}

/// Dig `stats.<key>` out of a stats response.
fn stat_field(response: &Json, key: &str) -> f64 {
    let Json::Object(obj) = response else {
        panic!("stats response is not an object");
    };
    let Some(Json::Object(stats)) = obj.get("stats") else {
        panic!("stats response has no stats body");
    };
    match stats.get(key) {
        Some(Json::Number(n)) => *n,
        other => panic!("stats.{key} missing or non-numeric: {other:?}"),
    }
}

#[test]
fn source_submissions_match_offline_extraction() {
    let fx = fixture();
    let handle = start_server(ServeConfig::default());
    let mut client = connect(handle.addr());

    let source = "fn handle(n: int) -> int {
        let total: int = 0;
        let i: int = 0;
        while i < n {
            if i > 3 { total = total + i; }
            i = i + 1;
        }
        return total;
    }";
    let response = client
        .score_source("inline-app", source, "c")
        .expect("score");
    let (fp, report) = score_parts(&response);
    assert_eq!(fp, fx.fp_a);

    // Offline reference: same parse, same extraction, same model.
    let program = minilang::parse_program(
        "inline-app",
        Dialect::C,
        &[("inline-app.src".to_string(), source.to_string())],
    )
    .expect("source parses");
    let fv = Testbed::new().extract(&program);
    let offline = CompiledModel::load(&fx.path_a)
        .expect("load")
        .evaluate_batch(&[("inline-app".to_string(), fv)], 1);
    assert_eq!(report, security_report_value(&offline[0]).to_string());

    // Unparsable source is a typed bad_request, not a dropped daemon.
    let response = client
        .score_source("broken", "fn { not minilang", "c")
        .expect("round-trip survives");
    assert_eq!(error_type(&response), Some("bad_request"));
    handle.shutdown();
}

#[test]
fn deeply_nested_sources_get_typed_bad_requests_and_the_daemon_lives() {
    let handle = start_server(ServeConfig::default());
    let mut client = connect(handle.addr());
    let depth = 20_000;
    let parens = format!(
        "fn main() {{ let x: int = {}1{}; }}",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let ifs = format!(
        "fn f(a: int) {{ {}{} }}",
        "if a > 0 { ".repeat(depth),
        "}".repeat(depth)
    );
    for (name, source) in [("deep-parens", parens), ("deep-ifs", ifs)] {
        let response = client
            .score_source(name, &source, "c")
            .expect("round-trip survives");
        assert_eq!(error_type(&response), Some("bad_request"), "{name}");
        assert!(
            response.to_string().contains("nesting deeper than"),
            "{response}"
        );
        let health = client.health().expect("daemon still answers");
        assert!(is_ok(&health), "{name}: {health}");
    }
    handle.shutdown();
}

#[test]
fn long_expression_chains_get_typed_bad_requests_and_the_daemon_lives() {
    // Left-deep chains are loops in the parser, so the nesting limit never
    // sees them; the expression-depth limit refuses them before a tree
    // deep enough to overflow a shard thread exists.
    let handle = start_server(ServeConfig::default());
    let mut client = connect(handle.addr());
    let sum = format!(
        "fn main() {{ let x: int = {}; }}",
        vec!["1"; 20_000].join(" + ")
    );
    let steps: String = (1..=20_000).map(|i| format!("[{i}]")).collect();
    let index = format!("fn main() {{ let x: int = a{steps}; }}");
    for (name, source) in [("long-sum", sum), ("long-index", index)] {
        let response = client
            .score_source(name, &source, "c")
            .expect("round-trip survives");
        assert_eq!(error_type(&response), Some("bad_request"), "{name}");
        assert!(
            response.to_string().contains("expression deeper than"),
            "{response}"
        );
        let health = client.health().expect("daemon still answers");
        assert!(is_ok(&health), "{name}: {health}");
    }
    handle.shutdown();
}

/// Pull the named field of an ok response as serialized JSON.
fn response_part(response: &Json, key: &str) -> String {
    assert!(is_ok(response), "request failed: {response}");
    let Json::Object(obj) = response else {
        panic!("response is not an object: {response}");
    };
    obj.get(key)
        .unwrap_or_else(|| panic!("response has no `{key}`: {response}"))
        .to_string()
}

#[test]
fn explain_and_compare_wire_responses_match_offline() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        batch_max: 4,
        jobs: 2,
        ..ServeConfig::default()
    });
    let mut client = connect(handle.addr());
    let model = CompiledModel::load(&fx.path_a).expect("load model A");

    // Feature-vector explain: the wire body must equal the offline
    // scalar reference exactly (no hotspots — there is no program).
    let (name, fv) = &fx.apps[0];
    let response = client.explain_features(name, fv).expect("explain");
    assert_eq!(
        response_part(&response, "model"),
        format!("\"{}\"", fx.fp_a)
    );
    let offline = explanation_value(&model.explain_features(name.clone(), fv)).to_string();
    assert_eq!(
        response_part(&response, "explanation"),
        offline,
        "served explanation diverged from offline explain_features"
    );

    // Source explain: same parse, same extraction, same hotspot ranking
    // as the offline `explain_program` path.
    let risky = "@endpoint(network)
        fn handle(req: str, n: int) {
            let buf: str[8];
            strcpy(buf, req);
            buf[n] = req;
            system(req);
        }";
    let safer = "@endpoint(network)
        fn handle(req: str, n: int) {
            if n < 0 || n > 7 { return; }
            let buf: str[8];
            strncpy(buf, req, 7);
            log_msg(\"handled\");
        }";
    let response = client
        .explain_source("inline-app", risky, "c", 3)
        .expect("explain source");
    let program = minilang::parse_program(
        "inline-app",
        Dialect::C,
        &[("inline-app.src".to_string(), risky.to_string())],
    )
    .expect("source parses");
    let offline = explanation_value(&model.explain_program(&program, 3, 1)).to_string();
    let wire = response_part(&response, "explanation");
    assert_eq!(wire, offline, "served source explanation diverged");
    assert!(
        wire.contains("\"function\":\"handle\""),
        "source explain must surface hotspots: {wire}"
    );

    // Compare: the wire comparison equals the offline compiled route.
    let response = client
        .compare_sources(("libfast", risky), ("libsafe", safer), "c")
        .expect("compare");
    let pa = minilang::parse_program(
        "libfast",
        Dialect::C,
        &[("libfast.src".to_string(), risky.to_string())],
    )
    .unwrap();
    let pb = minilang::parse_program(
        "libsafe",
        Dialect::C,
        &[("libsafe.src".to_string(), safer.to_string())],
    )
    .unwrap();
    let offline = comparison_value(&compare_programs(&model, &pa, &pb, 1)).to_string();
    assert_eq!(
        response_part(&response, "comparison"),
        offline,
        "served comparison diverged from offline compare_programs"
    );

    // The stats endpoint accounts for both new ops.
    let stats = client.stats().expect("stats");
    let text = stats.to_string();
    assert!(
        text.contains("\"explain\":{") && text.contains("\"compare\":{"),
        "stats must carry explain/compare endpoint counters: {text}"
    );
    handle.shutdown();
}

#[test]
fn mixed_workload_batches_stay_bit_identical() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        batch_max: 3, // force score/explain/compare rows into shared batches
        jobs: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let model = CompiledModel::load(&fx.path_a).expect("load model A");

    // Offline references, computed once.
    let expected_explanations: BTreeMap<String, String> = fx
        .apps
        .iter()
        .map(|(name, fv)| {
            let e = model.explain_features(name.clone(), fv);
            (name.clone(), explanation_value(&e).to_string())
        })
        .collect();
    let expected_compare = {
        let ea = model.explain_features(fx.apps[0].0.clone(), &fx.apps[0].1);
        let eb = model.explain_features(fx.apps[1].0.clone(), &fx.apps[1].1);
        comparison_value(&clairvoyant::Comparison::from_explanations(&ea, &eb)).to_string()
    };

    std::thread::scope(|scope| {
        // Scoring clients…
        for c in 0..2 {
            scope.spawn(move || {
                let mut client = connect(addr);
                for i in 0..fx.apps.len() {
                    let (name, fv) = &fx.apps[(i + c) % fx.apps.len()];
                    let response = client.score_features(name, fv).expect("score");
                    let (_, report) = score_parts(&response);
                    assert_eq!(&report, &fx.expected_a[name]);
                }
            });
        }
        // …explain clients…
        let expected = &expected_explanations;
        for c in 0..2 {
            scope.spawn(move || {
                let mut client = connect(addr);
                for i in 0..fx.apps.len() {
                    let (name, fv) = &fx.apps[(i + c + 1) % fx.apps.len()];
                    let response = client.explain_features(name, fv).expect("explain");
                    assert_eq!(
                        response_part(&response, "explanation"),
                        expected[name],
                        "mixed-batch explanation diverged for {name}"
                    );
                }
            });
        }
        // …and a compare client all interleave into the same batches.
        let expected = &expected_compare;
        scope.spawn(move || {
            let mut client = connect(addr);
            for _ in 0..6 {
                let response = client
                    .compare_features(
                        (&fx.apps[0].0, &fx.apps[0].1),
                        (&fx.apps[1].0, &fx.apps[1].1),
                    )
                    .expect("compare");
                assert_eq!(
                    &response_part(&response, "comparison"),
                    expected,
                    "mixed-batch comparison diverged"
                );
            }
        });
    });
    handle.shutdown();
}

#[test]
fn overloaded_explain_returns_typed_busy() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        max_inflight: 1,
        batch_max: 1,
        debug_batch_delay: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let (name, fv) = &fx.apps[0];

    // Fill the single admission slot without waiting for the response…
    let request = Json::object(vec![
        ("op", Json::String("explain".into())),
        ("name", Json::String(name.clone())),
        (
            "features",
            Json::Object(
                fv.iter()
                    .map(|(k, v)| (k.to_string(), Json::Number(v)))
                    .collect(),
            ),
        ),
    ])
    .to_string();
    let mut held = TcpStream::connect(addr).expect("connect");
    held.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write_frame(&mut held, request.as_bytes()).expect("send");
    std::thread::sleep(Duration::from_millis(100));

    // …so the next explain (and compare) bounce with `busy`, the error
    // `query explain` turns into exit code 3.
    let mut client = connect(addr);
    let response = client.explain_features(name, fv).expect("round-trip");
    assert_eq!(error_type(&response), Some("busy"), "got {response}");
    let response = client
        .compare_features((name, fv), (name, fv))
        .expect("round-trip");
    assert_eq!(error_type(&response), Some("busy"), "got {response}");

    // The admitted explain still completes.
    let payload = read_frame(&mut held, &mut || true).expect("held response");
    let response = serve::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(is_ok(&response), "held explain failed: {response}");
    handle.shutdown();
}

#[test]
fn overload_returns_typed_busy_and_recovers() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        max_inflight: 2,
        batch_max: 1,
        // Hold each admitted request in the backend long enough to
        // observe the cap deterministically.
        debug_batch_delay: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let (name, fv) = &fx.apps[0];
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
    ])
    .to_string();

    // Two raw connections fill the admission window without waiting for
    // their responses…
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        write_frame(&mut stream, request.as_bytes()).expect("send");
        held.push(stream);
        std::thread::sleep(Duration::from_millis(100));
    }

    // …so the third client must bounce with a typed `busy` error.
    let mut client = connect(addr);
    let response = client.score_features(name, fv).expect("round-trip");
    assert_eq!(
        error_type(&response),
        Some("busy"),
        "over the cap the daemon must refuse, got {response}"
    );

    // The held requests were admitted, so they still complete — and
    // once they drain, the same client is served normally.
    for mut stream in held {
        let payload = read_frame(&mut stream, &mut || true).expect("held response");
        let response = serve::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        let (fp, report) = score_parts(&response);
        assert_eq!(fp, fx.fp_a);
        assert_eq!(&report, &fx.expected_a[name]);
    }
    let response = client.score_features(name, fv).expect("retry");
    let (_, report) = score_parts(&response);
    assert_eq!(&report, &fx.expected_a[name]);
    handle.shutdown();
}

#[test]
fn protocol_garbage_never_wedges_the_accept_loop() {
    let fx = fixture();
    let handle = start_server(ServeConfig::default());
    let addr = handle.addr();

    // Seeded splitmix64: the byte soup is reproducible.
    let mut state = 0x5EED_5EED_5EED_5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    for round in 0..60 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let case = next() % 8;
        let expect_reply = match case {
            // Unframed random bytes, then disconnect.
            0 => {
                let junk: Vec<u8> = (0..(next() % 64)).map(|_| (next() & 0xFF) as u8).collect();
                use std::io::Write as _;
                let _ = stream.write_all(&junk);
                false
            }
            // Oversized length prefix.
            1 => {
                use std::io::Write as _;
                let len =
                    (serve::protocol::MAX_FRAME as u32).saturating_add(1 + (next() as u32 % 1000));
                let _ = stream.write_all(&len.to_le_bytes());
                let _ = stream.write_all(b"xx");
                false
            }
            // Truncated frame: header promises more than is sent.
            2 => {
                use std::io::Write as _;
                let _ = stream.write_all(&100u32.to_le_bytes());
                let _ = stream.write_all(b"only a few bytes");
                false
            }
            // Mid-header disconnect.
            3 => {
                use std::io::Write as _;
                let _ = stream.write_all(&[7u8, 0]);
                false
            }
            // Framed invalid UTF-8.
            4 => {
                write_frame(&mut stream, &[0xFF, 0xFE, 0x80, 0x81]).unwrap();
                true
            }
            // Framed UTF-8 that is not JSON.
            5 => {
                write_frame(&mut stream, b"score please!").unwrap();
                true
            }
            // Framed JSON with an unknown or missing op.
            6 => {
                write_frame(&mut stream, b"{\"op\":\"frobnicate\"}").unwrap();
                true
            }
            // Empty frame.
            _ => {
                write_frame(&mut stream, b"").unwrap();
                true
            }
        };
        if expect_reply {
            // In-sync payload problems must produce a typed error on a
            // still-open connection.
            let payload = read_frame(&mut stream, &mut || true)
                .unwrap_or_else(|e| panic!("round {round} case {case}: no reply: {e:?}"));
            let response =
                serve::json::parse(std::str::from_utf8(&payload).expect("UTF-8 response"))
                    .expect("JSON response");
            assert_eq!(
                error_type(&response),
                Some("bad_request"),
                "round {round} case {case}: {response}"
            );
        }
        drop(stream);

        // The daemon must still serve a well-formed client immediately.
        if round % 10 == 9 {
            let mut client = connect(addr);
            assert!(is_ok(&client.health().expect("health after garbage")));
        }
    }

    // Full scoring still works after the bombardment.
    let mut client = connect(addr);
    let (name, fv) = &fx.apps[1];
    let response = client.score_features(name, fv).expect("score");
    let (_, report) = score_parts(&response);
    assert_eq!(&report, &fx.expected_a[name]);
    handle.shutdown();
}

#[test]
fn hot_reload_race_keeps_every_response_consistent() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        batch_max: 3,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    const SCORERS: usize = 4;
    const REQUESTS: usize = 25;
    std::thread::scope(|scope| {
        for c in 0..SCORERS {
            scope.spawn(move || {
                let mut client = connect(addr);
                for i in 0..REQUESTS {
                    let (name, fv) = &fx.apps[(i + c) % fx.apps.len()];
                    let response = client.score_features(name, fv).expect("score");
                    let (fp, report) = score_parts(&response);
                    // The one consistency a hot swap must preserve: the
                    // response pairs a fingerprint with the report that
                    // model produces — never a hybrid.
                    let expected = if fp == fx.fp_a {
                        &fx.expected_a[name]
                    } else if fp == fx.fp_b {
                        &fx.expected_b[name]
                    } else {
                        panic!("fingerprint {fp} is neither fixture model");
                    };
                    assert_eq!(
                        &report, expected,
                        "report/fingerprint mismatch for {name} under {fp}"
                    );
                }
            });
        }
        scope.spawn(move || {
            let mut client = connect(addr);
            for i in 0..10 {
                let path = if i % 2 == 0 { &fx.path_b } else { &fx.path_a };
                let response = client.reload(Some(path.to_str().unwrap())).expect("reload");
                assert!(is_ok(&response), "reload failed: {response}");
                std::thread::sleep(Duration::from_millis(15));
            }
        });
    });

    // A reload pointed at garbage keeps the old model serving.
    let bogus = std::env::temp_dir().join(format!(
        "clairvoyant-serve-bogus-{}.clvy",
        std::process::id()
    ));
    std::fs::write(&bogus, b"not a model").unwrap();
    let mut client = connect(addr);
    let response = client
        .reload(Some(bogus.to_str().unwrap()))
        .expect("reload");
    assert_eq!(error_type(&response), Some("bad_request"));
    let (name, fv) = &fx.apps[0];
    let response = client.score_features(name, fv).expect("score");
    let (fp, _) = score_parts(&response);
    assert!(fp == fx.fp_a || fp == fx.fp_b);
    handle.shutdown();
}

/// Byte offset of the first kept-feature index in a CLVY file: past
/// the magic, version, feature names, log flag and standardizer.
fn first_kept_index_offset(bytes: &[u8]) -> usize {
    use secml::bytes::ByteReader;
    let mut r = ByteReader::new(bytes);
    r.take(8).expect("magic and version");
    for _ in 0..r.get_usize().expect("feature name count") {
        r.get_str().expect("feature name");
    }
    r.get_u8().expect("log flag");
    r.get_f64s().expect("means");
    r.get_f64s().expect("stds");
    assert!(
        r.get_usize().expect("kept count") > 0,
        "model keeps no feature"
    );
    bytes.len() - r.remaining()
}

#[test]
fn reloading_a_model_that_indexes_past_its_schema_is_refused() {
    // A kept-feature index overwritten with 1 << 20 used to decode, and
    // the published model answered every score with `internal`. The
    // reload must now fail typed, and the old model keep serving.
    let fx = fixture();
    let handle = start_server(ServeConfig::default());
    let mut bytes = std::fs::read(&fx.path_b).expect("read model B");
    let at = first_kept_index_offset(&bytes);
    bytes[at..at + 8].copy_from_slice(&(1u64 << 20).to_le_bytes());
    let bad = std::env::temp_dir().join(format!(
        "clairvoyant-serve-bad-kept-{}.clvy",
        std::process::id()
    ));
    std::fs::write(&bad, &bytes).expect("write damaged model");

    let mut client = connect(handle.addr());
    let response = client.reload(Some(bad.to_str().unwrap())).expect("reload");
    assert_eq!(error_type(&response), Some("bad_request"), "{response}");
    for (name, fv) in &fx.apps {
        let response = client.score_features(name, fv).expect("score");
        let (fp, report) = score_parts(&response);
        assert_eq!(fp, fx.fp_a, "the damaged model was published");
        assert_eq!(&report, &fx.expected_a[name]);
    }
    std::fs::remove_file(&bad).ok();
    handle.shutdown();
}

#[test]
fn a_model_file_with_trailing_bytes_is_refused() {
    // Model B with one byte appended (a longer file overwritten in place
    // without truncation) would serve under a fingerprint that no
    // `to_bytes` reproduces: loading and reloading it must fail typed.
    let fx = fixture();
    let mut bytes = std::fs::read(&fx.path_b).expect("read model B");
    bytes.push(0);
    let bad = std::env::temp_dir().join(format!(
        "clairvoyant-serve-trailing-{}.clvy",
        std::process::id()
    ));
    std::fs::write(&bad, &bytes).expect("write padded model");
    let err = ModelState::load(&bad)
        .err()
        .expect("a padded model file loaded");
    assert!(err.contains("trailing"), "{err}");

    let handle = start_server(ServeConfig::default());
    let mut client = connect(handle.addr());
    let response = client.reload(Some(bad.to_str().unwrap())).expect("reload");
    assert_eq!(error_type(&response), Some("bad_request"), "{response}");
    let (name, fv) = &fx.apps[0];
    let (fp, _) = score_parts(&client.score_features(name, fv).expect("score"));
    assert_eq!(fp, fx.fp_a, "the padded model was published");
    std::fs::remove_file(&bad).ok();
    handle.shutdown();
}

#[test]
fn response_timeout_poisons_the_client_connection() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        batch_max: 1,
        // Hold the response long past the client's timeout.
        debug_batch_delay: Duration::from_millis(600),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_millis(100)))
        .expect("set timeout");
    let (name, fv) = &fx.apps[0];
    let err = client.score_features(name, fv).expect_err("must time out");
    assert!(err.contains("timed out"), "wrong timeout error: {err}");

    // The late response is still in flight on this connection; a second
    // roundtrip would read it as its own answer, so the client must
    // refuse reuse instead of silently desyncing.
    let err = client
        .score_features(name, fv)
        .expect_err("poisoned client must refuse reuse");
    assert!(err.contains("poisoned"), "wrong poisoned error: {err}");

    // A fresh connection is unaffected.
    let mut fresh = connect(handle.addr());
    let response = fresh.score_features(name, fv).expect("score");
    let (_, report) = score_parts(&response);
    assert_eq!(&report, &fx.expected_a[name]);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_requests() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        batch_max: 1,
        debug_batch_delay: Duration::from_millis(250),
        // Generous poll tick: the post-shutdown probe below must reach
        // its handler before the handler notices the flag and exits.
        poll_tick: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let (name, fv) = &fx.apps[2];
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
    ])
    .to_string();

    // Admit three slow requests, then ask the daemon to shut down while
    // they are still in flight.
    let mut held = Vec::new();
    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        write_frame(&mut stream, request.as_bytes()).expect("send");
        held.push(stream);
    }
    std::thread::sleep(Duration::from_millis(100));

    let mut admin = connect(addr);
    let response = admin.shutdown().expect("shutdown round-trip");
    assert!(is_ok(&response), "shutdown refused: {response}");

    // New work is refused while draining…
    let refused = admin.score_features(name, fv).expect("drain refusal");
    assert_eq!(error_type(&refused), Some("shutting_down"));

    // …but everything admitted before the shutdown still completes,
    // bit-identical as ever.
    for mut stream in held {
        let payload = read_frame(&mut stream, &mut || true).expect("drained response");
        let response = serve::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        let (fp, report) = score_parts(&response);
        assert_eq!(fp, fx.fp_a);
        assert_eq!(&report, &fx.expected_a[name]);
    }

    // The handle observes the wire-triggered shutdown and joins; the
    // port stops accepting.
    handle.wait();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after drain"
    );
}

/// Build a raw `score` request payload for one fixture app.
fn score_request(name: &str, fv: &FeatureVector) -> Json {
    Json::object(vec![
        ("op", Json::String("score".into())),
        ("name", Json::String(name.to_string())),
        (
            "features",
            Json::Object(
                fv.iter()
                    .map(|(k, v)| (k.to_string(), Json::Number(v)))
                    .collect(),
            ),
        ),
    ])
}

#[test]
fn pipelined_requests_return_ordered_bit_identical_responses() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        batch_max: 4, // pipelined frames must coalesce across batches
        jobs: 2,
        ..ServeConfig::default()
    });
    let mut client = connect(handle.addr());

    // 30 scores in a shuffled order, with a health probe wedged into the
    // middle: every response must land at its request's index.
    let mut requests = Vec::new();
    let mut names: Vec<Option<String>> = Vec::new();
    for round in 0..3 {
        for i in 0..fx.apps.len() {
            let (name, fv) = &fx.apps[(i * 3 + round) % fx.apps.len()];
            requests.push(score_request(name, fv));
            names.push(Some(name.clone()));
            if round == 1 && i == 4 {
                requests.push(Json::object(vec![("op", Json::String("health".into()))]));
                names.push(None);
            }
        }
    }
    let responses = client.pipeline(&requests).expect("pipeline");
    assert_eq!(responses.len(), requests.len());
    for (i, response) in responses.iter().enumerate() {
        match &names[i] {
            Some(name) => {
                let (fp, report) = score_parts(response);
                assert_eq!(fp, fx.fp_a);
                assert_eq!(
                    &report, &fx.expected_a[name],
                    "pipelined response {i} (app {name}) is out of order or diverged"
                );
            }
            None => {
                assert!(is_ok(response), "health in mid-pipeline failed: {response}");
                assert!(
                    response.to_string().contains("\"op\":\"health\""),
                    "response {i} should be the health probe: {response}"
                );
            }
        }
    }
    handle.shutdown();
}

#[test]
fn dribbled_frames_and_slow_readers_keep_responses_ordered() {
    use std::io::{Read as _, Write as _};
    let fx = fixture();
    let handle = start_server(ServeConfig::default());

    // Three requests written one byte at a time: the server sees every
    // possible partial-frame boundary and must reassemble incrementally.
    let order = [2usize, 0, 7];
    let mut wire = Vec::new();
    for &i in &order {
        let (name, fv) = &fx.apps[i];
        let payload = score_request(name, fv).to_string();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload.as_bytes());
    }
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    for chunk in wire.chunks(7) {
        stream.write_all(chunk).expect("dribble");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Read the responses as a slow consumer: tiny chunks with pauses, so
    // the server's write side has to cope with a lagging peer.
    let mut received = Vec::new();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut chunk = [0u8; 64];
    while frames.len() < order.len() {
        let n = stream.read(&mut chunk).expect("slow read");
        assert!(n > 0, "server closed before all responses arrived");
        received.extend_from_slice(&chunk[..n]);
        std::thread::sleep(Duration::from_millis(1));
        // Peel complete frames off the front.
        while received.len() >= 4 {
            let len = u32::from_le_bytes(received[..4].try_into().unwrap()) as usize;
            if received.len() < 4 + len {
                break;
            }
            frames.push(received[4..4 + len].to_vec());
            received.drain(..4 + len);
        }
    }
    for (&i, frame) in order.iter().zip(&frames) {
        let response = serve::json::parse(std::str::from_utf8(frame).unwrap()).unwrap();
        let (fp, report) = score_parts(&response);
        let name = &fx.apps[i].0;
        assert_eq!(fp, fx.fp_a);
        assert_eq!(
            &report, &fx.expected_a[name],
            "slow-reader response for {name} is out of order or diverged"
        );
    }
    handle.shutdown();
}

#[test]
fn mid_pipeline_disconnect_releases_slots_and_serves_on() {
    let fx = fixture();
    let handle = start_server(ServeConfig {
        batch_max: 1,
        // Slow enough that the disconnect happens while work is in
        // flight, so the completions come back to a dead connection.
        debug_batch_delay: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Pipeline four scores, give the daemon time to admit them, then
    // vanish without reading a single response.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for i in 0..4 {
            let (name, fv) = &fx.apps[i];
            write_frame(&mut stream, score_request(name, fv).to_string().as_bytes()).expect("send");
        }
        std::thread::sleep(Duration::from_millis(100));
    } // dropped here, mid-pipeline

    // The daemon keeps serving immediately…
    let mut client = connect(addr);
    for (name, fv) in &fx.apps {
        let response = client.score_features(name, fv).expect("score");
        let (fp, report) = score_parts(&response);
        assert_eq!(fp, fx.fp_a);
        assert_eq!(&report, &fx.expected_a[name]);
    }

    // …and once the orphaned batches finish, their admission slots are
    // released (the responses were dropped, not leaked onto anyone).
    std::thread::sleep(Duration::from_millis(800));
    let stats = client.stats().expect("stats");
    assert_eq!(
        stat_field(&stats, "inflight"),
        0.0,
        "disconnected pipeline leaked admission slots: {stats}"
    );
    handle.shutdown();
}

#[test]
fn backpressure_tiers_emit_typed_busy_and_recover() {
    let fx = fixture();
    let (name, fv) = &fx.apps[0];

    // Tier 2: the global in-flight cap refuses with typed `busy`, in
    // request order, and the connection recovers once work drains.
    let handle = start_server(ServeConfig {
        max_inflight: 2,
        batch_max: 1,
        debug_batch_delay: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let mut client = connect(handle.addr());
    let requests: Vec<Json> = (0..6).map(|_| score_request(name, fv)).collect();
    let responses = client.pipeline(&requests).expect("pipeline");
    for (i, response) in responses.iter().enumerate() {
        if i < 2 {
            let (_, report) = score_parts(response);
            assert_eq!(&report, &fx.expected_a[name], "admitted response {i}");
        } else {
            assert_eq!(
                error_type(response),
                Some("busy"),
                "response {i} over the cap must be busy: {response}"
            );
        }
    }
    let response = client.score_features(name, fv).expect("after drain");
    let (_, report) = score_parts(&response);
    assert_eq!(&report, &fx.expected_a[name], "no recovery after busy");
    let stats = client.stats().expect("stats");
    assert!(
        stat_field(&stats, "rejected_busy") >= 4.0,
        "busy refusals must be counted: {stats}"
    );
    handle.shutdown();

    // Tier 1: the per-connection pipeline cap pauses reading instead of
    // refusing — every request over the cap still completes, in order,
    // with no busy in sight.
    let handle = start_server(ServeConfig {
        max_pipeline: 2,
        batch_max: 1,
        debug_batch_delay: Duration::from_millis(30),
        ..ServeConfig::default()
    });
    let mut client = connect(handle.addr());
    let requests: Vec<Json> = (0..8)
        .map(|i| {
            let (name, fv) = &fx.apps[i % fx.apps.len()];
            score_request(name, fv)
        })
        .collect();
    let responses = client.pipeline(&requests).expect("pipeline");
    for (i, response) in responses.iter().enumerate() {
        let (_, report) = score_parts(response);
        let name = &fx.apps[i % fx.apps.len()].0;
        assert_eq!(
            &report, &fx.expected_a[name],
            "paused-pipeline response {i} diverged or arrived out of order"
        );
    }
    handle.shutdown();
}

#[test]
fn idle_connections_cost_zero_reactor_wakeups() {
    let fx = fixture();
    let handle = start_server(ServeConfig::default());
    let addr = handle.addr();

    // Eight established connections, each proven live, then left idle.
    let mut idle = Vec::new();
    for _ in 0..8 {
        let mut client = connect(addr);
        assert!(is_ok(&client.health().expect("health")));
        idle.push(client);
    }

    let mut observer = connect(addr);
    let before = stat_field(&observer.stats().expect("stats"), "reactor_wakeups");
    std::thread::sleep(Duration::from_millis(1200));
    let after = stat_field(&observer.stats().expect("stats"), "reactor_wakeups");

    // The old thread-per-connection design woke every connection each
    // poll tick: 8 conns × 50ms ticks ≈ 160+ wakeups over 1.2s. The
    // reactor parks idle connections indefinitely — the only wakeups
    // allowed here are the observer's own stats round-trip.
    let delta = after - before;
    assert!(
        delta <= 8.0,
        "idle connections must not wake the reactor: {delta} wakeups in 1.2s idle"
    );

    // The idle connections are still perfectly serviceable.
    for client in idle.iter_mut() {
        let (name, fv) = &fx.apps[0];
        let response = client.score_features(name, fv).expect("score after idle");
        let (_, report) = score_parts(&response);
        assert_eq!(&report, &fx.expected_a[name]);
    }
    handle.shutdown();
}

#[test]
fn repeat_source_scores_ride_the_warm_function_cache() {
    let handle = start_server(ServeConfig::default());
    let mut client = connect(handle.addr());

    let source = "fn helper(s: str) { exec(s); }
fn entry(s: str, n: int) -> int {
    helper(s);
    if n > 2 { return n; }
    return 0;
}";
    // Cold: both functions fingerprint-miss and run their fixpoints.
    let first = client.score_source("warm-app", source, "c").expect("score");
    assert!(is_ok(&first));
    let stats = client.stats().expect("stats");
    assert_eq!(stat_field(&stats, "incr_hits"), 0.0);
    assert_eq!(stat_field(&stats, "incr_misses"), 2.0);
    assert_eq!(stat_field(&stats, "incr_rebuilt_fns"), 2.0);
    assert_eq!(stat_field(&stats, "incr_resident_fns"), 2.0);

    // Warm: the connection is pinned to its shard, whose engine now holds
    // both entries — every function hits, nothing is rebuilt, and the
    // response is bit-identical to the cold one.
    let second = client.score_source("warm-app", source, "c").expect("score");
    assert_eq!(first.to_string(), second.to_string());
    let stats = client.stats().expect("stats");
    assert_eq!(stat_field(&stats, "incr_hits"), 2.0);
    assert_eq!(
        stat_field(&stats, "incr_rebuilt_fns"),
        2.0,
        "no new fixpoints"
    );
    assert_eq!(stat_field(&stats, "incr_resident_fns"), 2.0);

    // Edit one function: exactly one entry is invalidated and rebuilt.
    let edited = source.replace("n > 2", "n > 3");
    let response = client
        .score_source("warm-app", &edited, "c")
        .expect("score");
    assert!(is_ok(&response));
    let stats = client.stats().expect("stats");
    assert_eq!(stat_field(&stats, "incr_hits"), 3.0, "helper stays cached");
    assert_eq!(
        stat_field(&stats, "incr_rebuilt_fns"),
        3.0,
        "only `entry` re-ran"
    );
    // The edited `entry` is a new entry beside the stale one, which
    // stays resident until the store evicts it.
    assert_eq!(stat_field(&stats, "incr_resident_fns"), 3.0);
    handle.shutdown();
}
