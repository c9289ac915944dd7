//! Golden-fixture gate for longitudinal replay: a 24-app, 3-epoch replay,
//! once with training matrices in RAM and once spilled to disk, must
//! reproduce `fixtures/longitudinal.golden` — the drift report
//! (`LongitudinalReport::drift_json`) and every epoch's CLVY model
//! fingerprint.
//!
//! On a mismatch the test names the first differing line and writes the
//! full actual output to `target/tmp/longitudinal.golden.actual`.

use clairvoyant::longitudinal::{replay, LongitudinalConfig};
use corpus::StreamConfig;
use integration_tests::assert_matches_fixture;
use std::fmt::Write as _;
use std::path::Path;

const FIXTURE: &str = include_str!("../fixtures/longitudinal.golden");

/// One replay in fixture format: the drift report, then one line per
/// epoch with its model fingerprint.
fn render(label: &str, out_of_core: bool) -> String {
    let work_dir =
        std::env::temp_dir().join(format!("clvy-longi-golden-{}-{label}", std::process::id()));
    let config = LongitudinalConfig {
        stream: StreamConfig {
            apps: 24,
            ..StreamConfig::default()
        },
        epochs: 3,
        work_dir: work_dir.clone(),
        out_of_core,
        ..LongitudinalConfig::default()
    };
    let report = replay(&config, |_, _| Ok(())).expect("replay");
    let _ = std::fs::remove_dir_all(&work_dir);
    let mut out = String::new();
    writeln!(out, "{label} drift {}", report.drift_json()).unwrap();
    for e in &report.epochs {
        writeln!(
            out,
            "{label} epoch-{} fingerprint={}",
            e.epoch, e.fingerprint
        )
        .unwrap();
    }
    out
}

#[test]
fn replay_matches_golden_drift_and_fingerprints() {
    let mut actual = String::from(
        "# Longitudinal golden fixture: a 24-app, 3-epoch replay (default stream\n\
         # and trainer), in RAM and out of core: the drift report, then each\n\
         # epoch's CLVY model fingerprint.\n",
    );
    actual.push_str(&render("ram", false));
    actual.push_str(&render("ooc", true));
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/tmp");
    std::fs::create_dir_all(&dir).expect("create target/tmp");
    assert_matches_fixture(
        FIXTURE,
        &actual,
        &dir.join("longitudinal.golden.actual"),
        "replay",
    );
}
