//! CI risk gate — the §5.3 workflow: *"the classifier can give the
//! developer an evaluation of, say, whether a code change has raised or
//! lowered the risk than the previous version of the code."*
//!
//! Simulates three commits to a service and prints the gate verdict for
//! each, as a continuous-integration step would.
//!
//! Run with:
//! ```text
//! cargo run --example ci_gate
//! ```

use clairvoyant::compare::RiskChange;
use clairvoyant::prelude::*;

const V1: &str = r#"
@endpoint(network)
fn handle(req: str) {
    let buf: str[64];
    strcpy(buf, req);
    log_msg(buf);
}
"#;

/// Commit 2: harden the copy (should LOWER risk).
const V2: &str = r#"
@endpoint(network)
fn handle(req: str) {
    if strlen(req) > 63 { return; }
    let buf: str[64];
    strncpy(buf, req, 63);
    log_msg(buf);
}
"#;

/// Commit 3: add a remote admin feature with a command injection
/// (should RAISE risk).
const V3: &str = r#"
@endpoint(network)
fn handle(req: str) {
    if strlen(req) > 63 { return; }
    let buf: str[64];
    strncpy(buf, req, 63);
    log_msg(buf);
}

@endpoint(network) @priv(root)
fn admin_exec(cmd: str) {
    system(cmd);
}
"#;

fn main() {
    println!("training the metric once (cached across CI runs in practice)…");
    let mut config = CorpusConfig::small(20, 23);
    config.language_mix = [15, 2, 1, 2];
    let corpus = Corpus::generate(&config);
    let model = Trainer::new().train(&corpus).compile();

    let versions = [
        ("v1 → v2 (hardening)", V1, V2),
        ("v2 → v3 (admin feature)", V2, V3),
    ];
    let mut failures = 0;
    for (label, before_src, after_src) in versions {
        let before = parse_program(
            "service",
            Dialect::C,
            &[("src/main.c".to_string(), before_src.to_string())],
        )
        .expect("parses");
        let after = parse_program(
            "service",
            Dialect::C,
            &[("src/main.c".to_string(), after_src.to_string())],
        )
        .expect("parses");
        let delta = version_delta(&model, &before, &after, 1);
        println!("\n== {label} ==");
        println!("{delta}");
        if delta.verdict == RiskChange::Raised {
            println!("CI gate: FAIL — change raises predicted security risk");
            for hint in &delta.after.hints {
                println!("  fix hint: {}", hint.advice);
            }
            failures += 1;
        } else {
            println!("CI gate: PASS");
        }
    }
    std::process::exit(if failures > 0 { 1 } else { 0 });
}
