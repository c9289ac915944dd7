//! Library selection — the paper's §1 motivating scenario:
//! *"in selecting between two library implementations for use in a web
//! service, our proposed metric would identify which is less likely to
//! have vulnerabilities."*
//!
//! Two HTTP-parsing libraries with identical functionality but different
//! engineering discipline are evaluated side by side.
//!
//! Run with:
//! ```text
//! cargo run --example compare_libraries
//! ```

use clairvoyant::prelude::*;

/// Fast but careless: unbounded copies, tainted format strings, no input
/// validation.
const LIB_TURBO: &str = r#"
@endpoint(network)
fn parse_request(raw: str) -> int {
    let header: str[128];
    strcpy(header, raw);
    let n: int = atoi(raw);
    let body: str[256];
    body[n] = raw;
    return n;
}

fn log_request(raw: str) {
    printf(raw);
}

fn spawn_helper(cmd: str) {
    system(cmd);
}
"#;

/// Careful: validation first, bounded copies, literal formats.
const LIB_STEADY: &str = r#"
@endpoint(network)
fn parse_request(raw: str) -> int {
    if strlen(raw) > 120 { return -1; }
    let header: str[128];
    strncpy(header, raw, 120);
    let n: int = atoi(raw);
    if n < 0 || n > 255 { return -1; }
    let body: str[256];
    body[n] = raw;
    return n;
}

// Request text is data, never a format string.
fn log_request(raw: str) {
    printf("request received");
    log_msg(raw);
}
"#;

fn main() {
    println!("training the metric…");
    let mut config = CorpusConfig::small(20, 11);
    config.language_mix = [15, 2, 1, 2];
    let corpus = Corpus::generate(&config);
    let model = Trainer::new().train(&corpus).compile();

    let turbo = parse_program(
        "libturbo",
        Dialect::C,
        &[("src/parse.c".to_string(), LIB_TURBO.to_string())],
    )
    .expect("libturbo parses");
    let steady = parse_program(
        "libsteady",
        Dialect::C,
        &[("src/parse.c".to_string(), LIB_STEADY.to_string())],
    )
    .expect("libsteady parses");

    let comparison = compare_programs(&model, &turbo, &steady, 1);
    println!("\n{comparison}\n");
    println!("--- full report for each candidate ---");
    println!("{}", comparison.a);
    println!("{}", comparison.b);
}
