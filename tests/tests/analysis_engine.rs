//! Golden-fixture gate for the analysis engine: over a spread of
//! synthesized programs — every dialect, every domain, varied seeds and
//! CWE seeding — plus hand-written `bufcheck` edge cases, the extracted
//! feature vectors (bit for bit, at 1 and 4 per-function workers) and the
//! bug-finder diagnostics (every field, spans and messages included) must
//! match `fixtures/analysis_engine.golden`.
//!
//! On a mismatch the test names the first differing program and line and
//! writes the full actual output, in fixture format, to
//! `target/tmp/analysis_engine.golden.actual`. After a deliberate change
//! to an analysis, review that diff and copy the file over the fixture.

use bugfind::MetaTool;
use clairvoyant::testbed::Testbed;
use corpus::{AppSpec, Domain};
use cvedb::Cwe;
use minilang::ast::Program;
use minilang::Dialect;
use static_analysis::context::AnalysisContext;
use static_analysis::FeatureVector;
use std::fmt::Write as _;

const DIALECTS: [Dialect; 4] = [Dialect::C, Dialect::Cpp, Dialect::Python, Dialect::Java];
const DOMAINS: [Domain; 4] = [
    Domain::Server,
    Domain::Library,
    Domain::CliTool,
    Domain::Desktop,
];

const FIXTURE: &str = include_str!("../fixtures/analysis_engine.golden");

fn spec(i: u64, dialect: Dialect, domain: Domain) -> AppSpec {
    AppSpec {
        name: format!("prop-app-{i}"),
        dialect,
        domain,
        // Small programs keep ~50 cases tractable in debug builds; the
        // synthesizer still emits branches, loops, buffers and endpoints
        // at this size.
        target_kloc: 0.25 + (i % 5) as f64 * 0.1,
        maturity: (i % 7) as f64 / 6.0,
        review: (i % 3) as f64 / 2.0,
        expertise: (i % 4) as f64 / 3.0,
        first_release_year: 1998 + (i % 20) as i32,
        seed: 0x5eed_0000 + i * 7919,
    }
}

fn seeded_app(i: u64) -> Program {
    let dialect = DIALECTS[(i % 4) as usize];
    let domain = DOMAINS[((i / 4) % 4) as usize];
    corpus::synth::synthesize(&spec(i, dialect, domain), &cwe_seeds(i)).program
}

fn cwe_seeds(i: u64) -> Vec<(Cwe, bool)> {
    match i % 4 {
        0 => vec![],
        1 => vec![(Cwe::StackBufferOverflow, true)],
        2 => vec![(Cwe::FormatString, false), (Cwe::PathTraversal, true)],
        _ => vec![
            (Cwe::CommandInjection, true),
            (Cwe::HardcodedCredentials, false),
        ],
    }
}

/// Index-site shapes the `bufcheck` replay of cached per-site intervals
/// must get right: nesting, sites inside indexed assignments, unreachable
/// code, loop conditions, and indexing of non-buffers.
const EDGE_CASES: [(&str, &str); 5] = [
    (
        "nested",
        "fn f(i: int) -> int {
             let a: int[4]; let b: int[8];
             let x: int = a[b[i]] + b[a[9]];
             return x;
         }",
    ),
    (
        "indexed-assign",
        "fn f(i: int) {
             let a: int[4]; let b: int[8];
             a[b[i]] = b[7];
             b[a[2] + 9] = a[b[3]];
         }",
    ),
    (
        "unreachable",
        "fn f(i: int) -> int {
             let a: int[4];
             return a[1];
             a[9] = a[i];
             let y: int = a[5];
             if a[8] > 0 { a[7] = 1; }
             return y;
         }",
    ),
    (
        "loop-conditions",
        "fn f(n: int) {
             let a: int[4]; let b: int[16];
             let i: int = 0;
             while a[i] < 10 && i < 4 { i = i + 1; }
             for j = 0; b[j] < n && j <= 16; j += 1 { b[j] = a[j % 4]; }
         }",
    ),
    (
        "non-buffers",
        "fn f(s: str, n: int) {
             let a: int[2];
             let x: int = n[3] + s[a[5]];
             s[n] = a[n[1]];
         }",
    ),
];

/// Every fixture program, labelled: `seed-NN` for the synthesized corpus,
/// `edge-<name>` for the edge cases.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = (0..48u64)
        .map(|i| (format!("seed-{i:02}"), seeded_app(i)))
        .collect();
    for (name, src) in EDGE_CASES {
        let program = minilang::parse_program("edge", Dialect::C, &[("m.c".into(), src.into())])
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((format!("edge-{name}"), program));
    }
    out
}

/// One program's fixture lines: `<label> f <feature> <f64 bits, hex>` per
/// feature in vector order, then one line per diagnostic in report
/// order: `<label> d <n> <tool>/<rule> <severity> <module>::<function>
/// <start>..<end> <line>:<col> cwe=<hint> <message>`.
fn render(
    out: &mut String,
    label: &str,
    features: &FeatureVector,
    diagnostics: &[bugfind::Diagnostic],
) {
    for (name, value) in features.iter() {
        writeln!(out, "{label} f {name} {:016x}", value.to_bits()).unwrap();
    }
    for (n, d) in diagnostics.iter().enumerate() {
        let s = d.span;
        writeln!(
            out,
            "{label} d {n} {}/{} {:?} {}::{} {}..{} {}:{} cwe={:?} {:?}",
            d.tool,
            d.rule,
            d.severity,
            d.module,
            d.function,
            s.start,
            s.end,
            s.line,
            s.col,
            d.cwe_hint,
            d.message
        )
        .unwrap();
    }
}

fn data_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter(|l| !l.starts_with('#'))
}

/// Compare against the fixture, ignoring `#` comment lines; on a
/// mismatch, write `actual` under `target/` and fail naming the first
/// differing line.
fn assert_matches_fixture(actual: &str, what: &str) {
    let mut expected = data_lines(FIXTURE);
    let mut got = data_lines(actual);
    loop {
        match (expected.next(), got.next()) {
            (None, None) => return,
            (Some(e), Some(g)) if e == g => {}
            (e, g) => {
                let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                    .join("analysis_engine.golden.actual");
                std::fs::write(&path, actual).expect("write actual output");
                let program = e.or(g).and_then(|l| l.split(' ').next()).unwrap_or("?");
                panic!(
                    "{what} diverged from the golden fixture at program `{program}`:\n  \
                     expected: {}\n  actual:   {}\nfull actual output: {}",
                    e.unwrap_or("<end of fixture>"),
                    g.unwrap_or("<end of output>"),
                    path.display()
                );
            }
        }
    }
}

const HEADER: &str = "\
# Golden analysis output: feature vectors (f64 bits) and bug-finder
# diagnostics over the programs of tests/tests/analysis_engine.rs, which
# compares against every line not starting with `#`.
";

#[test]
fn extraction_and_diagnostics_match_golden_fixture_at_1_and_4_workers() {
    let tool = MetaTool::new();
    let programs = programs();
    for jobs in [1, 4] {
        let testbed = Testbed::new().with_fn_jobs(jobs);
        let mut out = String::from(HEADER);
        for (label, program) in &programs {
            let features = testbed.extract(program);
            let report = tool.run(&AnalysisContext::build(program));
            render(&mut out, label, &features, &report.diagnostics);
        }
        assert_matches_fixture(&out, &format!("output at fn_jobs {jobs}"));
    }
}

#[test]
fn golden_fixture_exercises_index_diagnostics() {
    // The fixture is only a gate on the interval replay if it holds
    // index diagnostics from both the corpus and the edge cases.
    let index_diags = |prefix: &str| {
        FIXTURE
            .lines()
            .filter(|l| l.starts_with(prefix) && l.contains(" bufcheck/index-"))
            .count()
    };
    assert!(index_diags("seed-") > 0, "corpus has no index diagnostics");
    assert!(index_diags("edge-") >= 10, "{}", index_diags("edge-"));
}
