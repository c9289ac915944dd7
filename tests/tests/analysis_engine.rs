//! Equivalence property for the single-pass analysis engine: over a spread
//! of randomly synthesized programs — every dialect, every domain, varied
//! seeds and CWE seeding — the fused `AnalysisContext` extraction must be
//! bit-identical to the pre-fusion legacy path, and identical again when
//! per-function context construction fans out over worker threads.
//! `bufcheck` replaying the context's cached per-site index intervals
//! must likewise report exactly what its context-free scan reports.

use bugfind::checkers::{BufferOverflowChecker, Checker};
use clairvoyant::testbed::Testbed;
use corpus::{AppSpec, Domain};
use cvedb::Cwe;
use minilang::ast::Program;
use minilang::Dialect;
use static_analysis::context::AnalysisContext;

const DIALECTS: [Dialect; 4] = [Dialect::C, Dialect::Cpp, Dialect::Python, Dialect::Java];
const DOMAINS: [Domain; 4] = [
    Domain::Server,
    Domain::Library,
    Domain::CliTool,
    Domain::Desktop,
];

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

fn seeded_app(i: u64) -> (Dialect, Domain, corpus::synth::SynthOutput) {
    let dialect = DIALECTS[(i % 4) as usize];
    let domain = DOMAINS[((i / 4) % 4) as usize];
    let app = corpus::synth::synthesize(&spec(i, dialect, domain), &cwe_seeds(i));
    (dialect, domain, app)
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

#[test]
fn fused_engine_is_bit_identical_to_legacy_across_dialects_and_workers() {
    let sequential = Testbed::new();
    let parallel = Testbed::new().with_fn_jobs(4);

    let mut checked = 0u64;
    for i in 0..48u64 {
        let (dialect, domain, app) = seeded_app(i);
        let fused = sequential.extract(&app.program);
        let legacy = sequential.extract_legacy(&app.program);
        assert_eq!(
            fused.iter().collect::<Vec<_>>(),
            legacy.iter().collect::<Vec<_>>(),
            "fused vector diverged from legacy on {dialect:?}/{domain:?} seed {i}"
        );

        let fanned = parallel.extract(&app.program);
        assert_eq!(
            fused, fanned,
            "4-worker context construction diverged on {dialect:?}/{domain:?} seed {i}"
        );
        checked += 1;
    }
    assert_eq!(checked, 48);
}

/// Diagnostic-for-diagnostic equality of `bufcheck` over a built context
/// (cached per-site intervals, replayed in site order) and its
/// context-free scan (fresh name-keyed interval fixpoint): rule,
/// severity, span and message, printed interval included. Returns the
/// number of index diagnostics, so callers can check the cases bite.
fn assert_bufcheck_replay_matches(program: &Program, what: &str) -> usize {
    let scratch = BufferOverflowChecker.check(program);
    let replayed = BufferOverflowChecker.check_ctx(&AnalysisContext::build(program));
    assert_eq!(replayed, scratch, "bufcheck replay diverged on {what}");
    scratch
        .iter()
        .filter(|d| d.rule.starts_with("index-"))
        .count()
}

#[test]
fn bufcheck_site_replay_matches_context_free_scan_on_corpus() {
    let mut index_diags = 0;
    for i in 0..48u64 {
        let (dialect, domain, app) = seeded_app(i);
        index_diags += assert_bufcheck_replay_matches(
            &app.program,
            &format!("{dialect:?}/{domain:?} seed {i}"),
        );
    }
    assert!(index_diags > 0, "the corpus exercises no index diagnostics");
}

#[test]
fn bufcheck_site_replay_matches_context_free_scan_on_edge_cases() {
    let cases = [
        (
            "nested a[b[i]]",
            "fn f(i: int) -> int {
                 let a: int[4]; let b: int[8];
                 let x: int = a[b[i]] + b[a[9]];
                 return x;
             }",
        ),
        (
            "indexed assignment whose index indexes a buffer",
            "fn f(i: int) {
                 let a: int[4]; let b: int[8];
                 a[b[i]] = b[7];
                 b[a[2] + 9] = a[b[3]];
             }",
        ),
        (
            "index sites in unreachable code",
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
            "index sites in loop conditions",
            "fn f(n: int) {
                 let a: int[4]; let b: int[16];
                 let i: int = 0;
                 while a[i] < 10 && i < 4 { i = i + 1; }
                 for j = 0; b[j] < n && j <= 16; j += 1 { b[j] = a[j % 4]; }
             }",
        ),
        (
            "indexing of non-buffer variables",
            "fn f(s: str, n: int) {
                 let a: int[2];
                 let x: int = n[3] + s[a[5]];
                 s[n] = a[n[1]];
             }",
        ),
    ];
    let mut index_diags = 0;
    for (what, src) in cases {
        let program = minilang::parse_program("edge", Dialect::C, &[("m.c".into(), src.into())])
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let n = assert_bufcheck_replay_matches(&program, what);
        assert!(n > 0, "{what}: no index diagnostics to compare");
        index_diags += n;
    }
    assert!(index_diags >= 10, "{index_diags}");
}
