//! Integration test support crate (tests live in `tests/tests/`).

use corpus::{AppSpec, Domain};
use cvedb::Cwe;
use minilang::ast::Program;
use minilang::Dialect;
use std::path::Path;

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

/// Synthesized program `i` of the golden corpus: dialect cycles with
/// `i`, domain with `i / 4`, CWE seeding with `i % 4`.
pub fn seeded_app(i: u64) -> Program {
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

fn data_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter(|l| !l.starts_with('#'))
}

/// Compare `actual` against a golden `fixture`, ignoring `#` comment
/// lines. Fixture lines start with a program label; on a mismatch, write
/// `actual` to `actual_path` (for review and re-blessing) and fail naming
/// the first differing program and line.
pub fn assert_matches_fixture(fixture: &str, actual: &str, actual_path: &Path, what: &str) {
    let mut expected = data_lines(fixture);
    let mut got = data_lines(actual);
    loop {
        match (expected.next(), got.next()) {
            (None, None) => return,
            (Some(e), Some(g)) if e == g => {}
            (e, g) => {
                std::fs::write(actual_path, actual).expect("write actual output");
                let program = e.or(g).and_then(|l| l.split(' ').next()).unwrap_or("?");
                panic!(
                    "{what} diverged from the golden fixture at program `{program}`:\n  \
                     expected: {}\n  actual:   {}\nfull actual output: {}",
                    e.unwrap_or("<end of fixture>"),
                    g.unwrap_or("<end of output>"),
                    actual_path.display()
                );
            }
        }
    }
}
