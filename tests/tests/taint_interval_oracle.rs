//! Golden-fixture gate for the whole-program taint fixpoint, call-graph
//! recursion and per-function index-site intervals. For each program the
//! fixture records the full [`TaintReport`] (summaries, tainted entry
//! functions, every flow with its span and `via_parameters`, source and
//! sink call counts), the recursive-function count, and every function's
//! bounds verdicts and index-site intervals.
//!
//! The programs are the 48-program seeded corpus of `analysis_engine.rs`
//! plus hand-built shapes that stress evaluation order: self- and
//! mutual-recursion rings, a 200-function call chain in both directions
//! (name order runs against the call order in one of them), duplicate
//! function names across modules, endpoints calling into cycles, and
//! index sites whose intervals hang on condition and assignment chains.
//!
//! On a mismatch the test names the first differing program and writes
//! the actual output to `target/tmp/taint_interval.golden.actual`; after
//! a deliberate analysis change, review the diff and copy it over
//! `fixtures/taint_interval.golden`.

use integration_tests::{assert_matches_fixture, seeded_app};
use minilang::ast::Program;
use minilang::Dialect;
use static_analysis::callgraph::CallGraph;
use static_analysis::context::AnalysisContext;
use std::fmt::Write as _;
use std::path::Path;

const FIXTURE: &str = include_str!("../fixtures/taint_interval.golden");

const HEADER: &str = "\
# Golden taint reports, recursion counts and index-site intervals over the
# programs of tests/tests/taint_interval_oracle.rs, which compares against
# every line not starting with `#`.
";

fn parse(label: &str, files: &[(&str, String)]) -> Program {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(path, src)| (path.to_string(), src.clone()))
        .collect();
    minilang::parse_program("oracle", Dialect::C, &files).unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// A call ring `r0 → r1 → … → r{k-1} → r0`: `r0` reads a source and
/// passes it on, the last member sinks its parameter, and every member
/// returns what the next one returns (so return taint circulates too).
fn ring(k: usize) -> String {
    let mut src = String::new();
    for j in 0..k {
        let next = (j + 1) % k;
        let body = match j {
            0 => format!("let s: str = read_input(); let t: str = r{next}(s, n - 1); return t;"),
            _ if j == k - 1 => {
                format!("exec(p); if n > 0 {{ return r{next}(p, n - 1); }} return \"done\";")
            }
            _ => format!("return r{next}(p, n - 1);"),
        };
        writeln!(src, "fn r{j}(p: str, n: int) -> str {{ {body} }}").unwrap();
    }
    src
}

/// `n` functions where `f_i` calls `f_{i+1}` (or `f_{i-1}` when
/// `descending`): the endpoint at the head taints every parameter down
/// the chain, the tail sinks it, and return taint flows back up. Each
/// link also holds index sites whose intervals depend on a branch.
fn chain(n: usize, descending: bool) -> String {
    let mut src = String::new();
    for step in 0..n {
        let i = if descending { n - 1 - step } else { step };
        let next = if descending { i.wrapping_sub(1) } else { i + 1 };
        let head = if step == 0 {
            "@endpoint(network)\n"
        } else {
            ""
        };
        let call = if step + 1 == n {
            "exec(s); return x;".to_string()
        } else {
            format!("return f_{next}(x + 1, s);")
        };
        writeln!(
            src,
            "{head}fn f_{i}(x: int, s: str) -> int {{ let b: int[8]; let k: int = {m}; \
             b[k] = x; if x < 8 {{ if x >= 0 {{ b[x] = k; }} }} {call} }}",
            m = i % 8
        )
        .unwrap();
    }
    src
}

/// Every oracle program, labelled.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = (0..48u64)
        .map(|i| (format!("seed-{i:02}"), seeded_app(i)))
        .collect();
    let mut add = |label: &str, files: &[(&str, String)]| {
        out.push((label.to_string(), parse(label, files)));
    };
    add(
        "self-recursion",
        &[(
            "m.c",
            "@endpoint(network)
             fn handle(req: str, n: int) { let s: str = walk(req, n); system(s); }
             fn walk(s: str, n: int) -> str {
                 let b: int[8];
                 let i: int = n % 8;
                 if n > 0 { if i >= 0 { b[i] = 1; } return walk(s, n - 1); }
                 return s;
             }
             fn fact(n: int) -> int { if n <= 1 { return 1; } return n * fact(n - 1); }
             fn spin() -> str { let v: str = spin(); return getenv(\"HOME\"); }
             fn use_spin() { printf(spin()); }"
                .into(),
        )],
    );
    for k in [2, 3, 5] {
        add(&format!("ring-{k}"), &[("m.c", ring(k))]);
    }
    add("chain-200-up", &[("m.c", chain(200, false))]);
    add("chain-200-down", &[("m.c", chain(200, true))]);
    add(
        "duplicate-names",
        &[
            (
                "a.c",
                "fn helper(s: str) -> str { return s; }
                 fn user_a() { exec(helper(read_input())); }
                 fn again(n: int) { again(n - 1); }
                 @endpoint(network)
                 fn relay(req: str) { system(req); }"
                    .into(),
            ),
            (
                "b.c",
                "fn helper(s: str) -> str { return \"clean\"; }
                 @endpoint(network)
                 fn api(req: str) { helper(req); system(helper(req)); sink_it(req); }
                 fn again(n: int) { }
                 fn relay(req: str) { let b: int[4]; b[2] = 0; }
                 fn sink_it(v: str) { strcpy(v, v); }"
                    .into(),
            ),
        ],
    );
    add(
        "endpoint-into-cycles",
        &[(
            "m.c",
            "@endpoint(network)
             fn entry(req: str) { ping(req, 3); }
             fn ping(v: str, n: int) { if n > 0 { pong(v, n - 1); } }
             fn pong(v: str, n: int) { sprintf(v, v); ping(v, n); tail(v); }
             fn tail(v: str) { let w: str = v; memcpy(w, w, 4); }
             @untrusted
             fn side(x: str) { loop_a(x); }
             fn loop_a(x: str) -> str { return loop_b(x); }
             fn loop_b(x: str) -> str { let y: str = loop_a(x); printf(y); return x; }
             fn bystander() { let q: str = loop_a(\"k\"); system(q); }"
                .into(),
        )],
    );
    add(
        "interval-slices",
        &[(
            "m.c",
            "fn slice(n: int, m: int) -> int {
                 let b: int[16];
                 let unused: int = 0;
                 let k: int = 2;
                 let j: int = k + 3;
                 let t: int = m;
                 while t < 10 { t = t + 1; unused = unused + 7; }
                 if t > 12 { j = 20; }
                 b[j] = 1;
                 for i = 0; i < 16; i += 1 { b[i] = unused; }
                 let q: int = 0;
                 q = j * 2;
                 if q >= 0 { b[q % 16] = 2; }
                 let c: int = n;
                 c += k;
                 if c < 4 { if c > 0 { b[c] = b[k]; } }
                 return b[k];
             }
             fn no_sites(a: int) -> int { let x: int = a; while x < 100 { x = x * 2; } return x; }"
                .into(),
        )],
    );
    out
}

/// One program's fixture lines: the taint report, the recursion count,
/// then per function its bounds verdicts and `lo:hi` per index site.
fn render(out: &mut String, label: &str, program: &Program) {
    let cx = AnalysisContext::build(program);
    let taint = &cx.taint;
    for (name, s) in &taint.summaries {
        writeln!(
            out,
            "{label} t summary {name} always={} if_param={} reaches_sink={}",
            s.returns_taint_always, s.returns_taint_if_param, s.param_reaches_sink
        )
        .unwrap();
    }
    for name in &taint.tainted_entry_functions {
        writeln!(out, "{label} t entry {name}").unwrap();
    }
    for (n, f) in taint.flows.iter().enumerate() {
        let s = f.span;
        writeln!(
            out,
            "{label} t flow {n} {} {:?} {}..{} {}:{} via_parameters={}",
            f.function, f.sink, s.start, s.end, s.line, s.col, f.via_parameters
        )
        .unwrap();
    }
    writeln!(
        out,
        "{label} t calls sources={} sinks={}",
        taint.source_calls, taint.sink_calls
    )
    .unwrap();
    let recursive = CallGraph::build(program).stats().recursive_functions;
    writeln!(out, "{label} r recursive {recursive}").unwrap();
    for (n, fcx) in cx.functions.iter().enumerate() {
        let b = &fcx.bounds;
        write!(
            out,
            "{label} i {n} {} safe={} oob={} unknown={} sites",
            fcx.function.name, b.safe, b.out_of_bounds, b.unknown
        )
        .unwrap();
        for site in &fcx.index_sites {
            write!(out, " {}:{}", site.lo, site.hi).unwrap();
        }
        out.push('\n');
    }
}

#[test]
fn taint_recursion_and_intervals_match_golden_fixture() {
    let mut out = String::from(HEADER);
    for (label, program) in programs() {
        render(&mut out, &label, &program);
    }
    assert_matches_fixture(
        FIXTURE,
        &out,
        &Path::new(env!("CARGO_TARGET_TMPDIR")).join("taint_interval.golden.actual"),
        "taint, recursion and interval output",
    );
}

#[test]
fn oracle_programs_exercise_every_shape() {
    // The fixture only gates evaluation order if it holds recursion,
    // parameter-driven flows and bounded index intervals.
    let lines = |needle: &str| FIXTURE.lines().filter(|l| l.contains(needle)).count();
    assert!(lines(" via_parameters=true") > 0);
    assert!(lines(" via_parameters=false") > 0);
    assert!(
        FIXTURE
            .lines()
            .any(|l| l.contains(" r recursive ") && !l.ends_with(" 0")),
        "no recursive program"
    );
    assert!(lines("chain-200-up t entry f_") == 200);
    assert!(lines("chain-200-down t entry f_") == 200);
    assert!(lines("interval-slices i 0 slice safe=") == 1);
}
