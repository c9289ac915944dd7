//! Work-unit scaling gate for the whole-program and per-function
//! fixpoints: count work, not wall time, so the check is immune to
//! machine load. Each count must grow at most 2.2× when its input
//! doubles — near-linear, where the name-order taint sweeps, one
//! reachability search per function and the interval fixpoint over every
//! identifier each grew about 4×.
//!
//! * taint intraprocedural passes and call-graph recursion-search visits
//!   on call chains of 1,000 and 2,000 functions, in which return taint
//!   climbs from the tail to the head against name order;
//! * interval slot updates on straight-line functions of 4,000 and 8,000
//!   `let`s with one index site.

use minilang::ast::Program;
use minilang::Dialect;
use static_analysis::callgraph::CallGraph;
use static_analysis::context::AnalysisContext;
use static_analysis::interval;
use std::fmt::Write as _;

const MAX_GROWTH: f64 = 2.2;

fn parse(src: String) -> Program {
    minilang::parse_program("scaling", Dialect::C, &[("m.c".into(), src)]).expect("parses")
}

/// `f_i` calls `f_{i+1}`; the tail returns a taint source, so every
/// summary up the chain flips to "returns taint", and the head is an
/// endpoint whose parameter taint flows down to a sink in the tail.
fn call_chain(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n {
        let head = if i == 0 { "@endpoint(network)\n" } else { "" };
        let body = if i + 1 == n {
            "system(s); return read_input();".to_string()
        } else {
            format!("return f_{}(s);", i + 1)
        };
        writeln!(src, "{head}fn f_{i}(s: str) -> str {{ {body} }}").unwrap();
    }
    parse(src)
}

/// One function of `n` independent `let`s and one index site.
fn straight_line(n: usize) -> Program {
    let mut src = String::from("fn f() -> int {\n let b: int[8];\n");
    for i in 0..n {
        writeln!(src, " let v_{i}: int = {i};").unwrap();
    }
    writeln!(src, " return b[v_{} % 8];\n}}", n - 1).unwrap();
    parse(src)
}

fn assert_near_linear(what: &str, small: usize, large: usize) {
    let growth = large as f64 / small as f64;
    assert!(
        small > 0 && growth <= MAX_GROWTH,
        "{what}: {small} -> {large} work units when the input doubles ({growth:.2}x > {MAX_GROWTH}x)"
    );
}

#[test]
fn call_chain_taint_and_recursion_work_is_near_linear() {
    let counts: Vec<(usize, usize)> = [1_000, 2_000]
        .into_iter()
        .map(|n| {
            let program = call_chain(n);
            let cx = AnalysisContext::build(&program);
            // The chain really carries taint end to end.
            assert!(cx.taint.summaries["f_0"].returns_taint_always);
            assert_eq!(cx.taint.tainted_entry_functions.len(), n);
            assert_eq!(cx.taint.exposed_flows(), 1);
            let stats = CallGraph::build(&program).stats();
            assert_eq!(stats.recursive_functions, 0);
            (cx.taint.intra_passes, stats.scc_visits)
        })
        .collect();
    assert_near_linear("taint intra passes", counts[0].0, counts[1].0);
    assert_near_linear("call-graph visits", counts[0].1, counts[1].1);
}

#[test]
fn straight_line_interval_work_is_near_linear() {
    let counts: Vec<usize> = [4_000, 8_000]
        .into_iter()
        .map(|n| {
            let program = straight_line(n);
            let cx = AnalysisContext::build(&program);
            let fcx = &cx.functions[0];
            assert_eq!(fcx.index_sites, vec![interval::Interval::new(0, 7)]);
            let slice = interval::relevance_slice(&fcx.cfg, &fcx.symbols, &fcx.defs, &fcx.uses)
                .expect("one index site");
            interval::analyze_cfg_sym(&fcx.cfg, fcx.function, &slice, &fcx.rpo).slot_updates
        })
        .collect();
    assert_near_linear("interval slot updates", counts[0], counts[1]);
}
