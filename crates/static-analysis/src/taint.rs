//! Interprocedural taint analysis.
//!
//! Tracks attacker-controlled data from *sources* (`read_input`, `recv`,
//! `getenv`, `read_file`, parameters of `@untrusted`/`@endpoint` functions)
//! to *dangerous sinks* (`strcpy`, `sprintf`, `exec`, `system`, `printf`,
//! `strcat`, `memcpy`). A source-to-sink flow is the code shape behind most
//! of the CWE classes the paper's hypotheses target (121 stack overflow, 134
//! format string, 78 command injection), so flow counts are among the
//! strongest features the testbed collects.
//!
//! The analysis is a two-phase interprocedural fixpoint:
//!
//! 1. **Summaries** — for every function, compute (a) whether it can return
//!    source-derived data unconditionally and (b) whether tainted parameters
//!    can flow to its return value, iterating until the summary set is
//!    stable (handles recursion).
//! 2. **Entry propagation** — parameters are tainted for annotated entry
//!    points, then call sites with tainted arguments taint their callee's
//!    parameters, to fixpoint; a final intraprocedural pass per function
//!    records every sink call receiving tainted data.

use crate::bitset::{row_contains, row_insert, row_remove, BitMatrix};
use crate::cfg::NodeKind;
use crate::context::{FnSymbols, FunctionContext};
use minilang::ast::{Expr, ExprKind, Function, LValue, Program, StmtKind};
use minilang::{visit, Intrinsic, Span};
use std::collections::{BTreeMap, BTreeSet};

/// How a function may produce tainted output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaintSummary {
    /// Returns data derived from a taint source even with clean parameters.
    pub returns_taint_always: bool,
    /// Returns data derived from its parameters (so tainted args taint the
    /// return value).
    pub returns_taint_if_param: bool,
    /// With tainted parameters, some dangerous sink inside the function (or
    /// its callees) receives tainted data.
    pub param_reaches_sink: bool,
}

/// One detected source→sink flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintFlow {
    /// Function containing the sink call.
    pub function: String,
    /// The dangerous intrinsic receiving tainted data.
    pub sink: Intrinsic,
    /// Location of the sink call.
    pub span: Span,
    /// True when the taint entered through the function's own parameters
    /// (an *exposed* flow — reachable from an interface); false when it was
    /// produced by a source call inside the function body.
    pub via_parameters: bool,
}

/// Whole-program taint results.
#[derive(Debug, Clone, Default)]
pub struct TaintReport {
    pub flows: Vec<TaintFlow>,
    /// Functions whose parameters may carry attacker data (annotated entry
    /// points plus functions reached by tainted arguments).
    pub tainted_entry_functions: BTreeSet<String>,
    /// Total taint-source call sites in the program.
    pub source_calls: usize,
    /// Total dangerous-sink call sites in the program.
    pub sink_calls: usize,
    /// Per-function summaries (kept for the attack-graph exploit templates).
    pub summaries: BTreeMap<String, TaintSummary>,
}

impl TaintReport {
    /// Flows reachable from an interface — the ones an attacker can drive.
    pub fn exposed_flows(&self) -> usize {
        self.flows.iter().filter(|f| f.via_parameters).count()
    }
}

/// Result of one intraprocedural pass. Public (with public fields) so the
/// incremental engine can memoize it across extractions: the result is a
/// pure function of the function's text, `params_tainted`, and the
/// restriction of the summary map to the function's callee names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntraResult {
    pub returns_taint: bool,
    pub hit_sink: bool,
    /// Sink call sites receiving tainted data: (sink, span, and whether the
    /// taint disappears when parameters are clean).
    pub sink_hits: Vec<(Intrinsic, Span, bool)>,
    /// User callees that received a tainted argument.
    pub tainted_arg_callees: Vec<String>,
}

/// A cross-extraction memo for [`IntraResult`]s, implemented by the
/// incremental engine. `idx` indexes into the `fcxs` slice handed to
/// [`analyze_contexts_memo`]; the key is `(params_tainted, digest)` where
/// `digest` is [`summaries_digest`] over the function's callee names —
/// everything an [`intra_ctx`] call reads besides the function text. A hit
/// must return *exactly* the value a fresh `intra_ctx` call would produce
/// (the implementation rebases cached spans when the function moved), so
/// the fixpoint trajectory — and therefore the report — is bit-identical
/// with or without the memo.
pub trait IntraMemo {
    fn get(&self, idx: usize, params_tainted: bool, digest: u64) -> Option<IntraResult>;
    fn put(&self, idx: usize, params_tainted: bool, digest: u64, result: &IntraResult);
}

/// The distinct non-intrinsic callee names a function mentions, sorted —
/// the summary-map entries an intraprocedural pass can observe.
/// (Intrinsic-named callees resolve through [`Intrinsic::from_name`]
/// before the summary map is consulted, so they cannot affect the result.)
pub fn callee_dependencies(f: &Function) -> Vec<String> {
    let mut names = BTreeSet::new();
    visit::walk_exprs(&f.body, &mut |e| {
        if let ExprKind::Call { callee, .. } = &e.kind {
            if Intrinsic::from_name(callee).is_none() {
                names.insert(callee.clone());
            }
        }
    });
    names.into_iter().collect()
}

/// FNV-1a digest of the summary map restricted to `callees` (which must be
/// sorted and deduplicated): per name, its presence in the map and its
/// summary bits. Two summary maps with equal digests are indistinguishable
/// to an intraprocedural pass over a function with these callees.
pub fn summaries_digest(callees: &[String], summaries: &BTreeMap<String, TaintSummary>) -> u64 {
    // Local FNV-1a 64: this crate sits below `pipeline`, so it cannot
    // borrow `pipeline::fnv`.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for name in callees {
        eat(&(name.len() as u64).to_le_bytes());
        eat(name.as_bytes());
        match summaries.get(name) {
            None => eat(&[0]),
            Some(s) => eat(&[
                1,
                s.returns_taint_always as u8,
                s.returns_taint_if_param as u8,
                s.param_reaches_sink as u8,
            ]),
        }
    }
    h
}

/// Run the analysis over prebuilt per-function contexts (an
/// [`crate::context::AnalysisContext`] runs it once per program and keeps
/// the report as its `taint` field). `fcxs` must be in
/// `program.functions()` order; duplicate names resolve last-wins.
pub fn analyze_contexts(program: &Program, fcxs: &[FunctionContext<'_>]) -> TaintReport {
    run_contexts(program, fcxs, None)
}

/// [`analyze_contexts`] with a cross-extraction memo for the
/// intraprocedural passes. The sweep structure and iteration order are
/// unchanged; only the per-call `intra_ctx` work is elided on memo hits,
/// so the report is bit-identical to the memo-free path. Callgraph-edge
/// invalidation falls out of the key: when a callee's summary changes,
/// every caller's digest changes and its memo entries stop matching.
pub fn analyze_contexts_memo(
    program: &Program,
    fcxs: &[FunctionContext<'_>],
    memo: &dyn IntraMemo,
) -> TaintReport {
    run_contexts(program, fcxs, Some(memo))
}

fn run_contexts(
    program: &Program,
    fcxs: &[FunctionContext<'_>],
    memo: Option<&dyn IntraMemo>,
) -> TaintReport {
    // Name → index into `fcxs`, last-wins on duplicates.
    let functions: BTreeMap<&str, usize> = fcxs
        .iter()
        .enumerate()
        .map(|(i, fcx)| (fcx.function.name.as_str(), i))
        .collect();
    // Callee-name lists only matter when a memo is wired in; the plain
    // path skips the collection walk entirely.
    let callees: Vec<Vec<String>> = match memo {
        Some(_) => fcxs
            .iter()
            .map(|fcx| callee_dependencies(fcx.function))
            .collect(),
        None => Vec::new(),
    };
    let intra = |idx: usize,
                 params_tainted: bool,
                 summaries: &BTreeMap<String, TaintSummary>|
     -> IntraResult {
        let Some(memo) = memo else {
            return intra_ctx(&fcxs[idx], params_tainted, summaries);
        };
        let digest = summaries_digest(&callees[idx], summaries);
        if let Some(hit) = memo.get(idx, params_tainted, digest) {
            return hit;
        }
        let result = intra_ctx(&fcxs[idx], params_tainted, summaries);
        memo.put(idx, params_tainted, digest, &result);
        result
    };

    // Phase 1: summaries to fixpoint.
    let mut summaries: BTreeMap<String, TaintSummary> = functions
        .keys()
        .map(|&n| (n.to_string(), TaintSummary::default()))
        .collect();
    loop {
        let mut changed = false;
        for (&name, &idx) in &functions {
            let clean = intra(idx, false, &summaries);
            let dirty = intra(idx, true, &summaries);
            let new = TaintSummary {
                returns_taint_always: clean.returns_taint,
                returns_taint_if_param: dirty.returns_taint,
                param_reaches_sink: dirty.hit_sink,
            };
            let entry = summaries.get_mut(name).expect("summary exists");
            if *entry != new {
                *entry = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 2: which functions run with tainted parameters?
    let mut tainted_entry: BTreeSet<String> = program
        .functions()
        .filter(|f| f.is_untrusted() || !f.endpoint_channels().is_empty())
        .map(|f| f.name.clone())
        .collect();
    loop {
        let mut changed = false;
        for (&name, &idx) in &functions {
            let params_tainted = tainted_entry.contains(name);
            let result = intra(idx, params_tainted, &summaries);
            for callee in result.tainted_arg_callees {
                if functions.contains_key(callee.as_str()) && tainted_entry.insert(callee) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Final pass: collect flows and counts.
    let mut report = TaintReport {
        tainted_entry_functions: tainted_entry.clone(),
        summaries: summaries.clone(),
        ..Default::default()
    };
    for (&name, &idx) in &functions {
        let params_tainted = tainted_entry.contains(name);
        let result = intra(idx, params_tainted, &summaries);
        for (sink, span, needed_params) in result.sink_hits {
            report.flows.push(TaintFlow {
                function: name.to_string(),
                sink,
                span,
                via_parameters: needed_params && params_tainted,
            });
        }
        visit::walk_exprs(&fcxs[idx].function.body, &mut |e| {
            if let ExprKind::Call { callee, .. } = &e.kind {
                if let Some(i) = Intrinsic::from_name(callee) {
                    if i.is_taint_source() {
                        report.source_calls += 1;
                    }
                    if i.is_dangerous_sink() {
                        report.sink_calls += 1;
                    }
                }
            }
        });
    }
    report
}

/// Forward taint fixpoint over a prebuilt function context, tracking
/// tainted variables as rows of one [`BitMatrix`] over the function's
/// local symbols; each node's transfer runs in place on one scratch row.
fn intra_ctx(
    fcx: &FunctionContext<'_>,
    params_tainted: bool,
    summaries: &BTreeMap<String, TaintSummary>,
) -> IntraResult {
    let cfg = &fcx.cfg;
    let syms = &fcx.symbols;
    let mut in_sets = BitMatrix::new(cfg.node_count(), syms.len());
    let mut out_sets = BitMatrix::new(cfg.node_count(), syms.len());
    if params_tainted {
        for &p in &fcx.param_locals {
            in_sets.insert(cfg.entry, p as usize);
            out_sets.insert(cfg.entry, p as usize);
        }
    }

    let mut scratch = vec![0u64; in_sets.stride()];
    let mut changed = true;
    while changed {
        changed = false;
        for &id in &fcx.rpo {
            if id == cfg.entry {
                continue;
            }
            out_sets.union_rows_into(&cfg.nodes[id].preds, &mut scratch);
            in_sets.row_mut(id).copy_from_slice(&scratch);
            transfer_sym(&cfg.nodes[id].kind, &mut scratch, syms, summaries);
            changed |= out_sets.store_if_changed(id, &scratch);
        }
    }

    // The scratch row doubles as the empty set for the source-only check.
    scratch.fill(0);
    let empty = &scratch[..];
    let mut result = IntraResult {
        returns_taint: false,
        hit_sink: false,
        sink_hits: Vec::new(),
        tainted_arg_callees: Vec::new(),
    };
    for (id, node) in cfg.nodes.iter().enumerate() {
        let tainted = in_sets.row(id);
        let (stmt, cond) = match node.kind {
            NodeKind::Stmt(stmt) => {
                if let StmtKind::Return(Some(v)) = &stmt.kind {
                    if expr_tainted_sym(v, tainted, syms, summaries) {
                        result.returns_taint = true;
                    }
                }
                (Some(stmt), None)
            }
            NodeKind::Cond(c) => (None, Some(c)),
            _ => (None, None),
        };
        for root in stmt.into_iter().flat_map(visit::stmt_exprs).chain(cond) {
            visit::walk_expr(root, &mut |e| {
                if let ExprKind::Call { callee, args } = &e.kind {
                    let any_arg_tainted = args
                        .iter()
                        .any(|a| expr_tainted_sym(a, tainted, syms, summaries));
                    if let Some(i) = Intrinsic::from_name(callee) {
                        if i.is_dangerous_sink() && any_arg_tainted {
                            result.hit_sink = true;
                            let from_source_only = args
                                .iter()
                                .any(|a| expr_tainted_sym(a, empty, syms, summaries));
                            result.sink_hits.push((i, e.span, !from_source_only));
                        }
                    } else if any_arg_tainted {
                        result.tainted_arg_callees.push(callee.clone());
                        if summaries.get(callee).is_some_and(|s| s.param_reaches_sink) {
                            result.hit_sink = true;
                        }
                    }
                }
            });
        }
    }
    result
}

/// Transfer function, in place: `set` holds the tainted locals before
/// `kind` on entry and after it on return. Every read of the incoming set
/// happens before the one write, so no copy of it is needed.
fn transfer_sym(
    kind: &NodeKind<'_>,
    set: &mut [u64],
    syms: &FnSymbols<'_>,
    summaries: &BTreeMap<String, TaintSummary>,
) {
    let NodeKind::Stmt(stmt) = kind else {
        return;
    };
    match &stmt.kind {
        StmtKind::Let { name, init, .. } => {
            let local = syms.local(name).expect("let interned") as usize;
            let t = init
                .as_ref()
                .is_some_and(|e| expr_tainted_sym(e, set, syms, summaries));
            if t {
                row_insert(set, local);
            } else {
                row_remove(set, local);
            }
        }
        StmtKind::Assign { target, op, value } => {
            let rhs_tainted = expr_tainted_sym(value, set, syms, summaries);
            match target {
                LValue::Var(name, _) => {
                    let local = syms.local(name).expect("assign interned") as usize;
                    let keeps = op.is_some() && row_contains(set, local);
                    if rhs_tainted || keeps {
                        row_insert(set, local);
                    } else {
                        row_remove(set, local);
                    }
                }
                LValue::Index { base, .. } => {
                    if rhs_tainted {
                        row_insert(set, syms.local(base).expect("base interned") as usize);
                    }
                }
            }
        }
        _ => {}
    }
}

/// Is the value of `e` attacker-controlled under `tainted`?
fn expr_tainted_sym(
    e: &Expr,
    tainted: &[u64],
    syms: &FnSymbols<'_>,
    summaries: &BTreeMap<String, TaintSummary>,
) -> bool {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Str(_) | ExprKind::Bool(_) => false,
        ExprKind::Var(name) => syms
            .local(name)
            .is_some_and(|l| row_contains(tainted, l as usize)),
        ExprKind::Index { base, index } => {
            expr_tainted_sym(base, tainted, syms, summaries)
                || expr_tainted_sym(index, tainted, syms, summaries)
        }
        ExprKind::Unary { operand, .. } => expr_tainted_sym(operand, tainted, syms, summaries),
        ExprKind::Binary { lhs, rhs, .. } => {
            expr_tainted_sym(lhs, tainted, syms, summaries)
                || expr_tainted_sym(rhs, tainted, syms, summaries)
        }
        ExprKind::Call { callee, args } => {
            if let Some(i) = Intrinsic::from_name(callee) {
                if i.is_taint_source() {
                    return true;
                }
                if i.propagates_taint() {
                    return args
                        .iter()
                        .any(|a| expr_tainted_sym(a, tainted, syms, summaries));
                }
                false
            } else if let Some(s) = summaries.get(callee) {
                s.returns_taint_always
                    || (s.returns_taint_if_param
                        && args
                            .iter()
                            .any(|a| expr_tainted_sym(a, tainted, syms, summaries)))
            } else {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_program, Dialect};

    fn report(src: &str) -> TaintReport {
        let p = parse_program("app", Dialect::C, &[("m.c".into(), src.into())]).unwrap();
        crate::context::AnalysisContext::build(&p).taint
    }

    #[test]
    fn direct_source_to_sink() {
        let r = report("fn f() { let s: str = read_input(); system(s); }");
        assert_eq!(r.flows.len(), 1);
        assert_eq!(r.flows[0].sink, Intrinsic::System);
        assert!(!r.flows[0].via_parameters);
        assert_eq!(r.source_calls, 1);
        assert_eq!(r.sink_calls, 1);
    }

    #[test]
    fn clean_data_to_sink_is_no_flow() {
        let r = report("fn f() { system(\"ls\"); }");
        assert!(r.flows.is_empty());
        assert_eq!(r.sink_calls, 1);
    }

    #[test]
    fn taint_through_assignment_chain() {
        let r = report("fn f() { let a: str = recv(0); let b: str = a; let c: str = b; exec(c); }");
        assert_eq!(r.flows.len(), 1);
    }

    #[test]
    fn overwrite_cleanses() {
        let r = report("fn f() { let a: str = recv(0); a = \"fixed\"; exec(a); }");
        assert!(r.flows.is_empty());
    }

    #[test]
    fn branch_keeps_taint_on_either_path() {
        let r = report(
            "fn f(n: int) {
                let a: str = \"safe\";
                if n > 0 { a = read_input(); }
                exec(a);
            }",
        );
        assert_eq!(r.flows.len(), 1);
    }

    #[test]
    fn endpoint_parameters_are_tainted() {
        let r = report("@endpoint(network) fn handle(req: str) { strcpy(req, req); }");
        assert_eq!(r.flows.len(), 1);
        assert!(r.flows[0].via_parameters);
        assert!(r.tainted_entry_functions.contains("handle"));
    }

    #[test]
    fn unannotated_parameters_are_clean() {
        let r = report("fn helper(s: str) { exec(s); }");
        assert!(r.flows.is_empty());
        // The summary still records the latent param→sink flow.
        assert!(r.summaries["helper"].param_reaches_sink);
    }

    #[test]
    fn taint_propagates_through_call_return() {
        let r = report(
            "fn get() -> str { return read_input(); }
             fn f() { let s: str = get(); system(s); }",
        );
        assert_eq!(r.flows.len(), 1);
        assert!(r.summaries["get"].returns_taint_always);
    }

    #[test]
    fn taint_propagates_into_callee_params() {
        let r = report(
            "@endpoint(network) fn handle(req: str) { helper(req); }
             fn helper(s: str) { exec(s); }",
        );
        assert_eq!(r.flows.len(), 1);
        assert_eq!(r.flows[0].function, "helper");
        assert!(r.tainted_entry_functions.contains("helper"));
    }

    #[test]
    fn identity_function_propagates_param_taint() {
        let r = report(
            "fn id(s: str) -> str { return s; }
             fn f() { let x: str = id(recv(0)); exec(x); }",
        );
        assert_eq!(r.flows.len(), 1);
        assert!(r.summaries["id"].returns_taint_if_param);
        assert!(!r.summaries["id"].returns_taint_always);
    }

    #[test]
    fn atoi_propagates_rand_does_not() {
        let r1 = report("fn f() { let n: int = atoi(read_input()); exec(\"x\" ); system(\"a\"); printf(\"%d\", n); }");
        assert_eq!(r1.flows.len(), 1); // printf receives tainted n
        let r2 = report("fn f() { let n: int = rand_int(9); printf(\"%d\", n); }");
        assert!(r2.flows.is_empty());
    }

    #[test]
    fn buffer_weak_update_taints_whole_buffer() {
        let r = report(
            "fn f(i: int) {
                let buf: str[16];
                buf[i] = read_input();
                buf[0] = \"x\";
                exec(buf[1]);
            }",
        );
        assert_eq!(r.flows.len(), 1);
    }

    #[test]
    fn loop_carried_taint_reaches_fixpoint() {
        let r = report(
            "fn f(n: int) {
                let acc: str = \"\";
                let i: int = 0;
                while i < n {
                    acc = strcat_helper(acc, recv(0));
                    i += 1;
                }
                system(acc);
            }
            fn strcat_helper(a: str, b: str) -> str { return b; }",
        );
        assert_eq!(r.flows.len(), 1);
    }

    #[test]
    fn recursive_function_summary_terminates() {
        let r = report(
            "fn f(n: int) -> str {
                if n == 0 { return read_input(); }
                return f(n - 1);
            }
            fn g() { exec(f(3)); }",
        );
        assert!(r.summaries["f"].returns_taint_always);
        assert_eq!(r.flows.len(), 1);
    }

    #[test]
    fn exposed_vs_internal_flows() {
        let r = report(
            "@endpoint(network) fn a(req: str) { strcpy(req, req); }
             fn b() { system(getenv(\"PATH\")); }",
        );
        assert_eq!(r.flows.len(), 2);
        assert_eq!(r.exposed_flows(), 1);
    }

    #[test]
    fn strncpy_is_not_a_sink() {
        let r = report("fn f(buf: str[8]) { strncpy(buf, read_input(), 8); }");
        assert!(r.flows.is_empty());
    }
}
