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
//!    can flow to its return value, callees before callers over the call
//!    graph's strongly connected components, iterating inside each cycle
//!    until its summaries are stable (handles recursion).
//! 2. **Entry propagation** — parameters are tainted for annotated entry
//!    points, then call sites with tainted arguments taint their callee's
//!    parameters, to fixpoint; each function's final intraprocedural pass
//!    records every sink call receiving tainted data.

use crate::bitset::{row_contains, row_insert, row_remove, BitMatrix};
use crate::cfg::NodeKind;
use crate::context::{FnSymbols, FunctionContext};
use minilang::ast::{Expr, ExprKind, Function, LValue, Program, StmtKind};
use minilang::{visit, Intrinsic, Span};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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
    /// Work counter: intraprocedural passes the fixpoint requested (memo
    /// hits included). Not part of the result.
    pub intra_passes: usize,
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// What one walk over a function's calls yields: the distinct
/// non-intrinsic callee names, sorted — the summary-map entries an
/// intraprocedural pass can observe (intrinsic-named callees resolve
/// through [`Intrinsic::from_name`] before the summary map is consulted,
/// so they cannot affect the result) — and its taint-source and
/// dangerous-sink call counts.
struct CallFacts<'a> {
    callees: Vec<&'a str>,
    source_calls: usize,
    sink_calls: usize,
}

impl<'a> CallFacts<'a> {
    fn of(f: &'a Function) -> CallFacts<'a> {
        let mut callees = Vec::new();
        let (mut source_calls, mut sink_calls) = (0, 0);
        visit::walk_exprs(&f.body, &mut |e| {
            if let ExprKind::Call { callee, .. } = &e.kind {
                match Intrinsic::from_name(callee) {
                    Some(i) => {
                        source_calls += i.is_taint_source() as usize;
                        sink_calls += i.is_dangerous_sink() as usize;
                    }
                    None => callees.push(callee.as_str()),
                }
            }
        });
        callees.sort_unstable();
        callees.dedup();
        CallFacts {
            callees,
            source_calls,
            sink_calls,
        }
    }

    /// With clean parameters, can any value in the function be tainted?
    /// Only a source call or a callee that always returns taint creates
    /// taint from nothing; without either, a clean pass finds nothing.
    fn taint_from_nothing(&self, summaries: &BTreeMap<String, TaintSummary>) -> bool {
        self.source_calls > 0
            || self
                .callees
                .iter()
                .any(|c| summaries.get(*c).is_some_and(|s| s.returns_taint_always))
    }
}

/// FNV-1a digest of the summary map restricted to `callees` (which must be
/// sorted and deduplicated): per name, its presence in the map and its
/// summary bits. Two summary maps with equal digests are indistinguishable
/// to an intraprocedural pass over a function with these callees.
pub fn summaries_digest(callees: &[&str], summaries: &BTreeMap<String, TaintSummary>) -> u64 {
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
        match summaries.get(*name) {
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
/// intraprocedural passes. The evaluation order does not depend on the
/// memo; only the per-call `intra_ctx` work is elided on memo hits, so
/// the report is bit-identical to the memo-free path. Callgraph-edge invalidation falls
/// out of the key: when a callee's summary changes, every caller's digest
/// changes and its memo entries stop matching.
pub fn analyze_contexts_memo(
    program: &Program,
    fcxs: &[FunctionContext<'_>],
    memo: &dyn IntraMemo,
) -> TaintReport {
    run_contexts(program, fcxs, Some(memo))
}

/// The whole-program fixpoint over the last-wins name graph (one node per
/// distinct function name, numbered in name order; an edge per call to a
/// defined name).
///
/// An intraprocedural pass is monotone in the summary bits and the
/// parameter flag it reads (see [`intra_ctx`]), and both fixpoints start
/// from bottom, so every chaotic iteration order reaches the same least
/// fixpoint. That licenses the cheapest orders:
///
/// 1. **Summaries**, bottom-up over the strongly connected components
///    (callees before callers), iterating a worklist only inside cyclic
///    components. Each function's last clean and dirty passes saw final
///    summaries — a member is re-queued whenever a same-component callee
///    changes — so they are kept and phase 2 and the flow pass run no
///    passes of their own.
/// 2. **Entry propagation** by worklist over the kept passes.
/// 3. **Flows**, collected in name order.
fn run_contexts(
    program: &Program,
    fcxs: &[FunctionContext<'_>],
    memo: Option<&dyn IntraMemo>,
) -> TaintReport {
    // Node `k` of the name graph: `(name, index into fcxs)`, sorted by
    // name, last-wins on duplicates.
    let nodes: Vec<(&str, usize)> = fcxs
        .iter()
        .enumerate()
        .map(|(i, fcx)| (fcx.function.name.as_str(), i))
        .collect::<BTreeMap<_, _>>()
        .into_iter()
        .collect();
    let node_of = |name: &str| nodes.binary_search_by(|&(n, _)| n.cmp(name)).ok();
    let facts: Vec<CallFacts> = nodes
        .iter()
        .map(|&(_, i)| CallFacts::of(fcxs[i].function))
        .collect();
    let succs: Vec<Vec<usize>> = facts
        .iter()
        .map(|f| f.callees.iter().filter_map(|c| node_of(c)).collect())
        .collect();

    let mut intra_passes = 0usize;
    let mut intra = |k: usize,
                     params_tainted: bool,
                     summaries: &BTreeMap<String, TaintSummary>|
     -> IntraResult {
        intra_passes += 1;
        let idx = nodes[k].1;
        let fcx = &fcxs[idx];
        let Some(memo) = memo else {
            return intra_ctx(fcx, params_tainted, summaries);
        };
        let digest = summaries_digest(&facts[k].callees, summaries);
        if let Some(hit) = memo.get(idx, params_tainted, digest) {
            return hit;
        }
        let result = intra_ctx(fcx, params_tainted, summaries);
        memo.put(idx, params_tainted, digest, &result);
        result
    };

    // Phase 1: summaries, callee components first.
    let mut summaries: BTreeMap<String, TaintSummary> = nodes
        .iter()
        .map(|&(n, _)| (n.to_string(), TaintSummary::default()))
        .collect();
    let sccs = crate::callgraph::strongly_connected(&succs);
    // Same-component callers, to re-queue when a summary changes.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (k, out) in succs.iter().enumerate() {
        for &j in out {
            if sccs.component_of[j] == sccs.component_of[k] {
                callers[j].push(k);
            }
        }
    }
    // Each function's last (clean, dirty) passes; every node belongs to
    // a component, so every entry is overwritten.
    let mut passes: Vec<(IntraResult, IntraResult)> = vec![Default::default(); nodes.len()];
    let mut queued = vec![false; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for members in &sccs.components {
        queue.extend(members);
        for &k in members {
            queued[k] = true;
        }
        while let Some(k) = queue.pop_front() {
            queued[k] = false;
            // Passes that provably see no taint are not run: a clean pass
            // with nothing to create taint, and a dirty pass over a
            // function without parameters (it is the clean pass).
            let clean = if facts[k].taint_from_nothing(&summaries) {
                intra(k, false, &summaries)
            } else {
                IntraResult::default()
            };
            let dirty = if fcxs[nodes[k].1].param_locals.is_empty() {
                clean.clone()
            } else {
                intra(k, true, &summaries)
            };
            let new = TaintSummary {
                returns_taint_always: clean.returns_taint,
                returns_taint_if_param: dirty.returns_taint,
                param_reaches_sink: dirty.hit_sink,
            };
            passes[k] = (clean, dirty);
            let entry = summaries.get_mut(nodes[k].0).expect("summary exists");
            if *entry != new {
                *entry = new;
                for &caller in &callers[k] {
                    if !queued[caller] {
                        queued[caller] = true;
                        queue.push_back(caller);
                    }
                }
            }
        }
    }

    // Phase 2: which functions run with tainted parameters? Every
    // function's clean pass taints callees; each function in the set
    // then taints the callees of its dirty pass (a superset) once.
    let mut tainted_entry: BTreeSet<String> = program
        .functions()
        .filter(|f| f.is_untrusted() || !f.endpoint_channels().is_empty())
        .map(|f| f.name.clone())
        .collect();
    let mut work: Vec<usize> = (0..nodes.len())
        .filter(|&k| tainted_entry.contains(nodes[k].0))
        .collect();
    for (clean, _) in &passes {
        taint_callees(clean, &node_of, &mut tainted_entry, &mut work);
    }
    while let Some(k) = work.pop() {
        taint_callees(&passes[k].1, &node_of, &mut tainted_entry, &mut work);
    }

    // Final pass: collect flows and counts.
    let mut report = TaintReport {
        tainted_entry_functions: tainted_entry,
        summaries,
        intra_passes,
        ..Default::default()
    };
    for (((name, _), (clean, dirty)), facts) in nodes.into_iter().zip(passes).zip(&facts) {
        let params_tainted = report.tainted_entry_functions.contains(name);
        let result = if params_tainted { dirty } else { clean };
        for (sink, span, needed_params) in result.sink_hits {
            report.flows.push(TaintFlow {
                function: name.to_string(),
                sink,
                span,
                via_parameters: needed_params && params_tainted,
            });
        }
        report.source_calls += facts.source_calls;
        report.sink_calls += facts.sink_calls;
    }
    report
}

/// Add the defined callees `pass` passed tainted arguments to `tainted`,
/// queueing the node of each one newly added.
fn taint_callees(
    pass: &IntraResult,
    node_of: &dyn Fn(&str) -> Option<usize>,
    tainted: &mut BTreeSet<String>,
    work: &mut Vec<usize>,
) {
    for callee in &pass.tainted_arg_callees {
        if let Some(k) = node_of(callee) {
            if tainted.insert(callee.clone()) {
                work.push(k);
            }
        }
    }
}

/// Forward taint fixpoint over a prebuilt function context, tracking
/// tainted variables as rows of one [`BitMatrix`] over the function's
/// local symbols; each node's transfer runs in place on one scratch row.
///
/// Monotone in its inputs, which is what lets [`run_contexts`] pick any
/// evaluation order: a summary bit read here is only ever OR-ed into a
/// value's taint (`returns_taint_always`, `returns_taint_if_param`) or
/// into `hit_sink` (`param_reaches_sink`), and tainted parameters only
/// grow every node's set; so `returns_taint`, `hit_sink` and
/// `tainted_arg_callees` never shrink as the summaries or the parameter
/// flag grow.
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

    #[test]
    fn passes_that_see_no_taint_are_skipped() {
        // No source and no parameters: no pass can see taint.
        let r = report("fn f() { let x: int = 1; printf(\"%d\", x); }");
        assert_eq!(r.intra_passes, 0);
        // A parameter but no source: only the dirty pass runs.
        let r = report("fn f(s: str) { exec(s); }");
        assert_eq!(r.intra_passes, 1);
        assert!(r.summaries["f"].param_reaches_sink);
        // A callee that always returns taint makes the clean pass count.
        let r = report(
            "fn get() -> str { return read_input(); }
             fn f() { system(get()); }",
        );
        assert_eq!(r.intra_passes, 2);
        assert_eq!(r.flows.len(), 1);
    }

    #[test]
    fn mutual_recursion_reaches_the_same_fixpoint_in_any_order() {
        // Return taint enters the ring at `c` and must circulate to `a`,
        // whose name sorts before both callees.
        let r = report(
            "fn a(n: int) -> str { return b(n); }
             fn b(n: int) -> str { return c(n); }
             fn c(n: int) -> str { if n > 0 { return a(n - 1); } return recv(0); }
             fn user() { exec(a(3)); }",
        );
        for f in ["a", "b", "c"] {
            assert!(r.summaries[f].returns_taint_always, "{f}");
        }
        assert_eq!(r.flows.len(), 1);
    }
}
