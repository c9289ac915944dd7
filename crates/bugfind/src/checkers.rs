//! The seven checkers.

use crate::diagnostic::{DiagSeverity, Diagnostic};
use minilang::ast::{Expr, ExprKind, Function, Module, Program, StmtKind, Type};
use minilang::{visit, Intrinsic};
use static_analysis::cfg::{Cfg, NodeId, NodeKind};
use static_analysis::context::AnalysisContext;
use static_analysis::dataflow;
use static_analysis::interval::{self, Interval};
use static_analysis::taint::TaintReport;

/// A bug-finding tool: scans a program, emits diagnostics.
pub trait Checker {
    /// Stable tool name.
    fn name(&self) -> &'static str;
    /// Scan the whole program.
    fn check(&self, program: &Program) -> Vec<Diagnostic>;
    /// Scan using the shared [`AnalysisContext`]. Checkers that need CFGs,
    /// interval analysis or the interprocedural taint result override this
    /// to reuse the precomputed artifacts; the default is the plain
    /// program scan. Diagnostics must be identical either way.
    fn check_ctx(&self, cx: &AnalysisContext<'_>) -> Vec<Diagnostic> {
        self.check(cx.program)
    }
}

/// Every checker in the suite, in a deterministic order.
pub fn all_checkers() -> Vec<Box<dyn Checker + Send + Sync>> {
    vec![
        Box::new(BufferOverflowChecker),
        Box::new(FormatStringChecker),
        Box::new(IntegerOverflowChecker),
        Box::new(UntrustedInputChecker),
        Box::new(ToctouChecker),
        Box::new(DeadStoreChecker),
        Box::new(HardcodedCredentialChecker),
        Box::new(PathTraversalChecker),
        Box::new(AllocLifetimeChecker),
        Box::new(InfoExposureChecker),
    ]
}

fn for_each_function(program: &Program, mut f: impl FnMut(&Module, &Function)) {
    for module in &program.modules {
        for function in &module.functions {
            f(module, function);
        }
    }
}

/// CWE-121-style checker: every `buf[i]` whose index interval is not
/// provably inside `[0, capacity)` is reported — `Error` when provably
/// outside, `Warning` when merely unproved (the realistic FP source).
pub struct BufferOverflowChecker;

impl BufferOverflowChecker {
    /// One function's scan, parameterized over where the interval for an
    /// index site at a CFG node comes from (fresh analysis, or the shared
    /// context's cached per-site intervals replayed in site order).
    fn check_function(
        module: &Module,
        function: &Function,
        cfg: &Cfg<'_>,
        index_interval: &mut dyn FnMut(NodeId, &Expr) -> Interval,
        out: &mut Vec<Diagnostic>,
    ) {
        let caps = interval::buffer_capacities(function);
        interval::for_each_index_site(cfg, &mut |id, base, index, span| {
            // Evaluate before the capacity lookup so a cached replay
            // consumes exactly one interval per site.
            let idx = index_interval(id, index);
            let Some(&cap) = caps.get(base) else { return };
            if idx.is_bottom() {
                return; // unreachable
            }
            if idx.lo >= 0 && idx.hi < cap as i64 {
                return; // provably safe
            }
            let (severity, rule, message) = if idx.hi < 0 || idx.lo >= cap as i64 {
                (
                    DiagSeverity::Error,
                    "index-oob",
                    format!("index {idx} is outside `{base}[{cap}]`"),
                )
            } else {
                (
                    DiagSeverity::Warning,
                    "index-unproved",
                    format!("cannot prove index {idx} inside `{base}[{cap}]`"),
                )
            };
            out.push(Diagnostic {
                tool: "bufcheck",
                rule,
                severity,
                function: function.name.clone(),
                module: module.path.clone(),
                span,
                cwe_hint: Some(121),
                message,
            });
        });

        // `strcpy(dst, src)` into a fixed-size buffer is flagged unless
        // the copy is bounded (`strncpy`).
        visit::walk_exprs(&function.body, &mut |e| {
            if let ExprKind::Call { callee, args } = &e.kind {
                if Intrinsic::from_name(callee) == Some(Intrinsic::Strcpy) {
                    if let Some(ExprKind::Var(dst)) = args.first().map(|a| &a.kind) {
                        if caps.contains_key(dst.as_str()) {
                            out.push(Diagnostic {
                                tool: "bufcheck",
                                rule: "strcpy-fixed-buffer",
                                severity: DiagSeverity::Warning,
                                function: function.name.clone(),
                                module: module.path.clone(),
                                span: e.span,
                                cwe_hint: Some(121),
                                message: format!("unbounded strcpy into fixed buffer `{dst}`"),
                            });
                        }
                    }
                }
            }
        });
    }
}

impl Checker for BufferOverflowChecker {
    fn name(&self) -> &'static str {
        "bufcheck"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_function(program, |module, function| {
            let cfg = Cfg::build(function);
            let analysis = interval::analyze_cfg(&cfg, function);
            Self::check_function(
                module,
                function,
                &cfg,
                &mut |id, index| interval::eval(index, &analysis.envs[id]),
                &mut out,
            );
        });
        out
    }

    fn check_ctx(&self, cx: &AnalysisContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut fcxs = cx.functions.iter();
        for_each_function(cx.program, |module, function| {
            let fcx = fcxs.next().expect("one context per function");
            let mut sites = fcx.index_sites.iter().copied();
            Self::check_function(
                module,
                function,
                &fcx.cfg,
                &mut |_, _| sites.next().expect("one cached interval per index site"),
                &mut out,
            );
            debug_assert!(sites.next().is_none(), "unreplayed index-site intervals");
        });
        out
    }
}

/// CWE-134: `printf`/`sprintf` where the format argument is not a string
/// literal.
pub struct FormatStringChecker;

impl Checker for FormatStringChecker {
    fn name(&self) -> &'static str {
        "fmtcheck"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_function(program, |module, function| {
            visit::walk_exprs(&function.body, &mut |e| {
                let ExprKind::Call { callee, args } = &e.kind else {
                    return;
                };
                let fmt_arg = match Intrinsic::from_name(callee) {
                    Some(Intrinsic::Printf) => args.first(),
                    Some(Intrinsic::Sprintf) => args.get(1),
                    _ => None,
                };
                let Some(fmt) = fmt_arg else { return };
                if !matches!(fmt.kind, ExprKind::Str(_)) {
                    out.push(Diagnostic {
                        tool: "fmtcheck",
                        rule: "non-literal-format",
                        severity: DiagSeverity::Warning,
                        function: function.name.clone(),
                        module: module.path.clone(),
                        span: e.span,
                        cwe_hint: Some(134),
                        message: format!("non-literal format string passed to `{callee}`"),
                    });
                }
            });
        });
        out
    }
}

/// CWE-190: arithmetic that can overflow feeding an allocation size or a
/// buffer index, with neither operand a small constant.
pub struct IntegerOverflowChecker;

impl IntegerOverflowChecker {
    fn risky_arith(e: &Expr) -> bool {
        let mut found = false;
        visit::walk_expr(e, &mut |sub| {
            if let ExprKind::Binary { op, lhs, rhs } = &sub.kind {
                if op.can_overflow() {
                    let small_const =
                        |x: &Expr| matches!(x.kind, ExprKind::Int(v) if v.abs() < 4096);
                    if !small_const(lhs) && !small_const(rhs) {
                        found = true;
                    }
                }
            }
        });
        found
    }
}

impl Checker for IntegerOverflowChecker {
    fn name(&self) -> &'static str {
        "intcheck"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_function(program, |module, function| {
            let mut push = |span, message: String| {
                out.push(Diagnostic {
                    tool: "intcheck",
                    rule: "overflowing-size-arith",
                    severity: DiagSeverity::Warning,
                    function: function.name.clone(),
                    module: module.path.clone(),
                    span,
                    cwe_hint: Some(190),
                    message,
                });
            };
            visit::walk_exprs(&function.body, &mut |e| match &e.kind {
                ExprKind::Call { callee, args }
                    if Intrinsic::from_name(callee) == Some(Intrinsic::Alloc) =>
                {
                    if let Some(size) = args.first() {
                        if Self::risky_arith(size) {
                            push(e.span, "allocation size from unchecked arithmetic".into());
                        }
                    }
                }
                ExprKind::Index { index, .. } if Self::risky_arith(index) => {
                    push(e.span, "buffer index from unchecked arithmetic".into());
                }
                _ => {}
            });
        });
        out
    }
}

/// CWE-20: a parameter of an `@endpoint`/`@untrusted` function flows into a
/// call argument while no `if` in the function mentions it (no validation).
pub struct UntrustedInputChecker;

impl Checker for UntrustedInputChecker {
    fn name(&self) -> &'static str {
        "inputcheck"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_function(program, |module, function| {
            if !function.is_untrusted() && function.endpoint_channels().is_empty() {
                return;
            }
            // Which params are mentioned in any branch condition?
            let mut validated: Vec<&str> = Vec::new();
            visit::walk_stmts(&function.body, &mut |s| {
                let cond = match &s.kind {
                    StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => Some(cond),
                    StmtKind::Switch { scrutinee, .. } => Some(scrutinee),
                    _ => None,
                };
                if let Some(c) = cond {
                    visit::walk_expr(c, &mut |e| {
                        if let ExprKind::Var(name) = &e.kind {
                            validated.push(name);
                        }
                    });
                }
            });
            for p in &function.params {
                if validated.contains(&p.name.as_str()) {
                    continue;
                }
                // Does the parameter flow into any call?
                let mut used_in_call = None;
                visit::walk_exprs(&function.body, &mut |e| {
                    if let ExprKind::Call { args, .. } = &e.kind {
                        for a in args {
                            let mut mentions = false;
                            visit::walk_expr(a, &mut |sub| {
                                if matches!(&sub.kind, ExprKind::Var(n) if n == &p.name) {
                                    mentions = true;
                                }
                            });
                            if mentions && used_in_call.is_none() {
                                used_in_call = Some(e.span);
                            }
                        }
                    }
                });
                if let Some(span) = used_in_call {
                    out.push(Diagnostic {
                        tool: "inputcheck",
                        rule: "unvalidated-param",
                        severity: DiagSeverity::Warning,
                        function: function.name.clone(),
                        module: module.path.clone(),
                        span,
                        cwe_hint: Some(20),
                        message: format!(
                            "untrusted parameter `{}` used without validation",
                            p.name
                        ),
                    });
                }
            }
        });
        out
    }
}

/// CWE-367: `access(p)` followed (anywhere later in the function) by an
/// `open`/`read_file`/`write_file` on the same path variable.
pub struct ToctouChecker;

impl Checker for ToctouChecker {
    fn name(&self) -> &'static str {
        "racecheck"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_function(program, |module, function| {
            // Collect (callee, first-arg-var, span) in source order.
            let mut calls: Vec<(Intrinsic, String, minilang::Span)> = Vec::new();
            visit::walk_exprs(&function.body, &mut |e| {
                if let ExprKind::Call { callee, args } = &e.kind {
                    if let Some(i) = Intrinsic::from_name(callee) {
                        if let Some(ExprKind::Var(name)) = args.first().map(|a| &a.kind) {
                            calls.push((i, name.clone(), e.span));
                        }
                    }
                }
            });
            for (idx, (intr, var, _)) in calls.iter().enumerate() {
                if *intr != Intrinsic::Access {
                    continue;
                }
                for (later_intr, later_var, later_span) in &calls[idx + 1..] {
                    let is_use = matches!(
                        later_intr,
                        Intrinsic::Open | Intrinsic::ReadFile | Intrinsic::WriteFile
                    );
                    if is_use && later_var == var {
                        out.push(Diagnostic {
                            tool: "racecheck",
                            rule: "toctou",
                            severity: DiagSeverity::Warning,
                            function: function.name.clone(),
                            module: module.path.clone(),
                            span: *later_span,
                            cwe_hint: Some(367),
                            message: format!(
                                "`{}` on `{var}` after `access` check (TOCTOU window)",
                                later_intr.name()
                            ),
                        });
                        break;
                    }
                }
            }
        });
        out
    }
}

/// Dead stores via the liveness analysis — the code-quality tool whose
/// reports correlate with process quality rather than direct exploitability.
pub struct DeadStoreChecker;

impl DeadStoreChecker {
    fn program_globals(program: &Program) -> Vec<String> {
        program
            .modules
            .iter()
            .flat_map(|m| m.globals.iter().map(|g| g.name.clone()))
            .collect()
    }

    fn check_function(
        module: &Module,
        function: &Function,
        cfg: &Cfg<'_>,
        globals: &[String],
        out: &mut Vec<Diagnostic>,
    ) {
        let rd = dataflow::reaching_definitions(cfg);
        let lv = dataflow::liveness(cfg);
        let params: Vec<&str> = function.params.iter().map(|p| p.name.as_str()).collect();
        for def in &rd.defs {
            if !def.strong || params.contains(&def.var.as_str()) || globals.contains(&def.var) {
                continue;
            }
            if !lv.is_live_out(def.node, &def.var) {
                let span = match cfg.nodes[def.node].kind {
                    NodeKind::Stmt(s) => s.span,
                    _ => minilang::Span::dummy(),
                };
                out.push(Diagnostic {
                    tool: "deadstore",
                    rule: "dead-store",
                    severity: DiagSeverity::Note,
                    function: function.name.clone(),
                    module: module.path.clone(),
                    span,
                    cwe_hint: None,
                    message: format!("value assigned to `{}` is never read", def.var),
                });
            }
        }
    }
}

impl Checker for DeadStoreChecker {
    fn name(&self) -> &'static str {
        "deadstore"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let globals = Self::program_globals(program);
        for_each_function(program, |module, function| {
            let cfg = Cfg::build(function);
            Self::check_function(module, function, &cfg, &globals, &mut out);
        });
        out
    }

    fn check_ctx(&self, cx: &AnalysisContext<'_>) -> Vec<Diagnostic> {
        // The dead-store sites were already computed (under this checker's
        // exact predicate) by the context's dataflow fixpoint, as
        // structure-relative (node, local) pairs. Replaying them here —
        // re-anchoring spans through the CFG and names through the symbol
        // table — keeps repeat runs over a warm incremental cache from
        // paying for reaching-definitions + liveness twice per function.
        let mut out = Vec::new();
        let mut fcxs = cx.functions.iter();
        for_each_function(cx.program, |module, function| {
            let fcx = fcxs.next().expect("one context per function");
            for &(node, local) in &fcx.dead_store_sites {
                let span = match fcx.cfg.nodes[node].kind {
                    NodeKind::Stmt(s) => s.span,
                    _ => minilang::Span::dummy(),
                };
                let var = cx.symbols.table.name(fcx.symbols.syms[local as usize]);
                out.push(Diagnostic {
                    tool: "deadstore",
                    rule: "dead-store",
                    severity: DiagSeverity::Note,
                    function: function.name.clone(),
                    module: module.path.clone(),
                    span,
                    cwe_hint: None,
                    message: format!("value assigned to `{var}` is never read"),
                });
            }
        });
        out
    }
}

/// CWE-798: a string literal flowing into `auth_check`, or a comparison of a
/// secret-named variable against a literal.
pub struct HardcodedCredentialChecker;

impl HardcodedCredentialChecker {
    pub(crate) fn is_secret_name(name: &str) -> bool {
        let lower = name.to_ascii_lowercase();
        ["pass", "pwd", "secret", "token", "key", "cred"]
            .iter()
            .any(|k| lower.contains(k))
    }
}

impl Checker for HardcodedCredentialChecker {
    fn name(&self) -> &'static str {
        "credcheck"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_function(program, |module, function| {
            visit::walk_exprs(&function.body, &mut |e| match &e.kind {
                ExprKind::Call { callee, args }
                    if Intrinsic::from_name(callee) == Some(Intrinsic::AuthCheck)
                        && args.iter().any(|a| matches!(a.kind, ExprKind::Str(_))) =>
                {
                    out.push(Diagnostic {
                        tool: "credcheck",
                        rule: "literal-credential",
                        severity: DiagSeverity::Error,
                        function: function.name.clone(),
                        module: module.path.clone(),
                        span: e.span,
                        cwe_hint: Some(798),
                        message: "literal credential passed to auth_check".into(),
                    });
                }
                ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
                    let pair = [(lhs, rhs), (rhs, lhs)];
                    for (var_side, lit_side) in pair {
                        if let (ExprKind::Var(name), ExprKind::Str(lit)) =
                            (&var_side.kind, &lit_side.kind)
                        {
                            if Self::is_secret_name(name) && !lit.is_empty() {
                                out.push(Diagnostic {
                                    tool: "credcheck",
                                    rule: "secret-compared-to-literal",
                                    severity: DiagSeverity::Warning,
                                    function: function.name.clone(),
                                    module: module.path.clone(),
                                    span: e.span,
                                    cwe_hint: Some(798),
                                    message: format!(
                                        "secret `{name}` compared against a hardcoded literal"
                                    ),
                                });
                                break;
                            }
                        }
                    }
                }
                _ => {}
            });
        });
        out
    }
}

// Re-check that the Type import is used (buffer capacities come through it).
const _: fn(&Type) -> Option<usize> = Type::buffer_capacity;

/// CWE-22: a tainted path (parameter of an untrusted/endpoint function, or
/// data from an input intrinsic) flowing into `read_file`/`write_file`/
/// `open` without a validating branch on it.
pub struct PathTraversalChecker;

impl PathTraversalChecker {
    fn check_with(program: &Program, taint: &TaintReport) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_function(program, |module, function| {
            let entry_tainted = taint.tainted_entry_functions.contains(&function.name);
            // Variables holding raw input in this function.
            let mut tainted_vars: Vec<String> = if entry_tainted {
                function.params.iter().map(|p| p.name.clone()).collect()
            } else {
                Vec::new()
            };
            visit::walk_stmts(&function.body, &mut |s| {
                if let StmtKind::Let {
                    name,
                    init: Some(e),
                    ..
                } = &s.kind
                {
                    let mut from_source = false;
                    visit::walk_expr(e, &mut |sub| {
                        if let ExprKind::Call { callee, .. } = &sub.kind {
                            if Intrinsic::from_name(callee).is_some_and(|i| i.is_taint_source()) {
                                from_source = true;
                            }
                        }
                        if let ExprKind::Var(v) = &sub.kind {
                            if tainted_vars.contains(v) {
                                from_source = true;
                            }
                        }
                    });
                    if from_source {
                        tainted_vars.push(name.clone());
                    }
                }
            });
            // Validated names (mentioned in any branch condition).
            let mut validated: Vec<String> = Vec::new();
            visit::walk_stmts(&function.body, &mut |s| {
                let cond = match &s.kind {
                    StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => Some(cond),
                    _ => None,
                };
                if let Some(c) = cond {
                    visit::walk_expr(c, &mut |e| {
                        if let ExprKind::Var(v) = &e.kind {
                            validated.push(v.clone());
                        }
                        // strlen(p) in a guard counts as validating p.
                        if let ExprKind::Call { args, .. } = &e.kind {
                            for a in args {
                                if let ExprKind::Var(v) = &a.kind {
                                    validated.push(v.clone());
                                }
                            }
                        }
                    });
                }
            });
            visit::walk_exprs(&function.body, &mut |e| {
                let ExprKind::Call { callee, args } = &e.kind else {
                    return;
                };
                let is_fs = matches!(
                    Intrinsic::from_name(callee),
                    Some(Intrinsic::ReadFile | Intrinsic::WriteFile | Intrinsic::Open)
                );
                if !is_fs {
                    return;
                }
                if let Some(ExprKind::Var(path)) = args.first().map(|a| &a.kind) {
                    if tainted_vars.contains(path) && !validated.contains(path) {
                        out.push(Diagnostic {
                            tool: "pathcheck",
                            rule: "tainted-path",
                            severity: DiagSeverity::Warning,
                            function: function.name.clone(),
                            module: module.path.clone(),
                            span: e.span,
                            cwe_hint: Some(22),
                            message: format!(
                                "attacker-influenced path `{path}` reaches `{callee}`"
                            ),
                        });
                    }
                }
            });
        });
        out
    }
}

impl Checker for PathTraversalChecker {
    fn name(&self) -> &'static str {
        "pathcheck"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        Self::check_with(program, &static_analysis::taint::analyze(program))
    }

    fn check_ctx(&self, cx: &AnalysisContext<'_>) -> Vec<Diagnostic> {
        Self::check_with(cx.program, &cx.taint)
    }
}

/// CWE-416 / CWE-401: `free(p)` followed by a later use of `p` (UAF), and
/// `alloc` results whose variable is never passed to `free` (leak).
pub struct AllocLifetimeChecker;

impl Checker for AllocLifetimeChecker {
    fn name(&self) -> &'static str {
        "alloccheck"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_function(program, |module, function| {
            // Source-order events on alloc'd variables.
            let mut allocated: Vec<String> = Vec::new();
            visit::walk_stmts(&function.body, &mut |s| {
                if let StmtKind::Let {
                    name,
                    init: Some(e),
                    ..
                } = &s.kind
                {
                    let mut from_alloc = false;
                    visit::walk_expr(e, &mut |sub| {
                        if let ExprKind::Call { callee, .. } = &sub.kind {
                            if Intrinsic::from_name(callee) == Some(Intrinsic::Alloc) {
                                from_alloc = true;
                            }
                        }
                    });
                    if from_alloc {
                        allocated.push(name.clone());
                    }
                }
            });
            if allocated.is_empty() {
                return;
            }
            // Order calls and uses.
            // (order, free-call span) per freed variable; the variable
            // mention inside the `free(p)` call itself is not a use.
            let mut freed_at: std::collections::BTreeMap<String, (usize, minilang::Span)> =
                std::collections::BTreeMap::new();
            let mut uses_after: Vec<(String, minilang::Span)> = Vec::new();
            let mut order = 0usize;
            visit::walk_exprs(&function.body, &mut |e| {
                order += 1;
                match &e.kind {
                    ExprKind::Call { callee, args }
                        if Intrinsic::from_name(callee) == Some(Intrinsic::Free) =>
                    {
                        if let Some(ExprKind::Var(v)) = args.first().map(|a| &a.kind) {
                            freed_at.entry(v.clone()).or_insert((order, e.span));
                        }
                    }
                    ExprKind::Var(v) => {
                        if let Some(&(at, free_span)) = freed_at.get(v) {
                            let inside_free_call =
                                e.span.start >= free_span.start && e.span.end <= free_span.end;
                            if order > at && !inside_free_call {
                                uses_after.push((v.clone(), e.span));
                            }
                        }
                    }
                    _ => {}
                }
            });
            for (var, span) in uses_after {
                out.push(Diagnostic {
                    tool: "alloccheck",
                    rule: "use-after-free",
                    severity: DiagSeverity::Error,
                    function: function.name.clone(),
                    module: module.path.clone(),
                    span,
                    cwe_hint: Some(416),
                    message: format!("`{var}` used after being freed"),
                });
            }
            for var in &allocated {
                if !freed_at.contains_key(var.as_str()) {
                    out.push(Diagnostic {
                        tool: "alloccheck",
                        rule: "memory-leak",
                        severity: DiagSeverity::Note,
                        function: function.name.clone(),
                        module: module.path.clone(),
                        span: function.span,
                        cwe_hint: Some(401),
                        message: format!("allocation `{var}` is never freed"),
                    });
                }
            }
        });
        out
    }
}

/// CWE-200: secret-looking data (secret-named variables, `getenv` results)
/// written to an attacker-observable channel (`send`).
pub struct InfoExposureChecker;

impl Checker for InfoExposureChecker {
    fn name(&self) -> &'static str {
        "leakcheck"
    }

    fn check(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_function(program, |module, function| {
            // Secret carriers: secret-named variables and getenv() results.
            let mut secrets: Vec<String> = Vec::new();
            visit::walk_stmts(&function.body, &mut |s| {
                if let StmtKind::Let { name, init, .. } = &s.kind {
                    let named_secret = HardcodedCredentialChecker::is_secret_name(name);
                    let from_env = init.as_ref().is_some_and(|e| {
                        let mut hit = false;
                        visit::walk_expr(e, &mut |sub| {
                            if let ExprKind::Call { callee, .. } = &sub.kind {
                                if Intrinsic::from_name(callee) == Some(Intrinsic::Getenv) {
                                    hit = true;
                                }
                            }
                        });
                        hit
                    });
                    if named_secret || from_env {
                        secrets.push(name.clone());
                    }
                }
            });
            if secrets.is_empty() {
                return;
            }
            visit::walk_exprs(&function.body, &mut |e| {
                let ExprKind::Call { callee, args } = &e.kind else {
                    return;
                };
                if Intrinsic::from_name(callee) != Some(Intrinsic::Send) {
                    return;
                }
                for a in args {
                    let mut leaked: Option<String> = None;
                    visit::walk_expr(a, &mut |sub| {
                        if let ExprKind::Var(v) = &sub.kind {
                            if secrets.contains(v) && leaked.is_none() {
                                leaked = Some(v.clone());
                            }
                        }
                    });
                    if let Some(var) = leaked {
                        out.push(Diagnostic {
                            tool: "leakcheck",
                            rule: "secret-on-channel",
                            severity: DiagSeverity::Warning,
                            function: function.name.clone(),
                            module: module.path.clone(),
                            span: e.span,
                            cwe_hint: Some(200),
                            message: format!("secret `{var}` written to a network channel"),
                        });
                        break;
                    }
                }
            });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_program, Dialect};

    fn run(checker: &dyn Checker, src: &str) -> Vec<Diagnostic> {
        let p = parse_program("app", Dialect::C, &[("m.c".into(), src.into())]).unwrap();
        checker.check(&p)
    }

    #[test]
    fn bufcheck_flags_constant_oob_as_error() {
        let d = run(
            &BufferOverflowChecker,
            "fn f() { let b: int[4]; b[4] = 1; }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, DiagSeverity::Error);
        assert_eq!(d[0].rule, "index-oob");
        assert_eq!(d[0].cwe_hint, Some(121));
    }

    #[test]
    fn bufcheck_flags_unproved_as_warning() {
        let d = run(
            &BufferOverflowChecker,
            "fn f(i: int) { let b: int[4]; b[i] = 1; }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, DiagSeverity::Warning);
    }

    #[test]
    fn bufcheck_accepts_guarded_access() {
        let d = run(
            &BufferOverflowChecker,
            "fn f(i: int) { let b: int[4]; if i >= 0 && i < 4 { b[i] = 1; } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn bufcheck_flags_strcpy_into_fixed_buffer() {
        let d = run(
            &BufferOverflowChecker,
            "fn f(s: str) { let b: str[16]; strcpy(b, s); }",
        );
        assert!(d.iter().any(|x| x.rule == "strcpy-fixed-buffer"));
    }

    #[test]
    fn fmtcheck_flags_variable_format() {
        let d = run(&FormatStringChecker, "fn f(s: str) { printf(s); }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cwe_hint, Some(134));
        let clean = run(&FormatStringChecker, "fn f(s: str) { printf(\"%s\", s); }");
        assert!(clean.is_empty());
    }

    #[test]
    fn fmtcheck_checks_sprintf_second_arg() {
        let d = run(
            &FormatStringChecker,
            "fn f(b: str, s: str) { sprintf(b, s); }",
        );
        assert_eq!(d.len(), 1);
        let clean = run(
            &FormatStringChecker,
            "fn f(b: str, s: str) { sprintf(b, \"%s\", s); }",
        );
        assert!(clean.is_empty());
    }

    #[test]
    fn intcheck_flags_alloc_arith() {
        let d = run(
            &IntegerOverflowChecker,
            "fn f(n: int, m: int) { let p: str = alloc(n * m); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cwe_hint, Some(190));
    }

    #[test]
    fn intcheck_ignores_small_constant_arith() {
        let d = run(
            &IntegerOverflowChecker,
            "fn f(n: int) { let p: str = alloc(n + 16); }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn intcheck_flags_index_arith() {
        let d = run(
            &IntegerOverflowChecker,
            "fn f(a: int, b: int) { let buf: int[64]; let x: int = buf[a * b]; }",
        );
        assert!(!d.is_empty());
    }

    #[test]
    fn inputcheck_flags_unvalidated_endpoint_param() {
        let d = run(
            &UntrustedInputChecker,
            "@endpoint(network) fn handle(req: str) { log_msg(req); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cwe_hint, Some(20));
    }

    #[test]
    fn inputcheck_accepts_validated_param() {
        let d = run(
            &UntrustedInputChecker,
            "@endpoint(network) fn handle(n: int) { if n > 0 && n < 100 { log_msg(\"ok\"); send(0, \"x\"); } }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn inputcheck_ignores_internal_functions() {
        let d = run(&UntrustedInputChecker, "fn internal(s: str) { exec(s); }");
        assert!(d.is_empty());
    }

    #[test]
    fn racecheck_flags_access_then_open() {
        let d = run(
            &ToctouChecker,
            "fn f(p: str) { if access(p) { let fd: int = open(p); } }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cwe_hint, Some(367));
    }

    #[test]
    fn racecheck_ignores_open_without_check() {
        let d = run(&ToctouChecker, "fn f(p: str) { let fd: int = open(p); }");
        assert!(d.is_empty());
    }

    #[test]
    fn racecheck_requires_same_variable() {
        let d = run(
            &ToctouChecker,
            "fn f(p: str, q: str) { if access(p) { let fd: int = open(q); } }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn deadstore_reports_notes() {
        let d = run(
            &DeadStoreChecker,
            "fn f() { let x: int = 1; x = 2; log_msg(\"k\"); }",
        );
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|x| x.severity == DiagSeverity::Note));
    }

    #[test]
    fn credcheck_flags_literal_in_auth() {
        let d = run(
            &HardcodedCredentialChecker,
            "fn f(u: str) { auth_check(u, \"hunter2\"); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, DiagSeverity::Error);
        assert_eq!(d[0].cwe_hint, Some(798));
    }

    #[test]
    fn credcheck_flags_secret_comparison() {
        let d = run(
            &HardcodedCredentialChecker,
            "fn f(password: str) -> bool { return password == \"letmein\"; }",
        );
        assert_eq!(d.len(), 1);
        let clean = run(
            &HardcodedCredentialChecker,
            "fn f(name: str) -> bool { return name == \"admin\"; }",
        );
        assert!(clean.is_empty());
    }

    #[test]
    fn pathcheck_flags_tainted_unvalidated_path() {
        let d = run(
            &PathTraversalChecker,
            "@endpoint(network) fn serve(req: str) { let data: str = read_file(req); send(0, data); }",
        );
        assert!(d.iter().any(|x| x.cwe_hint == Some(22)), "{d:?}");
    }

    #[test]
    fn pathcheck_accepts_validated_path() {
        let d = run(
            &PathTraversalChecker,
            "@endpoint(network) fn serve(req: str) {
                if strlen(req) > 64 { return; }
                let data: str = read_file(req);
                send(0, data);
            }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pathcheck_ignores_constant_paths() {
        let d = run(
            &PathTraversalChecker,
            "@endpoint(network) fn serve(req: str) { let data: str = read_file(\"/etc/motd\"); send(0, data); }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn alloccheck_flags_use_after_free() {
        let d = run(
            &AllocLifetimeChecker,
            "fn f() { let p: str = alloc(16); free(p); log_msg(p); }",
        );
        assert!(d
            .iter()
            .any(|x| x.rule == "use-after-free" && x.cwe_hint == Some(416)));
    }

    #[test]
    fn alloccheck_flags_leak() {
        let d = run(
            &AllocLifetimeChecker,
            "fn f() { let p: str = alloc(16); log_msg(p); }",
        );
        assert!(d
            .iter()
            .any(|x| x.rule == "memory-leak" && x.cwe_hint == Some(401)));
    }

    #[test]
    fn alloccheck_accepts_balanced_lifetime() {
        let d = run(
            &AllocLifetimeChecker,
            "fn f() { let p: str = alloc(16); log_msg(p); free(p); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn leakcheck_flags_secret_on_channel() {
        let d = run(
            &InfoExposureChecker,
            "fn f() { let api_key: str = getenv(\"KEY\"); send(0, api_key); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cwe_hint, Some(200));
    }

    #[test]
    fn leakcheck_ignores_benign_sends() {
        let d = run(&InfoExposureChecker, "fn f(msg: str) { send(0, msg); }");
        assert!(d.is_empty());
    }

    #[test]
    fn all_checkers_is_complete() {
        let names: Vec<&str> = all_checkers().iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "bufcheck",
                "fmtcheck",
                "intcheck",
                "inputcheck",
                "racecheck",
                "deadstore",
                "credcheck",
                "pathcheck",
                "alloccheck",
                "leakcheck"
            ]
        );
    }
}
