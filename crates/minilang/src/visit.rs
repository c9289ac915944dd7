//! AST walking utilities.
//!
//! Most analyses need "visit every statement/expression under this function".
//! Rather than each analysis re-implementing recursion (and inevitably
//! missing the `for`-step or a switch default), this module provides
//! closure-based walkers plus a few common queries built on them.

use crate::ast::*;

/// Call `f` on every statement in the block, recursively (pre-order).
pub fn walk_stmts<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        walk_stmt(stmt, f);
    }
}

fn walk_stmt<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Stmt)) {
    f(stmt);
    match &stmt.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_stmts(then_branch, f);
            if let Some(eb) = else_branch {
                walk_stmts(eb, f);
            }
        }
        StmtKind::While { body, .. } => walk_stmts(body, f),
        StmtKind::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                walk_stmt(i, f);
            }
            if let Some(s) = step {
                walk_stmt(s, f);
            }
            walk_stmts(body, f);
        }
        StmtKind::Switch { cases, default, .. } => {
            for c in cases {
                walk_stmts(&c.body, f);
            }
            if let Some(d) = default {
                walk_stmts(d, f);
            }
        }
        StmtKind::Block(b) => walk_stmts(b, f),
        StmtKind::Let { .. }
        | StmtKind::Assign { .. }
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Return(_)
        | StmtKind::Expr(_) => {}
    }
}

/// Call `f` on every expression under the block, including sub-expressions
/// (pre-order), covering conditions, initializers, steps, indices and
/// call arguments.
pub fn walk_exprs<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    walk_stmts(block, &mut |stmt| {
        for e in stmt_exprs(stmt) {
            walk_expr(e, f);
        }
    });
}

/// The expressions appearing *directly* in a statement (not recursing into
/// nested statements — `walk_stmts` handles those): at most two, so the
/// iterator borrows them without collecting.
pub fn stmt_exprs(stmt: &Stmt) -> impl Iterator<Item = &Expr> {
    let (first, second) = match &stmt.kind {
        StmtKind::Let { init, .. } => (init.as_ref(), None),
        StmtKind::Assign { target, value, .. } => match target {
            LValue::Index { index, .. } => (Some(index), Some(value)),
            LValue::Var(..) => (Some(value), None),
        },
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => (Some(cond), None),
        StmtKind::For { cond, .. } => (cond.as_ref(), None),
        StmtKind::Switch { scrutinee, .. } => (Some(scrutinee), None),
        StmtKind::Return(value) => (value.as_ref(), None),
        StmtKind::Expr(e) => (Some(e), None),
        StmtKind::Break | StmtKind::Continue | StmtKind::Block(_) => (None, None),
    };
    first.into_iter().chain(second)
}

/// Call `f` on `expr` and all sub-expressions (pre-order).
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(expr);
    match &expr.kind {
        ExprKind::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        ExprKind::Unary { operand, .. } => walk_expr(operand, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::Var(_) => {}
    }
}

/// Collect the callee names of every call under `block`, in visit order
/// (includes duplicates — callers dedup if they need to).
pub fn collect_calls(block: &Block) -> Vec<&str> {
    let mut out = Vec::new();
    walk_exprs(block, &mut |e| {
        if let ExprKind::Call { callee, .. } = &e.kind {
            out.push(callee.as_str());
        }
    });
    out
}

/// Collect every variable name *read* under `block` (not assignment targets).
pub fn collect_var_reads(block: &Block) -> Vec<&str> {
    let mut out = Vec::new();
    walk_exprs(block, &mut |e| {
        if let ExprKind::Var(name) = &e.kind {
            out.push(name.as_str());
        }
    });
    out
}

/// Call `f` on every identifier a function mentions, in a deterministic
/// pre-order: the function's own name, its parameter names, then per
/// statement (as [`walk_stmts`] visits them) any declared/assigned name
/// followed by every variable reference and callee in the statement's
/// direct expressions. Symbol interning is built on this walk — running it
/// once per function yields a stable numbering no matter which analysis
/// asks first.
pub fn function_identifiers<'a>(function: &'a Function, f: &mut dyn FnMut(&'a str)) {
    f(&function.name);
    for p in &function.params {
        f(&p.name);
    }
    walk_stmts(&function.body, &mut |stmt| {
        match &stmt.kind {
            StmtKind::Let { name, .. } => f(name),
            StmtKind::Assign { target, .. } => f(target.base_name()),
            _ => {}
        }
        for e in stmt_exprs(stmt) {
            walk_expr(e, &mut |e| match &e.kind {
                ExprKind::Var(name) => f(name),
                ExprKind::Call { callee, .. } => f(callee),
                _ => {}
            });
        }
    });
}

/// Maximum statement-nesting depth of the block (a top-level statement has
/// depth 1). Used by the "deep nesting" code smell.
pub fn max_nesting_depth(block: &Block) -> usize {
    fn stmt_depth(stmt: &Stmt) -> usize {
        let inner = match &stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let t = block_depth(then_branch);
                let e = else_branch.as_ref().map(block_depth).unwrap_or(0);
                t.max(e)
            }
            StmtKind::While { body, .. } => block_depth(body),
            StmtKind::For { body, .. } => block_depth(body),
            StmtKind::Switch { cases, default, .. } => {
                let c = cases
                    .iter()
                    .map(|c| block_depth(&c.body))
                    .max()
                    .unwrap_or(0);
                let d = default.as_ref().map(block_depth).unwrap_or(0);
                c.max(d)
            }
            StmtKind::Block(b) => block_depth(b),
            _ => return 1,
        };
        1 + inner
    }
    fn block_depth(block: &Block) -> usize {
        block.stmts.iter().map(stmt_depth).max().unwrap_or(0)
    }
    block_depth(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;
    use crate::parser::parse_module;

    fn body(src: &str) -> Block {
        let m = parse_module("t.c", src, Dialect::C).unwrap();
        m.functions[0].body.clone()
    }

    #[test]
    fn walk_stmts_reaches_every_nesting_site() {
        let b = body(
            "fn f(x: int) {
                if x > 0 { let a: int = 1; } else { let b: int = 2; }
                while x < 10 { x += 1; }
                for i = 0; i < 3; i += 1 { log_msg(\"s\"); }
                switch x { case 1: { break; } default: { return; } }
                { let c: int = 3; }
            }",
        );
        let mut lets = 0;
        walk_stmts(&b, &mut |s| {
            if matches!(s.kind, StmtKind::Let { .. }) {
                lets += 1;
            }
        });
        // a, b, c plus nothing else (for-init is an assign, not a let).
        assert_eq!(lets, 3);
    }

    #[test]
    fn collect_calls_includes_nested_and_duplicate() {
        let b = body("fn f() { printf(\"%d\", strlen(read_input())); printf(\"x\"); }");
        assert_eq!(
            collect_calls(&b),
            vec!["printf", "strlen", "read_input", "printf"]
        );
    }

    #[test]
    fn collect_calls_sees_for_step_and_condition() {
        let b = body("fn f() { for i = strlen(\"a\"); i < strlen(\"bb\"); i += 1 { } }");
        assert_eq!(collect_calls(&b).len(), 2);
    }

    #[test]
    fn var_reads_exclude_plain_assignment_targets() {
        let b = body("fn f() { let x: int = 0; x = 5; let y: int = x; }");
        assert_eq!(collect_var_reads(&b), vec!["x"]);
    }

    #[test]
    fn var_reads_include_index_of_write_target() {
        let b = body("fn f(i: int) { let buf: int[8]; buf[i] = 1; }");
        assert_eq!(collect_var_reads(&b), vec!["i"]);
    }

    #[test]
    fn nesting_depth() {
        assert_eq!(max_nesting_depth(&body("fn f() { let x: int = 1; }")), 1);
        assert_eq!(
            max_nesting_depth(&body("fn f(x: int) { if x > 0 { if x > 1 { x = 2; } } }")),
            3
        );
        assert_eq!(max_nesting_depth(&body("fn f() { }")), 0);
    }

    #[test]
    fn function_identifiers_in_stable_preorder() {
        let m = parse_module(
            "t.c",
            "fn f(a: int, b: int) -> int {
                let x: int = a + 1;
                x = g(b);
                for i = 0; i < x; i += 1 { log_msg(\"s\"); }
                return x;
            }",
            Dialect::C,
        )
        .unwrap();
        let mut seen = Vec::new();
        function_identifiers(&m.functions[0], &mut |n| seen.push(n.to_string()));
        assert_eq!(
            seen,
            vec![
                "f", "a", "b", // signature
                "x", "a", // let x = a + 1
                "x", "g", "b", // x = g(b)
                "i", "x", "i", "i", "log_msg", // for cond, then init/step/body
                "x",       // return x
            ]
        );
    }

    #[test]
    fn walk_exprs_covers_switch_scrutinee_and_return() {
        let b = body("fn f(x: int) -> int { switch x + 1 { default: { } } return x * 2; }");
        let mut binaries = 0;
        walk_exprs(&b, &mut |e| {
            if matches!(e.kind, ExprKind::Binary { .. }) {
                binaries += 1;
            }
        });
        assert_eq!(binaries, 2);
    }
}
