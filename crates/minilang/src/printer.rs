//! Pretty-printer.
//!
//! Emits canonical MiniLang source from an AST. The corpus generator builds
//! ASTs and prints them (interleaving dialect-styled comments) to produce the
//! module source text; the round-trip suite checks `parse ∘ print` to pin
//! the grammar.
//!
//! Every construct is written straight into one output buffer: no
//! intermediate string per expression or per line. Callers that print many
//! small pieces (the duplicate-code digests) hand in a reused buffer via
//! [`print_stmt_into`].

use crate::ast::*;
use std::fmt::Write;

/// Render a module's items as canonical source text.
///
/// Note: this prints the AST, not `module.source` — comments are not
/// preserved (the corpus generator adds its own when synthesizing files).
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let mut p = Printer::new(&mut out, 0);
    for g in &module.globals {
        p.global(g);
    }
    for f in &module.functions {
        p.function(f);
    }
    out
}

/// Render a single function.
pub fn print_function(f: &Function) -> String {
    let mut out = String::new();
    Printer::new(&mut out, 0).function(f);
    out
}

/// Render a single expression (used in diagnostics).
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    Printer::new(&mut out, 0).expr(e);
    out
}

/// Append one statement, printed `indent` levels deep exactly as it
/// appears inside a printed function body, to `out`.
pub fn print_stmt_into(out: &mut String, stmt: &Stmt, indent: usize) {
    Printer::new(out, indent).stmt(stmt);
}

struct Printer<'o> {
    out: &'o mut String,
    indent: usize,
}

impl<'o> Printer<'o> {
    fn new(out: &'o mut String, indent: usize) -> Self {
        Printer { out, indent }
    }

    /// Write the current indentation.
    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn global(&mut self, g: &Global) {
        self.pad();
        let _ = write!(self.out, "global {}: {}", g.name, g.ty);
        if let Some(init) = &g.init {
            self.out.push_str(" = ");
            self.expr(init);
        }
        self.out.push_str(";\n");
    }

    fn function(&mut self, f: &Function) {
        for ann in &f.annotations {
            self.pad();
            match ann {
                Annotation::Endpoint(k) => {
                    let _ = write!(self.out, "@endpoint({})", k.name());
                }
                Annotation::Priv(p) => {
                    let _ = write!(self.out, "@priv({})", p.name());
                }
                Annotation::Untrusted => self.out.push_str("@untrusted"),
                Annotation::Deprecated => self.out.push_str("@deprecated"),
            }
            self.out.push('\n');
        }
        self.pad();
        let _ = write!(self.out, "fn {}(", f.name);
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let _ = write!(self.out, "{}: {}", p.name, p.ty);
        }
        self.out.push(')');
        if f.ret != Type::Void {
            let _ = write!(self.out, " -> {}", f.ret);
        }
        self.out.push_str(" {\n");
        self.indent += 1;
        for s in &f.body.stmts {
            self.stmt(s);
        }
        self.indent -= 1;
        self.pad();
        self.out.push_str("}\n");
    }

    fn block_inline(&mut self, b: &Block) {
        self.out.push_str("{\n");
        self.indent += 1;
        for s in &b.stmts {
            self.stmt(s);
        }
        self.indent -= 1;
        self.pad();
        self.out.push('}');
    }

    fn stmt(&mut self, s: &Stmt) {
        self.pad();
        match &s.kind {
            StmtKind::Let { name, ty, init } => {
                let _ = write!(self.out, "let {name}: {ty}");
                if let Some(e) = init {
                    self.out.push_str(" = ");
                    self.expr(e);
                }
                self.out.push_str(";\n");
            }
            StmtKind::Assign { target, op, value } => {
                match target {
                    LValue::Var(name, _) => self.out.push_str(name),
                    LValue::Index { base, index, .. } => {
                        self.out.push_str(base);
                        self.out.push('[');
                        self.expr(index);
                        self.out.push(']');
                    }
                }
                match op {
                    None => self.out.push_str(" = "),
                    Some(o) => {
                        let _ = write!(self.out, " {}= ", o.symbol());
                    }
                }
                self.expr(value);
                self.out.push_str(";\n");
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.out.push_str("if ");
                self.expr(cond);
                self.out.push(' ');
                self.block_inline(then_branch);
                if let Some(eb) = else_branch {
                    self.out.push_str(" else ");
                    self.block_inline(eb);
                }
                self.out.push('\n');
            }
            StmtKind::While { cond, body } => {
                self.out.push_str("while ");
                self.expr(cond);
                self.out.push(' ');
                self.block_inline(body);
                self.out.push('\n');
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.out.push_str("for ");
                self.for_part(init);
                self.out.push_str("; ");
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.out.push_str("; ");
                self.for_part(step);
                self.out.push(' ');
                self.block_inline(body);
                self.out.push('\n');
            }
            StmtKind::Switch {
                scrutinee,
                cases,
                default,
            } => {
                self.out.push_str("switch ");
                self.expr(scrutinee);
                self.out.push_str(" {\n");
                self.indent += 1;
                for case in cases {
                    self.pad();
                    let _ = write!(self.out, "case {}: ", case.value);
                    self.block_inline(&case.body);
                    self.out.push('\n');
                }
                if let Some(d) = default {
                    self.pad();
                    self.out.push_str("default: ");
                    self.block_inline(d);
                    self.out.push('\n');
                }
                self.indent -= 1;
                self.pad();
                self.out.push_str("}\n");
            }
            StmtKind::Break => self.out.push_str("break;\n"),
            StmtKind::Continue => self.out.push_str("continue;\n"),
            StmtKind::Return(value) => {
                self.out.push_str("return");
                if let Some(e) = value {
                    self.out.push(' ');
                    self.expr(e);
                }
                self.out.push_str(";\n");
            }
            StmtKind::Expr(e) => {
                self.expr(e);
                self.out.push_str(";\n");
            }
            StmtKind::Block(b) => {
                self.block_inline(b);
                self.out.push('\n');
            }
        }
    }

    /// A `for` header's init or step slot: the statement printed
    /// unindented, then cut back in place to its text without surrounding
    /// whitespace or the trailing `;`.
    fn for_part(&mut self, part: &Option<Box<Stmt>>) {
        let Some(s) = part else {
            return;
        };
        let start = self.out.len();
        let indent = std::mem::replace(&mut self.indent, 0);
        self.stmt(s);
        self.indent = indent;
        let printed = &self.out[start..];
        let lead = printed.len() - printed.trim_start().len();
        let kept = printed.trim().trim_end_matches(';').len();
        self.out.truncate(start + lead + kept);
        self.out.drain(start..start + lead);
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Int(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::Float(v) => {
                // Always keep a decimal point so the literal re-lexes as float.
                if v.fract() == 0.0 && v.is_finite() {
                    let _ = write!(self.out, "{v:.1}");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            ExprKind::Str(s) => {
                self.out.push('"');
                for ch in s.chars() {
                    match ch {
                        '\n' => self.out.push_str("\\n"),
                        '\t' => self.out.push_str("\\t"),
                        '"' => self.out.push_str("\\\""),
                        '\\' => self.out.push_str("\\\\"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            ExprKind::Bool(b) => {
                let _ = write!(self.out, "{b}");
            }
            ExprKind::Var(name) => self.out.push_str(name),
            ExprKind::Index { base, index } => {
                self.expr_paren_if_compound(base);
                self.out.push('[');
                self.expr(index);
                self.out.push(']');
            }
            ExprKind::Unary { op, operand } => {
                self.out.push_str(op.symbol());
                self.expr_paren_if_compound(operand);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // Fully parenthesize nested binaries: unambiguous and
                // guarantees the parse∘print round-trip is structure-exact.
                self.expr_paren_if_compound(lhs);
                let _ = write!(self.out, " {} ", op.symbol());
                self.expr_paren_if_compound(rhs);
            }
            ExprKind::Call { callee, args } => {
                self.out.push_str(callee);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
        }
    }

    fn expr_paren_if_compound(&mut self, e: &Expr) {
        // Negative literals are parenthesized too: `0 + -1` would reparse as
        // a unary negation, which prints as `0 + (-1)` — parenthesizing up
        // front keeps printing canonical (print∘parse∘print = print).
        let needs_paren = match &e.kind {
            ExprKind::Binary { .. } | ExprKind::Unary { .. } => true,
            ExprKind::Int(v) => *v < 0,
            ExprKind::Float(v) => *v < 0.0,
            _ => false,
        };
        if needs_paren {
            self.out.push('(');
            self.expr(e);
            self.out.push(')');
        } else {
            self.expr(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;
    use crate::parser::parse_module;

    /// Parse, print, re-parse; the two ASTs must match modulo spans/source.
    fn round_trip(src: &str) {
        let m1 = parse_module("t.c", src, Dialect::C).expect("first parse");
        let printed = print_module(&m1);
        let m2 = parse_module("t.c", &printed, Dialect::C)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        assert_eq!(strip(&m1), strip(&m2), "--- printed ---\n{printed}");
    }

    /// Erase spans and source so structural equality is meaningful.
    fn strip(m: &Module) -> String {
        // Printing is canonical, so compare by printing both.
        print_module(m)
    }

    #[test]
    fn round_trips_every_construct() {
        round_trip(
            r#"
            global limit: int = 100;
            @endpoint(network) @priv(root)
            fn handle(req: str, n: int) -> int {
                let buf: str[64];
                let i: int = 0;
                while i < n {
                    buf[i] = req[i];
                    i += 1;
                }
                for j = 0; j < 10; j += 2 {
                    if (j % 2) == 0 && n > 3 {
                        continue;
                    } else {
                        break;
                    }
                }
                switch n {
                    case 1: { return 1; }
                    case -2: { printf("%d", n); }
                    default: { log_msg("other"); }
                }
                return strlen(buf) * -n + (2 << 1);
            }
            "#,
        );
    }

    #[test]
    fn round_trips_floats_and_bools() {
        round_trip("fn f() -> float { let x: float = 2.0; let b: bool = true; return x * 1.5; }");
    }

    #[test]
    fn round_trips_string_escapes() {
        round_trip(r#"fn f() { printf("a\n\t\"b\"\\c"); }"#);
    }

    #[test]
    fn round_trips_nested_blocks_and_empty_for() {
        round_trip("fn f() { { let x: int = 1; } for ; ; { break; } }");
    }

    #[test]
    fn print_expr_is_parenthesized() {
        let m = parse_module("t.c", "fn f() -> int { return 1 + 2 * 3; }", Dialect::C).unwrap();
        let crate::ast::StmtKind::Return(Some(e)) = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(print_expr(e), "1 + (2 * 3)");
    }
}
