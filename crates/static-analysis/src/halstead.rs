//! Halstead software-science measures [37].
//!
//! Halstead's "elements of software science" derive effort estimates from
//! operator/operand counts:
//!
//! * `n1` distinct operators, `n2` distinct operands,
//! * `N1` total operators, `N2` total operands,
//! * vocabulary `n = n1 + n2`, length `N = N1 + N2`,
//! * volume `V = N · log2(n)`,
//! * difficulty `D = (n1 / 2) · (N2 / n2)`,
//! * effort `E = D · V`, time `T = E / 18` seconds,
//! * delivered bugs `B = V / 3000` — the metric's own vulnerability prior.
//!
//! Operators here are: binary/unary operators, assignment forms, control
//! keywords (`if`, `while`, `for`, `switch`, `case`, `return`, `break`,
//! `continue`, `let`), indexing, and each called function name. Operands
//! are: literals and variable references. Tallies key by values borrowed
//! from the AST, so counting a token never allocates a string.

use minilang::ast::{BinaryOp, ExprKind, Function, LValue, Module, Program, StmtKind};
use minilang::visit;
use std::collections::HashMap;

/// Raw counts plus derived Halstead measures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HalsteadMeasures {
    pub distinct_operators: usize,
    pub distinct_operands: usize,
    pub total_operators: usize,
    pub total_operands: usize,
}

impl HalsteadMeasures {
    /// Vocabulary `n`.
    pub fn vocabulary(&self) -> usize {
        self.distinct_operators + self.distinct_operands
    }

    /// Length `N`.
    pub fn length(&self) -> usize {
        self.total_operators + self.total_operands
    }

    /// Volume `V = N log2 n` (0 for empty vocabularies).
    pub fn volume(&self) -> f64 {
        let n = self.vocabulary();
        if n == 0 {
            0.0
        } else {
            self.length() as f64 * (n as f64).log2()
        }
    }

    /// Difficulty `D = n1/2 · N2/n2` (0 when there are no operands).
    pub fn difficulty(&self) -> f64 {
        if self.distinct_operands == 0 {
            0.0
        } else {
            (self.distinct_operators as f64 / 2.0)
                * (self.total_operands as f64 / self.distinct_operands as f64)
        }
    }

    /// Effort `E = D · V`.
    pub fn effort(&self) -> f64 {
        self.difficulty() * self.volume()
    }

    /// Estimated implementation time in seconds (`E / 18`).
    pub fn time_seconds(&self) -> f64 {
        self.effort() / 18.0
    }

    /// Halstead's delivered-bug estimate `B = V / 3000`.
    pub fn estimated_bugs(&self) -> f64 {
        self.volume() / 3000.0
    }

    fn merge(&mut self, other: &Tally) {
        self.distinct_operators = other.operators.len();
        self.distinct_operands = other.operands.len();
        self.total_operators = other.operators.values().sum();
        self.total_operands = other.operands.values().sum();
    }
}

/// An operator's identity: its spelling, except that calls are keyed by
/// callee so `call:f` never needs formatting. Compound assignments spell
/// as `op=`, which can coincide with a comparison (`<` + `=` is `<=`);
/// the static spelling keeps such pairs one operator, as the text does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Operator<'a> {
    Sym(&'static str),
    Call(&'a str),
}

/// An operand's identity: literals by kind and value, variables by name.
/// Floats key by bit pattern (every NaN as one), matching their distinct
/// decimal spellings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Operand<'a> {
    Int(i64),
    Float(u64),
    Str(&'a str),
    Bool(bool),
    Var(&'a str),
}

/// The `op=` spelling of a compound assignment.
fn compound_symbol(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Add => "+=",
        BinaryOp::Sub => "-=",
        BinaryOp::Mul => "*=",
        BinaryOp::Div => "/=",
        BinaryOp::Rem => "%=",
        BinaryOp::And => "&&=",
        BinaryOp::Or => "||=",
        BinaryOp::BitAnd => "&=",
        BinaryOp::BitOr => "|=",
        BinaryOp::BitXor => "^=",
        BinaryOp::Shl => "<<=",
        BinaryOp::Shr => ">>=",
        BinaryOp::Eq => "===",
        BinaryOp::Ne => "!==",
        BinaryOp::Lt => "<=",
        BinaryOp::Le => "<==",
        BinaryOp::Gt => ">=",
        BinaryOp::Ge => ">==",
    }
}

/// Operator and operand tallies, keyed by values borrowed from the AST.
#[derive(Default)]
struct Tally<'a> {
    operators: HashMap<Operator<'a>, usize>,
    operands: HashMap<Operand<'a>, usize>,
}

impl<'a> Tally<'a> {
    fn operator(&mut self, op: Operator<'a>) {
        *self.operators.entry(op).or_insert(0) += 1;
    }

    fn sym(&mut self, symbol: &'static str) {
        self.operator(Operator::Sym(symbol));
    }

    fn operand(&mut self, operand: Operand<'a>) {
        *self.operands.entry(operand).or_insert(0) += 1;
    }

    fn expr(&mut self, e: &'a minilang::Expr) {
        visit::walk_expr(e, &mut |e| match &e.kind {
            ExprKind::Int(v) => self.operand(Operand::Int(*v)),
            ExprKind::Float(v) => self.operand(Operand::Float(if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            })),
            ExprKind::Str(s) => self.operand(Operand::Str(s)),
            ExprKind::Bool(b) => self.operand(Operand::Bool(*b)),
            ExprKind::Var(name) => self.operand(Operand::Var(name)),
            ExprKind::Index { .. } => self.sym("[]"),
            ExprKind::Unary { op, .. } => self.sym(op.symbol()),
            ExprKind::Binary { op, .. } => self.sym(op.symbol()),
            ExprKind::Call { callee, .. } => self.operator(Operator::Call(callee)),
        });
    }

    fn function(&mut self, f: &'a Function) {
        for p in &f.params {
            self.operand(Operand::Var(&p.name));
        }
        visit::walk_stmts(&f.body, &mut |stmt| {
            match &stmt.kind {
                StmtKind::Let { name, .. } => {
                    self.sym("let");
                    self.operand(Operand::Var(name));
                }
                StmtKind::Assign { target, op, .. } => {
                    match op {
                        None => self.sym("="),
                        Some(o) => self.sym(compound_symbol(*o)),
                    }
                    self.operand(Operand::Var(target.base_name()));
                    if matches!(target, LValue::Index { .. }) {
                        self.sym("[]");
                    }
                }
                StmtKind::If { .. } => self.sym("if"),
                StmtKind::While { .. } => self.sym("while"),
                StmtKind::For { .. } => self.sym("for"),
                StmtKind::Switch { cases, .. } => {
                    self.sym("switch");
                    for _ in cases {
                        self.sym("case");
                    }
                }
                StmtKind::Break => self.sym("break"),
                StmtKind::Continue => self.sym("continue"),
                StmtKind::Return(_) => self.sym("return"),
                StmtKind::Expr(_) | StmtKind::Block(_) => {}
            }
            for e in visit::stmt_exprs(stmt) {
                self.expr(e);
            }
        });
    }
}

/// Halstead measures for a single function.
pub fn function_halstead(f: &Function) -> HalsteadMeasures {
    let mut tally = Tally::default();
    tally.function(f);
    let mut m = HalsteadMeasures::default();
    m.merge(&tally);
    m
}

/// Halstead measures across a module (shared operator/operand vocabulary).
pub fn module_halstead(module: &Module) -> HalsteadMeasures {
    let mut tally = Tally::default();
    for f in &module.functions {
        tally.function(f);
    }
    let mut m = HalsteadMeasures::default();
    m.merge(&tally);
    m
}

/// Halstead measures across an entire program.
pub fn program_halstead(program: &Program) -> HalsteadMeasures {
    let mut tally = Tally::default();
    for f in program.functions() {
        tally.function(f);
    }
    let mut m = HalsteadMeasures::default();
    m.merge(&tally);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_module, Dialect};

    fn measures(src: &str) -> HalsteadMeasures {
        let m = parse_module("t.c", src, Dialect::C).unwrap();
        function_halstead(&m.functions[0])
    }

    #[test]
    fn empty_function_is_zero() {
        let m = measures("fn f() { }");
        assert_eq!(m.length(), 0);
        assert_eq!(m.volume(), 0.0);
        assert_eq!(m.difficulty(), 0.0);
        assert_eq!(m.estimated_bugs(), 0.0);
    }

    #[test]
    fn counts_classic_example() {
        // let x: int = a + a;  →  operators: let, =? (no: let-init has no
        // explicit = operator; we count `let` only), +.
        let m = measures("fn f(a: int) { let x: int = a + a; }");
        // operators: let, + → n1 = 2, N1 = 2
        assert_eq!(m.distinct_operators, 2);
        assert_eq!(m.total_operators, 2);
        // operands: a (param decl + 2 reads), x → n2 = 2, N2 = 4
        assert_eq!(m.distinct_operands, 2);
        assert_eq!(m.total_operands, 4);
        assert_eq!(m.vocabulary(), 4);
        assert_eq!(m.length(), 6);
        assert!((m.volume() - 6.0 * 4f64.log2()).abs() < 1e-9);
        // D = (2/2) * (4/2) = 2
        assert!((m.difficulty() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_vs_total_operands() {
        let m = measures("fn f() { let x: int = 1 + 1 + 1; }");
        // operand "int:1" used 3 times but distinct once; x once.
        assert_eq!(m.distinct_operands, 2);
        assert_eq!(m.total_operands, 4);
    }

    #[test]
    fn calls_count_as_operators() {
        let m = measures("fn f() { printf(\"%d\", strlen(\"ab\")); printf(\"x\"); }");
        // operators: call:printf (x2), call:strlen (x1)
        assert_eq!(m.distinct_operators, 2);
        assert_eq!(m.total_operators, 3);
    }

    #[test]
    fn effort_and_derived_are_monotone_in_code_size() {
        let small = measures("fn f(a: int) { let x: int = a + 1; }");
        let big = measures(
            "fn f(a: int, b: int) {
                let x: int = a + 1;
                let y: int = b * 2 - a;
                if x > y { printf(\"%d\", x); } else { printf(\"%d\", y); }
                while x < 100 { x = x + y; }
            }",
        );
        assert!(big.volume() > small.volume());
        assert!(big.effort() > small.effort());
        assert!(big.estimated_bugs() > small.estimated_bugs());
        assert!(big.time_seconds() > small.time_seconds());
    }

    #[test]
    fn compound_assign_and_index_operators() {
        let m = measures("fn f() { let b: int[4]; b[0] = 1; b[1] += 2; }");
        // operators: let, =, +=, [] → n1 = 4; [] appears twice → N1 = 5.
        assert_eq!(m.distinct_operators, 4);
        assert_eq!(m.total_operators, 5);
        // operands: b (decl + 2 writes), int:0, int:1 (both literal-1 uses
        // collapse), int:2 → n2 = 4, N2 = 7.
        assert_eq!(m.distinct_operands, 4);
        assert_eq!(m.total_operands, 7);
    }

    #[test]
    fn module_aggregates_share_vocabulary() {
        let m = parse_module(
            "t.c",
            "fn a() { let x: int = 1; } fn b() { let y: int = 1; }",
            Dialect::C,
        )
        .unwrap();
        let agg = module_halstead(&m);
        // `let` is distinct once across both functions; literal 1 likewise.
        assert_eq!(agg.distinct_operators, 1);
        assert_eq!(agg.total_operators, 2);
        assert_eq!(agg.distinct_operands, 3); // x, y, int:1
        assert_eq!(agg.total_operands, 4);
    }

    #[test]
    fn switch_cases_counted() {
        let m = measures("fn f(x: int) { switch x { case 1: { } case 2: { } default: { } } }");
        // operators: switch, case, case → n1=2 (switch, case), N1=3
        assert_eq!(m.distinct_operators, 2);
        assert_eq!(m.total_operators, 3);
    }
}
