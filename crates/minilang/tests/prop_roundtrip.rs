//! Round-trip properties of the printer: for generated well-formed ASTs,
//! `parse(print(ast))` succeeds and re-prints to the identical canonical
//! text (print ∘ parse ∘ print = print). This pins the grammar against
//! lexer/parser/printer drift — crucial because the corpus generator feeds
//! printed ASTs back through the parser before analysis, and the
//! duplicate-code digests hash printed statements.
//!
//! Cases come from seeded splitmix64 loops, so a failure reproduces from
//! the seed in its message alone.

use minilang::ast::*;
use minilang::{parse_module, print_module, Dialect, Span};

const CASES: u64 = 192;

/// splitmix64: tiny, seeded, reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// `CASES` case seeds, fixed per property.
fn seeds(stream: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng(stream);
    (0..CASES).map(move |_| rng.next())
}

/// Identifiers are prefixed so they never collide with keywords or
/// intrinsics.
fn ident(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut s = String::from("v_");
    s.push(rng.pick(FIRST) as char);
    for _ in 0..rng.below(9) {
        s.push(rng.pick(REST) as char);
    }
    s
}

fn ty(rng: &mut Rng) -> Type {
    match rng.below(6) {
        0 => Type::Int,
        1 => Type::Float,
        2 => Type::Bool,
        3 => Type::Str,
        4 => Type::Array(Box::new(Type::Int), 1 + rng.below(511)),
        _ => Type::Array(Box::new(Type::Str), 1 + rng.below(511)),
    }
}

fn literal(rng: &mut Rng) -> ExprKind {
    match rng.below(4) {
        0 => ExprKind::Int(rng.range(-1000, 1000)),
        1 => ExprKind::Float(0.5 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 99.5),
        2 => {
            // Printable ASCII without quotes, backslashes or `%`.
            let s = (0..rng.below(13))
                .map(|_| loop {
                    let c = (b' ' + rng.below(95) as u8) as char;
                    if !matches!(c, '"' | '\\' | '%') {
                        break c;
                    }
                })
                .collect();
            ExprKind::Str(s)
        }
        _ => ExprKind::Bool(rng.chance(50)),
    }
}

const BINOPS: &[BinaryOp] = &[
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Rem,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::BitAnd,
    BinaryOp::BitOr,
    BinaryOp::BitXor,
    BinaryOp::Shl,
    BinaryOp::Shr,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
];

/// An expression at most `depth` compound levels deep.
fn expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.chance(35) {
        return if rng.chance(50) {
            Expr::new(literal(rng), Span::dummy())
        } else {
            Expr::var(ident(rng))
        };
    }
    match rng.below(5) {
        0 | 1 => {
            let op = rng.pick(BINOPS);
            let lhs = expr(rng, depth - 1);
            Expr::binary(op, lhs, expr(rng, depth - 1))
        }
        2 => Expr::new(
            ExprKind::Unary {
                op: if rng.chance(50) {
                    UnaryOp::Neg
                } else {
                    UnaryOp::Not
                },
                operand: Box::new(expr(rng, depth - 1)),
            },
            Span::dummy(),
        ),
        3 => {
            let name = ident(rng);
            let args = (0..rng.below(3)).map(|_| expr(rng, depth - 1)).collect();
            Expr::call(name, args)
        }
        _ => Expr::new(
            ExprKind::Index {
                base: Box::new(Expr::var(ident(rng))),
                index: Box::new(expr(rng, depth - 1)),
            },
            Span::dummy(),
        ),
    }
}

fn stmt_of(kind: StmtKind) -> Stmt {
    Stmt::new(kind, Span::dummy())
}

/// The operators the grammar has compound assignments for.
const COMPOUND: &[BinaryOp] = &[BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div];

/// An assignment or expression statement — what a `for` header's init and
/// step slots hold.
fn simple_stmt(rng: &mut Rng) -> Stmt {
    let op = rng.chance(50).then(|| rng.pick(COMPOUND));
    match rng.below(3) {
        0 => stmt_of(StmtKind::Assign {
            target: LValue::Var(ident(rng), Span::dummy()),
            op,
            value: expr(rng, 2),
        }),
        1 => stmt_of(StmtKind::Assign {
            target: LValue::Index {
                base: ident(rng),
                index: expr(rng, 2),
                span: Span::dummy(),
            },
            op,
            value: expr(rng, 2),
        }),
        _ => stmt_of(StmtKind::Expr(expr(rng, 3))),
    }
}

fn block(rng: &mut Rng, depth: usize) -> Block {
    let stmts = (0..rng.below(4)).map(|_| stmt(rng, depth - 1)).collect();
    Block::new(stmts, Span::dummy())
}

/// A statement at most `depth` nested blocks deep.
fn stmt(rng: &mut Rng, depth: usize) -> Stmt {
    if depth == 0 || rng.chance(50) {
        return match rng.below(6) {
            0 => stmt_of(StmtKind::Let {
                name: ident(rng),
                ty: ty(rng),
                init: rng.chance(60).then(|| expr(rng, 3)),
            }),
            1 | 2 => simple_stmt(rng),
            3 => stmt_of(StmtKind::Return(rng.chance(60).then(|| expr(rng, 3)))),
            4 => stmt_of(StmtKind::Break),
            _ => stmt_of(StmtKind::Continue),
        };
    }
    match rng.below(5) {
        0 => stmt_of(StmtKind::If {
            cond: expr(rng, 3),
            then_branch: block(rng, depth),
            else_branch: rng.chance(50).then(|| block(rng, depth)),
        }),
        1 => stmt_of(StmtKind::While {
            cond: expr(rng, 3),
            body: block(rng, depth),
        }),
        2 => stmt_of(StmtKind::For {
            init: rng.chance(70).then(|| Box::new(simple_stmt(rng))),
            cond: rng.chance(70).then(|| expr(rng, 3)),
            step: rng.chance(70).then(|| Box::new(simple_stmt(rng))),
            body: block(rng, depth),
        }),
        3 => {
            let cases = (0..rng.below(3))
                .map(|_| SwitchCase {
                    value: rng.range(-20, 20),
                    body: block(rng, depth),
                    span: Span::dummy(),
                })
                .collect();
            stmt_of(StmtKind::Switch {
                scrutinee: expr(rng, 3),
                cases,
                default: rng.chance(50).then(|| block(rng, depth)),
            })
        }
        _ => stmt_of(StmtKind::Block(block(rng, depth))),
    }
}

fn function(rng: &mut Rng, index: usize) -> Function {
    let params = (0..rng.below(4))
        .map(|i| Param {
            name: format!("{}_{i}", ident(rng)),
            ty: ty(rng),
            span: Span::dummy(),
        })
        .collect();
    let annotations = match rng.below(3) {
        0 => vec![],
        1 => vec![Annotation::Endpoint(ChannelKind::Network)],
        _ => vec![Annotation::Priv(PrivLevel::Root), Annotation::Untrusted],
    };
    let mut stmts: Vec<Stmt> = (0..rng.below(6)).map(|_| stmt(rng, 3)).collect();
    stmts.push(stmt_of(StmtKind::Return(Some(Expr::int(0)))));
    Function {
        name: format!("{}_{index}", ident(rng)),
        params,
        ret: if rng.chance(50) {
            Type::Int
        } else {
            Type::Void
        },
        body: Block::new(stmts, Span::dummy()),
        annotations,
        span: Span::dummy(),
    }
}

fn module(seed: u64) -> Module {
    let mut rng = Rng(seed);
    let globals = (0..rng.below(3))
        .map(|i| Global {
            name: format!("{}_{i}", ident(&mut rng)),
            ty: ty(&mut rng),
            init: rng.chance(50).then(|| expr(&mut rng, 2)),
            span: Span::dummy(),
        })
        .collect();
    let functions = (0..1 + rng.below(3))
        .map(|i| function(&mut rng, i))
        .collect();
    Module {
        path: "gen.c".into(),
        dialect: Dialect::C,
        source: String::new(),
        globals,
        functions,
    }
}

fn reparse(printed: &str, seed: u64) -> Module {
    parse_module("gen.c", printed, Dialect::C)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: reparse failed: {e}\n---\n{printed}"))
}

/// print → parse → print is a fixed point (canonical form).
#[test]
fn print_parse_print_is_identity() {
    for seed in seeds(1) {
        let printed = print_module(&module(seed));
        let reprinted = print_module(&reparse(&printed, seed));
        assert_eq!(printed, reprinted, "seed {seed:#x}");
    }
}

/// Structural facts survive the round trip.
#[test]
fn roundtrip_preserves_structure() {
    for seed in seeds(2) {
        let m = module(seed);
        let reparsed = reparse(&print_module(&m), seed);
        assert_eq!(
            m.functions.len(),
            reparsed.functions.len(),
            "seed {seed:#x}"
        );
        assert_eq!(m.globals.len(), reparsed.globals.len(), "seed {seed:#x}");
        for (a, b) in m.functions.iter().zip(&reparsed.functions) {
            assert_eq!(a.name, b.name, "seed {seed:#x}");
            assert_eq!(a.params.len(), b.params.len(), "seed {seed:#x}");
            assert_eq!(a.annotations, b.annotations, "seed {seed:#x}");
            assert_eq!(a.body.stmts.len(), b.body.stmts.len(), "seed {seed:#x}");
        }
    }
}

/// The lexer never panics on arbitrary input (errors are Results),
/// including multi-byte characters after a digit.
#[test]
fn lexer_total_on_arbitrary_input() {
    let mut inputs = vec!["0ો".to_string()];
    for seed in seeds(3) {
        let mut rng = Rng(seed);
        inputs.push(
            (0..rng.below(201))
                .filter_map(|_| match rng.below(4) {
                    0 => char::from_u32(rng.below(0x11_0000) as u32),
                    _ => Some((b' ' + rng.below(95) as u8) as char),
                })
                .collect(),
        );
    }
    for s in &inputs {
        let _ = minilang::Lexer::new(s, Dialect::C).tokenize();
        let _ = minilang::Lexer::new(s, Dialect::Python).tokenize();
    }
}

/// The parser never panics on arbitrary token-ish input.
#[test]
fn parser_total_on_arbitrary_input() {
    const ALPHABET: &[u8] = b"abcxyz0129{}();:=<>!&|+*/,[]\" \n@-";
    for seed in seeds(4) {
        let mut rng = Rng(seed);
        let s: String = (0..rng.below(121))
            .map(|_| rng.pick(ALPHABET) as char)
            .collect();
        let _ = parse_module("t.c", &s, Dialect::C);
    }
}
