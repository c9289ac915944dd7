//! CWE seeding recipes.
//!
//! Each recipe emits the *real code pattern* of a weakness class, so the
//! testbed's analyses and the bug-finding tools have genuine signal to
//! detect, not an oracle label. The recipes assume the carrier function's
//! parameters are attacker-reachable when the seed is exposed (the
//! synthesizer annotates the carrier as an endpoint in that case).

use cvedb::Cwe;
use minilang::ast::*;
use minilang::Span;
use rand::rngs::StdRng;
use rand::Rng;

/// Ground-truth record of one planted vulnerability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededVuln {
    pub cwe: Cwe,
    /// Carrier function name.
    pub function: String,
    /// Module path.
    pub module: String,
    /// Reachable from a network endpoint (drives CVSS AV:N).
    pub exposed: bool,
    /// Carrier runs with root privilege (drives CVSS scope/impact).
    pub priv_root: bool,
}

fn stmt(kind: StmtKind) -> Stmt {
    Stmt::new(kind, Span::dummy())
}

fn let_str(name: &str, init: Expr) -> Stmt {
    stmt(StmtKind::Let {
        name: name.into(),
        ty: Type::Str,
        init: Some(init),
    })
}

/// The attacker-controlled string expression for this carrier: a string
/// parameter when one exists, else data read from the network.
fn tainted_str(str_params: &[&str], rng: &mut StdRng) -> Expr {
    if str_params.is_empty() {
        Expr::call("recv", vec![Expr::int(rng.gen_range(0..4))])
    } else {
        Expr::var(str_params[0])
    }
}

fn tainted_int(int_params: &[&str], str_params: &[&str], rng: &mut StdRng) -> Expr {
    if let Some(p) = int_params.first() {
        Expr::var(*p)
    } else {
        Expr::call("atoi", vec![tainted_str(str_params, rng)])
    }
}

/// Emit the statements of the recipe for `cwe`.
///
/// Unknown/unseedable classes fall back to the closest modelled pattern
/// (documented per arm) so the function is total over [`Cwe::ALL`].
pub fn recipe(cwe: Cwe, str_params: &[&str], int_params: &[&str], rng: &mut StdRng) -> Vec<Stmt> {
    let cap = [16i64, 32, 64, 128][rng.gen_range(0..4usize)];
    match cwe {
        // Stack buffer overflow: unbounded copy of attacker data into a
        // fixed stack buffer.
        Cwe::StackBufferOverflow => vec![
            stmt(StmtKind::Let {
                name: "sbuf".into(),
                ty: Type::Array(Box::new(Type::Str), cap as usize),
                init: None,
            }),
            stmt(StmtKind::Expr(Expr::call(
                "strcpy",
                vec![Expr::var("sbuf"), tainted_str(str_params, rng)],
            ))),
        ],
        // Heap buffer overflow: allocation sized by one length, copy sized
        // by another (classic mismatch).
        Cwe::HeapBufferOverflow => vec![
            let_str("hbuf", Expr::call("alloc", vec![Expr::int(cap)])),
            stmt(StmtKind::Expr(Expr::call(
                "memcpy",
                vec![
                    Expr::var("hbuf"),
                    tainted_str(str_params, rng),
                    Expr::binary(
                        BinaryOp::Add,
                        Expr::call("strlen", vec![tainted_str(str_params, rng)]),
                        Expr::int(1),
                    ),
                ],
            ))),
            stmt(StmtKind::Expr(Expr::call("free", vec![Expr::var("hbuf")]))),
        ],
        // Externally controlled format string.
        Cwe::FormatString => vec![stmt(StmtKind::Expr(Expr::call(
            "printf",
            vec![tainted_str(str_params, rng)],
        )))],
        // OS command injection.
        Cwe::CommandInjection => vec![
            let_str("cmd", tainted_str(str_params, rng)),
            stmt(StmtKind::Expr(Expr::call("system", vec![Expr::var("cmd")]))),
        ],
        // SQL injection: modelled as attacker data spliced into a query
        // string handed to an exec-style evaluator (same taint shape).
        Cwe::SqlInjection => vec![
            let_str("query", tainted_str(str_params, rng)),
            stmt(StmtKind::Expr(Expr::call("exec", vec![Expr::var("query")]))),
        ],
        // Cross-site scripting: attacker data echoed to the output channel
        // unescaped (same source→send shape; `send` is the render sink).
        Cwe::CrossSiteScripting => vec![
            let_str("page", tainted_str(str_params, rng)),
            stmt(StmtKind::Expr(Expr::call(
                "sprintf",
                vec![Expr::var("page"), tainted_str(str_params, rng)],
            ))),
            stmt(StmtKind::Expr(Expr::call(
                "send",
                vec![Expr::int(0), Expr::var("page")],
            ))),
        ],
        // Integer overflow: attacker-influenced multiplication sizes an
        // allocation.
        Cwe::IntegerOverflow => {
            let n = tainted_int(int_params, str_params, rng);
            let m = tainted_int(int_params, str_params, rng);
            vec![
                let_str(
                    "obuf",
                    Expr::call("alloc", vec![Expr::binary(BinaryOp::Mul, n, m)]),
                ),
                stmt(StmtKind::Expr(Expr::call("free", vec![Expr::var("obuf")]))),
            ]
        }
        // Improper input validation: attacker data drives a privileged
        // operation with no validating branch (the synthesizer skips the
        // up-front validation for seeded carriers of this class).
        Cwe::ImproperInputValidation => vec![stmt(StmtKind::Expr(Expr::call(
            "write_file",
            vec![
                Expr::str_lit("/var/lib/state"),
                tainted_str(str_params, rng),
            ],
        )))],
        // Path traversal: attacker-controlled path opened directly.
        Cwe::PathTraversal => vec![
            let_str("path", tainted_str(str_params, rng)),
            stmt(StmtKind::Let {
                name: "data".into(),
                ty: Type::Str,
                init: Some(Expr::call("read_file", vec![Expr::var("path")])),
            }),
            stmt(StmtKind::Expr(Expr::call(
                "send",
                vec![Expr::int(0), Expr::var("data")],
            ))),
        ],
        // TOCTOU: check-then-use on the same path.
        Cwe::Toctou => vec![
            let_str("tpath", Expr::str_lit("/tmp/work")),
            stmt(StmtKind::If {
                cond: Expr::call("access", vec![Expr::var("tpath")]),
                then_branch: Block::new(
                    vec![stmt(StmtKind::Let {
                        name: "fd".into(),
                        ty: Type::Int,
                        init: Some(Expr::call("open", vec![Expr::var("tpath")])),
                    })],
                    Span::dummy(),
                ),
                else_branch: None,
            }),
        ],
        // Hardcoded credentials.
        Cwe::HardcodedCredentials => vec![stmt(StmtKind::If {
            cond: Expr::call(
                "auth_check",
                vec![Expr::str_lit("admin"), Expr::str_lit("s3cr3t-k3y")],
            ),
            then_branch: Block::new(
                vec![stmt(StmtKind::Expr(Expr::call(
                    "log_msg",
                    vec![Expr::str_lit("auth ok")],
                )))],
                Span::dummy(),
            ),
            else_branch: None,
        })],
        // Information exposure: secret material written to an
        // attacker-observable channel.
        Cwe::InfoExposure => vec![
            let_str(
                "secret_key",
                Expr::call("getenv", vec![Expr::str_lit("API_SECRET")]),
            ),
            stmt(StmtKind::Expr(Expr::call(
                "send",
                vec![Expr::int(0), Expr::var("secret_key")],
            ))),
        ],
        // Uninitialized variable use.
        Cwe::UninitializedVariable => vec![
            stmt(StmtKind::Let {
                name: "uv".into(),
                ty: Type::Int,
                init: None,
            }),
            stmt(StmtKind::Expr(Expr::call(
                "printf",
                vec![
                    Expr::str_lit("%d"),
                    Expr::binary(BinaryOp::Add, Expr::var("uv"), Expr::int(1)),
                ],
            ))),
        ],
        // Improper / missing authentication: a privileged action guarded by
        // a trivially-true check (resp. no check).
        Cwe::ImproperAuthentication => vec![stmt(StmtKind::If {
            cond: Expr::binary(
                BinaryOp::Eq,
                Expr::call("strlen", vec![tainted_str(str_params, rng)]),
                Expr::call("strlen", vec![tainted_str(str_params, rng)]),
            ),
            then_branch: Block::new(
                vec![stmt(StmtKind::Expr(Expr::call(
                    "write_file",
                    vec![Expr::str_lit("/etc/passwd"), Expr::str_lit("x")],
                )))],
                Span::dummy(),
            ),
            else_branch: None,
        })],
        Cwe::MissingAuthentication => vec![stmt(StmtKind::Expr(Expr::call(
            "write_file",
            vec![Expr::str_lit("/etc/shadow"), tainted_str(str_params, rng)],
        )))],
        // Resource-management classes: alloc without free (leak), free then
        // use (UAF shape via a dangling name), null-ish deref modelled as an
        // unchecked index at a sentinel.
        Cwe::MemoryLeak => vec![
            let_str("leak", Expr::call("alloc", vec![Expr::int(cap)])),
            stmt(StmtKind::Expr(Expr::call(
                "log_msg",
                vec![Expr::var("leak")],
            ))),
        ],
        Cwe::UseAfterFree => vec![
            let_str("uaf", Expr::call("alloc", vec![Expr::int(cap)])),
            stmt(StmtKind::Expr(Expr::call("free", vec![Expr::var("uaf")]))),
            stmt(StmtKind::Expr(Expr::call(
                "log_msg",
                vec![Expr::var("uaf")],
            ))),
        ],
        Cwe::NullDereference => vec![
            stmt(StmtKind::Let {
                name: "nbuf".into(),
                ty: Type::Array(Box::new(Type::Int), 8),
                init: None,
            }),
            stmt(StmtKind::Assign {
                target: LValue::Index {
                    base: "nbuf".into(),
                    index: Expr::int(-1),
                    span: Span::dummy(),
                },
                op: None,
                value: Expr::int(0),
            }),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_module, print_module, Dialect};
    use rand::SeedableRng;

    /// Wrap a recipe in a function and check it parses and round-trips.
    fn harness(cwe: Cwe) -> minilang::Module {
        let mut rng = StdRng::seed_from_u64(1);
        let stmts = recipe(cwe, &["req"], &["n"], &mut rng);
        let module = minilang::Module {
            path: "t.c".into(),
            dialect: Dialect::C,
            source: String::new(),
            globals: vec![],
            functions: vec![Function {
                name: "carrier".into(),
                params: vec![
                    Param {
                        name: "req".into(),
                        ty: Type::Str,
                        span: Span::dummy(),
                    },
                    Param {
                        name: "n".into(),
                        ty: Type::Int,
                        span: Span::dummy(),
                    },
                ],
                ret: Type::Void,
                body: Block::new(stmts, Span::dummy()),
                annotations: vec![Annotation::Endpoint(ChannelKind::Network)],
                span: Span::dummy(),
            }],
        };
        let printed = print_module(&module);
        parse_module("t.c", &printed, Dialect::C)
            .unwrap_or_else(|e| panic!("recipe for {cwe} does not parse: {e}\n{printed}"))
    }

    #[test]
    fn every_recipe_prints_and_parses() {
        for cwe in Cwe::ALL {
            let m = harness(cwe);
            assert_eq!(m.functions.len(), 1);
            assert!(
                !m.functions[0].body.stmts.is_empty(),
                "{cwe} emitted no code"
            );
        }
    }

    #[test]
    fn stack_overflow_recipe_triggers_bufcheck() {
        let m = harness(Cwe::StackBufferOverflow);
        let program = minilang::Program {
            name: "t".into(),
            dialect: Dialect::C,
            modules: vec![m],
        };
        let report =
            bugfind::MetaTool::new().run(&static_analysis::AnalysisContext::build(&program));
        assert!(report.count_cwe(121) >= 1, "{:?}", report.by_rule);
    }

    #[test]
    fn format_string_recipe_triggers_fmtcheck() {
        let m = harness(Cwe::FormatString);
        let program = minilang::Program {
            name: "t".into(),
            dialect: Dialect::C,
            modules: vec![m],
        };
        let report =
            bugfind::MetaTool::new().run(&static_analysis::AnalysisContext::build(&program));
        assert!(report.count_cwe(134) >= 1);
    }

    #[test]
    fn toctou_recipe_triggers_racecheck() {
        let m = harness(Cwe::Toctou);
        let program = minilang::Program {
            name: "t".into(),
            dialect: Dialect::C,
            modules: vec![m],
        };
        let report =
            bugfind::MetaTool::new().run(&static_analysis::AnalysisContext::build(&program));
        assert!(report.count_cwe(367) >= 1);
    }

    #[test]
    fn credential_recipe_triggers_credcheck() {
        let m = harness(Cwe::HardcodedCredentials);
        let program = minilang::Program {
            name: "t".into(),
            dialect: Dialect::C,
            modules: vec![m],
        };
        let report =
            bugfind::MetaTool::new().run(&static_analysis::AnalysisContext::build(&program));
        assert!(report.count_cwe(798) >= 1);
    }

    #[test]
    fn command_injection_recipe_creates_taint_flow() {
        let m = harness(Cwe::CommandInjection);
        let program = minilang::Program {
            name: "t".into(),
            dialect: Dialect::C,
            modules: vec![m],
        };
        let taint = static_analysis::AnalysisContext::build(&program).taint;
        assert_eq!(taint.flows.len(), 1);
        assert!(taint.flows[0].via_parameters);
    }

    #[test]
    fn recipes_without_params_still_work() {
        let mut rng = StdRng::seed_from_u64(2);
        for cwe in [
            Cwe::CommandInjection,
            Cwe::FormatString,
            Cwe::IntegerOverflow,
        ] {
            let stmts = recipe(cwe, &[], &[], &mut rng);
            assert!(!stmts.is_empty());
        }
    }
}
