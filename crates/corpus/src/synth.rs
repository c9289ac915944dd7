//! Program synthesis.
//!
//! Emits genuine MiniLang applications: layered modules, call graphs,
//! loops, buffers, endpoints and comments. The latent process-quality
//! factors of the [`AppSpec`] surface as *measurable* code properties:
//!
//! * low **review** → sparse comments, longer functions, duplicated blocks;
//! * low **expertise** → unguarded buffer writes, dead stores, deeper
//!   nesting, unvalidated parameters;
//! * low **maturity** → fewer validation branches, more unresolved externs.
//!
//! Every module is built as an AST, printed, decorated with comments, and
//! **re-parsed** — the analyses see exactly the final source text, and a
//! synthesis bug cannot produce unparseable code without failing loudly.

use crate::spec::{AppSpec, Domain};
use crate::vuln::{self, SeededVuln};
use cvedb::Cwe;
use minilang::ast::*;
use minilang::{print_module, Dialect, Span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthesized application.
#[derive(Debug, Clone)]
pub struct SynthOutput {
    /// `(path, source)` pairs, in module order.
    pub files: Vec<(String, String)>,
    /// The parsed program (parsed back from `files`).
    pub program: Program,
    /// Ground truth: the vulnerabilities that were planted.
    pub seeded: Vec<SeededVuln>,
}

/// Plan for one function before body generation.
struct FnPlan {
    name: String,
    module: usize,
    params: Vec<(String, Type)>,
    ret: Type,
    annotations: Vec<Annotation>,
    /// CWE recipe to inject, if this function carries a seed.
    seed: Option<(Cwe, bool)>, // (cwe, exposed)
}

/// Synthesize an application, planting one carrier function per CWE entry
/// in `seeds` (`(cwe, exposed)` — exposed seeds are reachable from a
/// network endpoint).
pub fn synthesize(spec: &AppSpec, seeds: &[(Cwe, bool)]) -> SynthOutput {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let module_count = spec.module_count();
    let q = spec.quality();

    // ---- Plan functions ----------------------------------------------
    let mut plans: Vec<FnPlan> = Vec::new();
    let mut module_fn_count = vec![0usize; module_count];
    for (m, slot) in module_fn_count.iter_mut().enumerate() {
        // Heterogeneous module sizes: vulnerability carriers are later
        // biased toward the big modules, reproducing the empirical
        // clustering of vulnerabilities in large, complex files that the
        // Shin et al. replication (EXP-SHIN) depends on.
        let fn_count = rng.gen_range(3..=18);
        *slot = fn_count;
        for i in 0..fn_count {
            let stem = FN_STEMS[rng.gen_range(0..FN_STEMS.len())];
            let name = format!("{stem}_{m}_{i}");
            let mut params = Vec::new();
            for p in 0..rng.gen_range(0..4usize) {
                let ty = match rng.gen_range(0..4) {
                    0 => Type::Str,
                    1..=2 => Type::Int,
                    _ => Type::Bool,
                };
                params.push((format!("arg{p}"), ty));
            }
            let ret = match rng.gen_range(0..3) {
                0 => Type::Int,
                1 => Type::Void,
                _ => Type::Str,
            };
            plans.push(FnPlan {
                name,
                module: m,
                params,
                ret,
                annotations: vec![],
                seed: None,
            });
        }
    }

    // ---- Endpoints -----------------------------------------------------
    let endpoint_count = spec.endpoint_count().min(plans.len());
    for plan in plans.iter_mut().take(endpoint_count) {
        let channel = match spec.domain {
            Domain::Server => ChannelKind::Network,
            Domain::CliTool => ChannelKind::Local,
            Domain::Desktop => {
                if rng.gen_bool(0.5) {
                    ChannelKind::Local
                } else {
                    ChannelKind::File
                }
            }
            Domain::Library => ChannelKind::Local,
        };
        plan.annotations.push(Annotation::Endpoint(channel));
        // Endpoints always take attacker-facing data.
        if plan.params.is_empty() {
            plan.params.push(("req".into(), Type::Str));
        } else {
            plan.params[0].1 = Type::Str;
        }
        if rng.gen_bool(0.15) {
            plan.annotations.push(Annotation::Priv(PrivLevel::Root));
        }
    }

    // ---- Assign seeds to carrier functions ------------------------------
    // Exposed seeds go into endpoint functions (or get a fresh endpoint
    // annotation); internal seeds go anywhere else.
    let mut used: Vec<usize> = Vec::new();
    let mut hot_modules: Vec<usize> = Vec::new();
    let mut seeded: Vec<SeededVuln> = Vec::new();
    for &(cwe, exposed) in seeds {
        // Find an unused function; prefer endpoints for exposed seeds.
        let candidates: Vec<usize> = (0..plans.len())
            .filter(|i| !used.contains(i))
            .filter(|&i| {
                let is_endpoint = plans[i].annotations.iter().any(|a| a.is_endpoint());
                if exposed {
                    is_endpoint || i >= endpoint_count
                } else {
                    !is_endpoint
                }
            })
            .collect();
        // Tiny apps can run out of functions matching the exposure
        // constraint; fall back to any unused function so every planned
        // seed lands (the CVE count must match the calibration).
        let candidates: Vec<usize> = if candidates.is_empty() {
            (0..plans.len()).filter(|i| !used.contains(i)).collect()
        } else {
            candidates
        };
        if candidates.is_empty() {
            continue; // genuinely out of functions
        }
        // Vulnerabilities cluster: prefer modules that already carry a
        // seed (the Shin et al. "hot file" effect), and otherwise draw a
        // small tournament won by the module with the most functions —
        // vulnerabilities live in the large, busy files.
        let clustered: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| hot_modules.contains(&plans[i].module))
            .collect();
        let pool = if !clustered.is_empty() && rng.gen_bool(0.65) {
            clustered
        } else {
            candidates
        };
        let idx = (0..3)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .max_by_key(|&i| module_fn_count[plans[i].module])
            .expect("three draws");
        hot_modules.push(plans[idx].module);
        used.push(idx);
        let plan = &mut plans[idx];
        if exposed && !plan.annotations.iter().any(|a| a.is_endpoint()) {
            plan.annotations
                .push(Annotation::Endpoint(ChannelKind::Network));
            if plan.params.is_empty() {
                plan.params.push(("req".into(), Type::Str));
            } else {
                plan.params[0].1 = Type::Str;
            }
        }
        plan.seed = Some((cwe, exposed));
        let priv_root = plan
            .annotations
            .contains(&Annotation::Priv(PrivLevel::Root));
        seeded.push(SeededVuln {
            cwe,
            function: plan.name.clone(),
            module: format!("src/mod_{}.{}", plan.module, spec.dialect.extension()),
            exposed,
            priv_root,
        });
    }

    // ---- Generate bodies and print modules -------------------------------
    let mut files: Vec<(String, String)> = Vec::new();
    for m in 0..module_count {
        let path = format!("src/mod_{m}.{}", spec.dialect.extension());
        let mut module = Module {
            path: path.clone(),
            dialect: spec.dialect,
            source: String::new(),
            globals: Vec::new(),
            functions: Vec::new(),
        };
        // A couple of module globals.
        for g in 0..rng.gen_range(0..3usize) {
            module.globals.push(Global {
                name: format!("g_{m}_{g}"),
                ty: if rng.gen_bool(0.7) {
                    Type::Int
                } else {
                    Type::Str
                },
                init: rng.gen_bool(0.6).then(|| Expr::int(rng.gen_range(0..100))),
                span: Span::dummy(),
            });
        }
        // Callees available to this module: functions in later modules
        // (keeps the call graph acyclic and layered).
        let callees: Vec<(String, usize, Type)> = plans
            .iter()
            .filter(|p| p.module > m)
            .map(|p| (p.name.clone(), p.params.len(), p.ret.clone()))
            .collect();

        for plan in plans.iter().filter(|p| p.module == m) {
            let body = BodyGen {
                rng: &mut rng,
                quality: q,
                callees: &callees,
                params: &plan.params,
                ret: plan.ret.clone(),
            }
            .generate(plan.seed);
            module.functions.push(Function {
                name: plan.name.clone(),
                params: plan
                    .params
                    .iter()
                    .map(|(n, t)| Param {
                        name: n.clone(),
                        ty: t.clone(),
                        span: Span::dummy(),
                    })
                    .collect(),
                ret: plan.ret.clone(),
                body,
                annotations: plan.annotations.clone(),
                span: Span::dummy(),
            });
        }

        let printed = print_module(&module);
        let commented = insert_comments(&printed, spec.dialect, q, &mut rng);
        files.push((path, commented));
    }

    // ---- Re-parse: analyses must see the final text --------------------
    let program = minilang::parse_program(&spec.name, spec.dialect, &files)
        .unwrap_or_else(|e| panic!("synthesized program failed to parse: {e}"));

    SynthOutput {
        files,
        program,
        seeded,
    }
}

const FN_STEMS: &[&str] = &[
    "handle", "parse", "process", "dispatch", "update", "compute", "format", "validate", "encode",
    "decode", "lookup", "flush", "init", "scan", "merge", "route",
];

const COMMENTS: &[&str] = &[
    "fast path for the common case",
    "bounds were validated by the caller",
    "see the protocol spec, section 4.2",
    "TODO: revisit once the parser is rewritten",
    "invariant: the table is sorted here",
    "keep in sync with the on-disk layout",
    "legacy behaviour, kept for compatibility",
    "the lock is held by our caller",
];

/// Insert line comments (rate driven by review quality) between statements
/// of a printed module. Inserting whole comment lines between existing
/// lines can never break the grammar.
fn insert_comments(source: &str, dialect: Dialect, quality: f64, rng: &mut StdRng) -> String {
    let rate = 0.02 + 0.28 * quality; // 2%..30% of lines get a comment
    let intro = dialect.line_comment();
    let mut out = String::with_capacity(source.len() * 11 / 10);
    for line in source.lines() {
        if rng.gen_bool(rate) {
            let indent: String = line.chars().take_while(|c| *c == ' ').collect();
            let text = COMMENTS[rng.gen_range(0..COMMENTS.len())];
            out.push_str(&format!("{indent}{intro} {text}\n"));
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Generates one function body.
struct BodyGen<'a> {
    rng: &'a mut StdRng,
    quality: f64,
    callees: &'a [(String, usize, Type)],
    params: &'a [(String, Type)],
    ret: Type,
}

impl BodyGen<'_> {
    fn generate(mut self, seed: Option<(Cwe, bool)>) -> Block {
        let mut stmts: Vec<Stmt> = Vec::new();
        let mut locals: Vec<(String, Type)> = Vec::new();

        // Body length: low review quality produces occasional long methods.
        let base_len = self.rng.gen_range(4..14);
        let long_tail = if self.rng.gen_bool((1.0 - self.quality) * 0.15) {
            55
        } else {
            0
        };
        let len = base_len + long_tail;

        // Leading declarations.
        for i in 0..self.rng.gen_range(1..4usize) {
            let name = format!("v{i}");
            let (ty, init) = match self.rng.gen_range(0..4) {
                0 => (Type::Str, Some(Expr::str_lit("init"))),
                1 => (
                    Type::Array(Box::new(Type::Int), *self.rng.choose(&[8usize, 16, 32, 64])),
                    None,
                ),
                _ => (Type::Int, Some(Expr::int(self.rng.gen_range(0..64)))),
            };
            stmts.push(stmt(StmtKind::Let {
                name: name.clone(),
                ty: ty.clone(),
                init,
            }));
            locals.push((name, ty));
        }

        // Careful developers validate their parameters up front.
        if self.rng.gen_bool(0.2 + 0.6 * self.quality) {
            if let Some((pname, _)) = self.params.iter().find(|(_, t)| *t == Type::Int) {
                stmts.push(stmt(StmtKind::If {
                    cond: Expr::binary(
                        BinaryOp::Or,
                        Expr::binary(BinaryOp::Lt, Expr::var(pname), Expr::int(0)),
                        Expr::binary(BinaryOp::Gt, Expr::var(pname), Expr::int(4096)),
                    ),
                    then_branch: Block::new(vec![self.return_stmt()], Span::dummy()),
                    else_branch: None,
                }));
            } else if let Some((pname, _)) = self.params.iter().find(|(_, t)| *t == Type::Str) {
                stmts.push(stmt(StmtKind::If {
                    cond: Expr::binary(
                        BinaryOp::Gt,
                        Expr::call("strlen", vec![Expr::var(pname)]),
                        Expr::int(1024),
                    ),
                    then_branch: Block::new(vec![self.return_stmt()], Span::dummy()),
                    else_branch: None,
                }));
            }
        }

        // The seeded vulnerability pattern goes early so it is reachable.
        if let Some((cwe, _)) = seed {
            let int_params: Vec<&str> = self
                .params
                .iter()
                .filter(|(_, t)| *t == Type::Int)
                .map(|(n, _)| n.as_str())
                .collect();
            let str_params: Vec<&str> = self
                .params
                .iter()
                .filter(|(_, t)| *t == Type::Str)
                .map(|(n, _)| n.as_str())
                .collect();
            stmts.extend(vuln::recipe(cwe, &str_params, &int_params, self.rng));
        }

        // Filler statements.
        for _ in 0..len {
            let s = self.filler_stmt(&mut locals);
            stmts.push(s);
        }

        stmts.push(self.return_stmt());
        Block::new(stmts, Span::dummy())
    }

    fn return_stmt(&mut self) -> Stmt {
        let value = match self.ret {
            Type::Void => None,
            Type::Int => Some(Expr::int(self.rng.gen_range(0..4))),
            Type::Str => Some(Expr::str_lit("done")),
            Type::Bool => Some(Expr::new(ExprKind::Bool(true), Span::dummy())),
            _ => None,
        };
        stmt(StmtKind::Return(value))
    }

    fn int_operand(&mut self, locals: &[(String, Type)]) -> Expr {
        let int_locals: Vec<&str> = locals
            .iter()
            .filter(|(_, t)| *t == Type::Int)
            .map(|(n, _)| n.as_str())
            .collect();
        let int_params: Vec<&str> = self
            .params
            .iter()
            .filter(|(_, t)| *t == Type::Int)
            .map(|(n, _)| n.as_str())
            .collect();
        match (
            int_locals.is_empty(),
            int_params.is_empty(),
            self.rng.gen_range(0..3),
        ) {
            (false, _, 0) => Expr::var(int_locals[self.rng.gen_range(0..int_locals.len())]),
            (_, false, 1) => Expr::var(int_params[self.rng.gen_range(0..int_params.len())]),
            _ => Expr::int(self.rng.gen_range(0..256)),
        }
    }

    fn filler_stmt(&mut self, locals: &mut Vec<(String, Type)>) -> Stmt {
        let int_locals: Vec<String> = locals
            .iter()
            .filter(|(_, t)| *t == Type::Int)
            .map(|(n, _)| n.clone())
            .collect();
        match self.rng.gen_range(0..10) {
            // Arithmetic assignment (occasionally dead for low expertise).
            0 | 1 => {
                if let Some(name) = self.pick(&int_locals) {
                    let a = self.int_operand(locals);
                    let b = self.int_operand(locals);
                    let op = *self.rng.choose(&[
                        BinaryOp::Add,
                        BinaryOp::Sub,
                        BinaryOp::Mul,
                        BinaryOp::Rem,
                    ]);
                    stmt(StmtKind::Assign {
                        target: LValue::Var(name, Span::dummy()),
                        op: None,
                        value: Expr::binary(op, a, b),
                    })
                } else {
                    stmt(StmtKind::Expr(Expr::call(
                        "log_msg",
                        vec![Expr::str_lit("step")],
                    )))
                }
            }
            // New declaration.
            2 => {
                let name = format!("t{}", locals.len());
                let init = self.int_operand(locals);
                locals.push((name.clone(), Type::Int));
                stmt(StmtKind::Let {
                    name,
                    ty: Type::Int,
                    init: Some(init),
                })
            }
            // Branch.
            3 | 4 => {
                let cond = Expr::binary(
                    *self.rng.choose(&[BinaryOp::Lt, BinaryOp::Gt, BinaryOp::Eq]),
                    self.int_operand(locals),
                    self.int_operand(locals),
                );
                let inner = if let Some(name) = self.pick(&int_locals) {
                    stmt(StmtKind::Assign {
                        target: LValue::Var(name, Span::dummy()),
                        op: Some(BinaryOp::Add),
                        value: Expr::int(1),
                    })
                } else {
                    stmt(StmtKind::Expr(Expr::call(
                        "log_msg",
                        vec![Expr::str_lit("branch")],
                    )))
                };
                let with_else = self.rng.gen_bool(0.4);
                stmt(StmtKind::If {
                    cond,
                    then_branch: Block::new(vec![inner], Span::dummy()),
                    else_branch: with_else.then(|| {
                        Block::new(
                            vec![stmt(StmtKind::Expr(Expr::call(
                                "log_msg",
                                vec![Expr::str_lit("else")],
                            )))],
                            Span::dummy(),
                        )
                    }),
                })
            }
            // Guarded buffer loop (safe) or unguarded write (low expertise).
            5 => {
                let buf = locals
                    .iter()
                    .find(|(_, t)| matches!(t, Type::Array(_, _)))
                    .cloned();
                match buf {
                    Some((name, Type::Array(_, cap))) => {
                        let careful = self.rng.gen_bool(0.3 + 0.65 * self.quality);
                        if careful {
                            // for i = 0; i < cap; i += 1 { buf[i] = i; }
                            stmt(StmtKind::For {
                                init: Some(Box::new(stmt(StmtKind::Assign {
                                    target: LValue::Var("i".into(), Span::dummy()),
                                    op: None,
                                    value: Expr::int(0),
                                }))),
                                cond: Some(Expr::binary(
                                    BinaryOp::Lt,
                                    Expr::var("i"),
                                    Expr::int(cap as i64),
                                )),
                                step: Some(Box::new(stmt(StmtKind::Assign {
                                    target: LValue::Var("i".into(), Span::dummy()),
                                    op: Some(BinaryOp::Add),
                                    value: Expr::int(1),
                                }))),
                                body: Block::new(
                                    vec![stmt(StmtKind::Assign {
                                        target: LValue::Index {
                                            base: name,
                                            index: Expr::var("i"),
                                            span: Span::dummy(),
                                        },
                                        op: None,
                                        value: Expr::var("i"),
                                    })],
                                    Span::dummy(),
                                ),
                            })
                        } else {
                            // Unguarded: buf[n % cap] is actually fine, but
                            // buf[n] is the sloppy variant.
                            let idx = if self.rng.gen_bool(0.5) {
                                Expr::binary(
                                    BinaryOp::Rem,
                                    self.int_operand(locals),
                                    Expr::int(cap as i64),
                                )
                            } else {
                                self.int_operand(locals)
                            };
                            stmt(StmtKind::Assign {
                                target: LValue::Index {
                                    base: name,
                                    index: idx,
                                    span: Span::dummy(),
                                },
                                op: None,
                                value: Expr::int(1),
                            })
                        }
                    }
                    _ => stmt(StmtKind::Expr(Expr::call(
                        "log_msg",
                        vec![Expr::str_lit("tick")],
                    ))),
                }
            }
            // Bounded while loop.
            6 => {
                let name = format!("w{}", locals.len());
                locals.push((name.clone(), Type::Int));
                let bound = self.rng.gen_range(2..20);
                stmt(StmtKind::Block(Block::new(
                    vec![
                        stmt(StmtKind::Let {
                            name: name.clone(),
                            ty: Type::Int,
                            init: Some(Expr::int(0)),
                        }),
                        stmt(StmtKind::While {
                            cond: Expr::binary(BinaryOp::Lt, Expr::var(&name), Expr::int(bound)),
                            body: Block::new(
                                vec![stmt(StmtKind::Assign {
                                    target: LValue::Var(name.clone(), Span::dummy()),
                                    op: Some(BinaryOp::Add),
                                    value: Expr::int(1),
                                })],
                                Span::dummy(),
                            ),
                        }),
                    ],
                    Span::dummy(),
                )))
            }
            // Call a lower-layer function.
            7 | 8 => {
                if self.callees.is_empty() {
                    // Benign intrinsic use: always literal formats, bounded copies.
                    stmt(StmtKind::Expr(Expr::call(
                        "printf",
                        vec![Expr::str_lit("%d"), self.int_operand(locals)],
                    )))
                } else {
                    let (name, arity, _) =
                        self.callees[self.rng.gen_range(0..self.callees.len())].clone();
                    let args: Vec<Expr> = (0..arity)
                        .map(|_| {
                            // Benign calls pass constants or ints — strings
                            // from parameters would create accidental taint
                            // chains the seeder did not intend.
                            if self.rng.gen_bool(0.6) {
                                self.int_operand(&[])
                            } else {
                                Expr::str_lit("cfg")
                            }
                        })
                        .collect();
                    stmt(StmtKind::Expr(Expr::new(
                        ExprKind::Call { callee: name, args },
                        Span::dummy(),
                    )))
                }
            }
            // Benign I/O (logging / metrics).
            _ => stmt(StmtKind::Expr(Expr::call(
                "log_msg",
                vec![Expr::str_lit("ok")],
            ))),
        }
    }

    fn pick(&mut self, names: &[String]) -> Option<String> {
        if names.is_empty() {
            None
        } else {
            Some(names[self.rng.gen_range(0..names.len())].clone())
        }
    }
}

fn stmt(kind: StmtKind) -> Stmt {
    Stmt::new(kind, Span::dummy())
}

/// Tiny helper: choose one element.
trait Choose {
    fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T;
}

impl Choose for StdRng {
    fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_range(0..items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppSpec;

    fn spec(kloc: f64, seed: u64) -> AppSpec {
        AppSpec {
            name: "test-app".into(),
            dialect: Dialect::C,
            domain: Domain::Server,
            target_kloc: kloc,
            maturity: 0.5,
            review: 0.5,
            expertise: 0.5,
            first_release_year: 2004,
            seed,
        }
    }

    #[test]
    fn output_parses_and_has_planned_shape() {
        let out = synthesize(&spec(0.8, 1), &[]);
        assert_eq!(out.files.len(), 3); // 0.8 kloc / 0.25 per module
        assert_eq!(out.program.modules.len(), 3);
        assert!(out.program.function_count() >= 9);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = synthesize(&spec(0.5, 99), &[]);
        let b = synthesize(&spec(0.5, 99), &[]);
        assert_eq!(a.files, b.files);
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize(&spec(0.5, 1), &[]);
        let b = synthesize(&spec(0.5, 2), &[]);
        assert_ne!(a.files, b.files);
    }

    #[test]
    fn seeds_are_planted_and_recorded() {
        let seeds = vec![(Cwe::StackBufferOverflow, true), (Cwe::FormatString, false)];
        let out = synthesize(&spec(1.2, 5), &seeds);
        assert_eq!(out.seeded.len(), 2);
        let carrier = out
            .seeded
            .iter()
            .find(|s| s.cwe == Cwe::StackBufferOverflow)
            .unwrap();
        assert!(carrier.exposed);
        // The carrier function exists and is an endpoint (exposed seed).
        let f = out
            .program
            .find_function(&carrier.function)
            .expect("carrier exists");
        assert!(!f.endpoint_channels().is_empty());
    }

    #[test]
    fn exposed_seed_produces_taint_flow() {
        let seeds = vec![(Cwe::StackBufferOverflow, true)];
        let out = synthesize(&spec(0.8, 11), &seeds);
        let report = static_analysis::AnalysisContext::build(&out.program).taint;
        assert!(
            !report.flows.is_empty(),
            "a seeded exposed CWE-121 must create a real taint flow"
        );
    }

    #[test]
    fn size_tracks_target_roughly() {
        let small = synthesize(&spec(0.4, 3), &[]);
        let big = synthesize(&spec(4.0, 3), &[]);
        let lines =
            |o: &SynthOutput| -> usize { o.files.iter().map(|(_, s)| s.lines().count()).sum() };
        assert!(lines(&big) > 4 * lines(&small));
    }

    #[test]
    fn endpoints_match_domain() {
        let out = synthesize(&spec(1.0, 7), &[]);
        let endpoint_channels: Vec<ChannelKind> = out
            .program
            .functions()
            .flat_map(|f| f.endpoint_channels())
            .collect();
        assert!(!endpoint_channels.is_empty());
        assert!(endpoint_channels.iter().all(|c| *c == ChannelKind::Network));
    }

    #[test]
    fn higher_review_quality_means_more_comments() {
        let mut lo = spec(1.5, 13);
        lo.review = 0.05;
        lo.expertise = 0.05;
        lo.maturity = 0.05;
        let mut hi = lo.clone();
        hi.review = 0.95;
        hi.expertise = 0.95;
        hi.maturity = 0.95;
        let comment_lines = |o: &SynthOutput| -> usize {
            o.files
                .iter()
                .map(|(_, s)| {
                    s.lines()
                        .filter(|l| l.trim_start().starts_with("//"))
                        .count()
                })
                .sum()
        };
        let lo_out = synthesize(&lo, &[]);
        let hi_out = synthesize(&hi, &[]);
        assert!(comment_lines(&hi_out) > comment_lines(&lo_out) * 2);
    }

    #[test]
    fn python_dialect_emits_hash_comments() {
        let mut s = spec(0.5, 17);
        s.dialect = Dialect::Python;
        s.review = 0.9;
        let out = synthesize(&s, &[]);
        let any_hash = out
            .files
            .iter()
            .any(|(_, src)| src.lines().any(|l| l.trim_start().starts_with('#')));
        assert!(any_hash);
        // And it still parses (comment syntax is dialect-consistent).
        assert!(!out.program.modules.is_empty());
    }
}
