//! Code-smell detection [45, 46, 49, 55, 58, 64, 65, 68].
//!
//! §3 of the paper: *"there is a long line of research using code properties
//! to indicate 'code smell' — symptoms or patterns of bad coding practice,
//! such as lines of comments or numbers of long methods."* Each detector
//! reports instances; their counts become testbed features.

use crate::context::AnalysisContext;
use minilang::ast::{Annotation, Function};
use minilang::{visit, Span};
use std::collections::HashMap;

/// Kinds of smells the detector recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmellKind {
    /// Function body spans more than [`Thresholds::long_method_lines`] lines.
    LongMethod,
    /// Function takes more than [`Thresholds::long_parameter_list`] params.
    LongParameterList,
    /// Statement nesting deeper than [`Thresholds::deep_nesting`].
    DeepNesting,
    /// A function that calls more than [`Thresholds::god_function_calls`]
    /// distinct callees ("god function").
    GodFunction,
    /// Module comment-to-code ratio below
    /// [`Thresholds::min_comment_ratio`] (undocumented code).
    SparseComments,
    /// Two functions share a duplicated statement sequence (token-identical
    /// printed bodies of length ≥ [`Thresholds::duplicate_window`] stmts).
    DuplicateCode,
    /// Function marked `@deprecated` but still called.
    DeprecatedCall,
    /// Function contains unreachable statements.
    DeadCode,
}

/// One smell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Smell {
    pub kind: SmellKind,
    /// Function name (or module path for module-level smells).
    pub site: String,
    pub span: Span,
}

/// Detection thresholds, tuned to the classic literature defaults.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    pub long_method_lines: usize,
    pub long_parameter_list: usize,
    pub deep_nesting: usize,
    pub god_function_calls: usize,
    pub min_comment_ratio: f64,
    pub duplicate_window: usize,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            long_method_lines: 60,
            long_parameter_list: 5,
            deep_nesting: 4,
            god_function_calls: 10,
            min_comment_ratio: 0.05,
            duplicate_window: 4,
        }
    }
}

/// FNV digest of each *top-level* statement's printed form, in order —
/// the per-function raw material of duplicate-code detection. A pure
/// function of the statement list, so the fused engine caches it in the
/// function payload and repeat detections skip the pretty-printer (which
/// dominates this detector's cost) entirely.
///
/// The digested text is the statement wrapped in a one-statement function
/// `fn x() { … }`, exactly as [`minilang::printer::print_function`] would
/// render it; each statement is printed into one reused buffer.
pub fn stmt_print_hashes(function: &Function) -> Vec<u64> {
    const OPEN: &str = "fn x() {\n";
    let mut text = String::from(OPEN);
    function
        .body
        .stmts
        .iter()
        .map(|s| {
            text.truncate(OPEN.len());
            minilang::printer::print_stmt_into(&mut text, s, 1);
            text.push_str("}\n");
            fnv(text.as_bytes())
        })
        .collect()
}

/// Detect smells across a program. Dead-code verdicts and statement
/// digests come precomputed from each function's context, so the detector
/// never rebuilds a CFG or touches the pretty-printer.
pub fn detect(cx: &AnalysisContext<'_>, thresholds: &Thresholds) -> Vec<Smell> {
    let program = cx.program;
    let mut fcxs = cx.functions.iter();
    let mut smells = Vec::new();
    let mut deprecated: Vec<&str> = Vec::new();
    for m in &program.modules {
        for f in &m.functions {
            if f.annotations.contains(&Annotation::Deprecated) {
                deprecated.push(&f.name);
            }
        }
    }

    // Program-order body list (name collisions keep the last definition,
    // matching symbol-table semantics). Order matters: which function
    // "claims" a duplicated window decides who gets flagged, so iterating
    // a randomly-seeded HashMap here made the DuplicateCode *count* vary
    // between two detections of the same program in one process.
    let mut bodies: Vec<(String, &[u64])> = Vec::new();
    let mut body_index: HashMap<String, usize> = HashMap::new();
    for (m, counts) in program.modules.iter().zip(&cx.module_loc) {
        // Module-level: comment ratio.
        if counts.code > 50 && counts.comment_ratio() < thresholds.min_comment_ratio {
            smells.push(Smell {
                kind: SmellKind::SparseComments,
                site: m.path.clone(),
                span: Span::dummy(),
            });
        }
        for f in &m.functions {
            let fcx = fcxs.next().expect("one context per function");
            detect_function(f, thresholds, &deprecated, fcx.has_dead_code, &mut smells);
            // Collect printed-statement digests for duplicate detection.
            let printed = fcx.stmt_hashes.as_slice();
            match body_index.get(&f.name) {
                Some(&i) => bodies[i].1 = printed,
                None => {
                    body_index.insert(f.name.clone(), bodies.len());
                    bodies.push((f.name.clone(), printed));
                }
            }
        }
    }

    // Duplicate code: sliding windows of printed-statement digests shared
    // between two different functions.
    let window = thresholds.duplicate_window;
    let mut windows: HashMap<u64, &String> = HashMap::new();
    let mut flagged: Vec<&String> = Vec::new();
    for (name, stmts) in &bodies {
        if stmts.len() < window {
            continue;
        }
        for w in stmts.windows(window) {
            let mut bytes = Vec::with_capacity(window * 8);
            for h in w {
                bytes.extend_from_slice(&h.to_le_bytes());
            }
            let hash = fnv(&bytes);
            match windows.get(&hash) {
                Some(other) if *other != name => {
                    if !flagged.contains(&name) {
                        flagged.push(name);
                    }
                }
                _ => {
                    windows.insert(hash, name);
                }
            }
        }
    }
    for name in flagged {
        smells.push(Smell {
            kind: SmellKind::DuplicateCode,
            site: name.clone(),
            span: Span::dummy(),
        });
    }
    smells
}

fn detect_function(
    f: &Function,
    thresholds: &Thresholds,
    deprecated: &[&str],
    dead_code: bool,
    smells: &mut Vec<Smell>,
) {
    let mut push = |kind| {
        smells.push(Smell {
            kind,
            site: f.name.clone(),
            span: f.span,
        })
    };

    // Long method: measured in source lines spanned by the body.
    let body_lines = count_stmts(f);
    if body_lines > thresholds.long_method_lines {
        push(SmellKind::LongMethod);
    }
    if f.params.len() > thresholds.long_parameter_list {
        push(SmellKind::LongParameterList);
    }
    if visit::max_nesting_depth(&f.body) > thresholds.deep_nesting {
        push(SmellKind::DeepNesting);
    }
    let mut callees: Vec<&str> = visit::collect_calls(&f.body);
    callees.sort_unstable();
    callees.dedup();
    if callees.len() > thresholds.god_function_calls {
        push(SmellKind::GodFunction);
    }
    if callees.iter().any(|c| deprecated.contains(c)) {
        push(SmellKind::DeprecatedCall);
    }
    if dead_code {
        push(SmellKind::DeadCode);
    }
}

/// Statement count as a proxy for body length (the synthesized corpus emits
/// roughly one statement per line).
fn count_stmts(f: &Function) -> usize {
    let mut n = 0;
    visit::walk_stmts(&f.body, &mut |_| n += 1);
    n
}

/// Tiny FNV-1a for window hashing (no external dependency).
fn fnv(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Count smells per kind — the feature representation.
pub fn counts_by_kind(smells: &[Smell]) -> HashMap<SmellKind, usize> {
    let mut out = HashMap::new();
    for s in smells {
        *out.entry(s.kind).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_program, Dialect};

    fn smells_in(src: &str) -> Vec<Smell> {
        let p = parse_program("app", Dialect::C, &[("m.c".into(), src.into())]).unwrap();
        detect(&AnalysisContext::build(&p), &Thresholds::default())
    }

    fn has(smells: &[Smell], kind: SmellKind) -> bool {
        smells.iter().any(|s| s.kind == kind)
    }

    #[test]
    fn stmt_digests_hash_the_one_statement_function_print() {
        let p = parse_program(
            "app",
            Dialect::C,
            &[(
                "m.c".into(),
                "fn f(n: int) {
                     let b: int[4];
                     for i = 0; i < n; i += 1 { if i > 2 { b[i % 4] = -i; } }
                     switch n { case 1: { log_msg(\"a\"); } default: { } }
                     return;
                 }"
                .into(),
            )],
        )
        .unwrap();
        let f = p.functions().next().unwrap();
        let expected: Vec<u64> = f
            .body
            .stmts
            .iter()
            .map(|s| {
                let one = Function {
                    name: "x".into(),
                    params: vec![],
                    ret: minilang::ast::Type::Void,
                    body: minilang::ast::Block::new(vec![s.clone()], Span::dummy()),
                    annotations: vec![],
                    span: Span::dummy(),
                };
                fnv(minilang::printer::print_function(&one).as_bytes())
            })
            .collect();
        assert_eq!(stmt_print_hashes(f), expected);
    }

    #[test]
    fn long_parameter_list() {
        let s = smells_in("fn f(a: int, b: int, c: int, d: int, e: int, g: int) { }");
        assert!(has(&s, SmellKind::LongParameterList));
    }

    #[test]
    fn five_params_is_fine() {
        let s = smells_in("fn f(a: int, b: int, c: int, d: int, e: int) { }");
        assert!(!has(&s, SmellKind::LongParameterList));
    }

    #[test]
    fn deep_nesting() {
        let s = smells_in(
            "fn f(x: int) {
                if x > 0 { if x > 1 { if x > 2 { if x > 3 { if x > 4 { x = 9; } } } } }
            }",
        );
        assert!(has(&s, SmellKind::DeepNesting));
    }

    #[test]
    fn god_function() {
        let calls: Vec<String> = (0..11).map(|i| format!("callee_{i}();")).collect();
        let defs: Vec<String> = (0..11).map(|i| format!("fn callee_{i}() {{ }}")).collect();
        let src = format!("fn god() {{ {} }}\n{}", calls.join(" "), defs.join("\n"));
        let s = smells_in(&src);
        assert!(has(&s, SmellKind::GodFunction));
    }

    #[test]
    fn long_method_by_statement_count() {
        let stmts: Vec<String> = (0..61).map(|i| format!("let v{i}: int = {i};")).collect();
        let src = format!("fn f() {{ {} }}", stmts.join(" "));
        let s = smells_in(&src);
        assert!(has(&s, SmellKind::LongMethod));
    }

    #[test]
    fn deprecated_call_detected() {
        let s = smells_in(
            "@deprecated fn old_api() { }
             fn user() { old_api(); }",
        );
        assert!(has(&s, SmellKind::DeprecatedCall));
    }

    #[test]
    fn dead_code_detected() {
        let s = smells_in("fn f() -> int { return 1; let x: int = 2; }");
        assert!(has(&s, SmellKind::DeadCode));
    }

    #[test]
    fn duplicate_code_across_functions() {
        let body = "let a: int = 1; let b: int = a + 2; let c: int = b * 3; \
                    let d: int = c - 4; printf(\"%d\", d);";
        let src = format!("fn f() {{ {body} }} fn g() {{ {body} }}");
        let s = smells_in(&src);
        assert!(has(&s, SmellKind::DuplicateCode));
    }

    #[test]
    fn duplicate_flagging_is_deterministic_in_program_order() {
        // `a` and `c` each share one window with `b` but not with each
        // other. In program order `a` claims its window, `b` is flagged
        // against it and claims the tail window, and `c` is flagged
        // against `b` — every detection must agree on exactly that
        // (iterating a randomly-seeded map here used to make the count
        // itself vary between calls).
        let src = "fn a(x: int) { x = 1; x = 2; x = 3; x = 4; }
fn b(x: int) { x = 1; x = 2; x = 3; x = 4; x = 9; x = 5; x = 6; x = 7; x = 8; }
fn c(x: int) { x = 5; x = 6; x = 7; x = 8; }";
        let reference: Vec<String> = smells_in(src)
            .into_iter()
            .filter(|s| s.kind == SmellKind::DuplicateCode)
            .map(|s| s.site)
            .collect();
        assert_eq!(reference, vec!["b".to_string(), "c".to_string()]);
        for _ in 0..32 {
            let again: Vec<String> = smells_in(src)
                .into_iter()
                .filter(|s| s.kind == SmellKind::DuplicateCode)
                .map(|s| s.site)
                .collect();
            assert_eq!(again, reference);
        }
    }

    #[test]
    fn distinct_bodies_are_not_duplicates() {
        let s = smells_in(
            "fn f() { let a: int = 1; let b: int = 2; let c: int = 3; let d: int = 4; }
             fn g() { let a: int = 9; let b: int = 8; let c: int = 7; let d: int = 6; }",
        );
        assert!(!has(&s, SmellKind::DuplicateCode));
    }

    #[test]
    fn sparse_comments_on_large_uncommented_module() {
        let stmts: Vec<String> = (0..60).map(|i| format!("let v{i}: int = {i};")).collect();
        let src = format!("fn f() {{\n{}\n}}", stmts.join("\n"));
        let s = smells_in(&src);
        assert!(has(&s, SmellKind::SparseComments));
    }

    #[test]
    fn commented_module_is_clean() {
        let stmts: Vec<String> = (0..60)
            .map(|i| format!("// step {i}\nlet v{i}: int = {i};"))
            .collect();
        let src = format!("fn f() {{\n{}\n}}", stmts.join("\n"));
        let s = smells_in(&src);
        assert!(!has(&s, SmellKind::SparseComments));
    }

    #[test]
    fn counts_by_kind_tallies() {
        let s = smells_in(
            "fn f() -> int { return 1; let x: int = 2; }
             fn g() -> int { return 1; let x: int = 2; }",
        );
        let counts = counts_by_kind(&s);
        assert_eq!(counts.get(&SmellKind::DeadCode), Some(&2));
    }
}
