//! Bounded symbolic path exploration (KLEE-lite [22]).
//!
//! §4.1: *"using symbolic execution or abstract interpretation, we can
//! calculate the number of different execution paths in a program that can
//! be triggered by specific ranges of inputs."* This module enumerates
//! entry→exit paths through a function's CFG with:
//!
//! * a per-path loop bound (each back edge taken at most `loop_bound` times
//!   on one path), standing in for KLEE's loop unrolling;
//! * feasibility pruning using the interval domain — a path whose branch
//!   assumptions are contradictory (e.g. `x < 0` after `x = 5`) is pruned,
//!   which is the "specific ranges of inputs" part;
//! * a global work cap so pathological functions cannot blow up the testbed.

use crate::cfg::{Cfg, EdgeLabel, NodeId, NodeKind};
use crate::context::FnSymbols;
use crate::interval::{apply_node_sym, assume_sym, Interval, SymEnv};
use crate::symbols::SymbolTable;
use minilang::ast::{Function, Type};

/// Exploration limits.
#[derive(Debug, Clone, Copy)]
pub struct PathConfig {
    /// Maximum times one path may traverse the same back edge.
    pub loop_bound: usize,
    /// Stop after visiting this many path states.
    pub max_states: usize,
    /// Count only feasible paths (interval-pruned) when true.
    pub prune_infeasible: bool,
    /// Initial ranges for integer parameters (the "specific ranges of
    /// inputs"); `None` means unconstrained.
    pub input_range: Option<(i64, i64)>,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            loop_bound: 2,
            max_states: 20_000,
            prune_infeasible: true,
            input_range: None,
        }
    }
}

/// Exploration result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathReport {
    /// Complete entry→exit paths found within bounds.
    pub paths: usize,
    /// Paths pruned as infeasible by the interval check.
    pub infeasible: usize,
    /// Paths abandoned because a back edge exceeded the loop bound.
    pub loop_bounded: usize,
    /// True when `max_states` stopped the search early (counts are lower
    /// bounds in that case).
    pub capped: bool,
    /// States visited.
    pub states: usize,
}

/// Explore the paths of one function.
pub fn explore(f: &Function, config: &PathConfig) -> PathReport {
    let cfg = Cfg::build(f);
    let mut table = SymbolTable::new();
    table.intern_function(f);
    explore_cfg(&cfg, f, &FnSymbols::build(f, &table), config)
}

/// Explore over an existing CFG and symbol map — the fused engine's entry
/// point (both come from the shared [`crate::context::FunctionContext`]).
///
/// The search is depth-first with an explicit stack. Each state carries a
/// symbol-indexed environment; environments of finished states go to a
/// free list and are overwritten in place for later states. Back-edge
/// counts are path-local, but rather than copying them into every state,
/// one table holds the counts of the path to the state being expanded:
/// a popped state's parent is always on that path, so popping rewinds the
/// path to the parent's depth and steps along the state's own edge.
pub fn explore_cfg(
    cfg: &Cfg<'_>,
    f: &Function,
    syms: &FnSymbols<'_>,
    config: &PathConfig,
) -> PathReport {
    let mut env = SymEnv::new(syms.len());
    for p in &f.params {
        if p.ty == Type::Int {
            let iv = match config.input_range {
                Some((lo, hi)) => Interval::new(lo, hi),
                None => Interval::TOP,
            };
            env.insert(syms.local(&p.name).expect("param interned"), iv);
        }
    }
    // Edge `i` of node `n` has id `edge_base[n] + i`; the CFG holds at
    // most one edge per (from, to, label), so ids name edges exactly.
    let mut edge_base = Vec::with_capacity(cfg.node_count());
    let mut edges = 0;
    for node in &cfg.nodes {
        edge_base.push(edges);
        edges += node.succs.len();
    }
    let mut taken = vec![0usize; edges];
    let mut path: Vec<usize> = Vec::new();
    let mut free: Vec<SymEnv> = Vec::new();

    let mut report = PathReport {
        paths: 0,
        infeasible: 0,
        loop_bounded: 0,
        capped: false,
        states: 0,
    };
    let mut stack: Vec<State> = vec![State {
        node: cfg.entry,
        env,
        depth: 0,
        via: None,
    }];
    while let Some(state) = stack.pop() {
        // Make `path` the edges from the entry to this state.
        let parent_depth = state.depth.saturating_sub(1);
        for e in path.drain(parent_depth..) {
            taken[e] -= 1;
        }
        if let Some(e) = state.via {
            path.push(e);
            taken[e] += 1;
        }
        report.states += 1;
        if report.states >= config.max_states {
            report.capped = true;
            break;
        }
        let node = &cfg.nodes[state.node];
        if state.node == cfg.exit || node.succs.is_empty() {
            // The exit, or a dangling node (break with no target etc.)
            // treated as a path end.
            report.paths += 1;
            free.push(state.env);
            continue;
        }
        for (i, &succ) in node.succs.iter().enumerate() {
            let label = node.labels[i];
            // Loop bound on repeated edges.
            let edge = edge_base[state.node] + i;
            if taken[edge] >= config.loop_bound {
                report.loop_bounded += 1;
                continue;
            }
            let mut env = free.pop().unwrap_or_else(|| SymEnv::new(syms.len()));
            env.clone_from(&state.env);
            // Feasibility via branch refinement.
            let feasible = !config.prune_infeasible
                || match (&node.kind, label) {
                    (NodeKind::Cond(cond), EdgeLabel::True) => {
                        assume_sym(cond, true, &mut env, syms)
                    }
                    (NodeKind::Cond(cond), EdgeLabel::False) => {
                        assume_sym(cond, false, &mut env, syms)
                    }
                    _ => true,
                };
            if !feasible {
                free.push(env);
                report.infeasible += 1;
                continue;
            }
            // Apply the *successor's* state change so its out-edges see it.
            apply_node_sym(&cfg.nodes[succ].kind, &mut env, syms);
            stack.push(State {
                node: succ,
                env,
                depth: state.depth + 1,
                via: Some(edge),
            });
        }
        free.push(state.env);
    }
    report
}

struct State {
    node: NodeId,
    env: SymEnv,
    /// Edges on the path from the entry to this state.
    depth: usize,
    /// The edge this state was reached by (`None` for the entry).
    via: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_module, Dialect};

    fn paths(src: &str, config: &PathConfig) -> PathReport {
        let m = parse_module("t.c", src, Dialect::C).unwrap();
        explore(&m.functions[0], config)
    }

    #[test]
    fn straight_line_has_one_path() {
        let r = paths("fn f() { let x: int = 1; x = 2; }", &PathConfig::default());
        assert_eq!(r.paths, 1);
        assert_eq!(r.infeasible, 0);
        assert!(!r.capped);
    }

    #[test]
    fn independent_ifs_multiply() {
        let r = paths(
            "fn f(a: int, b: int) {
                if a > 0 { a = 1; }
                if b > 0 { b = 1; }
            }",
            &PathConfig::default(),
        );
        assert_eq!(r.paths, 4);
    }

    #[test]
    fn infeasible_combination_pruned() {
        // x = 5 then `x < 3` cannot be true.
        let r = paths(
            "fn f() {
                let x: int = 5;
                if x < 3 { log_msg(\"dead\"); }
            }",
            &PathConfig::default(),
        );
        assert_eq!(r.paths, 1);
        assert_eq!(r.infeasible, 1);
    }

    #[test]
    fn correlated_branches_pruned() {
        // The same predicate twice: TT and FF are the only feasible paths.
        let r = paths(
            "fn f(x: int) {
                if x > 0 { log_msg(\"a\"); }
                if x > 0 { log_msg(\"b\"); }
            }",
            &PathConfig::default(),
        );
        assert_eq!(r.paths, 2);
        assert_eq!(r.infeasible, 2);
    }

    #[test]
    fn without_pruning_all_paths_counted() {
        let cfg = PathConfig {
            prune_infeasible: false,
            ..Default::default()
        };
        let r = paths(
            "fn f(x: int) {
                if x > 0 { log_msg(\"a\"); }
                if x > 0 { log_msg(\"b\"); }
            }",
            &cfg,
        );
        assert_eq!(r.paths, 4);
        assert_eq!(r.infeasible, 0);
    }

    #[test]
    fn loop_paths_bounded() {
        let cfg = PathConfig {
            loop_bound: 2,
            ..Default::default()
        };
        let r = paths(
            "fn f(n: int) { let i: int = 0; while i < n { i += 1; } }",
            &cfg,
        );
        // 0, 1 or 2 iterations complete; deeper unrollings are bounded away.
        assert_eq!(r.paths, 3);
        assert!(r.loop_bounded > 0);
    }

    #[test]
    fn input_range_limits_loop_paths() {
        // With n ∈ [0, 1] only 0- and 1-iteration paths are feasible.
        let cfg = PathConfig {
            loop_bound: 5,
            input_range: Some((0, 1)),
            ..Default::default()
        };
        let r = paths(
            "fn f(n: int) { let i: int = 0; while i < n { i += 1; } }",
            &cfg,
        );
        assert_eq!(r.paths, 2);
    }

    #[test]
    fn constant_false_loop_has_single_path() {
        let r = paths(
            "fn f() { let i: int = 10; while i < 3 { i += 1; } }",
            &PathConfig::default(),
        );
        assert_eq!(r.paths, 1);
        assert_eq!(r.infeasible, 1);
    }

    #[test]
    fn switch_arms_fan_out() {
        let r = paths(
            "fn f(x: int) { switch x { case 1: { } case 2: { } default: { } } }",
            &PathConfig::default(),
        );
        assert_eq!(r.paths, 3);
    }

    #[test]
    fn state_cap_reported() {
        let cfg = PathConfig {
            max_states: 10,
            ..Default::default()
        };
        let r = paths(
            "fn f(a: int, b: int, c: int, d: int) {
                if a > 0 { } if b > 0 { } if c > 0 { } if d > 0 { }
            }",
            &cfg,
        );
        assert!(r.capped);
    }

    #[test]
    fn return_in_branch_shortens_paths() {
        let r = paths(
            "fn f(x: int) -> int {
                if x > 0 { return 1; }
                if x < -5 { return 2; }
                return 0;
            }",
            &PathConfig::default(),
        );
        // Paths: x>0; x<=0 ∧ x<-5; x<=0 ∧ x>=-5 → 3.
        assert_eq!(r.paths, 3);
    }
}
