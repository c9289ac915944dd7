//! Call-graph construction and control-flow statistics (Allen [15]).
//!
//! §4.1: *"Control flow analysis can determine numbers of calling and
//! returning targets in a program."* The call graph also drives the
//! interprocedural taint summaries and the attack-surface reachability
//! analysis (which endpoints can reach which dangerous operations).

use minilang::ast::Program;
use minilang::visit;
use minilang::Intrinsic;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Strongly connected components of a graph over nodes `0..succs.len()`
/// (Tarjan, iterative so call chains of any length are safe).
#[derive(Debug, Clone)]
pub struct Sccs {
    /// Components in reverse topological order: every edge leaving a
    /// component points into an earlier one (callees before callers).
    /// Members are listed in ascending node order.
    pub components: Vec<Vec<usize>>,
    /// Node → index of its component.
    pub component_of: Vec<usize>,
    /// Work counter: nodes entered plus edges followed. Not part of the
    /// result.
    pub visits: usize,
}

impl Sccs {
    /// Is component `c` a cycle — more than one member, or a self-loop?
    pub fn is_cyclic(&self, c: usize, succs: &[Vec<usize>]) -> bool {
        match self.components[c].as_slice() {
            [only] => succs[*only].contains(only),
            _ => true,
        }
    }
}

/// Tarjan's strongly connected components of the graph `succs`, each
/// node and edge visited once.
pub fn strongly_connected(succs: &[Vec<usize>]) -> Sccs {
    const UNSEEN: usize = usize::MAX;
    let n = succs.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs = Sccs {
        components: Vec::new(),
        component_of: vec![UNSEEN; n],
        visits: 0,
    };
    let mut next_index = 0;
    // Explicit DFS frames: (node, position of its next out-edge).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut entering = Some(root);
        loop {
            if let Some(v) = entering.take() {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                on_stack[v] = true;
                stack.push(v);
                frames.push((v, 0));
                sccs.visits += 1;
            }
            let Some(frame) = frames.last_mut() else {
                break;
            };
            let v = frame.0;
            if let Some(&w) = succs[v].get(frame.1) {
                frame.1 += 1;
                sccs.visits += 1;
                if index[w] == UNSEEN {
                    entering = Some(w);
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                // `v` roots a component: it and everything above it on the
                // stack.
                let root_at = stack.iter().rposition(|&w| w == v).expect("root on stack");
                let mut members = stack.split_off(root_at);
                for &w in &members {
                    on_stack[w] = false;
                    sccs.component_of[w] = sccs.components.len();
                }
                members.sort_unstable();
                sccs.components.push(members);
            }
        }
    }
    sccs
}

/// The program call graph over user-defined functions, with intrinsic calls
/// recorded separately.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Function names in definition order.
    pub functions: Vec<String>,
    /// Edges: caller → set of callees (user functions only).
    pub calls: BTreeMap<String, BTreeSet<String>>,
    /// Caller → multiset of intrinsic callees.
    pub intrinsic_calls: BTreeMap<String, Vec<Intrinsic>>,
    /// Calls to names that are neither defined functions nor intrinsics
    /// (unresolved externs — counted as an attack-surface unknown).
    pub unresolved: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Build the call graph of a program.
    pub fn build(program: &Program) -> CallGraph {
        let defined: BTreeSet<&str> = program.functions().map(|f| f.name.as_str()).collect();
        let mut cg = CallGraph::default();
        for f in program.functions() {
            cg.functions.push(f.name.clone());
            let calls = cg.calls.entry(f.name.clone()).or_default();
            let intr = cg.intrinsic_calls.entry(f.name.clone()).or_default();
            let unresolved = cg.unresolved.entry(f.name.clone()).or_default();
            for callee in visit::collect_calls(&f.body) {
                if let Some(i) = Intrinsic::from_name(callee) {
                    intr.push(i);
                } else if defined.contains(callee) {
                    calls.insert(callee.to_string());
                } else {
                    unresolved.insert(callee.to_string());
                }
            }
        }
        cg
    }

    /// Direct user-function callees of `name`.
    pub fn callees(&self, name: &str) -> impl Iterator<Item = &str> {
        self.calls
            .get(name)
            .into_iter()
            .flatten()
            .map(|s| s.as_str())
    }

    /// Functions transitively reachable from `roots` (including the roots
    /// themselves when defined).
    pub fn reachable_from<'a>(&self, roots: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<String> = roots
            .into_iter()
            .filter(|r| self.calls.contains_key(*r))
            .map(|r| r.to_string())
            .collect();
        for r in &queue {
            seen.insert(r.clone());
        }
        while let Some(f) = queue.pop_front() {
            for callee in self.callees(&f) {
                if seen.insert(callee.to_string()) {
                    queue.push_back(callee.to_string());
                }
            }
        }
        seen
    }

    /// Summary statistics used as features.
    pub fn stats(&self) -> CallGraphStats {
        let (recursive_functions, scc_visits) = self.count_recursive();
        let call_edges: usize = self.calls.values().map(|s| s.len()).sum();
        let intrinsic_edges: usize = self.intrinsic_calls.values().map(|v| v.len()).sum();
        let unresolved_edges: usize = self.unresolved.values().map(|s| s.len()).sum();
        // In-degree = number of distinct callers per function ("returning
        // targets"); out-degree = calls per function ("calling targets").
        let mut in_degree: BTreeMap<&str, usize> = BTreeMap::new();
        for callees in self.calls.values() {
            for c in callees {
                *in_degree.entry(c.as_str()).or_insert(0) += 1;
            }
        }
        let max_out = self.calls.values().map(|s| s.len()).max().unwrap_or(0);
        let max_in = in_degree.values().copied().max().unwrap_or(0);
        let leaves = self
            .functions
            .iter()
            .filter(|f| self.calls.get(*f).is_none_or(|s| s.is_empty()))
            .count();
        // Roots: functions never called by another user function.
        let roots = self
            .functions
            .iter()
            .filter(|f| !in_degree.contains_key(f.as_str()))
            .count();
        CallGraphStats {
            functions: self.functions.len(),
            call_edges,
            intrinsic_edges,
            unresolved_edges,
            max_out_degree: max_out,
            max_in_degree: max_in,
            leaf_functions: leaves,
            root_functions: roots,
            recursive_functions,
            scc_visits,
        }
    }

    /// Functions that participate in a call cycle (including
    /// self-recursion), read off the strongly connected components of the
    /// name graph (duplicate definitions share one node, and each counts),
    /// plus the component search's visit count.
    fn count_recursive(&self) -> (usize, usize) {
        let node: BTreeMap<&str, usize> = self
            .calls
            .keys()
            .enumerate()
            .map(|(i, name)| (name.as_str(), i))
            .collect();
        let succs: Vec<Vec<usize>> = self
            .calls
            .values()
            .map(|callees| callees.iter().map(|c| node[c.as_str()]).collect())
            .collect();
        let sccs = strongly_connected(&succs);
        let recursive = self
            .functions
            .iter()
            .filter(|f| {
                let n = node[f.as_str()];
                sccs.is_cyclic(sccs.component_of[n], &succs)
            })
            .count();
        (recursive, sccs.visits)
    }
}

/// Feature summary of the call graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallGraphStats {
    pub functions: usize,
    pub call_edges: usize,
    pub intrinsic_edges: usize,
    pub unresolved_edges: usize,
    pub max_out_degree: usize,
    pub max_in_degree: usize,
    pub leaf_functions: usize,
    pub root_functions: usize,
    pub recursive_functions: usize,
    /// Work counter: nodes and edges the recursion search visited. Not a
    /// feature.
    pub scc_visits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_program, Dialect};

    fn graph(src: &str) -> CallGraph {
        let p = parse_program("app", Dialect::C, &[("m.c".into(), src.into())]).unwrap();
        CallGraph::build(&p)
    }

    #[test]
    fn builds_user_and_intrinsic_edges() {
        let cg = graph(
            "fn a() { b(); printf(\"x\"); }
             fn b() { c(); c(); }
             fn c() { }",
        );
        assert_eq!(cg.callees("a").collect::<Vec<_>>(), vec!["b"]);
        assert_eq!(cg.callees("b").collect::<Vec<_>>(), vec!["c"]);
        assert_eq!(cg.intrinsic_calls["a"], vec![Intrinsic::Printf]);
        let s = cg.stats();
        assert_eq!(s.functions, 3);
        assert_eq!(s.call_edges, 2); // duplicate b→c deduplicated
        assert_eq!(s.intrinsic_edges, 1);
        assert_eq!(s.leaf_functions, 1);
        assert_eq!(s.root_functions, 1);
    }

    #[test]
    fn unresolved_calls_are_tracked() {
        let cg = graph("fn a() { mystery(); }");
        assert_eq!(cg.unresolved["a"].len(), 1);
        assert_eq!(cg.stats().unresolved_edges, 1);
    }

    #[test]
    fn reachability_is_transitive() {
        let cg = graph(
            "fn main() { worker(); }
             fn worker() { helper(); }
             fn helper() { }
             fn unused() { helper(); }",
        );
        let r = cg.reachable_from(["main"]);
        assert!(r.contains("main") && r.contains("worker") && r.contains("helper"));
        assert!(!r.contains("unused"));
    }

    #[test]
    fn reachable_from_undefined_root_is_empty() {
        let cg = graph("fn a() { }");
        assert!(cg.reachable_from(["nope"]).is_empty());
    }

    #[test]
    fn self_recursion_detected() {
        let cg = graph("fn f(n: int) -> int { if n > 0 { return f(n - 1); } return 0; }");
        assert_eq!(cg.stats().recursive_functions, 1);
    }

    #[test]
    fn mutual_recursion_detected() {
        let cg = graph(
            "fn even(n: int) -> bool { if n == 0 { return true; } return odd(n - 1); }
             fn odd(n: int) -> bool { if n == 0 { return false; } return even(n - 1); }",
        );
        assert_eq!(cg.stats().recursive_functions, 2);
    }

    #[test]
    fn degrees() {
        let cg = graph(
            "fn hub() { a(); b(); c(); }
             fn a() { shared(); }
             fn b() { shared(); }
             fn c() { shared(); }
             fn shared() { }",
        );
        let s = cg.stats();
        assert_eq!(s.max_out_degree, 3);
        assert_eq!(s.max_in_degree, 3);
    }

    #[test]
    fn components_come_callees_first() {
        // 0 → 1 ⇄ 2 → 3, 3 → 3, 4 isolated.
        let succs = vec![vec![1], vec![2], vec![1, 3], vec![3], vec![]];
        let sccs = strongly_connected(&succs);
        let of = |n: usize| sccs.component_of[n];
        assert_eq!(of(1), of(2));
        assert_eq!(sccs.components[of(1)], vec![1, 2]);
        // Every edge leaving a component points into an earlier one.
        for (from, out) in succs.iter().enumerate() {
            for &to in out {
                assert!(of(to) <= of(from), "{from} -> {to}");
            }
        }
        let cyclic: Vec<bool> = (0..5).map(|n| sccs.is_cyclic(of(n), &succs)).collect();
        assert_eq!(cyclic, vec![false, true, true, true, false]);
        // Five nodes entered, five edges followed.
        assert_eq!(sccs.visits, 10);
    }

    #[test]
    fn long_chains_do_not_recurse() {
        let n = 200_000;
        let succs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let sccs = strongly_connected(&succs);
        assert_eq!(sccs.components.len(), n);
        assert_eq!(sccs.components[0], vec![n - 1]);
    }
}
