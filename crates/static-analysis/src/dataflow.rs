//! Classic data-flow analyses [56] over the CFG.
//!
//! §4.1 of the paper: *"data flow analysis can determine numbers of
//! expressions or functions influencing the execution of other parts of the
//! code"*. This module provides:
//!
//! * **reaching definitions** (forward, may) — which assignments can reach
//!   each program point;
//! * **liveness** (backward, may) — which variables are live out of each
//!   node, exposing dead stores;
//! * **def-use chains** — the count of definition→use influence edges, the
//!   "expressions influencing other parts" feature the paper wants.
//!
//! All three run a standard worklist fixpoint over the per-node def/use
//! sets a [`crate::context::FunctionContext`] interns as dense local
//! symbols; sets are bit-vectors for predictable performance on the
//! synthesized corpus.

use crate::bitset::{row_insert, row_remove, BitMatrix};
use crate::cfg::{Cfg, NodeId, NodeKind};
use minilang::ast::{ExprKind, LValue, StmtKind};
use minilang::visit;
use std::ops::Index;

pub use crate::bitset::BitSet;

/// The variable a node defines, if any, borrowed from the AST.
pub fn node_def<'a>(kind: &NodeKind<'a>) -> Option<(&'a str, bool)> {
    match kind {
        NodeKind::Stmt(stmt) => match &stmt.kind {
            // A bare `let x: int;` declares storage without writing it, so it
            // is not a definition — this is what lets the analysis flag
            // reads of uninitialized locals.
            StmtKind::Let { init: None, .. } => None,
            StmtKind::Let { name, .. } => Some((name, true)),
            StmtKind::Assign { target, .. } => match target {
                LValue::Var(name, _) => Some((name, true)),
                LValue::Index { base, .. } => Some((base, false)),
            },
            _ => None,
        },
        _ => None,
    }
}

/// Call `used` on every variable a node reads, in visit order with
/// duplicates preserved, borrowed from the AST.
pub fn node_uses<'a>(kind: &NodeKind<'a>, used: &mut dyn FnMut(&'a str)) {
    let mut add_expr = |e: &'a minilang::ast::Expr| {
        visit::walk_expr(e, &mut |e| {
            if let ExprKind::Var(name) = &e.kind {
                used(name);
            }
        });
    };
    match *kind {
        NodeKind::Stmt(stmt) => {
            for e in visit::stmt_exprs(stmt) {
                add_expr(e);
            }
            // A compound assignment (`x += e`) also reads x; an indexed
            // write (`buf[i] = e`) reads the buffer it partially updates.
            if let StmtKind::Assign { target, op, .. } = &stmt.kind {
                if op.is_some() || matches!(target, LValue::Index { .. }) {
                    used(target.base_name());
                }
            }
        }
        NodeKind::Cond(cond) => add_expr(cond),
        NodeKind::Entry | NodeKind::Exit | NodeKind::Join => {}
    }
}

/// Per-node used locals in one flat table: node `n` reads
/// `locals[starts[n]..starts[n + 1]]`. Indexing by node id yields that
/// slice, so the table reads like a `Vec<Vec<u32>>` without one
/// allocation per node.
#[derive(Debug, Clone)]
pub struct NodeUses {
    starts: Vec<u32>,
    locals: Vec<u32>,
}

impl NodeUses {
    /// An empty table with room for `node_count` nodes. Fill it node by
    /// node: [`NodeUses::push`] each use, then [`NodeUses::end_node`].
    pub fn with_capacity(node_count: usize) -> Self {
        let mut starts = Vec::with_capacity(node_count + 1);
        starts.push(0);
        NodeUses {
            starts,
            locals: Vec::new(),
        }
    }

    /// Append a use to the node being filled.
    pub fn push(&mut self, local: u32) {
        self.locals.push(local);
    }

    /// Close the node being filled; the next push starts the next node.
    pub fn end_node(&mut self) {
        self.starts.push(self.locals.len() as u32);
    }
}

impl Index<NodeId> for NodeUses {
    type Output = [u32];

    fn index(&self, node: NodeId) -> &[u32] {
        &self.locals[self.starts[node] as usize..self.starts[node + 1] as usize]
    }
}

/// Aggregate data-flow statistics used as features.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DataflowStats {
    /// Number of definition sites.
    pub defs: usize,
    /// Number of def→use chain edges (a def reaches a node that uses its
    /// variable).
    pub du_pairs: usize,
    /// Definitions whose value is never used (dead stores).
    pub dead_stores: usize,
    /// Uses with no reaching definition in the function (reads of
    /// parameters/globals are excluded by construction of the def table, so
    /// this counts genuinely uninitialized locals).
    pub possibly_uninitialized_uses: usize,
}

/// One function's def-use statistics plus the dead-store *sites* the
/// `deadstore` bug checker reports. The caller (a
/// [`crate::context::FnStructure`]) has already built the CFG, its reverse
/// postorder and the per-node def/use sets as dense function-local symbol
/// indices, so both fixpoints run without allocating a string. Each
/// fixpoint keeps its per-node sets in one [`BitMatrix`] and computes
/// every node's new set in one reused scratch row. du-pairs are counted
/// per use *occurrence*.
///
/// Sites are `(defining node, local)` for every strong def of a
/// non-parameter, non-global variable that is not live out of its node
/// (the checker's slightly wider predicate — the `dead_stores` statistic
/// counts `let`-declared locals only). Sites are structure-relative (node
/// ids and dense locals, no spans), so they cache safely in a
/// [`crate::context::FnPayload`] and the checker can re-anchor them
/// against any identical-text rebuild of the CFG.
#[allow(clippy::too_many_arguments)]
pub fn dataflow_stats_sym_sites(
    cfg: &Cfg<'_>,
    order: &[NodeId],
    node_defs: &[Option<(u32, bool)>],
    node_uses: &NodeUses,
    universe: usize,
    let_locals: &BitSet,
    params: &BitSet,
    globals: &BitSet,
) -> (DataflowStats, Vec<(NodeId, u32)>) {
    let n = cfg.node_count();
    // Def sites in node order: `def_nodes[d]` is the node of def id `d`,
    // and `defs_at[node]` its def id.
    let mut def_nodes: Vec<NodeId> = Vec::new();
    let mut defs_at: Vec<u32> = vec![u32::MAX; n];
    // The def ids of each variable, ascending, as one flat table:
    // variable `v` owns `var_defs[var_starts[v]..var_starts[v + 1]]`.
    let mut var_starts = vec![0u32; universe + 1];
    for (id, slot) in node_defs.iter().enumerate() {
        if let Some((var, _)) = *slot {
            defs_at[id] = def_nodes.len() as u32;
            def_nodes.push(id);
            var_starts[var as usize + 1] += 1;
        }
    }
    for v in 0..universe {
        var_starts[v + 1] += var_starts[v];
    }
    let mut var_defs = vec![0u32; def_nodes.len()];
    let mut fill = var_starts.clone();
    for (d, &node) in def_nodes.iter().enumerate() {
        let (var, _) = node_defs[node].expect("def node");
        var_defs[fill[var as usize] as usize] = d as u32;
        fill[var as usize] += 1;
    }
    let defs_of = |var: u32| {
        &var_defs[var_starts[var as usize] as usize..var_starts[var as usize + 1] as usize]
    };

    // Reaching definitions: forward may-analysis over def ids.
    let mut reach_in = BitMatrix::new(n, def_nodes.len());
    let mut reach_out = BitMatrix::new(n, def_nodes.len());
    let mut scratch = vec![0u64; reach_out.stride()];
    let mut changed = true;
    while changed {
        changed = false;
        for &id in order {
            reach_out.union_rows_into(&cfg.nodes[id].preds, &mut scratch);
            reach_in.row_mut(id).copy_from_slice(&scratch);
            if defs_at[id] != u32::MAX {
                let def_id = defs_at[id];
                let (var, strong) = node_defs[id].expect("def node");
                if strong {
                    for &other in defs_of(var) {
                        row_remove(&mut scratch, other as usize);
                    }
                }
                row_insert(&mut scratch, def_id as usize);
            }
            changed |= reach_out.store_if_changed(id, &scratch);
        }
    }

    // Liveness: backward may-analysis over the local-symbol universe.
    let mut live_in = BitMatrix::new(n, universe);
    let mut live_out = BitMatrix::new(n, universe);
    let mut scratch = vec![0u64; live_in.stride()];
    changed = true;
    while changed {
        changed = false;
        for &id in order.iter().rev() {
            live_in.union_rows_into(&cfg.nodes[id].succs, &mut scratch);
            live_out.row_mut(id).copy_from_slice(&scratch);
            if let Some((d, true)) = node_defs[id] {
                row_remove(&mut scratch, d as usize);
            }
            for &u in &node_uses[id] {
                row_insert(&mut scratch, u as usize);
            }
            changed |= live_in.store_if_changed(id, &scratch);
        }
    }

    let mut stats = DataflowStats {
        defs: def_nodes.len(),
        ..Default::default()
    };

    // du pairs + uninitialized uses, per use occurrence.
    for id in 0..n {
        for &used in &node_uses[id] {
            let reaching = defs_of(used)
                .iter()
                .filter(|&&d| reach_in.contains(id, d as usize))
                .count();
            stats.du_pairs += reaching;
            let is_tracked_local = let_locals.contains(used as usize)
                && !params.contains(used as usize)
                && !globals.contains(used as usize);
            if reaching == 0 && is_tracked_local {
                stats.possibly_uninitialized_uses += 1;
            }
        }
    }

    // Dead stores: strong def of a `let`-declared local not live out of its
    // node. Sites use the deadstore checker's predicate (any non-param,
    // non-global variable) so its diagnostics can be replayed from cache.
    let mut sites = Vec::new();
    for &node in &def_nodes {
        let Some((var, true)) = node_defs[node] else {
            continue;
        };
        if live_out.contains(node, var as usize) {
            continue;
        }
        if let_locals.contains(var as usize) {
            stats.dead_stores += 1;
        }
        if !params.contains(var as usize) && !globals.contains(var as usize) {
            sites.push((node, var));
        }
    }
    (stats, sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use minilang::{parse_program, Dialect};

    /// The first function's statistics, as the analysis context computes
    /// them.
    fn stats(src: &str) -> DataflowStats {
        let p = parse_program("t", Dialect::C, &[("t.c".into(), src.into())]).unwrap();
        AnalysisContext::build(&p).functions[0].dataflow
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.count(), 3);
        assert!(s.contains(129));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn bitset_union_and_subtract() {
        let mut a = BitSet::new(10);
        a.insert(1);
        let mut b = BitSet::new(10);
        b.insert(2);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.count(), 2);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn straight_line_reaching_defs() {
        let s = stats("fn f() { let x: int = 1; let y: int = x; }");
        assert_eq!(s.defs, 2);
        // The def of x reaches the second let, its only use.
        assert_eq!(s.du_pairs, 1);
        assert_eq!(s.possibly_uninitialized_uses, 0);
    }

    #[test]
    fn strong_def_kills_previous() {
        let s = stats("fn f() { let x: int = 1; x = 2; let y: int = x; }");
        assert_eq!(s.defs, 3);
        // Only the second def of x reaches the use; the first is killed
        // (and therefore dead, along with the never-read y).
        assert_eq!(s.du_pairs, 1);
        assert_eq!(s.dead_stores, 2);
    }

    #[test]
    fn weak_def_does_not_kill() {
        let s = stats("fn f(i: int) { let b: int[8]; b[0] = 1; b[i] = 2; let y: int = b[0]; }");
        // Indexed writes read the buffer they update. `b[0] =` sees no def
        // of b (the bare `let b` declaration is not one), `b[i] =` sees
        // `b[0] =`, and the final read sees both weak defs: 0 + 1 + 2.
        assert_eq!(s.du_pairs, 3);
        assert_eq!(s.possibly_uninitialized_uses, 1);
    }

    #[test]
    fn branch_merges_defs() {
        let s = stats(
            "fn f(c: int) { let x: int = 0; if c > 0 { x = 1; } else { x = 2; } let y: int = x; }",
        );
        // Both branch defs reach the join; the initial def is killed on
        // both paths (so it is a dead store, as is y).
        assert_eq!(s.du_pairs, 2);
        assert_eq!(s.dead_stores, 2);
    }

    #[test]
    fn loop_defs_reach_around_back_edge() {
        let s =
            stats("fn f(n: int) { let i: int = 0; while i < n { i = i + 1; } let z: int = i; }");
        // The initial def and the loop-body def both reach each of the
        // three uses of i: the condition, the increment, and `let z`.
        assert_eq!(s.du_pairs, 6);
        assert_eq!(s.possibly_uninitialized_uses, 0);
    }

    #[test]
    fn liveness_detects_dead_store() {
        let s = stats("fn f() { let x: int = 1; x = 2; log_msg(\"k\"); }");
        // Both stores to x are dead (x never read).
        assert_eq!(s.dead_stores, 2);
    }

    #[test]
    fn live_store_is_not_dead() {
        let s = stats("fn f() -> int { let x: int = 1; return x; }");
        assert_eq!(s.dead_stores, 0);
    }

    #[test]
    fn loop_carried_variable_is_live() {
        let s =
            stats("fn f(n: int) -> int { let i: int = 0; while i < n { i = i + 1; } return i; }");
        assert_eq!(s.dead_stores, 0);
        assert!(s.du_pairs >= 4);
    }

    #[test]
    fn uninitialized_use_detected() {
        let s = stats("fn f() -> int { let x: int; return x + 1; }");
        assert_eq!(s.possibly_uninitialized_uses, 1);
    }

    #[test]
    fn params_are_not_uninitialized() {
        let s = stats("fn f(x: int) -> int { return x + 1; }");
        assert_eq!(s.possibly_uninitialized_uses, 0);
    }

    #[test]
    fn compound_assign_reads_its_target() {
        let s = stats("fn f() -> int { let x: int = 1; x += 2; return x; }");
        // x += 2 both uses and defines x; neither store is dead.
        assert_eq!(s.dead_stores, 0);
    }

    #[test]
    fn du_pairs_count_influence_edges() {
        let s = stats("fn f() -> int { let a: int = 1; let b: int = a + a; return b; }");
        // a: def reaches the `b` node which uses it (2 textual uses but the
        // pair is counted per use occurrence) → 2; b: def reaches return → 1.
        assert_eq!(s.du_pairs, 3);
    }
}
