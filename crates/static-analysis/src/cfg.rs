//! Control-flow graph construction.
//!
//! Lowers a MiniLang function body to a statement-level CFG: one node per
//! simple statement, one per branch condition, plus synthetic entry/exit and
//! join nodes. Every edge carries an [`EdgeLabel`] so flow-sensitive
//! analyses know which branch outcome it represents. The CFG is the
//! substrate for McCabe complexity (E − N + 2P), the data-flow analyses
//! [56], taint tracking, the interval domain's branch refinement [27], and
//! the KLEE-style path explorer [22].

use minilang::ast::{Block, Expr, Function, Stmt, StmtKind};

/// Index of a node within its [`Cfg`].
pub type NodeId = usize;

/// Which branch outcome an edge represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeLabel {
    /// Unconditional fallthrough.
    Jump,
    /// The condition evaluated to true.
    True,
    /// The condition evaluated to false.
    False,
    /// Switch dispatch into arm `i` (`usize::MAX` = the no-match edge of a
    /// switch without a `default`).
    Arm(usize),
}

/// What a CFG node represents.
#[derive(Debug, Clone, Copy)]
pub enum NodeKind<'a> {
    /// Unique function entry.
    Entry,
    /// Unique function exit (all returns and the final fallthrough reach it).
    Exit,
    /// A simple statement: `let`, assignment, expression, `return`,
    /// `break`, `continue`.
    Stmt(&'a Stmt),
    /// A branch on the given condition. Out-edges are labelled
    /// [`EdgeLabel::True`]/[`EdgeLabel::False`] (or [`EdgeLabel::Arm`] for
    /// switch scrutinees).
    Cond(&'a Expr),
    /// A synthetic merge point (loop exits, switch joins).
    Join,
}

/// One CFG node with its adjacency. `succs[i]` is reached via `labels[i]`.
#[derive(Debug, Clone)]
pub struct Node<'a> {
    pub kind: NodeKind<'a>,
    pub succs: Vec<NodeId>,
    pub labels: Vec<EdgeLabel>,
    pub preds: Vec<NodeId>,
}

/// A function's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg<'a> {
    pub nodes: Vec<Node<'a>>,
    pub entry: NodeId,
    pub exit: NodeId,
}

impl<'a> Cfg<'a> {
    /// Build the CFG for a function body.
    pub fn build(function: &'a Function) -> Cfg<'a> {
        let mut b = Builder { nodes: Vec::new() };
        let entry = b.node(NodeKind::Entry);
        let exit = b.node(NodeKind::Exit);
        let mut ctx = Ctx {
            exit,
            break_to: None,
            continue_to: None,
        };
        let dangling = b.lower_block(&function.body, vec![(entry, EdgeLabel::Jump)], &mut ctx);
        for (d, label) in dangling {
            b.edge(d, exit, label);
        }
        Cfg {
            nodes: b.nodes,
            entry,
            exit,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges (parallel edges with distinct labels count
    /// separately — they are distinct paths).
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.succs.len()).sum()
    }

    /// The labels of every edge `from → to` (usually one; a condition whose
    /// branches converge immediately yields both `True` and `False`).
    pub fn edge_labels(&self, from: NodeId, to: NodeId) -> impl Iterator<Item = EdgeLabel> + '_ {
        self.nodes[from]
            .succs
            .iter()
            .zip(&self.nodes[from].labels)
            .filter_map(move |(&s, &l)| (s == to).then_some(l))
    }

    /// Node ids in reverse post-order from the entry (a good iteration order
    /// for forward data-flow analyses). Unreachable nodes are appended at the
    /// end in index order so analyses still cover them.
    pub fn reverse_postorder(&self) -> Vec<NodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut post = Vec::with_capacity(self.nodes.len());
        // Iterative DFS to avoid recursion depth limits on long functions.
        let mut stack: Vec<(NodeId, usize)> = vec![(self.entry, 0)];
        visited[self.entry] = true;
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            if *child < self.nodes[node].succs.len() {
                let next = self.nodes[node].succs[*child];
                *child += 1;
                if !visited[next] {
                    visited[next] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        for (i, seen) in visited.iter().enumerate() {
            if !seen {
                post.push(i);
            }
        }
        post
    }

    /// Ids of nodes unreachable from the entry — dead code, reported by the
    /// smell detector and excluded from path enumeration.
    pub fn unreachable_nodes(&self) -> Vec<NodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![self.entry];
        visited[self.entry] = true;
        while let Some(n) = stack.pop() {
            for &s in &self.nodes[n].succs {
                if !visited[s] {
                    visited[s] = true;
                    stack.push(s);
                }
            }
        }
        visited
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| (!v).then_some(i))
            .collect()
    }
}

struct Ctx {
    exit: NodeId,
    break_to: Option<NodeId>,
    continue_to: Option<NodeId>,
}

/// Pending in-edges: `(source node, label the edge will carry)`.
type Preds = Vec<(NodeId, EdgeLabel)>;

struct Builder<'a> {
    nodes: Vec<Node<'a>>,
}

impl<'a> Builder<'a> {
    fn node(&mut self, kind: NodeKind<'a>) -> NodeId {
        self.nodes.push(Node {
            kind,
            succs: Vec::new(),
            labels: Vec::new(),
            preds: Vec::new(),
        });
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: NodeId, to: NodeId, label: EdgeLabel) {
        let exists = self.nodes[from]
            .succs
            .iter()
            .zip(&self.nodes[from].labels)
            .any(|(&s, &l)| s == to && l == label);
        if !exists {
            self.nodes[from].succs.push(to);
            self.nodes[from].labels.push(label);
            self.nodes[to].preds.push(from);
        }
    }

    fn connect(&mut self, preds: &Preds, to: NodeId) {
        for &(p, label) in preds {
            self.edge(p, to, label);
        }
    }

    /// Lower a block; `preds` are the pending in-edges into it. Returns the
    /// pending out-edges falling through out of it.
    fn lower_block(&mut self, block: &'a Block, mut preds: Preds, ctx: &mut Ctx) -> Preds {
        for stmt in &block.stmts {
            preds = self.lower_stmt(stmt, preds, ctx);
        }
        preds
    }

    /// Simple statements hand back the `preds` buffer they were given,
    /// refilled with their own fall-through edge, so a straight-line run
    /// lowers without allocating a pending-edge list per statement.
    fn lower_stmt(&mut self, stmt: &'a Stmt, mut preds: Preds, ctx: &mut Ctx) -> Preds {
        use EdgeLabel::*;
        match &stmt.kind {
            StmtKind::Let { .. } | StmtKind::Assign { .. } | StmtKind::Expr(_) => {
                let n = self.node(NodeKind::Stmt(stmt));
                self.connect(&preds, n);
                preds.clear();
                preds.push((n, Jump));
                preds
            }
            StmtKind::Return(_) => {
                let n = self.node(NodeKind::Stmt(stmt));
                self.connect(&preds, n);
                let exit = ctx.exit;
                self.edge(n, exit, Jump);
                preds.clear();
                preds
            }
            StmtKind::Break => {
                let n = self.node(NodeKind::Stmt(stmt));
                self.connect(&preds, n);
                if let Some(target) = ctx.break_to {
                    self.edge(n, target, Jump);
                }
                preds.clear();
                preds
            }
            StmtKind::Continue => {
                let n = self.node(NodeKind::Stmt(stmt));
                self.connect(&preds, n);
                if let Some(target) = ctx.continue_to {
                    self.edge(n, target, Jump);
                }
                preds.clear();
                preds
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.node(NodeKind::Cond(cond));
                self.connect(&preds, c);
                let mut exits = self.lower_block(then_branch, vec![(c, True)], ctx);
                match else_branch {
                    Some(eb) => exits.extend(self.lower_block(eb, vec![(c, False)], ctx)),
                    None => exits.push((c, False)), // false edge falls through
                }
                exits
            }
            StmtKind::While { cond, body } => {
                let c = self.node(NodeKind::Cond(cond));
                self.connect(&preds, c);
                let after = self.node(NodeKind::Join);
                self.edge(c, after, False); // leaving the loop
                let saved = (ctx.break_to, ctx.continue_to);
                ctx.break_to = Some(after);
                ctx.continue_to = Some(c);
                let body_exits = self.lower_block(body, vec![(c, True)], ctx);
                (ctx.break_to, ctx.continue_to) = saved;
                self.connect(&body_exits, c); // back edge
                vec![(after, Jump)]
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut cur = preds;
                if let Some(i) = init {
                    cur = self.lower_stmt(i, cur, ctx);
                }
                // Header: a condition node when a condition exists, else a
                // plain join (an unconditional loop header).
                let header = match cond {
                    Some(c) => self.node(NodeKind::Cond(c)),
                    None => self.node(NodeKind::Join),
                };
                self.connect(&cur, header);
                let after = self.node(NodeKind::Join);
                if cond.is_some() {
                    self.edge(header, after, False);
                }
                // `continue` re-runs the step, then the header.
                let continue_target = match step {
                    Some(s) => {
                        let step_node = self.node(NodeKind::Stmt(s));
                        self.edge(step_node, header, Jump);
                        step_node
                    }
                    None => header,
                };
                let saved = (ctx.break_to, ctx.continue_to);
                ctx.break_to = Some(after);
                ctx.continue_to = Some(continue_target);
                let body_label = if cond.is_some() { True } else { Jump };
                let body_exits = self.lower_block(body, vec![(header, body_label)], ctx);
                (ctx.break_to, ctx.continue_to) = saved;
                self.connect(&body_exits, continue_target);
                vec![(after, Jump)]
            }
            StmtKind::Switch {
                scrutinee,
                cases,
                default,
            } => {
                let c = self.node(NodeKind::Cond(scrutinee));
                self.connect(&preds, c);
                let after = self.node(NodeKind::Join);
                let saved = ctx.break_to;
                ctx.break_to = Some(after);
                for (i, case) in cases.iter().enumerate() {
                    let exits = self.lower_block(&case.body, vec![(c, Arm(i))], ctx);
                    self.connect(&exits, after);
                }
                match default {
                    Some(d) => {
                        let exits = self.lower_block(d, vec![(c, Arm(cases.len()))], ctx);
                        self.connect(&exits, after);
                    }
                    None => self.edge(c, after, Arm(usize::MAX)), // no-match edge
                }
                ctx.break_to = saved;
                vec![(after, Jump)]
            }
            StmtKind::Block(b) => self.lower_block(b, preds, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_module, Dialect};

    fn cfg_of(src: &str) -> (minilang::Module, usize, usize) {
        let m = parse_module("t.c", src, Dialect::C).unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        let (n, e) = (cfg.node_count(), cfg.edge_count());
        (m, n, e)
    }

    #[test]
    fn straight_line_shape() {
        let m = parse_module("t.c", "fn f() { let x: int = 1; x = 2; }", Dialect::C).unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        // entry, exit, 2 stmts
        assert_eq!(cfg.node_count(), 4);
        // entry→s1→s2→exit
        assert_eq!(cfg.edge_count(), 3);
        assert!(cfg.unreachable_nodes().is_empty());
    }

    #[test]
    fn if_without_else_has_diamond_shape() {
        let m = parse_module(
            "t.c",
            "fn f(x: int) { if x > 0 { x = 1; } x = 2; }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        // entry, exit, cond, then-stmt, tail-stmt = 5 nodes
        assert_eq!(cfg.node_count(), 5);
        // entry→cond, cond→then(T), cond→tail(F), then→tail, tail→exit
        assert_eq!(cfg.edge_count(), 5);
        // McCabe: E - N + 2 = 5 - 5 + 2 = 2 (one decision). ✓
    }

    #[test]
    fn empty_if_branches_create_parallel_labelled_edges() {
        let m = parse_module("t.c", "fn f(x: int) { if x > 0 { } x = 2; }", Dialect::C).unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        let cond = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Cond(_)))
            .unwrap();
        let tail = cfg.nodes[cond].succs[0];
        let labels: Vec<EdgeLabel> = cfg.edge_labels(cond, tail).collect();
        assert_eq!(labels, vec![EdgeLabel::True, EdgeLabel::False]);
        // E − N + 2 still reports complexity 2.
        assert_eq!(cfg.edge_count() as isize - cfg.node_count() as isize + 2, 2);
    }

    #[test]
    fn while_loop_true_edge_enters_body() {
        let m = parse_module(
            "t.c",
            "fn f() { let i: int = 0; while i < 3 { i += 1; } }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        // entry, exit, let, cond, join(after), body = 6 nodes
        assert_eq!(cfg.node_count(), 6);
        assert_eq!(cfg.edge_count(), 6);
        let cond = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Cond(_)))
            .unwrap();
        // The True-labelled successor must be the body statement.
        let (i, _) = cfg.nodes[cond]
            .labels
            .iter()
            .enumerate()
            .find(|(_, &l)| l == EdgeLabel::True)
            .unwrap();
        let body = cfg.nodes[cond].succs[i];
        assert!(matches!(cfg.nodes[body].kind, NodeKind::Stmt(_)));
        // The False-labelled successor is the after-join.
        let (j, _) = cfg.nodes[cond]
            .labels
            .iter()
            .enumerate()
            .find(|(_, &l)| l == EdgeLabel::False)
            .unwrap();
        assert!(matches!(
            cfg.nodes[cfg.nodes[cond].succs[j]].kind,
            NodeKind::Join
        ));
    }

    #[test]
    fn return_connects_to_exit_and_kills_fallthrough() {
        let m = parse_module(
            "t.c",
            "fn f(x: int) -> int { if x > 0 { return 1; } return 0; }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        let exit_preds = cfg.nodes[cfg.exit].preds.len();
        assert_eq!(exit_preds, 2);
        assert!(cfg.unreachable_nodes().is_empty());
    }

    #[test]
    fn dead_code_after_return_is_unreachable() {
        let m = parse_module(
            "t.c",
            "fn f() -> int { return 1; let x: int = 2; }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        assert_eq!(cfg.unreachable_nodes().len(), 1);
    }

    #[test]
    fn break_exits_loop_continue_reenters() {
        let (_m, n, e) = cfg_of(
            "fn f() { while true { if read_int() > 0 { break; } continue; } log_msg(\"x\"); }",
        );
        // Shape sanity: more edges than a straight line, graph is connected.
        assert!(e >= n - 1);
    }

    #[test]
    fn for_loop_step_is_continue_target() {
        let m = parse_module(
            "t.c",
            "fn f() { for i = 0; i < 10; i += 1 { if i == 5 { continue; } } }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        // Find the continue node and check it points at the step node.
        let continue_node = cfg
            .nodes
            .iter()
            .position(
                |nd| matches!(nd.kind, NodeKind::Stmt(s) if matches!(s.kind, StmtKind::Continue)),
            )
            .unwrap();
        let succ = cfg.nodes[continue_node].succs[0];
        assert!(
            matches!(cfg.nodes[succ].kind, NodeKind::Stmt(s) if matches!(s.kind, StmtKind::Assign{..}))
        );
        assert!(cfg.unreachable_nodes().is_empty());
    }

    #[test]
    fn for_without_cond_loops_forever() {
        let m = parse_module(
            "t.c",
            "fn f() { for ; ; { } log_msg(\"after\"); }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        // The after-join is only reachable via break; with no break it is
        // unreachable, as is the trailing statement.
        assert!(cfg.unreachable_nodes().len() >= 2);
    }

    #[test]
    fn switch_fans_out_with_arm_labels() {
        let m = parse_module(
            "t.c",
            "fn f(x: int) { switch x { case 1: { x = 1; } case 2: { x = 2; } default: { x = 3; } } }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        let cond = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Cond(_)))
            .unwrap();
        assert_eq!(cfg.nodes[cond].succs.len(), 3);
        assert_eq!(
            cfg.nodes[cond].labels,
            vec![EdgeLabel::Arm(0), EdgeLabel::Arm(1), EdgeLabel::Arm(2)]
        );
    }

    #[test]
    fn switch_without_default_has_nomatch_edge() {
        let m = parse_module(
            "t.c",
            "fn f(x: int) { switch x { case 1: { x = 1; } } x = 9; }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        let cond = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Cond(_)))
            .unwrap();
        // Arm edge + no-match edge to the join.
        assert_eq!(cfg.nodes[cond].succs.len(), 2);
        assert!(cfg.nodes[cond].labels.contains(&EdgeLabel::Arm(usize::MAX)));
        assert!(cfg.unreachable_nodes().is_empty());
    }

    #[test]
    fn reverse_postorder_starts_at_entry_and_covers_all() {
        let m = parse_module(
            "t.c",
            "fn f(x: int) { if x > 0 { x = 1; } else { x = 2; } while x < 9 { x += 1; } }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], cfg.entry);
        let mut sorted = rpo.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..cfg.node_count()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_function_is_entry_to_exit() {
        let m = parse_module("t.c", "fn f() { }", Dialect::C).unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        assert_eq!(cfg.node_count(), 2);
        assert_eq!(cfg.edge_count(), 1);
    }

    #[test]
    fn preds_mirror_succs() {
        let m = parse_module(
            "t.c",
            "fn f(x: int) { for i = 0; i < x; i += 1 { if i % 2 == 0 { continue; } break; } }",
            Dialect::C,
        )
        .unwrap();
        let cfg = Cfg::build(&m.functions[0]);
        for (id, node) in cfg.nodes.iter().enumerate() {
            assert_eq!(node.succs.len(), node.labels.len());
            for &s in &node.succs {
                assert!(cfg.nodes[s].preds.contains(&id));
            }
            for &p in &node.preds {
                assert!(cfg.nodes[p].succs.contains(&id));
            }
        }
    }
}
