//! Interval abstract interpretation (Cousot & Cousot [27]).
//!
//! A classic numeric abstract domain over the integer variables of a
//! function: every variable maps to an interval `[lo, hi]` with ±∞ bounds.
//! The analysis runs a forward fixpoint with widening at loop heads, and
//! refines intervals along branch edges (`x < n` tightens `x` on the true
//! edge). Two consumers:
//!
//! * the buffer-bounds check — a `buf[i]` access is *provably safe* when the
//!   interval of `i` sits inside `[0, capacity)`;
//! * the path explorer's feasibility pruning ([`crate::paths`]).

use crate::cfg::{Cfg, NodeId, NodeKind};
use minilang::ast::{BinaryOp, Expr, ExprKind, Function, LValue, StmtKind, Type, UnaryOp};
use minilang::{visit, Span};
use std::collections::BTreeMap;
use std::fmt;

/// An integer interval with infinite bounds; `lo > hi` is ⊥ (empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound; `i64::MIN` encodes −∞.
    pub lo: i64,
    /// Upper bound; `i64::MAX` encodes +∞.
    pub hi: i64,
}

impl Interval {
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };
    pub const BOTTOM: Interval = Interval { lo: 1, hi: 0 };

    /// The interval `[v, v]`.
    pub fn constant(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The interval `[lo, hi]` (⊥ if inverted).
    pub fn new(lo: i64, hi: i64) -> Interval {
        Interval { lo, hi }
    }

    pub fn is_bottom(&self) -> bool {
        self.lo > self.hi
    }

    pub fn is_top(&self) -> bool {
        self.lo == i64::MIN && self.hi == i64::MAX
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound.
    pub fn join(&self, other: &Interval) -> Interval {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Greatest lower bound.
    pub fn meet(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Standard widening: unstable bounds jump to ±∞.
    pub fn widen(&self, newer: &Interval) -> Interval {
        if self.is_bottom() {
            return *newer;
        }
        if newer.is_bottom() {
            return *self;
        }
        Interval {
            lo: if newer.lo < self.lo {
                i64::MIN
            } else {
                self.lo
            },
            hi: if newer.hi > self.hi {
                i64::MAX
            } else {
                self.hi
            },
        }
    }

    fn sat(v: i128) -> i64 {
        v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// Abstract addition (saturating at the representation edge).
    pub fn add(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        let lo = if self.lo == i64::MIN || other.lo == i64::MIN {
            i64::MIN
        } else {
            Self::sat(self.lo as i128 + other.lo as i128)
        };
        let hi = if self.hi == i64::MAX || other.hi == i64::MAX {
            i64::MAX
        } else {
            Self::sat(self.hi as i128 + other.hi as i128)
        };
        Interval { lo, hi }
    }

    /// Abstract subtraction.
    pub fn sub(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        let lo = if self.lo == i64::MIN || other.hi == i64::MAX {
            i64::MIN
        } else {
            Self::sat(self.lo as i128 - other.hi as i128)
        };
        let hi = if self.hi == i64::MAX || other.lo == i64::MIN {
            i64::MAX
        } else {
            Self::sat(self.hi as i128 - other.lo as i128)
        };
        Interval { lo, hi }
    }

    /// Abstract multiplication.
    pub fn mul(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        if self.is_top() || other.is_top() {
            return Interval::TOP;
        }
        let corners = [
            self.lo as i128 * other.lo as i128,
            self.lo as i128 * other.hi as i128,
            self.hi as i128 * other.lo as i128,
            self.hi as i128 * other.hi as i128,
        ];
        let lo = corners.iter().copied().min().expect("non-empty");
        let hi = corners.iter().copied().max().expect("non-empty");
        Interval {
            lo: Self::sat(lo),
            hi: Self::sat(hi),
        }
    }

    /// Abstract remainder `self % other` for positive divisors: result in
    /// `[0, d_max - 1]` when both operands are non-negative, else Top-ish.
    pub fn rem(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        if other.lo > 0 && self.lo >= 0 && other.hi < i64::MAX {
            Interval {
                lo: 0,
                hi: (other.hi - 1).min(self.hi),
            }
        } else {
            Interval::TOP
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            return write!(f, "⊥");
        }
        match (self.lo, self.hi) {
            (i64::MIN, i64::MAX) => write!(f, "[-∞, +∞]"),
            (i64::MIN, h) => write!(f, "[-∞, {h}]"),
            (l, i64::MAX) => write!(f, "[{l}, +∞]"),
            (l, h) => write!(f, "[{l}, {h}]"),
        }
    }
}

/// Abstract environment: integer variables to intervals. Missing = Top.
pub type Env = BTreeMap<String, Interval>;

/// Evaluate an integer expression to an interval under `env`.
pub fn eval(expr: &Expr, env: &Env) -> Interval {
    match &expr.kind {
        ExprKind::Int(v) => Interval::constant(*v),
        ExprKind::Bool(b) => Interval::constant(*b as i64),
        ExprKind::Var(name) => env.get(name).copied().unwrap_or(Interval::TOP),
        ExprKind::Unary {
            op: UnaryOp::Neg,
            operand,
        } => Interval::constant(0).sub(&eval(operand, env)),
        ExprKind::Unary {
            op: UnaryOp::Not,
            operand,
        } => {
            let v = eval(operand, env);
            if v == Interval::constant(0) {
                Interval::constant(1)
            } else if !v.contains(0) {
                Interval::constant(0)
            } else {
                Interval::new(0, 1)
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let (a, b) = (eval(lhs, env), eval(rhs, env));
            match op {
                BinaryOp::Add => a.add(&b),
                BinaryOp::Sub => a.sub(&b),
                BinaryOp::Mul => a.mul(&b),
                BinaryOp::Rem => a.rem(&b),
                BinaryOp::Div => Interval::TOP,
                BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge => match compare(*op, &a, &b) {
                    Some(true) => Interval::constant(1),
                    Some(false) => Interval::constant(0),
                    None => Interval::new(0, 1),
                },
                BinaryOp::And | BinaryOp::Or => Interval::new(0, 1),
                BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::BitXor => Interval::TOP,
                BinaryOp::Shl | BinaryOp::Shr => Interval::TOP,
            }
        }
        // Calls, strings, floats, indexing: unknown.
        _ => Interval::TOP,
    }
}

/// Decide a comparison when the intervals are conclusive.
fn compare(op: BinaryOp, a: &Interval, b: &Interval) -> Option<bool> {
    if a.is_bottom() || b.is_bottom() {
        return None;
    }
    match op {
        BinaryOp::Lt => {
            if a.hi < b.lo {
                Some(true)
            } else if a.lo >= b.hi {
                Some(false)
            } else {
                None
            }
        }
        BinaryOp::Le => {
            if a.hi <= b.lo {
                Some(true)
            } else if a.lo > b.hi {
                Some(false)
            } else {
                None
            }
        }
        BinaryOp::Gt => compare(BinaryOp::Le, a, b).map(|r| !r),
        BinaryOp::Ge => compare(BinaryOp::Lt, a, b).map(|r| !r),
        BinaryOp::Eq => {
            if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
                Some(true)
            } else if a.meet(b).is_bottom() {
                Some(false)
            } else {
                None
            }
        }
        BinaryOp::Ne => compare(BinaryOp::Eq, a, b).map(|r| !r),
        _ => None,
    }
}

/// Refine `env` assuming `cond` evaluates to `truth`. Only simple
/// `var ⋈ expr` / `expr ⋈ var` shapes (and `&&` on the true side /
/// `||` on the false side) refine; anything else returns `env` unchanged.
/// Returns `None` when the assumption is contradictory (⊥ branch).
pub fn assume(cond: &Expr, truth: bool, env: &Env) -> Option<Env> {
    match &cond.kind {
        ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
            let op = if truth { *op } else { negate(*op) };
            let mut out = env.clone();
            // var ⋈ e
            if let ExprKind::Var(name) = &lhs.kind {
                let bound = eval(rhs, env);
                let cur = env.get(name).copied().unwrap_or(Interval::TOP);
                let refined = refine_left(op, cur, bound);
                if refined.is_bottom() {
                    return None;
                }
                out.insert(name.clone(), refined);
            }
            // e ⋈ var  (mirror the operator)
            if let ExprKind::Var(name) = &rhs.kind {
                let bound = eval(lhs, env);
                let cur = out.get(name).copied().unwrap_or(Interval::TOP);
                let refined = refine_left(mirror(op), cur, bound);
                if refined.is_bottom() {
                    return None;
                }
                out.insert(name.clone(), refined);
            }
            // Contradiction between two constants.
            let (a, b) = (eval(lhs, env), eval(rhs, env));
            if compare(op, &a, &b) == Some(false) {
                return None;
            }
            Some(out)
        }
        ExprKind::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } if truth => {
            let e1 = assume(lhs, true, env)?;
            assume(rhs, true, &e1)
        }
        ExprKind::Binary {
            op: BinaryOp::Or,
            lhs,
            rhs,
        } if !truth => {
            let e1 = assume(lhs, false, env)?;
            assume(rhs, false, &e1)
        }
        ExprKind::Unary {
            op: UnaryOp::Not,
            operand,
        } => assume(operand, !truth, env),
        ExprKind::Bool(b) => {
            if *b == truth {
                Some(env.clone())
            } else {
                None
            }
        }
        _ => Some(env.clone()),
    }
}

fn negate(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Ge,
        BinaryOp::Le => BinaryOp::Gt,
        BinaryOp::Gt => BinaryOp::Le,
        BinaryOp::Ge => BinaryOp::Lt,
        BinaryOp::Eq => BinaryOp::Ne,
        BinaryOp::Ne => BinaryOp::Eq,
        other => other,
    }
}

fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Le => BinaryOp::Ge,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Ge => BinaryOp::Le,
        other => other,
    }
}

/// Tighten `cur` for a variable known to satisfy `var op bound`.
fn refine_left(op: BinaryOp, cur: Interval, bound: Interval) -> Interval {
    match op {
        BinaryOp::Lt => cur.meet(&Interval::new(i64::MIN, bound.hi.saturating_sub(1))),
        BinaryOp::Le => cur.meet(&Interval::new(i64::MIN, bound.hi)),
        BinaryOp::Gt => cur.meet(&Interval::new(bound.lo.saturating_add(1), i64::MAX)),
        BinaryOp::Ge => cur.meet(&Interval::new(bound.lo, i64::MAX)),
        BinaryOp::Eq => cur.meet(&bound),
        BinaryOp::Ne => {
            // Only refine when the excluded value is a boundary constant.
            if bound.lo == bound.hi {
                if cur.lo == bound.lo {
                    Interval::new(cur.lo.saturating_add(1), cur.hi)
                } else if cur.hi == bound.lo {
                    Interval::new(cur.lo, cur.hi.saturating_sub(1))
                } else {
                    cur
                }
            } else {
                cur
            }
        }
        _ => cur,
    }
}

/// Per-node abstract environments (at node entry) for one function.
#[derive(Debug)]
pub struct IntervalAnalysis {
    pub envs: Vec<Env>,
}

/// Number of fixpoint sweeps before widening kicks in.
const WIDEN_AFTER: usize = 3;

/// Run the forward interval fixpoint over a function.
pub fn analyze_function(f: &Function) -> IntervalAnalysis {
    let cfg = Cfg::build(f);
    analyze_cfg(&cfg, f)
}

/// Run over an existing CFG (callers that already built one).
pub fn analyze_cfg(cfg: &Cfg<'_>, f: &Function) -> IntervalAnalysis {
    let order = cfg.reverse_postorder();
    // Widening points: targets of back edges (loop heads). Widening anywhere
    // else would wipe out branch refinements computed after the loop.
    let mut pos = vec![0usize; cfg.node_count()];
    for (i, &n) in order.iter().enumerate() {
        pos[n] = i;
    }
    let mut widen_at = vec![false; cfg.node_count()];
    for (from, node) in cfg.nodes.iter().enumerate() {
        for &to in &node.succs {
            if pos[from] >= pos[to] {
                widen_at[to] = true;
            }
        }
    }
    let mut envs: Vec<Option<Env>> = vec![None; cfg.node_count()];
    // Parameters: ints start Top; nothing else tracked.
    let mut entry_env = Env::new();
    for p in &f.params {
        if p.ty == Type::Int {
            entry_env.insert(p.name.clone(), Interval::TOP);
        }
    }
    envs[cfg.entry] = Some(entry_env);

    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        let mut changed = false;
        for &id in &order {
            if id == cfg.entry {
                continue;
            }
            // Join over incoming edge-refined environments.
            let mut joined: Option<Env> = None;
            for &p in &cfg.nodes[id].preds {
                let Some(pred_env) = envs[p].as_ref() else {
                    continue;
                };
                let contributed = edge_env(cfg, p, id, pred_env);
                let Some(contributed) = contributed else {
                    continue;
                };
                joined = Some(match joined {
                    None => contributed,
                    Some(j) => join_env(&j, &contributed),
                });
            }
            let Some(inset) = joined else { continue };
            let outset = apply_node(&cfg.nodes[id].kind, inset);
            let new = match (&envs[id], sweeps > WIDEN_AFTER && widen_at[id]) {
                (Some(old), true) => widen_env(old, &outset),
                _ => outset,
            };
            if envs[id].as_ref() != Some(&new) {
                envs[id] = Some(new);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Hard safety valve: widening guarantees convergence, but cap sweeps
        // anyway so a domain bug cannot hang the testbed.
        if sweeps > 200 {
            break;
        }
    }
    IntervalAnalysis {
        envs: envs.into_iter().map(|e| e.unwrap_or_default()).collect(),
    }
}

/// Environment flowing along edge `from → to` (branch refinement applied).
///
/// When both the `True` and `False` edges of a condition lead to `to`
/// (an empty branch), the refinements of the parallel edges are joined.
fn edge_env(cfg: &Cfg<'_>, from: NodeId, to: NodeId, env: &Env) -> Option<Env> {
    if let NodeKind::Cond(cond) = &cfg.nodes[from].kind {
        let mut joined: Option<Env> = None;
        for label in cfg.edge_labels(from, to) {
            let refined = match label {
                crate::cfg::EdgeLabel::True => assume(cond, true, env),
                crate::cfg::EdgeLabel::False => assume(cond, false, env),
                // Switch arms and jumps: no refinement.
                _ => Some(env.clone()),
            };
            if let Some(r) = refined {
                joined = Some(match joined {
                    None => r,
                    Some(j) => join_env(&j, &r),
                });
            }
        }
        return joined;
    }
    Some(env.clone())
}

/// Public adapter for [`apply_node`], used by the path explorer.
pub fn apply_node_public(kind: &NodeKind<'_>, env: Env) -> Env {
    apply_node(kind, env)
}

/// Apply a node's state change to the environment *after* the node.
fn apply_node(kind: &NodeKind<'_>, mut env: Env) -> Env {
    if let NodeKind::Stmt(stmt) = kind {
        match &stmt.kind {
            StmtKind::Let { name, ty, init } if *ty == Type::Int => {
                let v = init
                    .as_ref()
                    .map(|e| eval(e, &env))
                    .unwrap_or(Interval::TOP);
                env.insert(name.clone(), v);
            }
            // Assignments track every scalar variable, including
            // `for`-loop counters that were never declared with `let`.
            // Non-integer values evaluate to Top, which is sound.
            StmtKind::Assign {
                target: LValue::Var(name, _),
                op,
                value,
            } => {
                let rhs = eval(value, &env);
                let new = match op {
                    None => rhs,
                    Some(o) => {
                        let cur = env.get(name).copied().unwrap_or(Interval::TOP);
                        match o {
                            BinaryOp::Add => cur.add(&rhs),
                            BinaryOp::Sub => cur.sub(&rhs),
                            BinaryOp::Mul => cur.mul(&rhs),
                            _ => Interval::TOP,
                        }
                    }
                };
                env.insert(name.clone(), new);
            }
            _ => {}
        }
    }
    env
}

fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    // A variable absent from one side is Top there; Top join x = Top, so
    // only variables present in both sides stay bounded.
    for (k, va) in a {
        if let Some(vb) = b.get(k) {
            out.insert(k.clone(), va.join(vb));
        }
    }
    out
}

fn widen_env(old: &Env, new: &Env) -> Env {
    let mut out = Env::new();
    for (k, vn) in new {
        match old.get(k) {
            Some(vo) => out.insert(k.clone(), vo.widen(vn)),
            None => out.insert(k.clone(), *vn),
        };
    }
    out
}

/// Verdict for one buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsVerdict {
    /// Index interval provably inside `[0, capacity)`.
    Safe,
    /// Index interval provably outside the bounds (definite bug).
    OutOfBounds,
    /// Analysis cannot decide.
    Unknown,
}

/// Results of checking every `buf[i]` access in a function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundsReport {
    pub safe: usize,
    pub out_of_bounds: usize,
    pub unknown: usize,
}

impl BoundsReport {
    /// Tally one access whose index evaluates to `idx`. `cap` is the
    /// base's declared capacity; undeclared bases are never provable.
    fn record(&mut self, cap: Option<usize>, idx: Interval) {
        match cap {
            // A ⊥ index is an unreachable access.
            Some(cap) if idx.is_bottom() || (idx.lo >= 0 && idx.hi < cap as i64) => self.safe += 1,
            Some(cap) if idx.hi < 0 || idx.lo >= cap as i64 => self.out_of_bounds += 1,
            _ => self.unknown += 1,
        }
    }
}

/// Declared buffer capacities of `f`'s parameters and `let` locals.
pub fn buffer_capacities(f: &Function) -> BTreeMap<&str, usize> {
    let mut caps: BTreeMap<&str, usize> = BTreeMap::new();
    for p in &f.params {
        if let Some(c) = p.ty.buffer_capacity() {
            caps.insert(p.name.as_str(), c);
        }
    }
    visit::walk_stmts(&f.body, &mut |s| {
        if let StmtKind::Let { name, ty, .. } = &s.kind {
            if let Some(c) = ty.buffer_capacity() {
                caps.insert(name.as_str(), c);
            }
        }
    });
    caps
}

/// Visit every `base[index]` site with a variable base as
/// `(node, base, index, span)`, in the one order all consumers share:
/// nodes by id; within a statement, an indexed assignment target first,
/// then every `Var[index]` pre-order through [`visit::stmt_exprs`];
/// within a condition, the same walk over the condition. The bounds
/// verdicts, the cached per-site intervals and the `bufcheck` replay all
/// enumerate sites here, so their orders cannot drift apart.
pub fn for_each_index_site<'a>(cfg: &Cfg<'a>, f: &mut dyn FnMut(NodeId, &'a str, &'a Expr, Span)) {
    for (id, node) in cfg.nodes.iter().enumerate() {
        let roots: Vec<&'a Expr> = match node.kind {
            NodeKind::Stmt(stmt) => {
                if let StmtKind::Assign {
                    target: LValue::Index { base, index, span },
                    ..
                } = &stmt.kind
                {
                    f(id, base, index, *span);
                }
                visit::stmt_exprs(stmt)
            }
            NodeKind::Cond(c) => vec![c],
            _ => vec![],
        };
        for root in roots {
            visit::walk_expr(root, &mut |e| {
                if let ExprKind::Index { base, index } = &e.kind {
                    if let ExprKind::Var(name) = &base.kind {
                        f(id, name, index, e.span);
                    }
                }
            });
        }
    }
}

/// Check all indexed accesses of locally-declared buffers in `f`.
pub fn check_bounds(f: &Function) -> BoundsReport {
    let cfg = Cfg::build(f);
    let analysis = analyze_cfg(&cfg, f);
    let caps = buffer_capacities(f);
    let mut report = BoundsReport::default();
    for_each_index_site(&cfg, &mut |id, base, index, _| {
        report.record(caps.get(base).copied(), eval(index, &analysis.envs[id]));
    });
    report
}

// ---------------------------------------------------------------------------
// Symbol-indexed environments — the fused engine's dense lattice.
//
// The legacy fixpoint keys environments by variable-name `String` in a
// `BTreeMap`. The fused path replaces that with a bitset of present
// function-local symbols plus a flat `Vec<Interval>`, with the invariant
// that absent slots always hold `TOP`. Since no interval transfer function
// ever *removes* a variable (joins intersect key sets, widening keeps the
// new env's keys), the derived `PartialEq` on the flat representation is
// exactly `BTreeMap` equality, so the fixpoint converges after the same
// sweeps and every env matches the legacy one bit for bit.
// ---------------------------------------------------------------------------

use crate::bitset::BitSet;
use crate::context::FnSymbols;

/// Dense abstract environment over one function's local symbols.
/// Absent locals read as [`Interval::TOP`]; the `vals` slot of an absent
/// local also *holds* `TOP` so derived equality mirrors map equality.
#[derive(Debug, Clone, PartialEq)]
pub struct SymEnv {
    present: BitSet,
    vals: Vec<Interval>,
}

impl SymEnv {
    /// The empty environment (every local absent ⇒ Top).
    pub fn new(universe: usize) -> SymEnv {
        SymEnv {
            present: BitSet::new(universe),
            vals: vec![Interval::TOP; universe],
        }
    }

    pub fn get(&self, local: u32) -> Interval {
        self.vals[local as usize]
    }

    pub fn contains(&self, local: u32) -> bool {
        self.present.contains(local as usize)
    }

    pub fn insert(&mut self, local: u32, v: Interval) {
        self.present.insert(local as usize);
        self.vals[local as usize] = v;
    }
}

/// Evaluate an integer expression under a symbol-indexed environment.
/// Mirrors [`eval`]; unresolvable names read as Top.
pub fn eval_sym(expr: &Expr, env: &SymEnv, syms: &FnSymbols<'_>) -> Interval {
    match &expr.kind {
        ExprKind::Int(v) => Interval::constant(*v),
        ExprKind::Bool(b) => Interval::constant(*b as i64),
        ExprKind::Var(name) => syms
            .local(name)
            .map(|l| env.get(l))
            .unwrap_or(Interval::TOP),
        ExprKind::Unary {
            op: UnaryOp::Neg,
            operand,
        } => Interval::constant(0).sub(&eval_sym(operand, env, syms)),
        ExprKind::Unary {
            op: UnaryOp::Not,
            operand,
        } => {
            let v = eval_sym(operand, env, syms);
            if v == Interval::constant(0) {
                Interval::constant(1)
            } else if !v.contains(0) {
                Interval::constant(0)
            } else {
                Interval::new(0, 1)
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let (a, b) = (eval_sym(lhs, env, syms), eval_sym(rhs, env, syms));
            match op {
                BinaryOp::Add => a.add(&b),
                BinaryOp::Sub => a.sub(&b),
                BinaryOp::Mul => a.mul(&b),
                BinaryOp::Rem => a.rem(&b),
                BinaryOp::Div => Interval::TOP,
                BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge => match compare(*op, &a, &b) {
                    Some(true) => Interval::constant(1),
                    Some(false) => Interval::constant(0),
                    None => Interval::new(0, 1),
                },
                BinaryOp::And | BinaryOp::Or => Interval::new(0, 1),
                BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::BitXor => Interval::TOP,
                BinaryOp::Shl | BinaryOp::Shr => Interval::TOP,
            }
        }
        _ => Interval::TOP,
    }
}

/// Branch refinement under a symbol-indexed environment; mirrors
/// [`assume`], including its quirk that the right-hand refinement reads the
/// partially-refined environment while bounds still evaluate under the
/// original.
pub fn assume_sym(cond: &Expr, truth: bool, env: &SymEnv, syms: &FnSymbols<'_>) -> Option<SymEnv> {
    match &cond.kind {
        ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
            let op = if truth { *op } else { negate(*op) };
            let mut out = env.clone();
            if let ExprKind::Var(name) = &lhs.kind {
                let local = syms.local(name).expect("var interned");
                let bound = eval_sym(rhs, env, syms);
                let cur = if env.contains(local) {
                    env.get(local)
                } else {
                    Interval::TOP
                };
                let refined = refine_left(op, cur, bound);
                if refined.is_bottom() {
                    return None;
                }
                out.insert(local, refined);
            }
            if let ExprKind::Var(name) = &rhs.kind {
                let local = syms.local(name).expect("var interned");
                let bound = eval_sym(lhs, env, syms);
                let cur = if out.contains(local) {
                    out.get(local)
                } else {
                    Interval::TOP
                };
                let refined = refine_left(mirror(op), cur, bound);
                if refined.is_bottom() {
                    return None;
                }
                out.insert(local, refined);
            }
            let (a, b) = (eval_sym(lhs, env, syms), eval_sym(rhs, env, syms));
            if compare(op, &a, &b) == Some(false) {
                return None;
            }
            Some(out)
        }
        ExprKind::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } if truth => {
            let e1 = assume_sym(lhs, true, env, syms)?;
            assume_sym(rhs, true, &e1, syms)
        }
        ExprKind::Binary {
            op: BinaryOp::Or,
            lhs,
            rhs,
        } if !truth => {
            let e1 = assume_sym(lhs, false, env, syms)?;
            assume_sym(rhs, false, &e1, syms)
        }
        ExprKind::Unary {
            op: UnaryOp::Not,
            operand,
        } => assume_sym(operand, !truth, env, syms),
        ExprKind::Bool(b) => {
            if *b == truth {
                Some(env.clone())
            } else {
                None
            }
        }
        _ => Some(env.clone()),
    }
}

/// Apply a node's transfer function; mirrors [`apply_node_public`].
pub fn apply_node_sym(kind: &NodeKind<'_>, mut env: SymEnv, syms: &FnSymbols<'_>) -> SymEnv {
    if let NodeKind::Stmt(stmt) = kind {
        match &stmt.kind {
            StmtKind::Let { name, ty, init } if *ty == Type::Int => {
                let v = init
                    .as_ref()
                    .map(|e| eval_sym(e, &env, syms))
                    .unwrap_or(Interval::TOP);
                env.insert(syms.local(name).expect("let interned"), v);
            }
            StmtKind::Assign {
                target: LValue::Var(name, _),
                op,
                value,
            } => {
                let local = syms.local(name).expect("assign interned");
                let rhs = eval_sym(value, &env, syms);
                let new = match op {
                    None => rhs,
                    Some(o) => {
                        let cur = if env.contains(local) {
                            env.get(local)
                        } else {
                            Interval::TOP
                        };
                        match o {
                            BinaryOp::Add => cur.add(&rhs),
                            BinaryOp::Sub => cur.sub(&rhs),
                            BinaryOp::Mul => cur.mul(&rhs),
                            _ => Interval::TOP,
                        }
                    }
                };
                env.insert(local, new);
            }
            _ => {}
        }
    }
    env
}

fn join_env_sym(a: &SymEnv, b: &SymEnv) -> SymEnv {
    let mut out = SymEnv::new(a.vals.len());
    let mut present = a.present.clone();
    present.intersect_with(&b.present);
    for i in present.iter_ones() {
        out.vals[i] = a.vals[i].join(&b.vals[i]);
    }
    out.present = present;
    out
}

fn widen_env_sym(old: &SymEnv, new: &SymEnv) -> SymEnv {
    let mut out = SymEnv::new(new.vals.len());
    for i in new.present.iter_ones() {
        let v = if old.present.contains(i) {
            old.vals[i].widen(&new.vals[i])
        } else {
            new.vals[i]
        };
        out.insert(i as u32, v);
    }
    out
}

fn edge_env_sym(
    cfg: &Cfg<'_>,
    from: NodeId,
    to: NodeId,
    env: &SymEnv,
    syms: &FnSymbols<'_>,
) -> Option<SymEnv> {
    if let NodeKind::Cond(cond) = &cfg.nodes[from].kind {
        let mut joined: Option<SymEnv> = None;
        for label in cfg.edge_labels(from, to) {
            let refined = match label {
                crate::cfg::EdgeLabel::True => assume_sym(cond, true, env, syms),
                crate::cfg::EdgeLabel::False => assume_sym(cond, false, env, syms),
                _ => Some(env.clone()),
            };
            if let Some(r) = refined {
                joined = Some(match joined {
                    None => r,
                    Some(j) => join_env_sym(&j, &r),
                });
            }
        }
        return joined;
    }
    Some(env.clone())
}

/// Per-node symbol-indexed environments (at node entry) for one function.
/// Transient: context construction reduces them to per-site index
/// intervals ([`check_bounds_sym`]) and drops them.
#[derive(Debug)]
pub struct SymIntervalAnalysis {
    pub envs: Vec<SymEnv>,
}

/// The fused engine's interval fixpoint: same sweeps, same widening points,
/// same convergence test as [`analyze_cfg`], over dense environments.
pub fn analyze_cfg_sym(
    cfg: &Cfg<'_>,
    f: &Function,
    syms: &FnSymbols<'_>,
    order: &[NodeId],
) -> SymIntervalAnalysis {
    let universe = syms.len();
    let mut pos = vec![0usize; cfg.node_count()];
    for (i, &n) in order.iter().enumerate() {
        pos[n] = i;
    }
    let mut widen_at = vec![false; cfg.node_count()];
    for (from, node) in cfg.nodes.iter().enumerate() {
        for &to in &node.succs {
            if pos[from] >= pos[to] {
                widen_at[to] = true;
            }
        }
    }
    let mut envs: Vec<Option<SymEnv>> = vec![None; cfg.node_count()];
    let mut entry_env = SymEnv::new(universe);
    for p in &f.params {
        if p.ty == Type::Int {
            entry_env.insert(syms.local(&p.name).expect("param interned"), Interval::TOP);
        }
    }
    envs[cfg.entry] = Some(entry_env);

    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        let mut changed = false;
        for &id in order {
            if id == cfg.entry {
                continue;
            }
            let mut joined: Option<SymEnv> = None;
            for &p in &cfg.nodes[id].preds {
                let Some(pred_env) = envs[p].as_ref() else {
                    continue;
                };
                let Some(contributed) = edge_env_sym(cfg, p, id, pred_env, syms) else {
                    continue;
                };
                joined = Some(match joined {
                    None => contributed,
                    Some(j) => join_env_sym(&j, &contributed),
                });
            }
            let Some(inset) = joined else { continue };
            let outset = apply_node_sym(&cfg.nodes[id].kind, inset, syms);
            let new = match (&envs[id], sweeps > WIDEN_AFTER && widen_at[id]) {
                (Some(old), true) => widen_env_sym(old, &outset),
                _ => outset,
            };
            if envs[id].as_ref() != Some(&new) {
                envs[id] = Some(new);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if sweeps > 200 {
            break;
        }
    }
    SymIntervalAnalysis {
        envs: envs
            .into_iter()
            .map(|e| e.unwrap_or_else(|| SymEnv::new(universe)))
            .collect(),
    }
}

/// Bounds check over precomputed symbol-indexed environments, plus the
/// index interval of every site in [`for_each_index_site`] order — all
/// `bufcheck` needs once the per-node environments are dropped. Verdicts
/// are identical to [`check_bounds`].
pub fn check_bounds_sym(
    cfg: &Cfg<'_>,
    f: &Function,
    syms: &FnSymbols<'_>,
    analysis: &SymIntervalAnalysis,
) -> (BoundsReport, Vec<Interval>) {
    let caps = buffer_capacities(f);
    let mut report = BoundsReport::default();
    let mut sites = Vec::new();
    for_each_index_site(cfg, &mut |id, base, index, _| {
        let idx = eval_sym(index, &analysis.envs[id], syms);
        report.record(caps.get(base).copied(), idx);
        sites.push(idx);
    });
    (report, sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_module, Dialect};

    #[test]
    fn interval_lattice_ops() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 20);
        assert_eq!(a.join(&b), Interval::new(0, 20));
        assert_eq!(a.meet(&b), Interval::new(5, 10));
        assert!(Interval::new(3, 2).is_bottom());
        assert!(Interval::TOP.is_top());
        assert_eq!(Interval::BOTTOM.join(&a), a);
    }

    #[test]
    fn interval_arithmetic() {
        let a = Interval::new(1, 3);
        let b = Interval::new(-2, 2);
        assert_eq!(a.add(&b), Interval::new(-1, 5));
        assert_eq!(a.sub(&b), Interval::new(-1, 5));
        assert_eq!(a.mul(&b), Interval::new(-6, 6));
        assert_eq!(
            Interval::new(0, 100).rem(&Interval::constant(8)),
            Interval::new(0, 7)
        );
    }

    #[test]
    fn arithmetic_with_infinities_saturates() {
        let top = Interval::TOP;
        let c = Interval::constant(5);
        assert_eq!(top.add(&c), Interval::TOP);
        assert!(!Interval::new(0, i64::MAX).add(&c).is_bottom());
    }

    #[test]
    fn widen_jumps_to_infinity() {
        let old = Interval::new(0, 10);
        let grown = Interval::new(0, 11);
        assert_eq!(old.widen(&grown), Interval::new(0, i64::MAX));
        let shrunk = Interval::new(2, 9);
        assert_eq!(old.widen(&shrunk), old);
    }

    fn func(src: &str) -> minilang::Module {
        parse_module("t.c", src, Dialect::C).unwrap()
    }

    #[test]
    fn constant_propagation_through_straight_line() {
        let m = func("fn f() { let x: int = 3; let y: int = x + 4; let z: int = y * 2; }");
        let f = &m.functions[0];
        let cfg = Cfg::build(f);
        let a = analyze_cfg(&cfg, f);
        // The exit env is at the Exit node.
        let exit_env = &a.envs[cfg.exit];
        assert_eq!(exit_env.get("z"), Some(&Interval::constant(14)));
    }

    #[test]
    fn branch_refinement() {
        let m = func(
            "fn f(n: int) {
                if n < 10 {
                    if n >= 0 {
                        let inside: int = n;
                    }
                }
            }",
        );
        let f = &m.functions[0];
        let cfg = Cfg::build(f);
        let a = analyze_cfg(&cfg, f);
        // Find the `let inside` node and check n's interval there.
        let node = cfg
            .nodes
            .iter()
            .position(|nd| {
                matches!(nd.kind, NodeKind::Stmt(s)
                    if matches!(&s.kind, StmtKind::Let { name, .. } if name == "inside"))
            })
            .unwrap();
        assert_eq!(a.envs[node].get("n"), Some(&Interval::new(0, 9)));
    }

    #[test]
    fn loop_with_widening_finds_lower_bound() {
        let m = func(
            "fn f(n: int) {
                let i: int = 0;
                while i < n { i = i + 1; }
                let after: int = i;
            }",
        );
        let f = &m.functions[0];
        let cfg = Cfg::build(f);
        let a = analyze_cfg(&cfg, f);
        let node = cfg
            .nodes
            .iter()
            .position(|nd| {
                matches!(nd.kind, NodeKind::Stmt(s)
                    if matches!(&s.kind, StmtKind::Let { name, .. } if name == "after"))
            })
            .unwrap();
        let i = a.envs[node].get("i").copied().unwrap();
        // Widening loses the upper bound but i ≥ 0 must survive.
        assert!(i.lo >= 0, "lower bound lost: {i}");
    }

    #[test]
    fn assume_conjunction_refines_both() {
        let env = Env::new();
        let m = func("fn f(a: int) { if a > 2 && a < 7 { let x: int = a; } }");
        let f = &m.functions[0];
        let cfg = Cfg::build(f);
        let a = analyze_cfg(&cfg, f);
        let node = cfg
            .nodes
            .iter()
            .position(|nd| {
                matches!(nd.kind, NodeKind::Stmt(s) if matches!(&s.kind, StmtKind::Let { .. }))
            })
            .unwrap();
        assert_eq!(a.envs[node].get("a"), Some(&Interval::new(3, 6)));
        drop(env);
    }

    #[test]
    fn contradictory_assumption_is_none() {
        let mut env = Env::new();
        env.insert("x".into(), Interval::new(5, 5));
        let m = func("fn f(x: int) { if x < 3 { } }");
        let StmtKind::If { cond, .. } = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        assert!(assume(cond, true, &env).is_none());
        assert!(assume(cond, false, &env).is_some());
    }

    #[test]
    fn bounds_check_constant_safe_and_unsafe() {
        let m = func(
            "fn f() {
                let buf: int[8];
                buf[0] = 1;
                buf[7] = 2;
                buf[8] = 3;
            }",
        );
        let r = check_bounds(&m.functions[0]);
        assert_eq!(
            r,
            BoundsReport {
                safe: 2,
                out_of_bounds: 1,
                unknown: 0
            }
        );
    }

    #[test]
    fn bounds_check_guarded_loop_is_safe() {
        let m = func(
            "fn f(n: int) {
                let buf: int[16];
                for i = 0; i < 16; i += 1 { buf[i] = i; }
            }",
        );
        let r = check_bounds(&m.functions[0]);
        assert_eq!(r.out_of_bounds, 0);
        assert_eq!(r.safe, 1);
    }

    #[test]
    fn bounds_check_unguarded_parameter_is_unknown() {
        let m = func("fn f(i: int) { let buf: int[8]; buf[i] = 1; }");
        let r = check_bounds(&m.functions[0]);
        assert_eq!(r.unknown, 1);
    }

    #[test]
    fn bounds_check_off_by_one_loop_detected_as_unknown_or_oob() {
        // `i <= 16` overruns a 16-element buffer on the last iteration: the
        // refined interval on the true edge is [0, 16], not inside [0, 15].
        let m = func(
            "fn f() {
                let buf: int[16];
                for i = 0; i <= 16; i += 1 { buf[i] = i; }
            }",
        );
        let r = check_bounds(&m.functions[0]);
        assert_eq!(r.safe, 0);
        assert_eq!(r.out_of_bounds + r.unknown, 1);
    }

    #[test]
    fn sym_analysis_matches_legacy_envs_and_bounds() {
        let sources = [
            "fn f() { let buf: int[8]; buf[0] = 1; buf[7] = 2; buf[8] = 3; }",
            "fn f(n: int) { let buf: int[16]; for i = 0; i < 16; i += 1 { buf[i] = i; } }",
            "fn f(i: int) { let buf: int[8]; buf[i] = 1; }",
            "fn f(a: int) { if a > 2 && a < 7 { let x: int = a; let b: int[4]; b[x - 3] = 0; } }",
            "fn f(n: int) { let i: int = 0; while i < n { i = i + 1; } let after: int = i; }",
        ];
        for src in sources {
            let m = func(src);
            let f = &m.functions[0];
            let cfg = Cfg::build(f);
            let order = cfg.reverse_postorder();
            let mut table = crate::symbols::SymbolTable::new();
            table.intern_function(f);
            let syms = FnSymbols::build(f, &table);

            let legacy = analyze_cfg(&cfg, f);
            let sym = analyze_cfg_sym(&cfg, f, &syms, &order);
            // Every env agrees: same present variables, same intervals.
            for (id, env) in legacy.envs.iter().enumerate() {
                for (name, iv) in env {
                    let local = syms.local(name).unwrap();
                    assert!(sym.envs[id].contains(local), "{src}: {name} missing");
                    assert_eq!(sym.envs[id].get(local), *iv, "{src}: {name} differs");
                }
                let present = sym.envs[id].present.count();
                assert_eq!(present, env.len(), "{src}: node {id} domain differs");
            }
            let (bounds, sites) = check_bounds_sym(&cfg, f, &syms, &sym);
            assert_eq!(bounds, check_bounds(f), "{src}: bounds verdicts differ");
            let mut n_sites = 0;
            for_each_index_site(&cfg, &mut |_, _, _, _| n_sites += 1);
            assert_eq!(sites.len(), n_sites, "{src}: one interval per site");
        }
    }

    #[test]
    fn eval_comparison_decides() {
        let mut env = Env::new();
        env.insert("x".into(), Interval::new(0, 5));
        let m = func("fn f(x: int) -> bool { return x < 10; }");
        let StmtKind::Return(Some(e)) = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(eval(e, &env), Interval::constant(1));
    }
}
