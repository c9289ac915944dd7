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
        let (stmt, cond) = match node.kind {
            NodeKind::Stmt(stmt) => {
                if let StmtKind::Assign {
                    target: LValue::Index { base, index, span },
                    ..
                } = &stmt.kind
                {
                    f(id, base, index, *span);
                }
                (Some(stmt), None)
            }
            NodeKind::Cond(c) => (None, Some(c)),
            _ => (None, None),
        };
        for root in stmt.into_iter().flat_map(visit::stmt_exprs).chain(cond) {
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

// ---------------------------------------------------------------------------
// Symbol-indexed environments — the dense lattice of the per-function
// fixpoint and of the path explorer.
//
// An environment is a bit row of present function-local symbols plus a
// flat `Vec<Interval>`, with the invariant that absent slots always hold
// `TOP`. Since no interval transfer function ever *removes* a variable
// (joins intersect key sets, widening keeps the new env's keys), equality
// of the flat representation is exactly map equality over the present
// variables. Every operation below works in place on a caller-owned
// environment, so a fixpoint sweep allocates nothing.
// ---------------------------------------------------------------------------

use crate::bitset::{row_contains, row_insert, row_remove, BitMatrix};
use crate::context::FnSymbols;

/// Dense abstract environment over one function's local symbols.
/// Absent locals read as [`Interval::TOP`]; the `vals` slot of an absent
/// local also *holds* `TOP` so equality mirrors map equality.
#[derive(Debug, PartialEq)]
pub struct SymEnv {
    present: Vec<u64>,
    vals: Vec<Interval>,
}

impl Clone for SymEnv {
    fn clone(&self) -> Self {
        SymEnv {
            present: self.present.clone(),
            vals: self.vals.clone(),
        }
    }

    /// Reuses both buffers: the fixpoint and the path explorer overwrite
    /// recycled environments instead of allocating fresh ones.
    fn clone_from(&mut self, source: &Self) {
        self.present.clone_from(&source.present);
        self.vals.clone_from(&source.vals);
    }
}

impl SymEnv {
    /// The empty environment (every local absent ⇒ Top).
    pub fn new(universe: usize) -> SymEnv {
        SymEnv {
            present: vec![0; universe.div_ceil(64)],
            vals: vec![Interval::TOP; universe],
        }
    }

    pub fn get(&self, local: u32) -> Interval {
        self.vals[local as usize]
    }

    pub fn contains(&self, local: u32) -> bool {
        row_contains(&self.present, local as usize)
    }

    pub fn insert(&mut self, local: u32, v: Interval) {
        row_insert(&mut self.present, local as usize);
        self.vals[local as usize] = v;
    }

    /// Every local's interval, absent ones as Top — what [`eval_sym`] reads.
    pub fn vals(&self) -> &[Interval] {
        &self.vals
    }

    /// Overwrite with a stored environment's rows.
    fn load(&mut self, present: &[u64], vals: &[Interval]) {
        self.present.copy_from_slice(present);
        self.vals.copy_from_slice(vals);
    }

    /// Does this environment equal the stored rows?
    fn matches(&self, present: &[u64], vals: &[Interval]) -> bool {
        self.present == present && self.vals == vals
    }
}

/// Evaluate an integer expression under a symbol-indexed environment's
/// values (absent locals hold Top, so the values alone decide every
/// read; unresolvable names read as Top too).
pub fn eval_sym(expr: &Expr, vals: &[Interval], syms: &FnSymbols<'_>) -> Interval {
    match &expr.kind {
        ExprKind::Int(v) => Interval::constant(*v),
        ExprKind::Bool(b) => Interval::constant(*b as i64),
        ExprKind::Var(name) => syms
            .local(name)
            .map(|l| vals[l as usize])
            .unwrap_or(Interval::TOP),
        ExprKind::Unary {
            op: UnaryOp::Neg,
            operand,
        } => Interval::constant(0).sub(&eval_sym(operand, vals, syms)),
        ExprKind::Unary {
            op: UnaryOp::Not,
            operand,
        } => {
            let v = eval_sym(operand, vals, syms);
            if v == Interval::constant(0) {
                Interval::constant(1)
            } else if !v.contains(0) {
                Interval::constant(0)
            } else {
                Interval::new(0, 1)
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let (a, b) = (eval_sym(lhs, vals, syms), eval_sym(rhs, vals, syms));
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

/// Refine `env` in place assuming `cond` evaluates to `truth`. Only
/// simple `var ⋈ expr` / `expr ⋈ var` shapes (and `&&` on the true side /
/// `||` on the false side) refine; anything else leaves `env` unchanged.
/// Returns `false` when the assumption is contradictory (⊥ branch), in
/// which case `env` is left partly refined and must be discarded.
///
/// Both bounds of a comparison are evaluated under the incoming
/// environment before either side is refined; the right-hand refinement
/// starts from the left-hand one when both sides name the same variable.
pub fn assume_sym(cond: &Expr, truth: bool, env: &mut SymEnv, syms: &FnSymbols<'_>) -> bool {
    match &cond.kind {
        ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
            let op = if truth { *op } else { negate(*op) };
            let (a, b) = (
                eval_sym(lhs, &env.vals, syms),
                eval_sym(rhs, &env.vals, syms),
            );
            // var ⋈ e
            if let ExprKind::Var(name) = &lhs.kind {
                let local = syms.local(name).expect("var interned");
                let refined = refine_left(op, env.get(local), b);
                if refined.is_bottom() {
                    return false;
                }
                env.insert(local, refined);
            }
            // e ⋈ var  (mirror the operator)
            if let ExprKind::Var(name) = &rhs.kind {
                let local = syms.local(name).expect("var interned");
                let refined = refine_left(mirror(op), env.get(local), a);
                if refined.is_bottom() {
                    return false;
                }
                env.insert(local, refined);
            }
            // Contradiction between two constants.
            compare(op, &a, &b) != Some(false)
        }
        ExprKind::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } if truth => assume_sym(lhs, true, env, syms) && assume_sym(rhs, true, env, syms),
        ExprKind::Binary {
            op: BinaryOp::Or,
            lhs,
            rhs,
        } if !truth => assume_sym(lhs, false, env, syms) && assume_sym(rhs, false, env, syms),
        ExprKind::Unary {
            op: UnaryOp::Not,
            operand,
        } => assume_sym(operand, !truth, env, syms),
        ExprKind::Bool(b) => *b == truth,
        _ => true,
    }
}

/// Apply a node's state change to the environment *after* the node, in
/// place.
pub fn apply_node_sym(kind: &NodeKind<'_>, env: &mut SymEnv, syms: &FnSymbols<'_>) {
    let NodeKind::Stmt(stmt) = kind else {
        return;
    };
    match &stmt.kind {
        StmtKind::Let { name, ty, init } if *ty == Type::Int => {
            let v = init
                .as_ref()
                .map(|e| eval_sym(e, &env.vals, syms))
                .unwrap_or(Interval::TOP);
            env.insert(syms.local(name).expect("let interned"), v);
        }
        // Assignments track every scalar variable, including `for`-loop
        // counters that were never declared with `let`. Non-integer
        // values evaluate to Top, which is sound.
        StmtKind::Assign {
            target: LValue::Var(name, _),
            op,
            value,
        } => {
            let local = syms.local(name).expect("assign interned");
            let rhs = eval_sym(value, &env.vals, syms);
            let new = match op {
                None => rhs,
                Some(o) => {
                    let cur = env.get(local);
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

/// `acc := acc ⊔ other`, in place. A variable absent from one side is Top
/// there, and Top joined with anything is Top, so only variables present
/// in both sides stay bounded.
fn join_env_sym(acc: &mut SymEnv, other: &SymEnv) {
    for i in 0..acc.vals.len() {
        if !row_contains(&acc.present, i) {
            continue;
        }
        if row_contains(&other.present, i) {
            acc.vals[i] = acc.vals[i].join(&other.vals[i]);
        } else {
            row_remove(&mut acc.present, i);
            acc.vals[i] = Interval::TOP;
        }
    }
}

/// `new := old ∇ new`, in place: every variable of `new` widens against
/// its old interval when `old` bounds it too.
fn widen_env_sym(old_present: &[u64], old_vals: &[Interval], new: &mut SymEnv) {
    for (i, (val, old)) in new.vals.iter_mut().zip(old_vals).enumerate() {
        if row_contains(&new.present, i) && row_contains(old_present, i) {
            *val = old.widen(val);
        }
    }
}

/// The environment the edge `from → to` contributes, written into `out`
/// (with `tmp` as scratch when a condition reaches `to` on two labels);
/// `false` when every label's assumption is contradictory.
fn edge_env_sym(
    cfg: &Cfg<'_>,
    (from, to): (NodeId, NodeId),
    envs: &SymIntervalAnalysis,
    syms: &FnSymbols<'_>,
    out: &mut SymEnv,
    tmp: &mut SymEnv,
) -> bool {
    let (present, vals) = (envs.present.row(from), envs.vals(from));
    let NodeKind::Cond(cond) = &cfg.nodes[from].kind else {
        out.load(present, vals);
        return true;
    };
    let mut any = false;
    for label in cfg.edge_labels(from, to) {
        let dst = if any { &mut *tmp } else { &mut *out };
        dst.load(present, vals);
        let feasible = match label {
            crate::cfg::EdgeLabel::True => assume_sym(cond, true, dst, syms),
            crate::cfg::EdgeLabel::False => assume_sym(cond, false, dst, syms),
            _ => true,
        };
        if feasible {
            if any {
                join_env_sym(out, tmp);
            }
            any = true;
        }
    }
    any
}

/// Number of fixpoint sweeps before widening kicks in.
const WIDEN_AFTER: usize = 3;

/// Per-node symbol-indexed environments (at node entry) for one function,
/// stored as flat rows: node `n`'s present locals are row `n` of a
/// [`BitMatrix`] and its values `vals[n * universe ..]`. A node the
/// fixpoint never reached reads as the empty (all-Top) environment.
/// Transient: context construction reduces them to per-site index
/// intervals ([`check_bounds_sym`]) and drops them.
#[derive(Debug)]
pub struct SymIntervalAnalysis {
    universe: usize,
    present: BitMatrix,
    vals: Vec<Interval>,
    reached: Vec<bool>,
}

impl SymIntervalAnalysis {
    fn new(nodes: usize, universe: usize) -> Self {
        SymIntervalAnalysis {
            universe,
            present: BitMatrix::new(nodes, universe),
            vals: vec![Interval::TOP; nodes * universe],
            reached: vec![false; nodes],
        }
    }

    /// Node `node`'s interval per local at entry (absent locals as Top).
    pub fn vals(&self, node: NodeId) -> &[Interval] {
        &self.vals[node * self.universe..(node + 1) * self.universe]
    }

    /// Is `local` bounded (present) at `node`'s entry?
    pub fn contains(&self, node: NodeId, local: u32) -> bool {
        self.present.contains(node, local as usize)
    }

    /// Store `env` as `node`'s environment; true if it changed.
    fn store(&mut self, node: NodeId, env: &SymEnv) -> bool {
        let range = node * self.universe..(node + 1) * self.universe;
        if self.reached[node] && env.matches(self.present.row(node), &self.vals[range.clone()]) {
            return false;
        }
        self.reached[node] = true;
        self.present.row_mut(node).copy_from_slice(&env.present);
        self.vals[range].copy_from_slice(&env.vals);
        true
    }
}

/// The forward interval fixpoint over one function's CFG, visiting nodes
/// in `order` (reverse postorder). Widening applies at loop heads (targets
/// of back edges) after [`WIDEN_AFTER`] sweeps; widening anywhere else
/// would wipe out branch refinements computed after the loop. The join of
/// a node's in-edges is built in one reused environment and compared
/// against the stored row, so a sweep allocates nothing.
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
    let mut envs = SymIntervalAnalysis::new(cfg.node_count(), universe);
    let mut joined = SymEnv::new(universe);
    for p in &f.params {
        if p.ty == Type::Int {
            joined.insert(syms.local(&p.name).expect("param interned"), Interval::TOP);
        }
    }
    envs.store(cfg.entry, &joined);

    let mut edge = SymEnv::new(universe);
    let mut tmp = SymEnv::new(universe);
    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        let mut changed = false;
        for &id in order {
            if id == cfg.entry {
                continue;
            }
            let mut any = false;
            for &p in &cfg.nodes[id].preds {
                if !envs.reached[p] {
                    continue;
                }
                let dst = if any { &mut edge } else { &mut joined };
                if !edge_env_sym(cfg, (p, id), &envs, syms, dst, &mut tmp) {
                    continue;
                }
                if any {
                    join_env_sym(&mut joined, &edge);
                }
                any = true;
            }
            if !any {
                continue;
            }
            apply_node_sym(&cfg.nodes[id].kind, &mut joined, syms);
            if sweeps > WIDEN_AFTER && widen_at[id] && envs.reached[id] {
                widen_env_sym(envs.present.row(id), envs.vals(id), &mut joined);
            }
            changed |= envs.store(id, &joined);
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
    envs
}

/// Check every indexed access of a locally-declared buffer against
/// precomputed symbol-indexed environments, returning the verdict tally
/// plus the index interval of every site in [`for_each_index_site`] order —
/// all `bufcheck` needs once the per-node environments are dropped.
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
        let idx = eval_sym(index, analysis.vals(id), syms);
        report.record(caps.get(base).copied(), idx);
        sites.push(idx);
    });
    (report, sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{AnalysisContext, FunctionContext};
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

    /// Run `check` over the first function's context.
    fn with_fcx<R>(src: &str, check: impl FnOnce(&FunctionContext<'_>) -> R) -> R {
        let p = minilang::parse_program("t", Dialect::C, &[("t.c".into(), src.into())]).unwrap();
        let cx = AnalysisContext::build(&p);
        check(&cx.functions[0])
    }

    fn analyze(fcx: &FunctionContext<'_>) -> SymIntervalAnalysis {
        analyze_cfg_sym(&fcx.cfg, fcx.function, &fcx.symbols, &fcx.rpo)
    }

    fn bounds(src: &str) -> BoundsReport {
        with_fcx(src, |fcx| {
            check_bounds_sym(&fcx.cfg, fcx.function, &fcx.symbols, &analyze(fcx)).0
        })
    }

    /// The interval of `name` at node entry, if the variable is tracked.
    fn var_at(
        fcx: &FunctionContext<'_>,
        a: &SymIntervalAnalysis,
        node: NodeId,
        name: &str,
    ) -> Option<Interval> {
        let local = fcx.symbols.local(name)?;
        a.contains(node, local)
            .then(|| a.vals(node)[local as usize])
    }

    /// The node of the `let <name>` statement.
    fn let_node(fcx: &FunctionContext<'_>, name: &str) -> NodeId {
        fcx.cfg
            .nodes
            .iter()
            .position(|nd| {
                matches!(nd.kind, NodeKind::Stmt(s)
                    if matches!(&s.kind, StmtKind::Let { name: n, .. } if n == name))
            })
            .unwrap()
    }

    #[test]
    fn constant_propagation_through_straight_line() {
        with_fcx(
            "fn f() { let x: int = 3; let y: int = x + 4; let z: int = y * 2; }",
            |fcx| {
                let a = analyze(fcx);
                // The exit env is at the Exit node.
                assert_eq!(
                    var_at(fcx, &a, fcx.cfg.exit, "z"),
                    Some(Interval::constant(14))
                );
            },
        );
    }

    #[test]
    fn branch_refinement() {
        with_fcx(
            "fn f(n: int) {
                if n < 10 {
                    if n >= 0 {
                        let inside: int = n;
                    }
                }
            }",
            |fcx| {
                let a = analyze(fcx);
                let node = let_node(fcx, "inside");
                assert_eq!(var_at(fcx, &a, node, "n"), Some(Interval::new(0, 9)));
            },
        );
    }

    #[test]
    fn loop_with_widening_finds_lower_bound() {
        with_fcx(
            "fn f(n: int) {
                let i: int = 0;
                while i < n { i = i + 1; }
                let after: int = i;
            }",
            |fcx| {
                let a = analyze(fcx);
                let i = var_at(fcx, &a, let_node(fcx, "after"), "i").unwrap();
                // Widening loses the upper bound but i ≥ 0 must survive.
                assert!(i.lo >= 0, "lower bound lost: {i}");
            },
        );
    }

    #[test]
    fn assume_conjunction_refines_both() {
        with_fcx(
            "fn f(a: int) { if a > 2 && a < 7 { let x: int = a; } }",
            |fcx| {
                let a = analyze(fcx);
                let node = let_node(fcx, "x");
                assert_eq!(var_at(fcx, &a, node, "a"), Some(Interval::new(3, 6)));
            },
        );
    }

    /// `f`'s symbols plus an environment binding `x` to `x`.
    fn env_with_x(f: &minilang::ast::Function, x: Interval) -> (FnSymbols<'_>, SymEnv) {
        let mut table = crate::symbols::SymbolTable::new();
        table.intern_function(f);
        let syms = FnSymbols::build(f, &table);
        let mut env = SymEnv::new(syms.len());
        env.insert(syms.local("x").unwrap(), x);
        (syms, env)
    }

    #[test]
    fn contradictory_assumption_is_none() {
        let m = func("fn f(x: int) { if x < 3 { } }");
        let f = &m.functions[0];
        let StmtKind::If { cond, .. } = &f.body.stmts[0].kind else {
            panic!()
        };
        let (syms, env) = env_with_x(f, Interval::new(5, 5));
        assert!(!assume_sym(cond, true, &mut env.clone(), &syms));
        let mut refined = env.clone();
        assert!(assume_sym(cond, false, &mut refined, &syms));
        assert_eq!(refined, env);
    }

    #[test]
    fn bounds_check_constant_safe_and_unsafe() {
        let r = bounds(
            "fn f() {
                let buf: int[8];
                buf[0] = 1;
                buf[7] = 2;
                buf[8] = 3;
            }",
        );
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
        let r = bounds(
            "fn f(n: int) {
                let buf: int[16];
                for i = 0; i < 16; i += 1 { buf[i] = i; }
            }",
        );
        assert_eq!(r.out_of_bounds, 0);
        assert_eq!(r.safe, 1);
    }

    #[test]
    fn bounds_check_unguarded_parameter_is_unknown() {
        let r = bounds("fn f(i: int) { let buf: int[8]; buf[i] = 1; }");
        assert_eq!(r.unknown, 1);
    }

    #[test]
    fn bounds_check_off_by_one_loop_detected_as_unknown_or_oob() {
        // `i <= 16` overruns a 16-element buffer on the last iteration: the
        // refined interval on the true edge is [0, 16], not inside [0, 15].
        let r = bounds(
            "fn f() {
                let buf: int[16];
                for i = 0; i <= 16; i += 1 { buf[i] = i; }
            }",
        );
        assert_eq!(r.safe, 0);
        assert_eq!(r.out_of_bounds + r.unknown, 1);
    }

    #[test]
    fn eval_comparison_decides() {
        let m = func("fn f(x: int) -> bool { return x < 10; }");
        let f = &m.functions[0];
        let StmtKind::Return(Some(e)) = &f.body.stmts[0].kind else {
            panic!()
        };
        let (syms, env) = env_with_x(f, Interval::new(0, 5));
        assert_eq!(eval_sym(e, env.vals(), &syms), Interval::constant(1));
    }
}
