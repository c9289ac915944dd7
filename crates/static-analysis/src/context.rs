//! The shared analysis context: expensive structural work done once per
//! program, consumed by every collector.
//!
//! Before this module existed, `registry`, `taint`, `interval`, `paths`
//! and `smells` each rebuilt the same per-function CFGs, and the
//! set-valued fixpoints hashed variable-name strings. An
//! [`AnalysisContext`] now owns, per program:
//!
//! * a [`SymbolTable`] interning every identifier ([`SymbolId`]s assigned
//!   in one deterministic sequential pass);
//! * one [`FunctionContext`] per function — its [`Cfg`], reverse
//!   postorder, per-node def/use sets as dense symbol indices, and the
//!   precomputed dataflow / bounds / path / dead-code results and
//!   index-site intervals every collector needs;
//! * one shared interprocedural [`TaintReport`], read by the taint
//!   features, the attack-graph features and the path-traversal checker;
//! * one [`LocCounts`] per module, read by the `loc` features and the
//!   sparse-comment smell.
//!
//! Function contexts are independent once interning is done, so
//! [`AnalysisContext::build_with`] lets callers fan their construction out
//! over a thread pool — results merge back in program order, keeping every
//! downstream feature bit-identical for any worker count.

use crate::bitset::BitSet;
use crate::cfg::{Cfg, NodeId};
use crate::cyclomatic;
use crate::dataflow::{self, DataflowStats, NodeUses};
use crate::interval::{self, BoundsReport, Interval};
use crate::loc::{self, LocCounts};
use crate::paths::{self, PathConfig, PathReport};
use crate::symbols::{SymbolId, SymbolTable};
use crate::taint::{self, TaintReport};
use minilang::ast::{Function, Program};
use minilang::visit;
use std::collections::HashMap;

/// Function-local symbol index (dense remap of the [`SymbolId`]s a single
/// function mentions; bitset lattices are keyed by this).
pub type LocalId = u32;

/// Program-wide interning output: the symbol table plus the module-global
/// symbols, produced sequentially before any per-function work starts.
#[derive(Debug)]
pub struct ProgramSymbols {
    pub table: SymbolTable,
    /// Module globals in declaration order.
    pub globals: Vec<SymbolId>,
}

impl ProgramSymbols {
    pub fn intern(program: &Program) -> ProgramSymbols {
        let table = SymbolTable::intern_program(program);
        let globals = program
            .modules
            .iter()
            .flat_map(|m| m.globals.iter())
            .map(|g| table.lookup(&g.name).expect("global interned"))
            .collect();
        ProgramSymbols { table, globals }
    }
}

/// The identifiers one function mentions, densely renumbered: `LocalId`s
/// index bitsets whose universe is just this function's names.
#[derive(Debug)]
pub struct FnSymbols<'p> {
    /// Local index → program-wide symbol.
    pub syms: Vec<SymbolId>,
    by_name: HashMap<&'p str, LocalId>,
}

impl<'p> FnSymbols<'p> {
    pub fn build(function: &'p Function, table: &SymbolTable) -> FnSymbols<'p> {
        let mut syms = Vec::new();
        let mut by_name: HashMap<&'p str, LocalId> = HashMap::new();
        visit::function_identifiers(function, &mut |name| {
            by_name.entry(name).or_insert_with(|| {
                let id = syms.len() as LocalId;
                syms.push(table.lookup(name).expect("identifier interned"));
                id
            });
        });
        FnSymbols { syms, by_name }
    }

    /// Universe size for this function's bitsets.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Local index of `name`, if the function mentions it.
    pub fn local(&self, name: &str) -> Option<LocalId> {
        self.by_name.get(name).copied()
    }

    /// The sub-universe of the locals in `keep`, densely renumbered in
    /// their original order; every other name reads as unmentioned.
    pub fn restrict(&self, keep: &BitSet) -> FnSymbols<'p> {
        let mut renumber = vec![LocalId::MAX; self.len()];
        let mut syms = Vec::with_capacity(keep.count());
        for l in keep.iter() {
            renumber[l] = syms.len() as LocalId;
            syms.push(self.syms[l]);
        }
        let by_name = self
            .by_name
            .iter()
            .filter(|&(_, &l)| keep.contains(l as usize))
            .map(|(&name, &l)| (name, renumber[l as usize]))
            .collect();
        FnSymbols { syms, by_name }
    }
}

/// Everything the collectors need about one function, computed exactly
/// once.
#[derive(Debug)]
pub struct FunctionContext<'p> {
    pub function: &'p Function,
    pub cfg: Cfg<'p>,
    /// Reverse postorder over the CFG (unreachable nodes appended).
    pub rpo: Vec<NodeId>,
    pub symbols: FnSymbols<'p>,
    /// Parameter locals, in signature order.
    pub param_locals: Vec<LocalId>,
    /// Per-node definition `(local, strong)`, mirroring
    /// [`dataflow::node_def`].
    pub defs: Vec<Option<(LocalId, bool)>>,
    /// Per-node used locals in visit order, duplicates preserved
    /// (mirroring [`dataflow::node_uses`] — du-pair counts are per use
    /// occurrence).
    pub uses: NodeUses,
    pub dataflow: DataflowStats,
    pub bounds: BoundsReport,
    pub paths: PathReport,
    /// The function contains CFG-unreachable statements (dead code smell).
    pub has_dead_code: bool,
    /// Decision-point cyclomatic complexity (AST-only; no CFG needed).
    pub decision_complexity: usize,
    /// Dead-store sites `(node, local)` under the deadstore *checker's*
    /// predicate (strong defs never read, excluding params and globals) —
    /// distinct from [`DataflowStats::dead_stores`], which counts only
    /// `let`-introduced locals. Node ids and dense locals are relative to
    /// this context's own CFG/symbols, so the list survives caching.
    pub dead_store_sites: Vec<(NodeId, u32)>,
    /// FNV digest per top-level statement's printed form (program order),
    /// feeding duplicate-code detection without re-printing the body.
    pub stmt_hashes: Vec<u64>,
    /// Index interval of every `base[index]` site, in
    /// [`interval::for_each_index_site`] order — what `bufcheck` replays
    /// in place of the per-node interval environments, which are dropped
    /// once the bounds verdicts are in. Sized by the sites, not the CFG.
    pub index_sites: Vec<Interval>,
}

/// The *owned* expensive analysis results for one function: everything in
/// a [`FunctionContext`] that does not borrow the AST. The fixpoints here
/// (dataflow, intervals, bounds, path exploration) dominate context
/// construction cost, and they are pure functions of the function's text,
/// the global-variable name set, and the path-exploration limits — so the
/// incremental engine caches this struct per function fingerprint and
/// re-installs it without recomputation when the text is unchanged.
#[derive(Debug, Clone)]
pub struct FnPayload {
    pub dataflow: DataflowStats,
    pub bounds: BoundsReport,
    pub paths: PathReport,
    pub has_dead_code: bool,
    pub decision_complexity: usize,
    pub dead_store_sites: Vec<(NodeId, u32)>,
    pub stmt_hashes: Vec<u64>,
    pub index_sites: Vec<Interval>,
}

/// The cheap, borrow-carrying half of a [`FunctionContext`]: CFG, reverse
/// postorder, dense symbols, and per-node def/use sets. Linear in the
/// function size (no fixpoints), rebuilt on every extraction — cached
/// payloads index into CFG nodes and local symbols, and both are
/// deterministic functions of the function text, so a structure rebuilt
/// from identical text lines up with a cached [`FnPayload`] exactly.
pub struct FnStructure<'p> {
    pub function: &'p Function,
    pub cfg: Cfg<'p>,
    pub rpo: Vec<NodeId>,
    pub symbols: FnSymbols<'p>,
    pub param_locals: Vec<LocalId>,
    pub defs: Vec<Option<(LocalId, bool)>>,
    pub uses: NodeUses,
    let_locals: BitSet,
    param_set: BitSet,
    global_set: BitSet,
}

impl<'p> FnStructure<'p> {
    /// Build the structural half: CFG, reverse postorder, dense locals,
    /// def/use sets, and the membership bitsets the dataflow statistics
    /// need.
    pub fn build(function: &'p Function, program: &ProgramSymbols) -> FnStructure<'p> {
        let cfg = Cfg::build(function);
        let rpo = cfg.reverse_postorder();
        let symbols = FnSymbols::build(function, &program.table);
        let universe = symbols.len();
        let param_locals: Vec<LocalId> = function
            .params
            .iter()
            .map(|p| symbols.local(&p.name).expect("param interned"))
            .collect();

        // Per-node def/use sets as dense locals, resolved from names
        // borrowed out of the AST.
        let mut defs = Vec::with_capacity(cfg.node_count());
        let mut uses = NodeUses::with_capacity(cfg.node_count());
        for node in &cfg.nodes {
            defs.push(
                dataflow::node_def(&node.kind)
                    .map(|(name, strong)| (symbols.local(name).expect("def interned"), strong)),
            );
            dataflow::node_uses(&node.kind, &mut |name| {
                uses.push(symbols.local(name).expect("use interned"))
            });
            uses.end_node();
        }

        // Membership sets for the dataflow statistics.
        let mut let_locals = BitSet::new(universe);
        for node in &cfg.nodes {
            if let crate::cfg::NodeKind::Stmt(stmt) = &node.kind {
                if let minilang::ast::StmtKind::Let { name, .. } = &stmt.kind {
                    let_locals.insert(symbols.local(name).expect("let interned") as usize);
                }
            }
        }
        let mut param_set = BitSet::new(universe);
        for &p in &param_locals {
            param_set.insert(p as usize);
        }
        let mut global_set = BitSet::new(universe);
        for &g in &program.globals {
            if let Some(l) = symbols.local(program.table.name(g)) {
                global_set.insert(l as usize);
            }
        }

        FnStructure {
            function,
            cfg,
            rpo,
            symbols,
            param_locals,
            defs,
            uses,
            let_locals,
            param_set,
            global_set,
        }
    }

    /// Run the expensive fixpoints over this structure. Everything the
    /// result depends on — the structure itself, the global names folded
    /// into `global_set`, and `path_config` — is covered by the
    /// incremental engine's fingerprint salt, which is what makes the
    /// payload safely cacheable.
    pub fn compute_payload(&self, path_config: &PathConfig) -> FnPayload {
        let (dataflow, dead_store_sites) = dataflow::dataflow_stats_sym_sites(
            &self.cfg,
            &self.rpo,
            &self.defs,
            &self.uses,
            self.symbols.len(),
            &self.let_locals,
            &self.param_set,
            &self.global_set,
        );
        // The per-node interval environments are the largest thing this
        // builds; they reduce to the bounds verdicts plus one interval per
        // index site and are dropped here rather than cached. They are
        // computed only over the locals an index site or a branch can
        // observe, and not at all without an index site.
        let (bounds, index_sites) =
            match interval::relevance_slice(&self.cfg, &self.symbols, &self.defs, &self.uses) {
                Some(slice) => {
                    let intervals =
                        interval::analyze_cfg_sym(&self.cfg, self.function, &slice, &self.rpo);
                    interval::check_bounds_sym(&self.cfg, self.function, &slice, &intervals)
                }
                None => (BoundsReport::default(), Vec::new()),
            };
        let paths = paths::explore_cfg(&self.cfg, self.function, &self.symbols, path_config);
        let has_dead_code = !self.cfg.unreachable_nodes().is_empty();
        let decision_complexity = cyclomatic::decision_complexity(self.function);
        let stmt_hashes = crate::smells::stmt_print_hashes(self.function);
        FnPayload {
            dataflow,
            bounds,
            paths,
            has_dead_code,
            decision_complexity,
            dead_store_sites,
            stmt_hashes,
            index_sites,
        }
    }

    /// Join the structure with a payload (freshly computed or cached)
    /// into the full context the collectors consume.
    pub fn assemble(self, payload: FnPayload) -> FunctionContext<'p> {
        FunctionContext {
            function: self.function,
            cfg: self.cfg,
            rpo: self.rpo,
            symbols: self.symbols,
            param_locals: self.param_locals,
            defs: self.defs,
            uses: self.uses,
            dataflow: payload.dataflow,
            bounds: payload.bounds,
            paths: payload.paths,
            has_dead_code: payload.has_dead_code,
            decision_complexity: payload.decision_complexity,
            dead_store_sites: payload.dead_store_sites,
            stmt_hashes: payload.stmt_hashes,
            index_sites: payload.index_sites,
        }
    }
}

impl<'p> FunctionContext<'p> {
    /// Build one function's context. Read-only over the shared interning
    /// output, so calls for different functions can run on different
    /// threads.
    pub fn build(
        function: &'p Function,
        program: &ProgramSymbols,
        path_config: &PathConfig,
    ) -> FunctionContext<'p> {
        let structure = FnStructure::build(function, program);
        let payload = structure.compute_payload(path_config);
        structure.assemble(payload)
    }

    /// The owned expensive results, cloned out for caching.
    pub fn payload(&self) -> FnPayload {
        FnPayload {
            dataflow: self.dataflow,
            bounds: self.bounds.clone(),
            paths: self.paths,
            has_dead_code: self.has_dead_code,
            decision_complexity: self.decision_complexity,
            dead_store_sites: self.dead_store_sites.clone(),
            stmt_hashes: self.stmt_hashes.clone(),
            index_sites: self.index_sites.clone(),
        }
    }
}

/// The shared per-program analysis context.
#[derive(Debug)]
pub struct AnalysisContext<'p> {
    pub program: &'p Program,
    pub symbols: ProgramSymbols,
    /// One context per function, in `program.functions()` order.
    pub functions: Vec<FunctionContext<'p>>,
    /// The shared interprocedural taint result.
    pub taint: TaintReport,
    /// Line counts per module, in `program.modules` order.
    pub module_loc: Vec<LocCounts>,
    path_config: PathConfig,
}

impl<'p> AnalysisContext<'p> {
    /// Build the context sequentially.
    pub fn build(program: &'p Program) -> AnalysisContext<'p> {
        Self::build_with(program, |symbols, funcs| {
            funcs
                .iter()
                .map(|&f| FunctionContext::build(f, symbols, &standard_path_config()))
                .collect()
        })
    }

    /// Build the context with caller-provided per-function fan-out
    /// (dependency inversion: this crate cannot see the thread pool, so
    /// the caller maps `FunctionContext::build` over the function list —
    /// in program order — however it likes). Interning runs first,
    /// sequentially, so the closure only ever reads the table; the
    /// interprocedural taint pass runs after the merge.
    pub fn build_with<F>(program: &'p Program, run: F) -> AnalysisContext<'p>
    where
        F: FnOnce(&ProgramSymbols, &[&'p Function]) -> Vec<FunctionContext<'p>>,
    {
        let symbols = ProgramSymbols::intern(program);
        let funcs: Vec<&Function> = program.functions().collect();
        let functions = run(&symbols, &funcs);
        debug_assert_eq!(functions.len(), funcs.len());
        let taint = taint::analyze_contexts(program, &functions);
        Self::assemble(program, symbols, functions, taint)
    }

    /// Assemble a context from parts the caller built itself — the
    /// incremental engine's entry point: it constructs function contexts
    /// from cached payloads and runs the memoized taint pass, then needs
    /// the same `AnalysisContext` every collector consumes. The parts
    /// must describe `program` exactly as [`AnalysisContext::build`]
    /// would produce them (functions in `program.functions()` order,
    /// payloads computed under [`standard_path_config`]).
    pub fn assemble(
        program: &'p Program,
        symbols: ProgramSymbols,
        functions: Vec<FunctionContext<'p>>,
        taint: TaintReport,
    ) -> AnalysisContext<'p> {
        debug_assert_eq!(functions.len(), program.functions().count());
        AnalysisContext {
            program,
            symbols,
            functions,
            taint,
            module_loc: program.modules.iter().map(loc::count_module).collect(),
            path_config: standard_path_config(),
        }
    }

    /// Line counts summed over every module.
    pub fn program_loc(&self) -> LocCounts {
        let mut total = LocCounts::default();
        for &c in &self.module_loc {
            total.add(c);
        }
        total
    }

    /// The path-exploration limits function contexts were built with.
    pub fn path_config(&self) -> &PathConfig {
        &self.path_config
    }
}

/// The per-function path-exploration limits the standard collector set
/// uses: modest bounds so one explosive function cannot swamp extraction.
pub fn standard_path_config() -> PathConfig {
    PathConfig {
        max_states: 4_000,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_program, Dialect};

    fn program(src: &str) -> Program {
        parse_program("app", Dialect::C, &[("m.c".into(), src.into())]).unwrap()
    }

    #[test]
    fn context_builds_every_function_once() {
        let p = program(
            "global limit: int = 8;
             fn main_loop(n: int) -> int {
                 let acc: int = 0;
                 for i = 0; i < n; i += 1 { acc += i; }
                 return acc;
             }
             @endpoint(network)
             fn handle(req: str) { let b: str[16]; strcpy(b, req); }",
        );
        let cx = AnalysisContext::build(&p);
        assert_eq!(cx.functions.len(), 2);
        assert_eq!(cx.functions[0].function.name, "main_loop");
        assert_eq!(cx.functions[1].function.name, "handle");
        assert!(!cx.symbols.table.is_empty());
        assert_eq!(cx.symbols.globals.len(), 1);
        // The shared taint report sees the endpoint flow.
        assert_eq!(cx.taint.flows.len(), 1);
        // Dataflow stats were computed per function.
        assert!(cx.functions[0].dataflow.defs > 0);
    }

    #[test]
    fn build_with_merges_in_caller_order() {
        let p = program("fn a() { } fn b() { }");
        let cx = AnalysisContext::build_with(&p, |symbols, funcs| {
            // Build in reverse, then restore program order — what a
            // work-stealing pool's ordered merge does.
            let mut out: Vec<FunctionContext<'_>> = funcs
                .iter()
                .rev()
                .map(|&f| FunctionContext::build(f, symbols, &standard_path_config()))
                .collect();
            out.reverse();
            out
        });
        assert_eq!(cx.functions[0].function.name, "a");
        assert_eq!(cx.functions[1].function.name, "b");
    }

    #[test]
    fn unreachable_statements_flag_dead_code() {
        let p = program("fn f() -> int { return 1; let x: int = 2; }");
        let cx = AnalysisContext::build(&p);
        let fcx = &cx.functions[0];
        assert!(!fcx.cfg.unreachable_nodes().is_empty());
        assert!(fcx.has_dead_code);
    }

    #[test]
    fn payload_holds_no_per_node_interval_state() {
        // A long straight-line body with no indexing: the cached payload
        // carries no index intervals however many CFG nodes there are.
        let body: String = (0..210).map(|_| "x = x + 1; ").collect();
        let p = program(&format!("fn f(x: int) -> int {{ {body} return x; }}"));
        let cx = AnalysisContext::build(&p);
        let fcx = &cx.functions[0];
        assert!(fcx.cfg.node_count() >= 200, "{}", fcx.cfg.node_count());
        assert!(fcx.index_sites.is_empty());
        assert!(fcx.payload().index_sites.is_empty());
    }

    #[test]
    fn payload_holds_one_interval_per_index_site() {
        // Sites: `b[0]` target; `b[n]` target, then `b[1]`, `b[2]` in the
        // value; `b[3]` and nested `b[b[4]]` (two sites) in the condition;
        // `n[0]` indexes a non-buffer. Eight in all.
        let p = program(
            "fn f(n: int) {
                 let b: int[8];
                 b[0] = 1;
                 b[n] = b[1] + b[2];
                 if b[3] > b[b[4]] { n = n[0]; }
             }",
        );
        let cx = AnalysisContext::build(&p);
        let fcx = &cx.functions[0];
        let mut sites = 0;
        interval::for_each_index_site(&fcx.cfg, &mut |_, _, _, _| sites += 1);
        assert_eq!(sites, 8);
        assert_eq!(fcx.index_sites.len(), 8);
        assert_eq!(fcx.payload().index_sites, fcx.index_sites);
        // `b[0] = 1` is first in site order, and its index is the constant.
        assert_eq!(fcx.index_sites[0], Interval::constant(0));
    }

    #[test]
    fn fn_symbols_are_function_dense() {
        let p = program(
            "fn f(a: int) -> int { let x: int = a; return x; }
             fn g(b: int) -> int { return b; }",
        );
        let cx = AnalysisContext::build(&p);
        let f = &cx.functions[0].symbols;
        let g = &cx.functions[1].symbols;
        // Each function's locals start at 0 regardless of global numbering.
        assert_eq!(f.local("f"), Some(0));
        assert_eq!(f.local("a"), Some(1));
        assert_eq!(f.local("x"), Some(2));
        assert_eq!(g.local("g"), Some(0));
        assert_eq!(g.local("b"), Some(1));
        assert_eq!(f.local("b"), None);
        // And map back to distinct program-wide symbols.
        assert_ne!(f.syms[1], g.syms[1]);
    }
}
