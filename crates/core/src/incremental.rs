//! Incremental function-level extraction.
//!
//! Real codebases change one function at a time — the paper's
//! continuous-evaluation use (gating code changes in CI) re-scores after
//! exactly such edits — so this module caches analysis results under
//! **per-function fingerprints**:
//!
//! * each function is keyed by FNV-1a over its raw source slice, salted
//!   with the collector-set fingerprint, schema versions, dialects, start
//!   column and the program's global-variable names (everything a
//!   function's analysis results can observe besides its own text);
//! * the cached value is the function's [`FnPayload`] — the dataflow /
//!   interval / bounds / path fixpoints that dominate extraction cost —
//!   plus a memo of its interprocedural taint passes ([`IntraResult`]s
//!   keyed by the summary digest of its callees);
//! * on re-extraction only invalidated entries are rebuilt; the
//!   cross-function phases (taint fixpoint, attack-surface features)
//!   re-run over the cached summaries with callgraph-edge invalidation
//!   for free — a changed callee changes its callers' summary digests, so
//!   stale memo entries simply stop matching.
//!
//! The merged [`FeatureVector`] is **bit-identical** to a from-scratch
//! build: the cheap structural half of every function context
//! ([`FnStructure`]) is rebuilt from the current AST each time, cached
//! payloads are pure functions of the fingerprinted inputs, and the final
//! merge goes through literally the same `Testbed::run_families` path.
//! `tests/tests/incremental_engine.rs` asserts this under seeded random
//! edits; the `incremental_throughput` bench races it against scratch.

use crate::testbed::Testbed;
use minilang::ast::{Function, Module, Program};
use minilang::{Dialect, Span};
use pipeline::fn_cache::FnStore;
use pipeline::fnv::Fnv1a;
use pipeline::Extractor as _;
use static_analysis::context::{
    standard_path_config, AnalysisContext, FnPayload, FnStructure, FunctionContext, ProgramSymbols,
};
use static_analysis::taint::{self, IntraMemo, IntraResult};
use static_analysis::FeatureVector;
use std::sync::{Arc, Mutex};

/// Version of the incremental entry layout. Participates in every
/// function key, so bumping it invalidates all resident entries at once.
/// Bump whenever [`FnPayload`], the taint memo, or the fingerprint scheme
/// changes shape or meaning.
pub const INCR_SCHEMA_VERSION: u64 = 2;

/// Retained taint memo entries per function. The fixpoint probes at most
/// two (clean/dirty) per summary-digest generation, and the later phases
/// reuse those passes; stable programs settle on a handful of distinct
/// keys, so a small cap bounds memory without hurting hit rate.
const TAINT_MEMO_CAP: usize = 16;

/// What one [`IncrementalTestbed::extract_stats`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrReport {
    /// Functions in the program.
    pub functions: usize,
    /// Functions served from resident entries (fixpoints skipped).
    pub hits: u64,
    /// Functions with no resident entry.
    pub misses: u64,
    /// Functions fully re-analyzed this call (== `misses`: every miss is
    /// rebuilt and cached; kept separate because the serve counters
    /// report them as distinct facts).
    pub rebuilt: u64,
}

/// One resident per-function entry: the owned expensive analysis results
/// plus the cross-extraction taint memo. Shared (`Arc`) between the store
/// and in-flight extractions.
#[derive(Debug)]
struct FnEntry {
    payload: FnPayload,
    /// Memoized intraprocedural taint passes. Spans inside each result
    /// are absolute for the function position recorded in its `anchor`;
    /// they are rebased to the function's current position on every hit.
    taint_memo: Mutex<Vec<TaintMemoEntry>>,
}

#[derive(Debug)]
struct TaintMemoEntry {
    params_tainted: bool,
    digest: u64,
    /// The function's span when this result was captured.
    anchor: Span,
    result: IntraResult,
}

/// A [`Testbed`] with a resident per-function entry store: repeat
/// extractions of edited programs only re-analyze changed functions.
/// Intended to live across many extractions where edits hit the store
/// (a serve shard, the `watch` daemon, an editor loop); one-shot batch
/// work, where nothing repeats, runs a plain [`Testbed`] through
/// `pipeline::extract_batch`.
pub struct IncrementalTestbed {
    testbed: Testbed,
    store: FnStore<FnEntry>,
}

impl Default for IncrementalTestbed {
    fn default() -> Self {
        IncrementalTestbed {
            testbed: Testbed::new(),
            store: FnStore::new(0),
        }
    }
}

impl IncrementalTestbed {
    /// The standard collector set with a default-capacity entry store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fan per-function rebuilds out over `jobs` worker threads (0 = one
    /// per core) — the wrapped testbed's own fan-out
    /// ([`Testbed::with_fn_jobs`]), so a cold first extraction is exactly
    /// as parallel as a scratch one.
    pub fn with_fn_jobs(mut self, jobs: usize) -> Self {
        self.testbed = self.testbed.with_fn_jobs(jobs);
        self
    }

    /// The wrapped testbed (collector set, timings).
    pub fn testbed(&self) -> &Testbed {
        &self.testbed
    }

    /// Resident per-function entries.
    pub fn resident_entries(&self) -> usize {
        self.store.len()
    }

    /// Extract, reusing every resident entry whose fingerprint matches.
    pub fn extract(&mut self, program: &Program) -> FeatureVector {
        self.extract_stats(program).0
    }

    /// [`extract`](IncrementalTestbed::extract) plus the hit/miss
    /// accounting for this call.
    pub fn extract_stats(&mut self, program: &Program) -> (FeatureVector, IncrReport) {
        let (fv, report, ()) = self.extract_stats_with(program, |_| ());
        (fv, report)
    }

    /// [`extract_stats`](IncrementalTestbed::extract_stats) plus
    /// `inspect` run over the assembled analysis context — what hotspot
    /// ranking reads, without building a second context.
    pub fn extract_stats_with<R>(
        &mut self,
        program: &Program,
        inspect: impl FnOnce(&AnalysisContext<'_>) -> R,
    ) -> (FeatureVector, IncrReport, R) {
        let salt = self.salt(program);
        let symbols = ProgramSymbols::intern(program);

        // Probe the store sequentially (it needs `&mut`), collecting the
        // per-function job list in `program.functions()` order.
        let funcs: Vec<(&Module, &Function)> = program
            .modules
            .iter()
            .flat_map(|m| m.functions.iter().map(move |f| (m, f)))
            .collect();
        self.store.take_counters();
        let cached: Vec<Option<Arc<FnEntry>>> = funcs
            .iter()
            .map(|&(m, f)| self.store.get(function_key(salt, m, f)))
            .collect();
        let counters = self.store.take_counters();

        // Rebuild: cheap structure for everyone, fixpoints only for
        // misses. Entries are independent, so this fans out on the
        // testbed's per-function workers — order-preserving merge keeps
        // the vector bit-identical for any worker count.
        let indices: Vec<usize> = (0..funcs.len()).collect();
        let build = |i: usize| -> FunctionContext<'_> {
            let (_, f) = funcs[i];
            let structure = FnStructure::build(f, &symbols);
            match &cached[i] {
                Some(entry) => structure.assemble(entry.payload.clone()),
                None => {
                    let payload = structure.compute_payload(&standard_path_config());
                    structure.assemble(payload)
                }
            }
        };
        let functions: Vec<FunctionContext<'_>> =
            self.testbed.map_functions(&indices, |&i| build(i));

        // Cache the rebuilt payloads and line every function up with its
        // (new or resident) entry for the taint memo.
        let entries: Vec<Arc<FnEntry>> = funcs
            .iter()
            .zip(&cached)
            .zip(&functions)
            .map(|((&(m, f), slot), fcx)| match slot {
                Some(entry) => Arc::clone(entry),
                None => {
                    let entry = Arc::new(FnEntry {
                        payload: fcx.payload(),
                        taint_memo: Mutex::new(Vec::new()),
                    });
                    self.store
                        .insert(function_key(salt, m, f), Arc::clone(&entry));
                    entry
                }
            })
            .collect();

        // The interprocedural fixpoint re-runs every extraction (it is
        // where cross-function invalidation lives), but its per-function
        // passes are memoized on the entries.
        let memo = SessionMemo {
            entries: &entries,
            spans: funcs.iter().map(|&(_, f)| f.span).collect(),
        };
        let taint = taint::analyze_contexts_memo(program, &functions, &memo);

        let cx = AnalysisContext::assemble(program, symbols, functions, taint);
        let fv = self.testbed.run_families(program, &cx);
        let report = IncrReport {
            functions: funcs.len(),
            hits: counters.hits,
            misses: counters.misses,
            rebuilt: counters.misses,
        };
        (fv, report, inspect(&cx))
    }

    /// The program-wide key salt: everything outside a function's own
    /// text that its cached results can observe. Global *names* suffice
    /// for the globals part — per-function analyses see globals only as
    /// a name-membership set (`FnStructure`'s `global_set`), never their
    /// initializers.
    fn salt(&self, program: &Program) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(INCR_SCHEMA_VERSION);
        h.write_u64(self.testbed.fingerprint());
        h.write_u64(dialect_code(program.dialect));
        for g in program.modules.iter().flat_map(|m| m.globals.iter()) {
            h.write_str(&g.name);
        }
        h.finish()
    }
}

/// Fingerprint of one function: the raw source slice its AST was parsed
/// from (annotations sit *outside* the span, so they are hashed from
/// their parsed form), the module dialect that drove the parse, and the
/// start column (spans on the function's first line embed it, and cached
/// taint spans are rebased assuming it is unchanged).
fn function_key(salt: u64, module: &Module, f: &Function) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(salt);
    h.write_u64(dialect_code(module.dialect));
    let text = module
        .source
        .get(f.span.start..f.span.end)
        .unwrap_or_default();
    h.write_u64((f.span.end - f.span.start) as u64);
    h.write_str(text);
    h.write_u64(f.span.col as u64);
    for a in &f.annotations {
        h.write_str(&format!("{a:?}"));
    }
    h.finish()
}

fn dialect_code(d: Dialect) -> u64 {
    match d {
        Dialect::C => 1,
        Dialect::Cpp => 2,
        Dialect::Python => 3,
        Dialect::Java => 4,
    }
}

/// The [`IntraMemo`] for one extraction: per-function entries aligned to
/// the context slice, plus each function's *current* span so cached spans
/// can be rebased. A function whose text is unchanged but which moved
/// within its file shifts every internal span by a constant byte/line
/// delta (columns are pinned by keying the start column), so translating
/// the cached sink spans reproduces a fresh run exactly.
struct SessionMemo<'a> {
    entries: &'a [Arc<FnEntry>],
    spans: Vec<Span>,
}

impl IntraMemo for SessionMemo<'_> {
    fn get(&self, idx: usize, params_tainted: bool, digest: u64) -> Option<IntraResult> {
        let memo = self.entries[idx].taint_memo.lock().unwrap();
        let hit = memo
            .iter()
            .find(|e| e.params_tainted == params_tainted && e.digest == digest)?;
        Some(rebase(&hit.result, hit.anchor, self.spans[idx]))
    }

    fn put(&self, idx: usize, params_tainted: bool, digest: u64, result: &IntraResult) {
        let mut memo = self.entries[idx].taint_memo.lock().unwrap();
        if memo.len() >= TAINT_MEMO_CAP {
            memo.remove(0);
        }
        // Grow by exactly one entry: most functions keep two to four, and
        // the store holds a memo for every resident function, so doubling
        // would leave much of the store's memory as spare capacity.
        memo.reserve_exact(1);
        memo.push(TaintMemoEntry {
            params_tainted,
            digest,
            anchor: self.spans[idx],
            result: result.clone(),
        });
    }
}

/// Translate a cached result from the function position it was captured
/// at (`anchor`) to the function's current position.
fn rebase(result: &IntraResult, anchor: Span, current: Span) -> IntraResult {
    let mut out = result.clone();
    if anchor.start == current.start && anchor.line == current.line {
        return out;
    }
    let delta_byte = current.start as i64 - anchor.start as i64;
    let delta_line = current.line as i64 - anchor.line as i64;
    for (_, span, _) in &mut out.sink_hits {
        span.start = (span.start as i64 + delta_byte) as usize;
        span.end = (span.end as i64 + delta_byte) as usize;
        span.line = (span.line as i64 + delta_line) as u32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_program, Dialect};

    fn program(src: &str) -> Program {
        parse_program("app", Dialect::C, &[("m.c".into(), src.into())]).unwrap()
    }

    const BASE: &str = "@endpoint(network)
fn handle(req: str) { helper(req); }
fn helper(s: str) { exec(s); }
fn pure(a: int, b: int) -> int { return a + b; }";

    #[test]
    fn cold_extraction_matches_scratch() {
        let p = program(BASE);
        let scratch = Testbed::new().extract(&p);
        let mut engine = IncrementalTestbed::new();
        let (fv, report) = engine.extract_stats(&p);
        assert_eq!(fv, scratch);
        assert_eq!(report.functions, 3);
        assert_eq!(report.hits, 0);
        assert_eq!(report.misses, 3);
    }

    #[test]
    fn warm_repeat_hits_every_function() {
        let p = program(BASE);
        let mut engine = IncrementalTestbed::new();
        let cold = engine.extract(&p);
        let (warm, report) = engine.extract_stats(&p);
        assert_eq!(cold, warm);
        assert_eq!(report.hits, 3);
        assert_eq!(report.rebuilt, 0);
    }

    #[test]
    fn edit_rebuilds_only_the_changed_function() {
        let mut engine = IncrementalTestbed::new();
        engine.extract(&program(BASE));
        let edited = program(&BASE.replace("return a + b;", "return a * b;"));
        let (fv, report) = engine.extract_stats(&edited);
        assert_eq!(report.hits, 2);
        assert_eq!(report.rebuilt, 1);
        assert_eq!(fv, Testbed::new().extract(&edited));
    }

    #[test]
    fn cross_function_taint_edit_stays_exact() {
        let mut engine = IncrementalTestbed::new();
        engine.extract(&program(BASE));
        // Make `helper` sink-free: its summary changes, so `handle`'s
        // cached taint passes must be invalidated via the digest even
        // though `handle`'s text (and payload entry) is untouched.
        let edited = program(&BASE.replace("exec(s);", "log_msg(s);"));
        let (fv, report) = engine.extract_stats(&edited);
        assert_eq!(report.rebuilt, 1, "only helper's entry is invalid");
        assert_eq!(fv, Testbed::new().extract(&edited));
    }

    #[test]
    fn code_motion_rebases_taint_spans() {
        let mut engine = IncrementalTestbed::new();
        engine.extract(&program(BASE));
        // Prepend a global: every function moves down, nothing else
        // changes. Flow spans must track the new positions exactly.
        let moved = program(&format!("global limit: int = 3;\n\n{BASE}"));
        let (fv, report) = engine.extract_stats(&moved);
        // The salt changed (new global name), so entries miss wholesale —
        // but the point of this test is exactness after motion, which the
        // taint memo path must also survive:
        let mut engine2 = IncrementalTestbed::new();
        engine2.extract(&program(&format!("global limit: int = 3;\n{BASE}")));
        let (fv2, _) = engine2.extract_stats(&moved);
        assert_eq!(fv, Testbed::new().extract(&moved));
        assert_eq!(fv2, fv);
        assert_eq!(report.functions, 3);
    }

    #[test]
    fn global_rename_invalidates_wholesale() {
        let src = "global cap: int = 4;
fn f(i: int) -> int { if i < cap { return 1; } return 0; }";
        let mut engine = IncrementalTestbed::new();
        engine.extract(&program(src));
        let renamed = program(
            &src.replace("global cap", "global top")
                .replace("< cap", "< top"),
        );
        let (fv, report) = engine.extract_stats(&renamed);
        assert_eq!(report.hits, 0, "salt covers global names");
        assert_eq!(fv, Testbed::new().extract(&renamed));
    }

    #[test]
    fn fn_jobs_do_not_change_the_vector() {
        let p = program(BASE);
        let sequential = IncrementalTestbed::new().extract(&p);
        let parallel = IncrementalTestbed::new().with_fn_jobs(4).extract(&p);
        assert_eq!(sequential, parallel);
    }
}
