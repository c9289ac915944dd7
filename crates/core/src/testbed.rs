//! The automated testbed (§5.1).
//!
//! *"We also need an automated framework to collect all the code properties
//! from the sample applications."* The testbed runs every collector family
//! over a program and flattens the results into one [`FeatureVector`]:
//!
//! * the `static-analysis` standard registry (LoC, cyclomatic, Halstead,
//!   counts, call graph, data flow, taint, bounds, paths, smells, language);
//! * the `bugfind` meta-tool (per-rule report counts, severity mix,
//!   multi-tool agreement) — §4.2's "feed the bug reports or count of bug
//!   types into the machine learning engine";
//! * the `attack-graph` crate (RASQ quotient and per-vector counts, attack
//!   graph reachability/shortest-path metrics) — §4.1.
//!
//! All three families share one [`AnalysisContext`] built once per
//! program: the registry collectors read its precomputed CFGs and bitset
//! fixpoints, the bug checkers reuse the same CFGs/intervals through
//! `MetaTool::run`, and the attack-graph exploit facts come from the
//! context's single interprocedural taint pass.

use attack_graph::{interaction_facts, AttackGraph, AttackSurface, VectorKind};
use bugfind::{DiagSeverity, MetaReport, MetaTool};
use minilang::ast::Program;
use static_analysis::context::{AnalysisContext, FunctionContext};
use static_analysis::taint::TaintReport;
use static_analysis::{standard_registry, FeatureVector, Registry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `(cwe, "bugfind.cwe_<cwe>")` pairs, names spelled at compile time.
macro_rules! cwe_features {
    ($($cwe:literal),*) => { [$(($cwe, concat!("bugfind.cwe_", $cwe))),*] };
}

/// The per-CWE hint counts the hypotheses ask about, with their feature
/// names.
const CWE_FEATURES: [(u32, &str); 10] =
    cwe_features!(20, 22, 121, 134, 190, 200, 367, 401, 416, 798);

/// The full feature extractor.
pub struct Testbed {
    registry: Registry,
    metatool: MetaTool,
    /// Worker threads for per-function context construction (1 = inline,
    /// 0 = one per core). Vectors are identical for any value.
    fn_jobs: usize,
    /// Cumulative per-collector wall time in micros, drained into the
    /// pipeline report by [`pipeline::Extractor::take_collector_timings`].
    timings: Mutex<BTreeMap<String, u64>>,
    /// Features in the last extracted vector — the schema width, which
    /// the next vector reserves at once instead of growing to it.
    width: AtomicUsize,
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed {
            registry: standard_registry(),
            metatool: MetaTool::new(),
            fn_jobs: 1,
            timings: Mutex::new(BTreeMap::new()),
            width: AtomicUsize::new(0),
        }
    }
}

impl Testbed {
    /// The standard testbed with every collector enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fan per-function context construction out over `jobs` worker
    /// threads (0 = one per core). Function contexts are independent
    /// once interning is done and merge back in program order, so the
    /// extracted vector is bit-identical for any worker count.
    pub fn with_fn_jobs(mut self, jobs: usize) -> Self {
        self.fn_jobs = jobs;
        self
    }

    /// Extract the full feature vector for one program.
    pub fn extract(&self, program: &Program) -> FeatureVector {
        self.extract_with(program, |_| ()).0
    }

    /// [`extract`](Testbed::extract) plus `inspect` run over the analysis
    /// context extraction built — what hotspot ranking reads, without
    /// building a second context.
    pub fn extract_with<R>(
        &self,
        program: &Program,
        inspect: impl FnOnce(&AnalysisContext<'_>) -> R,
    ) -> (FeatureVector, R) {
        let start = Instant::now();
        let cx = AnalysisContext::build_with(
            program,
            |symbols, funcs| self.map_functions(funcs, |_, &f| FunctionContext::build(f, symbols)),
            None,
        );
        self.record("context", start.elapsed());
        (self.run_families(program, &cx), inspect(&cx))
    }

    /// Run every collector family over a built context and merge the
    /// results. This is the whole of [`extract`](Testbed::extract) minus
    /// context construction — the incremental engine builds its context
    /// from cached per-function entries and joins back here, so the
    /// merged vector is produced by literally the same code path. The
    /// vector comes out at its exact size: it reserves the width of the
    /// previous one, and only a first extraction (or a change of width)
    /// pays a final shrink.
    pub(crate) fn run_families(
        &self,
        program: &Program,
        cx: &AnalysisContext<'_>,
    ) -> FeatureVector {
        let (mut fv, collectors) = self
            .registry
            .run_with_timings(cx, self.width.load(Ordering::Relaxed));
        {
            let mut timings = self.timings.lock().unwrap();
            for (name, micros) in collectors {
                *timings.entry(name).or_insert(0) += micros;
            }
        }

        let start = Instant::now();
        let report = self.metatool.run(cx);
        Self::set_bugfind(&report, program, &mut fv);
        self.record("bugfind", start.elapsed());

        let start = Instant::now();
        Self::set_attack(program, &cx.taint, &mut fv);
        self.record("attackgraph", start.elapsed());
        fv.shrink_to_fit();
        self.width.store(fv.len(), Ordering::Relaxed);
        fv
    }

    /// Map `f(index, item)` over per-function work items on the `fn_jobs`
    /// workers, in input order (inline when `fn_jobs` is 1). The one
    /// per-function fan-out: the incremental engine runs its rebuilds
    /// through it too.
    pub(crate) fn map_functions<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let workers = if self.fn_jobs == 0 {
            pipeline::default_workers()
        } else {
            self.fn_jobs
        };
        pipeline::parallel_map(workers, items, f)
    }

    fn record(&self, name: &str, took: Duration) {
        *self
            .timings
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert(0) += took.as_micros() as u64;
    }

    fn set_bugfind(report: &MetaReport, program: &Program, fv: &mut FeatureVector) {
        fv.set("bugfind.total", report.total() as f64);
        fv.set(
            "bugfind.errors",
            report.count_severity(DiagSeverity::Error) as f64,
        );
        fv.set(
            "bugfind.warnings",
            report.count_severity(DiagSeverity::Warning) as f64,
        );
        fv.set(
            "bugfind.notes",
            report.count_severity(DiagSeverity::Note) as f64,
        );
        fv.set("bugfind.multi_tool_sites", report.multi_tool_sites as f64);
        for (cwe, name) in CWE_FEATURES {
            fv.set(name, report.count_cwe(cwe) as f64);
        }
        // Density: findings per function (size-independent signal).
        let functions = program.function_count().max(1) as f64;
        fv.set("bugfind.density", report.total() as f64 / functions);
    }

    fn set_attack(program: &Program, taint: &TaintReport, fv: &mut FeatureVector) {
        let surface = AttackSurface::measure(program);
        fv.set("rasq.quotient", surface.quotient);
        let kinds = [
            (VectorKind::NetworkEndpoint, "rasq.network_endpoints"),
            (VectorKind::LocalEndpoint, "rasq.local_endpoints"),
            (VectorKind::FileEndpoint, "rasq.file_endpoints"),
            (VectorKind::InputChannel, "rasq.input_channels"),
            (VectorKind::ProcessSpawn, "rasq.process_spawns"),
            (VectorKind::PrivilegedCode, "rasq.privileged_functions"),
            (VectorKind::UnresolvedExtern, "rasq.unresolved_externs"),
        ];
        for (kind, name) in kinds {
            fv.set(name, surface.count(kind) as f64);
        }

        // Attack graph: exploit facts are the endpoints whose parameters can
        // reach a dangerous sink (the exposed taint flows).
        let vulnerable: Vec<String> = taint
            .flows
            .iter()
            .filter(|f| f.via_parameters)
            .map(|f| f.function.clone())
            .collect();
        let graph = AttackGraph::from_facts(interaction_facts(program, &vulnerable));
        let metrics = graph.metrics();
        fv.set(
            "attackgraph.goal_reachable",
            metrics.goal_reachable as u8 as f64,
        );
        fv.set(
            "attackgraph.shortest_path",
            metrics.shortest_path_len.map(|n| n as f64).unwrap_or(0.0),
        );
        fv.set(
            "attackgraph.easiest_cost",
            metrics.easiest_path_cost.unwrap_or(10.0),
        );
        fv.set("attackgraph.paths", metrics.minimal_paths as f64);
        fv.set("attackgraph.exploits", metrics.exploit_count as f64);
    }
}

/// Version of the testbed's collector schema, part of the testbed's
/// [`fingerprint`](pipeline::Extractor::fingerprint). Bump whenever a
/// collector is added, removed, or changes meaning — every incremental
/// function entry built before is invalidated at once.
/// (v2: single-pass `AnalysisContext` engine. v3: deterministic
/// program-order duplicate-code detection over per-statement digests.)
pub const TESTBED_SCHEMA_VERSION: u64 = 3;

impl pipeline::Extractor for Testbed {
    fn extract(&self, program: &Program) -> FeatureVector {
        Testbed::extract(self, program)
    }

    /// Digest of the collector set actually wired in (registry collector
    /// names + bugfind tool names + the schema version), so a cached
    /// function entry is only reused by a testbed with the same collectors.
    fn fingerprint(&self) -> u64 {
        let mut h = pipeline::fnv::Fnv1a::new();
        h.write_u64(TESTBED_SCHEMA_VERSION);
        for name in self.registry.names() {
            h.write_str(name);
        }
        for name in self.metatool.tool_names() {
            h.write_str(name);
        }
        h.finish()
    }

    fn take_collector_timings(&self) -> Vec<(String, u64)> {
        let mut timings = self.timings.lock().unwrap();
        std::mem::take(&mut *timings).into_iter().collect()
    }

    /// The schema-stable degraded vector: every feature name the testbed
    /// emits, all zero. Feature names are program-independent (asserted
    /// by `feature_names_are_stable_across_programs` below), so one
    /// probe extraction over a trivial program yields the full schema.
    fn degraded(&self) -> FeatureVector {
        static SCHEMA: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        SCHEMA
            .get_or_init(|| {
                let probe = minilang::parse_program(
                    "schema-probe",
                    minilang::Dialect::C,
                    &[("probe.c".to_string(), "fn probe() { }".to_string())],
                )
                .expect("trivial probe program parses");
                Testbed::new()
                    .extract(&probe)
                    .names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            })
            .iter()
            .map(|name| (name.clone(), 0.0))
            .collect()
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
    fn extracts_all_feature_families() {
        let p = program(
            "@endpoint(network)
             fn handle(req: str) { let buf: str[32]; strcpy(buf, req); }
             fn util(n: int) -> int { return n * 2; }",
        );
        let fv = Testbed::new().extract(&p);
        for prefix in [
            "loc.",
            "cyclomatic.",
            "taint.",
            "bugfind.",
            "rasq.",
            "attackgraph.",
        ] {
            assert!(
                !fv.with_prefix(prefix).is_empty(),
                "missing family {prefix}"
            );
        }
        assert!(
            fv.len() >= 70,
            "expected a wide unified vector, got {}",
            fv.len()
        );
    }

    #[test]
    fn vulnerable_endpoint_makes_goal_reachable() {
        let p = program(
            "@endpoint(network) @priv(root)
             fn handle(req: str) { system(req); }",
        );
        let fv = Testbed::new().extract(&p);
        assert_eq!(fv.get("attackgraph.goal_reachable"), Some(1.0));
        assert!(fv.get("bugfind.total").unwrap() > 0.0);
        assert!(fv.get("rasq.quotient").unwrap() > 0.0);
    }

    #[test]
    fn clean_program_is_low_risk_across_families() {
        let p = program("fn pure(a: int, b: int) -> int { return a + b; }");
        let fv = Testbed::new().extract(&p);
        assert_eq!(fv.get("attackgraph.goal_reachable"), Some(0.0));
        assert_eq!(fv.get("bugfind.total"), Some(0.0));
        assert_eq!(fv.get("rasq.quotient"), Some(0.0));
        assert_eq!(fv.get("taint.flows"), Some(0.0));
    }

    #[test]
    fn feature_names_are_stable_across_programs() {
        let a = Testbed::new().extract(&program("fn f() { }"));
        let b = Testbed::new().extract(&program("@endpoint(network) fn g(q: str) { exec(q); }"));
        assert_eq!(
            a.names(),
            b.names(),
            "feature schema must not depend on program content"
        );
    }

    #[test]
    fn degraded_vector_matches_live_schema() {
        use pipeline::Extractor as _;
        let testbed = Testbed::new();
        let degraded = testbed.degraded();
        let live = testbed.extract(&program("fn f(s: str) { printf(s); }"));
        assert_eq!(
            degraded.names(),
            live.names(),
            "degraded vector must be schema-stable"
        );
        assert!(degraded.iter().all(|(_, v)| v == 0.0));
    }

    #[test]
    fn density_is_size_normalized() {
        let p = program("fn f(s: str) { printf(s); }");
        let fv = Testbed::new().extract(&p);
        assert_eq!(fv.get("bugfind.density"), Some(1.0));
    }

    #[test]
    fn fn_jobs_do_not_change_the_vector() {
        let p = program(
            "@endpoint(network) fn a(q: str) { exec(q); }
             fn b(n: int) -> int { let x: int = n; return x * 2; }
             fn c() { let buf: int[4]; buf[9] = 1; }
             fn d(i: int) { for j = 0; j < i; j += 1 { log_msg(\"t\"); } }",
        );
        let sequential = Testbed::new().extract(&p);
        let parallel = Testbed::new().with_fn_jobs(4).extract(&p);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn collector_timings_cover_every_stage() {
        use pipeline::Extractor as _;
        let testbed = Testbed::new();
        let _ = testbed.extract(&program("fn f(s: str) { printf(s); }"));
        let timings = testbed.take_collector_timings();
        let names: Vec<&str> = timings.iter().map(|(n, _)| n.as_str()).collect();
        for expected in ["context", "bugfind", "attackgraph", "loc", "taint"] {
            assert!(names.contains(&expected), "missing timing for {expected}");
        }
        // Drained: a second take is empty until the next extraction.
        assert!(testbed.take_collector_timings().is_empty());
    }

    #[test]
    fn fingerprint_tracks_collector_set() {
        use pipeline::Extractor as _;
        let standard = Testbed::new().fingerprint();
        assert_eq!(standard, Testbed::new().fingerprint());
        let trimmed = Testbed {
            registry: static_analysis::Registry::new(),
            ..Testbed::new()
        };
        assert_ne!(standard, trimmed.fingerprint());
    }
}
