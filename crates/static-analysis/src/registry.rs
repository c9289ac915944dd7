//! The extensible metric-collector registry (the Metrix++ role).
//!
//! §5.1: *"Metrix++ is extensible to collect other code properties"* — the
//! testbed needs a uniform way to run every analysis over an application and
//! flatten the results into one [`FeatureVector`]. A [`MetricCollector`] is
//! one analysis adapter; the [`Registry`] runs them all.
//! [`standard_registry`] wires up every collector in this crate.
//!
//! Collectors consume a shared [`AnalysisContext`]: CFGs, symbol tables,
//! dataflow/taint/interval/path results are computed once per program and
//! every collector reads the precomputed slice it needs.

use crate::context::AnalysisContext;
use crate::features::FeatureVector;
use crate::{callgraph, counts, cyclomatic, dataflow, halstead, interval, smells};
use std::time::Instant;

/// One analysis that contributes features for a program, reading shared
/// precomputed structure from the [`AnalysisContext`].
pub trait MetricCollector {
    /// Stable collector name (also the feature-name prefix by convention).
    fn name(&self) -> &'static str;
    /// Append features computed from the shared context.
    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector);
}

/// An ordered set of collectors.
#[derive(Default)]
pub struct Registry {
    collectors: Vec<Box<dyn MetricCollector + Send + Sync>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a collector (builder style).
    pub fn with(mut self, c: Box<dyn MetricCollector + Send + Sync>) -> Self {
        self.collectors.push(c);
        self
    }

    /// Registered collector names, in run order.
    pub fn names(&self) -> Vec<&'static str> {
        self.collectors.iter().map(|c| c.name()).collect()
    }

    /// Run every collector over a built context into a vector with room
    /// for `capacity` features, recording per-collector wall time in
    /// microseconds (run order preserved).
    pub fn run_with_timings(
        &self,
        cx: &AnalysisContext<'_>,
        capacity: usize,
    ) -> (FeatureVector, Vec<(String, u64)>) {
        let mut fv = FeatureVector::with_capacity(capacity);
        let mut timings = Vec::with_capacity(self.collectors.len());
        for c in &self.collectors {
            let start = Instant::now();
            c.collect(cx, &mut fv);
            timings.push((c.name().to_string(), start.elapsed().as_micros() as u64));
        }
        (fv, timings)
    }
}

/// The full standard collector set used by the Clairvoyant testbed.
pub fn standard_registry() -> Registry {
    Registry::new()
        .with(Box::new(LocCollector))
        .with(Box::new(CyclomaticCollector))
        .with(Box::new(HalsteadCollector))
        .with(Box::new(CountsCollector))
        .with(Box::new(CallGraphCollector))
        .with(Box::new(DataflowCollector))
        .with(Box::new(TaintCollector))
        .with(Box::new(IntervalCollector))
        .with(Box::new(PathCollector))
        .with(Box::new(SmellCollector))
        .with(Box::new(LanguageCollector))
}

/// `loc.*` — cloc-equivalent line counts.
pub struct LocCollector;

impl MetricCollector for LocCollector {
    fn name(&self) -> &'static str {
        "loc"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let c = cx.program_loc();
        out.set("loc.code", c.code as f64);
        out.set("loc.comment", c.comment as f64);
        out.set("loc.blank", c.blank as f64);
        out.set("loc.total", c.total() as f64);
        out.set("loc.kloc", c.kloc());
        out.set("loc.comment_ratio", c.comment_ratio());
        out.set("loc.log10_kloc", (c.kloc().max(1e-3)).log10());
        out.set("loc.files", cx.program.modules.len() as f64);
    }
}

/// `cyclomatic.*` — McCabe complexity distribution, from per-function
/// decision complexities precomputed in the context.
pub struct CyclomaticCollector;

impl MetricCollector for CyclomaticCollector {
    fn name(&self) -> &'static str {
        "cyclomatic"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let values: Vec<usize> = cx.functions.iter().map(|f| f.decision_complexity).collect();
        let s = cyclomatic::ComplexityStats::from_values(&values);
        out.set("cyclomatic.total", s.total as f64);
        out.set("cyclomatic.max", s.max as f64);
        out.set("cyclomatic.mean", s.mean);
        out.set("cyclomatic.over_10", s.over_10 as f64);
        out.set("cyclomatic.log10_total", (s.total.max(1) as f64).log10());
    }
}

/// `halstead.*` — software-science measures.
pub struct HalsteadCollector;

impl MetricCollector for HalsteadCollector {
    fn name(&self) -> &'static str {
        "halstead"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let h = halstead::program_halstead(cx.program);
        out.set("halstead.vocabulary", h.vocabulary() as f64);
        out.set("halstead.length", h.length() as f64);
        out.set("halstead.volume", h.volume());
        out.set("halstead.difficulty", h.difficulty());
        out.set("halstead.effort", h.effort());
        out.set("halstead.estimated_bugs", h.estimated_bugs());
    }
}

/// `counts.*` — basic structural counts (the Shin et al. feature family).
pub struct CountsCollector;

impl MetricCollector for CountsCollector {
    fn name(&self) -> &'static str {
        "counts"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let c = counts::program_counts(cx.program);
        out.set("counts.functions", c.functions as f64);
        out.set("counts.declarations", c.declarations as f64);
        out.set("counts.globals", c.globals as f64);
        out.set("counts.branches", c.branches as f64);
        out.set("counts.loops", c.loops as f64);
        out.set("counts.parameters", c.parameters as f64);
        out.set("counts.returning_functions", c.returning_functions as f64);
        out.set("counts.endpoints", c.endpoints as f64);
        out.set("counts.privileged_functions", c.privileged_functions as f64);
        out.set("counts.buffers", c.buffers as f64);
        out.set("counts.buffer_capacity", c.buffer_capacity as f64);
        out.set("counts.calls", c.calls as f64);
        out.set("counts.returns", c.returns as f64);
        let mean_params = if c.functions == 0 {
            0.0
        } else {
            c.parameters as f64 / c.functions as f64
        };
        out.set("counts.mean_parameters", mean_params);
    }
}

/// `callgraph.*` — calling/returning target counts (Allen-style).
pub struct CallGraphCollector;

impl MetricCollector for CallGraphCollector {
    fn name(&self) -> &'static str {
        "callgraph"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let s = callgraph::CallGraph::build(cx.program).stats();
        out.set("callgraph.call_edges", s.call_edges as f64);
        out.set("callgraph.intrinsic_edges", s.intrinsic_edges as f64);
        out.set("callgraph.unresolved_edges", s.unresolved_edges as f64);
        out.set("callgraph.max_out_degree", s.max_out_degree as f64);
        out.set("callgraph.max_in_degree", s.max_in_degree as f64);
        out.set("callgraph.leaf_functions", s.leaf_functions as f64);
        out.set("callgraph.root_functions", s.root_functions as f64);
        out.set(
            "callgraph.recursive_functions",
            s.recursive_functions as f64,
        );
    }
}

/// `dataflow.*` — def-use statistics summed over the precomputed
/// per-function results.
pub struct DataflowCollector;

impl MetricCollector for DataflowCollector {
    fn name(&self) -> &'static str {
        "dataflow"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let mut total = dataflow::DataflowStats::default();
        for fcx in &cx.functions {
            total.defs += fcx.dataflow.defs;
            total.du_pairs += fcx.dataflow.du_pairs;
            total.dead_stores += fcx.dataflow.dead_stores;
            total.possibly_uninitialized_uses += fcx.dataflow.possibly_uninitialized_uses;
        }
        out.set("dataflow.defs", total.defs as f64);
        out.set("dataflow.du_pairs", total.du_pairs as f64);
        out.set("dataflow.dead_stores", total.dead_stores as f64);
        out.set(
            "dataflow.uninitialized_uses",
            total.possibly_uninitialized_uses as f64,
        );
    }
}

/// `taint.*` — source→sink flow counts from the shared interprocedural
/// report (computed once per program, not once per consumer).
pub struct TaintCollector;

impl MetricCollector for TaintCollector {
    fn name(&self) -> &'static str {
        "taint"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let r = &cx.taint;
        out.set("taint.flows", r.flows.len() as f64);
        out.set("taint.exposed_flows", r.exposed_flows() as f64);
        out.set("taint.source_calls", r.source_calls as f64);
        out.set("taint.sink_calls", r.sink_calls as f64);
        out.set(
            "taint.tainted_entry_functions",
            r.tainted_entry_functions.len() as f64,
        );
    }
}

/// `bounds.*` — interval-proved buffer access safety.
pub struct IntervalCollector;

impl MetricCollector for IntervalCollector {
    fn name(&self) -> &'static str {
        "bounds"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let mut total = interval::BoundsReport::default();
        for fcx in &cx.functions {
            total.safe += fcx.bounds.safe;
            total.out_of_bounds += fcx.bounds.out_of_bounds;
            total.unknown += fcx.bounds.unknown;
        }
        out.set("bounds.safe", total.safe as f64);
        out.set("bounds.out_of_bounds", total.out_of_bounds as f64);
        out.set("bounds.unknown", total.unknown as f64);
        let checked = total.safe + total.out_of_bounds + total.unknown;
        let unproved_ratio = if checked == 0 {
            0.0
        } else {
            (total.out_of_bounds + total.unknown) as f64 / checked as f64
        };
        out.set("bounds.unproved_ratio", unproved_ratio);
    }
}

/// `paths.*` — bounded symbolic path counts. Floating-point sums accumulate
/// in `program.functions()` order (the order contexts are stored in), so the
/// result does not depend on how contexts were built.
pub struct PathCollector;

impl MetricCollector for PathCollector {
    fn name(&self) -> &'static str {
        "paths"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let mut feasible = 0f64;
        let mut infeasible = 0usize;
        let mut log_sum = 0f64;
        let mut capped = 0usize;
        for fcx in &cx.functions {
            let r = &fcx.paths;
            feasible += r.paths as f64;
            infeasible += r.infeasible;
            log_sum += ((r.paths + 1) as f64).log2();
            capped += r.capped as usize;
        }
        out.set("paths.feasible", feasible);
        out.set("paths.infeasible", infeasible as f64);
        out.set("paths.log2_sum", log_sum);
        out.set("paths.capped_functions", capped as f64);
    }
}

/// `smells.*` — per-kind smell counts; dead-code verdicts come from the
/// context instead of fresh CFG builds.
pub struct SmellCollector;

impl MetricCollector for SmellCollector {
    fn name(&self) -> &'static str {
        "smells"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let found = smells::detect(cx, &smells::Thresholds::default());
        let by_kind = smells::counts_by_kind(&found);
        use smells::SmellKind::*;
        let all = [
            (LongMethod, "smells.long_method"),
            (LongParameterList, "smells.long_parameter_list"),
            (DeepNesting, "smells.deep_nesting"),
            (GodFunction, "smells.god_function"),
            (SparseComments, "smells.sparse_comments"),
            (DuplicateCode, "smells.duplicate_code"),
            (DeprecatedCall, "smells.deprecated_call"),
            (DeadCode, "smells.dead_code"),
        ];
        for (kind, name) in all {
            out.set(name, by_kind.get(&kind).copied().unwrap_or(0) as f64);
        }
        out.set("smells.total", found.len() as f64);
    }
}

/// `lang.*` — one-hot primary-language indicators (the Figure 2 legend).
pub struct LanguageCollector;

impl MetricCollector for LanguageCollector {
    fn name(&self) -> &'static str {
        "lang"
    }

    fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
        let dialect = cx.program.dialect;
        for d in minilang::Dialect::ALL {
            let name = format!("lang.is_{}", d.extension());
            out.set(name, (dialect == d) as u8 as f64);
        }
        out.set(
            "lang.memory_unsafe",
            dialect.is_memory_unsafe() as u8 as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::ast::Program;
    use minilang::{parse_program, Dialect};

    fn program() -> Program {
        parse_program(
            "app",
            Dialect::C,
            &[(
                "m.c".into(),
                "@endpoint(network)
                 fn handle(req: str) {
                     let buf: str[64];
                     strcpy(buf, req);
                 }
                 fn util(n: int) -> int {
                     let acc: int = 0;
                     for i = 0; i < n; i += 1 { acc += i; }
                     return acc;
                 }"
                .into(),
            )],
        )
        .unwrap()
    }

    /// Build a context and run every collector over it.
    fn run(registry: &Registry, program: &Program) -> FeatureVector {
        registry
            .run_with_timings(&AnalysisContext::build(program), 0)
            .0
    }

    #[test]
    fn standard_registry_produces_rich_vector() {
        let fv = run(&standard_registry(), &program());
        // Every collector family must contribute.
        for prefix in [
            "loc.",
            "cyclomatic.",
            "halstead.",
            "counts.",
            "callgraph.",
            "dataflow.",
            "taint.",
            "bounds.",
            "paths.",
            "smells.",
            "lang.",
        ] {
            assert!(
                !fv.with_prefix(prefix).is_empty(),
                "no features with prefix {prefix}"
            );
        }
        assert!(fv.len() >= 50, "expected a wide vector, got {}", fv.len());
    }

    #[test]
    fn features_reflect_program_facts() {
        let fv = run(&standard_registry(), &program());
        assert_eq!(fv.get("counts.functions"), Some(2.0));
        assert_eq!(fv.get("counts.endpoints"), Some(1.0));
        assert_eq!(fv.get("taint.flows"), Some(1.0));
        assert_eq!(fv.get("lang.is_c"), Some(1.0));
        assert_eq!(fv.get("lang.is_py"), Some(0.0));
        assert_eq!(fv.get("lang.memory_unsafe"), Some(1.0));
        assert!(fv.get("loc.code").unwrap() > 0.0);
    }

    #[test]
    fn registry_names_listed_in_order() {
        let names = standard_registry().names();
        assert_eq!(names.first(), Some(&"loc"));
        assert!(names.contains(&"taint"));
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn empty_registry_empty_vector() {
        let fv = run(&Registry::new(), &program());
        assert!(fv.is_empty());
    }

    #[test]
    fn run_with_timings_covers_every_collector() {
        let p = program();
        let cx = AnalysisContext::build(&p);
        let reg = standard_registry();
        let (fv, timings) = reg.run_with_timings(&cx, 0);
        assert_eq!(fv, run(&reg, &p));
        let names: Vec<&str> = timings.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, reg.names());
    }

    #[test]
    fn custom_collector_extensibility() {
        struct Custom;
        impl MetricCollector for Custom {
            fn name(&self) -> &'static str {
                "custom"
            }
            fn collect(&self, cx: &AnalysisContext<'_>, out: &mut FeatureVector) {
                out.set("custom.modules", cx.program.modules.len() as f64);
                out.set("custom.functions", cx.functions.len() as f64);
            }
        }
        let fv = run(&Registry::new().with(Box::new(Custom)), &program());
        assert_eq!(fv.get("custom.modules"), Some(1.0));
        assert_eq!(fv.get("custom.functions"), Some(2.0));
    }
}
