//! The meta-tool (Rutar et al. [59]): run every checker, merge and
//! deduplicate the reports, and expose per-rule counts as features.

use crate::checkers::{all_checkers, Checker};
use crate::diagnostic::{DiagSeverity, Diagnostic};
use static_analysis::context::AnalysisContext;
use std::collections::BTreeMap;

/// Combined output of all tools over one program.
#[derive(Debug, Clone, Default)]
pub struct MetaReport {
    /// All diagnostics, merged, in (module, span) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Count per `tool/rule` key.
    pub by_rule: BTreeMap<String, usize>,
    /// Count per severity.
    pub by_severity: BTreeMap<DiagSeverity, usize>,
    /// Count per CWE hint.
    pub by_cwe: BTreeMap<u32, usize>,
    /// Sites (function + span) flagged by two or more distinct tools — the
    /// agreement signal Rutar et al. found more trustworthy than any single
    /// tool.
    pub multi_tool_sites: usize,
}

impl MetaReport {
    /// Total findings.
    pub fn total(&self) -> usize {
        self.diagnostics.len()
    }

    /// Findings with the given severity.
    pub fn count_severity(&self, severity: DiagSeverity) -> usize {
        self.by_severity.get(&severity).copied().unwrap_or(0)
    }

    /// Findings hinting at the given CWE id.
    pub fn count_cwe(&self, cwe: u32) -> usize {
        self.by_cwe.get(&cwe).copied().unwrap_or(0)
    }
}

/// Runs a set of checkers and merges their reports.
pub struct MetaTool {
    checkers: Vec<Box<dyn Checker + Send + Sync>>,
}

impl Default for MetaTool {
    fn default() -> Self {
        MetaTool {
            checkers: all_checkers(),
        }
    }
}

impl MetaTool {
    /// The full standard suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// A custom suite (for ablation: which tools matter?).
    pub fn with_checkers(checkers: Vec<Box<dyn Checker + Send + Sync>>) -> Self {
        MetaTool { checkers }
    }

    /// Tool names in run order.
    pub fn tool_names(&self) -> Vec<&'static str> {
        self.checkers.iter().map(|c| c.name()).collect()
    }

    /// Run every tool over the program's shared [`AnalysisContext`] and
    /// merge.
    pub fn run(&self, cx: &AnalysisContext<'_>) -> MetaReport {
        let mut report = MetaReport::default();
        // (function, span start) → set of tools that flagged it.
        let mut site_tools: BTreeMap<(String, usize), Vec<&'static str>> = BTreeMap::new();

        for checker in &self.checkers {
            for diag in checker.check(cx) {
                *report
                    .by_rule
                    .entry(format!("{}/{}", diag.tool, diag.rule))
                    .or_insert(0) += 1;
                *report.by_severity.entry(diag.severity).or_insert(0) += 1;
                if let Some(cwe) = diag.cwe_hint {
                    *report.by_cwe.entry(cwe).or_insert(0) += 1;
                }
                let key = (diag.function.clone(), diag.span.start);
                let tools = site_tools.entry(key).or_default();
                if !tools.contains(&diag.tool) {
                    tools.push(diag.tool);
                }
                report.diagnostics.push(diag);
            }
        }
        report.multi_tool_sites = site_tools.values().filter(|t| t.len() >= 2).count();
        report
            .diagnostics
            .sort_by(|a, b| (&a.module, a.span.start).cmp(&(&b.module, b.span.start)));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{parse_program, Dialect};

    fn run(tool: &MetaTool, src: &str) -> MetaReport {
        let p = parse_program("app", Dialect::C, &[("m.c".into(), src.into())]).unwrap();
        tool.run(&AnalysisContext::build(&p))
    }

    #[test]
    fn merges_reports_from_multiple_tools() {
        let report = run(
            &MetaTool::new(),
            "@endpoint(network)
             fn handle(req: str) {
                 let buf: str[32];
                 strcpy(buf, req);
                 printf(req);
             }",
        );
        // bufcheck (strcpy), fmtcheck (printf), inputcheck (req unvalidated ×2 uses → 1 per param)
        assert!(report.count_cwe(121) >= 1);
        assert!(report.count_cwe(134) >= 1);
        assert!(report.count_cwe(20) >= 1);
        assert!(report.total() >= 3);
        assert!(!report.by_rule.is_empty());
    }

    #[test]
    fn clean_program_is_quiet() {
        let report = run(
            &MetaTool::new(),
            "fn add(a: int, b: int) -> int { return a + b; }
             fn main_loop() { let total: int = add(1, 2); printf(\"%d\", total); }",
        );
        assert_eq!(report.total(), 0, "{:#?}", report.diagnostics);
    }

    #[test]
    fn multi_tool_agreement_detected() {
        // strcpy from an untrusted param into a fixed buffer: bufcheck flags
        // the strcpy site, inputcheck flags the same call site for the
        // unvalidated parameter.
        let report = run(
            &MetaTool::new(),
            "@endpoint(network)
             fn handle(req: str) { let buf: str[8]; strcpy(buf, req); }",
        );
        assert!(report.multi_tool_sites >= 1, "{:#?}", report.diagnostics);
    }

    #[test]
    fn diagnostics_sorted_by_location() {
        let report = run(
            &MetaTool::new(),
            "fn a() { let x: int = 1; x = 2; log_msg(\"s\"); }
             fn b() { let y: int = 3; y = 4; log_msg(\"t\"); }",
        );
        let starts: Vec<usize> = report.diagnostics.iter().map(|d| d.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn custom_suite_restricts_tools() {
        let only_fmt =
            MetaTool::with_checkers(vec![Box::new(crate::checkers::FormatStringChecker)]);
        assert_eq!(only_fmt.tool_names(), vec!["fmtcheck"]);
        let report = run(
            &only_fmt,
            "fn f(s: str) { printf(s); let b: int[2]; b[5] = 1; }",
        );
        assert_eq!(report.count_cwe(134), 1);
        assert_eq!(report.count_cwe(121), 0);
    }

    #[test]
    fn severity_counts() {
        let report = run(
            &MetaTool::new(),
            "fn f() { let b: int[2]; b[9] = 1; let z: int = 5; z = 6; log_msg(\"x\"); }",
        );
        assert!(report.count_severity(DiagSeverity::Error) >= 1);
        assert!(report.count_severity(DiagSeverity::Note) >= 1);
    }
}
