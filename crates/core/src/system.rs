//! Whole-system evaluation — the paper's future-work question (§5.3).
//!
//! *"An important question for future work is: can we use the same approach
//! of evaluating application programs to evaluate whole systems? We expect
//! that total system security is dependent upon the weakest link, although
//! factors such as which applications are network-facing have a role as
//! well. Similarly, it is challenging to model areas of containment … A
//! goal for future work is to apply the metric to a VM or Docker image,
//! capturing the risk for not just the application, but its supporting
//! infrastructure."*
//!
//! This module implements that proposal: a [`SystemSpec`] is a set of
//! components (each a program evaluated with the trained per-application
//! metric) annotated with *exposure* (network-facing or internal) and
//! *containment* (none / container / VM). The system score is
//! weakest-link-driven, exposure-weighted, containment-discounted, and an
//! inter-component attack chain (front-end compromise → lateral movement →
//! privileged component) is assembled with the attack-graph machinery.

use crate::metric::SecurityReport;
use crate::score::CompiledModel;
use crate::testbed::Testbed;
use minilang::ast::{PrivLevel, Program};
use static_analysis::FeatureVector;
use std::fmt;

/// How a component can be reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exposure {
    /// Directly reachable from the network (the paper's "network-facing").
    NetworkFacing,
    /// Reachable only from other components.
    Internal,
    /// Supporting infrastructure (init systems, log daemons, sidecars).
    Infrastructure,
}

impl Exposure {
    /// Weight of this component's risk in the system aggregate.
    fn weight(self) -> f64 {
        match self {
            Exposure::NetworkFacing => 1.0,
            Exposure::Internal => 0.6,
            Exposure::Infrastructure => 0.45,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Exposure::NetworkFacing => "network-facing",
            Exposure::Internal => "internal",
            Exposure::Infrastructure => "infrastructure",
        }
    }
}

/// The containment boundary around a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Containment {
    /// Shares the host with everything else.
    None,
    /// OS-level container (Docker): lateral movement dampened.
    Container,
    /// Hardware-virtualized boundary: strongly dampened.
    Vm,
}

impl Containment {
    /// Multiplier applied to this component's contribution to *lateral*
    /// (cross-component) risk.
    fn lateral_factor(self) -> f64 {
        match self {
            Containment::None => 1.0,
            Containment::Container => 0.6,
            Containment::Vm => 0.35,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Containment::None => "none",
            Containment::Container => "container",
            Containment::Vm => "vm",
        }
    }
}

/// One deployed component.
pub struct Component {
    pub name: String,
    pub program: Program,
    pub exposure: Exposure,
    pub containment: Containment,
}

/// A whole deployment (the "VM or Docker image" of §5.3).
pub struct SystemSpec {
    pub name: String,
    pub components: Vec<Component>,
}

/// Per-component evaluation inside a system report.
#[derive(Debug, Clone)]
pub struct ComponentReport {
    pub name: String,
    pub exposure: Exposure,
    pub containment: Containment,
    pub report: SecurityReport,
    /// Exposure-weighted, containment-aware contribution to system risk.
    pub weighted_risk: f64,
    /// Runs any `@priv(root)` code.
    pub privileged: bool,
}

/// The whole-system evaluation result.
#[derive(Debug, Clone)]
pub struct SystemReport {
    pub system: String,
    pub components: Vec<ComponentReport>,
    /// The weakest link (highest weighted risk).
    pub weakest: String,
    /// System risk score (0–100).
    pub score: f64,
    /// True when a compromised network-facing component can plausibly chain
    /// into a privileged component that is not behind a containment
    /// boundary.
    pub escalation_chain: Option<(String, String)>,
}

impl fmt::Display for SystemReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "system report for `{}`", self.system)?;
        for c in &self.components {
            writeln!(
                f,
                "  {:<18} {:<16} containment={:<10} risk {:>3.0} weighted {:>5.1}{}",
                c.name,
                c.exposure.name(),
                c.containment.name(),
                c.report.risk_score(),
                c.weighted_risk,
                if c.privileged { "  [runs as root]" } else { "" }
            )?;
        }
        writeln!(f, "  weakest link: {}", self.weakest)?;
        if let Some((from, to)) = &self.escalation_chain {
            writeln!(
                f,
                "  escalation chain: {from} → {to} (privileged, uncontained)"
            )?;
        }
        write!(f, "  system risk: {:.0}/100", self.score)
    }
}

/// Evaluate a whole system with the per-application metric, components
/// on `jobs` workers (0 = all cores).
///
/// Feature extraction fans out per component on the pool, then the whole
/// system is scored in one batched pass — the same engine the CLI `score`
/// subcommand uses. Components are independent and the report assembles
/// them in spec order, so the output is identical for any worker count.
///
/// Aggregation: `score = max(weighted component risks) + chain bonus`,
/// where the weakest-link max implements the paper's expectation and the
/// chain bonus captures network-facing → privileged lateral movement that
/// containment boundaries dampen.
pub fn evaluate_system(model: &CompiledModel, system: &SystemSpec, jobs: usize) -> SystemReport {
    assert!(
        !system.components.is_empty(),
        "a system needs at least one component"
    );
    let jobs = if jobs == 0 {
        pipeline::default_workers()
    } else {
        jobs
    };
    // Extraction dominates the wall clock; one task per component. The
    // report keeps the program name (not the component name) as the app
    // label, matching `CompiledModel::evaluate_program`.
    let extracted: Vec<(String, FeatureVector)> =
        pipeline::parallel_map(jobs, &system.components, |_, c| {
            (c.program.name.clone(), Testbed::new().extract(&c.program))
        });
    let reports = model.evaluate_batch(&extracted, jobs);
    let mut components: Vec<ComponentReport> = system
        .components
        .iter()
        .zip(reports)
        .map(|(c, report)| {
            let privileged = c
                .program
                .functions()
                .any(|f| f.privilege() == PrivLevel::Root);
            let weighted_risk = report.risk_score() * c.exposure.weight();
            ComponentReport {
                name: c.name.clone(),
                exposure: c.exposure,
                containment: c.containment,
                report,
                weighted_risk,
                privileged,
            }
        })
        .collect();

    // Weakest link.
    let weakest = components
        .iter()
        .max_by(|a, b| {
            a.weighted_risk
                .partial_cmp(&b.weighted_risk)
                .expect("finite risks")
        })
        .expect("non-empty")
        .name
        .clone();

    // Escalation chain: risky network-facing entry + privileged target
    // whose containment does not break the chain.
    let mut escalation_chain = None;
    let mut chain_bonus = 0.0;
    let entry = components
        .iter()
        .filter(|c| c.exposure == Exposure::NetworkFacing)
        .max_by(|a, b| {
            a.report
                .risk_score()
                .partial_cmp(&b.report.risk_score())
                .expect("finite")
        });
    if let Some(entry) = entry {
        if entry.report.risk_score() > 40.0 {
            let target = components
                .iter()
                .filter(|c| c.name != entry.name && c.privileged)
                .max_by(|a, b| {
                    let la = a.report.risk_score() * a.containment.lateral_factor();
                    let lb = b.report.risk_score() * b.containment.lateral_factor();
                    la.partial_cmp(&lb).expect("finite")
                });
            if let Some(target) = target {
                let lateral = target.report.risk_score() * target.containment.lateral_factor();
                if lateral > 25.0 {
                    escalation_chain = Some((entry.name.clone(), target.name.clone()));
                    chain_bonus = 0.2 * lateral;
                }
            }
        }
    }

    let base = components
        .iter()
        .map(|c| c.weighted_risk)
        .fold(0.0f64, f64::max);
    let score = (base + chain_bonus).clamp(0.0, 100.0);
    components.sort_by(|a, b| {
        b.weighted_risk
            .partial_cmp(&a.weighted_risk)
            .expect("finite")
    });

    SystemReport {
        system: system.name.clone(),
        components,
        weakest,
        score,
        escalation_chain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_compiled;
    use minilang::{parse_program, Dialect};

    fn component(name: &str, src: &str, exposure: Exposure, containment: Containment) -> Component {
        Component {
            name: name.to_string(),
            program: parse_program(name, Dialect::C, &[("m.c".into(), src.into())]).unwrap(),
            exposure,
            containment,
        }
    }

    const RISKY_FRONT: &str = "@endpoint(network)
        fn handle(req: str) { let b: str[16]; strcpy(b, req); system(req); }";
    const SAFE_WORKER: &str = "fn work(n: int) -> int { if n < 0 { return 0; } return n * 2; }";
    const ROOT_AGENT: &str = "@endpoint(local) @priv(root)
        fn apply(cfg: str) { write_file(\"/etc\", cfg); exec(cfg); }";

    fn sys(containment: Containment) -> SystemSpec {
        SystemSpec {
            name: "stack".into(),
            components: vec![
                component(
                    "frontend",
                    RISKY_FRONT,
                    Exposure::NetworkFacing,
                    Containment::None,
                ),
                component("worker", SAFE_WORKER, Exposure::Internal, Containment::None),
                component("agent", ROOT_AGENT, Exposure::Infrastructure, containment),
            ],
        }
    }

    #[test]
    fn weakest_link_drives_the_score() {
        let model = shared_compiled();
        let report = evaluate_system(model, &sys(Containment::None), 1);
        assert_eq!(report.weakest, "frontend");
        let front = report
            .components
            .iter()
            .find(|c| c.name == "frontend")
            .unwrap();
        assert!(report.score >= front.weighted_risk);
        assert!((0.0..=100.0).contains(&report.score));
    }

    #[test]
    fn escalation_chain_found_when_uncontained() {
        let model = shared_compiled();
        let report = evaluate_system(model, &sys(Containment::None), 1);
        assert_eq!(
            report.escalation_chain,
            Some(("frontend".to_string(), "agent".to_string())),
            "\n{report}"
        );
    }

    #[test]
    fn vm_containment_lowers_system_risk() {
        let model = shared_compiled();
        let open = evaluate_system(model, &sys(Containment::None), 1);
        let contained = evaluate_system(model, &sys(Containment::Vm), 1);
        assert!(
            contained.score <= open.score,
            "VM containment must not raise risk: {} vs {}",
            contained.score,
            open.score
        );
    }

    #[test]
    fn single_component_system_matches_app_risk_weighting() {
        let model = shared_compiled();
        let system = SystemSpec {
            name: "solo".into(),
            components: vec![component(
                "app",
                SAFE_WORKER,
                Exposure::NetworkFacing,
                Containment::None,
            )],
        };
        let report = evaluate_system(model, &system, 1);
        assert_eq!(report.weakest, "app");
        assert!(report.escalation_chain.is_none());
        let app = &report.components[0];
        assert!((report.score - app.weighted_risk).abs() < 1e-9);
    }

    #[test]
    fn internal_exposure_weighs_less_than_network() {
        let model = shared_compiled();
        let mk = |exposure| SystemSpec {
            name: "x".into(),
            components: vec![component("app", RISKY_FRONT, exposure, Containment::None)],
        };
        let net = evaluate_system(model, &mk(Exposure::NetworkFacing), 1);
        let internal = evaluate_system(model, &mk(Exposure::Internal), 1);
        assert!(net.score > internal.score);
    }

    #[test]
    fn display_renders_components_and_chain() {
        let model = shared_compiled();
        let text = evaluate_system(model, &sys(Containment::None), 1).to_string();
        assert!(text.contains("weakest link"));
        assert!(text.contains("frontend"));
        assert!(text.contains("system risk"));
        assert!(text.contains("[runs as root]"));
    }
}
