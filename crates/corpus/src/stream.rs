//! Longitudinal, multi-tenant corpus streaming.
//!
//! The ROADMAP's last open item: re-estimating the clairvoyant metric as a
//! codebase *population* evolves. This module models that population as a
//! set of tenants (organizations) whose process-metric knobs — maturity,
//! review intensity, expertise — drift over simulated epochs, and whose
//! applications are occasionally rewritten, picking up the tenant's
//! current process state and a fresh CVE trajectory.
//!
//! Everything is a pure function of `(seed, tenant knobs, app index,
//! epoch)`:
//!
//! * each app owns an RNG stream derived from the master seed and its
//!   index, so apps can be generated independently, in any order, in
//!   chunks of any size — 100k apps never need to be resident at once;
//! * whether an app changed in epoch `e` is its own derived stream, so
//!   the change schedule can be queried without synthesizing anything;
//! * an app's CVE trajectory derives from its synthesis *plan* alone
//!   ([`synth::plan`]), so labelling the population — the paper picks
//!   its training apps from CVE tuples before measuring any code — never
//!   generates code; [`LongitudinalStream::materialize`] builds it for the
//!   apps that are actually measured;
//! * an app's code is a function of the epoch it was *last changed* in —
//!   untouched apps are byte-identical across epochs, which is what lets
//!   the incremental engine skip them;
//! * CVE ids come from a per-app number block (index·4096), so record
//!   identity needs no cross-app coordination.
//!
//! Epoch `e` reveals only records published up to `first_epoch_year + e`
//! — the clairvoyant ground-truth window advancing one year per epoch.

use crate::cve;
use crate::generator::{sample_cwes, Calibration, GeneratedApp};
use crate::spec::{AppSpec, Domain};
use crate::synth;
use crate::vuln::SeededVuln;
use cvedb::CveRecord;
use minilang::Dialect;
use rand::rngs::StdRng;
use rand::{derive_seed, Rng, SeedableRng};

/// Per-tenant process-metric knobs. Apps belonging to the tenant start at
/// the base values (with per-app jitter) and drift each time they are
/// rewritten, reflecting the tenant's process maturing (or decaying).
#[derive(Debug, Clone)]
pub struct TenantKnobs {
    /// Tenant name; becomes the app-name prefix.
    pub name: String,
    /// Base process quality in `[0, 1]` at epoch 0.
    pub maturity: f64,
    pub review: f64,
    pub expertise: f64,
    /// Added to each knob per epoch-of-last-change (clamped to `[0, 1]`):
    /// a positive drift means apps rewritten later inherit better process.
    pub maturity_drift: f64,
    pub review_drift: f64,
    pub expertise_drift: f64,
    /// Probability an app is rewritten in any given epoch ≥ 1.
    pub change_rate: f64,
}

impl TenantKnobs {
    /// A neutral tenant: mid-scale knobs, improving review, 20% churn.
    pub fn named(name: &str) -> TenantKnobs {
        TenantKnobs {
            name: name.to_string(),
            maturity: 0.5,
            review: 0.45,
            expertise: 0.5,
            maturity_drift: 0.04,
            review_drift: 0.05,
            expertise_drift: 0.02,
            change_rate: 0.2,
        }
    }
}

/// Configuration for a [`LongitudinalStream`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Total applications in the population.
    pub apps: usize,
    /// Tenants; app `i` belongs to tenant `i % tenants.len()`.
    pub tenants: Vec<TenantKnobs>,
    /// Master seed; every app stream derives from it.
    pub seed: u64,
    /// Size range in kLoC (log-uniform, per-dialect scaled as in the
    /// static corpus).
    pub min_kloc: f64,
    pub max_kloc: f64,
    /// Language weights `[C, C++, Python, Java]`.
    pub language_weights: [u32; 4],
    /// Target LoC-only R² for the count calibration.
    pub target_loc_r2: f64,
    /// Ground-truth cutoff year for epoch 0; epoch `e` reveals records
    /// published up to `first_epoch_year + e`.
    pub first_epoch_year: i32,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            apps: 1000,
            tenants: vec![
                TenantKnobs::named("acme"),
                TenantKnobs {
                    // A legacy shop: weak process, decaying, high churn.
                    maturity: 0.35,
                    review: 0.25,
                    expertise: 0.4,
                    maturity_drift: -0.02,
                    review_drift: -0.03,
                    expertise_drift: 0.0,
                    change_rate: 0.35,
                    ..TenantKnobs::named("initech")
                },
                TenantKnobs {
                    // A mature platform team: strong process, slow churn.
                    maturity: 0.7,
                    review: 0.75,
                    expertise: 0.7,
                    change_rate: 0.1,
                    ..TenantKnobs::named("globex")
                },
            ],
            seed: 0x0001_0ad5_7217,
            min_kloc: 0.2,
            max_kloc: 1.6,
            language_weights: [12, 3, 3, 2],
            target_loc_r2: 0.2466,
            first_epoch_year: 2012,
        }
    }
}

/// An application's identity and planted ground truth, without its code:
/// everything the label pass reads. [`LongitudinalStream::materialize`]
/// generates the code.
#[derive(Debug, Clone)]
pub struct PlannedApp {
    pub spec: AppSpec,
    pub seeded: Vec<SeededVuln>,
}

/// One application labelled at a specific epoch.
#[derive(Debug, Clone)]
pub struct EpochApp {
    pub app: PlannedApp,
    /// CVE records revealed by this epoch's ground-truth cutoff.
    pub records: Vec<CveRecord>,
    /// Whether the app was rewritten in this epoch (always true at 0).
    pub changed: bool,
    /// The epoch the app's current code dates from.
    pub last_changed: usize,
}

/// A seeded view of the evolving population. Holds only the config and
/// calibration; every query plans on demand, and only
/// [`materialize`](Self::materialize) generates code.
#[derive(Debug, Clone)]
pub struct LongitudinalStream {
    config: StreamConfig,
    cal: Calibration,
}

impl LongitudinalStream {
    pub fn new(config: StreamConfig) -> LongitudinalStream {
        assert!(!config.tenants.is_empty(), "at least one tenant required");
        let cal = Calibration::for_range(config.min_kloc, config.max_kloc, config.target_loc_r2);
        LongitudinalStream { config, cal }
    }

    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Ground-truth cutoff year for epoch `e`.
    pub fn cutoff_year(&self, epoch: usize) -> i32 {
        self.config.first_epoch_year + epoch as i32
    }

    /// Whether app `i` is rewritten in epoch `e` (epoch 0 creates all).
    pub fn changed_in(&self, index: usize, epoch: usize) -> bool {
        if epoch == 0 {
            return true;
        }
        let app_seed = derive_seed(self.config.seed, index as u64);
        let tenant = &self.config.tenants[index % self.config.tenants.len()];
        let mut rng = StdRng::seed_from_u64(derive_seed(app_seed, 0x10000 + epoch as u64));
        rng.gen_bool(tenant.change_rate)
    }

    /// The epoch app `i`'s code dates from, as of epoch `e`.
    pub fn last_changed(&self, index: usize, epoch: usize) -> usize {
        (1..=epoch)
            .rev()
            .find(|&e| self.changed_in(index, e))
            .unwrap_or(0)
    }

    /// Label app `i` at epoch `e` — a pure function of the seed, the
    /// owning tenant's knobs, and `(i, e)`. Plans the app's code but
    /// generates none of it.
    pub fn epoch_app(&self, index: usize, epoch: usize) -> EpochApp {
        let last_changed = self.last_changed(index, epoch);
        let changed = epoch == 0 || self.changed_in(index, epoch);
        let (plan, records) = self.label(index, last_changed);
        let cutoff = self.cutoff_year(epoch);
        EpochApp {
            app: PlannedApp {
                spec: plan.spec,
                seeded: plan.seeded,
            },
            records: records
                .into_iter()
                .filter(|r| r.published.year <= cutoff)
                .collect(),
            changed,
            last_changed,
        }
    }

    /// Synthesize app `i` as of the code generation it picked up in epoch
    /// `last_changed`, returning its *entire* CVE trajectory (no epoch
    /// cutoff). Replay drivers cache this per `(index, last_changed)` and
    /// re-filter by cutoff each epoch, so untouched apps are synthesized
    /// once, not once per epoch.
    pub fn materialize(&self, index: usize, last_changed: usize) -> (GeneratedApp, Vec<CveRecord>) {
        let (plan, records) = self.label(index, last_changed);
        (plan.build(), records)
    }

    /// The shared first half of [`epoch_app`](Self::epoch_app) and
    /// [`materialize`](Self::materialize): app `i`'s synthesis plan as of
    /// epoch `last_changed`, and its entire CVE trajectory derived from
    /// the plan's seeded vulnerabilities.
    fn label(&self, index: usize, last_changed: usize) -> (synth::Plan, Vec<CveRecord>) {
        assert!(index < self.config.apps, "app {index} out of population");
        let app_seed = derive_seed(self.config.seed, index as u64);
        let tenant = &self.config.tenants[index % self.config.tenants.len()];

        // Stable identity draws: everything that survives rewrites.
        let mut base = StdRng::seed_from_u64(derive_seed(app_seed, 1));
        let weights = self.config.language_weights;
        let total: u32 = weights.iter().sum();
        let mut roll = base.gen_range(0..total.max(1));
        let dialect = [Dialect::C, Dialect::Cpp, Dialect::Python, Dialect::Java]
            .into_iter()
            .zip(weights)
            .find(|(_, w)| {
                if roll < *w {
                    true
                } else {
                    roll -= w;
                    false
                }
            })
            .map(|(d, _)| d)
            .unwrap_or(Dialect::C);
        let (lo, hi) = match dialect {
            Dialect::C => (self.config.min_kloc, self.config.max_kloc),
            Dialect::Cpp => (self.config.min_kloc, self.config.max_kloc * 0.8),
            Dialect::Java => (self.config.min_kloc, self.config.max_kloc * 0.5),
            Dialect::Python => (self.config.min_kloc, self.config.max_kloc * 0.3),
        };
        let log_kloc = base.gen_range(lo.ln()..=hi.ln().max(lo.ln() + 1e-9));
        let domain = match dialect {
            Dialect::Python => {
                [Domain::CliTool, Domain::Library, Domain::Server][base.gen_range(0..3usize)]
            }
            _ => Domain::ALL[base.gen_range(0..Domain::ALL.len())],
        };
        let jitter = |rng: &mut StdRng| rng.gen_range(-0.1..0.1);
        let (jm, jr, je) = (jitter(&mut base), jitter(&mut base), jitter(&mut base));
        let first_release_year = base.gen_range(2000..=2008);

        // Process knobs reflect the tenant's state at the last rewrite.
        let drifted = |b: f64, j: f64, d: f64| (b + j + d * last_changed as f64).clamp(0.0, 1.0);
        let spec = AppSpec {
            name: format!("{}-{}-{index:06}", tenant.name, dialect.extension()),
            dialect,
            domain,
            target_kloc: log_kloc.exp(),
            maturity: drifted(tenant.maturity, jm, tenant.maturity_drift),
            review: drifted(tenant.review, jr, tenant.review_drift),
            expertise: drifted(tenant.expertise, je, tenant.expertise_drift),
            first_release_year,
            seed: derive_seed(app_seed, 0x20000 + last_changed as u64),
        };

        // Epoch synthesis: vulnerability count, seeds and history are
        // keyed to the last-changed epoch, so untouched apps replay the
        // exact same code and trajectory.
        let mut erng = StdRng::seed_from_u64(derive_seed(app_seed, 0x30000 + last_changed as u64));
        let target_vulns = self.cal.vuln_count(&spec, &mut erng);
        let seeds = sample_cwes(&spec, target_vulns, &mut erng);
        let plan = synth::plan(spec, &seeds);
        let mut next_cve = (index as u32) * 4096 + 1;
        let records = cve::synthesize_history(&plan.spec, &plan.seeded, &mut next_cve, &mut erng);
        (plan, records)
    }

    /// Iterate the whole population at epoch `e`, one app at a time.
    pub fn epoch(&self, epoch: usize) -> impl Iterator<Item = EpochApp> + '_ {
        (0..self.config.apps).map(move |i| self.epoch_app(i, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StreamConfig {
        StreamConfig {
            apps: 8,
            ..StreamConfig::default()
        }
    }

    /// Everything observable about app `i` at one epoch: the labelled
    /// app, and the code `materialize` builds for it.
    fn fingerprint(s: &LongitudinalStream, i: usize, a: &EpochApp) -> String {
        let (code, _) = s.materialize(i, a.last_changed);
        assert_eq!(code.spec, a.app.spec, "app {i}: plan and build disagree");
        assert_eq!(
            code.seeded, a.app.seeded,
            "app {i}: plan and build disagree"
        );
        let recs: Vec<String> = a.records.iter().map(|r| format!("{r:?}")).collect();
        format!(
            "{:?}|{:?}|{:?}|{recs:?}|{}|{}",
            a.app.spec, a.app.seeded, code.files, a.changed, a.last_changed
        )
    }

    #[test]
    fn epoch_app_is_pure() {
        let s = LongitudinalStream::new(small());
        for e in [0usize, 1, 3] {
            for i in 0..8 {
                assert_eq!(
                    fingerprint(&s, i, &s.epoch_app(i, e)),
                    fingerprint(&s, i, &s.epoch_app(i, e)),
                    "app {i} epoch {e}"
                );
            }
        }
    }

    #[test]
    fn consumption_order_is_irrelevant() {
        let s = LongitudinalStream::new(small());
        let forward: Vec<String> = s
            .epoch(2)
            .enumerate()
            .map(|(i, a)| fingerprint(&s, i, &a))
            .collect();
        let backward: Vec<String> = (0..8)
            .rev()
            .map(|i| fingerprint(&s, i, &s.epoch_app(i, 2)))
            .collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn unchanged_apps_keep_identical_code_across_epochs() {
        let s = LongitudinalStream::new(small());
        for i in 0..8 {
            let e3 = s.epoch_app(i, 3);
            let e4 = s.epoch_app(i, 4);
            if e4.last_changed == e3.last_changed {
                let code3 = s.materialize(i, e3.last_changed).0;
                let code4 = s.materialize(i, e4.last_changed).0;
                assert_eq!(code3.files, code4.files, "app {i} untouched but differs");
                assert_eq!(e3.app.spec, e4.app.spec);
            }
        }
    }

    #[test]
    fn records_accumulate_with_epochs() {
        let s = LongitudinalStream::new(small());
        for i in 0..8 {
            let early = s.epoch_app(i, 0);
            let late = s.epoch_app(i, 4);
            if late.last_changed == 0 {
                assert!(late.records.len() >= early.records.len());
            }
            for r in &late.records {
                assert!(r.published.year <= s.cutoff_year(4));
            }
        }
    }

    #[test]
    fn change_schedule_matches_materialization() {
        let s = LongitudinalStream::new(small());
        for i in 0..8 {
            for e in 0..5 {
                let a = s.epoch_app(i, e);
                assert_eq!(a.changed, s.changed_in(i, e));
                assert_eq!(a.last_changed, s.last_changed(i, e));
                assert!(a.last_changed <= e);
            }
        }
    }

    #[test]
    fn labels_equal_the_materialized_trajectory_under_the_cutoff() {
        let s = LongitudinalStream::new(StreamConfig {
            apps: 40,
            ..StreamConfig::default()
        });
        for e in [0usize, 2, 4] {
            let cutoff = s.cutoff_year(e);
            for i in 0..40 {
                let a = s.epoch_app(i, e);
                let (code, records) = s.materialize(i, a.last_changed);
                let expected: Vec<CveRecord> = records
                    .into_iter()
                    .filter(|r| r.published.year <= cutoff)
                    .collect();
                assert_eq!(a.records, expected, "app {i} epoch {e}");
                assert_eq!(a.app.spec, code.spec, "app {i} epoch {e}");
                assert_eq!(a.app.seeded, code.seeded, "app {i} epoch {e}");
            }
        }
    }

    #[test]
    fn cve_blocks_do_not_collide() {
        let s = LongitudinalStream::new(small());
        let mut seen = std::collections::BTreeSet::new();
        for a in s.epoch(3) {
            for r in &a.records {
                assert!(seen.insert(format!("{}", r.id)), "duplicate {}", r.id);
            }
        }
    }
}
