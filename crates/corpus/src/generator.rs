//! Corpus generation and calibration.
//!
//! The generative model is built so the paper's Figure 2 regime emerges:
//!
//! ```text
//! log10(#vulns) = 0.17 + 0.39·log10(kLoC) + c·(0.5 − q) + lang + ε
//! ```
//!
//! * the `0.17 + 0.39·log10(kLoC)` term is the paper's measured trend line;
//! * `q` is the latent process quality (review/expertise/maturity), with the
//!   coefficient `c` calibrated so the LoC-only R² lands near the paper's
//!   24.66 % — i.e. *most* of the variance is NOT explained by size;
//! * `lang` gives Java projects slightly fewer vulnerabilities (the paper's
//!   only language effect);
//! * `ε` is irreducible noise.
//!
//! Because `q` also drives the *synthesized code style* (comments,
//! validation branches, bounded copies, smells), the residual that LoC
//! cannot explain **is** recoverable from the richer code properties — the
//! paper's central claim, by construction measurable.
//!
//! Note on scale: the paper's corpus spans 1–10,000 kLoC; synthesizing
//! gigalines is pointless, so the size axis is compressed (default
//! 0.3–25 kLoC) while keeping the log-uniform shape. Slope and R² are
//! scale-free in log-log space, so the Figure 2 comparison survives.

use crate::cve;
use crate::spec::{AppSpec, Domain};
use crate::synth;
use crate::vuln::SeededVuln;
use cvedb::{CveDatabase, Cwe};
use minilang::ast::Program;
use minilang::Dialect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Corpus-level configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Applications per language: `[C, C++, Python, Java]`. The paper's
    /// split is `[126, 20, 6, 12]`.
    pub language_mix: [usize; 4],
    /// Extra applications with short (< 5-year) histories, generated to
    /// exercise the §5.1 selection rule.
    pub short_history_apps: usize,
    /// Size range in kLoC (log-uniform).
    pub min_kloc: f64,
    pub max_kloc: f64,
    /// Master seed; the corpus is a pure function of the config.
    pub seed: u64,
    /// Target LoC-only coefficient of determination (paper: 0.2466).
    pub target_loc_r2: f64,
}

impl CorpusConfig {
    /// The paper-scale configuration: 164 applications, the Figure 2
    /// language mix, R² target 24.66 %.
    pub fn paper() -> CorpusConfig {
        CorpusConfig {
            language_mix: [126, 20, 6, 12],
            short_history_apps: 8,
            min_kloc: 0.3,
            max_kloc: 25.0,
            seed: 20170408,
            target_loc_r2: 0.2466,
        }
    }

    /// A small configuration for tests: `n` apps, mostly C.
    pub fn small(n: usize, seed: u64) -> CorpusConfig {
        let c = (n * 3).div_ceil(4);
        let rest = n - c;
        CorpusConfig {
            language_mix: [
                c,
                rest.min(1),
                rest.saturating_sub(2).min(1),
                rest.saturating_sub(1).min(1),
            ],
            short_history_apps: 1,
            min_kloc: 0.2,
            max_kloc: 1.6,
            seed,
            target_loc_r2: 0.2466,
        }
    }

    /// Total selected-quality apps (excluding short-history rejects).
    pub fn n_apps(&self) -> usize {
        self.language_mix.iter().sum()
    }
}

/// One generated application with its ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedApp {
    pub spec: AppSpec,
    pub program: Program,
    /// `(path, source)` files.
    pub files: Vec<(String, String)>,
    pub seeded: Vec<SeededVuln>,
}

/// The generated corpus: applications plus the CVE database over them.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub config: CorpusConfig,
    pub apps: Vec<GeneratedApp>,
    pub db: CveDatabase,
}

impl Corpus {
    /// Generate the corpus from a configuration. This is the eager facade
    /// over [`Corpus::stream`]: it drains the streaming iterator and keeps
    /// every app resident — fine at test scale, but longitudinal callers
    /// should consume the stream directly.
    pub fn generate(config: &CorpusConfig) -> Corpus {
        let mut stream = Corpus::stream(config);
        let apps: Vec<GeneratedApp> = stream.by_ref().collect();
        Corpus {
            config: config.clone(),
            apps,
            db: stream.into_db(),
        }
    }

    /// A lazy, seeded iterator over the corpus's applications, yielding
    /// them in the exact order (and from the exact RNG call sequence)
    /// `generate` uses — draining it is bit-identical to the eager path,
    /// but only one app is ever resident at a time.
    pub fn stream(config: &CorpusConfig) -> CorpusStream {
        let mix = [
            (Dialect::C, config.language_mix[0]),
            (Dialect::Cpp, config.language_mix[1]),
            (Dialect::Python, config.language_mix[2]),
            (Dialect::Java, config.language_mix[3]),
        ];
        let mut schedule = Vec::with_capacity(config.n_apps() + config.short_history_apps);
        for (dialect, count) in mix {
            schedule.extend(std::iter::repeat_n((dialect, false), count));
        }
        // Short-history rejects: young projects whose records cannot span
        // five years.
        schedule.extend(std::iter::repeat_n(
            (Dialect::C, true),
            config.short_history_apps,
        ));
        CorpusStream {
            config: config.clone(),
            cal: Calibration::for_config(config),
            rng: StdRng::seed_from_u64(config.seed),
            db: CveDatabase::new(),
            next_cve: 1,
            schedule,
            index: 0,
        }
    }

    fn generate_app(
        spec: &AppSpec,
        cal: &Calibration,
        rng: &mut StdRng,
        next_cve: &mut u32,
        db: &mut CveDatabase,
    ) -> GeneratedApp {
        let target_vulns = cal.vuln_count(spec, rng);
        let seeds = sample_cwes(spec, target_vulns, rng);
        let plan = synth::plan(spec.clone(), &seeds);
        let records = cve::synthesize_history(spec, &plan.seeded, next_cve, rng);
        for r in records {
            db.insert(r);
        }
        plan.build()
    }
}

/// The lazy producer behind [`Corpus::stream`]. CVE records accumulate
/// into an internal database as apps are yielded; recover it with
/// [`db`](CorpusStream::db) or [`into_db`](CorpusStream::into_db) once
/// the relevant prefix has been consumed.
#[derive(Debug, Clone)]
pub struct CorpusStream {
    config: CorpusConfig,
    cal: Calibration,
    rng: StdRng,
    db: CveDatabase,
    next_cve: u32,
    /// Per-app `(dialect, short_history)` plan, fixed by the config.
    schedule: Vec<(Dialect, bool)>,
    index: usize,
}

impl CorpusStream {
    /// The configuration the stream was built from.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// CVE records synthesized for the apps yielded so far.
    pub fn db(&self) -> &CveDatabase {
        &self.db
    }

    /// Consume the stream, returning the accumulated CVE database.
    pub fn into_db(self) -> CveDatabase {
        self.db
    }
}

impl Iterator for CorpusStream {
    type Item = GeneratedApp;

    fn next(&mut self) -> Option<GeneratedApp> {
        let &(dialect, short_history) = self.schedule.get(self.index)?;
        let mut spec = AppSpec::sample(
            self.index,
            dialect,
            &mut self.rng,
            self.config.min_kloc,
            self.config.max_kloc,
        );
        if short_history {
            spec.first_release_year = 2014;
            spec.name = format!("young-{}", spec.name);
        }
        self.index += 1;
        Some(Corpus::generate_app(
            &spec,
            &self.cal,
            &mut self.rng,
            &mut self.next_cve,
            &mut self.db,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.schedule.len() - self.index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CorpusStream {}

/// Pick the CWE classes for an app's seeds, respecting language safety.
pub(crate) fn sample_cwes(spec: &AppSpec, count: usize, rng: &mut StdRng) -> Vec<(Cwe, bool)> {
    // Weighted mix loosely following the real CWE distribution in CVE data.
    const WEIGHTED: &[(Cwe, u32)] = &[
        (Cwe::StackBufferOverflow, 14),
        (Cwe::HeapBufferOverflow, 8),
        (Cwe::ImproperInputValidation, 12),
        (Cwe::CrossSiteScripting, 9),
        (Cwe::CommandInjection, 7),
        (Cwe::SqlInjection, 6),
        (Cwe::FormatString, 5),
        (Cwe::IntegerOverflow, 7),
        (Cwe::PathTraversal, 7),
        (Cwe::InfoExposure, 7),
        (Cwe::ImproperAuthentication, 4),
        (Cwe::MissingAuthentication, 3),
        (Cwe::HardcodedCredentials, 3),
        (Cwe::Toctou, 2),
        (Cwe::MemoryLeak, 3),
        (Cwe::UseAfterFree, 4),
        (Cwe::UninitializedVariable, 3),
        (Cwe::NullDereference, 5),
    ];
    let usable: Vec<(Cwe, u32)> = WEIGHTED
        .iter()
        .copied()
        .filter(|(c, _)| spec.dialect.is_memory_unsafe() || !c.requires_memory_unsafety())
        .collect();
    let total: u32 = usable.iter().map(|(_, w)| w).sum();
    let exposure_p = match spec.domain {
        Domain::Server => 0.6,
        Domain::CliTool | Domain::Desktop => 0.35,
        Domain::Library => 0.25,
    };
    (0..count)
        .map(|_| {
            let mut roll = rng.gen_range(0..total);
            let cwe = usable
                .iter()
                .find(|(_, w)| {
                    if roll < *w {
                        true
                    } else {
                        roll -= w;
                        false
                    }
                })
                .map(|(c, _)| *c)
                .expect("weights cover the roll");
            (cwe, rng.gen_bool(exposure_p))
        })
        .collect()
}

/// The calibrated count model.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Paper trend-line intercept (log10 space).
    pub intercept: f64,
    /// Paper trend-line slope.
    pub slope: f64,
    /// Coefficient on `(0.5 − quality)`.
    pub quality_coeff: f64,
    /// Standard deviation of the irreducible noise.
    pub noise_sigma: f64,
}

impl Calibration {
    /// Derive the quality/noise magnitudes from the configured size range so
    /// the LoC-only R² lands near `target_loc_r2` regardless of how much the
    /// size axis is compressed.
    pub fn for_config(config: &CorpusConfig) -> Calibration {
        Calibration::for_range(config.min_kloc, config.max_kloc, config.target_loc_r2)
    }

    /// [`Calibration::for_config`] for callers without a full
    /// `CorpusConfig` — the longitudinal stream carries only a size range
    /// and R² target.
    pub fn for_range(min_kloc: f64, max_kloc: f64, target_loc_r2: f64) -> Calibration {
        let slope = 0.39;
        // The paper's intercept (0.17) belongs to its 1–10,000 kLoC axis.
        // With the size axis compressed, keeping 0.17 would push expected
        // counts against the ≥2 clamp and flatten both slope and R²; the
        // shift re-centres counts into the 5–100 range. Slope and R² are
        // the scale-free quantities FIG-2 compares.
        let intercept = 0.17 + 0.85;
        // x ~ U[log10(min), log10(max)] ⇒ Var(x) = range²/12.
        let range = (max_kloc.log10() - min_kloc.log10()).max(1e-6);
        let var_x = range * range / 12.0;
        let explained = slope * slope * var_x;
        // R² = explained / (explained + residual).
        let residual = explained * (1.0 - target_loc_r2) / target_loc_r2;
        // 55 % of the residual is quality-driven (recoverable from code
        // properties), 45 % is irreducible.
        let var_quality_term = 0.55 * residual;
        let var_noise = 0.45 * residual;
        // q = 0.5r + 0.3e + 0.2m with r,e,m ~ U(0,1):
        // Var(q) = (0.25 + 0.09 + 0.04) / 12.
        let var_q = (0.25 + 0.09 + 0.04) / 12.0;
        Calibration {
            intercept,
            slope,
            quality_coeff: (var_quality_term / var_q).sqrt(),
            noise_sigma: var_noise.sqrt(),
        }
    }

    /// Expected log10 vulnerability count, before noise.
    pub fn expected_log10(&self, spec: &AppSpec) -> f64 {
        let lang = match spec.dialect {
            Dialect::Java => -0.20,
            _ => 0.0,
        };
        self.intercept
            + self.slope * spec.target_kloc.log10()
            + self.quality_coeff * (0.5 - spec.quality())
            + lang
    }

    /// Sample the vulnerability count for one application.
    pub fn vuln_count(&self, spec: &AppSpec, rng: &mut StdRng) -> usize {
        // Box-Muller for a standard normal.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let y = self.expected_log10(spec) + self.noise_sigma * z;
        let count = 10f64.powf(y).round() as i64;
        // Lower clamp keeps every app selectable (≥ 2 reports); upper clamp
        // keeps seeds within the carrier-function budget (modules average
        // ~10.5 functions; not every function can host a seed).
        let max_carriers = (spec.module_count() * 8) as i64;
        count.clamp(2, max_carriers.max(3)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvedb::SelectionCriteria;

    #[test]
    fn small_corpus_generates_and_selects() {
        let config = CorpusConfig::small(8, 42);
        let corpus = Corpus::generate(&config);
        assert_eq!(
            corpus.apps.len(),
            config.n_apps() + config.short_history_apps
        );
        assert!(!corpus.db.is_empty());
        let selected = corpus.db.select(&SelectionCriteria::default());
        // All long-history apps pass; short-history rejects do not.
        assert!(
            selected.len() >= config.n_apps() - 1,
            "selected {}",
            selected.len()
        );
        assert!(selected.iter().all(|h| !h.app.starts_with("young-")));
    }

    #[test]
    fn corpus_is_deterministic() {
        let config = CorpusConfig::small(4, 7);
        let a = Corpus::generate(&config);
        let b = Corpus::generate(&config);
        assert_eq!(a.apps.len(), b.apps.len());
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.files, y.files);
            assert_eq!(x.seeded, y.seeded);
        }
        assert_eq!(a.db.len(), b.db.len());
    }

    #[test]
    fn generate_matches_streamed_collect_bitwise() {
        let config = CorpusConfig::small(6, 90210);
        let eager = Corpus::generate(&config);
        let mut stream = Corpus::stream(&config);
        assert_eq!(stream.len(), config.n_apps() + config.short_history_apps);
        let streamed: Vec<GeneratedApp> = stream.by_ref().collect();
        let db = stream.into_db();
        assert_eq!(eager.apps.len(), streamed.len());
        for (a, b) in eager.apps.iter().zip(&streamed) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.files, b.files);
            assert_eq!(a.seeded, b.seeded);
        }
        assert_eq!(eager.db.len(), db.len());
        for app in &eager.apps {
            let x: Vec<String> = eager
                .db
                .records_for(&app.spec.name)
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            let y: Vec<String> = db
                .records_for(&app.spec.name)
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            assert_eq!(x, y, "records for {}", app.spec.name);
        }
    }

    #[test]
    fn stream_db_accumulates_with_yielded_prefix() {
        let config = CorpusConfig::small(5, 31337);
        let mut stream = Corpus::stream(&config);
        assert!(stream.db().is_empty());
        let first = stream.next().expect("at least one app");
        assert_eq!(
            stream.db().records_for(&first.spec.name).len(),
            first.seeded.len()
        );
    }

    #[test]
    fn seeds_match_cve_records() {
        let corpus = Corpus::generate(&CorpusConfig::small(5, 11));
        for app in &corpus.apps {
            let records = corpus.db.records_for(&app.spec.name);
            assert_eq!(
                records.len(),
                app.seeded.len(),
                "every seed yields exactly one CVE for {}",
                app.spec.name
            );
        }
    }

    #[test]
    fn memory_safe_languages_have_no_memory_cwes() {
        let mut config = CorpusConfig::small(6, 13);
        config.language_mix = [0, 0, 3, 3]; // Python + Java only
        let corpus = Corpus::generate(&config);
        for app in &corpus.apps {
            if app.spec.dialect.is_memory_unsafe() {
                continue; // the short-history reject is C
            }
            for seed in &app.seeded {
                assert!(
                    !seed.cwe.requires_memory_unsafety(),
                    "{} seeded {} into {}",
                    app.spec.name,
                    seed.cwe,
                    app.spec.dialect
                );
            }
        }
    }

    #[test]
    fn calibration_targets_r2() {
        let config = CorpusConfig::paper();
        let cal = Calibration::for_config(&config);
        // With the paper range the derived magnitudes are finite, positive
        // and the implied R² is exact by construction.
        assert!(cal.quality_coeff > 0.0);
        assert!(cal.noise_sigma > 0.0);
        let range = (config.max_kloc.log10() - config.min_kloc.log10()).abs();
        let var_x = range * range / 12.0;
        let explained = cal.slope * cal.slope * var_x;
        let var_q = 0.38 / 12.0;
        let resid =
            cal.quality_coeff * cal.quality_coeff * var_q + cal.noise_sigma * cal.noise_sigma;
        let implied_r2 = explained / (explained + resid);
        assert!(
            (implied_r2 - config.target_loc_r2).abs() < 0.01,
            "implied {implied_r2}"
        );
    }

    #[test]
    fn vuln_counts_grow_with_size_and_shrink_with_quality() {
        let config = CorpusConfig::paper();
        let cal = Calibration::for_config(&config);
        let base = AppSpec {
            name: "x".into(),
            dialect: Dialect::C,
            domain: Domain::Server,
            target_kloc: 1.0,
            maturity: 0.5,
            review: 0.5,
            expertise: 0.5,
            first_release_year: 2004,
            seed: 0,
        };
        let mut big = base.clone();
        big.target_kloc = 20.0;
        assert!(cal.expected_log10(&big) > cal.expected_log10(&base));
        let mut sloppy = base.clone();
        sloppy.review = 0.0;
        sloppy.expertise = 0.0;
        sloppy.maturity = 0.0;
        assert!(cal.expected_log10(&sloppy) > cal.expected_log10(&base));
        let mut careful = base.clone();
        careful.review = 1.0;
        careful.expertise = 1.0;
        careful.maturity = 1.0;
        assert!(cal.expected_log10(&careful) < cal.expected_log10(&base));
    }

    #[test]
    fn java_effect_lowers_counts() {
        let config = CorpusConfig::paper();
        let cal = Calibration::for_config(&config);
        let mk = |d: Dialect| AppSpec {
            name: "x".into(),
            dialect: d,
            domain: Domain::Server,
            target_kloc: 2.0,
            maturity: 0.5,
            review: 0.5,
            expertise: 0.5,
            first_release_year: 2004,
            seed: 0,
        };
        assert!(cal.expected_log10(&mk(Dialect::Java)) < cal.expected_log10(&mk(Dialect::C)));
        assert_eq!(
            cal.expected_log10(&mk(Dialect::Python)),
            cal.expected_log10(&mk(Dialect::C))
        );
    }

    #[test]
    fn counts_respect_clamps() {
        let config = CorpusConfig::small(3, 5);
        let cal = Calibration::for_config(&config);
        let mut rng = StdRng::seed_from_u64(3);
        let spec = AppSpec::sample(0, Dialect::C, &mut rng, 0.2, 0.3);
        for _ in 0..50 {
            let v = cal.vuln_count(&spec, &mut rng);
            assert!(v >= 2);
            assert!(v <= (spec.module_count() * 8).max(3));
        }
    }
}
