//! corpus — synthetic open-source application corpus with CVE histories.
//!
//! The paper trains on 164 real open-source applications with ≥5-year CVE
//! histories (5,975 CVEs as of April 2017). Offline, this crate synthesizes
//! a statistically analogous corpus:
//!
//! * [`spec`] — per-application specifications sampled from per-language
//!   priors (size, domain, module count, and the latent *process-quality*
//!   factors: code maturity, review level, developer expertise — the
//!   factors §3.1 of the paper says drive security beyond LoC);
//! * [`synth`] — a program synthesizer that emits genuine MiniLang modules
//!   (functions, call layers, loops, buffers, endpoints, comments) which
//!   every real analysis in `static-analysis` then measures;
//! * [`vuln`] — CWE seeding recipes that inject real vulnerable code
//!   patterns (strcpy-into-buffer, tainted format strings, TOCTOU pairs…);
//! * [`cve`] — CVE-history synthesis: discovery dates, CVSS vectors derived
//!   from each seed's context (endpoint reachability → AV, privilege → the
//!   impact metrics);
//! * [`generator`] — ties it together and calibrates the corpus-level
//!   statistics to the paper's Figure 2 regime (log-log slope ≈ 0.39 with
//!   R² ≈ 25 %, quality factors carrying most of the residual variance);
//! * [`survey`] — the Figure 1 substrate: a synthetic proceedings corpus
//!   plus the evaluation-method classifier.
//!
//! Determinism: everything is seeded; the same `CorpusConfig` yields the
//! same corpus byte-for-byte.

pub mod cve;
pub mod generator;
pub mod spec;
pub mod stream;
pub mod survey;
pub mod synth;
pub mod vuln;

pub use generator::{Corpus, CorpusConfig, CorpusStream, GeneratedApp};
pub use spec::{AppSpec, Domain};
pub use stream::{EpochApp, LongitudinalStream, PlannedApp, StreamConfig, TenantKnobs};
pub use vuln::SeededVuln;
