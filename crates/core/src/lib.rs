//! Clairvoyant — a predictive security-metric framework.
//!
//! Reproduction of *"A Clairvoyant Approach to Evaluating Software
//! (In)Security"* (Jain, Tsai & Porter, HotOS '17). The paper proposes a
//! "grand, unified model" that predicts the risk, severity and
//! classification of future vulnerabilities in a program by correlating
//! statically-collected code properties with CVE-database ground truth via
//! machine learning.
//!
//! The pipeline (the paper's Figure 4):
//!
//! ```text
//!  CVE database ──select apps──▶ labels (CVSS>7? AV:N? CWE-121? …)
//!  applications ──[testbed]────▶ feature vectors (LoC, complexity, …)
//!                      │
//!                      ▼
//!        secml training with stratified cross-validation
//!                      │
//!                      ▼
//!            TrainedModel (inspectable weights)
//!                      │ compile
//!                      ▼
//!            CompiledModel (the one scorer; CLVY bytes)
//!                      │
//!                      ▼
//!   SecurityReport for any new codebase: predicted vulnerability count,
//!   per-hypothesis risk, top contributing code properties, action hints
//! ```
//!
//! # Quick start
//!
//! ```no_run
//! use clairvoyant::prelude::*;
//!
//! // 1. Generate the training corpus (offline stand-in for CVE + GitHub).
//! let corpus = Corpus::generate(&CorpusConfig::small(12, 42));
//!
//! // 2. Train the unified model and compile it for scoring.
//! let model = Trainer::new().train(&corpus).compile();
//!
//! // 3. Evaluate any program (on one worker).
//! let app = &corpus.apps[0].program;
//! let report = model.evaluate_program(app, 1);
//! println!("{report}");
//! ```

pub mod ablation;
pub mod compare;
pub mod dynamic;
pub mod explain;
pub mod extract;
pub mod files;
pub mod hypothesis;
pub mod incremental;
pub mod longitudinal;
pub mod metric;
pub mod report;
pub mod score;
pub mod studies;
pub mod survey;
pub mod system;
pub mod testbed;
pub mod train;

pub use compare::{
    classify_delta, compare_programs, delta_from_reports, version_delta, Comparison, FeatureDelta,
    RiskChange, VersionDelta,
};
pub use explain::{rank_hotspots, rank_hotspots_cx, Explanation, Hotspot, ModelExplanation};
pub use extract::{extract_corpus, CorpusFeatures};
pub use hypothesis::{standard_battery, Hypothesis};
pub use incremental::{IncrReport, IncrementalTestbed};
pub use longitudinal::{EpochOutcome, LongitudinalConfig, LongitudinalReport};
pub use metric::SecurityReport;
// Re-export the extraction report so downstream users read it without
// naming the pipeline crate.
pub use pipeline::PipelineReport;
pub use score::{CompiledModel, PreparedBatch};
pub use system::{evaluate_system, Component, Containment, Exposure, SystemReport, SystemSpec};
pub use testbed::Testbed;
pub use train::{Learner, TrainedModel, Trainer, TrainingReport};

/// Convenient re-exports for examples and benches.
pub mod prelude {
    pub use crate::compare::{compare_programs, version_delta};
    pub use crate::explain::{rank_hotspots, Explanation, Hotspot, ModelExplanation};
    pub use crate::extract::{extract_corpus, CorpusFeatures};
    pub use crate::hypothesis::{standard_battery, Hypothesis};
    pub use crate::metric::SecurityReport;
    pub use crate::score::{CompiledModel, PreparedBatch};
    pub use crate::testbed::Testbed;
    pub use crate::train::{Learner, TrainedModel, Trainer, TrainerConfig};
    pub use corpus::{Corpus, CorpusConfig};
    pub use minilang::{parse_program, Dialect};
    pub use pipeline::PipelineReport;
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared, lazily-built test fixtures: corpus generation plus training
    //! is the expensive part of this crate's tests, so every test module
    //! reuses one mid-size corpus, one trained model and its compiled form.

    use crate::score::CompiledModel;
    use crate::train::{TrainedModel, Trainer, TrainerConfig};
    use corpus::{Corpus, CorpusConfig};
    use std::sync::OnceLock;

    pub fn shared_corpus() -> &'static Corpus {
        static CORPUS: OnceLock<Corpus> = OnceLock::new();
        CORPUS.get_or_init(|| {
            let mut config = CorpusConfig::small(24, 20177);
            config.language_mix = [18, 2, 2, 2];
            config.max_kloc = 2.0;
            Corpus::generate(&config)
        })
    }

    pub fn shared_model() -> &'static TrainedModel {
        static MODEL: OnceLock<TrainedModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            Trainer::with_config(TrainerConfig {
                top_k_features: Some(14),
                ..Default::default()
            })
            .train(shared_corpus())
        })
    }

    pub fn shared_compiled() -> &'static CompiledModel {
        static COMPILED: OnceLock<CompiledModel> = OnceLock::new();
        COMPILED.get_or_init(|| shared_model().compile())
    }
}
