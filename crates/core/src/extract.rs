//! Corpus-scale feature extraction through the pipeline engine.
//!
//! Every sweep over many applications — training, experiments, benches,
//! the CLI — goes through [`extract_corpus`] instead of calling
//! [`Testbed::extract`] in a loop: the pipeline fans programs across
//! worker threads, serves unchanged programs from the content-addressed
//! feature cache, survives a panicking collector, and reports per-stage
//! timings and throughput.

use crate::testbed::Testbed;
use corpus::{Corpus, GeneratedApp};
use pipeline::{JobSpec, Pipeline, PipelineConfig, PipelineReport};
use static_analysis::FeatureVector;

/// Features for a set of applications, in input order, plus the run
/// report.
#[derive(Debug, Clone)]
pub struct CorpusFeatures {
    /// `(application name, feature vector)` in the order requested.
    pub features: Vec<(String, FeatureVector)>,
    pub report: PipelineReport,
}

impl CorpusFeatures {
    /// Look up one application's vector by name.
    pub fn get(&self, name: &str) -> Option<&FeatureVector> {
        self.features
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, fv)| fv)
    }

    /// The sorted union of every vector's feature names, and one dense
    /// row per application in that column order (see
    /// [`secml::dense_rows_by_name`]).
    pub fn dense_rows(&self) -> (Vec<String>, Vec<Vec<f64>>) {
        secml::dense_rows_by_name(self.features.iter().map(|(_, fv)| fv.iter()))
    }
}

/// One pipeline job per application.
pub fn corpus_jobs<'a>(apps: &[&'a GeneratedApp]) -> Vec<JobSpec<'a>> {
    apps.iter()
        .map(|app| JobSpec::new(&app.program, &app.files))
        .collect()
}

/// Extract the full testbed vector for every app in the corpus.
pub fn extract_corpus(corpus: &Corpus, config: PipelineConfig) -> CorpusFeatures {
    extract_apps(corpus.apps.iter(), config)
}

/// Extract the full testbed vector for any selection of applications.
pub fn extract_apps<'a>(
    apps: impl IntoIterator<Item = &'a GeneratedApp>,
    config: PipelineConfig,
) -> CorpusFeatures {
    let mut engine = Pipeline::with_config(Testbed::new(), config);
    extract_apps_with(&mut engine, apps)
}

/// Extract through a caller-owned engine — reusing one engine across
/// batches keeps its in-memory cache warm (the incremental path for
/// iterative experiments).
pub fn extract_apps_with<'a>(
    engine: &mut Pipeline<Testbed>,
    apps: impl IntoIterator<Item = &'a GeneratedApp>,
) -> CorpusFeatures {
    let apps: Vec<&GeneratedApp> = apps.into_iter().collect();
    let jobs = corpus_jobs(&apps);
    let batch = engine.run(&jobs);
    CorpusFeatures {
        features: batch
            .outputs
            .into_iter()
            .map(|o| (o.name, o.features))
            .collect(),
        report: batch.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::CacheMode;

    #[test]
    fn pipeline_matches_direct_testbed_extraction() {
        let corpus = crate::testutil::shared_corpus();
        let testbed = Testbed::new();
        let out = extract_corpus(
            corpus,
            PipelineConfig::default().jobs(4).cache(CacheMode::Off),
        );
        assert_eq!(out.features.len(), corpus.apps.len());
        assert!(out.report.errors.is_empty());
        for (app, (name, fv)) in corpus.apps.iter().zip(&out.features) {
            assert_eq!(&app.spec.name, name);
            assert_eq!(&testbed.extract(&app.program), fv);
        }
    }

    #[test]
    fn warm_engine_serves_from_cache() {
        let corpus = crate::testutil::shared_corpus();
        let mut engine = Pipeline::new(Testbed::new());
        let cold = extract_apps_with(&mut engine, &corpus.apps);
        let warm = extract_apps_with(&mut engine, &corpus.apps);
        assert_eq!(cold.report.cache_hits, 0);
        assert_eq!(warm.report.cache_hits, corpus.apps.len());
        assert_eq!(cold.features, warm.features);
    }

    #[test]
    fn dense_rows_align_on_the_sorted_name_union() {
        let vector = |pairs: &[(&'static str, f64)]| {
            let mut fv = FeatureVector::new();
            for &(name, v) in pairs {
                fv.set(name, v);
            }
            fv
        };
        let features = CorpusFeatures {
            features: vec![
                ("a".into(), vector(&[("loc", 10.0), ("cyclo", 3.0)])),
                ("b".into(), vector(&[("cyclo", 5.0), ("loc", 20.0)])),
                // A missing name reads as 0.0.
                ("c".into(), vector(&[("loc", 30.0)])),
            ],
            report: PipelineReport::default(),
        };
        let (schema, rows) = features.dense_rows();
        assert_eq!(schema, ["cyclo", "loc"]);
        assert_eq!(rows, [[3.0, 10.0], [5.0, 20.0], [0.0, 30.0]]);

        let empty = CorpusFeatures {
            features: Vec::new(),
            report: PipelineReport::default(),
        };
        assert_eq!(empty.dense_rows(), (Vec::new(), Vec::new()));
    }
}
