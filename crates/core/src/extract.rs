//! Corpus-scale feature extraction through the pipeline driver.
//!
//! Every sweep over many applications — training, experiments, benches —
//! goes through [`extract_apps`] instead of calling [`Testbed::extract`]
//! in a loop: [`pipeline::extract_batch`] fans programs across worker
//! threads, survives a panicking collector, and reports extraction time
//! and throughput.

use crate::testbed::Testbed;
use corpus::{Corpus, GeneratedApp};
use minilang::ast::Program;
use pipeline::PipelineReport;
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

/// Extract the full testbed vector for every app in the corpus on `jobs`
/// workers (0 = one per core).
pub fn extract_corpus(corpus: &Corpus, jobs: usize) -> CorpusFeatures {
    extract_apps(corpus.apps.iter(), jobs)
}

/// Extract the full testbed vector for any selection of applications on
/// `jobs` workers (0 = one per core). Vectors are identical for any value.
pub fn extract_apps<'a>(
    apps: impl IntoIterator<Item = &'a GeneratedApp>,
    jobs: usize,
) -> CorpusFeatures {
    let programs: Vec<&Program> = apps.into_iter().map(|app| &app.program).collect();
    let (vectors, report) = pipeline::extract_batch(&Testbed::new(), &programs, jobs);
    CorpusFeatures {
        features: programs
            .iter()
            .map(|p| p.name.clone())
            .zip(vectors)
            .collect(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_matches_direct_testbed_extraction() {
        let corpus = crate::testutil::shared_corpus();
        let testbed = Testbed::new();
        let out = extract_corpus(corpus, 4);
        assert_eq!(out.features.len(), corpus.apps.len());
        assert!(out.report.errors.is_empty());
        for (app, (name, fv)) in corpus.apps.iter().zip(&out.features) {
            assert_eq!(&app.spec.name, name);
            assert_eq!(&testbed.extract(&app.program), fv);
        }
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
