//! End-to-end tests for the extraction driver (`pipeline::extract_batch`)
//! over a generated corpus: parallel extraction is byte-identical to
//! sequential, and one panicking collector degrades one program without
//! killing the batch.

use clairvoyant::extract::extract_corpus;
use clairvoyant::testbed::Testbed;
use corpus::{Corpus, CorpusConfig};
use minilang::ast::Program;
use pipeline::{Extractor, PipelineError};
use static_analysis::FeatureVector;
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut config = CorpusConfig::small(24, 20177);
        config.max_kloc = 1.5;
        Corpus::generate(&config)
    })
}

#[test]
fn parallel_extraction_is_byte_identical_to_sequential() {
    let corpus = corpus();
    let sequential = extract_corpus(corpus, 1);
    let parallel = extract_corpus(corpus, 4);
    assert_eq!(sequential.features, parallel.features);
    assert!(parallel.report.errors.is_empty());
    assert_eq!(parallel.report.programs, corpus.apps.len());

    // And both agree exactly with the direct, single-threaded testbed.
    let testbed = Testbed::new();
    for (app, (name, fv)) in corpus.apps.iter().zip(&parallel.features) {
        assert_eq!(&app.spec.name, name, "output order must match input order");
        assert_eq!(&testbed.extract(&app.program), fv);
    }
}

/// A testbed whose collector panics on one named program.
struct Sabotaged {
    inner: Testbed,
    victim: String,
}

impl Extractor for Sabotaged {
    fn extract(&self, program: &Program) -> FeatureVector {
        if program.name == self.victim {
            panic!("injected collector failure");
        }
        self.inner.extract(program)
    }

    fn degraded(&self) -> FeatureVector {
        self.inner.degraded()
    }
}

#[test]
fn panicking_collector_degrades_one_program_not_the_batch() {
    let corpus = corpus();
    let victim = corpus.apps[3].spec.name.clone();
    let sabotaged = Sabotaged {
        inner: Testbed::new(),
        victim: victim.clone(),
    };
    let programs: Vec<&Program> = corpus.apps.iter().map(|a| &a.program).collect();
    let (vectors, report) = pipeline::extract_batch(&sabotaged, &programs, 4);

    // The batch completed with every program present.
    assert_eq!(vectors.len(), corpus.apps.len());
    assert_eq!(report.programs, corpus.apps.len());

    // Exactly the sabotaged program failed, with a recorded error and the
    // schema-stable degraded vector.
    assert_eq!(report.errors.len(), 1);
    let (failed, error) = &report.errors[0];
    assert_eq!(failed, &victim);
    assert!(matches!(error, PipelineError::Panicked(msg) if msg.contains("injected")));
    let degraded = &vectors[3];
    assert!(degraded.iter().all(|(_, v)| v == 0.0));
    assert_eq!(
        degraded.names(),
        vectors[0].names(),
        "degraded vector keeps the schema"
    );

    // Everyone else extracted normally, in input order.
    let testbed = Testbed::new();
    for (i, (app, fv)) in corpus.apps.iter().zip(&vectors).enumerate() {
        if i != 3 {
            assert_eq!(&testbed.extract(&app.program), fv, "{}", app.spec.name);
        }
    }
}
