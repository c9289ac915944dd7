//! Ground-truth consistency: the analyses must actually *see* the seeded
//! vulnerabilities — the framework's signal is measured, not assumed.

use corpus::{Corpus, CorpusConfig};
use cvedb::Cwe;
use static_analysis::AnalysisContext;
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut config = CorpusConfig::small(16, 5551212);
        config.max_kloc = 2.0;
        Corpus::generate(&config)
    })
}

#[test]
fn every_seed_has_a_cve_record_with_matching_cwe() {
    let corpus = corpus();
    for app in &corpus.apps {
        let records = corpus.db.records_for(&app.spec.name);
        assert_eq!(records.len(), app.seeded.len());
        let mut seed_cwes: Vec<Cwe> = app.seeded.iter().map(|s| s.cwe).collect();
        let mut record_cwes: Vec<Cwe> = records.iter().map(|r| r.cwe).collect();
        seed_cwes.sort();
        record_cwes.sort();
        assert_eq!(seed_cwes, record_cwes);
    }
}

#[test]
fn bufcheck_detects_most_seeded_stack_overflows() {
    let corpus = corpus();
    let (mut seeded, mut detected) = (0, 0);
    for app in &corpus.apps {
        let has_seed = app.seeded.iter().any(|s| s.cwe == Cwe::StackBufferOverflow);
        if !has_seed {
            continue;
        }
        seeded += 1;
        let report = bugfind::MetaTool::new().run(&AnalysisContext::build(&app.program));
        if report.count_cwe(121) > 0 {
            detected += 1;
        }
    }
    assert!(seeded > 0, "corpus seeded no CWE-121 at all");
    let rate = detected as f64 / seeded as f64;
    assert!(
        rate >= 0.9,
        "bufcheck caught only {detected}/{seeded} seeded apps"
    );
}

#[test]
fn taint_flows_track_exposed_injection_seeds() {
    let corpus = corpus();
    for app in &corpus.apps {
        let exposed_injections = app
            .seeded
            .iter()
            .filter(|s| {
                s.exposed
                    && matches!(
                        s.cwe,
                        Cwe::CommandInjection | Cwe::SqlInjection | Cwe::FormatString
                    )
            })
            .count();
        if exposed_injections == 0 {
            continue;
        }
        let taint = AnalysisContext::build(&app.program).taint;
        assert!(
            !taint.flows.is_empty(),
            "{} has {exposed_injections} exposed injection seeds but no taint flow",
            app.spec.name
        );
    }
}

#[test]
fn exposed_seeds_make_cvss_network_vectors() {
    let corpus = corpus();
    for app in &corpus.apps {
        let records = corpus.db.records_for(&app.spec.name);
        for (seed, record) in app.seeded.iter().zip(&records) {
            // Records are publication-ordered, seeds insertion-ordered, so
            // match by CWE multiset membership instead of position.
            let _ = record;
            let matching: Vec<_> = records.iter().filter(|r| r.cwe == seed.cwe).collect();
            assert!(!matching.is_empty());
            if seed.exposed {
                assert!(
                    matching.iter().any(|r| r.is_network_attackable()),
                    "exposed {} in {} has no AV:N record",
                    seed.cwe,
                    app.spec.name
                );
            }
        }
    }
}

#[test]
fn memory_cwes_only_in_unsafe_languages() {
    let corpus = corpus();
    for record in corpus.db.records() {
        if record.cwe.requires_memory_unsafety() {
            let app = corpus
                .apps
                .iter()
                .find(|a| a.spec.name == record.app)
                .expect("record's app exists");
            assert!(
                app.spec.dialect.is_memory_unsafe(),
                "{} reported for {} ({})",
                record.cwe,
                record.app,
                app.spec.dialect
            );
        }
    }
}

#[test]
fn vulnerable_files_are_bigger_on_average() {
    // The hot-file clustering that powers EXP-SHIN.
    let corpus = corpus();
    let rows = clairvoyant::files::file_dataset(corpus);
    let mean = |vulnerable: bool| -> f64 {
        let sel: Vec<&clairvoyant::files::FileRow> =
            rows.iter().filter(|r| r.vulnerable == vulnerable).collect();
        sel.iter().map(|r| r.features[0]).sum::<f64>() / sel.len().max(1) as f64
    };
    assert!(
        mean(true) > mean(false),
        "vulnerable files should be larger: {} vs {}",
        mean(true),
        mean(false)
    );
}
