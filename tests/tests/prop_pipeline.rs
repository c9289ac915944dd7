//! Property-based integration tests: arbitrary corpus configurations must
//! always yield parseable programs, valid CVSS vectors, and analyzable
//! feature vectors.
//!
//! Cases come from seeded splitmix64 loops, so a failure reproduces from
//! the seed in its message alone.

use corpus::{Corpus, CorpusConfig};

const CASES: u64 = 8;

/// splitmix64: tiny, seeded, reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn below(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

#[test]
fn any_small_corpus_is_well_formed() {
    let mut rng = Rng(0xc0_5e);
    for _ in 0..CASES {
        let n = rng.below(3, 7) as usize;
        let seed = rng.below(0, 10_000);
        let max_kloc = rng.uniform(0.4, 1.6);
        let case = format!("n {n}, seed {seed}, max_kloc {max_kloc}");
        let mut config = CorpusConfig::small(n, seed);
        config.max_kloc = max_kloc;
        let corpus = Corpus::generate(&config);

        assert!(corpus.db.len() >= 2 * config.n_apps(), "{case}");
        for app in &corpus.apps {
            // Programs parsed from the emitted files (synthesize would have
            // panicked otherwise) — re-check top-level shape.
            assert!(app.program.function_count() > 0, "{case}");
            assert_eq!(app.program.modules.len(), app.files.len(), "{case}");
            // Every CVE record round-trips a valid CVSS vector.
            for record in corpus.db.records_for(&app.spec.name) {
                if let Some(v3) = &record.cvss3 {
                    let text = v3.vector();
                    let reparsed: cvss::Cvss3 = text.parse().unwrap();
                    assert_eq!(reparsed.base_score(), v3.base_score(), "{case}: {text}");
                }
                assert!(
                    record.score() >= 0.0 && record.score() <= 10.0,
                    "{case}: {}",
                    record.id
                );
            }
        }
    }
}

#[test]
fn feature_extraction_is_total_over_corpus_programs() {
    let mut rng = Rng(0xfea7);
    let testbed = clairvoyant::Testbed::new();
    for _ in 0..CASES {
        let seed = rng.below(0, 10_000);
        let corpus = Corpus::generate(&CorpusConfig::small(3, seed));
        for app in corpus.apps.iter().take(2) {
            let fv = testbed.extract(&app.program);
            assert!(fv.len() >= 70, "seed {seed}: {} features", fv.len());
            for (name, value) in fv.iter() {
                assert!(value.is_finite(), "seed {seed}: {name} is not finite");
            }
        }
    }
}
