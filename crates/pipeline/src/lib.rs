//! clairvoyant-pipeline — the corpus-scale feature-extraction driver.
//!
//! The paper's testbed must "collect all the code properties from the
//! sample applications" across a 164-app corpus; every such sweep goes
//! through one stateless function, [`extract_batch`]:
//!
//! 1. **Parallelism** — a std-only work-stealing thread pool
//!    ([`pool::parallel_map`]) fans the batch across `jobs` workers while
//!    preserving input order, so parallel output is byte-identical to
//!    sequential output.
//! 2. **Fault isolation** — each program runs under `catch_unwind`; a
//!    panicking extraction yields the extractor's degraded but
//!    schema-stable vector plus a recorded [`PipelineError`], never a
//!    dead batch.
//! 3. **Observability** — extraction time, per-collector timings,
//!    programs/sec and the degraded programs, summarized in a
//!    [`PipelineReport`] (with one-line JSON for BENCH_* tracking).
//!
//! The crate also holds the pieces the incremental engine in `core`
//! builds on: the per-function entry store ([`fn_cache::FnStore`]) and
//! FNV-1a hashing ([`fnv`]).
//!
//! The driver is generic over the [`Extractor`] so it does not depend on
//! the `clairvoyant` core crate (which implements `Extractor` for its
//! `Testbed` and builds its training pipeline on top).
//!
//! ```no_run
//! use pipeline::Extractor;
//! # struct MyExtractor;
//! # impl Extractor for MyExtractor {
//! #     fn extract(&self, _: &minilang::ast::Program) -> static_analysis::FeatureVector {
//! #         static_analysis::FeatureVector::new()
//! #     }
//! # }
//! # let programs: Vec<minilang::ast::Program> = vec![];
//! let refs: Vec<&minilang::ast::Program> = programs.iter().collect();
//! let (vectors, report) = pipeline::extract_batch(&MyExtractor, &refs, 4);
//! assert_eq!(vectors.len(), refs.len());
//! println!("{report}");
//! ```

pub mod fault;
pub mod fn_cache;
pub mod fnv;
pub mod pool;
pub mod report;

pub use fn_cache::{FnStore, FnStoreCounters};
pub use pool::{default_workers, parallel_map};
pub use report::{PipelineError, PipelineReport};

use minilang::ast::Program;
use static_analysis::FeatureVector;
use std::time::Instant;

/// A feature extractor the driver can run.
///
/// Implementations must be pure per program (same program → same vector):
/// the parallel/sequential-equivalence guarantee relies on it.
pub trait Extractor: Sync {
    /// Extract the full feature vector for one program.
    fn extract(&self, program: &Program) -> FeatureVector;

    /// Digest of the collector *set* actually wired into this extractor
    /// (collector names, engine revision, …). The incremental engine salts
    /// its per-function keys with it, so an entry built by one collector
    /// set is never served to another. Default: 0.
    fn fingerprint(&self) -> u64 {
        0
    }

    /// Drain the per-collector wall-time breakdown accumulated since the
    /// last call: `(collector name, micros)`, summed across programs and
    /// workers. [`extract_batch`] folds it into
    /// [`PipelineReport::collectors`]. Default: empty (no breakdown).
    fn take_collector_timings(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// The schema-stable vector substituted when extraction fails (every
    /// feature name present, typically all zeros). The default is an
    /// empty vector, which is only schema-stable for schema-less
    /// extractors — real extractors should override.
    fn degraded(&self) -> FeatureVector {
        FeatureVector::new()
    }
}

/// Closures are extractors too (handy in tests and ad-hoc sweeps).
impl<F> Extractor for F
where
    F: Fn(&Program) -> FeatureVector + Sync,
{
    fn extract(&self, program: &Program) -> FeatureVector {
        self(program)
    }
}

/// Extract every program on `jobs` workers (0 = one per available core).
/// Vectors come back in input order; the batch always completes — a
/// program whose extraction panics gets [`Extractor::degraded`] and an
/// entry in [`PipelineReport::errors`].
pub fn extract_batch<E: Extractor>(
    extractor: &E,
    programs: &[&Program],
    jobs: usize,
) -> (Vec<FeatureVector>, PipelineReport) {
    let start = Instant::now();
    let workers = if jobs == 0 { default_workers() } else { jobs };
    let outcomes = parallel_map(workers, programs, |_, program| {
        fault::guarded_extract(extractor, program)
    });
    let mut report = PipelineReport {
        programs: programs.len(),
        jobs: workers.clamp(1, programs.len().max(1)),
        ..PipelineReport::default()
    };
    let vectors = programs
        .iter()
        .zip(outcomes)
        .map(|(program, outcome)| {
            report.extract += outcome.took;
            if let Some(error) = outcome.error {
                report.errors.push((program.name.clone(), error));
            }
            outcome.features
        })
        .collect();
    report.collectors = extractor.take_collector_timings();
    report.wall = start.elapsed();
    (vectors, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::Dialect;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn corpus() -> Vec<Program> {
        (0..6)
            .map(|i| {
                let files = vec![(
                    "m.c".to_string(),
                    format!("fn f{i}(a: int) -> int {{ return a + {i}; }}"),
                )];
                minilang::parse_program(&format!("app-{i}"), Dialect::C, &files).unwrap()
            })
            .collect()
    }

    fn toy_extractor(program: &Program) -> FeatureVector {
        [
            ("toy.name_len".to_string(), program.name.len() as f64),
            ("toy.modules".to_string(), program.modules.len() as f64),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn batch_outputs_preserve_input_order() {
        let apps = corpus();
        let refs: Vec<&Program> = apps.iter().collect();
        let (vectors, report) = extract_batch(&toy_extractor, &refs, 3);
        let direct: Vec<FeatureVector> = apps.iter().map(toy_extractor).collect();
        assert_eq!(vectors, direct);
        assert!(report.errors.is_empty());
        assert_eq!((report.programs, report.jobs), (6, 3));
    }

    #[test]
    fn one_panicking_program_degrades_alone() {
        struct Brittle;
        impl Extractor for Brittle {
            fn extract(&self, program: &Program) -> FeatureVector {
                if program.name == "app-3" {
                    panic!("collector bug on {}", program.name);
                }
                toy_extractor(program)
            }
            fn degraded(&self) -> FeatureVector {
                [
                    ("toy.name_len".to_string(), 0.0),
                    ("toy.modules".to_string(), 0.0),
                ]
                .into_iter()
                .collect()
            }
        }
        let apps = corpus();
        let refs: Vec<&Program> = apps.iter().collect();
        let (vectors, report) = extract_batch(&Brittle, &refs, 2);
        assert_eq!(vectors.len(), 6, "batch survives the panic");
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].0, "app-3");
        assert_eq!(vectors[3], Brittle.degraded());
        assert_eq!(vectors[3].names(), vectors[0].names(), "schema-stable");
    }

    #[test]
    fn degraded_vectors_are_not_cached() {
        struct FailOnce {
            failed: AtomicUsize,
        }
        impl Extractor for FailOnce {
            fn extract(&self, program: &Program) -> FeatureVector {
                if program.name == "app-0" && self.failed.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                toy_extractor(program)
            }
        }
        let apps = corpus();
        let refs: Vec<&Program> = apps.iter().collect();
        let extractor = FailOnce {
            failed: AtomicUsize::new(0),
        };
        let (first, report) = extract_batch(&extractor, &refs, 1);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(first[0], FeatureVector::new());
        // The driver keeps nothing between batches: the transient failure
        // heals on the next call.
        let (second, report) = extract_batch(&extractor, &refs, 1);
        assert!(report.errors.is_empty());
        assert_eq!(second[0], toy_extractor(&apps[0]));
    }

    #[test]
    fn parallel_equals_sequential() {
        let apps = corpus();
        let refs: Vec<&Program> = apps.iter().collect();
        let (sequential, _) = extract_batch(&toy_extractor, &refs, 1);
        let (parallel, _) = extract_batch(&toy_extractor, &refs, 4);
        assert_eq!(sequential, parallel);
    }
}
