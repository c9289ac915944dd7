//! Fault isolation for one program's extraction.
//!
//! A corpus sweep must survive any single program: a panicking collector
//! yields a degraded-but-schema-stable vector plus a recorded
//! [`PipelineError`] — the batch never dies. Panics are contained with
//! `catch_unwind`; the payload message is preserved in the error.
//!
//! There is no wall-clock budget: a worker thread cannot be pre-empted
//! safely, so a check after the extractor returns could not stop a
//! runaway program. Bounds belong in front of and inside the analyses
//! (the parser's nesting and expression depth limits are one).

use crate::report::PipelineError;
use crate::Extractor;
use minilang::ast::Program;
use static_analysis::FeatureVector;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The outcome of one guarded extraction.
pub(crate) struct GuardedOutcome {
    pub features: FeatureVector,
    pub error: Option<PipelineError>,
    pub took: Duration,
}

/// Run `extractor` over `program` under a panic guard. On a panic the
/// extractor's schema-stable [`Extractor::degraded`] vector is
/// substituted.
pub(crate) fn guarded_extract<E: Extractor>(extractor: &E, program: &Program) -> GuardedOutcome {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| extractor.extract(program)));
    let took = start.elapsed();

    match result {
        Ok(features) => GuardedOutcome {
            features,
            error: None,
            took,
        },
        Err(payload) => GuardedOutcome {
            features: extractor.degraded(),
            // `&*payload`, not `&payload`: a `&Box<dyn Any>` would unsize
            // to a `&dyn Any` wrapping the box itself and every downcast
            // would miss.
            error: Some(PipelineError::Panicked(panic_message(&*payload))),
            took,
        },
    }
}

/// Best-effort extraction of the panic payload message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flaky;

    impl Extractor for Flaky {
        fn extract(&self, program: &Program) -> FeatureVector {
            if program.name == "bad" {
                panic!("injected failure in {}", program.name);
            }
            [("f.ok".to_string(), 1.0)].into_iter().collect()
        }

        fn degraded(&self) -> FeatureVector {
            [("f.ok".to_string(), 0.0)].into_iter().collect()
        }
    }

    fn program(name: &str) -> Program {
        minilang::parse_program(
            name,
            minilang::Dialect::C,
            &[("m.c".into(), "fn f() { }".into())],
        )
        .unwrap()
    }

    #[test]
    fn clean_extraction_passes_through() {
        let out = guarded_extract(&Flaky, &program("good"));
        assert!(out.error.is_none());
        assert_eq!(out.features.get("f.ok"), Some(1.0));
    }

    #[test]
    fn panic_degrades_with_message() {
        let out = guarded_extract(&Flaky, &program("bad"));
        assert_eq!(
            out.features.get("f.ok"),
            Some(0.0),
            "degraded vector is schema-stable"
        );
        match out.error {
            Some(PipelineError::Panicked(msg)) => {
                assert!(msg.contains("injected failure"), "got: {msg:?}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
}
