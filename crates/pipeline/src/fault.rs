//! The one panic guard.
//!
//! [`guard`] runs a closure under `catch_unwind` and turns a panic into a
//! [`PipelineError`] carrying the payload message. Every long-lived or
//! batch caller that must survive one bad input goes through it:
//! [`crate::extract_batch`] (a panicking program gets the extractor's
//! degraded-but-schema-stable vector and a recorded error — the batch
//! never dies), the serve shard's per-job input resolution and its
//! per-batch scoring, and `clairvoyant watch`'s rescore loop.
//!
//! One-shot commands (`evaluate`, `explain`, `compare`, `gate`,
//! `features`) are deliberately not guarded: a panic there ends the
//! process with a nonzero exit. Degrading instead would score the
//! all-zero vector, and a CI gate could pass a broken version.
//!
//! There is no wall-clock budget: a worker thread cannot be pre-empted
//! safely, so a check after the closure returns could not stop a
//! runaway program. Bounds belong in front of and inside the analyses
//! (the parser's nesting and expression depth limits are one).

use crate::report::PipelineError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f`, returning its value, or the panic it raised as a
/// [`PipelineError::Panicked`] with the payload message. The caller owns
/// recovery: state `f` may have left half-updated must be replaced.
pub fn guard<T>(f: impl FnOnce() -> T) -> Result<T, PipelineError> {
    // `&*payload`, not `&payload`: a `&Box<dyn Any>` would unsize to a
    // `&dyn Any` wrapping the box itself and every downcast would miss.
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| PipelineError::Panicked(panic_message(&*payload)))
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
    use crate::Extractor;
    use minilang::ast::Program;
    use static_analysis::FeatureVector;

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
        let features = guard(|| Flaky.extract(&program("good"))).unwrap();
        assert_eq!(features.get("f.ok"), Some(1.0));
    }

    #[test]
    fn panic_degrades_with_message() {
        let injected = PipelineError::Panicked("injected failure in bad".into());
        assert_eq!(
            guard(|| Flaky.extract(&program("bad"))),
            Err(injected.clone())
        );
        assert_eq!(
            guard(|| -> u32 { panic!("static payload") }),
            Err(PipelineError::Panicked("static payload".into()))
        );

        // The batch driver substitutes the schema-stable degraded vector.
        let (good, bad) = (program("good"), program("bad"));
        let (vectors, report) = crate::extract_batch(&Flaky, &[&good, &bad], 1);
        assert_eq!(vectors[0].get("f.ok"), Some(1.0));
        assert_eq!(
            vectors[1].get("f.ok"),
            Some(0.0),
            "degraded vector is schema-stable"
        );
        assert_eq!(report.errors, vec![("bad".to_string(), injected)]);
    }
}
