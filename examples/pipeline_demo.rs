//! Extraction driver demo: parallel speedup and fault isolation over a
//! 24-application corpus.
//!
//! ```text
//! cargo run --release --example pipeline_demo
//! ```
//!
//! Prints the two acceptance numbers:
//!
//! 1. 4-worker extraction vs sequential (the ≥2× target needs ≥4 real
//!    cores — the demo reports the machine's core count alongside);
//! 2. an injected panicking collector degrading one program while the
//!    other 23 extract normally.

use clairvoyant::extract::extract_corpus;
use clairvoyant::prelude::*;
use minilang::ast::Program;
use pipeline::Extractor;
use static_analysis::FeatureVector;
use std::time::Instant;

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("== extraction driver demo ({cores} core(s) available) ==\n");

    let mut config = CorpusConfig::small(24, 20177);
    config.max_kloc = 2.0;
    let corpus = Corpus::generate(&config);
    println!("corpus: {} applications\n", corpus.apps.len());

    // 1. Sequential vs 4 workers.
    let start = Instant::now();
    let seq = extract_corpus(&corpus, 1);
    let seq_time = start.elapsed();
    let start = Instant::now();
    let par = extract_corpus(&corpus, 4);
    let par_time = start.elapsed();
    assert_eq!(
        seq.features, par.features,
        "parallel must be byte-identical"
    );
    let speedup = seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9);
    println!("1. parallel speedup (byte-identical outputs)");
    println!(
        "   sequential: {:>7.2?}  ({:.1} programs/sec)",
        seq_time,
        seq.report.throughput()
    );
    println!(
        "   4 workers:  {:>7.2?}  ({:.1} programs/sec)",
        par_time,
        par.report.throughput()
    );
    println!(
        "   speedup: {speedup:.2}x {}",
        if cores >= 4 {
            if speedup >= 2.0 {
                "— meets the ≥2x target"
            } else {
                "— BELOW the ≥2x target"
            }
        } else {
            "(≥2x target needs ≥4 cores; this machine cannot show it)"
        }
    );
    println!("   BENCH_PIPELINE {}\n", par.report.to_json());

    // 2. Fault isolation: one collector panics; the batch survives.
    let victim = corpus.apps[3].spec.name.clone();
    struct Sabotaged(Testbed, String);
    impl Extractor for Sabotaged {
        fn extract(&self, program: &Program) -> FeatureVector {
            if program.name == self.1 {
                panic!("injected collector failure");
            }
            self.0.extract(program)
        }
        fn degraded(&self) -> FeatureVector {
            self.0.degraded()
        }
    }
    let sabotaged = Sabotaged(Testbed::new(), victim.clone());
    let programs: Vec<&Program> = corpus.apps.iter().map(|a| &a.program).collect();
    // The injected panic is expected; keep its backtrace out of the demo
    // output (the driver still records it in the report).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (vectors, report) = pipeline::extract_batch(&sabotaged, &programs, 4);
    std::panic::set_hook(default_hook);
    let degraded: Vec<&str> = report.errors.iter().map(|(n, _)| n.as_str()).collect();
    println!("2. fault isolation (collector panics on `{victim}`)");
    println!(
        "   batch completed: {}/{} programs, {} degraded: {degraded:?}",
        vectors.len(),
        corpus.apps.len(),
        degraded.len()
    );
    for (name, error) in &report.errors {
        println!("   recorded error on `{name}`: {error}");
    }
    assert_eq!(
        degraded,
        vec![victim.as_str()],
        "exactly the sabotaged program degrades"
    );
    println!("\nboth acceptance checks ran to completion");
}
