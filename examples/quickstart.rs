//! Quickstart: train the Clairvoyant model on a synthetic CVE corpus and
//! evaluate a small web-service handler.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use clairvoyant::prelude::*;
use clairvoyant::report::security_report_json;

fn main() {
    // 1. Build the training corpus: the offline stand-in for "open-source
    //    applications with ≥5-year histories in the CVE database" (§5.1).
    println!("generating training corpus…");
    let mut config = CorpusConfig::small(20, 7);
    config.language_mix = [15, 2, 1, 2];
    let corpus = Corpus::generate(&config);
    println!(
        "  {} applications, {} CVE records",
        corpus.apps.len(),
        corpus.db.len()
    );

    // 2. Train the unified prediction model with cross-validation (Fig. 4).
    println!("training…");
    let trainer = Trainer::new();
    let (model, training_report) = trainer.train_with_report(&corpus);
    println!("{training_report}");
    // Compile the trained battery: the compiled model is what scores.
    let model = model.compile();

    // 3. Evaluate a new program the model has never seen.
    let source = r#"
        // A small request handler with a classic mistake.
        @endpoint(network)
        fn handle_request(req: str) {
            let buf: str[64];
            strcpy(buf, req);
            printf("handled request");
        }

        fn health_check() -> int {
            return 1;
        }
    "#;
    let program = parse_program(
        "my-web-service",
        Dialect::C,
        &[("src/handler.c".to_string(), source.to_string())],
    )
    .expect("example program parses");

    let report = model.evaluate_program(&program, 1);
    println!("{report}");
    println!("JSON: {}", security_report_json(&report));
}
