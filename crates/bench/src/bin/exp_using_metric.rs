//! EXP-METRIC: using the metric (§5.3) — evaluate held-out applications,
//! compare two candidate libraries, gate a code change, and show the
//! per-feature attributions that make the prediction actionable.

use clairvoyant::prelude::*;
use clairvoyant::report::security_report_json;
use cvedb::SelectionCriteria;

fn main() {
    let corpus = bench::experiment_corpus();
    // Hold out the last few selected applications from training.
    let selected = corpus.db.select(&SelectionCriteria::default());
    let holdout: Vec<&str> = selected
        .iter()
        .rev()
        .take(3)
        .map(|h| h.app.as_str())
        .collect();
    println!("== EXP-METRIC: applying the trained metric (§5.3) ==\n");

    let (model, train_report) = Trainer::new().train_with_report(&corpus);
    println!("BENCH_PIPELINE {}", train_report.extraction.to_json());
    let model = model.compile();

    println!("--- held-out application reports ---");
    for name in &holdout {
        let app = corpus
            .apps
            .iter()
            .find(|a| a.spec.name == *name)
            .expect("app exists");
        let truth = corpus.db.history(name).expect("history exists");
        let report = model.evaluate_program(&app.program, 1);
        println!(
            "{name}: predicted {:.1} vulns (actual {}), risk {:.0}/100",
            report.predicted_vulnerabilities,
            truth.total,
            report.risk_score()
        );
        for a in report.attributions.iter().take(3) {
            println!("    driver: {:<28} {:+.3}", a.feature, a.contribution);
        }
    }

    println!("\n--- A/B library selection ---");
    let risky = parse_program(
        "lib-a",
        Dialect::C,
        &[(
            "a.c".into(),
            "@endpoint(network) fn api(req: str) { let b: str[32]; strcpy(b, req); printf(req); }"
                .into(),
        )],
    )
    .expect("parses");
    let safe = parse_program(
        "lib-b",
        Dialect::C,
        &[(
            "b.c".into(),
            "@endpoint(network) fn api(req: str) { if strlen(req) > 31 { return; } \
             let b: str[32]; strncpy(b, req, 31); log_msg(b); }"
                .into(),
        )],
    )
    .expect("parses");
    let cmp = compare_programs(&model, &risky, &safe, 1);
    println!("{cmp}");

    println!("\n--- CI gate on a code change ---");
    let delta = version_delta(&model, &safe, &risky, 1);
    println!("{delta}");

    println!("\n--- machine-readable output ---");
    println!(
        "{}",
        security_report_json(&model.evaluate_program(&safe, 1))
    );
}
