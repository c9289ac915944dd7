//! EXP-DYN: does the paper's proposed dynamic-trace improvement (§5.3)
//! actually help? Compares the cross-validated count regression of the
//! static-only unified model against static + `dyn.*` features, and shows
//! which dynamic signals carry weight.

use clairvoyant::dynamic::dynamic_features;
use clairvoyant::extract::extract_apps;
use cvedb::SelectionCriteria;
use secml::dataset::ColMatrix;
use secml::eval::cross_validate_regressor;
use secml::linreg::LinearRegression;
use secml::preprocess::{log1p_rows, Standardizer};

fn main() {
    let corpus = bench::experiment_corpus();
    let histories = corpus.db.select(&SelectionCriteria::default());
    println!("== EXP-DYN: static vs static+dynamic features ==\n");

    let apps: Vec<&corpus::GeneratedApp> = histories
        .iter()
        .map(|h| {
            corpus
                .apps
                .iter()
                .find(|a| a.spec.name == h.app)
                .expect("app exists")
        })
        .collect();
    let extraction = extract_apps(apps.iter().copied(), 0);
    println!("BENCH_PIPELINE {}", extraction.report.to_json());

    let mut static_rows: Vec<Vec<f64>> = Vec::new();
    let mut extended_rows: Vec<Vec<f64>> = Vec::new();
    let mut dyn_totals: Vec<(String, f64, f64)> = Vec::new();
    let mut counts: Vec<f64> = Vec::new();
    for (h, app) in histories.iter().zip(&apps) {
        let fv = extraction.get(&h.app).expect("extracted").clone();
        let dynamic = dynamic_features(&app.program);
        dyn_totals.push((
            h.app.clone(),
            dynamic.get_or_zero("dyn.oob_writes"),
            dynamic.get_or_zero("dyn.tainted_sink_calls"),
        ));
        let mut both = fv.clone();
        both.merge(&dynamic);
        static_rows.push(fv.iter().map(|(_, v)| v).collect());
        extended_rows.push(both.iter().map(|(_, v)| v).collect());
        counts.push((h.total as f64).log10());
    }

    let prep = |rows: &mut Vec<Vec<f64>>| {
        log1p_rows(rows);
        let st = Standardizer::fit(rows);
        st.transform(rows);
    };
    prep(&mut static_rows);
    prep(&mut extended_rows);

    let static_matrix = ColMatrix::from_rows(&static_rows);
    let extended_matrix = ColMatrix::from_rows(&extended_rows);
    let static_cv =
        cross_validate_regressor(|| LinearRegression::ridge(1.0), &static_matrix, &counts, 5);
    let extended_cv = cross_validate_regressor(
        || LinearRegression::ridge(1.0),
        &extended_matrix,
        &counts,
        5,
    );

    println!(
        "count regression (log10 CVEs), 5-fold CV over {} apps:",
        counts.len()
    );
    println!(
        "  static only      R² = {:.3}  MAE = {:.3}",
        static_cv.r_squared, static_cv.mae
    );
    println!(
        "  static + dynamic R² = {:.3}  MAE = {:.3}",
        extended_cv.r_squared, extended_cv.mae
    );
    let delta = extended_cv.r_squared - static_cv.r_squared;
    println!(
        "  ΔR² = {delta:+.3} — {}",
        if delta > 0.0 {
            "dynamic traces add signal, as §5.3 hypothesizes"
        } else {
            "no measurable gain at this scale (the static testbed already covers it)"
        }
    );

    println!("\ndynamic evidence per app (top 8 by runtime OOB writes):");
    dyn_totals.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for (app, oob, sinks) in dyn_totals.iter().take(8) {
        println!("  {app:<22} oob_writes={oob:<4} tainted_sink_calls={sinks}");
    }
}
