//! EXP-DETECT: bug-finding tools vs ground truth (§4.2).
//!
//! The paper worries that "the concern with many bug-finding tools is a
//! high false positive rate" and proposes feeding their reports into the
//! learner anyway, to "amortize the inaccuracy of locating bugs". This
//! experiment measures the suite's actual behaviour against the corpus's
//! planted ground truth: per CWE class, how often does the checker fire on
//! applications that truly contain the class (recall) and how often on
//! applications that do not (false-positive rate)?

use bugfind::MetaTool;
use cvedb::Cwe;
use static_analysis::AnalysisContext;

fn main() {
    let corpus = bench::experiment_corpus();
    let tool = MetaTool::new();
    println!("== EXP-DETECT: checker suite vs planted ground truth ==\n");

    // The CWE classes a checker claims to hint at.
    let classes = [
        (Cwe::StackBufferOverflow, "bufcheck"),
        (Cwe::FormatString, "fmtcheck"),
        (Cwe::IntegerOverflow, "intcheck"),
        (Cwe::ImproperInputValidation, "inputcheck"),
        (Cwe::Toctou, "racecheck"),
        (Cwe::HardcodedCredentials, "credcheck"),
        (Cwe::PathTraversal, "pathcheck"),
        (Cwe::UseAfterFree, "alloccheck"),
        (Cwe::MemoryLeak, "alloccheck"),
        (Cwe::InfoExposure, "leakcheck"),
    ];

    // One meta-tool run per app, reused across classes.
    let reports: Vec<(&corpus::GeneratedApp, bugfind::MetaReport)> = corpus
        .apps
        .iter()
        .map(|a| (a, tool.run(&AnalysisContext::build(&a.program))))
        .collect();

    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8}",
        "class (checker)", "seeded", "recall", "FP rate", "reports"
    );
    for (cwe, checker) in classes {
        let mut tp = 0usize;
        let mut fn_ = 0usize;
        let mut fp = 0usize;
        let mut tn = 0usize;
        let mut total_reports = 0usize;
        for (app, report) in &reports {
            let truly_has = app.seeded.iter().any(|s| s.cwe == cwe);
            let flagged = report.count_cwe(cwe.id()) > 0;
            total_reports += report.count_cwe(cwe.id());
            match (truly_has, flagged) {
                (true, true) => tp += 1,
                (true, false) => fn_ += 1,
                (false, true) => fp += 1,
                (false, false) => tn += 1,
            }
        }
        let recall = if tp + fn_ == 0 {
            f64::NAN
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let fp_rate = if fp + tn == 0 {
            f64::NAN
        } else {
            fp as f64 / (fp + tn) as f64
        };
        println!(
            "{:<28} {:>8} {:>7.0}% {:>7.0}% {:>8}",
            format!("{cwe} ({checker})"),
            tp + fn_,
            recall * 100.0,
            fp_rate * 100.0,
            total_reports
        );
    }
    println!(
        "\nshape check: recall high for the pattern-matched classes (121, 134, 367,\n\
         798, 22, 416, 401, 200), with nonzero FP rates on some — the realistic\n\
         noise the learner is meant to amortize (§4.2)."
    );
}
