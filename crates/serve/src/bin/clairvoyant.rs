//! The `clairvoyant` command-line tool.
//!
//! A thin CLI over the library for day-to-day use in the §5.3 developer
//! workflow. Input files are MiniLang sources (see the `minilang` crate
//! docs for the grammar); the file extension picks the comment dialect
//! (`.c`/`.cc` → C-family, `.py` → Python, `.java` → Java).
//!
//! ```text
//! clairvoyant lint <files…>              run the bug-finding suite
//! clairvoyant features <files…>          print the testbed feature vector
//! clairvoyant evaluate [--json] <files…> train (cached-size corpus) + report
//! clairvoyant compare <fileA> <fileB>    pick the lower-risk candidate
//! clairvoyant gate <before> <after>      CI gate: exit 1 if risk rises
//! clairvoyant serve [--model PATH]       run the scoring daemon
//! clairvoyant query <op> [args…]         talk to a running daemon
//! clairvoyant longitudinal [--epochs N] [--apps N] [--serve-addr A]…
//!                                        replay an evolving corpus: stream,
//!                                        retrain per epoch, hot-redeploy
//! ```
//!
//! Commands that train the metric extract corpus features through the
//! pipeline driver and run ML training on a worker pool; `--jobs` and
//! `--train-jobs` size them. `serve`
//! and `query` speak the length-prefixed JSON protocol of the
//! `clairvoyant-serve` crate (DESIGN.md §11).

use clairvoyant::longitudinal::{replay, LongitudinalConfig};
use clairvoyant::prelude::*;
use clairvoyant::report::{explanation_json, security_report_json, Json};
use clairvoyant::{classify_delta, IncrementalTestbed, RiskChange, Testbed};
use serve::client::{error_type, is_ok, Client, Fleet};
use serve::server::{ModelState, ServeConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let (jobs, train_jobs, args) = match parse_engine_flags(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "lint" => lint(rest),
        "features" => features(rest, jobs),
        "evaluate" => evaluate(rest, jobs, train_jobs),
        "score" => score(rest, jobs, train_jobs),
        "explain" => explain(rest, jobs, train_jobs),
        "compare" => compare(rest, jobs, train_jobs),
        "gate" => gate(rest, jobs, train_jobs),
        "watch" => watch(rest, jobs, train_jobs),
        "serve" => serve_cmd(rest, jobs, train_jobs),
        "query" => query_cmd(rest),
        "longitudinal" => longitudinal_cmd(rest, jobs, train_jobs),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: clairvoyant [options] <command> [args]

commands:
  lint <files…>               run the 10-checker bug-finding suite
  features <files…>           print the testbed feature vector (97 features)
  evaluate [--json] <files…>  train the metric and print a security report
  score [--json] [--model PATH] [--save-model PATH] <files…>
                              batch-score each file as its own app through
                              the compiled inference engine; --model loads a
                              saved compiled model (skipping training),
                              --save-model persists the model for reuse
  explain [--json] [--model PATH] [--top-k N] <files…>
                              full explanation for each file: exact per-model
                              feature attributions plus ranked function
                              hotspots (--top-k, default 5); --json emits the
                              machine-readable form
  compare <fileA> <fileB>     evaluate two candidates, pick the safer one,
                              and say which code properties drive the gap
  gate [--model PATH] <before> <after>
                              CI gate: exit 1 when the change raises risk;
                              --model loads a saved compiled model instead of
                              retraining the fixed-seed corpus
  watch [--model PATH] [--once] [--interval-ms N] [--state PATH] <dir>
                              poll a project directory and incrementally
                              re-score on change (only edited functions are
                              re-analyzed); prints a gate verdict per change
                              and exits 1 when risk is RAISED. --once scores
                              a single round against the saved state file
                              (default <dir>/.clairvoyant-watch) — the CI
                              shape: baseline run, edit, verdict run
  serve [--addr A] [--model PATH] [--max-inflight N] [--batch-max N]
        [--reactor-threads N] [--batch-shards N]
                              run the scoring daemon; --model serves a saved
                              CLVY file (otherwise trains the fixed-seed
                              corpus once at startup); --reactor-threads
                              sizes the event-loop pool and --batch-shards
                              the batcher pool; prints the bound address,
                              then serves until `query shutdown`
  query [--addr A] <op>       talk to a running daemon (multi-file score and
                              explain pipeline every request over one
                              connection):
                                query health | stats | shutdown
                                query reload [model.clvy]
                                query score [--json] <files…>
                                query explain [--json] [--top-k N] <files…>
                                query compare <fileA> <fileB>
  longitudinal [--epochs N] [--apps N] [--seed N] [--window-years N]
               [--work-dir PATH] [--in-ram] [--serve-addr A]… [--json]
                              replay an evolving longitudinal corpus: stream
                              N apps per epoch (never all resident), label
                              every app, extract only selected apps with
                              new code, retrain on a sliding ground-truth
                              window (spill-to-disk matrices unless
                              --in-ram), measure model drift (stale vs fresh
                              AUC/Brier), and hot-reload each epoch's CLVY
                              into every --serve-addr daemon; --json prints
                              the deterministic drift report

options (worker pools, accepted anywhere on the command line):
  --jobs <N>                  extraction worker threads (0 = all cores)
  --train-jobs <N>            ML training worker threads (default: --jobs;
                              0 = all cores; output is identical for any N)";

/// Strip the worker-pool flags (accepted anywhere on the command line):
/// the extraction worker count (`--jobs`) and the training worker count
/// (`--train-jobs`, defaulting to `--jobs` when absent).
fn parse_engine_flags(args: Vec<String>) -> Result<(usize, usize, Vec<String>), String> {
    let mut jobs = 0;
    let mut train_jobs = 0;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a number")?;
                jobs = value
                    .parse()
                    .map_err(|_| format!("--jobs: `{value}` is not a number"))?;
            }
            "--train-jobs" => {
                let value = it.next().ok_or("--train-jobs needs a number")?;
                train_jobs = value
                    .parse()
                    .map_err(|_| format!("--train-jobs: `{value}` is not a number"))?;
            }
            _ => rest.push(arg),
        }
    }
    Ok((jobs, train_jobs, rest))
}

fn dialect_of(path: &str) -> Dialect {
    match path.rsplit('.').next() {
        Some("py") => Dialect::Python,
        Some("java") => Dialect::Java,
        Some("cc" | "cpp") => Dialect::Cpp,
        _ => Dialect::C,
    }
}

fn load_program(name: &str, paths: &[String]) -> Result<minilang::ast::Program, String> {
    if paths.is_empty() {
        return Err("no input files".to_string());
    }
    let mut files = Vec::new();
    for path in paths {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        files.push((path.clone(), source));
    }
    let dialect = dialect_of(&paths[0]);
    minilang::parse_program(name, dialect, &files).map_err(|e| format!("parse error: {e}"))
}

/// The CLI's trained model: a fixed-seed mid-size corpus, trained and
/// compiled once per invocation (a production deployment would persist
/// the model; retraining keeps this binary self-contained and
/// deterministic; `score --save-model` persists it and `--model` skips
/// training).
fn trained_model(jobs: usize, train_jobs: usize) -> CompiledModel {
    eprintln!("training the metric (fixed-seed corpus)…");
    let mut config = CorpusConfig::small(20, 20170408);
    config.language_mix = [15, 2, 1, 2];
    let corpus = Corpus::generate(&config);
    Trainer::with_config(TrainerConfig {
        jobs,
        train_jobs,
        ..Default::default()
    })
    .train(&corpus)
    .compile()
}

/// The model a scoring command runs: loaded from `model_path` when given,
/// else trained, with its kernels compiled for the whole battery up front.
fn scoring_model(
    model_path: Option<&Path>,
    jobs: usize,
    train_jobs: usize,
) -> Result<CompiledModel, String> {
    let model = match model_path {
        Some(path) => {
            let model = CompiledModel::load(path)?;
            eprintln!("loaded compiled model from `{}`", path.display());
            model
        }
        None => trained_model(jobs, train_jobs),
    };
    model.optimize();
    Ok(model)
}

fn lint(paths: &[String]) -> Result<ExitCode, String> {
    let program = load_program("input", paths)?;
    let report = bugfind::MetaTool::new().run(&static_analysis::AnalysisContext::build(&program));
    for d in &report.diagnostics {
        println!("{d}");
    }
    println!(
        "{} findings ({} errors, {} warnings, {} notes)",
        report.total(),
        report.count_severity(bugfind::DiagSeverity::Error),
        report.count_severity(bugfind::DiagSeverity::Warning),
        report.count_severity(bugfind::DiagSeverity::Note),
    );
    Ok(if report.count_severity(bugfind::DiagSeverity::Error) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn features(paths: &[String], jobs: usize) -> Result<ExitCode, String> {
    let program = load_program("input", paths)?;
    // One program, so parallelism comes from fanning its functions
    // across the extraction workers; the vector is identical for any N.
    let fv = Testbed::new().with_fn_jobs(jobs).extract(&program);
    println!("{fv}");
    Ok(ExitCode::SUCCESS)
}

fn evaluate(args: &[String], jobs: usize, train_jobs: usize) -> Result<ExitCode, String> {
    let (json, paths): (bool, Vec<String>) = match args.split_first() {
        Some((flag, rest)) if flag == "--json" => (true, rest.to_vec()),
        _ => (false, args.to_vec()),
    };
    let program = load_program("input", &paths)?;
    let model = scoring_model(None, jobs, train_jobs)?;
    let report = model.evaluate_program(&program, jobs);
    if json {
        println!("{}", security_report_json(&report));
    } else {
        println!("{report}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Batch-score many programs through the compiled inference engine: each
/// input file is parsed as its own application, features are extracted on
/// the worker pool (a file whose extraction panics is scored on the
/// degraded vector, with a warning), and the whole corpus is scored in
/// one `evaluate_batch` pass.
fn score(args: &[String], jobs: usize, train_jobs: usize) -> Result<ExitCode, String> {
    let mut json = false;
    let mut model_path: Option<PathBuf> = None;
    let mut save_path: Option<PathBuf> = None;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--model" => {
                model_path = Some(PathBuf::from(it.next().ok_or("--model needs a path")?));
            }
            "--save-model" => {
                save_path = Some(PathBuf::from(it.next().ok_or("--save-model needs a path")?));
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        return Err("no input files".to_string());
    }

    let compiled = scoring_model(model_path.as_deref(), jobs, train_jobs)?;
    if let Some(path) = &save_path {
        compiled.save(path)?;
        eprintln!("saved compiled model to `{}`", path.display());
    }

    let programs: Vec<minilang::ast::Program> = paths
        .iter()
        .map(|p| load_program(p, std::slice::from_ref(p)))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&minilang::ast::Program> = programs.iter().collect();
    let (vectors, extraction) = pipeline::extract_batch(&Testbed::new(), &refs, jobs);
    for (name, error) in &extraction.errors {
        eprintln!("warning: `{name}` scored on degraded features: {error}");
    }
    let apps: Vec<(String, static_analysis::FeatureVector)> = programs
        .iter()
        .map(|p| p.name.clone())
        .zip(vectors)
        .collect();
    let reports = compiled.evaluate_batch(&apps, jobs);

    if json {
        let items: Vec<String> = reports.iter().map(security_report_json).collect();
        println!("[{}]", items.join(","));
    } else {
        println!(
            "{:<40} {:>6} {:>8} {:>8} {:>8}",
            "app", "risk", "#vulns", "cvss>7", "av:n"
        );
        for report in &reports {
            let pct = |p: Option<f64>| match p {
                Some(p) => format!("{:.0}%", p * 100.0),
                None => "-".to_string(),
            };
            println!(
                "{:<40} {:>6.1} {:>8.1} {:>8} {:>8}",
                report.app,
                report.risk_score(),
                report.predicted_vulnerabilities,
                pct(report.high_severity_risk),
                pct(report.network_risk),
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Explain each input file through the compiled engine: exact per-model
/// attributions plus ranked function hotspots.
fn explain(args: &[String], jobs: usize, train_jobs: usize) -> Result<ExitCode, String> {
    let mut json = false;
    let mut model_path: Option<PathBuf> = None;
    let mut top_k = 5usize;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--model" => {
                model_path = Some(PathBuf::from(it.next().ok_or("--model needs a path")?));
            }
            "--top-k" => {
                let value = it.next().ok_or("--top-k needs a number")?;
                top_k = value
                    .parse()
                    .map_err(|_| format!("--top-k: `{value}` is not a number"))?;
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        return Err("no input files".to_string());
    }

    let compiled = scoring_model(model_path.as_deref(), jobs, train_jobs)?;

    let mut rendered = Vec::new();
    for path in &paths {
        let program = load_program(path, std::slice::from_ref(path))?;
        let explanation = compiled.explain_program(&program, top_k, jobs);
        if json {
            rendered.push(explanation_json(&explanation));
        } else {
            println!("{explanation}");
        }
    }
    if json {
        println!("[{}]", rendered.join(","));
    }
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &[String], jobs: usize, train_jobs: usize) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare needs exactly two files".to_string());
    };
    let pa = load_program(a, std::slice::from_ref(a))?;
    let pb = load_program(b, std::slice::from_ref(b))?;
    let model = scoring_model(None, jobs, train_jobs)?;
    let cmp = compare_programs(&model, &pa, &pb, jobs);
    println!("{cmp}");
    Ok(ExitCode::SUCCESS)
}

/// Default daemon address for `serve`/`query` when `--addr` is absent.
const DEFAULT_ADDR: &str = "127.0.0.1:4747";

/// Run the scoring daemon until a `shutdown` request arrives.
fn serve_cmd(args: &[String], jobs: usize, train_jobs: usize) -> Result<ExitCode, String> {
    let mut config = ServeConfig {
        addr: DEFAULT_ADDR.to_string(),
        jobs,
        ..ServeConfig::default()
    };
    let mut model_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--model" => {
                model_path = Some(PathBuf::from(it.next().ok_or("--model needs a path")?));
            }
            "--max-inflight" => {
                let value = it.next().ok_or("--max-inflight needs a number")?;
                config.max_inflight = value
                    .parse()
                    .map_err(|_| format!("--max-inflight: `{value}` is not a number"))?;
                if config.max_inflight == 0 {
                    return Err("--max-inflight must be at least 1".into());
                }
            }
            "--batch-max" => {
                let value = it.next().ok_or("--batch-max needs a number")?;
                config.batch_max = value
                    .parse()
                    .map_err(|_| format!("--batch-max: `{value}` is not a number"))?;
                if config.batch_max == 0 {
                    return Err("--batch-max must be at least 1".into());
                }
            }
            "--reactor-threads" => {
                let value = it.next().ok_or("--reactor-threads needs a number")?;
                config.reactor_threads = value
                    .parse()
                    .map_err(|_| format!("--reactor-threads: `{value}` is not a number"))?;
                if config.reactor_threads == 0 {
                    return Err("--reactor-threads must be at least 1".into());
                }
            }
            "--batch-shards" => {
                let value = it.next().ok_or("--batch-shards needs a number")?;
                config.batch_shards = value
                    .parse()
                    .map_err(|_| format!("--batch-shards: `{value}` is not a number"))?;
                if config.batch_shards == 0 {
                    return Err("--batch-shards must be at least 1".into());
                }
            }
            other => return Err(format!("serve does not understand `{other}`")),
        }
    }
    let model = match &model_path {
        Some(path) => {
            let state = ModelState::load(path)?;
            eprintln!(
                "serving model {} from `{}`",
                state.fingerprint_hex(),
                path.display()
            );
            state
        }
        None => {
            let state = ModelState::from_model(trained_model(jobs, train_jobs));
            eprintln!("serving model {}", state.fingerprint_hex());
            state
        }
    };
    let handle = serve::start(config, model)?;
    // The bound address on stdout is the contract scripts rely on for
    // ephemeral ports (`--addr 127.0.0.1:0`).
    println!("listening on {}", handle.addr());
    handle.wait();
    eprintln!("drained and stopped");
    Ok(ExitCode::SUCCESS)
}

/// One protocol round-trip against a running daemon.
fn query_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs host:port")?.clone(),
            other => rest.push(other.to_string()),
        }
    }
    let Some((op, op_args)) = rest.split_first() else {
        return Err(
            "query needs an op: health | stats | shutdown | reload | score | explain | compare"
                .into(),
        );
    };
    let mut client = Client::connect(&addr)?;
    match op.as_str() {
        "health" => print_response(client.health()?),
        "stats" => print_response(client.stats()?),
        "shutdown" => print_response(client.shutdown()?),
        "reload" => print_response(client.reload(op_args.first().map(String::as_str))?),
        "score" => {
            let (json, paths): (bool, &[String]) = match op_args.split_first() {
                Some((flag, tail)) if flag == "--json" => (true, tail),
                _ => (false, op_args),
            };
            if paths.is_empty() {
                return Err("query score needs input files".into());
            }
            // Pipeline: every file's request goes on the wire before
            // the first response is read; the daemon answers in order.
            let mut requests = Vec::with_capacity(paths.len());
            for path in paths {
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                requests.push(Json::object(vec![
                    ("op", Json::String("score".into())),
                    ("name", Json::String(path.clone())),
                    ("source", Json::String(source)),
                    ("dialect", Json::String(dialect_name(path).into())),
                ]));
            }
            let responses = client.pipeline(&requests)?;
            let mut failed = false;
            let mut refused_busy = false;
            for (path, response) in paths.iter().zip(&responses) {
                if json {
                    println!("{response}");
                } else if is_ok(response) {
                    print_score_line(path, response);
                } else {
                    println!("{path}: error: {response}");
                }
                if !is_ok(response) {
                    if error_type(response) == Some("busy") {
                        refused_busy = true;
                    } else {
                        failed = true;
                    }
                }
            }
            // Same contract as print_response: hard failures exit 1,
            // overload-only refusals exit 3 so retry scripts can back
            // off and resubmit.
            Ok(if failed {
                ExitCode::FAILURE
            } else if refused_busy {
                ExitCode::from(3)
            } else {
                ExitCode::SUCCESS
            })
        }
        "explain" => {
            let mut json = false;
            let mut top_k = 5usize;
            let mut paths: Vec<String> = Vec::new();
            let mut args = op_args.iter();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--top-k" => {
                        let value = args.next().ok_or("--top-k needs a number")?;
                        top_k = value
                            .parse()
                            .map_err(|_| format!("--top-k: `{value}` is not a number"))?;
                    }
                    other => paths.push(other.to_string()),
                }
            }
            if paths.is_empty() {
                return Err("query explain needs input files".into());
            }
            // Pipelined like `query score`: one connection, all requests
            // on the wire back-to-back, responses read in request order.
            let mut requests = Vec::with_capacity(paths.len());
            for path in &paths {
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                requests.push(Json::object(vec![
                    ("op", Json::String("explain".into())),
                    ("name", Json::String(path.clone())),
                    ("source", Json::String(source)),
                    ("dialect", Json::String(dialect_name(path).into())),
                    ("top_k", Json::Number(top_k as f64)),
                ]));
            }
            let responses = client.pipeline(&requests)?;
            let mut failed = false;
            let mut refused_busy = false;
            for (path, response) in paths.iter().zip(&responses) {
                if json || is_ok(response) {
                    println!("{response}");
                } else {
                    println!("{path}: error: {response}");
                }
                if !is_ok(response) {
                    if error_type(response) == Some("busy") {
                        refused_busy = true;
                    } else {
                        failed = true;
                    }
                }
            }
            // Same exit contract as `query score`: busy-only refusals
            // exit 3 so retry scripts can back off and resubmit.
            Ok(if failed {
                ExitCode::FAILURE
            } else if refused_busy {
                ExitCode::from(3)
            } else {
                ExitCode::SUCCESS
            })
        }
        "compare" => {
            let [a, b] = op_args else {
                return Err("query compare needs exactly two files".into());
            };
            let read = |path: &String| {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
            };
            let (sa, sb) = (read(a)?, read(b)?);
            let response = client.compare_sources((a, &sa), (b, &sb), dialect_name(a))?;
            print_response(response)
        }
        other => Err(format!("unknown query op `{other}`")),
    }
}

/// Replay an evolving longitudinal corpus: label → extract the selected
/// apps → retrain (out-of-core) → hot-redeploy into a fleet of daemons.
fn longitudinal_cmd(args: &[String], jobs: usize, train_jobs: usize) -> Result<ExitCode, String> {
    let mut config = LongitudinalConfig {
        trainer: TrainerConfig {
            jobs,
            train_jobs,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut addrs: Vec<String> = Vec::new();
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let number = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<usize, String> {
            let value = it.next().ok_or(format!("{flag} needs a number"))?;
            value
                .parse()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match arg.as_str() {
            "--epochs" => config.epochs = number("--epochs", &mut it)?.max(1),
            "--apps" => config.stream.apps = number("--apps", &mut it)?.max(1),
            "--seed" => config.stream.seed = number("--seed", &mut it)? as u64,
            "--window-years" => {
                config.window_years = number("--window-years", &mut it)? as i32;
                if config.window_years < 6 {
                    return Err("--window-years must be at least 6 (the selection \
                                rule needs 5+ years of history)"
                        .into());
                }
            }
            "--work-dir" => {
                config.work_dir = PathBuf::from(it.next().ok_or("--work-dir needs a path")?);
            }
            "--in-ram" => config.out_of_core = false,
            "--serve-addr" => addrs.push(it.next().ok_or("--serve-addr needs host:port")?.clone()),
            "--json" => json = true,
            other => return Err(format!("longitudinal does not understand `{other}`")),
        }
    }
    let fleet = Fleet::new(addrs);
    if !fleet.is_empty() {
        // Fail fast before streaming 100k apps at an unreachable fleet.
        fleet.health_all()?;
        eprintln!("fleet healthy: {}", fleet.addrs().join(", "));
    }
    eprintln!(
        "replaying {} epoch(s) over {} app(s) ({}, work dir `{}`)…",
        config.epochs,
        config.stream.apps,
        if config.out_of_core {
            "out-of-core"
        } else {
            "in-RAM"
        },
        config.work_dir.display(),
    );
    let report = replay(&config, |epoch, path| {
        if fleet.is_empty() {
            return Ok(());
        }
        let fingerprints = fleet.reload_all(&path.to_string_lossy())?;
        eprintln!(
            "epoch {epoch}: redeployed `{}` to {} daemon(s) (model {})",
            path.display(),
            fingerprints.len(),
            fingerprints.first().map(String::as_str).unwrap_or("?"),
        );
        Ok(())
    })
    .map_err(|e| format!("replay failed: {e}"))?;
    for e in &report.epochs {
        let stale = match (e.stale_auc, e.stale_brier) {
            (Some(auc), Some(brier)) => format!("stale auc {auc:.3} brier {brier:.3}  "),
            _ => String::new(),
        };
        let line = format!(
            "epoch {} (≤{}): {} changed, {} extracted, {} trained, {} features  \
             {}fresh auc {:.3} brier {:.3}  extract {}ms retrain {}ms  model {}",
            e.epoch,
            e.cutoff_year,
            e.apps_changed,
            e.apps_extracted,
            e.trained_apps,
            e.n_features,
            stale,
            e.fresh_auc,
            e.fresh_brier,
            e.extract_ms,
            e.retrain_ms,
            e.fingerprint,
        );
        // With --json, stdout carries only the drift report; the human
        // summary (which includes wall-clock noise) moves to stderr.
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    if json {
        println!("{}", report.drift_json());
    }
    Ok(ExitCode::SUCCESS)
}

/// The wire name of a path's dialect (mirrors [`dialect_of`]).
fn dialect_name(path: &str) -> &'static str {
    match dialect_of(path) {
        Dialect::Python => "python",
        Dialect::Java => "java",
        Dialect::Cpp => "cpp",
        Dialect::C => "c",
    }
}

fn print_response(response: Json) -> Result<ExitCode, String> {
    println!("{response}");
    Ok(if is_ok(&response) {
        ExitCode::SUCCESS
    } else if error_type(&response) == Some("busy") {
        // Distinguish overload from protocol errors for retry scripts.
        ExitCode::from(3)
    } else {
        ExitCode::FAILURE
    })
}

/// Render a score response as one summary line (mirrors `score`'s table).
fn print_score_line(path: &str, response: &Json) {
    let field = |report: &Json, key: &str| -> Option<f64> {
        match report {
            Json::Object(obj) => match obj.get(key) {
                Some(Json::Number(n)) => Some(*n),
                _ => None,
            },
            _ => None,
        }
    };
    let (model, report) = match response {
        Json::Object(obj) => (obj.get("model"), obj.get("report")),
        _ => (None, None),
    };
    let model = match model {
        Some(Json::String(s)) => s.as_str(),
        _ => "?",
    };
    match report {
        Some(report) => println!(
            "{path:<40} risk {:>5.1}  #vulns {:>5.1}  (model {model})",
            field(report, "risk_score").unwrap_or(f64::NAN),
            field(report, "predicted_vulnerabilities").unwrap_or(f64::NAN),
        ),
        None => println!("{path}: malformed response: {response}"),
    }
}

fn gate(args: &[String], jobs: usize, train_jobs: usize) -> Result<ExitCode, String> {
    let mut model_path: Option<PathBuf> = None;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--model" => {
                model_path = Some(PathBuf::from(it.next().ok_or("--model needs a path")?));
            }
            other => paths.push(other.to_string()),
        }
    }
    let [before, after] = paths.as_slice() else {
        return Err("gate needs exactly two files (before, after)".to_string());
    };
    let pb = load_program("before", std::slice::from_ref(before))?;
    let pa = load_program("after", std::slice::from_ref(after))?;
    // CI shape: load a persisted compiled model (`score --save-model`)
    // instead of retraining the fixed-seed corpus on every push.
    let model = scoring_model(model_path.as_deref(), jobs, train_jobs)?;
    let delta = version_delta(&model, &pb, &pa, jobs);
    println!("{delta}");
    Ok(match delta.verdict {
        RiskChange::Raised => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    })
}

/// Known source extensions for `watch` directory scans.
const WATCH_EXTENSIONS: [&str; 5] = ["c", "cc", "cpp", "py", "java"];

/// Recursively collect the watchable source files under `dir` (sorted, so
/// module order — and therefore the merged program — is deterministic),
/// with their modification stamps. Dot-files (including the watch state
/// file) are skipped.
fn scan_sources(
    dir: &std::path::Path,
) -> Result<Vec<(PathBuf, std::time::SystemTime, u64)>, String> {
    fn walk(
        dir: &std::path::Path,
        out: &mut Vec<(PathBuf, std::time::SystemTime, u64)>,
    ) -> Result<(), String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?;
            let path = entry.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with('.'))
            {
                continue;
            }
            let meta = entry
                .metadata()
                .map_err(|e| format!("cannot stat `{}`: {e}", path.display()))?;
            if meta.is_dir() {
                walk(&path, out)?;
            } else if path
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| WATCH_EXTENSIONS.contains(&e))
            {
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                out.push((path, mtime, meta.len()));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, &mut out)?;
    out.sort();
    Ok(out)
}

/// Render the shared gate verdict line from two risk scores (exactly
/// `VersionDelta`'s Display, which `gate` prints).
fn verdict_line(before: f64, after: f64) -> (RiskChange, String) {
    let delta = after - before;
    let verdict = classify_delta(delta);
    let word = match verdict {
        RiskChange::Lowered => "LOWERED",
        RiskChange::Unchanged => "UNCHANGED",
        RiskChange::Raised => "RAISED",
    };
    (
        verdict,
        format!("risk {word}: {before:.1} → {after:.1} ({delta:+.1})"),
    )
}

/// Poll a project directory and incrementally re-score on change. The
/// per-function entry store persists across polls, so a one-function edit
/// in a large project re-analyzes one function; each re-score prints the
/// gate verdict against the previous score and the process exits 1 on
/// the first RAISED verdict (the CI-gate contract). `--once` does a
/// single round against the state file instead of looping.
fn watch(args: &[String], jobs: usize, train_jobs: usize) -> Result<ExitCode, String> {
    let mut model_path: Option<PathBuf> = None;
    let mut state_path: Option<PathBuf> = None;
    let mut once = false;
    let mut interval = std::time::Duration::from_millis(500);
    let mut dirs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--model" => {
                model_path = Some(PathBuf::from(it.next().ok_or("--model needs a path")?));
            }
            "--state" => {
                state_path = Some(PathBuf::from(it.next().ok_or("--state needs a path")?));
            }
            "--once" => once = true,
            "--interval-ms" => {
                let value = it.next().ok_or("--interval-ms needs a number")?;
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("--interval-ms: `{value}` is not a number"))?;
                interval = std::time::Duration::from_millis(ms.max(1));
            }
            other => dirs.push(other.to_string()),
        }
    }
    let [dir] = dirs.as_slice() else {
        return Err("watch needs exactly one project directory".to_string());
    };
    let dir = PathBuf::from(dir);
    if !dir.is_dir() {
        return Err(format!("`{}` is not a directory", dir.display()));
    }
    let state_path = state_path.unwrap_or_else(|| dir.join(".clairvoyant-watch"));

    let compiled = scoring_model(model_path.as_deref(), jobs, train_jobs)?;

    let project = dir
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("project")
        .to_string();
    // The resident incremental engine: the whole point of `watch` — only
    // functions whose fingerprints changed are re-analyzed per poll.
    let mut incr = IncrementalTestbed::new().with_fn_jobs(jobs);
    let rescore = |incr: &mut IncrementalTestbed| -> Result<f64, String> {
        let sources = scan_sources(&dir)?;
        let paths: Vec<String> = sources
            .iter()
            .map(|(p, _, _)| p.to_string_lossy().into_owned())
            .collect();
        let program = load_program(&project, &paths)?;
        let (fv, report) = incr.extract_stats(&program);
        eprintln!(
            "extracted {} function(s): {} cached, {} rebuilt",
            report.functions, report.hits, report.rebuilt
        );
        let reports = compiled.evaluate_batch(&[(project.clone(), fv)], jobs);
        Ok(reports[0].risk_score())
    };

    if once {
        let score = rescore(&mut incr)?;
        let previous = std::fs::read_to_string(&state_path)
            .ok()
            .and_then(|s| u64::from_str_radix(s.trim(), 16).ok())
            .map(f64::from_bits);
        std::fs::write(&state_path, format!("{:016x}\n", score.to_bits()))
            .map_err(|e| format!("cannot write `{}`: {e}", state_path.display()))?;
        return Ok(match previous {
            Some(before) => {
                let (verdict, line) = verdict_line(before, score);
                println!("{line}");
                match verdict {
                    RiskChange::Raised => ExitCode::FAILURE,
                    _ => ExitCode::SUCCESS,
                }
            }
            None => {
                println!("baseline risk {score:.1}");
                ExitCode::SUCCESS
            }
        });
    }

    let mut stamps = scan_sources(&dir)?;
    let mut score = rescore(&mut incr)?;
    println!("baseline risk {score:.1}");
    loop {
        std::thread::sleep(interval);
        let current = scan_sources(&dir)?;
        if current == stamps {
            continue;
        }
        stamps = current;
        let next = rescore(&mut incr)?;
        let (verdict, line) = verdict_line(score, next);
        println!("{line}");
        let _ = std::fs::write(&state_path, format!("{:016x}\n", next.to_bits()));
        if verdict == RiskChange::Raised {
            return Ok(ExitCode::FAILURE);
        }
        score = next;
    }
}
