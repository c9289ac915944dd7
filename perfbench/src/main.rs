//! The repository's system benchmark.
//!
//! ```text
//! perfbench --workload <retrain|serve_vectors|serve_sources> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against the system's public API, checks its
//! outputs, and prints a report followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Any
//! output-gate mismatch makes the exit code non-zero. See README.md for
//! the workloads, the metrics and how each is measured.

mod layers;
mod loadgen;
mod retrain;
mod serving;
mod stats;
mod system;
mod trace;

use layers::{Layers, Source, RUN_ROOT};
use rand::derive_seed;
use serving::{Kind, ServeSpec};
use stats::Timing;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use trace::Tracer;

/// The seed the recorded fingerprint below belongs to.
const DEFAULT_SEED: u64 = 1;
/// CLVY fingerprint of the `retrain` model at [`DEFAULT_SEED`].
const DEFAULT_SEED_FINGERPRINT: &str = "02ddec8fb101e219";
/// Applications in the `retrain` population.
const RETRAIN_APPS: usize = 500;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// `serve_vectors`: rates frozen at about 30% and 70% of the default
/// seed's capacity (about 7500 req/s); capacity steps above that.
const VECTORS: ServeSpec = ServeSpec {
    size: 48,
    low_rps: 2200.0,
    high_rps: 5200.0,
    ladder: &[
        6000.0, 7000.0, 8000.0, 9000.0, 10200.0, 11500.0, 13000.0, 14600.0, 16400.0,
    ],
    p99_limit_ms: 50.0,
};

/// `serve_sources`: rates at about 30% and 70% of the median capacity
/// over seeds 1–8 (about 110 req/s), since source traffic's cost varies
/// by seed far more than vectors' (33 to 212 req/s over those seeds;
/// seed 1 alone read 109 to 212 between runs). The limit
/// is looser than `serve_vectors`': one cold 1.6 kloc program takes tens
/// of milliseconds by itself.
const SOURCES: ServeSpec = ServeSpec {
    size: 64,
    low_rps: 35.0,
    high_rps: 75.0,
    ladder: &[90.0, 105.0, 120.0, 140.0, 160.0, 185.0, 215.0, 250.0, 290.0],
    p99_limit_ms: 100.0,
};

const WORKLOADS: [&str; 3] = ["retrain", "serve_vectors", "serve_sources"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One `"name": {"value": v, "unit": u}` pair.
pub fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Whether every [`reset_peak_rss`] so far took effect.
static PEAK_RSS_RESET: AtomicBool = AtomicBool::new(true);

/// Reset `VmHWM` to the current resident set (Linux 4.0 and later), so
/// [`peak_rss_mb`] reads the peak of what runs from here on rather than
/// of the whole process. Free heap pages go back to the system first:
/// what earlier work freed but the allocator kept resident would
/// otherwise set the floor, and how much it kept varies from run to run.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain integer, touches
        // only the allocator's own free lists under its locks, and may be
        // called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        PEAK_RSS_RESET.store(false, Ordering::SeqCst);
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`), since the
/// last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a workload reports end to end.
struct Outcome {
    peak_rss_mb: f64,
    attempted: usize,
    failed: usize,
    correct: bool,
    lines: Vec<String>,
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let out_root = PathBuf::from(".bench_out");
    let out = out_root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let result = measure(&args, &out);
    let _ = std::fs::remove_dir_all(&out);
    let (outcome, setup_s, layers, tracer) = result?;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let setup_median = stats::median(&setup_s);
    println!(
        "e2e setup_s {setup_median} s (median of {} set-ups: {:?})",
        setup_s.len(),
        setup_s
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    let rss = outcome.peak_rss_mb;
    println!(
        "e2e peak_rss_mb {rss} MB (VmHWM of the benchmark process, daemon included, from the \
         start to the end of the measured work{})",
        if PEAK_RSS_RESET.load(Ordering::SeqCst) {
            ""
        } else {
            "; VmHWM could not be reset, so this is the whole process's peak"
        }
    );
    println!(
        "requests attempted={} succeeded={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed,
        stats::Ratio::new(outcome.failed as f64, outcome.attempted as f64)
    );
    println!("gates {}", if outcome.correct { "pass" } else { "FAIL" });

    let metrics: Vec<String> = if args.trace {
        for line in layers.lines() {
            println!("{line}");
        }
        let spans_path = out_root.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&spans_path) {
            Ok(()) => println!(
                "trace {} spans written to {}",
                tracer.spans().len(),
                spans_path.display()
            ),
            Err(e) => println!("trace spans not written: {e}"),
        }
        layers.json_pairs()
    } else {
        vec![
            metric_json("setup_s", setup_median, "s"),
            metric_json("peak_rss_mb", rss, "MB"),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    Ok(outcome.correct)
}

type Measured = (Outcome, Vec<f64>, Layers, Tracer);

fn measure(args: &Args, out: &Path) -> Result<Measured, String> {
    let tracer = Tracer::new(args.trace);
    let mut layers = Layers::default();
    let schema = retrain::schema();

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut sys: Option<system::System> = None;
    for _ in 0..repeats {
        if let Some(previous) = sys.take() {
            previous.shutdown();
        }
        let up = system::bring_up(&tracer, &mut layers, out, &schema)?;
        setup_s.push(up.setup_s);
        sys = Some(up);
    }
    let sys = sys.expect("at least one set-up");
    if let Err(e) = system::probe(&sys, &tracer, &mut layers) {
        sys.shutdown();
        return Err(e);
    }

    let outcome = match args.workload.as_str() {
        "retrain" => {
            sys.shutdown();
            run_retrain(args, out, &schema, &tracer, &mut layers)?
        }
        name => {
            let (kind, spec) = if name == "serve_vectors" {
                (Kind::Vectors, &VECTORS)
            } else {
                (Kind::Sources, &SOURCES)
            };
            let root = tracer.span(RUN_ROOT, 0);
            let run = serving::workload(
                kind,
                spec,
                args.seed,
                args.seconds,
                sys.addr,
                &sys.offline,
                &tracer,
            );
            drop(root);
            sys.shutdown();
            serve_outcome(spec, &run?, &tracer, &mut layers)
        }
    };
    Ok((outcome, setup_s, layers, tracer))
}

fn run_retrain(
    args: &Args,
    out: &Path,
    schema: &[String],
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    let stream = retrain::population(derive_seed(args.seed, 0x002e_72a1), RETRAIN_APPS);
    let trainer = retrain::trainer();
    let off = Tracer::new(false);
    let mut untraced: Vec<retrain::Round> = Vec::new();
    let mut traced: Vec<retrain::Round> = Vec::new();
    let mut lines = Vec::new();
    let mut first_fp = String::new();
    let mut first_rows = None;
    let mut mismatched_rounds = 0;
    let mut gates_ok = true;

    reset_peak_rss();
    let root = tracer.span(RUN_ROOT, 0);
    let start = std::time::Instant::now();
    let min_rounds = if args.trace { 4 } else { 3 };
    let mut k = 0;
    loop {
        // Traced runs alternate untraced and traced rounds, so the
        // difference of their medians is the tracing overhead.
        let traced_round = args.trace && k % 2 == 1;
        let tr = if traced_round { tracer } else { &off };
        let mut round = retrain::round(
            &stream,
            schema,
            &trainer,
            &out.join(format!("spill-{k}")),
            tr,
            k == 0,
        )
        .map_err(|e| format!("retrain round {k}: {e}"))?;
        let fp = retrain::fingerprint(&round.model_bytes);
        if k == 0 {
            first_fp = fp;
            first_rows = round.kept.take();
        } else if fp != first_fp {
            mismatched_rounds += 1;
            gates_ok = false;
        }
        if traced_round {
            retrain::score_split(tracer, &round);
        }
        round.apps_fv = Vec::new();
        let wall = round.wall_s;
        if traced_round {
            traced.push(round);
        } else {
            untraced.push(round);
        }
        k += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if k >= min_rounds && elapsed + wall > args.seconds {
            break;
        }
    }
    drop(root);
    let rss = peak_rss_mb();

    // Output gates, after the peak was read: the twin trains in RAM.
    let twin =
        retrain::twin_fingerprint(schema, first_rows.as_ref().expect("round 0 kept its rows"));
    let twin_ok = twin == first_fp;
    lines.push(format!(
        "gate retrain CLVY {first_fp} vs in-RAM twin {twin}: {}",
        if twin_ok { "equal" } else { "DIFFER" }
    ));
    gates_ok &= twin_ok;
    if args.seed == DEFAULT_SEED {
        let recorded = first_fp == DEFAULT_SEED_FINGERPRINT;
        lines.push(format!(
            "gate retrain CLVY {first_fp} vs recorded {DEFAULT_SEED_FINGERPRINT}: {}",
            if recorded { "equal" } else { "DIFFER" }
        ));
        gates_ok &= recorded;
    }

    let (rate, rows) = retrain::summarize(&untraced);
    let rows = rows.expect("rounds extracted apps");
    let r0 = &untraced[0];
    lines.push(format!(
        "throughput retrain_apps_per_s {rate} 1/s ({} population apps / round wall, \
         median of {} rounds; {} selected and extracted per round)",
        r0.apps,
        untraced.len(),
        r0.selected
    ));
    lines.push(format!(
        "latency per-app row (materialize + cold extract): {}",
        rows.show("ms")
    ));
    lines.push(format!(
        "rounds wall s: {:?}",
        untraced
            .iter()
            .map(|r| (r.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    if args.trace {
        let (traced_rate, _) = retrain::summarize(&traced);
        let wall =
            |rs: &[retrain::Round]| stats::median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let (tw, uw) = (wall(&traced), wall(&untraced));
        lines.push(format!(
            "trace overhead: traced round {tw:.4} s vs untraced {uw:.4} s = {:+.4} s ({:+.2}%); \
             traced rate {traced_rate} 1/s",
            tw - uw,
            (tw - uw) / uw * 100.0
        ));
        let spans = tracer.spans();
        let run_part = layers::part(&spans, Source::Run);
        let unaccounted: Vec<f64> = spans
            .iter()
            .zip(trace::self_times(&spans))
            .zip(&run_part)
            .filter(|((s, _), run)| **run && s.name == "retrain.round")
            .map(|((s, t), _)| t as f64 / s.dur_ns().max(1) as f64)
            .collect();
        lines.push(format!(
            "trace unaccounted: {:.4}% of each traced round is outside its layer spans (median of {})",
            stats::median(&unaccounted) * 100.0,
            unaccounted.len()
        ));
        for (layer, ns) in trace::self_by_layer(&spans, &run_part) {
            lines.push(format!(
                "trace self-time {layer} {:.4} s (all traced rounds)",
                ns as f64 / 1e9
            ));
        }
        retrain::layer_metrics(layers, &traced, &spans, Source::Run);
    }
    let attempted = (untraced.len() + traced.len()) * r0.apps;
    let per_round = |f: fn(&Timing) -> f64| {
        stats::median(
            &untraced
                .iter()
                .filter_map(|r| Timing::of(&r.row_ms))
                .map(|t| f(&t))
                .collect::<Vec<_>>(),
        )
    };
    let (p50, p99) = (per_round(|t| t.p50), per_round(|t| t.p99));
    lines.push(format!(
        "latency p50_ms {p50} ms, p99_ms {p99} ms (per-app row latency; medians over rounds of each round's p50 and p99)"
    ));
    Ok(Outcome {
        peak_rss_mb: rss,
        attempted,
        failed: mismatched_rounds * r0.apps,
        correct: gates_ok,
        lines,
    })
}

fn serve_outcome(
    spec: &ServeSpec,
    run: &serving::ServeRun,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Outcome {
    let mut lines = vec![format!(
        "inputs generated in {:.3} s; p99 limit {} ms; open loop, 2 connections, evenly spaced arrivals",
        run.inputs_s, spec.p99_limit_ms
    )];
    lines.extend(run.source_mix.clone());
    for p in &run.phases {
        let s = &p.stats;
        lines.push(format!(
            "phase {} offered {} rps for {} s: sent {} ok {} failed {}; latency from due {}; \
             server p50 <= {} us p99 <= {} us; lateness {}; backlog mid {} end {} (allowance {:.1}); \
             p99 incl. failures {} ms; {}",
            p.label,
            s.rate,
            s.seconds,
            s.sent,
            s.ok,
            s.failed,
            s.latency.map_or("none".into(), |t| t.show("ms")),
            p.delta.server_quantile_us(0.5),
            p.delta.server_quantile_us(0.99),
            s.lateness.map_or("none".into(), |t| t.show("ms")),
            s.backlog_mid,
            s.backlog_end,
            s.backlog_allowance(spec.p99_limit_ms),
            s.p99_all_ms,
            if s.passes(spec.p99_limit_ms) { "meets limit" } else { "misses limit" }
        ));
    }
    let c = run.capacity;
    lines.push(format!(
        "throughput capacity_rps {} 1/s (highest offered rate meeting p99 <= {} ms with no growing \
         backlog; last pass {:?}, first miss {:?})",
        c.rps, spec.p99_limit_ms, c.passed, c.failed
    ));
    let fixed: Vec<&serving::Phase> = run.phases.iter().filter(|p| p.is_fixed()).collect();
    let timing = |label: &str| -> Option<Timing> {
        fixed
            .iter()
            .find(|p| p.label == label)
            .and_then(|p| p.stats.latency)
    };
    let phase = |label: &str| fixed.iter().find(|p| p.label == label).map(|p| &p.stats);
    for label in ["low", "high"] {
        if let (Some(s), Some(t)) = (phase(label), timing(label)) {
            lines.push(format!(
                "latency p50_ms_{label} {} ms, p99_ms_{label} {} ms (medians over {} s windows of per-window \
                 p50 {:?} and p99 {:?}; whole phase {})",
                s.typical_p50(),
                s.typical_p99(),
                loadgen::WINDOW_S,
                s.window_p50,
                s.window_p99,
                t.show("ms")
            ));
        }
    }
    lines.push(format!(
        "gate scratch renders: {} of {} responses differ",
        run.mismatches,
        run.phases.iter().map(|p| p.sent.len()).sum::<usize>()
    ));
    let mut correct = run.mismatches == 0;
    if let Some(r) = &run.replay {
        correct &= r.mismatches == 0;
        lines.push(format!(
            "gate replay (warm engines in shard order, micro-batches of {}): {} differ; \
             warm hits {} misses {} rebuilt {} over {} sources",
            r.batch, r.mismatches, r.incr.hits, r.incr.misses, r.incr.rebuilt, r.incr.sources
        ));
        lines.push(format!(
            "trace overhead: replay traced {:.4} s vs untraced {:.4} s = {:+.2}%; client-side request \
             spans are built from the records an untraced run keeps anyway",
            r.traced_s,
            r.untraced_s,
            (r.traced_s - r.untraced_s) / r.untraced_s.max(1e-9) * 100.0
        ));
        lines.push(format!(
            "trace unaccounted: {:.4} s of the {:.4} s replay is outside its layer spans ({:.3}%)",
            r.unaccounted_s,
            r.traced_s,
            r.unaccounted_s / r.traced_s.max(1e-9) * 100.0
        ));
        let spans = tracer.spans();
        serving::layer_metrics(layers, run, &spans, Source::Run);
    }
    let attempted: usize = fixed.iter().map(|p| p.stats.sent).sum();
    let failed: usize = fixed.iter().map(|p| p.stats.failed).sum();
    Outcome {
        peak_rss_mb: run.peak_rss_mb,
        attempted,
        failed,
        correct,
        lines,
    }
}
