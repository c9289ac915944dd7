//! BENCH_LONGITUDINAL: 100k-app longitudinal scale-out, end to end.
//!
//! PR 10's claim is that the corpus → dataset → trainer → serve stack
//! survives a longitudinal population two orders of magnitude past the
//! seed corpus without ever holding it in RAM. This bench measures the
//! four legs of that claim:
//!
//! 1. **Streaming extraction** — epoch 0 of a [`LongitudinalStream`]
//!    (100 000 apps in the full run) flows one app at a time through
//!    ground-truth selection and feature extraction straight into
//!    spill-to-disk training; `apps_per_sec` is the streamed rate.
//! 2. **Out-of-core vs in-RAM RSS** — the streaming phase runs FIRST
//!    (peak RSS via `VmHWM`, which only ever rises), then the in-RAM
//!    baseline materializes the entire population plus the dense
//!    dataset the way `Corpus::generate` would. The full run asserts
//!    `rss_ratio < 0.25` and the two paths' models are byte-identical.
//! 3. **Retrain loop determinism** — a 3-epoch replay (500 apps) runs
//!    twice; the drift reports must match exactly, and per-epoch
//!    retrain wall time is reported.
//! 4. **Reload blackout** — the replay's epoch models hot-swap into a
//!    live daemon while pipelined clients hammer `score`; the run
//!    fails unless every response through every swap is `ok`
//!    (`blackout_dropped` must be 0).
//!
//! One `BENCH_LONGITUDINAL` JSON line prints per run. The committed
//! full-scale snapshot is `results/BENCH_LONGITUDINAL.json` (the
//! 100k-app claim); CI runs the smoke shape (3 epochs × 500 apps),
//! re-checks the equality/determinism/blackout gates, and compares
//! `rss_headroom` — the in-RAM peak over the streaming peak, a
//! machine-portable ratio like the other benches' `speedup` — against
//! the committed smoke snapshot
//! (`results/BENCH_LONGITUDINAL.smoke.json`) with a 10% floor.

use bench::harness::Criterion;
use bench::{criterion_group, criterion_main};
use clairvoyant::longitudinal::{replay, LongitudinalConfig};
use clairvoyant::prelude::*;
use corpus::StreamConfig;
use cvedb::CveDatabase;
use serve::client::{is_ok, Client};
use serve::server::{ModelState, ServeConfig};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Peak resident set size of this process so far, in kilobytes.
/// `VmHWM` is a high-water mark: it never decreases, which is why the
/// streaming phase must run before the in-RAM baseline.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status")
}

fn bench_longitudinal(_c: &mut Criterion) {
    let smoke = std::env::var("CLAIRVOYANT_BENCH_SMOKE").is_ok();
    let apps: usize = std::env::var("CLAIRVOYANT_BENCH_APPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 500 } else { 100_000 });
    let replay_apps = 500;
    let replay_epochs = 3;

    let work =
        std::env::temp_dir().join(format!("clairvoyant-longit-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create bench work dir");

    let trainer = Trainer::with_config(TrainerConfig {
        top_k_features: Some(24),
        ..Default::default()
    });

    // ---- Phase 1: streaming extraction into out-of-core training. ----
    //
    // Pass A labels every app once — its CVE trajectory, derived from
    // the synthesis plan without generating code (ground truth must be
    // complete before selection); pass B lazily materializes and
    // extracts only the selected apps, row by row,
    // inside `train_streaming` — at no point is more than one program
    // resident.
    let scfg = StreamConfig {
        apps,
        ..Default::default()
    };
    let stream = corpus::LongitudinalStream::new(scfg);

    let t_labels = Instant::now();
    let mut db = CveDatabase::new();
    let mut index_of: HashMap<String, usize> = HashMap::with_capacity(apps);
    for (i, ea) in stream.epoch(0).enumerate() {
        index_of.insert(ea.app.spec.name.clone(), i);
        for record in ea.records {
            db.insert(record);
        }
    }
    let labels_s = t_labels.elapsed().as_secs_f64();

    let histories = db.select(&trainer.config.selection);
    assert!(!histories.is_empty(), "selection produced no training apps");

    let schema: Vec<String> = {
        let fv = Testbed::new().extract(&stream.materialize(0, 0).0.program);
        let mut names: Vec<String> = fv.iter().map(|(k, _)| k.to_string()).collect();
        names.sort();
        names
    };

    // Original dense rows tee to a row-major side file so the in-RAM
    // baseline can reconstruct the dataset without re-extracting.
    let rows_path = work.join("rows.bin");
    let rows_file = RefCell::new(std::io::BufWriter::new(
        std::fs::File::create(&rows_path).expect("create rows side file"),
    ));
    let row_production_s = Cell::new(0.0);
    let testbed = Testbed::new();
    let rows_iter = histories.iter().map(|h| {
        let t = Instant::now();
        let index = index_of[h.app.as_str()];
        let (app, _records) = stream.materialize(index, 0);
        let fv = testbed.extract(&app.program);
        let mut row = Vec::new();
        fv.fill_dense(&schema, &mut row);
        {
            let mut file = rows_file.borrow_mut();
            for v in &row {
                file.write_all(&v.to_le_bytes()).expect("write row");
            }
        }
        row_production_s.set(row_production_s.get() + t.elapsed().as_secs_f64());
        row
    });

    let t_train = Instant::now();
    let spill_dir = work.join("spill");
    let spilled_model = trainer
        .train_streaming(&schema, rows_iter, &histories, Some(&spill_dir))
        .expect("out-of-core training");
    let train_wall_s = t_train.elapsed().as_secs_f64();
    rows_file
        .into_inner()
        .flush()
        .expect("flush rows side file");

    let stream_s = labels_s + row_production_s.get();
    let retrain_s = (train_wall_s - row_production_s.get()).max(0.0);
    let apps_per_sec = apps as f64 / stream_s.max(1e-9);
    let spilled_bytes = spilled_model.compile().to_bytes();
    let streaming_peak_kb = vm_hwm_kb();
    eprintln!(
        "streamed {apps} apps at {apps_per_sec:.1} apps/s ({} trained rows), \
         out-of-core retrain {retrain_s:.2}s, peak RSS {streaming_peak_kb} kB",
        histories.len(),
    );

    // ---- Phase 2: the in-RAM baseline the streaming path avoids. ----
    //
    // Materialize the whole population (what `Corpus::generate` holds:
    // every app's code and CVE trajectory) plus the dense dataset, then
    // train the identical model in RAM.
    let cutoff = stream.cutoff_year(0);
    let resident: Vec<_> = (0..apps)
        .map(|i| {
            let (app, records) = stream.materialize(i, 0);
            let revealed: Vec<_> = records
                .into_iter()
                .filter(|r| r.published.year <= cutoff)
                .collect();
            (app, revealed)
        })
        .collect();
    let rows: Vec<Vec<f64>> = {
        let bytes = std::fs::read(&rows_path).expect("read rows side file");
        assert_eq!(bytes.len(), histories.len() * schema.len() * 8);
        bytes
            .chunks_exact(schema.len() * 8)
            .map(|row| {
                row.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect()
            })
            .collect()
    };
    let t_ram = Instant::now();
    let in_ram_model = trainer
        .train_streaming(&schema, rows.iter().cloned(), &histories, None)
        .expect("in-RAM training");
    let retrain_ram_s = t_ram.elapsed().as_secs_f64();
    let bit_identical = spilled_bytes == in_ram_model.compile().to_bytes();
    assert!(
        bit_identical,
        "out-of-core model diverged from the in-RAM twin"
    );
    let inram_peak_kb = vm_hwm_kb().max(1);
    drop(resident);
    drop(rows);
    let rss_ratio = streaming_peak_kb as f64 / inram_peak_kb as f64;
    let rss_headroom = inram_peak_kb as f64 / streaming_peak_kb.max(1) as f64;
    eprintln!(
        "in-RAM baseline: retrain {retrain_ram_s:.2}s, peak RSS {inram_peak_kb} kB \
         -> streaming used {:.1}% of the in-RAM footprint",
        rss_ratio * 100.0,
    );
    if !smoke {
        // The tentpole's memory claim, enforced at full scale (at smoke
        // scale the process baseline dominates both numbers).
        assert!(
            rss_ratio < 0.25,
            "streaming peak {streaming_peak_kb} kB is not under 25% of the \
             in-RAM baseline {inram_peak_kb} kB"
        );
    }

    // ---- Phase 3: the retrain loop, replayed twice for determinism. ----
    let replay_config = |dir: &Path| LongitudinalConfig {
        stream: StreamConfig {
            apps: replay_apps,
            ..StreamConfig::default()
        },
        epochs: replay_epochs,
        trainer: TrainerConfig {
            top_k_features: Some(24),
            ..Default::default()
        },
        work_dir: dir.to_path_buf(),
        ..Default::default()
    };
    let t_replay = Instant::now();
    let first =
        replay(&replay_config(&work.join("replay-1")), |_, _| Ok(())).expect("first replay");
    let replay_s = t_replay.elapsed().as_secs_f64();
    let second =
        replay(&replay_config(&work.join("replay-2")), |_, _| Ok(())).expect("second replay");
    let replay_deterministic = first.drift_json() == second.drift_json();
    assert!(
        replay_deterministic,
        "replay drift reports diverged between identical runs"
    );
    let epoch_retrain_ms: Vec<u128> = first.epochs.iter().map(|e| e.retrain_ms).collect();
    eprintln!(
        "replay: {replay_epochs} epochs x {replay_apps} apps in {replay_s:.2}s \
         (retrain {epoch_retrain_ms:?} ms/epoch), drift report deterministic"
    );

    // ---- Phase 4: hot-redeploy blackout under pipelined load. ----
    let first_epoch = first.epochs.first().expect("replay produced epochs");
    let last_epoch = first.epochs.last().expect("replay produced epochs");
    let model = ModelState::load(&first_epoch.model_path).expect("load epoch 0 model");
    let handle = serve::start(
        ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        },
        model,
    )
    .expect("daemon starts");
    let addr = handle.addr();
    let swaps: usize = if smoke { 4 } else { 8 };
    let stop = AtomicBool::new(false);
    let requests = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let source = "@endpoint(network)\nfn handle(req: str, n: int) -> int {\n    let buf: str[32];\n    let i: int = 0;\n    while i < n {\n        if i > 3 { n = n - 1; }\n        i = i + 1;\n    }\n    strcpy(buf, req);\n    return n;\n}\n";
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("scorer connects");
                while !stop.load(Ordering::Relaxed) {
                    let response = client
                        .score_source("blackout-app", source, "c")
                        .expect("connection survives the swap");
                    requests.fetch_add(1, Ordering::Relaxed);
                    if !is_ok(&response) {
                        dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let mut admin = Client::connect(addr).expect("admin connects");
        for swap in 0..swaps {
            std::thread::sleep(std::time::Duration::from_millis(30));
            let target = if swap % 2 == 0 {
                &last_epoch.model_path
            } else {
                &first_epoch.model_path
            };
            let response = admin
                .reload(Some(&target.to_string_lossy()))
                .expect("reload round-trip");
            assert!(is_ok(&response), "reload refused: {response}");
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });
    handle.shutdown();
    let blackout_requests = requests.load(Ordering::Relaxed);
    let blackout_dropped = dropped.load(Ordering::Relaxed);
    assert!(blackout_requests > 0, "scorers never got a response in");
    assert_eq!(
        blackout_dropped, 0,
        "requests dropped during hot-redeploy swaps"
    );
    eprintln!(
        "blackout: {blackout_requests} scores across {swaps} hot swaps, \
         {blackout_dropped} dropped"
    );

    let _ = std::fs::remove_dir_all(&work);

    println!(
        "BENCH_LONGITUDINAL {{\"apps\":{apps},\"trained\":{},\
         \"apps_per_sec\":{apps_per_sec:.1},\"stream_s\":{stream_s:.2},\
         \"retrain_s\":{retrain_s:.2},\"retrain_ram_s\":{retrain_ram_s:.2},\
         \"streaming_peak_kb\":{streaming_peak_kb},\"inram_peak_kb\":{inram_peak_kb},\
         \"rss_ratio\":{rss_ratio:.3},\"rss_headroom\":{rss_headroom:.2},\
         \"bit_identical\":{bit_identical},\
         \"replay_apps\":{replay_apps},\"replay_epochs\":{replay_epochs},\
         \"replay_s\":{replay_s:.2},\"replay_deterministic\":{replay_deterministic},\
         \"blackout_swaps\":{swaps},\"blackout_requests\":{blackout_requests},\
         \"blackout_dropped\":{blackout_dropped}}}",
        histories.len(),
    );
}

criterion_group!(benches, bench_longitudinal);
criterion_main!(benches);
