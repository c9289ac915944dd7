//! The `retrain` workload: an operator re-estimates the metric over an
//! application population.
//!
//! One round drives epoch 0 of a [`LongitudinalStream`] through the same
//! public calls `clairvoyant::longitudinal::replay` makes: a label pass
//! over the epoch and `CveDatabase::select`; `materialize` and a cold
//! `IncrementalTestbed::extract_stats` per selected app inside
//! `Trainer::train_streaming` with CLSM spill; `compile` + `optimize`;
//! then a bulk `evaluate_batch` of every extracted app with the new model.
//! Rounds repeat on the same population until the run's time is up.

use crate::layers::{Layers, Source};
use crate::stats::{self, Timing};
use crate::trace::{self, Tracer};
use clairvoyant::prelude::*;
use clairvoyant::{CompiledModel, IncrementalTestbed};
use corpus::{LongitudinalStream, StreamConfig};
use cvedb::{AppHistory, CveDatabase};
use pipeline::Extractor as _;
use static_analysis::FeatureVector;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The trainer every round uses: forests (so `optimize` lowers real
/// kernels) over the 24 best features, all cores.
pub fn trainer() -> Trainer {
    Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        top_k_features: Some(24),
        ..Default::default()
    })
}

/// An epoch-0 population of `apps` applications.
pub fn population(seed: u64, apps: usize) -> LongitudinalStream {
    LongitudinalStream::new(StreamConfig {
        apps,
        seed,
        ..StreamConfig::default()
    })
}

/// The feature schema: every name the testbed emits, sorted.
pub fn schema() -> Vec<String> {
    let mut names: Vec<String> = Testbed::new()
        .degraded()
        .names()
        .into_iter()
        .map(str::to_string)
        .collect();
    names.sort();
    names
}

/// What one round produced.
pub struct Round {
    pub wall_s: f64,
    pub apps: usize,
    pub selected: usize,
    /// Per-app row production (materialize + cold extract), ms.
    pub row_ms: Vec<f64>,
    pub model_bytes: Vec<u8>,
    /// The compiled, optimized model.
    pub model: CompiledModel,
    /// Every extracted app, for offline scoring.
    pub apps_fv: Vec<(String, FeatureVector)>,
    pub spill_bytes: u64,
    pub fn_hits: u64,
    pub fn_misses: u64,
    /// Testbed stage timings drained after the round, µs.
    pub stages_us: BTreeMap<String, u64>,
    /// Rows and histories, kept for the in-RAM twin gate.
    pub kept: Option<(Vec<Vec<f64>>, Vec<AppHistory>)>,
}

/// One retrain round. `spill` is the CLSM spill directory (removed
/// afterwards); `keep_rows` keeps the training rows for the twin gate.
pub fn round(
    stream: &LongitudinalStream,
    schema: &[String],
    trainer: &Trainer,
    spill: &Path,
    tracer: &Tracer,
    keep_rows: bool,
) -> std::io::Result<Round> {
    let n = stream.config().apps;
    let t0 = Instant::now();
    let root = tracer.span("retrain.round", 0);

    let label = tracer.span("corpus.label_pass", 0);
    let mut db = CveDatabase::new();
    let mut index_of: BTreeMap<String, usize> = BTreeMap::new();
    for i in 0..n {
        let ea = stream.epoch_app(i, 0);
        index_of.insert(ea.app.spec.name, i);
        for record in ea.records {
            db.insert(record);
        }
    }
    drop(label);

    let histories = {
        let _s = tracer.span("cvedb.select", 0);
        db.select(&trainer.config.selection)
    };
    assert!(!histories.is_empty(), "selection produced no training apps");

    let mut engine = IncrementalTestbed::new();
    let mut row_ms = Vec::with_capacity(histories.len());
    let mut apps_fv = Vec::with_capacity(histories.len());
    let mut kept_rows = Vec::new();
    let (mut fn_hits, mut fn_misses) = (0u64, 0u64);
    let rows = histories.iter().map(|h| {
        let index = index_of[h.app.as_str()];
        let _row = tracer.span("retrain.row", index as u64);
        let t = Instant::now();
        let (app, _records) = {
            let _s = tracer.span("corpus.materialize", index as u64);
            stream.materialize(index, 0)
        };
        let (fv, incr) = {
            let _s = tracer.span("testbed.extract", index as u64);
            engine.extract_stats(&app.program)
        };
        fn_hits += incr.hits;
        fn_misses += incr.misses;
        let mut row = Vec::with_capacity(schema.len());
        fv.fill_dense(schema, &mut row);
        row_ms.push(t.elapsed().as_secs_f64() * 1e3);
        apps_fv.push((app.spec.name, fv));
        if keep_rows {
            kept_rows.push(row.clone());
        }
        row
    });
    let trained = {
        let _s = tracer.span("train.train_streaming", 0);
        trainer.train_streaming(schema, rows, &histories, Some(spill))?
    };
    let (model, model_bytes) = {
        let _s = tracer.span("train.compile", 0);
        let model = trained.compile();
        let bytes = model.to_bytes();
        (model, bytes)
    };
    {
        let _s = tracer.span("train.optimize", 0);
        model.optimize();
    }
    let reports = {
        let _s = tracer.span("score.evaluate_batch", 0);
        model.evaluate_batch(&apps_fv, 0)
    };
    drop(root);
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(reports.len(), apps_fv.len(), "one report per extracted app");

    let spill_bytes = dir_bytes(spill);
    let _ = std::fs::remove_dir_all(spill);
    Ok(Round {
        wall_s,
        apps: n,
        selected: histories.len(),
        row_ms,
        model_bytes,
        model,
        apps_fv,
        spill_bytes,
        fn_hits,
        fn_misses,
        stages_us: engine
            .testbed()
            .take_collector_timings()
            .into_iter()
            .collect(),
        kept: keep_rows.then_some((kept_rows, histories)),
    })
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// FNV-1a fingerprint of CLVY bytes, as the serve daemon prints it.
pub fn fingerprint(bytes: &[u8]) -> String {
    format!("{:016x}", pipeline::fnv::hash_bytes(bytes))
}

/// The in-RAM twin: the same rows trained without spill must compile to
/// the same CLVY bytes.
pub fn twin_fingerprint(schema: &[String], kept: &(Vec<Vec<f64>>, Vec<AppHistory>)) -> String {
    let (rows, histories) = kept;
    let model = trainer()
        .train_streaming(schema, rows.iter().cloned(), histories, None)
        .expect("in-RAM training");
    fingerprint(&model.compile().to_bytes())
}

/// Fill the layer metrics this workload's rounds (or the set-up's round)
/// measure. `rounds` are the traced rounds.
pub fn layer_metrics(layers: &mut Layers, rounds: &[Round], spans: &[trace::Span], source: Source) {
    if rounds.is_empty() {
        return;
    }
    let per_round =
        |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let under = crate::layers::under(spans, source);
    let durs = |name: &str| -> Vec<f64> {
        under
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    let median_of = |v: Vec<f64>| if v.is_empty() { 0.0 } else { stats::median(&v) };

    layers.set(
        "corpus.label_pass_s",
        median_of(durs("corpus.label_pass")) / 1e3,
        source,
    );
    layers.set(
        "corpus.materialize_ms",
        median_of(durs("corpus.materialize")),
        source,
    );
    layers.set("cvedb.select_ms", median_of(durs("cvedb.select")), source);
    layers.set(
        "cvedb.selected_apps",
        per_round(&|r| r.selected as f64),
        source,
    );

    let stage = |r: &Round, names: &[&str]| -> f64 {
        r.stages_us
            .iter()
            .filter(|(k, _)| names.contains(&k.as_str()))
            .map(|(_, v)| *v as f64 / 1e3)
            .sum()
    };
    let collectors = |r: &Round| -> f64 {
        r.stages_us
            .iter()
            .filter(|(k, _)| !["context", "bugfind", "attackgraph"].contains(&k.as_str()))
            .map(|(_, v)| *v as f64 / 1e3)
            .sum()
    };
    let extract_total = durs("testbed.extract").iter().sum::<f64>() / rounds.len() as f64;
    layers.set("testbed.extract_ms", extract_total, source);
    let run_families = per_round(&|r| collectors(r) + stage(r, &["bugfind", "attackgraph"]));
    // The incremental engine assembles its own context, so `context` is
    // the extraction time the collector families do not account for.
    layers.set(
        "testbed.context_ms",
        (extract_total - run_families).max(0.0),
        source,
    );
    layers.set("testbed.collectors_ms", per_round(&collectors), source);
    layers.set(
        "testbed.bugfind_ms",
        per_round(&|r| stage(r, &["bugfind"])),
        source,
    );
    layers.set(
        "testbed.attackgraph_ms",
        per_round(&|r| stage(r, &["attackgraph"])),
        source,
    );

    let hits: u64 = rounds.iter().map(|r| r.fn_hits).sum();
    let misses: u64 = rounds.iter().map(|r| r.fn_misses).sum();
    layers.set_ratio(
        "incremental.hit_frac",
        hits as f64,
        (hits + misses) as f64,
        source,
    );

    // Training's self time: the streaming call minus the row production
    // it pulls through its iterator.
    let fit: Vec<f64> = spans
        .iter()
        .zip(trace::self_times(spans))
        .zip(crate::layers::part(spans, source))
        .filter(|((s, _), keep)| *keep && s.name == "train.train_streaming")
        .map(|((_, t), _)| t as f64 / 1e9)
        .collect();
    layers.set("train.fit_s", median_of(fit), source);
    let compile: Vec<f64> = durs("train.compile")
        .iter()
        .zip(durs("train.optimize"))
        .map(|(c, o)| c + o)
        .collect();
    layers.set("train.compile_ms", median_of(compile), source);
    layers.set(
        "train.spill_mb",
        per_round(&|r| r.spill_bytes as f64 / 1e6),
        source,
    );
    layers.add_span_metrics(spans, source);
}

/// The bulk-batch score split (prepare, then battery) on a round's apps,
/// timed outside the round so it does not count against its wall time.
pub fn score_split(tracer: &Tracer, round: &Round) {
    let batch = {
        let _s = tracer.span("score.prepare", round.apps_fv.len() as u64);
        round.model.prepare_batch(&round.apps_fv, 0)
    };
    let _s = tracer.span("score.battery", batch.n_rows() as u64);
    std::hint::black_box(round.model.score_battery(&batch, 0));
}

/// Summaries the report prints for a set of rounds.
pub fn summarize(rounds: &[Round]) -> (f64, Option<Timing>) {
    let rate = stats::median(
        &rounds
            .iter()
            .map(|r| r.apps as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    );
    let rows: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.row_ms.iter().copied())
        .collect();
    (rate, Timing::of(&rows))
}
