//! Allocation budgets: cold extraction's heap traffic, and the live
//! memory an optimized model holds.
//!
//! Analysing one function is the constant behind every throughput figure
//! (set-up, each retrain round, each first-seen serve request), and its
//! cost is dominated by heap traffic rather than arithmetic. This binary
//! installs a counting global allocator, cold-extracts a fixed seeded
//! population with a fresh [`IncrementalTestbed`] (every function a store
//! miss, so every fixpoint runs), and asserts the allocations per function
//! stay under a budget, so a change that brings the churn back fails here
//! instead of only showing up as a slower benchmark.
//!
//! The population is the benchmark's set-up population: epoch 0 of a
//! 64-app `LongitudinalStream` with seed `0x5e70b`, narrowed to the apps
//! the default CVE selection criteria keep. Only `extract_stats` is
//! counted; corpus synthesis and the label pass are not.
//!
//! The second budget trains the benchmark's set-up model on that
//! population (random forests, top 24 features), compiles and optimizes
//! it, bulk-scores the population, and bounds the bytes the compiled
//! model then holds live; it also checks that the model's CLVY buffer is
//! allocated at exactly its length.
//!
//! Run with `cargo test -p integration-tests --test alloc_budget -- --nocapture`
//! to see the measured figures.

use clairvoyant::prelude::{Learner, Trainer, TrainerConfig};
use clairvoyant::IncrementalTestbed;
use corpus::{GeneratedApp, LongitudinalStream, StreamConfig};
use cvedb::{AppHistory, CveDatabase, SelectionCriteria};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts every allocation event — `alloc`, `alloc_zeroed` and `realloc`
/// (a growing `Vec` pays one per reallocation) — and the bytes live.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The counters are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const POPULATION_SEED: u64 = 0x0005_e70b;
const POPULATION_APPS: usize = 64;

/// Allocation events per cold-extracted function. Flat bitset lattices,
/// in-place interval and path environments, borrowed def/use and feature
/// names and the in-place printer brought the measured figure on this
/// population from 2,516 to 288; the budget leaves 15% headroom above
/// that for platform and toolchain variation.
const BUDGET_PER_FUNCTION: f64 = 330.0;

/// Live bytes an optimized set-up model holds after bulk scoring. One
/// leaf-value table, one padded cut table per feature, exact-size node
/// and remap tables, and merged ranks that leave with the scored matrix
/// brought the measured figure from about 270 KiB to 145 KiB (61 KiB of
/// it the compiled model before `optimize()`); the budget leaves 10%
/// headroom. The ladders, a short-block-only structure (68 KiB once a
/// block under 32 rows builds them), do not fit in it.
const MODEL_BUDGET_BYTES: i64 = 160 * 1024;

/// The set-up population's selected histories, and the code of every
/// selected app: label every app, then materialize the selected ones.
fn population() -> (Vec<AppHistory>, BTreeMap<String, GeneratedApp>) {
    let stream = LongitudinalStream::new(StreamConfig {
        apps: POPULATION_APPS,
        seed: POPULATION_SEED,
        ..StreamConfig::default()
    });
    let mut db = CveDatabase::new();
    let mut index_of = BTreeMap::new();
    for i in 0..POPULATION_APPS {
        let epoch = stream.epoch_app(i, 0);
        for record in epoch.records {
            db.insert(record);
        }
        index_of.insert(epoch.app.spec.name, i);
    }
    let selected = db.select(&SelectionCriteria::default());
    assert!(!selected.is_empty(), "selection kept no apps");
    let apps = selected
        .iter()
        .map(|h| (h.app.clone(), stream.materialize(index_of[&h.app], 0).0))
        .collect();
    (selected, apps)
}

#[test]
fn cold_extraction_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (selected, apps) = population();

    let mut engine = IncrementalTestbed::new();
    let mut functions = 0usize;
    let mut allocations = 0u64;
    for history in &selected {
        let program = &apps[&history.app].program;
        functions += program.functions().count();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (_, report) = engine.extract_stats(program);
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            report.hits, 0,
            "{}: a cold extraction hit the store",
            history.app
        );
    }
    let per_function = allocations as f64 / functions as f64;
    println!(
        "cold extraction: {} apps, {functions} functions, {allocations} allocations, \
         {per_function:.0} per function (budget {BUDGET_PER_FUNCTION:.0})",
        selected.len()
    );
    assert!(
        per_function <= BUDGET_PER_FUNCTION,
        "cold extraction made {per_function:.0} allocations per function, over the \
         budget of {BUDGET_PER_FUNCTION:.0}"
    );
}

#[test]
fn an_optimized_model_stays_within_its_memory_budget_after_bulk_scoring() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (selected, apps) = population();

    let mut engine = IncrementalTestbed::new();
    let scored: Vec<_> = selected
        .iter()
        .map(|h| (h.app.clone(), engine.extract_stats(&apps[&h.app].program).0))
        .collect();
    let mut schema: Vec<String> = scored[0].1.iter().map(|(k, _)| k.to_string()).collect();
    schema.sort();
    let rows = scored.iter().map(|(_, fv)| {
        let mut row = Vec::new();
        fv.fill_dense(&schema, &mut row);
        row
    });
    let trainer = Trainer::with_config(TrainerConfig {
        learner: Learner::RandomForest,
        top_k_features: Some(24),
        ..Default::default()
    });
    let trained = trainer
        .train_streaming(&schema, rows, &selected, None)
        .expect("in-RAM training");

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let model = trained.compile();
    let compiled = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert!(model.optimize() > 0, "no kernel compiled");
    let reports = model.evaluate_batch(&scored, 1);
    assert_eq!(reports.len(), scored.len());
    drop(reports);
    let live = LIVE_BYTES.load(Ordering::Relaxed) - before;
    println!(
        "optimized model: {live} bytes ({} KiB) live after bulk-scoring {} apps ({} KiB \
         compiled, budget {} KiB)",
        live / 1024,
        scored.len(),
        compiled / 1024,
        MODEL_BUDGET_BYTES / 1024
    );
    assert!(
        live <= MODEL_BUDGET_BYTES,
        "the optimized model holds {live} bytes after bulk scoring, over the budget of \
         {MODEL_BUDGET_BYTES}"
    );
    let bytes = model.to_bytes();
    assert_eq!(
        bytes.capacity(),
        bytes.len(),
        "the CLVY buffer carries slack past its {} bytes",
        bytes.len()
    );
    drop(model);
}
