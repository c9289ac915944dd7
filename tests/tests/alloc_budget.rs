//! Allocation budget for cold extraction.
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
//! Run with `cargo test -p integration-tests --test alloc_budget -- --nocapture`
//! to see the measured figures.

use clairvoyant::IncrementalTestbed;
use corpus::{LongitudinalStream, StreamConfig};
use cvedb::{CveDatabase, SelectionCriteria};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation event: `alloc`, `alloc_zeroed` and `realloc`
/// (a growing `Vec` pays one per reallocation).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

#[test]
fn cold_extraction_stays_within_its_allocation_budget() {
    let stream = LongitudinalStream::new(StreamConfig {
        apps: POPULATION_APPS,
        seed: POPULATION_SEED,
        ..StreamConfig::default()
    });
    let mut db = CveDatabase::new();
    let mut apps = BTreeMap::new();
    for i in 0..POPULATION_APPS {
        let epoch = stream.epoch_app(i, 0);
        for record in epoch.records {
            db.insert(record);
        }
        apps.insert(epoch.app.spec.name.clone(), epoch.app);
    }
    let selected = db.select(&SelectionCriteria::default());
    assert!(!selected.is_empty(), "selection kept no apps");

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
