//! No-alloc-steady-state proof for the candidate-resolution path.
//!
//! The raycast backward scan used to allocate per query: a traversal stack
//! inside `DynamicBvh::query`, a fresh hits vector per requirement, and a
//! fresh candidates vector per requirement. Those now live in per-shard
//! scratch ([`ScanScratch`] in `analysis/raycast.rs`) and inside the
//! [`VisibilityBackend`] implementations. This test wraps the global
//! allocator in a counter and proves both backends resolve entire batches
//! with **zero** allocations once their buffers have warmed up.
//!
//! The counter is per thread: the test harness runs these tests on
//! parallel threads, and each must count only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use viz_geometry::{DynamicBvh, Rect};
use viz_runtime::analysis::visibility::{
    BatchVisibility, QuerySpan, ScalarVisibility, VisibilityBackend,
};

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so reading it from
    // inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a new allocation for steady-state purposes.
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn fixture(leaves: u64) -> (DynamicBvh, Vec<Rect>, Vec<QuerySpan>) {
    let mut tree = DynamicBvh::new();
    for i in 0..leaves {
        let x = (i as i64 * 13) % 509;
        let y = (i as i64 * 7) % 143;
        tree.insert(i, Rect::xy(x, x + 8, y, y + 5));
    }
    // 24 requirements, two rects each — a realistic shard batch.
    let mut queries = Vec::new();
    let mut spans = Vec::new();
    for k in 0..24i64 {
        let start = queries.len() as u32;
        queries.push(Rect::xy(k * 19, k * 19 + 60, 0, 80));
        queries.push(Rect::xy(k * 23, k * 23 + 30, 40, 150));
        spans.push((start, 2));
    }
    (tree, queries, spans)
}

/// Drive `rounds` full batches through a backend, reusing one output
/// buffer; return allocations observed.
fn run_rounds(
    backend: &mut dyn VisibilityBackend,
    tree: &DynamicBvh,
    queries: &[Rect],
    spans: &[QuerySpan],
    out: &mut Vec<u64>,
    rounds: usize,
) -> u64 {
    let before = allocs();
    for _ in 0..rounds {
        backend.begin_batch();
        let mut total = 0usize;
        for k in 0..spans.len() {
            out.clear();
            backend.resolve(tree, queries, spans, k, out);
            // Consume like the scan does, so the work cannot be elided.
            out.sort_unstable();
            out.dedup();
            total += out.len();
        }
        assert!(total > 0, "fixture produced no hits at all");
    }
    allocs() - before
}

#[test]
fn scalar_backend_steady_state_allocates_nothing() {
    let (tree, queries, spans) = fixture(256);
    let mut backend = ScalarVisibility::default();
    let mut out = Vec::new();
    // Warm-up grows the traversal stack and the output buffer.
    run_rounds(&mut backend, &tree, &queries, &spans, &mut out, 2);
    let steady = run_rounds(&mut backend, &tree, &queries, &spans, &mut out, 20);
    assert_eq!(steady, 0, "scalar resolve allocated {steady} times warm");
}

#[test]
fn batch_backend_steady_state_allocates_nothing() {
    let (tree, queries, spans) = fixture(256);
    // batch_min 0: the flattened path runs even for this modest tree.
    let mut backend = BatchVisibility::new(0);
    let mut out = Vec::new();
    // Warm-up takes the snapshot and sizes hits/offsets/out. The epoch
    // never changes here, so steady state re-sweeps (begin_batch) but
    // never re-flattens — and the sweep itself must not allocate.
    run_rounds(&mut backend, &tree, &queries, &spans, &mut out, 2);
    let steady = run_rounds(&mut backend, &tree, &queries, &spans, &mut out, 20);
    assert_eq!(steady, 0, "batch resolve allocated {steady} times warm");
}

#[test]
fn batch_fallback_steady_state_allocates_nothing() {
    let (tree, queries, spans) = fixture(16);
    // Tree below the default threshold: the batch backend's scalar
    // fallback path must be just as allocation-free.
    let mut backend = BatchVisibility::new(64);
    let mut out = Vec::new();
    run_rounds(&mut backend, &tree, &queries, &spans, &mut out, 2);
    let steady = run_rounds(&mut backend, &tree, &queries, &spans, &mut out, 20);
    assert_eq!(steady, 0, "fallback resolve allocated {steady} times warm");
}
