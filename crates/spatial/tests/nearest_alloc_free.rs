//! `nearest_tallied` allocates nothing, on the kd-tree (at d = 2 and
//! d = 9), the linear scan and the cell table.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread, so the measurement ignores whatever the test harness does on
//! its own threads. The allocator is process-wide, so this check lives in
//! a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use db_rng::Rng;
use db_spatial::{CellTable, Dataset, KdTree, LinearScan, NnTally, SpatialIndex};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Forwards to the system allocator, counting every allocation (and
/// reallocation) made by the current thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the count is a plain
// thread-local with no allocation of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these
        // arguments, which pass to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these
        // arguments, which pass to `System` unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these
        // arguments, which pass to `System` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these
        // arguments, which pass to `System` unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const QUERIES: usize = 10_000;

fn random_rows(rng: &mut Rng, n: usize, dim: usize) -> Dataset {
    let mut ds = Dataset::new(dim).unwrap();
    let mut row = vec![0.0; dim];
    for _ in 0..n {
        for x in &mut row {
            *x = rng.gen_f64(-50.0, 50.0);
        }
        ds.push(&row).unwrap();
    }
    ds
}

/// Allocations made by `QUERIES` calls of `nearest_tallied` on `index`.
fn allocations_of_queries(index: &impl SpatialIndex, reps: &Dataset, queries: &Dataset) -> u64 {
    let mut tally = NnTally::default();
    let before = allocations();
    for q in queries.iter() {
        black_box(index.nearest_tallied(reps, black_box(q), &mut tally));
    }
    let after = allocations();
    assert_eq!(tally.queries, QUERIES as u64);
    after - before
}

#[test]
fn nearest_tallied_allocates_nothing() {
    let mut rng = Rng::seed_from_u64(17);
    let (low, high) = (random_rows(&mut rng, 2_000, 2), random_rows(&mut rng, 2_000, 9));
    let (low_q, high_q) = (random_rows(&mut rng, QUERIES, 2), random_rows(&mut rng, QUERIES, 9));

    let kd = KdTree::build(&low);
    let linear = LinearScan::build(&low);
    let kd_high = KdTree::build(&high);
    let table = CellTable::build(&low).expect("2-d points build a cell table");
    assert_eq!(allocations_of_queries(&kd, &low, &low_q), 0, "kd-tree");
    assert_eq!(allocations_of_queries(&table, &low, &low_q), 0, "cell table");
    assert_eq!(allocations_of_queries(&linear, &low, &low_q), 0, "linear scan");
    assert_eq!(allocations_of_queries(&kd_high, &high, &high_q), 0, "kd-tree at d = 9");

    // Control: the counter sees allocations — `knn` builds its heaps per
    // query — so the zeros above are not vacuous.
    let mut out = Vec::with_capacity(1);
    let before = allocations();
    kd.knn(&low, low_q.point(0), 1, &mut out);
    assert!(allocations() > before, "the counting allocator missed knn's heaps");
}
