//! The heap a pipeline run adds stays within what its recovery step is
//! allowed to hold: the distance matrix plus the assignment while the
//! bubbles are walked, or the expanded entries plus a 4-byte walk order
//! while they are written — never the member lists, the matrix and the
//! entries at once.
//!
//! A counting global allocator tracks the live heap of the process and its
//! high-water mark. The allocator is process-wide, so this check lives in
//! a test binary of its own, with one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use data_bubbles::pipeline::{run_pipeline, Compressor, ExpandedEntry, PipelineConfig, Recovery};
use db_optics::OpticsParams;
use db_rng::Rng;
use db_spatial::Dataset;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Forwards to the system allocator, tracking live bytes and their peak.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these
        // arguments, which pass to `System` unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these
        // arguments, which pass to `System` unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these
        // arguments, which pass to `System` unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these
        // arguments, which pass to `System` unchanged.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the run may add besides its O(n) and O(k²) buffers: the
/// representatives, statistics, bubbles, classification index, walk state
/// and rules, at most 256 bytes per representative, plus 256 KiB of fixed
/// and per-worker scratch. At k = 200 this is less than the 4n bytes of a
/// second O(n) array, so holding the assignment beside the walk order and
/// the entries fails the check.
fn slack(k: usize) -> usize {
    (256 << 10) + 256 * k
}

fn uniform_points(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(2, n).unwrap();
    for _ in 0..n {
        ds.push(&[rng.gen_f64(0.0, 100.0), rng.gen_f64(0.0, 100.0)]).unwrap();
    }
    ds
}

/// Peak heap added by one OPTICS-SA-Bubbles run, beyond what was live at
/// its start, with the bytes the run is allowed to add.
fn peak_and_bound(ds: &Dataset, k: usize) -> (usize, usize) {
    let optics = OpticsParams { eps: f64::INFINITY, min_pts: 10 };
    let cfg = PipelineConfig::new(k, Compressor::Sample { seed: 3 }, Recovery::Bubbles, optics);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = run_pipeline(ds, &cfg).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;

    let n = ds.len();
    let assignment = n * size_of::<u32>();
    let matrix = k * k * size_of::<f64>();
    let entries = n * size_of::<ExpandedEntry>();
    assert_eq!(out.expanded.as_ref().map(|x| x.len()), Some(n));
    drop(out);
    (peak, (matrix + assignment).max(entries + n * size_of::<u32>()) + slack(k))
}

#[test]
fn recovery_never_holds_the_matrix_members_and_entries_at_once() {
    let ds = uniform_points(200_000, 25);
    // Matrix-dominated (32 MB of distances against 4.8 MB of entries) and
    // entries-dominated (0.3 MB of distances).
    for k in [2_000, 200] {
        let (peak, bound) = peak_and_bound(&ds, k);
        assert!(
            peak <= bound,
            "k = {k}: the run added {peak} bytes of heap at its peak, more than the {bound} its \
             recovery step may hold"
        );
    }
}
