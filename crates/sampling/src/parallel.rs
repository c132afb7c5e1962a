//! Parallel nearest-neighbour classification and sufficient-statistics
//! accumulation.
//!
//! The one-pass classification of the whole database against the `k`
//! representatives is the dominant cost of the sampling pipelines (the
//! OPTICS step runs on only `k` objects). Each point's classification is
//! independent, so the pass parallelizes perfectly; results are identical
//! to the sequential [`crate::nn_classify`] bit for bit.
//!
//! # Determinism contract
//!
//! Everything in this module is **bit-for-bit identical across thread
//! counts** (including the sequential fallback for small inputs):
//!
//! * classification writes each point's assignment into its own slot, so
//!   chunking cannot reorder anything;
//! * statistics accumulation partitions the data into *fixed-size blocks*
//!   derived only from the data length (never from the thread count),
//!   reduces each block with Welford updates, and merges the block
//!   partials **in block order** with the stable Chan–Golub–LeVeque merge.
//!   Worker threads only decide *who* computes a block, never the block
//!   boundaries or the merge order.
//!
//! Both paths of every function emit the same spans and counters, so
//! metrics do not depend on which route an input happens to take.

use std::num::NonZeroUsize;

use db_birch::Cf;
use db_spatial::{Dataset, NnTally};
use db_supervise::{resolve_threads, run_blocks, unsupervised, Stop, Supervisor, Ticker};

use crate::nearest::NearestRep;

/// Cooperative-check cadence for the classification loop. Each item is a
/// nearest-neighbour query (µs-scale), so consulting the supervisor every
/// 256 items keeps the reaction latency far under the 50ms target while
/// the per-item cost stays one local integer decrement.
const CLASSIFY_TICK: u32 = 256;

/// Check cadence for statistics accumulation, whose per-item work is a
/// single Welford update (ns-scale).
const STATS_TICK: u32 = 1024;

/// Classifies the points `offset..offset + out.len()` of `ds` into `out`:
/// the uninstrumented per-chunk body of [`nn_classify_supervised`]. One
/// tally per chunk, flushed whether or not the chunk finishes, so the
/// per-point loop writes no shared memory. On `Err` the caller discards
/// `out` wholesale, so partially-written slots never leak.
fn classify_into(
    ds: &Dataset,
    reps: &Dataset,
    nearest: &NearestRep,
    offset: usize,
    out: &mut [u32],
    sup: &Supervisor,
) -> Result<(), Stop> {
    let mut ticker = Ticker::new(sup, CLASSIFY_TICK);
    let mut tally = NnTally::default();
    let done = nearest.classify_into(ds, reps, offset, out, &mut tally, &mut ticker);
    tally.flush();
    done
}

/// Classifies every point of `ds` to its nearest point in `reps` using
/// `threads` worker threads (`None` = available parallelism). Output is
/// identical to [`crate::nn_classify`] bit for bit; small inputs take a
/// sequential route with the same spans and counters.
///
/// # Panics
///
/// Panics if `reps` is empty or dimensionalities differ.
pub fn nn_classify_parallel(
    ds: &Dataset,
    reps: &Dataset,
    threads: Option<NonZeroUsize>,
) -> Vec<u32> {
    unsupervised("classification", |sup| nn_classify_supervised(ds, reps, threads, sup))
}

/// [`nn_classify_parallel`] under supervision: consults `sup` every
/// `CLASSIFY_TICK` points and captures worker panics. On `Err` all
/// partial output is discarded; on `Ok` the result is bit-for-bit the
/// unsupervised one.
///
/// # Errors
///
/// [`Stop`] when cancelled, past the deadline, or a worker panicked.
///
/// # Panics
///
/// Panics if `reps` is empty or dimensionalities differ.
pub fn nn_classify_supervised(
    ds: &Dataset,
    reps: &Dataset,
    threads: Option<NonZeroUsize>,
    sup: &Supervisor,
) -> Result<Vec<u32>, Stop> {
    assert!(!reps.is_empty(), "cannot classify against an empty representative set");
    assert_eq!(ds.dim(), reps.dim(), "dimensionality mismatch");
    let threads = resolve_threads(threads, ds.len());
    // Below this size thread startup dominates; the sequential route is
    // taken *inside* the instrumented region so both paths report alike.
    let threads = if ds.len() < 1024 { 1 } else { threads };

    let mut span = db_obs::span!("sampling.nn_classify");
    db_obs::gauge!("sampling.classify_threads").set(threads as i64);
    let nearest = NearestRep::new(reps);
    let mut out = vec![0u32; ds.len()];
    // Worker time links back into the parent span (it lands in the
    // parent's child-time, not self-time) and workers record under the
    // parent's trace run id.
    let parent = span.handle();
    run_blocks(
        &mut out,
        ds.len().div_ceil(threads),
        threads,
        sup,
        "classify.worker",
        || db_obs::span_linked!("sampling.classify_chunk", &parent),
        |first, slice| classify_into(ds, reps, &nearest, first, slice, sup),
    )?;
    db_obs::counter!("sampling.points_classified").add(out.len() as u64);
    Ok(out)
}

/// Fixed block length for statistics accumulation: independent of the
/// thread count (determinism) and bounded in block *count* so the partial
/// `Vec<Cf>`s stay small even for huge datasets.
fn stats_block_len(n: usize) -> usize {
    n.div_ceil(64).max(4096)
}

/// Accumulates per-representative sufficient statistics from a
/// classification, distributing fixed-size blocks over `threads` workers
/// (`None` = available parallelism) and merging the per-block partial
/// [`Cf`]s in block order with the stable merge. The result is identical
/// for every thread count, including 1.
///
/// # Panics
///
/// Panics if an assignment is out of range or lengths differ.
pub fn accumulate_stats_parallel(
    ds: &Dataset,
    assignment: &[u32],
    k: usize,
    threads: Option<NonZeroUsize>,
) -> Vec<Cf> {
    unsupervised("accumulation", |sup| accumulate_stats_supervised(ds, assignment, k, threads, sup))
}

/// [`accumulate_stats_parallel`] under supervision: consults `sup` every
/// `STATS_TICK` points and captures worker panics; per-block partials
/// are discarded wholesale on `Err`, so no partially-merged statistics
/// escape. On `Ok` the result is bit-for-bit the unsupervised one.
///
/// # Errors
///
/// [`Stop`] when cancelled, past the deadline, or a worker panicked.
///
/// # Panics
///
/// Panics if an assignment is out of range or lengths differ.
pub fn accumulate_stats_supervised(
    ds: &Dataset,
    assignment: &[u32],
    k: usize,
    threads: Option<NonZeroUsize>,
    sup: &Supervisor,
) -> Result<Vec<Cf>, Stop> {
    assert_eq!(ds.len(), assignment.len(), "assignment length mismatch");
    let mut span = db_obs::span!("sampling.accumulate_stats");
    let block = stats_block_len(ds.len());
    let n_blocks = ds.len().div_ceil(block).max(1);
    let threads = resolve_threads(threads, n_blocks);

    // Each block lands in its own pre-assigned slot, so the subsequent
    // in-order merge is independent of the thread schedule.
    let mut partials: Vec<Vec<Cf>> = vec![Vec::new(); n_blocks];
    let parent = span.handle();
    run_blocks(
        &mut partials,
        n_blocks.div_ceil(threads),
        threads,
        sup,
        "stats.worker",
        || db_obs::span_linked!("sampling.accumulate_chunk", &parent),
        |first, slots| {
            for (b, stats) in (first..).zip(slots) {
                let mut ticker = Ticker::new(sup, STATS_TICK);
                *stats = vec![Cf::empty(ds.dim()); k];
                for i in b * block..((b + 1) * block).min(ds.len()) {
                    ticker.tick()?;
                    stats[assignment[i] as usize].add_point(ds.point(i));
                }
            }
            Ok(())
        },
    )?;

    // Merge in block order (stable Chan–Golub–LeVeque merge via AddAssign):
    // the fold order is fixed by the block layout, never by the schedule.
    let mut stats = partials
        .into_iter()
        .reduce(|mut acc, part| {
            for (a, p) in acc.iter_mut().zip(part) {
                *a += &p;
            }
            acc
        })
        .unwrap_or_else(|| vec![Cf::empty(ds.dim()); k]);
    if stats.len() < k {
        stats.resize(k, Cf::empty(ds.dim()));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accumulate_stats, nn_classify};

    fn data(n: usize) -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..n {
            ds.push(&[(i % 173) as f64, ((i * 31) % 97) as f64]).unwrap();
        }
        ds
    }

    #[test]
    fn matches_sequential_exactly() {
        let ds = data(5_000);
        let reps = ds.subset(&(0..50).map(|i| i * 97).collect::<Vec<_>>());
        let seq = nn_classify(&ds, &reps);
        for threads in [1usize, 2, 3, 8] {
            let par = nn_classify_parallel(&ds, &reps, NonZeroUsize::new(threads));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn small_inputs_take_the_sequential_path() {
        let ds = data(100);
        let reps = ds.subset(&[0, 50]);
        let par = nn_classify_parallel(&ds, &reps, NonZeroUsize::new(4));
        assert_eq!(par, nn_classify(&ds, &reps));
    }

    #[test]
    fn default_thread_count_works() {
        let ds = data(3_000);
        let reps = ds.subset(&[0, 1000, 2000]);
        let par = nn_classify_parallel(&ds, &reps, None);
        assert_eq!(par, nn_classify(&ds, &reps));
    }

    #[test]
    #[should_panic(expected = "empty representative set")]
    fn empty_reps_panic() {
        let ds = data(10);
        let reps = Dataset::new(2).unwrap();
        nn_classify_parallel(&ds, &reps, None);
    }

    #[test]
    fn accumulation_is_thread_count_invariant() {
        let ds = data(9_000);
        let reps = ds.subset(&(0..40).map(|i| i * 220).collect::<Vec<_>>());
        let assignment = nn_classify(&ds, &reps);
        let base = accumulate_stats_parallel(&ds, &assignment, 40, NonZeroUsize::new(1));
        for threads in [2usize, 3, 7] {
            let other = accumulate_stats_parallel(&ds, &assignment, 40, NonZeroUsize::new(threads));
            assert_eq!(base, other, "threads = {threads}");
        }
        // And the public sequential accessor agrees (it shares the block
        // layout, so equality is exact, not approximate).
        assert_eq!(base, accumulate_stats(&ds, &assignment, 40));
    }

    #[test]
    fn accumulation_totals_are_exact() {
        let ds = data(5_000);
        let reps = ds.subset(&[0, 1111, 3333]);
        let assignment = nn_classify(&ds, &reps);
        let stats = accumulate_stats_parallel(&ds, &assignment, 3, None);
        assert_eq!(stats.iter().map(Cf::n).sum::<u64>(), 5_000);
    }

    #[test]
    fn block_length_is_bounded_and_thread_free() {
        assert_eq!(stats_block_len(100), 4096);
        assert_eq!(stats_block_len(200_000), 4096);
        assert_eq!(stats_block_len(1_000_000), 15_625);
        // Block count never exceeds 64.
        for n in [1usize, 5_000, 262_144, 10_000_000] {
            assert!(n.div_ceil(stats_block_len(n)) <= 64, "n = {n}");
        }
    }
}
