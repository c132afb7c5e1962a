//! The classify and absorb loops flush their nearest-neighbour tallies
//! to exactly the counts the per-query counters used to reach. Resets
//! and reads the process-global registry, so it lives in a binary of its
//! own, and its tests take turns through one lock.
#![cfg(feature = "metrics")]

use std::num::NonZeroUsize;
use std::sync::Mutex;

use db_sampling::{nn_classify_parallel, IncrementalCompression, NN_KERNEL_MAX_REPS};
use db_spatial::Dataset;

static REGISTRY: Mutex<()> = Mutex::new(());

fn data(n: usize, salt: usize) -> Dataset {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..n {
        let j = i + salt;
        ds.push(&[(j % 173) as f64 + 0.25 * (j % 7) as f64, ((j * 31) % 97) as f64]).unwrap();
    }
    ds
}

/// Representatives enough for the index route.
fn index_route_reps() -> Dataset {
    data(NN_KERNEL_MAX_REPS + 1, 5_000)
}

#[test]
fn index_route_classification_tallies_one_query_per_point() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let ds = data(5_000, 0);
    let reps = index_route_reps();
    let mut per_threads = Vec::new();
    for threads in [1usize, 2] {
        db_obs::reset();
        nn_classify_parallel(&ds, &reps, NonZeroUsize::new(threads));
        let snap = db_obs::snapshot();
        let n = Some(ds.len() as u64);
        assert_eq!(snap.counter("spatial.knn_queries"), n, "threads = {threads}");
        assert_eq!(snap.counter("sampling.points_classified"), n, "threads = {threads}");
        per_threads.push(snap.counter("spatial.dist_evals"));
    }
    assert!(per_threads[0].is_some_and(|e| e > 0));
    assert_eq!(per_threads[0], per_threads[1], "dist evals differ between 1 and 2 threads");
}

#[test]
fn batch_absorb_tallies_one_query_per_point() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut live = IncrementalCompression::from_representatives(index_route_reps());
    let batch = data(1_234, 77);
    db_obs::reset();
    live.try_absorb_all(&batch).unwrap();
    let snap = db_obs::snapshot();
    assert_eq!(snap.counter("spatial.knn_queries"), Some(batch.len() as u64));
}
