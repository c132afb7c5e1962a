//! Metrics parity of the classification paths. It resets and reads the
//! process-global registry, so it lives in a binary of its own: sibling
//! tests that classify in the same process would bump
//! `sampling.points_classified` between its reset and its snapshot.
#![cfg(feature = "metrics")]

use std::num::NonZeroUsize;

use db_sampling::nn_classify_parallel;
use db_spatial::Dataset;

fn data(n: usize) -> Dataset {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..n {
        ds.push(&[(i % 173) as f64, ((i * 31) % 97) as f64]).unwrap();
    }
    ds
}

#[test]
fn both_paths_emit_identical_metrics() {
    // The <1024-point sequential fallback must leave the same span and
    // counter trail as the threaded path.
    let reps_small = data(1_200).subset(&[0, 600]);
    let names = |n: usize, t: Option<NonZeroUsize>| {
        db_obs::reset();
        let ds = data(n);
        nn_classify_parallel(&ds, &reps_small, t);
        let snap = db_obs::snapshot();
        assert_eq!(snap.counter("sampling.points_classified"), Some(n as u64));
        assert!(snap.span("sampling.nn_classify").is_some(), "span missing (n = {n})");
        snap
    };
    names(100, NonZeroUsize::new(4)); // sequential fallback
    names(2_000, NonZeroUsize::new(2)); // threaded path
    names(2_000, NonZeroUsize::new(1)); // explicit single thread
}
