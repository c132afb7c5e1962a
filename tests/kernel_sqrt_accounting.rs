//! Zero-sqrt audit of the kernel classify path, in its own test binary.
//!
//! The test resets and then reads exact values of the process-global
//! `spatial.sqrt_evals` / `spatial.dist_evals` counters. Any other test
//! running in the same process writes those counters concurrently, so the
//! audit lives alone here: one test binary is one process, and nothing
//! else can touch the counters between its `reset` and its `snapshot`.
//! The counters exist only with the `metrics` feature.

#![cfg(feature = "metrics")]

use db_sampling::{nn_classify, NN_KERNEL_MAX_REPS};
use db_spatial::Dataset;

fn blob_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = db_rng::Rng::seed_from_u64(seed);
    let mut ds = Dataset::new(dim).expect("dim");
    for _ in 0..n {
        let p: Vec<f64> = (0..dim).map(|_| rng.gen_f64(-50.0, 50.0)).collect();
        ds.push(&p).expect("finite");
    }
    ds
}

// The kernel classify path never leaves squared space.
#[test]
fn kernel_classify_path_performs_zero_sqrt() {
    // ε-query convention audit: every scan compares in squared space and
    // converts only *reported* results via `surrogate_to_dist`, which is
    // where `spatial.sqrt_evals` is tallied. 1-NN classification reports
    // no distances at all — the kernel path must therefore take zero
    // square roots per candidate (and zero in total).
    let ds = blob_dataset(2_000, 4, 0x5EED);
    let reps = ds.subset(&(0..100).map(|i| i * 17).collect::<Vec<_>>());

    db_obs::reset();
    let kernel_assign = nn_classify(&ds, &reps);
    let snap = db_obs::snapshot();
    assert_eq!(
        snap.counter("spatial.sqrt_evals").unwrap_or(0),
        0,
        "kernel classify path took square roots"
    );
    assert_eq!(snap.counter("spatial.dist_evals"), Some((ds.len() * reps.len()) as u64));

    // The index route (k above the threshold) converts one reported
    // nearest distance per point — nonzero by design, which is exactly
    // what the kernel path avoids. This keeps the counter honest: a
    // broken tally would make the zero above vacuous.
    let big_reps = ds.subset(&(0..NN_KERNEL_MAX_REPS + 1).map(|i| i * 7).collect::<Vec<_>>());
    db_obs::reset();
    let index_assign = nn_classify(&ds, &big_reps);
    let snap = db_obs::snapshot();
    assert!(
        snap.counter("spatial.sqrt_evals").unwrap_or(0) >= ds.len() as u64,
        "index path should report >= one sqrt per classified point"
    );
    assert_eq!(kernel_assign.len(), index_assign.len());
}
