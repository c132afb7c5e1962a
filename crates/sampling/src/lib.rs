//! Random-sampling based data compression (§2 of the Data Bubbles paper).
//!
//! The sampling alternative to BIRCH works as follows:
//!
//! 1. Draw a random sample of size `k` from the database to initialize `k`
//!    sufficient statistics `(n, LS, ss)`.
//! 2. In one pass over the original database, classify each object `o` to
//!    the sampled object it is closest to and incrementally add `o` to the
//!    corresponding sufficient statistics (CF additivity).
//!
//! Compared to BIRCH this "has the advantages that we can control exactly
//! the number of representative objects" and needs no threshold parameter.
//! The classification information is retained ([`CompressedSample::assignment`])
//! because the pipelines reuse it in their final expansion step (the paper
//! saves it to a file for the same reason, §8 step 1).
//!
//! # Example
//!
//! ```
//! use db_sampling::compress_by_sampling;
//! use db_spatial::Dataset;
//!
//! let mut ds = Dataset::new(1).unwrap();
//! for i in 0..100 {
//!     ds.push(&[i as f64]).unwrap();
//! }
//! let c = compress_by_sampling(&ds, 10, 42).unwrap();
//! assert_eq!(c.stats.len(), 10);
//! assert_eq!(c.stats.iter().map(|cf| cf.n()).sum::<u64>(), 100);
//! ```

#![warn(missing_docs)]

pub mod bfr;
pub mod incremental;
pub mod nearest;
pub mod parallel;
pub mod squash;

pub use bfr::{bfr_compress, BfrParams, BfrResult};
pub use incremental::IncrementalCompression;
pub use nearest::{NearestRep, NN_KERNEL_MAX_REPS};
pub use parallel::{
    accumulate_stats_parallel, accumulate_stats_supervised, nn_classify_parallel,
    nn_classify_supervised,
};
pub use squash::{squash_compress, SquashResult};

use std::fmt;
use std::num::NonZeroUsize;

use db_birch::Cf;
use db_rng::Rng;
use db_spatial::{id_u32, Dataset};
use db_supervise::{unsupervised, Stop, Supervisor};

/// Errors of the sampling compressor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplingError {
    /// `k` was zero.
    ZeroSampleSize,
    /// `k` exceeded the number of points.
    SampleLargerThanData {
        /// Requested sample size.
        k: usize,
        /// Dataset size.
        n: usize,
    },
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::ZeroSampleSize => write!(f, "sample size must be positive"),
            SamplingError::SampleLargerThanData { k, n } => {
                write!(f, "sample size {k} exceeds dataset size {n}")
            }
        }
    }
}

impl std::error::Error for SamplingError {}

/// Why a supervised compression did not produce a result: the arguments
/// were invalid, or the supervisor stopped the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressStop {
    /// Argument validation failed (same conditions as the unsupervised
    /// entry points).
    Sampling(SamplingError),
    /// The run was cancelled, overran its deadline, or a worker panicked.
    Stopped(Stop),
}

impl fmt::Display for CompressStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressStop::Sampling(e) => e.fmt(f),
            CompressStop::Stopped(s) => s.fmt(f),
        }
    }
}

impl std::error::Error for CompressStop {}

impl From<SamplingError> for CompressStop {
    fn from(e: SamplingError) -> Self {
        CompressStop::Sampling(e)
    }
}

impl From<Stop> for CompressStop {
    fn from(s: Stop) -> Self {
        CompressStop::Stopped(s)
    }
}

/// The result of sampling + one-pass NN classification: `k` representative
/// points with their accumulated sufficient statistics, plus the
/// classification of every original object.
#[derive(Debug, Clone)]
pub struct CompressedSample {
    /// Indices (into the original dataset) of the sampled representatives,
    /// ascending.
    pub sample_ids: Vec<usize>,
    /// The sampled points themselves (row `j` = point `sample_ids[j]`).
    pub reps: Dataset,
    /// Per-representative sufficient statistics over the objects classified
    /// to it. `stats[j].n() >= 1` (the representative classifies to itself).
    pub stats: Vec<Cf>,
    /// For every original object, the representative index it was
    /// classified to (`assignment[i] < sample_ids.len()`).
    pub assignment: Vec<u32>,
}

impl CompressedSample {
    /// Number of representatives.
    pub fn k(&self) -> usize {
        self.sample_ids.len()
    }

    /// The objects classified to representative `j`, in original-id order.
    pub fn members_of(&self, j: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a as usize == j).then_some(i))
            .collect()
    }

    /// Groups all object ids by representative: `out[j]` lists the members
    /// of representative `j` in original-id order. One pass, O(n).
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.k()];
        for (i, &a) in self.assignment.iter().enumerate() {
            out[a as usize].push(i);
        }
        out
    }
}

/// Draws a seeded random sample of `k` distinct points and classifies every
/// point of `ds` to its nearest sample point, accumulating sufficient
/// statistics (the paper's steps 1–2 of `OPTICS-SA`).
///
/// Equivalent to [`compress_by_sampling_threaded`] with `threads = None`
/// (available parallelism); the result is bit-for-bit identical for every
/// thread count, so the two entry points are interchangeable.
///
/// # Errors
///
/// Returns an error when `k == 0` or `k > ds.len()`.
pub fn compress_by_sampling(
    ds: &Dataset,
    k: usize,
    seed: u64,
) -> Result<CompressedSample, SamplingError> {
    compress_by_sampling_threaded(ds, k, seed, None)
}

/// [`compress_by_sampling`] with an explicit thread count for the
/// classification and statistics-accumulation passes (`None` = available
/// parallelism). Sampling itself is a sequential seeded draw, so the whole
/// result is deterministic per seed and identical across thread counts.
///
/// # Errors
///
/// Returns an error when `k == 0` or `k > ds.len()`.
pub fn compress_by_sampling_threaded(
    ds: &Dataset,
    k: usize,
    seed: u64,
    threads: Option<NonZeroUsize>,
) -> Result<CompressedSample, SamplingError> {
    unsupervised("compression", |sup| {
        match compress_by_sampling_supervised(ds, k, seed, threads, sup) {
            Ok(c) => Ok(Ok(c)),
            Err(CompressStop::Sampling(e)) => Ok(Err(e)),
            Err(CompressStop::Stopped(stop)) => Err(stop),
        }
    })
}

/// [`compress_by_sampling_threaded`] under supervision: the classification
/// and accumulation passes consult `sup` on an amortized tick and capture
/// worker panics. On [`CompressStop::Stopped`] no partial result escapes;
/// on `Ok` the result is bit-for-bit the unsupervised one.
///
/// # Errors
///
/// [`CompressStop::Sampling`] when `k == 0` or `k > ds.len()`;
/// [`CompressStop::Stopped`] when the supervisor halted the run.
pub fn compress_by_sampling_supervised(
    ds: &Dataset,
    k: usize,
    seed: u64,
    threads: Option<NonZeroUsize>,
    sup: &Supervisor,
) -> Result<CompressedSample, CompressStop> {
    if k == 0 {
        return Err(SamplingError::ZeroSampleSize.into());
    }
    if k > ds.len() {
        return Err(SamplingError::SampleLargerThanData { k, n: ds.len() }.into());
    }
    let _span = db_obs::span!("sampling.compress");
    let mut rng = Rng::seed_from_u64(seed);
    let mut sample_ids: Vec<usize> = rng.sample_indices(ds.len(), k);
    sample_ids.sort_unstable();
    db_obs::counter!("sampling.reps_sampled").add(k as u64);

    let reps = ds.subset(&sample_ids);
    let mut assignment = nn_classify_supervised(ds, &reps, threads, sup)?;
    let stats = accumulate_stats_supervised(ds, &assignment, k, threads, sup)?;

    // Duplicate objects can put identical points into the sample; every
    // copy then classifies to the lowest-id one, leaving the others'
    // statistics empty. Drop those shadowed representatives so the
    // documented invariant `stats[j].n() >= 1` holds.
    if stats.iter().any(Cf::is_empty) {
        let mut remap = vec![u32::MAX; k];
        let mut kept_ids = Vec::new();
        let mut kept_stats = Vec::new();
        for (j, cf) in stats.into_iter().enumerate() {
            if !cf.is_empty() {
                remap[j] = id_u32(kept_ids.len());
                kept_ids.push(sample_ids[j]);
                kept_stats.push(cf);
            }
        }
        for a in &mut assignment {
            *a = remap[*a as usize];
            debug_assert_ne!(*a, u32::MAX, "object assigned to a dropped representative");
        }
        let reps = ds.subset(&kept_ids);
        return Ok(CompressedSample { sample_ids: kept_ids, reps, stats: kept_stats, assignment });
    }
    Ok(CompressedSample { sample_ids, reps, stats, assignment })
}

/// Classifies every point of `ds` to its nearest point in `reps`
/// (1-NN classification; ties broken by lower representative index).
///
/// Small representative sets (≤ [`NN_KERNEL_MAX_REPS`]) go through the
/// batched distance kernel — whole query blocks against the flat
/// representative block, comparing in squared space with zero square
/// roots — larger ones through the 2-d cell table or a spatial index
/// ([`NearestRep`]); the routes are bit-for-bit identical.
///
/// # Panics
///
/// Panics if `reps` is empty or dimensionalities differ.
pub fn nn_classify(ds: &Dataset, reps: &Dataset) -> Vec<u32> {
    nn_classify_parallel(ds, reps, NonZeroUsize::new(1))
}

/// Accumulates per-representative sufficient statistics from a
/// classification.
///
/// Single-threaded entry point of [`accumulate_stats_parallel`]; both use
/// the same fixed block layout, so their results are bit-for-bit equal.
///
/// # Panics
///
/// Panics if an assignment is out of range or lengths differ.
pub fn accumulate_stats(ds: &Dataset, assignment: &[u32], k: usize) -> Vec<Cf> {
    accumulate_stats_parallel(ds, assignment, k, NonZeroUsize::new(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Dataset {
        let mut ds = Dataset::new(1).unwrap();
        for i in 0..n {
            ds.push(&[i as f64]).unwrap();
        }
        ds
    }

    #[test]
    fn errors_on_bad_k() {
        let ds = line(10);
        assert_eq!(compress_by_sampling(&ds, 0, 1).unwrap_err(), SamplingError::ZeroSampleSize);
        assert_eq!(
            compress_by_sampling(&ds, 11, 1).unwrap_err(),
            SamplingError::SampleLargerThanData { k: 11, n: 10 }
        );
        assert!(SamplingError::ZeroSampleSize.to_string().contains("positive"));
    }

    #[test]
    fn counts_partition_the_data() {
        let ds = line(200);
        let c = compress_by_sampling(&ds, 17, 42).unwrap();
        assert_eq!(c.k(), 17);
        assert_eq!(c.assignment.len(), 200);
        assert_eq!(c.stats.iter().map(Cf::n).sum::<u64>(), 200);
        assert!(c.stats.iter().all(|cf| cf.n() >= 1));
    }

    #[test]
    fn sample_ids_are_distinct_sorted_and_in_range() {
        let ds = line(100);
        let c = compress_by_sampling(&ds, 30, 7).unwrap();
        assert!(c.sample_ids.windows(2).all(|w| w[0] < w[1]));
        assert!(c.sample_ids.iter().all(|&i| i < 100));
        // reps mirror the sampled points.
        for (j, &i) in c.sample_ids.iter().enumerate() {
            assert_eq!(c.reps.point(j), ds.point(i));
        }
    }

    #[test]
    fn representatives_classify_to_themselves() {
        let ds = line(50);
        let c = compress_by_sampling(&ds, 10, 3).unwrap();
        for (j, &i) in c.sample_ids.iter().enumerate() {
            assert_eq!(c.assignment[i] as usize, j, "rep {j} not classified to itself");
        }
    }

    #[test]
    fn classification_is_truly_nearest() {
        let ds = line(100);
        let c = compress_by_sampling(&ds, 8, 11).unwrap();
        for (i, p) in ds.iter().enumerate() {
            let assigned = c.assignment[i] as usize;
            let d_assigned = db_spatial::euclidean(p, c.reps.point(assigned));
            for j in 0..c.k() {
                let d = db_spatial::euclidean(p, c.reps.point(j));
                assert!(
                    d_assigned <= d + 1e-12,
                    "point {i}: assigned rep {assigned} at {d_assigned}, rep {j} at {d}"
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn stats_match_members() {
        let ds = line(60);
        let c = compress_by_sampling(&ds, 6, 5).unwrap();
        let members = c.members();
        for j in 0..c.k() {
            assert_eq!(members[j], c.members_of(j));
            assert_eq!(c.stats[j].n() as usize, members[j].len());
            // Centroid of the CF equals the mean of the members.
            let mean: f64 =
                members[j].iter().map(|&i| ds.point(i)[0]).sum::<f64>() / members[j].len() as f64;
            assert!((c.stats[j].centroid()[0] - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = line(100);
        let a = compress_by_sampling(&ds, 10, 9).unwrap();
        let b = compress_by_sampling(&ds, 10, 9).unwrap();
        assert_eq!(a.sample_ids, b.sample_ids);
        assert_eq!(a.assignment, b.assignment);
        let c = compress_by_sampling(&ds, 10, 10).unwrap();
        assert_ne!(a.sample_ids, c.sample_ids);
    }

    #[test]
    fn full_sample_is_identity() {
        let ds = line(20);
        let c = compress_by_sampling(&ds, 20, 1).unwrap();
        assert_eq!(c.sample_ids, (0..20).collect::<Vec<_>>());
        for (i, &a) in c.assignment.iter().enumerate() {
            assert_eq!(a as usize, i);
        }
        assert!(c.stats.iter().all(|cf| cf.n() == 1));
    }

    #[test]
    #[should_panic(expected = "empty representative set")]
    fn classify_empty_reps_panics() {
        let ds = line(5);
        let reps = Dataset::new(1).unwrap();
        nn_classify(&ds, &reps);
    }
}
