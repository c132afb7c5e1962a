//! Incremental maintenance of a sampling-based compression: once the
//! representatives are fixed, newly arriving objects are absorbed with one
//! nearest-neighbour query and one CF update (the additivity condition of
//! Definition 1) — no recompression pass.
//!
//! This supports the streaming/warehouse setting the paper's motivation
//! describes (databases that keep growing): keep one compression alive,
//! absorb inserts, and re-run OPTICS on the (cheap) bubble set whenever a
//! fresh cluster ordering is wanted.
//!
//! # Ingest boundary
//!
//! Absorption is an ingest boundary exactly like [`Dataset`] construction:
//! a single NaN/∞ coordinate added to a [`Cf`] permanently corrupts that
//! representative's statistics (no subtraction can remove it), and object
//! ids travel as `u32`, so absorbing past [`Dataset::MAX_POINTS`] objects
//! would silently truncate ids. [`IncrementalCompression::try_absorb`] and
//! [`IncrementalCompression::try_absorb_all`] therefore validate *before*
//! mutating anything and return a typed [`SpatialError`]; on `Err` the
//! compression is bit-for-bit unchanged. The panicking
//! [`IncrementalCompression::absorb`] forms remain as thin wrappers for
//! validated input only.

use std::sync::Arc;

use db_birch::Cf;
use db_spatial::{id_u32, Dataset, NnTally, SpatialError};

use crate::{CompressedSample, NearestRep};

/// A live compression: fixed representatives plus growing sufficient
/// statistics and membership.
#[derive(Debug, Clone)]
pub struct IncrementalCompression {
    reps: Dataset,
    /// Built once for the fixed representatives and shared by every clone.
    nearest: Arc<NearestRep>,
    stats: Vec<Cf>,
    assignment: Vec<u32>,
    /// Objects absorbed so far. Equal to `assignment.len()` except in
    /// tests that inject an artificial count to exercise the
    /// [`Dataset::MAX_POINTS`] boundary without 2³² real absorbs.
    absorbed: usize,
}

impl IncrementalCompression {
    /// Starts from an existing batch compression.
    ///
    /// # Panics
    ///
    /// Panics if the sample has no representatives.
    pub fn from_sample(sample: &CompressedSample) -> Self {
        Self {
            reps: sample.reps.clone(),
            nearest: Arc::new(NearestRep::new(&sample.reps)),
            stats: sample.stats.clone(),
            assignment: sample.assignment.clone(),
            absorbed: sample.assignment.len(),
        }
    }

    /// Starts from bare representatives (each seeds its own statistics).
    ///
    /// # Panics
    ///
    /// Panics if `reps` is empty.
    pub fn from_representatives(reps: Dataset) -> Self {
        assert!(!reps.is_empty(), "need at least one representative");
        let stats = reps.iter().map(Cf::from_point).collect();
        let assignment: Vec<u32> = (0..id_u32(reps.len())).collect();
        let absorbed = assignment.len();
        let nearest = Arc::new(NearestRep::new(&reps));
        Self { reps, nearest, stats, assignment, absorbed }
    }

    /// Number of representatives.
    pub fn k(&self) -> usize {
        self.reps.len()
    }

    /// Number of objects absorbed so far (including the representatives
    /// when constructed via [`Self::from_representatives`]).
    pub fn n_objects(&self) -> usize {
        self.absorbed
    }

    /// The per-representative sufficient statistics.
    pub fn stats(&self) -> &[Cf] {
        &self.stats
    }

    /// The classification of every absorbed object, in arrival order.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The representatives.
    pub fn representatives(&self) -> &Dataset {
        &self.reps
    }

    /// The nearest-representative query state of [`Self::representatives`],
    /// fixed with them: holders of a clone of the [`Arc`] answer nearest
    /// queries without building their own.
    pub fn nearest_rep(&self) -> &Arc<NearestRep> {
        &self.nearest
    }

    /// Total mass (sum of per-representative CF counts). Equals
    /// [`Self::n_objects`] for compressions built by the constructors in
    /// this module.
    pub fn total_mass(&self) -> u64 {
        self.stats.iter().map(Cf::n).sum()
    }

    /// Validates one candidate point without mutating anything.
    fn check_point(&self, point: &[f64]) -> Result<(), SpatialError> {
        if point.len() != self.reps.dim() {
            return Err(SpatialError::DimensionMismatch {
                expected: self.reps.dim(),
                got: point.len(),
            });
        }
        if let Some(coord) = point.iter().position(|x| !x.is_finite()) {
            return Err(SpatialError::NonFiniteCoordinate { point: self.absorbed, coord });
        }
        Ok(())
    }

    /// Fails when absorbing `extra` more objects would push the object
    /// count past the `u32` id range.
    fn check_capacity(&self, extra: usize) -> Result<(), SpatialError> {
        let len = self.absorbed.saturating_add(extra);
        if len > Dataset::MAX_POINTS {
            return Err(SpatialError::TooManyPoints { len, max: Dataset::MAX_POINTS });
        }
        Ok(())
    }

    /// Absorbs the (already validated) point, tallying its query into
    /// `tally`. Internal: callers must have run [`Self::check_point`] and
    /// [`Self::check_capacity`] first, and flush `tally` afterwards.
    fn absorb_unchecked(&mut self, point: &[f64], tally: &mut NnTally) -> usize {
        let rep = self.nearest.nearest_tallied(&self.reps, point, tally);
        self.stats[rep].add_point(point);
        self.assignment.push(id_u32(rep));
        self.absorbed += 1;
        rep
    }

    /// Absorbs one new object: classifies it to the nearest representative
    /// and updates that representative's statistics. Returns the
    /// representative index.
    ///
    /// Validation happens *before* any mutation: on `Err` the statistics,
    /// assignment and object count are bit-for-bit unchanged.
    ///
    /// # Errors
    ///
    /// * [`SpatialError::DimensionMismatch`] — wrong point length;
    /// * [`SpatialError::NonFiniteCoordinate`] — NaN or ±∞ coordinate
    ///   (`point` is the would-be object index, i.e. the current
    ///   [`Self::n_objects`]);
    /// * [`SpatialError::TooManyPoints`] — the absorb would exceed
    ///   [`Dataset::MAX_POINTS`] objects (u32 id range).
    pub fn try_absorb(&mut self, point: &[f64]) -> Result<usize, SpatialError> {
        self.check_point(point)?;
        self.check_capacity(1)?;
        let mut tally = NnTally::default();
        let rep = self.absorb_unchecked(point, &mut tally);
        tally.flush();
        Ok(rep)
    }

    /// Absorbs a batch of objects atomically: the whole batch is validated
    /// (dimensionality, finiteness, id-range capacity) before the first
    /// point is absorbed, so on `Err` nothing was absorbed. Returns the
    /// representative index of every point, in batch order.
    ///
    /// `Dataset` construction already rejects non-finite coordinates, but
    /// the batch is re-checked defensively (it may come from
    /// [`Dataset::from_flat_unchecked`]).
    ///
    /// # Errors
    ///
    /// As [`Self::try_absorb`]; the `point` index of a
    /// [`SpatialError::NonFiniteCoordinate`] counts from the current
    /// [`Self::n_objects`].
    pub fn try_absorb_all(&mut self, ds: &Dataset) -> Result<Vec<usize>, SpatialError> {
        if ds.dim() != self.reps.dim() {
            return Err(SpatialError::DimensionMismatch {
                expected: self.reps.dim(),
                got: ds.dim(),
            });
        }
        self.check_capacity(ds.len())?;
        for (i, p) in ds.iter().enumerate() {
            if let Some(coord) = p.iter().position(|x| !x.is_finite()) {
                return Err(SpatialError::NonFiniteCoordinate { point: self.absorbed + i, coord });
            }
        }
        // One tally for the batch, flushed once.
        let mut tally = NnTally::default();
        let reps = ds.iter().map(|p| self.absorb_unchecked(p, &mut tally)).collect();
        tally.flush();
        Ok(reps)
    }

    /// Absorbs one new object. **Validated input only** — thin wrapper
    /// around [`Self::try_absorb`] for points already known to be finite
    /// and within the id range.
    ///
    /// # Panics
    ///
    /// Panics on any [`Self::try_absorb`] error (dimensionality mismatch,
    /// non-finite coordinate, id-range overflow).
    pub fn absorb(&mut self, point: &[f64]) -> usize {
        match self.try_absorb(point) {
            Ok(rep) => rep,
            Err(e @ SpatialError::DimensionMismatch { .. }) => {
                panic!("dimensionality mismatch: {e}")
            }
            Err(e) => panic!("absorb of invalid point: {e}"),
        }
    }

    /// Absorbs a batch of objects. **Validated input only** — thin wrapper
    /// around [`Self::try_absorb_all`].
    ///
    /// # Panics
    ///
    /// Panics on any [`Self::try_absorb_all`] error.
    pub fn absorb_all(&mut self, ds: &Dataset) {
        if let Err(e) = self.try_absorb_all(ds) {
            panic!("absorb of invalid batch: {e}");
        }
    }

    /// Overrides the absorbed-object count. **Test injection only**: lets
    /// the [`Dataset::MAX_POINTS`] boundary be exercised without 2³² real
    /// absorbs. After the call [`Self::n_objects`] and
    /// [`Self::assignment`]`.len()` disagree — never use outside tests.
    #[doc(hidden)]
    pub fn force_object_count_for_tests(&mut self, n: usize) {
        self.absorbed = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress_by_sampling;

    fn line(n: usize) -> Dataset {
        let mut ds = Dataset::new(1).unwrap();
        for i in 0..n {
            ds.push(&[i as f64]).unwrap();
        }
        ds
    }

    #[test]
    fn incremental_equals_batch_for_same_data() {
        // Batch-compress the first half, absorb the second half one by
        // one; statistics must equal a batch classification of everything
        // against the same representatives.
        let ds = line(200);
        let first = ds.subset(&(0..100).collect::<Vec<_>>());
        let batch = compress_by_sampling(&first, 10, 7).unwrap();
        let mut inc = IncrementalCompression::from_sample(&batch);
        for i in 100..200 {
            inc.absorb(ds.point(i));
        }
        // Reference: classify all 200 points against the same reps.
        let assignment = crate::nn_classify(&ds, &batch.reps);
        let stats = crate::accumulate_stats(&ds, &assignment, 10);
        assert_eq!(inc.n_objects(), 200);
        for (a, b) in inc.stats().iter().zip(&stats) {
            assert_eq!(a.n(), b.n());
            for (x, y) in a.ls().iter().zip(b.ls()) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn from_representatives_seeds_one_point_each() {
        let reps = line(5);
        let inc = IncrementalCompression::from_representatives(reps);
        assert_eq!(inc.k(), 5);
        assert_eq!(inc.n_objects(), 5);
        assert_eq!(inc.total_mass(), 5);
        assert!(inc.stats().iter().all(|cf| cf.n() == 1));
    }

    #[test]
    fn absorb_assigns_to_nearest() {
        let reps = Dataset::from_rows(1, &[&[0.0], &[100.0]]).unwrap();
        let mut inc = IncrementalCompression::from_representatives(reps);
        assert_eq!(inc.absorb(&[10.0]), 0);
        assert_eq!(inc.absorb(&[90.0]), 1);
        assert_eq!(inc.assignment(), [0, 1, 0, 1]);
    }

    #[test]
    fn absorb_all_matches_loop() {
        let reps = line(4);
        let batch = line(50);
        let mut a = IncrementalCompression::from_representatives(reps.clone());
        a.absorb_all(&batch);
        let mut b = IncrementalCompression::from_representatives(reps);
        for p in batch.iter() {
            b.absorb(p);
        }
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn bubbles_from_incremental_stats_cluster_correctly() {
        // Stream two groups into a 4-rep compression; the derived bubble
        // weights must sum to the stream size.
        let reps = Dataset::from_rows(1, &[&[0.0], &[5.0], &[100.0], &[105.0]]).unwrap();
        let mut inc = IncrementalCompression::from_representatives(reps);
        for i in 0..100 {
            inc.absorb(&[(i % 10) as f64]);
            inc.absorb(&[100.0 + (i % 10) as f64]);
        }
        let total: u64 = inc.stats().iter().map(Cf::n).sum();
        assert_eq!(total, 204);
        // The stats feed straight into a bubble space.
        let centroids: Vec<_> = inc.stats().iter().map(|cf| cf.centroid()[0]).collect();
        assert!(centroids[0] < 10.0 && centroids[2] > 90.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn absorb_wrong_dim_panics() {
        let mut inc = IncrementalCompression::from_representatives(line(3));
        inc.absorb(&[0.0, 1.0]);
    }

    #[test]
    fn try_absorb_rejects_non_finite_without_mutation() {
        let mut inc = IncrementalCompression::from_representatives(line(3));
        let before_stats = inc.stats().to_vec();
        let before_assignment = inc.assignment().to_vec();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                inc.try_absorb(&[bad]),
                Err(SpatialError::NonFiniteCoordinate { point: 3, coord: 0 })
            );
        }
        assert_eq!(
            inc.try_absorb(&[0.0, 1.0]),
            Err(SpatialError::DimensionMismatch { expected: 1, got: 2 })
        );
        assert_eq!(inc.stats(), &before_stats[..]);
        assert_eq!(inc.assignment(), &before_assignment[..]);
        assert_eq!(inc.n_objects(), 3);
        // A valid point still goes through afterwards.
        assert_eq!(inc.try_absorb(&[1.0]), Ok(1));
    }

    #[test]
    fn try_absorb_all_is_atomic() {
        // The batch has a NaN in its *last* row; nothing from the batch
        // may be absorbed, including the valid leading rows.
        let mut inc = IncrementalCompression::from_representatives(line(3));
        let batch = Dataset::from_flat_unchecked(1, vec![0.0, 1.0, f64::NAN]);
        let before_stats = inc.stats().to_vec();
        assert_eq!(
            inc.try_absorb_all(&batch),
            Err(SpatialError::NonFiniteCoordinate { point: 5, coord: 0 })
        );
        assert_eq!(inc.stats(), &before_stats[..]);
        assert_eq!(inc.n_objects(), 3);
        // A clean batch reports one representative per point.
        let clean = line(4);
        assert_eq!(inc.try_absorb_all(&clean).unwrap().len(), 4);
        assert_eq!(inc.n_objects(), 7);
    }

    #[test]
    fn absorb_caps_at_the_u32_id_range() {
        // An injected counter stands in for 2³² real absorbs.
        let mut inc = IncrementalCompression::from_representatives(line(2));
        inc.force_object_count_for_tests(Dataset::MAX_POINTS - 1);
        assert_eq!(inc.try_absorb(&[0.5]), Ok(0));
        assert_eq!(inc.n_objects(), Dataset::MAX_POINTS);
        assert_eq!(
            inc.try_absorb(&[0.5]),
            Err(SpatialError::TooManyPoints {
                len: Dataset::MAX_POINTS + 1,
                max: Dataset::MAX_POINTS
            })
        );
        // Batch absorbs respect the same cap before absorbing anything.
        let batch = line(3);
        assert_eq!(
            inc.try_absorb_all(&batch),
            Err(SpatialError::TooManyPoints {
                len: Dataset::MAX_POINTS + 3,
                max: Dataset::MAX_POINTS
            })
        );
    }

    #[test]
    #[should_panic(expected = "absorb of invalid point")]
    fn absorb_panics_on_non_finite() {
        let mut inc = IncrementalCompression::from_representatives(line(3));
        inc.absorb(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "absorb of invalid batch")]
    fn absorb_all_panics_on_non_finite() {
        let mut inc = IncrementalCompression::from_representatives(line(3));
        inc.absorb_all(&Dataset::from_flat_unchecked(1, vec![f64::INFINITY]));
    }
}
