//! Clustering Features (sufficient statistics) — Definition 1 of the Data
//! Bubbles paper, originally from BIRCH — in the numerically stable
//! mean/sum-of-squared-deviations representation of BETULA (Lang &
//! Schubert, "BETULA: Numerically Stable CF-Trees for BIRCH Clustering").
//!
//! The classic `(n, LS, ss)` triple computes radius and diameter through
//! differences of large, nearly equal quantities (`ss − ‖LS‖²/n`), which
//! suffers *catastrophic cancellation* for clusters far from the origin or
//! with tiny variance: the radicand goes negative and the naive clamp to
//! zero silently collapses extents and nndists. Storing the incrementally
//! maintained **mean** and the **sum of squared deviations from the mean**
//! (`ssd = Σ‖Xᵢ − mean‖²`) instead makes every derived quantity
//! shift-invariant: translating all points by 1e8 changes `radius`,
//! `diameter`, and `merged_diameter` by at most the input quantization
//! error. The classic `LS`/`ss` views remain available as derived
//! accessors for serialization compatibility.
//!
//! Residual clamps (which can still occur in the lossy
//! [`Cf::from_parts`] conversion from the unstable triple, or from last-ulp
//! noise in merges) are counted on the `cf.clamp_events` observability
//! counter so instability is observable rather than silent.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Errors of fallible CF construction and updates ([`Cf::try_empty`] and
/// friends). Produced when *untrusted* data reaches a CF; the panicking
/// constructors remain as thin wrappers for validated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfError {
    /// The dimensionality was zero.
    ZeroDimension,
    /// A point or CF of a different dimensionality was combined.
    DimensionMismatch {
        /// Dimensionality of the CF.
        expected: usize,
        /// Dimensionality of the offending point/CF.
        got: usize,
    },
    /// A coordinate was NaN or ±∞.
    NonFiniteCoordinate {
        /// Index of the offending coordinate.
        coord: usize,
    },
    /// A scalar statistic (`ss`) was NaN or ±∞.
    NonFiniteStatistic,
}

impl fmt::Display for CfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfError::ZeroDimension => write!(f, "dimensionality must be positive"),
            CfError::DimensionMismatch { expected, got } => {
                write!(f, "dimensionality mismatch: expected {expected}, got {got}")
            }
            CfError::NonFiniteCoordinate { coord } => {
                write!(f, "coordinate {coord} is not finite")
            }
            CfError::NonFiniteStatistic => write!(f, "square sum is not finite"),
        }
    }
}

impl std::error::Error for CfError {}

/// A Clustering Feature summarizing a set of `d`-dimensional points: the
/// count `n`, the component-wise **mean**, and the scalar sum of squared
/// deviations `ssd = Σ‖Xᵢ − mean‖²`.
///
/// This carries the same information as BIRCH's `CF = (n, LS, ss)` (both
/// are recoverable via [`Cf::ls`] / [`Cf::ss`]) but is numerically stable;
/// see the module documentation.
///
/// CFs satisfy the additivity condition: `CF(S₁ ∪ S₂) = CF(S₁) + CF(S₂)`
/// for disjoint sets, implemented via [`Add`]/[`AddAssign`] with the
/// pairwise merge formula of Chan, Golub & LeVeque.
#[derive(Debug, Clone, PartialEq)]
pub struct Cf {
    n: u64,
    mean: Vec<f64>,
    ssd: f64,
}

/// Clamps a radicand that must be non-negative, counting residual
/// negative values (numerical noise) on the `cf.clamp_events` counter.
#[inline]
fn clamp_radicand(x: f64) -> f64 {
    if x < 0.0 {
        db_obs::counter!("cf.clamp_events").incr();
        0.0
    } else {
        x
    }
}

impl Cf {
    /// The CF of the empty set in `dim` dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`CfError::ZeroDimension`] if `dim == 0`.
    pub fn try_empty(dim: usize) -> Result<Self, CfError> {
        if dim == 0 {
            return Err(CfError::ZeroDimension);
        }
        Ok(Self { n: 0, mean: vec![0.0; dim], ssd: 0.0 })
    }

    /// The CF of the empty set in `dim` dimensions (validated input only).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self { n: 0, mean: vec![0.0; dim], ssd: 0.0 }
    }

    /// The CF of a single point.
    ///
    /// # Errors
    ///
    /// Returns an error if `point` is empty or contains a non-finite
    /// coordinate.
    pub fn try_from_point(point: &[f64]) -> Result<Self, CfError> {
        let mut cf = Self::try_empty(point.len())?;
        cf.try_add_point(point)?;
        Ok(cf)
    }

    /// The CF of a single point (validated input only).
    ///
    /// # Panics
    ///
    /// Panics if `point` is empty or contains a non-finite coordinate.
    pub fn from_point(point: &[f64]) -> Self {
        match Self::try_from_point(point) {
            Ok(cf) => cf,
            Err(CfError::ZeroDimension) => panic!("dimensionality must be positive"),
            Err(e) => panic!("invalid point: {e}"),
        }
    }

    /// Reconstructs a CF from the classic raw components `(n, LS, ss)`
    /// (e.g. deserialized state).
    ///
    /// This conversion inherits the cancellation of the unstable triple:
    /// the derived `ssd = ss − ‖LS‖²/n` may dip below zero for
    /// far-from-origin data, in which case it is clamped to zero (and
    /// counted on `cf.clamp_events`). Prefer keeping CFs in their stable
    /// form end to end.
    ///
    /// # Errors
    ///
    /// Returns an error if `ls` is empty or any component is non-finite.
    pub fn try_from_parts(n: u64, ls: Vec<f64>, ss: f64) -> Result<Self, CfError> {
        if ls.is_empty() {
            return Err(CfError::ZeroDimension);
        }
        if let Some(coord) = ls.iter().position(|x| !x.is_finite()) {
            return Err(CfError::NonFiniteCoordinate { coord });
        }
        if !ss.is_finite() {
            return Err(CfError::NonFiniteStatistic);
        }
        if n == 0 {
            return Ok(Self { n: 0, mean: vec![0.0; ls.len()], ssd: 0.0 });
        }
        let nf = n as f64;
        let mean: Vec<f64> = ls.iter().map(|&l| l / nf).collect();
        let mean_norm_sq: f64 = mean.iter().map(|&m| m * m).sum();
        let ssd = clamp_radicand(ss - nf * mean_norm_sq);
        Ok(Self { n, mean, ssd })
    }

    /// Reconstructs a CF from classic raw components (validated input
    /// only). See [`Cf::try_from_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `ls` is empty or any component is non-finite.
    pub fn from_parts(n: u64, ls: Vec<f64>, ss: f64) -> Self {
        match Self::try_from_parts(n, ls, ss) {
            Ok(cf) => cf,
            Err(CfError::ZeroDimension) => panic!("dimensionality must be positive"),
            Err(e) => panic!("invalid CF components: {e}"),
        }
    }

    /// Adds one point (the incremental update of BIRCH's insertion),
    /// using Welford's update for the mean and squared deviations.
    ///
    /// # Errors
    ///
    /// Returns an error when the dimensionality differs or a coordinate is
    /// non-finite; the CF is unchanged on error.
    pub fn try_add_point(&mut self, point: &[f64]) -> Result<(), CfError> {
        if point.len() != self.mean.len() {
            return Err(CfError::DimensionMismatch { expected: self.mean.len(), got: point.len() });
        }
        if let Some(coord) = point.iter().position(|x| !x.is_finite()) {
            return Err(CfError::NonFiniteCoordinate { coord });
        }
        self.n += 1;
        let inv = 1.0 / self.n as f64;
        let mut ssd_inc = 0.0;
        for (m, &x) in self.mean.iter_mut().zip(point) {
            let delta = x - *m;
            *m += delta * inv;
            ssd_inc += delta * (x - *m);
        }
        self.ssd += ssd_inc;
        Ok(())
    }

    /// Adds one point (validated input only).
    ///
    /// # Panics
    ///
    /// Panics if the point dimensionality differs or a coordinate is
    /// non-finite.
    pub fn add_point(&mut self, point: &[f64]) {
        match self.try_add_point(point) {
            Ok(()) => {}
            Err(CfError::DimensionMismatch { .. }) => panic!("dimensionality mismatch"),
            Err(e) => panic!("invalid point: {e}"),
        }
    }

    /// Merges another CF into this one (CF additivity), using the pairwise
    /// update of Chan, Golub & LeVeque — stable for groups of any size and
    /// location.
    ///
    /// # Errors
    ///
    /// Returns an error when dimensionalities differ; the CF is unchanged
    /// on error.
    pub fn try_merge(&mut self, rhs: &Cf) -> Result<(), CfError> {
        if rhs.dim() != self.dim() {
            return Err(CfError::DimensionMismatch { expected: self.dim(), got: rhs.dim() });
        }
        if rhs.n == 0 {
            return Ok(());
        }
        if self.n == 0 {
            self.n = rhs.n;
            self.mean.copy_from_slice(&rhs.mean);
            self.ssd = rhs.ssd;
            return Ok(());
        }
        self.merge_at(rhs.view(), sq_dist(&self.mean, &rhs.mean));
        Ok(())
    }

    /// The Chan–Golub–LeVeque merge of a non-empty `rhs` into this
    /// non-empty CF, given the squared distance `delta_sq` of the two
    /// means.
    pub(crate) fn merge_at(&mut self, rhs: CfView<'_>, delta_sq: f64) {
        debug_assert!(self.n > 0 && rhs.n > 0);
        let n1 = self.n as f64;
        let n2 = rhs.n as f64;
        let frac = n2 / (n1 + n2);
        for (m, &m2) in self.mean.iter_mut().zip(rhs.mean) {
            *m += (m2 - *m) * frac;
        }
        self.ssd += rhs.ssd + delta_sq * (n1 * frac);
        self.n += rhs.n;
    }

    /// This CF as a borrowed [`CfView`].
    #[inline]
    pub(crate) fn view(&self) -> CfView<'_> {
        CfView { n: self.n, mean: &self.mean, ssd: self.ssd }
    }

    /// Number of points summarized.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The classic linear sum `LS = n · mean` (derived; allocates).
    pub fn ls(&self) -> Vec<f64> {
        let nf = self.n as f64;
        self.mean.iter().map(|&m| m * nf).collect()
    }

    /// The classic square sum `ss = Σ‖Xᵢ‖² = ssd + n·‖mean‖²` (derived).
    pub fn ss(&self) -> f64 {
        let mean_norm_sq: f64 = self.mean.iter().map(|&m| m * m).sum();
        self.ssd + self.n as f64 * mean_norm_sq
    }

    /// The stored mean vector (zero vector for an empty CF).
    #[inline]
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The stored sum of squared deviations `Σ‖Xᵢ − mean‖²`.
    #[inline]
    pub fn ssd(&self) -> f64 {
        self.ssd
    }

    /// Dimensionality of the summarized points.
    #[inline]
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Whether the CF summarizes no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The centroid (the stored mean).
    ///
    /// # Panics
    ///
    /// Panics if the CF is empty.
    pub fn centroid(&self) -> Vec<f64> {
        assert!(self.n > 0, "centroid of empty CF");
        self.mean.clone()
    }

    /// Writes the centroid into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the CF is empty.
    pub fn centroid_into(&self, out: &mut Vec<f64>) {
        assert!(self.n > 0, "centroid of empty CF");
        out.clear();
        out.extend_from_slice(&self.mean);
    }

    /// BIRCH's radius: root-mean-squared distance of the points to the
    /// centroid, `R = sqrt(ssd/n)`. Zero for singletons. Shift-invariant.
    ///
    /// # Panics
    ///
    /// Panics if the CF is empty.
    pub fn radius(&self) -> f64 {
        assert!(self.n > 0, "radius of empty CF");
        (clamp_radicand(self.ssd) / self.n as f64).sqrt()
    }

    /// BIRCH's diameter: average pairwise distance
    /// `D = sqrt(2·ssd/(n−1))`. Zero for `n ≤ 1`. Shift-invariant.
    ///
    /// This is the same quantity as the Data Bubble `extent`
    /// (Corollary 1 of the Data Bubbles paper, whose published closed form
    /// `sqrt((2n·ss − 2‖LS‖²)/(n(n−1)))` is algebraically identical but
    /// cancels catastrophically far from the origin).
    pub fn diameter(&self) -> f64 {
        if self.n <= 1 {
            return 0.0;
        }
        (2.0 * clamp_radicand(self.ssd) / (self.n as f64 - 1.0)).sqrt()
    }

    /// Euclidean distance between the centroids of two CFs.
    ///
    /// # Panics
    ///
    /// Panics if either CF is empty or dimensionalities differ.
    pub fn centroid_distance(&self, other: &Cf) -> f64 {
        assert!(self.n > 0 && other.n > 0, "centroid distance of empty CF");
        assert_eq!(self.dim(), other.dim(), "dimensionality mismatch");
        sq_dist(&self.mean, &other.mean).sqrt()
    }

    /// The diameter the merged CF `self + other` would have, without
    /// building the merge. Used by the absorption test of the CF-tree.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn merged_diameter(&self, other: &Cf) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimensionality mismatch");
        let n = self.n + other.n;
        if n <= 1 {
            return 0.0;
        }
        if self.n == 0 {
            return other.diameter();
        }
        if other.n == 0 {
            return self.diameter();
        }
        self.merged_diameter_at(other.view(), sq_dist(&self.mean, &other.mean))
    }

    /// [`Cf::merged_diameter`] of this non-empty CF and a non-empty
    /// `other`, given the squared distance `delta_sq` of the two means.
    pub(crate) fn merged_diameter_at(&self, other: CfView<'_>, delta_sq: f64) -> f64 {
        debug_assert!(self.n > 0 && other.n > 0);
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let nf = n1 + n2;
        let ssd = self.ssd + other.ssd + delta_sq * (n1 * n2 / nf);
        (2.0 * clamp_radicand(ssd) / (nf - 1.0)).sqrt()
    }
}

/// Squared Euclidean distance of two means, summed left to right. It has
/// the same bits either way round: `a − b` is exactly `−(b − a)`.
#[inline]
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// A borrowed `(n, mean, ssd)`: what one descent of the CF-tree carries.
/// A point is `(1, point, 0.0)`; a CF lends its own fields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CfView<'a> {
    pub(crate) n: u64,
    pub(crate) mean: &'a [f64],
    pub(crate) ssd: f64,
}

impl CfView<'_> {
    /// An owned copy. Each mean coordinate is stored as `0.0 + m`, as
    /// Welford's first step in [`Cf::from_point`] stores a point: the
    /// identity except that −0.0 becomes +0.0.
    pub(crate) fn to_cf(self) -> Cf {
        Cf { n: self.n, mean: self.mean.iter().map(|&m| 0.0 + m).collect(), ssd: self.ssd }
    }
}

impl Add for Cf {
    type Output = Cf;

    fn add(mut self, rhs: Cf) -> Cf {
        self += rhs;
        self
    }
}

impl AddAssign for Cf {
    fn add_assign(&mut self, rhs: Cf) {
        *self += &rhs;
    }
}

impl AddAssign<&Cf> for Cf {
    fn add_assign(&mut self, rhs: &Cf) {
        match self.try_merge(rhs) {
            Ok(()) => {}
            Err(_) => panic!("dimensionality mismatch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_from_point() {
        let e = Cf::empty(3);
        assert!(e.is_empty());
        assert_eq!(e.dim(), 3);
        let p = Cf::from_point(&[1.0, 2.0, 2.0]);
        assert_eq!(p.n(), 1);
        assert_eq!(p.ls(), &[1.0, 2.0, 2.0]);
        assert!((p.ss() - 9.0).abs() < 1e-12);
        assert_eq!(p.radius(), 0.0);
        assert_eq!(p.diameter(), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality must be positive")]
    fn empty_zero_dim_panics() {
        Cf::empty(0);
    }

    #[test]
    fn try_constructors_reject_bad_input() {
        assert_eq!(Cf::try_empty(0).unwrap_err(), CfError::ZeroDimension);
        assert_eq!(Cf::try_from_point(&[]).unwrap_err(), CfError::ZeroDimension);
        assert_eq!(
            Cf::try_from_point(&[1.0, f64::NAN]).unwrap_err(),
            CfError::NonFiniteCoordinate { coord: 1 }
        );
        assert_eq!(
            Cf::try_from_point(&[f64::INFINITY]).unwrap_err(),
            CfError::NonFiniteCoordinate { coord: 0 }
        );
        let mut cf = Cf::empty(2);
        assert_eq!(
            cf.try_add_point(&[1.0]).unwrap_err(),
            CfError::DimensionMismatch { expected: 2, got: 1 }
        );
        // Failed updates leave the CF untouched.
        assert!(cf.try_add_point(&[1.0, f64::NEG_INFINITY]).is_err());
        assert!(cf.is_empty());
        assert_eq!(
            Cf::try_from_parts(2, vec![1.0, f64::NAN], 3.0).unwrap_err(),
            CfError::NonFiniteCoordinate { coord: 1 }
        );
        assert_eq!(
            Cf::try_from_parts(2, vec![1.0, 1.0], f64::NAN).unwrap_err(),
            CfError::NonFiniteStatistic
        );
        // Display impls.
        assert!(CfError::ZeroDimension.to_string().contains("positive"));
        assert!(CfError::DimensionMismatch { expected: 2, got: 1 }.to_string().contains('2'));
        assert!(CfError::NonFiniteCoordinate { coord: 3 }.to_string().contains('3'));
        assert!(CfError::NonFiniteStatistic.to_string().contains("finite"));
    }

    #[test]
    fn additivity_matches_incremental() {
        let pts: [&[f64]; 4] = [&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[4.0, 4.0]];
        let mut whole = Cf::empty(2);
        for p in pts {
            whole.add_point(p);
        }
        let left = Cf::from_point(pts[0]) + Cf::from_point(pts[1]);
        let right = Cf::from_point(pts[2]) + Cf::from_point(pts[3]);
        let merged = left + right;
        assert_eq!(merged.n(), whole.n());
        for (a, b) in merged.ls().iter().zip(whole.ls()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((merged.ss() - whole.ss()).abs() < 1e-12);
        assert!((merged.ssd() - whole.ssd()).abs() < 1e-12);
    }

    #[test]
    fn centroid_and_radius_hand_checked() {
        // Two points at (0,0) and (2,0): centroid (1,0), radius 1 (RMS
        // distance to centroid), diameter 2 (the single pairwise distance).
        let cf = Cf::from_point(&[0.0, 0.0]) + Cf::from_point(&[2.0, 0.0]);
        assert_eq!(cf.centroid(), vec![1.0, 0.0]);
        assert!((cf.radius() - 1.0).abs() < 1e-12);
        assert!((cf.diameter() - 2.0).abs() < 1e-12);
        let mut buf = Vec::new();
        cf.centroid_into(&mut buf);
        assert_eq!(buf, vec![1.0, 0.0]);
    }

    #[test]
    fn diameter_equals_average_pairwise_distance_rms() {
        // Three points: diameter² = mean over ordered pairs of squared dist.
        let pts: [&[f64]; 3] = [&[0.0], &[1.0], &[3.0]];
        let mut cf = Cf::empty(1);
        for p in pts {
            cf.add_point(p);
        }
        let mut acc = 0.0;
        let mut cnt = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    let d = pts[i][0] - pts[j][0];
                    acc += d * d;
                    cnt += 1.0;
                }
            }
        }
        assert!((cf.diameter() - (acc / cnt).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn merged_diameter_matches_actual_merge() {
        let a = Cf::from_point(&[0.0, 0.0]) + Cf::from_point(&[1.0, 1.0]);
        let b = Cf::from_point(&[5.0, 5.0]);
        let predicted = a.merged_diameter(&b);
        let merged = a + b;
        assert!((predicted - merged.diameter()).abs() < 1e-12);
    }

    #[test]
    fn merged_diameter_handles_empty_sides() {
        let a = Cf::from_point(&[0.0]) + Cf::from_point(&[2.0]);
        let e = Cf::empty(1);
        assert!((a.merged_diameter(&e) - a.diameter()).abs() < 1e-15);
        assert!((e.merged_diameter(&a) - a.diameter()).abs() < 1e-15);
        assert_eq!(e.merged_diameter(&Cf::empty(1)), 0.0);
    }

    #[test]
    fn centroid_distance_hand_checked() {
        let a = Cf::from_point(&[0.0, 0.0]);
        let b = Cf::from_point(&[3.0, 4.0]);
        assert!((a.centroid_distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn radius_never_negative_under_cancellation() {
        // Large coordinates provoked catastrophic cancellation in the old
        // ss − ‖c‖² form; the stable form is exact here.
        let mut cf = Cf::empty(1);
        for _ in 0..1000 {
            cf.add_point(&[1e8]);
        }
        assert_eq!(cf.radius(), 0.0);
        assert_eq!(cf.diameter(), 0.0);
    }

    #[test]
    fn shift_invariance_of_extent() {
        // The defining property of the stable representation: a cluster
        // translated by 1e8 keeps its diameter. The old closed form
        // collapsed it to 0 (radicand ≈ −1e16 clamped).
        for offset in [0.0, 1e6, 1e8] {
            let mut cf = Cf::empty(2);
            for i in 0..100 {
                cf.add_point(&[offset + (i % 10) as f64 * 0.1, offset + (i / 10) as f64 * 0.1]);
            }
            let mut origin = Cf::empty(2);
            for i in 0..100 {
                origin.add_point(&[(i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1]);
            }
            assert!(
                (cf.diameter() - origin.diameter()).abs() < 1e-6,
                "offset {offset}: {} vs {}",
                cf.diameter(),
                origin.diameter()
            );
            assert!((cf.radius() - origin.radius()).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "centroid of empty CF")]
    fn centroid_of_empty_panics() {
        Cf::empty(2).centroid();
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn add_dim_mismatch_panics() {
        let mut a = Cf::empty(2);
        a += &Cf::empty(3);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Cf::from_point(&[1.0, 2.0]);
        let before = a.clone();
        a += &Cf::empty(2);
        assert_eq!(a, before);
        let mut e = Cf::empty(2);
        e += &before;
        assert_eq!(e, before);
    }

    #[test]
    fn from_parts_round_trip() {
        let cf = Cf::from_parts(2, vec![2.0, 2.0], 4.0);
        assert_eq!(cf.n(), 2);
        assert_eq!(cf.centroid(), vec![1.0, 1.0]);
        // ls/ss derived views reproduce the inputs.
        assert_eq!(cf.ls(), vec![2.0, 2.0]);
        assert!((cf.ss() - 4.0).abs() < 1e-12);
        // Degenerate: n = 0 parts yield the empty CF.
        let z = Cf::from_parts(0, vec![0.0], 0.0);
        assert!(z.is_empty());
        assert_eq!(z.merged_diameter(&z), 0.0);
    }

    #[test]
    fn from_parts_clamps_cancelled_ssd_to_zero() {
        // ss slightly below n·‖mean‖² (cancellation in the unstable
        // source): the derived ssd clamps to 0 instead of going NaN.
        let cf = Cf::from_parts(2, vec![2e8], 2e16 - 1.0);
        assert_eq!(cf.ssd(), 0.0);
        assert_eq!(cf.diameter(), 0.0);
        assert!(cf.radius() >= 0.0);
    }
}
