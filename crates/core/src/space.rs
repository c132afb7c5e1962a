//! [`BubbleSpace`]: the [`OpticsSpace`] implementation over Data Bubbles
//! (Definitions 6–8), letting the unmodified OPTICS walk cluster bubbles.

use std::cell::OnceCell;
use std::num::NonZeroUsize;

use db_optics::{DistanceRows, OpticsParams, OpticsSpace, UNDEFINED};
use db_spatial::order::DistId;
use db_spatial::Neighbor;
use db_supervise::{resolve_threads, run_blocks, unsupervised, Stop, Supervisor};

use crate::bubble::{BubbleError, DataBubble};
use crate::distance::{bubble_distance, bubble_distance_from_parts};
use crate::matrix::BubbleDistanceMatrix;

/// A set of Data Bubbles viewed as an OPTICS object space.
///
/// Neighbourhood queries are exhaustive O(k): "Because of the rather
/// complex distance measure between Data Bubbles, we cannot use an index…
/// it runs in O(k·k). However, the purpose of our approach is to make k
/// very small so that this is acceptable" (paper §8). Since the walk
/// visits every bubble, the k² evaluations can equivalently be done once
/// up front: [`BubbleSpace::precompute_matrix`] builds a
/// [`BubbleDistanceMatrix`] (optionally in parallel) and every subsequent
/// neighbourhood query becomes an O(k) filter over a stored row, with no
/// distance evaluation and bit-for-bit identical results.
///
/// The OPTICS walk reads whole rows ([`OpticsSpace::distance_rows`]):
/// stored rows when the matrix is built, with every core-distance
/// computed up front from them (in parallel on the build's threads), and
/// otherwise each row evaluated into one reusable buffer, its
/// core-distance computed from it. So every bubble walk is a row walk.
///
/// Neighbourhoods come in id order on both paths (the order
/// [`OpticsSpace::neighborhood`] leaves to the space), so neither path
/// sorts. Definition 7's sub-MinPts case, the one place that needs
/// neighbours by distance, selects the closest ones instead.
#[derive(Debug, Clone)]
pub struct BubbleSpace {
    bubbles: Vec<DataBubble>,
    /// Total point count over all bubbles, cached so a MinPts above it
    /// answers Definition 7 with no neighbourhood scan.
    total_n: u64,
    matrix: Option<BubbleDistanceMatrix>,
}

impl BubbleSpace {
    /// Fallible form of [`BubbleSpace::new`] for bubble sets assembled from
    /// untrusted summaries.
    ///
    /// # Errors
    ///
    /// Returns [`BubbleError::MixedDimensions`] when bubbles disagree on
    /// dimensionality. An empty set is a valid (empty) space.
    pub fn try_new(bubbles: Vec<DataBubble>) -> Result<Self, BubbleError> {
        if let Some(first) = bubbles.first() {
            let dim = first.dim();
            if let Some(bad) = bubbles.iter().find(|b| b.dim() != dim) {
                return Err(BubbleError::MixedDimensions { expected: dim, got: bad.dim() });
            }
        }
        let total_n = bubbles.iter().map(DataBubble::n).sum();
        Ok(Self { bubbles, total_n, matrix: None })
    }

    /// Creates the space. **Validated input only** — use
    /// [`BubbleSpace::try_new`] for untrusted bubble sets.
    ///
    /// # Panics
    ///
    /// Panics if bubbles have inconsistent dimensionality.
    pub fn new(bubbles: Vec<DataBubble>) -> Self {
        match Self::try_new(bubbles) {
            Ok(s) => s,
            Err(_) => panic!("all bubbles must share one dimensionality"),
        }
    }

    /// The bubbles, in id order.
    pub fn bubbles(&self) -> &[DataBubble] {
        &self.bubbles
    }

    /// The bubble with id `i`.
    pub fn bubble(&self, i: usize) -> &DataBubble {
        &self.bubbles[i]
    }

    /// Total number of original points summarized by the space.
    pub fn total_weight(&self) -> u64 {
        self.total_n
    }

    /// Precomputes the full distance matrix with `threads` workers
    /// (`None` = available parallelism) so the walk's rows, neighbourhood
    /// and unbounded core-distance queries are served from stored rows
    /// (and the walk's core-distances computed on as many workers). Skipped (returns
    /// `false`) when the space is empty or holds more than `max_k` bubbles
    /// — the on-the-fly path stays in place with identical results.
    pub fn precompute_matrix(&mut self, threads: Option<NonZeroUsize>, max_k: usize) -> bool {
        unsupervised("matrix precompute", |sup| {
            self.precompute_matrix_supervised(threads, max_k, None, sup)
        })
    }

    /// [`BubbleSpace::precompute_matrix`] under supervision and an
    /// optional memory budget. When `max_bytes` is set and the matrix
    /// would exceed it, the build is skipped (returns `Ok(false)`, counted
    /// under `pipeline.matrix_skipped_budget`) and the on-the-fly path
    /// stays in place — a quality-preserving degradation: results are
    /// bit-identical, only the query cost changes.
    ///
    /// # Errors
    ///
    /// [`Stop`] when the build was cancelled, overran the deadline, or a
    /// row worker panicked. The space is left matrix-free in that case.
    pub fn precompute_matrix_supervised(
        &mut self,
        threads: Option<NonZeroUsize>,
        max_k: usize,
        max_bytes: Option<usize>,
        sup: &Supervisor,
    ) -> Result<bool, Stop> {
        if self.bubbles.is_empty() || self.bubbles.len() > max_k {
            return Ok(false);
        }
        if let Some(cap) = max_bytes {
            // 8 bytes per cell: one f64 distance (see
            // `BubbleDistanceMatrix::memory_bytes`).
            let projected = self.bubbles.len() * self.bubbles.len() * 8;
            if projected > cap {
                db_obs::counter!("pipeline.matrix_skipped_budget").incr();
                db_obs::log_debug!(
                    "matrix skipped: projected {projected} bytes > budget {cap} bytes \
                     (falling back to on-the-fly distances, results unchanged)"
                );
                return Ok(false);
            }
        }
        let m = BubbleDistanceMatrix::build(&self.bubbles, threads, sup)?;
        db_obs::gauge!("optics.matrix_bytes").set(m.memory_bytes() as i64);
        self.matrix = Some(m);
        Ok(true)
    }

    /// Whether neighbourhood queries are matrix-backed.
    pub fn has_matrix(&self) -> bool {
        self.matrix.is_some()
    }

    /// Fills `row[j]` with the Definition 6 distance between bubbles `i`
    /// and `j` for every `j > i` (other entries are left untouched): the
    /// row tail [`db_hierarchical::slink_from_rows`] consumes. Served from
    /// the precomputed matrix when present (no evaluation), evaluated on
    /// the fly otherwise — bit-identical either way, and always with `i`
    /// as the first operand.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the number of bubbles.
    pub(crate) fn distance_row_tail(&self, i: usize, row: &mut [f64]) {
        let row = &mut row[..self.bubbles.len()];
        match &self.matrix {
            Some(m) => m.row_tail_into(i, row),
            None => self.evaluate_row(i, i + 1, row),
        }
    }

    /// Evaluates `row[j] = bubble_distance(i, j, i == j)` for every
    /// `j >= first` (earlier entries are left untouched): the on-the-fly
    /// form of a matrix row.
    fn evaluate_row(&self, i: usize, first: usize, row: &mut [f64]) {
        // `bubble_distance(b, c, false)` with b's parts hoisted out of the
        // row: the same arithmetic in the same order, so the same bits.
        let b = &self.bubbles[i];
        let (extent_b, nn1_b) = (b.extent(), b.nndist(1));
        for (j, (slot, c)) in row.iter_mut().zip(&self.bubbles).enumerate().skip(first) {
            *slot = if j == i {
                0.0
            } else {
                let center = db_spatial::euclidean(b.rep(), c.rep());
                bubble_distance_from_parts(center, extent_b, c.extent(), nn1_b, c.nndist(1))
            };
        }
    }

    /// Definition 7 applied outside a walk: the core-distance of bubble `i`
    /// with an unbounded ε (used for the virtual reachability of
    /// sub-MinPts bubbles during expansion).
    ///
    /// It needs no neighbourhood in the common cases: a bubble holding
    /// ≥ MinPts points answers from its own `nndist`, and the cached total
    /// weight answers the `None` case. Only a sub-MinPts bubble needs its
    /// distance row — served from the precomputed matrix when present,
    /// otherwise evaluated on the fly under the
    /// `optics.unbounded_core_distance_calls` counter (its own metric:
    /// these are recovery-phase evaluations, not part of the walk's
    /// `optics.distance_calls`).
    pub fn core_distance_unbounded(&self, i: usize, min_pts: usize) -> Option<f64> {
        db_obs::counter!("optics.unbounded_core_calls").incr();
        if let Some(m) = &self.matrix {
            return self.core_distance_of(i, min_pts, || within(m.row(i), f64::INFINITY));
        }
        // Fallback: one exhaustive row evaluation, for a sub-MinPts bubble
        // only (the common cases never ask for candidates).
        let row = OnceCell::new();
        self.core_distance_of(i, min_pts, || {
            let row = row.get_or_init(|| {
                let k = self.bubbles.len();
                db_obs::counter!("optics.unbounded_core_distance_calls").add(k as u64);
                let mut row = vec![0.0; k];
                self.evaluate_row(i, 0, &mut row);
                row
            });
            within(row, f64::INFINITY)
        })
    }

    /// Definition 7, the one routine behind every core-distance of the
    /// space. `candidates` yields bubble `i`'s ε-neighbourhood as
    /// `(id, dist)` pairs in any order, `i` itself among them at distance
    /// 0; it is called only for a bubble holding fewer than MinPts points.
    ///
    /// * `nndist(MinPts, B)` when the bubble itself holds ≥ MinPts points
    ///   (the common case; the neighbourhood then covers MinPts too);
    /// * ∞ (None) when the bubbles within ε together hold < MinPts points
    ///   (answered by the cached total weight when even all bubbles do);
    /// * otherwise `dist(B, C) + nndist(k, C)` where `C` is the closest
    ///   bubble at which the cumulative point count reaches MinPts and
    ///   `k = MinPts −` (points of all bubbles strictly closer than `C`),
    ///   "closer" under the [`DistId`] order.
    fn core_distance_of<I>(
        &self,
        i: usize,
        min_pts: usize,
        candidates: impl Fn() -> I,
    ) -> Option<f64>
    where
        I: Iterator<Item = (usize, f64)>,
    {
        let min_pts = min_pts as u64;
        let b = &self.bubbles[i];
        if b.n() >= min_pts {
            return Some(b.nndist(min_pts));
        }
        if self.total_n < min_pts
            || candidates().map(|(j, _)| self.bubbles[j].n()).sum::<u64>() < min_pts
        {
            return None;
        }
        // Rare case: borrow points from the closest neighbours.
        Some(self.covering_distance(min_pts, candidates))
    }

    /// Every bubble's core-distance ([`UNDEFINED`] for none) from its
    /// stored row. Only sub-MinPts bubbles read their row, so they are the
    /// work items: up to the matrix build's worker count share them, and
    /// `sup` is consulted before each.
    fn core_distances(
        &self,
        m: &BubbleDistanceMatrix,
        params: &OpticsParams,
        sup: &Supervisor,
    ) -> Result<Vec<f64>, Stop> {
        let k = self.bubbles.len();
        let mut span = db_obs::span!("optics.core_distances");
        let parent = span.handle();
        let rare = self.bubbles.iter().filter(|b| b.n() < params.min_pts as u64).count();
        let threads = resolve_threads(NonZeroUsize::new(m.threads()), rare);
        let mut cores = vec![UNDEFINED; k];
        run_blocks(
            &mut cores,
            k.div_ceil(threads),
            threads,
            sup,
            "optics.core_worker",
            || db_obs::span_linked!("optics.core_fill", &parent),
            |first, block| {
                for (i, core) in (first..).zip(block.iter_mut()) {
                    if self.bubbles[i].n() < params.min_pts as u64 {
                        sup.check()?;
                    }
                    *core = self.core_distance_in_row(i, params, m.row(i));
                }
                Ok(())
            },
        )?;
        Ok(cores)
    }

    /// Bubble `i`'s core-distance ([`UNDEFINED`] for none) from its full
    /// id-ordered row.
    fn core_distance_in_row(&self, i: usize, params: &OpticsParams, row: &[f64]) -> f64 {
        self.core_distance_of(i, params.min_pts, || within(row, params.eps)).unwrap_or(UNDEFINED)
    }

    /// Definition 7's rare case: takes the candidate bubbles `(id, dist)`
    /// ascending by [`DistId`] until their points cover `min_pts`, and
    /// returns `dist + nndist(k, C)` for the bubble `C` that completes the
    /// count, `k` being the points still missing before it.
    ///
    /// No sort and no allocation: each pass over `candidates` selects the
    /// next [`SELECT_BATCH`] smallest above the previous pick into a stack
    /// array, so taking `m` bubbles costs `⌈m / SELECT_BATCH⌉` O(k)
    /// passes, and `m ≤ min_pts` since every bubble holds a point.
    ///
    /// # Panics
    ///
    /// Panics if the candidates hold fewer than `min_pts` points in total.
    fn covering_distance<I>(&self, min_pts: u64, candidates: impl Fn() -> I) -> f64
    where
        I: Iterator<Item = (usize, f64)>,
    {
        let mut covered = 0u64;
        let mut last: Option<DistId> = None;
        loop {
            // The up to SELECT_BATCH smallest candidates above `last`,
            // ascending.
            let mut batch = [DistId(0.0, 0); SELECT_BATCH];
            let mut len = 0;
            for c in candidates().map(|(id, d)| DistId(d, id)) {
                if last.is_some_and(|l| c <= l) || (len == SELECT_BATCH && c >= batch[len - 1]) {
                    continue;
                }
                len = len.min(SELECT_BATCH - 1);
                let at = batch[..len].partition_point(|b| *b < c);
                batch.copy_within(at..len, at + 1);
                batch[at] = c;
                len += 1;
            }
            assert!(len > 0, "the candidates hold at least min_pts points");
            for next in &batch[..len] {
                let c = &self.bubbles[next.1];
                if covered + c.n() >= min_pts {
                    return next.0 + c.nndist(min_pts - covered);
                }
                covered += c.n();
            }
            last = Some(batch[len - 1]);
        }
    }
}

/// The ε-neighbourhood of an id-ordered distance row as `(id, dist)`
/// candidates: the matrix and the on-the-fly scan's `d <= eps` filter.
fn within(row: &[f64], eps: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
    row.iter().copied().enumerate().filter(move |&(_, d)| d <= eps)
}

/// Neighbours one selection pass of [`BubbleSpace::covering_distance`]
/// takes: a bubble borrowing from up to 64 neighbours needs a single O(k)
/// pass, and the 1 KiB batch stays on the stack.
const SELECT_BATCH: usize = 64;

impl OpticsSpace for BubbleSpace {
    fn len(&self) -> usize {
        self.bubbles.len()
    }

    /// Id order on both paths: the matrix row filtered by `d <= eps`, or
    /// the same filter over an on-the-fly scan.
    fn neighborhood(&self, i: usize, eps: f64, out: &mut Vec<Neighbor>) {
        out.clear();
        if let Some(m) = &self.matrix {
            // The k distance evaluations were counted at matrix-build time.
            m.neighborhood_into(i, eps, out);
            return;
        }
        let b = &self.bubbles[i];
        for (j, c) in self.bubbles.iter().enumerate() {
            let d = bubble_distance(b, c, i == j);
            if d <= eps {
                out.push(Neighbor::new(j, d));
            }
        }
        // One bubble-distance evaluation per pair scanned (exhaustive O(k)).
        db_obs::counter!("optics.distance_calls").add(self.bubbles.len() as u64);
    }

    fn weight(&self, i: usize) -> u64 {
        self.bubbles[i].n()
    }

    /// Definition 7 for a neighbourhood in any order (see
    /// `core_distance_of`).
    fn core_distance(&self, i: usize, min_pts: usize, neighborhood: &[Neighbor]) -> Option<f64> {
        self.core_distance_of(i, min_pts, || neighborhood.iter().map(|nb| (nb.id, nb.dist)))
    }

    /// Stored rows with every core-distance computed up front when the
    /// matrix is built; otherwise rows evaluated one at a time.
    fn distance_rows(
        &self,
        params: &OpticsParams,
        sup: &Supervisor,
    ) -> Result<Option<Box<dyn DistanceRows + '_>>, Stop> {
        let rows: Box<dyn DistanceRows + '_> = match &self.matrix {
            Some(m) => Box::new(StoredRows { m, cores: self.core_distances(m, params, sup)? }),
            None => Box::new(EvaluatedRows {
                space: self,
                params: *params,
                row: vec![0.0; self.bubbles.len()],
            }),
        };
        Ok(Some(rows))
    }
}

/// Matrix rows with their core-distances, computed before the walk.
struct StoredRows<'a> {
    m: &'a BubbleDistanceMatrix,
    cores: Vec<f64>,
}

impl DistanceRows for StoredRows<'_> {
    fn row(&mut self, i: usize) -> (f64, &[f64]) {
        (self.cores[i], self.m.row(i))
    }
}

/// Rows evaluated on the fly into one reusable buffer, each row's
/// core-distance computed from it.
struct EvaluatedRows<'a> {
    space: &'a BubbleSpace,
    params: OpticsParams,
    row: Vec<f64>,
}

impl DistanceRows for EvaluatedRows<'_> {
    fn row(&mut self, i: usize) -> (f64, &[f64]) {
        self.space.evaluate_row(i, 0, &mut self.row);
        // One bubble-distance evaluation per pair (exhaustive O(k)).
        db_obs::counter!("optics.distance_calls").add(self.row.len() as u64);
        (self.space.core_distance_in_row(i, &self.params, &self.row), &self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn singleton(x: f64) -> DataBubble {
        DataBubble::new(vec![x, 0.0], 1, 0.0)
    }

    fn space_three_groups() -> BubbleSpace {
        BubbleSpace::new(vec![
            DataBubble::new(vec![0.0, 0.0], 100, 1.0),
            DataBubble::new(vec![5.0, 0.0], 50, 1.0),
            DataBubble::new(vec![100.0, 0.0], 80, 2.0),
        ])
    }

    #[test]
    fn neighborhood_is_id_ordered_and_includes_self() {
        let s = space_three_groups();
        let mut out = Vec::new();
        s.neighborhood(1, 10.0, &mut out);
        // Self and bubble 0, in id order; bubble 2 is too far.
        assert_eq!(out.iter().map(|nb| nb.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(out[1].dist, 0.0);
        assert_eq!(out[0].dist, bubble_distance(s.bubble(1), s.bubble(0), false));
    }

    #[test]
    fn weights_are_bubble_counts() {
        let s = space_three_groups();
        assert_eq!(s.weight(0), 100);
        assert_eq!(s.weight(2), 80);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn core_distance_common_case_is_nndist() {
        let s = space_three_groups();
        let mut nb = Vec::new();
        s.neighborhood(0, 10.0, &mut nb);
        // Bubble 0 holds 100 >= MinPts=10 points.
        let core = s.core_distance(0, 10, &nb).unwrap();
        assert!((core - s.bubble(0).nndist(10)).abs() < 1e-12);
    }

    #[test]
    fn core_distance_undefined_when_sparse() {
        // Three singleton bubbles far apart; eps small -> only self in the
        // neighbourhood -> 1 point < MinPts=2.
        let s = BubbleSpace::new(vec![singleton(0.0), singleton(50.0), singleton(100.0)]);
        let mut nb = Vec::new();
        s.neighborhood(0, 1.0, &mut nb);
        assert_eq!(nb.len(), 1);
        assert!(s.core_distance(0, 2, &nb).is_none());
    }

    #[test]
    fn core_distance_rare_case_accumulates_neighbours() {
        // Bubble 0 is a singleton; MinPts=5 must borrow 4 points from the
        // closest bubble holding >= 4.
        let b0 = singleton(0.0);
        let b1 = DataBubble::new(vec![10.0, 0.0], 100, 2.0);
        let s = BubbleSpace::new(vec![b0, b1.clone()]);
        let mut nb = Vec::new();
        s.neighborhood(0, 100.0, &mut nb);
        let core = s.core_distance(0, 5, &nb).unwrap();
        let d01 = bubble_distance(s.bubble(0), &b1, false);
        assert!((core - (d01 + b1.nndist(4))).abs() < 1e-12);
    }

    #[test]
    fn core_distance_rare_case_multiple_hops() {
        // Singletons at 0, 1, 2, 3 and MinPts=3: the third-closest bubble
        // (distance 2) supplies the last point, k = 1, nndist(1)=0.
        let s =
            BubbleSpace::new(vec![singleton(0.0), singleton(1.0), singleton(2.0), singleton(3.0)]);
        let mut nb = Vec::new();
        s.neighborhood(0, 100.0, &mut nb);
        let core = s.core_distance(0, 3, &nb).unwrap();
        assert!((core - 2.0).abs() < 1e-12, "core {core}");
    }

    #[test]
    fn core_distance_unbounded_matches_manual() {
        let s = space_three_groups();
        let mut nb = Vec::new();
        s.neighborhood(2, f64::INFINITY, &mut nb);
        assert_eq!(s.core_distance_unbounded(2, 10), s.core_distance(2, 10, &nb));
    }

    #[test]
    fn optics_over_bubbles_groups_nearby_bubbles() {
        use db_optics::{optics, OpticsParams};
        // Two groups of bubbles: around x=0 and x=100.
        let s = BubbleSpace::new(vec![
            DataBubble::new(vec![0.0, 0.0], 40, 1.0),
            DataBubble::new(vec![2.0, 0.0], 40, 1.0),
            DataBubble::new(vec![4.0, 0.0], 40, 1.0),
            DataBubble::new(vec![100.0, 0.0], 40, 1.0),
            DataBubble::new(vec![102.0, 0.0], 40, 1.0),
        ]);
        let o = optics(&s, &OpticsParams { eps: f64::INFINITY, min_pts: 20 });
        assert_eq!(o.len(), 5);
        // Walk order keeps each group contiguous.
        let walk: Vec<usize> = o.entries.iter().map(|e| e.id).collect();
        let group: Vec<bool> = walk.iter().map(|&id| id < 3).collect();
        assert!(group.windows(2).filter(|w| w[0] != w[1]).count() <= 1);
        // There is one big reachability jump (between the groups).
        let jumps =
            o.entries.iter().filter(|e| e.has_reachability() && e.reachability > 50.0).count();
        assert_eq!(jumps, 1);
        // Weights carried through.
        assert_eq!(o.total_weight(), 200);
    }

    #[test]
    #[should_panic(expected = "share one dimensionality")]
    fn mixed_dims_panic() {
        BubbleSpace::new(vec![
            DataBubble::new(vec![0.0], 1, 0.0),
            DataBubble::new(vec![0.0, 0.0], 1, 0.0),
        ]);
    }

    #[test]
    fn empty_space_is_fine() {
        let s = BubbleSpace::new(vec![]);
        assert!(s.is_empty());
    }

    #[test]
    fn matrix_backed_neighborhood_is_bit_identical() {
        let mut with = space_three_groups();
        let without = space_three_groups();
        assert!(with.precompute_matrix(None, usize::MAX));
        assert!(with.has_matrix() && !without.has_matrix());
        for i in 0..3 {
            for eps in [0.0, 6.0, 99.0, f64::INFINITY] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                with.neighborhood(i, eps, &mut a);
                without.neighborhood(i, eps, &mut b);
                assert_eq!(a, b, "i = {i}, eps = {eps}");
            }
        }
    }

    #[test]
    fn distance_row_tail_is_bit_identical_with_and_without_matrix() {
        let mut with = space_three_groups();
        let without = space_three_groups();
        assert!(with.precompute_matrix(None, usize::MAX));
        for i in 0..3 {
            let (mut a, mut b) = (vec![f64::NAN; 3], vec![f64::NAN; 3]);
            with.distance_row_tail(i, &mut a);
            without.distance_row_tail(i, &mut b);
            for j in 0..3 {
                if j <= i {
                    assert!(a[j].is_nan() && b[j].is_nan(), "({i}, {j}) must stay untouched");
                } else {
                    assert_eq!(a[j].to_bits(), b[j].to_bits(), "({i}, {j})");
                    let want = bubble_distance(with.bubble(i), with.bubble(j), false);
                    assert_eq!(a[j].to_bits(), want.to_bits(), "({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn matrix_cap_falls_back_to_on_the_fly() {
        let mut s = space_three_groups();
        assert!(!s.precompute_matrix(None, 2), "3 bubbles > cap 2");
        assert!(!s.has_matrix());
        let mut empty = BubbleSpace::new(vec![]);
        assert!(!empty.precompute_matrix(None, usize::MAX));
    }

    #[test]
    fn unbounded_core_distance_agrees_with_and_without_matrix() {
        // Mix of sub-MinPts and large bubbles to hit the accumulation path.
        let make = || {
            BubbleSpace::new(vec![
                singleton(0.0),
                DataBubble::new(vec![3.0, 0.0], 2, 0.4),
                DataBubble::new(vec![8.0, 0.0], 30, 1.5),
                singleton(9.0),
            ])
        };
        let plain = make();
        let mut cached = make();
        assert!(cached.precompute_matrix(None, usize::MAX));
        for i in 0..4 {
            for min_pts in [1usize, 2, 5, 20, 100] {
                let a = plain.core_distance_unbounded(i, min_pts);
                let b = cached.core_distance_unbounded(i, min_pts);
                assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "i = {i}, mp = {min_pts}");
            }
        }
        // And both agree with Definition 7 computed via the full
        // neighbourhood (the pre-optimization formulation).
        let mut nb = Vec::new();
        for i in 0..4 {
            for min_pts in [1usize, 2, 5, 20] {
                plain.neighborhood(i, f64::INFINITY, &mut nb);
                assert_eq!(
                    plain.core_distance_unbounded(i, min_pts),
                    plain.core_distance(i, min_pts, &nb),
                    "i = {i}, mp = {min_pts}"
                );
            }
        }
    }

    #[test]
    fn unbounded_core_needs_no_scan_for_large_bubbles() {
        let s = space_three_groups();
        assert_eq!(s.total_weight(), 230);
        // Sub-MinPts totals answer None without touching distances.
        assert!(s.core_distance_unbounded(0, 1000).is_none());
        // A bubble holding >= MinPts answers from its own nndist.
        assert_eq!(s.core_distance_unbounded(0, 10), Some(s.bubble(0).nndist(10)));
    }

    #[test]
    fn try_new_reports_mixed_dimensions() {
        let err = BubbleSpace::try_new(vec![
            DataBubble::new(vec![0.0], 1, 0.0),
            DataBubble::new(vec![0.0, 0.0], 1, 0.0),
        ])
        .unwrap_err();
        assert_eq!(err, BubbleError::MixedDimensions { expected: 1, got: 2 });
        assert!(BubbleSpace::try_new(vec![]).is_ok());
    }
}
