//! A cell table: exact 1-NN queries against a fixed set of 2-d points
//! from a precomputed candidate list per grid cell.
//!
//! A uniform grid covers the points' bounding box, padded by one cell on
//! each side, with about `CELLS_PER_POINT` cells per point. Each cell
//! holds every point that can be the `(d², id)` nearest of some query in
//! that cell, ids ascending, coordinates contiguous. A query finds its
//! cell with two multiplies and two floors and takes a first minimum over
//! the cell's list ([`kernels::nearest_row`]). Queries outside the grid,
//! and cells without a list, go to a [`KdTree`] over the same points; the
//! build uses that tree too.
//!
//! # Exactness
//!
//! Let `q` lie in cell `C` and let `r*` be its nearest point. For every
//! point `s`, `d(q, r*) ≤ d(q, s) ≤ maxdist(s, C)`, and
//! `d(q, r*) ≥ mindist(r*, C)`. So the list
//! `{r : mindist²(r, C) ≤ U(C)}` with `U(C) = min_s maxdist²(s, C)`
//! holds `r*` and every point tied with it. Two margins make this hold
//! for the computed numbers, not just the real ones:
//!
//! * each cell is inflated by `INFLATE` of a side before `mindist` and
//!   `maxdist` are taken, so a query that rounding in the floor places
//!   in a neighbouring cell is still inside the inflated one;
//! * the threshold is `U(C) · (1 + SLACK)` with `SLACK` far above the
//!   few-ulp relative error of the computed squared distances.
//!
//! All cell geometry is computed relative to the grid origin, where its
//! rounding error is relative to the grid's extent, not to the
//! coordinates' magnitude. [`CellTable::build`] refuses point sets whose
//! squared distances could overflow or lose precision to underflow. With
//! ids ascending in every list, a strict-`<` first minimum is exactly
//! the `DistId` order of the other indexes.

use crate::dataset::Dataset;
use crate::index::kdtree::KdTree;
use crate::index::{Neighbor, NnTally, SpatialIndex};
use crate::kernels;
use crate::metric::{Euclidean, Metric};

/// Grid cells per point. Measured with 1M DS1 queries against k = 500,
/// 1000 and 4000 random DS1 points: 2, 4 and 8 cells per point gave
/// 24 / 32 / 45, 17 / 21 / 27 and 11 / 14 / 16 list evaluations per
/// query. Going from 4 to 8 took about 10% off the query time but
/// 25–70% more build time and twice the memory; below 4 the lists grow
/// fast.
const CELLS_PER_POINT: usize = 4;

/// Longest expected scan a table may have, in distance evaluations:
/// Σ over cells of (points in the cell × list length) / points, the
/// points standing in for the queries. A kd-tree 1-NN query (about 25
/// gathered evaluations plus unpredictable branches) took as long as
/// about 80 list evaluations (1M DS1 queries at k = 1000 on one thread:
/// 0.37 s on the tree, 0.09 s on the table's 21 a query), so 64 keeps a
/// table faster than the tree. The mean list length over all cells has
/// the same bound, which caps the table's memory at 64 candidates a
/// cell.
const MAX_SCAN: usize = 64;

/// Cells per side of one build block: the cells of a block share one
/// nearest-point query and one tree traversal.
const BLOCK: usize = 4;

/// A block whose centre is farther than this many cell sides from every
/// point gets no lists: it holds no point (a block's half-diagonal is
/// under 3 sides), so few queries land there, and its cells, whose lists
/// would be long, fall back to the tree. This keeps empty regions cheap
/// to build.
const FAR_SIDES: f64 = 8.0;

/// Relative slack of a cell's list threshold, far above the rounding
/// error of a few ulps in the computed squared distances.
const SLACK: f64 = 1e-9;

/// Inflation of every cell, in cell sides, before its lists are taken:
/// rounding in the floor at a cell edge cannot move a query farther than
/// this from the cell it is mapped to.
const INFLATE: f64 = 1e-6;

/// Smallest squared cell side a table accepts (2⁻⁹⁶⁰): `SLACK` times it
/// stays far above the absolute error of a subnormal squared distance.
const MIN_SIDE_SQ: f64 = f64::MIN_POSITIVE * (1u64 << 62) as f64;

/// Exact 1-NN over fixed 2-d points: a uniform grid of per-cell candidate
/// lists in front of a kd-tree. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct CellTable {
    tree: KdTree,
    origin: [f64; 2],
    side: f64,
    inv_side: f64,
    /// Cells along x and y, and the same as `f64` for the range test.
    shape: [usize; 2],
    extent: [f64; 2],
    /// `[start, end)` of each cell's list, row-major (`iy · nx + ix`);
    /// an empty list sends the query to the tree.
    cells: Vec<[u32; 2]>,
    /// Candidate ids, ascending within each list.
    ids: Vec<u32>,
    /// Candidate coordinates, two per id, in list order.
    xy: Vec<f64>,
}

/// The points of one build block that can be on its cells' lists, with
/// scratch for the per-cell selection; reused from block to block.
#[derive(Default)]
struct Near {
    /// Point ids, ascending.
    ids: Vec<u32>,
    /// Their coordinates relative to the grid origin.
    local: Vec<[f64; 2]>,
    /// Rows of the current cell's list.
    picked: Vec<usize>,
}

/// The squared distance from `p` to the box `[lo, hi]`, all relative to
/// the grid origin. Monotone in every argument, so a box inside another
/// never reports a larger distance; the kd-tree's box traversal prunes
/// with the same expressions.
#[inline]
pub(crate) fn box_gap2(p: [f64; 2], lo: [f64; 2], hi: [f64; 2]) -> f64 {
    let gx = (lo[0] - p[0]).max(p[0] - hi[0]).max(0.0);
    let gy = (lo[1] - p[1]).max(p[1] - hi[1]).max(0.0);
    gx * gx + gy * gy
}

/// The squared distance from `p` to the farthest corner of `[lo, hi]`.
#[inline]
fn box_reach2(p: [f64; 2], lo: [f64; 2], hi: [f64; 2]) -> f64 {
    let ax = (p[0] - lo[0]).max(hi[0] - p[0]);
    let ay = (p[1] - lo[1]).max(hi[1] - p[1]);
    ax * ax + ay * ay
}

/// The least [`box_reach2`] over `pts`, in four independent lanes (a
/// minimum does not depend on the order it is taken in).
fn min_reach2(pts: &[[f64; 2]], lo: [f64; 2], hi: [f64; 2]) -> f64 {
    let mut lanes = [f64::INFINITY; 4];
    let mut quads = pts.chunks_exact(4);
    for quad in quads.by_ref() {
        for (lane, &p) in lanes.iter_mut().zip(quad) {
            *lane = lane.min(box_reach2(p, lo, hi));
        }
    }
    for (lane, &p) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = lane.min(box_reach2(p, lo, hi));
    }
    lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]))
}

/// Cells along the longer and the shorter side of a `long × short` box
/// (`long ≥ short > 0`) for about `target` square cells: the fewest
/// cells along the long side whose grid reaches `target`. An integer
/// search, so the shape needs no square root.
fn grid_shape(long: f64, short: f64, target: usize) -> (usize, usize) {
    let across = |m: usize| ((short * m as f64 / long).ceil() as usize).max(1);
    let (mut lo, mut hi) = (1, target.max(1));
    while lo < hi {
        let m = lo + (hi - lo) / 2;
        if m.saturating_mul(across(m)) >= target {
            hi = m;
        } else {
            lo = m + 1;
        }
    }
    (lo, across(lo))
}

impl CellTable {
    /// Builds the table over `points`, or `None` when a table would not
    /// pay or could not be exact: a dimensionality other than 2, no
    /// points, a non-finite coordinate, a zero extent along an axis,
    /// squared distances that could overflow or underflow, or an expected
    /// scan or mean list length above 64 evaluations (see `MAX_SCAN`).
    ///
    /// Cost O(cells · (log k + list length)): each block of cells makes
    /// one nearest-point query and one box traversal of the kd-tree, and
    /// blocks far from every point make only the query.
    pub fn build(points: &Dataset) -> Option<Self> {
        let k = points.len();
        if points.dim() != 2 || k == 0 || points.as_flat().iter().any(|x| !x.is_finite()) {
            return None;
        }
        let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
        for p in points.iter() {
            for a in 0..2 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
        }
        let size = [hi[0] - lo[0], hi[1] - lo[1]];
        if !(size[0] > 0.0 && size[1] > 0.0 && size[0].is_finite() && size[1].is_finite()) {
            return None;
        }
        let long = usize::from(size[1] > size[0]);
        let (along, across) = grid_shape(size[long], size[1 - long], CELLS_PER_POINT * k);
        let side = size[long] / along as f64;
        let mut shape = [0; 2];
        shape[long] = along + 2;
        shape[1 - long] = across + 2;
        let n_cells = shape[0].checked_mul(shape[1])?;
        // Every squared distance between points of the padded grid stays
        // finite with room to spare, and none is too small for `SLACK`.
        let span2 = (shape[0] as f64 * side).powi(2) + (shape[1] as f64 * side).powi(2);
        if !(side * side >= MIN_SIDE_SQ && span2 < f64::MAX / 4.0) {
            return None;
        }
        let origin = [lo[0] - side, lo[1] - side];
        let extent = [shape[0] as f64, shape[1] as f64];
        let mut table = Self {
            tree: KdTree::build(points),
            origin,
            side,
            inv_side: 1.0 / side,
            shape,
            extent,
            cells: vec![[0; 2]; n_cells],
            ids: Vec::new(),
            xy: Vec::new(),
        };
        table.fill(points)?;
        Some(table)
    }

    /// The cell `q` falls in, or `None` outside the grid (NaN included).
    #[inline]
    fn cell_of(&self, q: &[f64]) -> Option<usize> {
        let tx = (q[0] - self.origin[0]) * self.inv_side;
        let ty = (q[1] - self.origin[1]) * self.inv_side;
        if tx >= 0.0 && ty >= 0.0 && tx < self.extent[0] && ty < self.extent[1] {
            // Truncation is the floor of a non-negative value.
            Some(ty as usize * self.shape[0] + tx as usize)
        } else {
            None
        }
    }

    /// The inflated span `[first, first + n)` of cells along one axis,
    /// relative to the origin. One formula for cells and blocks, so a
    /// block's span contains each of its cells' spans as computed.
    #[inline]
    fn span(&self, first: usize, n: usize) -> (f64, f64) {
        let pad = INFLATE * self.side;
        (first as f64 * self.side - pad, (first + n) as f64 * self.side + pad)
    }

    /// Computes every cell's list, block by block; `None` when the table
    /// exceeds [`MAX_SCAN`].
    fn fill(&mut self, points: &Dataset) -> Option<()> {
        let [nx, ny] = self.shape;
        let mut per_cell = vec![0usize; self.cells.len()];
        for p in points.iter() {
            per_cell[self.cell_of(p)?] += 1;
        }
        let max_scan = MAX_SCAN.saturating_mul(points.len());
        let max_candidates = MAX_SCAN.saturating_mul(self.cells.len());
        let local: Vec<[f64; 2]> =
            points.iter().map(|p| [p[0] - self.origin[0], p[1] - self.origin[1]]).collect();
        let mut near = Near::default();
        let mut scan = 0usize;
        for by in (0..ny).step_by(BLOCK) {
            for bx in (0..nx).step_by(BLOCK) {
                let (bw, bh) = (BLOCK.min(nx - bx), BLOCK.min(ny - by));
                if !self.gather(points, &local, [bx, by], [bw, bh], &mut near)? {
                    continue;
                }
                for iy in by..by + bh {
                    for ix in bx..bx + bw {
                        let cell = iy * nx + ix;
                        let start = self.ids.len();
                        self.push_list(points, &mut near, [ix, iy]);
                        let len = self.ids.len() - start;
                        scan = scan.saturating_add(per_cell[cell].saturating_mul(len));
                        if scan > max_scan || self.ids.len() > max_candidates {
                            return None;
                        }
                        self.cells[cell] =
                            [u32::try_from(start).ok()?, u32::try_from(self.ids.len()).ok()?];
                    }
                }
            }
        }
        Some(())
    }

    /// Collects into `near`, ids ascending, every point that can be on a
    /// list of the block of `size` cells at `first`: the block's threshold
    /// bounds each of its cells' thresholds. `Some(false)` for a block
    /// farther than [`FAR_SIDES`] from every point.
    fn gather(
        &self,
        points: &Dataset,
        local: &[[f64; 2]],
        first: [usize; 2],
        size: [usize; 2],
        near: &mut Near,
    ) -> Option<bool> {
        let centre =
            [0, 1].map(|a| self.origin[a] + (first[a] as f64 + size[a] as f64 / 2.0) * self.side);
        let s0 = self.tree.nearest_tallied(points, &centre, &mut NnTally::default())?;
        if s0.dist > FAR_SIDES * self.side {
            return Some(false);
        }
        let ((x0, x1), (y0, y1)) = (self.span(first[0], size[0]), self.span(first[1], size[1]));
        let (lo, hi) = ([x0, y0], [x1, y1]);
        let reach = box_reach2(local[s0.id], lo, hi) * (1.0 + SLACK);
        near.ids.clear();
        self.tree.near_box(points, self.origin, lo, hi, reach, &mut near.ids);
        near.ids.sort_unstable();
        near.local.clear();
        near.local.extend(near.ids.iter().map(|&r| local[r as usize]));
        near.picked.resize(near.ids.len(), 0);
        Some(true)
    }

    /// Appends the list of cell `at` from its block's `near` points: those
    /// whose gap to the cell is within `(1 + SLACK)` of the least reach.
    fn push_list(&mut self, points: &Dataset, near: &mut Near, at: [usize; 2]) {
        let ((x0, x1), (y0, y1)) = (self.span(at[0], 1), self.span(at[1], 1));
        let (lo, hi) = ([x0, y0], [x1, y1]);
        let limit = min_reach2(&near.local, lo, hi) * (1.0 + SLACK);
        // Branch-free compaction of the rows within the limit.
        let mut m = 0;
        for (j, &p) in near.local.iter().enumerate() {
            near.picked[m] = j;
            m += usize::from(box_gap2(p, lo, hi) <= limit);
        }
        for &j in &near.picked[..m] {
            let id = near.ids[j];
            self.ids.push(id);
            self.xy.extend_from_slice(points.point(id as usize));
        }
    }

    /// The grid's lower-left corner: cell `(ix, iy)` spans
    /// `origin + [ix, iy] · side` to `origin + [ix + 1, iy + 1] · side`.
    pub fn origin(&self) -> [f64; 2] {
        self.origin
    }

    /// The side of a grid cell.
    pub fn side(&self) -> f64 {
        self.side
    }
}

impl SpatialIndex for CellTable {
    fn len(&self) -> usize {
        self.tree.len()
    }

    fn range(&self, ds: &Dataset, q: &[f64], eps: f64, out: &mut Vec<Neighbor>) {
        self.tree.range(ds, q, eps, out);
    }

    fn knn(&self, ds: &Dataset, q: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        self.tree.knn(ds, q, k, out);
    }

    fn nearest_tallied(&self, ds: &Dataset, q: &[f64], tally: &mut NnTally) -> Option<Neighbor> {
        assert_eq!(ds.len(), self.tree.len(), "index/dataset mismatch");
        assert_eq!(q.len(), 2, "query dimensionality mismatch");
        if let Some(cell) = self.cell_of(q) {
            let [start, end] = self.cells[cell];
            let (start, end) = (start as usize, end as usize);
            let (at, d2) = kernels::nearest_row(q, &self.xy[2 * start..2 * end], 2);
            // An empty list reports ∞: the cell falls back to the tree.
            if d2.is_finite() {
                tally.queries += 1;
                tally.dist_evals += (end - start) as u64;
                tally.sqrt_evals += 1;
                let id = self.ids[start + at] as usize;
                return Some(Neighbor::new(id, Euclidean.surrogate_to_dist(d2)));
            }
        }
        self.tree.nearest_tallied(ds, q, tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_points(n: usize, seed: u64) -> Dataset {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ds = Dataset::new(2).unwrap();
        for _ in 0..n {
            // Clustered: a quarter of the points in a small dense square.
            let (scale, at) = if next() < 0.25 { (5.0, 40.0) } else { (100.0, 0.0) };
            ds.push(&[at + scale * next(), at + scale * next()]).unwrap();
        }
        ds
    }

    /// Every list is exactly its specification, taken by brute force over
    /// all points: the points whose gap to the cell, inflated by 1e-6 of a
    /// side, is within a factor 1 + 1e-9 of the least reach to it, ids
    /// ascending, coordinates alongside. Only cells without a point may
    /// lack a list (far blocks).
    #[test]
    fn lists_are_their_brute_force_specification() {
        for (seed, k) in [(1u64, 1500usize), (2, 1500), (3, 1500)] {
            let points = random_points(k, seed);
            let table = CellTable::build(&points).expect("a table");
            let (side, [nx, ny]) = (table.side, table.shape);
            let pad = 1e-6 * side;
            let local: Vec<[f64; 2]> =
                points.iter().map(|p| [p[0] - table.origin[0], p[1] - table.origin[1]]).collect();
            let occupied: Vec<usize> = points.iter().map(|p| table.cell_of(p).unwrap()).collect();
            let mut listed = 0;
            for iy in 0..ny {
                for ix in 0..nx {
                    let [start, end] = table.cells[iy * nx + ix].map(|i| i as usize);
                    let lo = [ix as f64 * side - pad, iy as f64 * side - pad];
                    let hi = [(ix + 1) as f64 * side + pad, (iy + 1) as f64 * side + pad];
                    let u =
                        local.iter().map(|&p| box_reach2(p, lo, hi)).fold(f64::INFINITY, f64::min);
                    let want: Vec<u32> = (0..k as u32)
                        .filter(|&r| box_gap2(local[r as usize], lo, hi) <= u * (1.0 + 1e-9))
                        .collect();
                    if start == end {
                        let cell = iy * nx + ix;
                        assert!(
                            !occupied.contains(&cell),
                            "seed {seed}: cell ({ix}, {iy}) has no list"
                        );
                        continue;
                    }
                    listed += 1;
                    assert_eq!(&table.ids[start..end], &want[..], "seed {seed}: cell ({ix}, {iy})");
                    for (j, &r) in want.iter().enumerate() {
                        assert_eq!(
                            &table.xy[2 * (start + j)..2 * (start + j) + 2],
                            points.point(r as usize)
                        );
                    }
                }
            }
            assert!(listed * 4 > nx * ny * 3, "seed {seed}: {listed} of {} cells listed", nx * ny);
        }
    }

    #[test]
    fn a_list_covers_its_inflated_cell() {
        // A point `s` at the centre of cell C sets C's threshold to
        // side²/2; a point `r` right of C, past the edge by side/√2 and a
        // relative 1e-8, is beyond that threshold (and its slack) for C
        // itself, but within it for C inflated by `INFLATE`: it can be the
        // nearest of a query the floor maps into C from just outside.
        let mut points = random_points(500, 9);
        let table = CellTable::build(&points).unwrap();
        let (origin, side) = (table.origin, table.side);
        let [ix, iy] = table.shape.map(|n| n / 2);
        let at = |x: f64, y: f64| [origin[0] + x * side, origin[1] + y * side];
        let (cx, cy) = (ix as f64 + 0.5, iy as f64 + 0.5);
        let mut flat = points.as_flat().to_vec();
        // Ids 0 and 1 become s and r; both stay inside the bounding box.
        flat[..2].copy_from_slice(&at(cx, cy));
        flat[2..4].copy_from_slice(&at(ix as f64 + 1.0 + 0.707_106_788, cy));
        points = Dataset::from_flat_unchecked(2, flat);
        let rebuilt = CellTable::build(&points).unwrap();
        assert_eq!((rebuilt.origin, rebuilt.side), (origin, side), "same grid");
        let [start, end] = rebuilt.cells[iy * rebuilt.shape[0] + ix].map(|i| i as usize);
        assert!(rebuilt.ids[start..end].contains(&1), "list {:?}", &rebuilt.ids[start..end]);
    }

    #[test]
    fn grid_shape_reaches_the_target_with_the_fewest_long_cells() {
        assert_eq!(grid_shape(1.0, 1.0, 16), (4, 4));
        assert_eq!(grid_shape(2.0, 1.0, 32), (8, 4));
        assert_eq!(grid_shape(10.0, 1e-9, 40), (40, 1));
        let (a, b) = grid_shape(3.0, 1.0, 4000);
        assert!((4000..4200).contains(&(a * b)), "{a} × {b}");
    }
}
