//! A uniform grid (cell) index.
//!
//! For density-based algorithms the dominant query is an ε-range query with
//! a *fixed* ε, so a grid with cell width ε answers it by inspecting the
//! 3^d surrounding cells. Cells are kept in a hash map keyed by integer
//! cell coordinates, so the grid adapts to any data extent without
//! allocating empty cells.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::dataset::Dataset;
use crate::index::{sort_neighbors, Neighbor, NnTally, SpatialIndex};
use crate::kernels;
use crate::metric::{Euclidean, Metric};
use crate::order::DistId;

/// Maximum dimensionality for which a grid is built; beyond this the 3^d
/// neighbourhood enumeration dominates and a KD-tree should be used.
pub const MAX_GRID_DIM: usize = 6;

/// Candidate ids gathered from cell enumeration before each kernel flush.
/// Stack-resident so the query loops stay allocation-free.
const GATHER_ROWS: usize = 256;

/// A uniform grid index with a fixed cell width.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    dim: usize,
    n: usize,
    origin: Vec<f64>,
    cells: HashMap<Vec<i32>, Vec<u32>>,
    /// Per-dimension min/max occupied cell coordinate, used to clamp query
    /// boxes so far-away queries do not enumerate oceans of empty cells.
    cell_lo: Vec<i32>,
    cell_hi: Vec<i32>,
}

impl GridIndex {
    /// Builds a grid with the given cell width (usually the ε of subsequent
    /// range queries).
    ///
    /// Returns `None` when the grid is not applicable: zero/NaN/infinite
    /// cell width, dimensionality above [`MAX_GRID_DIM`], or data whose
    /// extent would overflow the 32-bit cell coordinates.
    pub fn build(ds: &Dataset, cell_width: f64) -> Option<Self> {
        if cell_width.is_nan()
            || cell_width <= 0.0
            || !cell_width.is_finite()
            || ds.dim() > MAX_GRID_DIM
        {
            return None;
        }
        let origin = match ds.bounding_box() {
            Some((lo, hi)) => {
                // Reject extents that would overflow cell coordinates.
                for (l, h) in lo.iter().zip(&hi) {
                    if (h - l) / cell_width > i32::MAX as f64 / 4.0 {
                        return None;
                    }
                }
                lo
            }
            None => vec![0.0; ds.dim()],
        };
        let mut cells: HashMap<Vec<i32>, Vec<u32>> = HashMap::new();
        let mut key = vec![0i32; ds.dim()];
        let mut cell_lo = vec![i32::MAX; ds.dim()];
        let mut cell_hi = vec![i32::MIN; ds.dim()];
        for (id, p) in ds.iter().enumerate() {
            Self::cell_key(&origin, cell_width, p, &mut key);
            for ((l, h), &k) in cell_lo.iter_mut().zip(cell_hi.iter_mut()).zip(&key) {
                if k < *l {
                    *l = k;
                }
                if k > *h {
                    *h = k;
                }
            }
            // Lossless: `Dataset` caps its length at `Dataset::MAX_POINTS`
            // (u32 ids), enforced at the ingest boundary.
            match cells.entry(key.clone()) {
                Entry::Occupied(mut e) => e.get_mut().push(id as u32),
                Entry::Vacant(e) => {
                    e.insert(vec![id as u32]);
                }
            }
        }
        Some(Self { cell: cell_width, dim: ds.dim(), n: ds.len(), origin, cells, cell_lo, cell_hi })
    }

    /// Cell width the grid was built with.
    pub fn cell_width(&self) -> f64 {
        self.cell
    }

    /// Number of non-empty cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    fn cell_key(origin: &[f64], cell: f64, p: &[f64], key: &mut [i32]) {
        for ((k, &x), &o) in key.iter_mut().zip(p).zip(origin) {
            *k = ((x - o) / cell).floor() as i32;
        }
    }

    /// Visits all points in cells intersecting the axis-aligned box of
    /// half-width `radius` around `q`. Allocates nothing: the cell
    /// coordinates live in fixed arrays of [`MAX_GRID_DIM`] entries.
    fn visit_box(&self, q: &[f64], radius: f64, mut f: impl FnMut(u32)) {
        let mut lo = [0i32; MAX_GRID_DIM];
        let mut hi = [0i32; MAX_GRID_DIM];
        for j in 0..self.dim {
            lo[j] = (((q[j] - radius - self.origin[j]) / self.cell).floor() as i32)
                .max(self.cell_lo[j]);
            hi[j] = (((q[j] + radius - self.origin[j]) / self.cell).floor() as i32)
                .min(self.cell_hi[j]);
            if lo[j] > hi[j] {
                return; // query box misses every occupied cell
            }
        }
        let (lo, hi) = (&lo[..self.dim], &hi[..self.dim]);
        // A radius much larger than the cell width makes the box bigger
        // than the cell table itself (ε → ∞ degenerates to the full
        // occupied bounding box — (extent/cell)^d cells, almost all
        // empty on sparse data). Enumerating occupied cells and testing
        // box membership visits the same points at O(occupied) cost; the
        // caller sorts results, so the hash-map order does not leak.
        let volume = lo
            .iter()
            .zip(hi)
            .try_fold(1u64, |v, (&l, &h)| v.checked_mul((h as i64 - l as i64 + 1) as u64));
        match volume {
            Some(v) if v as usize <= self.cells.len() => {}
            _ => {
                for (key, ids) in &self.cells {
                    if key.iter().zip(lo.iter().zip(hi)).all(|(&k, (&l, &h))| l <= k && k <= h) {
                        for &id in ids {
                            f(id);
                        }
                    }
                }
                return;
            }
        }
        // Odometer enumeration of the integer box [lo, hi].
        let mut cur = [0i32; MAX_GRID_DIM];
        let cur = &mut cur[..self.dim];
        cur.copy_from_slice(lo);
        loop {
            if let Some(ids) = self.cells.get(&*cur) {
                for &id in ids {
                    f(id);
                }
            }
            // Increment odometer.
            let mut j = 0;
            loop {
                if j == self.dim {
                    return;
                }
                cur[j] += 1;
                if cur[j] <= hi[j] {
                    break;
                }
                cur[j] = lo[j];
                j += 1;
            }
        }
    }

    /// Calls `f(id, d²)` for every point in cells intersecting the box of
    /// half-width `radius` around `q`, and returns how many there were.
    /// Candidates are batched in a stack buffer and flushed through the
    /// gathered kernel, so each costs one gather and one squared distance.
    fn scan_box(&self, flat: &[f64], q: &[f64], radius: f64, mut f: impl FnMut(u32, f64)) -> u64 {
        let mut ids = [0u32; GATHER_ROWS];
        let mut d2s = [0.0f64; GATHER_ROWS];
        let mut pending = 0usize;
        let mut seen = 0u64;
        let mut flush = |ids: &[u32], d2s: &mut [f64]| {
            kernels::dists_to_indexed(q, flat, self.dim, ids, d2s);
            for (&id, &d2) in ids.iter().zip(d2s.iter()) {
                f(id, d2);
            }
            seen += ids.len() as u64;
        };
        self.visit_box(q, radius, |id| {
            ids[pending] = id;
            pending += 1;
            if pending == GATHER_ROWS {
                flush(&ids, &mut d2s);
                pending = 0;
            }
        });
        flush(&ids[..pending], &mut d2s[..pending]);
        seen
    }
}

impl SpatialIndex for GridIndex {
    fn len(&self) -> usize {
        self.n
    }

    fn range(&self, ds: &Dataset, q: &[f64], eps: f64, out: &mut Vec<Neighbor>) {
        assert_eq!(ds.len(), self.n, "index/dataset mismatch");
        assert_eq!(q.len(), self.dim, "query dimensionality mismatch");
        out.clear();
        if self.n == 0 || eps.is_nan() || eps < 0.0 {
            return;
        }
        // Squared-surrogate convention: compare against ε², sqrt only
        // reported results.
        let eps_sq = eps * eps;
        let evals = self.scan_box(ds.as_flat(), q, eps, |id, d2| {
            if d2 <= eps_sq {
                out.push(Neighbor::new(id as usize, Euclidean.surrogate_to_dist(d2)));
            }
        });
        db_obs::counter!("spatial.range_queries").incr();
        db_obs::counter!("spatial.dist_evals").add(evals);
        db_obs::counter!("spatial.sqrt_evals").add(out.len() as u64);
        sort_neighbors(out);
    }

    fn knn(&self, ds: &Dataset, q: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        assert_eq!(ds.len(), self.n, "index/dataset mismatch");
        assert_eq!(q.len(), self.dim, "query dimensionality mismatch");
        out.clear();
        if self.n == 0 || k == 0 {
            return;
        }
        let k = k.min(self.n);
        db_obs::counter!("spatial.knn_queries").incr();
        // Grow the search radius ring by ring until the k-th candidate is
        // provably within the scanned box.
        let flat = ds.as_flat();
        let mut radius = self.cell;
        let mut cands: Vec<Neighbor> = Vec::new();
        loop {
            cands.clear();
            self.scan_box(flat, q, radius, |id, d2| cands.push(Neighbor::new(id as usize, d2)));
            db_obs::counter!("spatial.dist_evals").add(cands.len() as u64);
            if cands.len() >= k {
                cands.select_nth_unstable_by(k - 1, |a, b| {
                    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
                });
                let kth = Euclidean.surrogate_to_dist(cands[k - 1].dist);
                db_obs::counter!("spatial.sqrt_evals").incr();
                // Every unscanned point is farther than `radius` (box
                // half-width) from q, so if the k-th distance fits inside we
                // are done.
                if kth <= radius {
                    cands.truncate(k);
                    db_obs::counter!("spatial.sqrt_evals").add(cands.len() as u64);
                    for n in &mut cands {
                        n.dist = Euclidean.surrogate_to_dist(n.dist);
                    }
                    sort_neighbors(&mut cands);
                    out.extend_from_slice(&cands);
                    return;
                }
                radius = kth.max(radius * 2.0);
            } else {
                radius *= 2.0;
            }
            // Safety valve: once the box covers everything, finish.
            if cands.len() == self.n {
                let k = k.min(cands.len());
                cands.select_nth_unstable_by(k - 1, |a, b| {
                    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
                });
                cands.truncate(k);
                db_obs::counter!("spatial.sqrt_evals").add(cands.len() as u64);
                for n in &mut cands {
                    n.dist = Euclidean.surrogate_to_dist(n.dist);
                }
                sort_neighbors(&mut cands);
                out.extend_from_slice(&cands);
                return;
            }
        }
    }

    fn nearest_tallied(&self, ds: &Dataset, q: &[f64], tally: &mut NnTally) -> Option<Neighbor> {
        assert_eq!(ds.len(), self.n, "index/dataset mismatch");
        assert_eq!(q.len(), self.dim, "query dimensionality mismatch");
        if self.n == 0 {
            return None;
        }
        tally.queries += 1;
        // `knn`'s ring growth with a running `(d², id)` minimum in place
        // of the candidate list.
        let flat = ds.as_flat();
        let mut radius = self.cell;
        loop {
            let mut best = DistId::MAX;
            let seen = self.scan_box(flat, q, radius, |id, d2| {
                let cand = DistId(d2, id as usize);
                if cand < best {
                    best = cand;
                }
            });
            tally.dist_evals += seen;
            if seen == 0 {
                radius *= 2.0;
                continue;
            }
            let dist = Euclidean.surrogate_to_dist(best.0);
            tally.sqrt_evals += 1;
            // Every unscanned point is farther than `radius` from q; once
            // the box covers everything, the minimum is final too.
            if dist <= radius || seen == self.n as u64 {
                return Some(Neighbor::new(best.1, dist));
            }
            radius = dist.max(radius * 2.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::linear::LinearScan;

    fn random_ds(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ds = Dataset::new(dim).unwrap();
        for _ in 0..n {
            let p: Vec<f64> = (0..dim).map(|_| next() * 20.0 - 10.0).collect();
            ds.push(&p).unwrap();
        }
        ds
    }

    #[test]
    fn build_rejects_bad_parameters() {
        let ds = random_ds(10, 2, 1);
        assert!(GridIndex::build(&ds, 0.0).is_none());
        assert!(GridIndex::build(&ds, -1.0).is_none());
        assert!(GridIndex::build(&ds, f64::NAN).is_none());
        assert!(GridIndex::build(&ds, f64::INFINITY).is_none());
        let high = random_ds(10, MAX_GRID_DIM + 1, 1);
        assert!(GridIndex::build(&high, 1.0).is_none());
    }

    #[test]
    fn build_rejects_overflowing_extent() {
        let ds = Dataset::from_rows(1, &[&[0.0], &[1e18]]).unwrap();
        assert!(GridIndex::build(&ds, 1e-3).is_none());
    }

    #[test]
    fn empty_dataset_is_fine() {
        let ds = Dataset::new(2).unwrap();
        let g = GridIndex::build(&ds, 1.0).unwrap();
        assert_eq!(g.len(), 0);
        let mut out = Vec::new();
        g.range(&ds, &[0.0, 0.0], 5.0, &mut out);
        assert!(out.is_empty());
        g.knn(&ds, &[0.0, 0.0], 3, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn range_matches_linear_scan() {
        for &dim in &[1usize, 2, 3] {
            let ds = random_ds(400, dim, 11 + dim as u64);
            let g = GridIndex::build(&ds, 1.5).unwrap();
            let lin = LinearScan::build(&ds);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for qi in [0usize, 13, 200, 399] {
                let q = ds.point(qi).to_vec();
                for eps in [0.0, 0.4, 1.5, 3.7, 50.0] {
                    g.range(&ds, &q, eps, &mut a);
                    lin.range(&ds, &q, eps, &mut b);
                    assert_eq!(
                        a.iter().map(|n| n.id).collect::<Vec<_>>(),
                        b.iter().map(|n| n.id).collect::<Vec<_>>(),
                        "dim={dim} eps={eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn knn_matches_linear_scan() {
        for &dim in &[1usize, 2, 3] {
            let ds = random_ds(250, dim, 5 + dim as u64);
            let g = GridIndex::build(&ds, 0.8).unwrap();
            let lin = LinearScan::build(&ds);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for qi in [0usize, 100, 249] {
                let q = ds.point(qi).to_vec();
                for k in [1usize, 4, 50, 250, 999] {
                    g.knn(&ds, &q, k, &mut a);
                    lin.knn(&ds, &q, k, &mut b);
                    assert_eq!(
                        a.iter().map(|n| n.id).collect::<Vec<_>>(),
                        b.iter().map(|n| n.id).collect::<Vec<_>>(),
                        "dim={dim} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn metadata_accessors() {
        let ds = random_ds(100, 2, 9);
        let g = GridIndex::build(&ds, 2.5).unwrap();
        assert_eq!(g.cell_width(), 2.5);
        assert!(g.occupied_cells() > 0 && g.occupied_cells() <= 100);
    }

    #[test]
    fn query_far_outside_data_extent() {
        let ds = random_ds(100, 2, 21);
        let g = GridIndex::build(&ds, 1.0).unwrap();
        let lin = LinearScan::build(&ds);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let q = [1000.0, -1000.0];
        g.knn(&ds, &q, 3, &mut a);
        lin.knn(&ds, &q, 3, &mut b);
        assert_eq!(
            a.iter().map(|n| n.id).collect::<Vec<_>>(),
            b.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        g.range(&ds, &q, 5.0, &mut a);
        assert!(a.is_empty());
    }
}
