//! Exhaustive-scan index: the always-correct O(n) baseline against which the
//! kd-tree and the cell table are property-tested.

use crate::dataset::Dataset;
use crate::index::{sort_neighbors, Neighbor, NnTally, SpatialIndex};
use crate::kernels;
use crate::metric::{Euclidean, Metric};

/// Rows per kernel block of the scan loops: 256 squared distances fit in a
/// 2 KiB stack buffer and keep each coordinate tile L1-resident.
const BLOCK_ROWS: usize = 256;

/// An index that answers every query by scanning all points.
#[derive(Debug, Clone)]
pub struct LinearScan {
    n: usize,
}

impl LinearScan {
    /// "Builds" the index (records only the dataset length).
    pub fn build(ds: &Dataset) -> Self {
        Self { n: ds.len() }
    }
}

impl SpatialIndex for LinearScan {
    fn len(&self) -> usize {
        self.n
    }

    fn range(&self, ds: &Dataset, q: &[f64], eps: f64, out: &mut Vec<Neighbor>) {
        assert_eq!(ds.len(), self.n, "index/dataset mismatch");
        out.clear();
        if eps.is_nan() || eps < 0.0 {
            return; // negative eps would square into a positive radius
        }
        // Squared-surrogate convention: compare d² against ε² in the scan
        // and convert only reported results back to distances.
        let eps_sq = eps * eps;
        let dim = ds.dim();
        let mut buf = [0.0f64; BLOCK_ROWS];
        for (b, chunk) in ds.as_flat().chunks(BLOCK_ROWS * dim).enumerate() {
            let rows = chunk.len() / dim;
            kernels::dists_to_block(q, chunk, dim, &mut buf[..rows]);
            for (j, &d2) in buf[..rows].iter().enumerate() {
                if d2 <= eps_sq {
                    out.push(Neighbor::new(b * BLOCK_ROWS + j, Euclidean.surrogate_to_dist(d2)));
                }
            }
        }
        db_obs::counter!("spatial.range_queries").incr();
        db_obs::counter!("spatial.dist_evals").add(self.n as u64);
        db_obs::counter!("spatial.sqrt_evals").add(out.len() as u64);
        sort_neighbors(out);
    }

    fn knn(&self, ds: &Dataset, q: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        assert_eq!(ds.len(), self.n, "index/dataset mismatch");
        out.clear();
        if k == 0 {
            return;
        }
        // Collect all squared distances block by block, partially select
        // the k smallest, and convert only those k to true distances.
        let dim = ds.dim();
        let mut all: Vec<Neighbor> = Vec::with_capacity(self.n);
        let mut buf = [0.0f64; BLOCK_ROWS];
        for (b, chunk) in ds.as_flat().chunks(BLOCK_ROWS * dim).enumerate() {
            let rows = chunk.len() / dim;
            kernels::dists_to_block(q, chunk, dim, &mut buf[..rows]);
            all.extend(
                buf[..rows]
                    .iter()
                    .enumerate()
                    .map(|(j, &d2)| Neighbor::new(b * BLOCK_ROWS + j, d2)),
            );
        }
        let k = k.min(all.len());
        if k == 0 {
            return;
        }
        db_obs::counter!("spatial.knn_queries").incr();
        db_obs::counter!("spatial.dist_evals").add(self.n as u64);
        db_obs::counter!("spatial.sqrt_evals").add(k as u64);
        all.select_nth_unstable_by(k - 1, |a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        all.truncate(k);
        for n in &mut all {
            n.dist = Euclidean.surrogate_to_dist(n.dist);
        }
        sort_neighbors(&mut all);
        out.extend_from_slice(&all);
    }

    fn nearest_tallied(&self, ds: &Dataset, q: &[f64], tally: &mut NnTally) -> Option<Neighbor> {
        assert_eq!(ds.len(), self.n, "index/dataset mismatch");
        if self.n == 0 {
            return None;
        }
        // The first `(d², id)` minimum over the whole flat block.
        let (id, d2) = kernels::nearest_row(q, ds.as_flat(), ds.dim());
        tally.queries += 1;
        tally.dist_evals += self.n as u64;
        tally.sqrt_evals += 1;
        Some(Neighbor::new(id, Euclidean.surrogate_to_dist(d2)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::from_rows(1, &[&[0.0], &[1.0], &[2.0], &[3.0], &[10.0]]).unwrap()
    }

    #[test]
    fn range_inclusive_boundary() {
        let d = ds();
        let idx = LinearScan::build(&d);
        let mut out = Vec::new();
        idx.range(&d, &[0.0], 2.0, &mut out);
        let ids: Vec<usize> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1, 2]); // 2.0 exactly on the boundary is included
        assert!((out[2].dist - 2.0).abs() < 1e-12);
    }

    #[test]
    fn range_empty_when_isolated() {
        let d = ds();
        let idx = LinearScan::build(&d);
        let mut out = vec![Neighbor::new(99, 0.0)];
        idx.range(&d, &[100.0], 1.0, &mut out);
        assert!(out.is_empty()); // out is cleared
    }

    #[test]
    fn knn_returns_sorted_k_nearest() {
        let d = ds();
        let idx = LinearScan::build(&d);
        let mut out = Vec::new();
        idx.knn(&d, &[2.2], 3, &mut out);
        let ids: Vec<usize> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert!(out.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn knn_k_zero_and_k_too_large() {
        let d = ds();
        let idx = LinearScan::build(&d);
        let mut out = Vec::new();
        idx.knn(&d, &[0.0], 0, &mut out);
        assert!(out.is_empty());
        idx.knn(&d, &[0.0], 100, &mut out);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn knn_tie_broken_by_lower_id() {
        let d = Dataset::from_rows(1, &[&[1.0], &[-1.0], &[1.0]]).unwrap();
        let idx = LinearScan::build(&d);
        let mut out = Vec::new();
        idx.knn(&d, &[0.0], 2, &mut out);
        let ids: Vec<usize> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1]); // all at distance 1; ids 0 and 1 win over 2
    }

    #[test]
    fn nearest_on_empty_dataset() {
        let d = Dataset::new(2).unwrap();
        let idx = LinearScan::build(&d);
        assert!(idx.nearest(&d, &[0.0, 0.0]).is_none());
        assert!(idx.is_empty());
    }
}
