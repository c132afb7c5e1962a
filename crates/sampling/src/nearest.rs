//! Nearest-representative queries against a fixed representative set:
//! the one query behind batch classification, incremental absorption and
//! the external pipeline's second pass.
//!
//! [`NearestRep`] picks its route once per representative set, from what
//! the set is — its size `k` and dimensionality `d` — and never from a
//! knob or the thread count:
//!
//! * `k ≤ NN_KERNEL_MAX_REPS` → the dense kernel over the flat block;
//! * `d = 2` and a [`CellTable`] builds → the cell table;
//! * otherwise → a [`KdTree`].
//!
//! All three return the exact `(d², id)` nearest representative, bit for
//! bit the same, so the route is a pure performance choice.

use db_spatial::{
    id_u32, kernels, CellTable, Dataset, Euclidean, KdTree, Metric, Neighbor, NnTally, SpatialIndex,
};
use db_supervise::{Stop, Ticker};

/// Largest representative set answered by the dense kernel
/// ([`kernels::nn_block`], [`kernels::nearest_row`]). The three routes
/// of [`NearestRep`]: k ≤ this bound takes the kernel; above it, 2-d
/// representatives take the [`CellTable`] when it builds, and everything
/// else a [`KdTree`]. The kernel streams the flat
/// representative block through cache with no pointer chasing and no
/// square roots; the table scans a short list and a tree a few leaves
/// per query whatever k is, so they win once k grows. All routes are
/// bit-for-bit identical (same canonical squared distances, same
/// `(dist, id)` tie-break), pinned by `tests/kernel_equivalence.rs` and
/// the cell table's equivalence tests.
///
/// Measured crossovers, median of 7 classifications of 1M DS1 points
/// (2-d) on 2 threads, 2-vCPU host, reps drawn at random. Kernel → tree:
/// k = 64: 0.076 → 0.094 s; 96: 0.129 → 0.106 s; 128: 0.164 → 0.118 s;
/// 256: 0.325 → 0.129 s; 512: 0.612 → 0.140 s. On 200k points of the
/// 15-Gaussian family (one thread, median of 5, reps at a fixed stride)
/// the kd-tree wins from k = 64 on: kernel → kd-tree at k = 64 / 128,
/// d = 5: 0.047 → 0.035 / 0.088 → 0.041 s; d = 9: 0.058 → 0.040 /
/// 0.111 → 0.045 s; d = 16: 0.079 → 0.044 / 0.158 → 0.067 s; d = 20:
/// 0.106 → 0.061 / 0.196 → 0.082 s. Kernel → cell table (build
/// included): k = 8: 0.020 → 0.026 s; 16: 0.029 → 0.027 s; 24: 0.039 →
/// 0.030 s; 64: 0.097 → 0.034 s; 128: 0.210 → 0.041 s. So the
/// table wins from k ≈ 16–24 and the kd-tree from k = 64–96 or below.
/// The bound stays 128 so that the tests pinning the kernel route with
/// 100 and 120 representatives (d = 4 and 3) keep exercising it.
pub const NN_KERNEL_MAX_REPS: usize = 128;

/// Query rows per kernel pass of the dense route: the query tile and its
/// squared-distance buffer stay stack/L1-resident while the rep block is
/// re-streamed per tile.
const CLASSIFY_BLOCK: usize = 128;

/// How nearest representatives are found for one fixed representative
/// set. See the [module docs](self) for the route rule.
#[derive(Debug, Clone)]
pub enum NearestRep {
    /// The dense kernel over the flat representative block.
    Kernel,
    /// The 2-d cell table, with its own kd-tree for the queries it does
    /// not cover.
    Table(CellTable),
    /// A kd-tree.
    Tree(KdTree),
}

impl NearestRep {
    /// Picks the route for `reps` and builds what it needs.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is empty.
    pub fn new(reps: &Dataset) -> Self {
        assert!(!reps.is_empty(), "need at least one representative");
        if reps.len() <= NN_KERNEL_MAX_REPS {
            return NearestRep::Kernel;
        }
        match CellTable::build(reps) {
            Some(table) => NearestRep::Table(table),
            None => NearestRep::Tree(KdTree::build(reps)),
        }
    }

    /// The index of the representative nearest to `q` (ties to the lower
    /// index), with the query's events tallied into `tally`.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is not the set this was built for or `q` has the
    /// wrong dimensionality.
    #[inline]
    pub fn nearest_tallied(&self, reps: &Dataset, q: &[f64], tally: &mut NnTally) -> usize {
        match self {
            NearestRep::Kernel => {
                let (at, _) = kernels::nearest_row(q, reps.as_flat(), reps.dim());
                tally.queries += 1;
                tally.dist_evals += reps.len() as u64;
                at
            }
            NearestRep::Table(table) => neighbor_of(table, reps, q, tally).id,
            NearestRep::Tree(index) => neighbor_of(index, reps, q, tally).id,
        }
    }

    /// The representative nearest to `q` (ties to the lower index) with
    /// its Euclidean distance, the square root of the canonical squared
    /// distance: the same bits on every route. The query's events go to
    /// the `spatial.*` counters at once; for callers that query once, not
    /// in a loop.
    ///
    /// # Panics
    ///
    /// As [`Self::nearest_tallied`].
    pub fn nearest(&self, reps: &Dataset, q: &[f64]) -> Neighbor {
        let mut tally = NnTally::default();
        let nn = match self {
            NearestRep::Kernel => {
                let (at, d2) = kernels::nearest_row(q, reps.as_flat(), reps.dim());
                tally.queries += 1;
                tally.dist_evals += reps.len() as u64;
                tally.sqrt_evals += 1;
                Neighbor::new(at, Euclidean.surrogate_to_dist(d2))
            }
            NearestRep::Table(table) => neighbor_of(table, reps, q, &mut tally),
            NearestRep::Tree(tree) => neighbor_of(tree, reps, q, &mut tally),
        };
        tally.flush();
        nn
    }

    /// Classifies the points `offset..offset + out.len()` of `ds` into
    /// `out`, ticking `ticker` once per point and tallying into `tally`.
    /// On `Err` the caller discards `out`.
    pub(crate) fn classify_into(
        &self,
        ds: &Dataset,
        reps: &Dataset,
        offset: usize,
        out: &mut [u32],
        tally: &mut NnTally,
        ticker: &mut Ticker,
    ) -> Result<(), Stop> {
        match self {
            NearestRep::Kernel => classify_dense(ds, reps, offset, out, tally, ticker),
            NearestRep::Table(table) => classify_each(table, ds, reps, offset, out, tally, ticker),
            NearestRep::Tree(index) => classify_each(index, ds, reps, offset, out, tally, ticker),
        }
    }
}

/// One index query; the set is non-empty by construction.
#[inline]
fn neighbor_of(
    index: &impl SpatialIndex,
    reps: &Dataset,
    q: &[f64],
    tally: &mut NnTally,
) -> Neighbor {
    index.nearest_tallied(reps, q, tally).expect("reps non-empty")
}

/// The per-point classification loop of the index routes.
fn classify_each(
    index: &impl SpatialIndex,
    ds: &Dataset,
    reps: &Dataset,
    offset: usize,
    out: &mut [u32],
    tally: &mut NnTally,
    ticker: &mut Ticker,
) -> Result<(), Stop> {
    for (i, slot) in out.iter_mut().enumerate() {
        ticker.tick()?;
        // Lossless: `Dataset` caps its length at `Dataset::MAX_POINTS`
        // (u32 ids), enforced at ingest.
        *slot = id_u32(neighbor_of(index, reps, ds.point(offset + i), tally).id);
    }
    Ok(())
}

/// The dense route: blocks of queries against the whole rep block.
fn classify_dense(
    ds: &Dataset,
    reps: &Dataset,
    offset: usize,
    out: &mut [u32],
    tally: &mut NnTally,
    ticker: &mut Ticker,
) -> Result<(), Stop> {
    let dim = ds.dim();
    let flat = ds.as_flat();
    let mut d2 = [0.0f64; CLASSIFY_BLOCK];
    for (b, ids) in out.chunks_mut(CLASSIFY_BLOCK).enumerate() {
        let rows = ids.len();
        // One tick per point keeps the supervision cadence (and its
        // fault-injection schedule) identical to the index routes.
        for _ in 0..rows {
            ticker.tick()?;
        }
        let lo = (offset + b * CLASSIFY_BLOCK) * dim;
        // `nn_block` scans reps in ascending-id order per query, so ids
        // land directly in `out` with the `(dist, id)` tie-break; the
        // chunk offset cannot affect the winners.
        kernels::nn_block(&flat[lo..lo + rows * dim], reps.as_flat(), dim, ids, &mut d2[..rows]);
        tally.queries += rows as u64;
        tally.dist_evals += (rows * reps.len()) as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize, dim: usize) -> Dataset {
        let mut ds = Dataset::new(dim).unwrap();
        let mut row = vec![0.0; dim];
        for i in 0..n {
            for (j, x) in row.iter_mut().enumerate() {
                *x = ((i * (7 + 2 * j) + 3 * j) % (97 + j)) as f64 + 0.25 * (i % 5) as f64;
            }
            ds.push(&row).unwrap();
        }
        ds
    }

    #[test]
    fn route_follows_k_and_d() {
        let k = NN_KERNEL_MAX_REPS + 1;
        assert!(matches!(NearestRep::new(&grid_points(NN_KERNEL_MAX_REPS, 2)), NearestRep::Kernel));
        assert!(matches!(NearestRep::new(&grid_points(k, 2)), NearestRep::Table(_)));
        assert!(matches!(NearestRep::new(&grid_points(k, 16)), NearestRep::Tree(_)));
        // Collinear 2-d reps build no table: the tree takes them.
        let mut line = Dataset::new(2).unwrap();
        for i in 0..k {
            line.push(&[i as f64, 3.0]).unwrap();
        }
        assert!(matches!(NearestRep::new(&line), NearestRep::Tree(_)));
    }

    #[test]
    fn every_route_answers_alike() {
        for dim in [2usize, 3] {
            let ds = grid_points(2_000, dim);
            let big = ds.subset(&(0..NN_KERNEL_MAX_REPS + 40).map(|i| i * 11).collect::<Vec<_>>());
            let routes = [NearestRep::Kernel, NearestRep::new(&big)];
            let mut tally = NnTally::default();
            for q in ds.iter() {
                let [a, b] = routes.each_ref().map(|r| r.nearest_tallied(&big, q, &mut tally));
                assert_eq!(a, b, "dim {dim}");
                let [a, b] = routes.each_ref().map(|r| r.nearest(&big, q));
                assert_eq!((a.id, a.dist.to_bits()), (b.id, b.dist.to_bits()), "dim {dim}");
            }
        }
    }
}
