//! Spatial indexes answering ε-range and k-NN queries over a [`Dataset`].
//!
//! Coordinate data has one index, the [`kdtree::KdTree`]: it answers the
//! ε-range queries of OPTICS and DBSCAN over raw points and the k-NN and
//! 1-NN queries of the parameter heuristics and classification.
//! [`cells::CellTable`] answers 2-d 1-NN queries against a fixed point set
//! in front of its own kd-tree, and [`linear::LinearScan`] is the
//! exhaustive reference both are tested against.
//!
//! Indexes store only point *indices*; the dataset is passed by reference at
//! query time. All implementations return exactly the same result sets (ties
//! in k-NN are broken by lower point id), which the test-suite checks by
//! property testing against [`linear::LinearScan`].

use crate::dataset::Dataset;
use crate::kernels;
use crate::order::DistId;

pub mod cells;
pub mod kdtree;
pub mod linear;

/// One query result: a point id together with its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the point in the dataset.
    pub id: usize,
    /// Euclidean distance to the query point.
    pub dist: f64,
}

impl Neighbor {
    /// Creates a neighbor record.
    #[inline]
    pub fn new(id: usize, dist: f64) -> Self {
        Self { id, dist }
    }
}

/// Sorts neighbours by `(dist, id)` — the canonical result order.
pub(crate) fn sort_neighbors(out: &mut [Neighbor]) {
    out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
}

/// Local tallies of nearest-neighbour queries, flushed to the global
/// `spatial.*` counters in one go.
///
/// A per-query bump of the process-global counters is an atomic
/// read-modify-write on a cache line every worker shares; at 1M queries
/// per pass that traffic costs more than the queries. Hot loops therefore
/// hold one tally, pass it to [`SpatialIndex::nearest_tallied`] and call
/// [`NnTally::flush`] once per chunk or batch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NnTally {
    /// Queries answered (`spatial.knn_queries`).
    pub queries: u64,
    /// Tree nodes entered (`spatial.nodes_visited`).
    pub nodes_visited: u64,
    /// Tree nodes skipped by their lower bound (`spatial.subtrees_pruned`).
    pub subtrees_pruned: u64,
    /// Squared point distances computed (`spatial.dist_evals`).
    pub dist_evals: u64,
    /// Square roots taken (`spatial.sqrt_evals`).
    pub sqrt_evals: u64,
}

impl NnTally {
    /// Adds every field to its `spatial.*` counter. Zero fields are
    /// skipped, so an index that never prunes registers no prune counter.
    pub fn flush(self) {
        let counters = [
            (self.queries, db_obs::counter!("spatial.knn_queries")),
            (self.nodes_visited, db_obs::counter!("spatial.nodes_visited")),
            (self.subtrees_pruned, db_obs::counter!("spatial.subtrees_pruned")),
            (self.dist_evals, db_obs::counter!("spatial.dist_evals")),
            (self.sqrt_evals, db_obs::counter!("spatial.sqrt_evals")),
        ];
        for (n, counter) in counters {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// Rows per kernel call of [`scan_nearest`]: one regular tree leaf. The
/// buffer is re-initialised per call, so it stays small; larger
/// (degenerate) leaves take several calls.
const SCAN_ROWS: usize = 16;

/// Lowers `best` to the `(d², id)` minimum over itself and the points
/// `ids` of the row-major `flat` buffer — the leaf scan of the kd-tree's
/// 1-NN queries. Squared distances come from [`kernels::dists_to_indexed`], so
/// they are the bits `knn` sees.
#[inline]
pub(crate) fn scan_nearest(q: &[f64], flat: &[f64], dim: usize, ids: &[u32], best: &mut DistId) {
    let mut buf = [0.0f64; SCAN_ROWS];
    for chunk in ids.chunks(SCAN_ROWS) {
        let d2s = &mut buf[..chunk.len()];
        kernels::dists_to_indexed(q, flat, dim, chunk, d2s);
        for (&id, &d2) in chunk.iter().zip(d2s.iter()) {
            let cand = DistId(d2, id as usize);
            if cand < *best {
                *best = cand;
            }
        }
    }
}

/// Deepest tree a 1-NN descent supports: the capacity of [`DfsStack`].
/// The kd-tree splits at the median, so a tree over at most `u32::MAX`
/// points is at most 32 splits deep; the build asserts its depth against
/// this bound.
pub(crate) const MAX_TREE_DEPTH: usize = 32;

/// Fixed-capacity stack of `(node, lower bound)` pairs for the kd-tree's
/// depth-first 1-NN descent. A nearest-child-first descent leaves at most
/// one far sibling per level on the stack, so [`MAX_TREE_DEPTH`] entries
/// suffice and no query allocates.
pub(crate) struct DfsStack {
    node: [u32; MAX_TREE_DEPTH],
    bound: [f64; MAX_TREE_DEPTH],
    len: usize,
}

impl DfsStack {
    /// A stack holding only the root, with lower bound 0.
    #[inline]
    pub(crate) fn root() -> Self {
        let mut s = Self { node: [0; MAX_TREE_DEPTH], bound: [0.0; MAX_TREE_DEPTH], len: 0 };
        s.push(0, 0.0);
        s
    }

    /// Pushes `node` with lower bound `bound`; panics past the capacity
    /// (which the build-time depth assertion rules out).
    #[inline]
    pub(crate) fn push(&mut self, node: u32, bound: f64) {
        self.node[self.len] = node;
        self.bound[self.len] = bound;
        self.len += 1;
    }

    /// Pops the most recently pushed `(node, lower bound)`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(usize, f64)> {
        self.len = self.len.checked_sub(1)?;
        Some((self.node[self.len] as usize, self.bound[self.len]))
    }
}

/// An index over the points of one dataset, answering Euclidean proximity
/// queries.
///
/// The dataset passed to the query methods must be the dataset the index was
/// built from (same length, same order); this is asserted where cheap.
pub trait SpatialIndex {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Whether the index contains no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All points within distance `eps` of `q` (inclusive), appended to
    /// `out` sorted by `(dist, id)`. `out` is cleared first.
    fn range(&self, ds: &Dataset, q: &[f64], eps: f64, out: &mut Vec<Neighbor>);

    /// The `k` nearest points to `q`, appended to `out` sorted by
    /// `(dist, id)`. Fewer than `k` results are returned when the dataset is
    /// smaller. `out` is cleared first. Ties at the `k`-th distance are
    /// broken by lower id.
    fn knn(&self, ds: &Dataset, q: &[f64], k: usize, out: &mut Vec<Neighbor>);

    /// The single nearest point to `q` — `knn(q, 1)[0]` bit for bit — or
    /// `None` on an empty index. Allocates nothing and writes no shared
    /// memory: the query's events go into `tally` (see [`NnTally`]).
    fn nearest_tallied(&self, ds: &Dataset, q: &[f64], tally: &mut NnTally) -> Option<Neighbor>;

    /// [`Self::nearest_tallied`] with the query's tally flushed at once;
    /// for callers that query once, not in a loop.
    fn nearest(&self, ds: &Dataset, q: &[f64]) -> Option<Neighbor> {
        let mut tally = NnTally::default();
        let nn = self.nearest_tallied(ds, q, &mut tally);
        tally.flush();
        nn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::from_rows(
            2,
            &[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[10.0, 10.0], &[10.5, 10.0]],
        )
        .unwrap()
    }

    #[test]
    fn neighbor_constructor() {
        let n = Neighbor::new(3, 1.5);
        assert_eq!(n.id, 3);
        assert_eq!(n.dist, 1.5);
    }

    #[test]
    fn sort_neighbors_orders_by_dist_then_id() {
        let mut v = vec![Neighbor::new(2, 1.0), Neighbor::new(1, 1.0), Neighbor::new(0, 0.5)];
        sort_neighbors(&mut v);
        assert_eq!(v.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    /// The kd-tree answers like the linear scan on a five-point set and
    /// on 2-d, 6-d and 9-d sets.
    #[test]
    fn kdtree_answers_every_shape_like_the_linear_scan() {
        // 200 points on an integer lattice, with many ties.
        let lattice = |dim: usize| {
            let mut d = Dataset::new(dim).unwrap();
            for i in 0..200 {
                let row: Vec<f64> = (0..dim).map(|j| ((i * (3 + j)) % 17) as f64).collect();
                d.push(&row).unwrap();
            }
            d
        };
        for d in [ds(), lattice(2), lattice(6), lattice(9)] {
            let (tree, linear) = (kdtree::KdTree::build(&d), linear::LinearScan::build(&d));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for q in d.iter().step_by(7) {
                let what = format!("d={} n={}", d.dim(), d.len());
                tree.range(&d, q, 4.0, &mut a);
                linear.range(&d, q, 4.0, &mut b);
                assert_eq!(a, b, "{what} range");
                tree.knn(&d, q, 5, &mut a);
                linear.knn(&d, q, 5, &mut b);
                assert_eq!(a, b, "{what} knn");
                assert_eq!(tree.nearest(&d, q), linear.nearest(&d, q), "{what} nearest");
            }
        }
    }

    #[test]
    fn kdtree_and_linear_scan_answer_the_basic_queries() {
        let d = ds();
        let tree = kdtree::KdTree::build(&d);
        let linear = linear::LinearScan::build(&d);
        for idx in [&tree as &dyn SpatialIndex, &linear] {
            assert_eq!(idx.len(), 5);
            assert!(!idx.is_empty());
            let mut out = Vec::new();
            idx.range(&d, &[0.0, 0.0], 1.0, &mut out);
            assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1, 2]);
            idx.knn(&d, &[10.1, 10.0], 1, &mut out);
            assert_eq!(out[0].id, 3);
            assert_eq!(idx.nearest(&d, &[10.6, 10.0]).unwrap().id, 4);
        }
    }
}
