//! A ball tree: hierarchical bounding spheres over dataset indices.
//!
//! KD-trees prune with axis-aligned slabs, which degrade in moderate/high
//! dimensionality; bounding spheres stay tight, so the ball tree is the
//! better default beyond ~8 dimensions (the Corel workload's regime).
//! Construction splits each node on the diameter direction approximated by
//! a double-farthest-point sweep.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dataset::Dataset;
use crate::index::{
    scan_nearest, sort_neighbors, DfsStack, Neighbor, NnTally, SpatialIndex, MAX_TREE_DEPTH,
};
use crate::kernels;
use crate::metric::{Euclidean, Metric, SquaredEuclidean};
use crate::order::DistId;

const LEAF_SIZE: usize = 16;

/// Rows per kernel flush of the leaf scan loops. Regular leaves hold at
/// most [`LEAF_SIZE`] ids, but the zero-radius degenerate case produces
/// one arbitrarily large leaf, so leaves are chunked.
const LEAF_BATCH: usize = 64;

#[derive(Debug, Clone)]
struct Ball {
    center: Vec<f64>,
    radius: f64,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { start: u32, end: u32 },
    Split { left: u32 },
}

/// A ball tree supporting ε-range and k-NN queries.
#[derive(Debug, Clone)]
pub struct BallTree {
    nodes: Vec<Node>,
    balls: Vec<Ball>,
    ids: Vec<u32>,
    n: usize,
    dim: usize,
}

impl BallTree {
    /// Builds the tree in O(n log n) distance computations.
    ///
    /// # Panics
    ///
    /// Panics if the tree is deeper than the 1-NN descent's fixed stack,
    /// which median splits rule out for any dataset.
    pub fn build(ds: &Dataset) -> Self {
        let n = ds.len();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::new();
        let mut balls = Vec::new();
        let mut depth = 0;
        if n > 0 {
            nodes.push(Node::Leaf { start: 0, end: n as u32 });
            balls.push(Ball { center: vec![0.0; ds.dim()], radius: 0.0 });
            depth = build_rec(ds, &mut nodes, &mut balls, &mut ids, 0, 0, n);
        }
        assert!(depth <= MAX_TREE_DEPTH, "ball-tree depth {depth} exceeds {MAX_TREE_DEPTH}");
        Self { nodes, balls, ids, n, dim: ds.dim() }
    }

    /// Whether a node at lower-bound distance `min_d` cannot hold a point
    /// that ties or beats `best`, the current worst (k-NN) or only (1-NN)
    /// result. `best` holds a squared distance and `min_d` a true
    /// lower-bound distance, whose sqrt round trip can inflate the square
    /// by a few ulps — so nodes within that tolerance are still explored,
    /// and exact-distance ties resolve as in the linear scan (lower ids
    /// win).
    #[inline]
    fn beyond(min_d: f64, best: DistId) -> bool {
        min_d * min_d > best.0 * (1.0 + 1e-9) + f64::MIN_POSITIVE
    }

    /// Lower bound on the distance from `q` to any point in node `i`.
    #[inline]
    fn min_dist(&self, i: usize, q: &[f64]) -> f64 {
        let b = &self.balls[i];
        // db-audit: allow(no-naked-sqrt) -- by design: the triangle-inequality
        // bound |q - center| - radius only exists in true-distance space.
        (SquaredEuclidean.dist(q, &b.center).sqrt() - b.radius).max(0.0)
    }
}

/// Builds the subtree at `node` over `ids[start..end]` and returns its
/// depth in splits.
fn build_rec(
    ds: &Dataset,
    nodes: &mut Vec<Node>,
    balls: &mut Vec<Ball>,
    ids: &mut [u32],
    node: usize,
    start: usize,
    end: usize,
) -> usize {
    // Bounding ball: centroid + max distance.
    let dim = ds.dim();
    let mut center = vec![0.0f64; dim];
    for &id in &ids[start..end] {
        for (c, &x) in center.iter_mut().zip(ds.point(id as usize)) {
            *c += x;
        }
    }
    let len = end - start;
    for c in &mut center {
        *c /= len as f64;
    }
    let radius = ids[start..end]
        .iter()
        .map(|&id| SquaredEuclidean.dist(&center, ds.point(id as usize)))
        .fold(0.0f64, f64::max)
        // db-audit: allow(no-naked-sqrt) -- build-time only: ball radii live in
        // true space to pair with the min_dist triangle-inequality bound.
        .sqrt();
    balls[node] = Ball { center, radius };

    if len <= LEAF_SIZE || radius <= 0.0 {
        nodes[node] = Node::Leaf { start: start as u32, end: end as u32 };
        return 0;
    }
    // Split direction: farthest point from the centroid, then the point
    // farthest from it (approximate diameter).
    let c = &balls[node].center;
    let a = *ids[start..end]
        .iter()
        .max_by(|&&x, &&y| {
            SquaredEuclidean
                .dist(c, ds.point(x as usize))
                .total_cmp(&SquaredEuclidean.dist(c, ds.point(y as usize)))
        })
        .expect("non-empty");
    let b = *ids[start..end]
        .iter()
        .max_by(|&&x, &&y| {
            SquaredEuclidean
                .dist(ds.point(a as usize), ds.point(x as usize))
                .total_cmp(&SquaredEuclidean.dist(ds.point(a as usize), ds.point(y as usize)))
        })
        .expect("non-empty");
    // Partition by projection onto the a→b axis (median split).
    let pa = ds.point(a as usize).to_vec();
    let pb = ds.point(b as usize).to_vec();
    let axis: Vec<f64> = pb.iter().zip(&pa).map(|(&x, &y)| x - y).collect();
    let mid = start + len / 2;
    let project =
        |id: u32| -> f64 { ds.point(id as usize).iter().zip(&axis).map(|(&x, &ax)| x * ax).sum() };
    ids[start..end].select_nth_unstable_by(len / 2, |&x, &y| project(x).total_cmp(&project(y)));

    let left = nodes.len() as u32;
    nodes.push(Node::Leaf { start: 0, end: 0 });
    balls.push(Ball { center: vec![0.0; dim], radius: 0.0 });
    nodes.push(Node::Leaf { start: 0, end: 0 });
    balls.push(Ball { center: vec![0.0; dim], radius: 0.0 });
    nodes[node] = Node::Split { left };
    let l = build_rec(ds, nodes, balls, ids, left as usize, start, mid);
    let r = build_rec(ds, nodes, balls, ids, left as usize + 1, mid, end);
    1 + l.max(r)
}

impl SpatialIndex for BallTree {
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
        let eps_sq = eps * eps;
        let (mut visited, mut pruned, mut evals) = (0u64, 0u64, 0u64);
        let flat = ds.as_flat();
        let mut buf = [0.0f64; LEAF_BATCH];
        let mut stack = vec![0usize];
        // Node-level pruning uses a sqrt-round-tripped lower bound; relax it
        // slightly so boundary-exact points can never be pruned (membership
        // itself is decided by exact squared distances below).
        let prune_eps = eps + 1e-9 * (1.0 + eps);
        while let Some(node) = stack.pop() {
            if self.min_dist(node, q) > prune_eps {
                pruned += 1;
                continue;
            }
            visited += 1;
            match self.nodes[node] {
                Node::Leaf { start, end } => {
                    evals += (end - start) as u64;
                    for chunk in self.ids[start as usize..end as usize].chunks(LEAF_BATCH) {
                        kernels::dists_to_indexed(
                            q,
                            flat,
                            self.dim,
                            chunk,
                            &mut buf[..chunk.len()],
                        );
                        for (&id, &d2) in chunk.iter().zip(&buf[..chunk.len()]) {
                            if d2 <= eps_sq {
                                out.push(Neighbor::new(
                                    id as usize,
                                    Euclidean.surrogate_to_dist(d2),
                                ));
                            }
                        }
                    }
                }
                Node::Split { left } => {
                    stack.push(left as usize);
                    stack.push(left as usize + 1);
                }
            }
        }
        db_obs::counter!("spatial.range_queries").incr();
        db_obs::counter!("spatial.nodes_visited").add(visited);
        db_obs::counter!("spatial.subtrees_pruned").add(pruned);
        db_obs::counter!("spatial.dist_evals").add(evals);
        // One sqrt per `min_dist` bound (each popped node) plus one per
        // reported neighbor.
        db_obs::counter!("spatial.sqrt_evals").add(out.len() as u64 + visited + pruned);
        sort_neighbors(out);
    }

    fn knn(&self, ds: &Dataset, q: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        assert_eq!(ds.len(), self.n, "index/dataset mismatch");
        assert_eq!(q.len(), self.dim, "query dimensionality mismatch");
        out.clear();
        if self.n == 0 || k == 0 {
            return;
        }
        // (dist, id) under the shared total order; the id tie-break keeps
        // result order identical to LinearScan.
        use crate::order::DistId as Cand;
        let k = k.min(self.n);
        let (mut visited, mut evals, mut bound_sqrts) = (0u64, 0u64, 0u64);
        let flat = ds.as_flat();
        let mut buf = [0.0f64; LEAF_BATCH];
        let mut best: BinaryHeap<Cand> = BinaryHeap::with_capacity(k + 1);
        let mut frontier: BinaryHeap<Reverse<Cand>> = BinaryHeap::new();
        frontier.push(Reverse(Cand(0.0, 0)));
        while let Some(Reverse(Cand(min_d, node))) = frontier.pop() {
            if best.len() == k && Self::beyond(min_d, *best.peek().expect("non-empty")) {
                break;
            }
            visited += 1;
            match self.nodes[node] {
                Node::Leaf { start, end } => {
                    evals += (end - start) as u64;
                    for chunk in self.ids[start as usize..end as usize].chunks(LEAF_BATCH) {
                        kernels::dists_to_indexed(
                            q,
                            flat,
                            self.dim,
                            chunk,
                            &mut buf[..chunk.len()],
                        );
                        for (&id, &d2) in chunk.iter().zip(&buf[..chunk.len()]) {
                            let cand = Cand(d2, id as usize);
                            if best.len() < k {
                                best.push(cand);
                            } else if cand < *best.peek().expect("non-empty") {
                                best.pop();
                                best.push(cand);
                            }
                        }
                    }
                }
                Node::Split { left } => {
                    bound_sqrts += 2;
                    for child in [left as usize, left as usize + 1] {
                        frontier.push(Reverse(Cand(self.min_dist(child, q), child)));
                    }
                }
            }
        }
        db_obs::counter!("spatial.knn_queries").incr();
        db_obs::counter!("spatial.nodes_visited").add(visited);
        db_obs::counter!("spatial.subtrees_pruned").add(frontier.len() as u64);
        db_obs::counter!("spatial.dist_evals").add(evals);
        // One sqrt per `min_dist` bound on pushed children plus one per
        // reported neighbor.
        db_obs::counter!("spatial.sqrt_evals").add(best.len() as u64 + bound_sqrts);
        out.extend(
            best.into_iter().map(|Cand(d2, id)| Neighbor::new(id, Euclidean.surrogate_to_dist(d2))),
        );
        sort_neighbors(out);
    }

    fn nearest_tallied(&self, ds: &Dataset, q: &[f64], tally: &mut NnTally) -> Option<Neighbor> {
        assert_eq!(ds.len(), self.n, "index/dataset mismatch");
        assert_eq!(q.len(), self.dim, "query dimensionality mismatch");
        if self.n == 0 {
            return None;
        }
        let flat = ds.as_flat();
        let mut best = DistId::MAX;
        let mut stack = DfsStack::root();
        while let Some((mut node, min_d)) = stack.pop() {
            if Self::beyond(min_d, best) {
                tally.subtrees_pruned += 1;
                continue;
            }
            // Descend into the child with the smaller bound first (the
            // left one on ties); the other waits on the stack.
            loop {
                tally.nodes_visited += 1;
                match self.nodes[node] {
                    Node::Leaf { start, end } => {
                        let ids = &self.ids[start as usize..end as usize];
                        tally.dist_evals += ids.len() as u64;
                        scan_nearest(q, flat, self.dim, ids, &mut best);
                        break;
                    }
                    Node::Split { left } => {
                        let right = left + 1;
                        let (dl, dr) =
                            (self.min_dist(left as usize, q), self.min_dist(right as usize, q));
                        tally.sqrt_evals += 2;
                        let ((near, dn), (far, df)) = if dr < dl {
                            ((right, dr), (left, dl))
                        } else {
                            ((left, dl), (right, dr))
                        };
                        stack.push(far, df);
                        if Self::beyond(dn, best) {
                            tally.subtrees_pruned += 1;
                            break;
                        }
                        node = near as usize;
                    }
                }
            }
        }
        tally.queries += 1;
        tally.sqrt_evals += 1;
        Some(Neighbor::new(best.1, Euclidean.surrogate_to_dist(best.0)))
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
            let p: Vec<f64> = (0..dim).map(|_| next() * 10.0 - 5.0).collect();
            ds.push(&p).unwrap();
        }
        ds
    }

    #[test]
    fn range_matches_linear_scan() {
        for &dim in &[2usize, 5, 9, 16] {
            let ds = random_ds(400, dim, 3 + dim as u64);
            let tree = BallTree::build(&ds);
            let lin = LinearScan::build(&ds);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for qi in [0usize, 100, 399] {
                let q = ds.point(qi).to_vec();
                for eps in [0.0, 1.0, 4.0, 100.0] {
                    tree.range(&ds, &q, eps, &mut a);
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
        for &dim in &[2usize, 9] {
            let ds = random_ds(300, dim, 11 + dim as u64);
            let tree = BallTree::build(&ds);
            let lin = LinearScan::build(&ds);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for qi in [0usize, 150, 299] {
                let q = ds.point(qi).to_vec();
                for k in [1usize, 7, 64, 300] {
                    tree.knn(&ds, &q, k, &mut a);
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
    fn knn_ties_with_interleaved_duplicates_match_linear() {
        // Regression: sqrt-round-tripped pruning bounds used to drop
        // exact-distance ties, resolving them differently from the linear
        // scan's (distance, id) order.
        let mut ds = Dataset::new(3).unwrap();
        for i in 0..300 {
            let base = [(i % 10) as f64, ((i / 10) % 10) as f64, (i / 100) as f64];
            // Every third point is an exact duplicate of a grid node.
            ds.push(&base).unwrap();
        }
        let tree = BallTree::build(&ds);
        let lin = LinearScan::build(&ds);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for qi in [0usize, 50, 150, 299] {
            let q = ds.point(qi).to_vec();
            for k in [1usize, 3, 10] {
                tree.knn(&ds, &q, k, &mut a);
                lin.knn(&ds, &q, k, &mut b);
                assert_eq!(
                    a.iter().map(|n| n.id).collect::<Vec<_>>(),
                    b.iter().map(|n| n.id).collect::<Vec<_>>(),
                    "qi={qi} k={k}"
                );
            }
        }
    }

    #[test]
    fn duplicates_and_empty() {
        let ds = Dataset::new(3).unwrap();
        let t = BallTree::build(&ds);
        let mut out = Vec::new();
        t.range(&ds, &[0.0; 3], 1.0, &mut out);
        assert!(out.is_empty());

        let mut ds = Dataset::new(2).unwrap();
        for _ in 0..50 {
            ds.push(&[2.0, 2.0]).unwrap();
        }
        let t = BallTree::build(&ds);
        t.range(&ds, &[2.0, 2.0], 0.0, &mut out);
        assert_eq!(out.len(), 50);
        t.knn(&ds, &[0.0, 0.0], 3, &mut out);
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
