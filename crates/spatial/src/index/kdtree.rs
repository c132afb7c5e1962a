//! A KD-tree over dataset indices.
//!
//! Nodes are stored in a flat arena; leaves hold small buckets of point ids.
//! Splits are made at the median of the widest dimension of each node's
//! bounding box, which keeps the tree balanced for arbitrary (including
//! highly skewed) data distributions.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dataset::Dataset;
use crate::index::cells::box_gap2;
use crate::index::{
    scan_nearest, sort_neighbors, DfsStack, Neighbor, NnTally, SpatialIndex, MAX_TREE_DEPTH,
};
use crate::kernels;
use crate::metric::{Euclidean, Metric};
use crate::order::DistId;

const LEAF_SIZE: usize = 16;

/// Rows per kernel flush of the leaf scan loops. Regular leaves hold at
/// most [`LEAF_SIZE`] ids, but the all-points-identical degenerate case
/// produces one arbitrarily large leaf, so leaves are chunked.
const LEAF_BATCH: usize = 64;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Range into `KdTree::ids`.
        start: u32,
        end: u32,
    },
    Split {
        dim: u16,
        value: f64,
        /// Index of the left child in the arena; right child is `left + 1`.
        left: u32,
    },
}

/// A balanced KD-tree supporting ε-range and k-NN queries.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
    ids: Vec<u32>,
    n: usize,
    dim: usize,
}

impl KdTree {
    /// Builds the tree in O(n log² n).
    ///
    /// # Panics
    ///
    /// Panics if the tree is deeper than the 1-NN descent's fixed stack,
    /// which median splits rule out for any dataset.
    pub fn build(ds: &Dataset) -> Self {
        let n = ds.len();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity((2 * n / LEAF_SIZE).max(1));
        let mut depth = 0;
        if n > 0 {
            nodes.push(Node::Leaf { start: 0, end: n as u32 }); // placeholder root
            depth = Self::build_rec(ds, &mut nodes, &mut ids, 0, 0, n);
        }
        assert!(depth <= MAX_TREE_DEPTH, "kd-tree depth {depth} exceeds {MAX_TREE_DEPTH}");
        Self { nodes, ids, n, dim: ds.dim() }
    }

    /// Builds the subtree at `node` over `ids[start..end]` and returns its
    /// depth in splits.
    fn build_rec(
        ds: &Dataset,
        nodes: &mut Vec<Node>,
        ids: &mut [u32],
        node: usize,
        start: usize,
        end: usize,
    ) -> usize {
        let len = end - start;
        if len <= LEAF_SIZE {
            nodes[node] = Node::Leaf { start: start as u32, end: end as u32 };
            return 0;
        }
        // Widest dimension of this node's bounding box.
        let dim = ds.dim();
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for &id in &ids[start..end] {
            for (j, &x) in ds.point(id as usize).iter().enumerate() {
                if x < lo[j] {
                    lo[j] = x;
                }
                if x > hi[j] {
                    hi[j] = x;
                }
            }
        }
        let split_dim =
            (0..dim).max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b]))).expect("dim > 0");
        if hi[split_dim] - lo[split_dim] <= 0.0 {
            // All points identical in every dimension: keep as one leaf.
            nodes[node] = Node::Leaf { start: start as u32, end: end as u32 };
            return 0;
        }
        let mid = start + len / 2;
        ids[start..end].select_nth_unstable_by(len / 2, |&a, &b| {
            ds.point(a as usize)[split_dim].total_cmp(&ds.point(b as usize)[split_dim])
        });
        let value = ds.point(ids[mid] as usize)[split_dim];
        let left = nodes.len() as u32;
        nodes.push(Node::Leaf { start: 0, end: 0 }); // left placeholder
        nodes.push(Node::Leaf { start: 0, end: 0 }); // right placeholder
        nodes[node] = Node::Split { dim: split_dim as u16, value, left };
        let l = Self::build_rec(ds, nodes, ids, left as usize, start, mid);
        let r = Self::build_rec(ds, nodes, ids, left as usize + 1, mid, end);
        1 + l.max(r)
    }

    /// Appends to `out` every point whose squared distance to the box
    /// `[lo, hi]` ([`box_gap2`]) is at most `t`, with points, split values
    /// and the box all taken relative to `origin`. 2-d trees only; the
    /// cell table's build. A subtree is pruned by per-axis gaps from its
    /// split values, computed with the same monotone expressions as a
    /// point's gap, so a pruned point could never have passed.
    pub(crate) fn near_box(
        &self,
        ds: &Dataset,
        origin: [f64; 2],
        lo: [f64; 2],
        hi: [f64; 2],
        t: f64,
        out: &mut Vec<u32>,
    ) {
        debug_assert_eq!(self.dim, 2, "near_box is 2-d only");
        if self.n == 0 {
            return;
        }
        let mut stack = vec![(0usize, [0.0f64; 2])];
        while let Some((node, gap)) = stack.pop() {
            if gap[0] * gap[0] + gap[1] * gap[1] > t {
                continue;
            }
            match self.nodes[node] {
                Node::Leaf { start, end } => {
                    for &id in &self.ids[start as usize..end as usize] {
                        let p = ds.point(id as usize);
                        if box_gap2([p[0] - origin[0], p[1] - origin[1]], lo, hi) <= t {
                            out.push(id);
                        }
                    }
                }
                Node::Split { dim, value, left } => {
                    // Left points lie at or below the split, right ones at
                    // or above it.
                    let a = dim as usize;
                    let v = value - origin[a];
                    let (mut below, mut above) = (gap, gap);
                    below[a] = below[a].max(lo[a] - v);
                    above[a] = above[a].max(v - hi[a]);
                    stack.push((left as usize, below));
                    stack.push((left as usize + 1, above));
                }
            }
        }
    }
}

impl SpatialIndex for KdTree {
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
        // Per-query tallies, flushed to the global counters once at the
        // end so the hot loop stays free of shared-memory traffic.
        let (mut visited, mut pruned, mut evals) = (0u64, 0u64, 0u64);
        let flat = ds.as_flat();
        let mut buf = [0.0f64; LEAF_BATCH];
        // Iterative DFS; prune subtrees whose slab distance exceeds eps.
        let mut stack: Vec<(usize, f64)> = vec![(0, 0.0)];
        while let Some((node, min_d2)) = stack.pop() {
            if min_d2 > eps_sq {
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
                Node::Split { dim, value, left } => {
                    let delta = q[dim as usize] - value;
                    let gap = delta * delta;
                    let (near, far) = if delta < 0.0 {
                        (left as usize, left as usize + 1)
                    } else {
                        (left as usize + 1, left as usize)
                    };
                    // The near side keeps the parent's lower bound; the far
                    // side is at least `gap` away along the split axis.
                    stack.push((far, min_d2.max(gap)));
                    stack.push((near, min_d2));
                }
            }
        }
        db_obs::counter!("spatial.range_queries").incr();
        db_obs::counter!("spatial.nodes_visited").add(visited);
        db_obs::counter!("spatial.subtrees_pruned").add(pruned);
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
        // Max-heap of the current k best (dist², id); the shared total
        // order includes the id so tie-breaking matches LinearScan exactly.
        use crate::order::DistId as Cand;

        let k = k.min(self.n);
        let (mut visited, mut evals) = (0u64, 0u64);
        let flat = ds.as_flat();
        let mut buf = [0.0f64; LEAF_BATCH];
        let mut best: BinaryHeap<Cand> = BinaryHeap::with_capacity(k + 1);
        // Best-first traversal of the tree.
        let mut frontier: BinaryHeap<Reverse<Cand>> = BinaryHeap::new();
        frontier.push(Reverse(Cand(0.0, 0)));
        while let Some(Reverse(Cand(min_d2, node))) = frontier.pop() {
            if best.len() == k {
                let worst = best.peek().expect("non-empty");
                // Even an id-0 point at min_d2 cannot beat the current worst.
                if Cand(min_d2, 0) >= *worst {
                    break;
                }
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
                Node::Split { dim, value, left } => {
                    let delta = q[dim as usize] - value;
                    let gap = delta * delta;
                    let (near, far) = if delta < 0.0 {
                        (left as usize, left as usize + 1)
                    } else {
                        (left as usize + 1, left as usize)
                    };
                    frontier.push(Reverse(Cand(min_d2, near)));
                    frontier.push(Reverse(Cand(min_d2.max(gap), far)));
                }
            }
        }
        db_obs::counter!("spatial.knn_queries").incr();
        db_obs::counter!("spatial.nodes_visited").add(visited);
        db_obs::counter!("spatial.subtrees_pruned").add(frontier.len() as u64);
        db_obs::counter!("spatial.dist_evals").add(evals);
        db_obs::counter!("spatial.sqrt_evals").add(best.len() as u64);
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
        while let Some((mut node, min_d2)) = stack.pop() {
            // `knn`'s rule: even an id-0 point at `min_d2` cannot beat `best`.
            if DistId(min_d2, 0) >= best {
                tally.subtrees_pruned += 1;
                continue;
            }
            // Descend nearest child first. The near side keeps the bound
            // that just passed; the far side waits on the stack.
            loop {
                tally.nodes_visited += 1;
                match self.nodes[node] {
                    Node::Leaf { start, end } => {
                        let ids = &self.ids[start as usize..end as usize];
                        tally.dist_evals += ids.len() as u64;
                        scan_nearest(q, flat, self.dim, ids, &mut best);
                        break;
                    }
                    Node::Split { dim, value, left } => {
                        let delta = q[dim as usize] - value;
                        let (near, far) =
                            if delta < 0.0 { (left, left + 1) } else { (left + 1, left) };
                        stack.push(far, min_d2.max(delta * delta));
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
        // Tiny xorshift so the test does not depend on `rand`.
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ds = Dataset::new(dim).unwrap();
        for _ in 0..n {
            let p: Vec<f64> = (0..dim).map(|_| next() * 10.0).collect();
            ds.push(&p).unwrap();
        }
        ds
    }

    #[test]
    fn empty_tree_queries() {
        let ds = Dataset::new(3).unwrap();
        let t = KdTree::build(&ds);
        let mut out = Vec::new();
        t.range(&ds, &[0.0, 0.0, 0.0], 1.0, &mut out);
        assert!(out.is_empty());
        t.knn(&ds, &[0.0, 0.0, 0.0], 5, &mut out);
        assert!(out.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn duplicate_points_form_single_leaf() {
        let mut ds = Dataset::new(2).unwrap();
        for _ in 0..100 {
            ds.push(&[1.0, 1.0]).unwrap();
        }
        let t = KdTree::build(&ds);
        let mut out = Vec::new();
        t.range(&ds, &[1.0, 1.0], 0.0, &mut out);
        assert_eq!(out.len(), 100);
        t.knn(&ds, &[0.0, 0.0], 3, &mut out);
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn range_matches_linear_scan_on_random_data() {
        for &dim in &[1usize, 2, 3, 5] {
            let ds = random_ds(500, dim, 42 + dim as u64);
            let tree = KdTree::build(&ds);
            let lin = LinearScan::build(&ds);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for qi in [0usize, 7, 123, 499] {
                let q: Vec<f64> = ds.point(qi).to_vec();
                for eps in [0.0, 0.5, 2.0, 100.0] {
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
    fn knn_matches_linear_scan_on_random_data() {
        for &dim in &[1usize, 2, 4] {
            let ds = random_ds(300, dim, 7 + dim as u64);
            let tree = KdTree::build(&ds);
            let lin = LinearScan::build(&ds);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for qi in [0usize, 50, 299] {
                let q: Vec<f64> = ds.point(qi).to_vec();
                for k in [1usize, 5, 17, 300, 1000] {
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
    fn negative_eps_returns_nothing() {
        let ds = random_ds(100, 2, 3);
        let tree = KdTree::build(&ds);
        let mut out = Vec::new();
        tree.range(&ds, ds.point(0), -1.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "query dimensionality mismatch")]
    fn wrong_query_dim_panics() {
        let ds = random_ds(100, 2, 3);
        let tree = KdTree::build(&ds);
        let mut out = Vec::new();
        tree.range(&ds, &[0.0, 0.0, 0.0], 1.0, &mut out);
    }
}
