//! A vantage-point tree: nearest-neighbour and range queries under an
//! **arbitrary metric**, given only a distance closure over object ids.
//!
//! This is the index the metric-data extension of the Data Bubbles paper
//! (§10) needs: classification of `n` objects against `k` sampled
//! representatives costs O(n·k) distance evaluations with a linear scan
//! but only ~O(n·log k) with a VP-tree over the representatives — and
//! distance evaluations (edit distances, kernel evaluations, …) are the
//! expensive unit in metric spaces.
//!
//! The tree stores object *ids*; all geometry flows through the provided
//! closure, which must be a metric (symmetry + triangle inequality —
//! pruning is unsound otherwise). Floating-point *rounding* of a true
//! metric is tolerated: pruning bounds carry a small relative slack
//! (`PRUNE_SLACK`) so triangle-inequality violations of a few ulps —
//! inevitable when distances are `fl(√Σd²)` from the coordinate kernels —
//! never drop a true result. `tests/vptree_ulp.rs` pins this.

/// One query result: object id + distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricNeighbor {
    /// The object id.
    pub id: usize,
    /// Distance to the query.
    pub dist: f64,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        ids: Vec<usize>,
    },
    Inner {
        vantage: usize,
        /// Median distance from the vantage point: the inside/outside split.
        radius: f64,
        /// Child covering `d(vantage, ·) <= radius`.
        inside: usize,
        /// Child covering `d(vantage, ·) > radius`.
        outside: usize,
    },
}

const LEAF_SIZE: usize = 8;

/// Relative pruning slack. A closure that returns *rounded* distances of
/// a true metric (e.g. `fl(√Σd²)` Euclidean) can violate the triangle
/// inequality by a few ulps, which makes exact-arithmetic pruning drop
/// points sitting precisely on a query boundary. Every prune test is
/// therefore widened by `PRUNE_SLACK × (sum of the magnitudes involved)`
/// — enough for correctly rounded metrics up to a few hundred dimensions.
/// Widening is always sound: it only admits extra node visits, and the
/// exhaustive leaf/vantage predicates decide actual membership.
const PRUNE_SLACK: f64 = 32.0 * f64::EPSILON;

/// A vantage-point tree over object ids `0..n`.
///
/// ```
/// use db_spatial::VpTree;
/// let words = ["cat", "car", "dragonfly"];
/// let dist = |a: usize, b: usize| {
///     // toy metric: absolute length difference
///     (words[a].len() as f64 - words[b].len() as f64).abs()
/// };
/// let tree = VpTree::build(words.len(), &dist);
/// // Nearest word to a query of length 4:
/// let nn = tree.nearest(&|id| (words[id].len() as f64 - 4.0).abs()).unwrap();
/// assert_eq!(words[nn.id], "cat"); // ties break toward lower ids
/// ```
#[derive(Debug, Clone)]
pub struct VpTree {
    nodes: Vec<Node>,
    root: usize,
    n: usize,
}

impl VpTree {
    /// Builds the tree over `n` objects with the given metric. Costs
    /// O(n log n) distance evaluations (deterministic vantage choice).
    pub fn build(n: usize, dist: &impl Fn(usize, usize) -> f64) -> Self {
        let mut nodes = Vec::new();
        let ids: Vec<usize> = (0..n).collect();
        let root = build_rec(&mut nodes, ids, dist);
        Self { nodes, root, n }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The nearest indexed object to the query. The query is described
    /// only by its distance to indexed objects (`dq(id)`), so callers can
    /// search for objects *outside* the indexed set.
    pub fn nearest(&self, dq: &impl Fn(usize) -> f64) -> Option<MetricNeighbor> {
        if self.n == 0 {
            return None;
        }
        let mut best = MetricNeighbor { id: usize::MAX, dist: f64::INFINITY };
        self.search(self.root, dq, &mut best);
        (best.id != usize::MAX).then_some(best)
    }

    fn search(&self, node: usize, dq: &impl Fn(usize) -> f64, best: &mut MetricNeighbor) {
        match &self.nodes[node] {
            Node::Leaf { ids } => {
                for &id in ids {
                    let d = dq(id);
                    if d < best.dist || (d == best.dist && id < best.id) {
                        *best = MetricNeighbor { id, dist: d };
                    }
                }
            }
            Node::Inner { vantage, radius, inside, outside } => {
                let d = dq(*vantage);
                if d < best.dist || (d == best.dist && *vantage < best.id) {
                    *best = MetricNeighbor { id: *vantage, dist: d };
                }
                // Visit the more promising side first; prune with the
                // triangle inequality.
                let (first, second) =
                    if d <= *radius { (*inside, *outside) } else { (*outside, *inside) };
                self.search(first, dq, best);
                let boundary_gap = (d - radius).abs();
                let slack = PRUNE_SLACK * (d + radius + best.dist);
                if boundary_gap <= best.dist + slack {
                    self.search(second, dq, best);
                }
            }
        }
    }

    /// All indexed objects within `eps` of the query, sorted by
    /// `(dist, id)`.
    pub fn range(&self, dq: &impl Fn(usize) -> f64, eps: f64, out: &mut Vec<MetricNeighbor>) {
        out.clear();
        if self.n == 0 || eps.is_nan() || eps < 0.0 {
            return;
        }
        self.range_rec(self.root, dq, eps, out);
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    }

    fn range_rec(
        &self,
        node: usize,
        dq: &impl Fn(usize) -> f64,
        eps: f64,
        out: &mut Vec<MetricNeighbor>,
    ) {
        match &self.nodes[node] {
            Node::Leaf { ids } => {
                for &id in ids {
                    let d = dq(id);
                    if d <= eps {
                        out.push(MetricNeighbor { id, dist: d });
                    }
                }
            }
            Node::Inner { vantage, radius, inside, outside } => {
                let d = dq(*vantage);
                if d <= eps {
                    out.push(MetricNeighbor { id: *vantage, dist: d });
                }
                let slack = PRUNE_SLACK * (d + eps + *radius);
                if d - eps <= *radius + slack {
                    self.range_rec(*inside, dq, eps, out);
                }
                if d + eps > *radius - slack {
                    self.range_rec(*outside, dq, eps, out);
                }
            }
        }
    }
}

fn build_rec(
    nodes: &mut Vec<Node>,
    mut ids: Vec<usize>,
    dist: &impl Fn(usize, usize) -> f64,
) -> usize {
    if ids.len() <= LEAF_SIZE {
        nodes.push(Node::Leaf { ids });
        return nodes.len() - 1;
    }
    // Deterministic vantage: the first id (ids arrive in arbitrary but
    // deterministic order from the parent split).
    let vantage = ids[0];
    let rest = ids.split_off(1);
    let mut with_d: Vec<(usize, f64)> =
        rest.into_iter().map(|id| (id, dist(vantage, id))).collect();
    let mid = with_d.len() / 2;
    with_d.select_nth_unstable_by(mid, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let radius = with_d[mid].1;
    // `select_nth` guarantees ≤ before mid; the element at mid defines the
    // radius and goes inside, so both children are non-empty.
    let mut inside_ids = Vec::with_capacity(mid + 1);
    let mut outside_ids = Vec::with_capacity(with_d.len() - mid);
    for (id, d) in with_d {
        if d <= radius {
            inside_ids.push(id);
        } else {
            outside_ids.push(id);
        }
    }
    if outside_ids.is_empty() {
        // Degenerate (many ties at the radius): fall back to a leaf to
        // guarantee termination.
        inside_ids.push(vantage);
        nodes.push(Node::Leaf { ids: inside_ids });
        return nodes.len() - 1;
    }
    let inside = build_rec(nodes, inside_ids, dist);
    let outside = build_rec(nodes, outside_ids, dist);
    nodes.push(Node::Inner { vantage, radius, inside, outside });
    nodes.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_metric(xs: &[f64]) -> impl Fn(usize, usize) -> f64 + '_ {
        move |a, b| (xs[a] - xs[b]).abs()
    }

    fn positions(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 2654435761) % 10_000) as f64 / 100.0).collect()
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let xs = positions(500);
        let dist = line_metric(&xs);
        let tree = VpTree::build(xs.len(), &dist);
        for q in [0.0f64, 3.7, 55.5, 99.99, -10.0, 200.0] {
            let dq = |id: usize| (xs[id] - q).abs();
            let got = tree.nearest(&dq).unwrap();
            let want = (0..xs.len())
                .map(|id| MetricNeighbor { id, dist: (xs[id] - q).abs() })
                .min_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)))
                .unwrap();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn range_matches_linear_scan() {
        let xs = positions(300);
        let dist = line_metric(&xs);
        let tree = VpTree::build(xs.len(), &dist);
        let mut out = Vec::new();
        for q in [10.0f64, 42.0, 77.7] {
            for eps in [0.0f64, 1.0, 10.0, 1000.0] {
                let dq = |id: usize| (xs[id] - q).abs();
                tree.range(&dq, eps, &mut out);
                let mut want: Vec<MetricNeighbor> = (0..xs.len())
                    .map(|id| MetricNeighbor { id, dist: (xs[id] - q).abs() })
                    .filter(|n| n.dist <= eps)
                    .collect();
                want.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
                assert_eq!(out, want, "q={q} eps={eps}");
            }
        }
    }

    #[test]
    fn duplicate_points_are_handled() {
        let xs = vec![5.0; 100];
        let dist = line_metric(&xs);
        let tree = VpTree::build(xs.len(), &dist);
        let dq = |id: usize| (xs[id] - 5.0).abs();
        assert_eq!(tree.nearest(&dq).unwrap().id, 0); // lowest id wins ties
        let mut out = Vec::new();
        tree.range(&dq, 0.0, &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_and_singleton() {
        let tree = VpTree::build(0, &|_, _| 0.0);
        assert!(tree.is_empty());
        assert!(tree.nearest(&|_| 0.0).is_none());

        let tree = VpTree::build(1, &|_, _| 0.0);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.nearest(&|_| 3.0).unwrap(), MetricNeighbor { id: 0, dist: 3.0 });
    }

    #[test]
    fn works_in_two_dimensions() {
        let pts: Vec<[f64; 2]> =
            (0..400).map(|i| [((i * 37) % 101) as f64, ((i * 53) % 97) as f64]).collect();
        let dist = |a: usize, b: usize| db_spatial_euclid(&pts[a], &pts[b]);
        fn db_spatial_euclid(a: &[f64; 2], b: &[f64; 2]) -> f64 {
            ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt()
        }
        let tree = VpTree::build(pts.len(), &dist);
        let q = [50.0, 50.0];
        let dq = |id: usize| ((pts[id][0] - q[0]).powi(2) + (pts[id][1] - q[1]).powi(2)).sqrt();
        let got = tree.nearest(&dq).unwrap();
        let want = (0..pts.len())
            .map(|id| MetricNeighbor { id, dist: dq(id) })
            .min_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)))
            .unwrap();
        assert_eq!(got, want);
    }
}
