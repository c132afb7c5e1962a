//! The CF-tree: a height-balanced tree of clustering features (BIRCH §4),
//! with phase-1 insertion (rebuild on memory bound) and phase-2
//! condensation to a target number of leaf entries.

use crate::cf::{sq_dist, Cf, CfError, CfView};
use db_spatial::Dataset;
use db_supervise::{unsupervised, Stop, Supervisor, Ticker};

/// Tuning parameters of a [`CfTree`].
#[derive(Debug, Clone)]
pub struct BirchParams {
    /// Branching factor `B`: maximum children of a non-leaf node.
    pub branching: usize,
    /// Leaf capacity `L`: maximum entries of a leaf node.
    pub leaf_capacity: usize,
    /// Initial absorption threshold `T` (0.0 = only exact duplicates merge
    /// until the first rebuild).
    pub initial_threshold: f64,
    /// Memory bound: maximum number of tree nodes before phase 1 rebuilds
    /// with a larger threshold (BIRCH's "CF-tree is a main-memory
    /// structure").
    pub max_nodes: usize,
    /// Minimum multiplicative threshold growth per rebuild. Values well
    /// above 1 reproduce the overshoot the Data Bubbles paper observes.
    pub threshold_growth: f64,
}

impl Default for BirchParams {
    fn default() -> Self {
        Self {
            branching: 8,
            leaf_capacity: 8,
            initial_threshold: 0.0,
            max_nodes: 4096,
            threshold_growth: 1.3,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { entries: Vec<Cf> },
    Inner { summaries: Vec<Cf>, children: Vec<usize> },
}

/// A CF-tree over `d`-dimensional points.
#[derive(Debug, Clone)]
pub struct CfTree {
    dim: usize,
    params: BirchParams,
    threshold: f64,
    nodes: Vec<Node>,
    root: usize,
    leaf_entry_count: usize,
    rebuild_count: usize,
    points_inserted: u64,
}

impl CfTree {
    /// Creates an empty tree for `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `branching < 2`, or `leaf_capacity < 1`.
    pub fn new(dim: usize, params: BirchParams) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert!(params.branching >= 2, "branching factor must be at least 2");
        assert!(params.leaf_capacity >= 1, "leaf capacity must be at least 1");
        assert!(params.threshold_growth > 1.0, "threshold growth must exceed 1");
        Self {
            dim,
            threshold: params.initial_threshold.max(0.0),
            params,
            nodes: vec![Node::Leaf { entries: Vec::new() }],
            root: 0,
            leaf_entry_count: 0,
            rebuild_count: 0,
            points_inserted: 0,
        }
    }

    /// Current absorption threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of rebuilds performed so far (phase 1 + phase 2).
    pub fn rebuild_count(&self) -> usize {
        self.rebuild_count
    }

    /// Number of leaf entries (sub-cluster summaries).
    pub fn leaf_entry_count(&self) -> usize {
        self.leaf_entry_count
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of points summarized by the tree.
    pub fn points_inserted(&self) -> u64 {
        self.points_inserted
    }

    /// Phase-1 insertion of one data point. Rebuilds with a larger
    /// threshold when the memory bound is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dim` or a coordinate is NaN or ±∞.
    pub fn insert_point(&mut self, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "dimensionality mismatch");
        if let Some(coord) = point.iter().position(|x| !x.is_finite()) {
            panic!("invalid point: {}", CfError::NonFiniteCoordinate { coord });
        }
        if self.nodes.len() > self.params.max_nodes {
            let t = self.next_threshold(None);
            self.rebuild(t);
        }
        self.points_inserted += 1;
        db_obs::counter!("birch.inserts").incr();
        self.insert(CfView { n: 1, mean: point, ssd: 0.0 });
    }

    /// Inserts an already-aggregated CF, e.g. to bulk-merge pre-compressed
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if the CF is empty or of different dimensionality.
    pub fn insert_cf(&mut self, cf: Cf) {
        assert!(!cf.is_empty(), "cannot insert an empty CF");
        assert_eq!(cf.dim(), self.dim, "dimensionality mismatch");
        self.points_inserted += cf.n();
        self.insert(cf.view());
    }

    /// One descent from the root, shared by points and CFs.
    fn insert(&mut self, cf: CfView<'_>) {
        if let Some(sibling) = self.insert_rec(self.root, cf) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let s_old = self.node_summary(old_root);
            let s_new = self.node_summary(sibling);
            self.nodes.push(Node::Inner {
                summaries: vec![s_old, s_new],
                children: vec![old_root, sibling],
            });
            self.root = self.nodes.len() - 1;
        }
    }

    /// Recursive insertion; returns the id of a newly created sibling node
    /// when `node` was split. The squared distance to the closest entry
    /// serves the absorb test and the merges on the way back up, and a
    /// `Cf` is allocated only for a new leaf entry.
    fn insert_rec(&mut self, node: usize, cf: CfView<'_>) -> Option<usize> {
        match &mut self.nodes[node] {
            Node::Leaf { entries } => {
                if let Some((closest, delta_sq)) = closest(entries, cf.mean) {
                    let entry = &mut entries[closest];
                    if entry.merged_diameter_at(cf, delta_sq) <= self.threshold {
                        entry.merge_at(cf, delta_sq);
                        db_obs::counter!("birch.absorbs").incr();
                        return None;
                    }
                }
                entries.push(cf.to_cf());
                self.leaf_entry_count += 1;
                if entries.len() <= self.params.leaf_capacity {
                    return None;
                }
                db_obs::counter!("birch.leaf_splits").incr();
                let all = std::mem::take(entries);
                let tags = vec![(); all.len()];
                let [(keep, _), (spill, _)] = split(all, tags);
                self.nodes[node] = Node::Leaf { entries: keep };
                self.nodes.push(Node::Leaf { entries: spill });
                Some(self.nodes.len() - 1)
            }
            Node::Inner { summaries, children } => {
                let (closest, delta_sq) =
                    closest(summaries, cf.mean).expect("inner nodes are never empty");
                let child = children[closest];
                let Some(sibling) = self.insert_rec(child, cf) else {
                    if let Node::Inner { summaries, .. } = &mut self.nodes[node] {
                        summaries[closest].merge_at(cf, delta_sq);
                    }
                    return None;
                };
                // Recompute the split child's summary, add the new sibling
                // right after it.
                let s_child = self.node_summary(child);
                let s_sib = self.node_summary(sibling);
                let Node::Inner { summaries, children } = &mut self.nodes[node] else {
                    unreachable!()
                };
                summaries[closest] = s_child;
                summaries.insert(closest + 1, s_sib);
                children.insert(closest + 1, sibling);
                if children.len() <= self.params.branching {
                    return None;
                }
                db_obs::counter!("birch.inner_splits").incr();
                let [(ks, kc), (ss, sc)] =
                    split(std::mem::take(summaries), std::mem::take(children));
                self.nodes[node] = Node::Inner { summaries: ks, children: kc };
                self.nodes.push(Node::Inner { summaries: ss, children: sc });
                Some(self.nodes.len() - 1)
            }
        }
    }

    fn node_summary(&self, node: usize) -> Cf {
        let mut acc = Cf::empty(self.dim);
        match &self.nodes[node] {
            Node::Leaf { entries } => {
                for e in entries {
                    acc += e;
                }
            }
            Node::Inner { summaries, .. } => {
                for s in summaries {
                    acc += s;
                }
            }
        }
        acc
    }

    /// All leaf entries, left to right.
    pub fn leaf_entries(&self) -> Vec<Cf> {
        let mut out = Vec::with_capacity(self.leaf_entry_count);
        out.extend(self.leaf_refs().cloned());
        out
    }

    /// References to all leaf entries, left to right.
    fn leaf_refs(&self) -> impl Iterator<Item = &Cf> {
        self.leaves().into_iter().flat_map(|leaf| match &self.nodes[leaf] {
            Node::Leaf { entries } => entries.iter(),
            Node::Inner { .. } => unreachable!(),
        })
    }

    /// Ids of the leaf nodes, left to right.
    fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            match &self.nodes[node] {
                Node::Leaf { .. } => out.push(node),
                Node::Inner { children, .. } => stack.extend(children.iter().rev()),
            }
        }
        out
    }

    /// The threshold-increase heuristic.
    ///
    /// BIRCH's published description leaves the exact rule open; we use the
    /// distribution of nearest-neighbour *merged diameters* over a sample of
    /// leaf entries (the smallest thresholds that would enable new
    /// absorptions). The quantile is chosen so that roughly as many merges
    /// become possible as are needed to reach `target_leaf_entries`
    /// (halving when no target is given, i.e. on phase-1 memory-bound
    /// rebuilds), floored by multiplicative growth so rebuilds always make
    /// progress.
    ///
    /// Transitive chain-merges at the new threshold still make the result
    /// *undershoot* the target, and nearest-neighbour distances grow with
    /// the dimensionality — together reproducing the paper's observation
    /// that BIRCH generates fewer CFs than requested, the more so the
    /// higher the compression rate and dimension.
    fn next_threshold(&self, target_leaf_entries: Option<usize>) -> f64 {
        let count = self.leaf_entry_count;
        let floor = if self.threshold > 0.0 {
            self.threshold * self.params.threshold_growth
        } else {
            f64::MIN_POSITIVE
        };
        if count < 2 {
            return floor.max(1e-12);
        }
        // Sample up to 512 entries; O(s²) nearest-neighbour scan.
        let stride = (count / 512).max(1);
        let sample: Vec<&Cf> = self.leaf_refs().step_by(stride).collect();
        let mut minima: Vec<f64> = Vec::with_capacity(sample.len());
        for (i, a) in sample.iter().enumerate() {
            let mut best = f64::INFINITY;
            for (j, b) in sample.iter().enumerate() {
                if i != j {
                    best = best.min(a.merged_diameter(b));
                }
            }
            if best.is_finite() {
                minima.push(best);
            }
        }
        if minima.is_empty() {
            return floor.max(1e-12);
        }
        minima.sort_by(f64::total_cmp);
        let need = match target_leaf_entries {
            Some(t) if count > t => count - t,
            _ => count / 2,
        };
        let idx = ((need as f64 / count as f64) * minima.len() as f64).ceil() as usize;
        let idx = idx.min(minima.len() - 1);
        minima[idx].max(floor).max(1e-12)
    }

    /// Rebuilds the tree with a new (larger) threshold by reinserting all
    /// leaf entries, left to right, moved out of the old nodes.
    fn rebuild(&mut self, new_threshold: f64) {
        let _span = db_obs::span!("birch.rebuild");
        db_obs::counter!("birch.rebuilds").incr();
        db_obs::log_debug!(
            "rebuild #{}: threshold {:.6e} -> {:.6e}, {} leaf entries",
            self.rebuild_count + 1,
            self.threshold,
            new_threshold,
            self.leaf_entry_count
        );
        let leaves = self.leaves();
        let mut old = std::mem::replace(&mut self.nodes, vec![Node::Leaf { entries: Vec::new() }]);
        self.root = 0;
        self.leaf_entry_count = 0;
        self.threshold = new_threshold;
        self.rebuild_count += 1;
        for leaf in leaves {
            let Node::Leaf { entries } = &mut old[leaf] else { unreachable!() };
            for cf in std::mem::take(entries) {
                self.insert(cf.view());
            }
        }
    }

    /// Phase 2: repeatedly rebuilds with increasing threshold until at most
    /// `max_leaf_entries` leaf entries remain.
    ///
    /// Per the heuristic's nature the final count may substantially
    /// *undershoot* the target (the behaviour the Data Bubbles paper
    /// reports for extreme compression and high dimensionality).
    ///
    /// # Panics
    ///
    /// Panics if `max_leaf_entries == 0`.
    pub fn condense_to(&mut self, max_leaf_entries: usize) {
        unsupervised("condensation", |sup| self.condense_to_supervised(max_leaf_entries, sup));
    }

    /// [`CfTree::condense_to`] under supervision: the supervisor is
    /// consulted before every rebuild round, so a run over budget stops
    /// between rebuilds. On `Err` the tree is mid-condensation and should
    /// be discarded (the supervised pipeline drops it wholesale).
    ///
    /// # Errors
    ///
    /// [`Stop`] when cancelled or past the deadline.
    ///
    /// # Panics
    ///
    /// Panics if `max_leaf_entries == 0`.
    pub fn condense_to_supervised(
        &mut self,
        max_leaf_entries: usize,
        sup: &Supervisor,
    ) -> Result<(), Stop> {
        assert!(max_leaf_entries > 0, "target leaf entry count must be positive");
        let mut stall_guard = 0usize;
        while self.leaf_entry_count > max_leaf_entries {
            sup.check()?;
            let before = self.leaf_entry_count;
            let t = self.next_threshold(Some(max_leaf_entries));
            self.rebuild(t);
            if self.leaf_entry_count >= before {
                // No progress: force faster growth. Terminates because the
                // threshold eventually exceeds the data diameter, collapsing
                // everything into one entry.
                stall_guard += 1;
                let t = self.threshold * 2.0_f64.powi(stall_guard as i32);
                self.rebuild(t);
            } else {
                stall_guard = 0;
            }
        }
        Ok(())
    }
}

/// The entry whose centroid is closest to `mean`, with its squared
/// distance; `None` for no entries.
fn closest(entries: &[Cf], mean: &[f64]) -> Option<(usize, f64)> {
    first_nearest(entries.iter().map(|e| sq_dist(e.mean(), mean)))
}

/// Index and value of the first of `squares` whose square root is least:
/// the entry `min_by` over the distances [`Cf::centroid_distance`] picks.
/// A square root is taken only for a strictly smaller square, which may
/// still round to the same distance.
fn first_nearest(squares: impl Iterator<Item = f64>) -> Option<(usize, f64)> {
    let mut squares = squares.enumerate();
    let mut best = squares.next()?;
    let mut best_dist = best.1.sqrt();
    for (i, sq) in squares {
        if sq.total_cmp(&best.1).is_lt() {
            let dist = sq.sqrt();
            if dist.total_cmp(&best_dist).is_lt() {
                best = (i, sq);
                best_dist = dist;
            }
        }
    }
    Some(best)
}

/// Splits an overfull node's entries in two: the farthest pair of
/// centroids seed the halves, and every other entry joins the closer seed,
/// the first on a tie. `tags` ride along with their entries: child ids in
/// an inner node, `()` in a leaf.
fn split<T>(cfs: Vec<Cf>, tags: Vec<T>) -> [(Vec<Cf>, Vec<T>); 2] {
    debug_assert!(cfs.len() >= 2 && cfs.len() == tags.len());
    let (mut s1, mut s2) = (0usize, 1usize);
    let mut best = -1.0f64;
    for i in 0..cfs.len() {
        for j in (i + 1)..cfs.len() {
            let d = cfs[i].centroid_distance(&cfs[j]);
            if d > best {
                best = d;
                s1 = i;
                s2 = j;
            }
        }
    }
    let sides: Vec<usize> = (0..cfs.len())
        .map(|i| {
            let to_first = i == s1
                || (i != s2
                    && cfs[i].centroid_distance(&cfs[s1]) <= cfs[i].centroid_distance(&cfs[s2]));
            usize::from(!to_first)
        })
        .collect();
    let mut halves = [(Vec::new(), Vec::new()), (Vec::new(), Vec::new())];
    for ((cf, tag), side) in cfs.into_iter().zip(tags).zip(sides) {
        halves[side].0.push(cf);
        halves[side].1.push(tag);
    }
    halves
}

/// Runs BIRCH end to end: phase-1 insertion of every point of `ds`,
/// phase-2 condensation to at most `k` leaf entries, returning the leaf
/// CFs. This is step 1 of the paper's `OPTICS-CF` pipelines.
pub fn birch(ds: &Dataset, k: usize, params: &BirchParams) -> Vec<Cf> {
    unsupervised("birch", |sup| birch_supervised(ds, k, params, sup))
}

/// Cooperative-check cadence for phase-1 insertion (an insert is a tree
/// descent, far heavier than a Welford update).
const INSERT_TICK: u32 = 64;

/// [`birch`] under supervision: phase-1 insertion consults `sup` every
/// `INSERT_TICK` points and phase-2 condensation before every rebuild
/// round. On `Err` the whole tree is dropped — no partial CF set escapes;
/// on `Ok` the result is bit-for-bit the unsupervised one.
///
/// # Errors
///
/// [`Stop`] when cancelled or past the deadline.
pub fn birch_supervised(
    ds: &Dataset,
    k: usize,
    params: &BirchParams,
    sup: &Supervisor,
) -> Result<Vec<Cf>, Stop> {
    let mut tree = CfTree::new(ds.dim(), params.clone());
    {
        let _span = db_obs::span!("birch.phase1_insert");
        let mut ticker = Ticker::new(sup, INSERT_TICK);
        for p in ds.iter() {
            ticker.tick()?;
            tree.insert_point(p);
        }
    }
    {
        let _span = db_obs::span!("birch.phase2_condense");
        tree.condense_to_supervised(k, sup)?;
    }
    db_obs::log_debug!(
        "birch: {} points -> {} leaf entries (target {}, {} rebuilds)",
        tree.points_inserted(),
        tree.leaf_entry_count(),
        k,
        tree.rebuild_count()
    );
    Ok(tree.leaf_entries())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_dataset(nx: usize, ny: usize, step: f64) -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..nx {
            for j in 0..ny {
                ds.push(&[i as f64 * step, j as f64 * step]).unwrap();
            }
        }
        ds
    }

    #[test]
    fn empty_tree_properties() {
        let t = CfTree::new(2, BirchParams::default());
        assert_eq!(t.leaf_entry_count(), 0);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.points_inserted(), 0);
        assert!(t.leaf_entries().is_empty());
    }

    #[test]
    fn zero_threshold_merges_only_duplicates() {
        let mut t = CfTree::new(1, BirchParams { max_nodes: 1 << 20, ..BirchParams::default() });
        for _ in 0..5 {
            t.insert_point(&[1.0]);
        }
        for _ in 0..3 {
            t.insert_point(&[2.0]);
        }
        assert_eq!(t.leaf_entry_count(), 2);
        let entries = t.leaf_entries();
        let mut ns: Vec<u64> = entries.iter().map(Cf::n).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![3, 5]);
    }

    #[test]
    fn total_count_is_preserved_through_splits() {
        let ds = grid_dataset(20, 20, 1.0);
        let mut t = CfTree::new(2, BirchParams::default());
        for p in ds.iter() {
            t.insert_point(p);
        }
        assert_eq!(t.points_inserted(), 400);
        let total: u64 = t.leaf_entries().iter().map(Cf::n).sum();
        assert_eq!(total, 400);
        assert_eq!(t.leaf_entries().len(), t.leaf_entry_count());
    }

    #[test]
    fn entries_respect_threshold_diameter() {
        let ds = grid_dataset(15, 15, 0.5);
        let mut t = CfTree::new(
            2,
            BirchParams { initial_threshold: 1.0, max_nodes: 1 << 20, ..BirchParams::default() },
        );
        for p in ds.iter() {
            t.insert_point(p);
        }
        for e in t.leaf_entries() {
            assert!(e.diameter() <= 1.0 + 1e-9, "diameter {} exceeds T", e.diameter());
        }
    }

    #[test]
    fn condense_reaches_target() {
        let ds = grid_dataset(30, 30, 1.0);
        let mut t = CfTree::new(2, BirchParams::default());
        for p in ds.iter() {
            t.insert_point(p);
        }
        assert!(t.leaf_entry_count() > 50);
        t.condense_to(50);
        assert!(t.leaf_entry_count() <= 50, "got {}", t.leaf_entry_count());
        assert!(t.leaf_entry_count() > 0);
        assert!(t.rebuild_count() > 0);
        let total: u64 = t.leaf_entries().iter().map(Cf::n).sum();
        assert_eq!(total, 900);
    }

    #[test]
    fn condense_to_one_collapses_everything() {
        let ds = grid_dataset(10, 10, 1.0);
        let mut t = CfTree::new(2, BirchParams::default());
        for p in ds.iter() {
            t.insert_point(p);
        }
        t.condense_to(1);
        assert_eq!(t.leaf_entry_count(), 1);
        assert_eq!(t.leaf_entries()[0].n(), 100);
    }

    #[test]
    fn memory_bound_triggers_rebuild() {
        let ds = grid_dataset(40, 40, 3.0);
        let mut t = CfTree::new(2, BirchParams { max_nodes: 64, ..BirchParams::default() });
        for p in ds.iter() {
            t.insert_point(p);
        }
        assert!(t.rebuild_count() > 0, "memory bound never hit");
        assert!(t.threshold() > 0.0);
        let total: u64 = t.leaf_entries().iter().map(Cf::n).sum();
        assert_eq!(total, 1600);
    }

    #[test]
    fn birch_end_to_end_counts_and_bound() {
        let ds = grid_dataset(25, 25, 1.0);
        let cfs = birch(&ds, 40, &BirchParams::default());
        assert!(cfs.len() <= 40);
        assert!(!cfs.is_empty());
        let total: u64 = cfs.iter().map(Cf::n).sum();
        assert_eq!(total, 625);
        // Centroids lie within the data bounding box.
        for cf in &cfs {
            let c = cf.centroid();
            assert!(c[0] >= 0.0 && c[0] <= 24.0);
            assert!(c[1] >= 0.0 && c[1] <= 24.0);
        }
    }

    #[test]
    fn split_separates_farthest_pair() {
        let entries = vec![
            Cf::from_point(&[0.0, 0.0]),
            Cf::from_point(&[0.1, 0.0]),
            Cf::from_point(&[10.0, 0.0]),
            Cf::from_point(&[10.1, 0.0]),
        ];
        let [(a, ids_a), (b, ids_b)] = split(entries, vec![10, 11, 12, 13]);
        // The farthest pair (0 and 3) seed the halves; each other entry
        // joins the closer seed, and the ids ride along.
        assert_eq!((ids_a, ids_b), (vec![10, 11], vec![12, 13]));
        assert_eq!(a[1].mean(), &[0.1, 0.0]);
        assert_eq!(b[0].mean(), &[10.0, 0.0]);
    }

    #[test]
    fn first_nearest_agrees_with_min_by_over_distances() {
        // Consecutive doubles: about half of the neighbouring pairs share a
        // rounded square root, so strictly smaller squares often tie.
        let base = 1.7f64.to_bits();
        let mut rng = db_rng::Rng::seed_from_u64(3);
        for _ in 0..2000 {
            let len = rng.gen_range(1..10);
            let squares: Vec<f64> =
                (0..len).map(|_| f64::from_bits(base + rng.gen_range(0..6) as u64)).collect();
            let want = (0..len)
                .min_by(|&a, &b| squares[a].sqrt().total_cmp(&squares[b].sqrt()))
                .map(|i| (i, squares[i]));
            assert_eq!(first_nearest(squares.iter().copied()), want, "{squares:?}");
        }
        assert_eq!(first_nearest(std::iter::empty()), None);
    }

    #[test]
    #[should_panic(expected = "branching factor")]
    fn rejects_tiny_branching() {
        CfTree::new(2, BirchParams { branching: 1, ..BirchParams::default() });
    }

    #[test]
    #[should_panic(expected = "cannot insert an empty CF")]
    fn rejects_empty_cf() {
        let mut t = CfTree::new(2, BirchParams::default());
        t.insert_cf(Cf::empty(2));
    }

    #[test]
    fn deep_tree_remains_consistent() {
        // Enough points to force multiple levels with small fan-out.
        let ds = grid_dataset(32, 32, 1.0);
        let mut t = CfTree::new(
            2,
            BirchParams {
                branching: 3,
                leaf_capacity: 2,
                max_nodes: 1 << 20,
                ..BirchParams::default()
            },
        );
        for p in ds.iter() {
            t.insert_point(p);
        }
        let total: u64 = t.leaf_entries().iter().map(Cf::n).sum();
        assert_eq!(total, 1024);
        assert!(t.node_count() > 100);
    }
}
