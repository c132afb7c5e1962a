//! The [`OpticsSpace`] abstraction and its implementation for plain vector
//! data.

use db_spatial::{Dataset, KdTree, Neighbor, SpatialIndex};
use db_supervise::{Stop, Supervisor};

/// Parameters of an OPTICS run: the generating distance ε and the density
/// threshold MinPts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticsParams {
    /// Generating distance ε. Use `f64::INFINITY` for an unbounded run
    /// (always produces fully defined reachabilities, at O(n²) cost).
    pub eps: f64,
    /// Minimum number of *original* objects for a core object. For
    /// compressed spaces the weights of the summaries count, not the number
    /// of summaries (Def. 7 of the Data Bubbles paper).
    pub min_pts: usize,
}

impl Default for OpticsParams {
    fn default() -> Self {
        Self { eps: f64::INFINITY, min_pts: 5 }
    }
}

/// What the OPTICS walk needs from a collection of objects.
///
/// Implementations exist for plain points ([`PointSpace`]) and for Data
/// Bubbles (in the `data-bubbles` crate).
pub trait OpticsSpace {
    /// Number of objects.
    fn len(&self) -> usize;

    /// Whether there are no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the ε-neighbourhood of object `i` into `out` (cleared first),
    /// *including* object `i` itself at distance 0. Each object appears
    /// once, **in any order the space chooses**; the same output is what
    /// [`OpticsSpace::core_distance`] receives.
    ///
    /// The walk and [`crate::dbscan_core`] do not depend on the order:
    /// each neighbour is offered to the seed list once per query, a seed
    /// is pushed iff `max(core, d) < reach[j]`, and the seed list pops
    /// under the total order [`db_spatial::order::DistId`], so any order
    /// leaves the same seeds and the same cluster ordering.
    fn neighborhood(&self, i: usize, eps: f64, out: &mut Vec<Neighbor>);

    /// Number of original data objects represented by object `i`
    /// (1 for plain points, `n` for summaries).
    fn weight(&self, i: usize) -> u64;

    /// The core-distance of object `i` given its ε-neighbourhood, exactly
    /// as [`OpticsSpace::neighborhood`] produced it (in the space's own
    /// order). `None` encodes ∞ (not a core object).
    fn core_distance(&self, i: usize, min_pts: usize, neighborhood: &[Neighbor]) -> Option<f64>;

    /// Full distance rows for the row walk, or `None` (the default) to walk
    /// with the seed heap over [`OpticsSpace::neighborhood`].
    ///
    /// The walk calls this once, before its first object, under its own
    /// supervisor, so a space may do up-front work here (such as computing
    /// every core-distance from rows it already stores). It then asks for
    /// each object's row exactly once, in walk order. The contract of
    /// [`DistanceRows::row`]`(i)`:
    ///
    /// * the row is **full** (one entry per object) and in **id order**;
    /// * entry `j` is the distance `neighborhood(i, eps, ..)` reports for
    ///   `j`, bit for bit, and `i` itself is at 0, so the row filtered by
    ///   `d <= eps` *is* the ε-neighbourhood;
    /// * the core-distance is `core_distance(i, min_pts, ..)` over that
    ///   neighbourhood, with `None` as [`crate::UNDEFINED`].
    ///
    /// A space with sparse neighbourhoods ([`PointSpace`]) keeps the
    /// default: a full row would cost it O(n) where the index answers in
    /// far less.
    ///
    /// # Errors
    ///
    /// [`Stop`] when `sup` stops the up-front work.
    fn distance_rows(
        &self,
        params: &OpticsParams,
        sup: &Supervisor,
    ) -> Result<Option<Box<dyn DistanceRows + '_>>, Stop> {
        let _ = (params, sup);
        Ok(None)
    }
}

/// Full id-ordered distance rows, handed to the row walk by
/// [`OpticsSpace::distance_rows`] (which states the contract).
pub trait DistanceRows {
    /// Object `i`'s core-distance ([`crate::UNDEFINED`] when it is not a
    /// core object) and its distance to every object, in id order.
    fn row(&mut self, i: usize) -> (f64, &[f64]);
}

/// [`OpticsSpace`] over a plain [`Dataset`]: Definitions 2–3 of the Data
/// Bubbles paper (= the original OPTICS definitions). Its ε-range queries
/// go to a [`KdTree`] over the points, the "index-based access structure"
/// OPTICS assumes.
#[derive(Debug)]
pub struct PointSpace<'a> {
    ds: &'a Dataset,
    index: KdTree,
}

impl<'a> PointSpace<'a> {
    /// Builds the space and its kd-tree.
    pub fn new(ds: &'a Dataset) -> Self {
        Self { ds, index: KdTree::build(ds) }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        self.ds
    }
}

impl OpticsSpace for PointSpace<'_> {
    fn len(&self) -> usize {
        self.ds.len()
    }

    /// Sorted ascending by `(distance, id)`: Definition 3's core distance
    /// below reads the MinPts-th entry.
    fn neighborhood(&self, i: usize, eps: f64, out: &mut Vec<Neighbor>) {
        self.index.range(self.ds, self.ds.point(i), eps, out);
        // Lower bound: the index evaluates at least one distance per
        // returned neighbour; `spatial.dist_evals` has the exact count.
        db_obs::counter!("optics.distance_calls").add(out.len() as u64);
    }

    fn weight(&self, _i: usize) -> u64 {
        1
    }

    fn core_distance(&self, _i: usize, min_pts: usize, neighborhood: &[Neighbor]) -> Option<f64> {
        // Definition 3: MinPts-distance if at least MinPts objects lie in
        // the ε-neighbourhood (the object itself counts), else ∞.
        (neighborhood.len() >= min_pts).then(|| neighborhood[min_pts - 1].dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::from_rows(1, &[&[0.0], &[1.0], &[2.0], &[10.0]]).unwrap()
    }

    #[test]
    fn neighborhood_includes_self_sorted() {
        let d = ds();
        let space = PointSpace::new(&d);
        let mut out = Vec::new();
        space.neighborhood(1, 1.5, &mut out);
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 0, 2]);
        assert_eq!(out[0].dist, 0.0);
    }

    #[test]
    fn core_distance_definition_3() {
        let d = ds();
        let space = PointSpace::new(&d);
        let mut out = Vec::new();
        space.neighborhood(0, 2.5, &mut out); // {0, 1, 2}
                                              // MinPts=3: core-dist = distance to 3rd closest (incl. self) = 2.0.
        assert_eq!(space.core_distance(0, 3, &out), Some(2.0));
        // MinPts=4: only 3 objects in the neighbourhood -> not core.
        assert_eq!(space.core_distance(0, 4, &out), None);
        // MinPts=1: the object itself, distance 0.
        assert_eq!(space.core_distance(0, 1, &out), Some(0.0));
    }

    #[test]
    fn weight_is_one_for_points() {
        let d = ds();
        let space = PointSpace::new(&d);
        assert_eq!(space.weight(0), 1);
        assert_eq!(space.len(), 4);
        assert!(!space.is_empty());
        assert_eq!(space.dataset().len(), 4);
    }
}
