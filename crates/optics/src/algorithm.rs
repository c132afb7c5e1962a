//! The OPTICS walk (Ankerst et al. 1999, Figures 5–7), generic over
//! [`OpticsSpace`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use db_spatial::order::DistId;
use db_spatial::{Dataset, Neighbor};
use db_supervise::{Stop, Supervisor, Ticker};

use crate::ordering::{ClusterOrdering, OrderingEntry, UNDEFINED};
use crate::space::{OpticsParams, OpticsSpace, PointSpace};

/// Cooperative-check cadence of the walk: every processed object costs a
/// neighbourhood query (O(k) or a matrix-row lookup), so consulting the
/// supervisor every 16 objects reacts well within the 50ms target.
const WALK_TICK: u32 = 16;

// Seed-list entries are (reachability, id) pairs under the shared total
// order [`DistId`]; the heap is a min-heap over it, with lazy deletion
// of stale entries.

/// Runs OPTICS over any [`OpticsSpace`], producing the cluster ordering.
///
/// Objects are visited in id order when a fresh walk start is needed, so
/// the result is fully deterministic.
///
/// # Panics
///
/// Panics if `min_pts == 0` or `eps < 0`.
pub fn optics<S: OpticsSpace>(space: &S, params: &OpticsParams) -> ClusterOrdering {
    match optics_supervised(space, params, &Supervisor::unlimited()) {
        Ok(ordering) => ordering,
        Err(stop) => panic!("unsupervised OPTICS walk stopped: {stop}"),
    }
}

/// [`optics`] under supervision: the walk consults `sup` every
/// [`WALK_TICK`] processed objects. On `Err` the partial ordering is
/// discarded; on `Ok` the result is bit-for-bit the unsupervised one.
///
/// # Errors
///
/// [`Stop`] when cancelled or past the deadline.
///
/// # Panics
///
/// Panics if `min_pts == 0` or `eps < 0`.
pub fn optics_supervised<S: OpticsSpace>(
    space: &S,
    params: &OpticsParams,
    sup: &Supervisor,
) -> Result<ClusterOrdering, Stop> {
    assert!(params.min_pts >= 1, "MinPts must be at least 1");
    assert!(params.eps >= 0.0, "eps must be non-negative");
    let _span = db_obs::span!("optics.walk");
    let mut ticker = Ticker::new(sup, WALK_TICK);
    let n = space.len();
    let mut ordering = ClusterOrdering {
        entries: Vec::with_capacity(n),
        eps: params.eps,
        min_pts: params.min_pts,
    };
    let mut processed = vec![false; n];
    // Best reachability seen so far per object; used both as decrease-key
    // state and to detect stale heap entries.
    let mut reach = vec![UNDEFINED; n];
    let mut heap: BinaryHeap<Reverse<DistId>> = BinaryHeap::new();
    let mut neighbors: Vec<Neighbor> = Vec::new();

    let process = |i: usize,
                   reachability: f64,
                   processed: &mut Vec<bool>,
                   reach: &mut Vec<f64>,
                   heap: &mut BinaryHeap<Reverse<DistId>>,
                   neighbors: &mut Vec<Neighbor>,
                   ordering: &mut ClusterOrdering| {
        processed[i] = true;
        space.neighborhood(i, params.eps, neighbors);
        db_obs::counter!("optics.neighborhood_queries").incr();
        db_obs::histogram!("optics.neighborhood_size").record(neighbors.len() as f64);
        let core = space.core_distance(i, params.min_pts, neighbors);
        db_obs::counter!("optics.core_distance_queries").incr();
        ordering.entries.push(OrderingEntry {
            id: i,
            reachability,
            core_distance: core.unwrap_or(UNDEFINED),
            weight: space.weight(i),
        });
        if let Some(core) = core {
            // Update the seed list with every unprocessed neighbour, in
            // whatever order the space returned them (any order leaves the
            // same seeds; see `OpticsSpace::neighborhood`).
            for nb in neighbors.iter() {
                if processed[nb.id] {
                    continue;
                }
                let new_reach = core.max(nb.dist);
                if new_reach < reach[nb.id] {
                    reach[nb.id] = new_reach;
                    heap.push(Reverse(DistId(new_reach, nb.id)));
                    db_obs::counter!("optics.seed_updates").incr();
                }
            }
        }
    };

    for start in 0..n {
        if processed[start] {
            continue;
        }
        ticker.tick()?;
        // A fresh walk start has undefined reachability.
        process(
            start,
            UNDEFINED,
            &mut processed,
            &mut reach,
            &mut heap,
            &mut neighbors,
            &mut ordering,
        );
        // Drain the seed list (lazy deletion of stale entries).
        while let Some(Reverse(DistId(r, id))) = heap.pop() {
            if processed[id] || r > reach[id] {
                db_obs::counter!("optics.stale_seed_skips").incr();
                continue;
            }
            ticker.tick()?;
            process(id, r, &mut processed, &mut reach, &mut heap, &mut neighbors, &mut ordering);
        }
    }
    db_obs::log_debug!(
        "walk done: {} objects ordered (eps {:.3e}, MinPts {})",
        ordering.entries.len(),
        params.eps,
        params.min_pts
    );
    Ok(ordering)
}

/// Convenience wrapper: OPTICS over a plain dataset with an automatically
/// selected spatial index.
pub fn optics_points(ds: &Dataset, params: &OpticsParams) -> ClusterOrdering {
    let eps_hint = params.eps.is_finite().then_some(params.eps);
    let space = PointSpace::new(ds, eps_hint);
    optics(&space, params)
}

/// [`optics_points`] under supervision (see [`optics_supervised`]).
///
/// # Errors
///
/// [`Stop`] when cancelled or past the deadline.
pub fn optics_points_supervised(
    ds: &Dataset,
    params: &OpticsParams,
    sup: &Supervisor,
) -> Result<ClusterOrdering, Stop> {
    let eps_hint = params.eps.is_finite().then_some(params.eps);
    let space = PointSpace::new(ds, eps_hint);
    optics_supervised(&space, params, sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::extract_dbscan;

    fn line_clusters() -> Dataset {
        // Cluster around 0 (0.0..0.9), cluster around 50 (50.0..50.9),
        // one isolated point at 200.
        let mut ds = Dataset::new(1).unwrap();
        for i in 0..10 {
            ds.push(&[i as f64 * 0.1]).unwrap();
        }
        for i in 0..10 {
            ds.push(&[50.0 + i as f64 * 0.1]).unwrap();
        }
        ds.push(&[200.0]).unwrap();
        ds
    }

    #[test]
    fn ordering_is_a_permutation() {
        let ds = line_clusters();
        let o = optics_points(&ds, &OpticsParams { eps: 5.0, min_pts: 3 });
        assert_eq!(o.len(), ds.len());
        let mut ids: Vec<usize> = o.entries.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..ds.len()).collect::<Vec<_>>());
    }

    #[test]
    fn clusters_form_contiguous_walk_segments() {
        let ds = line_clusters();
        let o = optics_points(&ds, &OpticsParams { eps: 5.0, min_pts: 3 });
        // Objects 0..10 must appear consecutively, as must 10..20.
        let walk: Vec<usize> = o.entries.iter().map(|e| e.id).collect();
        let first_cluster: Vec<bool> = walk.iter().map(|&id| id < 10).collect();
        let transitions = first_cluster.windows(2).filter(|w| w[0] != w[1]).count();
        // One block of cluster-0 ids, one block of cluster-1 ids, the
        // isolated point somewhere at a boundary: at most 2 transitions.
        assert!(transitions <= 2, "walk interleaves clusters: {walk:?}");
    }

    #[test]
    fn reachabilities_are_low_inside_high_between() {
        let ds = line_clusters();
        let o = optics_points(&ds, &OpticsParams { eps: f64::INFINITY, min_pts: 3 });
        // Exactly one walk start (first entry) with undefined reachability
        // because eps=∞ keeps everything connected.
        let undefined = o.entries.iter().filter(|e| !e.has_reachability()).count();
        assert_eq!(undefined, 1);
        // There must be a jump ≥ 49 somewhere (between the clusters) and
        // another ≥ 149 (to the isolated point).
        let mut finite: Vec<f64> =
            o.entries.iter().filter(|e| e.has_reachability()).map(|e| e.reachability).collect();
        finite.sort_by(f64::total_cmp);
        let top2 = &finite[finite.len() - 2..];
        assert!(top2[0] > 40.0 && top2[1] > 140.0, "jumps missing: {top2:?}");
        // Within-cluster reachabilities are tiny.
        let small = finite.iter().filter(|&&r| r < 0.5).count();
        assert!(small >= 17, "expected mostly small reachabilities, got {small}");
    }

    #[test]
    fn extract_dbscan_recovers_ground_truth() {
        let ds = line_clusters();
        let o = optics_points(&ds, &OpticsParams { eps: 5.0, min_pts: 3 });
        let labels = extract_dbscan(&o, 0.5, ds.len());
        // Points 0..10 share a label, 10..20 share another, 20 is noise.
        assert!(labels[..10].iter().all(|&l| l == labels[0] && l >= 0));
        assert!(labels[10..20].iter().all(|&l| l == labels[10] && l >= 0));
        assert_ne!(labels[0], labels[10]);
        assert_eq!(labels[20], -1);
    }

    #[test]
    fn isolated_points_have_undefined_core_distance() {
        let ds = line_clusters();
        let o = optics_points(&ds, &OpticsParams { eps: 1.0, min_pts: 3 });
        let iso = o.entries.iter().find(|e| e.id == 20).unwrap();
        assert!(!iso.is_core());
        assert!(!iso.has_reachability());
    }

    #[test]
    fn single_object_space() {
        let ds = Dataset::from_rows(2, &[&[1.0, 1.0]]).unwrap();
        let o = optics_points(&ds, &OpticsParams { eps: 1.0, min_pts: 1 });
        assert_eq!(o.len(), 1);
        assert_eq!(o.entries[0].id, 0);
        assert!(!o.entries[0].has_reachability());
        assert_eq!(o.entries[0].core_distance, 0.0); // its own 1-distance
    }

    #[test]
    fn empty_space() {
        let ds = Dataset::new(2).unwrap();
        let o = optics_points(&ds, &OpticsParams::default());
        assert!(o.is_empty());
    }

    #[test]
    fn min_pts_one_makes_everything_core() {
        let ds = line_clusters();
        let o = optics_points(&ds, &OpticsParams { eps: 1.0, min_pts: 1 });
        assert!(o.entries.iter().all(|e| e.core_distance == 0.0));
    }

    #[test]
    #[should_panic(expected = "MinPts")]
    fn zero_min_pts_panics() {
        let ds = line_clusters();
        optics_points(&ds, &OpticsParams { eps: 1.0, min_pts: 0 });
    }

    #[test]
    fn deterministic() {
        let ds = line_clusters();
        let p = OpticsParams { eps: 5.0, min_pts: 3 };
        assert_eq!(optics_points(&ds, &p), optics_points(&ds, &p));
    }

    #[test]
    fn walk_respects_priority_of_closest_seed() {
        // Three points: 0 at x=0, 1 at x=1, 2 at x=3. Starting at 0 with
        // MinPts=2, the walk must visit 1 before 2.
        let ds = Dataset::from_rows(1, &[&[0.0], &[1.0], &[3.0]]).unwrap();
        let o = optics_points(&ds, &OpticsParams { eps: 10.0, min_pts: 2 });
        let walk: Vec<usize> = o.entries.iter().map(|e| e.id).collect();
        assert_eq!(walk, vec![0, 1, 2]);
        // Reachability of 1 w.r.t. 0: max(core-dist(0)=1, d=1) = 1.
        assert_eq!(o.entries[1].reachability, 1.0);
        // Reachability of 2: from 1, max(core-dist(1)=1, d=2) = 2.
        assert_eq!(o.entries[2].reachability, 2.0);
    }
}
