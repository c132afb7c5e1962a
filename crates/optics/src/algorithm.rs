//! The OPTICS walk (Ankerst et al. 1999, Figures 5–7), generic over
//! [`OpticsSpace`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use db_spatial::order::{total_key, DistId};
use db_spatial::{Dataset, Neighbor};
use db_supervise::{unsupervised, Stop, Supervisor, Ticker};

use crate::ordering::{ClusterOrdering, OrderingEntry, UNDEFINED};
use crate::space::{DistanceRows, OpticsParams, OpticsSpace, PointSpace};

/// Cooperative-check cadence of the walk: every processed object costs a
/// neighbourhood query or a row pass (O(k) either way), so consulting the
/// supervisor every 16 objects reacts well within the 50ms target.
const WALK_TICK: u32 = 16;

/// The `reach` value of a processed object. No reachability is below a
/// NaN, so seed updates pass over processed objects without a test of
/// their own, and under [`DistId`] a NaN sorts above every unprocessed
/// object's reach (∞ included).
const PROCESSED: f64 = f64::NAN;

/// Runs OPTICS over any [`OpticsSpace`], producing the cluster ordering.
///
/// Objects are visited in id order when a fresh walk start is needed, so
/// the result is fully deterministic.
///
/// # Panics
///
/// Panics if `min_pts == 0` or `eps < 0`.
pub fn optics<S: OpticsSpace>(space: &S, params: &OpticsParams) -> ClusterOrdering {
    unsupervised("OPTICS walk", |sup| optics_supervised(space, params, sup))
}

/// [`optics`] under supervision: the walk consults `sup` every
/// `WALK_TICK` processed objects, and a space's up-front row work
/// ([`OpticsSpace::distance_rows`]) runs under `sup` too. On `Err` the
/// partial ordering is discarded; on `Ok` the result is bit-for-bit the
/// unsupervised one.
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
    let mut ordering = ClusterOrdering {
        entries: Vec::with_capacity(space.len()),
        eps: params.eps,
        min_pts: params.min_pts,
    };
    let mut tally = WalkTally::default();
    let walked = walk(space, params, sup, &mut ordering.entries, &mut tally);
    tally.flush();
    walked?;
    db_obs::log_debug!(
        "walk done: {} objects ordered (eps {:.3e}, MinPts {})",
        ordering.entries.len(),
        params.eps,
        params.min_pts
    );
    Ok(ordering)
}

/// The walk (Ankerst et al., Figure 5), one object per iteration: record
/// the object, offer its neighbours `max(core, d)` as seeds, and move on
/// to the least seed under [`DistId`], or, when no seed is left, to the
/// lowest unprocessed id as a fresh walk start.
fn walk<S: OpticsSpace>(
    space: &S,
    params: &OpticsParams,
    sup: &Supervisor,
    entries: &mut Vec<OrderingEntry>,
    tally: &mut WalkTally,
) -> Result<(), Stop> {
    let mut seeds = match space.distance_rows(params, sup)? {
        Some(rows) => Seeds::Rows(rows),
        None => Seeds::Heap { heap: BinaryHeap::new(), neighbors: Vec::new(), next_start: 0 },
    };
    let mut ticker = Ticker::new(sup, WALK_TICK);
    // Best reachability so far per object (the seed list's decrease-key
    // state), PROCESSED once the object is ordered.
    let mut reach = vec![UNDEFINED; space.len()];
    let mut next = (!reach.is_empty()).then_some(0);
    while let Some(i) = next {
        ticker.tick()?;
        let reachability = std::mem::replace(&mut reach[i], PROCESSED);
        let core_distance;
        (core_distance, next) = seeds.expand(space, params, i, &mut reach, tally);
        entries.push(OrderingEntry { id: i, reachability, core_distance, weight: space.weight(i) });
    }
    Ok(())
}

/// The walk's seed list: the only thing its two paths do differently.
enum Seeds<'a> {
    /// ε-neighbourhood queries feeding a min-heap of `(reach, id)` seeds
    /// under [`DistId`], with lazy deletion of stale entries. Walk starts
    /// come from `next_start`, below which every object is processed.
    Heap { heap: BinaryHeap<Reverse<DistId>>, neighbors: Vec<Neighbor>, next_start: usize },
    /// Full distance rows ([`OpticsSpace::distance_rows`]): one pass over
    /// the row lowers `reach` and takes the [`DistId`] argmin of
    /// `(reach[j], j)` over the unprocessed objects. The heap pops exactly
    /// that argmin: its live entries are the finite reaches, and when none
    /// is left every unprocessed reach is ∞, where the argmin is the
    /// lowest unprocessed id, the next walk start.
    Rows(Box<dyn DistanceRows + 'a>),
}

impl Seeds<'_> {
    /// Expands processed object `i` into the seed list and returns its
    /// core-distance ([`UNDEFINED`] when not core) and the next object.
    fn expand<S: OpticsSpace>(
        &mut self,
        space: &S,
        params: &OpticsParams,
        i: usize,
        reach: &mut [f64],
        tally: &mut WalkTally,
    ) -> (f64, Option<usize>) {
        tally.objects += 1;
        match self {
            Seeds::Heap { heap, neighbors, next_start } => {
                space.neighborhood(i, params.eps, neighbors);
                db_obs::histogram!("optics.neighborhood_size").record(neighbors.len() as f64);
                let core = space.core_distance(i, params.min_pts, neighbors);
                if let Some(core) = core {
                    // Any neighbourhood order leaves the same seeds (see
                    // `OpticsSpace::neighborhood`).
                    for nb in neighbors.iter() {
                        let new_reach = core.max(nb.dist);
                        if new_reach < reach[nb.id] {
                            reach[nb.id] = new_reach;
                            heap.push(Reverse(DistId(new_reach, nb.id)));
                            tally.seed_updates += 1;
                        }
                    }
                }
                let next = loop {
                    match heap.pop() {
                        // Live iff unprocessed and not since undercut.
                        Some(Reverse(DistId(r, id))) if r <= reach[id] => break Some(id),
                        Some(_) => tally.stale_seed_skips += 1,
                        None => {
                            while reach.get(*next_start).is_some_and(|r| r.is_nan()) {
                                *next_start += 1;
                            }
                            break (*next_start < reach.len()).then_some(*next_start);
                        }
                    }
                };
                (core.unwrap_or(UNDEFINED), next)
            }
            Seeds::Rows(rows) => {
                let (core, row) = rows.row(i);
                assert_eq!(row.len(), reach.len(), "a distance row holds one entry per object");
                let eps = params.eps;
                let mut within = 0usize;
                let (mut best_key, mut best) = (i64::MAX, 0);
                for (j, (&d, r)) in row.iter().zip(reach.iter_mut()).enumerate() {
                    // A non-core object's core is ∞, which lowers nothing;
                    // a processed object's reach is NaN, which nothing
                    // lowers and every unprocessed reach beats.
                    let new_reach = core.max(d);
                    if d <= eps {
                        within += 1;
                        if new_reach < *r {
                            *r = new_reach;
                            tally.seed_updates += 1;
                        }
                    }
                    // The argmin under `DistId`: keys order reaches as
                    // `total_cmp` does, and ids ascend, so a tie keeps the
                    // earlier id.
                    let key = total_key(*r);
                    if key < best_key {
                        (best_key, best) = (key, j);
                    }
                }
                db_obs::histogram!("optics.neighborhood_size").record(within as f64);
                (core, (best_key < total_key(PROCESSED)).then_some(best))
            }
        }
    }
}

/// The walk's counters, tallied per object and added to the registry
/// once per walk, on the stop path too (DESIGN §7).
#[derive(Default)]
struct WalkTally {
    /// Objects processed: one neighbourhood query (or row) and one
    /// core-distance each.
    objects: u64,
    /// Reachabilities lowered.
    seed_updates: u64,
    /// Heap entries popped after being undercut or processed (0 on rows).
    stale_seed_skips: u64,
}

impl WalkTally {
    fn flush(&self) {
        db_obs::counter!("optics.neighborhood_queries").add(self.objects);
        db_obs::counter!("optics.core_distance_queries").add(self.objects);
        db_obs::counter!("optics.seed_updates").add(self.seed_updates);
        db_obs::counter!("optics.stale_seed_skips").add(self.stale_seed_skips);
    }
}

/// Convenience wrapper: OPTICS over a plain dataset, its range queries
/// answered by a kd-tree ([`PointSpace`]).
pub fn optics_points(ds: &Dataset, params: &OpticsParams) -> ClusterOrdering {
    optics(&PointSpace::new(ds), params)
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
    optics_supervised(&PointSpace::new(ds), params, sup)
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

    /// Points on a line with their full distance matrix: the heap walk
    /// over its neighbourhoods, or the row walk when `rows` is set.
    struct Line {
        dists: Vec<Vec<f64>>,
        rows: bool,
    }

    impl Line {
        fn new(xs: &[f64], rows: bool) -> Self {
            let dists = xs.iter().map(|a| xs.iter().map(|b| (a - b).abs()).collect()).collect();
            Self { dists, rows }
        }
    }

    impl OpticsSpace for Line {
        fn len(&self) -> usize {
            self.dists.len()
        }

        /// Id order, like a row filtered by `d <= eps`.
        fn neighborhood(&self, i: usize, eps: f64, out: &mut Vec<Neighbor>) {
            out.clear();
            let near = self.dists[i].iter().enumerate().filter(|&(_, &d)| d <= eps);
            out.extend(near.map(|(j, &d)| Neighbor::new(j, d)));
        }

        fn weight(&self, _i: usize) -> u64 {
            1
        }

        /// Definition 3 over a neighbourhood in any order.
        fn core_distance(&self, _i: usize, min_pts: usize, nbs: &[Neighbor]) -> Option<f64> {
            let mut d: Vec<f64> = nbs.iter().map(|nb| nb.dist).collect();
            d.sort_by(f64::total_cmp);
            d.get(min_pts - 1).copied()
        }

        fn distance_rows(
            &self,
            params: &OpticsParams,
            _sup: &Supervisor,
        ) -> Result<Option<Box<dyn DistanceRows + '_>>, Stop> {
            if !self.rows {
                return Ok(None);
            }
            let mut nbs = Vec::new();
            let cores = (0..self.len())
                .map(|i| {
                    self.neighborhood(i, params.eps, &mut nbs);
                    self.core_distance(i, params.min_pts, &nbs).unwrap_or(UNDEFINED)
                })
                .collect();
            Ok(Some(Box::new(LineRows { line: self, cores })))
        }
    }

    struct LineRows<'a> {
        line: &'a Line,
        cores: Vec<f64>,
    }

    impl DistanceRows for LineRows<'_> {
        fn row(&mut self, i: usize) -> (f64, &[f64]) {
            (self.cores[i], &self.line.dists[i])
        }
    }

    fn bits(o: &ClusterOrdering) -> Vec<(usize, u64, u64, u64)> {
        let e = o.entries.iter();
        e.map(|e| (e.id, e.reachability.to_bits(), e.core_distance.to_bits(), e.weight)).collect()
    }

    #[test]
    fn row_walk_equals_heap_walk() {
        let corpora: [&[f64]; 6] = [
            &[],
            &[3.0],
            &[0.0, 2.0],
            // Exact ties everywhere: duplicates and equal gaps.
            &[5.0, 0.0, 1.0, 1.0, 0.0, 2.0, 5.0, 6.0, 1.0, 3.0, 4.0, 4.0],
            // Three components that a finite ε disconnects, ids interleaved.
            &[0.0, 100.0, 0.5, 200.0, 100.5, 1.0, 200.5, 101.0, 1.5, 300.0],
            &[9.0, 8.0, 7.0, 1.0, 2.0, 3.0, 7.5, 1.5, 8.5, 2.5],
        ];
        for xs in corpora {
            let (heap, rows) = (Line::new(xs, false), Line::new(xs, true));
            for eps in [0.0, 0.5, 1.0, 2.0, 50.0, f64::INFINITY] {
                for min_pts in [1, 2, 3, 5, xs.len() + 1] {
                    let p = OpticsParams { eps, min_pts };
                    let want = optics(&heap, &p);
                    assert_eq!(
                        bits(&optics(&rows, &p)),
                        bits(&want),
                        "{xs:?} eps={eps} mp={min_pts}"
                    );
                    assert_eq!(want.len(), xs.len());
                }
            }
        }
    }

    #[test]
    fn point_space_keeps_the_heap() {
        let ds = line_clusters();
        let space = PointSpace::new(&ds);
        let rows = space.distance_rows(&OpticsParams::default(), &Supervisor::unlimited());
        assert!(rows.expect("no up-front work").is_none());
    }
}
