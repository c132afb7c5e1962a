//! Differential test of the walk-order expansion (`WalkOrder` with
//! `weighted_rules` / `bubble_rules`) against the member-list expansion it
//! replaced, kept below as the reference: equal entries, bit for bit, on
//! random orderings and assignments (representatives without members
//! included), on k = 1 and n = 1, under both reach rules, and on an
//! ε-bounded walk whose sub-MinPts bubble has an undefined core-distance,
//! with and without the distance matrix. The member-list adapters
//! `expand_weighted` / `expand_bubbles` are checked against the same
//! reference.

use data_bubbles::pipeline::{
    bubble_rules, expand_bubbles, expand_weighted, weighted_rules, ExpandedEntry, ExpandedOrdering,
    WalkOrder,
};
use data_bubbles::{virtual_reachability, BubbleSpace, DataBubble, DEFAULT_MAX_MATRIX_K};
use db_optics::{optics, ClusterOrdering, OpticsParams, OrderingEntry, UNDEFINED};
use db_rng::Rng;
use db_spatial::id_u32;
use db_supervise::Supervisor;

// ------------------------------------------------------------ reference

/// Member lists of an assignment: object ids ascending per representative.
fn members_of(assignment: &[u32], k: usize) -> Vec<Vec<usize>> {
    let mut members = vec![Vec::new(); k];
    for (i, &a) in assignment.iter().enumerate() {
        members[a as usize].push(i);
    }
    members
}

/// The §5 expansion over member lists.
fn reference_weighted(ordering: &ClusterOrdering, members: &[Vec<usize>]) -> ExpandedOrdering {
    let mut entries = Vec::new();
    for (j, e) in ordering.entries.iter().enumerate() {
        let next_reach = ordering.entries.get(j + 1).map_or(e.core_distance, |n| n.reachability);
        let filler = e.reachability.min(next_reach);
        for (m, &obj) in members[e.id].iter().enumerate() {
            entries.push(ExpandedEntry {
                object: id_u32(obj),
                reachability: if m == 0 { e.reachability } else { filler },
                core_estimate: e.core_distance,
            });
        }
    }
    ExpandedOrdering { entries }
}

/// The §8-step-5 expansion over member lists.
fn reference_bubbles(
    ordering: &ClusterOrdering,
    members: &[Vec<usize>],
    space: &BubbleSpace,
    min_pts: usize,
) -> ExpandedOrdering {
    let mut entries = Vec::new();
    for e in &ordering.entries {
        let bubble = space.bubble(e.id);
        let core = if e.core_distance.is_finite() || bubble.n() >= min_pts as u64 {
            e.core_distance
        } else {
            space.core_distance_unbounded(e.id, min_pts).unwrap_or(e.core_distance)
        };
        let vreach = virtual_reachability(bubble, min_pts, core);
        for (m, &obj) in members[e.id].iter().enumerate() {
            entries.push(ExpandedEntry {
                object: id_u32(obj),
                reachability: if m == 0 { e.reachability } else { vreach },
                core_estimate: vreach,
            });
        }
    }
    ExpandedOrdering { entries }
}

// ------------------------------------------------------------ helpers

fn bits(x: &ExpandedOrdering) -> Vec<(u32, u64, u64)> {
    x.entries
        .iter()
        .map(|e| (e.object, e.reachability.to_bits(), e.core_estimate.to_bits()))
        .collect()
}

/// Checks both reach rules of the walk-order expansion, and both
/// member-list adapters, against the reference on one case.
fn check(
    case: &str,
    ordering: &ClusterOrdering,
    assignment: &[u32],
    space: &BubbleSpace,
    min_pts: usize,
) {
    let sup = Supervisor::unlimited();
    let members = members_of(assignment, ordering.len());
    let walk = WalkOrder::from_assignment(ordering, assignment);

    let want = bits(&reference_weighted(ordering, &members));
    assert_eq!(want.len(), assignment.len(), "{case}: reference lost objects");
    let got = walk.expand(&weighted_rules(ordering), &sup).unwrap();
    assert_eq!(bits(&got), want, "{case}: weighted walk order");
    assert_eq!(bits(&expand_weighted(ordering, &members)), want, "{case}: expand_weighted");

    let want = bits(&reference_bubbles(ordering, &members, space, min_pts));
    let rules = bubble_rules(ordering, space, min_pts, &sup).unwrap();
    assert_eq!(bits(&walk.expand(&rules, &sup).unwrap()), want, "{case}: bubble walk order");
    assert_eq!(
        bits(&expand_bubbles(ordering, &members, space, min_pts)),
        want,
        "{case}: expand_bubbles"
    );
}

/// A reachability or core-distance: mostly finite, sometimes undefined,
/// sometimes tied.
fn distance(rng: &mut Rng) -> f64 {
    match rng.gen_range(0..8) {
        0 => UNDEFINED,
        1 => 1.0,
        _ => rng.gen_f64(0.0, 10.0),
    }
}

/// A random walk over `k` representatives: a permutation of the ids with
/// random reachabilities and core-distances.
fn random_ordering(rng: &mut Rng, k: usize) -> ClusterOrdering {
    let mut ids: Vec<usize> = (0..k).collect();
    rng.shuffle(&mut ids);
    let entries = ids
        .into_iter()
        .map(|id| OrderingEntry {
            id,
            reachability: distance(rng),
            core_distance: distance(rng),
            weight: 1,
        })
        .collect();
    ClusterOrdering { entries, eps: f64::INFINITY, min_pts: 1 }
}

/// `k` bubbles on a line, some below `min_pts` points.
fn random_space(rng: &mut Rng, k: usize) -> BubbleSpace {
    BubbleSpace::new(
        (0..k)
            .map(|_| {
                let n = 1 + rng.gen_range(0..12) as u64;
                DataBubble::new(vec![rng.gen_f64(0.0, 50.0)], n, rng.gen_f64(0.0, 2.0))
            })
            .collect(),
    )
}

// ------------------------------------------------------------ tests

#[test]
fn random_orderings_and_assignments_match_the_member_lists() {
    let mut rng = Rng::seed_from_u64(25);
    for case in 0..200 {
        let k = 1 + rng.gen_range(0..40);
        let n = rng.gen_range(0..400);
        // Half the cases leave about half the representatives empty, as a
        // re-classification after BIRCH can.
        let used = if case % 2 == 0 { k } else { 1 + k / 2 };
        let assignment: Vec<u32> = (0..n).map(|_| id_u32(rng.gen_range(0..used))).collect();
        let ordering = random_ordering(&mut rng, k);
        let space = random_space(&mut rng, k);
        let min_pts = 1 + rng.gen_range(0..10);
        check(&format!("case {case} (k {k}, n {n})"), &ordering, &assignment, &space, min_pts);
    }
}

#[test]
fn one_representative_and_one_object() {
    let mut rng = Rng::seed_from_u64(1);
    let space = random_space(&mut rng, 1);
    for n in [0, 1, 7] {
        let ordering = random_ordering(&mut rng, 1);
        check(&format!("k 1, n {n}"), &ordering, &vec![0; n], &space, 3);
    }
    // n = 1 among several representatives: one run, every other empty.
    let ordering = random_ordering(&mut rng, 5);
    let space = random_space(&mut rng, 5);
    for rep in 0..5 {
        check(&format!("n 1 on rep {rep}"), &ordering, &[rep], &space, 3);
    }
}

#[test]
fn eps_bounded_walk_recovers_the_sub_minpts_core_distance() {
    // Two dense bubbles close together and a far 3-point bubble: with
    // ε = 5 the far bubble has fewer than MinPts points within ε, so the
    // walk leaves its core-distance undefined and the bubble rule must
    // recompute it without the ε bound.
    let min_pts = 6;
    let bubbles = vec![
        DataBubble::new(vec![0.0, 0.0], 200, 2.0),
        DataBubble::new(vec![3.0, 0.0], 150, 2.0),
        DataBubble::new(vec![200.0, 200.0], 3, 0.6),
    ];
    let assignment: Vec<u32> = (0..353)
        .map(|i| {
            if i < 200 {
                0
            } else if i < 350 {
                1
            } else {
                2
            }
        })
        .collect();
    let params = OpticsParams { eps: 5.0, min_pts };
    let mut expansions = Vec::new();
    for with_matrix in [false, true] {
        let mut space = BubbleSpace::new(bubbles.clone());
        if with_matrix {
            space.precompute_matrix(None, DEFAULT_MAX_MATRIX_K);
        }
        assert_eq!(space.has_matrix(), with_matrix);
        let ordering = optics(&space, &params);
        let far = ordering.entries.iter().find(|e| e.id == 2).unwrap();
        assert!(far.core_distance.is_infinite(), "the far bubble must be undefined in the walk");
        assert!(space.core_distance_unbounded(2, min_pts).is_some_and(f64::is_finite));
        check(&format!("ε-bounded, matrix {with_matrix}"), &ordering, &assignment, &space, min_pts);
        let rules = bubble_rules(&ordering, &space, min_pts, &Supervisor::unlimited()).unwrap();
        drop(space);
        let walk = WalkOrder::from_assignment(&ordering, &assignment);
        let expanded = walk.expand(&rules, &Supervisor::unlimited()).unwrap();
        // The far bubble's non-first members get a defined reachability.
        let far_fillers: Vec<f64> =
            expanded.entries.iter().filter(|e| e.object >= 351).map(|e| e.reachability).collect();
        assert!(far_fillers.len() == 2 && far_fillers.iter().all(|r| r.is_finite()));
        expansions.push(bits(&expanded));
    }
    assert_eq!(expansions[0], expansions[1], "the matrix changed the expansion");
}

#[test]
#[should_panic(expected = "missing from the walk")]
fn an_assignment_outside_the_walk_panics() {
    // Representative 0 is assigned, but the walk visits 1 twice instead.
    let entry = OrderingEntry { id: 1, reachability: UNDEFINED, core_distance: 1.0, weight: 1 };
    let ordering = ClusterOrdering { entries: vec![entry; 2], eps: f64::INFINITY, min_pts: 1 };
    WalkOrder::from_assignment(&ordering, &[0]);
}
