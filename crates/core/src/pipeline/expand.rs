//! The recovery step: expanding a cluster ordering over representatives
//! back into an ordering over *all* original objects (paper §5 for the
//! weighted variants, §8 step 5 for the bubble variants).

use db_optics::ClusterOrdering;
use db_spatial::id_u32;
use db_supervise::{unsupervised, Stop, Supervisor, Ticker};

use crate::distance::virtual_reachability;
use crate::space::BubbleSpace;

/// Cooperative-check cadence of the expansion loops. A weighted step is a
/// cheap member copy; a bubble step may recompute an unbounded
/// core-distance (O(k)); every 64 representatives keeps both well inside
/// the 50ms reaction target.
const EXPAND_TICK: u32 = 64;

/// One original object's position in the expanded cluster ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpandedEntry {
    /// Original object id.
    pub object: u32,
    /// The plotted reachability value for this position.
    pub reachability: f64,
    /// A core-distance estimate for this position (used by flat cluster
    /// extraction to decide whether a jump starts a cluster).
    pub core_estimate: f64,
}

/// A cluster ordering over all original objects, produced by replacing each
/// representative with the set of objects classified to it. Solves the
/// *lost objects* and *size distortion* problems by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandedOrdering {
    /// Positions in walk order; `entries.len()` = number of original
    /// objects.
    pub entries: Vec<ExpandedEntry>,
}

impl ExpandedOrdering {
    /// Number of original objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The plotted reachability values in order (the reachability plot of
    /// the full database).
    pub fn reachabilities(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.reachability).collect()
    }

    /// The original object ids in cluster order (the paper's final "sort
    /// the original database according to the position numbers").
    pub fn order(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.object).collect()
    }

    /// Flat cluster extraction at cut level `eps_cut`, returning one label
    /// per *original object id* (`-1` = noise). Same jump logic as
    /// [`db_optics::extract_dbscan`].
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must take the jump branch
    pub fn extract_dbscan(&self, eps_cut: f64) -> Vec<i32> {
        let mut labels = vec![-1i32; self.entries.len()];
        let mut cluster = -1i32;
        for e in &self.entries {
            // `!(r <= cut)` so a NaN reachability reads as a jump instead of
            // silently attaching to the current cluster (see the db-optics
            // version for the full rationale).
            if !(e.reachability <= eps_cut) {
                if e.core_estimate <= eps_cut {
                    cluster += 1;
                    labels[e.object as usize] = cluster;
                } else {
                    labels[e.object as usize] = -1;
                }
            } else if cluster >= 0 {
                labels[e.object as usize] = cluster;
            } else {
                cluster += 1;
                labels[e.object as usize] = cluster;
            }
        }
        labels
    }
}

/// §5 expansion (for `OPTICS-SA/CF weighted`): representative `s_j` at walk
/// position `j` is replaced by its members; the first member keeps
/// `s_j.reachDist`, every other member gets
/// `min(s_j.reachDist, s_{j+1}.reachDist)` — "the reachability we need to
/// first get to `s_j` [… then] approximately the same as the reachability
/// of the next object in the cluster ordering of the sample".
///
/// The core estimate of every member is the representative's
/// core-distance.
///
/// # Panics
///
/// Panics if `members.len()` differs from the number of representatives.
pub fn expand_weighted(ordering: &ClusterOrdering, members: &[Vec<usize>]) -> ExpandedOrdering {
    unsupervised("weighted expansion", |sup| expand_weighted_supervised(ordering, members, sup))
}

/// [`expand_weighted`] under supervision: consults `sup` every
/// `EXPAND_TICK` representatives. On `Err` the partial expansion is
/// discarded; on `Ok` the result is bit-for-bit the unsupervised one.
///
/// # Errors
///
/// [`Stop`] when cancelled or past the deadline.
///
/// # Panics
///
/// Panics if `members.len()` differs from the number of representatives.
pub fn expand_weighted_supervised(
    ordering: &ClusterOrdering,
    members: &[Vec<usize>],
    sup: &Supervisor,
) -> Result<ExpandedOrdering, Stop> {
    assert_eq!(members.len(), ordering.len(), "one member list per representative");
    let total: usize = members.iter().map(Vec::len).sum();
    assert!(total <= u32::MAX as usize, "object ids exceed the u32 expansion range");
    let mut ticker = Ticker::new(sup, EXPAND_TICK);
    let mut entries = Vec::with_capacity(total);
    for (j, e) in ordering.entries.iter().enumerate() {
        ticker.tick()?;
        // The paper leaves s_{j+1} undefined for the last representative;
        // its core-distance is the natural in-cluster estimate there.
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
    debug_assert_eq!(entries.len(), total);
    Ok(ExpandedOrdering { entries })
}

/// §8-step-5 expansion (for `OPTICS-SA/CF Bubbles`): the first member of
/// bubble `B_j` keeps the bubble's reachDist (marking the jump to `B_j`),
/// the remaining `n−1` members get the bubble's *virtual reachability*
/// (Definition 9).
///
/// # Panics
///
/// Panics if `members.len()` differs from the number of bubbles.
pub fn expand_bubbles(
    ordering: &ClusterOrdering,
    members: &[Vec<usize>],
    space: &BubbleSpace,
    min_pts: usize,
) -> ExpandedOrdering {
    unsupervised("bubble expansion", |sup| {
        expand_bubbles_supervised(ordering, members, space, min_pts, sup)
    })
}

/// [`expand_bubbles`] under supervision: consults `sup` every
/// `EXPAND_TICK` bubbles. On `Err` the partial expansion is discarded;
/// on `Ok` the result is bit-for-bit the unsupervised one.
///
/// # Errors
///
/// [`Stop`] when cancelled or past the deadline.
///
/// # Panics
///
/// Panics if `members.len()` differs from the number of bubbles.
pub fn expand_bubbles_supervised(
    ordering: &ClusterOrdering,
    members: &[Vec<usize>],
    space: &BubbleSpace,
    min_pts: usize,
    sup: &Supervisor,
) -> Result<ExpandedOrdering, Stop> {
    assert_eq!(members.len(), ordering.len(), "one member list per bubble");
    let total: usize = members.iter().map(Vec::len).sum();
    assert!(total <= u32::MAX as usize, "object ids exceed the u32 expansion range");
    let mut ticker = Ticker::new(sup, EXPAND_TICK);
    let mut entries = Vec::with_capacity(total);
    for e in &ordering.entries {
        ticker.tick()?;
        let bubble = space.bubble(e.id);
        // Def. 9's second branch wants *the* core-distance of a sub-MinPts
        // bubble, but an ε-bounded walk leaves `core_distance` UNDEFINED
        // (∞) when too few points fell inside ε. Recompute it with
        // unbounded ε in that case; when the walk's value is finite (or
        // the bubble answers from its own nndist) nothing changes.
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
    debug_assert_eq!(entries.len(), total);
    Ok(ExpandedOrdering { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bubble::DataBubble;
    use db_optics::{ClusterOrdering, OrderingEntry, UNDEFINED};

    fn rep_ordering() -> ClusterOrdering {
        ClusterOrdering {
            entries: vec![
                OrderingEntry { id: 0, reachability: UNDEFINED, core_distance: 0.5, weight: 3 },
                OrderingEntry { id: 2, reachability: 0.8, core_distance: 0.4, weight: 2 },
                OrderingEntry { id: 1, reachability: 7.0, core_distance: 0.9, weight: 2 },
            ],
            eps: f64::INFINITY,
            min_pts: 2,
        }
    }

    fn members() -> Vec<Vec<usize>> {
        // Representative 0 -> objects {0, 3, 4}; 1 -> {1, 6}; 2 -> {2, 5}.
        vec![vec![0, 3, 4], vec![1, 6], vec![2, 5]]
    }

    #[test]
    fn weighted_expansion_layout() {
        let x = expand_weighted(&rep_ordering(), &members());
        assert_eq!(x.len(), 7);
        // Walk: rep0's members, rep2's members, rep1's members.
        assert_eq!(x.order(), vec![0, 3, 4, 2, 5, 1, 6]);
        // First member of rep 0 keeps its (undefined) reachability.
        assert!(x.entries[0].reachability.is_infinite());
        // Fillers of rep 0: min(inf, 0.8) = 0.8.
        assert_eq!(x.entries[1].reachability, 0.8);
        assert_eq!(x.entries[2].reachability, 0.8);
        // Rep 2's first member keeps 0.8; filler min(0.8, 7.0) = 0.8.
        assert_eq!(x.entries[3].reachability, 0.8);
        assert_eq!(x.entries[4].reachability, 0.8);
        // Rep 1: jump 7.0; no next rep, so the filler falls back to the
        // core-distance: min(7.0, 0.9) = 0.9.
        assert_eq!(x.entries[5].reachability, 7.0);
        assert_eq!(x.entries[6].reachability, 0.9);
        // Core estimates come from the representative.
        assert_eq!(x.entries[0].core_estimate, 0.5);
        assert_eq!(x.entries[5].core_estimate, 0.9);
    }

    #[test]
    fn bubble_expansion_uses_virtual_reachability() {
        let space = BubbleSpace::new(vec![
            DataBubble::new(vec![0.0], 3, 1.0),  // nndist(2) = (2/3)*1
            DataBubble::new(vec![10.0], 2, 0.5), // nndist(2) = 0.5
            DataBubble::new(vec![5.0], 2, 0.2),  // nndist(2) = 0.2
        ]);
        let x = expand_bubbles(&rep_ordering(), &members(), &space, 2);
        assert_eq!(x.order(), vec![0, 3, 4, 2, 5, 1, 6]);
        // Bubble 0 fillers: nndist(2) of bubble 0 = 2/3.
        assert!((x.entries[1].reachability - 2.0 / 3.0).abs() < 1e-12);
        assert!((x.entries[2].reachability - 2.0 / 3.0).abs() < 1e-12);
        // Bubble 2 filler: 0.2.
        assert!((x.entries[4].reachability - 0.2).abs() < 1e-12);
        // Bubble 1 jump preserved, filler 0.5.
        assert_eq!(x.entries[5].reachability, 7.0);
        assert!((x.entries[6].reachability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bubble_expansion_small_bubble_falls_back_to_core_distance() {
        // MinPts larger than every bubble: virtual reachability = the
        // entry's core distance.
        let space = BubbleSpace::new(vec![
            DataBubble::new(vec![0.0], 3, 1.0),
            DataBubble::new(vec![10.0], 2, 0.5),
            DataBubble::new(vec![5.0], 2, 0.2),
        ]);
        let x = expand_bubbles(&rep_ordering(), &members(), &space, 10);
        // Filler for bubble 0 = its core_distance in the ordering (0.5).
        assert_eq!(x.entries[1].reachability, 0.5);
    }

    #[test]
    fn extract_dbscan_on_expanded_plot() {
        let x = expand_weighted(&rep_ordering(), &members());
        let labels = x.extract_dbscan(1.0);
        // Objects of reps 0 and 2 form cluster 0 (their reachabilities are
        // ≤ 1), rep 1's objects start cluster 1 after the 7.0 jump
        // (its core estimate 0.9 ≤ 1).
        assert_eq!(labels[0], 0);
        assert_eq!(labels[3], 0);
        assert_eq!(labels[2], 0);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[6], 1);
    }

    #[test]
    fn extract_dbscan_marks_noise() {
        let mut o = rep_ordering();
        o.entries[2].core_distance = 100.0; // rep 1 not dense
        let x = expand_weighted(&o, &members());
        let labels = x.extract_dbscan(1.0);
        assert_eq!(labels[1], -1); // first member of rep 1 is noise
    }

    #[test]
    fn expansion_covers_every_object_once() {
        let x = expand_weighted(&rep_ordering(), &members());
        let mut seen = x.order();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<u32>>());
        assert!(!x.is_empty());
    }

    #[test]
    #[should_panic(expected = "one member list per representative")]
    fn member_count_mismatch_panics() {
        expand_weighted(&rep_ordering(), &[vec![0]]);
    }
}
