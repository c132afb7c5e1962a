//! Generic agglomerative hierarchical clustering with Lance–Williams
//! distance updates (single / complete / average / Ward linkage).
//!
//! O(n²) memory, O(n³) worst-case time. Single link has an O(n²)-time,
//! O(n)-memory algorithm, [`crate::slink_from_rows`], and every production
//! single-link path (the bubble dendrogram of `data-bubbles`, the
//! service's labels) goes through it; here Single remains as the naive
//! cross-check. Complete, Average and Ward have no such shortcut and run
//! this loop.

use db_spatial::Dataset;

use crate::dendrogram::{Dendrogram, Merge};

/// The linkage criterion: how the distance between merged clusters is
/// derived from the distances of the parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum distance between members ("single link", the method of
    /// Fig. 2 of the Data Bubbles paper).
    Single,
    /// Maximum distance between members.
    Complete,
    /// Size-weighted average distance (UPGMA).
    Average,
    /// Ward's minimum-variance criterion (heights are the Euclidean
    /// merge costs; inputs are treated as Euclidean distances and squared
    /// internally for the Lance–Williams update).
    Ward,
}

/// Agglomerative clustering of a dataset under the Euclidean metric.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn agglomerative(ds: &Dataset, linkage: Linkage) -> Dendrogram {
    agglomerative_from_fn(ds.len(), linkage, |a, b| db_spatial::euclidean(ds.point(a), ds.point(b)))
}

/// Agglomerative clustering over an arbitrary symmetric distance function —
/// this is what lets classical hierarchical clustering run directly on Data
/// Bubbles with the bubble distance of Definition 6.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn agglomerative_from_fn(
    n: usize,
    linkage: Linkage,
    dist: impl Fn(usize, usize) -> f64,
) -> Dendrogram {
    assert!(n >= 1, "agglomerative clustering requires at least one object");
    if n == 1 {
        return Dendrogram::new(1, vec![]);
    }
    // Full working-distance matrix (upper triangle mirrored for
    // simplicity). Ward's Lance–Williams recurrence operates on squared
    // distances.
    let squared = linkage == Linkage::Ward;
    let mut d = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v = dist(i, j);
            let v = if squared { v * v } else { v };
            d[i * n + j] = v;
            d[j * n + i] = v;
        }
    }
    let mut active: Vec<bool> = vec![true; n];
    let mut sizes: Vec<f64> = vec![1.0; n];
    // Dendrogram node currently representing row i.
    let mut node_of: Vec<usize> = (0..n).collect();
    let mut merges: Vec<Merge> = Vec::with_capacity(n - 1);

    for _ in 0..(n - 1) {
        // Global closest active pair.
        let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
        for i in 0..n {
            if !active[i] {
                continue;
            }
            for j in (i + 1)..n {
                if active[j] && d[i * n + j] < best.2 {
                    best = (i, j, d[i * n + j]);
                }
            }
        }
        let (i, j, h) = best;
        debug_assert!(i < n && j < n);
        // Lance–Williams update into row i; deactivate row j.
        for k in 0..n {
            if !active[k] || k == i || k == j {
                continue;
            }
            let dik = d[i * n + k];
            let djk = d[j * n + k];
            let new = match linkage {
                Linkage::Single => dik.min(djk),
                Linkage::Complete => dik.max(djk),
                Linkage::Average => (sizes[i] * dik + sizes[j] * djk) / (sizes[i] + sizes[j]),
                Linkage::Ward => {
                    let (ni, nj, nk) = (sizes[i], sizes[j], sizes[k]);
                    ((ni + nk) * dik + (nj + nk) * djk - nk * d[i * n + j]) / (ni + nj + nk)
                }
            };
            d[i * n + k] = new;
            d[k * n + i] = new;
        }
        active[j] = false;
        sizes[i] += sizes[j];
        let new_node = n + merges.len();
        // db-audit: allow(no-naked-sqrt) -- flush site: merge heights are
        // computed in squared space and converted once when reported.
        let height = if squared { h.max(0.0).sqrt() } else { h };
        merges.push(Merge { a: node_of[i], b: node_of[j], dist: height });
        node_of[i] = new_node;
    }
    // Lance–Williams with these linkages is reducible, so heights are
    // non-decreasing up to floating point jitter; sort defensively by
    // stable keys to satisfy the dendrogram invariant exactly.
    fixup_monotone(&mut merges);
    Dendrogram::new(n, merges)
}

/// Clamps tiny floating-point decreases in merge heights (reducible
/// linkages guarantee monotonicity mathematically).
fn fixup_monotone(merges: &mut [Merge]) {
    for i in 1..merges.len() {
        if merges[i].dist < merges[i - 1].dist {
            debug_assert!(
                merges[i - 1].dist - merges[i].dist < 1e-6,
                "non-trivial monotonicity violation"
            );
            merges[i].dist = merges[i - 1].dist;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slink::slink;

    fn line() -> Dataset {
        Dataset::from_rows(1, &[&[0.0], &[1.0], &[3.0], &[10.0]]).unwrap()
    }

    #[test]
    fn single_link_matches_slink() {
        let ds = line();
        let a = agglomerative(&ds, Linkage::Single);
        let s = slink(&ds);
        let ha: Vec<f64> = a.merges().iter().map(|m| m.dist).collect();
        let hs: Vec<f64> = s.merges().iter().map(|m| m.dist).collect();
        assert_eq!(ha, hs);
        // Cuts agree as partitions.
        for k in 1..=4 {
            let ca = a.cut(k);
            let cs = s.cut(k);
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(ca[i] == ca[j], cs[i] == cs[j], "cut {k} disagrees at {i},{j}");
                }
            }
        }
    }

    #[test]
    fn single_link_matches_slink_on_grid() {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..30 {
            ds.push(&[((i * 7) % 13) as f64, ((i * 5) % 11) as f64]).unwrap();
        }
        let a = agglomerative(&ds, Linkage::Single);
        let s = slink(&ds);
        let mut ha: Vec<f64> = a.merges().iter().map(|m| m.dist).collect();
        let mut hs: Vec<f64> = s.merges().iter().map(|m| m.dist).collect();
        ha.sort_by(f64::total_cmp);
        hs.sort_by(f64::total_cmp);
        for (x, y) in ha.iter().zip(&hs) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn complete_linkage_heights() {
        // Clusters {0,1} and {2,3} at distance 1 internally; complete-link
        // merges the pairs at 1.0 then the two pairs at max distance 11.
        let ds = Dataset::from_rows(1, &[&[0.0], &[1.0], &[10.0], &[11.0]]).unwrap();
        let d = agglomerative(&ds, Linkage::Complete);
        let h: Vec<f64> = d.merges().iter().map(|m| m.dist).collect();
        assert_eq!(h, vec![1.0, 1.0, 11.0]);
    }

    #[test]
    fn average_linkage_heights() {
        let ds = Dataset::from_rows(1, &[&[0.0], &[1.0], &[10.0], &[11.0]]).unwrap();
        let d = agglomerative(&ds, Linkage::Average);
        let h: Vec<f64> = d.merges().iter().map(|m| m.dist).collect();
        // Pairs at 1.0 each; between pairs: mean of {10, 11, 9, 10} = 10.
        assert_eq!(h, vec![1.0, 1.0, 10.0]);
    }

    #[test]
    fn ward_merges_tight_pairs_first() {
        let ds = Dataset::from_rows(1, &[&[0.0], &[1.0], &[10.0], &[11.0]]).unwrap();
        let d = agglomerative(&ds, Linkage::Ward);
        let h: Vec<f64> = d.merges().iter().map(|m| m.dist).collect();
        // First two merges at Euclidean cost 1; the final merge cost is
        // sqrt of the Ward increase for {0,1} ∪ {10,11}:
        // d²({0,1},{10,11}) via LW = ((2+1)·d²+… ) — hand-checked: 200/2.
        assert_eq!(h[0], 1.0);
        assert_eq!(h[1], 1.0);
        assert!(h[2] > 9.0, "Ward top merge too cheap: {}", h[2]);
        // Cutting into 2 recovers the pairs.
        let cut = d.cut(2);
        assert_eq!(cut[0], cut[1]);
        assert_eq!(cut[2], cut[3]);
        assert_ne!(cut[0], cut[2]);
    }

    #[test]
    fn ward_recovers_blobs_where_single_link_chains() {
        // A chain of stepping stones between two blobs defeats single link
        // but not Ward.
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..10 {
            ds.push(&[(i % 3) as f64 * 0.2, (i / 3) as f64 * 0.2]).unwrap();
        }
        for i in 0..10 {
            ds.push(&[20.0 + (i % 3) as f64 * 0.2, (i / 3) as f64 * 0.2]).unwrap();
        }
        // Stepping stones.
        for i in 1..10 {
            ds.push(&[i as f64 * 2.0, 10.0]).unwrap();
        }
        let ward = agglomerative(&ds, Linkage::Ward).cut(3);
        // The two blobs end up in different clusters.
        assert!(ward[..10].iter().all(|&l| l == ward[0]));
        assert!(ward[10..20].iter().all(|&l| l == ward[10]));
        assert_ne!(ward[0], ward[10]);
    }

    #[test]
    fn from_fn_supports_custom_distances() {
        // A distance that reverses proximity: objects with distant indices
        // are "close".
        let d =
            agglomerative_from_fn(4, Linkage::Single, |a, b| 10.0 - (a as f64 - b as f64).abs());
        // Closest pair: (0, 3) with distance 7.
        assert_eq!(d.merges()[0].dist, 7.0);
    }

    #[test]
    fn singleton() {
        let ds = Dataset::from_rows(1, &[&[1.0]]).unwrap();
        let d = agglomerative(&ds, Linkage::Single);
        assert_eq!(d.n_leaves(), 1);
    }
}
