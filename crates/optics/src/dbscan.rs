//! DBSCAN (Ester, Kriegel, Sander, Xu, KDD 1996) — the flat density-based
//! cluster notion underlying OPTICS (reference [5] of the Data Bubbles
//! paper). Used as an independent baseline and to cross-check
//! [`crate::extract_dbscan`].

use std::collections::VecDeque;

use db_spatial::{Dataset, Neighbor};

use crate::space::{OpticsSpace, PointSpace};

/// DBSCAN over any [`OpticsSpace`]. Returns one label per object:
/// cluster ids `0..`, or `-1` for noise. Border objects are assigned to the
/// first cluster that reaches them (as in the original algorithm).
///
/// # Panics
///
/// Panics if `min_pts == 0` or `eps < 0`.
pub fn dbscan_core<S: OpticsSpace>(space: &S, eps: f64, min_pts: usize) -> Vec<i32> {
    assert!(min_pts >= 1, "MinPts must be at least 1");
    assert!(eps >= 0.0, "eps must be non-negative");
    let n = space.len();
    let mut labels = vec![-1i32; n];
    let mut visited = vec![false; n];
    let mut cluster = -1i32;
    let mut neighbors: Vec<Neighbor> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    for i in 0..n {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        space.neighborhood(i, eps, &mut neighbors);
        if space.core_distance(i, min_pts, &neighbors).is_none() {
            continue; // noise for now; may become a border object later
        }
        cluster += 1;
        labels[i] = cluster;
        queue.clear();
        queue.extend(neighbors.iter().map(|nb| nb.id));
        while let Some(j) = queue.pop_front() {
            if labels[j] == -1 {
                labels[j] = cluster; // border or core, reached from cluster
            }
            if visited[j] {
                continue;
            }
            visited[j] = true;
            space.neighborhood(j, eps, &mut neighbors);
            if space.core_distance(j, min_pts, &neighbors).is_some() {
                queue.extend(neighbors.iter().map(|nb| nb.id));
            }
        }
    }
    labels
}

/// DBSCAN over a plain dataset, its range queries answered by a kd-tree
/// ([`PointSpace`]).
pub fn dbscan(ds: &Dataset, eps: f64, min_pts: usize) -> Vec<i32> {
    dbscan_core(&PointSpace::new(ds), eps, min_pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs_and_noise() -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..20 {
            ds.push(&[(i % 5) as f64 * 0.2, (i / 5) as f64 * 0.2]).unwrap();
        }
        for i in 0..20 {
            ds.push(&[10.0 + (i % 5) as f64 * 0.2, (i / 5) as f64 * 0.2]).unwrap();
        }
        ds.push(&[5.0, 5.0]).unwrap(); // isolated noise
        ds
    }

    #[test]
    fn finds_two_clusters_and_noise() {
        let ds = two_blobs_and_noise();
        let labels = dbscan(&ds, 0.5, 4);
        assert!(labels[..20].iter().all(|&l| l == labels[0] && l >= 0));
        assert!(labels[20..40].iter().all(|&l| l == labels[20] && l >= 0));
        assert_ne!(labels[0], labels[20]);
        assert_eq!(labels[40], -1);
    }

    #[test]
    fn all_noise_when_eps_tiny() {
        let ds = two_blobs_and_noise();
        let labels = dbscan(&ds, 1e-6, 2);
        assert!(labels.iter().all(|&l| l == -1));
    }

    #[test]
    fn one_cluster_when_eps_huge() {
        let ds = two_blobs_and_noise();
        let labels = dbscan(&ds, 100.0, 4);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn min_pts_one_labels_every_point() {
        let ds = two_blobs_and_noise();
        let labels = dbscan(&ds, 0.5, 1);
        assert!(labels.iter().all(|&l| l >= 0));
        // The isolated point forms its own singleton cluster.
        assert_ne!(labels[40], labels[0]);
    }

    #[test]
    fn agrees_with_optics_extraction() {
        use crate::algorithm::optics_points;
        use crate::ordering::extract_dbscan;
        use crate::space::OpticsParams;

        let ds = two_blobs_and_noise();
        let direct = dbscan(&ds, 0.5, 4);
        let o = optics_points(&ds, &OpticsParams { eps: 2.0, min_pts: 4 });
        let extracted = extract_dbscan(&o, 0.5, ds.len());
        // Same partition up to label permutation and border-point
        // assignment; with these well separated blobs they agree exactly
        // after matching labels via the first occurrence.
        let mut mapping = std::collections::HashMap::new();
        for (a, b) in direct.iter().zip(&extracted) {
            if *a >= 0 {
                let m = mapping.entry(*a).or_insert(*b);
                assert_eq!(m, b, "partitions disagree");
            } else {
                assert_eq!(*b, -1);
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(2).unwrap();
        assert!(dbscan(&ds, 1.0, 2).is_empty());
    }
}
