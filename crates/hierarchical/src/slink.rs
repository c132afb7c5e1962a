//! SLINK (Sibson 1973): the optimally efficient O(n²) time, O(n) memory
//! single-link algorithm — reference [9] of the Data Bubbles paper.

use db_spatial::Dataset;

use crate::dendrogram::{Dendrogram, Merge};

/// Runs SLINK over a dataset with the Euclidean metric, returning the
/// single-link dendrogram.
///
/// ```
/// use db_hierarchical::slink;
/// use db_spatial::Dataset;
/// let ds = Dataset::from_rows(1, &[&[0.0], &[1.0], &[10.0]]).unwrap();
/// let dendrogram = slink(&ds);
/// let cut = dendrogram.cut(2);
/// assert_eq!(cut[0], cut[1]);
/// assert_ne!(cut[0], cut[2]);
/// ```
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn slink(ds: &Dataset) -> Dendrogram {
    slink_from_fn(ds.len(), |a, b| db_spatial::euclidean(ds.point(a), ds.point(b)))
}

/// SLINK over an arbitrary symmetric distance function.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn slink_from_fn(n: usize, dist: impl Fn(usize, usize) -> f64) -> Dendrogram {
    slink_from_rows(n, |i, row| {
        for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
            *slot = dist(i, j);
        }
    })
}

/// SLINK over distance rows: `fill_row(i, row)` must set `row[j]` to the
/// distance between objects `i` and `j` for every `j > i` (`row` has
/// length `n`; entries `..= i` are scratch and never read). Each row is
/// requested exactly once, so the caller can stream rows from a
/// precomputed matrix or evaluate them on the fly: O(n²) time, O(n)
/// memory either way.
///
/// Objects are inserted in descending id order, so the insertion of `i`
/// needs only the distances to the objects after it — which is why a row
/// tail suffices, and why every distance is evaluated as `(i, j)` with
/// `i < j`, the operand order of [`crate::agglomerative_from_fn`].
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn slink_from_rows(n: usize, mut fill_row: impl FnMut(usize, &mut [f64])) -> Dendrogram {
    assert!(n >= 1, "SLINK requires at least one object");
    // Pointer representation: pi[i] = the "merge partner", lambda[i] = the
    // height at which object i merges into pi[i].
    let mut pi = vec![0usize; n];
    let mut lambda = vec![f64::INFINITY; n];
    let mut m = vec![0.0f64; n];

    for i in (0..n).rev() {
        pi[i] = i;
        lambda[i] = f64::INFINITY;
        fill_row(i, &mut m);
        // Earlier insertions first: every pointer leads to a later one.
        for j in ((i + 1)..n).rev() {
            if lambda[j] >= m[j] {
                m[pi[j]] = m[pi[j]].min(lambda[j]);
                lambda[j] = m[j];
                pi[j] = i;
            } else {
                m[pi[j]] = m[pi[j]].min(m[j]);
            }
        }
        for j in ((i + 1)..n).rev() {
            if lambda[j] >= lambda[pi[j]] {
                pi[j] = i;
            }
        }
    }

    pointer_to_dendrogram(&pi, &lambda)
}

/// Converts the pointer representation into a merge list: process objects
/// by ascending `lambda` (ties in insertion order, so object 0, inserted
/// last with `lambda = ∞`, comes last), each merging the current cluster
/// of `i` with the current cluster of `pi[i]`.
fn pointer_to_dendrogram(pi: &[usize], lambda: &[f64]) -> Dendrogram {
    let n = pi.len();
    if n == 1 {
        return Dendrogram::new(1, vec![]);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| lambda[a].total_cmp(&lambda[b]).then(b.cmp(&a)));

    // Union-find tracking the dendrogram node currently representing the
    // set of each object.
    let mut parent: Vec<usize> = (0..n).collect();
    let mut node_of: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    let mut merges = Vec::with_capacity(n - 1);
    for &i in order.iter().take(n - 1) {
        let h = lambda[i];
        debug_assert!(h.is_finite(), "only the last object has infinite lambda");
        let ra = find(&mut parent, i);
        let rb = find(&mut parent, pi[i]);
        debug_assert_ne!(ra, rb, "pointer representation must merge distinct sets");
        let new_node = n + merges.len();
        merges.push(Merge { a: node_of[ra], b: node_of[rb], dist: h });
        parent[ra] = rb;
        node_of[rb] = new_node;
    }
    Dendrogram::new(n, merges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Dataset {
        Dataset::from_rows(1, &[&[0.0], &[1.0], &[3.0], &[10.0]]).unwrap()
    }

    #[test]
    fn merge_heights_are_the_mst_edges() {
        // Single link merge heights equal the edges of the minimum
        // spanning tree: 1 (0-1), 2 (1-2), 7 (2-3).
        let d = slink(&line());
        let heights: Vec<f64> = d.merges().iter().map(|m| m.dist).collect();
        assert_eq!(heights, vec![1.0, 2.0, 7.0]);
    }

    #[test]
    fn cut_recovers_spatial_groups() {
        let d = slink(&line());
        let two = d.cut(2);
        assert_eq!(two[0], two[1]);
        assert_eq!(two[1], two[2]);
        assert_ne!(two[0], two[3]);
    }

    #[test]
    fn singleton_input() {
        let ds = Dataset::from_rows(2, &[&[1.0, 2.0]]).unwrap();
        let d = slink(&ds);
        assert_eq!(d.n_leaves(), 1);
        assert_eq!(d.cut(1), vec![0]);
    }

    #[test]
    fn duplicate_points_merge_at_zero() {
        let ds = Dataset::from_rows(1, &[&[5.0], &[5.0], &[9.0]]).unwrap();
        let d = slink(&ds);
        assert_eq!(d.merges()[0].dist, 0.0);
        assert_eq!(d.merges()[1].dist, 4.0);
    }

    #[test]
    fn matches_bruteforce_single_link_heights() {
        // Random-ish 2-d points; compare SLINK merge heights with a naive
        // O(n³) single-link implementation.
        let pts: Vec<[f64; 2]> = (0..40)
            .map(|i| {
                let x = ((i * 37 + 11) % 101) as f64 / 10.0;
                let y = ((i * 53 + 29) % 97) as f64 / 10.0;
                [x, y]
            })
            .collect();
        let mut ds = Dataset::new(2).unwrap();
        for p in &pts {
            ds.push(p).unwrap();
        }
        let d = slink(&ds);
        let mut slink_heights: Vec<f64> = d.merges().iter().map(|m| m.dist).collect();

        // Naive single link: repeatedly merge the two closest clusters.
        let n = pts.len();
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut naive_heights = Vec::new();
        while clusters.len() > 1 {
            let mut best = (0usize, 1usize, f64::INFINITY);
            for a in 0..clusters.len() {
                for b in (a + 1)..clusters.len() {
                    let mut dmin = f64::INFINITY;
                    for &i in &clusters[a] {
                        for &j in &clusters[b] {
                            dmin = dmin.min(db_spatial::euclidean(&pts[i], &pts[j]));
                        }
                    }
                    if dmin < best.2 {
                        best = (a, b, dmin);
                    }
                }
            }
            naive_heights.push(best.2);
            let merged = clusters.swap_remove(best.1);
            clusters[best.0].extend(merged);
        }
        naive_heights.sort_by(f64::total_cmp);
        slink_heights.sort_by(f64::total_cmp);
        for (a, b) in slink_heights.iter().zip(&naive_heights) {
            assert!((a - b).abs() < 1e-9, "heights differ: {a} vs {b}");
        }
    }
}
