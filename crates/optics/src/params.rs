//! Parameter heuristics: data-driven suggestions for ε and the extraction
//! cut, based on the classic sorted k-NN-distance ("k-dist") analysis of
//! the DBSCAN/OPTICS papers.

use db_spatial::{Dataset, KdTree, SpatialIndex};

/// The sorted MinPts-NN distances of a sample of points — the "k-dist
/// plot" used to choose density parameters by eye; [`suggest_eps`] picks
/// from it automatically.
///
/// Samples at most `max_sample` points (deterministic stride), so the cost
/// is bounded for large datasets.
///
/// # Panics
///
/// Panics if the dataset is empty or `min_pts == 0`.
pub fn k_distances(ds: &Dataset, min_pts: usize, max_sample: usize) -> Vec<f64> {
    assert!(!ds.is_empty(), "dataset must be non-empty");
    assert!(min_pts >= 1, "MinPts must be positive");
    let index = KdTree::build(ds);
    let stride = (ds.len() / max_sample.max(1)).max(1);
    let mut out = Vec::with_capacity(ds.len() / stride + 1);
    let mut nn = Vec::new();
    for i in (0..ds.len()).step_by(stride) {
        // The query point is an indexed point, so it appears in its own
        // result at distance 0; asking for min_pts results therefore
        // yields the MinPts-distance of Definition 2/3 (self included).
        index.knn(ds, ds.point(i), min_pts, &mut nn);
        out.push(nn.last().map_or(0.0, |n| n.dist));
    }
    out.sort_by(f64::total_cmp);
    out
}

/// Suggests an OPTICS generating distance ε: a high quantile (97.5%) of
/// the sampled MinPts-NN distances, times a small safety factor — large
/// enough that nearly every object is a core object (so the cluster
/// ordering is informative), small enough that the spatial index still
/// prunes.
///
/// # Panics
///
/// Panics if the dataset is empty or `min_pts == 0`.
pub fn suggest_eps(ds: &Dataset, min_pts: usize) -> f64 {
    let kd = k_distances(ds, min_pts, 2_048);
    let q = kd[((kd.len() - 1) as f64 * 0.975).round() as usize];
    (q * 1.5).max(f64::MIN_POSITIVE)
}

/// Suggests a flat-extraction cut level ε′: the k-dist "elbow" — the value
/// at the knee of the sorted k-dist curve, found as the point of maximum
/// distance to the chord between the curve's endpoints. Objects below the
/// knee are cluster-dense; above it, noise-sparse.
///
/// # Panics
///
/// Panics if the dataset is empty or `min_pts == 0`.
pub fn suggest_cut(ds: &Dataset, min_pts: usize) -> f64 {
    let kd = k_distances(ds, min_pts, 2_048);
    if kd.len() < 3 {
        return *kd.last().expect("non-empty");
    }
    let n = kd.len() as f64;
    let (y0, y1) = (kd[0], kd[kd.len() - 1]);
    // Maximize the distance from (i, kd[i]) to the chord (0,y0)-(n-1,y1);
    // with x normalized to [0,1] so both axes are comparable.
    let mut best = (0usize, f64::NEG_INFINITY);
    for (i, &y) in kd.iter().enumerate() {
        let x = i as f64 / (n - 1.0);
        let chord_y = y0 + (y1 - y0) * x;
        let d = (chord_y - y).abs() / (y1 - y0).abs().max(1e-300);
        if d > best.1 {
            best = (i, d);
        }
    }
    kd[best.0].max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense blobs + sparse noise.
    fn blobs_with_noise() -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for c in [[0.0, 0.0], [50.0, 0.0]] {
            for i in 0..300 {
                ds.push(&[c[0] + (i % 20) as f64 * 0.1, c[1] + (i / 20) as f64 * 0.1]).unwrap();
            }
        }
        for i in 0..30 {
            ds.push(&[(i * 97 % 100) as f64, 30.0 + (i * 31 % 50) as f64]).unwrap();
        }
        ds
    }

    #[test]
    fn k_distances_are_sorted_and_positive() {
        let ds = blobs_with_noise();
        let kd = k_distances(&ds, 5, 1_000);
        assert!(!kd.is_empty());
        assert!(kd.windows(2).all(|w| w[0] <= w[1]));
        assert!(kd.iter().all(|&d| d >= 0.0));
    }

    #[test]
    fn suggested_cut_separates_blobs_from_noise() {
        let ds = blobs_with_noise();
        let cut = suggest_cut(&ds, 5);
        // Blob 5-NN distances are ~0.1–0.3; noise 5-NN distances are ≥ 10.
        assert!(cut > 0.05 && cut < 10.0, "cut {cut}");
    }

    #[test]
    fn suggested_eps_covers_almost_everything() {
        let ds = blobs_with_noise();
        let eps = suggest_eps(&ds, 5);
        let kd = k_distances(&ds, 5, usize::MAX);
        let covered = kd.iter().filter(|&&d| d <= eps).count();
        assert!(
            covered as f64 / kd.len() as f64 >= 0.95,
            "eps {eps} covers only {covered}/{}",
            kd.len()
        );
    }

    #[test]
    fn suggestions_feed_optics() {
        use crate::{extract_dbscan, optics_points, OpticsParams};
        let ds = blobs_with_noise();
        let eps = suggest_eps(&ds, 5);
        let cut = suggest_cut(&ds, 5);
        let o = optics_points(&ds, &OpticsParams { eps, min_pts: 5 });
        let labels = extract_dbscan(&o, cut, ds.len());
        // The two blobs come out as two clusters.
        let mut blob_labels: Vec<i32> = vec![labels[0]];
        for &label in labels.iter().take(600) {
            if !blob_labels.contains(&label) {
                blob_labels.push(label);
            }
        }
        assert!(blob_labels.iter().all(|&l| l >= 0), "blob points must not be noise");
        assert_eq!(blob_labels.len(), 2, "expected exactly two blob clusters");
    }

    #[test]
    fn sampling_bounds_work() {
        let ds = blobs_with_noise();
        let kd_small = k_distances(&ds, 5, 10);
        assert!(kd_small.len() <= 64); // stride sampling
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dataset_panics() {
        k_distances(&Dataset::new(2).unwrap(), 5, 100);
    }
}
