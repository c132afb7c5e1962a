//! Boundary behavior of the precomputed bubble-distance matrix: ε-queries
//! whose ε equals a realized distance exactly, and exactly tied distances,
//! must match the on-the-fly evaluation bit for bit.
//!
//! Both paths answer a neighborhood query in id order: the matrix path
//! filters a stored row with `d <= eps`, the on-the-fly path filters a
//! fresh scan with the same predicate. Both act on the *same* f64 values
//! (both sides evaluate `bubble_distance` on identical inputs), so any
//! divergence — a `<` vs `<=` slip, a row written out of id order — is a
//! bug.

use data_bubbles::{bubble_distance, BubbleSpace, DataBubble};
use db_datagen::Rng;
use db_optics::OpticsSpace;
use db_spatial::Neighbor;

fn oracle_iters() -> usize {
    std::env::var("ORACLE_ITERS").ok().and_then(|s| s.parse().ok()).unwrap_or(100)
}

/// Random bubbles with deliberate duplicates: identical (rep, n, extent)
/// triples produce exactly tied distances, the regime where ordering
/// divergence would show first.
fn random_bubbles(rng: &mut Rng, k: usize, dim: usize) -> Vec<DataBubble> {
    let mut out: Vec<DataBubble> = Vec::with_capacity(k);
    for i in 0..k {
        if i >= 2 && rng.below(4) == 0 {
            // Duplicate an earlier bubble verbatim.
            let j = rng.below(out.len());
            out.push(out[j].clone());
            continue;
        }
        let rep: Vec<f64> = (0..dim).map(|_| rng.uniform_in(-20.0, 20.0)).collect();
        let n = 1 + rng.below(50) as u64;
        let extent = rng.uniform_in(0.0, 3.0);
        out.push(DataBubble::new(rep, n, extent));
    }
    out
}

#[test]
fn matrix_neighborhoods_match_on_the_fly_at_exact_boundaries() {
    let mut rng = Rng::new(777);
    for it in 0..oracle_iters() {
        let k = 2 + rng.below(14); // small k: every pair is a boundary candidate
        let dim = 1 + rng.below(3);
        let bubbles = random_bubbles(&mut rng, k, dim);

        let plain = BubbleSpace::new(bubbles.clone());
        let mut with_matrix = BubbleSpace::new(bubbles.clone());
        assert!(with_matrix.precompute_matrix(None, usize::MAX), "matrix should build");

        // Every realized pairwise distance is an exact-boundary ε; add the
        // degenerate and surrounding values.
        let mut eps_values: Vec<f64> = Vec::new();
        for i in 0..k {
            for j in 0..k {
                eps_values.push(bubble_distance(&bubbles[i], &bubbles[j], i == j));
            }
        }
        eps_values.push(0.0);
        eps_values.push(f64::INFINITY);
        let extra: Vec<f64> = eps_values.iter().map(|d| d * 1.0000001 + 1e-9).collect();
        eps_values.extend(extra);

        let mut a: Vec<Neighbor> = Vec::new();
        let mut b: Vec<Neighbor> = Vec::new();
        for i in 0..k {
            for &eps in &eps_values {
                plain.neighborhood(i, eps, &mut a);
                with_matrix.neighborhood(i, eps, &mut b);
                assert_eq!(
                    a, b,
                    "iter {it}: neighborhood({i}, {eps}) diverged between \
                     on-the-fly and matrix paths"
                );
            }
            // Core-distances derive from the neighborhood; equal inputs must
            // give bit-equal outputs for a spread of MinPts.
            plain.neighborhood(i, f64::INFINITY, &mut a);
            for min_pts in [1usize, 3, 10, 100] {
                let c0 = plain.core_distance(i, min_pts, &a);
                let c1 = with_matrix.core_distance(i, min_pts, &a);
                assert_eq!(
                    c0.map(f64::to_bits),
                    c1.map(f64::to_bits),
                    "iter {it}: core_distance({i}, {min_pts}) diverged"
                );
            }
        }
    }
}

#[test]
fn exact_boundary_epsilon_includes_the_boundary_neighbor_in_both_paths() {
    // Construct two bubbles at a known distance and query with ε exactly
    // equal to it: `d <= eps` must include the neighbor on both paths.
    let bubbles = vec![
        DataBubble::new(vec![0.0, 0.0], 10, 1.0),
        DataBubble::new(vec![7.0, 0.0], 10, 1.0),
        DataBubble::new(vec![100.0, 0.0], 10, 1.0),
    ];
    let d = bubble_distance(&bubbles[0], &bubbles[1], false);
    let plain = BubbleSpace::new(bubbles.clone());
    let mut with_matrix = BubbleSpace::new(bubbles);
    assert!(with_matrix.precompute_matrix(None, usize::MAX));

    let mut a = Vec::new();
    let mut b = Vec::new();
    plain.neighborhood(0, d, &mut a);
    with_matrix.neighborhood(0, d, &mut b);
    assert_eq!(a, b);
    assert!(a.iter().any(|nb| nb.id == 1), "neighbor at exactly ε must be included (d = {d})");
    // One ulp below ε excludes it — in both paths.
    let below = f64::from_bits(d.to_bits() - 1);
    plain.neighborhood(0, below, &mut a);
    with_matrix.neighborhood(0, below, &mut b);
    assert_eq!(a, b);
    assert!(a.iter().all(|nb| nb.id != 1), "neighbor above ε must be excluded");
}

#[test]
fn tied_distances_order_by_id_in_both_paths() {
    // Four identical bubbles: every cross distance is the same value. Both
    // paths must list all four, in id order, with the same bits.
    let b = DataBubble::new(vec![1.0, 2.0], 5, 0.5);
    let bubbles = vec![b.clone(), b.clone(), b.clone(), b];
    let plain = BubbleSpace::new(bubbles.clone());
    let mut with_matrix = BubbleSpace::new(bubbles);
    assert!(with_matrix.precompute_matrix(None, usize::MAX));

    let mut a = Vec::new();
    let mut bo = Vec::new();
    for i in 0..4 {
        plain.neighborhood(i, f64::INFINITY, &mut a);
        with_matrix.neighborhood(i, f64::INFINITY, &mut bo);
        assert_eq!(a, bo, "query {i}");
        let ids: Vec<usize> = a.iter().map(|nb| nb.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "query {i}: id order");
        assert_eq!(a[i].dist, 0.0, "query {i}: self at distance 0");
        let tie = a[(i + 1) % 4].dist.to_bits();
        assert!(a.iter().filter(|nb| nb.id != i).all(|nb| nb.dist.to_bits() == tie), "query {i}");
    }
}
