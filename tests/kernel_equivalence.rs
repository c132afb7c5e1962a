//! Kernel-equivalence harness (ISSUE 9).
//!
//! The batched distance kernels in `db_spatial::kernels` are the canonical
//! distance arithmetic of the whole workspace — indexes, classification,
//! the bubble-distance matrix and the oracle all share them. This harness
//! is what licenses that sharing:
//!
//! (a) every kernel equals `sq_dist_reference` — a plain indexed-loop
//!     emulation of the documented fixed lane-reduction order — **bit for
//!     bit**, over seeded random dimensionalities, lengths and offsets;
//! (b) the kernel stays within a documented ulp budget of the naive
//!     left-to-right `Metric::dist` sum (and is bit-identical to it for
//!     d ≤ 3, where the canonical order degenerates to it);
//! (c) block-split invariance: any chunking of the same query set — block
//!     sizes, tile borders, thread-like splits — yields identical bits.
//!
//! Iteration counts scale with the `KERNEL_ITERS` environment variable
//! (default 64; CI runs a high count), so local runs stay fast while CI
//! hammers the seed space.

use db_sampling::{nn_classify, nn_classify_parallel, NearestRep, NN_KERNEL_MAX_REPS};
use db_spatial::kernels::{
    dist_tile, dists_to_block, dists_to_indexed, nn_block, sq_dist, sq_dist_reference,
};
use db_spatial::{Dataset, KdTree, Metric, SpatialIndex, SquaredEuclidean};

fn iters() -> u64 {
    std::env::var("KERNEL_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

fn rand_block(rng: &mut db_rng::Rng, rows: usize, dim: usize) -> Vec<f64> {
    (0..rows * dim).map(|_| rng.gen_f64(-100.0, 100.0)).collect()
}

/// The historic scalar loop: strict left-to-right accumulation. The
/// kernels replaced this order; (b) bounds how far they may drift.
fn naive_sq(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

// ---------------------------------------------------------------------------
// (a) kernel == reference emulation, bit-exactly
// ---------------------------------------------------------------------------

#[test]
fn kernels_match_reference_order_bit_exactly() {
    let mut rng = db_rng::Rng::seed_from_u64(0x9e37_79b9);
    for it in 0..iters() {
        let dim = rng.gen_range_inclusive(1..=24);
        let rows = rng.gen_range_inclusive(1..=300);
        let block = rand_block(&mut rng, rows, dim);
        // Query taken at a random row offset *inside* a larger buffer, so
        // alignment/offset of the operand slices varies across iterations.
        let qbuf = rand_block(&mut rng, 4, dim);
        let qoff = rng.gen_range(0..4) * dim;
        let q = &qbuf[qoff..qoff + dim];

        let mut out = vec![0.0f64; rows];
        dists_to_block(q, &block, dim, &mut out);
        for (i, row) in block.chunks_exact(dim).enumerate() {
            let reference = sq_dist_reference(q, row);
            assert_eq!(
                out[i].to_bits(),
                reference.to_bits(),
                "dists_to_block diverges from the documented order (it={it} dim={dim} row={i})"
            );
            assert_eq!(
                sq_dist(q, row).to_bits(),
                reference.to_bits(),
                "sq_dist diverges from the documented order (it={it} dim={dim} row={i})"
            );
            assert_eq!(
                SquaredEuclidean.dist(q, row).to_bits(),
                reference.to_bits(),
                "Metric::dist no longer delegates to the kernel (it={it} dim={dim})"
            );
        }

        // Gathered kernel on a random (with repeats) id list.
        let n_ids = rng.gen_range_inclusive(1..=rows);
        let ids: Vec<u32> = (0..n_ids).map(|_| rng.gen_range(0..rows) as u32).collect();
        let mut gathered = vec![0.0f64; n_ids];
        dists_to_indexed(q, &block, dim, &ids, &mut gathered);
        for (g, &id) in gathered.iter().zip(&ids) {
            assert_eq!(
                g.to_bits(),
                out[id as usize].to_bits(),
                "dists_to_indexed diverges (it={it} dim={dim} id={id})"
            );
        }
    }
}

#[test]
fn tile_kernel_matches_reference_order_bit_exactly() {
    let mut rng = db_rng::Rng::seed_from_u64(0x2545_f491);
    for it in 0..iters().min(32) {
        let dim = rng.gen_range_inclusive(1..=16);
        let na = rng.gen_range_inclusive(1..=20);
        let nb = rng.gen_range_inclusive(1..=60);
        let a = rand_block(&mut rng, na, dim);
        let b = rand_block(&mut rng, nb, dim);
        let mut tile = vec![0.0f64; na * nb];
        dist_tile(&a, &b, dim, &mut tile);
        for (i, qa) in a.chunks_exact(dim).enumerate() {
            for (j, pb) in b.chunks_exact(dim).enumerate() {
                assert_eq!(
                    tile[i * nb + j].to_bits(),
                    sq_dist_reference(qa, pb).to_bits(),
                    "dist_tile diverges (it={it} dim={dim} cell=({i},{j}))"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (b) kernel vs naive left-to-right Metric::dist, documented ulp budget
// ---------------------------------------------------------------------------

#[test]
fn kernel_is_bit_identical_to_naive_sum_below_dim_4() {
    // For d <= 3 the high accumulator lanes only ever add +0.0 to a
    // non-negative partial sum, which is a bitwise identity — the
    // canonical order *is* the historic order there.
    let mut rng = db_rng::Rng::seed_from_u64(7);
    for _ in 0..iters() {
        for dim in 1..=3usize {
            let a = rand_block(&mut rng, 1, dim);
            let b = rand_block(&mut rng, 1, dim);
            assert_eq!(sq_dist(&a, &b).to_bits(), naive_sq(&a, &b).to_bits(), "dim = {dim}");
        }
    }
}

#[test]
fn kernel_stays_within_ulp_budget_of_naive_sum() {
    // Documented budget (DESIGN.md §13): both orders are floating-point
    // sums of the same d non-negative terms, so each is within
    // (d−1)·ε·Σterms of the true sum; their difference is bounded by
    // 2(d−1)·ε relative to the result. In practice the divergence is ≤ 1
    // ulp for the dimensionalities of the paper's workloads.
    let mut rng = db_rng::Rng::seed_from_u64(11);
    let mut max_rel = 0.0f64;
    for _ in 0..iters() {
        let dim = rng.gen_range_inclusive(4..=32);
        let a = rand_block(&mut rng, 1, dim);
        let b = rand_block(&mut rng, 1, dim);
        let kernel = sq_dist(&a, &b);
        let naive = naive_sq(&a, &b);
        let budget = 2.0 * (dim as f64 - 1.0) * f64::EPSILON;
        if naive != 0.0 {
            let rel = ((kernel - naive) / naive).abs();
            assert!(rel <= budget, "dim={dim}: rel error {rel:e} exceeds budget {budget:e}");
            max_rel = max_rel.max(rel);
        } else {
            assert_eq!(kernel, 0.0, "zero distance must be exact in every order");
        }
    }
    // The budget must not be vacuous: it is tight within two orders of
    // magnitude of what random inputs actually produce.
    assert!(max_rel <= 32.0 * 2.0 * f64::EPSILON, "observed divergence implausibly large");
}

// ---------------------------------------------------------------------------
// (c) block-split invariance: any chunking yields identical bits
// ---------------------------------------------------------------------------

/// Splits `0..n` at random points into consecutive chunks.
fn random_splits(rng: &mut db_rng::Rng, n: usize) -> Vec<(usize, usize)> {
    let mut cuts = vec![0, n];
    for _ in 0..rng.gen_range_inclusive(0..=4) {
        cuts.push(rng.gen_range(0..n + 1));
    }
    cuts.sort_unstable();
    cuts.windows(2).map(|w| (w[0], w[1])).filter(|(lo, hi)| lo < hi).collect()
}

#[test]
fn dists_to_block_is_split_invariant() {
    let mut rng = db_rng::Rng::seed_from_u64(23);
    for it in 0..iters() {
        let dim = rng.gen_range_inclusive(1..=12);
        let rows = rng.gen_range_inclusive(2..=400);
        let block = rand_block(&mut rng, rows, dim);
        let q = rand_block(&mut rng, 1, dim);

        let mut whole = vec![0.0f64; rows];
        dists_to_block(&q, &block, dim, &mut whole);

        let mut pieced = vec![0.0f64; rows];
        for (lo, hi) in random_splits(&mut rng, rows) {
            dists_to_block(&q, &block[lo * dim..hi * dim], dim, &mut pieced[lo..hi]);
        }
        let (w, p): (Vec<u64>, Vec<u64>) = (
            whole.iter().map(|d| d.to_bits()).collect(),
            pieced.iter().map(|d| d.to_bits()).collect(),
        );
        assert_eq!(w, p, "chunking the target block changed bits (it={it} dim={dim})");
    }
}

#[test]
fn nn_block_is_query_split_and_rep_tile_invariant() {
    let mut rng = db_rng::Rng::seed_from_u64(31);
    for it in 0..iters() {
        let dim = rng.gen_range_inclusive(1..=8);
        let nq = rng.gen_range_inclusive(2..=200);
        // Spans several rep tiles so tile borders are exercised.
        let nr = rng.gen_range_inclusive(1..=160);
        let queries = rand_block(&mut rng, nq, dim);
        let reps = rand_block(&mut rng, nr, dim);

        let mut whole_ids = vec![0u32; nq];
        let mut whole_d2 = vec![0.0f64; nq];
        nn_block(&queries, &reps, dim, &mut whole_ids, &mut whole_d2);

        // Any chunking of the query set (the parallel classify path hands
        // each worker an arbitrary contiguous slice) must reproduce the
        // whole-set bits exactly.
        let mut pieced_ids = vec![0u32; nq];
        let mut pieced_d2 = vec![0.0f64; nq];
        for (lo, hi) in random_splits(&mut rng, nq) {
            nn_block(
                &queries[lo * dim..hi * dim],
                &reps,
                dim,
                &mut pieced_ids[lo..hi],
                &mut pieced_d2[lo..hi],
            );
        }
        assert_eq!(whole_ids, pieced_ids, "query chunking changed winners (it={it})");
        let (w, p): (Vec<u64>, Vec<u64>) = (
            whole_d2.iter().map(|d| d.to_bits()).collect(),
            pieced_d2.iter().map(|d| d.to_bits()).collect(),
        );
        assert_eq!(w, p, "query chunking changed distances (it={it})");

        // And the winner per query is the plain ascending-id argmin of the
        // one-to-many kernel — the tiling is unobservable.
        for (qi, q) in queries.chunks_exact(dim).enumerate() {
            let mut all = vec![0.0f64; nr];
            dists_to_block(q, &reps, dim, &mut all);
            let (mut bi, mut bd) = (0u32, f64::INFINITY);
            for (j, &d) in all.iter().enumerate() {
                if d < bd {
                    bd = d;
                    bi = j as u32;
                }
            }
            assert_eq!(whole_ids[qi], bi, "tiling changed the argmin (it={it} qi={qi})");
            assert_eq!(whole_d2[qi].to_bits(), bd.to_bits(), "it={it} qi={qi}");
        }
    }
}

// ---------------------------------------------------------------------------
// Consumer equivalences: the two classify backends and the thread split
// ---------------------------------------------------------------------------

fn blob_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = db_rng::Rng::seed_from_u64(seed);
    let mut ds = Dataset::new(dim).expect("dim");
    for _ in 0..n {
        let p: Vec<f64> = (0..dim).map(|_| rng.gen_f64(-50.0, 50.0)).collect();
        ds.push(&p).expect("finite");
    }
    ds
}

#[test]
fn classify_backends_agree_at_the_threshold_boundary() {
    // k <= NN_KERNEL_MAX_REPS routes through the batched kernel, k just
    // above through the cell table (d = 2) or the kd-tree; both must agree
    // with a direct per-point kd-tree query bit for bit (same squared distances, same
    // (dist, id) tie-break), so the routing threshold is unobservable.
    for dim in [2usize, 3, 8] {
        let ds = blob_dataset(1_500, dim, 0xB0B + dim as u64);
        for k in [NN_KERNEL_MAX_REPS, NN_KERNEL_MAX_REPS + 1] {
            let reps = ds.subset(&(0..k).map(|i| i * 4).collect::<Vec<_>>());
            let got = nn_classify(&ds, &reps);
            let index = KdTree::build(&reps);
            let want: Vec<u32> = ds
                .iter()
                .map(|p| index.nearest(&reps, p).expect("reps non-empty").id as u32)
                .collect();
            assert_eq!(got, want, "dim={dim} k={k}");
        }
    }
}

#[test]
fn tree_route_above_d8_equals_the_kernel_bit_for_bit() {
    // Above the kernel bound, representatives off d = 2 take the kd-tree
    // route of `NearestRep`. At d = 9, 16 and 20 its assignment, and the
    // distance bits of its single queries, equal the dense kernel's over
    // the same representatives.
    for dim in [9usize, 16, 20] {
        let ds = blob_dataset(2_000, dim, 0x7EE + dim as u64);
        for k in [NN_KERNEL_MAX_REPS + 1, 600] {
            let reps = ds.subset(&(0..k).map(|i| i * 3).collect::<Vec<_>>());
            let route = NearestRep::new(&reps);
            assert!(matches!(route, NearestRep::Tree(_)), "dim={dim} k={k}: the tree route");
            let mut want = vec![0u32; ds.len()];
            let mut d2 = vec![0.0f64; ds.len()];
            nn_block(ds.as_flat(), reps.as_flat(), dim, &mut want, &mut d2);
            assert_eq!(nn_classify(&ds, &reps), want, "dim={dim} k={k}");
            for (i, p) in ds.iter().enumerate() {
                let nn = route.nearest(&reps, p);
                assert_eq!(
                    (nn.id as u32, nn.dist.to_bits()),
                    (want[i], d2[i].sqrt().to_bits()),
                    "dim={dim} k={k} point {i}"
                );
            }
        }
    }
}

#[test]
fn parallel_classify_is_split_invariant_on_the_kernel_path() {
    // Thread chunking hands nn_block arbitrary query slices; the
    // assignment must not depend on the chunk layout.
    let ds = blob_dataset(5_000, 3, 99);
    let reps = ds.subset(&(0..120).map(|i| i * 41).collect::<Vec<_>>());
    let seq = nn_classify(&ds, &reps);
    for threads in [1usize, 2, 3, 7] {
        let par = nn_classify_parallel(&ds, &reps, std::num::NonZeroUsize::new(threads));
        assert_eq!(par, seq, "threads = {threads}");
    }
}
