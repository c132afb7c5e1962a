//! Batched, cache-blocked squared-Euclidean distance kernels.
//!
//! Every hot path of the reproduction — classification of the whole
//! database against the sampled representatives, the k×k bubble-distance
//! matrix, ε-range queries, and the oracle's brute-force sweeps — reduces
//! to "distances from one point to a block of points". This module is the
//! single place where that arithmetic lives: one-to-many
//! ([`dists_to_block`]), many-to-many tiles ([`dist_tile`]), gathered
//! candidates ([`dists_to_indexed`]), a tiled 1-NN reduction
//! ([`nn_block`]) and a one-query 1-NN ([`nearest_row`]), all over
//! row-major flat `f64` blocks. The loops are dimension-chunked
//! multi-accumulator code that LLVM auto-vectorizes; no `unsafe`, no
//! external dependencies.
//!
//! # The canonical reduction order
//!
//! Floating-point addition does not associate, so a vectorized sum is a
//! *different function* from the naive left-to-right sum unless the
//! reduction order is pinned. Every kernel here — and, via
//! [`crate::SquaredEuclidean`], every scalar distance in the workspace —
//! computes exactly this function:
//!
//! ```text
//! lane[l] = Σ (a[j] - b[j])²  over j ≡ l (mod LANES), ascending j
//! result  = (lane[0] + lane[1]) + (lane[2] + lane[3])
//! ```
//!
//! [`sq_dist_reference`] is the executable specification of that order
//! (a plain indexed loop); `tests/kernel_equivalence.rs` asserts every
//! kernel equals it **bit for bit** on random dims/lengths/offsets. The
//! order depends only on the two operands and the dimensionality — never
//! on the position of a row inside a block, the tile size, or the thread
//! that computed it — so results are deterministic across thread counts
//! and any chunking of a query set (block-split invariance).
//!
//! For d ≤ 3 the canonical order coincides bit-for-bit with the historic
//! left-to-right loop (the unused high lanes contribute `+0.0`, which is
//! an identity on the non-negative partial sums). For d ≥ 4 it differs by
//! at most the usual reassociation error (≤ 2(d−1) ulp relative, in
//! practice ≤ 1 ulp of the result — see DESIGN.md §13 for the budget).
//!
//! # What the kernels do *not* do
//!
//! They never take square roots (callers compare in squared space and
//! convert only reported results — the surrogate convention), and they
//! never touch metrics counters (callers tally `spatial.dist_evals`
//! etc. in bulk so the inner loops stay free of shared-memory traffic).

/// Number of independent accumulator lanes of the canonical reduction.
pub const LANES: usize = 4;

/// Rows per representative tile of [`nn_block`]: 64 rows × 8 B × d stays
/// inside L1 for the dimensionalities of interest while the per-tile
/// result buffer lives on the stack.
pub const NN_TILE_ROWS: usize = 64;

/// Executable specification of the canonical reduction order: a plain
/// indexed loop any reviewer can check against the module docs. Every
/// other kernel must equal this function bit for bit; the equivalence
/// harness enforces it. Not for production use — [`sq_dist`] is the
/// optimized form.
pub fn sq_dist_reference(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lane = [0.0f64; LANES];
    for j in 0..a.len().min(b.len()) {
        let d = a[j] - b[j];
        lane[j % LANES] += d * d;
    }
    (lane[0] + lane[1]) + (lane[2] + lane[3])
}

/// Squared Euclidean distance between two points in the canonical
/// reduction order. Dispatches to specializations for d ∈ {2, 3, 4} and a
/// dimension-chunked multi-accumulator loop otherwise.
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match a.len().min(b.len()) {
        2 => sq2(a[0] - b[0], a[1] - b[1]),
        3 => sq3(a[0] - b[0], a[1] - b[1], a[2] - b[2]),
        4 => sq4(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]),
        _ => sq_general(a, b),
    }
}

#[inline(always)]
fn sq2(d0: f64, d1: f64) -> f64 {
    // Canonical order for d = 2: lanes 2..4 are zero, and x + 0.0 is an
    // identity on the non-negative sum — identical bits to d0² + d1².
    d0 * d0 + d1 * d1
}

#[inline(always)]
fn sq3(d0: f64, d1: f64, d2: f64) -> f64 {
    (d0 * d0 + d1 * d1) + d2 * d2
}

#[inline(always)]
fn sq4(d0: f64, d1: f64, d2: f64, d3: f64) -> f64 {
    (d0 * d0 + d1 * d1) + (d2 * d2 + d3 * d3)
}

/// General-dimension kernel: four independent accumulator chains broken
/// out of the sequential dependency of a naive sum, which is what lets
/// LLVM vectorize the chunked loop (and keeps it fast even unvectorized —
/// the adds pipeline instead of serializing).
fn sq_general(a: &[f64], b: &[f64]) -> f64 {
    let mut lane = [0.0f64; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
        for l in 0..LANES {
            let d = ca[l] - cb[l];
            lane[l] += d * d;
        }
    }
    for (l, (&x, &y)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        let d = x - y;
        lane[l] += d * d;
    }
    (lane[0] + lane[1]) + (lane[2] + lane[3])
}

/// Checks the row-major block invariants shared by the batched kernels.
#[inline]
fn check_block(dim: usize, block_len: usize, out_len: usize) {
    assert!(dim > 0, "dimensionality must be positive");
    assert!(block_len.is_multiple_of(dim), "block is not row-major of dimension {dim}");
    assert_eq!(out_len, block_len / dim, "output length must equal the block's row count");
}

/// One-to-many kernel: squared distances from `q` to every row of the
/// row-major `block`, written to `out` (`out[i]` = row `i`). Each entry is
/// bit-identical to `sq_dist(q, row)` — the result is a pure per-pair
/// function, so any chunking of `block` concatenates to the same bits.
///
/// # Panics
///
/// Panics if `block.len()` is not a multiple of `dim`, `out.len()` is not
/// the row count, or `q.len() != dim`.
pub fn dists_to_block(q: &[f64], block: &[f64], dim: usize, out: &mut [f64]) {
    check_block(dim, block.len(), out.len());
    assert_eq!(q.len(), dim, "query dimensionality mismatch");
    // The dim dispatch is hoisted out of the row loop; the fixed-dim
    // branches index the flat block directly so LLVM can vectorize
    // *across rows* (each output is independent).
    match dim {
        1 => {
            let q0 = q[0];
            for (o, &x) in out.iter_mut().zip(block) {
                let d = q0 - x;
                *o = d * d;
            }
        }
        2 => {
            let (q0, q1) = (q[0], q[1]);
            for (i, o) in out.iter_mut().enumerate() {
                *o = sq2(q0 - block[2 * i], q1 - block[2 * i + 1]);
            }
        }
        3 => {
            let (q0, q1, q2) = (q[0], q[1], q[2]);
            for (i, o) in out.iter_mut().enumerate() {
                *o = sq3(q0 - block[3 * i], q1 - block[3 * i + 1], q2 - block[3 * i + 2]);
            }
        }
        4 => {
            let (q0, q1, q2, q3) = (q[0], q[1], q[2], q[3]);
            for (i, o) in out.iter_mut().enumerate() {
                *o = sq4(
                    q0 - block[4 * i],
                    q1 - block[4 * i + 1],
                    q2 - block[4 * i + 2],
                    q3 - block[4 * i + 3],
                );
            }
        }
        _ => {
            for (o, row) in out.iter_mut().zip(block.chunks_exact(dim)) {
                *o = sq_general(q, row);
            }
        }
    }
}

/// Many-to-many tile kernel: `out[i * nb + j]` = squared distance from row
/// `i` of `a` to row `j` of `b` (`nb` = rows of `b`). Callers tile `b` to
/// their cache budget; every entry is bit-identical to `sq_dist` on the
/// pair, so tiling cannot change results.
///
/// # Panics
///
/// Panics if either block is not row-major of dimension `dim` or
/// `out.len() != rows(a) * rows(b)`.
pub fn dist_tile(a: &[f64], b: &[f64], dim: usize, out: &mut [f64]) {
    assert!(dim > 0, "dimensionality must be positive");
    assert!(a.len().is_multiple_of(dim), "tile a is not row-major of dimension {dim}");
    assert!(b.len().is_multiple_of(dim), "tile b is not row-major of dimension {dim}");
    let nb = b.len() / dim;
    assert_eq!(out.len(), (a.len() / dim) * nb, "output length must be rows(a) * rows(b)");
    for (row, o) in a.chunks_exact(dim).zip(out.chunks_exact_mut(nb.max(1))) {
        dists_to_block(row, b, dim, o);
    }
}

/// Gathered one-to-many kernel: squared distances from `q` to the points
/// `ids` of the row-major `flat` buffer (`out[i]` = point `ids[i]`). The
/// dimension dispatch is hoisted out of the gather loop, so candidate
/// lists from cell or leaf enumeration pay it once per batch instead of
/// once per pair. Bit-identical to `sq_dist` per pair.
///
/// # Panics
///
/// Panics if `out.len() != ids.len()`, `q.len() != dim`, or an id is out
/// of range of `flat`.
pub fn dists_to_indexed(q: &[f64], flat: &[f64], dim: usize, ids: &[u32], out: &mut [f64]) {
    assert!(dim > 0, "dimensionality must be positive");
    assert_eq!(q.len(), dim, "query dimensionality mismatch");
    assert_eq!(out.len(), ids.len(), "output length must equal the candidate count");
    let row = |id: u32| &flat[id as usize * dim..id as usize * dim + dim];
    match dim {
        2 => {
            let (q0, q1) = (q[0], q[1]);
            for (o, &id) in out.iter_mut().zip(ids) {
                let p = row(id);
                *o = sq2(q0 - p[0], q1 - p[1]);
            }
        }
        3 => {
            let (q0, q1, q2) = (q[0], q[1], q[2]);
            for (o, &id) in out.iter_mut().zip(ids) {
                let p = row(id);
                *o = sq3(q0 - p[0], q1 - p[1], q2 - p[2]);
            }
        }
        4 => {
            let (q0, q1, q2, q3) = (q[0], q[1], q[2], q[3]);
            for (o, &id) in out.iter_mut().zip(ids) {
                let p = row(id);
                *o = sq4(q0 - p[0], q1 - p[1], q2 - p[2], q3 - p[3]);
            }
        }
        _ => {
            for (o, &id) in out.iter_mut().zip(ids) {
                *o = sq_general(q, row(id));
            }
        }
    }
}

/// Fused one-to-many 1-NN: the row index and squared distance of the
/// first minimum of `sq_dist(q, row)` over the rows of `block`, ties to
/// the lower row; `(0, ∞)` for an empty block. The running minimum is
/// kept with selects, not branches, so a short candidate list costs no
/// mispredictions. Bit-identical to [`dists_to_block`] followed by a
/// strict-`<` scan.
///
/// # Panics
///
/// Panics if `block` is not row-major of dimension `dim` or
/// `q.len() != dim`.
#[inline]
pub fn nearest_row(q: &[f64], block: &[f64], dim: usize) -> (usize, f64) {
    assert!(dim > 0, "dimensionality must be positive");
    assert!(block.len().is_multiple_of(dim), "block is not row-major of dimension {dim}");
    assert_eq!(q.len(), dim, "query dimensionality mismatch");
    let (mut at, mut best) = (0, f64::INFINITY);
    let mut keep = |j: usize, d2: f64| {
        // Strict `<` keeps the earliest (lowest-row) minimum.
        let lower = d2 < best;
        at = if lower { j } else { at };
        best = if lower { d2 } else { best };
    };
    if dim == 2 {
        let (q0, q1) = (q[0], q[1]);
        for (j, p) in block.chunks_exact(2).enumerate() {
            keep(j, sq2(q0 - p[0], q1 - p[1]));
        }
    } else {
        for (j, p) in block.chunks_exact(dim).enumerate() {
            keep(j, sq_dist(q, p));
        }
    }
    (at, best)
}

/// Tiled 1-NN reduction: for every row of `queries`, the index (into
/// `reps` rows) and squared distance of its nearest representative, ties
/// broken toward the lower index. Representatives are scanned in
/// [`NN_TILE_ROWS`]-row tiles so a tile's coordinates stay cache-hot
/// across the query block; the scan order per query is always ascending
/// rep index, so the winner is independent of the tiling and of how the
/// caller chunks the query set.
///
/// # Panics
///
/// Panics if either block is not row-major of dimension `dim`, `reps` is
/// empty, the output slices differ from the query row count, or `reps`
/// has more than `u32::MAX` rows.
pub fn nn_block(
    queries: &[f64],
    reps: &[f64],
    dim: usize,
    best_id: &mut [u32],
    best_d2: &mut [f64],
) {
    assert!(dim > 0, "dimensionality must be positive");
    assert!(queries.len().is_multiple_of(dim), "queries not row-major of dimension {dim}");
    assert!(reps.len().is_multiple_of(dim), "reps not row-major of dimension {dim}");
    let nr = reps.len() / dim;
    assert!(nr > 0, "cannot classify against an empty representative block");
    assert!(nr <= u32::MAX as usize, "representative ids exceed u32");
    let nq = queries.len() / dim;
    assert_eq!(best_id.len(), nq, "best_id length must equal the query row count");
    assert_eq!(best_d2.len(), nq, "best_d2 length must equal the query row count");

    best_d2.fill(f64::INFINITY);
    best_id.fill(0);
    let mut buf = [0.0f64; NN_TILE_ROWS];
    for (t, tile) in reps.chunks(NN_TILE_ROWS * dim).enumerate() {
        let rows = tile.len() / dim;
        let base = (t * NN_TILE_ROWS) as u32;
        for (qi, q) in queries.chunks_exact(dim).enumerate() {
            dists_to_block(q, tile, dim, &mut buf[..rows]);
            let (mut bd, mut bi) = (best_d2[qi], best_id[qi]);
            for (j, &d2) in buf[..rows].iter().enumerate() {
                // Strict `<` keeps the earliest (lowest-id) minimum —
                // the repo-wide `(dist, id)` tie-break.
                if d2 < bd {
                    bd = d2;
                    bi = base + j as u32;
                }
            }
            best_d2[qi] = bd;
            best_id[qi] = bi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(points: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..points * dim)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
            })
            .collect()
    }

    #[test]
    fn matches_reference_bitwise_across_dims() {
        for dim in 1..=19 {
            let a = pseudo(1, dim, 3 * dim as u64 + 1);
            let b = pseudo(1, dim, 7 * dim as u64 + 5);
            assert_eq!(
                sq_dist(&a, &b).to_bits(),
                sq_dist_reference(&a, &b).to_bits(),
                "dim = {dim}"
            );
        }
    }

    #[test]
    fn low_dims_match_historic_left_to_right_sum() {
        // For d <= 3 the canonical order degenerates to the plain
        // sequential sum the repo used before the kernel layer existed.
        for dim in 1..=3 {
            let a = pseudo(1, dim, 11);
            let b = pseudo(1, dim, 13);
            let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| (x - y) * (x - y)).sum();
            assert_eq!(sq_dist(&a, &b).to_bits(), naive.to_bits(), "dim = {dim}");
        }
    }

    #[test]
    fn block_kernel_equals_per_pair_calls() {
        for dim in [1usize, 2, 3, 4, 7, 12] {
            let q = pseudo(1, dim, 17);
            let block = pseudo(100, dim, 23 + dim as u64);
            let mut out = vec![0.0; 100];
            dists_to_block(&q, &block, dim, &mut out);
            for (i, row) in block.chunks_exact(dim).enumerate() {
                assert_eq!(out[i].to_bits(), sq_dist(&q, row).to_bits(), "dim {dim} row {i}");
            }
        }
    }

    #[test]
    fn tile_and_indexed_kernels_agree_with_block() {
        for dim in [2usize, 3, 4, 9] {
            let a = pseudo(7, dim, 29);
            let b = pseudo(33, dim, 31);
            let mut tile = vec![0.0; 7 * 33];
            dist_tile(&a, &b, dim, &mut tile);
            let ids: Vec<u32> = (0..33).rev().collect();
            let mut gathered = vec![0.0; 33];
            for (i, q) in a.chunks_exact(dim).enumerate() {
                let mut row = vec![0.0; 33];
                dists_to_block(q, &b, dim, &mut row);
                assert_eq!(&tile[i * 33..(i + 1) * 33], &row[..], "dim {dim} row {i}");
                dists_to_indexed(q, &b, dim, &ids, &mut gathered);
                for (g, &id) in gathered.iter().zip(&ids) {
                    assert_eq!(g.to_bits(), row[id as usize].to_bits());
                }
            }
        }
    }

    #[test]
    fn nn_block_picks_lowest_id_on_ties() {
        // Three identical reps: every query must classify to rep 0.
        let reps = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let queries = pseudo(10, 2, 37);
        let mut ids = vec![99u32; 10];
        let mut d2 = vec![0.0; 10];
        nn_block(&queries, &reps, 2, &mut ids, &mut d2);
        assert!(ids.iter().all(|&i| i == 0), "ids = {ids:?}");
    }

    #[test]
    fn nn_block_is_tile_boundary_exact() {
        // More reps than one tile: the reduction must cross tile borders
        // without disturbing the ascending-id scan order.
        let dim = 3;
        let reps = pseudo(NN_TILE_ROWS * 2 + 17, dim, 41);
        let queries = pseudo(50, dim, 43);
        let mut ids = vec![0u32; 50];
        let mut d2 = vec![0.0; 50];
        nn_block(&queries, &reps, dim, &mut ids, &mut d2);
        for (qi, q) in queries.chunks_exact(dim).enumerate() {
            let mut all = vec![0.0; reps.len() / dim];
            dists_to_block(q, &reps, dim, &mut all);
            let (mut bi, mut bd) = (0u32, f64::INFINITY);
            for (j, &d) in all.iter().enumerate() {
                if d < bd {
                    bd = d;
                    bi = j as u32;
                }
            }
            assert_eq!((ids[qi], d2[qi].to_bits()), (bi, bd.to_bits()), "query {qi}");
        }
    }

    #[test]
    fn nearest_row_is_the_first_minimum_of_the_block_kernel() {
        for dim in [1usize, 2, 3, 5] {
            let q = pseudo(1, dim, 47);
            let block = pseudo(40, dim, 53 + dim as u64);
            let mut all = vec![0.0; 40];
            dists_to_block(&q, &block, dim, &mut all);
            let (mut bi, mut bd) = (0usize, f64::INFINITY);
            for (j, &d) in all.iter().enumerate() {
                if d < bd {
                    bd = d;
                    bi = j;
                }
            }
            let (at, d2) = nearest_row(&q, &block, dim);
            assert_eq!((at, d2.to_bits()), (bi, bd.to_bits()), "dim {dim}");
        }
        // Ties go to the lower row; an empty block reports (0, ∞).
        let reps = [3.0, 0.0, 0.0, 3.0, -3.0, 0.0];
        assert_eq!(nearest_row(&[0.0, 0.0], &reps, 2), (0, 9.0));
        assert_eq!(nearest_row(&[0.0, 0.0], &[], 2), (0, f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "row-major")]
    fn ragged_block_panics() {
        let mut out = [0.0; 1];
        dists_to_block(&[0.0, 0.0], &[1.0, 2.0, 3.0], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "empty representative block")]
    fn nn_block_empty_reps_panics() {
        let (mut ids, mut d2) = ([0u32; 1], [0.0f64; 1]);
        nn_block(&[0.0, 0.0], &[], 2, &mut ids, &mut d2);
    }
}
