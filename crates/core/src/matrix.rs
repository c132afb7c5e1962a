//! [`BubbleDistanceMatrix`]: the symmetric k×k bubble-distance matrix,
//! computed once (in parallel row blocks) and served as id-ordered rows.
//!
//! The OPTICS walk over bubbles reads every bubble's full distance row
//! once, and sub-MinPts expansion may ask for unbounded core-distances
//! again — each an exhaustive O(k) scan. [`crate::bubble_distance`] is
//! exactly symmetric in IEEE floats ((x−y)² == (y−x)², commutative
//! additions, `max`), so the whole matrix can be evaluated once up front;
//! every later query is then a read of a stored row, with no distance
//! evaluation.
//!
//! Rows are stored in id order (`dists[i * k + j] = dist(i, j)`) and never
//! sorted: a neighbourhood may come in any order
//! ([`db_optics::OpticsSpace::neighborhood`]), so the build costs the
//! paper's O(k²) evaluations and nothing on top.
//!
//! # Determinism contract
//!
//! Rows are independent: each worker thread fills a pre-assigned
//! contiguous block of rows, and a row's content never depends on the
//! thread layout. The build is therefore bit-for-bit identical for every
//! thread count, and a matrix-served neighbourhood is bit-for-bit
//! identical to the on-the-fly scan in [`crate::BubbleSpace`] (same
//! distances, same id order, same `d <= eps` filter).

use std::num::NonZeroUsize;

use db_spatial::Neighbor;
use db_supervise::{resolve_threads, run_blocks, Stop, Supervisor};

use crate::bubble::DataBubble;
use crate::distance::bubble_distance_from_parts;

/// Default cap on the number of bubbles for which the matrix is
/// precomputed. A cell costs 8 bytes (one `f64` distance), so the cap
/// bounds the matrix at ~2 GiB; the paper's
/// operating point is k ≤ a few thousand (§8: "the purpose of our
/// approach is to make k very small"), far below it. Above the cap the
/// space falls back to on-the-fly evaluation with identical results.
pub const DEFAULT_MAX_MATRIX_K: usize = 16_384;

/// A precomputed symmetric bubble-distance matrix with rows in id order.
#[derive(Debug, Clone)]
pub struct BubbleDistanceMatrix {
    k: usize,
    /// Row-major distances: `dists[i * k + j] = dist(i, j)`.
    dists: Vec<f64>,
    /// Workers the build ran on; later passes over the rows reuse it.
    threads: usize,
}

impl BubbleDistanceMatrix {
    /// Builds the matrix over `bubbles` with `threads` workers (`None` =
    /// available parallelism) under supervision: `sup` is consulted before
    /// every row (a row is O(k), so the reaction latency stays tiny against
    /// the 50ms target) and worker panics are captured. On `Err` the whole
    /// matrix is discarded. The k² distance evaluations are counted under
    /// `optics.distance_calls`, exactly as the on-the-fly scans they
    /// replace would have been.
    ///
    /// # Errors
    ///
    /// [`Stop`] when cancelled, past the deadline, or a worker panicked.
    ///
    /// # Panics
    ///
    /// Panics if `bubbles` is empty or `k * k` entries would overflow
    /// `usize`.
    pub fn build(
        bubbles: &[DataBubble],
        threads: Option<NonZeroUsize>,
        sup: &Supervisor,
    ) -> Result<Self, Stop> {
        let k = bubbles.len();
        assert!(k > 0, "cannot build a distance matrix over zero bubbles");
        let cells = k.checked_mul(k).expect("k * k overflows usize");
        let mut span = db_obs::span!("optics.matrix_build");
        let threads = resolve_threads(threads, k);
        db_obs::gauge!("optics.matrix_threads").set(threads as i64);

        // Hoist the per-bubble parts of Definition 6 out of the O(k²)
        // loop: a flat row-major block of representatives for the batched
        // center-distance kernel, plus extents and expected 1-NN
        // distances. Pure per-bubble functions, so hoisting is bit-neutral.
        let dim = bubbles[0].dim();
        let mut reps_flat = Vec::with_capacity(k * dim);
        let mut extents = Vec::with_capacity(k);
        let mut nn1 = Vec::with_capacity(k);
        for b in bubbles {
            assert_eq!(b.dim(), dim, "dimensionality mismatch");
            reps_flat.extend_from_slice(b.rep());
            extents.push(b.extent());
            nn1.push(b.nndist(1));
        }
        let reps_flat = &reps_flat;
        let (extents, nn1) = (&extents, &nn1);

        let mut dists = vec![0f64; cells];
        // Each row is written in place: the center-distance kernel fills
        // it with squared distances, then Definition 6 overwrites every
        // cell with the bubble distance. Rows are independent.
        let fill_row = |i: usize, row: &mut [f64]| {
            db_spatial::dists_to_block(&reps_flat[i * dim..(i + 1) * dim], reps_flat, dim, row);
            let (e_i, n_i) = (extents[i], nn1[i]);
            for (j, d) in row.iter_mut().enumerate() {
                *d = if i == j {
                    0.0
                } else {
                    // `d.sqrt()` is bit-identical to the scalar path's
                    // `euclidean(rep_i, rep_j)` (shared kernel).
                    // db-audit: allow(no-naked-sqrt) -- flush site: Def. 10 bubble
                    // distance is defined in true space; one conversion per matrix
                    // entry, counted by the kernel's sqrt accounting.
                    bubble_distance_from_parts(d.sqrt(), e_i, extents[j], n_i, nn1[j])
                };
            }
        };

        // Contiguous row blocks per worker; rows are independent, so the
        // result cannot depend on this schedule. Worker time is linked back
        // into the build span (child-time, same trace run).
        let parent = span.handle();
        run_blocks(
            &mut dists,
            k.div_ceil(threads) * k,
            threads,
            sup,
            "matrix.worker",
            || db_obs::span_linked!("optics.matrix_fill", &parent),
            |first, block| {
                for (r, row) in block.chunks_mut(k).enumerate() {
                    sup.check()?;
                    fill_row(first / k + r, row);
                }
                Ok(())
            },
        )?;
        // One evaluation per (row, column) pair — the same count the
        // replaced exhaustive scans would have reported.
        db_obs::counter!("optics.distance_calls").add(cells as u64);
        Ok(Self { k, dists, threads })
    }

    /// Number of bubbles (the matrix is `k × k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Worker threads the build ran on (the resolved thread knob).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Row `i` in id order: `row(i)[j] = dist(i, j)`, zero on the
    /// diagonal.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.dists[i * self.k..(i + 1) * self.k]
    }

    /// Copies the tail of row `i` into `out`: `out[j] = dist(i, j)` for
    /// every `j > i`; other entries are left untouched. No distance
    /// evaluation.
    pub(crate) fn row_tail_into(&self, i: usize, out: &mut [f64]) {
        out[i + 1..self.k].copy_from_slice(&self.row(i)[i + 1..]);
    }

    /// Appends the ε-neighbourhood of bubble `i` to `out` in id order:
    /// every `j` with `dist(i, j) <= eps`, the on-the-fly scan's filter.
    pub fn neighborhood_into(&self, i: usize, eps: f64, out: &mut Vec<Neighbor>) {
        out.extend(
            self.row(i)
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d <= eps)
                .map(|(j, &d)| Neighbor::new(j, d)),
        );
    }

    /// Matrix memory footprint in bytes (8 per cell).
    pub fn memory_bytes(&self) -> usize {
        self.dists.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(bubbles: &[DataBubble], threads: Option<NonZeroUsize>) -> BubbleDistanceMatrix {
        BubbleDistanceMatrix::build(bubbles, threads, &Supervisor::unlimited()).unwrap()
    }

    fn bubbles(n: usize) -> Vec<DataBubble> {
        (0..n)
            .map(|i| {
                DataBubble::new(
                    vec![(i % 37) as f64, ((i * 13) % 29) as f64],
                    (i as u64 % 9) + 1,
                    0.1 * (i % 5) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let bs = bubbles(61);
        let bits =
            |m: &BubbleDistanceMatrix| m.dists.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let base = bits(&build(&bs, NonZeroUsize::new(1)));
        for threads in [2usize, 3, 7, 64] {
            let m = build(&bs, NonZeroUsize::new(threads));
            assert_eq!(bits(&m), base, "threads = {threads}");
        }
        assert_eq!(bits(&build(&bs, None)), base);
    }

    #[test]
    fn rows_are_id_ordered_symmetric_with_zero_diagonal() {
        let bs = bubbles(20);
        let m = build(&bs, None);
        assert_eq!(m.k(), 20);
        for i in 0..20 {
            let row = m.row(i);
            assert_eq!(row.len(), 20, "row {i} has k entries");
            assert_eq!(row[i].to_bits(), 0f64.to_bits(), "row {i}: zero diagonal");
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d.to_bits(), m.row(j)[i].to_bits(), "({i}, {j}) not symmetric");
                let want = crate::bubble_distance(&bs[i], &bs[j], i == j);
                assert_eq!(d.to_bits(), want.to_bits(), "({i}, {j}) not in id order");
            }
        }
    }

    #[test]
    fn row_tail_copies_only_above_the_diagonal() {
        let m = build(&bubbles(9), None);
        for i in 0..9 {
            let mut out = vec![f64::NAN; 9];
            m.row_tail_into(i, &mut out);
            for (j, d) in out.iter().enumerate() {
                if j <= i {
                    assert!(d.is_nan(), "({i}, {j}) must stay untouched");
                } else {
                    assert_eq!(d.to_bits(), m.row(i)[j].to_bits(), "({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn neighborhood_is_the_id_ordered_filter() {
        let bs = bubbles(30);
        let m = build(&bs, None);
        for eps in [0.0, 1.0, 10.0, f64::INFINITY] {
            let mut out = Vec::new();
            m.neighborhood_into(3, eps, &mut out);
            let expected: Vec<Neighbor> = (0..30)
                .map(|j| Neighbor::new(j, m.row(3)[j]))
                .filter(|nb| nb.dist <= eps)
                .collect();
            assert_eq!(out, expected, "eps = {eps}");
        }
    }

    #[test]
    fn memory_accounting() {
        let m = build(&bubbles(8), None);
        assert_eq!(m.memory_bytes(), 8 * 8 * 8);
    }

    #[test]
    #[should_panic(expected = "zero bubbles")]
    fn empty_build_panics() {
        build(&[], None);
    }
}
