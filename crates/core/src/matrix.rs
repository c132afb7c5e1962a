//! [`BubbleDistanceMatrix`]: the symmetric k×k bubble-distance matrix,
//! computed once (in parallel row blocks) and served as sorted rows.
//!
//! The OPTICS walk over bubbles asks for the ε-neighbourhood of every
//! bubble at least once, and sub-MinPts expansion may ask for unbounded
//! neighbourhoods again — each query an exhaustive O(k) scan plus an
//! O(k log k) sort. [`crate::bubble_distance`] is exactly symmetric in IEEE
//! floats ((x−y)² == (y−x)², commutative additions, `max`), so the whole
//! matrix can be evaluated once up front; every later query is then a
//! binary search for the ε prefix of a pre-sorted row.
//!
//! # Determinism contract
//!
//! Rows are independent: each worker thread fills a pre-assigned
//! contiguous block of rows, and the per-row content (distances and the
//! `(dist, id)` sort) never depends on the thread layout. The build is
//! therefore bit-for-bit identical for every thread count, and a
//! matrix-served neighbourhood is bit-for-bit identical to the on-the-fly
//! scan in [`crate::BubbleSpace`] (same distances, same comparator, and
//! the ε filter `d <= eps` selects exactly the sorted row's prefix).

use std::num::NonZeroUsize;

use db_spatial::{id_u32, Neighbor};
use db_supervise::{catch_shared, fault, first_stop, panic_message, Stop, Supervisor};

use crate::bubble::DataBubble;
use crate::distance::bubble_distance_from_parts;

/// Default cap on the number of bubbles for which the matrix is
/// precomputed. A row costs 12 bytes per entry (`u32` id + `f64`
/// distance), so the cap bounds the matrix at ~3 GiB; the paper's
/// operating point is k ≤ a few thousand (§8: "the purpose of our
/// approach is to make k very small"), far below it. Above the cap the
/// space falls back to on-the-fly evaluation with identical results.
pub const DEFAULT_MAX_MATRIX_K: usize = 16_384;

/// A precomputed symmetric bubble-distance matrix with each row sorted
/// ascending by `(distance, id)` — the neighbourhood order of
/// [`crate::BubbleSpace`].
#[derive(Debug, Clone)]
pub struct BubbleDistanceMatrix {
    k: usize,
    /// Row-major bubble ids, row `i` sorted by `(dists[i][j], id)`.
    ids: Vec<u32>,
    /// Row-major distances, each row ascending.
    dists: Vec<f64>,
}

impl BubbleDistanceMatrix {
    /// Builds the matrix over `bubbles` with `threads` workers (`None` =
    /// available parallelism). The k² distance evaluations are counted
    /// under `optics.distance_calls`, exactly as the on-the-fly scans they
    /// replace would have been.
    ///
    /// # Panics
    ///
    /// Panics if `bubbles` is empty or `k * k` entries would overflow
    /// `usize`.
    pub fn build(bubbles: &[DataBubble], threads: Option<NonZeroUsize>) -> Self {
        match Self::build_supervised(bubbles, threads, &Supervisor::unlimited()) {
            Ok(m) => m,
            Err(stop) => panic!("unsupervised matrix build stopped: {stop}"),
        }
    }

    /// [`BubbleDistanceMatrix::build`] under supervision: the supervisor is
    /// consulted before every row (a row is O(k log k), so the reaction
    /// latency stays tiny against the 50ms target) and worker panics are
    /// captured. On `Err` the whole matrix is discarded; on `Ok` the
    /// result is bit-for-bit the unsupervised one.
    ///
    /// # Errors
    ///
    /// [`Stop`] when cancelled, past the deadline, or a worker panicked.
    ///
    /// # Panics
    ///
    /// Panics if `bubbles` is empty or `k * k` entries would overflow
    /// `usize`.
    pub fn build_supervised(
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

        let mut ids = vec![0u32; cells];
        let mut dists = vec![0f64; cells];
        // `scratch` holds one row of squared center distances; each worker
        // brings its own so rows stay independent.
        let fill_row = |i: usize,
                        id_row: &mut [u32],
                        dist_row: &mut [f64],
                        scratch: &mut Vec<f64>| {
            scratch.resize(k, 0.0);
            db_spatial::dists_to_block(&reps_flat[i * dim..(i + 1) * dim], reps_flat, dim, scratch);
            let (e_i, n_i) = (extents[i], nn1[i]);
            let mut row: Vec<(f64, u32)> = scratch
                .iter()
                .enumerate()
                // Lossless: `j < k` and the compressors cap k at the
                // dataset length, which `Dataset` bounds by `u32` ids.
                .map(|(j, &d2)| {
                    let d = if i == j {
                        0.0
                    } else {
                        // `d2.sqrt()` is bit-identical to the scalar path's
                        // `euclidean(rep_i, rep_j)` (shared kernel).
                        // db-audit: allow(no-naked-sqrt) -- flush site: Def. 10 bubble
                        // distance is defined in true space; one conversion per matrix
                        // entry, counted by the kernel's sqrt accounting.
                        bubble_distance_from_parts(d2.sqrt(), e_i, extents[j], n_i, nn1[j])
                    };
                    (d, id_u32(j))
                })
                .collect();
            // Same comparator as the on-the-fly neighbourhood sort.
            row.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for (slot, (d, j)) in id_row.iter_mut().zip(dist_row.iter_mut()).zip(row) {
                *slot.0 = j;
                *slot.1 = d;
            }
        };

        if threads <= 1 {
            let mut scratch = Vec::new();
            for i in 0..k {
                sup.check()?;
                fill_row(
                    i,
                    &mut ids[i * k..(i + 1) * k],
                    &mut dists[i * k..(i + 1) * k],
                    &mut scratch,
                );
            }
        } else {
            // Contiguous row blocks per thread; rows are independent, so
            // the result cannot depend on this schedule. Worker time is
            // linked back into the build span (child-time, same trace run),
            // and each body runs under panic capture so one bad block
            // surfaces as `Stop::Panicked` instead of unwinding the scope.
            let parent = span.handle();
            let rows_per_thread = k.div_ceil(threads);
            let fill_row = &fill_row;
            let mut results: Vec<Result<(), Stop>> = Vec::with_capacity(threads);
            std::thread::scope(|scope| {
                let id_blocks = ids.chunks_mut(rows_per_thread * k);
                let dist_blocks = dists.chunks_mut(rows_per_thread * k);
                let handles: Vec<_> = id_blocks
                    .zip(dist_blocks)
                    .enumerate()
                    .map(|(t, (id_block, dist_block))| {
                        let parent = &parent;
                        scope.spawn(move || {
                            catch_shared(|| {
                                let _s = db_obs::span_linked!("optics.matrix_fill", parent);
                                fault::inject("matrix.worker", sup.token());
                                let first = t * rows_per_thread;
                                let rows = id_block.len() / k;
                                let mut scratch = Vec::new();
                                for r in 0..rows {
                                    sup.check()?;
                                    fill_row(
                                        first + r,
                                        &mut id_block[r * k..(r + 1) * k],
                                        &mut dist_block[r * k..(r + 1) * k],
                                        &mut scratch,
                                    );
                                }
                                Ok(())
                            })
                        })
                    })
                    .collect();
                for handle in handles {
                    results.push(handle.join().unwrap_or_else(|payload| {
                        Err(Stop::Panicked { message: panic_message(payload.as_ref()) })
                    }));
                }
            });
            first_stop(results)?;
        }
        // One evaluation per (row, column) pair — the same count the
        // replaced exhaustive scans would have reported.
        db_obs::counter!("optics.distance_calls").add(cells as u64);
        Ok(Self { k, ids, dists })
    }

    /// Number of bubbles (the matrix is `k × k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row `i` as parallel `(ids, distances)` slices, sorted ascending by
    /// `(distance, id)`; entry 0 is the bubble itself at distance 0.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = i * self.k;
        let hi = lo + self.k;
        (&self.ids[lo..hi], &self.dists[lo..hi])
    }

    /// Scatters the tail of row `i` back into id order: `out[j] =
    /// dist(i, j)` for every `j > i`; other entries are left untouched.
    /// One O(k) pass over the sorted row, no distance evaluation.
    pub(crate) fn row_tail_into(&self, i: usize, out: &mut [f64]) {
        let (ids, dists) = self.row(i);
        for (&j, &d) in ids.iter().zip(dists) {
            let j = j as usize;
            if j > i {
                out[j] = d;
            }
        }
    }

    /// Appends the ε-neighbourhood of bubble `i` to `out`, identical to
    /// the exhaustive scan-and-sort (the row prefix with `d <= eps`).
    pub fn neighborhood_into(&self, i: usize, eps: f64, out: &mut Vec<Neighbor>) {
        let (ids, dists) = self.row(i);
        let end = dists.partition_point(|&d| d <= eps);
        out.extend(
            ids[..end].iter().zip(&dists[..end]).map(|(&id, &d)| Neighbor::new(id as usize, d)),
        );
    }

    /// Matrix memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u32>() + self.dists.len() * std::mem::size_of::<f64>()
    }
}

/// Resolves a thread-count knob: `None` means available parallelism,
/// clamped to `[1, work_items]`.
pub(crate) fn resolve_threads(threads: Option<NonZeroUsize>, work_items: usize) -> usize {
    threads
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get)
        .min(work_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let base = BubbleDistanceMatrix::build(&bs, NonZeroUsize::new(1));
        for threads in [2usize, 3, 7, 64] {
            let m = BubbleDistanceMatrix::build(&bs, NonZeroUsize::new(threads));
            assert_eq!(m.ids, base.ids, "threads = {threads}");
            assert_eq!(m.dists, base.dists, "threads = {threads}");
        }
        let m = BubbleDistanceMatrix::build(&bs, None);
        assert_eq!(m.ids, base.ids);
        assert_eq!(m.dists, base.dists);
    }

    #[test]
    fn rows_are_sorted_and_start_with_self() {
        let bs = bubbles(20);
        let m = BubbleDistanceMatrix::build(&bs, None);
        assert_eq!(m.k(), 20);
        for i in 0..20 {
            let (ids, dists) = m.row(i);
            assert_eq!(ids[0] as usize, i, "self is the closest entry");
            assert_eq!(dists[0], 0.0);
            assert!(dists.windows(2).all(|w| w[0] <= w[1]), "row {i} not sorted");
            let mut seen: Vec<u32> = ids.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<u32>>(), "row {i} not a permutation");
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let bs = bubbles(15);
        let m = BubbleDistanceMatrix::build(&bs, None);
        let lookup = |i: usize, j: usize| {
            let (ids, dists) = m.row(i);
            let pos = ids.iter().position(|&id| id as usize == j).unwrap();
            dists[pos]
        };
        for i in 0..15 {
            for j in 0..15 {
                assert_eq!(lookup(i, j).to_bits(), lookup(j, i).to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn neighborhood_prefix_matches_filter() {
        let bs = bubbles(30);
        let m = BubbleDistanceMatrix::build(&bs, None);
        for eps in [0.0, 1.0, 10.0, f64::INFINITY] {
            let mut out = Vec::new();
            m.neighborhood_into(3, eps, &mut out);
            let (ids, dists) = m.row(3);
            let expected: Vec<Neighbor> = ids
                .iter()
                .zip(dists)
                .filter(|(_, &d)| d <= eps)
                .map(|(&id, &d)| Neighbor::new(id as usize, d))
                .collect();
            assert_eq!(out, expected, "eps = {eps}");
        }
    }

    #[test]
    fn memory_accounting() {
        let m = BubbleDistanceMatrix::build(&bubbles(8), None);
        assert_eq!(m.memory_bytes(), 8 * 8 * 12);
    }

    #[test]
    #[should_panic(expected = "zero bubbles")]
    fn empty_build_panics() {
        BubbleDistanceMatrix::build(&[], None);
    }
}
