//! The OPTICS walk and DBSCAN do not depend on neighbourhood order.
//!
//! `BubbleSpace` answers neighbourhood queries in id order (matrix and
//! on-the-fly alike) and never sorts them; `OpticsSpace::neighborhood`
//! leaves the order to the space. This suite licenses that contract:
//!
//! * `Sorted<S>` wraps any space and sorts each neighbourhood ascending by
//!   `DistId` — the order every bubble neighbourhood used to come in.
//!   `optics` and `dbscan_core` over `BubbleSpace`, with the matrix on and
//!   off, must equal their result over the adaptor bit for bit. The
//!   adaptor does not offer distance rows, so it is walked with the seed
//!   heap while `BubbleSpace` is walked row by row: every walk comparison
//!   here is the row walk against the heap walk;
//! * Definition 7's sub-MinPts case, which needs neighbours by distance,
//!   must equal a full-sort reference, in the walk (`core_distance`) and
//!   outside it (`core_distance_unbounded`).
//!
//! The corpora aim at the places an order slip would show: exact ties
//! (duplicate floods), k ∈ {1, 2}, finite and infinite ε, and MinPts above
//! the bubble sizes so the sub-MinPts case runs.

use data_bubbles::{bubble_distance, BubbleSpace, DataBubble};
use db_datagen::{adversarial, differential_corpora, ds1, Ds1Params};
use db_optics::{dbscan_core, optics, ClusterOrdering, OpticsParams, OpticsSpace};
use db_sampling::compress_by_sampling;
use db_spatial::order::DistId;
use db_spatial::{Dataset, Neighbor};

/// Test-only adaptor: the inner space with every neighbourhood sorted
/// ascending by `DistId`.
struct Sorted<S: OpticsSpace>(S);

impl<S: OpticsSpace> OpticsSpace for Sorted<S> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn neighborhood(&self, i: usize, eps: f64, out: &mut Vec<Neighbor>) {
        self.0.neighborhood(i, eps, out);
        out.sort_by_key(|nb| DistId(nb.dist, nb.id));
    }

    fn weight(&self, i: usize) -> u64 {
        self.0.weight(i)
    }

    fn core_distance(&self, i: usize, min_pts: usize, neighborhood: &[Neighbor]) -> Option<f64> {
        self.0.core_distance(i, min_pts, neighborhood)
    }
}

/// The Data Bubbles of a `k`-representative sampling compression of `ds`.
fn bubbles_of(ds: &Dataset, k: usize, seed: u64) -> Vec<DataBubble> {
    let c = compress_by_sampling(ds, k, seed).expect("compress");
    c.stats.iter().map(DataBubble::try_from_cf).collect::<Result<_, _>>().expect("bubbles")
}

/// Bubbles that tie exactly: copies of one (rep, n, extent) triple at a
/// few positions, so many pairwise distances are bit-equal.
fn duplicate_flood() -> Vec<DataBubble> {
    let mut bubbles = Vec::new();
    for (x, copies, n) in [(0.0, 5, 3), (3.0, 1, 2), (3.0, 3, 2), (10.0, 4, 1), (11.0, 2, 6)] {
        for _ in 0..copies {
            bubbles.push(DataBubble::new(vec![x, 1.0], n, 0.0));
        }
    }
    bubbles
}

/// Every field of every entry, floats as bits.
fn ordering_bits(o: &ClusterOrdering) -> Vec<(usize, u64, u64, u64)> {
    o.entries
        .iter()
        .map(|e| (e.id, e.reachability.to_bits(), e.core_distance.to_bits(), e.weight))
        .collect()
}

/// ε values worth probing: ∞, 0, and realized pairwise distances at a few
/// quantiles (each an exact boundary of some neighbourhood).
fn eps_values(bubbles: &[DataBubble]) -> Vec<f64> {
    let mut d: Vec<f64> = Vec::new();
    for (i, b) in bubbles.iter().enumerate() {
        for c in &bubbles[i + 1..] {
            d.push(bubble_distance(b, c, false));
        }
    }
    d.sort_by(f64::total_cmp);
    let mut eps = vec![f64::INFINITY, 0.0];
    if !d.is_empty() {
        eps.extend([d[0], d[d.len() / 10], d[d.len() / 2]]);
    }
    eps
}

/// MinPts values from the common case to beyond the total weight, with
/// several above the largest bubble so the sub-MinPts case runs.
fn min_pts_values(bubbles: &[DataBubble]) -> Vec<usize> {
    let largest = bubbles.iter().map(DataBubble::n).max().unwrap_or(1) as usize;
    let total: usize = bubbles.iter().map(|b| b.n() as usize).sum();
    vec![1, 4, largest + 1, 3 * largest + 2, total, total + 1]
}

/// Walks and DBSCAN over the id-ordered spaces (matrix on and off) must
/// equal the walks over their `Sorted` adaptors, bit for bit.
fn check_walks(name: &str, bubbles: &[DataBubble]) {
    let plain = BubbleSpace::try_new(bubbles.to_vec()).expect("space");
    let mut with_matrix = BubbleSpace::try_new(bubbles.to_vec()).expect("space");
    assert!(with_matrix.precompute_matrix(None, usize::MAX), "{name}: matrix must be built");
    let sorted = Sorted(plain.clone());
    for eps in eps_values(bubbles) {
        for min_pts in min_pts_values(bubbles) {
            let case = format!("{name}: eps={eps} MinPts={min_pts}");
            let params = OpticsParams { eps, min_pts };
            let want = ordering_bits(&optics(&sorted, &params));
            assert_eq!(ordering_bits(&optics(&plain, &params)), want, "{case}: on the fly");
            assert_eq!(ordering_bits(&optics(&with_matrix, &params)), want, "{case}: matrix");
            let want = dbscan_core(&sorted, eps, min_pts);
            assert_eq!(dbscan_core(&plain, eps, min_pts), want, "{case}: dbscan on the fly");
            assert_eq!(dbscan_core(&with_matrix, eps, min_pts), want, "{case}: dbscan matrix");
        }
    }
}

/// Definition 7 the way it reads: sort the neighbourhood by `DistId` and
/// accumulate point counts until MinPts is covered.
fn reference_core_distance(
    bubbles: &[DataBubble],
    i: usize,
    min_pts: usize,
    neighborhood: &[Neighbor],
) -> Option<f64> {
    let min_pts = min_pts as u64;
    if neighborhood.iter().map(|nb| bubbles[nb.id].n()).sum::<u64>() < min_pts {
        return None;
    }
    if bubbles[i].n() >= min_pts {
        return Some(bubbles[i].nndist(min_pts));
    }
    let mut sorted = neighborhood.to_vec();
    sorted.sort_by_key(|nb| DistId(nb.dist, nb.id));
    let mut covered = 0u64;
    for nb in sorted {
        let c = &bubbles[nb.id];
        if covered + c.n() >= min_pts {
            return Some(nb.dist + c.nndist(min_pts - covered));
        }
        covered += c.n();
    }
    unreachable!("the neighbourhood holds at least MinPts points")
}

/// In-walk and unbounded core distances, matrix on and off, must equal
/// the full-sort reference bit for bit.
fn check_core_distances(name: &str, bubbles: &[DataBubble]) {
    let plain = BubbleSpace::try_new(bubbles.to_vec()).expect("space");
    let mut with_matrix = BubbleSpace::try_new(bubbles.to_vec()).expect("space");
    assert!(with_matrix.precompute_matrix(None, usize::MAX), "{name}: matrix must be built");
    let bits = |c: Option<f64>| c.map(f64::to_bits);
    let mut nb = Vec::new();
    for i in 0..bubbles.len() {
        for min_pts in min_pts_values(bubbles) {
            for eps in eps_values(bubbles) {
                plain.neighborhood(i, eps, &mut nb);
                let want = bits(reference_core_distance(bubbles, i, min_pts, &nb));
                let case = format!("{name}: bubble {i} eps={eps} MinPts={min_pts}");
                assert_eq!(bits(plain.core_distance(i, min_pts, &nb)), want, "{case}");
                with_matrix.neighborhood(i, eps, &mut nb);
                assert_eq!(bits(with_matrix.core_distance(i, min_pts, &nb)), want, "{case}");
            }
            plain.neighborhood(i, f64::INFINITY, &mut nb);
            let want = bits(reference_core_distance(bubbles, i, min_pts, &nb));
            let case = format!("{name}: bubble {i} unbounded MinPts={min_pts}");
            assert_eq!(bits(plain.core_distance_unbounded(i, min_pts)), want, "{case}");
            assert_eq!(bits(with_matrix.core_distance_unbounded(i, min_pts)), want, "{case}");
        }
    }
}

/// The corpora: the differential corpora at k ∈ {1, 2, 17, 60}, the
/// zero-variance duplicates corpus at k ∈ {1, 2, 9, 30}, and the
/// hand-built duplicate flood.
fn corpora() -> Vec<(String, Vec<DataBubble>)> {
    let mut out = Vec::new();
    for corpus in differential_corpora(29) {
        for k in [1, 2, 17, 60] {
            out.push((format!("{} k={k}", corpus.name), bubbles_of(&corpus.labeled.data, k, 7)));
        }
    }
    let ds = adversarial::zero_variance_duplicates(3).build().expect("corpus");
    for k in [1, 2, 9, 30] {
        out.push((format!("duplicates k={k}"), bubbles_of(&ds, k.min(ds.len()), 11)));
    }
    out.push(("duplicate flood".to_string(), duplicate_flood()));
    out
}

#[test]
fn walk_and_dbscan_ignore_neighborhood_order() {
    for (name, bubbles) in corpora() {
        check_walks(&name, &bubbles);
    }
}

#[test]
fn sub_min_pts_core_distances_match_a_full_sort_reference() {
    for (name, bubbles) in corpora() {
        check_core_distances(&name, &bubbles);
    }
}

#[test]
fn duplicate_flood_ties_exactly_and_runs_the_sub_min_pts_case() {
    // Guards the corpus itself: without exact ties and sub-MinPts bubbles
    // the two tests above would not reach the code they pin.
    let bubbles = duplicate_flood();
    let ties = bubbles.iter().enumerate().flat_map(|(i, b)| {
        bubbles[i + 1..].iter().filter(move |c| bubble_distance(b, c, false) == 0.0)
    });
    assert!(ties.count() > 0, "the flood must contain exact ties");
    let largest = bubbles.iter().map(DataBubble::n).max().expect("non-empty");
    assert!(min_pts_values(&bubbles).iter().any(|&m| m as u64 > largest));
}

/// The row walk at a realistic size: DS1 compressed to k = 1000 bubbles.
/// Over `BubbleSpace`, with the matrix (stored rows, core-distances up
/// front) and without it (rows evaluated one at a time), the walk must
/// equal the heap walk over the `Sorted` adaptor bit for bit, at ∞ and at
/// a finite ε that splits the bubbles into many components, with MinPts
/// above most bubble sizes so most core-distances are Def. 7's rare case.
#[test]
fn ds1_row_walks_equal_the_heap_walk() {
    let ds = ds1(&Ds1Params { n: 20_000, ..Ds1Params::default() }, 5).data;
    let bubbles = bubbles_of(&ds, 1000, 3);
    let plain = BubbleSpace::try_new(bubbles.clone()).expect("space");
    let mut with_matrix = plain.clone();
    assert!(with_matrix.precompute_matrix(None, usize::MAX), "matrix must be built");
    let sorted = Sorted(plain.clone());
    let mut sizes: Vec<u64> = bubbles.iter().map(DataBubble::n).collect();
    sizes.sort_unstable();
    let above_most = sizes[sizes.len() * 9 / 10] as usize + 1;
    let mut d: Vec<f64> = (0..bubbles.len())
        .flat_map(|i| (0..i).map(move |j| (i, j)))
        .map(|(i, j)| bubble_distance(&bubbles[i], &bubbles[j], false))
        .collect();
    d.sort_by(f64::total_cmp);
    for eps in [f64::INFINITY, d[d.len() / 100]] {
        for min_pts in [above_most, 5 * above_most] {
            let case = format!("DS1 k=1000: eps={eps} MinPts={min_pts}");
            let params = OpticsParams { eps, min_pts };
            let want = ordering_bits(&optics(&sorted, &params));
            assert_eq!(ordering_bits(&optics(&plain, &params)), want, "{case}: on the fly");
            assert_eq!(ordering_bits(&optics(&with_matrix, &params)), want, "{case}: matrix");
            if eps.is_finite() {
                let starts = want.iter().filter(|e| e.1 == f64::INFINITY.to_bits()).count();
                assert!(starts > 1, "{case}: a finite ε must leave several walk starts");
            }
        }
    }
}
