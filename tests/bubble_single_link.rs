//! Single link over Data Bubbles three ways, which must agree bit for bit:
//!
//! * SLINK over the rows of the precomputed `BubbleDistanceMatrix` (what a
//!   recluster that built the matrix serves labels from);
//! * SLINK over rows evaluated on the fly (matrix disabled, or k above
//!   `matrix_max_k`);
//! * the naive O(k³) `agglomerative_from_fn(Single)` loop.
//!
//! They must give the same merge heights, the same `cut_at_distance`
//! labels at every merge height and between heights, and those labels
//! must be the connected components of the bubble-distance threshold
//! graph — the oracle style of `tests/dendrogram_cut.rs`.

use data_bubbles::{bubble_distance, try_bubble_dendrogram, BubbleSpace, DataBubble};
use db_datagen::{adversarial, differential_corpora};
use db_hierarchical::{agglomerative_from_fn, Dendrogram, Linkage};
use db_sampling::compress_by_sampling;
use db_spatial::Dataset;

/// The Data Bubbles of a `k`-representative sampling compression of `ds`.
fn bubbles_of(ds: &Dataset, k: usize, seed: u64) -> Vec<DataBubble> {
    let c = compress_by_sampling(ds, k, seed).expect("compress");
    c.stats.iter().map(DataBubble::try_from_cf).collect::<Result<_, _>>().expect("bubbles")
}

/// Connected components of the threshold graph with an edge wherever the
/// bubble distance is `<= h`, labelled densely in first-bubble order (the
/// label convention of `Dendrogram::cut_at_distance`).
fn threshold_components(bubbles: &[DataBubble], h: f64) -> Vec<i32> {
    let k = bubbles.len();
    let mut parent: Vec<usize> = (0..k).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..k {
        for j in (i + 1)..k {
            if bubble_distance(&bubbles[i], &bubbles[j], false) <= h {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    let mut labels = vec![-1i32; k];
    let mut next = 0i32;
    let mut by_root = std::collections::HashMap::new();
    for (i, label) in labels.iter_mut().enumerate() {
        let r = find(&mut parent, i);
        *label = *by_root.entry(r).or_insert_with(|| {
            let l = next;
            next += 1;
            l
        });
    }
    labels
}

fn sorted_height_bits(d: &Dendrogram) -> Vec<u64> {
    let mut bits: Vec<u64> = d.merges().iter().map(|m| m.dist.to_bits()).collect();
    bits.sort_unstable();
    bits
}

/// The heights worth probing: every merge height, the midpoints between
/// consecutive distinct heights, and both extremes.
fn probe_heights(d: &Dendrogram) -> Vec<f64> {
    let mut heights: Vec<f64> = d.merges().iter().map(|m| m.dist).collect();
    heights.sort_by(f64::total_cmp);
    heights.dedup();
    let mut probes = vec![-1.0, 0.0, f64::INFINITY];
    probes.extend(heights.windows(2).map(|w| 0.5 * (w[0] + w[1])));
    probes.extend(heights);
    probes
}

fn check_three_ways(name: &str, bubbles: Vec<DataBubble>) {
    let k = bubbles.len();
    let naive = agglomerative_from_fn(k, Linkage::Single, |a, b| {
        bubble_distance(&bubbles[a], &bubbles[b], a == b)
    });
    let computed_space = BubbleSpace::try_new(bubbles.clone()).expect("space");
    let mut matrix_space = BubbleSpace::try_new(bubbles.clone()).expect("space");
    assert!(matrix_space.precompute_matrix(None, usize::MAX), "{name}: matrix must be built");
    assert!(!computed_space.has_matrix());
    let from_matrix = try_bubble_dendrogram(&matrix_space, Linkage::Single).expect("matrix");
    let computed = try_bubble_dendrogram(&computed_space, Linkage::Single).expect("computed");

    assert_eq!(from_matrix.n_leaves(), k, "{name}");
    let naive_bits = sorted_height_bits(&naive);
    assert_eq!(sorted_height_bits(&from_matrix), naive_bits, "{name}: matrix-row heights");
    assert_eq!(sorted_height_bits(&computed), naive_bits, "{name}: computed-row heights");

    for h in probe_heights(&naive) {
        let want = threshold_components(&bubbles, h);
        assert_eq!(naive.cut_at_distance(h), want, "{name}: naive cut at h={h}");
        assert_eq!(from_matrix.cut_at_distance(h), want, "{name}: matrix-row cut at h={h}");
        assert_eq!(computed.cut_at_distance(h), want, "{name}: computed-row cut at h={h}");
    }
}

#[test]
fn single_link_agrees_three_ways_on_the_differential_corpora() {
    for corpus in differential_corpora(13) {
        let ds = &corpus.labeled.data;
        for k in [1, 2, 17, 60] {
            check_three_ways(&format!("{} k={k}", corpus.name), bubbles_of(ds, k, 5));
        }
    }
}

#[test]
fn single_link_agrees_three_ways_on_zero_variance_duplicates() {
    // Compressed duplicates: bubbles with zero extent, many at the same
    // representative position.
    let ds = adversarial::zero_variance_duplicates(8).build().expect("corpus");
    for k in [1, 2, 9, 30] {
        check_three_ways(&format!("duplicates k={k}"), bubbles_of(&ds, k.min(ds.len()), 3));
    }
    // Hand-built duplicate bubbles: distinct bubbles at one position with
    // zero variance are at distance exactly 0, so the heights tie at 0.
    let mut bubbles = Vec::new();
    for (x, copies) in [(0.0, 4), (3.0, 1), (3.0, 2), (10.0, 3)] {
        for _ in 0..copies {
            bubbles.push(DataBubble::new(vec![x, 1.0], 5, 0.0));
        }
    }
    check_three_ways("hand-built duplicates", bubbles.clone());
    let zeros = bubbles.iter().enumerate().flat_map(|(i, b)| {
        bubbles[i + 1..].iter().filter(move |c| bubble_distance(b, c, false) == 0.0)
    });
    assert!(zeros.count() > 0, "the hand-built set must contain ties at distance 0");
}
