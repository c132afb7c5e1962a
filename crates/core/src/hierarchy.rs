//! Classical hierarchical clustering on Data Bubbles (paper §6: "When
//! applying a classical hierarchical clustering algorithm such as the
//! single link method to Data Bubbles, we do not need more information
//! than defined above") — the bubble distance of Definition 6 drives an
//! ordinary hierarchical algorithm, and the resulting dendrogram is
//! expanded back to the original objects via the classification.
//!
//! Single link is the minimum spanning tree of the bubble distances, so
//! it runs as SLINK over the space's distance rows: O(k²) time and O(k)
//! memory, reading the rows of the precomputed [`crate::BubbleDistanceMatrix`]
//! when the space holds one (a recluster's OPTICS walk already paid for
//! it) and evaluating them on the fly otherwise. Complete, Average and
//! Ward run the O(k³) Lance–Williams loop.

use db_hierarchical::{agglomerative_from_fn, slink_from_rows, Dendrogram, Linkage};

use crate::bubble::BubbleError;
use crate::distance::bubble_distance;
use crate::space::BubbleSpace;

/// Fallible form of [`bubble_dendrogram`] for bubble sets of unknown size.
///
/// [`Linkage::Single`] costs O(k²) time and O(k) memory and reads the
/// space's distance matrix when it has one; the other linkages cost
/// O(k³) time and O(k²) memory. Every distance is evaluated as `(i, j)`
/// with `i < j` on both routes, so Single's merge heights are bit-for-bit
/// those of `agglomerative_from_fn(k, Linkage::Single, ..)`.
///
/// # Errors
///
/// Returns [`BubbleError::EmptyBubbleSet`] when the space is empty.
pub fn try_bubble_dendrogram(
    space: &BubbleSpace,
    linkage: Linkage,
) -> Result<Dendrogram, BubbleError> {
    let bubbles = space.bubbles();
    if bubbles.is_empty() {
        return Err(BubbleError::EmptyBubbleSet);
    }
    Ok(match linkage {
        Linkage::Single => slink_from_rows(bubbles.len(), |i, row| space.distance_row_tail(i, row)),
        _ => agglomerative_from_fn(bubbles.len(), linkage, |a, b| {
            bubble_distance(&bubbles[a], &bubbles[b], a == b)
        }),
    })
}

/// Builds the hierarchical clustering of a bubble set under the given
/// linkage, using the Definition 6 distance. **Validated input only** —
/// use [`try_bubble_dendrogram`] when the space may be empty.
///
/// # Panics
///
/// Panics if the space is empty.
pub fn bubble_dendrogram(space: &BubbleSpace, linkage: Linkage) -> Dendrogram {
    match try_bubble_dendrogram(space, linkage) {
        Ok(d) => d,
        Err(_) => panic!("cannot cluster an empty bubble set"),
    }
}

/// Cuts a bubble dendrogram into `k` clusters and assigns every original
/// object the label of its bubble — the dendrogram analogue of the §5
/// expansion ("we can apply an analogous technique to expand a dendrogram").
///
/// `members[j]` lists the original object ids classified to bubble `j`;
/// labels are returned per original object id.
///
/// # Panics
///
/// Panics if `members.len()` differs from the number of dendrogram leaves.
pub fn expand_bubble_cut(dendrogram: &Dendrogram, members: &[Vec<usize>], k: usize) -> Vec<i32> {
    let leaf_labels = dendrogram.cut(k);
    dendrogram.expand_cut(&leaf_labels, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bubble::DataBubble;

    fn two_group_space() -> BubbleSpace {
        BubbleSpace::new(vec![
            DataBubble::new(vec![0.0, 0.0], 30, 1.0),
            DataBubble::new(vec![2.0, 0.0], 30, 1.0),
            DataBubble::new(vec![100.0, 0.0], 30, 1.0),
            DataBubble::new(vec![102.0, 0.0], 30, 1.0),
        ])
    }

    #[test]
    fn single_link_merges_groups_last() {
        let d = bubble_dendrogram(&two_group_space(), Linkage::Single);
        let heights: Vec<f64> = d.merges().iter().map(|m| m.dist).collect();
        // Two small within-group merges, one large between-group merge.
        assert!(heights[0] < 5.0 && heights[1] < 5.0);
        assert!(heights[2] > 90.0);
        let cut = d.cut(2);
        assert_eq!(cut[0], cut[1]);
        assert_eq!(cut[2], cut[3]);
        assert_ne!(cut[0], cut[2]);
    }

    #[test]
    fn complete_linkage_also_works() {
        let d = bubble_dendrogram(&two_group_space(), Linkage::Complete);
        assert_eq!(d.n_leaves(), 4);
        let cut = d.cut(2);
        assert_eq!(cut[0], cut[1]);
        assert_ne!(cut[0], cut[2]);
    }

    #[test]
    fn expansion_assigns_bubble_labels_to_members() {
        let d = bubble_dendrogram(&two_group_space(), Linkage::Single);
        let members = vec![vec![0, 1], vec![2], vec![3, 4], vec![5]];
        let labels = expand_bubble_cut(&d, &members, 2);
        assert_eq!(labels.len(), 6);
        assert_eq!(labels[0], labels[2]); // bubbles 0 and 1 share a cluster
        assert_ne!(labels[0], labels[3]); // bubble 2 is in the other group
        assert_eq!(labels[3], labels[5]);
    }

    #[test]
    #[should_panic(expected = "empty bubble set")]
    fn empty_space_panics() {
        bubble_dendrogram(&BubbleSpace::new(vec![]), Linkage::Single);
    }

    #[test]
    fn try_form_returns_typed_error_on_empty_space() {
        use crate::bubble::BubbleError;
        let err = try_bubble_dendrogram(&BubbleSpace::new(vec![]), Linkage::Single).unwrap_err();
        assert_eq!(err, BubbleError::EmptyBubbleSet);
    }
}
