//! Output checks: bit-for-bit comparisons of orderings and compressions.

use data_bubbles::pipeline::ExpandedOrdering;
use db_optics::ClusterOrdering;
use db_sampling::IncrementalCompression;

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Whether two cluster orderings are identical bit for bit.
pub fn same_ordering(a: &ClusterOrdering, b: &ClusterOrdering) -> bool {
    a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.id == y.id
                && same_f64(x.reachability, y.reachability)
                && same_f64(x.core_distance, y.core_distance)
                && x.weight == y.weight
        })
}

/// Whether two expanded orderings are identical bit for bit.
pub fn same_expanded(a: &ExpandedOrdering, b: &ExpandedOrdering) -> bool {
    a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.object == y.object
                && same_f64(x.reachability, y.reachability)
                && same_f64(x.core_estimate, y.core_estimate)
        })
}

/// Whether the expanded ordering visits every object `0..n` exactly once.
pub fn is_permutation(x: &ExpandedOrdering, n: usize) -> bool {
    let mut seen = vec![false; n];
    x.entries.len() == n
        && x.entries.iter().all(|e| {
            let slot = seen.get_mut(e.object as usize);
            match slot {
                Some(s) if !*s => {
                    *s = true;
                    true
                }
                _ => false,
            }
        })
}

/// Whether two incremental compressions hold the same state bit for bit:
/// representatives, per-representative statistics and assignment.
pub fn same_compression(a: &IncrementalCompression, b: &IncrementalCompression) -> bool {
    let flat = |c: &IncrementalCompression| -> Vec<u64> {
        c.representatives().as_flat().iter().map(|x| x.to_bits()).collect()
    };
    a.n_objects() == b.n_objects()
        && a.assignment() == b.assignment()
        && flat(a) == flat(b)
        && a.stats().len() == b.stats().len()
        && a.stats().iter().zip(b.stats()).all(|(x, y)| {
            x.n() == y.n()
                && same_f64(x.ssd(), y.ssd())
                && x.mean().len() == y.mean().len()
                && x.mean().iter().zip(y.mean()).all(|(p, q)| same_f64(*p, *q))
        })
}
