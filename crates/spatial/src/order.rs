//! The shared total-order helper for `(distance, id)` pairs.
//!
//! The hot paths — the OPTICS seed list and the kd-tree k-NN frontier —
//! each used to carry a private `struct Seed(f64, usize)` /
//! `struct Cand(f64, usize)` with a hand-rolled `Ord`. Every copy of the
//! same subtle code is one more place for the NaN-total-ordering
//! convention (PR 2) to silently regress, so the ordering lives here
//! once, and the `total-cmp` audit rule bans `partial_cmp` everywhere
//! else.
//!
//! The order is `f64::total_cmp` on the distance, then `usize` id as the
//! tie-breaker — the exact ordering every consumer already relied on:
//! deterministic under ties (ids are unique) and total under adversarial
//! inputs (`NaN` sorts above `+∞`, `-0.0` below `+0.0`, so heaps and
//! sorts never see `Ordering::Equal` lies or panic on `None`).

/// A `(distance, id)` pair with a *total* order: `total_cmp` on the
/// distance, then the id. Usable directly in `BinaryHeap` (max-heap; wrap
/// in `std::cmp::Reverse` for min-heaps) and in `sort`/`sort_unstable`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistId(pub f64, pub usize);

impl DistId {
    /// The greatest value of the order: a positive NaN with every payload
    /// bit set, and the largest id. A running minimum starts here, and
    /// every real candidate — even one at a NaN distance — replaces it.
    pub const MAX: DistId = DistId(f64::from_bits(u64::MAX >> 1), usize::MAX);
}

/// `f64::total_cmp` as an integer order: `a.total_cmp(&b)` equals
/// `total_key(a).cmp(&total_key(b))`. A running minimum that keeps its
/// best as a key compares each candidate with one integer comparison.
#[inline]
pub fn total_key(d: f64) -> i64 {
    let bits = d.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl Eq for DistId {}

impl PartialOrd for DistId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DistId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn nan_and_negative_zero_have_a_total_order() {
        // total_cmp's IEEE 754 totalOrder: -NaN < -inf < -0.0 < +0.0 < +inf < +NaN.
        assert_eq!(DistId(-0.0, 0).cmp(&DistId(0.0, 0)), Ordering::Less);
        assert_eq!(DistId(f64::NAN, 0).cmp(&DistId(f64::INFINITY, 0)), Ordering::Greater);
        assert_eq!(DistId(-f64::NAN, 0).cmp(&DistId(f64::NEG_INFINITY, 0)), Ordering::Less);
        // Reflexivity on NaN — the property partial_cmp cannot give.
        assert_eq!(DistId(f64::NAN, 7).cmp(&DistId(f64::NAN, 7)), Ordering::Equal);
        assert_eq!(DistId(f64::NAN, 7).partial_cmp(&DistId(f64::NAN, 7)), Some(Ordering::Equal));
    }

    #[test]
    fn total_key_orders_like_total_cmp() {
        let values = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            DistId::MAX.0,
        ];
        for a in values {
            for b in values {
                assert_eq!(total_key(a).cmp(&total_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn max_is_above_every_candidate() {
        for d in [0.0, f64::INFINITY, f64::NAN, -f64::NAN] {
            assert!(DistId(d, usize::MAX - 1) < DistId::MAX, "d = {d}");
        }
    }

    #[test]
    fn ties_break_by_id_and_heaps_are_deterministic() {
        assert_eq!(DistId(1.0, 3).cmp(&DistId(1.0, 9)), Ordering::Less);
        let mut v = [DistId(1.0, 2), DistId(f64::NAN, 0), DistId(1.0, 1), DistId(-0.0, 5)];
        v.sort_unstable();
        let ids: Vec<usize> = v.iter().map(|d| d.1).collect();
        assert_eq!(ids, vec![5, 1, 2, 0]);

        let mut heap = std::collections::BinaryHeap::new();
        for d in [DistId(2.0, 1), DistId(f64::NAN, 4), DistId(2.0, 0)] {
            heap.push(std::cmp::Reverse(d));
        }
        // Min-heap pops ties in id order and NaN last.
        assert_eq!(heap.pop().map(|r| r.0 .1), Some(0));
        assert_eq!(heap.pop().map(|r| r.0 .1), Some(1));
        assert_eq!(heap.pop().map(|r| r.0 .1), Some(4));
    }
}
