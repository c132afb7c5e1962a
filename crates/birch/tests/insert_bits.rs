//! Golden output of CF-tree insertion: the exact bits of every leaf entry
//! `(n, mean, ssd)` after phase 1 and after condensation, pinned as
//! hashes. Any change to the descent, the absorb test, the merge formula
//! or the rebuilds that moves a single bit fails here.

use db_birch::{BirchParams, Cf, CfTree};
use db_datagen::{gaussian_family, GaussianFamilyParams};
use db_rng::Rng;

/// FNV-1a over the leaf entries, left to right: `n`, then each mean
/// coordinate's bits, then the bits of `ssd`.
fn fingerprint(entries: &[Cf]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for cf in entries {
        eat(cf.n());
        for &m in cf.mean() {
            eat(m.to_bits());
        }
        eat(cf.ssd().to_bits());
    }
    h
}

/// What one input pins: phase-1 leaf count, rebuilds and fingerprint, then
/// the same after condensation.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    phase1_entries: usize,
    phase1_rebuilds: usize,
    phase1: u64,
    condensed_entries: usize,
    condensed: u64,
}

fn run(tree: &mut CfTree, points: impl Iterator<Item = Vec<f64>>, k: usize) -> Pinned {
    for p in points {
        tree.insert_point(&p);
    }
    let phase1 = tree.leaf_entries();
    let phase1_rebuilds = tree.rebuild_count();
    tree.condense_to(k);
    let condensed = tree.leaf_entries();
    Pinned {
        phase1_entries: phase1.len(),
        phase1_rebuilds,
        phase1: fingerprint(&phase1),
        condensed_entries: condensed.len(),
        condensed: fingerprint(&condensed),
    }
}

#[test]
fn gaussian_16d_leaf_entries_are_bit_pinned() {
    let params = GaussianFamilyParams { n: 30_000, dim: 16, ..GaussianFamilyParams::default() };
    let family = gaussian_family(&params, 7);
    let mut tree = CfTree::new(16, BirchParams::default());
    let got = run(&mut tree, family.data.iter().map(<[f64]>::to_vec), 100);
    assert_eq!(
        got,
        Pinned {
            phase1_entries: 14_092,
            phase1_rebuilds: 1,
            phase1: 0x555dbcff959d1031,
            condensed_entries: 16,
            condensed: 0xf01204576e834403,
        }
    );
}

/// 2-d points on a coarse lattice, so exact duplicates merge at threshold
/// 0, with a `-0.0` coordinate in every fifth point; a small memory bound
/// makes phase 1 rebuild several times. The last point is a far outlier
/// with a `-0.0` coordinate, so it ends phase 1 as a leaf entry of its
/// own, stored as a point's first Welford step stores it (`+0.0`).
#[test]
fn small_memory_bound_2d_leaf_entries_are_bit_pinned() {
    let mut rng = Rng::seed_from_u64(11);
    let lattice = (0..6_000).map(|i| {
        let x = (rng.gen_f64(-50.0, 50.0) * 4.0).round() / 4.0;
        let y = if i % 5 == 0 { -0.0 } else { rng.gen_f64(-50.0, 50.0) };
        vec![x, y]
    });
    let points = lattice.chain(std::iter::once(vec![1e6, -0.0]));
    let mut tree = CfTree::new(2, BirchParams { max_nodes: 48, ..BirchParams::default() });
    let got = run(&mut tree, points, 25);
    assert!(got.phase1_rebuilds > 0, "phase 1 never rebuilt");
    assert_eq!(
        got,
        Pinned {
            phase1_entries: 210,
            phase1_rebuilds: 4,
            phase1: 0x2b3ead1fae187961,
            condensed_entries: 18,
            condensed: 0x26fe7ecfe90f84a2,
        }
    );
}

#[test]
#[should_panic(expected = "invalid point")]
fn insert_point_rejects_nan() {
    let mut tree = CfTree::new(2, BirchParams::default());
    tree.insert_point(&[1.0, f64::NAN]);
}

#[test]
#[should_panic(expected = "invalid point")]
fn insert_point_rejects_infinity() {
    let mut tree = CfTree::new(3, BirchParams::default());
    tree.insert_point(&[0.0, 0.0, 0.0]);
    tree.insert_point(&[f64::NEG_INFINITY, 0.0, 0.0]);
}
