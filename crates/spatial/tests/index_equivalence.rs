//! Randomized equivalence tests: KD-tree, ball tree and grid index return
//! exactly the results of the exhaustive linear scan, across many seeded
//! random datasets, queries, radii and k — and every index's 1-NN query
//! (`nearest_tallied`) returns exactly its own `knn(q, 1)`.

use db_rng::Rng;
use db_spatial::{
    AnyIndex, BallTree, Dataset, GridIndex, KdTree, LinearScan, Neighbor, NnTally, SpatialIndex,
};

const CASES: u64 = 64;

fn random_dataset(rng: &mut Rng, max_n: usize, dim: usize) -> Dataset {
    let n = rng.gen_range(1..max_n);
    let mut ds = Dataset::new(dim).unwrap();
    let mut row = vec![0.0; dim];
    for _ in 0..n {
        for x in &mut row {
            *x = rng.gen_f64(-50.0, 50.0);
        }
        ds.push(&row).unwrap();
    }
    ds
}

fn random_query(rng: &mut Rng, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| rng.gen_f64(-60.0, 60.0)).collect()
}

fn ids(v: &[Neighbor]) -> Vec<usize> {
    v.iter().map(|n| n.id).collect()
}

#[test]
fn kdtree_range_equals_linear() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let ds = random_dataset(&mut rng, 120, 3);
        let q = random_query(&mut rng, 3);
        let eps = rng.gen_f64(0.0, 40.0);
        let tree = KdTree::build(&ds);
        let lin = LinearScan::build(&ds);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        tree.range(&ds, &q, eps, &mut a);
        lin.range(&ds, &q, eps, &mut b);
        assert_eq!(ids(&a), ids(&b), "seed {seed}");
    }
}

#[test]
fn kdtree_knn_equals_linear() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(100 + seed);
        let ds = random_dataset(&mut rng, 120, 2);
        let q = random_query(&mut rng, 2);
        let k = rng.gen_range(1..20);
        let tree = KdTree::build(&ds);
        let lin = LinearScan::build(&ds);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        tree.knn(&ds, &q, k, &mut a);
        lin.knn(&ds, &q, k, &mut b);
        assert_eq!(ids(&a), ids(&b), "seed {seed}");
    }
}

#[test]
fn balltree_range_equals_linear() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(200 + seed);
        let ds = random_dataset(&mut rng, 120, 5);
        let q = random_query(&mut rng, 5);
        let eps = rng.gen_f64(0.0, 40.0);
        let tree = BallTree::build(&ds);
        let lin = LinearScan::build(&ds);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        tree.range(&ds, &q, eps, &mut a);
        lin.range(&ds, &q, eps, &mut b);
        assert_eq!(ids(&a), ids(&b), "seed {seed}");
    }
}

#[test]
fn balltree_knn_equals_linear() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(300 + seed);
        let ds = random_dataset(&mut rng, 120, 4);
        let q = random_query(&mut rng, 4);
        let k = rng.gen_range(1..20);
        let tree = BallTree::build(&ds);
        let lin = LinearScan::build(&ds);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        tree.knn(&ds, &q, k, &mut a);
        lin.knn(&ds, &q, k, &mut b);
        assert_eq!(ids(&a), ids(&b), "seed {seed}");
    }
}

#[test]
fn grid_range_equals_linear() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(400 + seed);
        let ds = random_dataset(&mut rng, 120, 2);
        let q = random_query(&mut rng, 2);
        let eps = rng.gen_f64(0.0, 40.0);
        let cell = rng.gen_f64(0.3, 10.0);
        let grid = GridIndex::build(&ds, cell).unwrap();
        let lin = LinearScan::build(&ds);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        grid.range(&ds, &q, eps, &mut a);
        lin.range(&ds, &q, eps, &mut b);
        assert_eq!(ids(&a), ids(&b), "seed {seed}");
    }
}

#[test]
fn grid_knn_equals_linear() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(500 + seed);
        let ds = random_dataset(&mut rng, 120, 2);
        let q = random_query(&mut rng, 2);
        let k = rng.gen_range(1..20);
        let cell = rng.gen_f64(0.3, 10.0);
        let grid = GridIndex::build(&ds, cell).unwrap();
        let lin = LinearScan::build(&ds);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        grid.knn(&ds, &q, k, &mut a);
        lin.knn(&ds, &q, k, &mut b);
        assert_eq!(ids(&a), ids(&b), "seed {seed}");
    }
}

#[test]
fn range_distances_are_correct() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(600 + seed);
        let ds = random_dataset(&mut rng, 80, 2);
        let eps = rng.gen_f64(0.0, 30.0);
        let tree = KdTree::build(&ds);
        let mut out = Vec::new();
        let q = ds.point(0).to_vec();
        tree.range(&ds, &q, eps, &mut out);
        // The query point itself is always in its own eps-neighbourhood.
        assert!(out.iter().any(|n| n.id == 0), "seed {seed}");
        for n in &out {
            let d = db_spatial::euclidean(&q, ds.point(n.id));
            assert!((d - n.dist).abs() < 1e-9, "seed {seed}");
            assert!(n.dist <= eps + 1e-12, "seed {seed}");
        }
        // Sorted by distance.
        assert!(out.windows(2).all(|w| w[0].dist <= w[1].dist), "seed {seed}");
    }
}

/// The four index types over `ds`; the grid only where it applies
/// (d ≤ `MAX_GRID_DIM`).
fn every_index(ds: &Dataset, cell: f64) -> Vec<AnyIndex> {
    let mut all = vec![
        AnyIndex::Linear(LinearScan::build(ds)),
        AnyIndex::KdTree(KdTree::build(ds)),
        AnyIndex::BallTree(BallTree::build(ds)),
    ];
    all.extend(GridIndex::build(ds, cell).map(AnyIndex::Grid));
    all
}

/// `nearest_tallied(q)` is `knn(q, 1)[0]`: same id, same distance bits,
/// one tallied query (none on an empty index).
fn assert_nearest_is_knn1(idx: &AnyIndex, ds: &Dataset, q: &[f64], what: &str) {
    let mut tally = NnTally::default();
    let got = idx.nearest_tallied(ds, q, &mut tally);
    let mut out = Vec::new();
    idx.knn(ds, q, 1, &mut out);
    let want = out.first().copied();
    assert_eq!(got.map(|n| n.id), want.map(|n| n.id), "{what}: id");
    assert_eq!(got.map(|n| n.dist.to_bits()), want.map(|n| n.dist.to_bits()), "{what}: dist");
    assert_eq!(tally.queries, u64::from(got.is_some()), "{what}: tallied queries");
    assert!(got.is_none() || tally.sqrt_evals >= 1, "{what}: the reported distance is a sqrt");
}

#[test]
fn nearest_tallied_equals_knn1_on_every_index() {
    for dim in [1usize, 2, 3, 8, 9, 16] {
        for n in [0usize, 1, 17, 300] {
            let mut rng = Rng::seed_from_u64(700 + 10 * dim as u64 + n as u64);
            let mut ds = Dataset::new(dim).unwrap();
            for _ in 0..n {
                ds.push(&random_query(&mut rng, dim)).unwrap();
            }
            for (v, idx) in every_index(&ds, rng.gen_f64(0.5, 20.0)).iter().enumerate() {
                for i in 0..40 {
                    // Half the queries are data points (distance 0).
                    let q = if n > 0 && i % 2 == 0 {
                        ds.point(rng.gen_range(0..n)).to_vec()
                    } else {
                        random_query(&mut rng, dim)
                    };
                    assert_nearest_is_knn1(idx, &ds, &q, &format!("d={dim} n={n} index {v} q {i}"));
                }
            }
        }
    }
}

#[test]
fn nearest_tallied_scans_a_leaf_of_identical_points() {
    // 200 copies of one point (more than a leaf's kernel batch) form one
    // leaf in both trees and one grid cell; id 0 must win every query.
    for dim in [1usize, 2, 9] {
        let mut ds = Dataset::new(dim).unwrap();
        for _ in 0..200 {
            ds.push(&vec![1.5; dim]).unwrap();
        }
        let mut rng = Rng::seed_from_u64(800 + dim as u64);
        for (v, idx) in every_index(&ds, 1.0).iter().enumerate() {
            for i in 0..10 {
                let q = random_query(&mut rng, dim);
                assert_nearest_is_knn1(idx, &ds, &q, &format!("d={dim} index {v} q {i}"));
                let mut tally = NnTally::default();
                assert_eq!(idx.nearest_tallied(&ds, &q, &mut tally).map(|n| n.id), Some(0));
            }
        }
    }
}

#[test]
fn nearest_tallied_breaks_distance_ties_by_lower_id() {
    // An integer lattice stored twice: cell-centre queries sit at equal
    // distance from 2^d corners × 2 copies, and the lowest id among them
    // must win.
    for dim in [1usize, 2, 3] {
        let side = 6i32;
        let cells = (side as usize).pow(dim as u32);
        let mut ds = Dataset::new(dim).unwrap();
        for _copy in 0..2 {
            for c in 0..cells {
                let p: Vec<f64> = (0..dim)
                    .map(|j| ((c / (side as usize).pow(j as u32)) % side as usize) as f64)
                    .collect();
                ds.push(&p).unwrap();
            }
        }
        let mut rng = Rng::seed_from_u64(900 + dim as u64);
        for (v, idx) in every_index(&ds, 1.0).iter().enumerate() {
            for i in 0..30 {
                let q: Vec<f64> =
                    (0..dim).map(|_| rng.gen_range(0..(side - 1) as usize) as f64 + 0.5).collect();
                let what = format!("d={dim} index {v} q {i}");
                assert_nearest_is_knn1(idx, &ds, &q, &what);
                let d2 = |id: usize| db_spatial::euclidean_sq(&q, ds.point(id));
                let want =
                    (0..ds.len()).min_by(|&a, &b| d2(a).total_cmp(&d2(b)).then(a.cmp(&b))).unwrap();
                let mut tally = NnTally::default();
                let got = idx.nearest_tallied(&ds, &q, &mut tally).unwrap().id;
                assert_eq!(got, want, "{what}");
                assert!(
                    (0..ds.len()).filter(|&id| d2(id) == d2(want)).count() > 1,
                    "{what}: a tie"
                );
            }
        }
    }
}

#[test]
fn nearest_tallied_descends_a_deep_tree() {
    // n = 200k at d = 1 builds both trees 14 median splits deep
    // (200k / 2^14 < 16 points per leaf): the deepest descent the fixed
    // stack holds in the suite.
    let mut rng = Rng::seed_from_u64(1000);
    let mut ds = Dataset::new(1).unwrap();
    for _ in 0..200_000 {
        ds.push(&[rng.gen_f64(-1e3, 1e3)]).unwrap();
    }
    let trees = [AnyIndex::KdTree(KdTree::build(&ds)), AnyIndex::BallTree(BallTree::build(&ds))];
    for i in 0..200 {
        let q = [rng.gen_f64(-1.1e3, 1.1e3)];
        for (v, idx) in trees.iter().enumerate() {
            assert_nearest_is_knn1(idx, &ds, &q, &format!("index {v} q {i}"));
        }
    }
}
