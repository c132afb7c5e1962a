//! Randomized equivalence tests: the kd-tree returns exactly the results
//! of the exhaustive linear scan, across many seeded random datasets of
//! 1 to 16 dimensions, queries, radii and k — every index's 1-NN query
//! (`nearest_tallied`) returns exactly its own `knn(q, 1)` — and the 2-d
//! cell table's 1-NN query returns exactly the linear scan's.

use db_datagen::{ds1, Ds1Params};
use db_rng::Rng;
use db_spatial::{CellTable, Dataset, KdTree, LinearScan, Neighbor, NnTally, SpatialIndex};

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

/// The kd-tree's range answers equal the linear scan's in id and
/// distance bits at d = 2, 5, 9 and 16.
#[test]
fn kdtree_range_equals_linear_up_to_d16() {
    // Radii up to about the median pair distance of each dimensionality.
    for (dim, base, max_eps) in
        [(5usize, 200u64, 40.0), (2, 400, 40.0), (9, 2200, 120.0), (16, 2400, 160.0)]
    {
        for seed in 0..CASES {
            let mut rng = Rng::seed_from_u64(base + seed);
            let ds = random_dataset(&mut rng, 120, dim);
            let q = random_query(&mut rng, dim);
            let eps = rng.gen_f64(0.0, max_eps);
            let tree = KdTree::build(&ds);
            let lin = LinearScan::build(&ds);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            tree.range(&ds, &q, eps, &mut a);
            lin.range(&ds, &q, eps, &mut b);
            assert_eq!(a, b, "d={dim} seed {seed}");
        }
    }
}

/// The kd-tree's k-NN answers equal the linear scan's in id and distance
/// bits at d = 4, 9 and 16.
#[test]
fn kdtree_knn_equals_linear_up_to_d16() {
    for (dim, base) in [(4usize, 300u64), (9, 2300), (16, 2500)] {
        for seed in 0..CASES {
            let mut rng = Rng::seed_from_u64(base + seed);
            let ds = random_dataset(&mut rng, 120, dim);
            let q = random_query(&mut rng, dim);
            let k = rng.gen_range(1..20);
            let tree = KdTree::build(&ds);
            let lin = LinearScan::build(&ds);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            tree.knn(&ds, &q, k, &mut a);
            lin.knn(&ds, &q, k, &mut b);
            assert_eq!(a, b, "d={dim} seed {seed}");
        }
    }
}

/// The cell table's range and k-NN queries (answered by its kd-tree)
/// equal the linear scan's on random 2-d sets, wherever the table builds.
#[test]
fn cell_table_range_and_knn_equal_linear() {
    let mut built = 0;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(500 + seed);
        let ds = random_dataset(&mut rng, 120, 2);
        let q = random_query(&mut rng, 2);
        let k = rng.gen_range(1..20);
        let eps = rng.gen_f64(0.0, 40.0);
        let Some(table) = CellTable::build(&ds) else { continue };
        built += 1;
        let lin = LinearScan::build(&ds);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        table.knn(&ds, &q, k, &mut a);
        lin.knn(&ds, &q, k, &mut b);
        assert_eq!(a, b, "seed {seed} knn");
        table.range(&ds, &q, eps, &mut a);
        lin.range(&ds, &q, eps, &mut b);
        assert_eq!(a, b, "seed {seed} range");
    }
    assert!(built * 10 > CASES * 9, "the table built for {built} of {CASES} sets");
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

/// The index types over `ds`: the linear scan, the kd-tree and, where it
/// builds (2-d, not collinear), the cell table.
fn every_index(ds: &Dataset) -> Vec<Box<dyn SpatialIndex>> {
    let mut all: Vec<Box<dyn SpatialIndex>> =
        vec![Box::new(LinearScan::build(ds)), Box::new(KdTree::build(ds))];
    if let Some(table) = CellTable::build(ds) {
        all.push(Box::new(table));
    }
    all
}

/// `nearest_tallied(q)` is `knn(q, 1)[0]`: same id, same distance bits,
/// one tallied query (none on an empty index).
fn assert_nearest_is_knn1(idx: &dyn SpatialIndex, ds: &Dataset, q: &[f64], what: &str) {
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
            for (v, idx) in every_index(&ds).iter().enumerate() {
                for i in 0..40 {
                    // Half the queries are data points (distance 0).
                    let q = if n > 0 && i % 2 == 0 {
                        ds.point(rng.gen_range(0..n)).to_vec()
                    } else {
                        random_query(&mut rng, dim)
                    };
                    let what = format!("d={dim} n={n} index {v} q {i}");
                    assert_nearest_is_knn1(idx.as_ref(), &ds, &q, &what);
                }
            }
        }
    }
}

#[test]
fn nearest_tallied_scans_a_leaf_of_identical_points() {
    // 200 copies of one point (more than a leaf's kernel batch) form one
    // kd-tree leaf; id 0 must win every query.
    for dim in [1usize, 2, 9] {
        let mut ds = Dataset::new(dim).unwrap();
        for _ in 0..200 {
            ds.push(&vec![1.5; dim]).unwrap();
        }
        let mut rng = Rng::seed_from_u64(800 + dim as u64);
        for (v, idx) in every_index(&ds).iter().enumerate() {
            for i in 0..10 {
                let q = random_query(&mut rng, dim);
                assert_nearest_is_knn1(idx.as_ref(), &ds, &q, &format!("d={dim} index {v} q {i}"));
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
        for (v, idx) in every_index(&ds).iter().enumerate() {
            for i in 0..30 {
                let q: Vec<f64> =
                    (0..dim).map(|_| rng.gen_range(0..(side - 1) as usize) as f64 + 0.5).collect();
                let what = format!("d={dim} index {v} q {i}");
                assert_nearest_is_knn1(idx.as_ref(), &ds, &q, &what);
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
    // n = 200k at d = 1 builds the kd-tree 14 median splits deep
    // (200k / 2^14 < 16 points per leaf): the deepest descent the fixed
    // stack holds in the suite.
    let mut rng = Rng::seed_from_u64(1000);
    let mut ds = Dataset::new(1).unwrap();
    for _ in 0..200_000 {
        ds.push(&[rng.gen_f64(-1e3, 1e3)]).unwrap();
    }
    let tree = KdTree::build(&ds);
    for i in 0..200 {
        let q = [rng.gen_f64(-1.1e3, 1.1e3)];
        assert_nearest_is_knn1(&tree, &ds, &q, &format!("q {i}"));
    }
}

// ------------------------------------------------------------ cell table

/// The cell table's 1-NN equals the linear scan's on every query, in id
/// and distance bits. Returns how many queries the table itself answered
/// (the rest fell back to its kd-tree, which tallies visited nodes).
fn assert_table_is_linear<'a>(
    reps: &Dataset,
    queries: impl IntoIterator<Item = &'a [f64]>,
    what: &str,
) -> (usize, usize) {
    let table = CellTable::build(reps).unwrap_or_else(|| panic!("{what}: no table"));
    let linear = LinearScan::build(reps);
    let (mut by_table, mut total) = (0, 0);
    for (i, q) in queries.into_iter().enumerate() {
        let mut tally = NnTally::default();
        let got = table.nearest_tallied(reps, q, &mut tally).expect("non-empty");
        let want = linear.nearest(reps, q).expect("non-empty");
        assert_eq!(
            (got.id, got.dist.to_bits()),
            (want.id, want.dist.to_bits()),
            "{what}: query {i} at {q:?}"
        );
        assert_eq!((tally.queries, tally.sqrt_evals), (1, 1), "{what}: query {i} tally");
        by_table += usize::from(tally.nodes_visited == 0);
        total += 1;
    }
    (by_table, total)
}

fn uniform(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Dataset {
    let mut ds = Dataset::new(2).unwrap();
    for _ in 0..n {
        ds.push(&[rng.gen_f64(lo, hi), rng.gen_f64(lo, hi)]).unwrap();
    }
    ds
}

#[test]
fn cell_table_equals_linear_on_uniform_random_reps() {
    for (seed, k) in [(1u64, 129usize), (2, 300), (3, 1000), (4, 2500)] {
        let mut rng = Rng::seed_from_u64(1100 + seed);
        let reps = uniform(&mut rng, k, -50.0, 50.0);
        let mut queries = uniform(&mut rng, 3000, -52.0, 52.0);
        for p in reps.iter() {
            queries.push(p).unwrap();
        }
        let (by_table, total) = assert_table_is_linear(&reps, queries.iter(), &format!("k={k}"));
        assert!(by_table * 10 > total * 9, "k={k}: the table answered {by_table}/{total}");
    }
}

#[test]
fn cell_table_equals_linear_on_ds1() {
    let data = ds1(&Ds1Params { n: 20_000, ..Ds1Params::default() }, 1).data;
    for k in [129usize, 1000, 4000] {
        let reps = data.subset(&(0..k).map(|i| i * 5).collect::<Vec<_>>());
        let queries = (0..data.len()).step_by(3).map(|i| data.point(i));
        let (by_table, total) = assert_table_is_linear(&reps, queries, &format!("DS1 k={k}"));
        assert!(by_table * 20 > total * 19, "k={k}: the table answered {by_table}/{total}");
    }
}

/// A 24 × 18 integer lattice, stored twice over (ids 0..432 and 432..864).
fn lattice_twice() -> Dataset {
    let mut reps = Dataset::new(2).unwrap();
    for _copy in 0..2 {
        for y in 0..18 {
            for x in 0..24 {
                reps.push(&[f64::from(x), f64::from(y)]).unwrap();
            }
        }
    }
    reps
}

#[test]
fn cell_table_breaks_exact_ties_by_lower_id() {
    // Edge midpoints tie 2 lattice points, cell centres 4, and every tie
    // is doubled by the second copy: the lowest id must win.
    let reps = lattice_twice();
    let mut queries = Vec::new();
    for y in 0..17 {
        for x in 0..23 {
            let (x, y) = (f64::from(x), f64::from(y));
            queries.extend([[x + 0.5, y], [x, y + 0.5], [x + 0.5, y + 0.5], [x, y]]);
        }
    }
    let (by_table, total) =
        assert_table_is_linear(&reps, queries.iter().map(|q| &q[..]), "lattice ties");
    assert_eq!(by_table, total, "every lattice query lies inside the grid");
    let table = CellTable::build(&reps).unwrap();
    for q in &queries {
        let got = table.nearest(&reps, q).unwrap().id;
        assert!(got < 432, "a second copy won at {q:?}");
    }
}

#[test]
fn cell_table_is_exact_on_cell_edges() {
    // Queries exactly on every grid line of the table, and one ulp to
    // either side of it, along both axes.
    let reps = lattice_twice();
    let table = CellTable::build(&reps).unwrap();
    let (origin, side) = (table.origin(), table.side());
    let mut queries = Vec::new();
    let mut rng = Rng::seed_from_u64(1200);
    for i in 0..60 {
        let line = [origin[0] + f64::from(i) * side, origin[1] + f64::from(i) * side];
        for edge in [line[0], line[0].next_down(), line[0].next_up()] {
            queries.push([edge, rng.gen_f64(-1.0, 18.0)]);
        }
        for edge in [line[1], line[1].next_down(), line[1].next_up()] {
            queries.push([rng.gen_f64(-1.0, 24.0), edge]);
        }
        queries.push([line[0], line[1]]);
    }
    let (by_table, total) =
        assert_table_is_linear(&reps, queries.iter().map(|q| &q[..]), "cell edges");
    assert!(by_table * 2 > total, "the table answered {by_table}/{total}");
}

#[test]
fn cell_table_equals_linear_on_duplicate_reps() {
    // Every point three times over: ties between copies at every query.
    let mut rng = Rng::seed_from_u64(1300);
    let base = uniform(&mut rng, 100, 0.0, 10.0);
    let mut reps = Dataset::new(2).unwrap();
    for _copy in 0..3 {
        for p in base.iter() {
            reps.push(p).unwrap();
        }
    }
    let queries = uniform(&mut rng, 2000, 0.0, 10.0);
    let all = queries.iter().chain(base.iter());
    let (by_table, total) = assert_table_is_linear(&reps, all, "duplicates");
    assert!(by_table * 10 > total * 9, "the table answered {by_table}/{total}");
}

#[test]
fn cell_table_sends_queries_outside_the_grid_to_its_tree() {
    let mut rng = Rng::seed_from_u64(1400);
    let reps = uniform(&mut rng, 500, -10.0, 10.0);
    let far = [[-1e3, 0.0], [1e3, 5.0], [0.0, 1e6], [3.0, -1e9], [f64::MAX, 0.0], [-1e300, 1e300]];
    let (by_table, _) = assert_table_is_linear(&reps, far.iter().map(|q| &q[..]), "outside");
    assert_eq!(by_table, 0, "queries outside the grid must take the tree");
}

#[test]
fn cell_table_spans_the_gap_between_two_squares() {
    // Two 10 × 18 squares 200 apart (the supervision suite's layout):
    // most grid cells lie in the empty gap between them.
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..4600 {
        let (x, y) = (f64::from(i % 50) * 0.2, f64::from(i / 50) * 0.2);
        ds.push(&[x, y]).unwrap();
        ds.push(&[x + 200.0, y]).unwrap();
    }
    let reps = ds.subset(&(0..2000).map(|i| i * 4 + i % 3).collect::<Vec<_>>());
    let mut rng = Rng::seed_from_u64(1500);
    let gap: Vec<[f64; 2]> =
        (0..3000).map(|_| [rng.gen_f64(-5.0, 215.0), rng.gen_f64(-5.0, 23.0)]).collect();
    let queries = ds.iter().step_by(2).chain(gap.iter().map(|q| &q[..]));
    let (by_table, total) = assert_table_is_linear(&reps, queries, "two squares");
    assert!(by_table * 2 > total, "the table answered {by_table}/{total}");
}

#[test]
fn huge_and_tiny_coordinates_stay_exact() {
    // Near 1e150 the squared distances (~1e300) are still finite; near
    // 1e-160 they underflow, so no table is built and the tree answers.
    // Either way every answer is the linear scan's.
    for scale in [1e150, 1e-160] {
        let mut rng = Rng::seed_from_u64(1600);
        let unit = uniform(&mut rng, 400, 1.0, 2.0);
        let at = |p: &[f64]| [p[0] * scale, p[1] * scale];
        let mut reps = Dataset::new(2).unwrap();
        for p in unit.iter() {
            reps.push(&at(p)).unwrap();
        }
        let queries: Vec<[f64; 2]> = uniform(&mut rng, 1000, 0.9, 2.1).iter().map(at).collect();
        let table = CellTable::build(&reps);
        assert_eq!(table.is_some(), scale > 1.0, "scale {scale:e}");
        let linear = LinearScan::build(&reps);
        if table.is_some() {
            assert_table_is_linear(&reps, queries.iter().map(|q| &q[..]), "huge");
        }
        let tree = KdTree::build(&reps);
        for q in &queries {
            let (got, want) = (tree.nearest(&reps, q).unwrap(), linear.nearest(&reps, q).unwrap());
            assert_eq!((got.id, got.dist.to_bits()), (want.id, want.dist.to_bits()), "{q:?}");
        }
    }
}

#[test]
fn cell_table_declines_what_it_cannot_serve() {
    let mut rng = Rng::seed_from_u64(1700);
    // Wrong dimensionality.
    for dim in [1usize, 3] {
        assert!(CellTable::build(&random_dataset(&mut rng, 500, dim)).is_none(), "d = {dim}");
    }
    // Collinear: along an axis (zero extent) and along a diagonal, where
    // the points crowd into few cells and every list runs along the line.
    let mut flat = Dataset::new(2).unwrap();
    let mut diagonal = Dataset::new(2).unwrap();
    for i in 0..20_000 {
        let t = f64::from(i) * 0.01;
        flat.push(&[t, 2.0]).unwrap();
        diagonal.push(&[t, 0.5 * t]).unwrap();
    }
    assert!(CellTable::build(&flat).is_none(), "axis-parallel line");
    assert!(CellTable::build(&diagonal).is_none(), "diagonal line");
    // A single point, and an empty set.
    assert!(CellTable::build(&Dataset::from_rows(2, &[&[1.0, 1.0]]).unwrap()).is_none());
    assert!(CellTable::build(&Dataset::new(2).unwrap()).is_none());
    // A non-finite coordinate.
    assert!(
        CellTable::build(&Dataset::from_flat_unchecked(2, vec![0.0, 0.0, f64::NAN, 1.0])).is_none()
    );
}
