//! Micro-benchmarks of the substrates: bubble distance evaluation, BIRCH
//! insertion, sampling compression, spatial-index range queries, SLINK —
//! the ingredients whose costs compose into the figure runtimes.

use data_bubbles::pipeline::expand_bubbles;
use data_bubbles::{bubble_distance, BubbleSpace, DataBubble};
use db_bench::harness::Group;
use db_birch::{birch, BirchParams, CfTree};
use db_datagen::{ds1, Ds1Params};
use db_hierarchical::slink;
use db_optics::{optics, OpticsParams, OpticsSpace};
use db_sampling::compress_by_sampling;
use db_spatial::{KdTree, LinearScan, SpatialIndex};
use std::hint::black_box;

fn data(n: usize) -> db_datagen::LabeledDataset {
    ds1(&Ds1Params { n, ..Ds1Params::default() }, 99)
}

fn bubble_distance_bench() {
    let a = DataBubble::new(vec![0.0, 0.0], 1_000, 2.0);
    let b = DataBubble::new(vec![7.0, 3.0], 500, 1.5);
    let g = Group::new("bubble_distance", 100);
    g.bench("bubble_distance_x1000", || {
        let mut acc = 0.0;
        for _ in 0..1_000 {
            acc += bubble_distance(black_box(&a), black_box(&b), false);
        }
        acc
    });
}

fn birch_bench() {
    let d = data(5_000);
    let g = Group::new("birch", 10);
    g.bench("phase1_insert_5k", || {
        let mut t = CfTree::new(2, BirchParams::default());
        for p in d.data.iter() {
            t.insert_point(p);
        }
        t.leaf_entry_count()
    });
    g.bench("end_to_end_k100_5k", || birch(&d.data, 100, &BirchParams::default()));
}

fn sampling_bench() {
    let d = data(10_000);
    let g = Group::new("sampling", 10);
    for k in [100usize, 1_000] {
        g.bench(&format!("compress/{k}"), || compress_by_sampling(&d.data, k, 3).unwrap());
    }
}

fn index_bench() {
    let d = data(10_000);
    let eps = 2.0;
    let tree = KdTree::build(&d.data);
    let lin = LinearScan::build(&d.data);
    let g = Group::new("index_range_queries", 20);
    let queries: Vec<usize> = (0..100).map(|i| i * 97 % d.len()).collect();
    g.bench("kdtree", || {
        let mut out = Vec::new();
        let mut total = 0usize;
        for &q in &queries {
            tree.range(&d.data, d.data.point(q), eps, &mut out);
            total += out.len();
        }
        total
    });
    g.bench("linear", || {
        let mut out = Vec::new();
        let mut total = 0usize;
        for &q in &queries {
            lin.range(&d.data, d.data.point(q), eps, &mut out);
            total += out.len();
        }
        total
    });
}

fn bubble_space_bench() {
    let d = data(50_000);
    let compressed = compress_by_sampling(&d.data, 500, 3).unwrap();
    let bubbles: Vec<DataBubble> = compressed.stats.iter().map(DataBubble::from_cf).collect();
    let space = BubbleSpace::new(bubbles);
    let g = Group::new("bubble_space", 50);
    g.bench("neighborhood_k500", || {
        let mut out = Vec::new();
        space.neighborhood(black_box(250), f64::INFINITY, &mut out);
        out.len()
    });
}

fn expansion_bench() {
    let d = data(50_000);
    let compressed = compress_by_sampling(&d.data, 500, 3).unwrap();
    let bubbles: Vec<DataBubble> = compressed.stats.iter().map(DataBubble::from_cf).collect();
    let space = BubbleSpace::new(bubbles);
    let ordering = optics(&space, &OpticsParams { eps: f64::INFINITY, min_pts: 10 });
    let members = compressed.members();
    let g = Group::new("expansion", 20);
    g.bench("expand_bubbles_50k", || expand_bubbles(&ordering, &members, &space, 10));
}

fn slink_bench() {
    let d = data(1_000);
    let g = Group::new("hierarchical", 10);
    g.bench("slink_1k", || slink(&d.data));
}

fn main() {
    db_obs::reset();
    bubble_distance_bench();
    birch_bench();
    sampling_bench();
    index_bench();
    bubble_space_bench();
    expansion_bench();
    slink_bench();
    println!("\n== metrics ==");
    print!("{}", db_obs::render_table(&db_obs::snapshot()));
}
