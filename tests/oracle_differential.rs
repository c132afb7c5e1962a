//! Differential harness: the optimized production paths against the naive,
//! obviously-correct oracles of `db-oracle`.
//!
//! Comparison policy (DESIGN.md §10):
//!
//! * **Exact paths** — spatial indexes, the OPTICS walk, DBSCAN, the
//!   single-link merge heights — are compared with `==`: same squared-space
//!   ε predicate, same `(dist, id)` ordering, so any deviation is a bug.
//! * **Stable-statistics paths** — CF-derived bubble statistics against
//!   the pairwise closed forms of Def. 10 — are compared with the relative
//!   tolerances of `db_eval::rel_err`.
//! * **Compression quality** — bubble pipelines against exact OPTICS on the
//!   raw points — is compared with ARI at a shared cut level (the paper's
//!   own quality measure, §9).
//!
//! `ORACLE_ITERS` scales the seeded loops (default 100); see `ci.yml`.

use db_datagen::adversarial;
use db_datagen::{differential_corpora, ds1, ds2, Ds1Params, Ds2Params, Rng};
use db_eval::adjusted_rand_index;
use db_hierarchical::{agglomerative_from_fn, slink_from_fn, Dendrogram, Linkage};
use db_optics::{optics_points, suggest_cut, suggest_eps, OpticsParams};
use db_oracle::{
    exact_bubble, exact_dbscan, exact_knn, exact_optics, exact_range, exact_single_link_points,
};
use db_spatial::{
    euclidean, CellTable, Dataset, KdTree, LinearScan, Neighbor, SpatialIndex, VpTree,
};

use data_bubbles::pipeline::{run_pipeline, Compressor, PipelineConfig, Recovery};
use data_bubbles::DataBubble;
use db_birch::{BirchParams, Cf};

fn oracle_iters() -> usize {
    std::env::var("ORACLE_ITERS").ok().and_then(|s| s.parse().ok()).unwrap_or(100)
}

/// Every corpus the index-level differentials run on: the seeded datagen
/// families plus the well-formed adversarial sets (ties, huge offsets,
/// singleton floods).
fn index_corpora() -> Vec<(String, Dataset)> {
    let mut out: Vec<(String, Dataset)> = differential_corpora(42)
        .into_iter()
        .map(|c| (c.name.to_string(), c.labeled.data))
        .collect();
    out.push(("far_offset".into(), adversarial::far_offset_clusters(7).build().unwrap()));
    out.push(("duplicates".into(), adversarial::zero_variance_duplicates(8).build().unwrap()));
    out.push(("singletons".into(), adversarial::singleton_flood(9).build().unwrap()));
    out
}

/// Query points for a dataset: a spread of dataset points (exact hits,
/// including duplicates) plus off-data midpoints.
fn query_points(ds: &Dataset) -> Vec<Vec<f64>> {
    let mut qs = Vec::new();
    let step = (ds.len() / 6).max(1);
    for i in (0..ds.len()).step_by(step).take(6) {
        qs.push(ds.point(i).to_vec());
    }
    // Midpoint of the first and last point: generic off-data position.
    let (a, b) = (ds.point(0), ds.point(ds.len() - 1));
    qs.push(a.iter().zip(b).map(|(x, y)| 0.5 * (x + y)).collect());
    // Far outside the data.
    qs.push(a.iter().map(|x| x + 1e4).collect());
    qs
}

/// ε values for a query: degenerate, data-derived (including the *exact*
/// k-NN boundary distance, where the squared-space predicate matters), and
/// unbounded.
fn eps_values(ds: &Dataset, q: &[f64]) -> Vec<f64> {
    let mut eps = vec![0.0, 1e-12, f64::INFINITY];
    let nn = exact_knn(ds, q, 5);
    if let Some(last) = nn.last() {
        eps.push(last.dist); // exact boundary
        eps.push(last.dist * 1.5);
    }
    eps
}

#[test]
fn indexes_match_brute_force_exactly() {
    for (name, ds) in index_corpora() {
        let linear = LinearScan::build(&ds);
        let kd = KdTree::build(&ds);
        // The cell table where it builds (2-d, not collinear): its range
        // and k-NN queries go to its own kd-tree, its 1-NN to its lists.
        let table = CellTable::build(&ds);
        let mut indexes: Vec<(&str, &dyn SpatialIndex)> =
            vec![("linear", &linear), ("kdtree", &kd)];
        if let Some(table) = &table {
            indexes.push(("cells", table));
        }
        let mut out = Vec::new();
        for q in query_points(&ds) {
            for eps in eps_values(&ds, &q) {
                let expect = exact_range(&ds, &q, eps);
                for &(iname, index) in &indexes {
                    index.range(&ds, &q, eps, &mut out);
                    assert_eq!(out, expect, "{name}/{iname} range eps={eps}");
                }
            }
            for k in [1usize, 4, 17, ds.len(), ds.len() + 5] {
                let expect = exact_knn(&ds, &q, k);
                for &(iname, index) in &indexes {
                    index.knn(&ds, &q, k, &mut out);
                    assert_eq!(out, expect, "{name}/{iname} knn k={k}");
                }
            }
            let expect = exact_knn(&ds, &q, 1).first().copied();
            for &(iname, index) in &indexes {
                assert_eq!(index.nearest(&ds, &q), expect, "{name}/{iname} nearest");
            }
        }
    }
}

#[test]
fn vptree_matches_sqrt_space_brute_force() {
    // ORACLE: the VP-tree is a *metric* index — there is no squared space
    // for an arbitrary metric, so its ε predicate is `d ≤ eps` on the
    // distances the closure returns. That differs from the coordinate
    // indexes' squared-space predicate by at most one ulp at an exact
    // boundary, so the VP-tree gets its own sqrt-space brute force here
    // rather than `exact_range`. See DESIGN.md §10.
    for (name, ds) in index_corpora() {
        let metric = |a: usize, b: usize| euclidean(ds.point(a), ds.point(b));
        let tree = VpTree::build(ds.len(), &metric);
        let mut out = Vec::new();
        for q in query_points(&ds) {
            let dq = |id: usize| euclidean(ds.point(id), &q);
            for eps in eps_values(&ds, &q) {
                let mut expect: Vec<(usize, f64)> = (0..ds.len())
                    .filter_map(|id| {
                        let d = dq(id);
                        (d <= eps).then_some((id, d))
                    })
                    .collect();
                expect.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                tree.range(&dq, eps, &mut out);
                let got: Vec<(usize, f64)> = out.iter().map(|n| (n.id, n.dist)).collect();
                assert_eq!(got, expect, "{name}/vptree range eps={eps}");
            }
            let expect_nn = (0..ds.len())
                .map(|id| (dq(id), id))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let got = tree.nearest(&dq).map(|n| (n.dist, n.id));
            assert_eq!(got, expect_nn, "{name}/vptree nearest");
        }
    }
}

#[test]
fn optics_walk_matches_exact_optics() {
    for (name, ds) in index_corpora() {
        for min_pts in [3usize, 8] {
            for eps in [f64::INFINITY, suggest_eps(&ds, min_pts)] {
                let params = OpticsParams { eps, min_pts };
                let fast = optics_points(&ds, &params);
                let naive = exact_optics(&ds, &params);
                assert_eq!(fast, naive, "{name} optics eps={eps} min_pts={min_pts}");
            }
        }
    }
}

#[test]
fn dbscan_matches_exact_dbscan() {
    for (name, ds) in index_corpora() {
        for min_pts in [4usize, 10] {
            let eps = suggest_eps(&ds, min_pts);
            let fast = db_optics::dbscan(&ds, eps, min_pts);
            let naive = exact_dbscan(&ds, eps, min_pts);
            assert_eq!(fast, naive, "{name} dbscan eps={eps} min_pts={min_pts}");
        }
    }
}

/// Merge heights of a dendrogram, sorted ascending.
fn sorted_heights(d: &Dendrogram) -> Vec<f64> {
    let mut h: Vec<f64> = d.merges().iter().map(|m| m.dist).collect();
    h.sort_by(f64::total_cmp);
    h
}

#[test]
fn single_link_matches_exact_dendrogram() {
    // Any single-link algorithm must produce the multiset of MST edge
    // weights as its merge heights, and identical flat partitions at any
    // cut strictly between two distinct heights (merge *order* may differ
    // under ties, the partitions may not).
    for corpus in differential_corpora(17) {
        let ds = &corpus.labeled.data;
        if ds.len() > 150 {
            continue; // the O(n³) oracle is for small inputs
        }
        let naive = exact_single_link_points(ds);
        let expect = sorted_heights(&naive);
        let dist = |a: usize, b: usize| euclidean(ds.point(a), ds.point(b));
        for (aname, dendro) in [
            ("slink", slink_from_fn(ds.len(), dist)),
            ("agglo", agglomerative_from_fn(ds.len(), Linkage::Single, dist)),
        ] {
            assert_eq!(
                sorted_heights(&dendro),
                expect,
                "{}/{aname}: merge heights differ",
                corpus.name
            );
            // Cuts at midpoints between distinct consecutive heights.
            for w in expect.windows(2) {
                if w[1] > w[0] {
                    let cut = 0.5 * (w[0] + w[1]);
                    let ari = adjusted_rand_index(
                        &dendro.cut_at_distance(cut),
                        &naive.cut_at_distance(cut),
                    );
                    assert!(
                        (ari - 1.0).abs() < 1e-12,
                        "{}/{aname}: partition differs at cut {cut} (ARI {ari})",
                        corpus.name
                    );
                }
            }
        }
    }
}

#[test]
fn bubble_statistics_match_pairwise_closed_forms() {
    // DataBubble derives rep/extent from CF sufficient statistics (one
    // pass); the oracle evaluates Def. 10 pairwise. Agreement is within the
    // stable-statistics tolerance, not bit-exact.
    let mut rng = Rng::new(99);
    let corpora = index_corpora();
    let iters = oracle_iters();
    for it in 0..iters {
        let (name, ds) = &corpora[it % corpora.len()];
        let size = 1 + rng.below(40.min(ds.len()));
        let ids: Vec<usize> = (0..size).map(|_| rng.below(ds.len())).collect();
        let expect = exact_bubble(ds, &ids);

        let from_points = DataBubble::from_points(ds, &ids);
        let mut cf = Cf::empty(ds.dim());
        for &i in &ids {
            cf.add_point(ds.point(i));
        }
        let from_cf = DataBubble::from_cf(&cf);

        for (path, b) in [("from_points", &from_points), ("from_cf", &from_cf)] {
            assert_eq!(b.n(), expect.n, "{name}/{path}: point count");
            assert!(
                db_eval::all_close(b.rep(), &expect.rep, 1e-9),
                "{name}/{path}: rep {:?} vs {:?}",
                b.rep(),
                expect.rep
            );
            assert!(
                db_eval::rel_err(b.extent(), expect.extent) < 1e-6,
                "{name}/{path}: extent {} vs pairwise {}",
                b.extent(),
                expect.extent
            );
            for k in [1u64, 2, expect.n] {
                assert!(
                    db_eval::rel_err(b.nndist(k), expect.nndist(k)) < 1e-6,
                    "{name}/{path}: nndist({k})"
                );
            }
        }
    }
}

/// The six paper pipelines on a corpus, as (context, config) pairs.
fn six_configs(k: usize, seed: u64, optics: OpticsParams) -> Vec<(String, PipelineConfig)> {
    let mut out = Vec::new();
    for (cname, compressor) in
        [("SA", Compressor::Sample { seed }), ("CF", Compressor::Birch(BirchParams::default()))]
    {
        for recovery in [Recovery::Naive, Recovery::Weighted, Recovery::Bubbles] {
            out.push((
                format!("OPTICS-{cname}-{recovery:?} k={k}"),
                PipelineConfig::new(k, compressor.clone(), recovery, optics),
            ));
        }
    }
    out
}

#[test]
fn bubble_pipelines_reach_paper_grade_agreement_with_exact_optics() {
    // The paper's central quality claim (§9): with enough representatives,
    // Data-Bubble clusterings are nearly indistinguishable from OPTICS on
    // the full database. Acceptance: ARI ≥ 0.95 against *exact* OPTICS at
    // k ≥ 10% compression on DS1-style corpora.
    let min_pts = 10;
    let optics = OpticsParams { eps: f64::INFINITY, min_pts };
    let corpora = [
        ("ds1", ds1(&Ds1Params { n: 800, noise_fraction: 0.02 }, 5).data),
        ("ds2", ds2(&Ds2Params { n: 600, sigma: 2.0 }, 6).data),
    ];
    for (name, ds) in corpora {
        let exact = exact_optics(&ds, &optics);
        // Compare at the *macro-structure* cut (2× the suggested level):
        // `suggest_cut` targets the finest resolvable density level, and a
        // few-hundred-point rendition of a generator designed for 10⁶
        // points does not stably resolve its micro-clusters — the exact run
        // fragments them into sampling artifacts that bubbles legitimately
        // smooth. The paper's §9 quality claim is about the cluster
        // structure proper, which both runs resolve identically here.
        let cut = 2.0 * suggest_cut(&ds, min_pts);
        let exact_labels = db_optics::extract_dbscan(&exact, cut, ds.len());
        for k in [ds.len() / 10, (ds.len() * 15) / 100] {
            for (ctx, cfg) in six_configs(k, 21, optics) {
                let out = run_pipeline(&ds, &cfg).expect("pipeline runs");
                assert!(out.n_representatives > 0, "{name}/{ctx}: no representatives");
                if cfg.recovery == Recovery::Naive {
                    // Naive recovery loses the non-representative objects
                    // (the paper's "lost objects" problem) — there is no
                    // per-object labeling to compare.
                    assert!(out.expanded.is_none(), "{name}/{ctx}: unexpected expansion");
                    continue;
                }
                let expanded = out.expanded.as_ref().expect("recovery expands");
                // Both expanding recoveries solve the "lost objects"
                // problem: the expansion is a permutation of the database.
                let mut seen = vec![false; ds.len()];
                for id in expanded.order() {
                    assert!(!seen[id as usize], "{name}/{ctx}: object {id} expanded twice");
                    seen[id as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "{name}/{ctx}: expansion lost objects");
                let labels = expanded.extract_dbscan(cut);
                let ari = adjusted_rand_index(&labels, &exact_labels);
                if cfg.recovery == Recovery::Bubbles {
                    assert!(
                        ari >= 0.95,
                        "{name}/{ctx}: ARI {ari:.4} vs exact OPTICS below paper grade"
                    );
                }
                // Weighted recovery is *expected* to score poorly at a fixed
                // cut: it solves size distortion and lost objects but not
                // structural distortion (the motivation for Def. 9), so its
                // ARI is informational only.
            }
        }
    }
}

#[test]
fn def9_sub_minpts_bubble_regression() {
    // Regression for the Def. 9 second-branch fix: in an ε-bounded run a
    // bubble holding fewer than MinPts points has an UNDEFINED in-walk
    // core-distance; `expand_bubbles` must recover the unbounded
    // core-distance so its non-first members still get a *defined* virtual
    // reachability. Before the fix they inherited ∞.
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..200 {
        let (x, y) = ((i % 20) as f64 * 0.5, (i / 20) as f64 * 0.5);
        ds.push(&[x, y]).unwrap();
        ds.push(&[x + 40.0, y]).unwrap();
    }
    // A far 3-point group: its own grid region, below MinPts.
    let outliers = [400usize, 401, 402];
    ds.push(&[200.0, 200.0]).unwrap();
    ds.push(&[200.6, 200.0]).unwrap();
    ds.push(&[200.0, 200.6]).unwrap();

    let min_pts = 6;
    // ε big enough to keep each dense square connected, far too small to
    // reach the outlier group from anywhere (or the squares from it).
    let optics = OpticsParams { eps: 5.0, min_pts };
    let cfg = PipelineConfig::new(
        1, // k is ignored by GridSquash (must still pass validation)
        Compressor::GridSquash { bins_per_dim: 24 },
        Recovery::Bubbles,
        optics,
    );
    let out = run_pipeline(&ds, &cfg).expect("pipeline runs");
    let expanded = out.expanded.as_ref().expect("bubbles expand");

    // The outlier bubble entered the walk as a fresh start (UNDEFINED
    // reachability) with an UNDEFINED ε-bounded core-distance. Its members
    // beyond the first must still have finite virtual reachability.
    let outlier_entries: Vec<(u32, f64)> = expanded
        .order()
        .iter()
        .zip(expanded.reachabilities())
        .filter(|(id, _)| outliers.contains(&(**id as usize)))
        .map(|(&id, r)| (id, r))
        .collect();
    assert_eq!(outlier_entries.len(), 3, "all outliers present after expansion");
    let finite = outlier_entries.iter().filter(|(_, r)| r.is_finite()).count();
    assert!(
        finite >= 2,
        "sub-MinPts bubble members lost their virtual reachability: {outlier_entries:?}"
    );

    // Pin against oracle OPTICS on the raw points: at a cut below ε both
    // sides agree on the cluster structure (two dense squares; the outlier
    // trio is noise at MinPts = 6 either way).
    let exact = exact_optics(&ds, &optics);
    let cut = 1.0;
    let exact_labels = db_optics::extract_dbscan(&exact, cut, ds.len());
    let labels = expanded.extract_dbscan(cut);
    let ari = adjusted_rand_index(&labels, &exact_labels);
    assert!(ari >= 0.95, "expanded clustering diverged from exact OPTICS: ARI {ari:.4}");
    for &o in &outliers {
        assert_eq!(exact_labels[o], -1, "oracle should call outlier {o} noise");
    }
}

#[test]
fn seeded_random_queries_match_brute_force() {
    // A randomized sweep on top of the structured cases above: random
    // corpora, random queries, random ε — scaled by ORACLE_ITERS.
    let mut rng = Rng::new(4242);
    let iters = oracle_iters();
    for it in 0..iters {
        let n = 30 + rng.below(90);
        let dim = 1 + rng.below(4);
        let mut ds = Dataset::new(dim).unwrap();
        let mut p = vec![0.0; dim];
        for _ in 0..n {
            for x in p.iter_mut() {
                *x = rng.uniform_in(-50.0, 50.0);
            }
            ds.push(&p).unwrap();
        }
        let kd = KdTree::build(&ds);
        let table = CellTable::build(&ds);
        let mut out: Vec<Neighbor> = Vec::new();
        for _ in 0..4 {
            for x in p.iter_mut() {
                *x = rng.uniform_in(-60.0, 60.0);
            }
            let eps = rng.uniform_in(0.0, 80.0);
            let expect = exact_range(&ds, &p, eps);
            kd.range(&ds, &p, eps, &mut out);
            assert_eq!(out, expect, "iter {it}: kd range");
            let k = 1 + rng.below(n);
            let expect = exact_knn(&ds, &p, k);
            kd.knn(&ds, &p, k, &mut out);
            assert_eq!(out, expect, "iter {it}: kd knn");
            if let Some(table) = &table {
                let expect = exact_knn(&ds, &p, 1).first().copied();
                assert_eq!(table.nearest(&ds, &p), expect, "iter {it}: cell table nearest");
            }
        }
    }
}
