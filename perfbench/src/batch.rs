//! The batch workloads: one `run_pipeline` (compress → cluster → recover)
//! over a 1M-scale file, as in the paper's runtime figures 16–18.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Instant;

use data_bubbles::pipeline::{
    expand_bubbles, run_pipeline, Compressor, ExpandedOrdering, PipelineConfig, PipelineOutput,
    Recovery,
};
use data_bubbles::{BubbleSpace, DataBubble};
use db_bench::experiments::common::{ds1_setup, family_setup, Setup};
use db_birch::{BirchParams, Cf, CfTree};
use db_datagen::{ds1, gaussian_family, Ds1Params, GaussianFamilyParams, LabeledDataset};
use db_obs::Json;
use db_optics::{optics, ClusterOrdering};
use db_sampling::{accumulate_stats_parallel, nn_classify_parallel};
use db_spatial::{read_csv, write_csv, CsvOptions, Dataset};
use db_supervise::fault;

use crate::check;
use crate::record::{median, samples, timed, Outcome, Tracer};
use crate::{alloc, out_dir, Args, BATCH_THREADS, SETUP_SHARE};

/// Fewest timed repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;

/// How a batch workload compresses its input.
enum Kind {
    /// OPTICS-SA-Bubbles: random sample + nearest-neighbour classification.
    Sample,
    /// OPTICS-CF-Bubbles: BIRCH with default parameters.
    Birch,
}

/// One batch workload.
pub struct Spec {
    name: &'static str,
    kind: Kind,
    n: usize,
    dim: usize,
    k: usize,
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let ds1 = |name, k| Spec { name, kind: Kind::Sample, n: 1_000_000, dim: 2, k };
        match name {
            "ds1_sa_k1000" => Some(ds1("ds1_sa_k1000", 1000)),
            "ds1_sa_k4000" => Some(ds1("ds1_sa_k4000", 4000)),
            "gauss16_cf_k1000" => Some(Spec {
                name: "gauss16_cf_k1000",
                kind: Kind::Birch,
                n: 500_000,
                dim: 16,
                k: 1000,
            }),
            _ => None,
        }
    }

    fn generate(&self, seed: u64) -> LabeledDataset {
        match self.kind {
            Kind::Sample => ds1(&Ds1Params { n: self.n, ..Ds1Params::default() }, seed),
            Kind::Birch => {
                // One fixed cluster layout; the seed draws which points of
                // it are used and their order. Over random layouts BIRCH's
                // threshold heuristic lands in one of two regimes (about
                // 16 or about 990 leaf entries, 1 s against 2.3 s per
                // run), which would make the workload bimodal across seeds.
                let pool = n_with_spare(self.n);
                let params = GaussianFamilyParams {
                    n: pool,
                    dim: self.dim,
                    ..GaussianFamilyParams::default()
                };
                let family = gaussian_family(&params, FAMILY_LAYOUT_SEED);
                let ids = db_rng::Rng::seed_from_u64(seed).sample_indices(pool, self.n);
                let labels = ids.iter().map(|&i| family.labels[i]).collect();
                LabeledDataset::new(family.data.subset(&ids), labels)
            }
        }
    }

    fn setup(&self) -> Setup {
        match self.kind {
            Kind::Sample => ds1_setup(self.n),
            Kind::Birch => family_setup(self.n, self.dim),
        }
    }

    fn config(&self, seed: u64) -> PipelineConfig {
        let compressor = match self.kind {
            // The sample seed is derived from the workload seed, so one
            // seed fixes both the data and the pipeline's draw.
            Kind::Sample => Compressor::Sample { seed: sample_seed(seed) },
            Kind::Birch => Compressor::Birch(BirchParams::default()),
        };
        let mut cfg = PipelineConfig::new(
            self.k,
            compressor,
            Recovery::Bubbles,
            self.setup().bubble_optics(),
        );
        cfg.threads = NonZeroUsize::new(BATCH_THREADS);
        cfg
    }

    fn params_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::Int(self.n as i64)),
            ("d".into(), Json::Int(self.dim as i64)),
            ("k".into(), Json::Int(self.k as i64)),
            (
                "compressor".into(),
                Json::Str(match self.kind {
                    Kind::Sample => "sample".into(),
                    Kind::Birch => "birch(default)".into(),
                }),
            ),
            ("threads".into(), Json::Int(BATCH_THREADS as i64)),
            ("cut".into(), Json::Num(self.setup().cut)),
            ("min_pts".into(), Json::Int(self.setup().min_pts as i64)),
        ])
    }
}

/// Generator seed of the Gaussian family's cluster layout.
const FAMILY_LAYOUT_SEED: u64 = 1;

/// Size of the pool a CF workload draws its points from.
fn n_with_spare(n: usize) -> usize {
    n + n / 4
}

pub fn sample_seed(seed: u64) -> u64 {
    seed ^ 0x5eed_5a3f_1e00_0001
}

/// Ground truth at the macro level: DS1's nested clusters take their
/// top-level parent's label; noise stays noise.
pub fn macro_truth(data: &LabeledDataset, nested: bool) -> Vec<i32> {
    if !nested {
        return data.labels.clone();
    }
    data.labels
        .iter()
        .map(|&l| {
            usize::try_from(l)
                .ok()
                .and_then(|i| db_datagen::DS1_COMPONENTS.get(i))
                .map_or(l, |c| c.parent.unwrap_or(l))
        })
        .collect()
}

pub fn run(spec: &Spec, args: &Args, out: &mut Outcome, tr: &mut Tracer) -> Result<(), String> {
    out.meta("params", spec.params_json());
    let data = spec.generate(args.seed);
    let truth = macro_truth(&data, matches!(spec.kind, Kind::Sample));
    let input = InputFile::write(&data.data, spec.name, args.seed)?;

    // Untimed first read: the first large read in a process pays for
    // growing the heap.
    let ds = input.read()?;
    let same_input = ds.dim() == data.data.dim()
        && ds.as_flat().iter().zip(data.data.as_flat()).all(|(a, b)| a.to_bits() == b.to_bits())
        && ds.len() == data.len();
    out.check(same_input, || "read_csv did not return the generated input".into());
    drop(data.data);

    let cfg = spec.config(args.seed);
    let cut = spec.setup().cut;
    // Untimed warm-up: the first pipeline call in a process pays one-time
    // costs (page faults on fresh heap, lazily registered metrics).
    let reference = run_pipeline(&ds, &cfg).map_err(|e| format!("run_pipeline: {e}"))?;
    let expanded = reference.expanded.as_ref().ok_or("Bubbles recovery returned no expansion")?;
    out.check(check::is_permutation(expanded, ds.len()), || {
        "expanded ordering is not a permutation of 0..n".into()
    });
    let labels = expanded.extract_dbscan(cut);
    let ari = db_eval::adjusted_rand_index(&labels, &truth);
    out.meta("n_representatives", Json::Int(reference.n_representatives as i64));
    out.meta("ari", Json::Num(ari));

    if args.trace {
        return traced(&input, &ds, &cfg, &reference, args, out, tr);
    }

    // Each repetition reads the input file (the set-up, see `SETUP_SHARE`)
    // and then runs the pipeline, until the pipeline calls add up to
    // `--seconds`. Both metrics thus sample the whole run: on a shared
    // virtual machine the speed of the same read drifts by a third within
    // seconds, so a block of reads at the start follows the host more than
    // the program.
    let (mut setup_s, mut run_s, mut peak_mb) = (Vec::new(), Vec::new(), 0.0f64);
    let (mut reps, mut measured_s) = (0, 0.0);
    while reps < MIN_REPS || measured_s < args.seconds.as_secs_f64() {
        reps += 1;
        loop {
            setup_s.push(timed_read(&input, ds.len(), out, tr));
            if setup_s.iter().sum::<f64>() >= SETUP_SHARE * measured_s {
                break;
            }
        }
        alloc::reset_peak();
        let (result, secs) = timed(|| run_pipeline(&ds, &cfg));
        peak_mb = peak_mb.max(alloc::peak_mb());
        measured_s += secs;
        let output = match result {
            Ok(o) => o,
            Err(e) => {
                out.check(false, || format!("run_pipeline failed: {e}"));
                continue;
            }
        };
        let Some(exp) = output.expanded.as_ref() else {
            out.check(false, || "run_pipeline returned no expansion".into());
            continue;
        };
        let rep_labels = exp.extract_dbscan(cut);
        out.check(same_output(&output, &reference) && rep_labels == labels, || {
            format!("repetition {reps} differs from the first run")
        });
        run_s.push(secs);
    }

    out.meta("timed_reps", Json::Int(run_s.len() as i64));
    out.meta("setup_samples_s", samples(&setup_s));
    out.meta("run_samples_s", samples(&run_s));
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("run_s", median(&run_s), "s");
    out.metric("ari", ari, "ratio");
    out.metric("peak_heap_mb", peak_mb, "MB");
    Ok(())
}

/// One timed set-up: `read_csv` of the input file, checked for length.
fn timed_read(input: &InputFile, n: usize, out: &mut Outcome, tr: &mut Tracer) -> f64 {
    let (read, secs) = tr.span("spatial.read_csv", || timed(|| input.read()));
    out.check(read.is_ok_and(|r| r.len() == n), || "a set-up read failed".into());
    secs
}

/// The workload's input file, removed when dropped.
struct InputFile(PathBuf);

impl InputFile {
    /// Writes `ds` as CSV and flushes it to disk, so its write-back does
    /// not run during the timed reads.
    fn write(ds: &Dataset, workload: &str, seed: u64) -> Result<Self, String> {
        let file = InputFile(out_dir().join(format!("input-{workload}-{seed}.csv")));
        let fail = |e: std::io::Error| format!("writing {}: {e}", file.0.display());
        write_csv(ds, &file.0).map_err(fail)?;
        std::fs::File::open(&file.0).and_then(|f| f.sync_all()).map_err(fail)?;
        Ok(file)
    }

    fn read(&self) -> Result<Dataset, String> {
        read_csv(&self.0, &CsvOptions::default())
            .map_err(|e| format!("reading {}: {e}", self.0.display()))
    }
}

impl Drop for InputFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn same_output(a: &PipelineOutput, b: &PipelineOutput) -> bool {
    check::same_ordering(&a.rep_ordering, &b.rep_ordering)
        && match (&a.expanded, &b.expanded) {
            (Some(x), Some(y)) => check::same_expanded(x, y),
            _ => false,
        }
}

/// The layers of the decomposed batch path in call order: span name and
/// per-layer metric.
const LAYERS: [(&str, &str); 9] = [
    ("sampling.draw", "sampling.draw_s"),
    ("sampling.classify", "sampling.classify_s"),
    ("sampling.stats", "sampling.stats_s"),
    ("birch.insert", "birch.insert_s"),
    ("birch.condense", "birch.condense_s"),
    ("core.bubbles", "core.bubbles_s"),
    ("core.matrix", "core.matrix_s"),
    ("optics.walk", "optics.walk_s"),
    ("core.expand", "core.expand_s"),
];

/// `run_pipeline` decomposed into the public call of each layer, each
/// under its own span inside one `pipeline` span. Returns the cluster
/// ordering over the representatives and its expansion, which must equal
/// `run_pipeline`'s bit for bit.
fn decomposed(
    ds: &Dataset,
    cfg: &PipelineConfig,
    tr: &mut Tracer,
) -> Result<(ClusterOrdering, ExpandedOrdering), String> {
    let root = tr.begin("pipeline");
    let (stats, assignment): (Vec<Cf>, Vec<u32>) = match &cfg.compressor {
        Compressor::Sample { seed } => {
            let reps = tr.span("sampling.draw", || {
                let mut rng = db_rng::Rng::seed_from_u64(*seed);
                let mut ids = rng.sample_indices(ds.len(), cfg.k);
                ids.sort_unstable();
                ds.subset(&ids)
            });
            let assignment =
                tr.span("sampling.classify", || nn_classify_parallel(ds, &reps, cfg.threads));
            let stats = tr.span("sampling.stats", || {
                accumulate_stats_parallel(ds, &assignment, cfg.k, cfg.threads)
            });
            (stats, assignment)
        }
        Compressor::Birch(params) => {
            let mut tree = tr.span("birch.insert", || {
                let mut tree = CfTree::new(ds.dim(), params.clone());
                for p in ds.iter() {
                    tree.insert_point(p);
                }
                tree
            });
            let (cfs, reps) = tr.span("birch.condense", || {
                tree.condense_to(cfg.k);
                let cfs = tree.leaf_entries();
                let mut reps =
                    Dataset::with_capacity(ds.dim(), cfs.len()).map_err(|e| e.to_string())?;
                let mut buf = Vec::with_capacity(ds.dim());
                for cf in &cfs {
                    cf.centroid_into(&mut buf);
                    reps.push(&buf).map_err(|e| e.to_string())?;
                }
                Ok::<_, String>((cfs, reps))
            })?;
            let assignment =
                tr.span("sampling.classify", || nn_classify_parallel(ds, &reps, cfg.threads));
            (cfs, assignment)
        }
        _ => return Err("the batch workloads compress by sampling or BIRCH".into()),
    };
    let result = cluster_and_expand(&stats, &assignment, cfg, tr);
    tr.end(root);
    result
}

/// The clustering and recovery steps `run_pipeline` and
/// `recluster_supervised` share, one span per layer call: bubbles from
/// the statistics, the distance matrix, the OPTICS walk, and the
/// expansion to every object of `assignment`.
pub fn cluster_and_expand(
    stats: &[Cf],
    assignment: &[u32],
    cfg: &PipelineConfig,
    tr: &mut Tracer,
) -> Result<(ClusterOrdering, ExpandedOrdering), String> {
    let mut space = tr.span("core.bubbles", || {
        let bubbles: Vec<DataBubble> = stats
            .iter()
            .map(DataBubble::try_from_cf)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        BubbleSpace::try_new(bubbles).map_err(|e| e.to_string())
    })?;
    tr.span("core.matrix", || space.precompute_matrix(cfg.threads, cfg.matrix_max_k));
    let ordering = tr.span("optics.walk", || optics(&space, &cfg.optics));
    let expanded = tr.span("core.expand", || {
        let mut members = vec![Vec::new(); space.bubbles().len()];
        for (i, &a) in assignment.iter().enumerate() {
            members[a as usize].push(i);
        }
        expand_bubbles(&ordering, &members, &space, cfg.optics.min_pts)
    });
    Ok((ordering, expanded))
}

/// The traced run: decomposed repetitions alternating with `run_pipeline`
/// calls, each after a set-up read, per-layer self times, exact counters,
/// and the layer-attribution self-check.
fn traced(
    input: &InputFile,
    ds: &Dataset,
    cfg: &PipelineConfig,
    reference: &PipelineOutput,
    args: &Args,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Result<(), String> {
    let ref_expanded = reference.expanded.as_ref().ok_or("no reference expansion")?;
    let matches = |(o, x): &(ClusterOrdering, ExpandedOrdering)| {
        check::same_ordering(o, &reference.rep_ordering) && check::same_expanded(x, ref_expanded)
    };
    let counter = |name: &'static str| db_obs::registry_counter(name).get();

    let mark = tr.mark();
    let start = Instant::now();
    let mut run_s = Vec::new();
    let mut counts = None;
    while run_s.len() < 2 || start.elapsed() < args.seconds {
        timed_read(input, ds.len(), out, tr);
        let before = (
            counter("spatial.dist_evals"),
            counter("optics.distance_calls"),
            counter("birch.rebuilds"),
        );
        let result = decomposed(ds, cfg, tr)?;
        counts.get_or_insert((
            counter("spatial.dist_evals") - before.0,
            counter("optics.distance_calls") - before.1,
            counter("birch.rebuilds") - before.2,
            db_obs::registry_gauge("optics.matrix_bytes").get(),
        ));
        out.check(matches(&result), || "decomposed calls differ from run_pipeline".into());
        let (result, secs) = timed(|| run_pipeline(ds, cfg));
        out.check(result.is_ok_and(|o| same_output(&o, reference)), || {
            "run_pipeline differs from the first run".into()
        });
        run_s.push(secs);
    }

    out.metric("spatial.read_csv_s", median(&tr.self_times("spatial.read_csv", mark)), "s");
    for (layer, metric) in LAYERS {
        out.metric(metric, layer_median(tr, layer, mark), "s");
    }
    // The root span's self time is the glue between layer calls; the
    // rest of its duration is the sum of the layer spans.
    let walls = tr.durations("pipeline", mark);
    let glue = tr.self_times("pipeline", mark);
    let span_sums: Vec<f64> = walls.iter().zip(&glue).map(|(w, g)| w - g).collect();
    let run_median = median(&run_s);
    out.metric("trace.span_sum_s", median(&span_sums), "s");
    out.metric("trace.wall_s", median(&walls), "s");
    out.metric("trace.run_s", run_median, "s");
    out.metric("trace.overhead_s", median(&walls) - run_median, "s");
    if let Some((dist_evals, distance_calls, rebuilds, matrix_bytes)) = counts {
        out.metric("spatial.dist_evals", dist_evals as f64, "count");
        out.metric("optics.distance_calls", distance_calls as f64, "count");
        out.metric("birch.rebuilds", rebuilds as f64, "count");
        out.metric("optics.matrix_bytes", matrix_bytes as f64, "bytes");
    }
    out.meta("traced_reps", Json::Int(walls.len() as i64));

    attribution_self_check(ds, cfg, &matches, out, tr)
}

/// Median self time of `layer`'s spans since `mark`; 0 for a layer the
/// path did not call.
fn layer_median(tr: &Tracer, layer: &str, mark: usize) -> f64 {
    let v = median(&tr.self_times(layer, mark));
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

/// Share plus floor by which a layer's traced time may grow before the
/// self-check calls it moved.
const MOVE_SHARE: f64 = 0.25;
const MOVE_FLOOR_S: f64 = 0.010;
/// Clean and faulted repetition pairs per injected fault.
const FAULT_ROUNDS: usize = 3;

/// Injects a delay into one layer's workers through `DB_FAULT`'s fault
/// points and checks that the per-layer table blames that layer and no
/// other. Each round runs the decomposed path clean and then faulted, so
/// the two sit seconds apart and host drift between them stays small; a
/// layer moved when the median over rounds of its faulted-minus-clean
/// time exceeds 25% of its median clean time plus 10 ms. The delay equals
/// the layer's clean time (a 2× slowdown), at least 50 ms.
fn attribution_self_check(
    ds: &Dataset,
    cfg: &PipelineConfig,
    matches: &dyn Fn(&(ClusterOrdering, ExpandedOrdering)) -> bool,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Result<(), String> {
    let layers = LAYERS.map(|(l, _)| l);
    let mut verdicts = Vec::new();
    for (point, layer) in
        [("classify.worker", "sampling.classify"), ("matrix.worker", "core.matrix")]
    {
        let target = layers.iter().position(|&l| l == layer).ok_or("unknown fault layer")?;
        let (mut clean, mut excess) =
            (vec![Vec::new(); layers.len()], vec![Vec::new(); layers.len()]);
        let mut delay_ms = 0;
        for _ in 0..FAULT_ROUNDS {
            let mark = tr.mark();
            let result = decomposed(ds, cfg, tr)?;
            out.check(matches(&result), || "decomposed calls differ from run_pipeline".into());
            let clean_s = layers.map(|l| layer_median(tr, l, mark));
            delay_ms = (clean_s[target] * 1e3).max(50.0).round() as u64;

            fault::set_spec(Some(&format!("{point}:delay:{delay_ms}")));
            let mark = tr.mark();
            let result = decomposed(ds, cfg, tr);
            fault::set_spec(None);
            out.check(matches(&result?), || {
                format!("output changed under an injected {point} delay")
            });
            for (i, l) in layers.iter().enumerate() {
                clean[i].push(clean_s[i]);
                excess[i].push(layer_median(tr, l, mark) - clean_s[i]);
            }
        }
        let moved: Vec<&str> = layers
            .iter()
            .enumerate()
            .filter(|&(i, _)| median(&excess[i]) > median(&clean[i]) * MOVE_SHARE + MOVE_FLOOR_S)
            .map(|(_, l)| *l)
            .collect();
        out.check(moved == [layer], || {
            format!(
                "{delay_ms} ms injected at {point}: layers moved {moved:?}, expected only {layer}"
            )
        });
        verdicts.push(Json::Obj(vec![
            ("fault".into(), Json::Str(format!("{point}:delay:{delay_ms}"))),
            ("rounds".into(), Json::Int(FAULT_ROUNDS as i64)),
            ("moved".into(), Json::Arr(moved.iter().map(|m| Json::Str((*m).into())).collect())),
        ]));
    }
    out.meta("attribution", Json::Arr(verdicts));
    Ok(())
}
