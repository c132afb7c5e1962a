//! Pipeline-level observability tests: after a real pipeline run the
//! registry must hold the algorithm counters, and the per-phase spans must
//! agree with the wall-clock `PipelineTimings`.
//!
//! The registry is process-global, so these tests serialize on a lock and
//! reset before each run. They are only meaningful with the `metrics`
//! feature (the default); without it the whole file compiles to nothing.
#![cfg(feature = "metrics")]

use std::sync::Mutex;

use data_bubbles::pipeline::{optics_sa_bubbles, PipelineTimings};
use db_optics::OpticsParams;
use db_spatial::Dataset;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Two dense squares far apart, 800 points each.
fn two_squares() -> Dataset {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..800 {
        let (x, y) = ((i % 40) as f64 * 0.25, (i / 40) as f64 * 0.25);
        ds.push(&[x, y]).unwrap();
        ds.push(&[x + 200.0, y]).unwrap();
    }
    ds
}

fn params() -> OpticsParams {
    OpticsParams { eps: f64::INFINITY, min_pts: 20 }
}

#[test]
fn sa_bubbles_records_algorithm_counters() {
    let _g = locked();
    db_obs::reset();
    let ds = two_squares();
    optics_sa_bubbles(&ds, 40, 7, &params()).unwrap();
    let snap = db_obs::snapshot();

    // The OPTICS walk over the bubble space evaluates k distances per
    // neighbourhood query, so at least k*k in total.
    let distance_calls = snap.counter("optics.distance_calls").unwrap_or(0);
    assert!(distance_calls >= 40 * 40, "optics.distance_calls = {distance_calls}");
    // One neighbourhood query per bubble processed.
    assert!(snap.counter("optics.neighborhood_queries").unwrap_or(0) >= 40);
    // Sampling classified every original object.
    assert_eq!(snap.counter("sampling.points_classified"), Some(ds.len() as u64));
    assert_eq!(snap.counter("sampling.reps_sampled"), Some(40));
    // Exactly one pipeline run.
    assert_eq!(snap.counter("pipeline.runs"), Some(1));
}

/// The bubble walk is a row walk: one row per bubble, reaches lowered in
/// the row pass, no heap and so no stale seeds; its counters arrive as
/// one tally per walk.
#[test]
fn row_walk_counts_one_query_per_bubble_and_no_stale_seeds() {
    let _g = locked();
    db_obs::reset();
    let ds = two_squares();
    optics_sa_bubbles(&ds, 40, 7, &params()).unwrap();
    let snap = db_obs::snapshot();
    assert_eq!(snap.counter("optics.neighborhood_queries"), Some(40));
    assert_eq!(snap.counter("optics.core_distance_queries"), Some(40));
    assert_eq!(snap.counter("optics.stale_seed_skips").unwrap_or(0), 0);
    // At ε = ∞ every bubble but the walk start gets a reach at least once.
    assert!(snap.counter("optics.seed_updates").unwrap_or(0) >= 39);
}

#[test]
fn phase_spans_match_pipeline_timings() {
    let _g = locked();
    db_obs::reset();
    let ds = two_squares();
    let out = optics_sa_bubbles(&ds, 40, 7, &params()).unwrap();
    let snap = db_obs::snapshot();

    // Each phase span fired exactly once and its total agrees with the
    // wall-clock timing within 5% (plus a small absolute slack for very
    // short phases, where the two Instant reads straddle the span's).
    let timings: &PipelineTimings = &out.timings;
    for (name, measured) in [
        ("pipeline.compression", timings.compression),
        ("pipeline.clustering", timings.clustering),
        ("pipeline.recovery", timings.recovery),
    ] {
        let span = snap.span(name).unwrap_or_else(|| panic!("span {name} missing"));
        assert_eq!(span.count, 1, "{name} fired {} times", span.count);
        let measured_ns = measured.as_nanos() as f64;
        let span_ns = span.total_ns as f64;
        let tolerance = measured_ns * 0.05 + 200_000.0;
        assert!(
            (span_ns - measured_ns).abs() <= tolerance,
            "{name}: span {span_ns} ns vs timing {measured_ns} ns (tolerance {tolerance} ns)"
        );
    }

    // The enclosing pipeline.run span covers all three phases.
    let run = snap.span("pipeline.run").unwrap();
    let phases_ns: u64 = ["pipeline.compression", "pipeline.clustering", "pipeline.recovery"]
        .iter()
        .map(|n| snap.span(n).unwrap().total_ns)
        .sum();
    assert!(run.total_ns >= phases_ns, "run {} < phases {}", run.total_ns, phases_ns);
    // Phase spans are children of pipeline.run: its self-time excludes them.
    assert!(run.self_ns <= run.total_ns - phases_ns + 200_000);
}

#[test]
fn linked_worker_spans_attribute_into_parent() {
    let _g = locked();
    db_obs::reset();
    // Big enough to cross nn_classify_parallel's sequential cutoff (1024)
    // so the classification actually fans out to worker threads.
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..4096 {
        ds.push(&[(i % 64) as f64, (i / 64) as f64]).unwrap();
    }
    let mut reps = Dataset::new(2).unwrap();
    for i in 0..8 {
        reps.push(&[(i * 8) as f64, (i * 8) as f64]).unwrap();
    }
    let threads = std::num::NonZeroUsize::new(4);
    db_sampling::nn_classify_parallel(&ds, &reps, threads);
    let snap = db_obs::snapshot();

    let parent = snap.span("sampling.nn_classify").expect("parent span");
    assert_eq!(parent.count, 1);
    let chunks = snap.span("sampling.classify_chunk").expect("worker spans");
    assert_eq!(chunks.count, 4, "one linked span per worker");
    assert!(chunks.total_ns > 0);

    // Cross-thread attribution: the workers' time reports into the parent
    // as child time, so the parent's self-time excludes it (clamped at
    // zero — concurrent workers can sum past the parent's wall time).
    assert!(
        parent.self_ns <= parent.total_ns.saturating_sub(chunks.total_ns),
        "parent self {} ns must exclude the {} ns of linked worker time (total {} ns)",
        parent.self_ns,
        chunks.total_ns,
        parent.total_ns
    );
}

#[test]
fn csv_reader_records_its_span_and_row_count() {
    let _g = locked();
    db_obs::reset();
    let input = "x,y\n# comment\n1,2\n\n3,4\n5,6\n";
    let options = db_spatial::CsvOptions { skip_lines: 1, skip_columns: 0 };
    let ds = db_spatial::read_csv_from(input.as_bytes(), &options).unwrap();
    let snap = db_obs::snapshot();

    // The span carries perfbench's layer name, so a production trace and
    // a bench report name the same layer.
    let span = snap.span("spatial.read_csv").expect("spatial.read_csv span");
    assert_eq!(span.count, 1);
    assert_eq!(snap.counter("spatial.csv_rows"), Some(ds.len() as u64));
    assert_eq!(ds.len(), 3);
}

#[test]
fn exporters_render_pipeline_metrics() {
    let _g = locked();
    db_obs::reset();
    let ds = two_squares();
    optics_sa_bubbles(&ds, 30, 1, &params()).unwrap();
    let snap = db_obs::snapshot();
    let table = db_obs::render_table(&snap);
    assert!(table.contains("optics.distance_calls"));
    assert!(table.contains("pipeline.clustering"));
    let jsonl = db_obs::json_lines(&snap);
    assert!(jsonl.lines().any(|l| l.contains(r#""kind":"span""#)));
    assert!(jsonl.lines().any(|l| l.contains(r#""name":"pipeline.runs""#)));
}
