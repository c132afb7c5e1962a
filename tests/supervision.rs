//! Chaos suite for the run-supervision layer: deadlines, cooperative
//! cancellation, worker-panic isolation, fault injection, the graceful
//! degradation ladder, and the matrix byte budget.
//!
//! The fault-injection spec is process-global (it models the `DB_FAULT`
//! environment variable), so every test that arms it serializes on
//! [`FAULTS`] and clears the spec before releasing the lock.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use data_bubbles::pipeline::{
    run_pipeline, run_pipeline_supervised, CancelToken, Compressor, PipelineConfig, PipelineError,
    PipelineOutput, PipelinePhase, Recovery, RunBudget,
};
use db_birch::BirchParams;
use db_optics::OpticsParams;
use db_spatial::Dataset;
use db_supervise::fault;

/// Serializes tests that set the process-global fault spec.
static FAULTS: Mutex<()> = Mutex::new(());

/// Arms `spec` for the duration of the returned guard; the spec is
/// cleared when the guard drops, even on panic.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn arm(spec: &str) -> FaultGuard {
    let lock = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::set_spec(Some(spec));
    FaultGuard(lock)
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        fault::set_spec(None);
    }
}

/// Large enough that classification takes its threaded path (needs at
/// least 1024 points) and statistics accumulation spans multiple 4096-
/// point blocks, so every parallel fault point is actually reachable.
fn big_two_squares() -> Dataset {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..4600 {
        let (x, y) = ((i % 50) as f64 * 0.2, (i / 50) as f64 * 0.2);
        ds.push(&[x, y]).unwrap();
        ds.push(&[x + 200.0, y]).unwrap();
    }
    ds
}

fn params() -> OpticsParams {
    OpticsParams { eps: f64::INFINITY, min_pts: 12 }
}

fn cfg(k: usize, compressor: Compressor, recovery: Recovery) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(k, compressor, recovery, params());
    // The container may report a single core; force real workers so the
    // threaded paths (and their fault points) are exercised.
    cfg.threads = NonZeroUsize::new(2);
    cfg
}

fn assert_identical(base: &PipelineOutput, other: &PipelineOutput, ctx: &str) {
    assert_eq!(base.n_representatives, other.n_representatives, "{ctx}: representative count");
    assert_eq!(base.rep_ordering, other.rep_ordering, "{ctx}: rep ordering differs");
    assert_eq!(base.expanded, other.expanded, "{ctx}: expanded ordering differs");
}

// ---------------------------------------------------------------- panics

/// Worker panics in every parallel phase must surface as typed
/// `WorkerPanic` errors with the right phase — the process (and the next
/// run) survives.
#[test]
fn injected_worker_panics_surface_as_typed_errors() {
    let ds = big_two_squares();
    // (fault point, phase it must be attributed to, variant that reaches it)
    let cases: Vec<(&str, PipelinePhase, Compressor, Recovery)> = vec![
        (
            "classify.worker:panic",
            PipelinePhase::Compression,
            Compressor::Sample { seed: 7 },
            Recovery::Weighted,
        ),
        (
            "classify.worker:panic",
            PipelinePhase::Compression,
            Compressor::Birch(BirchParams::default()),
            Recovery::Bubbles,
        ),
        (
            "stats.worker:panic",
            PipelinePhase::Compression,
            Compressor::Sample { seed: 7 },
            Recovery::Bubbles,
        ),
        (
            "matrix.worker:panic",
            PipelinePhase::Clustering,
            Compressor::Sample { seed: 7 },
            Recovery::Bubbles,
        ),
        (
            "matrix.worker:panic",
            PipelinePhase::Clustering,
            Compressor::Birch(BirchParams::default()),
            Recovery::Bubbles,
        ),
    ];
    for (spec, want_phase, compressor, recovery) in cases {
        let c = cfg(40, compressor.clone(), recovery);
        let baseline = {
            let _quiet = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            run_pipeline(&ds, &c).expect("clean run")
        };
        {
            let _armed = arm(spec);
            match run_pipeline(&ds, &c) {
                Err(PipelineError::WorkerPanic { phase, message }) => {
                    assert_eq!(phase, want_phase, "{spec}: wrong phase");
                    assert!(
                        message.contains("injected fault"),
                        "{spec}: panic payload lost: {message}"
                    );
                }
                other => panic!("{spec}: expected WorkerPanic, got {other:?}"),
            }
        }
        // The panic was isolated: an immediate clean re-run is unaffected
        // and bit-identical.
        let _quiet = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let retry = run_pipeline(&ds, &c).expect("re-run after isolated panic");
        assert_identical(&baseline, &retry, spec);
    }
}

// ------------------------------------------------------------ cancel/deadline

/// A cancel fault at each phase boundary yields `Cancelled` attributed to
/// that phase, with no partial output and no panic.
#[test]
fn cancel_faults_are_attributed_to_their_phase() {
    let ds = big_two_squares();
    for (spec, want_phase) in [
        ("compression:cancel", PipelinePhase::Compression),
        ("clustering:cancel", PipelinePhase::Clustering),
        ("recovery:cancel", PipelinePhase::Recovery),
    ] {
        let _armed = arm(spec);
        let token = CancelToken::new();
        let mut c = cfg(40, Compressor::Sample { seed: 7 }, Recovery::Bubbles);
        c.cancel = Some(token);
        match run_pipeline(&ds, &c) {
            Err(PipelineError::Cancelled { phase }) => {
                assert_eq!(phase, want_phase, "{spec}: wrong phase");
            }
            other => panic!("{spec}: expected Cancelled, got {other:?}"),
        }
    }
}

/// Deadlines are honored within 50ms on every adversarial corpus, for
/// both compression backends, with typed phase attribution.
#[test]
fn deadlines_are_honored_within_50ms_on_adversarial_corpora() {
    let _quiet = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let corpora: Vec<(&str, Dataset)> = vec![
        ("big_two_squares", big_two_squares()),
        ("far_offset", db_datagen::adversarial::far_offset_clusters(42).build().unwrap()),
        ("duplicates", db_datagen::adversarial::zero_variance_duplicates(0).build().unwrap()),
        ("singletons", db_datagen::adversarial::singleton_flood(3).build().unwrap()),
    ];
    for (name, ds) in &corpora {
        let k = (ds.len() / 8).clamp(2, 40);
        for compressor in
            [Compressor::Sample { seed: 11 }, Compressor::Birch(BirchParams::default())]
        {
            let mut c = cfg(k, compressor, Recovery::Bubbles);
            c.budget = RunBudget::with_deadline(Duration::from_micros(200));
            let t0 = Instant::now();
            let result = run_pipeline(ds, &c);
            let elapsed = t0.elapsed();
            match result {
                Err(PipelineError::DeadlineExceeded { .. }) => {}
                // A sub-millisecond corpus can legitimately finish first.
                Ok(_) => continue,
                other => panic!("{name}: expected DeadlineExceeded, got {other:?}"),
            }
            assert!(
                elapsed < Duration::from_millis(50) + Duration::from_micros(200),
                "{name}: took {elapsed:?} to react to a 200µs deadline"
            );
        }
    }
}

/// A deadline that fires mid-phase (forced by a delay fault inside the
/// matrix workers) is honored as soon as the workers' next check runs and
/// is attributed to the phase that overran. Timings are calibrated
/// against a clean run so the test holds on slow debug builds.
#[test]
fn mid_phase_deadline_is_attributed_to_the_overrunning_phase() {
    let ds = big_two_squares();
    let mut c = cfg(40, Compressor::Sample { seed: 7 }, Recovery::Bubbles);

    let _armed = {
        let lock = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let t0 = Instant::now();
        run_pipeline(&ds, &c).expect("clean calibration run");
        let clean = t0.elapsed();
        // Deadline comfortably above the whole clean run (so it cannot
        // fire before clustering); worker delay comfortably above the
        // deadline (so it fires during the injected stall).
        c.budget = RunBudget::with_deadline(clean * 3 + Duration::from_millis(50));
        let delay = 2 * (clean * 3 + Duration::from_millis(50)) + Duration::from_millis(50);
        fault::set_spec(Some(&format!("matrix.worker:delay:{}", delay.as_millis())));
        FaultGuard(lock)
    };

    match run_pipeline(&ds, &c) {
        Err(PipelineError::DeadlineExceeded { phase, elapsed }) => {
            assert_eq!(phase, PipelinePhase::Clustering);
            assert!(elapsed >= c.budget.deadline.expect("deadline set"));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

// ------------------------------------------------------------------ ladder

/// A slow distance-matrix build degrades in two rungs (halve k, then
/// disable the matrix) and then succeeds, recording both rungs and
/// reporting degraded health.
/// Calibrates a (deadline, armed fault) pair against a clean run of
/// `c` so that any attempt hitting `fault_point`'s delay overruns the
/// deadline while a clean attempt finishes well inside it — robust to
/// debug-build speed.
fn arm_overrun(ds: &Dataset, c: &mut PipelineConfig, fault_point: &str) -> FaultGuard {
    let lock = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let t0 = Instant::now();
    run_pipeline(ds, c).expect("clean calibration run");
    let clean = t0.elapsed();
    let deadline = clean * 3 + Duration::from_millis(50);
    let delay = 2 * deadline + Duration::from_millis(50);
    c.budget = RunBudget::with_deadline(deadline);
    fault::set_spec(Some(&format!("{fault_point}:delay:{}", delay.as_millis())));
    FaultGuard(lock)
}

#[test]
fn ladder_disables_the_matrix_when_its_build_is_what_overruns() {
    let ds = big_two_squares();
    let mut c = cfg(40, Compressor::Sample { seed: 7 }, Recovery::Bubbles);
    let _armed = arm_overrun(&ds, &mut c, "matrix.worker");
    db_obs::health::reset();
    let out = run_pipeline_supervised(&ds, &c).expect("ladder should recover");
    let actions: Vec<&str> = out.degradations.iter().map(|d| d.action.as_str()).collect();
    assert_eq!(actions, ["halved k to 20", "disabled the distance matrix"], "rungs taken");
    for d in &out.degradations {
        assert!(
            matches!(d.cause, PipelineError::DeadlineExceeded { .. }),
            "rung cause must be the deadline: {:?}",
            d.cause
        );
    }
    assert_eq!(db_obs::health::current().status, db_obs::health::Status::Degraded);
    assert!(db_obs::health::current().detail.contains("disabled the distance matrix"));
}

/// When the parallel classification itself is slow, only the final rung
/// (single-threaded execution, which bypasses the worker fault point)
/// rescues the run — all three rungs are recorded.
#[test]
fn ladder_falls_back_to_a_single_thread_as_the_last_rung() {
    let ds = big_two_squares();
    let mut c = cfg(40, Compressor::Sample { seed: 7 }, Recovery::Bubbles);
    let _armed = arm_overrun(&ds, &mut c, "classify.worker");
    db_obs::health::reset();
    let out = run_pipeline_supervised(&ds, &c).expect("single-threaded rung should recover");
    let actions: Vec<&str> = out.degradations.iter().map(|d| d.action.as_str()).collect();
    assert_eq!(
        actions,
        ["halved k to 20", "disabled the distance matrix", "dropped to a single thread"],
        "rungs taken"
    );
    assert_eq!(db_obs::health::current().status, db_obs::health::Status::Degraded);
}

/// When even the coarsest configuration cannot meet the deadline, the
/// ladder gives up with the typed error and reports failing health.
#[test]
fn exhausted_ladder_reports_failing_health() {
    let ds = big_two_squares();
    // A delay at the clustering boundary runs on the pipeline thread
    // itself, so no rung can dodge it.
    let _armed = arm("clustering:delay:80");
    db_obs::health::reset();
    let mut c = cfg(40, Compressor::Sample { seed: 7 }, Recovery::Bubbles);
    c.budget = RunBudget::with_deadline(Duration::from_millis(25));
    match run_pipeline_supervised(&ds, &c) {
        Err(PipelineError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded after the full ladder, got {other:?}"),
    }
    assert_eq!(db_obs::health::current().status, db_obs::health::Status::Failing);
    db_obs::health::reset();
}

/// Cancellation is a caller decision, never retried by the ladder.
#[test]
fn ladder_does_not_retry_cancellation() {
    let ds = big_two_squares();
    let _armed = arm("clustering:cancel");
    db_obs::health::reset();
    let token = CancelToken::new();
    let mut c = cfg(40, Compressor::Sample { seed: 7 }, Recovery::Bubbles);
    c.cancel = Some(token);
    match run_pipeline_supervised(&ds, &c) {
        Err(PipelineError::Cancelled { phase }) => {
            assert_eq!(phase, PipelinePhase::Clustering);
        }
        other => panic!("expected Cancelled (no retries), got {other:?}"),
    }
    assert_eq!(db_obs::health::current().status, db_obs::health::Status::Failing);
    db_obs::health::reset();
}

/// A clean supervised run records no degradations and reports ok health.
#[test]
fn unconstrained_supervised_run_is_clean_and_identical_to_unsupervised() {
    let ds = big_two_squares();
    let _quiet = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    db_obs::health::reset();
    let c = cfg(40, Compressor::Sample { seed: 7 }, Recovery::Bubbles);
    let plain = run_pipeline(&ds, &c).expect("plain run");
    let supervised = run_pipeline_supervised(&ds, &c).expect("supervised run");
    assert!(supervised.degradations.is_empty());
    assert_identical(&plain, &supervised, "supervised vs plain");
    assert_eq!(db_obs::health::current().status, db_obs::health::Status::Ok);
    db_obs::health::reset();
}

// ------------------------------------------------------ matrix-backed walk

/// The row walk over the distance matrix computes every core-distance up
/// front, sub-MinPts bubbles in parallel workers (fault point
/// `optics.core_worker`), and then makes one pass per bubble. A panic in
/// those workers, a cancel raised inside the walk, and a deadline that
/// fires while the workers stall all stop the run in the clustering
/// phase; a cancel is honoured within 50ms.
#[test]
fn matrix_backed_walk_stops_in_the_clustering_phase() {
    let ds = big_two_squares();
    let mut c = cfg(40, Compressor::Sample { seed: 7 }, Recovery::Bubbles);
    // Above every bubble's ~230 points: each core-distance reads its row.
    c.optics.min_pts = 300;
    let baseline = {
        let _quiet = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        run_pipeline(&ds, &c).expect("clean run")
    };
    {
        let _armed = arm("optics.core_worker:panic");
        match run_pipeline(&ds, &c) {
            Err(PipelineError::WorkerPanic { phase, message }) => {
                assert_eq!(phase, PipelinePhase::Clustering);
                assert!(message.contains("injected fault"), "panic payload lost: {message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
    {
        let _armed = arm("optics.core_worker:cancel");
        let token = CancelToken::new();
        let mut cancelled = c.clone();
        cancelled.cancel = Some(token.clone());
        // A watcher notes when the fault cancels the token, so the time
        // the run takes to notice can be measured.
        let done = std::sync::atomic::AtomicBool::new(false);
        let (result, reaction) = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                while !token.is_cancelled() && !done.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Instant::now()
            });
            let result = run_pipeline(&ds, &cancelled);
            let returned = Instant::now();
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            let seen = watcher.join().expect("watcher");
            (result, returned.saturating_duration_since(seen))
        });
        match result {
            Err(PipelineError::Cancelled { phase }) => assert_eq!(phase, PipelinePhase::Clustering),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(reaction < Duration::from_millis(50), "took {reaction:?} to react to the cancel");
    }
    {
        let mut overrun = c.clone();
        let _armed = arm_overrun(&ds, &mut overrun, "optics.core_worker");
        match run_pipeline(&ds, &overrun) {
            Err(PipelineError::DeadlineExceeded { phase, elapsed }) => {
                assert_eq!(phase, PipelinePhase::Clustering);
                assert!(elapsed >= overrun.budget.deadline.expect("deadline set"));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    // Nothing leaked into the next run.
    let _quiet = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    assert_identical(&baseline, &run_pipeline(&ds, &c).expect("re-run"), "after the stops");
}

/// A deadline halfway through the clustering phase of a run whose
/// clustering dominates (k = 2,000 bubbles of ~5 points at MinPts 12, so
/// the up-front core-distance pass reads most rows and the walk makes
/// 2,000 row passes) is detected within 50ms and attributed to the
/// clustering phase.
#[test]
fn deadline_inside_the_matrix_backed_walk_is_honoured_within_50ms() {
    let ds = big_two_squares();
    let _quiet = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut c = cfg(2000, Compressor::Sample { seed: 7 }, Recovery::Bubbles);
    let clean = run_pipeline(&ds, &c).expect("clean calibration run").timings;
    let deadline = clean.compression + clean.clustering / 2;
    c.budget = RunBudget::with_deadline(deadline);
    match run_pipeline(&ds, &c) {
        Err(PipelineError::DeadlineExceeded { phase, elapsed }) => {
            assert_eq!(phase, PipelinePhase::Clustering, "clean timings {clean:?}");
            assert!(elapsed >= deadline);
            assert!(
                elapsed < deadline + Duration::from_millis(50),
                "took {:?} to react to the deadline",
                elapsed - deadline
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

// ----------------------------------------------------------- matrix budget

/// `max_matrix_bytes` skips the precomputed matrix without changing a bit
/// of the output (the on-the-fly path is exact) and without counting as a
/// degradation.
#[test]
fn matrix_byte_budget_skips_the_matrix_bit_identically() {
    let ds = big_two_squares();
    let _quiet = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut c = cfg(40, Compressor::Sample { seed: 7 }, Recovery::Bubbles);
    let unconstrained = run_pipeline(&ds, &c).expect("unconstrained");

    // 40×40×8 bytes = 12,800: a 1,000-byte cap must force the skip.
    let skipped_before = db_obs::snapshot().counter("pipeline.matrix_skipped_budget").unwrap_or(0);
    c.budget.max_matrix_bytes = Some(1_000);
    let capped = run_pipeline_supervised(&ds, &c).expect("capped");
    assert_identical(&unconstrained, &capped, "matrix byte cap");
    assert!(capped.degradations.is_empty(), "a quality-preserving skip is not a degradation");
    if cfg!(feature = "metrics") {
        let skipped = db_obs::snapshot().counter("pipeline.matrix_skipped_budget").unwrap_or(0);
        assert!(skipped > skipped_before, "skip must be counted");
    }

    // A cap generous enough for the matrix changes nothing either.
    c.budget.max_matrix_bytes = Some(usize::MAX);
    let roomy = run_pipeline(&ds, &c).expect("roomy cap");
    assert_identical(&unconstrained, &roomy, "roomy matrix byte cap");
}

// ------------------------------------------------------------- fault spec

/// The spec parser accepts the documented grammar and rejects garbage
/// without panicking the process (the env path warns and ignores).
#[test]
fn fault_spec_grammar() {
    assert!(fault::parse_spec("compression:panic").is_ok());
    assert!(fault::parse_spec("clustering:delay:25,recovery:cancel").is_ok());
    assert!(fault::parse_spec("nonsense").is_err());
    assert!(fault::parse_spec("compression:explode").is_err());
    assert!(fault::parse_spec("clustering:delay:soon").is_err());
}
