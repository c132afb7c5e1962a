//! The six evaluation pipelines of the paper:
//! `OPTICS-{SA,CF}-{naive,weighted,Bubbles}` (Figures 5, 8 and 13).
//!
//! All six share the same three phases —
//!
//! 1. **compress** the database into ≤ `k` representative objects, either
//!    by random sampling + NN classification (`SA`) or by BIRCH (`CF`);
//! 2. **cluster** the representatives with OPTICS — as plain points
//!    (naive/weighted) or as Data Bubbles (Bubbles);
//! 3. **recover** — nothing (naive), or replace each representative by its
//!    classified member objects in the cluster ordering (weighted: §5;
//!    Bubbles: §8 step 5 with virtual reachabilities).
//!
//! Phase wall-clock timings are recorded for the runtime experiments
//! (Figures 16–18) as differences of the run supervisor's
//! [`Supervisor::elapsed`] clock; no other clock is read here.

mod expand;
pub mod external;

use std::borrow::Cow;
use std::fmt;
use std::num::NonZeroUsize;
use std::time::Duration;

use db_birch::{birch_supervised, BirchParams, Cf};
use db_optics::{optics_points_supervised, optics_supervised, ClusterOrdering, OpticsParams};
use db_rng::Rng;
use db_sampling::{
    bfr_compress, compress_by_sampling_supervised, nn_classify_supervised, squash_compress,
    BfrParams, CompressStop, IncrementalCompression, SamplingError,
};
use db_spatial::{Dataset, SpatialError};
use db_supervise::{fault, Stop, Supervisor};
pub use db_supervise::{CancelToken, RunBudget};

pub use expand::{
    bubble_rules, expand_bubbles, expand_weighted, weighted_rules, ExpandedEntry, ExpandedOrdering,
    PositionRule, WalkOrder,
};
pub use external::{run_external, ExternalConfig, ExternalError, ExternalOutput};

use crate::bubble::{BubbleError, DataBubble};
use crate::matrix::DEFAULT_MAX_MATRIX_K;
use crate::space::BubbleSpace;

/// How the database is compressed into representative objects (step 1).
#[derive(Debug, Clone)]
pub enum Compressor {
    /// Random sample of exactly `k` objects + one-pass NN classification.
    Sample {
        /// RNG seed for the sample.
        seed: u64,
    },
    /// BIRCH CF-tree condensed to at most `k` leaf entries (may produce
    /// fewer — the threshold-heuristic overshoot the paper reports).
    Birch(BirchParams),
    /// Bradley–Fayyad–Reina compression (paper §2, reference \[2\]): DS/CS/RS
    /// sufficient statistics. The number of representatives is governed by
    /// the BFR parameters, not by `k`.
    Bfr(BfrParams),
    /// Grid squashing (paper §2, reference \[4\]): per-region moments over an
    /// equal-width grid with `bins_per_dim` bins in every dimension. The
    /// number of representatives is the number of occupied regions, not
    /// `k`.
    GridSquash {
        /// Bins per dimension.
        bins_per_dim: usize,
    },
}

/// How the clustering structure of the full database is recovered (steps
/// 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// OPTICS on representative points; no recovery (suffers from all
    /// three problems: size distortion, lost objects, structural
    /// distortion).
    Naive,
    /// OPTICS on representative points + §5 post-processing (solves size
    /// distortion and lost objects, not structural distortion).
    Weighted,
    /// OPTICS on Data Bubbles + virtual-reachability expansion (solves all
    /// three problems).
    Bubbles,
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target number of representative objects.
    pub k: usize,
    /// Compression method (`SA` or `CF`).
    pub compressor: Compressor,
    /// Recovery method (naive / weighted / Bubbles).
    pub recovery: Recovery,
    /// OPTICS parameters used on the representatives. `min_pts` counts
    /// *original* objects for the bubble variants (Def. 7).
    pub optics: OpticsParams,
    /// Worker threads for the parallel hot paths (classification,
    /// statistics accumulation, distance-matrix build). `None` = available
    /// parallelism. Every output is bit-for-bit identical for every
    /// setting, including `Some(1)`.
    pub threads: Option<NonZeroUsize>,
    /// Largest bubble count for which the clustering phase precomputes the
    /// bubble-distance matrix ([`DEFAULT_MAX_MATRIX_K`] by default; `0`
    /// disables the matrix). Above the cap the space evaluates distances
    /// on the fly with identical results.
    pub matrix_max_k: usize,
    /// Resource envelope of the run: an optional wall-clock deadline
    /// (typed [`PipelineError::DeadlineExceeded`] when overrun) and an
    /// optional byte cap on the precomputed distance matrix (skipping the
    /// matrix, with bit-identical results). Unlimited by default — with
    /// nothing armed, supervision costs one amortized atomic load per
    /// check tick and the output is bit-for-bit the pre-supervision one.
    pub budget: RunBudget,
    /// Shared cancellation token: cancel it from any thread and the run
    /// stops at the next cooperative check with
    /// [`PipelineError::Cancelled`]. `None` = not externally cancellable.
    pub cancel: Option<CancelToken>,
}

impl PipelineConfig {
    /// A configuration with the default execution knobs: available
    /// parallelism, the default matrix cap, and no budget.
    pub fn new(k: usize, compressor: Compressor, recovery: Recovery, optics: OpticsParams) -> Self {
        Self {
            k,
            compressor,
            recovery,
            optics,
            threads: None,
            matrix_max_k: DEFAULT_MAX_MATRIX_K,
            budget: RunBudget::unlimited(),
            cancel: None,
        }
    }
}

/// Wall-clock timings of the three phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTimings {
    /// Step 1: sampling/BIRCH + classification + sufficient statistics.
    pub compression: Duration,
    /// Step 2: OPTICS on the representatives.
    pub clustering: Duration,
    /// Step 3: classification reuse + expansion.
    pub recovery: Duration,
}

impl PipelineTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.compression + self.clustering + self.recovery
    }
}

/// The pipeline phase a supervised stop was observed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelinePhase {
    /// Step 1: sampling/BIRCH/BFR/squash + classification + statistics.
    Compression,
    /// Step 2: matrix build + OPTICS on the representatives.
    Clustering,
    /// Step 3: expansion back to the original objects.
    Recovery,
}

impl fmt::Display for PipelinePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelinePhase::Compression => write!(f, "compression"),
            PipelinePhase::Clustering => write!(f, "clustering"),
            PipelinePhase::Recovery => write!(f, "recovery"),
        }
    }
}

/// One degradation-ladder rung taken by a supervised entry point
/// ([`run_pipeline_supervised`], [`recluster_supervised`],
/// [`recluster_bubbles_supervised`]): why the previous attempt stopped
/// and what the retry coarsened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The typed error that triggered this retry.
    pub cause: PipelineError,
    /// Human-readable description of the coarsening applied (e.g.
    /// "halved k to 20").
    pub action: String,
}

/// The output of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Cluster ordering over the representatives (what a user of the naive
    /// variants would look at).
    pub rep_ordering: ClusterOrdering,
    /// Cluster ordering expanded to all original objects (`None` for the
    /// naive variants, which lose the objects).
    pub expanded: Option<ExpandedOrdering>,
    /// Actual number of representatives (≤ `k`; BIRCH may undershoot).
    pub n_representatives: usize,
    /// Phase timings.
    pub timings: PipelineTimings,
    /// Trace run id of this pipeline execution: every trace event the run
    /// emitted carries it, so `db_obs::trace::events_for_run(run_id)` is
    /// the run's self-contained event stream. Ids are process-unique and
    /// assigned even when tracing is compiled out or disabled.
    pub run_id: u64,
    /// Degradation-ladder rungs taken before this output was produced.
    /// Always empty for [`run_pipeline`] (which never retries); populated
    /// by [`run_pipeline_supervised`] when earlier attempts overran their
    /// deadline.
    pub degradations: Vec<Degradation>,
}

/// Pipeline failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The dataset was empty.
    EmptyDataset,
    /// `k` was zero.
    ZeroK,
    /// The sampling compressor failed.
    Sampling(SamplingError),
    /// The dataset violated the ingest invariants (e.g. a non-finite
    /// coordinate smuggled past validation); checked defensively before
    /// any compression runs.
    Spatial(SpatialError),
    /// A summary stage produced or received an invalid Data Bubble.
    Bubble(BubbleError),
    /// An internal invariant was violated (a bug in the pipeline itself,
    /// not in its input).
    Internal(&'static str),
    /// The run's [`CancelToken`] was cancelled; the named phase observed
    /// it at a cooperative check and discarded its partial output.
    Cancelled {
        /// The phase that observed the cancellation.
        phase: PipelinePhase,
    },
    /// The run overran its [`RunBudget::deadline`].
    DeadlineExceeded {
        /// The phase that observed the overrun.
        phase: PipelinePhase,
        /// Time since the run started when the overrun was observed.
        elapsed: Duration,
    },
    /// A worker thread panicked; the panic was captured (the process
    /// survives) and the phase's partial results were discarded.
    WorkerPanic {
        /// The phase whose worker panicked.
        phase: PipelinePhase,
        /// The panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::EmptyDataset => write!(f, "cannot cluster an empty dataset"),
            PipelineError::ZeroK => write!(f, "number of representatives must be positive"),
            PipelineError::Sampling(e) => write!(f, "sampling failed: {e}"),
            PipelineError::Spatial(e) => write!(f, "invalid dataset: {e}"),
            PipelineError::Bubble(e) => write!(f, "invalid bubble summary: {e}"),
            PipelineError::Internal(what) => {
                write!(f, "internal pipeline invariant violated: {what}")
            }
            PipelineError::Cancelled { phase } => write!(f, "run cancelled during {phase}"),
            PipelineError::DeadlineExceeded { phase, elapsed } => {
                write!(f, "deadline exceeded during {phase} after {:.3}s", elapsed.as_secs_f64())
            }
            PipelineError::WorkerPanic { phase, message } => {
                write!(f, "worker panicked during {phase}: {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SamplingError> for PipelineError {
    fn from(e: SamplingError) -> Self {
        PipelineError::Sampling(e)
    }
}

impl From<SpatialError> for PipelineError {
    fn from(e: SpatialError) -> Self {
        PipelineError::Spatial(e)
    }
}

impl From<BubbleError> for PipelineError {
    fn from(e: BubbleError) -> Self {
        PipelineError::Bubble(e)
    }
}

/// Maps a supervised [`Stop`] to its typed pipeline error with phase
/// attribution, bumping the matching counter and leaving a trace instant
/// so stopped runs are visible in metrics and traces.
fn stop_error(stop: Stop, phase: PipelinePhase) -> PipelineError {
    match stop {
        Stop::Cancelled => {
            db_obs::counter!("pipeline.cancelled").incr();
            db_obs::trace_instant!("pipeline.cancelled", "phase", phase as usize);
            PipelineError::Cancelled { phase }
        }
        Stop::DeadlineExceeded { elapsed } => {
            db_obs::counter!("pipeline.deadline_exceeded").incr();
            db_obs::trace_instant!("pipeline.deadline_exceeded", "phase", phase as usize);
            PipelineError::DeadlineExceeded { phase, elapsed }
        }
        Stop::Panicked { message } => {
            db_obs::counter!("pipeline.worker_panics").incr();
            db_obs::trace_instant!("pipeline.worker_panic", "phase", phase as usize);
            PipelineError::WorkerPanic { phase, message }
        }
    }
}

/// Maps a supervised compression outcome into the pipeline error space.
fn compress_error(e: CompressStop, phase: PipelinePhase) -> PipelineError {
    match e {
        CompressStop::Sampling(e) => PipelineError::Sampling(e),
        CompressStop::Stopped(stop) => stop_error(stop, phase),
    }
}

/// Runs one of the six pipelines.
///
/// The run is supervised by [`PipelineConfig::budget`] and
/// [`PipelineConfig::cancel`]: every phase consults the supervisor on an
/// amortized tick, worker panics in the parallel hot paths are captured
/// as [`PipelineError::WorkerPanic`], and a stopped run discards all
/// partial output. A run that completes is bit-for-bit identical to a run
/// with no budget armed. This entry point never retries — see
/// [`run_pipeline_supervised`] for the degradation ladder.
///
/// # Errors
///
/// Returns an error when the dataset is empty, `k == 0`, sampling is
/// impossible (`k` larger than the dataset), the dataset contains
/// non-finite coordinates (possible only through
/// [`Dataset::from_flat_unchecked`]), a compression stage yields a
/// degenerate summary, or the supervisor stopped the run
/// ([`PipelineError::Cancelled`] / [`PipelineError::DeadlineExceeded`] /
/// [`PipelineError::WorkerPanic`]).
pub fn run_pipeline(ds: &Dataset, cfg: &PipelineConfig) -> Result<PipelineOutput, PipelineError> {
    if ds.is_empty() {
        return Err(PipelineError::EmptyDataset);
    }
    if cfg.k == 0 {
        return Err(PipelineError::ZeroK);
    }
    // Defensive re-validation: `Dataset` constructors reject non-finite
    // coordinates, but the `from_flat_unchecked` escape hatch (and any
    // future zero-copy ingest) can bypass that. A NaN here would silently
    // poison every distance downstream, so fail with a typed error instead.
    ds.validate()?;
    // Arm the supervisor: the caller's token (or a private one) plus the
    // budget deadline, measured from here. With nothing armed every check
    // is one atomic load, amortized over the tick cadence.
    let token = cfg.cancel.clone().unwrap_or_default();
    let sup = Supervisor::new(token, cfg.budget.deadline);
    // Every span and instant below records under this run's id (worker
    // threads inherit it through linked span handles), so concurrent and
    // consecutive runs stay separable in one trace buffer.
    let run_id = db_obs::RunId::next();
    let _run = run_id.enter();
    let _span = db_obs::span!("pipeline.run");
    db_obs::counter!("pipeline.runs").incr();
    db_obs::trace_instant!("pipeline.start", "n_points", ds.len());
    db_obs::log_debug!(
        "pipeline: n={} k={} recovery={:?} min_pts={}",
        ds.len(),
        cfg.k,
        cfg.recovery,
        cfg.optics.min_pts
    );

    // ------------------------------------------------------ step 1
    let t0 = sup.elapsed();
    let span_compression = db_obs::span!("pipeline.compression");
    fault::inject("compression", sup.token());
    let needs_members = cfg.recovery != Recovery::Naive;
    let compression_stop = |stop| stop_error(stop, PipelinePhase::Compression);
    let (stats, reps, assignment): (Vec<Cf>, Dataset, Option<Vec<u32>>) = match &cfg.compressor {
        Compressor::Sample { seed } => {
            // `Bubbles` implies `needs_members` (it is non-naive), so the
            // member-recovering route is gated on `needs_members` alone.
            if needs_members {
                let c = compress_by_sampling_supervised(ds, cfg.k, *seed, cfg.threads, &sup)
                    .map_err(|e| compress_error(e, PipelinePhase::Compression))?;
                (c.stats, c.reps, Some(c.assignment))
            } else {
                // Naive SA: just the sample, no classification pass.
                if cfg.k > ds.len() {
                    return Err(
                        SamplingError::SampleLargerThanData { k: cfg.k, n: ds.len() }.into()
                    );
                }
                sup.check().map_err(compression_stop)?;
                let mut rng = Rng::seed_from_u64(*seed);
                let mut ids: Vec<usize> = rng.sample_indices(ds.len(), cfg.k);
                ids.sort_unstable();
                let reps = ds.subset(&ids);
                let stats = reps.iter().map(Cf::from_point).collect();
                (stats, reps, None)
            }
        }
        Compressor::Birch(params) => {
            let cfs = birch_supervised(ds, cfg.k, params, &sup).map_err(compression_stop)?;
            let reps = centroids_of(ds.dim(), &cfs)?;
            // Step 4 of Fig. 13 / step 4 of Fig. 8: the CF variants must
            // classify the original objects to recover them. The bubbles
            // themselves always come from the CFs (Fig. 13 step 2), not
            // from the re-classification.
            let assignment = match needs_members {
                true => Some(
                    nn_classify_supervised(ds, &reps, cfg.threads, &sup)
                        .map_err(compression_stop)?,
                ),
                false => None,
            };
            (cfs, reps, assignment)
        }
        Compressor::Bfr(params) => {
            // BFR's internal passes are short; supervision brackets them.
            sup.check().map_err(compression_stop)?;
            let cfs = bfr_compress(ds, params).all_cfs();
            let reps = centroids_of(ds.dim(), &cfs)?;
            let assignment = match needs_members {
                true => Some(
                    nn_classify_supervised(ds, &reps, cfg.threads, &sup)
                        .map_err(compression_stop)?,
                ),
                false => None,
            };
            (cfs, reps, assignment)
        }
        Compressor::GridSquash { bins_per_dim } => {
            // Squashing knows the exact region membership of every point;
            // no re-classification pass is needed.
            sup.check().map_err(compression_stop)?;
            let r = squash_compress(ds, *bins_per_dim);
            let reps = centroids_of(ds.dim(), &r.regions)?;
            (r.regions, reps, needs_members.then_some(r.assignment))
        }
    };
    drop(span_compression);
    let compression = sup.elapsed() - t0;
    db_obs::trace_instant!("pipeline.compressed", "n_representatives", reps.len());

    // ------------------------------------------------------ steps 2–3
    let mut clustered = cluster_step(&reps, &stats, cfg, &sup)?;
    let (expanded, recovery) = recover_step(&mut clustered, assignment.map(Cow::Owned), cfg, &sup)?;

    Ok(PipelineOutput {
        rep_ordering: clustered.rep_ordering,
        expanded,
        n_representatives: reps.len(),
        timings: PipelineTimings { compression, clustering: clustered.elapsed, recovery },
        run_id: run_id.get(),
        degradations: Vec::new(),
    })
}

/// Output of the clustering step (step 2).
struct Clustered {
    rep_ordering: ClusterOrdering,
    /// The walked bubble space ([`Recovery::Bubbles`] only), with its
    /// distance matrix when the step built one.
    space: Option<BubbleSpace>,
    elapsed: Duration,
}

/// Step 2, shared by every pipeline and recluster entry point: OPTICS
/// over the representatives — as points for the naive and weighted
/// recoveries, as Data Bubbles (with the supervised matrix precompute)
/// for [`Recovery::Bubbles`].
fn cluster_step(
    reps: &Dataset,
    stats: &[Cf],
    cfg: &PipelineConfig,
    sup: &Supervisor,
) -> Result<Clustered, PipelineError> {
    let t1 = sup.elapsed();
    let span_clustering = db_obs::span!("pipeline.clustering");
    fault::inject("clustering", sup.token());
    let clustering_stop = |stop| stop_error(stop, PipelinePhase::Clustering);
    let (rep_ordering, space) = match cfg.recovery {
        Recovery::Naive | Recovery::Weighted => {
            (optics_points_supervised(reps, &cfg.optics, sup).map_err(clustering_stop)?, None)
        }
        Recovery::Bubbles => {
            let bubbles: Vec<DataBubble> =
                stats.iter().map(DataBubble::try_from_cf).collect::<Result<_, _>>()?;
            let mut space = BubbleSpace::try_new(bubbles)?;
            // All k² distances once, in parallel rows, instead of O(k)
            // scan-and-sorts per walk step; results are bit-identical.
            // Skipped (still bit-identical) when the budget's matrix byte
            // cap would be exceeded.
            space
                .precompute_matrix_supervised(
                    cfg.threads,
                    cfg.matrix_max_k,
                    cfg.budget.max_matrix_bytes,
                    sup,
                )
                .map_err(clustering_stop)?;
            let ordering = optics_supervised(&space, &cfg.optics, sup).map_err(clustering_stop)?;
            (ordering, Some(space))
        }
    };
    drop(span_clustering);
    Ok(Clustered { rep_ordering, space, elapsed: sup.elapsed() - t1 })
}

/// Step 3, shared by [`run_pipeline`] and [`recluster_from_compression`]:
/// the configured recovery expansion of the step-2 ordering, with its wall
/// time. `assignment` maps every original object to its representative
/// and is required for non-naive recoveries.
/// The space (and its matrix) is dropped once the rules are read, and an
/// owned assignment once it is sorted into walk order, before the entries.
fn recover_step(
    clustered: &mut Clustered,
    assignment: Option<Cow<'_, [u32]>>,
    cfg: &PipelineConfig,
    sup: &Supervisor,
) -> Result<(Option<ExpandedOrdering>, Duration), PipelineError> {
    let t2 = sup.elapsed();
    let span_recovery = db_obs::span!("pipeline.recovery");
    fault::inject("recovery", sup.token());
    let recovery_stop = |stop| stop_error(stop, PipelinePhase::Recovery);
    let expanded = match cfg.recovery {
        Recovery::Naive => None,
        Recovery::Weighted | Recovery::Bubbles => {
            let Some(assignment) = assignment else {
                return Err(PipelineError::Internal("classification did not run before recovery"));
            };
            let ordering = &clustered.rep_ordering;
            let rules = match (cfg.recovery, clustered.space.take()) {
                (Recovery::Bubbles, Some(space)) => {
                    bubble_rules(ordering, &space, cfg.optics.min_pts, sup)
                        .map_err(recovery_stop)?
                }
                (Recovery::Bubbles, None) => {
                    return Err(PipelineError::Internal("bubble space missing for bubble recovery"))
                }
                _ => weighted_rules(ordering),
            };
            let walk = WalkOrder::from_assignment(ordering, &assignment);
            drop(assignment);
            Some(walk.expand(&rules, sup).map_err(recovery_stop)?)
        }
    };
    drop(span_recovery);
    Ok((expanded, sup.elapsed() - t2))
}

/// Runs `body` as one recluster of a live compression's representatives
/// and statistics: validated representatives, a supervisor armed from
/// `cfg`, and a trace run of its own under a `pipeline.recluster` span.
/// Returns the body's value with the run id.
fn recluster_run<T>(
    reps: &Dataset,
    stats: &[Cf],
    cfg: &PipelineConfig,
    body: impl FnOnce(&Supervisor) -> Result<T, PipelineError>,
) -> Result<(T, u64), PipelineError> {
    if reps.is_empty() {
        return Err(PipelineError::EmptyDataset);
    }
    // The absorb boundary validates every point, but re-check the
    // representatives defensively, mirroring `run_pipeline`.
    reps.validate()?;
    let token = cfg.cancel.clone().unwrap_or_default();
    let sup = Supervisor::new(token, cfg.budget.deadline);
    let run_id = db_obs::RunId::next();
    let _run = run_id.enter();
    let _span = db_obs::span!("pipeline.recluster");
    db_obs::counter!("pipeline.reclusters").incr();
    db_obs::trace_instant!(
        "pipeline.recluster.start",
        "mass",
        stats.iter().map(Cf::n).sum::<u64>()
    );
    Ok((body(&sup)?, run_id.get()))
}

/// Re-runs the clustering and recovery stages (steps 2–3) on a live
/// [`IncrementalCompression`] — the paper's warehouse loop: absorb inserts
/// via CF additivity, then re-run OPTICS on the (cheap) compressed set
/// whenever a fresh cluster ordering is wanted. No compression pass runs:
/// the representatives, sufficient statistics and classification come
/// from `inc` as-is, so on a compression with zero absorbs the output is
/// bit-for-bit the [`run_pipeline`] output the compression came from
/// (same reps, stats and assignment ⇒ same ordering and expansion).
///
/// `cfg.k` and `cfg.compressor` are ignored (the compression fixes both);
/// `cfg.recovery`, `cfg.optics` and the execution/budget knobs apply
/// exactly as in [`run_pipeline`]. [`PipelineTimings::compression`] is
/// zero.
///
/// # Errors
///
/// As [`run_pipeline`], except the compression-argument errors cannot
/// occur. [`PipelineError::Cancelled`] / [`PipelineError::DeadlineExceeded`]
/// / [`PipelineError::WorkerPanic`] surface exactly as there.
pub fn recluster_from_compression(
    inc: &IncrementalCompression,
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    let (reps, stats) = (inc.representatives(), inc.stats());
    let ((clustered, expanded, recovery), run_id) = recluster_run(reps, stats, cfg, |sup| {
        let mut clustered = cluster_step(reps, stats, cfg, sup)?;
        let assignment = Some(Cow::Borrowed(inc.assignment()));
        let (expanded, recovery) = recover_step(&mut clustered, assignment, cfg, sup)?;
        Ok((clustered, expanded, recovery))
    })?;
    Ok(PipelineOutput {
        rep_ordering: clustered.rep_ordering,
        expanded,
        n_representatives: reps.len(),
        timings: PipelineTimings {
            compression: Duration::ZERO,
            clustering: clustered.elapsed,
            recovery,
        },
        run_id,
        degradations: Vec::new(),
    })
}

/// [`recluster_from_compression`] under the recluster degradation ladder:
/// on [`PipelineError::DeadlineExceeded`] the retry first disables the
/// precomputed distance matrix, then drops to a single thread, each
/// attempt under a fresh deadline (the halve-`k` rung of
/// [`run_pipeline_supervised`] is absent: the compression fixes `k`).
/// Cancellations and worker panics are never retried. The outcome is
/// reported to [`db_obs::health`] exactly as for supervised pipeline runs
/// — except for cancellations, which are a caller decision, not a service
/// failure.
///
/// # Errors
///
/// As [`recluster_from_compression`];
/// [`PipelineError::DeadlineExceeded`] only after both rungs failed.
pub fn recluster_supervised(
    inc: &IncrementalCompression,
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    let (mut out, degradations) =
        RECLUSTER_LADDER.run(cfg, |attempt| recluster_from_compression(inc, attempt))?;
    out.degradations = degradations;
    Ok(out)
}

/// The clustering step of [`recluster_supervised`] alone, for callers that
/// serve the representatives' ordering and never read an expansion: OPTICS
/// over the Data Bubbles of `stats` under the same degradation ladder and
/// health reporting, with no recovery step — so its cost depends on the
/// number of representatives only, never on the objects absorbed.
///
/// Returns the output (`expanded` is `None`, [`PipelineTimings::recovery`]
/// is zero) together with the walked [`BubbleSpace`]. The space keeps the
/// distance matrix the successful attempt built (if any), so a caller can
/// read it instead of evaluating the k² distances again — e.g.
/// [`crate::try_bubble_dendrogram`] with single linkage. `reps` are the
/// representatives `stats` summarize; `cfg.recovery` is ignored (always
/// Data Bubbles), as are `cfg.k` and `cfg.compressor`.
///
/// # Errors
///
/// As [`recluster_supervised`], minus the recovery phase.
pub fn recluster_bubbles_supervised(
    reps: &Dataset,
    stats: &[Cf],
    cfg: &PipelineConfig,
) -> Result<(PipelineOutput, BubbleSpace), PipelineError> {
    let cfg = PipelineConfig { recovery: Recovery::Bubbles, ..cfg.clone() };
    let ((clustered, run_id), degradations) = RECLUSTER_LADDER.run(&cfg, |attempt| {
        recluster_run(reps, stats, attempt, |sup| cluster_step(reps, stats, attempt, sup))
    })?;
    let space =
        clustered.space.ok_or(PipelineError::Internal("bubble clustering returned no space"))?;
    let out = PipelineOutput {
        rep_ordering: clustered.rep_ordering,
        expanded: None,
        n_representatives: reps.len(),
        timings: PipelineTimings {
            compression: Duration::ZERO,
            clustering: clustered.elapsed,
            recovery: Duration::ZERO,
        },
        run_id,
        degradations,
    };
    Ok((out, space))
}

/// One rung of a degradation ladder: the coarsening a retry applies.
#[derive(Debug, Clone, Copy)]
enum Rung {
    /// Halve `k` (fewer representatives: quadratic savings in the
    /// clustering phase, linear in classification).
    HalveK,
    /// Disable the precomputed distance matrix (`matrix_max_k = 0`:
    /// bounded memory, on-the-fly distances).
    NoMatrix,
    /// Drop to a single worker thread (no spawn overhead on tiny budgets).
    OneThread,
}

impl Rung {
    /// Applies the coarsening to `cfg`; returns its description.
    fn apply(self, cfg: &mut PipelineConfig) -> String {
        match self {
            Rung::HalveK => {
                cfg.k = (cfg.k / 2).max(1);
                format!("halved k to {}", cfg.k)
            }
            Rung::NoMatrix => {
                cfg.matrix_max_k = 0;
                "disabled the distance matrix".to_string()
            }
            Rung::OneThread => {
                cfg.threads = NonZeroUsize::new(1);
                "dropped to a single thread".to_string()
            }
        }
    }
}

/// A degradation ladder: the rungs a run that overruns its deadline is
/// retried with, applied cumulatively, each attempt under a fresh deadline
/// of the same duration.
struct Ladder {
    /// What a run is called in health details and logs.
    name: &'static str,
    rungs: &'static [Rung],
    /// Whether a cancelled run reports failing health.
    cancel_fails_health: bool,
}

/// The ladder of [`run_pipeline_supervised`].
const PIPELINE_LADDER: Ladder = Ladder {
    name: "pipeline",
    rungs: &[Rung::HalveK, Rung::NoMatrix, Rung::OneThread],
    cancel_fails_health: true,
};

/// The ladder of [`recluster_supervised`] and
/// [`recluster_bubbles_supervised`]: the compression fixes `k`, and a
/// cancelled recluster is superseded, not failed.
const RECLUSTER_LADDER: Ladder = Ladder {
    name: "recluster",
    rungs: &[Rung::NoMatrix, Rung::OneThread],
    cancel_fails_health: false,
};

impl Ladder {
    /// Runs `attempt` under the ladder: retries only
    /// [`PipelineError::DeadlineExceeded`], one rung per retry, until the
    /// rungs run out. Rungs taken are returned in order, counted under
    /// `pipeline.degradations` and visible as `pipeline.degraded` trace
    /// instants; the outcome is reported to [`db_obs::health`].
    fn run<T>(
        &self,
        cfg: &PipelineConfig,
        mut attempt: impl FnMut(&PipelineConfig) -> Result<T, PipelineError>,
    ) -> Result<(T, Vec<Degradation>), PipelineError> {
        let mut cfg = cfg.clone();
        let mut degradations: Vec<Degradation> = Vec::new();
        loop {
            match attempt(&cfg) {
                Ok(out) => {
                    if degradations.is_empty() {
                        db_obs::health::report_ok();
                    } else {
                        db_obs::health::report_degraded(format!(
                            "{} degraded {} rung(s): {}",
                            self.name,
                            degradations.len(),
                            degradations
                                .iter()
                                .map(|d| d.action.as_str())
                                .collect::<Vec<_>>()
                                .join("; ")
                        ));
                    }
                    return Ok((out, degradations));
                }
                Err(cause @ PipelineError::DeadlineExceeded { .. })
                    if degradations.len() < self.rungs.len() =>
                {
                    let action = self.rungs[degradations.len()].apply(&mut cfg);
                    db_obs::counter!("pipeline.degradations").incr();
                    db_obs::trace_instant!("pipeline.degraded", "rung", degradations.len() + 1);
                    db_obs::log_warn!(
                        "{} over budget ({cause}); retrying coarser: {action}",
                        self.name
                    );
                    degradations.push(Degradation { cause, action });
                }
                Err(e @ PipelineError::Cancelled { .. }) if !self.cancel_fails_health => {
                    return Err(e);
                }
                Err(e) => {
                    db_obs::health::report_failing(e.to_string());
                    return Err(e);
                }
            }
        }
    }
}

/// Runs a pipeline under its budget with BIRCH-style graceful degradation:
/// when an attempt overruns [`RunBudget::deadline`], it is retried with a
/// coarser configuration — the paper's own quality-vs-cost dial — instead
/// of failing outright. The rungs, applied cumulatively:
///
/// 1. halve `k` (fewer representatives: quadratic savings in the
///    clustering phase, linear in classification);
/// 2. disable the precomputed distance matrix (`matrix_max_k = 0`:
///    bounded memory, on-the-fly distances);
/// 3. drop to a single worker thread (no spawn overhead on tiny budgets).
///
/// Each attempt gets a fresh deadline of the same duration. Rungs taken
/// are recorded in [`PipelineOutput::degradations`], counted under
/// `pipeline.degradations`, and visible as `pipeline.degraded` trace
/// instants; the outcome is reported to [`db_obs::health`] (served by
/// `db-obsd`'s `/healthz`). Cancellations and worker panics are **not**
/// retried: a cancel is a caller decision and a panic is a bug a coarser
/// config would only mask.
///
/// # Errors
///
/// As [`run_pipeline`]; [`PipelineError::DeadlineExceeded`] only after
/// the whole ladder is exhausted.
pub fn run_pipeline_supervised(
    ds: &Dataset,
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    let (mut out, degradations) = PIPELINE_LADDER.run(cfg, |attempt| run_pipeline(ds, attempt))?;
    out.degradations = degradations;
    Ok(out)
}

/// Centroid dataset of a CF collection. Fallible: a compressor handed
/// degenerate statistics would surface here as a non-finite centroid,
/// which the `Dataset` ingest boundary rejects.
fn centroids_of(dim: usize, cfs: &[Cf]) -> Result<Dataset, PipelineError> {
    let mut reps = Dataset::with_capacity(dim, cfs.len())?;
    let mut buf = Vec::with_capacity(dim);
    for cf in cfs {
        cf.centroid_into(&mut buf);
        reps.push(&buf)?;
    }
    Ok(reps)
}

/// `OPTICS-SA naive` (Fig. 5): OPTICS on a plain random sample.
pub fn optics_sa_naive(
    ds: &Dataset,
    k: usize,
    seed: u64,
    optics: &OpticsParams,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline(ds, &PipelineConfig::new(k, Compressor::Sample { seed }, Recovery::Naive, *optics))
}

/// `OPTICS-CF naive` (Fig. 5): OPTICS on BIRCH CF centers.
pub fn optics_cf_naive(
    ds: &Dataset,
    k: usize,
    birch_params: &BirchParams,
    optics: &OpticsParams,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline(
        ds,
        &PipelineConfig::new(k, Compressor::Birch(birch_params.clone()), Recovery::Naive, *optics),
    )
}

/// `OPTICS-SA weighted` (Fig. 8): sample + §5 post-processing.
pub fn optics_sa_weighted(
    ds: &Dataset,
    k: usize,
    seed: u64,
    optics: &OpticsParams,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline(
        ds,
        &PipelineConfig::new(k, Compressor::Sample { seed }, Recovery::Weighted, *optics),
    )
}

/// `OPTICS-CF weighted` (Fig. 8): CF centers + §5 post-processing.
pub fn optics_cf_weighted(
    ds: &Dataset,
    k: usize,
    birch_params: &BirchParams,
    optics: &OpticsParams,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline(
        ds,
        &PipelineConfig::new(
            k,
            Compressor::Birch(birch_params.clone()),
            Recovery::Weighted,
            *optics,
        ),
    )
}

/// `OPTICS-SA Bubbles` (Fig. 13): Data Bubbles from sampled sufficient
/// statistics.
pub fn optics_sa_bubbles(
    ds: &Dataset,
    k: usize,
    seed: u64,
    optics: &OpticsParams,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline(
        ds,
        &PipelineConfig::new(k, Compressor::Sample { seed }, Recovery::Bubbles, *optics),
    )
}

/// `OPTICS-CF Bubbles` (Fig. 13): Data Bubbles from BIRCH CFs.
pub fn optics_cf_bubbles(
    ds: &Dataset,
    k: usize,
    birch_params: &BirchParams,
    optics: &OpticsParams,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline(
        ds,
        &PipelineConfig::new(
            k,
            Compressor::Birch(birch_params.clone()),
            Recovery::Bubbles,
            *optics,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn two_cluster_check(labels: &[i32], ds: &Dataset) {
        // Points with even index belong to square A, odd to square B.
        let mut a_labels: Vec<i32> = Vec::new();
        let mut b_labels: Vec<i32> = Vec::new();
        for (i, &l) in labels.iter().enumerate() {
            if i % 2 == 0 {
                a_labels.push(l);
            } else {
                b_labels.push(l);
            }
        }
        let a_major = majority(&a_labels);
        let b_major = majority(&b_labels);
        assert_ne!(a_major, b_major, "squares merged");
        assert!(a_major >= 0 && b_major >= 0);
        let agree = labels
            .iter()
            .enumerate()
            .filter(|&(i, &l)| l == if i % 2 == 0 { a_major } else { b_major })
            .count();
        assert!(
            agree as f64 / ds.len() as f64 > 0.95,
            "only {agree}/{} correctly clustered",
            ds.len()
        );
    }

    fn majority(labels: &[i32]) -> i32 {
        let mut counts = std::collections::HashMap::new();
        for &l in labels {
            *counts.entry(l).or_insert(0usize) += 1;
        }
        counts.into_iter().max_by_key(|&(_, c)| c).map(|(l, _)| l).unwrap()
    }

    #[test]
    fn sa_bubbles_recovers_structure() {
        let ds = two_squares();
        let out = optics_sa_bubbles(&ds, 40, 7, &params()).unwrap();
        assert_eq!(out.n_representatives, 40);
        let expanded = out.expanded.as_ref().unwrap();
        assert_eq!(expanded.len(), ds.len());
        two_cluster_check(&expanded.extract_dbscan(5.0), &ds);
    }

    #[test]
    fn cf_bubbles_recovers_structure() {
        let ds = two_squares();
        let out = optics_cf_bubbles(&ds, 40, &BirchParams::default(), &params()).unwrap();
        assert!(out.n_representatives <= 40);
        assert!(out.n_representatives >= 2);
        let expanded = out.expanded.as_ref().unwrap();
        assert_eq!(expanded.len(), ds.len());
        two_cluster_check(&expanded.extract_dbscan(5.0), &ds);
    }

    #[test]
    fn weighted_variants_recover_all_objects() {
        let ds = two_squares();
        for out in [
            optics_sa_weighted(&ds, 40, 7, &params()).unwrap(),
            optics_cf_weighted(&ds, 40, &BirchParams::default(), &params()).unwrap(),
        ] {
            let expanded = out.expanded.as_ref().unwrap();
            assert_eq!(expanded.len(), ds.len());
            let mut order = expanded.order();
            order.sort_unstable();
            assert_eq!(order, (0..ds.len() as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn naive_variants_lose_objects() {
        let ds = two_squares();
        let sa = optics_sa_naive(&ds, 40, 7, &params()).unwrap();
        assert!(sa.expanded.is_none());
        assert_eq!(sa.rep_ordering.len(), 40);
        let cf = optics_cf_naive(&ds, 40, &BirchParams::default(), &params()).unwrap();
        assert!(cf.expanded.is_none());
        assert!(cf.rep_ordering.len() <= 40);
    }

    #[test]
    fn timings_are_recorded() {
        let ds = two_squares();
        let out = optics_sa_bubbles(&ds, 30, 1, &params()).unwrap();
        assert!(out.timings.total() >= out.timings.clustering);
        assert!(out.timings.compression > Duration::ZERO);
    }

    #[test]
    fn errors_on_bad_input() {
        let empty = Dataset::new(2).unwrap();
        assert_eq!(
            run_pipeline(
                &empty,
                &PipelineConfig::new(5, Compressor::Sample { seed: 0 }, Recovery::Naive, params())
            )
            .unwrap_err(),
            PipelineError::EmptyDataset
        );
        let ds = two_squares();
        assert_eq!(optics_sa_naive(&ds, 0, 0, &params()).unwrap_err(), PipelineError::ZeroK);
        assert!(matches!(
            optics_sa_naive(&ds, ds.len() + 1, 0, &params()).unwrap_err(),
            PipelineError::Sampling(_)
        ));
        // Display impls.
        assert!(PipelineError::EmptyDataset.to_string().contains("empty"));
        assert!(PipelineError::ZeroK.to_string().contains("positive"));
    }

    #[test]
    fn smuggled_nan_yields_typed_spatial_error() {
        // `from_flat_unchecked` bypasses the ingest validation; the
        // pipeline's defensive re-check must catch the NaN for every
        // compressor instead of poisoning distances or panicking.
        let ds = Dataset::from_flat_unchecked(2, vec![0.0, 0.0, 1.0, f64::NAN, 2.0, 0.0]);
        for compressor in [
            Compressor::Sample { seed: 0 },
            Compressor::Birch(BirchParams::default()),
            Compressor::GridSquash { bins_per_dim: 4 },
        ] {
            let err =
                run_pipeline(&ds, &PipelineConfig::new(2, compressor, Recovery::Bubbles, params()))
                    .unwrap_err();
            assert_eq!(
                err,
                PipelineError::Spatial(SpatialError::NonFiniteCoordinate { point: 1, coord: 1 })
            );
        }
    }

    #[test]
    fn bfr_compressor_pipeline_recovers_structure() {
        let ds = two_squares();
        let out = run_pipeline(
            &ds,
            &PipelineConfig::new(
                40,
                Compressor::Bfr(db_sampling::BfrParams {
                    primary_clusters: 16,
                    ..db_sampling::BfrParams::default()
                }),
                Recovery::Bubbles,
                params(),
            ),
        )
        .unwrap();
        let expanded = out.expanded.as_ref().unwrap();
        assert_eq!(expanded.len(), ds.len());
        two_cluster_check(&expanded.extract_dbscan(5.0), &ds);
    }

    #[test]
    fn squash_compressor_pipeline_recovers_structure() {
        let ds = two_squares();
        let out = run_pipeline(
            &ds,
            &PipelineConfig::new(
                1,
                Compressor::GridSquash { bins_per_dim: 24 },
                Recovery::Bubbles,
                params(),
            ),
        )
        .unwrap();
        let expanded = out.expanded.as_ref().unwrap();
        assert_eq!(expanded.len(), ds.len());
        two_cluster_check(&expanded.extract_dbscan(5.0), &ds);
        // Squash keeps exact membership: the representative count equals
        // the number of occupied regions.
        assert!(out.n_representatives > 2);
    }

    #[test]
    fn naive_sa_sample_matches_weighted_sample() {
        // The naive and weighted SA variants draw the same sample for the
        // same seed (step 1 is shared), so their rep orderings coincide.
        let ds = two_squares();
        let naive = optics_sa_naive(&ds, 25, 3, &params()).unwrap();
        let weighted = optics_sa_weighted(&ds, 25, 3, &params()).unwrap();
        let ids_n: Vec<usize> = naive.rep_ordering.entries.iter().map(|e| e.id).collect();
        let ids_w: Vec<usize> = weighted.rep_ordering.entries.iter().map(|e| e.id).collect();
        assert_eq!(ids_n, ids_w);
    }

    #[test]
    fn bubble_jump_is_preserved_in_expansion() {
        let ds = two_squares();
        let out = optics_sa_bubbles(&ds, 40, 11, &params()).unwrap();
        let expanded = out.expanded.unwrap();
        let reach = expanded.reachabilities();
        // Exactly one inter-cluster jump of ~200 among the finite values.
        let big = reach.iter().filter(|r| r.is_finite() && **r > 100.0).count();
        assert_eq!(big, 1, "expected exactly one big jump");
    }
}
