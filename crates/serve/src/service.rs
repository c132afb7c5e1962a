//! The service core: live compression, cached artifact, background
//! reclustering under supervision.

use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use data_bubbles::pipeline::{
    recluster_bubbles_supervised, Compressor, PipelineConfig, PipelineError, PipelineOutput,
    Recovery,
};
use data_bubbles::{try_bubble_dendrogram, DEFAULT_MAX_MATRIX_K};
use db_birch::Cf;
use db_hierarchical::Linkage;
use db_optics::OpticsParams;
use db_sampling::{IncrementalCompression, NearestRep};
use db_spatial::{Dataset, SpatialError};
use db_supervise::{fault, CancelToken, RunBudget};

/// Locks a mutex, recovering from poisoning: every protected value here
/// is either replaced whole (the cache `Arc`) or validated before use, so
/// a panicking writer cannot leave it half-updated in a way readers care
/// about.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Configuration of a [`BubbleService`]. The service always serves the
/// paper's Fig. 2 method: the OPTICS ordering of the Data Bubbles
/// (`GET /ordering`) and single-link labels over the same bubbles
/// (`GET /label`).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// OPTICS parameters for the recluster (see
    /// [`PipelineConfig::optics`]).
    pub optics: OpticsParams,
    /// Height at which the single-link bubble dendrogram is cut into the
    /// per-representative labels served by `GET /label`.
    pub label_cut: f64,
    /// Staleness trigger: rebuild once this many objects were absorbed
    /// since the cached artifact was built.
    pub max_absorbed: usize,
    /// Staleness trigger: rebuild once the mass absorbed since the cached
    /// artifact was built exceeds this fraction of the mass it was built
    /// from (`0.2` = a fifth of the database is new).
    pub max_mass_fraction: f64,
    /// Resource envelope of every recluster (deadline ⇒ the degradation
    /// ladder of [`recluster_bubbles_supervised`] kicks in).
    pub budget: RunBudget,
    /// Worker threads for the recluster hot paths (`None` = available
    /// parallelism; the output is thread-count invariant).
    pub threads: Option<NonZeroUsize>,
    /// Distance-matrix cap for the recluster (see
    /// [`PipelineConfig::matrix_max_k`]).
    pub matrix_max_k: usize,
}

impl ServiceConfig {
    /// A configuration with the default execution knobs and staleness
    /// triggers (rebuild after 512 absorbed objects or 20% new mass).
    pub fn new(optics: OpticsParams, label_cut: f64) -> Self {
        Self {
            optics,
            label_cut,
            max_absorbed: 512,
            max_mass_fraction: 0.2,
            budget: RunBudget::unlimited(),
            threads: None,
            matrix_max_k: DEFAULT_MAX_MATRIX_K,
        }
    }

    /// The [`PipelineConfig`] a recluster of `k` representatives runs
    /// under. `k` and the compressor are placeholders —
    /// [`recluster_bubbles_supervised`] ignores both (the compression fixes
    /// them).
    fn pipeline_config(&self, k: usize) -> PipelineConfig {
        let mut cfg =
            PipelineConfig::new(k, Compressor::Sample { seed: 0 }, Recovery::Bubbles, self.optics);
        cfg.threads = self.threads;
        cfg.matrix_max_k = self.matrix_max_k;
        cfg.budget = self.budget;
        cfg
    }
}

/// One immutable build of the service's query state: everything a query
/// needs, snapshotted together so answers are internally consistent even
/// while newer data streams in.
#[derive(Debug)]
pub struct Artifact {
    /// Monotonic build number (0 = the synchronous build at startup).
    pub generation: u64,
    /// The recluster output: the OPTICS ordering over the
    /// representatives. No recovery step runs, so `expanded` is `None`.
    pub output: PipelineOutput,
    /// Per-representative cluster label from cutting the single-link
    /// bubble dendrogram at [`ServiceConfig::label_cut`].
    pub rep_labels: Vec<i32>,
    /// Objects the compression had absorbed when this was built.
    pub n_objects: usize,
    /// Total CF mass when this was built.
    pub total_mass: u64,
    /// When this artifact was installed.
    pub built_at: Instant,
    reps: Dataset,
    /// The live compression's nearest-representative state, shared: the
    /// representatives are fixed for the service's life.
    nearest: Arc<NearestRep>,
}

impl Artifact {
    /// Labels `point` with one NN lookup against this artifact's
    /// representatives: the label of the nearest representative under the
    /// bubble-dendrogram cut.
    ///
    /// # Errors
    ///
    /// [`SpatialError::DimensionMismatch`] / [`SpatialError::NonFiniteCoordinate`]
    /// for invalid query points — the same ingest-boundary checks as
    /// absorption, because an NN query with a NaN coordinate is
    /// meaningless, not "closest to everything".
    pub fn label_of(&self, point: &[f64]) -> Result<LabelAnswer, SpatialError> {
        if point.len() != self.reps.dim() {
            return Err(SpatialError::DimensionMismatch {
                expected: self.reps.dim(),
                got: point.len(),
            });
        }
        if let Some(coord) = point.iter().position(|x| !x.is_finite()) {
            return Err(SpatialError::NonFiniteCoordinate { point: 0, coord });
        }
        let nn = self.nearest.nearest(&self.reps, point);
        Ok(LabelAnswer {
            label: self.rep_labels[nn.id],
            representative: nn.id,
            distance: nn.dist,
            generation: self.generation,
        })
    }

    /// The representatives this artifact answers from.
    pub fn representatives(&self) -> &Dataset {
        &self.reps
    }
}

/// Answer to a label query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelAnswer {
    /// Cluster label of the nearest representative.
    pub label: i32,
    /// Id of the nearest representative.
    pub representative: usize,
    /// Distance to it.
    pub distance: f64,
    /// Generation of the artifact that answered.
    pub generation: u64,
}

/// Receipt of one accepted ingest batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Points absorbed (the whole batch — absorption is atomic).
    pub accepted: usize,
    /// Objects in the compression after the batch.
    pub n_objects: usize,
    /// Whether the cache was stale after this batch.
    pub stale: bool,
    /// Generation of the background recluster this batch started, if any.
    pub recluster_started: Option<u64>,
}

/// A point-in-time view of the service, for `GET /stats` and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Number of representatives (fixed for the service's lifetime).
    pub k: usize,
    /// Objects absorbed so far.
    pub n_objects: usize,
    /// Total CF mass.
    pub total_mass: u64,
    /// Generation of the cached artifact.
    pub generation: u64,
    /// Objects absorbed since the cached artifact was built.
    pub absorbed_since_build: usize,
    /// Age of the cached artifact.
    pub cache_age: Duration,
    /// Whether the staleness triggers currently fire.
    pub stale: bool,
    /// Whether a background recluster is in flight.
    pub recluster_in_flight: bool,
}

/// What a recluster reads of the live compression: the representatives,
/// their statistics and the counts — O(k) to copy, whatever the number of
/// objects absorbed (the per-object assignment stays behind) — and a
/// share of its nearest-representative state for the artifact's labels.
struct Snapshot {
    reps: Dataset,
    nearest: Arc<NearestRep>,
    stats: Vec<Cf>,
    n_objects: usize,
    total_mass: u64,
}

impl Snapshot {
    fn of(live: &IncrementalCompression) -> Self {
        Snapshot {
            reps: live.representatives().clone(),
            nearest: Arc::clone(live.nearest_rep()),
            stats: live.stats().to_vec(),
            n_objects: live.n_objects(),
            total_mass: live.total_mass(),
        }
    }
}

/// Refreshes the staleness gauges of the artifact now serving: its age
/// (`serve.cache.age_ms`), the objects absorbed since it was built
/// (`serve.cache.absorbed_since_build`), and those objects as a fraction
/// of all the objects the service holds
/// (`serve.cache.new_mass_fraction_ppm`; gauges hold integers, so the
/// fraction is in parts per million, rounded down). Called at every
/// ingest and install, so a `/metrics` scraper sees them move without a
/// `/stats` call.
fn publish_staleness(art: &Artifact, n_objects: usize) {
    let absorbed = n_objects.saturating_sub(art.n_objects) as u64;
    db_obs::gauge!("serve.cache.age_ms").set(art.built_at.elapsed().as_millis() as i64);
    db_obs::gauge!("serve.cache.absorbed_since_build").set(absorbed as i64);
    let ppm = absorbed.saturating_mul(1_000_000).checked_div(n_objects as u64).unwrap_or(0);
    db_obs::gauge!("serve.cache.new_mass_fraction_ppm").set(ppm as i64);
}

/// Builds an [`Artifact`] (generation filled in by the caller) from a
/// snapshot: the supervised clustering step, then single-link labels cut
/// from the bubble space it walked — reading its distance matrix when the
/// step built one. The space, matrix included, is dropped here.
fn build_artifact(
    snapshot: Snapshot,
    cfg: &ServiceConfig,
    cancel: Option<CancelToken>,
) -> Result<Artifact, PipelineError> {
    let mut pcfg = cfg.pipeline_config(snapshot.reps.len());
    pcfg.cancel = cancel;
    let (output, space) = recluster_bubbles_supervised(&snapshot.reps, &snapshot.stats, &pcfg)?;
    let rep_labels = try_bubble_dendrogram(&space, Linkage::Single)?.cut_at_distance(cfg.label_cut);
    drop(space);
    Ok(Artifact {
        generation: 0,
        output,
        rep_labels,
        n_objects: snapshot.n_objects,
        total_mass: snapshot.total_mass,
        built_at: Instant::now(),
        reps: snapshot.reps,
        nearest: snapshot.nearest,
    })
}

/// State of the background recluster machinery. One worker at most;
/// starting a forced recluster cancels the in-flight one.
#[derive(Debug, Default)]
struct ReclusterSlot {
    /// Next generation number to hand out (generation 0 is the startup
    /// build).
    next_generation: u64,
    /// Cancel token of the in-flight recluster, if any.
    cancel: Option<CancelToken>,
    /// Generation and handle of the most recently started worker.
    worker: Option<(u64, JoinHandle<()>)>,
}

#[derive(Debug)]
struct Shared {
    cfg: ServiceConfig,
    live: Mutex<IncrementalCompression>,
    cache: Mutex<Arc<Artifact>>,
    recluster: Mutex<ReclusterSlot>,
}

/// The streaming clustering service. Cheap to share: wrap it in an
/// [`Arc`] and hand clones to the HTTP handler and to tests.
#[derive(Debug)]
pub struct BubbleService {
    shared: Arc<Shared>,
}

impl BubbleService {
    /// Starts a service over `initial`, building the generation-0
    /// artifact synchronously (queries are answerable from the first
    /// instant).
    ///
    /// # Errors
    ///
    /// Any [`PipelineError`] of the initial recluster.
    pub fn new(initial: IncrementalCompression, cfg: ServiceConfig) -> Result<Self, PipelineError> {
        let artifact = build_artifact(Snapshot::of(&initial), &cfg, None)?;
        publish_staleness(&artifact, initial.n_objects());
        let shared = Arc::new(Shared {
            cfg,
            live: Mutex::new(initial),
            cache: Mutex::new(Arc::new(artifact)),
            recluster: Mutex::new(ReclusterSlot { next_generation: 1, cancel: None, worker: None }),
        });
        Ok(BubbleService { shared })
    }

    /// Dimensionality of the points this service ingests and labels.
    pub fn dim(&self) -> usize {
        self.artifact().reps.dim()
    }

    /// The current cached artifact. Queries hold the cache lock only long
    /// enough to clone the [`Arc`] — never across a recluster.
    pub fn artifact(&self) -> Arc<Artifact> {
        Arc::clone(&lock(&self.shared.cache))
    }

    /// A clone of the live compression — for differential tests and
    /// offline tooling (the clone is a consistent snapshot).
    pub fn compression(&self) -> IncrementalCompression {
        lock(&self.shared.live).clone()
    }

    /// Absorbs a batch atomically through the fallible ingest boundary,
    /// then starts a background recluster if the staleness triggers fire
    /// and none is in flight.
    ///
    /// # Errors
    ///
    /// The typed [`SpatialError`] of
    /// [`IncrementalCompression::try_absorb_all`]; on `Err` nothing was
    /// absorbed and the cache is untouched.
    pub fn ingest(&self, batch: &Dataset) -> Result<IngestReceipt, SpatialError> {
        let _span = db_obs::span!("serve.ingest");
        db_obs::histogram!("serve.ingest.batch_points").record(batch.len() as f64);
        let (n_objects, total_mass) = {
            let mut live = lock(&self.shared.live);
            live.try_absorb_all(batch)?;
            (live.n_objects(), live.total_mass())
        };
        db_obs::counter!("serve.ingest.points").add(batch.len() as u64);
        db_obs::counter!("serve.ingest.batches").incr();
        let stale = {
            let art = self.artifact();
            publish_staleness(&art, n_objects);
            self.is_stale(&art, n_objects, total_mass)
        };
        let recluster_started = if stale { self.spawn_recluster(false) } else { None };
        Ok(IngestReceipt { accepted: batch.len(), n_objects, stale, recluster_started })
    }

    fn is_stale(&self, art: &Artifact, n_objects: usize, total_mass: u64) -> bool {
        let absorbed = n_objects.saturating_sub(art.n_objects);
        if absorbed >= self.shared.cfg.max_absorbed {
            return true;
        }
        let new_mass = total_mass.saturating_sub(art.total_mass) as f64;
        art.total_mass > 0 && new_mass / art.total_mass as f64 >= self.shared.cfg.max_mass_fraction
    }

    /// Labels a point from the cache (one NN lookup; never blocks on a
    /// recluster).
    ///
    /// # Errors
    ///
    /// As [`Artifact::label_of`].
    pub fn label(&self, point: &[f64]) -> Result<LabelAnswer, SpatialError> {
        db_obs::counter!("serve.queries").incr();
        self.artifact().label_of(point)
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        let (n_objects, total_mass, k) = {
            let live = lock(&self.shared.live);
            (live.n_objects(), live.total_mass(), live.k())
        };
        let in_flight = self.in_flight(&lock(&self.shared.recluster));
        let art = self.artifact();
        publish_staleness(&art, n_objects);
        ServiceStats {
            k,
            n_objects,
            total_mass,
            generation: art.generation,
            absorbed_since_build: n_objects.saturating_sub(art.n_objects),
            cache_age: art.built_at.elapsed(),
            stale: self.is_stale(&art, n_objects, total_mass),
            recluster_in_flight: in_flight,
        }
    }

    /// Forces a background recluster now, cancelling any in-flight one
    /// (the cancelled run surfaces as typed [`PipelineError::Cancelled`]
    /// inside its worker and is counted under
    /// `serve.recluster.cancelled`). Returns the new run's generation.
    pub fn force_recluster(&self) -> u64 {
        // `spawn_recluster(true)` always starts a run.
        self.spawn_recluster(true).unwrap_or(0)
    }

    /// Starts a background recluster from a snapshot of the live
    /// compression. `forced` cancels an in-flight run first; unforced
    /// (staleness-triggered) calls are skipped while one is in flight —
    /// cancelling progress on every ingest batch would mean a recluster
    /// never completes under sustained load.
    fn spawn_recluster(&self, forced: bool) -> Option<u64> {
        let mut slot = lock(&self.shared.recluster);
        if self.in_flight(&slot) {
            if !forced {
                return None;
            }
            if let Some(c) = slot.cancel.take() {
                c.cancel();
                db_obs::counter!("serve.recluster.cancelled_requests").incr();
            }
        }
        let generation = slot.next_generation;
        slot.next_generation += 1;
        let token = CancelToken::new();
        slot.cancel = Some(token.clone());
        let snapshot = Snapshot::of(&lock(&self.shared.live));
        let shared = Arc::clone(&self.shared);
        let worker = std::thread::Builder::new()
            .name(format!("serve-recluster-{generation}"))
            .spawn(move || recluster_worker(&shared, snapshot, generation, token))
            .ok()?;
        // The previous worker (if any) was cancelled above and exits at
        // its next cooperative check; it only touches Arcs, so detaching
        // its handle is safe.
        slot.worker = Some((generation, worker));
        db_obs::counter!("serve.recluster.started").incr();
        Some(generation)
    }

    /// Whether the most recently started recluster is in flight: its
    /// worker is alive **and** its generation is not installed yet. A
    /// worker that installed its artifact and is only returning is done,
    /// so a staleness trigger in that window starts the next recluster.
    /// `slot` is the held recluster lock; the cache lock nests inside it.
    fn in_flight(&self, slot: &ReclusterSlot) -> bool {
        slot.worker.as_ref().is_some_and(|(generation, worker)| {
            !worker.is_finished() && self.artifact().generation < *generation
        })
    }

    /// Blocks until the cached artifact reaches `min_generation` or
    /// `timeout` elapses; returns whether it did. Test/tooling helper —
    /// queries themselves never wait.
    pub fn wait_for_generation(&self, min_generation: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.artifact().generation >= min_generation {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Cancels any in-flight recluster and joins its worker. Idempotent.
    pub fn shutdown(&self) {
        let worker = {
            let mut slot = lock(&self.shared.recluster);
            if let Some(c) = slot.cancel.take() {
                c.cancel();
            }
            slot.worker.take()
        };
        if let Some((_, w)) = worker {
            let _ = w.join();
        }
    }
}

impl Drop for BubbleService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn recluster_worker(shared: &Arc<Shared>, snapshot: Snapshot, generation: u64, token: CancelToken) {
    let _span = db_obs::span!("serve.recluster");
    let started = Instant::now();
    match build_artifact(snapshot, &shared.cfg, Some(token.clone())) {
        Ok(mut artifact) => {
            artifact.generation = generation;
            db_obs::histogram!("serve.recluster.latency_ms", [1.0, 10.0, 100.0, 1000.0, 10000.0])
                .record(started.elapsed().as_secs_f64() * 1e3);
            let n_objects = lock(&shared.live).n_objects();
            let mut cache = lock(&shared.cache);
            if cache.generation < generation {
                *cache = Arc::new(artifact);
                publish_staleness(&cache, n_objects);
                drop(cache);
                db_obs::counter!("serve.recluster.completed").incr();
                db_obs::trace_instant!("serve.recluster.installed", "generation", generation);
                // Installed, still returning: the window a staleness
                // trigger must not mistake for a recluster in flight.
                fault::inject("recluster.installed", &token);
            } else {
                // A forced newer run finished first; its artifact is
                // fresher than ours.
                db_obs::counter!("serve.recluster.superseded").incr();
            }
        }
        Err(PipelineError::Cancelled { .. }) => {
            // Superseded by a newer request — typed, expected, and not a
            // health event (the newer run owns the health slot).
            db_obs::counter!("serve.recluster.cancelled").incr();
        }
        Err(e) => {
            // `recluster_bubbles_supervised` already reported health; keep the
            // previous artifact serving.
            db_obs::counter!("serve.recluster.failed").incr();
            db_obs::log_warn!("background recluster generation {generation} failed: {e}");
        }
    }
}
