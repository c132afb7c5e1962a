//! `db-supervise` — run supervision primitives for the pipeline crates.
//!
//! A long clustering run should be a *guest* in its process, not an owner:
//! the caller must be able to bound its latency (deadlines), stop it
//! cooperatively (cancellation), and survive a bug in one of its worker
//! threads (panic capture). This crate provides the zero-dependency
//! building blocks the workspace threads through every pipeline phase:
//!
//! * [`CancelToken`] — a shared atomic flag; cloning shares the flag.
//! * [`RunBudget`] — the resource envelope of one run: an optional wall
//!   clock [`RunBudget::deadline`] and an optional
//!   [`RunBudget::max_matrix_bytes`] cap on the precomputed
//!   bubble-distance matrix.
//! * [`Supervisor`] — a token + armed deadline; [`Supervisor::check`] is
//!   the cooperative stop point, and [`Supervisor::elapsed`] is the run's
//!   one clock (phase timings are differences of it).
//! * [`Ticker`] — amortizes `check` to one shared-state read every `N`
//!   items so hot loops pay a local integer decrement per item.
//! * [`Stop`] — why a phase stopped early: cancelled, over deadline, or a
//!   captured worker panic.
//! * [`run_blocks`] / [`resolve_threads`] — the one scoped-worker
//!   lifecycle; a worker panic surfaces as [`Stop::Panicked`].
//! * [`unsupervised`] — the body of every panicking convenience entry
//!   point: an unlimited supervisor, and a panic naming the phase on a stop.
//! * [`fault`] — env-gated fault injection (`DB_FAULT=<phase>:<action>`)
//!   for chaos testing.
//!
//! # Determinism contract
//!
//! Supervision never alters *what* is computed, only *whether* a run is
//! allowed to finish: a check either returns `Ok(())` and the loop
//! continues exactly as before, or the whole phase's output is discarded
//! and a typed [`Stop`] propagates. A run that completes under
//! supervision is bit-for-bit identical to an unsupervised run.

#![warn(missing_docs)]
// Supervision is the layer that turns panics into typed errors — it must
// not introduce its own. Same policy as db-obsd, db-serve, and
// core::pipeline; the db-audit `no-unwrap-prod` rule pins the same set.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fault;

use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag. Cloning is cheap and shares the flag:
/// [`CancelToken::cancel`] from any clone (any thread) is observed by
/// every [`Supervisor::check`] holding another clone.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cooperative cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested (one relaxed-acquire load).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The resource envelope of one pipeline run. `Default` is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock budget for one attempt. When exceeded, the run stops at
    /// the next cooperative check with [`Stop::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Upper bound in bytes for the precomputed bubble-distance matrix.
    /// When the matrix would be larger, it is skipped and distances are
    /// evaluated on the fly — bit-identical results, bounded memory.
    pub max_matrix_bytes: Option<usize>,
}

impl RunBudget {
    /// An explicitly unlimited budget (same as `Default`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self { deadline: Some(deadline), max_matrix_bytes: None }
    }
}

/// Why a supervised phase stopped before producing its output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline elapsed; `elapsed` is the time since the
    /// supervisor was armed when the check observed the overrun.
    DeadlineExceeded {
        /// Time since [`Supervisor`] creation at the detecting check.
        elapsed: Duration,
    },
    /// A worker thread panicked; the panic was captured and its partial
    /// results discarded.
    Panicked {
        /// The panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for Stop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stop::Cancelled => write!(f, "cancelled"),
            Stop::DeadlineExceeded { elapsed } => {
                write!(f, "deadline exceeded after {:.3}s", elapsed.as_secs_f64())
            }
            Stop::Panicked { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

impl std::error::Error for Stop {}

/// A cancellation token armed with an optional deadline: the cooperative
/// stop point every supervised loop consults (directly or through a
/// [`Ticker`]).
#[derive(Debug)]
pub struct Supervisor {
    token: CancelToken,
    started: Instant,
    deadline: Option<Instant>,
}

impl Supervisor {
    /// Arms `token` with `deadline` (measured from now).
    pub fn new(token: CancelToken, deadline: Option<Duration>) -> Self {
        let started = Instant::now();
        Self { token, started, deadline: deadline.map(|d| started + d) }
    }

    /// A supervisor with a fresh token and no deadline: checks only fail
    /// if something cancels the fresh token (e.g. an injected fault).
    pub fn unlimited() -> Self {
        Self::new(CancelToken::new(), None)
    }

    /// The shared token (for handing to cancellers or fault hooks).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Time since the supervisor was armed.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The cooperative stop point: `Err` when cancelled or past the
    /// deadline. Cost when neither budget is armed: one atomic load.
    #[inline]
    pub fn check(&self) -> Result<(), Stop> {
        if self.token.is_cancelled() {
            return Err(Stop::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Stop::DeadlineExceeded { elapsed: self.started.elapsed() });
            }
        }
        Ok(())
    }
}

/// Amortizes [`Supervisor::check`] over a hot loop: `tick()` costs one
/// local decrement per item and consults the supervisor every `every`
/// ticks (and on the very first tick, so an already-cancelled run stops
/// before doing any work).
#[derive(Debug)]
pub struct Ticker<'a> {
    sup: &'a Supervisor,
    every: u32,
    left: u32,
}

impl<'a> Ticker<'a> {
    /// A ticker consulting `sup` every `every` ticks (`every >= 1`).
    pub fn new(sup: &'a Supervisor, every: u32) -> Self {
        Self { sup, every: every.max(1), left: 1 }
    }

    /// One loop iteration. `Err` stops the phase.
    #[inline]
    pub fn tick(&mut self) -> Result<(), Stop> {
        self.left -= 1;
        if self.left == 0 {
            self.left = self.every;
            self.sup.check()
        } else {
            Ok(())
        }
    }
}

/// Resolves a thread-count knob: `None` means available parallelism, and
/// the result is clamped to `[1, work_items]`.
pub fn resolve_threads(threads: Option<NonZeroUsize>, work_items: usize) -> usize {
    threads
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get)
        .min(work_items.max(1))
}

/// Runs `work(first, chunk)` over contiguous chunks of `per_worker`
/// items, one scoped worker thread per chunk; `first` is the index of the
/// chunk's first item. Each worker holds the guard `worker_span()` returns,
/// fires `fault_point`, and runs `work` under panic capture. All workers
/// are joined before their outcomes merge: a panic outranks a cooperative
/// stop, otherwise the first stop in chunk order wins. With
/// `threads <= 1` it is `work(0, items)` inline: no thread, no span, no
/// fault point.
///
/// # Errors
///
/// The [`Stop`] a chunk returned, or [`Stop::Panicked`] for a chunk that
/// panicked.
pub fn run_blocks<T: Send, G>(
    items: &mut [T],
    per_worker: usize,
    threads: usize,
    sup: &Supervisor,
    fault_point: &str,
    worker_span: impl Fn() -> G + Sync,
    work: impl Fn(usize, &mut [T]) -> Result<(), Stop> + Sync,
) -> Result<(), Stop> {
    if threads <= 1 {
        return work(0, items);
    }
    let per_worker = per_worker.max(1);
    let (worker_span, work) = (&worker_span, &work);
    let results: Vec<Result<(), Stop>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(per_worker)
            .enumerate()
            .map(|(t, chunk)| {
                scope.spawn(move || {
                    catch_shared(|| {
                        let _span = worker_span();
                        fault::inject(fault_point, sup.token());
                        work(t * per_worker, chunk)
                    })
                })
            })
            .collect();
        // A join fails only if the capture itself unwound; fold that in.
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|payload| {
                    Err(Stop::Panicked { message: panic_message(payload.as_ref()) })
                })
            })
            .collect()
    });
    first_stop(results)
}

/// Runs `body` under a fresh unlimited [`Supervisor`] and returns its
/// value. Such a supervisor never stops cooperatively, so a stop means an
/// injected fault or a worker panic; it panics for callers that did not
/// opt into supervision.
///
/// # Panics
///
/// Panics with `unsupervised <phase> stopped: <stop>` when `body` stops.
pub fn unsupervised<T>(phase: &str, body: impl FnOnce(&Supervisor) -> Result<T, Stop>) -> T {
    match body(&Supervisor::unlimited()) {
        Ok(value) => value,
        Err(stop) => panic!("unsupervised {phase} stopped: {stop}"),
    }
}

/// Renders a panic payload (from [`catch_unwind`] or `JoinHandle::join`)
/// as text: the `&str` / `String` payloads `panic!` produces, or a
/// placeholder for exotic payload types.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into [`Stop::Panicked`] so a worker body
/// never unwinds across the thread scope. Unwind safety is asserted:
/// every worker writes only into its own chunk of [`run_blocks`]'s items,
/// which the caller discards wholesale when any worker fails.
fn catch_shared<T>(f: impl FnOnce() -> Result<T, Stop>) -> Result<T, Stop> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(Stop::Panicked { message: panic_message(payload.as_ref()) }),
    }
}

/// Merges per-worker outcomes: a captured panic anywhere wins (it is the
/// most severe and must not be masked by a cooperative stop that other
/// workers reported), otherwise the first error in worker order.
fn first_stop<I: IntoIterator<Item = Result<(), Stop>>>(slots: I) -> Result<(), Stop> {
    let mut first_err: Option<Stop> = None;
    for slot in slots {
        match slot {
            Ok(()) => {}
            Err(p @ Stop::Panicked { .. }) => return Err(p),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_across_clones_and_threads() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let c = t.clone();
        std::thread::spawn(move || c.cancel()).join().unwrap();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn check_passes_when_unarmed_and_fails_when_cancelled() {
        let sup = Supervisor::unlimited();
        assert_eq!(sup.check(), Ok(()));
        sup.token().cancel();
        assert_eq!(sup.check(), Err(Stop::Cancelled));
    }

    #[test]
    fn deadline_fires_after_elapsing() {
        let sup = Supervisor::new(CancelToken::new(), Some(Duration::from_millis(5)));
        assert_eq!(sup.check(), Ok(()));
        std::thread::sleep(Duration::from_millis(10));
        match sup.check() {
            Err(Stop::DeadlineExceeded { elapsed }) => {
                assert!(elapsed >= Duration::from_millis(5), "elapsed {elapsed:?}");
            }
            other => panic!("expected deadline overrun, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_takes_precedence_over_deadline() {
        let sup = Supervisor::new(CancelToken::new(), Some(Duration::ZERO));
        sup.token().cancel();
        assert_eq!(sup.check(), Err(Stop::Cancelled));
    }

    #[test]
    fn ticker_checks_first_tick_then_every_n() {
        let sup = Supervisor::unlimited();
        let mut t = Ticker::new(&sup, 4);
        assert!(t.tick().is_ok()); // consults (first tick)
        sup.token().cancel();
        // Ticks 2..4 run on the local countdown without consulting.
        assert!(t.tick().is_ok());
        assert!(t.tick().is_ok());
        assert!(t.tick().is_ok());
        // Tick 5 consults again and observes the cancellation.
        assert_eq!(t.tick(), Err(Stop::Cancelled));
    }

    #[test]
    fn already_cancelled_run_stops_on_the_first_tick() {
        let sup = Supervisor::unlimited();
        sup.token().cancel();
        let mut t = Ticker::new(&sup, 1024);
        assert_eq!(t.tick(), Err(Stop::Cancelled));
    }

    #[test]
    fn catch_converts_panics_to_stop() {
        assert_eq!(catch_shared(|| Ok(7)), Ok(7));
        assert_eq!(catch_shared::<()>(|| Err(Stop::Cancelled)), Err(Stop::Cancelled));
        let err = catch_shared::<()>(|| panic!("boom in worker")).unwrap_err();
        assert_eq!(err, Stop::Panicked { message: "boom in worker".into() });
        let err = catch_shared::<()>(|| panic!("{}", format_args!("fmt {}", 3))).unwrap_err();
        assert_eq!(err, Stop::Panicked { message: "fmt 3".into() });
    }

    #[test]
    fn first_stop_prefers_panics_then_worker_order() {
        let dl = Stop::DeadlineExceeded { elapsed: Duration::from_secs(1) };
        let pk = Stop::Panicked { message: "x".into() };
        assert_eq!(first_stop([Ok(()), Ok(())]), Ok(()));
        assert_eq!(first_stop([Err(Stop::Cancelled), Err(dl.clone())]), Err(Stop::Cancelled));
        assert_eq!(first_stop([Err(dl), Err(pk.clone())]), Err(pk));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Stop::Cancelled.to_string(), "cancelled");
        assert!(Stop::DeadlineExceeded { elapsed: Duration::from_millis(1500) }
            .to_string()
            .contains("1.500"));
        assert!(Stop::Panicked { message: "m".into() }.to_string().contains('m'));
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(RunBudget::unlimited(), RunBudget::default());
        let b = RunBudget::with_deadline(Duration::from_secs(1));
        assert_eq!(b.deadline, Some(Duration::from_secs(1)));
        assert_eq!(b.max_matrix_bytes, None);
    }

    /// Spans are opaque to `run_blocks`; the tests hold a unit guard.
    fn no_span() {}

    #[test]
    fn resolve_threads_clamps_to_the_work() {
        assert_eq!(resolve_threads(NonZeroUsize::new(8), 3), 3);
        assert_eq!(resolve_threads(NonZeroUsize::new(2), 100), 2);
        assert_eq!(resolve_threads(NonZeroUsize::new(4), 0), 1);
        assert!(resolve_threads(None, usize::MAX) >= 1);
    }

    #[test]
    fn inline_path_fires_no_fault_point() {
        let _g = fault::tests::guard();
        fault::set_spec(Some("blocks.inline:panic"));
        let sup = Supervisor::unlimited();
        let mut items = [0u8; 4];
        let inline = run_blocks(&mut items, 2, 1, &sup, "blocks.inline", no_span, |first, c| {
            assert_eq!((first, c.len()), (0, 4), "one inline call over every item");
            Ok(())
        });
        // The same point does fire once workers are spawned.
        let spawned = run_blocks(&mut items, 2, 2, &sup, "blocks.inline", no_span, |_, _| Ok(()));
        fault::set_spec(None);
        assert_eq!(inline, Ok(()));
        assert_eq!(
            spawned,
            Err(Stop::Panicked { message: "injected fault: panic at blocks.inline".into() })
        );
    }

    #[test]
    fn uneven_split_covers_every_item_exactly_once() {
        let sup = Supervisor::unlimited();
        let mut items = [0u32; 10];
        let firsts = std::sync::Mutex::new(Vec::new());
        let out = run_blocks(&mut items, 3, 4, &sup, "blocks.split", no_span, |first, chunk| {
            firsts.lock().unwrap().push(first);
            for (j, item) in chunk.iter_mut().enumerate() {
                *item += (first + j) as u32 + 1;
            }
            Ok(())
        });
        assert_eq!(out, Ok(()));
        let mut firsts = firsts.into_inner().unwrap();
        firsts.sort_unstable();
        assert_eq!(firsts, [0, 3, 6, 9]);
        assert_eq!(items, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn a_panicking_chunk_outranks_a_cancelled_one() {
        let sup = Supervisor::unlimited();
        let mut items = [(); 2];
        let out = run_blocks(&mut items, 1, 2, &sup, "blocks.rank", no_span, |first, _| {
            if first == 0 {
                Err(Stop::Cancelled)
            } else {
                panic!("chunk {first} failed")
            }
        });
        assert_eq!(out, Err(Stop::Panicked { message: "chunk 1 failed".into() }));
    }

    #[test]
    fn unsupervised_returns_the_value_and_panics_naming_the_phase() {
        assert_eq!(unsupervised("ok", |sup| sup.check().map(|()| 7)), 7);
        let payload = catch_unwind(|| {
            unsupervised::<()>("matrix build", |sup| {
                sup.token().cancel();
                sup.check()
            })
        })
        .unwrap_err();
        let message = panic_message(payload.as_ref());
        assert!(message.starts_with("unsupervised matrix build stopped:"), "message: {message}");
    }
}
