//! Env-gated fault injection for chaos testing.
//!
//! The grammar (one or more comma-separated faults):
//!
//! ```text
//! DB_FAULT=<phase>:panic            panic when <phase> is reached
//! DB_FAULT=<phase>:delay:<ms>       sleep <ms> milliseconds at <phase>
//! DB_FAULT=<phase>:cancel           cancel the run's token at <phase>
//! ```
//!
//! Pipeline code calls [`inject`] at its fault points: the phase
//! boundaries (`compression`, `clustering`, `recovery`) on the run's own
//! thread, and the worker entry points (`classify.worker`, `stats.worker`,
//! `matrix.worker`) inside spawned worker threads, where an injected
//! panic exercises the panic-capture path. The service's recluster worker
//! has one more, `recluster.installed`, right after it installs its
//! artifact. With `DB_FAULT` unset the hook
//! is a read-lock acquisition on an empty spec — nanoseconds at phase
//! granularity, and nothing at all inside item loops.
//!
//! Tests use [`set_spec`] to install a spec programmatically; the spec is
//! **process-global**, so suites driving it must serialize those tests
//! (see `tests/supervision.rs`).

use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

use crate::CancelToken;

/// What an injected fault does when its phase is reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Panic on the thread that hit the fault point.
    Panic,
    /// Sleep for the given duration, then continue.
    Delay(Duration),
    /// Cancel the supervising token, then continue (the next cooperative
    /// check observes the cancellation).
    Cancel,
}

/// One parsed fault: fires when [`inject`] is called with this phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Fault-point name, e.g. `clustering` or `matrix.worker`.
    pub phase: String,
    /// What happens there.
    pub action: Action,
}

/// Parses a `DB_FAULT` spec. See the module docs for the grammar.
///
/// # Errors
///
/// A human-readable message naming the malformed clause.
pub fn parse_spec(spec: &str) -> Result<Vec<Fault>, String> {
    let mut faults = Vec::new();
    for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
        let (phase, action) = clause
            .split_once(':')
            .ok_or_else(|| format!("fault clause `{clause}` is missing `:<action>`"))?;
        if phase.is_empty() {
            return Err(format!("fault clause `{clause}` has an empty phase"));
        }
        let action = match action {
            "panic" => Action::Panic,
            "cancel" => Action::Cancel,
            delay => match delay.strip_prefix("delay:").map(str::parse::<u64>) {
                Some(Ok(ms)) => Action::Delay(Duration::from_millis(ms)),
                _ => {
                    return Err(format!(
                        "fault clause `{clause}`: action must be `panic`, `cancel`, or \
                         `delay:<ms>`"
                    ))
                }
            },
        };
        faults.push(Fault { phase: phase.to_string(), action });
    }
    Ok(faults)
}

fn state() -> &'static RwLock<Arc<Vec<Fault>>> {
    static STATE: OnceLock<RwLock<Arc<Vec<Fault>>>> = OnceLock::new();
    STATE.get_or_init(|| {
        let initial = match std::env::var("DB_FAULT") {
            Ok(spec) => match parse_spec(&spec) {
                Ok(faults) => faults,
                Err(e) => {
                    // An operator typo must not take the process down, but
                    // silently ignoring it would make chaos runs lie.
                    eprintln!("db-supervise: ignoring malformed DB_FAULT: {e}");
                    Vec::new()
                }
            },
            Err(_) => Vec::new(),
        };
        RwLock::new(Arc::new(initial))
    })
}

fn read_spec() -> Arc<Vec<Fault>> {
    match state().read() {
        Ok(guard) => Arc::clone(&guard),
        Err(poisoned) => Arc::clone(&poisoned.into_inner()),
    }
}

/// Replaces the process-global fault spec (`None` clears it). Meant for
/// tests; the `DB_FAULT` environment variable seeds the initial spec.
///
/// # Panics
///
/// Panics on a malformed spec — a test installing a fault it cannot
/// express should fail loudly, unlike the env path.
pub fn set_spec(spec: Option<&str>) {
    let faults = match spec {
        Some(s) => match parse_spec(s) {
            Ok(f) => f,
            Err(e) => panic!("set_spec: {e}"),
        },
        None => Vec::new(),
    };
    match state().write() {
        Ok(mut guard) => *guard = Arc::new(faults),
        Err(poisoned) => *poisoned.into_inner() = Arc::new(faults),
    }
}

/// Whether any fault is currently installed (cheap pre-check for callers
/// that want to skip work when chaos is off).
pub fn active() -> bool {
    !read_spec().is_empty()
}

/// The fault point: fires every installed fault whose phase equals
/// `phase`. `Panic` panics on the calling thread (worker fault points run
/// under panic capture), `Delay` sleeps, `Cancel` cancels `token`.
pub fn inject(phase: &str, token: &CancelToken) {
    let spec = read_spec();
    if spec.is_empty() {
        return;
    }
    for fault in spec.iter().filter(|f| f.phase == phase) {
        match &fault.action {
            Action::Panic => panic!("injected fault: panic at {phase}"),
            Action::Delay(d) => std::thread::sleep(*d),
            Action::Cancel => token.cancel(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The spec is process-global; every test in this crate that installs
    /// one serializes on this lock.
    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parses_every_action() {
        let faults =
            parse_spec("compression:panic, clustering:delay:250 ,recovery:cancel").unwrap();
        assert_eq!(
            faults,
            vec![
                Fault { phase: "compression".into(), action: Action::Panic },
                Fault {
                    phase: "clustering".into(),
                    action: Action::Delay(Duration::from_millis(250))
                },
                Fault { phase: "recovery".into(), action: Action::Cancel },
            ]
        );
        assert!(parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_clauses() {
        assert!(parse_spec("compression").unwrap_err().contains("missing"));
        assert!(parse_spec(":panic").unwrap_err().contains("empty phase"));
        assert!(parse_spec("x:explode").unwrap_err().contains("must be"));
        assert!(parse_spec("x:delay:abc").unwrap_err().contains("must be"));
    }

    #[test]
    fn inject_cancel_and_delay() {
        let _g = guard();
        set_spec(Some("here:cancel"));
        assert!(active());
        let token = CancelToken::new();
        inject("elsewhere", &token);
        assert!(!token.is_cancelled());
        inject("here", &token);
        assert!(token.is_cancelled());
        set_spec(None);
        assert!(!active());
    }

    #[test]
    fn inject_panics_on_panic_action() {
        let _g = guard();
        set_spec(Some("boom:panic"));
        let token = CancelToken::new();
        let err = crate::catch_shared(|| {
            inject("boom", &token);
            Ok(())
        })
        .unwrap_err();
        set_spec(None);
        assert_eq!(err, crate::Stop::Panicked { message: "injected fault: panic at boom".into() });
    }
}
