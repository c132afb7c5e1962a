//! Integration tests for the event-tracing ring buffers: wraparound,
//! concurrent writers racing a reader (seqlock torn-event rejection),
//! `clear()`, and the Chrome-trace JSON round trip through the crate's
//! own parser.
//!
//! These tests share one process, so each records under its own
//! [`RunId`] and asserts only on events carrying that id; recording is
//! globally enabled and never turned back off. `trace::clear()` is the
//! one global side effect: it hides every event recorded so far, whatever
//! its run, so the test calling it holds [`CLEAR`] for writing while
//! every other test holds it for reading.
#![cfg(feature = "tracing")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Once, PoisonError, RwLock, RwLockReadGuard};

use db_obs::trace::{self, RunId};
use db_obs::{trace_json, Json, TraceEvent, TraceEventKind};

/// Ring capacity forced via `DB_TRACE_CAP` so wraparound is cheap to
/// exercise. Must run before any ring is claimed, hence the `Once` every
/// test calls first.
const CAP: usize = 64;

/// Serialises `trace::clear()` against tests with events in flight.
static CLEAR: RwLock<()> = RwLock::new(());

/// Enables recording once and returns a read guard on [`CLEAR`]; hold it
/// for the whole test so no `clear()` lands between recording and
/// reading.
fn setup() -> RwLockReadGuard<'static, ()> {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("DB_TRACE_CAP", CAP.to_string());
        trace::set_enabled(true);
    });
    CLEAR.read().unwrap_or_else(PoisonError::into_inner)
}

fn my_events(run: RunId) -> Vec<TraceEvent> {
    trace::events_for_run(run.get())
}

#[test]
fn ring_wraparound_keeps_newest_events() {
    let _clear = setup();
    let run = RunId::next();
    let _g = run.enter();
    let name = trace::intern("wrap.probe");
    let total = 3 * CAP as u64 + 17;
    for i in 0..total {
        trace::record_instant(name, 0, i);
    }
    let evs = my_events(run);
    // Only this thread wrote under this run id, so the ring holds exactly
    // the newest `CAP` of its events.
    assert_eq!(evs.len(), CAP, "ring should retain exactly its capacity");
    let args: Vec<u64> = evs.iter().map(|e| e.arg).collect();
    let expect: Vec<u64> = (total - CAP as u64..total).collect();
    assert_eq!(args, expect, "survivors must be the newest, in order");
    assert!(evs.iter().all(|e| e.name == "wrap.probe"));
}

#[test]
fn concurrent_writers_never_yield_torn_events() {
    let _clear = setup();
    let run = RunId::next();
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 5_000;
    let names: Vec<&'static str> = (0..WRITERS).map(|i| &*format!("torn.w{i}").leak()).collect();
    let stop = Arc::new(AtomicBool::new(false));
    // A thread's ring is released for reuse when the thread exits, so
    // another test's thread could overwrite every slot before the final
    // read. The writers therefore wait, once written, until that read is
    // taken.
    let (written, read) = (&Barrier::new(WRITERS + 1), &Barrier::new(WRITERS + 1));

    let evs = std::thread::scope(|s| {
        let writers: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                s.spawn(move || {
                    trace::set_current_run_id(run.get());
                    let id = trace::intern(name);
                    for seq in 0..PER_WRITER {
                        trace::record_instant(id, 0, (i as u64) << 32 | seq);
                    }
                    written.wait();
                    read.wait();
                })
            })
            .collect();
        // Race the reader against the writers the whole time they run: a
        // torn slot would decode to a payload no writer produced.
        let reader = {
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for e in my_events(run) {
                        let widx = (e.arg >> 32) as usize;
                        let seq = e.arg & 0xffff_ffff;
                        assert!(widx < WRITERS, "impossible writer index {widx}");
                        assert!(seq < PER_WRITER, "impossible sequence {seq}");
                        assert_eq!(e.name, format!("torn.w{widx}"));
                        assert_eq!(e.kind, TraceEventKind::Instant);
                    }
                }
            })
        };
        written.wait();
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        // Final consistent snapshot, taken while every writer still holds
        // its ring.
        let evs = my_events(run);
        read.wait();
        for w in writers {
            w.join().unwrap();
        }
        evs
    });

    // Per thread, timestamps are monotone and sequence numbers strictly
    // increase (each writer had its own ring).
    assert!(!evs.is_empty());
    let mut by_tid: std::collections::HashMap<u64, Vec<&TraceEvent>> = Default::default();
    for e in &evs {
        by_tid.entry(e.tid).or_default().push(e);
    }
    for (tid, evs) in by_tid {
        assert!(evs.len() <= CAP, "ring {tid} exceeded capacity");
        for w in evs.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns, "non-monotone timestamps on tid {tid}");
            assert!(w[0].arg < w[1].arg, "out-of-order sequence on tid {tid}");
        }
        // The retained window is a contiguous run of one writer's output
        // (overwrites — by wraparound or by a later thread reusing the
        // ring — always consume the oldest slots first).
        let first = evs[0].arg & 0xffff_ffff;
        let last = evs[evs.len() - 1].arg & 0xffff_ffff;
        assert_eq!(
            (last - first + 1) as usize,
            evs.len(),
            "retained events must be contiguous on tid {tid}"
        );
    }
}

#[test]
fn clear_hides_old_events_only() {
    drop(setup());
    let _clear = CLEAR.write().unwrap_or_else(PoisonError::into_inner);
    let run = RunId::next();
    let _g = run.enter();
    let name = trace::intern("clear.probe");
    trace::record_instant(name, 0, 1);
    assert!(!my_events(run).is_empty());
    trace::clear();
    assert!(my_events(run).is_empty(), "clear() must hide prior events");
    trace::record_instant(name, 0, 2);
    let evs = my_events(run);
    assert_eq!(evs.len(), 1, "events after clear() must still record");
    assert_eq!(evs[0].arg, 2);
}

#[test]
fn chrome_json_round_trips_through_parser() {
    let _clear = setup();
    let run = RunId::next();
    let _g = run.enter();
    let span = trace::intern("roundtrip.span");
    let mark = trace::intern("roundtrip.mark");
    let arg_name = trace::intern("items");
    trace::record_begin(span);
    trace::record_instant(mark, arg_name, 42);
    trace::record_end(span);

    let json = trace_json(&my_events(run));
    let doc = Json::parse(&json).expect("exporter must emit valid JSON");
    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let evs = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert_eq!(evs.len(), 3);

    let ph = |i: usize| evs[i].get("ph").and_then(Json::as_str).unwrap();
    assert_eq!(ph(0), "B");
    assert_eq!(ph(1), "i");
    assert_eq!(ph(2), "E");
    for e in evs {
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "ts must be numeric");
        assert!(e.get("pid").is_some() && e.get("tid").is_some());
    }
    assert_eq!(evs[0].get("name").and_then(Json::as_str), Some("roundtrip.span"));
    let args = evs[1].get("args").expect("instant carries args");
    assert_eq!(args.get("items").and_then(Json::as_f64), Some(42.0));
    // Begin/End timestamps are ordered.
    let ts = |i: usize| evs[i].get("ts").and_then(Json::as_f64).unwrap();
    assert!(ts(0) <= ts(1) && ts(1) <= ts(2));
}
