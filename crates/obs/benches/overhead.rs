//! Benchmark guard: instrumentation cost per operation.
//!
//! Run with metrics on (the default) to see the real cost, and with
//! metrics off to *verify* the no-op claim:
//!
//! ```text
//! cargo bench -p db-obs --bench overhead
//! cargo bench -p db-obs --bench overhead --no-default-features
//! ```
//!
//! With the feature off the guard asserts that a counter increment and a
//! span enter/drop each cost under 2 ns — i.e. they compiled away to (at
//! most) the callsite's cached-handle load.
//!
//! A second guard runs a realistic chunked workload (simulating a
//! pipeline phase that does ~20k arithmetic ops per instrumented chunk)
//! and asserts the instrumented/bare ratio stays under 1.05 whenever
//! per-event recording is not active: with metrics compiled off, and
//! with tracing compiled in but runtime-disabled (`DB_TRACE` unset). It
//! runs on one thread and again on two, each thread bumping the same
//! counters once per chunk, so the cost of counter cache lines moving
//! between cores is inside the bound too.

use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 10_000_000;

/// Median-of-5 ns/op of `f` over `ITERS` iterations.
fn measure(f: impl Fn(u64)) -> f64 {
    let mut runs = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..ITERS {
            f(black_box(i));
        }
        runs.push(start.elapsed().as_secs_f64() * 1e9 / ITERS as f64);
    }
    runs.sort_by(f64::total_cmp);
    runs[2]
}

fn main() {
    let baseline = measure(|i| {
        black_box(i.wrapping_mul(31));
    });
    let counter = measure(|i| {
        db_obs::counter!("bench.overhead_counter").add(i & 1);
        black_box(());
    });
    let histogram = measure(|i| {
        db_obs::histogram!("bench.overhead_histogram").record((i & 0xff) as f64);
        black_box(());
    });
    let span = measure(|_| {
        let _span = db_obs::span!("bench.overhead_span");
        black_box(());
    });

    let mode = if cfg!(feature = "metrics") { "metrics ON" } else { "metrics OFF" };
    println!("overhead ({mode}), ns/op, median of 5 x {ITERS} iters:");
    println!("  baseline (mul)     {baseline:8.3}");
    println!("  counter.add        {:8.3} (+{:.3})", counter, counter - baseline);
    println!("  histogram.record   {:8.3} (+{:.3})", histogram, histogram - baseline);
    println!("  span enter/drop    {:8.3} (+{:.3})", span, span - baseline);

    if !cfg!(feature = "metrics") {
        // The guard: with metrics off the macros must be free. 2 ns is a
        // generous ceiling for "nothing but the OnceLock handle load".
        for (name, cost) in
            [("counter", counter - baseline), ("histogram", histogram - baseline), ("span", span)]
        {
            assert!(cost < 2.0, "no-op {name} costs {cost:.3} ns/op — instrumentation is not free");
        }
        println!("guard passed: all no-op instrumentation under 2 ns/op");
    }

    workload_guard();
}

/// One "chunk" of pipeline-shaped work: ~20k dependent arithmetic ops,
/// the coarsest granularity at which the real pipelines wrap spans
/// around work (a worker's chunk of points, not a single distance).
#[inline(never)]
fn chunk(seed: u64) -> u64 {
    let mut acc = seed | 1;
    for i in 0..20_000u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

/// Median-of-7 seconds for `chunks` chunk evaluations.
fn measure_workload(chunks: u64, f: impl Fn(u64) -> u64) -> f64 {
    let mut runs = Vec::new();
    for rep in 0..7 {
        let start = Instant::now();
        let mut acc = rep;
        for c in 0..chunks {
            acc = f(black_box(acc ^ c));
        }
        black_box(acc);
        runs.push(start.elapsed().as_secs_f64());
    }
    runs.sort_by(f64::total_cmp);
    runs[3]
}

/// One chunk with the guarded instrumentation around it: a span, a
/// counter bump and a trace instant.
fn instrumented_chunk(seed: u64) -> u64 {
    let _span = db_obs::span!("bench.workload_chunk");
    db_obs::counter!("bench.workload_items").add(1);
    db_obs::trace_instant!("bench.workload_mark", "chunk", seed & 0xff);
    chunk(seed)
}

/// Median-of-7 seconds for two threads each evaluating `chunks` chunks of
/// `f`, bare and instrumented alternating so host drift hits both alike.
/// Returns `(bare, instrumented)`.
fn measure_two_threads(chunks: u64) -> (f64, f64) {
    let run = |f: fn(u64) -> u64| {
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                s.spawn(move || {
                    let mut acc = t;
                    for c in 0..chunks {
                        acc = f(black_box(acc ^ c));
                    }
                    black_box(acc)
                });
            }
        });
        start.elapsed().as_secs_f64()
    };
    let (mut bare, mut instrumented) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        bare.push(run(chunk));
        instrumented.push(run(instrumented_chunk));
    }
    bare.sort_by(f64::total_cmp);
    instrumented.sort_by(f64::total_cmp);
    (bare[3], instrumented[3])
}

/// Asserts the instrumented workload is within 5% of the bare one when no
/// per-event recording is active. With tracing compiled in, recording
/// stays runtime-disabled here (the bench never sets `DB_TRACE` or calls
/// `set_enabled(true)`), so the only cost on top of plain metrics is one
/// predictable branch per span.
fn workload_guard() {
    const CHUNKS: u64 = 2_000;

    // Warm the callsite caches outside the timed region.
    {
        let _s = db_obs::span!("bench.workload_chunk");
        db_obs::counter!("bench.workload_items").add(0);
        db_obs::trace_instant!("bench.workload_mark", "chunk", 0u64);
    }

    let bare = measure_workload(CHUNKS, chunk);
    let instrumented = measure_workload(CHUNKS, instrumented_chunk);
    let ratio = instrumented / bare;
    let (bare2, instrumented2) = measure_two_threads(CHUNKS);
    let ratio2 = instrumented2 / bare2;

    let tracing_mode = if cfg!(feature = "tracing") {
        "tracing compiled in, runtime-disabled"
    } else if cfg!(feature = "metrics") {
        "tracing compiled out"
    } else {
        "metrics compiled out"
    };
    println!("workload ({tracing_mode}), median of 7 x {CHUNKS} chunks:");
    println!("  bare               {:8.4} s", bare);
    println!("  instrumented       {:8.4} s (ratio {ratio:.4})", instrumented);
    println!("two threads, median of 7 x {CHUNKS} chunks per thread:");
    println!("  bare               {:8.4} s", bare2);
    println!("  instrumented       {:8.4} s (ratio {ratio2:.4})", instrumented2);

    let recording = cfg!(feature = "tracing") && db_obs::trace::enabled();
    if !recording {
        for (threads, ratio) in [(1, ratio), (2, ratio2)] {
            assert!(
                ratio <= 1.05,
                "{threads}-thread instrumented/bare ratio {ratio:.4} exceeds 1.05 with recording \
                 inactive"
            );
        }
        println!(
            "guard passed: instrumentation overhead {:.2}% (1 thread), {:.2}% (2 threads) <= 5%",
            (ratio - 1.0) * 100.0,
            (ratio2 - 1.0) * 100.0
        );
    }

    supervision_guard(bare);
}

/// Asserts that running the instrumented workload under an armed-but-idle
/// supervisor (no deadline, token never cancelled — the default for every
/// pipeline run without a budget) stays within the same 5% envelope. The
/// per-chunk cost is one `Ticker::tick` — a decrement and, every 64
/// chunks, a relaxed atomic load plus an `Instant::now` — which is the
/// densest check cadence the pipelines use relative to their chunk sizes.
fn supervision_guard(bare: f64) {
    use db_supervise::{Supervisor, Ticker};

    const CHUNKS: u64 = 2_000;

    let sup = Supervisor::unlimited();
    let mut ticker = Ticker::new(&sup, 64);
    // Warm: first tick consults the supervisor immediately.
    assert!(ticker.tick().is_ok());

    let mut runs = Vec::new();
    for rep in 0..7u64 {
        let start = Instant::now();
        let mut acc = rep;
        for c in 0..CHUNKS {
            if ticker.tick().is_err() {
                unreachable!("unlimited supervisor never stops");
            }
            let _span = db_obs::span!("bench.workload_chunk");
            db_obs::counter!("bench.workload_items").add(1);
            acc = chunk(black_box(acc ^ c));
        }
        black_box(acc);
        runs.push(start.elapsed().as_secs_f64());
    }
    runs.sort_by(f64::total_cmp);
    let supervised = runs[3];
    let ratio = supervised / bare;

    println!("workload under idle supervision, median of 7 x {CHUNKS} chunks:");
    println!("  supervised         {supervised:8.4} s (ratio {ratio:.4} vs bare)");
    assert!(ratio <= 1.05, "supervised/bare ratio {ratio:.4} exceeds 1.05 with no budget set");
    println!("guard passed: idle supervision overhead {:.2}% <= 5%", (ratio - 1.0) * 100.0);
}
