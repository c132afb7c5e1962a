//! End-to-end tests of the streaming service: ingest determinism across
//! batch splits, query liveness during reclusters, typed cancellation of
//! superseded reclusters, the in-flight rule of staleness triggers, the
//! bits of label answers, and the HTTP validation boundary.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use db_optics::OpticsParams;
use db_sampling::{compress_by_sampling, IncrementalCompression};
use db_serve::{BubbleService, ServeServer, ServiceConfig};
use db_spatial::{Dataset, LinearScan, SpatialIndex};
use db_supervise::fault;

/// The fault spec, the health registry and the staleness gauges are
/// process-global; every test that installs a fault or builds a service
/// (which sets the gauges at start, ingest and install) serializes here.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn global_guard() -> MutexGuard<'static, ()> {
    GLOBAL_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn blobs(n: usize, seed: u64) -> Dataset {
    let params = db_datagen::SeparatedBlobsParams { n, ..Default::default() };
    db_datagen::separated_blobs(&params, seed).data
}

fn service(seed: u64) -> BubbleService {
    let base = blobs(400, seed);
    let compressed = compress_by_sampling(&base, 24, seed).expect("compress");
    let live = IncrementalCompression::from_sample(&compressed);
    let cfg = ServiceConfig::new(OpticsParams { eps: f64::INFINITY, min_pts: 20 }, 4.0);
    BubbleService::new(live, cfg).expect("service")
}

fn request(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    let status: u16 =
        out.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            panic!("unparseable response: {out:?}");
        });
    let body = out.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        &format!("POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
    )
}

fn ingest_body(points: &[&[f64]]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            let coords: Vec<String> = p.iter().map(|c| format!("{c:?}")).collect();
            format!("[{}]", coords.join(","))
        })
        .collect();
    format!("{{\"points\":[{}]}}", rows.join(","))
}

/// Absorbing the same stream through `POST /ingest` in different batch
/// splits must leave bit-identical stats and assignment — and identical
/// to absorbing the stream directly, without HTTP in the way.
#[test]
fn http_ingest_is_bit_identical_across_batch_splits() {
    let _g = global_guard();
    let stream_points = blobs(90, 7);

    // Reference: direct, one atomic absorb_all.
    let reference = {
        let svc = service(42);
        let mut inc = svc.compression();
        inc.try_absorb_all(&stream_points).expect("absorb");
        inc
    };

    for batch_size in [90, 7, 1] {
        let svc = Arc::new(service(42));
        let mut server = ServeServer::start("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
        let addr = server.addr();
        let rows: Vec<&[f64]> = stream_points.iter().collect();
        for chunk in rows.chunks(batch_size) {
            let (status, body) = post(addr, "/ingest", &ingest_body(chunk));
            assert_eq!(status, 200, "batch_size={batch_size}: {body}");
        }
        let inc = svc.compression();
        assert_eq!(inc.assignment(), reference.assignment(), "batch_size={batch_size}");
        assert_eq!(inc.stats(), reference.stats(), "batch_size={batch_size}");
        assert_eq!(inc.n_objects(), reference.n_objects());
        server.shutdown();
    }
}

/// While a recluster is in flight (made slow by an injected fault), label
/// and stats queries answer promptly from the previous artifact.
#[test]
fn queries_answer_from_cache_while_recluster_is_in_flight() {
    let _g = global_guard();
    let svc = Arc::new(service(13));
    let before = svc.artifact().generation;

    fault::set_spec(Some("clustering:delay:600"));
    let forced_gen = svc.force_recluster();
    assert!(forced_gen > before);

    // The worker is sleeping inside its clustering phase; the cache must
    // keep answering immediately.
    let t0 = Instant::now();
    let answer = svc.label(&[0.5, 0.5]).expect("label");
    let elapsed = t0.elapsed();
    assert_eq!(answer.generation, before, "query must come from the old artifact");
    assert!(
        elapsed < Duration::from_millis(300),
        "label query blocked on the recluster ({elapsed:?})"
    );
    let stats = svc.stats();
    assert_eq!(stats.generation, before);

    // And the recluster still completes and installs.
    assert!(svc.wait_for_generation(forced_gen, Duration::from_secs(20)));
    fault::set_spec(None);
    svc.shutdown();
}

/// A newer forced recluster cancels the in-flight one: the superseded run
/// surfaces as a typed cancellation inside its worker (no panic, counted,
/// previous artifact untouched until the newer run installs).
#[test]
fn forced_recluster_cancels_the_inflight_one() {
    let _g = global_guard();
    let svc = Arc::new(service(99));

    fault::set_spec(Some("clustering:delay:400"));
    let first = svc.force_recluster();
    let second = svc.force_recluster();
    fault::set_spec(None);
    assert!(second > first);

    assert!(svc.wait_for_generation(second, Duration::from_secs(20)));
    let art = svc.artifact();
    assert_eq!(art.generation, second, "the newer recluster owns the cache");
    // The service stayed healthy throughout: a cancelled recluster is a
    // caller decision, not a failure.
    assert_ne!(db_obs::health::current().status, db_obs::health::Status::Failing);
    svc.shutdown();
}

/// Staleness triggers fire from ingest volume and start a background
/// recluster; the receipt reports it and the artifact advances.
#[test]
fn staleness_triggers_start_a_background_recluster() {
    let _g = global_guard();
    let base = blobs(400, 3);
    let compressed = compress_by_sampling(&base, 24, 3).expect("compress");
    let live = IncrementalCompression::from_sample(&compressed);
    let mut cfg = ServiceConfig::new(OpticsParams { eps: f64::INFINITY, min_pts: 20 }, 4.0);
    cfg.max_absorbed = 50; // small trigger
    let svc = BubbleService::new(live, cfg).expect("service");

    let receipt = svc.ingest(&blobs(60, 5)).expect("ingest");
    assert!(receipt.stale, "60 absorbed ≥ trigger of 50");
    let gen = receipt.recluster_started.expect("a recluster starts on staleness");
    assert!(svc.wait_for_generation(gen, Duration::from_secs(20)));
    let art = svc.artifact();
    assert_eq!(art.n_objects, svc.compression().n_objects());
    svc.shutdown();
}

/// A staleness trigger that arrives after a recluster installed its
/// artifact, while its worker thread is still returning, starts the next
/// recluster: a recluster is in flight only until its generation is
/// installed. The `recluster.installed` fault point holds the worker in
/// that window.
#[test]
fn a_trigger_right_after_an_install_starts_the_next_recluster() {
    let _g = global_guard();
    let base = blobs(400, 3);
    let compressed = compress_by_sampling(&base, 24, 3).expect("compress");
    let live = IncrementalCompression::from_sample(&compressed);
    let mut cfg = ServiceConfig::new(OpticsParams { eps: f64::INFINITY, min_pts: 20 }, 4.0);
    cfg.max_absorbed = 50;
    let svc = BubbleService::new(live, cfg).expect("service");

    fault::set_spec(Some("recluster.installed:delay:1500"));
    let first = svc.force_recluster();
    assert!(svc.wait_for_generation(first, Duration::from_secs(20)));
    // The worker now sleeps right after its install.
    let in_flight = svc.stats().recluster_in_flight;
    let receipt = svc.ingest(&blobs(60, 5)).expect("ingest");
    fault::set_spec(None);
    assert!(!in_flight, "an installed recluster is not in flight");
    assert!(receipt.stale, "60 absorbed ≥ trigger of 50");
    let next = receipt.recluster_started.expect("the trigger starts the next recluster");
    assert!(next > first);
    assert!(svc.wait_for_generation(next, Duration::from_secs(20)));
    svc.shutdown();
}

/// `label_of` answers bit for bit as a linear scan over the
/// representatives: the nearest representative (ties to the lower id),
/// its label under the cut, and its distance, the square root of the
/// canonical squared distance. The cases cover every nearest-representative
/// route: the kernel (2-d, k = 24), the cell table (2-d, k = 300) and the
/// tree (d = 9, k = 200). Queries are data points, the representatives
/// themselves (distance 0) and points far outside the data.
#[test]
fn label_answers_equal_a_linear_scan_bit_for_bit() {
    let _g = global_guard();
    for (dim, k) in [(2usize, 24usize), (2, 300), (9, 200)] {
        let params = db_datagen::GaussianFamilyParams { n: 3_000, dim, ..Default::default() };
        let data = db_datagen::gaussian_family(&params, 11).data;
        let compressed = compress_by_sampling(&data, k, 11).expect("compress");
        let cfg = ServiceConfig::new(OpticsParams { eps: f64::INFINITY, min_pts: 20 }, 10.0);
        let live = IncrementalCompression::from_sample(&compressed);
        let svc = BubbleService::new(live, cfg).expect("service");
        let art = svc.artifact();
        let reps = art.representatives();
        let linear = LinearScan::build(reps);
        let far: Vec<Vec<f64>> =
            data.iter().step_by(500).map(|p| p.iter().map(|x| x * 40.0 - 1e3).collect()).collect();
        let queries =
            data.iter().step_by(3).chain(reps.iter()).chain(far.iter().map(Vec::as_slice));
        for (i, q) in queries.enumerate() {
            let got = art.label_of(q).expect("label");
            let want = linear.nearest(reps, q).expect("reps non-empty");
            assert_eq!(
                (got.representative, got.distance.to_bits(), got.label, got.generation),
                (want.id, want.dist.to_bits(), art.rep_labels[want.id], 0),
                "d={dim} k={k} query {i}"
            );
        }
        svc.shutdown();
    }
}

#[test]
fn http_validation_boundary() {
    let _g = global_guard();
    let svc = Arc::new(service(21));
    let mut server = ServeServer::start("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.addr();
    let n_before = svc.compression().n_objects();

    // Malformed JSON → 400.
    let (status, body) = post(addr, "/ingest", "{\"points\": [[1.0, ");
    assert_eq!(status, 400, "{body}");
    // Missing key → 400.
    let (status, _) = post(addr, "/ingest", "{\"rows\": []}");
    assert_eq!(status, 400);
    // Wrong dimensionality → 422 typed, nothing absorbed.
    let (status, body) = post(addr, "/ingest", "{\"points\": [[1.0, 2.0, 3.0]]}");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("rejected"), "{body}");
    // Non-numeric coordinate → 400.
    let (status, _) = post(addr, "/ingest", "{\"points\": [[1.0, \"x\"]]}");
    assert_eq!(status, 400);
    assert_eq!(svc.compression().n_objects(), n_before, "rejections must not absorb");

    // Label: missing param → 400; NaN coordinate → 422 typed.
    let (status, _) = get(addr, "/label");
    assert_eq!(status, 400);
    let (status, body) = get(addr, "/label?point=NaN,0.0");
    assert_eq!(status, 422, "{body}");
    // Valid label query → 200 with a label.
    let (status, body) = get(addr, "/label?point=0.5,0.5");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"label\""), "{body}");

    // Ordering and stats are served.
    let (status, body) = get(addr, "/ordering");
    assert_eq!(status, 200);
    assert!(body.contains("\"ordering\""), "{body}");
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"n_objects\""), "{body}");

    // Wrong method on a service route → 405.
    let (status, _) = get(addr, "/ingest");
    assert_eq!(status, 405);
    let (status, _) = post(addr, "/label", "{}");
    assert_eq!(status, 405);

    // Telemetry fallback still works, and unknown routes 404.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("serve_ingest") || body.is_empty() || body.contains("# TYPE"));
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    server.shutdown();
}

/// The value of an unlabelled Prometheus sample `name` in a `/metrics`
/// body.
#[cfg(feature = "metrics")]
fn metric(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .filter_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .find_map(|v| v.trim().parse().ok())
}

/// The staleness gauges move at ingest, not only when someone calls
/// `/stats`: two `/metrics` scrapes with an ingest between them, and no
/// `/stats` call anywhere, see the cache age advance and the absorbed
/// count and new-mass fraction grow. The gauges exist only with the
/// `metrics` feature.
#[cfg(feature = "metrics")]
#[test]
fn metrics_scrapes_see_the_cache_age_advance_without_stats() {
    let _g = global_guard();
    let svc = Arc::new(service(5));
    let mut server = ServeServer::start("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.addr();
    let scrape = |ingest: &[&[f64]]| {
        let (status, body) = post(addr, "/ingest", &ingest_body(ingest));
        assert_eq!(status, 200, "{body}");
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let age = metric(&body, "serve_cache_age_ms").expect("age gauge exported");
        let absorbed =
            metric(&body, "serve_cache_absorbed_since_build").expect("absorbed gauge exported");
        let fraction = metric(&body, "serve_cache_new_mass_fraction_ppm").expect("fraction gauge");
        (age, absorbed, fraction)
    };

    std::thread::sleep(Duration::from_millis(20));
    let (age1, absorbed1, _) = scrape(&[&[0.5, 0.5]]);
    std::thread::sleep(Duration::from_millis(60));
    let (age2, absorbed2, fraction2) = scrape(&[&[0.5, 0.5], &[0.25, 0.5]]);

    assert!(age1 >= 20.0, "first scrape age {age1} ms");
    assert!(age2 >= age1 + 60.0, "age did not advance: {age1} ms then {age2} ms");
    assert_eq!((absorbed1, absorbed2), (1.0, 3.0));
    assert_eq!(fraction2, (3_000_000 / svc.compression().n_objects()) as f64);
    assert_eq!(svc.artifact().generation, 0, "no recluster may reset the age in between");
    server.shutdown();
}
