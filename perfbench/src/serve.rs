//! The service workload: `BubbleService` behind `ServeServer`, driven over
//! HTTP by an open-loop writer (`POST /ingest`) and an open-loop reader
//! (`GET /label`) on one live state, with background reclusters.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use data_bubbles::pipeline::{
    recluster_supervised, Compressor, ExpandedOrdering, PipelineConfig, Recovery,
};
use data_bubbles::{try_bubble_dendrogram, BubbleSpace, DataBubble, DEFAULT_MAX_MATRIX_K};
use db_bench::experiments::common::ds1_setup;
use db_datagen::{ds1, Ds1Params};
use db_hierarchical::Linkage;
use db_obs::Json;
use db_optics::{ClusterOrdering, OpticsParams};
use db_sampling::{compress_by_sampling_threaded, IncrementalCompression};
use db_serve::{BubbleService, ServeServer, ServiceConfig};
use db_spatial::Dataset;

use crate::batch::{cluster_and_expand, macro_truth, sample_seed};
use crate::check;
use crate::record::{median, percentile, samples, timed, Outcome, Tracer};
use crate::{alloc, Args, SETUP_SHARE};

/// Base database: DS1 points compressed by sampling before the stream.
const BASE_N: usize = 100_000;
/// Representatives of the base compression.
const K: usize = 500;
/// Points per `POST /ingest`.
const BATCH: usize = 10_000;
/// One ingest is due every period (10,000 points / 100 ms = 100k
/// points/s). An ingest takes about a fifth of the period, so a short
/// stall of the machine drains within a period or two instead of building
/// a backlog that dominates every later request.
const PERIOD: Duration = Duration::from_millis(100);
/// One `GET /label` is due every spacing. 13 ms does not divide the
/// 0.5 s between triggers, so each trigger meets the reads at another
/// phase and the median lag is not stuck on the reads' grid.
const LABEL_SPACING: Duration = Duration::from_millis(13);
/// Staleness trigger: a recluster starts every 50k absorbed points, that
/// is every 0.5 s of stream, several times the time a recluster takes, so
/// no trigger finds one still in flight.
const MAX_ABSORBED: usize = 50_000;
/// Held-out DS1 points the label requests and the final ARI use.
const PROBES: usize = 20_000;
/// Height at which the single-link bubble dendrogram is cut into labels:
/// the macro cut, inside the band (about 0.12–0.18 on DS1 at these sizes)
/// where DS1's top-level clusters are separated and noise bubbles split
/// off; above it the clusters chain together through the noise.
const LABEL_CUT: f64 = 0.15;
/// Fewest rounds of set-up plus in-process replay on each side of the
/// open loop; rounds go on until the replays add up to `--seconds`, half
/// before the loop and half after. `setup_s` and `run_s` are their
/// medians.
const MIN_ROUNDS: usize = 2;
/// How long labels keep flowing after the last ingest so the last
/// generation is seen.
const TAIL_LIMIT: Duration = Duration::from_secs(5);
/// Threads of each recluster: with the ingest handler that keeps at most
/// two busy threads on two cores.
const RECLUSTER_THREADS: usize = 1;

fn optics_params() -> OpticsParams {
    ds1_setup(BASE_N).bubble_optics()
}

fn service_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(optics_params(), LABEL_CUT);
    cfg.max_absorbed = MAX_ABSORBED;
    cfg.max_mass_fraction = f64::INFINITY;
    cfg.threads = NonZeroUsize::new(RECLUSTER_THREADS);
    cfg
}

/// The recluster configuration the service derives from
/// [`service_config`]; `k` and the compressor are ignored by a recluster.
fn recluster_config() -> PipelineConfig {
    let mut cfg =
        PipelineConfig::new(K, Compressor::Sample { seed: 0 }, Recovery::Bubbles, optics_params());
    cfg.threads = NonZeroUsize::new(RECLUSTER_THREADS);
    cfg.matrix_max_k = DEFAULT_MAX_MATRIX_K;
    cfg
}

/// Generated inputs: the base database, the stream's batches and the
/// held-out probes with their macro-level ground truth.
struct Inputs {
    base: Dataset,
    batches: Vec<Dataset>,
    probes: Dataset,
    probe_truth: Vec<i32>,
}

fn generate(seed: u64, n_batches: usize) -> Inputs {
    let total = BASE_N + n_batches * BATCH + PROBES;
    let data = ds1(&Ds1Params { n: total, ..Ds1Params::default() }, seed);
    let truth = macro_truth(&data, true);
    let ids = |lo: usize, hi: usize| (lo..hi).collect::<Vec<_>>();
    let base = data.data.subset(&ids(0, BASE_N));
    let batches = (0..n_batches)
        .map(|b| data.data.subset(&ids(BASE_N + b * BATCH, BASE_N + (b + 1) * BATCH)))
        .collect();
    let probe_lo = BASE_N + n_batches * BATCH;
    Inputs {
        base,
        batches,
        probes: data.data.subset(&ids(probe_lo, total)),
        probe_truth: truth[probe_lo..].to_vec(),
    }
}

/// Whether batch `b`'s receipt must start a recluster: every
/// `MAX_ABSORBED` points, counted from the base.
fn triggers(b: usize) -> bool {
    ((b + 1) * BATCH).is_multiple_of(MAX_ABSORBED)
}

fn ingest_request(batch: &Dataset) -> Vec<u8> {
    let rows: Vec<String> = batch
        .iter()
        .map(|p| format!("[{}]", p.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(",")))
        .collect();
    let body = format!("{{\"points\":[{}]}}", rows.join(","));
    format!(
        "POST /ingest HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn label_request(point: &[f64]) -> Vec<u8> {
    let coords: Vec<String> = point.iter().map(|x| format!("{x:?}")).collect();
    format!(
        "GET /label?point={} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
        coords.join(",")
    )
    .into_bytes()
}

/// One HTTP exchange on a fresh connection: status and parsed JSON body.
fn exchange(addr: SocketAddr, request: &[u8]) -> Result<(u16, Json), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    stream.write_all(request).map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response without a head")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("response without a status")?;
    let json = Json::parse(body).map_err(|e| format!("response body: {e}"))?;
    Ok((status, json))
}

fn field(json: &Json, key: &str) -> Option<f64> {
    json.get(key).and_then(Json::as_f64)
}

/// Set-up: base compression, the generation-0 artifact, the listener.
fn start_service(base: &Dataset, seed: u64) -> Result<ServeServer, String> {
    let sample = compress_by_sampling_threaded(
        base,
        K,
        sample_seed(seed),
        NonZeroUsize::new(RECLUSTER_THREADS),
    )
    .map_err(|e| format!("base compression: {e}"))?;
    let inc = IncrementalCompression::from_sample(&sample);
    let svc = BubbleService::new(inc, service_config()).map_err(|e| format!("service: {e}"))?;
    ServeServer::start("127.0.0.1:0", Arc::new(svc)).map_err(|e| format!("server: {e}"))
}

/// What the open loop observed.
struct LoopStats {
    /// Latency from due time, per request.
    ingest_ms: Vec<f64>,
    label_ms: Vec<f64>,
    /// Round trip from send, per request.
    ingest_rtt_ms: Vec<f64>,
    label_rtt_ms: Vec<f64>,
    /// Send time minus due time, per request.
    lateness_ms: Vec<f64>,
    /// Generation started by each trigger, with its batch index.
    started: Vec<(u64, usize)>,
    /// Lag from the trigger batch's due time to the first label carrying
    /// that generation, per started generation.
    fresh_lag_s: Vec<f64>,
    /// Time from the receipt that started a generation to its install,
    /// per started generation.
    rebuild_s: Vec<f64>,
    /// Heap the service added from the start of the loop until the last
    /// generation was served.
    peak_heap_mb: f64,
}

/// The writer's log: one entry per batch.
#[derive(Default)]
struct IngestLog {
    due: Vec<Instant>,
    done: Vec<Instant>,
    ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    started: Vec<(u64, usize)>,
}

/// The reader's log: samples of requests due while the stream ran, and
/// when each generation was first served.
#[derive(Default)]
struct LabelLog {
    ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    first_seen: Vec<Instant>,
}

type Checks<'a> = Mutex<&'a mut Outcome>;

fn check(checks: &Checks<'_>, ok: bool, what: impl FnOnce() -> String) {
    checks.lock().unwrap_or_else(std::sync::PoisonError::into_inner).check(ok, what);
}

/// The open loop: a writer and a reader, independent users on one
/// connection each at a time. Ingest `b` is due at `b · PERIOD`; labels
/// are due evenly in between. Every request is timed from its due time,
/// so a stall also counts against the requests queued behind it.
fn open_loop(server: &ServeServer, inputs: &Inputs, out: &mut Outcome) -> LoopStats {
    let addr = server.addr();
    let ingests: Vec<Vec<u8>> = inputs.batches.iter().map(ingest_request).collect();
    let labels: Vec<Vec<u8>> = inputs.probes.iter().map(label_request).collect();
    let checks = Mutex::new(out);
    let stop = AtomicBool::new(false);
    let seen = AtomicU64::new(0);
    alloc::reset_peak();
    let start = Instant::now() + Duration::from_millis(10);
    let stream_end = start + PERIOD * ingests.len() as u32;
    let (ingest, label, installed, peak_heap_mb) = std::thread::scope(|scope| {
        let reader =
            scope.spawn(|| label_loop(addr, &labels, start, stream_end, &stop, &seen, &checks));
        let watcher = scope.spawn(|| watch_installs(server.service(), &stop));
        let ingest = ingest_loop(addr, &ingests, start, &checks);
        // Keep reading until the last generation is served, so the peak
        // covers the last and largest recluster.
        let last = ingest.started.last().map_or(0, |&(g, _)| g);
        let deadline = Instant::now() + TAIL_LIMIT;
        while seen.load(Ordering::SeqCst) < last && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let peak = alloc::peak_mb();
        stop.store(true, Ordering::SeqCst);
        let label = reader.join().unwrap_or_else(|_| {
            check(&checks, false, || "the label client panicked".into());
            LabelLog::default()
        });
        let installed = watcher.join().unwrap_or_else(|_| {
            check(&checks, false, || "the install watcher panicked".into());
            Vec::new()
        });
        (ingest, label, installed, peak)
    });
    let out = checks.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (mut fresh_lag_s, mut rebuild_s) = (Vec::new(), Vec::new());
    for &(g, b) in &ingest.started {
        match (label.first_seen.get(g as usize), installed.get(g as usize)) {
            (Some(&seen), Some(&at)) => {
                fresh_lag_s.push((seen - ingest.due[b]).as_secs_f64());
                rebuild_s.push(at.saturating_duration_since(ingest.done[b]).as_secs_f64());
            }
            _ => out.check(false, || format!("generation {g} was never served")),
        }
    }
    let mut lateness_ms = ingest.lateness_ms;
    lateness_ms.extend(label.lateness_ms);
    LoopStats {
        ingest_ms: ingest.ms,
        label_ms: label.ms,
        ingest_rtt_ms: ingest.rtt_ms,
        label_rtt_ms: label.rtt_ms,
        lateness_ms,
        started: ingest.started,
        fresh_lag_s,
        rebuild_s,
        peak_heap_mb,
    }
}

/// When each generation was first installed (index = generation),
/// polled every millisecond until `stop`, then once more.
fn watch_installs(svc: &BubbleService, stop: &AtomicBool) -> Vec<Instant> {
    let mut installed = Vec::new();
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let generation = svc.artifact().generation;
        let now = Instant::now();
        while installed.len() <= generation as usize {
            installed.push(now);
        }
        if stopping {
            return installed;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The writer: every batch once, on schedule. Each receipt must accept
/// the whole batch and start a recluster exactly at the trigger batches.
fn ingest_loop(
    addr: SocketAddr,
    ingests: &[Vec<u8>],
    start: Instant,
    checks: &Checks<'_>,
) -> IngestLog {
    let mut log = IngestLog::default();
    for (b, request) in ingests.iter().enumerate() {
        let due = start + PERIOD * b as u32;
        sleep_until(due);
        let sent = Instant::now();
        let result = exchange(addr, request);
        let done = Instant::now();
        log.due.push(due);
        log.done.push(done);
        log.lateness_ms.push(ms(sent - due));
        log.ms.push(ms(done - due));
        log.rtt_ms.push(ms(done - sent));
        let receipt = result.and_then(|(status, json)| {
            let accepted = field(&json, "accepted");
            if status != 200 || accepted != Some(BATCH as f64) {
                return Err(format!("status {status}, accepted {accepted:?}"));
            }
            Ok(json.get("recluster_generation").and_then(Json::as_f64).map(|g| g as u64))
        });
        match receipt {
            Ok(started) => {
                let expected = triggers(b).then(|| log.started.len() as u64 + 1);
                check(checks, started == expected, || {
                    format!("batch {b} started recluster {started:?}, expected {expected:?}")
                });
                if let Some(g) = started {
                    log.started.push((g, b));
                }
            }
            Err(e) => check(checks, false, || format!("POST /ingest {b}: {e}")),
        }
    }
    log
}

/// The reader: labels of held-out points until stopped. Generations must
/// never go back.
fn label_loop(
    addr: SocketAddr,
    labels: &[Vec<u8>],
    start: Instant,
    stream_end: Instant,
    stop: &AtomicBool,
    seen: &AtomicU64,
    checks: &Checks<'_>,
) -> LabelLog {
    let mut log = LabelLog::default();
    let spacing = LABEL_SPACING;
    let mut last_generation = 0u64;
    for (i, request) in labels.iter().cycle().enumerate() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = start + spacing * i as u32 + spacing / 2;
        sleep_until(due);
        let sent = Instant::now();
        let result = exchange(addr, request);
        let done = Instant::now();
        if due < stream_end {
            log.lateness_ms.push(ms(sent - due));
            log.ms.push(ms(done - due));
            log.rtt_ms.push(ms(done - sent));
        }
        let generation = result.and_then(|(status, json)| match field(&json, "generation") {
            Some(g) if status == 200 => Ok(g as u64),
            _ => Err(format!("status {status}")),
        });
        match generation {
            Ok(g) => {
                check(checks, g >= last_generation, || {
                    format!("label generation went back from {last_generation} to {g}")
                });
                last_generation = last_generation.max(g);
                while log.first_seen.len() <= g as usize {
                    log.first_seen.push(done);
                }
                seen.fetch_max(g, Ordering::SeqCst);
            }
            Err(e) => check(checks, false, || format!("GET /label: {e}")),
        }
    }
    log
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

pub fn run(args: &Args, out: &mut Outcome, tr: &mut Tracer) -> Result<(), String> {
    let n_batches = (args.seconds.as_secs_f64() / PERIOD.as_secs_f64()).round() as usize;
    let inputs = generate(args.seed, n_batches);
    out.meta(
        "params",
        Json::Obj(vec![
            ("base_n".into(), Json::Int(BASE_N as i64)),
            ("d".into(), Json::Int(2)),
            ("k".into(), Json::Int(K as i64)),
            ("batch".into(), Json::Int(BATCH as i64)),
            ("period_ms".into(), Json::Num(ms(PERIOD))),
            ("rate_points_per_s".into(), Json::Num(BATCH as f64 / PERIOD.as_secs_f64())),
            ("label_spacing_ms".into(), Json::Num(ms(LABEL_SPACING))),
            ("batches".into(), Json::Int(n_batches as i64)),
            ("trigger_max_absorbed".into(), Json::Int(MAX_ABSORBED as i64)),
            ("label_cut".into(), Json::Num(LABEL_CUT)),
            ("recluster_threads".into(), Json::Int(RECLUSTER_THREADS as i64)),
        ]),
    );

    // The service the open loop drives. Its set-up is untimed: the first
    // in a process pays for growing the heap and starting threads.
    let mut server = start_service(&inputs.base, args.seed)?;
    let base = server.service().compression();
    // Half the set-up and replay rounds run before the open loop and half
    // after, so both metrics sample the whole run: on a shared virtual
    // machine the speed of the same call drifts by a third within seconds,
    // in phases that can outlast a block of rounds.
    let mut rounds = Rounds::default();
    let measured_s = args.seconds.as_secs_f64();
    if !args.trace {
        rounds.run(&inputs, &base, args.seed, MIN_ROUNDS, measured_s / 2.0, out)?;
    }
    // Untimed warm-up: a few reads, which leave the state unchanged.
    for p in inputs.probes.iter().take(20) {
        let ok = exchange(server.addr(), &label_request(p)).is_ok_and(|(s, _)| s == 200);
        out.check(ok, || "warm-up label failed".into());
    }

    let completed_before = db_obs::registry_counter("serve.recluster.completed").get();
    let st = open_loop(&server, &inputs, out);
    let last = st.started.last().map_or(0, |&(g, _)| g);
    out.check(server.service().wait_for_generation(last, Duration::from_secs(60)), || {
        format!("generation {last} was never installed")
    });
    let completed = db_obs::registry_counter("serve.recluster.completed").get() - completed_before;
    out.check(completed == st.started.len() as u64, || {
        format!("{} triggers fired but {completed} reclusters completed", st.started.len())
    });
    out.meta("triggers_fired", Json::Int(st.started.len() as i64));
    out.meta("reclusters_completed", Json::Int(completed as i64));
    out.meta("generator_lateness_p99_ms", Json::Num(percentile(&st.lateness_ms, 0.99)));
    out.meta("ingest_requests", Json::Int(st.ingest_ms.len() as i64));
    out.meta("label_requests", Json::Int(st.label_ms.len() as i64));
    // Request latencies, freshness and rebuild time are reported, not
    // gated: on a shared 2-vCPU machine they follow the host's load more
    // than the program.
    for (name, values) in [("ingest", &st.ingest_ms), ("label", &st.label_ms)] {
        out.meta(&format!("{name}_p50_ms"), Json::Num(median(values)));
        out.meta(&format!("{name}_p99_ms"), Json::Num(percentile(values, 0.99)));
    }
    out.meta("ingest_rtt_p50_ms", Json::Num(median(&st.ingest_rtt_ms)));
    out.meta("label_rtt_p50_ms", Json::Num(median(&st.label_rtt_ms)));
    out.meta("fresh_lag_s", Json::Num(median(&st.fresh_lag_s)));
    out.meta("rebuild_s", Json::Num(median(&st.rebuild_s)));

    // The last trigger is the last batch, so the final artifact was built
    // from every ingested point; its labels give the ARI.
    let final_state = server.service().compression();
    let art = server.service().artifact();
    server.shutdown();
    out.check(art.n_objects == BASE_N + n_batches * BATCH, || {
        format!("the final artifact covers {} objects, not all of them", art.n_objects)
    });
    let labels: Vec<i32> =
        inputs.probes.iter().map(|p| art.label_of(p).map_or(i32::MIN, |a| a.label)).collect();
    let ari = db_eval::adjusted_rand_index(&labels, &inputs.probe_truth);

    // The service's state must equal absorbing the same batches directly,
    // `try_absorb_all` on a clone of the base compression.
    let same_state = |replay: &IncrementalCompression, out: &mut Outcome| {
        out.check(check::same_compression(&final_state, replay), || {
            "service compression differs from absorbing the batches directly".into()
        });
    };
    if args.trace {
        let mut replay = base.clone();
        if let Err(e) = traced_replay(&mut replay, &inputs, &art.rep_labels, out, tr) {
            out.check(false, || format!("replaying the stream: {e}"));
        }
        same_state(&replay, out);
        out.metric("obsd.ingest_ms", median(&st.ingest_rtt_ms), "ms");
        out.metric("obsd.label_ms", median(&st.label_rtt_ms), "ms");
        return in_process(&inputs, args.seed, out, tr);
    }

    rounds.run(&inputs, &base, args.seed, 2 * MIN_ROUNDS, measured_s, out)?;
    let mut direct = base.clone();
    if let Err(e) = inputs.batches.iter().try_for_each(|b| direct.try_absorb_all(b).map(|_| ())) {
        out.check(false, || format!("absorbing the stream directly: {e}"));
    }
    same_state(&direct, out);
    match &rounds.replayed {
        Some((state, rep_labels)) => {
            same_state(state, out);
            out.check(*rep_labels == art.rep_labels, || {
                "replayed labels differ from the service's final artifact".into()
            });
        }
        None => out.check(false, || "the stream was never replayed".into()),
    }
    let Rounds { setup_s, replay_s, .. } = rounds;
    out.meta("setup_samples_s", samples(&setup_s));
    out.meta("run_samples_s", samples(&replay_s));
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("run_s", median(&replay_s), "s");
    out.metric("ari", ari, "ratio");
    out.metric("peak_heap_mb", st.peak_heap_mb, "MB");
    Ok(())
}

/// Set-up and replay samples of an untraced run, and the compression and
/// representative labels the first replay reached.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    replay_s: Vec<f64>,
    replayed: Option<(IncrementalCompression, Vec<i32>)>,
}

impl Rounds {
    /// Runs rounds until there are `min_rounds` replays adding up to at
    /// least `until_s`. A round sets up fresh services (each stopped
    /// untimed, see `SETUP_SHARE`) and then replays the stream's service
    /// work on a service built untimed from `base` (see [`replay`]). Every
    /// replay must reach the first replay's state bit for bit.
    fn run(
        &mut self,
        inputs: &Inputs,
        base: &IncrementalCompression,
        seed: u64,
        min_rounds: usize,
        until_s: f64,
        out: &mut Outcome,
    ) -> Result<(), String> {
        while self.replay_s.len() < min_rounds || self.replay_s.iter().sum::<f64>() < until_s {
            loop {
                let (started, secs) = timed(|| start_service(&inputs.base, seed));
                started?.shutdown();
                self.setup_s.push(secs);
                if self.setup_s.iter().sum::<f64>()
                    >= SETUP_SHARE * self.replay_s.iter().sum::<f64>()
                {
                    break;
                }
            }
            let svc = BubbleService::new(base.clone(), service_config())
                .map_err(|e| format!("service: {e}"))?;
            let (result, secs) = timed(|| replay(&svc, &inputs.batches));
            if let Err(e) = result {
                out.check(false, || format!("replaying the stream: {e}"));
            }
            self.replay_s.push(secs);
            let state = (svc.compression(), svc.artifact().rep_labels.clone());
            svc.shutdown();
            match &self.replayed {
                Some(first) => out.check(
                    check::same_compression(&first.0, &state.0) && first.1 == state.1,
                    || "two replays of the stream differ".into(),
                ),
                None => self.replayed = Some(state),
            }
        }
        Ok(())
    }
}

/// The stream's service work without HTTP and without overlap: every batch
/// through `BubbleService::ingest`, and at each trigger a wait until the
/// recluster it started (snapshot, `recluster_supervised`, label
/// dendrogram) is installed. Exactly the trigger batches must start one.
fn replay(svc: &BubbleService, batches: &[Dataset]) -> Result<(), String> {
    for (b, batch) in batches.iter().enumerate() {
        let receipt = svc.ingest(batch).map_err(|e| format!("batch {b}: {e}"))?;
        match receipt.recluster_started {
            Some(g) if triggers(b) => {
                if !svc.wait_for_generation(g, Duration::from_secs(60)) {
                    return Err(format!("generation {g} was never installed"));
                }
            }
            None if !triggers(b) => {}
            started => return Err(format!("batch {b} started recluster {started:?}")),
        }
    }
    Ok(())
}

/// Replays the stream in-process and times each layer a recluster calls:
/// absorb per batch; at each trigger the snapshot clone, the program's
/// `recluster_supervised`, the same recluster decomposed into its layer
/// calls (which must match bit for bit), and the label dendrogram.
fn traced_replay(
    replay: &mut IncrementalCompression,
    inputs: &Inputs,
    final_labels: &[i32],
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mark = tr.mark();
    let cfg = recluster_config();
    let counter = |name: &'static str| db_obs::registry_counter(name).get();
    let evals_before = counter("spatial.dist_evals");
    let mut distance_calls = 0;
    let mut rep_labels = Vec::new();
    for (b, batch) in inputs.batches.iter().enumerate() {
        tr.span("sampling.absorb", || replay.try_absorb_all(batch)).map_err(|e| e.to_string())?;
        if !triggers(b) {
            continue;
        }
        let snapshot = tr.span("serve.snapshot", || replay.clone());
        let program = tr
            .span("serve.recluster", || recluster_supervised(&snapshot, &cfg))
            .map_err(|e| e.to_string())?;
        let calls_before = counter("optics.distance_calls");
        let (ordering, expanded) = decomposed_recluster(&snapshot, &cfg, tr)?;
        distance_calls = counter("optics.distance_calls") - calls_before;
        let same = check::same_ordering(&ordering, &program.rep_ordering)
            && program.expanded.as_ref().is_some_and(|x| check::same_expanded(x, &expanded));
        out.check(same, || {
            format!("decomposed recluster at batch {b} differs from recluster_supervised")
        });
        rep_labels = tr
            .span("core.dendrogram", || {
                let bubbles: Vec<DataBubble> = snapshot
                    .stats()
                    .iter()
                    .map(DataBubble::try_from_cf)
                    .collect::<Result<_, _>>()?;
                let space = BubbleSpace::try_new(bubbles)?;
                Ok::<_, data_bubbles::BubbleError>(
                    try_bubble_dendrogram(&space, Linkage::Single)?.cut_at_distance(LABEL_CUT),
                )
            })
            .map_err(|e| e.to_string())?;
    }
    // The last trigger is the last batch, so the last labels are those of
    // the service's final artifact.
    out.check(rep_labels == final_labels, || {
        "decomposed dendrogram labels differ from the service's".into()
    });

    let absorb = tr.self_times("sampling.absorb", mark);
    out.metric("sampling.absorb_ms", median(&absorb) * 1e3, "ms");
    out.metric("serve.snapshot_ms", median(&tr.self_times("serve.snapshot", mark)) * 1e3, "ms");
    let program = tr.self_times("serve.recluster", mark);
    out.metric("serve.recluster_s", median(&program), "s");
    for (layer, metric) in [
        ("core.bubbles", "core.bubbles_s"),
        ("core.matrix", "core.matrix_s"),
        ("optics.walk", "optics.walk_s"),
        ("core.expand", "core.expand_s"),
        ("core.dendrogram", "core.dendrogram_s"),
    ] {
        out.metric(metric, median(&tr.self_times(layer, mark)), "s");
    }
    let walls = tr.durations("recluster", mark);
    let glue = tr.self_times("recluster", mark);
    let span_sums: Vec<f64> = walls.iter().zip(&glue).map(|(w, g)| w - g).collect();
    out.metric("trace.span_sum_s", median(&span_sums), "s");
    out.metric("trace.wall_s", median(&walls), "s");
    out.metric("trace.run_s", median(&program), "s");
    out.metric("trace.overhead_s", median(&walls) - median(&program), "s");
    out.metric(
        "spatial.dist_evals",
        (counter("spatial.dist_evals") - evals_before) as f64,
        "count",
    );
    out.metric("optics.distance_calls", distance_calls as f64, "count");
    out.metric(
        "optics.matrix_bytes",
        db_obs::registry_gauge("optics.matrix_bytes").get() as f64,
        "bytes",
    );
    Ok(())
}

/// `recluster_supervised`'s clustering and recovery, one span per layer
/// call inside one `recluster` span.
fn decomposed_recluster(
    snapshot: &IncrementalCompression,
    cfg: &PipelineConfig,
    tr: &mut Tracer,
) -> Result<(ClusterOrdering, ExpandedOrdering), String> {
    let root = tr.begin("recluster");
    let result = cluster_and_expand(snapshot.stats(), snapshot.assignment(), cfg, tr);
    tr.end(root);
    result
}

/// In-process calls on a fresh service whose staleness triggers never
/// fire: `BubbleService::ingest` per batch and `BubbleService::label` per
/// probe, without HTTP. Their gap to the `obsd.*` round trips is the HTTP
/// layer's share.
fn in_process(
    inputs: &Inputs,
    seed: u64,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Result<(), String> {
    let sample = compress_by_sampling_threaded(
        &inputs.base,
        K,
        sample_seed(seed),
        NonZeroUsize::new(RECLUSTER_THREADS),
    )
    .map_err(|e| e.to_string())?;
    let mut cfg = service_config();
    cfg.max_absorbed = usize::MAX;
    let svc = BubbleService::new(IncrementalCompression::from_sample(&sample), cfg)
        .map_err(|e| e.to_string())?;
    let mark = tr.mark();
    let mut next_probe = 0;
    for batch in &inputs.batches {
        let receipt = tr.span("serve.ingest", || svc.ingest(batch));
        out.check(receipt.is_ok_and(|r| r.accepted == BATCH), || "in-process ingest failed".into());
        for _ in 0..PERIOD.as_nanos() / LABEL_SPACING.as_nanos() {
            let p = inputs.probes.point(next_probe % inputs.probes.len());
            next_probe += 1;
            let answer = tr.span("serve.label", || svc.label(p));
            out.check(answer.is_ok(), || "in-process label failed".into());
        }
    }
    out.metric("serve.ingest_ms", median(&tr.self_times("serve.ingest", mark)) * 1e3, "ms");
    out.metric("serve.label_us", median(&tr.self_times("serve.label", mark)) * 1e6, "us");
    svc.shutdown();
    Ok(())
}
