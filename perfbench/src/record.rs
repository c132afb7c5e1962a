//! In-memory spans around the benchmark's calls into each layer, the
//! statistics the report uses, and the run's result object.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use db_obs::Json;

/// One closed span: a call into a layer, timed from the benchmark.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    /// Time covered by direct children.
    child: Duration,
}

/// Records spans in memory and writes them out when the run ends. A
/// layer's self time is its span's duration minus its children's.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; a disabled one records nothing, so untraced runs time
    /// only what their metrics need.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Times `f` as one span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let start = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
            child: Duration::ZERO,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let end = self.origin.elapsed();
        self.spans[id].end = end;
        let (parent, start) = (self.spans[id].parent, self.spans[id].start);
        if let Some(p) = parent {
            self.spans[p].child += end - start;
        }
    }

    /// Self time of every span named `name` recorded since span index
    /// `from`, in seconds, in recording order.
    pub fn self_times(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start - s.child).as_secs_f64())
            .collect()
    }

    /// Duration of every span named `name` recorded since span index
    /// `from`, in seconds, in recording order.
    pub fn durations(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Number of spans recorded so far (a marker for [`Tracer::self_times`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Every span as JSON, for the trace file.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Int(p as i64))),
                        ("start_us".into(), Json::Num(s.start.as_secs_f64() * 1e6)),
                        ("dur_us".into(), Json::Num((s.end - s.start).as_secs_f64() * 1e6)),
                        (
                            "self_us".into(),
                            Json::Num((s.end - s.start - s.child).as_secs_f64() * 1e6),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Nearest-rank percentile `q ∈ [0, 1]` of `values`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The run's outcome: operations attempted, checks failed, and metrics
/// by name with their unit.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub meta: Vec<(String, Json)>,
}

impl Outcome {
    /// Counts one checked operation; a false `ok` is a failure, described
    /// on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("check failed: {msg}");
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    /// The final result line.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                (
                    (*name).to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Per-repetition values, for the report's metadata.
pub fn samples(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}
