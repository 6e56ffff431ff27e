//! A service benchmark for the dynamic-stream graph system.
//!
//! Four workloads drive the public API of `dsg-service` and `dsg-store`
//! end to end, check every answer, and report the end-to-end metrics of
//! [`spec::END_TO_END`] (untraced run) or the per-layer metrics of
//! [`spec::PER_LAYER`] (traced run). Layers are timed from outside, around
//! calls into their public functions; numbers the program already
//! publishes (epoch-phase and artifact-build histograms, `TenantRecovery`
//! phases, `TenantEpochStats`) are read, never added.

pub mod gen;
pub mod spec;
pub mod trace;
mod workloads;

use dsg_service::audit::{verify_cached, AuditConfig, ExactCache};
use dsg_service::{EpochSnapshot, Query, Response};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// How big the workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// A few-second version of every workload, for the smoke test.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measurement runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Where spans and durable tenant directories go.
    pub out_dir: PathBuf,
}

/// What one invocation measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Every answer met its guarantee, every epoch held the reference
    /// edges, and (traced) the layers added back to the total.
    pub correct: bool,
    /// Order-independent digest of the answers of the first `digest_ops`
    /// operations.
    pub digest: u64,
    pub digest_ops: u64,
    /// `(name, value, unit)` in print order: the metrics of the result line.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

/// An order-independent digest of `(operation, query, answer)` triples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest {
    acc: u64,
}

impl Digest {
    fn add(&mut self, op: u64, item: &str) {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for b in item.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
        self.acc = self.acc.wrapping_add(h);
    }
}

/// The operation loop's bookkeeping: timing samples, answers, failures
/// and the digest.
pub struct Measure {
    deadline: Instant,
    min_ops: u64,
    /// Pre-filled so the sample buffer's resident size does not depend on
    /// how many operations fit into the run.
    samples: Vec<u32>,
    len: usize,
    op_ns: u64,
    answers: u64,
    failed: u64,
    digest: Digest,
    digest_ops: u64,
    problems: Vec<String>,
    audit: AuditConfig,
    exact: Option<ExactCache>,
}

impl Measure {
    fn new(seconds: f64, min_ops: u64, capacity: usize) -> Self {
        Self {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            min_ops,
            samples: vec![u32::MAX; capacity],
            len: 0,
            op_ns: 0,
            answers: 0,
            failed: 0,
            digest: Digest::default(),
            digest_ops: min_ops,
            problems: Vec::new(),
            audit: AuditConfig::default(),
            exact: None,
        }
    }

    /// Whether to run another operation.
    pub fn more(&self) -> bool {
        self.failed == 0
            && self.len < self.samples.len()
            && ((self.len as u64) < self.min_ops || Instant::now() < self.deadline)
    }

    /// Index of the next operation.
    pub fn next_op(&self) -> u64 {
        self.len as u64
    }

    /// Records one finished operation that served `answers` answers.
    pub fn record(&mut self, elapsed: Duration, answers: u64) {
        let ns = elapsed.as_nanos().min(u128::from(u32::MAX)) as u32;
        self.samples[self.len] = ns;
        self.len += 1;
        self.op_ns += u64::from(ns);
        self.answers += answers;
    }

    /// Counts a failed operation (a `ServiceError`, a broken guarantee,
    /// or an epoch that lost the reference edges); the loop stops.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Checks `response` against the paper's guarantee on `snap` and
    /// folds it into the digest.
    pub fn check(
        &mut self,
        op: u64,
        snap: &Arc<EpochSnapshot>,
        query: &Query,
        response: &Response,
    ) {
        if !self.exact.as_ref().is_some_and(|c| c.covers(snap)) {
            self.exact = Some(ExactCache::new(Arc::clone(snap)));
        }
        let cache = self.exact.as_mut().expect("cache was just installed");
        match verify_cached(cache, query, response, &self.audit) {
            Some(finding) if !finding.violation => {}
            Some(finding) => self.fail(format!("op {op}: guarantee violated: {}", finding.detail)),
            None => self.fail(format!("op {op}: {query:?} answered with {response:?}")),
        }
        if op < self.digest_ops {
            // A connectivity answer is one number; the forest behind it
            // is what a bit-identity claim is about.
            let forest = match query {
                Query::Connectivity => format!("{:?}", snap.forest().result.edges),
                _ => String::new(),
            };
            self.digest
                .add(op, &format!("{query:?}={response:?}{forest}"));
        }
    }

    /// Folds an operation's non-query outcome into the digest.
    pub fn digest_extra(&mut self, op: u64, item: &str) {
        if op < self.digest_ops {
            self.digest.add(op, item);
        }
    }

    fn ops(&self) -> usize {
        self.len
    }

    fn mean_ns(&self) -> f64 {
        self.op_ns as f64 / self.len.max(1) as f64
    }

    /// Index of quantile `q` among the sorted operation times.
    fn rank(&self, q: f64) -> usize {
        (q * self.len.saturating_sub(1) as f64).round() as usize
    }

    /// Exact quantile of the recorded operation times, nanoseconds.
    fn quantile_ns(&self, q: f64) -> f64 {
        let mut sorted = self.samples[..self.len].to_vec();
        sorted.sort_unstable();
        sorted.get(self.rank(q)).map_or(0.0, |&ns| f64::from(ns))
    }
}

/// Per-layer figures of one set-up: `(metric name, value)`.
type SetupLayers = Vec<(&'static str, f64)>;

/// What a workload must provide to the harness.
trait Workload {
    /// Operations whose answers make up the digest; every run makes at
    /// least this many.
    fn digest_ops(&self) -> u64;
    /// Operations run (and checked) before the clock starts, so caches
    /// fill and lazy set-up finishes first.
    fn warmup_ops(&self) -> u64;
    /// Upper bound on operations in one measurement.
    fn capacity(&self) -> usize;
    /// Builds the tenant from scratch (dropping any earlier one) with
    /// inputs drawn from `seed`. Returns per-layer set-up figures.
    fn setup(&mut self, seed: u64) -> Result<SetupLayers, String>;
    /// Runs operations while `m.more()`; with a tracer, records spans.
    fn run(&mut self, m: &mut Measure, tracer: Option<&mut Tracer>) -> Result<(), String>;
    /// Per-layer figures of the traced run, keyed by metric name;
    /// `traced_ns` is the mean traced operation time comparable to the
    /// untraced latency.
    fn layers(&self, tracer: &Tracer) -> (BTreeMap<String, f64>, f64);
    /// Extra lines for the human-readable report.
    fn notes(&self, m: &Measure) -> Vec<String>;
    /// Removes anything the workload left on disk.
    fn cleanup(&mut self) {}
}

/// Number of full set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 3;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs workload `name` once.
///
/// # Errors
///
/// An unknown workload name, or a set-up that the program refused.
pub fn run(name: &str, cfg: &Config) -> Result<Report, String> {
    let spec = spec::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let mut w = workloads::make(spec.name, cfg)?;
    let result = measure(spec.name, w.as_mut(), cfg);
    w.cleanup();
    result
}

fn measure(name: &'static str, w: &mut dyn Workload, cfg: &Config) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        let layers = w.setup(cfg.seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        for (k, v) in layers {
            setup_layers.entry(k).or_default().push(v);
        }
    }
    let warmup = w.warmup_ops();
    let mut warm = Measure::new(0.0, warmup, warmup as usize);
    w.run(&mut warm, None)?;
    let untraced_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut m = Measure::new(untraced_seconds, w.digest_ops(), w.capacity());
    if warm.failed == 0 {
        w.run(&mut m, None)?;
    }
    let mut report = Report {
        workload: name,
        attempted: (warm.ops() + m.ops()) as u64,
        failed: warm.failed + m.failed,
        correct: false,
        digest: m.digest.acc,
        digest_ops: m.digest_ops.min(m.ops() as u64),
        metrics: Vec::new(),
        notes: Vec::new(),
        problems: [warm.problems, m.problems.clone()].concat(),
    };
    let metric = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
    if !cfg.trace {
        let secs = m.op_ns as f64 / 1e9;
        report.metrics = vec![
            metric("setup_s", median(setup_s.clone()), "s"),
            metric("latency_p50_ms", m.quantile_ns(0.5) / 1e6, "ms"),
            metric("latency_p90_ms", m.quantile_ns(0.9) / 1e6, "ms"),
            metric("queries_per_s", m.answers as f64 / secs.max(1e-12), "1/s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        let seconds: Vec<String> = setup_s.iter().map(|s| format!("{s:.4} s")).collect();
        report
            .notes
            .push(format!("set-ups: {}", seconds.join(", ")));
        report.notes.push(format!(
            "samples: {} operations ({} beyond p90), {} answers",
            m.ops(),
            m.ops().saturating_sub(1 + m.rank(0.9)),
            m.answers
        ));
        report.notes.extend(w.notes(&m));
    } else {
        let mut traced = Measure::new(cfg.seconds / 2.0, 1, w.capacity());
        let mut tracer = Tracer::new();
        if report.failed == 0 {
            w.run(&mut traced, Some(&mut tracer))?;
        }
        report.attempted += traced.ops() as u64;
        report.failed += traced.failed;
        report.problems.extend(traced.problems.clone());
        let (mut layers, traced_ns) = w.layers(&tracer);
        for (k, v) in setup_layers {
            layers.insert(k.to_string(), median(v));
        }
        layers.insert(
            "trace.overhead_pct".to_string(),
            (traced_ns / m.mean_ns() - 1.0) * 100.0,
        );
        if !tracer.closes() {
            report
                .problems
                .push("layer self times do not add back to the total".into());
        }
        let mut unknown: Vec<&String> = layers.keys().collect();
        for l in &spec::PER_LAYER {
            report.metrics.push(metric(
                l.name,
                layers.get(l.name).copied().unwrap_or(0.0),
                l.unit,
            ));
            unknown.retain(|k| *k != l.name);
        }
        if !unknown.is_empty() {
            report
                .problems
                .push(format!("unlisted layer metrics: {unknown:?}"));
        }
        let spans = cfg
            .out_dir
            .join(format!("spans-{name}-seed{}.tsv", cfg.seed));
        tracer
            .write(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        report.notes.push(format!(
            "traced: {} operations, mean {:.4} ms traced vs {:.4} ms untraced; spans in {}",
            tracer.ops(),
            traced_ns / 1e6,
            m.mean_ns() / 1e6,
            spans.display()
        ));
    }
    report.notes.push(format!(
        "error_rate: {} ratio ({} of {} operations failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report.correct = report.failed == 0 && report.problems.is_empty();
    Ok(report)
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}
