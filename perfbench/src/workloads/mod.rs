//! The four workloads and the telemetry helpers they share.

mod crash_recover;
mod epoch;
mod query_pool;

use crate::{Config, Workload};
use dsg_graph::StreamUpdate;
use dsg_service::{GraphRegistry, ServedGraph};
use dsg_telemetry::{series, Counter, Histogram, MetricRegistry};
use std::sync::Arc;
use std::time::Instant;

/// Builds workload `name` for `cfg`.
pub(crate) fn make(name: &str, cfg: &Config) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ingest_drain" => Box::new(epoch::EpochWorkload::ingest_drain(cfg.size)),
        "churn_refresh" => Box::new(epoch::EpochWorkload::churn_refresh(cfg.size)),
        "query_pool" => Box::new(query_pool::QueryPool::new(cfg.size)),
        "crash_recover" => Box::new(crash_recover::CrashRecover::new(cfg)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Updates per `apply` call when loading a base graph.
const LOAD_CHUNK: usize = 256;

/// A tenant with the registry and live telemetry it was created on.
type Hosted = (Arc<MetricRegistry>, Arc<GraphRegistry>, Arc<ServedGraph>);

/// A registry with live telemetry and one tenant on it.
fn tenant(name: &str, cfg: dsg_service::GraphConfig) -> Result<Hosted, String> {
    let telemetry = Arc::new(MetricRegistry::new());
    let registry = Arc::new(GraphRegistry::with_telemetry(Arc::clone(&telemetry)));
    let graph = registry.create(name, cfg).map_err(|e| e.to_string())?;
    Ok((telemetry, registry, graph))
}

/// Applies `updates` in chunks of `chunk`.
fn apply_all(graph: &ServedGraph, updates: &[StreamUpdate], chunk: usize) -> Result<(), String> {
    for c in updates.chunks(chunk) {
        graph.apply(c).map_err(|e| format!("apply: {e}"))?;
    }
    Ok(())
}

/// A histogram the program registered under `name{labels}`; an error if
/// it never did (a renamed series must not silently read as zero).
fn published_hist(
    reg: &MetricRegistry,
    name: &str,
    labels: &[(&str, &str)],
) -> Result<Histogram, String> {
    let full = series(name, labels);
    if reg.snapshot().histogram(&full).is_none() {
        return Err(format!("the program publishes no histogram {full}"));
    }
    Ok(reg.histogram(&full))
}

/// As [`published_hist`], for a counter.
fn published_counter(
    reg: &MetricRegistry,
    name: &str,
    labels: &[(&str, &str)],
) -> Result<Counter, String> {
    let full = series(name, labels);
    if reg.snapshot().counter(&full).is_none() {
        return Err(format!("the program publishes no counter {full}"));
    }
    Ok(reg.counter(&full))
}

/// Per-shard counters `name{graph, shard}` summed.
fn shard_counters(
    reg: &MetricRegistry,
    name: &str,
    graph: &str,
    shards: usize,
) -> Result<Vec<Counter>, String> {
    (0..shards)
        .map(|s| published_counter(reg, name, &[("graph", graph), ("shard", &s.to_string())]))
        .collect()
}

fn sum(counters: &[Counter]) -> u64 {
    counters.iter().map(Counter::get).sum()
}

/// The epoch-advance and artifact-build series of one tenant.
struct EpochSeries {
    send_wait: Histogram,
    fork: Histogram,
    merge: Histogram,
    seal: Histogram,
    /// Build time of forest, oracle and cut, in that order.
    build: [Histogram; 3],
    routed: Vec<Counter>,
    cancelled: Vec<Counter>,
}

/// A reading of [`EpochSeries`], nanoseconds and counts.
#[derive(Clone, Copy, Default)]
struct EpochReading {
    send_wait: u64,
    fork: u64,
    merge: u64,
    seal: u64,
    build: [u64; 3],
    routed: u64,
    cancelled: u64,
}

impl EpochReading {
    fn since(&self, before: &EpochReading) -> EpochReading {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        EpochReading {
            send_wait: d(self.send_wait, before.send_wait),
            fork: d(self.fork, before.fork),
            merge: d(self.merge, before.merge),
            seal: d(self.seal, before.seal),
            build: [0, 1, 2].map(|i| d(self.build[i], before.build[i])),
            routed: d(self.routed, before.routed),
            cancelled: d(self.cancelled, before.cancelled),
        }
    }
}

impl EpochSeries {
    fn new(reg: &MetricRegistry, graph: &str, shards: usize) -> Result<Self, String> {
        let g = [("graph", graph)];
        let phase = |p: &str| {
            published_hist(
                reg,
                "dsg_service_epoch_phase_nanos",
                &[("graph", graph), ("phase", p)],
            )
        };
        let build = |a: &str| {
            published_hist(
                reg,
                "dsg_service_artifact_build_nanos",
                &[("artifact", a), ("graph", graph)],
            )
        };
        Ok(Self {
            send_wait: published_hist(reg, "dsg_engine_send_wait_nanos", &g)?,
            fork: phase("fork")?,
            merge: phase("merge")?,
            seal: phase("seal")?,
            build: [build("forest")?, build("oracle")?, build("laplacian")?],
            routed: shard_counters(reg, "dsg_engine_updates_routed_total", graph, shards)?,
            cancelled: shard_counters(reg, "dsg_engine_cancellations_total", graph, shards)?,
        })
    }

    fn read(&self) -> EpochReading {
        EpochReading {
            send_wait: self.send_wait.sum(),
            fork: self.fork.sum(),
            merge: self.merge.sum(),
            seal: self.seal.sum(),
            build: [0, 1, 2].map(|i| self.build[i].sum()),
            routed: sum(&self.routed),
            cancelled: sum(&self.cancelled),
        }
    }
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
