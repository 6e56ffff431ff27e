//! `query_pool`: one closed-loop client sends read-heavy queries through a
//! one-worker [`QueryService`] pool to a frozen epoch whose forest and
//! oracle were built in set-up. One operation is one
//! [`QueryService::query_blocking`] round trip.

use super::{apply_all, published_hist, tenant, LOAD_CHUNK};
use crate::gen::{net_changes, Gen, LiveSet};
use crate::trace::Tracer;
use crate::{Measure, SetupLayers, Size, Workload};
use dsg_service::{EpochSnapshot, GraphConfig, LoadGen, Query, QueryMix, QueryService};
use dsg_telemetry::Histogram;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const NAME: &str = "query_pool";
/// Distance sources: twice the oracle's 32-row cache.
const HOT_SOURCES: usize = 64;

struct Tenant {
    pool: QueryService,
    snap: Arc<EpochSnapshot>,
    load: LoadGen,
    queue_wait: Histogram,
    execute: Histogram,
}

/// Per-operation timings of the traced phase, paired after a replay.
struct Traced {
    query: Query,
    start: Instant,
    end: Instant,
}

#[derive(Default)]
struct Counts {
    queue_wait_ns: u64,
    pool_execute_ns: u64,
    pool_ops: u64,
    /// Replayed execute time and count per query variant.
    replay: BTreeMap<&'static str, (u64, u64)>,
    cache_hit_ratio: f64,
}

pub(crate) struct QueryPool {
    n: usize,
    churn_epochs: usize,
    updates: usize,
    digest_ops: u64,
    tenant: Option<Tenant>,
    /// The query index the next operation uses (continues across phases).
    next: u64,
    counts: Counts,
}

impl QueryPool {
    pub(crate) fn new(size: Size) -> Self {
        let (n, churn_epochs, updates, digest_ops) = match size {
            Size::Full => (110, 8, 512, 4096),
            Size::Tiny => (24, 2, 64, 64),
        };
        Self {
            n,
            churn_epochs,
            updates,
            digest_ops,
            tenant: None,
            next: 0,
            counts: Counts::default(),
        }
    }
}

impl Workload for QueryPool {
    fn digest_ops(&self) -> u64 {
        self.digest_ops
    }

    fn warmup_ops(&self) -> u64 {
        20_000
    }

    fn capacity(&self) -> usize {
        4_000_000
    }

    fn setup(&mut self, seed: u64) -> Result<SetupLayers, String> {
        self.tenant = None;
        self.next = 0;
        let mut gen = Gen::new(seed, 3);
        let cfg = GraphConfig::new(self.n).seed(gen.next_u64()).shards(2);
        let (telemetry, registry, graph) = tenant(NAME, cfg)?;
        let base = gen.graph(self.n, 0.3);
        let mut live = LiveSet::new(self.n);
        let load = live.load(&base, &mut gen);
        apply_all(&graph, &load, LOAD_CHUNK)?;
        for _ in 0..self.churn_epochs {
            let net = net_changes(live.len(), 0.01);
            let batch = live.churn(&mut gen, net, self.updates.saturating_sub(net) / 2);
            apply_all(&graph, &batch, 64)?;
        }
        let snap = graph.advance_epoch();
        if !live.matches(snap.net_edges()) {
            return Err("the frozen epoch does not hold the reference edges".into());
        }
        snap.forest();
        snap.oracle();
        let mix = QueryMix {
            cut: 0,
            ..QueryMix::read_heavy()
        };
        let load = LoadGen::new(self.n, mix, gen.next_u64()).hot_sources(HOT_SOURCES);
        let pool = QueryService::start(registry, 1);
        self.tenant = Some(Tenant {
            queue_wait: published_hist(&telemetry, "dsg_service_pool_queue_wait_nanos", &[])?,
            execute: published_hist(&telemetry, "dsg_service_pool_execute_nanos", &[])?,
            pool,
            snap,
            load,
        });
        Ok(Vec::new())
    }

    fn run(&mut self, m: &mut Measure, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let t = self.tenant.as_ref().ok_or("run before set-up")?;
        let traced = tracer.is_some();
        let (wait0, exec0) = (t.queue_wait.sum(), t.execute.sum());
        let pool_ops0 = t.execute.count();
        let oracle = t.snap.oracle();
        let cache0 = oracle.cache_stats();
        let mut log: Vec<Traced> = Vec::new();
        let first = self.next;
        while m.more() {
            let op = m.next_op();
            let query = t.load.query(self.next);
            self.next += 1;
            let sent = query.clone();
            let start = Instant::now();
            let result = t.pool.query_blocking(NAME, sent);
            let end = Instant::now();
            m.record(end - start, 1);
            match result {
                Ok(r) => m.check(op, &t.snap, &query, &r),
                Err(e) => m.fail(format!("op {op}: {query:?}: {e}")),
            }
            if traced {
                log.push(Traced { query, start, end });
            }
        }
        let Some(tracer) = tracer else { return Ok(()) };
        let c = &mut self.counts;
        let cache = oracle.cache_stats();
        let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
        c.cache_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        c.queue_wait_ns = t.queue_wait.sum() - wait0;
        c.pool_execute_ns = t.execute.sum() - exec0;
        c.pool_ops = t.execute.count() - pool_ops0;
        // Replay the same sequence on the pinned snapshot: the oracle's
        // FIFO cache sees the same access pattern, so execute times pair
        // with the round trips they were part of.
        for (i, rec) in log.iter().enumerate() {
            let started = Instant::now();
            let replayed = t.snap.execute(&rec.query);
            let ns = started.elapsed().as_nanos() as u64;
            if replayed.is_err() {
                m.fail(format!("replay of op {i}: {:?} failed", rec.query));
            }
            let slot = c.replay.entry(rec.query.variant_label()).or_default();
            *slot = (slot.0 + ns, slot.1 + 1);
            let mut tr = tracer.op(first + i as u64);
            let root = tr.span("service.pool_dispatch", None, rec.start, rec.end);
            tr.derived("service.execute", root, ns);
            tracer.finish(tr);
        }
        Ok(())
    }

    fn layers(&self, tracer: &Tracer) -> (BTreeMap<String, f64>, f64) {
        let selfs = tracer.mean_self_ns();
        let us = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / 1e3;
        let c = &self.counts;
        let mut out = BTreeMap::new();
        out.insert("service.execute_us".to_string(), us("service.execute"));
        out.insert(
            "service.pool_dispatch_us".to_string(),
            us("service.pool_dispatch"),
        );
        // A round trip is dispatch plus execute by definition, so nothing
        // is left unattributed on this workload.
        out.insert("query_pool.unattributed_us".to_string(), 0.0);
        let pool_ops = c.pool_ops.max(1) as f64;
        out.insert(
            "service.pool_queue_wait_us".to_string(),
            c.queue_wait_ns as f64 / pool_ops / 1e3,
        );
        out.insert(
            "service.pool_execute_us".to_string(),
            c.pool_execute_ns as f64 / pool_ops / 1e3,
        );
        for (label, (ns, ops)) in &c.replay {
            let mean = *ns as f64 / (*ops).max(1) as f64;
            out.insert(format!("service.execute_us.{label}"), mean / 1e3);
        }
        out.insert(
            "spanner.oracle_cache_hit_ratio".to_string(),
            c.cache_hit_ratio,
        );
        (out, tracer.mean_op_ns())
    }

    fn notes(&self, _m: &Measure) -> Vec<String> {
        let Some(t) = &self.tenant else {
            return Vec::new();
        };
        vec![format!(
            "tenant: n = {}, {} live edges, frozen epoch {}, pool of {} worker, one closed-loop client",
            self.n,
            t.snap.net_edges().num_edges(),
            t.snap.epoch(),
            t.pool.num_workers()
        )]
    }
}
