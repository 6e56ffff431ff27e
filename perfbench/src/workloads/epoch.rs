//! `ingest_drain` and `churn_refresh`: one operation applies a batch of
//! churn, advances the epoch, and answers queries from the advanced epoch.
//! They share the loop and differ in size, batch shape, queries, and which
//! artifacts the set-up builds.

use super::{apply_all, tenant, EpochReading, EpochSeries, LOAD_CHUNK};
use crate::gen::{net_changes, Gen, LiveSet};
use crate::trace::Tracer;
use crate::{Measure, SetupLayers, Size, Workload};
use dsg_graph::Vertex;
use dsg_service::{GraphConfig, Query, ServedGraph};
use dsg_util::SpaceUsage;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Net churn per epoch, as a share of live edges.
const CHURN: f64 = 0.01;
/// Edge density of the base graphs.
const DENSITY: f64 = 0.3;
/// Updates per `apply` call.
const APPLY_CHUNK: usize = 64;

/// Layer span names of the three artifacts, in `EpochSeries::build` order.
const ARTIFACT_SPANS: [&str; 3] = ["agm.forest", "spanner.oracle", "sparsifier.cut"];

struct Shape {
    name: &'static str,
    n: usize,
    /// Updates per operation; whatever the net churn leaves is filled
    /// with insert/delete pairs that cancel within the batch.
    updates: usize,
    /// Also answer a distance and a cut query, and build every artifact
    /// in set-up.
    all_artifacts: bool,
    digest_ops: u64,
    /// Rebuild the tenant, with a fresh sketch seed and base graph, after
    /// this many epochs, so every run measures the same range of epoch
    /// ages however many operations fit into it, averaged over several
    /// tenants.
    cycle: Option<u64>,
}

struct Tenant {
    graph: Arc<ServedGraph>,
    series: EpochSeries,
    live: LiveSet,
    gen: Gen,
    /// Epochs advanced since the tenant was built.
    age: u64,
}

impl Tenant {
    /// Drops the tenant, keeping its generator.
    fn into_gen(self) -> Gen {
        self.gen
    }
}

/// Traced-run counters beyond span times.
#[derive(Default)]
struct Counts {
    ops: u64,
    updates: u64,
    apply_ns: u64,
    routed: u64,
    cancelled: u64,
    delta_changes: u64,
    sketch_bytes: u64,
    incremental: u64,
    full: u64,
    /// Cut patch time and count in the first and second half of a cycle.
    cut_ns: [u64; 2],
    cut_ops: [u64; 2],
}

pub(crate) struct EpochWorkload {
    shape: Shape,
    tenant: Option<Tenant>,
    counts: Counts,
}

impl EpochWorkload {
    pub(crate) fn ingest_drain(size: Size) -> Self {
        let (n, updates, digest_ops) = match size {
            Size::Full => (110, 512, 32),
            Size::Tiny => (24, 64, 4),
        };
        Self::new(Shape {
            name: "ingest_drain",
            n,
            updates,
            all_artifacts: false,
            digest_ops,
            cycle: None,
        })
    }

    pub(crate) fn churn_refresh(size: Size) -> Self {
        let (n, digest_ops) = match size {
            Size::Full => (40, 32),
            Size::Tiny => (14, 4),
        };
        Self::new(Shape {
            name: "churn_refresh",
            n,
            updates: 0,
            all_artifacts: true,
            digest_ops,
            cycle: Some(match size {
                Size::Full => 32,
                Size::Tiny => 6,
            }),
        })
    }

    fn new(shape: Shape) -> Self {
        Self {
            shape,
            tenant: None,
            counts: Counts::default(),
        }
    }

    /// Builds a tenant with a sketch seed and a base graph drawn from
    /// `gen`, with the set-up's artifacts built. Returns it with the
    /// artifacts' first-build times.
    fn build(&self, mut gen: Gen) -> Result<(Tenant, SetupLayers), String> {
        let shape = &self.shape;
        let cfg = GraphConfig::new(shape.n).seed(gen.next_u64()).shards(2);
        let base = gen.graph(shape.n, DENSITY);
        let mut live = LiveSet::new(shape.n);
        let load = live.load(&base, &mut gen);
        let (telemetry, _registry, graph) = tenant(shape.name, cfg)?;
        let series = EpochSeries::new(&telemetry, shape.name, cfg.shards)?;
        apply_all(&graph, &load, LOAD_CHUNK)?;
        let snap = graph.advance_epoch();
        if !live.matches(snap.net_edges()) {
            return Err("the loaded epoch does not hold the base graph".into());
        }
        let mut layers = Vec::new();
        let t = Instant::now();
        snap.forest();
        layers.push(("agm.forest_build_ms", super::ms_since(t)));
        if shape.all_artifacts {
            let t = Instant::now();
            snap.oracle();
            layers.push(("spanner.oracle_build_ms", super::ms_since(t)));
            let t = Instant::now();
            snap.cut_data();
            layers.push(("sparsifier.cut_build_ms", super::ms_since(t)));
        }
        let tenant = Tenant {
            graph,
            series,
            live,
            gen,
            age: 0,
        };
        Ok((tenant, layers))
    }

    fn queries(&self, gen: &mut Gen) -> Vec<Query> {
        let mut queries = vec![Query::Connectivity];
        if self.shape.all_artifacts {
            let n = self.shape.n;
            let u = gen.below(n) as Vertex;
            let v = ((u as usize + 1 + gen.below(n - 1)) % n) as Vertex;
            queries.push(Query::Distance(u, v));
            let mut side: Vec<Vertex> = Vec::new();
            while side.is_empty() || side.len() == n {
                side = (0..n as Vertex).filter(|_| gen.below(2) == 0).collect();
            }
            queries.push(Query::CutEstimate(side));
        }
        queries
    }
}

impl Workload for EpochWorkload {
    fn digest_ops(&self) -> u64 {
        self.shape.digest_ops
    }

    fn warmup_ops(&self) -> u64 {
        4
    }

    fn capacity(&self) -> usize {
        200_000
    }

    fn setup(&mut self, seed: u64) -> Result<SetupLayers, String> {
        self.tenant = None;
        let shape = &self.shape;
        let gen = Gen::new(seed, if shape.all_artifacts { 2 } else { 1 });
        let (tenant, layers) = self.build(gen)?;
        self.tenant = Some(tenant);
        Ok(layers)
    }

    fn run(&mut self, m: &mut Measure, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
        let mut tenant = self.tenant.take().ok_or("run before set-up")?;
        if tracer.is_some() {
            self.counts = Counts::default();
        }
        while m.more() {
            if self.shape.cycle.is_some_and(|c| tenant.age == c) {
                // The old tenant is gone before the next is built, so two
                // never hold memory at once.
                let gen = tenant.into_gen();
                tenant = self.build(gen)?.0;
            }
            self.one_op(&mut tenant, m, tracer.as_deref_mut());
        }
        self.tenant = Some(tenant);
        Ok(())
    }

    fn layers(&self, tracer: &Tracer) -> (BTreeMap<String, f64>, f64) {
        let mut out: BTreeMap<String, f64> = tracer
            .mean_self_ns()
            .into_iter()
            .map(|(name, ns)| (format!("{name}_ms"), ns / 1e6))
            .collect();
        let c = &self.counts;
        let ops = c.ops.max(1) as f64;
        out.insert("graph.delta_changes".into(), c.delta_changes as f64 / ops);
        if self.shape.all_artifacts {
            out.insert(
                "service.patch_ratio".into(),
                c.incremental as f64 / (c.incremental + c.full).max(1) as f64,
            );
            let mean = |h: usize| c.cut_ns[h] as f64 / c.cut_ops[h].max(1) as f64;
            out.insert(
                "sparsifier.cut_growth_pct".into(),
                (mean(1) / mean(0) - 1.0) * 100.0,
            );
        } else {
            out.insert("engine.updates_routed".into(), c.routed as f64 / ops);
            out.insert("graph.cancellations".into(), c.cancelled as f64 / ops);
            out.insert("agm.sketch_bytes".into(), c.sketch_bytes as f64);
            out.insert(
                "service.enqueue_updates_per_s".into(),
                c.updates as f64 / (c.apply_ns as f64 / 1e9).max(1e-12),
            );
        }
        (out, tracer.mean_op_ns())
    }

    fn notes(&self, m: &Measure) -> Vec<String> {
        let t = self.tenant.as_ref();
        let mut notes = vec![format!(
            "tenant: n = {}, {} live edges, epoch {}",
            self.shape.n,
            t.map_or(0, |t| t.live.len()),
            t.map_or(0, |t| t.graph.snapshot().epoch())
        )];
        if !self.shape.all_artifacts {
            let secs = m.op_ns as f64 / 1e9;
            notes.push(format!(
                "ingest_updates_per_s: {:.1} 1/s ({} updates per operation, drained and answered)",
                (m.len * self.shape.updates) as f64 / secs.max(1e-12),
                self.shape.updates
            ));
        }
        notes
    }
}

impl EpochWorkload {
    /// One operation, timed from the first `apply` to the last answer
    /// from the advanced epoch; checks run after the clock stops.
    fn one_op(&mut self, t: &mut Tenant, m: &mut Measure, tracer: Option<&mut Tracer>) {
        let op = m.next_op();
        let net = net_changes(t.live.len(), CHURN);
        let pairs = self.shape.updates.saturating_sub(net) / 2;
        let batch = t.live.churn(&mut t.gen, net, pairs);
        let queries = self.queries(&mut t.gen);
        let traced = tracer.is_some();
        let read = |s: &EpochSeries| {
            if traced {
                s.read()
            } else {
                EpochReading::default()
            }
        };
        let stats0 = traced.then(|| t.graph.epoch_stats());
        t.age += 1;

        let r0 = read(&t.series);
        let t0 = Instant::now();
        let mut failure = None;
        for c in batch.chunks(APPLY_CHUNK) {
            if let Err(e) = t.graph.apply(c) {
                failure = Some(format!("op {op}: apply: {e}"));
                break;
            }
        }
        let t1 = Instant::now();
        let r1 = read(&t.series);
        let t2 = Instant::now();
        let snap = t.graph.advance_epoch();
        let t3 = Instant::now();
        let r2 = read(&t.series);
        let mut answers = Vec::with_capacity(queries.len());
        for q in &queries {
            let before = read(&t.series);
            let ta = Instant::now();
            let (answering, result) = t.graph.query_pinned(q);
            let tb = Instant::now();
            answers.push((answering, result, before, read(&t.series), ta, tb));
        }
        let end = answers.last().map_or(t3, |a| a.5);
        m.record(end - t0, queries.len() as u64);

        if let Some(f) = failure {
            return m.fail(f);
        }
        if !t.live.matches(snap.net_edges()) {
            return m.fail(format!(
                "op {op}: epoch {} does not hold the reference edges",
                snap.epoch()
            ));
        }
        for (q, (answering, result, ..)) in queries.iter().zip(&answers) {
            if !Arc::ptr_eq(answering, &snap) {
                return m.fail(format!(
                    "op {op}: {q:?} was not answered by the advanced epoch"
                ));
            }
            match result {
                Ok(r) => m.check(op, &snap, q, r),
                Err(e) => return m.fail(format!("op {op}: {q:?}: {e}")),
            }
        }

        let Some(tracer) = tracer else { return };
        let mut tr = tracer.op(op);
        let root_name = if self.shape.all_artifacts {
            "churn_refresh.unattributed"
        } else {
            "ingest_drain.unattributed"
        };
        let root = tr.span(root_name, None, t0, end);
        let mut cut_ns = 0;
        let apply = tr.span("service.apply", Some(root), t0, t1);
        tr.derived("engine.send_wait", apply, r1.since(&r0).send_wait);
        let adv = tr.span("service.advance_epoch", Some(root), t2, t3);
        let d = r2.since(&r1);
        tr.derived("engine.send_wait", adv, d.send_wait);
        tr.derived("engine.fork", adv, d.fork);
        tr.derived("engine.merge", adv, d.merge);
        tr.derived("graph.seal", adv, d.seal);
        for (_, _, before, after, ta, tb) in &answers {
            let span = tr.span("service.query", Some(root), *ta, *tb);
            let built = after.since(before).build;
            for (name, ns) in ARTIFACT_SPANS.iter().zip(built) {
                if ns > 0 {
                    tr.derived(name, span, ns);
                }
            }
            cut_ns += built[2];
        }
        tracer.finish(tr);
        let total = read(&t.series).since(&r0);
        let c = &mut self.counts;
        c.ops += 1;
        c.updates += batch.len() as u64;
        c.apply_ns += (t1 - t0).as_nanos() as u64;
        c.routed += total.routed;
        c.cancelled += total.cancelled;
        if let Some(prev) = snap.prev() {
            c.delta_changes += snap.net_edges().diff(prev.net_edges()).num_changes() as u64;
        }
        c.sketch_bytes = snap.sketch().space_bytes() as u64;
        if let (Some(before), after) = (stats0, t.graph.epoch_stats()) {
            c.incremental += after.incremental_builds - before.incremental_builds;
            c.full += after.full_builds - before.full_builds;
        }
        if let Some(cycle) = self.shape.cycle {
            let half = usize::from(t.age * 2 > cycle);
            c.cut_ns[half] += cut_ns;
            c.cut_ops[half] += 1;
        }
    }
}
