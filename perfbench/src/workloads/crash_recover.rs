//! `crash_recover`: a durable tenant is reopened from its checkpoint plus
//! WAL tail. One operation restores the pristine tenant directory
//! (untimed), then times [`DurableRegistry::open`] up to the first served
//! `Connectivity` answer. Nothing inside the timed region syncs to disk.

use super::{ms_since, published_hist};
use crate::gen::{net_changes, Gen, LiveSet};
use crate::trace::Tracer;
use crate::{Config, Measure, SetupLayers, Size, Workload};
use dsg_service::{GraphConfig, Query};
use dsg_store::{DurableRegistry, StoreOptions, SyncPolicy, CHECKPOINT_FILE};
use dsg_telemetry::MetricRegistry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const TENANT: &str = "durable";

#[derive(Default)]
struct Counts {
    records_replayed: u64,
    ops: u64,
}

pub(crate) struct CrashRecover {
    n: usize,
    epochs: usize,
    updates: usize,
    digest_ops: u64,
    work: PathBuf,
    /// The live edges and epoch a recovered tenant must serve.
    expected: Option<(LiveSet, u64)>,
    checkpoint_bytes: u64,
    wal_tail_bytes: u64,
    counts: Counts,
}

fn options() -> StoreOptions {
    StoreOptions::default().sync(SyncPolicy::Manual)
}

fn io<'a>(what: &'a str, path: &'a Path) -> impl FnOnce(std::io::Error) -> String + 'a {
    move |e| format!("{what} {}: {e}", path.display())
}

fn fail(what: &'static str) -> impl Fn(dsg_store::StoreError) -> String {
    move |e| format!("{what}: {e}")
}

/// Copies the regular files of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(io("removing", to))?;
    }
    std::fs::create_dir_all(to).map_err(io("creating", to))?;
    for entry in std::fs::read_dir(from).map_err(io("listing", from))? {
        let entry = entry.map_err(io("listing", from))?;
        let src = entry.path();
        std::fs::copy(&src, to.join(entry.file_name())).map_err(io("copying", &src))?;
    }
    Ok(())
}

fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(io("listing", dir))? {
        let entry = entry.map_err(io("listing", dir))?;
        if keep(&entry.file_name().to_string_lossy()) {
            total += entry
                .metadata()
                .map_err(io("reading", &entry.path()))?
                .len();
        }
    }
    Ok(total)
}

impl CrashRecover {
    pub(crate) fn new(cfg: &Config) -> Result<Self, String> {
        let (n, epochs, updates, digest_ops) = match cfg.size {
            Size::Full => (80, 8, 256, 8),
            Size::Tiny => (20, 4, 32, 2),
        };
        Ok(Self {
            n,
            epochs,
            updates,
            digest_ops,
            work: cfg.out_dir.join(format!("crash-{}", std::process::id())),
            expected: None,
            checkpoint_bytes: 0,
            wal_tail_bytes: 0,
            counts: Counts::default(),
        })
    }

    fn root(&self) -> PathBuf {
        self.work.join("root")
    }

    fn pristine(&self) -> PathBuf {
        self.work.join("pristine")
    }
}

impl Workload for CrashRecover {
    fn digest_ops(&self) -> u64 {
        self.digest_ops
    }

    fn warmup_ops(&self) -> u64 {
        2
    }

    fn capacity(&self) -> usize {
        100_000
    }

    fn setup(&mut self, seed: u64) -> Result<SetupLayers, String> {
        self.expected = None;
        self.cleanup();
        let root = self.root();
        let telemetry = Arc::new(MetricRegistry::new());
        let reg = DurableRegistry::open_with_telemetry(&root, options(), Arc::clone(&telemetry))
            .map_err(|e| format!("open: {e}"))?;
        let mut gen = Gen::new(seed, 4);
        let cfg = GraphConfig::new(self.n).seed(gen.next_u64()).shards(2);
        let g = reg
            .create(TENANT, cfg)
            .map_err(|e| format!("create: {e}"))?;
        let base = gen.graph(self.n, 0.3);
        let mut live = LiveSet::new(self.n);
        for chunk in live.load(&base, &mut gen).chunks(256) {
            g.apply(chunk).map_err(fail("apply"))?;
        }
        g.advance_epoch().map_err(fail("advance"))?;
        let mut checkpoint_ms = 0.0;
        for e in 0..self.epochs {
            if e == self.epochs * 3 / 4 {
                let t = Instant::now();
                g.checkpoint().map_err(fail("checkpoint"))?;
                checkpoint_ms = ms_since(t);
            }
            let net = net_changes(live.len(), 0.01);
            let batch = live.churn(&mut gen, net, self.updates.saturating_sub(net) / 2);
            for chunk in batch.chunks(64) {
                g.apply(chunk).map_err(fail("apply"))?;
            }
            g.advance_epoch().map_err(fail("advance"))?;
        }
        g.sync().map_err(fail("sync"))?;
        let epoch = g.snapshot().epoch();
        let append = published_hist(
            &telemetry,
            "dsg_store_wal_append_nanos",
            &[("graph", TENANT)],
        )?;
        let append_us = append.sum() as f64 / append.count().max(1) as f64 / 1e3;
        drop(g);
        drop(reg);
        let tenant_dir = root.join(TENANT);
        copy_dir(&tenant_dir, &self.pristine().join(TENANT))?;
        self.checkpoint_bytes = dir_bytes(&tenant_dir, |f| f == CHECKPOINT_FILE)?;
        self.wal_tail_bytes = dir_bytes(&tenant_dir, |f| f.starts_with("wal-"))?;
        self.expected = Some((live, epoch));
        Ok(vec![
            ("store.wal_append_us", append_us),
            ("store.checkpoint_write_ms", checkpoint_ms),
        ])
    }

    fn run(&mut self, m: &mut Measure, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
        let (live, epoch) = self.expected.as_ref().ok_or("run before set-up")?;
        let (root, pristine) = (self.root(), self.pristine());
        if tracer.is_some() {
            self.counts = Counts::default();
        }
        while m.more() {
            let op = m.next_op();
            copy_dir(&pristine.join(TENANT), &root.join(TENANT))?;
            let telemetry = Arc::new(MetricRegistry::new());
            let t0 = Instant::now();
            let opened =
                DurableRegistry::open_with_telemetry(&root, options(), Arc::clone(&telemetry));
            let t1 = Instant::now();
            let answered = opened.map_err(|e| format!("open: {e}")).and_then(|reg| {
                let g = reg.get(TENANT).map_err(|e| format!("get: {e}"))?;
                let answer = g.served().query_pinned(&Query::Connectivity);
                Ok((reg, answer))
            });
            let t2 = Instant::now();
            m.record(t2 - t0, 1);
            let (reg, (snap, result)) = match answered {
                Ok(answered) => answered,
                Err(e) => {
                    m.fail(format!("op {op}: {e}"));
                    break;
                }
            };
            let report = reg
                .recovery_report()
                .first()
                .cloned()
                .ok_or("no tenant recovered")?;
            if !live.matches(snap.net_edges()) || snap.epoch() != *epoch {
                m.fail(format!(
                    "op {op}: recovered epoch {} lost edges",
                    snap.epoch()
                ));
            }
            if !report.quality.clean() {
                m.fail(format!(
                    "op {op}: post-recovery self-audit found {:?}",
                    report.quality
                ));
            }
            match &result {
                Ok(r) => m.check(op, &snap, &Query::Connectivity, r),
                Err(e) => m.fail(format!("op {op}: connectivity: {e}")),
            }
            m.digest_extra(
                op,
                &format!(
                    "epoch {} replayed {} torn {}",
                    snap.epoch(),
                    report.records_replayed,
                    report.torn_tail
                ),
            );
            if let Some(tracer) = tracer.as_deref_mut() {
                let build = |a: &str| {
                    published_hist(
                        &telemetry,
                        "dsg_service_artifact_build_nanos",
                        &[("artifact", a), ("graph", TENANT)],
                    )
                    .map(|h| h.sum())
                };
                let mut tr = tracer.op(op);
                let root = tr.span("crash_recover.unattributed", None, t0, t2);
                let nanos = |d: std::time::Duration| d.as_nanos() as u64;
                tr.derived("store.checkpoint_load", root, nanos(report.checkpoint_load));
                tr.derived("store.restore", root, nanos(report.restore));
                tr.derived("store.replay", root, nanos(report.replay));
                tr.derived("store.wal_open", root, nanos(report.wal_open));
                tr.derived("agm.forest", root, build("forest")?);
                tr.derived("spanner.oracle", root, build("oracle")?);
                tr.span("service.query", Some(root), t1, t2);
                tracer.finish(tr);
                self.counts.ops += 1;
                self.counts.records_replayed += report.records_replayed as u64;
            }
        }
        Ok(())
    }

    fn layers(&self, tracer: &Tracer) -> (BTreeMap<String, f64>, f64) {
        let mut out: BTreeMap<String, f64> = tracer
            .mean_self_ns()
            .into_iter()
            .map(|(name, ns)| (format!("{name}_ms"), ns / 1e6))
            .collect();
        let ops = self.counts.ops.max(1) as f64;
        out.insert(
            "store.records_replayed".into(),
            self.counts.records_replayed as f64 / ops,
        );
        out.insert(
            "store.checkpoint_bytes".into(),
            self.checkpoint_bytes as f64,
        );
        out.insert("store.wal_tail_bytes".into(), self.wal_tail_bytes as f64);
        (out, tracer.mean_op_ns())
    }

    fn notes(&self, _m: &Measure) -> Vec<String> {
        vec![format!(
            "tenant: n = {}, checkpoint {} bytes, WAL tail {} bytes, epoch {}",
            self.n,
            self.checkpoint_bytes,
            self.wal_tail_bytes,
            self.expected.as_ref().map_or(0, |e| e.1)
        )]
    }

    fn cleanup(&mut self) {
        if self.work.exists() {
            let _ = std::fs::remove_dir_all(&self.work);
        }
    }
}
