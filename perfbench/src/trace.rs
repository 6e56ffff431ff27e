//! Spans recorded from the benchmark's side of each public call.
//!
//! A workload times an operation with plain [`Instant`]s around the calls
//! it makes into each layer; in a traced run it then hands those instants
//! to an [`OpTrace`], which turns them into spans (name, start, end,
//! parent, operation id). Durations the program already publishes —
//! epoch phase histograms, artifact build histograms, `TenantRecovery`
//! phases — enter as *derived* child spans of the call they happened in.
//! A layer's self time is its spans' durations minus their children's, so
//! per operation the self times add back to the root span exactly; the
//! root's own self time is the workload's unattributed remainder.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// At most this many spans are kept for the span file; self times are
/// accumulated over every operation regardless.
const KEPT_SPANS: usize = 50_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `service.advance_epoch`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the parent span within the operation (`None` for the root).
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Whether the duration was read from a number the program publishes
    /// rather than timed here (its start is the parent's start).
    pub derived: bool,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one operation, built after the operation ran.
pub struct OpTrace {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl OpTrace {
    /// Adds a span timed by the benchmark; returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns: at(start),
            end_ns: at(end),
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Adds a child of `parent` whose duration the program reported. It
    /// is clamped to what the parent's other children leave, so a
    /// published figure can never make self time negative.
    pub fn derived(&mut self, name: &'static str, parent: usize, nanos: u64) -> usize {
        let room = self.spans[parent]
            .nanos()
            .saturating_sub(self.children_nanos(parent));
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + nanos.min(room),
            derived: true,
        });
        self.spans.len() - 1
    }

    fn children_nanos(&self, parent: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::nanos)
            .sum()
    }
}

/// Collects spans and per-layer self time across a traced run.
pub struct Tracer {
    origin: Instant,
    kept: Vec<Span>,
    self_ns: BTreeMap<&'static str, u64>,
    root_ns: u64,
    ops: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times are relative to now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            kept: Vec::new(),
            self_ns: BTreeMap::new(),
            root_ns: 0,
            ops: 0,
        }
    }

    /// Starts recording operation `op`.
    pub fn op(&self, op: u64) -> OpTrace {
        OpTrace {
            origin: self.origin,
            op,
            spans: Vec::new(),
        }
    }

    /// Folds a finished operation into the self-time totals. Span 0 must
    /// be the root.
    pub fn finish(&mut self, trace: OpTrace) {
        let spans = trace.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        for (s, kids) in spans.iter().zip(&child_ns) {
            *self.self_ns.entry(s.name).or_default() += s.nanos().saturating_sub(*kids);
        }
        self.root_ns += spans.first().map_or(0, Span::nanos);
        self.ops += 1;
        let room = KEPT_SPANS.saturating_sub(self.kept.len());
        self.kept.extend(spans.into_iter().take(room));
    }

    /// Operations folded in.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Mean root-span duration per operation, nanoseconds.
    pub fn mean_op_ns(&self) -> f64 {
        self.root_ns as f64 / self.ops.max(1) as f64
    }

    /// Mean self time per operation of every layer seen, nanoseconds.
    pub fn mean_self_ns(&self) -> BTreeMap<&'static str, f64> {
        let ops = self.ops.max(1) as f64;
        self.self_ns
            .iter()
            .map(|(&name, &ns)| (name, ns as f64 / ops))
            .collect()
    }

    /// Whether the layer self times add back to the root durations.
    pub fn closes(&self) -> bool {
        self.self_ns.values().sum::<u64>() == self.root_ns
    }

    /// Writes the kept spans as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns\tderived")?;
        let mut first = 0;
        for (i, s) in self.kept.iter().enumerate() {
            if s.parent.is_none() {
                first = i;
            }
            let parent = s
                .parent
                .map_or("-".to_string(), |p| (first + p).to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op, i, parent, s.name, s.start_ns, s.end_ns, s.derived
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_add_back_to_the_root() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(10);
        let t2 = t0 + Duration::from_micros(60);
        let t3 = t0 + Duration::from_micros(100);
        let mut op = tracer.op(0);
        let root = op.span("root", None, t0, t3);
        let call = op.span("service.call", Some(root), t1, t2);
        op.derived("engine.part", call, 30_000);
        op.derived("agm.too_big", call, 1_000_000);
        tracer.finish(op);
        let selfs = tracer.mean_self_ns();
        assert_eq!(selfs["root"], 50_000.0);
        assert_eq!(selfs["engine.part"], 30_000.0);
        assert_eq!(selfs["agm.too_big"], 20_000.0);
        assert_eq!(selfs["service.call"], 0.0);
        assert!(tracer.closes());
    }
}
