//! What the benchmark measures: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics, and the layer → end-to-end map
//! that says which numbers a change to each layer should move.
//!
//! `BENCHMARK.json` at the repository root and `perfbench/spec.json` are
//! both rendered from these tables (`--emit benchmark` / `--emit spec`);
//! the smoke test fails if either file drifts from them.

/// A workload: name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "ingest_drain",
        why: "512-update epochs on the G(110,0.3) tenant, timed until drained and answered: sketch update, routing and fork dominate",
    },
    WorkloadSpec {
        name: "churn_refresh",
        why: "1% churn per epoch on G(40,0.3) with forest, oracle and KP12 cut patched before answering: the artifact-write path",
    },
    WorkloadSpec {
        name: "query_pool",
        why: "closed-loop read-heavy queries through a one-worker pool on a frozen epoch: pool hand-off and oracle cache misses",
    },
    WorkloadSpec {
        name: "crash_recover",
        why: "reopen a durable G(80,0.3) tenant (checkpoint plus WAL tail) up to its first answer: the store layer",
    },
];

/// Run length of one benchmark invocation, seconds.
pub const RUN_SECONDS: u32 = 20;

/// A seed never used while tuning the benchmark, for confirming a claim.
pub const HELD_OUT_SEED: u64 = 7_919_411;

/// The seeds used while tuning.
pub const TUNING_SEEDS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// An end-to-end metric, reported by every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        meaning: "median of three full set-ups of the workload's tenant",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        meaning: "median time of one workload operation",
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        meaning: "90th-percentile time of one workload operation",
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        meaning: "served answers per second of operation time (ingest_drain: x512 gives ingest_updates_per_s)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
        meaning: "peak resident set of the benchmark process",
    },
];

/// A per-layer metric of the traced run, with the end-to-end figures a
/// change to its layer should move and the workloads it should leave
/// alone.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `(workload, end-to-end metric)` pairs the layer should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads whose end-to-end metrics a change to this layer should
    /// not move.
    pub holds: &'static [&'static str],
}

const INGEST: &[(&str, &str)] = &[
    ("ingest_drain", "latency_p50_ms"),
    ("ingest_drain", "queries_per_s"),
];
const INGEST_AND_REPLAY: &[(&str, &str)] = &[
    ("ingest_drain", "latency_p50_ms"),
    ("ingest_drain", "queries_per_s"),
    ("crash_recover", "latency_p50_ms"),
];
const REFRESH: &[(&str, &str)] = &[
    ("churn_refresh", "latency_p50_ms"),
    ("churn_refresh", "latency_p90_ms"),
];
const REFRESH_AND_RECOVER: &[(&str, &str)] = &[
    ("churn_refresh", "latency_p50_ms"),
    ("churn_refresh", "latency_p90_ms"),
    ("crash_recover", "latency_p50_ms"),
];
const REFRESH_SETUP: &[(&str, &str)] = &[("churn_refresh", "setup_s")];
const POOL: &[(&str, &str)] = &[
    ("query_pool", "latency_p50_ms"),
    ("query_pool", "queries_per_s"),
];
const POOL_TAIL: &[(&str, &str)] = &[("query_pool", "latency_p90_ms")];
const RECOVER: &[(&str, &str)] = &[
    ("crash_recover", "latency_p50_ms"),
    ("crash_recover", "latency_p90_ms"),
];
const RECOVER_SETUP: &[(&str, &str)] = &[("crash_recover", "setup_s")];
const NONE: &[(&str, &str)] = &[];

const NOT_POOL: &[&str] = &["query_pool"];
const NOT_INGEST_POOL: &[&str] = &["ingest_drain", "query_pool"];
const ONLY_POOL: &[&str] = &["ingest_drain", "churn_refresh", "crash_recover"];
const NOT_STORE: &[&str] = &["ingest_drain", "churn_refresh", "query_pool"];
const EVERYWHERE: &[&str] = &[];

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr, $moves:expr, $holds:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
            holds: $holds,
        }
    };
}

pub const PER_LAYER: [Layer; 44] = [
    // ingest_drain (and the epoch path of churn_refresh)
    layer!("service.apply_ms", "ms", "lower", INGEST, NOT_POOL),
    layer!("service.advance_epoch_ms", "ms", "lower", INGEST, NOT_POOL),
    layer!("service.query_ms", "ms", "lower", INGEST, NOT_POOL),
    layer!("engine.send_wait_ms", "ms", "lower", INGEST, NOT_POOL),
    layer!("engine.fork_ms", "ms", "lower", INGEST_AND_REPLAY, NOT_POOL),
    layer!("engine.merge_ms", "ms", "lower", INGEST, NOT_POOL),
    layer!("graph.seal_ms", "ms", "lower", INGEST, NOT_POOL),
    layer!("agm.forest_ms", "ms", "lower", INGEST, NOT_POOL),
    layer!(
        "ingest_drain.unattributed_ms",
        "ms",
        "lower",
        INGEST,
        NOT_POOL
    ),
    layer!("engine.updates_routed", "count", "lower", INGEST, NOT_POOL),
    layer!("graph.cancellations", "count", "lower", INGEST, NOT_POOL),
    layer!("graph.delta_changes", "count", "lower", NONE, EVERYWHERE),
    layer!("agm.sketch_bytes", "bytes", "lower", INGEST, NOT_POOL),
    layer!(
        "service.enqueue_updates_per_s",
        "1/s",
        "higher",
        INGEST,
        NOT_POOL
    ),
    // churn_refresh
    layer!(
        "spanner.oracle_ms",
        "ms",
        "lower",
        REFRESH_AND_RECOVER,
        &["ingest_drain"]
    ),
    layer!("sparsifier.cut_ms", "ms", "lower", REFRESH, NOT_INGEST_POOL),
    layer!(
        "sparsifier.cut_growth_pct",
        "%",
        "lower",
        REFRESH,
        NOT_INGEST_POOL
    ),
    layer!(
        "service.patch_ratio",
        "ratio",
        "higher",
        REFRESH,
        NOT_INGEST_POOL
    ),
    layer!(
        "churn_refresh.unattributed_ms",
        "ms",
        "lower",
        REFRESH,
        NOT_INGEST_POOL
    ),
    layer!(
        "agm.forest_build_ms",
        "ms",
        "lower",
        REFRESH_SETUP,
        NOT_POOL
    ),
    layer!(
        "spanner.oracle_build_ms",
        "ms",
        "lower",
        REFRESH_SETUP,
        &["ingest_drain"]
    ),
    layer!(
        "sparsifier.cut_build_ms",
        "ms",
        "lower",
        REFRESH_SETUP,
        NOT_INGEST_POOL
    ),
    // query_pool
    layer!("service.execute_us", "us", "lower", POOL, ONLY_POOL),
    layer!("service.pool_dispatch_us", "us", "lower", POOL, ONLY_POOL),
    layer!("service.pool_queue_wait_us", "us", "lower", POOL, ONLY_POOL),
    layer!("service.pool_execute_us", "us", "lower", POOL, ONLY_POOL),
    layer!("query_pool.unattributed_us", "us", "lower", POOL, ONLY_POOL),
    layer!(
        "service.execute_us.connectivity",
        "us",
        "lower",
        POOL_TAIL,
        ONLY_POOL
    ),
    layer!(
        "service.execute_us.same_component",
        "us",
        "lower",
        POOL_TAIL,
        ONLY_POOL
    ),
    layer!(
        "service.execute_us.distance",
        "us",
        "lower",
        POOL_TAIL,
        ONLY_POOL
    ),
    layer!(
        "service.execute_us.is_far",
        "us",
        "lower",
        POOL_TAIL,
        ONLY_POOL
    ),
    layer!(
        "service.execute_us.stats",
        "us",
        "lower",
        POOL_TAIL,
        ONLY_POOL
    ),
    layer!(
        "spanner.oracle_cache_hit_ratio",
        "ratio",
        "higher",
        POOL_TAIL,
        ONLY_POOL
    ),
    // crash_recover
    layer!(
        "store.checkpoint_load_ms",
        "ms",
        "lower",
        RECOVER,
        NOT_STORE
    ),
    layer!("store.restore_ms", "ms", "lower", RECOVER, NOT_STORE),
    layer!("store.replay_ms", "ms", "lower", RECOVER, NOT_STORE),
    layer!("store.wal_open_ms", "ms", "lower", RECOVER, NOT_STORE),
    layer!(
        "crash_recover.unattributed_ms",
        "ms",
        "lower",
        RECOVER,
        NOT_STORE
    ),
    layer!(
        "store.records_replayed",
        "count",
        "lower",
        RECOVER,
        NOT_STORE
    ),
    layer!(
        "store.checkpoint_bytes",
        "bytes",
        "lower",
        RECOVER,
        NOT_STORE
    ),
    layer!("store.wal_tail_bytes", "bytes", "lower", RECOVER, NOT_STORE),
    layer!(
        "store.wal_append_us",
        "us",
        "lower",
        RECOVER_SETUP,
        NOT_STORE
    ),
    layer!(
        "store.checkpoint_write_ms",
        "ms",
        "lower",
        RECOVER_SETUP,
        NOT_STORE
    ),
    // every workload
    layer!("trace.overhead_pct", "%", "lower", NONE, EVERYWHERE),
];

/// The ROADMAP changes this benchmark is meant to judge, with the
/// workloads each should improve and those it should leave unchanged.
pub const PREDICTIONS: [(&str, &str, &str); 4] = [
    (
        "AGM hashing / batched sketch updates",
        "ingest_drain (engine.fork_ms) and crash_recover (store.replay_ms)",
        "query_pool",
    ),
    (
        "KP12 filter evaluation and patch scope",
        "churn_refresh latency_p50_ms, latency_p90_ms and setup_s",
        "ingest_drain, query_pool",
    ),
    (
        "Sketch-from-segment (sketch only the sealed delta)",
        "ingest_drain latency and peak_rss_mb",
        "crash_recover must not regress",
    ),
    ("Panic guards", "nothing", "query_pool must not move"),
];

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn join(items: impl IntoIterator<Item = String>, indent: &str) -> String {
    let items: Vec<String> = items.into_iter().collect();
    if items.is_empty() {
        return "[]".to_string();
    }
    format!(
        "[\n{indent}  {}\n{indent}]",
        items.join(&format!(",\n{indent}  "))
    )
}

/// The command that runs the benchmark, relative to the repository root.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perfbench",
    "--",
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)));
    let e2e = END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better),
            m.bound
        )
    });
    let layers = PER_LAYER.iter().map(|m| {
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better)
        )
    });
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        join(workloads, "  "),
        join(e2e, "  "),
        join(layers, "  "),
    )
}

/// The contents of `perfbench/spec.json`: the layer map, the predictions
/// and the seeds, which `BENCHMARK.json` has no room for.
pub fn spec_json() -> String {
    let pair =
        |(w, m): &(&str, &str)| format!("{{\"workload\": {}, \"metric\": {}}}", quote(w), quote(m));
    let layers = PER_LAYER.iter().map(|l| {
        format!(
            "{{\"layer\": {}, \"unit\": {}, \"moves\": {}, \"should_not_move\": {}}}",
            quote(l.name),
            quote(l.unit),
            join(l.moves.iter().map(pair), "    "),
            join(l.holds.iter().map(|w| quote(w)), "    "),
        )
    });
    let e2e = END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": {}, \"meaning\": {}}}",
            quote(m.name),
            quote(m.meaning)
        )
    });
    let predictions = PREDICTIONS.iter().map(|(change, improves, holds)| {
        format!(
            "{{\"change\": {}, \"should_improve\": {}, \"should_not_move\": {}}}",
            quote(change),
            quote(improves),
            quote(holds)
        )
    });
    let seeds: Vec<String> = TUNING_SEEDS.iter().map(u64::to_string).collect();
    format!(
        "{{\n  \"held_out_seed\": {},\n  \"tuning_seeds\": [{}],\n  \"end_to_end\": {},\n  \"layers\": {},\n  \"predictions\": {}\n}}\n",
        HELD_OUT_SEED,
        seeds.join(", "),
        join(e2e, "  "),
        join(layers, "  "),
        join(predictions, "  "),
    )
}
