//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `../BENCHMARK.json`
//! states the same tables for the driver; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: measured with tracing off, gated by `bound`
/// (the share of the parent's median by which it may get worse).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// One per-layer metric: measured in the traced run, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (README.md defines each).
/// The timing bounds are the widest the driver allows: on the shared host
/// this was written on, whole minutes run 15-25% slow (README.md, "Measured
/// on this machine"), and a tighter bound would fail A/A.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_us_p50", "us", Lower, 0.25),
    e2e("query_us_p95", "us", Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("recall_at_10", "ratio", Higher, 0.05),
    e2e("ratio", "ratio", Lower, 0.005),
    e2e("index_bytes_per_point", "B", Lower, 0.01),
    e2e("insert_us_p50", "us", Lower, 0.25),
    e2e("remove_us_p50", "us", Lower, 0.25),
    e2e("save_s", "s", Lower, 0.25),
    e2e("load_s", "s", Lower, 0.25),
    e2e("snapshot_bytes_per_point", "B", Lower, 0.01),
    e2e("post_load_query_us_p50", "us", Lower, 0.25),
];

/// Layer names are the repo's module names; later issues use them.
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.hasher.project_query_us", "us", Lower),
    layer("core.hasher.project_all_s", "s", Lower),
    layer("index.window_us_per_probe", "us", Lower),
    layer("index.window_ids_per_probe", "count", Lower),
    layer("index.bulk_load_s", "s", Lower),
    layer("data.sq8.lower_bound_block_ns_per_row", "ns", Lower),
    layer("data.sq8.prune_rate", "ratio", Higher),
    layer("data.kernels.sq_dist_block_ns_per_row", "ns", Lower),
    layer("data.kernels.sq_dist_block_gb_s", "GB/s", Higher),
    layer("core.query.search_us", "us", Lower),
    layer("core.query.verify_us", "us", Lower),
    layer("core.query.unattributed_us", "us", Lower),
    layer("core.query.classic_k_ann_us", "us", Lower),
    layer("core.query.rounds_per_query", "count", Lower),
    layer("core.query.index_probes_per_query", "count", Lower),
    layer("core.query.candidates_per_query", "count", Lower),
    layer("core.query.prefilter_pruned_per_query", "count", Higher),
    layer("core.index.build_s", "s", Lower),
    layer("core.index.insert_us", "us", Lower),
    layer("core.index.remove_us", "us", Lower),
    layer("core.index.compact_ms", "ms", Lower),
    layer("core.index.proj_store_bytes", "B", Lower),
    layer("core.index.tree_bytes", "B", Lower),
    layer("core.index.relabel_bytes", "B", Lower),
    layer("core.index.sq8_bytes", "B", Lower),
    layer("core.snapshot.save_mem_s", "s", Lower),
    layer("core.snapshot.load_mem_s", "s", Lower),
    layer("core.snapshot.bytes", "B", Lower),
    layer("serve.shard.search_us", "us", Lower),
    layer("serve.shard.fanout_overhead_us", "us", Lower),
    layer("serve.shard.insert_us", "us", Lower),
    layer("serve.shard.remove_us", "us", Lower),
    layer("serve.shard.compactions", "count", Lower),
    layer("serve.shard.dead_rows_end", "count", Lower),
    layer("serve.shard.save_dir_s", "s", Lower),
    layer("serve.shard.load_dir_s", "s", Lower),
    layer("serve.engine.search_us", "us", Lower),
    layer("serve.engine.dispatch_overhead_us", "us", Lower),
    layer("serve.engine.p99_latency_us", "us", Lower),
    layer("serve.engine.rejected", "count", Lower),
    layer("serve.engine.deadline_expired", "count", Lower),
    layer("serve.engine.errors", "count", Lower),
    layer("serve.engine.queue_depth_max", "count", Lower),
    layer("net.ping_rtt_us", "us", Lower),
    layer("net.knn_us", "us", Lower),
    layer("net.wire_overhead_us", "us", Lower),
    layer("net.requests", "count", Lower),
    layer("net.errors", "count", Lower),
    layer("net.refused", "count", Lower),
    layer("data.wal.append_us", "us", Lower),
    layer("data.wal.sync_us", "us", Lower),
    layer("data.wal.bytes_per_record", "B", Lower),
    layer("data.wal.replay_records_per_s", "1/s", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

/// How a serving workload stands up its fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// Static fleet, read phase then a separate write phase; no WAL, no
    /// auto-compaction.
    Read,
    /// Mixed 80/10/10 knn/insert/remove with WAL and auto-compaction.
    Churn,
}

/// One workload: the dataset shape and, for the `serve_*` pair, the
/// serving configuration. Every other input derives from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Indexed points (queries and the insert pool are carved on top).
    pub n: usize,
    pub dim: usize,
    pub clusters: usize,
    /// Leading queries scored against the exact answer (a linear scan
    /// each, so fewer where `n` is large).
    pub scored: usize,
    /// `None`: in-process `DbLsh`, one caller thread.
    pub serve: Option<Serve>,
}

/// Queries carved from the generated mixture, per workload.
pub const QUERIES: usize = 2_000;
/// Points carved for the write phases (never indexed at build).
pub const POOL: usize = 6_000;
/// Closed-loop TCP callers on the `serve_*` workloads.
pub const CLIENTS: usize = 2;
/// Shards of every fleet.
pub const SHARDS: usize = 4;
/// `k` of every query.
pub const K: usize = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "hot_small",
        why: "20k x 32-d in-process index (~10 MB) stays cache-resident: tree probing, ladder control and compute-bound verification show; memory-side work should not",
        n: 20_000,
        dim: 32,
        clusters: 25,
        scored: QUERIES,
        serve: None,
    },
    Workload {
        name: "dram_large",
        why: "300k x 96-d in-process index (~340 MB) misses cache on every pass: SQ8 prefilter, memory-bound kernels, ProjStore scatter reads and snapshot work show",
        n: 300_000,
        dim: 96,
        clusters: 300,
        scored: 400,
        serve: None,
    },
    Workload {
        name: "serve_read",
        why: "hot_small data behind 4 shards + engine + TCP, 2 closed-loop clients, 100% knn: the gap to hot_small is the fan-out, merge, queue and wire cost",
        n: 20_000,
        dim: 32,
        clusters: 25,
        scored: QUERIES,
        serve: Some(Serve::Read),
    },
    Workload {
        name: "serve_churn",
        why: "serve_read plus WAL and auto-compaction under a seeded 80/10/10 knn/insert/remove mix: writers take shard locks beside readers, then crash recovery from flushed bytes",
        n: 20_000,
        dim: 32,
        clusters: 25,
        scored: QUERIES,
        serve: Some(Serve::Churn),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = parse(&text).expect("parse BENCHMARK.json");

        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&doc, "workloads"), want);
        for (w, j) in WORKLOADS
            .iter()
            .zip(doc.get("workloads").unwrap().as_array().unwrap())
        {
            assert_eq!(j.get("why").and_then(Value::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }

        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(e2e) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }

        let layers = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, j) in PER_LAYER.iter().zip(layers) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }
}
