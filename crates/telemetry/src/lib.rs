//! Telemetry plane for the DB-LSH stack.
//!
//! Three pieces, each std-only and dependency-free:
//!
//! * [`Registry`] — a unified metrics registry of named counters,
//!   gauges, and log₂(ns) histograms behind cheap typed handles
//!   ([`Counter`] / [`Gauge`] / [`Histo`]), with labels for
//!   shard/tenant dimensions. Registration is a mutexed cold path; the
//!   handles are `Arc`-shared atomics, so recording is lock-free. Core,
//!   serve, net and WAL code all register their metrics here instead
//!   of growing bespoke atomic structs.
//! * [`QueryTrace`] + [`SlowQueryLog`] — per-stage query tracing: a
//!   zero-alloc span recorder threaded through the search pipeline
//!   (projection → tree probe → SQ8 prefilter → exact verify → merge →
//!   reply), feeding per-stage latency histograms and a fixed-capacity
//!   ring buffer of the slowest queries (args digest, per-stage
//!   breakdown, rounds, candidates).
//! * [`render_prometheus`] / [`render_json`] — deterministic exposition
//!   renderers over a registry snapshot, golden-tested byte-for-byte and
//!   served by the wire protocol's `Metrics` opcode.
//!
//! The shared log₂ histogram shape lives in [`histogram`], including the
//! one quantile estimator ([`log2_quantile_us`]) every consumer routes
//! through — interpolated within the bucket, so p50/p99 no longer
//! overstate by up to 2× the way the old upper-edge convention did.

pub mod expo;
pub mod histogram;
pub mod registry;
pub mod trace;

pub use expo::{render_json, render_prometheus};
pub use histogram::{
    bucket_lower_nanos, bucket_of, log2_quantile_us, HistoCell, HistoSnapshot, LatencyHistogram,
    BUCKETS,
};
pub use registry::{Counter, Gauge, Histo, MetricKind, MetricSample, Registry, SampleValue};
pub use trace::{args_digest, QueryTrace, SlowQuery, SlowQueryLog, Stage, STAGE_COUNT};
