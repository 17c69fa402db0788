//! The serving front door: a long-lived worker pool draining a bounded
//! submission queue of search/insert/remove requests against a shared
//! [`ShardedDbLsh`], with per-request [`QueryStats`] aggregation into
//! engine-level counters (QPS, log₂-bucket latency quantiles, candidates
//! verified).
//!
//! Submissions are non-blocking until the queue is full, then apply
//! backpressure (the submitting thread waits for a slot); each request
//! returns a [`Ticket`] resolved by whichever worker executes it.
//! Workers are plain OS threads that live as long as the engine; the
//! per-thread prober scratch pools of the sharded query path warm up
//! once per worker and are reused across every request the worker
//! serves. Dropping (or [`Engine::shutdown`]-ing) the engine closes the
//! queue, drains the remaining requests, and joins the workers.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use dblsh_core::SearchOptions;
use dblsh_data::{DbLshError, Neighbor, QueryStats, SearchResult};
use dblsh_telemetry::{
    args_digest, log2_quantile_us, render_json, render_prometheus, Counter, Gauge, Histo,
    QueryTrace, Registry, SlowQuery, SlowQueryLog, Stage, STAGE_COUNT,
};

use crate::shard::ShardedDbLsh;

/// Engine sizing knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads serving the queue. Defaults to the number of
    /// available cores.
    pub workers: usize,
    /// Submission-queue capacity; a full queue blocks submitters
    /// (backpressure, never unbounded memory). Defaults to 1024.
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1),
            queue_capacity: 1024,
        }
    }
}

/// One-shot result slot: the submitter holds the [`Ticket`], the worker
/// resolves it. Std-only (mutex + condvar), no channel allocation churn
/// beyond the one `Arc`.
#[derive(Debug)]
struct Slot<T> {
    value: Mutex<Option<T>>,
    ready: Condvar,
}

/// The submitter's handle to an in-flight request. Every request
/// resolves to a `Result`: the operation's own outcome, or a
/// [`DbLshError`] when the engine could not serve it (shut down before
/// acceptance, or a worker died mid-request) — a `Ticket` can never
/// block forever.
#[derive(Debug)]
pub struct Ticket<T> {
    slot: Arc<Slot<Result<T, DbLshError>>>,
}

impl<T> Ticket<T> {
    /// Block until the request completes and take its result. The slot
    /// holds a plain `Option` whose every state is valid, so a poisoned
    /// slot mutex (the worker panicked around a `send`) is recovered —
    /// either the value landed before the panic, or the dropped
    /// `Reply` already resolved it to the typed `Shutdown`.
    pub fn wait(self) -> Result<T, DbLshError> {
        let mut value = self
            .slot
            .value
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(v) = value.take() {
                return v;
            }
            value = self
                .slot
                .ready
                .wait(value)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Take the result if the request has already completed.
    pub fn try_take(&self) -> Option<Result<T, DbLshError>> {
        self.slot
            .value
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// The worker's side of a [`Ticket`]. If it is dropped without
/// [`Reply::send`] — a worker panicking mid-request, or the queue being
/// torn down with the job still queued — the ticket resolves to the
/// typed [`DbLshError::Shutdown`] instead of leaving the submitter
/// blocked forever.
#[derive(Debug)]
struct Reply<T> {
    slot: Option<Arc<Slot<Result<T, DbLshError>>>>,
}

impl<T> Reply<T> {
    fn send(mut self, value: Result<T, DbLshError>) {
        if let Some(slot) = self.slot.take() {
            *slot.value.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            slot.ready.notify_all();
        }
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            let mut value = match slot.value.lock() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            *value = Some(Err(DbLshError::Shutdown));
            drop(value);
            slot.ready.notify_all();
        }
    }
}

fn oneshot<T>() -> (Reply<T>, Ticket<T>) {
    let slot = Arc::new(Slot {
        value: Mutex::new(None),
        ready: Condvar::new(),
    });
    (
        Reply {
            slot: Some(Arc::clone(&slot)),
        },
        Ticket { slot },
    )
}

/// A queued request. Search requests carry their submission instant so
/// reported latency includes queue wait — the number a saturation
/// harness actually cares about.
enum Job {
    Search {
        query: Vec<f32>,
        k: usize,
        opts: SearchOptions,
        enqueued: Instant,
        /// Queue-wait budget: a search still queued past this expires
        /// with [`DbLshError::DeadlineExceeded`] instead of executing.
        deadline: Option<Duration>,
        reply: Reply<SearchResult>,
    },
    Insert {
        point: Vec<f32>,
        reply: Reply<u32>,
    },
    Remove {
        id: u32,
        reply: Reply<bool>,
    },
    RcNn {
        query: Vec<f32>,
        r: f64,
        enqueued: Instant,
        reply: Reply<(Option<Neighbor>, QueryStats)>,
    },
    /// Chaos hook: panic the executing worker mid-request (see
    /// [`Engine::inject_worker_panic`]). The panic is caught at the
    /// job boundary — the worker survives, the ticket resolves to the
    /// typed [`DbLshError::Shutdown`] via its dropped [`Reply`].
    Chaos(Reply<()>),
    /// Test-only: park the executing worker on a barrier, so tests can
    /// hold the queue deterministically full while probing admission
    /// control.
    #[cfg(test)]
    Fence(Arc<std::sync::Barrier>),
}

/// Bounded MPMC job queue: mutex + two condvars, closes on shutdown.
struct Queue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Queue {
    fn new(capacity: usize) -> Queue {
        Queue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue, blocking while full. A job refused by a closed queue is
    /// dropped here, outside the lock — which resolves its [`Reply`]
    /// with the typed [`DbLshError::Shutdown`] rather than leaving a
    /// waiter hanging.
    fn push(&self, job: Job) {
        // Queue state is a `VecDeque` + flag whose every published state
        // is valid, so poisoning (a panicking worker) is recovered here
        // and below — the submission and worker paths must never panic.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while inner.jobs.len() >= self.capacity && !inner.closed {
            inner = self
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if inner.closed {
            drop(inner);
            drop(job);
            return;
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Enqueue without blocking: a full queue is [`DbLshError::Busy`], a
    /// closed one [`DbLshError::Shutdown`]. A refused job is dropped
    /// here (outside the lock), which resolves its [`Reply`]; the caller
    /// gets the precise refusal reason through the returned error.
    fn try_push(&self, job: Job) -> Result<(), DbLshError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let refusal = if inner.closed {
            Some(DbLshError::Shutdown)
        } else if inner.jobs.len() >= self.capacity {
            Some(DbLshError::Busy)
        } else {
            None
        };
        if let Some(err) = refusal {
            drop(inner);
            drop(job);
            return Err(err);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Jobs currently queued (accepted, not yet picked up by a worker).
    fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .jobs
            .len()
    }

    /// Dequeue, blocking while empty. `None` once the queue is closed
    /// *and* drained — workers finish every accepted request.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Default slow-query capture threshold: queries at or above 100 ms
/// end-to-end land in the ring log. Tune per deployment with
/// [`Engine::set_slow_query_threshold`].
const DEFAULT_SLOW_QUERY_NANOS: u64 = 100_000_000;

/// Slow-query ring capacity: the most recent captures kept.
const SLOW_QUERY_CAPACITY: usize = 64;

/// Engine-level counters, updated lock-free by the workers through
/// [`dblsh_telemetry::Registry`] handles — the one registration point
/// for every serving metric, so the wire front door and the bench
/// harnesses scrape a single coherent snapshot. Latencies go into
/// log₂(nanoseconds) histograms: cheap, contention-free recording, with
/// quantiles interpolated inside one power-of-two bucket.
#[derive(Debug)]
struct Metrics {
    started: Instant,
    /// Wall-clock engine start, seconds since the Unix epoch.
    started_at_unix: u64,
    registry: Arc<Registry>,
    knn: Counter,
    rcnn: Counter,
    inserts: Counter,
    removes: Counter,
    errors: Counter,
    rejected: Counter,
    deadline_expired: Counter,
    candidates: Counter,
    rounds: Counter,
    index_probes: Counter,
    prefilter_pruned: Counter,
    prefilter_survivors: Counter,
    verify_nanos: Counter,
    /// End-to-end (submission → completion) search latency.
    latency: Histo,
    /// Per-stage latency, one series per [`Stage`], fed by traced
    /// requests only.
    stage: [Histo; STAGE_COUNT],
    /// Scrape-time gauges, refreshed by [`Engine::render_metrics`].
    queue_depth: Gauge,
    uptime: Gauge,
    live_points: Gauge,
    dead_rows: Gauge,
    memory_bytes: Gauge,
    compactions: Gauge,
    wal_truncations: Gauge,
    slow_log: SlowQueryLog,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Arc::new(Registry::new());
        let req = |op: &str| {
            registry.counter(
                "dblsh_requests_total",
                "Completed requests by opcode.",
                &[("op", op)],
            )
        };
        let stage = Stage::ALL.map(|s| {
            registry.histo(
                "dblsh_stage_seconds",
                "Per-stage latency of traced search requests.",
                &[("stage", s.name())],
            )
        });
        Metrics {
            started: Instant::now(),
            started_at_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            knn: req("knn"),
            rcnn: req("rcnn"),
            inserts: req("insert"),
            removes: req("remove"),
            errors: registry.counter(
                "dblsh_errors_total",
                "Requests that resolved to an error (including contained worker panics).",
                &[],
            ),
            rejected: registry.counter(
                "dblsh_rejected_total",
                "Requests refused at admission (full queue).",
                &[],
            ),
            deadline_expired: registry.counter(
                "dblsh_deadline_expired_total",
                "Searches that expired in the queue without executing.",
                &[],
            ),
            candidates: registry.counter(
                "dblsh_query_candidates_total",
                "Candidates consumed across all completed searches.",
                &[],
            ),
            rounds: registry.counter(
                "dblsh_query_rounds_total",
                "Radius-ladder rounds across all completed searches.",
                &[],
            ),
            index_probes: registry.counter(
                "dblsh_index_probes_total",
                "R*-tree window hits across all completed searches.",
                &[],
            ),
            prefilter_pruned: registry.counter(
                "dblsh_prefilter_pruned_total",
                "Candidates dropped by the SQ8 pre-filter before any f32 row read.",
                &[],
            ),
            prefilter_survivors: registry.counter(
                "dblsh_prefilter_survivors_total",
                "Candidates that survived the SQ8 pre-filter into exact verification.",
                &[],
            ),
            verify_nanos: registry.counter(
                "dblsh_verify_nanos_total",
                "Nanoseconds spent in timed verification stages.",
                &[],
            ),
            latency: registry.histo(
                "dblsh_request_seconds",
                "End-to-end search latency, submission to completion.",
                &[],
            ),
            stage,
            queue_depth: registry.gauge(
                "dblsh_queue_depth",
                "Jobs accepted but not yet picked up by a worker.",
                &[],
            ),
            uptime: registry.gauge("dblsh_uptime_seconds", "Seconds since engine start.", &[]),
            live_points: registry.gauge("dblsh_live_points", "Live points across all shards.", &[]),
            dead_rows: registry.gauge(
                "dblsh_dead_rows",
                "Tombstoned rows still occupying space across all shards.",
                &[],
            ),
            memory_bytes: registry.gauge(
                "dblsh_memory_bytes",
                "Heap footprint of the index structures and id tables.",
                &[],
            ),
            compactions: registry.gauge(
                "dblsh_compactions",
                "Shard compactions performed (automatic and manual).",
                &[],
            ),
            wal_truncations: registry.gauge(
                "dblsh_wal_truncations_recovered",
                "Shard WAL logs whose torn tail was dropped during crash recovery.",
                &[],
            ),
            slow_log: SlowQueryLog::new(SLOW_QUERY_CAPACITY, DEFAULT_SLOW_QUERY_NANOS),
            registry,
        }
    }

    fn record_search(&self, op: &Counter, latency_nanos: u64, stats: &QueryStats) {
        op.inc();
        self.candidates.add(stats.candidates as u64);
        self.rounds.add(stats.rounds as u64);
        self.index_probes.add(stats.index_probes as u64);
        self.prefilter_pruned.add(stats.prefilter_pruned as u64);
        self.prefilter_survivors
            .add(stats.prefilter_survivors as u64);
        self.verify_nanos.add(stats.verify_nanos);
        self.latency.record(latency_nanos);
    }

    /// Feed one traced request's span breakdown into the per-stage
    /// histograms and offer it to the slow-query ring.
    fn record_trace(&self, trace: &QueryTrace, entry: SlowQuery) {
        for s in Stage::ALL {
            let nanos = trace.get(s);
            if nanos > 0 {
                self.stage[s as usize].record(nanos);
            }
        }
        self.slow_log.offer(entry);
    }
}

/// A point-in-time snapshot of the engine counters (the `Stats` wire
/// opcode carries it).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Completed search requests — (c,k)-ANN and (r,c)-NN probes
    /// combined (`knn_requests + rcnn_requests`).
    pub searches: u64,
    /// Completed (c,k)-ANN search requests (the Knn opcode).
    pub knn_requests: u64,
    /// Completed (r,c)-NN probe requests (the RcNn opcode).
    pub rcnn_requests: u64,
    /// Completed insert requests.
    pub inserts: u64,
    /// Completed remove requests.
    pub removes: u64,
    /// Requests that resolved to an error.
    pub errors: u64,
    /// Requests refused at admission (non-blocking submission against a
    /// full queue — [`DbLshError::Busy`]). These never executed; they
    /// are the backpressure the wire front door surfaces to remote
    /// callers.
    pub rejected: u64,
    /// Searches that sat in the queue past their per-request deadline
    /// and were **not executed** — resolved to
    /// [`DbLshError::DeadlineExceeded`] when a worker reached them.
    /// Counted separately from `errors`: an expired deadline is load
    /// shedding (like `rejected`), not a fault in the request.
    pub deadline_expired: u64,
    /// Jobs sitting in the submission queue at snapshot time (accepted,
    /// not yet picked up by a worker) — the live backlog admission
    /// control is reacting to.
    pub queue_depth: u64,
    /// Aggregate per-query work counters across all completed searches
    /// (accumulated via [`QueryStats::merge`]).
    pub query: QueryStats,
    /// Seconds since the engine started. Unlike `uptime_secs` this
    /// **adds** under [`EngineStats::merge`] (combined lifetime of
    /// sequentially run engines), which is what keeps the recomputed
    /// `qps` honest across a saturation sweep.
    pub elapsed_secs: f64,
    /// Seconds this engine has been up at snapshot time. Merging keeps
    /// the maximum (the longest-lived engine of the fold), never a sum.
    pub uptime_secs: f64,
    /// Wall-clock engine start, seconds since the Unix epoch (0 when
    /// the clock was unreadable). Merging keeps the earliest non-zero
    /// start.
    pub started_at_unix: u64,
    /// Completed searches per second of engine lifetime.
    pub qps: f64,
    /// Mean search latency (submission to completion), microseconds.
    pub mean_latency_us: f64,
    /// Median search latency, microseconds (log₂-bucket resolution).
    pub p50_latency_us: f64,
    /// 99th-percentile search latency, microseconds (log₂-bucket
    /// resolution).
    pub p99_latency_us: f64,
    /// The raw log₂(nanoseconds) latency histogram behind the
    /// quantiles: `latency_buckets[b]` counts searches whose latency was
    /// in `[2^b, 2^{b+1})` ns. Exposed so folds across engines
    /// ([`EngineStats::merge`]) can combine distributions exactly
    /// instead of degrading to max-of-maxes.
    pub latency_buckets: [u64; 64],
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats {
            searches: 0,
            knn_requests: 0,
            rcnn_requests: 0,
            inserts: 0,
            removes: 0,
            errors: 0,
            rejected: 0,
            deadline_expired: 0,
            queue_depth: 0,
            query: QueryStats::default(),
            elapsed_secs: 0.0,
            uptime_secs: 0.0,
            started_at_unix: 0,
            qps: 0.0,
            mean_latency_us: 0.0,
            p50_latency_us: 0.0,
            p99_latency_us: 0.0,
            latency_buckets: [0; 64],
        }
    }
}

impl EngineStats {
    /// Fold another snapshot into this one — totals across the
    /// *sequentially run* engines of a saturation sweep. Counters and
    /// elapsed time add (`query` through [`QueryStats::merge`]), so the
    /// recomputed `qps` is overall searches per second of combined
    /// engine lifetime. The latency bucket counts add too, and p50/p99
    /// are recomputed from the **combined histogram** — exact at bucket
    /// resolution, where the old max-of-maxes answer could overstate the
    /// merged median by the full spread between the folded engines.
    pub fn merge(&mut self, other: &EngineStats) {
        let lat_total = self.mean_latency_us * self.searches as f64
            + other.mean_latency_us * other.searches as f64;
        self.searches += other.searches;
        self.knn_requests += other.knn_requests;
        self.rcnn_requests += other.rcnn_requests;
        self.inserts += other.inserts;
        self.removes += other.removes;
        self.errors += other.errors;
        self.rejected += other.rejected;
        self.deadline_expired += other.deadline_expired;
        // Queue depth is instantaneous, not cumulative: folding sweeps
        // keeps the worst backlog observed.
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.query.merge(&other.query);
        self.elapsed_secs += other.elapsed_secs;
        self.uptime_secs = self.uptime_secs.max(other.uptime_secs);
        self.started_at_unix = match (self.started_at_unix, other.started_at_unix) {
            (0, b) => b,
            (a, 0) => a,
            (a, b) => a.min(b),
        };
        self.qps = if self.elapsed_secs > 0.0 {
            self.searches as f64 / self.elapsed_secs
        } else {
            0.0
        };
        self.mean_latency_us = if self.searches > 0 {
            lat_total / self.searches as f64
        } else {
            0.0
        };
        for (mine, theirs) in self.latency_buckets.iter_mut().zip(&other.latency_buckets) {
            *mine += theirs;
        }
        self.p50_latency_us = log2_quantile_us(&self.latency_buckets, 0.50);
        self.p99_latency_us = log2_quantile_us(&self.latency_buckets, 0.99);
    }
}

/// The serving engine: a worker pool over a shared [`ShardedDbLsh`].
/// See the module docs for the lifecycle and the latency/counter
/// semantics.
pub struct Engine {
    index: Arc<ShardedDbLsh>,
    queue: Arc<Queue>,
    metrics: Arc<Metrics>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Start `config.workers` worker threads over `index`.
    pub fn start(index: Arc<ShardedDbLsh>, config: EngineConfig) -> Engine {
        let queue = Arc::new(Queue::new(config.queue_capacity.max(1)));
        let metrics = Arc::new(Metrics::new());
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let index = Arc::clone(&index);
                std::thread::Builder::new()
                    .name(format!("dblsh-serve-{w}"))
                    .spawn(move || worker_loop(&index, &queue, &metrics))
                    // lint: allow(panic-free-surface) — OS thread-spawn failure at startup has no caller to degrade to
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            index,
            queue,
            metrics,
            workers,
        }
    }

    /// The shared index the engine serves (usable directly for
    /// out-of-band reads, e.g. `len()` between sweeps).
    pub fn index(&self) -> &Arc<ShardedDbLsh> {
        &self.index
    }

    /// Submit a (c,k)-ANN search with default options.
    pub fn search(&self, query: &[f32], k: usize) -> Ticket<SearchResult> {
        self.search_with(query, k, SearchOptions::default())
    }

    /// Submit a (c,k)-ANN search with per-request options. Blocks only
    /// when the queue is full (backpressure).
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        opts: SearchOptions,
    ) -> Ticket<SearchResult> {
        self.search_with_deadline(query, k, opts, None)
    }

    /// [`Engine::search_with`] plus a queue-wait budget: if the request
    /// is still queued once `deadline` has elapsed since submission, it
    /// expires with [`DbLshError::DeadlineExceeded`] instead of
    /// executing — returning a stale answer to a caller that already
    /// timed out would only add load. Expired requests are counted in
    /// [`EngineStats::deadline_expired`], not `errors`. The deadline
    /// bounds *queue wait*, not execution: a request a worker has
    /// already started runs to completion.
    pub fn search_with_deadline(
        &self,
        query: &[f32],
        k: usize,
        opts: SearchOptions,
        deadline: Option<Duration>,
    ) -> Ticket<SearchResult> {
        let (reply, ticket) = oneshot();
        self.submit(Job::Search {
            query: query.to_vec(),
            k,
            opts,
            enqueued: Instant::now(),
            deadline,
            reply,
        });
        ticket
    }

    /// Submit an insert.
    pub fn insert(&self, point: &[f32]) -> Ticket<u32> {
        let (reply, ticket) = oneshot();
        self.submit(Job::Insert {
            point: point.to_vec(),
            reply,
        });
        ticket
    }

    /// Submit a remove.
    pub fn remove(&self, id: u32) -> Ticket<bool> {
        let (reply, ticket) = oneshot();
        self.submit(Job::Remove { id, reply });
        ticket
    }

    /// Submit an (r,c)-NN probe (Definition 2 of the paper): the nearest
    /// point within distance `c·r` of the query, if any lies within `r`.
    pub fn r_c_nn(&self, query: &[f32], r: f64) -> Ticket<(Option<Neighbor>, QueryStats)> {
        let (reply, ticket) = oneshot();
        self.submit(Job::RcNn {
            query: query.to_vec(),
            r,
            enqueued: Instant::now(),
            reply,
        });
        ticket
    }

    /// Non-blocking [`Engine::search_with`]: a full queue is refused
    /// with [`DbLshError::Busy`] (counted in [`EngineStats::rejected`])
    /// instead of blocking the submitter, and a draining engine with
    /// [`DbLshError::Shutdown`] — the admission-control surface a wire
    /// front door maps onto typed protocol errors, so a remote caller is
    /// never parked inside the server's accept path.
    pub fn try_search_with(
        &self,
        query: &[f32],
        k: usize,
        opts: SearchOptions,
    ) -> Result<Ticket<SearchResult>, DbLshError> {
        self.try_search_with_deadline(query, k, opts, None)
    }

    /// Non-blocking [`Engine::search_with_deadline`]: admission control
    /// and queue-wait deadlines compose — a full queue refuses with
    /// [`DbLshError::Busy`] immediately, an accepted request can still
    /// expire with [`DbLshError::DeadlineExceeded`] if the backlog
    /// outlasts its budget.
    pub fn try_search_with_deadline(
        &self,
        query: &[f32],
        k: usize,
        opts: SearchOptions,
        deadline: Option<Duration>,
    ) -> Result<Ticket<SearchResult>, DbLshError> {
        let (reply, ticket) = oneshot();
        self.try_submit(Job::Search {
            query: query.to_vec(),
            k,
            opts,
            enqueued: Instant::now(),
            deadline,
            reply,
        })?;
        Ok(ticket)
    }

    /// Non-blocking [`Engine::insert`] (see [`Engine::try_search_with`]).
    pub fn try_insert(&self, point: &[f32]) -> Result<Ticket<u32>, DbLshError> {
        let (reply, ticket) = oneshot();
        self.try_submit(Job::Insert {
            point: point.to_vec(),
            reply,
        })?;
        Ok(ticket)
    }

    /// Non-blocking [`Engine::remove`] (see [`Engine::try_search_with`]).
    pub fn try_remove(&self, id: u32) -> Result<Ticket<bool>, DbLshError> {
        let (reply, ticket) = oneshot();
        self.try_submit(Job::Remove { id, reply })?;
        Ok(ticket)
    }

    /// Non-blocking [`Engine::r_c_nn`] (see [`Engine::try_search_with`]).
    pub fn try_r_c_nn(
        &self,
        query: &[f32],
        r: f64,
    ) -> Result<Ticket<(Option<Neighbor>, QueryStats)>, DbLshError> {
        let (reply, ticket) = oneshot();
        self.try_submit(Job::RcNn {
            query: query.to_vec(),
            r,
            enqueued: Instant::now(),
            reply,
        })?;
        Ok(ticket)
    }

    /// Fault-injection hook for the torture harness: make whichever
    /// worker picks this job up panic mid-request. The panic is
    /// contained — the worker catches it at the job boundary and keeps
    /// serving — and the returned ticket resolves to the typed
    /// [`DbLshError::Shutdown`] (the standard "worker died mid-request"
    /// outcome), so callers can await the fault deterministically. The
    /// panic is counted in [`EngineStats::errors`].
    #[doc(hidden)]
    pub fn inject_worker_panic(&self) -> Ticket<()> {
        let (reply, ticket) = oneshot();
        self.submit(Job::Chaos(reply));
        ticket
    }

    fn submit(&self, job: Job) {
        self.queue.push(job);
    }

    fn try_submit(&self, job: Job) -> Result<(), DbLshError> {
        self.queue.try_push(job).inspect_err(|err| {
            if *err == DbLshError::Busy {
                self.metrics.rejected.inc();
            }
        })
    }

    /// Begin graceful drain *without* consuming the engine: the queue
    /// closes (new submissions resolve to [`DbLshError::Shutdown`];
    /// non-blocking ones refuse with it), every already-accepted request
    /// still completes, and workers exit once the backlog is empty.
    /// Unlike [`Engine::shutdown`] this does not join the workers — it
    /// is callable from any thread holding an `Arc<Engine>` (the wire
    /// server's shutdown path); the eventual drop (or `shutdown`) joins.
    pub fn drain(&self) {
        self.queue.close();
    }

    /// Whether [`Engine::drain`] (or shutdown) has closed the queue.
    pub fn is_draining(&self) -> bool {
        self.queue
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed
    }

    /// Snapshot the engine counters.
    pub fn stats(&self) -> EngineStats {
        let m = &self.metrics;
        let knn = m.knn.get();
        let rcnn = m.rcnn.get();
        let searches = knn + rcnn;
        let elapsed = m.started.elapsed().as_secs_f64();
        let lat = m.latency.snapshot();
        EngineStats {
            searches,
            knn_requests: knn,
            rcnn_requests: rcnn,
            inserts: m.inserts.get(),
            removes: m.removes.get(),
            errors: m.errors.get(),
            rejected: m.rejected.get(),
            deadline_expired: m.deadline_expired.get(),
            queue_depth: self.queue.depth() as u64,
            query: QueryStats {
                candidates: m.candidates.get() as usize,
                rounds: m.rounds.get() as usize,
                index_probes: m.index_probes.get() as usize,
                prefilter_pruned: m.prefilter_pruned.get() as usize,
                prefilter_survivors: m.prefilter_survivors.get() as usize,
                verify_nanos: m.verify_nanos.get(),
            },
            elapsed_secs: elapsed,
            uptime_secs: elapsed,
            started_at_unix: m.started_at_unix,
            qps: if elapsed > 0.0 {
                searches as f64 / elapsed
            } else {
                0.0
            },
            mean_latency_us: if lat.count > 0 {
                lat.sum_nanos as f64 / lat.count as f64 / 1e3
            } else {
                0.0
            },
            p50_latency_us: log2_quantile_us(&lat.buckets, 0.50),
            p99_latency_us: log2_quantile_us(&lat.buckets, 0.99),
            latency_buckets: lat.buckets,
        }
    }

    /// The engine's metrics registry — every serving counter, gauge, and
    /// histogram registers here, so the wire front door and the bench
    /// harnesses scrape one coherent snapshot.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Refresh the scrape-time gauges (queue depth, uptime, index
    /// breakdown) so a snapshot taken right after reflects the present.
    fn refresh_gauges(&self) {
        let m = &self.metrics;
        m.queue_depth.set(self.queue.depth() as u64);
        m.uptime.set(m.started.elapsed().as_secs());
        m.live_points.set(self.index.len() as u64);
        m.dead_rows.set(self.index.dead_rows() as u64);
        m.memory_bytes.set(self.index.memory_bytes() as u64);
        m.compactions.set(self.index.compaction_count());
        m.wal_truncations
            .set(self.index.wal_truncations_recovered());
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format (gauges refreshed first).
    pub fn render_metrics_prometheus(&self) -> String {
        self.refresh_gauges();
        render_prometheus(&self.metrics.registry.snapshot())
    }

    /// Render every registered metric as a JSON document (gauges
    /// refreshed first).
    pub fn render_metrics_json(&self) -> String {
        self.refresh_gauges();
        render_json(&self.metrics.registry.snapshot())
    }

    /// Snapshot of the slow-query ring log, oldest first. Only traced
    /// requests ([`SearchOptions::trace`]) are offered to the log.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.metrics.slow_log.snapshot()
    }

    /// Adjust the slow-query capture threshold at runtime (default
    /// 100 ms; `Duration::MAX`-scale values effectively disable capture).
    pub fn set_slow_query_threshold(&self, threshold: Duration) {
        self.metrics
            .slow_log
            .set_threshold_nanos(threshold.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Current slow-query capture threshold.
    pub fn slow_query_threshold(&self) -> Duration {
        Duration::from_nanos(self.metrics.slow_log.threshold_nanos())
    }

    /// Close the queue, finish every accepted request, and join the
    /// workers. Returns the final counter snapshot.
    pub fn shutdown(mut self) -> EngineStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(index: &ShardedDbLsh, queue: &Queue, metrics: &Metrics) {
    while let Some(job) = queue.pop() {
        // Contain panics at the job boundary: one poisoned request must
        // not shrink the worker pool for every later caller. The job
        // (with its Reply) is consumed either way, so the submitter's
        // ticket always resolves — normally, or with the typed
        // `Shutdown` a dropped Reply produces.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_job(index, metrics, job)
        }));
        if outcome.is_err() {
            metrics.errors.inc();
        }
    }
}

fn handle_job(index: &ShardedDbLsh, metrics: &Metrics, job: Job) {
    match job {
        Job::Search {
            query,
            k,
            opts,
            enqueued,
            deadline,
            reply,
        } => {
            if let Some(budget) = deadline {
                if enqueued.elapsed() >= budget {
                    // Expired while queued: never executed, so the
                    // caller can safely retry with a fresh budget.
                    metrics.deadline_expired.inc();
                    reply.send(Err(DbLshError::DeadlineExceeded));
                    return;
                }
            }
            // A traced request: queue wait is everything up to this
            // pickup; the sharded search attributes the pipeline stages;
            // close() makes the per-stage sum equal the end-to-end
            // latency by construction.
            let mut trace = opts.trace.then(QueryTrace::new);
            if let Some(trace) = &mut trace {
                trace.add(Stage::Queue, enqueued.elapsed().as_nanos() as u64);
            }
            let result = index.fan_out(&query, k, &opts, trace.as_mut());
            let latency = enqueued.elapsed().as_nanos() as u64;
            match &result {
                Ok(res) => {
                    metrics.record_search(&metrics.knn, latency, &res.stats);
                    if let Some(mut trace) = trace {
                        trace.close(latency);
                        metrics.record_trace(
                            &trace,
                            SlowQuery {
                                args_digest: args_digest(&query, k),
                                k,
                                total_nanos: latency,
                                stage_nanos: trace.stage_nanos,
                                rounds: res.stats.rounds,
                                candidates: res.stats.candidates,
                            },
                        );
                    }
                }
                Err(_) => metrics.errors.inc(),
            }
            reply.send(result);
        }
        Job::Insert { point, reply } => {
            let result = index.insert(&point);
            match &result {
                Ok(_) => metrics.inserts.inc(),
                Err(_) => metrics.errors.inc(),
            }
            reply.send(result);
        }
        Job::Remove { id, reply } => {
            let result = index.remove(id);
            match &result {
                Ok(_) => metrics.removes.inc(),
                Err(_) => metrics.errors.inc(),
            }
            reply.send(result);
        }
        Job::RcNn {
            query,
            r,
            enqueued,
            reply,
        } => {
            let result = index.r_c_nn(&query, r);
            let latency = enqueued.elapsed().as_nanos() as u64;
            match &result {
                // An (r,c)-NN probe is a search: it shares the search
                // latency histogram, under its own opcode counter.
                Ok((_, stats)) => metrics.record_search(&metrics.rcnn, latency, stats),
                Err(_) => metrics.errors.inc(),
            }
            reply.send(result);
        }
        Job::Chaos(_reply) => {
            // `_reply` is dropped by the unwind, resolving the
            // ticket with the typed Shutdown.
            // lint: allow(panic-free-surface) — the fault-injection hook exists to panic a worker on purpose
            panic!("injected worker panic");
        }
        #[cfg(test)]
        Job::Fence(barrier) => {
            barrier.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardPolicy;
    use dblsh_core::DbLshBuilder;
    use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
    use dblsh_telemetry::{bucket_of, LatencyHistogram};

    fn engine(workers: usize, cap: usize) -> Engine {
        let data = gaussian_mixture(&MixtureConfig {
            n: 400,
            dim: 12,
            clusters: 10,
            cluster_std: 1.0,
            spread: 50.0,
            noise_frac: 0.02,
            seed: 21,
        });
        let builder = DbLshBuilder::new().k(6).l(3).t(8).r_min(0.5);
        let index = ShardedDbLsh::build(&data, &builder, 2, ShardPolicy::RoundRobin).unwrap();
        Engine::start(
            Arc::new(index),
            EngineConfig {
                workers,
                queue_capacity: cap,
            },
        )
    }

    #[test]
    fn engine_answers_match_direct_queries() {
        let engine = engine(2, 64);
        let q = engine.index().k_ann(&[0.0; 12], 5); // warm nothing, just direct
        let direct = engine
            .index()
            .search_with(&[0.0; 12], 5, &SearchOptions::default());
        let served = engine.search(&[0.0; 12], 5).wait();
        assert_eq!(served.unwrap().ids(), direct.unwrap().ids());
        drop(q);
    }

    #[test]
    fn mixed_workload_updates_counters() {
        let engine = engine(2, 8);
        let mut tickets = Vec::new();
        for i in 0..30u32 {
            tickets.push(engine.search(&[i as f32 * 0.1; 12], 3));
        }
        let id = engine.insert(&[1.0; 12]).wait().unwrap();
        assert!(engine.remove(id).wait().unwrap());
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let stats = engine.stats();
        assert_eq!(stats.searches, 30);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.removes, 1);
        assert_eq!(stats.errors, 0);
        assert!(stats.query.candidates > 0);
        assert!(stats.mean_latency_us > 0.0);
        assert!(stats.p99_latency_us >= stats.p50_latency_us);
        let final_stats = engine.shutdown();
        assert_eq!(final_stats.searches, 30);
    }

    #[test]
    fn errors_are_counted_and_returned() {
        let engine = engine(1, 4);
        let res = engine.search(&[1.0; 3], 5).wait();
        assert!(matches!(res, Err(DbLshError::DimensionMismatch { .. })));
        let res = engine.remove(1_000_000).wait();
        assert!(matches!(res, Err(DbLshError::UnknownId { .. })));
        assert_eq!(engine.stats().errors, 2);
    }

    #[test]
    fn tiny_queue_applies_backpressure_but_completes() {
        let engine = engine(1, 1);
        let tickets: Vec<_> = (0..50).map(|i| engine.search(&[i as f32; 12], 2)).collect();
        assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
        assert_eq!(engine.stats().searches, 50);
        assert_eq!(
            engine.stats().rejected,
            0,
            "blocking submission never rejects"
        );
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let engine = engine(1, 64);
        let tickets: Vec<_> = (0..20)
            .map(|i| engine.search(&[i as f32 * 0.3; 12], 2))
            .collect();
        let stats = engine.shutdown();
        assert_eq!(stats.searches, 20);
        for t in tickets {
            assert!(t.wait().is_ok(), "accepted request must resolve");
        }
    }

    #[test]
    fn full_queue_refuses_with_typed_busy_and_counts_it() {
        let engine = engine(1, 1);
        let gate = Arc::new(std::sync::Barrier::new(2));
        engine.submit(Job::Fence(Arc::clone(&gate)));
        // Blocking push returns only after the single worker popped the
        // fence (capacity 1), so the queue is now deterministically full
        // with this search while the worker is parked on the barrier.
        let pending = engine.search(&[0.0; 12], 2);
        assert!(matches!(
            engine.try_search_with(&[0.0; 12], 2, SearchOptions::default()),
            Err(DbLshError::Busy)
        ));
        assert!(matches!(
            engine.try_insert(&[0.0; 12]),
            Err(DbLshError::Busy)
        ));
        assert!(matches!(engine.try_remove(0), Err(DbLshError::Busy)));
        assert!(matches!(
            engine.try_r_c_nn(&[0.0; 12], 1.0),
            Err(DbLshError::Busy)
        ));
        let stats = engine.stats();
        assert_eq!(stats.rejected, 4, "every refusal must be counted");
        assert_eq!(stats.queue_depth, 1, "the accepted search is the backlog");
        gate.wait();
        assert!(pending.wait().is_ok(), "accepted request must still run");
        let stats = engine.shutdown();
        assert_eq!(stats.rejected, 4);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn drain_refuses_new_work_with_typed_shutdown() {
        let engine = engine(1, 8);
        assert!(!engine.is_draining());
        assert!(engine.search(&[0.2; 12], 3).wait().is_ok());
        engine.drain();
        assert!(engine.is_draining());
        // Blocking submission after drain: the ticket still resolves,
        // and with the typed Shutdown — never a hang, never a stringly
        // "abandoned" error.
        assert!(matches!(
            engine.search(&[0.2; 12], 3).wait(),
            Err(DbLshError::Shutdown)
        ));
        assert_eq!(engine.insert(&[0.2; 12]).wait(), Err(DbLshError::Shutdown));
        // Non-blocking submission refuses immediately, same type, and a
        // drain refusal is not a queue-full rejection.
        assert!(matches!(
            engine.try_search_with(&[0.2; 12], 3, SearchOptions::default()),
            Err(DbLshError::Shutdown)
        ));
        let stats = engine.shutdown();
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.searches, 1);
    }

    #[test]
    fn queued_past_deadline_expires_without_executing() {
        let engine = engine(1, 4);
        let gate = Arc::new(std::sync::Barrier::new(2));
        engine.submit(Job::Fence(Arc::clone(&gate)));
        // The single worker is parked on the fence, so these sit in the
        // queue: a zero budget has certainly elapsed by pickup, a huge
        // one certainly has not.
        let expired = engine.search_with_deadline(
            &[0.1; 12],
            3,
            SearchOptions::default(),
            Some(Duration::ZERO),
        );
        let served = engine.search_with_deadline(
            &[0.1; 12],
            3,
            SearchOptions::default(),
            Some(Duration::from_secs(3600)),
        );
        gate.wait();
        assert!(matches!(expired.wait(), Err(DbLshError::DeadlineExceeded)));
        let direct = engine
            .index()
            .search_with(&[0.1; 12], 3, &SearchOptions::default())
            .unwrap();
        assert_eq!(served.wait().unwrap().neighbors, direct.neighbors);
        let stats = engine.shutdown();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.searches, 1, "expired request must not execute");
        assert_eq!(stats.errors, 0, "expiry is load shedding, not a fault");
    }

    #[test]
    fn a_panicking_request_does_not_kill_the_worker() {
        // One worker: if the injected panic tore the thread down, the
        // follow-up search would hang in the queue forever.
        let engine = engine(1, 8);
        for _ in 0..3 {
            let chaos = engine.inject_worker_panic();
            assert!(matches!(chaos.wait(), Err(DbLshError::Shutdown)));
        }
        let direct = engine
            .index()
            .search_with(&[0.4; 12], 4, &SearchOptions::default())
            .unwrap();
        let served = engine.search(&[0.4; 12], 4).wait().unwrap();
        assert_eq!(served.neighbors, direct.neighbors);
        let stats = engine.shutdown();
        assert_eq!(stats.errors, 3, "each contained panic is counted");
        assert_eq!(stats.searches, 1);
    }

    #[test]
    fn deadline_expiries_merge_across_snapshots() {
        let mut a = EngineStats {
            deadline_expired: 2,
            ..EngineStats::default()
        };
        a.merge(&EngineStats {
            deadline_expired: 3,
            ..EngineStats::default()
        });
        assert_eq!(a.deadline_expired, 5);
    }

    #[test]
    fn rcnn_over_engine_matches_direct_probe() {
        let engine = engine(2, 16);
        let q = [0.0; 12];
        let direct = engine.index().r_c_nn(&q, 5.0).unwrap();
        let served = engine.r_c_nn(&q, 5.0).wait().unwrap();
        assert_eq!(served, direct);
        // An (r,c)-NN probe counts as a search in the engine stats.
        assert_eq!(engine.stats().searches, 1);
        // And the non-blocking path answers identically on an idle queue.
        let tried = engine.try_r_c_nn(&q, 5.0).unwrap().wait().unwrap();
        assert_eq!(tried, direct);
    }

    #[test]
    fn latency_histogram_matches_engine_quantiles() {
        let mut h = LatencyHistogram::new();
        for nanos in [800, 1_500, 70_000, 70_000, 2_000_000] {
            h.record(nanos);
        }
        assert_eq!(h.count(), 5);
        let mut counts = [0u64; 64];
        for nanos in [800u64, 1_500, 70_000, 70_000, 2_000_000] {
            counts[bucket_of(nanos)] += 1;
        }
        assert_eq!(h.quantile_us(0.50), log2_quantile_us(&counts, 0.50));
        assert_eq!(h.quantile_us(0.99), log2_quantile_us(&counts, 0.99));
        let mut merged = LatencyHistogram::new();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.count(), 10);
        // Doubling every bucket keeps each quantile in the same bucket;
        // the interpolated position inside it may legitimately shift.
        let bucket_of_us = |us: f64| bucket_of((us * 1e3) as u64);
        assert_eq!(
            bucket_of_us(merged.quantile_us(0.5)),
            bucket_of_us(h.quantile_us(0.5))
        );
        assert_eq!(
            bucket_of_us(merged.quantile_us(0.99)),
            bucket_of_us(h.quantile_us(0.99))
        );
    }

    #[test]
    fn traced_requests_match_untraced_and_feed_stage_histograms() {
        let engine = engine(2, 32);
        engine.set_slow_query_threshold(Duration::ZERO);
        assert_eq!(engine.slow_query_threshold(), Duration::ZERO);
        let q = [0.3; 12];
        let untraced = engine.search(&q, 5).wait().unwrap();
        let traced = engine
            .search_with(
                &q,
                5,
                SearchOptions {
                    trace: true,
                    ..SearchOptions::default()
                },
            )
            .wait()
            .unwrap();
        // Tracing must not perturb the answer or the per-query stats.
        assert_eq!(traced.neighbors, untraced.neighbors);
        assert_eq!(traced.stats, untraced.stats);
        // At threshold zero, the one traced request lands in the slow
        // log — the untraced one is never offered.
        let slow = engine.slow_queries();
        assert_eq!(slow.len(), 1);
        let entry = &slow[0];
        assert_eq!(entry.k, 5);
        assert_eq!(entry.args_digest, args_digest(&q, 5));
        assert_eq!(
            entry.stage_nanos.iter().sum::<u64>(),
            entry.total_nanos,
            "close() makes the per-stage sum equal end-to-end latency"
        );
        assert!(entry.stage_nanos[Stage::Projection as usize] > 0);
        assert!(entry.stage_nanos[Stage::TreeProbe as usize] > 0);
        let stats = engine.stats();
        assert_eq!(stats.searches, 2);
        assert_eq!(stats.knn_requests, 2);
        assert_eq!(stats.rcnn_requests, 0);
        assert!(stats.uptime_secs > 0.0);
        assert!(stats.started_at_unix > 0);
    }

    #[test]
    fn metrics_renderings_cover_the_catalogue() {
        let engine = engine(1, 8);
        assert!(engine.search(&[0.1; 12], 3).wait().is_ok());
        assert!(engine
            .search_with(
                &[0.1; 12],
                3,
                SearchOptions {
                    trace: true,
                    ..SearchOptions::default()
                },
            )
            .wait()
            .is_ok());
        let prom = engine.render_metrics_prometheus();
        for needle in [
            "dblsh_requests_total{op=\"knn\"} 2\n",
            "dblsh_requests_total{op=\"rcnn\"} 0\n",
            "# TYPE dblsh_request_seconds summary",
            "dblsh_stage_seconds{stage=\"projection\",quantile=\"0.5\"}",
            "dblsh_queue_depth 0\n",
            "dblsh_live_points 400\n",
            "dblsh_wal_truncations_recovered 0\n",
        ] {
            assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
        }
        let json = engine.render_metrics_json();
        assert!(
            json.contains("\"name\":\"dblsh_request_seconds\""),
            "{json}"
        );
        assert!(json.contains("\"kind\":\"histogram\""), "{json}");
        // same registry behind both renderings
        assert!(Arc::ptr_eq(engine.registry(), &engine.metrics.registry));
    }

    #[test]
    fn engine_stats_merge_accumulates() {
        let mut buckets = [0u64; 64];
        buckets[16] = 10; // 10 searches around 65-131 us
        let a = EngineStats {
            searches: 10,
            qps: 5.0,
            elapsed_secs: 2.0,
            mean_latency_us: 100.0,
            p50_latency_us: log2_quantile_us(&buckets, 0.50),
            p99_latency_us: log2_quantile_us(&buckets, 0.99),
            latency_buckets: buckets,
            ..EngineStats::default()
        };
        let mut total = EngineStats::default();
        total.merge(&a);
        total.merge(&a);
        assert_eq!(total.searches, 20);
        // sequential sweeps: lifetimes add, so throughput stays honest
        assert_eq!(total.elapsed_secs, 4.0);
        assert_eq!(total.qps, 5.0);
        assert_eq!(total.mean_latency_us, 100.0);
        assert_eq!(total.latency_buckets[16], 20);
        // Quantiles are recomputed from the combined histogram; with
        // every observation in bucket 16 they must stay inside it
        // ([2^16, 2^17) ns = [65.536, 131.072) us).
        assert_eq!(
            total.p50_latency_us,
            log2_quantile_us(&total.latency_buckets, 0.50)
        );
        assert_eq!(
            total.p99_latency_us,
            log2_quantile_us(&total.latency_buckets, 0.99)
        );
        for q in [total.p50_latency_us, total.p99_latency_us] {
            assert!((65.536..131.072).contains(&q), "{q} outside bucket 16");
        }
    }

    #[test]
    fn engine_stats_merge_recomputes_quantiles_from_the_histogram() {
        // Engine A: 90 fast requests (bucket 10, ~1-2 us). Engine B: 10
        // slow ones (bucket 20, ~1-2 ms). The merged p50 must stay in
        // the fast bucket — max-of-maxes would have reported B's much
        // larger median for the combined stream.
        let mut fast = [0u64; 64];
        fast[10] = 90;
        let mut slow = [0u64; 64];
        slow[20] = 10;
        let a = EngineStats {
            searches: 90,
            p50_latency_us: log2_quantile_us(&fast, 0.50),
            p99_latency_us: log2_quantile_us(&fast, 0.99),
            latency_buckets: fast,
            ..EngineStats::default()
        };
        let b = EngineStats {
            searches: 10,
            p50_latency_us: log2_quantile_us(&slow, 0.50),
            p99_latency_us: log2_quantile_us(&slow, 0.99),
            latency_buckets: slow,
            ..EngineStats::default()
        };
        let mut total = a.clone();
        total.merge(&b);
        // combined: rank 50 of 100 falls in the fast bucket; rank 99 in
        // the slow one
        assert_eq!(bucket_of((total.p50_latency_us * 1e3) as u64), 10);
        assert_eq!(bucket_of((total.p99_latency_us * 1e3) as u64), 20);
        assert!(total.p50_latency_us < b.p50_latency_us);
        // and the fold is symmetric
        let mut rev = b.clone();
        rev.merge(&a);
        assert_eq!(rev.p50_latency_us, total.p50_latency_us);
        assert_eq!(rev.p99_latency_us, total.p99_latency_us);
    }
}
