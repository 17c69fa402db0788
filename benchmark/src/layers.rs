//! The traced run: every per-layer metric of one workload, measured
//! from outside — the benchmark times its own calls into each layer's
//! public functions, with inputs captured from the workload, and records
//! one span per call. Layer names are the repo's module names.
//!
//! The request log is the workload's query log. Every request gets a
//! `request` span around the real `search_canonical` call; on a fixed
//! stride of requests the same query is then replayed through each
//! layer in turn (projection, window probes at exactly the radii the
//! query used, SQ8 bound scan and exact kernel on exactly the ids those
//! windows returned, classic ladder, sharded fan-out, engine queue, TCP),
//! all as child spans of that request.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use db_lsh::data::kernels::sq_dist_block;
use db_lsh::data::metrics::mean;
use db_lsh::data::sq8::{lower_bound_block, Sq8Query};
use db_lsh::data::wal::WalFile;
use db_lsh::index::{RStarTree, Rect};
use db_lsh::{DbLsh, QueryStats, SearchOptions, SearchResult, ShardedDbLsh};

use crate::e2e::{err, same_answer, scratch_dir, secs, us, Latencies, Report, Res, Srv};
use crate::json::obj;
use crate::spec::{Serve, Workload, K};
use crate::trace::{SpanId, Trace};
use crate::workload::{builder, Inputs};

/// Requests replayed layer by layer per second of `--seconds`: at the
/// default 10 s every 5th request of the 2 000, at 50 s and above all.
const REPLAYS_PER_SECOND: f64 = 40.0;
/// Direct inserts for the `*.insert_us` layers.
const WRITES: usize = 600;
/// Direct removes for the `*.remove_us` layers: the inserted points plus
/// base ids — 12% of a 20k fleet, so a 10% compaction policy fires.
const REMOVES: usize = 4 * WRITES;
/// Records of the WAL micro-run.
const WAL_RECORDS: usize = 2_000;

/// The benchmark-owned copy of the index's `L` trees plus the buffers of
/// a window replay.
struct Replay<'a> {
    index: &'a DbLsh,
    trees: Vec<RStarTree>,
    /// `stamp[id] == request + 1` once the request has seen `id` — the
    /// hot path's visited set, without the clearing.
    stamp: Vec<u32>,
    qproj: Vec<f64>,
    prep: Sq8Query,
    hits: Vec<u32>,
    block: Vec<u32>,
    bounds: Vec<f32>,
    dists: Vec<f32>,
}

/// Work counts of the replays, recorded at the same boundaries as the
/// spans.
#[derive(Default)]
struct Counts {
    probes: u64,
    probe_ids: u64,
    block_rows: u64,
    replayed: u64,
}

impl Replay<'_> {
    /// Replay one answered query through the projection, tree, SQ8 and
    /// kernel layers. Returns false if the replay saw different window
    /// contents than the query itself reported.
    fn run(
        &mut self,
        q: &[f32],
        stats: &QueryStats,
        trace: &mut Trace,
        root: SpanId,
        counts: &mut Counts,
    ) -> bool {
        let p = self.index.params();
        let (l, k) = (p.l, p.k);
        let hasher = self.index.hasher();
        let qproj = &mut self.qproj;
        trace.call("core.hasher.project", root, || {
            for i in 0..l {
                hasher.project_into(i, q, &mut qproj[i * k..(i + 1) * k]);
            }
        });
        self.index.sq8_store().prepare_query(q, &mut self.prep);

        let request = trace.spans()[root as usize].request + 1;
        let store = self.index.proj_store();
        let flat = self.index.data().flat();
        let dim = self.index.data().dim();
        let (mut seen, mut fresh) = (0usize, 0usize);
        let mut r = p.r_min;
        for round in 0..stats.rounds {
            // The last round a query begins may end before any probe (its
            // top-k already lies within c·r); the query's own probe count
            // says whether it did.
            if round + 1 == stats.rounds && seen == stats.index_probes {
                break;
            }
            self.hits.clear();
            for (i, tree) in self.trees.iter().enumerate() {
                let view = store.view(i);
                let window = Rect::centered_cube(&self.qproj[i * k..(i + 1) * k], p.w0 * r);
                let hits = &mut self.hits;
                trace.call("index.window", root, || {
                    let mut cursor = tree.window(&view, &window);
                    while let Some(batch) = cursor.next_batch() {
                        hits.extend_from_slice(batch);
                    }
                });
                counts.probes += 1;
            }
            seen += self.hits.len();
            self.block.clear();
            for &id in &self.hits {
                if self.stamp[id as usize] != request {
                    self.stamp[id as usize] = request;
                    self.block.push(id);
                }
            }
            if !self.block.is_empty() {
                // Memory order, as the hot path sorts its blocks. The ids
                // are internal row numbers; scanning `data().flat()` at
                // those rows has the verification's exact access pattern.
                self.block.sort_unstable();
                fresh += self.block.len();
                let (prep, block, bounds) = (&self.prep, &self.block, &mut self.bounds);
                let sq8 = self.index.sq8_store();
                trace.call("data.sq8.lower_bound_block", root, || {
                    lower_bound_block(prep, sq8, block, bounds);
                });
                self.dists.resize(self.block.len(), 0.0);
                let dists = &mut self.dists;
                trace.call("data.kernels.sq_dist_block", root, || {
                    sq_dist_block(q, flat, dim, block, dists);
                });
                std::hint::black_box((&self.bounds, &self.dists));
            }
            r *= p.c;
        }
        counts.probe_ids += seen as u64;
        counts.block_rows += fresh as u64;
        counts.replayed += 1;
        seen == stats.index_probes && fresh == stats.prefilter_pruned + stats.prefilter_survivors
    }
}

fn mean_us(trace: &Trace, name: &str) -> f64 {
    mean(&trace.durations(name)) / 1e3
}

fn sum_ns(trace: &Trace, name: &str) -> f64 {
    trace.durations(name).iter().sum()
}

/// `WRITES` direct inserts of pool rows, then `REMOVES` removes: those
/// ids plus base ids spread over the whole id space. Returns (mean insert
/// us, mean remove us, failed).
fn direct_writes<T>(
    inp: &Inputs,
    target: &mut T,
    insert: impl Fn(&mut T, &[f32]) -> Option<u32>,
    remove: impl Fn(&mut T, u32) -> bool,
) -> (f64, f64, usize) {
    let mut lat = Latencies::insert_then_remove(target, &inp.pool, 0..WRITES, insert, &remove);
    let base = REMOVES - lat.remove_us.len();
    let step = inp.base.len() / base;
    for id in (0..base).map(|i| (i * step) as u32) {
        let t = Instant::now();
        let removed = remove(target, id);
        lat.remove_us.push(us(t));
        lat.failed += usize::from(!removed);
    }
    (mean(&lat.insert_us), mean(&lat.remove_us), lat.failed)
}

/// `data.wal.*`: appends of insert-sized payloads, syncs, and a replay.
fn wal_layer(dir: &Path, dim: usize, rep: &mut Report) -> Res<()> {
    const KIND: [u8; 4] = *b"BNCH";
    const SYNC_EVERY: usize = 500;
    let path = dir.join("micro.dblshwal");
    // An insert record carries the global id and the point.
    let payload = vec![0x5a_u8; 8 + 4 * dim];
    let mut wal = WalFile::create(&path, KIND).map_err(err)?;
    let header = wal.len();
    let (mut append_ns, mut sync_ns) = (0u128, Vec::new());
    for i in 0..WAL_RECORDS {
        let t = Instant::now();
        wal.append(&payload).map_err(err)?;
        append_ns += t.elapsed().as_nanos();
        if (i + 1) % SYNC_EVERY == 0 {
            let t = Instant::now();
            wal.sync().map_err(err)?;
            sync_ns.push(us(t));
        }
    }
    rep.metric(
        "data.wal.append_us",
        append_ns as f64 / 1e3 / WAL_RECORDS as f64,
    );
    rep.metric("data.wal.sync_us", mean(&sync_ns));
    rep.metric(
        "data.wal.bytes_per_record",
        (wal.len() - header) as f64 / WAL_RECORDS as f64,
    );
    drop(wal);
    let t = Instant::now();
    let (_, replay) = WalFile::open(&path, KIND).map_err(err)?;
    rep.metric(
        "data.wal.replay_records_per_s",
        replay.records.len() as f64 / secs(t),
    );
    rep.ops(
        WAL_RECORDS,
        WAL_RECORDS - replay.records.len().min(WAL_RECORDS),
        "WAL replay lost records",
    );
    Ok(())
}

/// The timing metrics of pass C, as means over the replayed requests so
/// that the parts add up.
fn replay_metrics(
    trace: &Trace,
    counts: &Counts,
    replay_roots: &[SpanId],
    verify_ns: u64,
    dim: usize,
    rep: &mut Report,
) {
    let n = replay_roots.len();
    // Means over the replayed requests: pass B's spans share the name, so
    // select pass C's by parent.
    let replayed = |name: &str| -> Vec<f64> {
        trace
            .spans()
            .iter()
            .filter(|s| {
                s.name == name
                    && s.parent
                        .is_some_and(|p| trace.spans()[p as usize].name == "replay")
            })
            .map(|s| s.nanos() as f64)
            .collect()
    };
    let search_us = mean(&replayed("core.query.search")) / 1e3;
    let project_us = mean_us(trace, "core.hasher.project");
    let window_ns = sum_ns(trace, "index.window");
    let verify_us = verify_ns as f64 / 1e3 / n as f64;
    rep.metric("core.query.search_us", search_us);
    rep.metric("core.hasher.project_query_us", project_us);
    rep.metric(
        "index.window_us_per_probe",
        window_ns / 1e3 / counts.probes as f64,
    );
    rep.metric(
        "index.window_ids_per_probe",
        counts.probe_ids as f64 / counts.probes as f64,
    );
    rep.metric("core.query.verify_us", verify_us);
    // What the replayable layers do not explain: ladder control, the
    // visited set, SQ8 query preparation, scratch handling, result
    // assembly. By construction the four parts sum to search_us.
    rep.metric(
        "core.query.unattributed_us",
        search_us - project_us - window_ns / 1e3 / n as f64 - verify_us,
    );
    rep.metric(
        "core.query.classic_k_ann_us",
        mean_us(trace, "core.query.k_ann"),
    );
    let rows = counts.block_rows as f64;
    let sq8_ns = sum_ns(trace, "data.sq8.lower_bound_block");
    let kernel_ns = sum_ns(trace, "data.kernels.sq_dist_block");
    rep.metric("data.sq8.lower_bound_block_ns_per_row", sq8_ns / rows);
    rep.metric("data.kernels.sq_dist_block_ns_per_row", kernel_ns / rows);
    // Computed bytes (rows x dim x 4), not measured memory traffic.
    rep.metric(
        "data.kernels.sq_dist_block_gb_s",
        rows * dim as f64 * 4.0 / kernel_ns,
    );
    let shard_us = mean_us(trace, "serve.shard.search");
    let engine_us = mean_us(trace, "serve.engine.search");
    let net_us = mean_us(trace, "net.knn");
    rep.metric("serve.shard.search_us", shard_us);
    rep.metric("serve.shard.fanout_overhead_us", shard_us - search_us);
    rep.metric("serve.engine.search_us", engine_us);
    rep.metric("serve.engine.dispatch_overhead_us", engine_us - shard_us);
    rep.metric("net.knn_us", net_us);
    rep.metric("net.wire_overhead_us", net_us - engine_us);
    let self_us: Vec<f64> = replay_roots
        .iter()
        .map(|&r| trace.self_nanos(r) as f64 / 1e3)
        .collect();
    rep.note(format!(
        "trace: {} spans, {} requests replayed; request self time (outside any layer call) {:.2} us mean",
        trace.spans().len(),
        n,
        mean(&self_us)
    ));
}

/// `net`, `serve.engine` and `serve.shard` measurements that need no
/// replay: an idle round trip, the queue depth a single caller sees,
/// direct writes with compaction, the snapshot directory, and the stack's
/// own counters at shutdown.
fn serving_layers(
    w: &Workload,
    inp: &Inputs,
    mut srv: Srv,
    n: usize,
    dir: &Path,
    rep: &mut Report,
) -> Res<()> {
    let queries = &inp.queries;
    // ---- net / serve.engine: an idle round trip and the counters.
    let mut ping_us = Vec::with_capacity(n);
    let mut depth_max = 0;
    for i in 0..n as u64 {
        let t = Instant::now();
        let pong = srv.clients[0].ping(i);
        ping_us.push(us(t));
        rep.check(pong.is_ok_and(|p| p == i), "ping was not echoed");
        let ticket = srv.engine.search(queries.point(i as usize), K);
        depth_max = depth_max.max(srv.engine.stats().queue_depth);
        rep.check(ticket.wait().is_ok(), "engine search failed");
    }
    rep.metric("net.ping_rtt_us", mean(&ping_us));
    rep.metric("serve.engine.queue_depth_max", depth_max as f64);

    // ---- serve.shard: direct writes, compaction, snapshot directory.
    let mut fleet = Arc::clone(srv.engine.index());
    let (insert_us, remove_us, failed) = direct_writes(
        inp,
        &mut fleet,
        |f, p| f.insert(p).ok(),
        |f, id| matches!(f.remove(id), Ok(true)),
    );
    rep.ops(
        WRITES + REMOVES,
        failed,
        "direct fleet insert or remove failed",
    );
    rep.metric("serve.shard.insert_us", insert_us);
    rep.metric("serve.shard.remove_us", remove_us);
    rep.metric("serve.shard.compactions", fleet.compaction_count() as f64);
    rep.metric("serve.shard.dead_rows_end", fleet.dead_rows() as f64);
    fleet.check_invariants();
    let (save_dir_s, load_dir_s) = fleet_snapshot(w, &fleet, dir)?;
    rep.metric("serve.shard.save_dir_s", save_dir_s);
    rep.metric("serve.shard.load_dir_s", load_dir_s);
    drop(fleet);

    let eng = srv.engine.stats();
    rep.metric("serve.engine.p99_latency_us", eng.p99_latency_us);
    rep.metric("serve.engine.rejected", eng.rejected as f64);
    rep.metric("serve.engine.deadline_expired", eng.deadline_expired as f64);
    rep.metric("serve.engine.errors", eng.errors as f64);
    let (net, _) = srv.shut_down();
    rep.metric("net.requests", net.requests as f64);
    rep.metric("net.errors", net.errors as f64);
    rep.metric("net.refused", net.refused as f64);
    rep.check(
        eng.errors + eng.rejected + eng.deadline_expired + net.errors + net.refused == 0,
        "the serving stack counted failed or refused operations",
    );

    Ok(())
}

/// `core.snapshot` against memory, then `core.index` direct writes and
/// one compaction — last, because they change the index.
fn index_layers(mut index: DbLsh, inp: &Inputs, rep: &mut Report) -> Res<()> {
    // ---- core.snapshot: the codec without the disk.
    let mut bytes = Vec::new();
    let t = Instant::now();
    index.save(&mut bytes).map_err(err)?;
    rep.metric("core.snapshot.save_mem_s", secs(t));
    rep.metric("core.snapshot.bytes", bytes.len() as f64);
    let t = Instant::now();
    let loaded = DbLsh::load(&bytes[..]).map_err(err)?;
    rep.metric("core.snapshot.load_mem_s", secs(t));
    rep.check(
        loaded.len() == index.len(),
        "index loaded from memory has a different len()",
    );
    drop((loaded, bytes));

    // ---- core.index: direct writes and one compaction.
    let (insert_us, remove_us, failed) = direct_writes(
        inp,
        &mut index,
        |x, p| x.insert(p).ok(),
        |x, id| matches!(x.remove(id), Ok(true)),
    );
    rep.ops(
        WRITES + REMOVES,
        failed,
        "direct index insert or remove failed",
    );
    rep.metric("core.index.insert_us", insert_us);
    rep.metric("core.index.remove_us", remove_us);
    let t = Instant::now();
    let compaction = index.compact();
    rep.metric("core.index.compact_ms", secs(t) * 1e3);
    rep.check(
        compaction.dropped_rows == REMOVES,
        "compaction dropped another number of rows",
    );
    index.check_invariants();

    Ok(())
}

/// Run one workload traced and report every per-layer metric.
pub fn run(w: &Workload, inp: &Inputs, seed: u64, seconds: f64) -> Res<Report> {
    let mut rep = Report::default();
    let dir = scratch_dir(w.name)?;
    let queries = &inp.queries;
    let opts = SearchOptions::default();

    // ---- core.index / core.hasher / index: building blocks of set-up.
    let t = Instant::now();
    let index = builder(seed).build(Arc::clone(&inp.base)).map_err(err)?;
    rep.metric("core.index.build_s", secs(t));
    let mem = index.memory_breakdown();
    rep.metric("core.index.proj_store_bytes", mem.proj_store_bytes as f64);
    rep.metric("core.index.tree_bytes", mem.tree_bytes as f64);
    rep.metric("core.index.relabel_bytes", mem.relabel_bytes as f64);
    rep.metric("core.index.sq8_bytes", mem.sq8_bytes as f64);

    let params = index.params().clone();
    let t = Instant::now();
    for i in 0..params.l {
        std::hint::black_box(index.hasher().project_all(i, inp.base.flat()));
    }
    rep.metric("core.hasher.project_all_s", secs(t));

    let ids: Vec<u32> = (0..index.proj_store().len() as u32).collect();
    let t = Instant::now();
    let trees: Vec<RStarTree> = (0..params.l)
        .map(|i| {
            RStarTree::bulk_load_with_capacity(
                &index.proj_store().view(i),
                &ids,
                params.node_capacity,
            )
        })
        .collect();
    rep.metric("index.bulk_load_s", secs(t));

    // ---- The serving stack over the same data, idle until replayed into.
    let mut srv = Srv::set_up(w, inp, seed, &dir)?;

    // ---- Pass A, untraced: the reference answers and exact work counts
    // (after one untimed pass, so that A and B both run warm).
    for q in 0..queries.len() {
        index
            .search_canonical(queries.point(q), K, &opts)
            .map_err(err)?;
    }
    let t = Instant::now();
    let answers: Vec<SearchResult> = (0..queries.len())
        .map(|q| {
            index
                .search_canonical(queries.point(q), K, &opts)
                .map_err(err)
        })
        .collect::<Res<_>>()?;
    let untraced_s = secs(t);
    let total = QueryStats::merged(answers.iter().map(|a| &a.stats));
    let per_query = |v: usize| v as f64 / queries.len() as f64;
    rep.metric("core.query.rounds_per_query", per_query(total.rounds));
    rep.metric(
        "core.query.index_probes_per_query",
        per_query(total.index_probes),
    );
    rep.metric(
        "core.query.candidates_per_query",
        per_query(total.candidates),
    );
    rep.metric(
        "core.query.prefilter_pruned_per_query",
        per_query(total.prefilter_pruned),
    );
    rep.metric(
        "data.sq8.prune_rate",
        total.prefilter_pruned as f64
            / (total.prefilter_pruned + total.prefilter_survivors).max(1) as f64,
    );

    // ---- Pass B, traced: one span per request around the same call. Its
    // wall time against pass A's is what tracing itself costs.
    let mut trace = Trace::new();
    let mut differing = 0;
    let t = Instant::now();
    for (q, want) in answers.iter().enumerate() {
        let root = trace.begin("request", None, q as u32);
        let (res, _) = trace.call("core.query.search", root, || {
            index.search_canonical(queries.point(q), K, &opts)
        });
        trace.end(root);
        differing += usize::from(!res.is_ok_and(|r| same_answer(&r, want)));
    }
    let traced_s = secs(t);
    rep.ops(
        queries.len(),
        differing,
        "traced answer differs from the untraced one",
    );
    rep.metric("trace.overhead_share", (traced_s - untraced_s) / untraced_s);

    // ---- Pass C: layer-by-layer replay of every `stride`-th request.
    let mut replay = Replay {
        index: &index,
        trees,
        stamp: vec![0; index.proj_store().len()],
        qproj: vec![0.0; params.l * params.k],
        prep: Sq8Query::empty(),
        hits: Vec::new(),
        block: Vec::new(),
        bounds: Vec::new(),
        dists: Vec::new(),
    };
    let timed = SearchOptions {
        time_verification: true,
        ..SearchOptions::default()
    };
    let mut counts = Counts::default();
    let mut verify_ns = 0u64;
    let (mut replay_bad, mut stack_bad) = (0, 0);
    let stride = (queries.len() as f64 / (REPLAYS_PER_SECOND * seconds))
        .round()
        .max(1.0) as usize;
    let sampled: Vec<usize> = (0..queries.len()).step_by(stride).collect();
    let mut replay_roots = Vec::with_capacity(sampled.len());
    for &q in &sampled {
        let point = queries.point(q);
        let want = &answers[q];
        let root = trace.begin("replay", None, q as u32);
        replay_roots.push(root);
        trace
            .call("core.query.search", root, || {
                index.search_canonical(point, K, &opts)
            })
            .0
            .map_err(err)?;
        let (with_timing, _) = trace.call("core.query.search_timed", root, || {
            index.search_canonical(point, K, &timed)
        });
        verify_ns += with_timing.map_err(err)?.stats.verify_nanos;
        replay_bad += usize::from(!replay.run(point, &want.stats, &mut trace, root, &mut counts));
        trace
            .call("core.query.k_ann", root, || index.k_ann(point, K))
            .0
            .map_err(err)?;
        let (shard, _) = trace.call("serve.shard.search", root, || {
            srv.fleet().search_with(point, K, &opts)
        });
        let (engine, _) = trace.call("serve.engine.search", root, || {
            srv.engine.search(point, K).wait()
        });
        let client = &mut srv.clients[0];
        let (net, _) = trace.call("net.knn", root, || client.knn(point, K));
        trace.end(root);
        for got in [shard.ok(), engine.ok(), net.ok()] {
            stack_bad += usize::from(!got.is_some_and(|g| same_answer(&g, want)));
        }
    }
    drop(replay);
    let n = sampled.len();
    rep.ops(
        n,
        replay_bad,
        "window replay saw other ids than the query reported",
    );
    rep.ops(
        3 * n,
        stack_bad,
        "shard, engine or TCP answer differs from search_canonical",
    );

    replay_metrics(
        &trace,
        &counts,
        &replay_roots,
        verify_ns,
        inp.base.dim(),
        &mut rep,
    );

    serving_layers(w, inp, srv, n, &dir, &mut rep)?;

    index_layers(index, inp, &mut rep)?;
    wal_layer(&dir, inp.base.dim(), &mut rep)?;

    let trace_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{}.json", w.name));
    let counts = obj([
        ("requests", (queries.len() as u64).into()),
        ("replayed", counts.replayed.into()),
        ("index.window.probes", counts.probes.into()),
        ("index.window.ids", counts.probe_ids.into()),
        ("verification.block_rows", counts.block_rows.into()),
        ("core.query.rounds", (total.rounds as u64).into()),
        (
            "core.query.index_probes",
            (total.index_probes as u64).into(),
        ),
        ("core.query.candidates", (total.candidates as u64).into()),
        (
            "core.query.prefilter_pruned",
            (total.prefilter_pruned as u64).into(),
        ),
        (
            "core.query.prefilter_survivors",
            (total.prefilter_survivors as u64).into(),
        ),
    ]);
    std::fs::write(&trace_path, trace.to_json(counts).render() + "\n")
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    rep.note(format!("wrote {}", trace_path.display()));
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(rep)
}

/// `save_dir` / `load_dir` of the fleet the writes above left behind. A
/// WAL-backed fleet recovers from a byte copy of its directory (snapshot
/// plus the logged writes) and then checkpoints; a plain one saves, then
/// loads what it saved.
fn fleet_snapshot(w: &Workload, fleet: &ShardedDbLsh, dir: &Path) -> Res<(f64, f64)> {
    let timed_load = |from: &Path| -> Res<f64> {
        let t = Instant::now();
        let loaded = ShardedDbLsh::load_dir(from).map_err(err)?;
        let s = secs(t);
        if loaded.len() != fleet.len() {
            return Err("fleet loaded from its directory has a different len()".into());
        }
        Ok(s)
    };
    let timed_save = |to: &Path| -> Res<f64> {
        let t = Instant::now();
        fleet.save_dir(to).map_err(err)?;
        Ok(secs(t))
    };
    if w.serve == Some(Serve::Churn) {
        fleet.sync_wal().map_err(err)?;
        let copy = dir.join("recovered");
        crate::e2e::copy_dir(&dir.join("wal"), &copy)?;
        let load_s = timed_load(&copy)?;
        Ok((timed_save(&dir.join("wal"))?, load_s))
    } else {
        let save_s = timed_save(&dir.join("snap"))?;
        Ok((save_s, timed_load(&dir.join("snap"))?))
    }
}
