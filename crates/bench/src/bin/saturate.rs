//! Saturation harness for the serving engine: drive an
//! [`dblsh_serve::Engine`] over a sharded index with a mixed
//! read/write workload at increasing worker counts and print a
//! throughput/latency table.
//!
//! Every sweep rebuilds the index from the same seed and replays the
//! *identical* request sequence (same queries, same insert points, same
//! remove targets, same interleaving), so worker count is the only
//! variable and the run is reproducible from `--seed`.
//!
//! Run: `cargo run -p dblsh-bench --release --bin saturate -- \
//!           --shards 4 --threads 4 --n 100k`
//!
//! Flags (all optional): `--n` points (default 100k; `k`/`m` suffixes),
//! `--dim` (32), `--shards` (4), `--threads` max workers (4; the sweep
//! doubles 1,2,4,... up to it), `--requests` per sweep (20k),
//! `--queries` distinct query points (1000), `--k` (10), `--write-frac`
//! fraction of requests that are writes (0.10), `--remove-frac` the
//! share of those writes that are removes rather than inserts (0.5; a
//! churn scenario like `--write-frac 0.3 --remove-frac 0.8` makes the
//! engine's per-shard compaction policy earn its keep), `--queue`
//! capacity (1024), `--seed` (42). With any removes in the mix the
//! engine runs under the default [`dblsh_serve::CompactionPolicy`], and
//! the sweep footer prints how many shard compactions fired. `--json
//! <path>` additionally writes the whole sweep (config + per-worker
//! QPS/p50/p99 rows) as a machine-readable `BENCH_*.json` artifact.

use std::sync::Arc;
use std::time::Instant;

use dblsh_core::DbLshBuilder;
use dblsh_data::synthetic::{gaussian_mixture, split_queries, MixtureConfig};
use dblsh_serve::{Engine, EngineConfig, ShardPolicy, ShardedDbLsh};
use rand::prelude::*;
use rand::rngs::StdRng;

#[derive(Debug, Clone)]
struct Args {
    n: usize,
    dim: usize,
    shards: usize,
    threads: usize,
    requests: usize,
    queries: usize,
    k: usize,
    write_frac: f64,
    remove_frac: f64,
    queue: usize,
    seed: u64,
    json: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            n: 100_000,
            dim: 32,
            shards: 4,
            threads: 4,
            requests: 20_000,
            queries: 1000,
            k: 10,
            write_frac: 0.10,
            remove_frac: 0.5,
            queue: 1024,
            seed: 42,
            json: None,
        }
    }
}

/// Parse `"20k"` / `"1m"` / plain integers.
fn parse_count(s: &str) -> usize {
    let lower = s.trim().to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm']) {
        Some(d) if lower.ends_with('k') => (d, 1_000),
        Some(d) => (d, 1_000_000),
        None => (lower.as_str(), 1),
    };
    digits
        .parse::<usize>()
        .unwrap_or_else(|_| panic!("not a count: {s:?}"))
        * mult
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--n" => args.n = parse_count(&value("--n")),
            "--dim" => args.dim = parse_count(&value("--dim")),
            "--shards" => args.shards = parse_count(&value("--shards")),
            "--threads" => args.threads = parse_count(&value("--threads")),
            "--requests" => args.requests = parse_count(&value("--requests")),
            "--queries" => args.queries = parse_count(&value("--queries")),
            "--k" => args.k = parse_count(&value("--k")),
            "--write-frac" => {
                args.write_frac = value("--write-frac").parse().expect("write fraction")
            }
            "--remove-frac" => {
                args.remove_frac = value("--remove-frac").parse().expect("remove fraction")
            }
            "--queue" => args.queue = parse_count(&value("--queue")),
            "--seed" => args.seed = value("--seed").parse().expect("seed"),
            "--json" => args.json = Some(value("--json")),
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }
    args
}

/// One request of the pre-generated, seed-deterministic workload.
enum Op {
    Search(usize),
    Insert(usize),
    Remove(u32),
}

fn main() {
    let args = parse_args();
    println!("== saturate: {args:?} ==");

    // Seed-deterministic data, queries, and workload.
    let mut data = gaussian_mixture(&MixtureConfig {
        n: args.n + args.queries,
        dim: args.dim,
        clusters: 40,
        cluster_std: 1.0,
        spread: 60.0,
        noise_frac: 0.02,
        seed: args.seed,
    });
    let queries = split_queries(&mut data, args.queries, args.seed ^ 0xABCD);
    let builder = DbLshBuilder::new().auto_r_min().seed(args.seed);
    let params = builder
        .resolve_params_for(&data)
        .expect("saturate parameters");
    println!(
        "cloud: {} points x {}d, params K={} L={} r_min={:.4}, {} shards",
        data.len(),
        data.dim(),
        params.k,
        params.l,
        params.r_min,
        args.shards
    );

    assert!(
        (0.0..=1.0).contains(&args.remove_frac),
        "--remove-frac must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5A7E);
    let writes = (args.requests as f64 * args.write_frac) as usize;
    let removes = ((writes as f64 * args.remove_frac) as usize).min(args.n);
    let inserts = writes - removes;
    // Insert points: fresh random vectors in the data's range. Remove
    // targets: distinct bulk ids, each removed exactly once per sweep.
    let insert_points: Vec<Vec<f32>> = (0..inserts)
        .map(|_| (0..args.dim).map(|_| rng.gen_range(-60.0..60.0)).collect())
        .collect();
    let mut remove_ids: Vec<u32> = (0..data.len() as u32).collect();
    for i in (1..remove_ids.len()).rev() {
        remove_ids.swap(i, rng.gen_range(0..i + 1));
    }
    remove_ids.truncate(removes);
    // Interleave deterministically: writes spread evenly through the run.
    let mut ops: Vec<Op> = Vec::with_capacity(args.requests);
    let (mut next_insert, mut next_remove) = (0usize, 0usize);
    let stride = if writes > 0 {
        args.requests.div_ceil(writes)
    } else {
        usize::MAX
    };
    for j in 0..args.requests {
        if stride != usize::MAX && j % stride == 0 && next_insert < inserts {
            ops.push(Op::Insert(next_insert));
            next_insert += 1;
        } else if stride != usize::MAX && j % stride == stride / 2 && next_remove < removes {
            ops.push(Op::Remove(remove_ids[next_remove]));
            next_remove += 1;
        } else {
            ops.push(Op::Search(j % queries.len()));
        }
    }

    // Worker sweep: 1, 2, 4, ... up to --threads.
    let mut sweep = Vec::new();
    let mut w = 1;
    while w < args.threads {
        sweep.push(w);
        w *= 2;
    }
    sweep.push(args.threads);
    sweep.dedup();

    println!(
        "\n{:>7} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10} {:>7} {:>8}",
        "workers",
        "req/s",
        "srch QPS",
        "mean us",
        "p50 us",
        "p99 us",
        "cand/srch",
        "errors",
        "speedup"
    );
    let mut baseline_rps = 0.0f64;
    let mut qps_by_workers = Vec::new();
    let mut compactions_by_workers: Vec<(usize, u64)> = Vec::new();
    let mut json_rows: Vec<dblsh_bench::json::Json> = Vec::new();
    let (mut wal_truncations_total, mut panics_total) = (0u64, 0u64);
    for &workers in &sweep {
        // Fresh index per sweep: identical starting state, so worker
        // count is the only variable. Any churn in the mix runs under
        // the default per-shard compaction policy, so the sweep also
        // exercises write-lock compactions racing reads.
        let mut sharded =
            ShardedDbLsh::build_with_params(&data, &params, args.shards, ShardPolicy::RoundRobin)
                .expect("sharded build");
        if removes > 0 {
            sharded = sharded.with_compaction_policy(dblsh_serve::CompactionPolicy::default());
        }
        let index = Arc::new(sharded);
        let engine = Engine::start(
            Arc::clone(&index),
            EngineConfig {
                workers,
                queue_capacity: args.queue,
            },
        );
        let started = Instant::now();
        let mut search_tickets = Vec::with_capacity(args.requests);
        let mut insert_tickets = Vec::new();
        let mut remove_tickets = Vec::new();
        for op in &ops {
            match op {
                Op::Search(qi) => {
                    search_tickets.push(engine.search(queries.point(*qi), args.k));
                }
                Op::Insert(pi) => insert_tickets.push(engine.insert(&insert_points[*pi])),
                Op::Remove(id) => remove_tickets.push(engine.remove(*id)),
            }
        }
        let mut answered = 0usize;
        for t in search_tickets {
            answered += usize::from(t.wait().is_ok());
        }
        let writes_ok = insert_tickets.into_iter().all(|t| t.wait().is_ok())
            && remove_tickets.into_iter().all(|t| t.wait().is_ok());
        let elapsed = started.elapsed().as_secs_f64();
        // Scrape the registry while the engine is live: the exposition
        // must cover the whole workload mix, not just searches.
        let prom = engine.render_metrics_prometheus();
        for needle in [
            "dblsh_requests_total{op=\"knn\"}",
            "dblsh_requests_total{op=\"insert\"}",
            "dblsh_requests_total{op=\"remove\"}",
            "dblsh_request_seconds_count",
        ] {
            assert!(prom.contains(needle), "scrape is missing {needle:?}");
        }
        let stats = engine.shutdown();
        assert_eq!(stats.errors, 0, "workload produced errors");
        assert_eq!(answered as u64, stats.searches, "lost search answers");
        assert!(writes_ok, "writes must succeed");
        let rps = args.requests as f64 / elapsed;
        if workers == sweep[0] {
            baseline_rps = rps;
        }
        let search_qps = stats.searches as f64 / elapsed;
        qps_by_workers.push((workers, search_qps));
        compactions_by_workers.push((workers, index.compaction_count()));
        wal_truncations_total += index.wal_truncations_recovered();
        panics_total += stats.errors;
        println!(
            "{:>7} {:>10.0} {:>10.0} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>7} {:>7.2}x",
            workers,
            rps,
            search_qps,
            stats.mean_latency_us,
            stats.p50_latency_us,
            stats.p99_latency_us,
            stats.query.candidates as f64 / stats.searches.max(1) as f64,
            stats.errors,
            rps / baseline_rps,
        );
        json_rows.push(dblsh_bench::json::obj(vec![
            ("workers", workers.into()),
            ("req_per_s", rps.into()),
            ("search_qps", search_qps.into()),
            ("mean_latency_us", stats.mean_latency_us.into()),
            ("p50_latency_us", stats.p50_latency_us.into()),
            ("p99_latency_us", stats.p99_latency_us.into()),
            (
                "candidates_per_search",
                (stats.query.candidates as f64 / stats.searches.max(1) as f64).into(),
            ),
            ("errors", stats.errors.into()),
            ("rejected", stats.rejected.into()),
            ("compactions", index.compaction_count().into()),
            (
                "wal_truncations_recovered",
                index.wal_truncations_recovered().into(),
            ),
            ("scrape_prometheus_bytes", prom.len().into()),
        ]));
    }
    if removes > 0 {
        println!(
            "\nchurn: {inserts} inserts / {removes} removes per sweep; shard compactions {:?}",
            compactions_by_workers
        );
    }
    // Fault-path counters: this harness injects no faults, so every one
    // of these must stay zero — a non-zero value here means a fault
    // path fired under a clean workload. The torture harness is the one
    // that drives them non-zero on purpose.
    println!(
        "fault path: {wal_truncations_total} WAL truncations recovered, \
         {panics_total} worker panics contained (no faults injected)"
    );
    assert_eq!(
        (wal_truncations_total, panics_total),
        (0, 0),
        "fault-path counters moved without fault injection"
    );
    if let Some(path) = &args.json {
        let doc = dblsh_bench::json::obj(vec![
            ("bench", "saturate".into()),
            (
                "config",
                dblsh_bench::json::obj(vec![
                    ("n", args.n.into()),
                    ("dim", args.dim.into()),
                    ("shards", args.shards.into()),
                    ("threads", args.threads.into()),
                    ("requests", args.requests.into()),
                    ("queries", args.queries.into()),
                    ("k", args.k.into()),
                    ("write_frac", args.write_frac.into()),
                    ("remove_frac", args.remove_frac.into()),
                    ("queue", args.queue.into()),
                    ("seed", args.seed.into()),
                ]),
            ),
            ("sweep", dblsh_bench::json::Json::Arr(json_rows)),
        ]);
        dblsh_bench::json::write_json_file(path, &doc).expect("write --json artifact");
        println!("wrote {path}");
    }

    let increasing = qps_by_workers.windows(2).all(|w| w[1].1 > w[0].1);
    println!(
        "\nQPS {} with workers across the sweep {:?}",
        if increasing {
            "scaled strictly"
        } else {
            "did not scale strictly (core-starved machine?)"
        },
        sweep
    );
    println!("saturate OK");
}
