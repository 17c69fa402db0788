//! Bench-harness smoke run: build DB-LSH over a tiny synthetic dataset,
//! answer queries, and print the per-component index-size breakdown
//! (shared projection store, flat tree arenas, locality-relabel state)
//! plus the query-latency split (`knn_10` mean and the per-query
//! verification time inside it) and the serving layer's sharded
//! vs unsharded `knn_10` numbers with an engine QPS figure. The engine
//! run finishes by binding the TCP front door, scraping the `Metrics`
//! opcode in both exposition formats over a real socket, and writing
//! the `BENCH_serve.json` artifact CI uploads. Fails loudly — CI runs
//! this so layout, recall, hot-path or serving regressions surface
//! before any full experiment does.
//!
//! Run: `cargo run -p dblsh-bench --release --bin smoke`

use std::sync::Arc;

use dblsh_bench::{evaluate, Env};
use dblsh_core::{DbLsh, DbLshParams, SearchOptions};
use dblsh_data::synthetic::MixtureConfig;
use dblsh_data::{AnnIndex, QueryStats};
use dblsh_serve::{Engine, EngineConfig, ShardPolicy, ShardedDbLsh};
use std::time::Instant;

fn main() {
    let mut env = Env::from_config(
        "smoke".into(),
        &MixtureConfig {
            n: 5_000,
            dim: 24,
            clusters: 25,
            cluster_std: 1.0,
            spread: 60.0,
            noise_frac: 0.02,
            seed: 7,
        },
    );

    let params = DbLshParams::paper_defaults(env.data.len()).with_r_min(env.r_hint.max(1e-9));
    let start = Instant::now();
    let index = DbLsh::build(Arc::clone(&env.data), &params).expect("smoke build");
    let build_s = start.elapsed().as_secs_f64();

    // Per-component index size: the one shared ProjStore vs the L
    // id-only tree arenas.
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    let breakdown = index.memory_breakdown();
    println!("== index size breakdown ==");
    println!(
        "ProjStore (n x L*K coords, f32): {:>9.3} MB",
        mb(breakdown.proj_store_bytes)
    );
    println!(
        "{} tree arenas (ids + bounds):    {:>9.3} MB",
        index.params().l,
        mb(breakdown.tree_bytes)
    );
    println!(
        "id maps (2 x u32 per row):       {:>9.3} MB",
        mb(breakdown.relabel_bytes)
    );
    println!(
        "SQ8 codes (u8 per coordinate):   {:>9.3} MB",
        mb(breakdown.sq8_bytes)
    );
    println!(
        "dead (tombstoned) share:         {:>9.3} MB",
        mb(breakdown.dead_bytes)
    );
    assert_eq!(
        breakdown.dead_bytes, 0,
        "fresh build must have no dead rows"
    );
    for (i, s) in index.tree_stats().iter().enumerate() {
        println!(
            "  tree {i}: {} nodes, {} leaf entries, {} inner entries, {:.3} MB",
            s.nodes,
            s.leaf_entries,
            s.inner_entries,
            mb(s.structure_bytes)
        );
    }
    println!(
        "total:                           {:>9.3} MB",
        mb(breakdown.total())
    );
    assert_eq!(breakdown.total(), index.index_size_bytes());
    println!(
        "dataset rows (one copy, internal order, not in the total): {:.3} MB",
        mb(std::mem::size_of_val(index.data().flat()))
    );

    let row = evaluate(&index, &mut env, 10, build_s);
    println!(
        "\nsmoke eval: recall {:.3}, ratio {:.4}, {:.3} ms/query, {:.0} candidates",
        row.recall, row.ratio, row.query_ms, row.candidates
    );

    // Query-latency split: mean knn_10 wall time and, within it, the
    // per-query verification time (SQ8 bound scan + candidate-block sort +
    // fused distance kernel), measured through the opt-in timing counter —
    // once with the SQ8 quantized pre-filter (the default) and once with
    // every candidate going straight to the exact kernel. Answers must be
    // byte-identical either way; only the speed may differ.
    //
    // The tiny parity dataset above fits entirely in cache, where the exact
    // kernel is compute-bound and nothing can beat it — so the pre-filter is
    // measured on its own DRAM-resident regime (the one the paper's datasets
    // live in), where the exact kernel pays ~4x the memory traffic of the
    // u8 code scan per candidate row.
    {
        let venv = Env::from_config(
            "smoke-verify".into(),
            &MixtureConfig {
                n: 300_000,
                dim: 96,
                clusters: 25,
                cluster_std: 1.0,
                spread: 60.0,
                noise_frac: 0.02,
                seed: 11,
            },
        );
        let vparams =
            DbLshParams::paper_defaults(venv.data.len()).with_r_min(venv.r_hint.max(1e-9));
        let vstart = Instant::now();
        let vindex = DbLsh::build(Arc::clone(&venv.data), &vparams).expect("verify-regime build");
        let nq = venv.queries.len();
        println!(
            "\n== verify-path regime (n={}, dim={}, built in {:.1}s) ==",
            venv.data.len(),
            venv.data.dim(),
            vstart.elapsed().as_secs_f64()
        );
        // Serving traffic never replays a query against a warm cache, but a
        // back-to-back on/off replay of the same query would hand the second
        // run all the first run's candidate rows in LLC. Scrub the cache
        // between timed runs so both options measure the cold-row regime the
        // pre-filter exists for.
        let mut scrub = vec![0u8; 96 * 1024 * 1024];
        let mut evict = || {
            for (i, b) in scrub.iter_mut().enumerate() {
                *b = b.wrapping_add(i as u8);
            }
            std::hint::black_box(&scrub);
        };
        let run_one = |prefilter: bool, qi: usize, total: &mut QueryStats| {
            let opts = SearchOptions {
                time_verification: true,
                prefilter,
                ..Default::default()
            };
            let t = Instant::now();
            let res = vindex
                .search_with(venv.queries.point(qi), 10, &opts)
                .expect("timed smoke query");
            let us = t.elapsed().as_secs_f64() * 1e6;
            total.merge(&res.stats);
            (us, res.neighbors)
        };
        let (mut on_us, mut off_us) = (0.0f64, 0.0f64);
        let mut on_total = QueryStats::default();
        let mut off_total = QueryStats::default();
        for qi in 0..nq {
            evict();
            let off = run_one(false, qi, &mut off_total);
            evict();
            let on = run_one(true, qi, &mut on_total);
            assert_eq!(on.1, off.1, "pre-filter changed answers at query {qi}");
            on_us += on.0;
            off_us += off.0;
        }
        let on_us = on_us / nq as f64;
        let off_us = off_us / nq as f64;
        assert_eq!(
            on_total.candidates, off_total.candidates,
            "pre-filter changed the consumed-candidate count"
        );
        assert_eq!(
            (on_total.rounds, on_total.index_probes),
            (off_total.rounds, off_total.index_probes),
            "pre-filter changed the probing work"
        );
        let screened = on_total.prefilter_pruned + on_total.prefilter_survivors;
        let prune_rate = on_total.prefilter_pruned as f64 / screened.max(1) as f64;
        println!(
            "knn_10 (sq8 prefilter ON):  {:.2} us/query, verification {:.2} us/query \
             ({} candidates/query, {} pruned + {} survivors/query, prune rate {:.1}%)",
            on_us,
            on_total.verify_nanos as f64 / 1e3 / nq as f64,
            on_total.candidates / nq.max(1),
            on_total.prefilter_pruned / nq.max(1),
            on_total.prefilter_survivors / nq.max(1),
            prune_rate * 100.0,
        );
        println!(
            "knn_10 (sq8 prefilter OFF): {:.2} us/query, verification {:.2} us/query \
             ({} candidates/query)",
            off_us,
            off_total.verify_nanos as f64 / 1e3 / nq as f64,
            off_total.candidates / nq.max(1),
        );
        println!(
            "prefilter speedup: knn_10 {:.2}x, verification stage {:.2}x",
            off_us / on_us.max(1e-9),
            off_total.verify_nanos as f64 / on_total.verify_nanos.max(1) as f64,
        );
        assert!(
            on_total.verify_nanos > 0 && off_total.verify_nanos > 0,
            "verification timing not collected"
        );
        assert!(
            on_total.prefilter_pruned > 0,
            "pre-filter pruned nothing across {nq} queries"
        );
        assert_eq!(
            off_total.prefilter_pruned + off_total.prefilter_survivors,
            0,
            "disabled pre-filter must not screen anything"
        );
        let doc = dblsh_bench::json::obj(vec![
            ("bench", "verify".into()),
            ("dataset", "smoke-verify-synthetic".into()),
            ("n", venv.data.len().into()),
            ("dim", venv.data.dim().into()),
            ("queries", nq.into()),
            (
                "simd_arch",
                format!("{:?}", dblsh_data::kernels::simd_arch()).into(),
            ),
            (
                "prefilter_on",
                dblsh_bench::json::obj(vec![
                    ("knn10_us_per_query", on_us.into()),
                    (
                        "verify_us_per_query",
                        (on_total.verify_nanos as f64 / 1e3 / nq as f64).into(),
                    ),
                    ("candidates", on_total.candidates.into()),
                    ("pruned", on_total.prefilter_pruned.into()),
                    ("survivors", on_total.prefilter_survivors.into()),
                    ("prune_rate", prune_rate.into()),
                ]),
            ),
            (
                "prefilter_off",
                dblsh_bench::json::obj(vec![
                    ("knn10_us_per_query", off_us.into()),
                    (
                        "verify_us_per_query",
                        (off_total.verify_nanos as f64 / 1e3 / nq as f64).into(),
                    ),
                    ("candidates", off_total.candidates.into()),
                ]),
            ),
            ("speedup", (off_us / on_us.max(1e-9)).into()),
        ]);
        dblsh_bench::json::write_json_file("BENCH_verify.json", &doc)
            .expect("write BENCH_verify.json");
        println!("wrote BENCH_verify.json (verify-path perf artifact)");
    }

    assert!(row.recall > 0.5, "smoke recall collapsed: {}", row.recall);
    assert!(row.ratio >= 1.0 - 1e-6, "ratio below 1: {}", row.ratio);

    let nq = env.queries.len();

    // Serving layer: sharded vs unsharded knn_10 and engine throughput.
    // Both numbers use the canonical round-exhaustive query mode, so the
    // sharded answers are byte-identical to the unsharded ones — checked
    // here on every query before anything is timed.
    const SHARDS: usize = 4;
    let sharded =
        ShardedDbLsh::build_with_params(&env.data, &params, SHARDS, ShardPolicy::RoundRobin)
            .expect("sharded smoke build");
    let opts = SearchOptions::default();
    for qi in 0..nq {
        let q = env.queries.point(qi);
        let s = sharded.k_ann(q, 10).expect("sharded smoke query");
        let u = index
            .search_canonical(q, 10, &opts)
            .expect("canonical smoke query");
        assert_eq!(s.ids(), u.ids(), "sharded answers diverge at query {qi}");
        assert_eq!(s.stats, u.stats, "sharded work counters diverge");
    }
    let time_per_query = |f: &mut dyn FnMut(usize)| {
        let start = Instant::now();
        for qi in 0..nq {
            f(qi);
        }
        start.elapsed().as_secs_f64() * 1e6 / nq as f64
    };
    let unsharded_us = time_per_query(&mut |qi| {
        index
            .search_canonical(env.queries.point(qi), 10, &opts)
            .expect("canonical smoke query");
    });
    let sharded_us = time_per_query(&mut |qi| {
        sharded
            .k_ann(env.queries.point(qi), 10)
            .expect("sharded smoke query");
    });
    println!(
        "\n== serving smoke ({SHARDS} shards) ==\n\
         knn_10 canonical: unsharded {unsharded_us:.2} us/query, sharded {sharded_us:.2} us/query"
    );

    const REPEATS: usize = 5;
    let engine = Arc::new(Engine::start(
        Arc::new(sharded),
        EngineConfig {
            workers: SHARDS,
            queue_capacity: 256,
        },
    ));
    let estart = Instant::now();
    let tickets: Vec<_> = (0..nq * REPEATS)
        .map(|j| engine.search(env.queries.point(j % nq), 10))
        .collect();
    for t in tickets {
        t.wait().expect("engine smoke query");
    }
    // Snapshot admission-control counters while the engine is live (the
    // queue depth is an instantaneous gauge; post-shutdown it is 0 by
    // construction).
    let live = engine.stats();
    let elapsed = estart.elapsed().as_secs_f64();

    // Scrapeable surface: the TCP front door over the same engine. One
    // traced and one untraced query must answer identically, and both
    // exposition formats must render the full metric catalogue.
    let server = dblsh_net::DbLshServer::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        dblsh_net::ServerConfig::default(),
    )
    .expect("bind smoke server");
    let mut client = dblsh_net::DbLshClient::connect(&server.local_addr().to_string())
        .expect("connect smoke client");
    let q0 = env.queries.point(0);
    let plain = client.knn(q0, 10).expect("untraced knn over the wire");
    let traced = client
        .knn_with(
            q0,
            10,
            SearchOptions {
                trace: true,
                ..Default::default()
            },
        )
        .expect("traced knn over the wire");
    assert_eq!(
        plain.neighbors, traced.neighbors,
        "tracing changed an answer"
    );
    assert_eq!(plain.stats, traced.stats, "tracing changed query stats");
    let prom = client
        .metrics(dblsh_net::MetricsFormat::Prometheus)
        .expect("prometheus scrape");
    for needle in [
        "# TYPE dblsh_requests_total counter",
        "dblsh_requests_total{op=\"knn\"}",
        "# TYPE dblsh_request_seconds summary",
        "dblsh_stage_seconds_sum{stage=\"tree_probe\"}",
        "dblsh_queue_depth",
        "dblsh_uptime_seconds",
    ] {
        assert!(prom.contains(needle), "scrape is missing {needle:?}");
    }
    let json_expo = client
        .metrics(dblsh_net::MetricsFormat::Json)
        .expect("json scrape");
    assert!(
        json_expo.contains("\"kind\":\"histogram\""),
        "JSON exposition lost its histograms"
    );
    let wire_stats = client.stats().expect("stats over the wire");
    drop(client);
    server.shutdown();

    let stats = Arc::try_unwrap(engine)
        .ok()
        .expect("server released its engine handle")
        .shutdown();
    assert_eq!(stats.searches as usize, nq * REPEATS + 2);
    assert_eq!(stats.knn_requests, stats.searches);
    assert_eq!(stats.rcnn_requests, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.rejected, 0, "blocking submission never rejects");
    assert!(stats.uptime_secs > 0.0 && stats.started_at_unix > 0);
    println!(
        "engine ({SHARDS} workers): {:.0} QPS aggregate over {} requests, \
         p50 {:.1} us, p99 {:.1} us, {:.0} candidates/query, \
         {:.0} prefilter-pruned/query, queue depth {} (live), rejected {}",
        stats.searches as f64 / elapsed,
        stats.searches,
        stats.p50_latency_us,
        stats.p99_latency_us,
        stats.query.candidates as f64 / stats.searches as f64,
        stats.query.prefilter_pruned as f64 / stats.searches as f64,
        live.queue_depth,
        stats.rejected,
    );
    let serve_doc = dblsh_bench::json::obj(vec![
        ("bench", "serve".into()),
        ("shards", SHARDS.into()),
        ("workers", SHARDS.into()),
        ("requests", stats.searches.into()),
        ("knn_requests", stats.knn_requests.into()),
        ("rcnn_requests", stats.rcnn_requests.into()),
        ("qps", (stats.searches as f64 / elapsed).into()),
        ("mean_latency_us", stats.mean_latency_us.into()),
        ("p50_latency_us", stats.p50_latency_us.into()),
        ("p99_latency_us", stats.p99_latency_us.into()),
        ("errors", stats.errors.into()),
        ("rejected", stats.rejected.into()),
        ("uptime_secs", stats.uptime_secs.into()),
        ("wire_stats_searches_at_scrape", wire_stats.searches.into()),
        (
            "scrape",
            dblsh_bench::json::obj(vec![
                ("prometheus_bytes", prom.len().into()),
                ("json_bytes", json_expo.len().into()),
            ]),
        ),
    ]);
    dblsh_bench::json::write_json_file("BENCH_serve.json", &serve_doc)
        .expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json (serving + telemetry smoke artifact)");
    // Churn sanity: tombstones must be visible as dead bytes, and one
    // compact() must reclaim them all without losing a live answer.
    let mut churned = index;
    for id in (0..1000u32).step_by(2) {
        churned.remove(id).expect("smoke remove");
    }
    let dead = churned.memory_breakdown().dead_bytes;
    assert!(dead > 0, "500 tombstoned rows report no dead bytes");
    let before = churned
        .search_canonical(env.queries.point(0), 10, &opts)
        .expect("pre-compact");
    let cstats = churned.compact();
    assert_eq!(cstats.dropped_rows, 500);
    assert_eq!(churned.memory_breakdown().dead_bytes, 0);
    let after = churned
        .search_canonical(env.queries.point(0), 10, &opts)
        .expect("post-compact");
    assert_eq!(
        before.neighbors, after.neighbors,
        "compaction changed canonical answers"
    );
    println!(
        "churn: 500 removes pinned {:.3} MB dead, compact() reclaimed all of it",
        mb(dead)
    );
    println!("smoke OK");
}
