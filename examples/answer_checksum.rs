//! Answer checksum for answer-preserving changes: one FNV-1a line per
//! query mode over every answer's ids, distance bits and the five
//! `QueryStats` work counters. Run it at the parent commit and at the
//! change and diff the output; inside one run it also checks that the
//! canonical answer does not depend on the SQ8 prefilter, on sharding
//! or on tracing, and exits non-zero otherwise.
//!
//! Run: `cargo run --release --example answer_checksum -- --n 5000 --queries 200`
//! (defaults: the benchmark's `hot_small` shape, 20 000 x 32-d, 2 000
//! queries, seed 1, k = 10).

use std::sync::Arc;

use db_lsh::data::synthetic::{gaussian_mixture, split_queries, MixtureConfig};
use db_lsh::data::Dataset;
use db_lsh::telemetry::QueryTrace;
use db_lsh::{
    DbLshBuilder, Neighbor, QueryStats, SearchOptions, SearchResult, ShardPolicy, ShardedDbLsh,
};

const K: usize = 10;

type Answer = (Vec<Neighbor>, QueryStats);

/// FNV-1a over every query's answer, in query order.
fn checksum(queries: &Dataset, mut answer: impl FnMut(&[f32]) -> Answer) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for qi in 0..queries.len() {
        let (neighbors, s) = answer(queries.point(qi));
        let counters = [s.rounds, s.index_probes, s.candidates].map(|c| c as u64);
        let prefilter = [s.prefilter_pruned, s.prefilter_survivors].map(|c| c as u64);
        let answer = neighbors
            .iter()
            .flat_map(|n| [n.id as u64, n.dist.to_bits() as u64]);
        let words = [neighbors.len() as u64].into_iter().chain(answer);
        for byte in words
            .chain(counters)
            .chain(prefilter)
            .flat_map(u64::to_le_bytes)
        {
            acc = (acc ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    acc
}

/// [`checksum`], printed as one line of the output two runs are diffed by.
fn line(name: &str, queries: &Dataset, answer: impl FnMut(&[f32]) -> Answer) -> u64 {
    let sum = checksum(queries, answer);
    println!("{name:<32} {sum:016x}");
    sum
}

fn check(holds: bool, what: &str) -> bool {
    if !holds {
        eprintln!("FAIL: {what}");
    }
    holds
}

fn arg(name: &str, default: usize) -> usize {
    let value = std::env::args().skip_while(|a| a != name).nth(1);
    value.map_or(default, |v| v.parse().expect("an unsigned integer"))
}

fn main() {
    let (n, dim, n_queries) = (
        arg("--n", 20_000),
        arg("--dim", 32),
        arg("--queries", 2_000),
    );
    let seed = arg("--seed", 1) as u64;
    println!("answer_checksum n={n} dim={dim} queries={n_queries} seed={seed} k={K}");

    // The benchmark's generator: 25 clusters at 20k points, 300 at 300k.
    let mut all = gaussian_mixture(&MixtureConfig {
        n: n + n_queries,
        dim,
        clusters: (n / 1000).max(25),
        cluster_std: 1.0,
        spread: 60.0,
        noise_frac: 0.02,
        seed,
    });
    let queries = split_queries(&mut all, n_queries, seed ^ 0x5eed_0001);
    let base = Arc::new(all);
    let builder = DbLshBuilder::new().auto_r_min().seed(seed);

    let of = |res: SearchResult| (res.neighbors, res.stats);
    let on = SearchOptions::default();
    let off = SearchOptions {
        prefilter: false,
        ..Default::default()
    };
    // The unsharded index is dropped before the fleets are built.
    let (canonical_on, on_equals_off) = {
        let index = builder.clone().build(Arc::clone(&base)).expect("build");
        let canonical = |q: &[f32], opts| of(index.search_canonical(q, K, opts).expect("query"));
        let canonical_on = line("search_canonical prefilter=on", &queries, |q| {
            canonical(q, &on)
        });
        let canonical_off = line("search_canonical prefilter=off", &queries, |q| {
            canonical(q, &off)
        });
        // With the prefilter's own two counters zeroed, on must read as off.
        let on_as_off = checksum(&queries, |q| {
            let (neighbors, mut stats) = canonical(q, &on);
            (stats.prefilter_pruned, stats.prefilter_survivors) = (0, 0);
            (neighbors, stats)
        });
        line("k_ann", &queries, |q| of(index.k_ann(q, K).expect("query")));
        let r = 2.0 * index.params().r_min;
        line("r_c_nn", &queries, |q| {
            let (hit, stats) = index.r_c_nn(q, r).expect("query");
            (hit.into_iter().collect(), stats)
        });
        line("k_ann_incremental", &queries, |q| {
            of(index.k_ann_incremental(q, K).expect("query"))
        });
        (canonical_on, on_as_off == canonical_off)
    };

    let mut ok = check(
        on_equals_off,
        "search_canonical: prefilter on differs from off",
    );
    for shards in [1, 4] {
        let fleet = ShardedDbLsh::build(&base, &builder, shards, ShardPolicy::RoundRobin)
            .expect("fleet build");
        let plain = line(&format!("sharded shards={shards}"), &queries, |q| {
            of(fleet.search_with(q, K, &on).expect("query"))
        });
        let traced = checksum(&queries, |q| {
            let mut trace = QueryTrace::new();
            of(fleet
                .search_with_trace(q, K, &on, &mut trace)
                .expect("query"))
        });
        ok &= check(plain == canonical_on, "sharded differs from unsharded");
        ok &= check(traced == plain, "traced differs from untraced");
    }
    if !ok {
        std::process::exit(1);
    }
    println!("ok: prefilter on == off, sharded == unsharded, traced == untraced");
}
