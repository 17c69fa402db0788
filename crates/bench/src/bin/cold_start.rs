//! Cold-start harness: measure restart-from-snapshot against
//! rebuild-from-raw-vectors, and assert query parity on every path —
//! the CI gate for the persistence layer.
//!
//! Builds an index over a seeded synthetic cloud, drives a churn phase
//! (`--remove-frac` of the points tombstoned, then compacted), and
//! round-trips both the single index (`DbLsh::save`/`load`) and a
//! sharded fleet (`ShardedDbLsh::save_dir`/`load_dir`) through disk,
//! asserting byte-identical canonical answers at every step and
//! printing build vs save vs load wall times plus snapshot sizes.
//!
//! Run: `cargo run -p dblsh-bench --release --bin cold_start -- \
//!           --n 20k --remove-frac 0.5`
//!
//! Flags (all optional): `--n` points (default 20k), `--dim` (24),
//! `--queries` (50), `--k` (10), `--shards` (4), `--remove-frac`
//! fraction of bulk points tombstoned in the churn phase (0.5),
//! `--seed` (7).

use std::sync::Arc;
use std::time::Instant;

use dblsh_core::{DbLsh, DbLshParams, SearchOptions};
use dblsh_data::synthetic::{gaussian_mixture, split_queries, MixtureConfig};
use dblsh_data::Dataset;
use dblsh_serve::{ShardPolicy, ShardedDbLsh};

#[derive(Debug, Clone)]
struct Args {
    n: usize,
    dim: usize,
    queries: usize,
    k: usize,
    shards: usize,
    remove_frac: f64,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            n: 20_000,
            dim: 24,
            queries: 50,
            k: 10,
            shards: 4,
            remove_frac: 0.5,
            seed: 7,
        }
    }
}

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
            "--queries" => args.queries = parse_count(&value("--queries")),
            "--k" => args.k = parse_count(&value("--k")),
            "--shards" => args.shards = parse_count(&value("--shards")),
            "--remove-frac" => {
                args.remove_frac = value("--remove-frac").parse().expect("remove fraction")
            }
            "--seed" => args.seed = value("--seed").parse().expect("seed"),
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }
    assert!(
        (0.0..1.0).contains(&args.remove_frac),
        "--remove-frac must be in [0, 1)"
    );
    args
}

fn assert_canonical_parity(a: &DbLsh, b: &DbLsh, queries: &Dataset, k: usize, what: &str) {
    let opts = SearchOptions::default();
    for qi in 0..queries.len() {
        let q = queries.point(qi);
        let ra = a.search_canonical(q, k, &opts).expect("query");
        let rb = b.search_canonical(q, k, &opts).expect("query");
        assert_eq!(ra.neighbors, rb.neighbors, "{what}: query {qi} diverges");
        assert_eq!(ra.stats, rb.stats, "{what}: query {qi} counters diverge");
    }
}

fn main() {
    let args = parse_args();
    println!("== cold_start: {args:?} ==");
    let mut data = gaussian_mixture(&MixtureConfig {
        n: args.n + args.queries,
        dim: args.dim,
        clusters: 30,
        cluster_std: 1.0,
        spread: 60.0,
        noise_frac: 0.02,
        seed: args.seed,
    });
    let queries = split_queries(&mut data, args.queries, args.seed ^ 0xC01D);
    let data = Arc::new(data);
    let params = DbLshParams::paper_defaults(data.len())
        .with_r_min(0.5)
        .with_seed(args.seed);

    let dir = std::env::temp_dir().join(format!("dblsh-cold-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Fresh build vs snapshot restart.
    let t = Instant::now();
    let mut index = DbLsh::build(Arc::clone(&data), &params).expect("build");
    let build_s = t.elapsed().as_secs_f64();
    let snap = dir.join("index.dblsh");
    let t = Instant::now();
    index.save_file(&snap).expect("save");
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = DbLsh::load_file(&snap).expect("load");
    let load_s = t.elapsed().as_secs_f64();
    loaded.check_invariants();
    assert_canonical_parity(&index, &loaded, &queries, args.k, "fresh snapshot");
    let snap_mb = std::fs::metadata(&snap).expect("stat").len() as f64 / (1024.0 * 1024.0);
    println!(
        "fresh:  build {:.3}s | save {:.3}s ({snap_mb:.2} MB) | load {:.3}s ({:.1}x faster than build)",
        build_s,
        save_s,
        load_s,
        build_s / load_s.max(1e-9),
    );
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    println!(
        "memory: index structures {:.2} MB + dataset rows {:.2} MB (held once, in internal order; \
         the snapshot stores them as they lie)",
        mb(loaded.memory_bytes()),
        mb(std::mem::size_of_val(loaded.data().flat())),
    );

    // Churn phase: tombstone, compact, snapshot again — the restartable
    // long-running shard scenario.
    let removes = (args.n as f64 * args.remove_frac) as u32;
    for id in 0..removes {
        index.remove(id * (args.n as u32 / removes.max(1))).ok();
    }
    let dead_mb = index.memory_breakdown().dead_bytes as f64 / (1024.0 * 1024.0);
    let t = Instant::now();
    let cstats = index.compact();
    let compact_s = t.elapsed().as_secs_f64();
    assert_eq!(index.memory_breakdown().dead_bytes, 0);
    let t = Instant::now();
    index.save_file(&snap).expect("save churned");
    let churn_save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let reloaded = DbLsh::load_file(&snap).expect("load churned");
    let churn_load_s = t.elapsed().as_secs_f64();
    reloaded.check_invariants();
    assert_canonical_parity(&index, &reloaded, &queries, args.k, "churned snapshot");
    let churn_mb = std::fs::metadata(&snap).expect("stat").len() as f64 / (1024.0 * 1024.0);
    println!(
        "churn:  {} rows compacted in {compact_s:.3}s (reclaimed {dead_mb:.2} MB dead) | \
         save {churn_save_s:.3}s ({churn_mb:.2} MB) | load {churn_load_s:.3}s",
        cstats.dropped_rows,
    );

    // Fleet round trip: save_dir/load_dir with parity against the
    // restored single index (both run the canonical ladder).
    let sharded =
        ShardedDbLsh::build_with_params(&data, &params, args.shards, ShardPolicy::RoundRobin)
            .expect("sharded build");
    let fleet_dir = dir.join("fleet");
    let t = Instant::now();
    sharded.save_dir(&fleet_dir).expect("save_dir");
    let fleet_save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fleet = ShardedDbLsh::load_dir(&fleet_dir).expect("load_dir");
    let fleet_load_s = t.elapsed().as_secs_f64();
    fleet.check_invariants();
    let opts = SearchOptions::default();
    let reference = DbLsh::build(Arc::clone(&data), &params).expect("reference build");
    for qi in 0..queries.len() {
        let q = queries.point(qi);
        let s = fleet.k_ann(q, args.k).expect("fleet query");
        let u = reference.search_canonical(q, args.k, &opts).expect("query");
        assert_eq!(s.ids(), u.ids(), "restored fleet diverges at query {qi}");
        assert_eq!(s.stats, u.stats);
    }
    println!(
        "fleet:  {} shards | save_dir {fleet_save_s:.3}s | load_dir {fleet_load_s:.3}s | \
         parity on {} queries",
        args.shards,
        queries.len(),
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("cold_start OK");
}
