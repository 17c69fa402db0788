//! Fault-injection torture harness: crash, corrupt, and panic the
//! serving stack on a seeded schedule, then prove recovery is exact.
//!
//! Three phases, each asserting the recovered system answers
//! **byte-identically** (neighbors *and* [`dblsh_data::QueryStats`]) to
//! a never-faulted reference:
//!
//! * **A — fleet WAL crash sweep**: run a scripted workload against a
//!   WAL-enabled [`ShardedDbLsh`], then simulate a process kill at
//!   *every* record boundary (and at every byte inside a sample of
//!   records — torn tails) by truncating copies of the log directory
//!   and reloading. Each recovered fleet must equal the reference
//!   holding exactly the acknowledged prefix.
//! * **B — WAL I/O faults**: drive a WAL-enabled 2-shard
//!   [`ShardedDbLsh`] through a seeded [`WriteFaultPlan`]
//!   ([`ShardedDbLsh::set_wal_faults`]) beside a plain fleet —
//!   `Interrupted` and short writes must be absorbed invisibly; a hard
//!   device failure must surface as a typed I/O error that burns no id
//!   and changes no point, and the fleet must reopen exact.
//! * **C — worker panics**: panic [`Engine`] workers mid-request via
//!   the chaos hook; panicked tickets resolve to the typed `Shutdown`,
//!   the pool survives, and later answers are unchanged.
//!
//! Everything derives from `--seed` (default 42), so a failure replays
//! exactly. `--quick` shrinks the sweep for a ~CI-smoke-sized run.
//!
//! Run: `cargo run -p dblsh-bench --release --bin torture -- --quick`

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dblsh_core::{DbLshBuilder, SearchOptions};
use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
use dblsh_data::wal::WriteFaultPlan;
use dblsh_data::{Dataset, DbLshError};
use dblsh_serve::{Engine, EngineConfig, ShardPolicy, ShardedDbLsh};
use rand::prelude::*;
use rand::rngs::StdRng;

#[derive(Debug, Clone)]
struct Args {
    seed: u64,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => {
                eprintln!("usage: torture [--seed N] [--quick]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn builder() -> DbLshBuilder {
    DbLshBuilder::new().k(4).l(2).t(8).r_min(0.5)
}

fn mixture(n: usize, seed: u64) -> Dataset {
    gaussian_mixture(&MixtureConfig {
        n,
        dim: 8,
        clusters: 4,
        seed,
        ..Default::default()
    })
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dblsh-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
        }
    }
}

fn truncate_file(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for truncate");
    f.set_len(len).expect("truncate");
}

/// One scripted mutation; the same script replays on the reference.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<f32>),
    Remove(u32),
}

fn script_ops(data: &Dataset, count: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7041);
    (0..count)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < 0.3 {
                // May already be dead — `remove` then reports `false`,
                // which is itself part of the determinism contract.
                Op::Remove(rng.gen_range(0..data.len()) as u32)
            } else {
                Op::Insert(data.point(rng.gen_range(0..data.len())).to_vec())
            }
        })
        .collect()
}

fn apply(fleet: &ShardedDbLsh, op: &Op) {
    match op {
        Op::Insert(p) => {
            fleet.insert(p).expect("scripted insert");
        }
        Op::Remove(id) => {
            fleet.remove(*id).expect("scripted remove");
        }
    }
}

/// Byte-identical equality of two fleets: membership, then canonical
/// answers with stats on a spread of queries.
fn assert_fleets_equal(got: &ShardedDbLsh, want: &ShardedDbLsh, data: &Dataset, label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: len");
    let bound = (data.len() + 64) as u32;
    for id in 0..bound {
        assert_eq!(got.contains(id), want.contains(id), "{label}: id {id}");
    }
    let opts = SearchOptions::default();
    for qi in (0..data.len()).step_by(1.max(data.len() / 5)) {
        let q = data.point(qi);
        let a = got.search_with(q, 7, &opts).expect("recovered query");
        let b = want.search_with(q, 7, &opts).expect("reference query");
        assert_eq!(a.neighbors, b.neighbors, "{label}: query {qi}");
        assert_eq!(a.stats, b.stats, "{label}: query {qi} stats");
    }
}

/// Phase A: kill the process at every WAL record boundary (and inside
/// a sample of records) and prove recovery lands on the exact
/// acknowledged prefix. Returns the total
/// [`ShardedDbLsh::wal_truncations_recovered`] across the torn-tail
/// loads — the fault counter this phase must drive non-zero.
fn phase_fleet_crash_sweep(args: &Args) -> u64 {
    let start = Instant::now();
    let ops_count = if args.quick { 16 } else { 48 };
    let byte_sweeps = if args.quick { 2 } else { 4 };
    let data = mixture(320, args.seed);

    let live = workdir("fleet-live");
    let fleet = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
        .expect("build fleet")
        .enable_wal(&live)
        .expect("enable wal");
    let base = workdir("fleet-base");
    copy_dir(&live, &base);

    let ops = script_ops(&data, ops_count, args.seed);
    let wal_paths: Vec<PathBuf> = (0..fleet.shard_count())
        .map(|s| live.join(format!("wal-{s}.dblshwal")))
        .collect();
    let wal_sizes = |dir: &Path| -> Vec<u64> {
        wal_paths
            .iter()
            .map(|p| {
                std::fs::metadata(dir.join(p.file_name().expect("wal name")))
                    .expect("wal metadata")
                    .len()
            })
            .collect()
    };
    let mut sizes: Vec<Vec<u64>> = vec![wal_sizes(&live)];
    for op in &ops {
        apply(&fleet, op);
        sizes.push(wal_sizes(&live));
    }

    // The reference replays the script against a copy of the baseline;
    // ids match because routing is deterministic from identical state.
    let ref_dir = workdir("fleet-ref");
    copy_dir(&base, &ref_dir);
    let reference = ShardedDbLsh::load_dir(&ref_dir).expect("load reference");

    // Every `sweep_every`-th op additionally gets a torn-tail sweep:
    // a crash at every byte inside the record it appended.
    let sweep_every = 1.max(ops_count / byte_sweeps);
    let crash = workdir("fleet-crash");
    let mut boundaries = 0usize;
    let mut torn = 0usize;
    let mut truncations = 0u64;
    for t in 0..=ops.len() {
        copy_dir(&live, &crash);
        for (p, len) in wal_paths.iter().zip(&sizes[t]) {
            truncate_file(&crash.join(p.file_name().expect("wal name")), *len);
        }
        let recovered = ShardedDbLsh::load_dir(&crash).expect("load crashed fleet");
        assert_fleets_equal(&recovered, &reference, &data, &format!("boundary {t}"));
        assert_eq!(
            recovered.wal_truncations_recovered(),
            0,
            "a record-boundary crash has no torn tail to truncate (boundary {t})"
        );
        boundaries += 1;

        if t < ops.len() && t % sweep_every == 0 {
            // Exactly one shard's log grew for op t; tear it at every
            // intermediate byte — all of them must recover to state t.
            let s = (0..wal_paths.len())
                .find(|&s| sizes[t + 1][s] > sizes[t][s])
                .expect("one wal grew");
            for extra in 1..(sizes[t + 1][s] - sizes[t][s]) {
                copy_dir(&live, &crash);
                for (i, p) in wal_paths.iter().enumerate() {
                    let len = sizes[t][i] + if i == s { extra } else { 0 };
                    truncate_file(&crash.join(p.file_name().expect("wal name")), len);
                }
                let recovered = ShardedDbLsh::load_dir(&crash).expect("load torn fleet");
                assert_fleets_equal(
                    &recovered,
                    &reference,
                    &data,
                    &format!("torn tail op {t} +{extra}B"),
                );
                let recs = recovered.wal_truncations_recovered();
                assert!(
                    recs >= 1,
                    "torn tail op {t} +{extra}B must report a recovered WAL truncation"
                );
                truncations += recs;
                torn += 1;
            }
        }
        if t < ops.len() {
            apply(&reference, &ops[t]);
        }
    }

    for dir in [&live, &base, &ref_dir, &crash] {
        let _ = std::fs::remove_dir_all(dir);
    }
    println!(
        "phase A  fleet crash sweep     {boundaries} boundaries + {torn} torn tails exact, \
         {truncations} WAL truncations recovered  ({:.1?})",
        start.elapsed()
    );
    truncations
}

/// Phase B: I/O faults under a WAL-enabled fleet's logs, checked
/// against a plain fleet fed the same writes. Returns how many hard
/// device failures surfaced as a typed `Io` — the fault counter this
/// phase must drive non-zero.
fn phase_wal_io_faults(args: &Args) -> u64 {
    let start = Instant::now();
    let inserts = if args.quick { 30 } else { 80 };
    let data = mixture(140, args.seed ^ 0xB);
    let dir = workdir("wal-io");
    let fleet = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
        .expect("build fleet")
        .enable_wal(&dir)
        .expect("enable wal");
    let reference = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
        .expect("build reference");

    // Interrupted syscalls and short writes are the OS being an OS;
    // every insert must still be acknowledged and applied.
    fleet.set_wal_faults(Some(
        WriteFaultPlan::new(args.seed ^ 0xB1)
            .with_interrupts(0.25)
            .with_short_writes(0.25),
    ));
    for i in 0..inserts {
        let p = data.point(i % data.len()).to_vec();
        let got = fleet.insert(&p).expect("insert through soft faults");
        let want = reference.insert(&p).expect("reference insert");
        assert_eq!(got, want, "id diverged under soft faults");
    }

    // A dead device: each log's first append tears 7 bytes into its
    // frame and every later one fails outright. Each write is a typed I/O error
    // that publishes nothing — no id is burnt, no point changes.
    fleet.set_wal_faults(Some(
        WriteFaultPlan::new(args.seed ^ 0xB2).with_hard_fail_after(7),
    ));
    let (len, victim) = (fleet.len(), 1);
    let p = data.point(0).to_vec();
    let mut hard_faults = 0u64;
    for (op, outcome) in [
        ("insert", fleet.insert(&p).map(drop)),
        ("remove", fleet.remove(victim).map(drop)),
    ] {
        match outcome {
            Err(DbLshError::Io { .. }) => hard_faults += 1,
            other => panic!("hard WAL failure on {op} must be a typed Io error, got {other:?}"),
        }
    }
    assert_eq!(fleet.len(), len, "a failed write changed the fleet");
    assert!(fleet.contains(victim), "a failed remove took effect");
    fleet.set_wal_faults(None);
    let got = fleet.insert(&p).expect("insert after faults cleared");
    let want = reference.insert(&p).expect("reference insert");
    assert_eq!(got, want, "the failed insert burnt an id");
    assert!(fleet.remove(victim).expect("remove after faults cleared"));
    assert!(reference.remove(victim).expect("reference remove"));

    assert_fleets_equal(&fleet, &reference, &data, "after io faults");
    drop(fleet);
    let reopened = ShardedDbLsh::load_dir(&dir).expect("reopen fleet");
    assert_fleets_equal(&reopened, &reference, &data, "after reopen");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "phase B  WAL I/O faults        {inserts} soft-faulted inserts, {hard_faults} hard faults \
         surfaced as typed Io, recovery exact  ({:.1?})",
        start.elapsed()
    );
    hard_faults
}

/// Phase C: panic engine workers mid-request; the pool survives and
/// later answers are unchanged. Returns the contained-panic count — the
/// fault counter this phase must drive non-zero.
fn phase_worker_panics(args: &Args) -> u64 {
    let start = Instant::now();
    let panics = if args.quick { 4 } else { 12 };
    let data = mixture(400, args.seed ^ 0xD);
    let index = Arc::new(
        ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin).expect("build fleet"),
    );
    let engine = Engine::start(
        Arc::clone(&index),
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
        },
    );

    let opts = SearchOptions::default();
    let mut searches = 0u64;
    for round in 0..panics {
        match engine.inject_worker_panic().wait() {
            Err(DbLshError::Shutdown) => {}
            other => panic!("panicked ticket must resolve to Shutdown, got {other:?}"),
        }
        for qi in (round..data.len()).step_by(1.max(data.len() / 6)) {
            let q = data.point(qi);
            let got = engine
                .search_with(q, 8, opts.clone())
                .wait()
                .expect("search");
            let want = index.search_with(q, 8, &opts).expect("direct search");
            assert_eq!(got.neighbors, want.neighbors, "post-panic answer");
            assert_eq!(got.stats, want.stats, "post-panic stats");
            searches += 1;
        }
    }
    let stats = engine.shutdown();
    assert_eq!(stats.errors, panics as u64, "each panic counts once");
    assert_eq!(stats.searches, searches, "every search still served");
    println!(
        "phase C  worker panics         {panics} panics contained, {searches} searches exact  ({:.1?})",
        start.elapsed()
    );
    stats.errors
}

/// Injected panics are caught at isolation boundaries by design; keep
/// their backtraces out of the report while real panics still print.
fn silence_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.starts_with("injected"));
        if !injected {
            default(info);
        }
    }));
}

fn main() {
    let args = parse_args();
    silence_injected_panics();
    let start = Instant::now();
    println!(
        "torture: seed {}, {} mode",
        args.seed,
        if args.quick { "quick" } else { "full" }
    );
    let truncations = phase_fleet_crash_sweep(&args);
    let hard_faults = phase_wal_io_faults(&args);
    let panics = phase_worker_panics(&args);
    // Every injected fault class must leave a visible footprint in its
    // counter — a zero here means a fault path went dark, not that the
    // system got lucky.
    println!(
        "fault-path counters: {truncations} WAL truncations recovered, \
         {hard_faults} hard WAL faults surfaced as typed Io, {panics} worker panics contained"
    );
    assert!(truncations > 0, "torn-tail sweep recovered no truncations");
    assert!(hard_faults > 0, "WAL I/O phase surfaced no hard fault");
    assert!(panics > 0, "worker-panic phase contained nothing");
    println!("torture: all phases exact in {:.1?}", start.elapsed());
}
