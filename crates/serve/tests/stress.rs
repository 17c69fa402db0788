//! Concurrent-correctness stress tests: interleave insert/remove/query
//! traffic across threads against one [`ShardedDbLsh`] (and through the
//! [`Engine`] front door) and assert that cross-shard invariants hold
//! afterwards and that ids removed *before* the contention window never
//! resurface in any answer produced *during* it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dblsh_core::DbLshBuilder;
use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
use dblsh_data::Dataset;
use dblsh_serve::{CompactionPolicy, Engine, EngineConfig, ShardPolicy, ShardedDbLsh};
use rand::prelude::*;
use rand::rngs::StdRng;

fn cloud(n: usize, seed: u64) -> Dataset {
    gaussian_mixture(&MixtureConfig {
        n,
        dim: 12,
        clusters: 15,
        cluster_std: 1.0,
        spread: 50.0,
        noise_frac: 0.02,
        seed,
    })
}

fn build(data: &Dataset, shards: usize) -> ShardedDbLsh {
    let builder = DbLshBuilder::new().k(6).l(3).t(8).r_min(0.5);
    ShardedDbLsh::build(data, &builder, shards, ShardPolicy::RoundRobin).unwrap()
}

/// The headline stress: pre-remove a set of ids, then hammer the index
/// from query threads, an insert thread and a remove thread at once.
/// Afterwards: `check_invariants` passes, no pre-removed id ever
/// appeared in any concurrent answer, and the final live set is exactly
/// what the traffic implies.
#[test]
fn interleaved_insert_remove_query_under_contention() {
    let n = 1200usize;
    let data = cloud(n, 33);
    let index = Arc::new(build(&data, 4));

    // Phase 1 (sequential): remove a known set. These ids must never be
    // seen again, no matter how the concurrent phase interleaves.
    let pre_removed: Vec<u32> = (0..n as u32).step_by(9).collect();
    for &id in &pre_removed {
        assert!(index.remove(id).unwrap());
    }
    let pre_removed = Arc::new(pre_removed);
    let live_after_phase1 = index.len();

    // Phase 2 (concurrent): 2 query threads + 1 inserter + 1 remover.
    let resurfaced = AtomicUsize::new(0);
    let inserted = std::sync::Mutex::new(Vec::<u32>::new());
    let removed_now = std::sync::Mutex::new(Vec::<u32>::new());
    std::thread::scope(|scope| {
        for t in 0..2 {
            let index = Arc::clone(&index);
            let pre_removed = Arc::clone(&pre_removed);
            let resurfaced = &resurfaced;
            let data = &data;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                for _ in 0..150 {
                    let qi = rng.gen_range(0..data.len());
                    let res = index.k_ann(data.point(qi), 5).unwrap();
                    for id in res.ids() {
                        if pre_removed.binary_search(&id).is_ok() {
                            resurfaced.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        {
            let index = Arc::clone(&index);
            let inserted = &inserted;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7);
                for _ in 0..100 {
                    let point: Vec<f32> = (0..12).map(|_| rng.gen_range(-50.0..50.0)).collect();
                    let id = index.insert(&point).unwrap();
                    inserted.lock().unwrap().push(id);
                }
            });
        }
        {
            let index = Arc::clone(&index);
            let removed_now = &removed_now;
            scope.spawn(move || {
                // removes from a pool disjoint from the pre-removed set
                for id in (1..n as u32).step_by(9).take(80) {
                    if index.remove(id).unwrap() {
                        removed_now.lock().unwrap().push(id);
                    }
                }
            });
        }
    });

    assert_eq!(
        resurfaced.load(Ordering::Relaxed),
        0,
        "pre-removed ids surfaced in concurrent answers"
    );
    let inserted = inserted.into_inner().unwrap();
    let removed_now = removed_now.into_inner().unwrap();
    assert_eq!(inserted.len(), 100);
    assert_eq!(
        index.len(),
        live_after_phase1 + inserted.len() - removed_now.len()
    );
    // every concurrently inserted id got a unique, live, dense global id
    let mut ids = inserted.clone();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 100, "duplicate global ids handed out");
    assert!(ids.iter().all(|&id| id >= n as u32 && index.contains(id)));
    // the full cross-shard invariant sweep must still pass
    index.check_invariants();
    // and none of the removed ids answer `contains`
    assert!(pre_removed.iter().all(|&id| !index.contains(id)));
    assert!(removed_now.iter().all(|&id| !index.contains(id)));
}

/// The same contention pattern through the [`Engine`] queue: mixed jobs
/// from several submitter threads, one worker pool, bounded queue — plus
/// a remover thread tombstoning most of the bulk rows, so the default
/// [`CompactionPolicy`] compacts shards under their write locks while
/// searches race it.
#[test]
fn engine_survives_mixed_traffic_and_stays_consistent() {
    let n = 1200usize;
    let data = cloud(n, 55);
    let index = Arc::new(build(&data, 3).with_compaction_policy(CompactionPolicy::default()));
    let pre_removed: Vec<u32> = (0..n as u32).step_by(13).collect();
    for &id in &pre_removed {
        assert!(index.remove(id).unwrap());
    }
    // 900 of the 1 200 bulk rows (400 per shard): past the default
    // policy's 256 dead rows and 30 % in every shard.
    let bulk_removes: Vec<u32> = (0..n as u32).filter(|id| id % 13 != 0).take(900).collect();
    let live_before = index.len();
    let engine = Engine::start(
        Arc::clone(&index),
        EngineConfig {
            workers: 4,
            queue_capacity: 16, // small: exercise backpressure
        },
    );

    let resurfaced = AtomicUsize::new(0);
    let net_inserted = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        {
            let engine = &engine;
            let bulk_removes = &bulk_removes;
            scope.spawn(move || {
                for &id in bulk_removes {
                    assert!(engine.remove(id).wait().unwrap());
                }
            });
        }
        for t in 0..3 {
            let engine = &engine;
            let data = &data;
            let pre_removed = &pre_removed;
            let resurfaced = &resurfaced;
            let net_inserted = &net_inserted;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(900 + t);
                let mut my_inserts: Vec<u32> = Vec::new();
                for j in 0..120 {
                    match j % 6 {
                        // four searches per insert/remove pair
                        0..=3 => {
                            let qi = rng.gen_range(0..data.len());
                            let res = engine.search(data.point(qi), 4).wait().unwrap();
                            for id in res.ids() {
                                if pre_removed.binary_search(&id).is_ok() {
                                    resurfaced.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        4 => {
                            let p: Vec<f32> = (0..12).map(|_| rng.gen_range(-50.0..50.0)).collect();
                            my_inserts.push(engine.insert(&p).wait().unwrap());
                            net_inserted.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            if let Some(id) = my_inserts.pop() {
                                if engine.remove(id).wait().unwrap() {
                                    net_inserted.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
            });
        }
    });

    let stats = engine.shutdown();
    assert_eq!(resurfaced.load(Ordering::Relaxed), 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.searches, 3 * 80);
    assert!(index.compaction_count() > 0, "no compaction fired");
    // No fault was injected, so no fault path may have fired.
    assert_eq!(index.wal_truncations_recovered(), 0);
    assert_eq!(
        index.len(),
        live_before - bulk_removes.len() + net_inserted.load(Ordering::Relaxed)
    );
    index.check_invariants();
}
