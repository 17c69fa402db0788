//! Sharding-transparency property tests: a [`ShardedDbLsh`] must answer
//! **byte-identically** — same `(distance, external id)` values, same
//! order, same work counters — to an unsharded [`DbLsh`] in canonical
//! query mode over the same data and parameters, for shard counts
//! {1, 2, 7}, under both partition policies, and *after interleaved
//! insert/remove traffic*.
//!
//! Why this holds by construction: every shard is built with the same
//! resolved parameters (hence the same Gaussian family), so a point's
//! window membership at any ladder radius and its exact distance are
//! independent of which shard holds it; the canonical ladder consumes
//! each round's merged candidates in `(distance, global id)` order, so
//! the consumption prefix — and therefore the answer and the `candidates`
//! / `rounds` / `index_probes` counters — depends only on the per-round
//! candidate *sets*, which partition exactly across shards.

use std::sync::Arc;

use dblsh_core::{DbLsh, DbLshParams, SearchOptions};
use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
use dblsh_data::{Dataset, QueryStats, SearchResult};
use dblsh_serve::{ShardPolicy, ShardedDbLsh};
use proptest::prelude::*;

/// Distinct-row datasets (duplicate points make leaf tie-breaking
/// order-dependent, as in the core relabel parity tests — the claim here
/// is about sharding, not duplicate tie-breaks).
fn distinct_rows(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-100.0f32..100.0, dim..=dim), 8..max_n).prop_map(
        |mut rows| {
            rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows.dedup();
            rows
        },
    )
}

fn params(n: usize) -> DbLshParams {
    DbLshParams::paper_defaults(n)
        .with_kl(4, 3)
        .with_r_min(0.5)
        .with_t(4) // small budget so the cutoff path is exercised
}

/// Assert byte-identity between the sharded answer and the unsharded
/// canonical answer for one query.
fn assert_parity(sharded: &ShardedDbLsh, reference: &DbLsh, q: &[f32], k: usize) {
    let s = sharded.k_ann(q, k).unwrap();
    let r = reference
        .search_canonical(q, k, &SearchOptions::default())
        .unwrap();
    assert_eq!(s.ids(), r.ids(), "neighbor ids diverge");
    for (a, b) in s.neighbors.iter().zip(&r.neighbors) {
        assert_eq!(
            a.dist.to_bits(),
            b.dist.to_bits(),
            "distances not byte-identical"
        );
    }
    assert_eq!(s.stats, r.stats, "work counters diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fresh bulk builds: {1, 2, 7} shards, both policies, on- and
    /// off-dataset queries.
    #[test]
    fn sharded_kann_is_byte_identical_to_unsharded(
        rows in distinct_rows(120, 8),
        k in 1usize..10,
        qi in 0usize..120,
    ) {
        let data = Dataset::from_rows(&rows);
        let n = data.len();
        let p = params(n);
        let reference = DbLsh::build(Arc::new(data.clone()), &p).unwrap();
        let q = data.point(qi % n).to_vec();
        // off-dataset query: midpoint of the extremes
        let q2: Vec<f32> = data
            .point(0)
            .iter()
            .zip(data.point(n - 1))
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        for shards in [1usize, 2, 7] {
            if n < shards {
                continue;
            }
            for policy in [ShardPolicy::RoundRobin, ShardPolicy::HashId] {
                let sharded =
                    ShardedDbLsh::build_with_params(&data, &p, shards, policy).unwrap();
                assert_parity(&sharded, &reference, &q, k);
                assert_parity(&sharded, &reference, &q2, k);
            }
        }
    }

    /// Parity survives dynamic traffic: the same interleaved removes and
    /// inserts applied to the sharded and unsharded indexes keep the
    /// global id spaces in lockstep and the answers byte-identical —
    /// even though the sharded inserts route by load, not by the bulk
    /// partition policy.
    #[test]
    fn sharded_parity_through_interleaved_updates(
        rows in distinct_rows(100, 6),
        extra in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 6..=6), 1..12),
        remove_mod in 2usize..5,
        k in 1usize..8,
        qi in 0usize..100,
    ) {
        let data = Dataset::from_rows(&rows);
        let n = data.len();
        let p = params(n);
        for shards in [1usize, 2, 7] {
            if n < shards {
                continue;
            }
            let sharded =
                ShardedDbLsh::build_with_params(&data, &p, shards, ShardPolicy::RoundRobin)
                    .unwrap();
            // Drive BOTH indexes through the same traffic. The reference
            // is rebuilt per shard count so its state matches exactly.
            let mut reference = DbLsh::build(Arc::new(data.clone()), &p).unwrap();
            for (j, e) in extra.iter().enumerate() {
                let victim = ((j * remove_mod) % n) as u32;
                prop_assert_eq!(
                    sharded.remove(victim).unwrap_or(false),
                    reference.remove(victim).unwrap_or(false),
                    "remove outcomes diverge"
                );
                let gs = sharded.insert(e).unwrap();
                let gr = reference.insert(e).unwrap();
                prop_assert_eq!(gs, gr, "global insert ids must stay in lockstep");
                prop_assert!(sharded.contains(gs));
            }
            prop_assert_eq!(sharded.len(), reference.len());
            sharded.check_invariants();
            let q = reference.data().point(qi % reference.data().len()).to_vec();
            assert_parity(&sharded, &reference, &q, k);
            // per-query overrides keep parity too
            let opts = SearchOptions { budget: Some(3), ..Default::default() };
            let rs = sharded.search_with(&q, k, &opts).unwrap();
            let rr = reference.search_canonical(&q, k, &opts).unwrap();
            prop_assert_eq!(rs.ids(), rr.ids());
            prop_assert_eq!(rs.stats, rr.stats);
            prop_assert!(rs.stats.candidates <= 3, "budget override ignored");
        }
    }

    /// Compaction and fleet persistence stay sharding-transparent: a
    /// fleet with an aggressive auto-compaction policy, driven through
    /// interleaved insert/remove traffic and then snapshotted to disk
    /// and restored, answers byte-identically to an unsharded,
    /// never-compacted reference over the same traffic.
    #[test]
    fn compaction_and_snapshots_keep_sharded_parity(
        rows in distinct_rows(90, 6),
        extra in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 6..=6), 1..10),
        remove_mod in 2usize..5,
        k in 1usize..8,
        qi in 0usize..90,
        case in 0usize..1000,
    ) {
        use dblsh_serve::CompactionPolicy;
        let data = Dataset::from_rows(&rows);
        let n = data.len();
        let p = params(n);
        let sharded =
            ShardedDbLsh::build_with_params(&data, &p, 2, ShardPolicy::RoundRobin)
                .unwrap()
                .with_compaction_policy(CompactionPolicy {
                    dead_fraction: 0.05,
                    min_dead_rows: 1,
                });
        let mut reference = DbLsh::build(Arc::new(data.clone()), &p).unwrap();
        for (j, e) in extra.iter().enumerate() {
            let victim = ((j * remove_mod) % n) as u32;
            prop_assert_eq!(
                sharded.remove(victim).unwrap_or(false),
                reference.remove(victim).unwrap_or(false)
            );
            prop_assert_eq!(sharded.insert(e).unwrap(), reference.insert(e).unwrap());
        }
        sharded.check_invariants();

        let dir = std::env::temp_dir().join(format!("dblsh-prop-fleet-{case}"));
        let _ = std::fs::remove_dir_all(&dir);
        sharded.save_dir(&dir).unwrap();
        let restored = ShardedDbLsh::load_dir(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        restored.check_invariants();
        prop_assert_eq!(restored.len(), reference.len());

        let q = reference.data().point(qi % reference.data().len()).to_vec();
        assert_parity(&sharded, &reference, &q, k);
        assert_parity(&restored, &reference, &q, k);
    }

    /// Per-stage tracing is observation-only: the traced sharded search
    /// answers byte-identically to the untraced one — same neighbor ids,
    /// same distance bits, same work counters — for any shard count and
    /// under both prefilter settings, while the trace itself attributes
    /// real time, and no more than the call took, to the stages it ran.
    #[test]
    fn traced_sharded_search_is_observation_only(
        rows in distinct_rows(100, 6),
        k in 1usize..8,
        qi in 0usize..100,
        shards in 1usize..=3,
        prefilter in prop::bool::ANY,
    ) {
        use dblsh_telemetry::{QueryTrace, Stage};
        let data = Dataset::from_rows(&rows);
        let n = data.len();
        let p = params(n);
        let sharded =
            ShardedDbLsh::build_with_params(&data, &p, shards, ShardPolicy::RoundRobin).unwrap();
        let q = data.point(qi % n).to_vec();
        let opts = SearchOptions { prefilter, ..Default::default() };
        let untraced = sharded.search_with(&q, k, &opts).unwrap();
        let mut trace = QueryTrace::new();
        let started = std::time::Instant::now();
        let traced = sharded.search_with_trace(&q, k, &opts, &mut trace).unwrap();
        let wall = started.elapsed().as_nanos() as u64;
        prop_assert_eq!(traced.ids(), untraced.ids());
        for (a, b) in traced.neighbors.iter().zip(&untraced.neighbors) {
            prop_assert_eq!(a.dist.to_bits(), b.dist.to_bits());
        }
        prop_assert_eq!(traced.stats.clone(), untraced.stats.clone());
        prop_assert!(trace.total() <= wall, "stages {} > wall {}", trace.total(), wall);
        for stage in [Stage::Projection, Stage::TreeProbe, Stage::Verify] {
            prop_assert!(trace.get(stage) > 0, "{} not timed", stage.name());
        }
        if !prefilter {
            prop_assert_eq!(trace.get(Stage::Prefilter), 0);
        }
        // reply time exists only above the engine
        prop_assert_eq!(trace.get(Stage::Reply), 0);
    }

    /// skip_stats zeroes counters without changing answers, and
    /// `QueryStats` merging over a sharded batch equals the per-query
    /// fold.
    #[test]
    fn sharded_options_and_batch_aggregate(
        rows in distinct_rows(80, 6),
        k in 1usize..6,
    ) {
        let data = Dataset::from_rows(&rows);
        let p = params(data.len());
        let sharded =
            ShardedDbLsh::build_with_params(&data, &p, 2, ShardPolicy::RoundRobin).unwrap();
        let q = data.point(0).to_vec();
        let quiet = sharded.search_with(&q, k, &SearchOptions {
            skip_stats: true,
            ..Default::default()
        }).unwrap();
        let loud = sharded.k_ann(&q, k).unwrap();
        prop_assert_eq!(quiet.stats, QueryStats::default());
        prop_assert_eq!(quiet.ids(), loud.ids());
    }
}

/// `SearchOptions::time_verification` is observation-only at every entry
/// that takes it: ids, distance bits and every counter but
/// `verify_nanos` are equal with the flag on and off, and `verify_nanos`
/// is reported exactly when asked for.
#[test]
fn time_verification_only_adds_verify_nanos() {
    let data = gaussian_mixture(&MixtureConfig {
        n: 1500,
        dim: 12,
        clusters: 10,
        cluster_std: 1.0,
        spread: 40.0,
        noise_frac: 0.02,
        seed: 5,
    });
    let p = params(data.len());
    let index = DbLsh::build(Arc::new(data.clone()), &p).unwrap();
    let fleet = |s| ShardedDbLsh::build_with_params(&data, &p, s, ShardPolicy::RoundRobin).unwrap();
    let (one, three) = (fleet(1), fleet(3));
    type Entry<'a> = &'a dyn Fn(&[f32], &SearchOptions) -> SearchResult;
    let entries: [Entry; 4] = [
        &|q, o| index.search_with(q, 10, o).unwrap(),
        &|q, o| index.search_canonical(q, 10, o).unwrap(),
        &|q, o| one.search_with(q, 10, o).unwrap(),
        &|q, o| three.search_with(q, 10, o).unwrap(),
    ];
    let bits =
        |r: &SearchResult| Vec::from_iter(r.neighbors.iter().map(|n| (n.id, n.dist.to_bits())));
    for (entry, search) in entries.iter().enumerate() {
        for (prefilter, qi) in [(true, 0), (true, 700), (false, 7), (false, 700)] {
            let run = |time_verification| {
                let opts = SearchOptions {
                    prefilter,
                    time_verification,
                    ..Default::default()
                };
                search(data.point(qi), &opts)
            };
            let (plain, timed) = (run(false), run(true));
            let at = format!("entry {entry}, prefilter {prefilter}, query {qi}");
            assert_eq!(bits(&timed), bits(&plain), "{at}");
            assert!(timed.stats.verify_nanos > 0, "{at}");
            assert_eq!(
                QueryStats {
                    verify_nanos: 0,
                    ..timed.stats
                },
                plain.stats,
                "{at}"
            );
        }
    }
}
