//! Crash-recovery property tests: kill the process at *every* WAL
//! record boundary — and inside records — of randomized workloads, and
//! require recovery to land on exactly the acknowledged prefix.
//!
//! The fleet property drives a WAL-enabled [`ShardedDbLsh`] through a
//! random interleaving of inserts, removes, explicit compactions, and
//! checkpoints (`save_dir`, which truncates the logs), snapshotting the
//! on-disk directory after every op. Each snapshot is then recovered
//! and compared — membership and canonical answers *with work counters*
//! — against a never-crashed reference that replayed the same prefix.
//! Torn tails (a crash mid-`write`) are simulated by truncating the
//! record that grew between two snapshots at several interior byte
//! offsets; the torn op must vanish without damaging the prefix.
//!
//! Compaction is the interesting interleaving: it relabels physical
//! rows but is never logged, so a recovered fleet replays the WAL onto
//! an *uncompacted* snapshot while the reference compacted mid-stream —
//! canonical answers must not be able to tell the difference.

use std::path::{Path, PathBuf};

use dblsh_core::{DbLshBuilder, SearchOptions};
use dblsh_data::Dataset;
use dblsh_serve::{ShardPolicy, ShardedDbLsh};
use proptest::prelude::*;

const DIM: usize = 6;

fn builder() -> DbLshBuilder {
    DbLshBuilder::new().k(4).l(2).t(8).r_min(0.5)
}

/// Distinct-row datasets (duplicates make leaf tie-breaking
/// order-dependent; the claim here is about recovery, not tie-breaks).
fn distinct_rows() -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-50.0f32..50.0, DIM..=DIM), 16..40).prop_map(
        |mut rows| {
            rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows.dedup();
            rows
        },
    )
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<f32>),
    /// Resolved to `raw % next_id` at apply time, so the same script
    /// replays identically on fleet and reference.
    Remove(u32),
    Compact,
    Checkpoint,
}

fn ops_script() -> impl Strategy<Value = Vec<Op>> {
    let one = prop_oneof![
        prop::collection::vec(-50.0f32..50.0, DIM..=DIM).prop_map(Op::Insert),
        prop::collection::vec(-50.0f32..50.0, DIM..=DIM).prop_map(Op::Insert),
        (0u32..10_000).prop_map(Op::Remove),
        (0u32..10_000).prop_map(Op::Remove),
        Just(Op::Compact),
        Just(Op::Checkpoint),
    ];
    prop::collection::vec(one, 6..14)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dblsh-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
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
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for truncate")
        .set_len(len)
        .expect("truncate");
}

fn apply_fleet(fleet: &ShardedDbLsh, op: &Op, next_id: &mut u32, wal_dir: Option<&Path>) {
    match op {
        Op::Insert(p) => {
            fleet.insert(p).expect("insert");
            *next_id += 1;
        }
        Op::Remove(raw) => {
            fleet.remove(raw % *next_id).expect("remove");
        }
        Op::Compact => {
            fleet.compact().expect("compact");
        }
        Op::Checkpoint => {
            // The reference has no WAL directory: a checkpoint changes
            // only what is on disk, never the logical state.
            if let Some(dir) = wal_dir {
                fleet.save_dir(dir).expect("checkpoint");
            }
        }
    }
}

/// Byte-identical logical equality: membership and canonical answers
/// including [`dblsh_data::QueryStats`].
fn assert_recovered_equals(got: &ShardedDbLsh, want: &ShardedDbLsh, data: &Dataset, label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: len");
    let bound = (data.len() + 40) as u32;
    for id in 0..bound {
        assert_eq!(got.contains(id), want.contains(id), "{label}: id {id}");
    }
    let opts = SearchOptions::default();
    for qi in [0, data.len() / 2, data.len() - 1] {
        let q = data.point(qi);
        let a = got.search_with(q, 5, &opts).expect("recovered query");
        let b = want.search_with(q, 5, &opts).expect("reference query");
        assert_eq!(a.neighbors, b.neighbors, "{label}: query {qi}");
        assert_eq!(a.stats, b.stats, "{label}: query {qi} stats");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash a WAL-enabled fleet at every record boundary of a random
    /// insert/remove/compact/checkpoint interleaving; each recovery
    /// must equal the reference that replayed exactly that prefix.
    #[test]
    fn fleet_recovers_exactly_at_every_boundary(
        rows in distinct_rows(),
        ops in ops_script(),
    ) {
        let data = Dataset::from_rows(&rows);
        let live = fresh_dir("live");
        let fleet = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
            .expect("build fleet")
            .enable_wal(&live)
            .expect("enable wal");

        // Snapshot the whole directory after every op: checkpoints
        // rewrite the snapshot and truncate the logs, so recorded WAL
        // sizes alone cannot reconstruct an earlier disk state.
        let snaps = fresh_dir("snaps");
        copy_dir(&live, &snaps.join("0"));
        let mut next_id = data.len() as u32;
        for (t, op) in ops.iter().enumerate() {
            apply_fleet(&fleet, op, &mut next_id, Some(&live));
            copy_dir(&live, &snaps.join(format!("{}", t + 1)));
        }

        let reference = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
            .expect("build reference");
        let mut ref_next_id = data.len() as u32;
        let torn_dir = fresh_dir("torn");
        for t in 0..=ops.len() {
            let snap = snaps.join(format!("{t}"));
            let recovered = ShardedDbLsh::load_dir(&snap).expect("recover at boundary");
            recovered.check_invariants();
            assert_recovered_equals(&recovered, &reference, &data, &format!("boundary {t}"));

            // Torn tail: if exactly one log grew over op t, cut it at a
            // few interior bytes — the torn record must vanish and the
            // prefix must survive untouched.
            if t < ops.len() {
                let next_snap = snaps.join(format!("{}", t + 1));
                let grown: Vec<(String, u64, u64)> = (0..2)
                    .filter_map(|s| {
                        let name = format!("wal-{s}.dblshwal");
                        let before = std::fs::metadata(snap.join(&name)).expect("meta").len();
                        let after = std::fs::metadata(next_snap.join(&name)).expect("meta").len();
                        (after > before).then_some((name, before, after))
                    })
                    .collect();
                if let [(name, before, after)] = grown.as_slice() {
                    for off in [1, (after - before) / 2, after - before - 1] {
                        if off == 0 || off >= after - before {
                            continue;
                        }
                        copy_dir(&next_snap, &torn_dir);
                        truncate_file(&torn_dir.join(name), before + off);
                        let recovered =
                            ShardedDbLsh::load_dir(&torn_dir).expect("recover torn tail");
                        recovered.check_invariants();
                        assert_recovered_equals(
                            &recovered,
                            &reference,
                            &data,
                            &format!("torn op {t} +{off}B"),
                        );
                    }
                }
                apply_fleet(&reference, &ops[t], &mut ref_next_id, None);
            }
        }
        for dir in [&live, &snaps, &torn_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

}
