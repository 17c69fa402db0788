//! [`ShardedDbLsh`]: N independent [`DbLsh`] shards behind one global id
//! space, with a deterministic cross-shard top-k merge.
//!
//! # Shard layout and the id-space story
//!
//! Points are partitioned across shards at bulk build by a
//! [`ShardPolicy`]; afterwards [`ShardedDbLsh::insert`] routes each new
//! point to the least-loaded shard and [`ShardedDbLsh::remove`] routes by
//! the id→shard map. Three id spaces are in play, only one of them
//! public:
//!
//! * **global external ids** — the only ids callers ever see: the row
//!   index in the originally supplied dataset, plus densely increasing
//!   ids for inserts, exactly like an unsharded [`DbLsh`];
//! * **shard-local external ids** — each shard's own `DbLsh` row space;
//!   the router's `assign` table maps global → `(shard, local)` and each
//!   shard's `global_of_local` table maps back;
//! * **shard-internal ids** — the locality-relabeled layout *inside* each
//!   shard (see `DbLshParams::relabel`), which never leaks out of the
//!   shard, exactly as it never leaks out of an unsharded index.
//!
//! # Concurrency
//!
//! Every shard sits behind its own `RwLock`: readers never block each
//! other, and a writer blocks only its shard (plus a short critical
//! section on the router mutex to keep the global id map in step). A
//! query takes read locks on all shards for its duration — a consistent
//! snapshot — so a concurrent writer delays queries only for the length
//! of one single-shard update. No code path holds the router mutex while
//! acquiring a shard lock, which rules out lock-order cycles by
//! construction.
//!
//! # Determinism: the canonical cross-shard merge
//!
//! Queries run the *canonical round-exhaustive ladder*
//! ([`dblsh_core::CanonicalLadder`]): every shard probes the same radius,
//! all per-round candidates are merged and sorted into canonical
//! `(distance, global id)` order, and only then are the budget and `c·r`
//! termination rules applied. Because every shard is built with the same
//! resolved parameters (same Gaussian family, same ladder), window
//! membership and per-row distances are independent of which shard a
//! point lives in — so the answer is **byte-identical** to
//! [`DbLsh::search_canonical`] on an unsharded index over the same data,
//! for any shard count and any partition policy. The property tests in
//! `tests/properties.rs` assert exactly this, including after
//! interleaved insert/remove traffic.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use dblsh_core::{
    CanonicalLadder, DbLsh, DbLshBuilder, DbLshParams, LadderProber, ProberScratch, SearchOptions,
};
use dblsh_data::error::check_query;
use dblsh_data::io::{SectionBuf, SnapshotReader, SnapshotWriter};
use dblsh_data::kernels::key_parts;
use dblsh_data::wal::{WalFile, WriteFaultPlan};
use dblsh_data::{AnnIndex, Dataset, DbLshError, Neighbor, QueryStats, SearchResult, Sq8Grid};
use dblsh_telemetry::{QueryTrace, Stage};

use crate::walrec::{self, WalOp};

/// How the bulk-build partitions points across shards.
///
/// The policy only decides *initial placement*; query answers are
/// byte-identical under any placement (that is the point of the
/// canonical merge), so the choice is about balance and operational
/// convenience, not correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Point `i` goes to shard `i % shards`: perfectly balanced shard
    /// sizes for any input.
    #[default]
    RoundRobin,
    /// Point `i` goes to shard `mix64(i) % shards` (a fixed SplitMix64
    /// finalizer): placement is a pure function of the id, so two
    /// processes building over the same rows agree on placement without
    /// talking to each other. Balanced only in expectation; shards left
    /// empty on tiny inputs are topped up deterministically from the
    /// largest shard (every shard must hold at least one point).
    HashId,
}

/// Snapshot kind tag of a [`ShardedDbLsh`] fleet manifest
/// (`manifest.dblsh` in a [`ShardedDbLsh::save_dir`] directory).
pub const FLEET_SNAPSHOT_KIND: [u8; 4] = *b"SHRD";

/// WAL kind tag of a fleet shard's op log (`wal-<i>.dblshwal` next to
/// the fleet snapshot once [`ShardedDbLsh::enable_wal`] is on).
pub const FLEET_WAL_KIND: [u8; 4] = *b"SWAL";

/// The router's "this global id was allocated but never materialized"
/// sentinel: a torn WAL tail can lose the final (never-acknowledged)
/// insert of one shard while a later id from another shard survives.
/// Such holes stay permanently dead — ids are never recycled.
const UNASSIGNED: (u32, u32) = (u32::MAX, u32::MAX);

/// One write-ahead log per shard. Appends happen under the router
/// mutex (insert) or the owning shard's write lock (remove), so each
/// log is totally ordered and consistent with the acknowledgement
/// order of the operations it records.
#[derive(Debug)]
struct FleetWal {
    dir: PathBuf,
    logs: Vec<Mutex<WalFile>>,
}

impl FleetWal {
    fn append(&self, s: usize, payload: &[u8]) -> Result<(), DbLshError> {
        self.logs[s]
            .lock()
            .map_err(|_| DbLshError::poisoned("wal"))?
            .append(payload)
    }

    fn same_dir(&self, dir: &Path) -> bool {
        match (std::fs::canonicalize(&self.dir), std::fs::canonicalize(dir)) {
            (Ok(a), Ok(b)) => a == b,
            _ => self.dir == dir,
        }
    }
}

/// When a shard reclaims the space of its tombstoned rows
/// ([`DbLsh::compact`]). Checked after every successful remove, while
/// the shard's write lock is already held, so a compaction blocks
/// exactly what the triggering remove already blocked — its own shard —
/// and never perturbs the router's global id space (shard-local
/// external ids are preserved by compaction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once tombstoned rows reach this fraction of the shard's
    /// physical rows (live + dead). Paper-scale serving default: 0.3.
    pub dead_fraction: f64,
    /// ...and at least this many rows are dead — hysteresis so small
    /// shards don't re-compact on every handful of removes.
    pub min_dead_rows: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            dead_fraction: 0.3,
            min_dead_rows: 256,
        }
    }
}

impl CompactionPolicy {
    /// Whether a shard with `dead_rows` of `total_rows` physical rows
    /// should compact now.
    pub fn should_compact(&self, dead_rows: usize, total_rows: usize) -> bool {
        dead_rows >= self.min_dead_rows.max(1)
            && total_rows > 0
            && dead_rows as f64 >= self.dead_fraction * total_rows as f64
    }
}

/// SplitMix64 finalizer — a fixed, dependency-free 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ShardPolicy {
    fn shard_of(self, id: u32, shards: usize) -> usize {
        match self {
            ShardPolicy::RoundRobin => id as usize % shards,
            ShardPolicy::HashId => (mix64(id as u64) % shards as u64) as usize,
        }
    }
}

/// One shard: an independent [`DbLsh`] plus the map from its local
/// external ids back to global ids (`global_of_local[local] = global`).
#[derive(Debug)]
struct Shard {
    index: DbLsh,
    global_of_local: Vec<u32>,
}

/// The global id table: `assign[global] = (shard, local)` for every id
/// ever handed out (removals tombstone inside the shard; ids are never
/// recycled), plus per-shard live counts for least-loaded insert routing.
#[derive(Debug)]
struct Router {
    assign: Vec<(u32, u32)>,
    live: Vec<usize>,
}

impl Router {
    fn least_loaded(&self) -> usize {
        let mut best = 0;
        for (s, &n) in self.live.iter().enumerate() {
            if n < self.live[best] {
                best = s;
            }
        }
        best
    }
}

/// Per-thread fan-out buffers: one [`ProberScratch`] per shard plus the
/// merged-keys buffer the coordinator sorts.
#[derive(Default)]
struct FanOutScratch {
    probers: Vec<ProberScratch>,
    keys: Vec<u64>,
}

thread_local! {
    /// Reused across requests so the fan-out path (probing *and* the
    /// cross-shard merge) stops allocating after the first query on each
    /// worker thread.
    static FAN_OUT_SCRATCH: RefCell<FanOutScratch> =
        RefCell::new(FanOutScratch::default());
}

/// Borrow the thread's fan-out buffers (fresh ones on re-entrancy, e.g.
/// a Drop impl querying mid-query, rather than panicking).
fn with_fan_out_scratch<T>(f: impl FnOnce(&mut FanOutScratch) -> T) -> T {
    FAN_OUT_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut FanOutScratch::default()),
    })
}

/// One prober per locked shard for `q`, each over its own entry of the
/// thread's scratch pool (grown on first use).
fn shard_probers<'a>(
    guards: &'a [RwLockReadGuard<'_, Shard>],
    q: &'a [f32],
    scratch: &'a mut Vec<ProberScratch>,
    mut trace: Option<&mut QueryTrace>,
) -> Result<Vec<LadderProber<'a>>, DbLshError> {
    if scratch.len() < guards.len() {
        scratch.resize_with(guards.len(), ProberScratch::default);
    }
    let shards = guards.iter().zip(scratch.iter_mut());
    shards
        .map(|(g, sc)| g.index.ladder_prober(q, sc, trace.as_deref_mut()))
        .collect()
}

/// N independent [`DbLsh`] shards behind one global id space with a
/// deterministic cross-shard top-k merge; see the module docs for the
/// layout, locking and determinism story.
///
/// All methods take `&self`: writers lock one shard, readers lock all
/// shards shared, so the structure is directly usable from a worker pool
/// (see [`crate::Engine`]).
#[derive(Debug)]
pub struct ShardedDbLsh {
    shards: Vec<RwLock<Shard>>,
    router: Mutex<Router>,
    params: DbLshParams,
    policy: ShardPolicy,
    dim: usize,
    /// Per-shard auto-compaction policy; `None` leaves reclamation to
    /// manual [`ShardedDbLsh::compact`] calls.
    compaction: Option<CompactionPolicy>,
    /// Total shard compactions performed (automatic + manual).
    compactions: AtomicU64,
    /// Per-shard write-ahead logs ([`ShardedDbLsh::enable_wal`]); when
    /// set, every insert/remove is logged **before** it is applied and
    /// [`ShardedDbLsh::load_dir`] replays the tail past the snapshot.
    wal: Option<FleetWal>,
    /// How many shard logs had a torn (partially written) final record
    /// dropped and physically truncated during the [`ShardedDbLsh::load_dir`]
    /// crash recovery that produced this fleet. The fault-path counter
    /// the torture harness asserts on.
    wal_truncations: AtomicU64,
}

impl ShardedDbLsh {
    /// Build from a [`DbLshBuilder`]: the configuration — including a
    /// requested `auto_r_min` estimate — is resolved **once over the
    /// full dataset**, then every shard is built with the identical
    /// resolved parameters, which is what keeps sharded answers
    /// byte-identical to an unsharded build.
    pub fn build(
        data: &Dataset,
        builder: &DbLshBuilder,
        shards: usize,
        policy: ShardPolicy,
    ) -> Result<Self, DbLshError> {
        let params = builder.resolve_params_for(data)?;
        ShardedDbLsh::build_with_params(data, &params, shards, policy)
    }

    /// Build from fully resolved parameters (shared verbatim by every
    /// shard). Fails on an empty dataset, `shards == 0`, or fewer points
    /// than shards (every shard must hold at least one point).
    pub fn build_with_params(
        data: &Dataset,
        params: &DbLshParams,
        shards: usize,
        policy: ShardPolicy,
    ) -> Result<Self, DbLshError> {
        params.validate()?;
        if shards == 0 {
            return Err(DbLshError::invalid("shards", "need at least one shard"));
        }
        let n = data.len();
        if n == 0 {
            return Err(DbLshError::EmptyDataset);
        }
        if n > u32::MAX as usize {
            return Err(DbLshError::CapacityExceeded {
                limit: u32::MAX as usize,
            });
        }
        if n < shards {
            return Err(DbLshError::invalid(
                "shards",
                format!("{n} points cannot populate {shards} shards (every shard needs at least one point)"),
            ));
        }
        // Partition global ids by policy...
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for g in 0..n as u32 {
            members[policy.shard_of(g, shards)].push(g);
        }
        // ...topping up empty shards deterministically from the largest
        // one (HashId can leave shards empty on tiny inputs).
        while let Some(empty) = members.iter().position(Vec::is_empty) {
            // `n >= shards` was checked above, so while any shard is
            // empty some other shard holds at least two points — the
            // `else` arms are unreachable, spelled as loop exits so the
            // build path stays free of panic tokens.
            let Some(largest) = (0..shards).max_by_key(|&s| members[s].len()) else {
                break;
            };
            let Some(moved) = members[largest].pop() else {
                break;
            };
            members[empty].push(moved);
        }

        // Build every shard over its own row subset, in parallel. The
        // SQ8 pre-filter grid is learned ONCE over the full dataset and
        // injected into every shard: per-shard grids would quantize the
        // same point differently depending on placement, breaking the
        // byte-identical-to-unsharded contract (grid learning is a
        // per-dimension min/max over the point multiset, so the full-data
        // grid is exactly what an unsharded build would learn).
        let dim = data.dim();
        let grid = Sq8Grid::learn(dim, data.flat());
        let grid = &grid;
        let mut built: Vec<Option<Result<Shard, DbLshError>>> = Vec::new();
        built.resize_with(shards, || None);
        std::thread::scope(|scope| {
            for (slot, ids) in built.iter_mut().zip(&members) {
                scope.spawn(move || {
                    let mut rows = Vec::with_capacity(ids.len() * dim);
                    for &g in ids {
                        rows.extend_from_slice(data.point(g as usize));
                    }
                    *slot = Some(
                        Dataset::try_from_flat(dim, rows)
                            .and_then(|d| {
                                DbLsh::build_with_grid(Arc::new(d), params, Some(grid.clone()))
                            })
                            .map(|index| Shard {
                                index,
                                global_of_local: ids.clone(),
                            }),
                    );
                });
            }
        });
        let mut shard_vec = Vec::with_capacity(shards);
        for slot in built {
            // lint: allow(panic-free-surface) — thread::scope joined every builder, so each slot was written
            shard_vec.push(RwLock::new(slot.expect("shard build ran")?));
        }

        let mut assign = vec![(0u32, 0u32); n];
        let mut live = vec![0usize; shards];
        for (s, ids) in members.iter().enumerate() {
            live[s] = ids.len();
            for (local, &g) in ids.iter().enumerate() {
                assign[g as usize] = (s as u32, local as u32);
            }
        }

        Ok(ShardedDbLsh {
            shards: shard_vec,
            router: Mutex::new(Router { assign, live }),
            params: params.clone(),
            policy,
            dim,
            compaction: None,
            compactions: AtomicU64::new(0),
            wal: None,
            wal_truncations: AtomicU64::new(0),
        })
    }

    /// Turn on write-ahead logging rooted at `dir`: a baseline
    /// checkpoint ([`ShardedDbLsh::save_dir`]) is written immediately,
    /// one `wal-<i>.dblshwal` log is created per shard, and from here
    /// on every insert/remove is appended to its shard's log **before**
    /// it is applied. [`ShardedDbLsh::load_dir`] on the same directory
    /// is then *crash recovery*: snapshot + WAL replay reconstructs the
    /// exact pre-crash state, and each successful `save_dir` into `dir`
    /// truncates the logs (the checkpoint made them redundant).
    ///
    /// Durability model: an acknowledged write has reached the OS (it
    /// survives a process kill); call [`ShardedDbLsh::sync_wal`] where
    /// power-loss durability is required. Logging serializes inserts
    /// fleet-wide for the length of one log append (id allocation and
    /// the append must be atomic under the router mutex); removes only
    /// serialize against their own shard.
    pub fn enable_wal<P: AsRef<Path>>(mut self, dir: P) -> Result<Self, DbLshError> {
        if self.wal.is_some() {
            return Err(DbLshError::invalid("wal", "WAL is already enabled"));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| DbLshError::io("create", e))?;
        let mut logs = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            logs.push(Mutex::new(WalFile::create(
                dir.join(format!("wal-{s}.dblshwal")),
                FLEET_WAL_KIND,
            )?));
        }
        self.wal = Some(FleetWal {
            dir: dir.clone(),
            logs,
        });
        self.save_dir(&dir)?;
        Ok(self)
    }

    /// Whether write-ahead logging is on, and where it lives.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.wal.as_ref().map(|w| w.dir.as_path())
    }

    /// fsync every shard's WAL — the power-loss durability point for
    /// writes acknowledged since the last sync (appends alone are
    /// process-crash durable only).
    pub fn sync_wal(&self) -> Result<(), DbLshError> {
        if let Some(wal) = &self.wal {
            for log in &wal.logs {
                log.lock()
                    .map_err(|_| DbLshError::poisoned("wal"))?
                    .sync()?;
            }
        }
        Ok(())
    }

    /// Fault-injection hook for the torture harness, the WAL-side
    /// counterpart of [`crate::Engine::inject_worker_panic`]: install
    /// (or, with `None`, clear) a seeded I/O fault plan on every shard's
    /// log. Interrupts and short writes are absorbed by the append; a
    /// hard failure makes the write return the typed
    /// [`DbLshError::Io`] having published nothing — no id is burnt and
    /// no point changes. A no-op without a WAL.
    #[doc(hidden)]
    pub fn set_wal_faults(&self, faults: Option<WriteFaultPlan>) {
        if let Some(wal) = &self.wal {
            for log in &wal.logs {
                log.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .set_faults(faults.clone());
            }
        }
    }

    /// Enable per-shard auto-compaction: after every successful remove
    /// the owning shard is compacted in place (under the write lock the
    /// remove already holds) once `policy` says its dead-row share is
    /// worth reclaiming.
    pub fn with_compaction_policy(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = Some(policy);
        self
    }

    /// The auto-compaction policy, if one is set.
    pub fn compaction_policy(&self) -> Option<CompactionPolicy> {
        self.compaction
    }

    /// Total shard compactions performed so far (automatic and manual).
    pub fn compaction_count(&self) -> u64 {
        // order: standalone monotone counter, reporting only.
        self.compactions.load(Ordering::Relaxed)
    }

    /// Compact every shard now, regardless of policy, one write lock at
    /// a time. Returns the total number of dead rows reclaimed, or
    /// [`DbLshError::LockPoisoned`] if a writer panicked mid-mutation —
    /// compacting possibly-torn rows would bake the tear in.
    pub fn compact(&self) -> Result<usize, DbLshError> {
        let mut dropped = 0usize;
        for lock in &self.shards {
            let mut shard = lock.write().map_err(|_| DbLshError::poisoned("shard"))?;
            let stats = shard.index.compact();
            if stats.dropped_rows > 0 {
                // order: standalone monotone counter; the compaction
                // itself is ordered by the shard write lock.
                self.compactions.fetch_add(1, Ordering::Relaxed);
            }
            dropped += stats.dropped_rows;
        }
        Ok(dropped)
    }

    /// Sum of tombstoned rows still occupying space across all shards.
    pub fn dead_rows(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .index
                    .dead_rows()
            })
            .sum()
    }

    /// The resolved parameters every shard was built with.
    pub fn params(&self) -> &DbLshParams {
        &self.params
    }

    /// The bulk-build partition policy.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Live points per shard, in shard order.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.router().live.clone()
    }

    /// Total number of live points across all shards.
    pub fn len(&self) -> usize {
        self.router().live.iter().sum()
    }

    /// True if no live points remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` names a live point.
    pub fn contains(&self, id: u32) -> bool {
        let Some(&(s, local)) = self.router().assign.get(id as usize) else {
            return false;
        };
        if (s, local) == UNASSIGNED {
            // A crash-recovery hole (allocated, never acknowledged).
            return false;
        }
        self.read_shard(s as usize).index.contains(local)
    }

    /// Router guard for read-only observers (`len`, `shard_lens`,
    /// `contains`, `memory_bytes`). Poisoning is recovered: the router's
    /// tables are plain `Vec`s whose every published state is readable,
    /// so an observer answering from a poisoned router reports the last
    /// published state rather than panicking a metrics scrape. Mutation
    /// paths use [`ShardedDbLsh::try_router`] instead and refuse.
    fn router(&self) -> MutexGuard<'_, Router> {
        self.router.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Router guard for mutation paths: a poisoned router means a writer
    /// panicked mid-publication, so mutating on top would compound the
    /// tear — surface [`DbLshError::LockPoisoned`] instead.
    fn try_router(&self) -> Result<MutexGuard<'_, Router>, DbLshError> {
        self.router
            .lock()
            .map_err(|_| DbLshError::poisoned("router"))
    }

    /// Read guard on shard `s` for infallible observers; poisoning is
    /// recovered on the same grounds as [`ShardedDbLsh::router`].
    fn read_shard(&self, s: usize) -> RwLockReadGuard<'_, Shard> {
        self.shards[s]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Read guards on every shard at once (query fan-out, snapshots):
    /// these paths surface [`DbLshError::LockPoisoned`] rather than
    /// answer from an index a writer panicked inside of.
    fn read_all_shards(&self) -> Result<Vec<RwLockReadGuard<'_, Shard>>, DbLshError> {
        self.shards
            .iter()
            .map(|s| s.read().map_err(|_| DbLshError::poisoned("shard")))
            .collect()
    }

    /// Fallible write guard on shard `s` for the mutation paths.
    fn try_write_shard(&self, s: usize) -> Result<RwLockWriteGuard<'_, Shard>, DbLshError> {
        self.shards[s]
            .write()
            .map_err(|_| DbLshError::poisoned("shard"))
    }

    /// Insert one point, routed to the least-loaded shard (ties break to
    /// the lowest shard index). Returns the new point's **global** id —
    /// ids keep increasing densely across the whole engine, exactly like
    /// an unsharded index. Blocks writers of the same shard only.
    pub fn insert(&self, point: &[f32]) -> Result<u32, DbLshError> {
        if point.len() != self.dim {
            return Err(DbLshError::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            });
        }
        if !point.iter().all(|v| v.is_finite()) {
            return Err(DbLshError::NonFiniteCoordinate);
        }
        let s = {
            let router = self.try_router()?;
            if router.assign.len() >= u32::MAX as usize {
                return Err(DbLshError::CapacityExceeded {
                    limit: u32::MAX as usize,
                });
            }
            router.least_loaded()
        };
        let mut shard = self.try_write_shard(s)?;
        // The local id `DbLsh::insert` will assign is its current id
        // bound (local external ids are dense), so the global mapping
        // can be logged and published *before* the apply.
        let local = shard.index.id_bound() as u32;
        // Allocate the global id, log, and publish atomically under the
        // router mutex (shard → router is the allowed lock order). The
        // WAL append must sit inside this critical section: ids are
        // acknowledged densely, so the log record claiming id `g` has
        // to win the same race that hands out `g`. A failed append
        // publishes nothing — no id is burnt, the caller sees the
        // error, and the on-disk log was rolled back by `WalFile`.
        let g = {
            let mut router = self.try_router()?;
            if router.assign.len() >= u32::MAX as usize {
                return Err(DbLshError::CapacityExceeded {
                    limit: u32::MAX as usize,
                });
            }
            let g = router.assign.len() as u32;
            if let Some(wal) = &self.wal {
                wal.append(s, &walrec::encode_insert(g, point))?;
            }
            router.assign.push((s as u32, local));
            g
        };
        // Apply under the shard write lock the mapping was published
        // under: a concurrent remove can never observe the mapping
        // before the point is queryable, and `len`/`check_invariants`
        // (which read the router only after the shard locks are free
        // or held shared) never see a count out of step with the
        // shard's actual contents. The apply cannot fail here — the
        // point is validated and capacity was checked — but if it ever
        // did, the logged record makes recovery apply what the caller
        // was told failed, which is the WAL's standard ambiguity for
        // un-acknowledged writes.
        match shard.index.insert(point) {
            Ok(applied) => {
                debug_assert_eq!(applied, local);
                shard.global_of_local.push(g);
                debug_assert_eq!(shard.global_of_local.len(), shard.index.id_bound());
                self.try_router()?.live[s] += 1;
                Ok(g)
            }
            Err(e) => Err(e),
        }
    }

    /// Remove the point with global id `id`, routed through the
    /// id→shard map. Same contract as [`DbLsh::remove`]: `Ok(true)` if
    /// it was live, `Ok(false)` if already removed, `Err(UnknownId)` if
    /// the id was never handed out.
    pub fn remove(&self, id: u32) -> Result<bool, DbLshError> {
        let (s, local) = {
            let router = self.try_router()?;
            match router.assign.get(id as usize) {
                None => return Err(DbLshError::UnknownId { id }),
                // A crash-recovery hole: the id was allocated but its
                // insert was torn from the WAL before acknowledgement.
                Some(&entry) if entry == UNASSIGNED => return Err(DbLshError::UnknownId { id }),
                Some(&(s, local)) => (s as usize, local),
            }
        };
        let mut shard = self.try_write_shard(s)?;
        // Log before applying — but only removes that will actually
        // flip a live point (the outcome is stable under the write
        // lock), so replay never has to guess about no-ops.
        if let Some(wal) = self.wal.as_ref() {
            if shard.index.contains(local) {
                wal.append(s, &walrec::encode_remove(id, local))?;
            }
        }
        let removed = shard.index.remove(local).map_err(|e| match e {
            DbLshError::UnknownId { .. } => DbLshError::UnknownId { id },
            other => other,
        })?;
        if removed {
            // Decrement while still holding the shard lock, for the same
            // observability guarantee as `insert` (shard → router is the
            // allowed lock order).
            self.try_router()?.live[s] -= 1;
            // Auto-compaction rides the write lock this remove already
            // holds: shard-local external ids survive compaction, so the
            // router's tables and every global id stay untouched.
            if let Some(policy) = self.compaction {
                let index = &mut shard.index;
                if policy.should_compact(index.dead_rows(), index.len() + index.dead_rows()) {
                    index.compact();
                    // order: standalone monotone counter; the compaction
                    // itself is ordered by the shard write lock.
                    self.compactions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(removed)
    }

    /// (c,k)-ANN with the index-wide defaults; see
    /// [`ShardedDbLsh::search_with`].
    pub fn k_ann(&self, q: &[f32], k: usize) -> Result<SearchResult, DbLshError> {
        self.search_with(q, k, &SearchOptions::default())
    }

    /// (c,k)-ANN over all shards: the canonical round-exhaustive ladder,
    /// byte-identical to [`DbLsh::search_canonical`] on an unsharded
    /// index over the same data and parameters (see the module docs).
    /// Takes a read lock on every shard for the duration of the query.
    pub fn search_with(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> Result<SearchResult, DbLshError> {
        self.fan_out(q, k, opts, None)
    }

    /// [`ShardedDbLsh::search_with`] with a per-stage
    /// [`dblsh_telemetry::QueryTrace`]: the wait for the shard read locks
    /// ([`Stage::Queue`]), projection (all shards' query-projection + SQ8
    /// preparation), per-round tree probing, SQ8 pre-filtering, exact
    /// verification, and the cross-shard canonical merge (`sort_unstable`
    /// and ladder consumption, [`Stage::Merge`]) are timed into `trace`.
    /// It is the same code as the untraced search — only the clock reads
    /// depend on `trace` — so the serving engine flips tracing per
    /// request without perturbing answers or [`QueryStats`].
    pub fn search_with_trace(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
        trace: &mut QueryTrace,
    ) -> Result<SearchResult, DbLshError> {
        self.fan_out(q, k, opts, Some(trace))
    }

    /// The fan-out/merge kernel: probe every shard per ladder round,
    /// merge the per-shard canonical key streams, and let the
    /// [`CanonicalLadder`] consume them in global `(distance, id)` order.
    /// Traced when `trace` is `Some` (the engine decides per request).
    pub(crate) fn fan_out(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
        mut trace: Option<&mut QueryTrace>,
    ) -> Result<SearchResult, DbLshError> {
        check_query(self.dim, q, k)?;
        let plan = opts.plan(&self.params, k)?;
        // Time spent behind a writer (a compaction, say) is waiting
        // before work starts, not work.
        let lock_wait = trace.is_some().then(Instant::now);
        let guards = self.read_all_shards()?;
        if let (Some(trace), Some(t)) = (trace.as_deref_mut(), lock_wait) {
            trace.add(Stage::Queue, t.elapsed().as_nanos() as u64);
        }
        with_fan_out_scratch(|FanOutScratch { probers, keys }| {
            let mut probers = shard_probers(&guards, q, probers, trace.as_deref_mut())?;
            let live = guards.iter().map(|g| g.index.len()).sum();
            let mut ladder = CanonicalLadder::new(&plan, self.params.c, k, live);
            let mut stats = QueryStats::default();
            while let Some(r) = ladder.begin_round(&mut stats) {
                keys.clear();
                // Same threshold for every shard in the round (the k-th
                // best exact distance seen so far, across all shards), so
                // pruning decisions are independent of placement.
                let prune = plan.prefilter.then(|| ladder.prune_threshold());
                for (guard, prober) in guards.iter().zip(probers.iter_mut()) {
                    keys.extend_from_slice(prober.probe_round(
                        r,
                        plan.timing,
                        prune,
                        &mut stats,
                        |local| guard.global_of_local[local as usize],
                        trace.as_deref_mut(),
                    ));
                }
                let merge = trace.is_some().then(Instant::now);
                keys.sort_unstable(); // merge: global canonical order
                ladder.consume(keys, &mut stats);
                if let (Some(trace), Some(t)) = (trace.as_deref_mut(), merge) {
                    trace.add(Stage::Merge, t.elapsed().as_nanos() as u64);
                }
            }
            if opts.skip_stats {
                stats = QueryStats::default();
            }
            Ok(ladder.into_result(stats))
        })
    }

    /// One `(r, c)`-NN probe over all shards, with the canonical
    /// consumption order (the whole merged round in ascending
    /// `(distance, id)` order — deterministic under any sharding, unlike
    /// [`DbLsh::r_c_nn`]'s enumeration-order early exit).
    pub fn r_c_nn(&self, q: &[f32], r: f64) -> Result<(Option<Neighbor>, QueryStats), DbLshError> {
        check_query(self.dim, q, 1)?;
        if !(r > 0.0 && r.is_finite()) {
            return Err(DbLshError::invalid(
                "r",
                "probe radius must be positive and finite",
            ));
        }
        let budget = self.params.rcnn_budget();
        let cr = self.params.c * r;
        let mut stats = QueryStats {
            rounds: 1,
            ..QueryStats::default()
        };
        let guards = self.read_all_shards()?;
        with_fan_out_scratch(|FanOutScratch { probers, keys }| {
            keys.clear();
            let mut probers = shard_probers(&guards, q, probers, None)?;
            for (guard, prober) in guards.iter().zip(probers.iter_mut()) {
                // (r,c)-NN is a single exact probe with no evolving k-th
                // best: no pre-filter (mirrors `DbLsh::r_c_nn`).
                let to_global = |local| guard.global_of_local[local as usize];
                keys.extend_from_slice(
                    prober.probe_round(r, false, None, &mut stats, to_global, None),
                );
            }
            keys.sort_unstable();
            // Keys are sorted ascending, so the first one is the closest
            // verified point: if it is within `c·r` it is the answer, and
            // if the budget runs out first it is still the best point the
            // probe can report (the budget-exhaustion case of
            // Definition 2 — the canonical order makes "return the
            // closest verified point" free, where the classic
            // enumeration-order probe returns whichever candidate
            // happened to exhaust the budget).
            if let Some(&first) = keys.first() {
                let (id, d) = key_parts(first);
                if d <= cr {
                    stats.candidates += 1;
                    return Ok((Some(Neighbor { id, dist: d as f32 }), stats));
                }
                if keys.len() >= budget {
                    stats.candidates += budget;
                    return Ok((Some(Neighbor { id, dist: d as f32 }), stats));
                }
                stats.candidates += keys.len();
            }
            Ok((None, stats))
        })
    }

    /// Answer one (c,k)-ANN query per row of `queries`, fanning rows
    /// across all available cores (each worker runs the full cross-shard
    /// merge for its rows). Results are in query order.
    pub fn search_batch(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> Result<Vec<SearchResult>, DbLshError> {
        self.search_batch_with(queries, k, &SearchOptions::default())
    }

    /// [`ShardedDbLsh::search_batch`] with per-batch [`SearchOptions`].
    pub fn search_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> Result<Vec<SearchResult>, DbLshError> {
        dblsh_data::parallel_search_batch(queries, self.dim, k, |q| self.search_with(q, k, opts))
    }

    /// Total heap footprint: every shard's index structures plus the
    /// global id tables.
    pub fn memory_bytes(&self) -> usize {
        let tables: usize = {
            let router = self.router();
            router.assign.len() * std::mem::size_of::<(u32, u32)>()
        };
        let shards: usize = self
            .shards
            .iter()
            .map(|s| {
                let g = s.read().unwrap_or_else(PoisonError::into_inner);
                g.index.memory_bytes() + g.global_of_local.len() * std::mem::size_of::<u32>()
            })
            .sum();
        tables + shards
    }

    /// Verify cross-shard invariants: the router's `assign` table and the
    /// shards' `global_of_local` tables are mutually inverse, live counts
    /// agree with every shard's live size, and every shard passes its own
    /// [`DbLsh::check_invariants`]. Panics with a description on
    /// violation. Cost is a full scan of every shard.
    pub fn check_invariants(&self) {
        // This is a panics-by-design diagnostic, so a poisoned lock is
        // recovered and the (possibly torn) state checked anyway — the
        // asserts below are exactly the right reporter for a tear.
        let guards: Vec<RwLockReadGuard<'_, Shard>> = self
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let router = self.router();
        assert_eq!(router.live.len(), guards.len(), "live table size");
        let total_ids: usize = guards.iter().map(|g| g.index.id_bound()).sum();
        // Crash-recovery holes (allocated but never-acknowledged ids)
        // sit in `assign` as sentinels and belong to no shard.
        let assigned = router
            .assign
            .iter()
            .filter(|&&entry| entry != UNASSIGNED)
            .count();
        assert_eq!(
            assigned, total_ids,
            "assign table out of step with shard id spaces"
        );
        for (s, guard) in guards.iter().enumerate() {
            assert_eq!(guard.index.data().dim(), self.dim, "shard {s} dim");
            assert_eq!(
                guard.global_of_local.len(),
                guard.index.id_bound(),
                "shard {s} id table out of step with its id space"
            );
            assert_eq!(
                router.live[s],
                guard.index.len(),
                "shard {s} live count out of sync"
            );
            for (local, &g) in guard.global_of_local.iter().enumerate() {
                assert_eq!(
                    router.assign[g as usize],
                    (s as u32, local as u32),
                    "assign and global_of_local disagree at global id {g}"
                );
            }
            guard.index.check_invariants();
        }
    }

    /// Snapshot the whole serving fleet into a directory: one
    /// `manifest.dblsh` (shard count, partition policy, compaction
    /// policy, the global id space, and every shard's local→global id
    /// table) plus one `shard-<i>.dblsh` index snapshot per shard
    /// ([`DbLsh::save`]).
    /// All shard read locks are held for the duration, so the snapshot
    /// is a consistent point-in-time cut even under concurrent writers.
    ///
    /// The router's `assign` table is *not* stored, only its length —
    /// it is the inverse of the shards' id tables and is rebuilt (and
    /// cross-checked) by [`ShardedDbLsh::load_dir`].
    ///
    /// Crash safety: every file is written to a `.tmp` sibling and
    /// renamed into place, and the manifest — whose id tables must
    /// match the shard files — is committed **last**, so an interrupted
    /// save leaves the directory's previous consistent snapshot intact.
    pub fn save_dir<P: AsRef<Path>>(&self, dir: P) -> Result<(), DbLshError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| DbLshError::io("create", e))?;
        let guards: Vec<RwLockReadGuard<'_, Shard>> = self.read_all_shards()?;

        let mut w = SnapshotWriter::new(FLEET_SNAPSHOT_KIND);
        let mut meta = SectionBuf::new();
        meta.put_u64(guards.len() as u64);
        meta.put_u64(self.dim as u64);
        meta.put_u8(match self.policy {
            ShardPolicy::RoundRobin => 0,
            ShardPolicy::HashId => 1,
        });
        meta.put_u8(u8::from(self.compaction.is_some()));
        let policy = self.compaction.unwrap_or_default();
        meta.put_f64(policy.dead_fraction);
        meta.put_u64(policy.min_dead_rows as u64);
        // Trailing optional fields (readers check `remaining()`, so
        // older manifests still parse). First: whether WAL files
        // accompany this snapshot and must be replayed by `load_dir` —
        // only in the WAL's own directory; a snapshot saved anywhere
        // else is a copy that holds no logs.
        let wal_here = self.wal.as_ref().is_some_and(|w| w.same_dir(dir));
        meta.put_u8(u8::from(wal_here));
        // Second: the global id space at the cut. Crash holes make it
        // larger than the ids the shards claim; `load_dir` keeps those
        // holes dead and skips every replayed insert below it. Writers
        // publish ids under a shard write lock, so the read locks held
        // here freeze it (shard → router is the allowed order).
        meta.put_u64(self.router().assign.len() as u64);
        w.section(*b"META", meta);
        let mut glob = SectionBuf::new();
        for guard in &guards {
            glob.put_u64(guard.global_of_local.len() as u64);
            glob.put_u32_slice(&guard.global_of_local);
        }
        w.section(*b"GLOB", glob);

        for (s, guard) in guards.iter().enumerate() {
            guard
                .index
                .save_file(dir.join(format!("shard-{s}.dblsh")))?;
        }
        w.write_file(dir.join("manifest.dblsh"))?;

        // The manifest commit makes every logged record redundant:
        // truncate the WALs while the shard read locks are still held
        // (writers log under a shard *write* lock, so nothing can
        // slip a record in between the snapshot cut and the truncate).
        // A crash in between is benign — replay is idempotent against
        // the newer snapshot (inserts below its id space are skipped,
        // re-removes are no-ops). Checkpointing into a directory other
        // than the WAL's leaves the logs alone: that snapshot is a
        // copy, not the recovery image the logs extend.
        if let Some(wal) = self.wal.as_ref().filter(|_| wal_here) {
            for log in &wal.logs {
                log.lock()
                    .map_err(|_| DbLshError::poisoned("wal"))?
                    .truncate()?;
            }
        }
        Ok(())
    }

    /// Restore a fleet saved by [`ShardedDbLsh::save_dir`]: load every
    /// shard snapshot, rebuild the router's `assign` table from the
    /// shards' id tables, and cross-check the whole global id space
    /// (no global id claimed twice, no id past the saved id space
    /// without a WAL to explain it, every shard built with identical
    /// parameters and dimensionality). Any inconsistency —
    /// a missing or mangled file, shards from different builds mixed
    /// into one directory — is a typed [`DbLshError`].
    pub fn load_dir<P: AsRef<Path>>(dir: P) -> Result<Self, DbLshError> {
        let dir = dir.as_ref();
        let manifest = SnapshotReader::read_file(dir.join("manifest.dblsh"), FLEET_SNAPSHOT_KIND)?;
        let mut meta = manifest.section(*b"META")?;
        let shard_count = meta.get_len()?;
        let dim = meta.get_len()?;
        let policy = match meta.get_u8()? {
            0 => ShardPolicy::RoundRobin,
            1 => ShardPolicy::HashId,
            other => {
                return Err(DbLshError::corrupt(format!(
                    "unknown shard policy tag {other}"
                )))
            }
        };
        let has_compaction = meta.get_u8()? != 0;
        let compaction = CompactionPolicy {
            dead_fraction: meta.get_f64()?,
            min_dead_rows: meta.get_len()?,
        };
        // Optional trailing fields — absent in older manifests.
        let wal_enabled = meta.remaining() > 0 && meta.get_u8()? != 0;
        let id_space = if meta.remaining() > 0 {
            Some(meta.get_len()?)
        } else {
            None
        };
        meta.finish()?;
        if shard_count == 0 {
            return Err(DbLshError::corrupt("manifest names zero shards"));
        }
        if has_compaction && !compaction.dead_fraction.is_finite() {
            return Err(DbLshError::corrupt("non-finite compaction threshold"));
        }

        let mut glob = manifest.section(*b"GLOB")?;
        let mut tables: Vec<Vec<u32>> = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let len = glob.get_len()?;
            tables.push(glob.get_u32_vec(len)?);
        }
        glob.finish()?;
        // The global id space at the checkpoint: every id below it was
        // handed out before the cut, so the snapshot either holds it or
        // it is a crash hole. Manifests without the field tile exactly
        // the ids their shards claim.
        let claimed: usize = tables.iter().map(Vec::len).sum();
        let base_total = id_space.unwrap_or(claimed);
        if base_total < claimed || base_total > u32::MAX as usize {
            return Err(DbLshError::corrupt(format!(
                "manifest id space {base_total} cannot hold the {claimed} ids its shards claim"
            )));
        }

        let mut shards: Vec<RwLock<Shard>> = Vec::with_capacity(shard_count);
        let mut params: Option<DbLshParams> = None;
        for (s, global_of_local) in tables.iter().enumerate() {
            let index = DbLsh::load_file(dir.join(format!("shard-{s}.dblsh")))?;
            if index.data().dim() != dim {
                return Err(DbLshError::corrupt(format!(
                    "shard {s} is {}-dimensional, manifest says {dim}",
                    index.data().dim()
                )));
            }
            match &params {
                None => params = Some(index.params().clone()),
                Some(p) if p != index.params() => {
                    return Err(DbLshError::corrupt(format!(
                        "shard {s} was built with different parameters than shard 0"
                    )));
                }
                Some(_) => {}
            }
            if global_of_local.len() != index.id_bound() {
                return Err(DbLshError::corrupt(format!(
                    "shard {s} id table covers {} locals, index has {}",
                    global_of_local.len(),
                    index.id_bound()
                )));
            }
            shards.push(RwLock::new(Shard {
                index,
                global_of_local: global_of_local.clone(),
            }));
        }
        let Some(params) = params else {
            return Err(DbLshError::corrupt("manifest names zero shards"));
        };

        // Crash recovery: replay each shard's WAL tail on top of its
        // snapshot. The snapshot covers global ids [0, base_total);
        // records below that bound predate the checkpoint (a crash hit
        // between the manifest commit and the log truncation) and are
        // skipped — replay is idempotent. Torn final records were
        // already dropped (and physically truncated) by `WalFile::open`;
        // they were never acknowledged.
        let mut torn_tails = 0u64;
        let wal = if wal_enabled {
            let mut logs = Vec::with_capacity(shard_count);
            for (s, lock) in shards.iter_mut().enumerate() {
                let (log, replay) =
                    WalFile::open(dir.join(format!("wal-{s}.dblshwal")), FLEET_WAL_KIND)?;
                torn_tails += u64::from(replay.torn);
                let shard = lock.get_mut().unwrap_or_else(PoisonError::into_inner);
                for (i, rec) in replay.records.iter().enumerate() {
                    let fail = |e: DbLshError| {
                        DbLshError::corrupt(format!("replaying WAL record {i} of shard {s}: {e}"))
                    };
                    match walrec::decode(rec)? {
                        WalOp::Insert { global, point } => {
                            if (global as usize) < base_total {
                                continue; // already in the snapshot
                            }
                            let local = shard.index.insert(&point).map_err(fail)?;
                            debug_assert_eq!(local as usize + 1, shard.index.id_bound());
                            shard.global_of_local.push(global);
                        }
                        WalOp::Remove { global: _, local } => {
                            if (local as usize) >= shard.index.id_bound() {
                                return Err(fail(DbLshError::UnknownId { id: local }));
                            }
                            // Ok(false) = logged before the checkpoint
                            // that already reflects it; a no-op.
                            shard.index.remove(local).map_err(fail)?;
                        }
                    }
                }
                logs.push(Mutex::new(log));
            }
            Some(FleetWal {
                dir: dir.to_path_buf(),
                logs,
            })
        } else {
            None
        };

        // Rebuild the router from the (replayed) shards' id tables. Every
        // id is claimed at most once; unclaimed ids are holes and stay
        // permanently dead. Holes below the checkpoint's id space were
        // holes at the cut; past it, a torn tail can lose shard A's
        // final (never-acknowledged) insert while a later id from shard
        // B survives. A manifest without the id-space field admits no
        // hole below its claimed count.
        let tables: Vec<Vec<u32>> = shards
            .iter_mut()
            .map(|l| {
                l.get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .global_of_local
                    .clone()
            })
            .collect();
        let total = if wal_enabled {
            tables
                .iter()
                .flat_map(|t| t.iter())
                .map(|&g| g as usize + 1)
                .fold(base_total, usize::max)
        } else {
            base_total
        };
        let mut assign = vec![UNASSIGNED; total];
        for (s, table) in tables.iter().enumerate() {
            for (local, &g) in table.iter().enumerate() {
                let slot = assign.get_mut(g as usize).ok_or_else(|| {
                    DbLshError::corrupt(format!("global id {g} exceeds the fleet id space {total}"))
                })?;
                if *slot != UNASSIGNED {
                    return Err(DbLshError::corrupt(format!(
                        "global id {g} is claimed by two shards"
                    )));
                }
                *slot = (s as u32, local as u32);
            }
        }
        if id_space.is_none() {
            if let Some(g) = assign
                .iter()
                .take(base_total)
                .position(|&s| s == UNASSIGNED)
            {
                return Err(DbLshError::corrupt(format!(
                    "global id {g} inside the snapshot is claimed by no shard"
                )));
            }
        }
        let live: Vec<usize> = shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).index.len())
            .collect();

        Ok(ShardedDbLsh {
            shards,
            router: Mutex::new(Router { assign, live }),
            params,
            policy,
            dim,
            compaction: has_compaction.then_some(compaction),
            compactions: AtomicU64::new(0),
            wal,
            wal_truncations: AtomicU64::new(torn_tails),
        })
    }

    /// How many shard WAL logs had a torn final record dropped (and the
    /// file physically truncated back to the last whole record) by the
    /// [`ShardedDbLsh::load_dir`] crash recovery that produced this
    /// fleet. Zero for a freshly built fleet or a clean shutdown; the
    /// torture harness asserts it goes non-zero when it tears log tails
    /// on purpose.
    pub fn wal_truncations_recovered(&self) -> u64 {
        // order: written once during single-threaded recovery, read for
        // reporting — no concurrent writer to order against.
        self.wal_truncations.load(Ordering::Relaxed)
    }
}

impl AnnIndex for ShardedDbLsh {
    fn name(&self) -> &'static str {
        "DB-LSH-sharded"
    }

    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult, DbLshError> {
        self.k_ann(query, k)
    }

    fn search_batch(&self, queries: &Dataset, k: usize) -> Result<Vec<SearchResult>, DbLshError> {
        ShardedDbLsh::search_batch(self, queries, k)
    }

    fn index_size_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};

    fn cloud(n: usize, dim: usize, seed: u64) -> Dataset {
        gaussian_mixture(&MixtureConfig {
            n,
            dim,
            clusters: 12,
            cluster_std: 1.0,
            spread: 50.0,
            noise_frac: 0.02,
            seed,
        })
    }

    fn builder() -> DbLshBuilder {
        DbLshBuilder::new().k(6).l(3).t(8).r_min(0.5)
    }

    #[test]
    fn build_partitions_all_points() {
        let data = cloud(500, 12, 3);
        for policy in [ShardPolicy::RoundRobin, ShardPolicy::HashId] {
            let idx = ShardedDbLsh::build(&data, &builder(), 4, policy).unwrap();
            assert_eq!(idx.shard_count(), 4);
            assert_eq!(idx.len(), 500);
            assert_eq!(idx.shard_lens().iter().sum::<usize>(), 500);
            assert!(idx.shard_lens().iter().all(|&n| n > 0));
            assert!((0..500u32).all(|g| idx.contains(g)));
            idx.check_invariants();
        }
    }

    #[test]
    fn round_robin_is_perfectly_balanced() {
        let data = cloud(103, 8, 1);
        let idx = ShardedDbLsh::build(&data, &builder(), 4, ShardPolicy::RoundRobin).unwrap();
        let lens = idx.shard_lens();
        assert_eq!(lens.iter().max().unwrap() - lens.iter().min().unwrap(), 1);
    }

    #[test]
    fn hash_policy_tops_up_empty_shards() {
        // with as many shards as points, hashing collides and some shards
        // start empty; the fix-up must leave every shard non-empty
        let data = cloud(7, 8, 2);
        let idx = ShardedDbLsh::build(&data, &builder(), 7, ShardPolicy::HashId).unwrap();
        assert!(idx.shard_lens().iter().all(|&n| n == 1));
        idx.check_invariants();
    }

    #[test]
    fn build_validation() {
        let data = cloud(10, 8, 5);
        assert!(matches!(
            ShardedDbLsh::build(&data, &builder(), 0, ShardPolicy::RoundRobin),
            Err(DbLshError::InvalidParameter {
                param: "shards",
                ..
            })
        ));
        assert!(matches!(
            ShardedDbLsh::build(&data, &builder(), 11, ShardPolicy::RoundRobin),
            Err(DbLshError::InvalidParameter {
                param: "shards",
                ..
            })
        ));
        assert_eq!(
            ShardedDbLsh::build(&Dataset::empty(8), &builder(), 2, ShardPolicy::RoundRobin)
                .unwrap_err(),
            DbLshError::EmptyDataset
        );
    }

    #[test]
    fn insert_routes_to_least_loaded_and_remove_routes_back() {
        let data = cloud(40, 8, 7);
        let idx = ShardedDbLsh::build(&data, &builder(), 4, ShardPolicy::RoundRobin).unwrap();
        // unbalance shard 0 by removing from it
        let victim = 0u32; // round-robin: global 0 -> shard 0
        assert!(idx.remove(victim).unwrap());
        assert!(!idx.remove(victim).unwrap(), "double remove reports false");
        assert!(!idx.contains(victim));
        assert_eq!(idx.len(), 39);
        // next insert must land on the now-least-loaded shard 0, and get
        // the next dense global id
        let id = idx.insert(&[0.5; 8]).unwrap();
        assert_eq!(id, 40);
        assert_eq!(idx.shard_lens(), vec![10, 10, 10, 10]);
        assert!(idx.contains(id));
        idx.check_invariants();
        assert!(matches!(
            idx.remove(10_000),
            Err(DbLshError::UnknownId { id: 10_000 })
        ));
    }

    #[test]
    fn insert_validates_without_corrupting_counts() {
        let data = cloud(20, 8, 9);
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin).unwrap();
        assert!(matches!(
            idx.insert(&[1.0; 3]),
            Err(DbLshError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            idx.insert(&[f32::NAN; 8]),
            Err(DbLshError::NonFiniteCoordinate)
        ));
        assert_eq!(idx.len(), 20);
        idx.check_invariants();
    }

    #[test]
    fn queries_validate_like_the_unsharded_index() {
        let data = cloud(50, 8, 11);
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin).unwrap();
        assert!(matches!(
            idx.k_ann(&[1.0; 3], 5),
            Err(DbLshError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            idx.k_ann(&[f32::NAN; 8], 5),
            Err(DbLshError::NonFiniteCoordinate)
        ));
        assert!(matches!(
            idx.k_ann(&[0.0; 8], 0),
            Err(DbLshError::InvalidParameter { param: "k", .. })
        ));
        assert!(matches!(
            idx.r_c_nn(&[0.0; 8], -1.0),
            Err(DbLshError::InvalidParameter { param: "r", .. })
        ));
    }

    #[test]
    fn removed_points_never_returned() {
        let data = cloud(300, 12, 13);
        let idx = ShardedDbLsh::build(&data, &builder(), 3, ShardPolicy::RoundRobin).unwrap();
        let q = data.point(5).to_vec();
        let before = idx.k_ann(&q, 5).unwrap();
        for id in before.ids() {
            idx.remove(id).unwrap();
        }
        let after = idx.k_ann(&q, 5).unwrap();
        for n in &after.neighbors {
            assert!(!before.ids().contains(&n.id), "removed id {} back", n.id);
            assert!(idx.contains(n.id));
        }
    }

    #[test]
    fn search_batch_matches_sequential() {
        let data = cloud(400, 12, 17);
        let idx = ShardedDbLsh::build(&data, &builder(), 3, ShardPolicy::RoundRobin).unwrap();
        let queries = Dataset::from_rows(&[
            data.point(1).to_vec(),
            data.point(9).to_vec(),
            data.point(200).to_vec(),
        ]);
        let batch = idx.search_batch(&queries, 7).unwrap();
        assert_eq!(batch.len(), 3);
        for (qi, res) in batch.iter().enumerate() {
            let solo = idx.k_ann(queries.point(qi), 7).unwrap();
            assert_eq!(res.ids(), solo.ids());
            assert_eq!(res.stats, solo.stats);
        }
        // aggregate path (QueryStats::merge) agrees with a manual fold
        let (results, total) = idx.search_batch_aggregate(&queries, 7).unwrap();
        assert_eq!(total, QueryStats::merged(results.iter().map(|r| &r.stats)));
    }

    #[test]
    fn r_c_nn_contract() {
        let data = cloud(200, 8, 19);
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin).unwrap();
        let (hit, stats) = idx.r_c_nn(data.point(3), 1000.0).unwrap();
        assert!(hit.expect("radius covers everything").dist as f64 <= idx.params().c * 1000.0);
        assert_eq!(stats.rounds, 1);
        let (none, _) = idx.r_c_nn(&[1e4f32; 8], 1e-9).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn traced_search_charges_the_shard_lock_wait_to_queue() {
        let data = cloud(200, 8, 29);
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin).unwrap();
        let mut trace = QueryTrace::new();
        let (locked, is_locked) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _writer = idx.shards[1].write().unwrap();
                locked.send(()).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(60));
            });
            // The search starts only once the writer holds the lock.
            is_locked.recv().unwrap();
            idx.search_with_trace(data.point(3), 5, &SearchOptions::default(), &mut trace)
                .unwrap();
        });
        let waited_ms = trace.get(Stage::Queue) / 1_000_000;
        assert!(waited_ms >= 20, "lock wait under Queue: {waited_ms} ms");
        assert_eq!(trace.get(Stage::Reply), 0);
    }

    #[test]
    fn auto_compaction_triggers_and_preserves_answers() {
        let data = cloud(400, 8, 23);
        let reference = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin).unwrap();
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
            .unwrap()
            .with_compaction_policy(CompactionPolicy {
                dead_fraction: 0.25,
                min_dead_rows: 10,
            });
        for id in (0..300u32).step_by(2) {
            assert!(idx.remove(id).unwrap());
            assert!(reference.remove(id).unwrap());
        }
        assert!(idx.compaction_count() > 0, "policy never fired");
        assert!(
            idx.dead_rows() < reference.dead_rows(),
            "auto-compaction reclaimed nothing"
        );
        idx.check_invariants();
        // answers stay byte-identical to the never-compacted fleet
        for qi in [1usize, 99, 333] {
            let a = idx.k_ann(data.point(qi), 7).unwrap();
            let b = reference.k_ann(data.point(qi), 7).unwrap();
            assert_eq!(a.ids(), b.ids());
            assert_eq!(a.stats, b.stats);
        }
        // global ids keep flowing from the same sequence
        assert_eq!(idx.insert(&[0.1; 8]).unwrap(), 400);
        idx.check_invariants();
    }

    #[test]
    fn manual_compact_reclaims_all_shards() {
        let data = cloud(200, 8, 29);
        let idx = ShardedDbLsh::build(&data, &builder(), 4, ShardPolicy::HashId).unwrap();
        for id in 0..100u32 {
            idx.remove(id).unwrap();
        }
        assert_eq!(idx.dead_rows(), 100);
        let dropped = idx.compact().unwrap();
        assert_eq!(dropped, 100);
        assert_eq!(idx.dead_rows(), 0);
        assert!(idx.compaction_count() >= 1);
        idx.check_invariants();
        assert_eq!(idx.len(), 100);
        assert!(!idx.contains(50));
        assert!(idx.contains(150));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dblsh-fleet-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_dir_load_dir_round_trips_a_fleet() {
        let data = cloud(300, 8, 31);
        let idx = ShardedDbLsh::build(&data, &builder(), 3, ShardPolicy::RoundRobin)
            .unwrap()
            .with_compaction_policy(CompactionPolicy::default());
        for id in (0..120u32).step_by(3) {
            idx.remove(id).unwrap();
        }
        idx.insert(&[0.5; 8]).unwrap();
        let dir = temp_dir("roundtrip");
        idx.save_dir(&dir).unwrap();
        let loaded = ShardedDbLsh::load_dir(&dir).unwrap();
        loaded.check_invariants();
        assert_eq!(loaded.shard_count(), 3);
        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.shard_lens(), idx.shard_lens());
        assert_eq!(loaded.policy(), idx.policy());
        assert_eq!(loaded.params(), idx.params());
        assert_eq!(loaded.compaction_policy(), idx.compaction_policy());
        for qi in [0usize, 7, 250] {
            let a = idx.k_ann(data.point(qi), 9).unwrap();
            let b = loaded.k_ann(data.point(qi), 9).unwrap();
            assert_eq!(a.ids(), b.ids(), "query {qi}");
            assert_eq!(a.stats, b.stats);
        }
        // the restored fleet keeps serving writes with the same ids
        assert_eq!(
            idx.insert(&[0.7; 8]).unwrap(),
            loaded.insert(&[0.7; 8]).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_rejects_mangled_fleets() {
        let data = cloud(60, 8, 37);
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin).unwrap();
        let dir = temp_dir("mangled");
        idx.save_dir(&dir).unwrap();
        // missing shard file
        std::fs::remove_file(dir.join("shard-1.dblsh")).unwrap();
        assert!(matches!(
            ShardedDbLsh::load_dir(&dir),
            Err(DbLshError::Io { .. })
        ));
        // mismatched shard (from a different build) in shard-1's slot
        let other = ShardedDbLsh::build(
            &data,
            &DbLshBuilder::new().k(4).l(2).t(8).r_min(0.5),
            2,
            ShardPolicy::RoundRobin,
        )
        .unwrap();
        let donor = temp_dir("donor");
        other.save_dir(&donor).unwrap();
        std::fs::copy(donor.join("shard-1.dblsh"), dir.join("shard-1.dblsh")).unwrap();
        assert!(matches!(
            ShardedDbLsh::load_dir(&dir),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // corrupted manifest bytes
        let manifest = dir.join("manifest.dblsh");
        let mut bytes = std::fs::read(&manifest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&manifest, &bytes).unwrap();
        assert!(matches!(
            ShardedDbLsh::load_dir(&dir),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(donor);
    }

    /// Assert two fleets answer byte-identically (ids, distances and
    /// stats) over a probe set, and agree on membership.
    fn assert_fleets_identical(a: &ShardedDbLsh, b: &ShardedDbLsh, data: &Dataset) {
        assert_eq!(a.len(), b.len());
        let bound = a.router().assign.len() as u32;
        assert_eq!(bound, b.router().assign.len() as u32);
        for g in 0..bound {
            assert_eq!(a.contains(g), b.contains(g), "membership of id {g}");
        }
        for qi in (0..data.len()).step_by(data.len().div_ceil(7).max(1)) {
            let ra = a.k_ann(data.point(qi), 9).unwrap();
            let rb = b.k_ann(data.point(qi), 9).unwrap();
            assert_eq!(ra.ids(), rb.ids(), "query {qi}");
            assert_eq!(ra.neighbors, rb.neighbors, "query {qi}");
            assert_eq!(ra.stats, rb.stats, "query {qi}");
        }
    }

    #[test]
    fn wal_recovery_replays_every_acknowledged_write() {
        let data = cloud(200, 8, 41);
        let dir = temp_dir("wal-replay");
        let idx = ShardedDbLsh::build(&data, &builder(), 3, ShardPolicy::RoundRobin)
            .unwrap()
            .enable_wal(&dir)
            .unwrap();
        // Mutate well past the checkpoint WITHOUT saving again — these
        // writes live only in the WAL.
        for id in (0..80u32).step_by(4) {
            assert!(idx.remove(id).unwrap());
        }
        for i in 0..30 {
            idx.insert(&[i as f32 * 0.25; 8]).unwrap();
        }
        assert!(idx.remove(205).unwrap()); // remove a WAL-inserted point
        idx.check_invariants();
        // The never-faulted reference: the same op stream, no crash.
        let reference = ShardedDbLsh::build(&data, &builder(), 3, ShardPolicy::RoundRobin).unwrap();
        for id in (0..80u32).step_by(4) {
            reference.remove(id).unwrap();
        }
        for i in 0..30 {
            reference.insert(&[i as f32 * 0.25; 8]).unwrap();
        }
        reference.remove(205).unwrap();
        // "Crash": drop the in-memory fleet, recover from disk — twice;
        // a read-only recovery must not consume or corrupt the log.
        for _ in 0..2 {
            let loaded = ShardedDbLsh::load_dir(&dir).unwrap();
            loaded.check_invariants();
            assert_fleets_identical(&loaded, &reference, &data);
        }
        // Recovery keeps the id sequence: the next insert continues
        // densely, on both sides.
        let loaded = ShardedDbLsh::load_dir(&dir).unwrap();
        assert_eq!(
            loaded.insert(&[9.9; 8]).unwrap(),
            reference.insert(&[9.9; 8]).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_dir_truncates_the_wal() {
        let data = cloud(120, 8, 43);
        let dir = temp_dir("wal-truncate");
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
            .unwrap()
            .enable_wal(&dir)
            .unwrap();
        for i in 0..20 {
            idx.insert(&[i as f32; 8]).unwrap();
        }
        idx.save_dir(&dir).unwrap();
        // Checkpoint committed → logs are header-only again.
        for s in 0..2 {
            let len = std::fs::metadata(dir.join(format!("wal-{s}.dblshwal")))
                .unwrap()
                .len();
            assert_eq!(
                len,
                dblsh_data::wal::WAL_HEADER_LEN,
                "wal-{s} not truncated"
            );
        }
        // Post-checkpoint traffic logs again and recovers.
        idx.remove(5).unwrap();
        let loaded = ShardedDbLsh::load_dir(&dir).unwrap();
        loaded.check_invariants();
        assert_eq!(loaded.len(), idx.len());
        assert!(!loaded.contains(5));
        assert!(loaded.contains(130));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash hole: a 2-shard WAL fleet over 100 points acknowledges
    /// `a` = 100 and `b` = 101 into different shards, then the tail of
    /// `a`'s log record is torn off. Returns the WAL directory, the
    /// fleet recovered from it, `a`, `b` and the torn shard.
    fn crash_hole_fleet(tag: &str) -> (PathBuf, ShardedDbLsh, u32, u32, usize) {
        let data = cloud(100, 8, 47);
        let dir = temp_dir(tag);
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
            .unwrap()
            .enable_wal(&dir)
            .unwrap();
        let a = idx.insert(&[1.0; 8]).unwrap(); // shard 0 (least loaded tie)
        let b = idx.insert(&[2.0; 8]).unwrap(); // the other shard
        drop(idx);
        // Tear the tail of the log holding `a`'s insert: find it by
        // decoding each shard's log.
        let mut torn_shard = None;
        for s in 0..2 {
            let bytes = std::fs::read(dir.join(format!("wal-{s}.dblshwal"))).unwrap();
            let replay = dblsh_data::wal::replay_wal(&bytes[..], FLEET_WAL_KIND).unwrap();
            if replay.records.len() == 1 {
                if let WalOp::Insert { global, .. } = walrec::decode(&replay.records[0]).unwrap() {
                    if global == a {
                        // Chop 3 bytes off the final record.
                        std::fs::write(
                            dir.join(format!("wal-{s}.dblshwal")),
                            &bytes[..bytes.len() - 3],
                        )
                        .unwrap();
                        torn_shard = Some(s);
                    }
                }
            }
        }
        let torn = torn_shard.expect("one shard logged exactly a's insert");
        let loaded = ShardedDbLsh::load_dir(&dir).unwrap();
        (dir, loaded, a, b, torn)
    }

    #[test]
    fn wal_torn_tail_loses_only_the_unacknowledged_write() {
        let (dir, loaded, a, b, torn) = crash_hole_fleet("wal-torn");
        loaded.check_invariants();
        // `a` is a hole: allocated, never materialized, permanently dead.
        assert!(!loaded.contains(a), "torn insert must not survive");
        assert!(matches!(
            loaded.remove(a),
            Err(DbLshError::UnknownId { .. })
        ));
        // `b` (acknowledged, in the *other* shard's intact log) survives.
        assert!(loaded.contains(b), "acknowledged write lost");
        assert_eq!(loaded.len(), 101);
        // Ids are never recycled: the hole stays dead.
        let next = loaded.insert(&[3.0; 8]).unwrap();
        assert_eq!(next, b + 1);
        assert!(!loaded.contains(a));
        // The torn log was physically truncated on open, so a fresh
        // recovery sees a clean prefix, not the same torn tail.
        let bytes = std::fs::read(dir.join(format!("wal-{torn}.dblshwal"))).unwrap();
        let replay = dblsh_data::wal::replay_wal(&bytes[..], FLEET_WAL_KIND).unwrap();
        assert!(!replay.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoint a fleet that carries a crash hole, optionally "crash"
    /// between the manifest commit and the log truncation (the
    /// pre-checkpoint logs stay beside the new manifest), and reload:
    /// the hole stays dead, every acknowledged id stays live exactly
    /// once, and the id sequence continues.
    fn checkpoint_a_crash_hole(tag: &str, crash_before_truncate: bool) {
        let (dir, fleet, a, b, _) = crash_hole_fleet(tag);
        let next = fleet.insert(&[3.0; 8]).unwrap();
        let log = |s: usize| dir.join(format!("wal-{s}.dblshwal"));
        let logs: Vec<Vec<u8>> = (0..2).map(|s| std::fs::read(log(s)).unwrap()).collect();
        fleet.save_dir(&dir).unwrap();
        drop(fleet);
        if crash_before_truncate {
            for (s, bytes) in logs.iter().enumerate() {
                std::fs::write(log(s), bytes).unwrap();
            }
        }
        let reloaded = ShardedDbLsh::load_dir(&dir).unwrap();
        reloaded.check_invariants();
        assert!(!reloaded.contains(a), "the hole came back");
        assert!(matches!(
            reloaded.remove(a),
            Err(DbLshError::UnknownId { .. })
        ));
        assert!(reloaded.contains(b) && reloaded.contains(next));
        assert_eq!(reloaded.len(), 102);
        assert_eq!(reloaded.insert(&[4.0; 8]).unwrap(), next + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_after_a_crash_hole_reloads() {
        checkpoint_a_crash_hole("hole-checkpoint", false);
    }

    #[test]
    fn checkpoint_crash_before_wal_truncate_replays_idempotently() {
        checkpoint_a_crash_hole("hole-untruncated", true);
    }

    #[test]
    fn save_dir_outside_the_wal_dir_is_a_standalone_copy() {
        let data = cloud(150, 8, 61);
        let dir = temp_dir("wal-live");
        let copy = temp_dir("wal-copy");
        let idx = ShardedDbLsh::build(&data, &builder(), 3, ShardPolicy::RoundRobin)
            .unwrap()
            .enable_wal(&dir)
            .unwrap();
        for id in (0..60u32).step_by(3) {
            assert!(idx.remove(id).unwrap());
        }
        for i in 0..20 {
            idx.insert(&[i as f32 * 0.5; 8]).unwrap();
        }
        idx.save_dir(&copy).unwrap();
        let loaded = ShardedDbLsh::load_dir(&copy).unwrap();
        loaded.check_invariants();
        assert_eq!(loaded.wal_dir(), None);
        assert_fleets_identical(&loaded, &idx, &data);
        // The copy left the live logs alone: they still recover it all.
        assert_fleets_identical(&ShardedDbLsh::load_dir(&dir).unwrap(), &idx, &data);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&copy).unwrap();
    }

    #[test]
    fn wal_io_fault_fails_the_write_without_burning_an_id() {
        let data = cloud(120, 8, 67);
        let dir = temp_dir("wal-iofault");
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
            .unwrap()
            .enable_wal(&dir)
            .unwrap();
        let reference = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin).unwrap();
        // Interrupts and short writes are absorbed by the append.
        idx.set_wal_faults(Some(
            WriteFaultPlan::new(5)
                .with_interrupts(0.3)
                .with_short_writes(0.3),
        ));
        for i in 0..30 {
            let p = data.point(i).to_vec();
            assert_eq!(idx.insert(&p).unwrap(), reference.insert(&p).unwrap());
        }
        // A dead device: each write is a typed Io that publishes nothing.
        idx.set_wal_faults(Some(WriteFaultPlan::new(6).with_hard_fail_after(0)));
        let (len, bound) = (idx.len(), idx.router().assign.len());
        let p = data.point(0).to_vec();
        assert!(matches!(idx.insert(&p), Err(DbLshError::Io { .. })));
        assert_eq!((idx.len(), idx.router().assign.len()), (len, bound));
        assert!(matches!(idx.remove(7), Err(DbLshError::Io { .. })));
        assert!(idx.contains(7));
        assert_eq!(idx.len(), len);
        // Faults cleared, the retried insert gets the id the failed one
        // would have had, and recovery replays a clean log.
        idx.set_wal_faults(None);
        assert_eq!(idx.insert(&p).unwrap(), bound as u32);
        assert_eq!(reference.insert(&p).unwrap(), bound as u32);
        idx.check_invariants();
        assert_fleets_identical(&idx, &reference, &data);
        assert_fleets_identical(&ShardedDbLsh::load_dir(&dir).unwrap(), &idx, &data);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_bit_flip_is_a_typed_recovery_error() {
        let data = cloud(60, 8, 53);
        let dir = temp_dir("wal-flip");
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
            .unwrap()
            .enable_wal(&dir)
            .unwrap();
        idx.insert(&[1.5; 8]).unwrap();
        idx.insert(&[2.5; 8]).unwrap();
        drop(idx);
        // Flip a byte inside the first record's payload of a non-empty
        // log: recovery must refuse, not replay damaged bytes.
        let path = (0..2)
            .map(|s| dir.join(format!("wal-{s}.dblshwal")))
            .find(|p| std::fs::metadata(p).unwrap().len() > dblsh_data::wal::WAL_HEADER_LEN)
            .expect("some log holds a record");
        let mut bytes = std::fs::read(&path).unwrap();
        let flip_at = dblsh_data::wal::WAL_HEADER_LEN as usize + 10;
        bytes[flip_at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardedDbLsh::load_dir(&dir),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replay_after_compaction_preserves_local_ids() {
        // Compaction relabels *internal* rows but preserves shard-local
        // external ids, so a WAL remove logged before a compaction must
        // still resolve after recovery replays it onto the compacted
        // snapshot — and vice versa: removes logged after a compaction
        // replay cleanly onto a snapshot taken before it.
        let data = cloud(300, 8, 59);
        let dir = temp_dir("wal-compact");
        let idx = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
            .unwrap()
            .with_compaction_policy(CompactionPolicy {
                dead_fraction: 0.2,
                min_dead_rows: 8,
            })
            .enable_wal(&dir)
            .unwrap();
        let reference = ShardedDbLsh::build(&data, &builder(), 2, ShardPolicy::RoundRobin)
            .unwrap()
            .with_compaction_policy(CompactionPolicy {
                dead_fraction: 0.2,
                min_dead_rows: 8,
            });
        // Interleave removes (tripping auto-compaction) with inserts.
        for i in 0..200u32 {
            if i % 2 == 0 {
                assert_eq!(idx.remove(i).unwrap(), reference.remove(i).unwrap());
            } else {
                assert_eq!(
                    idx.insert(&[i as f32 * 0.1; 8]).unwrap(),
                    reference.insert(&[i as f32 * 0.1; 8]).unwrap()
                );
            }
        }
        assert!(idx.compaction_count() > 0, "compaction never fired");
        let loaded = ShardedDbLsh::load_dir(&dir).unwrap();
        loaded.check_invariants();
        assert_fleets_identical(&loaded, &reference, &data);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
