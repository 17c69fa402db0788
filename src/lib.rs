//! # db-lsh — DB-LSH and its full evaluation stack, in Rust
//!
//! Facade crate re-exporting the whole workspace: the DB-LSH index
//! ([`DbLsh`]) with its builder-first, fallible, dynamic API, every
//! baseline of the paper's evaluation ([`baselines`]), the substrates
//! (R*-tree, B+-tree, datasets, LSH math) and the common [`AnnIndex`]
//! trait.
//!
//! ## Building an index
//!
//! Construction goes through [`DbLshBuilder`]: every knob is chainable,
//! defaults are resolved against the dataset at build time, and all
//! validation surfaces as [`DbLshError`] — empty datasets, dimension
//! mismatches and out-of-domain parameters are `Err` values, never
//! panics.
//!
//! ```
//! use db_lsh::{DbLshBuilder, DbLshError};
//! use db_lsh::data::synthetic::{gaussian_mixture, MixtureConfig};
//!
//! let data = gaussian_mixture(&MixtureConfig {
//!     n: 2000, dim: 32, ..Default::default()
//! });
//! let index = DbLshBuilder::new()
//!     .l(5)                // number of projected spaces / R*-trees
//!     .t(64)               // candidate budget constant (2tL + k)
//!     .auto_r_min()        // estimate the radius-ladder start from data
//!     .build(data)?;
//!
//! let query = index.point(0).expect("id 0 is live").to_vec();
//! let top10 = index.k_ann(&query, 10)?;
//! assert_eq!(top10.neighbors[0].id, 0); // the point itself
//! # Ok::<(), DbLshError>(())
//! ```
//!
//! ## Queries: single, tuned, batched
//!
//! * [`DbLsh::k_ann`] — one (c,k)-ANN query with the index defaults;
//! * [`DbLsh::search_with`] — per-query overrides via [`SearchOptions`]
//!   (candidate budget, radius-ladder start, round cap, stats on/off);
//! * [`DbLsh::search_batch`] — a [`Dataset`](data::Dataset) of query rows
//!   fanned across every core;
//! * [`DbLsh::r_c_nn`] — a single (r,c)-NN probe (Definition 2);
//! * [`DbLsh::k_ann_incremental`] — ladder-free best-first browsing.
//!
//! ## Dynamic updates
//!
//! Query-based dynamic bucketing stores *projections*, not buckets, so
//! the index updates in place: [`DbLsh::insert`] appends the new
//! point's row and projections to a scanned tail (folded into the
//! bulk-loaded R*-trees only once the tail fills), and [`DbLsh::remove`]
//! sets the point's tombstone bit — neither touches a tree. No rebuild,
//! no bucket re-quantization — the property that distinguishes DB-LSH
//! from every static `(K, L)`-index baseline in [`baselines`].
//!
//! ```
//! # use db_lsh::DbLshBuilder;
//! # use db_lsh::data::synthetic::{gaussian_mixture, MixtureConfig};
//! # let data = gaussian_mixture(&MixtureConfig { n: 500, dim: 16, ..Default::default() });
//! let mut index = DbLshBuilder::new().build(data).unwrap();
//! let id = index.insert(&vec![0.5; 16]).unwrap();
//! assert!(index.contains(id));
//! assert!(index.remove(id).unwrap());
//! assert!(!index.contains(id));
//! ```
//!
//! ## Serving: shards, workers, saturation
//!
//! The [`serve`] crate layers a concurrent serving engine above the
//! core index:
//!
//! * [`ShardedDbLsh`] — N independent `DbLsh` shards behind one
//!   *global* id space (external ids stay the caller's row indexes;
//!   shards relabel internally, invisibly). Bulk builds partition by a
//!   [`ShardPolicy`], inserts route to the least-loaded shard, removes
//!   route through the id→shard map. Every shard sits behind its own
//!   `RwLock`: readers never block each other, a writer blocks only its
//!   shard.
//! * Queries run the **canonical round-exhaustive ladder**
//!   ([`DbLsh::search_canonical`]): per-round candidates are merged
//!   across shards in canonical `(distance, id)` order, so answers are
//!   byte-identical to an unsharded index over the same data — for any
//!   shard count, proven by property tests.
//! * [`Engine`] — a long-lived worker pool draining a bounded request
//!   queue (searches, inserts, removes) with per-request
//!   [`QueryStats`] aggregated into [`EngineStats`] (QPS, p50/p99
//!   latency, candidates verified).
//!
//! ## Durability and space reclamation
//!
//! Removes only *tombstone*; under sustained churn [`DbLsh::compact`]
//! rewrites the store, the dataset rows and the id maps without the dead
//! rows — external ids are preserved (never recycled) and
//! canonical-mode answers are byte-identical. A [`ShardedDbLsh`] can
//! compact automatically per shard via a [`CompactionPolicy`]. Every
//! index snapshots to a versioned, checksummed binary format:
//! [`DbLsh::save`]/[`DbLsh::load`] for one index,
//! [`ShardedDbLsh::save_dir`]/[`ShardedDbLsh::load_dir`] for a whole
//! serving fleet — corrupt or truncated files surface as typed
//! [`DbLshError`]s, never panics.
//!
//! ```
//! use std::sync::Arc;
//! use db_lsh::{DbLshBuilder, Engine, EngineConfig, ShardPolicy, ShardedDbLsh};
//! use db_lsh::data::synthetic::{gaussian_mixture, MixtureConfig};
//!
//! let data = gaussian_mixture(&MixtureConfig { n: 1000, dim: 16, ..Default::default() });
//! let index = ShardedDbLsh::build(
//!     &data, &DbLshBuilder::new().l(3), 4, ShardPolicy::RoundRobin,
//! ).unwrap();
//! let engine = Engine::start(Arc::new(index), EngineConfig::default());
//! let top5 = engine.search(data.point(0), 5).wait().unwrap();
//! assert_eq!(top5.neighbors[0].id, 0);
//! ```
//!
//! ## Network service
//!
//! The [`net`] crate puts a TCP front door on the engine: a
//! length-prefixed, CRC-checked binary wire protocol (framing shared
//! with the snapshot files), a threaded [`DbLshServer`] that inherits
//! the engine's bounded-queue admission control (full queue → typed
//! `Busy` over the wire) and drains gracefully on shutdown, and a
//! pipelined blocking [`DbLshClient`]. Answers over TCP are
//! byte-identical to [`DbLsh::search_canonical`] on the same data.

pub use dblsh_core::{
    CompactionStats, DbLsh, DbLshBuilder, DbLshError, DbLshParams, GaussianHasher, SearchOptions,
};
pub use dblsh_data::{AnnIndex, Neighbor, QueryStats, SearchResult};
pub use dblsh_net::{DbLshClient, DbLshServer, ServerConfig};
pub use dblsh_serve::{
    CompactionPolicy, Engine, EngineConfig, EngineStats, ShardPolicy, ShardedDbLsh,
};

/// Dataset substrate: synthetic generators, fvecs I/O, ground truth,
/// metrics, paper-dataset registry, and the [`DbLshError`] type.
pub use dblsh_data as data;

/// The baseline algorithms of the paper's evaluation.
pub use dblsh_baselines as baselines;

/// Sharded concurrent serving: [`ShardedDbLsh`], the [`Engine`] worker
/// pool, and the saturation counters.
pub use dblsh_serve as serve;

/// TCP front door: binary wire protocol, threaded server with admission
/// control and graceful drain, pipelined blocking client.
pub use dblsh_net as net;

/// R*-tree multi-dimensional index.
pub use dblsh_index as index;

/// B+-tree with bidirectional cursors.
pub use dblsh_bptree as bptree;

/// LSH collision probabilities and parameter theory.
pub use dblsh_math as math;

/// Telemetry plane: unified metrics registry, per-stage query tracing,
/// slow-query ring log, and Prometheus/JSON exposition.
pub use dblsh_telemetry as telemetry;
