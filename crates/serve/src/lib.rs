//! # dblsh-serve — sharded concurrent serving over DB-LSH
//!
//! The serving layer the ROADMAP's "heavy traffic" north star asks for:
//! a [`ShardedDbLsh`] wrapping N independent `DbLsh` shards behind one
//! global id space, and an [`Engine`] worker pool draining a bounded
//! request queue against it.
//!
//! * **Sharding** ([`ShardedDbLsh`]): points are partitioned at bulk
//!   build by a [`ShardPolicy`]; inserts route to the least-loaded
//!   shard, removes route through the id→shard map, and external ids
//!   stay global — callers cannot tell a sharded index from an
//!   unsharded one by its id space.
//! * **Concurrency**: per-shard `RwLock`s — readers never block each
//!   other; a writer blocks only its own shard.
//! * **Determinism**: queries run the canonical round-exhaustive ladder
//!   ([`dblsh_core::CanonicalLadder`]) and merge per-shard candidates in
//!   canonical `(distance, global id)` order, so answers are
//!   **byte-identical** to [`dblsh_core::DbLsh::search_canonical`] on an
//!   unsharded index over the same data, for any shard count and any
//!   partition policy — property-tested, including through interleaved
//!   insert/remove traffic.
//! * **Durability** ([`ShardedDbLsh::enable_wal`]): one write-ahead log
//!   per shard beside a fleet snapshot. [`ShardedDbLsh::load_dir`] is
//!   crash recovery (snapshot + log replay); a
//!   [`ShardedDbLsh::save_dir`] into the log directory is a checkpoint
//!   that truncates the logs.
//! * **Serving** ([`Engine`]): long-lived workers, bounded submission
//!   queue with backpressure, per-request [`dblsh_data::QueryStats`]
//!   aggregated into [`EngineStats`] (QPS, log₂-bucket p50/p99 latency,
//!   candidates verified).
//!
//! ```
//! use std::sync::Arc;
//! use dblsh_core::DbLshBuilder;
//! use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
//! use dblsh_serve::{Engine, EngineConfig, ShardPolicy, ShardedDbLsh};
//!
//! let data = gaussian_mixture(&MixtureConfig {
//!     n: 1000, dim: 16, ..Default::default()
//! });
//! let index = ShardedDbLsh::build(
//!     &data,
//!     &DbLshBuilder::new().l(3).auto_r_min(),
//!     4,
//!     ShardPolicy::RoundRobin,
//! ).expect("valid configuration");
//!
//! let engine = Engine::start(Arc::new(index), EngineConfig::default());
//! let q = data.point(0).to_vec();
//! let top5 = engine.search(&q, 5).wait().expect("well-formed query");
//! assert_eq!(top5.neighbors[0].id, 0); // global ids: the point itself
//! let stats = engine.shutdown();
//! assert_eq!(stats.searches, 1);
//! ```

mod engine;
mod shard;
mod walrec;

pub use engine::{Engine, EngineConfig, EngineStats, Op, OpTicket, Ticket};
pub use shard::{CompactionPolicy, ShardPolicy, ShardedDbLsh, FLEET_SNAPSHOT_KIND, FLEET_WAL_KIND};
