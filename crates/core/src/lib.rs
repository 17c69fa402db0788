//! # DB-LSH — Locality-Sensitive Hashing with Query-based Dynamic Bucketing
//!
//! Rust implementation of Tian, Zhao, Zhou, *"DB-LSH: Locality-Sensitive
//! Hashing with Query-based Dynamic Bucketing"*, ICDE 2022.
//!
//! DB-LSH keeps the classic `(K, L)`-index *hashing* step — `L` compound
//! hashes, each of `K` Gaussian projections (Eq. 6/7) — but replaces the
//! fixed-width buckets of E2LSH with **query-centric dynamic buckets**:
//! every projected K-dimensional point set is stored in an R*-tree, and a
//! bucket is materialized at query time as the hypercubic window
//! `W(G_i(q), w0 r)` (Eq. 8), answered by an index window query.
//!
//! A `c`-ANN query (Algorithm 2) issues `(r, c)`-NN probes (Algorithm 1)
//! on the radius ladder `r = r_min, c r_min, c^2 r_min, ...`, enlarging the
//! window width as `w = w0 r`, and stops as soon as either a point within
//! `c r` is verified or `2tL + 1` candidates have been checked. With
//! `K = log_{1/p2}(n/t)` and `L = (n/t)^{rho*}` this answers a `c^2`-ANN
//! query with probability at least `1/2 - 1/e` in `O(n^{rho*} d log n)`
//! time (Theorems 1 and 2), where `rho* <= 1/c^alpha` (Lemma 3).
//!
//! Because buckets are materialized at query time over *dynamic* R*-trees,
//! the index is updatable: [`DbLsh::insert`] and [`DbLsh::remove`] keep
//! all `L` trees in sync, per-query tuning goes through [`SearchOptions`],
//! and [`DbLsh::search_batch`] fans query rows across threads.
//!
//! Internally the index keeps a **locality-relabeled** layout: points are
//! permuted to tree-0 STR leaf order at bulk build so leaf scans and the
//! blocked candidate-verification stage read near-sequential memory. The
//! permutation is invisible at this API — every id accepted or returned
//! here is the caller's original row index, and answers are byte-identical
//! to an identity-order build, up to tie-breaking among exact duplicate
//! points (see the [`index`-module docs](DbLsh) and
//! [`DbLshParams::relabel`]).
//!
//! ## Quick start
//!
//! ```
//! use dblsh_core::DbLshBuilder;
//! use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
//!
//! let data = gaussian_mixture(&MixtureConfig {
//!     n: 2000, dim: 24, clusters: 20, ..Default::default()
//! });
//! let mut index = DbLshBuilder::new()
//!     .auto_r_min()           // data-driven radius-ladder start
//!     .build(data)            // Result: bad input is Err, never a panic
//!     .expect("valid configuration");
//!
//! let query = index.point(0).expect("id 0 is live").to_vec();
//! let top10 = index.k_ann(&query, 10).expect("well-formed query");
//! assert!(!top10.neighbors.is_empty());
//!
//! // The index is dynamic:
//! let id = index.insert(&vec![1.0; 24]).unwrap();
//! assert!(index.contains(id));
//! index.remove(id).unwrap();
//! assert!(!index.contains(id));
//! ```

mod builder;
mod hasher;
mod index;
mod params;
pub mod proj_store;
mod query;
mod snapshot;

pub use builder::DbLshBuilder;
pub use hasher::GaussianHasher;
pub use index::{CompactionStats, DbLsh};
pub use params::DbLshParams;
pub use proj_store::ProjStore;
pub use query::{
    CanonicalLadder, LadderPlan, LadderProber, MemoryBreakdown, ProberScratch, SearchOptions,
};
pub use snapshot::INDEX_SNAPSHOT_KIND;

// The workspace error type originates in `dblsh_data` (the crate that
// defines `AnnIndex`); re-exported here so `dblsh_core` users need not
// name that crate.
pub use dblsh_data::DbLshError;
