//! Dataset substrate for the DB-LSH reproduction.
//!
//! The paper evaluates on ten real datasets (Table III: Audio, MNIST,
//! Cifar, Trevi, NUS, Deep1M, Gist, SIFT10M, TinyImages80M, SIFT100M).
//! Those corpora are not redistributable inside this repository, so this
//! crate provides:
//!
//! * [`Dataset`] — a flat row-major `f32` matrix with distance helpers;
//! * [`kernels`] — the blocked hot-path kernels every verification loop
//!   and query projection funnels through ([`sq_dist_block`], [`matvec`]);
//! * [`synthetic`] — seeded generators (Gaussian mixtures with planted
//!   clusters plus background noise) whose *relative contrast* structure
//!   reproduces the recall/ratio regimes LSH methods see on the real data;
//! * [`registry`] — a catalogue of the paper's datasets mapping each to a
//!   synthetic clone of the same cardinality/dimensionality (scalable down
//!   for laptop runs);
//! * [`io`] — fvecs/ivecs readers and writers so users with the real files
//!   can drop them in, plus the checksummed snapshot container;
//! * [`wal`] — the write-ahead log container pairing with snapshots for
//!   crash recovery, with a deterministic I/O fault-injection shim;
//! * [`ground_truth`] — exact multi-threaded k-NN;
//! * [`metrics`] — the paper's quality measures (overall ratio, Eq. 11;
//!   recall, Eq. 12);
//! * [`AnnIndex`] — the trait every algorithm (DB-LSH and all baselines)
//!   implements so the benchmark harness can drive them uniformly;
//! * [`error`] — the workspace-wide [`DbLshError`] type every fallible
//!   build/update/query path reports through.

pub mod ann;
pub mod dataset;
pub mod error;
pub mod ground_truth;
pub mod io;
pub mod kernels;
pub mod metrics;
pub mod registry;
pub mod sq8;
pub mod synthetic;
pub mod wal;

pub use ann::{
    parallel_search_batch, push_candidate, push_candidate_unchecked, AnnIndex, Neighbor,
    QueryStats, SearchResult, Visited,
};
pub use dataset::Dataset;
pub use error::{check_query, DbLshError};
pub use ground_truth::exact_knn;
pub use kernels::{
    canonical_verify_keys, canonical_verify_keys_prefiltered, matvec, simd_arch, sq_dist_block,
    SimdArch, VerifySplit,
};
pub use metrics::{overall_ratio, recall};
pub use sq8::{lower_bound, Sq8Grid, Sq8Query, Sq8Store};
pub use wal::{
    encode_wal_record, replay_wal, write_all_faulty, FaultyWriter, WalFile, WalReplay, WalWriter,
    WriteFaultPlan, MAX_WAL_RECORD, WAL_HEADER_LEN, WAL_MAGIC, WAL_VERSION,
};
