//! An R*-tree multi-dimensional index, built from scratch for the DB-LSH
//! reproduction.
//!
//! The paper indexes every K-dimensional projected space with an R*-tree
//! ("we simply choose the R*-Tree as our index due to an ocean of
//! optimizations... DB-LSH adopts the bulk-loading strategy"). Trees are
//! bulk-loaded and then immutable: a point set that changes is indexed by
//! bulk-loading new trees over new runs of ids (`dblsh-core` keeps a
//! bulk-loaded main, geometric delta levels and a scanned tail). This
//! crate provides exactly the operations the paper's algorithms need:
//!
//! * **STR bulk loading** ([`RStarTree::bulk_load`]) — used in the indexing
//!   phase (Section IV-B);
//! * **window queries** as *pausable cursors* ([`RStarTree::window`]) — the
//!   query phase issues `W(G_i(q), w0 r)` and must be able to stop after
//!   `2tL + 1` verified points (Algorithm 1), so enumeration is lazy;
//!   [`RStarTree::window_cube_in`] runs the same cursor in a caller-kept
//!   [`WindowScratch`], so a query's `L` probes per round allocate nothing;
//! * **run scans** ([`WindowScratch::scan`], [`nearest_run`]) — the same
//!   window membership and distance order over a run of ids that no tree
//!   holds; [`RStarTree::window_in`] probes several trees over one space
//!   with one rounded window;
//! * **best-first incremental nearest-neighbor search**
//!   ([`RStarTree::nearest_iter`], Hjaltason–Samet) — the substrate for the
//!   PM-LSH baseline, which retrieves candidates in ascending projected
//!   distance.
//!
//! # Flat layout
//!
//! The tree stores **ids, not coordinates**. Leaf entries are bare `u32`
//! ids resolved through a [`CoordSource`] (a borrowed view over one
//! contiguous, possibly strided, coordinate matrix — see
//! [`StridedCoords`]). A tree is one packed arena, sized exactly at
//! build: one array of ids (leaf after leaf), one `(first, count)` span
//! per node, and one array of `f32` boxes, one per non-root node — so the
//! children a descent tests are one contiguous run of boxes (see the
//! `tree` module). Compared to a boxed-`Rect` layout this removes every
//! per-node and per-entry heap allocation, makes leaf scans
//! cache-linear, and lets `L` trees share one projection store instead of
//! each owning a copy of its column.
//!
//! Stored coordinates and bounds are `f32` (the precision of the `f32`
//! datasets they derive from — half the memory traffic of a leaf scan).
//! Distances are computed in `f64` over values cast up from storage. Window queries are not: a [`Rect`]
//! window is given in `f64`, but a probe rounds it **inward** to `f32`
//! once — `lo32` the smallest `f32 >= lo`, `hi32` the largest `f32 <=
//! hi` — and tests points and boxes in `f32`, four lanes at a time and
//! without data-dependent branches (explicit SSE2 on `x86_64`, the same
//! comparisons in safe code elsewhere). Nothing is lost: `f32 -> f64` is
//! exact and order-preserving, so for every stored `v`,
//! `lo <= v as f64 <= hi` holds iff `lo32 <= v <= hi32` — the `f32`
//! probe returns exactly the ids the mixed-precision comparison would
//! (a proptest holds it to that reference on boundary and extreme
//! values). The dimension is a runtime parameter (the projected
//! dimensionality `K` is chosen per dataset). API contracts
//! (finite coordinates, matching dimensionality, stable ids) are
//! documented per method and enforced with `debug_assert!`; release
//! builds trust callers that validate at their own boundary, as
//! `dblsh-core` does through its typed `DbLshError`.

mod bulk;
mod coords;
mod query;
mod rect;
mod tree;
mod window;

pub use bulk::str_order;
pub use coords::{CoordSource, OwnedCoords, StridedCoords};
pub use query::{nearest_run, NearestIter, WindowCursor, WindowScratch};
pub use rect::Rect;
pub use tree::{RStarTree, TreeStats};
