//! The builder-first construction surface: chainable configuration,
//! data-dependent defaults resolved at build time, and fallible `build`.
//!
//! ```
//! use dblsh_core::DbLshBuilder;
//! use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
//!
//! let data = gaussian_mixture(&MixtureConfig {
//!     n: 2000, dim: 24, clusters: 20, ..Default::default()
//! });
//! let index = DbLshBuilder::new()
//!     .k(8)
//!     .l(4)
//!     .auto_r_min()
//!     .build(data)
//!     .expect("valid configuration and data");
//! let query = index.point(0).expect("id 0 is live");
//! let result = index.k_ann(query, 10).expect("well-formed query");
//! assert!(!result.neighbors.is_empty());
//! ```

use std::sync::Arc;

use dblsh_data::{Dataset, DbLshError};

use crate::index::DbLsh;
use crate::params::DbLshParams;

/// How the radius-ladder start is chosen at build time.
#[derive(Debug, Clone, PartialEq)]
enum RMinChoice {
    /// The [`DbLshParams::r_min`] default (1.0) or an explicit value.
    Fixed(Option<f64>),
    /// Estimate from the data via [`DbLsh::estimate_r_min`] with the
    /// given probe-sample size.
    Auto { sample: usize },
}

/// Chainable configuration for a [`DbLsh`] index.
///
/// Every knob is optional: unset knobs resolve at [`DbLshBuilder::build`]
/// against the dataset (the paper's defaults are cardinality-dependent —
/// `K = 12` beyond one million points, else `K = 10`). All validation is
/// deferred to `build`, which reports the first violated constraint as a
/// [`DbLshError`] and never panics.
#[derive(Debug, Clone, Default)]
pub struct DbLshBuilder {
    c: Option<f64>,
    w0: Option<f64>,
    k: Option<usize>,
    l: Option<usize>,
    t: Option<usize>,
    r_min: RMinBuilderState,
    max_rounds: Option<usize>,
    node_capacity: Option<usize>,
    seed: Option<u64>,
    relabel: Option<bool>,
}

#[derive(Debug, Clone, PartialEq)]
struct RMinBuilderState(RMinChoice);

impl Default for RMinBuilderState {
    fn default() -> Self {
        RMinBuilderState(RMinChoice::Fixed(None))
    }
}

impl DbLshBuilder {
    /// Start from the paper's defaults (resolved against the dataset at
    /// build time).
    pub fn new() -> Self {
        DbLshBuilder::default()
    }

    /// Approximation ratio `c > 1` (default 1.5). Re-couples the bucket
    /// width to `w0 = 4 c^2`; call [`w0`] *after* this to decouple.
    ///
    /// [`w0`]: DbLshBuilder::w0
    pub fn c(mut self, c: f64) -> Self {
        self.c = Some(c);
        self.w0 = None;
        self
    }

    /// Base bucket width `w0` (default `4 c^2`, coupled to `c` until
    /// this is called).
    pub fn w0(mut self, w0: f64) -> Self {
        self.w0 = Some(w0);
        self
    }

    /// Hash functions per compound hash, i.e. the projected
    /// dimensionality `K` (paper default: 10, or 12 beyond 1M points).
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Number of compound hashes / R*-trees `L` (paper default 5).
    pub fn l(mut self, l: usize) -> Self {
        self.l = Some(l);
        self
    }

    /// Candidate-budget constant `t` of Remark 2 (default 64).
    pub fn t(mut self, t: usize) -> Self {
        self.t = Some(t);
        self
    }

    /// Fixed radius-ladder start (default 1.0). Mutually exclusive with
    /// [`DbLshBuilder::auto_r_min`]; the last call wins.
    pub fn r_min(mut self, r_min: f64) -> Self {
        self.r_min = RMinBuilderState(RMinChoice::Fixed(Some(r_min)));
        self
    }

    /// Estimate the radius-ladder start from the data at build time
    /// (median sampled NN distance over 16 probes, biased low by `c^4` —
    /// see [`DbLsh::estimate_r_min`]).
    pub fn auto_r_min(mut self) -> Self {
        self.r_min = RMinBuilderState(RMinChoice::Auto { sample: 16 });
        self
    }

    /// [`DbLshBuilder::auto_r_min`] with an explicit probe-sample size
    /// (clamped to 1..=16 probes).
    pub fn auto_r_min_with_sample(mut self, sample: usize) -> Self {
        self.r_min = RMinBuilderState(RMinChoice::Auto { sample });
        self
    }

    /// Safety cap on ladder rounds (default 64).
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// R*-tree node capacity (default 32, minimum 4).
    pub fn node_capacity(mut self, node_capacity: usize) -> Self {
        self.node_capacity = Some(node_capacity);
        self
    }

    /// Seed for the Gaussian projection family (builds are deterministic
    /// in the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Enable or disable locality-aware id relabeling at bulk build
    /// (default enabled; see [`crate::DbLshParams::relabel`]). Returned
    /// ids and answers are identical either way (up to duplicate-point
    /// tie-breaking); disabling trades
    /// query-time memory locality for a smaller build footprint.
    pub fn relabel(mut self, relabel: bool) -> Self {
        self.relabel = Some(relabel);
        self
    }

    /// Resolve the configuration against a dataset of `n` points without
    /// building — useful for inspecting what `build` would use.
    pub fn resolve_params(&self, n: usize) -> DbLshParams {
        let mut p = DbLshParams::paper_defaults(n);
        if let Some(c) = self.c {
            p.c = c;
            p.w0 = 4.0 * c * c;
        }
        if let Some(w0) = self.w0 {
            p.w0 = w0;
        }
        if let Some(k) = self.k {
            p.k = k;
        }
        if let Some(l) = self.l {
            p.l = l;
        }
        if let Some(t) = self.t {
            p.t = t;
        }
        if let RMinChoice::Fixed(Some(r)) = self.r_min.0 {
            p.r_min = r;
        }
        if let Some(m) = self.max_rounds {
            p.max_rounds = m;
        }
        if let Some(cap) = self.node_capacity {
            p.node_capacity = cap;
        }
        if let Some(seed) = self.seed {
            p.seed = seed;
        }
        if let Some(relabel) = self.relabel {
            p.relabel = relabel;
        }
        p
    }

    /// Resolve the configuration against an actual dataset, *including*
    /// a requested [`DbLshBuilder::auto_r_min`] estimate, without
    /// building. This is what a sharded serving layer (`dblsh-serve`)
    /// calls once over the full dataset before partitioning, so every
    /// shard is built with the same fully resolved parameters (same
    /// projection family, same ladder start) as an unsharded index
    /// would be.
    pub fn resolve_params_for(&self, data: &Dataset) -> Result<DbLshParams, DbLshError> {
        let mut params = self.resolve_params(data.len());
        params.validate()?;
        if data.is_empty() {
            return Err(DbLshError::EmptyDataset);
        }
        if let RMinChoice::Auto { sample } = self.r_min.0 {
            if sample == 0 {
                return Err(DbLshError::invalid(
                    "r_min sample",
                    "auto estimation needs at least 1 probe",
                ));
            }
            params.r_min = DbLsh::estimate_r_min(data, &params, sample);
        }
        Ok(params)
    }

    /// Build the index over `data` (`Dataset` or `Arc<Dataset>`). The
    /// index takes the rows over and keeps no handle to the caller's
    /// dataset — pass an owned `Dataset` to avoid holding a second copy
    /// (see [`DbLsh::build`]).
    ///
    /// Fails — never panics — on an empty dataset, a non-positive or
    /// non-finite knob, `k`/`l`/`t` of zero, or a dataset too large for
    /// `u32` ids.
    pub fn build(self, data: impl Into<Arc<Dataset>>) -> Result<DbLsh, DbLshError> {
        let data: Arc<Dataset> = data.into();
        let params = self.resolve_params_for(&data)?;
        DbLsh::build(data, &params)
    }
}

/// Start a builder from existing params (migration path for call sites
/// holding a [`DbLshParams`]).
impl From<DbLshParams> for DbLshBuilder {
    fn from(p: DbLshParams) -> Self {
        DbLshBuilder {
            c: Some(p.c),
            // A width at the coupled default stays coupled, so a later
            // .c(x) recomputes it instead of pinning the stale value.
            w0: if p.w0 == 4.0 * p.c * p.c {
                None
            } else {
                Some(p.w0)
            },
            k: Some(p.k),
            l: Some(p.l),
            t: Some(p.t),
            r_min: RMinBuilderState(RMinChoice::Fixed(Some(p.r_min))),
            max_rounds: Some(p.max_rounds),
            node_capacity: Some(p.node_capacity),
            seed: Some(p.seed),
            relabel: Some(p.relabel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};

    fn small() -> Dataset {
        gaussian_mixture(&MixtureConfig {
            n: 600,
            dim: 12,
            clusters: 8,
            ..Default::default()
        })
    }

    #[test]
    fn defaults_match_paper() {
        let p = DbLshBuilder::new().resolve_params(60_000);
        assert_eq!(p, DbLshParams::paper_defaults(60_000));
        let p_big = DbLshBuilder::new().resolve_params(2_000_000);
        assert_eq!(p_big.k, 12);
    }

    #[test]
    fn chainable_overrides_apply() {
        let idx = DbLshBuilder::new()
            .c(2.0)
            .k(6)
            .l(3)
            .t(16)
            .r_min(0.25)
            .max_rounds(32)
            .node_capacity(16)
            .seed(99)
            .build(small())
            .unwrap();
        let p = idx.params();
        assert_eq!(p.c, 2.0);
        assert_eq!(p.w0, 16.0); // coupled to c
        assert_eq!(p.k, 6);
        assert_eq!(p.l, 3);
        assert_eq!(p.t, 16);
        assert_eq!(p.r_min, 0.25);
        assert_eq!(p.max_rounds, 32);
        assert_eq!(p.node_capacity, 16);
        assert_eq!(p.seed, 99);
    }

    #[test]
    fn w0_override_decouples_from_c() {
        let p = DbLshBuilder::new().c(2.0).w0(5.0).resolve_params(100);
        assert_eq!(p.w0, 5.0);
        // ...but a later c() re-couples
        let p = DbLshBuilder::new().w0(5.0).c(2.0).resolve_params(100);
        assert_eq!(p.w0, 16.0);
    }

    #[test]
    fn from_params_then_c_recouples_w0() {
        // migration path: params at the coupled default, then c changed
        let base = DbLshParams::paper_defaults(1000);
        let p = DbLshBuilder::from(base).c(3.0).resolve_params(1000);
        assert_eq!(p.w0, 36.0, "stale coupled width must not survive c()");
        // an explicitly decoupled width does survive From
        let odd = DbLshParams::paper_defaults(1000).with_w0(5.0);
        let p = DbLshBuilder::from(odd).resolve_params(1000);
        assert_eq!(p.w0, 5.0);
    }

    #[test]
    fn empty_dataset_is_err() {
        let err = DbLshBuilder::new().build(Dataset::empty(4)).unwrap_err();
        assert_eq!(err, DbLshError::EmptyDataset);
    }

    #[test]
    fn invalid_params_are_err_not_panic() {
        let data = Arc::new(small());
        for (builder, knob) in [
            (DbLshBuilder::new().c(1.0), "c"),
            (DbLshBuilder::new().c(f64::NAN), "c"),
            (DbLshBuilder::new().w0(-1.0), "w0"),
            (DbLshBuilder::new().k(0), "k"),
            (DbLshBuilder::new().l(0), "l"),
            (DbLshBuilder::new().t(0), "t"),
            (DbLshBuilder::new().r_min(0.0), "r_min"),
            (DbLshBuilder::new().max_rounds(0), "max_rounds"),
            (DbLshBuilder::new().node_capacity(2), "node_capacity"),
        ] {
            match builder.build(Arc::clone(&data)) {
                Err(DbLshError::InvalidParameter { param, .. }) => assert_eq!(param, knob),
                other => panic!("{knob}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn auto_r_min_estimates_from_data() {
        let data = small();
        let fixed = DbLshBuilder::new().build(data.clone()).unwrap();
        assert_eq!(fixed.params().r_min, 1.0);
        let auto = DbLshBuilder::new().auto_r_min().build(data).unwrap();
        assert_ne!(auto.params().r_min, 1.0);
        assert!(auto.params().r_min > 0.0);
    }

    #[test]
    fn accepts_dataset_and_arc() {
        let d = small();
        let arc = Arc::new(d.clone());
        assert!(DbLshBuilder::new().k(4).l(2).build(d).is_ok());
        assert!(DbLshBuilder::new().k(4).l(2).build(arc).is_ok());
    }

    #[test]
    fn from_params_round_trips() {
        let p = DbLshParams::paper_defaults(1000).with_kl(7, 3).with_seed(5);
        let b: DbLshBuilder = p.clone().into();
        assert_eq!(b.resolve_params(1000), p);
    }

    #[test]
    fn builder_build_equals_direct_build() {
        let data = Arc::new(small());
        let p = DbLshParams::paper_defaults(data.len()).with_kl(5, 2);
        let a = DbLsh::build(Arc::clone(&data), &p).unwrap();
        let b = DbLshBuilder::from(p).build(Arc::clone(&data)).unwrap();
        let q = data.point(3);
        assert_eq!(a.k_ann(q, 5).unwrap().ids(), b.k_ann(q, 5).unwrap().ids());
    }
}
