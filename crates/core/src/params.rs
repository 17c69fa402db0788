//! DB-LSH parameters: the paper's practical defaults plus the
//! theory-derived alternative of Lemma 1.
//!
//! `DbLshParams` is a plain bag of values: the `with_*` combinators store
//! whatever they are given and [`DbLshParams::validate`] reports every
//! constraint violation as a [`DbLshError`] — construction through
//! [`crate::DbLshBuilder`] surfaces bad settings as `Err`, never panics.

use dblsh_data::DbLshError;
use dblsh_math::theory::derive_kl;

/// Parameters of a [`crate::DbLsh`] index.
#[derive(Debug, Clone, PartialEq)]
pub struct DbLshParams {
    /// Approximation ratio `c > 1` (paper default 1.5).
    pub c: f64,
    /// Base bucket width `w0` (paper default `4 c^2`, i.e. `gamma = 2`).
    pub w0: f64,
    /// Number of hash functions per compound hash (projected dim).
    pub k: usize,
    /// Number of compound hashes / R*-trees.
    pub l: usize,
    /// Candidate-budget constant of Remark 2: an (r,c)-NN probe verifies at
    /// most `2tL + 1` points (`2tL + k` for (c,k)-ANN).
    pub t: usize,
    /// Radius ladder start (the paper assumes `r = 1` w.l.o.g.; real data
    /// has arbitrary scale, see [`DbLshParams::with_r_min`]).
    pub r_min: f64,
    /// Safety cap on ladder rounds, in case of degenerate data.
    pub max_rounds: usize,
    /// R*-tree node capacity.
    pub node_capacity: usize,
    /// Seed for the Gaussian projections.
    pub seed: u64,
    /// Locality-aware id relabeling at bulk build (default `true`): the
    /// index computes a locality-preserving permutation of the points
    /// (tree-0 STR leaf order over the first projected space), lays out
    /// its dataset and projection-store rows in that order, and maps
    /// internal ids back to the caller's ids on every returned result.
    /// Costs two `u32` maps (8 B per row) and, at build, one rewrite of
    /// the rows into the new order; buys near-sequential memory reads in
    /// leaf scans and candidate verification. Query answers are byte-identical either way for
    /// datasets of distinct points; exact duplicate rows project to
    /// identical coordinates, and which duplicate's id is reported can
    /// depend on tie-breaking in the build order (the reported distances
    /// are identical regardless).
    pub relabel: bool,
}

impl DbLshParams {
    /// The experimental settings of Section VI-A: `c = 1.5`, `w0 = 4 c^2`,
    /// `L = 5`, `K = 12` for datasets over one million points, else
    /// `K = 10`.
    pub fn paper_defaults(n: usize) -> Self {
        let c = 1.5f64;
        DbLshParams {
            c,
            w0: 4.0 * c * c,
            k: if n > 1_000_000 { 12 } else { 10 },
            l: 5,
            t: 64,
            r_min: 1.0,
            max_rounds: 64,
            node_capacity: 32,
            seed: 0x05EE_DD81,
            relabel: true,
        }
    }

    /// Fully theory-driven parameters per Lemma 1 / Remark 2:
    /// `K = ceil(log_{1/p2}(n/t))`, `L = ceil((n/t)^{rho*})`.
    ///
    /// Note that at `w0 = 4c^2` the theoretical `K` is enormous (p2 is
    /// close to 1); this constructor is most useful at moderate widths
    /// (`w0` around `2c`), and for studying the theory itself.
    pub fn theory_driven(n: usize, t: usize, c: f64, w0: f64) -> Self {
        let derived = derive_kl(n, t, c, w0);
        DbLshParams {
            c,
            w0,
            k: derived.k,
            l: derived.l,
            t,
            r_min: 1.0,
            max_rounds: 64,
            node_capacity: 32,
            seed: 0x05EE_DD81,
            relabel: true,
        }
    }

    /// Override the approximation ratio, keeping `w0 = 4 c^2` coupled.
    /// Validated at build time: `c` must exceed 1.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self.w0 = 4.0 * c * c;
        self
    }

    /// Override the bucket width `w0` (validated at build time).
    pub fn with_w0(mut self, w0: f64) -> Self {
        self.w0 = w0;
        self
    }

    /// Override `K` and `L` (validated at build time).
    pub fn with_kl(mut self, k: usize, l: usize) -> Self {
        self.k = k;
        self.l = l;
        self
    }

    /// Override the candidate-budget constant `t` (validated at build
    /// time).
    pub fn with_t(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    /// Override the radius-ladder start. The ladder `r_min * c^j` should
    /// start at or below the typical NN distance; too small only costs a
    /// few empty probe rounds (each `O(L log n)`), too large costs
    /// accuracy.
    pub fn with_r_min(mut self, r_min: f64) -> Self {
        self.r_min = r_min;
        self
    }

    /// Override the projection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable or disable locality-aware id relabeling at bulk build (see
    /// [`DbLshParams::relabel`]). Answers are byte-identical either way
    /// (up to duplicate-point tie-breaking — see [`DbLshParams::relabel`]);
    /// disabling trades query-time memory locality for a smaller build
    /// footprint (rows taken over in place, no id maps).
    pub fn with_relabel(mut self, relabel: bool) -> Self {
        self.relabel = relabel;
        self
    }

    /// Candidate budget of one (r,c)-NN probe (`2tL + 1`, Algorithm 1).
    pub fn rcnn_budget(&self) -> usize {
        2 * self.t * self.l + 1
    }

    /// Candidate budget of a (c,k)-ANN query (`2tL + k`, Section IV-C).
    pub fn kann_budget(&self, k: usize) -> usize {
        2 * self.t * self.l + k
    }

    /// Check every constraint; called by [`crate::DbLshBuilder::build`]
    /// and [`crate::DbLsh::build`] so malformed settings surface as
    /// `Err`, not panics.
    pub fn validate(&self) -> Result<(), DbLshError> {
        if !(self.c > 1.0 && self.c.is_finite()) {
            return Err(DbLshError::invalid(
                "c",
                "approximation ratio must exceed 1",
            ));
        }
        if !(self.w0 > 0.0 && self.w0.is_finite()) {
            return Err(DbLshError::invalid(
                "w0",
                "bucket width must be positive and finite",
            ));
        }
        if self.k < 1 {
            return Err(DbLshError::invalid("k", "K must be at least 1"));
        }
        if self.l < 1 {
            return Err(DbLshError::invalid("l", "L must be at least 1"));
        }
        if self.t < 1 {
            return Err(DbLshError::invalid("t", "t must be at least 1"));
        }
        if !(self.r_min > 0.0 && self.r_min.is_finite()) {
            return Err(DbLshError::invalid(
                "r_min",
                "radius ladder start must be positive and finite",
            ));
        }
        if self.max_rounds < 1 {
            return Err(DbLshError::invalid("max_rounds", "must be at least 1"));
        }
        if self.node_capacity < 4 {
            return Err(DbLshError::invalid(
                "node_capacity",
                "R*-tree node capacity must be at least 4",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_vi() {
        let small = DbLshParams::paper_defaults(60_000);
        assert_eq!(small.c, 1.5);
        assert_eq!(small.w0, 9.0);
        assert_eq!(small.k, 10);
        assert_eq!(small.l, 5);
        let big = DbLshParams::paper_defaults(10_000_000);
        assert_eq!(big.k, 12);
    }

    #[test]
    fn budgets_match_paper_formulas() {
        let p = DbLshParams::paper_defaults(60_000);
        assert_eq!(p.rcnn_budget(), 2 * 64 * 5 + 1);
        assert_eq!(p.kann_budget(50), 2 * 64 * 5 + 50);
    }

    #[test]
    fn theory_driven_is_consistent() {
        let p = DbLshParams::theory_driven(100_000, 32, 2.0, 4.0);
        p.validate().unwrap();
        assert!(p.k >= 1);
        assert!(p.l >= 1);
    }

    #[test]
    fn builder_overrides() {
        let p = DbLshParams::paper_defaults(1000)
            .with_c(2.0)
            .with_kl(8, 3)
            .with_t(16)
            .with_r_min(0.5)
            .with_seed(7);
        assert_eq!(p.c, 2.0);
        assert_eq!(p.w0, 16.0);
        assert_eq!(p.k, 8);
        assert_eq!(p.l, 3);
        assert_eq!(p.t, 16);
        assert_eq!(p.r_min, 0.5);
        assert_eq!(p.seed, 7);
        p.validate().unwrap();
    }

    #[test]
    fn every_constraint_is_reported() {
        let base = DbLshParams::paper_defaults(1000);
        let bad: Vec<(DbLshParams, &str)> = vec![
            (base.clone().with_c(1.0), "c"),
            (base.clone().with_c(f64::NAN), "c"),
            (base.clone().with_w0(0.0), "w0"),
            (base.clone().with_w0(f64::INFINITY), "w0"),
            (base.clone().with_kl(0, 5), "k"),
            (base.clone().with_kl(4, 0), "l"),
            (base.clone().with_t(0), "t"),
            (base.clone().with_r_min(0.0), "r_min"),
            (base.clone().with_r_min(f64::NAN), "r_min"),
            (
                DbLshParams {
                    max_rounds: 0,
                    ..base.clone()
                },
                "max_rounds",
            ),
            (
                DbLshParams {
                    node_capacity: 2,
                    ..base.clone()
                },
                "node_capacity",
            ),
        ];
        for (params, knob) in bad {
            match params.validate() {
                Err(DbLshError::InvalidParameter { param, .. }) => {
                    assert_eq!(param, knob, "wrong knob blamed for {params:?}")
                }
                other => panic!("{knob}: expected InvalidParameter, got {other:?}"),
            }
        }
    }
}
