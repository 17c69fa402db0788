//! Experiment harness reproducing every table and figure of the DB-LSH
//! paper's evaluation (Section VI).
//!
//! Each table/figure has a dedicated binary under `src/bin/` (`table*`,
//! `fig*`, and the `ablation_*` studies), run as
//! `cargo run --release -p dblsh-bench --bin table4`. The shared
//! machinery here prepares datasets (synthetic clones of Table III via
//! [`dblsh_data::registry`]), builds every algorithm behind one enum, and
//! evaluates queries with the paper's metrics. The one other binary,
//! `torture`, is the crash- and fault-recovery harness of the serving
//! layer. Performance is measured by the standing benchmark in
//! `benchmark/`, not here.
//!
//! Environment knobs (all optional):
//! * `DBLSH_SCALE` — multiplier on the per-dataset default scales (e.g.
//!   `DBLSH_SCALE=0.5` halves every dataset; default 1.0);
//! * `DBLSH_QUERIES` — number of query points (default 100, as in the
//!   paper);
//! * `DBLSH_DATASETS` — comma-separated subset of dataset names for the
//!   overview table (default: the seven small/medium sets).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dblsh_baselines::{
    e2lsh::E2LshParams, lccs::LccsParams, lsb::LsbParams, pm_lsh::PmLshParams, qalsh::QalshParams,
    r2lsh::R2LshParams, vhp::VhpParams, E2Lsh, FbLsh, LccsLsh, LinearScan, LsbForest, PmLsh, Qalsh,
    R2Lsh, Vhp,
};
use dblsh_core::{DbLsh, DbLshParams};
use dblsh_data::registry::PaperDataset;
use dblsh_data::synthetic::{gaussian_mixture, split_queries, MixtureConfig};
use dblsh_data::{exact_knn, metrics, AnnIndex, Dataset, Neighbor};

/// Default evaluation scale per dataset: chosen so the whole grid runs on
/// a laptop while preserving each dataset's relative size ordering.
pub fn default_scale(d: PaperDataset) -> f64 {
    match d {
        PaperDataset::Audio => 0.2,
        PaperDataset::Mnist | PaperDataset::Cifar => 0.2,
        PaperDataset::Trevi => 0.05,
        PaperDataset::Nus => 0.1,
        PaperDataset::Deep1M | PaperDataset::Gist => 0.02,
        PaperDataset::Sift10M => 0.005,
        PaperDataset::TinyImages80M => 0.0005,
        PaperDataset::Sift100M => 0.0005,
    }
}

/// The seven datasets the default overview run covers (the paper's three
/// largest are included at reduced scale when explicitly requested).
pub fn default_datasets() -> Vec<PaperDataset> {
    vec![
        PaperDataset::Audio,
        PaperDataset::Mnist,
        PaperDataset::Cifar,
        PaperDataset::Trevi,
        PaperDataset::Nus,
        PaperDataset::Deep1M,
        PaperDataset::Gist,
    ]
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A prepared experiment environment: dataset, queries carved out of it,
/// lazily cached ground truth and a radius-ladder hint.
pub struct Env {
    pub label: String,
    pub data: Arc<Dataset>,
    pub queries: Dataset,
    truth: HashMap<usize, Vec<Vec<Neighbor>>>,
    /// Estimated starting radius for ladder-based methods.
    pub r_hint: f64,
}

impl Env {
    /// Prepare a paper dataset clone at its default scale (times the
    /// `DBLSH_SCALE` multiplier).
    pub fn paper(dataset: PaperDataset) -> Env {
        let scale = (default_scale(dataset) * env_f64("DBLSH_SCALE", 1.0)).min(1.0);
        let cfg = dataset.config(scale);
        Env::from_config(dataset.name().to_string(), &cfg)
    }

    /// Prepare from an explicit mixture configuration.
    pub fn from_config(label: String, cfg: &MixtureConfig) -> Env {
        let mut data = gaussian_mixture(cfg);
        let n_queries = env_usize("DBLSH_QUERIES", 100).min(data.len() / 2);
        let queries = split_queries(&mut data, n_queries, cfg.seed ^ 0xABCD);
        let mut env = Env {
            label,
            data: Arc::new(data),
            queries,
            truth: HashMap::new(),
            r_hint: 1.0,
        };
        env.r_hint = env.estimate_r_hint();
        env
    }

    /// Subsample the environment's dataset to its first `n` rows (fresh
    /// queries are re-carved). Used by the "effect of n" experiment.
    pub fn shrink_to(&self, n: usize) -> Env {
        let n = n.min(self.data.len());
        let dim = self.data.dim();
        let mut data = Dataset::from_flat(dim, self.data.flat()[..n * dim].to_vec());
        let n_queries = env_usize("DBLSH_QUERIES", 100).min(data.len() / 2);
        let queries = split_queries(&mut data, n_queries, 0x5EED);
        let mut env = Env {
            label: format!("{}@{}", self.label, n),
            data: Arc::new(data),
            queries,
            truth: HashMap::new(),
            r_hint: 1.0,
        };
        env.r_hint = env.estimate_r_hint();
        env
    }

    /// Median NN distance over a query sample, divided by c^4 — a ladder
    /// start safely below the typical NN radius (a few empty rounds cost
    /// only O(L log n) each; starting *above* the NN radius lets the first
    /// probe accept far points, destroying recall).
    fn estimate_r_hint(&self) -> f64 {
        let sample = self.queries.len().min(15);
        if sample == 0 || self.data.is_empty() {
            return 1.0;
        }
        let probe = Dataset::from_flat(
            self.queries.dim(),
            self.queries.flat()[..sample * self.queries.dim()].to_vec(),
        );
        let nn = exact_knn(&self.data, &probe, 1);
        let mut dists: Vec<f64> = nn
            .iter()
            .filter_map(|v| v.first())
            .map(|n| n.dist as f64)
            .filter(|&d| d > 0.0)
            .collect();
        if dists.is_empty() {
            return 1.0;
        }
        dists.sort_by(f64::total_cmp);
        dists[dists.len() / 2] / 1.5f64.powi(4)
    }

    /// Ground truth for `k`, cached across evaluations.
    pub fn truth(&mut self, k: usize) -> &Vec<Vec<Neighbor>> {
        if !self.truth.contains_key(&k) {
            let t = exact_knn(&self.data, &self.queries, k);
            self.truth.insert(k, t);
        }
        &self.truth[&k]
    }
}

/// Every algorithm in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    DbLsh,
    FbLsh,
    E2Lsh,
    Qalsh,
    Vhp,
    R2Lsh,
    PmLsh,
    LsbForest,
    LccsLsh,
    Linear,
}

impl Algo {
    /// The Table IV lineup (paper order), linear scan excluded.
    pub const TABLE4: [Algo; 7] = [
        Algo::DbLsh,
        Algo::FbLsh,
        Algo::LccsLsh,
        Algo::PmLsh,
        Algo::R2Lsh,
        Algo::Vhp,
        Algo::LsbForest,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Algo::DbLsh => "DB-LSH",
            Algo::FbLsh => "FB-LSH",
            Algo::E2Lsh => "E2LSH",
            Algo::Qalsh => "QALSH",
            Algo::Vhp => "VHP",
            Algo::R2Lsh => "R2LSH",
            Algo::PmLsh => "PM-LSH",
            Algo::LsbForest => "LSB-Forest",
            Algo::LccsLsh => "LCCS-LSH",
            Algo::Linear => "LinearScan",
        }
    }

    /// Build this algorithm over `env` with the paper's default settings
    /// (approximation ratio `c`), returning the index and build seconds.
    pub fn build(&self, env: &Env, c: f64) -> (Box<dyn AnnIndex>, f64) {
        let data = Arc::clone(&env.data);
        let n = data.len();
        let r_hint = env.r_hint.max(f64::MIN_POSITIVE);
        let start = Instant::now();
        let index: Box<dyn AnnIndex> = match self {
            Algo::DbLsh => {
                let p = DbLshParams::paper_defaults(n).with_c(c).with_r_min(r_hint);
                Box::new(DbLsh::build(data, &p).expect("DB-LSH build"))
            }
            Algo::FbLsh => {
                let p = DbLshParams::paper_defaults(n).with_c(c).with_r_min(r_hint);
                Box::new(FbLsh::build(data, &p, 24))
            }
            Algo::E2Lsh => {
                let mut p = E2LshParams::paper_like(n).with_r_min(r_hint);
                p.c = c;
                p.w0 = 4.0 * c * c;
                Box::new(E2Lsh::build(data, &p))
            }
            Algo::Qalsh => {
                let p = QalshParams::derive(n, c).with_r_min(r_hint);
                Box::new(Qalsh::build(data, &p))
            }
            Algo::Vhp => {
                let p = VhpParams::derive(n, c).with_r_min(r_hint);
                Box::new(Vhp::build(data, &p))
            }
            Algo::R2Lsh => {
                let p = R2LshParams::derive(n, c).with_r_min(r_hint);
                Box::new(R2Lsh::build(data, &p))
            }
            Algo::PmLsh => {
                let p = PmLshParams {
                    c,
                    ..Default::default()
                };
                Box::new(PmLsh::build(data, &p))
            }
            Algo::LsbForest => {
                let p = LsbParams {
                    c: c.max(2.0),
                    ..Default::default()
                };
                Box::new(LsbForest::build(data, &p))
            }
            Algo::LccsLsh => Box::new(LccsLsh::build(data, &LccsParams::default())),
            Algo::Linear => Box::new(LinearScan::build(data)),
        };
        (index, start.elapsed().as_secs_f64())
    }
}

/// One evaluation row: the paper's four per-cell metrics.
#[derive(Debug, Clone)]
pub struct EvalRow {
    pub algo: String,
    pub query_ms: f64,
    pub ratio: f64,
    pub recall: f64,
    pub index_s: f64,
    pub index_mb: f64,
    pub candidates: f64,
}

/// Run all queries of `env` at `k` through `index` and score them.
pub fn evaluate(index: &dyn AnnIndex, env: &mut Env, k: usize, index_s: f64) -> EvalRow {
    let truth = env.truth(k).clone();
    let nq = env.queries.len();
    let mut ratios = Vec::with_capacity(nq);
    let mut recalls = Vec::with_capacity(nq);
    let mut candidates = Vec::with_capacity(nq);
    let start = Instant::now();
    let mut results = Vec::with_capacity(nq);
    for qi in 0..nq {
        results.push(
            index
                .search(env.queries.point(qi), k)
                .expect("well-formed query rejected"),
        );
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    for (qi, res) in results.iter().enumerate() {
        ratios.push(metrics::overall_ratio(&res.neighbors, &truth[qi]));
        recalls.push(metrics::recall(&res.neighbors, &truth[qi]));
        candidates.push(res.stats.candidates as f64);
    }
    // Infinite ratios (empty answers) are reported as the worst finite+1
    let finite: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
    let ratio = if finite.is_empty() {
        f64::INFINITY
    } else {
        metrics::mean(&finite)
    };
    EvalRow {
        algo: index.name().to_string(),
        query_ms: total_ms / nq as f64,
        ratio,
        recall: metrics::mean(&recalls),
        index_s,
        index_mb: index.index_size_bytes() as f64 / (1024.0 * 1024.0),
        candidates: metrics::mean(&candidates),
    }
}

/// Print an aligned metrics table.
pub fn print_rows(title: &str, rows: &[EvalRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<12} {:>12} {:>9} {:>8} {:>10} {:>9} {:>11}",
        "Algorithm", "Query(ms)", "Ratio", "Recall", "Index(s)", "Size(MB)", "Candidates"
    );
    for r in rows {
        println!(
            "{:<12} {:>12.3} {:>9.4} {:>8.4} {:>10.3} {:>9.2} {:>11.0}",
            r.algo, r.query_ms, r.ratio, r.recall, r.index_s, r.index_mb, r.candidates
        );
    }
}

/// Datasets selected via `DBLSH_DATASETS`, or the default seven.
pub fn selected_datasets() -> Vec<PaperDataset> {
    match std::env::var("DBLSH_DATASETS") {
        Ok(list) => {
            let wanted: Vec<String> = list
                .split(',')
                .map(|s| s.trim().to_ascii_lowercase())
                .collect();
            PaperDataset::ALL
                .into_iter()
                .filter(|d| wanted.iter().any(|w| w == &d.name().to_ascii_lowercase()))
                .collect()
        }
        Err(_) => default_datasets(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> Env {
        Env::from_config(
            "tiny".into(),
            &MixtureConfig {
                n: 1200,
                dim: 16,
                clusters: 12,
                cluster_std: 1.0,
                spread: 50.0,
                noise_frac: 0.02,
                seed: 5,
            },
        )
    }

    #[test]
    fn env_preparation() {
        let mut env = tiny_env();
        assert!(!env.queries.is_empty());
        assert!(env.r_hint > 0.0);
        let nq = env.queries.len();
        let t = env.truth(5);
        assert_eq!(t.len(), nq);
        assert!(t.iter().all(|v| v.len() == 5));
    }

    #[test]
    fn every_algorithm_builds_and_answers() {
        let mut env = tiny_env();
        for algo in [
            Algo::DbLsh,
            Algo::FbLsh,
            Algo::E2Lsh,
            Algo::Qalsh,
            Algo::Vhp,
            Algo::R2Lsh,
            Algo::PmLsh,
            Algo::LsbForest,
            Algo::LccsLsh,
            Algo::Linear,
        ] {
            let (index, build_s) = algo.build(&env, 1.5);
            let row = evaluate(index.as_ref(), &mut env, 5, build_s);
            assert!(row.recall >= 0.0 && row.recall <= 1.0, "{}", algo.name());
            assert!(
                row.ratio >= 1.0 - 1e-6,
                "{}: ratio {} below 1",
                algo.name(),
                row.ratio
            );
            assert!(row.query_ms >= 0.0);
        }
    }

    #[test]
    fn linear_scan_is_exact_reference() {
        let mut env = tiny_env();
        let (index, s) = Algo::Linear.build(&env, 1.5);
        let row = evaluate(index.as_ref(), &mut env, 10, s);
        assert!((row.recall - 1.0).abs() < 1e-9);
        assert!((row.ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shrink_produces_smaller_env() {
        let env = tiny_env();
        let small = env.shrink_to(400);
        assert!(small.data.len() <= 400);
        assert_eq!(small.data.dim(), env.data.dim());
    }

    #[test]
    fn scales_are_laptop_sized() {
        for d in PaperDataset::ALL {
            let n = (d.full_cardinality() as f64 * default_scale(d)) as usize;
            assert!(n <= 60_000, "{} default too large: {n}", d.name());
        }
    }
}
