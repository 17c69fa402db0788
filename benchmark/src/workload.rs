//! Inputs made from `--seed`: the dataset, the query log, the insert
//! pool and the churn operation logs. The program under test receives
//! only these generated inputs, never the seed's meaning.

use std::sync::Arc;

use db_lsh::data::synthetic::{gaussian_mixture, split_queries, MixtureConfig};
use db_lsh::data::Dataset;
use db_lsh::DbLshBuilder;

use crate::spec::{Workload, POOL, QUERIES};

/// Everything a workload reads, all derived from one seed.
pub struct Inputs {
    /// The points indexed at build; row `i` is id `i`.
    pub base: Arc<Dataset>,
    /// The query log, carved from the same mixture (never indexed).
    pub queries: Dataset,
    /// Points the write phases insert (never indexed at build).
    pub pool: Dataset,
}

pub fn make_inputs(w: &Workload, seed: u64) -> Inputs {
    let mut all = gaussian_mixture(&MixtureConfig {
        n: w.n + QUERIES + POOL,
        dim: w.dim,
        clusters: w.clusters,
        cluster_std: 1.0,
        spread: 60.0,
        noise_frac: 0.02,
        seed,
    });
    let queries = split_queries(&mut all, QUERIES, seed ^ 0x5eed_0001);
    let pool = split_queries(&mut all, POOL, seed ^ 0x5eed_0002);
    Inputs {
        base: Arc::new(all),
        queries,
        pool,
    }
}

/// The one index configuration every workload builds with.
pub fn builder(seed: u64) -> DbLshBuilder {
    DbLshBuilder::new().auto_r_min().seed(seed)
}

/// SplitMix64: the benchmark's own generator for operation order, so an
/// operation log depends on nothing but the seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// the log sizes used here.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One operation of a churn log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `knn` of query row `.0`.
    Knn(u32),
    /// Insert pool row `.0`.
    Insert(u32),
    /// Remove the client's own `.0`-th insert (its id is known only once
    /// the server has answered that insert).
    RemoveOwn(u32),
    /// Remove base id `.0`, from the client's own partition of the base.
    RemoveBase(u32),
}

/// Operations per client per churn pass: 80% knn, 10% insert, 10% remove.
pub const CHURN_KNN: usize = 1_200;
pub const CHURN_INSERT: usize = 150;
pub const CHURN_REMOVE: usize = 150;

/// A client's churn log generator. Passes continue one another: the
/// query cursor, the pool cursor and the remove cursors carry over, so
/// the live count stays at its starting value at every pass boundary.
pub struct ChurnLog {
    rng: SplitMix,
    client: usize,
    clients: usize,
    queries: usize,
    pool: usize,
    knn_at: usize,
    inserted: usize,
    own_removed: usize,
    base_removed: usize,
    removes: usize,
}

impl ChurnLog {
    pub fn new(seed: u64, client: usize, clients: usize, queries: usize, pool: usize) -> Self {
        ChurnLog {
            rng: SplitMix::new(seed ^ (0xc0ff_ee00 + client as u64)),
            client,
            clients,
            queries,
            pool,
            knn_at: 0,
            inserted: 0,
            own_removed: 0,
            base_removed: 0,
            removes: 0,
        }
    }

    /// Inserts issued so far, and how many of them were removed again.
    pub fn own_counts(&self) -> (usize, usize) {
        (self.inserted, self.own_removed)
    }

    /// The next pass: a seeded shuffle of the fixed 80/10/10 mix. A
    /// client's query rows, pool rows and base ids are those congruent to
    /// its index modulo the client count, so no two clients ever touch
    /// the same id. Removes alternate between the client's oldest live
    /// insert and its next base id.
    pub fn next_pass(&mut self) -> Vec<Op> {
        #[derive(Clone, Copy)]
        enum Kind {
            Knn,
            Insert,
            Remove,
        }
        let mut kinds = [
            vec![Kind::Knn; CHURN_KNN],
            vec![Kind::Insert; CHURN_INSERT],
            vec![Kind::Remove; CHURN_REMOVE],
        ]
        .concat();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.rng.below(i + 1));
        }
        let (client, clients) = (self.client, self.clients);
        let stride = move |at: usize, len: usize| -> u32 {
            let mine = len / clients;
            (client + clients * (at % mine)) as u32
        };
        kinds
            .into_iter()
            .map(|kind| match kind {
                Kind::Knn => {
                    self.knn_at += 1;
                    Op::Knn(stride(self.knn_at - 1, self.queries))
                }
                Kind::Insert => {
                    self.inserted += 1;
                    Op::Insert(stride(self.inserted - 1, self.pool))
                }
                Kind::Remove => {
                    self.removes += 1;
                    if self.removes % 2 == 1 && self.own_removed < self.inserted {
                        self.own_removed += 1;
                        Op::RemoveOwn(self.own_removed as u32 - 1)
                    } else {
                        self.base_removed += 1;
                        Op::RemoveBase(stride(self.base_removed - 1, usize::MAX))
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CLIENTS;

    /// FNV-1a over a log — the fingerprint the determinism tests pin.
    fn log_hash(ops: &[Op]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for op in ops {
            let (tag, v) = match *op {
                Op::Knn(v) => (0u8, v),
                Op::Insert(v) => (1, v),
                Op::RemoveOwn(v) => (2, v),
                Op::RemoveBase(v) => (3, v),
            };
            for b in std::iter::once(tag).chain(v.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    fn two_passes(seed: u64, client: usize) -> Vec<Op> {
        let mut log = ChurnLog::new(seed, client, CLIENTS, QUERIES, POOL);
        let mut ops = log.next_pass();
        ops.extend(log.next_pass());
        ops
    }

    #[test]
    fn same_seed_same_log_and_the_hash_is_pinned() {
        assert_eq!(two_passes(1, 0), two_passes(1, 0));
        // Pinned: a change here means every committed baseline was
        // measured on a different operation log.
        assert_eq!(log_hash(&two_passes(1, 0)), 13_097_898_438_471_873_359);
        assert_eq!(log_hash(&two_passes(1, 1)), 4_599_778_822_294_332_162);
    }

    #[test]
    fn different_seed_or_client_gives_a_different_log() {
        assert_ne!(log_hash(&two_passes(1, 0)), log_hash(&two_passes(2, 0)));
        assert_ne!(log_hash(&two_passes(1, 0)), log_hash(&two_passes(1, 1)));
    }

    #[test]
    fn a_pass_has_the_fixed_mix_and_disjoint_partitions() {
        let mut logs: Vec<ChurnLog> = (0..CLIENTS)
            .map(|c| ChurnLog::new(7, c, CLIENTS, QUERIES, POOL))
            .collect();
        for _ in 0..3 {
            for (c, log) in logs.iter_mut().enumerate() {
                let ops = log.next_pass();
                let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
                assert_eq!(count(|o| matches!(o, Op::Knn(_))), CHURN_KNN);
                assert_eq!(count(|o| matches!(o, Op::Insert(_))), CHURN_INSERT);
                assert_eq!(
                    count(|o| matches!(o, Op::RemoveOwn(_) | Op::RemoveBase(_))),
                    CHURN_REMOVE
                );
                for op in &ops {
                    match *op {
                        Op::Knn(q) => assert!((q as usize) < QUERIES && q as usize % CLIENTS == c),
                        Op::Insert(p) => assert!((p as usize) < POOL && p as usize % CLIENTS == c),
                        Op::RemoveBase(id) => assert_eq!(id as usize % CLIENTS, c),
                        Op::RemoveOwn(_) => {}
                    }
                }
            }
        }
        // A RemoveOwn never names an insert that has not been issued yet.
        let mut log = ChurnLog::new(9, 0, CLIENTS, QUERIES, POOL);
        let mut issued = 0u32;
        for op in log.next_pass() {
            match op {
                Op::Insert(_) => issued += 1,
                Op::RemoveOwn(k) => assert!(k < issued),
                _ => {}
            }
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let w = Workload {
            name: "t",
            why: "",
            n: 500,
            dim: 8,
            clusters: 5,
            scored: 10,
            serve: None,
        };
        let (a, b, c) = (make_inputs(&w, 3), make_inputs(&w, 3), make_inputs(&w, 4));
        assert_eq!(a.base.len(), 500);
        assert_eq!(a.queries.len(), QUERIES);
        assert_eq!(a.pool.len(), POOL);
        assert_eq!(a.base.flat(), b.base.flat());
        assert_eq!(a.queries.flat(), b.queries.flat());
        assert_ne!(a.base.flat(), c.base.flat());
    }
}
