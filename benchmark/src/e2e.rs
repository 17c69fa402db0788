//! The untraced run: every end-to-end metric of one workload, with the
//! output checks that decide `correct`.
//!
//! Every timed phase is one untimed warm-up pass plus whole timed passes
//! over a fixed operation log until the phase's share of `--seconds` is
//! spent; a pass yields nearest-rank percentiles and the reported value
//! is that of the least-disturbed pass (see [`best_of`]). Closed loop
//! throughout: a caller sends its next request only after the previous
//! reply.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use db_lsh::data::ground_truth::exact_knn;
use db_lsh::data::{metrics, Dataset};
use db_lsh::net::ServerStats;
use db_lsh::{
    CompactionPolicy, DbLsh, DbLshClient, DbLshServer, Engine, EngineConfig, EngineStats, Neighbor,
    SearchOptions, SearchResult, ServerConfig, ShardPolicy, ShardedDbLsh,
};

use crate::spec::{Serve, Workload, CLIENTS, K, SHARDS};
use crate::stats::{highest_supported_percentile, median, summarise, PassSummary};
use crate::workload::{builder, ChurnLog, Inputs, Op};

pub type Res<T> = Result<T, String>;

/// Shares of `--seconds` given to the time-boxed phases (the write phase
/// of the static workloads runs `--seconds` passes instead).
const READ_SHARE: f64 = 0.5;
const CHURN_SHARE: f64 = 0.7;
const POST_LOAD_SHARE: f64 = 0.3;

/// Checkpoints and recoveries timed on `serve_churn` (each a fraction of
/// a second), fastest kept.
const SMALL_CYCLES: usize = 5;

/// Inserts (then removes of the same points) per write pass.
const WRITE_OPS: usize = 600;

/// Churn passes are capped so a client's insert cursor never wraps onto a
/// pool row that is still live (exact duplicate rows would make "which
/// duplicate's id is reported" a tie-break, and the recovery check
/// compares ids).
const MAX_CHURN_PASSES: usize = 18;

/// Quality floor of the output check.
const MIN_RECALL: f64 = 0.90;
const MAX_RATIO: f64 = 1.05;

/// What one run found: metric values, the operation tally, and the
/// diagnostics printed above the result line.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// `count` operations were attempted and `failed` of them failed.
    pub fn ops(&mut self, count: usize, failed: usize, what: &str) {
        self.attempted += count as u64;
        self.failed += failed as u64;
        if failed > 0 {
            self.notes.push(format!("FAILED {failed}/{count}: {what}"));
        }
    }

    /// One output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.ops(1, usize::from(!ok), what);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

/// Errors cross the benchmark as their text.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn us(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Byte-identical answers: ids, distance bits and work counters.
pub fn same_answer(a: &SearchResult, b: &SearchResult) -> bool {
    a.stats == b.stats
        && a.neighbors.len() == b.neighbors.len()
        && a.neighbors
            .iter()
            .zip(&b.neighbors)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

fn mismatches(got: &[Option<SearchResult>], want: &[SearchResult]) -> usize {
    got.iter()
        .zip(want)
        .filter(|(g, w)| !g.as_ref().is_some_and(|g| same_answer(g, w)))
        .count()
}

/// A fresh directory under `benchmark/out/` for one run's files.
pub fn scratch_dir(workload: &str) -> Res<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("tmp-{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

pub fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(err)?;
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// One pass over the query log.
pub struct ReadPass {
    pub wall_s: f64,
    pub lat_us: Vec<f64>,
    /// In query order; `None` where the call failed.
    pub answers: Vec<Option<SearchResult>>,
}

/// Per-kind latencies of one write or churn pass, and how many of its
/// operations failed.
#[derive(Default)]
pub struct Latencies {
    pub knn_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub remove_us: Vec<f64>,
    pub failed: usize,
}

impl Latencies {
    fn ops(&self) -> usize {
        self.knn_us.len() + self.insert_us.len() + self.remove_us.len()
    }

    /// Fold the per-client results of one pass into one.
    fn merged(per_client: Vec<Latencies>) -> Latencies {
        let mut all = Latencies::default();
        for one in per_client {
            all.knn_us.extend(one.knn_us);
            all.insert_us.extend(one.insert_us);
            all.remove_us.extend(one.remove_us);
            all.failed += one.failed;
        }
        all
    }

    /// Timed inserts into `target` of the pool rows `rows` (wrapping), then
    /// timed removes of the ids they returned.
    pub fn insert_then_remove<T>(
        target: &mut T,
        pool: &Dataset,
        rows: impl Iterator<Item = usize>,
        insert: impl Fn(&mut T, &[f32]) -> Option<u32>,
        remove: impl Fn(&mut T, u32) -> bool,
    ) -> Latencies {
        let mut pass = Latencies::default();
        let mut ids = Vec::new();
        for p in rows {
            let t = Instant::now();
            let id = insert(target, pool.point(p % pool.len()));
            pass.insert_us.push(us(t));
            match id {
                Some(id) => ids.push(id),
                None => pass.failed += 1,
            }
        }
        for id in ids {
            let t = Instant::now();
            let removed = remove(target, id);
            pass.remove_us.push(us(t));
            pass.failed += usize::from(!removed);
        }
        pass
    }
}

/// Run `f` on every item at once, one thread each; results in item order.
fn each_concurrently<I: Send, T: Send>(
    items: impl Iterator<Item = I>,
    f: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .enumerate()
            .map(|(i, item)| s.spawn(move || f(i, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// What the static workloads need from the system under test — the
/// in-process index and the TCP stack answer the same questions.
trait System: Sized {
    /// Dataset in memory → ready to answer.
    fn set_up(w: &Workload, inp: &Inputs, seed: u64, dir: &Path) -> Res<Self>;
    /// Stop everything; returns operations the system itself counted as
    /// failed or refused.
    fn tear_down(self) -> u64;
    fn read_pass(&mut self, queries: &Dataset) -> ReadPass;
    /// `ops` inserts of pool rows starting at `from` (wrapping), then
    /// removes of the same points.
    fn write_pass(&mut self, pool: &Dataset, from: usize, ops: usize) -> Latencies;
    fn memory_bytes(&self) -> usize;
    fn len(&self) -> usize;
    /// Snapshot into `dir`; returns (bytes written, seconds).
    fn save(&self, dir: &Path) -> Res<(u64, f64)>;
    /// Restore from `dir`; returns the seconds of the load call alone.
    fn load(dir: &Path) -> Res<(Self, f64)>;
}

struct Lib(DbLsh);

impl System for Lib {
    fn set_up(_: &Workload, inp: &Inputs, seed: u64, _: &Path) -> Res<Self> {
        builder(seed)
            .build(Arc::clone(&inp.base))
            .map(Lib)
            .map_err(err)
    }

    fn tear_down(self) -> u64 {
        0
    }

    fn read_pass(&mut self, queries: &Dataset) -> ReadPass {
        let opts = SearchOptions::default();
        let mut lat_us = Vec::with_capacity(queries.len());
        let mut answers = Vec::with_capacity(queries.len());
        let start = Instant::now();
        for q in 0..queries.len() {
            let t = Instant::now();
            let r = self.0.search_canonical(queries.point(q), K, &opts);
            lat_us.push(us(t));
            answers.push(r.ok());
        }
        ReadPass {
            wall_s: secs(start),
            lat_us,
            answers,
        }
    }

    fn write_pass(&mut self, pool: &Dataset, from: usize, ops: usize) -> Latencies {
        Latencies::insert_then_remove(
            &mut self.0,
            pool,
            from..from + ops,
            |index, p| index.insert(p).ok(),
            |index, id| matches!(index.remove(id), Ok(true)),
        )
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    // The in-process workloads time the snapshot codec against memory:
    // this host's disk takes anywhere from 1 to 3 s for `dram_large`'s
    // 177 MB, run to run, which no bound could gate. The bytes still go
    // through a file, untimed, so save and load share nothing else. The
    // serving workloads time real directories (`save_dir` / `load_dir`).
    fn save(&self, dir: &Path) -> Res<(u64, f64)> {
        let mut bytes = Vec::new();
        let t = Instant::now();
        self.0.save(&mut bytes).map_err(err)?;
        let s = secs(t);
        std::fs::write(dir.join("index.dblsh"), &bytes)
            .map_err(|e| format!("write snapshot: {e}"))?;
        Ok((bytes.len() as u64, s))
    }

    fn load(dir: &Path) -> Res<(Self, f64)> {
        let bytes =
            std::fs::read(dir.join("index.dblsh")).map_err(|e| format!("read snapshot: {e}"))?;
        let t = Instant::now();
        let index = DbLsh::load(&bytes[..]).map_err(err)?;
        Ok((Lib(index), secs(t)))
    }
}

/// Fleet + engine + TCP server + the closed-loop client connections.
pub struct Srv {
    server: DbLshServer,
    pub engine: Arc<Engine>,
    pub clients: Vec<DbLshClient>,
}

impl Srv {
    /// Engine, listener and `CLIENTS` connections over `fleet`; ready
    /// once every connection has had a pong.
    pub fn serve(fleet: ShardedDbLsh) -> Res<Srv> {
        let workers = std::thread::available_parallelism().map_or(1, |v| v.get());
        let engine = Arc::new(Engine::start(
            Arc::new(fleet),
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
        ));
        let server = DbLshServer::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
            .map_err(err)?;
        let addr = server.local_addr().to_string();
        let mut clients = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let mut client = DbLshClient::connect(&addr).map_err(err)?;
            let pong = client.ping(c as u64).map_err(err)?;
            if pong != c as u64 {
                return Err(format!("ping echoed {pong}, sent {c}"));
            }
            clients.push(client);
        }
        Ok(Srv {
            server,
            engine,
            clients,
        })
    }

    pub fn fleet(&self) -> &ShardedDbLsh {
        self.engine.index()
    }

    /// The workload's fleet, served: `serve_churn` gets the WAL (under
    /// `dir/wal`) and auto-compaction, every other workload a plain fleet.
    pub fn set_up(w: &Workload, inp: &Inputs, seed: u64, dir: &Path) -> Res<Srv> {
        Srv::serve(Srv::build_fleet(w, inp, seed, dir)?)
    }

    /// Stop the listener, then the engine; returns their final counters.
    pub fn shut_down(self) -> (ServerStats, EngineStats) {
        drop(self.clients);
        let net = self.server.shutdown();
        let eng = self.engine.stats();
        // The server is gone, so this is the last handle: dropping it
        // closes the queue and joins the workers.
        drop(self.engine);
        (net, eng)
    }

    fn build_fleet(w: &Workload, inp: &Inputs, seed: u64, dir: &Path) -> Res<ShardedDbLsh> {
        let fleet = ShardedDbLsh::build(&inp.base, &builder(seed), SHARDS, ShardPolicy::RoundRobin)
            .map_err(err)?;
        if w.serve != Some(Serve::Churn) {
            return Ok(fleet);
        }
        let wal = dir.join("wal");
        let _ = std::fs::remove_dir_all(&wal);
        fleet
            .with_compaction_policy(CompactionPolicy {
                dead_fraction: 0.05,
                min_dead_rows: 256,
            })
            .enable_wal(&wal)
            .map_err(err)
    }
}

impl System for Srv {
    fn set_up(w: &Workload, inp: &Inputs, seed: u64, dir: &Path) -> Res<Self> {
        Srv::set_up(w, inp, seed, dir)
    }

    fn tear_down(self) -> u64 {
        let (net, eng) = self.shut_down();
        net.errors + net.refused + eng.errors + eng.rejected + eng.deadline_expired
    }

    fn read_pass(&mut self, queries: &Dataset) -> ReadPass {
        let start = Instant::now();
        let per_client = each_concurrently(self.clients.iter_mut(), |c, client| {
            (c..queries.len())
                .step_by(CLIENTS)
                .map(|q| {
                    let t = Instant::now();
                    let r = client.knn(queries.point(q), K);
                    (q, us(t), r.ok())
                })
                .collect::<Vec<_>>()
        });
        let wall_s = secs(start);
        let mut lat_us = Vec::with_capacity(queries.len());
        let mut answers = vec![None; queries.len()];
        for (q, lat, answer) in per_client.into_iter().flatten() {
            lat_us.push(lat);
            answers[q] = answer;
        }
        ReadPass {
            wall_s,
            lat_us,
            answers,
        }
    }

    // One connection: the write phase of `serve_read` measures the wire,
    // queue and shard cost of a write with nothing contending (two
    // concurrent writers made its p50 swing by a third run to run);
    // contended writes are what `serve_churn` is for.
    fn write_pass(&mut self, pool: &Dataset, from: usize, ops: usize) -> Latencies {
        Latencies::insert_then_remove(
            &mut self.clients[0],
            pool,
            from..from + ops,
            |client, p| client.insert(p).ok(),
            |client, id| matches!(client.remove(id), Ok(true)),
        )
    }

    fn memory_bytes(&self) -> usize {
        self.fleet().memory_bytes()
    }

    fn len(&self) -> usize {
        self.fleet().len()
    }

    fn save(&self, dir: &Path) -> Res<(u64, f64)> {
        let snap = dir.join("snap");
        let t = Instant::now();
        self.fleet().save_dir(&snap).map_err(err)?;
        let s = secs(t);
        Ok((dir_bytes(&snap)?, s))
    }

    fn load(dir: &Path) -> Res<(Self, f64)> {
        let t = Instant::now();
        let fleet = ShardedDbLsh::load_dir(dir.join("snap")).map_err(err)?;
        let s = secs(t);
        Ok((Srv::serve(fleet)?, s))
    }
}

/// Set the system up several times and report the median: 9 times where
/// one set-up is under a quarter second, otherwise 3. The last is kept.
fn repeated_set_up<S: System>(
    w: &Workload,
    inp: &Inputs,
    seed: u64,
    dir: &Path,
    rep: &mut Report,
) -> Res<(S, f64)> {
    let mut times = Vec::new();
    let mut kept: Option<S> = None;
    loop {
        if let Some(prev) = kept.take() {
            let refused = prev.tear_down();
            rep.check(refused == 0, "set-up repetition counted failed operations");
        }
        let t = Instant::now();
        kept = Some(S::set_up(w, inp, seed, dir)?);
        times.push(secs(t));
        let reps = if times[0] < 0.25 { 9 } else { 3 };
        if times.len() >= reps {
            break;
        }
    }
    rep.note(format!(
        "setup_s: median of {} set-ups {times:?}",
        times.len()
    ));
    Ok((kept.expect("at least one set-up ran"), median(&times)))
}

fn median_of(passes: &[PassSummary], f: impl Fn(&PassSummary) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The reported value of a timing: that of the least-disturbed pass. On a
/// shared host interference comes in episodes that slow whole passes and
/// never speed one up, so across passes over the same log the smallest
/// per-pass percentile is the steadiest estimate of the program's own
/// speed; a median across passes moves with every episode.
fn best_of(passes: &[PassSummary], f: impl Fn(&PassSummary) -> f64) -> f64 {
    passes.iter().map(f).fold(f64::INFINITY, f64::min)
}

fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// p99 and max are printed with their sample counts, never gated: they do
/// not repeat within a tenth on two shared cores.
fn tail_note(label: &str, passes: &[PassSummary]) -> String {
    let n = passes[0].samples;
    format!(
        "{label}: {} passes x {n} samples, per-pass p50 {:?} us; highest supported percentile p{}; p99 {:.1} us, max {:.1} us (medians across passes, not gated)",
        passes.len(),
        passes.iter().map(|p| p.p50.round()).collect::<Vec<_>>(),
        highest_supported_percentile(n),
        median_of(passes, |p| p.p99),
        median_of(passes, |p| p.max),
    )
}

/// Whole timed read passes until `budget_s` is spent (at least one), each
/// checked against `want`; returns the summaries and per-pass throughput.
fn read_phase<S: System>(
    sys: &mut S,
    queries: &Dataset,
    want: &[SearchResult],
    budget_s: f64,
    what: &str,
    rep: &mut Report,
) -> (Vec<PassSummary>, Vec<f64>) {
    let start = Instant::now();
    let mut summaries = Vec::new();
    let mut throughput = Vec::new();
    while summaries.is_empty() || secs(start) < budget_s {
        let pass = sys.read_pass(queries);
        rep.ops(pass.answers.len(), mismatches(&pass.answers, want), what);
        throughput.push(pass.answers.len() as f64 / pass.wall_s);
        summaries.push(summarise(pass.lat_us));
    }
    (summaries, throughput)
}

/// Mean recall@k and overall ratio of the scored answers.
fn quality(answers: &[Option<SearchResult>], truth: &[Vec<Neighbor>]) -> (f64, f64) {
    let none = SearchResult::default();
    let scored: Vec<(f64, f64)> = answers
        .iter()
        .zip(truth)
        .map(|(a, t)| {
            let got = &a.as_ref().unwrap_or(&none).neighbors;
            (metrics::recall(got, t), metrics::overall_ratio(got, t))
        })
        .collect();
    (
        metrics::mean(&scored.iter().map(|s| s.0).collect::<Vec<_>>()),
        metrics::mean(&scored.iter().map(|s| s.1).collect::<Vec<_>>()),
    )
}

fn report_quality(recall: f64, ratio: f64, rep: &mut Report) {
    rep.metric("recall_at_10", recall);
    rep.metric("ratio", ratio);
    rep.check(
        recall >= MIN_RECALL,
        &format!("recall_at_10 {recall} below {MIN_RECALL}"),
    );
    rep.check(
        ratio <= MAX_RATIO,
        &format!("ratio {ratio} above {MAX_RATIO}"),
    );
}

fn first_rows(data: &Dataset, rows: usize) -> Dataset {
    Dataset::from_flat(data.dim(), data.flat()[..rows * data.dim()].to_vec())
}

/// The reference every answer of a static workload must equal byte for
/// byte: an unsharded index built with the same parameters.
fn canonical_reference(inp: &Inputs, seed: u64) -> Res<Vec<SearchResult>> {
    let index = builder(seed).build(Arc::clone(&inp.base)).map_err(err)?;
    let opts = SearchOptions::default();
    (0..inp.queries.len())
        .map(|q| {
            index
                .search_canonical(inp.queries.point(q), K, &opts)
                .map_err(err)
        })
        .collect()
}

/// `hot_small`, `dram_large`, `serve_read`: read phase, quality, save,
/// load, post-load read phase, write phase.
fn run_static<S: System>(
    w: &Workload,
    inp: &Inputs,
    seed: u64,
    seconds: f64,
    rep: &mut Report,
) -> Res<()> {
    let dir = scratch_dir(w.name)?;
    let (mut sys, setup_s) = repeated_set_up::<S>(w, inp, seed, &dir, rep)?;
    rep.metric("setup_s", setup_s);

    // The warm-up pass doubles as the in-process reference ("identical on
    // every pass"); behind TCP the reference is the unsharded index.
    let warm = sys.read_pass(&inp.queries);
    let want: Vec<SearchResult> = match w.serve {
        None => warm
            .answers
            .iter()
            .map(|a| a.clone().ok_or("a warm-up query failed"))
            .collect::<Result<_, _>>()?,
        Some(_) => canonical_reference(inp, seed)?,
    };
    let (reads, throughput) = read_phase(
        &mut sys,
        &inp.queries,
        &want,
        seconds * READ_SHARE,
        "answer differs from the reference",
        rep,
    );
    rep.metric("query_us_p50", best_of(&reads, |p| p.p50));
    rep.metric("query_us_p95", best_of(&reads, |p| p.p95));
    rep.metric(
        "throughput_ops_s",
        throughput.iter().copied().fold(0.0, f64::max),
    );
    rep.note(tail_note("query", &reads));

    let truth = exact_knn(&inp.base, &first_rows(&inp.queries, w.scored), K);
    let (recall, ratio) = quality(&warm.answers[..w.scored], &truth);
    report_quality(recall, ratio, rep);
    rep.metric(
        "index_bytes_per_point",
        sys.memory_bytes() as f64 / sys.len() as f64,
    );

    // Save and load several times over (each reloaded system saves in
    // turn) and keep the fastest of each: 5 cycles where one takes under a
    // second, otherwise 4 (`dram_large`'s 1.6 s load jitters by a quarter
    // from one call to the next).
    let points = sys.len();
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    let mut sys = loop {
        let (bytes, save_s) = sys.save(&dir)?;
        saves.push(save_s);
        rep.check(bytes > 0, "snapshot is empty");
        if saves.len() == 1 {
            rep.metric("snapshot_bytes_per_point", bytes as f64 / points as f64);
        }
        let refused = sys.tear_down();
        rep.check(
            refused == 0,
            "the system counted failed or refused operations",
        );
        let (reloaded, load_s) = S::load(&dir)?;
        loads.push(load_s);
        rep.check(
            reloaded.len() == points,
            "reloaded system has a different len()",
        );
        let cycles = if saves[0] + loads[0] < 1.0 { 5 } else { 4 };
        if saves.len() >= cycles {
            break reloaded;
        }
        sys = reloaded;
    };
    rep.metric("save_s", fastest(&saves));
    rep.metric("load_s", fastest(&loads));
    rep.note(format!(
        "save_s {saves:?}, load_s {loads:?}: fastest of {} cycles",
        saves.len()
    ));
    // No warm-up here: work a load defers to the first queries must show.
    let (post, _) = read_phase(
        &mut sys,
        &inp.queries,
        &want,
        seconds * POST_LOAD_SHARE,
        "reloaded answer differs from the reference",
        rep,
    );
    rep.metric("post_load_query_us_p50", best_of(&post, |p| p.p50));
    rep.note(format!(
        "post-load: first pass p50 {:.1} us, best of {} passes {:.1} us",
        post[0].p50,
        post.len(),
        best_of(&post, |p| p.p50)
    ));

    // Warm-up: the whole pool once. Insert cost falls steeply while the
    // bulk-loaded (fully packed) leaves split — 780 to 160 us over the
    // first 6 000 inserts on `dram_large` — and only then levels off; the
    // timed passes measure that steady state (`core.index.insert_us` in
    // the traced run measures the packed trees). A fixed number of passes,
    // each over the pool slice the trees have not seen for the longest.
    let warm = sys.write_pass(&inp.pool, 0, inp.pool.len());
    rep.ops(
        2 * inp.pool.len(),
        warm.failed,
        "warm-up insert or remove failed",
    );
    let mut from = 0;
    let writes: Vec<Latencies> = (0..(seconds.round() as usize).max(1))
        .map(|_| {
            from += WRITE_OPS;
            sys.write_pass(&inp.pool, from - WRITE_OPS, WRITE_OPS)
        })
        .collect();
    let mut inserts = Vec::new();
    let mut removes = Vec::new();
    for pass in writes {
        rep.ops(2 * WRITE_OPS, pass.failed, "insert or remove failed");
        inserts.push(summarise(pass.insert_us));
        removes.push(summarise(pass.remove_us));
    }
    rep.metric("insert_us_p50", best_of(&inserts, |p| p.p50));
    rep.metric("remove_us_p50", best_of(&removes, |p| p.p50));
    rep.note(tail_note("insert", &inserts));
    rep.note(tail_note("remove", &removes));
    rep.check(sys.len() == points, "write passes changed the live count");

    let refused = sys.tear_down();
    rep.check(
        refused == 0,
        "the reloaded system counted failed or refused operations",
    );
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

/// What one churn client remembers between passes.
struct ChurnClient {
    log: ChurnLog,
    /// `(id, pool row)` of the client's inserts, in issue order.
    own: Vec<(u32, u32)>,
    /// Every id this client removed: none may reappear in its answers.
    removed: HashSet<u32>,
}

fn churn_ops(
    client: &mut DbLshClient,
    st: &mut ChurnClient,
    ops: &[Op],
    inp: &Inputs,
) -> Latencies {
    let mut pass = Latencies::default();
    let remove = |st: &mut ChurnClient, client: &mut DbLshClient, pass: &mut Latencies, id: u32| {
        let t = Instant::now();
        let r = client.remove(id);
        pass.remove_us.push(us(t));
        pass.failed += usize::from(!matches!(r, Ok(true)));
        st.removed.insert(id);
    };
    for op in ops {
        match *op {
            Op::Knn(q) => {
                let t = Instant::now();
                let r = client.knn(inp.queries.point(q as usize), K);
                pass.knn_us.push(us(t));
                let ok =
                    r.is_ok_and(|res| res.neighbors.iter().all(|n| !st.removed.contains(&n.id)));
                pass.failed += usize::from(!ok);
            }
            Op::Insert(p) => {
                let t = Instant::now();
                let r = client.insert(inp.pool.point(p as usize));
                pass.insert_us.push(us(t));
                pass.failed += usize::from(r.is_err());
                // A failed insert keeps its slot so later ordinals line up;
                // removing the sentinel id then fails too, and is counted.
                st.own.push((r.unwrap_or(u32::MAX), p));
            }
            Op::RemoveOwn(k) => {
                let id = st.own[k as usize].0;
                remove(st, client, &mut pass, id);
            }
            Op::RemoveBase(id) => remove(st, client, &mut pass, id),
        }
    }
    pass
}

/// One churn pass: every client runs its next log concurrently. Returns
/// the per-kind latencies of all clients and the pass's wall time.
fn churn_pass(srv: &mut Srv, states: &mut [ChurnClient], inp: &Inputs) -> (Latencies, f64) {
    let logs: Vec<Vec<Op>> = states.iter_mut().map(|st| st.log.next_pass()).collect();
    let start = Instant::now();
    let per_client = each_concurrently(
        srv.clients.iter_mut().zip(states.iter_mut()).zip(&logs),
        |_, ((client, st), ops)| churn_ops(client, st, ops, inp),
    );
    (Latencies::merged(per_client), secs(start))
}

/// The benchmark's own copy of what must be live: base rows nobody
/// removed plus every client's inserts it has not removed again.
fn shadow_live(states: &[ChurnClient], inp: &Inputs) -> (Vec<u32>, Dataset) {
    let mut ids = Vec::new();
    let mut flat = Vec::new();
    for id in 0..inp.base.len() as u32 {
        if !states.iter().any(|st| st.removed.contains(&id)) {
            ids.push(id);
            flat.extend_from_slice(inp.base.point(id as usize));
        }
    }
    for st in states {
        let (_, own_removed) = st.log.own_counts();
        for &(id, p) in &st.own[own_removed..] {
            ids.push(id);
            flat.extend_from_slice(inp.pool.point(p as usize));
        }
    }
    (ids, Dataset::from_flat(inp.base.dim(), flat))
}

/// All queries through one connection, untimed.
fn answers_over_tcp(srv: &mut Srv, queries: &Dataset) -> Vec<Option<SearchResult>> {
    let client = &mut srv.clients[0];
    (0..queries.len())
        .map(|q| client.knn(queries.point(q), K).ok())
        .collect()
}

/// `serve_churn`: mixed passes, quiesce, checkpoint, a fixed WAL tail,
/// recovery from a byte copy of the flushed directory, post-load reads.
fn run_churn(w: &Workload, inp: &Inputs, seed: u64, seconds: f64, rep: &mut Report) -> Res<()> {
    let dir = scratch_dir(w.name)?;
    let (mut srv, setup_s) = repeated_set_up::<Srv>(w, inp, seed, &dir, rep)?;
    rep.metric("setup_s", setup_s);

    let mut states: Vec<ChurnClient> = (0..CLIENTS)
        .map(|c| ChurnClient {
            log: ChurnLog::new(seed, c, CLIENTS, inp.queries.len(), inp.pool.len()),
            own: Vec::new(),
            removed: HashSet::new(),
        })
        .collect();
    let run_pass = |srv: &mut Srv, states: &mut [ChurnClient], rep: &mut Report| {
        let (pass, wall_s) = churn_pass(srv, states, inp);
        rep.ops(
            pass.ops(),
            pass.failed,
            "churn operation failed or a removed id reappeared",
        );
        let ops_s = pass.ops() as f64 / wall_s;
        (pass, ops_s)
    };

    run_pass(&mut srv, &mut states, rep);
    let start = Instant::now();
    let (mut knn, mut ins, mut rem, mut throughput) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while knn.is_empty() || (secs(start) < seconds * CHURN_SHARE && knn.len() < MAX_CHURN_PASSES) {
        let (pass, ops_s) = run_pass(&mut srv, &mut states, rep);
        knn.push(summarise(pass.knn_us));
        ins.push(summarise(pass.insert_us));
        rem.push(summarise(pass.remove_us));
        throughput.push(ops_s);
    }
    rep.metric("query_us_p50", best_of(&knn, |p| p.p50));
    rep.metric("query_us_p95", best_of(&knn, |p| p.p95));
    rep.metric(
        "throughput_ops_s",
        throughput.iter().copied().fold(0.0, f64::max),
    );
    rep.metric("insert_us_p50", best_of(&ins, |p| p.p50));
    rep.metric("remove_us_p50", best_of(&rem, |p| p.p50));
    rep.note(tail_note("knn", &knn));
    rep.note(tail_note("insert", &ins));
    rep.note(tail_note("remove", &rem));

    // Quiesced: closed-loop clients have joined, nothing is in flight.
    srv.fleet().check_invariants();
    rep.note(format!(
        "churn: {} compactions, {} dead rows at quiesce",
        srv.fleet().compaction_count(),
        srv.fleet().dead_rows()
    ));
    // Where in its compaction cycle each shard stands is a matter of
    // timing; the footprint is taken with every dead row reclaimed.
    srv.fleet().compact().map_err(err)?;
    rep.metric(
        "index_bytes_per_point",
        srv.fleet().memory_bytes() as f64 / srv.fleet().len() as f64,
    );

    // Checkpoint into the WAL's own directory (this truncates the logs),
    // then one more pass, so that recovery always replays exactly one
    // pass of records however many timed passes the budget allowed.
    let wal_dir = dir.join("wal");
    let saves = (0..SMALL_CYCLES)
        .map(|_| {
            let t = Instant::now();
            srv.fleet().save_dir(&wal_dir).map_err(err)?;
            Ok(secs(t))
        })
        .collect::<Res<Vec<f64>>>()?;
    rep.metric("save_s", fastest(&saves));
    rep.metric(
        "snapshot_bytes_per_point",
        dir_bytes(&wal_dir)? as f64 / srv.fleet().len() as f64,
    );
    run_pass(&mut srv, &mut states, rep);
    srv.fleet().check_invariants();
    srv.fleet().sync_wal().map_err(err)?;

    let (live_ids, live_rows) = shadow_live(&states, inp);
    rep.check(
        srv.fleet().len() == live_ids.len(),
        "live count differs from the shadow copy",
    );
    let live_answers = answers_over_tcp(&mut srv, &inp.queries);
    let truth: Vec<Vec<Neighbor>> = exact_knn(&live_rows, &first_rows(&inp.queries, w.scored), K)
        .into_iter()
        .map(|t| {
            t.into_iter()
                .map(|n| Neighbor {
                    id: live_ids[n.id as usize],
                    dist: n.dist,
                })
                .collect()
        })
        .collect();
    let (recall, ratio) = quality(&live_answers[..w.scored], &truth);
    report_quality(recall, ratio, rep);
    let want: Vec<SearchResult> = live_answers
        .into_iter()
        .map(|a| a.ok_or("a query against the quiesced fleet failed"))
        .collect::<Result<_, _>>()?;

    // Durability: recover from a byte copy of the flushed directory —
    // files only, no state shared with the live process.
    let copy = dir.join("recovered");
    copy_dir(&wal_dir, &copy)?;
    let refused = srv.tear_down();
    rep.check(
        refused == 0,
        "the system counted failed or refused operations",
    );
    let mut loads = Vec::new();
    let recovered = loop {
        let t = Instant::now();
        let recovered = ShardedDbLsh::load_dir(&copy).map_err(err)?;
        loads.push(secs(t));
        rep.check(
            recovered.len() == live_ids.len(),
            "recovered fleet has a different len()",
        );
        if loads.len() == SMALL_CYCLES {
            break recovered;
        }
    };
    rep.metric("load_s", fastest(&loads));
    rep.note(format!(
        "save_s {saves:?}, load_s {loads:?}: fastest of {SMALL_CYCLES}"
    ));
    recovered.check_invariants();
    let mut srv = Srv::serve(recovered)?;
    let (post, _) = read_phase(
        &mut srv,
        &inp.queries,
        &want,
        seconds * POST_LOAD_SHARE,
        "recovered answer differs from the live one",
        rep,
    );
    rep.metric("post_load_query_us_p50", best_of(&post, |p| p.p50));
    let refused = srv.tear_down();
    rep.check(
        refused == 0,
        "the recovered system counted failed or refused operations",
    );
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

/// Run one workload untraced and report every end-to-end metric.
pub fn run(w: &Workload, inp: &Inputs, seed: u64, seconds: f64) -> Res<Report> {
    let mut rep = Report::default();
    match w.serve {
        None => run_static::<Lib>(w, inp, seed, seconds, &mut rep)?,
        Some(Serve::Read) => run_static::<Srv>(w, inp, seed, seconds, &mut rep)?,
        Some(Serve::Churn) => run_churn(w, inp, seed, seconds, &mut rep)?,
    }
    Ok(rep)
}
