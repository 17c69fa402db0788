//! Write-ahead log container — the durability half of the snapshot
//! story. A snapshot (see [`crate::io`]) is a checkpoint; the WAL is
//! the ordered stream of mutations applied *after* that checkpoint.
//! Recovery is `load snapshot + replay WAL`, and a successful new
//! checkpoint truncates the log.
//!
//! # WAL file format
//!
//! The layout reuses the snapshot container idioms (little-endian
//! primitives, CRC-32 framing, typed errors), documented next to the
//! snapshot format on purpose — the two files are read by the same
//! recovery path:
//!
//! ```text
//! magic    8 bytes  "DBLSHWAL"
//! version  u32 LE   WAL format version (currently 1)
//! kind     4 bytes  what the records describe (e.g. "SWAL" for a
//!                   fleet shard's op log)
//! records  any number of:
//!   len    u32 LE   payload byte count
//!   crc32  u32 LE   CRC-32 (IEEE 802.3) over the payload
//!   payload len bytes, schema owned by the appender
//! ```
//!
//! # Torn-tail tolerance
//!
//! Appends are acknowledged only after the whole record reached the
//! OS, so a crash can leave **at most a prefix of the final record**
//! on disk. [`replay_wal`] therefore treats *end-of-file inside the
//! last record* as a torn tail: the partial record is dropped (it was
//! never acknowledged) and `torn` is reported so the caller can
//! physically truncate back to [`WalReplay::valid_len`]. Everything
//! else — a short header, a CRC mismatch (bit flip) on any *complete*
//! record, an implausible length with all four length bytes present —
//! is a typed [`DbLshError::CorruptSnapshot`], exactly like the
//! snapshot reader: recovery never invents state from damaged bytes.
//!
//! # Fault injection
//!
//! [`WriteFaultPlan`] + [`FaultyWriter`] inject deterministic, seeded
//! I/O faults (spurious [`io::ErrorKind::Interrupted`], short writes,
//! a hard failure after N bytes) underneath any writer. [`WalFile`]
//! accepts a plan directly so torture harnesses can prove that an
//! interrupted append either completes (interrupts/short writes are
//! retried) or rolls the file back to the last committed record.

use std::fs::OpenOptions;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::DbLshError;
use crate::io::crc32;

/// Magic bytes opening every WAL stream.
pub const WAL_MAGIC: [u8; 8] = *b"DBLSHWAL";

/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;

/// Byte length of the fixed WAL header (magic + version + kind).
pub const WAL_HEADER_LEN: u64 = 16;

/// Upper bound on a single record payload. A length field above this
/// with all four bytes present cannot be a torn tail — it is corruption.
pub const MAX_WAL_RECORD: u32 = 1 << 30;

fn wal_header(kind: [u8; 4]) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[12..].copy_from_slice(&kind);
    h
}

/// Frame one record (`len | crc32 | payload`) for appending. Refuses
/// payloads over [`MAX_WAL_RECORD`] with a typed error.
pub fn encode_wal_record(payload: &[u8]) -> Result<Vec<u8>, DbLshError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_WAL_RECORD)
        .ok_or_else(|| {
            DbLshError::invalid(
                "wal_record",
                format!(
                    "record payload of {} bytes exceeds the {MAX_WAL_RECORD}-byte cap",
                    payload.len()
                ),
            )
        })?;
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&len.to_le_bytes());
    rec.extend_from_slice(&crc32(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    Ok(rec)
}

/// Outcome of [`replay_wal`]: the complete records, whether a torn
/// final record was dropped, and the byte length of the valid prefix.
#[derive(Debug)]
pub struct WalReplay {
    /// Payloads of every complete, checksum-verified record, in append
    /// order.
    pub records: Vec<Vec<u8>>,
    /// Whether the stream ended inside a record (half-written final
    /// append, dropped — it was never acknowledged).
    pub torn: bool,
    /// Byte length of the valid prefix (header + complete records).
    /// Callers owning the underlying file should `set_len` to this
    /// before appending again.
    pub valid_len: u64,
}

/// Replay a WAL stream of the expected `kind`. See the module docs for
/// which damage is tolerated (EOF inside the final record) and which is
/// a typed [`DbLshError::CorruptSnapshot`] (everything else).
pub fn replay_wal<R: Read>(reader: R, kind: [u8; 4]) -> Result<WalReplay, DbLshError> {
    let mut r = BufReader::new(reader);
    let mut header = [0u8; 16];
    r.read_exact(&mut header).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            DbLshError::corrupt("stream ends inside the WAL header")
        } else {
            DbLshError::io("read", e)
        }
    })?;
    if header[..8] != WAL_MAGIC {
        return Err(DbLshError::corrupt("not a DB-LSH WAL (bad magic)"));
    }
    let mut version_bytes = [0u8; 4];
    version_bytes.copy_from_slice(&header[8..12]);
    let version = u32::from_le_bytes(version_bytes);
    if version == 0 || version > WAL_VERSION {
        return Err(DbLshError::corrupt(format!(
            "unsupported WAL version {version} (this build reads up to {WAL_VERSION})"
        )));
    }
    if header[12..] != kind {
        return Err(DbLshError::corrupt(format!(
            "WAL kind mismatch: expected {:?}, found {:?}",
            String::from_utf8_lossy(&kind),
            String::from_utf8_lossy(&header[12..]),
        )));
    }

    let mut records: Vec<Vec<u8>> = Vec::new();
    let mut valid_len = WAL_HEADER_LEN;
    let mut torn = false;
    // Read a fixed-size field; Ok(false) = EOF before any byte (clean
    // boundary if `at_boundary`, torn otherwise), Ok(true) = complete.
    // EOF mid-field is always a torn tail.
    fn read_field<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<Option<bool>, DbLshError> {
        match r.read_exact(&mut buf[..1]) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(Some(false)),
            Err(e) => return Err(DbLshError::io("read", e)),
        }
        match r.read_exact(&mut buf[1..]) {
            Ok(()) => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(Some(true)),
            Err(e) => Err(DbLshError::io("read", e)),
        }
    }
    loop {
        let mut word = [0u8; 4];
        match read_field(&mut r, &mut word)? {
            Some(false) => break, // clean EOF at a record boundary
            Some(true) => {
                torn = true;
                break;
            }
            None => {}
        }
        let len = u32::from_le_bytes(word);
        if len > MAX_WAL_RECORD {
            // All four length bytes are present, so this is not a torn
            // prefix — it is a bit flip or schema damage.
            return Err(DbLshError::corrupt(format!(
                "WAL record {} claims an implausible length {len}",
                records.len()
            )));
        }
        if read_field(&mut r, &mut word)?.is_some() {
            torn = true;
            break;
        }
        let crc = u32::from_le_bytes(word);
        let mut payload = Vec::new();
        r.by_ref()
            .take(len as u64)
            .read_to_end(&mut payload)
            .map_err(|e| DbLshError::io("read", e))?;
        if payload.len() as u64 != len as u64 {
            torn = true;
            break;
        }
        if crc32(&payload) != crc {
            return Err(DbLshError::corrupt(format!(
                "checksum mismatch in WAL record {}",
                records.len()
            )));
        }
        valid_len += 8 + len as u64;
        records.push(payload);
    }
    Ok(WalReplay {
        records,
        torn,
        valid_len,
    })
}

/// Append-only WAL over any byte sink — the in-memory / test-harness
/// counterpart of [`WalFile`]. A failed append may leave a torn record
/// in the stream (there is no seek to roll back); replaying such a
/// stream drops the tail, exactly as a crashed process would.
#[derive(Debug)]
pub struct WalWriter<W: Write> {
    w: W,
}

impl<W: Write> WalWriter<W> {
    /// Open a fresh WAL stream of the given `kind` (writes the header).
    pub fn new(mut w: W, kind: [u8; 4]) -> Result<Self, DbLshError> {
        w.write_all(&wal_header(kind))
            .map_err(|e| DbLshError::io("write", e))?;
        Ok(WalWriter { w })
    }

    /// Append one record.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DbLshError> {
        let rec = encode_wal_record(payload)?;
        self.w
            .write_all(&rec)
            .map_err(|e| DbLshError::io("write", e))
    }

    /// Recover the underlying sink.
    pub fn into_inner(self) -> W {
        self.w
    }
}

/// File-backed WAL with rollback: a failed append truncates the file
/// back to the last committed record, so the log on disk is *always*
/// a clean prefix of acknowledged records (plus, after a crash, at
/// most one torn tail that [`WalFile::open`] removes).
#[derive(Debug)]
pub struct WalFile {
    file: std::fs::File,
    path: PathBuf,
    kind: [u8; 4],
    len: u64,
    records: u64,
    poisoned: bool,
    faults: Option<WriteFaultPlan>,
}

impl WalFile {
    /// Create (or truncate to empty) the WAL at `path` and fsync the
    /// fresh header, so a log that a manifest later claims exists is
    /// never half-created.
    pub fn create<P: AsRef<Path>>(path: P, kind: [u8; 4]) -> Result<Self, DbLshError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| DbLshError::io("create", e))?;
        file.write_all(&wal_header(kind))
            .map_err(|e| DbLshError::io("write", e))?;
        file.sync_all().map_err(|e| DbLshError::io("fsync", e))?;
        crate::io::sync_parent_dir(&path)?;
        Ok(WalFile {
            file,
            path,
            kind,
            len: WAL_HEADER_LEN,
            records: 0,
            poisoned: false,
            faults: None,
        })
    }

    /// Open an existing WAL, replay it, and physically truncate any
    /// torn tail so subsequent appends extend a clean prefix. Returns
    /// the file handle positioned for appending plus the replayed
    /// records.
    pub fn open<P: AsRef<Path>>(path: P, kind: [u8; 4]) -> Result<(Self, WalReplay), DbLshError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| DbLshError::io("open", e))?;
        let replay = replay_wal(&mut file, kind)?;
        let disk_len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| DbLshError::io("seek", e))?;
        if disk_len != replay.valid_len {
            file.set_len(replay.valid_len)
                .map_err(|e| DbLshError::io("truncate", e))?;
        }
        file.seek(SeekFrom::Start(replay.valid_len))
            .map_err(|e| DbLshError::io("seek", e))?;
        let wal = WalFile {
            file,
            path,
            kind,
            len: replay.valid_len,
            records: replay.records.len() as u64,
            poisoned: false,
            faults: None,
        };
        Ok((wal, replay))
    }

    /// Append one record. On failure the file is rolled back to the
    /// last committed record; if even the rollback fails the log is
    /// poisoned and every further append reports it.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DbLshError> {
        if self.poisoned {
            return Err(DbLshError::corrupt(
                "WAL is poisoned: an earlier failed append could not be rolled back",
            ));
        }
        let rec = encode_wal_record(payload)?;
        let wrote = match self.faults.as_mut() {
            None => self
                .file
                .write_all(&rec)
                .map_err(|e| DbLshError::io("write", e)),
            Some(plan) => {
                write_all_faulty(&mut self.file, plan, &rec).map_err(|e| DbLshError::io("write", e))
            }
        };
        match wrote {
            Ok(()) => {
                self.len += rec.len() as u64;
                self.records += 1;
                Ok(())
            }
            Err(e) => {
                let rolled_back = self.file.set_len(self.len).is_ok()
                    && self.file.seek(SeekFrom::Start(self.len)).is_ok();
                if !rolled_back {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// fsync the log — the power-loss durability point. Appends alone
    /// reach the OS (process-crash durable) but not necessarily the
    /// disk.
    pub fn sync(&self) -> Result<(), DbLshError> {
        self.file
            .sync_data()
            .map_err(|e| DbLshError::io("fsync", e))
    }

    /// Drop every record (after a successful checkpoint made them
    /// redundant), leaving just the header.
    pub fn truncate(&mut self) -> Result<(), DbLshError> {
        self.file
            .set_len(WAL_HEADER_LEN)
            .map_err(|e| DbLshError::io("truncate", e))?;
        self.file
            .seek(SeekFrom::Start(WAL_HEADER_LEN))
            .map_err(|e| DbLshError::io("seek", e))?;
        self.file
            .sync_all()
            .map_err(|e| DbLshError::io("fsync", e))?;
        self.len = WAL_HEADER_LEN;
        self.records = 0;
        self.poisoned = false;
        Ok(())
    }

    /// Committed byte length (header + complete records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of committed records.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// The 4-byte kind tag this log was created with.
    pub fn kind(&self) -> [u8; 4] {
        self.kind
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a failed rollback has poisoned the log.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Install (or clear) a deterministic I/O fault plan applied to
    /// every subsequent append — the torture-harness hook.
    pub fn set_faults(&mut self, faults: Option<WriteFaultPlan>) {
        self.faults = faults;
    }
}

/// Deterministic, seeded schedule of write faults: spurious
/// [`io::ErrorKind::Interrupted`] results, short writes, and an
/// optional hard failure once a byte budget is exhausted. The same
/// seed replays the same fault sequence.
#[derive(Debug, Clone)]
pub struct WriteFaultPlan {
    state: u64,
    interrupt_prob: f64,
    short_prob: f64,
    fail_after: Option<u64>,
    written: u64,
}

impl WriteFaultPlan {
    /// A plan that injects nothing until configured.
    pub fn new(seed: u64) -> Self {
        WriteFaultPlan {
            state: seed,
            interrupt_prob: 0.0,
            short_prob: 0.0,
            fail_after: None,
            written: 0,
        }
    }

    /// Each write call returns `ErrorKind::Interrupted` with
    /// probability `p` (before touching the sink).
    pub fn with_interrupts(mut self, p: f64) -> Self {
        self.interrupt_prob = p;
        self
    }

    /// Each write call accepts only half its buffer with probability
    /// `p` (a short write the caller must loop over).
    pub fn with_short_writes(mut self, p: f64) -> Self {
        self.short_prob = p;
        self
    }

    /// After `n` bytes have passed through, every further write fails
    /// hard with [`io::ErrorKind::Other`] — the "disk died mid-append"
    /// case. Bytes up to the budget still land, so a record can be
    /// physically torn.
    pub fn with_hard_fail_after(mut self, n: u64) -> Self {
        self.fail_after = Some(n);
        self
    }

    /// Total bytes the plan has let through.
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64 — the workspace-standard seedable generator.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// One faulted write attempt against `inner` — shared by
/// [`FaultyWriter`] and [`WalFile`]'s internal retry loop.
fn apply_fault<W: Write>(
    plan: &mut WriteFaultPlan,
    inner: &mut W,
    buf: &[u8],
) -> io::Result<usize> {
    if let Some(budget) = plan.fail_after {
        if plan.written >= budget {
            return Err(io::Error::other("injected write failure (fault plan)"));
        }
        let allowed = (budget - plan.written).min(buf.len() as u64) as usize;
        if allowed < buf.len() {
            // Let the allowed prefix land (tearing the record), then
            // fail on the next call.
            let n = inner.write(&buf[..allowed])?;
            plan.written += n as u64;
            return Ok(n);
        }
    }
    if plan.chance(plan.interrupt_prob) {
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "injected interrupt (fault plan)",
        ));
    }
    let take = if plan.chance(plan.short_prob) && buf.len() > 1 {
        buf.len() / 2
    } else {
        buf.len()
    };
    let n = inner.write(&buf[..take])?;
    plan.written += n as u64;
    Ok(n)
}

/// `write_all` through a fault plan: retries injected interrupts and
/// loops over short writes (the contract `std::io::Write::write_all`
/// provides), surfacing only hard failures.
pub fn write_all_faulty<W: Write>(
    inner: &mut W,
    plan: &mut WriteFaultPlan,
    mut buf: &[u8],
) -> io::Result<()> {
    while !buf.is_empty() {
        match apply_fault(plan, inner, buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "sink accepted no bytes",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A [`Write`] adapter injecting the faults of a [`WriteFaultPlan`]
/// into any sink — wrap a `Vec<u8>`, a file, or a socket half to prove
/// a writer's retry discipline.
#[derive(Debug)]
pub struct FaultyWriter<W: Write> {
    inner: W,
    plan: WriteFaultPlan,
}

impl<W: Write> FaultyWriter<W> {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: W, plan: WriteFaultPlan) -> Self {
        FaultyWriter { inner, plan }
    }

    /// Recover the sink.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// The plan's current state (e.g. to read `bytes_written`).
    pub fn plan(&self) -> &WriteFaultPlan {
        &self.plan
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        apply_fault(&mut self.plan, &mut self.inner, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIND: [u8; 4] = *b"TWAL";

    fn sample_records() -> Vec<Vec<u8>> {
        vec![
            b"first record".to_vec(),
            Vec::new(),
            vec![0xAB; 100],
            b"tail".to_vec(),
        ]
    }

    fn sample_stream() -> Vec<u8> {
        let mut w = WalWriter::new(Vec::new(), KIND).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.into_inner()
    }

    #[test]
    fn wal_round_trips_in_memory() {
        let bytes = sample_stream();
        let replay = replay_wal(&bytes[..], KIND).unwrap();
        assert_eq!(replay.records, sample_records());
        assert!(!replay.torn);
        assert_eq!(replay.valid_len, bytes.len() as u64);
    }

    #[test]
    fn wal_header_mismatches_rejected() {
        let bytes = sample_stream();
        // wrong kind
        assert!(matches!(
            replay_wal(&bytes[..], *b"OTHR"),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // bad magic
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(replay_wal(&bad[..], KIND).is_err());
        // future version
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&(WAL_VERSION + 1).to_le_bytes());
        let err = replay_wal(&bad[..], KIND).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn wal_truncation_at_every_byte_yields_a_clean_prefix() {
        let bytes = sample_stream();
        let originals = sample_records();
        // Record boundaries for cross-checking which cuts are clean.
        let mut boundaries = vec![WAL_HEADER_LEN as usize];
        for r in &originals {
            boundaries.push(boundaries.last().unwrap() + 8 + r.len());
        }
        for cut in 0..=bytes.len() {
            let res = replay_wal(&bytes[..cut], KIND);
            if cut < WAL_HEADER_LEN as usize {
                assert!(
                    matches!(res, Err(DbLshError::CorruptSnapshot { .. })),
                    "cut at {cut} inside the header must be corrupt"
                );
                continue;
            }
            let replay = res.unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            // The survivors must be exactly the records whose frames
            // fit entirely below the cut.
            let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.records.len(), expect, "cut at {cut}");
            assert_eq!(&replay.records[..], &originals[..expect], "cut at {cut}");
            assert_eq!(replay.torn, !boundaries.contains(&cut), "cut at {cut}");
            assert_eq!(replay.valid_len as usize, boundaries[expect]);
        }
    }

    #[test]
    fn wal_bit_flips_never_surface_wrong_records() {
        let bytes = sample_stream();
        let originals = sample_records();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            match replay_wal(&bad[..], KIND) {
                // Typed corruption — the usual outcome.
                Err(DbLshError::CorruptSnapshot { .. }) => {}
                Err(other) => panic!("flip at {pos}: unexpected error {other:?}"),
                // A flip in a length field can mimic a torn tail (the
                // stream "ends inside" the inflated record). That drops
                // records but must never *alter* one: whatever survives
                // must be a strict prefix of the originals.
                Ok(replay) => {
                    assert!(
                        replay.torn && replay.records.len() < originals.len(),
                        "flip at {pos} went fully undetected"
                    );
                    assert_eq!(
                        &replay.records[..],
                        &originals[..replay.records.len()],
                        "flip at {pos} altered a surviving record"
                    );
                }
            }
        }
    }

    #[test]
    fn wal_file_append_open_truncate_cycle() {
        let dir = std::env::temp_dir().join(format!("dblsh-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle.wal");
        {
            let mut wal = WalFile::create(&path, KIND).unwrap();
            assert!(wal.is_empty());
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            assert_eq!(wal.record_count(), 4);
            wal.sync().unwrap();
        }
        // Reopen: full replay, then append more.
        let (mut wal, replay) = WalFile::open(&path, KIND).unwrap();
        assert_eq!(replay.records, sample_records());
        assert!(!replay.torn);
        wal.append(b"fifth").unwrap();
        assert_eq!(wal.record_count(), 5);
        drop(wal);
        let (mut wal, replay) = WalFile::open(&path, KIND).unwrap();
        assert_eq!(replay.records.len(), 5);
        // Checkpoint: truncate drops everything but the header.
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.len(), WAL_HEADER_LEN);
        wal.append(b"post-checkpoint").unwrap();
        drop(wal);
        let (_, replay) = WalFile::open(&path, KIND).unwrap();
        assert_eq!(replay.records, vec![b"post-checkpoint".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_file_open_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("dblsh-wal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let mut wal = WalFile::create(&path, KIND).unwrap();
        wal.append(b"committed").unwrap();
        let committed = wal.len();
        drop(wal);
        // Simulate a crash mid-append: a torn half-record at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn = encode_wal_record(b"never acknowledged").unwrap();
        bytes.extend_from_slice(&torn[..torn.len() - 5]);
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, replay) = WalFile::open(&path, KIND).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.records, vec![b"committed".to_vec()]);
        assert_eq!(replay.valid_len, committed);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        // The log is clean again: appends extend the valid prefix.
        wal.append(b"after recovery").unwrap();
        drop(wal);
        let (_, replay) = WalFile::open(&path, KIND).unwrap();
        assert!(!replay.torn);
        assert_eq!(
            replay.records,
            vec![b"committed".to_vec(), b"after recovery".to_vec()]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupts_and_short_writes_are_absorbed() {
        // A hostile sink: every write call has a coin-flip chance of a
        // spurious interrupt and of accepting only half the buffer.
        // WalWriter::append goes through write_all, which must retry
        // both — the stream must come out byte-identical.
        let plan = WriteFaultPlan::new(42)
            .with_interrupts(0.5)
            .with_short_writes(0.5);
        let mut w = WalWriter::new(FaultyWriter::new(Vec::new(), plan), KIND).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let bytes = w.into_inner().into_inner();
        assert_eq!(bytes, sample_stream());
    }

    #[test]
    fn hard_write_failure_rolls_the_file_back() {
        let dir = std::env::temp_dir().join(format!("dblsh-wal-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fail.wal");
        let mut wal = WalFile::create(&path, KIND).unwrap();
        wal.append(b"durable").unwrap();
        let committed = wal.len();
        // Fail 3 bytes into the next record: a torn frame lands, the
        // append reports Io, and the rollback removes the torn bytes.
        wal.set_faults(Some(WriteFaultPlan::new(7).with_hard_fail_after(3)));
        let err = wal.append(b"lost to the fault").unwrap_err();
        assert!(matches!(err, DbLshError::Io { .. }), "{err:?}");
        assert!(!wal.is_poisoned());
        assert_eq!(wal.len(), committed);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        // Clearing the faults, the log keeps working.
        wal.set_faults(None);
        wal.append(b"recovered").unwrap();
        drop(wal);
        let (_, replay) = WalFile::open(&path, KIND).unwrap();
        assert!(!replay.torn);
        assert_eq!(
            replay.records,
            vec![b"durable".to_vec(), b"recovered".to_vec()]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_record_refused_before_touching_the_log() {
        assert!(matches!(
            encode_wal_record(&vec![0u8; MAX_WAL_RECORD as usize + 1]),
            Err(DbLshError::InvalidParameter { .. })
        ));
    }
}
