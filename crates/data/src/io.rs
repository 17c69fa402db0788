//! fvecs / ivecs readers and writers (the TEXMEX corpus format used by
//! SIFT/GIST and by the paper's datasets), plus the versioned binary
//! snapshot container every persistent index in this workspace writes
//! ([`SnapshotWriter`] / [`SnapshotReader`]).
//!
//! Layout per vector: a little-endian `i32` dimension header followed by
//! `dim` little-endian payload values (`f32` for fvecs, `i32` for ivecs).
//!
//! # Snapshot container format
//!
//! A snapshot is a tagged, checksummed section file:
//!
//! ```text
//! magic    8 bytes  "DBLSHSNP"
//! version  u32 LE   container format version (currently 1)
//! kind     4 bytes  what the sections describe (e.g. "INDX" for a
//!                   DbLsh index, "SHRD" for a sharded-fleet manifest)
//! count    u32 LE   number of sections
//! table    count x { tag: 4 bytes, len: u64 LE, crc32: u32 LE }
//! hdrcrc   u32 LE   CRC-32 over everything above (magic..table)
//! payload  the section bodies, back to back, in table order
//! ```
//!
//! Every primitive is little-endian. Readers are strict in the same way
//! the fvecs dimension-header reader is: a stream that ends inside the
//! header, the table, or a section body, a checksum mismatch, an
//! unsupported version, a wrong `kind`, or trailing bytes after the last
//! section all yield a typed [`DbLshError`] ([`DbLshError::CorruptSnapshot`]
//! / [`DbLshError::Io`]) — never a panic and never a silently truncated
//! index. Unknown *section tags* are preserved and ignored, which is the
//! forward-compatibility escape hatch: a newer writer may add sections
//! that an older reader skips.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::OnceLock;

use crate::dataset::Dataset;
use crate::error::DbLshError;

/// Read the next `i32` dimension header, distinguishing a clean end of
/// stream (`Ok(None)`) from a header truncated mid-way (`InvalidData`).
fn read_dim_header<R: Read>(r: &mut R) -> io::Result<Option<i32>> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    match r.read_exact(&mut header[1..]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream ends inside a vector dimension header",
            ));
        }
        Err(e) => return Err(e),
    }
    Ok(Some(i32::from_le_bytes(header)))
}

/// Read an entire fvecs stream into a [`Dataset`].
pub fn read_fvecs<R: Read>(reader: R) -> io::Result<Dataset> {
    let mut r = BufReader::new(reader);
    let mut dim: Option<usize> = None;
    let mut data: Vec<f32> = Vec::new();
    let mut buf: Vec<u8> = Vec::new(); // one payload buffer for the whole stream
    while let Some(d) = read_dim_header(&mut r)? {
        if d <= 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("non-positive vector dimension {d}"),
            ));
        }
        let d = d as usize;
        match dim {
            None => dim = Some(d),
            Some(existing) if existing != d => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("inconsistent dimensions: {existing} then {d}"),
                ));
            }
            _ => {}
        }
        buf.resize(d * 4, 0);
        r.read_exact(&mut buf)?;
        data.extend(
            buf.chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
    }
    let dim = dim.unwrap_or(1);
    if data.iter().any(|v| !v.is_finite()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "non-finite value in fvecs stream",
        ));
    }
    Ok(Dataset::from_flat(dim, data))
}

/// Write a [`Dataset`] as fvecs.
pub fn write_fvecs<W: Write>(writer: W, data: &Dataset) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let dim = data.dim() as i32;
    for i in 0..data.len() {
        w.write_all(&dim.to_le_bytes())?;
        for &v in data.point(i) {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Read an ivecs stream (e.g. ground-truth neighbor id lists).
pub fn read_ivecs<R: Read>(reader: R) -> io::Result<Vec<Vec<i32>>> {
    let mut r = BufReader::new(reader);
    let mut out = Vec::new();
    let mut buf: Vec<u8> = Vec::new(); // one payload buffer for the whole stream
    while let Some(d) = read_dim_header(&mut r)? {
        if d < 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("negative vector dimension {d}"),
            ));
        }
        buf.resize(d as usize * 4, 0);
        r.read_exact(&mut buf)?;
        out.push(
            buf.chunks_exact(4)
                .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect(),
        );
    }
    Ok(out)
}

/// Write id lists as ivecs.
pub fn write_ivecs<W: Write>(writer: W, rows: &[Vec<i32>]) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for row in rows {
        w.write_all(&(row.len() as i32).to_le_bytes())?;
        for &v in row {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Read a bvecs stream (`u8` payload — SIFT100M's native format) into a
/// [`Dataset`], widening each byte to `f32`.
///
/// Layout per vector: a little-endian `i32` dimension header followed by
/// `dim` raw `u8` values. Byte datasets are consumed as floats by every
/// algorithm in this workspace, so the reader widens on ingest; use
/// [`write_bvecs`] to go back (it validates that every coordinate is an
/// integer in `0..=255`).
pub fn read_bvecs<R: Read>(reader: R) -> io::Result<Dataset> {
    let mut r = BufReader::new(reader);
    let mut dim: Option<usize> = None;
    let mut data: Vec<f32> = Vec::new();
    let mut buf: Vec<u8> = Vec::new(); // one payload buffer for the whole stream
    while let Some(d) = read_dim_header(&mut r)? {
        if d <= 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("non-positive vector dimension {d}"),
            ));
        }
        let d = d as usize;
        match dim {
            None => dim = Some(d),
            Some(existing) if existing != d => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("inconsistent dimensions: {existing} then {d}"),
                ));
            }
            _ => {}
        }
        buf.resize(d, 0);
        r.read_exact(&mut buf)?;
        data.extend(buf.iter().map(|&b| b as f32));
    }
    Ok(Dataset::from_flat(dim.unwrap_or(1), data))
}

/// Write a [`Dataset`] as bvecs (`u8` payload). Fails with
/// [`io::ErrorKind::InvalidData`] if any coordinate is not an integer in
/// `0..=255` — bvecs cannot represent it.
pub fn write_bvecs<W: Write>(writer: W, data: &Dataset) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let dim = data.dim() as i32;
    for i in 0..data.len() {
        w.write_all(&dim.to_le_bytes())?;
        for &v in data.point(i) {
            if !(0.0..=255.0).contains(&v) || v.fract() != 0.0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("coordinate {v} is not representable as u8"),
                ));
            }
            w.write_all(&[v as u8])?;
        }
    }
    w.flush()
}

/// Magic bytes opening every snapshot stream.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DBLSHSNP";

/// Current snapshot container format version. Bumped only on layout
/// changes a [`SnapshotReader`] of this version cannot parse; new
/// *sections* do not bump it (unknown tags are ignored on read).
pub const SNAPSHOT_VERSION: u32 = 1;

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes` — the one
/// checksum every framed byte stream in this workspace uses (snapshot
/// sections here, wire-protocol frames in `dblsh-net`).
///
/// Slicing-by-8: eight input bytes are folded per step through eight
/// 256-entry tables (`t[j][b]` = the CRC of byte `b` followed by `j` zero
/// bytes), so the loop-carried dependency is one table round per 8 bytes
/// instead of per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    crc32_bytewise(c, words.remainder(), &t[0])
}

/// The reflected-polynomial (`0xEDB88320`) tables of [`crc32`]; `[0]` is
/// the classic byte-at-a-time table.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for j in 1..8 {
            for i in 0..256 {
                let prev = t[j - 1][i];
                t[j][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// One table round per byte from the running (pre-inverted) state `c`;
/// returns the finished sum. The tail of [`crc32`] and, from a fresh
/// state, the reference its tests compare against.
fn crc32_bytewise(mut c: u32, bytes: &[u8], table: &[u32; 256]) -> u32 {
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Write one length-prefixed frame: a little-endian `u32` byte count
/// followed by `body`. Refuses (typed, [`DbLshError::InvalidParameter`])
/// to emit a frame larger than `max_len` — the writer-side twin of the
/// bound [`read_len_frame`] enforces before trusting a peer's prefix.
pub fn write_len_frame<W: Write>(w: &mut W, body: &[u8], max_len: u32) -> Result<(), DbLshError> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= max_len)
        .ok_or_else(|| {
            DbLshError::invalid(
                "frame",
                format!(
                    "frame body of {} bytes exceeds the {max_len}-byte cap",
                    body.len()
                ),
            )
        })?;
    w.write_all(&len.to_le_bytes())
        .and_then(|()| w.write_all(body))
        .map_err(|e| DbLshError::io("write", e))
}

/// Read one length-prefixed frame written by [`write_len_frame`].
/// Returns `Ok(None)` on a clean end of stream at a frame boundary.
///
/// The length prefix is validated against `max_len` **before any
/// allocation**, so a malicious or bit-flipped prefix cannot trigger an
/// absurd up-front allocation; within the cap the body is read
/// incrementally (`take` + `read_to_end`), so a lying prefix over a
/// short stream fails with a typed truncation error rather than
/// over-reserving.
pub fn read_len_frame<R: Read>(r: &mut R, max_len: u32) -> Result<Option<Vec<u8>>, DbLshError> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(DbLshError::io("read", e)),
    }
    r.read_exact(&mut prefix[1..]).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            DbLshError::corrupt("stream ends inside a frame length prefix")
        } else {
            DbLshError::io("read", e)
        }
    })?;
    let len = u32::from_le_bytes(prefix);
    if len > max_len {
        return Err(DbLshError::corrupt(format!(
            "frame length {len} exceeds the {max_len}-byte cap"
        )));
    }
    let mut body = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut body)
        .map_err(|e| DbLshError::io("read", e))?;
    if body.len() as u64 != len as u64 {
        return Err(DbLshError::corrupt(format!(
            "stream ends inside a frame ({} of {len} bytes)",
            body.len()
        )));
    }
    Ok(Some(body))
}

/// An in-progress snapshot section: a growable little-endian byte buffer
/// with typed appenders. Handed to [`SnapshotWriter::section`] once
/// filled.
#[derive(Debug, Default)]
pub struct SectionBuf {
    bytes: Vec<u8>,
}

impl SectionBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        SectionBuf::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian IEEE-754 `f32` (bit-exact).
    pub fn put_f32(&mut self, v: f32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes (the caller's schema carries the length).
    pub fn put_bytes(&mut self, vs: &[u8]) {
        self.bytes.extend_from_slice(vs);
    }

    /// Append a `u32` slice (values only — lengths are the caller's
    /// schema, carried in its own fields).
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.bytes.reserve(vs.len() * 4);
        for &v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.bytes.reserve(vs.len() * 8);
        for &v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append an `f32` slice (bit-exact round trip through
    /// [`SectionCursor::get_f32_vec`]).
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.bytes.reserve(vs.len() * 4);
        for &v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The accumulated bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the buffer into its byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Writer half of the snapshot container (see the module docs for the
/// format): collect tagged sections, then [`SnapshotWriter::write_to`]
/// emits header, checksummed section table and payloads in one pass.
#[derive(Debug)]
pub struct SnapshotWriter {
    kind: [u8; 4],
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl SnapshotWriter {
    /// A writer for a snapshot of the given `kind` (4-byte type tag,
    /// e.g. `*b"INDX"`).
    pub fn new(kind: [u8; 4]) -> Self {
        SnapshotWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Append one section. Tags should be unique per snapshot;
    /// [`SnapshotReader::section`] resolves the first match.
    pub fn section(&mut self, tag: [u8; 4], buf: SectionBuf) {
        self.sections.push((tag, buf.bytes));
    }

    /// Emit the whole snapshot. I/O failures surface as
    /// [`DbLshError::Io`].
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), DbLshError> {
        let mut header = Vec::with_capacity(24 + self.sections.len() * 16);
        header.extend_from_slice(&SNAPSHOT_MAGIC);
        header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header.extend_from_slice(&self.kind);
        header.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, body) in &self.sections {
            header.extend_from_slice(tag);
            header.extend_from_slice(&(body.len() as u64).to_le_bytes());
            header.extend_from_slice(&crc32(body).to_le_bytes());
        }
        let hdr_crc = crc32(&header);
        let mut w = BufWriter::new(writer);
        let put = |w: &mut BufWriter<W>, bytes: &[u8]| {
            w.write_all(bytes).map_err(|e| DbLshError::io("write", e))
        };
        put(&mut w, &header)?;
        put(&mut w, &hdr_crc.to_le_bytes())?;
        for (_, body) in &self.sections {
            put(&mut w, body)?;
        }
        w.flush().map_err(|e| DbLshError::io("flush", e))
    }

    /// [`SnapshotWriter::write_to`] a file path, crash-safely: the
    /// bytes go to a `.tmp` sibling first and are renamed over `path`
    /// only once fully written, so a crash or full disk mid-save leaves
    /// any previous snapshot at `path` intact (see
    /// [`atomic_write_file`]).
    pub fn write_file<P: AsRef<Path>>(&self, path: P) -> Result<(), DbLshError> {
        atomic_write_file(path.as_ref(), |f| self.write_to(f))
    }
}

/// Write a file crash-safely *and durably*: `fill` writes into
/// `<path>.tmp`, the file is fsynced, and only then is it renamed over
/// `path`, so an interrupted or failed write never destroys an existing
/// file at `path` — the property a re-snapshot loop depends on (the
/// previous restart image must survive a crash mid-save). After the
/// rename the parent directory is fsynced too, so a power loss right
/// after a "successful" save cannot roll the rename back and leave a
/// directory entry pointing at unflushed bytes. On any error the
/// temporary is removed.
pub fn atomic_write_file(
    path: &Path,
    fill: impl FnOnce(&mut std::fs::File) -> Result<(), DbLshError>,
) -> Result<(), DbLshError> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| DbLshError::io("create", io::Error::other("path has no file name")))?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let written = (|| {
        let mut file = std::fs::File::create(&tmp).map_err(|e| DbLshError::io("create", e))?;
        fill(&mut file)?;
        // Data must be on stable storage *before* the rename publishes
        // it — rename-then-fsync can surface a committed name bound to
        // garbage after a crash.
        file.sync_all().map_err(|e| DbLshError::io("fsync", e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| DbLshError::io("rename", e))?;
        sync_parent_dir(path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// fsync the directory holding `path`, making a just-completed rename
/// or create of `path` itself durable (file fsync alone does not cover
/// the directory entry). A relative path with no parent component
/// syncs the current directory.
pub fn sync_parent_dir(path: &Path) -> Result<(), DbLshError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = std::fs::File::open(parent).map_err(|e| DbLshError::io("open", e))?;
    dir.sync_all().map_err(|e| DbLshError::io("fsync", e))
}

/// Reader half of the snapshot container: parses and checksum-verifies
/// the whole stream up front, then hands out per-section cursors.
#[derive(Debug)]
pub struct SnapshotReader {
    version: u32,
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl SnapshotReader {
    /// Parse a snapshot stream of the expected `kind`. Verifies magic,
    /// version, kind, section-table framing, every section checksum, and
    /// that the stream ends exactly after the last payload; any
    /// violation is a typed [`DbLshError`], never a panic.
    pub fn read_from<R: Read>(reader: R, kind: [u8; 4]) -> Result<Self, DbLshError> {
        let mut r = BufReader::new(reader);
        let mut header = Vec::new();
        let mut read_exact =
            |header: &mut Vec<u8>, buf: &mut [u8], what: &str| -> Result<(), DbLshError> {
                r.read_exact(buf).map_err(|e| {
                    if e.kind() == io::ErrorKind::UnexpectedEof {
                        DbLshError::corrupt(format!("stream ends inside {what}"))
                    } else {
                        DbLshError::io("read", e)
                    }
                })?;
                header.extend_from_slice(buf);
                Ok(())
            };
        let mut magic = [0u8; 8];
        read_exact(&mut header, &mut magic, "the magic header")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(DbLshError::corrupt("not a DB-LSH snapshot (bad magic)"));
        }
        let mut word = [0u8; 4];
        read_exact(&mut header, &mut word, "the version field")?;
        let version = u32::from_le_bytes(word);
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(DbLshError::corrupt(format!(
                "unsupported snapshot version {version} (this build reads up to {SNAPSHOT_VERSION})"
            )));
        }
        let mut found_kind = [0u8; 4];
        read_exact(&mut header, &mut found_kind, "the kind field")?;
        if found_kind != kind {
            return Err(DbLshError::corrupt(format!(
                "snapshot kind mismatch: expected {:?}, found {:?}",
                String::from_utf8_lossy(&kind),
                String::from_utf8_lossy(&found_kind),
            )));
        }
        read_exact(&mut header, &mut word, "the section count")?;
        let count = u32::from_le_bytes(word) as usize;
        // Sanity bound: the table alone would need 16 bytes per entry.
        if count > 1 << 16 {
            return Err(DbLshError::corrupt(format!(
                "implausible section count {count}"
            )));
        }
        let mut table: Vec<([u8; 4], u64, u32)> = Vec::with_capacity(count);
        for i in 0..count {
            let mut tag = [0u8; 4];
            read_exact(&mut header, &mut tag, "the section table")?;
            let mut len8 = [0u8; 8];
            read_exact(&mut header, &mut len8, "the section table")?;
            read_exact(&mut header, &mut word, "the section table")?;
            let len = u64::from_le_bytes(len8);
            usize::try_from(len).map_err(|_| {
                DbLshError::corrupt(format!("section {i} length {len} does not fit in memory"))
            })?;
            table.push((tag, len, u32::from_le_bytes(word)));
        }
        let mut crc_word = [0u8; 4];
        let mut ignore = Vec::new();
        read_exact(&mut ignore, &mut crc_word, "the header checksum")?;
        if u32::from_le_bytes(crc_word) != crc32(&header) {
            return Err(DbLshError::corrupt(
                "header checksum mismatch (magic, kind, or section table corrupted)",
            ));
        }
        let mut sections = Vec::with_capacity(count);
        for (tag, len, crc) in table {
            // `take` + `read_to_end` grows incrementally, so a
            // bit-flipped length cannot trigger an absurd up-front
            // allocation — it fails the length check below instead.
            let mut body = Vec::new();
            r.by_ref()
                .take(len)
                .read_to_end(&mut body)
                .map_err(|e| DbLshError::io("read", e))?;
            if body.len() as u64 != len {
                return Err(DbLshError::corrupt(format!(
                    "stream ends inside section {:?} ({} of {len} bytes)",
                    String::from_utf8_lossy(&tag),
                    body.len(),
                )));
            }
            if crc32(&body) != crc {
                return Err(DbLshError::corrupt(format!(
                    "checksum mismatch in section {:?}",
                    String::from_utf8_lossy(&tag)
                )));
            }
            sections.push((tag, body));
        }
        let mut one = [0u8; 1];
        match r.read_exact(&mut one) {
            Ok(()) => Err(DbLshError::corrupt("trailing bytes after the last section")),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                Ok(SnapshotReader { version, sections })
            }
            Err(e) => Err(DbLshError::io("read", e)),
        }
    }

    /// [`SnapshotReader::read_from`] a file path.
    pub fn read_file<P: AsRef<Path>>(path: P, kind: [u8; 4]) -> Result<Self, DbLshError> {
        let f = std::fs::File::open(path).map_err(|e| DbLshError::io("open", e))?;
        SnapshotReader::read_from(f, kind)
    }

    /// The container version the stream was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Cursor over the body of the section tagged `tag`; a missing
    /// required section is a [`DbLshError::CorruptSnapshot`].
    pub fn section(&self, tag: [u8; 4]) -> Result<SectionCursor<'_>, DbLshError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, body)| SectionCursor {
                tag,
                bytes: body,
                pos: 0,
            })
            .ok_or_else(|| {
                DbLshError::corrupt(format!(
                    "missing required section {:?}",
                    String::from_utf8_lossy(&tag)
                ))
            })
    }

    /// Whether a section with this tag is present (for optional
    /// sections).
    pub fn has_section(&self, tag: [u8; 4]) -> bool {
        self.sections.iter().any(|(t, _)| *t == tag)
    }
}

/// Copy an exactly-`N`-byte slice (a `chunks_exact(N)` chunk) into a
/// fixed array. `copy_from_slice` enforces the length; the callers'
/// chunk iterators guarantee it.
fn fixed<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(b);
    a
}

/// Typed, bounds-checked reads over one section body. Over-reads report
/// [`DbLshError::CorruptSnapshot`] naming the section;
/// [`SectionCursor::finish`] asserts the body was consumed exactly.
#[derive(Debug)]
pub struct SectionCursor<'a> {
    tag: [u8; 4],
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionCursor<'a> {
    /// A cursor over a free-standing byte buffer, outside any snapshot
    /// container — the same typed, bounds-checked reads (and the same
    /// typed errors) applied to e.g. a wire-protocol payload. `tag`
    /// names the buffer in error messages.
    pub fn over(tag: [u8; 4], bytes: &'a [u8]) -> Self {
        SectionCursor { tag, bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

impl SectionCursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], DbLshError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let out = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(DbLshError::corrupt(format!(
                "section {:?} is truncated (need {n} more bytes at offset {})",
                String::from_utf8_lossy(&self.tag),
                self.pos,
            ))),
        }
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, DbLshError> {
        Ok(self.take(1)?[0])
    }

    /// Take exactly `N` bytes as a fixed-width array. `take` already
    /// errors on short sections, so the conversion itself cannot fail;
    /// the error arm keeps the decode path free of panic tokens.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DbLshError> {
        self.take(N)?
            .try_into()
            .map_err(|_| DbLshError::corrupt("short fixed-width field"))
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, DbLshError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&[u8], DbLshError> {
        self.take(n)
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DbLshError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DbLshError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u64` and convert it to `usize`.
    pub fn get_len(&mut self) -> Result<usize, DbLshError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| DbLshError::corrupt(format!("length {v} does not fit in memory")))
    }

    /// Read a little-endian IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64, DbLshError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian IEEE-754 `f32` (bit-exact).
    pub fn get_f32(&mut self) -> Result<f32, DbLshError> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }

    /// Read `n` little-endian `u32` values.
    pub fn get_u32_vec(&mut self, n: usize) -> Result<Vec<u32>, DbLshError> {
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or_else(|| DbLshError::corrupt(format!("u32 slice length {n} overflows")))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(fixed(b)))
            .collect())
    }

    /// Read `n` little-endian `u64` values.
    pub fn get_u64_vec(&mut self, n: usize) -> Result<Vec<u64>, DbLshError> {
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or_else(|| DbLshError::corrupt(format!("u64 slice length {n} overflows")))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(fixed(b)))
            .collect())
    }

    /// Read `n` little-endian `f32` values (bit-exact).
    pub fn get_f32_vec(&mut self, n: usize) -> Result<Vec<f32>, DbLshError> {
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or_else(|| DbLshError::corrupt(format!("f32 slice length {n} overflows")))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(fixed(b)))
            .collect())
    }

    /// Assert every byte of the section was consumed — unread bytes mean
    /// reader and writer disagree on the schema.
    pub fn finish(self) -> Result<(), DbLshError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DbLshError::corrupt(format!(
                "section {:?} holds {} unread bytes",
                String::from_utf8_lossy(&self.tag),
                self.bytes.len() - self.pos,
            )))
        }
    }
}

/// Convenience: load an fvecs file from disk.
pub fn load_fvecs_file<P: AsRef<Path>>(path: P) -> io::Result<Dataset> {
    read_fvecs(std::fs::File::open(path)?)
}

/// Convenience: load a bvecs file from disk.
pub fn load_bvecs_file<P: AsRef<Path>>(path: P) -> io::Result<Dataset> {
    read_bvecs(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng, StdRng};

    #[test]
    fn fvecs_roundtrip() {
        let d = Dataset::from_rows(&[vec![1.0, 2.5, -3.0], vec![0.0, 9.0, 1e-5]]);
        let mut buf = Vec::new();
        write_fvecs(&mut buf, &d).unwrap();
        assert_eq!(buf.len(), 2 * (4 + 3 * 4));
        let back = read_fvecs(&buf[..]).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn ivecs_roundtrip() {
        let rows = vec![vec![1, 2, 3], vec![], vec![-7]];
        let mut buf = Vec::new();
        write_ivecs(&mut buf, &rows).unwrap();
        let back = read_ivecs(&buf[..]).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn empty_stream_is_empty_dataset() {
        let d = read_fvecs(&[][..]).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn inconsistent_dims_rejected() {
        let mut buf = Vec::new();
        buf.extend(2i32.to_le_bytes());
        buf.extend(1.0f32.to_le_bytes());
        buf.extend(2.0f32.to_le_bytes());
        buf.extend(3i32.to_le_bytes());
        buf.extend([0u8; 12]);
        assert!(read_fvecs(&buf[..]).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut buf = Vec::new();
        buf.extend(4i32.to_le_bytes());
        buf.extend(1.0f32.to_le_bytes()); // only 1 of 4 values
        assert!(read_fvecs(&buf[..]).is_err());
    }

    #[test]
    fn negative_dim_rejected() {
        let buf = (-3i32).to_le_bytes();
        assert!(read_fvecs(&buf[..]).is_err());
    }

    #[test]
    fn bvecs_roundtrip() {
        let d = Dataset::from_rows(&[vec![0.0, 128.0, 255.0], vec![1.0, 2.0, 3.0]]);
        let mut buf = Vec::new();
        write_bvecs(&mut buf, &d).unwrap();
        assert_eq!(buf.len(), 2 * (4 + 3)); // i32 header + dim bytes per row
        let back = read_bvecs(&buf[..]).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn bvecs_empty_stream_is_empty_dataset() {
        let d = read_bvecs(&[][..]).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn bvecs_malformed_headers_rejected() {
        // negative dimension
        assert!(read_bvecs(&(-2i32).to_le_bytes()[..]).is_err());
        // zero dimension
        assert!(read_bvecs(&0i32.to_le_bytes()[..]).is_err());
        // truncated header (2 of 4 bytes)
        assert!(read_bvecs(&[3u8, 0][..]).is_err());
        // truncated payload: dim 4, only 2 bytes
        let mut buf = Vec::new();
        buf.extend(4i32.to_le_bytes());
        buf.extend([7u8, 9]);
        assert!(read_bvecs(&buf[..]).is_err());
        // inconsistent dims across vectors
        let mut buf = Vec::new();
        buf.extend(2i32.to_le_bytes());
        buf.extend([1u8, 2]);
        buf.extend(3i32.to_le_bytes());
        buf.extend([3u8, 4, 5]);
        assert!(read_bvecs(&buf[..]).is_err());
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        let reference = |b: &[u8]| crc32_bytewise(!0, b, &crc32_tables()[0]);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length across several 8-byte steps, at every alignment of
        // the start within a word, then one buffer far beyond the tables.
        let mut rng = StdRng::seed_from_u64(0xEDB8_8320);
        let buf: Vec<u8> = (0..(1 << 20) + 13).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), reference(s), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), reference(&buf));
    }

    fn sample_snapshot() -> Vec<u8> {
        let mut w = SnapshotWriter::new(*b"TEST");
        let mut a = SectionBuf::new();
        a.put_u32(7);
        a.put_u64(99);
        a.put_f64(2.5);
        a.put_u8(1);
        let mut b = SectionBuf::new();
        b.put_f32_slice(&[1.0, -2.5, 3.25]);
        b.put_u32_slice(&[10, 20]);
        b.put_u64_slice(&[u64::MAX]);
        w.section(*b"AAAA", a);
        w.section(*b"BBBB", b);
        let mut bytes = Vec::new();
        w.write_to(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn snapshot_container_round_trips() {
        let bytes = sample_snapshot();
        let r = SnapshotReader::read_from(&bytes[..], *b"TEST").unwrap();
        assert_eq!(r.version(), SNAPSHOT_VERSION);
        assert!(r.has_section(*b"AAAA"));
        assert!(!r.has_section(*b"ZZZZ"));
        let mut a = r.section(*b"AAAA").unwrap();
        assert_eq!(a.get_u32().unwrap(), 7);
        assert_eq!(a.get_u64().unwrap(), 99);
        assert_eq!(a.get_f64().unwrap(), 2.5);
        assert_eq!(a.get_u8().unwrap(), 1);
        a.finish().unwrap();
        let mut b = r.section(*b"BBBB").unwrap();
        assert_eq!(b.get_f32_vec(3).unwrap(), vec![1.0, -2.5, 3.25]);
        assert_eq!(b.get_u32_vec(2).unwrap(), vec![10, 20]);
        assert_eq!(b.get_u64_vec(1).unwrap(), vec![u64::MAX]);
        b.finish().unwrap();
    }

    #[test]
    fn snapshot_truncation_detected_at_every_prefix() {
        let bytes = sample_snapshot();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::read_from(&bytes[..cut], *b"TEST").unwrap_err();
            assert!(
                matches!(err, DbLshError::CorruptSnapshot { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn snapshot_bit_flips_detected() {
        let bytes = sample_snapshot();
        // flip one bit in every byte position; every flip must surface
        // as a typed error (magic, version, kind, table, checksum) —
        // never a panic, never a silent success with changed payload.
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            match SnapshotReader::read_from(&bad[..], *b"TEST") {
                Err(DbLshError::CorruptSnapshot { .. }) => {}
                Err(other) => panic!("flip at {pos}: unexpected error {other:?}"),
                Ok(_) => panic!("flip at {pos} went undetected"),
            }
        }
    }

    #[test]
    fn snapshot_header_mismatches_rejected() {
        let bytes = sample_snapshot();
        // wrong kind
        assert!(matches!(
            SnapshotReader::read_from(&bytes[..], *b"OTHR"),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // wrong magic
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SnapshotReader::read_from(&bad[..], *b"TEST").is_err());
        // future version
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let err = SnapshotReader::read_from(&bad[..], *b"TEST").unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // trailing garbage
        let mut bad = bytes.clone();
        bad.push(0);
        let err = SnapshotReader::read_from(&bad[..], *b"TEST").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn snapshot_cursor_overreads_are_typed_errors() {
        let bytes = sample_snapshot();
        let r = SnapshotReader::read_from(&bytes[..], *b"TEST").unwrap();
        let mut a = r.section(*b"AAAA").unwrap();
        // section AAAA is 21 bytes; ask for more
        assert!(matches!(
            a.get_f32_vec(1000),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // a partially consumed cursor fails finish()
        let mut a = r.section(*b"AAAA").unwrap();
        a.get_u32().unwrap();
        assert!(matches!(
            a.finish(),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // missing section
        assert!(matches!(
            r.section(*b"NOPE"),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn len_frame_round_trips() {
        let mut out = Vec::new();
        write_len_frame(&mut out, b"hello", 64).unwrap();
        write_len_frame(&mut out, b"", 64).unwrap();
        let mut r = &out[..];
        assert_eq!(read_len_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_len_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_len_frame(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn len_frame_bounds_are_enforced_both_ways() {
        let mut out = Vec::new();
        assert!(matches!(
            write_len_frame(&mut out, &[0u8; 100], 64),
            Err(DbLshError::InvalidParameter { .. })
        ));
        assert!(
            out.is_empty(),
            "oversized frame must not be partially written"
        );
        // A lying prefix: claims u32::MAX bytes over an empty stream.
        // Must fail on the cap check, before any body allocation.
        let lying = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_len_frame(&mut &lying[..], 1 << 20),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // A prefix under the cap but over a short stream: typed
        // truncation, not a hang or over-allocation.
        let mut short = Vec::new();
        short.extend(1000u32.to_le_bytes());
        short.extend(b"abc");
        assert!(matches!(
            read_len_frame(&mut &short[..], 1 << 20),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // Truncated prefix itself.
        assert!(matches!(
            read_len_frame(&mut &[7u8, 0][..], 64),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn free_standing_cursor_reads_typed_values() {
        let mut buf = SectionBuf::new();
        buf.put_u16(513);
        buf.put_f32(1.5);
        buf.put_bytes(b"xy");
        assert_eq!(buf.len(), 8);
        assert!(!buf.is_empty());
        let bytes = buf.into_bytes();
        let mut c = SectionCursor::over(*b"WIRE", &bytes);
        assert_eq!(c.remaining(), 8);
        assert_eq!(c.get_u16().unwrap(), 513);
        assert_eq!(c.get_f32().unwrap(), 1.5);
        assert_eq!(c.get_bytes(2).unwrap(), b"xy");
        c.finish().unwrap();
        // over-read on a free-standing cursor is the same typed error
        let mut c = SectionCursor::over(*b"WIRE", &bytes);
        assert!(matches!(
            c.get_bytes(9),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn bvecs_rejects_unrepresentable_coordinates() {
        for bad in [vec![vec![-1.0f32]], vec![vec![256.0]], vec![vec![0.5]]] {
            let d = Dataset::from_rows(&bad);
            let mut buf = Vec::new();
            let err = write_bvecs(&mut buf, &d).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
