//! WAL record payloads of the sharded fleet's per-shard logs
//! ([`crate::ShardedDbLsh::enable_wal`]): the schema *inside* each
//! checksummed [`dblsh_data::wal`] record.
//!
//! # Record layout (little-endian, after the container's `len | crc32`)
//!
//! ```text
//! insert   op: u8 = 1 | global: u32 | dim: u32 | point: dim x f32
//! remove   op: u8 = 2 | global: u32 | local: u32
//! ```
//!
//! `global` is the id the caller was (or would have been) acknowledged
//! with; `local` is the id inside the owning shard. Replay is
//! idempotent against a newer base snapshot: an insert whose id falls
//! inside the snapshot's id space is skipped, and a remove of an
//! already-removed id is a no-op — so a crash *between* a checkpoint
//! commit and the WAL truncation that should follow it only re-applies
//! work, never corrupts it.

use dblsh_data::io::SectionCursor;
use dblsh_data::DbLshError;

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;

/// One logged mutation, decoded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    /// `insert` acknowledged as `global`.
    Insert { global: u32, point: Vec<f32> },
    /// `remove` of `global`, which lived at `local` in its shard.
    Remove { global: u32, local: u32 },
}

/// Frame an insert payload.
pub(crate) fn encode_insert(global: u32, point: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + point.len() * 4);
    out.push(OP_INSERT);
    out.extend_from_slice(&global.to_le_bytes());
    out.extend_from_slice(&(point.len() as u32).to_le_bytes());
    for &v in point {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Frame a remove payload.
pub(crate) fn encode_remove(global: u32, local: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(OP_REMOVE);
    out.extend_from_slice(&global.to_le_bytes());
    out.extend_from_slice(&local.to_le_bytes());
    out
}

/// Decode one record payload; schema violations are typed
/// [`DbLshError::CorruptSnapshot`] (the container's CRC already passed,
/// so damage here means writer/reader schema drift, which must not be
/// replayed on faith).
pub(crate) fn decode(bytes: &[u8]) -> Result<WalOp, DbLshError> {
    let mut c = SectionCursor::over(*b"WREC", bytes);
    let op = match c.get_u8()? {
        OP_INSERT => {
            let global = c.get_u32()?;
            let dim = c.get_u32()? as usize;
            let point = c.get_f32_vec(dim)?;
            WalOp::Insert { global, point }
        }
        OP_REMOVE => WalOp::Remove {
            global: c.get_u32()?,
            local: c.get_u32()?,
        },
        other => return Err(DbLshError::corrupt(format!("unknown WAL op tag {other}"))),
    };
    c.finish()?;
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_round_trip() {
        let ins = encode_insert(7, &[1.0, -2.5, 3.25]);
        assert_eq!(
            decode(&ins).unwrap(),
            WalOp::Insert {
                global: 7,
                point: vec![1.0, -2.5, 3.25]
            }
        );
        let rem = encode_remove(9, 4);
        assert_eq!(
            decode(&rem).unwrap(),
            WalOp::Remove {
                global: 9,
                local: 4
            }
        );
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // unknown op
        assert!(matches!(
            decode(&[99]),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // truncated insert
        let ins = encode_insert(7, &[1.0, 2.0]);
        assert!(matches!(
            decode(&ins[..ins.len() - 1]),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // trailing bytes
        let mut rem = encode_remove(1, 2);
        rem.push(0);
        assert!(matches!(
            decode(&rem),
            Err(DbLshError::CorruptSnapshot { .. })
        ));
        // empty
        assert!(decode(&[]).is_err());
    }
}
