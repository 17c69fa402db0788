//! Index persistence: [`DbLsh::save`] / [`DbLsh::load`] over the
//! versioned snapshot container of [`dblsh_data::io`].
//!
//! # What is stored vs rebuilt
//!
//! A snapshot stores exactly the state that cannot be recomputed
//! cheaply or deterministically enough:
//!
//! * the parameters (the Gaussian family is *rebuilt* from its seed —
//!   projections are deterministic in it, so the matrix itself never
//!   hits disk);
//! * the dataset rows, exactly as the index holds them — once, in
//!   internal order — so a load reads them into place with no permute
//!   (see "Row layouts" below for the older ascending-by-id section);
//! * the projection store, bit-exact (recomputing it would cost the
//!   full `n x L x K x d` projection pass of a build — the single most
//!   expensive build phase);
//! * the id maps and the tombstone bitset (pure state, not derivable);
//! * the R*-trees are **rebuilt** from the restored store via the
//!   bulk-load path, as one main over every live row — whatever delta
//!   levels and tail the saved index had. Tree structure is an
//!   implementation detail the
//!   canonical query mode is independent of, so persisting arenas would
//!   buy nothing but format surface: canonical answers
//!   ([`DbLsh::search_canonical`]) are byte-identical across
//!   save/load, while classic-mode leaf boundaries may legitimately
//!   move (same candidate pools, different batch cut points).
//!
//! # Row layouts
//!
//! This build writes the rows under the `ROWS` tag, in internal order.
//! Snapshots written before the index owned a single row copy carry
//! them under `DATA`, ascending by external id, plus a `META` flag
//! saying whether the internal order differs; such a file still loads —
//! its rows are permuted into internal order once, through the id maps
//! — and re-saves in the current layout. The two are told apart by
//! which section the file holds.
//!
//! # Error discipline
//!
//! Loading shares `read_dim_header`'s strictness: every way a file can
//! be wrong — truncation anywhere, flipped bits (checksummed), version
//! or kind mismatches, sections whose decoded contents violate an index
//! invariant (non-inverse maps, phantom tombstones, non-finite
//! coordinates, count mismatches) — surfaces as a typed
//! [`DbLshError`], never a panic and never a silently wrong index.

use std::io::{Read, Write};
use std::path::Path;

use dblsh_data::io::{SectionBuf, SnapshotReader, SnapshotWriter};
use dblsh_data::{Dataset, DbLshError, Sq8Grid, Sq8Store};

use crate::hasher::GaussianHasher;
use crate::index::{DbLsh, IdMaps, Segment, DEAD};
use crate::params::DbLshParams;
use crate::proj_store::ProjStore;

/// Snapshot kind tag for a single [`DbLsh`] index.
pub const INDEX_SNAPSHOT_KIND: [u8; 4] = *b"INDX";

const TAG_PARAMS: [u8; 4] = *b"PRMS";
const TAG_META: [u8; 4] = *b"META";
/// The dataset rows in internal order (the current layout).
const TAG_ROWS: [u8; 4] = *b"ROWS";
/// The dataset rows ascending by external id (read-only compatibility;
/// see the module docs, "Row layouts").
const TAG_DATA: [u8; 4] = *b"DATA";
const TAG_PROJ: [u8; 4] = *b"PROJ";
const TAG_MAPS: [u8; 4] = *b"MAPS";
const TAG_TOMB: [u8; 4] = *b"TOMB";
/// SQ8 pre-filter grid (per-dimension `min` and `step`). **Optional**
/// for forward compatibility: snapshots written before the SQ8
/// pre-filter existed have no such section, and loading one simply
/// learns the grid from the restored rows (the codes themselves are
/// always rebuilt from the rows — they are cheap, the *grid* is what
/// must persist so prune decisions, and therefore the prefilter
/// counters, are byte-identical across save/load even after inserts
/// extended the data beyond the build-time value range).
const TAG_SQ8G: [u8; 4] = *b"SQ8G";

/// The largest Gaussian family a snapshot may ask [`DbLsh::load`] to
/// sample: `dim · K · L` projection coefficients, 8 bytes each (512 MiB
/// at the cap). The file size does not bound it — one row of
/// `dim + K·L` floats is a well-formed file — so without a cap a small
/// CRC-valid file could demand any amount of memory. The paper's largest
/// setting (d = 960, K = 12, L = 5) needs about 5.8·10⁴ coefficients.
const MAX_HASHER_COEFFS: usize = 1 << 26;

fn corrupt(reason: impl Into<String>) -> DbLshError {
    DbLshError::corrupt(reason)
}

impl DbLsh {
    /// Serialize the index into `writer` (see the module docs for what
    /// is stored). The snapshot captures the current state verbatim —
    /// including tombstoned-but-not-compacted rows — so
    /// [`DbLsh::load`]-then-query answers byte-identically to this index
    /// in canonical mode.
    ///
    /// Peak memory during a save is roughly the index's own payload
    /// again: section bodies (dataset + projection rows re-encoded as
    /// little-endian bytes) are staged in memory so the checksummed
    /// section table can precede them in one forward-only write.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), DbLshError> {
        let mut w = SnapshotWriter::new(INDEX_SNAPSHOT_KIND);
        let p = &self.params;

        let mut prms = SectionBuf::new();
        prms.put_f64(p.c);
        prms.put_f64(p.w0);
        prms.put_u64(p.k as u64);
        prms.put_u64(p.l as u64);
        prms.put_u64(p.t as u64);
        prms.put_f64(p.r_min);
        prms.put_u64(p.max_rounds as u64);
        prms.put_u64(p.node_capacity as u64);
        prms.put_u64(p.seed);
        prms.put_u8(u8::from(p.relabel));
        w.section(TAG_PARAMS, prms);

        let rows = self.store.len();
        let mut meta = SectionBuf::new();
        meta.put_u64(self.rows.dim() as u64);
        meta.put_u64(rows as u64);
        meta.put_u64(self.ext_len as u64);
        meta.put_u64(self.len() as u64);
        meta.put_u8(u8::from(self.maps.is_some()));
        w.section(TAG_META, meta);

        let mut data = SectionBuf::new();
        data.put_f32_slice(self.rows.flat());
        w.section(TAG_ROWS, data);

        let mut proj = SectionBuf::new();
        for id in 0..rows as u32 {
            proj.put_f32_slice(self.store.row(id));
        }
        w.section(TAG_PROJ, proj);

        if let Some(m) = &self.maps {
            let mut maps = SectionBuf::new();
            maps.put_u32_slice(&m.ext_of_int);
            maps.put_u32_slice(&m.int_of_ext);
            w.section(TAG_MAPS, maps);
        }

        let mut tomb = SectionBuf::new();
        tomb.put_u64_slice(&self.removed);
        w.section(TAG_TOMB, tomb);

        let mut sq8 = SectionBuf::new();
        sq8.put_f32_slice(self.sq8.grid().min());
        sq8.put_f32_slice(self.sq8.grid().step());
        w.section(TAG_SQ8G, sq8);

        w.write_to(writer)
    }

    /// [`DbLsh::save`] to a file path, crash-safely: the snapshot is
    /// written to a `.tmp` sibling and renamed into place only once
    /// complete, so an interrupted save never destroys the previous
    /// snapshot at `path`.
    pub fn save_file<P: AsRef<Path>>(&self, path: P) -> Result<(), DbLshError> {
        dblsh_data::io::atomic_write_file(path.as_ref(), |f| self.save(f))
    }

    /// Restore an index from a snapshot stream: decode and validate
    /// every section, rebuild the Gaussian family from its seed, and
    /// bulk-load one main of `L` trees over the restored projection store.
    /// Canonical-mode answers are byte-identical to the saved index.
    ///
    /// Malformed input of any kind — truncated or bit-flipped files,
    /// wrong kind, future versions, internally inconsistent sections —
    /// yields a typed [`DbLshError`], never a panic.
    pub fn load<R: Read>(reader: R) -> Result<Self, DbLshError> {
        let snap = SnapshotReader::read_from(reader, INDEX_SNAPSHOT_KIND)?;

        let mut prms = snap.section(TAG_PARAMS)?;
        let params = DbLshParams {
            c: prms.get_f64()?,
            w0: prms.get_f64()?,
            k: prms.get_len()?,
            l: prms.get_len()?,
            t: prms.get_len()?,
            r_min: prms.get_f64()?,
            max_rounds: prms.get_len()?,
            node_capacity: prms.get_len()?,
            seed: prms.get_u64()?,
            relabel: prms.get_u8()? != 0,
        };
        prms.finish()?;
        params
            .validate()
            .map_err(|e| corrupt(format!("snapshot parameters invalid: {e}")))?;

        let mut meta = snap.section(TAG_META)?;
        let dim = meta.get_len()?;
        let rows = meta.get_len()?;
        let ext_len = meta.get_len()?;
        let live = meta.get_len()?;
        let has_maps = meta.get_u8()? != 0;
        // An older snapshot (module docs, "Row layouts") stores its rows
        // ascending by external id and flags whether that differs from
        // the internal order.
        let by_ext_id = snap.has_section(TAG_DATA);
        let permuted = by_ext_id && meta.get_u8()? != 0;
        meta.finish()?;
        if dim == 0 {
            return Err(corrupt("zero dimensionality"));
        }
        let coeffs = dim
            .checked_mul(params.k)
            .and_then(|v| v.checked_mul(params.l));
        if coeffs.is_none_or(|c| c > MAX_HASHER_COEFFS) {
            return Err(corrupt(format!(
                "hash family of dim {dim} x K {} x L {} exceeds {MAX_HASHER_COEFFS} coefficients",
                params.k, params.l
            )));
        }
        if ext_len == 0 {
            return Err(corrupt("empty id space (an index always has ids)"));
        }
        if rows > ext_len || live > rows || ext_len > u32::MAX as usize {
            return Err(corrupt(format!(
                "inconsistent counts: rows {rows}, live {live}, id bound {ext_len}"
            )));
        }
        if permuted && !has_maps {
            return Err(corrupt("verification order flagged without id maps"));
        }

        let mut data_sec = snap.section(if by_ext_id { TAG_DATA } else { TAG_ROWS })?;
        let flat = data_sec.get_f32_vec(
            rows.checked_mul(dim)
                .ok_or_else(|| corrupt("dataset size overflows"))?,
        )?;
        data_sec.finish()?;
        let mut data = Dataset::try_from_flat(dim, flat)
            .map_err(|e| corrupt(format!("dataset section invalid: {e}")))?;

        let width = params
            .l
            .checked_mul(params.k)
            .ok_or_else(|| corrupt("projection width overflows"))?;
        let mut proj_sec = snap.section(TAG_PROJ)?;
        let proj = proj_sec.get_f32_vec(
            rows.checked_mul(width)
                .ok_or_else(|| corrupt("projection store size overflows"))?,
        )?;
        proj_sec.finish()?;
        if !proj.iter().all(|v| v.is_finite()) {
            return Err(corrupt("non-finite value in projection store"));
        }

        let maps = if has_maps {
            let mut maps_sec = snap.section(TAG_MAPS)?;
            let ext_of_int = maps_sec.get_u32_vec(rows)?;
            let int_of_ext = maps_sec.get_u32_vec(ext_len)?;
            maps_sec.finish()?;
            Some(IdMaps {
                ext_of_int,
                int_of_ext,
            })
        } else {
            if snap.has_section(TAG_MAPS) {
                return Err(corrupt("unexpected id-map section on an unmapped index"));
            }
            if ext_len != rows {
                return Err(corrupt(format!(
                    "unmapped index with sparse ids: {rows} rows, id bound {ext_len}"
                )));
            }
            None
        };

        let mut tomb_sec = snap.section(TAG_TOMB)?;
        let removed = tomb_sec.get_u64_vec(ext_len.div_ceil(64))?;
        tomb_sec.finish()?;
        // Bits at and beyond `ext_len` must be clear: `insert` assumes
        // freshly grown bitset words start zeroed.
        let tail_bits: u32 = removed
            .iter()
            .enumerate()
            .map(|(w, &bits)| {
                let valid = ext_len.saturating_sub(w * 64).min(64);
                if valid == 64 {
                    0
                } else {
                    (bits >> valid).count_ones()
                }
            })
            .sum();
        if tail_bits != 0 {
            return Err(corrupt("tombstone bits set beyond the id bound"));
        }
        let is_removed = |ext: usize| removed[ext / 64] & (1u64 << (ext % 64)) != 0;
        let removed_total: u32 = removed.iter().map(|w| w.count_ones()).sum();
        if removed_total as usize != ext_len - live {
            return Err(corrupt(format!(
                "tombstone count {removed_total} disagrees with id bound {ext_len} minus live {live}"
            )));
        }

        // Map validation: mutually inverse over the physical rows, dead
        // sentinel exactly on tombstoned row-less ids.
        if let Some(m) = &maps {
            for (int, &ext) in m.ext_of_int.iter().enumerate() {
                if (ext as usize) >= ext_len {
                    return Err(corrupt(format!("row {int} maps to unissued id {ext}")));
                }
                if m.int_of_ext[ext as usize] != int as u32 {
                    return Err(corrupt(format!("id maps are not inverse at row {int}")));
                }
            }
            let mut present = 0usize;
            for (ext, &int) in m.int_of_ext.iter().enumerate() {
                if int == DEAD {
                    if !is_removed(ext) {
                        return Err(corrupt(format!("id {ext} has no row but no tombstone")));
                    }
                } else {
                    if int as usize >= rows || m.ext_of_int[int as usize] != ext as u32 {
                        return Err(corrupt(format!("id {ext} maps to a foreign row")));
                    }
                    present += 1;
                }
            }
            if present != rows {
                return Err(corrupt("id maps name a different number of rows"));
            }
            if permuted {
                // Ascending-by-id rows into internal order: the rank of
                // an id among the present ids is its row in the section.
                let mut order = vec![0u32; rows];
                let present = m.int_of_ext.iter().filter(|&&int| int != DEAD);
                for (rank, &int) in present.enumerate() {
                    order[int as usize] = rank as u32;
                }
                data = data.reordered(&order);
            } else if by_ext_id && !m.ext_of_int.windows(2).all(|w| w[0] < w[1]) {
                // Unflagged, the ascending-by-id order must BE the
                // internal order — or verification would silently read
                // the wrong rows.
                return Err(corrupt(
                    "id maps are not ascending but no verification order is stored",
                ));
            }
        }
        let to_ext = |int: u32| maps.as_ref().map_or(int, |m| m.ext_of_int[int as usize]);

        // SQ8 pre-filter: restore the grid when the snapshot carries one
        // (it must, for prune decisions to survive a save/load of an
        // index whose data outgrew the build-time range); learn it from
        // the restored rows otherwise (pre-SQ8 snapshots). Codes are
        // always rebuilt, over the rows as they now lie.
        let grid = if snap.has_section(TAG_SQ8G) {
            let mut sq8_sec = snap.section(TAG_SQ8G)?;
            let min = sq8_sec.get_f32_vec(dim)?;
            let step = sq8_sec.get_f32_vec(dim)?;
            sq8_sec.finish()?;
            Sq8Grid::from_parts(min, step)?
        } else {
            Sq8Grid::learn(dim, data.flat())
        };
        let sq8 = Sq8Store::build(grid, data.flat());

        // Rebuild the hasher (deterministic in the seed) and one main
        // over the *live* internal ids (tombstoned rows stay out of the
        // trees).
        let hasher = GaussianHasher::new(dim, params.k, params.l, params.seed);
        let store = ProjStore::from_flat(params.l, params.k, proj);
        let live_ids: Vec<u32> = (0..rows as u32)
            .filter(|&int| !is_removed(to_ext(int) as usize))
            .collect();
        if live_ids.len() != live {
            return Err(corrupt(format!(
                "live row count {} disagrees with recorded live {live}",
                live_ids.len()
            )));
        }
        let main = Segment::new(0..rows as u32, &store, &live_ids, params.node_capacity);

        Ok(DbLsh {
            params,
            hasher,
            segments: vec![main],
            store,
            rows: data,
            maps,
            sq8,
            removed,
            live,
            ext_len,
        })
    }

    /// [`DbLsh::load`] from a file path.
    pub fn load_file<P: AsRef<Path>>(path: P) -> Result<Self, DbLshError> {
        let f = std::fs::File::open(path).map_err(|e| DbLshError::io("open", e))?;
        DbLsh::load(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
    use std::sync::Arc;

    fn small() -> Arc<Dataset> {
        Arc::new(gaussian_mixture(&MixtureConfig {
            n: 400,
            dim: 12,
            clusters: 8,
            ..Default::default()
        }))
    }

    fn build(relabel: bool) -> DbLsh {
        let data = small();
        let params = DbLshParams::paper_defaults(data.len())
            .with_kl(5, 3)
            .with_r_min(0.5)
            .with_relabel(relabel);
        DbLsh::build(data, &params).unwrap()
    }

    #[test]
    fn round_trip_restores_state_and_answers() {
        for relabel in [true, false] {
            let mut idx = build(relabel);
            idx.remove(7).unwrap();
            idx.insert(&[0.25; 12]).unwrap();
            let mut bytes = Vec::new();
            idx.save(&mut bytes).unwrap();
            let loaded = DbLsh::load(&bytes[..]).unwrap();
            loaded.check_invariants();
            assert_eq!(loaded.len(), idx.len());
            assert_eq!(loaded.id_bound(), idx.id_bound());
            assert_eq!(loaded.params(), idx.params());
            assert_eq!(loaded.data().flat(), idx.data().flat());
            assert!(!loaded.contains(7));
            // rows are read into place, so a re-save reproduces the file
            let mut again = Vec::new();
            loaded.save(&mut again).unwrap();
            assert_eq!(again, bytes, "relabel={relabel}");
            let q = idx.data().point(3);
            let a = idx
                .search_canonical(q, 10, &crate::SearchOptions::default())
                .unwrap();
            let b = loaded
                .search_canonical(q, 10, &crate::SearchOptions::default())
                .unwrap();
            assert_eq!(a.neighbors, b.neighbors, "relabel={relabel}");
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn compacted_index_round_trips() {
        let mut idx = build(true);
        for id in 0..200u32 {
            idx.remove(id).unwrap();
        }
        idx.compact();
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        let loaded = DbLsh::load(&bytes[..]).unwrap();
        loaded.check_invariants();
        assert_eq!(loaded.len(), 200);
        assert_eq!(loaded.id_bound(), 400);
        assert_eq!(loaded.dead_rows(), 0);
        let q = idx.point(250).unwrap().to_vec();
        let a = idx
            .search_canonical(&q, 5, &crate::SearchOptions::default())
            .unwrap();
        let b = loaded
            .search_canonical(&q, 5, &crate::SearchOptions::default())
            .unwrap();
        assert_eq!(a.neighbors, b.neighbors);
        // The SQ8 grid is persisted, so prune decisions — and the
        // prefilter counters — survive churn + compact + save/load.
        assert_eq!(a.stats, b.stats);
    }

    /// A snapshot exactly as the build before the single row copy wrote
    /// it: rows ascending by external id under `DATA`, with the `META`
    /// flag for "internal order differs". `with_grid` off also leaves
    /// out `SQ8G`, as the pre-SQ8 format did.
    fn save_parent_format(idx: &DbLsh, with_grid: bool) -> Vec<u8> {
        let mut w = SnapshotWriter::new(INDEX_SNAPSHOT_KIND);
        let p = idx.params();
        let mut prms = SectionBuf::new();
        prms.put_f64(p.c);
        prms.put_f64(p.w0);
        prms.put_u64(p.k as u64);
        prms.put_u64(p.l as u64);
        prms.put_u64(p.t as u64);
        prms.put_f64(p.r_min);
        prms.put_u64(p.max_rounds as u64);
        prms.put_u64(p.node_capacity as u64);
        prms.put_u64(p.seed);
        prms.put_u8(u8::from(p.relabel));
        w.section(TAG_PARAMS, prms);
        let rows = idx.store.len();
        let mut meta = SectionBuf::new();
        meta.put_u64(idx.rows.dim() as u64);
        meta.put_u64(rows as u64);
        meta.put_u64(idx.ext_len as u64);
        meta.put_u64(idx.len() as u64);
        meta.put_u8(u8::from(idx.maps.is_some()));
        meta.put_u8(u8::from(idx.is_relabeled()));
        w.section(TAG_META, meta);
        let mut by_ext: Vec<u32> = (0..rows as u32).map(|int| idx.to_ext(int)).collect();
        by_ext.sort_unstable();
        let mut data = SectionBuf::new();
        for &ext in &by_ext {
            data.put_f32_slice(idx.rows.point(idx.to_int(ext) as usize));
        }
        w.section(TAG_DATA, data);
        let mut proj = SectionBuf::new();
        for id in 0..rows as u32 {
            proj.put_f32_slice(idx.store.row(id));
        }
        w.section(TAG_PROJ, proj);
        if let Some(m) = &idx.maps {
            let mut maps = SectionBuf::new();
            maps.put_u32_slice(&m.ext_of_int);
            maps.put_u32_slice(&m.int_of_ext);
            w.section(TAG_MAPS, maps);
        }
        let mut tomb = SectionBuf::new();
        tomb.put_u64_slice(&idx.removed);
        w.section(TAG_TOMB, tomb);
        if with_grid {
            let mut sq8 = SectionBuf::new();
            sq8.put_f32_slice(idx.sq8.grid().min());
            sq8.put_f32_slice(idx.sq8.grid().step());
            w.section(TAG_SQ8G, sq8);
        }
        let mut bytes = Vec::new();
        w.write_to(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn parent_format_snapshots_load_and_resave_in_the_new_layout() {
        for (relabel, compact) in [(true, false), (false, false), (true, true), (false, true)] {
            let what = format!("relabel={relabel}, compact={compact}");
            let mut idx = build(relabel);
            for id in (0..400u32).step_by(3) {
                idx.remove(id).unwrap();
            }
            idx.insert(&[0.25; 12]).unwrap();
            if compact {
                idx.compact();
            }
            let old = save_parent_format(&idx, true);
            let mut new = Vec::new();
            idx.save(&mut new).unwrap();
            assert_ne!(old, new, "{what}");

            let loaded = DbLsh::load(&old[..]).unwrap();
            loaded.check_invariants();
            assert_eq!(loaded.is_relabeled(), relabel, "{what}");
            assert_eq!(loaded.data().flat(), idx.data().flat(), "{what}");
            // Trees are rebuilt on load, so classic mode is compared with
            // a load of the writer's own new-layout bytes (same rebuild);
            // canonical mode with the writer itself.
            let twin = DbLsh::load(&new[..]).unwrap();
            let opts = crate::SearchOptions::default();
            for id in [1u32, 100, 400] {
                let q = idx.point(id).unwrap();
                let a = idx.search_canonical(q, 10, &opts).unwrap();
                let b = loaded.search_canonical(q, 10, &opts).unwrap();
                assert_eq!(a.neighbors, b.neighbors, "{what}, query {id}");
                assert_eq!(a.stats, b.stats, "{what}, query {id}");
                let a = twin.k_ann(q, 10).unwrap();
                let b = loaded.k_ann(q, 10).unwrap();
                assert_eq!(a.neighbors, b.neighbors, "{what}, query {id}");
                assert_eq!(a.stats, b.stats, "{what}, query {id}");
            }

            let mut resaved = Vec::new();
            loaded.save(&mut resaved).unwrap();
            assert_eq!(resaved, new, "{what}: re-save must be the new layout");
        }
    }

    #[test]
    fn pre_sq8_snapshots_still_load_and_answer_identically() {
        // Forward compatibility: a snapshot without the SQ8G section
        // loads fine — the grid is re-learned from the restored rows,
        // which for an unchurned index is the build-time grid exactly,
        // so even the prefilter counters match.
        for relabel in [true, false] {
            let idx = build(relabel);
            let bytes = save_parent_format(&idx, false);
            let loaded = DbLsh::load(&bytes[..]).unwrap();
            loaded.check_invariants();
            let q = idx.data().point(3);
            let a = idx
                .search_canonical(q, 10, &crate::SearchOptions::default())
                .unwrap();
            let b = loaded
                .search_canonical(q, 10, &crate::SearchOptions::default())
                .unwrap();
            assert_eq!(a.neighbors, b.neighbors, "relabel={relabel}");
            assert_eq!(a.stats, b.stats, "relabel={relabel}");
        }
    }

    #[test]
    fn crc_valid_but_malformed_sq8_grid_rejected() {
        // A CRC-valid snapshot whose SQ8 grid is nonsense (step <= 0)
        // must be a typed error, not a store that divides by zero later.
        let mut w = SnapshotWriter::new(INDEX_SNAPSHOT_KIND);
        let params = DbLshParams::paper_defaults(2).with_kl(2, 1);
        let mut prms = SectionBuf::new();
        prms.put_f64(params.c);
        prms.put_f64(params.w0);
        prms.put_u64(params.k as u64);
        prms.put_u64(params.l as u64);
        prms.put_u64(params.t as u64);
        prms.put_f64(params.r_min);
        prms.put_u64(params.max_rounds as u64);
        prms.put_u64(params.node_capacity as u64);
        prms.put_u64(params.seed);
        prms.put_u8(0);
        w.section(TAG_PARAMS, prms);
        let mut meta = SectionBuf::new();
        meta.put_u64(2); // dim
        meta.put_u64(2); // rows
        meta.put_u64(2); // ext_len
        meta.put_u64(2); // live
        meta.put_u8(0); // has_maps
        meta.put_u8(0); // has_verify
        w.section(TAG_META, meta);
        let mut data = SectionBuf::new();
        data.put_f32_slice(&[0.0, 0.0, 10.0, 10.0]);
        w.section(TAG_DATA, data);
        let mut proj = SectionBuf::new();
        proj.put_f32_slice(&[0.0, 0.0, 1.0, 1.0]);
        w.section(TAG_PROJ, proj);
        let mut tomb = SectionBuf::new();
        tomb.put_u64_slice(&[0]);
        w.section(TAG_TOMB, tomb);
        let mut sq8 = SectionBuf::new();
        sq8.put_f32_slice(&[0.0, 0.0]); // min
        sq8.put_f32_slice(&[0.0, 1.0]); // step: zero is malformed
        w.section(TAG_SQ8G, sq8);
        let mut bytes = Vec::new();
        w.write_to(&mut bytes).unwrap();
        let err = DbLsh::load(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, DbLshError::CorruptSnapshot { .. }),
            "expected CorruptSnapshot, got {err:?}"
        );
    }

    #[test]
    fn crc_valid_snapshot_demanding_a_huge_hasher_rejected() {
        // One row of dim = K·L = 65 536 floats is a ~512 KB well-formed
        // file, but its hash family is dim·K·L = 2^32 f64 (32 GiB). It
        // must be a typed error before anything that size is allocated.
        const SIDE: usize = 1 << 16;
        let mut w = SnapshotWriter::new(INDEX_SNAPSHOT_KIND);
        let params = DbLshParams::paper_defaults(1).with_kl(SIDE, 1);
        let mut prms = SectionBuf::new();
        prms.put_f64(params.c);
        prms.put_f64(params.w0);
        prms.put_u64(params.k as u64);
        prms.put_u64(params.l as u64);
        prms.put_u64(params.t as u64);
        prms.put_f64(params.r_min);
        prms.put_u64(params.max_rounds as u64);
        prms.put_u64(params.node_capacity as u64);
        prms.put_u64(params.seed);
        prms.put_u8(0);
        w.section(TAG_PARAMS, prms);
        let mut meta = SectionBuf::new();
        meta.put_u64(SIDE as u64); // dim
        meta.put_u64(1); // rows
        meta.put_u64(1); // ext_len
        meta.put_u64(1); // live
        meta.put_u8(0); // has_maps
        w.section(TAG_META, meta);
        let mut rows = SectionBuf::new();
        rows.put_f32_slice(&vec![0.0; SIDE]);
        w.section(TAG_ROWS, rows);
        let mut proj = SectionBuf::new();
        proj.put_f32_slice(&vec![0.0; SIDE]); // rows * l*k
        w.section(TAG_PROJ, proj);
        let mut tomb = SectionBuf::new();
        tomb.put_u64_slice(&[0]);
        w.section(TAG_TOMB, tomb);
        let mut bytes = Vec::new();
        w.write_to(&mut bytes).unwrap();
        assert!(bytes.len() < 600 * 1024, "{} bytes", bytes.len());
        match DbLsh::load(&bytes[..]) {
            Err(DbLshError::CorruptSnapshot { .. }) => {}
            Err(other) => panic!("expected CorruptSnapshot, got {other:?}"),
            Ok(_) => panic!("a 2^32-coefficient hash family loaded"),
        }
    }

    #[test]
    fn truncated_and_flipped_snapshots_are_typed_errors() {
        let idx = build(true);
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        // a spread of truncation points, including inside every section
        for cut in [0, 10, 30, bytes.len() / 2, bytes.len() - 1] {
            let err = DbLsh::load(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DbLshError::CorruptSnapshot { .. }),
                "cut {cut}: {err:?}"
            );
        }
        // bit flips across the stream: header, table, payloads
        let step = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            match DbLsh::load(&bad[..]) {
                Err(DbLshError::CorruptSnapshot { .. }) => {}
                Err(other) => panic!("flip at {pos}: unexpected error {other:?}"),
                Ok(_) => panic!("flip at {pos} went undetected"),
            }
        }
    }

    #[test]
    fn wrong_kind_rejected() {
        let err = DbLsh::load(&b"not a snapshot at all"[..]).unwrap_err();
        assert!(matches!(err, DbLshError::CorruptSnapshot { .. }));
    }

    #[test]
    fn crc_valid_but_non_ascending_unverified_maps_rejected() {
        // A CRC-valid snapshot whose id maps permute the rows while
        // claiming there is no stored verification order: without the
        // ascending-maps check, verification would silently read the
        // wrong rows. Must be a typed error, not a wrong index.
        let mut w = SnapshotWriter::new(INDEX_SNAPSHOT_KIND);
        let params = DbLshParams::paper_defaults(2).with_kl(2, 1);
        let mut prms = SectionBuf::new();
        prms.put_f64(params.c);
        prms.put_f64(params.w0);
        prms.put_u64(params.k as u64);
        prms.put_u64(params.l as u64);
        prms.put_u64(params.t as u64);
        prms.put_f64(params.r_min);
        prms.put_u64(params.max_rounds as u64);
        prms.put_u64(params.node_capacity as u64);
        prms.put_u64(params.seed);
        prms.put_u8(0);
        w.section(TAG_PARAMS, prms);
        let mut meta = SectionBuf::new();
        meta.put_u64(2); // dim
        meta.put_u64(2); // rows
        meta.put_u64(2); // ext_len
        meta.put_u64(2); // live
        meta.put_u8(1); // has_maps
        meta.put_u8(0); // has_verify: data order claimed internal
        w.section(TAG_META, meta);
        let mut data = SectionBuf::new();
        data.put_f32_slice(&[0.0, 0.0, 10.0, 10.0]);
        w.section(TAG_DATA, data);
        let mut proj = SectionBuf::new();
        proj.put_f32_slice(&[0.0, 0.0, 1.0, 1.0]); // rows * l*k = 2*2
        w.section(TAG_PROJ, proj);
        let mut maps = SectionBuf::new();
        maps.put_u32_slice(&[1, 0]); // ext_of_int: a swap, not ascending
        maps.put_u32_slice(&[1, 0]); // valid inverse
        w.section(TAG_MAPS, maps);
        let mut tomb = SectionBuf::new();
        tomb.put_u64_slice(&[0]);
        w.section(TAG_TOMB, tomb);
        let mut bytes = Vec::new();
        w.write_to(&mut bytes).unwrap();
        let err = DbLsh::load(&bytes[..]).unwrap_err();
        assert!(
            err.to_string().contains("ascending"),
            "expected the ascending-maps rejection, got: {err}"
        );
    }

    #[test]
    fn save_file_is_atomic_and_leaves_no_temp() {
        let idx = build(true);
        let dir = std::env::temp_dir().join("dblsh-snapshot-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.dblsh");
        idx.save_file(&path).unwrap();
        let first = std::fs::read(&path).unwrap();
        // re-save over the existing snapshot: still loads, no .tmp left
        idx.save_file(&path).unwrap();
        assert!(!dir.join("index.dblsh.tmp").exists(), "temp file leaked");
        assert_eq!(std::fs::read(&path).unwrap(), first);
        DbLsh::load_file(&path).unwrap();
        // a failing save (unwritable target dir) reports Io and leaves
        // the original file untouched
        let err = idx
            .save_file(dir.join("no-such-subdir").join("x.dblsh"))
            .unwrap_err();
        assert!(matches!(err, DbLshError::Io { .. }));
        assert_eq!(std::fs::read(&path).unwrap(), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_round_trip() {
        let idx = build(false);
        let dir = std::env::temp_dir().join("dblsh-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.dblsh");
        idx.save_file(&path).unwrap();
        let loaded = DbLsh::load_file(&path).unwrap();
        assert_eq!(loaded.len(), idx.len());
        std::fs::remove_file(&path).unwrap();
        let err = DbLsh::load_file(dir.join("missing.dblsh")).unwrap_err();
        assert!(matches!(err, DbLshError::Io { .. }));
    }
}
