//! Consolidation, adaptive re-organization, and export — everything that
//! rewrites the store from a full scan of it (DESIGN.md §13).

use super::names::FragmentId;
use super::StorageEngine;
use crate::backend::StorageBackend;
use crate::catalog::CatalogEntry;
use crate::error::{Result, StorageError};
use artsparse_core::advisor::recommend_from_stats;
use artsparse_core::stats::SparsityStatsBuilder;
use artsparse_metrics::{charge, Span, SpanKind};
use artsparse_tensor::sort::{last_per_address, sort_by_address};
use artsparse_tensor::CoordBuffer;
use std::sync::Arc;

/// The most points a consolidation part holds, unless one dim-0 slice
/// alone is larger. It equals [`IngestConfig::flush_points`]' default, so
/// a consolidated part is no bigger than a group commit, and a point read
/// fetches one part's index per run instead of the whole store's.
///
/// [`IngestConfig::flush_points`]: crate::config::IngestConfig::flush_points
pub const PART_POINTS: usize = 4096;

/// Outcome of a consolidation pass.
#[derive(Debug, Clone)]
pub struct ConsolidateReport {
    /// Source runs merged (and deleted). A run is one fragment, or the
    /// parts of one earlier pass; a store that is one run is already
    /// consolidated.
    pub merged_fragments: usize,
    /// Points in the output, over all its parts (after dedup).
    pub n_points: usize,
    /// Parts the output was cut into (0 when nothing was written).
    pub parts: usize,
    /// Store size before.
    pub before_bytes: u64,
    /// Store size after.
    pub after_bytes: u64,
    /// Name of the output's last part, its commit point (`None` if
    /// nothing needed merging).
    pub fragment: Option<String>,
}

/// Where the address-sorted `coords` are cut into consolidation parts:
/// the end offset of each. A cut falls only where coordinate 0 changes,
/// so the parts are disjoint on dim 0 and a point query meets one of
/// them; each holds at most [`PART_POINTS`] points, except a dim-0 slice
/// larger than that, which stays whole as one part.
fn part_ends(coords: &CoordBuffer) -> Vec<usize> {
    let row = |i: usize| coords.point(i).first().copied();
    let (mut ends, mut part, mut slice) = (Vec::new(), 0, 0);
    for i in 1..=coords.len() {
        if i < coords.len() && row(i) == row(i - 1) {
            continue;
        }
        // `slice..i` is one dim-0 slice; close the part before it if the
        // part cannot take it.
        if i - part > PART_POINTS && slice > part {
            ends.push(slice);
            part = slice;
        }
        slice = i;
    }
    ends.push(coords.len());
    ends
}

/// `n` as a 32-bit field of a merge record. Records are
/// `(address, (fragment, slot))`, 16 bytes, so the radix sort moves as
/// little as it can; a merge over more fragments, or a fragment of more
/// points, than 32 bits count is refused with a typed error.
fn record_field(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| StorageError::Mismatch {
        reason: format!("{what} {n} does not fit the merge's 32-bit record field"),
    })
}

impl<B: StorageBackend> StorageEngine<B> {
    /// A fragment about to be rewritten must store this engine's tensor:
    /// same shape, same record size.
    fn check_rewritable(&self, entry: &CatalogEntry) -> Result<()> {
        self.check_entry_shape(entry)?;
        if entry.meta.elem_size != self.elem_size {
            return Err(StorageError::Mismatch {
                reason: format!(
                    "fragment {} stores {}-byte records, engine {}",
                    entry.name, entry.meta.elem_size, self.elem_size
                ),
            });
        }
        Ok(())
    }

    /// The shared fragment-scan layer: decode every cataloged fragment
    /// (through the cache) and merge its points with the engine's exact
    /// read precedence — within a fragment the *lowest* slot wins (every
    /// format's read scans/searches to the first matching record); across
    /// fragments the most recently written one wins. The output is flat
    /// and in canonical linear-address order: the coordinates and value
    /// records `write_with(.., presorted = true)` takes.
    ///
    /// One `(address, (fragment, slot))` record per enumerated point, slots
    /// pushed high to low, then one stable address sort: the last record
    /// of each address is the newest fragment's lowest slot.
    fn merged_points_from(&self, entries: &[Arc<CatalogEntry>]) -> Result<(CoordBuffer, Vec<u8>)> {
        let elem = self.elem_size as usize;
        let mut sources = Vec::with_capacity(entries.len());
        let mut order: Vec<(u64, (u32, u32))> = Vec::new();
        for (f, entry) in entries.iter().enumerate() {
            self.check_rewritable(entry)?;
            let decoded = self.fetch_decoded(entry)?;
            let org = decoded.meta.kind.create();
            let coords = org.enumerate(&decoded.index, &self.counter)?;
            if coords
                .len()
                .checked_mul(elem)
                .is_none_or(|bytes| bytes > decoded.values.len())
            {
                return Err(StorageError::corrupt(
                    &entry.name,
                    "enumerated more slots than records",
                ));
            }
            let f = record_field(f, "merged fragment index")?;
            let slots = record_field(coords.len(), "enumerated fragment length")?;
            order.reserve(coords.len());
            for slot in (0..slots).rev() {
                let addr = self.shape.linearize(coords.point(slot as usize))?;
                order.push((addr, (f, slot)));
            }
            sources.push((decoded, coords));
        }
        sort_by_address(&mut order);
        let mut coords = Vec::with_capacity(order.len() * self.shape.ndim());
        let mut payload = Vec::with_capacity(order.len() * elem);
        for &(_, (f, slot)) in last_per_address(&order) {
            let ((decoded, points), slot) = (&sources[f as usize], slot as usize);
            coords.extend_from_slice(points.point(slot));
            payload.extend_from_slice(&decoded.values[slot * elem..(slot + 1) * elem]);
        }
        Ok((CoordBuffer::from_flat(self.shape.ndim(), coords)?, payload))
    }

    /// Merge every fragment into one run (TileDB-style consolidation).
    ///
    /// Runs over the same scan layer as [`StorageEngine::export`]: each
    /// fragment's index is enumerated back into coordinates, values are
    /// deduplicated with the same last-writer-wins rule as
    /// [`StorageEngine::read`], and the output is written under the
    /// engine's current organization and codecs, cut into parts of at
    /// most [`PART_POINTS`] points that are disjoint on dim 0 (one part,
    /// named as an uncut fragment, when it fits); the source fragments
    /// are deleted (and their cache entries invalidated). A store that is
    /// already one run — one fragment, or the parts of one pass — is left
    /// alone.
    ///
    /// With [`EngineConfig::adaptive_reorg`](crate::config::EngineConfig)
    /// set, the pass additionally characterizes the merged region's
    /// sparsity from the merge's flat output (no second fetch or decode),
    /// runs the advisor's cost model over the measured statistics, and
    /// encodes the output in the winning organization instead of the
    /// engine's configured one. A store already consolidated down to a
    /// single run takes the same path — merged, characterized, advised —
    /// and is rewritten only when the advice differs from its current
    /// organization, so repeated passes converge to a no-op.
    ///
    /// The pass is transactional: one catalog snapshot drives both the
    /// merge and the delete set; the delete set is recorded in one
    /// tombstone that commits (atomically) before the run's last part
    /// does, so a crash in any window either discards the whole pass or
    /// replays the deletions at the next open/refresh — never a store
    /// with both the merged output and a partial set of its sources
    /// counted twice. The output takes the *highest source* sequence
    /// number (with a consolidation-generation tiebreaker just above the
    /// sources), so a fragment written concurrently while the pass ran
    /// keeps precedence over the merged output instead of being shadowed.
    pub fn consolidate(&self) -> Result<ConsolidateReport> {
        let _span = Span::enter(self.plane.as_ref(), SpanKind::Consolidate);
        // Buffered ingests belong in the merge: group-commit them first
        // so the pass sees them as an ordinary source fragment (a no-op
        // when the buffer is empty).
        self.flush()?;
        let _guard = self.consolidate_lock.lock();
        // ONE snapshot drives everything below: the merge input, the new
        // run's identity, and the delete set. Fragments written after
        // this point are untouched and outrank the merged output.
        let snapshot_span = Span::enter(self.plane.as_ref(), SpanKind::ConsolidateSnapshot);
        let runs = self.catalog.runs();
        let snapshot = runs.concat();
        let runs = runs.len();
        let before_bytes: u64 = snapshot.iter().map(|e| e.size).sum();
        let adaptive = self.config.adaptive_reorg;
        let unchanged = ConsolidateReport {
            merged_fragments: runs,
            n_points: 0,
            parts: 0,
            before_bytes,
            after_bytes: before_bytes,
            fragment: None,
        };
        // Nothing to merge and nothing to re-organize: no fragments, or
        // one run without an adaptive policy.
        if runs == 0 || (runs == 1 && adaptive.is_none()) {
            return Ok(unchanged);
        }
        let sources: Vec<String> = snapshot.iter().map(|e| e.name.clone()).collect();
        let id = FragmentId::replacing(&sources, self.epoch)?;
        drop(snapshot_span);

        let merge_span = Span::enter(self.plane.as_ref(), SpanKind::ConsolidateMerge);
        let (coords, payload) = self.merged_points_from(&snapshot)?;
        drop(merge_span);

        let target = match adaptive {
            Some(profile) => {
                let _advise = Span::enter(self.plane.as_ref(), SpanKind::ConsolidateAdvise);
                // Characterization reads the merged flat coordinates: no
                // second fetch, decode or merge, one walk over the output.
                let mut stats = SparsityStatsBuilder::new(self.shape.clone());
                coords.iter().for_each(|p| stats.push(p));
                let target =
                    recommend_from_stats(&stats.finish(), &profile.access_profile()).best();
                // A lone run already in the advised organization has
                // converged: rewriting it would only fold duplicates.
                if runs == 1 && snapshot.iter().all(|e| e.meta.kind == target) {
                    return Ok(unchanged);
                }
                let migrating = snapshot.iter().filter(|e| e.meta.kind != target).count() as u64;
                charge(|io| io.fragments_migrated += migrating);
                target
            }
            None => self.kind,
        };

        // The merged scan is in linear-address order, so the re-encode
        // goes through the presorted builders (sorts elided).
        let convert_span =
            adaptive.map(|_| Span::enter(self.plane.as_ref(), SpanKind::ConsolidateConvert));
        let ends = part_ends(&coords);
        let report = self.write_with(target, &coords, &payload, &ends, id, Some(&sources), true)?;
        drop(convert_span);

        self.retire_sources(&sources, &report.fragment)?;
        Ok(ConsolidateReport {
            merged_fragments: runs,
            n_points: coords.len(),
            parts: ends.len(),
            before_bytes,
            after_bytes: self.catalog.total_bytes(),
            fragment: Some(report.fragment),
        })
    }

    /// Enumerate every stored point across all fragments (post-dedup), in
    /// linear-address order, with its value record. Runs over the same
    /// scan layer as [`StorageEngine::consolidate`].
    pub fn export(&self) -> Result<(CoordBuffer, Vec<u8>)> {
        // Buffered ingests are part of the store: group-commit them so
        // the scan layer sees them (a no-op when the buffer is empty).
        self.flush()?;
        // A consolidation committing between the snapshot and the scan
        // would retire fragments the scan still has to fetch: hold the
        // pass off for the whole scan, as `consolidate` does.
        let _guard = self.consolidate_lock.lock();
        self.merged_points_from(&self.catalog.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::config::{EngineConfig, ReorgProfile};
    use crate::engine::test_support::{coords, engine};
    use crate::engine::ReadResult;
    use crate::faults::FailingBackend;
    use artsparse_core::FormatKind;
    use artsparse_tensor::{Region, Shape};

    /// A LINEAR store under the balanced adaptive policy: a handful of
    /// points is cheaper as COO, so its first pass migrates.
    fn adaptive_engine<B: StorageBackend>(backend: B) -> StorageEngine<B> {
        StorageEngine::open_with(
            backend,
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_adaptive_reorg(ReorgProfile::Balanced),
        )
        .unwrap()
    }

    /// What a read answers, without the fragment that answered it.
    fn answers(result: ReadResult) -> Vec<(usize, Vec<u64>, Vec<u8>)> {
        result
            .hits
            .into_iter()
            .map(|h| (h.query_index, h.coord, h.value))
            .collect()
    }

    /// Address-sorted points, `counts[r]` of them in row `r` of a
    /// `counts.len()` × 8 192 tensor.
    fn rows(counts: &[u64]) -> CoordBuffer {
        let cells: Vec<[u64; 2]> = (0u64..)
            .zip(counts)
            .flat_map(|(r, &n)| (0..n).map(move |c| [r, c]))
            .collect();
        CoordBuffer::from_points(2, &cells).unwrap()
    }

    #[test]
    fn parts_hold_whole_rows_up_to_the_cap() {
        assert_eq!(
            part_ends(&CoordBuffer::new(2)),
            [0],
            "an empty output is one part"
        );
        assert_eq!(part_ends(&rows(&[4096])), [4096]);
        assert_eq!(part_ends(&rows(&[4096, 1])), [4096, 4097]);
        // 3 000 + 1 000 + 96 fill a part exactly; 5 000 is over the cap
        // and stays whole; 10 + 4 096 would be over it.
        assert_eq!(
            part_ends(&rows(&[3000, 1000, 96, 5000, 10, 4096])),
            [4096, 9096, 9106, 13202]
        );
    }

    #[test]
    fn an_oversized_row_is_stored_as_one_part() {
        let e = StorageEngine::open(
            MemBackend::new(),
            FormatKind::Coo,
            Shape::new(vec![3, 8192]).unwrap(),
            8,
        )
        .unwrap();
        let written = rows(&[100, 8192, 100]);
        let values: Vec<f64> = (0..written.len()).map(|i| i as f64).collect();
        // Two sources, so the pass has something to merge.
        let (first, rest) = written.as_flat().split_at(2 * 50);
        for (flat, values) in [(first, &values[..50]), (rest, &values[50..])] {
            let coords = CoordBuffer::from_flat(2, flat.to_vec()).unwrap();
            e.write_points::<f64>(&coords, values).unwrap();
        }
        let report = e.consolidate().unwrap();
        assert_eq!((report.n_points, report.parts), (8392, 3));
        let parts: Vec<(u64, Vec<u64>)> = (e.catalog.snapshot().iter())
            .map(|p| (p.meta.n, p.meta.bbox.as_ref().unwrap().lo().to_vec()))
            .collect();
        assert_eq!(
            parts,
            [(100, vec![0, 0]), (8192, vec![1, 0]), (100, vec![2, 0])]
        );
        assert_eq!(
            e.read_values::<f64>(&written).unwrap(),
            values.into_iter().map(Some).collect::<Vec<_>>()
        );
    }

    #[test]
    fn merge_record_fields_past_32_bits_are_typed_errors() {
        assert_eq!(record_field(u32::MAX as usize, "slot").unwrap(), u32::MAX);
        let err = record_field(u32::MAX as usize + 1, "merged fragment index").unwrap_err();
        assert!(matches!(err, StorageError::Mismatch { .. }), "{err}");
        assert!(
            err.to_string().contains("fragment index 4294967296"),
            "{err}"
        );
    }

    #[test]
    fn single_fragment_migration_folds_duplicates_and_keeps_answers() {
        let e = adaptive_engine(MemBackend::new());
        // [1,1] twice in one fragment: reads answer the lowest slot (1.0).
        let written = coords(&[[1, 1], [2, 2], [1, 1], [3, 0]]);
        e.write_points::<f64>(&written, &[1.0, 2.0, 9.0, 3.0])
            .unwrap();
        let queries = coords(&[[1, 1], [2, 2], [3, 0], [0, 0]]);
        let region = Region::from_corners(&[0, 0], &[15, 15]).unwrap();
        let snapshot = |e: &StorageEngine<MemBackend>| {
            (
                answers(e.read(&queries).unwrap()),
                answers(e.read_region(&region).unwrap()),
            )
        };
        let before = snapshot(&e);
        assert_eq!(e.stats().unwrap().total_points, 4);

        let report = e.consolidate().unwrap();
        assert_eq!((report.merged_fragments, report.n_points), (1, 3));
        let stats = e.stats().unwrap();
        assert_eq!(stats.fragments, 1);
        assert!(!stats.by_format.contains_key("LINEAR"), "{stats:?}");
        assert_eq!(stats.total_points, 3, "each address stored once");
        assert_eq!(snapshot(&e), before);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1]])).unwrap(),
            vec![Some(1.0)]
        );
    }

    #[test]
    fn converged_store_consolidates_without_device_writes() {
        let e = adaptive_engine(FailingBackend::new(MemBackend::new()));
        e.write_points::<f64>(&coords(&[[1, 1], [2, 2]]), &[1.0, 2.0])
            .unwrap();
        assert!(e.consolidate().unwrap().fragment.is_some(), "migrates");
        let blobs = e.backend().list().unwrap();
        // Converged: the next pass merges and advises, then stops — any
        // put, rename or delete would fail on this device.
        e.backend().set_out_of_space(true);
        let report = e.consolidate().unwrap();
        assert_eq!(report.fragment, None);
        assert_eq!(report.before_bytes, report.after_bytes);
        e.backend().set_out_of_space(false);
        assert_eq!(e.backend().list().unwrap(), blobs);
    }

    #[test]
    fn consolidate_folds_buffered_points_in() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[2.0]).unwrap();
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[3.0]).unwrap();
        let report = e.consolidate().unwrap();
        // The buffered point was group-committed and merged: one
        // fragment, one point, the newest record.
        assert_eq!(report.merged_fragments, 3);
        assert_eq!(report.n_points, 1);
        assert_eq!(e.fragments().unwrap().len(), 1);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1]])).unwrap(),
            vec![Some(3.0)]
        );
    }

    #[test]
    fn export_includes_buffered_points() {
        let e = engine(FormatKind::Coo);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.ingest_points::<f64>(&coords(&[[0, 5]]), &[5.0]).unwrap();
        let (c, payload) = e.export().unwrap();
        assert_eq!(c.len(), 2);
        // Address order: [0,5] (addr 5) before [1,1] (addr 17).
        assert_eq!(c.point(0).to_vec(), vec![0, 5]);
        assert_eq!(c.point(1).to_vec(), vec![1, 1]);
        assert_eq!(payload.len(), 16);
    }

    #[test]
    fn consolidate_and_delete_invalidate_the_cache() {
        let e = StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_cache_capacity(1 << 20),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        e.read(&coords(&[[1, 1], [2, 2]])).unwrap();
        assert!(!e.cache().is_empty());
        let report = e.consolidate().unwrap();
        assert_eq!(report.merged_fragments, 2);
        // The merged fragment is the only cacheable thing left; the two
        // deleted fragments must be gone from the cache.
        assert!(e.cache().len() <= 1);
        assert_eq!(e.fragments().unwrap().len(), 1);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1], [2, 2]])).unwrap(),
            vec![Some(1.0), Some(2.0)]
        );
    }
}
