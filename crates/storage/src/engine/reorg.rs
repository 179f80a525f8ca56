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
use artsparse_tensor::CoordBuffer;
use std::sync::Arc;

/// Outcome of a consolidation pass.
#[derive(Debug, Clone)]
pub struct ConsolidateReport {
    /// Fragments merged (and deleted).
    pub merged_fragments: usize,
    /// Points in the consolidated fragment (after dedup).
    pub n_points: usize,
    /// Store size before.
    pub before_bytes: u64,
    /// Store size after.
    pub after_bytes: u64,
    /// Name of the new fragment (`None` if nothing needed merging).
    pub fragment: Option<String>,
}

/// The merged view of a store: linear address → (coordinate, record),
/// in canonical address order.
type MergedPoints = std::collections::BTreeMap<u64, (Vec<u64>, Vec<u8>)>;

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
    /// fragments the most recently written one wins. The BTreeMap gives
    /// canonical linear-address order.
    fn merged_points_from(&self, entries: &[Arc<CatalogEntry>]) -> Result<MergedPoints> {
        let mut merged = MergedPoints::new();
        for entry in entries {
            let name = &entry.name;
            self.check_rewritable(entry)?;
            let decoded = self.fetch_decoded(entry)?;
            let org = decoded.meta.kind.create();
            let coords = org.enumerate(&decoded.index, &self.counter)?;
            let elem = decoded.meta.elem_size as usize;
            let mut this_fragment = MergedPoints::new();
            for (slot, p) in coords.iter().enumerate() {
                let addr = self.shape.linearize(p)?;
                let record = decoded
                    .values
                    .get(slot * elem..(slot + 1) * elem)
                    .ok_or_else(|| {
                        StorageError::corrupt(name, "enumerated more slots than records")
                    })?
                    .to_vec();
                // First (lowest) slot wins within the fragment.
                this_fragment.entry(addr).or_insert((p.to_vec(), record));
            }
            // Later fragments override earlier ones.
            merged.extend(this_fragment);
        }
        Ok(merged)
    }

    /// Merge every fragment into one (TileDB-style consolidation).
    ///
    /// Runs over the same scan layer as [`StorageEngine::export`]: each
    /// fragment's index is enumerated back into coordinates, values are
    /// deduplicated with the same last-writer-wins rule as
    /// [`StorageEngine::read`], and one new fragment is written under the
    /// engine's current organization and codecs; the source fragments are
    /// deleted (and their cache entries invalidated).
    ///
    /// With [`EngineConfig::adaptive_reorg`](crate::config::EngineConfig)
    /// set, the pass additionally characterizes the merged region's
    /// sparsity during that same scan (no extra pass over the points),
    /// runs the advisor's cost model over the measured statistics, and
    /// encodes the output in the winning organization instead of the
    /// engine's configured one. A store already consolidated down to a
    /// single fragment takes the same path — merged, characterized,
    /// advised — and is rewritten only when the advice differs from its
    /// current organization, so repeated passes converge to a no-op.
    ///
    /// The pass is transactional: one catalog snapshot drives both the
    /// merge and the delete set; the delete set is recorded in a tombstone
    /// that commits (atomically) before the consolidated fragment does, so
    /// a crash in any window either discards the whole pass or replays the
    /// deletions at the next open/refresh — never a store with both the
    /// merged fragment and a partial set of its sources counted twice.
    /// The consolidated fragment takes the *highest source* sequence
    /// number (with a consolidation-generation tiebreaker just above the
    /// sources), so a fragment written concurrently while the pass ran
    /// keeps precedence over the merged output instead of being shadowed.
    pub fn consolidate(&self) -> Result<ConsolidateReport> {
        let _span = Span::enter(&self.recorder, SpanKind::Consolidate);
        // Buffered ingests belong in the merge: group-commit them first
        // so the pass sees them as an ordinary source fragment (a no-op
        // when the buffer is empty).
        self.flush()?;
        let _guard = self.consolidate_lock.lock();
        // ONE snapshot drives everything below: the merge input, the new
        // fragment's identity, and the delete set. Fragments written
        // after this point are untouched and outrank the merged output.
        let snapshot_span = Span::enter(&self.recorder, SpanKind::ConsolidateSnapshot);
        let snapshot = self.catalog.snapshot();
        let before_bytes: u64 = snapshot.iter().map(|e| e.size).sum();
        let adaptive = self.config.adaptive_reorg;
        let unchanged = ConsolidateReport {
            merged_fragments: snapshot.len(),
            n_points: 0,
            before_bytes,
            after_bytes: before_bytes,
            fragment: None,
        };
        // Nothing to merge and nothing to re-organize: no fragments, or
        // one without an adaptive policy.
        if snapshot.is_empty() || (snapshot.len() == 1 && adaptive.is_none()) {
            return Ok(unchanged);
        }
        let sources: Vec<String> = snapshot.iter().map(|e| e.name.clone()).collect();
        let id = FragmentId::replacing(&sources, self.epoch)?;
        drop(snapshot_span);

        let merge_span = Span::enter(&self.recorder, SpanKind::ConsolidateMerge);
        let merged = self.merged_points_from(&snapshot)?;
        let mut coords = CoordBuffer::with_capacity(self.shape.ndim(), merged.len());
        let mut payload = Vec::with_capacity(merged.len() * self.elem_size as usize);
        // Characterization rides the merge scan: the stats accumulate on
        // the points the loop already visits, so adaptive mode adds no
        // extra pass over the data.
        let mut characterize = adaptive.map(|_| SparsityStatsBuilder::new(self.shape.clone()));
        for (coord, record) in merged.values() {
            coords.push(coord)?;
            payload.extend_from_slice(record);
            if let Some(builder) = characterize.as_mut() {
                builder.push(coord);
            }
        }
        drop(merge_span);

        let target = match (adaptive, characterize) {
            (Some(profile), Some(builder)) => {
                let _advise = Span::enter(&self.recorder, SpanKind::ConsolidateAdvise);
                let target =
                    recommend_from_stats(&builder.finish(), &profile.access_profile(), &[]).best();
                // A lone fragment already in the advised organization has
                // converged: rewriting it would only fold duplicates.
                if matches!(&snapshot[..], [only] if only.meta.kind == target) {
                    return Ok(unchanged);
                }
                let migrating = snapshot.iter().filter(|e| e.meta.kind != target).count() as u64;
                charge(|io| io.fragments_migrated += migrating);
                target
            }
            _ => self.kind,
        };

        // The merged scan is in linear-address order, so the re-encode
        // goes through the presorted builders (sorts elided).
        let convert_span =
            adaptive.map(|_| Span::enter(&self.recorder, SpanKind::ConsolidateConvert));
        let report = self.write_with(target, &coords, &payload, Some(id), Some(&sources), true)?;
        drop(convert_span);

        self.retire_sources(&sources, &report.fragment)?;
        Ok(ConsolidateReport {
            merged_fragments: sources.len(),
            n_points: coords.len(),
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
        let merged = self.merged_points_from(&self.catalog.snapshot())?;
        let mut coords = CoordBuffer::with_capacity(self.shape.ndim(), merged.len());
        let mut payload = Vec::new();
        for (coord, record) in merged.values() {
            coords.push(coord)?;
            payload.extend_from_slice(record);
        }
        Ok((coords, payload))
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
