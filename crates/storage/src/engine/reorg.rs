//! Consolidation, adaptive re-organization, and export — everything that
//! rewrites the store from a full scan of it (DESIGN.md §13).

use super::commit::BuiltFragment;
use super::names::FragmentId;
use super::StorageEngine;
use crate::backend::StorageBackend;
use crate::catalog::CatalogEntry;
use crate::config::AdaptiveReorg;
use crate::error::{Result, StorageError};
use artsparse_core::advisor::recommend_from_stats;
use artsparse_core::stats::{SparsityStats, SparsityStatsBuilder};
use artsparse_core::{convert, FormatKind};
use artsparse_metrics::{charge, PhaseTimer, Span, SpanKind};
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

/// The advisor's verdict over measured statistics, under the policy's
/// access profile and candidate set.
fn advise(policy: &AdaptiveReorg, stats: &SparsityStats) -> FormatKind {
    recommend_from_stats(stats, &policy.profile.access_profile(), &policy.candidates).best()
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
    /// engine's configured one — and a store already consolidated down to
    /// a single fragment is *migrated* in place when the advisor (or the
    /// policy's pin) disagrees with its current organization, converging
    /// to a no-op once they agree.
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
        let adaptive = self.config.adaptive_reorg.as_ref();
        if snapshot.len() <= 1 {
            drop(snapshot_span);
            if let (Some(policy), [entry]) = (adaptive, &snapshot[..]) {
                if let Some(report) = self.migrate_single(entry, policy, before_bytes)? {
                    return Ok(report);
                }
            }
            return Ok(ConsolidateReport {
                merged_fragments: snapshot.len(),
                n_points: 0,
                before_bytes,
                after_bytes: before_bytes,
                fragment: None,
            });
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
            (Some(policy), Some(builder)) => {
                let _advise = Span::enter(&self.recorder, SpanKind::ConsolidateAdvise);
                let target = policy
                    .pin
                    .unwrap_or_else(|| advise(policy, &builder.finish()));
                let migrating = snapshot.iter().filter(|e| e.meta.kind != target).count() as u64;
                charge(|io| io.fragments_migrated += migrating);
                target
            }
            _ => self.kind,
        };

        // The merged scan is in linear-address order, so the re-encode
        // goes through the direct-conversion builders (sorts elided).
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

    /// Adaptive re-organization of a store already consolidated down to
    /// one fragment: characterize it, ask the advisor (or honor the
    /// policy's pin), and when the verdict differs from the fragment's
    /// current organization, re-encode it through the direct conversion
    /// layer — published and swept by the same routines as a full
    /// consolidation, so a crash in any window leaves the store readable
    /// in the old organization. Returns `None` when the fragment already
    /// has the advised organization: repeated passes converge to a no-op.
    fn migrate_single(
        &self,
        entry: &CatalogEntry,
        policy: &AdaptiveReorg,
        before_bytes: u64,
    ) -> Result<Option<ConsolidateReport>> {
        self.check_rewritable(entry)?;
        let decoded = self.fetch_decoded(entry)?;
        let source_kind = decoded.meta.kind;

        let advise_span = Span::enter(&self.recorder, SpanKind::ConsolidateAdvise);
        let target = match policy.pin {
            Some(pin) => pin,
            None => {
                let coords = source_kind
                    .create()
                    .enumerate(&decoded.index, &self.counter)?;
                let mut builder = SparsityStatsBuilder::new(self.shape.clone());
                for p in coords.iter() {
                    builder.push(p);
                }
                advise(policy, &builder.finish())
            }
        };
        drop(advise_span);
        if target == source_kind {
            return Ok(None);
        }

        // Same identity rule as a full pass: keep the source's sequence
        // number (the data is no newer than that), bump the
        // consolidation generation to outrank it.
        let sources = [entry.name.clone()];
        let id = FragmentId::replacing(&sources, self.epoch)?;

        let convert_span = Span::enter(&self.recorder, SpanKind::ConsolidateConvert);
        let conv = convert::convert(
            source_kind,
            &decoded.index,
            target,
            &self.shape,
            &self.counter,
        )?;
        let scattered = conv.map.as_ref().map(|map| {
            artsparse_tensor::permute::scatter_bytes(&decoded.values, self.elem_size as usize, map)
        });
        charge(|io| {
            io.fragments_migrated += 1;
            if conv.direct {
                io.conversions_direct += 1;
            } else {
                io.conversions_fallback += 1;
            }
        });
        let (name, _) = self.publish(
            BuiltFragment {
                kind: target,
                n_points: conv.n_points,
                bbox: decoded.meta.bbox.as_ref(),
                index: &conv.index,
                values: scattered.as_deref().unwrap_or(&decoded.values),
            },
            Some(id),
            Some(&sources),
            convert_span,
            &mut PhaseTimer::new(),
        )?;

        self.retire_sources(&sources, &name)?;
        Ok(Some(ConsolidateReport {
            merged_fragments: 1,
            n_points: conv.n_points,
            before_bytes,
            after_bytes: self.catalog.total_bytes(),
            fragment: Some(name),
        }))
    }

    /// Enumerate every stored point across all fragments (post-dedup), in
    /// linear-address order, with its value record. Runs over the same
    /// scan layer as [`StorageEngine::consolidate`].
    pub fn export(&self) -> Result<(CoordBuffer, Vec<u8>)> {
        // Buffered ingests are part of the store: group-commit them so
        // the scan layer sees them (a no-op when the buffer is empty).
        self.flush()?;
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
    use crate::config::EngineConfig;
    use crate::engine::test_support::{coords, engine};
    use artsparse_tensor::Shape;

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
