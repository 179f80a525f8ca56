//! WRITE and the fragment commit protocol (DESIGN.md §9).
//!
//! There is one way a fragment reaches the device: [`write_with`] builds
//! and encodes it — or each part of it, for a consolidation output cut
//! into a run of parts — and [`publish`] stages the bytes under invisible
//! `.tmp` names, durably records the delete set when the output replaces
//! other fragments, rename-commits (the last rename is the commit point),
//! and inserts the catalog entries. Plain writes, group commits, WAL
//! replay and consolidation (adaptive migration included) all go through
//! them, and [`retire_sources`] is the one sweep that deletes what a
//! committed output replaced. Recovery (tombstone replay or rollback,
//! orphan sweep) and epoch claiming — the other half of the protocol —
//! live here too.
//!
//! [`write_with`]: StorageEngine::write_with
//! [`publish`]: StorageEngine::publish
//! [`retire_sources`]: StorageEngine::retire_sources

use super::names::{
    epoch_marker_name, format_fragment_name, is_fragment_name, is_staged_name, next_seq,
    parse_epoch_marker, parse_fragment_name, parse_tombstone_name, staged_name, tombstone_name,
    FragmentId,
};
use super::{delete_if_present, StorageEngine};
use crate::backend::StorageBackend;
use crate::catalog::CatalogEntry;
use crate::error::{Result, StorageError};
use crate::fragment::{decode_meta, encode_fragment};
use artsparse_core::{build_from_address_sorted, FormatKind};
use artsparse_metrics::{charge, OpCounter, Span, SpanKind};
use artsparse_tensor::value::Element;
use artsparse_tensor::CoordBuffer;
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::atomic::Ordering;

/// What the recovery pass found and fixed, plus the epoch markers alive
/// on the store — the commit-protocol health counters
/// [`StorageEngine::stats`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch claim markers on the store (including this engine's own
    /// claim at open).
    pub epoch_markers: u64,
    /// Consolidation tombstones whose output had committed: their
    /// recorded deletions were replayed.
    pub tombstones_replayed: u64,
    /// Tombstones whose output never committed: the tombstone was
    /// discarded, the sources and any parts that had landed kept.
    pub tombstones_discarded: u64,
    /// Orphaned staging (`.tmp`) blobs swept.
    pub orphans_swept: u64,
}

/// Outcome of one WRITE call.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// Name of the fragment written.
    pub fragment: String,
    /// Bytes of encoded index.
    pub index_bytes: usize,
    /// Bytes of value payload.
    pub value_bytes: usize,
    /// Total fragment size (what Fig. 4 reports).
    pub total_bytes: usize,
    /// Points written.
    pub n_points: usize,
}

impl<B: StorageBackend> StorageEngine<B> {
    /// Algorithm 3 WRITE: package `coords`/`values` into a new fragment.
    ///
    /// `values` is an opaque payload of `elem_size`-byte records, one per
    /// point, in the same order as `coords`.
    ///
    /// Publication is crash-safe: a fragment either commits whole (one
    /// rename) or leaves only an invisible staging blob that recovery
    /// sweeps — readers, catalog reloads, and concurrent engines never
    /// observe a torn fragment.
    pub fn write(&self, coords: &CoordBuffer, values: &[u8]) -> Result<WriteReport> {
        self.health.check_writable()?;
        // A plain write is strictly newer than everything buffered:
        // group-commit the buffer first so its fragment takes a lower
        // sequence number and this write keeps last-write-wins
        // precedence over any buffered duplicate. The write's own id is
        // drawn with the flush's snapshot, so a batch acked after that
        // snapshot outranks this write on every path, replay included.
        // Like a flush, the write holds `flush_lock` until it commits.
        let held = self.flush_lock.lock();
        let (_, id) = self.flush_locked(&held, || self.draw_id())?;
        self.write_with(
            self.kind,
            coords,
            values,
            &[coords.len()],
            1,
            id,
            None,
            false,
        )
    }

    /// Typed WRITE convenience.
    pub fn write_points<V: Element>(
        &self,
        coords: &CoordBuffer,
        values: &[V],
    ) -> Result<WriteReport> {
        self.check_elem_size::<V>()?;
        self.write(coords, &artsparse_tensor::value::pack(values))
    }

    /// WRITE, optionally on behalf of a consolidation or WAL-replay pass:
    /// `kind` is the organization to encode (the engine's configured
    /// format for plain writes; adaptive consolidation passes the advised
    /// one), `part_ends` cuts the points into the fragments of one run —
    /// the end offset of each part, `[coords.len()]` for the one fragment
    /// every other write is — and `workers` is how many threads build and
    /// encode the parts ([`StorageEngine::fan_out`]; the stored bytes are
    /// the same at every width). `identity` is the fragment identity
    /// (consolidation derives it from the sources, replay reuses the
    /// WAL's own, flushes and plain writes draw the next id), `sources` names the
    /// fragments the output replaces (recorded in a tombstone before
    /// commit — consolidation only), and `presorted` promises the
    /// coordinates arrive in nondecreasing linear-address order — the
    /// order the consolidation merge scan and the buffer snapshot emit —
    /// so sorting builds route through [`build_from_address_sorted`] and
    /// elide their sort. The report sums over the parts and names the
    /// last one. Its time is the `engine.write` span's; Table III's
    /// phases are its children (`TelemetryReport::write_breakdown`).
    /// Publication is serial and in part order, whatever the width.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn write_with(
        &self,
        kind: FormatKind,
        coords: &CoordBuffer,
        values: &[u8],
        part_ends: &[usize],
        workers: usize,
        identity: FragmentId,
        sources: Option<&[String]>,
        presorted: bool,
    ) -> Result<WriteReport> {
        let _span = Span::enter(self.plane.as_ref(), SpanKind::Write);
        self.validate_batch(coords, values)?;
        let (ndim, elem) = (coords.ndim(), self.elem_size as usize);
        let parts: Vec<(usize, usize)> = (part_ends.iter())
            .scan(0, |start, &end| Some((std::mem::replace(start, end), end)))
            .collect();
        let encoded = self.fan_out(parts, workers, |(start, end), counter| {
            let part = if (start, end) == (0, coords.len()) {
                Cow::Borrowed(coords)
            } else {
                let flat = coords.as_flat()[start * ndim..end * ndim].to_vec();
                Cow::Owned(CoordBuffer::from_flat(ndim, flat)?)
            };
            let values = &values[start * elem..end * elem];
            self.encode(kind, &part, values, presorted, counter)
        })?;
        let index_bytes = encoded.iter().map(|(_, index_len)| index_len).sum();
        let frags: Vec<Vec<u8>> = encoded.into_iter().map(|(frag, _)| frag).collect();
        let fragment = self.publish(&frags, identity, sources)?;

        Ok(WriteReport {
            fragment,
            index_bytes,
            value_bytes: values.len(),
            total_bytes: frags.iter().map(Vec::len).sum(),
            n_points: coords.len(),
        })
    }

    /// Build, reorganize and encode one fragment of `coords`, charging
    /// `counter`; returns its bytes and its index length.
    fn encode(
        &self,
        kind: FormatKind,
        coords: &CoordBuffer,
        values: &[u8],
        presorted: bool,
        counter: &OpCounter,
    ) -> Result<(Vec<u8>, usize)> {
        let _encode = Span::enter(self.plane.as_ref(), SpanKind::WriteEncode);
        let bbox = coords.bounding_box();

        // -- Build: construct the organization -------------------------
        let built = {
            let _build = Span::enter(self.plane.as_ref(), SpanKind::WriteBuild);
            if presorted {
                let (built, direct) =
                    build_from_address_sorted(kind, coords, &self.shape, counter)?;
                charge(|io| {
                    if direct {
                        io.conversions_direct += 1;
                    } else {
                        io.conversions_fallback += 1;
                    }
                });
                built
            } else {
                kind.create().build(coords, &self.shape, counter)?
            }
        };

        // -- Reorg: permute values by the map ---------------------------
        let values_reorg = match built.map {
            None => Cow::Borrowed(values),
            Some(_) => {
                let _reorg = Span::enter(self.plane.as_ref(), SpanKind::WriteReorg);
                Cow::Owned(built.reorganize_values(values, self.elem_size as usize))
            }
        };

        // -- Concatenate (and optionally compress) b_frag ---------------
        let frag = encode_fragment(
            kind,
            &self.shape,
            coords.len() as u64,
            self.elem_size,
            bbox.as_ref(),
            &built.index,
            &values_reorg,
            self.index_codec,
            self.value_codec,
        );
        Ok((frag, built.index.len()))
    }

    /// The next plain fragment id of this engine's epoch.
    pub(super) fn draw_id(&self) -> FragmentId {
        FragmentId::plain(self.next_id.fetch_add(1, Ordering::SeqCst), self.epoch)
    }

    /// Publish one encoded run: commit `frags` under `id` (one fragment
    /// takes it, more are its parts `1..=k`) and catalog them. Returns the
    /// last committed name.
    ///
    /// The commit is two-phase: stage every fragment under a `.tmp` name
    /// invisible to discovery, durably record the delete set — one
    /// tombstone per run, keyed to its last fragment, listing the sources
    /// — when the run replaces `sources`, then rename each part in. The
    /// commit point is the *last* rename: until it lands, a crash leaves
    /// staged blobs recovery sweeps and renamed parts it keeps (they hold
    /// the sources' last-writer values and outrank them, so reads are
    /// unchanged and the next pass folds them); after it, a crash leaves
    /// a tombstone recovery replays. Table III's Write row is the spans
    /// of this device work.
    fn publish(
        &self,
        frags: &[Vec<u8>],
        id: FragmentId,
        sources: Option<&[String]>,
    ) -> Result<String> {
        let names: Vec<String> = id
            .parts(frags.len())?
            .into_iter()
            .map(format_fragment_name)
            .collect();
        let last = names.last().ok_or_else(|| StorageError::Mismatch {
            reason: "a publish needs at least one fragment".into(),
        })?;
        let tombstone = sources.map(|sources| (tombstone_name(last), sources.join("\n") + "\n"));

        // -- Write: persist the fragments (line 7) ----------------------
        let staged: Vec<String> = names.iter().map(|name| staged_name(name)).collect();
        let in_flight = || {
            staged
                .iter()
                .chain(tombstone.as_ref().map(|(tomb, _)| tomb))
        };
        self.inflight.lock().extend(in_flight().cloned());
        let mut renamed = 0;
        let commit =
            self.stage_and_rename(frags, &staged, &names, tombstone.as_ref(), &mut renamed);
        {
            let mut inflight = self.inflight.lock();
            for name in in_flight() {
                inflight.remove(name);
            }
        }
        if commit.is_err() {
            // Best effort: the parts that landed first, the tombstone
            // last. Only the writer knows its run is dead, so only this
            // path takes landed parts back; whatever it misses is a
            // partial run recovery keeps, and staged orphans are swept.
            for name in names[..renamed].iter().chain(&staged[renamed..]) {
                let _ = self.backend.delete(name);
            }
            if let Some((tomb, _)) = &tombstone {
                let _ = self.backend.delete(tomb);
            }
        }
        self.health.note_write(&self.config.health, &commit);
        commit?;

        // Catalog maintenance: decode the headers we just encoded (pure
        // memory) so discovery never needs to ask the device about them.
        for (name, frag) in names.iter().zip(frags) {
            let meta = decode_meta(name, frag)?;
            self.catalog.insert(CatalogEntry {
                name: name.clone(),
                meta,
                size: frag.len() as u64,
            });
        }
        Ok(last.clone())
    }

    /// The device work of [`publish`](Self::publish), Table III's Write
    /// row: stage `frags` under `staged`, make the `tombstone` durable,
    /// then rename each part to its name in `names`, counting the renames
    /// that landed in `renamed`.
    fn stage_and_rename(
        &self,
        frags: &[Vec<u8>],
        staged: &[String],
        names: &[String],
        tombstone: Option<&(String, String)>,
        renamed: &mut usize,
    ) -> Result<()> {
        {
            let _stage = Span::enter(self.plane.as_ref(), SpanKind::WriteStage);
            for (staged, frag) in staged.iter().zip(frags) {
                self.retry_write(staged, || self.backend.put(staged, frag))?;
            }
        }
        if let Some((tomb, body)) = tombstone {
            // The delete set must be durable *before* the commit: a
            // crash right after the last rename must still delete the
            // sources, or the store doubles its points.
            let _tomb = Span::enter(self.plane.as_ref(), SpanKind::ConsolidateTombstone);
            self.retry_write(tomb, || self.backend.put_atomic(tomb, body.as_bytes()))?;
        }
        let _commit = Span::enter(
            self.plane.as_ref(),
            if tombstone.is_some() {
                SpanKind::ConsolidateCommit
            } else {
                SpanKind::WriteCommit
            },
        );
        for (staged, name) in staged.iter().zip(names) {
            self.retry_write(name, || self.backend.rename(staged, name))?;
            *renamed += 1;
        }
        Ok(())
    }

    /// Delete the fragments that the run committed at `replacement` (its
    /// last part) replaced. Its tombstone guarantees the deletions happen
    /// even if this process dies mid-loop (recovery replays them); a
    /// source already gone (racing deleter, replayed tombstone) is fine.
    pub(super) fn retire_sources(&self, sources: &[String], replacement: &str) -> Result<()> {
        let _sweep = Span::enter(self.plane.as_ref(), SpanKind::ConsolidateSweep);
        for name in sources {
            // Catalog first: a read racing these deletions then treats
            // the source as vanished instead of failing on NotFound.
            self.catalog.remove(name);
            self.cache.invalidate(name);
            self.retry_write(name, || delete_if_present(&self.backend, name))?;
        }
        // The deletions are done; the tombstone is spent. Best effort —
        // recovery replays a leftover as a no-op.
        let _ = self.backend.delete(&tombstone_name(replacement));
        Ok(())
    }

    /// Delete one fragment: catalog entry, any cached decode, and the
    /// device blob — in that order, so a read racing this delete that
    /// hits NotFound on the blob finds the catalog already updated and
    /// treats the fragment as vanished (skip/re-plan) instead of failing.
    pub fn delete_fragment(&self, name: &str) -> Result<()> {
        let known = self.catalog.remove(name).is_some();
        self.cache.invalidate(name);
        if known {
            // Tolerate a blob already gone if we did know the fragment —
            // the racing deleter finished first; the outcome stands.
            delete_if_present(&self.backend, name)
        } else {
            self.backend.delete(name)
        }
    }

    /// Resynchronize the catalog with the device (after an external
    /// writer changed it) and drop the cache. Runs the same recovery as
    /// open first — an external writer may have crashed mid-commit —
    /// while sparing staging blobs of commits in flight in this engine.
    /// The id sequence advances past any newly discovered fragments.
    pub fn refresh(&self) -> Result<()> {
        let span = Span::enter(self.plane.as_ref(), SpanKind::Recover);
        let keep = self.inflight.lock().clone();
        // The listing already contains this engine's own epoch marker.
        let recovery = recover_store(&self.backend, Some(&keep))?;
        *self.recovery.lock() = recovery;
        self.catalog
            .reload(&self.backend, self.shape.ndim(), is_fragment_name)?;
        drop(span);
        self.cache.clear();
        self.next_id
            .fetch_max(next_seq(&self.catalog.names()), Ordering::SeqCst);
        Ok(())
    }
}

/// Claim a fresh epoch: start past every epoch already visible (markers
/// and fragment names), then race create-exclusive puts until one wins.
pub(super) fn claim_epoch<B: StorageBackend>(backend: &B) -> Result<u64> {
    let mut epoch: u64 = 1;
    for name in backend.list()? {
        if let Some(e) = parse_epoch_marker(&name) {
            epoch = epoch.max(e + 1);
        } else if let Some(id) = parse_fragment_name(&name) {
            epoch = epoch.max(id.epoch + 1);
        }
    }
    loop {
        match backend.put_exclusive(&epoch_marker_name(epoch), &[]) {
            Ok(()) => return Ok(epoch),
            Err(e) if e.is_already_exists() => epoch += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Crash recovery over a store: replay or roll back consolidation
/// tombstones, then sweep orphaned staging blobs. Runs before the
/// catalog is (re)built so recovered state is what gets cataloged.
///
/// A tombstone is keyed to its run's last fragment. If that fragment
/// exists the run committed, and the sources it lists are deleted;
/// otherwise only the tombstone goes. The parts of an uncommitted run
/// that did land are kept: each holds the merged last-writer values of
/// its rows and outranks the sources (same highest `seq`, higher `cgen`),
/// so reads do not change, and the sources plus a partial run are at
/// least two runs the next pass folds. Either way the tombstone goes
/// last, so a crash inside recovery is recovered again.
///
/// `keep` names staging blobs and tombstones that belong to commits in
/// flight *in this process* and must survive; at open there are none.
pub(super) fn recover_store<B: StorageBackend>(
    backend: &B,
    keep: Option<&HashSet<String>>,
) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let names = backend.list()?;
    let kept = |name: &String| keep.is_some_and(|k| k.contains(name));
    for name in &names {
        if parse_epoch_marker(name).is_some() {
            report.epoch_markers += 1;
            continue;
        }
        let Some(target) = parse_tombstone_name(name) else {
            continue;
        };
        if kept(name) {
            continue;
        }
        if backend.exists(target) {
            // The run committed: finish the deletions it recorded.
            // Idempotent — already-deleted sources are fine.
            let content = backend.get(name)?;
            for src in String::from_utf8_lossy(&content)
                .lines()
                .filter(|l| !l.is_empty())
            {
                delete_if_present(backend, src)?;
            }
            report.tombstones_replayed += 1;
        } else {
            // The run never committed — or is committing in another
            // engine, which nothing here can tell apart. Landed parts stay:
            // deleting them could race the writer's last renames.
            report.tombstones_discarded += 1;
        }
        // Committed-and-replayed or never-committed: either way the
        // tombstone is spent.
        delete_if_present(backend, name)?;
    }
    for name in &names {
        if !is_staged_name(name) || kept(name) {
            continue;
        }
        delete_if_present(backend, name)?;
        report.orphans_swept += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::config::EngineConfig;
    use crate::engine::test_support::{coords, engine};
    use crate::engine::HealthState;
    use artsparse_tensor::Shape;
    use std::time::Duration;

    #[test]
    fn rejects_mismatched_values() {
        let e = engine(FormatKind::Coo);
        let c = coords(&[[1, 1]]);
        assert!(matches!(
            e.write(&c, &[0u8; 4]),
            Err(StorageError::Mismatch { .. })
        ));
    }

    #[test]
    fn rejects_out_of_shape_coords() {
        let e = engine(FormatKind::Coo);
        let c = coords(&[[99, 1]]);
        assert!(e.write(&c, &[0u8; 8]).is_err());
    }

    #[test]
    fn empty_write_and_empty_read() {
        let e = engine(FormatKind::Linear);
        let report = e.write_points::<f64>(&CoordBuffer::new(2), &[]).unwrap();
        assert_eq!(report.n_points, 0);
        // Empty fragment has no bbox, so reads never match it.
        let r = e.read(&coords(&[[1, 1]])).unwrap();
        assert_eq!(r.fragments_matched, 0);
        // Empty query short-circuits.
        let r = e.read(&CoordBuffer::new(2)).unwrap();
        assert!(r.hits.is_empty());
    }

    #[test]
    fn id_sequence_continues_after_reopen() {
        let backend = MemBackend::new();
        let shape = Shape::new(vec![8, 8]).unwrap();
        let e1 = StorageEngine::open(backend, FormatKind::Coo, shape.clone(), 8).unwrap();
        let r1 = e1.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let backend = e1.backend; // move out (MemBackend owns the blobs)
        let e2 = StorageEngine::open(backend, FormatKind::Coo, shape, 8).unwrap();
        let r2 = e2.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        assert!(r2.fragment > r1.fragment);
        assert_eq!(e2.fragments().unwrap().len(), 2);
        assert!(e2.total_stored_bytes().unwrap() > 0);
    }

    #[test]
    fn epochs_are_claimed_exclusively() {
        let backend = MemBackend::new();
        assert_eq!(claim_epoch(&backend).unwrap(), 1);
        assert_eq!(claim_epoch(&backend).unwrap(), 2);
        // A fragment from a crashed engine whose marker was never written
        // still pushes the claim past its epoch.
        backend.put("frag-00000001-00000009.asf", &[0]).unwrap();
        assert_eq!(claim_epoch(&backend).unwrap(), 10);
    }

    #[test]
    fn recovery_discards_uncommitted_and_replays_committed_tombstones() {
        let backend = MemBackend::new();
        let frag = "frag-00000002-00000001c000001.asf";
        // Uncommitted: tombstone exists, target never renamed in.
        backend.put("frag-00000001-00000001.asf", &[1]).unwrap();
        backend
            .put(&tombstone_name(frag), b"frag-00000001-00000001.asf\n")
            .unwrap();
        backend.put(&staged_name(frag), &[9]).unwrap();
        recover_store(&backend, None).unwrap();
        assert!(backend.exists("frag-00000001-00000001.asf"));
        assert!(!backend.exists(&tombstone_name(frag)));
        assert!(!backend.exists(&staged_name(frag)));

        // Committed: target present → sources deleted, tombstone spent.
        backend.put(frag, &[2]).unwrap();
        backend
            .put(&tombstone_name(frag), b"frag-00000001-00000001.asf\n")
            .unwrap();
        recover_store(&backend, None).unwrap();
        assert!(backend.exists(frag));
        assert!(!backend.exists("frag-00000001-00000001.asf"));
        assert!(!backend.exists(&tombstone_name(frag)));

        // `keep` protects an in-flight staging blob from the sweep.
        let inflight = staged_name("frag-00000005-00000001.asf");
        backend.put(&inflight, &[3]).unwrap();
        let keep: std::collections::HashSet<String> = [inflight.clone()].into();
        recover_store(&backend, Some(&keep)).unwrap();
        assert!(backend.exists(&inflight));
    }

    #[test]
    fn recovery_keeps_the_landed_parts_of_an_uncommitted_run() {
        let backend = MemBackend::new();
        let source = "frag-00000001-00000001.asf";
        let parts = [
            "frag-00000001-00000002c000001p0001.asf",
            "frag-00000001-00000002c000001p0002.asf",
            "frag-00000001-00000002c000001p0003.asf",
        ];
        let tomb = tombstone_name(parts[2]);
        let body = format!("{source}\n");
        backend.put(source, &[1]).unwrap();
        // Killed after the first rename: one part landed, two staged.
        backend.put(parts[0], &[2]).unwrap();
        backend.put(&staged_name(parts[1]), &[3]).unwrap();
        backend.put(&staged_name(parts[2]), &[4]).unwrap();
        backend.put(&tomb, body.as_bytes()).unwrap();

        // A commit in flight in this process keeps its tombstone.
        let keep: HashSet<String> =
            [tomb.clone(), staged_name(parts[1]), staged_name(parts[2])].into();
        recover_store(&backend, Some(&keep)).unwrap();
        assert_eq!(
            backend.list().unwrap().len(),
            5,
            "nothing of the live commit reaped"
        );

        // Not committed: the tombstone and the staged parts go; the
        // sources and the part that landed stay.
        let report = recover_store(&backend, None).unwrap();
        assert_eq!((report.tombstones_discarded, report.orphans_swept), (1, 2));
        assert_eq!(backend.list().unwrap(), [source, parts[0]]);

        // Committed: the last part landed, so the sources go.
        for part in parts {
            backend.put(part, &[2]).unwrap();
        }
        backend.put(&tomb, body.as_bytes()).unwrap();
        let report = recover_store(&backend, None).unwrap();
        assert_eq!(report.tombstones_replayed, 1);
        assert_eq!(backend.list().unwrap(), parts, "the parts alone");
    }

    #[test]
    fn delete_fragment_and_refresh_track_the_device() {
        let e = engine(FormatKind::Coo);
        let r1 = e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        e.delete_fragment(&r1.fragment).unwrap();
        assert_eq!(e.fragments().unwrap().len(), 1);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1], [2, 2]])).unwrap(),
            vec![None, Some(2.0)]
        );

        // An external writer adds a blob behind the engine's back: the
        // catalog only sees it after refresh.
        let other = engine(FormatKind::Coo);
        other
            .write_points::<f64>(&coords(&[[3, 3]]), &[3.0])
            .unwrap();
        let blob = other.backend().get(&other.fragments().unwrap()[0]).unwrap();
        e.backend()
            .put("frag-00000099-00000009.asf", &blob)
            .unwrap();
        assert_eq!(e.fragments().unwrap().len(), 1);
        e.refresh().unwrap();
        assert_eq!(e.fragments().unwrap().len(), 2);
        // The id sequence moved past the discovered fragment.
        let r = e.write_points::<f64>(&coords(&[[4, 4]]), &[4.0]).unwrap();
        assert!(r.fragment.as_str() > "frag-00000099-00000009.asf");
    }

    #[test]
    fn transient_write_faults_are_retried_to_success() {
        use crate::config::RetryPolicy;
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_write_retry(RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::ZERO,
            }),
        )
        .unwrap();
        // Two flaky puts, then the device heals: the WAL append lands on
        // the third attempt and the batch is acked normally.
        e.backend().fail_next_writes(2);
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        assert_eq!(e.backend().write_faults_remaining(), 0);
        assert_eq!(e.health(), HealthState::Healthy);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1]])).unwrap(),
            vec![Some(1.0)]
        );
        // Plain writes retry through commit_fragment too.
        e.backend().fail_next_writes(2);
        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        assert_eq!(e.health(), HealthState::Healthy);
    }

    #[test]
    fn mixed_format_fragments_read_together() {
        // Fragments self-describe: an engine can read fragments written
        // under a different organization.
        let backend = MemBackend::new();
        let shape = Shape::new(vec![16, 16]).unwrap();
        let e_coo = StorageEngine::open(backend, FormatKind::Coo, shape.clone(), 8).unwrap();
        e_coo
            .write_points::<f64>(&coords(&[[1, 1]]), &[1.0])
            .unwrap();
        let e_csf = StorageEngine::open(e_coo.backend, FormatKind::Csf, shape, 8).unwrap();
        e_csf
            .write_points::<f64>(&coords(&[[2, 2]]), &[2.0])
            .unwrap();
        let vals = e_csf
            .read_values::<f64>(&coords(&[[1, 1], [2, 2]]))
            .unwrap();
        assert_eq!(vals, vec![Some(1.0), Some(2.0)]);
    }
}
