//! Consolidation, adaptive re-organization, and export — everything that
//! rewrites the store from a full scan of it (DESIGN.md §13).

use super::names::FragmentId;
use super::read::planned_workers;
use super::StorageEngine;
use crate::backend::StorageBackend;
use crate::catalog::{CatalogEntry, PageEntry};
use crate::error::{Result, StorageError};
use artsparse_core::advisor::recommend_from_stats;
use artsparse_core::stats::SparsityStatsBuilder;
use artsparse_metrics::{charge, OpCounter, Span, SpanKind};
use artsparse_tensor::sort::{last_per_address, sort_by_address};
use artsparse_tensor::CoordBuffer;
use std::sync::Arc;

/// The most points a consolidation page holds, unless one dim-0 slice
/// alone is larger. A point read fetches one page's index instead of the
/// whole output's; a larger cap keeps fewer pages, and so fewer headers,
/// on the device. It equals [`IngestConfig::flush_points`]' default, the
/// point count at which the buffer group-commits, but a group commit is
/// cut finer ([`COMMIT_PAGE_POINTS`]).
///
/// [`IngestConfig::flush_points`]: crate::config::IngestConfig::flush_points
pub const PAGE_POINTS: usize = 4096;

/// The most points a page of a group commit (and of a replayed WAL batch)
/// holds, unless one dim-0 slice alone is larger. A group commit is cut
/// finer than a consolidation ([`PAGE_POINTS`]) because the two stay on
/// the device for different spans. A group commit of random ingest spans
/// the whole tensor, so every point query overlaps it, and a served
/// store holds about twenty of them between passes: cut into small
/// dim-0-disjoint pages, a point read fetches and checks one small page
/// of each instead of its whole index. It is transient, too — the scheduler's next pass
/// merges it — so the extra header per page is paid briefly. A
/// consolidated blob is what stays on the device: a finer cut there adds
/// a header per page to every stored byte (with both cuts at 2 048,
/// stored bytes per point read up to 0.4 % more on the served
/// workloads), so it keeps the coarser cap and the stored bytes stay as
/// they were. Of the sweep of 512,
/// 1 024 and 2 048 recorded in EXPERIMENTS.md, 512 read about 10 % lower
/// served GET latency than 1 024 but doubles the pages every plan scans
/// and every consolidation fetches; 2 048 read about 7 % higher. A group
/// commit of at most this many points, and every plain
/// [`write`](StorageEngine::write), is one page.
pub const COMMIT_PAGE_POINTS: usize = 1024;

/// Outcome of a consolidation pass.
#[derive(Debug, Clone)]
pub struct ConsolidateReport {
    /// Source fragments merged (and deleted); a store of one fragment is
    /// already consolidated.
    pub merged_fragments: usize,
    /// Points in the output, over all its pages (after dedup).
    pub n_points: usize,
    /// Pages the output was cut into (0 when nothing was written).
    pub pages: usize,
    /// Store size before.
    pub before_bytes: u64,
    /// Store size after.
    pub after_bytes: u64,
    /// Name of the output (`None` if nothing needed merging).
    pub fragment: Option<String>,
}

/// Where the address-sorted `coords` are cut into pages of at most `cap`
/// points: the end offset of each. A cut falls only where coordinate 0
/// changes, so the pages are disjoint on dim 0 and a point query meets
/// one of them; a dim-0 slice larger than `cap` stays whole as one page.
pub(super) fn page_ends(coords: &CoordBuffer, cap: usize) -> Vec<usize> {
    let row = |i: usize| coords.point(i).first().copied();
    let (mut ends, mut page, mut slice) = (Vec::new(), 0, 0);
    for i in 1..=coords.len() {
        if i < coords.len() && row(i) == row(i - 1) {
            continue;
        }
        // `slice..i` is one dim-0 slice; close the page before it if the
        // page cannot take it.
        if i - page > cap && slice > page {
            ends.push(slice);
            page = slice;
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

/// How many times a consolidation pass fans out, each a spawn and a join
/// of its workers: the merge's source pages, its ranges' sorts, its
/// ranges' gathers, and the re-encode's pages.
const MERGE_ROUNDS: u64 = 4;

/// One merge record: a point's linear address, then where it came from —
/// the source page's position in the merge and the point's slot in it.
type Record = (u64, (u32, u32));

/// Cut the addresses of `records` (none above `top`) into at most `ranges`
/// contiguous ranges of about equal record counts, each an address range
/// and how many records fall in it. The cut is read off a histogram of
/// the top 11 bits (one digit of the address sort), so a range's share
/// is off by at most one bucket's records; a run of equal addresses is
/// never split.
fn address_ranges(
    records: &[Record],
    top: u64,
    ranges: usize,
) -> Vec<(std::ops::Range<u64>, usize)> {
    const BUCKETS: usize = 1 << 11;
    let shift = (u64::BITS - top.leading_zeros()).saturating_sub(BUCKETS.trailing_zeros());
    let mut counts = [0usize; BUCKETS];
    for r in records {
        counts[(r.0 >> shift) as usize] += 1;
    }
    let (mut cut, mut lo, mut seen) = (Vec::with_capacity(ranges), 0u64, 0usize);
    let mut in_range = 0;
    for (b, &count) in counts[..BUCKETS - 1].iter().enumerate() {
        in_range += count;
        seen += count;
        // Close the range once it holds its share of everything so far.
        if cut.len() + 1 < ranges && seen * ranges >= records.len() * (cut.len() + 1) {
            let hi = ((b as u64) + 1) << shift;
            cut.push((lo..hi, in_range));
            (lo, in_range) = (hi, 0);
        }
    }
    cut.push((lo..u64::MAX, in_range + counts[BUCKETS - 1]));
    cut.retain(|(_, n)| *n > 0);
    cut
}

impl<B: StorageBackend> StorageEngine<B> {
    /// A page about to be rewritten must store this engine's tensor:
    /// same shape, same record size.
    fn check_rewritable(&self, page: &PageEntry) -> Result<()> {
        self.check_entry_shape(page)?;
        if page.meta.elem_size != self.elem_size {
            return Err(StorageError::Mismatch {
                reason: format!(
                    "fragment {} stores {}-byte records, engine {}",
                    page.name, page.meta.elem_size, self.elem_size
                ),
            });
        }
        Ok(())
    }

    /// How many threads a merge of `blobs` runs on: the read path's rule
    /// ([`planned_workers`]) over the bytes each page's fetch moves —
    /// both sections, one enumerating pass — with every worker paid for
    /// once per fan-out round of the pass ([`MERGE_ROUNDS`]), unless a
    /// test forces the width.
    fn merge_width(&self, blobs: &[Arc<CatalogEntry>], forced: Option<usize>) -> usize {
        forced.unwrap_or_else(|| {
            let per_round = |page: &Arc<PageEntry>| {
                let meta = &page.meta;
                meta.index_len.saturating_add(meta.value_len) / MERGE_ROUNDS
            };
            planned_workers(
                self.config.effective_parallelism(),
                blobs.iter().flat_map(|blob| &blob.pages).map(per_round),
                1,
            )
        })
    }

    /// The shared fragment-scan layer: decode every page of `blobs` (a
    /// resident decode if the cache holds one; a merge never fills it)
    /// and merge its points with the engine's exact read precedence —
    /// within a fragment the *lowest* slot wins (every format's read
    /// scans/searches to the first matching record); across fragments the
    /// most recently written one wins. The output is flat and in canonical
    /// linear-address order: the coordinates and value records
    /// `write_with(.., presorted = true)` takes.
    ///
    /// One `(address, (fragment, slot))` record per enumerated point,
    /// slots pushed high to low, then one stable address sort: the last
    /// record of each address is the newest fragment's lowest slot. The
    /// pass runs on `workers` threads ([`StorageEngine::fan_out`]) in two
    /// stages, each writing into buffers this thread sized and allocated:
    ///
    /// 1. **per source page** — fetch, verify, decode, enumerate,
    ///    linearize into the page's own slice of one record vector and copy its
    ///    value records into its slice of one flat array, both sized from
    ///    the catalog's point counts;
    /// 2. **per address range** — contiguous ranges cut from a histogram
    ///    of the addresses: each range gathers its records (input order
    ///    kept, so precedence is), sorts them, and then writes its
    ///    survivors — coordinates decoded from the address, value records
    ///    copied — into its slice of the output, placed by a prefix sum of
    ///    the ranges' survivor counts.
    ///
    /// Equal addresses never straddle two ranges, so the output is the
    /// one-range output at every width.
    fn merged_points_from(
        &self,
        blobs: &[Arc<CatalogEntry>],
        workers: usize,
    ) -> Result<(CoordBuffer, Vec<u8>)> {
        let (ndim, elem) = (self.shape.ndim(), self.elem_size as usize);
        let pages: Vec<&PageEntry> = blobs.iter().flat_map(|b| &b.pages).map(|p| &**p).collect();
        // Stage 1: per source page, each into its slices of one record
        // vector and one flat copy of every page's value records.
        record_field(pages.len().saturating_sub(1), "merged fragment index")?;
        let total = (pages.iter())
            .try_fold(0usize, |sum, page| {
                sum.checked_add(usize::try_from(page.meta.n).ok()?)
            })
            .filter(|total| total.checked_mul(ndim.max(elem)).is_some())
            .ok_or_else(|| StorageError::Mismatch {
                reason: "the merged fragments' point counts overflow".into(),
            })?;
        let mut order: Vec<Record> = vec![(0, (0, 0)); total];
        let mut records = vec![0u8; total * elem];
        let mut rest = (&mut order[..], &mut records[..], 0);
        let jobs = pages.iter().enumerate().map(|(f, page)| {
            let n = page.meta.n as usize;
            let (order, records, start) = std::mem::take(&mut rest);
            let (o, o_tail) = order.split_at_mut(n);
            let (v, v_tail) = records.split_at_mut(n * elem);
            rest = (o_tail, v_tail, start + n);
            (f as u32, *page, o, v, start)
        });
        let sources = self.fan_out(jobs, workers, |(f, page, o, v, start), counter| {
            let top = self.linearize_source(f, page, o, v, counter)?;
            Ok((start, top))
        })?;

        // Stage 2: per address range — sort, count the survivors, then
        // gather them into the range's slice of the output.
        let sorted = |mut run: Vec<Record>| {
            sort_by_address(&mut run);
            let survivors = last_per_address(&run).count();
            (run, survivors)
        };
        let runs: Vec<(Vec<Record>, usize)> = if workers > 1 && total > 0 {
            let top = sources.iter().map(|&(_, top)| top).max().unwrap_or(0);
            let jobs: Vec<_> = (address_ranges(&order, top, workers).into_iter())
                .map(|(addrs, n)| (addrs, Vec::with_capacity(n)))
                .collect();
            let order = &order;
            self.fan_out(jobs, workers, |(addrs, mut run), _| {
                run.extend(order.iter().filter(|r| addrs.contains(&r.0)));
                Ok(sorted(run))
            })?
        } else {
            vec![sorted(std::mem::take(&mut order))]
        };
        drop(order);
        let survivors: usize = runs.iter().map(|(_, n)| n).sum();
        let mut coords = vec![0u64; survivors * ndim];
        let mut payload = vec![0u8; survivors * elem];
        let (mut coords_rest, mut payload_rest) = (&mut coords[..], &mut payload[..]);
        let jobs = runs.into_iter().map(|(run, n)| {
            let (c, c_tail) = std::mem::take(&mut coords_rest).split_at_mut(n * ndim);
            let (p, p_tail) = std::mem::take(&mut payload_rest).split_at_mut(n * elem);
            (coords_rest, payload_rest) = (c_tail, p_tail);
            (run, c, p)
        });
        self.fan_out(jobs, workers, |(run, coords, payload), _| {
            for (k, &(addr, (f, slot))) in last_per_address(&run).enumerate() {
                // The address is the point: decoding it beats fetching the
                // enumerated coordinates from wherever their source lies.
                self.shape
                    .delinearize_into(addr, &mut coords[k * ndim..(k + 1) * ndim]);
                let at = sources[f as usize].0 + slot as usize;
                payload[k * elem..(k + 1) * elem]
                    .copy_from_slice(&records[at * elem..(at + 1) * elem]);
            }
            Ok(())
        })?;
        Ok((CoordBuffer::from_flat(ndim, coords)?, payload))
    }

    /// Stage 1 of a merge for one source page, the `f`-th: fetch and
    /// decode it, enumerate its points, and fill the two slices this page
    /// was given, both sized from the catalog's point count: `order` with
    /// one record per point, slots high to low, and `records` with a copy
    /// of its value records. What it fetched is dropped here, so a worker
    /// keeps nothing past its page. Returns the largest address.
    fn linearize_source(
        &self,
        f: u32,
        page: &PageEntry,
        order: &mut [Record],
        records: &mut [u8],
        counter: &OpCounter,
    ) -> Result<u64> {
        self.check_rewritable(page)?;
        let sections = self.fetch_for_merge(page)?;
        let coords = (page.meta.kind.create()).enumerate(sections.index(), counter)?;
        if coords.len() != order.len() {
            let reason = format!(
                "enumerated {} points, the header says {}",
                coords.len(),
                order.len()
            );
            return Err(StorageError::corrupt(&page.name, reason));
        }
        let Some(values) = sections.values().get(..records.len()) else {
            return Err(StorageError::corrupt(
                &page.name,
                "enumerated more slots than records",
            ));
        };
        records.copy_from_slice(values);
        let slots = record_field(coords.len(), "enumerated fragment length")?;
        let mut top = 0;
        for (record, slot) in order.iter_mut().zip((0..slots).rev()) {
            let addr = self.shape.linearize(coords.point(slot as usize))?;
            top = top.max(addr);
            *record = (addr, (f, slot));
        }
        Ok(top)
    }

    /// Merge every fragment into one (TileDB-style consolidation).
    ///
    /// Runs over the same scan layer as [`StorageEngine::export`]: each
    /// fragment's index is enumerated back into coordinates, values are
    /// deduplicated with the same last-writer-wins rule as
    /// [`StorageEngine::read`], and the output is written under the
    /// engine's current organization and codecs as one fragment, cut into
    /// pages of at most [`PAGE_POINTS`] points that are disjoint on dim 0;
    /// the source fragments are deleted (and their cache entries
    /// invalidated). A store that is already one fragment is left alone.
    ///
    /// With [`EngineConfig::adaptive_reorg`](crate::config::EngineConfig)
    /// set, the pass additionally characterizes the merged region's
    /// sparsity from the merge's flat output (no second fetch or decode),
    /// runs the advisor's cost model over the measured statistics, and
    /// encodes the output in the winning organization instead of the
    /// engine's configured one. A store already consolidated down to a
    /// single fragment takes the same path — merged, characterized, advised —
    /// and is rewritten only when the advice differs from its current
    /// organization, so repeated passes converge to a no-op.
    ///
    /// The pass is transactional: one catalog snapshot drives both the
    /// merge and the delete set; the delete set is recorded in one
    /// tombstone that commits (atomically) before the output does, so a
    /// crash in any window either discards the whole pass or
    /// replays the deletions at the next open/refresh — never a store
    /// with both the merged output and a partial set of its sources
    /// counted twice. The output takes the *highest source* sequence
    /// number (with a consolidation-generation tiebreaker just above the
    /// sources), so a fragment written concurrently while the pass ran
    /// keeps precedence over the merged output instead of being shadowed.
    pub fn consolidate(&self) -> Result<ConsolidateReport> {
        self.consolidate_with(None)
    }

    /// [`consolidate`](Self::consolidate) with every stage forced to
    /// `workers` threads whatever [`planned_workers`] would decide — the
    /// hook tests use to reach the fan-out on stores too small to earn
    /// it. The stored bytes and names never depend on the width.
    #[doc(hidden)]
    pub fn consolidate_at_width(&self, workers: usize) -> Result<ConsolidateReport> {
        self.consolidate_with(Some(workers))
    }

    fn consolidate_with(&self, forced_width: Option<usize>) -> Result<ConsolidateReport> {
        let _span = Span::enter(self.plane.as_ref(), SpanKind::Consolidate);
        // Buffered ingests belong in the merge: group-commit them first
        // so the pass sees them as an ordinary source fragment (a no-op
        // when the buffer is empty).
        self.flush()?;
        let _guard = self.consolidate_lock.lock();
        // ONE snapshot drives everything below: the merge input, the
        // output's identity, and the delete set. Fragments written after
        // this point are untouched and outrank the merged output.
        let snapshot_span = Span::enter(self.plane.as_ref(), SpanKind::ConsolidateSnapshot);
        let snapshot = self.catalog.snapshot();
        let before_bytes: u64 = snapshot.iter().map(|e| e.size).sum();
        let adaptive = self.config.adaptive_reorg;
        let unchanged = ConsolidateReport {
            merged_fragments: snapshot.len(),
            n_points: 0,
            pages: 0,
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

        let workers = self.merge_width(&snapshot, forced_width);
        let merge_span = Span::enter(self.plane.as_ref(), SpanKind::ConsolidateMerge);
        let (coords, payload) = self.merged_points_from(&snapshot, workers)?;
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
                // A lone fragment already in the advised organization has
                // converged: rewriting it would only fold duplicates.
                let kinds = || snapshot.iter().flat_map(|e| &e.pages).map(|p| p.meta.kind);
                if snapshot.len() == 1 && kinds().all(|kind| kind == target) {
                    return Ok(unchanged);
                }
                let migrating = kinds().filter(|&kind| kind != target).count() as u64;
                charge(|io| io.fragments_migrated += migrating);
                target
            }
            None => self.kind,
        };

        // The merged scan is in linear-address order, so the re-encode
        // goes through the presorted builders (sorts elided).
        let convert_span =
            adaptive.map(|_| Span::enter(self.plane.as_ref(), SpanKind::ConsolidateConvert));
        let ends = page_ends(&coords, PAGE_POINTS);
        let report = self.write_with(
            target,
            &coords,
            &payload,
            &ends,
            workers,
            id,
            Some(&sources),
            true,
        )?;
        drop(convert_span);

        self.retire_sources(&sources, &report.fragment)?;
        Ok(ConsolidateReport {
            merged_fragments: snapshot.len(),
            n_points: coords.len(),
            pages: ends.len(),
            before_bytes,
            after_bytes: self.catalog.total_bytes(),
            fragment: Some(report.fragment),
        })
    }

    /// Enumerate every stored point across all fragments (post-dedup), in
    /// linear-address order, with its value record. Runs over the same
    /// scan layer as [`StorageEngine::consolidate`].
    pub fn export(&self) -> Result<(CoordBuffer, Vec<u8>)> {
        self.export_with(None)
    }

    /// [`export`](Self::export) at a forced width, as
    /// [`consolidate_at_width`](Self::consolidate_at_width) is to
    /// `consolidate`.
    #[doc(hidden)]
    pub fn export_at_width(&self, workers: usize) -> Result<(CoordBuffer, Vec<u8>)> {
        self.export_with(Some(workers))
    }

    fn export_with(&self, forced_width: Option<usize>) -> Result<(CoordBuffer, Vec<u8>)> {
        // Buffered ingests are part of the store: group-commit them so
        // the scan layer sees them (a no-op when the buffer is empty).
        self.flush()?;
        // A consolidation committing between the snapshot and the scan
        // would retire fragments the scan still has to fetch: hold the
        // pass off for the whole scan, as `consolidate` does.
        let _guard = self.consolidate_lock.lock();
        let snapshot = self.catalog.snapshot();
        let workers = self.merge_width(&snapshot, forced_width);
        self.merged_points_from(&snapshot, workers)
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
    fn pages_hold_whole_rows_up_to_the_cap() {
        assert_eq!(
            page_ends(&CoordBuffer::new(2), PAGE_POINTS),
            [0],
            "an empty output is one page"
        );
        assert_eq!(page_ends(&rows(&[4096]), PAGE_POINTS), [4096]);
        assert_eq!(page_ends(&rows(&[4096, 1]), PAGE_POINTS), [4096, 4097]);
        // 3 000 + 1 000 + 96 fill a page exactly; 5 000 is over the cap
        // and stays whole; 10 + 4 096 would be over it.
        assert_eq!(
            page_ends(&rows(&[3000, 1000, 96, 5000, 10, 4096]), PAGE_POINTS),
            [4096, 9096, 9106, 13202]
        );
    }

    #[test]
    fn a_group_commit_is_cut_at_the_commit_cap() {
        // 16 rows of 256: four rows a page.
        assert_eq!(
            page_ends(&rows(&[256; 16]), COMMIT_PAGE_POINTS),
            [1024, 2048, 3072, 4096]
        );
        // At most the cap fits one page, whatever its rows.
        assert_eq!(page_ends(&rows(&[1; 1024]), COMMIT_PAGE_POINTS), [1024]);
        assert_eq!(page_ends(&rows(&[1000, 24]), COMMIT_PAGE_POINTS), [1024]);
        // 1 000 + 25 is one over: the second row opens a page; a row
        // over the cap stays whole.
        assert_eq!(
            page_ends(&rows(&[1000, 25, 2000, 1]), COMMIT_PAGE_POINTS),
            [1000, 1025, 3025, 3026]
        );
    }

    #[test]
    fn an_oversized_row_is_stored_as_one_page() {
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
        assert_eq!((report.n_points, report.pages), (8392, 3));
        let [blob] = &e.catalog.snapshot()[..] else {
            panic!("the output is one blob");
        };
        let pages: Vec<(u64, Vec<u64>)> = (blob.pages.iter())
            .map(|p| (p.meta.n, p.meta.bbox.as_ref().unwrap().lo().to_vec()))
            .collect();
        assert_eq!(
            pages,
            [(100, vec![0, 0]), (8192, vec![1, 0]), (100, vec![2, 0])]
        );
        assert_eq!(
            e.read_values::<f64>(&written).unwrap(),
            values.into_iter().map(Some).collect::<Vec<_>>()
        );
    }

    #[test]
    fn address_ranges_cover_every_record_once() {
        let records =
            |addrs: &[u64]| -> Vec<Record> { addrs.iter().map(|&addr| (addr, (0, 0))).collect() };
        let check = |addrs: &[u64], ranges: usize| {
            let records = records(addrs);
            let top = addrs.iter().copied().max().unwrap_or(0);
            let cut = address_ranges(&records, top, ranges);
            assert!(cut.len() <= ranges, "{addrs:?}: {cut:?}");
            assert!(cut.windows(2).all(|w| w[0].0.end <= w[1].0.start));
            for (range, n) in &cut {
                let inside = addrs.iter().filter(|a| range.contains(a)).count();
                assert_eq!(inside, *n, "{addrs:?}: {range:?}");
            }
            let covered: usize = cut.iter().map(|(_, n)| n).sum();
            assert_eq!(covered, addrs.len(), "{addrs:?}: {cut:?}");
            cut
        };
        // Even spreads split evenly; the top bucket is counted.
        let even: Vec<u64> = (0..4096).collect();
        let cut = check(&even, 2);
        assert_eq!(
            cut.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            [2048, 2048]
        );
        check(&[4095, 4095, 4094], 2);
        check(&[0, 1 << 40, u64::MAX - 1], 3);
        // One address, or none, is one range.
        assert_eq!(check(&[7; 9], 4).len(), 1);
        assert_eq!(check(&[], 2).len(), 0);
        // Skewed: most records in the top bucket.
        let mut skewed = vec![(1 << 20) - 1; 100];
        skewed.extend([0, 1, 2]);
        check(&skewed, 2);
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
