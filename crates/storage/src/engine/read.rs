//! READ — the layered pipeline (DESIGN.md §8): plan against the catalog,
//! fetch and decode the planned fragments (in parallel), merge hits by
//! linear address, overlay the write buffer.
//!
//! The pipeline is one function over *what is asked* ([`Asked`]): a list
//! of coordinates, looked up one by one in each fragment, or a box,
//! answered by one bounded pass over each fragment
//! (`Organization::scan`) without ever listing its cells.
//!
//! There is one uncached fetch path: the header and index section in one
//! range request (re-validated against the catalog), then only the value
//! records the index matched. With the decoded-fragment cache enabled a
//! miss fetches and decodes both sections whole so the next read is free.
//! Which bytes those are, and how each is verified, is
//! [`FragmentReader`]'s; this module decides which questions to ask it
//! and retries them.

use super::StorageEngine;
use crate::backend::StorageBackend;
use crate::buffer::BufferSnapshot;
use crate::cache::DecodedFragment;
use crate::catalog::CatalogEntry;
use crate::codec::Codec;
use crate::error::{Result, StorageError};
use crate::fragment::{DecodedSection, FragmentReader};
use artsparse_core::Organization;
use artsparse_metrics::{charge, OpCounter, Span, SpanKind};
use artsparse_tensor::value::Element;
use artsparse_tensor::{CoordBuffer, Region, Shape};
use std::borrow::Cow;
use std::sync::Arc;

/// How many times a read re-plans when a planned fragment vanished
/// mid-flight (deleted or consolidated away by a concurrent writer)
/// before settling for skipping the vanished fragments.
const MAX_READ_REPLANS: usize = 3;

/// When range-fetching uncompressed value records, adjacent runs whose
/// gap is at most this many bytes are fetched as one request — each
/// request pays the device's per-operation latency, so small gaps are
/// cheaper to transfer than to split around.
const RUN_COALESCE_GAP_BYTES: u64 = 256;

/// Ceiling on ranged value requests per fragment. Past this, matched
/// slots are so scattered that one whole-section fetch is cheaper than
/// paying per-request latency for every little run.
const MAX_VALUE_RUNS: usize = 16;

/// What one scoped worker thread costs to spawn and join, measured on the
/// 2-core development host (45–60 µs; DESIGN.md §8 has the measurement).
const SPAWN_JOIN_NS: u64 = 60_000;

/// An extra read worker is spawned only for at least this many times its
/// own [`SPAWN_JOIN_NS`] of work that can run beside the caller's.
const FAN_OUT_FACTOR: u64 = 2;

/// Index bytes one core passes over per nanosecond in a lookup scan:
/// LINEAR's rate on the development host (0.05 ns/B; COO's wider
/// records go at 0.02 ns/B).
const SCAN_BYTES_PER_NS: u64 = 20;

/// What fetching and verifying a fragment's index costs, in scan passes
/// over it: the range copy plus the CRC32C come to 0.14–0.2 ns/B from
/// the in-memory backend, and more from any real device.
const FETCH_PASSES: u64 = 4;

/// How many threads (the caller included) a read should spread its
/// planned fragments over — or a consolidation its sources, address
/// ranges and parts: the pure decision in front of
/// [`StorageEngine::fan_out`].
///
/// It uses only what the catalog already knows — each planned fragment's
/// stored index length — and how many `passes` over an index the read
/// makes ([`Asked::passes`]): one per queried point, one in all for a
/// region. A fragment is estimated at one fetch ([`FETCH_PASSES`]) plus
/// those passes, which is what COO and LINEAR do and an overestimate for
/// the searched organizations (plans big enough for the difference to
/// matter fan out on the fetch term alone). Work can only overlap beside
/// the largest fragment, so what counts is everything *but* it, and each
/// worker beyond the caller must be paid for [`FAN_OUT_FACTOR`] times
/// over in [`SPAWN_JOIN_NS`]. `cap` —
/// [`EngineConfig::effective_parallelism`] — is the upper bound; `1` is
/// always the sequential path.
///
/// [`EngineConfig::effective_parallelism`]: crate::config::EngineConfig::effective_parallelism
pub(super) fn planned_workers(
    cap: usize,
    index_lens: impl IntoIterator<Item = u64>,
    passes: u64,
) -> usize {
    let passes = FETCH_PASSES.saturating_add(passes);
    let (mut fragments, mut total_ns, mut largest_ns) = (0usize, 0u64, 0u64);
    for len in index_lens {
        let ns = len.saturating_mul(passes) / SCAN_BYTES_PER_NS;
        fragments += 1;
        total_ns = total_ns.saturating_add(ns);
        largest_ns = largest_ns.max(ns);
    }
    let affordable = (total_ns - largest_ns) / (FAN_OUT_FACTOR * SPAWN_JOIN_NS);
    let bound = cap.min(fragments).max(1);
    1 + affordable.min(bound as u64 - 1) as usize
}

/// What a read asks for. Everything else about a read — the buffer
/// snapshot, the plan, the fan-out, the merge, the overlay — is the same
/// pipeline ([`StorageEngine::read_asked`]); the two differ only in the
/// methods below.
enum Asked<'a> {
    /// These coordinates; `query_index` is the position in the buffer.
    Points(&'a CoordBuffer),
    /// Every cell of `asked`; `query_index` is the cell's row-major rank
    /// in it. Only `inside`, its part within the tensor's shape, can
    /// hold a point (`None`: they do not meet) — what lies outside is a
    /// miss, exactly as a buffered-or-not out-of-shape point is.
    Region {
        asked: &'a Region,
        inside: Option<Region>,
    },
}

impl<'a> Asked<'a> {
    /// A region of a tensor of `shape`; its cells must be countable.
    fn region(asked: &'a Region, shape: &Shape) -> Result<Asked<'a>> {
        asked.checked_volume()?;
        let inside = asked.within(shape);
        Ok(Asked::Region { asked, inside })
    }

    /// The box the catalog is planned against; `None` asks for nothing.
    fn bbox(&self) -> Option<Cow<'a, Region>> {
        match self {
            Asked::Points(queries) => queries.bounding_box().map(Cow::Owned),
            Asked::Region { asked, .. } => Some(Cow::Borrowed(asked)),
        }
    }

    /// Passes over a fragment's index this read makes, as
    /// [`planned_workers`] counts work: a lookup per point, one scan per
    /// region.
    fn passes(&self) -> u64 {
        match self {
            Asked::Points(queries) => queries.len() as u64,
            Asked::Region { .. } => 1,
        }
    }

    /// The per-fragment match step: `(query_index, slot)` of every asked
    /// cell the fragment's `index` holds, by ascending query index.
    fn matches(
        &self,
        org: &dyn Organization,
        index: &[u8],
        counter: &OpCounter,
    ) -> Result<Vec<(usize, u64)>> {
        match self {
            Asked::Points(queries) => Ok(org
                .read(index, queries, counter)?
                .into_iter()
                .enumerate()
                .filter_map(|(qi, slot)| slot.map(|s| (qi, s)))
                .collect()),
            Asked::Region { inside: None, .. } => Ok(Vec::new()),
            Asked::Region {
                asked,
                inside: Some(inside),
            } => {
                let mut matched = org.scan(index, inside, counter)?;
                if inside != *asked {
                    // Ranked within `inside`: re-rank within what was asked.
                    let mut cell = vec![0u64; inside.ndim()];
                    for (rank, _) in &mut matched {
                        inside.cell_into(*rank as u64, &mut cell);
                        *rank = asked.rank(&cell) as usize;
                    }
                }
                Ok(matched)
            }
        }
    }

    /// The coordinate `query_index` stands for.
    fn coord(&self, query_index: usize) -> Vec<u64> {
        match self {
            Asked::Points(queries) => queries.point(query_index).to_vec(),
            Asked::Region { asked, .. } => {
                let mut cell = vec![0u64; asked.ndim()];
                asked.cell_into(query_index as u64, &mut cell);
                cell
            }
        }
    }

    /// The asked cells the write buffer holds, as hits. A region walks
    /// whichever is shorter, the snapshot or its own cells.
    fn buffered_hits(&self, shape: &Shape, buffered: &BufferSnapshot) -> Vec<ReadHit> {
        let hit = |query_index: usize, addr: u64, coord: &[u64], record: &[u8]| ReadHit {
            query_index,
            addr,
            coord: coord.to_vec(),
            value: record.to_vec(),
            fragment: BUFFER_FRAGMENT.to_string(),
        };
        // A cell outside the shape has no address and holds nothing.
        let lookup = |query_index: usize, cell: &[u64]| {
            let addr = shape
                .contains(cell)
                .then(|| shape.linearize_unchecked(cell))?;
            let (coord, record) = buffered.get(addr)?;
            Some(hit(query_index, addr, coord, record))
        };
        match self {
            Asked::Points(queries) => {
                let each = queries.iter().enumerate();
                each.filter_map(|(qi, q)| lookup(qi, q)).collect()
            }
            Asked::Region { inside: None, .. } => Vec::new(),
            Asked::Region {
                asked,
                inside: Some(inside),
            } => {
                if (buffered.len() as u64) < inside.volume() {
                    return (buffered.iter())
                        .filter(|(_, coord, _)| inside.contains(coord))
                        .map(|(addr, coord, record)| {
                            hit(asked.rank(coord) as usize, addr, coord, record)
                        })
                        .collect();
                }
                let mut cell = vec![0u64; inside.ndim()];
                (0..inside.volume())
                    .filter_map(|rank| {
                        inside.cell_into(rank, &mut cell);
                        lookup(asked.rank(&cell) as usize, &cell)
                    })
                    .collect()
            }
        }
    }
}

/// Sentinel fragment name a [`ReadHit`] carries when the hit was served
/// from the streaming-ingest write buffer rather than a committed
/// fragment. Never collides with a real name (real names start with
/// `frag-`).
pub const BUFFER_FRAGMENT: &str = "<buffer>";

/// One matched point from a READ.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadHit {
    /// Index into the query buffer.
    pub query_index: usize,
    /// Row-major linear address (the merge key of Algorithm 3 line 12).
    pub addr: u64,
    /// The coordinate.
    pub coord: Vec<u64>,
    /// The raw value record.
    pub value: Vec<u8>,
    /// Which fragment supplied it.
    pub fragment: String,
}

/// Whether a READ saw the whole store or had to route around damage.
///
/// With `strict_reads` (the default) a read either fails or returns a
/// complete outcome, so callers that never disable strictness can ignore
/// this. With `strict_reads = false`, `complete == false` means one or
/// more overlapping fragments were quarantined (this read or earlier)
/// and their points are missing from the result — the caller chooses
/// between using the partial answer and escalating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Whether every fragment the plan wanted was actually readable.
    pub complete: bool,
    /// Quarantined fragments whose bounding box overlapped the query
    /// (sorted, deduplicated) — the data the result may be missing.
    pub quarantined: Vec<String>,
}

impl Default for ReadOutcome {
    fn default() -> Self {
        ReadOutcome {
            complete: true,
            quarantined: Vec::new(),
        }
    }
}

/// Per-fragment outcome inside one read attempt.
#[derive(Debug)]
enum FragmentOutcome {
    /// The fragment was read; here are its matching points.
    Hits(Vec<ReadHit>),
    /// A concurrent delete/consolidation removed it — re-plan.
    Vanished,
    /// The fragment is damaged and was quarantined (degraded mode).
    Quarantined(String),
}

/// Whether a read failure proves the fragment itself is damaged (and so
/// quarantinable under degraded reads) rather than the engine being
/// misconfigured or the device being wholly unreachable. Checksum
/// mismatches and structural corruption are positive evidence of damage;
/// retry exhaustion means the fragment kept failing past the budget.
fn quarantines(e: &StorageError) -> bool {
    matches!(
        e,
        StorageError::ChecksumMismatch { .. }
            | StorageError::CorruptFragment { .. }
            | StorageError::RetriesExhausted { .. }
    )
}

/// Outcome of one READ call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadResult {
    /// Hits sorted by linear address (ties: fragment write order).
    pub hits: Vec<ReadHit>,
    /// Fragments whose metadata was examined.
    pub fragments_scanned: usize,
    /// Fragments whose bounding box overlapped the query.
    pub fragments_matched: usize,
    /// Completeness of the result under degraded reads.
    pub outcome: ReadOutcome,
}

impl ReadResult {
    /// Align hits with the query buffer: one `Option<V>` per query, the
    /// most recently written fragment winning on coordinate collisions.
    ///
    /// A hit whose record length differs from `V::SIZE` is store
    /// corruption (or a type confusion — reading `f64` from a store of
    /// `u32` records) and surfaces as [`StorageError::CorruptFragment`]
    /// rather than being silently dropped.
    pub fn to_values<V: Element>(&self, n_queries: usize) -> Result<Vec<Option<V>>> {
        let mut out: Vec<Option<V>> = vec![None; n_queries];
        // Hits are sorted by (addr, fragment order); iterating in order and
        // overwriting leaves the latest fragment's value in place.
        for hit in &self.hits {
            if hit.value.len() != V::SIZE {
                return Err(StorageError::corrupt(
                    &hit.fragment,
                    format!(
                        "value record is {} bytes but the element type takes {}",
                        hit.value.len(),
                        V::SIZE
                    ),
                ));
            }
            let slot = out.get_mut(hit.query_index).ok_or_else(|| {
                StorageError::corrupt(
                    &hit.fragment,
                    format!(
                        "hit for query {} but only {n_queries} queries were made",
                        hit.query_index
                    ),
                )
            })?;
            *slot = Some(V::read_le(&hit.value));
        }
        Ok(out)
    }
}

impl<B: StorageBackend> StorageEngine<B> {
    /// Algorithm 3 READ as the layered pipeline: plan against the
    /// catalog, fetch/decode matched fragments (in parallel), merge hits
    /// by linear address.
    pub fn read(&self, queries: &CoordBuffer) -> Result<ReadResult> {
        self.read_asked(&Asked::Points(queries), None)
    }

    /// [`read`](Self::read) with the per-fragment executor forced to
    /// `workers` threads whatever [`planned_workers`] would decide — the
    /// hook tests use to reach the fan-out on plans too small to earn it.
    /// Results never depend on the width.
    #[doc(hidden)]
    pub fn read_at_width(&self, queries: &CoordBuffer, workers: usize) -> Result<ReadResult> {
        self.read_asked(&Asked::Points(queries), Some(workers))
    }

    /// Read every stored point in `region` (the §III evaluation read):
    /// the [`ReadResult`] of [`read`](Self::read) asked for the region's
    /// cells in row-major order — `query_index` is the cell's rank among
    /// them — from one pass over each overlapping fragment instead of
    /// one lookup per cell, and without listing the cells. The part of
    /// `region` outside the tensor's shape holds nothing.
    pub fn read_region(&self, region: &Region) -> Result<ReadResult> {
        self.read_asked(&Asked::region(region, &self.shape)?, None)
    }

    /// [`read_region`](Self::read_region) at a forced executor width, as
    /// [`read_at_width`](Self::read_at_width) is to `read`.
    #[doc(hidden)]
    pub fn read_region_at_width(&self, region: &Region, workers: usize) -> Result<ReadResult> {
        self.read_asked(&Asked::region(region, &self.shape)?, Some(workers))
    }

    fn read_asked(&self, asked: &Asked<'_>, forced_width: Option<usize>) -> Result<ReadResult> {
        let mut result = ReadResult::default();
        let Some(qbbox) = asked.bbox() else {
            return Ok(result); // nothing asked
        };
        let _span = Span::enter(self.plane.as_ref(), SpanKind::Read);
        // Snapshot the write buffer BEFORE the catalog plan. A group
        // commit racing this read moves buffered points into a fragment
        // and drains the buffer; snapshotting first means such points
        // are covered either way — by the overlay (the flush happened
        // after, the fragment's identical records are shadowed) or by
        // the planned fragment (the flush happened before). The reverse
        // order loses acked, previously-visible points: the plan misses
        // the fragment and the late snapshot finds the buffer drained.
        let buffered = self.buffer.snapshot();

        // A planned fragment can vanish mid-read when a concurrent
        // delete or consolidation removes it between plan and fetch.
        // That is not an error: its points live on in whatever replaced
        // it, so the read re-plans against the refreshed catalog. If
        // fragments keep vanishing (a pathological churn of writers),
        // the final attempt skips them — they are gone from the catalog,
        // so skipping matches what a fresh plan would read anyway.
        for attempt in 0..=MAX_READ_REPLANS {
            // Plan: in-memory discovery + bbox pruning. Every scanned
            // fragment must describe the same tensor this engine stores.
            let plan = {
                let _plan_span = Span::enter(self.plane.as_ref(), SpanKind::ReadPlan);
                for entry in self.catalog.snapshot() {
                    self.check_entry_shape(&entry)?;
                }
                let plan = self.catalog.plan(&qbbox);
                charge(|io| {
                    io.fragments_skipped_bbox += (plan.scanned - plan.fragments.len()) as u64;
                });
                plan
            };
            // Fail closed: a strict read over a query that touches a
            // quarantined fragment cannot silently return a partial
            // answer — the missing points would be indistinguishable
            // from absent points.
            if self.config.strict_reads {
                if let Some(name) = plan.quarantined.first() {
                    let reason = self
                        .catalog
                        .quarantined()
                        .into_iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, r)| r)
                        .unwrap_or_default();
                    return Err(StorageError::corrupt(
                        name,
                        format!("fragment is quarantined ({reason})"),
                    ));
                }
            }

            // Fetch → decode → per-fragment read, on as many threads as
            // the plan can pay for; outcomes come back in fragment
            // (write) order.
            let workers = forced_width.unwrap_or_else(|| {
                planned_workers(
                    self.config.effective_parallelism(),
                    plan.fragments.iter().map(|entry| entry.meta.index_len),
                    asked.passes(),
                )
            });
            let per_fragment = self.fan_out(plan.fragments.iter(), workers, |entry, counter| {
                self.read_fragment_or_skip(entry, asked, counter)
            })?;
            let vanished = per_fragment
                .iter()
                .filter(|o| matches!(o, FragmentOutcome::Vanished))
                .count();
            if vanished > 0 {
                charge(|io| io.fragments_replanned += vanished as u64);
            }
            if attempt < MAX_READ_REPLANS && vanished > 0 {
                continue;
            }
            result.fragments_scanned = plan.scanned;
            result.fragments_matched = plan.fragments.len();

            // Merge: sort by linear address (stable: fragment order on
            // ties).
            let _merge_span = Span::enter(self.plane.as_ref(), SpanKind::ReadMerge);
            let mut quarantined = plan.quarantined.clone();
            for outcome in per_fragment {
                match outcome {
                    FragmentOutcome::Hits(batch) => result.hits.extend(batch),
                    FragmentOutcome::Quarantined(name) => quarantined.push(name),
                    FragmentOutcome::Vanished => {}
                }
            }
            quarantined.sort_unstable();
            quarantined.dedup();
            result.outcome = ReadOutcome {
                complete: quarantined.is_empty(),
                quarantined,
            };
            // Overlay the streaming-ingest buffer snapshot taken at the
            // start of the read: buffered points were strictly newer
            // than every committed fragment at that instant (a plain
            // write group-commits the buffer first), so on a shared
            // address the buffer's record replaces the fragments' hits.
            // (Every hit's cell was asked for, so a hit is shadowed
            // exactly when the snapshot holds its address.)
            if !buffered.is_empty() {
                let overlay = asked.buffered_hits(&self.shape, &buffered);
                if !overlay.is_empty() {
                    result.hits.retain(|h| buffered.get(h.addr).is_none());
                    result.hits.extend(overlay);
                }
            }
            result.hits.sort_by_key(|a| a.addr);
            break;
        }
        if let Some(plane) = &self.plane {
            // Denominator of the derived read-amplification gauge.
            plane.note_read_returned(result.hits.iter().map(|h| h.value.len() as u64).sum());
        }
        Ok(result)
    }

    /// Typed READ aligned with the query buffer.
    pub fn read_values<V: Element>(&self, queries: &CoordBuffer) -> Result<Vec<Option<V>>> {
        self.check_elem_size::<V>()?;
        self.read(queries)?.to_values(queries.len())
    }

    /// [`Self::read_fragment`], downgrading two kinds of failure:
    ///
    /// * a NotFound on a fragment that a concurrent delete or
    ///   consolidation removed from the catalog becomes `Vanished` (the
    ///   read re-plans); a NotFound on a fragment the catalog still lists
    ///   is real store corruption and stays an error;
    /// * with `strict_reads` off, a fragment whose bytes are provably
    ///   damaged (checksum mismatch, structural corruption) or that kept
    ///   failing past the retry budget is quarantined and the read
    ///   proceeds over the survivors, reporting the gap in
    ///   [`ReadOutcome`].
    fn read_fragment_or_skip(
        &self,
        entry: &CatalogEntry,
        asked: &Asked<'_>,
        counter: &OpCounter,
    ) -> Result<FragmentOutcome> {
        match self.read_fragment(entry, asked, counter) {
            Ok(hits) => Ok(FragmentOutcome::Hits(hits)),
            Err(e) if e.is_not_found() && self.catalog.get(&entry.name).is_none() => {
                Ok(FragmentOutcome::Vanished)
            }
            Err(e) if !self.config.strict_reads && quarantines(&e) => {
                self.quarantine_fragment(&entry.name, &e);
                Ok(FragmentOutcome::Quarantined(entry.name.clone()))
            }
            Err(e) => Err(e),
        }
    }

    /// Record a fragment as damaged: catalog quarantine (sticky across
    /// reloads, excluded from future plans and consolidation), cache
    /// invalidation, and the telemetry counter — charged only when this
    /// call is the one that quarantined it. Returns whether it was newly
    /// quarantined.
    pub(super) fn quarantine_fragment(&self, name: &str, error: &StorageError) -> bool {
        let newly = self.catalog.quarantine(name, error.chain_string());
        if newly {
            charge(|io| io.fragments_quarantined += 1);
        }
        self.cache.invalidate(name);
        newly
    }

    /// Fetch, decode, and query one fragment, its sections resident in
    /// the cache, filled into it (caching on), or fetched: header and
    /// index in one request, then only the value records the index matched.
    fn read_fragment(
        &self,
        entry: &CatalogEntry,
        asked: &Asked<'_>,
        counter: &OpCounter,
    ) -> Result<Vec<ReadHit>> {
        let name = &entry.name;
        let meta = &entry.meta;
        let mut resident = {
            let _fetch = Span::enter(self.plane.as_ref(), SpanKind::ReadFetch);
            self.cache.get(name)
        };
        if resident.is_none() && self.cache.is_enabled() {
            // Decode the whole fragment once so the next read is free
            // (the probe above was this read's one cache lookup).
            let _fetch = Span::enter(self.plane.as_ref(), SpanKind::ReadFetch);
            resident = Some(self.fetch_into_cache(entry)?);
        }
        let fetched_index;
        let index = match &resident {
            Some(decoded) => &decoded.index[..],
            None => {
                let _fetch = Span::enter(self.plane.as_ref(), SpanKind::ReadFetch);
                let reader = self.reader(entry);
                fetched_index = self.retry_read(name, || reader.index())?;
                fetched_index.bytes()
            }
        };
        let matched: Vec<(usize, u64)> = {
            let _decode = Span::enter(self.plane.as_ref(), SpanKind::ReadDecode);
            asked.matches(meta.kind.create().as_ref(), index, counter)?
        };
        if matched.is_empty() {
            return Ok(Vec::new());
        }
        let elem = meta.elem_size as u64;
        let beyond = |slot: u64| {
            (slot.checked_add(1))
                .and_then(|past| past.checked_mul(elem))
                .is_none_or(|end| end > meta.value_raw_len)
        };
        if let Some(&(_, slot)) = matched.iter().find(|&&(_, slot)| beyond(slot)) {
            return Err(StorageError::corrupt(
                name,
                format!("value slot {slot} beyond payload"),
            ));
        }
        // The value payload as runs at their byte offsets: one run of all
        // of it when resident.
        let fetched_runs;
        let runs: Vec<(u64, &[u8])> = match &resident {
            Some(decoded) => vec![(0, &decoded.values[..])],
            None => {
                let _fetch = Span::enter(self.plane.as_ref(), SpanKind::ReadFetch);
                fetched_runs = self.fetch_value_runs(entry, &matched)?;
                (fetched_runs.iter())
                    .map(|(lo, run)| (*lo, &run[..]))
                    .collect()
            }
        };
        matched
            .into_iter()
            .map(|(qi, slot)| {
                let at = slot * elem;
                let record = (runs.iter().rev())
                    .find(|&&(lo, _)| lo <= at)
                    .and_then(|&(lo, run)| run.get((at - lo) as usize..(at - lo + elem) as usize));
                let Some(record) = record else {
                    let reason = format!("no record fetched for value slot {slot}");
                    return Err(StorageError::corrupt(name, reason));
                };
                let coord = asked.coord(qi);
                Ok(ReadHit {
                    query_index: qi,
                    addr: self.shape.linearize(&coord)?,
                    coord,
                    value: record.to_vec(),
                    fragment: name.to_string(),
                })
            })
            .collect()
    }

    /// The reader of a cataloged fragment on this engine's device; each
    /// of its calls runs under [`retry_read`](Self::retry_read).
    pub(super) fn reader<'a>(
        &'a self,
        entry: &'a CatalogEntry,
    ) -> FragmentReader<'a, impl Fn(u64, usize) -> Result<Vec<u8>> + 'a> {
        let name = &entry.name;
        FragmentReader::new(name, &entry.meta, move |offset, len| {
            self.backend.get_range(name, offset, len)
        })
    }

    /// The value payload of the matched slots as runs at their byte
    /// offsets: a compressed section whole (it cannot be sliced), an
    /// uncompressed one as coalesced runs of matched slots, or whole when
    /// the runs would be many or cover most of it. Each request retries alone.
    fn fetch_value_runs(
        &self,
        entry: &CatalogEntry,
        matched: &[(usize, u64)],
    ) -> Result<Vec<(u64, Vec<u8>)>> {
        let name = &entry.name;
        let meta = &entry.meta;
        let reader = self.reader(entry);
        let whole = || {
            Ok(vec![(
                0,
                self.retry_read(name, || reader.values())?.into_vec(),
            )])
        };
        if meta.value_codec != Codec::None {
            return whole();
        }
        let elem = meta.elem_size as u64;
        let mut slots: Vec<u64> = matched.iter().map(|&(_, slot)| slot).collect();
        slots.sort_unstable();
        slots.dedup();
        let mut runs: Vec<(u64, u64)> = Vec::new(); // [start_byte, end_byte)
        for &slot in &slots {
            let (lo, hi) = (slot * elem, (slot + 1) * elem);
            match runs.last_mut() {
                Some((_, end)) if lo <= *end + RUN_COALESCE_GAP_BYTES => *end = hi.max(*end),
                _ => runs.push((lo, hi)),
            }
        }
        charge(|io| io.ranges_coalesced += (slots.len() - runs.len()) as u64);
        let run_bytes: u64 = runs.iter().map(|(lo, hi)| hi - lo).sum();
        if runs.len() > MAX_VALUE_RUNS || run_bytes * 2 >= meta.value_len {
            // Badly scattered slots: one whole-section request beats
            // paying per-request latency dozens of times.
            charge(|io| io.whole_section_fallbacks += 1);
            return whole();
        }
        (runs.into_iter())
            .map(|(lo, hi)| Ok((lo, self.retry_read(name, || reader.value_run(lo, hi))?)))
            .collect()
    }

    /// A whole fragment for a merge: a resident decode if the cache holds
    /// one, else both sections fetched and decoded — and not inserted. A
    /// merge reads every fragment once, most of them to retire them, so
    /// filling the cache would only evict the reads' working set.
    pub(super) fn fetch_for_merge(&self, entry: &CatalogEntry) -> Result<Sections> {
        Ok(match self.cache.get(&entry.name) {
            Some(decoded) => Sections::Resident(decoded),
            None => {
                let (index, values) = self.fetch_sections(entry)?;
                Sections::Fetched { index, values }
            }
        })
    }

    /// The cache fill of a read that already probed the cache: fetch and
    /// decode both sections, then insert — unless the catalog no longer
    /// lists the fragment (a delete or a consolidation retired it while
    /// the sections were in flight), whose entry would only hold budget
    /// until the LRU evicted it.
    fn fetch_into_cache(&self, entry: &CatalogEntry) -> Result<Arc<DecodedFragment>> {
        let (index, values) = self.fetch_sections(entry)?;
        let decoded = Arc::new(DecodedFragment {
            index: index.into_vec(),
            values: values.into_vec(),
            meta: entry.meta.clone(),
        });
        let listed = || self.catalog.get(&entry.name).is_some();
        self.cache.insert_if(&entry.name, decoded.clone(), listed);
        Ok(decoded)
    }

    /// Both sections of a fragment, fetched, verified and decoded.
    fn fetch_sections(&self, entry: &CatalogEntry) -> Result<(DecodedSection, DecodedSection)> {
        let reader = self.reader(entry);
        let index = self.retry_read(&entry.name, || reader.index())?;
        Ok((index, self.retry_read(&entry.name, || reader.values())?))
    }
}

/// A fragment's decoded sections, for a caller that reads them whole:
/// resident in the cache, or fetched for this caller alone.
pub(super) enum Sections {
    Resident(Arc<DecodedFragment>),
    Fetched {
        index: DecodedSection,
        values: DecodedSection,
    },
}

impl Sections {
    pub(super) fn index(&self) -> &[u8] {
        match self {
            Sections::Resident(decoded) => &decoded.index,
            Sections::Fetched { index, .. } => index.bytes(),
        }
    }

    pub(super) fn values(&self) -> &[u8] {
        match self {
            Sections::Resident(decoded) => &decoded.values,
            Sections::Fetched { values, .. } => values.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, SimulatedDisk};
    use crate::config::EngineConfig;
    use crate::engine::test_support::{coords, engine};
    use artsparse_core::FormatKind;
    use artsparse_tensor::TensorError;
    use std::time::Duration;

    #[test]
    fn multi_fragment_merge_sorted_by_linear_address() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[3, 3], [0, 1]]), &[33.0, 1.0])
            .unwrap();
        e.write_points::<f64>(&coords(&[[1, 0], [9, 9]]), &[16.0, 99.0])
            .unwrap();
        let q = coords(&[[9, 9], [0, 1], [1, 0], [3, 3]]);
        let r = e.read(&q).unwrap();
        assert_eq!(r.fragments_matched, 2);
        let addrs: Vec<u64> = r.hits.iter().map(|h| h.addr).collect();
        assert_eq!(addrs, vec![1, 16, 51, 153]);
    }

    #[test]
    fn later_fragment_wins_on_collision() {
        let e = engine(FormatKind::Csf);
        e.write_points::<f64>(&coords(&[[4, 4]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[4, 4]]), &[2.0]).unwrap();
        let vals = e.read_values::<f64>(&coords(&[[4, 4]])).unwrap();
        assert_eq!(vals, vec![Some(2.0)]);
    }

    #[test]
    fn later_fragment_wins_past_the_name_width() {
        // Sequence numbers outgrow their 8 digits after 10⁸ writes: the
        // newer fragment's name then sorts first as a string. Reads and
        // consolidation must still let it win.
        let e = engine(FormatKind::Coo);
        let mut blobs = Vec::new();
        for value in [1.0, 2.0] {
            let name = e
                .write_points::<f64>(&coords(&[[4, 4]]), &[value])
                .unwrap()
                .fragment;
            blobs.push(e.backend().get(&name).unwrap());
            e.delete_fragment(&name).unwrap();
        }
        e.backend()
            .put("frag-99999999-00000001.asf", &blobs[0])
            .unwrap();
        e.backend()
            .put("frag-100000000-00000001.asf", &blobs[1])
            .unwrap();
        e.refresh().unwrap();
        assert_eq!(
            e.read_values::<f64>(&coords(&[[4, 4]])).unwrap(),
            vec![Some(2.0)]
        );
        e.consolidate().unwrap();
        assert_eq!(
            e.read_values::<f64>(&coords(&[[4, 4]])).unwrap(),
            vec![Some(2.0)]
        );
    }

    #[test]
    fn bbox_pruning_skips_disjoint_fragments() {
        let e = engine(FormatKind::GcsrPP);
        e.write_points::<f64>(&coords(&[[0, 0], [1, 1]]), &[1.0, 2.0])
            .unwrap();
        e.write_points::<f64>(&coords(&[[14, 14], [15, 15]]), &[3.0, 4.0])
            .unwrap();
        let r = e.read(&coords(&[[0, 1], [1, 1]])).unwrap();
        assert_eq!(r.fragments_scanned, 2);
        assert_eq!(r.fragments_matched, 1);
    }

    #[test]
    fn region_read_matches_paper_semantics() {
        let e = engine(FormatKind::GcscPP);
        e.write_points::<f64>(&coords(&[[2, 2], [3, 9], [8, 8]]), &[1.0, 2.0, 3.0])
            .unwrap();
        let region = Region::from_corners(&[2, 2], &[4, 9]).unwrap();
        let r = e.read_region(&region).unwrap();
        let found: Vec<Vec<u64>> = r.hits.iter().map(|h| h.coord.clone()).collect();
        assert_eq!(found, vec![vec![2, 2], vec![3, 9]]);
    }

    #[test]
    fn out_of_shape_cells_miss_whatever_the_buffer_holds() {
        // A query reaching past the 16×16 shape used to succeed while the
        // ingest buffer was empty and fail `CoordOutOfBounds` as soon as
        // one point was buffered (the overlay linearized every cell).
        for kind in FormatKind::ALL {
            let e = engine(kind);
            e.write_points::<f64>(&coords(&[[3, 3], [15, 15]]), &[1.0, 2.0])
                .unwrap();
            let straddling = Region::from_corners(&[2, 2], &[18, 18]).unwrap();
            let outside = Region::from_corners(&[16, 0], &[20, 20]).unwrap();
            let points = coords(&[[15, 15], [16, 2], [3, 3], [2, 40]]);
            let ask = || {
                (
                    e.read_region(&straddling).unwrap(),
                    e.read_region(&outside).unwrap(),
                    e.read(&points).unwrap(),
                )
            };

            let flushed = ask();
            // `query_index` is the rank in the region as asked, 17 wide.
            let ranks =
                |r: &ReadResult| -> Vec<usize> { r.hits.iter().map(|h| h.query_index).collect() };
            assert_eq!(ranks(&flushed.0), vec![17 + 1, 13 * 17 + 13], "{kind}");
            assert_eq!(
                flushed.0,
                e.read(&straddling.to_coords()).unwrap(),
                "{kind}"
            );
            assert!(flushed.1.hits.is_empty(), "{kind}");
            assert_eq!(flushed.1.fragments_scanned, 1, "{kind}");
            assert_eq!(ranks(&flushed.2), vec![2, 0], "{kind}");

            // A buffered point none of the three asks for changes nothing.
            e.ingest_points::<f64>(&coords(&[[0, 0]]), &[7.0]).unwrap();
            assert_eq!(ask(), flushed, "{kind}: buffer non-empty");

            // One they do ask for is one more hit, not an error.
            e.ingest_points::<f64>(&coords(&[[15, 2]]), &[8.0]).unwrap();
            let buffered = e.read_region(&straddling).unwrap();
            assert_eq!(ranks(&buffered), vec![18, 13 * 17, 13 * 17 + 13], "{kind}");
            assert_eq!(buffered.hits[1].fragment, BUFFER_FRAGMENT, "{kind}");
            assert_eq!(buffered, e.read(&straddling.to_coords()).unwrap(), "{kind}");
        }
    }

    #[test]
    fn a_region_too_large_to_rank_is_refused() {
        let e = engine(FormatKind::Coo);
        let everything = Region::from_corners(&[0, 0], &[u64::MAX, u64::MAX]).unwrap();
        assert!(matches!(
            e.read_region(&everything),
            Err(StorageError::Tensor(TensorError::AddressOverflow { .. }))
        ));
        // Far larger than the tensor, but countable: clipped, not listed.
        let huge = Region::from_corners(&[0, 0], &[1 << 30, 1 << 30]).unwrap();
        e.write_points::<f64>(&coords(&[[4, 5]]), &[1.0]).unwrap();
        let hits = e.read_region(&huge).unwrap().hits;
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].query_index, 4 * ((1 << 30) + 1) + 5);
    }

    #[test]
    fn read_transfers_only_matched_sections() {
        // One fragment of 64 points; a one-point query must not transfer
        // the whole value section, and discovery must not touch the
        // device at all (the catalog already knows the store).
        let disk = SimulatedDisk::new(1e12, Duration::ZERO);
        let e = StorageEngine::open(
            disk,
            FormatKind::Linear,
            Shape::new(vec![64, 64]).unwrap(),
            8,
        )
        .unwrap();
        let pts: Vec<[u64; 2]> = (0..64).map(|i| [i, i]).collect();
        let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
        e.write_points::<f64>(&CoordBuffer::from_points(2, &pts).unwrap(), &vals)
            .unwrap();
        let frag_size = e.total_stored_bytes().unwrap();

        let before = e.backend().bytes_read();
        let got = e.read_values::<f64>(&coords(&[[7, 7]])).unwrap();
        assert_eq!(got, vec![Some(7.0)]);
        let transferred = e.backend().bytes_read() - before;
        assert!(
            transferred < frag_size,
            "read transferred {transferred} of a {frag_size}-byte fragment"
        );
        // The value section is 512 bytes; a single 8-byte record must not
        // drag in more than the header + index section + one coalesced run.
        let meta = &e.catalog.get(&e.fragments().unwrap()[0]).unwrap().meta;
        assert!(
            transferred <= meta.index_offset() + meta.index_len + 8 + RUN_COALESCE_GAP_BYTES,
            "transferred {transferred}, header+index {}",
            meta.index_offset() + meta.index_len
        );
    }

    #[test]
    fn cache_makes_repeat_reads_free_of_device_traffic() {
        let disk = SimulatedDisk::new(1e12, Duration::ZERO);
        let e = StorageEngine::open_with(
            disk,
            FormatKind::GcsrPP,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_cache_capacity(1 << 20),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 2], [5, 5]]), &[1.0, 2.0])
            .unwrap();
        let q = coords(&[[5, 5], [1, 2]]);
        let first = e.read_values::<f64>(&q).unwrap();
        let after_first = e.backend().bytes_read();
        let second = e.read_values::<f64>(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            e.backend().bytes_read(),
            after_first,
            "second read should be served from the cache"
        );
        let stats = e.cache().stats();
        assert!(stats.hits >= 1, "{stats:?}");
    }

    #[test]
    fn planned_workers_fans_out_only_when_it_pays() {
        const KB: u64 = 1024;
        let paper_matrix = [170 * KB; 32];
        // (what, cap, planned index lengths, passes, expected workers)
        let table: [(&str, usize, &[u64], u64, usize); 11] = [
            ("empty plan", 8, &[], 1, 1),
            ("one fragment", 8, &[262 * KB], 256, 1),
            // serve-query's GET: one consolidated part and three group
            // commits, 4 096 COO points (64 KB of index) each.
            ("point get", 8, &[64 * KB; 4], 1, 1),
            (
                "point get, order irrelevant",
                8,
                &[64 * KB, 65 * KB, 64 * KB, 63 * KB],
                1,
                1,
            ),
            // paper-matrix's batch: 31 × 170 KB can overlap.
            ("batch over 32 fragments", 2, &paper_matrix, 256, 2),
            (
                "batch over 32 fragments, wide host",
                64,
                &paper_matrix,
                256,
                32,
            ),
            // 256 point lookups over small fragments is real scanning work.
            (
                "batch over small fragments",
                2,
                &[262 * KB, 8 * KB, 8 * KB, 8 * KB],
                256,
                2,
            ),
            // The same 256 cells asked for as one box are one pass each:
            // serve-query's SCAN has nothing to overlap …
            (
                "box over small fragments",
                2,
                &[262 * KB, 10 * KB, 10 * KB, 10 * KB],
                1,
                1,
            ),
            // … and paper-matrix's still has 31 fetches to.
            ("box over 32 fragments", 2, &paper_matrix, 1, 2),
            ("the cap is an upper bound", 1, &paper_matrix, 256, 1),
            ("a zero cap still reads", 0, &paper_matrix, 256, 1),
        ];
        let sixteen_square = Region::from_corners(&[0, 0], &[15, 15]).unwrap();
        let shape = Shape::new(vec![64, 64]).unwrap();
        assert_eq!(Asked::region(&sixteen_square, &shape).unwrap().passes(), 1);
        assert_eq!(Asked::Points(&sixteen_square.to_coords()).passes(), 256);
        for (what, cap, lens, passes, want) in table {
            assert_eq!(
                planned_workers(cap, lens.iter().copied(), passes),
                want,
                "{what}"
            );
        }
        // Two equal fragments: one of them is overlappable work, and it
        // takes FAN_OUT_FACTOR × SPAWN_JOIN_NS of it to buy the thread.
        let break_even = FAN_OUT_FACTOR * SPAWN_JOIN_NS * SCAN_BYTES_PER_NS / (FETCH_PASSES + 1);
        assert_eq!(planned_workers(2, [break_even; 2], 1), 2);
        assert_eq!(
            planned_workers(2, [break_even - SCAN_BYTES_PER_NS; 2], 1),
            1
        );
    }

    #[test]
    fn a_cold_cached_read_probes_the_cache_once() {
        let e = StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::GcsrPP,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_cache_capacity(1 << 20),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 2], [5, 5]]), &[1.0, 2.0])
            .unwrap();
        let q = coords(&[[5, 5]]);
        e.read(&q).unwrap();
        let cold = e.cache().stats();
        assert_eq!((cold.hits, cold.misses), (0, 1), "one fragment, one miss");
        e.read(&q).unwrap();
        let warm = e.cache().stats();
        assert_eq!((warm.hits, warm.misses), (1, 1));
    }

    /// Open a 16×16 LINEAR store on `backend` with a decoded-fragment
    /// cache of `capacity` bytes.
    fn cached<B: StorageBackend>(backend: B, capacity: usize) -> StorageEngine<B> {
        let config = EngineConfig::default().with_cache_capacity(capacity);
        let shape = Shape::new(vec![16, 16]).unwrap();
        StorageEngine::open_with(backend, FormatKind::Linear, shape, 8, config).unwrap()
    }

    #[test]
    fn an_export_leaves_the_reads_working_set_cached() {
        // One small fragment the reads use, three larger ones in rows the
        // reads never ask for; the cache holds the three large ones or
        // the small one beside two of them, not all four.
        let rows = |lo: u64| -> Vec<[u64; 2]> {
            (lo..lo + 4)
                .flat_map(|r| (0..16).map(move |c| [r, c]))
                .collect()
        };
        let writer = cached(MemBackend::new(), 0);
        writer
            .write_points::<f64>(&coords(&[[0, 0], [1, 1]]), &[1.0, 2.0])
            .unwrap();
        for lo in [4, 8, 12] {
            let points = CoordBuffer::from_points(2, &rows(lo)).unwrap();
            writer.write_points::<f64>(&points, &[0.5; 64]).unwrap();
        }
        let cost: Vec<usize> = (writer.catalog.snapshot().iter())
            .map(|entry| (entry.meta.index_raw_len + entry.meta.value_raw_len) as usize)
            .collect();
        let capacity = cost[1..].iter().sum::<usize>() + cost[0] - 1;
        let e = cached(writer.into_backend(), capacity);
        let working_set = coords(&[[1, 1]]);
        e.read(&working_set).unwrap();
        let (coords, _) = e.export().unwrap();
        assert_eq!(coords.len(), 2 + 3 * 64);
        let before = e.cache().stats();
        assert_eq!(e.read_values::<f64>(&working_set).unwrap(), [Some(2.0)]);
        let after = e.cache().stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (1, 0),
            "the export evicted the read's fragment"
        );
    }

    /// A [`MemBackend`] that runs a hook once, after the first ranged
    /// read past a blob's start — the value section of a cache fill.
    #[derive(Default)]
    struct AfterIndex {
        inner: MemBackend,
        hook: parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl StorageBackend for AfterIndex {
        fn put(&self, name: &str, data: &[u8]) -> Result<()> {
            self.inner.put(name, data)
        }
        fn put_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
            self.inner.put_atomic(name, data)
        }
        fn put_exclusive(&self, name: &str, data: &[u8]) -> Result<()> {
            self.inner.put_exclusive(name, data)
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn get(&self, name: &str) -> Result<Vec<u8>> {
            self.inner.get(name)
        }
        fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
            let bytes = self.inner.get_range(name, offset, len);
            let hook = (offset > 0).then(|| self.hook.lock().take()).flatten();
            if let Some(hook) = hook {
                hook();
            }
            bytes
        }
        fn list(&self) -> Result<Vec<String>> {
            self.inner.list()
        }
        fn size(&self, name: &str) -> Result<u64> {
            self.inner.size(name)
        }
        fn delete(&self, name: &str) -> Result<()> {
            self.inner.delete(name)
        }
    }

    #[test]
    fn a_fill_finishing_after_its_fragment_was_deleted_is_dropped() {
        let e = Arc::new(cached(AfterIndex::default(), 1 << 20));
        let report = e.write_points::<f64>(&coords(&[[3, 3]]), &[3.0]).unwrap();
        // The cache fill fetches the index, then the values; between the
        // two, the fragment is deleted through the engine.
        let (engine, name) = (Arc::downgrade(&e), report.fragment);
        *e.backend().hook.lock() = Some(Box::new(move || {
            let engine = engine.upgrade().unwrap();
            engine.delete_fragment(&name).unwrap();
        }));
        let read = e.read_values::<f64>(&coords(&[[3, 3]])).unwrap();
        assert_eq!(read, [Some(3.0)], "the read itself was served");
        assert!(e.backend().hook.lock().is_none(), "the hook ran");
        assert!(e.fragments().unwrap().is_empty());
        assert!(e.cache().is_empty(), "a deleted fragment stayed cached");
    }

    #[test]
    fn parallel_and_sequential_reads_agree() {
        // The same store with one corrupted fragment, read degraded on 1
        // and on 4 fetch threads (forced: six 8-point fragments are far
        // too little work for `planned_workers` to fan out on its own).
        // The hits agree, and so does the
        // telemetry: whatever a worker charges (the quarantine, the
        // retries of the checksum mismatch, bytes fetched, coalesced
        // ranges) lands in the read's totals wherever the fragment was
        // read, and worker spans stay in the read's trace.
        let read_on = |width: usize| {
            let e = StorageEngine::open_with(
                MemBackend::new(),
                FormatKind::Linear,
                Shape::new(vec![32, 32]).unwrap(),
                8,
                EngineConfig::default()
                    .with_observability(crate::config::ObservabilityConfig::default())
                    .with_strict_reads(false)
                    .with_retry(crate::config::RetryPolicy {
                        max_attempts: 3,
                        base_backoff: Duration::ZERO,
                    }),
            )
            .unwrap();
            for base in 0..6u64 {
                let pts: Vec<[u64; 2]> = (0..8).map(|i| [(base * 4 + i) % 32, i]).collect();
                let vals: Vec<f64> = (0..8).map(|i| (base * 100 + i) as f64).collect();
                e.write_points::<f64>(&CoordBuffer::from_points(2, &pts).unwrap(), &vals)
                    .unwrap();
            }
            let victim = e.fragments().unwrap()[2].clone();
            let mut bytes = e.backend().get(&victim).unwrap();
            let at = bytes.len() - 1;
            bytes[at] ^= 0x10;
            e.backend().put(&victim, &bytes).unwrap();
            let q = Region::from_corners(&[0, 0], &[31, 7]).unwrap().to_coords();
            let r = e.read_at_width(&q, width).unwrap();
            assert_eq!(r.outcome.quarantined, vec![victim]);
            (r, e.telemetry_report().unwrap())
        };
        let (sequential_hits, sequential) = read_on(1);
        let (parallel_hits, parallel) = read_on(4);
        assert_eq!(parallel_hits.hits, sequential_hits.hits);
        assert_eq!(
            parallel_hits.fragments_matched,
            sequential_hits.fragments_matched
        );
        assert_eq!(sequential.totals.fragments_quarantined, 1);
        assert_eq!(sequential.totals.retries, 2);
        assert_eq!(sequential.totals.checksum_failures, 3);
        assert_eq!(sequential.totals, parallel.totals);

        let read_tree = |kind: SpanKind| {
            matches!(
                kind,
                SpanKind::Read
                    | SpanKind::ReadPlan
                    | SpanKind::ReadFetch
                    | SpanKind::ReadDecode
                    | SpanKind::ReadMerge
            )
        };
        let mut traces: Vec<u64> = parallel
            .events
            .iter()
            .filter(|ev| read_tree(ev.kind))
            .map(|ev| ev.trace_id)
            .collect();
        traces.dedup();
        assert_eq!(traces.len(), 1, "one read, one trace: {traces:?}");
    }
}
