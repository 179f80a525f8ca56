//! READ — the layered pipeline (DESIGN.md §8): plan against the catalog,
//! fetch and decode the planned fragments (in parallel), merge hits by
//! linear address, overlay the write buffer.
//!
//! There is one uncached fetch path: the header and index section in one
//! range request (re-validated against the catalog), then only the value
//! records the index matched. With the decoded-fragment cache enabled a
//! miss fetches and decodes both sections whole so the next read is free.

use super::StorageEngine;
use crate::backend::StorageBackend;
use crate::cache::DecodedFragment;
use crate::catalog::CatalogEntry;
use crate::codec::Codec;
use crate::error::{Result, StorageError};
use crate::fragment::{decode_index_section, decode_meta, decode_value_section};
use artsparse_metrics::{charge, IoStats, Span, SpanContext, SpanKind};
use artsparse_tensor::value::Element;
use artsparse_tensor::{CoordBuffer, Region};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
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
#[derive(Debug, Clone, Default)]
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
        let mut result = ReadResult::default();
        if queries.is_empty() {
            return Ok(result);
        }
        let _span = Span::enter(&self.recorder, SpanKind::Read);
        // Snapshot the write buffer BEFORE the catalog plan. A group
        // commit racing this read moves buffered points into a fragment
        // and drains the buffer; snapshotting first means such points
        // are covered either way — by the overlay (the flush happened
        // after, the fragment's identical records are shadowed) or by
        // the planned fragment (the flush happened before). The reverse
        // order loses acked, previously-visible points: the plan misses
        // the fragment and the late snapshot finds the buffer drained.
        let buffered = self.buffer.snapshot();
        let qbbox = queries
            .bounding_box()
            .expect("non-empty queries have a bbox");

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
                let _plan_span = Span::enter(&self.recorder, SpanKind::ReadPlan);
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

            // Fetch → decode → per-fragment read, in parallel; outcomes
            // come back in fragment (write) order.
            let per_fragment = self.execute_plan(&plan.fragments, queries)?;
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
            let _merge_span = Span::enter(&self.recorder, SpanKind::ReadMerge);
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
            if !buffered.is_empty() {
                let mut overlay: Vec<ReadHit> = Vec::new();
                for qi in 0..queries.len() {
                    let addr = self.shape.linearize(queries.point(qi))?;
                    if let Some((coord, record)) = buffered.points.get(&addr) {
                        overlay.push(ReadHit {
                            query_index: qi,
                            addr,
                            coord: coord.clone(),
                            value: record.clone(),
                            fragment: BUFFER_FRAGMENT.to_string(),
                        });
                    }
                }
                if !overlay.is_empty() {
                    let shadowed: HashSet<u64> = overlay.iter().map(|h| h.addr).collect();
                    result.hits.retain(|h| !shadowed.contains(&h.addr));
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

    /// Read every stored point in `region` (the §III evaluation read: the
    /// query enumerates all cells of the region).
    pub fn read_region(&self, region: &Region) -> Result<ReadResult> {
        self.read(&region.to_coords())
    }

    /// Run `read_fragment` over the planned fragments, spreading them
    /// across worker threads, and return each fragment's outcome in plan
    /// (write) order. Errors surface deterministically: the first failed
    /// fragment in plan order wins regardless of thread timing.
    ///
    /// Workers inherit the read's span context: their spans carry its
    /// trace id, and whatever they charge outside a span of their own
    /// (a quarantine, say) is merged into the read's innermost frame after
    /// the join — the read's telemetry does not depend on the thread
    /// count. With telemetry off there is no context and no extra work.
    fn execute_plan(
        &self,
        fragments: &[Arc<CatalogEntry>],
        queries: &CoordBuffer,
    ) -> Result<Vec<FragmentOutcome>> {
        let threads = self
            .config
            .effective_parallelism()
            .min(fragments.len())
            .max(1);
        if threads == 1 {
            return fragments
                .iter()
                .map(|entry| self.read_fragment_or_skip(entry, queries))
                .collect();
        }
        // Per-fragment result slot: None until its worker fills it.
        type Slot = parking_lot::Mutex<Option<Result<FragmentOutcome>>>;
        let next = AtomicUsize::new(0);
        let outputs: Vec<Slot> = (0..fragments.len())
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        let drain_queue = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(entry) = fragments.get(i) else { break };
            *outputs[i].lock() = Some(self.read_fragment_or_skip(entry, queries));
        };
        let context = SpanContext::current();
        let worker_io = parking_lot::Mutex::new(IoStats::default());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| match context {
                    Some(context) => {
                        let ((), io) = context.run(drain_queue);
                        worker_io.lock().merge(&io);
                    }
                    None => drain_queue(),
                });
            }
        });
        if context.is_some() {
            charge(|io| io.merge(&worker_io.into_inner()));
        }
        outputs
            .into_iter()
            .map(|slot| slot.into_inner().expect("every fragment slot is filled"))
            .collect()
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
        queries: &CoordBuffer,
    ) -> Result<FragmentOutcome> {
        match self.read_fragment(entry, queries) {
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

    /// Fetch, decode, and query one fragment: from the cache when it is
    /// resident, through a cache fill when caching is on, otherwise over
    /// the section/range fetch path.
    fn read_fragment(&self, entry: &CatalogEntry, queries: &CoordBuffer) -> Result<Vec<ReadHit>> {
        let name = &entry.name;
        let mut decoded = {
            let _fetch = Span::enter(&self.recorder, SpanKind::ReadFetch);
            self.cache.get(name)
        };
        if decoded.is_none() && self.cache.is_enabled() {
            // Decode the whole fragment once so the next read is free.
            let _fetch = Span::enter(&self.recorder, SpanKind::ReadFetch);
            decoded = Some(self.fetch_decoded(entry)?);
        }
        if let Some(decoded) = decoded {
            let _decode = Span::enter(&self.recorder, SpanKind::ReadDecode);
            return self.hits_from_payload(name, &decoded, queries);
        }
        // Range path: header + index section first; values only if slots
        // matched.
        let meta = &entry.meta;
        let index = {
            let _fetch = Span::enter(&self.recorder, SpanKind::ReadFetch);
            self.fetch_validated_index(entry)?
        };
        let matched: Vec<(usize, u64)> = {
            let _decode = Span::enter(&self.recorder, SpanKind::ReadDecode);
            let org = meta.kind.create();
            let slots = self.observed_parallel(|| org.read(&index, queries, &self.counter))?;
            slots
                .into_iter()
                .enumerate()
                .filter_map(|(qi, slot)| slot.map(|s| (qi, s)))
                .collect()
        };
        if matched.is_empty() {
            return Ok(Vec::new());
        }
        let elem = meta.elem_size as usize;
        for &(_, slot) in &matched {
            if (slot + 1)
                .checked_mul(elem as u64)
                .is_none_or(|end| end > meta.value_raw_len)
            {
                return Err(StorageError::corrupt(
                    name,
                    format!("value slot {slot} beyond payload"),
                ));
            }
        }
        let records = {
            let _fetch = Span::enter(&self.recorder, SpanKind::ReadFetch);
            self.fetch_value_records(entry, &matched)?
        };
        matched
            .into_iter()
            .map(|(qi, slot)| {
                let record = records
                    .get(&slot)
                    .expect("fetch_value_records covers every matched slot");
                self.hit(name, queries, qi, record)
            })
            .collect()
    }

    /// One hit: query `qi` matched `record` in fragment `name`.
    fn hit(&self, name: &str, queries: &CoordBuffer, qi: usize, record: &[u8]) -> Result<ReadHit> {
        let coord = queries.point(qi).to_vec();
        Ok(ReadHit {
            query_index: qi,
            addr: self.shape.linearize(&coord)?,
            coord,
            value: record.to_vec(),
            fragment: name.to_string(),
        })
    }

    /// Fetch the value records for the matched slots of one fragment,
    /// transferring as little of the value section as possible:
    /// compressed sections are fetched whole (they cannot be sliced);
    /// uncompressed slots are coalesced into runs, falling back to the
    /// whole section when the matched runs cover most of it anyway.
    fn fetch_value_records(
        &self,
        entry: &CatalogEntry,
        matched: &[(usize, u64)],
    ) -> Result<HashMap<u64, Vec<u8>>> {
        let name = &entry.name;
        let meta = &entry.meta;
        let elem = meta.elem_size as usize;
        let mut slots: Vec<u64> = matched.iter().map(|&(_, slot)| slot).collect();
        slots.sort_unstable();
        slots.dedup();

        let whole_section = |records: &mut HashMap<u64, Vec<u8>>| -> Result<()> {
            let values = self.retry_read(name, || {
                let section =
                    self.backend
                        .get_range(name, meta.value_offset(), meta.value_len as usize)?;
                decode_value_section(name, meta, &section)
            })?;
            for &slot in &slots {
                let start = slot as usize * elem;
                records.insert(slot, values[start..start + elem].to_vec());
            }
            Ok(())
        };

        let mut records = HashMap::with_capacity(slots.len());
        if meta.value_codec != Codec::None {
            whole_section(&mut records)?;
            return Ok(records);
        }

        // Coalesce matched slots into byte runs over the (uncompressed)
        // value section.
        let mut runs: Vec<(u64, u64)> = Vec::new(); // [start_byte, end_byte)
        for &slot in &slots {
            let lo = slot * elem as u64;
            let hi = lo + elem as u64;
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
            whole_section(&mut records)?;
            return Ok(records);
        }

        let mut fetched: Vec<(u64, Vec<u8>)> = Vec::with_capacity(runs.len());
        for &(lo, hi) in &runs {
            let bytes = self.retry_read(name, || {
                let bytes =
                    self.backend
                        .get_range(name, meta.value_offset() + lo, (hi - lo) as usize)?;
                if bytes.len() != (hi - lo) as usize {
                    return Err(StorageError::corrupt(
                        name,
                        format!(
                            "value records at {lo}..{hi} truncated ({} bytes returned)",
                            bytes.len()
                        ),
                    ));
                }
                Ok(bytes)
            })?;
            fetched.push((lo, bytes));
        }
        for &slot in &slots {
            let lo = slot * elem as u64;
            let (run_lo, bytes) = fetched
                .iter()
                .rev()
                .find(|(run_lo, _)| *run_lo <= lo)
                .expect("every slot falls inside a coalesced run");
            let at = (lo - run_lo) as usize;
            records.insert(slot, bytes[at..at + elem].to_vec());
        }
        Ok(records)
    }

    /// The decode layer of the cached paths (hit or fill):
    /// run the organization's read over a decoded payload and gather
    /// hits.
    fn hits_from_payload(
        &self,
        name: &str,
        decoded: &DecodedFragment,
        queries: &CoordBuffer,
    ) -> Result<Vec<ReadHit>> {
        let org = decoded.meta.kind.create();
        let slots = self.observed_parallel(|| org.read(&decoded.index, queries, &self.counter))?;
        let elem = decoded.meta.elem_size as usize;
        let mut hits = Vec::new();
        for (qi, slot) in slots.into_iter().enumerate() {
            let Some(slot) = slot else { continue };
            let start = slot as usize * elem;
            let Some(record) = decoded.values.get(start..start + elem) else {
                return Err(StorageError::corrupt(
                    name,
                    format!("value slot {slot} beyond payload"),
                ));
            };
            hits.push(self.hit(name, queries, qi, record)?);
        }
        Ok(hits)
    }

    /// Fetch the fragment's header and index section in one range
    /// request, re-validating the on-device header against the catalog —
    /// a blob mutated behind the engine's back (corruption, an external
    /// rewrite) must fail the read, not silently serve stale or garbage
    /// metadata.
    fn fetch_validated_index(&self, entry: &CatalogEntry) -> Result<Vec<u8>> {
        let name = &entry.name;
        let meta = &entry.meta;
        let head_len = meta.index_offset() + meta.index_len;
        self.retry_read(name, || {
            let head = self.backend.get_range(name, 0, head_len as usize)?;
            let on_device = decode_meta(name, &head)?;
            if on_device != *meta {
                return Err(StorageError::corrupt(
                    name,
                    "header on device no longer matches the catalog",
                ));
            }
            let section = head.get(meta.index_offset() as usize..).ok_or_else(|| {
                StorageError::corrupt(name, "fragment truncated inside the header")
            })?;
            decode_index_section(name, meta, section)
        })
    }

    /// Fetch and decode a whole fragment through the cache: a hit costs
    /// nothing, a miss transfers both sections and makes the decode
    /// resident (if the cache is enabled and it fits).
    pub(super) fn fetch_decoded(&self, entry: &CatalogEntry) -> Result<Arc<DecodedFragment>> {
        let name = &entry.name;
        if let Some(decoded) = self.cache.get(name) {
            return Ok(decoded);
        }
        let meta = &entry.meta;
        let index = self.fetch_validated_index(entry)?;
        let values = self.retry_read(name, || {
            let vsec =
                self.backend
                    .get_range(name, meta.value_offset(), meta.value_len as usize)?;
            decode_value_section(name, meta, &vsec)
        })?;
        let decoded = Arc::new(DecodedFragment {
            index,
            values,
            meta: meta.clone(),
        });
        self.cache.insert(name, decoded.clone());
        Ok(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, SimulatedDisk};
    use crate::config::EngineConfig;
    use crate::engine::test_support::{coords, engine};
    use artsparse_core::FormatKind;
    use artsparse_tensor::Shape;
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
    fn parallel_and_sequential_reads_agree() {
        // The same store with one corrupted fragment, read degraded on 1
        // and on 4 fetch threads. The hits agree, and so does the
        // telemetry: whatever a worker charges (the quarantine, the
        // retries of the checksum mismatch, bytes fetched, coalesced
        // ranges) lands in the read's totals wherever the fragment was
        // read, and worker spans stay in the read's trace.
        let read_on = |read_parallelism: usize| {
            let e = StorageEngine::open_with(
                MemBackend::new(),
                FormatKind::Linear,
                Shape::new(vec![32, 32]).unwrap(),
                8,
                EngineConfig::default()
                    .with_telemetry(true)
                    .with_strict_reads(false)
                    .with_read_parallelism(read_parallelism)
                    .with_retry(crate::config::RetryPolicy {
                        max_attempts: 3,
                        base_backoff: Duration::ZERO,
                        max_backoff: Duration::ZERO,
                        jitter_pct: 0,
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
            let r = e.read(&q).unwrap();
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
