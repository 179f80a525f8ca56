//! The fragment catalog — an in-engine manifest of every fragment's
//! metadata.
//!
//! Algorithm 3's READ discovers fragments by listing the device and
//! peeking each header (line 4). Doing that on every query charges the
//! device for `O(fragments)` metadata operations per read. The catalog
//! pays that cost once — when the engine opens — and keeps the manifest
//! current as fragments are written, consolidated, and deleted, so
//! discovery and bounding-box pruning become a pure in-memory planning
//! step ([`FragmentCatalog::plan`]).
//!
//! External mutations of the device (another writer, manual blob edits)
//! are picked up by [`FragmentCatalog::reload`].
//!
//! The catalog is also where fault-tolerant reads park damaged
//! fragments: [`FragmentCatalog::quarantine`] marks a fragment that
//! exhausted its retries or failed checksum verification. Quarantined
//! fragments stay on the device and in the manifest (so accounting and
//! scrubbing still see them) but are skipped by planning and by
//! consolidation — degraded reads proceed over the survivors, and
//! nothing ever deletes the evidence.

use crate::backend::StorageBackend;
use crate::engine::names::NameOrder;
use crate::error::Result;
use crate::fragment::{pages, peek_meta, FragmentMeta};
use artsparse_tensor::{Region, Shape};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// How many times [`FragmentCatalog::load`] lists the device again when a
/// listed fragment vanished before its header peek.
const MAX_RELISTS: usize = 3;

/// Everything the engine knows about one fragment blob without touching
/// its payload sections.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Blob name on the device.
    pub name: String,
    /// The blob's pages, in order: one, unless a consolidation cut its
    /// output into more.
    pub pages: Vec<Arc<PageEntry>>,
    /// Size of the blob on the device in bytes.
    pub size: u64,
}

/// One page of a blob: the unit a read plans, fetches, caches and
/// quarantines, and a merge decodes.
#[derive(Debug, Clone, PartialEq)]
pub struct PageEntry {
    /// The page's name: its blob's for a one-page blob, `<blob>#<i>` for
    /// page `i` of more.
    pub name: String,
    /// Its blob's name on the device.
    pub blob: String,
    /// Byte offset of the page in its blob.
    pub offset: u64,
    /// Decoded header.
    pub meta: FragmentMeta,
}

impl CatalogEntry {
    /// The entry of blob `name`, `size` bytes long, from its pages'
    /// offsets and headers.
    pub fn new(name: String, pages: Vec<(u64, FragmentMeta)>, size: u64) -> Self {
        let paged = pages.len() > 1;
        let page = |(i, (offset, meta))| {
            let blob = name.clone();
            let name = if paged {
                format!("{blob}#{i}")
            } else {
                blob.clone()
            };
            Arc::new(PageEntry {
                name,
                blob,
                offset,
                meta,
            })
        };
        let pages = pages.into_iter().enumerate().map(page).collect();
        CatalogEntry { name, pages, size }
    }
}

/// The outcome of planning a read: how many pages were considered and
/// which survive bounding-box pruning, in write order.
#[derive(Debug, Clone, Default)]
pub struct ReadPlan {
    /// Pages whose metadata was examined.
    pub scanned: usize,
    /// Pages whose bounding box overlaps the query, in write order.
    pub pages: Vec<Arc<PageEntry>>,
    /// Quarantined pages whose bounding box overlaps the query — data
    /// the plan *would* have read but cannot trust. A non-empty list
    /// means any result built from this plan may be incomplete.
    pub quarantined: Vec<String>,
}

/// Take `entry`'s pages out of a shape census that counted them.
fn uncount(shapes: &mut HashMap<Shape, usize>, entry: &CatalogEntry) {
    for page in &entry.pages {
        if let Some(count) = shapes.get_mut(&page.meta.shape) {
            *count -= 1;
            if *count == 0 {
                shapes.remove(&page.meta.shape);
            }
        }
    }
}

/// Manifest of fragment metadata, one entry per blob, keyed by the
/// identity each name spells, so iteration order is write (precedence)
/// order — also past the widths at which name strings stop sorting that
/// way.
#[derive(Debug, Default)]
pub struct FragmentCatalog {
    entries: RwLock<BTreeMap<NameOrder, Arc<CatalogEntry>>>,
    /// How many pages of `entries` store each tensor shape, counted as
    /// entries enter and leave (under `entries`' write lock), so
    /// [`foreign_page`](Self::foreign_page) answers a store of one shape
    /// without walking it.
    shapes: RwLock<HashMap<Shape, usize>>,
    /// Damaged pages (name → why), excluded from planning — and their
    /// blobs from consolidation — but never deleted. Kept separate from
    /// `entries` so a `reload` resyncing the manifest does not forget
    /// what was already found to be damaged.
    quarantined: RwLock<BTreeMap<String, String>>,
}

impl FragmentCatalog {
    /// Build a catalog by listing the device and peeking every page
    /// header once. `ndim` sizes the header peeks; `filter` keeps only
    /// blob names that belong to the engine (fragment names). The engine's filter is
    /// strict fragment-name parsing, which is what keeps the commit
    /// protocol's auxiliary blobs — `.tmp` staging blobs, `tomb-*.tsn`
    /// tombstones, `epoch-*.lck` claim markers — invisible to discovery:
    /// a staged fragment simply does not exist until its rename-commit.
    /// A fragment that vanishes before its peek (another engine's
    /// consolidation deleted it after renaming its output in) makes the
    /// load list again, up to three times, as a read re-plans.
    pub fn load<B: StorageBackend>(
        backend: &B,
        ndim: usize,
        filter: impl Fn(&str) -> bool,
    ) -> Result<Self> {
        let mut relists = 0;
        loop {
            match Self::load_listed(backend, ndim, &filter) {
                Err(e) if e.is_not_found() && relists < MAX_RELISTS => relists += 1,
                loaded => return loaded,
            }
        }
    }

    /// One listing of the device, and for every fragment on it its first
    /// header, its size, then each further page's header.
    fn load_listed<B: StorageBackend>(
        backend: &B,
        ndim: usize,
        filter: impl Fn(&str) -> bool,
    ) -> Result<Self> {
        let catalog = FragmentCatalog::default();
        for name in backend.list()? {
            if !filter(&name) {
                continue;
            }
            let first = peek_meta(&name, ndim, |len| backend.get_prefix(&name, len))?;
            let size = backend.size(&name)?;
            let peek = |offset, len| backend.get_range(&name, offset, len);
            let pages = pages(&name, first, size, peek)?;
            catalog.insert(CatalogEntry::new(name, pages, size));
        }
        Ok(catalog)
    }

    /// Replace this catalog's contents with a freshly loaded manifest.
    pub fn reload<B: StorageBackend>(
        &self,
        backend: &B,
        ndim: usize,
        filter: impl Fn(&str) -> bool,
    ) -> Result<()> {
        let fresh = Self::load(backend, ndim, filter)?;
        let mut entries = self.entries.write();
        *entries = fresh.entries.into_inner();
        *self.shapes.write() = fresh.shapes.into_inner();
        Ok(())
    }

    /// Record a fragment (newly written or externally discovered).
    pub fn insert(&self, entry: CatalogEntry) {
        let mut entries = self.entries.write();
        let mut shapes = self.shapes.write();
        for page in &entry.pages {
            *shapes.entry(page.meta.shape.clone()).or_default() += 1;
        }
        let replaced = entries.insert(NameOrder::of(&entry.name), Arc::new(entry));
        if let Some(old) = replaced {
            uncount(&mut shapes, &old);
        }
    }

    /// Forget a fragment, returning its entry if it was known. Also
    /// clears its pages' quarantine records — the name may be reused by
    /// a future epoch, which must start with a clean slate.
    pub fn remove(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        let mut entries = self.entries.write();
        let entry = entries.remove(&NameOrder::of(name))?;
        uncount(&mut self.shapes.write(), &entry);
        drop(entries);
        let mut quarantined = self.quarantined.write();
        for page in &entry.pages {
            quarantined.remove(&page.name);
        }
        Some(entry)
    }

    /// Mark a page as damaged: excluded from planning, its blob from
    /// consolidation, never deleted. Returns `true` if the page was not
    /// already quarantined (so callers can count first observations
    /// exactly once); the first diagnosis wins — re-quarantining keeps
    /// the original reason. The record survives [`reload`](Self::reload).
    pub fn quarantine(&self, name: impl Into<String>, reason: impl Into<String>) -> bool {
        match self.quarantined.write().entry(name.into()) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(reason.into());
                true
            }
        }
    }

    /// All quarantine records as `(name, reason)`, in name order.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.quarantined
            .read()
            .iter()
            .map(|(n, r)| (n.clone(), r.clone()))
            .collect()
    }

    /// Look up one fragment.
    pub fn get(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.entries.read().get(&NameOrder::of(name)).cloned()
    }

    /// Fragment names in write order.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .read()
            .values()
            .map(|e| e.name.clone())
            .collect()
    }

    /// Every entry none of whose pages is quarantined, in write order —
    /// what consolidation and other bulk readers may safely decode, and
    /// retire whole.
    pub fn snapshot(&self) -> Vec<Arc<CatalogEntry>> {
        let quarantined = self.quarantined.read();
        let healthy =
            |e: &&Arc<CatalogEntry>| !e.pages.iter().any(|p| quarantined.contains_key(&p.name));
        self.entries
            .read()
            .values()
            .filter(healthy)
            .cloned()
            .collect()
    }

    /// The first page, in write order, of a [`snapshot`](Self::snapshot)
    /// entry that stores a tensor of another shape than `shape` — what a
    /// read refuses to plan over. When every page stores `shape`, the
    /// census kept at insert says so without walking the manifest.
    pub(crate) fn foreign_page(&self, shape: &Shape) -> Option<Arc<PageEntry>> {
        if self.shapes.read().keys().all(|s| s == shape) {
            return None;
        }
        (self.snapshot().iter())
            .flat_map(|entry| &entry.pages)
            .find(|page| page.meta.shape != *shape)
            .cloned()
    }

    /// Every entry in write order, quarantined ones included — what
    /// accounting and scrubbing walk.
    pub fn snapshot_all(&self) -> Vec<Arc<CatalogEntry>> {
        self.entries.read().values().cloned().collect()
    }

    /// Total stored bytes across all fragments.
    pub fn total_bytes(&self) -> u64 {
        self.entries.read().values().map(|e| e.size).sum()
    }

    /// Bounding-box pruning of every page against a query box — the
    /// in-memory version of Algorithm 3's discovery loop. Empty pages have
    /// no box and never match.
    pub fn plan(&self, query_bbox: &Region) -> ReadPlan {
        let entries = self.entries.read();
        let quarantined = self.quarantined.read();
        let mut plan = ReadPlan::default();
        for page in entries.values().flat_map(|entry| &entry.pages) {
            plan.scanned += 1;
            let overlaps = page
                .meta
                .bbox
                .as_ref()
                .is_some_and(|b| b.intersects(query_bbox));
            if overlaps {
                if quarantined.contains_key(&page.name) {
                    plan.quarantined.push(page.name.clone());
                } else {
                    plan.pages.push(page.clone());
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::codec::Codec;
    use crate::error::StorageError;
    use crate::fragment::{encode_pages, PagePayload};
    use artsparse_core::FormatKind;
    use std::borrow::Cow;

    fn put_fragment(backend: &MemBackend, name: &str, lo: [u64; 2], hi: [u64; 2]) -> usize {
        put_pages(backend, name, &[(lo, hi)])
    }

    /// A blob of one one-point page per box.
    fn put_pages(backend: &MemBackend, name: &str, boxes: &[([u64; 2], [u64; 2])]) -> usize {
        let shape = Shape::new(vec![32, 32]).unwrap();
        let page = |(lo, hi): &([u64; 2], [u64; 2])| PagePayload {
            kind: FormatKind::Linear,
            n: 1,
            bbox: Some(Region::from_corners(lo, hi).unwrap()),
            index: Cow::Borrowed(&[1, 2, 3, 4]),
            values: Cow::Borrowed(&[0; 8]),
        };
        let codecs = (Codec::None, Codec::None);
        let bytes = encode_pages(&shape, 8, codecs, boxes.iter().map(page).collect());
        backend.put(name, &bytes).unwrap();
        bytes.len()
    }

    /// The quarantined page names.
    fn quarantined(catalog: &FragmentCatalog) -> Vec<String> {
        catalog
            .quarantined()
            .into_iter()
            .map(|(name, _)| name)
            .collect()
    }

    #[test]
    fn load_filters_and_records_sizes() {
        let backend = MemBackend::new();
        let len_a = put_fragment(&backend, "frag-00000001.asf", [0, 0], [3, 3]);
        let len_b = put_fragment(&backend, "frag-00000002.asf", [10, 10], [12, 12]);
        backend.put("not-a-fragment.txt", &[1, 2, 3]).unwrap();

        let catalog = FragmentCatalog::load(&backend, 2, |n| n.starts_with("frag-")).unwrap();
        assert_eq!(
            catalog.names(),
            vec!["frag-00000001.asf", "frag-00000002.asf"]
        );
        assert_eq!(catalog.total_bytes(), (len_a + len_b) as u64);
        assert_eq!(catalog.get("frag-00000001.asf").unwrap().pages[0].meta.n, 1);
    }

    #[test]
    fn commit_protocol_blobs_stay_invisible_to_discovery() {
        // Staging blobs, tombstones, and epoch markers share the store
        // with fragments; the engine's name filter must keep all of them
        // out of the catalog. Their payloads are not valid fragments, so
        // letting one through would fail the load outright.
        let backend = MemBackend::new();
        put_fragment(&backend, "frag-00000001-00000001.asf", [0, 0], [3, 3]);
        backend
            .put("frag-00000002-00000001.asf.tmp", &[0xde, 0xad])
            .unwrap();
        backend
            .put(
                "tomb-frag-00000001-00000001c000001.asf.tsn",
                b"frag-00000001-00000001.asf\n",
            )
            .unwrap();
        backend.put("epoch-00000001.lck", &[]).unwrap();

        let filter = |n: &str| n.starts_with("frag-") && n.ends_with(".asf");
        let catalog = FragmentCatalog::load(&backend, 2, filter).unwrap();
        assert_eq!(catalog.names(), vec!["frag-00000001-00000001.asf"]);
    }

    #[test]
    fn precedence_holds_past_the_name_widths() {
        // At seq 10⁸ a name gains a digit and, as a string, sorts before
        // seq 10⁸ − 1. Reads and consolidation take the newest fragment
        // from the catalog's order, so it must still come last.
        let backend = MemBackend::new();
        let older = "frag-99999999-00000001.asf";
        let newer = "frag-100000000-00000001.asf";
        assert!(newer < older);
        put_fragment(&backend, newer, [0, 0], [3, 3]);
        put_fragment(&backend, older, [0, 0], [3, 3]);
        let catalog = FragmentCatalog::load(&backend, 2, |_| true).unwrap();
        assert_eq!(catalog.names(), [older, newer]);
        let plan = catalog.plan(&Region::from_corners(&[1, 1], &[1, 1]).unwrap());
        let planned: Vec<&str> = plan.pages.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(planned, [older, newer]);
        let snapshot: Vec<String> = catalog.snapshot().iter().map(|e| e.name.clone()).collect();
        assert_eq!(snapshot, [older, newer]);
    }

    #[test]
    fn plan_prunes_by_bounding_box() {
        let backend = MemBackend::new();
        put_fragment(&backend, "frag-00000001.asf", [0, 0], [3, 3]);
        put_fragment(&backend, "frag-00000002.asf", [10, 10], [12, 12]);
        let catalog = FragmentCatalog::load(&backend, 2, |_| true).unwrap();

        let q = Region::from_corners(&[2, 2], &[5, 5]).unwrap();
        let plan = catalog.plan(&q);
        assert_eq!(plan.scanned, 2);
        assert_eq!(plan.pages.len(), 1);
        assert_eq!(plan.pages[0].name, "frag-00000001.asf");

        let q = Region::from_corners(&[20, 20], &[30, 30]).unwrap();
        assert!(catalog.plan(&q).pages.is_empty());
    }

    #[test]
    fn quarantine_excludes_from_planning_but_not_accounting() {
        let backend = MemBackend::new();
        put_fragment(&backend, "frag-00000001.asf", [0, 0], [3, 3]);
        put_fragment(&backend, "frag-00000002.asf", [2, 2], [5, 5]);
        let catalog = FragmentCatalog::load(&backend, 2, |_| true).unwrap();
        let all_bytes = catalog.total_bytes();

        assert!(catalog.quarantine("frag-00000001.asf", "checksum mismatch"));
        assert!(
            !catalog.quarantine("frag-00000001.asf", "again"),
            "already known"
        );
        assert_eq!(quarantined(&catalog), ["frag-00000001.asf"]);

        // Planning routes the damaged overlap into `quarantined`.
        let q = Region::from_corners(&[2, 2], &[3, 3]).unwrap();
        let plan = catalog.plan(&q);
        assert_eq!(plan.pages.len(), 1);
        assert_eq!(plan.pages[0].name, "frag-00000002.asf");
        assert_eq!(plan.quarantined, vec!["frag-00000001.asf"]);
        // A query that misses the damaged bbox reports nothing.
        let q = Region::from_corners(&[5, 5], &[5, 5]).unwrap();
        assert!(catalog.plan(&q).quarantined.is_empty());

        // Healthy snapshots shrink; accounting and the full walk do not.
        assert_eq!(catalog.snapshot().len(), 1);
        assert_eq!(catalog.snapshot_all().len(), 2);
        assert_eq!(catalog.total_bytes(), all_bytes);

        // The record survives a reload (the manifest resyncs, the
        // damage verdict stands)…
        catalog.reload(&backend, 2, |_| true).unwrap();
        assert_eq!(quarantined(&catalog), ["frag-00000001.asf"]);
        assert_eq!(catalog.quarantined()[0].1, "checksum mismatch");

        // …but removal clears it: the name may be reused.
        catalog.remove("frag-00000001.asf");
        assert!(catalog.quarantined().is_empty());
    }

    #[test]
    fn incremental_maintenance_and_reload() {
        let backend = MemBackend::new();
        put_fragment(&backend, "frag-00000001.asf", [0, 0], [3, 3]);
        let catalog = FragmentCatalog::load(&backend, 2, |_| true).unwrap();

        catalog.remove("frag-00000001.asf").unwrap();
        assert!(catalog.names().is_empty());
        assert_eq!(catalog.total_bytes(), 0);

        // The device changed behind the catalog's back; reload resyncs.
        put_fragment(&backend, "frag-00000002.asf", [4, 4], [6, 6]);
        catalog.reload(&backend, 2, |_| true).unwrap();
        assert_eq!(catalog.names().len(), 2);
    }

    #[test]
    fn a_paged_blob_is_one_entry_whose_pages_plan_and_quarantine_alone() {
        let backend = MemBackend::new();
        let blob = "frag-00000002-00000001c000001.asf";
        let boxes = [([0, 0], [3, 3]), ([4, 0], [7, 3]), ([8, 0], [9, 3])];
        let size = put_pages(&backend, blob, &boxes) as u64;
        put_fragment(&backend, "frag-00000003-00000001.asf", [0, 0], [9, 9]);
        let catalog = FragmentCatalog::load(&backend, 2, |_| true).unwrap();
        assert_eq!(catalog.names().len(), 2);
        let entry = catalog.get(blob).unwrap();
        assert_eq!(entry.size, size);
        let offsets: Vec<u64> = entry.pages.iter().map(|p| p.offset).collect();
        assert_eq!(offsets, [0, size / 3, 2 * size / 3]);
        let page = |i: usize| format!("{blob}#{i}");
        let names: Vec<&str> = entry.pages.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, [page(0), page(1), page(2)]);

        // Plans scan and yield pages, in write order.
        let q = Region::from_corners(&[5, 1], &[8, 1]).unwrap();
        let plan = catalog.plan(&q);
        assert_eq!(plan.scanned, 4);
        let planned: Vec<&str> = plan.pages.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(planned, [&page(1), &page(2), "frag-00000003-00000001.asf"]);

        // A quarantined page leaves the plan alone; its blob leaves the
        // snapshot whole, so a merge never retires the evidence.
        assert!(catalog.quarantine(page(1), "checksum mismatch"));
        let plan = catalog.plan(&q);
        assert_eq!((plan.quarantined, plan.pages.len()), (vec![page(1)], 2));
        let healthy: Vec<String> = catalog.snapshot().iter().map(|e| e.name.clone()).collect();
        assert_eq!(healthy, ["frag-00000003-00000001.asf"]);
        catalog.remove(blob);
        assert!(catalog.quarantined().is_empty());
    }

    #[test]
    fn a_blob_cut_at_a_page_boundary_fails_the_load() {
        let backend = MemBackend::new();
        let name = "frag-00000002-00000001c000001.asf";
        let size = put_pages(&backend, name, &[([0, 0], [3, 3]), ([4, 0], [7, 3])]);
        let whole = backend.get(name).unwrap();
        backend.put(name, &whole[..size / 2]).unwrap();
        let err = FragmentCatalog::load(&backend, 2, |_| true).unwrap_err();
        assert!(
            matches!(&err, StorageError::CorruptFragment { reason, .. }
                if reason.contains("says another follows")),
            "{err}"
        );
    }

    #[test]
    fn the_shape_census_finds_a_foreign_page_until_it_leaves() {
        let backend = MemBackend::new();
        put_fragment(&backend, "frag-00000001.asf", [0, 0], [3, 3]);
        let catalog = FragmentCatalog::load(&backend, 2, |_| true).unwrap();
        let ours = Shape::new(vec![32, 32]).unwrap();
        assert!(catalog.foreign_page(&ours).is_none());
        let wider = Shape::new(vec![32, 64]).unwrap();
        let found = catalog.foreign_page(&wider).unwrap();
        assert_eq!(found.name, "frag-00000001.asf");

        // A blob of another tensor enters by a reload…
        let page = PagePayload {
            kind: FormatKind::Linear,
            n: 1,
            bbox: Some(Region::from_corners(&[1, 1], &[1, 1]).unwrap()),
            index: Cow::Borrowed(&[1, 2, 3, 4]),
            values: Cow::Borrowed(&[0; 8]),
        };
        let codecs = (Codec::None, Codec::None);
        let foreign = encode_pages(&Shape::new(vec![16, 16]).unwrap(), 8, codecs, vec![page]);
        backend.put("frag-00000002.asf", &foreign).unwrap();
        catalog.reload(&backend, 2, |_| true).unwrap();
        let found = catalog.foreign_page(&ours).unwrap();
        assert_eq!(found.name, "frag-00000002.asf");
        // …re-inserting it counts it once…
        catalog.insert(CatalogEntry::clone(&catalog.get(&found.blob).unwrap()));
        // …a quarantined one is not planned, so it is not refused…
        assert!(catalog.quarantine(found.name.clone(), "checksum mismatch"));
        assert!(catalog.foreign_page(&ours).is_none());
        // …and once removed the store is of one shape again.
        catalog.remove("frag-00000002.asf").unwrap();
        assert_eq!(*catalog.shapes.read(), HashMap::from([(ours.clone(), 1)]));
        assert!(catalog.foreign_page(&ours).is_none());
    }
}
