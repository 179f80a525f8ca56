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
use crate::fragment::{decode_meta, FragmentMeta};
use artsparse_tensor::Region;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything the engine knows about one fragment without touching its
/// payload sections.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Blob name on the device.
    pub name: String,
    /// Decoded header.
    pub meta: FragmentMeta,
    /// Size of the blob on the device in bytes.
    pub size: u64,
}

/// The outcome of planning a read: which fragments were considered and
/// which survive bounding-box pruning, in write order.
#[derive(Debug, Clone, Default)]
pub struct ReadPlan {
    /// Fragments whose metadata was examined.
    pub scanned: usize,
    /// Fragments whose bounding box overlaps the query, in write order.
    pub fragments: Vec<Arc<CatalogEntry>>,
    /// Quarantined fragments whose bounding box overlaps the query —
    /// data the plan *would* have read but cannot trust. A non-empty
    /// list means any result built from this plan may be incomplete.
    pub quarantined: Vec<String>,
}

/// Manifest of fragment metadata, keyed by the identity each name
/// spells, so iteration order is write (precedence) order — also past
/// the widths at which name strings stop sorting that way.
#[derive(Debug, Default)]
pub struct FragmentCatalog {
    entries: RwLock<BTreeMap<NameOrder, Arc<CatalogEntry>>>,
    /// Damaged fragments (name → why), excluded from planning and
    /// consolidation but never deleted. Kept separate from `entries` so
    /// a `reload` resyncing the manifest does not forget what was
    /// already found to be damaged.
    quarantined: RwLock<BTreeMap<String, String>>,
}

impl FragmentCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a catalog by listing the device and peeking every header
    /// once. `ndim` sizes the header peek; `filter` keeps only blob names
    /// that belong to the engine (fragment names). The engine's filter is
    /// strict fragment-name parsing, which is what keeps the commit
    /// protocol's auxiliary blobs — `.tmp` staging blobs, `tomb-*.tsn`
    /// tombstones, `epoch-*.lck` claim markers — invisible to discovery:
    /// a staged fragment simply does not exist until its rename-commit.
    pub fn load<B: StorageBackend>(
        backend: &B,
        ndim: usize,
        filter: impl Fn(&str) -> bool,
    ) -> Result<Self> {
        let catalog = FragmentCatalog::new();
        let header_len = FragmentMeta::header_len(ndim);
        for name in backend.list()? {
            if !filter(&name) {
                continue;
            }
            let header = backend.get_prefix(&name, header_len)?;
            let meta = decode_meta(&name, &header)?;
            let size = backend.size(&name)?;
            catalog.insert(CatalogEntry { name, meta, size });
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
        *self.entries.write() = fresh.entries.into_inner();
        Ok(())
    }

    /// Record a fragment (newly written or externally discovered).
    pub fn insert(&self, entry: CatalogEntry) {
        self.entries
            .write()
            .insert(NameOrder::of(&entry.name), Arc::new(entry));
    }

    /// Forget a fragment, returning its entry if it was known. Also
    /// clears any quarantine record — the name may be reused by a
    /// future epoch, which must start with a clean slate.
    pub fn remove(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.quarantined.write().remove(name);
        self.entries.write().remove(&NameOrder::of(name))
    }

    /// Mark a fragment as damaged: excluded from planning and
    /// consolidation, never deleted. Returns `true` if the fragment was
    /// not already quarantined (so callers can count first observations
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

    /// Whether a fragment is quarantined.
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.quarantined.read().contains_key(name)
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

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Fragment names in write order.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .read()
            .values()
            .map(|e| e.name.clone())
            .collect()
    }

    /// All healthy (non-quarantined) entries in write order — what
    /// consolidation and other bulk readers may safely decode.
    pub fn snapshot(&self) -> Vec<Arc<CatalogEntry>> {
        let quarantined = self.quarantined.read();
        self.entries
            .read()
            .values()
            .filter(|e| !quarantined.contains_key(&e.name))
            .cloned()
            .collect()
    }

    /// [`snapshot`](Self::snapshot), grouped into consolidation runs: the
    /// parts one pass cut its output into (adjacent in write order) are
    /// one run, and every other fragment is a run by itself.
    pub fn runs(&self) -> Vec<Vec<Arc<CatalogEntry>>> {
        let quarantined = self.quarantined.read();
        let entries = self.entries.read();
        let mut runs: Vec<Vec<Arc<CatalogEntry>>> = Vec::new();
        let mut last: Option<&NameOrder> = None;
        for (key, entry) in entries.iter() {
            if quarantined.contains_key(&entry.name) {
                continue;
            }
            match runs.last_mut() {
                Some(run) if last.is_some_and(|prev| prev.same_run(key)) => run.push(entry.clone()),
                _ => runs.push(vec![entry.clone()]),
            }
            last = Some(key);
        }
        runs
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

    /// Bounding-box pruning against a query box — the in-memory version
    /// of Algorithm 3's discovery loop. Empty fragments have no box and
    /// never match.
    pub fn plan(&self, query_bbox: &Region) -> ReadPlan {
        let entries = self.entries.read();
        let quarantined = self.quarantined.read();
        let mut plan = ReadPlan {
            scanned: entries.len(),
            fragments: Vec::new(),
            quarantined: Vec::new(),
        };
        for entry in entries.values() {
            let overlaps = entry
                .meta
                .bbox
                .as_ref()
                .is_some_and(|b| b.intersects(query_bbox));
            if overlaps {
                if quarantined.contains_key(&entry.name) {
                    plan.quarantined.push(entry.name.clone());
                } else {
                    plan.fragments.push(entry.clone());
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
    use crate::fragment::encode_fragment;
    use artsparse_core::FormatKind;
    use artsparse_tensor::Shape;

    fn put_fragment(backend: &MemBackend, name: &str, lo: [u64; 2], hi: [u64; 2]) -> usize {
        let shape = Shape::new(vec![32, 32]).unwrap();
        let bbox = Region::from_corners(&lo, &hi).unwrap();
        let bytes = encode_fragment(
            FormatKind::Linear,
            &shape,
            1,
            8,
            Some(&bbox),
            &[1, 2, 3, 4],
            &[0u8; 8],
            Codec::None,
            Codec::None,
        );
        backend.put(name, &bytes).unwrap();
        bytes.len()
    }

    #[test]
    fn load_filters_and_records_sizes() {
        let backend = MemBackend::new();
        let len_a = put_fragment(&backend, "frag-00000001.asf", [0, 0], [3, 3]);
        let len_b = put_fragment(&backend, "frag-00000002.asf", [10, 10], [12, 12]);
        backend.put("not-a-fragment.txt", &[1, 2, 3]).unwrap();

        let catalog = FragmentCatalog::load(&backend, 2, |n| n.starts_with("frag-")).unwrap();
        assert_eq!(catalog.len(), 2);
        assert_eq!(
            catalog.names(),
            vec!["frag-00000001.asf", "frag-00000002.asf"]
        );
        assert_eq!(catalog.total_bytes(), (len_a + len_b) as u64);
        assert_eq!(catalog.get("frag-00000001.asf").unwrap().meta.n, 1);
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
        let planned: Vec<&str> = plan.fragments.iter().map(|e| e.name.as_str()).collect();
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
        assert_eq!(plan.fragments.len(), 1);
        assert_eq!(plan.fragments[0].name, "frag-00000001.asf");

        let q = Region::from_corners(&[20, 20], &[30, 30]).unwrap();
        assert!(catalog.plan(&q).fragments.is_empty());
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
        assert!(catalog.is_quarantined("frag-00000001.asf"));

        // Planning routes the damaged overlap into `quarantined`.
        let q = Region::from_corners(&[2, 2], &[3, 3]).unwrap();
        let plan = catalog.plan(&q);
        assert_eq!(plan.fragments.len(), 1);
        assert_eq!(plan.fragments[0].name, "frag-00000002.asf");
        assert_eq!(plan.quarantined, vec!["frag-00000001.asf"]);
        // A query that misses the damaged bbox reports nothing.
        let q = Region::from_corners(&[5, 5], &[5, 5]).unwrap();
        assert!(catalog.plan(&q).quarantined.is_empty());

        // Healthy snapshots shrink; accounting and the full walk do not.
        assert_eq!(catalog.snapshot().len(), 1);
        assert_eq!(catalog.snapshot_all().len(), 2);
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.total_bytes(), all_bytes);

        // The record survives a reload (the manifest resyncs, the
        // damage verdict stands)…
        catalog.reload(&backend, 2, |_| true).unwrap();
        assert!(catalog.is_quarantined("frag-00000001.asf"));
        assert_eq!(catalog.quarantined()[0].1, "checksum mismatch");

        // …but removal clears it: the name may be reused.
        catalog.remove("frag-00000001.asf");
        assert!(!catalog.is_quarantined("frag-00000001.asf"));
    }

    #[test]
    fn incremental_maintenance_and_reload() {
        let backend = MemBackend::new();
        put_fragment(&backend, "frag-00000001.asf", [0, 0], [3, 3]);
        let catalog = FragmentCatalog::load(&backend, 2, |_| true).unwrap();

        catalog.remove("frag-00000001.asf").unwrap();
        assert!(catalog.is_empty());
        assert_eq!(catalog.total_bytes(), 0);

        // The device changed behind the catalog's back; reload resyncs.
        put_fragment(&backend, "frag-00000002.asf", [4, 4], [6, 6]);
        catalog.reload(&backend, 2, |_| true).unwrap();
        assert_eq!(catalog.names().len(), 2);
    }
}
