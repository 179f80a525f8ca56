//! Blob naming — the one place that knows how fragment identity is
//! spelled on the device (DESIGN.md §9).
//!
//! Every blob the commit protocol creates is named here: committed
//! fragments, their staged (`.tmp`) and tombstone (`tomb-*.tsn`)
//! companions, epoch claim markers, and the health probe. Nothing else
//! formats or parses these names, so the `(seq, epoch, cgen)`
//! precedence order and the "auxiliary blobs never parse as fragments"
//! invariant have a single definition.

use crate::error::{Result, StorageError};

/// Prefix + suffix of fragment blob names.
const FRAG_PREFIX: &str = "frag-";
const FRAG_SUFFIX: &str = ".asf";

/// Suffix of staged (not yet committed) blobs. Staged names never parse
/// as fragment names, so `list`-based discovery, catalog reloads, and
/// recovery all treat them as invisible until the rename-commit.
const STAGING_SUFFIX: &str = ".tmp";

/// Prefix + suffix of consolidation tombstones: a durable record of the
/// delete set, one per pass and named after its output, written before
/// the output commits so a crash mid-consolidation is replayed (sources
/// deleted) or discarded (tombstone deleted) at the next open/refresh.
const TOMB_PREFIX: &str = "tomb-";
const TOMB_SUFFIX: &str = ".tsn";

/// Prefix + suffix of epoch claim markers. Each engine claims a unique
/// epoch at open with a create-exclusive put, and stamps it into every
/// fragment name it writes — two engines over one directory can race but
/// can never silently overwrite each other's fragments.
const EPOCH_PREFIX: &str = "epoch-";
const EPOCH_SUFFIX: &str = ".lck";

/// Identity of a fragment, encoded in (and recovered from) its name.
///
/// The derived `Ord` — `(seq, epoch, cgen)` — is the engine's
/// cross-fragment precedence, and the catalog iterates in it
/// ([`NameOrder`]). The names are fixed-width decimal only up to 10⁸
/// sequence numbers and 10⁶ generations; past those a wider field sorts
/// *before* a narrower one as a string, so nothing orders names as
/// strings.
///
/// * `seq` is the per-store write sequence;
/// * `epoch` is the per-engine claim, disambiguating two engines that
///   allocate the same `seq` concurrently;
/// * `cgen` is the consolidation generation: a consolidated fragment
///   keeps the *highest sequence number of its sources* (it contains no
///   newer data than that), with `cgen` breaking the tie just above
///   them. A fragment written while consolidation was running gets a
///   higher `seq` and so keeps precedence over the merged output —
///   the TileDB-style rule that makes consolidation safe to race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct FragmentId {
    pub seq: u64,
    pub epoch: u64,
    pub cgen: u32,
}

impl FragmentId {
    /// The identity of a plain (unconsolidated) fragment.
    pub fn plain(seq: u64, epoch: u64) -> FragmentId {
        FragmentId {
            seq,
            epoch,
            cgen: 0,
        }
    }

    /// The identity of the fragment that replaces `sources`, written by the
    /// engine holding `epoch`: the highest source `seq` (the output holds
    /// nothing newer), one consolidation generation above the highest
    /// source's. A source already at the last generation `u32` counts is
    /// refused with a typed error instead of wrapping below its sources.
    pub fn replacing<'a>(
        sources: impl IntoIterator<Item = &'a String>,
        epoch: u64,
    ) -> Result<FragmentId> {
        let mut id = FragmentId::plain(0, epoch);
        let mut newest = None;
        for src in sources {
            let sid = parse_fragment_name(src)
                .ok_or_else(|| StorageError::corrupt(src, "cataloged name does not parse"))?;
            id.seq = id.seq.max(sid.seq);
            if sid.cgen >= id.cgen {
                (id.cgen, newest) = (sid.cgen, Some(src));
            }
        }
        id.cgen = id.cgen.checked_add(1).ok_or_else(|| {
            StorageError::corrupt(
                newest.map_or("", String::as_str),
                "consolidation generation is at u32::MAX; no generation outranks it",
            )
        })?;
        Ok(id)
    }
}

/// The catalog's order on blob names: a fragment's parsed [`FragmentId`],
/// which is precedence. Names that do not parse order among themselves
/// as strings, before every fragment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum NameOrder {
    Other(String),
    Fragment(FragmentId),
}

impl NameOrder {
    pub fn of(name: &str) -> NameOrder {
        match parse_fragment_name(name) {
            Some(id) => NameOrder::Fragment(id),
            None => NameOrder::Other(name.to_owned()),
        }
    }
}

pub(super) fn format_fragment_name(id: FragmentId) -> String {
    let FragmentId { seq, epoch, cgen } = id;
    match cgen {
        0 => format!("{FRAG_PREFIX}{seq:08}-{epoch:08}{FRAG_SUFFIX}"),
        _ => format!("{FRAG_PREFIX}{seq:08}-{epoch:08}c{cgen:06}{FRAG_SUFFIX}"),
    }
}

/// Strict decimal as `{:0width$}` formats it: ASCII digits only (no sign
/// or whitespace that `parse` would accept), zero-padded to exactly
/// `width`, and unpadded past it — so each value has one spelling and
/// name parsing is a bijection with formatting.
fn parse_decimal(s: &str, width: usize) -> Option<u64> {
    let canonical = s.len() == width || (s.len() > width && !s.starts_with('0'));
    if !canonical || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

pub(crate) fn parse_fragment_name(name: &str) -> Option<FragmentId> {
    let body = name.strip_prefix(FRAG_PREFIX)?.strip_suffix(FRAG_SUFFIX)?;
    let (seq, rest) = body.split_once('-')?;
    let seq = parse_decimal(seq, 8)?;
    let Some((epoch, cgen)) = rest.split_once('c') else {
        return Some(FragmentId::plain(seq, parse_decimal(rest, 8)?));
    };
    // `c000000` would alias the plain name; reject it.
    let cgen = parse_decimal(cgen, 6).filter(|&c| c > 0)?;
    Some(FragmentId {
        seq,
        epoch: parse_decimal(epoch, 8)?,
        cgen: u32::try_from(cgen).ok()?,
    })
}

/// The catalog's discovery filter: strict fragment-name parsing, which
/// keeps every auxiliary blob of the protocol out of the manifest.
pub(super) fn is_fragment_name(name: &str) -> bool {
    parse_fragment_name(name).is_some()
}

/// The first sequence number past every fragment in `names`.
pub(super) fn next_seq(names: &[String]) -> u64 {
    names
        .iter()
        .filter_map(|name| parse_fragment_name(name))
        .map(|id| id.seq)
        .max()
        .unwrap_or(0)
        + 1
}

pub(super) fn staged_name(name: &str) -> String {
    format!("{name}{STAGING_SUFFIX}")
}

/// Whether a blob is a staging blob (a commit in flight, or an orphan of
/// one that died).
pub(super) fn is_staged_name(name: &str) -> bool {
    name.ends_with(STAGING_SUFFIX)
}

pub(super) fn tombstone_name(target: &str) -> String {
    format!("{TOMB_PREFIX}{target}{TOMB_SUFFIX}")
}

/// The fragment a tombstone protects, if the blob name is a tombstone.
pub(super) fn parse_tombstone_name(name: &str) -> Option<&str> {
    let target = name.strip_prefix(TOMB_PREFIX)?.strip_suffix(TOMB_SUFFIX)?;
    parse_fragment_name(target).map(|_| target)
}

pub(super) fn epoch_marker_name(epoch: u64) -> String {
    format!("{EPOCH_PREFIX}{epoch:08}{EPOCH_SUFFIX}")
}

pub(super) fn parse_epoch_marker(name: &str) -> Option<u64> {
    parse_decimal(
        name.strip_prefix(EPOCH_PREFIX)?
            .strip_suffix(EPOCH_SUFFIX)?,
        8,
    )
}

/// The health probe's blob. It carries the staging suffix: invisible to
/// fragment discovery, and swept by recovery should the process die
/// between the probe's put and its delete.
pub(super) fn probe_name(epoch: u64) -> String {
    format!("probe-{epoch:08}{STAGING_SUFFIX}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64, epoch: u64, cgen: u32) -> FragmentId {
        FragmentId { seq, epoch, cgen }
    }

    #[test]
    fn fragment_names_roundtrip() {
        for id in [id(42, 7, 0), id(42, 7, 3), id(u64::MAX, u64::MAX, u32::MAX)] {
            let n = format_fragment_name(id);
            assert_eq!(parse_fragment_name(&n), Some(id), "{n}");
        }
        assert_eq!(
            format_fragment_name(id(4, 2, 1)),
            "frag-00000004-00000002c000001.asf"
        );
        // Pre-epoch names no store was ever written with do not parse.
        assert_eq!(parse_fragment_name("frag-00000042.asf"), None);
        for bad in [
            "other.bin",
            "frag-xx.asf",
            "frag-00000001-xx.asf",
            "frag-00000001-00000001c000000.asf", // cgen 0 aliases the plain name
            // A consolidation's output is one blob under one name: a
            // `p`-numbered suffix does not parse.
            "frag-00000001-00000001c000001p0001.asf",
            "frag-00000001-00000001c000001p.asf",
            "frag-00000001-00000001cxx.asf",
            // One spelling per id: no field narrower than its width, and
            // no zero padding past it.
            "frag-1-1.asf",
            "frag-00000001-1.asf",
            "frag-00000001-00000001c1.asf",
            "frag-000000001-00000001.asf",
            "frag-00000001-00000001c0000001.asf",
            "frag--1.asf",
            "frag-+1.asf",
            "frag-00000001-00000001.asf.tmp", // staged: invisible
            "tomb-frag-00000001-00000001.asf.tsn",
            "epoch-00000001.lck",
        ] {
            assert_eq!(parse_fragment_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn name_order_is_precedence_order() {
        // The catalog's order on names must equal (seq, epoch, cgen)
        // order — it is what cross-fragment last-writer-wins precedence
        // runs on — including where a field outgrows its fixed width.
        let ids = [
            id(1, 2, 0),
            id(1, 2, 1),
            id(1, 3, 0),
            id(2, 1, 0),
            id(100, 1, 0),
            id(100, 1, 999_999),
            id(100, 1, 1_000_000),
            id(99_999_999, 1, 0),
            id(100_000_000, 1, 0),
            id(100_000_000, 100_000_000, 0),
        ];
        let names: Vec<String> = ids.iter().map(|&id| format_fragment_name(id)).collect();
        let mut sorted = names.clone();
        sorted.sort_by_key(|n| NameOrder::of(n));
        assert_eq!(names, sorted);
        // As strings, the wider field sorts first: the catalog must not
        // order by name.
        assert!(names[8] < names[7], "{} vs {}", names[8], names[7]);
        assert!(names[6] < names[5], "{} vs {}", names[6], names[5]);
        // Names that are not fragments order before every fragment.
        assert!(NameOrder::of("frag-junk.asf") < NameOrder::of(&names[0]));
    }

    #[test]
    fn the_last_generation_is_a_typed_error() {
        let sources = [
            format_fragment_name(id(3, 1, 0)),
            format_fragment_name(id(2, 1, u32::MAX)),
        ];
        let err = FragmentId::replacing(&sources, 5).unwrap_err();
        assert!(
            matches!(&err, StorageError::CorruptFragment { name, .. } if *name == sources[1]),
            "{err}"
        );
        let below = [format_fragment_name(id(2, 1, u32::MAX - 1))];
        assert_eq!(
            FragmentId::replacing(&below, 5).unwrap(),
            id(2, 5, u32::MAX)
        );
    }

    #[test]
    fn auxiliary_names_roundtrip() {
        let frag = "frag-00000003-00000001.asf";
        assert_eq!(staged_name(frag), "frag-00000003-00000001.asf.tmp");
        let tomb = tombstone_name(frag);
        assert_eq!(parse_tombstone_name(&tomb), Some(frag));
        assert_eq!(parse_tombstone_name("tomb-junk.tsn"), None);
        assert_eq!(parse_tombstone_name(frag), None);
        assert_eq!(parse_epoch_marker(&epoch_marker_name(9)), Some(9));
        assert_eq!(parse_epoch_marker(frag), None);
    }
}
