//! Blob naming — the one place that knows how fragment identity is
//! spelled on the device (DESIGN.md §9).
//!
//! Every blob the commit protocol creates is named here: committed
//! fragments, their staged (`.tmp`) and tombstone (`tomb-*.tsn`)
//! companions, epoch claim markers, and the health probe. Nothing else
//! formats or parses these names, so the `(seq, epoch, cgen)` precedence
//! order and the "auxiliary blobs never parse as fragments" invariant have
//! a single definition.

use crate::error::{Result, StorageError};

/// Prefix + suffix of fragment blob names.
const FRAG_PREFIX: &str = "frag-";
const FRAG_SUFFIX: &str = ".asf";

/// Suffix of staged (not yet committed) blobs. Staged names never parse
/// as fragment names, so `list`-based discovery, catalog reloads, and
/// recovery all treat them as invisible until the rename-commit.
const STAGING_SUFFIX: &str = ".tmp";

/// Prefix + suffix of consolidation tombstones: a durable record of the
/// delete set, written before the consolidated fragment commits so a
/// crash mid-consolidation is replayed (sources deleted) or discarded
/// (commit never happened) at the next open/refresh.
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
/// Names are fixed-width decimal, so lexicographic blob-name order — the
/// catalog's iteration order and therefore the engine's cross-fragment
/// precedence — equals `(seq, epoch, cgen)` order, which is also this
/// type's derived `Ord`:
///
/// * `seq` is the per-store write sequence;
/// * `epoch` is the per-engine claim, disambiguating two engines that
///   allocate the same `seq` concurrently;
/// * `cgen` is the consolidation generation: a consolidated fragment
///   keeps the *highest sequence number of its sources* (it contains no
///   newer data than that), with `cgen` breaking the tie just above
///   them. A fragment written while consolidation was running gets a
///   higher `seq` and so keeps precedence over the consolidated output —
///   the TileDB-style rule that makes consolidation safe to race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct FragmentId {
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

    /// The identity of the fragment that replaces `sources`, written by
    /// the engine holding `epoch`: the highest source `seq` (the output
    /// holds nothing newer), one consolidation generation above the
    /// highest source's.
    pub fn replacing<'a>(
        sources: impl IntoIterator<Item = &'a String>,
        epoch: u64,
    ) -> Result<FragmentId> {
        let mut id = FragmentId::plain(0, epoch);
        for src in sources {
            let sid = parse_fragment_name(src)
                .ok_or_else(|| StorageError::corrupt(src, "cataloged name does not parse"))?;
            id.seq = id.seq.max(sid.seq);
            id.cgen = id.cgen.max(sid.cgen);
        }
        id.cgen += 1;
        Ok(id)
    }
}

pub(super) fn format_fragment_name(id: FragmentId) -> String {
    let FragmentId { seq, epoch, cgen } = id;
    if cgen == 0 {
        format!("{FRAG_PREFIX}{seq:08}-{epoch:08}{FRAG_SUFFIX}")
    } else {
        format!("{FRAG_PREFIX}{seq:08}-{epoch:08}c{cgen:06}{FRAG_SUFFIX}")
    }
}

/// Strict fixed-base decimal (rejects signs/whitespace that `parse`
/// would accept, keeping name parsing a bijection with formatting).
fn parse_decimal(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

pub(super) fn parse_fragment_name(name: &str) -> Option<FragmentId> {
    let body = name.strip_prefix(FRAG_PREFIX)?.strip_suffix(FRAG_SUFFIX)?;
    let (seq, rest) = body.split_once('-')?;
    let seq = parse_decimal(seq)?;
    match rest.split_once('c') {
        None => Some(FragmentId::plain(seq, parse_decimal(rest)?)),
        Some((epoch, cgen)) => {
            let cgen = parse_decimal(cgen)?;
            // `c000000` would alias the plain name; reject it.
            if cgen == 0 || cgen > u32::MAX as u64 {
                return None;
            }
            Some(FragmentId {
                seq,
                epoch: parse_decimal(epoch)?,
                cgen: cgen as u32,
            })
        }
    }
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

    #[test]
    fn fragment_names_roundtrip() {
        for id in [
            FragmentId {
                seq: 42,
                epoch: 7,
                cgen: 0,
            },
            FragmentId {
                seq: 42,
                epoch: 7,
                cgen: 3,
            },
            FragmentId {
                seq: u64::MAX,
                epoch: u64::MAX,
                cgen: u32::MAX,
            },
        ] {
            let n = format_fragment_name(id);
            assert_eq!(parse_fragment_name(&n), Some(id), "{n}");
        }
        // Pre-epoch names no store was ever written with do not parse.
        assert_eq!(parse_fragment_name("frag-00000042.asf"), None);
        for bad in [
            "other.bin",
            "frag-xx.asf",
            "frag-00000001-xx.asf",
            "frag-00000001-00000001c000000.asf", // cgen 0 aliases the plain name
            "frag-00000001-00000001cxx.asf",
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
        // Lexicographic blob-name order must equal (seq, epoch, cgen)
        // order — it is what the catalog sorts by and what cross-fragment
        // last-writer-wins precedence runs on.
        let ids = [
            FragmentId {
                seq: 1,
                epoch: 2,
                cgen: 0,
            },
            FragmentId {
                seq: 1,
                epoch: 2,
                cgen: 1,
            },
            FragmentId {
                seq: 1,
                epoch: 3,
                cgen: 0,
            },
            FragmentId {
                seq: 2,
                epoch: 1,
                cgen: 0,
            },
            FragmentId {
                seq: 100,
                epoch: 1,
                cgen: 0,
            },
        ];
        let names: Vec<String> = ids.iter().map(|&id| format_fragment_name(id)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
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
