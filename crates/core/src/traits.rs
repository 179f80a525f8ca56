//! The [`Organization`] trait — the common contract of the paper's five
//! storage organizations — and the format registry.

use crate::error::Result;
use artsparse_metrics::OpCounter;
use artsparse_tensor::{CoordBuffer, Region, Shape};
use serde::{Deserialize, Serialize};

/// Identifier of a storage organization.
///
/// The first five are the paper's subjects (§II, Table I); the rest are
/// extensions this reproduction adds (sorted-COO read acceleration and two
/// block-compressed layouts for clustered data). Wire id 7 is retired and
/// never reused: a fragment carrying it is corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FormatKind {
    /// Coordinate list, unsorted — the paper's baseline (§II.A).
    Coo,
    /// Linearized addresses (§II.B).
    Linear,
    /// Generalized Compressed Sparse Row, Algorithm 1 (§II.C).
    GcsrPP,
    /// Generalized Compressed Sparse Column (§II.D).
    GcscPP,
    /// Compressed Sparse Fiber tree, Algorithm 2 (§II.E).
    Csf,
    /// Extension: COO sorted by linear address, binary-search reads.
    SortedCoo,
    /// Extension: HiCOO-style block-compressed COO (byte-wide offsets).
    HiCoo,
    /// Extension: per-block bitmap/offset-list hybrid (MSP-shaped data).
    Adaptive,
}

impl FormatKind {
    /// The five organizations evaluated by the paper, in its table order.
    pub const PAPER_FIVE: [FormatKind; 5] = [
        FormatKind::Coo,
        FormatKind::Linear,
        FormatKind::GcsrPP,
        FormatKind::GcscPP,
        FormatKind::Csf,
    ];

    /// All implemented organizations.
    pub const ALL: [FormatKind; 8] = [
        FormatKind::Coo,
        FormatKind::Linear,
        FormatKind::GcsrPP,
        FormatKind::GcscPP,
        FormatKind::Csf,
        FormatKind::SortedCoo,
        FormatKind::HiCoo,
        FormatKind::Adaptive,
    ];

    /// Stable wire id used in index headers.
    pub fn id(self) -> u16 {
        match self {
            FormatKind::Coo => 1,
            FormatKind::Linear => 2,
            FormatKind::GcsrPP => 3,
            FormatKind::GcscPP => 4,
            FormatKind::Csf => 5,
            FormatKind::SortedCoo => 6,
            FormatKind::HiCoo => 8,
            FormatKind::Adaptive => 9,
        }
    }

    /// Inverse of [`FormatKind::id`].
    pub fn from_id(id: u16) -> Option<FormatKind> {
        FormatKind::ALL.into_iter().find(|k| k.id() == id)
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            FormatKind::Coo => "COO",
            FormatKind::Linear => "LINEAR",
            FormatKind::GcsrPP => "GCSR++",
            FormatKind::GcscPP => "GCSC++",
            FormatKind::Csf => "CSF",
            FormatKind::SortedCoo => "COO-SORTED",
            FormatKind::HiCoo => "HICOO",
            FormatKind::Adaptive => "ADAPTIVE",
        }
    }

    /// Parse a display name (case-insensitive).
    pub fn parse(s: &str) -> Option<FormatKind> {
        let up = s.to_ascii_uppercase();
        FormatKind::ALL.into_iter().find(|k| k.name() == up)
    }

    /// Instantiate the organization implementation.
    pub fn create(self) -> Box<dyn Organization> {
        match self {
            FormatKind::Coo => Box::new(crate::formats::coo::Coo),
            FormatKind::Linear => Box::new(crate::formats::linear::Linear),
            FormatKind::GcsrPP => Box::new(crate::formats::gcsr::GcsrPP),
            FormatKind::GcscPP => Box::new(crate::formats::gcsc::GcscPP),
            FormatKind::Csf => Box::new(crate::formats::csf::Csf),
            FormatKind::SortedCoo => Box::new(crate::formats::ext::sorted_coo::SortedCoo),
            FormatKind::HiCoo => Box::new(crate::formats::ext::hicoo::HiCoo::default()),
            FormatKind::Adaptive => Box::new(crate::formats::ext::adaptive::Adaptive),
        }
    }
}

impl std::fmt::Display for FormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of building an organization over a coordinate buffer.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// Self-describing encoded index structure (`b` in Algorithms 1–2).
    pub index: Vec<u8>,
    /// The paper's `map`: original point `i`'s value belongs at slot
    /// `map[i]` of the reorganized value payload. `None` means identity
    /// (COO and LINEAR preserve input order).
    pub map: Option<Vec<usize>>,
    /// Number of points built.
    pub n_points: usize,
}

impl BuildOutput {
    /// Reorganize a value payload of `elem_size`-byte records to match the
    /// built index (Algorithm 3's "Reorganize b_data based on map").
    pub fn reorganize_values(&self, values: &[u8], elem_size: usize) -> Vec<u8> {
        match &self.map {
            None => values.to_vec(),
            Some(map) => artsparse_tensor::permute::scatter_bytes(values, elem_size, map),
        }
    }
}

/// A sparse tensor storage organization.
///
/// Implementations are stateless strategy objects: all tensor state flows
/// through the encoded index buffer, mirroring the paper's fragments (the
/// index *is* the fragment metadata).
pub trait Organization: Send + Sync {
    /// Which format this is.
    fn kind(&self) -> FormatKind;

    /// Construct the organization for `coords` within `shape`
    /// (the paper's `*_BUILD`). Coordinates may be unsorted and may
    /// contain duplicates; every coordinate must lie inside `shape`.
    fn build(
        &self,
        coords: &CoordBuffer,
        shape: &Shape,
        counter: &OpCounter,
    ) -> Result<BuildOutput>;

    /// Query each point of `queries` against an encoded index (the paper's
    /// `*_READ`). Returns, per query, `Some(slot)` — the record position in
    /// the reorganized value payload — or `None` if absent. When the build
    /// input contained duplicate coordinates the slot of one of them is
    /// returned.
    fn read(
        &self,
        index: &[u8],
        queries: &CoordBuffer,
        counter: &OpCounter,
    ) -> Result<Vec<Option<u64>>>;

    /// Every stored point inside `region`, as `(query_index, slot)` pairs:
    /// exactly the `Some` entries of
    /// [`read`](Self::read)`(index, &region.to_coords(), ..)`, in the same
    /// order — `query_index` is the row-major rank of the cell inside
    /// `region` ([`Region::rank`]), ascending, and among duplicate
    /// coordinates the lowest slot is reported, as `read` does. The region
    /// may reach outside the index's shape (those cells hold nothing); one
    /// of more than `u64::MAX` cells is refused.
    ///
    /// This default *is* that expression — the reference the native
    /// implementations are tested against, and the path of the
    /// organizations that have none. A native `scan` makes one bounded
    /// pass over the index instead of one lookup per cell, after the same
    /// structural validation `read` performs.
    fn scan(
        &self,
        index: &[u8],
        region: &Region,
        counter: &OpCounter,
    ) -> Result<Vec<(usize, u64)>> {
        region.checked_volume()?;
        let slots = self.read(index, &region.to_coords(), counter)?;
        Ok(slots
            .into_iter()
            .enumerate()
            .filter_map(|(qi, slot)| slot.map(|s| (qi, s)))
            .collect())
    }

    /// Predicted index size in 8-byte words per Table I's space complexity
    /// (upper bound for CSF, exact for the others, excluding the codec
    /// header).
    fn predicted_index_words(&self, n: u64, shape: &Shape) -> u64;

    /// Decode an index back into the full coordinate list, in **slot
    /// order** (`coords.point(s)` is the coordinate whose value lives at
    /// record `s` of the reorganized payload). This is the inverse of
    /// `build` up to the `map` permutation; the fragment engine uses it
    /// for consolidation and export.
    fn enumerate(&self, index: &[u8], counter: &OpCounter) -> Result<CoordBuffer>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        for k in FormatKind::ALL {
            assert_eq!(FormatKind::from_id(k.id()), Some(k));
            assert_eq!(FormatKind::parse(k.name()), Some(k));
            assert_eq!(FormatKind::parse(&k.name().to_lowercase()), Some(k));
        }
        assert_eq!(FormatKind::from_id(0), None);
        assert_eq!(FormatKind::from_id(7), None, "retired");
        assert_eq!(FormatKind::parse("nope"), None);
    }

    #[test]
    fn paper_five_order_matches_tables() {
        let names: Vec<&str> = FormatKind::PAPER_FIVE.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["COO", "LINEAR", "GCSR++", "GCSC++", "CSF"]);
    }

    #[test]
    fn identity_reorganize_is_copy() {
        let out = BuildOutput {
            index: vec![],
            map: None,
            n_points: 2,
        };
        assert_eq!(out.reorganize_values(&[1, 2, 3, 4], 2), vec![1, 2, 3, 4]);
    }

    #[test]
    fn mapped_reorganize_scatters() {
        let out = BuildOutput {
            index: vec![],
            map: Some(vec![1, 0]),
            n_points: 2,
        };
        assert_eq!(out.reorganize_values(&[1, 2, 3, 4], 2), vec![3, 4, 1, 2]);
    }
}
