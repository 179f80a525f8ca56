//! Automatic organization selection — the paper's stated future work.
//!
//! §VI: *"In future, we plan to explore automatic strategies for selecting
//! different organization for applications based on the characterization
//! of sparsity in their data."* This module implements that strategy on
//! top of the Table I cost model: characterize the tensor (size, shape,
//! dimensionality) and the application's access profile (how write-heavy,
//! read-heavy, and space-sensitive it is), evaluate every candidate's
//! predicted cost, normalize exactly like the paper's Table IV score, and
//! recommend the argmin.

use crate::complexity::{lg, predicted_build_ops, predicted_read_ops, predicted_space_words};
use crate::stats::SparsityStats;
use crate::traits::FormatKind;
use artsparse_tensor::Shape;
use serde::{Deserialize, Serialize};

/// How the application accesses the tensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessProfile {
    /// Relative importance of write (build) time.
    pub write_weight: f64,
    /// Relative importance of read time.
    pub read_weight: f64,
    /// Relative importance of storage footprint.
    pub space_weight: f64,
    /// Expected point queries per stored point (`n_read / n`).
    pub reads_per_point: f64,
}

impl AccessProfile {
    /// Equal weights — the paper's Table IV setting ("we assume all
    /// weights are equal") with a read volume matching its evaluation
    /// (query region ≈ 10% per dimension).
    pub fn balanced() -> Self {
        AccessProfile {
            write_weight: 1.0,
            read_weight: 1.0,
            space_weight: 1.0,
            reads_per_point: 1.0,
        }
    }

    /// Write-once, read-rarely (checkpoint/archive style).
    pub fn write_heavy() -> Self {
        AccessProfile {
            write_weight: 4.0,
            read_weight: 0.5,
            space_weight: 1.0,
            reads_per_point: 0.01,
        }
    }

    /// Write-once, read-many (analysis style).
    pub fn read_heavy() -> Self {
        AccessProfile {
            write_weight: 0.5,
            read_weight: 4.0,
            space_weight: 1.0,
            reads_per_point: 10.0,
        }
    }
}

/// A scored candidate organization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The organization.
    pub kind: FormatKind,
    /// Normalized weighted cost (lower is better).
    pub score: f64,
    /// Normalized component costs `(write, read, space)`.
    pub components: (f64, f64, f64),
}

/// The advisor's output: candidates sorted best-first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// All scored candidates, ascending score.
    pub ranking: Vec<Candidate>,
}

impl Recommendation {
    /// The winning organization.
    pub fn best(&self) -> FormatKind {
        self.ranking[0].kind
    }
}

/// Rank the paper's five organizations for storing `n` points of a tensor
/// of `shape` under the given access profile.
pub fn recommend(n: u64, shape: &Shape, profile: &AccessProfile) -> Recommendation {
    let candidates = FormatKind::PAPER_FIVE;
    let n = n.max(1);
    let n_read = ((n as f64 * profile.reads_per_point).ceil() as u64).max(1);

    let writes: Vec<f64> = candidates
        .iter()
        .map(|&k| predicted_build_ops(k, n, shape))
        .collect();
    let reads: Vec<f64> = candidates
        .iter()
        .map(|&k| predicted_read_ops(k, n, n_read, shape))
        .collect();
    let spaces: Vec<f64> = candidates
        .iter()
        .map(|&k| predicted_space_words(k, n, shape))
        .collect();

    rank(candidates, &writes, &reads, &spaces, profile)
}

/// Table IV-style scoring: normalize each metric by its max, weight by the
/// profile, sort ascending.
fn rank(
    candidates: [FormatKind; 5],
    writes: &[f64],
    reads: &[f64],
    spaces: &[f64],
    profile: &AccessProfile,
) -> Recommendation {
    let norm = |v: &[f64]| -> Vec<f64> {
        let max = v
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(f64::MIN_POSITIVE);
        v.iter().map(|x| x / max).collect()
    };
    let (wn, rn, sn) = (norm(writes), norm(reads), norm(spaces));
    let wsum = profile.write_weight + profile.read_weight + profile.space_weight;

    let mut ranking: Vec<Candidate> = candidates
        .iter()
        .enumerate()
        .map(|(i, &kind)| Candidate {
            kind,
            score: (profile.write_weight * wn[i]
                + profile.read_weight * rn[i]
                + profile.space_weight * sn[i])
                / wsum,
            components: (wn[i], rn[i], sn[i]),
        })
        .collect();
    ranking.sort_by(|a, b| a.score.total_cmp(&b.score));
    Recommendation { ranking }
}

/// Rank the paper's five from *measured* sparsity characteristics instead of
/// shape-only predictions — the live entry point the storage engine's
/// consolidation path calls with stats gathered during its merge scan.
///
/// Build costs still come from the Table I model (building is about the
/// incoming point count, which the stats report exactly); read and space
/// costs are refined by what was measured:
///
/// * GCSR++/GCSC++ per-query scans divide by the *occupied* bucket count,
///   not the nominal `min mᵢ`;
/// * CSF descent cost sums the measured per-level branching logs, and its
///   footprint is the measured node counts rather than the `O(d·n)` worst
///   case;
/// * block formats (HiCOO, ADAPTIVE) are charged for the blocks actually
///   occupied, so clustered data (high occupancy) scores far better than
///   scatter at equal `n`.
pub fn recommend_from_stats(stats: &SparsityStats, profile: &AccessProfile) -> Recommendation {
    let candidates = FormatKind::PAPER_FIVE;
    let shape = &stats.shape;
    let n = stats.n.max(1);
    let n_read = ((n as f64 * profile.reads_per_point).ceil() as u64).max(1);

    let writes: Vec<f64> = candidates
        .iter()
        .map(|&k| predicted_build_ops(k, n, shape))
        .collect();
    let reads: Vec<f64> = candidates
        .iter()
        .map(|&k| measured_read_ops(k, stats, n, n_read))
        .collect();
    let spaces: Vec<f64> = candidates
        .iter()
        .map(|&k| measured_space_words(k, stats, n))
        .collect();

    rank(candidates, &writes, &reads, &spaces, profile)
}

/// Measured-characteristics read cost (abstract ops).
fn measured_read_ops(kind: FormatKind, stats: &SparsityStats, n: u64, n_read: u64) -> f64 {
    let nf = n as f64;
    let rf = n_read as f64;
    match kind {
        // Scans don't care about structure: the model is already exact.
        FormatKind::Coo | FormatKind::Linear => nf * rf,
        // One bucket scanned per query — measured mean occupancy.
        FormatKind::GcsrPP | FormatKind::GcscPP => {
            rf * (nf / stats.gcsr_rows_occupied.max(1) as f64) + nf
        }
        // Tree descent: one binary search per level, each over the
        // measured branching factor of that level.
        FormatKind::Csf => {
            let mut per_query = 0.0;
            let mut parent = 1.0f64;
            for &nodes in &stats.nnz_per_level {
                let branching = (nodes as f64 / parent.max(1.0)).max(2.0);
                per_query += branching.log2();
                parent = nodes as f64;
            }
            rf * per_query.max(1.0)
        }
        FormatKind::SortedCoo => rf * lg(n),
        // Block binary search plus the measured mean intra-block scan.
        FormatKind::HiCoo => {
            rf * (lg(stats.occupied_blocks.max(1)) + nf / stats.occupied_blocks.max(1) as f64)
        }
        // Bitmap rank (dense blocks) or short list search (sparse) — both
        // O(1)-ish after the block search.
        FormatKind::Adaptive => rf * (lg(stats.occupied_blocks.max(1)) + 4.0),
    }
}

/// Measured-characteristics space cost (words).
fn measured_space_words(kind: FormatKind, stats: &SparsityStats, n: u64) -> f64 {
    let nf = n as f64;
    let d = stats.shape.ndim() as f64;
    match kind {
        FormatKind::Coo => nf * d,
        FormatKind::Linear | FormatKind::SortedCoo => nf,
        FormatKind::GcsrPP | FormatKind::GcscPP => nf + stats.shape.min_dim() as f64 + 1.0,
        // Exact tree footprint: fids (one word per node) + fptr (one word
        // per internal node + level) + the order/nfibs headers.
        FormatKind::Csf => {
            let nodes: u64 = stats.nnz_per_level.iter().sum();
            let internal: u64 = stats
                .nnz_per_level
                .iter()
                .take(stats.nnz_per_level.len().saturating_sub(1))
                .sum();
            (nodes + internal) as f64 + 3.0 * d
        }
        // Byte-packed offsets + per-block id and pointer bookkeeping.
        FormatKind::HiCoo => nf * d / 8.0 + 2.0 * stats.occupied_blocks as f64 + 2.0,
        // Per block the encoder picks min(bitmap, offset list); charge
        // the aggregate minimum plus bookkeeping.
        FormatKind::Adaptive => {
            let blocks = stats.occupied_blocks.max(1) as f64;
            let bitmap_words = (stats.block_volume as f64 / 64.0).ceil();
            let list_words = (nf / blocks) * (d / 8.0).max(0.125);
            blocks * bitmap_words.min(list_words.max(0.125)) + 3.0 * blocks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[u64]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    #[test]
    fn write_heavy_prefers_cheap_builds() {
        let r = recommend(
            1_000_000,
            &shape(&[512, 512, 512]),
            &AccessProfile::write_heavy(),
        );
        // COO or LINEAR: no sort, tiny build.
        assert!(
            matches!(r.best(), FormatKind::Coo | FormatKind::Linear),
            "got {:?}",
            r.best()
        );
    }

    #[test]
    fn read_heavy_prefers_compressed() {
        let r = recommend(
            1_000_000,
            &shape(&[128, 128, 128, 128]),
            &AccessProfile::read_heavy(),
        );
        assert!(
            matches!(
                r.best(),
                FormatKind::Csf | FormatKind::GcsrPP | FormatKind::GcscPP
            ),
            "got {:?}",
            r.best()
        );
    }

    #[test]
    fn balanced_never_picks_coo() {
        // Table IV: COO has the worst balanced score.
        let r = recommend(1_000_000, &shape(&[8192, 8192]), &AccessProfile::balanced());
        let last = r.ranking.last().unwrap().kind;
        assert_ne!(r.best(), FormatKind::Coo);
        // COO should be at or near the bottom.
        assert!(last == FormatKind::Coo || r.ranking[r.ranking.len() - 2].kind == FormatKind::Coo);
    }

    #[test]
    fn scores_are_normalized() {
        let r = recommend(10_000, &shape(&[64, 64, 64]), &AccessProfile::balanced());
        for c in &r.ranking {
            assert!(c.score > 0.0 && c.score <= 1.0, "{c:?}");
            assert!(c.components.0 <= 1.0 && c.components.1 <= 1.0 && c.components.2 <= 1.0);
        }
        // Ranking sorted ascending.
        for w in r.ranking.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
    }
}
