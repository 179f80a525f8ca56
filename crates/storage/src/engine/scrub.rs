//! Scrub — verify every stored byte without decoding anything
//! (DESIGN.md §11).

use super::StorageEngine;
use crate::backend::StorageBackend;
use crate::catalog::PageEntry;
use crate::error::{FragmentSection, Result, StorageError};
use artsparse_metrics::{Span, SpanKind};

/// Outcome of a scrub pass over the whole store.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Fragment pages examined (healthy + damaged; vanished ones
    /// excluded).
    pub fragments_checked: usize,
    /// Pages whose stored bytes verified clean.
    pub healthy: usize,
    /// Stored bytes whose integrity was confirmed.
    pub bytes_verified: u64,
    /// The damaged pages, one finding each.
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// Whether the scrub found no damage at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// One damaged page a scrub pass found (and quarantined).
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// The page's name (its blob's, for a one-page blob).
    pub fragment: String,
    /// Which section's checksum failed, when the damage was a checksum
    /// mismatch (`None` for structural damage: truncation, a header
    /// that no longer matches the catalog, an unreadable blob).
    pub section: Option<FragmentSection>,
    /// The full error chain, as text.
    pub error: String,
    /// Whether this scrub quarantined it (false: it already was).
    pub newly_quarantined: bool,
}

impl<B: StorageBackend> StorageEngine<B> {
    /// Pages currently quarantined, with the reason each was benched
    /// (sorted by name).
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.catalog.quarantined()
    }

    /// Verify the integrity of every cataloged fragment's stored bytes —
    /// headers, sizes, and section checksums — without decoding any
    /// organization or decompressing any payload (checksums cover the
    /// *stored* bytes), so a scrub is pure sequential I/O plus CRC.
    ///
    /// Each page of a blob is checked, and quarantined, on its own; the
    /// blob's size is checked with its last page. Damaged pages are
    /// quarantined (regardless of `strict_reads`; scrubbing is diagnosis,
    /// not serving) and reported as findings. Already-quarantined pages
    /// are re-checked too: a finding with
    /// `newly_quarantined == false` confirms known damage. Transient
    /// fetch failures retry under the engine's
    /// [`RetryPolicy`](crate::config::RetryPolicy) before a fragment is
    /// declared damaged; fragments that vanish mid-scrub (concurrent
    /// delete or consolidation) are skipped.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let _span = Span::enter(self.plane.as_ref(), SpanKind::Scrub);
        let mut report = ScrubReport::default();
        let entries = self.catalog.snapshot_all();
        for page in entries.iter().flat_map(|entry| &entry.pages) {
            let _frag = Span::enter(self.plane.as_ref(), SpanKind::ScrubFragment);
            match self.scrub_fragment(page) {
                Ok(()) => {
                    report.fragments_checked += 1;
                    report.healthy += 1;
                    report.bytes_verified += page.meta.total_len();
                }
                // Vanished under the scrub.
                Err(e) if e.is_not_found() && self.catalog.get(&page.blob).is_none() => {}
                Err(e) => {
                    report.fragments_checked += 1;
                    let section = match &e {
                        StorageError::ChecksumMismatch { section, .. } => Some(*section),
                        _ => None,
                    };
                    let newly = self.quarantine_fragment(&page.name, &e);
                    report.findings.push(ScrubFinding {
                        fragment: page.name.clone(),
                        section,
                        error: e.chain_string(),
                        newly_quarantined: newly,
                    });
                }
            }
        }
        Ok(report)
    }

    /// Verify one page's header, its blob's exact size if it is the last
    /// page, and its section CRCs, each fetch retried on its own.
    fn scrub_fragment(&self, page: &PageEntry) -> Result<()> {
        let name = &page.name;
        let reader = self.reader(page);
        self.retry(name, || reader.verify(FragmentSection::Header))?;
        if !page.meta.continued {
            let size = self.backend.size(&page.blob)?;
            reader.check_size(size.saturating_sub(page.offset))?;
        }
        for section in [FragmentSection::Index, FragmentSection::Value] {
            self.retry(name, || reader.verify(section))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::test_support::{coords, engine, engine_with};
    use artsparse_core::FormatKind;

    #[test]
    fn bit_flip_fails_strict_read_with_checksum_mismatch() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1], [2, 2]]), &[1.0, 2.0])
            .unwrap();
        let name = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&name).unwrap();
        let at = bytes.len() - 1; // value section
        bytes[at] ^= 0x01;
        e.backend().put(&name, &bytes).unwrap();
        let err = e.read(&coords(&[[1, 1]])).unwrap_err();
        match &err {
            StorageError::ChecksumMismatch {
                name: n, section, ..
            } => {
                assert_eq!(n, &name);
                assert_eq!(*section, FragmentSection::Value);
            }
            other => panic!("expected a checksum mismatch, got {other}"),
        }
        assert!(err.to_string().contains(&name));
    }

    #[test]
    fn degraded_read_quarantines_and_reports_the_damaged_fragment() {
        let e = engine_with(
            FormatKind::Linear,
            EngineConfig::default().with_strict_reads(false),
        );
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        let victim = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&victim).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x80;
        e.backend().put(&victim, &bytes).unwrap();

        let r = e.read(&coords(&[[1, 1], [2, 2]])).unwrap();
        assert!(!r.outcome.complete);
        assert_eq!(r.outcome.quarantined, vec![victim.clone()]);
        assert_eq!(r.to_values::<f64>(2).unwrap(), vec![None, Some(2.0)]);

        // Sticky: the next plan skips it up front and still reports it.
        let r2 = e.read(&coords(&[[1, 1], [2, 2]])).unwrap();
        assert!(!r2.outcome.complete);
        assert_eq!(r2.outcome.quarantined, vec![victim.clone()]);

        // Consolidation refuses it: one healthy fragment left → no-op,
        // and the damaged blob stays on the device for forensics.
        let c = e.consolidate().unwrap();
        assert!(c.fragment.is_none());
        assert!(e.backend().exists(&victim));
        assert_eq!(e.stats().unwrap().quarantined_fragments, 1);
        assert_eq!(e.quarantined().len(), 1);
    }

    #[test]
    fn strict_read_fails_closed_on_a_previously_quarantined_fragment() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let name = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&name).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x02;
        e.backend().put(&name, &bytes).unwrap();
        e.scrub().unwrap();
        let err = e.read(&coords(&[[1, 1]])).unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
    }

    #[test]
    fn scrub_detects_damage_without_decoding_organizations() {
        let e = engine(FormatKind::Csf);
        for (i, v) in [1.0, 2.0, 3.0].iter().enumerate() {
            let p = (i + 1) as u64;
            e.write_points::<f64>(&coords(&[[p, p]]), &[*v]).unwrap();
        }
        let clean = e.scrub().unwrap();
        assert!(clean.is_clean());
        assert_eq!((clean.fragments_checked, clean.healthy), (3, 3));
        assert!(clean.bytes_verified > 0);

        let victim = e.fragments().unwrap()[1].clone();
        let mut bytes = e.backend().get(&victim).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x04;
        e.backend().put(&victim, &bytes).unwrap();
        let ops_before = e.counter().snapshot().total();
        let report = e.scrub().unwrap();
        // Scrub never decodes an organization: the op counter is idle.
        assert_eq!(e.counter().snapshot().total(), ops_before);
        assert_eq!((report.fragments_checked, report.healthy), (3, 2));
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!(f.fragment, victim);
        assert_eq!(f.section, Some(FragmentSection::Value));
        assert!(f.newly_quarantined);

        // Re-scrub: still damaged, but no longer *newly* quarantined.
        let again = e.scrub().unwrap();
        assert_eq!(again.findings.len(), 1);
        assert!(!again.findings[0].newly_quarantined);
    }

    #[test]
    fn scrub_flags_a_truncated_fragment_as_structural_damage() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let name = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&name).unwrap();
        bytes.truncate(bytes.len() - 3);
        e.backend().put(&name, &bytes).unwrap();
        let report = e.scrub().unwrap();
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].error.contains("bytes"));
    }

    #[test]
    fn corrupt_fragment_surfaces_as_error() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let name = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&name).unwrap();
        bytes.truncate(bytes.len() - 3);
        e.backend().put(&name, &bytes).unwrap();
        assert!(e.read(&coords(&[[1, 1]])).is_err());
    }

    #[test]
    fn to_values_rejects_record_size_mismatch() {
        let e = engine(FormatKind::Linear); // stores 8-byte records
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let r = e.read(&coords(&[[1, 1]])).unwrap();
        assert_eq!(r.hits.len(), 1);
        // Asking for 4-byte elements from an 8-byte store is corruption
        // (or type confusion), not an empty result.
        let err = r.to_values::<f32>(1).unwrap_err();
        assert!(matches!(err, StorageError::CorruptFragment { .. }), "{err}");
        // The aligned type still works.
        assert_eq!(r.to_values::<f64>(1).unwrap(), vec![Some(1.0)]);
    }
}
