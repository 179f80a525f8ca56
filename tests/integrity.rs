//! Data integrity and fault tolerance, end to end: checksummed
//! fragments, retried transient faults, quarantine-and-proceed degraded
//! reads, and the scrub pass — the acceptance scenarios for the
//! integrity layer, plus seeded chaos (`CHAOS_SEED`) and single-byte
//! corruption properties.

use artsparse::metrics::OpCounter;
use artsparse::storage::engine::StorageEngine;
use artsparse::storage::fragment::{decode_pages, encode_fragment, FragmentMeta};
use artsparse::storage::{
    crc32c, injected_fault, Codec, EngineConfig, FailingBackend, FragmentSection, FsBackend,
    MemBackend, ObservabilityConfig, RetryPolicy, StorageBackend, StorageError,
};
use artsparse::{CoordBuffer, FormatKind, Shape};
use proptest::prelude::*;
use std::time::Duration;

fn shape() -> Shape {
    Shape::new(vec![16, 16]).unwrap()
}

fn coords(pts: &[[u64; 2]]) -> CoordBuffer {
    CoordBuffer::from_points(2, pts).unwrap()
}

/// A retry policy that never sleeps, for fast deterministic tests.
fn instant_retries(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::ZERO,
    }
}

/// Flip one bit near the end of a fragment blob (the value section).
fn flip_tail_bit<B: StorageBackend>(backend: &B, name: &str) {
    let mut bytes = backend.get(name).unwrap();
    let at = bytes.len() - 1;
    bytes[at] ^= 0x40;
    backend.put(name, &bytes).unwrap();
}

#[test]
fn strict_read_of_bit_flipped_fragment_names_fragment_and_section() {
    let e = StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Linear,
        shape(),
        8,
        EngineConfig::default().with_observability(ObservabilityConfig::default()),
    )
    .unwrap();
    e.write_points::<f64>(&coords(&[[1, 1], [2, 2]]), &[1.0, 2.0])
        .unwrap();
    let name = e.fragments().unwrap()[0].clone();
    flip_tail_bit(e.backend(), &name);
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
    let totals = e.telemetry_report().unwrap().totals;
    assert!(totals.checksum_failures >= 1);
}

#[test]
fn degraded_read_returns_survivors_and_scrub_finds_exactly_the_victim() {
    let e = StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Linear,
        shape(),
        8,
        EngineConfig::default()
            .with_strict_reads(false)
            .with_observability(ObservabilityConfig::default()),
    )
    .unwrap();
    e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
    e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
    e.write_points::<f64>(&coords(&[[3, 3]]), &[3.0]).unwrap();
    let victim = e.fragments().unwrap()[1].clone();
    flip_tail_bit(e.backend(), &victim);

    // The read routes around the damage: both healthy fragments answer,
    // the outcome names exactly what is missing.
    let q = coords(&[[1, 1], [2, 2], [3, 3]]);
    let r = e.read(&q).unwrap();
    assert!(!r.outcome.complete);
    assert_eq!(r.outcome.quarantined, vec![victim.clone()]);
    assert_eq!(
        r.to_values::<f64>(3).unwrap(),
        vec![Some(1.0), None, Some(3.0)]
    );

    // Scrub confirms the same single finding — already quarantined.
    let report = e.scrub().unwrap();
    assert_eq!(report.fragments_checked, 3);
    assert_eq!(report.healthy, 2);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].fragment, victim);
    assert!(!report.findings[0].newly_quarantined);

    // Consolidation merges only the healthy survivors; the damaged blob
    // is never deleted.
    let c = e.consolidate().unwrap();
    assert_eq!(c.merged_fragments, 2);
    assert!(e.backend().exists(&victim));
    assert_eq!(e.stats().unwrap().quarantined_fragments, 1);
    assert_eq!(
        e.telemetry_report().unwrap().totals.fragments_quarantined,
        1
    );

    // After consolidation the store still answers (minus the victim).
    let r2 = e.read(&q).unwrap();
    assert!(!r2.outcome.complete);
    assert_eq!(
        r2.to_values::<f64>(3).unwrap(),
        vec![Some(1.0), None, Some(3.0)]
    );
}

#[test]
fn scrub_on_a_filesystem_store_never_touches_organizations() {
    let dir = tempfile::tempdir().unwrap();
    let e = StorageEngine::open(
        FsBackend::new(dir.path()).unwrap(),
        FormatKind::Csf,
        shape(),
        8,
    )
    .unwrap();
    e.write_points::<f64>(&coords(&[[1, 2], [3, 4]]), &[1.0, 2.0])
        .unwrap();
    e.write_points::<f64>(&coords(&[[5, 6]]), &[3.0]).unwrap();
    let victim = e.fragments().unwrap()[0].clone();
    flip_tail_bit(e.backend(), &victim);

    let ops_before = e.counter().snapshot().total();
    let report = e.scrub().unwrap();
    // No organization decode: the op counter saw nothing.
    assert_eq!(e.counter().snapshot().total(), ops_before);
    assert_eq!(report.fragments_checked, 2);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].fragment, victim);
    assert_eq!(report.findings[0].section, Some(FragmentSection::Value));
    assert!(report.findings[0].newly_quarantined);
}

#[test]
fn two_transient_faults_then_success_costs_exactly_three_attempts() {
    let e = StorageEngine::open_with(
        FailingBackend::new(MemBackend::new()),
        FormatKind::Linear,
        shape(),
        8,
        EngineConfig::default()
            .with_observability(ObservabilityConfig::default())
            .with_retry(instant_retries(4)),
    )
    .unwrap();
    e.write_points::<f64>(&coords(&[[4, 4]]), &[4.5]).unwrap();
    e.backend().fail_next_reads(2);
    let vals = e.read_values::<f64>(&coords(&[[4, 4]])).unwrap();
    assert_eq!(vals, vec![Some(4.5)]);
    assert_eq!(e.backend().read_faults_remaining(), 0);
    // Three attempts total: two charged retries plus the first try.
    assert_eq!(e.telemetry_report().unwrap().totals.retries, 2);
}

#[test]
fn retry_exhaustion_reports_attempts_and_preserves_the_fault_chain() {
    let e = StorageEngine::open_with(
        FailingBackend::new(MemBackend::new()),
        FormatKind::Linear,
        shape(),
        8,
        EngineConfig::default().with_retry(instant_retries(3)),
    )
    .unwrap();
    e.write_points::<f64>(&coords(&[[4, 4]]), &[4.5]).unwrap();
    e.backend().fail_next_reads(100);
    let err = e.read(&coords(&[[4, 4]])).unwrap_err();
    let StorageError::RetriesExhausted { attempts, .. } = &err else {
        panic!("expected retry exhaustion, got {err}");
    };
    assert_eq!(*attempts, 3);
    // The typed injected-fault payload survives the wrapping, and the
    // printable chain tells the whole story.
    let fault = injected_fault(&err).expect("fault payload reachable through the wrapper");
    assert!(fault.transient);
    assert!(err.chain_string().contains("injected"));
}

/// There is one fragment layout, and a wire id names one organization or
/// none. Flipping bit 0 of the version field (3 → 2) must not route a
/// fragment around its checksums; a header naming the retired format id 7
/// (its header CRC rewritten, so the id check is the one that fires) names
/// no organization. Read, scrub, refresh and open all reject either as a
/// corrupt fragment naming the reason, before any organization decoder
/// sees a byte — and a degraded read routes around it like any other
/// damaged fragment.
#[test]
fn version_field_bit_flip_is_rejected_typed() {
    let flip_version_bit = |bytes: &mut [u8]| bytes[4] ^= 0x01;
    let retired_format_id = |bytes: &mut [u8]| {
        bytes[6..8].copy_from_slice(&7u16.to_le_bytes());
        let crc_at = FragmentMeta::header_len(2) - 4;
        let header_crc = crc32c(&bytes[..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&header_crc.to_le_bytes());
    };
    let cases = [
        ("unsupported version 2", flip_version_bit as fn(&mut [u8])),
        ("unknown format id 7", retired_format_id),
    ];
    for ((reason, patch), kind) in cases
        .into_iter()
        .flat_map(|case| FormatKind::PAPER_FIVE.map(|kind| (case, kind)))
    {
        let damage = |backend: &MemBackend, name: &str| {
            let mut bytes = backend.get(name).unwrap();
            patch(&mut bytes);
            backend.put(name, &bytes).unwrap();
        };
        let rejected = |e: StorageError, name: &str| {
            assert!(
                matches!(&e, StorageError::CorruptFragment { name: n, .. } if n == name),
                "{e}"
            );
            assert!(e.to_string().contains(reason), "{e}");
        };
        let e = StorageEngine::open(MemBackend::new(), kind, shape(), 8).unwrap();
        e.write_points::<f64>(&coords(&[[1, 1], [5, 9]]), &[1.0, 2.0])
            .unwrap();
        let victim = e.fragments().unwrap()[0].clone();
        damage(e.backend(), &victim);
        let ops_before = e.counter().snapshot().total();

        rejected(e.read(&coords(&[[1, 1]])).unwrap_err(), &victim);
        rejected(e.refresh().unwrap_err(), &victim);
        let report = e.scrub().unwrap();
        assert_eq!((report.fragments_checked, report.healthy), (1, 0), "{kind}");
        assert_eq!(report.findings[0].fragment, victim);
        assert!(report.findings[0].newly_quarantined);
        assert!(report.findings[0].error.contains(reason), "{kind}");
        // No organization decoder was reached on any of those paths.
        assert_eq!(e.counter().snapshot().total(), ops_before, "{kind}");
        match StorageEngine::open(e.into_backend(), kind, shape(), 8) {
            Err(err) => rejected(err, &victim),
            Ok(_) => panic!("{kind}: opened a store holding a header with {reason}"),
        }

        // Degraded reads treat it as damage to route around.
        let e = StorageEngine::open_with(
            MemBackend::new(),
            kind,
            shape(),
            8,
            EngineConfig::default().with_strict_reads(false),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[3, 3]]), &[3.0]).unwrap();
        let victim = e.fragments().unwrap()[0].clone();
        damage(e.backend(), &victim);
        let r = e.read(&coords(&[[1, 1], [3, 3]])).unwrap();
        assert_eq!(r.outcome.quarantined, vec![victim]);
        assert_eq!(r.to_values::<f64>(2).unwrap(), vec![None, Some(3.0)]);
    }
}

/// A 128×64 LINEAR store consolidated into one blob of two 4 096-point
/// pages (rows 0–63 and 64–127, `(r, c)` holding `64 r + c`); returns the
/// engine, the blob's name and the offset of its second page.
fn two_page_store() -> (StorageEngine<MemBackend>, String, u64) {
    let shape = Shape::new(vec![128, 64]).unwrap();
    let e = StorageEngine::open(MemBackend::new(), FormatKind::Linear, shape, 8).unwrap();
    for rows in [0..64u64, 64..128] {
        let pts: Vec<[u64; 2]> = rows.flat_map(|r| (0..64).map(move |c| [r, c])).collect();
        let vals: Vec<f64> = pts.iter().map(|&[r, c]| (64 * r + c) as f64).collect();
        e.write_points::<f64>(&coords(&pts), &vals).unwrap();
    }
    assert_eq!(e.consolidate().unwrap().pages, 2);
    let name = e.fragments().unwrap()[0].clone();
    let pages = decode_pages(&name, &e.backend().get(&name).unwrap()).unwrap();
    (e, name, pages[1].0)
}

/// A paged blob cut exactly after one of its pages is a complete
/// fragment on its own, but its header says another page follows: a
/// catalog load refuses it, and a scrub of a catalog that still lists
/// the cut page finds it structurally damaged, typed, never a shorter
/// fragment.
#[test]
fn a_blob_cut_at_a_page_boundary_is_corrupt() {
    let (e, name, boundary) = two_page_store();
    let blob = e.backend().get(&name).unwrap();
    e.backend().put(&name, &blob[..boundary as usize]).unwrap();

    let report = e.scrub().unwrap();
    assert_eq!((report.fragments_checked, report.healthy), (2, 1));
    let finding = &report.findings[0];
    assert_eq!(finding.fragment, format!("{name}#1"));
    assert_eq!(finding.section, None, "structural: {}", finding.error);
    assert!(
        finding.error.contains("header truncated"),
        "{}",
        finding.error
    );
    let err = e.read(&coords(&[[70, 3]])).unwrap_err();
    assert!(
        matches!(&err, StorageError::CorruptFragment { name: n, .. } if *n == format!("{name}#1")),
        "{err}"
    );
    assert_eq!(
        e.read_values::<f64>(&coords(&[[5, 5]])).unwrap(),
        [Some(64.0 * 5.0 + 5.0)],
        "the intact page still serves"
    );

    let backend = e.into_backend();
    let err = match StorageEngine::open(
        backend,
        FormatKind::Linear,
        Shape::new(vec![128, 64]).unwrap(),
        8,
    ) {
        Err(err) => err,
        Ok(_) => panic!("opened a blob cut at a page boundary"),
    };
    assert!(
        matches!(&err, StorageError::CorruptFragment { name: n, reason }
            if *n == name && reason.contains("says another follows")),
        "{err}"
    );
}

/// The "another page follows" marker is bit 7 of a page's flags, which
/// the header CRC covers: clearing it on the first page (which would end
/// the blob early) or setting it on the last fails the header checksum.
#[test]
fn a_flipped_page_marker_fails_the_header_checksum() {
    for last in [false, true] {
        let (e, name, boundary) = two_page_store();
        let mut blob = e.backend().get(&name).unwrap();
        let flags = if last { boundary as usize } else { 0 } + 10;
        blob[flags] ^= 0x80;
        e.backend().put(&name, &blob).unwrap();
        let backend = e.into_backend();
        let shape = Shape::new(vec![128, 64]).unwrap();
        let err = match StorageEngine::open(backend, FormatKind::Linear, shape, 8) {
            Err(err) => err,
            Ok(_) => panic!("opened a blob with a flipped page marker (last page: {last})"),
        };
        assert!(
            matches!(
                &err,
                StorageError::ChecksumMismatch {
                    section: FragmentSection::Header,
                    ..
                }
            ),
            "last page: {last}: {err}"
        );
    }
}

/// Seeded chaos: with every device read corrupting one bit, the engine
/// must never return a wrong value — damaged fragments are detected and
/// quarantined instead. Re-opening with faults disarmed fully recovers.
/// Set `CHAOS_SEED` to vary the corruption schedule (CI runs a matrix).
#[test]
fn chaos_corrupted_reads_never_return_wrong_values() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let e = StorageEngine::open_with(
        FailingBackend::new(MemBackend::new()),
        FormatKind::Linear,
        shape(),
        8,
        EngineConfig::default()
            .with_strict_reads(false)
            .with_retry(instant_retries(2)),
    )
    .unwrap();
    let expected: Vec<([u64; 2], f64)> = (0..8).map(|i| ([i, i], i as f64)).collect();
    for (p, v) in &expected {
        e.write_points::<f64>(&coords(&[*p]), &[*v]).unwrap();
    }
    e.backend().corrupt_reads(seed);

    let q = coords(&expected.iter().map(|(p, _)| *p).collect::<Vec<_>>()[..]);
    for _ in 0..4 {
        let r = e.read(&q).unwrap();
        let vals = r.to_values::<f64>(expected.len()).unwrap();
        for (i, got) in vals.iter().enumerate() {
            // Quarantined fragments go missing; present values must be
            // exact. A silently flipped value would fail here.
            if let Some(v) = got {
                assert_eq!(*v, expected[i].1, "seed {seed}: wrong value survived");
            }
        }
        if !r.outcome.complete {
            assert!(!r.outcome.quarantined.is_empty());
        }
    }
    // Scrub under chaos must not panic either; findings are expected.
    let _ = e.scrub().unwrap();

    // Disarm and reopen: the device bytes were never damaged (corruption
    // happened on the read path), so a fresh engine sees a clean store.
    let backend = e.into_backend();
    backend.disarm();
    let e = StorageEngine::open(backend, FormatKind::Linear, shape(), 8).unwrap();
    assert!(e.scrub().unwrap().is_clean());
    let vals = e
        .read(&q)
        .unwrap()
        .to_values::<f64>(expected.len())
        .unwrap();
    for (i, got) in vals.iter().enumerate() {
        assert_eq!(
            *got,
            Some(expected[i].1),
            "seed {seed}: store did not recover"
        );
    }
}

/// Seeded write chaos: a schedule of transient write-fault bursts and
/// full-device windows derived from `CHAOS_SEED` runs against the
/// streaming write path. Acked batches must always read back exactly —
/// including across a reopen that relies on WAL replay — and batches the
/// engine refused or failed must never become visible. Once the device
/// heals, probes must walk the engine back to `Healthy` and a scrub must
/// come back clean.
#[test]
fn chaos_write_faults_never_lose_acked_batches() {
    use artsparse::storage::{HealthConfig, HealthState, IngestConfig};
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let config = EngineConfig::default()
        .with_ingest(IngestConfig {
            // Explicit flushes only — the schedule decides when groups
            // commit, so every fault window hits a known operation.
            flush_points: usize::MAX,
            ..IngestConfig::default()
        })
        .with_retry(instant_retries(3))
        .with_health(HealthConfig {
            read_only_after: 4,
            probe_interval_ms: 0,
        });
    let e = StorageEngine::open_with(
        FailingBackend::new(MemBackend::new()),
        FormatKind::Linear,
        shape(),
        8,
        config.clone(),
    )
    .unwrap();

    let mut rng = seed | 1;
    let mut step_rng = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut acked: std::collections::BTreeMap<[u64; 2], f64> = std::collections::BTreeMap::new();
    let mut refused: Vec<[u64; 2]> = Vec::new();
    let mut acked_batches = 0u32;
    for step in 0..200u64 {
        match step_rng() % 10 {
            // Arm a transient burst; 3-attempt retries absorb short ones.
            0 => e.backend().fail_next_writes(step_rng() % 4 + 1),
            // A brief full-device window.
            1 => {
                e.backend().set_out_of_space(true);
                let _ = e.flush();
                e.backend().set_out_of_space(false);
            }
            2 => {
                let _ = e.flush();
            }
            3 => {
                e.probe_health();
            }
            _ => {
                let p = [step_rng() % 16, step_rng() % 16];
                let v = step as f64;
                match e.ingest_points::<f64>(&coords(&[p]), &[v]) {
                    Ok(_) => {
                        acked.insert(p, v);
                        acked_batches += 1;
                    }
                    Err(_) => refused.push(p),
                }
            }
        }
        // A refused batch must not be visible (unless an earlier acked
        // write legitimately covers the same address).
        if let Some(&p) = refused.last() {
            if !acked.contains_key(&p) {
                let got = e.read_values::<f64>(&coords(&[p])).unwrap();
                assert_eq!(got, vec![None], "seed {seed}: refused point visible");
            }
        }
    }
    assert!(acked_batches > 0, "seed {seed}: schedule never acked");

    // The device heals; bounded probing must restore write health.
    e.backend().disarm();
    for _ in 0..8 {
        if e.probe_health() == HealthState::Healthy {
            break;
        }
    }
    assert_eq!(e.health(), HealthState::Healthy, "seed {seed}");

    // Reopen without flushing: WAL replay must resurrect every acked
    // batch that was still buffer-only, and the store must scrub clean.
    let e =
        StorageEngine::open_with(e.into_backend(), FormatKind::Linear, shape(), 8, config).unwrap();
    for (p, v) in &acked {
        let got = e.read_values::<f64>(&coords(&[*p])).unwrap();
        assert_eq!(got, vec![Some(*v)], "seed {seed}: acked point {p:?} lost");
    }
    e.flush().unwrap();
    e.consolidate().unwrap();
    assert!(e.scrub().unwrap().is_clean(), "seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-byte corruption anywhere in a v3 fragment is rejected
    /// by decode — header, index, value, and trailer bytes are all
    /// covered by a magic/version check or a CRC.
    #[test]
    fn any_single_byte_corruption_fails_fragment_decode(
        at_frac in 0.0f64..1.0,
        mask in 1u8..=255,
        codec_pick in 0usize..3,
    ) {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let pts = CoordBuffer::from_points(2, &[[1u64, 1], [2, 5], [7, 7]]).unwrap();
        let counter = OpCounter::new();
        let built = FormatKind::Linear.create().build(&pts, &shape, &counter).unwrap();
        let values = built.reorganize_values(&[0xAB; 24], 8);
        let codecs = [Codec::None, Codec::Rle, Codec::DeltaVarint];
        let bytes = encode_fragment(
            FormatKind::Linear,
            &shape,
            3,
            8,
            pts.bounding_box().as_ref(),
            &built.index,
            &values,
            codecs[codec_pick],
            Codec::None,
        );
        let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
        let mut bad = bytes.clone();
        bad[at] ^= mask;
        prop_assert!(
            artsparse::storage::fragment::decode_fragment("t", &bad).is_err(),
            "byte {at} mask {mask:#x} decoded silently"
        );
    }

    /// Codec hardening: corrupting one byte of an Rle or DeltaVarint
    /// stream must never panic, and a successful decompress must still
    /// produce exactly `raw_len` bytes — corrupted streams may decode to
    /// different bytes (the fragment CRC layer catches that), but never
    /// to a wrong-sized buffer.
    #[test]
    fn corrupted_codec_streams_never_panic_or_change_length(
        data in prop::collection::vec(any::<u8>(), 1..256),
        at_frac in 0.0f64..1.0,
        mask in 1u8..=255,
        rle in any::<bool>(),
    ) {
        let codec = if rle { Codec::Rle } else { Codec::DeltaVarint };
        let stored = codec.compress(&data);
        prop_assert_eq!(codec.decompress(&stored, data.len()).unwrap(), data.clone());
        let at = ((stored.len() - 1) as f64 * at_frac) as usize;
        let mut bad = stored.clone();
        bad[at] ^= mask;
        if let Ok(out) = codec.decompress(&bad, data.len()) {
            prop_assert_eq!(out.len(), data.len());
        }
        // Truncations must error or keep the length too.
        for cut in [0, stored.len() / 2, stored.len().saturating_sub(1)] {
            if let Ok(out) = codec.decompress(&stored[..cut], data.len()) {
                prop_assert_eq!(out.len(), data.len());
            }
        }
    }
}
