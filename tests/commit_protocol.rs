//! Crash-safety of the fragment commit protocol, end to end.
//!
//! Each test drives the engine into one crash window with a
//! [`FailingBackend`], then "restarts the process" — reopens an engine
//! over the surviving blobs — and asserts the recovered store holds the
//! protocol's invariants: no torn or half-visible fragments, no
//! duplicated points after an interrupted consolidation, no name
//! collisions between concurrent engines.

use artsparse::core::advisor::{recommend_from_stats, AccessProfile};
use artsparse::core::SparsityStats;
use artsparse::storage::{
    EngineConfig, FailingBackend, FsBackend, MemBackend, ReorgProfile, SimulatedDisk,
    StorageBackend, StorageEngine, StripedBackend,
};
use artsparse::{CoordBuffer, FormatKind, Shape};
use std::sync::Arc;
use std::time::Duration;

fn pts(p: &[[u64; 2]]) -> CoordBuffer {
    CoordBuffer::from_points(2, p).unwrap()
}

fn shape() -> Shape {
    Shape::new(vec![64, 64]).unwrap()
}

fn open<B: StorageBackend>(backend: B) -> StorageEngine<B> {
    StorageEngine::open(backend, FormatKind::Linear, shape(), 8).unwrap()
}

/// A write that dies mid-put must leave no visible fragment: not to the
/// writing engine, not to a catalog reload, not after reopening the
/// store. The torn bytes live only under a staging name that recovery
/// sweeps.
#[test]
fn torn_write_leaves_no_visible_fragment_after_reopen() {
    let engine = open(FailingBackend::new(MemBackend::new()));
    engine.write_points::<f64>(&pts(&[[1, 1]]), &[1.0]).unwrap();

    // Die mid-put of the staged blob, and make the abort cleanup fail
    // too, so the torn orphan really survives until "restart".
    engine.backend().fail_after_write_bytes(10);
    engine.backend().fail_deletes(true);
    assert!(engine.write_points::<f64>(&pts(&[[2, 2]]), &[2.0]).is_err());

    // Invisible immediately: the engine's own catalog never listed it.
    assert_eq!(engine.fragments().unwrap().len(), 1);
    // The orphan is on the device, but only under a staging name.
    let backend = engine.into_backend();
    backend.disarm();
    assert!(backend.list().unwrap().iter().any(|n| n.ends_with(".tmp")));

    // "Restart": recovery sweeps the orphan; the good fragment survives.
    let engine = open(backend);
    assert_eq!(engine.fragments().unwrap().len(), 1);
    assert!(!engine
        .backend()
        .list()
        .unwrap()
        .iter()
        .any(|n| n.ends_with(".tmp")));
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[1, 1], [2, 2]])).unwrap(),
        vec![Some(1.0), None]
    );
}

/// When the abort cleanup *can* run, the failed write leaves the store
/// completely clean — no reopen needed.
#[test]
fn failed_write_cleans_up_its_staging_blob() {
    let engine = open(FailingBackend::new(MemBackend::new()));
    engine.backend().fail_after_write_bytes(10);
    assert!(engine.write_points::<f64>(&pts(&[[2, 2]]), &[2.0]).is_err());
    engine.backend().disarm();
    // Only the epoch claim marker remains.
    let leftovers: Vec<String> = engine
        .backend()
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| !n.starts_with("epoch-"))
        .collect();
    assert_eq!(leftovers, Vec::<String>::new());
}

/// A consolidation that dies before its rename-commit changes nothing:
/// after restart the sources are intact, the tombstone is discarded, and
/// reads see exactly the pre-consolidation data.
#[test]
fn consolidation_crash_before_commit_is_discarded() {
    let engine = open(FailingBackend::new(MemBackend::new()));
    engine.write_points::<f64>(&pts(&[[1, 1]]), &[1.0]).unwrap();
    engine.write_points::<f64>(&pts(&[[2, 2]]), &[2.0]).unwrap();

    // The rename is the commit point; kill it, and kill deletes too so
    // the abort cleanup cannot tidy up — restart must cope with both the
    // staged blob and the (uncommitted) tombstone lying around.
    engine.backend().fail_renames(true);
    engine.backend().fail_deletes(true);
    assert!(engine.consolidate().is_err());

    let backend = engine.into_backend();
    backend.disarm();
    let engine = open(backend);
    assert_eq!(engine.fragments().unwrap().len(), 2);
    assert!(engine
        .backend()
        .list()
        .unwrap()
        .iter()
        .all(|n| !n.ends_with(".tmp") && !n.ends_with(".tsn")));
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[1, 1], [2, 2]])).unwrap(),
        vec![Some(1.0), Some(2.0)]
    );
    assert_eq!(engine.stats().unwrap().total_points, 2);
}

/// A consolidation that dies *after* its rename-commit but before the
/// source deletions must not double the store: restart replays the
/// tombstone, deleting the sources, and reads return each point exactly
/// once with the consolidated (last-writer-wins) values.
#[test]
fn consolidation_crash_after_commit_replays_deletions() {
    let engine = open(FailingBackend::new(MemBackend::new()));
    engine.write_points::<f64>(&pts(&[[1, 1]]), &[1.0]).unwrap();
    engine.write_points::<f64>(&pts(&[[2, 2]]), &[2.0]).unwrap();
    // Overwrite [1,1] so precedence through the crash is observable.
    engine.write_points::<f64>(&pts(&[[1, 1]]), &[3.0]).unwrap();

    engine.backend().fail_deletes(true);
    assert!(engine.consolidate().is_err());

    // The commit landed: consolidated fragment, tombstone, and all three
    // sources coexist on the device right now.
    let backend = engine.into_backend();
    backend.disarm();
    assert!(backend.list().unwrap().iter().any(|n| n.ends_with(".tsn")));
    assert_eq!(
        backend
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.ends_with(".asf"))
            .count(),
        4
    );

    // "Restart": the tombstone replays, the sources go, no duplicates.
    let engine = open(backend);
    assert_eq!(engine.fragments().unwrap().len(), 1);
    assert!(engine
        .backend()
        .list()
        .unwrap()
        .iter()
        .all(|n| !n.ends_with(".tsn")));
    let stats = engine.stats().unwrap();
    assert_eq!(stats.fragments, 1);
    assert_eq!(stats.total_points, 2, "points must not be double-counted");
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[1, 1], [2, 2]])).unwrap(),
        vec![Some(3.0), Some(2.0)]
    );
}

/// An adaptive re-organization killed between the advise step and the
/// rename-commit must change nothing: after restart the store is still
/// readable in its old organization, with no staged blob or tombstone
/// left behind. Two points in a LINEAR store are cheaper as COO under the
/// balanced profile, so the advisor itself forces the migration.
#[test]
fn adaptive_migration_crash_before_commit_keeps_old_organization() {
    let engine = StorageEngine::open_with(
        FailingBackend::new(MemBackend::new()),
        FormatKind::Linear,
        shape(),
        8,
        EngineConfig::default().with_adaptive_reorg(ReorgProfile::Balanced),
    )
    .unwrap();
    let points = pts(&[[1, 1], [2, 2]]);
    engine.write_points::<f64>(&points, &[1.0, 2.0]).unwrap();
    let advice = recommend_from_stats(
        &SparsityStats::from_coords(&points, &shape()),
        &AccessProfile::balanced(),
        &[],
    )
    .best();
    assert_ne!(advice, FormatKind::Linear, "the crash window must open");

    // One fragment → consolidation merges, advises, and re-encodes it.
    // Kill the rename-commit, and kill deletes so the abort cleanup
    // cannot tidy up either.
    engine.backend().fail_renames(true);
    engine.backend().fail_deletes(true);
    assert!(engine.consolidate().is_err());

    // "Restart" without the adaptive policy: recovery discards the
    // staged output and the uncommitted tombstone; the store reads back
    // in the organization it had before the advise.
    let backend = engine.into_backend();
    backend.disarm();
    let engine = open(backend);
    let stats = engine.stats().unwrap();
    assert_eq!(stats.fragments, 1);
    assert_eq!(
        stats.by_format.keys().collect::<Vec<_>>(),
        vec!["LINEAR"],
        "interrupted migration must leave the old organization"
    );
    assert!(engine
        .backend()
        .list()
        .unwrap()
        .iter()
        .all(|n| !n.ends_with(".tmp") && !n.ends_with(".tsn")));
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[1, 1], [2, 2]])).unwrap(),
        vec![Some(1.0), Some(2.0)]
    );
}

/// The happy path of live re-organization: consolidation migrates the
/// store to the advisor's pick, reads are byte-identical across the
/// migration, and a further consolidation is a no-op (convergence).
#[test]
fn adaptive_consolidation_converges_and_preserves_reads() {
    let engine = StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Coo,
        shape(),
        8,
        EngineConfig::default().with_adaptive_reorg(ReorgProfile::Balanced),
    )
    .unwrap();
    let coords: Vec<[u64; 2]> = (0..32u64).map(|i| [i, (i * 3) % 64]).collect();
    let vals: Vec<f64> = (0..32).map(|i| i as f64 * 0.5).collect();
    let queries = CoordBuffer::from_points(2, &coords).unwrap();
    engine.write_points::<f64>(&queries, &vals[..]).unwrap();
    let before = engine.read_values::<f64>(&queries).unwrap();

    engine.consolidate().unwrap();
    let stats = engine.stats().unwrap();
    assert_eq!(stats.fragments, 1);
    assert_eq!(stats.by_format.len(), 1);
    let organization = stats.by_format.keys().next().unwrap().clone();

    // The store landed on what an offline advisor pass recommends.
    let (all, _) = engine.export().unwrap();
    let sparsity = SparsityStats::from_coords(&all, &shape());
    let offline = recommend_from_stats(&sparsity, &AccessProfile::balanced(), &[]).best();
    assert_eq!(organization, offline.name());

    // Byte-identical reads across the migration; converged thereafter.
    assert_eq!(engine.read_values::<f64>(&queries).unwrap(), before);
    engine.consolidate().unwrap();
    let again = engine.stats().unwrap();
    assert_eq!(again.fragments, 1);
    assert_eq!(again.by_format.keys().next().unwrap(), &organization);
}

/// An export racing a consolidation on the same engine must not fail:
/// the pass retires its sources once it commits, so an export that
/// snapshotted them and is still fetching would hit a vanished blob. The
/// export holds the consolidation lock across its snapshot and scan.
#[test]
fn export_racing_consolidation_never_fails() {
    let engine = StorageEngine::open(
        FailingBackend::new(MemBackend::new()),
        FormatKind::Coo,
        shape(),
        8,
    )
    .unwrap();
    for i in 0..4u64 {
        engine
            .write_points::<f64>(&pts(&[[i, i]]), &[i as f64])
            .unwrap();
    }
    // Every fetch takes 20 ms: the pass spends ~80 ms merging before it
    // commits and retires the four sources.
    engine.backend().set_read_latency(Duration::from_millis(20));
    let (coords, payload) = std::thread::scope(|scope| {
        let pass = scope.spawn(|| engine.consolidate().unwrap());
        std::thread::sleep(Duration::from_millis(70));
        let exported = engine.export().unwrap();
        pass.join().unwrap();
        exported
    });
    assert_eq!(coords.len(), 4);
    let values: Vec<f64> = payload
        .chunks_exact(8)
        .map(|r| f64::from_le_bytes(r.try_into().unwrap()))
        .collect();
    assert_eq!(values, vec![0.0, 1.0, 2.0, 3.0]);
    assert_eq!(engine.fragments().unwrap().len(), 1);
}

/// Two engines over one store claim distinct epochs, so their fragment
/// names can never collide even when their write sequences do.
#[test]
fn two_engines_over_one_store_never_collide() {
    let store = Arc::new(MemBackend::new());
    let e1 = open(Arc::clone(&store));
    let e2 = open(Arc::clone(&store));
    assert_ne!(e1.epoch(), e2.epoch());

    // Interleave writes: both engines hand out overlapping sequence
    // numbers, so without the epoch in the name these would overwrite
    // each other silently.
    for i in 0..3u64 {
        e1.write_points::<f64>(&pts(&[[i, 0]]), &[i as f64])
            .unwrap();
        e2.write_points::<f64>(&pts(&[[i, 1]]), &[10.0 + i as f64])
            .unwrap();
    }
    assert_eq!(e1.fragments().unwrap().len(), 3);

    // Each engine sees the other's fragments after a refresh; all six
    // names are distinct and all six points are readable.
    e1.refresh().unwrap();
    assert_eq!(e1.fragments().unwrap().len(), 6);
    let q = pts(&[[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]);
    assert_eq!(
        e1.read_values::<f64>(&q).unwrap(),
        vec![
            Some(0.0),
            Some(1.0),
            Some(2.0),
            Some(10.0),
            Some(11.0),
            Some(12.0)
        ]
    );
}

/// The lost-update regression: a fragment written concurrently while
/// another engine consolidates must keep precedence over the merged
/// output. The consolidated fragment takes the highest *source* sequence
/// number (plus a generation tiebreaker), so the newer write still
/// outranks it.
#[test]
fn fragment_written_during_consolidation_keeps_precedence() {
    let store = Arc::new(MemBackend::new());
    let writer = open(Arc::clone(&store));
    writer.write_points::<f64>(&pts(&[[1, 1]]), &[1.0]).unwrap();
    writer.write_points::<f64>(&pts(&[[2, 2]]), &[2.0]).unwrap();

    // A second engine opens, snapshotting the two fragments...
    let consolidator = open(Arc::clone(&store));
    // ...while the writer lands an overwrite the consolidator's catalog
    // has not seen.
    writer.write_points::<f64>(&pts(&[[1, 1]]), &[9.0]).unwrap();

    // The consolidator merges its stale snapshot. It must not shadow the
    // concurrent overwrite.
    let report = consolidator.consolidate().unwrap();
    assert_eq!(report.merged_fragments, 2);

    consolidator.refresh().unwrap();
    assert_eq!(consolidator.fragments().unwrap().len(), 2);
    assert_eq!(
        consolidator
            .read_values::<f64>(&pts(&[[1, 1], [2, 2]]))
            .unwrap(),
        vec![Some(9.0), Some(2.0)],
        "the concurrent overwrite must win over the consolidated output"
    );
}

/// Reads racing deletes and consolidations on the same engine re-plan
/// instead of failing: a planned fragment that vanishes mid-read is
/// always covered by whatever replaced it.
#[test]
fn reads_racing_consolidation_and_deletes_never_fail() {
    let engine = open(MemBackend::new());
    engine
        .write_points::<f64>(&pts(&[[9, 9]]), &[99.0])
        .unwrap();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 0..40u64 {
                engine
                    .write_points::<f64>(&pts(&[[i % 8, 1 + (i % 8)]]), &[i as f64])
                    .unwrap();
                if i % 4 == 3 {
                    engine.consolidate().unwrap();
                }
            }
        });
        // The anchor point predates the churn, so every read must see it
        // no matter which fragment currently holds it.
        for _ in 0..200 {
            let vals = engine.read_values::<f64>(&pts(&[[9, 9]])).unwrap();
            assert_eq!(vals, vec![Some(99.0)]);
        }
        writer.join().unwrap();
    });

    engine.consolidate().unwrap();
    assert_eq!(engine.fragments().unwrap().len(), 1);
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[9, 9]])).unwrap(),
        vec![Some(99.0)]
    );
}

/// The full protocol over a real directory: staged writes, an
/// interrupted-looking directory state (stray staging file, spent
/// tombstone), reopen, and recovery.
#[test]
fn filesystem_store_recovers_on_reopen() {
    let dir = tempfile::tempdir().unwrap();
    {
        let engine = open(FsBackend::new(dir.path()).unwrap());
        engine.write_points::<f64>(&pts(&[[1, 1]]), &[1.0]).unwrap();
        engine.write_points::<f64>(&pts(&[[2, 2]]), &[2.0]).unwrap();
        engine.consolidate().unwrap();
    }
    // Simulate a crashed writer: a torn staging blob left in the store.
    std::fs::write(
        dir.path().join("frag-00000009-00000007.asf.tmp"),
        b"torn garbage",
    )
    .unwrap();

    let engine = open(FsBackend::new(dir.path()).unwrap());
    assert_eq!(engine.fragments().unwrap().len(), 1);
    assert!(engine
        .backend()
        .list()
        .unwrap()
        .iter()
        .all(|n| !n.ends_with(".tmp") && !n.ends_with(".tsn")));
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[1, 1], [2, 2]])).unwrap(),
        vec![Some(1.0), Some(2.0)]
    );
}

/// Range reads through the whole engine stack on a striped store move
/// strictly fewer device bytes than whole-fragment fetches would — the
/// per-device accounting of the simulated disks proves it.
#[test]
fn striped_range_reads_transfer_fewer_device_bytes() {
    let striped = StripedBackend::new(
        (0..4)
            .map(|_| SimulatedDisk::new(1e12, Duration::ZERO))
            .collect(),
        64,
    );
    let engine = open(striped);
    let coords: Vec<[u64; 2]> = (0..64).map(|i| [i, i]).collect();
    let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
    engine
        .write_points::<f64>(&CoordBuffer::from_points(2, &coords).unwrap(), &vals)
        .unwrap();
    let frag_bytes = engine.total_stored_bytes().unwrap();

    let read_before: u64 = engine
        .backend()
        .devices()
        .iter()
        .map(|d| d.bytes_read())
        .sum();
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[7, 7]])).unwrap(),
        vec![Some(7.0)]
    );
    let transferred: u64 = engine
        .backend()
        .devices()
        .iter()
        .map(|d| d.bytes_read())
        .sum::<u64>()
        - read_before;
    assert!(
        transferred < frag_bytes,
        "one-point read moved {transferred} of {frag_bytes} stored bytes"
    );
}

// ---------------------------------------------------------------------
// Streaming ingest: WAL durability, group commits, and precedence.
// ---------------------------------------------------------------------

use artsparse::metrics::SpanKind;
use artsparse::storage::{IngestConfig, IngestScheduler, SchedulerConfig, BUFFER_FRAGMENT};

/// The ingest ack contract, checked at every possible crash offset: the
/// device is given a write budget of `b` bytes and killed, for every `b`
/// from zero past the WAL record size. Batch 1 was acked before the
/// fault arms, so it must survive every reopen; batch 2 races the crash,
/// and must be readable after reopen exactly when its ingest call
/// returned Ok — an acked batch is never lost, an unacked one never
/// resurrects (`put_atomic` is all-or-nothing, and the CRC framing
/// would reject a torn record anyway).
#[test]
fn acked_ingest_survives_crash_at_every_write_offset() {
    // Generous upper bound on the one-point WAL record size (52 bytes).
    for budget in 0..=64u64 {
        let engine = open(FailingBackend::new(MemBackend::new()));
        engine
            .ingest_points::<f64>(&pts(&[[1, 1]]), &[1.0])
            .unwrap();

        engine.backend().fail_after_write_bytes(budget);
        engine.backend().fail_deletes(true); // the dying process cleans nothing
        let acked = engine.ingest_points::<f64>(&pts(&[[2, 2]]), &[2.0]).is_ok();

        // "Crash": drop the engine (the in-memory buffer dies with it)
        // and reopen over the surviving blobs.
        let backend = engine.into_backend();
        backend.disarm();
        let engine = open(backend);
        assert_eq!(engine.buffer_stats().points, 0, "replay group-commits");
        let vals = engine.read_values::<f64>(&pts(&[[1, 1], [2, 2]])).unwrap();
        assert_eq!(vals[0], Some(1.0), "acked batch lost at budget {budget}");
        assert_eq!(
            vals[1].is_some(),
            acked,
            "unacked batch resurrected (or acked one lost) at budget {budget}"
        );
        // Replay retired or swept every WAL blob.
        assert!(
            !engine
                .backend()
                .list()
                .unwrap()
                .iter()
                .any(|n| n.starts_with("wal-")),
            "WAL blob survived replay at budget {budget}"
        );
    }
}

/// The same sweep over the group commit itself: two acked batches, then
/// the device dies at every offset while `flush` runs. Whatever window
/// the crash hits — staging put, rename, WAL retirement — both acked
/// batches must read back after reopen (from the committed fragment,
/// from replayed WAL blobs, or both; duplicates are identical records,
/// so precedence hides them).
#[test]
fn group_commit_crash_at_every_offset_never_loses_acked_points() {
    // Upper bound on the flush's device writes (fragment + staging).
    for budget in 0..=512u64 {
        let engine = open(FailingBackend::new(MemBackend::new()));
        engine
            .ingest_points::<f64>(&pts(&[[1, 1]]), &[1.0])
            .unwrap();
        engine
            .ingest_points::<f64>(&pts(&[[2, 2]]), &[2.0])
            .unwrap();

        engine.backend().fail_after_write_bytes(budget);
        engine.backend().fail_deletes(true);
        let _ = engine.flush(); // may die in any window

        let backend = engine.into_backend();
        backend.disarm();
        let engine = open(backend);
        assert_eq!(
            engine.read_values::<f64>(&pts(&[[1, 1], [2, 2]])).unwrap(),
            vec![Some(1.0), Some(2.0)],
            "acked points lost when the group commit died at budget {budget}"
        );
        // No torn artifacts either: staging blobs swept, WAL retired.
        let names = engine.backend().list().unwrap();
        assert!(!names.iter().any(|n| n.ends_with(".tmp")));
        assert!(!names.iter().any(|n| n.starts_with("wal-")));
    }
}

/// An empty-buffer flush is a complete no-op: no fragment, no device
/// writes, nothing for a reopen to find.
#[test]
fn empty_buffer_flush_touches_nothing() {
    let engine = open(FailingBackend::new(MemBackend::new()));
    let before = engine.backend().list().unwrap();
    assert!(engine.flush().unwrap().is_none());
    assert_eq!(engine.backend().list().unwrap(), before);
    assert_eq!(engine.fragments().unwrap().len(), 0);
    // Even with the device armed to kill any write: nothing is written.
    engine.backend().fail_after_write_bytes(0);
    assert!(engine.flush().unwrap().is_none());
}

/// Shutting the scheduler down while a flush may be in flight never
/// tears state: the buffered point is either wholly buffered or wholly
/// committed, and a reopen (WAL replay) lands it in a fragment either
/// way.
#[test]
fn scheduler_shutdown_mid_flush_leaves_consistent_store() {
    let config = EngineConfig::default().with_ingest(IngestConfig {
        flush_points: 1_000_000,
        flush_bytes: usize::MAX,
        flush_interval_ms: 0, // every tick wants to flush
        wal: true,
        ..Default::default()
    });
    let engine = Arc::new(
        StorageEngine::open_with(MemBackend::new(), FormatKind::Linear, shape(), 8, config)
            .unwrap(),
    );
    engine
        .ingest_points::<f64>(&pts(&[[3, 3]]), &[3.0])
        .unwrap();
    let mut sched = IngestScheduler::spawn(
        Arc::clone(&engine),
        SchedulerConfig {
            tick_ms: 1,
            ..Default::default()
        },
    );
    sched.shutdown(); // races the first tick's flush
    let buffered = engine.buffer_stats().points;
    let fragments = engine.fragments().unwrap().len();
    assert!(
        (buffered, fragments) == (1, 0) || (buffered, fragments) == (0, 1),
        "torn flush: buffered={buffered}, fragments={fragments}"
    );
    // A "crash" now (buffer dropped) still keeps the point: WAL replay.
    let engine = Arc::into_inner(engine).unwrap();
    let engine = open(engine.into_backend());
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[3, 3]])).unwrap(),
        vec![Some(3.0)]
    );
    assert_eq!(engine.fragments().unwrap().len(), 1);
}

/// Last-write-wins everywhere a buffered duplicate can meet a committed
/// one: point read, region read, consolidation, and export must all
/// prefer the newer buffered record — and keep preferring it after it
/// flushes.
#[test]
fn buffered_duplicates_win_across_read_region_consolidate_export() {
    let engine = open(MemBackend::new());
    engine
        .write_points::<f64>(&pts(&[[5, 5], [6, 6]]), &[1.0, 60.0])
        .unwrap();
    engine
        .ingest_points::<f64>(&pts(&[[5, 5]]), &[2.0])
        .unwrap();

    // Point read: buffer overlays the fragment hit.
    let r = engine.read(&pts(&[[5, 5]])).unwrap();
    assert_eq!(r.hits.len(), 1);
    assert_eq!(r.hits[0].fragment, BUFFER_FRAGMENT);
    // Region read: same rule through the region path.
    let region = artsparse::Region::from_corners(&[5, 5], &[6, 6]).unwrap();
    let hits = engine.read_region(&region).unwrap().hits;
    let by_coord: Vec<(Vec<u64>, f64)> = hits
        .iter()
        .map(|h| {
            (
                h.coord.clone(),
                f64::from_le_bytes(h.value.as_slice().try_into().unwrap()),
            )
        })
        .collect();
    assert_eq!(
        by_coord,
        vec![(vec![5, 5], 2.0), (vec![6, 6], 60.0)],
        "region read must see the buffered record"
    );

    // Export: buffered record wins in the merged view.
    let (coords, payload) = engine.export().unwrap();
    assert_eq!(coords.len(), 2);
    assert_eq!(f64::from_le_bytes(payload[..8].try_into().unwrap()), 2.0);

    // Consolidation (export flushed the buffer already): one fragment,
    // still the newer record.
    engine
        .ingest_points::<f64>(&pts(&[[6, 6]]), &[61.0])
        .unwrap();
    let report = engine.consolidate().unwrap();
    assert_eq!(report.n_points, 2);
    assert_eq!(engine.fragments().unwrap().len(), 1);
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[5, 5], [6, 6]])).unwrap(),
        vec![Some(2.0), Some(61.0)]
    );
}

/// A group commit whose WAL retirement fails must not fail the flush —
/// the fragment is already committed — and the orphaned blob must never
/// resurrect overwritten values when a later open replays it. Replay is
/// order-preserving: the orphan re-materializes at the precedence slot
/// its ack was given, below the covering fragment and every later write.
#[test]
fn orphaned_wal_after_failed_retirement_never_resurrects_old_values() {
    let engine = open(FailingBackend::new(MemBackend::new()));
    engine
        .ingest_points::<f64>(&pts(&[[1, 1]]), &[1.0])
        .unwrap();

    // The device refuses deletes: the group commit lands its fragment
    // but cannot retire the WAL blob. The flush still succeeds.
    engine.backend().fail_deletes(true);
    engine.flush().unwrap().expect("buffer was non-empty");
    assert!(
        engine
            .backend()
            .list()
            .unwrap()
            .iter()
            .any(|n| n.starts_with("wal-")),
        "the WAL blob must survive as an orphan"
    );

    // The process carries on and overwrites the address.
    engine.write_points::<f64>(&pts(&[[1, 1]]), &[2.0]).unwrap();

    // "Crash" with the orphan still on the device; reopen replays it.
    let backend = engine.into_backend();
    backend.disarm();
    let engine = open(backend);
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[1, 1]])).unwrap(),
        vec![Some(2.0)],
        "replayed orphan resurrected an overwritten value"
    );
    // Replay itself retired the orphan.
    assert!(!engine
        .backend()
        .list()
        .unwrap()
        .iter()
        .any(|n| n.starts_with("wal-")));
}

/// Failed WAL retirements queue for retry: once the device heals, the
/// next flush — even an empty-buffer one — sheds the orphan.
#[test]
fn failed_wal_retirement_is_retried_on_the_next_flush() {
    let engine = open(FailingBackend::new(MemBackend::new()));
    engine
        .ingest_points::<f64>(&pts(&[[1, 1]]), &[1.0])
        .unwrap();
    engine.backend().fail_deletes(true);
    engine.flush().unwrap();
    assert!(engine
        .backend()
        .list()
        .unwrap()
        .iter()
        .any(|n| n.starts_with("wal-")));

    engine.backend().disarm();
    assert!(engine.flush().unwrap().is_none(), "buffer is empty");
    assert!(
        !engine
            .backend()
            .list()
            .unwrap()
            .iter()
            .any(|n| n.starts_with("wal-")),
        "the healed device must shed the orphaned WAL blob"
    );
}

/// A second engine opening mid-stream replays (and retires) the live
/// engine's not-yet-flushed WAL blobs. Because replay preserves the
/// batch's original (seq, epoch) identity, the replayed copy ranks below
/// everything the live engine acks afterwards — its later flush must win
/// on both engines.
#[test]
fn replay_of_live_engines_wal_never_outranks_its_later_flush() {
    let store = Arc::new(MemBackend::new());
    let a = open(Arc::clone(&store));
    a.ingest_points::<f64>(&pts(&[[1, 1]]), &[1.0]).unwrap();

    // B opens over the same store and replays A's WAL blob into a
    // fragment — the acked batch is visible to B immediately.
    let b = open(Arc::clone(&store));
    assert_eq!(
        b.read_values::<f64>(&pts(&[[1, 1]])).unwrap(),
        vec![Some(1.0)]
    );

    // A keeps running: it still holds the batch in its buffer, tolerates
    // the retired blob, and overwrites the address. Its ids are all
    // higher than the replayed copy's, so its group commit outranks it.
    a.ingest_points::<f64>(&pts(&[[1, 1]]), &[2.0]).unwrap();
    a.flush().unwrap().expect("buffer was non-empty");
    assert_eq!(
        a.read_values::<f64>(&pts(&[[1, 1]])).unwrap(),
        vec![Some(2.0)]
    );
    b.refresh().unwrap();
    assert_eq!(
        b.read_values::<f64>(&pts(&[[1, 1]])).unwrap(),
        vec![Some(2.0)],
        "the stale replayed copy must not shadow the live engine's flush"
    );
}

/// Reads racing group commits on the same engine: an acked point must
/// never flicker to "missing" while a flush moves it from the buffer to
/// a fragment, and the value a read returns never goes backwards. The
/// read snapshots the buffer before planning against the catalog, so a
/// flush landing mid-read is covered from one side or the other.
#[test]
fn reads_racing_group_commits_never_lose_acked_points() {
    let engine = open(MemBackend::new());
    engine
        .ingest_points::<f64>(&pts(&[[4, 4]]), &[0.0])
        .unwrap();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 1..=50u64 {
                engine
                    .ingest_points::<f64>(&pts(&[[4, 4]]), &[i as f64])
                    .unwrap();
                engine.flush().unwrap();
            }
        });
        let mut last = 0.0f64;
        for _ in 0..300 {
            let vals = engine.read_values::<f64>(&pts(&[[4, 4]])).unwrap();
            let v = vals[0].expect("acked point vanished mid-flush");
            assert!(v >= last, "monotonic reads violated: {v} after {last}");
            last = v;
        }
        writer.join().unwrap();
    });
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[4, 4]])).unwrap(),
        vec![Some(50.0)]
    );
}

/// Consolidating a store of zero or one fragments is a cheap no-op: no
/// staging, no tombstone, no merge scan, no bytes written — pinned with
/// telemetry span counts so churn cannot silently creep back in.
#[test]
fn consolidate_noop_on_zero_or_one_fragments_writes_nothing() {
    let engine = StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Linear,
        shape(),
        8,
        EngineConfig::default().with_telemetry(true),
    )
    .unwrap();
    let churn_counts = |engine: &StorageEngine<MemBackend>| {
        let report = engine.telemetry_report().unwrap();
        let count = |kind| report.span(kind).map(|s| s.count).unwrap_or(0);
        (
            count(SpanKind::WriteStage),
            count(SpanKind::ConsolidateMerge),
            count(SpanKind::ConsolidateTombstone),
            count(SpanKind::ConsolidateCommit),
            count(SpanKind::ConsolidateSweep),
            report.totals.bytes_written,
        )
    };

    // Zero fragments.
    let before = churn_counts(&engine);
    let report = engine.consolidate().unwrap();
    assert_eq!(report.fragment, None);
    assert_eq!(report.before_bytes, report.after_bytes);
    assert_eq!(
        churn_counts(&engine),
        before,
        "empty-store consolidation did device work"
    );

    // One fragment.
    engine.write_points::<f64>(&pts(&[[1, 1]]), &[1.0]).unwrap();
    let before = churn_counts(&engine);
    let report = engine.consolidate().unwrap();
    assert_eq!(report.fragment, None);
    assert_eq!(report.merged_fragments, 1);
    assert_eq!(
        churn_counts(&engine),
        before,
        "single-fragment consolidation did device work"
    );
    assert_eq!(engine.fragments().unwrap().len(), 1);
}
