//! Fig. 3 bench — WRITE time per organization × pattern × dimensionality.
//!
//! Measures Algorithm 3's algorithmic write path (build + value
//! reorganization + fragment assembly) on an in-memory device, at smoke
//! scale so a full `cargo bench` stays laptop-sized. The harness binary
//! (`artsparse-bench fig3 --scale medium --backend sim`) produces the
//! device-inclusive version.

use artsparse_core::FormatKind;
use artsparse_metrics::OpCounter;
use artsparse_patterns::{Dataset, Pattern, PatternParams, Scale};
use artsparse_storage::{MemBackend, StorageEngine};
use artsparse_tensor::value::pack;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_write");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for pattern in Pattern::ALL {
        for ndim in [2usize, 3, 4] {
            let ds = Dataset::for_scale(pattern, ndim, Scale::Smoke, PatternParams::default());
            let payload = pack(&ds.values());
            for format in FormatKind::PAPER_FIVE {
                let id = BenchmarkId::new(
                    format.name(),
                    format!("{}-{}D-n{}", pattern.name(), ndim, ds.nnz()),
                );
                group.bench_with_input(id, &ds, |b, ds| {
                    b.iter(|| {
                        let engine =
                            StorageEngine::open(MemBackend::new(), format, ds.shape.clone(), 8)
                                .unwrap();
                        engine.write(&ds.coords, &payload).unwrap()
                    });
                });
            }
        }
    }
    group.finish();
}

fn bench_build_only(c: &mut Criterion) {
    // The Table III "Build" phase in isolation: organization construction
    // without device or payload handling.
    let mut group = c.benchmark_group("fig3_build_phase");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let ds = Dataset::for_scale(Pattern::Msp, 4, Scale::Smoke, PatternParams::default());
    let counter = OpCounter::new();
    for format in FormatKind::PAPER_FIVE {
        let org = format.create();
        group.bench_function(format.name(), |b| {
            b.iter(|| org.build(&ds.coords, &ds.shape, &counter).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_write, bench_build_only);
criterion_main!(benches);
