//! `embed-lifecycle` — one store's whole life on a counted in-memory
//! device: stream a 4D MSP tensor in through `ingest` in 64-point
//! batches, drop the engine without `shutdown()`, reopen and find every
//! acked point, read single points, read regions wider and narrower than
//! the cache, consolidate, read the narrow regions again. One life is a
//! round; a run repeats rounds on fresh devices and reports the better
//! quartile of them.
//!
//! GCSR++ with a delta-varint index codec and a decoded-fragment cache:
//! the one workload where WAL, buffer, group commit, catalog, checksum,
//! codec, cache and consolidation all carry weight.

use crate::common::{
    checked_read, rng, rounds_within, Args, Outcome, Phases, Query, ReadTally, SETUPS_EMBEDDED,
};
use crate::micro::{self, Sample, Work, BATCH};
use crate::oracle::Oracle;
use crate::report::{
    geometric_mean, lower_quartile, median, median_us, peak_rss_mib, upper_quartile, Report,
};
use crate::trace::{DatasetCtx, DeviceSnapshot, SelfTimes, Tracer};
use artsparse_core::FormatKind;
use artsparse_patterns::msp;
use artsparse_storage::{Codec, EngineConfig, StorageEngine};
use artsparse_tensor::{CoordBuffer, Region, Shape};
use std::sync::Arc;
use std::time::Instant;

/// Index of GCSR++ in [`crate::report::ORGS`].
const GCSR: usize = 2;

struct Sizes {
    side: u64,
    /// Decoded-fragment cache budget. The store decodes to about five
    /// times this, so the wide pass cannot stay resident; the narrow
    /// pass touches about half of it.
    cache_bytes: usize,
    /// Size of a narrow box, and of a wide one: a wide box spans the
    /// whole first dimension, so every one of them meets every background
    /// fragment (generation order cuts the background into slabs along
    /// that dimension). Boxes that meet one slab or two, as the seed
    /// places them, gave the wide pass two costs and a median that
    /// jumped between them from seed to seed.
    region: [u64; 4],
    wide_region: [u64; 4],
    gets: usize,
    wide: usize,
    narrow: usize,
    narrow_repeats: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            side: 12,
            cache_bytes: 64 << 10,
            region: [2, 2, 2, 2],
            wide_region: [12, 2, 2, 1],
            gets: 16,
            wide: 4,
            narrow: 2,
            narrow_repeats: 2,
        }
    } else {
        Sizes {
            side: 64,
            cache_bytes: 1 << 20,
            region: [2, 6, 6, 6],
            wide_region: [64, 2, 2, 2],
            gets: 512,
            wide: 192,
            narrow: 24,
            narrow_repeats: 4,
        }
    }
}

struct Input {
    shape: Shape,
    points: usize,
    /// Ingest batches in generation order (background row-major, then
    /// the dense block row-major: spatially clustered, so pruning works).
    batches: Vec<(CoordBuffer, Vec<u8>)>,
    gets: Vec<Vec<u64>>,
    wide: Vec<Region>,
    narrow: Vec<Region>,
    oracle: Oracle,
    sample: Sample,
    cache_bytes: usize,
    narrow_repeats: usize,
}

fn setup(args: &Args) -> (Input, f64) {
    let sz = sizes(args.smoke);
    let shape = Shape::cube(4, sz.side).expect("valid shape");
    let t = Instant::now();
    let coords = msp::generate(&shape, 0.999, 1.0, args.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let n = coords.len();
    let mut rand = rng(args.seed, 3);
    let mut oracle = Oracle::new(shape.dims());
    let mut values = Vec::with_capacity(n * 8);
    for p in coords.iter() {
        let v = rand.next_f64();
        oracle.write(p, v);
        values.extend_from_slice(&v.to_le_bytes());
    }
    let flat = coords.as_flat();
    let batches = (0..n.div_ceil(BATCH))
        .map(|b| {
            let (lo, hi) = (b * BATCH, ((b + 1) * BATCH).min(n));
            let c = CoordBuffer::from_flat(4, flat[lo * 4..hi * 4].to_vec()).expect("whole points");
            (c, values[lo * 8..hi * 8].to_vec())
        })
        .collect();
    let gets = (0..sz.gets)
        .map(|k| {
            if k % 2 == 0 {
                coords.point(rand.next_below(n as u64) as usize).to_vec()
            } else {
                shape.dims().iter().map(|&d| rand.next_below(d)).collect()
            }
        })
        .collect();
    let wide = (0..sz.wide)
        .map(|_| {
            let lo: Vec<u64> = (0..4)
                .map(|d| rand.next_below(sz.side - sz.wide_region[d] + 1))
                .collect();
            Region::from_start_size(&lo, &sz.wide_region).expect("region inside the shape")
        })
        .collect();
    // Narrow boxes sit in the first two dim-0 slices of the dense block,
    // which generation order packs into a handful of fragments.
    let dense = msp::dense_region(&shape);
    let narrow = (0..sz.narrow)
        .map(|_| {
            let mut lo = vec![dense.lo()[0]];
            for d in 1..4 {
                lo.push(
                    dense.lo()[d]
                        + rand.next_below(dense.sizes()[d].saturating_sub(sz.region[d]).max(1)),
                );
            }
            Region::from_start_size(&lo, &sz.region).expect("region inside the shape")
        })
        .collect();
    let keep = n.min(4096);
    // The sample comes from the dense block at the end of generation
    // order, where most of the points are.
    let sample = Sample {
        shape: shape.clone(),
        coords: CoordBuffer::from_flat(4, flat[(n - keep) * 4..].to_vec()).expect("whole points"),
        values: values[(n - keep) * 8..].to_vec(),
    };
    let input = Input {
        shape,
        points: n,
        batches,
        gets,
        wide,
        narrow,
        oracle,
        sample,
        cache_bytes: sz.cache_bytes,
        narrow_repeats: sz.narrow_repeats,
    };
    (input, generate_s)
}

/// What one round measured.
#[derive(Default)]
struct Round {
    ingest_ns: Vec<u64>,
    /// Ingest calls that also group-committed the buffer.
    flushing_ingest_ns: Vec<u64>,
    /// Single-point reads by class: stored coordinates, random ones.
    get_ns: [Vec<u64>; 2],
    /// Region reads by pass: wide, narrow, narrow after consolidation.
    scan_ns: [Vec<u64>; 3],
    reads: ReadTally,
    reopen_ns: u64,
    consolidate_ns: u64,
    durable: u64,
    stored_bytes: u64,
    hit_rate_wide: f64,
    hit_rate_narrow: f64,
    evictions: u64,
    codec_bytes: u64,
    device: DeviceSnapshot,
}

fn open(
    ctx: &Arc<DatasetCtx>,
    input: &Input,
) -> artsparse_storage::Result<StorageEngine<crate::trace::TimedBackend>> {
    let config = EngineConfig::default().with_cache_capacity(input.cache_bytes);
    Ok(StorageEngine::open_with(
        ctx.backend(),
        FormatKind::GcsrPP,
        input.shape.clone(),
        8,
        config,
    )?
    .with_compression(Codec::DeltaVarint, Codec::None))
}

fn one_round(input: &Input, tracer: &Arc<Tracer>, report: &mut Report) -> Round {
    // The device outlives the engine, as a disk outlives a process.
    let ctx = DatasetCtx::new(Arc::clone(tracer));
    let mut round = Round::default();

    let engine = open(&ctx, input).expect("opening an empty store");
    let mut acked = 0usize;
    for (coords, values) in &input.batches {
        let before = engine.buffer_stats().points;
        let (out, ns) = ctx.request("engine.ingest", || engine.ingest(coords, values));
        match out {
            Ok(n) => acked += n,
            Err(e) => report.fail(format!("ingest failed: {e}")),
        }
        report.attempted += 1;
        round.ingest_ns.push(ns);
        if engine.buffer_stats().points < before + coords.len() {
            round.flushing_ingest_ns.push(ns);
        }
    }
    round.codec_bytes += engine.stats().map(|s| s.index_raw_bytes).unwrap_or(0);

    // A crash: the engine goes away with points still only in the WAL.
    drop(engine);
    let (reopened, ns) = ctx.request("engine.reopen", || open(&ctx, input));
    round.reopen_ns = ns;
    let engine = match reopened {
        Ok(engine) => engine,
        Err(e) => {
            report.check(Some(format!("reopen failed: {e}")));
            return round;
        }
    };

    // Durability: every acked point must be readable, in big batches.
    for chunk in input.batches.chunks(4096 / BATCH) {
        let mut queries = CoordBuffer::new(4);
        for (coords, _) in chunk {
            for p in coords.iter() {
                queries.push(p).expect("same arity");
            }
        }
        let (out, _) = ctx.request("engine.verify", || engine.read_values::<f64>(&queries));
        match out {
            Err(e) => report.check(Some(format!("durability read failed: {e}"))),
            Ok(values) => {
                let lost = queries
                    .iter()
                    .zip(&values)
                    .filter(|(q, v)| input.oracle.check_get(q, **v).is_some())
                    .count();
                round.durable += (queries.len() - lost) as u64;
                report.check(
                    (lost > 0)
                        .then(|| format!("{lost} acked point(s) lost or changed after reopen")),
                );
            }
        }
    }
    if acked != input.points {
        report.fail(format!("{acked} of {} points acked", input.points));
    }

    // Stored coordinates first, then random ones: the stored ones walk
    // the whole store and churn the cache, the random ones keep coming
    // back to the few background fragments.
    for class in 0..2 {
        for coord in input.gets.iter().skip(class).step_by(2) {
            let mut q = CoordBuffer::new(4);
            q.push(coord).expect("same arity");
            let read = checked_read(
                &ctx,
                &engine,
                &input.oracle,
                Query::Points(&q),
                "point",
                &mut round.reads,
                report,
            );
            round.get_ns[class].extend(read);
        }
    }

    let pass = |report: &mut Report,
                round: &mut Round,
                class: usize,
                regions: &[Region],
                repeats: usize|
     -> f64 {
        let before = engine.cache().stats();
        for _ in 0..repeats {
            for region in regions {
                let read = checked_read(
                    &ctx,
                    &engine,
                    &input.oracle,
                    Query::Region(region),
                    "region",
                    &mut round.reads,
                    report,
                );
                round.scan_ns[class].extend(read);
            }
        }
        let after = engine.cache().stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        hits as f64 / (hits + misses).max(1) as f64
    };
    round.hit_rate_wide = pass(report, &mut round, 0, &input.wide, 1);
    round.hit_rate_narrow = pass(report, &mut round, 1, &input.narrow, input.narrow_repeats);

    let (out, ns) = ctx.request("engine.consolidate", || engine.consolidate());
    let merged = out.as_ref().map(|r| r.n_points).unwrap_or(0);
    report.check((merged != input.oracle.len()).then(|| {
        format!(
            "consolidate kept {merged} of {} points: {:?}",
            input.oracle.len(),
            out.err()
        )
    }));
    round.consolidate_ns = ns;
    round.stored_bytes = ctx.device_bytes().expect("in-memory listing");
    round.codec_bytes += engine.stats().map(|s| s.index_raw_bytes).unwrap_or(0);
    pass(
        report,
        &mut round,
        2,
        &input.narrow,
        input.narrow_repeats / 2,
    );

    round.evictions = engine.cache().stats().evictions;
    round.device = ctx.snapshot();
    round
}

pub fn run(args: &Args) -> Outcome {
    let tracer = Tracer::new();
    let mut report = Report::default();

    let (mut setups, mut generated) = (Vec::new(), Vec::new());
    let mut input = None;
    for _ in 0..SETUPS_EMBEDDED {
        let t = Instant::now();
        let (fresh, generate_s) = setup(args);
        input = Some(fresh);
        setups.push(t.elapsed().as_secs_f64());
        generated.push(generate_s);
    }
    let input = input.expect("at least one set-up");

    let mut rounds: Vec<Round> = Vec::new();
    let mut next = |report: &mut Report| rounds.push(one_round(&input, &tracer, report));
    let phases = Phases::of(args);
    let untraced_walls = rounds_within(phases.untraced, || next(&mut report));
    let mut traced_walls = Vec::new();
    if args.trace {
        tracer.set_enabled(true);
        traced_walls = rounds_within(phases.traced, || next(&mut report));
        tracer.set_enabled(false);
    }
    let spans = tracer.take();

    let sum = |ns: &[u64]| ns.iter().sum::<u64>() as f64;
    // One value per round reduced by `pick`: the better quartile of the
    // rounds for the end-to-end metrics (see `report::upper_quartile`),
    // the median per layer.
    let over_rounds = |f: &dyn Fn(&Round) -> f64, pick: &dyn Fn(&[f64]) -> f64| {
        pick(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let pool = |f: &dyn Fn(&Round) -> Vec<u64>| rounds.iter().flat_map(f).collect::<Vec<u64>>();
    let (ingest_ns, get_ns, scan_ns) = (
        pool(&|r| r.ingest_ns.clone()),
        pool(&|r| r.get_ns.concat()),
        pool(&|r| r.scan_ns.concat()),
    );
    let points = input.points as f64;
    let live = input.oracle.len() as f64;
    let reads = |r: &Round| [r.get_ns.concat(), r.scan_ns.concat()].concat();
    let read_ns = |r: &Round| sum(&reads(r));
    let round_calls = |r: &Round| (r.ingest_ns.len() + reads(r).len() + 1) as f64;
    // The classes of a read differ several-fold (a cached narrow box, a
    // wide one, one that decodes the whole consolidated fragment), and
    // the median of their pool sits on the edge between two of them,
    // where the seed decides. The geometric mean of the classes' medians
    // weighs each class once.
    let classes_p50_us = |classes: &[Vec<u64>]| {
        geometric_mean(&classes.iter().map(|ns| median_us(ns)).collect::<Vec<_>>())
    };
    let calls: f64 = rounds.iter().map(round_calls).sum();

    report.set("setup_s", median(&setups));
    report.set(
        "write_points_per_s",
        over_rounds(&|r| points / (sum(&r.ingest_ns) / 1e9), &upper_quartile),
    );
    report.set(
        "read_cells_per_s",
        over_rounds(
            &|r| r.reads.cells as f64 / (read_ns(r) / 1e9),
            &upper_quartile,
        ),
    );
    report.set(
        "requests_per_s",
        over_rounds(
            &|r| {
                round_calls(r) / ((sum(&r.ingest_ns) + read_ns(r) + r.consolidate_ns as f64) / 1e9)
            },
            &upper_quartile,
        ),
    );
    report.set(
        "write_p50_us",
        over_rounds(&|r| median_us(&r.ingest_ns), &lower_quartile),
    );
    // Stored coordinates only. A random one is looked up in one or two
    // fragments, whichever the seed's fragment boundaries make the more
    // common, so its median sits on one cost or the other (40 or 80 us)
    // with the seed; it counts in `read_cells_per_s`.
    report.set(
        "get_p50_us",
        over_rounds(&|r| median_us(&r.get_ns[0]), &lower_quartile),
    );
    report.set(
        "scan_p50_us",
        over_rounds(&|r| classes_p50_us(&r.scan_ns), &lower_quartile),
    );
    report.set(
        "consolidate_points_per_s",
        over_rounds(&|r| live / (r.consolidate_ns as f64 / 1e9), &upper_quartile),
    );
    report.set(
        "stored_bytes_per_point",
        over_rounds(&|r| r.stored_bytes as f64 / live, &median),
    );
    report.set("peak_rss_mib", peak_rss_mib());

    let mut ops = std::collections::BTreeMap::new();
    ops.insert("rounds".to_string(), rounds.len() as u64);
    ops.insert("engine_calls".to_string(), calls as u64);
    ops.insert("points_per_round".to_string(), input.points as u64);

    if args.trace {
        let wall_ns: f64 = untraced_walls.iter().chain(&traced_walls).sum();
        let n_rounds = rounds.len() as f64;
        let mut work = Work {
            timed_wall_ns: wall_ns,
            points_ingested: points * n_rounds,
            ..Work::default()
        };
        // Built once by the group commits (or WAL replay), once by consolidation.
        work.points_built[GCSR] = 2.0 * points * n_rounds;
        work.points_enumerated[GCSR] = points * n_rounds;
        let mut device = DeviceSnapshot::default();
        for r in &rounds {
            work.fragment_queries[GCSR] += r.reads.fragment_queries as f64;
            work.codec_bytes += r.codec_bytes as f64;
            device = device.plus(r.device);
        }
        work.device_bytes_written = device.bytes_written as f64;
        work.device_bytes_read = device.bytes_read as f64;

        let plain = median_us(&ingest_ns);
        let flushing = pool(&|r| r.flushing_ingest_ns.clone());
        report.set("patterns.generate_s", median(&generated));
        report.set("storage.engine.ingest_us", plain);
        report.set(
            "storage.engine.flush_ms",
            if flushing.is_empty() {
                0.0
            } else {
                (median_us(&flushing) - plain) / 1e3
            },
        );
        report.set("storage.engine.get_us", median_us(&get_ns));
        report.set("storage.engine.scan_us", median_us(&scan_ns));
        report.set(
            "storage.engine.consolidate_ms",
            over_rounds(&|r| r.consolidate_ns as f64 / 1e6, &median),
        );
        report.set(
            "storage.engine.reopen_ms",
            over_rounds(&|r| r.reopen_ns as f64 / 1e6, &median),
        );
        report.set(
            "storage.engine.matched_per_scanned",
            rounds.iter().map(|r| r.reads.matched).sum::<u64>() as f64
                / rounds.iter().map(|r| r.reads.scanned).sum::<u64>().max(1) as f64,
        );
        report.set(
            "storage.engine.self_share",
            SelfTimes::of(&spans).self_share("engine."),
        );
        report.set(
            "storage.engine.durable_share",
            over_rounds(&|r| r.durable as f64 / points, &median),
        );
        report.set(
            "storage.cache.hit_rate.wide",
            over_rounds(&|r| r.hit_rate_wide, &median),
        );
        report.set(
            "storage.cache.hit_rate.narrow",
            over_rounds(&|r| r.hit_rate_narrow, &median),
        );
        report.set(
            "storage.cache.evictions",
            rounds.iter().map(|r| r.evictions).sum::<u64>() as f64 / calls,
        );
        let record = 4.0 * 8.0 + 8.0;
        let result_bytes =
            rounds.iter().map(|r| r.reads.result_points).sum::<u64>() as f64 * record;
        crate::common::report_device(
            &mut report,
            device,
            calls,
            wall_ns,
            points * n_rounds * record,
            result_bytes,
        );
        report.set(
            "metrics.trace_overhead_share",
            (median(&traced_walls) - median(&untraced_walls)) / median(&untraced_walls),
        );
        micro::run(&input.sample, &work, &mut report);
    }
    Outcome { report, spans, ops }
}
