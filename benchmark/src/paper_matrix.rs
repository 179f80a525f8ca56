//! `paper-matrix` — the paper's own experiment, embedded: for each of the
//! five organizations × {3D GSP, 4D MSP}, write the tensor as 32 strided
//! fragments into a fresh in-memory store, ask point-query batches and
//! small region reads, then consolidate. One pass over the ten cells is a
//! round; a run repeats rounds on fresh stores and reports medians.
//!
//! Point *i* goes to fragment *i* mod 32, so every fragment's bounding
//! box spans the domain and no read prunes: the organizations' own build
//! and lookup do the work.

use crate::common::{
    checked_read, rng, rounds_within, Args, Outcome, Phases, Query, ReadTally, SETUPS_EMBEDDED,
};
use crate::micro::{self, Sample, Work};
use crate::oracle::Oracle;
use crate::report::{
    geometric_mean, highest, lowest, median, median_us, peak_rss_mib, Report, ORGS,
};
use crate::trace::{DatasetCtx, DeviceSnapshot, SelfTimes, Tracer};
use artsparse_core::FormatKind;
use artsparse_patterns::{gsp, msp};
use artsparse_storage::{EngineConfig, StorageEngine};
use artsparse_tensor::{CoordBuffer, Region, Shape};
use std::sync::Arc;
use std::time::Instant;

const FRAGMENTS: usize = 32;
const BATCH_QUERIES: usize = 256;

struct Sizes {
    gsp_side: u64,
    msp_side: u64,
    batches: usize,
    regions: usize,
}

/// `read_region` costs O(cells × points) on COO and LINEAR, so regions
/// stay at or under 512 cells and the counts small.
fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            gsp_side: 40,
            msp_side: 12,
            batches: 1,
            regions: 1,
        }
    } else {
        Sizes {
            gsp_side: 256,
            msp_side: 64,
            batches: 4,
            regions: 2,
        }
    }
}

/// One generated tensor with its fragments, queries and model.
struct Tensor {
    shape: Shape,
    points: usize,
    fragments: Vec<(CoordBuffer, Vec<u8>)>,
    batches: Vec<CoordBuffer>,
    regions: Vec<Region>,
    oracle: Oracle,
    sample: Sample,
}

fn tensor(
    shape: Shape,
    coords: CoordBuffer,
    region_size: &[u64],
    dense: Option<Region>,
    sz: &Sizes,
    seed: u64,
    stream: u64,
) -> Tensor {
    let ndim = shape.ndim();
    let n = coords.len();
    let mut rand = rng(seed, stream);
    let mut oracle = Oracle::new(shape.dims());
    let mut fragments: Vec<(CoordBuffer, Vec<u8>)> = (0..FRAGMENTS)
        .map(|_| (CoordBuffer::new(ndim), Vec::new()))
        .collect();
    let mut sample_values = Vec::new();
    for (i, p) in coords.iter().enumerate() {
        let v = rand.next_f64();
        oracle.write(p, v);
        let (c, vals) = &mut fragments[i % FRAGMENTS];
        c.push(p).expect("same arity");
        vals.extend_from_slice(&v.to_le_bytes());
        if i < 4096 {
            sample_values.extend_from_slice(&v.to_le_bytes());
        }
    }
    // Half of each batch asks stored coordinates, half random ones
    // (nearly all absent at these densities).
    let batches = (0..sz.batches)
        .map(|_| {
            let mut q = CoordBuffer::new(ndim);
            for k in 0..BATCH_QUERIES {
                if k % 2 == 0 {
                    q.push(coords.point(rand.next_below(n as u64) as usize))
                        .expect("same arity");
                } else {
                    let c: Vec<u64> = shape.dims().iter().map(|&d| rand.next_below(d)).collect();
                    q.push(&c).expect("same arity");
                }
            }
            q
        })
        .collect();
    // Regions alternate between anywhere in the domain and, when the
    // pattern has one, inside its dense block, so some return rows.
    let regions = (0..sz.regions)
        .map(|r| {
            let lo: Vec<u64> = (0..ndim)
                .map(|d| match &dense {
                    Some(block) if r % 2 == 0 => {
                        block.lo()[d]
                            + rand
                                .next_below(block.sizes()[d].saturating_sub(region_size[d]).max(1))
                    }
                    _ => rand.next_below(shape.dim(d) - region_size[d] + 1),
                })
                .collect();
            Region::from_start_size(&lo, region_size).expect("region inside the shape")
        })
        .collect();
    let keep = n.min(4096);
    let sample = Sample {
        shape: shape.clone(),
        coords: CoordBuffer::from_flat(ndim, coords.as_flat()[..keep * ndim].to_vec())
            .expect("whole points"),
        values: sample_values,
    };
    Tensor {
        shape,
        points: n,
        fragments,
        batches,
        regions,
        oracle,
        sample,
    }
}

/// Generate both tensors. Returns them and the time inside the pattern
/// generators.
fn setup(args: &Args) -> (Vec<Tensor>, f64) {
    let sz = sizes(args.smoke);
    let t = Instant::now();
    let shape3 = Shape::cube(3, sz.gsp_side).expect("valid shape");
    let gsp_coords = gsp::generate(&shape3, 0.99, args.seed);
    let shape4 = Shape::cube(4, sz.msp_side).expect("valid shape");
    let msp_coords = msp::generate(&shape4, 0.999, 1.0, args.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let dense = msp::dense_region(&shape4);
    let small = args.smoke;
    let tensors = vec![
        tensor(
            shape3,
            gsp_coords,
            if small { &[4, 4, 4] } else { &[8, 8, 8] },
            None,
            &sz,
            args.seed,
            1,
        ),
        tensor(
            shape4,
            msp_coords,
            if small { &[2, 2, 2, 2] } else { &[4, 4, 5, 5] },
            Some(dense),
            &sz,
            args.seed,
            2,
        ),
    ];
    (tensors, generate_s)
}

/// What one cell (tensor × organization) measured in one round.
#[derive(Default)]
struct Cell {
    write_ns: Vec<u64>,
    get_ns: Vec<u64>,
    scan_ns: Vec<u64>,
    reads: ReadTally,
    consolidate_ns: u64,
    stored_bytes: u64,
    device: DeviceSnapshot,
}

fn run_cell(t: &Tensor, kind: FormatKind, tracer: &Arc<Tracer>, report: &mut Report) -> Cell {
    let ctx = DatasetCtx::new(Arc::clone(tracer));
    let engine = StorageEngine::open_with(
        ctx.backend(),
        kind,
        t.shape.clone(),
        8,
        EngineConfig::default(),
    )
    .expect("opening an empty in-memory store");
    let mut cell = Cell::default();
    for (coords, values) in &t.fragments {
        let (out, ns) = ctx.request("engine.write", || engine.write(coords, values));
        report.check(out.err().map(|e| format!("{kind} write failed: {e}")));
        cell.write_ns.push(ns);
    }
    let label = kind.name();
    for queries in &t.batches {
        let read = checked_read(
            &ctx,
            &engine,
            &t.oracle,
            Query::Points(queries),
            label,
            &mut cell.reads,
            report,
        );
        cell.get_ns.extend(read);
    }
    for region in &t.regions {
        let read = checked_read(
            &ctx,
            &engine,
            &t.oracle,
            Query::Region(region),
            label,
            &mut cell.reads,
            report,
        );
        cell.scan_ns.extend(read);
    }
    cell.stored_bytes = ctx.device_bytes().expect("in-memory listing");
    let (out, ns) = ctx.request("engine.consolidate", || engine.consolidate());
    let merged = out.as_ref().map(|r| r.n_points).unwrap_or(0);
    report.check((merged != t.points).then(|| {
        format!(
            "{kind} consolidate kept {merged} of {} points: {:?}",
            t.points,
            out.err()
        )
    }));
    cell.consolidate_ns = ns;
    cell.device = ctx.snapshot();
    // The consolidated store must still answer like the model.
    let first = Query::Points(&t.batches[0]);
    checked_read(
        &ctx,
        &engine,
        &t.oracle,
        first,
        label,
        &mut ReadTally::default(),
        report,
    );
    cell
}

pub fn run(args: &Args) -> Outcome {
    let tracer = Tracer::new();
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut generated = Vec::new();
    let mut tensors = Vec::new();
    for _ in 0..SETUPS_EMBEDDED {
        let t = Instant::now();
        let (fresh, generate_s) = setup(args);
        tensors = fresh;
        setups.push(t.elapsed().as_secs_f64());
        generated.push(generate_s);
    }

    // rounds[r][tensor][org]
    let mut rounds: Vec<Vec<Vec<Cell>>> = Vec::new();
    let mut one_round = |report: &mut Report| {
        let round = tensors
            .iter()
            .map(|t| {
                ORGS.iter()
                    .map(|(_, kind)| run_cell(t, *kind, &tracer, report))
                    .collect()
            })
            .collect();
        rounds.push(round);
    };
    let phases = Phases::of(args);
    let untraced_walls = rounds_within(phases.untraced, || one_round(&mut report));
    let mut traced_walls = Vec::new();
    if args.trace {
        tracer.set_enabled(true);
        traced_walls = rounds_within(phases.traced, || one_round(&mut report));
        tracer.set_enabled(false);
    }
    let spans = tracer.take();

    // Per cell, one value per round reduced by `pick`; across the ten
    // cells the geometric mean, so no organization's scale dominates.
    // End-to-end metrics pick the best round (see `report::best`),
    // per-layer metrics the median.
    let per_cell =
        |f: &dyn Fn(&Cell, &Tensor) -> f64, pick: &dyn Fn(&[f64]) -> f64| -> Vec<Vec<f64>> {
            (0..tensors.len())
                .map(|ti| {
                    (0..ORGS.len())
                        .map(|oi| {
                            pick(
                                &rounds
                                    .iter()
                                    .map(|r| f(&r[ti][oi], &tensors[ti]))
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect()
                })
                .collect()
        };
    let across_cells = |cells: &Vec<Vec<f64>>| {
        geometric_mean(&cells.iter().flatten().copied().collect::<Vec<f64>>())
    };
    let sum = |ns: &[u64]| ns.iter().sum::<u64>() as f64;
    let read_ns = |c: &Cell| sum(&c.get_ns) + sum(&c.scan_ns);
    let calls_per_round = (tensors.len()
        * ORGS.len()
        * (FRAGMENTS + tensors[0].batches.len() + tensors[0].regions.len() + 1))
        as f64;
    let round_call_ns = |round: &Vec<Vec<Cell>>| -> f64 {
        round
            .iter()
            .flatten()
            .map(|c| sum(&c.write_ns) + read_ns(c) + c.consolidate_ns as f64)
            .sum()
    };
    let calls = calls_per_round * rounds.len() as f64;

    report.set("setup_s", median(&setups));
    report.set(
        "write_points_per_s",
        across_cells(&per_cell(
            &|c, t| t.points as f64 / (sum(&c.write_ns) / 1e9),
            &highest,
        )),
    );
    report.set(
        "read_cells_per_s",
        across_cells(&per_cell(
            &|c, _| c.reads.cells as f64 / (read_ns(c) / 1e9),
            &highest,
        )),
    );
    report.set(
        "requests_per_s",
        highest(
            &rounds
                .iter()
                .map(|r| calls_per_round / (round_call_ns(r) / 1e9))
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "write_p50_us",
        across_cells(&per_cell(&|c, _| median_us(&c.write_ns), &lowest)),
    );
    report.set(
        "get_p50_us",
        across_cells(&per_cell(&|c, _| median_us(&c.get_ns), &lowest)),
    );
    report.set(
        "scan_p50_us",
        across_cells(&per_cell(&|c, _| median_us(&c.scan_ns), &lowest)),
    );
    report.set(
        "consolidate_points_per_s",
        across_cells(&per_cell(
            &|c, t| t.points as f64 / (c.consolidate_ns as f64 / 1e9),
            &highest,
        )),
    );
    report.set(
        "stored_bytes_per_point",
        across_cells(&per_cell(
            &|c, t| c.stored_bytes as f64 / t.points as f64,
            &median,
        )),
    );
    report.set("peak_rss_mib", peak_rss_mib());

    let mut ops = std::collections::BTreeMap::new();
    ops.insert("rounds".to_string(), rounds.len() as u64);
    ops.insert("engine_calls".to_string(), calls as u64);
    ops.insert(
        "points_per_round".to_string(),
        (tensors.iter().map(|t| t.points).sum::<usize>() * ORGS.len()) as u64,
    );

    if args.trace {
        let write_ns_pp = per_cell(&|c, t| sum(&c.write_ns) / t.points as f64, &median);
        let read_ns_pc = per_cell(&|c, _| read_ns(c) / c.reads.cells as f64, &median);
        let mut work = Work {
            timed_wall_ns: untraced_walls.iter().chain(&traced_walls).sum(),
            ..Work::default()
        };
        let mut reads = ReadTally::default();
        let mut device = DeviceSnapshot::default();
        for round in &rounds {
            for (ti, cells) in round.iter().enumerate() {
                for (oi, c) in cells.iter().enumerate() {
                    // Written once, rebuilt once by consolidation.
                    work.points_built[oi] += 2.0 * tensors[ti].points as f64;
                    work.points_enumerated[oi] += tensors[ti].points as f64;
                    work.fragment_queries[oi] += c.reads.fragment_queries as f64;
                    reads = reads.plus(c.reads);
                    device = device.plus(c.device);
                }
            }
        }
        work.device_bytes_written = device.bytes_written as f64;
        work.device_bytes_read = device.bytes_read as f64;
        for (oi, (org, _)) in ORGS.iter().enumerate() {
            let over_tensors = |cells: &Vec<Vec<f64>>| {
                cells.iter().map(|t| t[oi]).sum::<f64>() / cells.len() as f64
            };
            report.set(
                &format!("storage.engine.write_ns_per_point.{org}"),
                over_tensors(&write_ns_pp),
            );
            report.set(
                &format!("storage.engine.read_ns_per_cell.{org}"),
                over_tensors(&read_ns_pc),
            );
        }
        report.set("patterns.generate_s", median(&generated));
        report.set(
            "storage.engine.get_us",
            across_cells(&per_cell(&|c, _| median_us(&c.get_ns), &median)),
        );
        report.set(
            "storage.engine.scan_us",
            across_cells(&per_cell(&|c, _| median_us(&c.scan_ns), &median)),
        );
        report.set(
            "storage.engine.consolidate_ms",
            across_cells(&per_cell(&|c, _| c.consolidate_ns as f64 / 1e6, &median)),
        );
        report.set(
            "storage.engine.matched_per_scanned",
            reads.matched as f64 / reads.scanned.max(1) as f64,
        );
        report.set(
            "storage.engine.self_share",
            SelfTimes::of(&spans).self_share("engine."),
        );
        let record = |t: &Tensor| (t.shape.ndim() * 8 + 8) as f64;
        let user_bytes: f64 = tensors
            .iter()
            .map(|t| t.points as f64 * record(t))
            .sum::<f64>()
            * (ORGS.len() * rounds.len()) as f64;
        // Mixed record sizes: charge results at the smaller record.
        let result_bytes = reads.result_points as f64 * record(&tensors[0]);
        crate::common::report_device(
            &mut report,
            device,
            calls,
            work.timed_wall_ns,
            user_bytes,
            result_bytes,
        );
        report.set(
            "metrics.trace_overhead_share",
            (median(&traced_walls) - median(&untraced_walls)) / median(&untraced_walls),
        );
        // Micro-timings on the larger tensor's first points.
        micro::run(&tensors[1].sample, &work, &mut report);
    }
    Outcome { report, spans, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrong answer must not pass: poison one value of the model and
    /// the same store's correct answer counts as a failure.
    #[test]
    fn a_wrong_model_value_fails_the_run() {
        let args = Args {
            workload: "paper-matrix".into(),
            seed: 1,
            seconds: 0.1,
            trace: false,
            smoke: true,
        };
        let (mut tensors, _) = setup(&args);
        let tracer = Tracer::new();
        let mut clean = Report::default();
        run_cell(&tensors[0], FormatKind::GcsrPP, &tracer, &mut clean);
        assert!(clean.attempted > 0);
        assert_eq!(clean.failed, 0, "{:?}", clean.failures);

        let stored = tensors[0].batches[0].point(0).to_vec();
        let value = tensors[0]
            .oracle
            .get(&stored)
            .expect("even queries are stored points");
        tensors[0].oracle.write(&stored, value + 1.0);
        let mut poisoned = Report::default();
        run_cell(&tensors[0], FormatKind::GcsrPP, &tracer, &mut poisoned);
        assert!(poisoned.failed > 0, "a poisoned model value went unnoticed");
    }
}
