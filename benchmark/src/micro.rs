//! Layer micro-timings: the public functions of each layer, called
//! directly on a sample of the workload's own inputs.
//!
//! Each timing also gets an `est_share`: unit cost × the units the
//! workload pushed through that layer ÷ the workload's timed wall. It is
//! the ceiling on what optimising that layer alone can return there.

use crate::report::{median, Report, ORGS};
use artsparse_metrics::OpCounter;
use artsparse_server::protocol::{parse_point, parse_request, render_point};
use artsparse_server::quota::{Quota, QuotaBook};
use artsparse_storage::fragment::{decode_fragment, decode_meta, encode_fragment};
use artsparse_storage::wal::{decode_record, encode_record};
use artsparse_storage::{
    crc32c, Codec, DecodedFragment, FragmentCache, FragmentCatalog, MemBackend, StorageBackend,
    WriteBuffer,
};
use artsparse_tensor::sort::sort_by_linear;
use artsparse_tensor::{CoordBuffer, Region, Shape};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Points per ingest batch, as every workload batches them.
pub const BATCH: usize = 64;

/// A slice of the workload's generated input.
pub struct Sample {
    pub shape: Shape,
    pub coords: CoordBuffer,
    /// One `f64` record per point.
    pub values: Vec<u8>,
}

/// Units of work the workload pushed through each layer during its timed
/// window, indexed like [`ORGS`] where per organization.
#[derive(Default)]
pub struct Work {
    pub timed_wall_ns: f64,
    /// Points organized into a fragment (writes, flushes, consolidations).
    pub points_built: [f64; 5],
    /// Query coordinates × fragments they were looked up in.
    pub fragment_queries: [f64; 5],
    /// Points enumerated back out of a fragment by consolidation.
    pub points_enumerated: [f64; 5],
    /// Points acked through the WAL and the write buffer.
    pub points_ingested: f64,
    /// Raw index bytes that went through the delta-varint codec.
    pub codec_bytes: f64,
    pub device_bytes_written: f64,
    pub device_bytes_read: f64,
    pub wire_requests: f64,
    pub wire_write_requests: f64,
    pub wire_points_in: f64,
    pub wire_points_out: f64,
}

/// Nanoseconds per call of `f`: median of 5 batches of at least 1 ms.
fn time_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    let once = start.elapsed().as_nanos().max(1) as f64;
    let iters = (1e6 / once).ceil().clamp(1.0, 1e6) as u64;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

struct Timings<'a> {
    report: &'a mut Report,
    wall_ns: f64,
}

impl Timings<'_> {
    /// Record `value` under `name`; `unit_ns` is the cost of one unit in
    /// nanoseconds and `units` how many the workload consumed.
    fn put(&mut self, name: &str, value: f64, unit_ns: f64, units: f64) {
        self.report.set(name, value);
        if self.wall_ns > 0.0 {
            let share = unit_ns * units / self.wall_ns;
            self.report.note(name, format!("est_share={share:.4}"));
        }
    }
}

pub fn run(sample: &Sample, work: &Work, report: &mut Report) {
    let mut t = Timings {
        report,
        wall_ns: work.timed_wall_ns,
    };
    let shape = &sample.shape;
    let coords = &sample.coords;
    let n = coords.len();
    assert!(
        n >= BATCH,
        "micro-timings need at least one batch of points"
    );
    let nf = n as f64;
    let ndim = shape.ndim();
    let counter = OpCounter::new();
    let points_written: f64 = work.points_built.iter().sum();

    let ns = time_ns(|| coords.linearize_all(shape).expect("sample fits its shape"));
    t.put(
        "tensor.linearize_ns_per_point",
        ns / nf,
        ns / nf,
        points_written,
    );
    let ns = time_ns(|| sort_by_linear(coords, shape));
    t.put("tensor.sort_ns_per_point", ns / nf, ns / nf, points_written);

    let mut queries = CoordBuffer::new(ndim);
    for i in 0..256 {
        queries.push(coords.point(i * 31 % n)).expect("same arity");
    }
    let mut gcsr_index = Vec::new();
    for (i, (org, kind)) in ORGS.iter().enumerate() {
        let format = kind.create();
        let ns = time_ns(|| format.build(coords, shape, &counter).expect("build"));
        let per_point = ns / nf;
        t.put(
            &format!("core.build_ns_per_point.{org}"),
            per_point,
            per_point,
            work.points_built[i],
        );
        let built = format.build(coords, shape, &counter).expect("build");
        let ns = time_ns(|| format.read(&built.index, &queries, &counter).expect("read"));
        let per_query = ns / queries.len() as f64;
        t.put(
            &format!("core.read_ns_per_query.{org}"),
            per_query,
            per_query,
            work.fragment_queries[i],
        );
        let ns = time_ns(|| format.enumerate(&built.index, &counter).expect("enumerate"));
        let per_point = ns / nf;
        t.put(
            &format!("core.enumerate_ns_per_point.{org}"),
            per_point,
            per_point,
            work.points_enumerated[i],
        );
        t.report.set(
            &format!("core.index_bytes_per_point.{org}"),
            built.index.len() as f64 / nf,
        );
        if *org == "gcsr" {
            gcsr_index = built.index;
        }
    }

    // WAL and write buffer, one ingest batch at a time.
    let flat = &coords.as_flat()[..BATCH * ndim];
    let values = &sample.values[..BATCH * 8];
    let ns = time_ns(|| encode_record(ndim, 8, flat, values).expect("encode"));
    t.put(
        "storage.wal.encode_ns_per_point",
        ns / BATCH as f64,
        ns / BATCH as f64,
        work.points_ingested,
    );
    let record = encode_record(ndim, 8, flat, values).expect("encode");
    let ns = time_ns(|| decode_record("wal", &record).expect("decode"));
    t.report
        .set("storage.wal.decode_ns_per_point", ns / BATCH as f64);
    t.report.set(
        "storage.wal.bytes_per_point",
        record.len() as f64 / BATCH as f64,
    );

    let batches = (4096 / BATCH).min(n / BATCH);
    let buffered = batches * BATCH;
    let addrs = coords.linearize_all(shape).expect("sample fits its shape");
    let fill = |buffer: &WriteBuffer| {
        for b in 0..batches {
            let range = b * BATCH..(b + 1) * BATCH;
            buffer.append(
                addrs[range.clone()].to_vec(),
                coords.as_flat()[range.start * ndim..range.end * ndim].to_vec(),
                sample.values[range.start * 8..range.end * 8].to_vec(),
                None,
            );
        }
    };
    let ns = time_ns(|| fill(&WriteBuffer::new())) / buffered as f64;
    t.put(
        "storage.buffer.append_ns_per_point",
        ns,
        ns,
        work.points_ingested,
    );
    // snapshot() caches its result and drain() empties the buffer, so
    // each sample needs a freshly filled buffer; time it by hand.
    let (mut snapshot_ns, mut drain_ns) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let buffer = WriteBuffer::new();
        fill(&buffer);
        let start = Instant::now();
        let snap = black_box(buffer.snapshot());
        snapshot_ns.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        black_box(buffer.drain(snap.raw_points));
        drain_ns.push(start.elapsed().as_nanos() as f64);
    }
    t.report
        .set("storage.buffer.snapshot_us", median(&snapshot_ns) / 1e3);
    t.report
        .set("storage.buffer.drain_us", median(&drain_ns) / 1e3);

    // Codec, fragment framing and checksum, on the sample's GCSR++ index.
    let codec = Codec::DeltaVarint;
    let raw = gcsr_index.len() as f64;
    let ns = time_ns(|| codec.compress(&gcsr_index)) / raw;
    t.put(
        "storage.codec.compress_ns_per_byte.delta-varint",
        ns,
        ns,
        work.codec_bytes,
    );
    let packed = codec.compress(&gcsr_index);
    let ns = time_ns(|| {
        codec
            .decompress(&packed, gcsr_index.len())
            .expect("decompress")
    }) / raw;
    t.report
        .set("storage.codec.decompress_ns_per_byte.delta-varint", ns);
    t.report.set(
        "storage.codec.ratio.delta-varint",
        raw / packed.len() as f64,
    );

    let bbox = coords.bounding_box();
    let kind = artsparse_core::FormatKind::GcsrPP;
    let encode = |c: Codec| {
        encode_fragment(
            kind,
            shape,
            n as u64,
            8,
            bbox.as_ref(),
            &gcsr_index,
            &sample.values[..n * 8],
            c,
            Codec::None,
        )
    };
    let blob = encode(Codec::None);
    let len = blob.len() as f64;
    let ns = time_ns(|| encode(Codec::None)) / len;
    t.put(
        "storage.fragment.encode_ns_per_byte",
        ns,
        ns,
        work.device_bytes_written,
    );
    let ns = time_ns(|| decode_fragment("frag", &blob).expect("decode")) / len;
    t.put(
        "storage.fragment.decode_ns_per_byte",
        ns,
        ns,
        work.device_bytes_read,
    );
    t.report.set(
        "storage.fragment.decode_meta_ns",
        time_ns(|| decode_meta("frag", &blob).expect("meta")),
    );
    let ns = time_ns(|| crc32c(&blob)) / len;
    t.put(
        "storage.integrity.crc32c_ns_per_byte",
        ns,
        ns,
        work.device_bytes_written + work.device_bytes_read,
    );

    // Cache lookup and catalog planning over 32 fragments of the sample.
    let (meta, index, vals) = decode_fragment("frag", &blob).expect("decode");
    let cache = FragmentCache::new(1 << 30);
    cache.insert(
        "frag",
        Arc::new(DecodedFragment {
            meta,
            index,
            values: vals,
        }),
    );
    t.report
        .set("storage.cache.get_ns", time_ns(|| cache.get("frag")));

    let device = MemBackend::new();
    let fragments = 32;
    for f in 0..fragments {
        device
            .put(&format!("frag-{f:08}-00000001.asf"), &blob)
            .expect("mem put");
    }
    let load = || FragmentCatalog::load(&device, ndim, |_| true).expect("catalog load");
    t.report.set("storage.catalog.load_ms", time_ns(load) / 1e6);
    let catalog = load();
    let whole = Region::full(shape);
    let ns = time_ns(|| catalog.plan(&whole)) / fragments as f64;
    t.report.set("storage.catalog.plan_ns_per_fragment", ns);

    // Wire text and quota, on one point of the sample.
    let point = coords.point(0);
    let value = f64::from_le_bytes(sample.values[..8].try_into().expect("8 bytes"));
    let line = render_point(point, value);
    let ns = time_ns(|| parse_request("INGEST d 64"));
    t.put(
        "server.protocol.parse_request_ns",
        ns,
        ns,
        work.wire_requests,
    );
    let ns = time_ns(|| parse_point(&line).expect("own rendering parses"));
    t.put(
        "server.protocol.parse_point_ns",
        ns,
        ns,
        work.wire_points_in,
    );
    let ns = time_ns(|| render_point(point, value));
    t.put(
        "server.protocol.render_point_ns",
        ns,
        ns,
        work.wire_points_out,
    );
    let book = QuotaBook::new(Quota::unlimited());
    let ns = time_ns(|| book.charge("tenant", BATCH as u64, (BATCH * 8) as u64));
    t.put("server.quota.charge_ns", ns, ns, work.wire_write_requests);
}
