//! `serve-ingest` and `serve-query` — an embedded `artsparse-server`
//! (2 shards, scheduler on, production defaults) driven over loopback
//! TCP by one closed-loop connection with its own tenant and dataset.
//! Connections are lock-step and callers wait for their reply, so the
//! load is closed loop: a slower server is offered fewer requests, and
//! `requests_per_s` is 1 ÷ mean latency.
//!
//! * `serve-ingest`: 64-point `INGEST`s into 256x256, a checked `GET`
//!   every 16th request and a small `SCAN` every 64th. Fixed per-request
//!   cost dominates; the scheduler's consolidations land inside the
//!   window.
//! * `serve-query`: 16 384 preloaded points in 512x512 in memory, then
//!   70 % `GET`, 20 % `SCAN` of a 16x16 box, 10 % `INGEST`. The same
//!   layers used the other way round.
//!
//! The traced run replays each connection's identical operation sequence
//! against an embedded engine opened the way `crates/server/src/shard.rs`
//! opens one; wire latency minus replayed engine latency is what the
//! session, the shard hop and the socket cost.

use crate::common::{checked_read, rng, Args, Outcome, Phases, Query, ReadTally, SETUPS_SERVED};
use crate::micro::{self, Sample, Work, BATCH};
use crate::oracle::Oracle;
use crate::report::{
    highest, lower_quartile, median, median_us, peak_rss_mib, percentile_us, upper_quartile, Report,
};
use crate::trace::{DatasetCtx, SelfTimes, TimedBackend, Tracer};
use artsparse_core::FormatKind;
use artsparse_patterns::rng::SplitMix64;
use artsparse_server::{BackendFactory, Server, ServerConfig, ServerHandle};
use artsparse_storage::{
    EngineConfig, IngestScheduler, SchedulerConfig, StorageEngine, StorageError,
};
use artsparse_tensor::{CoordBuffer, Region, Shape};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One connection. A request already keeps a client, a session and a
/// shard thread busy in turn, a `SCAN` fans out over the engine's two
/// read threads and the scheduler merges beside them: that fills the
/// host's 2 cores. With a second connection a `GET` waited for the other
/// one's `SCAN` to leave a core and the same code spread 10-25 % from run
/// to run (`GET` and `INGEST` means and medians); with one it spreads
/// 1-5 %.
const CONNECTIONS: usize = 1;
/// Slices the timed window is cut into, and the fewest samples of a kind
/// a slice needs to report that kind's median.
const SLICES: u32 = 10;
const SLICE_SAMPLES: usize = 16;
/// Coordinates of recent ingests a `GET` may ask for again and, on
/// `serve-query`, an `INGEST` rewrites: as many as the preload holds.
const RECENT: usize = 16384;

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Ingest,
    Query,
}

struct Plan {
    mix: Mix,
    side: u64,
    scan_side: u64,
    preload_batches: usize,
    warmup_requests: usize,
    verify_gets: usize,
    consolidate_cycles: usize,
}

fn plan(workload: &str, smoke: bool) -> Plan {
    let mix = if workload == "serve-ingest" {
        Mix::Ingest
    } else {
        Mix::Query
    };
    match (mix, smoke) {
        (Mix::Ingest, false) => Plan {
            mix,
            side: 256,
            scan_side: 4,
            preload_batches: 0,
            warmup_requests: 2000,
            verify_gets: 64,
            consolidate_cycles: 16,
        },
        (Mix::Ingest, true) => Plan {
            mix,
            side: 64,
            scan_side: 4,
            preload_batches: 0,
            warmup_requests: 32,
            verify_gets: 8,
            consolidate_cycles: 2,
        },
        (Mix::Query, false) => Plan {
            mix,
            side: 512,
            scan_side: 16,
            preload_batches: 256,
            warmup_requests: 100,
            verify_gets: 64,
            consolidate_cycles: 16,
        },
        (Mix::Query, true) => Plan {
            mix,
            side: 64,
            scan_side: 4,
            preload_batches: 8,
            warmup_requests: 16,
            verify_gets: 8,
            consolidate_cycles: 2,
        },
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Ingest,
    Get,
    Scan,
}

enum Op {
    Ingest(Vec<([u64; 2], f64)>),
    Get([u64; 2]),
    Scan([u64; 2], [u64; 2]),
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Ingest(_) => Kind::Ingest,
            Op::Get(_) => Kind::Get,
            Op::Scan(..) => Kind::Scan,
        }
    }
}

/// One connection's deterministic operation sequence.
struct OpGen {
    rand: SplitMix64,
    side: u64,
    scan_side: u64,
    mix: Mix,
    issued: u64,
    recent: Vec<[u64; 2]>,
}

impl OpGen {
    fn new(plan: &Plan, seed: u64, connection: usize) -> OpGen {
        OpGen {
            rand: rng(seed, 10 + connection as u64),
            side: plan.side,
            scan_side: plan.scan_side,
            mix: plan.mix,
            issued: 0,
            recent: Vec::new(),
        }
    }

    fn cell(&mut self) -> [u64; 2] {
        [
            self.rand.next_below(self.side),
            self.rand.next_below(self.side),
        ]
    }

    /// A batch of fresh random cells, or (`rewrite`) of cells ingested
    /// before, which keeps the live point count where it is.
    fn ingest(&mut self, rewrite: bool) -> Op {
        let points: Vec<([u64; 2], f64)> = (0..BATCH)
            .map(|_| {
                let cell = if rewrite {
                    self.recent[self.rand.next_below(self.recent.len() as u64) as usize]
                } else {
                    self.cell()
                };
                (cell, self.rand.next_f64())
            })
            .collect();
        if rewrite {
            return Op::Ingest(points);
        }
        for (c, _) in &points {
            if self.recent.len() < RECENT {
                self.recent.push(*c);
            } else {
                let slot = self.rand.next_below(RECENT as u64) as usize;
                self.recent[slot] = *c;
            }
        }
        Op::Ingest(points)
    }

    fn get(&mut self, stored: bool) -> Op {
        if stored && !self.recent.is_empty() {
            let slot = self.rand.next_below(self.recent.len() as u64) as usize;
            Op::Get(self.recent[slot])
        } else {
            Op::Get(self.cell())
        }
    }

    fn scan(&mut self) -> Op {
        let span = self.side - self.scan_side + 1;
        let lo = [self.rand.next_below(span), self.rand.next_below(span)];
        Op::Scan(lo, [lo[0] + self.scan_side - 1, lo[1] + self.scan_side - 1])
    }

    fn next(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.mix {
            Mix::Ingest if i % 64 == 31 => self.scan(),
            Mix::Ingest if i % 16 == 15 => self.get(true),
            Mix::Ingest => self.ingest(false),
            Mix::Query => match self.rand.next_below(10) {
                0..=6 => {
                    let stored = self.rand.next_below(2) == 0;
                    self.get(stored)
                }
                7..=8 => self.scan(),
                // Rewrites: the dataset stays at its preloaded size, so
                // the window is one steady state.
                _ => self.ingest(true),
            },
        }
    }
}

/// The benchmark's `BackendFactory`: every dataset's device wrapped in
/// the counting/timing backend, reachable from outside by its key.
#[derive(Clone)]
struct Factory {
    tracer: Arc<Tracer>,
    datasets: Arc<Mutex<HashMap<String, Arc<DatasetCtx>>>>,
}

impl Factory {
    fn ctx(&self, key: &str) -> Arc<DatasetCtx> {
        Arc::clone(&self.datasets.lock().expect("dataset map lock")[key])
    }
}

impl BackendFactory for Factory {
    type Backend = TimedBackend;
    fn open(&self, key: &str) -> Result<TimedBackend, StorageError> {
        let ctx = DatasetCtx::new(Arc::clone(&self.tracer));
        self.datasets
            .lock()
            .expect("dataset map lock")
            .insert(key.to_string(), Arc::clone(&ctx));
        Ok(ctx.backend())
    }
}

/// One lock-step protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    bytes_out: u64,
    bytes_in: u64,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            bytes_out: 0,
            bytes_in: 0,
        };
        client.read_line()?; // greeting
        Ok(client)
    }

    fn send(&mut self, request: &str) -> std::io::Result<()> {
        self.bytes_out += request.len() as u64;
        self.writer.write_all(request.as_bytes())
    }

    fn read_line(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.bytes_in += self.line.len() as u64;
        Ok(self.line.trim_end())
    }

    /// Send a one-line command and return its status line.
    fn command(&mut self, request: &str) -> std::io::Result<String> {
        self.send(request)?;
        Ok(self.read_line()?.to_string())
    }
}

/// Count `reply` as one checked operation that must have answered `OK`.
fn expect_ok(report: &mut Report, command: &str, reply: &str) {
    report.check((!reply.starts_with("OK")).then(|| format!("{command} answered {reply:?}")));
}

/// `key=value` out of a status or stats line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

/// One connection with everything it needs to issue and check requests.
struct Conn {
    client: Client,
    ops: OpGen,
    oracle: Oracle,
    ctx: Arc<DatasetCtx>,
    /// Rows returned to this client (found GETs and SCAN rows).
    points_out: u64,
}

/// One timed request: what it was, when it began, how long it took.
struct Sample1 {
    kind: Kind,
    began: Instant,
    ns: u64,
}

impl Conn {
    /// Issue `op` over the wire and check the reply against the model.
    /// Returns the request's latency, send to last reply byte.
    fn issue(&mut self, op: &Op, report: &mut Report) -> std::io::Result<u64> {
        let Conn {
            client,
            oracle,
            ctx,
            points_out,
            ..
        } = self;
        match op {
            Op::Ingest(points) => {
                let mut text = format!("INGEST d {}\n", points.len());
                for (c, v) in points {
                    text.push_str(&format!("{} {} {v}\n", c[0], c[1]));
                }
                let (reply, ns) = ctx.request("wire.ingest", || client.command(&text));
                let reply = reply?;
                let acked = field(&reply, "acked").and_then(|a| a.parse::<usize>().ok());
                report.check(
                    (!reply.starts_with("OK") || acked != Some(points.len()))
                        .then(|| format!("INGEST answered {reply:?}")),
                );
                for (c, v) in points {
                    oracle.write(c, *v);
                }
                Ok(ns)
            }
            Op::Get(c) => {
                let text = format!("GET d {} {}\n", c[0], c[1]);
                let (reply, ns) = ctx.request("wire.get", || client.command(&text));
                let reply = reply?;
                let got = match field(&reply, "found") {
                    Some("true") => field(&reply, "value")
                        .and_then(|v| v.parse::<f64>().ok())
                        .map(Some),
                    Some("false") => Some(None),
                    _ => None,
                };
                match got {
                    Some(answer) => {
                        *points_out += answer.is_some() as u64;
                        report.check(oracle.check_get(c, answer));
                    }
                    None => report.check(Some(format!("GET answered {reply:?}"))),
                }
                Ok(ns)
            }
            Op::Scan(lo, hi) => {
                let text = format!("SCAN d {}:{} {}:{}\n", lo[0], hi[0], lo[1], hi[1]);
                let mut rows = Vec::new();
                let (status, ns) = ctx.request("wire.scan", || -> std::io::Result<String> {
                    let status = client.command(&text)?;
                    let n = field(&status, "points")
                        .and_then(|p| p.parse::<usize>().ok())
                        .unwrap_or(0);
                    for _ in 0..n {
                        rows.push(client.read_line()?.to_string());
                    }
                    Ok(status)
                });
                let status = status?;
                let parsed: Option<Vec<(u64, f64)>> = rows
                    .iter()
                    .map(|row| {
                        let mut t = row.split_whitespace();
                        let c = [t.next()?.parse().ok()?, t.next()?.parse().ok()?];
                        Some((oracle.address(&c), t.next()?.parse().ok()?))
                    })
                    .collect();
                *points_out += rows.len() as u64;
                match parsed {
                    Some(rows)
                        if status.starts_with("OK")
                            && field(&status, "truncated") == Some("false") =>
                    {
                        report.check(oracle.check_scan(lo, hi, rows))
                    }
                    _ => report.check(Some(format!("SCAN answered {status:?}"))),
                }
                Ok(ns)
            }
        }
    }

    /// Closed loop until `until`.
    fn drive(&mut self, until: Instant, report: &mut Report) -> std::io::Result<Vec<Sample1>> {
        let mut samples = Vec::new();
        loop {
            let began = Instant::now();
            if began >= until {
                return Ok(samples);
            }
            let op = self.ops.next();
            let ns = self.issue(&op, report)?;
            samples.push(Sample1 {
                kind: op.kind(),
                began,
                ns,
            });
        }
    }
}

/// A running server with its connections, set up and warmed.
struct Deployment {
    handle: ServerHandle,
    conns: Vec<Conn>,
}

fn deploy(
    args: &Args,
    plan: &Plan,
    tracer: &Arc<Tracer>,
    report: &mut Report,
) -> std::io::Result<Deployment> {
    let factory = Factory {
        tracer: Arc::clone(tracer),
        datasets: Arc::default(),
    };
    // As `artsparse-server` starts it: 2 shards, scheduler on.
    let config = ServerConfig {
        shards: 2,
        tcp: Some("127.0.0.1:0".into()),
        scheduler: Some(SchedulerConfig::default()),
        ..ServerConfig::default()
    };
    let handle =
        Server::start(config, factory.clone()).map_err(|e| std::io::Error::other(e.to_string()))?;
    let addr = handle.tcp_addr().expect("TCP listener was configured");
    let mut conns = Vec::new();
    for (c, tenant) in TENANTS.into_iter().enumerate() {
        let mut client = Client::connect(addr)?;
        let hello = client.command(&format!("HELLO {tenant}\n"))?;
        let created = client.command(&format!("CREATE d {0}x{0}\n", plan.side))?;
        if !hello.starts_with("OK") || !created.starts_with("OK") {
            return Err(std::io::Error::other(format!(
                "session setup answered {hello:?} / {created:?}"
            )));
        }
        conns.push(Conn {
            client,
            ops: OpGen::new(plan, args.seed, c),
            oracle: Oracle::new(&[plan.side, plan.side]),
            ctx: factory.ctx(&format!("{tenant}/d")),
            points_out: 0,
        });
    }
    for conn in &mut conns {
        for _ in 0..plan.preload_batches {
            let op = conn.ops.ingest(false);
            conn.issue(&op, report)?;
        }
        if plan.preload_batches > 0 {
            let flushed = conn.client.command("FLUSH d\n")?;
            expect_ok(report, "FLUSH", &flushed);
        }
    }
    // Warm-up slice, every connection at once as in the timed window.
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || -> std::io::Result<Report> {
                    let mut local = Report::default();
                    for _ in 0..plan.warmup_requests {
                        let op = conn.ops.next();
                        conn.issue(&op, &mut local)?;
                    }
                    Ok(local)
                })
            })
            .collect();
        for h in handles {
            report.absorb(h.join().expect("warm-up thread")?);
        }
        Ok::<(), std::io::Error>(())
    })?;
    Ok(Deployment { handle, conns })
}

/// One tenant per connection. With more than one, pick names whose
/// `tenant/d` keys hash (FNV-1a, as the server does) onto different
/// shards; `finish` checks that they do.
const TENANTS: [&str; CONNECTIONS] = ["t0"];

/// What closing a deployment measured.
struct Closing {
    consolidate_ns: Vec<u64>,
    /// Live points ÷ time of each timed `CONSOLIDATE`; the best is reported.
    consolidate_pps: Vec<f64>,
    live_points: u64,
    device_bytes: u64,
}

/// Fresh batches ingested before each timed `CONSOLIDATE`, so that every
/// one merges the big consolidated fragment with one small new one.
const CYCLE_BATCHES: usize = 8;

/// After the timed window: `cycles` rounds of ingest + FLUSH + timed
/// CONSOLIDATE (a single explicit consolidation races the scheduler's
/// own and varies two-fold), check the store against the model once
/// more, add up what the device holds, stop the server.
fn finish(
    mut d: Deployment,
    plan: &Plan,
    cycles: usize,
    report: &mut Report,
) -> std::io::Result<Closing> {
    let mut closing = Closing {
        consolidate_ns: Vec::new(),
        consolidate_pps: Vec::new(),
        live_points: 0,
        device_bytes: 0,
    };
    let mut shards = Vec::new();
    for conn in d.conns.iter_mut() {
        for _ in 0..cycles {
            for _ in 0..CYCLE_BATCHES {
                let op = conn.ops.ingest(false);
                conn.issue(&op, report)?;
            }
            let flushed = conn.client.command("FLUSH d\n")?;
            expect_ok(report, "FLUSH", &flushed);
            let t = Instant::now();
            let merged = conn.client.command("CONSOLIDATE d\n")?;
            let ns = t.elapsed().as_nanos() as u64;
            expect_ok(report, "CONSOLIDATE", &merged);
            // The scheduler may have merged first; then this one found a
            // single fragment, did nothing, and its time means nothing.
            if field(&merged, "merged")
                .and_then(|m| m.parse::<usize>().ok())
                .is_some_and(|m| m >= 2)
            {
                closing.consolidate_ns.push(ns);
                closing
                    .consolidate_pps
                    .push(conn.oracle.len() as f64 / (ns as f64 / 1e9));
            }
        }
        let live = conn.oracle.len() as u64;
        closing.live_points += live;
        closing.device_bytes += conn
            .ctx
            .device_bytes()
            .map_err(|e| std::io::Error::other(e.to_string()))?;

        for k in 0..plan.verify_gets {
            let op = conn.ops.get(k % 2 == 0);
            conn.issue(&op, report)?;
        }
        let status = conn.client.command("STATS d\n")?;
        let lines = field(&status, "lines")
            .and_then(|l| l.parse::<usize>().ok())
            .unwrap_or(0);
        for _ in 0..lines {
            let line = conn.client.read_line()?.to_string();
            if let Some(shard) = field(&line, "shard") {
                shards.push(shard.to_string());
                let points = field(&line, "points").and_then(|p| p.parse::<u64>().ok());
                report.check(
                    (points != Some(live))
                        .then(|| format!("STATS answered {line:?}, model has {live} points")),
                );
            }
        }
        let bye = conn.client.command("QUIT\n")?;
        expect_ok(report, "QUIT", &bye);
    }
    shards.dedup();
    report.check(
        (shards.len() != CONNECTIONS).then(|| format!("connections share a shard: {shards:?}")),
    );
    drop(d.conns);
    let drained = d.handle.shutdown();
    report.check(
        (drained.errors > 0).then(|| format!("{} dataset(s) failed to drain", drained.errors)),
    );
    Ok(closing)
}

/// Engine-call latencies of a replayed connection, by kind.
#[derive(Default)]
struct Replay {
    ns: HashMap<Kind, Vec<u64>>,
    flushing_ingest_ns: Vec<u64>,
    reads: ReadTally,
    requests: u64,
}

/// Replay one connection's sequence (preload, warm-up, then the timed
/// mix at the offsets in `schedule`) against an engine opened as
/// `shard.rs` opens one.
fn replay(
    plan: &Plan,
    seed: u64,
    connection: usize,
    tracer: &Arc<Tracer>,
    schedule: &[Duration],
    report: &mut Report,
) -> Replay {
    let ctx = DatasetCtx::new(Arc::clone(tracer));
    let shape = Shape::new(vec![plan.side, plan.side]).expect("valid shape");
    let engine = Arc::new(
        StorageEngine::open_with(
            ctx.backend(),
            FormatKind::Coo,
            shape,
            8,
            EngineConfig::default(),
        )
        .expect("opening an empty store"),
    );
    let mut scheduler = IngestScheduler::spawn(Arc::clone(&engine), SchedulerConfig::default());
    let mut ops = OpGen::new(plan, seed, connection);
    let mut oracle = Oracle::new(&[plan.side, plan.side]);
    let mut out = Replay::default();

    let mut apply = |op: &Op, timed: bool, out: &mut Replay, report: &mut Report| match op {
        Op::Ingest(points) => {
            let flat: Vec<u64> = points.iter().flat_map(|(c, _)| *c).collect();
            let coords = CoordBuffer::from_flat(2, flat).expect("whole points");
            let values: Vec<f64> = points.iter().map(|(_, v)| *v).collect();
            let before = engine.buffer_stats().points;
            let (res, ns) = ctx.request("engine.ingest", || {
                engine.ingest_points::<f64>(&coords, &values)
            });
            report.check(res.err().map(|e| format!("replayed ingest failed: {e}")));
            for (c, v) in points {
                oracle.write(c, *v);
            }
            if timed {
                out.ns.entry(Kind::Ingest).or_default().push(ns);
                if engine.buffer_stats().points < before + points.len() {
                    out.flushing_ingest_ns.push(ns);
                }
            }
        }
        Op::Get(c) => {
            let mut q = CoordBuffer::new(2);
            q.push(c).expect("same arity");
            let mut tally = ReadTally::default();
            let read = checked_read(
                &ctx,
                &engine,
                &oracle,
                Query::Points(&q),
                "replayed point",
                &mut tally,
                report,
            );
            if let (true, Some(ns)) = (timed, read) {
                out.ns.entry(Kind::Get).or_default().push(ns);
                out.reads = out.reads.plus(tally);
            }
        }
        Op::Scan(lo, hi) => {
            let region = Region::from_corners(lo, hi).expect("lo <= hi");
            let mut tally = ReadTally::default();
            let read = checked_read(
                &ctx,
                &engine,
                &oracle,
                Query::Region(&region),
                "replayed region",
                &mut tally,
                report,
            );
            if let (true, Some(ns)) = (timed, read) {
                out.ns.entry(Kind::Scan).or_default().push(ns);
                out.reads = out.reads.plus(tally);
            }
        }
    };
    for _ in 0..plan.preload_batches {
        let op = ops.ingest(false);
        apply(&op, false, &mut out, report);
    }
    if plan.preload_batches > 0 {
        report.check(
            engine
                .flush()
                .err()
                .map(|e| format!("replayed flush failed: {e}")),
        );
    }
    for _ in 0..plan.warmup_requests {
        let op = ops.next();
        apply(&op, false, &mut out, report);
    }
    // Each request starts when its wire twin did, so the store sees the
    // same arrivals between the scheduler's ticks: replayed flat out, the
    // engine ingests faster than its scheduler merges and reads a more
    // fragmented store than the server ever did.
    let began = Instant::now();
    for &offset in schedule {
        std::thread::sleep((began + offset).saturating_duration_since(Instant::now()));
        let op = ops.next();
        apply(&op, true, &mut out, report);
        out.requests += 1;
    }
    scheduler.shutdown();
    report.check(
        engine
            .shutdown()
            .err()
            .map(|e| format!("replayed shutdown failed: {e}")),
    );
    out
}

/// The first ingested points of connection 0, for the micro-timings.
fn sample(plan: &Plan, seed: u64) -> Sample {
    let mut ops = OpGen::new(plan, seed, 0);
    let mut coords = CoordBuffer::new(2);
    let mut values = Vec::new();
    while coords.len() < 4096 {
        if let Op::Ingest(points) = ops.ingest(false) {
            for (c, v) in points {
                coords.push(&c).expect("same arity");
                values.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    Sample {
        shape: Shape::new(vec![plan.side, plan.side]).expect("valid shape"),
        coords,
        values,
    }
}

pub fn run(args: &Args) -> Outcome {
    let plan = plan(&args.workload, args.smoke);
    let tracer = Tracer::new();
    let mut report = Report::default();

    // Set up several times; all but the last deployment are closed again.
    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUPS_SERVED {
        if let Some(previous) = deployment.take() {
            finish(previous, &plan, 1, &mut report).expect("closing a set-up deployment");
        }
        let t = Instant::now();
        deployment = Some(deploy(args, &plan, &tracer, &mut report).expect("server set-up"));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut deployment = deployment.expect("at least one set-up");

    // The timed window: every connection drives its closed loop until
    // the deadline. A traced run turns spans on part-way through.
    let phases = Phases::of(args);
    let start = Instant::now();
    let traced_from = start + phases.untraced;
    let until = traced_from + phases.traced;
    let before: Vec<_> = deployment
        .conns
        .iter()
        .map(|c| {
            (
                c.ctx.snapshot(),
                c.client.bytes_out,
                c.client.bytes_in,
                c.points_out,
            )
        })
        .collect();
    let mut per_conn: Vec<Vec<Sample1>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = deployment
            .conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    let mut local = Report::default();
                    let samples = conn.drive(until, &mut local);
                    (samples, local)
                })
            })
            .collect();
        if args.trace {
            std::thread::sleep(traced_from.saturating_duration_since(Instant::now()));
            tracer.set_enabled(true);
        }
        for h in handles {
            let (samples, local) = h.join().expect("connection thread");
            report.absorb(local);
            per_conn.push(samples.expect("connection I/O"));
        }
    });
    tracer.set_enabled(false);
    let wall_ns = start.elapsed().as_nanos() as f64;
    let mut device = crate::trace::DeviceSnapshot::default();
    let (mut bytes_out, mut bytes_in, mut points_out) = (0u64, 0u64, 0u64);
    for (conn, (snap, out, inn, pts)) in deployment.conns.iter().zip(&before) {
        device = device.plus(conn.ctx.snapshot().minus(*snap));
        bytes_out += conn.client.bytes_out - out;
        bytes_in += conn.client.bytes_in - inn;
        points_out += conn.points_out - pts;
    }
    let closing = finish(deployment, &plan, plan.consolidate_cycles, &mut report)
        .expect("closing the deployment");
    let wire_spans = tracer.take();

    let of = |kind: Kind, from: Instant, to: Instant| -> Vec<u64> {
        per_conn
            .iter()
            .flatten()
            .filter(|s| s.kind == kind && s.began >= from && s.began < to)
            .map(|s| s.ns)
            .collect()
    };
    let all = |kind: Kind| of(kind, start, until);
    let (ingest_ns, get_ns, scan_ns) = (all(Kind::Ingest), all(Kind::Get), all(Kind::Scan));
    let sum = |ns: &[u64]| ns.iter().sum::<u64>() as f64;
    let requests = per_conn.iter().map(Vec::len).sum::<usize>() as f64;
    // Each connection's own rate, added up: a connection that stalls
    // lowers its own term.
    let rate = |from: Instant, to: Instant| -> f64 {
        let inside = |samples: &Vec<Sample1>| {
            samples
                .iter()
                .filter(|s| s.began >= from && s.began < to)
                .count()
        };
        per_conn
            .iter()
            .map(|samples| inside(samples) as f64 / (to - from).as_secs_f64())
            .sum()
    };
    let ingested_points = ingest_ns.len() as f64 * BATCH as f64;
    let scan_cells = (plan.scan_side * plan.scan_side) as f64;

    // The window is cut into SLICES equal slices and every timed
    // end-to-end metric is the better quartile of its per-slice values.
    // The shared host slows by 15-40 % for seconds to minutes at a time;
    // one number over the whole window, or the median slice, follows
    // however much of that the run caught, while the better quartile
    // reads the same as long as three slices in ten were left alone, and
    // on a quiet host it repeats as well as the median does. The best
    // slice would not do: it is an extreme, and the store moves through
    // flush and consolidation cycles that a slice must average (a slice
    // holds at least two of each). A slice with too few samples of a kind
    // says nothing about it.
    let width = (until - start) / SLICES;
    let slices: Vec<(Instant, Instant)> = (0..SLICES)
        .map(|k| (start + width * k, start + width * (k + 1)))
        .collect();
    let typical = |f: &dyn Fn(Instant, Instant) -> Option<f64>,
                   better_quartile: &dyn Fn(&[f64]) -> f64|
     -> f64 {
        let per_slice: Vec<f64> = slices
            .iter()
            .filter_map(|&(from, to)| f(from, to))
            .collect();
        if per_slice.is_empty() {
            f(start, until).expect("the window holds requests of every kind")
        } else {
            better_quartile(&per_slice)
        }
    };
    let enough = |ns: Vec<u64>, from: Instant, to: Instant| {
        let whole = (from, to) == (start, until);
        (ns.len() >= if whole { 1 } else { SLICE_SAMPLES }).then_some(ns)
    };
    let p50 = |kind: Kind| {
        move |from: Instant, to: Instant| {
            enough(of(kind, from, to), from, to).map(|ns| median_us(&ns))
        }
    };

    report.set("setup_s", median(&setups));
    report.set(
        "write_points_per_s",
        typical(
            &|from, to| {
                enough(of(Kind::Ingest, from, to), from, to)
                    .map(|ns| (ns.len() * BATCH) as f64 / (sum(&ns) / 1e9))
            },
            &upper_quartile,
        ),
    );
    report.set(
        "read_cells_per_s",
        typical(
            &|from, to| {
                let (gets, scans) = (of(Kind::Get, from, to), of(Kind::Scan, from, to));
                let scans = enough(scans, from, to)?;
                Some(
                    (gets.len() as f64 + scans.len() as f64 * scan_cells)
                        / ((sum(&gets) + sum(&scans)) / 1e9),
                )
            },
            &upper_quartile,
        ),
    );
    report.set(
        "requests_per_s",
        typical(&|from, to| Some(rate(from, to)), &upper_quartile),
    );
    report.set("write_p50_us", typical(&p50(Kind::Ingest), &lower_quartile));
    report.set("get_p50_us", typical(&p50(Kind::Get), &lower_quartile));
    report.set("scan_p50_us", typical(&p50(Kind::Scan), &lower_quartile));
    report.set(
        "consolidate_points_per_s",
        highest(&closing.consolidate_pps),
    );
    report.set(
        "stored_bytes_per_point",
        closing.device_bytes as f64 / closing.live_points as f64,
    );
    report.set("peak_rss_mib", peak_rss_mib());

    let mut ops = std::collections::BTreeMap::new();
    ops.insert("requests".to_string(), requests as u64);
    ops.insert("ingest".to_string(), ingest_ns.len() as u64);
    ops.insert("get".to_string(), get_ns.len() as u64);
    ops.insert("scan".to_string(), scan_ns.len() as u64);
    ops.insert("connections".to_string(), CONNECTIONS as u64);

    let mut spans = wire_spans;
    if args.trace {
        // Replay every connection side by side, as the server ran them.
        let replayed_until = start + Duration::from_secs_f64(args.seconds * 0.15);
        tracer.set_enabled(true);
        let replays: Vec<Replay> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_conn
                .iter()
                .enumerate()
                .map(|(c, samples)| {
                    let (plan, tracer) = (&plan, &tracer);
                    let schedule: Vec<Duration> = samples
                        .iter()
                        .take_while(|s| s.began < replayed_until)
                        .map(|s| s.began - start)
                        .collect();
                    scope.spawn(move || {
                        let mut local = Report::default();
                        let r = replay(plan, args.seed, c, tracer, &schedule, &mut local);
                        (r, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (r, local) = h.join().expect("replay thread");
                    report.absorb(local);
                    r
                })
                .collect()
        });
        tracer.set_enabled(false);
        let replay_spans = tracer.take();
        let replayed = |kind: Kind| -> Vec<u64> {
            replays
                .iter()
                .flat_map(|r| r.ns.get(&kind).cloned().unwrap_or_default())
                .collect()
        };
        let p50 = |ns: &[u64]| if ns.is_empty() { 0.0 } else { median_us(ns) };
        let (r_ingest, r_get, r_scan) = (
            replayed(Kind::Ingest),
            replayed(Kind::Get),
            replayed(Kind::Scan),
        );
        let flushing: Vec<u64> = replays
            .iter()
            .flat_map(|r| r.flushing_ingest_ns.iter().copied())
            .collect();
        report.set("storage.engine.ingest_us", p50(&r_ingest));
        report.set(
            "storage.engine.flush_ms",
            if flushing.is_empty() {
                0.0
            } else {
                (median_us(&flushing) - p50(&r_ingest)) / 1e3
            },
        );
        report.set("storage.engine.get_us", p50(&r_get));
        report.set("storage.engine.scan_us", p50(&r_scan));
        report.set(
            "storage.engine.consolidate_ms",
            median_us(&closing.consolidate_ns) / 1e3,
        );
        report.set(
            "storage.engine.matched_per_scanned",
            replays.iter().map(|r| r.reads.matched).sum::<u64>() as f64
                / replays.iter().map(|r| r.reads.scanned).sum::<u64>().max(1) as f64,
        );
        report.set(
            "storage.engine.self_share",
            SelfTimes::of(&replay_spans).self_share("engine."),
        );
        // Overhead compares the same requests: the replayed head of the window.
        for (name, kind, engine_ns) in [
            ("ingest", Kind::Ingest, &r_ingest),
            ("get", Kind::Get, &r_get),
            ("scan", Kind::Scan, &r_scan),
        ] {
            report.set(
                &format!("server.overhead_us.{name}"),
                p50(&of(kind, start, replayed_until)) - p50(engine_ns),
            );
        }
        for (name, ns) in [("ingest", &ingest_ns), ("get", &get_ns), ("scan", &scan_ns)] {
            report.set(&format!("server.{name}_p99_us"), percentile_us(ns, 99.0));
            report.set(&format!("server.{name}_samples"), ns.len() as f64);
        }
        report.set("server.request_bytes", bytes_out as f64 / requests);
        report.set("server.reply_bytes", bytes_in as f64 / requests);
        let stalls = [&ingest_ns, &get_ns, &scan_ns]
            .iter()
            .map(|ns| {
                let limit = 10.0 * median_us(ns) * 1e3;
                ns.iter().filter(|&&n| n as f64 > limit).count()
            })
            .sum::<usize>();
        report.set(
            "storage.scheduler.foreground_stalls",
            stalls as f64 / requests,
        );
        let record = 2.0 * 8.0 + 8.0;
        crate::common::report_device(
            &mut report,
            device,
            requests,
            wall_ns,
            ingested_points * record,
            points_out as f64 * record,
        );
        let (untraced_rate, traced_rate) = (rate(start, traced_from), rate(traced_from, until));
        report.set(
            "metrics.trace_overhead_share",
            untraced_rate / traced_rate - 1.0,
        );

        let replayed_requests = replays.iter().map(|r| r.requests).sum::<u64>().max(1) as f64;
        let mut work = Work {
            timed_wall_ns: wall_ns,
            points_ingested: ingested_points,
            device_bytes_written: device.bytes_written as f64,
            device_bytes_read: device.bytes_read as f64,
            wire_requests: requests,
            wire_write_requests: ingest_ns.len() as f64,
            wire_points_in: ingested_points,
            wire_points_out: points_out as f64,
            ..Work::default()
        };
        // COO is ORGS[0]. Every ingested point is built into a fragment
        // by a group commit (the scheduler's consolidations rebuild more,
        // unseen from outside); lookups scale up from the replay.
        work.points_built[0] = ingested_points;
        work.fragment_queries[0] = replays
            .iter()
            .map(|r| r.reads.fragment_queries)
            .sum::<u64>() as f64
            * requests
            / replayed_requests;
        micro::run(&sample(&plan, args.seed), &work, &mut report);
        ops.insert("replayed_requests".to_string(), replayed_requests as u64);
        spans.extend(replay_spans);
    }
    Outcome { report, spans, ops }
}
