//! Per-connection session loop.
//!
//! A session is one thread driving one client socket (TCP or Unix): it
//! reads request lines, looks the named dataset up in the registry, calls
//! its engine on this thread, and writes exactly one status line (plus
//! any announced payload) per request. The loop is transport-agnostic —
//! it runs over any `BufRead`/`Write` pair — which keeps it unit-testable
//! without sockets and identical across listeners.
//!
//! Load shedding is typed, never silent: engine rejections
//! ([`artsparse_storage::StorageError::Backpressure`], `ReadOnly`),
//! quota refusals, and oversized requests all come back as `ERR` lines
//! the client can parse and back off on. The connection is only closed
//! by `QUIT`, EOF, an I/O failure, or server drain.

use crate::metrics::ServerMetrics;
use crate::protocol::{self, ErrorCode, Request, PROTOCOL_VERSION};
use crate::quota::QuotaBook;
use crate::server::BackendFactory;
use crate::shard::{Created, Registry, StatsRow};
use artsparse_storage::HealthState;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// Per-session request size bounds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest accepted `PUT`/`INGEST` batch, in points.
    pub max_batch_points: usize,
    /// Largest region a `SCAN` may visit, in cells — also the row cap
    /// on its response.
    pub scan_limit: usize,
    /// Whether the `SHUTDOWN` command is honored.
    pub allow_shutdown: bool,
}

/// Everything one session thread owns.
pub struct SessionCtx<F: BackendFactory> {
    /// Every open dataset.
    pub registry: Arc<Registry<F>>,
    /// The server-wide quota ledger.
    pub quotas: QuotaBook,
    /// The server-wide metrics plane.
    pub metrics: Arc<ServerMetrics>,
    /// Set when the server is draining.
    pub stop: Arc<AtomicBool>,
    /// Notified (once) when this session executes `SHUTDOWN`.
    pub shutdown: Sender<()>,
    /// Request size bounds.
    pub limits: Limits,
    /// Peer description for the journal (`tcp:127.0.0.1:5123`, `unix`).
    pub peer: String,
    /// Session ordinal, used as the journal trace id.
    pub session_id: u64,
}

/// What reading one line found.
enum ReadOutcome {
    /// A complete line, now in the buffer (trailing newline stripped).
    Line,
    /// The peer closed its write side.
    Eof,
    /// The server is draining and the peer is idle.
    Stopped,
}

/// Read one line into `buf`, tolerating read-timeout errors so the loop
/// can poll the drain flag. Timed-out partial reads stay in `buf` and
/// complete on a later pass.
fn read_line_patient<R: BufRead>(
    reader: &mut R,
    stop: &AtomicBool,
    buf: &mut String,
) -> io::Result<ReadOutcome> {
    buf.clear();
    loop {
        match reader.read_line(buf) {
            Ok(n) if n == 0 || buf.ends_with('\n') => {
                buf.truncate(buf.trim_end_matches(['\n', '\r']).len());
                return Ok(if n == 0 && buf.is_empty() {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Line
                });
            }
            // No newline yet: only possible right before EOF or after a
            // timeout left a partial line; keep reading.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(ReadOutcome::Stopped);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run one session to completion. Consumes the context; returns when
/// the peer disconnects, `QUIT`s, errors, or the server drains.
pub fn run_session<F: BackendFactory, R: BufRead, W: Write>(
    ctx: SessionCtx<F>,
    mut reader: R,
    mut writer: W,
) {
    let mut session = Session {
        ctx,
        tenant: None,
        line: String::new(),
        bytes_in: 0,
    };
    session.ctx.metrics.sessions_total.inc();
    session
        .ctx
        .metrics
        .sessions_open
        .set(session.ctx.metrics.sessions_open.get() + 1.0);
    session.ctx.metrics.journal_session(
        "session_open",
        format!("peer {} connected", session.ctx.peer),
        session.ctx.session_id,
    );

    let greeting = format!(
        "OK {} ready shards={}",
        PROTOCOL_VERSION,
        session.ctx.registry.stripes()
    );
    let outcome = if session.respond(&mut writer, &[greeting]).is_err() {
        Ok(())
    } else {
        session.serve(&mut reader, &mut writer)
    };

    session
        .ctx
        .metrics
        .sessions_open
        .set((session.ctx.metrics.sessions_open.get() - 1.0).max(0.0));
    let how = match outcome {
        Ok(()) => "closed".to_string(),
        Err(e) => format!("failed: {e}"),
    };
    session.ctx.metrics.journal_session(
        "session_close",
        format!("peer {} {how}", session.ctx.peer),
        session.ctx.session_id,
    );
}

struct Session<F: BackendFactory> {
    ctx: SessionCtx<F>,
    tenant: Option<String>,
    /// The line being read; request lines and data lines reuse it.
    line: String,
    /// Bytes of the request being served, counted once it is answered.
    bytes_in: u64,
}

impl<F: BackendFactory> Session<F> {
    fn serve<R: BufRead, W: Write>(&mut self, reader: &mut R, writer: &mut W) -> io::Result<()> {
        loop {
            match read_line_patient(reader, &self.ctx.stop, &mut self.line)? {
                ReadOutcome::Line => {}
                ReadOutcome::Eof | ReadOutcome::Stopped => return Ok(()),
            }
            self.bytes_in = self.line.len() as u64 + 1;
            let Some(request) = protocol::parse_request(&self.line) else {
                self.ctx.metrics.bytes_in_total.add(self.bytes_in);
                continue; // blank line
            };
            let started = Instant::now();
            let handled = self.handle(reader, &request);
            self.ctx.metrics.bytes_in_total.add(self.bytes_in);
            let (response, close) = handled?;
            self.ctx.metrics.commands_total.inc();
            self.ctx
                .metrics
                .record_latency(started.elapsed().as_nanos() as u64);
            self.respond(writer, &response)?;
            if close {
                return Ok(());
            }
        }
    }

    /// Write a response (status line + payload), counting bytes and
    /// classifying `ERR` lines into the error counters.
    fn respond<W: Write>(&self, writer: &mut W, lines: &[String]) -> io::Result<()> {
        if let Some(first) = lines.first() {
            if first.starts_with("ERR ") {
                self.ctx.metrics.protocol_errors_total.inc();
                if first.starts_with("ERR BACKPRESSURE") || first.starts_with("ERR READONLY") {
                    self.ctx.metrics.backpressure_errors_total.inc();
                }
                if first.starts_with("ERR QUOTA") {
                    self.ctx.metrics.quota_rejections_total.inc();
                }
            }
        }
        let mut out = String::new();
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        self.ctx.metrics.bytes_out_total.add(out.len() as u64);
        writer.write_all(out.as_bytes())?;
        writer.flush()
    }

    /// Execute one request. Returns the response lines and whether the
    /// session should close afterwards.
    fn handle<R: BufRead>(
        &mut self,
        reader: &mut R,
        request: &Request,
    ) -> io::Result<(Vec<String>, bool)> {
        let cmd = request.command.as_str();
        if self.ctx.stop.load(Ordering::SeqCst) && cmd != "QUIT" {
            return Ok((
                vec![protocol::err_line(
                    ErrorCode::ShuttingDown,
                    "server is draining; no new work is accepted",
                )],
                false,
            ));
        }
        let args = &request.args;
        let response = match cmd {
            "HELLO" => self.cmd_hello(args),
            "PING" => vec!["OK pong".to_string()],
            "QUIT" => return Ok((vec!["OK bye".to_string()], true)),
            "SHUTDOWN" => self.cmd_shutdown(args),
            "METRICS" => self.cmd_metrics(args),
            "CREATE" => self.with_tenant(|s, t| s.cmd_create(&t, args)),
            "PUT" | "INGEST" => {
                let ingest = cmd == "INGEST";
                // Data lines must be consumed even on refusal, so this
                // arm threads the reader through.
                return Ok((self.cmd_write(reader, ingest, args)?, false));
            }
            "GET" => self.with_tenant(|s, t| s.cmd_get(&t, args)),
            "SCAN" => self.with_tenant(|s, t| s.cmd_scan(&t, args)),
            "FLUSH" => self.with_tenant(|s, t| s.cmd_flush(&t, args)),
            "CONSOLIDATE" => self.with_tenant(|s, t| s.cmd_consolidate(&t, args)),
            "STATS" => self.with_tenant(|s, t| s.cmd_stats(&t, args)),
            _ => vec![protocol::err_line(
                ErrorCode::BadCmd,
                &format!("unknown command {cmd:?}; commands: {}", command_names()),
            )],
        };
        Ok((response, false))
    }

    /// Run `f` with the bound tenant, or refuse with `NO_TENANT`.
    fn with_tenant(&mut self, f: impl FnOnce(&mut Self, String) -> Vec<String>) -> Vec<String> {
        match self.tenant.clone() {
            Some(t) => f(self, t),
            None => vec![protocol::err_line(
                ErrorCode::NoTenant,
                "bind a tenant first: HELLO <tenant>",
            )],
        }
    }

    fn cmd_hello(&mut self, args: &[String]) -> Vec<String> {
        if args.is_empty() || args.len() > 2 {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: HELLO <tenant> [artsparse/<version>]",
            )];
        }
        if !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "tenant must match [A-Za-z0-9_-]{1,64}",
            )];
        }
        if let Some(version) = args.get(1) {
            if version != PROTOCOL_VERSION {
                return vec![protocol::err_line(
                    ErrorCode::Unsupported,
                    &format!("this server speaks {PROTOCOL_VERSION}, not {version}"),
                )];
            }
        }
        self.tenant = Some(args[0].clone());
        vec![format!("OK tenant={} proto={}", args[0], PROTOCOL_VERSION)]
    }

    fn cmd_shutdown(&mut self, args: &[String]) -> Vec<String> {
        if !args.is_empty() {
            return vec![protocol::err_line(ErrorCode::BadArg, "usage: SHUTDOWN")];
        }
        if !self.ctx.limits.allow_shutdown {
            return vec![protocol::err_line(
                ErrorCode::Unsupported,
                "SHUTDOWN is disabled on this server",
            )];
        }
        self.ctx.metrics.journal_session(
            "shutdown_requested",
            format!("peer {} requested drain", self.ctx.peer),
            self.ctx.session_id,
        );
        self.ctx.stop.store(true, Ordering::SeqCst);
        let _ = self.ctx.shutdown.send(());
        vec!["OK draining".to_string()]
    }

    fn cmd_metrics(&mut self, args: &[String]) -> Vec<String> {
        if !args.is_empty() {
            return vec![protocol::err_line(ErrorCode::BadArg, "usage: METRICS")];
        }
        self.ctx
            .metrics
            .datasets
            .set(self.ctx.registry.len() as f64);
        let text = self.ctx.metrics.render(&self.ctx.quotas);
        let mut lines = vec![format!("OK lines={}", text.lines().count())];
        lines.extend(text.lines().map(str::to_string));
        lines
    }

    fn cmd_create(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() != 2 {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: CREATE <dataset> <d0>x<d1>[x<d2>...]",
            )];
        }
        if !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "dataset must match [A-Za-z0-9_-]{1,64}",
            )];
        }
        let dims = match protocol::parse_shape(&args[1]) {
            Ok(d) => d,
            Err(e) => return vec![protocol::err_line(ErrorCode::BadArg, &e)],
        };
        match self.ctx.registry.create(tenant, &args[0], &dims) {
            Ok(Created::Open { existed }) => {
                vec![format!("OK created={} existed={existed}", args[0])]
            }
            Ok(Created::ShapeConflict { existing }) => vec![protocol::err_line(
                ErrorCode::Exists,
                &format!("dataset exists with shape {}", render_dims(&existing)),
            )],
            Err(e) => vec![protocol::storage_err_line(&e)],
        }
    }

    /// `PUT`/`INGEST`: read the announced data lines (always, so the
    /// stream stays in lock-step even on refusal), then charge quota
    /// and call the engine.
    fn cmd_write<R: BufRead>(
        &mut self,
        reader: &mut R,
        ingest: bool,
        args: &[String],
    ) -> io::Result<Vec<String>> {
        let usage = if ingest {
            "usage: INGEST <dataset> <n>"
        } else {
            "usage: PUT <dataset> <n>"
        };
        let announced = args.get(1).and_then(|n| n.parse::<usize>().ok());
        let valid =
            args.len() == 2 && protocol::valid_name(&args[0]) && announced.is_some_and(|n| n > 0);
        let (dataset, n) = if valid {
            (&args[0], announced.unwrap_or(0))
        } else {
            // Consume any announced data lines so the stream stays in
            // lock-step before refusing.
            if let Some(n) = announced {
                self.discard_lines(reader, n)?;
            }
            return Ok(vec![protocol::err_line(ErrorCode::BadArg, usage)]);
        };
        let Some(tenant) = self.tenant.clone() else {
            // Still consume the batch so the next line parses as a command.
            self.discard_lines(reader, n)?;
            return Ok(vec![protocol::err_line(
                ErrorCode::NoTenant,
                "bind a tenant first: HELLO <tenant>",
            )]);
        };
        if n > self.ctx.limits.max_batch_points {
            self.discard_lines(reader, n)?;
            return Ok(vec![protocol::err_line(
                ErrorCode::TooBig,
                &format!(
                    "batch of {n} points exceeds the server cap of {}",
                    self.ctx.limits.max_batch_points
                ),
            )]);
        }

        // Read the batch and parse it straight into its flat arrays. All
        // n lines are consumed even when one is malformed; the first
        // error wins.
        let mut ndim = 0usize;
        let mut flat: Vec<u64> = Vec::new();
        let mut values: Vec<f64> = Vec::with_capacity(n);
        let mut parse_error: Option<String> = None;
        for i in 0..n {
            self.data_line(reader, i, n)?;
            if parse_error.is_some() {
                continue;
            }
            let before = flat.len();
            match protocol::parse_point_into(&self.line, &mut flat) {
                Ok(value) => {
                    let k = flat.len() - before;
                    if ndim == 0 {
                        ndim = k;
                    }
                    if k != ndim {
                        parse_error = Some(format!(
                            "data line {} has {k} coordinates, line 1 had {ndim}",
                            i + 1
                        ));
                        continue;
                    }
                    values.push(value);
                }
                Err(e) => parse_error = Some(format!("data line {}: {e}", i + 1)),
            }
        }
        if let Some(e) = parse_error {
            return Ok(vec![protocol::err_line(ErrorCode::BadArg, &e)]);
        }

        // Charge the quota before the write; refund if it does not land.
        let bytes = (n as u64) * 8;
        if let Err(refusal) = self.ctx.quotas.charge(&tenant, n as u64, bytes) {
            self.ctx.metrics.journal_warn(
                "quota_refused",
                format!("tenant {tenant}: {refusal}"),
                self.ctx.session_id,
            );
            return Ok(vec![protocol::err_line(
                ErrorCode::Quota,
                &refusal.to_string(),
            )]);
        }
        let written = match self.ctx.registry.get(&tenant, dataset) {
            None => Err(no_dataset(dataset)),
            Some(ds) => ds
                .write(ingest, ndim, flat, &values)
                .map_err(|e| protocol::storage_err_line(&e)),
        };
        Ok(vec![match written {
            Ok((acked, Some(fragment))) => format!("OK acked={acked} fragment={fragment}"),
            Ok((acked, None)) => format!("OK acked={acked}"),
            Err(refusal) => {
                self.ctx.quotas.refund(&tenant, n as u64, bytes);
                refusal
            }
        }])
    }

    /// Read data line `i` of `n` into `self.line`; the peer hanging up
    /// first is an error.
    fn data_line<R: BufRead>(&mut self, reader: &mut R, i: usize, n: usize) -> io::Result<()> {
        match read_line_patient(reader, &self.ctx.stop, &mut self.line)? {
            ReadOutcome::Line => {
                self.bytes_in += self.line.len() as u64 + 1;
                Ok(())
            }
            ReadOutcome::Eof | ReadOutcome::Stopped => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("peer sent {i} of {n} data lines"),
            )),
        }
    }

    /// Consume `n` data lines without parsing (refused batches).
    fn discard_lines<R: BufRead>(&mut self, reader: &mut R, n: usize) -> io::Result<()> {
        (0..n).try_for_each(|i| self.data_line(reader, i, n))
    }

    fn cmd_get(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() < 2 || !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: GET <dataset> <c0> <c1> [<c2>...]",
            )];
        }
        let coord: Result<Vec<u64>, _> = args[1..].iter().map(|c| c.parse::<u64>()).collect();
        let Ok(coord) = coord else {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "coordinates must be unsigned integers",
            )];
        };
        let Some(ds) = self.ctx.registry.get(tenant, &args[0]) else {
            return vec![no_dataset(&args[0])];
        };
        vec![match ds.get(&coord) {
            Ok(Some(v)) => format!("OK found=true value={}", protocol::format_value(v)),
            Ok(None) => "OK found=false".to_string(),
            Err(e) => protocol::storage_err_line(&e),
        }]
    }

    fn cmd_scan(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        let usage = "usage: SCAN <dataset> <lo0:hi0> [<lo1:hi1>...] [LIMIT <n>]";
        if args.len() < 2 || !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(ErrorCode::BadArg, usage)];
        }
        let mut bounds_end = args.len();
        let mut limit = self.ctx.limits.scan_limit;
        // Minimum form with a limit: dataset, one bound, LIMIT, n.
        if args.len() >= 4 && args[args.len() - 2].eq_ignore_ascii_case("LIMIT") {
            let Some(requested) = args[args.len() - 1].parse::<usize>().ok() else {
                return vec![protocol::err_line(ErrorCode::BadArg, usage)];
            };
            limit = requested.min(self.ctx.limits.scan_limit);
            bounds_end = args.len() - 2;
        }
        if bounds_end < 2 {
            return vec![protocol::err_line(ErrorCode::BadArg, usage)];
        }
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        let mut cells: u128 = 1;
        for token in &args[1..bounds_end] {
            match protocol::parse_bound(token) {
                Ok((l, h)) => {
                    cells = cells.saturating_mul(u128::from(h - l) + 1);
                    lo.push(l);
                    hi.push(h);
                }
                Err(e) => return vec![protocol::err_line(ErrorCode::BadArg, &e)],
            }
        }
        if cells > self.ctx.limits.scan_limit as u128 {
            return vec![protocol::err_line(
                ErrorCode::TooBig,
                &format!(
                    "region of {cells} cells exceeds the scan cap of {}",
                    self.ctx.limits.scan_limit
                ),
            )];
        }
        let Some(ds) = self.ctx.registry.get(tenant, &args[0]) else {
            return vec![no_dataset(&args[0])];
        };
        match ds.scan(&lo, &hi, limit) {
            Ok((rows, truncated)) => {
                let mut lines = vec![format!("OK points={} truncated={truncated}", rows.len())];
                for (coord, value) in &rows {
                    lines.push(protocol::render_point(coord, *value));
                }
                lines
            }
            Err(e) => vec![protocol::storage_err_line(&e)],
        }
    }

    fn cmd_flush(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() != 1 || !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: FLUSH <dataset>",
            )];
        }
        let Some(ds) = self.ctx.registry.get(tenant, &args[0]) else {
            return vec![no_dataset(&args[0])];
        };
        vec![match ds.engine.flush() {
            Ok(report) => format!(
                "OK flushed fragment={}",
                report.as_ref().map_or("none", |r| r.fragment.as_str())
            ),
            Err(e) => protocol::storage_err_line(&e),
        }]
    }

    fn cmd_consolidate(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() != 1 || !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: CONSOLIDATE <dataset>",
            )];
        }
        let Some(ds) = self.ctx.registry.get(tenant, &args[0]) else {
            return vec![no_dataset(&args[0])];
        };
        vec![match ds.engine.consolidate() {
            Ok(report) => format!(
                "OK merged={} points={}",
                report.merged_fragments, report.n_points
            ),
            Err(e) => protocol::storage_err_line(&e),
        }]
    }

    fn cmd_stats(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() > 1 {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: STATS [<dataset>]",
            )];
        }
        if args.first().is_some_and(|d| !protocol::valid_name(d)) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "dataset must match [A-Za-z0-9_-]{1,64}",
            )];
        }
        let stats = match self
            .ctx
            .registry
            .stats(tenant, args.first().map(String::as_str))
        {
            Ok(s) => s,
            Err(e) => return vec![protocol::storage_err_line(&e)],
        };
        if let (Some(d), true) = (args.first(), stats.is_empty()) {
            return vec![no_dataset(d)];
        }
        let standing = self.ctx.quotas.standing(tenant);
        let mut payload = vec![format!(
            "tenant={tenant} points={} point_limit={} bytes={} byte_limit={}",
            standing.points, standing.quota.max_points, standing.bytes, standing.quota.max_bytes
        )];
        for s in &stats {
            payload.push(render_dataset_stats(tenant, s));
        }
        let mut lines = vec![format!("OK lines={}", payload.len())];
        lines.extend(payload);
        lines
    }
}

fn no_dataset(dataset: &str) -> String {
    protocol::err_line(
        ErrorCode::NoDataset,
        &format!("dataset {dataset:?} has not been created; use CREATE"),
    )
}

fn render_dims(dims: &[u64]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

fn health_str(h: HealthState) -> &'static str {
    match h {
        HealthState::Healthy => "healthy",
        HealthState::Degraded => "degraded",
        HealthState::ReadOnly => "read_only",
    }
}

fn render_dataset_stats(tenant: &str, (key, shard, dims, s): &StatsRow) -> String {
    let dataset = key.strip_prefix(&format!("{tenant}/")).unwrap_or(key);
    format!(
        "dataset={dataset} shard={shard} shape={} fragments={} points={} bytes={} health={} \
         buffered_points={} buffered_bytes={} wal_backlog_bytes={} backpressure_rejections={}",
        render_dims(dims),
        s.fragments,
        s.total_points,
        s.total_bytes,
        health_str(s.health),
        s.buffer.points,
        s.buffer.value_bytes,
        s.wal_backlog_bytes,
        s.backpressure_rejections,
    )
}

fn command_names() -> String {
    protocol::COMMANDS
        .iter()
        .map(|c| c.name)
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::Quota;
    use crate::server::MemFactory;
    use artsparse_storage::EngineConfig;
    use std::io::Cursor;
    use std::sync::mpsc;

    /// Drive a scripted session over in-memory I/O against a real
    /// two-stripe registry.
    fn run_script(script: &str, default_quota: Quota) -> String {
        let registry = Registry::new(MemFactory, EngineConfig::default(), None, 2);
        let (shutdown_tx, _shutdown_rx) = mpsc::channel();
        let ctx = SessionCtx {
            registry: Arc::new(registry),
            quotas: QuotaBook::new(default_quota),
            metrics: Arc::new(ServerMetrics::default()),
            stop: Arc::new(AtomicBool::new(false)),
            shutdown: shutdown_tx,
            limits: Limits {
                max_batch_points: 1 << 20,
                scan_limit: 1 << 20,
                allow_shutdown: false,
            },
            peer: "test".into(),
            session_id: 1,
        };
        let mut out: Vec<u8> = Vec::new();
        run_session(ctx, Cursor::new(script.as_bytes().to_vec()), &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn full_round_trip_over_in_memory_io() {
        let out = run_script(
            "HELLO acme artsparse/1\n\
             CREATE grid 8x8\n\
             PUT grid 2\n\
             1 2 1.5\n\
             3 4 -2.25\n\
             GET grid 3 4\n\
             GET grid 0 0\n\
             INGEST grid 1\n\
             5 5 9\n\
             FLUSH grid\n\
             SCAN grid 0:7 0:7\n\
             CONSOLIDATE grid\n\
             STATS grid\n\
             PING\n\
             QUIT\n",
            Quota::unlimited(),
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[0].starts_with("OK artsparse/1 ready shards=2"),
            "{out}"
        );
        assert_eq!(lines[1], "OK tenant=acme proto=artsparse/1");
        assert_eq!(lines[2], "OK created=grid existed=false");
        assert!(lines[3].starts_with("OK acked=2 fragment="), "{out}");
        assert_eq!(lines[4], "OK found=true value=-2.25");
        assert_eq!(lines[5], "OK found=false");
        assert_eq!(lines[6], "OK acked=1");
        assert!(lines[7].starts_with("OK flushed fragment="), "{out}");
        assert!(!lines[7].ends_with("fragment=none"), "{out}");
        assert_eq!(lines[8], "OK points=3 truncated=false");
        // Payload rows are in linear-address order.
        assert_eq!(lines[9], "1 2 1.5");
        assert_eq!(lines[10], "3 4 -2.25");
        assert_eq!(lines[11], "5 5 9");
        assert_eq!(lines[12], "OK merged=2 points=3");
        assert_eq!(lines[13], "OK lines=2");
        assert!(lines[14].starts_with("tenant=acme points=3"), "{out}");
        assert!(
            lines[15].contains("dataset=grid") && lines[15].contains("health=healthy"),
            "{out}"
        );
        assert_eq!(lines[16], "OK pong");
        assert_eq!(lines[17], "OK bye");
    }

    #[test]
    fn refusals_are_typed_and_lockstep() {
        let out = run_script(
            "PUT grid 1\n\
             0 0 1.0\n\
             HELLO acme\n\
             PUT nope 1\n\
             0 0 1.0\n\
             CREATE grid 4x4\n\
             CREATE grid 8x8\n\
             PUT grid 2\n\
             0 0 1.0\n\
             1 1 1 9.0\n\
             PUT grid 9\n\
             0 0 1.0\n\
             0 1 1.0\n\
             0 2 1.0\n\
             0 3 1.0\n\
             1 0 1.0\n\
             1 1 1.0\n\
             1 2 1.0\n\
             1 3 1.0\n\
             2 0 1.0\n\
             GET grid 1 1\n\
             WHAT\n\
             SCAN grid 0:3\n",
            Quota {
                max_points: 8,
                max_bytes: 0,
            },
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with("ERR NO_TENANT"), "{out}");
        assert_eq!(lines[2], "OK tenant=acme proto=artsparse/1");
        assert!(lines[3].starts_with("ERR NO_DATASET"), "{out}");
        assert_eq!(lines[4], "OK created=grid existed=false");
        assert!(
            lines[5].starts_with("ERR EXISTS") && lines[5].contains("4x4"),
            "{out}"
        );
        assert!(
            lines[6].starts_with("ERR BADARG") && lines[6].contains("line 2"),
            "mixed arity must refuse: {out}"
        );
        assert!(
            lines[7].starts_with("ERR QUOTA") && lines[7].contains("point quota exhausted"),
            "{out}"
        );
        // The failed batches charged nothing, so this read still works
        // and sees no data (the mixed-arity batch was refused whole).
        assert_eq!(lines[8], "OK found=false");
        assert!(lines[9].starts_with("ERR BADCMD"), "{out}");
        // SCAN arity mismatch against the 2-D shape maps to MISMATCH.
        assert!(lines[10].starts_with("ERR MISMATCH"), "{out}");
    }

    #[test]
    fn scan_caps_and_limits_apply() {
        let out = run_script(
            "HELLO t\n\
             CREATE big 1000x1000x1000\n\
             SCAN big 0:999 0:999 0:999\n\
             PUT big 3\n\
             0 0 0 1.0\n\
             0 0 1 2.0\n\
             0 0 2 3.0\n\
             SCAN big 0:0 0:0 0:9 LIMIT 2\n\
             QUIT\n",
            Quota::unlimited(),
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[3].starts_with("ERR TOOBIG"), "{out}");
        assert!(lines[4].starts_with("OK acked=3"), "{out}");
        assert_eq!(lines[5], "OK points=2 truncated=true");
        assert_eq!(lines[6], "0 0 0 1");
        assert_eq!(lines[7], "0 0 1 2");
        assert_eq!(lines[8], "OK bye");
    }

    #[test]
    fn metrics_command_needs_no_tenant_and_renders_exposition() {
        let out = run_script("METRICS\nQUIT\n", Quota::unlimited());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with("OK lines="), "{out}");
        let n: usize = lines[1].trim_start_matches("OK lines=").parse().unwrap();
        assert!(n > 0);
        let body = lines[2..2 + n].join("\n");
        assert!(
            body.contains("artsparse_server_commands_total"),
            "exposition must carry server series: {body}"
        );
        assert_eq!(lines[2 + n], "OK bye");
    }
}
