//! The server: the dataset registry, socket listeners, session threads,
//! the quota book, and the metrics publisher, assembled behind one handle.
//!
//! Topology: one accept loop per listener (TCP, Unix) turns connections
//! into session threads, and a session calls the engine of the dataset it
//! names itself, found in the registry (datasets are placed on its `N`
//! stripes by tenant-qualified name); each dataset may run a background
//! scheduler; an optional publisher mirrors the server's metrics into an
//! exporter-compatible directory (`metrics.prom`, `metrics.jsonl`,
//! `journal.jsonl`) so `artsparse-bench watch` works on a live server
//! unchanged. The accept loops and the publisher are [`Periodic`] loops.
//!
//! Shutdown ordering (see [`ServerHandle::shutdown`]): stop accepting →
//! join sessions → per dataset, stop its scheduler and drain its engine
//! through `StorageEngine::shutdown` → journal the stop → final metrics
//! publish. Acked ingest survives because drain group-commits the write
//! buffers before the process lets go of the engines.

use crate::metrics::ServerMetrics;
use crate::quota::{Quota, QuotaBook};
use crate::session::{run_session, Limits, SessionCtx};
use crate::shard::{Drain, Registry};
use artsparse_storage::exporter::publish;
use artsparse_storage::{
    EngineConfig, FsBackend, MemBackend, Periodic, SchedulerConfig, StorageBackend, StorageError,
};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Opens one storage backend per dataset. The key is the namespaced
/// dataset name (`tenant/dataset`), already validated against
/// `[A-Za-z0-9_-]{1,64}` per segment — safe to use as a relative path.
pub trait BackendFactory {
    /// The backend type every dataset's engine runs on.
    type Backend: StorageBackend + Send + Sync + 'static;
    /// Open (creating if needed) the backend for `key`.
    fn open(&self, key: &str) -> Result<Self::Backend, StorageError>;
}

/// Ephemeral in-memory datasets (tests, benchmarks, doctests).
#[derive(Debug, Default, Clone, Copy)]
pub struct MemFactory;

impl BackendFactory for MemFactory {
    type Backend = MemBackend;
    fn open(&self, _key: &str) -> Result<MemBackend, StorageError> {
        Ok(MemBackend::new())
    }
}

/// Durable datasets: one directory per dataset under `root`
/// (`<root>/<tenant>/<dataset>/`).
#[derive(Debug, Clone)]
pub struct FsFactory {
    root: PathBuf,
}

impl FsFactory {
    /// A factory rooted at `root` (created on first use).
    pub fn new(root: impl Into<PathBuf>) -> FsFactory {
        FsFactory { root: root.into() }
    }
}

impl BackendFactory for FsFactory {
    type Backend = FsBackend;
    fn open(&self, key: &str) -> Result<FsBackend, StorageError> {
        FsBackend::new(self.root.join(key))
    }
}

/// Server configuration. `Default` is a two-shard, TCP-less,
/// memory-quota-free server suitable for embedding in tests; binaries
/// set listeners explicitly.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Registry stripes (min 1). Datasets hash onto stripes, and a
    /// request locks only its own stripe, and only to find its dataset.
    pub shards: usize,
    /// TCP listen address (`"127.0.0.1:4141"`), if any. Port `0` binds
    /// an ephemeral port; read it back with [`ServerHandle::tcp_addr`].
    pub tcp: Option<String>,
    /// Unix socket path, if any. Removed on shutdown.
    pub unix: Option<PathBuf>,
    /// Template engine configuration applied to every dataset.
    pub engine: EngineConfig,
    /// Per-dataset background scheduler; `None` disables flush/compact
    /// scheduling (then only explicit `FLUSH` and threshold flushes run).
    pub scheduler: Option<SchedulerConfig>,
    /// Quota applied to tenants without an override (0 = unlimited).
    pub default_quota: Quota,
    /// Per-tenant quota overrides.
    pub tenant_quotas: Vec<(String, Quota)>,
    /// Directory for the exporter-compatible metrics mirror
    /// (`metrics.prom` / `metrics.jsonl` / `journal.jsonl`); `None`
    /// publishes nothing (the `METRICS` command still works).
    pub metrics_out: Option<PathBuf>,
    /// Publisher cadence in milliseconds.
    pub export_interval_ms: u64,
    /// Largest accepted `PUT`/`INGEST` batch, in points.
    pub max_batch_points: usize,
    /// Largest region a `SCAN` may visit (cells) and return (rows).
    pub scan_limit: usize,
    /// Whether the `SHUTDOWN` protocol command is honored.
    pub allow_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 2,
            tcp: None,
            unix: None,
            engine: EngineConfig::default(),
            scheduler: None,
            default_quota: Quota::unlimited(),
            tenant_quotas: Vec::new(),
            metrics_out: None,
            export_interval_ms: 500,
            max_batch_points: 1 << 20,
            scan_limit: 1 << 20,
            allow_shutdown: true,
        }
    }
}

/// The server entry point; see [`Server::start`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Start a server: bind the configured listeners and return the
    /// running server's [`ServerHandle`].
    ///
    /// The handle drains everything on [`ServerHandle::shutdown`] (or
    /// drop). Fails if a listener cannot bind or a thread cannot start.
    pub fn start<F>(config: ServerConfig, factory: F) -> Result<ServerHandle, StorageError>
    where
        F: BackendFactory + Send + Sync + 'static,
    {
        let registry = Arc::new(Registry::new(
            factory,
            config.engine.clone(),
            config.scheduler,
            config.shards,
        ));
        let metrics = Arc::new(ServerMetrics::default());
        metrics.shards.set(registry.stripes() as f64);
        let quotas = QuotaBook::new(config.default_quota);
        for (tenant, quota) in &config.tenant_quotas {
            quotas.set_quota(tenant, *quota);
        }

        // The handle exists before any thread does: an error below drops
        // it, and dropping it stops and joins whatever had started.
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let mut handle = ServerHandle {
            stop: Arc::new(AtomicBool::new(false)),
            registry: Arc::clone(&registry) as Arc<dyn Drain>,
            acceptors: Vec::new(),
            session_handles: Arc::default(),
            publisher: None,
            tcp_addr: None,
            unix_path: None,
            shutdown_rx,
            _shutdown_tx: shutdown_tx.clone(),
            metrics: Arc::clone(&metrics),
            finished: false,
        };
        let accept = Arc::new(AcceptCtx {
            registry,
            quotas: quotas.clone(),
            metrics: Arc::clone(&metrics),
            stop: Arc::clone(&handle.stop),
            shutdown: shutdown_tx,
            limits: Limits {
                max_batch_points: config.max_batch_points,
                scan_limit: config.scan_limit,
                allow_shutdown: config.allow_shutdown,
            },
            sessions: Arc::clone(&handle.session_handles),
            session_ids: AtomicU64::new(0),
        });

        if let Some(addr) = &config.tcp {
            let listener = TcpListener::bind(addr)?;
            handle.tcp_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let ctx = Arc::clone(&accept);
            let pass = move |stopping| {
                while ctx.accepting(stopping) {
                    let Ok((stream, peer)) = listener.accept() else {
                        return;
                    };
                    // Each reply is one write, sent at once rather than held
                    // back by Nagle. Best effort: a refusing socket still serves.
                    let _ = stream.set_nodelay(true);
                    ctx.start_session(stream, Some(peer));
                }
            };
            handle
                .acceptors
                .push(Periodic::spawn("artsparse-accept-tcp", ACCEPT_POLL, pass)?);
        }

        #[cfg(unix)]
        if let Some(path) = &config.unix {
            // A stale socket file from a dead process refuses the bind;
            // connecting distinguishes live servers from leftovers.
            if path.exists() && std::os::unix::net::UnixStream::connect(path).is_err() {
                let _ = std::fs::remove_file(path);
            }
            let listener = std::os::unix::net::UnixListener::bind(path)?;
            handle.unix_path = Some(path.clone());
            listener.set_nonblocking(true)?;
            let ctx = Arc::clone(&accept);
            let pass = move |stopping| {
                while ctx.accepting(stopping) {
                    let Ok((stream, _)) = listener.accept() else {
                        return;
                    };
                    ctx.start_session(stream, None);
                }
            };
            handle
                .acceptors
                .push(Periodic::spawn("artsparse-accept-unix", ACCEPT_POLL, pass)?);
        }
        #[cfg(not(unix))]
        if config.unix.is_some() {
            return Err(StorageError::Mismatch {
                reason: "unix sockets are not available on this platform".into(),
            });
        }

        if let Some(dir) = &config.metrics_out {
            std::fs::create_dir_all(dir)?;
            let dir = dir.clone();
            let interval = Duration::from_millis(config.export_interval_ms);
            let pass = move |_| {
                let _ = publish(&dir, &metrics.snapshot(&quotas), &metrics.journal);
            };
            handle.publisher = Some(Periodic::spawn("artsparse-publisher", interval, pass)?);
        }
        Ok(handle)
    }
}

/// Everything an accept loop needs to mint sessions.
struct AcceptCtx<F: BackendFactory> {
    registry: Arc<Registry<F>>,
    quotas: QuotaBook,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    shutdown: Sender<()>,
    limits: Limits,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    session_ids: AtomicU64,
}

impl<F: BackendFactory + Send + Sync + 'static> AcceptCtx<F> {
    /// Whether an accept pass takes connections: not on a stopping pass,
    /// nor once the server drains.
    fn accepting(&self, stopping: bool) -> bool {
        !stopping && !self.stop.load(Ordering::SeqCst)
    }

    /// Run a session over `stream` on a new thread. The peer is labelled
    /// by its TCP address, or as `unix:<session id>`. A thread that
    /// cannot start is journaled, and its connection dropped.
    fn start_session<S: Socket>(&self, stream: S, tcp_peer: Option<SocketAddr>) {
        let id = self.session_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let ctx = SessionCtx {
            registry: Arc::clone(&self.registry),
            quotas: self.quotas.clone(),
            metrics: Arc::clone(&self.metrics),
            stop: Arc::clone(&self.stop),
            shutdown: self.shutdown.clone(),
            limits: self.limits,
            peer: match tcp_peer {
                Some(addr) => format!("tcp:{addr}"),
                None => format!("unix:{id}"),
            },
            session_id: id,
        };
        let spawned = std::thread::Builder::new()
            .name(format!("artsparse-session-{id}"))
            .spawn(move || {
                if let Ok(read_half) = stream.read_half() {
                    run_session(ctx, BufReader::new(read_half), stream);
                }
            });
        match spawned {
            Ok(handle) => self
                .sessions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(handle),
            Err(e) => self.metrics.journal_warn(
                "session_spawn_failed",
                format!("session {id} could not start a thread ({e}); connection dropped"),
                id,
            ),
        }
    }
}

/// A connected socket a session runs on: a TCP or a Unix stream.
trait Socket: Read + Write + Send + Sized + 'static {
    /// Switch to blocking reads under [`SESSION_READ_TIMEOUT`] and return
    /// a second handle to read through.
    fn read_half(&self) -> io::Result<Self>;
}

macro_rules! impl_socket {
    ($stream:ty) => {
        impl Socket for $stream {
            fn read_half(&self) -> io::Result<Self> {
                self.set_nonblocking(false)?;
                self.set_read_timeout(Some(SESSION_READ_TIMEOUT))?;
                self.try_clone()
            }
        }
    };
}

impl_socket!(TcpStream);
#[cfg(unix)]
impl_socket!(std::os::unix::net::UnixStream);

/// Cadence of an accept loop; a pass accepts until the listener blocks.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Socket read timeout of a session — the cadence at which it polls the
/// drain flag between requests.
const SESSION_READ_TIMEOUT: Duration = Duration::from_millis(250);

/// A running server. Dropping the handle drains and stops everything;
/// call [`ServerHandle::shutdown`] to do it explicitly and observe
/// drain errors.
#[derive(Debug)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    registry: Arc<dyn Drain>,
    acceptors: Vec<Periodic>,
    session_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    publisher: Option<Periodic>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    shutdown_rx: Receiver<()>,
    // Keeps `wait()` blocking until a session's SHUTDOWN, not until the
    // last session closes.
    _shutdown_tx: Sender<()>,
    metrics: Arc<ServerMetrics>,
    finished: bool,
}

/// What a graceful shutdown drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Datasets flushed and retired.
    pub datasets: usize,
    /// Datasets whose drain failed (flush error, stuck device).
    pub errors: usize,
}

impl ServerHandle {
    /// The bound TCP address (useful with port `0`).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// Block until a session issues `SHUTDOWN` (or the server stops for
    /// any other reason).
    pub fn wait(&self) {
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = self.shutdown_rx.recv();
    }

    /// Gracefully stop: refuse new connections, let sessions finish,
    /// drain every dataset through `StorageEngine::shutdown`, journal the
    /// stop, then publish one final metrics tick. Idempotent.
    pub fn shutdown(&mut self) -> DrainReport {
        if self.finished {
            return DrainReport {
                datasets: 0,
                errors: 0,
            };
        }
        self.finished = true;
        self.stop.store(true, Ordering::SeqCst);
        for acceptor in self.acceptors.drain(..) {
            stop_loop(&self.metrics, acceptor);
        }
        let sessions: Vec<_> = {
            let mut guard = self
                .session_handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for h in sessions {
            let _ = h.join();
        }
        let report = self.registry.drain();
        if report.errors > 0 {
            self.metrics.journal_warn(
                "drain_errors",
                format!("{} dataset(s) failed to drain", report.errors),
                0,
            );
        }
        self.metrics.journal_session(
            "server_stopped",
            format!("drained {} dataset(s)", report.datasets),
            0,
        );
        // Last: the publisher's stopping tick sees the drained server
        // and the events above.
        if let Some(publisher) = self.publisher.take() {
            stop_loop(&self.metrics, publisher);
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        report
    }
}

/// Stop one of the server's loops, journaling a stop that had to detach
/// a stuck thread or found a panicked one.
fn stop_loop(metrics: &ServerMetrics, mut worker: Periodic) {
    if let Err(e) = worker.stop() {
        metrics.journal_warn("loop_stop_failed", e.to_string(), 0);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};

    #[test]
    fn starts_and_stops_without_listeners() {
        // The session poll cadence and the journal ring are constants.
        assert_eq!(SESSION_READ_TIMEOUT, Duration::from_millis(250));
        assert_eq!(artsparse_metrics::DEFAULT_JOURNAL_CAPACITY, 1024);
        let mut handle = Server::start(ServerConfig::default(), MemFactory).unwrap();
        assert!(handle.tcp_addr().is_none());
        let report = handle.shutdown();
        assert_eq!(
            report,
            DrainReport {
                datasets: 0,
                errors: 0
            }
        );
        // Idempotent.
        handle.shutdown();
    }

    #[test]
    fn tcp_round_trip_on_an_ephemeral_port() {
        let config = ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        };
        let mut handle = Server::start(config, MemFactory).unwrap();
        let addr = handle.tcp_addr().expect("bound");
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut write = stream;
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK artsparse/1 ready"), "{line}");
        write
            .write_all(b"HELLO t\nCREATE d 4x4\nPUT d 1\n1 1 5.5\nGET d 1 1\nQUIT\n")
            .unwrap();
        let mut replies = String::new();
        for _ in 0..5 {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            replies.push_str(&l);
        }
        assert!(replies.contains("OK found=true value=5.5"), "{replies}");
        assert!(replies.ends_with("OK bye\n"), "{replies}");
        let report = handle.shutdown();
        assert_eq!(report.errors, 0);
        assert_eq!(report.datasets, 1);
    }
}
