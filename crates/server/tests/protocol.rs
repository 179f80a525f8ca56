//! End-to-end protocol tests: real sockets, concurrent sessions,
//! multi-shard routing, quotas, typed load shedding, graceful drain,
//! and the PROTOCOL.md ↔ implementation sync check.

use artsparse_core::FormatKind;
use artsparse_server::protocol::{ErrorCode, COMMANDS};
use artsparse_server::quota::Quota;
use artsparse_server::{
    BackendFactory, FsFactory, MemFactory, Server, ServerConfig, SERVED_ORGANIZATION,
};
use artsparse_storage::{
    EngineConfig, FailingBackend, FsBackend, HealthConfig, IngestConfig, MemBackend, RetryPolicy,
    SchedulerConfig, StorageEngine, StorageError, JOURNAL_JSONL, METRICS_JSONL, METRICS_PROM,
};
use artsparse_tensor::{CoordBuffer, Shape};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A line-oriented test client over any stream transport.
struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    fn tcp(addr: std::net::SocketAddr) -> Client {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let reader = Box::new(stream.try_clone().expect("clone")) as Box<dyn Read + Send>;
        let mut c = Client {
            reader: BufReader::new(reader),
            writer: Box::new(stream),
        };
        assert!(c.line().starts_with("OK artsparse/1 ready"), "greeting");
        c
    }

    #[cfg(unix)]
    fn unix(path: &std::path::Path) -> Client {
        let stream = std::os::unix::net::UnixStream::connect(path).expect("connect unix");
        let reader = Box::new(stream.try_clone().expect("clone")) as Box<dyn Read + Send>;
        let mut c = Client {
            reader: BufReader::new(reader),
            writer: Box::new(stream),
        };
        assert!(c.line().starts_with("OK artsparse/1 ready"), "greeting");
        c
    }

    fn line(&mut self) -> String {
        let mut l = String::new();
        self.reader.read_line(&mut l).expect("read line");
        l.trim_end().to_string()
    }

    /// Send raw text (may be several lines) and read one status line.
    /// One write: a trailing newline sent on its own would wait out the
    /// server's delayed ACK under Nagle's algorithm.
    fn send(&mut self, text: &str) -> String {
        self.writer
            .write_all(format!("{text}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        self.line()
    }

    /// Read `n` payload lines after a status line.
    fn payload(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.line()).collect()
    }
}

fn server(config: ServerConfig) -> artsparse_server::ServerHandle {
    Server::start(config, MemFactory).expect("start server")
}

fn tcp_config() -> ServerConfig {
    ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    }
}

#[test]
fn put_acked_in_one_session_is_readable_from_another() {
    let mut handle = server(tcp_config());
    let addr = handle.tcp_addr().unwrap();

    let mut a = Client::tcp(addr);
    assert_eq!(a.send("HELLO acme"), "OK tenant=acme proto=artsparse/1");
    assert_eq!(a.send("CREATE grid 16x16"), "OK created=grid existed=false");
    assert!(a
        .send("PUT grid 2\n1 2 3.5\n4 5 -1.25")
        .starts_with("OK acked=2"));

    let mut b = Client::tcp(addr);
    assert_eq!(b.send("HELLO acme"), "OK tenant=acme proto=artsparse/1");
    assert_eq!(b.send("GET grid 1 2"), "OK found=true value=3.5");

    // Streaming ingest acked in B is immediately visible to A (the
    // engine snapshots the write buffer on reads), before any flush.
    assert_eq!(b.send("INGEST grid 1\n7 7 9"), "OK acked=1");
    assert_eq!(a.send("GET grid 7 7"), "OK found=true value=9");

    // Tenants are namespaces: the same dataset name elsewhere is empty.
    let mut c = Client::tcp(addr);
    assert_eq!(c.send("HELLO other"), "OK tenant=other proto=artsparse/1");
    assert!(c.send("GET grid 1 2").starts_with("ERR NO_DATASET"));

    handle.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_and_tcp_sessions_share_the_same_shards() {
    let dir = tempfile::tempdir().unwrap();
    let socket = dir.path().join("artsparse.sock");
    let config = ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        unix: Some(socket.clone()),
        ..ServerConfig::default()
    };
    let mut handle = server(config);

    let mut tcp = Client::tcp(handle.tcp_addr().unwrap());
    tcp.send("HELLO t");
    tcp.send("CREATE d 8x8");
    assert!(tcp.send("PUT d 1\n3 3 42").starts_with("OK acked=1"));

    let mut unix = Client::unix(&socket);
    unix.send("HELLO t");
    assert_eq!(unix.send("GET d 3 3"), "OK found=true value=42");

    handle.shutdown();
    assert!(!socket.exists(), "socket file must be removed on shutdown");
}

#[test]
fn datasets_hash_across_multiple_shards() {
    let config = ServerConfig {
        shards: 4,
        ..tcp_config()
    };
    let mut handle = server(config);
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    for i in 0..10 {
        assert!(c
            .send(&format!("CREATE d{i} 4x4"))
            .starts_with("OK created"));
    }
    let status = c.send("STATS");
    let n: usize = status.trim_start_matches("OK lines=").parse().unwrap();
    let payload = c.payload(n);
    assert_eq!(payload.len(), 11, "tenant line + 10 datasets");
    let shards: std::collections::BTreeSet<&str> = payload[1..]
        .iter()
        .map(|l| {
            l.split_whitespace()
                .find(|t| t.starts_with("shard="))
                .expect("shard field")
        })
        .collect();
    assert!(
        shards.len() >= 2,
        "10 datasets must spread across >=2 of 4 shards, got {shards:?}"
    );
    handle.shutdown();
}

#[test]
fn quotas_refuse_whole_batches_and_refund_engine_rejections() {
    let config = ServerConfig {
        default_quota: Quota {
            max_points: 10,
            max_bytes: 0,
        },
        ..tcp_config()
    };
    let mut handle = server(config);
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO small");
    c.send("CREATE d 64x64");
    assert!(c
        .send("PUT d 8\n0 0 1\n0 1 1\n0 2 1\n0 3 1\n0 4 1\n0 5 1\n0 6 1\n0 7 1")
        .starts_with("OK acked=8"));
    let refused = c.send("PUT d 3\n1 0 1\n1 1 1\n1 2 1");
    assert!(
        refused.starts_with("ERR QUOTA") && refused.contains("8 of 10"),
        "{refused}"
    );
    // The refused batch charged nothing: two more points still fit.
    assert!(c.send("PUT d 2\n1 0 1\n1 1 1").starts_with("OK acked=2"));
    assert!(c.send("PUT d 1\n2 0 1").starts_with("ERR QUOTA"));
    // A batch the ENGINE rejects (unknown dataset) is refunded too.
    let mut other = Client::tcp(handle.tcp_addr().unwrap());
    other.send("HELLO small2");
    assert!(other
        .send("PUT nope 1\n0 0 1")
        .starts_with("ERR NO_DATASET"));
    assert!(other.send("CREATE d 8x8").starts_with("OK created"));
    assert!(other.send("PUT d 1\n0 0 1").starts_with("OK acked=1"));
    handle.shutdown();
}

#[test]
fn backpressure_surfaces_as_a_typed_protocol_error() {
    let ingest = IngestConfig {
        flush_points: 1 << 30,
        flush_interval_ms: u64::MAX,
        max_buffered_bytes: 64, // 8 f64 points
        max_wal_backlog_bytes: 0,
        backpressure_resume_pct: 50,
    };
    let config = ServerConfig {
        engine: EngineConfig::default().with_ingest(ingest),
        scheduler: None,
        ..tcp_config()
    };
    let mut handle = server(config);
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 64x64");
    assert!(c
        .send("INGEST d 8\n0 0 1\n0 1 1\n0 2 1\n0 3 1\n0 4 1\n0 5 1\n0 6 1\n0 7 1")
        .starts_with("OK acked=8"));
    let shed = c.send("INGEST d 1\n1 0 1");
    assert!(
        shed.starts_with("ERR BACKPRESSURE"),
        "engine admission control must surface as a typed protocol error: {shed}"
    );
    // The session survives load shedding — the connection is NOT dropped.
    assert_eq!(c.send("GET d 0 0"), "OK found=true value=1");
    // An explicit flush drains the buffer and admission reopens.
    assert!(c.send("FLUSH d").starts_with("OK flushed fragment="));
    assert!(c.send("INGEST d 1\n1 0 1").starts_with("OK acked=1"));
    handle.shutdown();
}

/// One whole `STATS` reply, pinned field by field: a committed fragment,
/// points acked into the write buffer (each batch one WAL blob) and one
/// batch shed by admission control. The fragment is a 2-point CSF tree:
/// 284 bytes, where the same points stored as COO took 212.
#[test]
fn stats_reports_buffered_points_and_shed_batches() {
    let ingest = IngestConfig {
        flush_points: 1 << 30,
        flush_interval_ms: u64::MAX,
        max_buffered_bytes: 24, // 3 f64 points
        ..IngestConfig::default()
    };
    let config = ServerConfig {
        engine: EngineConfig::default().with_ingest(ingest),
        scheduler: None,
        ..tcp_config()
    };
    let mut handle = server(config);
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 16x16");
    assert!(c.send("PUT d 2\n0 0 1\n0 1 2").starts_with("OK acked=2"));
    assert_eq!(c.send("INGEST d 2\n3 3 3\n3 4 4"), "OK acked=2");
    assert_eq!(c.send("INGEST d 1\n5 5 5"), "OK acked=1");
    assert!(c.send("INGEST d 1\n6 6 6").starts_with("ERR BACKPRESSURE"));
    assert_eq!(c.send("STATS d"), "OK lines=2");
    assert_eq!(
        c.payload(2),
        [
            "tenant=t points=5 point_limit=0 bytes=40 byte_limit=0",
            "dataset=d shard=0 shape=16x16 fragments=1 points=2 bytes=284 health=healthy \
             buffered_points=3 buffered_bytes=24 wal_backlog_bytes=128 backpressure_rejections=1",
        ]
    );
    handle.shutdown();
}

/// Every dataset shares one fault-injected backend the test holds.
struct FailingFactory(Arc<FailingBackend<MemBackend>>);

impl BackendFactory for FailingFactory {
    type Backend = Arc<FailingBackend<MemBackend>>;
    fn open(&self, _key: &str) -> Result<Self::Backend, StorageError> {
        Ok(Arc::clone(&self.0))
    }
}

#[test]
fn write_faults_escalate_to_a_typed_read_only_error() {
    let backend = Arc::new(FailingBackend::new(MemBackend::new()));
    let config = ServerConfig {
        engine: EngineConfig::default()
            .with_retry(RetryPolicy::none())
            .with_health(HealthConfig {
                read_only_after: 1,
                probe_interval_ms: u64::MAX,
            }),
        scheduler: None,
        ..tcp_config()
    };
    let mut handle = Server::start(config, FailingFactory(Arc::clone(&backend))).unwrap();
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 8x8");
    assert!(c.send("PUT d 1\n0 0 1").starts_with("OK acked=1"));

    backend.set_out_of_space(true);
    let first = c.send("PUT d 1\n1 1 2");
    assert!(
        first.starts_with("ERR IO") || first.starts_with("ERR RETRIES"),
        "first failed write reports the device fault: {first}"
    );
    let second = c.send("PUT d 1\n2 2 3");
    assert!(
        second.starts_with("ERR READONLY"),
        "after the health gate trips, writes shed with READONLY: {second}"
    );
    // Reads still serve while the write path is fenced.
    assert_eq!(c.send("GET d 0 0"), "OK found=true value=1");
    let status = c.send("STATS d");
    let n: usize = status.trim_start_matches("OK lines=").parse().unwrap();
    let payload = c.payload(n).join("\n");
    assert!(payload.contains("health=read_only"), "{payload}");
    backend.disarm();
    handle.shutdown();
}

#[test]
fn graceful_drain_persists_acked_ingest_to_disk() {
    let dir = tempfile::tempdir().unwrap();
    let config = tcp_config();
    let mut handle = Server::start(config, FsFactory::new(dir.path())).unwrap();
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 16x16");
    // Acked but never flushed: drain must group-commit it.
    assert_eq!(c.send("INGEST d 3\n1 1 10\n2 2 20\n3 3 30"), "OK acked=3");
    drop(c);
    let report = handle.shutdown();
    assert_eq!((report.datasets, report.errors), (1, 0), "{report:?}");

    // Reopen the dataset directly from its directory.
    let backend = FsBackend::new(dir.path().join("t/d")).unwrap();
    let engine = StorageEngine::open_with(
        backend,
        SERVED_ORGANIZATION,
        Shape::new(vec![16, 16]).unwrap(),
        8,
        EngineConfig::default(),
    )
    .unwrap();
    let mut queries = CoordBuffer::new(2);
    for c in [[1u64, 1], [2, 2], [3, 3]] {
        queries.push(&c).unwrap();
    }
    let values = engine.read_values::<f64>(&queries).unwrap();
    assert_eq!(values, vec![Some(10.0), Some(20.0), Some(30.0)]);
    let stats = engine.stats().unwrap();
    assert!(stats.fragments >= 1, "drain committed a fragment");
    assert_eq!(stats.wal_backlog_bytes, 0, "drain retired the WAL");
    drop(engine);

    // A restarted server re-attaches lazily: the first CREATE with the
    // original shape reopens the store and reports existed=true, and
    // every previously acked point is readable.
    let mut handle = Server::start(tcp_config(), FsFactory::new(dir.path())).unwrap();
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    assert_eq!(
        c.send("GET d 1 1"),
        "ERR NO_DATASET dataset \"d\" has not been created; use CREATE"
    );
    assert_eq!(c.send("CREATE d 16x16"), "OK created=d existed=true");
    assert_eq!(c.send("GET d 2 2"), "OK found=true value=20");
    drop(c);
    handle.shutdown();
}

/// A store whose fragments an earlier process wrote as COO reopens under
/// the served organization: each fragment reads as the organization it
/// records, `GET` and `SCAN` answer from the mixed catalog (and the write
/// buffer over it), and `CONSOLIDATE` leaves only CSF fragments.
#[test]
fn a_coo_store_serves_as_a_mixed_catalog_and_consolidates_to_csf() {
    let dir = tempfile::tempdir().unwrap();
    let open = |kind: FormatKind| {
        let backend = FsBackend::new(dir.path().join("t/d")).unwrap();
        let shape = Shape::new(vec![16, 16]).unwrap();
        StorageEngine::open_with(backend, kind, shape, 8, EngineConfig::default()).unwrap()
    };
    let by_format = |engine: &StorageEngine<FsBackend>| {
        let formats = engine.stats().unwrap().by_format;
        formats.into_iter().collect::<Vec<_>>()
    };
    let coo = open(FormatKind::Coo);
    for batch in [
        [([1u64, 1], 10.0f64), ([2, 2], 20.0)],
        [([2, 2], 25.0), ([3, 3], 30.0)],
    ] {
        let mut coords = CoordBuffer::new(2);
        let mut values = Vec::new();
        for (coord, value) in batch {
            coords.push(&coord).unwrap();
            values.extend_from_slice(&value.to_le_bytes());
        }
        coo.write(&coords, &values).unwrap();
    }
    assert_eq!(by_format(&coo), [("COO".to_string(), 2)]);
    drop(coo);

    let config = ServerConfig {
        scheduler: None,
        ..tcp_config()
    };
    let mut handle = Server::start(config, FsFactory::new(dir.path())).unwrap();
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    assert_eq!(c.send("CREATE d 16x16"), "OK created=d existed=true");
    assert!(c
        .send("PUT d 1\n3 3 35")
        .starts_with("OK acked=1 fragment="));
    assert_eq!(c.send("INGEST d 1\n4 4 40"), "OK acked=1");
    for (get, want) in [
        ("GET d 1 1", "OK found=true value=10"),
        ("GET d 2 2", "OK found=true value=25"),
        ("GET d 3 3", "OK found=true value=35"),
        ("GET d 4 4", "OK found=true value=40"),
        ("GET d 5 5", "OK found=false"),
    ] {
        assert_eq!(c.send(get), want, "{get}");
    }
    let rows = ["1 1 10", "2 2 25", "3 3 35", "4 4 40"];
    assert_eq!(c.send("SCAN d 0:15 0:15"), "OK points=4 truncated=false");
    assert_eq!(c.payload(4), rows);
    assert_eq!(c.send("CONSOLIDATE d"), "OK merged=4 points=4");
    assert_eq!(c.send("SCAN d 0:15 0:15"), "OK points=4 truncated=false");
    assert_eq!(c.payload(4), rows);
    drop(c);
    handle.shutdown();

    let engine = open(SERVED_ORGANIZATION);
    assert_eq!(by_format(&engine), [("CSF".to_string(), 1)]);
    assert_eq!(engine.stats().unwrap().total_points, 4);
}

#[test]
fn shutdown_command_drains_and_unblocks_wait() {
    let mut handle = server(tcp_config());
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 4x4");
    assert!(c.send("PUT d 1\n0 0 1").starts_with("OK acked=1"));
    assert_eq!(c.send("SHUTDOWN"), "OK draining");
    handle.wait(); // returns because SHUTDOWN signalled
                   // Post-drain commands get a typed refusal or EOF, never a hang.
    c.writer.write_all(b"PING\n").unwrap();
    c.writer.flush().unwrap();
    let mut reply = String::new();
    let _ = c.reader.read_line(&mut reply);
    assert!(
        reply.is_empty() || reply.starts_with("ERR SHUTTING_DOWN"),
        "{reply:?}"
    );
    let report = handle.shutdown();
    assert_eq!(report.errors, 0);
}

#[test]
fn concurrent_tenant_sessions_do_not_interfere() {
    let config = ServerConfig {
        shards: 4,
        ..tcp_config()
    };
    let mut handle = server(config);
    let addr = handle.tcp_addr().unwrap();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::tcp(addr);
                c.send(&format!("HELLO tenant{w}"));
                c.send("CREATE d 32x32");
                for i in 0..20u64 {
                    let status = c.send(&format!(
                        "INGEST d 1\n{} {} {}",
                        i % 32,
                        i / 32,
                        w * 100 + 1
                    ));
                    assert!(status.starts_with("OK acked=1"), "{status}");
                }
                // Every tenant sees exactly its own value at (0, 0).
                assert_eq!(
                    c.send("GET d 0 0"),
                    format!("OK found=true value={}", w * 100 + 1)
                );
                c.send("QUIT");
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    handle.shutdown();
}

/// Sessions call one dataset's engine side by side, beside its
/// scheduler. Two writers interleave `INGEST` and `PUT` over shared cells
/// (plus one private row each, which each writer reads back at once), a
/// third session `GET`s the shared cells throughout, and the scheduler
/// flushes and consolidates underneath. Every answer the reader saw must
/// be a value a writer had acked for that cell, and the values the cells
/// hold once the writers stop must survive a drain and a restart.
#[test]
fn concurrent_sessions_on_one_dataset_keep_last_write_wins() {
    const WRITES: u64 = 60;
    let dir = tempfile::tempdir().unwrap();
    let config = || ServerConfig {
        engine: EngineConfig::default().with_ingest(IngestConfig {
            flush_interval_ms: 5,
            ..IngestConfig::default()
        }),
        scheduler: Some(SchedulerConfig {
            tick_ms: 2,
            min_consolidate_interval_ms: 10,
        }),
        ..tcp_config()
    };
    let mut handle = Server::start(config(), FsFactory::new(dir.path())).unwrap();
    let addr = handle.tcp_addr().unwrap();
    let mut setup = Client::tcp(addr);
    setup.send("HELLO t");
    assert_eq!(setup.send("CREATE d 16x16"), "OK created=d existed=false");

    // Shared cells are row 0; writer w also owns row 1 + w.
    let shared: Vec<(u64, u64)> = (0..4).map(|c| (0, c)).collect();
    // Every value acked per cell, by any writer.
    type Acked = HashMap<(u64, u64), HashSet<u64>>;
    let acked: Arc<Mutex<Acked>> = Arc::default();
    let writing = Arc::new(AtomicBool::new(true));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (acked, shared) = (Arc::clone(&acked), shared.clone());
            std::thread::spawn(move || {
                let mut c = Client::tcp(addr);
                c.send("HELLO t");
                for k in 0..WRITES {
                    let value = (w + 1) * 1000 + k;
                    let own = (1 + w, k % 16);
                    let mut cells = shared.clone();
                    cells.rotate_left((k % 4) as usize);
                    cells.push(own);
                    let verb = if k % 3 == 2 { "PUT" } else { "INGEST" };
                    let mut request = format!("{verb} d {}", cells.len());
                    for (r, col) in &cells {
                        request.push_str(&format!("\n{r} {col} {value}"));
                    }
                    let status = c.send(&request);
                    assert!(status.starts_with("OK acked=5"), "{verb}: {status}");
                    let mut book = acked.lock().unwrap();
                    for cell in &cells {
                        book.entry(*cell).or_default().insert(value);
                    }
                    drop(book);
                    // Read-your-writes: no one else writes this row.
                    assert_eq!(
                        c.send(&format!("GET d {} {}", own.0, own.1)),
                        format!("OK found=true value={value}")
                    );
                }
                c.send("QUIT");
            })
        })
        .collect();
    let reader = {
        let (writing, shared) = (Arc::clone(&writing), shared.clone());
        std::thread::spawn(move || {
            let mut c = Client::tcp(addr);
            c.send("HELLO t");
            let mut seen = Vec::new();
            while writing.load(Ordering::SeqCst) {
                for &(r, col) in &shared {
                    let answer = c.send(&format!("GET d {r} {col}"));
                    if let Some(v) = answer.strip_prefix("OK found=true value=") {
                        seen.push(((r, col), v.parse::<u64>().unwrap()));
                    } else {
                        assert_eq!(answer, "OK found=false");
                    }
                }
            }
            seen
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    writing.store(false, Ordering::SeqCst);
    let seen = reader.join().unwrap();
    assert!(!seen.is_empty(), "the reader ran beside the writers");
    let acked = acked.lock().unwrap();
    for (cell, value) in &seen {
        assert!(
            acked[cell].contains(value),
            "GET {cell:?} answered {value}, which no session acked there"
        );
    }

    let cells: Vec<(u64, u64)> = acked.keys().copied().collect();
    let read_all = |c: &mut Client| -> Vec<String> {
        cells
            .iter()
            .map(|(r, col)| c.send(&format!("GET d {r} {col}")))
            .collect()
    };
    let before = read_all(&mut setup);
    for (answer, cell) in before.iter().zip(&cells) {
        let value: u64 = answer
            .strip_prefix("OK found=true value=")
            .unwrap_or_else(|| panic!("{cell:?}: {answer}"))
            .parse()
            .unwrap();
        assert!(acked[cell].contains(&value), "{cell:?} holds {value}");
    }
    drop(setup);
    let report = handle.shutdown();
    assert_eq!((report.datasets, report.errors), (1, 0), "{report:?}");

    let mut handle = Server::start(config(), FsFactory::new(dir.path())).unwrap();
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    assert_eq!(c.send("CREATE d 16x16"), "OK created=d existed=true");
    assert_eq!(
        read_all(&mut c),
        before,
        "a drain and restart changed a cell"
    );
    drop(c);
    handle.shutdown();
}

/// Replies leave as soon as they are written. With Nagle's algorithm on
/// the server socket, every reply after the first of a pipelined burst
/// waited for the client's delayed ACK of the one before — at least
/// Linux's 40 ms floor — so a stall shows as ≥ 40 ms; 20 ms is half of
/// it. This catches a stall; it does not time the server.
#[test]
fn pipelined_requests_are_not_held_back_by_delayed_acks() {
    let mut handle = server(tcp_config());
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    let burst = "PING\n".repeat(200);
    // The fastest of three bursts, so one descheduled moment on a busy
    // host does not read as a stall.
    let fastest = (0..3)
        .map(|_| {
            let started = Instant::now();
            c.writer.write_all(burst.as_bytes()).unwrap();
            c.writer.flush().unwrap();
            for _ in 0..200 {
                assert_eq!(c.line(), "OK pong");
            }
            started.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < Duration::from_millis(20),
        "200 pipelined PINGs took {fastest:?}"
    );
    handle.shutdown();
}

#[test]
fn metrics_command_exposes_server_series_over_the_wire() {
    let mut handle = server(tcp_config());
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 4x4");
    c.send("PUT d 1\n0 0 1");
    let status = c.send("METRICS");
    let n: usize = status.trim_start_matches("OK lines=").parse().unwrap();
    let body = c.payload(n).join("\n");
    let doc = artsparse_metrics::exposition::parse(&body).expect("strict Prometheus parse");
    assert!(doc.value("artsparse_server_sessions_open").unwrap_or(0.0) >= 1.0);
    assert!(doc.value("artsparse_server_commands_total").unwrap_or(0.0) >= 2.0);
    assert_eq!(doc.value("artsparse_server_datasets"), Some(1.0));
    handle.shutdown();
}

/// `--metrics-out` mirrors the server's metrics into an exporter-style
/// directory: the strict exposition parser accepts `metrics.prom`, each
/// publish appends a `metrics.jsonl` line, and `journal.jsonl` holds the
/// session's `session_open` event.
#[test]
fn metrics_out_mirrors_the_series_and_the_journal() {
    let dir = tempfile::tempdir().unwrap();
    let mut handle = server(ServerConfig {
        metrics_out: Some(dir.path().to_path_buf()),
        export_interval_ms: 10,
        ..tcp_config()
    });
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 4x4");
    drop(c);
    handle.shutdown(); // the publisher's last tick runs after the drain
    let read = |name: &str| std::fs::read_to_string(dir.path().join(name)).unwrap();
    let doc =
        artsparse_metrics::exposition::parse(&read(METRICS_PROM)).expect("strict Prometheus parse");
    assert!(doc.value("artsparse_server_commands_total").unwrap_or(0.0) >= 2.0);
    assert!(read(METRICS_JSONL).lines().count() >= 1);
    let journal = read(JOURNAL_JSONL);
    assert!(
        journal
            .lines()
            .any(|event| event.contains("\"session_open\"")),
        "{journal}"
    );
    let last = journal.lines().last().unwrap_or_default();
    assert!(last.contains("\"server_stopped\""), "{journal}");
}

/// PROTOCOL.md is the spec; [`COMMANDS`] and [`ErrorCode::ALL`] are the
/// implementation. This test pins them together: adding a command or an
/// error code without documenting it fails CI, and vice versa the spec
/// cannot describe commands that do not exist (names are checked
/// exactly).
#[test]
fn protocol_md_documents_every_command_and_error_code() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROTOCOL.md"))
        .expect("PROTOCOL.md must exist at the repository root");
    for command in COMMANDS {
        assert!(
            spec.contains(&format!("### `{}`", command.name)),
            "PROTOCOL.md must document command {} with a '### `{}`' heading",
            command.name,
            command.name
        );
        assert!(
            spec.contains(command.syntax),
            "PROTOCOL.md must quote the exact syntax {:?}",
            command.syntax
        );
    }
    for code in ErrorCode::ALL {
        assert!(
            spec.contains(&format!("`{}`", code.name())),
            "PROTOCOL.md must document error code {}",
            code.name()
        );
    }
    assert!(
        spec.contains("artsparse/1"),
        "PROTOCOL.md must state the protocol version"
    );
}
