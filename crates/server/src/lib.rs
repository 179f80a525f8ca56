#![warn(missing_docs)]
//! `artsparse-server`: a multi-tenant tensor server exposing the
//! [`artsparse_storage`] engine over a line-oriented wire protocol.
//!
//! # Architecture
//!
//! - **Registry** — every open dataset, an
//!   [`artsparse_storage::StorageEngine`] behind an `Arc`, placed on one
//!   of `N` shards (stripes of `RwLock`ed maps) by FNV-1a of its
//!   tenant-qualified name. A request locks its shard only to find its
//!   dataset.
//! - **Sessions** — one thread per client connection (TCP or Unix
//!   socket), speaking the `artsparse/1` protocol documented in
//!   `PROTOCOL.md` at the repository root and codified in [`protocol`].
//!   A session runs each request's engine call itself; the engine keeps
//!   last-write-wins order among concurrent sessions and its scheduler.
//! - **Tenancy** — every session binds a tenant with `HELLO`; dataset
//!   names are namespaced per tenant, and each tenant is held to a
//!   point/byte [`quota::Quota`] charged before every write.
//! - **Typed load shedding** — the engine's
//!   [`Backpressure`](artsparse_storage::StorageError::Backpressure) and
//!   [`ReadOnly`](artsparse_storage::StorageError::ReadOnly) rejections
//!   surface as `ERR BACKPRESSURE` / `ERR READONLY` responses clients
//!   can back off on — never as dropped connections.
//!
//! # Example: embed a server and round-trip a point over TCP
//!
//! ```
//! use artsparse_server::{MemFactory, Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ServerConfig {
//!     tcp: Some("127.0.0.1:0".into()), // ephemeral port
//!     shards: 2,
//!     ..ServerConfig::default()
//! };
//! let mut handle = Server::start(config, MemFactory)?;
//!
//! let addr = handle.tcp_addr().ok_or("no TCP listener")?;
//! let stream = std::net::TcpStream::connect(addr)?;
//! let mut reader = BufReader::new(stream.try_clone()?);
//! let mut writer = stream;
//! let mut greeting = String::new();
//! reader.read_line(&mut greeting)?;
//! assert!(greeting.starts_with("OK artsparse/1 ready"));
//!
//! writer.write_all(b"HELLO demo\nCREATE grid 8x8\nPUT grid 1\n3 4 2.5\nGET grid 3 4\n")?;
//! let replies = reader.lines().take(4).collect::<Result<Vec<_>, _>>()?;
//! assert_eq!(replies[0], "OK tenant=demo proto=artsparse/1");
//! assert_eq!(replies[1], "OK created=grid existed=false");
//! assert!(replies[2].starts_with("OK acked=1 fragment="));
//! assert_eq!(replies[3], "OK found=true value=2.5");
//!
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! # Example: quotas refuse whole batches, typed and refundable
//!
//! ```
//! use artsparse_server::quota::{Quota, QuotaBook, QuotaExceeded};
//!
//! let book = QuotaBook::new(Quota { max_points: 10, max_bytes: 80 });
//! assert!(book.charge("tenant", 10, 80).is_ok());
//! // The next batch would cross the cap: refused whole, nothing charged.
//! assert!(matches!(
//!     book.charge("tenant", 1, 8),
//!     Err(QuotaExceeded::Points { used: 10, limit: 10 })
//! ));
//! // A write the engine later rejects is refunded.
//! book.refund("tenant", 10, 80);
//! assert_eq!(book.standing("tenant").points, 0);
//! ```

mod metrics;
pub mod protocol;
pub mod quota;
mod server;
mod session;
mod shard;

pub use server::{
    BackendFactory, DrainReport, FsFactory, MemFactory, Server, ServerConfig, ServerHandle,
};
