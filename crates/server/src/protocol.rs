//! The `artsparse/1` wire protocol: command table, error codes, and the
//! request/response grammar.
//!
//! The protocol is line-oriented UTF-8 (see `PROTOCOL.md` at the repo
//! root for the full specification): every request is one command line
//! terminated by `\n` (a trailing `\r` is tolerated and stripped),
//! optionally followed by a fixed number of data lines (`PUT`/`INGEST`).
//! Every response is one status line — `OK …` or `ERR <CODE> <message>`
//! — optionally followed by a payload whose exact line count the status
//! line announces (`GET`, `SCAN`, `STATS`, `METRICS`).
//!
//! This module is pure: parsing and rendering only, no sockets. The
//! [`COMMANDS`] and [`ErrorCode::ALL`] tables are the machine-readable
//! source of truth that the integration tests check `PROTOCOL.md`
//! against, so spec and server cannot drift apart silently.

use artsparse_storage::StorageError;

/// Protocol version token exchanged in greetings and `HELLO`.
pub const PROTOCOL_VERSION: &str = "artsparse/1";

/// One row of the command table: name, argument syntax, one-line summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandSpec {
    /// Upper-case command name as it appears on the wire.
    pub name: &'static str,
    /// Argument syntax sketch (for usage messages and the spec).
    pub syntax: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every command the server accepts, in spec order.
///
/// The `server` integration test enumerates this table against
/// `PROTOCOL.md`; adding a command without documenting it fails CI.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "HELLO",
        syntax: "HELLO <tenant> [artsparse/<version>]",
        summary: "bind this session to a tenant namespace",
    },
    CommandSpec {
        name: "CREATE",
        syntax: "CREATE <dataset> <d0>x<d1>[x<d2>...]",
        summary: "create (idempotently) a dataset with the given shape",
    },
    CommandSpec {
        name: "PUT",
        syntax: "PUT <dataset> <n>",
        summary: "synchronously commit n COO points as one fragment",
    },
    CommandSpec {
        name: "INGEST",
        syntax: "INGEST <dataset> <n>",
        summary: "stream n COO points through the WAL-acked write buffer",
    },
    CommandSpec {
        name: "GET",
        syntax: "GET <dataset> <c0> <c1> [<c2>...]",
        summary: "read one point",
    },
    CommandSpec {
        name: "SCAN",
        syntax: "SCAN <dataset> <lo0:hi0> [<lo1:hi1>...] [LIMIT <n>]",
        summary: "read every stored point in an inclusive region",
    },
    CommandSpec {
        name: "FLUSH",
        syntax: "FLUSH <dataset>",
        summary: "group-commit the dataset's write buffer",
    },
    CommandSpec {
        name: "CONSOLIDATE",
        syntax: "CONSOLIDATE <dataset>",
        summary: "merge the dataset's fragments into one run of ≤ 4 096-point fragments",
    },
    CommandSpec {
        name: "STATS",
        syntax: "STATS [<dataset>]",
        summary: "tenant-scoped store statistics as key/value lines",
    },
    CommandSpec {
        name: "METRICS",
        syntax: "METRICS",
        summary: "server-wide Prometheus exposition over the wire",
    },
    CommandSpec {
        name: "PING",
        syntax: "PING",
        summary: "liveness probe",
    },
    CommandSpec {
        name: "QUIT",
        syntax: "QUIT",
        summary: "close this session",
    },
    CommandSpec {
        name: "SHUTDOWN",
        syntax: "SHUTDOWN",
        summary: "drain every dataset and stop the server",
    },
];

/// Typed protocol error codes — the `<CODE>` token of an `ERR` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unknown command word.
    BadCmd,
    /// Malformed arguments or data lines.
    BadArg,
    /// A data command arrived before `HELLO`.
    NoTenant,
    /// `HELLO` requested a protocol version this server does not speak.
    Unsupported,
    /// The dataset has not been created in this tenant's namespace.
    NoDataset,
    /// `CREATE` names an existing dataset with a different shape.
    Exists,
    /// The batch or scan exceeds the server's configured size bounds.
    TooBig,
    /// The tenant's point or byte quota is exhausted.
    Quota,
    /// The engine's admission control rejected the batch
    /// ([`StorageError::Backpressure`]); retry after backing off.
    Backpressure,
    /// The engine's write path is read-only after repeated failures
    /// ([`StorageError::ReadOnly`]); reads still serve.
    ReadOnly,
    /// Stored data failed checksum verification
    /// ([`StorageError::ChecksumMismatch`], possibly wrapped in
    /// retry exhaustion).
    Checksum,
    /// A fragment is structurally corrupt ([`StorageError::CorruptFragment`]).
    Corrupt,
    /// A transient fault persisted through every retry
    /// ([`StorageError::RetriesExhausted`]).
    Retries,
    /// Shape/coordinate/format mismatch ([`StorageError::Mismatch`],
    /// [`StorageError::Tensor`], [`StorageError::Format`]).
    Mismatch,
    /// Element size mismatch ([`StorageError::ElementSizeMismatch`]).
    ElemSize,
    /// An underlying device I/O failure ([`StorageError::Io`]).
    Io,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// A server-side invariant failure. The code stays in the table for
    /// clients; no request path of this server answers it.
    Internal,
}

impl ErrorCode {
    /// Every error code, in spec order (checked against `PROTOCOL.md`).
    pub const ALL: &'static [ErrorCode] = &[
        ErrorCode::BadCmd,
        ErrorCode::BadArg,
        ErrorCode::NoTenant,
        ErrorCode::Unsupported,
        ErrorCode::NoDataset,
        ErrorCode::Exists,
        ErrorCode::TooBig,
        ErrorCode::Quota,
        ErrorCode::Backpressure,
        ErrorCode::ReadOnly,
        ErrorCode::Checksum,
        ErrorCode::Corrupt,
        ErrorCode::Retries,
        ErrorCode::Mismatch,
        ErrorCode::ElemSize,
        ErrorCode::Io,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];

    /// The wire token (`BACKPRESSURE`, `QUOTA`, …).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadCmd => "BADCMD",
            ErrorCode::BadArg => "BADARG",
            ErrorCode::NoTenant => "NO_TENANT",
            ErrorCode::Unsupported => "UNSUPPORTED",
            ErrorCode::NoDataset => "NO_DATASET",
            ErrorCode::Exists => "EXISTS",
            ErrorCode::TooBig => "TOOBIG",
            ErrorCode::Quota => "QUOTA",
            ErrorCode::Backpressure => "BACKPRESSURE",
            ErrorCode::ReadOnly => "READONLY",
            ErrorCode::Checksum => "CHECKSUM",
            ErrorCode::Corrupt => "CORRUPT",
            ErrorCode::Retries => "RETRIES",
            ErrorCode::Mismatch => "MISMATCH",
            ErrorCode::ElemSize => "ELEMSIZE",
            ErrorCode::Io => "IO",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::Internal => "INTERNAL",
        }
    }

    /// Map a typed [`StorageError`] onto its protocol error code.
    ///
    /// This is the load-shedding contract of the tentpole: the engine's
    /// overload rejections (`Backpressure`, `ReadOnly`) become typed
    /// protocol errors the client can back off on — never dropped
    /// connections. Checksum classification runs first so a
    /// retry-exhausted checksum failure reports as corruption
    /// (`CHECKSUM`), not availability (`RETRIES`).
    pub fn from_storage_error(e: &StorageError) -> ErrorCode {
        if e.is_checksum_mismatch() {
            return ErrorCode::Checksum;
        }
        match e {
            StorageError::Backpressure { .. } => ErrorCode::Backpressure,
            StorageError::ReadOnly { .. } => ErrorCode::ReadOnly,
            StorageError::ChecksumMismatch { .. } => ErrorCode::Checksum,
            StorageError::CorruptFragment { .. } => ErrorCode::Corrupt,
            StorageError::RetriesExhausted { .. } => ErrorCode::Retries,
            StorageError::Mismatch { .. } | StorageError::Tensor(_) | StorageError::Format(_) => {
                ErrorCode::Mismatch
            }
            StorageError::ElementSizeMismatch { .. } => ErrorCode::ElemSize,
            StorageError::Io(_) => ErrorCode::Io,
        }
    }
}

/// Render an `ERR` status line. The message is flattened to one line.
pub fn err_line(code: ErrorCode, message: &str) -> String {
    let flat: String = message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {} {}", code.name(), flat.trim())
}

/// Render the `ERR` line for a typed storage error (code + cause chain).
pub fn storage_err_line(e: &StorageError) -> String {
    err_line(ErrorCode::from_storage_error(e), &e.chain_string())
}

/// A parsed command line: upper-cased command word plus raw argument
/// tokens (whitespace-split).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The command word, upper-cased.
    pub command: String,
    /// The remaining whitespace-separated tokens, verbatim.
    pub args: Vec<String>,
}

/// Split a request line into command + args. Empty lines return `None`
/// (the session skips them rather than erroring).
pub fn parse_request(line: &str) -> Option<Request> {
    let mut tokens = line.split_whitespace();
    let command = tokens.next()?.to_ascii_uppercase();
    Some(Request {
        command,
        args: tokens.map(str::to_string).collect(),
    })
}

/// Whether `name` is a valid tenant or dataset identifier:
/// `[A-Za-z0-9_-]{1,64}`. The charset keeps identifiers shell-, path-,
/// and metrics-safe (hyphens are sanitized to `_` in metric names).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Parse a `CREATE` shape argument like `64x64x64` into dimension sizes.
pub fn parse_shape(arg: &str) -> Result<Vec<u64>, String> {
    let dims: Result<Vec<u64>, _> = arg.split('x').map(str::parse::<u64>).collect();
    match dims {
        Ok(dims) if !dims.is_empty() && dims.iter().all(|&d| d > 0) => Ok(dims),
        _ => Err(format!(
            "shape must look like 64x64 with positive sizes, got {arg:?}"
        )),
    }
}

/// Parse one `SCAN` bound token `lo:hi` (inclusive).
pub fn parse_bound(arg: &str) -> Result<(u64, u64), String> {
    let Some((lo, hi)) = arg.split_once(':') else {
        return Err(format!("bound must look like lo:hi, got {arg:?}"));
    };
    let (Ok(lo), Ok(hi)) = (lo.parse::<u64>(), hi.parse::<u64>()) else {
        return Err(format!("bound must be integers lo:hi, got {arg:?}"));
    };
    if lo > hi {
        return Err(format!("bound lo must not exceed hi, got {arg:?}"));
    }
    Ok((lo, hi))
}

/// Parse one `PUT`/`INGEST` data line: `<c0> <c1> ... <ck> <value>`.
/// Returns the coordinates and the value.
pub fn parse_point(line: &str) -> Result<(Vec<u64>, f64), String> {
    let mut coords = Vec::new();
    let value = parse_point_into(line, &mut coords)?;
    Ok((coords, value))
}

/// [`parse_point`] without allocating: append the line's coordinates to
/// `coords` and return its value. On error `coords` is left as it was.
pub fn parse_point_into(line: &str, coords: &mut Vec<u64>) -> Result<f64, String> {
    let start = coords.len();
    let mut tokens = line.split_whitespace();
    // Every token but the last is a coordinate: parse each one once the
    // next token shows it was not the value.
    let mut last = tokens.next();
    let mut coord_tokens = 0usize;
    let mut all_coords = true;
    for token in tokens {
        match last.map(str::parse::<u64>) {
            Some(Ok(c)) => coords.push(c),
            _ => all_coords = false,
        }
        coord_tokens += 1;
        last = Some(token);
    }
    let refusal = match last {
        Some(token) if coord_tokens > 0 && all_coords => match token.parse::<f64>() {
            Ok(value) => return Ok(value),
            Err(_) => format!("value must be a float, got {token:?}"),
        },
        _ if coord_tokens == 0 => {
            format!("data line needs at least one coordinate and a value, got {line:?}")
        }
        _ => format!("coordinates must be unsigned integers in {line:?}"),
    };
    coords.truncate(start);
    Err(refusal)
}

/// Render one point as a payload line. `f64` Display round-trips through
/// `parse`, so a value read back over the wire is bit-exact.
pub fn render_point(coord: &[u64], value: f64) -> String {
    let mut out = String::new();
    for c in coord {
        out.push_str(&c.to_string());
        out.push(' ');
    }
    out.push_str(&format_value(value));
    out
}

/// Canonical wire rendering of a value (Rust `Display`, which is the
/// shortest string that round-trips).
pub fn format_value(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_table_is_unique_and_uppercase() {
        let mut seen = std::collections::BTreeSet::new();
        for c in COMMANDS {
            assert!(seen.insert(c.name), "duplicate command {}", c.name);
            assert_eq!(c.name, c.name.to_ascii_uppercase());
            assert!(c.syntax.starts_with(c.name), "{}", c.name);
            assert!(!c.summary.is_empty());
        }
    }

    #[test]
    fn error_codes_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for e in ErrorCode::ALL {
            assert!(seen.insert(e.name()), "duplicate code {}", e.name());
        }
    }

    #[test]
    fn storage_errors_map_to_typed_codes() {
        use artsparse_storage::FragmentSection;
        let cases = [
            (
                StorageError::Backpressure {
                    resource: "buffer",
                    occupancy: 10,
                    limit: 5,
                },
                ErrorCode::Backpressure,
            ),
            (
                StorageError::ReadOnly {
                    consecutive_failures: 3,
                },
                ErrorCode::ReadOnly,
            ),
            (
                StorageError::checksum_mismatch("f", FragmentSection::Index, 1, 2),
                ErrorCode::Checksum,
            ),
            (StorageError::corrupt("f", "broken"), ErrorCode::Corrupt),
            (
                StorageError::Mismatch { reason: "s".into() },
                ErrorCode::Mismatch,
            ),
            (
                StorageError::ElementSizeMismatch {
                    expected: 8,
                    found: 4,
                },
                ErrorCode::ElemSize,
            ),
            (
                StorageError::Io(std::io::Error::other("disk")),
                ErrorCode::Io,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(ErrorCode::from_storage_error(&err), want, "{err}");
        }
    }

    #[test]
    fn retry_wrapped_checksum_reports_corruption_not_availability() {
        use artsparse_storage::FragmentSection;
        let wrapped = StorageError::RetriesExhausted {
            attempts: 3,
            source: Box::new(StorageError::checksum_mismatch(
                "f",
                FragmentSection::Value,
                1,
                2,
            )),
        };
        assert_eq!(ErrorCode::from_storage_error(&wrapped), ErrorCode::Checksum);
        let plain = StorageError::RetriesExhausted {
            attempts: 3,
            source: Box::new(StorageError::Io(std::io::Error::other("flaky"))),
        };
        assert_eq!(ErrorCode::from_storage_error(&plain), ErrorCode::Retries);
    }

    #[test]
    fn err_lines_are_single_lines() {
        let line = err_line(ErrorCode::BadArg, "multi\nline\rmessage");
        assert_eq!(line, "ERR BADARG multi line message");
        let e = StorageError::Backpressure {
            resource: "wal",
            occupancy: 9,
            limit: 8,
        };
        let line = storage_err_line(&e);
        assert!(line.starts_with("ERR BACKPRESSURE "), "{line}");
        assert!(line.contains("wal") && line.contains('9') && line.contains('8'));
    }

    #[test]
    fn request_parsing_uppercases_the_command_only() {
        let r = parse_request("  put  DS-1 5 ").unwrap();
        assert_eq!(r.command, "PUT");
        assert_eq!(r.args, vec!["DS-1", "5"]);
        assert!(parse_request("   ").is_none());
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("tenant-a_1"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("dot.dot"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn shape_and_bound_parsing() {
        assert_eq!(parse_shape("64x64x64").unwrap(), vec![64, 64, 64]);
        assert_eq!(parse_shape("7").unwrap(), vec![7]);
        assert!(parse_shape("64x0").is_err());
        assert!(parse_shape("x").is_err());
        assert!(parse_shape("a x b").is_err());
        assert_eq!(parse_bound("3:9").unwrap(), (3, 9));
        assert!(parse_bound("9:3").is_err());
        assert!(parse_bound("9").is_err());
    }

    #[test]
    fn point_lines_round_trip() {
        let (c, v) = parse_point("1 2 3 0.12345678901234567").unwrap();
        assert_eq!(c, vec![1, 2, 3]);
        let rendered = render_point(&c, v);
        let (c2, v2) = parse_point(&rendered).unwrap();
        assert_eq!(c, c2);
        assert_eq!(v.to_bits(), v2.to_bits(), "Display must round-trip");
        assert!(parse_point("5").is_err());
        assert!(parse_point("a b 1.0").is_err());
        assert!(parse_point("1 2 notafloat").is_err());
    }

    /// The allocating parse `parse_point_into` replaced: split, then
    /// convert. It fixes which refusal a malformed line gets.
    fn split_then_parse(line: &str) -> Result<(Vec<u64>, f64), String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 2 {
            return Err(format!(
                "data line needs at least one coordinate and a value, got {line:?}"
            ));
        }
        let (coord_tokens, value_token) = tokens.split_at(tokens.len() - 1);
        let coords: Result<Vec<u64>, _> = coord_tokens.iter().map(|t| t.parse::<u64>()).collect();
        let Ok(coords) = coords else {
            return Err(format!("coordinates must be unsigned integers in {line:?}"));
        };
        let Ok(value) = value_token[0].parse::<f64>() else {
            return Err(format!("value must be a float, got {:?}", value_token[0]));
        };
        Ok((coords, value))
    }

    #[test]
    fn parse_point_into_equals_parse_point() {
        let lines = [
            // Valid.
            "1 2 3 0.12345678901234567",
            "7 -1.5",
            "  4\t5  inf ",
            "0 0 1e300",
            // Malformed: too short, bad coordinates, bad value, and both.
            "",
            "   ",
            "5",
            "a b 1.0",
            "1 -2 3.0",
            "1 2.5 3.0",
            "1 2 notafloat",
            "x notafloat",
            "18446744073709551616 1.0",
        ];
        for line in lines {
            let mut coords = vec![42];
            let into = parse_point_into(line, &mut coords).map(|v| (coords[1..].to_vec(), v));
            let whole = split_then_parse(line);
            assert_eq!(parse_point(line), whole, "{line:?}");
            match (&into, &whole) {
                (Ok((c1, v1)), Ok((c2, v2))) => {
                    assert_eq!(c1, c2, "{line:?}");
                    assert_eq!(v1.to_bits(), v2.to_bits(), "{line:?}");
                }
                (Err(e1), Err(e2)) => {
                    assert_eq!(e1, e2, "{line:?}");
                    assert_eq!(coords, [42], "a refused line appends nothing: {line:?}");
                }
                _ => panic!("{line:?}: {into:?} against {whole:?}"),
            }
        }
    }
}
