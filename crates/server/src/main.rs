//! The `artsparse-server` binary: parse flags, start the server, wait
//! for a `SHUTDOWN` command (or run forever), drain, report.

use artsparse_server::{quota::Quota, FsFactory, MemFactory, Server, ServerConfig, ServerHandle};
use artsparse_storage::SchedulerConfig;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
artsparse-server — multi-tenant tensor server (protocol: PROTOCOL.md)

USAGE:
    artsparse-server [OPTIONS]

OPTIONS:
    --tcp <ADDR>                TCP listen address (e.g. 127.0.0.1:4141; port 0 = ephemeral)
    --unix <PATH>               Unix socket path
    --data-dir <DIR>            durable datasets under DIR (default: in-memory)
    --shards <N>                dataset registry stripes (default 2)
    --quota-points <N>          default per-tenant point cap (0 = unlimited)
    --quota-bytes <N>           default per-tenant byte cap (0 = unlimited)
    --tenant-quota <T:P:B>      override for tenant T: P points, B bytes (repeatable)
    --metrics-out <DIR>         publish metrics.prom/metrics.jsonl/journal.jsonl into DIR
    --export-interval-ms <N>    publisher cadence (default 500)
    --max-batch-points <N>      largest accepted PUT/INGEST batch (default 1048576)
    --scan-limit <N>            largest SCAN region in cells (default 1048576)
    --no-scheduler              disable the per-dataset background flush/compact scheduler
    --no-shutdown-cmd           refuse the SHUTDOWN protocol command
    -h, --help                  print this help
";

fn parse_args(args: &[String]) -> Result<(ServerConfig, Option<PathBuf>), String> {
    let mut config = ServerConfig {
        scheduler: Some(SchedulerConfig::default()),
        ..ServerConfig::default()
    };
    let mut data_dir: Option<PathBuf> = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--tcp" => config.tcp = Some(value(&mut i, "--tcp")?),
            "--unix" => config.unix = Some(PathBuf::from(value(&mut i, "--unix")?)),
            "--data-dir" => data_dir = Some(PathBuf::from(value(&mut i, "--data-dir")?)),
            "--shards" => {
                config.shards = value(&mut i, "--shards")?
                    .parse()
                    .map_err(|_| "--shards needs an integer".to_string())?;
            }
            "--quota-points" => {
                config.default_quota.max_points = value(&mut i, "--quota-points")?
                    .parse()
                    .map_err(|_| "--quota-points needs an integer".to_string())?;
            }
            "--quota-bytes" => {
                config.default_quota.max_bytes = value(&mut i, "--quota-bytes")?
                    .parse()
                    .map_err(|_| "--quota-bytes needs an integer".to_string())?;
            }
            "--tenant-quota" => {
                let spec = value(&mut i, "--tenant-quota")?;
                let parts: Vec<&str> = spec.split(':').collect();
                let parsed = if parts.len() == 3 {
                    match (parts[1].parse::<u64>(), parts[2].parse::<u64>()) {
                        (Ok(p), Ok(b)) => Some((parts[0].to_string(), p, b)),
                        _ => None,
                    }
                } else {
                    None
                };
                let Some((tenant, points, bytes)) = parsed else {
                    return Err(format!(
                        "--tenant-quota must look like tenant:points:bytes, got {spec:?}"
                    ));
                };
                config.tenant_quotas.push((
                    tenant,
                    Quota {
                        max_points: points,
                        max_bytes: bytes,
                    },
                ));
            }
            "--metrics-out" => {
                config.metrics_out = Some(PathBuf::from(value(&mut i, "--metrics-out")?));
            }
            "--export-interval-ms" => {
                config.export_interval_ms = value(&mut i, "--export-interval-ms")?
                    .parse()
                    .map_err(|_| "--export-interval-ms needs an integer".to_string())?;
            }
            "--max-batch-points" => {
                config.max_batch_points = value(&mut i, "--max-batch-points")?
                    .parse()
                    .map_err(|_| "--max-batch-points needs an integer".to_string())?;
            }
            "--scan-limit" => {
                config.scan_limit = value(&mut i, "--scan-limit")?
                    .parse()
                    .map_err(|_| "--scan-limit needs an integer".to_string())?;
            }
            "--no-scheduler" => config.scheduler = None,
            "--no-shutdown-cmd" => config.allow_shutdown = false,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if config.tcp.is_none() && config.unix.is_none() {
        return Err("nothing to listen on: pass --tcp and/or --unix".to_string());
    }
    Ok((config, data_dir))
}

fn announce(handle: &ServerHandle) {
    if let Some(addr) = handle.tcp_addr() {
        println!("listening tcp {addr}");
    }
    if let Some(path) = handle.unix_path() {
        println!("listening unix {}", path.display());
    }
}

fn run(mut handle: ServerHandle) -> ExitCode {
    announce(&handle);
    handle.wait();
    let report = handle.shutdown();
    println!(
        "drained {} dataset(s), {} error(s)",
        report.datasets, report.errors
    );
    if report.errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, data_dir) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = match data_dir {
        Some(dir) => Server::start(config, FsFactory::new(dir)),
        None => Server::start(config, MemFactory),
    };
    match started {
        Ok(handle) => run(handle),
        Err(e) => {
            eprintln!("error: failed to start: {}", e.chain_string());
            ExitCode::FAILURE
        }
    }
}
