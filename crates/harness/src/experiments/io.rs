//! I/O backends and striping — the device side of the paper's testbed.
//!
//! The paper's write times are dominated by Lustre behavior (Table III's
//! Write row). This experiment writes the same fragment through the
//! in-memory device (pure algorithm time), the simulated single disk, and
//! simulated striped arrays of 2/4/8 OSTs, separating organization cost
//! from device cost and showing the striping speedup a parallel file
//! system provides.

use crate::config::Config;
use crate::experiments::ExperimentOutput;
use crate::matrix::{SIM_BANDWIDTH_MIB, SIM_LATENCY};
use crate::Result;
use artsparse_metrics::Table;
use artsparse_patterns::{Dataset, Pattern};
use artsparse_storage::{MemBackend, SimulatedDisk, StorageBackend, StorageEngine, StripedBackend};
use artsparse_tensor::value::pack;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    format: String,
    device: String,
    write_secs: f64,
    write_phase_secs: f64,
    bytes: u64,
}

fn device(label: &str) -> Box<dyn StorageBackend> {
    // Deliberately 16× slower than the fig3/table3 device so the transfer
    // term dominates latency and the striping effect is visible on
    // medium-scale fragments.
    let bw = SIM_BANDWIDTH_MIB / 16.0 * (1u64 << 20) as f64;
    let lat = SIM_LATENCY;
    match label {
        "mem" => Box::new(MemBackend::new()),
        "sim-1" => Box::new(SimulatedDisk::new(bw, lat)),
        // Each OST keeps full per-device bandwidth — like Lustre, where
        // adding stripes adds aggregate bandwidth.
        "sim-2x" => Box::new(StripedBackend::new(
            (0..2).map(|_| SimulatedDisk::new(bw, lat)).collect(),
            1 << 16,
        )),
        "sim-4x" => Box::new(StripedBackend::new(
            (0..4).map(|_| SimulatedDisk::new(bw, lat)).collect(),
            1 << 16,
        )),
        "sim-8x" => Box::new(StripedBackend::new(
            (0..8).map(|_| SimulatedDisk::new(bw, lat)).collect(),
            1 << 16,
        )),
        other => unreachable!("unknown device {other}"),
    }
}

const DEVICES: [&str; 5] = ["mem", "sim-1", "sim-2x", "sim-4x", "sim-8x"];

/// Write the 2D MSP dataset through every device.
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let ds = Dataset::for_scale(Pattern::Msp, 2, cfg.scale, cfg.params);
    let payload = pack(&ds.values());

    let mut rows = Vec::new();
    let mut table = Table::new(
        format!(
            "WRITE time by device — {} ({} points; {} MiB/s per OST)",
            ds.label(),
            ds.nnz(),
            SIM_BANDWIDTH_MIB / 16.0
        ),
        &["format", "mem", "sim-1", "sim-2x", "sim-4x", "sim-8x"],
    );
    for &format in &cfg.formats {
        let mut row = vec![format.name().to_string()];
        for dev in DEVICES {
            let engine = StorageEngine::open_with(
                device(dev),
                format,
                ds.shape.clone(),
                8,
                cfg.engine_config(),
            )?;
            let report = engine.write(&ds.coords, &payload)?;
            let phases = engine
                .telemetry_report()
                .ok_or("write times are read off the observability plane's spans")?
                .write_breakdown();
            row.push(format!("{:.4}", phases.sum()));
            rows.push(Row {
                format: format.name().to_string(),
                device: dev.to_string(),
                write_secs: phases.sum(),
                write_phase_secs: phases.write,
                bytes: report.total_bytes as u64,
            });
        }
        table.push_row(row);
    }

    Ok(ExperimentOutput {
        name: "io",
        notes: vec![
            "mem isolates algorithm time; sim-Nx stripes over N OSTs of equal per-device".into(),
            "bandwidth — aggregate bandwidth (and write speed) scales with the stripe count,"
                .into(),
            "as on Lustre.".into(),
        ],
        tables: vec![table],
        json: serde_json::json!({ "scale": cfg.scale, "rows": rows }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use artsparse_core::FormatKind;

    #[test]
    fn covers_every_device_and_format() {
        let mut cfg = Config::smoke();
        cfg.formats = vec![FormatKind::Coo, FormatKind::Linear];
        let out = run(&cfg).unwrap();
        let rows = out.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 2 * DEVICES.len());
        // mem write phase is (near) free; sim-1 pays the device.
        let phase = |fmt: &str, dev: &str| -> f64 {
            rows.iter()
                .find(|r| r["format"] == fmt && r["device"] == dev)
                .unwrap()["write_phase_secs"]
                .as_f64()
                .unwrap()
        };
        assert!(phase("COO", "sim-1") > phase("COO", "mem"));
        // Fragment size is device-independent.
        let bytes: Vec<u64> = rows
            .iter()
            .filter(|r| r["format"] == "COO")
            .map(|r| r["bytes"].as_u64().unwrap())
            .collect();
        assert!(bytes.windows(2).all(|w| w[0] == w[1]));
    }
}
