//! # artsparse-benches
//!
//! Hosts the `cargo bench` targets; the figure/table regeneration logic
//! lives in `artsparse-harness`. Bench groups under `benches/`:
//!
//! * `write_time`, `read_time`, `file_size` — the paper's Fig. 3/5/4
//!   metrics per organization;
//! * `complexity` — Table I cost-model scaling checks;
//! * `ablation` — encoding ablations (delta/varint/prefix toggles);
//! * `read_pipeline` — fragment read path (cache, batching, retries).
//!
//! Set `BENCH_JSON_DIR` to make the vendored Criterion shim write one
//! `BENCH_<group>.json` summary per group.

#![warn(missing_docs)]
