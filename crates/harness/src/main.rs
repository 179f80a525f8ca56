//! `artsparse-bench` — regenerate the paper's tables and figures.
//!
//! ```text
//! artsparse-bench <experiment>... [options]
//!
//! experiments: table1 table2 table3 table4 fig2 fig3 fig4 fig5 ablate
//!              compress sweep adaptive ingest observe torture all
//! options:
//!   --scale paper|medium|smoke   tensor sizes        (default: medium)
//!   --backend mem|fs|sim         storage device      (default: sim)
//!   --seed N                     generator seed
//!   --out DIR                    write JSON/CSV artifacts
//!   --formats A,B,…              organizations       (default: paper five)
//!   --telemetry                  collect + print per-cell telemetry
//!   --telemetry-out DIR          write per-cell telemetry JSON documents
//!   --adaptive                   advisor-driven re-organization at
//!                                consolidation time
//!   --profile balanced|write-heavy|read-heavy
//!                                advisor weights     (default: balanced)
//!   --ingest-batch N             points per streaming-ingest batch
//!                                                    (default: 64)
//!   --ingest-flush-points N      group-commit flush threshold
//!                                                    (default: 1024)
//!
//! validate-telemetry <file>... [--schema PATH]
//!   validate telemetry documents against schemas/telemetry.schema.json
//!
//! validate-journal <file>... [--schema PATH]
//!   validate exporter journal JSONL files line by line against
//!   schemas/journal.schema.json
//!
//! watch <dir> [--iterations N] [--interval-ms M]
//!   tail a store's exported metrics.prom + journal.jsonl into a live
//!   ASCII dashboard (N = 0 runs until interrupted)
//!
//! scrub <dir>
//!   verify every fragment in a filesystem store — or in a directory of
//!   stores, one per matrix cell — by header, size, and section
//!   checksums, without decoding; damaged fragments exit nonzero
//!
//! advise <dir> [--profile P]
//!   characterize an existing filesystem store's sparsity and print the
//!   advisor's cost-model ranking and recommendation
//! ```

use artsparse_core::FormatKind;
use artsparse_harness::experiments::{
    ablate, adaptive, compress, fig1, fig2, fig3, fig4, fig5, ingest, io, observe, sweep, table1,
    table2, table3, table4, torture, ExperimentOutput,
};
use artsparse_harness::{run_matrix_with_telemetry, BackendKind, Config, Result};
use artsparse_patterns::Scale;
use std::path::PathBuf;

const EXPERIMENTS: [&str; 17] = [
    "table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5", "ablate",
    "compress", "sweep", "io", "adaptive", "ingest", "observe", "torture",
];

fn usage() -> ! {
    eprintln!(
        "usage: artsparse-bench <experiment>... [--scale paper|medium|smoke] \
         [--backend mem|fs|sim] [--seed N] [--out DIR] [--formats A,B,..] \
         [--telemetry] [--telemetry-out DIR] \
         [--threads N] [--adaptive] [--profile balanced|write-heavy|read-heavy] \
         [--ingest-batch N] [--ingest-flush-points N]\n\
         experiments: {} all\n\
         or: artsparse-bench validate-telemetry <file>... [--schema PATH]\n\
         or: artsparse-bench validate-journal <file>... [--schema PATH]\n\
         or: artsparse-bench watch <dir> [--iterations N] [--interval-ms M]\n\
         or: artsparse-bench scrub <dir>\n\
         or: artsparse-bench advise <dir> [--profile balanced|write-heavy|read-heavy]",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

/// `scrub <dir>`: verify every fragment's stored bytes — on-device
/// header vs. catalog, exact blob size, and per-section CRC32C — without
/// decoding any organization. `dir` is either one store or a directory
/// of stores (a harness `--out` run keeps one store per matrix cell
/// under `fragments/<cell>`); damaged fragments are listed and any
/// finding makes the exit status nonzero.
fn scrub(args: &[String]) -> Result<()> {
    let [dir] = args else { usage() };
    let root = PathBuf::from(dir);
    let mut stores: Vec<PathBuf> = Vec::new();
    if dir_has_fragments(&root) {
        stores.push(root.clone());
    } else if root.is_dir() {
        // One level of nesting: <dir>/<store>/frag-*.asf.
        let mut subs: Vec<PathBuf> = std::fs::read_dir(&root)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| dir_has_fragments(p))
            .collect();
        subs.sort();
        stores.extend(subs);
    }
    if stores.is_empty() {
        println!("scrub: {dir}: no fragments, store is clean");
        return Ok(());
    }
    let mut checked = 0usize;
    let mut healthy = 0usize;
    let mut damaged = 0usize;
    let mut bytes = 0u64;
    for store in &stores {
        let report = scrub_store(store)?;
        checked += report.fragments_checked;
        healthy += report.healthy;
        damaged += report.findings.len();
        bytes += report.bytes_verified;
    }
    println!(
        "scrub: {dir}: {} store(s), {checked} fragment(s) checked, {healthy} healthy, \
         {damaged} damaged, {bytes} bytes verified",
        stores.len()
    );
    if damaged > 0 {
        return Err(format!("{damaged} damaged fragment(s) in {dir}").into());
    }
    Ok(())
}

/// Whether `dir` directly contains fragment blobs.
fn dir_has_fragments(dir: &std::path::Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.filter_map(|e| e.ok()).any(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("frag-") && name.ends_with(".asf")
        })
    })
}

/// Open an existing filesystem store by peeking its fragment headers. A
/// store self-describes: the catalog's header peek is sized by the
/// engine's dimensionality, so open with the widest fragment's geometry.
/// A header too damaged to peek surfaces at open (or in a scrub report),
/// naming the fragment.
fn open_store(
    dir: &std::path::Path,
) -> Result<artsparse_storage::StorageEngine<artsparse_storage::FsBackend>> {
    use artsparse_storage::{FsBackend, StorageBackend, StorageEngine};
    let backend = FsBackend::new(dir)?;
    let mut names: Vec<String> = backend
        .list()?
        .into_iter()
        .filter(|n| n.starts_with("frag-") && n.ends_with(".asf"))
        .collect();
    names.sort();
    let mut meta: Option<artsparse_storage::fragment::FragmentMeta> = None;
    for name in &names {
        let head = backend.get_prefix(name, 4096)?;
        let Ok(m) = artsparse_storage::fragment::decode_meta(name, &head) else {
            continue;
        };
        if meta
            .as_ref()
            .is_none_or(|best| m.shape.ndim() > best.shape.ndim())
        {
            meta = Some(m);
        }
    }
    let Some(meta) = meta else {
        return Err(format!(
            "{}: no fragment header decodes; all {} fragment(s) are damaged",
            dir.display(),
            names.len()
        )
        .into());
    };
    Ok(StorageEngine::open(
        backend,
        meta.kind,
        meta.shape.clone(),
        meta.elem_size,
    )?)
}

/// Scrub one store directory, printing its findings.
fn scrub_store(dir: &std::path::Path) -> Result<artsparse_storage::ScrubReport> {
    let engine = open_store(dir)?;
    let report = engine.scrub()?;
    for f in &report.findings {
        let section = f
            .section
            .map(|s| format!("{s} section"))
            .unwrap_or_else(|| "structure".to_string());
        println!(
            "[damaged] {}/{} ({section}): {}",
            dir.display(),
            f.fragment,
            f.error
        );
    }
    Ok(report)
}

/// `advise <dir> [--profile P]`: characterize an existing store's
/// sparsity (the same measured statistics consolidation gathers) and
/// print the advisor's cost-model ranking under the chosen access
/// profile next to the store's current organization mix.
fn advise(args: &[String]) -> Result<()> {
    use artsparse_core::advisor::recommend_from_stats;
    use artsparse_core::stats::SparsityStats;
    use artsparse_storage::ReorgProfile;

    let mut profile = ReorgProfile::Balanced;
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => {
                let v = it.next().unwrap_or_else(|| usage());
                profile = ReorgProfile::parse(v).unwrap_or_else(|| usage());
            }
            other if other.starts_with('-') => usage(),
            other => dirs.push(PathBuf::from(other)),
        }
    }
    let [dir] = &dirs[..] else { usage() };

    let engine = open_store(dir)?;
    let store = engine.stats()?;
    let (coords, _values) = engine.export()?;
    let stats = SparsityStats::from_coords(&coords, engine.shape());

    println!("advise: {} (profile {})", dir.display(), profile.name());
    let mix = store
        .by_format
        .iter()
        .map(|(k, v)| format!("{v}×{k}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "  store: {} fragment(s) [{mix}], {} point(s), {} bytes",
        store.fragments, store.total_points, store.total_bytes
    );
    println!(
        "  measured: n={} distinct={} density={:.3e} fibers={} (mean len {:.2}, max {}) \
         block occupancy {:.3} nnz/level {:?}",
        stats.n,
        stats.distinct_points,
        stats.density,
        stats.fiber_count,
        stats.mean_fiber_len,
        stats.max_fiber_len,
        stats.block_occupancy,
        stats.nnz_per_level
    );

    let rec = recommend_from_stats(&stats, &profile.access_profile(), &[]);
    println!("  cost-model ranking (lower score is better):");
    for (i, c) in rec.ranking.iter().enumerate() {
        println!(
            "    {}. {:<14} score {:.4}  (write {:.4}, read {:.4}, space {:.4})",
            i + 1,
            c.kind.name(),
            c.score,
            c.components.0,
            c.components.1,
            c.components.2
        );
    }

    println!(
        "  recommendation: {} (store currently [{mix}])",
        rec.best().name()
    );
    Ok(())
}

/// `validate-telemetry <file>... [--schema PATH]`: exit nonzero listing
/// every schema violation.
fn validate_telemetry(args: &[String]) -> Result<()> {
    let mut schema = PathBuf::from("schemas/telemetry.schema.json");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--schema" => {
                let v = it.next().unwrap_or_else(|| usage());
                schema = PathBuf::from(v);
            }
            other if other.starts_with('-') => usage(),
            other => files.push(PathBuf::from(other)),
        }
    }
    if files.is_empty() {
        eprintln!("validate-telemetry: no files given");
        usage();
    }
    let mut violations = 0usize;
    for file in &files {
        let errors = artsparse_harness::telemetry::validate_file(file, &schema)?;
        if errors.is_empty() {
            eprintln!("[valid] {}", file.display());
        } else {
            violations += errors.len();
            for e in &errors {
                eprintln!("[invalid] {}: {e}", file.display());
            }
        }
    }
    if violations > 0 {
        return Err(format!(
            "{violations} schema violation(s) across {} file(s)",
            files.len()
        )
        .into());
    }
    Ok(())
}

/// `validate-journal <file>... [--schema PATH]`: validate exporter
/// journal JSONL files line by line; exit nonzero listing every
/// violation with its line number.
fn validate_journal(args: &[String]) -> Result<()> {
    let mut schema = PathBuf::from("schemas/journal.schema.json");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--schema" => {
                let v = it.next().unwrap_or_else(|| usage());
                schema = PathBuf::from(v);
            }
            other if other.starts_with('-') => usage(),
            other => files.push(PathBuf::from(other)),
        }
    }
    if files.is_empty() {
        eprintln!("validate-journal: no files given");
        usage();
    }
    let mut violations = 0usize;
    for file in &files {
        let errors = artsparse_harness::telemetry::validate_jsonl_file(file, &schema)?;
        if errors.is_empty() {
            eprintln!("[valid] {}", file.display());
        } else {
            violations += errors.len();
            for e in &errors {
                eprintln!("[invalid] {}: {e}", file.display());
            }
        }
    }
    if violations > 0 {
        return Err(format!(
            "{violations} schema violation(s) across {} file(s)",
            files.len()
        )
        .into());
    }
    Ok(())
}

fn parse_args() -> (Vec<String>, Config) {
    let mut cfg = Config::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.scale = Scale::parse(&v).unwrap_or_else(|| usage());
            }
            "--backend" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.backend = BackendKind::parse(&v).unwrap_or_else(|| usage());
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.params.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--out" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.out_dir = Some(PathBuf::from(v));
            }
            "--formats" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.formats = v
                    .split(',')
                    .map(|s| FormatKind::parse(s.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--telemetry" => cfg.telemetry = true,
            "--adaptive" => cfg.adaptive = true,
            "--ingest-batch" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.ingest_batch = v.parse().unwrap_or_else(|_| usage());
            }
            "--ingest-flush-points" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.ingest_flush_points = v.parse().unwrap_or_else(|_| usage());
            }
            "--profile" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.profile = artsparse_storage::ReorgProfile::parse(&v).unwrap_or_else(|| usage());
            }
            "--threads" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.threads = v.parse().unwrap_or_else(|_| usage());
            }
            "--telemetry-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.telemetry_out = Some(PathBuf::from(v));
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        usage();
    }
    (wanted, cfg)
}

fn emit(cfg: &Config, out: ExperimentOutput) -> Result<()> {
    out.print();
    if let Some(dir) = &cfg.out_dir {
        out.save(dir)?;
        eprintln!("[saved] {}/{}.json", dir.display(), out.name);
    }
    Ok(())
}

fn main() -> Result<()> {
    // The validator subcommand takes file paths, not experiment names —
    // dispatch it before experiment parsing.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("validate-telemetry") {
        return validate_telemetry(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("validate-journal") {
        return validate_journal(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("watch") {
        return artsparse_harness::watch::run(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("scrub") {
        return scrub(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("advise") {
        return advise(&raw[1..]);
    }

    let (wanted, cfg) = parse_args();
    let run_all = wanted.iter().any(|w| w == "all");
    let wants = |name: &str| run_all || wanted.iter().any(|w| w == name);

    for w in &wanted {
        if w != "all" && !EXPERIMENTS.contains(&w.as_str()) {
            eprintln!("unknown experiment: {w}");
            usage();
        }
    }

    eprintln!("[config] {} (seed {})", cfg.label(), cfg.params.seed);

    if wants("table1") {
        emit(&cfg, table1::run(&cfg)?)?;
    }
    if wants("table2") {
        emit(&cfg, table2::run(&cfg)?)?;
    }
    if wants("fig1") {
        emit(&cfg, fig1::run(&cfg)?)?;
    }
    if wants("fig2") {
        emit(&cfg, fig2::run(&cfg)?)?;
    }

    // fig3/fig4/fig5/table4 share one measured matrix.
    let needs_matrix = ["fig3", "fig4", "fig5", "table4"].iter().any(|e| wants(e));
    if needs_matrix {
        let (matrix, _telemetry) = run_matrix_with_telemetry(&cfg)?;
        if wants("fig3") {
            emit(&cfg, fig3::from_matrix(&cfg, &matrix))?;
        }
        if wants("fig4") {
            emit(&cfg, fig4::from_matrix(&cfg, &matrix))?;
        }
        if wants("fig5") {
            emit(&cfg, fig5::from_matrix(&cfg, &matrix))?;
        }
        if wants("table4") {
            emit(&cfg, table4::from_matrix(&cfg, &matrix)?)?;
        }
    }

    if wants("table3") {
        emit(&cfg, table3::run(&cfg)?)?;
    }
    if wants("ablate") {
        emit(&cfg, ablate::run(&cfg)?)?;
    }
    if wants("compress") {
        emit(&cfg, compress::run(&cfg)?)?;
    }
    if wants("sweep") {
        emit(&cfg, sweep::run(&cfg)?)?;
    }
    if wants("io") {
        emit(&cfg, io::run(&cfg)?)?;
    }
    if wants("adaptive") {
        emit(&cfg, adaptive::run(&cfg)?)?;
    }
    if wants("ingest") {
        emit(&cfg, ingest::run(&cfg)?)?;
    }
    if wants("observe") {
        emit(&cfg, observe::run(&cfg)?)?;
    }
    if wants("torture") {
        emit(&cfg, torture::run(&cfg)?)?;
    }
    Ok(())
}
