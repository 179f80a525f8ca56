//! Per-cell telemetry documents and their schema validation.
//!
//! With `--telemetry-out DIR`, every matrix cell writes one JSON document
//! (`telemetry-<format>-<pattern>-<ndim>D.json`) wrapping the engine's
//! [`TelemetryReport`] with the cell's identity. CI validates those
//! documents against the checked-in `schemas/telemetry.schema.json` via
//! the `validate-telemetry` subcommand; [`validate`] implements the
//! JSON-Schema subset that schema uses (`type`, `required`,
//! `properties`, `items`, `enum`, `minimum`).

use crate::config::Config;
use crate::Result;
use artsparse_metrics::TelemetryReport;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// `<format>-<pattern>-<ndim>D`, path- and shell-friendly (format names
/// contain '+': GCSR++ → gcsrpp). Shared by telemetry document names and
/// per-cell fragment store directories.
pub fn cell_slug(format: &str, pattern: &str, ndim: usize) -> String {
    let fmt: String = format
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { 'p' })
        .collect();
    format!(
        "{}-{}-{}D",
        fmt.to_ascii_lowercase(),
        pattern.to_ascii_lowercase(),
        ndim
    )
}

/// File name for one cell's telemetry document.
pub fn telemetry_file_name(format: &str, pattern: &str, ndim: usize) -> String {
    format!("telemetry-{}.json", cell_slug(format, pattern, ndim))
}

/// Wrap a cell's report with its identity into the exported document.
pub fn cell_document(
    cfg: &Config,
    format: &str,
    pattern: &str,
    ndim: usize,
    report: &TelemetryReport,
) -> Value {
    let mut cell = serde_json::Map::new();
    cell.insert("format".into(), Value::String(format.to_string()));
    cell.insert("pattern".into(), Value::String(pattern.to_string()));
    cell.insert("ndim".into(), Value::U64(ndim as u64));
    cell.insert("scale".into(), Value::String(cfg.scale.to_string()));
    cell.insert(
        "backend".into(),
        Value::String(cfg.backend.name().to_string()),
    );
    let mut doc = serde_json::Map::new();
    doc.insert("cell".into(), Value::Object(cell));
    doc.insert(
        "telemetry".into(),
        serde_json::to_value(report).expect("telemetry serializes infallibly"),
    );
    Value::Object(doc)
}

/// Write one cell document under `dir`, returning the path written.
pub fn write_cell_document(
    dir: &Path,
    cfg: &Config,
    format: &str,
    pattern: &str,
    ndim: usize,
    report: &TelemetryReport,
) -> Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(telemetry_file_name(format, pattern, ndim));
    let doc = cell_document(cfg, format, pattern, ndim, report);
    std::fs::write(&path, doc.to_json_string_pretty() + "\n")?;
    Ok(path)
}

/// Validate `value` against a JSON-Schema-subset `schema`. Returns the
/// list of violations (empty = valid), each prefixed with the JSON path
/// of the offending value.
pub fn validate(value: &Value, schema: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    validate_at(value, schema, "$", &mut errors);
    errors
}

fn type_name(value: &Value) -> &'static str {
    match value {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::I64(_) | Value::U64(_) => "integer",
        Value::F64(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn type_matches(value: &Value, wanted: &str) -> bool {
    match wanted {
        // Every JSON integer is also a number.
        "number" => matches!(value, Value::I64(_) | Value::U64(_) | Value::F64(_)),
        other => type_name(value) == other,
    }
}

fn validate_at(value: &Value, schema: &Value, path: &str, errors: &mut Vec<String>) {
    // Cap the error list: a wholesale-wrong document should not produce
    // megabytes of output.
    if errors.len() >= 64 {
        return;
    }

    if let Some(t) = schema.get("type") {
        let allowed: Vec<&str> = match t {
            Value::String(s) => vec![s.as_str()],
            Value::Array(a) => a.iter().filter_map(|v| v.as_str()).collect(),
            _ => vec![],
        };
        if !allowed.is_empty() && !allowed.iter().any(|w| type_matches(value, w)) {
            errors.push(format!(
                "{path}: expected type {}, got {}",
                allowed.join("|"),
                type_name(value)
            ));
            return;
        }
    }

    if let Some(allowed) = schema.get("enum").and_then(Value::as_array) {
        if !allowed.iter().any(|candidate| candidate == value) {
            errors.push(format!("{path}: value not in enum"));
        }
    }

    if let Some(min) = schema.get("minimum").and_then(Value::as_f64) {
        match value.as_f64() {
            Some(v) if v < min => errors.push(format!("{path}: {v} below minimum {min}")),
            _ => {}
        }
    }

    if let Some(obj) = value.as_object() {
        if let Some(required) = schema.get("required").and_then(Value::as_array) {
            for key in required.iter().filter_map(|k| k.as_str()) {
                if !obj.contains_key(key) {
                    errors.push(format!("{path}: missing required property \"{key}\""));
                }
            }
        }
        if let Some(props) = schema.get("properties").and_then(Value::as_object) {
            for (key, sub) in props.iter() {
                if let Some(v) = obj.get(key) {
                    validate_at(v, sub, &format!("{path}.{key}"), errors);
                }
            }
        }
    }

    if let Some(arr) = value.as_array() {
        if let Some(items) = schema.get("items") {
            if !items.is_null() {
                for (i, item) in arr.iter().enumerate() {
                    validate_at(item, items, &format!("{path}[{i}]"), errors);
                }
            }
        }
    }
}

/// Load and validate one telemetry document file against a schema file.
pub fn validate_file(doc_path: &Path, schema_path: &Path) -> Result<Vec<String>> {
    let doc = serde_json::from_str(&std::fs::read_to_string(doc_path)?)
        .map_err(|e| format!("{}: {e}", doc_path.display()))?;
    let schema = serde_json::from_str(&std::fs::read_to_string(schema_path)?)
        .map_err(|e| format!("{}: {e}", schema_path.display()))?;
    Ok(validate(&doc, &schema))
}

/// Validate a JSONL file — one JSON document per line, e.g. the
/// exporter's `journal.jsonl` against `schemas/journal.schema.json` —
/// returning every violation prefixed with its line number. A line that
/// fails to parse at all is itself a violation.
pub fn validate_jsonl_file(doc_path: &Path, schema_path: &Path) -> Result<Vec<String>> {
    let schema: Value = serde_json::from_str(&std::fs::read_to_string(schema_path)?)
        .map_err(|e| format!("{}: {e}", schema_path.display()))?;
    let text = std::fs::read_to_string(doc_path)?;
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str(line) {
            Ok(doc) => {
                for e in validate(&doc, &schema) {
                    errors.push(format!("line {}: {e}", i + 1));
                }
            }
            Err(e) => errors.push(format!("line {}: not JSON: {e}", i + 1)),
        }
    }
    Ok(errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn schema() -> Value {
        serde_json::from_str(include_str!("../../../schemas/telemetry.schema.json"))
            .expect("checked-in schema parses")
    }

    #[test]
    fn file_names_are_shell_friendly() {
        assert_eq!(
            telemetry_file_name("COO", "TSP", 2),
            "telemetry-coo-tsp-2D.json"
        );
        assert_eq!(
            telemetry_file_name("GCSR++", "GSP", 3),
            "telemetry-gcsrpp-gsp-3D.json"
        );
    }

    #[test]
    fn validator_subset_works() {
        let schema = serde_json::from_str(
            r#"{
                "type": "object",
                "required": ["a", "b"],
                "properties": {
                    "a": {"type": "integer", "minimum": 0},
                    "b": {"type": "array", "items": {"type": "string"}},
                    "c": {"type": "number"}
                }
            }"#,
        )
        .unwrap();
        let good = serde_json::from_str(r#"{"a": 1, "b": ["x"], "c": 2}"#).unwrap();
        assert!(validate(&good, &schema).is_empty());

        let bad = serde_json::from_str(r#"{"a": -1, "b": [1]}"#).unwrap();
        let errors = validate(&bad, &schema);
        assert!(
            errors.iter().any(|e| e.contains("below minimum")),
            "{errors:?}"
        );
        assert!(errors.iter().any(|e| e.contains("$.b[0]")), "{errors:?}");

        let missing = serde_json::from_str(r#"{"a": 3}"#).unwrap();
        let errors = validate(&missing, &schema);
        assert!(errors
            .iter()
            .any(|e| e.contains("missing required property \"b\"")));
    }

    /// One measured smoke cell: LINEAR over the 2D TSP dataset.
    fn linear_tsp_cell(cfg: &Config) -> (crate::matrix::CellMeasurement, TelemetryReport) {
        let dataset = artsparse_patterns::Dataset::for_scale(
            artsparse_patterns::Pattern::Tsp,
            2,
            cfg.scale,
            cfg.params,
        );
        let payload = artsparse_tensor::value::pack(&dataset.values());
        let queries = dataset.read_region().to_coords();
        let format = artsparse_core::FormatKind::Linear;
        crate::matrix::measure_cell(cfg, format, &dataset, &payload, &queries).unwrap()
    }

    #[test]
    fn checked_in_schema_accepts_a_real_cell_document() {
        let cfg = Config::smoke();
        let (cell, report) = linear_tsp_cell(&cfg);
        let doc = cell_document(&cfg, &cell.format, &cell.pattern, cell.ndim, &report);
        let errors = validate(&doc, &schema());
        assert!(errors.is_empty(), "{errors:?}");
        // Round-trip through text, as CI does.
        let reparsed = serde_json::from_str(&doc.to_json_string_pretty()).unwrap();
        let errors = validate(&reparsed, &schema());
        assert!(errors.is_empty(), "{errors:?}");
    }

    /// The schema's span enum is the taxonomy: a kind the engine can emit
    /// but the schema does not list would fail validation only when some
    /// run happened to emit it.
    #[test]
    fn schema_span_enum_is_the_span_taxonomy() {
        use artsparse_metrics::SpanKind;
        use std::collections::BTreeSet;

        let schema = schema();
        let kind = &schema["properties"]["telemetry"]["properties"]["spans"]["items"]["properties"]
            ["kind"];
        let listed: BTreeSet<&str> = (kind["enum"].as_array().unwrap().iter())
            .map(|v| v.as_str().unwrap())
            .collect();
        let emitted: BTreeSet<&str> = SpanKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(listed, emitted);
    }

    #[test]
    fn schema_rejects_a_mangled_document() {
        let doc = json!({"cell": 3});
        let errors = validate(&doc, &schema());
        assert!(!errors.is_empty());
    }

    fn journal_schema() -> Value {
        serde_json::from_str(include_str!("../../../schemas/journal.schema.json"))
            .expect("checked-in journal schema parses")
    }

    #[test]
    fn journal_schema_accepts_real_events_and_rejects_mangled_lines() {
        use artsparse_metrics::{JournalEvent, Severity};
        use serde::Serialize;

        // Both shapes the journal emits: a span-bound event (slow_span)
        // and a bare one (scheduler_error outside any span).
        let full = JournalEvent {
            at_ns: 12,
            severity: Severity::Warn,
            code: "slow_span",
            message: "engine.ingest took 120ms".into(),
            trace_id: 42,
            span: Some("engine.ingest"),
            dur_ns: Some(120_000_000),
        };
        let bare = JournalEvent {
            at_ns: 13,
            severity: Severity::Error,
            code: "scheduler_error",
            message: "flush failed: rename".into(),
            trace_id: 0,
            span: None,
            dur_ns: None,
        };
        for event in [&full, &bare] {
            let errors = validate(&event.to_json_value(), &journal_schema());
            assert!(errors.is_empty(), "{errors:?}");
        }
        let mangled = json!({"severity": "fatal", "code": 7});
        let errors = validate(&mangled, &journal_schema());
        assert!(
            errors.iter().any(|e| e.contains("not in enum")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("missing required")),
            "{errors:?}"
        );
    }

    #[test]
    fn jsonl_validation_reports_line_numbers() {
        let dir = tempfile::tempdir().unwrap();
        let schema_path = dir.path().join("schema.json");
        std::fs::write(&schema_path, r#"{"type": "object", "required": ["code"]}"#).unwrap();
        let doc_path = dir.path().join("journal.jsonl");
        std::fs::write(&doc_path, "{\"code\": \"ok\"}\n{}\nnot json\n").unwrap();
        let errors = validate_jsonl_file(&doc_path, &schema_path).unwrap();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].starts_with("line 2:"), "{errors:?}");
        assert!(errors[1].contains("line 3: not JSON"), "{errors:?}");
    }

    #[test]
    fn v6_cell_documents_carry_trace_ids_on_events() {
        let cfg = Config::smoke();
        let (cell, report) = linear_tsp_cell(&cfg);
        let doc = cell_document(&cfg, &cell.format, &cell.pattern, cell.ndim, &report);
        assert!(doc["telemetry"]["version"].as_u64().unwrap() >= 7);
        let events = doc["telemetry"]["events"].as_array().unwrap();
        assert!(!events.is_empty());
        assert!(
            events.iter().all(|e| e.get("trace_id").is_some()),
            "every v6 raw span event is trace-stamped"
        );
        assert!(
            events.iter().any(|e| e["trace_id"].as_u64().unwrap() > 0),
            "top-level engine ops mint nonzero trace ids"
        );
        let errors = validate(&doc, &schema());
        assert!(errors.is_empty(), "{errors:?}");
    }
}
