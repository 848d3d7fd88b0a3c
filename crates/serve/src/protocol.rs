//! The service's JSON wire protocol: submit-request parsing, typed error
//! bodies, and the little vocabulary of job states.
//!
//! Every error response has the same shape —
//! `{"error": <tag>, "message": <human>, "retry_after_ms"?: <n>}` — so
//! clients can switch on `error` and honor `retry_after_ms` mechanically.

use std::sync::Arc;
use std::time::Duration;

use flowc_baselines::{partitioned_with_tile, Backend, MappingBackend};
use flowc_compact::{parse_edit, NetlistEdit, Rung};
use flowc_logic::{bench_suite, blif, pla, verilog, Network};
use flowc_report::Json;

use crate::admission;

/// How the submitted circuit text is to be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitFormat {
    /// Berkeley BLIF netlist text.
    Blif,
    /// Espresso PLA truth-table text.
    Pla,
    /// The structural Verilog subset.
    Verilog,
    /// `circuit` names a built-in benchmark instead of carrying text.
    Bench,
}

impl CircuitFormat {
    fn parse(name: &str) -> Option<CircuitFormat> {
        match name {
            "blif" => Some(CircuitFormat::Blif),
            "pla" => Some(CircuitFormat::Pla),
            "verilog" | "v" => Some(CircuitFormat::Verilog),
            "bench" => Some(CircuitFormat::Bench),
            _ => None,
        }
    }
}

/// A parsed, validated submission. The network is parsed at submit time
/// so malformed circuits fail fast with `400` instead of inside a worker.
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// The circuit, already parsed.
    pub network: Arc<Network>,
    /// Display label (client-chosen or derived from the network name).
    pub label: String,
    /// Trade-off weight γ for the weighted objective.
    pub gamma: f64,
    /// The most ambitious rung the client wants; admission lowers it to
    /// the rung the job runs at.
    pub rung: Rung,
    /// Wall-clock deadline, measured from submission.
    pub deadline: Duration,
    /// Priority 0–9, higher first.
    pub priority: u8,
    /// Client-supplied idempotency key: resubmitting the same key
    /// returns the existing job instead of running a second one — also
    /// across a crash/restart when the journal is enabled.
    pub job_key: Option<String>,
    /// Set only for `POST /patch` jobs: the worker routes these through
    /// the incremental edit-session registry instead of cold synthesis.
    /// `network` always holds the authoritative materialized netlist, so
    /// every fallback (and every journal replay) stays correct.
    pub patch: Option<PatchDirective>,
    /// The mapping backend running the job. Non-COMPACT backends bypass
    /// the rung ladder (the rung still shapes the [`Config`](flowc_compact::Config) their
    /// synthesis context carries).
    pub backend: Backend,
}

/// The incremental half of a patch job, resolved at admission.
#[derive(Debug, Clone)]
pub struct PatchDirective {
    /// The `job_key` whose netlist the edits were applied to.
    pub lineage: String,
    /// That base netlist (from the base job's spec).
    pub base: Arc<Network>,
    /// The edit stream, in order; already validated against `base`.
    pub edits: Vec<NetlistEdit>,
}

/// A parsed, validated `POST /patch` body.
#[derive(Debug, Clone)]
pub struct PatchRequest {
    /// The lineage: `job_key` of the job whose netlist is edited.
    pub base_key: String,
    /// The key naming the patched state (required — it is what a later
    /// patch chains from, and what makes the resubmit idempotent).
    pub job_key: String,
    /// The edits in the `flowc_compact::parse_edit` grammar, in order.
    pub edits: Vec<NetlistEdit>,
    /// Trade-off weight γ for the weighted objective.
    pub gamma: f64,
    /// The most ambitious rung the client wants.
    pub rung: Rung,
    /// Wall-clock deadline, measured from submission.
    pub deadline: Duration,
    /// Priority 0–9, higher first.
    pub priority: u8,
    /// Display label (defaults to `<base_key>+<edit count>`).
    pub label: Option<String>,
}

/// The optional fields `/submit` and `/patch` bodies share, defaults
/// applied.
struct JobFields {
    gamma: f64,
    rung: Rung,
    deadline: Duration,
    priority: u8,
    label: Option<String>,
}

fn parse_job_fields(json: &Json) -> Result<JobFields, String> {
    let gamma = match json.get("gamma") {
        None => 0.5,
        Some(v) => {
            let g = v.as_f64().ok_or("`gamma` must be a number")?;
            if !(0.0..=1.0).contains(&g) {
                return Err(format!("`gamma` must be in [0, 1], got {g}"));
            }
            g
        }
    };
    let rung = match json.get("strategy") {
        None => Rung::ExactMip,
        Some(v) => admission::parse_rung(v.as_str().ok_or("`strategy` must be a string")?)?,
    };
    let deadline_ms = match json.get("deadline_ms") {
        None => 30_000,
        Some(v) => v
            .as_u64()
            .ok_or("`deadline_ms` must be a non-negative number")?,
    };
    let priority = match json.get("priority") {
        None => 0,
        Some(v) => {
            let p = v.as_u64().ok_or("`priority` must be a number in 0..=9")?;
            u8::try_from(p.min(9)).expect("capped at 9")
        }
    };
    Ok(JobFields {
        gamma,
        rung,
        deadline: Duration::from_millis(deadline_ms),
        priority,
        label: json.get("label").and_then(Json::as_str).map(str::to_string),
    })
}

/// Parses the optional `backend` field (plus the partitioned backend's
/// `tile_rows`/`tile_cols`) into a [`Backend`].
fn parse_backend_field(json: &Json) -> Result<Backend, String> {
    let backend = match json.get("backend") {
        None | Some(Json::Null) => Backend::default(),
        Some(v) => {
            let name = v.as_str().ok_or("`backend` must be a string")?;
            Backend::parse(name)?
        }
    };
    let tile = |field: &str| -> Result<Option<usize>, String> {
        match json.get(field) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("`{field}` must be a number"))?;
                if n == 0 {
                    return Err(format!("`{field}` must be at least 1"));
                }
                Ok(Some(n as usize))
            }
        }
    };
    let (rows, cols) = (tile("tile_rows")?, tile("tile_cols")?);
    match backend {
        Backend::Partitioned(p) => {
            let limits = p.tile;
            Ok(partitioned_with_tile(
                rows.unwrap_or(limits.max_rows),
                cols.unwrap_or(limits.max_cols),
            ))
        }
        other if rows.is_some() || cols.is_some() => Err(format!(
            "`tile_rows`/`tile_cols` only apply to the `partitioned` backend (got `{}`)",
            other.name()
        )),
        other => Ok(other),
    }
}

/// An optional 1..=128-byte key field (`null` counts as absent).
fn parse_key(json: &Json, field: &str) -> Result<Option<String>, String> {
    let key = match json.get(field) {
        None | Some(Json::Null) => return Ok(None),
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("`{field}` must be a string"))?,
    };
    if key.is_empty() || key.len() > 128 {
        return Err(format!("`{field}` must be 1..=128 bytes"));
    }
    Ok(Some(key.to_string()))
}

/// Parses and validates a `POST /patch` body: an edit stream against the
/// netlist of an earlier job, named by its `job_key`.
///
/// # Errors
///
/// A human-readable message for any malformed field (the server answers
/// `400` with it).
pub fn parse_patch(body: &str) -> Result<PatchRequest, String> {
    let json = Json::parse(body).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let required = |field: &str| {
        parse_key(&json, field)?.ok_or_else(|| format!("missing string field `{field}`"))
    };
    let base_key = required("base_key")?;
    let job_key = required("job_key")?;
    if job_key == base_key {
        return Err("`job_key` must differ from `base_key` (it names the patched state)".into());
    }
    let lines = json
        .get("edits")
        .and_then(Json::as_arr)
        .ok_or("missing array field `edits` (edit-script lines)")?;
    if lines.is_empty() {
        return Err("`edits` must contain at least one edit".into());
    }
    let mut edits = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let text = line
            .as_str()
            .ok_or_else(|| format!("`edits[{i}]` must be a string edit-script line"))?;
        edits.push(parse_edit(text).map_err(|e| format!("`edits[{i}]`: {e}"))?);
    }

    let fields = parse_job_fields(&json)?;
    Ok(PatchRequest {
        base_key,
        job_key,
        edits,
        gamma: fields.gamma,
        rung: fields.rung,
        deadline: fields.deadline,
        priority: fields.priority,
        label: fields.label,
    })
}

/// Parses and validates a `POST /submit` body.
///
/// # Errors
///
/// A human-readable message for any malformed field (the server answers
/// `400` with it).
pub fn parse_submit(body: &str) -> Result<SubmitSpec, String> {
    let json = Json::parse(body).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let circuit = json
        .get("circuit")
        .and_then(Json::as_str)
        .ok_or("missing string field `circuit`")?;
    let format = json
        .get("format")
        .and_then(Json::as_str)
        .ok_or("missing string field `format` (blif|pla|verilog|bench)")?;
    let format = CircuitFormat::parse(format)
        .ok_or_else(|| format!("unknown format `{format}` (blif|pla|verilog|bench)"))?;

    let network = match format {
        CircuitFormat::Blif => blif::parse(circuit).map_err(|e| format!("blif: {e}"))?,
        CircuitFormat::Pla => pla::parse(circuit).map_err(|e| format!("pla: {e}"))?,
        CircuitFormat::Verilog => verilog::parse(circuit).map_err(|e| format!("verilog: {e}"))?,
        CircuitFormat::Bench => bench_suite::by_name(circuit)
            .ok_or_else(|| format!("unknown benchmark `{circuit}`"))?
            .network()
            .map_err(|e| format!("benchmark `{circuit}`: {e}"))?,
    };

    let fields = parse_job_fields(&json)?;
    Ok(SubmitSpec {
        label: fields.label.unwrap_or_else(|| network.name().to_string()),
        network: Arc::new(network),
        gamma: fields.gamma,
        rung: fields.rung,
        backend: parse_backend_field(&json)?,
        deadline: fields.deadline,
        priority: fields.priority,
        job_key: parse_key(&json, "job_key")?,
        patch: None,
    })
}

/// The uniform typed error body.
pub fn error_json(tag: &str, message: &str, retry_after: Option<Duration>) -> Json {
    let mut fields = vec![
        ("error".into(), Json::str(tag)),
        ("message".into(), Json::str(message)),
    ];
    if let Some(d) = retry_after {
        fields.push((
            "retry_after_ms".into(),
            Json::Num(d.as_millis().max(1) as f64),
        ));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_bench_submission_with_defaults() {
        let spec = parse_submit(r#"{"circuit": "dec", "format": "bench"}"#).unwrap();
        assert_eq!(spec.rung, Rung::ExactMip);
        assert_eq!(spec.deadline, Duration::from_secs(30));
        assert_eq!(spec.priority, 0);
        assert!((spec.gamma - 0.5).abs() < 1e-9);
        assert!(spec.network.num_inputs() > 0);
        assert_eq!(spec.job_key, None);
    }

    #[test]
    fn backend_field_parses_and_defaults() {
        let spec = parse_submit(r#"{"circuit": "dec", "format": "bench"}"#).unwrap();
        assert_eq!(spec.backend.name(), "compact");
        let spec = parse_submit(r#"{"circuit": "dec", "format": "bench", "backend": "staircase"}"#)
            .unwrap();
        assert_eq!(spec.backend.name(), "staircase");
    }

    #[test]
    fn unknown_backend_lists_every_name() {
        let err = parse_submit(r#"{"circuit": "dec", "format": "bench", "backend": "warp"}"#)
            .unwrap_err();
        for name in Backend::NAMES {
            assert!(err.contains(name), "{err} should list {name}");
        }
    }

    #[test]
    fn unknown_strategy_error_comes_from_the_shared_helper() {
        let err = parse_submit(r#"{"circuit": "dec", "format": "bench", "strategy": "warp"}"#)
            .unwrap_err();
        assert_eq!(
            err,
            "unknown strategy `warp` (exact-mip|heuristic-oct|all-vh)"
        );
    }

    #[test]
    fn tile_dimensions_configure_the_partitioned_backend() {
        let body = r#"{
            "circuit": "dec", "format": "bench",
            "backend": "partitioned", "tile_rows": 12, "tile_cols": 10
        }"#;
        let spec = parse_submit(body).unwrap();
        match &spec.backend {
            Backend::Partitioned(p) => {
                assert_eq!(p.tile.max_rows, 12);
                assert_eq!(p.tile.max_cols, 10);
            }
            other => panic!("expected partitioned, got {}", other.name()),
        }
        let err = parse_submit(
            r#"{"circuit": "dec", "format": "bench", "backend": "compact", "tile_rows": 8}"#,
        )
        .unwrap_err();
        assert!(err.contains("partitioned"), "{err}");
        let err = parse_submit(
            r#"{"circuit": "dec", "format": "bench", "backend": "partitioned", "tile_rows": 0}"#,
        )
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn job_keys_parse_and_validate() {
        let spec =
            parse_submit(r#"{"circuit": "dec", "format": "bench", "job_key": "run-7"}"#).unwrap();
        assert_eq!(spec.job_key.as_deref(), Some("run-7"));
        for bad in [
            r#"{"circuit": "dec", "format": "bench", "job_key": 7}"#,
            r#"{"circuit": "dec", "format": "bench", "job_key": ""}"#,
        ] {
            assert!(parse_submit(bad).unwrap_err().contains("job_key"), "{bad}");
        }
    }

    #[test]
    fn parses_explicit_fields_and_pla_text() {
        let body = r#"{
            "circuit": ".i 2\n.o 1\n11 1\n.e\n",
            "format": "pla",
            "gamma": 0.25,
            "strategy": "heuristic-oct",
            "deadline_ms": 1500,
            "priority": 7,
            "label": "and2"
        }"#;
        let spec = parse_submit(body).unwrap();
        assert_eq!(spec.rung, Rung::HeuristicOct);
        assert_eq!(spec.deadline, Duration::from_millis(1500));
        assert_eq!(spec.priority, 7);
        assert_eq!(spec.label, "and2");
        assert_eq!(spec.network.num_inputs(), 2);
    }

    #[test]
    fn rejects_malformed_submissions_with_messages() {
        for (body, needle) in [
            ("not json", "valid JSON"),
            (r#"{"format": "blif"}"#, "circuit"),
            (r#"{"circuit": "x", "format": "doc"}"#, "unknown format"),
            (
                r#"{"circuit": "no-such", "format": "bench"}"#,
                "unknown benchmark",
            ),
            (
                r#"{"circuit": "dec", "format": "bench", "gamma": 1.5}"#,
                "gamma",
            ),
            (
                r#"{"circuit": "dec", "format": "bench", "strategy": "warp"}"#,
                "unknown strategy",
            ),
        ] {
            let err = parse_submit(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn parses_a_patch_with_edit_script_lines() {
        let body = r#"{
            "base_key": "run-7",
            "job_key": "run-8",
            "edits": ["add t and a b", "retarget 0 t"],
            "gamma": 0.25,
            "strategy": "staircase",
            "deadline_ms": 1500,
            "priority": 3
        }"#;
        let req = parse_patch(body).unwrap();
        assert_eq!(req.base_key, "run-7");
        assert_eq!(req.job_key, "run-8");
        assert_eq!(req.edits.len(), 2);
        assert_eq!(req.rung, Rung::AllVh);
        assert_eq!(req.deadline, Duration::from_millis(1500));
        assert_eq!(req.priority, 3);
        assert!((req.gamma - 0.25).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_patches_with_messages() {
        for (body, needle) in [
            ("not json", "valid JSON"),
            (r#"{"job_key": "b", "edits": ["remove g"]}"#, "base_key"),
            (r#"{"base_key": "a", "edits": ["remove g"]}"#, "job_key"),
            (
                r#"{"base_key": "a", "job_key": "a", "edits": ["remove g"]}"#,
                "differ",
            ),
            (r#"{"base_key": "a", "job_key": "b"}"#, "edits"),
            (
                r#"{"base_key": "a", "job_key": "b", "edits": []}"#,
                "at least one",
            ),
            (
                r#"{"base_key": "a", "job_key": "b", "edits": ["warp g"]}"#,
                "edits[0]",
            ),
            (
                r#"{"base_key": "a", "job_key": "b", "edits": ["remove g"], "gamma": 2}"#,
                "gamma",
            ),
        ] {
            let err = parse_patch(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn error_body_is_uniform() {
        let e = error_json("queue_full", "try later", Some(Duration::from_millis(250)));
        assert_eq!(e.get("error").and_then(Json::as_str), Some("queue_full"));
        assert_eq!(e.get("retry_after_ms").and_then(Json::as_u64), Some(250));
        assert!(error_json("x", "y", None).get("retry_after_ms").is_none());
    }
}
