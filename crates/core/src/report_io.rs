//! JSON serialization of the verification report — [`FlowReport`] and
//! everything nested in it (counterexample, replay recipe, metrics, unit
//! failures) — over the dependency-free [`crate::json`] value model.
//!
//! This is what lets a report outlive the process that computed it: the
//! verification service (`pv-server`) sends reports over its wire protocol
//! and stores them in the artifact cache in exactly this shape, and a warm
//! run answers with a parsed report that is **field-identical** to the one
//! the cold run produced (see `docs/PROTOCOL.md` § "Report JSON"). Both
//! carry `FlowReport` only; the per-plan `PlanReport` has no encoding.
//!
//! Two encoding details worth knowing:
//!
//! * **Durations** are nanosecond integers (exact for the full `u64` range
//!   via [`Json::from_u64`]'s number-or-string spelling).
//! * The report's `&'static str` fields (`flow`, `unit_label`,
//!   `space_label`) serialize as plain strings and deserialize by lookup in
//!   the closed set of labels the two flows use; an unknown label is a parse
//!   error, not a silent allocation.
//!
//! ```
//! use std::time::Duration;
//! use pipeverify_core::{report_io, FlowReport};
//!
//! let report = FlowReport {
//!     flow: "beta-relation",
//!     design: "vsm".to_owned(),
//!     equivalent: true,
//!     counterexample: None,
//!     units_checked: 4,
//!     unit_label: "plan",
//!     checks: 12,
//!     space: 1000,
//!     space_label: "BDD nodes",
//!     threads_used: 2,
//!     wall_time: Duration::from_millis(5),
//!     unit_walls: vec![Duration::from_millis(1); 4],
//!     metrics: std::collections::BTreeMap::new(),
//!     unit_failures: Vec::new(),
//! };
//! let json = report_io::flow_report_to_json(&report);
//! let back = report_io::flow_report_from_json(&json).expect("well-formed");
//! assert_eq!(back.flow, report.flow);
//! assert_eq!(back.wall_time, report.wall_time);
//! assert_eq!(json, report_io::flow_report_to_json(&back)); // field identity
//! ```

use std::collections::BTreeMap;
use std::time::Duration;

use crate::flow::{FlowCounterexample, FlowErrorKind, FlowReport, ReplayRecipe, UnitFailure};
use crate::json::Json;

/// An error while decoding a report from JSON: which field, and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReportIoError {
    /// Dotted path of the offending field (`"counterexample.replay.variable"`).
    pub field: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ReportIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "report JSON, field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ReportIoError {}

fn fail(field: &str, message: &str) -> ReportIoError {
    ReportIoError {
        field: field.to_owned(),
        message: message.to_owned(),
    }
}

/// The closed set of `&'static str` labels the workspace's flows report.
/// Deserialization maps label strings back onto these statics.
const STATIC_LABELS: &[&str] = &[
    "beta-relation",
    "flushing",
    "plan",
    "case-split block",
    "BDD nodes",
    "EUF terms",
];

fn intern_label(field: &str, value: &Json) -> Result<&'static str, ReportIoError> {
    let s = value
        .as_str()
        .ok_or_else(|| fail(field, "expected a string"))?;
    STATIC_LABELS
        .iter()
        .find(|&&l| l == s)
        .copied()
        .ok_or_else(|| fail(field, &format!("unknown label `{s}`")))
}

fn duration_to_json(d: Duration) -> Json {
    Json::from_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn get<'a>(v: &'a Json, field: &str) -> Result<&'a Json, ReportIoError> {
    v.get(field)
        .ok_or_else(|| fail(field, "missing required field"))
}

fn get_u64(v: &Json, field: &str) -> Result<u64, ReportIoError> {
    get(v, field)?
        .as_u64()
        .ok_or_else(|| fail(field, "expected a non-negative integer"))
}

fn get_usize(v: &Json, field: &str) -> Result<usize, ReportIoError> {
    get(v, field)?
        .as_usize()
        .ok_or_else(|| fail(field, "expected a non-negative integer"))
}

fn get_str(v: &Json, field: &str) -> Result<String, ReportIoError> {
    Ok(get(v, field)?
        .as_str()
        .ok_or_else(|| fail(field, "expected a string"))?
        .to_owned())
}

fn get_bool(v: &Json, field: &str) -> Result<bool, ReportIoError> {
    get(v, field)?
        .as_bool()
        .ok_or_else(|| fail(field, "expected a boolean"))
}

fn get_duration(v: &Json, field: &str) -> Result<Duration, ReportIoError> {
    Ok(Duration::from_nanos(get_u64(v, field)?))
}

/// Encodes a metrics map as a JSON object (name-sorted — `BTreeMap` iteration
/// order — so encoded bytes are deterministic). An empty map encodes as
/// "omit the field entirely": callers push nothing.
fn metrics_to_json(metrics: &BTreeMap<String, u64>) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(k, v)| (k.clone(), Json::from_u64(*v)))
            .collect(),
    )
}

/// Decodes the optional `metrics` field: absent (reports written before the
/// field existed, or flows with nothing to report) reads as an empty map, so
/// the schema change is backward-compatible.
fn metrics_from_json(v: &Json, field: &str) -> Result<BTreeMap<String, u64>, ReportIoError> {
    let Some(obj) = v.get(field) else {
        return Ok(BTreeMap::new());
    };
    let entries = obj
        .as_obj()
        .ok_or_else(|| fail(field, "expected an object of counter values"))?;
    entries
        .iter()
        .map(|(name, value)| {
            let value = value
                .as_u64()
                .ok_or_else(|| fail(field, "expected non-negative integer values"))?;
            Ok((name.clone(), value))
        })
        .collect()
}

fn input_rows_to_json(rows: &[Vec<(String, u64)>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                Json::Arr(
                    row.iter()
                        .map(|(port, value)| {
                            Json::Arr(vec![Json::Str(port.clone()), Json::from_u64(*value)])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

fn input_rows_from_json(v: &Json, field: &str) -> Result<Vec<Vec<(String, u64)>>, ReportIoError> {
    let rows = get(v, field)?
        .as_arr()
        .ok_or_else(|| fail(field, "expected an array of input rows"))?;
    rows.iter()
        .map(|row| {
            let pairs = row
                .as_arr()
                .ok_or_else(|| fail(field, "expected an array of [port, value] pairs"))?;
            pairs
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| fail(field, "expected a [port, value] pair"))?;
                    let port = pair[0]
                        .as_str()
                        .ok_or_else(|| fail(field, "port must be a string"))?;
                    let value = pair[1]
                        .as_u64()
                        .ok_or_else(|| fail(field, "value must be an integer"))?;
                    Ok((port.to_owned(), value))
                })
                .collect()
        })
        .collect()
}

/// Encodes a [`ReplayRecipe`].
pub fn replay_recipe_to_json(r: &ReplayRecipe) -> Json {
    Json::Obj(vec![
        (
            "pipelined_inputs".to_owned(),
            input_rows_to_json(&r.pipelined_inputs),
        ),
        (
            "unpipelined_inputs".to_owned(),
            input_rows_to_json(&r.unpipelined_inputs),
        ),
        (
            "pipelined_sample_cycle".to_owned(),
            Json::from_u64(r.pipelined_sample_cycle as u64),
        ),
        (
            "unpipelined_sample_cycle".to_owned(),
            Json::from_u64(r.unpipelined_sample_cycle as u64),
        ),
        ("variable".to_owned(), Json::Str(r.variable.clone())),
        (
            "pipelined_value".to_owned(),
            Json::from_u64(r.pipelined_value),
        ),
        (
            "unpipelined_value".to_owned(),
            Json::from_u64(r.unpipelined_value),
        ),
    ])
}

/// Decodes a [`ReplayRecipe`] written by [`replay_recipe_to_json`].
///
/// # Errors
/// Returns [`ReportIoError`] naming the first missing or mistyped field.
pub fn replay_recipe_from_json(v: &Json) -> Result<ReplayRecipe, ReportIoError> {
    Ok(ReplayRecipe {
        pipelined_inputs: input_rows_from_json(v, "pipelined_inputs")?,
        unpipelined_inputs: input_rows_from_json(v, "unpipelined_inputs")?,
        pipelined_sample_cycle: get_usize(v, "pipelined_sample_cycle")?,
        unpipelined_sample_cycle: get_usize(v, "unpipelined_sample_cycle")?,
        variable: get_str(v, "variable")?,
        pipelined_value: get_u64(v, "pipelined_value")?,
        unpipelined_value: get_u64(v, "unpipelined_value")?,
    })
}

/// Encodes a [`FlowReport`] (the shared report shape of both flows).
pub fn flow_report_to_json(r: &FlowReport) -> Json {
    let cex = match &r.counterexample {
        None => Json::Null,
        Some(c) => Json::Obj(vec![
            ("unit".to_owned(), Json::from_u64(c.unit as u64)),
            ("description".to_owned(), Json::Str(c.description.clone())),
            (
                "replay".to_owned(),
                c.replay.as_ref().map_or(Json::Null, replay_recipe_to_json),
            ),
        ]),
    };
    let mut obj = Json::Obj(vec![
        ("flow".to_owned(), Json::Str(r.flow.to_owned())),
        ("design".to_owned(), Json::Str(r.design.clone())),
        ("equivalent".to_owned(), Json::Bool(r.equivalent)),
        ("counterexample".to_owned(), cex),
        (
            "units_checked".to_owned(),
            Json::from_u64(r.units_checked as u64),
        ),
        ("unit_label".to_owned(), Json::Str(r.unit_label.to_owned())),
        ("checks".to_owned(), Json::from_u64(r.checks as u64)),
        ("space".to_owned(), Json::from_u64(r.space as u64)),
        (
            "space_label".to_owned(),
            Json::Str(r.space_label.to_owned()),
        ),
        (
            "threads_used".to_owned(),
            Json::from_u64(r.threads_used as u64),
        ),
        ("wall_time_ns".to_owned(), duration_to_json(r.wall_time)),
        (
            "unit_walls_ns".to_owned(),
            Json::Arr(r.unit_walls.iter().map(|w| duration_to_json(*w)).collect()),
        ),
    ]);
    if let Json::Obj(fields) = &mut obj {
        if !r.metrics.is_empty() {
            fields.push(("metrics".to_owned(), metrics_to_json(&r.metrics)));
        }
        if !r.unit_failures.is_empty() {
            fields.push((
                "unit_failures".to_owned(),
                Json::Arr(r.unit_failures.iter().map(unit_failure_to_json).collect()),
            ));
        }
    }
    obj
}

/// Encodes one [`UnitFailure`] of a degraded report.
fn unit_failure_to_json(f: &UnitFailure) -> Json {
    Json::Obj(vec![
        ("unit".to_owned(), Json::from_u64(f.unit as u64)),
        ("kind".to_owned(), Json::Str(f.kind.as_str().to_owned())),
        ("message".to_owned(), Json::Str(f.message.clone())),
    ])
}

/// Decodes the optional `unit_failures` field: absent (reports written
/// before resource governance existed, or complete runs — the field is
/// omitted when empty) reads as no failures, so the schema change is
/// backward-compatible.
fn unit_failures_from_json(v: &Json, field: &str) -> Result<Vec<UnitFailure>, ReportIoError> {
    let Some(arr) = v.get(field) else {
        return Ok(Vec::new());
    };
    let entries = arr
        .as_arr()
        .ok_or_else(|| fail(field, "expected an array of unit failures"))?;
    entries
        .iter()
        .map(|entry| {
            let kind = get_str(entry, "kind")?;
            let kind =
                FlowErrorKind::parse(&kind).ok_or_else(|| fail(field, "unknown failure kind"))?;
            Ok(UnitFailure {
                unit: get_usize(entry, "unit")?,
                kind,
                message: get_str(entry, "message")?,
            })
        })
        .collect()
}

/// Decodes a [`FlowReport`] written by [`flow_report_to_json`].
///
/// # Errors
/// Returns [`ReportIoError`] naming the first missing or mistyped field —
/// including a `flow`/`unit_label`/`space_label` outside the closed label
/// set.
pub fn flow_report_from_json(v: &Json) -> Result<FlowReport, ReportIoError> {
    let counterexample = match get(v, "counterexample")? {
        Json::Null => None,
        c => Some(FlowCounterexample {
            unit: get_usize(c, "unit")?,
            description: get_str(c, "description")?,
            replay: match get(c, "replay")? {
                Json::Null => None,
                r => Some(replay_recipe_from_json(r)?),
            },
        }),
    };
    let walls = get(v, "unit_walls_ns")?
        .as_arr()
        .ok_or_else(|| fail("unit_walls_ns", "expected an array"))?
        .iter()
        .map(|w| {
            w.as_u64()
                .map(Duration::from_nanos)
                .ok_or_else(|| fail("unit_walls_ns", "expected nanosecond integers"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FlowReport {
        flow: intern_label("flow", get(v, "flow")?)?,
        design: get_str(v, "design")?,
        equivalent: get_bool(v, "equivalent")?,
        counterexample,
        units_checked: get_usize(v, "units_checked")?,
        unit_label: intern_label("unit_label", get(v, "unit_label")?)?,
        checks: get_usize(v, "checks")?,
        space: get_usize(v, "space")?,
        space_label: intern_label("space_label", get(v, "space_label")?)?,
        threads_used: get_usize(v, "threads_used")?,
        wall_time: get_duration(v, "wall_time_ns")?,
        unit_walls: walls,
        metrics: metrics_from_json(v, "metrics")?,
        unit_failures: unit_failures_from_json(v, "unit_failures")?,
    })
}
