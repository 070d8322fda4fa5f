//! The **wire protocol** of the verification service: line-delimited JSON
//! jobs and responses (one JSON document per line, `\n`-terminated), encoded
//! over the dependency-free [`pipeverify_core::json`] value model.
//!
//! The full wire format — every field, the response contract, and how cache
//! keys are derived from a job — is specified in `docs/PROTOCOL.md`; this
//! module is its executable counterpart. In brief, a request names
//!
//! * a **design**: a generated-family configuration (depth, word width,
//!   registers, delay slots, stall input, optional seeded bug by its
//!   [`FamilyBug::tag`]) or a reduced VSM pair,
//! * the **flows** to run (`"beta"` and/or `"flushing"`), and
//! * the **plan set** for the β-relation flow: `"default"` for the Section
//!   5.3 sweep or an explicit list of plan strings (`"r 0 0 1"` — the
//!   [`SimulationPlan`] token language, any whitespace between tokens).
//!
//! and a response carries one [`FlowReport`] per requested flow (in the JSON
//! shape of [`pipeverify_core::report_io`]) plus a `cached` flag saying
//! whether the artifact cache answered instead of the engine.

use pipeverify_core::json::Json;
use pipeverify_core::report_io;
use pipeverify_core::{FlowErrorKind, FlowReport, SimulationPlan};
use pv_proc::family::{FamilyBug, FamilyConfig};

/// Which design pair a job verifies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DesignSpec {
    /// A member of the generated processor family (`pv_proc::family`),
    /// including the stall input and optional seeded bug.
    Family(FamilyConfig),
    /// The reduced-register-file VSM pair of Section 6.2.
    Vsm {
        /// Registers in the reduced model (1–8).
        num_regs: usize,
        /// Build the stallable variant (required for the flushing flow).
        stallable: bool,
    },
}

/// Which verification flow(s) to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowKind {
    /// The β-relation flow (`pipeverify_core::Verifier`).
    Beta,
    /// The Burch–Dill flushing flow (`pv_flush::FlushVerifier`).
    Flushing,
}

impl FlowKind {
    /// The wire spelling (`"beta"` / `"flushing"`).
    pub fn wire_name(self) -> &'static str {
        match self {
            FlowKind::Beta => "beta",
            FlowKind::Flushing => "flushing",
        }
    }
}

/// The β-relation plan set of a job.
#[derive(Clone, PartialEq, Debug)]
pub enum PlanSet {
    /// The default Section 5.3 sweep (`Verifier::default_plans`).
    Default,
    /// An explicit plan list.
    Explicit(Vec<SimulationPlan>),
}

/// One verification job.
#[derive(Clone, PartialEq, Debug)]
pub struct JobRequest {
    /// Client-chosen correlation id, echoed verbatim in the response (the
    /// server may answer out of submission order).
    pub id: u64,
    /// The design pair to verify.
    pub design: DesignSpec,
    /// The flows to run, in response order.
    pub flows: Vec<FlowKind>,
    /// The β-relation plan set (ignored by the flushing flow).
    pub plans: PlanSet,
    /// Optional wall-clock deadline for this job's engine work, in
    /// milliseconds. Falls back to the server's `PV_DEADLINE_MS` default;
    /// absent in both places means unlimited.
    pub deadline_ms: Option<u64>,
    /// Optional ROBDD node budget (total allocations, monotone across GCs)
    /// per plan manager. Falls back to `PV_NODE_BUDGET`; absent in both
    /// places means unlimited.
    pub node_budget: Option<u64>,
}

/// A structured job-level failure: how ([`FlowErrorKind`]) and why. Rendered
/// on the wire as `{"id":…, "ok":false, "kind":"…", "error":"…"}` — the
/// `error` string stays for older readers, `kind` is the machine-readable
/// classification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobError {
    /// The failure class (drives the service's retry policy).
    pub kind: FlowErrorKind,
    /// Human-readable reason.
    pub message: String,
}

impl JobError {
    /// An [`FlowErrorKind::Invalid`] error — bad parameters, a flow that
    /// rejects the design, a malformed request.
    pub fn invalid(message: impl Into<String>) -> Self {
        JobError {
            kind: FlowErrorKind::Invalid,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FlowErrorKind::Invalid => write!(f, "{}", self.message),
            kind => write!(f, "{kind}: {}", self.message),
        }
    }
}

impl std::error::Error for JobError {}

/// One flow's result inside a [`JobResponse`].
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The flow's report name (`"beta-relation"` / `"flushing"`).
    pub flow: &'static str,
    /// `true` when the artifact cache answered (the report is the stored
    /// one, wall times and all — see `docs/PROTOCOL.md` § "Caching").
    pub cached: bool,
    /// The report.
    pub report: FlowReport,
}

/// The server's answer to one job.
#[derive(Clone, Debug)]
pub struct JobResponse {
    /// The request's correlation id.
    pub id: u64,
    /// One result per requested flow, in request order.
    pub results: Vec<FlowResult>,
}

/// A protocol-level decode error (malformed job line).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn fail<T>(message: impl Into<String>) -> Result<T, ProtocolError> {
    Err(ProtocolError(message.into()))
}

fn get_usize(v: &Json, field: &str) -> Result<usize, ProtocolError> {
    v.get(field)
        .and_then(Json::as_usize)
        .ok_or_else(|| ProtocolError(format!("`{field}` must be a non-negative integer")))
}

/// Decodes one job line.
///
/// # Errors
/// Returns [`ProtocolError`] describing the first malformed field.
pub fn request_from_json(v: &Json) -> Result<JobRequest, ProtocolError> {
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError("`id` must be a non-negative integer".to_owned()))?;
    let design = v
        .get("design")
        .ok_or_else(|| ProtocolError("missing `design`".to_owned()))?;
    let design = if let Some(family) = design.get("family") {
        let mut config = FamilyConfig::new(
            get_usize(family, "depth")?,
            get_usize(family, "word_width")?,
            get_usize(family, "num_regs")?,
            get_usize(family, "delay_slots")?,
        );
        if family.get("stall").and_then(Json::as_bool).unwrap_or(true) {
            config = config.stallable();
        }
        match family.get("bug") {
            None | Some(Json::Null) => {}
            Some(tag) => {
                let tag = tag
                    .as_str()
                    .ok_or_else(|| ProtocolError("`bug` must be a tag string".to_owned()))?;
                config = config.with_bug(
                    FamilyBug::from_tag(tag)
                        .ok_or_else(|| ProtocolError(format!("unknown bug tag `{tag}`")))?,
                );
            }
        }
        DesignSpec::Family(config)
    } else if let Some(vsm) = design.get("vsm") {
        DesignSpec::Vsm {
            num_regs: get_usize(vsm, "num_regs")?,
            stallable: vsm
                .get("stallable")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        }
    } else {
        return fail("`design` must contain `family` or `vsm`");
    };
    let flows = match v.get("flows") {
        None => vec![FlowKind::Beta],
        Some(flows) => {
            let items = flows
                .as_arr()
                .ok_or_else(|| ProtocolError("`flows` must be an array".to_owned()))?;
            if items.is_empty() {
                return fail("`flows` must name at least one flow");
            }
            items
                .iter()
                .map(|f| match f.as_str() {
                    Some("beta") => Ok(FlowKind::Beta),
                    Some("flushing") => Ok(FlowKind::Flushing),
                    _ => fail("each flow must be \"beta\" or \"flushing\""),
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let plans = match v.get("plans") {
        None => PlanSet::Default,
        Some(Json::Str(s)) if s == "default" => PlanSet::Default,
        Some(Json::Arr(items)) => {
            let mut plans = Vec::with_capacity(items.len());
            for item in items {
                let text = item
                    .as_str()
                    .ok_or_else(|| ProtocolError("each plan must be a token string".to_owned()))?;
                // The wire allows any whitespace between tokens; the parser
                // is line-oriented.
                let lines: Vec<&str> = text.split_whitespace().collect();
                let plan: SimulationPlan = lines
                    .join("\n")
                    .parse()
                    .map_err(|e| ProtocolError(format!("bad plan `{text}`: {e}")))?;
                plans.push(plan);
            }
            if plans.is_empty() {
                return fail("`plans` must contain at least one plan");
            }
            PlanSet::Explicit(plans)
        }
        Some(_) => return fail("`plans` must be \"default\" or an array of plan strings"),
    };
    let optional_u64 = |field: &str| -> Result<Option<u64>, ProtocolError> {
        match v.get(field) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => value
                .as_u64()
                .map(Some)
                .ok_or_else(|| ProtocolError(format!("`{field}` must be a non-negative integer"))),
        }
    };
    Ok(JobRequest {
        id,
        design,
        flows,
        plans,
        deadline_ms: optional_u64("deadline_ms")?,
        node_budget: optional_u64("node_budget")?,
    })
}

/// Encodes a job (what `pv batch` and test clients put on the wire).
pub fn request_to_json(job: &JobRequest) -> Json {
    let design = match job.design {
        DesignSpec::Family(config) => {
            let mut fields = vec![
                ("depth".to_owned(), Json::from_u64(config.depth as u64)),
                (
                    "word_width".to_owned(),
                    Json::from_u64(config.word_width as u64),
                ),
                (
                    "num_regs".to_owned(),
                    Json::from_u64(config.num_regs as u64),
                ),
                (
                    "delay_slots".to_owned(),
                    Json::from_u64(config.delay_slots as u64),
                ),
                ("stall".to_owned(), Json::Bool(config.with_stall)),
            ];
            if let Some(bug) = config.bug {
                fields.push(("bug".to_owned(), Json::Str(bug.tag().to_owned())));
            }
            Json::Obj(vec![("family".to_owned(), Json::Obj(fields))])
        }
        DesignSpec::Vsm {
            num_regs,
            stallable,
        } => Json::Obj(vec![(
            "vsm".to_owned(),
            Json::Obj(vec![
                ("num_regs".to_owned(), Json::from_u64(num_regs as u64)),
                ("stallable".to_owned(), Json::Bool(stallable)),
            ]),
        )]),
    };
    let plans = match &job.plans {
        PlanSet::Default => Json::Str("default".to_owned()),
        PlanSet::Explicit(plans) => Json::Arr(
            plans
                .iter()
                .map(|p| {
                    // The Display rendering carries a `#` header line; the
                    // wire form is the bare tokens.
                    let rendered = p.to_string();
                    let tokens: Vec<&str> = rendered
                        .lines()
                        .map(str::trim)
                        .filter(|l| !l.is_empty() && !l.starts_with('#'))
                        .collect();
                    Json::Str(tokens.join(" "))
                })
                .collect(),
        ),
    };
    let mut fields = vec![
        ("id".to_owned(), Json::from_u64(job.id)),
        ("design".to_owned(), design),
        (
            "flows".to_owned(),
            Json::Arr(
                job.flows
                    .iter()
                    .map(|f| Json::Str(f.wire_name().to_owned()))
                    .collect(),
            ),
        ),
        ("plans".to_owned(), plans),
    ];
    if let Some(deadline_ms) = job.deadline_ms {
        fields.push(("deadline_ms".to_owned(), Json::from_u64(deadline_ms)));
    }
    if let Some(node_budget) = job.node_budget {
        fields.push(("node_budget".to_owned(), Json::from_u64(node_budget)));
    }
    Json::Obj(fields)
}

/// Encodes a successful response line.
pub fn response_to_json(response: &JobResponse) -> Json {
    Json::Obj(vec![
        ("id".to_owned(), Json::from_u64(response.id)),
        ("ok".to_owned(), Json::Bool(true)),
        (
            "results".to_owned(),
            Json::Arr(
                response
                    .results
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("flow".to_owned(), Json::Str(r.flow.to_owned())),
                            ("cached".to_owned(), Json::Bool(r.cached)),
                            (
                                "report".to_owned(),
                                report_io::flow_report_to_json(&r.report),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes an error response line (job-level failure: bad design parameters,
/// a flow that rejects the pair, a malformed request, a resource abort). The
/// `kind` field carries the structured classification
/// ([`FlowErrorKind::as_str`] wire names); `error` stays a plain message
/// string for older readers.
pub fn error_to_json(id: Option<u64>, kind: FlowErrorKind, message: &str) -> Json {
    Json::Obj(vec![
        ("id".to_owned(), id.map_or(Json::Null, Json::from_u64)),
        ("ok".to_owned(), Json::Bool(false)),
        ("kind".to_owned(), Json::Str(kind.as_str().to_owned())),
        ("error".to_owned(), Json::Str(message.to_owned())),
    ])
}

/// Upper bound on one job line (1 MiB). Real job requests are a few hundred
/// bytes; a longer line is answered with an `invalid` error instead of being
/// handed to the JSON parser. This bounds parsing, not reading: both drivers
/// hold the whole line in memory before [`decode_line`] sees it.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Decodes one input line by the line rule `pv serve` and `pv batch` share.
/// Blank and `#` comment lines yield `None` and get no answer. Any other line
/// yields its job, or the `invalid` error line that answers it; the error
/// carries the request's `id` when one can be read.
pub fn decode_line(line: &str) -> Option<Result<JobRequest, Json>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let invalid = |id, message: String| error_to_json(id, FlowErrorKind::Invalid, &message);
    if line.len() > MAX_LINE_BYTES {
        return Some(Err(invalid(
            None,
            format!(
                "line of {} bytes exceeds the {MAX_LINE_BYTES}-byte limit",
                line.len()
            ),
        )));
    }
    let value = match Json::parse(line) {
        Ok(value) => value,
        Err(e) => return Some(Err(invalid(None, e.to_string()))),
    };
    Some(
        request_from_json(&value)
            .map_err(|e| invalid(value.get("id").and_then(Json::as_u64), e.to_string())),
    )
}

/// Encodes the response line that answers job `id`: the report line on
/// success, an error line carrying the failure's kind otherwise.
pub fn outcome_to_json(id: u64, outcome: &Result<JobResponse, JobError>) -> Json {
    match outcome {
        Ok(response) => response_to_json(response),
        Err(error) => error_to_json(Some(id), error.kind, &error.message),
    }
}

/// Decodes a response line (what test clients and `pv batch` readers use).
///
/// # Errors
/// Returns [`ProtocolError`] on a malformed response or an `ok: false` line
/// (the error message is passed through).
pub fn response_from_json(v: &Json) -> Result<JobResponse, ProtocolError> {
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let message = v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("malformed response");
        return fail(message);
    }
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError("response lacks an `id`".to_owned()))?;
    let results = v
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtocolError("response lacks `results`".to_owned()))?
        .iter()
        .map(|r| {
            let report = r
                .get("report")
                .ok_or_else(|| ProtocolError("result lacks a `report`".to_owned()))?;
            let report = report_io::flow_report_from_json(report)
                .map_err(|e| ProtocolError(e.to_string()))?;
            Ok(FlowResult {
                flow: report.flow,
                cached: r.get("cached").and_then(Json::as_bool).unwrap_or(false),
                report,
            })
        })
        .collect::<Result<Vec<_>, ProtocolError>>()?;
    Ok(JobResponse { id, results })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_the_wire() {
        let job = JobRequest {
            id: 7,
            design: DesignSpec::Family(
                FamilyConfig::new(3, 4, 2, 1)
                    .stallable()
                    .with_bug(FamilyBug::LostAnnul),
            ),
            flows: vec![FlowKind::Beta, FlowKind::Flushing],
            plans: PlanSet::Explicit(vec!["r\n0\n1\n0".parse().unwrap()]),
            deadline_ms: Some(30_000),
            node_budget: Some(5_000_000),
        };
        let line = request_to_json(&job).render();
        let back = request_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, job);

        // Budget fields are optional on the wire and omitted when absent.
        let unbudgeted = JobRequest {
            deadline_ms: None,
            node_budget: None,
            ..job
        };
        let line = request_to_json(&unbudgeted).render();
        assert!(!line.contains("deadline_ms") && !line.contains("node_budget"));
        let back = request_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, unbudgeted);
    }

    #[test]
    fn error_lines_carry_a_structured_kind() {
        let error = JobError {
            kind: FlowErrorKind::DeadlineExceeded,
            message: "deadline exceeded after 30000 ms".to_owned(),
        };
        assert_eq!(
            outcome_to_json(9, &Err(error)).render(),
            r#"{"id":9,"ok":false,"kind":"deadline_exceeded","error":"deadline exceeded after 30000 ms"}"#
        );
    }

    #[test]
    fn minimal_request_defaults_to_beta_and_default_plans() {
        let line = r#"{"id":0,"design":{"vsm":{"num_regs":2}}}"#;
        let job = request_from_json(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(job.flows, vec![FlowKind::Beta]);
        assert_eq!(job.plans, PlanSet::Default);
        assert_eq!(
            job.design,
            DesignSpec::Vsm {
                num_regs: 2,
                stallable: false
            }
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, what) in [
            (r#"{"design":{"vsm":{"num_regs":2}}}"#, "missing id"),
            (r#"{"id":1}"#, "missing design"),
            (r#"{"id":1,"design":{}}"#, "empty design"),
            (
                r#"{"id":1,"design":{"family":{"depth":2,"word_width":4,"num_regs":2,"delay_slots":0,"bug":"nope"}}}"#,
                "unknown bug",
            ),
            (
                r#"{"id":1,"design":{"vsm":{"num_regs":2}},"flows":[]}"#,
                "empty flows",
            ),
            (
                r#"{"id":1,"design":{"vsm":{"num_regs":2}},"plans":["r x"]}"#,
                "bad plan token",
            ),
            (
                r#"{"id":1,"design":{"vsm":{"num_regs":2}},"deadline_ms":"fast"}"#,
                "non-integer deadline",
            ),
            (
                r#"{"id":1,"design":{"vsm":{"num_regs":2}},"node_budget":-1}"#,
                "negative node budget",
            ),
        ] {
            let v = Json::parse(line).unwrap();
            assert!(request_from_json(&v).is_err(), "must reject {what}");
        }
    }
}
