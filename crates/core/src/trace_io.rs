//! JSONL serialization of `pv-obs` trace events over the dependency-free
//! [`crate::json`] value model — one event object per line, in the canonical
//! `(tid, seq)` export order of [`pv_obs::take_events`].
//!
//! `pv-obs` sits below this crate in the dependency order (the BDD engine is
//! instrumented with it), so it cannot render its own events through
//! [`crate::json`]; this module is the bridge. Everything that writes or
//! reads a trace file — the `pv trace` subcommand, the `trace_report`
//! profile explainer, the CI trace-smoke job — goes through it.
//!
//! The format is stable and self-describing: `{"tid":0,"seq":12,
//! "kind":"enter","name":"sim.cycle","t_us":3456}` with an optional `"msg"`
//! on `warn` events. Rendering is deterministic (the [`crate::json`] writer
//! plus the canonical event order), so two exports of the same event list
//! are byte-identical.
//!
//! ```
//! use pipeverify_core::trace_io;
//!
//! pv_obs::set_trace_enabled(true);
//! {
//!     let _g = pv_obs::span("doc.example");
//! }
//! pv_obs::set_trace_enabled(false);
//! let events = pv_obs::take_events();
//! let jsonl = trace_io::render_jsonl(&events);
//! let back = trace_io::parse_jsonl(&jsonl).expect("well-formed");
//! assert_eq!(back, events);
//! ```

use std::borrow::Cow;

use pv_obs::{TraceEvent, TraceKind};

use crate::json::Json;

/// An error while decoding a trace line: which line (1-based), and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceIoError {
    /// 1-based line number of the offending event.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace JSONL, line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceIoError {}

fn kind_str(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::Enter => "enter",
        TraceKind::Exit => "exit",
        TraceKind::Warn => "warn",
    }
}

/// Encodes one [`TraceEvent`] as a JSON object (`msg` only present on
/// warnings, so enter/exit lines stay short).
pub fn event_to_json(e: &TraceEvent) -> Json {
    let mut fields = vec![
        ("tid".to_owned(), Json::from_u64(e.tid)),
        ("seq".to_owned(), Json::from_u64(e.seq)),
        ("kind".to_owned(), Json::Str(kind_str(e.kind).to_owned())),
        ("name".to_owned(), Json::Str(e.name.to_string())),
        ("t_us".to_owned(), Json::from_u64(e.t_us)),
    ];
    if let Some(msg) = &e.msg {
        fields.push(("msg".to_owned(), Json::Str(msg.clone())));
    }
    Json::Obj(fields)
}

/// Decodes one event object. Parsed-back names are owned strings (the
/// in-process side borrows statics; the [`Cow`] in [`TraceEvent::name`]
/// carries both).
fn event_from_json(v: &Json, line: usize) -> Result<TraceEvent, TraceIoError> {
    let fail = |message: &str| TraceIoError {
        line,
        message: message.to_owned(),
    };
    let field_u64 = |name: &str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| fail(&format!("missing or non-integer `{name}`")))
    };
    let kind = match v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing or non-string `kind`"))?
    {
        "enter" => TraceKind::Enter,
        "exit" => TraceKind::Exit,
        "warn" => TraceKind::Warn,
        other => return Err(fail(&format!("unknown kind `{other}`"))),
    };
    Ok(TraceEvent {
        tid: field_u64("tid")?,
        seq: field_u64("seq")?,
        kind,
        name: Cow::Owned(
            v.get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("missing or non-string `name`"))?
                .to_owned(),
        ),
        t_us: field_u64("t_us")?,
        msg: v.get("msg").and_then(Json::as_str).map(str::to_owned),
    })
}

/// Renders a trace as JSONL: one event per line, trailing newline, in the
/// order given (pass [`pv_obs::take_events`] output for the canonical
/// order). Deterministic: identical event lists render to identical bytes.
pub fn render_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e).render());
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace written by [`render_jsonl`]. Blank lines are
/// skipped, so a concatenation of exports parses too.
///
/// # Errors
/// Returns [`TraceIoError`] naming the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceIoError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            let v = Json::parse(l).map_err(|e| TraceIoError {
                line: i + 1,
                message: e.to_string(),
            })?;
            event_from_json(&v, i + 1)
        })
        .collect()
}

/// Drains the process's trace buffers ([`pv_obs::take_events`]) and writes
/// them as JSONL to `path`. Returns the number of events written.
///
/// # Errors
/// Propagates the I/O error when the file cannot be written.
pub fn export_to_path(path: &std::path::Path) -> std::io::Result<usize> {
    let events = pv_obs::take_events();
    std::fs::write(path, render_jsonl(&events))?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(tid: u64, seq: u64, kind: TraceKind, name: &'static str) -> TraceEvent {
        TraceEvent {
            tid,
            seq,
            kind,
            name: Cow::Borrowed(name),
            t_us: 100 * seq + tid,
            msg: matches!(kind, TraceKind::Warn).then(|| format!("warned by {name}")),
        }
    }

    #[test]
    fn jsonl_round_trips_all_event_kinds() {
        let events = vec![
            event(0, 0, TraceKind::Enter, "a.b"),
            event(0, 1, TraceKind::Warn, "pv_threads"),
            event(0, 2, TraceKind::Exit, "a.b"),
            event(1, 0, TraceKind::Enter, "c"),
            event(1, 1, TraceKind::Exit, "c"),
        ];
        let jsonl = render_jsonl(&events);
        assert_eq!(jsonl.lines().count(), events.len(), "one line per event");
        let back = parse_jsonl(&jsonl).expect("round trip");
        assert_eq!(back, events);
        assert_eq!(render_jsonl(&back), jsonl, "re-render is byte-identical");
    }

    #[test]
    fn parse_skips_blank_lines_and_names_the_bad_one() {
        let good = render_jsonl(&[event(0, 0, TraceKind::Enter, "x")]);
        let text = format!("\n{good}\n{{\"tid\":0}}\n");
        let err = parse_jsonl(&text).expect_err("line 4 is malformed");
        assert_eq!(err.line, 4);
        assert!(err.message.contains("kind"), "{err}");
        assert_eq!(parse_jsonl(&format!("\n{good}\n")).unwrap().len(), 1);
    }

    #[test]
    fn enter_and_exit_lines_omit_msg() {
        let line = event_to_json(&event(3, 7, TraceKind::Enter, "sim.cycle")).render();
        assert_eq!(
            line,
            r#"{"tid":3,"seq":7,"kind":"enter","name":"sim.cycle","t_us":703}"#
        );
    }
}
