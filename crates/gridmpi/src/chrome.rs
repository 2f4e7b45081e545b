//! Chrome-trace (Perfetto) JSON export of a [`Trace`].
//!
//! The output is the ["JSON Array Format" with metadata][spec] accepted by
//! `chrome://tracing` and <https://ui.perfetto.dev>: load the file and
//! every rank appears as a pair of tracks in one process, with arrows
//! (flow events) from each send to the receive that opened it.
//!
//! [spec]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Track layout (documented in `docs/observability.md`):
//!
//! * `tid = 2·rank` (named `rank R`) carries the rank's own work —
//!   `compute` and `send` slices. These never overlap.
//! * `tid = 2·rank + 1` (named `rank R waits`) carries `recv` slices
//!   (blocked waits) and the enclosing `phase` slices. A phase span
//!   always contains the receives recorded under it, so the track nests
//!   cleanly. Receives sit on their own track because
//!   `crate::Process::exchange_async` overlaps a receive with its own send.
//! * Virtual seconds map to Chrome's microsecond `ts`/`dur` fields, so
//!   the UI's time axis reads directly in simulated time.
//! * One flow arrow (`ph: "s"` → `ph: "f"`, `bp: "e"`) per matched
//!   message, anchored at the send's end and the receive's end.

use std::fmt::Write as _;

use crate::trace::{Event, EventKind, Trace};

impl Trace {
    /// Serializes this trace as a Chrome-trace JSON object
    /// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
    ///
    /// Deterministic: events are emitted in trace order (sorted by
    /// `(start, rank)`), so equal traces serialize byte-identically.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let push = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&s);
        };

        // Process + thread metadata first, so the UI labels tracks even for
        // ranks whose events start late.
        let num_ranks = self.ranks.len();
        push(
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"grid-tsqr simulation\"}}".to_string(),
            &mut out,
            &mut first,
        );
        for r in 0..num_ranks {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"rank {r}\"}}}}",
                    2 * r
                ),
                &mut out,
                &mut first,
            );
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"rank {r} waits\"}}}}",
                    2 * r + 1
                ),
                &mut out,
                &mut first,
            );
        }

        // Duration slices.
        for e in &self.events {
            push(slice_json(e), &mut out, &mut first);
        }

        // Flow arrows for matched messages.
        for (id, m) in self.messages().enumerate() {
            let s = &self.events[m.send];
            let r = &self.events[m.recv];
            push(
                format!(
                    "{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{id},\"name\":\"msg\",\"cat\":\"flow\"}}",
                    2 * s.rank,
                    micros(s.end.secs())
                ),
                &mut out,
                &mut first,
            );
            push(
                format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{id},\"name\":\"msg\",\"cat\":\"flow\"}}",
                    2 * r.rank + 1,
                    micros(r.end.secs())
                ),
                &mut out,
                &mut first,
            );
        }

        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// One `ph: "X"` duration slice.
fn slice_json(e: &Event) -> String {
    let ts = micros(e.start.secs());
    let dur = micros((e.end - e.start).secs());
    let (tid, name, cat, args) = match &e.kind {
        // `tag`/`wildcard` are deliberately *not* serialized: the Chrome
        // schema (docs/observability.md, pinned by tests/golden/)
        // predates them and the analyzer reads the trace directly.
        EventKind::Send { to, bytes, class, .. } => (
            2 * e.rank,
            format!("send\u{2192}{to}"),
            class.label().to_string(),
            format!("\"bytes\":{bytes},\"to\":{to}"),
        ),
        EventKind::Recv { from, bytes, class, .. } => (
            2 * e.rank + 1,
            format!("recv\u{2190}{from}"),
            class.label().to_string(),
            format!("\"bytes\":{bytes},\"from\":{from}"),
        ),
        EventKind::Compute { flops } => {
            (2 * e.rank, "compute".to_string(), "compute".to_string(), format!("\"flops\":{flops}"))
        }
        EventKind::Phase { name } => {
            (2 * e.rank + 1, (*name).to_string(), "phase".to_string(), String::new())
        }
        // Failure events: waits (detector deadlines, ghost arrivals) go
        // on the wait track; sender-side drops and degradation markers
        // on the work track. All share the "fault" category so Perfetto
        // can color them.
        EventKind::Fault { peer, class, kind } => (
            if kind.is_wait() { 2 * e.rank + 1 } else { 2 * e.rank },
            format!("fault:{}\u{2194}{peer}", kind.label()),
            "fault".to_string(),
            format!(
                "\"peer\":{peer},\"kind\":{},\"link\":{}",
                json_string(kind.label()),
                json_string(class.label())
            ),
        ),
    };
    let mut args = args;
    if let Some(p) = e.phase {
        if !args.is_empty() {
            args.push(',');
        }
        let _ = write!(args, "\"phase\":{}", json_string(p));
    }
    format!(
        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":{},\"cat\":{},\"args\":{{{args}}}}}",
        json_string(&name),
        json_string(&cat),
    )
}

/// Virtual seconds → Chrome microseconds, with nanosecond precision and
/// no scientific notation (Chrome's JSON parser dislikes exponents in
/// `ts`).
fn micros(secs: f64) -> String {
    let mut s = format!("{:.3}", secs * 1e6);
    // Trim trailing zeros (and a bare trailing dot) for compactness.
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::testing::{compute, ev};
    use tsqr_netsim::LinkClass;

    #[test]
    fn micros_formatting() {
        assert_eq!(micros(0.0), "0");
        assert_eq!(micros(1.0), "1000000");
        assert_eq!(micros(0.0000015), "1.5");
        assert_eq!(micros(12.3456789), "12345678.9");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn export_is_valid_shape_and_has_flows() {
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 0.5, compute(10)),
            ev(
                0,
                0.5,
                1.0,
                EventKind::Send { to: 1, bytes: 8, class: LinkClass::IntraNode, tag: 0 },
            ),
            ev(
                1,
                0.0,
                1.0,
                EventKind::Recv {
                    from: 0,
                    bytes: 8,
                    class: LinkClass::IntraNode,
                    tag: 0,
                    wildcard: false,
                },
            ),
        ]);
        let json = t.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
        // One s/f flow pair for the single matched message.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        // Thread metadata for both tracks of both ranks.
        assert_eq!(json.matches("thread_name").count(), 4);
        // Balanced braces (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Recv sits on the odd track.
        assert!(json.contains("\"tid\":3,\"ts\":0,\"dur\":1000000"));
    }

    #[test]
    fn export_is_deterministic() {
        let t = Trace::from_parts(vec![ev(0, 0.0, 0.5, compute(1))]);
        assert_eq!(t.chrome_json(), t.chrome_json());
    }
}
