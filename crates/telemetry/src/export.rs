//! Renders drained traces and logs for external tools.
//!
//! [`to_chrome_trace`] emits the Chrome trace-event JSON format —
//! `{"traceEvents":[...]}` with matched `B`/`E` duration pairs and `i`
//! instant events — loadable in `chrome://tracing` or Perfetto. It is
//! also the one span format that crosses a process: a router merges the
//! documents its workers serve into one lane per process.
//! [`to_folded_stacks`] emits `root;child;leaf <self-time-µs>` lines for
//! `flamegraph.pl` / inferno. Drained [`LogRecord`]s render as JSON-lines
//! ([`log_json_lines`], one self-contained object per line, the format
//! `GET /logs` serves); [`write_utc_timestamp`] formats their capture
//! time for text renderers such as `orex logs`.

use crate::log::{FieldValue, LogRecord};
use crate::trace::{AttrValue, SpanId, SpanRecord, TraceId};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Children of each span, as indices into the drained record slice.
type ChildIndex = HashMap<(TraceId, SpanId), Vec<usize>>;

/// Index of each record's children, ordered by start time, plus the
/// roots. A span whose parent was evicted from the ring is promoted to a
/// root so partial traces still render.
fn build_tree(records: &[SpanRecord]) -> (Vec<usize>, ChildIndex) {
    let ids: HashMap<(TraceId, SpanId), usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.trace, r.id), i))
        .collect();
    let mut roots = Vec::new();
    let mut children: ChildIndex = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        match r.parent {
            Some(p) if ids.contains_key(&(r.trace, p)) => {
                children.entry((r.trace, p)).or_default().push(i);
            }
            _ => roots.push(i),
        }
    }
    let by_start = |a: &usize, b: &usize| {
        records[*a]
            .start_ns
            .cmp(&records[*b].start_ns)
            .then(records[*a].id.0.cmp(&records[*b].id.0))
    };
    roots.sort_by(by_start);
    for c in children.values_mut() {
        c.sort_by(by_start);
    }
    (roots, children)
}

pub(crate) fn escape_json(s: &str, out: &mut String) {
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
}

fn write_attr_value(out: &mut String, value: &AttrValue) {
    match value {
        AttrValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        AttrValue::F64(_) => out.push_str("null"),
        AttrValue::Str(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
    }
}

/// One Chrome trace event line. `ts` is microseconds (float).
fn write_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    ph: char,
    ts_us: f64,
    tid: u64,
    extra: impl FnOnce(&mut String),
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("  {\"name\":\"");
    escape_json(name, out);
    let _ = write!(
        out,
        "\",\"cat\":\"orex\",\"ph\":\"{ph}\",\"ts\":{ts_us},\"pid\":1,\"tid\":{tid}"
    );
    extra(out);
    out.push('}');
}

/// Renders completed spans as Chrome trace-event JSON. Every span
/// becomes a matched `B`/`E` pair (children emitted strictly inside
/// their parent), instant events become `ph:"i"` scoped to the thread,
/// and span attributes plus the trace id ride along in `args`. A span
/// whose parent is not among `records` (a remote caller's span, or one
/// evicted from the ring) keeps that link as `args.parent`.
pub fn to_chrome_trace(records: &[SpanRecord]) -> String {
    let (roots, children) = build_tree(records);
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    // Iterative depth-first emit: open the span, interleave its instant
    // events and children by timestamp, then close it.
    for root in roots {
        let parent = records[root].parent;
        emit_span(records, &children, root, parent, &mut out, &mut first);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}");
    out
}

/// `absent_parent` is the parent id of a root whose parent was not
/// rendered; children pass `None`.
fn emit_span(
    records: &[SpanRecord],
    children: &ChildIndex,
    idx: usize,
    absent_parent: Option<SpanId>,
    out: &mut String,
    first: &mut bool,
) {
    let r = &records[idx];
    write_event(
        out,
        first,
        r.name,
        'B',
        r.start_ns as f64 / 1e3,
        r.tid,
        |out| {
            let _ = write!(out, ",\"args\":{{\"trace\":{}", r.trace.0);
            if let Some(parent) = absent_parent {
                let _ = write!(out, ",\"parent\":{}", parent.0);
            }
            for (key, value) in &r.attrs {
                out.push_str(",\"");
                escape_json(key, out);
                out.push_str("\":");
                write_attr_value(out, value);
            }
            out.push('}');
        },
    );
    // Merge children and instant events into one timeline.
    enum Item<'a> {
        Child(usize),
        Event(&'a crate::trace::TraceEvent),
    }
    let mut items: Vec<(u64, Item<'_>)> = Vec::new();
    if let Some(kids) = children.get(&(r.trace, r.id)) {
        for &k in kids {
            items.push((records[k].start_ns, Item::Child(k)));
        }
    }
    for e in &r.events {
        items.push((e.at_ns, Item::Event(e)));
    }
    items.sort_by_key(|(ts, _)| *ts);
    for (_, item) in items {
        match item {
            Item::Child(k) => emit_span(records, children, k, None, out, first),
            Item::Event(e) => write_event(
                out,
                first,
                e.name,
                'i',
                e.at_ns as f64 / 1e3,
                r.tid,
                |out| out.push_str(",\"s\":\"t\""),
            ),
        }
    }
    write_event(
        out,
        first,
        r.name,
        'E',
        r.end_ns as f64 / 1e3,
        r.tid,
        |_| {},
    );
}

/// Renders completed spans as folded flamegraph stacks: one
/// `root;child;leaf <self-time-µs>` line per unique stack, name-sorted.
/// Self time is the span's duration minus its children's durations, so
/// the flamegraph's widths add up.
pub fn to_folded_stacks(records: &[SpanRecord]) -> String {
    let (roots, children) = build_tree(records);
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    fn walk(
        records: &[SpanRecord],
        children: &ChildIndex,
        idx: usize,
        prefix: &str,
        folded: &mut BTreeMap<String, u64>,
    ) {
        let r = &records[idx];
        let path = if prefix.is_empty() {
            r.name.to_string()
        } else {
            format!("{prefix};{}", r.name)
        };
        let mut child_ns = 0u64;
        if let Some(kids) = children.get(&(r.trace, r.id)) {
            for &k in kids {
                child_ns += records[k].duration_ns();
                walk(records, children, k, &path, folded);
            }
        }
        let self_us = r.duration_ns().saturating_sub(child_ns) / 1_000;
        *folded.entry(path).or_insert(0) += self_us;
    }
    for root in roots {
        walk(records, &children, root, "", &mut folded);
    }
    let mut out = String::new();
    for (path, us) in folded {
        let _ = writeln!(out, "{path} {us}");
    }
    out
}

fn write_field_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::Str(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
    }
}

/// Appends one log record as a single-line JSON object (no newline):
/// `{"seq":…,"ts_ns":…,"level":"INFO","target":…,"message":…,`
/// `"trace":…,"span":…,"tid":…,"fields":{…}}`. `trace`/`span` are
/// omitted for records made outside any span.
pub fn log_record_json(record: &LogRecord, out: &mut String) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"ts_ns\":{},\"level\":\"{}\",\"target\":\"",
        record.seq,
        record.unix_ns,
        record.level.as_str()
    );
    escape_json(record.target, out);
    out.push_str("\",\"message\":\"");
    escape_json(&record.message, out);
    out.push('"');
    if let Some(trace) = record.trace {
        let _ = write!(out, ",\"trace\":{}", trace.0);
    }
    if let Some(span) = record.span {
        let _ = write!(out, ",\"span\":{}", span.0);
    }
    let _ = write!(out, ",\"tid\":{},\"fields\":{{", record.tid);
    for (i, (key, value)) in record.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(key, out);
        out.push_str("\":");
        write_field_value(out, value);
    }
    out.push_str("}}");
}

/// Renders drained log records as JSON-lines: one
/// [`log_record_json`] object per line, capture order preserved.
pub fn log_json_lines(records: &[LogRecord]) -> String {
    let mut out = String::new();
    for record in records {
        log_record_json(record, &mut out);
        out.push('\n');
    }
    out
}

/// Days-since-epoch to `(year, month, day)` in the proleptic Gregorian
/// calendar (Howard Hinnant's `civil_from_days`).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

/// Appends `unix_ns` (nanoseconds since the Unix epoch) as an RFC 3339
/// UTC timestamp with microsecond precision, e.g.
/// `2025-08-06T14:03:07.000123Z`.
pub fn write_utc_timestamp(unix_ns: u64, out: &mut String) {
    let secs = unix_ns / 1_000_000_000;
    let micros = (unix_ns % 1_000_000_000) / 1_000;
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    let tod = secs % 86_400;
    let _ = write!(
        out,
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}.{micros:06}Z",
        tod / 3600,
        (tod % 3600) / 60,
        tod % 60
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{Level, Logger};
    use crate::trace::Tracer;

    fn sample_records() -> Vec<SpanRecord> {
        let t = Tracer::new(64);
        {
            let mut root = t.span("session.query");
            root.attr_str("query", "multicast \"routing\"");
            {
                let _rank = t.span("session.rank");
                let mut it = t.span("authority.power.iteration");
                it.attr_f64("residual", 0.5);
                it.event("topk.prune");
            }
        }
        t.drain()
    }

    #[test]
    fn chrome_trace_has_matched_pairs_in_nesting_order() {
        let json = to_chrome_trace(&sample_records());
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 3);
        assert_eq!(e, 3);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        // The root opens first and closes last.
        let first_b = json.find("session.query").unwrap();
        let last_e = json.rfind("session.query").unwrap();
        let iter_b = json.find("authority.power.iteration").unwrap();
        assert!(first_b < iter_b && iter_b < last_e, "{json}");
        // Attributes land in args, escaped.
        assert!(
            json.contains("\"query\":\"multicast \\\"routing\\\"\""),
            "{json}"
        );
        assert!(json.contains("\"residual\":0.5"), "{json}");
    }

    #[test]
    fn orphaned_children_become_roots() {
        let mut records = sample_records();
        let root = records
            .iter()
            .find(|r| r.name == "session.query")
            .map(|r| r.id)
            .unwrap();
        // Drop the root record: its child must still render.
        records.retain(|r| r.name != "session.query");
        let json = to_chrome_trace(&records);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        // The promoted root keeps its absent parent's id in `args`; its
        // child, whose parent is rendered, carries none.
        let doc = serde_json::from_str(&json).unwrap();
        let parent_of = |name: &str| {
            let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
            let begin = events
                .iter()
                .find(|e| {
                    e.get("name").and_then(|n| n.as_str()) == Some(name)
                        && e.get("ph").and_then(|p| p.as_str()) == Some("B")
                })
                .unwrap();
            begin.get("args").unwrap().get("parent").map(|p| p.as_u64())
        };
        assert_eq!(parent_of("session.rank"), Some(Some(root.0)), "{json}");
        assert_eq!(parent_of("authority.power.iteration"), None, "{json}");
    }

    #[test]
    fn folded_stacks_fold_paths() {
        let folded = to_folded_stacks(&sample_records());
        assert!(
            folded.contains("session.query;session.rank;authority.power.iteration "),
            "{folded}"
        );
        let mut lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 3, "{folded}");
        let sorted = {
            lines.sort();
            lines
        };
        assert_eq!(sorted, folded.lines().collect::<Vec<_>>(), "name-sorted");
        for line in folded.lines() {
            let (_, count) = line.rsplit_once(' ').unwrap();
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn empty_trace_serializes() {
        assert_eq!(
            to_chrome_trace(&[]),
            "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ms\"}"
        );
        assert_eq!(to_folded_stacks(&[]), "");
    }

    fn sample_logs() -> Vec<LogRecord> {
        let l = Logger::new(16);
        l.set_filter(crate::log::LogFilter::at(Level::Debug));
        l.info("server.access", "request")
            .field_str("method", "GET")
            .field_str("path", "/query?q=\"routing\"")
            .field_u64("status", 200)
            .field_bool("cache", false)
            .field_f64("bad", f64::NAN)
            .emit();
        l.debug("t", "plain").emit();
        l.drain()
    }

    #[test]
    fn log_json_lines_escape_and_separate_records() {
        let records = sample_logs();
        let jsonl = log_json_lines(&records);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":"), "{jsonl}");
        assert!(lines[0].contains("\"level\":\"INFO\""), "{jsonl}");
        assert!(lines[0].contains("\"target\":\"server.access\""), "{jsonl}");
        assert!(
            lines[0].contains("\"path\":\"/query?q=\\\"routing\\\"\""),
            "{jsonl}"
        );
        assert!(lines[0].contains("\"cache\":false"), "{jsonl}");
        assert!(lines[0].contains("\"bad\":null"), "non-finite floats null");
        assert!(lines[1].contains("\"fields\":{}"), "{jsonl}");
    }

    #[test]
    fn civil_from_days_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_723 + 31 + 28), (2024, 2, 29));
        assert_eq!(civil_from_days(20_306), (2025, 8, 6));
        let mut ts = String::new();
        write_utc_timestamp(86_400_000_000_000 + 3_661_000_001_000, &mut ts);
        assert_eq!(ts, "1970-01-02T01:01:01.000001Z");
    }
}
