//! The benchmark's own span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's files, around each call into the
//! server: `op → request → {write, wait, read_body, decode}`. The server's
//! `?trace=1` span tree (durations and row counts only — it carries no
//! start times) is attached under `wait`. Everything stays in memory until
//! [`Tracer::to_json`] renders it, with each span's self time, at exit.

use std::time::Instant;

use hbold_sparql::json::JsonValue;
use hbold_sparql::results::json_string;

/// One recorded interval.
#[derive(Debug)]
struct SpanRecord {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Which op of the traced pass the span belongs to.
    op: usize,
    /// The server's own span tree, for `wait` spans of traced queries.
    server: Option<JsonValue>,
}

/// Sums of the server-side phases over everything recorded so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerPhases {
    /// Σ `parse` span time, nanoseconds.
    pub parse_ns: u64,
    /// Σ `plan` span time, nanoseconds.
    pub plan_ns: u64,
    /// Σ `execute` span time, nanoseconds.
    pub execute_ns: u64,
}

/// An in-memory span log with an explicit stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    op: usize,
    /// Server-side phase totals, summed as trees are attached.
    pub server: ServerPhases,
}

impl Tracer {
    /// An empty log; span times are relative to now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            server: ServerPhases::default(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting at `at` under the innermost open span.
    pub fn open_at(&mut self, name: &'static str, at: Instant) {
        if self.open.is_empty() {
            self.op += 1;
        }
        self.spans.push(SpanRecord {
            name,
            parent: self.open.last().copied(),
            start_ns: self.ns(at),
            end_ns: 0,
            op: self.op,
            server: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span at `at`.
    pub fn close_at(&mut self, at: Instant) {
        let index = self.open.pop().expect("close without an open span");
        self.spans[index].end_ns = self.ns(at);
    }

    /// Records a finished child span of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.open_at(name, start);
        self.close_at(end);
    }

    /// Attaches the server's span tree (the `trace` member of a `?trace=1`
    /// answer) to the most recently recorded span and adds its phases to
    /// the running totals.
    pub fn attach_server_tree(&mut self, tree: JsonValue) {
        for child in tree
            .get("children")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let elapsed = child
                .get("elapsed_ns")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64;
            match child.get("name").and_then(JsonValue::as_str) {
                Some("parse") => self.server.parse_ns += elapsed,
                Some("plan") => self.server.plan_ns += elapsed,
                Some("execute") => self.server.execute_ns += elapsed,
                _ => {}
            }
        }
        if let Some(last) = self.spans.last_mut() {
            last.server = Some(tree);
        }
    }

    /// Renders every span as one JSON document: id, parent, name, op, start,
    /// end, duration and self time (duration minus what child spans cover).
    pub fn to_json(&self, workload: &str) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = format!("{{\"workload\":{},\"spans\":[\n", json_string(workload));
        for (id, span) in self.spans.iter().enumerate() {
            let duration = span.end_ns - span.start_ns;
            if id > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{},\"op\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{duration},\"self_ns\":{}",
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.op,
                json_string(span.name),
                span.start_ns,
                span.end_ns,
                duration.saturating_sub(child_ns[id]),
            ));
            if let Some(tree) = &span.server {
                out.push_str(",\"server\":");
                write_server_tree(tree, &mut out);
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Re-renders a server span tree, adding each node's self time.
fn write_server_tree(node: &JsonValue, out: &mut String) {
    let number = |key: &str| node.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
    let children = node
        .get("children")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let covered: u64 = children
        .iter()
        .map(|c| {
            c.get("elapsed_ns")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64
        })
        .sum();
    out.push_str(&format!(
        "{{\"name\":{},\"elapsed_ns\":{},\"self_ns\":{},\"rows\":{},\"children\":[",
        json_string(node.get("name").and_then(JsonValue::as_str).unwrap_or("")),
        number("elapsed_ns"),
        number("elapsed_ns").saturating_sub(covered),
        number("rows"),
    ));
    for (i, child) in children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_server_tree(child, out);
    }
    out.push_str("]}");
}
