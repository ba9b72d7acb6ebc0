//! In-memory span recorder for the traced run.
//!
//! The benchmark brackets every call it makes into a layer with
//! [`Tracer::begin`] / [`Tracer::end`]. `end` always returns the elapsed
//! wall time — the untraced run uses the same brackets as its stopwatch
//! — and only a tracer built with `record = true` keeps the span. Spans
//! live in memory and are written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Handle for an open bracket; give it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    record: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(record: bool) -> Tracer {
        Tracer {
            record,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.record.then(|| {
            self.spans.push(Span {
                name,
                start_s: start.duration_since(self.epoch).as_secs_f64(),
                end_s: f64::NAN,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, idx }
    }

    /// Close a bracket; returns its wall time in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost-first");
            self.spans[idx].end_s = now.duration_since(self.epoch).as_secs_f64();
        }
        now.duration_since(open.start).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed over spans of the same name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.dur_s();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(&child_s) {
        *out.entry(s.name).or_default() += s.dur_s() - covered;
    }
    out
}

/// Total duration of the spans called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .sum()
}

/// The span list as a JSON array (`trace_<workload>.json`).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}{}\n",
            s.name,
            s.start_s * 1e6,
            s.end_s * 1e6,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,10] > run [1,7] > vm [2,4], vm [5,6]; pass > seal [8,9]
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("run", 1.0, 7.0, Some(0)),
            span("vm", 2.0, 4.0, Some(1)),
            span("vm", 5.0, 6.0, Some(1)),
            span("seal", 8.0, 9.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["pass"], 10.0 - 6.0 - 1.0);
        assert_eq!(st["run"], 6.0 - 3.0);
        assert_eq!(st["vm"], 3.0);
        assert_eq!(st["seal"], 1.0);
        // Self times partition the root exactly.
        let sum: f64 = st.values().sum();
        assert!((sum - 10.0).abs() < 1e-12);
        assert_eq!(total(&spans, "vm"), 3.0);
    }

    #[test]
    fn brackets_nest_and_untraced_keeps_nothing() {
        let mut t = Tracer::new(true);
        let a = t.begin("a");
        let b = t.begin("b");
        assert!(t.end(b) >= 0.0);
        assert!(t.end(a) >= 0.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_s >= t.spans()[1].end_s);
        assert!(to_json(t.spans()).contains("\"parent\": 0"));

        let mut off = Tracer::new(false);
        let a = off.begin("a");
        assert!(off.end(a) >= 0.0);
        assert!(off.spans().is_empty());
    }
}
