//! A hermetic, write-once Prometheus text exposition builder: counters,
//! gauges, and summaries appended in order from finished counts — no
//! dependencies, no handles, no shared state.
//!
//! `dcnrun --metrics` renders one document at exit:
//!
//! ```text
//! # HELP dcnrun_jobs_total Jobs dispatched or skipped.
//! # TYPE dcnrun_jobs_total counter
//! dcnrun_jobs_total 42
//! ```
//!
//! Summaries read a [`StreamingHistogram`] — the same fixed-size
//! log-bucketed sketch the simulator uses for FCT distributions — and
//! expose its quantiles plus `_sum` and `_count`, which fits a sketch
//! that answers percentile queries directly.

use std::fmt::Write;

use dcn_sim::StreamingHistogram;

/// One exposition document under construction. Each metric is rendered
/// as it is added, in the order added.
#[derive(Default)]
pub struct Exposition {
    text: String,
    names: Vec<String>,
}

/// Prometheus metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Exposition {
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Writes the `HELP`/`TYPE` header, refusing a malformed or repeated
    /// name (a programming error, so it panics).
    fn header(&mut self, name: &str, help: &str, ty: &str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(
            !self.names.iter().any(|n| n == name),
            "metric {name:?} registered twice"
        );
        self.names.push(name.to_string());
        let _ = writeln!(self.text, "# HELP {name} {help}\n# TYPE {name} {ty}");
    }

    /// A monotonically increasing count.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) -> &mut Self {
        self.header(name, help, "counter");
        let _ = writeln!(self.text, "{name} {value}");
        self
    }

    /// A value that can go up and down.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) -> &mut Self {
        self.header(name, help, "gauge");
        let _ = writeln!(self.text, "{name} {value}");
        self
    }

    /// A distribution, as quantiles (omitted when empty), `_sum` and
    /// `_count`.
    pub fn summary(&mut self, name: &str, help: &str, sketch: &StreamingHistogram) -> &mut Self {
        self.header(name, help, "summary");
        if !sketch.is_empty() {
            for (label, p) in [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)] {
                let v = sketch.value_at_percentile(p);
                let _ = writeln!(self.text, "{name}{{quantile=\"{label}\"}} {v}");
            }
        }
        let _ = writeln!(self.text, "{name}_sum {}", sketch.sum());
        let _ = writeln!(self.text, "{name}_count {}", sketch.count());
        self
    }

    /// The document so far.
    pub fn text(&self) -> &str {
        &self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let mut e = Exposition::new();
        e.counter("requests_total", "Requests received.", 3).gauge(
            "queue_depth",
            "Requests waiting.",
            7,
        );
        let text = e.text();
        assert_eq!(
            text,
            "# HELP requests_total Requests received.\n\
             # TYPE requests_total counter\n\
             requests_total 3\n\
             # HELP queue_depth Requests waiting.\n\
             # TYPE queue_depth gauge\n\
             queue_depth 7\n"
        );
    }

    #[test]
    fn histograms_render_as_summaries() {
        let mut h = StreamingHistogram::new();
        let mut empty = Exposition::new();
        empty.summary("latency_ms", "Request latency.", &h);
        assert!(
            empty.text().contains("latency_ms_count 0"),
            "{}",
            empty.text()
        );
        assert!(!empty.text().contains("quantile"), "{}", empty.text());
        for v in 1..=100 {
            h.record(v);
        }
        let mut e = Exposition::new();
        e.summary("latency_ms", "Request latency.", &h);
        let text = e.text();
        assert!(text.contains("# TYPE latency_ms summary"), "{text}");
        assert!(text.contains("latency_ms{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("latency_ms_sum 5050\n"), "{text}");
        assert!(text.contains("latency_ms_count 100"), "{text}");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        Exposition::new()
            .counter("dup", "x", 1)
            .gauge("dup", "y", 2);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Exposition::new().counter("9starts-with-digit", "x", 1);
    }
}
