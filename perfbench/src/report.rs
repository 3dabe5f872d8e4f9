//! What one workload process prints: human-readable lines, then one JSON
//! object as the last line of standard output.

use crate::harness::{Fingerprint, Summary};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A failed correctness gate: which workload, which check, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The workload that failed.
    pub workload: &'static str,
    /// The check that failed.
    pub check: &'static str,
    /// What was observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed check {}: {}",
            self.workload, self.check, self.detail
        )
    }
}

/// Builds a [`Violation`] for `workload`.
pub fn violation(workload: &'static str, check: &'static str, detail: String) -> Violation {
    Violation {
        workload,
        check,
        detail,
    }
}

/// Everything one workload process measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The workload name.
    pub workload: &'static str,
    /// Operations attempted in the timed samples (runs or offered jobs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Summaries of the timings behind the metrics, with their units.
    pub timings: Vec<(&'static str, Summary, &'static str)>,
    /// Free-form `key=value` notes (sample counts, audit results).
    pub notes: Vec<String>,
}

impl Report {
    /// The human-readable lines: the host, the notes, every timing's
    /// spread, then `workload metric value unit` for every metric.
    pub fn lines(&self, host: &Fingerprint) -> Vec<String> {
        let w = self.workload;
        let mut out = vec![format!("# host {}", host.line())];
        out.extend(self.notes.iter().map(|n| format!("# {w} {n}")));
        for (name, summary, unit) in &self.timings {
            out.push(format!("# {w} timing {name} {}", summary.line(unit)));
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            out.push(format!("{w} {} {} {}", m.name, fmt_value(m.value), m.unit));
        }
        out
    }

    /// The result object: the end-to-end metrics untraced, the per-layer
    /// metrics traced.
    pub fn json(&self, traced: bool, correct: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut body = String::new();
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(
                body,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A finite value with all its digits; non-finite values (which no metric
/// should produce) print as 0 so the line stays valid JSON.
pub fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_the_requested_half() {
        let r = Report {
            workload: "w",
            attempted: 4,
            failed: 0,
            end_to_end: vec![metric("setup_s", 0.5, "s")],
            per_layer: vec![metric("cache.evictions", 12.0, "count")],
            ..Report::default()
        };
        assert_eq!(
            r.json(false, true),
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert!(r
            .json(true, true)
            .contains("\"cache.evictions\":{\"value\":12,"));
        let host = Fingerprint::current();
        let lines = r.lines(&host);
        assert!(lines[0].starts_with("# host nproc="));
        assert!(lines.contains(&"w setup_s 0.5 s".to_string()));
        assert_eq!(fmt_value(f64::NAN), "0");
        assert_eq!(fmt_value(0.1234567891), "0.1234567891");
    }
}
