//! Text exposition of a metrics snapshot: a Prometheus-style text format
//! and a JSON twin. Both render a sorted [`MetricSample`] snapshot, so two
//! equal registries produce byte-identical files — which is what the CI
//! `obs-smoke` diff relies on.

use crate::metrics::{MetricSample, SampleValue};
use std::fmt::Write as _;

/// Renders a snapshot in the Prometheus text exposition format:
///
/// ```text
/// # TYPE crowd_comparisons_total counter
/// crowd_comparisons_total{class="naive"} 96
/// # TYPE crowd_round_survivors histogram
/// crowd_round_survivors_bucket{le="1"} 0
/// ...
/// crowd_round_survivors_bucket{le="+Inf"} 4
/// crowd_round_survivors_sum 33
/// crowd_round_survivors_count 4
/// ```
///
/// One `# HELP` line (for names with a registered description — see
/// [`crate::metric_help`]) and one `# TYPE` line per metric name (samples
/// arrive sorted by name, so label sets of the same metric group under one
/// header). Label values are escaped per the format: backslash, double
/// quote and newline.
///
/// The label block renders into a single reusable buffer across all
/// samples — one histogram sample alone needs the block a dozen times, so
/// a fresh allocation per line showed up in the serve-load profiles.
pub fn render_prometheus(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut labels = String::new();
    let mut last_name: Option<&str> = None;
    for sample in samples {
        if last_name != Some(sample.name.as_str()) {
            if let Some(help) = crate::metric_help(&sample.name) {
                let _ = writeln!(out, "# HELP {} {help}", sample.name);
            }
            let _ = writeln!(out, "# TYPE {} {}", sample.name, sample.type_name());
            last_name = Some(sample.name.as_str());
        }
        match &sample.value {
            SampleValue::Counter { value } => {
                write_label_block(&mut labels, sample, &[]);
                let _ = writeln!(out, "{}{labels} {value}", sample.name);
            }
            SampleValue::Gauge { value } => {
                write_label_block(&mut labels, sample, &[]);
                let _ = writeln!(out, "{}{labels} {value}", sample.name);
            }
            SampleValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                for bucket in buckets {
                    write_label_block(&mut labels, sample, &[("le", &bucket.le)]);
                    let _ = writeln!(out, "{}_bucket{labels} {}", sample.name, bucket.count);
                }
                write_label_block(&mut labels, sample, &[]);
                let _ = writeln!(out, "{}_sum{labels} {sum}", sample.name);
                let _ = writeln!(out, "{}_count{labels} {count}", sample.name);
            }
        }
    }
    out
}

/// Renders a snapshot as pretty-printed JSON (trailing newline) — the
/// machine-readable twin of [`render_prometheus`], written next to it as
/// `metrics.json`.
pub fn render_json(samples: &[MetricSample]) -> String {
    let mut out =
        serde_json::to_string_pretty(&samples.to_vec()).expect("metric snapshot serializes");
    out.push('\n');
    out
}

/// Renders `{a="1",b="2"}` from the sample's labels plus any extra pairs
/// (the histogram `le`) into `buf` — cleared first, left empty when there
/// are no labels. Reusing one buffer keeps the render allocation-free per
/// line.
fn write_label_block(buf: &mut String, sample: &MetricSample, extra: &[(&str, &str)]) {
    buf.clear();
    let pairs = sample
        .labels
        .iter()
        .map(|l| (l.name.as_str(), l.value.as_str()))
        .chain(extra.iter().copied());
    for (i, (k, v)) in pairs.enumerate() {
        buf.push(if i == 0 { '{' } else { ',' });
        buf.push_str(k);
        buf.push_str("=\"");
        escape_label_value_into(buf, v);
        buf.push('"');
    }
    if !buf.is_empty() {
        buf.push('}');
    }
}

/// Escapes a label value per the exposition format into `out`: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
fn escape_label_value_into(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter_add("crowd_comparisons_total", &[("class", "naive")], 96);
        r.counter_add("crowd_comparisons_total", &[("class", "expert")], 3);
        r.gauge_set("crowd_retry_depth_max", &[], 2);
        // A test-only name: bucket layouts are process-wide, and the real
        // `crowd_round_survivors` uses `DEFAULT_BUCKETS`.
        r.observe_with("fixture_round_survivors", &[], &[1, 10, 100], 33);
        r
    }

    #[test]
    fn prometheus_output_has_one_type_line_per_name() {
        let text = render_prometheus(&sample_registry().snapshot());
        assert_eq!(
            text.matches("# TYPE crowd_comparisons_total counter")
                .count(),
            1
        );
        assert!(text.contains("crowd_comparisons_total{class=\"expert\"} 3\n"));
        assert!(text.contains("crowd_comparisons_total{class=\"naive\"} 96\n"));
        assert!(text.contains("# TYPE crowd_retry_depth_max gauge"));
        assert!(text.contains("crowd_retry_depth_max 2\n"));
    }

    #[test]
    fn histograms_render_buckets_sum_and_count() {
        let text = render_prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE fixture_round_survivors histogram"));
        assert!(text.contains("fixture_round_survivors_bucket{le=\"1\"} 0\n"));
        assert!(text.contains("fixture_round_survivors_bucket{le=\"100\"} 1\n"));
        assert!(text.contains("fixture_round_survivors_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("fixture_round_survivors_sum 33\n"));
        assert!(text.contains("fixture_round_survivors_count 1\n"));
    }

    #[test]
    fn known_names_get_a_help_line_before_their_type_line() {
        let r = MetricsRegistry::new();
        r.counter_add(crate::names::COMPARISONS_TOTAL, &[("class", "naive")], 1);
        r.counter_add("made_up_metric_total", &[], 1);
        let text = render_prometheus(&r.snapshot());
        let help_pos = text
            .find("# HELP crowd_comparisons_total ")
            .expect("registered names carry a HELP line");
        let type_pos = text.find("# TYPE crowd_comparisons_total ").unwrap();
        assert!(help_pos < type_pos, "HELP precedes TYPE: {text}");
        assert!(
            !text.contains("# HELP made_up_metric_total"),
            "unregistered names stay HELP-less: {text}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        r.counter_add("m", &[("k", "a\"b\\c\nd")], 1);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("m{k=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    fn json_twin_parses_back_to_the_same_snapshot() {
        let snap = sample_registry().snapshot();
        let json = render_json(&snap);
        let parsed: Vec<MetricSample> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn equal_registries_render_byte_identically() {
        let a = render_prometheus(&sample_registry().snapshot());
        let b = render_prometheus(&sample_registry().snapshot());
        assert_eq!(a, b);
        assert_eq!(
            render_json(&sample_registry().snapshot()),
            render_json(&sample_registry().snapshot())
        );
    }
}
