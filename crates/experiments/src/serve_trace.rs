//! Span-log analysis for crowd-serve: waterfalls and latency attribution.
//!
//! The service emits one deterministic span tree per completed job (see
//! `crowd_obs::span`); this module turns a `spans.jsonl` into the two
//! artifacts an operator actually reads:
//!
//! * an **attribution table** — per tenant × pipeline stage, how many of
//!   the tenant's latency ticks that stage accounts for. The rows sum to
//!   *exactly* the tenant's total job latency: the span layer attributes
//!   every tick a job stays alive to exactly one stage, and
//!   [`analyze`] refuses a log where any job's books don't balance;
//! * per-job **ASCII waterfalls** — the `[start, end)` bounds of each
//!   stage drawn on the job's own tick axis, worst-latency jobs first.
//!
//! [`demo_run`] drives the canonical sweep scenario and returns its span
//! log; the `serve_trace` binary writes one such log per seed for the
//! analyzer. Kill/resume equivalence of span logs is gated by
//! `serve_sweep`'s `resume identical` column.

use crate::report::Table;
use crate::serve_sweep;
use crowd_obs::{install_recorder, stage_label, Recorder, Span, SpanLog, Stage};
use crowd_platform::serve::{ArrivalPlan, CrowdServe, ServeReport};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One job's reconstructed trace: the boundary ticks plus its stage spans
/// (markers excluded), in canonical stage order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTrace {
    /// The owning tenant.
    pub tenant: u32,
    /// The service-assigned job id.
    pub job: u64,
    /// Submission tick (the `Admission` marker).
    pub submitted: u64,
    /// Completion tick (the `Completion` marker).
    pub completed: u64,
    /// The job's non-marker spans, in canonical order.
    pub stages: Vec<Span>,
}

impl JobTrace {
    /// Submission-to-completion latency, in ticks.
    pub fn latency(&self) -> u64 {
        self.completed - self.submitted
    }
}

/// A fully reconciled span log, ready for rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAnalysis {
    /// Every traced job, sorted by `(tenant, job)`.
    pub jobs: Vec<JobTrace>,
    /// Aggregate ticks per `(tenant, stage)`, stages in pipeline order.
    pub stage_ticks: BTreeMap<(u32, Stage), (u64, u64)>,
}

/// Reconstructs per-job traces and the aggregate attribution from a span
/// log, enforcing the accounting invariant first.
///
/// # Errors
///
/// Returns the reconciliation violations (one message per broken job)
/// when any job's stage ticks fail to sum to its latency or a marker is
/// missing — an analyzer that renders unbalanced books would lie.
pub fn analyze(log: &SpanLog) -> Result<TraceAnalysis, Vec<String>> {
    log.reconcile()?;
    let mut jobs: BTreeMap<(u32, u64), JobTrace> = BTreeMap::new();
    for span in &log.spans {
        let trace = jobs.entry((span.tenant, span.job)).or_insert(JobTrace {
            tenant: span.tenant,
            job: span.job,
            submitted: 0,
            completed: 0,
            stages: Vec::new(),
        });
        match span.stage {
            Stage::Admission => trace.submitted = span.start,
            Stage::Completion => trace.completed = span.start,
            _ => trace.stages.push(*span),
        }
    }
    let mut stage_ticks: BTreeMap<(u32, Stage), (u64, u64)> = BTreeMap::new();
    for trace in jobs.values() {
        for span in &trace.stages {
            let slot = stage_ticks
                .entry((span.tenant, span.stage))
                .or_insert((0, 0));
            slot.0 += 1;
            slot.1 += span.ticks;
        }
    }
    Ok(TraceAnalysis {
        jobs: jobs.into_values().collect(),
        stage_ticks,
    })
}

impl TraceAnalysis {
    /// Total latency ticks across a tenant's jobs (the attribution
    /// table's row sums must reproduce this exactly).
    pub fn tenant_latency(&self, tenant: u32) -> u64 {
        self.jobs
            .iter()
            .filter(|j| j.tenant == tenant)
            .map(JobTrace::latency)
            .sum()
    }

    /// The aggregate attribution table: per tenant × stage, the jobs the
    /// stage touched, the ticks it accounts for, and its share of the
    /// tenant's total latency in basis points.
    pub fn attribution_table(&self) -> Table {
        let mut t = Table::new(
            "serve_trace",
            "crowd-serve latency attribution: ticks per tenant × pipeline stage",
            &["tenant", "stage", "jobs", "ticks", "share bps"],
        )
        .with_notes(
            "Every tick between a job's submission and completion is \
             attributed to exactly one stage, so each tenant's `ticks` \
             column sums to the tenant's total job latency and its `share \
             bps` column sums to 10000 (give or take integer rounding). \
             The analyzer refuses logs where any job's books don't \
             balance.",
        );
        let tenants: Vec<u32> = {
            let mut v: Vec<u32> = self.jobs.iter().map(|j| j.tenant).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for tenant in tenants {
            let total = self.tenant_latency(tenant);
            for stage in Stage::ALL {
                let Some((jobs, ticks)) = self.stage_ticks.get(&(tenant, stage)) else {
                    continue;
                };
                let share = match (ticks * 10_000).checked_div(total) {
                    Some(bps) => bps.to_string(),
                    None => "-".to_string(),
                };
                t.push_row(vec![
                    tenant.to_string(),
                    stage_label(stage).to_string(),
                    jobs.to_string(),
                    ticks.to_string(),
                    share,
                ]);
            }
            t.push_row(vec![
                tenant.to_string(),
                "total".to_string(),
                self.jobs
                    .iter()
                    .filter(|j| j.tenant == tenant)
                    .count()
                    .to_string(),
                total.to_string(),
                if total == 0 {
                    "-".into()
                } else {
                    "10000".into()
                },
            ]);
        }
        t
    }

    /// Draws one job's waterfall: each stage's `[start, end)` bounds on
    /// the job's own tick axis, one character per tick (scaled down when
    /// the latency exceeds `width` columns).
    pub fn waterfall(trace: &JobTrace, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let latency = trace.latency().max(1);
        let cols = (latency as usize).min(width.max(8));
        let scale = |tick: u64| -> usize {
            ((tick - trace.submitted) as usize * cols / latency as usize).min(cols)
        };
        let _ = writeln!(
            out,
            "tenant {} job {}: ticks {}..{} (latency {})",
            trace.tenant,
            trace.job,
            trace.submitted,
            trace.completed,
            trace.latency()
        );
        for span in &trace.stages {
            let (a, b) = (
                scale(span.start),
                scale(span.end).max(scale(span.start) + 1),
            );
            let mut bar = String::with_capacity(cols);
            for c in 0..cols {
                bar.push(if c >= a && c < b { '#' } else { '.' });
            }
            let _ = writeln!(
                out,
                "  {:<18} |{bar}| {}",
                stage_label(span.stage),
                span.ticks
            );
        }
        out
    }

    /// Renders the full human-readable report: the attribution table
    /// followed by waterfalls for the `max_waterfalls` slowest jobs.
    pub fn render_report(&self, max_waterfalls: usize) -> String {
        let mut out = self.attribution_table().to_markdown();
        if max_waterfalls == 0 {
            return out;
        }
        let mut slowest: Vec<&JobTrace> = self.jobs.iter().collect();
        slowest.sort_by_key(|j| (std::cmp::Reverse(j.latency()), j.tenant, j.job));
        out.push_str("\n```\n");
        for trace in slowest.into_iter().take(max_waterfalls) {
            out.push_str(&Self::waterfall(trace, 60));
        }
        out.push_str("```\n");
        out
    }
}

/// Ticks generous enough that the demo scenario drains naturally.
const MAX_TICKS: u64 = 600;

/// The canonical trace scenario: the sweep's double-load arrival process
/// against its breakers-on faulty config — overload, queueing, retries,
/// and degradations all appear in the span log.
pub fn demo_plan(seed: u64) -> ArrivalPlan {
    let (num, den) = serve_sweep::rate_for(1);
    ArrivalPlan::new(seed ^ 0xA1, num, den, 48, 2)
        .with_catalog(4, 9)
        .with_deadline(40)
}

/// Runs the canonical scenario uninterrupted and returns its span log
/// with the service report.
pub fn demo_run(seed: u64) -> (SpanLog, ServeReport) {
    let rec = Arc::new(Recorder::new());
    let report = {
        let _guard = install_recorder(rec.clone());
        let mut service =
            CrowdServe::new(serve_sweep::config_for(0), seed).expect("config is valid");
        service
            .run(&demo_plan(seed), MAX_TICKS)
            .expect("no chaos: cannot crash")
    };
    (rec.span_log(), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_attributes_every_latency_tick() {
        let (log, report) = demo_run(17);
        let analysis = analyze(&log).expect("a real run reconciles");
        assert_eq!(analysis.jobs.len(), report.jobs.len());

        // 100% attribution, checked against the report: per tenant, the
        // attribution rows sum to exactly the summed job latencies.
        let mut per_tenant: BTreeMap<u32, u64> = BTreeMap::new();
        for job in &report.jobs {
            *per_tenant.entry(job.tenant.0).or_insert(0) += job.latency_ticks();
        }
        assert!(!per_tenant.is_empty());
        for (tenant, latency) in per_tenant {
            assert_eq!(
                analysis.tenant_latency(tenant),
                latency,
                "tenant {tenant}: attribution must equal report latency"
            );
            let attributed: u64 = analysis
                .stage_ticks
                .iter()
                .filter(|((t, _), _)| *t == tenant)
                .map(|(_, (_, ticks))| ticks)
                .sum();
            assert_eq!(attributed, latency, "tenant {tenant}: 100% of latency");
        }
    }

    #[test]
    fn attribution_table_rows_balance() {
        let (log, _) = demo_run(19);
        let table = analyze(&log).expect("reconciles").attribution_table();
        assert!(!table.rows.is_empty());
        // Per tenant: the stage rows' ticks sum to the total row's ticks.
        let mut sums: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for row in &table.rows {
            let slot = sums.entry(row[0].clone()).or_insert((0, 0));
            let ticks: u64 = row[3].parse().expect("ticks column is numeric");
            if row[1] == "total" {
                slot.1 = ticks;
            } else {
                slot.0 += ticks;
            }
        }
        for (tenant, (stages, total)) in sums {
            assert_eq!(stages, total, "tenant {tenant} rows must balance");
        }
    }

    #[test]
    fn analyzer_refuses_unbalanced_books() {
        let (log, _) = demo_run(23);
        // Drop one non-marker span with ticks: its job's books no longer
        // balance, and the analyzer must say so rather than render.
        let victim = log
            .spans
            .iter()
            .position(|s| s.ticks > 0 && !matches!(s.stage, Stage::Admission | Stage::Completion))
            .expect("a real run has attributed ticks");
        let mut spans = log.spans.clone();
        spans.remove(victim);
        let bad = analyze(&SpanLog::from_spans(spans)).expect_err("missing ticks");
        assert!(!bad.is_empty());
    }

    #[test]
    fn report_renders_waterfalls_for_the_slowest_jobs() {
        let (log, _) = demo_run(31);
        let analysis = analyze(&log).expect("reconciles");
        let report = analysis.render_report(3);
        assert!(report.contains("serve_trace"), "{report}");
        assert!(report.contains("share bps"), "{report}");
        assert!(report.contains("latency"), "{report}");
        // Three waterfall headers, one per job.
        assert!(report.matches("tenant ").count() >= 3, "{report}");
        // No waterfalls requested → table only.
        let table_only = analysis.render_report(0);
        assert!(!table_only.contains("```"), "{table_only}");
    }
}
