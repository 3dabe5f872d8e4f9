//! [`ObservedOracle`]: the bridge from `crowd-core`'s existing trace seam
//! into the observability layer.
//!
//! The algorithms already narrate their structure through
//! [`ComparisonOracle::observe`] — phase and round boundaries plus the
//! per-round [`TraceEvent::RoundStats`] summary. This decorator listens on
//! that seam and turns the boundary events into structured [`Event`]s and
//! round-level histograms, attributing each round's comparison cost by
//! diffing the inner oracle's [`ComparisonCounts`] across the round.

use crate::event::Event;
use crate::recorder::{emit, observe};
use crate::{class_label, names as metric_names};
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError};
use crowd_core::trace::TraceEvent;

/// Oracle decorator that forwards trace boundary events into the
/// observability recorders (see the module docs). Transparent for
/// comparisons: `compare`/`try_compare`/`counts` delegate straight to the
/// inner oracle, so stacking it changes no algorithm behaviour.
#[derive(Debug)]
pub struct ObservedOracle<O> {
    inner: O,
    /// Inner counts snapshotted at the last `RoundStart`, to attribute the
    /// round's comparisons when its `RoundStats` arrives.
    round_baseline: Option<ComparisonCounts>,
}

impl<O: ComparisonOracle> ObservedOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        ObservedOracle {
            inner,
            round_baseline: None,
        }
    }

    /// Returns the wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// A shared reference to the wrapped oracle.
    pub fn get_ref(&self) -> &O {
        &self.inner
    }
}

impl<O: ComparisonOracle> ComparisonOracle for ObservedOracle<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.inner.compare(class, k, j)
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        self.inner.try_compare(class, k, j)
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.inner.compare_batch(class, pairs, winners);
    }

    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        self.inner.try_compare_batch(class, pairs, winners)
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PhaseStart(phase) => emit(Event::PhaseTransition {
                phase,
                entered: true,
            }),
            TraceEvent::PhaseEnd(phase) => emit(Event::PhaseTransition {
                phase,
                entered: false,
            }),
            TraceEvent::RoundStart(_) => {
                self.round_baseline = Some(self.inner.counts());
            }
            TraceEvent::RoundStats {
                round,
                groups,
                survivors,
            } => {
                let baseline = self
                    .round_baseline
                    .take()
                    .unwrap_or_else(|| self.inner.counts());
                let delta = self.inner.counts().saturating_sub(baseline);
                emit(Event::RoundCompleted {
                    round,
                    groups,
                    survivors,
                    comparisons_by_class: delta,
                });
                observe(metric_names::ROUND_SURVIVORS, &[], survivors);
                for (class, comparisons) in [
                    (WorkerClass::Naive, delta.naive),
                    (WorkerClass::Expert, delta.expert),
                ] {
                    observe(
                        metric_names::ROUND_COMPARISONS,
                        &[("class", class_label(class))],
                        comparisons,
                    );
                }
            }
            TraceEvent::RoundEnd(_) => {}
        }
        self.inner.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SampleValue;
    use crate::recorder::{install_recorder, Recorder};
    use crowd_core::algorithms::{filter_candidates, FilterConfig};
    use crowd_core::element::Instance;
    use crowd_core::oracle::PerfectOracle;
    use std::sync::Arc;

    fn instance(n: usize) -> Instance {
        Instance::new((0..n).map(|i| ((i * 37) % n) as f64).collect())
    }

    #[test]
    fn round_completed_events_reconcile_with_comparison_counts() {
        let inst = instance(64);
        let rec = Arc::new(Recorder::new());
        let total = {
            let _g = install_recorder(rec.clone());
            let mut oracle = ObservedOracle::new(PerfectOracle::new(inst.clone()));
            let outcome = filter_candidates(&mut oracle, &inst.ids(), &FilterConfig::new(4));
            assert!(!outcome.survivors.is_empty());
            oracle.counts()
        };
        let mut by_rounds = ComparisonCounts::zero();
        let mut rounds_seen = 0;
        for event in rec.log().events() {
            if let Event::RoundCompleted {
                comparisons_by_class,
                ..
            } = event
            {
                by_rounds += *comparisons_by_class;
                rounds_seen += 1;
            }
        }
        assert!(rounds_seen > 0, "filter must complete at least one round");
        // Every comparison the filter performed is attributed to exactly
        // one round: the per-round deltas sum back to the oracle's tally.
        assert_eq!(by_rounds, total);
    }

    #[test]
    fn phase_transitions_bracket_the_run() {
        use crowd_core::algorithms::{expert_max_find, ExpertMaxConfig};
        use crowd_core::trace::TracePhase;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let inst = instance(64);
        let rec = Arc::new(Recorder::new());
        {
            let _g = install_recorder(rec.clone());
            let mut oracle = ObservedOracle::new(PerfectOracle::new(inst.clone()));
            let mut rng = StdRng::seed_from_u64(3);
            let _ = expert_max_find(&mut oracle, &inst.ids(), &ExpertMaxConfig::new(4), &mut rng);
        }
        let log: Vec<Event> = rec.log().events().cloned().collect();
        assert_eq!(
            log.first(),
            Some(&Event::PhaseTransition {
                phase: TracePhase::Filter,
                entered: true
            })
        );
        assert_eq!(
            log.last(),
            Some(&Event::PhaseTransition {
                phase: TracePhase::Expert,
                entered: false
            })
        );
        // The filter phase closes before the expert phase opens.
        let close = log
            .iter()
            .position(|e| {
                *e == Event::PhaseTransition {
                    phase: TracePhase::Filter,
                    entered: false,
                }
            })
            .expect("filter close present");
        let open = log
            .iter()
            .position(|e| {
                *e == Event::PhaseTransition {
                    phase: TracePhase::Expert,
                    entered: true,
                }
            })
            .expect("expert open present");
        assert!(close < open);
    }

    #[test]
    fn round_histograms_are_recorded() {
        let inst = instance(32);
        let rec = Arc::new(Recorder::new());
        {
            let _g = install_recorder(rec.clone());
            let mut oracle = ObservedOracle::new(PerfectOracle::new(inst.clone()));
            let _ = filter_candidates(&mut oracle, &inst.ids(), &FilterConfig::new(4));
        }
        let snap = rec.metrics().snapshot();
        let survivors = snap
            .iter()
            .find(|s| s.name == metric_names::ROUND_SURVIVORS)
            .expect("survivor histogram present");
        let SampleValue::Histogram { count, .. } = survivors.value else {
            panic!("histogram expected");
        };
        assert!(count > 0);
        assert!(snap
            .iter()
            .any(|s| s.name == metric_names::ROUND_COMPARISONS));
    }

    #[test]
    fn a_failed_run_reports_nothing_after_its_fault() {
        use crowd_core::algorithms::{try_expert_max_find, ExpertMaxConfig};
        use crowd_core::trace::TracePhase;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        /// Perfect answers until batch `fail_at`, which errs.
        struct FailsAt {
            inner: PerfectOracle,
            fail_at: usize,
            batches: usize,
        }
        impl ComparisonOracle for FailsAt {
            fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
                self.inner.compare(class, k, j)
            }
            fn try_compare_batch(
                &mut self,
                class: WorkerClass,
                pairs: &[(ElementId, ElementId)],
                winners: &mut Vec<ElementId>,
            ) -> Result<(), OracleError> {
                self.batches += 1;
                if self.batches == self.fail_at {
                    return Err(OracleError::Unanswered { attempts: 3 });
                }
                self.inner.compare_batch(class, pairs, winners);
                Ok(())
            }
            fn counts(&self) -> ComparisonCounts {
                self.inner.counts()
            }
        }

        // un = 4: round 0 plays four groups of 16, 60 rows; row 20 fails.
        let inst = instance(64);
        let rec = Arc::new(Recorder::new());
        let (err, batches) = {
            let _g = install_recorder(rec.clone());
            let mut oracle = ObservedOracle::new(FailsAt {
                inner: PerfectOracle::new(inst.clone()),
                fail_at: 20,
                batches: 0,
            });
            let config = ExpertMaxConfig::new(4);
            let mut rng = StdRng::seed_from_u64(3);
            let err = try_expert_max_find(&mut oracle, &inst.ids(), &config, &mut rng);
            (err.unwrap_err(), oracle.into_inner().batches)
        };
        assert_eq!(err, OracleError::Unanswered { attempts: 3 });
        assert_eq!(batches, 20, "no oracle call after the failing one");
        let log: Vec<Event> = rec.log().events().cloned().collect();
        assert_eq!(
            log,
            vec![Event::PhaseTransition {
                phase: TracePhase::Filter,
                entered: true
            }],
            "no round or phase is reported after the fault"
        );
    }

    #[test]
    fn no_recorder_installed_is_a_cheap_no_op() {
        let inst = instance(16);
        let mut oracle = ObservedOracle::new(PerfectOracle::new(inst.clone()));
        let outcome = filter_candidates(&mut oracle, &inst.ids(), &FilterConfig::new(4));
        assert!(!outcome.survivors.is_empty());
    }
}
