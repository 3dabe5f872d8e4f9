//! Logical and physical time steps (paper Section 3, "Human workers and
//! crowdsourcing algorithms").
//!
//! Algorithms proceed in *logical* steps: in step `s` a batch `B_s` of
//! comparisons is sent to the platform, and the next batch depends on the
//! answers. Each logical step expands into a sequence `F(s)` of consecutive
//! *physical* steps: at every physical step `t` a subset `W_t` of the
//! workers is active and each active worker judges one unit. With `w`
//! eligible workers and `m` judgments requested, a batch therefore takes
//! `ceil(m / w)` physical steps — the paper's (and Venetis et al.'s)
//! time-complexity measure.
//!
//! The scheduler deals each job's judgments to workers, never handing the
//! same worker the same unit twice; the physical step of a judgment
//! follows from its position in the deal.

use crate::pool::WorkerPool;
use crate::task::{Unit, UnitId};
use crate::worker::WorkerId;
use crowd_core::model::WorkerClass;

/// Errors the scheduler can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No eligible worker of the required class exists.
    NoEligibleWorkers {
        /// The class that has no eligible workers.
        class: WorkerClass,
    },
    /// A unit requires more judgments than there are eligible workers
    /// (a worker never judges the same unit twice).
    NotEnoughWorkersForUnit {
        /// The affected unit.
        unit: UnitId,
        /// Judgments requested per unit.
        requested: u32,
        /// Eligible workers available.
        available: usize,
    },
    /// A batch-latency figure was requested for an empty worker pool
    /// (`w == 0`): no number of physical steps completes the batch.
    EmptyPool,
    /// A retry re-assignment found no eligible worker that has not
    /// already been handed this unit (a worker never judges the same
    /// unit twice, even across retries).
    NoFreshWorkerForUnit {
        /// The unit that cannot be re-assigned.
        unit: UnitId,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoEligibleWorkers { class } => {
                write!(f, "no eligible {class} workers in the pool")
            }
            ScheduleError::NotEnoughWorkersForUnit {
                unit,
                requested,
                available,
            } => write!(
                f,
                "unit {unit:?} needs {requested} distinct judgments but only {available} eligible workers exist"
            ),
            ScheduleError::EmptyPool => write!(f, "a batch needs at least one worker"),
            ScheduleError::NoFreshWorkerForUnit { unit } => write!(
                f,
                "no eligible worker remains that has not already been assigned unit {unit:?}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// True when `excluded` marks `worker`: the mask is indexed by
/// [`WorkerId::index`], and positions past its end exclude nobody.
fn is_excluded(excluded: &[bool], worker: WorkerId) -> bool {
    excluded.get(worker.index()).copied().unwrap_or(false)
}

/// The workers of `class` in `pool` that `excluded` does not mark, in
/// pool order.
fn eligible_workers<'a>(
    pool: &'a WorkerPool,
    class: WorkerClass,
    excluded: &'a [bool],
) -> impl Iterator<Item = WorkerId> + 'a {
    (0..pool.len())
        .map(|i| WorkerId(i as u32))
        .filter(move |&w| pool.worker(w).class() == class && !is_excluded(excluded, w))
}

/// Plans `per_unit` judgments of each of `units` for workers of `class`
/// in `pool`, excluding the workers `excluded` marks (spam-flagged or
/// dropped out). The mask is indexed by [`WorkerId::index`]; positions
/// past its end exclude nobody, so `&[]` excludes no one. Runs in reused
/// buffers: `eligible` is overwritten with the dealing order and
/// `schedule` with the plan, which is cleared first, so a refused job
/// leaves it empty. Returns the physical steps the plan spans.
///
/// Assignment policy: judgments are laid out unit-major and dealt to
/// workers round-robin starting at `rotation` (callers advance it between
/// jobs so load spreads across the pool), so each unit's judgments land on
/// distinct workers and the load is balanced; the `q`-th judgment goes to
/// the `q % w`-th worker of the dealing order at physical step `q / w`,
/// where `w` is the number of eligible workers (each worker does at most
/// one judgment per physical step).
///
/// The layout is part of the contract: the unit at position `p` in
/// `units` owns exactly the slots `p·per_unit .. (p+1)·per_unit`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schedule_into(
    pool: &WorkerPool,
    units: &[Unit],
    per_unit: u32,
    class: WorkerClass,
    excluded: &[bool],
    rotation: usize,
    eligible: &mut Vec<WorkerId>,
    schedule: &mut Vec<WorkerId>,
) -> Result<u64, ScheduleError> {
    schedule.clear();
    eligible.clear();
    eligible.extend(eligible_workers(pool, class, excluded));
    // Rotate the dealing order so consecutive jobs spread over the whole
    // pool rather than always starting from the same worker — without this
    // a stream of single-unit jobs would starve most of the workforce (and
    // shield spammers from ever meeting a gold question).
    if eligible.is_empty() {
        return Err(ScheduleError::NoEligibleWorkers { class });
    }
    let shift = rotation % eligible.len();
    eligible.rotate_left(shift);
    let w = eligible.len();
    if per_unit as usize > w {
        return Err(ScheduleError::NotEnoughWorkersForUnit {
            unit: units[0].id,
            requested: per_unit,
            available: w,
        });
    }

    // Each physical step hands out the dealing order in full (the last
    // one may stop short) until every judgment has a worker.
    let total = units.len() * per_unit as usize;
    while schedule.len() < total {
        let step = (total - schedule.len()).min(w);
        schedule.extend_from_slice(&eligible[..step]);
    }
    Ok((total as u64).div_ceil(w as u64))
}

/// Picks a fresh worker for a retry of `unit`: eligible (right class, not
/// marked in `excluded`, a mask as in [`schedule_into`]), and not in
/// `already_assigned` — the workers this unit has already been handed to
/// (a handful, so a slice), which preserves the distinct-workers-per-unit
/// invariant across retries. The dealing order rotates by `rotation` like
/// [`schedule_into`]'s, so retry load also spreads over the pool. Scans
/// the pool in place, without collecting the eligible list.
///
/// # Errors
///
/// [`ScheduleError::NoEligibleWorkers`] if the class has no eligible
/// workers at all; [`ScheduleError::NoFreshWorkerForUnit`] if every
/// eligible worker already touched the unit.
pub(crate) fn reassign(
    pool: &WorkerPool,
    class: WorkerClass,
    excluded: &[bool],
    already_assigned: &[WorkerId],
    unit: UnitId,
    rotation: usize,
) -> Result<WorkerId, ScheduleError> {
    let count = eligible_workers(pool, class, excluded).count();
    if count == 0 {
        return Err(ScheduleError::NoEligibleWorkers { class });
    }
    // The dealing order is the eligible list rotated left by `shift`:
    // positions `shift..` first, then the wrapped-around `..shift`.
    let shift = rotation % count;
    let mut wrapped = None;
    for (i, w) in eligible_workers(pool, class, excluded).enumerate() {
        if already_assigned.contains(&w) {
            continue;
        }
        if i >= shift {
            return Ok(w);
        }
        wrapped.get_or_insert(w);
    }
    wrapped.ok_or(ScheduleError::NoFreshWorkerForUnit { unit })
}

/// The paper's batch-latency rule in closed form: `m` judgments dealt to
/// `w` parallel workers take `⌈m / w⌉` physical steps (Section 3, Remark —
/// the same rule the platform's scheduler realizes judgment by judgment).
/// Useful for estimating the wall-clock footprint of a run from its comparison
/// tally alone, without building a pool and jobs.
///
/// # Errors
///
/// Returns [`ScheduleError::EmptyPool`] when `w == 0`: a depleted pool is
/// a schedule failure for the caller to surface (like every other fault
/// path), not an abort mid-experiment.
pub fn physical_steps(m: u64, w: usize) -> Result<u64, ScheduleError> {
    if w == 0 {
        return Err(ScheduleError::EmptyPool);
    }
    Ok(m.div_ceil(w as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::Behavior;
    use crowd_core::element::ElementId;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn pool(naive: usize) -> WorkerPool {
        let mut p = WorkerPool::new();
        p.hire_naive_crowd(naive, 1.0, 0.0);
        p
    }

    fn units(n: usize) -> Vec<Unit> {
        (0..n as u32)
            .map(|i| Unit::regular(UnitId(i), ElementId(2 * i), ElementId(2 * i + 1)))
            .collect()
    }

    /// Plans `judgments` judgments of each of `n` units in fresh buffers:
    /// the schedule and the physical steps it spans.
    fn plan(
        pool: &WorkerPool,
        n: usize,
        judgments: u32,
        class: WorkerClass,
        excluded: &[bool],
        rotation: usize,
    ) -> Result<(Vec<WorkerId>, u64), ScheduleError> {
        let (mut eligible, mut schedule) = (Vec::new(), Vec::new());
        let steps = schedule_into(
            pool,
            &units(n),
            judgments,
            class,
            excluded,
            rotation,
            &mut eligible,
            &mut schedule,
        )?;
        Ok((schedule, steps))
    }

    /// True when no unit's slots (`judgments` apiece, unit-major) repeat a
    /// worker.
    fn no_unit_repeats_a_worker(schedule: &[WorkerId], judgments: u32) -> bool {
        schedule
            .chunks(judgments as usize)
            .all(|slots| slots.iter().collect::<HashSet<_>>().len() == slots.len())
    }

    #[test]
    fn all_judgments_scheduled_once() {
        let (s, _) = plan(&pool(5), 4, 3, WorkerClass::Naive, &[], 0).unwrap();
        assert_eq!(s.len(), 12);
        assert!(no_unit_repeats_a_worker(&s, 3));
    }

    #[test]
    fn assignments_are_unit_major_and_carry_positions() {
        // The unit at position `p` owns slots `p·3 .. (p+1)·3`: three
        // consecutive workers of the dealing order, which starts at
        // worker 2 under rotation 2.
        let (s, _) = plan(&pool(5), 4, 3, WorkerClass::Naive, &[], 2).unwrap();
        for (pos, slots) in s.chunks(3).enumerate() {
            let dealt: Vec<_> = (0..3)
                .map(|i| WorkerId(((2 + 3 * pos + i) % 5) as u32))
                .collect();
            assert_eq!(slots, dealt, "unit {pos}");
        }
    }

    #[test]
    fn reused_buffers_plan_what_a_fresh_schedule_plans() {
        let p = pool(5);
        let (mut eligible, mut schedule) = (vec![WorkerId(9); 7], vec![WorkerId(9); 3]);
        for (n, judgments, rotation) in [(4, 3, 0), (1, 1, 3), (6, 2, 11)] {
            let fresh = plan(
                &p,
                n,
                judgments,
                WorkerClass::Naive,
                &[false, true],
                rotation,
            );
            let steps = schedule_into(
                &p,
                &units(n),
                judgments,
                WorkerClass::Naive,
                &[false, true],
                rotation,
                &mut eligible,
                &mut schedule,
            );
            let (fresh, fresh_steps) = fresh.unwrap();
            assert_eq!(steps, Ok(fresh_steps));
            assert_eq!(schedule, fresh);
            // The `q`-th judgment goes to worker `q % w` of the dealing
            // order.
            for (q, &worker) in schedule.iter().enumerate() {
                assert_eq!(worker, eligible[q % eligible.len()]);
            }
        }
    }

    #[test]
    fn physical_steps_follow_ceil_rule() {
        // 4 units × 3 judgments = 12 slots over 5 workers → ⌈12/5⌉ = 3.
        let (s, steps) = plan(&pool(5), 4, 3, WorkerClass::Naive, &[], 0).unwrap();
        assert_eq!(steps, 3);
        // Slot `q` runs at step `q / 5`, and a worker does one judgment
        // per physical step.
        for (step, slots) in s.chunks(5).enumerate() {
            let workers: HashSet<_> = slots.iter().collect();
            assert_eq!(workers.len(), slots.len(), "double-booked at step {step}");
        }
    }

    #[test]
    fn closed_form_matches_the_planner() {
        let (_, steps) = plan(&pool(5), 4, 3, WorkerClass::Naive, &[], 0).unwrap();
        assert_eq!(Ok(steps), physical_steps(12, 5));
        assert_eq!(physical_steps(0, 3), Ok(0));
        assert_eq!(physical_steps(10, 1), Ok(10));
        assert_eq!(physical_steps(11, 5), Ok(3));
    }

    #[test]
    fn closed_form_rejects_an_empty_pool() {
        assert_eq!(physical_steps(4, 0), Err(ScheduleError::EmptyPool));
        assert_eq!(
            ScheduleError::EmptyPool.to_string(),
            "a batch needs at least one worker"
        );
    }

    #[test]
    fn excluded_workers_receive_nothing() {
        let banned = [true, true];
        let (s, _) = plan(&pool(5), 3, 2, WorkerClass::Naive, &banned, 0).unwrap();
        assert!(s.iter().all(|w| w.index() >= 2));
    }

    #[test]
    fn too_many_judgments_per_unit_errors() {
        let err = plan(&pool(2), 1, 3, WorkerClass::Naive, &[], 0).unwrap_err();
        assert!(matches!(err, ScheduleError::NotEnoughWorkersForUnit { .. }));
        assert!(err.to_string().contains("3 distinct judgments"));
    }

    #[test]
    fn missing_class_errors() {
        let p = pool(3); // no experts
        let err = plan(&p, 1, 1, WorkerClass::Expert, &[], 0).unwrap_err();
        assert!(matches!(err, ScheduleError::NoEligibleWorkers { .. }));
        assert!(err.to_string().contains("expert"));
    }

    #[test]
    fn a_refused_plan_leaves_the_schedule_empty() {
        let p = pool(2);
        let (mut eligible, mut schedule) = (Vec::new(), vec![WorkerId(0)]);
        for (judgments, class) in [(1, WorkerClass::Expert), (3, WorkerClass::Naive)] {
            let refused = schedule_into(
                &p,
                &units(2),
                judgments,
                class,
                &[],
                0,
                &mut eligible,
                &mut schedule,
            );
            assert!(refused.is_err());
            assert!(schedule.is_empty(), "nobody was asked: {schedule:?}");
            schedule.push(WorkerId(1));
        }
    }

    #[test]
    fn spammer_hiring_does_not_break_scheduling() {
        let mut p = pool(2);
        p.hire(
            WorkerClass::Naive,
            "spam",
            Behavior::Spammer(crate::worker::SpamStrategy::Random),
        );
        let (s, _) = plan(&p, 1, 3, WorkerClass::Naive, &[], 0).unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn rotation_spreads_single_unit_jobs_across_the_pool() {
        let p = pool(5);
        let mut seen = HashSet::new();
        for rotation in 0..5 {
            let (s, _) = plan(&p, 1, 1, WorkerClass::Naive, &[], rotation).unwrap();
            seen.insert(s[0]);
        }
        assert_eq!(
            seen.len(),
            5,
            "five rotations must reach five distinct workers"
        );
    }

    #[test]
    fn reassign_skips_workers_the_unit_already_saw() {
        let p = pool(3);
        let tried = [WorkerId(0), WorkerId(2)];
        let w = reassign(&p, WorkerClass::Naive, &[], &tried, UnitId(0), 0).unwrap();
        assert_eq!(w, WorkerId(1));
    }

    #[test]
    fn reassign_respects_exclusions_and_rotation() {
        let p = pool(4);
        let excluded = [false, true];
        // Eligible list is [0, 2, 3]; rotation 2 starts the deal at its
        // third entry, worker 3.
        let w = reassign(&p, WorkerClass::Naive, &excluded, &[], UnitId(0), 2).unwrap();
        assert_eq!(w, WorkerId(3));
    }

    #[test]
    fn reassign_errors_when_every_worker_already_touched_the_unit() {
        let p = pool(2);
        let tried = [WorkerId(0), WorkerId(1)];
        let err = reassign(&p, WorkerClass::Naive, &[], &tried, UnitId(7), 0).unwrap_err();
        assert_eq!(err, ScheduleError::NoFreshWorkerForUnit { unit: UnitId(7) });
        assert!(err.to_string().contains("not already been assigned"));
    }

    #[test]
    fn reassign_errors_on_an_empty_class() {
        let p = pool(2);
        let err = reassign(&p, WorkerClass::Expert, &[], &[], UnitId(0), 0).unwrap_err();
        assert!(matches!(err, ScheduleError::NoEligibleWorkers { .. }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every schedule covers exactly `units × judgments` slots, never
        /// double-books a worker within a physical step (slot `q` runs at
        /// step `q / w`), never assigns a worker twice to the same unit,
        /// and obeys the ⌈m/w⌉ physical-step rule.
        #[test]
        fn schedule_invariants(
            workers in 1usize..40,
            units in 1usize..30,
            judgments in 1u32..8,
            rotation in 0usize..100,
        ) {
            prop_assume!(judgments as usize <= workers);
            let (s, steps) = plan(&pool(workers), units, judgments, WorkerClass::Naive, &[], rotation).unwrap();

            let total = units as u64 * u64::from(judgments);
            prop_assert_eq!(s.len() as u64, total);
            prop_assert!(no_unit_repeats_a_worker(&s, judgments));
            prop_assert_eq!(steps, total.div_ceil(workers as u64));
            let mut at_step = HashSet::new();
            for (q, worker) in s.iter().enumerate() {
                if q % workers == 0 {
                    at_step.clear();
                }
                prop_assert!(at_step.insert(worker), "double-booked worker at step {}", q / workers);
            }
        }

        /// The rotation parameter is a pure relabeling: it changes who works,
        /// never how much work happens.
        #[test]
        fn rotation_preserves_workload(workers in 2usize..20, units in 1usize..20, r1 in 0usize..50, r2 in 0usize..50) {
            let p = pool(workers);
            let (s1, steps1) = plan(&p, units, 1, WorkerClass::Naive, &[], r1).unwrap();
            let (s2, steps2) = plan(&p, units, 1, WorkerClass::Naive, &[], r2).unwrap();
            prop_assert_eq!(s1.len(), s2.len());
            prop_assert_eq!(steps1, steps2);
        }
    }
}
