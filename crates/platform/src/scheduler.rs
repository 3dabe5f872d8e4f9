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
//! The scheduler builds the concrete assignment: which worker judges which
//! unit at which physical step, never assigning the same worker to the same
//! unit twice.

use crate::pool::WorkerPool;
use crate::task::{Job, Unit, UnitId};
use crate::worker::WorkerId;
use crowd_core::model::WorkerClass;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One planned assignment: `worker` judges `unit` at `physical_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// The unit to judge.
    pub unit: UnitId,
    /// The unit's position in the job's [`units`](Job::units), so callers
    /// can keep per-unit state in position-indexed vectors.
    pub unit_pos: usize,
    /// The worker assigned.
    pub worker: WorkerId,
    /// The physical step at which the judgment happens.
    pub physical_step: u64,
}

/// A full schedule for one job (one logical step).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// All assignments, ordered by physical step.
    pub assignments: Vec<Assignment>,
    /// Number of physical steps the logical step spans (`|F(s)|`).
    pub physical_steps: u64,
}

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

/// Plans a job of `class` over the eligible workers of `pool`, excluding
/// the workers `excluded` marks (spam-flagged or dropped out).
/// The mask is indexed by [`WorkerId::index`]; positions past its end
/// exclude nobody, so `&[]` excludes no one.
///
/// Assignment policy: judgments are laid out unit-major and dealt to
/// workers round-robin starting at `rotation` (callers advance it between
/// jobs so load spreads across the pool), so each unit's judgments land on
/// distinct workers and the load is balanced; the physical step of the
/// `q`-th judgment is `q / w` where `w` is the number of eligible workers
/// (each worker does at most one judgment per physical step).
///
/// The layout is part of the contract: with `j` judgments per unit, the
/// unit at position `p` in [`Job::units`] owns exactly the assignments
/// `p·j .. (p+1)·j`, each carrying `unit_pos == p`.
pub fn schedule(
    pool: &WorkerPool,
    job: &Job,
    class: WorkerClass,
    excluded: &[bool],
    starting_step: u64,
    rotation: usize,
) -> Result<Schedule, ScheduleError> {
    let mut eligible = Vec::with_capacity(pool.len());
    let mut assignments = Vec::with_capacity(job.total_judgments() as usize);
    let physical_steps = schedule_into(
        pool,
        job.units(),
        job.judgments_per_unit(),
        class,
        excluded,
        starting_step,
        rotation,
        &mut eligible,
        &mut assignments,
    )?;
    Ok(Schedule {
        assignments,
        physical_steps,
    })
}

/// [`schedule`] over `per_unit` judgments of each of `units`, into
/// reused buffers: `eligible` is overwritten with the dealing order and
/// `assignments` with the plan. Returns the physical steps the plan spans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schedule_into(
    pool: &WorkerPool,
    units: &[Unit],
    per_unit: u32,
    class: WorkerClass,
    excluded: &[bool],
    starting_step: u64,
    rotation: usize,
    eligible: &mut Vec<WorkerId>,
    assignments: &mut Vec<Assignment>,
) -> Result<u64, ScheduleError> {
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

    // The `q`-th judgment goes to `eligible[q % w]` at step `q / w`,
    // dealt by running counters.
    assignments.clear();
    let (mut slot, mut physical_step) = (0, starting_step);
    for (unit_pos, unit) in units.iter().enumerate() {
        for _ in 0..per_unit {
            assignments.push(Assignment {
                unit: unit.id,
                unit_pos,
                worker: eligible[slot],
                physical_step,
            });
            slot += 1;
            if slot == w {
                slot = 0;
                physical_step += 1;
            }
        }
    }
    Ok((assignments.len() as u64).div_ceil(w as u64))
}

/// Picks a fresh worker for a retry of `unit`: eligible (right class, not
/// marked in `excluded`, a mask as in [`schedule`]), and not in
/// `already_assigned` — the workers this unit has already been handed to
/// (a handful, so a slice), which preserves the distinct-workers-per-unit
/// invariant across retries. The dealing order rotates by `rotation` like
/// [`schedule`] so retry load also spreads over the pool. Scans the pool
/// in place, without collecting the eligible list.
///
/// # Errors
///
/// [`ScheduleError::NoEligibleWorkers`] if the class has no eligible
/// workers at all; [`ScheduleError::NoFreshWorkerForUnit`] if every
/// eligible worker already touched the unit.
pub fn reassign(
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
/// the same rule [`schedule`] realizes assignment by assignment). Useful
/// for estimating the wall-clock footprint of a run from its comparison
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

/// Checks the distinct-worker-per-unit invariant of a schedule (used by
/// tests and debug assertions).
pub fn distinct_workers_per_unit(schedule: &Schedule) -> bool {
    use std::collections::HashMap;
    let mut seen: HashMap<UnitId, HashSet<WorkerId>> = HashMap::new();
    schedule
        .assignments
        .iter()
        .all(|a| seen.entry(a.unit).or_default().insert(a.worker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::Behavior;
    use crowd_core::element::ElementId;

    fn pool(naive: usize) -> WorkerPool {
        let mut p = WorkerPool::new();
        p.hire_naive_crowd(naive, 1.0, 0.0);
        p
    }

    fn job(units: usize, judgments: u32) -> Job {
        let pairs: Vec<_> = (0..units)
            .map(|i| (ElementId(2 * i as u32), ElementId(2 * i as u32 + 1)))
            .collect();
        Job::from_pairs(&pairs, judgments)
    }

    #[test]
    fn all_judgments_scheduled_once() {
        let p = pool(5);
        let s = schedule(&p, &job(4, 3), WorkerClass::Naive, &[], 0, 0).unwrap();
        assert_eq!(s.assignments.len(), 12);
        assert!(distinct_workers_per_unit(&s));
    }

    #[test]
    fn assignments_are_unit_major_and_carry_positions() {
        let p = pool(5);
        let job = job(4, 3);
        let s = schedule(&p, &job, WorkerClass::Naive, &[], 0, 0).unwrap();
        for (pos, chunk) in s.assignments.chunks(3).enumerate() {
            assert!(chunk
                .iter()
                .all(|a| a.unit_pos == pos && a.unit == job.units()[pos].id));
        }
    }

    #[test]
    fn reused_buffers_plan_what_a_fresh_schedule_plans() {
        let p = pool(5);
        let (mut eligible, mut assignments) = (vec![WorkerId(9); 7], Vec::new());
        for (units, judgments, start, rotation) in [(4, 3, 0, 0), (1, 1, 7, 3), (6, 2, 2, 11)] {
            let job = job(units, judgments);
            let fresh = schedule(
                &p,
                &job,
                WorkerClass::Naive,
                &[false, true],
                start,
                rotation,
            );
            let steps = schedule_into(
                &p,
                job.units(),
                judgments,
                WorkerClass::Naive,
                &[false, true],
                start,
                rotation,
                &mut eligible,
                &mut assignments,
            );
            let fresh = fresh.unwrap();
            assert_eq!(steps, Ok(fresh.physical_steps));
            assert_eq!(assignments, fresh.assignments);
            // The running counters deal the `q`-th judgment to worker
            // `q % w` at step `q / w`.
            for (q, a) in assignments.iter().enumerate() {
                assert_eq!(a.worker, eligible[q % eligible.len()]);
                assert_eq!(a.physical_step, start + (q / eligible.len()) as u64);
            }
        }
    }

    #[test]
    fn physical_steps_follow_ceil_rule() {
        let p = pool(5);
        // 4 units × 3 judgments = 12 assignments over 5 workers → ⌈12/5⌉ = 3.
        let s = schedule(&p, &job(4, 3), WorkerClass::Naive, &[], 0, 0).unwrap();
        assert_eq!(s.physical_steps, 3);
        assert!(s.assignments.iter().all(|a| a.physical_step < 3));
        // A single worker per physical step does one judgment.
        for step in 0..3 {
            let mut workers_at_step = HashSet::new();
            for a in s.assignments.iter().filter(|a| a.physical_step == step) {
                assert!(
                    workers_at_step.insert(a.worker),
                    "worker double-booked at step {step}"
                );
            }
        }
    }

    #[test]
    fn closed_form_matches_the_planner() {
        let p = pool(5);
        let s = schedule(&p, &job(4, 3), WorkerClass::Naive, &[], 0, 0).unwrap();
        assert_eq!(Ok(s.physical_steps), physical_steps(12, 5));
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
    fn starting_step_offsets_the_schedule() {
        let p = pool(5);
        let s = schedule(&p, &job(2, 2), WorkerClass::Naive, &[], 10, 0).unwrap();
        assert!(s.assignments.iter().all(|a| a.physical_step >= 10));
    }

    #[test]
    fn excluded_workers_receive_nothing() {
        let p = pool(5);
        let banned = [true, true];
        let s = schedule(&p, &job(3, 2), WorkerClass::Naive, &banned, 0, 0).unwrap();
        assert!(s.assignments.iter().all(|a| a.worker.index() >= 2));
    }

    #[test]
    fn too_many_judgments_per_unit_errors() {
        let p = pool(2);
        let err = schedule(&p, &job(1, 3), WorkerClass::Naive, &[], 0, 0).unwrap_err();
        assert!(matches!(err, ScheduleError::NotEnoughWorkersForUnit { .. }));
        assert!(err.to_string().contains("3 distinct judgments"));
    }

    #[test]
    fn missing_class_errors() {
        let p = pool(3); // no experts
        let err = schedule(&p, &job(1, 1), WorkerClass::Expert, &[], 0, 0).unwrap_err();
        assert!(matches!(err, ScheduleError::NoEligibleWorkers { .. }));
        assert!(err.to_string().contains("expert"));
    }

    #[test]
    fn spammer_hiring_does_not_break_scheduling() {
        let mut p = pool(2);
        p.hire(
            WorkerClass::Naive,
            "spam",
            Behavior::Spammer(crate::worker::SpamStrategy::Random),
        );
        let s = schedule(&p, &job(1, 3), WorkerClass::Naive, &[], 0, 0).unwrap();
        assert_eq!(s.assignments.len(), 3);
    }

    #[test]
    fn rotation_spreads_single_unit_jobs_across_the_pool() {
        let p = pool(5);
        let mut seen = HashSet::new();
        for rotation in 0..5 {
            let s = schedule(&p, &job(1, 1), WorkerClass::Naive, &[], 0, rotation).unwrap();
            seen.insert(s.assignments[0].worker);
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
}
