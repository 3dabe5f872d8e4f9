//! The worker pool: the set `W` of available workers.
//!
//! The pool owns the live workers, partitions them by class, and hands out
//! assignments round-robin so that no worker judges the same unit twice —
//! the "at least 21 answers per pair" protocol of the paper's Section 3.1
//! needs 21 *distinct* workers per pair.

use crate::worker::{Behavior, Worker, WorkerId, WorkerProfile};
use crowd_core::model::{TiePolicy, WorkerClass};

/// A pool of live workers.
#[derive(Debug, Clone, Default)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkerPool::default()
    }

    /// Hires one worker with the given class, channel and behaviour;
    /// returns her id.
    pub fn hire(&mut self, class: WorkerClass, channel: &str, behavior: Behavior) -> WorkerId {
        let id = WorkerId(self.workers.len() as u32);
        self.workers.push(Worker::new(WorkerProfile {
            id,
            class,
            channel: channel.to_string(),
            behavior,
        }));
        id
    }

    /// Hires `count` identical workers; returns their ids.
    pub fn hire_many(
        &mut self,
        count: usize,
        class: WorkerClass,
        channel: &str,
        behavior: Behavior,
    ) -> Vec<WorkerId> {
        (0..count)
            .map(|_| self.hire(class, channel, behavior))
            .collect()
    }

    /// A convenience crowd: `count` naïve threshold workers with uniform
    /// random tie-breaking — the paper's default simulation population.
    pub fn hire_naive_crowd(&mut self, count: usize, delta: f64, epsilon: f64) -> Vec<WorkerId> {
        self.hire_many(
            count,
            WorkerClass::Naive,
            "crowd",
            Behavior::Threshold {
                delta,
                epsilon,
                tie: TiePolicy::UniformRandom,
            },
        )
    }

    /// A heterogeneous crowd: `count` naïve workers whose individual
    /// discernment thresholds are drawn uniformly from
    /// `[delta_lo, delta_hi]` — the paper's closing remark about "a
    /// continuous measure of expertise for ranking workers" as a pool
    /// rather than discrete classes.
    ///
    /// # Panics
    ///
    /// Panics if `delta_lo > delta_hi` or either is negative.
    pub fn hire_heterogeneous_crowd<R: rand::RngCore>(
        &mut self,
        count: usize,
        delta_lo: f64,
        delta_hi: f64,
        epsilon: f64,
        rng: &mut R,
    ) -> Vec<WorkerId> {
        use rand::Rng;
        assert!(
            delta_lo >= 0.0 && delta_lo <= delta_hi,
            "need 0 <= delta_lo <= delta_hi"
        );
        (0..count)
            .map(|_| {
                let delta = if delta_lo == delta_hi {
                    delta_lo
                } else {
                    rng.gen_range(delta_lo..delta_hi)
                };
                self.hire(
                    WorkerClass::Naive,
                    "crowd",
                    Behavior::Threshold {
                        delta,
                        epsilon,
                        tie: TiePolicy::UniformRandom,
                    },
                )
            })
            .collect()
    }

    /// A convenience panel of experts with fine discernment `delta`.
    pub fn hire_expert_panel(&mut self, count: usize, delta: f64, epsilon: f64) -> Vec<WorkerId> {
        self.hire_many(
            count,
            WorkerClass::Expert,
            "external-experts",
            Behavior::Threshold {
                delta,
                epsilon,
                tie: TiePolicy::UniformRandom,
            },
        )
    }

    /// Number of workers in the pool.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True if the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Ids of all workers of `class`.
    pub fn ids_of_class(&self, class: WorkerClass) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|w| w.class() == class)
            .map(Worker::id)
            .collect()
    }

    /// Number of workers of `class`.
    pub fn count_of_class(&self, class: WorkerClass) -> usize {
        self.workers.iter().filter(|w| w.class() == class).count()
    }

    /// Access a worker by id.
    pub fn worker(&self, id: WorkerId) -> &Worker {
        &self.workers[id.index()]
    }

    /// Mutable access, for producing judgments.
    pub fn worker_mut(&mut self, id: WorkerId) -> &mut Worker {
        &mut self.workers[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> WorkerPool {
        let mut p = WorkerPool::new();
        p.hire_naive_crowd(5, 10.0, 0.1);
        p.hire_expert_panel(2, 1.0, 0.0);
        p
    }

    #[test]
    fn hire_assigns_sequential_ids() {
        let p = pool();
        assert_eq!(p.len(), 7);
        assert_eq!(p.worker(WorkerId(0)).id(), WorkerId(0));
        assert_eq!(p.worker(WorkerId(6)).id(), WorkerId(6));
    }

    #[test]
    fn class_partitions() {
        let p = pool();
        assert_eq!(p.count_of_class(WorkerClass::Naive), 5);
        assert_eq!(p.count_of_class(WorkerClass::Expert), 2);
        assert_eq!(p.ids_of_class(WorkerClass::Expert).len(), 2);
    }

    #[test]
    fn heterogeneous_crowd_has_varied_discernment() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut p = WorkerPool::new();
        let mut rng = StdRng::seed_from_u64(1);
        let ids = p.hire_heterogeneous_crowd(20, 1.0, 100.0, 0.05, &mut rng);
        assert_eq!(ids.len(), 20);
        let deltas: Vec<f64> = ids
            .iter()
            .map(|&id| match p.worker(id).profile().behavior {
                Behavior::Threshold { delta, .. } => delta,
                _ => unreachable!("heterogeneous crowds are threshold workers"),
            })
            .collect();
        let (lo, hi) = deltas
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), &d| (a.min(d), b.max(d)));
        assert!(hi - lo > 20.0, "discernment should vary: {lo}..{hi}");
        assert!(deltas.iter().all(|&d| (1.0..100.0).contains(&d)));
    }

    #[test]
    fn empty_pool() {
        let p = WorkerPool::new();
        assert!(p.is_empty());
        assert!(p.ids_of_class(WorkerClass::Naive).is_empty());
    }
}
